"""The three benchmark workloads: CLI configs, output checks, accuracy figures.

Each workload is a list of `vkshell run` steps.  A step is one config
document, loaded with `cli.load_config` and run with `cli.cmd_run` exactly as
a user's config would be.  The benchmark seed feeds the only random input,
the initial state of `plate_lbfgs`; the other two workloads ignore it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

MATERIAL = {"mu": 1.0, "lambda": 1.0}
# Accuracy figures the checks report; each workload computes one of them.
FIGURES = ("vk_residual", "lbfgs_grad_rel", "thin_drift")
TWO_PI = 2.0 * math.pi

# The residual floor of the 256^2 Picard iteration; the check allows 10x.
VK_FLOOR = 1.2e-9
# Converged 17^2 I40 energy; random initial states agree to a few 1e-9.
PLATE17_ENERGY = 1.14058051e-2
PLATE17_RTOL = 1e-8
SCALING_H = [1e-1, 3e-2, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
# Seed ratios E3d / (h^4 E2d) for h >= 1e-3.  The thinner rows are left free,
# so that a more accurate 3-D quadrature can move them.
SCALING_REF = {
    1e-1: 0.9922739977689478,
    3e-2: 0.9991509655135502,
    1e-2: 0.9997710205874211,
    1e-3: 0.9998479290473583,
}
SCALING_ATOL = 1e-6


@dataclass(frozen=True)
class Step:
    name: str
    config: dict
    threads: int = 1


@dataclass
class Outcome:
    """What the checks of one repetition found."""

    errors: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)


def _vk_steps(seed: int) -> list[Step]:
    return [
        Step(
            "vk256",
            {
                "grid": {"nx": 256, "ny": 256, "domain": [0.0, TWO_PI, 0.0, TWO_PI], "bc": "periodic"},
                "material": MATERIAL,
                "growth": {"preset": "kappa_sine", "amplitude": 0.5},
                "geometry": {"v0": "zero"},
                "run": {"command": "solve-vk", "model": "old", "tol": 1e-10,
                        "max_sweeps": 60, "relaxation": 0.7},
            },
        )
    ]


def _plate_steps(seed: int) -> list[Step]:
    steps = []
    for n, max_iter in ((17, 5000), (33, None)):
        run = {"command": "minimize", "functional": "I40", "init": "random", "seed": seed}
        if max_iter is not None:
            run["max_iter"] = max_iter
        steps.append(
            Step(
                f"plate{n}",
                {
                    "grid": {"nx": n, "ny": n, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"},
                    "material": MATERIAL,
                    "growth": {"preset": "kappa_sine"},
                    "geometry": {"v0": "zero"},
                    "run": run,
                },
            )
        )
    return steps


def _scaling_steps(seed: int) -> list[Step]:
    return [
        Step(
            "scaling129",
            {
                "grid": {"nx": 129, "ny": 129, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"},
                "material": MATERIAL,
                "growth": {"preset": "kappa_sine"},
                "geometry": {"v0": "paraboloid", "alpha": 1.0},
                "run": {"command": "scaling", "n_t": 5, "h_list": SCALING_H},
            },
            threads=2,
        )
    ]


def _csv_errors(path: Path, rows: int) -> list[str]:
    """The field CSV exists, has one line per node and only finite values."""
    if not path.is_file():
        return [f"{path.name} missing"]
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    errors = []
    if len(lines) != rows:
        errors.append(f"{path.name}: {len(lines)} rows, expected {rows}")
    try:
        finite = all(math.isfinite(float(x)) for line in lines for x in line.split(","))
    except ValueError as exc:
        return errors + [f"{path.name}: {exc}"]
    if not finite:
        errors.append(f"{path.name}: non-finite values")
    return errors


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _check_vk(step: Step, summary: dict, outdir: Path, out: Outcome):
    rho = summary["outputs"]["solve"]["grad_norm"]
    out.figures["vk_residual"] = rho
    if not (_finite(rho) and rho <= 10.0 * VK_FLOOR):
        out.errors.append(f"projected residual {rho!r} above 10x the {VK_FLOOR:g} floor")
    n = step.config["grid"]["nx"] * step.config["grid"]["ny"]
    for name in ("v.csv", "phi.csv"):
        out.errors += _csv_errors(outdir / "fields" / name, n)


def _check_plate(step: Step, summary: dict, outdir: Path, out: Outcome):
    solve = summary["outputs"]["solve"]
    energy, gnorm = solve["final_energy"], solve["grad_norm"]
    if not (_finite(energy) and _finite(gnorm)):
        out.errors.append(f"{step.name}: non-finite energy {energy!r} or gradient {gnorm!r}")
        return
    rel = gnorm / (1.0 + abs(energy))
    out.figures["lbfgs_grad_rel"] = max(out.figures.get("lbfgs_grad_rel", 0.0), rel)
    if step.name == "plate17":
        if not solve["converged"]:
            out.errors.append("plate17 did not converge")
        if abs(energy - PLATE17_ENERGY) > PLATE17_RTOL * PLATE17_ENERGY:
            out.errors.append(f"plate17 energy {energy!r} differs from {PLATE17_ENERGY!r}")
    n = step.config["grid"]["nx"] * step.config["grid"]["ny"]
    for name in ("v.csv", "w.csv"):
        out.errors += _csv_errors(outdir / "fields" / name, n)


def _check_scaling(step: Step, summary: dict, outdir: Path, out: Outcome):
    rows = {r["h"]: r["ratio"] for r in summary["outputs"]["rows"]}
    if sorted(rows, reverse=True) != SCALING_H:
        out.errors.append(f"scaling rows for h = {sorted(rows)}, expected {SCALING_H}")
        return
    for h, ratio in rows.items():
        if not (_finite(ratio) and 0.5 <= ratio <= 2.0):
            out.errors.append(f"ratio {ratio!r} at h = {h:g} outside the factor-2 band")
        elif h in SCALING_REF and abs(ratio - SCALING_REF[h]) > SCALING_ATOL:
            out.errors.append(f"ratio {ratio!r} at h = {h:g} differs from {SCALING_REF[h]!r}")
    out.figures["thin_drift"] = abs(rows[1e-6] - rows[1e-3])
    lines = (outdir / "scaling.csv").read_text(encoding="utf-8").splitlines()
    if len(lines) != len(SCALING_H) + 1:
        out.errors.append(f"scaling.csv has {len(lines)} lines")


@dataclass(frozen=True)
class Workload:
    steps: Callable[[int], list]
    check: Callable
    # the layers named here must do work on this workload; those under `idle` none
    busy: tuple
    idle: tuple
    # counts that another seed must change; with none, no count may change
    seed_driven: tuple = ()


WORKLOADS = {
    "vk_torus": Workload(
        _vk_steps,
        _check_vk,
        busy=("fields.stencil.calls", "fields.pointwise.calls", "fields.io.bytes", "growth.calls",
              "solver.picard.sweeps", "solver.biharmonic.calls"),
        idle=("energy.", "solver.lbfgs.", "shell3d."),
    ),
    "plate_lbfgs": Workload(
        _plate_steps,
        _check_plate,
        busy=("fields.stencil.calls", "fields.pointwise.calls", "fields.io.bytes", "energy.evals",
              "energy.grad_evals", "energy.q2.calls", "solver.lbfgs.iters", "solver.lbfgs.fg_evals"),
        idle=("solver.picard.", "solver.biharmonic.", "shell3d."),
        seed_driven=("solver.lbfgs.iters", "solver.lbfgs.fg_evals", "energy.evals"),
    ),
    "shell_scaling": Workload(
        _scaling_steps,
        _check_scaling,
        busy=("growth.calls", "shell3d.energy_3d.calls", "shell3d.points"),
        idle=("solver.", "energy.evals", "energy.grad_evals"),
    ),
}


def check_step(workload: str, step: Step, code: int, summary: dict, outdir: Path, out: Outcome):
    """Run the workload's output check on one finished step."""
    if code != 0 or summary.get("incomplete"):
        out.errors.append(f"{step.name}: exit code {code}, error {summary.get('error')!r}")
        return
    on_disk = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    if on_disk.get("outputs") is None:
        out.errors.append(f"{step.name}: summary.json has no outputs")
        return
    WORKLOADS[workload].check(step, on_disk, outdir, out)
