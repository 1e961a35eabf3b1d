"""Reproducible experiment driver.

One JSON config document drives both subcommands:

    vkshell verify --config cfg.json
    vkshell run    --config cfg.json --out DIR [--threads N]

verify runs the identity suite (operator kernels, the tangential-gradient
identity against the cofactor pairing, the effective-growth source pair,
the metric-pullback slope, the relaxation brute force, the collapse of
the three plate functionals at flat reference) and exits 0 only if every
check passes.  run dispatches minimize / solve-vk / scaling and writes
field CSVs plus JSON summaries; identical config and seed reproduce the
summaries bit for bit in serial mode (wall-clock time lives in a separate
report file for that reason).

Exit codes: 0 success, 1 solver failure, 2 config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import energy as en
from . import shell3d as sh
from . import solver as so
from .fields import (
    DIRICHLET,
    PERIODIC,
    Grid2D,
    MatrixField2,
    ScalarField,
    VectorField2,
    airy_bracket,
    cof2_values,
    curl_t_curl,
    det2_values,
    div_t_div,
    grad_values,
    hessian_values,
    save_csv,
    sym_grad_values,
    sym_values,
)
from .growth import (
    GROWTH_PRESETS,
    GrowthFields,
    GrowthSpec,
    GrowthSpecError,
    _check_terms,
    eval_growth,
    eval_poly,
    growth_preset,
    effective_growth,
    lambda_g,
    omega_g,
    omega_sine_reference,
    wavenumbers,
)

V0_PRESETS = ("zero", "saddle", "paraboloid", "sine")
RUN_COMMANDS = ("minimize", "solve-vk", "scaling")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _require_keys(block: dict, where: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object, got {type(block).__name__}")
    unknown = set(block) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(block)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(block: dict, key: str, where: str, default=None):
    val = block.get(key, default)
    if not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {val!r}")
    return val


def _integer(block: dict, key: str, where: str, default: int, low: int) -> int:
    val = block.get(key, default)
    if not isinstance(val, int) or isinstance(val, bool) or val < low:
        raise ConfigError(f"{where}.{key}: expected an integer >= {low}, got {val!r}")
    return val


@dataclass
class ExperimentConfig:
    grid: Grid2D
    material: en.Material
    growth: GrowthFields
    growth_info: dict
    v0: ScalarField
    alpha: float
    run: dict
    resolved: dict
    config_hash: str


def _parse_grid(block: dict) -> Grid2D:
    _require_keys(block, "grid", ("nx", "ny", "bc"), ("domain",))
    nx = block["nx"]
    ny = block["ny"]
    if not isinstance(nx, int) or not isinstance(ny, int):
        raise ConfigError("grid.nx / grid.ny must be integers")
    bc = block["bc"]
    if bc not in ("periodic", "dirichlet", "dirichlet-ghost"):
        raise ConfigError(f"grid.bc: unknown mode {bc!r}")
    bc = PERIODIC if bc == "periodic" else DIRICHLET
    domain = block.get("domain", [0.0, 1.0, 0.0, 1.0])
    if not (isinstance(domain, list) and len(domain) == 4):
        raise ConfigError("grid.domain must be [a1, b1, a2, b2]")
    entries = dict(enumerate(domain))
    ends = tuple(float(_number(entries, i, "grid.domain")) for i in entries)
    try:
        return Grid2D(nx, ny, ends, bc=bc)
    except ValueError as exc:  # a SizingError, or a step whose 1/dx^2 overflows
        raise ConfigError(f"grid: {exc}") from exc


def _parse_material(block: dict) -> en.Material:
    _require_keys(block, "material", ("mu", "lambda"))
    try:
        return en.Material(_number(block, "mu", "material"), _number(block, "lambda", "material"))
    except ValueError as exc:
        raise ConfigError(f"material: {exc}") from exc


def _parse_growth(block: dict, grid: Grid2D) -> tuple[GrowthFields, dict]:
    if not isinstance(block, dict):
        raise ConfigError("growth: expected an object")
    if "preset" in block:
        _require_keys(block, "growth", ("preset",), ("amplitude",))
        name = block["preset"]
        if name not in GROWTH_PRESETS:
            raise ConfigError(f"growth.preset: unknown preset {name!r}; choose from {GROWTH_PRESETS}")
        amp = _number(block, "amplitude", "growth", 1.0)
        return _sampled("growth", growth_preset, name, grid, amp), {"preset": name, "amplitude": amp}
    try:
        spec = GrowthSpec.from_config(block)
    except ValueError as exc:
        raise ConfigError(f"growth: {exc}") from exc
    for name, entries in (("eps", spec.eps_entries), ("kappa", spec.kappa_entries)):
        for (i, j), terms in entries.items():
            periodic = all(p + q == 0 for _, p, q in terms)
            _check_seam(grid, periodic, f"growth: {name}[{i},{j}]", "a preset or constant terms")
    return _sampled("growth", eval_growth, spec, grid), {"spec_keys": sorted(block)}


def _check_seam(grid: Grid2D, periodic: bool, what: str, hint: str) -> None:
    """A non-periodic field, such as a non-constant polynomial, jumps at the seam of a periodic grid."""
    if grid.periodic and not periodic:
        raise ConfigError(
            f"{what} is a non-constant polynomial, which jumps at the seam of a periodic grid; use {hint} there"
        )


def _poly_terms(terms, where: str) -> list:
    """The checked (coef, p, q) triples of a polynomial term list."""
    try:
        return _check_terms(terms, where)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_poly_field(grid: Grid2D, terms, where: str) -> ScalarField:
    terms = _poly_terms(terms, where)
    _check_seam(grid, all(p + q == 0 for _, p, q in terms), where, "constant terms")
    return _sampled(where, ScalarField, grid, eval_poly(terms, grid.X1, grid.X2))


def _sample_v0(grid: Grid2D, kind, scale: float) -> ScalarField:
    if isinstance(kind, list):
        terms = _poly_terms(kind, "geometry.v0")
        periodic = all(p + q == 0 for _, p, q in terms)
    elif kind in V0_PRESETS:
        periodic = kind in ("zero", "sine")
    elif isinstance(kind, str):
        raise ConfigError(f"geometry.v0: unknown preset {kind!r}; choose from {V0_PRESETS}")
    else:
        raise ConfigError("geometry.v0 must be a preset name or a [[coef, p, q], ...] list")
    _check_seam(grid, periodic, f"geometry.v0: {kind!r}", "'zero' or 'sine'")
    if kind == "zero":
        return ScalarField.zeros(grid)
    x, y = grid.X1, grid.X2
    if isinstance(kind, list):
        data = eval_poly(terms, x, y)
    elif kind == "saddle":
        data = x * y
    elif kind == "paraboloid":
        data = 0.5 * (x * x + y * y)
    else:
        k1, k2 = wavenumbers(grid)
        data = np.sin(k1 * (x - grid.domain[0])) * np.sin(k2 * (y - grid.domain[2]))
    data *= scale  # every branch above built data afresh
    return _sampled("geometry.v0", ScalarField, grid, data)


def _sampled(where: str, sample, *args):
    """sample(*args), a field: finite config values that overflow it are a config error too."""
    try:
        return sample(*args)
    except ValueError as exc:  # field samples must all be finite
        raise ConfigError(f"{where}: {exc}") from exc


@np.errstate(over="ignore", invalid="ignore")  # samples that overflow are reported once, by _sampled
def parse_config(doc: dict) -> ExperimentConfig:
    _require_keys(doc, "config", ("grid", "material", "growth", "geometry"), ("run",))
    grid = _parse_grid(doc["grid"])
    material = _parse_material(doc["material"])
    growth, growth_info = _parse_growth(doc["growth"], grid)
    geom = doc["geometry"]
    _require_keys(geom, "geometry", ("v0",), ("alpha", "v0_scale"))
    alpha = float(_number(geom, "alpha", "geometry", 1.0))
    v0 = _sample_v0(grid, geom["v0"], float(_number(geom, "v0_scale", "geometry", 1.0)))

    run = doc.get("run", {})
    _require_keys(
        run,
        "run",
        (),
        (
            "command",
            "functional",
            "model",
            "tol",
            "max_iter",
            "max_sweeps",
            "relaxation",
            "seed",
            "init",
            "h_list",
            "n_t",
            "penalty",
            "state",
        ),
    )
    if "command" in run and run["command"] not in RUN_COMMANDS:
        raise ConfigError(f"run.command: unknown command {run['command']!r}; choose from {RUN_COMMANDS}")
    if "penalty" in run:
        _require_keys(run["penalty"], "run.penalty", (), ("initial", "doublings"))
    if "state" in run and not isinstance(run["state"], (str, dict)):
        raise ConfigError("run.state must be 'auto' or an object with v/w/vtilde term lists")

    resolved = {
        "grid": {
            "nx": grid.nx,
            "ny": grid.ny,
            "domain": list(grid.domain),
            "bc": "periodic" if grid.periodic else "dirichlet-ghost",
        },
        "material": {"mu": material.mu, "lambda": material.lam},
        "growth": dict(doc["growth"]),
        "geometry": {
            "v0": geom["v0"],
            "v0_scale": float(geom.get("v0_scale", 1.0)),
            "alpha": alpha,
        },
        "run": dict(run),
    }
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return ExperimentConfig(grid, material, growth, growth_info, v0, alpha, run, resolved, digest)


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


# -- the identity suite ----------------------------------------------------------

def _test_fields(grid: Grid2D):
    """Smooth periodic-compatible probe fields scaled to the domain."""
    k1, k2 = wavenumbers(grid)
    x = k1 * (grid.X1 - grid.domain[0])
    y = k2 * (grid.X2 - grid.domain[2])
    v3 = ScalarField(grid, np.sin(x) * np.sin(y) + 0.5 * np.cos(x))
    wvec = VectorField2(grid, np.stack([np.sin(x) * np.cos(y), np.cos(2 * x) * np.sin(y)], axis=-1))
    vtest = ScalarField(grid, np.sin(x) * np.sin(y))
    phitest = ScalarField(grid, np.cos(x) + 0.3 * np.sin(y))
    return v3, wvec, vtest, phitest


def _check(name, residual, threshold, **details):
    entry = {"name": name, "residual": residual, "threshold": threshold, "passed": bool(residual <= threshold)}
    entry.update(details)
    return entry


def identity_suite(cfg: ExperimentConfig, seed: int = 0) -> list[dict]:
    grid = cfg.grid
    m = cfg.material
    # a stencil residual of total derivative order p on the probe fields of
    # wavenumber k is O(k^p (k dx)^2), so its threshold carries dx^2 k^(p + 2);
    # on the [0, 2 pi]^2 torus k = 1
    k = max(wavenumbers(grid))
    dx2 = max(grid.dx, grid.dy) ** 2
    v3, wvec, vtest, phitest = _test_fields(grid)
    v0 = cfg.v0
    scale0 = 1.0 + float(np.max(np.abs(v0.data)))
    checks = []

    # Rank-one tangential-gradient identity against the cofactor pairing
    dv3 = grad_values(grid, v3.data)
    dv0 = grad_values(grid, v0.data)
    r46 = curl_t_curl(
        MatrixField2(grid, sym_values(dv3[..., :, None] * dv0[..., None, :]), symmetric=True)
    ).data + en.constraint_values(v3, v0)
    checks.append(_check("rank_one_curl_identity", float(np.max(np.abs(r46))), 40.0 * dx2 * k**6 * scale0))

    # curl^T curl annihilates symmetrized gradients
    kern = curl_t_curl(MatrixField2(grid, sym_grad_values(grid, wvec.data), symmetric=True)).data
    checks.append(_check("sym_grad_kernel", float(np.max(np.abs(kern))), 40.0 * dx2 * k**5))

    # div^T div annihilates cofactors of hessians
    dd = div_t_div(
        MatrixField2(grid, cof2_values(hessian_values(grid, vtest.data)), symmetric=True)
    ).data
    checks.append(_check("cof_hessian_kernel", float(np.max(np.abs(dd))), 40.0 * dx2 * k**6))

    # bracket symmetry is exact
    bsym = float(np.max(np.abs(airy_bracket(vtest, phitest).data - airy_bracket(phitest, vtest).data)))
    checks.append(_check("bracket_symmetry", bsym, 1e-14))

    # effective growth source pair (minus signs: the rank-one identity above)
    eff = effective_growth(cfg.growth, v0)
    det0 = det2_values(hessian_values(grid, v0.data))
    lam_err = float(np.max(np.abs(lambda_g(eff).data - (lambda_g(cfg.growth).data - det0))))
    om_err = float(
        np.max(
            np.abs(
                omega_g(eff, m.nu).data
                - (omega_g(cfg.growth, m.nu).data - grid.bilap(v0.data))
            )
        )
    )
    gscale = 1.0 + float(np.max(np.abs(cfg.growth.eps_g.data))) + float(np.max(np.abs(cfg.growth.kappa_g.data)))
    checks.append(_check("effective_lambda_pair", lam_err, 60.0 * dx2 * k**6 * scale0**2 * gscale))
    checks.append(_check("effective_omega_pair", om_err, 60.0 * dx2 * k**6 * scale0**2 * gscale))

    # metric pullback expansion: log-log slope over three decades of h
    hs = (1e-1, 1e-2, 1e-3)
    try:  # the shell at h = 0.1 must be shallow over v0 and have invertible growth
        res = [sh.metric_residual(cfg.growth, v0, h) for h in hs]
    except ValueError as exc:
        raise ConfigError(f"verify: {exc}") from exc
    if min(res) <= 1e-14:  # flat v0 and zero growth: expansion is exact
        checks.append({"name": "metric_pullback_slope", "residual": 3.0, "threshold": 2.7,
                       "passed": True, "note": "expansion exact for this configuration"})
    else:
        slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
        checks.append({"name": "metric_pullback_slope", "residual": slope, "threshold": 2.7,
                       "passed": bool(slope >= 2.7)})

    # relaxation against brute-force minimization over normal completions
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        f2 = rng.standard_normal((2, 2))
        val, _ = en.q2(f2, m)
        brute = brute_force_q2(f2, m)
        worst = max(worst, abs(val - brute) / max(abs(brute), 1e-30))
    checks.append(_check("relaxation_brute_force", worst, 1e-8))

    # collapse of the three functionals at flat reference
    zero_v0 = ScalarField.zeros(grid)
    st = en.PlateState.random(grid, rng, 0.5, vtilde=True)
    st40 = en.PlateState(st.w, st.v)
    e40 = en.energy_i40(st40, cfg.growth, m)
    e41 = en.energy_i41(st40, cfg.growth, m, zero_v0)
    einf, _ = en.energy_i4inf(st, cfg.growth, m, zero_v0, 1.0)
    rel = max(abs(e41 - e40), abs(einf - e40)) / max(abs(e40), 1e-30)
    checks.append(_check("flat_collapse", rel, 1e-14))
    return checks


# brute_force_q2's search: refinement levels and nodes per axis of each level
_BRUTE_LEVELS = 3
_BRUTE_NPTS = 21


def brute_force_q2(f2: np.ndarray, m: en.Material) -> float:
    """Independent oracle: nested grid search over the normal completion c,
    with one parabolic polish per axis at the end."""
    f3 = np.zeros((3, 3))
    f3[:2, :2] = f2
    e3 = np.eye(3)[2]

    def val(c):
        mat = f3 + np.multiply.outer(c, e3) + np.multiply.outer(e3, c)
        return en.q3(mat, m)

    center = np.zeros(3)
    radius = 2.0 * (np.abs(f2).sum() + 1.0)
    best_c = center
    for _ in range(_BRUTE_LEVELS):
        axes = [np.linspace(center[i] - radius, center[i] + radius, _BRUTE_NPTS) for i in range(3)]
        cc = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        mats = f3 + cc[:, :, None] * e3[None, None, :] + e3[None, :, None] * cc[:, None, :]
        vals = en.q3(mats, m)
        k = int(np.argmin(vals))
        best_c = cc[k]
        step = axes[0][1] - axes[0][0]
        center, radius = best_c, 2.0 * step
    # parabolic polish, one pass per axis
    c = best_c.copy()
    step = radius / 2.0
    for i in range(3):
        f0, fp, fm = val(c), None, None
        cp = c.copy()
        cp[i] += step
        fp = val(cp)
        cm = c.copy()
        cm[i] -= step
        fm = val(cm)
        denom = fp - 2.0 * f0 + fm
        if denom > 0:
            c[i] -= 0.5 * step * (fp - fm) / denom
    return min(val(c), val(best_c))


def cmd_verify(cfg: ExperimentConfig) -> tuple[int, dict]:
    seed = _integer(cfg.run, "seed", "run", 0, 0)
    checks = identity_suite(cfg, seed=seed)
    ok = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "config": cfg.resolved,
        "config_hash": cfg.config_hash,
        "checks": checks,
        "all_passed": ok,
    }
    return (0 if ok else 1), report


# -- run command -----------------------------------------------------------------

def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return _json_safe(float(x))
    return x


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_json_safe(payload), sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_report(outdir: Path, report: so.SolveReport) -> None:
    """report.json: the solve report with wall time and the solver's extras."""
    payload = {**report.to_json_dict(include_wall_time=True), "extras": report.extras}
    _write_json(outdir / "report.json", payload)


@np.errstate(over="ignore", invalid="ignore")  # as in parse_config
def _scaling_state(cfg: ExperimentConfig, regime: str) -> en.PlateState:
    grid = cfg.grid
    spec = cfg.run.get("state", "auto")
    a1, b1, a2, b2 = grid.domain
    xi1 = (grid.X1 - a1) / (b1 - a1)
    xi2 = (grid.X2 - a2) / (b2 - a2)
    if spec == "auto":
        w = VectorField2(grid, np.stack([0.1 * xi1 * xi1 * xi2, -0.05 * xi2 * xi2], axis=-1))
        if regime == sh.CONSTRAINED:
            geom = cfg.resolved["geometry"]
            if geom["v0"] != "paraboloid":
                raise ConfigError(
                    "run.state 'auto' in the constrained regime requires the "
                    "paraboloid v0 preset (its linearized isometries are the "
                    "harmonic fields); supply run.state explicitly otherwise"
                )
            v = ScalarField(grid, 0.3 * (grid.X1**2 - grid.X2**2))
            vt = ScalarField(grid, 0.2 * grid.X1 * grid.X2)
            return en.PlateState(w, v, vt)
        bump = 0.3 * np.sin(math.pi * xi1) * np.sin(math.pi * xi2)
        v = ScalarField(grid, cfg.v0.data + bump) if regime == sh.DMV else ScalarField(grid, bump)
        return en.PlateState(w, v)
    _require_keys(spec, "run.state", ("v", "w"), ("vtilde",))
    v = _parse_poly_field(grid, spec["v"], "run.state.v")
    wlist = spec["w"]
    if not (isinstance(wlist, list) and len(wlist) == 2):
        raise ConfigError("run.state.w must be a pair of term lists")
    w = VectorField2(
        grid,
        np.stack(
            [_parse_poly_field(grid, wlist[i], f"run.state.w[{i}]").data for i in range(2)], axis=-1
        ),
    )
    if ("vtilde" in spec) != (regime == sh.CONSTRAINED):
        raise ConfigError(f"run.state: vtilde is needed in the constrained regime and only there (regime {regime!r})")
    if regime == sh.CONSTRAINED:
        vt = _parse_poly_field(grid, spec["vtilde"], "run.state.vtilde")
        return en.PlateState(w, v, vt)
    return en.PlateState(w, v)


def _save_fields(outdir: Path, **fields) -> None:
    """fields/<name>.csv under outdir for each field given; None is skipped."""
    fields_dir = outdir / "fields"
    fields_dir.mkdir(exist_ok=True)
    for name, f in fields.items():
        if f is not None:
            save_csv(f, fields_dir / f"{name}.csv")


# Each command runner returns (the summary's outputs, write): write(outdir)
# writes the command's own files, once the run has ended.

def _run_minimize(cfg: ExperimentConfig) -> tuple[dict, Callable[[Path], None]]:
    functional = cfg.run.get("functional", en.I40)
    if functional not in en.FUNCTIONALS:
        raise ConfigError(f"run.functional: unknown functional {functional!r}")
    seed = _integer(cfg.run, "seed", "run", 0, 0)
    init_kind = cfg.run.get("init", "zero")
    if init_kind == "zero":
        init = en.PlateState.zeros(cfg.grid, vtilde=functional == en.I4INF)
    elif init_kind == "random":
        init = en.PlateState.random(cfg.grid, np.random.default_rng(seed), 0.1, vtilde=functional == en.I4INF)
    else:
        raise ConfigError(f"run.init: expected 'zero' or 'random', got {init_kind!r}")
    pen = cfg.run.get("penalty", {})
    tol = float(_number(cfg.run, "tol", "run", 1e-8))
    max_iter = _integer(cfg.run, "max_iter", "run", 1000, 0)
    penalty_init = float(_number(pen, "initial", "run.penalty", 1.0))
    doublings = _integer(pen, "doublings", "run.penalty", 3, 0)
    try:
        opts = so.MinimizeOptions(
            tol=tol, max_iter=max_iter, penalty_init=penalty_init, penalty_doublings=doublings
        )
    except ValueError as exc:  # a tol < 0 or a penalty_init <= 0
        raise ConfigError(f"run: {exc}") from exc
    state, report = so.minimize(functional, init, cfg.growth, cfg.material, cfg.v0, opts)

    def write(outdir: Path) -> None:
        _save_fields(outdir, v=state.v, w=state.w, vtilde=state.vtilde)
        _write_report(outdir, report)

    return {"solve": report.to_json_dict(include_wall_time=False), "functional": functional}, write


def _run_solve_vk(cfg: ExperimentConfig) -> tuple[dict, Callable[[Path], None]]:
    if not cfg.grid.periodic:
        raise ConfigError("solve-vk runs on the periodic torus; set grid.bc = 'periodic'")
    model = cfg.run.get("model", "old")
    if model not in ("old", "new"):
        raise ConfigError(f"run.model: expected 'old' or 'new', got {model!r}")
    tol = float(_number(cfg.run, "tol", "run", 1e-10))
    max_sweeps = _integer(cfg.run, "max_sweeps", "run", 400, 0)
    relaxation = float(_number(cfg.run, "relaxation", "run", 0.7))
    try:
        opts = so.VKOptions(tol=tol, max_sweeps=max_sweeps, relaxation=relaxation)
    except ValueError as exc:  # a tol < 0 or a relaxation <= 0
        raise ConfigError(f"run: {exc}") from exc
    try:
        state, report = so.solve_vk(model, cfg.growth, cfg.material, cfg.v0, opts)
    except GrowthSpecError as exc:  # finite growth whose sources overflow
        raise ConfigError(f"growth: {exc}") from exc

    def write(outdir: Path) -> None:
        _save_fields(outdir, v=state.v, phi=state.phi)
        _write_report(outdir, report)

    out = {
        "solve": report.to_json_dict(include_wall_time=False),
        "model": model,
        "equation_residuals": report.extras["equation_residuals"],
    }
    if cfg.growth_info.get("preset") == "omega_sine" and model == "old":
        ref = omega_sine_reference(cfg.grid, cfg.growth_info["amplitude"])
        err = float(np.max(np.abs(state.v.data - (ref.data - ref.data.mean()))))
        out["reference_error_inf"] = err
    return out, write


def _run_scaling(cfg: ExperimentConfig, threads: int) -> tuple[dict, Callable[[Path], None]]:
    run = cfg.run
    h_list = run.get("h_list", [1e-1, 6e-2, 3e-2, 2e-2, 1.5e-2, 1e-2])
    if not isinstance(h_list, list) or not h_list:
        raise ConfigError(f"run.h_list: expected a non-empty list of thicknesses, got {h_list!r}")
    entries = dict(enumerate(h_list))
    h_list = [float(_number(entries, i, "run.h_list")) for i in entries]
    n_t = _integer(run, "n_t", "run", 5, 3)
    try:
        regime = sh.resolve_regime(cfg.v0, cfg.alpha)
    except sh.RegimeError as exc:
        raise ConfigError(f"run: {exc}") from exc
    state = _scaling_state(cfg, regime)
    try:
        study = sh.scaling_study(
            cfg.alpha, h_list, cfg.growth, cfg.v0, state, cfg.material, n_t=n_t, workers=threads
        )
    except ValueError as exc:  # a shell of the sweep, or q^h singular at some thickness
        raise ConfigError(f"run: {exc}") from exc
    table = "\n".join(study.csv_lines()) + "\n"

    def write(outdir: Path) -> None:
        (outdir / "scaling.csv").write_text(table, encoding="utf-8")

    return {"scaling": study.metadata(), "rows": [r.columns() for r in study.rows]}, write


def cmd_run(cfg: ExperimentConfig, outdir, threads: int = 1) -> tuple[int, dict]:
    """Run the config's command, then write its files under outdir.

    Nothing is written until the command has run (exit 0) or its solver has
    failed (exit 1, with the solver's report.json when it has one); a config
    error (ConfigError, exit 2) leaves outdir as it was.
    """
    command = cfg.run.get("command")
    if command not in RUN_COMMANDS:
        raise ConfigError(f"run.command must be one of {RUN_COMMANDS}, got {command!r}")
    summary = {
        "command": command,
        "config": cfg.resolved,
        "config_hash": cfg.config_hash,
        "material_derived": {
            "young": cfg.material.young,
            "poisson": cfg.material.nu,
            "bending": cfg.material.bending,
        },
        "incomplete": False,
    }
    code = 0
    try:
        if command == "minimize":
            summary["outputs"], write = _run_minimize(cfg)
        elif command == "solve-vk":
            summary["outputs"], write = _run_solve_vk(cfg)
        else:
            summary["outputs"], write = _run_scaling(cfg, threads)
    except (so.SolverError, AssertionError) as exc:
        code = 1
        summary["incomplete"] = True
        summary["error"] = str(exc)
        report = exc.report if isinstance(exc, so.SolverError) else None

        def write(outdir: Path) -> None:
            if report is not None:
                _write_report(outdir, report)

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "config.resolved.json", cfg.resolved)
    write(outdir)
    _write_json(outdir / "summary.json", summary)
    return code, summary


# -- entry point -------------------------------------------------------------------

def _thread_count(text: str) -> int:
    """The --threads value: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0  # reported below, with the text as given
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vkshell", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    p_verify = sub.add_parser("verify", help="run the identity suite against a config")
    p_verify.add_argument("--config", required=True)
    p_run = sub.add_parser("run", help="run the experiment described by a config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--threads", type=_thread_count, default=1)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.subcommand == "verify":
            code, report = cmd_verify(cfg)
            print(json.dumps(_json_safe(report), sort_keys=True, indent=2))
            return code
        code, summary = cmd_run(cfg, args.out, threads=args.threads)
        print(json.dumps(_json_safe(summary), sort_keys=True, indent=2))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
