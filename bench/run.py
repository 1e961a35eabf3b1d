"""vkshell benchmark: one workload of `vkshell run` calls, timed end to end.

    python3 bench/run.py --workload vk_torus --seed 0 --seconds 30 --trace 0

Runs from any directory; it imports vkshell from `src/` next to `bench/` and
writes run artifacts under `.bench_out/`.  One repetition loads each step's
config with `cli.load_config` and runs it with `cli.cmd_run`, then checks the
artifacts.  Repetitions are a closed loop with one client.  The first one of a
process warms the allocator and lazy imports; it is checked but not timed.
The timed ones repeat until `--seconds` is used (at least three).

--trace 0 prints the end-to-end metrics: the median `wall_s` (seconds in
cmd_run), the median `setup_s` (seconds in load_config, over SETUP_SAMPLES
loads after the repetitions) and the process's `peak_rss_mb`.

--trace 1 alternates untraced and traced repetitions and prints the per-layer
metrics of the traced ones (see spans.py), the workload's accuracy figure and
`trace.overhead_s`.  It also checks the trace: counts repeat for one seed, a
second seed moves only the plate_lbfgs counts, and each layer is busy or idle
on the workloads where bench/README.md says it should be.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Without vkshell's sources the benchmark exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Neither module imports numpy, which must load after pin_threads.
from spans import Tracer, layer_metrics
from workloads import FIGURES, WORKLOADS, Outcome, check_step

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
FANOUT_THREADS = 2  # `--threads` of the shell_scaling step
MIN_REPS = 3
SETUP_SAMPLES = 40
COUNT_UNITS = ("count", "B")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pin_threads() -> int:
    """Cap BLAS / OpenMP threads so the fan-out threads do not oversubscribe the cores.

    Must run before numpy is imported (by vkshell); it changes only this
    process's environment.
    """
    per = max(1, nproc() // FANOUT_THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = str(per)
    return per


def import_vkshell() -> dict:
    src = ROOT / "src"
    if not (src / "vkshell" / "__init__.py").is_file():
        raise ImportError(f"vkshell sources not found under {src}")
    sys.path.insert(0, str(src))
    from vkshell import cli, energy, fields, growth, shell3d, solver

    return {"cli": cli, "energy": energy, "fields": fields, "growth": growth,
            "shell3d": shell3d, "solver": solver}


def fingerprint(blas_threads: int) -> dict:
    import numpy  # loaded by vkshell by now, after pin_threads
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": nproc(),
        "cpu": cpu,
    }


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    outcome: Outcome
    layers: dict | None = None


class Bench:
    def __init__(self, vk: dict, workload: str):
        self.vk = vk
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.dir = OUT / workload
        self.failures = []  # self-check failures of the trace, outside any repetition

    def rep(self, seed: int, tracer=None) -> Rep:
        """One repetition: every step of the workload, then its output checks."""
        cli = self.vk["cli"]
        outcome = Outcome()
        setup = wall = 0.0
        for step in self.spec.steps(seed):
            step_dir = self.dir / step.name
            shutil.rmtree(step_dir, ignore_errors=True)
            step_dir.mkdir(parents=True)
            cfg_path = self.dir / f"{step.name}.json"
            cfg_path.write_text(json.dumps(step.config), encoding="utf-8")
            try:
                t0 = time.perf_counter()
                with _span(tracer, "cli.load_config"):
                    cfg = cli.load_config(cfg_path)
                t1 = time.perf_counter()
                with _span(tracer, "cli.cmd_run"):
                    code, summary = cli.cmd_run(cfg, step_dir, threads=step.threads)
                t2 = time.perf_counter()
            except Exception:  # a raising run fails this repetition; the others still count
                outcome.errors.append(f"{step.name} raised:\n{traceback.format_exc()}")
                break
            setup += t1 - t0
            wall += t2 - t1
            check_step(self.workload, step, code, summary, step_dir, outcome)
        for err in outcome.errors:
            print(f"{self.workload}: {err}", file=sys.stderr)
        return Rep(setup, wall, outcome)

    def setup_sample(self, seed: int) -> float:
        cli = self.vk["cli"]
        total = 0.0
        for step in self.spec.steps(seed):
            cfg_path = self.dir / f"{step.name}.json"
            t0 = time.perf_counter()
            cli.load_config(cfg_path)
            total += time.perf_counter() - t0
        return total

    def traced_rep(self, seed: int) -> Rep:
        tracer = Tracer()
        tracer.install(self.vk)
        try:
            rep = self.rep(seed, tracer)
        finally:
            tracer.uninstall()
        rep.layers = layer_metrics(tracer, FANOUT_THREADS)
        for name in FIGURES:
            rep.layers[name] = (rep.outcome.figures.get(name, 0.0), "1")
        rep.outcome.errors += self.check_layers(tracer, rep)
        return rep

    def check_layers(self, tracer, rep: Rep) -> list[str]:
        errors = []
        for label, (_, self_s, _) in tracer.stats.items():
            if self_s < -1e-9:
                errors.append(f"negative self time {self_s!r} for {label}")
        budget = rep.setup_s + rep.wall_s
        for tid, total in tracer.thread_self.items():
            if total > budget + 1e-6:
                errors.append(f"self times of thread {tid} sum to {total!r} > setup + wall {budget!r}")
        for name in self.spec.busy:
            if rep.layers[name][0] <= 0:
                errors.append(f"{name} is 0 on {self.workload}")
        for name, (value, _) in rep.layers.items():
            if name.startswith(self.spec.idle) and value != 0:
                errors.append(f"{name} = {value!r} on {self.workload}, expected 0")
        for err in errors:
            print(f"{self.workload}: trace check: {err}", file=sys.stderr)
        return errors

    def check_counts(self, same: list[Rep], other: Rep):
        """Counts repeat for one seed; a second seed moves them on plate_lbfgs only."""

        def counts(rep):
            return {k: v for k, (v, unit) in rep.layers.items() if unit in COUNT_UNITS}

        first = counts(same[0])
        for rep in same[1:]:
            diff = {k for k, v in counts(rep).items() if first[k] != v}
            if diff:
                self.failures.append(f"counts differ between runs of one seed: {sorted(diff)}")
        moved = {k for k, v in counts(other).items() if first[k] != v}
        if self.spec.seed_driven:
            if not moved & set(self.spec.seed_driven):
                self.failures.append(f"a second seed left {self.spec.seed_driven} unchanged")
        elif moved:
            self.failures.append(f"a second seed changed {sorted(moved)}")
        for err in self.failures:
            print(f"{self.workload}: trace check: {err}", file=sys.stderr)


def _span(tracer, label):
    return contextlib.nullcontext() if tracer is None else tracer.root(label)


def measure(bench: Bench, seed: int, seconds: float) -> tuple[list[Rep], dict]:
    warm = bench.rep(seed)
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(bench.rep(seed))
        last = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and time.perf_counter() - start + last > seconds:
            break
    setups = [bench.setup_sample(seed) for _ in range(SETUP_SAMPLES)]
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return [warm] + reps, metrics


def measure_traced(bench: Bench, seed: int, seconds: float) -> tuple[list[Rep], dict]:
    warm = bench.rep(seed)
    start = time.perf_counter()
    traced = [bench.traced_rep(seed)]
    plain = [bench.rep(seed)]
    traced.append(bench.traced_rep(seed))
    other = bench.traced_rep(seed + 1)
    per_rep = (time.perf_counter() - start) / 4.0
    while time.perf_counter() - start + 2.0 * per_rep <= seconds:
        plain.append(bench.rep(seed))
        traced.append(bench.traced_rep(seed))
    bench.check_counts(traced, other)
    metrics = {}
    for name, (value, unit) in traced[0].layers.items():
        if unit not in COUNT_UNITS:  # counts repeat exactly (check_counts); times take the median
            value = statistics.median(r.layers[name][0] for r in traced)
        metrics[name] = (value, unit)
    overhead = statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return [warm] + plain + traced + [other], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_threads = pin_threads()
    try:
        vk = import_vkshell()
    except ImportError as exc:
        print(f"cannot import vkshell: {exc}", file=sys.stderr)
        return 2
    env = fingerprint(blas_threads)
    bench = Bench(vk, args.workload)
    bench.dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        reps, metrics = measure_traced(bench, args.seed, args.seconds)
    else:
        reps, metrics = measure(bench, args.seed, args.seconds)

    failed = sum(1 for r in reps if r.outcome.errors)
    result = {
        "correct": failed == 0 and not bench.failures,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    figures = reps[0].outcome.figures
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "failed_ratio": failed / len(reps), "figures": figures,
              "reps": [{"setup_s": r.setup_s, "wall_s": r.wall_s, "errors": r.outcome.errors} for r in reps],
              "result": result}
    (bench.dir / f"result_trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("env " + json.dumps(env))
    print(f"{args.workload}: {len(reps)} repetitions, failed_ratio {failed / len(reps):.3g}")
    for name, value in figures.items():
        if name not in metrics:
            print(f"  {name:32s} {value:.6g} 1")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
