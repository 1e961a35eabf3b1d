"""Layer spans for the benchmark, recorded from outside the program.

Each wrapped function of vkshell becomes a span: its calls, its duration and
its self time (the duration minus the part of it that child spans cover) are
added to the totals of its label.  Spans nest per thread.  A span that opens
on a thread with no open span of its own (a row of the scaling fan-out) is a
child of the root span the benchmark holds open around `cmd_run`, so the
root's self time subtracts the union of its children's intervals and two rows
running at once are not subtracted twice.

Functions are patched at every import site: `from .fields import grad_values`
binds the name again in each importing module, so every vkshell module whose
namespace holds the original object gets the wrapper.  Methods are patched on
their class.  `uninstall` restores the originals, so untraced and traced
repetitions share a process.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

# label -> (module, attribute); "Class.method" patches the class.  The
# scaling_study spans are the rows of the fan-out (cli.fanout.busy_ratio).
TARGETS = {
    "fields.d1": ("fields", "Grid2D.d1"),
    "fields.d2": ("fields", "Grid2D.d2"),
    "fields.d1_t": ("fields", "Grid2D.d1_t"),
    "fields.d2_t": ("fields", "Grid2D.d2_t"),
    "fields.lap": ("fields", "Grid2D.lap"),
    "fields.bilap": ("fields", "Grid2D.bilap"),
    "fields.grad_values": ("fields", "grad_values"),
    "fields.hessian_values": ("fields", "hessian_values"),
    "fields.sym_grad_values": ("fields", "sym_grad_values"),
    "fields.sym_values": ("fields", "sym_values"),
    "fields.cof2_values": ("fields", "cof2_values"),
    "fields.det2_values": ("fields", "det2_values"),
    "fields.airy_bracket": ("fields", "airy_bracket"),
    "fields.save_csv": ("fields", "save_csv"),
    "growth.growth_preset": ("growth", "growth_preset"),
    "growth.lambda_g": ("growth", "lambda_g"),
    "growth.omega_g": ("growth", "omega_g"),
    "growth.effective_growth": ("growth", "effective_growth"),
    "growth.incompatibility": ("growth", "incompatibility"),
    "energy.total_energy": ("energy", "total_energy"),
    "energy.grad_energy": ("energy", "grad_energy"),
    "energy.energy_i40": ("energy", "energy_i40"),
    "energy.energy_i41": ("energy", "energy_i41"),
    "energy.energy_i4inf": ("energy", "energy_i4inf"),
    "energy.q2": ("energy", "q2"),
    "energy.q2_stress": ("energy", "q2_stress"),
    "solver.minimize": ("solver", "minimize"),
    "solver.solve_vk": ("solver", "solve_vk"),
    "solver.solve_biharmonic": ("solver", "solve_biharmonic"),
    "shell3d.scaling_study": ("shell3d", "scaling_study"),
    "shell3d.energy_3d": ("shell3d", "energy_3d"),
    "shell3d.build_recovery": ("shell3d", "build_recovery"),
    "shell3d.dist_so3": ("shell3d", "dist_so3"),
    "shell3d.density_W": ("shell3d", "density_W"),
    "shell3d.qh_at": ("shell3d", "GrowthEvaluator.at"),
    "shell3d.qh_inverse_at": ("shell3d", "GrowthEvaluator.inverse_at"),
    "shell3d.chart_init": ("shell3d", "Immersion.__init__"),
    "shell3d.phi_tilde": ("shell3d", "Immersion.phi_tilde"),
    "shell3d.grad_phi_tilde": ("shell3d", "Immersion.grad_phi_tilde"),
}

# Labels summed into each per-layer group.
GROUPS = {
    "fields.stencil": ("fields.d1", "fields.d2", "fields.d1_t", "fields.d2_t", "fields.lap", "fields.bilap"),
    "fields.pointwise": (
        "fields.grad_values", "fields.hessian_values", "fields.sym_grad_values", "fields.sym_values",
        "fields.cof2_values", "fields.det2_values", "fields.airy_bracket",
    ),
    "fields.io": ("fields.save_csv",),
    "growth": (
        "growth.growth_preset", "growth.lambda_g", "growth.omega_g",
        "growth.effective_growth", "growth.incompatibility",
    ),
    "energy": (
        "energy.total_energy", "energy.grad_energy",
        "energy.energy_i40", "energy.energy_i41", "energy.energy_i4inf",
    ),
    "energy.q2": ("energy.q2", "energy.q2_stress"),
    "solver.lbfgs": ("solver.minimize",),
    "solver.picard": ("solver.solve_vk",),
    "solver.biharmonic": ("solver.solve_biharmonic",),
    "shell3d.energy_3d": ("shell3d.energy_3d",),
    "shell3d.build_recovery": ("shell3d.build_recovery",),
    "shell3d.dist_so3": ("shell3d.dist_so3",),
    "shell3d.density_W": ("shell3d.density_W",),
    "shell3d.growth_inv": ("shell3d.qh_at", "shell3d.qh_inverse_at"),
    "shell3d.chart": ("shell3d.chart_init", "shell3d.phi_tilde", "shell3d.grad_phi_tilde"),
}

ROOT_CMD = "cli.cmd_run"


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _ThreadState(threading.local):
    def __init__(self):
        # open frames: [child seconds, child intervals (root frames only) or None]
        self.stack = []


class Tracer:
    """Span totals for one traced repetition; see the module docstring."""

    def __init__(self):
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._undo = []
        self._root = None
        # label -> [calls, self seconds, inclusive seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        self.thread_self = defaultdict(float)
        self.orphans = []  # (start, end) of spans opened under the root from other threads

    # -- spans ----------------------------------------------------------------

    def _close(self, label, frame, parent, t0, t1):
        dur = t1 - t0
        if frame[1] is None:
            child = frame[0]
        else:
            child = union_length(frame[1])
        self_s = dur - child
        with self._lock:
            if parent is not None:
                if parent[1] is None:
                    parent[0] += dur
                else:
                    parent[1].append((t0, t1))
            elif self._root is not None and self._root is not frame:
                self._root[1].append((t0, t1))
                self.orphans.append((t0, t1))
            row = self.stats[label]
            row[0] += 1
            row[1] += self_s
            row[2] += dur
            self.thread_self[threading.get_ident()] += self_s

    @contextlib.contextmanager
    def root(self, label):
        """A top-level span held open by the benchmark around one CLI call."""
        stack = self._local.stack
        frame = [0.0, []]
        stack.append(frame)
        if label == ROOT_CMD:
            self._root = frame
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._close(label, frame, None, t0, t1)
            if self._root is frame:
                self._root = None

    def _wrap(self, fn, label):
        local = self._local
        clock = time.perf_counter
        close = self._close

        def traced(*args, **kwargs):
            stack = local.stack
            parent = stack[-1] if stack else None
            frame = [0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                close(label, frame, parent, t0, t1)

        return traced

    # -- patching ---------------------------------------------------------------

    def install(self, vk: dict):
        """Patch every target at every import site; `vk` maps module names to modules."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        shims = self._shims(vk)
        sites = [m for name, m in sys.modules.items() if name == "vkshell" or name.startswith("vkshell.")]
        for label, (mod_name, attr) in TARGETS.items():
            cls_name, _, name = attr.rpartition(".")
            if cls_name:
                cls = getattr(vk[mod_name], cls_name)
                orig = cls.__dict__[name]
                where = [(cls, name)]
            else:
                orig = getattr(vk[mod_name], name)
                where = [(mod, n) for mod in sites for n, val in vars(mod).items() if val is orig]
            shim = shims.get(label)
            wrapped = self._wrap(shim(orig) if shim else orig, label)
            for owner, n in where:
                self._patch(owner, n, orig, wrapped)

    def _patch(self, owner, name, orig, wrapped):
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, orig))

    def uninstall(self):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    # -- counters read from arguments and results -------------------------------

    def _shims(self, vk: dict) -> dict:
        """Per-label factories of shims that run inside the span and count work."""
        counters, stats, lock = self.counters, self.stats, self._lock
        biharmonic_sig = inspect.signature(vk["solver"].solve_biharmonic)

        def add(name, value):
            with lock:
                counters[name] += value

        def stencil(fn):
            def call(grid, a, *rest, **kwargs):
                out = fn(grid, a, *rest, **kwargs)
                # computed traffic: the input array read plus the output written
                add("fields.stencil.bytes", a.nbytes + out.nbytes)
                return out
            return call

        def lap(fn):
            def call(grid, a):
                out = fn(grid, a)
                # the sum of the two second derivatives: two reads, one write
                add("fields.stencil.bytes", 3 * out.nbytes)
                return out
            return call

        def save_csv(fn):
            def call(fld, path):
                fn(fld, path)
                add("fields.io.bytes", os.path.getsize(path))
            return call

        def solver_done(report):
            counters["solver.runs"] += 1
            counters["solver.converged_runs"] += bool(report.converged)

        def minimize(fn):
            def call(*args, **kwargs):
                grads_before = stats["energy.grad_energy"][0]
                state, report = fn(*args, **kwargs)
                with lock:
                    counters["solver.lbfgs.iters"] += report.iterations
                    counters["solver.lbfgs.fg_evals"] += stats["energy.grad_energy"][0] - grads_before
                    solver_done(report)
                return state, report
            return call

        def solve_vk(fn):
            def call(*args, **kwargs):
                state, report = fn(*args, **kwargs)
                hist = report.extras["residual_history"]
                with lock:
                    counters["solver.picard.sweeps"] += report.iterations
                    counters["solver.picard.useful"] += sum(1 for a, b in zip(hist, hist[1:]) if b <= 0.9 * a)
                    solver_done(report)
                return state, report
            return call

        def biharmonic(fn):
            def call(*args, **kwargs):
                bound = biharmonic_sig.bind(*args, **kwargs)
                info = bound.arguments.get("info")
                if info is None:
                    info = bound.arguments["info"] = {}
                out = fn(*bound.args, **bound.kwargs)
                add("solver.biharmonic.cg_iters", info.get("iterations", 0))
                return out
            return call

        def energy_3d(fn):
            def call(u, *rest, **kwargs):
                out = fn(u, *rest, **kwargs)
                add("shell3d.points", u.grad_y.size // 9)
                return out
            return call

        return {
            "fields.d1": stencil,
            "fields.d2": stencil,
            "fields.d1_t": stencil,
            "fields.d2_t": stencil,
            "fields.lap": lap,
            "fields.save_csv": save_csv,
            "solver.minimize": minimize,
            "solver.solve_vk": solve_vk,
            "solver.solve_biharmonic": biharmonic,
            "shell3d.energy_3d": energy_3d,
        }


def layer_metrics(tr: Tracer, fanout_threads: int) -> dict:
    """Per-layer metrics of one traced repetition, as {name: (value, unit)}."""

    def group(name):
        rows = [tr.stats[label] for label in GROUPS[name] if label in tr.stats]
        return sum(r[0] for r in rows), sum(r[1] for r in rows), sum(r[2] for r in rows)

    def calls(label):
        return tr.stats[label][0] if label in tr.stats else 0

    def ratio(num, den):
        return num / den if den else 0.0

    c = tr.counters
    out = {}
    for name in ("fields.stencil", "fields.pointwise"):
        n, self_s, _ = group(name)
        out[f"{name}.calls"] = (n, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    out["fields.stencil.bytes"] = (c["fields.stencil.bytes"], "B")
    out["fields.io.bytes"] = (c["fields.io.bytes"], "B")
    out["fields.io.self_s"] = (group("fields.io")[1], "s")
    n, self_s, _ = group("growth")
    out["growth.calls"] = (n, "count")
    out["growth.self_s"] = (self_s, "s")
    out["energy.evals"] = (calls("energy.total_energy"), "count")
    out["energy.grad_evals"] = (calls("energy.grad_energy"), "count")
    out["energy.self_s"] = (group("energy")[1], "s")
    n, self_s, _ = group("energy.q2")
    out["energy.q2.calls"] = (n, "count")
    out["energy.q2.self_s"] = (self_s, "s")
    iters, fg = c["solver.lbfgs.iters"], c["solver.lbfgs.fg_evals"]
    out["solver.lbfgs.iters"] = (iters, "count")
    out["solver.lbfgs.fg_evals"] = (fg, "count")
    out["solver.lbfgs.accept_ratio"] = (ratio(iters, fg), "1")
    out["solver.lbfgs.self_s"] = (group("solver.lbfgs")[1], "s")
    sweeps = c["solver.picard.sweeps"]
    out["solver.picard.sweeps"] = (sweeps, "count")
    out["solver.picard.useful_ratio"] = (ratio(c["solver.picard.useful"], sweeps), "1")
    out["solver.picard.self_s"] = (group("solver.picard")[1], "s")
    n, self_s, _ = group("solver.biharmonic")
    out["solver.biharmonic.calls"] = (n, "count")
    out["solver.biharmonic.cg_iters"] = (c["solver.biharmonic.cg_iters"], "count")
    out["solver.biharmonic.self_s"] = (self_s, "s")
    out["solver.converged"] = (ratio(c["solver.converged_runs"], c["solver.runs"]), "1")
    n, self_s, incl = group("shell3d.energy_3d")
    out["shell3d.energy_3d.calls"] = (n, "count")
    out["shell3d.energy_3d.self_s"] = (self_s, "s")
    for name in ("build_recovery", "dist_so3", "density_W", "growth_inv", "chart"):
        out[f"shell3d.{name}.self_s"] = (group(f"shell3d.{name}")[1], "s")
    out["shell3d.points"] = (c["shell3d.points"], "count")
    out["shell3d.points_per_s"] = (ratio(c["shell3d.points"], incl), "1/s")
    out["cli.self_s"] = (tr.stats[ROOT_CMD][1] if ROOT_CMD in tr.stats else 0.0, "s")
    busy = 0.0
    if tr.orphans:
        span = max(e for _, e in tr.orphans) - min(s for s, _ in tr.orphans)
        busy = ratio(sum(e - s for s, e in tr.orphans), fanout_threads * span)
    out["cli.fanout.busy_ratio"] = (busy, "1")
    return out
