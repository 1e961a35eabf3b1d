"""Energy minimization and the linear/fixed-point solvers.

Contents:

* gauge_fix      -- quotient plate states by the rigid and von Karman
                    gauge modes (translations, in-plane rotation, affine
                    deflection with its compensating quadratic in w),
* solve_biharmonic -- periodic discrete bilaplacian solve: the real FFT
                    diagonalizes the stencil, so one symbol inversion and one
                    residual correction solve it directly,
* solve_sym_grad -- the least-squares inverse of the discrete symmetric
                    gradient: own CG preconditioned by H0's w blocks (_w_blocks),
* solve_mystery  -- the mixed-type Dirichlet problem
                    cof(hess v0) : hess v = -curl^T curl B, whose matrix is
                    the interior block of fields.bracket_matrix (the
                    energy's constraint operator), plus the in-plane
                    displacement that realizes the remaining strain,
* minimize       -- limited-memory BFGS with Armijo backtracking on the
                    discrete plate energies, started from the exact inverse
                    of the flat plate's block-diagonal quadratic part, with
                    a doubling penalty schedule for the constrained
                    functional,
* solve_vk       -- Anderson-accelerated Picard iteration for the
                    prestrained von Karman systems (flat and blooming
                    variants).  It iterates on the right-hand side B_v of
                    the v solve alone, with the phi half-step exact, so the
                    sweep is a fixed-point map of B_v whose defect is the
                    residual; `relaxation` damps the mixed step, which
                    mixes a sliding window of the last steps.  Each
                    hessian is read from its right-hand side through the
                    stencils' Fourier symbols, as its three planes
                    (xx, yy, xy), so a sweep applies no stencil
                    and no solve correction; the two corrected solves run
                    once, on the final right-hand sides.  It stops once its
                    residual sits on the roundoff floor.

Every SolveReport carries a `status`: CONVERGED, ROUNDOFF_FLOOR (solve_vk),
BUDGET_EXHAUSTED or LINE_SEARCH_FAILED (minimize).  A solve_vk that
diverges raises SolverError carrying a report with status DIVERGING.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import energy as en
from .fields import (
    Grid2D,
    MatrixField2,
    ScalarField,
    VectorField2,
    bracket_matrix,
    bracket_planes,
    bracket_values,
    curl_t_curl,
    det2_values,
    hessian_values,
    sym_planes,
    sym_stack,
)
from .growth import GrowthFields, GrowthSpecError, lambda_g, omega_g


class SolverError(RuntimeError):
    """Linear or nonlinear solve failed; carries the last residual and, from
    a diverging solve_vk, its SolveReport."""

    def __init__(self, message: str, residual: float | None = None, report: "SolveReport | None" = None):
        super().__init__(message)
        self.residual = residual
        self.report = report


class EllipticityError(ValueError):
    """v0 fails the det(hess v0) >= c > 0 requirement."""


CONVERGED = "converged"
ROUNDOFF_FLOOR = "roundoff_floor"
BUDGET_EXHAUSTED = "budget_exhausted"
LINE_SEARCH_FAILED = "line_search_failed"
DIVERGING = "diverging"


@dataclass
class SolveReport:
    iterations: int = 0
    final_energy: float | None = None
    grad_norm: float = 0.0
    constraint_residual: float = 0.0
    wall_time_s: float = 0.0
    extras: dict = field(default_factory=dict)
    # why the solve stopped: one of the five status constants above
    status: str = BUDGET_EXHAUSTED

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    def to_json_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "iterations": self.iterations,
            "final_energy": self.final_energy,
            "grad_norm": self.grad_norm,
            "constraint_residual": self.constraint_residual,
            "converged": self.converged,
            "status": self.status,
        }
        if include_wall_time:
            out["wall_time_s"] = self.wall_time_s
        return out


@dataclass(frozen=True)
class VKState:
    """Deflection and Airy stress potential of the von Karman systems."""

    v: ScalarField
    phi: ScalarField

    def __post_init__(self):
        self.v.grid.require_same(self.phi.grid, "VK state fields")

    @property
    def grid(self) -> Grid2D:
        return self.v.grid


# -- gauge fixing --------------------------------------------------------------

def gauge_fix(s: en.PlateState) -> en.PlateState:
    """Remove the energy-neutral modes from a plate state.

    Subtracts the node means of v, w (and vtilde), the mean in-plane
    rotation of w, and the mean gradient of v together with the von Karman
    compensating update of w.  On ghost-mode grids the affine/rotation
    removal is an exact discrete symmetry; on periodic grids those means
    vanish identically and only the translations act.
    """
    grid = s.grid
    w = s.w.data.copy()
    v = s.v.data.copy()
    if not grid.periodic:
        a1, b1, a2, b2 = grid.domain
        xt1 = grid.X1 - 0.5 * (a1 + b1)
        xt2 = grid.X2 - 0.5 * (a2 + b2)
        b = np.array([grid.d1(v, 0).mean(), grid.d1(v, 1).mean()])
        bx = b[0] * xt1 + b[1] * xt2
        # exact vK gauge: v -> v - b.x, w -> w + v b - (b.x) b / 2
        for i in range(2):
            w[..., i] += v * b[i] - 0.5 * bx * b[i]
        v = v - bx
        alpha = 0.5 * (grid.d1(w[..., 1], 0) - grid.d1(w[..., 0], 1)).mean()
        w[..., 0] += alpha * xt2
        w[..., 1] -= alpha * xt1
    v = v - v.mean()
    w = w - w.mean(axis=(0, 1))
    vt = None if s.vtilde is None else ScalarField(grid, s.vtilde.data - s.vtilde.data.mean())
    return en.PlateState(VectorField2(grid, w), ScalarField(grid, v), vt)


# -- periodic biharmonic solve -------------------------------------------------

def _inv_bilap_symbol(grid: Grid2D, hessian: bool = False):
    """Inverse of the periodic bilaplacian symbol on the rfft2 half spectrum.

    The zero mode maps to zero, so applying it projects onto zero mean.
    With hessian, returns instead the symbols of d2x, d2y and the cross
    d1x d1y, each times that inverse: applied to the transform of b they
    give the stencil hessian of the solution of bilap(u) = b.  Every stencil
    is a Fourier multiplier on the torus: d2 has the real symbol
    (2 cos t - 2)/h^2 and d1 the imaginary i sin(t)/h, so the cross is real.
    At 256^2 the inverse costs about 6 % of one application and the
    hessian symbols, built once per solve_vk, about 40 %; a cache kept per
    grid would hold the arrays, and with them heap pages, for the life of
    the process.
    """
    tx = 2.0 * np.pi * np.arange(grid.nx) / grid.nx
    ty = 2.0 * np.pi * np.arange(grid.ny // 2 + 1) / grid.ny
    lx = (2.0 * np.cos(tx) - 2.0) / grid.dx**2
    ly = (2.0 * np.cos(ty) - 2.0) / grid.dy**2
    sym2 = (lx[:, None] + ly[None, :]) ** 2
    sym2[0, 0] = 1.0
    inv = 1.0 / sym2
    inv[0, 0] = 0.0
    if not hessian:
        return inv
    cross = -np.outer(np.sin(tx) / grid.dx, np.sin(ty) / grid.dy)
    return lx[:, None] * inv, ly[None, :] * inv, cross * inv


def _inverse_hessian(b: np.ndarray, symbols: tuple) -> tuple[np.ndarray, ...]:
    """Stencil hessian of the zero-mean solution of bilap(u) = b as its planes
    (xx, yy, xy), from the symbols of _inv_bilap_symbol(grid, hessian=True):
    one rfft2 and three irfft2, and no roundoff amplified by a stencil
    applied to u."""
    b_hat = np.fft.rfft2(b)
    return tuple(np.fft.irfft2(b_hat * sym, s=b.shape) for sym in symbols)


def solve_biharmonic(rhs: ScalarField) -> ScalarField:
    """Solve bilap(u) = rhs on the periodic torus, zero-mean u.

    The right-hand side is projected onto zero mean first.  The real FFT
    diagonalizes the composed laplacian-of-laplacian stencil, so its inverse
    symbol solves the system directly; one correction with the stencil's own
    residual, u += M^-1 (b - bilap(u)), lowers the roundoff of that solve.
    """
    grid = rhs.grid
    if not grid.periodic:
        raise ValueError("solve_biharmonic supports the periodic verification arena only")

    b = rhs.data - rhs.data.mean()
    inv_sym = _inv_bilap_symbol(grid)
    shape = (grid.nx, grid.ny)

    def apply_minv(r):
        return np.fft.irfft2(np.fft.rfft2(r) * inv_sym, s=shape)

    u = apply_minv(b)
    u += apply_minv(b - grid.bilap(u))
    return ScalarField(grid, u)


# -- the least-squares inverse of the discrete symmetric gradient ---------------

# CG stops at this relative residual, which a compatible strain reaches in 2-3
# iterations and an incompatible one in under 50 (33^2 to 257^2), or raises
# SolverError at the iteration cap
_SYM_GRAD_RTOL = 1e-14
_SYM_GRAD_MAX_ITER = 200


def solve_sym_grad(grid: Grid2D, xx: np.ndarray, yy: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """The w, sampled as (nx, ny, 2), that minimizes the quadrature of
    |S w - e|^2 for the symmetric field e with planes (xx, yy, xy).

    S = sym grad_h on the grid's own D1 stencils (fields.sym_grad_values), so
    a discretely compatible e is matched to roundoff.  CG, in scipy.sparse.linalg.cg's
    order of operations (so with its bits), solves S* S w = S* e from w = 0, preconditioned
    by _w_blocks with symbols lx + ly/2 and lx/2 + ly; w is fixed up to the discrete rigid motions.
    """
    q, shape, n = grid.quad_weights, (grid.nx, grid.ny, 2), 2 * grid.nx * grid.ny
    inv_w = _w_blocks(grid, 1.0, 0.5)

    def adjoint(qxx, qyy, qxy) -> np.ndarray:  # S* of the field whose planes times q are these
        out = np.empty(shape)
        out[..., 0] = grid.d1_t(qxx, 0)
        out[..., 0] += grid.d1_t(qxy, 1)
        out[..., 1] = grid.d1_t(qyy, 1)
        out[..., 1] += grid.d1_t(qxy, 0)
        return out.ravel()

    def normal(x: np.ndarray) -> np.ndarray:
        w = x.reshape(shape)
        qxy = (0.5 * q) * (grid.d1(w[..., 0], 1) + grid.d1(w[..., 1], 0))
        return adjoint(q * grid.d1(w[..., 0], 0), q * grid.d1(w[..., 1], 1), qxy)

    b = adjoint(q * xx, q * yy, q * xy)
    w, r, rho, bnorm = np.zeros(n), b.copy(), None, np.linalg.norm(b)
    if bnorm == 0.0:  # S* e = 0 is solved by w = 0; the first step would divide 0 by 0
        return w.reshape(shape)
    for it in range(_SYM_GRAD_MAX_ITER):
        if np.linalg.norm(r) < _SYM_GRAD_RTOL * bnorm:
            return w.reshape(shape)
        z = inv_w(r.reshape(shape), np.empty(shape)).ravel()
        rho_prev, rho = rho, np.dot(r, z)
        p = z if it == 0 else p * (rho / rho_prev) + z
        ap = normal(p)
        alpha = rho / np.dot(p, ap)
        w += alpha * p
        r -= alpha * ap
    resid = float(np.linalg.norm(b - normal(w)) / bnorm)
    raise SolverError(f"symmetric-gradient CG did not converge: relative residual {resid:.3e}", residual=resid)


# -- the mixed-type Dirichlet problem -------------------------------------------

def solve_mystery(v0: ScalarField, B: MatrixField2) -> tuple[ScalarField, VectorField2]:
    """Constructive strain decomposition on an elliptic reference v0.

    Solves cof(hess v0) : hess v = -curl^T curl B with v = 0 on the
    boundary, then takes w from solve_sym_grad, so that B = sym grad w +
    sym(grad v x grad v0) up to the stencil-order curl^T curl residual.
    """
    v0.grid.require_same(B.grid, "v0 and B")
    grid = v0.grid
    if grid.periodic:
        raise ValueError("solve_mystery poses a Dirichlet problem; use a ghost-mode grid")
    p_1, p_2, p_11, p_22, p_12 = v0.planes
    dmin = float((p_11 * p_22 - p_12 * p_12).min())
    if dmin <= 1e-12:
        raise EllipticityError(f"det(hess v0) must be uniformly positive; min is {dmin:.3e}")

    f = -curl_t_curl(B).data

    # v = 0 on the boundary: the system is the interior block of the operator
    nx, ny = grid.nx, grid.ny
    inner = np.arange(nx * ny).reshape(nx, ny)[1:-1, 1:-1].ravel()
    mat = bracket_matrix(grid, sym_stack(p_11, p_22, p_12))[inner][:, inner]
    from scipy.sparse.linalg import spsolve  # not at module level: its import costs every process ~10 MB

    try:
        u = spsolve(mat, f[1:-1, 1:-1].ravel())
    except Exception as exc:  # pragma: no cover - singular systems are input errors
        raise SolverError(f"mixed-type linear solve failed: {exc}") from exc
    if not np.all(np.isfinite(u)):
        raise SolverError("mixed-type linear solve produced non-finite values")

    vdata = np.zeros((nx, ny))
    vdata[1:-1, 1:-1] = u.reshape(nx - 2, ny - 2)
    v = ScalarField(grid, vdata)

    v_1, v_2 = grid.d1(vdata, 0), grid.d1(vdata, 1)
    bxx, byy, bxy = sym_planes(B.data)
    w = solve_sym_grad(grid, bxx - v_1 * p_1, byy - v_2 * p_2, bxy - 0.5 * (v_1 * p_2 + v_2 * p_1))
    return v, VectorField2(grid, w)


# -- limited-memory BFGS --------------------------------------------------------

# L-BFGS history length and the Armijo line search: sufficient-decrease
# constant, backtracking factor, smallest step tried
_LBFGS_MEMORY = 10
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-16


@dataclass(frozen=True)
class MinimizeOptions:
    tol: float = 1e-8
    max_iter: int = 1000
    penalty_init: float = 1.0
    penalty_doublings: int = 3

    def __post_init__(self):
        # tol = 0 is admitted: the run then stops on its budget or a failed
        # line search
        _check_tol(self.tol)
        if not (math.isfinite(self.penalty_init) and self.penalty_init > 0.0):
            raise ValueError(f"penalty_init must be a finite number > 0, got {self.penalty_init!r}")
        # max_iter = 0 is admitted: each stage then evaluates its start only
        _check_budget("max_iter", self.max_iter)
        _check_budget("penalty_doublings", self.penalty_doublings)


def _check_budget(name: str, value: int):
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def _check_tol(tol: float):
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def _tensor_solve(vx: np.ndarray, vy: np.ndarray, sym: np.ndarray, gf: np.ndarray) -> np.ndarray:
    """V_x ((V_x^T G V_y) / S) V_y^T: the block with symbol S, inverted."""
    return vx @ ((vx.T @ gf @ vy) / sym) @ vy.T


def _kernel_filled(sym: np.ndarray) -> np.ndarray:
    """The block's true-kernel modes (symbol 0) get its smallest positive symbol."""
    return np.where(sym > 0.0, sym, sym[sym > 0.0].min())


def _w_blocks(grid: Grid2D, a: float, b: float):
    """apply(gw, out) writes into out the inverse of the w blocks, symbols
    a lx + b ly (w1) and b lx + a ly (w2) with kernels filled, on the (nx, ny, 2)
    array gw: fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185)."""
    (lx, vx), (ly, vy) = grid.eigenbasis(0, 1), grid.eigenbasis(1, 1)
    syms = [_kernel_filled(s * lx[:, None] + t * ly[None, :]) for s, t in ((a, b), (b, a))]

    def apply(gw: np.ndarray, out: np.ndarray) -> np.ndarray:
        for k in range(2):
            out[..., k] = _tensor_solve(vx, vy, syms[k], gw[..., k])
        return out

    return apply


def _flat_hessian_inverse(functional: str, grid: Grid2D, m: en.Material, v0, penalty: float):
    """H0 = P^-1 for L-BFGS: P is the block-diagonal quadratic part of the
    energy at the flat state, inverted exactly in the tensor-product
    eigenbases of Grid2D.eigenbasis (fast diagonalization).

    With a = 2 mu + lam_plane and c = 4 mu the block symbols are
      w1: a lx1 + (c/4) ly1,   w2: (c/4) lx1 + a ly1   (_w_blocks),
      v:  (a/12 + 2 penalty pbar) (sqrt lx2 + sqrt ly2)^2, pbar the mean of
          |cof hess v0|^2 / 2 (I4INF only),
      vtilde: a/2 mean|grad v0|^2 (lx1 + ly1), with 1 for the mean if v0 = 0.
    The twist x1 x2 lies in both second-order kernels, so the kernel x kernel
    modes of the v block without a constant factor get their exact Rayleigh
    quotient.  The modes left at symbol 0 (constants, affine v) get the
    block's smallest positive symbol: affine v is a kernel of P but, through
    the von Karman gauge, not of the energy's Hessian away from the flat
    state, and a tiny symbol there makes L-BFGS take far more iterations.
    """
    (lx1, vx1), (ly1, vy1) = grid.eigenbasis(0, 1), grid.eigenbasis(1, 1)
    (lx2, vx2), (ly2, vy2) = grid.eigenbasis(0, 2), grid.eigenbasis(1, 2)
    a = 2.0 * m.mu + m.lam_plane
    c = 4.0 * m.mu
    inv_w = _w_blocks(grid, a, 0.25 * c)

    constrained = functional == en.I4INF
    hv0 = None
    pbar = 0.0
    if constrained:
        hv0 = sym_stack(*v0.planes[2:])  # |cof hess v0| = |hess v0|
        pbar = grid.integrate_values(0.5 * np.sum(hv0 * hv0, axis=(-2, -1))) / grid.area
    sym_v = (a / 12.0 + 2.0 * penalty * pbar) * (np.sqrt(lx2)[:, None] + np.sqrt(ly2)[None, :]) ** 2
    # kernel x kernel modes with a constant factor (mode 0) are affine: skip them
    for i in range(1, np.count_nonzero(lx2 == 0.0)):
        for j in range(1, np.count_nonzero(ly2 == 0.0)):
            hphi = hessian_values(grid, np.outer(vx2[:, i], vy2[:, j]))
            sym_v[i, j] = grid.integrate_values(en.q2(hphi, m)[0]) / 12.0
            if constrained:
                r = bracket_values(hv0, hphi)
                sym_v[i, j] += 2.0 * penalty * grid.integrate_values(r * r)
    sym_v = _kernel_filled(sym_v)

    sym_vt = None
    if constrained:
        p_1, p_2 = v0.planes[:2]
        gbar = grid.integrate_values(p_1 * p_1 + p_2 * p_2) / grid.area
        sym_vt = _kernel_filled(0.5 * a * (gbar if gbar > 0.0 else 1.0) * (lx1[:, None] + ly1[None, :]))

    nx, ny = grid.nx, grid.ny
    n = nx * ny

    def apply(g: np.ndarray) -> np.ndarray:
        out = np.empty_like(g)
        inv_w(g[: 2 * n].reshape(nx, ny, 2), out[: 2 * n].reshape(nx, ny, 2))
        out[2 * n : 3 * n] = _tensor_solve(vx2, vy2, sym_v, g[2 * n : 3 * n].reshape(nx, ny)).ravel()
        if constrained:
            out[3 * n :] = _tensor_solve(vx1, vy1, sym_vt, g[3 * n :].reshape(nx, ny)).ravel()
        return out

    return apply


def _lbfgs(fg, x0: np.ndarray, tol: float, max_iter: int, h0):
    """Two-loop L-BFGS with initial inverse Hessian h0 and Armijo backtracking.

    h0 is scaled by s^T y / y^T h0(y) of the newest pair (Nocedal & Wright,
    Numerical Optimization, 7.2); the first step is the unit step along
    -h0(g).  Energies never increase.  Stops once |grad| <= tol (1 + |f(x0)|),
    CONVERGED even when that is also the last of max_iter iterations; a
    search direction that is not a descent direction, or a step that
    backtracks below _MIN_STEP, ends the run at x with LINE_SEARCH_FAILED.
    Returns (x, status, stats); stats holds the iterations, fg evaluations,
    rejected trial steps and the (f, |grad|) history, which ends at x.
    """
    x = x0.copy()
    f, g = fg(x)
    tol_abs = tol * (1.0 + abs(f))
    hist: deque = deque(maxlen=_LBFGS_MEMORY)  # (s, y, 1 / s^T y), oldest first
    gamma = 1.0
    gnorm = float(np.linalg.norm(g))
    stats = {"iterations": 0, "fg_evals": 1, "backtracks": 0, "history": [[f, gnorm]]}
    while gnorm > tol_abs and stats["iterations"] < max_iter:
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(hist):
            a = rho * float(np.dot(s, q))
            alphas.append(a)
            q -= a * y
        q = gamma * h0(q)
        for (s, y, rho), a in zip(hist, reversed(alphas)):
            b = rho * float(np.dot(y, q))
            q += (a - b) * s
        d = -q
        slope = float(np.dot(g, d))
        if slope >= 0.0:  # h0 or the history lost positive definiteness
            return x, LINE_SEARCH_FAILED, stats
        t = 1.0
        while True:
            f_new, g_new = fg(x + t * d)
            stats["fg_evals"] += 1
            if f_new <= f + _ARMIJO_C1 * t * slope:
                break
            stats["backtracks"] += 1
            t *= _BACKTRACK
            if t < _MIN_STEP:
                return x, LINE_SEARCH_FAILED, stats
        x_new = x + t * d
        s_vec = x_new - x
        y_vec = g_new - g
        sy = float(np.dot(s_vec, y_vec))
        if sy > 1e-14 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            hist.append((s_vec, y_vec, 1.0 / sy))
            gamma = sy / float(np.dot(y_vec, h0(y_vec)))
        if not (f_new <= f):
            raise AssertionError("accepted step increased the energy")
        x, f, g = x_new, f_new, g_new
        gnorm = float(np.linalg.norm(g))
        stats["iterations"] += 1
        stats["history"].append([f, gnorm])
    return x, CONVERGED if gnorm <= tol_abs else BUDGET_EXHAUSTED, stats


def minimize(
    functional: str,
    init: en.PlateState,
    g: GrowthFields,
    m: en.Material,
    v0: ScalarField | None = None,
    opts: MinimizeOptions | None = None,
) -> tuple[en.PlateState, SolveReport]:
    """Minimize one of the plate functionals from the given state.

    L-BFGS iterates the flat state (PlateState.flatten order), one
    en.grad_energy call per fg evaluation, and starts each stage from the
    inverse of the flat-state quadratic part (_flat_hessian_inverse).  For
    the constrained functional the quadratic penalty weight follows a
    doubling schedule; the constraint residual is recorded per stage and
    must not increase along it.  extras["penalty_stages"] has one row per
    stage (a single penalty-0 stage for I40 and I41) with its iterations,
    fg evaluations, backtracks, preconditioner build time `precond_s` and
    (f, |grad|) history.
    """
    opts = opts or MinimizeOptions()
    grid = init.grid
    t0 = time.perf_counter()
    if not math.isfinite(en.total_energy(functional, init, g, m, v0, 0.0)):
        raise SolverError("initial energy is not finite")
    weights = [0.0]
    if functional == en.I4INF:
        weights = [opts.penalty_init * 2.0**k for k in range(opts.penalty_doublings + 1)]

    x = gauge_fix(init).flatten()
    total_iters = 0
    stage_rows = []
    status = CONVERGED
    gnorm = 0.0
    for wgt in weights:
        t_build = time.perf_counter()
        h0 = _flat_hessian_inverse(functional, grid, m, v0, wgt)
        precond_s = time.perf_counter() - t_build
        # each evaluation looks en.grad_energy up afresh: tracers patch it
        x, stage_status, stats = _lbfgs(
            lambda xk: en.grad_energy(functional, xk, g, m, v0, wgt), x, opts.tol, opts.max_iter, h0
        )
        gnorm = stats["history"][-1][1]
        total_iters += stats["iterations"]
        if status != LINE_SEARCH_FAILED and stage_status != CONVERGED:
            status = stage_status
        row = {"penalty": wgt, **stats, "precond_s": precond_s}
        if functional == en.I4INF:
            _, resid = en.energy_i4inf(en.PlateState.unflatten(x, grid), g, m, v0, 0.0)
            if stage_rows and resid > stage_rows[-1]["constraint_residual"] + 1e-10 * (1.0 + resid):
                raise AssertionError(
                    "constraint residual increased along the penalty schedule"
                )
            row["constraint_residual"] = resid
        stage_rows.append(row)

    final = gauge_fix(en.PlateState.unflatten(x, grid))
    resid = 0.0
    if functional == en.I4INF:
        final_energy, resid = en.energy_i4inf(final, g, m, v0, 0.0)
    else:
        final_energy = en.total_energy(functional, final, g, m, v0, 0.0)
    report = SolveReport(
        iterations=total_iters,
        final_energy=final_energy,
        grad_norm=gnorm,
        constraint_residual=resid,
        wall_time_s=time.perf_counter() - t0,
        extras={"penalty_stages": stage_rows},
        status=status,
    )
    return final, report


# -- the prestrained von Karman systems -----------------------------------------

@dataclass(frozen=True)
class VKOptions:
    tol: float = 1e-10
    max_sweeps: int = 400
    # the damping beta of solve_vk's mixed step
    relaxation: float = 0.7

    def __post_init__(self):
        _check_tol(self.tol)  # tol = 0 runs to the roundoff floor
        _check_budget("max_sweeps", self.max_sweeps)
        if not (math.isfinite(self.relaxation) and self.relaxation > 0.0):
            raise ValueError(f"relaxation must be a finite number > 0, got {self.relaxation!r}")


def _vk_sources(model: str, g: GrowthFields, m: en.Material, v0: ScalarField):
    """(lambda_g, omega_g, hess v0, bilap v0), hess v0 as its planes
    (xx, yy, xy); the v0 terms are None and 0.0 for the 'old' model, which has
    none."""
    if model not in ("old", "new"):
        raise ValueError(f"unknown model {model!r}; expected 'old' or 'new'")
    grid = g.grid
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
            lam, om = lambda_g(g).data, omega_g(g, m.nu).data
    except ValueError as exc:  # field samples must all be finite
        raise GrowthSpecError(f"lambda_g or omega_g overflows: {exc}") from exc
    if model == "new":
        hv0 = v0.planes[2:]  # bilap = lap lap, and lap v0 is bitwise d11 v0 + d22 v0
        return lam, om, hv0, grid.lap(hv0[0] + hv0[1])
    return lam, om, None, 0.0


def vk_residual(
    state: VKState,
    model: str,
    g: GrowthFields,
    m: en.Material,
    v0: ScalarField | None = None,
    project_means: bool = False,
) -> tuple[float, float]:
    """L2 norms of both equation residuals under the module's stencils.

    With project_means the node means are removed first; on the torus the
    raw residuals carry a floor of order dx^2 (the discrete sources are
    only mean-compatible to stencil accuracy), which is the solvable part's
    natural measure of convergence.
    """
    if v0 is None:
        v0 = ScalarField.zeros(state.grid)
    return _stencil_residual(state, _vk_sources(model, g, m, v0), m, project_means)


def _stencil_residual(state: VKState, sources: tuple, m: en.Material, project_means: bool = False):
    """vk_residual with the sources already built by _vk_sources; det(hess v)
    and the bracket are read from the hessians."""
    lam, om, h0, bilap0 = sources
    grid = state.grid
    y, z = m.young, m.bending
    hv = hessian_values(grid, state.v.data)
    hphi = hessian_values(grid, state.phi.data)
    det0 = 0.0 if h0 is None else h0[0] * h0[1] - h0[2] * h0[2]
    # the laplacian of the hessian's trace is bitwise grid.bilap, since
    # lap = d2x + d2y
    r1 = grid.lap(hphi[..., 0, 0] + hphi[..., 1, 1]) + y * (det2_values(hv) - det0 + lam)
    r2 = z * (grid.lap(hv[..., 0, 0] + hv[..., 1, 1]) - bilap0) - bracket_values(hv, hphi) + z * om
    if project_means:
        r1 = r1 - r1.mean()
        r2 = r2 - r2.mean()
    return grid.norm_l2(r1), grid.norm_l2(r2)


# Roundoff-floor detection over the Picard residual history: a floor is
# flat and not monotone.  Over the last _FLOOR_WINDOW residuals, the best one
# before them lies below _FLOOR_CEILING, the window stays above _FLOOR_LOW
# times that best and below _FLOOR_HIGH times it, and it neither falls at
# every sweep nor rises at every sweep.  Anderson steps built on rounding
# noise scatter the residual within the band; a window of equal residuals is
# a floor too.  The ceiling keeps a stall far above rounding level from
# passing for a floor.  Slow linear contraction falls every sweep and a
# divergence leaves the band, so neither qualifies.
_FLOOR_WINDOW = 10
_FLOOR_LOW = 0.9
_FLOOR_HIGH = 10.0
_FLOOR_CEILING = 1e-12

# Anderson acceleration of the Picard map (Walker & Ni, SIAM J. Numer. Anal.
# 49 (2011) 1715): the number of past steps mixed into each one.  A solve
# diverges once its residual exceeds both its start and _DIVERGE_GAIN times
# the best residual seen.
_ANDERSON_DEPTH = 3
_DIVERGE_GAIN = 1e3


def _roundoff_floor(history: list[float]) -> float | None:
    """The floor estimate (median of the window) if the history sits on one."""
    if len(history) <= _FLOOR_WINDOW:
        return None
    window = history[-_FLOOR_WINDOW:]
    best = min(history[:-_FLOOR_WINDOW])
    if not (best < _FLOOR_CEILING and _FLOOR_LOW * best < min(window) <= max(window) < _FLOOR_HIGH * best):
        return None
    steps = list(zip(window, window[1:]))
    if all(b < a for a, b in steps) or all(b > a for a, b in steps):
        return None
    return float(np.median(window))


def _picard_defect(b_u, lam, om, h0, y, z, symbols):
    """One Picard map of solve_vk: f = G(b_u) - b_u, the phi source P(b_u) and
    the larger projected mean.  h0 is None ('old') or the planes
    (xx, yy, xy) of hess v0; every hessian is read as its three planes."""
    hv = _inverse_hessian(b_u, symbols)
    xx, yy, xy = hv
    b_phi = xx * yy - xy * xy + lam  # det hess u + lambda_g
    if h0 is not None:
        # det(h0 + hu) - det(h0) = cof(h0) : hu + det(hu), no cancellation
        b_phi += bracket_planes(h0, hv)
        xx += h0[0]
        yy += h0[1]
        xy += h0[2]
    b_phi *= -y
    mean1 = float(b_phi.mean())
    b_phi -= mean1
    hphi = _inverse_hessian(b_phi, symbols)
    f = bracket_planes(hv, hphi) / z - om
    mean2 = float(f.mean())
    f -= mean2
    f -= b_u
    return f, b_phi, max(abs(mean1), abs(mean2))


def solve_vk(
    model: str,
    g: GrowthFields,
    m: en.Material,
    v0: ScalarField | None = None,
    opts: VKOptions | None = None,
) -> tuple[VKState, SolveReport]:
    """Anderson-accelerated Picard iteration for the flat ('old') or
    blooming ('new') system.

    The iteration runs on B_v = bilap(v) alone.  Source means are projected
    out (the periodic torus forces compatibility) and the projection
    magnitudes are reported.  One sweep is the map
      B_phi = P(B_v) = -Y (det hess v - det0 + lambda_g) - mean,
      G(B_v) = [cof(hess v) : hess phi] / Z - omega_g + bilap v0 - mean,
    with hess v and hess phi read as their planes (xx, yy, xy) from the
    transforms of B_v and B_phi through the stencil symbols
    (_inverse_hessian): 8 FFTs, no stencil and no (..., 2, 2) stack; det and
    the bracket are plane products (fields.bracket_planes).
    The phi half-step is exact, so the projected r1 is 0 and the projected
    r2 is Z f, with f = G(B_v) - B_v the defect; the residual rho is
    |f| / scale, read off f with no separate residual pass.

    The step is type-II Anderson mixing (Walker & Ni, 2011) of depth
    _ANDERSON_DEPTH with damping beta = opts.relaxation:
      B_v <- B_v + beta f - (dX + beta dF) gamma,
    where dX and dF hold the last changes of B_v and f and gamma solves the
    normal equations of min |f - dF gamma|.  The history is a sliding window
    of the last _ANDERSON_DEPTH pairs and is never cleared; with no history
    the step is plain relaxation, B_v + beta f.  The loop carries
    B_u = B_v - bilap v0 (v = v0 + u, zero for 'old'), which shifts the
    iterates by a constant and leaves the mixing unchanged; det hess v - det0
    is then cof(hess v0) : hess u + det hess u, with no cancellation.  The returned phi is solve_biharmonic of the
    final B_phi and v that of B_u plus v0 - mean (a solve that runs no
    sweep returns its start state), and extras["equation_residuals"] is
    vk_residual of them.

    A residual above both its start and _DIVERGE_GAIN times the best one
    seen raises SolverError with a hint to lower the relaxation or the
    growth amplitude; its `report` has status DIVERGING and the residual
    history.  It is raised before the final solves, since the iterate may
    have overflowed.  Growth whose lambda_g or omega_g overflows raises
    GrowthSpecError.  A residual that has stopped falling and sits on its
    roundoff floor above tol ends the solve with status ROUNDOFF_FLOOR
    (converged stays False; extras["roundoff_floor"] holds the estimate).
    """
    opts = opts or VKOptions()
    grid = g.grid
    if not grid.periodic:
        raise ValueError("the von Karman verification arena is the periodic torus")
    if v0 is None:
        v0 = ScalarField.zeros(grid)
    grid.require_same(v0.grid, "growth and v0")
    t0 = time.perf_counter()
    sources = _vk_sources(model, g, m, v0)
    lam, om, h0, _ = sources
    y, z = m.young, m.bending

    scale = 1.0 + grid.norm_l2(lam) + grid.norm_l2(om)
    shape = (grid.nx, grid.ny)
    symbols = _inv_bilap_symbol(grid, hessian=True)

    beta = opts.relaxation
    depth = _ANDERSON_DEPTH
    # ring buffers of the last changes of b_u and of f, one pair per slot
    d_x = np.empty((depth,) + shape)
    d_f = np.empty((depth,) + shape)

    status = BUDGET_EXHAUSTED
    floor = None
    sweeps = 0
    b_u = np.zeros(shape)
    f, b_phi, max_proj = _picard_defect(b_u, lam, om, h0, y, z, symbols)
    f_norm = grid.norm_l2(f)
    rho = f_norm / scale
    history = [rho]
    best = rho
    while True:
        if rho <= opts.tol:
            status = CONVERGED
            break
        floor = _roundoff_floor(history)
        if floor is not None:
            status = ROUNDOFF_FLOOR
            break
        if sweeps >= opts.max_sweeps:
            break
        step = beta * f
        cols = min(sweeps, depth)
        if cols:
            dx = d_x[:cols].reshape(cols, -1)
            df = d_f[:cols].reshape(cols, -1)
            gamma = np.linalg.lstsq(df @ df.T, df @ f.ravel(), rcond=None)[0]
            step -= (gamma @ dx + beta * (gamma @ df)).reshape(shape)
        slot = sweeps % depth
        # the pair holds the change b_u took in floating point, which on the
        # roundoff floor is not the step
        np.negative(b_u, out=d_x[slot])
        np.negative(f, out=d_f[slot])
        b_u += step
        d_x[slot] += b_u
        del step, f, b_phi
        f, b_phi, proj = _picard_defect(b_u, lam, om, h0, y, z, symbols)
        d_f[slot] += f
        max_proj = max(max_proj, proj)
        sweeps += 1

        f_norm = grid.norm_l2(f)
        rho = f_norm / scale
        history.append(rho)
        best = min(best, rho)
        if not rho <= max(history[0], _DIVERGE_GAIN * best):
            status = DIVERGING
            break

    del d_x, d_f, f
    report = SolveReport(
        iterations=sweeps,
        final_energy=None,
        grad_norm=rho,
        constraint_residual=0.0,
        extras={
            "residual_history": history,
            "projected_residuals": {"r1": 0.0, "r2": z * f_norm},
            "max_mean_projection": max_proj,
        },
        status=status,
    )
    if status == DIVERGING:  # before the final solves: a diverged iterate may not be finite
        report.wall_time_s = time.perf_counter() - t0
        raise SolverError(
            "von Karman Picard iteration diverging: the residual rose above its "
            f"start and {_DIVERGE_GAIN:g} times its best; reduce the relaxation "
            "(the damping of the Anderson-mixed step on B_v) or the growth amplitude",
            residual=rho,
            report=report,
        )
    v = solve_biharmonic(ScalarField(grid, b_u))
    if h0 is not None:
        v = ScalarField(grid, v.data + (v0.data - v0.data.mean()))
    state = VKState(v, solve_biharmonic(ScalarField(grid, b_phi)))
    del b_u, b_phi
    r1_raw, r2_raw = _stencil_residual(state, sources, m)
    report.extras["equation_residuals"] = {"r1": r1_raw, "r2": r2_raw}
    report.wall_time_s = time.perf_counter() - t0
    if status == ROUNDOFF_FLOOR:
        report.extras["roundoff_floor"] = floor
    elif status == BUDGET_EXHAUSTED:
        report.extras["warning"] = "sweep budget exhausted before tolerance"
    return state, report
