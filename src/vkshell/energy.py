"""Isotropic quadratic forms, plate material constants, and the limiting
plate energies with their exact discrete gradients.

The three functionals share one quadratic form:

    Q2(F) = 2 mu |sym F|^2 + (2 mu lambda / (2 mu + lambda)) (tr F)^2,

the relaxation of Q3(F) = 2 mu |sym F|^2 + lambda (tr F)^2 over normal
completions c x e3 + e3 x c.  The unique minimizer c(F_tan) reads only
tr F_tan; completion gives its one nonzero component, which q2 returns and
the 3-D recovery warping reads from the traces of the integrand planes.

Plane form.  The stretching and bending integrands S and K are symmetric, so
one formula (_integrands) builds them as three planes each (xx, yy, xy) from
the state's derivative planes, and _q2_planes / _stress_planes give their Q2
and stress plane by plane; q2 and q2_stress on (..., 2, 2) stacks read the
same two functions.  total_energy forms the derivative planes with the
grid's per-axis stencils, v's and v0's as their ScalarField.planes, formed
once per field; the 3-D recovery template runs the same pass for E2d.
grad_energy forms the flat state's with one sparse product by the plate
derivative operator (fields.plate_derivative_matrix, built once per grid)
and returns the flat gradient through one product by its transpose.  Every
row of that operator is bitwise the per-axis stencil, so both paths see the
same planes and the same quadrature.

States.  A PlateState holds vtilde for I4INF alone, so that fact is its kind:
the energies check it, and a flat state (flatten order, as L-BFGS iterates
it) shows it in its length, 3 n or 4 n.

Energies are plain quadrature sums over the grid; gradients differentiate
that sum exactly (adjoint stencils), so finite-difference checks of the
gradient hold to solver precision, not just to discretization order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    Grid2D,
    ScalarField,
    VectorField2,
    bracket_planes,
    sym_planes,
    sym_stack,
    sym_values,
)
from .growth import GrowthFields

I40 = "I40"
I41 = "I41"
I4INF = "I4INF"
FUNCTIONALS = (I40, I41, I4INF)


@dataclass(frozen=True)
class Material:
    """Lame pair with the derived plate constants."""

    mu: float
    lam: float

    def __post_init__(self):
        # lam = 0 (nu = 0) is admitted: the worked examples and the omega_g
        # precondition both use it.
        if not (math.isfinite(self.mu) and math.isfinite(self.lam) and self.mu > 0.0 and self.lam >= 0.0):
            raise ValueError(f"need finite mu > 0 and lam >= 0, got mu={self.mu}, lam={self.lam}")
        if not self.nu < 0.5:
            raise ValueError(f"Poisson ratio {self.nu} out of range")

    @property
    def nu(self) -> float:
        return self.lam / (2.0 * (self.lam + self.mu))

    @property
    def young(self) -> float:
        return self.mu * (3.0 * self.lam + 2.0 * self.mu) / (self.lam + self.mu)

    @property
    def bending(self) -> float:
        nu = self.nu
        return self.young / (12.0 * (1.0 - nu * nu))

    @property
    def lam_plane(self) -> float:
        """Plane-stress trace coefficient 2 mu lambda / (2 mu + lambda)."""
        return 2.0 * self.mu * self.lam / (2.0 * self.mu + self.lam)


def q3(F: np.ndarray, m: Material) -> np.ndarray | float:
    """Q3(F) = 2 mu |sym F|^2 + lambda (tr F)^2 on a (stack of) 3x3 matrices."""
    F = np.asarray(F, dtype=float)
    s = sym_values(F)
    tr = np.trace(F, axis1=-2, axis2=-1)
    out = 2.0 * m.mu * np.sum(s * s, axis=(-2, -1)) + m.lam * tr * tr
    return float(out) if out.ndim == 0 else out


def _q2_planes(xx, yy, xy, m: Material):
    """(Q2, trace) of the symmetric field with planes (xx, yy, xy)."""
    tr = xx + yy
    return 2.0 * m.mu * (xx * xx + xy * xy + xy * xy + yy * yy) + m.lam_plane * tr * tr, tr


def _stress_planes(xx, yy, xy, tr, m: Material):
    """Planes of N = 2 mu F + lam_plane (tr F) Id, so dQ2 = 2 N : dF."""
    mu2 = 2.0 * m.mu
    lt = m.lam_plane * tr
    return mu2 * xx + lt, mu2 * yy + lt, mu2 * xy


def q2(F2: np.ndarray, m: Material):
    """Relaxed form and its minimizing normal completion.

    Returns (value, c) with value = Q2(F2) and c the unique minimizer of
    Q3(F2^* + c x e3 + e3 x c); c = (0, 0, -lambda tr F2 / (2(2 mu + lambda))).
    Both are linear/quadratic in F2 and depend only on its symmetric part.
    """
    F2 = np.asarray(F2, dtype=float)
    val, tr = _q2_planes(*sym_planes(F2), m)
    c = np.zeros(F2.shape[:-2] + (3,))
    c[..., 2] = completion(tr, m)
    if val.ndim == 0:
        return float(val), c
    return val, c


def completion(tr, m: Material):
    """The normal component -lambda tr F / (2(2 mu + lambda)) of q2's
    minimizing completion c(F), from tr F; its other two components are 0."""
    return -m.lam * tr / (2.0 * (2.0 * m.mu + m.lam))


def q2_stress(F2: np.ndarray, m: Material) -> np.ndarray:
    """Half-derivative N(F) = 2 mu sym F + lam_plane (tr F) Id, so dQ2 = 2 N."""
    xx, yy, xy = sym_planes(np.asarray(F2, dtype=float))
    return sym_stack(*_stress_planes(xx, yy, xy, xx + yy, m))


def warping_l(F: np.ndarray) -> np.ndarray:
    """The vector l(F) with sym(F - (F_2x2)^*) = sym(l(F) x e3).

    l(F) = (F13 + F31, F23 + F32, F33); linear in F.
    """
    F = np.asarray(F, dtype=float)
    return np.stack(
        [F[..., 0, 2] + F[..., 2, 0], F[..., 1, 2] + F[..., 2, 1], F[..., 2, 2]],
        axis=-1,
    )


# -- plate states --------------------------------------------------------------

@dataclass(frozen=True)
class PlateState:
    """Unknowns of the 2d theories.

    I40 / I41 use (w, v); I4INF adds vtilde, which generates the finite
    strain B = sym grad w + sym(grad vtilde x grad v0).  A state with vtilde
    fits I4INF and only I4INF.
    """

    w: VectorField2
    v: ScalarField
    vtilde: ScalarField | None = None

    def __post_init__(self):
        self.w.grid.require_same(self.v.grid, "state fields")
        if self.vtilde is not None:
            self.w.grid.require_same(self.vtilde.grid, "state fields")

    @property
    def grid(self) -> Grid2D:
        return self.w.grid

    @classmethod
    def zeros(cls, grid: Grid2D, vtilde: bool = False) -> "PlateState":
        vt = ScalarField.zeros(grid) if vtilde else None
        return cls(VectorField2.zeros(grid), ScalarField.zeros(grid), vt)

    @classmethod
    def random(
        cls, grid: Grid2D, rng: np.random.Generator, amplitude: float = 1.0, vtilde: bool = False
    ) -> "PlateState":
        shape = (grid.nx, grid.ny)  # drawn in the order w, v, vtilde
        w = VectorField2(grid, amplitude * rng.standard_normal(shape + (2,)))
        v = ScalarField(grid, amplitude * rng.standard_normal(shape))
        vt = ScalarField(grid, amplitude * rng.standard_normal(shape)) if vtilde else None
        return cls(w, v, vt)

    def flatten(self) -> np.ndarray:
        parts = [self.w.data.ravel(), self.v.data.ravel()]
        if self.vtilde is not None:
            parts.append(self.vtilde.data.ravel())
        return np.concatenate(parts)

    @classmethod
    def unflatten(cls, x: np.ndarray, grid: Grid2D) -> "PlateState":
        """The inverse of flatten: 3 n values are (w, v), 4 n add vtilde."""
        n = grid.nx * grid.ny
        if x.size not in (3 * n, 4 * n):
            raise ValueError(f"a flat state on {grid.nx}x{grid.ny} nodes has {3 * n} or {4 * n} values, not {x.size}")
        w = VectorField2(grid, x[: 2 * n].reshape(grid.nx, grid.ny, 2))
        v = ScalarField(grid, x[2 * n : 3 * n].reshape(grid.nx, grid.ny))
        vt = ScalarField(grid, x[3 * n :].reshape(grid.nx, grid.ny)) if x.size == 4 * n else None
        return cls(w, v, vt)


# -- the plane-form integrands --------------------------------------------------

# indices into the derivative planes (fields.PLATE_ROWS)
_W1_1, _W1_2, _W2_1, _W2_2, _V_1, _V_2, _V_11, _V_22, _VT_1, _VT_2 = range(10)


def _stencil_planes(s: PlateState) -> tuple[list, np.ndarray]:
    """The state's derivative planes (fields.PLATE_ROWS order) and its d12 v
    plane, by the per-axis stencils: the value path.  v's are its
    ScalarField.planes."""
    grid = s.grid
    w = s.w.data
    planes = [grid.d1(w[..., i], k) for i in range(2) for k in range(2)]
    *vd, v_12 = s.v.planes
    planes += vd
    if s.vtilde is not None:
        planes += [grid.d1(s.vtilde.data, 0), grid.d1(s.vtilde.data, 1)]
    return planes, v_12


def _v0_planes(functional: str, v0: ScalarField | None):
    """v0's planes where the functional has v0 terms, else None."""
    return None if functional == I40 or v0 is None else v0.planes


def _integrands(functional: str, d, v_12, g: GrowthFields, p0):
    """The one formula of the integrands, plane by plane.

    d holds the state's derivative planes (fields.PLATE_ROWS order), v_12 its
    d12 v plane and p0 v0's planes (d1, d2, d11, d22, d12), or None for no v0
    terms.  Returns (S, K, r): the (xx, yy, xy) planes of

      S = sym grad w + 1/2 grad v x grad v - (sym eps_g)_tan
          [I41: - 1/2 grad v0 x grad v0;  I4INF: + sym(grad vtilde x grad v0)]
      K = hess v + (sym kappa_g)_tan   [I41: - hess v0]

    and for I4INF the constraint residual r = cof(hess v0) : hess v (else
    None).
    """
    w1_1, w1_2, w2_1, w2_2, v_1, v_2, v_11, v_22 = d[:8]
    exx, eyy, exy = sym_planes(g.eps_g.data)
    sxx = w1_1 + 0.5 * (v_1 * v_1) - exx
    syy = w2_2 + 0.5 * (v_2 * v_2) - eyy
    sxy = 0.5 * (w1_2 + w2_1) + 0.5 * (v_1 * v_2) - exy
    kxx, kyy, kxy = sym_planes(g.kappa_g.data)
    kxx, kyy, kxy = v_11 + kxx, v_22 + kyy, v_12 + kxy
    r = None
    if p0 is not None:
        p_1, p_2, p_11, p_22, p_12 = p0
        if functional == I41:
            sxx = sxx - 0.5 * (p_1 * p_1)
            syy = syy - 0.5 * (p_2 * p_2)
            sxy = sxy - 0.5 * (p_1 * p_2)
            kxx, kyy, kxy = kxx - p_11, kyy - p_22, kxy - p_12
        elif functional == I4INF:
            t_1, t_2 = d[_VT_1], d[_VT_2]
            sxx = sxx + t_1 * p_1
            syy = syy + t_2 * p_2
            sxy = sxy + 0.5 * (t_1 * p_2 + t_2 * p_1)
            r = bracket_planes((p_11, p_22, p_12), (v_11, v_22, v_12))
    return (sxx, syy, sxy), (kxx, kyy, kxy), r


def constraint_values(v: ScalarField, v0: ScalarField) -> np.ndarray:
    """Pointwise linearized isometry residual cof(hess v0) : hess v."""
    return bracket_planes(v0.planes[2:], v.planes[2:])


def _check(functional: str, has_vtilde: bool, grid: Grid2D, g: GrowthFields, v0: ScalarField | None, penalty: float):
    """The one argument check of the energies: a state on grid holds vtilde
    for I4INF and only there."""
    if functional not in FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}")
    if has_vtilde != (functional == I4INF):
        kind = "with" if has_vtilde else "without"
        raise ValueError(f"a state {kind} vtilde does not fit functional {functional}")
    if penalty < 0.0:
        raise ValueError("penalty weight must be nonnegative")
    grid.require_same(g.grid, "state and growth")
    if functional != I40:
        if v0 is None:
            raise ValueError(f"{functional} needs v0")
        grid.require_same(v0.grid, "state and v0")


def _quadrature(grid: Grid2D, qs, qb, r, penalty: float) -> tuple[float, float]:
    """(energy, constraint residual): the quadrature of the Q2 planes qs and
    qb plus the penalty on r, and the L2 norm of r (0 without a constraint)."""
    e = grid.integrate_values(0.5 * qs + qb / 24.0)
    if r is None:
        return e, 0.0
    res_sq = grid.integrate_values(r * r)
    return e + penalty * res_sq, math.sqrt(max(res_sq, 0.0))


def _energy(functional, s, g, m, v0, penalty) -> tuple:
    """(energy, constraint residual, (tr S, tr K), derivative planes) of one
    functional at s, the planes in fields.PLATE_ROWS order."""
    _check(functional, s.vtilde is not None, s.grid, g, v0, penalty)
    d, v_12 = _stencil_planes(s)
    stretch, bend, r = _integrands(functional, d, v_12, g, _v0_planes(functional, v0))
    (qs, tr_s), (qb, tr_k) = _q2_planes(*stretch, m), _q2_planes(*bend, m)
    return *_quadrature(s.grid, qs, qb, r, penalty), (tr_s, tr_k), d


def energy_i40(s: PlateState, g: GrowthFields, m: Material) -> float:
    """Prestrained flat-plate functional (the alpha > 1 limit)."""
    return _energy(I40, s, g, m, None, 0.0)[0]


def energy_i41(s: PlateState, g: GrowthFields, m: Material, v0: ScalarField) -> float:
    """Blooming functional (alpha = 1); reduces to energy_i40 when v0 = 0."""
    return _energy(I41, s, g, m, v0, 0.0)[0]


def energy_i4inf(
    s: PlateState,
    g: GrowthFields,
    m: Material,
    v0: ScalarField,
    constraint_penalty: float = 0.0,
) -> tuple[float, float]:
    """Constrained shallow-shell functional (0 < alpha < 1).

    Returns (energy, constraint_residual): the functional plus a quadratic
    penalty on cof(hess v0) : hess v, and the L2 norm of that constraint.
    """
    return _energy(I4INF, s, g, m, v0, constraint_penalty)[:2]


def total_energy(
    functional: str,
    s: PlateState,
    g: GrowthFields,
    m: Material,
    v0: ScalarField | None = None,
    penalty: float = 0.0,
) -> float:
    return _energy(functional, s, g, m, v0, penalty)[0]


def grad_energy(
    functional: str,
    x: np.ndarray,
    g: GrowthFields,
    m: Material,
    v0: ScalarField | None = None,
    penalty: float = 0.0,
) -> tuple[float, np.ndarray]:
    """The energy at the flat state x on g's grid and its flat exact gradient.

    Two sparse products by the grid's plate derivative operator L
    (Grid2D.plate_operator): L x gives the state's derivative planes and
    D1x their d12 v plane; the plane-form integrands, their Q2 and their
    stress follow; L^T of the stress-weighted planes (the d12 weight through
    D1x^T onto the d2 v plane) is the gradient.  The energy is total_energy's
    to the last bit, since every row of L is bitwise the stencil the value
    path applies, and the gradient differentiates that quadrature sum itself,
    so central finite differences of the energy reproduce it to
    roundoff-limited accuracy.
    """
    grid = g.grid
    constrained = functional == I4INF
    _check(functional, constrained, grid, g, v0, penalty)
    size = (4 if constrained else 3) * grid.nx * grid.ny
    if x.shape != (size,):
        raise ValueError(f"a flat {functional} state on {grid.nx}x{grid.ny} nodes has {size} values, not {x.size}")
    shape = (grid.nx, grid.ny)
    lmat, lmat_t, dx, dx_t = grid.plate_operator(constrained)
    d = (lmat @ x).reshape((-1,) + shape)
    v_12 = (dx @ d[_V_2].ravel()).reshape(shape)
    p0 = _v0_planes(functional, v0)
    stretch, bend, r = _integrands(functional, d, v_12, g, p0)
    qs, tr_s = _q2_planes(*stretch, m)
    qb, tr_b = _q2_planes(*bend, m)
    energy, _ = _quadrature(grid, qs, qb, r, penalty)

    # dE = sum q (N(S) : dS + N(K) : dK / 12 + 2 penalty r dr)
    q = grid.quad_weights
    nxx, nyy, nxy = (q * n for n in _stress_planes(*stretch, tr_s, m))
    mxx, myy, mxy = (q / 12.0 * n for n in _stress_planes(*bend, tr_b, m))
    v_1, v_2 = d[_V_1], d[_V_2]
    p = np.empty_like(d)
    p[_W1_1], p[_W1_2], p[_W2_1], p[_W2_2] = nxx, nxy, nxy, nyy
    p[_V_1] = nxx * v_1 + nxy * v_2
    p[_V_2] = nxy * v_1 + nyy * v_2
    p[_V_11], p[_V_22] = mxx, myy
    p_cross = 2.0 * mxy
    if constrained:
        p_1, p_2, p_11, p_22, p_12 = p0
        p[_VT_1] = nxx * p_1 + nxy * p_2
        p[_VT_2] = nxy * p_1 + nyy * p_2
        if penalty > 0.0:
            pr = 2.0 * penalty * q * r
            p[_V_11] += pr * p_22
            p[_V_22] += pr * p_11
            p_cross = p_cross - 2.0 * pr * p_12
    p[_V_2] += (dx_t @ p_cross.ravel()).reshape(shape)
    return energy, lmat_t @ p.ravel()
