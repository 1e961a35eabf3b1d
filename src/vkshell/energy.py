"""Isotropic quadratic forms, plate material constants, and the limiting
plate energies with their exact discrete gradients.

The three functionals share one quadratic form:

    Q2(F) = 2 mu |sym F|^2 + (2 mu lambda / (2 mu + lambda)) (tr F)^2,

the relaxation of Q3(F) = 2 mu |sym F|^2 + lambda (tr F)^2 over normal
completions c x e3 + e3 x c.  The unique minimizer c(F_tan) is retained
because the recovery-sequence warping needs it verbatim.

Energies are plain quadrature sums over the grid; gradients differentiate
that sum exactly (adjoint stencils), so finite-difference checks of the
gradient hold to solver precision, not just to discretization order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    Grid2D,
    ScalarField,
    VectorField2,
    bracket_values,
    cof2_values,
    grad_values,
    hessian_values,
    sym_grad_values,
    sym_values,
)
from .growth import GrowthFields, sym_tan

I40 = "I40"
I41 = "I41"
I4INF = "I4INF"
VARIANTS = (I40, I41, I4INF)


@dataclass(frozen=True)
class Material:
    """Lame pair with the derived plate constants."""

    mu: float
    lam: float

    def __post_init__(self):
        # lam = 0 (nu = 0) is admitted: the worked examples and the omega_g
        # precondition both use it.
        if not (self.mu > 0.0 and self.lam >= 0.0):
            raise ValueError(f"need mu > 0 and lam >= 0, got mu={self.mu}, lam={self.lam}")
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


def q2(F2: np.ndarray, m: Material):
    """Relaxed form and its minimizing normal completion.

    Returns (value, c) with value = Q2(F2) and c the unique minimizer of
    Q3(F2^* + c x e3 + e3 x c); c = (0, 0, -lambda tr F2 / (2(2 mu + lambda))).
    Both are linear/quadratic in F2 and depend only on its symmetric part.
    """
    F2 = np.asarray(F2, dtype=float)
    s = sym_values(F2)
    tr = np.trace(F2, axis1=-2, axis2=-1)
    val = 2.0 * m.mu * np.sum(s * s, axis=(-2, -1)) + m.lam_plane * tr * tr
    c = np.zeros(F2.shape[:-2] + (3,))
    c[..., 2] = -m.lam * tr / (2.0 * (2.0 * m.mu + m.lam))
    if val.ndim == 0:
        return float(val), c
    return val, c


def q2_stress(F2: np.ndarray, m: Material) -> np.ndarray:
    """Half-derivative N(F) = 2 mu sym F + lam_plane (tr F) Id, so dQ2 = 2 N."""
    s = sym_values(np.asarray(F2, dtype=float))
    tr = np.trace(s, axis1=-2, axis2=-1)
    out = 2.0 * m.mu * s.copy()
    out[..., 0, 0] += m.lam_plane * tr
    out[..., 1, 1] += m.lam_plane * tr
    return out


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
    strain B = sym grad w + sym(grad vtilde x grad v0).
    """

    variant: str
    w: VectorField2
    v: ScalarField
    vtilde: ScalarField | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        self.w.grid.require_same(self.v.grid, "state fields")
        if self.variant == I4INF:
            if self.vtilde is None:
                raise ValueError("I4INF states need vtilde")
            self.w.grid.require_same(self.vtilde.grid, "state fields")
        elif self.vtilde is not None:
            raise ValueError(f"{self.variant} states carry no vtilde")

    @property
    def grid(self) -> Grid2D:
        return self.w.grid

    @classmethod
    def zeros(cls, grid: Grid2D, variant: str = I40) -> "PlateState":
        vt = ScalarField.zeros(grid) if variant == I4INF else None
        return cls(variant, VectorField2.zeros(grid), ScalarField.zeros(grid), vt)

    @classmethod
    def random(cls, grid: Grid2D, variant: str, rng: np.random.Generator, amplitude: float = 1.0) -> "PlateState":
        w = VectorField2(grid, amplitude * rng.standard_normal((grid.nx, grid.ny, 2)))
        v = ScalarField(grid, amplitude * rng.standard_normal((grid.nx, grid.ny)))
        vt = None
        if variant == I4INF:
            vt = ScalarField(grid, amplitude * rng.standard_normal((grid.nx, grid.ny)))
        return cls(variant, w, v, vt)

    def flatten(self) -> np.ndarray:
        parts = [self.w.data.ravel(), self.v.data.ravel()]
        if self.variant == I4INF:
            parts.append(self.vtilde.data.ravel())
        return np.concatenate(parts)

    @classmethod
    def unflatten(cls, x: np.ndarray, grid: Grid2D, variant: str) -> "PlateState":
        n = grid.nx * grid.ny
        w = VectorField2(grid, x[: 2 * n].reshape(grid.nx, grid.ny, 2))
        v = ScalarField(grid, x[2 * n : 3 * n].reshape(grid.nx, grid.ny))
        vt = None
        if variant == I4INF:
            vt = ScalarField(grid, x[3 * n : 4 * n].reshape(grid.nx, grid.ny))
        return cls(variant, w, v, vt)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


def stretching_values(s: PlateState, g: GrowthFields, v0: ScalarField | None = None) -> np.ndarray:
    """Stretching integrand argument, per variant.

    I40:   sym grad w + 1/2 grad v x grad v - (sym eps_g)_tan
    I41:   ... additionally - 1/2 grad v0 x grad v0
    I4INF: B + 1/2 grad v x grad v - (sym eps_g)_tan,
           B = sym grad w + sym(grad vtilde x grad v0)
    """
    grid = s.grid
    dv = grad_values(grid, s.v.data)
    out = sym_grad_values(grid, s.w.data) + 0.5 * _outer(dv, dv) - sym_tan(g.eps_g)
    if s.variant == I41 and v0 is not None:
        dv0 = grad_values(grid, v0.data)
        out = out - 0.5 * _outer(dv0, dv0)
    elif s.variant == I4INF and v0 is not None:
        dv0 = grad_values(grid, v0.data)
        dvt = grad_values(grid, s.vtilde.data)
        out = out + sym_values(_outer(dvt, dv0))
    return out


def bending_values(s: PlateState, g: GrowthFields, v0: ScalarField | None = None) -> np.ndarray:
    """Bending integrand argument: hess v [- hess v0 for I41] + (sym kappa_g)_tan."""
    grid = s.grid
    out = hessian_values(grid, s.v.data) + sym_tan(g.kappa_g)
    if s.variant == I41 and v0 is not None:
        out = out - hessian_values(grid, v0.data)
    return out


def _constraint(grid: Grid2D, v: ScalarField, v0: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """cof(hess v0) and the pointwise linearized isometry residual cof(hess v0) : hess v."""
    hv0 = hessian_values(grid, v0.data)
    return cof2_values(hv0), bracket_values(hv0, hessian_values(grid, v.data))


def constraint_values(v: ScalarField, v0: ScalarField) -> np.ndarray:
    """Pointwise linearized isometry residual cof(hess v0) : hess v."""
    return _constraint(v.grid, v, v0)[1]


def _integrands(functional: str, s: PlateState, g: GrowthFields, v0: ScalarField | None, penalty: float):
    """The one argument check, then the functional's integrands at s.

    Returns (stretch, bend, a, r): the stretching and bending arguments of
    Q2, and for I4INF cof(hess v0) and the constraint residual (else None).
    I40 and I41 take states of either of their two variants.
    """
    if functional not in VARIANTS:
        raise ValueError(f"unknown functional {functional!r}")
    if (s.variant == I4INF) != (functional == I4INF):
        raise ValueError(f"state variant {s.variant} does not fit functional {functional}")
    if penalty < 0.0:
        raise ValueError("penalty weight must be nonnegative")
    s.grid.require_same(g.grid, "state and growth")
    if functional != I40:
        if v0 is None:
            raise ValueError(f"{functional} needs v0")
        s.grid.require_same(v0.grid, "state and v0")
    sv = s if s.variant == functional else replace(s, variant=functional)
    a = r = None
    if functional == I4INF:
        a, r = _constraint(s.grid, s.v, v0)
    return stretching_values(sv, g, v0), bending_values(sv, g, v0), a, r


def _quadrature(grid: Grid2D, m: Material, stretch, bend, r, penalty: float) -> tuple[float, float]:
    """(energy, constraint residual): the Q2 quadrature of the integrands plus
    the penalty on r, and the L2 norm of r (0 without a constraint)."""
    qs, _ = q2(stretch, m)
    qb, _ = q2(bend, m)
    e = grid.integrate_values(0.5 * qs + qb / 24.0)
    if r is None:
        return e, 0.0
    res_sq = grid.integrate_values(r * r)
    return e + penalty * res_sq, math.sqrt(max(res_sq, 0.0))


def _energy(functional, s, g, m, v0, penalty) -> tuple[float, float]:
    """(energy, constraint residual) of one functional at s."""
    stretch, bend, _, r = _integrands(functional, s, g, v0, penalty)
    return _quadrature(s.grid, m, stretch, bend, r, penalty)


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
    return _energy(I4INF, s, g, m, v0, constraint_penalty)


def total_energy(
    functional: str,
    s: PlateState,
    g: GrowthFields,
    m: Material,
    v0: ScalarField | None = None,
    penalty: float = 0.0,
) -> float:
    return _energy(functional, s, g, m, v0, penalty)[0]


def _hess_adjoint(grid: Grid2D, n: np.ndarray) -> np.ndarray:
    """Adjoint of phi -> N : hess phi for a symmetric weight stack N."""
    return (
        grid.d2_t(n[..., 0, 0], 0)
        + grid.d2_t(n[..., 1, 1], 1)
        + grid.dcross_t(n[..., 0, 1] + n[..., 1, 0])
    )


def _grad_adjoint(grid: Grid2D, p: np.ndarray) -> np.ndarray:
    """Adjoint of phi -> p . grad phi for a vector weight stack p."""
    return grid.d1_t(p[..., 0], 0) + grid.d1_t(p[..., 1], 1)


def grad_energy(
    functional: str,
    s: PlateState,
    g: GrowthFields,
    m: Material,
    v0: ScalarField | None = None,
    penalty: float = 0.0,
) -> tuple[float, PlateState]:
    """The discrete energy and its exact gradient, shaped like the state.

    One pass over the integrands: the energy is total_energy's, from the same
    quadrature of the same arrays, and the gradient differentiates that sum
    itself (stencil adjoints), so central finite differences of the energy
    reproduce it to roundoff-limited accuracy.
    """
    stretch, bend, a, r = _integrands(functional, s, g, v0, penalty)
    grid = s.grid
    energy, _ = _quadrature(grid, m, stretch, bend, r, penalty)
    q = grid.quad_weights
    ns = q2_stress(stretch, m)  # dE/dS = q * 2 N(S) * 1/2
    nb = q2_stress(bend, m) / 12.0

    dv = grad_values(grid, s.v.data)
    grad_w = np.empty((grid.nx, grid.ny, 2))
    for i in range(2):
        grad_w[..., i] = grid.d1_t(q * ns[..., i, 0], 0) + grid.d1_t(q * ns[..., i, 1], 1)
    nsdv = np.einsum("...ij,...j->...i", ns, dv)
    grad_v = _grad_adjoint(grid, q[..., None] * nsdv) + _hess_adjoint(grid, q[..., None, None] * nb)

    grad_vt = None
    if functional == I4INF:
        dv0 = grad_values(grid, v0.data)
        nsdv0 = np.einsum("...ij,...j->...i", ns, dv0)
        grad_vt = _grad_adjoint(grid, q[..., None] * nsdv0)
        if penalty > 0.0:
            grad_v = grad_v + 2.0 * penalty * _hess_adjoint(grid, (q * r)[..., None, None] * a)

    return energy, PlateState(
        s.variant,
        VectorField2(grid, grad_w),
        ScalarField(grid, grad_v),
        ScalarField(grid, grad_vt) if grad_vt is not None else None,
    )
