"""Growth tensors and the scalar sources they induce.

The in-plane stretching tensor eps_g and the bending tensor kappa_g are
3x3 fields over the mid-plate.  From them we derive

* lambda_g = curl^T curl of the tangential minor of eps_g,
* omega_g  = div^T div  of (tangential kappa + nu * cof tangential kappa),
* the shallow-shell effective growth obtained by pulling the metric back
  through the graph parametrization (eps picks up 1/2 grad(v0) x grad(v0),
  kappa loses hess(v0)),
* the incompatibility field curl (sym kappa_g)_tan whose non-vanishing
  drives the h^4 energy scaling.

Polynomial entry specifications keep every derived quantity testable
against exact analytic oracles; trigonometric presets cover the periodic
test arena.

Storage.  eps_g and kappa_g keep the logical shape (nx, ny, 3, 3).
growth_preset and eval_growth sample each tensor straight into one zeroed
component-major allocation (fields.component_major: each (i, j) entry is one
contiguous plane), and the fields take those arrays without a copy; the
finiteness check reads only the planes the sampler wrote, so the untouched
zero planes are never paged in.  The presets are sampled separably,
c * f(k1 x1)[:, None] * g(k2 x2)[None, :], which gives the bits of the 2-D
formula from one sine per grid line.  The readers take planes: lambda_g and
omega_g apply their stencils to the (xx, yy, xy) planes of the symmetric
tangential block, and the 3-D shell multiplies the tensors plane by plane.  GrowthFields.from_arrays and the
public MatrixField3 constructor copy their input, keep its layout and check
all of it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    Grid2D,
    MatrixField3,
    ScalarField,
    VectorField2,
    component_major,
    curl_t_curl_planes,
    div_t_div_planes,
    sym_planes,
    sym_stack,
    sym_values,
)

MAX_DEGREE = 6


class GrowthSpecError(ValueError):
    """Unusable growth: a malformed polynomial specification, or a growth
    whose tensor q^h of the 3-D shell is not invertible at some node."""


Term = tuple[float, int, int]  # coef * x1^p * x2^q


def _check_terms(terms, where: str):
    """The checked (coef, p, q) triples of a term list: a list of 3-item lists
    of a real coefficient and two integer exponents; strings and bools fail."""
    if not isinstance(terms, (list, tuple)):
        raise GrowthSpecError(f"{where}: expected a list of [coef, p, q] terms, got {terms!r}")
    out = []
    for t in terms:
        if not (isinstance(t, (list, tuple)) and len(t) == 3):
            raise GrowthSpecError(f"{where}: term {t!r} is not a (coef, p, q) triple")
        coef, p, q = t
        if isinstance(coef, bool) or not isinstance(coef, numbers.Real):
            raise GrowthSpecError(f"{where}: coefficient in {t!r} is not a number")
        if any(isinstance(e, bool) or not isinstance(e, numbers.Integral) for e in (p, q)):
            raise GrowthSpecError(f"{where}: exponent in {t!r} is not an integer")
        coef, p, q = float(coef), int(p), int(q)
        if not math.isfinite(coef):
            raise GrowthSpecError(f"{where}: non-finite coefficient {t!r}")
        if p < 0 or q < 0:
            raise GrowthSpecError(f"{where}: negative exponent in {t!r}")
        if p + q > MAX_DEGREE:
            raise GrowthSpecError(f"{where}: total degree {p + q} exceeds {MAX_DEGREE}")
        out.append((coef, p, q))
    return tuple(out)


@dataclass(frozen=True)
class GrowthSpec:
    """Polynomial entries for eps_g and kappa_g, keyed by 1-based (i, j)."""

    eps_entries: dict = field(default_factory=dict)
    kappa_entries: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, entries in (("eps", self.eps_entries), ("kappa", self.kappa_entries)):
            clean = {}
            for ij, terms in entries.items():
                i, j = int(ij[0]), int(ij[1])
                if not (1 <= i <= 3 and 1 <= j <= 3):
                    raise GrowthSpecError(f"{name}: index {ij} out of range")
                clean[(i, j)] = _check_terms(terms, f"{name}[{i},{j}]")
            object.__setattr__(self, f"{name}_entries", clean)

    @classmethod
    def from_config(cls, block: dict) -> "GrowthSpec":
        """Parse flat config keys 'eps.i.j' / 'kappa.i.j' -> term triples."""
        eps, kappa = {}, {}
        for key, terms in block.items():
            parts = key.split(".")
            if len(parts) != 3 or parts[0] not in ("eps", "kappa"):
                raise GrowthSpecError(f"unknown growth entry key {key!r}")
            try:
                ij = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise GrowthSpecError(f"bad index in growth key {key!r}") from None
            (eps if parts[0] == "eps" else kappa)[ij] = terms
        return cls(eps, kappa)


@dataclass(frozen=True)
class GrowthFields:
    """Sampled eps_g, kappa_g on a grid."""

    eps_g: MatrixField3
    kappa_g: MatrixField3

    def __post_init__(self):
        self.eps_g.grid.require_same(self.kappa_g.grid, "growth tensors")

    @property
    def grid(self) -> Grid2D:
        return self.eps_g.grid

    @classmethod
    def zeros(cls, grid: Grid2D) -> "GrowthFields":
        return cls(MatrixField3.zeros(grid), MatrixField3.zeros(grid))

    @classmethod
    def from_arrays(cls, grid: Grid2D, eps: np.ndarray, kappa: np.ndarray) -> "GrowthFields":
        return cls(MatrixField3(grid, eps), MatrixField3(grid, kappa))

    @classmethod
    def _sampled(
        cls, grid: Grid2D, eps: np.ndarray, kappa: np.ndarray, eps_planes, kappa_planes
    ) -> "GrowthFields":
        """The fields over two zeroed arrays this module has just sampled at
        the listed (i, j) planes: no copy, and only those planes are checked."""
        return cls(MatrixField3._adopt(grid, eps, eps_planes), MatrixField3._adopt(grid, kappa, kappa_planes))


def _blank_tensors(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed component-major (nx, ny, 3, 3) arrays for eps_g and kappa_g."""
    shape = (grid.nx, grid.ny, 3, 3)
    return component_major(shape, zeros=True), component_major(shape, zeros=True)


def eval_poly(terms, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    out = np.zeros_like(X1)
    for coef, p, q in terms:
        out = out + coef * X1**p * X2**q
    return out


def eval_growth(spec: GrowthSpec, grid: Grid2D) -> GrowthFields:
    """Sample the polynomial spec exactly at the grid nodes."""
    eps, kappa = _blank_tensors(grid)
    for (i, j), terms in spec.eps_entries.items():
        eps[..., i - 1, j - 1] = eval_poly(terms, grid.X1, grid.X2)
    for (i, j), terms in spec.kappa_entries.items():
        kappa[..., i - 1, j - 1] = eval_poly(terms, grid.X1, grid.X2)
    planes = ([(i - 1, j - 1) for i, j in entries] for entries in (spec.eps_entries, spec.kappa_entries))
    return GrowthFields._sampled(grid, eps, kappa, *planes)


def lambda_g(g: GrowthFields) -> ScalarField:
    """curl^T curl of the tangential minor of eps_g."""
    return ScalarField(g.grid, curl_t_curl_planes(g.grid, *sym_planes(g.eps_g.data)))


def omega_g(g: GrowthFields, nu: float) -> ScalarField:
    """div^T div ((sym kappa_g)_tan + nu cof (sym kappa_g)_tan)."""
    if not 0.0 <= nu < 0.5:
        raise ValueError(f"Poisson ratio must sit in [0, 1/2), got {nu}")
    xx, yy, xy = sym_planes(g.kappa_g.data)
    # cof swaps the diagonal planes and negates xy
    return ScalarField(g.grid, div_t_div_planes(g.grid, xx + nu * yy, yy + nu * xx, xy - nu * xy))


def embed2(tan: np.ndarray) -> np.ndarray:
    """Embed a 2x2 block as the principal minor of a zero-padded 3x3."""
    out = np.zeros(tan.shape[:-2] + (3, 3))
    out[..., :2, :2] = tan
    return out


def effective_growth(g: GrowthFields, v0: ScalarField) -> GrowthFields:
    """Shallow-shell effective growth of the pulled-back metric.

    eps_eff = sym eps_g + 1/2 (grad v0 x grad v0)^*,
    kappa_eff = sym kappa_g - (hess v0)^*.
    """
    g.grid.require_same(v0.grid, "growth and v0")
    p_1, p_2, p_11, p_22, p_12 = v0.planes
    eps_eff = sym_values(g.eps_g.data) + 0.5 * embed2(sym_stack(p_1 * p_1, p_2 * p_2, p_1 * p_2))
    kap_eff = sym_values(g.kappa_g.data) - embed2(sym_stack(p_11, p_22, p_12))
    return GrowthFields.from_arrays(g.grid, eps_eff, kap_eff)


def incompatibility(g: GrowthFields) -> tuple[VectorField2, float]:
    """Row-wise curl of (sym kappa_g)_tan and its L2 norm over the domain.

    The norm vanishes (to stencil accuracy) exactly when the tangential
    bending growth is a hessian.
    """
    grid = g.grid
    xx, yy, xy = sym_planes(g.kappa_g.data)
    c = np.empty((grid.nx, grid.ny, 2))
    c[..., 0] = grid.d1(xy, 0) - grid.d1(xx, 1)
    c[..., 1] = grid.d1(yy, 0) - grid.d1(xy, 1)
    norm = math.sqrt(max(grid.integrate_values(c[..., 0] ** 2 + c[..., 1] ** 2), 0.0))
    return VectorField2(grid, c), norm


# -- trigonometric presets for the periodic test arena ------------------------

def wavenumbers(grid: Grid2D) -> tuple[float, float]:
    """(k1, k2) = 2 pi / (b - a) per axis: one period across the domain."""
    a1, b1, a2, b2 = grid.domain
    return 2.0 * math.pi / (b1 - a1), 2.0 * math.pi / (b2 - a2)


def growth_preset(name: str, grid: Grid2D, amplitude: float = 1.0) -> GrowthFields:
    """Named growth fields used by the CLI and the verification suite.

    zero             no growth
    eps_sine         (eps)_11 = a sin(k1 x1) sin(k2 x2)
    kappa_sine       (kappa)_11 = a sin(k1 x1) sin(k2 x2); incompatible
    kappa_compatible (kappa)_tan = a hess(sin(k1 x1) sin(k2 x2)); curl-free
    omega_sine       (kappa)_tan = -a diag(sin(k1 x1), 0), so that
                     omega_g = a k1^2 sin(k1 x1) independently of nu
    """
    k1, k2 = wavenumbers(grid)
    # one sine per grid line: c * f1[:, None] * f2[None, :] rounds as the
    # 2-D formula c * f1(X1) * f2(X2) does
    t1 = k1 * (grid.x1 - grid.domain[0])
    t2 = k2 * (grid.x2 - grid.domain[2])
    eps, kappa = _blank_tensors(grid)
    a = float(amplitude)

    def outer(out, c, f1, f2):
        np.multiply(c * f1[:, None], f2[None, :], out=out)

    # the (i, j) planes each preset writes into eps and kappa
    if name == "zero":
        written = (), ()
    elif name == "eps_sine":
        outer(eps[..., 0, 0], a, np.sin(t1), np.sin(t2))
        written = ((0, 0),), ()
    elif name == "kappa_sine":
        outer(kappa[..., 0, 0], a, np.sin(t1), np.sin(t2))
        written = (), ((0, 0),)
    elif name == "kappa_compatible":
        s1, c1 = np.sin(t1), np.cos(t1)
        s2, c2 = np.sin(t2), np.cos(t2)
        outer(kappa[..., 0, 0], -a * k1 * k1, s1, s2)
        outer(kappa[..., 0, 1], a * k1 * k2, c1, c2)
        kappa[..., 1, 0] = kappa[..., 0, 1]
        outer(kappa[..., 1, 1], -a * k2 * k2, s1, s2)
        written = (), ((0, 0), (0, 1), (1, 0), (1, 1))
    elif name == "omega_sine":
        kappa[..., 0, 0] = (-a * np.sin(t1))[:, None]
        written = (), ((0, 0),)
    else:
        raise ValueError(f"unknown growth preset {name!r}")
    return GrowthFields._sampled(grid, eps, kappa, *written)


def omega_sine_reference(grid: Grid2D, amplitude: float = 1.0):
    """Exact deflection of the plain bending system driven by omega_sine.

    With lambda_g = 0 the pair (v, Phi) = (-a sin(k1 x1)/k1^2, 0) solves the
    flat prestrained system for any bending stiffness.
    """
    k1, _ = wavenumbers(grid)
    X1 = grid.X1 - grid.domain[0]
    return ScalarField(grid, -(amplitude / (k1 * k1)) * np.sin(k1 * X1))


GROWTH_PRESETS = ("zero", "eps_sine", "kappa_sine", "kappa_compatible", "omega_sine")
