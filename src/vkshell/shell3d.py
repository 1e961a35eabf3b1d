"""The 3d side of the limit statements: shell geometry, growth, energy
quadrature, recovery deformations, and the thickness-scaling study.

Geometry.  The mid-surface is the graph x -> (x, gamma v0(x)) with
gamma = h^alpha; the plate-to-shell chart is phi_tilde(x, x3) =
phi(x) + x3 n(x) with n the unit normal.  All derivatives of the chart
are assembled in closed form from the stencil derivatives of v0 (chain
rule, never by re-differencing normal samples), so |n| = 1 and the
tangent-normal orthogonality hold exactly in floating point.  They do not
depend on h: every shell of a v0 reads the one set v0.planes.

Energy.  The scaled energy (1/h) int W(grad u (q^h)^-1) dz is evaluated
by the change of variables z = phi_tilde(x, x3): in-plane node quadrature
times Gauss-Legendre through the thickness, with the exact Jacobian
det(grad phi_tilde).  W is the St. Venant-Kirchhoff density
W(F) = mu/4 |F^T F - Id|^2 + lambda/8 tr(F^T F - Id)^2: exactly frame
indifferent and isotropic, with D^2 W(Id) inducing the Q3 of the energy
module.  It violates the global quadratic lower bound far from SO(3),
which none of the desk-scale deformations approach; a distance guard
flags any quadrature point beyond 0.3.  Each thickness node forms the
strain e = F^T F - Id once; W and the distance to SO(3) both read it, the
distance through the closed-form eigenvalues of e (singular values of F).
Points with det F < 0, whose distance hinges on the smallest singular value
alone, take it from an SVD of F instead.  Only the guard count and the
largest distance read the distance, so the exact kernel runs only where a
bound cannot settle them: with eps = |e| and det F > 0,
eps / (1 + sqrt(1 + eps)) <= dist <= 1 - sqrt(1 - eps) (for eps < 1), and a
point whose upper bound stays below min(0.3, the largest distance known)
can neither pass the guard nor set the maximum.  The 3x3 determinants, inverses and
products are closed-form elementwise kernels (cofactor expansion, adjugate,
and _matmul3_into's nine sums of three products) on whole (..., 3, 3) stacks, not
batched LAPACK calls or numpy's stacked matmul.  Every point stack the module
forms is component-major (fields.component_major): its shape is still
(..., 3, 3), but each a[..., i, j] is one contiguous plane, so the kernels
stream whole planes.  They accept any layout and give the same bits on each.
The sampled growth tensors are stored the same way, so q^h reads kappa_g and
eps_g in place, plane by plane, with no transposing pass.

Stacks.  energy_3d streams the thickness nodes through two stacks allocated
once per call: f takes grad y at the node, then grad y (grad phi_tilde)^-1,
then F (_matmul3_into writes each product back row by row through four
scratch planes), and the other takes each inverse and then e.  The chart
Jacobian and q^h are the only stacks formed per node, each dropped once
inverted; the other per-call stacks are the GrowthEvaluator's Id + h^2 eps_g
and the Immersion's normal and its gradient.  No stack of every node exists:
build_recovery's Deformation3D, the one deformation type, keeps only a
row's node-independent planes and forms one node's grad y on request
(node_jacobian); its grad_y, the stack of all n_t nodes, is built only when
read (tests, and the benchmark's point count).

Recovery.  One Kirchhoff-Love-plus-warping ansatz covers all regimes:
deformed mid-surface Y(x) (per-regime displacement scaling), exact unit
normal nu of Y, and the normal warping

    y = Y + x3 nu + x3 h^2 d0 + 1/2 x3^2 h d1,
    d0 = l(eps_g) + 2 c(stretching integrand),
    d1 = l(kappa_g) - 2 c(bending integrand),

with l and c from the energy module.  The stretching and bending
integrands S and K are the energy module's integrand planes of the regime's
plate state (I40, I41 or I4INF), the very arguments the 2-D limit functional
integrates; c reads only their traces.  Expanding (grad y)^T grad y against the
pulled-back metric shows the order-h^2 strain is exactly
[S - (x3/h) K]^* + sym((d0 + (x3/h) d1 - l(...)) x e3), which the above
warping relaxes pointwise to Q2; the scaled energies then converge to the
regime-matched two-dimensional functional.

Sweep template.  d0, d1 and their in-plane gradients, the constrained
regime's wtilde and the limit energy E2d do not depend on h.  They form a
RecoveryTemplate, built by one pass of the energy module's integrand formula:
E2d is that pass's quadrature and d0, d1 read its traces.  scaling_study
builds the template once and hands it to each row's build_recovery, so a row is
energy_3d(build_recovery(template, cfg), g, m): the deformation carries its
shell, and the shell its Gauss rule.  A row's deformation keeps only its
node-independent planes (grad Y, grad nu and nu + h^2 d0) and reads d1 and the
gradients of d0 and d1 from the template.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import energy as en
from .fields import (
    Grid2D,
    ScalarField,
    VectorField2,
    component_major as _component_major,
)
from .growth import GrowthFields, GrowthSpecError, effective_growth, incompatibility
from .solver import solve_sym_grad

FLAT = "flat"  # alpha > 1, or v0 identically zero: limit I40
DMV = "dmv"  # alpha = 1 (blooming): limit I41
CONSTRAINED = "constrained"  # 0 < alpha < 1: limit I4INF
REGIMES = (FLAT, DMV, CONSTRAINED)

DIST_SO3_GUARD = 0.3


class RegimeError(ValueError):
    """Shell configuration outside the supported recovery regimes."""


@dataclass(frozen=True)
class ShellConfig:
    """Thin shallow shell (S_gamma)^h around the graph of gamma v0."""

    v0: ScalarField
    alpha: float
    h: float
    n_t: int = 5

    def __post_init__(self):
        if not (math.isfinite(self.h) and math.isfinite(self.alpha)):
            raise ValueError(f"h and alpha must be finite, got h={self.h}, alpha={self.alpha}")
        if self.h <= 0.0:
            raise ValueError("thickness must be positive")
        if self.h**4 == 0.0:  # the scaling study divides by h^4
            raise ValueError(f"thickness {self.h} is too small: h^4 underflows to 0")
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        if self.n_t < 3 or self.n_t % 2 == 0:
            raise ValueError("n_t must be an odd integer >= 3")
        g = self.grid
        a1, b1, a2, b2 = g.domain
        extent = min(b1 - a1, b2 - a2)
        if self.h > 0.2 * extent:
            raise ValueError(f"thickness {self.h} too large for domain extent {extent}")
        slope = max(float(np.max(np.abs(d))) for d in self.v0.planes[:2])
        # boundary value 1 admitted: the unit-slope tilted-plane case sits there
        if self.gamma * slope > 1.0 + 1e-12:
            raise ValueError("shallowness violated: gamma * max|grad v0| must stay below 1")

    @property
    def grid(self) -> Grid2D:
        return self.v0.grid

    @property
    def gamma(self) -> float:
        return float(self.h**self.alpha)

    def gauss_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Thickness nodes/weights on (-h/2, h/2)."""
        t, w = _legendre_rule(self.n_t)
        return 0.5 * self.h * t, 0.5 * self.h * w


@functools.lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on (-1, 1), computed once per n and
    shared read-only: a scaling sweep reads its rule in every row's
    build_recovery and energy_3d."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


class Immersion:
    """Chart phi_tilde and its exact frame, built from stencil derivatives."""

    def __init__(self, cfg: ShellConfig):
        grid = cfg.grid
        self.cfg = cfg
        self.grid = grid
        g = cfg.gamma
        p_1, p_2, p_11, p_22, p_12 = cfg.v0.planes
        nfac = np.sqrt(1.0 + g * g * (p_1**2 + p_2**2))
        nvec = np.empty((grid.nx, grid.ny, 3))
        nvec[..., 0] = -g * p_1 / nfac
        nvec[..., 1] = -g * p_2 / nfac
        nvec[..., 2] = 1.0 / nfac
        self._normal = nvec
        # dn[..., :, j] = d_j n by the chain rule on n = (-g grad v0, 1)/N
        dn = _component_major((grid.nx, grid.ny, 3, 2))
        for j, (h_0j, h_1j) in enumerate(((p_11, p_12), (p_12, p_22))):  # the columns of hess v0
            dnfac = g * g * (p_1 * h_0j + p_2 * h_1j) / nfac
            dn[..., 0, j] = (-g * h_0j - nvec[..., 0] * dnfac) / nfac
            dn[..., 1, j] = (-g * h_1j - nvec[..., 1] * dnfac) / nfac
            dn[..., 2, j] = -nvec[..., 2] * dnfac / nfac
        self._dn = dn
        self._gamma = g

    def phi_tilde(self, x3: float) -> np.ndarray:
        """Chart points (nx, ny, 3) at thickness offset x3."""
        grid = self.grid
        pts = np.empty((grid.nx, grid.ny, 3))
        pts[..., 0] = grid.X1
        pts[..., 1] = grid.X2
        pts[..., 2] = self._gamma * self.cfg.v0.data
        return pts + x3 * self._normal

    def grad_phi_tilde(self, x3: float) -> np.ndarray:
        """Exact chart Jacobian (nx, ny, 3, 3): columns d1, d2, normal."""
        out = _component_major(self._dn.shape[:2] + (3, 3))
        np.multiply(x3, self._dn, out=out[..., :2])
        out[..., :2, :2] += np.eye(2)
        for j in range(2):  # d_j phi = (e_j, g d_j v0): only the third row varies in x
            out[..., 2, j] += self._gamma * self.cfg.v0.planes[j]
        out[..., 2] = self._normal
        return out


class GrowthEvaluator:
    """q^h(x, x3) = Id + h^2 eps_g(x) + h x3 kappa_g(x), exact in x3.

    Each thickness node multiplies kappa_g into a fresh component-major q^h.
    A sampled kappa_g has that layout, so the product reads it in place,
    plane by plane, with no transposing pass.
    """

    def __init__(self, g: GrowthFields, cfg: ShellConfig):
        cfg.grid.require_same(g.grid, "growth and shell")
        self.g = g
        self.cfg = cfg
        # Id + h^2 eps_g, the part of q^h shared by every thickness node
        self._base = _component_major(g.eps_g.data.shape)
        np.multiply(cfg.h * cfg.h, g.eps_g.data, out=self._base)
        self._base += np.eye(3)

    def _assemble(self, x3: float) -> np.ndarray:
        if abs(x3) > 0.5 * self.cfg.h * (1.0 + 1e-12):
            raise ValueError(f"x3 = {x3} outside the shell of thickness {self.cfg.h}")
        # h x3 kappa_g + (Id + h^2 eps_g): exact addition commutes, so these are
        # the bits of (Id + h^2 eps_g) + h x3 kappa_g
        q = np.multiply(self.cfg.h * x3, self.g.kappa_g.data, out=_component_major(self._base.shape))
        q += self._base
        return q

    @staticmethod
    def _require_invertible(dets: np.ndarray):
        if np.any(dets <= 0.0):
            raise GrowthSpecError("growth tensor q^h is not invertible at some node")

    def at(self, x3: float) -> np.ndarray:
        q = self._assemble(x3)
        self._require_invertible(_det3(q))
        return q

    def inverse_at(self, x3: float, out: np.ndarray | None = None) -> np.ndarray:
        """(q^h)^-1 at x3, written into out (a (nx, ny, 3, 3) stack) when
        given, else into a fresh component-major one."""
        with np.errstate(divide="ignore", invalid="ignore"):  # a singular q^h raises below
            inv, dets = _inv3(self._assemble(x3), out)
        self._require_invertible(dets)
        return inv


# -- closed-form kernels on (..., 3, 3) stacks ---------------------------------------

def _cofactor(a: np.ndarray, i: int, j: int, out: np.ndarray | None = None) -> np.ndarray:
    """Signed cofactor (i, j), written into out when given; the cyclic index
    form carries the sign."""
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    c = np.multiply(a[..., i1, j1], a[..., i2, j2], out=out)
    c -= a[..., i1, j2] * a[..., i2, j1]
    return c


def _det3(a: np.ndarray) -> np.ndarray:
    """Determinant by cofactor expansion along the first row."""
    return sum(a[..., 0, j] * _cofactor(a, 0, j) for j in range(3))


def _inv3(a: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Inverse (adjugate over determinant), written into out when given, and
    the determinant itself."""
    adj = _component_major(a.shape) if out is None else out
    for i in range(3):
        for j in range(3):
            _cofactor(a, i, j, adj[..., j, i])
    det = sum(a[..., 0, j] * adj[..., j, 0] for j in range(3))
    adj /= det[..., None, None]
    return adj, det


def _matmul3_into(a: np.ndarray, b: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """a <- a b in place, each entry a sum of three plane products.

    numpy's stacked matmul steps through one 3x3 at a time; this writes whole
    planes.  Each product is rounded before the sums (no fused multiply-add).

    work is a scratch of four planes, shape (4,) + a.shape[:-2], allocated when
    not given.  Each row of the product is formed in the first three, with
    its products in the fourth, and then copied over the row of a it was
    formed from, so no second stack is allocated.
    """
    if work is None:
        work = np.empty((4,) + a.shape[:-2])
    row, tmp = np.moveaxis(work[:3], 0, -1), work[3]
    for i in range(3):
        for j in range(3):
            o = work[j]
            np.multiply(a[..., i, 0], b[..., 0, j], out=o)
            o += np.multiply(a[..., i, 1], b[..., 1, j], out=tmp)
            o += np.multiply(a[..., i, 2], b[..., 2, j], out=tmp)
        a[..., i, :] = row
    return a


def _strain(F: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e = F^T F - Id, symmetric by construction, written into out when given."""
    e = _component_major(F.shape) if out is None else out
    for i in range(3):
        for j in range(i, 3):
            e[..., i, j] = e[..., j, i] = sum(F[..., k, i] * F[..., k, j] for k in range(3))
        e[..., i, i] -= 1.0
    return e


def _strain_norm_sq(e: np.ndarray) -> np.ndarray:
    """|e|^2, summed in the pairing np.sum takes over nine contiguous values:
    ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)) + s8 for the squares s
    in row-major order.

    Written out so that every memory layout of e gives the same bits, and
    formed progressively, so that at most four planes are live at once.
    """

    def sq(n):
        i, j = divmod(n, 3)
        return e[..., i, j] * e[..., i, j]

    def quad(n):  # (s_n + s_n+1) + (s_n+2 + s_n+3)
        total = sq(n)
        total += sq(n + 1)
        pair = sq(n + 2)
        pair += sq(n + 3)
        total += pair
        return total

    total = quad(0)
    total += quad(4)
    total += sq(8)
    return total


def _density_from_strain(e: np.ndarray, m: en.Material, norm_sq: np.ndarray | None = None) -> np.ndarray:
    """St. Venant-Kirchhoff density mu/4 |e|^2 + lambda/8 (tr e)^2.

    norm_sq is _strain_norm_sq(e), computed here when not given.
    """
    if norm_sq is None:
        norm_sq = _strain_norm_sq(e)
    tr = e[..., 0, 0] + e[..., 1, 1] + e[..., 2, 2]
    return 0.25 * m.mu * norm_sq + 0.125 * m.lam * tr * tr


def _sym_eigvals3(e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues l1 >= l2 >= l3 of a symmetric stack (trigonometric form).

    With q = tr e / 3 and p the scaled Frobenius norm of e - q Id, the
    eigenvalues are q + 2 p cos(phi + 2 pi k / 3) with
    phi = acos(det((e - q Id) / p) / 2) / 3.  The rule is scale invariant, so
    small strains keep their relative accuracy.  Near a double eigenvalue
    acos loses half the digits of the split pair, but their symmetric
    functions (and so the distance to SO(3) for det F > 0) keep full accuracy.
    The distance for det F < 0 needs the smallest one alone; see
    _dist_from_strain.
    """
    q = (e[..., 0, 0] + e[..., 1, 1] + e[..., 2, 2]) / 3.0
    b0, b1, b2 = e[..., 0, 0] - q, e[..., 1, 1] - q, e[..., 2, 2] - q
    e01, e02, e12 = e[..., 0, 1], e[..., 0, 2], e[..., 1, 2]
    p = np.sqrt((b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * (e01 * e01 + e02 * e02 + e12 * e12)) / 6.0)
    det_b = b0 * (b1 * b2 - e12 * e12) - e01 * (e01 * b2 - e12 * e02) + e02 * (e01 * e12 - b1 * e02)
    # p = 0 means e = q Id: any phi gives the triple eigenvalue q
    r = det_b / (2.0 * np.where(p > 0.0, p, 1.0) ** 3)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    l1 = q + 2.0 * p * np.cos(phi)
    l3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    return l1, 3.0 * q - l1 - l3, l3


def _dist_from_strain(e: np.ndarray, F: np.ndarray, det_f: np.ndarray) -> np.ndarray:
    """Frobenius distance of F to SO(3), given e = F^T F - Id and det F.

    The singular values are sigma = sqrt(1 + l) for the eigenvalues l of e;
    sigma - 1 = l / (1 + sqrt(1 + l)) avoids the cancellation.  The nearest
    rotation of an orientation-reversing F flips the smallest sigma, so that
    distance depends on sigma_3 by itself, which the trigonometric rule
    splits from a nearby sigma_2 with only half the digits: the points with
    det F < 0 take their singular values from an SVD of F.
    """
    s1, s2, s3 = (l / (1.0 + np.sqrt(np.maximum(1.0 + l, 0.0))) for l in _sym_eigvals3(e))
    d = np.sqrt(s1 * s1 + s2 * s2 + s3 * s3)
    flip = det_f < 0.0
    if np.any(flip):
        sv = np.linalg.svd(F[flip], compute_uv=False)
        sv[:, 2] *= -1.0
        d = np.array(d)  # writable, also for a single matrix
        d[flip] = np.sqrt(np.sum((sv - 1.0) ** 2, axis=-1))
        d = d[()]  # a single matrix gets a scalar back, as on the other path
    return d


# relative margin of the distance screen: far above the rounding of the bounds
# and of _dist_from_strain (a few ulps), far below anything that moves its cost
_SCREEN_SLACK = 1e-9


def _needs_exact_dist(norm_sq: np.ndarray, det_f: np.ndarray, known: float) -> np.ndarray:
    """Mask of the points whose exact distance to SO(3) the diagnostics need.

    known is a distance some point already reaches.  Where det F > 0, each
    eigenvalue l of e has |l| <= eps = |e|, and sigma - 1 = l / (1 + sigma)
    puts the distance between eps / (1 + sqrt(1 + eps)) and, for eps < 1,
    eps / (1 + sqrt(1 - eps)) = 1 - sqrt(1 - eps).  The upper bound is below
    t <= 1 exactly when eps < t (2 - t).  With t = min(guard, the largest
    distance known or bounded from below), a point under it can neither pass
    the guard nor set the maximum; every other point, and every point with
    det F <= 0 or a NaN strain, needs the exact distance.
    """
    turned = det_f > 0.0
    eps_max = math.sqrt(float(np.max(norm_sq, where=turned, initial=0.0)))
    lower = eps_max / (1.0 + math.sqrt(1.0 + eps_max)) * (1.0 - _SCREEN_SLACK)
    t = min(DIST_SO3_GUARD, max(known, lower))
    return ~(turned & (norm_sq < (t * (2.0 - t)) ** 2 * (1.0 - _SCREEN_SLACK)))


def density_W(F: np.ndarray, m: en.Material) -> np.ndarray | float:
    """St. Venant-Kirchhoff density; zero exactly on SO(3)."""
    out = _density_from_strain(_strain(np.asarray(F, dtype=float)), m)
    return float(out) if out.ndim == 0 else out


def dist_so3(F: np.ndarray) -> np.ndarray:
    """Frobenius distance to SO(3) (orientation kept: a reflection is 2 away)."""
    F = np.asarray(F, dtype=float)
    return _dist_from_strain(_strain(F), F, _det3(F))


def _same_field(a: ScalarField, b: ScalarField) -> bool:
    """The same field object, or equal grids and values."""
    return a is b or (a.grid == b.grid and np.array_equal(a.data, b.data))


def energy_3d(u: Deformation3D, g: GrowthFields, m: en.Material) -> tuple[float, dict]:
    """Thickness-averaged prestrained energy (1/h) int W(grad u (q^h)^-1) over
    the shell u.cfg, and its diagnostics.

    Quadrature: node weights in plane, Gauss through the thickness, exact
    volume Jacobian det(grad phi_tilde).  Each node's weighted point values
    are summed pairwise (np.sum) and the node sums by math.fsum; every value
    is >= 0, so the total is accurate to about 1e-15 relative.
    The distance diagnostics run the exact kernel only where
    _needs_exact_dist cannot settle them.  The thickness nodes stream: each
    one asks u for its Jacobian into a single buffer (u.node_jacobian), and
    both products (with (grad phi_tilde)^-1, then with (q^h)^-1) go back into
    it, so no stack of every node exists and u.grad_y is never read.
    """
    cfg = u.cfg
    imm = Immersion(cfg)
    qh = GrowthEvaluator(g, cfg)
    qw = cfg.grid.quad_weights
    # one node at a time: grad y, then grad y (grad phi_tilde)^-1, then F, all
    # in f; each inverse, then e, in b; the products' rows pass through work
    f, b = (_component_major((cfg.grid.nx, cfg.grid.ny, 3, 3)) for _ in range(2))
    work = np.empty((4, cfg.grid.nx, cfg.grid.ny))
    node_sums = []
    min_det = math.inf
    max_dist = 0.0
    flagged = 0
    for k, (x3, gw) in enumerate(zip(*cfg.gauss_rule())):
        u.node_jacobian(k, f)
        # the chart Jacobian and q^h are the only stacks formed per node, each
        # dropped once inverted
        _, jac = _inv3(imm.grad_phi_tilde(x3), b)
        _matmul3_into(f, b, work)
        det_u = _det3(f)
        min_det = min(min_det, float(det_u.min()))
        _matmul3_into(f, qh.inverse_at(x3, b), work)
        e = _strain(f, b)
        norm_sq = _strain_norm_sq(e)
        # det q^h > 0 (checked by inverse_at), so det f has the sign of det_u
        exact = _needs_exact_dist(norm_sq, det_u, max_dist)
        d = _dist_from_strain(e[exact], f[exact], det_u[exact])
        if d.size:
            max_dist = max(max_dist, float(d.max()))
        flagged += int(np.count_nonzero(d > DIST_SO3_GUARD))
        wvals = _density_from_strain(e, m, norm_sq)
        node_sums.append(float(np.sum((gw / cfg.h) * qw * wvals * jac)))
    total = math.fsum(node_sums)
    diag = {"min_det_grad_u": min_det, "max_dist_so3": max_dist, "points_beyond_guard": flagged}
    if min_det <= 0.0:
        warnings.warn("deformation gradient loses orientation at a quadrature point")
        diag["orientation_lost"] = True
    if flagged:
        warnings.warn(
            f"{flagged} quadrature points farther than {DIST_SO3_GUARD} from SO(3); "
            "the quadratic lower bound of the density is only local"
        )
    return total, diag


# -- recovery deformations -------------------------------------------------------

def resolve_regime(v0: ScalarField, alpha: float) -> str:
    """Regime selection: flat for alpha > 1 or v0 = 0, blooming at alpha = 1,
    constrained for 0 < alpha < 1.  It does not depend on h."""
    if float(np.max(np.abs(v0.data))) == 0.0 or alpha > 1.0:
        return FLAT
    if alpha == 1.0:
        return DMV
    if alpha > 0.0:
        return CONSTRAINED
    raise RegimeError(f"alpha = {alpha} with curved v0 is out of scope (alpha = 0 is the general-shell theory)")


def limit_functional_name(regime: str) -> str:
    return {FLAT: en.I40, DMV: en.I41, CONSTRAINED: en.I4INF}[regime]


def _grad3(grid: Grid2D, comps: np.ndarray) -> np.ndarray:
    """In-plane Jacobian (nx, ny, 3, 2) of a 3-component field (nx, ny, 3)."""
    out = _component_major(comps.shape[:2] + (3, 2))
    for c in range(3):
        for j in range(2):
            out[..., c, j] = grid.d1(comps[..., c], j)
    return out


class RecoveryTemplate:
    """The thickness-independent part of a recovery, built once per sweep.

    Holds the regime, the plate state (vtilde comes with the constrained
    regime and only there, as the limit functional's argument check demands),
    the constrained regime's compensator wtilde, the least-squares solve of
    sym grad_h wtilde = -sym(grad v x grad v0) by solver.solve_sym_grad, and
    the warping vectors d0 = l(eps_g) + 2 c_s and d1 = l(kappa_g) - 2 c_k
    (c_s, c_k the Q2 completions of the regime's integrands S and K, from
    their traces by energy.completion) with their in-plane gradients, and
    e2d, the limit functional at the state (penalty 0), from the same
    integrand pass.  scaling_study builds one before its rows and hands it to
    each row's build_recovery.
    """

    def __init__(self, state: en.PlateState, g: GrowthFields, v0: ScalarField, regime: str, m: en.Material):
        grid = v0.grid
        grid.require_same(state.grid, "state and shell")
        self.v0, self.regime, self.state, self.wtilde = v0, regime, state, None
        en._check(limit_functional_name(regime), state.vtilde is not None, grid, g, v0, 0.0)  # a misfit costs no solve
        if regime == CONSTRAINED:
            # sym grad wtilde = -sym(grad v x grad v0), solved before the
            # integrand pass: the solve's workspace dies before the pass's planes
            (v_1, v_2), (p_1, p_2) = state.v.planes[:2], v0.planes[:2]
            self.wtilde = VectorField2(grid, solve_sym_grad(
                grid, -(v_1 * p_1), -(v_2 * p_2), -(0.5 * (v_1 * p_2 + v_2 * p_1))))
        # the one integrand pass, the limit functional's value path: E2d is its
        # energy (penalty 0), and c(S) and c(K) read only the traces of S and K
        self.e2d, _, (tr_s, tr_k) = en._energy(limit_functional_name(regime), state, g, m, v0, 0.0)
        self.d0 = en.warping_l(g.eps_g.data)
        self.d0[..., 2] += 2.0 * en.completion(tr_s, m)
        self.d1 = en.warping_l(g.kappa_g.data)
        self.d1[..., 2] -= 2.0 * en.completion(tr_k, m)
        self.dd0 = _grad3(grid, self.d0)
        self.dd1 = _grad3(grid, self.d1)


def build_recovery(template: RecoveryTemplate, cfg: ShellConfig) -> Deformation3D:
    """Recovery deformation of the shell cfg from a template built for its v0
    and regime.

    Displacement ladder on the deformed mid-surface Y (gamma = h^alpha):

      flat (alpha > 1 or v0 = 0):  Y = (x + h^2 w, gamma v0 + h v)
      blooming (alpha = 1):        Y = (x + h^2 w, h v)   [rest state v = v0]
      constrained (0 < alpha < 1): Y = (x + h^(1+alpha) wtilde + h^2 w,
                                        gamma v0 + h v + h^(2-alpha) vtilde)

    with the exact unit normal of Y as the fiber direction and the limit
    warping d0 = l(eps_g) + 2 c(S), d1 = l(kappa_g) - 2 c(K) built from the
    regime's stretching/bending integrands.  The state (w, v and vtilde) is
    the template's, and so is the constrained regime's in-plane compensator
    wtilde, solved on the grid's own stencils (sym grad_h wtilde =
    -sym(grad v x grad v0), exactly solvable when the linearized isometry
    constraint holds).  The template holds everything that does not depend
    on h.

    No stack of grad y is formed here: the deformation returned keeps the
    node-independent planes grad Y, grad nu and nu + h^2 d0 (15 planes, 5/3
    of one point stack) and writes node k's grad y into the buffer energy_3d
    hands it.
    """
    grid = cfg.grid
    regime = resolve_regime(cfg.v0, cfg.alpha)
    if template.regime != regime or not _same_field(template.v0, cfg.v0):
        raise ValueError("recovery template was built for another v0 or regime")
    h = cfg.h
    gamma = cfg.gamma

    st = template.state
    disp12 = h * h * st.w.data
    if regime == FLAT:
        y3 = gamma * cfg.v0.data + h * st.v.data
    elif regime == DMV:
        y3 = h * st.v.data
    else:
        y3 = gamma * cfg.v0.data + h * st.v.data + h ** (2.0 - cfg.alpha) * st.vtilde.data
        disp12 = disp12 + h ** (1.0 + cfg.alpha) * template.wtilde.data

    # Jacobian of Y: differentiate the displacement, not the raw coordinates
    dy = _component_major((grid.nx, grid.ny, 3, 2))
    dy[...] = 0.0
    dy[..., 0, 0] = 1.0
    dy[..., 1, 1] = 1.0
    for j in range(2):
        dy[..., 0, j] += grid.d1(disp12[..., 0], j)
        dy[..., 1, j] += grid.d1(disp12[..., 1], j)
        dy[..., 2, j] = grid.d1(y3, j)

    # nu = d1 Y x d2 Y / |d1 Y x d2 Y|, plane by plane in the rounding order of
    # np.cross (a1 b2 - a2 b1) and np.linalg.norm ((x^2 + y^2) + z^2)
    nu = np.moveaxis(np.empty((3, grid.nx, grid.ny)), 0, -1)
    for c in range(3):
        c1, c2 = (c + 1) % 3, (c + 2) % 3
        np.multiply(dy[..., c1, 0], dy[..., c2, 1], out=nu[..., c])
        nu[..., c] -= dy[..., c2, 0] * dy[..., c1, 1]
    nu /= np.sqrt((nu[..., 0] * nu[..., 0] + nu[..., 1] * nu[..., 1]) + nu[..., 2] * nu[..., 2])[..., None]
    dnu = _grad3(grid, nu)
    nu += h * h * template.d0  # the normal column nu + h^2 d0, in nu's planes
    return Deformation3D(cfg, template, dy, dnu, nu)


class Deformation3D:
    """build_recovery's deformation of the shell cfg: grad y at the (node,
    Gauss) pairs in closed form (stencils in-plane, exact in x3), never by
    differencing across the thin direction.

    It keeps the row's node-independent planes dy = grad Y, dnu = grad nu and
    normal_col = nu + h^2 d0, and reads d1, grad d0 and grad d1 from the
    template.  node_jacobian(k, out) forms node k of cfg.gauss_rule() into
    out, a component-major (nx, ny, 3, 3) buffer of the caller's; energy_3d
    reads the deformation through it alone.  grad_y, the stack of every
    node, is built component-major each time it is read.
    """

    def __init__(self, cfg: ShellConfig, template: RecoveryTemplate, dy, dnu, normal_col):
        self.cfg = cfg
        self._template = template
        self._dy, self._dnu, self._normal_col = dy, dnu, normal_col

    def node_jacobian(self, k: int, out: np.ndarray) -> np.ndarray:
        """grad y at the k-th thickness node, written into out and returned."""
        # the tangent columns are written in place, one at a time, with the
        # normal column (written last) as scratch: exact addition commutes, so
        # t dnu + dy + ... has the bits of dy + t dnu + t h^2 dd0 + t^2 h / 2 dd1
        h = self.cfg.h
        t = self.cfg.gauss_rule()[0][k]
        tp = self._template
        term = out[..., 2]
        for j in range(2):
            tangent = out[..., j]
            np.multiply(t, self._dnu[..., j], out=tangent)
            tangent += self._dy[..., j]
            tangent += np.multiply(t * h * h, tp.dd0[..., j], out=term)
            tangent += np.multiply(0.5 * t * t * h, tp.dd1[..., j], out=term)
        np.multiply(t * h, tp.d1, out=term)
        term += self._normal_col
        return out

    @property
    def grad_y(self) -> np.ndarray:
        """(n_t, nx, ny, 3, 3), component-major: every node, freshly built."""
        cfg = self.cfg
        grad = _component_major((cfg.n_t, cfg.grid.nx, cfg.grid.ny, 3, 3))
        for k in range(cfg.n_t):
            self.node_jacobian(k, grad[k])
        return grad


# -- metric pullback consistency ---------------------------------------------------

def metric_residual(g: GrowthFields, v0: ScalarField, h: float) -> float:
    """Max-norm defect of the pulled-back metric expansion at gamma = h.

    The metric g^h = (q^h grad phi_tilde)^T (q^h grad phi_tilde) is formed
    minus Id, as the strain of q^h grad phi_tilde, and compared with
    h^2 (2 sym eps_g + (grad v0 x grad v0)^*) + 2 h x3 (sym kappa_g - (hess v0)^*),
    i.e. 2 h^2 eps_eff + 2 h x3 kappa_eff of growth.effective_growth; the
    defect is O(h^3) with a grid-independent constant because both sides share
    one set of discrete derivatives.  The defect is sampled at
    x3 = -h/2, 0, h/2; the shell's Gauss rule is not used.
    """
    cfg = ShellConfig(v0, alpha=1.0, h=h)
    imm = Immersion(cfg)
    qh = GrowthEvaluator(g, cfg)
    eff = effective_growth(g, v0)
    worst = 0.0
    for x3 in (-0.5 * h, 0.0, 0.5 * h):
        assembled = _strain(_matmul3_into(qh.at(x3), imm.grad_phi_tilde(x3)))
        predicted = h * h * (2.0 * eff.eps_g.data) + 2.0 * h * x3 * eff.kappa_g.data
        worst = max(worst, float(np.max(np.abs(assembled - predicted))))
    return worst


# -- scaling study -----------------------------------------------------------------

# the scaling table's columns, in order: (column name, ScalingRow field)
SCALING_COLUMNS = (
    ("h", "h"),
    ("gamma", "gamma"),
    ("E3d", "e3d"),
    ("E3d_over_h4", "e3d_over_h4"),
    ("E2d_limit", "e2d_limit"),
    ("ratio", "ratio"),
)


@dataclass(frozen=True)
class ScalingRow:
    h: float
    gamma: float
    e3d: float
    e3d_over_h4: float
    e2d_limit: float
    ratio: float

    def columns(self) -> dict:
        """The row as {column name: value}, in SCALING_COLUMNS order."""
        return {name: getattr(self, attr) for name, attr in SCALING_COLUMNS}


@dataclass(frozen=True)
class ScalingStudy:
    rows: tuple
    regime: str
    incompatibility_norm: float

    def csv_lines(self) -> list[str]:
        lines = [",".join(name for name, _ in SCALING_COLUMNS)]
        for r in self.rows:
            lines.append(",".join(f"{x:.17g}" for x in r.columns().values()))
        return lines

    def metadata(self) -> dict:
        return {
            "regime": self.regime,
            "limit_functional": limit_functional_name(self.regime),
            "incompatibility_norm": self.incompatibility_norm,
        }


def scaling_study(
    alpha: float,
    h_list,
    g: GrowthFields,
    v0: ScalarField,
    state: en.PlateState,
    m: en.Material,
    n_t: int = 5,
    workers: int = 1,
) -> ScalingStudy:
    """Recovery-sequence energy sweep h -> h^-4 I^3d against the 2d limit.

    Rows are ordered by the given (decreasing) h list; every row's shell is
    built, and so checked, before the first row runs.  The template, built
    once per sweep from the state, supplies E2d, the regime-matched limit
    functional, and in the constrained regime the compensator wtilde; the
    incompatibility norm of the growth rides along as metadata.  With
    workers > 1 the rows are computed on that many threads, each row whole
    on one thread, so the table is bitwise the serial one.
    """
    h_list = [float(h) for h in h_list]
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError(f"h_list must be strictly decreasing, got {h_list}")
    shells = [ShellConfig(v0, alpha=alpha, h=h, n_t=n_t) for h in h_list]
    _, inorm = incompatibility(g)
    regime = resolve_regime(v0, alpha)
    template = RecoveryTemplate(state, g, v0, regime, m)

    def row(cfg: ShellConfig) -> ScalingRow:
        e3, _ = energy_3d(build_recovery(template, cfg), g, m)
        scaled = e3 / cfg.h**4
        ratio = scaled / template.e2d if template.e2d != 0.0 else math.nan
        return ScalingRow(cfg.h, cfg.gamma, e3, scaled, template.e2d, ratio)

    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(row, shells))
    else:
        rows = tuple(map(row, shells))
    return ScalingStudy(rows, regime, inorm)
