"""Uniform rectangular grids and the finite-difference calculus on them.

Everything downstream (growth tensors, plate energies, the von Karman
solver, the 3d shell quadrature) consumes the containers and operators
defined here.  The design is deliberately plain:

* tensor-product grid on a rectangle, either periodic (stencils wrap) or
  "dirichlet-ghost" (one ghost layer filled by cubic extrapolation of the
  interior, which collapses to the usual one-sided second-order rows for
  first AND second derivatives; quadratic extrapolation would drop the
  boundary rows of second derivatives to first order),
* centered second-order stencils for first and second derivatives, with
  the mixed derivative as the 4-point centered cross,
* the bilaplacian is the laplacian applied twice, never a separate stencil,
* matrix forms (the linearized-isometry bracket, the plate derivative
  operator) are Kronecker products of the same 1d stencil matrices,
* node quadrature matched to the boundary mode (rectangle rule when
  periodic, trapezoid otherwise).

All field data is immutable after construction; operators allocate fresh
outputs, so fields can be shared freely across threads.  The public
constructors copy their input.  A scalar field keeps its derivative planes
(ScalarField.planes) from their first read, as Grid2D keeps its operators.
Stacks of small matrices may be stored component-major (component_major):
the logical shape stays (..., m, n), but each a[..., i, j] is one contiguous
plane, so readers that take planes stream memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

PERIODIC = "periodic"
DIRICHLET = "dirichlet-ghost"
_BC_MODES = (PERIODIC, DIRICHLET)

SYM_TOL = 1e-12
# eigenvalues of D^T W D at most this fraction of the largest span its kernel
_KERNEL_RTOL = 1e-10


class SizingError(ValueError):
    """Grid too small for the stencils (or otherwise mis-sized)."""


class GridMismatchError(ValueError):
    """Operands that must share a grid do not."""


def _d1_matrix(n: int, h: float, bc: str) -> sp.csr_matrix:
    """1d centered first derivative; one-sided 2nd-order rows in ghost mode."""
    rows, cols, vals = [], [], []
    c = 1.0 / (2.0 * h)
    for i in range(1, n - 1):
        rows += [i, i]
        cols += [i - 1, i + 1]
        vals += [-c, c]
    if bc == PERIODIC:
        rows += [0, 0, n - 1, n - 1]
        cols += [n - 1, 1, n - 2, 0]
        vals += [-c, c, -c, c]
    else:
        # ghost g = 4 f0 - 6 f1 + 4 f2 - f3  =>  (f1 - g)/(2h)
        rows += [0, 0, 0, 0]
        cols += [0, 1, 2, 3]
        vals += [-4.0 * c, 7.0 * c, -4.0 * c, c]
        rows += [n - 1, n - 1, n - 1, n - 1]
        cols += [n - 1, n - 2, n - 3, n - 4]
        vals += [4.0 * c, -7.0 * c, 4.0 * c, -c]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _d2_matrix(n: int, h: float, bc: str) -> sp.csr_matrix:
    """1d centered second derivative; quadratic-ghost rows at the ends."""
    rows, cols, vals = [], [], []
    c = 1.0 / (h * h)
    for i in range(1, n - 1):
        rows += [i, i, i]
        cols += [i - 1, i, i + 1]
        vals += [c, -2.0 * c, c]
    if bc == PERIODIC:
        rows += [0, 0, 0, n - 1, n - 1, n - 1]
        cols += [n - 1, 0, 1, n - 2, n - 1, 0]
        vals += [c, -2.0 * c, c, c, -2.0 * c, c]
    else:
        # ghost g = 4 f0 - 6 f1 + 4 f2 - f3  =>  (g - 2 f0 + f1)/h^2
        rows += [0, 0, 0, 0]
        cols += [0, 1, 2, 3]
        vals += [2.0 * c, -5.0 * c, 4.0 * c, -c]
        rows += [n - 1, n - 1, n - 1, n - 1]
        cols += [n - 1, n - 2, n - 3, n - 4]
        vals += [2.0 * c, -5.0 * c, 4.0 * c, -c]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


class Grid2D:
    """Uniform tensor-product sampling of a rectangle [a1,b1] x [a2,b2].

    In periodic mode the right/top edges are identified with the left/bottom
    ones, so the step is (b-a)/n and the last sample sits one step short of
    b.  In dirichlet-ghost mode the samples include both endpoints.
    """

    def __init__(self, nx: int, ny: int, domain=(0.0, 1.0, 0.0, 1.0), bc: str = DIRICHLET):
        if bc not in _BC_MODES:
            raise ValueError(f"unknown boundary mode {bc!r}; expected one of {_BC_MODES}")
        if nx < 8 or ny < 8:
            raise SizingError(f"grid must be at least 8x8, got {nx}x{ny}")
        a1, b1, a2, b2 = map(float, domain)
        cells = (nx, ny) if bc == PERIODIC else (nx - 1, ny - 1)
        self.dx, self.dy = (b1 - a1) / cells[0], (b2 - a2) / cells[1]
        # steps finite and > 0 (an infinite end gives inf or nan), and 1/dx^2, 1/dy^2 finite
        if not all(0.0 < d < np.inf and 1.0 / max(d * d, 5e-324) < np.inf for d in (self.dx, self.dy)):
            raise ValueError(f"degenerate domain {domain}: steps {self.dx}, {self.dy}")
        self.nx, self.ny = int(nx), int(ny)
        self.domain = (a1, b1, a2, b2)
        self.bc = bc
        if bc == PERIODIC:
            self.x1 = a1 + self.dx * np.arange(nx)
            self.x2 = a2 + self.dy * np.arange(ny)
        else:
            self.x1 = np.linspace(a1, b1, nx)
            self.x2 = np.linspace(a2, b2, ny)
        self.X1, self.X2 = np.meshgrid(self.x1, self.x2, indexing="ij")
        self.X1.setflags(write=False)
        self.X2.setflags(write=False)
        self._mats: dict[tuple, sp.csr_matrix] = {}
        self._eigs: dict[tuple, tuple] = {}
        self._plate_ops: dict[bool, tuple] = {}
        self._quad: np.ndarray | None = None

    # -- identity ---------------------------------------------------------

    def _key(self):
        return (self.nx, self.ny, self.domain, self.bc)

    def __eq__(self, other):
        return isinstance(other, Grid2D) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Grid2D({self.nx}x{self.ny}, {self.domain}, {self.bc})"

    @property
    def periodic(self) -> bool:
        return self.bc == PERIODIC

    @property
    def area(self) -> float:
        a1, b1, a2, b2 = self.domain
        return (b1 - a1) * (b2 - a2)

    def require_same(self, other: "Grid2D", what: str = "operands"):
        if self != other:
            raise GridMismatchError(f"{what} live on different grids: {self} vs {other}")

    # -- stencil machinery --------------------------------------------------

    def _mat(self, axis: int, order: int, adjoint: bool = False) -> sp.csr_matrix:
        key = (axis, order, adjoint)
        m = self._mats.get(key)
        if m is None:
            n = self.nx if axis == 0 else self.ny
            h = self.dx if axis == 0 else self.dy
            m = _d1_matrix(n, h, self.bc) if order == 1 else _d2_matrix(n, h, self.bc)
            if adjoint:
                m = m.T.tocsr()
            self._mats[key] = m
        return m

    def _apply(self, m: sp.csr_matrix, a: np.ndarray, axis: int) -> np.ndarray:
        if axis == 0:
            return m @ a
        return (m @ a.T).T

    def d1(self, a: np.ndarray, axis: int) -> np.ndarray:
        return self._apply(self._mat(axis, 1), a, axis)

    def d2(self, a: np.ndarray, axis: int) -> np.ndarray:
        return self._apply(self._mat(axis, 2), a, axis)

    def dcross(self, a: np.ndarray) -> np.ndarray:
        """Mixed second derivative: the 4-point centered cross d1x(d1y(.))."""
        return self.d1(self.d1(a, 1), 0)

    def lap(self, a: np.ndarray) -> np.ndarray:
        return self.d2(a, 0) + self.d2(a, 1)

    def bilap(self, a: np.ndarray) -> np.ndarray:
        return self.lap(self.lap(a))

    # exact transposes of the per-axis stencils

    def d1_t(self, a: np.ndarray, axis: int) -> np.ndarray:
        return self._apply(self._mat(axis, 1, adjoint=True), a, axis)

    def d2_t(self, a: np.ndarray, axis: int) -> np.ndarray:
        return self._apply(self._mat(axis, 2, adjoint=True), a, axis)

    def plate_operator(self, vtilde: bool) -> tuple[sp.csr_matrix, ...]:
        """(L, L^T, Dx, Dx^T) for the plate states of this grid, all CSR.

        L is plate_derivative_matrix(self, vtilde) and Dx = D1x (x) I the
        axis-0 first-derivative block, which forms d12 v from the d2 v plane
        as dcross does.  Built on first use, cached per grid instance.
        """
        ops = self._plate_ops.get(vtilde)
        if ops is None:
            lmat = plate_derivative_matrix(self, vtilde)
            dx = sp.kron(self._mat(0, 1), sp.identity(self.ny), format="csr")
            ops = self._plate_ops[vtilde] = (lmat, lmat.T.tocsr(), dx, dx.T.tocsr())
        return ops

    def eigenbasis(self, axis: int, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs (lam, V) of D^T W1 D with respect to W1, so V^T W1 V = I.

        D is the 1d stencil matrix of the axis and derivative order, W1 the
        1d node weights whose outer product is quad_weights.  lam ascends.
        Kernel eigenvalues are set to 0 and the kernel basis starts with the
        normalized constant, so on ghost grids the second-order kernel is
        spanned by 1 and the centered coordinate.  Cached per grid.
        """
        key = (axis, order)
        pair = self._eigs.get(key)
        if pair is None:
            n = self.nx if axis == 0 else self.ny
            h = self.dx if axis == 0 else self.dy
            w1 = np.full(n, h)
            if not self.periodic:
                w1[0] = w1[-1] = 0.5 * h
            d = self._mat(axis, order).toarray()
            r = 1.0 / np.sqrt(w1)
            lam, u = np.linalg.eigh(r[:, None] * (d.T @ (w1[:, None] * d)) * r[None, :])
            v = r[:, None] * u
            k = int(np.count_nonzero(lam <= _KERNEL_RTOL * lam[-1]))
            # rotate the kernel basis: its first vector becomes the constant
            q, _ = np.linalg.qr(v[:, :k].T @ w1[:, None], mode="complete")
            v[:, :k] = v[:, :k] @ q
            lam[:k] = 0.0
            lam.setflags(write=False)
            v.setflags(write=False)
            pair = self._eigs[key] = (lam, v)
        return pair

    # -- quadrature ---------------------------------------------------------

    @property
    def quad_weights(self) -> np.ndarray:
        """Node weights: rectangle rule (periodic) or trapezoid (ghost mode)."""
        if self._quad is None:
            if self.periodic:
                w = np.full((self.nx, self.ny), self.dx * self.dy)
            else:
                wx = np.ones(self.nx)
                wy = np.ones(self.ny)
                wx[0] = wx[-1] = 0.5
                wy[0] = wy[-1] = 0.5
                w = self.dx * self.dy * np.outer(wx, wy)
            w.setflags(write=False)
            self._quad = w
        return self._quad

    def integrate_values(self, a: np.ndarray) -> float:
        return float(np.sum(self.quad_weights * a))

    def norm_l2(self, a: np.ndarray) -> float:
        return float(np.sqrt(max(self.integrate_values(a * a), 0.0)))


# -- field containers --------------------------------------------------------

def _freeze(
    a: np.ndarray, shape_suffix: tuple, grid: Grid2D, copy: bool = True, planes=None
) -> np.ndarray:
    """The checked, read-only samples; copy=False takes a float array itself.

    planes, when given, lists the (i, j) planes a[..., i, j] to check for
    finiteness, the rest being known zero: those are not read.
    """
    arr = np.array(a, dtype=float, copy=copy)
    want = (grid.nx, grid.ny) + shape_suffix
    if arr.shape != want:
        raise GridMismatchError(f"data shape {arr.shape} does not match grid shape {want}")
    if planes is None:
        finite = np.all(np.isfinite(arr))
    else:
        finite = all(np.all(np.isfinite(arr[..., i, j])) for i, j in planes)
    if not finite:
        raise ValueError("field samples must all be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Node samples of a scalar field, with its derivative planes."""

    grid: Grid2D
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data, (), self.grid))

    @cached_property
    def planes(self) -> tuple:
        """(d1, d2, d11, d22, d12), bitwise grad_values and hessian_values (d12 is
        dcross's D1x of the d2 plane): 5 stencils on first read, then kept read-only."""
        grid, a = self.grid, self.data
        a_2 = grid.d1(a, 1)
        out = (grid.d1(a, 0), a_2, grid.d2(a, 0), grid.d2(a, 1), grid.d1(a_2, 0))
        for p in out:
            p.setflags(write=False)
        return out

    @classmethod
    def sample(cls, grid: Grid2D, fn) -> "ScalarField":
        return cls(grid, fn(grid.X1, grid.X2))

    @classmethod
    def zeros(cls, grid: Grid2D) -> "ScalarField":
        return cls(grid, np.zeros((grid.nx, grid.ny)))


@dataclass(frozen=True, eq=False)
class VectorField2:
    grid: Grid2D
    data: np.ndarray  # (nx, ny, 2)

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data, (2,), self.grid))

    @classmethod
    def zeros(cls, grid: Grid2D) -> "VectorField2":
        return cls(grid, np.zeros((grid.nx, grid.ny, 2)))


@dataclass(frozen=True, eq=False)
class VectorField3:
    grid: Grid2D
    data: np.ndarray  # (nx, ny, 3)

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data, (3,), self.grid))


@dataclass(frozen=True, eq=False)
class MatrixField2:
    grid: Grid2D
    data: np.ndarray  # (nx, ny, 2, 2)
    symmetric: bool = False

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data, (2, 2), self.grid))
        if self.symmetric:
            skew = np.abs(self.data[..., 0, 1] - self.data[..., 1, 0])
            scale = 1.0 + np.linalg.norm(self.data, axis=(-2, -1))
            if np.any(skew > SYM_TOL * scale):
                raise ValueError("matrix field flagged symmetric is not")

    @classmethod
    def zeros(cls, grid: Grid2D) -> "MatrixField2":
        return cls(grid, np.zeros((grid.nx, grid.ny, 2, 2)), symmetric=True)


@dataclass(frozen=True, eq=False)
class MatrixField3:
    grid: Grid2D
    data: np.ndarray  # (nx, ny, 3, 3)

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data, (3, 3), self.grid))

    @classmethod
    def zeros(cls, grid: Grid2D) -> "MatrixField3":
        return cls(grid, np.zeros((grid.nx, grid.ny, 3, 3)))

    @classmethod
    def _adopt(cls, grid: Grid2D, data: np.ndarray, planes) -> "MatrixField3":
        """The field over a zeroed array the library has just written at the
        (i, j) planes listed in planes and holds no other reference to: those
        planes are checked, and the array is made read-only in place, not
        copied, so its layout is kept and its untouched planes are not read."""
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "data", _freeze(data, (3, 3), grid, copy=False, planes=planes))
        return f


def component_major(shape, zeros: bool = False) -> np.ndarray:
    """Array of logical shape (..., m, n) stored as m x n planes.

    Each a[..., i, j] is one contiguous plane, so kernels that read and write
    whole components stream memory instead of gathering every (m n)-th
    value.  Uninitialised unless zeros; a zeroed one takes its pages from
    the system as the planes are first touched.
    """
    shape = tuple(shape)
    alloc = np.zeros if zeros else np.empty
    return np.moveaxis(alloc(shape[-2:] + shape[:-2]), (0, 1), (-2, -1))


# -- differential operators ---------------------------------------------------

def curl_t_curl_planes(grid: Grid2D, xx: np.ndarray, yy: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """curl^T curl of the symmetric field with planes (xx, yy, xy):
    d22 xx + d11 yy - d12 (xy + xy)."""
    return grid.d2(xx, 1) + grid.d2(yy, 0) - grid.dcross(xy + xy)


def div_t_div_planes(grid: Grid2D, xx: np.ndarray, yy: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """div^T div of the symmetric field with planes (xx, yy, xy):
    d11 xx + d22 yy + d12 (xy + xy)."""
    return grid.d2(xx, 0) + grid.d2(yy, 1) + grid.dcross(xy + xy)


def curl_t_curl(B: MatrixField2) -> ScalarField:
    """curl^T curl B = d22 B11 + d11 B22 - d12 (B12 + B21); only sym B counts."""
    return ScalarField(B.grid, curl_t_curl_planes(B.grid, *sym_planes(B.data)))


def div_t_div(B: MatrixField2) -> ScalarField:
    """div^T div B = d11 B11 + d22 B22 + d12 (B12 + B21); only sym B counts."""
    return ScalarField(B.grid, div_t_div_planes(B.grid, *sym_planes(B.data)))


def cof2_values(b: np.ndarray) -> np.ndarray:
    """Pointwise cofactor of a stack of 2x2 matrices."""
    out = np.empty_like(b)
    out[..., 0, 0] = b[..., 1, 1]
    out[..., 0, 1] = -b[..., 1, 0]
    out[..., 1, 0] = -b[..., 0, 1]
    out[..., 1, 1] = b[..., 0, 0]
    return out


def det2_values(b: np.ndarray) -> np.ndarray:
    return b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]


def bracket_planes(a, b) -> np.ndarray:
    """Pointwise cof(A) : B of two symmetric 2x2 fields given by their
    planes (xx, yy, xy)."""
    return a[0] * b[1] + a[1] * b[0] - 2.0 * a[2] * b[2]


def bracket_values(ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """Pointwise cof(ha) : hb of two stacks of symmetric 2x2 hessians."""
    return bracket_planes(
        (ha[..., 0, 0], ha[..., 1, 1], ha[..., 0, 1]), (hb[..., 0, 0], hb[..., 1, 1], hb[..., 0, 1])
    )


def bracket_matrix(grid: Grid2D, ha: np.ndarray) -> sp.csr_matrix:
    """CSR matrix of v -> bracket_values(ha, hessian_values(grid, v)).

    Acts on C-ordered node vectors v.ravel(), assembled from the grid's own
    1d stencils: diag(ha_11) (D2x (x) I) + diag(ha_00) (I (x) D2y)
    - diag(2 ha_01) (D1x (x) D1y), boundary rows included.
    """
    ix, iy = sp.identity(grid.nx, format="csr"), sp.identity(grid.ny, format="csr")
    return (
        sp.diags(ha[..., 1, 1].ravel()) @ sp.kron(grid._mat(0, 2), iy)
        + sp.diags(ha[..., 0, 0].ravel()) @ sp.kron(ix, grid._mat(1, 2))
        - sp.diags(2.0 * ha[..., 0, 1].ravel()) @ sp.kron(grid._mat(0, 1), grid._mat(1, 1))
    ).tocsr()


# the rows of plate_derivative_matrix, plane by plane
PLATE_ROWS = ("w1_1", "w1_2", "w2_1", "w2_2", "v_1", "v_2", "v_11", "v_22", "vt_1", "vt_2")


def plate_derivative_matrix(grid: Grid2D, vtilde: bool = False) -> sp.csr_matrix:
    """CSR matrix of the derivative planes of a flat plate state.

    Acts on x = (w.ravel(), v.ravel()[, vtilde.ravel()]), w sampled as
    (nx, ny, 2), and returns the C-ordered planes PLATE_ROWS stacked (the
    last two with vtilde only): d_j w_i, d_j v, d11 v, d22 v [, d_j vtilde].
    Assembled from the grid's own 1d stencils, D1x (x) I, I (x) D1y,
    D2x (x) I and I (x) D2y, so every row is bitwise Grid2D.d1 / d2 of its
    field.  d12 v is no row: a kron(D1x, D1y) row rounds differently from
    Grid2D.dcross, which applies D1x to the d2 v plane (Grid2D.plate_operator
    holds that D1x block).
    """
    ix, iy = sp.identity(grid.nx), sp.identity(grid.ny)
    first = sp.vstack([sp.kron(grid._mat(0, 1), iy), sp.kron(ix, grid._mat(1, 1))])
    second = sp.vstack([sp.kron(grid._mat(0, 2), iy), sp.kron(ix, grid._mat(1, 2))])
    blocks = [first, first, sp.vstack([first, second])]
    if vtilde:
        blocks.append(first)
    out = sp.block_diag(blocks, format="csr")
    # block_diag puts w_i on the plane of columns [i n, (i + 1) n); the state
    # interleaves the node pairs, so node k's w_i is column 2 k + i
    n = grid.nx * grid.ny
    cols = out.indices
    on_w = cols < 2 * n
    cols[on_w] = 2 * (cols[on_w] % n) + cols[on_w] // n
    out.has_sorted_indices = False
    out.sort_indices()
    return out


def airy_bracket(v: ScalarField, phi: ScalarField) -> ScalarField:
    """Monge-Ampere bracket [v, phi] = cof(hess v) : hess phi.

    Symmetric in its arguments by construction; [v, v] = 2 det(hess v).
    """
    v.grid.require_same(phi.grid, "bracket arguments")
    g = v.grid
    return ScalarField(g, bracket_values(hessian_values(g, v.data), hessian_values(g, phi.data)))


def sym_values(b: np.ndarray) -> np.ndarray:
    return 0.5 * (b + np.swapaxes(b, -1, -2))


def sym_planes(f: np.ndarray):
    """(xx, yy, xy) planes of the symmetric part of a (..., n, n) stack's
    tangential block; xx and yy are views of f."""
    return f[..., 0, 0], f[..., 1, 1], 0.5 * (f[..., 0, 1] + f[..., 1, 0])


def grad_values(grid: Grid2D, a: np.ndarray) -> np.ndarray:
    return np.stack([grid.d1(a, 0), grid.d1(a, 1)], axis=-1)


def sym_stack(xx: np.ndarray, yy: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) stack of the symmetric field with planes (xx, yy, xy)."""
    out = np.empty(np.shape(xx) + (2, 2))
    out[..., 0, 0] = xx
    out[..., 0, 1] = xy
    out[..., 1, 0] = xy
    out[..., 1, 1] = yy
    return out


def hessian_values(grid: Grid2D, a: np.ndarray) -> np.ndarray:
    return sym_stack(grid.d2(a, 0), grid.d2(a, 1), grid.dcross(a))


def sym_grad_values(grid: Grid2D, w: np.ndarray) -> np.ndarray:
    """Symmetrized Jacobian of an in-plane displacement sampled as (nx,ny,2)."""
    j = np.empty(w.shape[:2] + (2, 2))
    for i in range(2):
        for k in range(2):
            j[..., i, k] = grid.d1(w[..., i], k)
    return sym_values(j)


# -- CSV serialization --------------------------------------------------------

_RANK_LABELS = {
    1: ["c11"],
    2: ["c11", "c12"],
    3: ["c11", "c12", "c13"],
    4: ["c11", "c12", "c21", "c22"],
    9: ["c11", "c12", "c13", "c21", "c22", "c23", "c31", "c32", "c33"],
}


def save_csv(fld, path) -> None:
    """Write a field as CSV: header x1,x2,c11[,...], row-major over nodes."""
    grid = fld.grid
    comps = fld.data.reshape(grid.nx, grid.ny, -1)
    k = comps.shape[-1]
    if k not in _RANK_LABELS:
        raise ValueError(f"unsupported component count {k}")
    header = ",".join(["x1", "x2"] + _RANK_LABELS[k])
    # '%.17g' % v == f'{v:.17g}' for every float.  Each coordinate is
    # formatted once: a grid row's %-template holds its x1 and x2 strings, so
    # only the component values are formatted per node.
    vals = ",".join(["%.17g"] * k) + "\n"
    tails = ["," + ("%.17g" % x2) + "," + vals for x2 in grid.x2.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i, x1 in enumerate(grid.x1.tolist()):
            head = "%.17g" % x1
            fh.write((head + head.join(tails)) % tuple(comps[i].ravel().tolist()))


def load_csv(path, grid: Grid2D):
    """Read a field written by save_csv back onto the given grid."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[0] != grid.nx * grid.ny:
        raise GridMismatchError(f"{path}: {raw.shape[0]} rows, expected {grid.nx * grid.ny}")
    k = raw.shape[1] - 2
    comps = raw[:, 2:].reshape(grid.nx, grid.ny, k)
    if k == 1:
        return ScalarField(grid, comps[..., 0])
    if k == 2:
        return VectorField2(grid, comps)
    if k == 3:
        return VectorField3(grid, comps)
    if k == 4:
        return MatrixField2(grid, comps.reshape(grid.nx, grid.ny, 2, 2))
    if k == 9:
        return MatrixField3(grid, comps.reshape(grid.nx, grid.ny, 3, 3))
    raise ValueError(f"unsupported component count {k} in {path}")
