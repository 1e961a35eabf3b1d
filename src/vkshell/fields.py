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
* each 1d stencil (Stencil: a 3-point band plus explicit boundary rows) is
  applied by numpy slicing, bitwise its CSR product; the matrix forms (the
  dense 1d matrix, the linearized-isometry bracket, the plate derivative
  operator) are assembled on demand from the same rows, the 2d ones from
  their Kronecker rows, and only they import scipy,
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


def _band_row(band: tuple, i: int) -> tuple:
    """Row i of the band (l, c, r) as (column, value) pairs."""
    return tuple((i + off, val) for off, val in zip((-1, 0, 1), band) if val)


class Stencil:
    """A 1d stencil matrix, in the one form that every consumer reads.

    Rows lo .. hi - 1 are the 3-point band (l, c, r) on columns i - 1, i,
    i + 1: a first-order band has no center and l = -r, a second-order one
    has l = r.  Every other row is listed in edges as (column, value) pairs
    in ascending column order, the order in which a CSR product sums a row.
    apply slices the band and gathers the terms of all edge rows at once;
    dense and csr assemble the matrix from the same rows.
    """

    __slots__ = ("n", "band", "lo", "hi", "edges", "_gather")

    def __init__(self, n: int, band: tuple, lo: int, hi: int, edges: dict):
        self.n, self.band, self.lo, self.hi, self.edges = n, band, lo, hi, edges
        # term k of edge row rows[e] is vals[k, e] x[cols[k, e]]; a row with
        # fewer terms is padded at the positions pad, whose x apply sets to +0.0
        rows = sorted(edges)
        width = max(map(len, edges.values()))
        cols = np.zeros((width, len(rows)), dtype=np.intp)
        vals = np.zeros((width, len(rows), 1))
        for e, i in enumerate(rows):
            for k, (j, val) in enumerate(edges[i]):
                cols[k, e], vals[k, e, 0] = j, val
        pad = np.nonzero([[k >= len(edges[i]) for i in rows] for k in range(width)])
        self._gather = (np.array(rows), cols, vals, pad if pad[0].size else None)

    @property
    def T(self) -> "Stencil":
        """The transpose, in the same form."""
        n, lo, hi = self.n, self.lo, self.hi
        entries = {}  # column -> its (row, value) entries in the edge rows
        for i, terms in self.edges.items():
            for j, val in terms:
                entries.setdefault(j, []).append((i, val))
        band = self.band[::-1]
        # row j of the transpose is a band row when rows j - 1, j and j + 1
        # are band rows and no edge row has an entry in column j, or when it
        # borders the band and has its pattern
        t_lo = max([lo + 1] + [j + 1 for j in entries if j < n // 2])
        t_hi = min([hi - 1] + [j for j in entries if j >= n // 2])
        edges = {}
        for j in (*range(t_lo), *range(t_hi, n)):
            from_band = [(i, val) for i, val in zip((j + 1, j, j - 1), self.band) if val and lo <= i < hi]
            edges[j] = tuple(sorted(entries.get(j, []) + from_band))
        while t_lo > 1 and edges[t_lo - 1] == _band_row(band, t_lo - 1):
            del edges[t_lo - 1]
            t_lo -= 1
        while t_hi < n - 1 and edges[t_hi] == _band_row(band, t_hi):
            del edges[t_hi]
            t_hi += 1
        return Stencil(n, band, t_lo, t_hi, edges)

    def apply(self, a: np.ndarray, axis: int) -> np.ndarray:
        """The stencil along axis of a 2d array, bitwise the CSR product.

        Axis 0 gives a C-ordered array and axis 1 an F-ordered one, the
        layouts of D @ a and (D @ a.T).T.  Allocates its own scratch, so
        threads may apply a stencil at once.
        """
        out = np.empty(a.shape, order="F" if axis else "C")
        # the stencil runs along the first axis of x into the C-ordered y; an
        # x of another layout or dtype is first copied into y, so that every
        # pass below streams contiguous float rows
        x, y = (a.T, out.T) if axis else (a, out)
        if x.dtype != np.float64 or not x.flags.c_contiguous:
            y[...] = x
            x = y
        lo, hi = self.lo, self.hi
        l, c, r = self.band
        # the edge terms and r x are read before the band overwrites x in y
        rows, cols, vals, pad = self._gather
        terms = x.take(cols, axis=0)
        # r x on rows lo - 1 .. hi also gives l x: exactly, as l = r or l = -r
        rx = np.multiply(x[lo - 1 : hi + 1], r)
        band = y[lo:hi]
        if c:  # (l x_{i-1} + c x_i) + r x_{i+1}
            np.multiply(x[lo:hi], c, out=band)
            np.add(rx[:-2], band, out=band)
            band += rx[2:]
        else:  # l x_{i-1} + r x_{i+1} = r x_{i+1} - r x_{i-1}
            np.subtract(rx[2:], rx[:-2], out=band)
        # the edge rows, summed term by term in column order; a padded term
        # adds +0.0, which changes no sum but a -0.0 one
        if pad is not None:
            terms[pad] = 0.0
        terms *= vals
        acc = terms[0]
        for term in terms[1:]:
            acc += term
        y[rows] = acc
        # a CSR row sum starts from +0.0, which turns a sum of -0.0 terms
        # into +0.0 and leaves every other sum as it is
        out += 0.0
        return out

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(data, indices, indptr) of the CSR matrix."""
        n, lo, hi = self.n, self.lo, self.hi
        terms = _band_row(self.band, 0)
        counts = np.full(n, len(terms), dtype=np.int32)
        for i, row in self.edges.items():
            counts[i] = len(row)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int32)
        data = np.empty(indptr[-1])
        band = slice(indptr[lo], indptr[hi])
        indices[band] = (np.arange(lo, hi)[:, None] + [off for off, _ in terms]).ravel()
        data[band] = np.tile([val for _, val in terms], hi - lo)
        for i, row in self.edges.items():
            indices[indptr[i] : indptr[i + 1]], data[indptr[i] : indptr[i + 1]] = zip(*row)
        return data, indices, indptr

    def dense(self) -> np.ndarray:
        """The (n, n) matrix."""
        data, indices, indptr = self.csr()
        d = np.zeros((self.n, self.n))
        d[np.repeat(np.arange(self.n), np.diff(indptr)), indices] = data
        return d


def _d1_stencil(n: int, h: float, bc: str) -> Stencil:
    """1d centered first derivative; one-sided 2nd-order rows in ghost mode."""
    c = 1.0 / (2.0 * h)
    if bc == PERIODIC:
        edges = {0: ((1, c), (n - 1, -c)), n - 1: ((0, c), (n - 2, -c))}
    else:
        # ghost g = 4 f0 - 6 f1 + 4 f2 - f3  =>  (f1 - g)/(2h)
        edges = {
            0: ((0, -4.0 * c), (1, 7.0 * c), (2, -4.0 * c), (3, c)),
            n - 1: ((n - 4, -c), (n - 3, 4.0 * c), (n - 2, -7.0 * c), (n - 1, 4.0 * c)),
        }
    return Stencil(n, (-c, 0.0, c), 1, n - 1, edges)


def _d2_stencil(n: int, h: float, bc: str) -> Stencil:
    """1d centered second derivative; quadratic-ghost rows at the ends."""
    c = 1.0 / (h * h)
    if bc == PERIODIC:
        edges = {0: ((0, -2.0 * c), (1, c), (n - 1, c)), n - 1: ((0, c), (n - 2, c), (n - 1, -2.0 * c))}
    else:
        # ghost g = 4 f0 - 6 f1 + 4 f2 - f3  =>  (g - 2 f0 + f1)/h^2
        edges = {
            0: ((0, 2.0 * c), (1, -5.0 * c), (2, 4.0 * c), (3, -c)),
            n - 1: ((n - 4, -c), (n - 3, 4.0 * c), (n - 2, -5.0 * c), (n - 1, 2.0 * c)),
        }
    return Stencil(n, (c, -2.0 * c, c), 1, n - 1, edges)


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for each i, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1])


def _kron_rows(grid: "Grid2D", order_x: int, order_y: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(counts, indices, data) of the CSR rows of Dx (x) Dy on C-ordered node
    vectors, Dx and Dy the grid's 1d stencils of those derivative orders and
    order 0 the identity: node (i, k) takes the products of row i of Dx and
    row k of Dy, columns ascending, as scipy.sparse.kron forms them."""
    (dx, jx, px), (dy, jy, py) = (
        grid.stencil(axis, order).csr() if order else (np.ones(n), np.arange(n), np.arange(n + 1))
        for axis, order, n in ((0, order_x, grid.nx), (1, order_y, grid.ny))
    )
    i, k = np.divmod(np.arange(grid.nx * grid.ny), grid.ny)
    cx, cy = np.diff(px)[i], np.diff(py)
    # an entry of row i of Dx for each (node, Dx entry) pair, then the entries
    # of row k of Dy for each pair
    ex, kx = _segments(px[i], cx), np.repeat(k, cx)
    ey = _segments(py[kx], cy[kx])
    ex = np.repeat(ex, cy[kx])
    return cx * cy[k], jx[ex] * grid.ny + jy[ey], dx[ex] * dy[ey]


def _stacked(groups, ncols: int):
    """The CSR matrix of the (counts, indices, data) row groups, stacked in order."""
    import scipy.sparse as sp  # not at module level: only the matrix forms need it

    counts, indices, data = (np.concatenate(z) for z in zip(*groups))
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return sp.csr_matrix((data, indices, indptr), shape=(counts.size, ncols))


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
        self._stencils: dict[tuple, Stencil] = {}
        self._eigs: dict[tuple, tuple] = {}
        self._plate_ops: dict[bool, tuple] = {}
        self._quad: np.ndarray | None = None

    # the node coordinates: read-only (nx, ny) views of the axes, no mesh built
    X1 = property(lambda self: np.broadcast_to(self.x1[:, None], (self.nx, self.ny)))
    X2 = property(lambda self: np.broadcast_to(self.x2[None, :], (self.nx, self.ny)))

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

    def stencil(self, axis: int, order: int, adjoint: bool = False) -> Stencil:
        """The 1d stencil of the axis and derivative order (its transpose
        when adjoint), built from its closed form on first use."""
        key = (axis, order, adjoint)
        s = self._stencils.get(key)
        if s is None:
            if adjoint:
                s = self.stencil(axis, order).T
            else:
                n, h = (self.nx, self.dx) if axis == 0 else (self.ny, self.dy)
                s = (_d1_stencil if order == 1 else _d2_stencil)(n, h, self.bc)
            self._stencils[key] = s
        return s

    def d1(self, a: np.ndarray, axis: int) -> np.ndarray:
        return self.stencil(axis, 1).apply(a, axis)

    def d2(self, a: np.ndarray, axis: int) -> np.ndarray:
        return self.stencil(axis, 2).apply(a, axis)

    def dcross(self, a: np.ndarray) -> np.ndarray:
        """Mixed second derivative: the 4-point centered cross d1x(d1y(.))."""
        return self.d1(self.d1(a, 1), 0)

    def lap(self, a: np.ndarray) -> np.ndarray:
        return self.d2(a, 0) + self.d2(a, 1)

    def bilap(self, a: np.ndarray) -> np.ndarray:
        return self.lap(self.lap(a))

    # exact transposes of the per-axis stencils

    def d1_t(self, a: np.ndarray, axis: int) -> np.ndarray:
        return self.stencil(axis, 1, adjoint=True).apply(a, axis)

    def d2_t(self, a: np.ndarray, axis: int) -> np.ndarray:
        return self.stencil(axis, 2, adjoint=True).apply(a, axis)

    def plate_operator(self, vtilde: bool) -> tuple:
        """(L, L^T, Dx, Dx^T) for the plate states of this grid, all CSR.

        L is plate_derivative_matrix(self, vtilde) and Dx = D1x (x) I the
        axis-0 first-derivative block, which forms d12 v from the d2 v plane
        as dcross does.  Built on first use, cached per grid instance.
        """
        ops = self._plate_ops.get(vtilde)
        if ops is None:
            lmat = plate_derivative_matrix(self, vtilde)
            dx = _stacked([_kron_rows(self, 1, 0)], self.nx * self.ny)
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
            d = self.stencil(axis, order).dense()
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


def _taken(cls, grid: Grid2D, data: np.ndarray):
    """The field of class cls over data as it is: no copy and no check."""
    f = object.__new__(cls)
    object.__setattr__(f, "grid", grid)
    object.__setattr__(f, "data", data)
    return f


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
        """The zero field over a read-only np.zeros, taken without a copy or
        a finiteness scan, so its pages stay untouched until read."""
        data = np.zeros((grid.nx, grid.ny))
        data.setflags(write=False)
        return _taken(cls, grid, data)


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
        return _taken(cls, grid, _freeze(data, (3, 3), grid, copy=False, planes=planes))


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


def bracket_matrix(grid: Grid2D, ha: np.ndarray):
    """CSR matrix of v -> bracket_values(ha, hessian_values(grid, v)).

    Acts on C-ordered node vectors v.ravel(), assembled from the Kronecker
    rows of the grid's own 1d stencils: diag(ha_11) (D2x (x) I)
    + diag(ha_00) (I (x) D2y) - diag(2 ha_01) (D1x (x) D1y), boundary rows
    included.
    """
    import scipy.sparse as sp  # not at module level: only the matrix forms need it

    def kron(order_x, order_y):
        return _stacked([_kron_rows(grid, order_x, order_y)], grid.nx * grid.ny)

    return (
        sp.diags(ha[..., 1, 1].ravel()) @ kron(2, 0)
        + sp.diags(ha[..., 0, 0].ravel()) @ kron(0, 2)
        - sp.diags(2.0 * ha[..., 0, 1].ravel()) @ kron(1, 1)
    ).tocsr()


# the rows of plate_derivative_matrix, plane by plane
PLATE_ROWS = ("w1_1", "w1_2", "w2_1", "w2_2", "v_1", "v_2", "v_11", "v_22", "vt_1", "vt_2")


def plate_derivative_matrix(grid: Grid2D, vtilde: bool = False):
    """CSR matrix of the derivative planes of a flat plate state.

    Acts on x = (w.ravel(), v.ravel()[, vtilde.ravel()]), w sampled as
    (nx, ny, 2), and returns the C-ordered planes PLATE_ROWS stacked (the
    last two with vtilde only): d_j w_i, d_j v, d11 v, d22 v [, d_j vtilde].
    Its rows are those of the grid's own 1d stencils, D1x (x) I, I (x) D1y,
    D2x (x) I and I (x) D2y, assembled in one call, so every row is bitwise
    Grid2D.d1 / d2 of its field.  d12 v is no row: a kron(D1x, D1y) row
    rounds differently from Grid2D.dcross, which applies D1x to the d2 v
    plane (Grid2D.plate_operator holds that D1x block).
    """
    n = grid.nx * grid.ny
    first = [_kron_rows(grid, 1, 0), _kron_rows(grid, 0, 1)]
    second = [_kron_rows(grid, 2, 0), _kron_rows(grid, 0, 2)]
    # (row groups, column scale, column shift): the state interleaves the
    # node pairs of w, so node k's w_i is column 2 k + i; v and vtilde follow
    blocks = [(first, 2, 0), (first, 2, 1), (first + second, 1, 2 * n)]
    if vtilde:
        blocks.append((first, 1, 3 * n))
    groups = [(c, scale * j + shift, v) for rows, scale, shift in blocks for c, j, v in rows]
    return _stacked(groups, len(blocks) * n)


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
