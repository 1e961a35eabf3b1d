import numpy as np
import pytest

from vkshell.fields import (
    DIRICHLET,
    PERIODIC,
    Grid2D,
    GridMismatchError,
    MatrixField2,
    MatrixField3,
    PLATE_ROWS,
    ScalarField,
    SizingError,
    VectorField2,
    VectorField3,
    airy_bracket,
    bracket_matrix,
    bracket_values,
    cof2_values,
    curl_t_curl,
    det2_values,
    div_t_div,
    grad_values,
    hessian_values,
    load_csv,
    save_csv,
    sym_grad_values,
)

TWO_PI = 2.0 * np.pi


def test_grid_sizing_and_spacing():
    with pytest.raises(SizingError):
        Grid2D(4, 64, (0, 1, 0, 1))
    gp = Grid2D(10, 20, (0, 1, 0, 2), bc=PERIODIC)
    assert gp.dx == pytest.approx(0.1) and gp.dy == pytest.approx(0.1)
    gd = Grid2D(11, 21, (0, 1, 0, 2), bc=DIRICHLET)
    assert gd.dx == pytest.approx(0.1) and gd.dy == pytest.approx(0.1)
    assert gd.x1[-1] == pytest.approx(1.0)
    assert gp.x1[-1] == pytest.approx(1.0 - gp.dx)


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
def test_node_coordinates_are_the_read_only_mesh(bc):
    grid = Grid2D(12, 9, (0.5, 2.0, -1.0, 1.5), bc=bc)
    for got, want in zip((grid.X1, grid.X2), np.meshgrid(grid.x1, grid.x2, indexing="ij")):
        assert got.shape == want.shape and np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 0.0


def test_field_validation(square33):
    with pytest.raises(ValueError):
        ScalarField(square33, np.full((33, 33), np.nan))
    skew = np.zeros((33, 33, 2, 2))
    skew[..., 0, 1] = 1.0
    with pytest.raises(ValueError):
        MatrixField2(square33, skew, symmetric=True)
    other = Grid2D(33, 33, (0, 2, 0, 1), bc=DIRICHLET)
    with pytest.raises(GridMismatchError):
        airy_bracket(ScalarField.zeros(square33), ScalarField.zeros(other))


@pytest.mark.parametrize("domain", [(0.0, np.inf, 0.0, 1.0), (0.0, 1.0, -np.inf, 1.0), (0.0, np.nan, 0.0, 1.0),
                                    (0.0, 1e-320, 0.0, 1.0), (-1e308, 1e308, 0.0, 1.0)])
def test_grid_rejects_a_domain_whose_stencils_overflow(domain):
    # an infinite end, a step whose 1/dx^2 overflows, or an extent that does
    for bc in (PERIODIC, DIRICHLET):
        with pytest.raises(ValueError, match="degenerate domain"):
            Grid2D(16, 16, domain, bc=bc)


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
def test_scalar_field_planes_are_its_stencil_derivatives_formed_once(bc, rng, monkeypatch):
    grid = Grid2D(16, 18, (0.0, 1.0, 0.0, 2.0), bc=bc)
    f = ScalarField(grid, rng.standard_normal((grid.nx, grid.ny)))
    grad, hess = grad_values(grid, f.data), hessian_values(grid, f.data)
    calls = []
    for name in ("d1", "d2"):
        orig = getattr(Grid2D, name)
        monkeypatch.setattr(Grid2D, name, lambda self, a, axis, _o=orig: calls.append(1) or _o(self, a, axis))
    planes = f.planes
    assert len(calls) == 5
    for _ in range(3):
        assert f.planes is planes
    assert len(calls) == 5
    want = (grad[..., 0], grad[..., 1], hess[..., 0, 0], hess[..., 1, 1], hess[..., 0, 1])
    for got, ref in zip(planes, want):
        assert np.array_equal(got, ref)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 1.0
    with pytest.raises(AttributeError):
        f.planes = want


def test_derivative_of_constant_is_zero(square33, torus64):
    for grid in (square33, torus64):
        f = ScalarField.sample(grid, lambda x, y: 0 * x + 3.7).data
        for out in (grad_values(grid, f), hessian_values(grid, f), grid.lap(f), grid.bilap(f)):
            # roundoff amplified by 1/dx^2 (and squared for the bilaplacian)
            assert np.max(np.abs(out)) < 1e-8


def test_hessian_exact_for_quadratics(square33):
    f = ScalarField.sample(square33, lambda x, y: x * y)
    h = hessian_values(square33, f.data)
    assert np.allclose(h[..., 0, 1], 1.0, atol=1e-12)
    assert np.allclose(h[..., 1, 0], 1.0, atol=1e-12)
    assert np.allclose(h[..., 0, 0], 0.0, atol=1e-12)
    # periodicized polynomial patch: exact away from the wrap seam
    gp = Grid2D(32, 32, (0, 1, 0, 1), bc=PERIODIC)
    hp = hessian_values(gp, ScalarField.sample(gp, lambda x, y: x * y).data)
    inner = hp[2:-2, 2:-2]
    assert np.allclose(inner[..., 0, 1], 1.0, atol=1e-12)
    assert np.allclose(inner[..., 0, 0], 0.0, atol=1e-12)


def test_laplacian_analytic_oracle(torus64):
    # d^2/dx^2 + d^2/dy^2 of sin x sin y = -2 sin x sin y
    f = ScalarField.sample(torus64, lambda x, y: np.sin(x) * np.sin(y))
    lap = torus64.lap(f.data)
    err = np.max(np.abs(lap + 2.0 * f.data))
    assert err < 2.0 * max(torus64.dx, torus64.dy) ** 2


def test_bilaplacian_is_composed_laplacian(torus64, square33):
    for grid in (torus64, square33):
        rng = np.random.default_rng(3)
        f = ScalarField(grid, rng.standard_normal((grid.nx, grid.ny)))
        direct = grid.bilap(f.data)
        composed = grid.lap(grid.lap(f.data))
        assert np.array_equal(direct, composed)


def test_operator_convergence_order():
    # halving dx must cut the error by 4 up to 20 percent
    errs = {}
    for n in (32, 64):
        g = Grid2D(n, n, (0, TWO_PI, 0, TWO_PI), bc=PERIODIC)
        f = ScalarField.sample(g, lambda x, y: np.sin(x) * np.sin(2 * y))
        lap = g.lap(f.data)
        errs[n] = np.max(np.abs(lap + 5.0 * f.data))
    ratio = errs[32] / errs[64]
    assert 3.2 < ratio < 4.8


def test_curl_t_curl_kernel_and_oracles(square33):
    grid = square33
    # kernel: sym grad of a quadratic displacement, exact up to roundoff
    w = np.stack([grid.X1**2 + grid.X2, grid.X1 * grid.X2], axis=-1)
    b = MatrixField2(grid, sym_grad_values(grid, w), symmetric=True)
    assert np.max(np.abs(curl_t_curl(b).data)) < 1e-10
    # diag(x2^2/2, 0) -> 1 everywhere
    d = np.zeros((grid.nx, grid.ny, 2, 2))
    d[..., 0, 0] = grid.X2**2 / 2
    assert np.allclose(curl_t_curl(MatrixField2(grid, d)).data, 1.0, atol=1e-10)
    # 1/2 grad v x grad v with v = x1 x2 gives 1 (= -det hess v)
    v = ScalarField.sample(grid, lambda x, y: x * y)
    dv = np.stack([grid.d1(v.data, 0), grid.d1(v.data, 1)], axis=-1)
    outer = 0.5 * dv[..., :, None] * dv[..., None, :]
    assert np.allclose(curl_t_curl(MatrixField2(grid, outer, symmetric=True)).data, 1.0, atol=1e-9)


def test_div_t_div_oracles(torus64, square33):
    # constants are annihilated
    c = np.tile(np.array([[1.0, 2.0], [2.0, -1.0]]), (33, 33, 1, 1))
    assert np.max(np.abs(div_t_div(MatrixField2(square33, c, symmetric=True)).data)) < 1e-12
    # cof hess v0 lies in the kernel, analytic oracle v0 = sin x sin y
    v0 = ScalarField.sample(torus64, lambda x, y: np.sin(x) * np.sin(y))
    h = hessian_values(torus64, v0.data)
    res = div_t_div(MatrixField2(torus64, cof2_values(h), symmetric=True)).data
    assert np.max(np.abs(res)) < 20.0 * torus64.dx**2
    # hess(sin x) maps to its bilaplacian sin x
    v1 = ScalarField.sample(torus64, lambda x, y: np.sin(x) + 0 * y)
    out = div_t_div(MatrixField2(torus64, hessian_values(torus64, v1.data), symmetric=True)).data
    assert np.max(np.abs(out - np.sin(torus64.X1))) < 2.0 * torus64.dx**2


def test_cof_det_pointwise(rng, square33):
    bf = np.tile([[0.0, 1.0], [1.0, 0.0]], (33, 33, 1, 1))
    assert np.allclose(cof2_values(bf), np.tile([[0, -1], [-1, 0]], (33, 33, 1, 1)))
    assert np.allclose(det2_values(bf), -1.0)
    eye = np.tile(np.eye(2), (33, 33, 1, 1))
    assert np.allclose(cof2_values(eye), eye)
    assert np.allclose(det2_values(eye), 1.0)
    # cof B : B = 2 det B pointwise, random samples
    r = rng.standard_normal((33, 33, 2, 2))
    lhs = np.sum(cof2_values(r) * r, axis=(-2, -1))
    assert np.max(np.abs(lhs - 2.0 * det2_values(r))) < 1e-13


def test_airy_bracket(square33, torus64):
    # constant hessians: v = x^2, phi = y^2 -> 4
    v = ScalarField.sample(square33, lambda x, y: x * x)
    p = ScalarField.sample(square33, lambda x, y: y * y)
    assert np.allclose(airy_bracket(v, p).data, 4.0, atol=1e-10)
    # only mixed terms: v = phi = x y -> -2
    s = ScalarField.sample(square33, lambda x, y: x * y)
    assert np.allclose(airy_bracket(s, s).data, -2.0, atol=1e-10)
    # analytic oracle on the torus
    vt = ScalarField.sample(torus64, lambda x, y: np.sin(x) * np.sin(y))
    pt = ScalarField.sample(torus64, lambda x, y: np.cos(x))
    exact = -np.sin(torus64.X1) * np.sin(torus64.X2) * (-np.cos(torus64.X1))
    # [v,phi] = v_xx phi_yy + v_yy phi_xx - 2 v_xy phi_xy with phi_yy = phi_xy = 0
    assert np.max(np.abs(airy_bracket(vt, pt).data - exact)) < 10.0 * torus64.dx**2
    # exact symmetry
    assert np.array_equal(airy_bracket(vt, pt).data, airy_bracket(pt, vt).data)
    # [v, v] = 2 det hess v pointwise
    hv = hessian_values(torus64, vt.data)
    assert np.max(np.abs(airy_bracket(vt, vt).data - 2.0 * det2_values(hv))) < 1e-12


@pytest.mark.parametrize(
    "grid",
    [
        Grid2D(17, 23, (-0.5, 1.0, 0.0, 2.0), bc=DIRICHLET),
        Grid2D(24, 16, (0.0, TWO_PI, -1.0, 1.0), bc=PERIODIC),
    ],
    ids=["ghost", "periodic"],
)
def test_bracket_values_is_the_three_stencil_bracket(grid, rng):
    a = rng.standard_normal((grid.nx, grid.ny))
    b = rng.standard_normal((grid.nx, grid.ny))
    # the bracket as d2 / dcross products, in this operand order
    old = (
        grid.d2(a, 0) * grid.d2(b, 1)
        + grid.d2(a, 1) * grid.d2(b, 0)
        - 2.0 * grid.dcross(a) * grid.dcross(b)
    )
    new = bracket_values(hessian_values(grid, a), hessian_values(grid, b))
    assert np.array_equal(new, old)
    assert np.array_equal(airy_bracket(ScalarField(grid, a), ScalarField(grid, b)).data, old)


@pytest.mark.parametrize(
    "grid",
    [
        Grid2D(17, 23, (-0.5, 1.0, 0.0, 2.0), bc=DIRICHLET),
        Grid2D(24, 16, (0.0, TWO_PI, -1.0, 1.0), bc=PERIODIC),
    ],
    ids=["ghost", "periodic"],
)
def test_bracket_matrix_is_the_pointwise_bracket(grid, rng):
    # the Dirichlet solve's operator and the energy's constraint are one map,
    # boundary rows included
    ha = rng.standard_normal((grid.nx, grid.ny, 2, 2))
    ha[..., 1, 0] = ha[..., 0, 1]
    v = rng.standard_normal((grid.nx, grid.ny))
    ref = bracket_values(ha, hessian_values(grid, v))
    got = (bracket_matrix(grid, ha) @ v.ravel()).reshape(v.shape)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "grid",
    [
        Grid2D(33, 37, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET),
        Grid2D(17, 17, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET),
        Grid2D(64, 64, (0.0, TWO_PI, 0.0, TWO_PI), bc=PERIODIC),
    ],
    ids=["ghost33x37", "ghost17", "torus64"],
)
def test_plate_operator_rows_are_the_stencils(grid, rng):
    # each row of the matrix form is bitwise the per-axis stencil of its
    # field, and D1x on the d2 v row is bitwise dcross; the value path of the
    # energies and its gradient path see the same planes
    shape = (grid.nx, grid.ny)
    w = rng.standard_normal(shape + (2,))
    v, vt = rng.standard_normal(shape), rng.standard_normal(shape)
    lmat, lmat_t, dx, dx_t = grid.plate_operator(True)
    planes = (lmat @ np.concatenate([w.ravel(), v.ravel(), vt.ravel()])).reshape((-1,) + shape)
    want = [grid.d1(w[..., i], k) for i in range(2) for k in range(2)]
    want += [grid.d1(v, 0), grid.d1(v, 1), grid.d2(v, 0), grid.d2(v, 1), grid.d1(vt, 0), grid.d1(vt, 1)]
    assert len(planes) == len(PLATE_ROWS) == len(want)
    for name, got, ref in zip(PLATE_ROWS, planes, want):
        assert np.array_equal(got, ref), name
    v_2 = planes[PLATE_ROWS.index("v_2")]
    assert np.array_equal((dx @ v_2.ravel()).reshape(shape), grid.dcross(v))
    # without vtilde: the same rows and columns less the vtilde ones
    n = grid.nx * grid.ny
    l40 = grid.plate_operator(False)[0]
    assert l40.shape == (8 * n, 3 * n)
    assert (l40 != lmat[: 8 * n, : 3 * n]).nnz == 0
    assert (lmat_t != lmat.T).nnz == 0 and (dx_t != dx.T).nnz == 0
    # built once per grid instance
    assert grid.plate_operator(True)[0] is lmat


@pytest.mark.parametrize("axis", [0, 1])
def test_stencil_transposes_are_the_adjoints(square33, torus64, rng, axis):
    for grid in (square33, torus64):
        a = rng.standard_normal((grid.nx, grid.ny))
        b = rng.standard_normal((grid.nx, grid.ny))
        for d, d_t in ((grid.d1, grid.d1_t), (grid.d2, grid.d2_t)):
            lhs, rhs = np.sum(d(a, axis) * b), np.sum(a * d_t(b, axis))
            assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(d(a, axis) * b))


def test_integrate(square33, torus64):
    assert square33.integrate_values(np.ones((33, 33))) == pytest.approx(1.0)
    assert square33.integrate_values(np.zeros((33, 33))) == 0.0
    val = torus64.integrate_values(np.sin(torus64.X1) ** 2)
    assert val == pytest.approx(2.0 * np.pi**2, rel=1e-12)


def test_rank_one_identity(torus64):
    # curl^T curl (sym(grad v3 x grad v0)) = -cof(hess v0) : hess v3
    from vkshell.fields import sym_values

    g = torus64
    v0 = ScalarField.sample(g, lambda x, y: np.sin(x) * np.sin(y))
    v3 = ScalarField.sample(g, lambda x, y: np.cos(x) * np.sin(2 * y))
    lhs = curl_t_curl(
        MatrixField2(
            g,
            sym_values(grad_values(g, v3.data)[..., :, None] * grad_values(g, v0.data)[..., None, :]),
            symmetric=True,
        )
    ).data
    rhs = -np.sum(cof2_values(hessian_values(g, v0.data)) * hessian_values(g, v3.data), axis=(-2, -1))
    assert np.max(np.abs(lhs - rhs)) < 30.0 * g.dx**2


def test_csv_roundtrip(tmp_path, square33, rng):
    for data, cls in [
        (rng.standard_normal((33, 33)), ScalarField),
        (rng.standard_normal((33, 33, 2)), VectorField2),
        (rng.standard_normal((33, 33, 2, 2)), MatrixField2),
    ]:
        fld = cls(square33, data)
        path = tmp_path / f"{cls.__name__}.csv"
        save_csv(fld, path)
        back = load_csv(path, square33)
        assert np.allclose(back.data, fld.data, rtol=0, atol=0)
    header = (tmp_path / "ScalarField.csv").read_text().splitlines()[0]
    assert header == "x1,x2,c11"


def reference_csv(fld, labels):
    """The plain writer: one f-string per value, row-major over nodes."""
    grid = fld.grid
    comps = fld.data.reshape(grid.nx, grid.ny, -1)
    lines = [",".join(["x1", "x2"] + labels)]
    for i in range(grid.nx):
        for j in range(grid.ny):
            vals = [grid.x1[i], grid.x2[j]] + list(comps[i, j])
            lines.append(",".join(f"{v:.17g}" for v in vals))
    return "\n".join(lines) + "\n"


def test_save_csv_format_is_the_per_value_reference(tmp_path, rng):
    cases = [
        (ScalarField, (), ["c11"]),
        (VectorField2, (2,), ["c11", "c12"]),
        (MatrixField2, (2, 2), ["c11", "c12", "c21", "c22"]),
        (MatrixField3, (3, 3), ["c11", "c12", "c13", "c21", "c22", "c23", "c31", "c32", "c33"]),
    ]
    # a ghost grid, and a non-square torus whose x1 runs to 2 pi - dx
    grids = [
        Grid2D(9, 11, (-0.3, 1.7, 0.0, 2.0), bc=DIRICHLET),
        Grid2D(8, 12, (0.0, TWO_PI, -1.0, 1.0), bc=PERIODIC),
    ]
    for grid in grids:
        for cls, suffix, labels in cases:
            shape = (grid.nx, grid.ny) + suffix
            # mixed magnitudes and signs, exact integers, signed zeros, subnormals
            data = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            flat = data.reshape(-1)
            flat[:6] = [0.0, -0.0, 1.0, -3.0, 5e-324, 0.1]
            fld = cls(grid, data)
            path = tmp_path / f"{cls.__name__}_{grid.bc}.csv"
            save_csv(fld, str(path))
            assert path.read_bytes() == reference_csv(fld, labels).encode("utf-8"), (cls.__name__, grid)
            back = load_csv(path, grid)
            assert type(back) is cls
            assert np.array_equal(back.data, fld.data)
    # VectorField3 shares the writer; its three components round-trip too
    fld = VectorField3(grid, rng.standard_normal((grid.nx, grid.ny, 3)))
    save_csv(fld, tmp_path / "v3.csv")
    assert np.array_equal(load_csv(tmp_path / "v3.csv", grid).data, fld.data)


@pytest.mark.parametrize(
    "grid",
    [
        Grid2D(17, 33, (0.0, 1.0, 0.0, 2.0), bc=DIRICHLET),
        Grid2D(16, 17, (0.0, TWO_PI, 0.0, TWO_PI), bc=PERIODIC),
    ],
    ids=["ghost", "periodic"],
)
def test_eigenbasis_diagonalizes_the_weighted_stencil_form(grid):
    weights = []
    for axis, (n, h) in enumerate(((grid.nx, grid.dx), (grid.ny, grid.dy))):
        w1 = np.full(n, h)
        if not grid.periodic:
            w1[0] = w1[-1] = 0.5 * h
        weights.append(w1)
        for order in (1, 2):
            lam, v = grid.eigenbasis(axis, order)
            d = grid._mat(axis, order).toarray()
            gram = v.T @ (w1[:, None] * v)
            form = (d @ v).T @ (w1[:, None] * (d @ v))
            assert np.max(np.abs(gram - np.eye(n))) < 1e-12
            assert np.max(np.abs(form - np.diag(lam))) < 1e-12 * lam[-1]
            assert np.all(np.diff(lam) >= 0.0) and lam[0] == 0.0
            # the kernel basis starts with the constant
            assert np.ptp(v[:, 0]) < 1e-10 * np.max(np.abs(v[:, 0]))
            if order == 2 and not grid.periodic:
                # then the centered coordinate, W1-orthogonal to the constant
                x = grid.x1 if axis == 0 else grid.x2
                xc = x - np.dot(w1, x) / w1.sum()
                assert lam[1] == 0.0 and lam[2] > 0.0
                assert abs(abs(np.dot(w1 * xc, v[:, 1])) / np.sqrt(np.dot(w1 * xc, xc)) - 1.0) < 1e-10
            assert grid.eigenbasis(axis, order) is grid.eigenbasis(axis, order)
    # the 1d weights are the ones behind quad_weights
    assert np.allclose(np.outer(*weights), grid.quad_weights, rtol=1e-15, atol=0.0)
