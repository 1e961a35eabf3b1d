import numpy as np
import pytest

from vkshell import energy as en
from vkshell import fields
from vkshell.fields import (
    DIRICHLET,
    PERIODIC,
    Grid2D,
    ScalarField,
    VectorField2,
    cof2_values,
    grad_values,
    hessian_values,
    sym_grad_values,
    sym_values,
)
from vkshell.growth import GrowthFields, growth_preset
from vkshell.cli import brute_force_q2


@pytest.fixture
def unit_square():
    return Grid2D(16, 16, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET)


def kappa_only(grid, tan):
    kap = np.zeros((grid.nx, grid.ny, 3, 3))
    kap[..., :2, :2] = tan
    return GrowthFields.from_arrays(grid, np.zeros_like(kap), kap)


def test_material_constants():
    m = en.Material(1.0, 1.0)
    assert m.nu == pytest.approx(0.25)
    assert m.young == pytest.approx(2.5)
    assert m.bending == pytest.approx(m.young / (12 * (1 - m.nu**2)))
    with pytest.raises(ValueError):
        en.Material(-1.0, 1.0)
    # plane-stress identity: Q2 closed form equals (lam + 2 mu)/12 bending scale
    assert m.bending == pytest.approx((m.lam_plane + 2 * m.mu) / 12.0)


@pytest.mark.parametrize("mu, lam", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)])
def test_material_rejects_non_finite_constants(mu, lam):
    # an infinite mu would make young and bending nan
    with pytest.raises(ValueError, match="finite"):
        en.Material(mu, lam)


def test_q3():
    m = en.Material(1.0, 1.0)
    assert en.q3(np.zeros((3, 3)), m) == 0.0
    skew = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
    assert en.q3(skew, m) < 1e-14
    assert en.q3(np.eye(3), m) == pytest.approx(15.0)
    # finite-difference second derivative of W at the identity matches q3
    from vkshell.shell3d import density_W

    rng = np.random.default_rng(0)
    f = rng.standard_normal((3, 3))
    t = 1e-5
    d2w = (density_W(np.eye(3) + t * f, m) - 2 * density_W(np.eye(3), m) + density_W(np.eye(3) - t * f, m)) / t**2
    assert d2w == pytest.approx(en.q3(f, m), rel=1e-4)


def test_q2_closed_form_and_minimizer():
    m = en.Material(1.0, 1.0)
    val, c = en.q2(np.zeros((2, 2)), m)
    assert val == 0.0 and np.allclose(c, 0.0)
    val, c = en.q2(np.eye(2), m)
    assert val == pytest.approx(20.0 / 3.0)
    assert np.allclose(c, [0.0, 0.0, -1.0 / 3.0])
    m0 = en.Material(1.0, 0.0)
    val0, c0 = en.q2(np.eye(2), m0)
    assert val0 == pytest.approx(4.0) and np.allclose(c0, 0.0)
    # c is linear in F2
    rng = np.random.default_rng(1)
    f, g = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    _, cf = en.q2(f, m)
    _, cg = en.q2(g, m)
    _, cfg = en.q2(2.0 * f - 3.0 * g, m)
    assert np.allclose(cfg, 2.0 * cf - 3.0 * cg, atol=1e-13)
    # the closed form never exceeds q3 of a competitor completion
    for _ in range(50):
        f2 = rng.standard_normal((2, 2))
        cc = rng.standard_normal(3)
        f3 = np.zeros((3, 3))
        f3[:2, :2] = f2
        f3 += np.multiply.outer(cc, np.eye(3)[2]) + np.multiply.outer(np.eye(3)[2], cc)
        assert en.q2(f2, m)[0] <= en.q3(f3, m) + 1e-12


def test_q2_brute_force_oracle(rng):
    # nested grid refinement with parabolic polish confirms the closed form
    for _ in range(25):
        mu, lam = rng.uniform(0.5, 5.0, size=2)
        m = en.Material(mu, lam)
        f2 = rng.standard_normal((2, 2))
        val, _ = en.q2(f2, m)
        assert abs(val - brute_force_q2(f2, m)) <= 1e-8 * max(abs(val), 1e-12)


def test_warping_l():
    only2x2 = np.zeros((3, 3))
    only2x2[:2, :2] = np.arange(4).reshape(2, 2)
    assert np.allclose(en.warping_l(only2x2), 0.0)
    assert np.allclose(en.warping_l(np.multiply.outer(np.eye(3)[2], np.eye(3)[2])), [0, 0, 1])
    f = np.multiply.outer(np.eye(3)[0], np.eye(3)[2]) + 2.0 * np.multiply.outer(np.eye(3)[2], np.eye(3)[0])
    assert np.allclose(en.warping_l(f), [3, 0, 0])
    # defining relation: sym(F - (F_2x2)^*) = sym(l(F) x e3)
    rng = np.random.default_rng(2)
    fr = rng.standard_normal((3, 3))
    l = en.warping_l(fr)
    lhs = fr.copy()
    lhs[:2, :2] = 0.0
    lhs = 0.5 * (lhs + lhs.T)
    rhs = 0.5 * (np.multiply.outer(l, np.eye(3)[2]) + np.multiply.outer(np.eye(3)[2], l))
    assert np.allclose(lhs, rhs)


def test_energy_i40_hand_values(unit_square):
    grid = unit_square
    m0 = en.Material(1.0, 0.0)
    g0 = GrowthFields.zeros(grid)
    s0 = en.PlateState.zeros(grid)
    assert en.energy_i40(s0, g0, m0) == 0.0
    # constant bending growth kappa_tan = Id2: (1/24) Q2(Id2) = 1/6
    gk = kappa_only(grid, np.tile(np.eye(2), (grid.nx, grid.ny, 1, 1)))
    assert en.energy_i40(s0, gk, m0) == pytest.approx(1.0 / 6.0, rel=1e-12)
    # stretching cancels, bending = 1/12
    v = ScalarField.sample(grid, lambda x, y: x * x / 2)
    w = VectorField2(grid, np.stack([-grid.X1**3 / 6, np.zeros_like(grid.X1)], axis=-1))
    val = en.energy_i40(en.PlateState(w, v), g0, m0)
    assert val == pytest.approx(1.0 / 12.0, rel=5.0 * grid.dx**2)


def test_energy_i41(unit_square, rng):
    grid = unit_square
    m0 = en.Material(1.0, 0.0)
    g0 = GrowthFields.zeros(grid)
    v0 = ScalarField.sample(grid, lambda x, y: x * y)
    # rest state of the blooming model
    rest = en.PlateState(VectorField2.zeros(grid), v0)
    assert en.energy_i41(rest, g0, m0, v0) == pytest.approx(0.0, abs=1e-20)
    # bit-for-bit collapse at v0 = 0
    s = en.PlateState.random(grid, rng, 0.7)
    assert en.energy_i41(s, g0, m0, ScalarField.zeros(grid)) == en.energy_i40(s, g0, m0)
    # hand quadrature: v = w = 0, v0 = x1 x2
    zero = en.PlateState.zeros(grid)
    # stretching: 1/2 int Q2(-1/2 grad v0 x grad v0) = 1/4 int (x1^2+x2^2)^2 / 2
    stretch = 0.25 * (1.0 / 5.0 + 2.0 / 9.0 + 1.0 / 5.0)
    bend = 4.0 / 24.0
    # trapezoid error on the quartic integrand is O(dx^2)
    assert en.energy_i41(zero, g0, m0, v0) == pytest.approx(stretch + bend, rel=2 * grid.dx**2)


def test_energy_i4inf(unit_square, rng):
    grid = unit_square
    m0 = en.Material(1.0, 0.0)
    g0 = GrowthFields.zeros(grid)
    z = ScalarField.zeros(grid)
    s0 = en.PlateState.zeros(grid, vtilde=True)
    assert en.energy_i4inf(s0, g0, m0, z, 1.0) == (0.0, 0.0)
    # collapse: v0 = vtilde = 0
    s = en.PlateState.random(grid, rng, 0.4, vtilde=True)
    e_inf, resid = en.energy_i4inf(s, g0, m0, z, 7.0)
    s40 = en.PlateState(s.w, s.v)
    assert e_inf == en.energy_i40(s40, g0, m0)
    assert resid == 0.0
    # harmonic deflection on the paraboloid: stretching 1/4, residual ~ 0
    v0 = ScalarField.sample(grid, lambda x, y: (x * x + y * y) / 2)
    vx = ScalarField.sample(grid, lambda x, y: x + 0 * y)
    sh = en.PlateState(VectorField2.zeros(grid), vx, ScalarField.zeros(grid))
    e, r = en.energy_i4inf(sh, g0, m0, v0, 100.0)
    assert e == pytest.approx(0.25, rel=1e-10)
    assert r < 1e-10


def test_translation_invariance(unit_square, rng):
    grid = unit_square
    m = en.Material(1.4, 0.6)
    g0 = GrowthFields.zeros(grid)
    s = en.PlateState.random(grid, rng, 0.5, vtilde=True)
    v0 = ScalarField.sample(grid, lambda x, y: 0.3 * x * y)
    shifted = en.PlateState(
        VectorField2(grid, s.w.data + np.array([0.7, -1.2])),
        ScalarField(grid, s.v.data + 2.5),
        ScalarField(grid, s.vtilde.data - 0.4),
    )
    for functional, v0arg in ((en.I40, None), (en.I41, v0), (en.I4INF, v0)):
        if functional == en.I4INF:
            a = en.energy_i4inf(s, g0, m, v0arg, 3.0)[0]
            b = en.energy_i4inf(shifted, g0, m, v0arg, 3.0)[0]
        else:
            s2 = en.PlateState(s.w, s.v)
            sh2 = en.PlateState(shifted.w, shifted.v)
            a = en.total_energy(functional, s2, g0, m, v0arg)
            b = en.total_energy(functional, sh2, g0, m, v0arg)
        assert b == pytest.approx(a, rel=1e-11)


def test_vk_gauge_invariance_exact_on_ghost_grid(unit_square, rng):
    # the affine-deflection gauge with its compensating quadratic is an exact
    # symmetry of the discrete stretching on ghost-mode grids
    grid = unit_square
    m = en.Material(1.0, 1.0)
    g0 = GrowthFields.zeros(grid)
    s = en.PlateState.random(grid, rng, 0.5)
    b = np.array([0.3, -0.8])
    bx = b[0] * grid.X1 + b[1] * grid.X2
    w2 = s.w.data.copy()
    for i in range(2):
        w2[..., i] -= s.v.data * b[i] + 0.5 * bx * b[i]
    gauged = en.PlateState(VectorField2(grid, w2), ScalarField(grid, s.v.data + bx))
    assert en.energy_i40(gauged, g0, m) == pytest.approx(en.energy_i40(s, g0, m), rel=1e-12)


def test_nonnegativity(rng, unit_square):
    grid = unit_square
    m = en.Material(0.9, 2.0)
    kap = rng.standard_normal((grid.nx, grid.ny, 3, 3))
    eps = rng.standard_normal((grid.nx, grid.ny, 3, 3))
    g = GrowthFields.from_arrays(grid, eps, kap)
    v0 = ScalarField.sample(grid, lambda x, y: 0.5 * (x * x - y * y))
    for _ in range(5):
        s = en.PlateState.random(grid, rng, 1.0, vtilde=True)
        assert en.energy_i4inf(s, g, m, v0, 2.0)[0] >= 0.0
        s40 = en.PlateState(s.w, s.v)
        assert en.energy_i40(s40, g, m) >= 0.0
        assert en.energy_i41(s40, g, m, v0) >= 0.0


@pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC])
@pytest.mark.parametrize("functional", [en.I40, en.I41, en.I4INF])
def test_gradient_matches_finite_differences(bc, functional, rng):
    domain = (0.0, 1.0, 0.0, 1.0) if bc == DIRICHLET else (0.0, 2 * np.pi, 0.0, 2 * np.pi)
    grid = Grid2D(16, 16, domain, bc=bc)
    m = en.Material(1.3, 0.7)
    eps = 0.1 * rng.standard_normal((grid.nx, grid.ny, 3, 3))
    kap = 0.1 * rng.standard_normal((grid.nx, grid.ny, 3, 3))
    g = GrowthFields.from_arrays(grid, eps, kap)
    v0 = ScalarField(grid, 0.4 * np.sin(grid.X1) * np.sin(grid.X2))
    s = en.PlateState.random(grid, rng, 0.5, vtilde=functional == en.I4INF)
    d = en.PlateState.random(grid, rng, 1.0, vtilde=functional == en.I4INF)
    x, dd = s.flatten(), d.flatten()
    energy, grad = en.grad_energy(functional, x, g, m, v0, penalty=1.5)
    # one pass, one quadrature: the energy is total_energy's to the last bit
    assert energy == en.total_energy(functional, s, g, m, v0, 1.5)
    assert grad.shape == x.shape
    t = 1e-5

    def e_at(xx):
        return en.total_energy(functional, en.PlateState.unflatten(xx, grid), g, m, v0, 1.5)

    fd = (e_at(x + t * dd) - e_at(x - t * dd)) / (2 * t)
    assert abs(float(np.dot(grad, dd)) - fd) / abs(fd) < 1e-6


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _stack_q2(f, m):
    s = sym_values(f)
    tr = np.trace(f, axis1=-2, axis2=-1)
    return 2.0 * m.mu * np.sum(s * s, axis=(-2, -1)) + m.lam_plane * tr * tr


def _sym_tan(m):
    return sym_values(m.data)[..., :2, :2]


def _stack_integrands(functional, s, g, v0):
    """S, K and the constraint residual r (None but for I4INF) built on
    (..., 2, 2) stacks, term by term as the functionals define them."""
    grid = s.grid
    dv = grad_values(grid, s.v.data)
    stretch = sym_grad_values(grid, s.w.data) + 0.5 * _outer(dv, dv) - _sym_tan(g.eps_g)
    bend = hessian_values(grid, s.v.data) + _sym_tan(g.kappa_g)
    r = None
    dv0 = grad_values(grid, v0.data)
    if functional == en.I41:
        stretch = stretch - 0.5 * _outer(dv0, dv0)
        bend = bend - hessian_values(grid, v0.data)
    elif functional == en.I4INF:
        stretch = stretch + sym_values(_outer(grad_values(grid, s.vtilde.data), dv0))
        hv0 = hessian_values(grid, v0.data)
        r = np.sum(cof2_values(hv0) * hessian_values(grid, s.v.data), axis=(-2, -1))
    return stretch, bend, r


@pytest.mark.parametrize("bc", [DIRICHLET, PERIODIC])
@pytest.mark.parametrize("functional", [en.I40, en.I41, en.I4INF])
def test_plane_integrands_match_the_stack_formulas(bc, functional, rng):
    domain = (0.0, 1.0, 0.0, 1.0) if bc == DIRICHLET else (0.0, 2 * np.pi, 0.0, 2 * np.pi)
    grid = Grid2D(16, 18, domain, bc=bc)
    m = en.Material(1.3, 0.7)
    eps = 0.1 * rng.standard_normal((grid.nx, grid.ny, 3, 3))
    kap = 0.1 * rng.standard_normal((grid.nx, grid.ny, 3, 3))
    g = GrowthFields.from_arrays(grid, eps, kap)
    v0 = ScalarField(grid, 0.4 * np.sin(grid.X1) * np.sin(grid.X2))
    s = en.PlateState.random(grid, rng, 0.5, vtilde=functional == en.I4INF)
    stretch, bend, r = _stack_integrands(functional, s, g, v0)
    penalty = 1.5 if functional == en.I4INF else 0.0
    ref = grid.integrate_values(0.5 * _stack_q2(stretch, m) + _stack_q2(bend, m) / 24.0)
    if r is not None:
        ref += penalty * grid.integrate_values(r * r)
    assert abs(en.total_energy(functional, s, g, m, v0, penalty) - ref) <= 1e-14 * abs(ref)
    assert abs(en.grad_energy(functional, s.flatten(), g, m, v0, penalty)[0] - ref) <= 1e-14 * abs(ref)
    got_s, got_k, got_r = en._integrands(functional, *en._stencil_planes(s), g, en._v0_planes(functional, v0))
    for got, want in ((fields.sym_stack(*got_s), stretch), (fields.sym_stack(*got_k), bend), (got_r, r)):
        if want is None:
            assert got is None
        else:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_grad_energy_applies_no_per_axis_stencil(square33, rng, monkeypatch):
    # one product by the plate derivative operator forms the planes and one by
    # its transpose the gradient; the operator is built once per grid
    grid = square33
    g = growth_preset("kappa_sine", grid, 1.0)
    m = en.Material(1.0, 1.0)
    x = en.PlateState.random(grid, rng, 0.1).flatten()
    calls = {"stencil": 0, "build": 0}
    for name in ("d1", "d2", "d1_t", "d2_t"):
        orig = getattr(Grid2D, name)

        def counted(self, a, axis, _orig=orig):
            calls["stencil"] += 1
            return _orig(self, a, axis)

        monkeypatch.setattr(Grid2D, name, counted)
    build = fields.plate_derivative_matrix

    def counted_build(*a, **k):
        calls["build"] += 1
        return build(*a, **k)

    monkeypatch.setattr(fields, "plate_derivative_matrix", counted_build)
    for evals in (1, 2, 3):
        en.grad_energy(en.I40, x, g, m)
        assert calls["stencil"] <= evals
        assert calls["build"] == 1


def test_gradient_orthogonal_to_gauge_modes(unit_square, rng):
    # constants in v and w, plus the affine deflection with compensating w
    from vkshell.solver import gauge_fix

    grid = unit_square
    m = en.Material(1.1, 0.9)
    g0 = GrowthFields.zeros(grid)
    s = gauge_fix(en.PlateState.random(grid, rng, 0.5))
    _, grad = en.grad_energy(en.I40, s.flatten(), g0, m)
    scale = float(np.linalg.norm(grad)) + 1.0
    ones_v = en.PlateState(VectorField2.zeros(grid), ScalarField.sample(grid, lambda x, y: 1.0 + 0 * x))
    ones_w = en.PlateState(VectorField2(grid, np.ones((grid.nx, grid.ny, 2))), ScalarField.zeros(grid))
    for a in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        ax = a[0] * grid.X1 + a[1] * grid.X2
        dw = np.empty((grid.nx, grid.ny, 2))
        for i in range(2):
            dw[..., i] = -s.v.data * a[i]
        affine = en.PlateState(VectorField2(grid, dw), ScalarField(grid, ax))
        assert abs(np.dot(grad, affine.flatten())) / scale < 1e-10
    for mode in (ones_v, ones_w):
        assert abs(np.dot(grad, mode.flatten())) / scale < 1e-10


def test_zero_state_zero_growth_gradient(unit_square):
    x = en.PlateState.zeros(unit_square).flatten()
    _, g = en.grad_energy(en.I40, x, GrowthFields.zeros(unit_square), en.Material(1.0, 1.0))
    assert np.max(np.abs(g)) == 0.0


def test_variant_mismatch_errors(unit_square):
    g, m, v0 = GrowthFields.zeros(unit_square), en.Material(1, 1), ScalarField.zeros(unit_square)
    s = en.PlateState.zeros(unit_square, vtilde=False)
    with pytest.raises(ValueError):
        en.energy_i4inf(s, g, m, v0)
    sf = en.PlateState.zeros(unit_square, vtilde=True)
    with pytest.raises(ValueError):
        en.energy_i40(sf, g, m)
    # a flat state must have its functional's length: 3 n, or 4 n for I4INF
    n = unit_square.nx * unit_square.ny
    for functional, size, want in ((en.I4INF, 3 * n, 4 * n), (en.I40, 4 * n, 3 * n),
                                   (en.I40, 5 * n, 3 * n), (en.I4INF, 5 * n, 4 * n)):
        with pytest.raises(ValueError, match=f"has {want} values, not {size}"):
            en.grad_energy(functional, np.zeros(size), g, m, v0)


def test_unflatten_reads_the_kind_from_the_length(unit_square, rng):
    grid = unit_square
    n = grid.nx * grid.ny
    for vtilde in (False, True):
        s = en.PlateState.random(grid, rng, 0.5, vtilde=vtilde)
        back = en.PlateState.unflatten(s.flatten(), grid)
        assert (back.vtilde is not None) == vtilde
        assert np.array_equal(back.flatten(), s.flatten())
    # any other length is an error, not a state built from a prefix
    for size in (2 * n, 3 * n + 1, 5 * n):
        with pytest.raises(ValueError, match=f"{3 * n} or {4 * n} values"):
            en.PlateState.unflatten(np.zeros(size), grid)


@pytest.mark.parametrize("vtilde", [False, True])
def test_random_state_keeps_its_seeded_draws(vtilde):
    # seeded `init: random` runs rest on this: amplitude times the generator's
    # standard normal draws, taken in the order w, v, vtilde
    grid = Grid2D(9, 8, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET)
    a = 0.3
    s = en.PlateState.random(grid, np.random.default_rng(4), a, vtilde=vtilde)
    ref = np.random.default_rng(4)
    draws = [ref.standard_normal((9, 8, 2)), ref.standard_normal((9, 8))]
    if vtilde:
        draws.append(ref.standard_normal((9, 8)))
    assert (s.vtilde is not None) == vtilde
    assert np.array_equal(s.flatten(), np.concatenate([a * d.ravel() for d in draws]))
