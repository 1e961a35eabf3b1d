import inspect

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vkshell import energy as en
from vkshell import fields
from vkshell import solver as so
from vkshell.fields import (
    DIRICHLET,
    PERIODIC,
    Grid2D,
    MatrixField2,
    ScalarField,
    VectorField2,
    airy_bracket,
    bracket_values,
    curl_t_curl,
    det2_values,
    hessian_values,
    sym_grad_values,
)
from vkshell.growth import GrowthFields, growth_preset, lambda_g, omega_g

TWO_PI = 2.0 * np.pi


# -- gauge fixing ---------------------------------------------------------------

def test_gauge_fix_removes_affine_and_rotation(square33):
    grid = square33
    v = ScalarField.sample(grid, lambda x, y: 3.0 + x)
    s = so.gauge_fix(en.PlateState(VectorField2.zeros(grid), v))
    assert np.max(np.abs(s.v.data)) < 1e-12
    # the compensating quadratic lands in w
    assert np.max(np.abs(s.w.data)) > 0.0
    rot = VectorField2(grid, np.stack([-grid.X2, grid.X1], axis=-1))
    s2 = so.gauge_fix(en.PlateState(rot, ScalarField.zeros(grid)))
    assert np.max(np.abs(s2.w.data)) < 1e-12


def test_gauge_fix_idempotent_and_energy_neutral(square33, rng):
    grid = square33
    s = en.PlateState.random(grid, rng, 0.5, vtilde=True)
    f1 = so.gauge_fix(s)
    f2 = so.gauge_fix(f1)
    for a, b in ((f1.v, f2.v), (f1.w, f2.w), (f1.vtilde, f2.vtilde)):
        assert np.max(np.abs(a.data - b.data)) < 1e-13
    # gauge conditions hold
    assert abs(f1.v.data.mean()) < 1e-13
    assert abs(grid.d1(f1.v.data, 0).mean()) < 1e-12
    assert np.max(np.abs(f1.w.data.mean(axis=(0, 1)))) < 1e-13
    assert abs((grid.d1(f1.w.data[..., 1], 0) - grid.d1(f1.w.data[..., 0], 1)).mean()) < 1e-12
    # energy is unchanged exactly on ghost-mode grids
    m = en.Material(1.0, 1.0)
    g0 = GrowthFields.zeros(grid)
    s40 = en.PlateState(s.w, s.v)
    f40 = en.PlateState(f1.w, f1.v)
    assert en.energy_i40(f40, g0, m) == pytest.approx(en.energy_i40(s40, g0, m), rel=1e-12)


def test_gauge_fix_periodic_means(torus64, rng):
    s = en.PlateState.random(torus64, rng, 1.0)
    f = so.gauge_fix(s)
    assert abs(f.v.data.mean()) < 1e-14
    assert np.max(np.abs(f.w.data.mean(axis=(0, 1)))) < 1e-14


# -- biharmonic solve -------------------------------------------------------------

def test_biharmonic_zero_rhs(torus64):
    out = so.solve_biharmonic(ScalarField.zeros(torus64))
    assert np.max(np.abs(out.data)) == 0.0


def test_biharmonic_discrete_symbol_oracle(torus64):
    # sin(k x) is a discrete eigenfunction with symbol ((2 - 2 cos(k dx))/dx^2)^2
    grid = torus64
    for k in (1, 2):
        rhs = ScalarField(grid, np.sin(k * grid.X1))
        u = so.solve_biharmonic(rhs)
        sym = (2.0 - 2.0 * np.cos(k * grid.dx)) / grid.dx**2
        assert np.max(np.abs(u.data - rhs.data / sym**2)) < 1e-10
    # continuum symbol k^4 is approached at O(dx^2)
    rhs = ScalarField(grid, np.sin(2 * grid.X1))
    u = so.solve_biharmonic(rhs)
    assert np.max(np.abs(u.data - np.sin(2 * grid.X1) / 16.0)) < 10.0 * grid.dx**2


@pytest.mark.parametrize("shape", [(45, 32), (32, 45)])
def test_biharmonic_discrete_symbol_oracle_odd_and_non_square(shape):
    # plane waves, the Nyquist mode of the even axis included, on tori whose
    # real-FFT half spectrum has an odd or an even last axis
    nx, ny = shape
    grid = Grid2D(nx, ny, (0.0, TWO_PI, 0.0, 3.0), bc=PERIODIC)
    lap1 = lambda k, h: (2.0 - 2.0 * np.cos(k * h)) / h**2
    nyquist = (16, 4) if nx == 32 else (4, 16)
    for k1, k2 in ((1, 0), (0, 2), (3, 5), nyquist):
        rhs = np.cos(k1 * grid.X1 + k2 * TWO_PI / 3.0 * grid.X2 + 0.3)
        sym = lap1(k1, grid.dx) + lap1(k2 * TWO_PI / 3.0, grid.dy)
        want = rhs / sym**2
        u = so.solve_biharmonic(ScalarField(grid, rhs))
        assert np.max(np.abs(u.data - want)) < 1e-10 * np.max(np.abs(want)), (k1, k2)


def test_biharmonic_residual_postcondition(torus64, rng):
    raw = rng.standard_normal((torus64.nx, torus64.ny))
    u = so.solve_biharmonic(ScalarField(torus64, raw))
    b = raw - raw.mean()
    r = np.linalg.norm(torus64.bilap(u.data) - b) / np.linalg.norm(b)
    assert r <= 1e-8
    assert abs(u.data.mean()) < 1e-12


def test_biharmonic_rejects_ghost_grids(square33):
    with pytest.raises(ValueError):
        so.solve_biharmonic(ScalarField.zeros(square33))


def test_biharmonic_inverts_the_operator(torus64, rng):
    # solve_biharmonic composed with the bilaplacian is the identity on
    # zero-mean fields, to roundoff amplified by the operator's conditioning
    u = rng.standard_normal((torus64.nx, torus64.ny))
    u -= u.mean()
    back = so.solve_biharmonic(ScalarField(torus64, torus64.bilap(u)))
    assert np.max(np.abs(back.data - u)) < 1e-8 * np.max(np.abs(u))


# -- the mixed-type solve ----------------------------------------------------------

def fine_poisson_reference(n_fine, f_fn):
    # independent 5-point Dirichlet Poisson assembly on [0,1]^2
    g = Grid2D(n_fine, n_fine, (0, 1, 0, 1), bc=DIRICHLET)
    m = n_fine - 2
    idx = -np.ones((n_fine, n_fine), dtype=int)
    idx[1:-1, 1:-1] = np.arange(m * m).reshape(m, m)
    rows, cols, vals = [], [], []
    h2 = g.dx**2
    for i in range(1, n_fine - 1):
        for j in range(1, n_fine - 1):
            r = idx[i, j]
            rows += [r]
            cols += [r]
            vals += [-4.0 / h2]
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                t = idx[i + di, j + dj]
                if t >= 0:
                    rows += [r]
                    cols += [t]
                    vals += [1.0 / h2]
    a = sp.csr_matrix((vals, (rows, cols)), shape=(m * m, m * m))
    rhs = f_fn(g.X1, g.X2)[1:-1, 1:-1].ravel()
    u = np.zeros((n_fine, n_fine))
    u[1:-1, 1:-1] = spla.spsolve(a, rhs).reshape(m, m)
    return g, u


def test_solve_mystery_trivial(square33):
    v0 = ScalarField.sample(square33, lambda x, y: (x * x + y * y) / 2)
    v, w = so.solve_mystery(v0, MatrixField2.zeros(square33))
    assert np.max(np.abs(v.data)) < 1e-12
    assert np.max(np.abs(w.data)) < 1e-12


def test_solve_mystery_matches_fine_poisson(square33):
    # paraboloid reference: cof(hess v0) = Id, so the equation is Delta v = -1
    grid = square33
    v0 = ScalarField.sample(grid, lambda x, y: (x * x + y * y) / 2)
    b = np.zeros((grid.nx, grid.ny, 2, 2))
    b[..., 0, 0] = grid.X2**2 / 2
    v, _ = so.solve_mystery(v0, MatrixField2(grid, b))
    gf, uf = fine_poisson_reference(129, lambda x, y: -np.ones_like(x))
    stride = (129 - 1) // (grid.nx - 1)
    ref = uf[::stride, ::stride]
    assert np.max(np.abs(v.data - ref)) < 5.0 * grid.dx**2


def test_solve_mystery_decomposition_residual(square33, rng):
    # manufactured smooth decomposition: B = sym grad w* + sym(grad v* x grad v0)
    grid = square33
    x, y = grid.X1, grid.X2
    v0 = ScalarField.sample(grid, lambda xx, yy: (xx * xx + yy * yy) / 2)
    vstar = np.sin(np.pi * x) * np.sin(np.pi * y) * (1.0 + 0.5 * x)
    dvs = [
        np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) * (1.0 + 0.5 * x)
        + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y),
        np.pi * np.sin(np.pi * x) * np.cos(np.pi * y) * (1.0 + 0.5 * x),
    ]
    b = np.zeros((grid.nx, grid.ny, 2, 2))
    b[..., 0, 0] = 2.0 * x * y + dvs[0] * x
    b[..., 1, 1] = x * x + dvs[1] * y
    b[..., 0, 1] = 0.5 * (x * x + 2.0 * x * y) + 0.5 * (dvs[0] * y + dvs[1] * x)
    b[..., 1, 0] = b[..., 0, 1]
    bf = MatrixField2(grid, b, symmetric=True)
    v, w = so.solve_mystery(v0, bf)
    assert np.max(np.abs(v.data - vstar)) < 10.0 * grid.dx**2
    dv = np.stack([grid.d1(v.data, 0), grid.d1(v.data, 1)], axis=-1)
    dv0 = np.stack([grid.d1(v0.data, 0), grid.d1(v0.data, 1)], axis=-1)
    e = bf.data - 0.5 * (dv[..., :, None] * dv0[..., None, :] + dv0[..., :, None] * dv[..., None, :])
    resid = grid.norm_l2(curl_t_curl(MatrixField2(grid, e, symmetric=True)).data)
    assert resid < 300.0 * grid.dx**2
    # the least-squares displacement realizes the remaining strain; the line
    # integration it replaced sat at 59.7 dx^2
    assert np.max(np.abs(sym_grad_values(grid, w.data) - e)) < 10.0 * grid.dx**2


def test_solve_mystery_rejects_degenerate(square33):
    saddle = ScalarField.sample(square33, lambda x, y: x * y)
    with pytest.raises(so.EllipticityError):
        so.solve_mystery(saddle, MatrixField2.zeros(square33))


# -- the least-squares inverse of the discrete symmetric gradient ---------------

SYM_GRAD_GRIDS = {
    "ghost 33x33": (33, 33, (0.0, 1.0, 0.0, 1.0), DIRICHLET),
    "ghost 33x29": (33, 29, (0.0, 1.0, 0.0, 0.8), DIRICHLET),
    "torus 32x32": (32, 32, (0.0, TWO_PI, 0.0, TWO_PI), PERIODIC),
    "torus 31x31": (31, 31, (0.0, TWO_PI, 0.0, TWO_PI), PERIODIC),
}


@pytest.mark.parametrize("case", list(SYM_GRAD_GRIDS))
def test_solve_sym_grad_inverts_the_discrete_symmetric_gradient(case, rng):
    # every discrete symmetric gradient, even of a rough w*, is matched to
    # roundoff: the line integration it replaced left O(dx^2)
    nx, ny, domain, bc = SYM_GRAD_GRIDS[case]
    grid = Grid2D(nx, ny, domain, bc=bc)
    e = sym_grad_values(grid, rng.standard_normal((nx, ny, 2)))
    w = so.solve_sym_grad(grid, e[..., 0, 0], e[..., 1, 1], e[..., 0, 1])
    assert w.shape == (nx, ny, 2)
    assert np.max(np.abs(sym_grad_values(grid, w) - e)) <= 1e-12 * np.max(np.abs(e))


def test_solve_sym_grad_of_zero_is_zero(square33):
    zero = np.zeros((33, 33))
    assert not np.any(so.solve_sym_grad(square33, zero, zero, zero))


def test_solve_sym_grad_raises_when_cg_does_not_converge(square33, rng, monkeypatch):
    # an incompatible e needs more than one step: at a cap of 1 the CG stops
    # short and reports the true residual of its one step
    monkeypatch.setattr(so, "_SYM_GRAD_MAX_ITER", 1)
    e = rng.standard_normal((3, 33, 33))
    with pytest.raises(so.SolverError, match="did not converge") as info:
        so.solve_sym_grad(square33, *e)
    assert 0.0 < info.value.residual < 1.0


@pytest.mark.parametrize("case", ["ghost 33x29", "torus 32x32"])
def test_solve_sym_grad_matches_scipy_cg(case, rng):
    # the solver's own CG against scipy's on the same normal operator S* q S
    # and the same _w_blocks preconditioner, for an incompatible e
    nx, ny, domain, bc = SYM_GRAD_GRIDS[case]
    grid = Grid2D(nx, ny, domain, bc=bc)
    q, shape, n = grid.quad_weights, (nx, ny, 2), 2 * nx * ny
    inv_w = so._w_blocks(grid, 1.0, 0.5)

    def adjoint(qxx, qyy, qxy):
        return np.stack([grid.d1_t(qxx, 0) + grid.d1_t(qxy, 1), grid.d1_t(qyy, 1) + grid.d1_t(qxy, 0)], axis=-1).ravel()

    def normal(x):
        s = sym_grad_values(grid, x.reshape(shape))
        return adjoint(q * s[..., 0, 0], q * s[..., 1, 1], q * s[..., 0, 1])

    xx, yy, xy = rng.standard_normal((3, nx, ny))
    op = spla.LinearOperator((n, n), normal, dtype=float)
    pre = spla.LinearOperator((n, n), lambda r: inv_w(r.reshape(shape), np.empty(shape)).ravel(), dtype=float)
    # scipy < 1.12 names the relative tolerance `tol`
    rtol = {"rtol" if "rtol" in inspect.signature(spla.cg).parameters else "tol": so._SYM_GRAD_RTOL}
    ref, info = spla.cg(op, adjoint(q * xx, q * yy, q * xy), atol=0.0, maxiter=so._SYM_GRAD_MAX_ITER, M=pre, **rtol)
    assert info == 0
    w = so.solve_sym_grad(grid, xx, yy, xy)
    assert np.max(np.abs(w.ravel() - ref)) <= 1e-12 * np.max(np.abs(ref))


# -- minimize ----------------------------------------------------------------------

def test_minimize_trivial_zero_growth(square33):
    m = en.Material(1.0, 1.0)
    s, rep = so.minimize(en.I40, en.PlateState.zeros(square33), GrowthFields.zeros(square33), m)
    assert rep.iterations == 0
    assert rep.final_energy == 0.0
    assert rep.converged


def test_minimize_i41_rest_state(square33):
    m = en.Material(1.0, 1.0)
    grid = square33
    v0 = ScalarField.sample(grid, lambda x, y: x * y)
    init = en.PlateState(VectorField2.zeros(grid), v0)
    s, rep = so.minimize(en.I41, init, GrowthFields.zeros(grid), m, v0=v0)
    assert rep.final_energy < 1e-20
    assert rep.converged


def test_minimize_constant_kappa_global_minimum(rng):
    # constant bending growth on the torus cannot be matched by any periodic
    # deflection: the minimum is the zero state with the residual bending value
    grid = Grid2D(16, 16, (0, TWO_PI, 0, TWO_PI), bc=PERIODIC)
    m = en.Material(1.0, 1.0)
    c = 0.05
    kap = np.zeros((16, 16, 3, 3))
    kap[..., 0, 0] = c
    kap[..., 1, 1] = c
    g = GrowthFields.from_arrays(grid, np.zeros_like(kap), kap)
    expected = en.q2(c * np.eye(2), m)[0] / 24.0 * (TWO_PI) ** 2
    _, rep = so.minimize(en.I40, en.PlateState.zeros(grid), g, m)
    assert rep.final_energy == pytest.approx(expected, rel=1e-10)
    # independent random-restart search confirms the basin is global
    best = np.inf
    for _ in range(5):
        init = en.PlateState.random(grid, rng, 0.2)
        _, r = so.minimize(en.I40, init, g, m)
        best = min(best, r.final_energy)
    assert abs(best - rep.final_energy) <= 0.01 * abs(rep.final_energy)


def test_minimize_descent_and_two_inits_agree(rng):
    grid = Grid2D(16, 16, (0, TWO_PI, 0, TWO_PI), bc=PERIODIC)
    m = en.Material(1.0, 1.0)
    g = growth_preset("kappa_sine", grid, 0.02)
    finals = []
    for seed in (1, 2):
        init = en.PlateState.random(grid, np.random.default_rng(seed), 0.1)
        _, rep = so.minimize(en.I40, init, g, m)
        assert rep.converged
        finals.append(rep.final_energy)
    assert abs(finals[0] - finals[1]) <= 1e-6 * (1.0 + abs(finals[0]))


def test_minimize_penalty_schedule(square33, rng):
    grid = square33
    m = en.Material(1.0, 1.0)
    g = GrowthFields.zeros(grid)
    kap = np.zeros((grid.nx, grid.ny, 3, 3))
    kap[..., 0, 0] = 0.1
    g = GrowthFields.from_arrays(grid, np.zeros_like(kap), kap)
    v0 = ScalarField.sample(grid, lambda x, y: (x * x + y * y) / 2)
    init = en.PlateState.random(grid, rng, 0.01, vtilde=True)
    opts = so.MinimizeOptions(max_iter=300, penalty_init=1.0, penalty_doublings=3)
    s, rep = so.minimize(en.I4INF, init, g, m, v0=v0, opts=opts)
    stages = rep.extras["penalty_stages"]
    assert len(stages) == 4
    resids = [st["constraint_residual"] for st in stages]
    assert all(b <= a + 1e-10 * (1 + a) for a, b in zip(resids, resids[1:]))


def test_minimize_reports_status(square33):
    m = en.Material(1.0, 1.0)
    st = en.PlateState.zeros(square33)
    _, rep = so.minimize(en.I40, st, GrowthFields.zeros(square33), m)
    assert rep.converged and rep.status == so.CONVERGED
    assert rep.to_json_dict()["status"] == so.CONVERGED
    g = growth_preset("kappa_sine", square33, 1.0)
    _, rep = so.minimize(en.I40, st, g, m, opts=so.MinimizeOptions(max_iter=5))
    assert rep.iterations == 5 and not rep.converged
    assert rep.status == so.BUDGET_EXHAUSTED
    assert rep.to_json_dict(include_wall_time=False)["status"] == so.BUDGET_EXHAUSTED


def test_lbfgs_ascent_direction_fails_the_line_search(rng):
    # an h0 that is negative definite turns -h0(g) uphill: the run stops at
    # x0 instead of substituting another direction
    def fg(x):
        return 0.5 * float(np.dot(x, x)), x.copy()

    x0 = rng.standard_normal(12)
    x, status, stats = so._lbfgs(fg, x0, 1e-8, 100, lambda q: -q)
    assert status == so.LINE_SEARCH_FAILED
    assert stats["iterations"] == 0 and stats["fg_evals"] == 1
    assert np.array_equal(x, x0)


@pytest.mark.parametrize("x0, max_iter", [(np.ones(4), 1), (np.zeros(4), 0)])
def test_lbfgs_meeting_tol_on_the_last_allowed_iteration_converges(x0, max_iter):
    # on f = |x|^2 / 2 with h0 the identity, the unit step from x0 lands on
    # g = 0; tol is tested before the budget
    def fg(x):
        return 0.5 * float(np.dot(x, x)), x.copy()

    x, status, stats = so._lbfgs(fg, x0, 1e-8, max_iter, lambda q: q)
    assert status == so.CONVERGED
    assert stats["iterations"] == max_iter and not x.any()


@pytest.mark.parametrize("functional, doublings", [(en.I40, 0), (en.I4INF, 2)])
def test_minimize_evaluates_each_stage_start_once(square33, rng, monkeypatch, functional, doublings):
    # with no iterations allowed, each penalty stage evaluates the gradient
    # only at its starting point
    calls = []
    grad_energy = en.grad_energy
    monkeypatch.setattr(en, "grad_energy", lambda *a, **k: calls.append(1) or grad_energy(*a, **k))
    m = en.Material(1.0, 1.0)
    g = growth_preset("kappa_sine", square33, 1.0)
    v0 = ScalarField.sample(square33, lambda x, y: (x * x + y * y) / 2)
    init = en.PlateState.random(square33, rng, 0.01, vtilde=functional == en.I4INF)
    opts = so.MinimizeOptions(max_iter=0, penalty_doublings=doublings)
    _, rep = so.minimize(functional, init, g, m, v0=v0, opts=opts)
    assert rep.iterations == 0
    assert len(calls) == doublings + 1


def test_minimize_builds_the_integrands_once_per_evaluation(square33, rng, monkeypatch):
    # each fg evaluation is one grad_energy pass, which also yields the energy;
    # total_energy only checks the start and prices the final state.  Each
    # pass builds the plane-form integrands once
    calls = {"integrands": 0, "grad": 0, "total": 0}

    def counted(name, fn):
        def call(*a, **k):
            calls[name] += 1
            return fn(*a, **k)
        return call

    monkeypatch.setattr(en, "_integrands", counted("integrands", en._integrands))
    monkeypatch.setattr(en, "grad_energy", counted("grad", en.grad_energy))
    monkeypatch.setattr(en, "total_energy", counted("total", en.total_energy))
    g = growth_preset("kappa_sine", square33, 1.0)
    init = en.PlateState.random(square33, rng, 0.1)
    _, rep = so.minimize(en.I40, init, g, en.Material(1.0, 1.0), opts=so.MinimizeOptions(max_iter=5))
    assert rep.iterations == 5
    assert calls["grad"] == rep.extras["penalty_stages"][0]["fg_evals"]
    assert calls["total"] == 2
    assert calls["integrands"] == calls["grad"] + calls["total"]


@pytest.mark.parametrize("functional", [en.I40, en.I4INF])
def test_minimize_builds_no_field_per_evaluation(functional, monkeypatch):
    # the L-BFGS iterate stays a flat vector: fields are built for the start,
    # each I4INF stage's residual and the final state, so more iterations
    # build no more of them
    grid = Grid2D(17, 17, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET)
    g = growth_preset("kappa_sine", grid, 1.0)
    v0 = ScalarField.sample(grid, lambda x, y: (x * x + y * y) / 2)
    init = en.PlateState.random(grid, np.random.default_rng(1), 0.1, vtilde=functional == en.I4INF)
    freeze = fields._freeze
    counts = []
    for max_iter in (2, 6):
        calls = []
        monkeypatch.setattr(fields, "_freeze", lambda *a, **k: calls.append(1) or freeze(*a, **k))
        opts = so.MinimizeOptions(max_iter=max_iter, penalty_doublings=1)
        _, rep = so.minimize(functional, init, g, en.Material(1.0, 1.0), v0=v0, opts=opts)
        assert all(row["iterations"] == max_iter for row in rep.extras["penalty_stages"])
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_flat_hessian_inverse_inverts_the_membrane_blocks(square33, rng):
    # w1 alone feels a (D_x^T W D_x) + (c/4) (D_y^T W D_y) at zero growth, the
    # w1 block of P, which the tensor-product symbols invert exactly
    grid = square33
    m = en.Material(1.0, 0.5)
    h0 = so._flat_hessian_inverse(en.I40, grid, m, None, 0.0)
    n = grid.nx * grid.ny
    for k in range(2):
        gk = rng.standard_normal((grid.nx, grid.ny))
        gk -= gk.mean()  # the range of the block: orthogonal to the constants
        g = np.zeros(3 * n)
        g[: 2 * n].reshape(grid.nx, grid.ny, 2)[..., k] = gk
        x = h0(g)
        w = np.zeros((grid.nx, grid.ny, 2))
        w[..., k] = x[: 2 * n].reshape(grid.nx, grid.ny, 2)[..., k]
        s = en.PlateState(VectorField2(grid, w), ScalarField.zeros(grid))
        back = en.grad_energy(en.I40, s.flatten(), GrowthFields.zeros(grid), m)[1][: 2 * n]
        back = back.reshape(grid.nx, grid.ny, 2)[..., k]
        assert np.max(np.abs(back - gk)) < 1e-10 * np.max(np.abs(gk))


@pytest.mark.parametrize("n", [17, 33])
def test_minimize_zero_start_converges_in_few_iterations(n):
    # plain L-BFGS took 3438 iterations at 17^2
    grid = Grid2D(n, n, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET)
    g = growth_preset("kappa_sine", grid, 1.0)
    _, rep = so.minimize(en.I40, en.PlateState.zeros(grid), g, en.Material(1.0, 1.0))
    assert rep.status == so.CONVERGED
    assert rep.iterations <= 40


def test_minimize_random_start_converges_at_33():
    # plain L-BFGS stopped at the default 1000-iteration cap here
    grid = Grid2D(33, 33, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET)
    g = growth_preset("kappa_sine", grid, 1.0)
    init = en.PlateState.random(grid, np.random.default_rng(1), 0.1)
    _, rep = so.minimize(en.I40, init, g, en.Material(1.0, 1.0))
    assert rep.status == so.CONVERGED
    assert rep.iterations < so.MinimizeOptions().max_iter


def test_minimize_i4inf_on_a_flat_v0_matches_i40():
    # v0 = 0 decouples vtilde and zeroes the constraint; its block must stay invertible
    grid = Grid2D(17, 17, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET)
    m = en.Material(1.0, 1.0)
    g = growth_preset("kappa_sine", grid, 1.0)
    v0 = ScalarField.zeros(grid)
    _, r40 = so.minimize(en.I40, en.PlateState.zeros(grid), g, m)
    opts = so.MinimizeOptions(penalty_doublings=0)
    _, rinf = so.minimize(en.I4INF, en.PlateState.zeros(grid, vtilde=True), g, m, v0=v0, opts=opts)
    assert rinf.status == so.CONVERGED
    assert rinf.final_energy == pytest.approx(r40.final_energy, rel=1e-8)


def test_minimize_nan_energy_fatal(square33):
    m = en.Material(1.0, 1.0)
    bad = en.PlateState(
        VectorField2.zeros(square33),
        ScalarField(square33, np.full((33, 33), 1.0)),
    )
    # NaN can only enter through growth data in practice; force it via a state
    # with huge values that overflow the quartic term
    huge = en.PlateState(
        VectorField2.zeros(square33),
        ScalarField(square33, np.full((33, 33), 1e200)),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(so.SolverError):
            so.minimize(en.I40, huge, GrowthFields.zeros(square33), m)
    del bad


# -- von Karman systems --------------------------------------------------------------

def test_vk_trivial(torus64):
    m = en.Material(1.0, 1.0)
    st, rep = so.solve_vk("old", GrowthFields.zeros(torus64), m)
    assert rep.iterations == 0 and rep.converged
    assert np.max(np.abs(st.v.data)) == 0.0
    assert np.max(np.abs(st.phi.data)) == 0.0


def test_vk_exact_bending_solution(torus64):
    # omega_g = sin x1, lambda_g = 0: v = -sin x1, phi = 0 for every stiffness
    g = growth_preset("omega_sine", torus64, 1.0)
    for m in (en.Material(1.0, 1.0), en.Material(2.0, 0.5)):
        st, rep = so.solve_vk("old", g, m)
        assert rep.converged
        assert np.max(np.abs(st.v.data + np.sin(torus64.X1))) <= 5.0 * torus64.dx**2
        assert np.max(np.abs(st.phi.data)) < 1e-10
        # residuals of the returned state sit below the solve tolerance
        r1, r2 = so.vk_residual(st, "old", g, m)
        scale = 1.0 + torus64.norm_l2(np.sin(torus64.X1))
        assert max(r1 / m.young, r2 / m.bending) / scale <= so.VKOptions().tol


def test_vk_new_rest_state(torus64):
    m = en.Material(1.0, 1.0)
    v0 = ScalarField(torus64, np.sin(torus64.X1))
    st, rep = so.solve_vk("new", GrowthFields.zeros(torus64), m, v0=v0)
    assert rep.iterations == 0 and rep.converged
    assert np.max(np.abs(st.v.data - (v0.data - v0.data.mean()))) == 0.0
    assert np.max(np.abs(st.phi.data)) == 0.0


def test_vk_residual_perturbation_linearization(torus64):
    # raising v by delta sin(x2) raises r2 by about Z delta |bilap sin x2|_2
    m = en.Material(1.0, 1.0)
    g = growth_preset("omega_sine", torus64, 1.0)
    st, _ = so.solve_vk("old", g, m)
    delta = 1e-4
    pert = so.VKState(ScalarField(torus64, st.v.data + delta * np.sin(torus64.X2)), st.phi)
    r1a, r2a = so.vk_residual(st, "old", g, m)
    r1b, r2b = so.vk_residual(pert, "old", g, m)
    bil = torus64.bilap(np.sin(torus64.X2))
    predicted = m.bending * delta * torus64.norm_l2(bil)
    assert r2b == pytest.approx(predicted, rel=1e-3)
    # r1 responds through the determinant cross term cof(hess v) : hess(pert)
    pred1 = m.young * delta * torus64.norm_l2(np.sin(torus64.X1) * np.sin(torus64.X2))
    assert r1b == pytest.approx(pred1, rel=1e-2)


@pytest.mark.parametrize("model", ["old", "new"])
def test_vk_residual_matches_the_bilap_and_bracket_reference(torus64, rng, model):
    g = growth_preset("kappa_sine", torus64, 0.5)
    m = en.Material(1.0, 2.0)
    v0 = ScalarField(torus64, 0.3 * np.sin(torus64.X1) * np.cos(torus64.X2))
    st = so.VKState(
        ScalarField(torus64, rng.standard_normal((64, 64))),
        ScalarField(torus64, rng.standard_normal((64, 64))),
    )
    lam, om = lambda_g(g).data, omega_g(g, m.nu).data
    det0, bilap0 = 0.0, 0.0
    if model == "new":
        det0 = det2_values(hessian_values(torus64, v0.data))
        bilap0 = torus64.bilap(v0.data)
    detv = det2_values(hessian_values(torus64, st.v.data))
    r1 = torus64.bilap(st.phi.data) + m.young * (detv - det0 + lam)
    r2 = (
        m.bending * (torus64.bilap(st.v.data) - bilap0)
        - airy_bracket(st.v, st.phi).data
        + m.bending * om
    )
    assert so.vk_residual(st, model, g, m, v0) == (torus64.norm_l2(r1), torus64.norm_l2(r2))
    r1p, r2p = r1 - r1.mean(), r2 - r2.mean()
    assert so.vk_residual(st, model, g, m, v0, project_means=True) == (
        torus64.norm_l2(r1p),
        torus64.norm_l2(r2p),
    )


def test_vk_sweep_applies_no_stencil(monkeypatch):
    # the sweep reads its hessians from the transforms of the biharmonic
    # sources and its bilaplacians are those sources: every stencil call
    # is made before the first sweep or after the last; both budgets end
    # before the 8 sweeps this solve needs
    grid = Grid2D(32, 32, (0, TWO_PI, 0, TWO_PI), bc=PERIODIC)
    g = growth_preset("kappa_sine", grid, 0.5)
    calls = [0]
    for name in ("d1", "d2"):
        orig = getattr(Grid2D, name)

        def counted(self, a, axis, _orig=orig):
            calls[0] += 1
            return _orig(self, a, axis)

        monkeypatch.setattr(Grid2D, name, counted)
    counts = []
    for sweeps in (3, 6):
        calls[0] = 0
        _, rep = so.solve_vk("old", g, en.Material(1.0, 1.0), opts=so.VKOptions(max_sweeps=sweeps))
        assert rep.iterations == sweeps and rep.status == so.BUDGET_EXHAUSTED
        counts.append(calls[0])
    assert counts[0] == counts[1]


@pytest.mark.parametrize("shape", [(64, 64), (45, 32), (32, 45)])
def test_inverse_hessian_matches_the_stencil_hessian_of_the_solve(rng, shape):
    # the composed d2x, d2y and d1x d1y symbols against the stencils applied
    # to the solution: the sign of the cross term, an odd half spectrum and
    # the Nyquist modes of the even axes
    nx, ny = shape
    grid = Grid2D(nx, ny, (0.0, TWO_PI, 0.0, 3.0), bc=PERIODIC)
    b = rng.standard_normal((nx, ny))
    b -= b.mean()
    got = so._inverse_hessian(b, so._inv_bilap_symbol(grid, hessian=True))
    h = hessian_values(grid, so.solve_biharmonic(ScalarField(grid, b)).data)
    want = (h[..., 0, 0], h[..., 1, 1], h[..., 0, 1])
    assert len(got) == 3
    for plane, ref in zip(got, want):
        assert plane.shape == (nx, ny) and plane.flags.c_contiguous
        assert np.max(np.abs(plane - ref)) <= 1e-10 * np.max(np.abs(h))


def _stack_defect(b_u, lam, om, hv0, y, z, symbols):
    """The Picard defect built on (..., 2, 2) hessian stacks with det2_values
    and bracket_values, as an independent reference for the plane form."""

    def hessian_stack(b):
        b_hat = np.fft.rfft2(b)
        h = np.empty(b.shape + (2, 2))
        for (i, k), sym in zip(((0, 0), (1, 1), (0, 1)), symbols):
            h[..., i, k] = np.fft.irfft2(b_hat * sym, s=b.shape)
        h[..., 1, 0] = h[..., 0, 1]
        return h

    hv = hessian_stack(b_u)
    b_phi = det2_values(hv) + lam
    if hv0 is not None:
        b_phi += bracket_values(hv0, hv)
        hv += hv0
    b_phi *= -y
    mean1 = float(b_phi.mean())
    b_phi -= mean1
    f = bracket_values(hv, hessian_stack(b_phi)) / z - om
    mean2 = float(f.mean())
    f -= mean2
    f -= b_u
    return f, b_phi, max(abs(mean1), abs(mean2))


@pytest.mark.parametrize("model", ["old", "new"])
def test_picard_defect_on_planes_is_bitwise_the_stack_form(torus64, rng, model):
    grid = torus64
    m = en.Material(1.0, 0.6)
    g = growth_preset("kappa_sine", grid, 0.5)
    v0 = ScalarField(grid, 0.3 * np.sin(grid.X1) * np.sin(grid.X2))
    sources = so._vk_sources(model, g, m, v0)
    lam, om, h0, _ = sources
    hv0 = None if h0 is None else hessian_values(grid, v0.data)
    symbols = so._inv_bilap_symbol(grid, hessian=True)
    b_u = 0.1 * rng.standard_normal(grid.X1.shape)
    got = so._picard_defect(b_u, lam, om, h0, m.young, m.bending, symbols)
    want = _stack_defect(b_u, lam, om, hv0, m.young, m.bending, symbols)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


def _bench_vk_grid():
    grid = Grid2D(256, 256, (0, TWO_PI, 0, TWO_PI), bc=PERIODIC)
    return grid, growth_preset("kappa_sine", grid, 0.5)


def test_vk_bench_config_converges():
    # the benchmark's solve: 256^2, a = 0.5, relaxation 0.7, tol = 1e-10
    grid, g = _bench_vk_grid()
    m = en.Material(1.0, 1.0)
    st, rep = so.solve_vk("old", g, m, opts=so.VKOptions(tol=1e-10, relaxation=0.7))
    assert rep.status == so.CONVERGED and rep.iterations <= 9
    # the stencil residual of the returned state, scaled as the sweep's
    r1, r2 = so.vk_residual(st, "old", g, m, project_means=True)
    scale = 1.0 + grid.norm_l2(lambda_g(g).data) + grid.norm_l2(omega_g(g, m.nu).data)
    assert max(r1 / m.young, r2 / m.bending) / scale <= 1.2e-8
    assert rep.extras["equation_residuals"] == dict(zip(("r1", "r2"), so.vk_residual(st, "old", g, m)))


def test_vk_stops_at_roundoff_floor():
    # at 256^2 with tol = 0 the projected residual flattens near 9e-19
    _, g = _bench_vk_grid()
    _, rep = so.solve_vk("old", g, en.Material(1.0, 1.0), opts=so.VKOptions(tol=0.0))
    assert rep.status == so.ROUNDOFF_FLOOR and not rep.converged
    assert rep.iterations <= 40
    assert rep.grad_norm <= 1.2e-8
    floor = rep.extras["roundoff_floor"]
    assert 0.9 * floor <= rep.grad_norm <= floor / 0.9
    assert "warning" not in rep.extras
    assert rep.to_json_dict()["status"] == so.ROUNDOFF_FLOOR


def test_vk_stops_on_a_scattered_floor():
    # the blooming model at 64^2 with tol = 0: Anderson steps built on
    # rounding noise scatter the residual by a factor of about 3 from sweep
    # to sweep; a floor, not a budget to exhaust
    grid = Grid2D(64, 64, (0, TWO_PI, 0, TWO_PI), bc=PERIODIC)
    g = growth_preset("omega_sine", grid, 1.0)
    v0 = ScalarField(grid, 0.3 * np.sin(grid.X1) * np.sin(grid.X2))
    opts = so.VKOptions(tol=0.0, max_sweeps=80)
    _, rep = so.solve_vk("new", g, en.Material(1.0, 1.0), v0, opts)
    assert rep.status == so.ROUNDOFF_FLOOR and rep.iterations < 80
    assert rep.extras["roundoff_floor"] < 1e-15


def test_vk_slow_contraction_exhausts_budget(torus64):
    # relaxation 0.05 damps every step; Anderson mixing needs 11 sweeps
    # here, so a budget of 8 runs out first, while the residual still falls:
    # slow, not a floor
    g = growth_preset("kappa_sine", torus64, 0.5)
    opts = so.VKOptions(max_sweeps=8, relaxation=0.05)
    _, rep = so.solve_vk("old", g, en.Material(1.0, 1.0), opts=opts)
    assert rep.status == so.BUDGET_EXHAUSTED and not rep.converged
    assert rep.iterations == 8
    assert "roundoff_floor" not in rep.extras and "warning" in rep.extras


def test_vk_converged_status(torus64):
    g = growth_preset("kappa_sine", torus64, 0.5)
    _, rep = so.solve_vk("old", g, en.Material(1.0, 1.0))
    assert rep.converged and rep.status == so.CONVERGED
    assert rep.grad_norm <= so.VKOptions().tol


def test_vk_oscillating_divergence_is_not_a_floor(torus64):
    # at growth amplitude 100 the residual swings up and down while it grows
    g = growth_preset("kappa_sine", torus64, 100.0)
    with pytest.raises(so.SolverError) as info:
        so.solve_vk("old", g, en.Material(1.0, 1.0))
    rep = info.value.report
    assert rep.status == so.DIVERGING and not rep.converged
    hist = rep.extras["residual_history"]
    assert len(hist) == rep.iterations + 1 and hist[-1] == info.value.residual == rep.grad_norm


def test_roundoff_floor_rule():
    # ten sweeps within [0.9, 10) times the best residual before them, that
    # best below 1e-12, neither falling nor rising at every sweep
    assert so._roundoff_floor([1e-16] * 11) == 1e-16
    scatter = [1.0, 3.0, 1.5, 2.5, 1.2, 6.0, 1.1, 2.0, 4.0, 1.3]
    assert so._roundoff_floor([1e-16] + [1e-16 * r for r in scatter]) == pytest.approx(1.75e-16)
    # a stall above the ceiling, too short a window, falling 1 % or rising
    # 1.2x every sweep (both within the band), or leaving the band
    assert so._roundoff_floor([1e-6] + [1e-6 * r for r in scatter]) is None
    assert so._roundoff_floor([1e-16] + [1e-16 * r for r in scatter[:9]]) is None
    assert so._roundoff_floor([1e-16 * 0.99**k for k in range(11)]) is None
    assert so._roundoff_floor([1e-16 * 1.2**k for k in range(11)]) is None
    assert so._roundoff_floor([1e-16] + [1e-16 * r for r in scatter[:9]] + [11.0e-16]) is None


@pytest.mark.parametrize("amplitude, relaxation", [(0.5, 0.05), (0.5, 1.9), (20.0, 0.7)])
def test_vk_converges_where_plain_relaxation_failed(torus64, amplitude, relaxation):
    # plain relaxation exhausted 60 sweeps at 0.05 and diverged at 1.9 and
    # at amplitude 20; Anderson mixing converges in 11, 11 and 27 sweeps
    g = growth_preset("kappa_sine", torus64, amplitude)
    opts = so.VKOptions(relaxation=relaxation, max_sweeps=60)
    _, rep = so.solve_vk("old", g, en.Material(1.0, 1.0), opts=opts)
    assert rep.status == so.CONVERGED and rep.grad_norm <= opts.tol


def test_vk_rises_near_tol_are_not_divergence(torus64):
    # at amplitude 20 the mixed steps are not monotone: the residual rises
    # at several sweeps below 1e-8, then falls to tol
    g = growth_preset("kappa_sine", torus64, 20.0)
    _, rep = so.solve_vk("old", g, en.Material(1.0, 1.0))
    assert rep.status == so.CONVERGED
    hist = rep.extras["residual_history"]
    assert sum(1 for a, b in zip(hist, hist[1:]) if b > a and b < 1e-8) >= 3


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_vk_no_anderson_depth_diverges_at_amplitude_20(torus64, monkeypatch, depth):
    # the sliding window never clears its history: at amplitude 20 no depth
    # from 2 to 5 diverges; depth 2 is still falling (near 2e-5) at 60 sweeps
    monkeypatch.setattr(so, "_ANDERSON_DEPTH", depth)
    g = growth_preset("kappa_sine", torus64, 20.0)
    opts = so.VKOptions(max_sweeps=60)
    _, rep = so.solve_vk("old", g, en.Material(1.0, 1.0), opts=opts)
    if depth == 2:
        assert rep.status == so.BUDGET_EXHAUSTED and rep.grad_norm < 1e-4
    else:
        assert rep.status == so.CONVERGED and rep.grad_norm <= opts.tol


@pytest.mark.parametrize("model", ["old", "new"])
def test_vk_stencil_residual_matches_the_residual_of_the_defect(torus64, model):
    # after 3 sweeps rho = |f| / scale is far above rounding: the stencil
    # residual of the returned state has r1 = 0 and r2 = Z |f|
    g = growth_preset("kappa_sine", torus64, 0.5)
    m = en.Material(1.0, 2.0)
    v0 = ScalarField(torus64, 0.3 * np.sin(torus64.X1) * np.cos(torus64.X2))
    st, rep = so.solve_vk(model, g, m, v0, so.VKOptions(max_sweeps=3))
    assert rep.status == so.BUDGET_EXHAUSTED and rep.grad_norm > 1e-4
    r1, r2 = so.vk_residual(st, model, g, m, v0, project_means=True)
    scale = 1.0 + torus64.norm_l2(lambda_g(g).data) + torus64.norm_l2(omega_g(g, m.nu).data)
    assert r1 / m.young / scale <= 1e-11
    assert r2 / m.bending / scale == pytest.approx(rep.grad_norm, rel=1e-10)
    assert rep.extras["projected_residuals"]["r2"] == pytest.approx(r2, rel=1e-10)


@pytest.mark.parametrize("relaxation", [0.0, -0.5, np.nan, np.inf])
def test_vk_options_reject_a_non_positive_relaxation(relaxation):
    with pytest.raises(ValueError, match="relaxation"):
        so.VKOptions(relaxation=relaxation)


@pytest.mark.parametrize("tol", [-1e-10, np.nan, np.inf])
def test_solver_options_reject_a_negative_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        so.VKOptions(tol=tol)
    with pytest.raises(ValueError, match="tol"):
        so.MinimizeOptions(tol=tol)


@pytest.mark.parametrize("penalty_init", [0.0, -1.0, np.nan, np.inf])
def test_minimize_options_reject_a_non_positive_penalty(penalty_init):
    with pytest.raises(ValueError, match="penalty_init"):
        so.MinimizeOptions(penalty_init=penalty_init)


@pytest.mark.parametrize(
    "options, name",
    [(so.MinimizeOptions, "max_iter"), (so.MinimizeOptions, "penalty_doublings"), (so.VKOptions, "max_sweeps")],
)
def test_solver_options_reject_a_negative_budget(options, name):
    # penalty_doublings = -1 would run no stage and report converged
    with pytest.raises(ValueError, match=name):
        options(**{name: -1})
    assert getattr(options(**{name: 0}), name) == 0


def test_solver_options_admit_tol_zero():
    assert so.VKOptions(tol=0.0).tol == 0.0
    assert so.MinimizeOptions(tol=0.0).tol == 0.0


def test_vk_requires_periodic(square33):
    with pytest.raises(ValueError):
        so.solve_vk("old", GrowthFields.zeros(square33), en.Material(1.0, 1.0))


def test_el_consistency_minimize_vs_vk():
    # small-amplitude bending growth: the minimizer of the flat functional and
    # the Picard solution of the flat system agree in v, validating the
    # derived Young modulus / Poisson ratio / bending stiffness formulas
    grid = Grid2D(48, 48, (0, TWO_PI, 0, TWO_PI), bc=PERIODIC)
    m = en.Material(1.0, 1.0)
    amp = 1e-3
    g = growth_preset("kappa_sine", grid, amp)
    st_vk, rep_vk = so.solve_vk("old", g, m)
    assert rep_vk.converged
    opts = so.MinimizeOptions(tol=1e-10, max_iter=3000)
    st_min, rep_min = so.minimize(en.I40, en.PlateState.zeros(grid), g, m, opts=opts)
    assert rep_min.converged
    num = grid.norm_l2(st_min.v.data - st_vk.v.data)
    den = grid.norm_l2(st_vk.v.data)
    assert num / den < 0.02
