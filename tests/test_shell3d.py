import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from vkshell import energy as en
from vkshell import fields, growth, solver
from vkshell import shell3d as sh
from vkshell.fields import (
    DIRICHLET,
    Grid2D,
    ScalarField,
    VectorField2,
    hessian_values,
    grad_values,
    sym_grad_values,
    sym_stack,
)
from vkshell.growth import GrowthFields, incompatibility


def random_rotation(rng, n=None):
    """One rotation, or a stack of n."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3) if n is None else (n, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


@pytest.fixture
def grid48():
    return Grid2D(48, 48, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET)


def recovery(state, g, cfg, m):
    """The recovery of one shell, from a template built for it alone."""
    regime = sh.resolve_regime(cfg.v0, cfg.alpha)
    return sh.build_recovery(sh.RecoveryTemplate(state, g, cfg.v0, regime, m), cfg)


def sine_growth(grid, a_eps=0.2, a_kap=0.3):
    x, y = grid.X1, grid.X2
    eps = np.zeros((grid.nx, grid.ny, 3, 3))
    kap = np.zeros((grid.nx, grid.ny, 3, 3))
    eps[..., 0, 0] = a_eps * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    eps[..., 1, 1] = 0.5 * a_eps * np.cos(2 * np.pi * x)
    eps[..., 0, 2] = 0.2 * a_eps * np.sin(2 * np.pi * y)
    eps[..., 2, 0] = eps[..., 0, 2]
    kap[..., 0, 0] = a_kap * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    kap[..., 2, 2] = 0.3 * a_kap * np.cos(2 * np.pi * y)
    return GrowthFields.from_arrays(grid, eps, kap)


def test_shell_config_validation(grid48):
    v0 = ScalarField.sample(grid48, lambda x, y: x * y)
    with pytest.raises(ValueError):
        sh.ShellConfig(v0, alpha=1.0, h=-0.1)
    with pytest.raises(ValueError):
        sh.ShellConfig(v0, alpha=1.0, h=0.5)  # too thick for the unit square
    with pytest.raises(ValueError):
        sh.ShellConfig(v0, alpha=1.0, h=0.1, n_t=4)
    with pytest.raises(ValueError):
        sh.ShellConfig(ScalarField(grid48, 30.0 * grid48.X1), alpha=0.0, h=0.1)  # shallowness
    # a nan h would make gamma nan
    for h, alpha in ((np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan), (0.1, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            sh.ShellConfig(v0, alpha=alpha, h=h)
    cfg = sh.ShellConfig(v0, alpha=2.0, h=0.05, n_t=5)
    assert cfg.gamma == pytest.approx(0.05**2)


def test_immersion_flat_and_tilted(grid48):
    z = ScalarField.zeros(grid48)
    imm = sh.Immersion(sh.ShellConfig(z, alpha=1.0, h=0.05))
    assert np.allclose(imm.grad_phi_tilde(0.0)[..., 2, 2], 1.0)
    pts = imm.phi_tilde(0.02)
    assert np.allclose(pts[..., 2], 0.02)
    # v0 = x1, gamma = 1: normal is (-1, 0, 1)/sqrt(2) everywhere
    v0 = ScalarField.sample(grid48, lambda x, y: x + 0 * y)
    imm2 = sh.Immersion(sh.ShellConfig(v0, alpha=0.0, h=0.05))
    expect = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert np.max(np.abs(imm2.grad_phi_tilde(0.0)[..., 2] - expect)) < 1e-12


def test_immersion_unit_normal_and_orthogonality(grid48):
    v0 = ScalarField.sample(grid48, lambda x, y: 0.4 * x * y + 0.2 * x * x)
    imm = sh.Immersion(sh.ShellConfig(v0, alpha=0.5, h=0.05))
    frame = imm.grad_phi_tilde(0.0)  # columns: the tangents d1 phi, d2 phi and the normal
    normal = frame[..., 2]
    assert np.max(np.abs(np.linalg.norm(normal, axis=-1) - 1.0)) < 1e-14
    for j in range(2):
        assert np.max(np.abs(np.sum(frame[..., j] * normal, axis=-1))) < 1e-14


def test_growth_qh(grid48):
    v0 = ScalarField.sample(grid48, lambda x, y: x * y)
    cfg = sh.ShellConfig(v0, alpha=1.0, h=0.1)
    g0 = GrowthFields.zeros(grid48)
    q = sh.GrowthEvaluator(g0, cfg)
    assert np.allclose(q.at(0.03), np.eye(3))
    kap = np.zeros((grid48.nx, grid48.ny, 3, 3))
    kap[..., 0, 0] = 1.0
    gk = GrowthFields.from_arrays(grid48, np.zeros_like(kap), kap)
    qk = sh.GrowthEvaluator(gk, cfg)
    top = qk.at(0.05)
    assert np.allclose(top[..., 0, 0], 1.0 + 0.1 * 0.05)
    # affine structure: q(x3) + q(-x3) = 2 (Id + h^2 eps)
    x3 = 0.02
    avg = 0.5 * (qk.at(x3) + qk.at(-x3))
    assert np.allclose(avg, np.eye(3))
    with pytest.raises(ValueError):
        qk.at(0.2)
    assert np.max(np.abs(qk.inverse_at(x3) - np.linalg.inv(qk.at(x3)))) < 1e-15
    # h^2 eps_11 = -1 makes q^h singular at every node
    eps = np.zeros_like(kap)
    eps[..., 0, 0] = -1.0 / 0.1**2
    qs = sh.GrowthEvaluator(GrowthFields.from_arrays(grid48, eps, np.zeros_like(kap)), cfg)
    for call in (qs.at, qs.inverse_at):
        with pytest.raises(ValueError, match="not invertible"):
            call(0.0)


def test_density_w(rng):
    m = en.Material(1.0, 0.7)
    assert sh.density_W(np.eye(3), m) == 0.0
    for _ in range(10):
        r = random_rotation(rng)
        assert sh.density_W(r, m) < 1e-28
        f = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        wf = sh.density_W(f, m)
        assert abs(sh.density_W(r @ f, m) - wf) <= 1e-13 * (1.0 + wf)
    # uniaxial stretch: W = mu/4 ((1+e)^2 - 1)^2 = mu e^2 + O(e^3)
    e = 1e-4
    m0 = en.Material(1.0, 0.0)
    val = sh.density_W(np.diag([1.0 + e, 1.0, 1.0]), m0)
    assert val == pytest.approx(0.25 * ((1 + e) ** 2 - 1) ** 2, rel=1e-12)
    assert val == pytest.approx(e * e, rel=1e-3)


def test_gauss_rule_exactness():
    grid = Grid2D(16, 16, (0, 1, 0, 1), bc=DIRICHLET)
    v0 = ScalarField.zeros(grid)
    cfg = sh.ShellConfig(v0, alpha=1.0, h=0.1, n_t=5)
    t, w = cfg.gauss_rule()
    for k in range(2 * 5):  # exact through degree 2 n - 1
        quad = float(np.sum(w * t**k))
        exact = 0.0 if k % 2 == 1 else (0.05) ** (k + 1) * 2.0 / (k + 1)
        assert quad == pytest.approx(exact, abs=1e-18, rel=1e-13)


def test_gauss_rule_computes_the_legendre_rule_once_per_n_t(monkeypatch):
    grid = Grid2D(16, 16, (0, 1, 0, 1), bc=DIRICHLET)
    v0 = ScalarField.zeros(grid)
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n))
    sh._legendre_rule.cache_clear()
    try:
        rules = [sh.ShellConfig(v0, alpha=1.0, h=h, n_t=7).gauss_rule() for h in (0.1, 0.05, 0.1)]
    finally:
        sh._legendre_rule.cache_clear()
    assert calls == [7]
    t, w = leggauss(7)
    for (x3, gw), h in zip(rules, (0.1, 0.05, 0.1)):
        assert np.array_equal(x3, 0.5 * h * t) and np.array_equal(gw, 0.5 * h * w)


def test_energy_3d_identity_and_rigid(grid48, rng):
    m = en.Material(1.0, 1.0)
    v0 = ScalarField.sample(grid48, lambda x, y: 0.3 * x * y)
    cfg = sh.ShellConfig(v0, alpha=1.0, h=0.05)
    g0 = GrowthFields.zeros(grid48)
    # u = id on the shell: grad y is the chart Jacobian at each Gauss node
    imm = sh.Immersion(cfg)
    grad_id = np.stack([imm.grad_phi_tilde(t) for t in cfg.gauss_rule()[0]])
    assert sh.energy_3d(sh.Deformation3D(cfg, grad_id), g0, m)[0] < 1e-26
    # rigid post-motion: u = R phi_tilde + c
    r = random_rotation(rng)
    u_rot = sh.Deformation3D(cfg, np.einsum("ab,k...bc->k...ac", r, grad_id))
    assert sh.energy_3d(u_rot, g0, m)[0] < 1e-25


def test_energy_3d_frame_indifference(grid48, rng):
    m = en.Material(1.2, 0.6)
    v0 = ScalarField.sample(grid48, lambda x, y: 0.3 * x * y)
    g = sine_growth(grid48)
    cfg = sh.ShellConfig(v0, alpha=1.0, h=0.05)
    v = ScalarField(grid48, 0.2 * np.sin(np.pi * grid48.X1) * np.sin(np.pi * grid48.X2))
    w = VectorField2(grid48, np.stack([0.05 * grid48.X1**2, -0.04 * grid48.X2], axis=-1))
    u = recovery(en.PlateState(en.I40, w, v), g, cfg, m)
    e0, _ = sh.energy_3d(u, g, m)
    r = random_rotation(rng)
    u_rot = sh.Deformation3D(cfg, np.einsum("ab,k...bc->k...ac", r, u.grad_y))
    e1, _ = sh.energy_3d(u_rot, g, m)
    assert abs(e1 - e0) <= 1e-12 * (1.0 + abs(e0))


def test_metric_pullback_slope(grid48):
    g = sine_growth(grid48)
    v0 = ScalarField.sample(grid48, lambda x, y: 0.7 * x * y + 0.15 * (x * x + y * y))
    hs = np.array([1e-1, 1e-2, 1e-3])
    res = np.array([sh.metric_residual(g, v0, h) for h in hs])
    slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
    assert slope >= 2.7


def test_regime_resolution(grid48):
    v0 = ScalarField.sample(grid48, lambda x, y: x * y)
    z = ScalarField.zeros(grid48)
    assert sh.resolve_regime(z, 0.5) == sh.FLAT
    assert sh.resolve_regime(v0, 2.0) == sh.FLAT
    assert sh.resolve_regime(v0, 1.0) == sh.DMV
    assert sh.resolve_regime(v0, 0.5) == sh.CONSTRAINED
    with pytest.raises(sh.RegimeError):
        sh.resolve_regime(v0, 0.0)


def test_recovery_trivial_flat(grid48):
    m = en.Material(1.0, 1.0)
    z = ScalarField.zeros(grid48)
    cfg = sh.ShellConfig(z, alpha=2.0, h=0.05)
    g0 = GrowthFields.zeros(grid48)
    u = recovery(en.PlateState.zeros(grid48), g0, cfg, m)
    assert sh.energy_3d(u, g0, m)[0] < 1e-28
    # gradient is exactly the identity
    assert np.max(np.abs(u.grad_y - np.eye(3))) < 1e-14


def test_recovery_exact_compatibility_drives_energy_down(grid48):
    # growth built from the discrete state: both limit integrands vanish and
    # the scaled 3d energy decays like h^2
    grid = grid48
    m = en.Material(1.0, 1.0)
    z = ScalarField.zeros(grid)
    vc = 0.3 * np.sin(np.pi * grid.X1) * np.sin(np.pi * grid.X2)
    wc = np.stack([0.1 * grid.X1**2 * grid.X2, -0.05 * grid.X2**2], axis=-1)
    dv = grad_values(grid, vc)
    eps = np.zeros((grid.nx, grid.ny, 3, 3))
    kap = np.zeros((grid.nx, grid.ny, 3, 3))
    eps[..., :2, :2] = sym_grad_values(grid, wc) + 0.5 * dv[..., :, None] * dv[..., None, :]
    kap[..., :2, :2] = -hessian_values(grid, vc)
    g = GrowthFields.from_arrays(grid, eps, kap)
    st = en.PlateState(en.I40, VectorField2(grid, wc), ScalarField(grid, vc))
    assert en.energy_i40(st, g, m) == 0.0
    vals = []
    for h in (1e-1, 3e-2, 1e-2):
        cfg = sh.ShellConfig(z, alpha=2.0, h=h)
        u = recovery(st, g, cfg, m)
        vals.append(sh.energy_3d(u, g, m)[0] / h**4)
    assert vals[0] > vals[1] > vals[2]
    # decade sweep drops by an order of magnitude before the dx^2 floor bites
    assert vals[0] / vals[2] > 10.0


@pytest.mark.parametrize("alpha,regime", [(2.0, sh.FLAT), (1.0, sh.DMV), (0.5, sh.CONSTRAINED)])
def test_recovery_gamma_limit(grid48, alpha, regime):
    grid = grid48
    m = en.Material(1.3, 0.8)
    g = sine_growth(grid)
    x, y = grid.X1, grid.X2
    w = VectorField2(grid, np.stack([0.1 * x * x * y, -0.05 * y * y], axis=-1))
    if regime == sh.CONSTRAINED:
        v0 = ScalarField(grid, 0.5 * (x * x + y * y))
        a = 0.3
        v = ScalarField(grid, a * (x * x - y * y))
        vt = ScalarField(grid, 0.2 * x * y)
        st = en.PlateState(en.I4INF, w, v, vt)
        e2d = en.energy_i4inf(st, g, m, v0, 0.0)[0]
    elif regime == sh.DMV:
        v0 = ScalarField(grid, 0.25 * (x * x + y * y))
        v = ScalarField(grid, v0.data + 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y))
        st = en.PlateState(en.I41, w, v)
        e2d = en.energy_i41(st, g, m, v0)
    else:
        v0 = ScalarField(grid, 0.25 * (x * x + y * y))
        v = ScalarField(grid, 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y))
        st = en.PlateState(en.I40, w, v)
        e2d = en.energy_i40(st, g, m)
    assert sh.resolve_regime(v0, alpha) == regime
    template = sh.RecoveryTemplate(st, g, v0, regime, m)
    devs = []
    for h in (1e-1, 3e-2, 1e-2):
        cfg = sh.ShellConfig(v0, alpha=alpha, h=h, n_t=5)
        e3, _ = sh.energy_3d(sh.build_recovery(template, cfg), g, m)
        devs.append(abs(e3 / h**4 - e2d) / e2d)
    assert devs[-1] <= 0.05
    assert devs[0] > devs[-1]


def test_recovery_reconstructed_compensator_matches_analytic():
    # the template's wtilde inverts the grid's own symmetric gradient to
    # roundoff; the analytic compensator of the continuum problem meets the
    # discrete constraint only to O(dx^2)
    m = en.Material(1.0, 1.0)
    a = 0.3
    for n in (33, 48, 65):
        grid = Grid2D(n, n, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET)
        x, y = grid.X1, grid.X2
        v0 = ScalarField(grid, 0.5 * (x * x + y * y))
        v = ScalarField(grid, a * (x * x - y * y))
        st = en.PlateState(en.I4INF, VectorField2.zeros(grid), v, ScalarField(grid, 0.2 * x * y))
        wt = sh.RecoveryTemplate(st, sine_growth(grid, 0.1, 0.2), v0, sh.CONSTRAINED, m).wtilde.data
        dv, dv0 = grad_values(grid, v.data), grad_values(grid, v0.data)
        e = -0.5 * (dv[..., :, None] * dv0[..., None, :] + dv0[..., :, None] * dv[..., None, :])
        assert np.max(np.abs(sym_grad_values(grid, wt) - e)) <= 1e-12 * np.max(np.abs(e)), n
        wt_analytic = np.stack([-2 * a * x**3 / 3, 2 * a * y**3 / 3], axis=-1)
        assert np.max(np.abs(sym_grad_values(grid, wt - wt_analytic))) <= 0.25 * grid.dx**2, n


def test_scaling_study_table(grid48):
    m = en.Material(1.0, 1.0)
    g = sine_growth(grid48)
    v0 = ScalarField(grid48, 0.25 * grid48.X1 * grid48.X2)
    st = en.PlateState(
        en.I40,
        VectorField2(grid48, np.stack([0.1 * grid48.X1, 0.05 * grid48.X2], axis=-1)),
        ScalarField(grid48, 0.2 * np.sin(np.pi * grid48.X1) * np.sin(np.pi * grid48.X2)),
    )
    study = sh.scaling_study(2.0, [1e-1, 3e-2, 1e-2], g, v0, st, m)
    assert study.regime == sh.FLAT and study.limit_name == en.I40
    assert len(study.rows) == 3
    lines = study.csv_lines()
    assert lines[0] == "h,gamma,E3d,E3d_over_h4,E2d_limit,ratio"
    assert len(lines) == 4
    # limit column is constant and equals the functional value
    e2d = en.energy_i40(st, g, m)
    for r in study.rows:
        assert r.e2d_limit == e2d
        assert r.ratio == pytest.approx(r.e3d_over_h4 / e2d)
    with pytest.raises(ValueError):
        sh.scaling_study(2.0, [1e-2, 1e-1], g, v0, st, m)


def test_scaling_limits_collapse_for_flat_reference(grid48):
    # with v0 = 0 every alpha lands in the flat regime and the whole table,
    # limit value included, is independent of alpha
    m = en.Material(1.0, 1.0)
    g = sine_growth(grid48)
    z = ScalarField.zeros(grid48)
    st = en.PlateState(
        en.I40,
        VectorField2(grid48, np.stack([0.1 * grid48.X1, 0.05 * grid48.X2], axis=-1)),
        ScalarField(grid48, 0.2 * np.sin(np.pi * grid48.X1) * np.sin(np.pi * grid48.X2)),
    )
    studies = [sh.scaling_study(a, [1e-1, 1e-2], g, z, st, m) for a in (0.5, 1.0, 2.0)]
    assert all(s.regime == sh.FLAT for s in studies)
    base = [(r.e3d, r.e2d_limit) for r in studies[0].rows]
    for s in studies[1:]:
        assert [(r.e3d, r.e2d_limit) for r in s.rows] == base


def test_scaling_bands(grid48):
    m = en.Material(1.0, 1.0)
    grid = grid48
    v0 = ScalarField(grid, 0.5 * grid.X1 * grid.X2)
    # incompatible bending growth, zero state: bounded band
    g = sine_growth(grid, 0.0, 0.5)
    _, inorm = incompatibility(g)
    assert inorm > 0.1
    st0 = en.PlateState.zeros(grid, en.I40)
    study = sh.scaling_study(2.0, [1e-1, 3e-2, 1e-2, 3e-3], g, v0, st0, m)
    vals = [r.e3d_over_h4 for r in study.rows]
    ref = vals[2]
    assert all(0.5 * ref <= v <= 2.0 * ref for v in vals)


# -- closed-form 3x3 kernels against LAPACK -------------------------------------------

def well_conditioned_stack(rng, n):
    """O(1) matrices R1 diag(s) R2 with singular values s in [0.5, 2]."""
    s = rng.uniform(0.5, 2.0, (n, 3))
    return random_rotation(rng, n) @ (s[..., :, None] * random_rotation(rng, n))


def svd_dist_reference(F):
    """Distance to SO(3) from LAPACK singular values, smallest one signed by det F."""
    sv = np.linalg.svd(F, compute_uv=False)
    sv[..., -1] *= np.sign(np.linalg.det(F))
    return np.sqrt(np.sum((sv - 1.0) ** 2, axis=-1))


def test_closed_form_det_and_inverse_match_linalg(rng):
    for a in (np.eye(3) + 1e-3 * rng.standard_normal((400, 3, 3)), well_conditioned_stack(rng, 400)):
        inv, det = sh._inv3(a)
        ref_inv = np.linalg.inv(a)
        ref_det = np.linalg.det(a)
        assert np.max(np.abs(det - ref_det) / np.abs(ref_det)) < 1e-12
        assert np.max(np.abs(sh._det3(a) - ref_det) / np.abs(ref_det)) < 1e-12
        err = np.linalg.norm(inv - ref_inv, axis=(-2, -1)) / np.linalg.norm(ref_inv, axis=(-2, -1))
        assert np.max(err) < 1e-12
    inv, det = sh._inv3(np.diag([2.0, 4.0, 0.5]))
    assert det == 4.0 and np.array_equal(inv, np.diag([0.5, 0.25, 2.0]))


def test_dist_so3_matches_svd_for_positive_determinant(rng):
    n = 300
    r = random_rotation(rng, n)
    stacks = {
        "rotations": r,
        "near identity": np.eye(3) + 1e-3 * rng.standard_normal((n, 3, 3)),
        "O(1)": well_conditioned_stack(rng, n),
        "R diag(a, a, b)": r @ np.diag([1.3, 1.3, 0.7]),
        "R diag(a, b, b)": r @ np.diag([1.3, 0.7, 0.7]),
        "(1 + t) R": (1.0 + rng.uniform(-0.5, 0.5, (n, 1, 1))) * r,
    }
    for name, F in stacks.items():
        assert np.all(np.linalg.det(F) > 0.0), name
        d, ref = sh.dist_so3(F), svd_dist_reference(F)
        assert np.max(np.abs(d - ref) / (1.0 + ref)) < 1e-12, name
    assert np.max(sh.dist_so3(r)) < 1e-14
    assert sh.dist_so3(np.eye(3)) == 0.0


def test_dist_so3_keeps_orientation(rng):
    # a reflection is 2 away from SO(3), though its singular values are all 1
    assert sh.dist_so3(np.diag([1.0, 1.0, -1.0])) == pytest.approx(2.0, abs=1e-15)
    assert sh.dist_so3(-np.eye(3)) == pytest.approx(2.0, abs=1e-15)
    r = random_rotation(rng, 200)
    assert np.max(np.abs(sh.dist_so3(r @ np.diag([1.0, 1.0, -1.0])) - 2.0)) < 1e-13
    F = -well_conditioned_stack(rng, 400)
    assert np.all(np.linalg.det(F) < 0.0)
    ref = svd_dist_reference(F)
    assert np.max(np.abs(sh.dist_so3(F) - ref) / (1.0 + ref)) < 1e-12


def test_dist_so3_exact_for_reflections_with_a_near_double_singular_value(rng):
    # det F < 0 with sigma_2 ~ sigma_3: the trigonometric eigenvalue rule splits
    # the pair with half the digits, so these points go through an SVD
    r = random_rotation(rng, 1000)
    for diag in ([1.3, 0.7, -0.7], [1.3, 0.7, -0.7 * (1.0 + 1e-9)], [0.7, 0.7, -0.7]):
        F = r @ np.diag(diag)
        ref = svd_dist_reference(F)
        assert np.max(np.abs(sh.dist_so3(F) - ref) / ref) < 1e-12, diag
    # a mixed stack: each point takes its own path
    F = np.concatenate([r[:500] @ np.diag([1.3, 0.7, -0.7]), r[500:] @ np.diag([1.3, 0.7, 0.7])])
    ref = svd_dist_reference(F)
    assert np.max(np.abs(sh.dist_so3(F) - ref) / (1.0 + ref)) < 1e-12
    assert isinstance(sh.dist_so3(np.diag([1.3, 0.7, -0.7])), float)


def energy_3d_linalg(u, g, m):
    """energy_3d written with np.linalg: the reference for the closed-form kernels."""
    cfg = u.cfg
    imm = sh.Immersion(cfg)
    h = cfg.h
    terms, dets, dists = [], [], []
    for k, (x3, gw) in enumerate(zip(*cfg.gauss_rule())):
        gp = imm.grad_phi_tilde(x3)
        q = np.eye(3) + h * h * g.eps_g.data + h * x3 * g.kappa_g.data
        a = u.grad_y[k] @ np.linalg.inv(gp)
        f = a @ np.linalg.inv(q)
        e = np.einsum("...ki,...kj->...ij", f, f) - np.eye(3)
        tr = np.trace(e, axis1=-2, axis2=-1)
        wvals = 0.25 * m.mu * np.sum(e * e, axis=(-2, -1)) + 0.125 * m.lam * tr * tr
        terms.append((gw / h) * cfg.grid.quad_weights * wvals * np.linalg.det(gp))
        dets.append(np.linalg.det(a).min())
        dists.append(svd_dist_reference(f).max())
    return math.fsum(np.concatenate([t.ravel() for t in terms]).tolist()), min(dets), max(dists)


@pytest.mark.parametrize("h", [1e-1, 1e-2, 1e-3])
def test_energy_3d_matches_linalg_reference(square33, h):
    grid = square33
    m = en.Material(1.2, 0.6)
    g = sine_growth(grid)
    v0 = ScalarField(grid, 0.25 * (grid.X1**2 + grid.X2**2))
    v = ScalarField(grid, v0.data + 0.3 * np.sin(np.pi * grid.X1) * np.sin(np.pi * grid.X2))
    w = VectorField2(grid, np.stack([0.1 * grid.X1**2 * grid.X2, -0.05 * grid.X2**2], axis=-1))
    cfg = sh.ShellConfig(v0, alpha=1.0, h=h, n_t=5)
    u = recovery(en.PlateState(en.I40, w, v), g, cfg, m)
    total, diag = sh.energy_3d(u, g, m)
    ref, min_det, max_dist = energy_3d_linalg(u, g, m)
    assert total == pytest.approx(ref, rel=1e-10, abs=0)
    assert diag["min_det_grad_u"] == pytest.approx(min_det, rel=1e-12)
    assert diag["max_dist_so3"] == pytest.approx(max_dist, rel=1e-10, abs=0)


def test_scaling_study_workers_match_serial(grid48):
    m = en.Material(1.0, 1.0)
    g = sine_growth(grid48)
    v0 = ScalarField(grid48, 0.25 * (grid48.X1**2 + grid48.X2**2))
    st = en.PlateState(
        en.I40,
        VectorField2(grid48, np.stack([0.1 * grid48.X1, 0.05 * grid48.X2], axis=-1)),
        ScalarField(grid48, v0.data + 0.2 * np.sin(np.pi * grid48.X1) * np.sin(np.pi * grid48.X2)),
    )
    h_list = [1e-1, 3e-2, 1e-2, 1e-3, 1e-4]
    serial = sh.scaling_study(1.0, h_list, g, v0, st, m, n_t=3)
    threaded = sh.scaling_study(1.0, h_list, g, v0, st, m, n_t=3, workers=2)
    assert threaded.rows == serial.rows
    assert threaded.metadata() == serial.metadata()


def test_energy_3d_reflected_deformation(square33):
    # D grad y with D = diag(1, 1, -1) keeps the strain, so the energy, and
    # reverses the orientation, so the distance runs through the SVD branch
    grid = square33
    m = en.Material(1.2, 0.6)
    g = sine_growth(grid)
    v0 = ScalarField(grid, 0.25 * (grid.X1**2 + grid.X2**2))
    v = ScalarField(grid, v0.data + 0.3 * np.sin(np.pi * grid.X1) * np.sin(np.pi * grid.X2))
    cfg = sh.ShellConfig(v0, alpha=1.0, h=1e-2, n_t=3)
    u = recovery(en.PlateState(en.I40, VectorField2.zeros(grid), v), g, cfg, m)
    refl = sh.Deformation3D(cfg, np.diag([1.0, 1.0, -1.0]) @ u.grad_y)
    with pytest.warns(UserWarning):
        total, diag = sh.energy_3d(refl, g, m)
    ref, min_det, max_dist = energy_3d_linalg(refl, g, m)
    assert diag["orientation_lost"] and min_det < 0.0
    assert total == pytest.approx(ref, rel=1e-10)
    assert total == pytest.approx(sh.energy_3d(u, g, m)[0], rel=1e-12)
    assert diag["max_dist_so3"] == pytest.approx(max_dist, rel=1e-12)


# -- component-major point stacks ------------------------------------------------------

def component_major_copy(a):
    """The same stack with each a[..., i, j] stored as one contiguous plane."""
    out = sh._component_major(a.shape)
    out[...] = a
    return out


def test_kernels_are_bitwise_layout_independent(rng):
    m = en.Material(1.2, 0.6)
    near_id = np.eye(3) + 1e-3 * rng.standard_normal((17, 19, 3, 3))
    o1 = well_conditioned_stack(rng, 17 * 19).reshape(17, 19, 3, 3)
    o1[::3] *= -1.0  # det F < 0 rows take the SVD branch of dist_so3
    for a in (near_id, o1):
        b = component_major_copy(a)
        assert b[..., 0, 0].flags.c_contiguous and not a[..., 0, 0].flags.c_contiguous
        assert np.array_equal(sh._det3(a), sh._det3(b))
        inv_a, det_a = sh._inv3(a)
        inv_b, det_b = sh._inv3(b)
        assert np.array_equal(inv_a, inv_b) and np.array_equal(det_a, det_b)
        e_a, e_b = sh._strain(a), sh._strain(b)
        assert np.array_equal(e_a, e_b)
        e_c, e_cm = np.ascontiguousarray(e_a), component_major_copy(e_a)
        assert np.array_equal(sh._density_from_strain(e_c, m), sh._density_from_strain(e_cm, m))
        assert np.array_equal(sh.dist_so3(a), sh.dist_so3(b))


def test_matmul3_is_within_the_dot_product_error_bound(rng):
    # each entry of a product with three terms is within gamma_3 (|a| |b|) of the
    # exact value; np.matmul's is too, so the two differ by at most 2 gamma_3 (|a| |b|)
    u = 0.5 * np.finfo(float).eps
    gamma3 = Fraction(3 * u) / (1 - Fraction(3 * u))
    stacks = {
        "near identity": lambda n: np.eye(3) + 1e-3 * rng.standard_normal((n, 3, 3)),
        "O(1)": lambda n: well_conditioned_stack(rng, n),
    }
    for name, make in stacks.items():
        a, b = make(400), make(400)
        got = sh._matmul3_into(component_major_copy(a), component_major_copy(b))
        assert np.array_equal(got, sh._matmul3_into(a.copy(), b)), name
        bound = 2.0 * 3.0 * u / (1.0 - 3.0 * u) * (np.abs(a) @ np.abs(b))
        assert np.all(np.abs(got - np.matmul(a, b)) <= bound), name
        for n, i, j in np.ndindex(40, 3, 3):
            terms = [Fraction(a[n, i, k]) * Fraction(b[n, k, j]) for k in range(3)]
            err = abs(Fraction(got[n, i, j]) - sum(terms))
            assert err <= gamma3 * sum(abs(t) for t in terms), (name, n, i, j)


def test_energy_3d_is_bitwise_layout_independent(square33):
    grid = square33
    m = en.Material(1.2, 0.6)
    g = sine_growth(grid)
    v0 = ScalarField(grid, 0.25 * (grid.X1**2 + grid.X2**2))
    v = ScalarField(grid, v0.data + 0.3 * np.sin(np.pi * grid.X1) * np.sin(np.pi * grid.X2))
    w = VectorField2(grid, np.stack([0.1 * grid.X1**2 * grid.X2, -0.05 * grid.X2**2], axis=-1))
    cfg = sh.ShellConfig(v0, alpha=1.0, h=1e-2, n_t=5)
    u = recovery(en.PlateState(en.I40, w, v), g, cfg, m)
    c_ordered = sh.Deformation3D(cfg, np.ascontiguousarray(u.grad_y))
    assert sh.energy_3d(u, g, m) == sh.energy_3d(c_ordered, g, m)


def test_point_stacks_are_component_major(grid48):
    m = en.Material(1.0, 1.0)
    g = sine_growth(grid48)
    v0 = ScalarField(grid48, 0.25 * (grid48.X1**2 + grid48.X2**2))
    v = ScalarField(grid48, v0.data + 0.2 * np.sin(np.pi * grid48.X1) * np.sin(np.pi * grid48.X2))
    cfg = sh.ShellConfig(v0, alpha=1.0, h=1e-2, n_t=3)
    u = recovery(en.PlateState(en.I40, VectorField2.zeros(grid48), v), g, cfg, m)
    imm = sh.Immersion(cfg)
    qh = sh.GrowthEvaluator(g, cfg)
    x3 = cfg.gauss_rule()[0][0]
    stacks = {f"grad_y[{k}]": u.grad_y[k] for k in range(cfg.n_t)}
    stacks.update(grad_phi_tilde=imm.grad_phi_tilde(x3), inverse_at=qh.inverse_at(x3))
    for name, a in stacks.items():
        assert a.shape == (grid48.nx, grid48.ny, 3, 3), name
        assert all(a[..., i, j].flags.c_contiguous for i in range(3) for j in range(3)), name


# -- the sweep template and the screened distance diagnostics -------------------------

def sweep_case(grid, regime):
    """(alpha, v0, state) of a recovery sweep in the given regime."""
    x, y = grid.X1, grid.X2
    w = VectorField2(grid, np.stack([0.1 * x * x * y, -0.05 * y * y], axis=-1))
    bump = 0.2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    if regime == sh.CONSTRAINED:
        v0 = ScalarField(grid, 0.5 * (x * x + y * y))
        st = en.PlateState(en.I4INF, w, ScalarField(grid, 0.3 * (x * x - y * y)), ScalarField(grid, 0.2 * x * y))
        return 0.5, v0, st
    v0 = ScalarField(grid, 0.25 * (x * x + y * y))
    if regime == sh.DMV:
        return 1.0, v0, en.PlateState(en.I41, w, ScalarField(grid, v0.data + bump))
    return 2.0, v0, en.PlateState(en.I40, w, ScalarField(grid, bump))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("regime", sh.REGIMES)
def test_scaling_study_template_matches_per_row_builds(square33, regime, workers):
    # the constrained sweep reconstructs wtilde once, in the template; each
    # reference row reconstructs its own
    m = en.Material(1.0, 1.0)
    g = sine_growth(square33)
    alpha, v0, st = sweep_case(square33, regime)
    h_list = [1e-1, 1e-2, 1e-4]
    study = sh.scaling_study(alpha, h_list, g, v0, st, m, n_t=3, workers=workers)
    assert study.regime == regime
    for h, row in zip(h_list, study.rows):
        cfg = sh.ShellConfig(v0, alpha=alpha, h=h, n_t=3)
        e3, _ = sh.energy_3d(recovery(st, g, cfg, m), g, m)
        assert row.e3d == e3 and row.e3d_over_h4 == e3 / h**4


def test_scaling_study_checks_every_shell_before_the_first_row(square33, monkeypatch):
    m = en.Material(1.0, 1.0)
    g = sine_growth(square33)
    alpha, v0, st = sweep_case(square33, sh.DMV)
    builds = []
    build = sh.build_recovery

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(sh, "build_recovery", counted)
    with pytest.raises(ValueError, match="thickness must be positive"):
        sh.scaling_study(alpha, [0.1, 0.05, -0.01], g, v0, st, m, n_t=3)
    assert len(builds) == 0


def full_kernel_diagnostics(u, g):
    """max distance to SO(3) and the guard count with _dist_from_strain run on every point."""
    imm = sh.Immersion(u.cfg)
    qh = sh.GrowthEvaluator(g, u.cfg)
    dists = []
    for k, x3 in enumerate(u.cfg.gauss_rule()[0]):
        gp_inv, _ = sh._inv3(imm.grad_phi_tilde(x3))
        a = sh._matmul3_into(u.grad_y[k], gp_inv)
        f = sh._matmul3_into(a.copy(), qh.inverse_at(x3))
        dists.append(sh._dist_from_strain(sh._strain(f), f, sh._det3(a)).ravel())
    d = np.concatenate(dists)
    return float(d.max()), int(np.count_nonzero(d > sh.DIST_SO3_GUARD))


def flat_deformation(grid, stacks):
    """A deformation of the flat, unstrained shell whose gradient at each point is
    the given matrix: there grad phi_tilde = q^h = Id, so F is exactly grad y."""
    cfg = sh.ShellConfig(ScalarField.zeros(grid), alpha=2.0, h=0.05, n_t=3)
    grad = np.broadcast_to(stacks.reshape(grid.nx, grid.ny, 3, 3), (3, grid.nx, grid.ny, 3, 3))
    return sh.Deformation3D(cfg, np.ascontiguousarray(grad))


def screen_cases(rng):
    n = 16 * 16
    near_id = np.eye(3) + 1e-2 * rng.standard_normal((n, 3, 3))
    reflected = near_id.copy()
    reflected[::5] = reflected[::5] @ np.diag([1.0, 1.0, -1.0])
    large = near_id.copy()
    large[::7] *= 1.8  # |e| about 3.9
    large[3::7] = np.diag([np.sqrt(2.0), 1.0, 1.0]) @ random_rotation(rng)  # |e| = 1 up to rounding
    guard = near_id.copy()
    # sigma = 1.3 + s, then 1.32 and 0.4: the last, 0.6 from SO(3), sets a
    # maximum above the 1.32 point's upper bound 0.49, which must still count
    for i, s in enumerate((-1e-9, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-9, 0.02, -0.9)):
        guard[10 * i] = random_rotation(rng) @ np.diag([1.3 + s, 1.0, 1.0])
    return {
        "uniform strain": np.broadcast_to(np.diag([1.05, 1.0, 0.98]) @ random_rotation(rng), (n, 3, 3)).copy(),
        "det F < 0": reflected,
        "|e| >= 1": large,
        "either side of the guard": guard,
    }


def test_screened_distance_diagnostics_match_the_full_kernel(square33, rng):
    m = en.Material(1.2, 0.6)
    g = sine_growth(square33)
    alpha, v0, st = sweep_case(square33, sh.DMV)
    cfg = sh.ShellConfig(v0, alpha=alpha, h=0.1, n_t=5)
    cases = {"recovery": (recovery(st, g, cfg, m), g)}
    grid16 = Grid2D(16, 16, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET)
    for name, stacks in screen_cases(rng).items():
        cases[name] = (flat_deformation(grid16, stacks), GrowthFields.zeros(grid16))
    for name, (u, gg) in cases.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            _, diag = sh.energy_3d(u, gg, m)
        ref_max, ref_flagged = full_kernel_diagnostics(u, gg)
        assert diag["max_dist_so3"] == ref_max, name
        assert diag["points_beyond_guard"] == ref_flagged, name
        if name == "either side of the guard":  # some of its 9 points per node pass the guard, not all
            assert 2 * u.cfg.n_t < ref_flagged < 9 * u.cfg.n_t


def test_screen_sends_few_points_to_the_exact_distance(grid48, monkeypatch):
    m = en.Material(1.0, 1.0)
    g = sine_growth(grid48)
    alpha, v0, st = sweep_case(grid48, sh.DMV)
    cfg = sh.ShellConfig(v0, alpha=alpha, h=0.1, n_t=5)
    u = recovery(st, g, cfg, m)
    exact = []
    kernel = sh._dist_from_strain

    def counted(e, f, det_f):
        exact.append(det_f.size)
        return kernel(e, f, det_f)

    monkeypatch.setattr(sh, "_dist_from_strain", counted)
    sh.energy_3d(u, g, m)
    assert len(exact) == cfg.n_t
    assert sum(exact) < 0.05 * u.grad_y.size // 9


@pytest.mark.parametrize("regime", sh.REGIMES)
def test_recovery_template_e2d_is_the_limit_functional(square33, regime):
    # the template's one integrand pass gives the bits of the regime's limit
    # functional (penalty 0), here evaluated on fresh fields with their own planes
    m = en.Material(1.3, 0.7)
    g = sine_growth(square33)
    _, v0, st = sweep_case(square33, regime)
    template = sh.RecoveryTemplate(st, g, v0, regime, m)
    _, v0, st = sweep_case(square33, regime)
    want = {
        sh.FLAT: lambda: en.energy_i40(st, g, m),
        sh.DMV: lambda: en.energy_i41(st, g, m, v0),
        sh.CONSTRAINED: lambda: en.energy_i4inf(st, g, m, v0, 0.0)[0],
    }[regime]()
    assert template.e2d > 0.0 and template.e2d == want


# the stack helpers of fields and the energies, counted at every import site
COUNTED = ("grad_values", "hessian_values", "sym_grad_values", "sym_values", "cof2_values", "det2_values",
             "airy_bracket", "total_energy", "grad_energy", "energy_i40", "energy_i41", "energy_i4inf", "q2")


def test_scaling_study_applies_twelve_stencils_per_row_and_nothing_else(square33, monkeypatch):
    # v0's planes, the state's and E2d are formed once per sweep, so a row
    # applies only build_recovery's 12 stencils (grad Y, grad nu); the sweep
    # calls no stack helper and no energy
    m = en.Material(1.0, 1.0)
    g = sine_growth(square33)
    calls = {}

    def counted(kind, fn):
        def call(*args, **kwargs):
            calls[kind] = calls.get(kind, 0) + 1
            return fn(*args, **kwargs)
        return call

    for name in ("d1", "d2", "d1_t", "d2_t", "lap", "bilap"):
        monkeypatch.setattr(Grid2D, name, counted("stencil", vars(Grid2D)[name]))
    for mod in (fields, en, growth, sh, solver):
        for name in COUNTED:
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counted(name, vars(mod)[name]))

    def sweep(h_list):
        calls.clear()
        alpha, v0, st = sweep_case(square33, sh.DMV)  # fresh fields: no planes formed yet
        sh.scaling_study(alpha, h_list, g, v0, st, m, n_t=3)
        return dict(calls)

    one, three = sweep([1e-1]), sweep([1e-1, 1e-2, 1e-3])
    assert set(one) == {"stencil"}
    assert three == {"stencil": one["stencil"] + 2 * 12}


def test_constrained_template_holds_few_planes_more_than_the_dmv_one():
    # the compensator's strain -sym(grad v x grad v0) dies before the warping
    # gradients are allocated; held through them with grad v and grad v0, it
    # put the constrained template 12 planes above the DMV one
    grid = Grid2D(129, 129, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET)
    m = en.Material(1.0, 1.0)
    g = sine_growth(grid)

    def peak(regime):
        _, v0, st = sweep_case(grid, regime)
        sh.RecoveryTemplate(st, g, v0, regime, m)  # caches and lazy imports
        _, v0, st = sweep_case(grid, regime)  # fresh fields: their planes are formed inside
        tracemalloc.start()
        try:
            sh.RecoveryTemplate(st, g, v0, regime, m)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plane = grid.nx * grid.ny * 8
    assert peak(sh.CONSTRAINED) - peak(sh.DMV) <= 5 * plane


def test_recovery_template_supplies_the_state(monkeypatch):
    grid = Grid2D(17, 17, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET)
    m = en.Material(1.0, 1.0)
    g = sine_growth(grid)
    alpha, v0, st = sweep_case(grid, sh.DMV)
    cfg = sh.ShellConfig(v0, alpha=alpha, h=0.01)
    template = sh.RecoveryTemplate(st, g, v0, sh.DMV, m)
    assert sh.build_recovery(template, cfg).cfg is cfg
    saddle = sh.ShellConfig(ScalarField(grid, 0.5 * (grid.X1**2 - grid.X2**2)), alpha=alpha, h=0.01)
    flat = sh.ShellConfig(v0, alpha=2.0, h=0.01)
    for other in (saddle, flat):
        with pytest.raises(ValueError, match="another v0 or regime"):
            sh.build_recovery(template, other)
    # the state must fit the regime's limit functional: vtilde comes with the
    # constrained regime, and only there.  It is checked before the
    # constrained regime's wtilde solve, so a state that does not fit costs none
    solves = []
    monkeypatch.setattr(sh, "solve_sym_grad", lambda *args: solves.append(args))
    _, v0_c, st_c = sweep_case(grid, sh.CONSTRAINED)
    for state, v0_r, regime in ((st_c, v0, sh.DMV), (st_c, v0, sh.FLAT), (st, v0_c, sh.CONSTRAINED)):
        with pytest.raises(ValueError, match="does not fit"):
            sh.RecoveryTemplate(state, g, v0_r, regime, m)
    assert not solves


@pytest.mark.parametrize("regime", sh.REGIMES)
def test_recovery_template_warping_is_the_q2_completion_of_the_integrands(square33, regime):
    # the template reads c(S) and c(K) from the traces alone; q2's minimizer on
    # the full (..., 2, 2) integrand stacks gives the same bits
    m = en.Material(1.3, 0.7)
    g = sine_growth(square33)
    _, v0, st = sweep_case(square33, regime)
    template = sh.RecoveryTemplate(st, g, v0, regime, m)
    functional = st.variant
    stretch, bend, _ = en._integrands(functional, *en._stencil_planes(st), g, en._v0_planes(functional, v0))
    c_s, c_k = (en.q2(sym_stack(*f), m)[1] for f in (stretch, bend))
    assert np.any(c_s[..., 2] != 0.0) and np.any(c_k[..., 2] != 0.0)
    assert np.array_equal(template.d0, en.warping_l(g.eps_g.data) + 2.0 * c_s)
    assert np.array_equal(template.d1, en.warping_l(g.kappa_g.data) - 2.0 * c_k)


# -- the streamed thickness nodes ---------------------------------------------------

@pytest.mark.parametrize("regime", sh.REGIMES)
def test_recovery_and_its_explicit_stack_give_the_same_energy(square33, regime, monkeypatch):
    # build_recovery's deformation forms each node when energy_3d asks for it;
    # the stack it derives, handed back as an explicit Deformation3D, must give
    # the same bits for the energy and every diagnostic
    m = en.Material(1.2, 0.6)
    g = sine_growth(square33)
    alpha, v0, st = sweep_case(square33, regime)
    h_list = [1e-1, 1e-3, 1e-5]
    for h in h_list:
        cfg = sh.ShellConfig(v0, alpha=alpha, h=h, n_t=5)
        u = recovery(st, g, cfg, m)
        stack = u.grad_y
        assert stack is not u.grad_y and np.array_equal(stack, u.grad_y)
        explicit = sh.Deformation3D(cfg, stack)
        for k in range(cfg.n_t):
            node = sh._component_major(stack.shape[1:])
            assert u.node_jacobian(k, node) is node and np.array_equal(node, stack[k])
        with monkeypatch.context() as mp:
            mp.setattr(sh.Deformation3D, "grad_y", property(lambda self: pytest.fail("energy_3d read grad_y")))
            streamed, served = sh.energy_3d(u, g, m), sh.energy_3d(explicit, g, m)
        assert streamed == served
    serial = sh.scaling_study(alpha, h_list, g, v0, st, m, workers=1)
    threaded = sh.scaling_study(alpha, h_list, g, v0, st, m, workers=2)
    assert threaded.csv_lines() == serial.csv_lines()


def test_one_row_holds_few_point_stacks():
    # one stack is nx ny 9 doubles; a row that held every node's grad y
    # (n_t = 5 stacks) and a fresh stack per product peaked at 12.1, and
    # build_recovery alone at 8.7
    grid = Grid2D(129, 129, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET)
    m = en.Material(1.0, 1.0)
    g = sine_growth(grid)
    alpha, v0, st = sweep_case(grid, sh.DMV)
    template = sh.RecoveryTemplate(st, g, v0, sh.DMV, m)
    cfg = sh.ShellConfig(v0, alpha=alpha, h=1e-2, n_t=5)
    sh.energy_3d(sh.build_recovery(template, cfg), g, m)  # caches and lazy imports outside the measurement
    stack = grid.nx * grid.ny * 9 * 8
    tracemalloc.start()
    try:
        u = sh.build_recovery(template, cfg)
        build_peak = tracemalloc.get_traced_memory()[1]
        del u
        tracemalloc.reset_peak()
        sh.energy_3d(sh.build_recovery(template, cfg), g, m)
        row_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak < 3.0 * stack
    assert row_peak < 10.0 * stack
