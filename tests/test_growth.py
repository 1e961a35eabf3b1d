import tracemalloc

import numpy as np
import pytest

from vkshell.fields import (
    DIRICHLET,
    PERIODIC,
    Grid2D,
    MatrixField3,
    ScalarField,
    apply_diff,
    det2,
    sym_grad_values,
)
from vkshell.growth import (
    GROWTH_PRESETS,
    GrowthFields,
    GrowthSpec,
    GrowthSpecError,
    eval_growth,
    effective_growth,
    growth_preset,
    incompatibility,
    lambda_g,
    omega_g,
    strain_pullback,
)


def horner_eval(terms, x, y):
    # independent oracle: evaluate sum c x^p y^q via nested Horner in x then y
    max_p = max((p for _, p, _ in terms), default=0)
    max_q = max((q for _, _, q in terms), default=0)
    coefs = np.zeros((max_p + 1, max_q + 1))
    for c, p, q in terms:
        coefs[p, q] += c
    out = np.zeros_like(x)
    for p in range(max_p, -1, -1):
        row = np.zeros_like(y)
        for q in range(max_q, -1, -1):
            row = row * y + coefs[p, q]
        out = out * x + row
    return out


def test_spec_validation():
    with pytest.raises(GrowthSpecError):
        GrowthSpec(eps_entries={(1, 1): [(1.0, 5, 3)]})  # degree 8 > 6
    with pytest.raises(GrowthSpecError):
        GrowthSpec(eps_entries={(1, 1): [(np.inf, 0, 0)]})
    with pytest.raises(GrowthSpecError):
        GrowthSpec.from_config({"sigma.1.1": [[1.0, 0, 0]]})
    spec = GrowthSpec.from_config({"eps.1.1": [[0.5, 0, 2]], "kappa.2.2": [[1.0, 1, 0]]})
    assert spec.eps_entries[(1, 1)] == ((0.5, 0, 2),)


@pytest.mark.parametrize(
    "terms",
    [7, [7], [[1.0, 0]], [(1.0, 1.5, 0)], [(1.0, "2", 0)], [(1.0, True, 0)], [(None, 1, 0)]],
    ids=["list_not_a_list", "term_not_a_list", "two_items", "fractional", "string", "bool", "no_coef"],
)
def test_spec_rejects_malformed_terms(terms):
    with pytest.raises(GrowthSpecError):
        GrowthSpec(eps_entries={(1, 1): terms})


def test_eval_growth_zero_and_monomial(square33):
    zero = eval_growth(GrowthSpec(), square33)
    assert np.max(np.abs(zero.eps_g.data)) == 0.0
    gf = eval_growth(GrowthSpec(eps_entries={(1, 1): [(0.5, 0, 2)]}), square33)
    assert np.array_equal(gf.eps_g.data[..., 0, 0], square33.X2**2 / 2)


def test_eval_growth_matches_horner(square33, rng):
    terms = [(float(rng.standard_normal()), int(p), int(q)) for p in range(4) for q in range(4 - p)]
    spec = GrowthSpec(eps_entries={(2, 3): terms})
    gf = eval_growth(spec, square33)
    oracle = horner_eval(terms, square33.X1, square33.X2)
    assert np.max(np.abs(gf.eps_g.data[..., 1, 2] - oracle)) < 1e-13 * (1 + np.max(np.abs(oracle)))


def test_lambda_g(square33):
    assert np.max(np.abs(lambda_g(GrowthFields.zeros(square33)).data)) == 0.0
    gf = eval_growth(GrowthSpec(eps_entries={(1, 1): [(0.5, 0, 2)]}), square33)
    assert np.allclose(lambda_g(gf).data, 1.0, atol=1e-9)
    # compatible strain: eps_tan = sym grad w for polynomial w
    grid = square33
    w = np.stack([grid.X1**2 * grid.X2, grid.X1 + grid.X2**3], axis=-1)
    eps = np.zeros((grid.nx, grid.ny, 3, 3))
    eps[..., :2, :2] = sym_grad_values(grid, w)
    gfc = GrowthFields.from_arrays(grid, eps, np.zeros_like(eps))
    assert np.max(np.abs(lambda_g(gfc).data)) < 30.0 * grid.dx**2


def test_omega_g(square33, torus64):
    assert np.max(np.abs(omega_g(GrowthFields.zeros(square33), 0.3).data)) == 0.0
    kap = np.zeros((33, 33, 3, 3))
    kap[..., 0, 0] = 2.0
    kap[..., 1, 1] = -1.0
    gf = GrowthFields.from_arrays(square33, np.zeros_like(kap), kap)
    assert np.max(np.abs(omega_g(gf, 0.25).data)) < 1e-12
    # kappa_tan = hess(sin x): omega_g = bilap(sin x) = sin x for every nu
    grid = torus64
    v = ScalarField.sample(grid, lambda x, y: np.sin(x) + 0 * y)
    kap2 = np.zeros((grid.nx, grid.ny, 3, 3))
    kap2[..., :2, :2] = apply_diff(v, "hessian").data
    gf2 = GrowthFields.from_arrays(grid, np.zeros_like(kap2), kap2)
    for nu in (0.0, 0.2, 0.45):
        assert np.max(np.abs(omega_g(gf2, nu).data - np.sin(grid.X1))) < 5.0 * grid.dx**2
    with pytest.raises(ValueError):
        omega_g(gf2, 0.5)


def test_effective_growth(square33):
    grid = square33
    gf0 = GrowthFields.zeros(grid)
    v0 = ScalarField.sample(grid, lambda x, y: x * y)
    eff = effective_growth(gf0, v0)
    # eps_eff = 1/2 (x2, x1) x (x2, x1) embedded; kappa_eff = -hess(x1 x2) embedded
    assert np.allclose(eff.eps_g.data[..., 0, 0], 0.5 * grid.X2**2, atol=1e-12)
    assert np.allclose(eff.eps_g.data[..., 0, 1], 0.5 * grid.X1 * grid.X2, atol=1e-12)
    assert np.max(np.abs(eff.eps_g.data[..., 2, :])) == 0.0
    assert np.allclose(eff.kappa_g.data[..., 0, 1], -1.0, atol=1e-10)
    assert np.max(np.abs(eff.kappa_g.data[..., 0, 0])) < 1e-10
    # v0 = 0 leaves the symmetrized tensors unchanged
    rngl = np.random.default_rng(5)
    raw = rngl.standard_normal((grid.nx, grid.ny, 3, 3))
    gfr = GrowthFields.from_arrays(grid, raw, raw[..., ::-1, :].copy())
    eff0 = effective_growth(gfr, ScalarField.zeros(grid))
    sym = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    assert np.array_equal(eff0.eps_g.data, sym)
    # outputs are exactly symmetric
    assert np.array_equal(eff0.kappa_g.data, np.swapaxes(eff0.kappa_g.data, -1, -2))


@pytest.mark.parametrize("preset_v0", ["saddle", "paraboloid"])
def test_proposition_source_pair(square33, preset_v0):
    # lambda_g(eff) = lambda_g - det hess v0 and omega_g(eff) = omega_g - bilap v0
    grid = square33
    if preset_v0 == "saddle":
        v0 = ScalarField.sample(grid, lambda x, y: x * y)
    else:
        v0 = ScalarField.sample(grid, lambda x, y: 0.5 * (x * x + y * y))
    spec = GrowthSpec(
        eps_entries={(1, 1): [(0.5, 0, 2)], (1, 2): [(0.25, 1, 1)], (2, 1): [(0.25, 1, 1)]},
        kappa_entries={(1, 1): [(1.0, 2, 0)], (2, 2): [(0.5, 0, 2)]},
    )
    g = eval_growth(spec, grid)
    eff = effective_growth(g, v0)
    nu = 0.3
    det0 = det2(apply_diff(v0, "hessian")).data
    bil0 = apply_diff(v0, "bilaplacian").data
    tol = 50.0 * grid.dx**2
    assert np.max(np.abs(lambda_g(eff).data - (lambda_g(g).data - det0))) < tol
    assert np.max(np.abs(omega_g(eff, nu).data - (omega_g(g, nu).data - bil0))) < tol


def test_incompatibility(square33, torus64):
    _, n0 = incompatibility(GrowthFields.zeros(square33))
    assert n0 == 0.0
    # hessians are curl free
    grid = torus64
    v = ScalarField.sample(grid, lambda x, y: np.sin(x) * np.sin(y))
    kap = np.zeros((grid.nx, grid.ny, 3, 3))
    kap[..., :2, :2] = apply_diff(v, "hessian").data
    _, nh = incompatibility(GrowthFields.from_arrays(grid, np.zeros_like(kap), kap))
    assert nh < 20.0 * grid.dx**2
    # kappa_tan = [[0,0],[0,x1]] has unit curl in the second row
    kap2 = np.zeros((33, 33, 3, 3))
    kap2[..., 1, 1] = square33.X1
    c, norm = incompatibility(GrowthFields.from_arrays(square33, np.zeros_like(kap2), kap2))
    assert np.allclose(c.data[..., 1], 1.0, atol=1e-10)
    assert np.max(np.abs(c.data[..., 0])) < 1e-12
    assert norm == pytest.approx(1.0, rel=1e-10)  # sqrt of the unit-square area


def test_strain_pullback(square33, rng):
    grid = square33
    # gamma = 0 projects to the principal minor
    msamp = rng.standard_normal((grid.nx, grid.ny, 3, 3))
    m3 = MatrixField3(grid, msamp)
    v0 = ScalarField.sample(grid, lambda x, y: 0.2 * x * x + y)
    flat = strain_pullback(m3, v0, 0.0)
    assert np.array_equal(flat.data, msamp[..., :2, :2])
    # lifted shear: sym grad of w = (0, 0, x1) against v0 = x2
    lift = np.zeros((grid.nx, grid.ny, 3, 3))
    lift[..., 2, 0] = 0.5
    lift[..., 0, 2] = 0.5
    out = strain_pullback(MatrixField3(grid, lift), ScalarField.sample(grid, lambda x, y: y + 0 * x), 1.0)
    assert np.allclose(out.data[..., 0, 1], 0.5, atol=1e-12)
    assert np.allclose(out.data[..., 0, 0], 0.0, atol=1e-12)
    assert np.allclose(out.data[..., 1, 1], 0.0, atol=1e-12)
    # identity form: Id2 + gamma^2 grad v0 x grad v0
    eye = MatrixField3(grid, np.tile(np.eye(3), (grid.nx, grid.ny, 1, 1)))
    gamma = 0.7
    out2 = strain_pullback(eye, v0, gamma)
    dv = np.stack([grid.d1(v0.data, 0), grid.d1(v0.data, 1)], axis=-1)
    expected = np.tile(np.eye(2), (grid.nx, grid.ny, 1, 1)) + gamma**2 * dv[..., :, None] * dv[..., None, :]
    assert np.max(np.abs(out2.data - expected)) < 1e-13


def test_effective_growth_metric_consistency(square33):
    # assembling the pulled-back metric at gamma = h and comparing with
    # Id + 2 h^2 eps_eff + 2 h x3 kappa_eff leaves an O(h^3) defect
    from vkshell.shell3d import metric_residual

    grid = square33
    spec = GrowthSpec(
        eps_entries={(1, 1): [(0.3, 1, 1)]},
        kappa_entries={(2, 2): [(0.5, 0, 2)], (1, 3): [(0.2, 1, 0)], (3, 1): [(0.2, 1, 0)]},
    )
    g = eval_growth(spec, grid)
    v0 = ScalarField.sample(grid, lambda x, y: 0.4 * x * y + 0.1 * x * x)
    r2 = metric_residual(g, v0, 1e-2)
    r3 = metric_residual(g, v0, 1e-3)
    assert 500.0 < r2 / r3 < 2000.0  # cubic decay between the two thicknesses


def test_growth_presets(torus64):
    g = growth_preset("omega_sine", torus64, 1.0)
    om = omega_g(g, 0.3)
    assert np.max(np.abs(om.data - np.sin(torus64.X1))) < 5.0 * torus64.dx**2
    _, n_inc = incompatibility(growth_preset("kappa_sine", torus64, 1.0))
    assert n_inc > 0.1
    _, n_comp = incompatibility(growth_preset("kappa_compatible", torus64, 1.0))
    assert n_comp < 50.0 * torus64.dx**2
    with pytest.raises(ValueError):
        growth_preset("nope", torus64)


# -- storage: one component-major allocation per sampled tensor -------------------

def _preset_formulas(name, grid, a):
    """The presets' 2-D formulas on the node meshgrids, as (eps, kappa) entries."""
    k1, k2 = 2.0 * np.pi / (grid.domain[1] - grid.domain[0]), 2.0 * np.pi / (grid.domain[3] - grid.domain[2])
    X1, X2 = grid.X1 - grid.domain[0], grid.X2 - grid.domain[2]
    s1, c1, s2, c2 = np.sin(k1 * X1), np.cos(k1 * X1), np.sin(k2 * X2), np.cos(k2 * X2)
    return {
        "zero": ({}, {}),
        "eps_sine": ({(0, 0): a * s1 * s2}, {}),
        "kappa_sine": ({}, {(0, 0): a * s1 * s2}),
        "kappa_compatible": ({}, {
            (0, 0): -a * k1 * k1 * s1 * s2,
            (0, 1): a * k1 * k2 * c1 * c2,
            (1, 0): a * k1 * k2 * c1 * c2,
            (1, 1): -a * k2 * k2 * s1 * s2,
        }),
        "omega_sine": ({}, {(0, 0): -a * s1}),
    }[name]


PRESET_GRIDS = {
    "ghost65x47": lambda: Grid2D(65, 47, (-0.5, 1.5, 0.25, 1.0), bc=DIRICHLET),
    "torus": lambda: Grid2D(64, 48, (0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi), bc=PERIODIC),
}


@pytest.mark.parametrize("where", list(PRESET_GRIDS))
@pytest.mark.parametrize("name", GROWTH_PRESETS)
def test_presets_are_component_major_read_only_and_bitwise_the_2d_formulas(name, where):
    grid = PRESET_GRIDS[where]()
    a = 0.7
    g = growth_preset(name, grid, a)
    for tensor, formulas in zip((g.eps_g.data, g.kappa_g.data), _preset_formulas(name, grid, a)):
        assert tensor.shape == (grid.nx, grid.ny, 3, 3)
        assert not tensor.flags.writeable
        for i in range(3):
            for j in range(3):
                plane = tensor[..., i, j]
                assert plane.flags.c_contiguous, (i, j)
                want = formulas.get((i, j), np.zeros_like(grid.X1))
                assert np.array_equal(plane, want), (name, i, j)


def test_eval_growth_is_component_major_and_read_only(square33):
    spec = GrowthSpec(eps_entries={(1, 2): [(0.5, 1, 1)]}, kappa_entries={(3, 3): [(2.0, 0, 2)]})
    g = eval_growth(spec, square33)
    for tensor in (g.eps_g.data, g.kappa_g.data):
        assert not tensor.flags.writeable
        assert all(tensor[..., i, j].flags.c_contiguous for i in range(3) for j in range(3))
    assert np.array_equal(g.kappa_g.data[..., 2, 2], 2.0 * square33.X2**2)


def test_parse_config_samples_the_growth_once():
    # eps_g and kappa_g are two tensor sizes; sampling into them in place and
    # taking them without a copy keeps the peak below three (a C-ordered
    # sample copied into the fields peaked at 4.6)
    from vkshell import cli

    doc = {
        "grid": {"nx": 256, "ny": 256, "domain": [0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi], "bc": "periodic"},
        "material": {"mu": 1.0, "lambda": 1.0},
        "growth": {"preset": "kappa_sine", "amplitude": 0.5},
        "geometry": {"v0": "zero"},
    }
    cli.parse_config(doc)  # lazy imports and caches outside the measurement
    tracemalloc.start()
    try:
        cfg = cli.parse_config(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tensor = cfg.growth.kappa_g.data.nbytes
    assert tensor == 256 * 256 * 9 * 8
    assert peak < 3.0 * tensor


def test_from_arrays_copies_its_input(square33, rng):
    grid = square33
    eps = rng.standard_normal((grid.nx, grid.ny, 3, 3))
    kappa = rng.standard_normal((grid.nx, grid.ny, 3, 3))
    g = GrowthFields.from_arrays(grid, eps, kappa)
    before = g.eps_g.data.copy(), g.kappa_g.data.copy()
    eps += 1.0
    kappa[..., 0, 0] = 0.0
    assert np.array_equal(g.eps_g.data, before[0]) and np.array_equal(g.kappa_g.data, before[1])
    assert eps.flags.writeable and kappa.flags.writeable
    assert not g.eps_g.data.flags.writeable and not g.kappa_g.data.flags.writeable


def test_sampling_checks_only_the_planes_it_writes(square33, monkeypatch):
    # the samplers write a few planes of zeroed tensors; reading the other,
    # untouched planes only to check them faulted in their pages
    plane = square33.nx * square33.ny
    checked = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: checked.append(a.size) or isfinite(a))
    growth_preset("kappa_compatible", square33)
    assert checked == [plane] * 4
    checked.clear()
    eval_growth(GrowthSpec(eps_entries={(1, 2): [(0.5, 1, 1)]}, kappa_entries={(3, 3): [(2.0, 0, 2)]}), square33)
    assert checked == [plane] * 2
    checked.clear()
    growth_preset("zero", square33)
    assert checked == []
    # a written plane is still checked, and the public constructors check all nine
    with pytest.raises(ValueError, match="finite"):
        growth_preset("kappa_sine", square33, amplitude=np.nan)
    data = np.zeros((square33.nx, square33.ny, 3, 3))
    data[3, 4, 2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        MatrixField3(square33, data)
