"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
Every tolerance is pinned here; the frozen stencil constants were measured
once at 64^2 / 128^2 and carry at least a factor-2 safety margin.
"""

import math

import numpy as np

from vkshell import cli
from vkshell import energy as en
from vkshell import shell3d as sh
from vkshell import solver as so
from vkshell.fields import (
    DIRICHLET,
    PERIODIC,
    Grid2D,
    MatrixField2,
    ScalarField,
    VectorField2,
    airy_bracket,
    cof2_values,
    curl_t_curl,
    det2_values,
    div_t_div,
    grad_values,
    hessian_values,
    sym_grad_values,
    sym_values,
)
from vkshell.growth import (
    GrowthFields,
    GrowthSpec,
    eval_growth,
    effective_growth,
    growth_preset,
    incompatibility,
    lambda_g,
    omega_g,
)

TWO_PI = 2.0 * math.pi


def _line(num: int, name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name:<38s} {tag}  {detail}")
    return ok


def _torus(n):
    return Grid2D(n, n, (0.0, TWO_PI, 0.0, TWO_PI), bc=PERIODIC)


def _square(n):
    return Grid2D(n, n, (0.0, 1.0, 0.0, 1.0), bc=DIRICHLET)


def _identity_residuals(grid):
    v0 = ScalarField.sample(grid, lambda x, y: np.sin(x) * np.sin(y) + 0.3 * np.cos(x))
    v3 = ScalarField.sample(grid, lambda x, y: np.cos(x) * np.sin(2 * y))
    dv3 = grad_values(grid, v3.data)
    dv0 = grad_values(grid, v0.data)
    r46 = curl_t_curl(
        MatrixField2(grid, sym_values(dv3[..., :, None] * dv0[..., None, :]), symmetric=True)
    ).data + np.sum(
        cof2_values(hessian_values(grid, v0.data)) * hessian_values(grid, v3.data), axis=(-2, -1)
    )
    w = np.stack([np.sin(grid.X1) * np.cos(grid.X2), np.cos(2 * grid.X1) * np.sin(grid.X2)], axis=-1)
    kern_ctc = curl_t_curl(MatrixField2(grid, sym_grad_values(grid, w), symmetric=True)).data
    kern_ddc = div_t_div(
        MatrixField2(grid, cof2_values(hessian_values(grid, v0.data)), symmetric=True)
    ).data
    return {
        "rank_one": float(np.max(np.abs(r46))),
        "ctc_kernel": float(np.max(np.abs(kern_ctc))),
        "ddc_kernel": float(np.max(np.abs(kern_ddc))),
    }


def test_criterion_01_operator_identity_suite():
    g64, g128 = _torus(64), _torus(128)
    r64 = _identity_residuals(g64)
    r128 = _identity_residuals(g128)
    bounds = {"rank_one": 25.0, "ctc_kernel": 12.0, "ddc_kernel": 3.0}
    ok = True
    orders = {}
    for key in r64:
        orders[key] = math.log2(r64[key] / r128[key])
        ok &= r64[key] <= bounds[key] * g64.dx**2
        ok &= r128[key] <= bounds[key] * g128.dx**2
        ok &= orders[key] >= 1.8
    v = ScalarField.sample(g64, lambda x, y: np.sin(x) * np.sin(y))
    p = ScalarField.sample(g64, lambda x, y: np.cos(x) + 0.3 * np.sin(y))
    sym_exact = np.array_equal(airy_bracket(v, p).data, airy_bracket(p, v).data)
    ok &= sym_exact
    detail = " ".join(f"{k}:o={orders[k]:.2f}" for k in orders) + f" bracket_sym={sym_exact}"
    assert _line(1, "operator identity suite", ok, detail)


def test_criterion_02_effective_source_pair():
    spec = GrowthSpec(
        eps_entries={(1, 1): [(0.5, 0, 2)], (1, 2): [(0.25, 1, 1)], (2, 1): [(0.25, 1, 1)]},
        kappa_entries={(1, 1): [(1.0, 2, 0)], (2, 2): [(0.5, 0, 2)], (1, 2): [(0.3, 1, 0)]},
    )
    ok = True
    details = []
    for name, fn in (("saddle", lambda x, y: x * y), ("paraboloid", lambda x, y: 0.5 * (x * x + y * y))):
        grid = _square(65)
        v0 = ScalarField.sample(grid, fn)
        g = eval_growth(spec, grid)
        eff = effective_growth(g, v0)
        nu = 0.3
        det0 = det2_values(hessian_values(grid, v0.data))
        bil0 = grid.bilap(v0.data)
        lam_err = float(np.max(np.abs(lambda_g(eff).data - (lambda_g(g).data - det0))))
        om_err = float(np.max(np.abs(omega_g(eff, nu).data - (omega_g(g, nu).data - bil0))))
        tol = 50.0 * grid.dx**2
        ok &= lam_err <= tol and om_err <= tol
        details.append(f"{name}: lam={lam_err:.2e} om={om_err:.2e} tol={tol:.2e}")
    assert _line(2, "effective growth source pair", ok, "; ".join(details))


def test_criterion_03_relaxation_brute_force():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        mu, lam = rng.uniform(0.5, 5.0, size=2)
        m = en.Material(mu, lam)
        for _ in range(100):
            f2 = rng.standard_normal((2, 2))
            val, _ = en.q2(f2, m)
            brute = cli.brute_force_q2(f2, m)
            worst = max(worst, abs(val - brute) / max(abs(brute), 1e-30))
    ok = worst <= 1e-8
    assert _line(3, "Q2 relaxation vs brute force", ok, f"worst rel err {worst:.2e}")


def test_criterion_04_gradient_checks():
    rng = np.random.default_rng(11)
    worst = 0.0
    t = 1e-5
    for functional in (en.I40, en.I41, en.I4INF):
        for k in range(20):
            bc = DIRICHLET if k % 2 == 0 else PERIODIC
            domain = (0, 1, 0, 1) if bc == DIRICHLET else (0, TWO_PI, 0, TWO_PI)
            grid = Grid2D(16, 16, domain, bc=bc)
            m = en.Material(rng.uniform(0.5, 3), rng.uniform(0.1, 3))
            eps = 0.2 * rng.standard_normal((16, 16, 3, 3))
            kap = 0.2 * rng.standard_normal((16, 16, 3, 3))
            g = GrowthFields.from_arrays(grid, eps, kap)
            v0 = ScalarField(grid, 0.4 * np.sin(grid.X1) * np.sin(grid.X2))
            s = so.gauge_fix(en.PlateState.random(grid, rng, 0.5, vtilde=functional == en.I4INF))
            d = en.PlateState.random(grid, rng, 1.0, vtilde=functional == en.I4INF)
            x, dd = s.flatten(), d.flatten()
            grad = en.grad_energy(functional, s, g, m, v0, penalty=1.0)[1].flatten()

            def e_at(xx):
                return en.total_energy(
                    functional, en.PlateState.unflatten(xx, grid), g, m, v0, 1.0
                )

            fd = (e_at(x + t * dd) - e_at(x - t * dd)) / (2 * t)
            worst = max(worst, abs(float(np.dot(grad, dd)) - fd) / abs(fd))
    ok = worst < 1e-6
    assert _line(4, "analytic gradients vs central FD", ok, f"worst rel err {worst:.2e}")


def test_criterion_05_collapse_at_flat_reference():
    rng = np.random.default_rng(5)
    worst = 0.0
    for bc in (DIRICHLET, PERIODIC):
        domain = (0, 1, 0, 1) if bc == DIRICHLET else (0, TWO_PI, 0, TWO_PI)
        grid = Grid2D(24, 24, domain, bc=bc)
        z = ScalarField.zeros(grid)
        m = en.Material(1.3, 0.7)
        eps = 0.3 * rng.standard_normal((24, 24, 3, 3))
        kap = 0.3 * rng.standard_normal((24, 24, 3, 3))
        g = GrowthFields.from_arrays(grid, eps, kap)
        for _ in range(5):
            s = en.PlateState.random(grid, rng, 0.8, vtilde=True)
            s40 = en.PlateState(s.w, s.v)
            e40 = en.energy_i40(s40, g, m)
            e41 = en.energy_i41(s40, g, m, z)
            einf, resid = en.energy_i4inf(s, g, m, z, 3.0)
            worst = max(worst, abs(e41 - e40) / abs(e40), abs(einf - e40) / abs(e40), resid)
    ok = worst <= 1e-14
    assert _line(5, "collapse of the three functionals", ok, f"worst rel diff {worst:.2e}")


def test_criterion_06_exact_vk_solutions():
    grid = _torus(64)
    g = growth_preset("omega_sine", grid, 1.0)
    ok = True
    details = []
    for m in (en.Material(1.0, 1.0), en.Material(2.0, 0.5)):
        st, rep = so.solve_vk("old", g, m)
        err = float(np.max(np.abs(st.v.data + np.sin(grid.X1))))
        phimax = float(np.max(np.abs(st.phi.data)))
        ok &= rep.converged and err <= 5.0 * grid.dx**2 and phimax < 1e-9
        details.append(f"Z={m.bending:.3f}: err={err:.2e}")
    v0 = ScalarField(grid, np.sin(grid.X1))
    st, rep = so.solve_vk("new", GrowthFields.zeros(grid), en.Material(1.0, 1.0), v0=v0)
    rest_err = float(np.max(np.abs(st.v.data - (v0.data - v0.data.mean()))))
    ok &= rep.converged and rest_err <= 1e-12 and float(np.max(np.abs(st.phi.data))) <= 1e-12
    details.append(f"rest err={rest_err:.1e}")
    assert _line(6, "exact vK solutions (5 dx^2, two Z)", ok, "; ".join(details))


def test_criterion_07_el_material_consistency():
    grid = Grid2D(48, 48, (0, TWO_PI, 0, TWO_PI), bc=PERIODIC)
    m = en.Material(1.0, 1.0)
    g = growth_preset("kappa_sine", grid, 1e-3)
    st_vk, rep_vk = so.solve_vk("old", g, m)
    st_min, rep_min = so.minimize(
        en.I40,
        en.PlateState.zeros(grid),
        g,
        m,
        opts=so.MinimizeOptions(tol=1e-10, max_iter=3000),
    )
    rel = grid.norm_l2(st_min.v.data - st_vk.v.data) / grid.norm_l2(st_vk.v.data)
    ok = rep_vk.converged and rep_min.converged and rel < 0.02
    assert _line(7, "EL/material consistency (2% L2)", ok, f"rel L2 diff {rel:.4f}")


def test_criterion_08_metric_expansion_slope():
    grid = _square(64)
    x, y = grid.X1, grid.X2
    eps = np.zeros((64, 64, 3, 3))
    kap = np.zeros((64, 64, 3, 3))
    eps[..., 0, 0] = 0.2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    eps[..., 0, 2] = 0.1 * np.sin(2 * np.pi * y)
    eps[..., 2, 0] = eps[..., 0, 2]
    kap[..., 0, 0] = 0.3 * np.sin(2 * np.pi * x)
    g = GrowthFields.from_arrays(grid, eps, kap)
    v0 = ScalarField(grid, 0.7 * x * y + 0.15 * (x * x + y * y))
    hs = np.array([1e-1, 1e-2, 1e-3])
    res = np.array([sh.metric_residual(g, v0, h) for h in hs])
    slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    ok = slope >= 2.7
    assert _line(8, "metric pullback log-log slope", ok, f"slope {slope:.3f}")


def _gamma_limit_case(grid, m, g, alpha):
    x, y = grid.X1, grid.X2
    w = VectorField2(grid, np.stack([0.1 * x * x * y, -0.05 * y * y], axis=-1))
    if 0.0 < alpha < 1.0:
        v0 = ScalarField(grid, 0.5 * (x * x + y * y))
        a = 0.3
        v = ScalarField(grid, a * (x * x - y * y))
        st = en.PlateState(w, v, ScalarField(grid, 0.2 * x * y))
        e2d = en.energy_i4inf(st, g, m, v0, 0.0)[0]
    elif alpha == 1.0:
        v0 = ScalarField(grid, 0.25 * (x * x + y * y))
        v = ScalarField(grid, v0.data + 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y))
        st = en.PlateState(w, v)
        e2d = en.energy_i41(st, g, m, v0)
    else:
        v0 = ScalarField(grid, 0.25 * (x * x + y * y))
        v = ScalarField(grid, 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y))
        st = en.PlateState(w, v)
        e2d = en.energy_i40(st, g, m)
    return v0, sh.RecoveryTemplate(st, g, v0, sh.resolve_regime(v0, alpha), m), e2d


def test_criterion_09_gamma_limit_consistency():
    grid = _square(64)
    m = en.Material(1.3, 0.8)
    x, y = grid.X1, grid.X2
    eps = np.zeros((64, 64, 3, 3))
    kap = np.zeros((64, 64, 3, 3))
    eps[..., 0, 0] = 0.2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    eps[..., 1, 1] = 0.1 * np.cos(2 * np.pi * x)
    eps[..., 0, 2] = 0.05 * np.sin(2 * np.pi * y)
    eps[..., 2, 0] = eps[..., 0, 2]
    kap[..., 0, 0] = 0.3 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    kap[..., 2, 2] = 0.1 * np.cos(2 * np.pi * y)
    g = GrowthFields.from_arrays(grid, eps, kap)
    ok = True
    details = []
    # the constrained recovery's compensator inverts the grid's own symmetric
    # gradient, so its deviation falls strictly into the thin rows; alpha = 1
    # and 2 level off at an O(dx^2) offset (-6.7e-4) below h = 1e-2
    h_lists = {0.5: (1e-1, 3e-2, 1e-2, 1e-3, 1e-4, 1e-5), 1.0: (1e-1, 3e-2, 1e-2), 2.0: (1e-1, 3e-2, 1e-2)}
    for alpha, h_list in h_lists.items():
        v0, template, e2d = _gamma_limit_case(grid, m, g, alpha)
        devs = []
        for h in h_list:
            cfg = sh.ShellConfig(v0, alpha=alpha, h=h, n_t=5)
            e3, _ = sh.energy_3d(sh.build_recovery(template, cfg), g, m)
            devs.append(abs(e3 / h**4 - e2d) / e2d)
        falls = all(b < a for a, b in zip(devs, devs[1:])) if alpha < 1.0 else devs[0] >= devs[1] >= devs[2]
        ok &= devs[2] <= 0.05 and falls
        details.append(f"a={alpha}: devs " + " / ".join(f"{d:.2e}" for d in devs))
    assert _line(9, "Gamma-limit consistency (5%)", ok, "; ".join(details))


def test_criterion_10_energy_scaling_law():
    grid = _square(64)
    m = en.Material(1.0, 1.0)
    x, y = grid.X1, grid.X2
    v0 = ScalarField(grid, 0.5 * x * y)
    h_list = [1e-1, 5e-2, 2e-2, 1e-2]
    # incompatible bending growth, zero state
    kap = np.zeros((64, 64, 3, 3))
    kap[..., 0, 0] = 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    g_inc = GrowthFields.from_arrays(grid, np.zeros_like(kap), kap)
    _, inorm = incompatibility(g_inc)
    st0 = en.PlateState.zeros(grid)
    study = sh.scaling_study(2.0, h_list, g_inc, v0, st0, m)
    vals = [r.e3d_over_h4 for r in study.rows]
    ref = vals[-1]
    band_ok = all(0.5 * ref <= v <= 2.0 * ref for v in vals) and inorm > 0.1
    # fully compatible growth built from a matched state
    vc = 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y)
    wc = np.stack([0.1 * x * x * y, -0.05 * y * y], axis=-1)
    dv = grad_values(grid, vc)
    eps_c = np.zeros((64, 64, 3, 3))
    kap_c = np.zeros((64, 64, 3, 3))
    eps_c[..., :2, :2] = sym_grad_values(grid, wc) + 0.5 * dv[..., :, None] * dv[..., None, :]
    kap_c[..., :2, :2] = -hessian_values(grid, vc)
    g_comp = GrowthFields.from_arrays(grid, eps_c, kap_c)
    st_c = en.PlateState(VectorField2(grid, wc), ScalarField(grid, vc))
    study_c = sh.scaling_study(2.0, h_list, g_comp, v0, st_c, m)
    vals_c = [r.e3d_over_h4 for r in study_c.rows]
    drop = vals_c[0] / vals_c[-1]
    comp_ok = drop >= 10.0
    ok = band_ok and comp_ok
    assert _line(
        10,
        "h^4 scaling law",
        ok,
        f"incompat norm={inorm:.2f} band=[{min(vals)/ref:.3f},{max(vals)/ref:.3f}] compat drop={drop:.1f}x",
    )


def test_criterion_11_constructive_decomposition():
    rng = np.random.default_rng(23)
    cw = rng.standard_normal((2, 3, 3))
    cv = rng.standard_normal((2, 2))
    ok = True
    details = []
    for n in (33, 65):
        grid = _square(n)
        x, y = grid.X1, grid.X2
        v0 = ScalarField.sample(grid, lambda xx, yy: 0.5 * (xx * xx + yy * yy))
        amp = cv[0, 0] + cv[0, 1] * x + cv[1, 0] * y + cv[1, 1] * x * y
        damp = [cv[0, 1] + cv[1, 1] * y, cv[1, 0] + cv[1, 1] * x]
        s1, c1 = np.sin(np.pi * x), np.cos(np.pi * x)
        s2, c2 = np.sin(np.pi * y), np.cos(np.pi * y)
        dvs = [np.pi * c1 * s2 * amp + s1 * s2 * damp[0], np.pi * s1 * c2 * amp + s1 * s2 * damp[1]]

        def dpoly(c, wrt):
            out = np.zeros_like(x)
            for p in range(3):
                for q in range(3):
                    if wrt == 0 and p > 0:
                        out += c[p, q] * p * x ** (p - 1) * y**q
                    if wrt == 1 and q > 0:
                        out += c[p, q] * q * x**p * y ** (q - 1)
            return out

        b = np.zeros((n, n, 2, 2))
        b[..., 0, 0] = dpoly(cw[0], 0) + dvs[0] * x
        b[..., 1, 1] = dpoly(cw[1], 1) + dvs[1] * y
        b[..., 0, 1] = 0.5 * (dpoly(cw[0], 1) + dpoly(cw[1], 0)) + 0.5 * (dvs[0] * y + dvs[1] * x)
        b[..., 1, 0] = b[..., 0, 1]
        v, w = so.solve_mystery(v0, MatrixField2(grid, b, symmetric=True))
        dv = np.stack([grid.d1(v.data, 0), grid.d1(v.data, 1)], axis=-1)
        dv0 = np.stack([grid.d1(v0.data, 0), grid.d1(v0.data, 1)], axis=-1)
        e = b - 0.5 * (dv[..., :, None] * dv0[..., None, :] + dv0[..., :, None] * dv[..., None, :])
        resid = grid.norm_l2(curl_t_curl(MatrixField2(grid, e, symmetric=True)).data)
        ok &= resid <= 600.0 * grid.dx**2
        details.append(f"n={n}: L2 resid={resid:.2e} (600 dx^2={600*grid.dx**2:.2e})")
    assert _line(11, "constructive decomposition", ok, "; ".join(details))
