import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vkshell import cli
from vkshell.fields import Grid2D, PERIODIC, ScalarField

TWO_PI = 2.0 * math.pi


def base_config(**overrides):
    doc = {
        "grid": {"nx": 48, "ny": 48, "domain": [0.0, TWO_PI, 0.0, TWO_PI], "bc": "periodic"},
        "material": {"mu": 1.0, "lambda": 1.0},
        "growth": {"preset": "kappa_sine", "amplitude": 0.5},
        "geometry": {"v0": "sine", "v0_scale": 0.5, "alpha": 1.0},
        "run": {"seed": 0},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_parse_rejects_unknown_keys(tmp_path):
    doc = base_config()
    doc["grid"]["wavelet"] = 3
    with pytest.raises(cli.ConfigError, match="unknown keys"):
        cli.parse_config(doc)
    doc = base_config()
    doc["extra_block"] = {}
    with pytest.raises(cli.ConfigError):
        cli.parse_config(doc)
    doc = base_config()
    del doc["material"]
    with pytest.raises(cli.ConfigError, match="missing"):
        cli.parse_config(doc)


def test_parse_rejects_bad_values():
    doc = base_config()
    doc["grid"]["nx"] = 4
    with pytest.raises(cli.ConfigError):
        cli.parse_config(doc)
    doc = base_config()
    doc["material"]["mu"] = "stiff"
    with pytest.raises(cli.ConfigError):
        cli.parse_config(doc)
    doc = base_config()
    doc["growth"] = {"preset": "vortex"}
    with pytest.raises(cli.ConfigError):
        cli.parse_config(doc)
    doc = base_config()
    doc["run"] = {"command": "simulate"}
    with pytest.raises(cli.ConfigError):
        cli.parse_config(doc)


def test_growth_entry_keys():
    doc = base_config(growth={"eps.1.1": [[0.5, 0, 2]], "kappa.2.2": [[1.0, 1, 0]]})
    doc["grid"]["bc"] = "dirichlet-ghost"
    doc["grid"]["domain"] = [0.0, 1.0, 0.0, 1.0]
    cfg = cli.parse_config(doc)
    assert np.allclose(cfg.growth.eps_g.data[..., 0, 0], cfg.grid.X2**2 / 2)


def test_verify_passes_and_hash_stable(tmp_path):
    cfg = cli.parse_config(base_config())
    code, report = cli.cmd_verify(cfg)
    assert code == 0
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    assert {"rank_one_curl_identity", "sym_grad_kernel", "cof_hessian_kernel",
            "bracket_symmetry", "effective_lambda_pair", "effective_omega_pair",
            "metric_pullback_slope", "relaxation_brute_force", "flat_collapse"} <= names
    cfg2 = cli.parse_config(base_config())
    assert cfg.config_hash == cfg2.config_hash


def test_verify_collapse_exact_for_zero_v0():
    doc = base_config()
    doc["geometry"]["v0"] = "zero"
    cfg = cli.parse_config(doc)
    _, report = cli.cmd_verify(cfg)
    coll = [c for c in report["checks"] if c["name"] == "flat_collapse"][0]
    assert coll["residual"] == 0.0


def test_cli_verify_exit_codes(tmp_path):
    path = write_config(tmp_path, base_config())
    assert cli.main(["verify", "--config", str(path)]) == 0
    bad = base_config()
    bad["grid"]["nx"] = 4
    path2 = write_config(tmp_path, bad, "bad.json")
    assert cli.main(["verify", "--config", str(path2)]) == 2
    path3 = tmp_path / "nonsense.json"
    path3.write_text("{not json", encoding="utf-8")
    assert cli.main(["verify", "--config", str(path3)]) == 2


@pytest.mark.parametrize("v0", ["saddle", "paraboloid"])
def test_cli_verify_steep_v0_is_a_config_error(tmp_path, capsys, v0):
    # on the [0, 2 pi]^2 ghost grid, 2 x y and x^2 + y^2 reach slope 4 pi:
    # too steep for a shallow shell at h = 0.1
    doc = base_config()
    doc["grid"] = {"nx": 16, "ny": 16, "domain": [0.0, TWO_PI, 0.0, TWO_PI], "bc": "dirichlet-ghost"}
    doc["geometry"] = {"v0": v0, "v0_scale": 2.0}
    path = write_config(tmp_path, doc)
    assert cli.main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "shallowness violated" in err


# verify off the 2 pi torus: its probe fields there have wavenumber 2 pi
UNIT_DOMAIN_VERIFY = {
    "unit torus, sine v0": (
        {"nx": 32, "ny": 32, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "periodic"},
        {"v0": "sine", "v0_scale": 0.5},
    ),
    "ghost grid, paraboloid v0": (
        {"nx": 33, "ny": 33, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"},
        {"v0": "paraboloid"},
    ),
}


def unit_domain_config(case):
    grid, geometry = UNIT_DOMAIN_VERIFY[case]
    return base_config(grid=grid, geometry=geometry)


@pytest.mark.parametrize("case", sorted(UNIT_DOMAIN_VERIFY))
def test_verify_passes_on_the_unit_domain(tmp_path, case):
    path = write_config(tmp_path, unit_domain_config(case))
    assert cli.main(["verify", "--config", str(path)]) == 0


def _curl_t_curl_with_a_sign_error(B):
    g, b = B.grid, B.data
    return ScalarField(g, g.d2(b[..., 0, 0], 1) + g.d2(b[..., 1, 1], 0) + g.dcross(b[..., 0, 1] + b[..., 1, 0]))


@pytest.mark.parametrize(
    "attr,wrong,check",
    [
        ("curl_t_curl", _curl_t_curl_with_a_sign_error, "sym_grad_kernel"),
        ("cof2_values", lambda b: b, "cof_hessian_kernel"),  # div^T div hess v = bilap v
    ],
)
@pytest.mark.parametrize("case", sorted(UNIT_DOMAIN_VERIFY))
def test_verify_catches_a_wrong_operator_on_the_unit_domain(monkeypatch, case, attr, wrong, check):
    monkeypatch.setattr(cli, attr, wrong)
    code, report = cli.cmd_verify(cli.parse_config(unit_domain_config(case)))
    assert code == 1
    assert check in [c["name"] for c in report["checks"] if not c["passed"]]


def test_run_minimize_zero_growth(tmp_path):
    doc = base_config(growth={"preset": "zero"})
    doc["run"] = {"command": "minimize", "functional": "I40"}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["outputs"]["solve"]["final_energy"] == 0.0
    assert not summary["incomplete"]
    derived = summary["material_derived"]
    assert derived["young"] == pytest.approx(2.5)
    assert derived["poisson"] == pytest.approx(0.25)
    assert derived["bending"] == pytest.approx(2.5 / (12 * (1 - 0.25**2)))
    v = np.loadtxt(out / "fields" / "v.csv", delimiter=",", skiprows=1, ndmin=2)
    assert v.shape == (48 * 48, 3) and np.max(np.abs(v[:, 2])) == 0.0
    assert (out / "config.resolved.json").exists()
    assert json.loads((out / "report.json").read_text())["wall_time_s"] >= 0.0


def test_run_solve_vk_reference_error(tmp_path):
    doc = base_config(growth={"preset": "omega_sine", "amplitude": 1.0})
    doc["geometry"]["v0"] = "zero"
    doc["run"] = {"command": "solve-vk", "model": "old"}
    path = write_config(tmp_path, doc)
    out = tmp_path / "vk"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    grid = Grid2D(48, 48, (0, TWO_PI, 0, TWO_PI), bc=PERIODIC)
    err = summary["outputs"]["reference_error_inf"]
    assert err <= 5.0 * grid.dx**2
    assert summary["outputs"]["solve"]["converged"]


def test_report_carries_solver_extras(tmp_path):
    doc = base_config(growth={"preset": "omega_sine", "amplitude": 1.0})
    doc["geometry"]["v0"] = "zero"
    doc["run"] = {"command": "solve-vk", "model": "old"}
    out = tmp_path / "vk"
    assert cli.main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["extras"]["residual_history"]) == report["iterations"] + 1
    assert "extras" not in json.loads((out / "summary.json").read_text())["outputs"]["solve"]
    assert "residual_history" not in (out / "summary.json").read_text()

    doc = base_config(growth={"preset": "zero"})
    doc["run"] = {"command": "minimize", "functional": "I4INF", "penalty": {"doublings": 2},
                  "init": "random", "seed": 3, "max_iter": 15}
    out = tmp_path / "min"
    assert cli.main(["run", "--config", str(write_config(tmp_path, doc, "min.json")), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    stages = report["extras"]["penalty_stages"]
    assert [s["penalty"] for s in stages] == [1.0, 2.0, 4.0]
    assert sum(s["iterations"] for s in stages) == report["iterations"]
    for s in stages:
        # one fg evaluation at the stage start, one per accepted or rejected trial step
        assert s["fg_evals"] == 1 + s["iterations"] + s["backtracks"]
        assert s["precond_s"] > 0.0
        hist = s["history"]
        assert len(hist) == s["iterations"] + 1
        assert all(len(row) == 2 for row in hist)
        assert all(b[0] <= a[0] for a, b in zip(hist, hist[1:]))
    assert stages[-1]["history"][-1][1] == report["grad_norm"]
    assert "extras" not in json.loads((out / "summary.json").read_text())["outputs"]["solve"]


def test_run_solve_vk_divergence_writes_a_diverging_report(tmp_path):
    doc = base_config(growth={"preset": "kappa_sine", "amplitude": 100.0})
    doc["geometry"]["v0"] = "zero"
    doc["run"] = {"command": "solve-vk", "model": "old"}
    out = tmp_path / "vk"
    assert cli.main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["incomplete"] and "diverging" in summary["error"]
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "diverging" and not report["converged"]
    hist = report["extras"]["residual_history"]
    assert len(hist) == report["iterations"] + 1 and hist[-1] == report["grad_norm"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
@pytest.mark.parametrize("block,key", [("material", "mu"), ("material", "lambda"), ("run", "relaxation"),
                                       ("growth", "amplitude")])
def test_run_solve_vk_that_overflows_ends_in_a_solver_or_config_error(tmp_path, capsys, block, key):
    # with 1e308 the iterate (or, for the growth amplitude, omega_g) overflows;
    # the final solves of a diverged iterate raised an uncaught ValueError
    doc = base_config()
    doc["grid"].update(nx=8, ny=8)
    doc["geometry"]["v0"] = "zero"
    doc["run"] = {"command": "solve-vk", "model": "old"}
    doc[block][key] = 1e308
    out = tmp_path / "vk"
    code = cli.main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    if block == "growth":
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.startswith("config error: growth: lambda_g or omega_g overflows")
        return
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["incomplete"] and "diverging" in summary["error"]
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "diverging" and "equation_residuals" not in report["extras"]


def test_run_scaling_ratio_improves(tmp_path):
    doc = base_config()
    doc["grid"] = {"nx": 48, "ny": 48, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"}
    doc["geometry"] = {"v0": "paraboloid", "v0_scale": 0.5, "alpha": 1.0}
    doc["growth"] = {"preset": "kappa_sine", "amplitude": 0.3}
    doc["run"] = {"command": "scaling", "h_list": [0.1, 0.06, 0.03, 0.02, 0.015, 0.01], "n_t": 5}
    path = write_config(tmp_path, doc)
    out = tmp_path / "sc"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "scaling.csv").read_text().strip().splitlines()
    assert lines[0] == "h,gamma,E3d,E3d_over_h4,E2d_limit,ratio"
    assert len(lines) == 7
    ratios = [abs(float(l.split(",")[5]) - 1.0) for l in lines[1:]]
    assert all(b <= a for a, b in zip(ratios, ratios[1:]))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["outputs"]["scaling"]["regime"] == "dmv"
    assert "incompatibility_norm" in summary["outputs"]["scaling"]


def test_run_scaling_threads_match_serial(tmp_path):
    doc = base_config()
    doc["grid"] = {"nx": 32, "ny": 32, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"}
    doc["geometry"] = {"v0": "paraboloid", "v0_scale": 0.5, "alpha": 1.0}
    doc["run"] = {"command": "scaling", "h_list": [0.1, 0.05], "n_t": 3}
    path = write_config(tmp_path, doc)
    cli.main(["run", "--config", str(path), "--out", str(tmp_path / "s1")])
    cli.main(["run", "--config", str(path), "--out", str(tmp_path / "s2"), "--threads", "2"])
    assert (tmp_path / "s1" / "scaling.csv").read_text() == (tmp_path / "s2" / "scaling.csv").read_text()


def test_run_determinism(tmp_path):
    doc = base_config(growth={"preset": "kappa_sine", "amplitude": 0.02})
    doc["geometry"]["v0"] = "zero"
    doc["run"] = {"command": "minimize", "functional": "I40", "init": "random", "seed": 7}
    path = write_config(tmp_path, doc)
    cli.main(["run", "--config", str(path), "--out", str(tmp_path / "r1")])
    cli.main(["run", "--config", str(path), "--out", str(tmp_path / "r2")])
    b1 = (tmp_path / "r1" / "summary.json").read_bytes()
    b2 = (tmp_path / "r2" / "summary.json").read_bytes()
    assert b1 == b2
    assert (tmp_path / "r1" / "fields" / "v.csv").read_bytes() == (tmp_path / "r2" / "fields" / "v.csv").read_bytes()


NON_PERIODIC_V0 = {
    "saddle": "saddle",
    "paraboloid": "paraboloid",
    "monomial": [[0.3, 0, 0], [0.1, 0, 2]],
}


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("v0", list(NON_PERIODIC_V0), ids=list(NON_PERIODIC_V0))
def test_periodic_grid_rejects_a_non_periodic_v0(tmp_path, capsys, command, v0):
    # a polynomial v0 jumps at the seam of the torus; even at v0_scale 0.05
    # the saddle failed the verify suite there
    doc = base_config()
    doc["grid"]["nx"] = doc["grid"]["ny"] = 32
    doc["geometry"] = {"v0": NON_PERIODIC_V0[v0], "v0_scale": 0.05}
    doc["run"] = {"command": "solve-vk", "model": "new"}
    argv = [command, "--config", str(write_config(tmp_path, doc))]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "seam of a periodic grid" in err


NON_PERIODIC_GROWTH = {
    "kappa_linear": {"kappa.1.1": [[0.1, 1, 0]]},
    "eps_quadratic": {"eps.1.2": [[0.2, 0, 0], [0.05, 1, 1]], "eps.2.1": [[0.2, 0, 0]]},
}


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("growth", list(NON_PERIODIC_GROWTH), ids=list(NON_PERIODIC_GROWTH))
def test_periodic_grid_rejects_a_non_periodic_growth_entry(tmp_path, capsys, command, growth):
    # a polynomial growth entry jumps at the seam of the torus, and so do the
    # sources lambda_g and omega_g built from it
    doc = base_config(growth=NON_PERIODIC_GROWTH[growth], geometry={"v0": "zero"})
    doc["grid"]["nx"] = doc["grid"]["ny"] = 32
    doc["run"] = {"command": "solve-vk", "model": "old"}
    argv = [command, "--config", str(write_config(tmp_path, doc))]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "seam of a periodic grid" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["v", "w", "vtilde"])
def test_periodic_grid_rejects_a_non_periodic_state_field(tmp_path, capsys, field):
    # an explicit run.state skipped the seam check: with v = 0.1 x the 32^2
    # torus exited 0 with ratios 0.2485 and 0.2500
    alpha = 0.5 if field == "vtilde" else 1.0
    doc = base_config(geometry={"v0": "sine", "v0_scale": 0.1, "alpha": alpha})
    doc["grid"]["nx"] = doc["grid"]["ny"] = 32
    state = {"v": [[0.1, 0, 0]], "w": [[[0.1, 0, 0]], []]}
    if field == "vtilde":
        state["vtilde"] = [[0.2, 1, 1]]
    elif field == "w":
        state["w"] = [[], [[0.1, 0, 1]]]
    else:
        state["v"] = [[0.1, 1, 0]]
    doc["run"] = {"command": "scaling", "h_list": [0.1, 0.05], "n_t": 3, "state": state}
    assert cli.main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: run.state.") and "seam of a periodic grid" in err


def test_periodic_grid_accepts_constant_growth_entries():
    doc = base_config(growth={"eps.1.1": [[0.3, 0, 0], [0.2, 0, 0]], "kappa.2.2": [[-0.1, 0, 0]]})
    cfg = cli.parse_config(doc)
    assert np.all(cfg.growth.eps_g.data[..., 0, 0] == 0.5)
    assert np.all(cfg.growth.kappa_g.data[..., 1, 1] == -0.1)


def test_periodic_grid_accepts_a_constant_polynomial_v0():
    doc = base_config()
    doc["geometry"] = {"v0": [[0.3, 0, 0], [0.2, 0, 0]]}
    cfg = cli.parse_config(doc)
    assert np.all(cfg.v0.data == 0.5)


MALFORMED_TERMS = {
    "v0_term_not_a_list": ("geometry.v0", {"geometry": {"v0": [5]}}),
    "state_not_a_list": ("run.state.v", {"run": {"command": "scaling", "h_list": [0.1], "n_t": 3,
                                                 "state": {"v": 5, "w": [[], []]}}}),
    "growth_term_not_a_list": ("eps[1,1]", {"growth": {"eps.1.1": [7]}}),
    "fractional_exponent": ("eps[1,1]", {"growth": {"eps.1.1": [[1.0, 1.5, 0]]}}),
    "string_exponent": ("eps[1,1]", {"growth": {"eps.1.1": [[1.0, "2", 0]]}}),
    "bool_exponent": ("eps[1,1]", {"growth": {"eps.1.1": [[1.0, True, 0]]}}),
}


@pytest.mark.parametrize("case", list(MALFORMED_TERMS))
def test_malformed_term_lists_are_config_errors(tmp_path, capsys, case):
    # a config error (exit 2) named after its key, not a traceback (exit 1)
    where, overrides = MALFORMED_TERMS[case]
    doc = base_config(geometry={"v0": "paraboloid"}, growth={"preset": "zero"})
    doc["grid"] = {"nx": 16, "ny": 16, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"}
    doc.update(overrides)
    argv = ["run", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {where}: " in err or f"config error: growth: {where}: " in err
    assert "Traceback" not in err


def test_run_solve_vk_requires_periodic(tmp_path):
    doc = base_config()
    doc["grid"] = {"nx": 32, "ny": 32, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"}
    doc["run"] = {"command": "solve-vk", "model": "old"}
    path = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2


def test_constrained_auto_state_requires_paraboloid(tmp_path, capsys):
    doc = base_config()
    doc["grid"] = {"nx": 32, "ny": 32, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"}
    doc["geometry"] = {"v0": "saddle", "alpha": 0.5}
    doc["run"] = {"command": "scaling", "h_list": [0.1, 0.05]}
    path = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "y")]) == 2
    assert capsys.readouterr().err.startswith("config error: run.state 'auto' in the constrained regime")


W_TERMS = [[[0.05, 2, 1]], [[-0.02, 0, 2]]]
# (alpha, run.state) on the paraboloid v0
EXPLICIT_STATES = {
    "dmv": (1.0, {"v": [[0.5, 2, 0], [0.5, 0, 2], [0.1, 1, 1]], "w": W_TERMS}),
    "constrained": (0.5, {"v": [[0.3, 2, 0], [-0.3, 0, 2]], "w": W_TERMS, "vtilde": [[0.2, 1, 1]]}),
}


def explicit_state_config(alpha, state):
    doc = base_config(growth={"preset": "kappa_sine"}, geometry={"v0": "paraboloid", "alpha": alpha})
    doc["grid"] = {"nx": 33, "ny": 33, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"}
    doc["run"] = {"command": "scaling", "h_list": [0.1, 1e-2, 1e-3], "n_t": 3, "state": state}
    return doc


@pytest.mark.parametrize("regime", list(EXPLICIT_STATES))
def test_run_scaling_takes_an_explicit_state(tmp_path, regime):
    path = write_config(tmp_path, explicit_state_config(*EXPLICIT_STATES[regime]))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["outputs"]["scaling"]["regime"] == regime
    rows = summary["outputs"]["rows"]
    assert len(rows) == 3
    for row in rows:
        assert all(math.isfinite(x) for x in row.values())
        assert 0.5 < row["ratio"] < 2.0


STATE_ERRORS = {
    "w not a pair": (1.0, {"v": [[0.5, 2, 0]], "w": W_TERMS[:1]}, "run.state.w must be a pair"),
    "constrained without vtilde": (0.5, {"v": [[0.3, 2, 0]], "w": W_TERMS}, "run.state: vtilde"),
    "vtilde outside the constrained regime": (
        1.0, {"v": [[0.5, 2, 0]], "w": W_TERMS, "vtilde": [[0.2, 1, 1]]}, "run.state: vtilde"
    ),
    "v samples overflow": (1.0, {"v": [[1e308, 0, 0], [1e308, 1, 0]], "w": W_TERMS}, "run.state.v: field samples"),
    "w samples overflow": (1.0, {"v": [], "w": [[], [[1e308, 0, 0], [1e308, 1, 0]]]}, "run.state.w[1]: field samples"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no overflow warning ahead of the config error
@pytest.mark.parametrize("case", list(STATE_ERRORS))
def test_explicit_state_errors_are_config_errors(tmp_path, capsys, case):
    # a vtilde outside the constrained regime was dropped without a word
    alpha, state, message = STATE_ERRORS[case]
    path = write_config(tmp_path, explicit_state_config(alpha, state))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


# json writes math.inf as Infinity, which Python's json reads back
NON_FINITE = {
    "infinite domain end": {"grid": {"nx": 17, "ny": 17, "domain": [0.0, math.inf, 0.0, 1.0], "bc": "dirichlet-ghost"}},
    "domain extent 1e-320": {"grid": {"nx": 17, "ny": 17, "domain": [0.0, 1e-320, 0.0, 1.0], "bc": "dirichlet-ghost"}},
    "growth entry": {"growth": {"kappa.1.1": [[1e308, 0, 0], [1e308, 1, 0]]}},
    "v0 polynomial": {"geometry": {"v0": [[1e308, 0, 0], [1e308, 1, 0]]}},
    "kappa_compatible amplitude": {"growth": {"preset": "kappa_compatible", "amplitude": 1e307}},
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no overflow warning ahead of the config error
@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_samples_and_domains_are_config_errors(tmp_path, capsys, case, command):
    # finite-looking configs whose grid steps or samples overflow: each took a
    # ValueError traceback (exit 1)
    doc = base_config(geometry={"v0": "paraboloid"})
    doc["grid"] = {"nx": 17, "ny": 17, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"}
    doc["run"] = {"command": "scaling", "h_list": [0.1], "n_t": 3}
    doc.update(NON_FINITE[case])
    argv = [command, "--config", str(write_config(tmp_path, doc))]
    assert cli.main(argv + (["--out", str(tmp_path / "out")] if command == "run" else [])) == 2
    assert capsys.readouterr().err.startswith("config error")


SCALING = {"command": "scaling", "h_list": [0.1, 0.05], "n_t": 3}


@pytest.mark.parametrize(
    "run",
    [
        {"command": "solve-vk", "tol": "abc"},
        {"command": "solve-vk", "max_sweeps": None},
        {"command": "minimize", "max_iter": 2.9},
        {"command": "minimize", "functional": "I4INF", "penalty": {"doublings": -3}},
        {**SCALING, "n_t": 4},
        {**SCALING, "h_list": []},
        {**SCALING, "h_list": [0.01, 0.1]},
        {**SCALING, "h_list": [0.1, 0.05, -0.01]},
        {"command": "solve-vk", "relaxation": 0},
        {"command": "solve-vk", "relaxation": -0.5},
        {"command": "solve-vk", "tol": -1e-10},
        {"command": "minimize", "tol": -1e-8},
        {"command": "minimize", "functional": "I4INF", "penalty": {"initial": -1}},
        {"command": "minimize", "functional": "I4INF", "penalty": {"initial": 0}},
        {"seed": 0},  # no run.command
    ],
)
def test_run_rejects_bad_run_values(tmp_path, capsys, run):
    doc = base_config(run=run)
    if run.get("command") == "scaling":
        doc["grid"] = {"nx": 32, "ny": 32, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"}
        doc["geometry"] = {"v0": "paraboloid", "alpha": 1.0}
    path = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # nothing is written before the run ends


def test_run_scaling_singular_growth_is_a_config_error(tmp_path, capsys):
    # amplitude 2000 makes Id + h^2 eps_g + h x3 kappa_g singular inside the shell
    doc = base_config(growth={"preset": "kappa_sine", "amplitude": 2000.0})
    doc["grid"] = {"nx": 17, "ny": 17, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"}
    doc["geometry"] = {"v0": "paraboloid", "alpha": 1.0}
    doc["run"] = {"command": "scaling", "h_list": [0.1, 0.01]}
    path = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "not invertible" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_run_rejects_bad_thread_counts(tmp_path, capsys, monkeypatch, threads):
    def must_not_run(*args, **kwargs):
        raise AssertionError("argparse must reject the thread count before the run starts")

    monkeypatch.setattr(cli, "load_config", must_not_run)
    monkeypatch.setattr(cli, "cmd_run", must_not_run)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", "cfg.json", "--out", str(tmp_path / "out"), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_constrained_ratio_falls_with_h_on_every_grid(tmp_path):
    # the compensator wtilde inverts the grid's own symmetric gradient, so the
    # order-h^(1+alpha) strain vanishes and the ratio tends to 1 at the
    # regime's rate; line-integrated, it drifted to -2.4e-2 at h = 1e-4 on 33^2
    h_list = [1e-2, 1e-3, 1e-4, 1e-5]
    devs = {}
    for n in (33, 65):
        doc = base_config(growth={"preset": "kappa_sine"}, geometry={"v0": "paraboloid", "alpha": 0.5})
        doc["grid"] = {"nx": n, "ny": n, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"}
        doc["run"] = {"command": "scaling", "h_list": h_list, "state": "auto"}
        out = tmp_path / f"out{n}"
        assert cli.main(["run", "--config", str(write_config(tmp_path, doc, f"c{n}.json")), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["outputs"]["scaling"]["regime"] == "constrained"
        devs[n] = [row["ratio"] - 1.0 for row in summary["outputs"]["rows"]]
        assert all(0.0 < b < a for a, b in zip(devs[n], devs[n][1:])), devs[n]
    assert np.max(np.abs(np.subtract(devs[33], devs[65]))) < 1e-5


FOOTPRINT_CHILD = """
import json, sys
from vkshell import cli
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
calls = json.loads(sys.argv[1])
codes, seen = [], []
for argv in calls:
    codes.append(cli.main(argv))
    seen.append(loaded())
print(json.dumps([codes, seen]))
"""


def test_runs_do_not_import_scipy_solvers(tmp_path):
    # the stencils are applied by slicing, so a run that assembles no sparse
    # matrix loads no scipy module: verify, solve-vk and the scaling sweeps,
    # constrained ones included (their compensator runs its own CG).  A
    # minimize assembles the plate operator, so it loads scipy.sparse, but
    # not scipy.sparse.linalg or scipy.linalg (which add ~10 MB to every
    # process).  The runs start from a fresh interpreter, as the CLI does
    ghost17 = {"nx": 17, "ny": 17, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"}
    verify = base_config(geometry={"v0": "sine", "v0_scale": 0.5})
    verify["grid"] = {"nx": 16, "ny": 16, "domain": [0.0, TWO_PI, 0.0, TWO_PI], "bc": "periodic"}
    solve_vk = base_config(geometry={"v0": "zero"})
    solve_vk["grid"] = dict(verify["grid"])
    solve_vk["run"] = {"command": "solve-vk", "model": "old", "tol": 1e-10}
    dmv = base_config(growth={"preset": "kappa_sine"}, geometry={"v0": "paraboloid", "alpha": 1.0}, grid=ghost17)
    dmv["run"] = {"command": "scaling", "h_list": [1e-1, 1e-2], "n_t": 3}
    sweep = base_config(growth={"preset": "kappa_sine"}, geometry={"v0": "paraboloid", "alpha": 0.5}, grid=ghost17)
    sweep["run"] = {"command": "scaling", "h_list": [1e-2, 1e-3], "state": "auto"}
    minimize = base_config(growth={"preset": "kappa_sine", "amplitude": 0.02}, geometry={"v0": "zero"}, grid=ghost17)
    minimize["run"] = {"command": "minimize", "functional": "I40", "init": "random", "seed": 1}
    calls = [["verify", "--config", str(write_config(tmp_path, verify, "verify.json"))]]
    for name, doc in (("solve_vk", solve_vk), ("dmv", dmv), ("sweep", sweep), ("minimize", minimize)):
        calls.append(["run", "--config", str(write_config(tmp_path, doc, f"{name}.json")), "--out", str(tmp_path / name)])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", FOOTPRINT_CHILD, json.dumps(calls)], capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    codes, seen = json.loads(child.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(calls)
    regimes = [json.loads((tmp_path / name / "summary.json").read_text())["outputs"]["scaling"]["regime"] for name in ("dmv", "sweep")]
    assert regimes == ["dmv", "constrained"]
    assert seen[:4] == [[]] * 4  # verify, solve-vk, the DMV and the constrained sweep
    assert "scipy.sparse" in seen[4]
    assert not {"scipy.sparse.linalg", "scipy.linalg"} & set(seen[4])


def test_scaling_thickness_whose_h4_underflows_is_a_config_error(tmp_path, capsys):
    # h = 1e-300 has h^4 == 0.0, and the sweep divides each row's energy by
    # h^4: it ended in a ZeroDivisionError traceback
    doc = base_config(geometry={"v0": "paraboloid", "alpha": 1.0})
    doc["grid"] = {"nx": 9, "ny": 9, "domain": [0.0, 1.0, 0.0, 1.0], "bc": "dirichlet-ghost"}
    doc["run"] = {"command": "scaling", "h_list": [0.1, 1e-300], "n_t": 3}
    path = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "h^4 underflows to 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
