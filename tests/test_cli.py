import functools
import gc
import json
import math
import os
import tempfile
import weakref

import numpy as np
import pytest

from finslergamma import calculus, cli, heatflow, inequalities
from finslergamma.cli import ADJOINTNESS_TOL, ORDER_THRESHOLD, main, render_json
from finslergamma.config import load_config, parse_config
from finslergamma.space import WeightedSpace, integrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TORUS = os.path.join(ROOT, "configs", "randers_torus2d.json")
RANDERS_BOX_CONFIG = os.path.join(ROOT, "perfbench", "configs", "randers_box2d.json")

EUCLID_GAUSS = {
    "space": {
        "domain": {"geometry": "interval", "lengths": [12.0], "resolution": [256]},
        "norm": {"variant": "euclidean", "matrix": [[1.0]]},
        "psi": "x**2/2",
    },
    "n_values": ["inf"],
}

ASYM_GAUSS = {
    "space": {
        "domain": {"geometry": "interval", "lengths": [6.0], "resolution": [128]},
        "norm": {"variant": "asym1d", "alpha": 2.0, "beta": 1.0},
        "psi": "x**2/2",
    },
    "n_values": ["inf"],
}

CIRCLE = {
    "space": {
        "domain": {"geometry": "circle", "lengths": [1.0], "resolution": [64]},
        "norm": {"variant": "euclidean", "matrix": [[1.0]]},
        "psi": "0",
    },
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_space_describe(tmp_path, capsys):
    cfg = write_config(tmp_path, ASYM_GAUSS)
    code = main(["space", "describe", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "describe.json").read_text())
    assert doc["space"]["S_F"] == pytest.approx(4.0)
    assert doc["space"]["K_eff"]["inf"] == pytest.approx(0.25, abs=1e-8)
    assert doc["space"]["measure"]["total_mass"] == pytest.approx(1.0, abs=1e-12)
    out = capsys.readouterr().out
    assert "S_F" in out


def test_invalid_configs_exit_2(tmp_path):
    assert main(["space", "describe", "--config", str(tmp_path / "missing.json")]) == 2

    bad = dict(EUCLID_GAUSS)
    bad["n_values"] = [0.5]  # inadmissible dimension parameter
    assert main(["space", "describe", "--config", write_config(tmp_path, bad)]) == 2

    unknown = {"space": EUCLID_GAUSS["space"], "typo_key": 1}
    assert main(["space", "describe", "--config",
                 write_config(tmp_path, unknown, "u.json")]) == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert main(["space", "describe", "--config", str(not_json)]) == 2


def test_flow_run(tmp_path):
    doc = dict(EUCLID_GAUSS)
    doc["space"] = dict(doc["space"])
    doc["space"]["domain"] = {"geometry": "interval", "lengths": [6.0],
                              "resolution": [96]}
    doc["flow"] = {"u0": "1 + 0.2*x", "tau": 5e-3, "t_end": 1.5, "stride": 5}
    cfg = write_config(tmp_path, doc)
    code = main(["flow", "run", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    series = (tmp_path / "flow_series.csv").read_text().splitlines()
    assert series[0] == "t,energy,variance,entropy,fisher"
    assert len(series) > 10
    summary = json.loads((tmp_path / "flow_summary.json").read_text())
    assert summary["bounds"]["inf"]["variance_pass"] is True
    assert summary["mass_drift"] < 1e-10


def test_flow_run_requires_flow_section(tmp_path):
    cfg = write_config(tmp_path, EUCLID_GAUSS)
    assert main(["flow", "run", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_ineq_check_and_determinism(tmp_path):
    doc = dict(ASYM_GAUSS)
    doc["checkers"] = ["poincare", "integrated_bochner"]
    doc["bank"] = {"seed": 3, "size": 4}
    cfg = write_config(tmp_path, doc)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["ineq", "check", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["ineq", "check", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "ineq_report.json").read_bytes()
    b2 = (out2 / "ineq_report.json").read_bytes()
    assert b1 == b2
    doc2 = json.loads(b1)
    assert all(c["pass"] for c in doc2["checks"])


def test_ineq_check_override_k_falsifies(tmp_path):
    doc = dict(EUCLID_GAUSS)
    doc["checkers"] = ["poincare"]
    doc["bank"] = {"seed": 0, "size": 4}
    cfg = write_config(tmp_path, doc)
    assert main(["ineq", "check", "--config", cfg, "--out", str(tmp_path)]) == 0
    code = main(["ineq", "check", "--config", cfg, "--out", str(tmp_path),
                 "--override-k", "2.0"])
    assert code == 1
    report = json.loads((tmp_path / "ineq_report.json").read_text())
    failed = [c for c in report["checks"] if not c["pass"]]
    assert any(c["metadata"].get("member") == "linear" for c in failed)


def test_nonsharp_sobolev_just_above_two_is_checked(tmp_path):
    # 2^{4N/(N-2)} overflows a float at N = 2.001; the check reads it as +inf
    doc = {"space": {"domain": {"geometry": "interval", "lengths": [2.0], "resolution": [64]},
                     "norm": {"variant": "asym1d", "alpha": 2.0, "beta": 1.0},
                     "psi": "x**2/2"},
           "n_values": [2.001], "checkers": ["nonsharp_sobolev"]}
    cfg = write_config(tmp_path, doc)
    assert main(["ineq", "check", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "ineq_report.json").read_text())
    assert report["error"] is None and len(report["checks"]) == 12
    assert all(c["pass"] and c["metadata"]["constant"] == "inf" for c in report["checks"])


def test_a_flat_circle_passes_both_bochner_checkers(tmp_path):
    # K_eff = 0 runs only the two Bochner checkers; a smooth f cannot break
    # the Bochner floor at K = 0, and every bank member is periodic here
    doc = {"space": dict(CIRCLE["space"], norm=ASYM_GAUSS["space"]["norm"]),
           "n_values": [3, "inf"]}
    cfg = write_config(tmp_path, doc)
    assert main(["ineq", "check", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "ineq_report.json").read_text())
    assert report["error"] is None and len(report["checks"]) == 48
    assert {c["checker"] for c in report["checks"]} == {"integrated_bochner",
                                                       "bochner_pointwise"}


def test_identities_run(tmp_path):
    cfg = write_config(tmp_path, CIRCLE)
    code = main(["identities", "run", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "identities.json").read_text())
    assert doc["resolutions"] == [64, 128]  # the config's resolution and its double
    names = {row["name"] for row in doc["identities"]}
    assert "adjointness" in names and "dissipation" in names
    assert len(doc["identities"]) == 11  # 3 identities at 3 exponents, and 2 more
    for row in doc["identities"]:
        assert row["pass"]
        if row["order"] is not None:
            assert row["order"] >= 1.8


def test_identities_report_the_space_of_the_configs_own_grid(tmp_path):
    # the suite also runs at 2n, but its space block describes the config's grid
    cfg = write_config(tmp_path, dict(CIRCLE, n_values=["inf", 3]))
    assert main(["space", "describe", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["identities", "run", "--config", cfg, "--out", str(tmp_path)]) == 0
    described = json.loads((tmp_path / "describe.json").read_text())["space"]
    assert json.loads((tmp_path / "identities.json").read_text())["space"] == described
    assert described["measure"]["nodes"] == 64


def test_identity_suite_runs_on_a_whole_float_resolution(tmp_path):
    # the suite's grids are the domain's resolution, which takes 64.0, and its double
    doc = json.loads(json.dumps(CIRCLE))
    doc["space"]["domain"]["resolution"] = [64.0]
    cfg = write_config(tmp_path, doc)
    assert main(["identities", "run", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "identities.json").read_text())["resolutions"] == [64, 128]


def test_identities_run_on_the_shipped_torus(tmp_path):
    # the suite measures 2D exactness: both axes doubled, every order second
    assert main(["identities", "run", "--config", TORUS, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "identities.json").read_text())
    assert doc["resolutions"] == [32 * 32, 64 * 64]  # node counts of the two grids
    assert len(doc["identities"]) == 11
    for row in doc["identities"]:
        if row["name"] == "adjointness":
            assert max(row["residuals"]) <= ADJOINTNESS_TOL
        else:
            assert row["order"] >= ORDER_THRESHOLD, row["name"]


SHIPPED_IDENTITY_CONFIGS = pytest.mark.parametrize(
    "config", [os.path.join(ROOT, "configs", "circle_identities.json"), TORUS],
    ids=["circle", "torus"])


@SHIPPED_IDENTITY_CONFIGS
def test_identity_suite_pair_is_one_implicit_step(config):
    # the suite solves one implicit step backwards, u_prev = u - tau Lap u, as
    # cli does; a Newton-solved step from u_prev must land on u to its stop
    cfg = load_config(config)
    ops = calculus.operators_for(cfg.build_space())
    waves = np.sin(2 * np.pi * ops.space.coords / cfg.domain.lengths).sum(axis=1)
    u = 1.0 + 0.1 * waves
    tau = 0.05 * min(ops.space.h) ** 2
    tol = 1e-13 * np.ptp(u)  # 1e-13 of osc(u), as evolve reads FlowParams(tol=1e-13)
    v = heatflow.step(ops, u - tau * ops.laplacian(u), tau, tol=tol)
    assert np.sqrt(integrate(ops.space, (v - u) ** 2)) <= tol


@SHIPPED_IDENTITY_CONFIGS
def test_identity_suite_takes_no_flow_step(tmp_path, monkeypatch, config):
    def no_flow(*args, **kwargs):
        raise AssertionError("the identity suite ran the flow")

    for module in (heatflow, cli):
        monkeypatch.setattr(module, "evolve", no_flow)
    monkeypatch.setattr(heatflow, "step", no_flow)
    assert main(["identities", "run", "--config", config, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("name, length, psi", [
    ("circle_identities.json", 1e-3, "0"),
    ("circle_identities.json", 1e3, "0"),
    ("randers_torus2d.json", 1e-3, "0.3*sin(2*pi*x/0.001)*cos(2*pi*y/0.001)"),
], ids=["circle-1e-3", "circle-1e3", "torus-1e-3"])
def test_identity_suite_adjointness_holds_at_any_unit_of_length(tmp_path, name, length, psi):
    # both integrals of the adjointness gap scale as 1/h, so its bound is relative
    with open(os.path.join(ROOT, "configs", name)) as fh:
        doc = json.load(fh)
    domain = doc["space"]["domain"]
    domain["lengths"] = [length] * len(domain["lengths"])
    doc["space"]["psi"] = psi
    cfg = write_config(tmp_path, doc)
    assert main(["identities", "run", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = {row["name"]: row for row in
            json.loads((tmp_path / "identities.json").read_text())["identities"]}
    assert rows["adjointness"]["pass"]
    assert max(rows["adjointness"]["residuals"]) <= ADJOINTNESS_TOL


def _fields_built_by(monkeypatch, argv: list) -> list:
    """The array of every field record built while ``main(argv)`` runs."""
    built = []
    init = calculus.Field.__init__

    def counting(self, ops, f):
        built.append(np.asarray(f))
        init(self, ops, f)

    monkeypatch.setattr(calculus.Field, "__init__", counting)
    assert main(argv) == 0
    return built


def test_identity_suite_builds_one_record_of_h_per_grid(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, CIRCLE)
    built = _fields_built_by(monkeypatch, ["identities", "run", "--config", cfg,
                                           "--out", str(tmp_path)])
    for n in (64, 128):
        h = 0.3 * np.sin(2 * np.pi * ((1.0 / n) * np.arange(n)) / 1.0)  # L = 1, as cli does
        assert sum(f.shape == h.shape and np.array_equal(f, h) for f in built) == 1


def test_identity_suite_builds_one_record_of_the_per_axis_h_per_torus_grid(tmp_path,
                                                                          monkeypatch):
    built = _fields_built_by(monkeypatch, ["identities", "run", "--config", TORUS,
                                           "--out", str(tmp_path)])
    for n in (32, 64):
        wave = np.sin(2 * np.pi * ((1.0 / n) * np.arange(n)) / 1.0)  # L = 1 on both axes
        h = 0.3 * (wave[:, None] + wave[None, :]).reshape(-1)  # x varies slowest
        assert sum(f.shape == h.shape and np.array_equal(f, h) for f in built) == 1


@pytest.mark.parametrize("command, config, bundles", [
    (["space", "describe"], RANDERS_BOX_CONFIG, 1),
    (["ineq", "check"], RANDERS_BOX_CONFIG, 1),
    (["flow", "run"], RANDERS_BOX_CONFIG, 1),
    (["identities", "run"], TORUS, 2),  # one per grid
])
def test_each_command_builds_one_operator_bundle_per_grid(tmp_path, monkeypatch, command,
                                                          config, bundles):
    # before, describe built one per N: effective_K held none across the N loop
    built = []
    init = calculus.DiffOperators.__init__
    monkeypatch.setattr(calculus.DiffOperators, "__init__",
                        lambda self, space: built.append(1) or init(self, space))
    assert main([*command, "--config", config, "--out", str(tmp_path)]) == 0
    assert len(built) == bundles


@pytest.mark.parametrize("command", [["space", "describe"], ["ineq", "check"],
                                     ["flow", "run"]])
def test_no_space_outlives_its_command(tmp_path, monkeypatch, command):
    # a space and its operator bundle form no cycle, so reference counts
    # free them when the command returns, with the cyclic collector off
    spaces = []
    init = WeightedSpace.__init__

    def tracking(self, *args):
        spaces.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(WeightedSpace, "__init__", tracking)
    cfg = os.path.join(ROOT, "perfbench", "configs", "randers_box2d.json")
    gc.disable()
    try:
        assert main(command + ["--config", cfg, "--out", str(tmp_path)]) in (0, 1)
        assert spaces and all(ref() is None for ref in spaces)
    finally:
        gc.enable()


def test_identities_requires_periodic(tmp_path):
    cfg = write_config(tmp_path, EUCLID_GAUSS)
    assert main(["identities", "run", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("psi", ["x**2", "log(1.5 - x)"])  # the second is NaN a period on
@pytest.mark.parametrize("command", [["space", "describe"], ["identities", "run"]])
def test_a_weight_on_a_periodic_domain_must_be_periodic(tmp_path, capsys, command, psi):
    # before, describe read K_eff(inf) = -1054 off the jump of x**2 across the
    # circle's seam, where Hess Psi = 2 everywhere else
    cfg = write_config(tmp_path, dict(CIRCLE, space=dict(CIRCLE["space"], psi=psi),
                                      n_values=["inf"]))
    assert main([*command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config key 'space.psi': Psi is not periodic" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_solver_failure_exits_3(tmp_path, monkeypatch):
    step = heatflow.step
    monkeypatch.setattr(heatflow, "step",
                        lambda ops, u, tau, **_: step(ops, u, tau, tol=1e-300, max_iter=2))
    doc = dict(ASYM_GAUSS)
    doc["flow"] = {"u0": "1 + 0.3*sin(3*x)", "tau": 1.0, "t_end": 10.0}
    cfg = write_config(tmp_path, doc)
    assert main(["flow", "run", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_unknown_checker_is_config_error(tmp_path):
    doc = dict(ASYM_GAUSS)
    doc["checkers"] = ["poincare", "bogus"]
    cfg = write_config(tmp_path, doc)
    assert main(["ineq", "check", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("key, value", [
    ("stride", 0),
    ("stride", 2.7),
    ("tau", float("nan")),
    ("t_end", float("inf")),
    ("tau", -1e-3),
])
def test_bad_flow_values_are_config_errors(tmp_path, capsys, key, value):
    doc = dict(ASYM_GAUSS)
    doc["flow"] = {"u0": "1 + 0.2*x", "tau": 1e-2, "t_end": 0.1, key: value}
    cfg = write_config(tmp_path, doc)
    assert main(["flow", "run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"'flow.{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("size", 2.5), ("seed", -1), ("size", 1001),
                                        ("size", 100000000)])
def test_bad_bank_values_are_config_errors(tmp_path, capsys, key, value):
    doc = dict(ASYM_GAUSS)
    doc["bank"] = {key: value}
    cfg = write_config(tmp_path, doc)
    assert main(["space", "describe", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"'bank.{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("space", "psi", "x**"),
    ("space", "psi", "log(x)"),
    ("flow", "u0", "1 + y"),
    ("flow", "u0", "sqrt(x)"),
])
def test_bad_expressions_are_config_errors(tmp_path, capsys, section, key, value):
    doc = json.loads(json.dumps(ASYM_GAUSS))
    doc["flow"] = {"u0": "1 + 0.2*x", "tau": 1e-2, "t_end": 0.1}
    doc.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path, doc)
    command = {"space": ["space", "describe"], "flow": ["flow", "run"]}[section]
    assert main([*command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"'{section}.{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("config, section, key, value, command", [
    ("gaussian_asym1d.json", "flow", "tol", 1e-2, ["flow", "run"]),
    ("gaussian_asym1d.json", "flow", "max_iter", 50, ["flow", "run"]),
    ("circle_identities.json", "identities", "h_expr", "0", ["identities", "run"]),
    ("circle_identities.json", "identities", "resolutions", [128, 256],
     ["identities", "run"]),
    ("circle_identities.json", "identities", "a_values", [0.5], ["identities", "run"]),
], ids=["flow.tol", "flow.max_iter", "identities.h_expr", "identities.resolutions",
        "identities.a_values"])
def test_deleted_solver_and_field_keys_are_config_errors(tmp_path, capsys, config,
                                                         section, key, value, command):
    # before, flow.tol = 1e-2 left the flow unmoved and failed both rate checks,
    # identities.h_expr = "0" passed every exponential identity at residual 0,
    # and identities.resolutions could differ from the grid the config names
    doc = _shipped(config)
    # a deleted key is unknown in its section; a deleted section, at the root
    where, unknown = (section, key) if section in doc else ("<root>", section)
    doc.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path, doc)
    assert main([*command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"config key '{where}': unknown keys ['{unknown}']" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("n_values", [None, [], [3]], ids=["absent", "empty", "negative-K"])
def test_flow_run_without_a_positive_K_is_config_error(tmp_path, capsys, n_values):
    # K(N = 3) = -3.5 on this space; before, each wrote "bounds": {} and exited 0
    doc = {"space": ASYM_GAUSS["space"], "flow": _FLOWING["flow"]}
    if n_values is not None:
        doc["n_values"] = n_values
    cfg = write_config(tmp_path, doc)
    assert main(["flow", "run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config key 'n_values'" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_ineq_check_error_at_the_second_N_keeps_the_first(tmp_path, capsys, monkeypatch):
    check_nash = inequalities.check_nash

    def failing_at_10(space, f, N, K):
        if N == 10:
            raise ArithmeticError("injected")
        return check_nash(space, f, N, K)

    monkeypatch.setattr(inequalities, "check_nash", failing_at_10)
    doc = _shipped("gaussian_asym1d_finite_n.json")
    doc.update(n_values=[3, 10, "inf"], checkers=["nash"], bank={"size": 2})
    doc["space"]["domain"]["resolution"] = [64]
    cfg = write_config(tmp_path, doc)
    assert main(["ineq", "check", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "at N = 10" in capsys.readouterr().err
    report = json.loads((tmp_path / "ineq_report.json").read_text())
    assert report["error"] == "ArithmeticError: injected (at N = 10)"
    assert [(c["checker"], c["N"]) for c in report["checks"]] == [("nash", 3)] * 2


def test_integer_config_values_stay_exact():
    # 2**53 + 1 has no float; before, the bank drew with seed 2**53
    doc = dict(ASYM_GAUSS, bank={"seed": 2**53 + 1})
    assert parse_config(doc).bank_seed == 2**53 + 1


@pytest.mark.parametrize("tau, t_end", [(1e-10, 1e300), (1.0, 0.1), (1e-12, 1.0)])
def test_flow_step_count_is_checked(tmp_path, capsys, tau, t_end):
    doc = dict(ASYM_GAUSS)
    doc["flow"] = {"u0": "1 + 0.2*x", "tau": tau, "t_end": t_end}
    cfg = write_config(tmp_path, doc)
    assert main(["flow", "run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "'flow.t_end'" in capsys.readouterr().err


def test_tolerances_section_is_config_error(tmp_path, capsys):
    # the pass rule is fixed; before, "tolerances": {"sweep": 1e6} turned every
    # FAIL into a PASS
    doc = _with_domain(resolution=[64])
    doc.update(checkers=["poincare"], tolerances={"sweep": 1e6})
    cfg = write_config(tmp_path, doc)
    assert main(["ineq", "check", "--config", cfg, "--out", str(tmp_path),
                 "--override-k", "1000"]) == 2
    err = capsys.readouterr().err
    assert "'<root>'" in err and "'tolerances'" in err
    assert not (tmp_path / "ineq_report.json").exists()


@pytest.mark.parametrize("checkers", [[], ["poincare", "poincare"]])
def test_empty_or_duplicate_checkers_are_config_errors(tmp_path, capsys, checkers):
    doc = dict(ASYM_GAUSS)
    doc["checkers"] = checkers
    cfg = write_config(tmp_path, doc)
    assert main(["ineq", "check", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "'checkers'" in capsys.readouterr().err


RANDERS_BOX = {
    "space": {
        "domain": {"geometry": "box", "lengths": [2.0, 2.0], "resolution": [16, 16]},
        "norm": {"variant": "randers", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                 "drift": [0.3, 0.1]},
        "psi": "(x**2 + y**2)/2",
    },
}


@pytest.mark.parametrize("space, n_values, index", [
    (EUCLID_GAUSS["space"], [1], 0),
    (RANDERS_BOX["space"], ["inf", 2], 1),
])
@pytest.mark.parametrize("command", [["space", "describe"], ["ineq", "check"],
                                     ["flow", "run"], ["ineq", "check", "--override-k", "1"]])
def test_dimension_N_with_drifting_weight_is_config_error(tmp_path, capsys, space,
                                                          n_values, index, command):
    # at N = n the correction term is undefined unless D Psi vanishes; the
    # rule holds under --override-k too, which pins K only after it
    doc = {"space": space, "n_values": n_values,
           "flow": {"u0": "1 + 0.2*x", "tau": 0.001, "t_end": 0.01}}
    cfg = write_config(tmp_path, doc)
    assert main([*command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert (f"config key 'n_values[{index}]': N equals the dimension but D Psi does not "
            "vanish") in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_dimension_N_with_constant_weight_runs(tmp_path):
    doc = {"space": dict(RANDERS_BOX["space"], psi="3"), "n_values": [2]}
    cfg = write_config(tmp_path, doc)
    assert main(["space", "describe", "--config", cfg, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("matrix", [
    2.0,                           # scalar
    [1.0, 2.0],                    # 1-D
    [[1.0, 0.0], [0.0]],           # ragged
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # not square
    [[1.0, 0.5], [0.0, 1.0]],      # not symmetric
    [[1.0, 2.0], [2.0, 1.0]],      # not positive-definite
], ids=["scalar", "1d", "ragged", "non-square", "non-symmetric", "indefinite"])
@pytest.mark.parametrize("variant", ["euclidean", "randers"])
def test_malformed_matrix_is_config_error(tmp_path, capsys, matrix, variant):
    norm = {"variant": variant, "matrix": matrix}
    if variant == "randers":
        norm["drift"] = [0.1, 0.0]
    doc = {"space": dict(RANDERS_BOX["space"], norm=norm), "n_values": ["inf"]}
    cfg = write_config(tmp_path, doc)
    assert main(["space", "describe", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "'space.norm'" in capsys.readouterr().err


@pytest.mark.parametrize("entry, value", [("matrix", [[math.inf, 0.0], [0.0, 1.0]]),
                                          ("drift", [math.nan, 0.1])],
                         ids=["infinite-matrix", "nan-drift"])
@pytest.mark.parametrize("command", [["space", "describe"], ["ineq", "check"]])
def test_non_finite_norm_entry_is_config_error(tmp_path, capsys, entry, value, command):
    # before, an infinite A gave K_eff 0 (describe) and NaN margins (ineq), and
    # a NaN drift exited 3 from the linear algebra; JSON reads Infinity and NaN
    norm = dict(RANDERS_BOX["space"]["norm"], **{entry: value})
    doc = {"space": dict(RANDERS_BOX["space"], norm=norm), "n_values": ["inf", 8]}
    cfg = write_config(tmp_path, doc)
    assert main([*command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config key 'space.norm': A and b must be finite" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("space, message", [
    (dict(ASYM_GAUSS["space"], norm={"variant": "asym1d", "alpha": 1e-310, "beta": 1.0}),
     "alpha = 1e-310 has no finite reciprocal"),
    (dict(RANDERS_BOX["space"], norm={"variant": "randers", "drift": [0.1, 0.0],
                                      "matrix": [[1e-310, 0.0], [0.0, 1.0]]}),
     "A must have a finite inverse"),
    (dict(RANDERS_BOX["space"], norm={"variant": "randers", "drift": [0.0, 1e10],
                                      "matrix": [[1e-300, 5e-301], [5e-301, 1e-300]]}),
     "Randers drift |b|_(A^-1) = nan"),
], ids=["subnormal-slope", "subnormal-matrix", "nan-drift"])
def test_norm_without_a_finite_dual_is_config_error(tmp_path, capsys, space, message):
    # before, these wrote S_F = inf, nan and nan to describe.json and exited 0
    cfg = write_config(tmp_path, {"space": space})
    assert main(["space", "describe", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"config key 'space.norm': {message}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("doc, key", [
    ({"space": ASYM_GAUSS["space"]}, "n_values"),
    ({"space": ASYM_GAUSS["space"], "n_values": []}, "n_values"),
    ({"space": ASYM_GAUSS["space"], "n_values": ["inf"], "checkers": ["talagrand"]},
     "checkers"),
    ({"space": ASYM_GAUSS["space"], "n_values": ["inf", -5],
      "checkers": ["nash", "nonsharp_sobolev"]}, "checkers"),
    ({"space": ASYM_GAUSS["space"], "n_values": [2],
      "checkers": ["nonsharp_sobolev", "sobolev_inf"]}, "checkers"),
])
def test_ineq_check_without_a_runnable_cell_is_config_error(tmp_path, capsys, doc, key):
    # before, these printed "0 checks, 0 failed" and exited 0
    cfg = write_config(tmp_path, doc)
    assert main(["ineq", "check", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "ineq_report.json").exists()


def test_ineq_check_runs_a_checker_subset_at_its_N(tmp_path):
    doc = {"space": ASYM_GAUSS["space"], "n_values": ["inf", 100],
           "checkers": ["talagrand"], "bank": {"size": 2}}
    cfg = write_config(tmp_path, doc)
    assert main(["ineq", "check", "--config", cfg, "--out", str(tmp_path)]) == 0
    checks = json.loads((tmp_path / "ineq_report.json").read_text())["checks"]
    assert [(c["checker"], c["N"]) for c in checks] == [("talagrand", 100.0)] * 2


def test_largest_bank_is_accepted(tmp_path):
    doc = dict(ASYM_GAUSS, bank={"size": 1000})
    cfg = write_config(tmp_path, doc)
    assert main(["space", "describe", "--config", cfg, "--out", str(tmp_path)]) == 0


def _shipped(name):
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", name)) as fh:
        return json.load(fh)


def test_ineq_check_where_every_checker_needs_a_positive_K_is_config_error(tmp_path,
                                                                           capsys):
    doc = _shipped("gaussian_asym1d.json")
    doc["space"]["domain"]["resolution"] = [128]
    doc.update(n_values=[3], checkers=["talagrand"])  # K_eff(3) = -3.5
    cfg = write_config(tmp_path, doc)
    assert main(["ineq", "check", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "'checkers'" in capsys.readouterr().err
    assert not (tmp_path / "ineq_report.json").exists()
    assert main(["ineq", "check", "--config", cfg, "--out", str(tmp_path),
                 "--override-k", "1"]) in (0, 1)
    checks = json.loads((tmp_path / "ineq_report.json").read_text())["checks"]
    assert {c["checker"] for c in checks} == {"talagrand"}


def _resolved(space, resolution):
    domain = dict(space["domain"], resolution=resolution)
    return {"space": dict(space, domain=domain), "n_values": ["inf"], "bank": {"size": 2}}


@pytest.mark.parametrize("doc", [_resolved(ASYM_GAUSS["space"], [8]),
                                 _resolved(RANDERS_BOX["space"], [8, 16])],
                         ids=["interval", "box"])
def test_ineq_check_without_an_interior_node_is_config_error(tmp_path, capsys, doc):
    # before, the pointwise check aborted with exit 3 on an empty reduction
    cfg = write_config(tmp_path, doc)
    assert main(["ineq", "check", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "'space.domain.resolution'" in capsys.readouterr().err
    assert not (tmp_path / "ineq_report.json").exists()


def test_ineq_check_with_one_interior_node_runs(tmp_path):
    cfg = write_config(tmp_path, _resolved(ASYM_GAUSS["space"], [9]))
    assert main(["ineq", "check", "--config", cfg, "--out", str(tmp_path)]) in (0, 1)
    checks = json.loads((tmp_path / "ineq_report.json").read_text())["checks"]
    assert any(c["checker"] == "bochner_pointwise" for c in checks)


@pytest.mark.parametrize("space, resolution", [
    (ASYM_GAUSS["space"], [2**16 + 1]), (RANDERS_BOX["space"], [257, 256]),
    (RANDERS_BOX["space"], [100000, 100000])], ids=["interval", "box", "box-huge"])
def test_a_grid_above_the_node_cap_is_config_error(tmp_path, capsys, space, resolution):
    # before, [100000, 100000] passed parse_config and describe exited 3 on a
    # 74.5 GiB allocation
    cfg = write_config(tmp_path, _resolved(space, resolution))
    assert main(["space", "describe", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config key 'space.domain.resolution'" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_a_grid_at_the_node_cap_is_accepted():
    config = parse_config(_resolved(RANDERS_BOX["space"], [256, 256]))
    assert config.domain.resolution == (256, 256)


_FLOWING = dict(ASYM_GAUSS, flow={"u0": "1 + 0.2*x", "tau": 5e-3, "t_end": 0.05})


@pytest.mark.parametrize("minus_inf", ["-Infinity", "-1e400"])
@pytest.mark.parametrize("command", [["space", "describe"], ["flow", "run"],
                                     ["ineq", "check"]])
def test_minus_infinite_N_is_config_error(tmp_path, capsys, command, minus_inf):
    # before, describe and flow dropped the N and exited 0, and ineq exited 3
    text = json.dumps(dict(_FLOWING, n_values=["inf", 0.0]))
    cfg = tmp_path / "config.json"
    cfg.write_text(text.replace("0.0]", minus_inf + "]"))
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "'n_values[1]'" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def _with_domain(**domain):
    space = dict(ASYM_GAUSS["space"], domain=dict(ASYM_GAUSS["space"]["domain"], **domain))
    return dict(ASYM_GAUSS, space=space)


@pytest.mark.parametrize("doc, key", [
    (dict(ASYM_GAUSS, n_values=5), "n_values"),
    (_with_domain(resolution=[64.5]), "space.domain.resolution[0]"),
    (_with_domain(resolution=[4]), "space.domain.resolution[0]"),
    (_with_domain(resolution=128), "space.domain.resolution"),
    (_with_domain(lengths=["6"]), "space.domain.lengths[0]"),
    (_with_domain(lengths="66"), "space.domain.lengths"),
    # identities.resolutions is deleted: a malformed value is an unknown section
    (dict(CIRCLE, identities={"resolutions": [64, 128.5]}), "<root>"),
    (dict(CIRCLE, identities={"resolutions": [4, 128]}), "<root>"),
    (dict(CIRCLE, identities={"resolutions": [128, 64]}), "<root>"),
    (dict(CIRCLE, identities={"resolutions": [128, 130]}), "<root>"),
    (dict(CIRCLE, identities={"resolutions": [32, 256]}), "<root>"),
], ids=["n_values-scalar", "resolution-fraction", "resolution-small",
        "resolution-scalar", "lengths-string-item", "lengths-string",
        "identity-resolution-fraction", "identity-resolution-small",
        "identity-resolutions-decreasing", "identity-resolutions-not-doubling",
        "identity-resolutions-octupling"])
def test_malformed_config_value_is_config_error(tmp_path, capsys, doc, key):
    cfg = write_config(tmp_path, doc)
    assert main(["space", "describe", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"config key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--override-k", "2"]])
@pytest.mark.parametrize("command", [["space", "describe"], ["flow", "run"],
                                     ["identities", "run"]])
def test_ineq_only_flags_are_rejected_elsewhere(tmp_path, command, flag):
    # before, describe printed the computed K and flow checked the computed bound
    cfg = write_config(tmp_path, _FLOWING)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", cfg, "--out", str(tmp_path), *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--override-k", "nan"], ["--override-k", "inf"],
                                  ["--seed", "-1"]], ids=["k-nan", "k-inf", "seed-negative"])
def test_bad_ineq_flag_values_exit_2(tmp_path, capsys, flag):
    # before, a nan or inf K wrote FAILs with margin = nan and exited 1, and a
    # negative seed exited 3 from the bank's random generator
    cfg = write_config(tmp_path, _shipped("gaussian_asym1d.json"))
    with pytest.raises(SystemExit) as exc:
        main(["ineq", "check", "--config", cfg, "--out", str(tmp_path), *flag])
    assert exc.value.code == 2
    assert f"argument {flag[0]}: expected a" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_flow_with_a_non_finite_entropy_has_no_entropy_verdict(tmp_path):
    # u0 = x changes sign, so the entropy is NaN at every sample; before, the
    # rate read "inf" and entropy_pass read true
    doc = _with_domain(resolution=[64])
    doc["flow"] = {"u0": "x", "tau": 1e-2, "t_end": 0.1}
    cfg = write_config(tmp_path, doc)
    assert main(["flow", "run", "--config", cfg, "--out", str(tmp_path)]) in (0, 1)
    summary = json.loads((tmp_path / "flow_summary.json").read_text())
    assert summary["rates"]["entropy_rate"] == "nan"
    entry = summary["bounds"]["inf"]
    assert entry["entropy_rate"] == "nan" and entry["entropy_pass"] is None
    assert isinstance(entry["variance_pass"], bool)


@pytest.mark.parametrize("command", [["space", "describe"], ["flow", "run"],
                                     ["ineq", "check"]])
def test_flow_recording_fewer_than_10_samples_is_config_error(tmp_path, capsys, command):
    # 5 steps record 6 samples, too few to fit a decay rate; before, flow run
    # wrote null verdicts and exited 0
    doc = dict(_FLOWING, flow={"u0": "1 + 0.2*x", "tau": 0.01, "t_end": 0.05})
    cfg = write_config(tmp_path, doc)
    assert main([*command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "'flow.stride'" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("t_end, code", [(0.16, 2), (0.17, 0)])
def test_flow_sample_count_counts_the_last_step(tmp_path, t_end, code):
    # at stride 2, 16 steps record 1 + 8 samples and 17 steps 1 + 9 (the
    # last step is always recorded)
    doc = dict(_FLOWING, flow={"u0": "1 + 0.2*x", "tau": 0.01, "t_end": t_end,
                               "stride": 2})
    cfg = write_config(tmp_path, doc)
    assert main(["space", "describe", "--config", cfg, "--out", str(tmp_path)]) == code


@pytest.mark.parametrize("command", [["space", "describe"], ["flow", "run"],
                                     ["ineq", "check"]])
def test_duplicate_N_is_config_error(tmp_path, capsys, command):
    # before, describe.json held 2 K_eff keys for 3 N and ineq ran N = 8 twice
    doc = dict(_FLOWING, n_values=[8, 8.0, "inf"])
    cfg = write_config(tmp_path, doc)
    assert main([*command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "'n_values'" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


with open(os.path.join(ROOT, "configs", "gaussian_asym1d.json")) as fh:
    SHIPPED_FLOW = json.load(fh)
RANDERS_FLOW = dict(RANDERS_BOX, n_values=["inf", 8],
                    flow={"u0": "1 + 0.2*x", "tau": 1e-3, "t_end": 0.02, "stride": 2})


@functools.lru_cache(maxsize=None)
def _run_text(command, text, report):
    """Exit code of ``fg <command>`` on a JSON config text, and its parsed
    ``report`` (None when the command wrote none)."""
    with tempfile.TemporaryDirectory() as out:
        cfg = os.path.join(out, "config.json")
        with open(cfg, "w") as fh:
            fh.write(text)
        code = main([*command.split(), "--config", cfg, "--out", out])
        if not os.path.exists(os.path.join(out, report)):
            return code, None
        with open(os.path.join(out, report)) as fh:
            return code, json.load(fh)


def _flow_outcome(text):
    """Exit code, verdicts and rates of ``fg flow run`` on a JSON config text."""
    code, summary = _run_text("flow run", text, "flow_summary.json")
    if summary is None:
        return code, None, None
    verdicts = {(N, name): entry[f"{name}_pass"] for N, entry in summary["bounds"].items()
                for name in ("variance", "entropy")}
    return code, verdicts, summary["rates"]


@pytest.mark.parametrize("doc, u0, scale", [
    # before, these exited 3: an absolute gradient threshold zeroed the gradient
    (SHIPPED_FLOW, "1e-9*(1 + 0.2*x)", 1e-9),
    (SHIPPED_FLOW, "1e-6*(1 + 0.2*x)", 1e-6),
    (SHIPPED_FLOW, "1e-5*(1 + 0.2*x)", 1e-5),
    (SHIPPED_FLOW, "0.25*(1 + 0.2*x)", 0.25),
    (SHIPPED_FLOW, "3*(1 + 0.2*x)", 3.0),
    (SHIPPED_FLOW, "1e6*(1 + 0.2*x)", 1e6),
    (SHIPPED_FLOW, "1 + 0.2*x + 10", None),
    (SHIPPED_FLOW, "1 + 0.2*x + 1e4", None),
    # before, these exited 3 at step 1: the Newton stop fell below rounding
    (SHIPPED_FLOW, "1 + 0.2*x + 1e7", None),
    (SHIPPED_FLOW, "1 + 0.2*x + 1e10", None),
    (RANDERS_FLOW, "3*(1 + 0.2*x)", 3.0),
], ids=["1e-9*u0", "1e-6*u0", "1e-5*u0", "0.25*u0", "3*u0", "1e6*u0", "u0+10", "u0+1e4",
        "u0+1e7", "u0+1e10", "randers-3*u0"])
def test_flow_verdicts_are_invariant_under_rescaling_and_shifts(doc, u0, scale):
    # the flow is 1-homogeneous and blind to added constants, so the verdicts
    # are too, and a rescaling leaves both rates unchanged
    assert doc["flow"]["u0"] == "1 + 0.2*x"
    base_code, base_verdicts, base_rates = _flow_outcome(json.dumps(doc))
    assert base_code == 0 and all(base_verdicts.values())
    code, verdicts, rates = _flow_outcome(json.dumps(dict(doc, flow=dict(doc["flow"], u0=u0))))
    assert (code, verdicts) == (base_code, base_verdicts)
    if scale is not None:
        for name, rate in base_rates.items():
            assert rates[name] == pytest.approx(rate, rel=1e-9), name


@pytest.mark.parametrize("config, solves", [("configs/gaussian_asym1d.json", 599),
                                            ("perfbench/configs/randers_box2d.json", 39)])
def test_shipped_flow_newton_solve_count(tmp_path, monkeypatch, config, solves):
    # a stopping rule or a Newton start that adds solves to the shipped flows
    # shows here; with each step started at u the counts were 801 and 43
    calls = []
    spsolve = heatflow.spla.spsolve
    monkeypatch.setattr(heatflow.spla, "spsolve",
                        lambda *a, **kw: calls.append(1) or spsolve(*a, **kw))
    assert main(["flow", "run", "--config", os.path.join(ROOT, config),
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == solves


def test_every_report_of_a_config_string_with_a_newline_parses(tmp_path):
    # before, render_json wrote the newline raw and json.loads failed
    doc = dict(SHIPPED_FLOW, space=dict(SHIPPED_FLOW["space"], psi="x**2/2\n"))
    cfg = write_config(tmp_path, doc)
    for command in (["space", "describe"], ["flow", "run"], ["ineq", "check"]):
        assert main([*command, "--config", cfg, "--out", str(tmp_path)]) == 0
    reports = sorted(path.name for path in tmp_path.glob("*.json"))
    assert reports == ["config.json", "describe.json", "flow_summary.json", "ineq_report.json"]
    for name in reports[1:]:
        doc = json.loads((tmp_path / name).read_text())
        assert doc["config"]["space"]["psi"] == "x**2/2\n", name


def test_render_json_escapes_strings_and_keys():
    doc = {'key "\\\n\t\x00\x1f': ['a"b\\c', "\r\x7f", "é–∞"], "2": "\u2028"}
    assert json.loads(render_json(doc)) == doc
    assert render_json("é–∞") == '"é–∞"'


@pytest.mark.parametrize("shift", [-800, -300, 5, 1000])
def test_ineq_verdicts_are_invariant_under_shifts_of_psi(shift):
    # exp(-Psi) alone overflows at Psi - 800 and underflows at Psi + 1000
    doc = _shipped("gaussian_asym1d.json")
    base_code, base = _run_text("ineq check", json.dumps(doc), "ineq_report.json")
    doc["space"]["psi"] = f"{doc['space']['psi']} + ({shift})"
    code, shifted = _run_text("ineq check", json.dumps(doc), "ineq_report.json")
    assert code == base_code == 0
    assert len(shifted["checks"]) == len(base["checks"])
    for c, b in zip(shifted["checks"], base["checks"]):
        cell = (c["checker"], c["N"], c["metadata"].get("p"), c["metadata"]["member"])
        assert cell == (b["checker"], b["N"], b["metadata"].get("p"), b["metadata"]["member"])
        assert c["pass"] == b["pass"], cell
        assert c["rhs"] == pytest.approx(b["rhs"], rel=1e-9), cell


@pytest.mark.parametrize("command", [["ineq", "check"], ["flow", "run"]])
def test_psi_whose_cell_mass_underflows_is_config_error(tmp_path, capsys, command):
    # before, ineq check failed 60 checks with NaN margins and flow run gave
    # every verdict null, both on a measure that is 0 near the ends
    doc = dict(SHIPPED_FLOW, space=dict(SHIPPED_FLOW["space"], psi="100*x**2"))
    cfg = write_config(tmp_path, doc)
    assert main([*command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config key 'space.psi': the cell mass underflows to 0" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("key, commands", [
    ("space.psi", [["space", "describe"], ["flow", "run"]]),
    ("flow.u0", [["flow", "run"]]),  # only the flow reads the initial datum
])
def test_an_expression_cannot_run_code(tmp_path, capsys, key, commands):
    # before, attribute access reached os.system through the class tree
    marker = tmp_path / "ran"
    attack = ("[c for c in x.__class__.__mro__[-1].__subclasses__() "
              "if c.__name__ == '_wrap_close'][0].__init__.__globals__['system']"
              f"('touch {marker}') + x**2/2")
    doc = json.loads(json.dumps(SHIPPED_FLOW))
    section, name = key.split(".")
    doc[section][name] = attack
    cfg = write_config(tmp_path, doc)
    for command in commands:
        assert main([*command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]
