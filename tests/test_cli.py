import json
import math
from pathlib import Path

import pytest

from metric_action_lab.cli import main
from metric_action_lab.curves import curve_to_csv, geodesic_curve
from metric_action_lab.errors import ConfigError
from metric_action_lab.harness import ExperimentConfig, certified_args
from metric_action_lab.spaces import half_line


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def test_cli_validate_prox(tmp_path, capsys):
    rc = main(["validate", "prox", "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    out = (tmp_path / "validate_prox.csv").read_text().splitlines()
    assert out[0] == "space,functional,check,params,residual,pass"
    assert all(line.endswith(",true") for line in out[1:])
    names = {line.split(",")[2] for line in out[1:]}
    assert {"bound_chain", "lipschitz", "tau_continuity", "resolvent_identity", "optimality"} <= names


@pytest.mark.parametrize("what", ["spaces", "functionals", "flow"])
def test_cli_validate(tmp_path, what):
    rc = main(["validate", what, "--out", str(tmp_path)])
    assert rc == 0
    out = (tmp_path / f"validate_{what}.csv").read_text().splitlines()
    assert out[0] == "space,functional,check,params,residual,pass"
    assert len(out) > 1
    assert all(line.endswith(",true") for line in out[1:])


def test_cli_flow_trajectory(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "space": {"kind": "euclidean", "dim": 1},
            "functional": {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}},
            "x": [1.0],
            "T": 1.0,
            "n_steps": 200,
        },
    )
    rc = main(["flow", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,coord_0,f_value,speed,slope"
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(math.exp(-1.0), abs=2e-3)


def test_cli_action_of_curve(tmp_path):
    hl = half_line()
    curve = geodesic_curve(hl, hl.point(0.0), hl.point(1.0), 128)
    (tmp_path / "curve.csv").write_text(curve_to_csv(curve))
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "space": {"kind": "half_line"},
            "functional": {"name": "zero"},
            "curve_csv": str(tmp_path / "curve.csv"),
            "x0": 0.0,
            "x1": 1.0,
        },
    )
    rc = main(["action", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "action.json").read_text())
    assert payload["total"] == pytest.approx(1.0, abs=1e-9)
    assert payload["endpoint_ok"] is True


def test_cli_gamma_example2_and_exit_codes(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "h_list": [4, 16],
            "discretization": {"n_certificate": 256},
            "with_optimizer": False,
        },
    )
    rc = main(["gamma", "example2", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "gamma_example2.json").read_text())
    assert payload["verdict"] == "GammaConvergenceViolated"


def test_cli_gamma_positive(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "space": {"kind": "euclidean", "dim": 1},
            "family": {"name": "zero"},
            "x0": 0.0,
            "x1": 1.0,
            "h_list": [2, 4, 8],
            "base_curve": {"type": "geodesic", "N": 32},
        },
    )
    rc = main(["gamma", "positive", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "gamma_positive.json").read_text())
    assert payload["verdict"] == "ConsistentWithGammaConvergence"


def test_cli_recovery_outputs(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "space": {"kind": "euclidean", "dim": 1},
            "family": {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}},
            "x0": 0.0,
            "x1": 1.0,
            "x0_law": "1/h",
            "x1_law": "1",
            "h_list": [4, 8],
            "base_curve": {"type": "geodesic", "N": 16},
        },
    )
    rc = main(["recovery", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "recovery_h4.csv").exists()
    summary = json.loads((tmp_path / "recovery_summary.json").read_text())
    assert "4" in summary["h"]
    labels = {p["label"] for p in summary["h"]["4"]["pieces"]}
    assert "middle" in labels


def test_cli_recovery_records_base_curve_convergence(tmp_path):
    cfg = str(Path(__file__).parent / "data" / "gamma_positive_tripod.config.json")
    rc = main(["recovery", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "recovery_summary.json").read_text())
    assert summary["meta"]["base_curve_converged"] is True


def test_cli_recovery_vanishing_without_eps_law(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "space": {"kind": "half_line"},
            "family": {"name": "example1"},
            "x0": 1.0,
            "x1": 2.0,
            "h_list": [2],
            "mode": "vanishing",
            "base_curve": {"type": "geodesic", "N": 16},
        },
    )
    rc = main(["recovery", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "eps_law" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text",
    [
        (["gamma", "positive"], ""),
        (["gamma", "example2"], '{"h_list": [4,'),
        (["flow"], "[1, 2]"),
    ],
    ids=["empty", "broken_json", "not_an_object"],
)
def test_cli_bad_config_exits_2_with_one_line(tmp_path, capsys, command, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    rc = main(command + ["--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("metric-action-lab: ") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


_HALF_LINE_X0_LAW = {
    "space": {"kind": "half_line"},
    "family": {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}},
    "x0": 0.5,
    "x1": 1.0,
    "x0_law": "0.5 - 1/h",
    "h_list": [1, 8, 16],
}


@pytest.mark.parametrize(
    "experiment, cfg, causes",
    [
        (
            "example1",
            {"h_list": [4, 8, 16], "eps_law": "1/(h-8)"},
            {4: "gives eps=-0.25 <= 0 at h=4", 8: "fails at h=8: float division by zero"},
        ),
        ("positive", _HALF_LINE_X0_LAW, {1: "half-line points are single nonnegative reals"}),
    ],
    ids=["example1", "positive"],
)
def test_cli_report_json_rows_carry_errors(tmp_path, experiment, cfg, causes):
    path = write_json(tmp_path / "cfg.json", cfg)
    rc = main(["gamma", experiment, "--config", path, "--out", str(tmp_path)])
    assert rc in (0, 1)
    rows = json.loads((tmp_path / f"gamma_{experiment}.json").read_text())["rows"]
    errors = {row["h"]: row["error"] for row in rows if "error" in row}
    assert errors.keys() == causes.keys()
    for h, cause in causes.items():
        assert cause in errors[h]
    header = (tmp_path / f"gamma_{experiment}.csv").read_text().splitlines()[0]
    assert "error" not in header.split(",")


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        (["gamma", "positive"], {"h_list": [2]}, "space"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "space": {}}, "kind"),
        (["flow"], {"space": {"kind": "euclidean", "dim": 1}, "functional": {"name": "zero"}}, "x"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "base_curve": {"type": "csv"}}, "path"),
    ],
    ids=["space", "kind", "x", "path"],
)
def test_cli_missing_key_exits_2_with_one_line(tmp_path, capsys, command, cfg, key):
    path = write_json(tmp_path / "cfg.json", cfg)
    rc = main(command + ["--config", path, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"metric-action-lab: config is missing required key '{key}'\n"


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "h_list": 5}, "h_list"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "space": {"kind": "euclidean", "dim": "two"}},
         "dim"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "tolerances": {"margin": "big"}}, "margin"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "family": "quadratic"}, "family"),
        (["gamma", "example2"], {"h_list": [0]}, "h_list"),
        (["flow"], {"space": {"kind": "tripod"}, "functional": {"name": "quadratic"}, "x": [0, 0.5]},
         "center"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "tolerances": {"margin": math.nan}}, "margin"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "tolerances": {"margin": math.inf}}, "margin"),
        (["gamma", "example2"], {"h_list": [4], "with_optimizer": "no"}, "with_optimizer"),
        (["gamma", "example2"], {"h_list": [4], "with_optimizer": 1}, "with_optimizer"),
        (["flow"], {"space": {"kind": "quantile_1d", "grid_size": 4}, "x": [0, 1, 2, 3],
                    "functional": {"name": "quadratic", "params": {"center": [0, 1, 2]}}}, "center"),
        (["flow"], {"space": {"kind": "euclidean", "dim": 2}, "x": [0, 1],
                    "functional": {"name": "quadratic", "params": {"center": [0, 1, 2]}}}, "center"),
    ],
    ids=["h_list_int", "dim_string", "margin_string", "family_string", "h_list_zero", "tripod_center",
         "margin_nan", "margin_infinity", "with_optimizer_string", "with_optimizer_int",
         "quantile_center_length", "euclidean_center_length"],
)
def test_cli_wrong_type_exits_2_with_one_line(tmp_path, capsys, command, cfg, key):
    path = write_json(tmp_path / "cfg.json", cfg)
    rc = main(command + ["--config", path, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("metric-action-lab: ") and key in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "command, make_cfg",
    [
        (["gamma", "positive"], lambda p: {**_HALF_LINE_X0_LAW, "base_curve": {"type": "csv", "path": p}}),
        (["action"], lambda p: {"space": {"kind": "half_line"}, "functional": {"name": "zero"},
                                "curve_csv": p, "x0": 0.0, "x1": 1.0}),
    ],
    ids=["base_curve", "curve_csv"],
)
@pytest.mark.parametrize("text", [None, ""], ids=["missing", "empty"])
def test_cli_unreadable_curve_file_exits_2_with_one_line(tmp_path, capsys, command, make_cfg, text):
    curve = tmp_path / "curve.csv"
    if text is not None:
        curve.write_text(text)
    path = write_json(tmp_path / "cfg.json", make_cfg(str(curve)))
    rc = main(command + ["--config", path, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"metric-action-lab: cannot read curve {curve}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "times, message",
    [
        ([0.0, 0.5, 2.0], "curve must be parametrized on [0, 1]"),
        ([0.0, 0.5, 0.4, 1.0], "times must be strictly increasing"),
    ],
    ids=["off_unit_interval", "not_increasing"],
)
def test_cli_action_rejects_bad_curve_times(tmp_path, capsys, times, message):
    curve = tmp_path / "curve.csv"
    curve.write_text("t,coord_0\n" + "".join(f"{t},{t}\n" for t in times))
    cfg = write_json(tmp_path / "cfg.json", {"space": {"kind": "half_line"}, "functional": {"name": "zero"},
                                             "curve_csv": str(curve), "x0": 0.0, "x1": 1.0})
    rc = main(["action", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"metric-action-lab: cannot read curve {curve}: {message}\n"


@pytest.mark.parametrize("node", ["nan", "inf"])
def test_cli_action_rejects_a_non_finite_node(tmp_path, capsys, node):
    curve = tmp_path / "curve.csv"
    curve.write_text(f"t,coord_0\n0.0,0.0\n0.5,{node}\n1.0,1.0\n")
    cfg = write_json(tmp_path / "cfg.json", {"space": {"kind": "half_line"}, "functional": {"name": "zero"},
                                             "curve_csv": str(curve), "x0": 0.0, "x1": 1.0})
    rc = main(["action", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"metric-action-lab: cannot read curve {curve}: point coordinates must be finite, got ({node},)\n"
    assert not (tmp_path / "action.json").exists()


def test_cli_action_rejects_a_fractional_tripod_edge(tmp_path, capsys):
    # edge 1.7 is no edge: it neither truncates to 1 nor rounds to 2
    curve = tmp_path / "curve.csv"
    curve.write_text("t,edge,offset\n0.0,0,0.5\n0.5,1.7,0.5\n1.0,1,0.5\n")
    cfg = write_json(tmp_path / "cfg.json", {"space": {"kind": "tripod"}, "functional": {"name": "zero"},
                                             "curve_csv": str(curve), "x0": [0, 0.5], "x1": [1, 0.5]})
    rc = main(["action", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"metric-action-lab: cannot read curve {curve}: edge index 1.7 out of range\n"
    assert not (tmp_path / "action.json").exists()


def test_cli_flow_from_an_overflowing_start_exits_2_with_one_line(tmp_path, capsys):
    # d(x, centre)^2 overflows a float; a value of inf would mean "off the domain"
    cfg = write_json(tmp_path / "cfg.json", {"space": {"kind": "euclidean", "dim": 1},
                                             "functional": {"name": "quadratic", "params": {"center": 0.0}},
                                             "x": 1e200, "T": 1.0, "n_steps": 10})
    rc = main(["flow", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("metric-action-lab: resolvent failed at step 0: quadratic value overflows at (")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("base", ["start", "csv_node"])
def test_cli_gamma_positive_with_an_overflowing_action_exits_2_with_one_line(tmp_path, capsys, base):
    # finite nodes, but the target's kinetic term overflows a float: from
    # x0 = 1e200 the squared speed, at a node of 1e308 the speed itself
    cfg = {"space": {"kind": "euclidean", "dim": 1},
           "family": {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}},
           "x0": 0.0, "x1": 1.0, "h_list": [2, 4], "base_curve": {"type": "geodesic", "N": 8}}
    if base == "start":
        cfg["x0"] = 1e200
    else:
        curve = tmp_path / "curve.csv"
        curve.write_text("t,coord_0\n0.0,0.0\n0.5,1e308\n1.0,1.0\n")
        cfg["base_curve"] = {"type": "csv", "path": str(curve)}
    rc = main(["gamma", "positive", "--config", write_json(tmp_path / "cfg.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    want = {"start": "the kinetic term of the action overflows",
            "csv_node": "the metric speed overflows between nodes 0 and 1"}[base]
    assert err == f"metric-action-lab: {want}\n"
    assert not (tmp_path / "gamma_positive.json").exists()


def test_cli_gamma_liminf(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "space": {"kind": "euclidean", "dim": 1},
            "family": {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}},
            "x0": 0.0,
            "x1": 1.0,
            "h_list": [32, 64],
            "base_curve": {"type": "geodesic", "N": 32},
            "liminf": {"tau_law": "1/(h*h)"},
        },
    )
    rc = main(["gamma", "liminf", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0


# x0_law fails at h=8 (positive, recovery), tau_law at h=16 (liminf)
_FAILING_INDEX = dict(_HALF_LINE_X0_LAW, x0_law="0.5 + 1/(h-8)", h_list=[4, 8, 16],
                      base_curve={"type": "geodesic", "N": 8}, liminf={"tau_law": "1/(16-h)"})


def test_cli_gamma_liminf_keeps_a_failing_index_in_its_row(tmp_path):
    rc = main(["gamma", "liminf", "--config", write_json(tmp_path / "cfg.json", _FAILING_INDEX),
               "--out", str(tmp_path)])
    assert rc == 1
    payload = json.loads((tmp_path / "gamma_liminf.json").read_text())
    assert payload["verdict"] == "Inconclusive"
    rows = {row["h"]: row for row in payload["rows"]}
    assert list(rows) == [4, 8, 16]
    for h in (4, 8):
        assert "error" not in rows[h] and math.isfinite(rows[h]["theta_h"])
    assert "law '1/(16-h)' fails at h=16" in rows[16]["error"]
    assert [rows[16][k] for k in ("theta_h", "difference", "d_inf")] == ["nan"] * 3
    assert math.isfinite(rows[16]["theta_limit"])


def test_cli_recovery_keeps_a_failing_index_in_its_row(tmp_path):
    rc = main(["recovery", "--config", write_json(tmp_path / "cfg.json", _FAILING_INDEX),
               "--out", str(tmp_path)])
    assert rc == 1
    summary = json.loads((tmp_path / "recovery_summary.json").read_text())["h"]
    assert list(summary) == ["16", "4", "8"]
    assert list(summary["8"]) == ["error"] and "law '0.5 + 1/(h-8)' fails at h=8" in summary["8"]["error"]
    for h in (4, 16):
        assert "pieces" in summary[str(h)] and (tmp_path / f"recovery_h{h}.csv").exists()
    assert not (tmp_path / "recovery_h8.csv").exists()


def test_cli_gamma_liminf_rejects_a_seed(tmp_path, capsys):
    # no experiment draws a random number, so a config seed would change nothing
    cfg = dict(_HALF_LINE_X0_LAW, x0_law="0.5 + 1/h", h_list=[8, 16], seed=7,
               base_curve={"type": "geodesic", "N": 8})
    rc = main(["gamma", "liminf", "--config", write_json(tmp_path / "cfg.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "metric-action-lab: unknown config key 'seed'\n"


_ZERO_E1 = {"space": {"kind": "euclidean", "dim": 1}, "family": {"name": "zero"}, "x0": 0.0, "x1": 1.0,
            "h_list": [2, 4], "base_curve": {"type": "geodesic", "N": 8}}


@pytest.mark.parametrize("command", [["gamma", "positive"], ["gamma", "liminf"], ["recovery"]],
                         ids=["positive", "liminf", "recovery"])
@pytest.mark.parametrize(
    "liminf, message",
    [
        ({"tau_law": True, "slack": "big"}, "config key 'slack' must be a finite number, got 'big'"),
        ({"tau_law": True}, "law True is not a number or a string"),
        ({"tail_from": 2.5}, "config key 'tail_from' must be an integer, got 2.5"),
    ],
    ids=["slack_and_tau_law", "tau_law", "tail_from"],
)
def test_cli_reads_the_liminf_section_with_the_config(tmp_path, capsys, command, liminf, message):
    # every command that takes an experiment config checks its liminf values,
    # not only ``gamma liminf``, and before any curve is built
    path = write_json(tmp_path / "cfg.json", dict(_ZERO_E1, liminf=liminf))
    rc = main(command + ["--config", path, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"metric-action-lab: {message}\n"


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        (["gamma", "example2"], {"h_list": [4], "with_optimizer": False, "mode": "nonsense", "family": 5,
                                 "base_curve": {"type": "bogus", "nope": 1}, "liminf": {"zzz": 1}}, "mode"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "with_optimizer": "maybe"}, "with_optimizer"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "liminf": {"zzz": 1}}, "zzz"),
    ],
    ids=["example2_experiment_keys", "positive_with_optimizer", "positive_liminf_key"],
)
def test_cli_rejects_keys_the_command_never_reads(tmp_path, capsys, command, cfg, key):
    path = write_json(tmp_path / "cfg.json", cfg)
    rc = main(command + ["--config", path, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"metric-action-lab: unknown config key {key!r}") and err.count("\n") == 1


_E3 = {"space": {"kind": "euclidean", "dim": 3}, "family": {"name": "zero"}, "x0": [0, 0, 0],
       "x1": [1, 1, 1], "x0_law": "1/h", "h_list": [2, 4], "base_curve": {"type": "geodesic", "N": 8}}
_FLOW = {"space": {"kind": "euclidean", "dim": 1}, "functional": {"name": "zero"}, "x": 1.0}


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "discretisation": {"N": 8}},
         "unknown config key 'discretisation'"),
        (["recovery"], {**_HALF_LINE_X0_LAW, "discretisation": {"N": 8}},
         "unknown config key 'discretisation'"),
        (["gamma", "example2"], {"h_list": [4], "discretization": {"n_certficate": 8}},
         "unknown config key 'n_certficate'; did you mean 'n_certificate'?"),
        (["gamma", "liminf"], {**_HALF_LINE_X0_LAW, "liminf": {"tau": "1/h"}},
         "unknown config key 'tau'; did you mean 'tau_law'?"),
        (["flow"], {**_FLOW, "n_step": 30}, "unknown config key 'n_step'; did you mean 'n_steps'?"),
        (["action"], {"space": {"kind": "half_line"}, "functional": {"name": "zero"}, "curve": "c.csv",
                      "x0": 0.0, "x1": 1.0}, "unknown config key 'curve'; did you mean 'curve_csv'?"),
        (["gamma", "positive"], _E3, "config key 'x0_law' must give one law per coordinate (3), got 1"),
        (["recovery"], _E3, "config key 'x0_law' must give one law per coordinate (3), got 1"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "x0_law": True}, "law True is not a number or a string"),
        (["recovery"], {**_HALF_LINE_X0_LAW, "x0_law": True}, "law True is not a number or a string"),
        (["gamma", "example1"], {"h_list": [4], "eps_law": False}, "law False is not a number or a string"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "family": {"name": "zero", "scale_law": True}},
         "law True is not a number or a string"),
        (["gamma", "liminf"], {**_HALF_LINE_X0_LAW, "liminf": {"tau_law": True}},
         "law True is not a number or a string"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "base_curve": {"type": "minimize_action", "N": -5}},
         "config key 'N' must be at least 1, got -5"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "base_curve": {"type": "geodesic", "N": 0}},
         "config key 'N' must be at least 1, got 0"),
        (["gamma", "example2"], {"h_list": [4], "discretization": {"n_certificate": -3}},
         "config key 'n_certificate' must be at least 1, got -3"),
        (["gamma", "example2"], {"h_list": [4], "discretization": {"n_certificate": 0}},
         "config key 'n_certificate' must be at least 1, got 0"),
        # params are checked per catalogue functional, space keys per kind
        (["flow"], {"space": {"kind": "half_line"}, "functional": {"name": "linear", "params": {"lam": 2.0}},
                    "x": 1.0}, "unknown config key 'lam'; the quadratic functional reads it"),
        (["flow"], {**_FLOW, "space": {"kind": "half_line", "dim": 4}},
         "unknown config key 'dim'; the euclidean space reads it"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "space": {"kind": "half_line", "dim": 4}},
         "unknown config key 'dim'; the euclidean space reads it"),
        (["flow"], {**_FLOW, "functional": {"name": "quadratic", "params": {"lamb": 2.0}}},
         "unknown config key 'lamb'; did you mean 'lam'?"),
        (["flow"], {**_FLOW, "space": {"kind": "tripod", "edge_length": [1, 1, 1]}},
         "unknown config key 'edge_length'; did you mean 'edge_lengths'?"),
        # family keys are checked per family name
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "family": {"name": "example1", "params": {"eps": 0.5}}},
         "unknown config key 'params'; the catalogue family reads it"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "family": {"name": "quadratic", "eps_law": "1"}},
         "unknown config key 'eps_law'; the example1 family reads it"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "base_curve": {"type": "bogus"}},
         "unknown base curve type 'bogus'"),
        (["gamma", "positive"], {**_HALF_LINE_X0_LAW, "family": {"name": "quadratic", "limit": {"name": "zero"},
                                                               "scale_limit": 2.0}},
         "a family takes 'limit' or 'scale_limit', not both"),
    ],
    ids=["discretisation_positive", "discretisation_recovery", "n_certficate", "tau", "n_step", "curve",
         "x0_law_count_positive", "x0_law_count_recovery", "x0_law_true_positive",
         "x0_law_true_recovery", "eps_law_false", "scale_law_true", "tau_law_true", "N_negative",
         "base_curve_N_zero", "n_certificate_negative", "n_certificate_zero", "linear_lam",
         "half_line_dim_flow", "half_line_dim_positive", "quadratic_lamb", "tripod_edge_length",
         "example1_params", "catalogue_eps_law", "base_curve_type", "limit_and_scale_limit"],
)
def test_cli_rejects_config_when_read(tmp_path, capsys, command, cfg, message):
    path = write_json(tmp_path / "cfg.json", cfg)
    rc = main(command + ["--config", path, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"metric-action-lab: {message}\n"


_VANISHING = {"space": {"kind": "half_line"}, "family": {"name": "example1"}, "x0": 1.0, "x1": 2.0,
              "h_list": [2], "mode": "vanishing", "eps_law": "pow(4, -h)",
              "base_curve": {"type": "geodesic", "N": 8}}
_QUADRATIC_HL = {"name": "quadratic", "params": {"center": 0.0}}


def _unread_in_modes(name, extra, key):
    return [(f"{m}_{name}", "positive", {**_HALF_LINE_X0_LAW, "mode": m, **extra}, key)
            for m in ("resolvent", "flow")]


# keys that earlier versions accepted and no reader of the config read
_UNREAD = [
    *_unread_in_modes("eps_law", {"eps_law": "1/h"}, "eps_law"),
    *_unread_in_modes("slope_cap", {"tolerances": {"slope_cap": 5.0}}, "slope_cap"),
    *_unread_in_modes("n_certificate", {"discretization": {"n_certificate": 64}}, "discretization"),
    *_unread_in_modes("N_beside_base_curve_N", {"base_curve": {"type": "geodesic", "N": 8},
                                                "discretization": {"N": 16}}, "discretization"),
    *_unread_in_modes("path_off_csv", {"base_curve": {"type": "minimize_action", "path": "c.csv"}}, "path"),
    *_unread_in_modes("N_of_csv", {"base_curve": {"type": "csv", "path": "c.csv", "N": 8}}, "N"),
    ("vanishing_scale_law", "positive", {**_VANISHING, "family": {**_QUADRATIC_HL, "scale_law": "2"}},
     "scale_law"),
    ("vanishing_limit", "positive", {**_VANISHING, "family": {**_QUADRATIC_HL, "limit": {"name": "zero"}}},
     "limit"),
    ("vanishing_scale_limit", "positive", {**_VANISHING, "family": {**_QUADRATIC_HL, "scale_limit": 2.0}},
     "scale_limit"),
    ("vanishing_example1_eps_law", "positive",
     {**_VANISHING, "family": {"name": "example1", "eps_law": "1/h"}}, "eps_law"),
    ("example1_N", "example1", {"h_list": [4], "discretization": {"N": 16}}, "N"),
    ("example1_d_inf_tol", "example1", {"h_list": [4], "tolerances": {"d_inf_tol": 0.1}}, "d_inf_tol"),
    ("example1_slope_cap", "example1", {"h_list": [4], "tolerances": {"slope_cap": 5.0}}, "slope_cap"),
    ("example2_d_inf_tol", "example2", {"h_list": [4], "tolerances": {"d_inf_tol": 0.1}}, "d_inf_tol"),
    ("example2_slope_cap", "example2", {"h_list": [4], "tolerances": {"slope_cap": 5.0}}, "slope_cap"),
]


@pytest.mark.parametrize("kind, cfg, key", [case[1:] for case in _UNREAD], ids=[case[0] for case in _UNREAD])
def test_keys_no_reader_reads_are_rejected(tmp_path, capsys, kind, cfg, key):
    message = f"unknown config key {key!r}"
    with pytest.raises(ConfigError) as info:
        if kind == "positive":
            ExperimentConfig.from_dict(cfg)
        else:
            certified_args(kind, cfg)
    assert str(info.value).startswith(message)
    rc = main(["gamma", kind, "--config", write_json(tmp_path / "cfg.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"metric-action-lab: {message}") and err.count("\n") == 1
