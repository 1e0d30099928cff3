import json
import math
from pathlib import Path

import pytest

from metric_action_lab.cli import main
from metric_action_lab.curves import curve_to_csv, geodesic_curve
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
