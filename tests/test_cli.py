import json
import math

import pytest

from metric_action_lab.cli import main
from metric_action_lab.curves import curve_to_csv, geodesic_curve
from metric_action_lab.errors import ConfigError
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


def test_cli_validate_flow(tmp_path):
    rc = main(["validate", "flow", "--out", str(tmp_path)])
    assert rc == 0


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


def test_cli_recovery_vanishing_without_eps_law(tmp_path):
    # the same config gives a ConfigError row under `gamma positive`
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
    with pytest.raises(ConfigError, match="eps_law"):
        main(["recovery", "--config", cfg, "--out", str(tmp_path)])


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
