import json
import math

import numpy as np
import pytest

from metric_action_lab import euclidean, half_line
from metric_action_lab.curves import action, geodesic_curve
from metric_action_lab.errors import ConfigError
from metric_action_lab.functionals import FunctionalFamily, quadratic, ramp, zero_functional
from metric_action_lab.harness import (
    ExperimentConfig,
    ExperimentReport,
    Verdict,
    crossing_lower_bound,
    emit_report,
    family_from_config,
    liminf_probe,
    parallel_map,
    run_example1,
    run_example2,
    run_positive,
    space_from_config,
)
from metric_action_lab.laws import parse_law
from metric_action_lab.proximal import resolvent

HL = half_line()
E1 = euclidean(1)


# --------------------------------------------------------------------------
# laws
# --------------------------------------------------------------------------


def test_parse_law_arithmetic():
    assert parse_law("1/h")(4) == 0.25
    assert parse_law("sqrt(h)")(16) == 4.0
    assert parse_law("pow(4, -h)")(2) == pytest.approx(1 / 16)
    assert parse_law("exp(0) + 2*h - h/2")(2) == pytest.approx(4.0)
    assert parse_law("-(h - 1)")(3) == -2.0
    assert parse_law(0.25)(99) == 0.25


def test_parse_law_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_law("__import__('os')")
    with pytest.raises(ConfigError):
        parse_law("sin(h)")
    with pytest.raises(ConfigError):
        parse_law("h h")


# --------------------------------------------------------------------------
# config plumbing
# --------------------------------------------------------------------------


def test_space_from_config_kinds():
    assert space_from_config({"kind": "euclidean", "dim": 3}).dim == 3
    assert space_from_config({"kind": "half_line"}).kind.value == "half_line"
    assert space_from_config({"kind": "tripod"}).edge_lengths == (1.0, 1.0, 1.0)
    assert space_from_config({"kind": "quantile_1d", "grid_size": 4}).grid_size == 4
    with pytest.raises(ConfigError):
        space_from_config({"kind": "hyperbolic"})


def test_family_from_config_scaled():
    fam = family_from_config(E1, {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0},
                                  "scale_law": "1 + 1/h"})
    assert fam.member(1).lam == pytest.approx(2.0)
    assert fam.limit.lam == pytest.approx(1.0)


def test_experiment_config_from_dict():
    cfg = ExperimentConfig.from_dict(
        {
            "space": {"kind": "euclidean", "dim": 1},
            "family": {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}},
            "x0": 0.0,
            "x1": 1.0,
            "x0_law": "1/h",
            "x1_law": "1",
            "h_list": [2, 4],
            "seed": 7,
        }
    )
    assert cfg.x0_seq(4).coords == (0.25,)
    assert cfg.x1_seq(4).coords == (1.0,)
    assert cfg.seed == 7


# --------------------------------------------------------------------------
# positive experiments
# --------------------------------------------------------------------------


def quadratic_positive_config(h_list=(8, 16, 32, 64)):
    return ExperimentConfig.from_dict(
        {
            "space": {"kind": "euclidean", "dim": 1},
            "family": {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}},
            "x0": 0.0,
            "x1": 1.0,
            "x0_law": "1/h",
            "x1_law": "1",
            "h_list": list(h_list),
            "mode": "resolvent",
            "base_curve": {"type": "minimize_action", "N": 64},
            "discretization": {"N": 64},
            "tolerances": {"margin": 0.05, "d_inf_tol": 0.02},
        }
    )


@pytest.fixture(scope="module")
def quadratic_positive_report():
    return run_positive(quadratic_positive_config())


def test_positive_quadratic_consistent(quadratic_positive_report):
    rep = quadratic_positive_report
    assert rep.verdict is Verdict.CONSISTENT
    last = rep.rows[-1]
    assert last["gap"] <= 0.05
    assert last["d_inf"] <= 0.02


def test_positive_quadratic_monotone_tail(quadratic_positive_report):
    rows = quadratic_positive_report.rows
    gaps = [r["gap"] for r in rows]
    dinfs = [r["d_inf"] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(dinfs, dinfs[1:]))


def test_positive_zero_family_exact():
    cfg = ExperimentConfig.from_dict(
        {
            "space": {"kind": "euclidean", "dim": 1},
            "family": {"name": "zero"},
            "x0": 0.0,
            "x1": 1.0,
            "h_list": [2, 4, 8],
            "base_curve": {"type": "geodesic", "N": 32},
        }
    )
    rep = run_positive(cfg)
    assert rep.verdict is Verdict.CONSISTENT
    for row in rep.rows:
        assert row["theta_h"] == pytest.approx(row["theta_target"], abs=1e-12)
        assert row["d_inf"] <= 1e-12


def test_positive_quadratic_flow_mode():
    cfg = quadratic_positive_config()
    cfg.mode = __import__("metric_action_lab").RecoveryMode.FLOW
    rep = run_positive(cfg)
    assert rep.verdict is Verdict.CONSISTENT
    assert rep.rows[-1]["gap"] <= 0.05
    assert rep.rows[-1]["d_inf"] <= 0.02


def test_positive_vanishing_inverse_square():
    # scaled inverse-square family with fixed interior endpoints: the limit
    # potential vanishes and actions approach the kinetic-only value
    cfg = ExperimentConfig.from_dict(
        {
            "space": {"kind": "half_line"},
            "family": {"name": "example1"},
            "x0": 1.0,
            "x1": 2.0,
            "x0_law": "1",
            "x1_law": "2",
            "h_list": [1, 2, 3, 4, 5],
            "mode": "vanishing",
            "eps_law": "pow(4, -h)",
            "base_curve": {"type": "geodesic", "N": 64},
            "tolerances": {"margin": 0.05, "d_inf_tol": 0.05},
        }
    )
    rep = run_positive(cfg)
    assert rep.rows[-1]["theta_h"] == pytest.approx(1.0, abs=0.05)
    assert rep.verdict is Verdict.CONSISTENT


# --------------------------------------------------------------------------
# certified counterexamples
# --------------------------------------------------------------------------


def test_crossing_lower_bound_constant_potential():
    xs = np.linspace(0.0, 0.25, 257)
    got = crossing_lower_bound(xs, lambda x: 4.0 if x < 0.25 else 0.0)
    assert got == pytest.approx(2.0 - 2.0 / 256, rel=1e-12)


def test_example1_report_bounds_and_slopes():
    rep = run_example1([100, 1000, 10000], n_certificate=512)
    assert rep.verdict is Verdict.VIOLATED
    for row in rep.rows:
        eps = row["eps"]
        seps = math.sqrt(eps)
        two_segment_bound = 0.5 + (1 - 2 * seps) ** 2
        assert row["coarse_lower_bound"] == pytest.approx(two_segment_bound, rel=1e-9)
        assert row["certified_lower_bound"] >= two_segment_bound - 0.05
        assert row["certified_lower_bound"] > row["theta_target"] + 0.05
        assert row["slope_x0_closed"] == pytest.approx(2.0 / seps, rel=1e-9)
        assert row["slope_x0_sup"] == pytest.approx(2.0 / seps, rel=1e-2)
    assert rep.rows[0]["certified_lower_bound"] >= 0.5 + 0.8**2 - 0.05  # eps = 1e-2
    assert rep.witness is not None


def test_example1_bound_limit_value():
    # as eps -> 0 the two-segment bound approaches 1/2 + 1 = 3/2
    rep = run_example1([10**6], n_certificate=512)
    assert rep.rows[0]["coarse_lower_bound"] == pytest.approx(1.5, abs=1e-2)


def test_example2_report_certificate():
    rep = run_example2([4, 16, 64], n_certificate=1024, with_optimizer=False)
    assert rep.verdict is Verdict.VIOLATED
    for row in rep.rows:
        assert row["amgm_lower_bound"] >= 2.0 - 0.05
        assert row["amgm_lower_bound"] <= 2.0
        assert row["slope_x0"] == row["h"]
        assert row["theta_target"] == pytest.approx(1.0, abs=1e-6)
    # the certificate is h-independent
    vals = {round(r["amgm_lower_bound"], 9) for r in rep.rows}
    assert len(vals) == 1


def test_example2_optimizer_never_beats_certificate():
    rep = run_example2([4, 16], n_certificate=256, n_search=48)
    for row in rep.rows:
        assert row["optimizer_upper_bound"] >= 1.95
        assert row["optimizer_upper_bound"] >= row["amgm_lower_bound"] - 1e-9


def test_verdict_soundness_gate():
    # violation is only declared when the certificate clears target + margin
    rep = run_example2([4], n_certificate=128, with_optimizer=False, margin=5.0)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.witness is None


def test_example_runs_with_empty_h_list(tmp_path):
    rep = run_example1([], n_certificate=64)
    assert rep.verdict is Verdict.INCONCLUSIVE
    csv_path, _ = emit_report(rep, tmp_path, "empty1")
    assert csv_path.read_text().count("\n") == 1  # header only


# --------------------------------------------------------------------------
# liminf probe
# --------------------------------------------------------------------------


def test_liminf_constant_sequence_equality():
    f = quadratic(E1, E1.point(0.0), 1.0)
    fam = FunctionalFamily(member=lambda h: f, limit=f)
    gamma = geodesic_curve(E1, E1.point(0.0), E1.point(1.0), 64)
    rep = liminf_probe(fam, {h: gamma for h in (1, 2, 4)}, gamma)
    assert rep.verdict is Verdict.CONSISTENT
    for row in rep.rows:
        assert row["difference"] == pytest.approx(0.0, abs=1e-12)


def test_liminf_resolvent_images_quadratic():
    f = quadratic(E1, E1.point(0.0), 1.0)
    fam = FunctionalFamily(member=lambda h: f, limit=f)
    gamma = geodesic_curve(E1, E1.point(0.0), E1.point(1.0), 64)
    curves = {
        h: gamma.mapped(lambda p, _h=h: resolvent(f, E1, 1.0 / _h, p).point)
        for h in (8, 16, 32, 64)
    }
    rep = liminf_probe(fam, curves, gamma, tail_from=64, slack=0.05)
    assert rep.verdict is Verdict.CONSISTENT
    # closed form: the image of the curve scales by 1/(1+tau), so its action
    # undershoots by theta (1 - 1/(1+tau)^2), vanishing along the tail
    for row in rep.rows:
        tau = 1.0 / row["h"]
        expect = row["theta_limit"] * (1.0 / (1.0 + tau) ** 2 - 1.0)
        assert row["difference"] == pytest.approx(expect, abs=1e-3)
    dinfs = [row["d_inf"] for row in rep.rows]
    assert all(b <= a for a, b in zip(dinfs, dinfs[1:]))


def test_liminf_ramp_family_straight_curve():
    fam = FunctionalFamily(member=lambda h: ramp(float(h)), limit=zero_functional(HL))
    gamma = geodesic_curve(HL, HL.point(0.0), HL.point(1.0), 256)
    rep = liminf_probe(fam, {h: gamma for h in (4, 8, 16)}, gamma)
    assert rep.verdict is Verdict.CONSISTENT
    for row in rep.rows:
        # potential toll of the straight curve under the ramp: about h
        assert row["difference"] == pytest.approx(row["h"], rel=0.2)


# --------------------------------------------------------------------------
# persistence and determinism
# --------------------------------------------------------------------------


def test_emit_report_empty_rows(tmp_path):
    rep = ExperimentReport(columns=["h", "x"], rows=[], verdict=Verdict.INCONCLUSIVE)
    csv_path, json_path = emit_report(rep, tmp_path, "empty")
    assert csv_path.read_text() == "h,x\n"
    payload = json.loads(json_path.read_text())
    assert payload["verdict"] == "Inconclusive"
    assert payload["schema"] == 1


def test_emit_report_handles_infinities(tmp_path):
    rep = ExperimentReport(
        columns=["h", "v"],
        rows=[{"h": 1, "v": math.inf}],
        verdict=Verdict.INCONCLUSIVE,
    )
    csv_path, json_path = emit_report(rep, tmp_path, "inf")
    assert "inf" in csv_path.read_text()
    payload = json.loads(json_path.read_text())  # must stay valid json
    assert payload["rows"][0]["v"] == "inf"


def test_emit_report_byte_stable(tmp_path):
    rep1 = run_example2([4, 16], n_certificate=128, with_optimizer=False)
    rep2 = run_example2([4, 16], n_certificate=128, with_optimizer=False)
    p1 = emit_report(rep1, tmp_path / "a", "r")
    p2 = emit_report(rep2, tmp_path / "b", "r")
    assert p1[0].read_bytes() == p2[0].read_bytes()
    assert p1[1].read_bytes() == p2[1].read_bytes()


def test_parallel_map_matches_serial():
    items = list(range(20))
    fn = lambda x: x * x + 1
    assert parallel_map(fn, items) == [fn(x) for x in items]


def test_example2_thread_count_invariance(monkeypatch, tmp_path):
    monkeypatch.setenv("METRIC_ACTION_LAB_THREADS", "1")
    r1 = run_example2([4, 16, 64], n_certificate=256, with_optimizer=False)
    monkeypatch.setenv("METRIC_ACTION_LAB_THREADS", "8")
    r2 = run_example2([4, 16, 64], n_certificate=256, with_optimizer=False)
    a = emit_report(r1, tmp_path / "t1", "r")
    b = emit_report(r2, tmp_path / "t8", "r")
    assert a[0].read_bytes() == b[0].read_bytes()
    assert a[1].read_bytes() == b[1].read_bytes()
