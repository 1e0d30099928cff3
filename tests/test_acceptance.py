"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else; every expected value comes
from an independent oracle (grid minimization, closed forms, RK4 shooting,
exact arithmetic) computed inside the test or frozen from one.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from metric_action_lab import euclidean, half_line, tripod
from metric_action_lab.curves import action, minimize_action
from metric_action_lab.flow import check_contraction, check_energy_identity, check_slope_bounds_along_flow, flow, slack
from metric_action_lab.functionals import (
    SupFormula,
    inverse_square,
    linear_half_line,
    quadratic,
    ramp,
    strip_closed_forms,
    zero_functional,
)
from metric_action_lab.harness import ExperimentConfig, Verdict, resolve_base_curve, run_example1, run_example2, run_positive
from metric_action_lab.proximal import (
    check_bound_chain,
    check_resolvent_identity,
    check_resolvent_lipschitz,
    check_tau_continuity,
    resolvent,
)
from metric_action_lab.spaces import random_point

HL = half_line()
E1 = euclidean(1)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def line_curve(space, n):
    ts = np.linspace(0.0, 1.0, n + 1)
    from metric_action_lab.curves import SampledCurve

    return SampledCurve(ts, [space.point(t) for t in ts], space)


def test_criterion_1_action_fidelity():
    curve = line_curve(E1, 4096)
    f = zero_functional(E1)
    t0 = time.perf_counter()
    av = action(curve, f, E1.point(0.0), E1.point(1.0))
    elapsed = time.perf_counter() - t0
    err = abs(av.total - 1.0)
    report(1, err <= 1e-6 and elapsed < 0.1,
           f"unit-segment action error {err:.2e}, runtime {elapsed * 1000:.1f} ms")


def test_criterion_2_example2_reproduction():
    t0 = time.perf_counter()
    rep = run_example2([4, 16, 64], n_certificate=1024, n_search=64)
    elapsed = time.perf_counter() - t0
    lower_ok = all(r["amgm_lower_bound"] >= 2.0 - 0.05 for r in rep.rows)
    upper_ok = all(r["optimizer_upper_bound"] >= 1.95 for r in rep.rows)
    target_ok = all(abs(r["theta_target"] - 1.0) <= 1e-6 for r in rep.rows)
    verdict_ok = rep.verdict is Verdict.VIOLATED
    report(
        2,
        lower_ok and upper_ok and target_ok and verdict_ok and elapsed < 30.0,
        f"certified >= {min(r['amgm_lower_bound'] for r in rep.rows):.4f}, "
        f"search floor {min(r['optimizer_upper_bound'] for r in rep.rows):.3f}, "
        f"target 1, verdict {rep.verdict.value}, runtime {elapsed:.1f} s",
    )


def test_criterion_3_example1_reproduction():
    t0 = time.perf_counter()
    rep = run_example1([100, 1000, 10000], n_certificate=1024, eps_law="1/h")
    elapsed = time.perf_counter() - t0
    bound_ok, slope_ok = True, True
    for row in rep.rows:
        seps = math.sqrt(row["eps"])
        two_segment_bound = 0.5 + (1.0 - 2.0 * seps) ** 2
        bound_ok &= row["certified_lower_bound"] >= two_segment_bound - 0.05
        expected_slope = 2.0 / seps
        slope_ok &= abs(row["slope_x0_closed"] - expected_slope) <= 0.01 * expected_slope
        slope_ok &= abs(row["slope_x0_sup"] - expected_slope) <= 0.01 * expected_slope
    report(
        3,
        bound_ok and slope_ok and rep.verdict is Verdict.VIOLATED and elapsed < 30.0,
        f"bounds hold for eps in {{1e-2,1e-3,1e-4}}, slopes within 1%, "
        f"verdict {rep.verdict.value}, runtime {elapsed:.1f} s",
    )


def test_criterion_4_resolvent_exactness():
    rng = np.random.default_rng(42)
    worst = 0.0
    for dim in (1, 2, 3, 4):
        sp = euclidean(dim)
        f = strip_closed_forms(quadratic(sp, sp.point(*([0.0] * dim)), 1.0))
        for _ in range(25):
            tau = float(rng.uniform(0.05, 0.8))
            x = random_point(sp, rng, scale=2.0)
            got = resolvent(f, sp, tau, x).point
            oracle = [c / (1.0 + tau) for c in x.coords]
            worst = max(worst, max(abs(a - b) for a, b in zip(got.coords, oracle)))
    report(4, worst <= 1e-8, f"max deviation from x/(1+tau) over 100 draws: {worst:.2e}")


def test_criterion_5_bound_chain_tolerances():
    rng = np.random.default_rng(7)
    spaces = [
        ("half_line", HL),
        ("euclidean2", euclidean(2)),
        ("tripod", tripod()),
        ("quantile3", __import__("metric_action_lab").quantile_1d(3)),
    ]
    worst_closed, worst_sup = -math.inf, -math.inf
    for name, sp in spaces:
        center = random_point(sp, rng)
        f = quadratic(sp, center, 1.0)
        sup_f = strip_closed_forms(f)
        sup_f.closed_form_prox = f.closed_form_prox
        for _ in range(100):
            tau = float(rng.uniform(0.05, 0.5))
            x = random_point(sp, rng)
            ch = check_bound_chain(f, sp, tau, x)
            worst_closed = max(worst_closed, ch.lower_residual, ch.upper_residual)
        for _ in range(100):
            tau = float(rng.uniform(0.05, 0.5))
            x = random_point(sp, rng)
            ch = check_bound_chain(sup_f, sp, tau, x, method=SupFormula(radius=6.0))
            worst_sup = max(worst_sup, ch.lower_residual, ch.upper_residual)
    report(
        5,
        worst_closed <= 1e-6 and worst_sup <= 1e-3,
        f"chain residuals: closed-form {worst_closed:.2e} (<=1e-6), "
        f"sup-formula {worst_sup:.2e} (<=1e-3)",
    )


def test_criterion_6_resolvent_validators():
    rng = np.random.default_rng(11)
    worst_flat = -math.inf
    for sp in (E1, HL):
        center = sp.point(0.5)
        f = quadratic(sp, center, 1.0)
        for _ in range(100):
            tau = float(rng.uniform(0.05, 0.5))
            nu = tau * float(rng.uniform(0.2, 0.9))
            x, y = random_point(sp, rng), random_point(sp, rng)
            worst_flat = max(
                worst_flat,
                check_resolvent_lipschitz(f, sp, tau, x, y),
                check_tau_continuity(f, sp, nu, tau, x),
                check_resolvent_identity(f, sp, nu, tau, x),
            )
    tp = tripod()
    ftp = strip_closed_forms(quadratic(tp, tp.point(0, 0.7), 1.0))
    worst_tp = -math.inf
    for _ in range(100):
        tau = float(rng.uniform(0.05, 0.5))
        nu = tau * float(rng.uniform(0.3, 0.9))
        x, y = random_point(tp, rng), random_point(tp, rng)
        worst_tp = max(
            worst_tp,
            check_resolvent_lipschitz(ftp, tp, tau, x, y),
            check_tau_continuity(ftp, tp, nu, tau, x),
            check_resolvent_identity(ftp, tp, nu, tau, x),
        )
    report(
        6,
        worst_flat <= 1e-6 and worst_tp <= 1e-4,
        f"validators: flat spaces {worst_flat:.2e} (<=1e-6), tripod {worst_tp:.2e} (<=1e-4)",
    )


def test_criterion_7_flow_order():
    f = quadratic(E1, E1.point(0.0), 1.0)
    errors = []
    for n in (250, 500, 1000):
        traj = flow(f, E1, E1.point(1.0), 1.0, n)
        errors.append(max(abs(p.coords[0] - math.exp(-t)) for t, p in zip(traj.times, traj.points)))
    ratio_ok = all(a / b == pytest.approx(2.0, rel=0.2) for a, b in zip(errors, errors[1:]))
    report(
        7,
        ratio_ok and errors[-1] <= 2e-3,
        f"sup errors {['%.2e' % e for e in errors]}, halving within 20%",
    )


def test_criterion_8_evi_suite():
    f = quadratic(E1, E1.point(0.0), 1.0)
    dt = 1e-3
    contraction = check_contraction(f, E1, E1.point(1.0), E1.point(-0.5), 1.0, 1000)
    traj = flow(f, E1, E1.point(1.0), 1.0, 1000)
    energy = check_energy_identity(traj, f, E1).relative_error
    cases = [
        (f, E1, E1.point(1.0), 1.0),
        (zero_functional(E1), E1, E1.point(1.0), 1.0),
        (linear_half_line(2.0), HL, HL.point(1.0), 0.25),
        (ramp(4.0), HL, HL.point(0.0), 0.05),
        (inverse_square(0.5), HL, HL.point(1.0), 0.5),
    ]
    worst_chain = -math.inf
    for g, sp, x, t in cases:
        lo, hi = check_slope_bounds_along_flow(g, sp, x, t, max(int(t / dt), 10))
        worst_chain = max(worst_chain, lo, hi)
    report(
        8,
        contraction <= 1e-3 and energy <= 0.02 and worst_chain <= slack(dt),
        f"contraction {contraction:.2e} (<=1e-3), energy rel err {energy:.2%} (<=2%), "
        f"slope-chain {worst_chain:.2e} (<= {slack(dt):.2g})",
    )


def _positive_config():
    return ExperimentConfig.from_dict(
        {
            "space": {"kind": "euclidean", "dim": 1},
            "family": {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}},
            "x0": 0.0,
            "x1": 1.0,
            "x0_law": "1/h",
            "x1_law": "1",
            "h_list": [8, 16, 32, 64],
            "mode": "resolvent",
            "base_curve": {"type": "minimize_action", "N": 64},
            "tolerances": {"margin": 0.05, "d_inf_tol": 0.02},
        }
    )


def test_criterion_9_positive_gamma_experiment():
    from tests.test_curves import shooting_oracle_value

    cfg = _positive_config()
    gamma, _ = resolve_base_curve(cfg)
    theta_star = action(gamma, cfg.family.limit, cfg.x0, cfg.x1).total
    oracle, _, _ = shooting_oracle_value()
    oracle_ok = abs(theta_star - oracle) <= 1e-3
    rep = run_positive(cfg)
    last = rep.rows[-1]
    gaps = [r["gap"] for r in rep.rows]
    dinfs = [r["d_inf"] for r in rep.rows]
    mono = all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:])) and all(
        b <= a + 1e-9 for a, b in zip(dinfs, dinfs[1:])
    )
    report(
        9,
        oracle_ok and last["gap"] <= 0.05 and last["d_inf"] <= 0.02 and mono
        and rep.verdict is Verdict.CONSISTENT,
        f"target action {theta_star:.6f} vs shooting oracle {oracle:.6f}; "
        f"gap(64)={last['gap']:.4f} (<=0.05), d_inf(64)={last['d_inf']:.4f} (<=0.02), "
        f"monotone after h=8: {mono}",
    )


def test_criterion_10_determinism_across_threads(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "h_list": [4, 16, 64],
                "discretization": {"n_certificate": 512, "N": 32},
                "with_optimizer": False,
            }
        )
    )
    outputs = {}
    for threads in ("1", "4"):
        out_dir = tmp_path / f"t{threads}"
        env = dict(os.environ, METRIC_ACTION_LAB_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "metric_action_lab.cli", "gamma", "example2",
             "--config", str(cfg_path), "--out", str(out_dir)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = (
            (out_dir / "gamma_example2.csv").read_bytes(),
            (out_dir / "gamma_example2.json").read_bytes(),
        )
    same = outputs["1"] == outputs["4"]
    report(10, same, "byte-identical CSV and JSON under thread caps 1 and 4")
