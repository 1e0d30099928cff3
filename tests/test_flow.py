import importlib
import math

import numpy as np
import pytest

from metric_action_lab import curves, distance, euclidean, half_line
from metric_action_lab.errors import DomainError
from metric_action_lab.flow import (
    check_contraction,
    check_energy_identity,
    check_evi,
    check_slope_bounds_along_flow,
    flow,
    flow_times,
    slack,
)
from metric_action_lab.functionals import (
    descending_slope,
    evaluate,
    inverse_square,
    linear_half_line,
    quadratic,
    ramp,
    zero_functional,
)
from metric_action_lab.proximal import resolvent

FLOW = importlib.import_module("metric_action_lab.flow")  # the package's ``flow`` is the function
HL = half_line()
E1 = euclidean(1)
QUAD = quadratic(E1, E1.point(0.0), 1.0)


def test_flow_quadratic_approximates_exponential():
    traj = flow(QUAD, E1, E1.point(1.0), 1.0, 1000)
    assert traj.end.coords[0] == pytest.approx(math.exp(-1.0), abs=1e-3)


def test_flow_order_of_convergence():
    # sup error vs the exact exponential halves when the step halves
    errors = []
    for n in (250, 500, 1000):
        traj = flow(QUAD, E1, E1.point(1.0), 1.0, n)
        err = max(
            abs(p.coords[0] - math.exp(-t)) for t, p in zip(traj.times, traj.points)
        )
        errors.append(err)
    assert errors[2] <= 2e-3
    for a, b in zip(errors, errors[1:]):
        assert a / b == pytest.approx(2.0, rel=0.2)


def test_flow_zero_functional_is_constant():
    traj = flow(zero_functional(E1), E1, E1.point(0.7), 1.0, 50)
    assert all(p.coords[0] == 0.7 for p in traj.points)


def test_flow_linear_halfline_exact_hitting():
    f = linear_half_line(2.0)
    traj = flow(f, HL, HL.point(1.0), 1.0, 1000)
    for t, p in zip(traj.times, traj.points):
        assert p.coords[0] == pytest.approx(max(1.0 - 2.0 * t, 0.0), abs=1e-12)
    assert traj.end.coords[0] == 0.0


def test_flow_f_values_nonincreasing(rng):
    for f, sp, x in (
        (QUAD, E1, E1.point(2.0)),
        (ramp(4.0), HL, HL.point(0.05)),
        (inverse_square(0.5), HL, HL.point(0.8)),
    ):
        traj = flow(f, sp, x, 0.5, 200)
        diffs = np.diff([evaluate(f, p) for p in traj.points])
        assert np.max(diffs) <= 1e-10


def test_flow_rejects_bad_parameters():
    with pytest.raises(DomainError):
        flow(QUAD, E1, E1.point(1.0), 0.0, 10)
    with pytest.raises(DomainError):
        flow(QUAD, E1, E1.point(1.0), 1.0, 0)


def test_flow_times_nonuniform_grid():
    times = np.concatenate(([0.0], np.geomspace(1e-4, 1.0, 30)))
    traj = flow_times(QUAD, E1, E1.point(1.0), times)
    assert len(traj.points) == len(times)
    assert traj.end.coords[0] == pytest.approx(math.exp(-1.0), abs=5e-2)


def test_flow_steps_reach_the_resolvent_as_python_floats(monkeypatch):
    # a numpy step would make every line-objective value and Brent iterate
    # downstream a numpy scalar
    steps = []

    def spy(f, space, tau, x):
        steps.append(tau)
        return resolvent(f, space, tau, x)

    monkeypatch.setattr(FLOW, "resolvent", spy)
    flow(QUAD, E1, E1.point(1.0), 1.0, 4)
    flow_times(QUAD, E1, E1.point(1.0), np.geomspace(1e-3, 1.0, 5))
    assert len(steps) == 8
    assert all(type(tau) is float for tau in steps)


def test_evi_quadratic_at_minimizer():
    dt = 1e-3
    traj = flow(QUAD, E1, E1.point(1.0), 1.0, 1000)
    r = check_evi(traj, QUAD, QUAD.lam, E1.point(0.0), E1)
    assert r <= 5 * dt


def test_evi_zero_functional():
    traj = flow(zero_functional(E1), E1, E1.point(1.0), 1.0, 100)
    r = check_evi(traj, zero_functional(E1), 0.0, E1.point(0.3), E1)
    assert r <= 1e-12


def test_evi_linear_halfline():
    f = linear_half_line(2.0)
    dt = 1e-3
    traj = flow(f, HL, HL.point(1.0), 0.45, 450)  # stop before the hitting time
    r = check_evi(traj, f, 0.0, HL.point(0.0), HL)
    assert r <= 5 * dt


def test_contraction_quadratic_rate():
    r = check_contraction(QUAD, E1, E1.point(1.0), E1.point(-0.5), 1.0, 1000)
    assert r <= 1e-3
    # equality case: the discrete flow contracts slightly faster than e^{-t}
    a = flow(QUAD, E1, E1.point(1.0), 1.0, 1000)
    b = flow(QUAD, E1, E1.point(-0.5), 1.0, 1000)
    d_end = distance(E1, a.end, b.end)
    assert d_end == pytest.approx(1.5 * math.exp(-1.0), rel=2e-3)


def test_contraction_same_start_is_zero():
    assert check_contraction(QUAD, E1, E1.point(1.0), E1.point(1.0), 1.0, 100) <= 0.0


def test_contraction_catalogue_at_fine_step():
    cases = [
        (zero_functional(E1), E1, E1.point(0.0), E1.point(1.0)),
        (QUAD, E1, E1.point(1.0), E1.point(-0.5)),
        (linear_half_line(2.0), HL, HL.point(1.0), HL.point(0.3)),
        (ramp(4.0), HL, HL.point(0.0), HL.point(0.4)),
        (inverse_square(0.5), HL, HL.point(0.7), HL.point(1.5)),
    ]
    for f, sp, x0, x1 in cases:
        assert check_contraction(f, sp, x0, x1, 1.0, 1000) <= 1e-3


def test_energy_identity_quadratic():
    traj = flow(QUAD, E1, E1.point(1.0), 1.0, 1000)
    rep = check_energy_identity(traj, QUAD, E1)
    drop_expect = 0.5 * (1.0 - math.exp(-2.0))
    assert rep.value_drop == pytest.approx(drop_expect, abs=2e-3)
    assert rep.relative_error <= 0.02
    # along minimizing movements the interval speed equals the slope at the
    # right node exactly for this functional
    assert rep.max_speed_slope_gap <= 1e-10


def test_energy_identity_measures_each_interval_once(monkeypatch):
    # the kinetic term comes from the speeds: one distance per interval
    traj = flow(QUAD, E1, E1.point(1.0), 1.0, 16)
    calls = []
    monkeypatch.setattr(curves, "distance", lambda *a: calls.append(a) or distance(*a))
    check_energy_identity(traj, QUAD, E1)
    assert len(calls) == 16


def test_energy_identity_constant_functional():
    traj = flow(zero_functional(E1), E1, E1.point(1.0), 1.0, 100)
    rep = check_energy_identity(traj, zero_functional(E1), E1)
    assert rep.value_drop == 0.0
    assert rep.kinetic_integral == 0.0


def test_energy_identity_linear_halfline():
    f = linear_half_line(2.0)
    traj = flow(f, HL, HL.point(1.0), 1.0, 1000)
    rep = check_energy_identity(traj, f, HL)
    assert rep.value_drop == pytest.approx(2.0, abs=1e-9)
    assert rep.kinetic_integral == pytest.approx(2.0, abs=1e-2)


def test_slope_bounds_quadratic_frozen_chain():
    # closed forms at x = 1, t = 1: both sides of the lower comparison agree
    lower, upper = check_slope_bounds_along_flow(QUAD, E1, E1.point(1.0), 1.0)
    assert lower <= slack(1e-3)
    assert upper <= slack(1e-3)
    traj = flow(QUAD, E1, E1.point(1.0), 1.0, 1000)
    rate = distance(E1, traj.end, E1.point(1.0)) / 1.0
    assert rate == pytest.approx(1.0 - math.exp(-1.0), abs=1e-3)


def test_slope_bounds_zero_functional():
    lower, upper = check_slope_bounds_along_flow(zero_functional(E1), E1, E1.point(1.0), 1.0, 100)
    assert lower == 0.0
    assert upper == 0.0


def test_slope_bounds_linear_halfline_equalities():
    f = linear_half_line(2.0)
    lower, upper = check_slope_bounds_along_flow(f, HL, HL.point(1.0), 0.25, 400)
    assert abs(lower) <= 1e-9
    assert abs(upper) <= 1e-9


def test_slope_bounds_catalogue_within_slack():
    dt = 1e-3
    cases = [
        (QUAD, E1, E1.point(1.0), 1.0),
        (linear_half_line(2.0), HL, HL.point(1.0), 0.25),
        (ramp(4.0), HL, HL.point(0.0), 0.05),
        (inverse_square(0.5), HL, HL.point(1.0), 0.5),
    ]
    for f, sp, x, t in cases:
        lower, upper = check_slope_bounds_along_flow(f, sp, x, t, int(t / dt))
        assert lower <= slack(dt)
        assert upper <= slack(dt)


def test_slope_decay_profile_monotone():
    # exp(lam t) * slope(x_t) is nonincreasing along the flow up to O(dt)
    for f, sp, x, T, n in (
        (QUAD, E1, E1.point(1.0), 1.0, 1000),
        (inverse_square(0.5), HL, HL.point(1.0), 0.5, 500),
    ):
        traj = flow(f, sp, x, T, n)
        prof = [math.exp(f.lam * t) * descending_slope(f, sp, p) for t, p in zip(traj.times, traj.points)]
        assert np.max(np.diff(prof)) <= slack(1e-3)
