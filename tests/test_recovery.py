import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from metric_action_lab import distance, euclidean, half_line, tripod, uniform_distance
from metric_action_lab.curves import action, geodesic_curve
from metric_action_lab.errors import ConvergenceError, DomainError
from metric_action_lab.flow import flow_times
from metric_action_lab.functionals import (
    inverse_square,
    quadratic,
    ramp,
    zero_functional,
)
from metric_action_lab.recovery import (
    RecoveryConfig,
    RecoveryMode,
    _vanishing_endpoint_ride,
    build_recovery,
    default_tau_schedule,
    estimated_entry_constant,
    piece_diagnostics,
    tau_cap,
)

HL = half_line()
E1 = euclidean(1)
# the package exports the function ``flow``, which shadows the module
flow_module = importlib.import_module("metric_action_lab.flow")
QUAD = quadratic(E1, E1.point(0.0), 1.0)


def unit_line(n=64):
    return geodesic_curve(E1, E1.point(0.0), E1.point(1.0), n)


def cfg_for(gamma, x0_fn, x1_fn, mode=RecoveryMode.RESOLVENT, tau=None):
    return RecoveryConfig(
        mode=mode,
        base_curve=gamma,
        x0_seq=x0_fn,
        x1_seq=x1_fn,
        tau=tau,
    )


def piece_by_label(out, label):
    return next(p for p in piece_diagnostics(out) if p.label == label)


# --------------------------------------------------------------------------
# resolvent mode
# --------------------------------------------------------------------------


def test_resolvent_recovery_middle_piece_closed_form():
    gamma = unit_line()
    cfg = cfg_for(gamma, lambda h: E1.point(0.0), lambda h: E1.point(1.0), tau=0.1)
    out = build_recovery(QUAD, cfg, 1)
    mid = next(p for p in out.pieces if p.label == "middle")
    for t, p in zip(mid.curve.times, mid.curve.points):
        assert p.coords[0] == pytest.approx(t / 1.1, rel=1e-12)
    diag = piece_by_label(out, "middle")
    # own-time action of the middle piece: (1/1.1^2) (1 + 1/3) up to quadrature
    assert diag.kinetic + diag.potential == pytest.approx((1 + 1 / 3) / 1.1**2, abs=2e-4)


def test_resolvent_recovery_zero_functional_reproduces_base():
    gamma = unit_line()
    f = zero_functional(E1)
    cfg = cfg_for(gamma, lambda h: E1.point(0.0), lambda h: E1.point(1.0), tau=0.2)
    out = build_recovery(f, cfg, 3)
    assert uniform_distance(out.curve, gamma) <= 1e-12
    av = action(out.curve, f, E1.point(0.0), E1.point(1.0))
    assert av.total == pytest.approx(1.0, rel=1e-9)


def test_resolvent_recovery_endpoint_exactness():
    gamma = unit_line()
    for h in (4, 16, 64):
        x0h, x1h = E1.point(1.0 / h), E1.point(1.0 + 1.0 / h)
        cfg = cfg_for(gamma, lambda _h: x0h, lambda _h: x1h)
        out = build_recovery(QUAD, cfg, h)
        assert distance(E1, out.curve.start, x0h) <= 1e-9
        assert distance(E1, out.curve.end, x1h) <= 1e-9


def test_resolvent_recovery_repair_piece_bound():
    # moving start point 1/h away: repair cost stays under the crude
    # C d0 / tau^2 envelope computed from closed forms
    gamma = unit_line()
    h, tau = 8, 0.1
    x0h = E1.point(1.0 / h)
    cfg = cfg_for(gamma, lambda _h: x0h, lambda _h: E1.point(1.0), tau=tau)
    out = build_recovery(QUAD, cfg, h)
    rep = piece_by_label(out, "repair_start")
    d0 = 1.0 / h
    assert rep.duration == pytest.approx(d0)
    own = rep.kinetic + rep.potential
    x_max = 1.0 / h
    direct_bound = d0 * (1.0 + x_max**2) / (1 + tau) ** 2
    assert own <= direct_bound + 1e-9
    assert own <= (1.0 + x_max**2) / tau**2 * d0  # the crude envelope


def test_resolvent_recovery_entry_piece_bound():
    gamma = unit_line()
    tau = 0.125
    x1h = E1.point(1.0)
    cfg = cfg_for(gamma, lambda h: E1.point(0.0), lambda h: x1h, tau=tau)
    out = build_recovery(QUAD, cfg, 64)
    entry = piece_by_label(out, "exit")
    C = estimated_entry_constant(QUAD, E1, E1.point(0.0), x1h, tau, use_flow=False)
    assert C == pytest.approx(2.0, rel=1e-12)  # 2 * slope(x1)^2 for this case
    assert entry.kinetic + entry.potential <= C * tau * (1 + 1e-6)


def test_resolvent_recovery_middle_inflation():
    gamma = unit_line(128)
    theta = action(gamma, QUAD, gamma.start, gamma.end).total
    for tau in (0.2, 0.1, 0.05):
        cfg = cfg_for(gamma, lambda h: E1.point(0.0), lambda h: E1.point(1.0), tau=tau)
        out = build_recovery(QUAD, cfg, 4)
        mid = piece_by_label(out, "middle")
        assert mid.kinetic + mid.potential <= (1 + tau) * theta + 1e-6


def test_resolvent_recovery_infinite_endpoint_slope_rejected():
    gamma = geodesic_curve(HL, HL.point(0.0), HL.point(1.0), 32)
    f = inverse_square(1.0)
    cfg = RecoveryConfig(
        mode=RecoveryMode.RESOLVENT,
        base_curve=gamma,
        x0_seq=lambda h: HL.point(0.0),  # slope is infinite here
        x1_seq=lambda h: HL.point(1.0),
    )
    with pytest.raises(DomainError, match="bounded endpoint slopes"):
        build_recovery(f, cfg, 2)


def test_uniform_closeness_table_decreasing_diagonal():
    gamma = unit_line()
    taus = [0.2, 0.1, 0.05, 0.025]
    hs = [4, 8, 16, 32]
    table = np.zeros((len(taus), len(hs)))
    for i, tau in enumerate(taus):
        for j, h in enumerate(hs):
            cfg = cfg_for(gamma, lambda _h: E1.point(1.0 / _h), lambda _h: E1.point(1.0), tau=tau)
            out = build_recovery(QUAD, cfg, h)
            table[i, j] = uniform_distance(out.curve, gamma)
    diag = [table[k, k] for k in range(len(taus))]
    assert all(b < a for a, b in zip(diag, diag[1:]))


def counting_quadratic():
    """``QUAD`` with its closed forms, whose slope records every call."""
    calls = []

    def slope(x):
        calls.append(x)
        return QUAD.closed_form_slope(x)

    return replace(QUAD, closed_form_slope=slope), calls


@pytest.mark.parametrize("mode", [RecoveryMode.RESOLVENT, RecoveryMode.FLOW])
def test_build_recovery_evaluates_only_the_slopes_it_needs(mode):
    # two endpoint checks, then one per droppable piece, whose first node has
    # a non-zero slope; the per-piece integrals are piece_diagnostics' work
    f, calls = counting_quadratic()
    cfg = cfg_for(unit_line(8), lambda h: E1.point(1.0 / h), lambda h: E1.point(1.0 + 1.0 / h),
                  mode=mode)
    out = build_recovery(f, cfg, 8)
    assert [p.label for p in out.pieces] == ["entry", "repair_start", "middle", "repair_end", "exit"]
    assert len(calls) <= 6


@pytest.mark.parametrize("mode", list(RecoveryMode))
def test_piece_contributions_sum_to_the_action(mode):
    cfg = cfg_for(unit_line(16), lambda h: E1.point(1.0 / h), lambda h: E1.point(1.0 + 1.0 / h),
                  mode=mode)
    out = build_recovery(QUAD, cfg, 8, eps=lambda h: 1.0 / h)
    total = sum(p.contribution for p in piece_diagnostics(out))
    av = action(out.curve, out.functional, out.curve.start, out.curve.end)
    assert total == pytest.approx(av.total, rel=1e-12)


# --------------------------------------------------------------------------
# flow mode
# --------------------------------------------------------------------------


def _recorded_flow_starts(monkeypatch):
    """Patch ``recovery.flow_times`` to record the bits of each start point."""
    recovery_module = importlib.import_module("metric_action_lab.recovery")
    starts, original = [], recovery_module.flow_times

    def recorded(f, space, x, times):
        starts.append(tuple(c.hex() for c in x.coords))
        return original(f, space, x, times)

    monkeypatch.setattr(recovery_module, "flow_times", recorded)
    return starts


@pytest.mark.parametrize("space", [E1, tripod()], ids=["euclidean1", "tripod"])
def test_flow_recovery_flows_each_start_point_once(space, monkeypatch):
    # x0h, x0, x1 and x1h each end one piece and start the next: the entry
    # and exit flows' ends are the regularized x0h and x1h, and each junction
    # is flowed once.  A repair node that only rounds near a junction is
    # another point, flowed on its own.
    if space is E1:
        f = QUAD
        gamma = geodesic_curve(E1, E1.point(0.0), E1.point(1.0), 16)
        x0h, x1h = E1.point(0.05), E1.point(1.03)
    else:
        f = quadratic(space, space.point(0, 0.2), 1.0)
        gamma = geodesic_curve(space, space.point(0, 0.5), space.point(1, 0.75), 16)
        # the repair geodesic from edge 2 ends at (0, (0.2 + 0.5) - 0.2), one ulp below x0
        x0h, x1h = space.point(2, 0.2), space.point(1, 0.72)
    starts = _recorded_flow_starts(monkeypatch)
    cfg = cfg_for(gamma, lambda h: x0h, lambda h: x1h, mode=RecoveryMode.FLOW, tau=0.05)
    out = build_recovery(f, cfg, 4)
    assert [p.label for p in out.pieces] == ["entry", "repair_start", "middle", "repair_end", "exit"]
    assert len(starts) == len(set(starts))
    assert {tuple(c.hex() for c in p.coords) for p in (x0h, gamma.start, gamma.end, x1h)} <= set(starts)
    if space is not E1:
        assert ((0.0).hex(), (0.49999999999999994).hex()) in starts


def test_flow_recovery_keeps_signed_zeros_apart(monkeypatch):
    # -0.0 == 0.0, but they are different points to flow: the entry flows
    # x0h = -0.0, and the middle piece flows the base curve's 0.0 itself
    starts = _recorded_flow_starts(monkeypatch)
    cfg = cfg_for(unit_line(8), lambda h: E1.point(-0.0), lambda h: E1.point(1.0),
                  mode=RecoveryMode.FLOW, tau=0.05)
    build_recovery(QUAD, cfg, 4)
    assert sorted(k for k in starts if float.fromhex(k[0]) == 0.0) == [("-0x0.0p+0",), ("0x0.0p+0",)]
    assert len(starts) == len(set(starts))


def test_flow_recovery_middle_piece_exponential():
    gamma = unit_line(32)
    cfg = cfg_for(
        gamma, lambda h: E1.point(0.0), lambda h: E1.point(1.0),
        mode=RecoveryMode.FLOW, tau=0.1,
    )
    out = build_recovery(QUAD, cfg, 1)
    mid = next(p for p in out.pieces if p.label == "middle")
    for t, p in zip(mid.curve.times, mid.curve.points):
        assert p.coords[0] == pytest.approx(math.exp(-0.1) * t, abs=1.5e-3)


def test_flow_recovery_zero_functional_identity():
    gamma = unit_line(16)
    f = zero_functional(E1)
    cfg = cfg_for(gamma, lambda h: E1.point(0.0), lambda h: E1.point(1.0),
                  mode=RecoveryMode.FLOW, tau=0.2)
    out = build_recovery(f, cfg, 1)
    assert uniform_distance(out.curve, gamma) <= 1e-12


def test_flow_recovery_entry_bound_from_decay_estimates():
    # slope along the flow decays, so the entry cost obeys 2 tau e^{2 lam^- tau} s^2
    gamma = unit_line(16)
    tau = 0.1
    cfg = cfg_for(gamma, lambda h: E1.point(0.0), lambda h: E1.point(1.0),
                  mode=RecoveryMode.FLOW, tau=tau)
    out = build_recovery(QUAD, cfg, 1)
    entry = piece_by_label(out, "exit")  # anchored at x1 = 1, slope 1
    C = estimated_entry_constant(QUAD, E1, E1.point(0.0), E1.point(1.0), tau, use_flow=True)
    assert C == pytest.approx(2.0, rel=1e-12)
    assert entry.kinetic + entry.potential <= C * tau * (1 + 1e-6)


# --------------------------------------------------------------------------
# vanishing mode
# --------------------------------------------------------------------------


def test_vanishing_flow_matches_ode_oracle():
    # gradient flow of 1/x^2 obeys x' = 2/x^3, i.e. x(t) = (x0^4 + 8t)^(1/4)
    f = inverse_square(1.0)
    x0 = 0.1
    times = np.linspace(0.0, 1e-4, 200)
    traj = flow_times(f, HL, HL.point(x0), times)
    for t, p in zip(times, traj.points):
        assert p.coords[0] == pytest.approx((x0**4 + 8 * t) ** 0.25, rel=2e-3)


def test_vanishing_recovery_quadratic_side_pieces_shrink():
    gamma = unit_line(32)
    rides = []
    for h in (4, 16, 64):
        cfg = RecoveryConfig(
            mode=RecoveryMode.VANISHING,
            base_curve=gamma,
            x0_seq=lambda _h: E1.point(0.0),
            x1_seq=lambda _h: E1.point(1.0),
        )
        out = build_recovery(QUAD, cfg, h, eps=lambda _h: 1.0 / _h)
        eps = 1.0 / h
        ride = [p for p in piece_diagnostics(out) if p.label.startswith("ride")]
        total = sum(p.contribution for p in ride)
        rides.append(total)
        assert distance(E1, out.curve.start, E1.point(0.0)) <= 1e-9
        assert distance(E1, out.curve.end, E1.point(1.0)) <= 1e-9
    assert rides[-1] <= 1e-4
    assert all(b <= a + 1e-12 for a, b in zip(rides, rides[1:]))


def test_vanishing_ride_stops_at_the_first_tame_step(monkeypatch):
    # from x = 0.1 the scaled slope 0.5 * 2 / x^3 starts at 1000 and falls
    # under the cap 10 partway along the grid: one resolvent per kept step
    calls = []
    resolvent = flow_module.resolvent
    monkeypatch.setattr(flow_module, "resolvent", lambda *a: calls.append(a) or resolvent(*a))
    ride, _ = _vanishing_endpoint_ride(inverse_square(1.0), HL, HL.point(0.1), 0.5, 10.0)
    assert 2 < len(ride.points) < 49
    assert len(calls) == len(ride.points) - 1
    assert 0.5 * 2.0 / ride.end.coords[0] ** 3 <= 10.0 < 0.5 * 2.0 / ride.points[-2].coords[0] ** 3


def test_vanishing_ride_resolvent_failure_keeps_its_class(monkeypatch):
    def fail(*args):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(flow_module, "resolvent", fail)
    cfg = RecoveryConfig(
        mode=RecoveryMode.VANISHING,
        base_curve=geodesic_curve(HL, HL.point(0.0), HL.point(1.0), 16),
        x0_seq=lambda h: HL.point(0.1),
        x1_seq=lambda h: HL.point(1.0),
    )
    with pytest.raises(ConvergenceError, match="resolvent failed at step 0: no convergence"):
        build_recovery(inverse_square(1.0), cfg, 2, eps=lambda h: 0.5)


def test_vanishing_mode_rejects_an_endpoint_outside_the_domain():
    # inverse_square is infinite at 0, so no ride can start there
    cfg = RecoveryConfig(
        mode=RecoveryMode.VANISHING,
        base_curve=geodesic_curve(HL, HL.point(0.0), HL.point(1.0), 16),
        x0_seq=lambda h: HL.point(0.0),
        x1_seq=lambda h: HL.point(1.0),
    )
    with pytest.raises(DomainError, match="start endpoint has infinite value"):
        build_recovery(inverse_square(1.0), cfg, 2, eps=lambda h: 0.5)


def test_vanishing_mode_schedule_error_on_impossible_cap():
    gamma = geodesic_curve(HL, HL.point(0.0), HL.point(1.0), 16)
    cfg = RecoveryConfig(
        mode=RecoveryMode.VANISHING,
        base_curve=gamma,
        x0_seq=lambda h: HL.point(0.1),
        x1_seq=lambda h: HL.point(1.0),
        slope_cap=1e-9,  # unreachable on the ride grid
    )
    with pytest.raises(ConvergenceError, match="refine the grid"):
        build_recovery(inverse_square(1.0), cfg, 2, eps=lambda h: 0.5)


def test_vanishing_recovery_inverse_square_succeeds():
    # moving start point at sqrt(eps): the ride tames the scaled slope and
    # the repair pieces stay cheap; the ride itself must pay for the climb
    gamma = geodesic_curve(HL, HL.point(0.0), HL.point(1.0), 32)
    f = inverse_square(1.0)
    costs = {}
    for h, eps in ((100, 1e-2), (1000, 1e-3)):
        cfg = RecoveryConfig(
            mode=RecoveryMode.VANISHING,
            base_curve=gamma,
            x0_seq=lambda _h, e=eps: HL.point(math.sqrt(e)),
            x1_seq=lambda _h: HL.point(1.0),
        )
        out = build_recovery(f, cfg, h, eps=lambda _h, e=eps: e)
        assert distance(HL, out.curve.start, HL.point(math.sqrt(eps))) <= 1e-9
        entry = [p for p in piece_diagnostics(out) if p.label in ("entry", "exit")]
        costs[eps] = {
            "entry": sum(p.contribution for p in entry),
            "ride_in": piece_by_label(out, "ride_in").kinetic,
        }
    # repair machinery stays bounded while the unavoidable ride cost grows,
    # consistent with the certified obstruction for this family
    assert costs[1e-3]["entry"] <= costs[1e-2]["entry"] + 1.0
    assert costs[1e-3]["ride_in"] > costs[1e-2]["ride_in"]


# --------------------------------------------------------------------------
# schedules and diagonal selection
# --------------------------------------------------------------------------


def test_default_tau_schedule_properties():
    taus = [default_tau_schedule(h, 1.0 / h, 0.0, 1.0) for h in (4, 8, 16, 64, 256)]
    assert all(b < a for a, b in zip(taus, taus[1:]))
    assert all(0 < t <= tau_cap(1.0) for t in taus)
    # cap kicks in for negative moduli
    assert default_tau_schedule(1, 10.0, 10.0, -1.0) == tau_cap(-1.0)
    assert tau_cap(-1.0) == pytest.approx(0.125)
