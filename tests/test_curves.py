import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_action_lab import distance, euclidean, half_line, quantile_1d, tripod
from metric_action_lab.curves import (
    RESIDUAL_TOL,
    Piece,
    SampledCurve,
    action,
    amgm_lower_bound,
    concatenate_rescale,
    curve_from_csv,
    curve_to_csv,
    geodesic_curve,
    metric_speed,
    minimize_action,
    uniform_distance,
)
from metric_action_lab.errors import DomainError
from metric_action_lab.functionals import (
    descending_slope,
    inverse_square,
    quadratic,
    ramp,
    zero_functional,
)
from metric_action_lab.proximal import resolvent
from metric_action_lab.spaces import Point, SpaceKind

HL = half_line()
E1 = euclidean(1)
QUAD = quadratic(E1, E1.point(0.0), 1.0)


def line_curve(space, n, fn) -> SampledCurve:
    ts = np.linspace(0.0, 1.0, n + 1)
    return SampledCurve(ts, [space.point(fn(t)) for t in ts], space)


# --------------------------------------------------------------------------
# speed and action quadrature
# --------------------------------------------------------------------------


def test_metric_speed_unit_line():
    c = line_curve(E1, 100, lambda t: t)
    assert metric_speed(c) == pytest.approx(np.ones(100))


def test_metric_speed_constant_curve():
    c = line_curve(E1, 10, lambda t: 0.5)
    assert metric_speed(c) == pytest.approx(np.zeros(10))


def test_speed_squared_quadrature_oracle():
    # gamma(t) = t^2: int |dgamma|^2 = int 4 t^2 = 4/3 by the oracle
    oracle = 4.0 / 3.0
    c = line_curve(E1, 1000, lambda t: t * t)
    kinetic = float(np.sum(metric_speed(c) ** 2 * np.diff(c.times)))
    assert kinetic == pytest.approx(oracle, abs=1e-4)


def test_action_unit_segment_zero_potential():
    c = line_curve(E1, 4096, lambda t: t)
    av = action(c, zero_functional(E1), E1.point(0.0), E1.point(1.0))
    assert av.total == pytest.approx(1.0, abs=1e-6)
    assert av.potential == 0.0


def test_action_constant_curve_is_zero():
    x = E1.point(0.4)
    c = SampledCurve(np.array([0.0, 1.0]), [x, x], E1)
    av = action(c, zero_functional(E1), x, x)
    assert av.total == 0.0


def test_action_quadratic_potential_oracle():
    # quadrature oracle: 1 + int t^2 dt = 4/3
    c = line_curve(E1, 2000, lambda t: t)
    av = action(c, QUAD, E1.point(0.0), E1.point(1.0))
    assert av.total == pytest.approx(4.0 / 3.0, abs=1e-5)
    assert av.kinetic == pytest.approx(1.0, abs=1e-12)


def test_action_endpoint_mismatch_is_infinite():
    c = line_curve(E1, 10, lambda t: t)
    av = action(c, QUAD, E1.point(0.1), E1.point(1.0))
    assert av.total == math.inf
    assert not av.endpoint_ok
    assert math.isfinite(av.kinetic)


def test_action_infinite_slope_node():
    f = inverse_square(1.0)
    c = line_curve(HL, 8, lambda t: t)  # starts at the singular origin
    av = action(c, f, HL.point(0.0), HL.point(1.0))
    assert av.total == math.inf


@pytest.mark.parametrize(
    "points, term",
    [
        ((0.0, 1e200), "kinetic term of the action"),         # the square of the speed
        ((0.0, 1e308, 1.0), "metric speed overflows between nodes 0 and 1"),    # the speed itself
        ((1e160, 1e160), "potential term of the action"),     # slope 1e160, squared
        ((0.0, 6.5e153, 1.3e154), "the action overflows"),    # each term finite, not their sum
    ],
    ids=["squared_speed", "speed", "squared_slope", "sum"],
)
def test_action_overflow_from_finite_nodes_is_a_domain_error(points, term):
    # inf means "off the domain" or "endpoints missed": an overflow is neither
    c = SampledCurve(np.linspace(0.0, 1.0, len(points)), [E1.point(v) for v in points], E1)
    with pytest.raises(DomainError, match=term):
        action(c, QUAD, c.start, c.end)


def test_action_values_are_python_floats(rng):
    # the trapezoid weights are Python floats, so no numpy scalar reaches a
    # report: not on any space, and not where the action is infinite
    from metric_action_lab.spaces import random_point

    for space in (HL, E1, euclidean(2), tripod(), quantile_1d(4)):
        x0, x1 = random_point(space, rng), random_point(space, rng)
        c = geodesic_curve(space, x0, x1, 8)
        f = quadratic(space, random_point(space, rng), 1.5)
        for av in (action(c, f, x0, x1), action(c, f, x1, x0)):
            assert all(type(v) is float for v in (av.total, av.kinetic, av.potential))
    av = action(line_curve(HL, 8, lambda t: t), inverse_square(1.0), HL.point(0.0), HL.point(1.0))
    assert av.total == av.potential == math.inf
    assert all(type(v) is float for v in (av.total, av.kinetic, av.potential))


def test_action_quadrature_consistency_rate():
    # error of the unit segment action scales like 1/N^2
    for n in (16, 64, 256):
        c = line_curve(E1, n, lambda t: t)
        av = action(c, zero_functional(E1), E1.point(0.0), E1.point(1.0))
        assert abs(av.total - 1.0) <= 1.0 / n**2 + 1e-12


# --------------------------------------------------------------------------
# concatenation and uniform distance
# --------------------------------------------------------------------------


def test_concatenate_single_segment_identity():
    c = line_curve(E1, 10, lambda t: t)
    out = concatenate_rescale([Piece(c, 1.0)])
    assert out.times == pytest.approx(c.times)
    assert [p.coords for p in out.points] == [p.coords for p in c.points]


def test_concatenate_two_unit_segments_speed_doubles():
    a = line_curve(E1, 50, lambda t: t)
    b = line_curve(E1, 50, lambda t: 1.0 + t)
    out = concatenate_rescale([Piece(a, 1.0), Piece(b, 1.0)])
    av = action(out, zero_functional(E1), E1.point(0.0), E1.point(2.0))
    assert av.kinetic == pytest.approx(4.0, rel=1e-12)


def test_concatenate_five_piece_domain_length():
    tau, d0, d1 = 0.1, 0.25, 0.04
    pieces = [
        Piece(line_curve(E1, 4, lambda t: 0.0), tau, "entry"),
        Piece(line_curve(E1, 4, lambda t: 0.0), d0, "repair0"),
        Piece(line_curve(E1, 8, lambda t: t), 1.0, "middle"),
        Piece(line_curve(E1, 4, lambda t: 1.0), d1, "repair1"),
        Piece(line_curve(E1, 4, lambda t: 1.0), tau, "exit"),
    ]
    total = sum(p.duration for p in pieces)
    assert total == pytest.approx(1.0 + 2 * tau + d0 + d1)
    out = concatenate_rescale(pieces)
    assert out.times[0] == 0.0 and out.times[-1] == 1.0
    # middle occupies duration 1 of the total
    speeds = metric_speed(out)
    assert speeds.max() == pytest.approx(total, rel=1e-9)


def test_concatenate_rejects_gap():
    a = line_curve(E1, 4, lambda t: t)
    b = line_curve(E1, 4, lambda t: 2.0 + t)
    with pytest.raises(DomainError, match="junction 0"):
        concatenate_rescale([Piece(a, 1.0, "a"), Piece(b, 1.0, "b")])


def test_curves_off_the_unit_interval_are_rejected_where_one_is_needed():
    # a curve may live on any grid (a flow does), but concatenation needs [0, 1]
    off = SampledCurve(np.linspace(0.0, 2.0, 5), [E1.point(v) for v in np.linspace(0.0, 1.0, 5)], E1)
    unit = line_curve(E1, 4, lambda t: 1.0 + t)
    with pytest.raises(DomainError, match=r"parametrized on \[0, 1\]"):
        concatenate_rescale([Piece(off, 1.0), Piece(unit, 1.0)])


def test_concatenate_action_decomposition():
    # total action equals the duration-weighted sum of per-piece integrals
    f = QUAD
    a = line_curve(E1, 32, lambda t: t)
    b = line_curve(E1, 32, lambda t: 1.0 + 0.5 * t)
    durations = [0.4, 0.8]
    out = concatenate_rescale([Piece(a, durations[0]), Piece(b, durations[1])])
    av = action(out, f, E1.point(0.0), E1.point(1.5))
    L = sum(durations)

    def own_integrals(c, rho):
        dts = np.diff(c.times) * rho
        d = [distance(E1, c.points[k], c.points[k + 1]) for k in range(len(c.points) - 1)]
        K = float(np.sum(np.array(d) ** 2 / dts))
        g = np.array([descending_slope(f, E1, p) ** 2 for p in c.points])
        w = np.zeros(len(g))
        w[:-1] += dts / 2
        w[1:] += dts / 2
        return K, float(np.sum(w * g))

    expect = 0.0
    for c, rho in zip((a, b), durations):
        K, P = own_integrals(c, rho)
        expect += L * K + P / L
    assert av.total == pytest.approx(expect, abs=1e-9)


def test_uniform_distance_identical_and_shift():
    a = line_curve(E1, 20, lambda t: t)
    assert uniform_distance(a, a) == 0.0
    b = line_curve(E1, 33, lambda t: t + 0.25)
    assert uniform_distance(a, b) == pytest.approx(0.25, abs=1e-12)


def test_uniform_distance_resolvent_image():
    tau = 0.3
    a = line_curve(E1, 64, lambda t: t)
    b = a.mapped(lambda p: resolvent(QUAD, E1, tau, p).point)
    assert uniform_distance(a, b) == pytest.approx(tau / (1 + tau), rel=1e-9)


def test_time_flip_preserves_action():
    c = line_curve(E1, 30, lambda t: t * t)
    av = action(c, QUAD, c.start, c.end)
    flipped = c.reversed_time()
    av2 = action(flipped, QUAD, flipped.start, flipped.end)
    assert av2.total == pytest.approx(av.total, rel=1e-12)


# --------------------------------------------------------------------------
# AM-GM minorant and reparametrization
# --------------------------------------------------------------------------


@given(
    st.lists(st.floats(0.0, 3.0), min_size=3, max_size=12),
    st.floats(0.1, 4.0),
)
@settings(max_examples=150, deadline=None)
def test_amgm_is_discrete_lower_bound(xs, lam):
    ts = np.linspace(0.0, 1.0, len(xs))
    curve = SampledCurve(ts, [E1.point(v) for v in xs], E1)
    f = quadratic(E1, E1.point(0.0), lam)
    g = lambda p: descending_slope(f, E1, p) ** 2
    av = action(curve, f, curve.start, curve.end)
    bound = amgm_lower_bound(curve, g)
    assert bound <= av.total + 1e-9


def test_constant_speed_minimizes_kinetic(rng):
    pts = [E1.point(v) for v in (0.0, 0.3, 0.9, 1.0, 1.4)]
    seg = np.array([distance(E1, a, b) for a, b in zip(pts, pts[1:])])
    arc = np.concatenate(([0.0], np.cumsum(seg))) / seg.sum()
    best = SampledCurve(arc, pts, E1)
    k_best = float(np.sum(metric_speed(best) ** 2 * np.diff(best.times)))
    for _ in range(10):
        interior = np.sort(rng.uniform(0.01, 0.99, size=len(pts) - 2))
        ts = np.concatenate(([0.0], interior, [1.0]))
        k = float(np.sum(metric_speed(SampledCurve(ts, pts, E1)) ** 2 * np.diff(ts)))
        assert k_best <= k + 1e-12


# --------------------------------------------------------------------------
# minimize_action
# --------------------------------------------------------------------------


def shooting_oracle_value(n_steps: int = 4000):
    """Independent oracle: RK4 shooting for w'' = w, w(0)=0, w(1)=1."""

    def integrate(s):
        w, v = 0.0, s
        dt = 1.0 / n_steps
        traj = [w]
        for _ in range(n_steps):
            # RK4 on (w, v)' = (v, w)
            k1 = (v, w)
            k2 = (v + dt / 2 * k1[1], w + dt / 2 * k1[0])
            k3 = (v + dt / 2 * k2[1], w + dt / 2 * k2[0])
            k4 = (v + dt * k3[1], w + dt * k3[0])
            w += dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v += dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            traj.append(w)
        return w, np.array(traj)

    lo, hi = 0.1, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        end, _ = integrate(mid)
        if end < 1.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    _, traj = integrate(s)
    ts = np.linspace(0.0, 1.0, n_steps + 1)
    speed2 = (np.diff(traj) / np.diff(ts)) ** 2
    pot = traj**2
    value = float(np.sum(speed2 * np.diff(ts)) + 0.5 * float(np.sum((pot[1:] + pot[:-1]) * np.diff(ts))))
    return value, ts, traj


def test_shooting_oracle_self_check():
    value, ts, traj = shooting_oracle_value()
    # the oracle reproduces the hyperbolic-sine boundary solution
    assert traj[-1] == pytest.approx(1.0, abs=1e-9)
    assert value == pytest.approx(math.cosh(1.0) / math.sinh(1.0), abs=1e-5)


def test_minimize_action_zero_potential_geodesic(any_space, rng):
    from metric_action_lab.spaces import random_point

    f = zero_functional(any_space)
    x0, x1 = random_point(any_space, rng), random_point(any_space, rng)
    curve, val, info = minimize_action(f, any_space, x0, x1, 16)
    d = distance(any_space, x0, x1)
    assert val.total == pytest.approx(d * d, rel=1e-6, abs=1e-9)


def test_minimize_action_quadratic_matches_shooting_oracle():
    oracle, ts, traj = shooting_oracle_value()
    curve, val, info = minimize_action(QUAD, E1, E1.point(0.0), E1.point(1.0), 64)
    assert abs(val.total - oracle) <= 1e-3
    # node positions follow the oracle curve
    worst = max(
        abs(curve.at(float(t)).coords[0] - w) for t, w in zip(ts[::200], traj[::200])
    )
    assert worst <= 2e-3


@pytest.mark.parametrize(
    "space, u0, u1, unit",
    [
        (euclidean(2), (0.0, 1.0), (1.0, 0.5), 1.0),
        (quantile_1d(3), (-0.2, 0.0, 0.1), (0.8, 1.0, 1.2), 1.0 / math.sqrt(3.0)),
    ],
    ids=["euclidean2", "quantile3"],
)
def test_minimize_action_vector_quadratic_closed_form(space, u0, u1, unit):
    # the vector node update must move nodes off the geodesic; the exact
    # minimum of |g'|^2 + lam^2 |g|^2 between a and b (coordinates scaled
    # by the space's metric) is lam [(|a|^2 + |b|^2) cosh lam - 2 a.b] / sinh lam
    n, lam = 8, 1.0
    f = quadratic(space, space.point(*[0.0] * len(u0)), lam)
    x0, x1 = space.point(*u0), space.point(*u1)
    _, val, _ = minimize_action(f, space, x0, x1, n)
    a, b = unit * np.array(u0), unit * np.array(u1)
    exact = lam * ((a @ a + b @ b) * math.cosh(lam) - 2.0 * (a @ b)) / math.sinh(lam)
    assert val.total == pytest.approx(exact, rel=1.0 / n**2)
    assert val.total < action(geodesic_curve(space, x0, x1, n), f, x0, x1).total


def test_minimize_action_e1_matches_direct_tridiagonal_solve():
    # the discrete action of the E^1 quadratic is a quadratic form: its
    # minimizer solves (2/dt)(2x_i - x_{i-1} - x_{i+1}) + 2 dt x_i = 0 with
    # x_0 = 0, x_N = 1, a tridiagonal system (Thomas algorithm below)
    n = 64
    dt = 1.0 / n
    diag, off = 4.0 / dt + 2.0 * dt, -2.0 / dt
    rhs = np.zeros(n - 1)
    rhs[-1] = 2.0 / dt
    c, d = np.zeros(n - 1), np.zeros(n - 1)
    c[0], d[0] = off / diag, rhs[0] / diag
    for i in range(1, n - 1):
        denom = diag - off * c[i - 1]
        c[i], d[i] = off / denom, (rhs[i] - off * d[i - 1]) / denom
    x = np.zeros(n + 1)
    x[-1] = 1.0
    for i in range(n - 2, -1, -1):
        x[i + 1] = d[i] - (c[i] * x[i + 2] if i < n - 2 else 0.0)
    weights = np.full(n + 1, dt)
    weights[0] = weights[-1] = dt / 2.0
    direct = float(np.sum(np.diff(x) ** 2) / dt + np.sum(weights * x**2))
    assert direct == pytest.approx(1.3130827212, abs=1e-10)

    curve, val, info = minimize_action(QUAD, E1, E1.point(0.0), E1.point(1.0), n)
    assert val.total == pytest.approx(direct, rel=1e-12)
    assert info["converged"] and info["residual"] < RESIDUAL_TOL
    assert max(abs(p.coords[0] - v) for p, v in zip(curve.points, x)) <= 1e-9


def test_minimize_action_quantile_binding_order_constraint():
    # a potential pulling the first quantile up and the second down: the
    # free minimizer would cross them, so the order constraint binds
    q2 = quantile_1d(2)
    f = quadratic(q2, Point(SpaceKind.QUANTILE_1D, (1.0, -1.0)), 2.0)
    a = q2.point(0.0, 0.1)
    curve, val, info = minimize_action(f, q2, a, a, 32)
    assert all(p.coords[0] <= p.coords[1] for p in curve.points)
    assert any(p.coords[0] == p.coords[1] for p in curve.points)
    assert val.total < action(geodesic_curve(q2, a, a, 32), f, a, a).total
    assert info["converged"]


def test_minimize_action_tripod_two_edges_is_the_unfolded_line():
    # a curve that stays on edges 0 and 1 is the E^1 problem with edge 0
    # unfolded onto the negative axis: same distances, same quadratic
    tp = tripod()
    f = quadratic(tp, tp.point(0, 0.1891))
    _, val, info = minimize_action(f, tp, tp.point(0, 0.4461), tp.point(1, 0.8804), 64)
    f1 = quadratic(E1, E1.point(-0.1891))
    _, line, _ = minimize_action(f1, E1, E1.point(-0.4461), E1.point(0.8804), 64)
    assert info["converged"]
    assert abs(val.total - line.total) <= 1e-12 * line.total


def test_minimize_action_tripod_leaves_the_branch_point_for_the_centre_edge():
    # the geodesic runs from edge 0 to edge 2 through the branch point; the
    # minimizer bends into edge 1 towards the centre
    tp = tripod()
    f = quadratic(tp, tp.point(1, 0.6), 3.0)
    curve, val, info = minimize_action(f, tp, tp.point(0, 0.2), tp.point(2, 0.2), 8)
    assert info["converged"]
    assert any(p.coords[0] == 1.0 for p in curve.points)
    assert val.total <= 3.530182010599  # the node-wise sweep's value


@pytest.mark.parametrize(
    "space, f, x0, x1",
    [
        (HL, inverse_square(0.01), HL.point(0.2), HL.point(1.0)),
        (tripod(), quadratic(tripod(), tripod().point(1, 0.6), 3.0), tripod().point(0, 0.2),
         tripod().point(2, 0.2)),
    ],
    ids=["half_line", "tripod"],
)
def test_minimize_action_evaluates_each_curve_once(monkeypatch, space, f, x0, x1):
    # the geodesic's and the accepted candidate's ActionValue are kept, not recomputed
    import metric_action_lab.curves as curves

    seen = []

    def counted(c, *args):
        seen.append((c.times.tobytes(), tuple(p.coords for p in c.points)))
        return action(c, *args)

    monkeypatch.setattr(curves, "action", counted)
    curve, val, info = minimize_action(f, space, x0, x1, 16)
    assert info["sweeps"] > 0 and len(seen) > info["sweeps"]
    assert len(set(seen)) == len(seen)
    assert val == action(curve, f, x0, x1)


def test_minimize_action_reports_stop_before_convergence():
    # Newton needs 4 steps here (test_minimize_action_inverse_square_beats_the_sweep)
    f = inverse_square(0.01)
    _, _, info = minimize_action(f, HL, HL.point(0.2), HL.point(1.0), 64, max_iter=2)
    assert info["sweeps"] == 2
    assert not info["converged"] and info["residual"] >= RESIDUAL_TOL


@pytest.mark.parametrize("space, f", [(HL, ramp(4.0)), (E1, QUAD)], ids=["half_line", "euclidean"])
def test_minimize_action_info_is_plain_json(space, f):
    _, _, info = minimize_action(f, space, space.point(0.0), space.point(1.0), 16, max_iter=1)
    assert type(info["converged"]) is bool
    assert type(info["residual"]) is float
    json.dumps(info)


def test_minimize_action_never_beats_certificate():
    # the example-2 search, whose node-wise sweeps give the ramp's upper bound
    from metric_action_lab.harness import run_example2

    (row,) = run_example2([16], n_certificate=64, n_search=64).rows
    assert row["optimizer_upper_bound"] >= 2.0 - 0.05
    assert row["optimizer_upper_bound"] <= 3.5  # sanity: the search does find a decent curve


HALF_LINE_QUAD = quadratic(HL, HL.point(0.5), 1.0)


def test_minimize_action_half_line_quadratic_is_the_e1_search():
    # the minimizer from 0.2 to 1 stays away from 0, where the half-line is
    # flat: same steps, same curve, bit for bit
    curve, val, info = minimize_action(HALF_LINE_QUAD, HL, HL.point(0.2), HL.point(1.0), 64)
    f1 = quadratic(E1, E1.point(0.5), 1.0)
    line, line_val, line_info = minimize_action(f1, E1, E1.point(0.2), E1.point(1.0), 64)
    assert info["converged"] and info == line_info
    assert val.total == line_val.total
    assert [p.coords for p in curve.points] == [p.coords for p in line.points]


def test_minimize_action_half_line_quadratic_closed_form():
    # the flat minimum lam [(u0^2 + u1^2) cosh lam - 2 u0 u1] / sinh lam,
    # u = x - centre, to the quadrature's O(1/N^2)
    n, lam, u0, u1 = 64, 1.0, -0.3, 0.5
    _, val, info = minimize_action(HALF_LINE_QUAD, HL, HL.point(0.2), HL.point(1.0), n)
    exact = lam * ((u0 * u0 + u1 * u1) * math.cosh(lam) - 2.0 * u0 * u1) / math.sinh(lam)
    assert info["converged"]
    assert abs(val.total - exact) <= 1.0 / n**2


def test_minimize_action_inverse_square_beats_the_sweep():
    # the node-wise sweep that the half-line ran before Newton stopped at
    # 0.855103014 after 604 sweeps, unconverged
    _, val, info = minimize_action(inverse_square(0.01), HL, HL.point(0.2), HL.point(1.0), 64)
    assert info["converged"]
    assert val.total <= 0.855103014


# --------------------------------------------------------------------------
# CSV round trip
# --------------------------------------------------------------------------


def test_curve_csv_roundtrip(any_space, rng):
    from metric_action_lab.spaces import random_point

    pts = [random_point(any_space, rng) for _ in range(5)]
    ts = np.linspace(0.0, 1.0, 5)
    c = SampledCurve(ts, pts, any_space)
    back = curve_from_csv(curve_to_csv(c), any_space)
    assert back.times == pytest.approx(c.times)
    for p, q in zip(back.points, c.points):
        assert p.coords == pytest.approx(q.coords, abs=1e-10)


def test_every_half_line_sweep_slope_goes_through_descending_slope(monkeypatch):
    # the benchmark's tracer counts slopes by wrapping each module binding of
    # ``descending_slope``; a sweep that evaluated the closed form past it
    # would hide its slopes from the trace
    import sys
    from dataclasses import replace

    from metric_action_lab import functionals

    counts = {"descending_slope": 0, "closed_form": 0}
    original = functionals.descending_slope

    def counted(*args, **kwargs):
        counts["descending_slope"] += 1
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "metric_action_lab" or name.startswith("metric_action_lab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    f = ramp(8.0)
    slope = f.closed_form_slope

    def closed_form(x):
        counts["closed_form"] += 1
        return slope(x)

    from metric_action_lab.harness import _sweep_nodes

    x0, x1 = HL.point(0.0), HL.point(1.0)
    _sweep_nodes(replace(f, closed_form_slope=closed_form), HL, x0, x1, geodesic_curve(HL, x0, x1, 16))
    assert counts["closed_form"] > 1000
    assert counts["descending_slope"] == counts["closed_form"]
