"""Bad numbers at the public surface.

Every function the package exports that takes a space or a point raises
only library errors, and no call returns a point with a non-finite
coordinate.  Points enter through ``SpaceHandle.point``, which rejects
``nan`` and infinite coordinates and a tripod edge that is not one of the
space's; finite coordinates near 1e200 go through to every function, and
a point of a 2-edge tripod to a 3-edge one and back.  Grids and step
counts stay at 64 or below, so no draw allocates a large array.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_action_lab import (
    FunctionalFamily,
    FunctionalSpec,
    Piece,
    Point,
    RecoveryConfig,
    RecoveryMode,
    SampledCurve,
    SpaceKind,
    SupFormula,
    action,
    amgm_lower_bound,
    build_functional,
    build_recovery,
    check_bound_chain,
    check_cat0,
    check_contraction,
    check_energy_identity,
    check_evi,
    check_lambda_convexity,
    check_resolvent_identity,
    check_resolvent_lipschitz,
    check_slope_bounds_along_flow,
    check_tau_continuity,
    concatenate_rescale,
    curve_from_csv,
    curve_to_csv,
    descending_slope,
    distance,
    euclidean,
    evaluate,
    flow,
    flow_times,
    geodesic_curve,
    geodesic_point,
    half_line,
    inverse_square,
    linear_half_line,
    metric_speed,
    minimize_action,
    piece_diagnostics,
    quadratic,
    quantile_1d,
    ramp,
    random_point,
    resolvent,
    resolvent_convergence_probe,
    tripod,
    uniform_distance,
    zero_functional,
)
from metric_action_lab.errors import DomainError, MetricActionError
from metric_action_lab.functionals import strip_closed_forms

E1, E2, HL = euclidean(1), euclidean(2), half_line()


# --------------------------------------------------------------------------
# overflows and other bad inputs, one case each
# --------------------------------------------------------------------------

TRIPOD, TRIPOD2 = tripod(), tripod((1.0, 1.0))
ON_EDGE_2 = TRIPOD.point(2, 0.7)    # an edge that TRIPOD2 does not have
# nodes 1e10 apart at times 1e-300 apart: the speed itself overflows
FAST = SampledCurve(np.array([0.0, 1e-300]), [E1.point(0.0), E1.point(1e10)], E1)


def _recovery(x0h, x1=1.0, h=4, tau=None):
    """A flow-mode recovery of the zero functional on E^1 around the
    segment from 0 to ``x1``, from ``x0h`` to ``x1``."""
    base = geodesic_curve(E1, E1.point(0.0), E1.point(x1), 4)
    cfg = RecoveryConfig(RecoveryMode.FLOW, base, lambda h: x0h, lambda h: base.end, tau=tau)
    return build_recovery(zero_functional(E1), cfg, h)


# a closed-form prox that lands 2e200 away from its start
_FAR = FunctionalSpec("far", lambda x: 0.0, 0.0, closed_form_prox=lambda tau, x: E1.point(-1e200))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_cat0(E1, E1.point(1e200), E1.point(-1e200), E1.point(0.0)),
         "squared distance overflows between"),
        (lambda: check_lambda_convexity(zero_functional(E1), E1, [(E1.point(1e200), E1.point(-1e200))]),
         "squared distance overflows between"),
        (lambda: check_evi(geodesic_curve(E1, E1.point(1e200), E1.point(0.0), 4), zero_functional(E1), 0.0,
                           E1.point(-1e200), E1),
         "squared distance overflows between"),
        # the optimality probe steps 1e-7 times the coordinate
        (lambda: resolvent(strip_closed_forms(linear_half_line(2.0)), HL, 0.1, HL.point(1e200)),
         "resolvent objective overflows"),
        (lambda: resolvent(strip_closed_forms(zero_functional(E2)), E2, 0.1, E2.point(1e200, 1e200)),
         "squared distance overflows between"),
        (lambda: resolvent(_FAR, E1, 0.1, E1.point(1e200)), "squared distance overflows between"),
        (lambda: flow(zero_functional(E1), E1, E1.point(0.0), 1.0, 2.5), "an integer n_steps >= 1"),
        (lambda: minimize_action(zero_functional(E1), E1, E1.point(0.0), E1.point(1.0), 2.5),
         "an integer number of intervals >= 1"),
        # found by the draws below
        (lambda: distance(E2, E1.point(0.0), E2.point(0.0, 0.0)), "expected 2 coordinates, got 1"),
        (lambda: descending_slope(strip_closed_forms(zero_functional(E2)), E2, E1.point(0.0)),
         "expected 2 coordinates, got 1"),
        (lambda: descending_slope(strip_closed_forms(zero_functional(TRIPOD)), TRIPOD, HL.point(0.5)),
         "point tagged half_line used with tripod space"),
        (lambda: check_slope_bounds_along_flow(quadratic(E1, E1.point(0.0)), E1, E1.point(1.0), 1e200, 8),
         "exp(lam t) overflows"),
        (lambda: check_energy_identity(geodesic_curve(E1, E1.point(1e200), E1.point(0.0), 4),
                                       zero_functional(E1), E1),
         "the kinetic term of the action overflows"),
        (lambda: flow_times(zero_functional(E1), E1, E1.point(0.0), [math.inf, math.inf]),
         "resolvent failed at step 0: step nan outside"),
        (lambda: minimize_action(zero_functional(E1), E1, E1.point(1e200), E1.point(1e200), 2),
         "the Newton step of the action overflows"),
        (lambda: _recovery(E1.point(0.0), h=0), "index h must be positive, got 0"),
        (lambda: _recovery(E1.point(0.0), tau=math.nan), "recovery step tau must be positive, got nan"),
        (lambda: _recovery(E1.point(1e200)), "an endpoint gap of 1e+200 needs more than 100000 repair nodes"),
        (lambda: piece_diagnostics(_recovery(E1.point(0.0), x1=1e200)),
         "the kinetic integral of the middle piece overflows"),
        (lambda: TRIPOD.point(1.7, 0.5), "edge index 1.7 out of range"),
        (lambda: TRIPOD.point(-0.5, 0.2), "edge index -0.5 out of range"),
        (lambda: distance(TRIPOD2, ON_EDGE_2, TRIPOD2.point(0, 0.0)), "edge index 2 out of range"),
        (lambda: distance(TRIPOD, Point(SpaceKind.TRIPOD, (1.7, 0.5)), TRIPOD.point(1, 0.5)),
         "edge index 1.7 out of range"),
        (lambda: distance(TRIPOD, TRIPOD.point(1, 0.5), Point(SpaceKind.TRIPOD, (-1.0, 0.5))),
         "edge index -1 out of range"),
        (lambda: geodesic_point(TRIPOD2, ON_EDGE_2, TRIPOD2.point(0, 0.5), 0.5), "edge index 2 out of range"),
        (lambda: descending_slope(strip_closed_forms(quadratic(TRIPOD2, TRIPOD2.point(0, 0.5))), TRIPOD2,
                                  ON_EDGE_2), "edge index 2 out of range"),
        (lambda: resolvent(strip_closed_forms(quadratic(TRIPOD2, TRIPOD2.point(0, 0.5))), TRIPOD2, 0.3,
                           ON_EDGE_2), "edge index 2 out of range"),
        (lambda: E1.project([math.nan]), "point coordinates must be finite"),
        (lambda: HL.project([math.inf]), "point coordinates must be finite"),
        (lambda: quantile_1d(3).project([0.0, math.nan, 1.0]), "point coordinates must be finite"),
        (lambda: TRIPOD.project([math.nan, 0.5]), "point coordinates must be finite"),
        (lambda: metric_speed(FAST), "the metric speed overflows between nodes 0 and 1"),
        (lambda: check_energy_identity(FAST, zero_functional(E1), E1),
         "the metric speed overflows between nodes 0 and 1"),
    ],
    ids=["check_cat0", "check_lambda_convexity", "check_evi", "line_objective", "vector_objective",
         "prox_value", "flow_n_steps", "minimize_action_N", "distance_lengths", "sup_formula_length",
         "sup_formula_kind", "slope_bounds_exp", "energy_identity_kinetic", "flow_times_inf",
         "newton_step", "recovery_h", "recovery_tau", "recovery_repair_nodes", "piece_kinetic",
         "point_fractional_edge", "point_negative_edge", "distance_missing_edge", "distance_fractional_edge",
         "distance_negative_edge", "geodesic_missing_edge",
         "sup_formula_missing_edge", "resolvent_missing_edge", "project_nan", "project_inf",
         "project_quantile_nan", "project_tripod_nan", "metric_speed", "energy_identity_speed"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflows_and_bad_inputs_are_domain_errors(call, message):
    # Python's float ** raises OverflowError where * would give inf, numpy's
    # linspace a TypeError on a fractional count, and math.dist a ValueError
    # on unequal lengths; numpy's overflow is a RuntimeWarning
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


# --------------------------------------------------------------------------
# every exported function that takes a space or a point
# --------------------------------------------------------------------------

# E^1 and E^2, and quantile_1d(3) and (4), are one kind with different
# numbers of coordinates, and the two tripods one kind with different edges
TRIPODS = [tripod((1.0, 2.0, 3e200)), tripod((1.0, 1.0))]
SPACES = [E1, E2, HL, *TRIPODS, quantile_1d(3), quantile_1d(4)]
BAD = [math.nan, math.inf, -math.inf]
EDGES = st.sampled_from([0.5, 1.7, -0.5, 2.0, 3.0])                    # fractional or missing edges
DTS = st.sampled_from([1e-300, 1e-150, 1e-10, 0.25])                    # a curve's time steps
STEPS = st.sampled_from([0.1, 0.45, 2.0, 0.0, -0.1, 1e200, *BAD])        # tau, T and t
PARAMS = st.sampled_from([0.0, 0.5, 1.0, -0.1, 1.5, *BAD])               # a geodesic's t
COUNTS = st.sampled_from([1, 2, 8, 64, 0, -1, 2.5, math.nan])           # N and n_steps


def space(draw):
    return draw(st.sampled_from(SPACES))


def point(draw, sp):
    """A point that ``sp.point`` builds from coordinates of size at most 1
    or about 1e200, one of which may be nan or infinite, and a tripod edge
    that may be fractional or missing; or, one time in five, a point of
    another space, for a tripod half the time the other tripod.  A
    recovery's repair piece takes 100 nodes per unit of its endpoint gap,
    so gaps in between make slow draws."""
    if draw(st.integers(0, 4)) == 0:
        tripods = sp.kind is SpaceKind.TRIPOD and draw(st.booleans())
        sp = draw(st.sampled_from(TRIPODS)) if tripods else space(draw)
    big = st.floats(0.5, 1.0).map(lambda v: v * 1e200)
    size = draw(st.sampled_from([st.floats(0.0, 1.0), big]))
    if sp.kind is SpaceKind.TRIPOD:
        e = draw(st.integers(0, len(sp.edge_lengths) - 1))
        coords = [e, min(draw(size), sp.edge_lengths[e])]
        if draw(st.integers(0, 4)) == 0:
            coords[0] = draw(EDGES)
    else:
        coords = [draw(size) * draw(st.sampled_from([1.0, -1.0])) for _ in range(sp.dim)]
        coords = [abs(c) for c in coords] if sp.kind is SpaceKind.HALF_LINE else sorted(coords)
    if draw(st.integers(0, 3)) == 0:
        coords[draw(st.integers(0, len(coords) - 1))] = draw(st.sampled_from(BAD))
    return sp.point(*coords)


def functional(draw, sp):
    """A catalogue functional on ``sp``, closed forms stripped half the time."""
    fs = [lambda: zero_functional(sp),
          lambda: quadratic(sp, point(draw, sp), draw(st.sampled_from([1.0, 2.0, -0.5])))]
    if sp.kind is SpaceKind.HALF_LINE:
        fs += [lambda: linear_half_line(2.0), lambda: ramp(4.0), lambda: inverse_square(0.5)]
    f = draw(st.sampled_from(fs))()
    return strip_closed_forms(f) if draw(st.booleans()) else f


def curve(draw, sp):
    """A geodesic between two drawn points or, one time in four, drawn
    points at time steps down to 1e-300."""
    if draw(st.integers(0, 3)) == 0:
        times = np.cumsum([0.0, *draw(st.lists(DTS, min_size=1, max_size=4))])
        return SampledCurve(times, [point(draw, sp) for _ in times], sp)
    return geodesic_curve(sp, point(draw, sp), point(draw, sp), draw(COUNTS))


def with_f(call):
    """``call(draw, space, f)`` with a drawn space and functional on it."""
    def run(draw):
        sp = space(draw)
        return call(draw, sp, functional(draw, sp))
    return run


def on_space(call):
    return lambda draw: call(draw, space(draw))


def recovery(draw, sp, f):
    x0h, x1h = point(draw, sp), point(draw, sp)
    mode = draw(st.sampled_from([RecoveryMode.RESOLVENT, RecoveryMode.FLOW]))
    cfg = RecoveryConfig(mode, curve(draw, sp), lambda h: x0h, lambda h: x1h, tau=draw(st.none() | STEPS))
    return build_recovery(f, cfg, draw(COUNTS))


CALLS = {
    "point": on_space(point),
    "project": on_space(lambda d, sp: sp.project(
        d(st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.7, 1e200, -1e200, *BAD]), min_size=1, max_size=4)))),
    "random_point": on_space(lambda d, sp: random_point(sp, np.random.default_rng(d(st.integers(0, 9))))),
    "distance": on_space(lambda d, sp: distance(sp, point(d, sp), point(d, sp))),
    "geodesic_point": on_space(lambda d, sp: geodesic_point(sp, point(d, sp), point(d, sp), d(PARAMS))),
    "check_cat0": on_space(lambda d, sp: check_cat0(sp, point(d, sp), point(d, sp), point(d, sp))),
    "build_functional": on_space(lambda d, sp: build_functional(
        sp, "quadratic", {"center": [d(st.sampled_from([0.0, 1e200, *BAD]))] * sp.dim, "lam": d(PARAMS)})),
    "evaluate": with_f(lambda d, sp, f: evaluate(f, point(d, sp))),
    "descending_slope": with_f(lambda d, sp, f: descending_slope(
        f, sp, point(d, sp), d(st.sampled_from([None, SupFormula()])))),
    "check_lambda_convexity": with_f(lambda d, sp, f: check_lambda_convexity(
        f, sp, [(point(d, sp), point(d, sp))])),
    "resolvent": with_f(lambda d, sp, f: resolvent(f, sp, d(STEPS), point(d, sp))),
    "check_bound_chain": with_f(lambda d, sp, f: check_bound_chain(f, sp, d(STEPS), point(d, sp))),
    "check_resolvent_lipschitz": with_f(lambda d, sp, f: check_resolvent_lipschitz(
        f, sp, d(STEPS), point(d, sp), point(d, sp))),
    "check_tau_continuity": with_f(lambda d, sp, f: check_tau_continuity(
        f, sp, d(STEPS), d(STEPS), point(d, sp))),
    "check_resolvent_identity": with_f(lambda d, sp, f: check_resolvent_identity(
        f, sp, d(STEPS), d(STEPS), point(d, sp))),
    "resolvent_convergence_probe": with_f(lambda d, sp, f: resolvent_convergence_probe(
        FunctionalFamily(member=lambda h: f, limit=f), sp, d(STEPS), point(d, sp), [1, 2])),
    "flow": with_f(lambda d, sp, f: flow(f, sp, point(d, sp), d(STEPS), d(COUNTS))),
    "flow_times": with_f(lambda d, sp, f: flow_times(
        f, sp, point(d, sp), d(st.lists(STEPS, max_size=8)))),
    "check_contraction": with_f(lambda d, sp, f: check_contraction(
        f, sp, point(d, sp), point(d, sp), d(STEPS), d(COUNTS))),
    "check_slope_bounds_along_flow": with_f(lambda d, sp, f: check_slope_bounds_along_flow(
        f, sp, point(d, sp), d(STEPS), d(COUNTS))),
    "check_evi": with_f(lambda d, sp, f: check_evi(curve(d, sp), f, f.lam, point(d, sp), sp)),
    "check_energy_identity": with_f(lambda d, sp, f: check_energy_identity(curve(d, sp), f, sp)),
    "geodesic_curve": on_space(curve),
    # four Newton steps at most: the sup-formula slopes of a stripped functional would take 400
    "minimize_action": with_f(lambda d, sp, f: minimize_action(
        f, sp, point(d, sp), point(d, sp), d(COUNTS), max_iter=4)),
    "action": with_f(lambda d, sp, f: action(curve(d, sp), f, point(d, sp), point(d, sp))),
    "amgm_lower_bound": with_f(lambda d, sp, f: amgm_lower_bound(
        curve(d, sp), lambda p: descending_slope(f, sp, p))),
    "metric_speed": on_space(lambda d, sp: metric_speed(curve(d, sp))),
    "uniform_distance": on_space(lambda d, sp: uniform_distance(curve(d, sp), curve(d, sp))),
    "curve_csv": on_space(lambda d, sp: curve_from_csv(curve_to_csv(curve(d, sp)), sp)),
    "concatenate_rescale": on_space(lambda d, sp: concatenate_rescale(
        [Piece(curve(d, sp), d(STEPS)), Piece(curve(d, sp), d(STEPS))])),
    "build_recovery": with_f(recovery),
    "piece_diagnostics": with_f(lambda d, sp, f: piece_diagnostics(recovery(d, sp, f))),
}


def points_in(obj):
    """The points in a result: itself, its items, or its dataclass fields."""
    if isinstance(obj, Point):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from points_in(item)
    elif dataclasses.is_dataclass(obj):
        for fld in dataclasses.fields(obj):
            yield from points_in(getattr(obj, fld.name))


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_public_functions_raise_only_library_errors(name, data):
    try:
        result = CALLS[name](data.draw)
    except MetricActionError:
        return
    bad = [p.coords for p in points_in(result) if not all(map(math.isfinite, p.coords))]
    assert bad == []
