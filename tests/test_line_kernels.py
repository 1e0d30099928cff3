"""Bit-for-bit references for the 1-d searches on the half-line and the tripod.

The resolvent solvers on both spaces and the half-line node-wise sweep
minimize float objectives of one line coordinate, built on
``spaces.distance_along``.  The references below are the same objectives
written on points, through ``distance``: the resolvent objective
``obj(Point)`` and the sweep's ``local(Point)``.  Every comparison is exact
(``==``): a kernel that changes one bit fails here.
"""

import functools
import math

import numpy as np
import pytest

from metric_action_lab import distance, half_line, tripod
from metric_action_lab.curves import (
    _update_node_half_line,
    geodesic_curve,
    minimize_action,
)
from metric_action_lab.errors import DomainError, SpaceMismatchError
from metric_action_lab.functionals import (
    INF,
    evaluate,
    inverse_square,
    quadratic,
    ramp,
    slope_squared,
    strip_closed_forms,
)
from metric_action_lab.proximal import (
    expand_bracket,
    golden_section,
    grid_golden,
    resolvent,
)
from metric_action_lab.spaces import (
    Point,
    SpaceKind,
    distance_along,
    euclidean,
    point_along,
    random_point,
)

HL = half_line()
TP = tripod()
TP_UNEVEN = tripod((1.0, 0.5, 2.0))


def ref_prox_objective(f, space, tau, x):
    def obj(y: Point) -> float:
        fy = evaluate(f, y)
        if not math.isfinite(fy):
            return INF
        return fy + distance(space, y, x) ** 2 / (2.0 * tau)

    return obj


def ref_local(space, f, p_prev, p_next, dt0, dt1, w):
    def local(p: Point) -> float:
        gp = slope_squared(f, space, p)
        if not math.isfinite(gp):
            return INF
        return distance(space, p_prev, p) ** 2 / dt0 + distance(space, p, p_next) ** 2 / dt1 + w * gp

    return local


def ref_grid_golden(g, lo, hi):
    grid = np.linspace(lo, hi, 17)
    vals = [g(v) for v in grid]
    j = int(np.argmin(vals))
    x, v, _ = golden_section(g, grid[max(j - 1, 0)], grid[min(j + 1, 16)])
    return x, v


def ref_per_edge(space, g, tol):
    out = []
    for e, length in enumerate(space.edge_lengths):
        s, v, n = golden_section(lambda s: g(Point(SpaceKind.TRIPOD, (float(e), s))), 0.0, length, tol)
        out.append((Point(SpaceKind.TRIPOD, (float(e), s)), v, n))
    return out


# --------------------------------------------------------------------------
# distance along a line
# --------------------------------------------------------------------------


@pytest.mark.parametrize("space", [HL, TP, TP_UNEVEN], ids=["half_line", "tripod", "tripod_uneven"])
def test_distance_along_is_distance_bit_for_bit(space, rng):
    edges = range(len(space.edge_lengths)) if space.kind is SpaceKind.TRIPOD else [0]
    for _ in range(200):
        q = random_point(space, rng)
        for e in edges:
            at, dist = point_along(space, e), distance_along(space, q, e)
            for s in rng.uniform(0.0, space.edge_lengths[e] if space.edge_lengths else 3.0, size=5):
                p = at(float(s))
                assert dist(float(s)) == distance(space, p, q) == distance(space, q, p)


def test_line_kernels_need_a_line():
    E2 = euclidean(2)
    with pytest.raises(DomainError):
        point_along(E2)
    with pytest.raises(DomainError):
        distance_along(E2, E2.point(0.0, 0.0))


def test_grid_golden_probes_the_linspace_grid(rng):
    for lo in rng.uniform(-5.0, 5.0, size=100):
        hi = lo + rng.uniform(1e-6, 10.0)
        seen = []
        grid_golden(lambda v: seen.append(v) or (v - 0.3) ** 2, float(lo), float(hi))
        assert seen[:17] == list(np.linspace(lo, hi, 17))
    # ties go to the first grid point, as np.argmin
    assert grid_golden(lambda v: 0.0, 0.0, 1.0)[3] == 0.0


# --------------------------------------------------------------------------
# resolvents
# --------------------------------------------------------------------------


HALF_LINE_CASES = [
    (inverse_square(1.0), 0.5, 0.1),
    (inverse_square(1.0), 2.0, 0.5),
    (inverse_square(0.01), 0.05, 0.02),
    (strip_closed_forms(quadratic(HL, HL.point(0.7), 1.0)), 0.0, 0.3),
    (strip_closed_forms(quadratic(HL, HL.point(0.7), 1.0)), 1.9, 0.05),
    (strip_closed_forms(quadratic(HL, HL.point(0.7), 2.5)), 0.7, 1.0),
]


@pytest.mark.parametrize("f, x0, tau", HALF_LINE_CASES)
def test_half_line_resolvent_matches_point_reference(f, x0, tau):
    x = HL.point(x0)
    obj = ref_prox_objective(f, HL, tau, x)
    g = lambda v: obj(Point(SpaceKind.HALF_LINE, (v,)))
    lo, hi = expand_bracket(g, x0, 0.0)
    v, val, n = golden_section(g, lo, hi)
    res = resolvent(f, HL, tau, x)
    assert res.method == "golden_section"
    assert res.point == Point(SpaceKind.HALF_LINE, (v,))
    assert res.value == val
    assert res.iterations == n


TRIPOD_XS = [(0, 0.0), (0, 0.4), (1, 0.3), (1, 0.45), (2, 0.25), (2, 1.0)]


@pytest.mark.parametrize("space", [TP, TP_UNEVEN], ids=["tripod", "tripod_uneven"])
@pytest.mark.parametrize("x_coords", TRIPOD_XS)
def test_tripod_resolvent_matches_point_reference(space, x_coords):
    f = strip_closed_forms(quadratic(space, space.point(1, 0.3), 1.5))
    x, tau = space.point(*x_coords), 0.2
    edges = ref_per_edge(space, ref_prox_objective(f, space, tau, x), 1e-11)
    u, val, _ = min(edges, key=lambda e: e[1])
    res = resolvent(f, space, tau, x)
    assert res.method == "per_edge_golden"
    assert res.point == u
    assert res.value == val
    assert res.iterations == sum(n for _, _, n in edges)


# --------------------------------------------------------------------------
# node updates of the sweep
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f, nodes",
    [
        (ramp(8.0), (0.05, 0.11, 0.3)),
        (ramp(8.0), (0.0, 0.0, 0.125)),
        (inverse_square(0.1), (0.4, 0.9, 1.3)),
    ],
)
def test_half_line_node_update_matches_point_reference(f, nodes):
    p_prev, p, p_next = (HL.point(v) for v in nodes)
    dt0, dt1, span = 1.0 / 16, 1.0 / 32, 0.25
    w = 0.5 * (dt0 + dt1)
    local = ref_local(HL, f, p_prev, p_next, dt0, dt1, w)
    lo = max(min(nodes) - span, 0.0)
    hi = max(nodes) + span
    v, value = ref_grid_golden(lambda u: local(Point(SpaceKind.HALF_LINE, (u,))), lo, hi)
    g = functools.partial(slope_squared, f, HL)
    newp, newv, oldv, move = _update_node_half_line(HL, g, p_prev, p, p_next, dt0, dt1, w, span)
    assert newp == Point(SpaceKind.HALF_LINE, (v,))
    assert newv == value
    assert oldv == local(p)
    assert move == distance(HL, p, newp)


# --------------------------------------------------------------------------
# tags are still checked
# --------------------------------------------------------------------------


def test_line_kernels_reject_mis_tagged_point():
    with pytest.raises(SpaceMismatchError):
        distance_along(HL, Point(SpaceKind.EUCLIDEAN, (0.5,)))
    for e in range(3):
        with pytest.raises(SpaceMismatchError):
            distance_along(TP, Point(SpaceKind.EUCLIDEAN, (0.0, 0.5)), e)
    g = functools.partial(slope_squared, ramp(4.0), HL)
    wrong = Point(SpaceKind.EUCLIDEAN, (0.5,))
    with pytest.raises(SpaceMismatchError):
        _update_node_half_line(HL, g, wrong, HL.point(0.2), HL.point(0.4), 0.1, 0.1, 0.1, 0.1)


def test_resolvent_rejects_mis_tagged_point():
    wrong = Point(SpaceKind.EUCLIDEAN, (0.5,))
    for f in (inverse_square(1.0), strip_closed_forms(quadratic(HL, HL.point(0.2)))):
        with pytest.raises(SpaceMismatchError):
            resolvent(f, HL, 0.1, wrong)
    f = strip_closed_forms(quadratic(TP, TP.point(1, 0.3)))
    with pytest.raises(SpaceMismatchError):
        resolvent(f, TP, 0.1, Point(SpaceKind.EUCLIDEAN, (0.0, 0.5)))


def test_minimize_action_rejects_mis_tagged_point():
    wrong = Point(SpaceKind.EUCLIDEAN, (1.0,))
    with pytest.raises(SpaceMismatchError):
        minimize_action(ramp(4.0), HL, HL.point(0.0), wrong, 8)
    init = geodesic_curve(HL, HL.point(0.0), HL.point(1.0), 8)
    init.points[4] = Point(SpaceKind.EUCLIDEAN, (0.5,))
    with pytest.raises(SpaceMismatchError):
        minimize_action(ramp(4.0), HL, HL.point(0.0), HL.point(1.0), 8, init=init)
    f = quadratic(TP, TP.point(1, 0.3))
    with pytest.raises(SpaceMismatchError):
        minimize_action(f, TP, Point(SpaceKind.EUCLIDEAN, (0.0, 0.5)), TP.point(2, 0.5), 8)
