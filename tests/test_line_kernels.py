"""Bit-for-bit references for the 1-d searches on the half-line and the
tripod, and Brent's method against golden section.

The resolvent solvers on both spaces and the node-wise sweep of the
example-2 search (``harness._update_node_half_line``) minimize float
objectives of one line coordinate: the resolvents' built on
``spaces.distance_along``, the sweep's on the node coordinates themselves.
The references below are the same objectives written on points, through
``distance``: the resolvent objective ``obj(Point)`` and the sweep's
``local(Point)``.  Golden section's reference is its loop as it was
before it kept the values of its bracket ends.  Every reference
comparison is exact (``==``): a kernel that changes one bit fails here.
Brent's values are held to golden section's within 1e-15 relative.
"""

import functools
import math

import numpy as np
import pytest

from metric_action_lab import distance, half_line, tripod
from metric_action_lab.curves import minimize_action
from metric_action_lab.errors import DomainError
from metric_action_lab.functionals import (
    INF,
    descending_slope,
    evaluate,
    inverse_square,
    quadratic,
    ramp,
    slope_squared,
    strip_closed_forms,
)
from metric_action_lab.harness import _update_node_half_line
from metric_action_lab.proximal import (
    brent,
    expand_bracket,
    golden_section,
    grid_golden,
    resolvent,
    tripod_edge_search,
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


def ref_golden_section(g, lo, hi, tol=1e-11):
    """Golden section as it was before it kept its end values: it evaluates
    both bracket ends again at the end, and restarts on a plateau's end
    piece by recursion."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c, d = b - golden * (b - a), a + golden * (b - a)
    gc, gd = g(c), g(d)
    n = 2
    if b - a > tol and not (math.isfinite(gc) or math.isfinite(gd)):
        ga, gb, n = g(a), g(b), 4
        if min(ga, gb) < INF:
            x, v, m = ref_golden_section(g, a, c, tol) if ga <= gb else ref_golden_section(g, d, b, tol)
            return x, v, n + m
    while b - a > tol:
        if gc <= gd:
            b, d, gd = d, c, gc
            c = b - golden * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + golden * (b - a)
            gd = g(d)
        n += 1
        if n > 300:
            break
    xs = [(a, g(a)), (c, gc), (d, gd), (b, g(b))]
    x, v = min(xs, key=lambda p: p[1])
    return x, v, n + 2


def ref_grid_golden(g, lo, hi):
    grid = np.linspace(lo, hi, 17)
    vals = [g(v) for v in grid]
    j = int(np.argmin(vals))
    x, v, _ = ref_golden_section(g, grid[max(j - 1, 0)], grid[min(j + 1, 16)])
    return x, v


def ref_per_edge(space, g):
    g0 = g(Point(SpaceKind.TRIPOD, (0.0, 0.0)))
    out = []
    for e, length in enumerate(space.edge_lengths):
        line = lambda s: g(Point(SpaceKind.TRIPOD, (float(e), s)))
        s, v, n = tripod_edge_search(line, length, g0)
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
    # ties go to the first grid point, as np.argmin, so golden section runs
    # between it and its right neighbour
    assert 0.0 <= grid_golden(lambda v: 0.0, 0.0, 1.0)[0] <= 1.0 / 16


# --------------------------------------------------------------------------
# resolvents
# --------------------------------------------------------------------------


HALF_LINE_CASES = [
    (strip_closed_forms(inverse_square(1.0)), 0.5, 0.1),
    (strip_closed_forms(inverse_square(1.0)), 2.0, 0.5),
    (strip_closed_forms(inverse_square(0.01)), 0.05, 0.02),
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
    v, val, n = brent(g, lo, hi)
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
    edges = ref_per_edge(space, ref_prox_objective(f, space, tau, x))
    u, val, _ = min(edges, key=lambda e: e[1])
    res = resolvent(f, space, tau, x)
    assert res.method == "per_edge_golden"
    assert res.point == u
    assert res.value == val
    assert res.iterations == 1 + sum(n for _, _, n in edges)


def test_tripod_branch_point_without_descending_edge_is_edge_zero():
    # the minimizer is the branch point itself, so no edge descends and
    # every edge returns offset 0 at the same value: the first edge wins
    f = strip_closed_forms(quadratic(TP, TP.point(0, 0.0), 1.0))
    for e in range(3):
        res = resolvent(f, TP, 0.2, TP.point(e, 0.0))
        assert res.point == Point(SpaceKind.TRIPOD, (0.0, 0.0))
        assert res.iterations == 4


# --------------------------------------------------------------------------
# Brent against golden section
# --------------------------------------------------------------------------


@pytest.mark.parametrize("lo, hi, centre", [(0.5, 0.7, 0.55), (0.0, 0.5, 0.45), (0.45, 1.0, 0.3)])
def test_brent_inf_plateaus_lose_every_comparison(lo, hi, centre):
    # an effective domain [lo, hi] inside the bracket [0, 1]: the first
    # probes land on an inf plateau, so a parabola through them is skipped
    seen = []

    def g(s):
        seen.append(s)
        return (s - centre) ** 2 if lo <= s <= hi else INF

    s, v, _ = brent(g, 0.0, 1.0)
    assert any(not (lo <= p <= hi) for p in seen[:3])
    assert abs(s - max(centre, lo)) <= 1e-8 and v == g(s)
    assert v <= golden_section(g, 0.0, 1.0)[1]


@pytest.mark.parametrize("kernel", [golden_section, brent])
@pytest.mark.parametrize(
    "domain, centre",
    [(lambda s: s >= 0.7, 0.9), (lambda s: s <= 0.3, 0.1)],
    ids=["right_piece", "left_piece"],
)
def test_inf_plateau_over_both_first_probes(kernel, domain, centre):
    # the plateau covers both first interior probes (0.382 and 0.618 of the
    # bracket), so the domain is an end piece and the search must find it
    g = lambda s: (s - centre) ** 2 if domain(s) else INF
    s, v, _ = kernel(g, 0.0, 1.0)
    assert abs(s - centre) <= 1e-8 and v == g(s)


def golden_cases(rng):
    """Seeded ``(g, lo, hi)``: smooth and kinked objectives, a step like the
    ramp's slope, minima at the bounds, and ``inf`` plateaus over both first
    probes (twice in a row for the nested ones)."""
    for _ in range(40):
        lo, width = rng.uniform(-2.0, 2.0), rng.uniform(1e-6, 5.0)
        m, k = lo + rng.uniform(-0.2, 1.2) * width, rng.uniform(0.1, 10.0)
        yield lambda s, m=m, k=k: k * (s - m) ** 2 + math.cos(s), lo, lo + width
        yield lambda s, m=m, k=k: k * abs(s - m) + 0.1 * s * s, lo, lo + width
        yield lambda s, m=m, k=k: (s - m) ** 2 + (k if s < m + 0.1 * width else 0.0), lo, lo + width
        for frac in (0.2, 0.05, 0.8, 0.97):     # 0.05 and 0.97 leave a plateau inside the end piece
            edge = lo + frac * width
            centre = lo + rng.uniform(0.0, 1.0) * width
            domain = (lambda s, e=edge: s <= e) if frac < 0.5 else (lambda s, e=edge: s >= e)
            yield lambda s, c=centre, ok=domain: (s - c) ** 2 if ok(s) else INF, lo, lo + width
    yield lambda s: INF, 0.0, 1.0
    yield lambda s: 1.0, 0.0, 1e-12


def test_golden_section_matches_its_reference_bit_for_bit(rng):
    for g, lo, hi in golden_cases(rng):
        assert golden_section(g, lo, hi)[:2] == ref_golden_section(g, lo, hi)[:2]


def test_golden_section_evaluates_every_point_once_and_counts_its_calls(rng):
    for g, lo, hi in golden_cases(rng):
        seen = []
        n = golden_section(lambda s: seen.append(s) or g(s), lo, hi)[2]
        assert n == len(seen)
        assert len(set(seen)) == len(seen)      # no bracket end is evaluated again


def test_brent_returns_a_minimum_at_a_bound_exactly():
    assert brent(lambda s: (s - 0.2) ** 2, 0.2, 3.0)[:2] == (0.2, 0.0)
    assert brent(lambda s: -s, -1.0, 2.5)[:2] == (2.5, -2.5)
    assert brent(lambda s: abs(s - 0.7), 0.0, 1.0)[0] == pytest.approx(0.7, abs=1e-11)


def seeded_quadratics(m_lo=0.0, m_hi=1.0, count=500):
    """``c + K (s - m)^2`` on [0, 1], K log-uniform in [1, 1e6]."""
    rng = np.random.default_rng(23)
    for _ in range(count):
        c, k, m = rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(0.0, 6.0), rng.uniform(m_lo, m_hi)
        yield lambda s, c=c, k=k, m=m: c + k * (s - m) ** 2


def test_brent_stops_once_its_values_tie():
    # the parabola lands on the minimizer within a few probes; the probes
    # next to it then read the same value, and the tie closes the bracket.
    # Minimizers stay 0.05 inside the bracket: nearer a bound, Brent first
    # walks towards it by golden steps until a parabolic step is less than
    # half the step before last.
    counts = [brent(g, 0.0, 1.0)[2] for g in seeded_quadratics(0.05, 0.95)]
    assert max(counts) <= 8


def flat_bottoms(count=200):
    """Convex ``g`` on [0, 1] with squared or linear walls that takes its
    minimum 0 on a whole interval, with that interval."""
    rng = np.random.default_rng(24)
    for _ in range(count):
        c, r = rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-3.0, -0.5)
        k, p = 10.0 ** rng.uniform(0.0, 4.0), int(rng.integers(1, 3))
        yield (lambda s, c=c, r=r, k=k, p=p: k * max(0.0, abs(s - c) - r) ** p), (c - r, c + r)


def convex_cases():
    return list(seeded_quadratics()) + [g for g, _ in flat_bottoms()]


def test_brent_never_above_golden_section():
    for g in convex_cases():
        ref = golden_section(g, 0.0, 1.0)[1]
        assert brent(g, 0.0, 1.0)[1] <= ref + 1e-15 * abs(ref)


def test_brent_evaluates_every_point_once_and_counts_its_calls(rng):
    # neither a tie nor a step towards the far end lands on a known point,
    # and a plateau over both first probes restarts the search on the end
    # piece with the end values it knows, nested plateaus included
    for g, lo, hi in [(g, 0.0, 1.0) for g in convex_cases()] + list(golden_cases(rng)):
        seen = []
        n = brent(lambda s: seen.append(s) or g(s), lo, hi)[2]
        assert n == len(seen)
        assert len(set(seen)) == len(seen)


def test_brent_returns_a_point_of_a_flat_bottom():
    # two probes inside the minimizing set tie, and a convex function has a
    # minimizer between them, so the search ends there; golden steps to the
    # 1e-11 width would take 38 to 58 evaluations
    for g, (lo_min, hi_min) in flat_bottoms():
        s, v, n = brent(g, 0.0, 1.0)
        assert lo_min <= s <= hi_min and v == 0.0
        assert n <= 20


def golden_reference_value(f, space, tau, x):
    """The resolvent value of golden section on the half-line's bracket,
    or the least over golden section on every tripod edge."""
    obj = ref_prox_objective(f, space, tau, x)
    if space.kind is SpaceKind.HALF_LINE:
        g = lambda v: obj(Point(SpaceKind.HALF_LINE, (v,)))
        return golden_section(g, *expand_bracket(g, x.coords[0], 0.0))[1]
    return min(golden_section(lambda s: obj(Point(SpaceKind.TRIPOD, (float(e), s))), 0.0, length)[1]
               for e, length in enumerate(space.edge_lengths))


def test_half_line_resolvents_never_above_golden_section():
    # smooth objectives; on the ramp's kink both searches place the
    # minimizer only to within the 1e-11 bracket (test_ramp_kink_within_bracket)
    rng = np.random.default_rng(20)
    for _ in range(150):
        if rng.uniform() < 0.5:
            f = strip_closed_forms(inverse_square(float(4.0 ** -rng.uniform(0.0, 5.0))))
        else:
            f = strip_closed_forms(quadratic(HL, HL.point(float(rng.uniform(0.0, 2.0))),
                                             float(rng.uniform(0.0, 3.0))))
        tau, x = float(10.0 ** rng.uniform(-4.0, -0.5)), HL.point(float(rng.uniform(0.05, 2.0)))
        ref = golden_reference_value(f, HL, tau, x)
        assert resolvent(f, HL, tau, x).value <= ref + 1e-15 * abs(ref)


@pytest.mark.parametrize("space", [TP, TP_UNEVEN], ids=["tripod", "tripod_uneven"])
def test_tripod_resolvents_never_above_golden_section(space):
    rng = np.random.default_rng(21)
    for _ in range(60):
        f = strip_closed_forms(quadratic(space, random_point(space, rng), float(rng.uniform(0.0, 3.0))))
        tau, x = float(10.0 ** rng.uniform(-4.0, 0.0)), random_point(space, rng)
        ref = golden_reference_value(f, space, tau, x)
        assert resolvent(f, space, tau, x).value <= ref + 1e-15 * abs(ref)


def test_ramp_kink_within_bracket():
    # the objective's one-sided slopes at the kink 1/h are at most h, so a
    # minimizer placed within the 1e-11 bracket costs at most h * 1e-11
    rng = np.random.default_rng(22)
    for _ in range(100):
        h, tau = float(rng.uniform(1.0, 10.0)), float(10.0 ** rng.uniform(-4.0, -1.0))
        f, x = ramp(h), HL.point(float(rng.uniform(0.0, 1.5)))
        exact = ref_prox_objective(f, HL, tau, x)(f.closed_form_prox(tau, x))
        assert resolvent(strip_closed_forms(f), HL, tau, x).value <= exact + h * 1e-11 + 1e-15 * exact


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
    slope = functools.partial(descending_slope, f, HL)
    s, newv, oldv = _update_node_half_line(slope, *nodes, dt0, dt1, w, span)
    assert s == v
    assert newv == value
    assert oldv == local(p)


# --------------------------------------------------------------------------
# tags are still checked
# --------------------------------------------------------------------------


def test_line_kernels_reject_mis_tagged_point():
    with pytest.raises(DomainError):
        distance_along(HL, Point(SpaceKind.EUCLIDEAN, (0.5,)))
    for e in range(3):
        with pytest.raises(DomainError):
            distance_along(TP, Point(SpaceKind.EUCLIDEAN, (0.0, 0.5)), e)


def test_resolvent_rejects_mis_tagged_point():
    wrong = Point(SpaceKind.EUCLIDEAN, (0.5,))
    for f in (inverse_square(1.0), strip_closed_forms(quadratic(HL, HL.point(0.2)))):
        with pytest.raises(DomainError):
            resolvent(f, HL, 0.1, wrong)
    f = strip_closed_forms(quadratic(TP, TP.point(1, 0.3)))
    with pytest.raises(DomainError):
        resolvent(f, TP, 0.1, Point(SpaceKind.EUCLIDEAN, (0.0, 0.5)))


def test_minimize_action_rejects_mis_tagged_point():
    wrong = Point(SpaceKind.EUCLIDEAN, (1.0,))
    with pytest.raises(DomainError):
        minimize_action(ramp(4.0), HL, HL.point(0.0), wrong, 8)
    f = quadratic(TP, TP.point(1, 0.3))
    with pytest.raises(DomainError):
        minimize_action(f, TP, Point(SpaceKind.EUCLIDEAN, (0.0, 0.5)), TP.point(2, 0.5), 8)
