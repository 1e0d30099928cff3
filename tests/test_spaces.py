import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_action_lab import (
    check_cat0,
    distance,
    euclidean,
    geodesic_point,
    half_line,
    isotonic_repair,
    quantile_1d,
    random_point,
    tripod,
)
from metric_action_lab.errors import DomainError, SpaceMismatchError


def test_euclidean_distance_pythagoras():
    sp = euclidean(2)
    assert distance(sp, sp.point(0, 0), sp.point(3, 4)) == 5.0


def test_half_line_distance():
    sp = half_line()
    assert distance(sp, sp.point(1.0), sp.point(4.0)) == 3.0


def test_tripod_distance_through_branch():
    sp = tripod((1.0, 1.0, 1.0))
    p, q = sp.point(0, 0.5), sp.point(1, 0.7)
    assert distance(sp, p, q) == pytest.approx(1.2)
    assert distance(sp, sp.point(0, 0.2), sp.point(0, 0.9)) == pytest.approx(0.7)


def test_space_tag_mismatch_raises():
    sp = euclidean(1)
    other = half_line().point(1.0)
    with pytest.raises(SpaceMismatchError):
        distance(sp, sp.point(0.0), other)


def test_geodesic_midpoints():
    e1 = euclidean(1)
    assert geodesic_point(e1, e1.point(0.0), e1.point(2.0), 0.5).coords == (1.0,)
    tp = tripod()
    mid = geodesic_point(tp, tp.point(0, 0.8), tp.point(1, 0.8), 0.5)
    assert mid.coords[1] == pytest.approx(0.0, abs=1e-12)
    q = quantile_1d(2)
    g = geodesic_point(q, q.point(0.0, 1.0), q.point(2.0, 3.0), 0.25)
    assert g.coords == pytest.approx((0.5, 1.5))


def test_geodesic_parameter_domain():
    sp = euclidean(1)
    with pytest.raises(DomainError):
        geodesic_point(sp, sp.point(0.0), sp.point(1.0), 1.5)


def test_triangle_inequality_random(any_space, rng):
    worst = 0.0
    for _ in range(1000):
        a, b, c = (random_point(any_space, rng) for _ in range(3))
        worst = max(worst, distance(any_space, a, c) - distance(any_space, a, b) - distance(any_space, b, c))
    assert worst <= 1e-12


def test_geodesic_two_sided_split(any_space, rng):
    worst = 0.0
    for _ in range(300):
        p, q = random_point(any_space, rng), random_point(any_space, rng)
        t = float(rng.uniform())
        m = geodesic_point(any_space, p, q, t)
        d = distance(any_space, p, q)
        worst = max(
            worst,
            abs(distance(any_space, p, m) - t * d),
            abs(distance(any_space, m, q) - (1 - t) * d),
        )
    assert worst <= 1e-9


def test_cat0_residual_random(any_space, rng):
    worst = -math.inf
    for _ in range(1000):
        y, a, b = (random_point(any_space, rng) for _ in range(3))
        worst = max(worst, check_cat0(any_space, y, a, b))
    assert worst <= 1e-9


def test_cat0_euclidean_is_equality(rng):
    sp = euclidean(3)
    y, a, b = (random_point(sp, rng) for _ in range(3))
    assert abs(check_cat0(sp, y, a, b)) <= 1e-10


def test_cat0_tripod_strictly_negative():
    sp = tripod()
    y = sp.point(2, 0.8)
    a, b = sp.point(0, 0.8), sp.point(1, 0.8)
    # direct evaluation of both sides at the midpoint (the branch point)
    t = 0.5
    lhs = distance(sp, y, geodesic_point(sp, a, b, t)) ** 2
    rhs = (1 - t) * distance(sp, y, a) ** 2 + t * distance(sp, y, b) ** 2 - t * (1 - t) * distance(sp, a, b) ** 2
    assert lhs - rhs < -1e-3
    assert check_cat0(sp, y, a, b) <= 0.0


def test_cat0_degenerate_pair():
    sp = euclidean(2)
    a = sp.point(1.0, 1.0)
    assert check_cat0(sp, sp.point(0.0, 0.0), a, a) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "space", [euclidean(3), half_line(), tripod(), quantile_1d(4)], ids=lambda sp: sp.kind.value
)
def test_dim_counts_the_coordinates_of_a_point(space, rng):
    assert space.dim == len(random_point(space, rng).coords)


def test_quantile_distance_is_scaled_norm(rng):
    sp = quantile_1d(4)
    u, v = random_point(sp, rng), random_point(sp, rng)
    expected = np.linalg.norm(np.array(u.coords) - np.array(v.coords)) / math.sqrt(4)
    assert distance(sp, u, v) == pytest.approx(expected, rel=1e-12)


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_isotonic_repair_properties(values):
    out = isotonic_repair(values)
    assert len(out) == len(values)
    assert all(b >= a - 1e-12 for a, b in zip(out, out[1:]))
    # projection fixes already-monotone input
    if all(b >= a for a, b in zip(values, values[1:])):
        assert out == pytest.approx(values)


def test_quantile_monotonicity_enforced():
    sp = quantile_1d(3)
    with pytest.raises(DomainError):
        sp.point(2.0, 1.0, 3.0)
    p = sp.project((2.0, 1.0, 3.0))
    assert p.coords == pytest.approx((1.5, 1.5, 3.0))


def test_tripod_point_validation():
    sp = tripod((1.0, 2.0, 0.5))
    with pytest.raises(DomainError):
        sp.point(0, 1.5)
    with pytest.raises(DomainError):
        sp.point(5, 0.1)
    assert sp.point(1, 1.5).coords == (1.0, 1.5)


def test_branch_point_identification():
    sp = tripod()
    assert distance(sp, sp.point(0, 0.0), sp.point(2, 0.0)) == 0.0


def test_point_is_a_value():
    import dataclasses

    from metric_action_lab.spaces import Point, SpaceKind

    p = Point(SpaceKind.HALF_LINE, (0.5,))
    q = half_line().point(0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.coords = (1.0,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.space_kind = SpaceKind.EUCLIDEAN
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != Point(SpaceKind.EUCLIDEAN, (0.5,)) and p != Point(SpaceKind.HALF_LINE, (0.25,))
    moved = dataclasses.replace(p, coords=(2.0,))
    assert moved == Point(SpaceKind.HALF_LINE, (2.0,)) and p.coords == (0.5,)
    assert Point(space_kind=SpaceKind.HALF_LINE, coords=(0.5,)) == p
    assert repr(p) == "Point(space_kind=<SpaceKind.HALF_LINE: 'half_line'>, coords=(0.5,))"
    assert not hasattr(p, "__dict__")
    # a new attribute has no slot; by Python version, a frozen dataclass with
    # slots raises TypeError or AttributeError for it
    with pytest.raises((AttributeError, TypeError)):
        p.extra = 1
