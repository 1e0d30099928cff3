import math

import numpy as np
import pytest

from metric_action_lab import ClosedForm, SupFormula, descending_slope, euclidean, half_line, quantile_1d, tripod
from metric_action_lab.curves import action, geodesic_curve
from metric_action_lab.errors import ConfigError, DomainError
from metric_action_lab.functionals import (
    FunctionalSpec,
    check_lambda_convexity,
    evaluate,
    inverse_square,
    linear_half_line,
    quadratic,
    ramp,
    slope_squared,
    strip_closed_forms,
    zero_functional,
)
from metric_action_lab.harness import build_functional
from metric_action_lab.spaces import SpaceKind, random_point

HL = half_line()
E1 = euclidean(1)


def dense_grid_slope(f, space, x, lam, lo=-10.0, hi=10.0, n=200001):
    """Independent oracle: the variational sup evaluated on a dense grid."""
    fx = evaluate(f, x)
    best = 0.0
    for y in np.linspace(lo, hi, n):
        p = space.project((y,))
        d = abs(p.coords[0] - x.coords[0])
        if d == 0.0:
            continue
        fy = evaluate(f, p)
        if not math.isfinite(fy):
            continue
        best = max(best, max(fx - fy + 0.5 * lam * d * d, 0.0) / d)
    return best


def test_evaluate_inverse_square_values():
    f = inverse_square(1.0)
    assert evaluate(f, HL.point(0.0)) == math.inf
    assert evaluate(f, HL.point(2.0)) == pytest.approx(0.25)
    assert evaluate(zero_functional(HL), HL.point(7.0)) == 0.0


def test_slope_quadratic_matches_grid_oracle():
    f = strip_closed_forms(quadratic(E1, E1.point(0.0), 1.0))
    x = E1.point(2.0)
    oracle = dense_grid_slope(f, E1, x, 1.0)
    assert oracle == pytest.approx(2.0, abs=1e-9)  # frozen from the grid oracle
    got = descending_slope(f, E1, x, SupFormula())
    assert got == pytest.approx(oracle, abs=1e-6)


def test_slope_absolute_value_at_kink_is_zero():
    f = FunctionalSpec(id="abs", evaluate=lambda p: abs(p.coords[0]), lam=0.0)
    assert descending_slope(f, E1, E1.point(0.0), SupFormula()) <= 1e-12


def test_slope_scaled_inverse_square_blows_up():
    # closed form for the scaled family at its moving start point
    for eps in (1e-2, 1e-4):
        f = inverse_square(eps)
        x = HL.point(math.sqrt(eps))
        expected = 2.0 / math.sqrt(eps)
        assert descending_slope(f, HL, x, ClosedForm()) == pytest.approx(expected, rel=1e-12)
        sup = descending_slope(f, HL, x, SupFormula(radius=1.0))
        assert sup == pytest.approx(expected, rel=1e-2)


TR, E2, Q4 = tripod(), euclidean(2), quantile_1d(4)

# case -> (space, functional, whether the sup formula is exact along lines)
SUP_CONTRACT_CASES = {
    "half_line_quadratic": (HL, quadratic(HL, HL.point(0.5), 1.0), True),
    "inverse_square": (HL, inverse_square(1.0), False),
    "ramp": (HL, ramp(4.0), False),
    "tripod_quadratic": (TR, quadratic(TR, TR.point(0, 0.5), 1.0), True),
    "euclidean2_quadratic": (E2, quadratic(E2, E2.point(0.3, -0.2), 1.0), False),
    "quantile4_quadratic": (Q4, quadratic(Q4, Q4.point(0.0, 0.5, 1.0, 2.0), 1.0), False),
}


@pytest.mark.parametrize("case", sorted(SUP_CONTRACT_CASES))
def test_sup_formula_never_overestimates_the_closed_form(case, rng):
    # the documented contract: the sampled supremum is an underestimate;
    # along a line the quotient of a quadratic is exact at the smallest shell
    space, f, exact = SUP_CONTRACT_CASES[case]
    numeric = strip_closed_forms(f)
    for _ in range(200):
        x = random_point(space, rng)
        closed = descending_slope(f, space, x)
        sup = descending_slope(numeric, space, x, SupFormula())
        assert sup <= closed * (1.0 + 1e-9), (case, x, sup, closed)
        if exact:
            assert sup >= closed * (1.0 - 1e-9), (case, x, sup, closed)


# case -> (space, lam): the vector sup formula's steepest descent
VECTOR_SUP_CASES = {
    **{f"euclidean{n}_lam{lam:g}": (euclidean(n), lam) for n in (1, 2, 3) for lam in (1.0, -0.5)},
    "quantile4": (Q4, 1.0),
    "quantile8": (quantile_1d(8), 1.0),
}


def _with_ties(space, x, rng):
    """``x`` and, on quantile vectors, copies with a tied pair and a tied
    block of three coordinates."""
    if space.kind is not SpaceKind.QUANTILE_1D:
        return [x]
    c, i = list(x.coords), int(rng.integers(0, space.dim - 2))
    pair = c[:i + 1] + [c[i]] + c[i + 2:]
    block = c[:i + 1] + [c[i], c[i]] + c[i + 3:]
    return [x, space.point(*pair), space.point(*block)]


@pytest.mark.parametrize("case", sorted(VECTOR_SUP_CASES))
def test_vector_sup_formula_matches_the_closed_form(case, rng):
    # at the smallest shell the quotient of a quadratic is exact along the
    # steepest descent direction, so the estimate meets the closed form on
    # both sides, tied coordinates included
    space, lam = VECTOR_SUP_CASES[case]
    for _ in range(200):
        f = quadratic(space, random_point(space, rng), lam)
        for x in _with_ties(space, random_point(space, rng), rng):
            closed = descending_slope(f, space, x)
            sup = descending_slope(strip_closed_forms(f), space, x, SupFormula())
            assert abs(sup - closed) <= 1e-9 * closed, (case, x, sup, closed)


def test_slope_outside_domain_is_infinite():
    f = inverse_square(1.0)
    assert descending_slope(f, HL, HL.point(0.0)) == math.inf


def test_slope_scaling_identity(rng, any_space):
    center = random_point(any_space, rng)
    f = quadratic(any_space, center, 1.0)
    g = f.scaled(2.0)
    for _ in range(10):
        x = random_point(any_space, rng)
        assert descending_slope(g, any_space, x) == pytest.approx(
            2.0 * descending_slope(f, any_space, x), rel=1e-12
        )
    numeric = strip_closed_forms(f)
    x = random_point(any_space, rng)
    s1 = descending_slope(numeric, any_space, x, SupFormula())
    s2 = descending_slope(strip_closed_forms(g), any_space, x, SupFormula())
    assert s2 == pytest.approx(2.0 * s1, rel=1e-9, abs=1e-12)


def test_slope_zero_at_minimizer(any_space, rng):
    center = random_point(any_space, rng)
    f = strip_closed_forms(quadratic(any_space, center, 1.0))
    assert descending_slope(f, any_space, center, SupFormula()) <= 1e-12


def test_lambda_convexity_quadratic_equality(rng):
    sp = euclidean(2)
    f = quadratic(sp, sp.point(0.5, -1.0), 1.0)
    pairs = [(random_point(sp, rng), random_point(sp, rng)) for _ in range(50)]
    assert abs(check_lambda_convexity(f, sp, pairs)) <= 1e-9


def test_lambda_convexity_ramp_holds(rng):
    f = ramp(4.0)
    pairs = [(random_point(HL, rng), random_point(HL, rng)) for _ in range(50)]
    assert check_lambda_convexity(f, HL, pairs) <= 1e-12


def test_lambda_convexity_detects_cheating(rng):
    sp = E1
    bad = FunctionalSpec(id="concave", evaluate=lambda p: -p.coords[0] ** 2, lam=0.0)
    pairs = [(sp.point(-1.0), sp.point(1.0))]
    assert check_lambda_convexity(bad, sp, pairs, t_grid=(0.5,)) > 0.5


def test_catalogue_lookup_and_domains():
    assert build_functional(HL, "zero", {}).id == "zero"
    q = build_functional(E1, "quadratic", {"center": 1.0, "lam": 2.0})
    assert evaluate(q, E1.point(2.0)) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        build_functional(E1, "example1", {})
    with pytest.raises(ConfigError):
        build_functional(HL, "nope", {})


def test_ramp_closed_forms():
    f = ramp(4.0)
    assert evaluate(f, HL.point(0.0)) == 1.0
    assert evaluate(f, HL.point(0.25)) == 0.0
    assert f.closed_form_slope(HL.point(0.1)) == 4.0
    assert f.closed_form_slope(HL.point(0.25)) == 0.0
    assert descending_slope(f, HL, HL.point(0.0), SupFormula()) == pytest.approx(4.0, rel=1e-9)


def test_linear_prox_and_slope():
    f = linear_half_line(2.0)
    assert f.closed_form_prox(0.3, HL.point(1.0)).coords == (0.4,)
    assert f.closed_form_prox(1.0, HL.point(1.0)).coords == (0.0,)
    assert descending_slope(f, HL, HL.point(0.0)) == 0.0
    assert descending_slope(f, HL, HL.point(0.5)) == 2.0


def test_quadratic_on_tripod_slope():
    sp = tripod()
    c = sp.point(0, 0.5)
    f = quadratic(sp, c, 1.0)
    x = sp.point(1, 0.5)
    assert descending_slope(f, sp, x) == pytest.approx(1.0)
    sup = descending_slope(strip_closed_forms(f), sp, x, SupFormula())
    assert sup == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("center", [(0, 0.5), (1, 0.3), (2, 1.5)])
def test_tripod_sup_formula_across_the_branch_point(center):
    # offsets below the smallest shell (4e-6) probe the other edges through the branch point
    sp = tripod((1, 0.5, 2))
    f = quadratic(sp, sp.point(*center), 1.0)
    stripped = strip_closed_forms(f)
    for e in range(3):
        for off in np.linspace(0.0, 3.9e-6, 14):
            x = sp.point(e, float(off))
            assert descending_slope(stripped, sp, x) == pytest.approx(descending_slope(f, sp, x), rel=1e-9)


def test_closed_form_slope_needs_a_closed_form():
    f = strip_closed_forms(quadratic(E1, E1.point(0.0), 1.0))
    with pytest.raises(ConfigError, match="has no closed-form slope"):
        descending_slope(f, E1, E1.point(1.0), ClosedForm())


def test_quadratic_on_quantile_slope(rng):
    sp = quantile_1d(4)
    c = sp.point(0.0, 0.5, 1.0, 2.0)
    f = quadratic(sp, c, 1.0)
    x = random_point(sp, rng)
    from metric_action_lab.spaces import distance

    assert descending_slope(f, sp, x) == pytest.approx(distance(sp, x, c))
    sup = descending_slope(strip_closed_forms(f), sp, x, SupFormula(radius=6.0))
    assert sup == pytest.approx(distance(sp, x, c), rel=1e-3)


def _catalogue(space, rng):
    fs = [zero_functional(space), quadratic(space, random_point(space, rng), 1.0)]
    if space.kind in (SpaceKind.EUCLIDEAN, SpaceKind.HALF_LINE):
        fs.append(quadratic(space, random_point(space, rng), -1.0))
    if space.kind is SpaceKind.HALF_LINE:
        fs += [inverse_square(0.5), ramp(4.0), linear_half_line(2.0)]
    return fs + [f.scaled(0.5) for f in fs]


def test_closed_form_slope_is_infinite_off_the_domain(any_space, rng):
    # the contract descending_slope relies on: no domain check of its own
    points = [random_point(any_space, rng, scale=2.0) for _ in range(50)]
    if any_space.kind is SpaceKind.HALF_LINE:
        # the singularity of inverse_square, powers that underflow, the
        # ramp's kink at 1/h and the origin for linear
        points += [any_space.point(v) for v in (0.0, 1e-300, 1e-160, 1e-110, 0.25, 1.0)]
    for f in _catalogue(any_space, rng):
        for x in points:
            value, slope = f.evaluate(x), f.closed_form_slope(x)
            if value == math.inf:
                assert slope == math.inf, (f.id, x)


def test_closed_form_slope_makes_no_evaluate_call():
    calls = []
    spy = FunctionalSpec(
        id="spy", evaluate=lambda x: calls.append(x) or 0.0, lam=0.0, closed_form_slope=lambda x: 3.0
    )
    assert descending_slope(spy, E1, E1.point(0.5)) == 3.0
    c = geodesic_curve(E1, E1.point(0.0), E1.point(1.0), 8)
    assert action(c, spy, c.start, c.end).potential == pytest.approx(9.0)
    assert calls == []


def test_vector_sup_formula_reads_partials_at_large_coordinates():
    # a forward step of r * 1e-6 rounds back to a coordinate near 1e12 and
    # would read a partial derivative of 0; the step is floored at 64 ulps
    e2 = euclidean(2)
    f = quadratic(e2, e2.point(0.0, 0.0), 1.0)
    x = e2.point(1e12, 3.0)
    closed = descending_slope(f, e2, x)
    sup = descending_slope(strip_closed_forms(f), e2, x, SupFormula())
    assert 0.99 * closed <= sup <= closed, (sup, closed)
    q4 = quantile_1d(4)
    f = quadratic(q4, q4.point(*[1e12] * 4), 1.0)
    x = q4.point(*(1e12 + d for d in (-4.0, -1.0, 2.0, 8.0)))
    closed = descending_slope(f, q4, x)
    sup = descending_slope(strip_closed_forms(f), q4, x, SupFormula())
    assert abs(sup - closed) <= 1e-4 * closed, (sup, closed)


@pytest.mark.parametrize("space", [euclidean(3), quantile_1d(4)], ids=["euclidean3", "quantile4"])
def test_tangent_gradient_projects_nothing_and_evaluates_through_the_tracer(space, rng, monkeypatch):
    # the benchmark's tracer counts evaluations by wrapping each module
    # binding of ``evaluate``; every step keeps the order, so none is projected
    import sys

    from metric_action_lab import functionals
    from metric_action_lab.spaces import SpaceHandle

    counts = {"evaluate": 0, "project": 0}
    original, project = functionals.evaluate, SpaceHandle.project

    def counted_evaluate(*args, **kwargs):
        counts["evaluate"] += 1
        return original(*args, **kwargs)

    def counted_project(*args, **kwargs):
        counts["project"] += 1
        return project(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "metric_action_lab" or name.startswith("metric_action_lab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted_evaluate)
    monkeypatch.setattr(SpaceHandle, "project", counted_project)
    centre, x = random_point(space, rng), random_point(space, rng)
    f = strip_closed_forms(quadratic(space, centre, 2.0))
    fx = original(f, x)
    grad, steps = functionals.tangent_gradient(f, space, x, fx, 1e-5)
    assert counts == {"evaluate": space.dim, "project": 0}
    assert len(steps) == space.dim
    # the differences are exact on quadratics: grad_i = lam (x_i - c_i) / weight
    want = [2.0 * (a - b) / space.weight for a, b in zip(x.coords, centre.coords)]
    assert grad == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_slope_squared_overflow_is_a_domain_error():
    # a finite slope whose square overflows is not "off the domain"
    e1 = euclidean(1)
    f = quadratic(e1, e1.point(0.0), 1.0)
    assert slope_squared(f, e1, e1.point(1e150)) == pytest.approx(1e300)
    with pytest.raises(DomainError, match=r"squared slope overflows at \(1e\+160,\)"):
        slope_squared(f, e1, e1.point(1e160))
    hl = half_line()
    assert slope_squared(inverse_square(1.0), hl, hl.point(0.0)) == math.inf
