import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_action_lab import (
    FunctionalFamily,
    descending_slope,
    distance,
    euclidean,
    geodesic_point,
    half_line,
    quantile_1d,
    tripod,
)
from metric_action_lab import functionals, proximal
from metric_action_lab.errors import ConvergenceError, DomainError
from metric_action_lab.flow import flow_times
from metric_action_lab.functionals import (
    FunctionalSpec,
    SupFormula,
    evaluate,
    inverse_square,
    linear_half_line,
    quadratic,
    ramp,
    strip_closed_forms,
    zero_functional,
)
from metric_action_lab.proximal import (
    check_bound_chain,
    check_resolvent_identity,
    check_resolvent_lipschitz,
    check_tau_continuity,
    resolvent,
    resolvent_convergence_probe,
    tau_upper_limit,
)
from metric_action_lab.spaces import random_point

HL = half_line()
E1 = euclidean(1)


def grid_prox_oracle(f, space, tau, x, lo, hi, n=200001):
    """Independent oracle: dense-grid minimization of the prox objective."""
    best_v, best_y = math.inf, None
    for y in np.linspace(lo, hi, n):
        p = space.project((y,))
        fy = evaluate(f, p)
        if not math.isfinite(fy):
            continue
        v = fy + distance(space, p, x) ** 2 / (2 * tau)
        if v < best_v:
            best_v, best_y = v, p
    return best_y, best_v


def test_resolvent_quadratic_matches_grid_oracle():
    f = strip_closed_forms(quadratic(E1, E1.point(0.0), 1.0))
    x = E1.point(3.0)
    oracle, _ = grid_prox_oracle(f, E1, 0.5, x, -1.0, 4.0)
    assert oracle.coords[0] == pytest.approx(2.0, abs=1e-4)  # frozen: x/(1+tau)
    res = resolvent(f, E1, 0.5, x)
    assert res.point.coords[0] == pytest.approx(2.0, abs=1e-8)


def test_resolvent_identity_map_for_zero():
    f = zero_functional(HL)
    x = HL.point(1.7)
    assert resolvent(f, HL, 0.9, x).point.coords == x.coords


def test_resolvent_ramp_matches_grid_oracle():
    f = strip_closed_forms(ramp(4.0))
    x = HL.point(0.0)
    oracle, _ = grid_prox_oracle(f, HL, 0.01, x, 0.0, 0.5)
    assert oracle.coords[0] == pytest.approx(0.04, abs=1e-5)  # frozen: h*tau
    res = resolvent(f, HL, 0.01, x)
    assert res.point.coords[0] == pytest.approx(0.04, abs=1e-7)
    closed = resolvent(ramp(4.0), HL, 0.01, x)
    assert closed.point.coords[0] == pytest.approx(0.04, rel=1e-12)


def test_resolvent_ramp_kink_region():
    f = ramp(4.0)
    # x in [1/h - h tau, 1/h] parks on the kink
    res = resolvent(f, HL, 0.01, HL.point(0.22))
    assert res.point.coords[0] == pytest.approx(0.25, rel=1e-12)
    num = resolvent(strip_closed_forms(f), HL, 0.01, HL.point(0.22))
    assert num.point.coords[0] == pytest.approx(0.25, abs=1e-7)


@pytest.mark.parametrize(
    "f, x, expect",
    [
        (linear_half_line(10.0), 10.0, 6.0),
        (quadratic(HL, HL.point(10.0), 1.0), 0.0, 10.0 * 0.4 / 1.4),
    ],
    ids=["widen_down", "widen_up"],
)
def test_resolvent_half_line_widens_bracket(f, x, expect):
    # the minimizer lies several unit steps below (above) x, so the bracket
    # must widen before golden section; expect is the closed-form prox
    res = resolvent(strip_closed_forms(f), HL, 0.4, HL.point(x))
    assert res.point.coords[0] == pytest.approx(expect, abs=1e-6)


def test_resolvent_tau_domain():
    f = FunctionalSpec(id="c", evaluate=lambda p: -0.25 * p.coords[0] ** 2, lam=-0.5)
    assert tau_upper_limit(-0.5) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        resolvent(f, E1, 1.5, E1.point(0.0))
    with pytest.raises(DomainError):
        resolvent(f, E1, 0.0, E1.point(0.0))


def test_resolvent_euclidean_multidim():
    sp = euclidean(3)
    f = strip_closed_forms(quadratic(sp, sp.point(0, 0, 0), 1.0))
    x = sp.point(1.0, -2.0, 0.5)
    res = resolvent(f, sp, 0.25, x)
    for got, want in zip(res.point.coords, [c / 1.25 for c in x.coords]):
        assert got == pytest.approx(want, abs=1e-8)


def test_resolvent_inverse_square_interior():
    f = inverse_square(1.0)
    x = HL.point(1.0)
    res = resolvent(f, HL, 0.1, x)
    oracle, _ = grid_prox_oracle(f, HL, 0.1, x, 0.01, 3.0)
    assert res.point.coords[0] == pytest.approx(oracle.coords[0], abs=1e-4)
    # stationarity: -2/u^3 + (u - x)/tau = 0
    u = res.point.coords[0]
    assert -2.0 / u**3 + (u - 1.0) / 0.1 == pytest.approx(0.0, abs=1e-5)


def _brackets_inverse_square_root(y, x, eps, tau):
    """Whether ``y`` lies within one ulp of the root ``u >= x`` of
    ``u^3 (u - x) = 2 eps tau``, in exact rational arithmetic."""
    def p(u):
        u = Fraction(u)
        return u**3 * (u - Fraction(x)) - 2 * Fraction(eps) * Fraction(tau)

    return p(y - math.ulp(y)) <= 0 <= p(y + math.ulp(y))


def test_inverse_square_prox_is_the_exact_resolvent():
    # Newton lands within an ulp of the stationary point; Brent stops at a
    # 1e-11 bracket, so its points differ by up to ~1e-8 and its values are
    # never below the prox's beyond rounding
    rng = np.random.default_rng(17)
    for _ in range(1000):
        eps, tau = float(10.0 ** rng.uniform(-6.0, 1.0)), float(10.0 ** rng.uniform(-7.0, 0.0))
        x = float(10.0 ** rng.uniform(-3.0, 1.0))
        f = inverse_square(eps)
        exact = resolvent(f, HL, tau, HL.point(x))
        assert exact.method == "closed_form"
        numeric = resolvent(strip_closed_forms(f), HL, tau, HL.point(x)).value
        assert exact.value <= numeric + 1e-15 * numeric, (eps, tau, x)
        assert _brackets_inverse_square_root(exact.point.coords[0], x, eps, tau), (eps, tau, x)


@pytest.mark.parametrize(
    "eps, tau, x",
    [(1.0, 0.1, 0.0), (1e-8, 1e-8, 0.0), (1.0, 0.1, 1e-300),
     (1.0, 0.1, 1e6), (1e3, 1e3, 1e100), (1.0, 1.0, 1e300), (1e-20, 1e-3, 1.0)],
    ids=["origin", "origin_small_step", "underflowing_cube", "large_x", "huge_x", "near_max", "below_ulp"],
)
def test_inverse_square_prox_edge_cases(eps, tau, x):
    # at the origin the root is (2 eps tau)^(1/4); where 2 eps tau / x^3 is
    # below x's ulp the prox is x itself, and x^3 overflowing changes nothing
    y = inverse_square(eps).closed_form_prox(tau, HL.point(x)).coords[0]
    assert _brackets_inverse_square_root(y, x, eps, tau)
    if x >= 1.0:
        assert y == x


def test_inverse_square_prox_says_when_newton_stops_early(monkeypatch):
    monkeypatch.setattr(functionals, "NEWTON_CAP", 1)
    with pytest.raises(ConvergenceError):
        resolvent(inverse_square(1.0), HL, 1.0, HL.point(1.0))


def test_resolvent_says_when_the_line_search_stops_short(monkeypatch):
    # a line search that ends 1e-3 off the minimum: the optimality probe sees it
    brent = proximal.brent

    def short(g, lo, hi):
        x, _, n = brent(g, lo, hi)
        return x + 1e-3, g(x + 1e-3), n

    monkeypatch.setattr(proximal, "brent", short)
    f = strip_closed_forms(quadratic(HL, HL.point(2.0), 1.0))
    with pytest.raises(ConvergenceError) as info:
        resolvent(f, HL, 0.01, HL.point(1.0))
    assert info.value.best.method == "golden_section"
    assert info.value.best.residual > 1e-7


def test_resolvent_value_never_exceeds_anchor_value(any_space, rng):
    center = random_point(any_space, rng)
    f = quadratic(any_space, center, 1.0)
    for _ in range(100):
        tau = float(rng.uniform(0.05, 0.5))
        x = random_point(any_space, rng)
        res = resolvent(f, any_space, tau, x)
        fx = evaluate(f, x)
        assert res.value <= fx + 1e-12
        if descending_slope(f, any_space, x) > 1e-6:
            assert res.value < fx


def test_resolvent_descends_for_whole_catalogue(rng):
    from metric_action_lab.harness import build_functional

    catalogue = [
        build_functional(HL, "zero", {}),
        build_functional(HL, "quadratic", {"center": 1.0, "lam": 1.0}),
        build_functional(HL, "linear", {"c": 2.0}),
        build_functional(HL, "example1", {"eps": 0.5}),
        build_functional(HL, "example2", {"h": 4.0}),
    ]
    for f in catalogue:
        for _ in range(100):
            tau = float(rng.uniform(0.05, 0.5))
            x = random_point(HL, rng)
            if not f.in_domain(x):
                x = HL.point(x.coords[0] + 1.0)
            res = resolvent(f, HL, tau, x)
            fx = evaluate(f, x)
            assert res.value <= fx + 1e-12
            if descending_slope(f, HL, x) > 1e-6:
                assert res.value < fx


def test_bound_chain_quadratic_equalities():
    f = quadratic(E1, E1.point(0.0), 1.0)
    rep = check_bound_chain(f, E1, 0.5, E1.point(3.0))
    assert rep.slope_u == pytest.approx(2.0, rel=1e-12)
    assert rep.ratio == pytest.approx(2.0, rel=1e-12)
    assert rep.slope_x / (1 + 0.5) == pytest.approx(2.0, rel=1e-12)
    assert abs(rep.lower_residual) <= 1e-9
    assert abs(rep.upper_residual) <= 1e-9


def test_bound_chain_zero_functional():
    rep = check_bound_chain(zero_functional(HL), HL, 0.3, HL.point(1.0))
    assert rep.lower_residual == 0.0
    assert rep.upper_residual == 0.0


def test_bound_chain_ramp_equalities():
    f = ramp(4.0)
    rep = check_bound_chain(f, HL, 0.01, HL.point(0.0))
    assert rep.slope_u == pytest.approx(4.0)
    assert rep.ratio == pytest.approx(4.0)
    assert rep.slope_x == pytest.approx(4.0)


def test_bound_chain_closed_form_tolerance(any_space, rng):
    center = random_point(any_space, rng)
    f = quadratic(any_space, center, 1.0)
    worst = -math.inf
    for _ in range(100):
        tau = float(rng.uniform(0.05, 0.5))
        x = random_point(any_space, rng)
        rep = check_bound_chain(f, any_space, tau, x)
        worst = max(worst, rep.lower_residual, rep.upper_residual)
    assert worst <= 1e-6


def test_bound_chain_sup_formula_tolerance(any_space, rng):
    center = random_point(any_space, rng)
    f = quadratic(any_space, center, 1.0)
    numeric = strip_closed_forms(f)
    numeric.closed_form_prox = f.closed_form_prox  # slopes numeric, prox exact
    worst = -math.inf
    for _ in range(25):
        tau = float(rng.uniform(0.05, 0.5))
        x = random_point(any_space, rng)
        rep = check_bound_chain(numeric, any_space, tau, x, method=SupFormula(radius=6.0))
        worst = max(worst, rep.lower_residual, rep.upper_residual)
    assert worst <= 1e-3


def test_lipschitz_quadratic_contraction(rng):
    f = quadratic(E1, E1.point(0.0), 1.0)
    for _ in range(100):
        tau = float(rng.uniform(0.05, 0.5))
        x, y = random_point(E1, rng), random_point(E1, rng)
        r = check_resolvent_lipschitz(f, E1, tau, x, y)
        assert r <= 1e-6
        # lam >= 0 quadratic actually contracts by 1/(1+tau)
        d = distance(E1, resolvent(f, E1, tau, x).point, resolvent(f, E1, tau, y).point)
        assert d == pytest.approx(distance(E1, x, y) / (1 + tau), rel=1e-9)


def test_lipschitz_same_point_is_zero():
    f = quadratic(E1, E1.point(0.0), 1.0)
    x = E1.point(1.0)
    assert check_resolvent_lipschitz(f, E1, 0.3, x, x) <= 0.0


def boxed_concave_lipschitz(rng) -> float:
    """The worst Lipschitz residual of f = -|x|^2/4 on the unit box of E^2
    (lam = -0.5) at tau = 0.5, factor sqrt(2), over 20 random pairs."""
    sp = euclidean(2)

    def ev(p):
        if all(0.0 <= c <= 1.0 for c in p.coords):
            return -0.25 * sum(c * c for c in p.coords)
        return math.inf

    f = FunctionalSpec(id="boxcave", evaluate=ev, lam=-0.5)
    tau = 0.5
    worst = -math.inf
    for _ in range(20):
        x = sp.point(*rng.uniform(0, 1, size=2))
        y = sp.point(*rng.uniform(0, 1, size=2))
        worst = max(worst, check_resolvent_lipschitz(f, sp, tau, x, y))
    return worst


def test_lipschitz_boxed_concave_sqrt2_factor(rng):
    assert boxed_concave_lipschitz(rng) <= 1e-6


def test_boxed_concave_fallback_runs_brent(rng, monkeypatch):
    # a gradient step leaves the box, so these resolvents take the
    # coordinate-descent fallback, which searches each coordinate by Brent
    def no_grid(*args):
        raise AssertionError("the fallback ran grid_golden")

    fallback, runs = proximal._coordinate_descent, []
    monkeypatch.setattr(proximal, "grid_golden", no_grid)
    monkeypatch.setattr(proximal, "_coordinate_descent", lambda *a: runs.append(1) or fallback(*a))
    assert boxed_concave_lipschitz(rng) <= 1e-6
    assert runs


def test_tau_continuity_quadratic_numbers():
    f = quadratic(E1, E1.point(0.0), 1.0)
    x = E1.point(1.0)
    jn = resolvent(f, E1, 0.1, x).point.coords[0]
    jm = resolvent(f, E1, 0.2, x).point.coords[0]
    assert abs(jn - jm) == pytest.approx(abs(1 / 1.1 - 1 / 1.2), rel=1e-12)
    # bound value (mu - nu) * slope / ((1 + lam mu) sqrt(1 - 2 lam^- nu)) = 1/12
    r = check_tau_continuity(f, E1, 0.1, 0.2, x)
    assert r == pytest.approx(abs(1 / 1.1 - 1 / 1.2) - 0.1 / 1.2, rel=1e-9)
    assert r <= 0.0


def test_tau_continuity_collapses_as_nu_to_mu():
    f = quadratic(E1, E1.point(0.0), 1.0)
    x = E1.point(1.0)
    r = check_tau_continuity(f, E1, 0.2 - 1e-9, 0.2, x)
    assert abs(r) <= 1e-6


def test_tau_continuity_ramp_halfline():
    f = ramp(2.0)
    assert check_tau_continuity(f, HL, 0.05, 0.1, HL.point(1.0)) <= 1e-9


def test_resolvent_identity_quadratic_closed_chain():
    f = quadratic(E1, E1.point(0.0), 1.0)
    x = E1.point(1.0)
    jm = resolvent(f, E1, 0.4, x).point
    assert jm.coords[0] == pytest.approx(1 / 1.4, rel=1e-12)
    mid = geodesic_point(E1, jm, x, 0.2 / 0.4)
    jn = resolvent(f, E1, 0.2, mid).point
    assert jn.coords[0] == pytest.approx(1 / 1.4, rel=1e-12)
    assert check_resolvent_identity(f, E1, 0.2, 0.4, x) <= 1e-9


def test_resolvent_identity_random(any_space, rng):
    center = random_point(any_space, rng)
    f = quadratic(any_space, center, 1.0)
    worst = 0.0
    for _ in range(100):
        mu = float(rng.uniform(0.1, 0.5))
        nu = mu * float(rng.uniform(0.2, 0.9))
        x = random_point(any_space, rng)
        worst = max(worst, check_resolvent_identity(f, any_space, nu, mu, x))
    assert worst <= 1e-6


def test_resolvent_identity_tripod_numeric():
    sp = tripod()
    f = strip_closed_forms(quadratic(sp, sp.point(0, 0.9), 1.0))
    worst = 0.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        mu = float(rng.uniform(0.1, 0.5))
        nu = mu * float(rng.uniform(0.3, 0.9))
        x = random_point(sp, rng)
        worst = max(worst, check_resolvent_identity(f, sp, nu, mu, x))
    assert worst <= 1e-4


def test_convergence_probe_scaled_quadratics():
    base = quadratic(E1, E1.point(0.0), 1.0)
    fam = FunctionalFamily(member=lambda h: base.scaled(1.0 + 1.0 / h), limit=base)
    x = E1.point(1.0)
    tau = 0.5
    dists = resolvent_convergence_probe(fam, E1, tau, x, [1, 2, 4, 8, 16])
    expect = [abs(1 / (1 + tau * (1 + 1 / h)) - 1 / (1 + tau)) for h in [1, 2, 4, 8, 16]]
    assert dists == pytest.approx(expect, rel=1e-9)
    assert all(b <= a for a, b in zip(dists, dists[1:]))


def test_convergence_probe_constant_family():
    f = quadratic(E1, E1.point(0.0), 1.0)
    fam = FunctionalFamily(member=lambda h: f, limit=f)
    dists = resolvent_convergence_probe(fam, E1, 0.3, E1.point(2.0), [1, 2, 3])
    assert dists == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_convergence_probe_ramp_family():
    fam = FunctionalFamily(member=lambda h: ramp(float(h)), limit=zero_functional(HL))
    x = HL.point(1.0)
    dists = resolvent_convergence_probe(fam, HL, 0.1, x, [2, 4, 8, 64])
    assert dists[-1] <= 1e-9
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


def test_quantile_resolvent_projected(rng):
    sp = quantile_1d(4)
    c = sp.point(0.0, 0.0, 1.0, 1.0)
    f = strip_closed_forms(quadratic(sp, c, 1.0))
    x = random_point(sp, rng)
    res = resolvent(f, sp, 0.4, x)
    want = quadratic(sp, c, 1.0).closed_form_prox(0.4, x)
    assert res.point.coords == pytest.approx(want.coords, abs=1e-7)


def test_probe_sees_a_branch_point_that_should_cross(monkeypatch):
    # the resolvent lies on edge 1; a solver that stops at the branch point
    # is beaten by the shell's point on edge 1, which a probe along x's own
    # edge never reaches
    sp = tripod()
    f, x, tau = strip_closed_forms(quadratic(sp, sp.point(1, 0.5), 1.0)), sp.point(0, 0.05), 0.3
    res = resolvent(f, sp, tau, x)
    assert res.point.coords == (1.0, pytest.approx(1.0 / 13.0)) and res.value == pytest.approx(0.116346, abs=1e-6)
    branch = sp.point(0, 0.0)
    value = proximal._prox_value(f, sp, tau, x, branch)[0]
    monkeypatch.setattr(proximal, "_solve_tripod", lambda *_: (branch, value, 1))
    with pytest.raises(ConvergenceError) as info:
        resolvent(f, sp, tau, x)
    assert info.value.best.point == branch and info.value.best.residual == pytest.approx(3.33e-6, rel=1e-3)


def test_tripod_tie_flag():
    sp = tripod()
    # potential centred at the branch point: edges 0 and 2 tie there, and
    # the minimizer on edge 1 beats both
    f = strip_closed_forms(quadratic(sp, sp.point(0, 0.0), 1.0))
    res = resolvent(f, sp, 0.3, sp.point(1, 0.5))
    assert res.point.coords[1] == pytest.approx(0.5 / 1.3, abs=1e-7)


@pytest.mark.parametrize("lam", [-1.0, -0.4])
@pytest.mark.parametrize("space", [E1, euclidean(2), HL], ids=["euclidean1", "euclidean2", "half_line"])
def test_concave_quadratic_closed_form_prox_matches_numeric(space, lam, rng):
    # lam < 0: the affine formula, then the metric projection (the
    # half-line's clamp at 0), against the space's numerical solver
    for _ in range(40):
        f = quadratic(space, random_point(space, rng), lam)
        x = random_point(space, rng)
        tau = float(rng.uniform(0.05, 0.95)) * tau_upper_limit(lam)
        exact = resolvent(f, space, tau, x)
        numeric = resolvent(strip_closed_forms(f), space, tau, x)
        assert exact.method == "closed_form"
        assert max(abs(a - b) for a, b in zip(exact.point.coords, numeric.point.coords)) <= 1e-6


@pytest.mark.parametrize("strip", [False, True], ids=["closed_form", "stripped"])
def test_vector_resolvent_rejects_a_point_of_another_space(strip):
    # both paths check the tag at entry; the stripped solver used to fail in numpy
    q = quantile_1d(4)
    f = quadratic(q, q.point(0.0, 1.0, 2.0, 3.0))
    f = strip_closed_forms(f) if strip else f
    wrong = euclidean(2).point(0.5, 1.0)
    with pytest.raises(DomainError, match="point tagged euclidean used with quantile_1d space"):
        resolvent(f, q, 0.1, wrong)


@pytest.mark.parametrize("space", [euclidean(2), quantile_1d(4)], ids=["euclidean2", "quantile4"])
def test_vector_resolvent_matches_closed_form_prox(space, rng):
    # proximal gradient with Barzilai-Borwein steps on stripped quadratics
    for _ in range(40):
        f = quadratic(space, random_point(space, rng), float(rng.uniform(0.0, 3.0)))
        tau, x = float(10.0 ** rng.uniform(-3.0, 0.0)), random_point(space, rng)
        res = resolvent(strip_closed_forms(f), space, tau, x)
        assert res.method == "proximal_gradient"
        want = f.closed_form_prox(tau, x).coords
        assert max(abs(a - b) for a, b in zip(res.point.coords, want)) <= 1e-9


def test_numeric_resolvent_iteration_counts():
    """Mean ``iterations`` per call of each numeric solver on a fixed case
    set, drawn from the ranges of the numeric resolvents of the benchmark's
    ``numeric_recovery`` workload: steps from 1e-6 to 1e-2, the scaled
    inverse-square family on [1, 2], and stripped quadratics (lam 1) on the
    tripod, centre on edge 0, and on quantile_1d(4).  Counts, unlike wall
    times, do not drift with the host."""
    rng = np.random.default_rng(0)
    tp, q4 = tripod(), quantile_1d(4)
    counts = {"golden_section": [], "per_edge_golden": [], "proximal_gradient": []}
    for _ in range(60):
        tau = float(10.0 ** rng.uniform(-6.0, -2.0))
        f = strip_closed_forms(inverse_square(float(4.0 ** -rng.integers(0, 6))))
        counts["golden_section"].append(resolvent(f, HL, tau, HL.point(float(rng.uniform(1.0, 2.0)))))
        f = strip_closed_forms(quadratic(tp, tp.point(0, float(rng.uniform(0.1, 0.3))), 1.0))
        x = tp.point(int(rng.integers(0, 2)), float(rng.uniform(0.05, 0.9)))
        counts["per_edge_golden"].append(resolvent(f, tp, tau, x))
        c = float(rng.uniform(-0.25, 0.25))
        f = strip_closed_forms(quadratic(q4, q4.point(c, c, c, c), 1.0))
        counts["proximal_gradient"].append(resolvent(f, q4, tau, random_point(q4, rng)))
    bounds = {"golden_section": 20, "per_edge_golden": 30, "proximal_gradient": 5}
    for method, results in counts.items():
        assert {r.method for r in results} == {method}
        assert np.mean([r.iterations for r in results]) <= bounds[method], method


_BIG = 1e12
# space, x, centre: coordinates around 1e12, where f's rounding swamps a
# short difference step and, on quantile vectors, a central step of 1e6
# breaks the order across gaps of 3
LARGE_COORDINATE_CASES = {
    "euclidean2_far": (euclidean(2), (_BIG, 2 * _BIG), (0.0, 0.0)),
    "euclidean2_near": (euclidean(2), (_BIG + 5, _BIG - 3), (_BIG, _BIG)),
    "quantile4_far": (quantile_1d(4), (_BIG, 1.5 * _BIG, 2 * _BIG, 3 * _BIG), (0.0,) * 4),
    "quantile4_near": (quantile_1d(4), tuple(_BIG + d for d in (-4.0, -1.0, 2.0, 8.0)), (_BIG,) * 4),
}


@pytest.mark.parametrize("case", sorted(LARGE_COORDINATE_CASES))
def test_vector_resolvent_at_large_coordinates_meets_the_closed_form(case):
    space, xc, cc = LARGE_COORDINATE_CASES[case]
    f, x, tau = quadratic(space, space.point(*cc), 1.0), space.point(*xc), 0.1
    want = f.closed_form_prox(tau, x)
    res = resolvent(strip_closed_forms(f), space, tau, x)
    assert res.method == "proximal_gradient"
    assert distance(space, res.point, want) <= 1e-6 * distance(space, x, want), (res.point, want)


@pytest.mark.parametrize("case", ["euclidean2_far", "quantile4_far"])
def test_probe_sees_a_wrong_resolvent_at_large_coordinates(case, monkeypatch):
    # a solver that stops 32% of the move short of the closed form; the
    # probe's deltas grow with max(1, max |u_i|), so they do not round back
    # to u at 1e12.  They are 1e5 and 1e7 there: a "near" case, whose whole
    # move is below 10, is beyond them.
    space, xc, cc = LARGE_COORDINATE_CASES[case]
    f, x, tau = quadratic(space, space.point(*cc), 1.0), space.point(*xc), 0.1
    want = f.closed_form_prox(tau, x)
    off = space.project(tuple(w + 0.32 * (a - w) for w, a in zip(want.coords, x.coords)))
    monkeypatch.setattr(proximal, "_solve_vector", lambda *args: (off, proximal._prox_value(*args, off)[0], 1))
    with pytest.raises(ConvergenceError):
        resolvent(strip_closed_forms(f), space, tau, x)


# the grid of a recovery entry piece at step 0.02 (``recovery._phi_times``)
_FLOW_TIMES = 0.02 * np.concatenate(([0.0], np.geomspace(1e-4, 1.0, 12)))


def test_stripped_quantile_flow_to_the_last_bit():
    # twelve proximal-gradient resolvents from a point with a tie; each feeds
    # the next, so the end pins every step's arithmetic
    q4 = quantile_1d(4)
    f = strip_closed_forms(quadratic(q4, q4.point(0.1, 0.1, 0.1, 0.1), 1.0))
    end = flow_times(f, q4, q4.point(-0.35, 0.2, 0.2, 0.95), _FLOW_TIMES).end
    assert [c.hex() for c in end.coords] == [
        "-0x1.5d4fa215fb871p-2", "0x1.958f7b3cf8136p-3", "0x1.958f7b3cf8136p-3", "0x1.ddd0e5e18fcb4p-1"]


def test_stripped_tripod_flow_to_the_last_bit():
    # twelve Brent resolvents, from edge 1 towards a centre on edge 0
    tp = tripod()
    f = strip_closed_forms(quadratic(tp, tp.point(0, 0.2), 1.0))
    end = flow_times(f, tp, tp.point(1, 0.6), _FLOW_TIMES).end
    assert [c.hex() for c in end.coords] == ["0x1.0000000000000p+0", "0x1.2b1ef679e0855p-1"]


def test_stripped_quantile_resolvent_evaluates_f_once_per_point():
    # 3 iterations: f at the start and at each iterate (4), f at the 4
    # forward steps of 3 gradients (12) and at the 16 probe points; each
    # iterate's own f(u) is reused by its gradient, not evaluated again
    q4 = quantile_1d(4)
    f = strip_closed_forms(quadratic(q4, q4.point(0.1, 0.1, 0.1, 0.1), 1.0))
    calls = []
    counted = replace(f, evaluate=lambda y: calls.append(y) or f.evaluate(y))
    res = resolvent(counted, q4, 0.01, q4.point(-0.35, 0.2, 0.2, 0.95))
    assert (res.method, res.iterations, len(calls)) == ("proximal_gradient", 3, 32)
    assert [c.hex() for c in res.point.coords] == [
        "-0x1.61d66e82c9619p-2", "0x1.979280c2a8e54p-3", "0x1.979280c2a9800p-3", "0x1.e217519da7ddbp-1"]


@pytest.mark.parametrize("start, iterations, evaluations, want", [
    # on the centre's edge, on another edge, and at the branch point; each
    # start evaluates f at its Brent probes and at its 4 shell points
    ((0, 0.7), 12, 16, ["0x0.0p+0", "0x1.4f2094f2144e4p-1"]),
    ((1, 0.6), 9, 13, ["0x1.0000000000000p+0", "0x1.0df6b0df658e7p-1"]),
    ((0, 0.0), 11, 15, ["0x0.0p+0", "0x1.29e4129e4127cp-6"]),
])
def test_stripped_tripod_resolvent_evaluates_f_once_per_point(start, iterations, evaluations, want):
    tp = tripod()
    f = strip_closed_forms(quadratic(tp, tp.point(0, 0.2), 1.0))
    calls = []
    counted = replace(f, evaluate=lambda y: calls.append(y) or f.evaluate(y))
    res = resolvent(counted, tp, 0.1, tp.point(*start))
    assert (res.method, res.iterations, len(calls)) == ("per_edge_golden", iterations, evaluations)
    assert [c.hex() for c in res.point.coords] == want


_probe_coordinate = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 1.0]))


@given(
    st.lists(_probe_coordinate, min_size=1, max_size=6),
    st.sampled_from(["euclidean", "quantile", "quantile_tied"]),
    st.sampled_from([proximal.POINT_TOL * 10, proximal.POINT_TOL * 1e3, 0.5]),
)
@settings(max_examples=150, deadline=None)
def test_probe_points_are_the_projected_moves(values, kind, delta):
    # a move that keeps the order is built as it is; it must be what
    # ``project`` gives, bit for bit, and a move past a neighbour too
    if kind == "euclidean":
        space = euclidean(len(values))
    else:
        values = sorted(values)
        if kind == "quantile_tied":
            values = values[:1] + values + values[-1:]
        if len(values) < 2:
            values = values * 2
        space = quantile_1d(len(values))
    u = space.project(values)
    scale = delta * max(1.0, max(map(abs, u.coords)))
    want = []
    for i in range(len(u.coords)):
        for s in (scale, -scale):
            c = list(u.coords)
            c[i] += s
            want.append(space.project(c))
    got = proximal._probe_points(space, u, delta)
    assert [p.space_kind for p in got] == [p.space_kind for p in want]
    assert [[c.hex() for c in p.coords] for p in got] == [[c.hex() for c in p.coords] for p in want]
