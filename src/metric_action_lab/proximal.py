"""Proximal (resolvent) maps by numerical minimization, plus validators.

The resolvent of ``f`` at step ``tau`` is the minimizer of

    f(.) + d(., x)^2 / (2 tau)

which is strongly convex whenever ``tau < 1 / (2 lam^-)``, so any descent
method converges to the unique minimizer.  Solvers by space:

* half-line: Brent's method (``brent``: golden-section steps that keep the
  bracket, plus parabolic steps) on an automatically expanded bracket.  The
  objective is convex along the line, so two probes with the same finite
  value hold a minimizer between them: the search stops once its values
  tie, or once its bracket is ``LINE_TOL`` (1e-11) wide;
* tripod: the objective is strongly convex along every edge, so an edge
  that does not descend from the branch point holds its minimizer there
  and needs no search; Brent, with the same stop rule, runs only on a
  descending edge.  Then compare edge minima (first edge wins exact ties;
  the iterations add up over the edges and the shared branch-point value);
* Euclidean and quantile vectors: proximal-gradient with backtracking on
  the smooth part and Barzilai-Borwein steps ``|dy|^2 / <dy, dg>`` from its
  gradients, falling back to cyclic coordinate descent, ``brent`` along
  one coordinate at a time, when the functional is not smooth enough to
  difference.  The gradient is ``functionals.tangent_gradient``'s: ``dim``
  forward steps that keep the order, so none is projected.  Each iterate
  keeps the ``f(u)`` behind its objective value (``_prox_value``), and its
  gradient reuses it.  The iterates are coordinate tuples and each trial
  point is projected once; the Barzilai-Borwein inner products stay
  ``np.dot``, because a Python sum rounds them differently.

``_prox_value`` is the objective at a point, its squared distance from
``spaces.squared_distance``; the optimality probe and the coordinate-descent
fallback evaluate it.  On the half-line and the tripod the objective is
minimized along one coordinate: ``_line_objective`` inlines it as a float
function whose distance term comes from ``spaces.distance_along``'s rule.
``resolvent`` checks ``x``'s tags once, at entry, not once per edge or
probe, and every probe value is bit-identical to ``_prox_value``'s.  There
the optimality probe compares the result with ``spaces.shell``, the points
around it on every branch, so it sees a branch point that should have
crossed onto another edge.  On vectors it moves one coordinate at a time;
a move keeps the order of quantile coordinates unless it passes a
neighbour, and only such a move is projected (``_probe_points``).

A supplied closed-form prox short-circuits everything: its value comes
from ``_prox_value`` at once, with no probe.  Only ``resolvent`` checks the
step range ``0 < tau < 1/(2 lam^-)``; every validator steps through it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .functionals import (
    INF,
    FunctionalFamily,
    FunctionalSpec,
    descending_slope,
    evaluate,
    lam_neg,
    tangent_gradient,
)
from .spaces import (
    Point,
    SpaceHandle,
    SpaceKind,
    _distance_along,
    check_tags,
    distance,
    geodesic_point,
    point_along,
    shell,
    squared_distance,
)

VALUE_TOL = 1e-10
POINT_TOL = 1e-8
MAX_ITER = 4000         # proximal-gradient iterations before the fallback
CD_SWEEPS = 60          # sweeps of the coordinate-descent fallback
LINE_TOL = 1e-11        # bracket width at which the 1-d searches stop

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ULP2 = 2.0 * 2.0 ** -52   # Brent's relative step floor: two ulps of the iterate


@dataclass
class ResolventResult:
    point: Point
    value: float
    iterations: int
    residual: float
    method: str = ""


def tau_upper_limit(lam: float) -> float:
    ln = lam_neg(lam)
    return INF if ln == 0.0 else 1.0 / (2.0 * ln)


def golden_section(g: Callable[[float], float], lo: float, hi: float):
    """Minimize a unimodal scalar function on [lo, hi] to ``LINE_TOL``.

    Tolerates ``inf`` plateaus at the ends of the bracket (the probe points
    simply lose every comparison), which covers objectives with a restricted
    effective domain.  A plateau that covers both first probes leaves the
    domain in an end piece, and the search restarts on the piece whose end
    value is finite.  At the end the best of the bracket ends and the two
    probes wins.  Every value is kept: an end that moves onto a probe takes
    its value, so ``g`` is called at most once per point.  Returns (argmin,
    min, evals), ``evals`` counting the calls of ``g``.
    """
    a, b, tol = float(lo), float(hi), LINE_TOL    # a local: the loop reads it every step
    ga = gb = None                      # end values, once evaluated
    n = 0
    while True:
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        gc, gd = g(c), g(d)
        n += 2
        if not (b - a > tol and not (math.isfinite(gc) or math.isfinite(gd))):
            break
        if ga is None:
            ga, n = g(a), n + 1
        if gb is None:
            gb, n = g(b), n + 1
        if not min(ga, gb) < INF:
            break
        if ga <= gb:                    # restart on the end piece with a finite end
            b, gb = c, gc
        else:
            a, ga = d, gd
    for _ in range(299):                # enough for a bracket 1e62 times tol
        if not b - a > tol:
            break
        if gc <= gd:
            b, gb, d, gd = d, gd, c, gc
            c = b - _GOLDEN * (b - a)
            gc = g(c)
        else:
            a, ga, c, gc = c, gc, d, gd
            d = a + _GOLDEN * (b - a)
            gd = g(d)
        n += 1
    if ga is None:
        ga, n = g(a), n + 1
    if gb is None:
        gb, n = g(b), n + 1
    x, v = min([(a, ga), (c, gc), (d, gd), (b, gb)], key=lambda p: p[1])
    return x, v, n


def brent(g: Callable[[float], float], lo: float, hi: float):
    """Minimize a convex scalar function on [lo, hi] by Brent's method.

    Golden-section steps that keep the bracket, and parabolic steps through
    the three best points so far wherever all three values are finite (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 5).  Two
    rules assume ``g`` convex (the half-line and tripod prox objectives are):

    * a probe whose finite value ties with the best one's closes the
      bracket to the two of them, since a convex function that takes one
      value at two points has a minimizer between them;
    * where the parabola fails and the best point lies within two step
      floors (``tol1``) of a bracket end, the step towards the far end is
      twice that distance (at least two floors, at most the golden step),
      so one worse probe closes the bracket.

    Once the parabola lands on the minimizer, its neighbours tie or close
    the bracket at once, where golden steps would walk the far end in to the
    ``LINE_TOL`` width.  Stops once the bracket is at most ``LINE_TOL`` wide
    (to the relative step floor), then compares the bracket ends with the
    best interior point, so a minimum at a bound is returned exactly and
    ``inf`` plateaus lose every comparison.  A plateau that covers both
    first probes is handled as in ``golden_section``: the search restarts
    on the end piece with a finite end and keeps the end values it knows, so
    ``g`` is called at most once per point.  Returns (argmin, min, evals),
    ``evals`` counting the calls of ``g``.
    """
    a, b = float(lo), float(hi)
    fa = fb = None                      # end values, once evaluated
    x = w = v = a + (1.0 - _GOLDEN) * (b - a)
    fx = fw = fv = g(x)
    n = start = 1                       # evaluations so far, and at the last (re)start
    d = e = 0.0                         # the last step and the one before
    while n < 300:
        m = 0.5 * (a + b)
        tol1 = _ULP2 * abs(x) + 0.25 * LINE_TOL
        if max(x - a, b - x) <= 2.0 * tol1:
            break
        golden = True
        if abs(e) > tol1 and math.isfinite(fx) and math.isfinite(fw) and math.isfinite(fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if x + d - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                    d = tol1 if x < m else -tol1
        if golden:
            e = a - x if x >= m else b - x
            d = (1.0 - _GOLDEN) * e
            near = min(x - a, b - x)
            if near <= 2.0 * tol1:      # one step towards the far end closes the bracket
                d = math.copysign(min(max(2.0 * near, 2.0 * tol1), abs(d)), e)
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = g(u)
        n += 1
        if n == start + 1 and not (math.isfinite(fx) or math.isfinite(fu)):
            if fa is None:              # the first two probes, x < u, met a plateau
                fa, fb, n = g(a), g(b), n + 2
            if min(fa, fb) < INF:       # restart on the end piece with a finite end
                if fa <= fb:
                    b, fb = x, fx
                else:
                    a, fa = u, fu
                x = w = v = a + (1.0 - _GOLDEN) * (b - a)
                fx = fw = fv = g(x)
                n = start = n + 1
                d = e = 0.0
                continue
        if fu == fx < INF:              # a tie: convex g has a minimizer between u and x
            if u >= x:
                b, fb = u, fu
            else:
                a, fa = u, fu
        if fu <= fx:
            if u >= x:
                a, fa = x, fx
            else:
                b, fb = x, fx
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a, fa = u, fu
            else:
                b, fb = u, fu
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    if fa is None:
        fa, n = g(a), n + 1
    if fb is None:
        fb, n = g(b), n + 1
    x, v = min([(a, fa), (x, fx), (b, fb)], key=lambda p: p[1])
    return x, v, n


def grid_golden(g: Callable[[float], float], lo: float, hi: float):
    """Minimize a scalar function on [lo, hi] that need not be unimodal.

    Scans a 17-point grid, then runs golden section between the grid
    neighbours of the best grid point.  Returns (argmin, min, evals).
    """
    # the points of np.linspace(lo, hi, 17), bit for bit
    step = (hi - lo) / 16
    grid = [k * step + lo for k in range(16)] + [hi]
    vals = [g(v) for v in grid]
    j = min(range(len(grid)), key=vals.__getitem__)  # first minimum, as np.argmin
    a, b = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
    x, v, n = golden_section(g, a, b)
    return x, v, n + len(grid)


def expand_bracket(g: Callable[[float], float], x0: float, lo_bound: float):
    """Find [lo, hi] containing the minimizer of a convex scalar function,
    doubling the distance from ``x0`` of each end of [x0 - 1, x0 + 1]."""
    lo = max(lo_bound, x0 - 1.0)
    hi = x0 + 1.0
    for _ in range(80):
        if g(hi) >= g(max(hi - 1e-9 * max(abs(hi), 1.0), lo)):
            break
        hi = x0 + 2 * (hi - x0)
    for _ in range(80):
        if lo <= lo_bound + 1e-300:
            lo = lo_bound
            break
        if g(lo) >= g(lo + 1e-9 * max(abs(lo), 1.0)):
            break
        lo = x0 - 2 * (x0 - lo)
        lo = max(lo, lo_bound)
    return lo, hi


def _prox_value(f: FunctionalSpec, space: SpaceHandle, tau: float, x: Point, y: Point):
    """``(f(y) + d(y, x)^2 / (2 tau), f(y))``; the first is ``inf`` off the
    domain of ``f``."""
    fy = evaluate(f, y)
    if not math.isfinite(fy):
        return INF, fy
    return fy + squared_distance(space, y, x) / (2.0 * tau), fy


def _line_objective(f: FunctionalSpec, space: SpaceHandle, tau: float, x: Point, edge: int = 0):
    """``_prox_value``'s objective as a function of the coordinate along one
    line (the half-line, or tripod edge ``edge``); ``resolvent`` has
    checked ``x``'s tags."""
    at, dist, tau2 = point_along(space, edge), _distance_along(space, x, edge), 2.0 * tau

    def val(s: float) -> float:  # _prox_value and squared_distance inlined: a call per probe costs ~8%
        fy = evaluate(f, at(s))
        if not math.isfinite(fy):
            return INF
        try:
            return fy + dist(s) ** 2 / tau2
        except OverflowError:
            raise DomainError(f"resolvent objective overflows at {at(s).coords}") from None

    return val


def _solve_half_line(f: FunctionalSpec, space: SpaceHandle, tau: float, x: Point):
    g = _line_objective(f, space, tau, x)
    lo, hi = expand_bracket(g, x.coords[0], 0.0)
    v, val, n = brent(g, lo, hi)
    return Point(SpaceKind.HALF_LINE, (v,)), val, n


def tripod_edge_search(g: Callable[[float], float], length: float, g0: float):
    """Minimize the strongly convex objective ``g`` along one tripod edge,
    given its value ``g0 = g(0)`` at the branch point.

    An edge that does not descend from the branch point, ``g(LINE_TOL) >=
    g0`` with ``g0`` finite, holds its minimizer in ``[0, LINE_TOL]`` and
    returns ``(0.0, g0)`` without a search; only a descending edge runs
    ``brent``.  Returns (argmin, min, evals).
    """
    if math.isfinite(g0) and g(min(LINE_TOL, length)) >= g0:
        return 0.0, g0, 1
    s, v, n = brent(g, 0.0, length)
    return s, v, n + 1


def _solve_tripod(f: FunctionalSpec, space: SpaceHandle, tau: float, x: Point):
    lines = [_line_objective(f, space, tau, x, e) for e in range(len(space.edge_lengths))]
    g0 = lines[0](0.0)  # the branch point, shared by every edge
    edges = [tripod_edge_search(line, length, g0) for line, length in zip(lines, space.edge_lengths)]
    e = min(range(len(edges)), key=lambda e: edges[e][1])  # first edge wins ties
    u = Point(SpaceKind.TRIPOD, (float(e), edges[e][0]))
    return u, edges[e][1], 1 + sum(n for _, _, n in edges)


def _solve_vector(f: FunctionalSpec, space: SpaceHandle, tau: float, x: Point):
    """Proximal-gradient with backtracking; coordinate descent fallback.

    Each iterate keeps the ``f(u)`` behind its value, so its gradient
    evaluates ``f`` only at the ``dim`` forward steps."""
    xc, tw = x.coords, tau * space.weight
    h = 4e-6 * math.sqrt(space.weight)  # times max(1, max |u_i|): f's rounding grows with it
    value = functools.partial(_prox_value, f, space, tau, x)

    def prox_step(y, g, s):
        # the gradient step y - s g, then the exact prox of the coupling
        # term d(., x)^2 / (2 tau) in coordinates
        w = s / tw
        w1 = 1.0 + w
        return space.project([(yi - s * gi + w * xi) / w1 for yi, gi, xi in zip(y, g, xc)])

    def gradient(u, fu):
        return tangent_gradient(f, space, u, fu, h * max(1.0, max(map(abs, u.coords))))[0]

    u = space.project(xc)
    (val, fu), step, it = value(u), tau, 0
    g = gradient(u, fu) if math.isfinite(val) else None
    smooth = g is not None
    for it in range(1, MAX_ITER + 1):
        if not smooth:
            break
        y = u.coords
        u_new = prox_step(y, g, step)
        v_new, f_new = value(u_new)
        bt = 0
        while v_new > val + 1e-15 and bt < 60:
            step *= 0.5
            u_new = prox_step(y, g, step)
            v_new, f_new = value(u_new)
            bt += 1
        if bt >= 60:
            smooth = False
            break
        dy = [a - b for a, b in zip(u_new.coords, y)]
        move = max(map(abs, dy))
        gain = val - v_new
        u, val = u_new, v_new
        if move < 0.2 * POINT_TOL and gain < VALUE_TOL:
            break
        g_new = gradient(u, f_new)
        if g_new is None:
            smooth = False
            break
        # Barzilai-Borwein step from the smooth part's gradients; grow the
        # step where the measured curvature is not positive
        curv = float(np.dot(dy, [a - b for a, b in zip(g_new, g)]))
        step = min(float(np.dot(dy, dy)) / curv if curv > 0.0 else step * 1.5, 1e6)
        g = g_new
    if not smooth:
        y, val, extra = _coordinate_descent(lambda c: value(space.project(tuple(c)))[0], u.coords, val)
        it += extra
        u = space.project(tuple(y))
    return u, val, it


def _coordinate_descent(full, y, val):
    """``brent`` along each coordinate in turn, on a span set by its last step;
    a point is taken only where it lowers the value (``full`` need not be convex)."""
    y = np.array(y, dtype=float)
    n = 0
    span = np.ones(len(y))
    for _ in range(CD_SWEEPS):
        moved = 0.0
        for i in range(len(y)):
            def g1(v):
                c = y.copy()
                c[i] = v
                return full(c)

            vstar, vval, k = brent(g1, y[i] - span[i], y[i] + span[i])
            n += k
            step = 0.0
            if vval < val:
                step, y[i], val = abs(vstar - y[i]), vstar, vval
            moved = max(moved, step)
            span[i] = max(4 * step + 1e-6, span[i] * 0.5)
        if moved < 0.2 * POINT_TOL:
            break
    return y, val, n


def resolvent(
    f: FunctionalSpec,
    space: SpaceHandle,
    tau: float,
    x: Point,
) -> ResolventResult:
    """Minimize ``f(.) + d(., x)^2 / (2 tau)``.

    Uses the closed-form prox when the functional carries one; otherwise
    dispatches to the space-appropriate solver.  Raises ``ConvergenceError``
    (with the best iterate attached) if the optimality probe fails: a move
    of 1e-7 or 1e-5 times ``max(1, max |u_i|)`` along any vector coordinate,
    or to the half-line or tripod ``shell`` at 1e-7 or 1e-5 times ``max(1,
    offset)`` (every branch), lowers the value by more than 1e-7.  A point
    ``x`` of another space is a ``DomainError`` on every path.
    """
    if not 0.0 < tau < tau_upper_limit(f.lam):
        raise DomainError(f"step {tau} outside (0, {tau_upper_limit(f.lam):g}) for modulus {f.lam:g}")
    check_tags(space, x)
    if f.closed_form_prox is not None:
        u = f.closed_form_prox(tau, x)
        return ResolventResult(u, _prox_value(f, space, tau, x, u)[0], 0, 0.0, method="closed_form")
    if space.kind is SpaceKind.HALF_LINE:
        u, val, n = _solve_half_line(f, space, tau, x)
        method = "golden_section"
    elif space.kind is SpaceKind.TRIPOD:
        u, val, n = _solve_tripod(f, space, tau, x)
        method = "per_edge_golden"
    else:
        u, val, n = _solve_vector(f, space, tau, x)
        method = "proximal_gradient"
    # optimality probe: nearby points must not beat the reported value
    line = space.kind in (SpaceKind.HALF_LINE, SpaceKind.TRIPOD)
    gap = 0.0
    for delta in (POINT_TOL * 10, POINT_TOL * 1e3):
        near = shell(space, u, delta * max(1.0, u.coords[-1])) if line else _probe_points(space, u, delta)
        for y in near:
            gap = max(gap, val - _prox_value(f, space, tau, x, y)[0])
    if gap > 1e-7:
        raise ConvergenceError(
            f"resolvent probe found improvement {gap:.2e}",
            best=ResolventResult(u, val, n, gap, method=method),
        )
    return ResolventResult(u, val, n, gap, method=method)


def _probe_points(space: SpaceHandle, u: Point, delta: float):
    """``space.project`` of each move of one coordinate of the projected
    point ``u`` by ``+-delta`` times ``max(1, max |u_i|)``.  A move that
    keeps the order of quantile coordinates, and every move on ``R^n``,
    projects to itself, so only a move past a neighbour calls ``project``."""
    c, k = u.coords, space.kind
    delta *= max(1.0, max(map(abs, c)))  # the vector solver's scale
    last = len(c) - 1
    ordered = k is SpaceKind.QUANTILE_1D
    out = []
    for i in range(last + 1):
        for s in (delta, -delta):
            v = c[i] + s
            moved = c[:i] + (v,) + c[i + 1 :]
            if ordered and not ((i == 0 or c[i - 1] <= v) and (i == last or v <= c[i + 1])):
                out.append(space.project(moved))
            else:
                out.append(Point(k, moved))
    return out


# --------------------------------------------------------------------------
# validators
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    """Residuals of slope(u) <= d(u,x)/tau <= slope(x)/(1 + lam tau)."""

    lower_residual: float
    upper_residual: float
    slope_u: float
    ratio: float
    slope_x: float


def check_bound_chain(
    f: FunctionalSpec,
    space: SpaceHandle,
    tau: float,
    x: Point,
    method=None,
) -> ChainReport:
    res = resolvent(f, space, tau, x)
    u = res.point
    s_u = descending_slope(f, space, u, method)
    s_x = descending_slope(f, space, x, method)
    ratio = distance(space, u, x) / tau
    upper = INF if not math.isfinite(s_x) else ratio - s_x / (1.0 + f.lam * tau)
    return ChainReport(s_u - ratio, upper, s_u, ratio, s_x)


def check_resolvent_lipschitz(
    f: FunctionalSpec, space: SpaceHandle, tau: float, x: Point, y: Point
) -> float:
    """``d(J x, J y) - d(x, y) / sqrt(1 - 2 lam^- tau)``, expected <= tol."""
    ju = resolvent(f, space, tau, x).point
    jv = resolvent(f, space, tau, y).point
    factor = 1.0 / math.sqrt(1.0 - 2.0 * lam_neg(f.lam) * tau)
    return distance(space, ju, jv) - factor * distance(space, x, y)


def check_tau_continuity(
    f: FunctionalSpec, space: SpaceHandle, nu: float, mu: float, x: Point
) -> float:
    """Step-continuity residual for 0 < nu < mu within the admissible range."""
    if not 0.0 < nu < mu:
        raise DomainError("need 0 < nu < mu")
    s_x = descending_slope(f, space, x)
    jn = resolvent(f, space, nu, x).point
    jm = resolvent(f, space, mu, x).point
    bound = (mu - nu) * s_x / ((1.0 + f.lam * mu) * math.sqrt(1.0 - 2.0 * lam_neg(f.lam) * nu))
    return distance(space, jn, jm) - bound


def check_resolvent_identity(
    f: FunctionalSpec, space: SpaceHandle, nu: float, mu: float, x: Point
) -> float:
    """``d(J_mu x, J_nu(gamma(nu/mu)))`` with gamma the geodesic J_mu x -> x."""
    if not 0.0 < nu < mu:
        raise DomainError("need 0 < nu < mu")
    jm = resolvent(f, space, mu, x).point
    mid = geodesic_point(space, jm, x, nu / mu)
    jn = resolvent(f, space, nu, mid).point
    return distance(space, jm, jn)


def resolvent_convergence_probe(
    family: FunctionalFamily,
    space: SpaceHandle,
    tau: float,
    x: Point,
    h_list: Sequence[int],
) -> list:
    """Distances from the member resolvents to the limit resolvent."""
    target = resolvent(family.limit, space, tau, x).point
    return [distance(space, resolvent(family.member(h), space, tau, x).point, target) for h in h_list]
