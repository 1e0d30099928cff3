"""Geodesically semi-convex functionals: evaluation, slopes, convexity checks.

A :class:`FunctionalSpec` bundles an evaluator (extended-real valued, with
``math.inf`` for points outside the effective domain), its convexity modulus
``lam``, and optional closed forms for the descending slope and the proximal
map.  Infinity saturates under IEEE arithmetic, which is exactly the
semantics the action integrals need; quadrature code guards the ``inf - inf``
and ``0 * inf`` corners explicitly.

The descending slope is computed either from a supplied closed form or from
the variational sup formula

    slope(x) = sup_{y != x}  max(f(x) - f(y) + (lam/2) d(x,y)^2, 0) / d(x,y)

probed at the smallest shell ``r = radius * 1e-6`` around ``x``.  Along a
geodesic from ``x`` the quotient only falls as ``d`` grows (``f - (lam/2)
d^2`` is convex there; AGS 2008, Thm 2.4.9), so the supremum is one over
directions at that shell.  The half-line and the tripod probe every
direction (``spaces.shell``).  Euclidean and quantile vectors take steepest
descent: the ``dim`` order-keeping forward steps of ``tangent_gradient``
(which gives the vector resolvent its gradient too) and one more step along
the descent direction projected onto the tangent cone (``isotonic_repair``
within each block of tied coordinates), ``dim + 2`` evaluations in all.
Every candidate is a real point and the estimate is its true quotient, so it
underestimates the supremum up to rounding and validators that consume it
stay conservative on the side they certify; on ``eps / x^2`` the shell costs
``1.5 * radius * 1e-6 / x`` relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .errors import ConfigError, ConvergenceError, DomainError
from .spaces import (
    Point,
    SpaceHandle,
    SpaceKind,
    check_tags,
    distance,
    geodesic_point,
    isotonic_repair,
    shell,
)

INF = math.inf
NEWTON_CAP = 100          # Newton steps of the inverse_square prox


@dataclass
class FunctionalSpec:
    """A semi-convex functional on one space.

    ``evaluate`` returns ``math.inf`` outside the effective domain, and
    that is the only record of the domain.  A ``closed_form_slope`` returns
    ``math.inf`` wherever ``evaluate`` does (the descending slope is
    infinite off the domain), so slopes need no separate domain check.
    ``lam`` is the geodesic convexity modulus (negative allowed).
    """

    id: str
    evaluate: Callable[[Point], float]
    lam: float
    closed_form_slope: Optional[Callable[[Point], float]] = None
    closed_form_prox: Optional[Callable[[float, Point], Point]] = None

    def in_domain(self, x: Point) -> bool:
        return math.isfinite(self.evaluate(x))

    def scaled(self, c: float) -> "FunctionalSpec":
        """The functional ``c * f`` for ``c > 0``.

        Scaling multiplies the convexity modulus, the slope, and rescales
        the proximal parameter: prox of ``c f`` at step ``tau`` equals prox
        of ``f`` at step ``c tau``.  The slope contract survives, since
        ``c * inf = inf``.
        """
        if c <= 0:
            raise DomainError("scale factor must be positive")
        base_eval = self.evaluate
        base_slope = self.closed_form_slope
        base_prox = self.closed_form_prox
        return FunctionalSpec(
            id=f"{self.id}*{c:g}",
            evaluate=lambda x: c * base_eval(x),
            lam=c * self.lam,
            closed_form_slope=(None if base_slope is None else (lambda x: c * base_slope(x))),
            closed_form_prox=(None if base_prox is None else (lambda tau, x: base_prox(c * tau, x))),
        )


@dataclass
class FunctionalFamily:
    """An indexed family ``h -> f^h`` together with its limit functional.

    ``base`` carries the unscaled functional when the family has the form
    ``scale(h) * base``; constructions that ride the unscaled flow need it.
    """

    member: Callable[[int], FunctionalSpec]
    limit: FunctionalSpec
    base: Optional[FunctionalSpec] = None


def lam_neg(lam: float) -> float:
    """Negative part of the convexity modulus."""
    return max(-lam, 0.0)


def evaluate(f: FunctionalSpec, x: Point) -> float:
    """Extended-real evaluation; ``inf`` exactly off the effective domain."""
    return f.evaluate(x)


# --------------------------------------------------------------------------
# descending slope
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedForm:
    pass


@dataclass(frozen=True)
class SupFormula:
    """The sup formula at the smallest shell, ``radius * 1e-6``."""

    radius: float = 4.0


# built once: the minimizers take the default path once per node evaluation
_SUP_FORMULA = SupFormula()


def _sup_expr(f: FunctionalSpec, space: SpaceHandle, x: Point, fx: float, y: Point) -> float:
    d = distance(space, x, y)
    if d <= 0:
        return 0.0
    fy = evaluate(f, y)
    if not math.isfinite(fy):
        return 0.0
    return max(fx - fy + 0.5 * f.lam * d * d, 0.0) / d


def tangent_gradient(f: FunctionalSpec, space: SpaceHandle, x: Point, fx: float, s: float):
    """Gradient of ``f`` at ``x`` on vectors from ``dim`` forward steps of
    coordinate length ``s`` along ``e_i``, or on quantile vectors along the
    suffix directions ``(0, .., 0, 1, .., 1)``, which keep the order, so no
    step is projected; there the partial is ``D_i - D_{i+1}`` for the
    differences ``D`` (``D_dim = 0``).  The steps difference ``f - (lam/2)
    d(x, .)^2``: ``f``'s gradient, exact differences on quadratics.
    Returns the partials (``None`` if a step leaves the domain) and each
    step's ``(d, rise)``.  The resolvent's step grows with ``max |x_i|``,
    or ``f``'s rounding swamps it (at the sup formula's, E^2 from ``(1e12,
    2e12)`` lands 7e-3 of the move off the closed form); the sup formula's
    stays at its shell, since one that grows swallows the gaps of 3 at
    1e12 its tied-block test reads (the slope reads 73% low).
    """
    k, n, lam = space.kind, space.dim, f.lam
    quantile = k is SpaceKind.QUANTILE_1D
    steps = []
    for i in range(n):
        c = list(x.coords)
        for j in range(i, n if quantile else i + 1):
            c[j] += s
        y = Point(k, tuple(c))
        d = distance(space, x, y)
        steps.append((d, evaluate(f, y) - fx - 0.5 * lam * d * d))
    diffs = [rise / s for _, rise in steps]
    if not all(map(math.isfinite, diffs)):
        return None, steps
    if quantile:
        diffs = [a - b for a, b in zip(diffs, diffs[1:] + [0.0])]
    return diffs, steps


def _vector_sup(f: FunctionalSpec, space: SpaceHandle, x: Point, fx: float, r: float) -> float:
    """Steepest descent at the smallest shell on vectors: the largest
    quotient over ``tangent_gradient``'s ``dim`` steps and one more along
    the descent direction projected onto the tangent cone.  The step,
    distance ``r`` along ``e_i``, is floored at 64 ulps of ``max |x_i|``
    (beyond about 5e8): a shorter step rounds back to ``x`` and reads 0.
    """
    base = x.coords
    s = max(r, 64.0 * math.ulp(max(map(abs, base)))) * math.sqrt(space.weight)
    grad, steps = tangent_gradient(f, space, x, fx, s)
    best = max([0.0, *(max(-rise, 0.0) / d for d, rise in steps if d > 0)])
    if grad is None:
        return best                     # a forward step left the domain
    down = [-v for v in grad]
    if space.kind is SpaceKind.QUANTILE_1D:
        # onto the tangent cone: nondecreasing within each tied block
        lo = 0
        for i in range(1, len(base) + 1):
            if i == len(base) or base[i] - base[i - 1] > s:
                down[lo:i] = isotonic_repair(down[lo:i])
                lo = i
    norm = math.sqrt(math.fsum(v * v for v in down))
    if norm == 0.0:
        return best
    y = space.project([b + s * v / norm for b, v in zip(base, down)])
    return max(best, _sup_expr(f, space, x, fx, y))


def descending_slope(
    f: FunctionalSpec,
    space: SpaceHandle,
    x: Point,
    method: ClosedForm | SupFormula | None = None,
) -> float:
    """Descending slope of ``f`` at ``x``.

    ``ClosedForm`` uses the supplied derivative expression, which returns
    ``inf`` off the domain itself; ``SupFormula`` estimates the variational
    supremum at the smallest shell.  Without a ``method`` the closed form is
    used when ``f`` has one and the sup formula otherwise; this is the slope
    policy of the whole lab.  It stays here, so that every slope goes
    through this function: ``perfbench/tracer.py`` counts slopes by wrapping
    it.  The default returns the closed form before any other test, since
    the minimizers take it once per probe.  Returns ``inf`` outside the
    effective domain and 0 where no probed point descends.
    """
    if method is None:
        if (closed_form := f.closed_form_slope) is not None:
            return closed_form(x)
        method = _SUP_FORMULA
    if isinstance(method, ClosedForm):
        if f.closed_form_slope is None:
            raise ConfigError(f"functional {f.id!r} has no closed-form slope")
        return f.closed_form_slope(x)
    check_tags(space, x)
    fx = evaluate(f, x)
    if not math.isfinite(fx):
        return INF
    r = method.radius * 1e-6
    if space.kind in (SpaceKind.EUCLIDEAN, SpaceKind.QUANTILE_1D):
        return _vector_sup(f, space, x, fx, r)
    return max([_sup_expr(f, space, x, fx, y) for y in shell(space, x, r)], default=0.0)


def slope_squared(f: FunctionalSpec, space: SpaceHandle, x: Point) -> float:
    """Squared default descending slope; ``inf`` where the slope is infinite.
    A finite slope whose square overflows is a ``DomainError``."""
    s = descending_slope(f, space, x)
    if not math.isfinite(s):
        return INF
    s2 = s * s
    if s2 == INF:
        raise DomainError(f"squared slope overflows at {x.coords}")
    return s2


# --------------------------------------------------------------------------
# convexity validator
# --------------------------------------------------------------------------


def check_lambda_convexity(
    f: FunctionalSpec,
    space: SpaceHandle,
    pairs: Sequence[tuple],
    t_grid: Sequence[float] = (0.25, 0.5, 0.75),
) -> float:
    """Max violation of geodesic semi-convexity over endpoint pairs.

    For each pair (x0, x1) with finite values, the residual at ``t`` is

        f(x_t) - [(1-t) f(x0) + t f(x1) - (lam/2) t (1-t) d(x0,x1)^2]

    and an honestly ``lam``-convex functional keeps it nonpositive.  Without
    a pair of finite values the residual is 0.
    """
    worst = -INF
    for x0, x1 in pairs:
        f0, f1 = evaluate(f, x0), evaluate(f, x1)
        if not (math.isfinite(f0) and math.isfinite(f1)):
            continue
        try:
            d2 = distance(space, x0, x1) ** 2
        except OverflowError:  # float ** 2 raises where * would give inf
            raise DomainError(f"squared distance overflows between {x0.coords} and {x1.coords}") from None
        for t in t_grid:
            xt = geodesic_point(space, x0, x1, t)
            ft = evaluate(f, xt)
            rhs = (1 - t) * f0 + t * f1 - 0.5 * f.lam * t * (1 - t) * d2
            worst = max(worst, ft - rhs)
    return 0.0 if worst == -INF else worst


# --------------------------------------------------------------------------
# built-in catalogue
# --------------------------------------------------------------------------


def zero_functional(space: SpaceHandle) -> FunctionalSpec:
    return FunctionalSpec(
        id="zero",
        evaluate=lambda x: 0.0,
        lam=0.0,
        closed_form_slope=lambda x: 0.0,
        closed_form_prox=lambda tau, x: x,
    )


def quadratic(space: SpaceHandle, center: Point, lam: float = 1.0) -> FunctionalSpec:
    """``(lam/2) d(x, center)^2``; modulus ``lam``, exact slope and prox."""
    if lam <= 0 and space.kind in (SpaceKind.TRIPOD, SpaceKind.QUANTILE_1D):
        raise ConfigError("nonconvex quadratic only supported on flat spaces")

    def ev(x):
        try:
            return 0.5 * lam * distance(space, x, center) ** 2
        except OverflowError:  # float ** 2 raises where * would give inf
            raise DomainError(f"quadratic value overflows at {x.coords}") from None

    def slope(x):
        d = distance(space, x, center)
        if space.kind is SpaceKind.HALF_LINE and lam < 0 and x.coords[0] == 0.0:
            return 0.0
        return abs(lam) * d

    def prox(tau, x):
        if lam >= 0:
            t = lam * tau / (1.0 + lam * tau)
            return geodesic_point(space, x, center, t)
        # flat spaces only: affine formula, then metric projection
        w = lam * tau
        coords = tuple((xc + w * cc) / (1.0 + w) for xc, cc in zip(x.coords, center.coords))
        return space.project(coords)

    return FunctionalSpec(
        id=f"quadratic(lam={lam:g})",
        evaluate=ev,
        lam=lam,
        closed_form_slope=slope,
        closed_form_prox=prox,
    )


def inverse_square(eps: float = 1.0) -> FunctionalSpec:
    """``eps / x^2`` on the half-line, infinite at the origin (catalogue
    name ``example1``), with exact slope and prox.

    The prox at step ``tau`` from ``v`` is the root ``y >= v`` of
    ``p(y) = y^3 (y - v) - 2 eps tau``, which is increasing and convex on
    ``[v, inf)``.  Newton's method starts at or right of the root, from
    ``min(v + (2 eps tau)^(1/4), v + 2 eps tau / v^3)``, and falls
    monotonically; it stops where ``p(y) <= 0`` or the iterate stops
    falling, and raises ``ConvergenceError`` after ``NEWTON_CAP`` steps.
    """

    # a power that underflows to 0.0 counts as the singularity: a tiny v
    # gives inf instead of a ZeroDivisionError
    def ev(x):
        v = x.coords[0]
        v2 = v * v
        return INF if v <= 0.0 or v2 == 0.0 else eps / v2

    def slope(x):
        v = x.coords[0]
        v3 = v * v * v
        return INF if v <= 0.0 or v3 == 0.0 else 2.0 * eps / v3

    def prox(tau, x):
        v, c = x.coords[0], 2.0 * eps * tau
        v3 = v * v * v
        y = v + c ** 0.25
        if v3 > 0.0:
            y = min(y, v + c / v3)      # c / v3 may overflow to inf
        for _ in range(NEWTON_CAP):
            p = (y - v) * y * y * y - c  # (y - v) first: 0 at y = v, even where y^3 overflows
            if p <= 0.0:
                break
            y_next = y - p / (y * y * (4.0 * y - 3.0 * v))
            if not y_next < y:
                break
            y = y_next
        else:
            raise ConvergenceError(f"inverse_square prox: no root after {NEWTON_CAP} Newton steps")
        return Point(SpaceKind.HALF_LINE, (y,))

    return FunctionalSpec(
        id=f"inverse_square(eps={eps:g})",
        evaluate=ev,
        lam=0.0,
        closed_form_slope=slope,
        closed_form_prox=prox,
    )


def ramp(h: float) -> FunctionalSpec:
    """Piecewise-linear descent ``1 - h x`` on [0, 1/h], zero beyond
    (catalogue name ``example2``)."""
    inv = 1.0 / h

    def ev(x):
        v = x.coords[0]
        return 1.0 - h * v if v <= inv else 0.0

    def slope(x):
        return h if x.coords[0] < inv else 0.0

    def prox(tau, x):
        v = x.coords[0]
        if v > inv:
            return Point(SpaceKind.HALF_LINE, (v,))
        if v >= inv - h * tau:
            return Point(SpaceKind.HALF_LINE, (inv,))
        return Point(SpaceKind.HALF_LINE, (v + h * tau,))

    return FunctionalSpec(
        id=f"ramp(h={h:g})",
        evaluate=ev,
        lam=0.0,
        closed_form_slope=slope,
        closed_form_prox=prox,
    )


def linear_half_line(c: float) -> FunctionalSpec:
    """``c x`` on the half-line (catalogue name ``linear``)."""

    def slope(x):
        return c if x.coords[0] > 0.0 else 0.0

    return FunctionalSpec(
        id=f"linear(c={c:g})",
        evaluate=lambda x: c * x.coords[0],
        lam=0.0,
        closed_form_slope=slope,
        closed_form_prox=lambda tau, x: Point(SpaceKind.HALF_LINE, (max(x.coords[0] - c * tau, 0.0),)),
    )


def strip_closed_forms(f: FunctionalSpec) -> FunctionalSpec:
    """Copy of ``f`` without closed forms; forces the numerical paths."""
    return replace(f, closed_form_slope=None, closed_form_prox=None)
