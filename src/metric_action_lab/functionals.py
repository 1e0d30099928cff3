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

sampled on deterministic concentric shells around ``x`` and then polished by
local ascent.  The sampled value can only underestimate the true supremum,
so validators that consume it stay conservative on the side they certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .laws import config_number, config_object
from .spaces import (
    Point,
    SpaceHandle,
    SpaceKind,
    distance,
    geodesic_point,
)

INF = math.inf

# fixed seed for the deterministic shell-direction set; reproducibility of
# sup-formula estimates depends on it
_DIRECTION_SEED = 20240517


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
    radius: float = 4.0
    n_samples: int = 256


# built once: the minimizers take the default path once per node evaluation
_CLOSED_FORM = ClosedForm()
_SUP_FORMULA = SupFormula()


def _shell_radii(radius: float, n_shells: int) -> list:
    # log-spaced so the smallest shell resolves local derivative behaviour
    return [radius * 10.0 ** (-6.0 * (1.0 - i / (n_shells - 1))) for i in range(n_shells)]


def _directions(dim: int, n: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    rng = np.random.default_rng(_DIRECTION_SEED)
    d = rng.normal(size=(n, dim))
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    return d / np.maximum(norms, 1e-300)


def _sup_candidates(space: SpaceHandle, x: Point, radius: float, n_samples: int):
    """Deterministic probe points on concentric shells around ``x``."""
    n_shells = max(4, int(round(math.sqrt(n_samples))))
    radii = _shell_radii(radius, n_shells)
    k = space.kind
    out = []
    if k in (SpaceKind.EUCLIDEAN, SpaceKind.QUANTILE_1D):
        unit = math.sqrt(space.weight)
        n_dirs = max(2, n_samples // n_shells)
        dirs = _directions(space.dim, n_dirs)
        base = np.array(x.coords)
        for r in radii:
            for u in dirs:
                y = base + r * unit * u
                out.append(space.project(tuple(y)))
    elif k is SpaceKind.HALF_LINE:
        x0 = x.coords[0]
        for r in radii:
            if x0 - r > 0:
                out.append(Point(k, (x0 - r,)))
            if x0 - r == 0.0:
                out.append(Point(k, (0.0,)))
            out.append(Point(k, (x0 + r,)))
        if x0 > 0:
            out.append(Point(k, (0.0,)))
    else:  # tripod: move along every branch at each shell radius
        e, off = int(x.coords[0]), x.coords[1]
        for r in radii:
            if off + r <= space.edge_lengths[e]:
                out.append(Point(k, (float(e), off + r)))
            if r < off:
                out.append(Point(k, (float(e), off - r)))
            else:
                for e2 in range(len(space.edge_lengths)):
                    if e2 != e and r - off <= space.edge_lengths[e2] and r >= off:
                        out.append(Point(k, (float(e2), r - off)))
    return out


def _sup_expr(f: FunctionalSpec, space: SpaceHandle, x: Point, fx: float, y: Point) -> float:
    d = distance(space, x, y)
    if d <= 0:
        return 0.0
    fy = evaluate(f, y)
    if not math.isfinite(fy):
        return 0.0
    return max(fx - fy + 0.5 * f.lam * d * d, 0.0) / d


def _polish_vector(f, space, x, fx, y0, radius):
    """Local ascent of the sup-formula expression for vector-like spaces."""
    base = np.array(y0.coords)
    val = _sup_expr(f, space, x, fx, y0)
    step = max(0.05 * radius, 1e-6)
    for _ in range(80):
        g = np.zeros(len(base))
        eps = max(1e-7, 1e-7 * float(np.max(np.abs(base))))
        for i in range(len(base)):
            bp, bm = base.copy(), base.copy()
            bp[i] += eps
            bm[i] -= eps
            vp = _sup_expr(f, space, x, fx, space.project(tuple(bp)))
            vm = _sup_expr(f, space, x, fx, space.project(tuple(bm)))
            g[i] = (vp - vm) / (2 * eps)
        gn = float(np.linalg.norm(g))
        if gn < 1e-12:
            break
        improved = False
        s = step
        for _ in range(30):
            cand = space.project(tuple(base + s * g / gn))
            v = _sup_expr(f, space, x, fx, cand)
            if v > val + 1e-15:
                base = np.array(cand.coords)
                val, improved = v, True
                step = min(2 * s, radius)
                break
            s *= 0.5
        if not improved:
            break
    return val


def _polish_ray(f, space, x, fx, y0):
    """Golden-section ascent along the 1-d branch through the best sample."""
    d0 = distance(space, x, y0)
    if d0 <= 0:
        return 0.0

    def at(r):
        t = r / d0
        if t <= 1.0:
            return geodesic_point(space, x, y0, t)
        # extend beyond y0 where the space allows it
        if space.kind is SpaceKind.TRIPOD:
            e, off = int(y0.coords[0]), y0.coords[1]
            ex = int(x.coords[0])
            if e == ex:
                sgn = 1.0 if off >= x.coords[1] else -1.0
                return space.project((e, x.coords[1] + sgn * r))
            return space.project((e, r - x.coords[1]))
        coords = tuple(a + t * (b - a) for a, b in zip(x.coords, y0.coords))
        return space.project(coords)

    lo, hi = math.log(max(d0 * 1e-6, 1e-14)), math.log(d0 * 4)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc = _sup_expr(f, space, x, fx, at(math.exp(c)))
    fd = _sup_expr(f, space, x, fx, at(math.exp(d)))
    for _ in range(70):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = _sup_expr(f, space, x, fx, at(math.exp(c)))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = _sup_expr(f, space, x, fx, at(math.exp(d)))
    return max(fc, fd)


def descending_slope(
    f: FunctionalSpec,
    space: SpaceHandle,
    x: Point,
    method: ClosedForm | SupFormula | None = None,
) -> float:
    """Descending slope of ``f`` at ``x``.

    ``ClosedForm`` uses the supplied derivative expression, which returns
    ``inf`` off the domain itself; ``SupFormula`` estimates the variational
    supremum from shell samples.  Without a ``method`` the closed form is
    used when ``f`` has one and the sup formula otherwise; this is the slope
    policy of the whole lab.  Returns ``inf`` outside the effective domain
    and 0 where no sampled point descends.
    """
    if method is None:
        method = _CLOSED_FORM if f.closed_form_slope is not None else _SUP_FORMULA
    if isinstance(method, ClosedForm):
        if f.closed_form_slope is None:
            raise ConfigError(f"functional {f.id!r} has no closed-form slope")
        return f.closed_form_slope(x)
    fx = evaluate(f, x)
    if not math.isfinite(fx):
        return INF
    if method.n_samples <= 0:
        raise ConfigError("SupFormula needs n_samples > 0")
    best, best_y = 0.0, None
    for y in _sup_candidates(space, x, method.radius, method.n_samples):
        v = _sup_expr(f, space, x, fx, y)
        if v > best:
            best, best_y = v, y
    if best_y is not None:
        if space.kind in (SpaceKind.EUCLIDEAN, SpaceKind.QUANTILE_1D) and space.dim > 1:
            best = max(best, _polish_vector(f, space, x, fx, best_y, method.radius))
        best = max(best, _polish_ray(f, space, x, fx, best_y))
    return best


def slope_squared(f: FunctionalSpec, space: SpaceHandle, x: Point) -> float:
    """Squared default descending slope; ``inf`` where the slope is infinite."""
    s = descending_slope(f, space, x)
    return s * s if math.isfinite(s) else INF


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
        d2 = distance(space, x0, x1) ** 2
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
        return 0.5 * lam * distance(space, x, center) ** 2

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
    name ``example1``)."""

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

    return FunctionalSpec(
        id=f"inverse_square(eps={eps:g})",
        evaluate=ev,
        lam=0.0,
        closed_form_slope=slope,
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


def build_functional(space: SpaceHandle, name: str, params: dict | None = None) -> FunctionalSpec:
    """Catalogue lookup used by config files.

    Names: ``zero``, ``quadratic`` (params ``center``, ``lam``), ``example1``
    (param ``eps``), ``example2`` (param ``h``), ``linear`` (param ``c``).
    """
    params = config_object({} if params is None else params, "params")
    if name == "zero":
        return zero_functional(space)
    if name == "quadratic":
        center = params.get("center", 0.0)
        if space.kind is SpaceKind.TRIPOD:
            if not (isinstance(center, (list, tuple)) and len(center) == 2):
                raise ConfigError(f"a tripod quadratic needs center [edge, offset], got {center!r}")
        elif not isinstance(center, (list, tuple)):
            center = [center] * space.dim
        elif len(center) != space.dim:
            raise ConfigError(
                f"config key 'center' must be a number or {space.dim} numbers, got {center!r}"
            )
        center = [config_number(c, "center") for c in center]
        return quadratic(space, space.point(*center), config_number(params.get("lam", 1.0), "lam"))
    if name == "example1":
        if space.kind is not SpaceKind.HALF_LINE:
            raise ConfigError("example1 lives on the half-line")
        return inverse_square(config_number(params.get("eps", 1.0), "eps"))
    if name == "example2":
        if space.kind is not SpaceKind.HALF_LINE:
            raise ConfigError("example2 lives on the half-line")
        return ramp(config_number(params.get("h", 1.0), "h"))
    if name == "linear":
        if space.kind is not SpaceKind.HALF_LINE:
            raise ConfigError("linear lives on the half-line")
        return linear_half_line(config_number(params.get("c", 1.0), "c"))
    raise ConfigError(f"unknown catalogue functional {name!r}")


def strip_closed_forms(f: FunctionalSpec) -> FunctionalSpec:
    """Copy of ``f`` without closed forms; forces the numerical paths."""
    return replace(f, closed_form_slope=None, closed_form_prox=None)
