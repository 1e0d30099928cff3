"""Concrete metric spaces: distances, geodesics, comparison inequality.

Four space kinds are implemented:

* ``EUCLIDEAN``: R^n with the Euclidean metric.
* ``HALF_LINE``: [0, inf) with |x - y|.
* ``TRIPOD``: a metric tree made of ``k`` segments glued at a common branch
  point; a point is an ``(edge, offset)`` pair and geodesics between
  different edges run through the branch point.
* ``QUANTILE_1D``: nondecreasing quantile vectors of fixed length ``m`` with
  the scaled Euclidean metric ``|u - v| / sqrt(m)``.  This is the discrete
  embedding of one-dimensional Wasserstein geometry; monotonicity violations
  produced by vector arithmetic are repaired with pool-adjacent-violators.

``SpaceHandle.dim`` is the number of coordinates of a point on every space:
``n`` on ``R^n``, 1 on the half-line, 2 on a tripod (edge, offset) and the
grid size ``m`` on quantile vectors.  On the flat spaces (Euclidean,
half-line, quantile) the distance is ``|u - v| / sqrt(weight)`` in
coordinates, where ``SpaceHandle.weight`` is ``m`` on quantile vectors and 1
elsewhere.  The half-line and each tripod edge are lines: ``point_along`` and
``distance_along`` give a point and its distance to a fixed point as
functions of the coordinate along one of them, for the 1-d searches, and
``shell`` the points at one distance along every branch around a point.

All four spaces are geodesic and satisfy the quadrilateral comparison
inequality

    d(y, x_t)^2 <= (1-t) d(y, x0)^2 + t d(y, x1)^2 - t (1-t) d(x0, x1)^2

which :func:`check_cat0` evaluates as a testable residual.

Everything here is pure and immutable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .errors import DomainError


class SpaceKind(str, Enum):
    EUCLIDEAN = "euclidean"
    HALF_LINE = "half_line"
    TRIPOD = "tripod"
    QUANTILE_1D = "quantile_1d"


@dataclass(frozen=True)
class SpaceHandle:
    """A concrete metric space with distance and geodesic oracles."""

    kind: SpaceKind
    dim: int = 1            # coordinates of a point
    edge_lengths: tuple = ()

    def __post_init__(self):
        if self.kind is SpaceKind.EUCLIDEAN and self.dim < 1:
            raise DomainError("euclidean dimension must be >= 1")
        if self.kind is SpaceKind.TRIPOD:
            if len(self.edge_lengths) < 2:
                raise DomainError("tripod needs at least 2 edges")
            if any(l <= 0 for l in self.edge_lengths):
                raise DomainError("tripod edge lengths must be positive")
        if self.kind is SpaceKind.QUANTILE_1D and self.dim < 2:
            raise DomainError("quantile grid size must be >= 2")

    @property
    def weight(self) -> int:
        """The flat-metric weight ``m``: the grid size on quantile vectors, 1 elsewhere."""
        return self.dim if self.kind is SpaceKind.QUANTILE_1D else 1

    def point(self, *coords) -> "Point":
        """Build a validated point of this space.

        Euclidean: ``point(x1, ..., xn)``; half-line: ``point(x)``;
        tripod: ``point(edge_index, offset)``; quantile: ``point(v1, ..., vm)``
        or ``point(sequence)``.  Coordinates must be finite.
        """
        if len(coords) == 1 and isinstance(coords[0], (list, tuple)):
            coords = tuple(coords[0])
        coords = tuple(float(c) for c in coords)
        if not all(map(math.isfinite, coords)):
            raise DomainError(f"point coordinates must be finite, got {coords}")
        if self.kind in (SpaceKind.EUCLIDEAN, SpaceKind.QUANTILE_1D) and len(coords) != self.dim:
            raise DomainError(f"expected {self.dim} coordinates, got {len(coords)}")
        if self.kind is SpaceKind.HALF_LINE:
            if len(coords) != 1 or coords[0] < 0:
                raise DomainError("half-line points are single nonnegative reals")
        elif self.kind is SpaceKind.TRIPOD:
            if len(coords) != 2:
                raise DomainError("tripod points are (edge, offset) pairs")
            e = int(coords[0])
            if not 0 <= e < len(self.edge_lengths):
                raise DomainError(f"edge index {e} out of range")
            if not 0.0 <= coords[1] <= self.edge_lengths[e] + 1e-12:
                raise DomainError(f"offset {coords[1]} outside edge {e}")
            coords = (float(e), min(coords[1], self.edge_lengths[e]))
        elif self.kind is SpaceKind.QUANTILE_1D:
            if any(b < a - 1e-9 for a, b in zip(coords, coords[1:])):
                raise DomainError("quantile vector must be nondecreasing")
            coords = tuple(isotonic_repair(coords))
        return Point(self.kind, coords)

    def project(self, coords: Sequence[float]) -> "Point":
        """Repair raw coordinates into a valid point (metric projection).

        Half-line clamps at zero, quantile vectors are isotonically
        projected, tripod offsets are clamped into their edge.  Nondecreasing
        quantile coordinates come back as they are, bit-identical to
        pool-adjacent-violators, which would divide each by 1.  Coordinates
        other than ``dim`` of them are a ``DomainError``.
        """
        coords = tuple(float(c) for c in coords)
        if len(coords) != self.dim:
            raise DomainError(f"expected {self.dim} coordinates, got {len(coords)}")
        if self.kind is SpaceKind.HALF_LINE:
            return Point(self.kind, (max(coords[0], 0.0),))
        if self.kind is SpaceKind.QUANTILE_1D:
            if all(map(operator.le, coords, coords[1:])):
                return Point(self.kind, coords)
            return Point(self.kind, tuple(isotonic_repair(coords)))
        if self.kind is SpaceKind.TRIPOD:
            e = int(round(coords[0]))
            e = min(max(e, 0), len(self.edge_lengths) - 1)
            off = min(max(coords[1], 0.0), self.edge_lengths[e])
            return Point(self.kind, (float(e), off))
        return Point(self.kind, coords)


@dataclass(frozen=True, slots=True)
class Point:
    """A point of some :class:`SpaceHandle`, tagged with the space kind.

    A value: frozen, compared and hashed by its fields, with two slots and
    no ``__dict__``.  ``__init__`` writes the slots through their
    descriptors; the generated frozen ``__init__`` goes through
    ``object.__setattr__`` per field, which makes a point almost twice as
    slow to build, and the 1-d searches build one per probe.
    """

    space_kind: SpaceKind
    coords: tuple

    def __init__(self, space_kind: SpaceKind, coords: tuple):
        _set_space_kind(self, space_kind)
        _set_coords(self, coords)


_set_space_kind = Point.space_kind.__set__
_set_coords = Point.coords.__set__

_TRIPOD, _QUANTILE_1D = SpaceKind.TRIPOD, SpaceKind.QUANTILE_1D  # an Enum member lookup costs ~0.1 us


def euclidean(dim: int) -> SpaceHandle:
    return SpaceHandle(SpaceKind.EUCLIDEAN, dim=dim)


def half_line() -> SpaceHandle:
    return SpaceHandle(SpaceKind.HALF_LINE)


def tripod(edge_lengths: Sequence[float] = (1.0, 1.0, 1.0)) -> SpaceHandle:
    return SpaceHandle(SpaceKind.TRIPOD, dim=2, edge_lengths=tuple(float(l) for l in edge_lengths))


def quantile_1d(grid_size: int) -> SpaceHandle:
    return SpaceHandle(SpaceKind.QUANTILE_1D, dim=grid_size)


def isotonic_repair(values: Sequence[float]) -> list:
    """Project onto nondecreasing vectors (pool adjacent violators).

    Uniform weights, so this is the metric projection for the scaled
    Euclidean metric used by the quantile space.
    """
    blocks = []  # (sum, count)
    for v in values:
        s, n = float(v), 1
        while blocks and blocks[-1][0] / blocks[-1][1] > s / n:
            ps, pn = blocks.pop()
            s += ps
            n += pn
        blocks.append((s, n))
    out = []
    for s, n in blocks:
        out.extend([s / n] * n)
    return out


def check_tags(space: SpaceHandle, *points: Point):
    """``DomainError`` unless every point is tagged with ``space``'s kind
    and has its ``dim`` coordinates."""
    for p in points:
        if p.space_kind is not space.kind:
            raise DomainError(
                f"point tagged {p.space_kind.value} used with {space.kind.value} space"
            )
        if len(p.coords) != space.dim:
            raise DomainError(f"expected {space.dim} coordinates, got {len(p.coords)}")


def distance(space: SpaceHandle, p: Point, q: Point) -> float:
    """Metric distance between two points of ``space``; ``check_tags``
    runs only to raise, on another kind or on vectors of unequal lengths.
    Bit for bit ``|u - v| / sqrt(weight)``: off quantile vectors the
    division by ``sqrt(1) = 1.0``, which is exact, is left out."""
    k = space.kind
    if p.space_kind is not k or q.space_kind is not k:
        check_tags(space, p, q)
    try:
        if k is _QUANTILE_1D:
            return math.dist(p.coords, q.coords) / math.sqrt(space.dim)
        if k is not _TRIPOD:
            return math.dist(p.coords, q.coords)
    except ValueError:  # math.dist of unequal lengths: one of them is not ``dim``
        check_tags(space, p, q)
        raise
    # tripod: through the branch point unless both points share an edge
    (ep, op), (eq, oq) = p.coords, q.coords
    if int(ep) == int(eq):
        return abs(op - oq)
    return op + oq


def point_along(space: SpaceHandle, edge: int = 0) -> Callable[[float], Point]:
    """``s -> p_s``, the point at coordinate ``s`` of one line: the
    half-line, or edge ``edge`` of a tripod."""
    k = space.kind      # looked up once: an Enum member lookup costs ~0.1 us
    if k is SpaceKind.HALF_LINE:
        return lambda v: Point(k, (v,))
    if k is not SpaceKind.TRIPOD:
        raise DomainError(f"no line coordinate on a {k.value} space")
    e = float(edge)
    return lambda s: Point(k, (e, s))


def distance_along(space: SpaceHandle, q: Point, edge: int = 0) -> Callable[[float], float]:
    """``s -> distance(space, p_s, q)`` with ``p_s = point_along(space, edge)(s)``.

    The closure does the same IEEE operations as :func:`distance`; ``q``'s
    tag is checked once, here, so a 1-d search pays no dispatch per probe.
    """
    check_tags(space, q)
    if space.kind is SpaceKind.HALF_LINE:
        q0 = q.coords[0]
        return lambda v: abs(v - q0)
    if space.kind is not SpaceKind.TRIPOD:
        raise DomainError(f"no line coordinate on a {space.kind.value} space")
    eq, oq = q.coords
    if int(eq) == edge:
        return lambda s: abs(s - oq)
    return lambda s: s + oq


def shell(space: SpaceHandle, x: Point, r: float) -> list:
    """The points at distance ``r`` from ``x`` on every branch of the
    half-line (the origin stands in for one beyond it) or of a tripod,
    where an ``r`` past the branch point reaches every other edge; a vector
    space has no branches and raises ``DomainError``."""
    k = space.kind
    if k is SpaceKind.HALF_LINE:
        x0 = x.coords[0]
        out = [Point(k, (x0 + r,))]
        if x0 > 0:
            out.append(Point(k, (max(x0 - r, 0.0),)))
        return out
    if k is not _TRIPOD:
        raise DomainError(f"no line coordinate on a {k.value} space")
    e, off = int(x.coords[0]), x.coords[1]
    out = []
    if off + r <= space.edge_lengths[e]:
        out.append(Point(k, (float(e), off + r)))
    if r < off:
        out.append(Point(k, (float(e), off - r)))
    else:
        for e2, length in enumerate(space.edge_lengths):
            if e2 != e and r - off <= length:
                out.append(Point(k, (float(e2), r - off)))
    return out


def geodesic_point(space: SpaceHandle, p: Point, q: Point, t: float) -> Point:
    """Constant speed geodesic from ``p`` to ``q`` evaluated at ``t`` in [0, 1]."""
    check_tags(space, p, q)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"geodesic parameter {t} outside [0, 1]")
    k = space.kind
    if k in (SpaceKind.EUCLIDEAN, SpaceKind.HALF_LINE, SpaceKind.QUANTILE_1D):
        coords = tuple((1.0 - t) * a + t * b for a, b in zip(p.coords, q.coords))
        return Point(k, coords)
    (ep, op), (eq, oq) = p.coords, q.coords
    if int(ep) == int(eq):
        return Point(k, (ep, (1.0 - t) * op + t * oq))
    total = op + oq
    s = t * total
    if s <= op:
        return Point(k, (ep, op - s))
    return Point(k, (eq, s - op))


def check_cat0(space: SpaceHandle, y: Point, x0: Point, x1: Point) -> float:
    """Residual of the quadrilateral comparison inequality.

    Returns the max over ``t`` in {0, 1/4, 1/2, 3/4, 1} of

        d(y, x_t)^2 - [(1-t) d(y,x0)^2 + t d(y,x1)^2 - t(1-t) d(x0,x1)^2]

    which must be nonpositive (up to tolerance) in all implemented spaces.
    """
    check_tags(space, y, x0, x1)
    d0 = distance(space, y, x0)
    d1 = distance(space, y, x1)
    d01 = distance(space, x0, x1)
    residuals = []
    try:
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            xt = geodesic_point(space, x0, x1, t)
            lhs = distance(space, y, xt) ** 2
            rhs = (1 - t) * d0**2 + t * d1**2 - t * (1 - t) * d01**2
            residuals.append(lhs - rhs)
    except OverflowError:  # float ** 2 raises where * would give inf
        raise DomainError("a squared distance of the CAT(0) comparison overflows") from None
    return max(residuals)


def random_point(space: SpaceHandle, rng, scale: float = 1.0) -> Point:
    """Draw a point of ``space`` using the numpy generator ``rng``."""
    if space.kind is SpaceKind.EUCLIDEAN:
        return Point(space.kind, tuple(scale * rng.normal(size=space.dim)))
    if space.kind is SpaceKind.HALF_LINE:
        return Point(space.kind, (scale * abs(rng.normal()),))
    if space.kind is SpaceKind.TRIPOD:
        e = int(rng.integers(len(space.edge_lengths)))
        return Point(space.kind, (float(e), float(rng.uniform(0, space.edge_lengths[e]))))
    vals = sorted(scale * rng.normal(size=space.dim))
    return Point(space.kind, tuple(float(v) for v in vals))
