"""Sampled curves, metric speed, the action functional, concatenation.

A sampled curve is a strictly increasing time grid on [0, 1] with one point
per node.  The discretized action of a curve under a functional ``f`` is

    sum_k d(p_k, p_{k+1})^2 / dt_k            (midpoint speeds, exact AM-GM)
  + trapezoid of slope(f)^2 over the nodes    (potential term)

and it is infinite when the endpoints miss their prescribed anchors beyond
``endpoint_tol`` or when any node with positive quadrature weight has
infinite slope.  A node at which ``f`` itself is infinite forces an infinite
value even when the endpoint weights are configured to zero, because such a
curve leaves the effective domain.

``minimize_action`` runs coarse-to-fine sweeps of node-wise minimization
with a bracketing grid plus golden-section refinement, which copes with the
piecewise potentials in the catalogue.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConcatenationError, DomainError, InitializationError
from .functionals import (
    INF,
    FunctionalSpec,
    best_slope_method,
    descending_slope,
)
from .proximal import golden_section
from .spaces import Point, SpaceHandle, SpaceKind, distance, geodesic_point

ENDPOINT_TOL = 1e-9


@dataclass
class SampledCurve:
    times: np.ndarray
    points: list
    space: SpaceHandle

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.points) or len(self.times) < 2:
            raise DomainError("curve needs one point per node and at least two nodes")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("times must be strictly increasing")
        if abs(self.times[0]) > 1e-12 or abs(self.times[-1] - 1.0) > 1e-12:
            raise DomainError("curve must be parametrized on [0, 1]")

    @property
    def start(self) -> Point:
        return self.points[0]

    @property
    def end(self) -> Point:
        return self.points[-1]

    def at(self, t: float) -> Point:
        """Evaluate by geodesic interpolation between bracketing nodes."""
        t = min(max(t, 0.0), 1.0)
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        k = min(max(k, 0), len(self.times) - 2)
        t0, t1 = self.times[k], self.times[k + 1]
        s = (t - t0) / (t1 - t0)
        return geodesic_point(self.space, self.points[k], self.points[k + 1], s)

    def mapped(self, fn: Callable[[Point], Point]) -> "SampledCurve":
        return SampledCurve(self.times.copy(), [fn(p) for p in self.points], self.space)

    def reversed_time(self) -> "SampledCurve":
        """Time flip; preserves the discrete action exactly."""
        times = 1.0 - self.times[::-1]
        return SampledCurve(times, list(reversed(self.points)), self.space)


@dataclass
class ActionValue:
    total: float
    kinetic: float
    potential: float
    endpoint_ok: bool
    detail: dict = field(default_factory=dict)


@dataclass
class Piece:
    """A curve segment with its own duration, for concatenation."""

    curve: SampledCurve
    duration: float
    label: str = ""


def geodesic_curve(space: SpaceHandle, x0: Point, x1: Point, n_intervals: int) -> SampledCurve:
    times = np.linspace(0.0, 1.0, n_intervals + 1)
    pts = [geodesic_point(space, x0, x1, float(t)) for t in times]
    return SampledCurve(times, pts, space)


def metric_speed(c: SampledCurve) -> np.ndarray:
    """Per-interval speeds d(p_k, p_{k+1}) / dt_k."""
    d = [distance(c.space, c.points[k], c.points[k + 1]) for k in range(len(c.points) - 1)]
    return np.array(d) / np.diff(c.times)


def _node_weights(times: np.ndarray, include_endpoints: bool) -> np.ndarray:
    dts = np.diff(times)
    w = np.zeros(len(times))
    w[:-1] += dts / 2.0
    w[1:] += dts / 2.0
    if not include_endpoints:
        w[0] = 0.0
        w[-1] = 0.0
    return w


def action(
    c: SampledCurve,
    f: FunctionalSpec,
    x0: Point,
    x1: Point,
    slope_method=None,
    include_endpoint_slopes: bool = True,
    endpoint_tol: float = ENDPOINT_TOL,
) -> ActionValue:
    """Discretized action of ``c`` under ``f`` with prescribed endpoints."""
    endpoint_ok = (
        distance(c.space, c.start, x0) <= endpoint_tol
        and distance(c.space, c.end, x1) <= endpoint_tol
    )
    speeds = metric_speed(c)
    kinetic = float(np.sum(speeds**2 * np.diff(c.times)))
    method = slope_method if slope_method is not None else best_slope_method(f)
    weights = _node_weights(c.times, include_endpoint_slopes)
    potential = 0.0
    for k, p in enumerate(c.points):
        if not f.in_domain(p):
            potential = INF
            break
        if weights[k] == 0.0:
            continue
        s = descending_slope(f, c.space, p, method)
        if not math.isfinite(s):
            potential = INF
            break
        potential += weights[k] * s * s
    if not endpoint_ok:
        total = INF
    else:
        total = kinetic + potential
    return ActionValue(total, kinetic, potential, endpoint_ok)


def amgm_lower_bound(c: SampledCurve, potential_at: Callable[[Point], float]) -> float:
    """Exact discrete minorant 2 * sum d(p_k, p_{k+1}) * sqrt(mean g).

    ``mean g`` is the trapezoid average of the potential over the interval,
    so the bound never exceeds the discrete action built from the same node
    values (a^2 + b^2 >= 2ab applied intervalwise).
    """
    total = 0.0
    for k in range(len(c.points) - 1):
        g0, g1 = potential_at(c.points[k]), potential_at(c.points[k + 1])
        if not (math.isfinite(g0) and math.isfinite(g1)):
            return INF
        d = distance(c.space, c.points[k], c.points[k + 1])
        total += 2.0 * d * math.sqrt(max(0.5 * (g0 + g1), 0.0))
    return total


def concatenate_rescale(pieces: Sequence[Piece], endpoint_tol: float = ENDPOINT_TOL) -> SampledCurve:
    """Concatenate curve segments with given durations, rescale to [0, 1].

    Zero-duration segments are dropped after their endpoints are checked.
    Under the linear rescale a segment compressed by factor ``rho``
    contributes ``1/rho`` times its own kinetic integral and ``rho`` times
    its potential integral to the final action.
    """
    kept = [p for p in pieces if p.duration > 0.0]
    if not kept:
        raise ConcatenationError("no segment with positive duration")
    for i in range(len(pieces) - 1):
        a, b = pieces[i], pieces[i + 1]
        gap = distance(a.curve.space, a.curve.end, b.curve.start)
        if gap > endpoint_tol:
            raise ConcatenationError(
                f"junction {i} ({a.label or i} -> {b.label or i + 1}): endpoint gap {gap:.3e}"
            )
    total = sum(p.duration for p in kept)
    times, pts = [], []
    offset = 0.0
    space = kept[0].curve.space
    for j, p in enumerate(kept):
        seg_t = offset + p.curve.times * p.duration
        start = 1 if j > 0 else 0  # merge duplicated junction node
        times.extend(seg_t[start:])
        pts.extend(p.curve.points[start:])
        offset += p.duration
    times = np.array(times) / total
    times[0], times[-1] = 0.0, 1.0
    return SampledCurve(times, pts, space)


def uniform_distance(a: SampledCurve, b: SampledCurve) -> float:
    """Sup distance over the merged grid with geodesic interpolation."""
    if a.space != b.space:
        raise DomainError("curves live on different spaces")
    grid = np.union1d(a.times, b.times)
    return max(distance(a.space, a.at(float(t)), b.at(float(t))) for t in grid)


# --------------------------------------------------------------------------
# action minimization
# --------------------------------------------------------------------------


def _local_objective(space, g, p_prev, p_next, dt0, dt1, w):
    def val(p: Point) -> float:
        gp = g(p)
        if not math.isfinite(gp):
            return INF
        return (
            distance(space, p_prev, p) ** 2 / dt0
            + distance(space, p, p_next) ** 2 / dt1
            + w * gp
        )

    return val


def _update_node_1d(space, local, p: Point, p_prev: Point, p_next: Point, span: float):
    lo = min(p_prev.coords[0], p_next.coords[0], p.coords[0]) - span
    hi = max(p_prev.coords[0], p_next.coords[0], p.coords[0]) + span
    if space.kind is SpaceKind.HALF_LINE:
        lo = max(lo, 0.0)
    mk = lambda v: Point(space.kind, (v,))
    grid = np.linspace(lo, hi, 17)
    vals = [local(mk(v)) for v in grid]
    j = int(np.argmin(vals))
    a, b = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
    v, value, _ = golden_section(lambda u: local(mk(u)), a, b)
    return mk(v), value


def _update_node_vector(space, local, p: Point, span: float):
    coords = np.array(p.coords)
    val = local(p)
    step = span

    def at(c):
        return space.project(tuple(c))

    for _ in range(12):
        g = np.zeros(len(coords))
        for i in range(len(coords)):
            eps = 1e-6 * max(abs(coords[i]), 1.0)
            cp, cm = coords.copy(), coords.copy()
            cp[i] += eps
            cm[i] -= eps
            vp, vm = local(at(cp)), local(at(cm))
            if not (math.isfinite(vp) and math.isfinite(vm)):
                return p, val
            g[i] = (vp - vm) / (2 * eps)
        gn = float(np.linalg.norm(g))
        if gn < 1e-13:
            break
        s, improved = step, False
        for _ in range(25):
            cand = at(coords - s * g / gn)
            v = local(cand)
            if v < val - 1e-15:
                coords, val, improved = np.array(cand.coords), v, True
                step = min(2 * s, 4 * span)
                break
            s *= 0.5
        if not improved:
            break
    return at(coords), val


def _update_node_tripod(space, local, p: Point, span: float):
    best, best_val = p, local(p)
    for e, length in enumerate(space.edge_lengths):
        g1 = lambda s: local(Point(space.kind, (float(e), s)))
        s, v, _ = golden_section(g1, 0.0, length, tol=1e-10)
        if v < best_val:
            best, best_val = Point(space.kind, (float(e), s)), v
    return best, best_val


def resample_curve(curve: SampledCurve, n_intervals: int) -> SampledCurve:
    """Resample on a uniform grid by geodesic interpolation."""
    times = np.linspace(0.0, 1.0, n_intervals + 1)
    return SampledCurve(times, [curve.at(float(t)) for t in times], curve.space)


def minimize_action(
    f: FunctionalSpec,
    space: SpaceHandle,
    x0: Point,
    x1: Point,
    N: int,
    init: Optional[SampledCurve] = None,
    max_iter: int = 400,
    slope_method=None,
    value_tol: float = 1e-10,
) -> tuple:
    """Search for a low-action curve joining ``x0`` to ``x1``.

    ``N`` is the number of intervals of the final grid.  The search runs
    node-wise sweeps (a minimization per interior node along the space) on a
    coarse grid first, refining by geodesic midpoint insertion until the
    requested resolution is reached.  Returns ``(curve, ActionValue, info)``.
    """
    method = slope_method if slope_method is not None else best_slope_method(f)

    def g(p: Point) -> float:
        s = descending_slope(f, space, p, method)
        return s * s if math.isfinite(s) else INF

    if init is not None:
        if not math.isfinite(action(init, f, x0, x1, slope_method=method).total):
            raise InitializationError("initial curve has infinite action")
        levels = [N]
        cur = resample_curve(init, N)
    else:
        levels = [N]
        while levels[0] > 8:
            levels.insert(0, (levels[0] + 1) // 2)
        cur = geodesic_curve(space, x0, x1, levels[0])
        if not math.isfinite(action(cur, f, x0, x1, slope_method=method).total):
            raise InitializationError("geodesic initialization has infinite action")

    span0 = max(distance(space, x0, x1), 1.0)
    sweeps_done = 0
    last_gain = INF
    for li, n_level in enumerate(levels):
        if len(cur.points) - 1 != n_level:
            cur = resample_curve(cur, n_level)
        level_sweeps = max_iter if n_level >= N else 80
        prev_total = action(cur, f, x0, x1, slope_method=method).total
        for sweep in range(level_sweeps):
            sweeps_done += 1
            moved = 0.0
            pts = cur.points
            times = cur.times
            for i in range(1, len(pts) - 1):
                dt0 = times[i] - times[i - 1]
                dt1 = times[i + 1] - times[i]
                w = 0.5 * (dt0 + dt1)
                local = _local_objective(space, g, pts[i - 1], pts[i + 1], dt0, dt1, w)
                span = max(0.5 * span0 / n_level, 1e-4)
                if space.kind is SpaceKind.HALF_LINE or (
                    space.kind is SpaceKind.EUCLIDEAN and space.dim == 1
                ):
                    newp, newv = _update_node_1d(space, local, pts[i], pts[i - 1], pts[i + 1], 4 * span)
                elif space.kind is SpaceKind.TRIPOD:
                    newp, newv = _update_node_tripod(space, local, pts[i], span)
                else:
                    newp, newv = _update_node_vector(space, local, pts[i], span)
                if newv <= local(pts[i]):
                    moved = max(moved, distance(space, pts[i], newp))
                    pts[i] = newp
            total = action(cur, f, x0, x1, slope_method=method).total
            last_gain = prev_total - total
            prev_total = total
            if moved < 1e-9 or (sweep > 3 and last_gain < value_tol):
                break

    final = action(cur, f, x0, x1, slope_method=method)
    info = {"sweeps": sweeps_done, "last_gain": last_gain, "n_intervals": len(cur.points) - 1}
    return cur, final, info


# --------------------------------------------------------------------------
# CSV wire format: columns t, coord_0..coord_k (tripod: t, edge, offset)
# --------------------------------------------------------------------------


def curve_to_csv(c: SampledCurve) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if c.space.kind is SpaceKind.TRIPOD:
        w.writerow(["t", "edge", "offset"])
        for t, p in zip(c.times, c.points):
            w.writerow([f"{t:.12g}", int(p.coords[0]), f"{p.coords[1]:.12g}"])
    else:
        ncol = len(c.points[0].coords)
        w.writerow(["t"] + [f"coord_{i}" for i in range(ncol)])
        for t, p in zip(c.times, c.points):
            w.writerow([f"{t:.12g}"] + [f"{v:.12g}" for v in p.coords])
    return buf.getvalue()


def curve_from_csv(text: str, space: SpaceHandle) -> SampledCurve:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    times, pts = [], []
    for row in body:
        times.append(float(row[0]))
        pts.append(space.point(*[float(v) for v in row[1:]]))
    return SampledCurve(np.array(times), pts, space)
