"""Sampled curves, metric speed, the action functional, concatenation.

A sampled curve is a strictly increasing time grid on [0, 1] with one point
per node.  The discretized action of a curve under a functional ``f`` is

    sum_k d(p_k, p_{k+1})^2 / dt_k            (midpoint speeds, exact AM-GM)
  + trapezoid of slope(f)^2 over the nodes    (potential term)

and it is infinite when the endpoints miss their prescribed anchors beyond
``ENDPOINT_TOL`` or when any node has infinite slope, which every node
outside the effective domain of ``f`` has.

``minimize_action`` picks its solver by geometry.  On the flat spaces
(Euclidean and quantile) it takes projected Newton steps on the whole curve:
the kinetic Hessian is exactly tridiagonal in the nodes, and the potential
adds one central-difference block per node.  On the half-line, whose
catalogue slopes are discontinuous, kinked or singular, and on the tripod,
which is not flat, it runs coarse-to-fine sweeps of node-wise minimization
with a bracketing grid plus golden-section refinement.  A node's objective
is a float function of its coordinate along one line (the half-line, or a
tripod edge) built on ``spaces.distance_along``, so its neighbours' tags
are checked once per node update, not once per probe.  Both solvers report
``sweeps``, ``converged`` (a ``bool``) and ``residual`` (a ``float``) in
their ``info``.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConcatenationError, DomainError, InitializationError
from .functionals import INF, FunctionalSpec, descending_slope, slope_squared
from .proximal import grid_golden, per_edge_golden
from .spaces import (
    Point,
    SpaceHandle,
    SpaceKind,
    distance,
    distance_along,
    geodesic_point,
    isotonic_repair,
    point_along,
)

ENDPOINT_TOL = 1e-9
GAIN_TOL = 1e-10        # a sweep that gains less than this ends a node-wise search
RESIDUAL_TOL = 1e-9     # a search whose residual falls below this has converged
FD_STEP = 1e-5          # relative central-difference step of the flat-space Newton


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


def interval_lengths(space: SpaceHandle, points: Sequence[Point]) -> np.ndarray:
    """Distances d(p_k, p_{k+1}) between consecutive points."""
    return np.array([distance(space, points[k], points[k + 1]) for k in range(len(points) - 1)])


def metric_speed(c: SampledCurve) -> np.ndarray:
    """Per-interval speeds d(p_k, p_{k+1}) / dt_k."""
    return interval_lengths(c.space, c.points) / np.diff(c.times)


def node_weights(dts: np.ndarray) -> np.ndarray:
    """Trapezoid weights of the nodes of a grid with interval lengths ``dts``."""
    w = np.zeros(len(dts) + 1)
    w[:-1] += dts / 2.0
    w[1:] += dts / 2.0
    return w


def action(c: SampledCurve, f: FunctionalSpec, x0: Point, x1: Point) -> ActionValue:
    """Discretized action of ``c`` under ``f`` with prescribed endpoints."""
    endpoint_ok = (
        distance(c.space, c.start, x0) <= ENDPOINT_TOL
        and distance(c.space, c.end, x1) <= ENDPOINT_TOL
    )
    speeds = metric_speed(c)
    kinetic = float(np.sum(speeds**2 * np.diff(c.times)))
    weights = node_weights(np.diff(c.times))
    potential = 0.0
    for k, p in enumerate(c.points):
        s = descending_slope(f, c.space, p)
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


def _local_objective(space, g, edge, p_prev, p_next, dt0, dt1, w):
    """The action terms of one interior node as a function of its coordinate
    along one line (the half-line, or tripod edge ``edge``): the kinetic
    terms of its two intervals plus its trapezoid share of ``g = slope^2``."""
    at = point_along(space, edge)
    d_prev, d_next = distance_along(space, p_prev, edge), distance_along(space, p_next, edge)

    def val(s: float) -> float:
        gp = g(at(s))
        if not math.isfinite(gp):
            return INF
        return d_prev(s) ** 2 / dt0 + d_next(s) ** 2 / dt1 + w * gp

    return val


def _update_node_half_line(space, g, p_prev: Point, p: Point, p_next: Point, dt0, dt1, w, span: float):
    """Grid-then-golden minimum of the node's local objective on a bracket
    around it and its neighbours.  Returns the new point, its value, the
    value at ``p`` and the distance from ``p``."""
    local = _local_objective(space, g, 0, p_prev, p_next, dt0, dt1, w)
    lo = max(min(p_prev.coords[0], p_next.coords[0], p.coords[0]) - span, 0.0)
    hi = max(p_prev.coords[0], p_next.coords[0], p.coords[0]) + span
    v, value, _, _ = grid_golden(local, lo, hi)
    return Point(SpaceKind.HALF_LINE, (v,)), value, local(p.coords[0]), distance_along(space, p)(v)


def _update_node_tripod(space, g, p_prev: Point, p: Point, p_next: Point, dt0, dt1, w, span: float):
    """Best of ``p`` and the golden-section minimum of the node's local
    objective along every edge (``span`` is unused).  Returns the new point,
    its value, the value at ``p`` and the distance from ``p``."""
    on_edge = lambda e: _local_objective(space, g, e, p_prev, p_next, dt0, dt1, w)
    current = on_edge(int(p.coords[0]))(p.coords[1])
    best, best_val = p, current
    for q, v, _ in per_edge_golden(on_edge, space, 1e-10):
        if v < best_val:
            best, best_val = q, v
    e, s = best.coords
    return best, best_val, current, distance_along(space, p, int(e))(s)


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
) -> tuple:
    """Search for a low-action curve joining ``x0`` to ``x1``.

    ``N`` is the number of intervals of the final grid; the search starts
    from ``init`` resampled to ``N`` intervals, or from the geodesic.  The
    solver depends on the geometry:

    * Euclidean and quantile spaces (flat): projected Newton steps on the
      whole curve, at most ``max_iter`` of them (see ``_newton_flat``);
    * half-line and tripod: node-wise sweeps (a minimization per interior
      node along the space), on a coarse grid first when there is no
      ``init``, refining by geodesic resampling up to ``N`` intervals; the
      last grid gets at most ``max_iter`` sweeps.

    Returns ``(curve, ActionValue, info)``.  ``info["sweeps"]`` counts the
    Newton steps or the sweeps.  ``info["residual"]`` is the largest
    coordinate move of the full projected Newton step at the returned curve
    (flat) or the largest node move of the last sweep (node-wise), and
    ``info["converged"]`` says that it is below ``RESIDUAL_TOL``.  A sweep
    search that ends because the last sweep gained less than ``GAIN_TOL``
    has not converged.  An unconverged search still returns its best curve.
    """
    flat = space.kind in (SpaceKind.EUCLIDEAN, SpaceKind.QUANTILE_1D)
    levels = [N]
    if init is not None:
        if not math.isfinite(action(init, f, x0, x1).total):
            raise InitializationError("initial curve has infinite action")
        cur = resample_curve(init, N)
    else:
        while not flat and levels[0] > 8:
            levels.insert(0, (levels[0] + 1) // 2)
        cur = geodesic_curve(space, x0, x1, levels[0])
        if not math.isfinite(action(cur, f, x0, x1).total):
            raise InitializationError("geodesic initialization has infinite action")
    if flat:
        return _newton_flat(f, space, x0, x1, cur, max_iter)
    return _sweep_nodes(f, space, x0, x1, cur, levels, max_iter)


def _sweep_nodes(f, space, x0, x1, cur, levels, max_iter):
    """Coarse-to-fine node-wise sweeps on the half-line and the tripod."""
    g = functools.partial(slope_squared, f, space)
    update = _update_node_half_line if space.kind is SpaceKind.HALF_LINE else _update_node_tripod
    span0 = max(distance(space, x0, x1), 1.0)
    sweeps_done = 0
    moved = INF
    for n_level in levels:
        if len(cur.points) - 1 != n_level:
            cur = resample_curve(cur, n_level)
        level_sweeps = max_iter if n_level >= levels[-1] else 80
        span = max(0.5 * span0 / n_level, 1e-4)
        prev_total = action(cur, f, x0, x1).total
        for sweep in range(level_sweeps):
            sweeps_done += 1
            moved = 0.0
            pts = cur.points
            times = cur.times
            for i in range(1, len(pts) - 1):
                dt0 = times[i] - times[i - 1]
                dt1 = times[i + 1] - times[i]
                w = 0.5 * (dt0 + dt1)
                newp, newv, oldv, move = update(
                    space, g, pts[i - 1], pts[i], pts[i + 1], dt0, dt1, w, 4 * span
                )
                if newv <= oldv:
                    moved = max(moved, move)
                    pts[i] = newp
            total = action(cur, f, x0, x1).total
            last_gain = prev_total - total
            prev_total = total
            if moved < RESIDUAL_TOL or (sweep > 3 and last_gain < GAIN_TOL):
                break

    final = action(cur, f, x0, x1)
    # nodes resampled from an init carry numpy floats
    info = {"sweeps": sweeps_done, "converged": bool(moved < RESIDUAL_TOL), "residual": float(moved)}
    return cur, final, info


def _newton_flat(f, space, x0, x1, cur, max_iter):
    """Projected Newton on the whole curve of a Euclidean or quantile space.

    The curve is an ``(N+1, d)`` coordinate array.  A step solves the
    Newton system of the discrete action once (see ``_newton_step``),
    projects each node with ``space.project`` and halves its length until
    ``action`` does not rise.  The residual is the largest coordinate move of
    the full projected step at the current curve, which is zero exactly at a
    stationary curve.  The search stops when it falls below
    ``RESIDUAL_TOL``, after ``max_iter`` steps, or when no step length keeps
    the action from rising.
    """
    g = functools.partial(slope_squared, f, space)
    value = action(cur, f, x0, x1).total
    steps, residual = 0, 0.0
    while len(cur.points) > 2:
        X = np.array([p.coords for p in cur.points])
        step = _newton_step(g, space, X, cur.times)
        residual = max(
            float(np.max(np.abs(x - space.project(x - dx).coords))) for x, dx in zip(X[1:-1], step)
        )
        if not (residual >= RESIDUAL_TOL and steps < max_iter):
            break
        for _ in range(40):
            inner = [space.project(row) for row in X[1:-1] - step]
            candidate = SampledCurve(cur.times, [cur.start, *inner, cur.end], space)
            total = action(candidate, f, x0, x1).total
            if total <= value:
                break
            step = 0.5 * step
        else:
            break
        cur, value = candidate, total
        steps += 1
    final = action(cur, f, x0, x1)
    info = {"sweeps": steps, "converged": residual < RESIDUAL_TOL, "residual": residual}
    return cur, final, info


def _newton_step(g, space: SpaceHandle, X: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Newton step ``(N-1, d)`` of the discrete action at the interior nodes.

    The kinetic part ``sum_k |x_{k+1} - x_k|^2 / (m dt_k)``, ``m`` the
    space's ``weight``, has an exact gradient and a Hessian that is block
    tridiagonal in the nodes, with couplings ``c_k = 2 / (m dt_k)``.  The potential ``sum_k w_k g(x_k)``
    adds a ``d x d`` block per node from central differences, its negative
    eigenvalues clipped to zero so that the step descends.  On quantile
    vectors a node moves in the span of its ``_face_basis``; the reduced
    system keeps the block-tridiagonal form and is solved once.
    """
    X_in = X[1:-1]
    n, d = X_in.shape
    dts = np.diff(times)
    c = 2.0 / (space.weight * dts)
    w = node_weights(dts)[1:-1]
    pot_grad, pot_hess = _potential_derivatives(g, space.kind, X_in)
    G = c[:-1, None] * (X_in - X[:-2]) + c[1:, None] * (X_in - X[2:]) + w[:, None] * pot_grad
    vals, vecs = np.linalg.eigh(w[:, None, None] * pot_hess)
    blocks = (vecs * np.maximum(vals, 0.0)[:, None, :]) @ vecs.transpose(0, 2, 1)
    blocks += (c[:-1] + c[1:])[:, None, None] * np.eye(d)
    if space.kind is SpaceKind.QUANTILE_1D:
        bases = [_face_basis(x, grad) for x, grad in zip(X_in, G)]
    else:
        bases = [np.eye(d)] * n
    z = _solve_block_tridiagonal(
        [b.T @ block @ b for b, block in zip(bases, blocks)],
        [-c[i + 1] * bases[i].T @ bases[i + 1] for i in range(n - 1)],
        [b.T @ grad for b, grad in zip(bases, G)],
    )
    return np.array([b @ zi for b, zi in zip(bases, z)])


def _solve_block_tridiagonal(diag: list, upper: list, rhs: list) -> list:
    """Block Thomas algorithm for a symmetric positive definite system.

    ``diag[i]`` is the diagonal block of node ``i``, ``upper[i]`` couples
    node ``i`` to node ``i + 1`` (blocks may be rectangular) and ``rhs[i]``
    is the right-hand side of node ``i``.
    """
    n = len(diag)
    factors, partial = [], []
    for i in range(n):
        A, b = diag[i], rhs[i]
        if i:
            A = A - upper[i - 1].T @ factors[i - 1]
            b = b - upper[i - 1].T @ partial[i - 1]
        if i < n - 1:
            factors.append(np.linalg.solve(A, upper[i]))
        partial.append(np.linalg.solve(A, b))
    x = partial[:]
    for i in range(n - 2, -1, -1):
        x[i] = partial[i] - factors[i] @ x[i + 1]
    return x


def _potential_derivatives(g, kind: SpaceKind, X: np.ndarray):
    """Central-difference gradient ``(n, d)`` and Hessian ``(n, d, d)`` of
    ``g`` at each row of ``X``."""
    n, d = X.shape
    grad, hess = np.zeros((n, d)), np.zeros((n, d, d))
    at = lambda x: g(Point(kind, tuple(float(v) for v in x)))
    for i, x in enumerate(X):
        h = FD_STEP * np.maximum(np.abs(x), 1.0)
        e = np.diag(h)
        g0 = at(x)
        for j in range(d):
            gp, gm = at(x + e[j]), at(x - e[j])
            grad[i, j] = (gp - gm) / (2.0 * h[j])
            hess[i, j, j] = (gp - 2.0 * g0 + gm) / (h[j] * h[j])
            for k in range(j):
                hess[i, j, k] = hess[i, k, j] = (
                    at(x + e[j] + e[k]) - at(x + e[j] - e[k])
                    - at(x - e[j] + e[k]) + at(x - e[j] - e[k])
                ) / (4.0 * h[j] * h[k])
    return grad, hess


def _face_basis(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Columns ``(d, r)`` spanning the moves of a quantile node ``x`` that
    keep its binding ties.

    A run of equal coordinates splits into the pools that the isotonic
    projection of ``-grad`` restricted to the run forms: a descent step
    would pull those coordinates out of order, so each pool moves as one
    coordinate.  Untied coordinates move alone.
    """
    d = len(x)
    cols = []
    j = 0
    while j < d:
        k = j + 1
        while k < d and x[k] == x[j]:
            k += 1
        pooled = isotonic_repair(-grad[j:k])
        start = j
        for r in range(j + 1, k + 1):
            if r == k or pooled[r - j] != pooled[r - j - 1]:
                col = np.zeros(d)
                col[start:r] = 1.0
                cols.append(col)
                start = r
        j = k
    return np.array(cols).T


# --------------------------------------------------------------------------
# CSV wire format: columns t, coord_0..coord_k (tripod: t, edge, offset);
# every table the lab writes goes through format_table
# --------------------------------------------------------------------------


def format_cell(v) -> str:
    """A table cell: booleans (numpy's included) as ``true``/``false``,
    floats to 12 significant digits (``inf``, ``nan`` if non-finite), the
    rest through ``str``."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def format_table(header: Sequence[str], rows) -> str:
    """Comma-separated lines of ``header`` and ``rows``, newline-terminated."""
    lines = [",".join(header)] + [",".join(format_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def curve_to_csv(c: SampledCurve) -> str:
    if c.space.kind is SpaceKind.TRIPOD:
        header = ["t", "edge", "offset"]
        rows = ([t, int(p.coords[0]), p.coords[1]] for t, p in zip(c.times, c.points))
    else:
        header = ["t"] + [f"coord_{i}" for i in range(len(c.points[0].coords))]
        rows = ([t, *p.coords] for t, p in zip(c.times, c.points))
    return format_table(header, rows)


def curve_from_csv(text: str, space: SpaceHandle) -> SampledCurve:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    times, pts = [], []
    for row in body:
        times.append(float(row[0]))
        pts.append(space.point(*[float(v) for v in row[1:]]))
    return SampledCurve(np.array(times), pts, space)
