"""Sampled curves, metric speed, the action functional, concatenation.

A sampled curve, the lab's only curve type, is a strictly increasing time
grid with one point per node; a flow is one on its own time grid.  A curve
read from CSV or concatenated must be on [0, 1].  The discretized action of
a curve under a functional ``f`` is

    sum_k d(p_k, p_{k+1})^2 / dt_k            (midpoint speeds, exact AM-GM)
  + trapezoid of slope(f)^2 over the nodes    (potential term)

and it is infinite when the endpoints miss their prescribed anchors beyond
``ENDPOINT_TOL`` or when any node has infinite slope, which every node
outside the effective domain of ``f`` has.

``minimize_action`` is one solver on every space: projected Newton steps
on the whole curve from the geodesic (on the tripod in edge charts, see
``_newton``).  The kinetic Hessian is exactly tridiagonal in the nodes, the
potential adds one central-difference block per node, and each step is one
dense solve of that Hessian restricted to the nodes' move bases.  It
reports ``sweeps`` (the Newton steps), ``converged`` (a ``bool``) and
``residual`` (a ``float``) in its ``info``.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .functionals import INF, FunctionalSpec, descending_slope, slope_squared
from .spaces import (
    Point,
    SpaceHandle,
    SpaceKind,
    distance,
    geodesic_point,
    isotonic_repair,
)

ENDPOINT_TOL = 1e-9
JUNCTION_TOL = 1e-8     # the endpoint gap a concatenation junction may have
RESIDUAL_TOL = 1e-9     # a search whose residual falls below this has converged
FD_STEP = 1e-5          # relative central-difference step of the Newton search


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

    @property
    def start(self) -> Point:
        return self.points[0]

    @property
    def end(self) -> Point:
        return self.points[-1]

    def at(self, t: float) -> Point:
        """Evaluate by geodesic interpolation between bracketing nodes."""
        t = min(max(t, float(self.times[0])), float(self.times[-1]))
        k = int(np.searchsorted(self.times, t, side="right")) - 1
        k = min(max(k, 0), len(self.times) - 2)
        t0, t1 = self.times[k], self.times[k + 1]
        s = (t - t0) / (t1 - t0)
        return geodesic_point(self.space, self.points[k], self.points[k + 1], s)

    def mapped(self, fn: Callable[[Point], Point]) -> "SampledCurve":
        return SampledCurve(self.times.copy(), [fn(p) for p in self.points], self.space)

    def reversed_time(self) -> "SampledCurve":
        """Time flip of a curve on [0, 1]; preserves the discrete action exactly."""
        times = 1.0 - self.times[::-1]
        return SampledCurve(times, list(reversed(self.points)), self.space)


def _on_unit_interval(c: SampledCurve) -> SampledCurve:
    """``c``, after checking that it is parametrized on [0, 1]."""
    if abs(c.times[0]) > 1e-12 or abs(c.times[-1] - 1.0) > 1e-12:
        raise DomainError("curve must be parametrized on [0, 1]")
    return c


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
    if not (isinstance(n_intervals, numbers.Integral) and n_intervals >= 1):
        raise DomainError(f"need an integer number of intervals >= 1, got {n_intervals!r}")
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
    """Discretized action of ``c`` under ``f`` with prescribed endpoints.

    Its nodes are finite, so a kinetic or potential term (or their sum)
    that overflows to ``inf`` is a ``DomainError``: ``inf`` means a node off
    the domain of ``f``, or endpoints that miss their anchors.
    """
    endpoint_ok = (
        distance(c.space, c.start, x0) <= ENDPOINT_TOL
        and distance(c.space, c.end, x1) <= ENDPOINT_TOL
    )
    with np.errstate(over="ignore"):    # reported below as a DomainError
        speeds = metric_speed(c)
        kinetic = float(np.sum(speeds**2 * np.diff(c.times)))
    if not math.isfinite(kinetic):
        raise DomainError("the kinetic term of the action overflows")
    weights = node_weights(np.diff(c.times)).tolist()  # Python floats: no numpy scalar in the values
    potential = 0.0
    for k, p in enumerate(c.points):
        s = descending_slope(f, c.space, p)
        if not math.isfinite(s):
            potential = INF
            break
        potential += weights[k] * s * s
        if potential == INF:
            raise DomainError(f"the potential term of the action overflows at {p.coords}")
    if not endpoint_ok:
        total = INF
    else:
        total = kinetic + potential
        if total == INF and potential < INF:
            raise DomainError("the action overflows")
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


def concatenate_rescale(pieces: Sequence[Piece]) -> SampledCurve:
    """Concatenate segments, each on [0, 1], with given durations; rescale to [0, 1].

    Zero-duration segments are dropped after their endpoints are checked.
    Under the linear rescale a segment compressed by factor ``rho``
    contributes ``1/rho`` times its own kinetic integral and ``rho`` times
    its potential integral to the final action.
    """
    for p in pieces:
        _on_unit_interval(p.curve)
    kept = [p for p in pieces if p.duration > 0.0]
    if not kept:
        raise DomainError("no segment with positive duration")
    for i in range(len(pieces) - 1):
        a, b = pieces[i], pieces[i + 1]
        gap = distance(a.curve.space, a.curve.end, b.curve.start)
        if gap > JUNCTION_TOL:
            raise DomainError(
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


def minimize_action(
    f: FunctionalSpec,
    space: SpaceHandle,
    x0: Point,
    x1: Point,
    N: int,
    max_iter: int = 400,
) -> tuple:
    """Search for a low-action curve joining ``x0`` to ``x1`` on ``N`` intervals.

    Projected Newton steps on the whole curve (see ``_newton``), at most
    ``max_iter`` of them, starting from the geodesic, on every space.  On
    the half-line the nodes move in the flat chart and ``space.project``
    clamps them at 0.

    Returns ``(curve, ActionValue, info)``.  ``info["sweeps"]`` counts the
    Newton steps (the key keeps its name because ``perfbench/tracer.py``
    reads it), ``info["residual"]`` is the largest coordinate move of the
    full projected Newton step at the returned curve, and
    ``info["converged"]`` says that it is below ``RESIDUAL_TOL``.  An
    unconverged search still returns its best curve.

    Newton reads the slope through central differences, so it needs a slope
    that is smooth enough to difference.  On a slope with jumps (the ramp
    of example 2, whose step central differences see as flat) it stops near
    the geodesic; the only config that reaches this is a catalogue family
    with an ``example2`` ``limit`` and a ``minimize_action`` base curve
    (``run_example2`` runs its own node-wise search).  With sup-formula
    slopes it stops short of ``RESIDUAL_TOL``, on the half-line as
    elsewhere.
    """
    cur = geodesic_curve(space, x0, x1, N)
    value = action(cur, f, x0, x1)
    if not math.isfinite(value.total):
        raise DomainError("geodesic initialization has infinite action")
    return _newton(f, space, x0, x1, cur, value, max_iter)


def _newton(f, space, x0, x1, cur, value, max_iter):
    """Projected Newton on the whole curve.

    The variables are a point's coordinates, or on the tripod its offset,
    each node keeping its edge during a step; first a node at the branch
    point moves onto the edge with the most negative one-sided derivative of
    the action, if one descends.  A step solves the Newton system once
    (``_newton_step``), projects each node with ``space.project`` and halves
    its length until ``action`` does not rise.  The residual, the largest
    coordinate move of the full projected step, is zero exactly at a
    stationary curve.  The search stops when it falls below ``RESIDUAL_TOL``,
    after ``max_iter`` steps, or when no step length keeps the action from rising.
    ``value`` is the ``ActionValue`` of ``cur``; each curve's action is computed once.
    """
    g = functools.partial(slope_squared, f, space)
    tripod = space.kind is SpaceKind.TRIPOD
    chart = slice(1, None) if tripod else slice(None)
    steps, residual = 0, 0.0
    while len(cur.points) > 2:
        C = np.array([p.coords for p in cur.points])
        sigma = np.ones(len(C) - 1)
        at = lambda i, x: Point(space.kind, tuple(float(v) for v in x))
        if tripod:
            dts = np.diff(cur.times)
            w = node_weights(dts)
            for i in np.flatnonzero(C[1:-1, 1] == 0.0) + 1:
                # kinetic derivative along edge e: -c s to a neighbour on e, c s off it
                nbrs = ((2.0 / dts[i - 1], C[i - 1]), (2.0 / dts[i], C[i + 1]))
                g0 = g(Point(space.kind, (float(C[i, 0]), 0.0)))
                slopes = [
                    sum(ck * (-s if e == edge else s) for ck, (edge, s) in nbrs)
                    + w[i] * (g(Point(space.kind, (float(e), FD_STEP))) - g0) / FD_STEP
                    for e in range(len(space.edge_lengths))
                ]
                if min(slopes) < 0.0:
                    C[i, 0] = slopes.index(min(slopes))
            edges = C[1:-1, 0].tolist()
            sigma = np.where(C[1:, 0] == C[:-1, 0], 1.0, -1.0)
            at = lambda i, x: Point(space.kind, (edges[i], float(x[0])))
        X = C[:, chart]
        try:
            with np.errstate(over="raise"):     # an overflow raises FloatingPointError
                step = _newton_step(g, space, X, cur.times, sigma, at)
        except FloatingPointError:
            raise DomainError("the Newton step of the action overflows") from None
        project = lambda i, x: space.project(at(i, x).coords)
        residual = max(
            float(np.max(np.abs(x - project(i, x - dx).coords[chart])))
            for i, (x, dx) in enumerate(zip(X[1:-1], step))
        )
        if not (residual >= RESIDUAL_TOL and steps < max_iter):
            break
        for _ in range(40):
            inner = [project(i, row) for i, row in enumerate(X[1:-1] - step)]
            candidate = SampledCurve(cur.times, [cur.start, *inner, cur.end], space)
            trial = action(candidate, f, x0, x1)
            if trial.total <= value.total:
                break
            step = 0.5 * step
        else:
            break
        cur, value = candidate, trial
        steps += 1
    info = {"sweeps": steps, "converged": residual < RESIDUAL_TOL, "residual": residual}
    return cur, value, info


def _newton_step(g, space: SpaceHandle, X: np.ndarray, times: np.ndarray, sigma: np.ndarray, at) -> np.ndarray:
    """Newton step ``(N-1, d)`` of the discrete action at the interior nodes.

    The kinetic part ``sum_k |x_{k+1} - sigma_k x_k|^2 / (m dt_k)``, ``m`` the
    space's ``weight``, ``sigma_k = -1`` for a tripod interval across the
    branch point and 1 otherwise, has an exact gradient and a Hessian with
    ``(c_{k-1} + c_k) I`` on the diagonal and couplings ``-sigma_k c_k I``,
    ``c_k = 2 / (m dt_k)``.  The potential ``sum_k w_k g(x_k)`` adds a
    ``d x d`` block per node from central differences at ``at(i, x)``, its
    negative eigenvalues clipped to zero so that the step descends.  A node
    moves in the span of its basis: the ``_face_basis`` on quantile vectors;
    none for a tripod node at the branch point whose gradient points off its
    edge.  The bases sit on the block diagonal of one matrix ``B``, and the
    step is ``B z`` with ``z`` solving the reduced system ``B^T K B z = B^T G``.
    """
    X_in = X[1:-1]
    n, d = X_in.shape
    dts = np.diff(times)
    c = 2.0 / (space.weight * dts)
    w = node_weights(dts)[1:-1]
    pot_grad, pot_hess = _potential_derivatives(g, at, X_in)
    G = c[:-1, None] * (X_in - sigma[:-1, None] * X[:-2]) + c[1:, None] * (X_in - sigma[1:, None] * X[2:])
    G += w[:, None] * pot_grad
    coupling = (sigma * c)[1:-1]
    K = np.kron(np.diag(c[:-1] + c[1:]) - np.diag(coupling, 1) - np.diag(coupling, -1), np.eye(d))
    vals, vecs = np.linalg.eigh(w[:, None, None] * pot_hess)
    i = np.arange(n)  # the reshape is a view, so the potential blocks land on K's diagonal
    K.reshape(n, d, n, d)[i, :, i, :] += (vecs * np.maximum(vals, 0.0)[:, None, :]) @ vecs.transpose(0, 2, 1)
    if space.kind is SpaceKind.QUANTILE_1D:
        bases = [_face_basis(x, grad) for x, grad in zip(X_in, G)]
    elif space.kind is SpaceKind.TRIPOD:
        bases = [np.eye(1)[:, :0] if x[0] == 0.0 and grad[0] > 0.0 else np.eye(1) for x, grad in zip(X_in, G)]
    else:
        bases = [np.eye(d)] * n
    cols = np.cumsum([0] + [b.shape[1] for b in bases])
    B = np.zeros((n * d, cols[-1]))
    for k, b in enumerate(bases):
        B[k * d:(k + 1) * d, cols[k]:cols[k + 1]] = b
    return (B @ np.linalg.solve(B.T @ K @ B, B.T @ G.ravel())).reshape(n, d)


def _potential_derivatives(g, at, X: np.ndarray):
    """Central-difference gradient ``(n, d)`` and Hessian ``(n, d, d)`` of
    ``g`` at the point ``at(i, x)`` of each interior node's row ``x = X[i]``."""
    n, d = X.shape
    grad, hess = np.zeros((n, d)), np.zeros((n, d, d))
    for i, x in enumerate(X):
        node = lambda y: g(at(i, y))
        h = FD_STEP * np.maximum(np.abs(x), 1.0)
        e = np.diag(h)
        g0 = node(x)
        for j in range(d):
            gp, gm = node(x + e[j]), node(x - e[j])
            grad[i, j] = (gp - gm) / (2.0 * h[j])
            hess[i, j, j] = (gp - 2.0 * g0 + gm) / (h[j] * h[j])
            for k in range(j):
                hess[i, j, k] = hess[i, k, j] = (
                    node(x + e[j] + e[k]) - node(x + e[j] - e[k])
                    - node(x - e[j] + e[k]) + node(x - e[j] - e[k])
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
    return _on_unit_interval(SampledCurve(np.array(times), pts, space))
