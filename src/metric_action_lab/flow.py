"""Gradient-flow trajectories by minimizing movements, with validators.

A trajectory is generated by iterating the resolvent at the step size,
``x_{k+1} = J_dt(x_k)``; it is a ``curves.SampledCurve`` on its own time
grid, and validators that need ``f`` along it evaluate it at the nodes.
Each validator compares a discrete quantity with the corresponding
continuous inequality and returns the residual; callers compare the
residual against ``tolerance + slack(dt)`` where the slack is
``5 * L * dt`` with the fixed local Lipschitz estimate ``L = 10``
(``LIPSCHITZ``).  The inequalities hold exactly only in the continuous limit,
so the slack keeps finite-step checks from producing false failures.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
import numpy as np

from .curves import SampledCurve, kinetic_integral, metric_speed
from .errors import DomainError, MetricActionError
from .functionals import FunctionalSpec, descending_slope, evaluate
from .proximal import resolvent, tau_upper_limit
from .spaces import Point, SpaceHandle, distance, squared_distance

LIPSCHITZ = 10.0


def slack(dt: float) -> float:
    return 5.0 * LIPSCHITZ * dt


def _exp_lam_t(lam: float, t: float, minus_one: bool = False) -> float:
    """``exp(-lam t)``, or with ``minus_one`` ``expm1(lam t)``: the growth factors
    of a ``lam``-convex flow over time ``t``.  An overflow is a ``DomainError``."""
    try:
        return math.expm1(lam * t) if minus_one else math.exp(-lam * t)
    except OverflowError:
        raise DomainError(f"exp(lam t) overflows at lam={lam:g}, t={t:g}") from None


def flow(
    f: FunctionalSpec, space: SpaceHandle, x: Point, T: float, n_steps: int
) -> SampledCurve:
    """Minimizing-movement trajectory on [0, T] with uniform steps."""
    if not (isinstance(n_steps, numbers.Integral) and n_steps >= 1 and T > 0):
        raise DomainError(f"need T > 0 and an integer n_steps >= 1, got T={T!r}, n_steps={n_steps!r}")
    dt = T / n_steps
    if dt >= tau_upper_limit(f.lam):
        raise DomainError(f"step {dt:g} too large for modulus {f.lam:g}")
    return flow_times(f, space, x, np.linspace(0.0, T, n_steps + 1))


def flow_times(f: FunctionalSpec, space: SpaceHandle, x: Point, times) -> SampledCurve:
    """Minimizing movements along an arbitrary increasing time grid.

    A failing resolvent step re-raises the resolvent's own error class,
    its message prefixed with the step index."""
    times = np.asarray(times, dtype=float)
    ts = times.tolist()     # Python floats: inf - inf gives nan without a numpy warning
    pts = [x]
    for k in range(len(ts) - 1):
        dt = ts[k + 1] - ts[k]
        try:
            res = resolvent(f, space, dt, pts[-1])
        except MetricActionError as exc:
            raise type(exc)(f"resolvent failed at step {k}: {exc}") from exc
        pts.append(res.point)
    return SampledCurve(times, pts, space)


def check_evi(
    traj: SampledCurve,
    f: FunctionalSpec,
    lam: float,
    v: Point,
    space: SpaceHandle,
) -> float:
    """Discrete evolution-variational-inequality residual at interior nodes.

    Central differences of d(x_t, v)^2 / 2 plus the quadratic term must stay
    below f(v) - f(x_t) up to O(dt) slack.
    """
    fv = evaluate(f, v)
    d2 = [squared_distance(space, p, v) for p in traj.points]
    times = traj.times.tolist()     # Python floats: an overflow gives inf, not a numpy warning
    worst = -math.inf
    for k in range(1, len(traj.points) - 1):
        deriv = 0.5 * (d2[k + 1] - d2[k - 1]) / (times[k + 1] - times[k - 1])
        if not math.isfinite(deriv):
            raise DomainError(f"the EVI difference quotient overflows at node {k}")
        r = deriv + 0.5 * lam * d2[k] - fv + evaluate(f, traj.points[k])
        worst = max(worst, r)
    return worst


def check_contraction(
    f: FunctionalSpec,
    space: SpaceHandle,
    x0: Point,
    x1: Point,
    T: float,
    n_steps: int,
) -> float:
    """Exponential contraction residual between two trajectories."""
    a = flow(f, space, x0, T, n_steps)
    b = flow(f, space, x1, T, n_steps)
    d0 = distance(space, x0, x1)
    worst = -math.inf
    for k, t in enumerate(a.times):
        r = distance(space, a.points[k], b.points[k]) - _exp_lam_t(f.lam, t) * d0
        worst = max(worst, r)
    return worst


@dataclass(frozen=True)
class EnergyReport:
    relative_error: float
    value_drop: float
    kinetic_integral: float
    max_speed_slope_gap: float


def check_energy_identity(
    traj: SampledCurve, f: FunctionalSpec, space: SpaceHandle
) -> EnergyReport:
    """Compare the value drop with the integral of the squared speed.

    Along the flow both should agree with the integral of the squared slope;
    the report also carries the worst node-wise gap between interval speed
    and the slope at the right node.
    """
    speeds = metric_speed(traj)
    kinetic = kinetic_integral(speeds, np.diff(traj.times))
    drop = float(evaluate(f, traj.start) - evaluate(f, traj.end))
    rel = abs(drop - kinetic) / max(1.0, abs(drop))
    gap = 0.0
    for k in range(len(speeds)):
        s = descending_slope(f, space, traj.points[k + 1])
        if math.isfinite(s):
            gap = max(gap, abs(speeds[k] - s))
    return EnergyReport(rel, drop, kinetic, gap)


def check_slope_bounds_along_flow(
    f: FunctionalSpec,
    space: SpaceHandle,
    x: Point,
    t: float,
    n_steps: int = 1000,
) -> tuple:
    """Two-sided chain linking slope decay, displacement rate, and the
    initial slope; returns (lower_residual, upper_residual)."""
    if t <= 0:
        raise DomainError("need t > 0")
    traj = flow(f, space, x, t, n_steps)
    u = traj.end
    s_u = descending_slope(f, space, u)
    s_x = descending_slope(f, space, x)
    rate = distance(space, u, x) / t
    lt = f.lam * t
    factor = 1.0 if abs(lt) < 1e-12 else _exp_lam_t(f.lam, t, minus_one=True) / lt
    growth = max(_exp_lam_t(f.lam, t), 1.0)     # exp(lam_neg(lam) t): 1 for lam >= 0
    lower = factor * s_u - rate
    upper = rate - growth * s_x if math.isfinite(s_x) else -math.inf
    return lower, upper
