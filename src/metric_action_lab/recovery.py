"""Recovery-sequence builder: regularized curve plus endpoint repair.

``build_recovery`` has three modes that share one five-piece shape.  Given
a base curve ``gamma`` joining the limit endpoints and per-index
endpoints ``x0h, x1h``:

* entry piece    (duration tau):   s -> R_s(x0h), from x0h to R_tau(x0h);
* repair piece   (duration d0):    R_tau applied to the geodesic x0h -> x0;
* middle piece   (duration 1):     R_tau applied nodewise to gamma;
* repair piece   (duration d1):    mirror of the first repair at x1;
* exit piece     (duration tau):   time flip of the entry piece at x1h,

where the regularizing map ``R`` is the resolvent (``resolvent`` mode) or
the gradient flow (``flow`` mode).  The pieces are concatenated and the time
is rescaled linearly to [0, 1], so the final curve joins x0h to x1h exactly.

One build regularizes each point once.  The entry and exit pieces are built
first and record their ends as ``R_tau(x0h)`` and ``R_tau(x1h)``; the
junctions x0h, x0, x1 and x1h, each shared by two pieces, are then flowed
(or resolved) once.  Points are matched by the exact bits of their
coordinates, so ``0.0`` and ``-0.0`` stay apart and a repair node that only
rounds near a junction is computed on its own.  Nothing outlives the build.

The ``vanishing`` mode handles scaled families ``eps_h * f``: it first rides
the flow of the unscaled functional from each endpoint until the scaled
slope drops under a cap, then applies the flow-mode construction between
the reached points, and finally prepends/appends those flow segments.

Repair pieces that are spatially constant with zero slope contribute
nothing and are dropped, so the zero functional reproduces the base curve
exactly.  The builder computes nothing else; ``piece_diagnostics`` takes the
``action`` of each kept piece in its own time on request.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError
from .curves import (
    ENDPOINT_TOL,
    Piece,
    SampledCurve,
    action,
    concatenate_rescale,
    geodesic_curve,
)
from .flow import flow_times
from .functionals import FunctionalSpec, descending_slope, lam_neg, slope_squared
from .proximal import resolvent
from .spaces import Point, distance


class RecoveryMode(str, Enum):
    RESOLVENT = "resolvent"
    FLOW = "flow"
    VANISHING = "vanishing"


def tau_cap(lam: float) -> float:
    ln = lam_neg(lam)
    hard = 0.5 if ln == 0.0 else min(1.0 / (4.0 * ln), 0.5)
    return hard / 2.0


def default_tau_schedule(h: int, d0: float, d1: float, lam: float) -> float:
    """Step schedule tied to the endpoint gaps.

    Scales like the endpoint error (plus 1/h), which keeps both the repair
    cost and the uniform distance of the assembled curve decaying in ``h``.
    """
    return min((d0 + d1 + 1.0 / h) / 8.0, tau_cap(lam))


DELTA_S = 1e-2          # arclength step for repair geodesics
MAX_REPAIR_NODES = 10**5    # nodes of a repair geodesic: endpoint gaps up to 1000
N_PHI_MIN = 8           # nodes on entry/exit pieces
DT_MIN = 1e-3           # finest time step on entry/exit pieces
SLOPE_CAP = 10.0        # default vanishing-mode switch threshold


@dataclass
class RecoveryConfig:
    mode: RecoveryMode
    base_curve: SampledCurve
    x0_seq: Callable[[int], Point]
    x1_seq: Callable[[int], Point]
    tau: Optional[float] = None     # step; ``default_tau_schedule`` when None
    slope_cap: float = SLOPE_CAP    # vanishing mode switch threshold


@dataclass
class PieceDiagnostics:
    label: str
    duration: float
    kinetic: float        # integral of squared speed in the piece's own time
    potential: float      # integral of squared slope in the piece's own time
    contribution: float   # share of the final action after rescaling


@dataclass
class RecoveryOutput:
    curve: SampledCurve
    pieces: list
    tau: float
    functional: FunctionalSpec      # the member functional the pieces were built for


def _phi_times(tau: float) -> np.ndarray:
    """Normalized grid for the entry piece, geometric near zero."""
    n = max(N_PHI_MIN, int(math.ceil(tau / DT_MIN)))
    n = min(n, 64)
    body = np.geomspace(1e-4, 1.0, n)
    return np.concatenate(([0.0], body))


def piece_diagnostics(out: RecoveryOutput) -> list:
    """The kinetic and potential terms of ``action`` on each piece in its own time,
    and the piece's share of the action of ``out.curve``, as ``PieceDiagnostics``."""
    total_duration = sum(p.duration for p in out.pieces)
    diags = []
    for p in out.pieces:
        kinetic = potential = 0.0
        if p.duration > 0:
            c = p.curve
            value = action(SampledCurve(c.times * p.duration, c.points, c.space), out.functional, c.start, c.end)
            kinetic, potential = value.kinetic, value.potential
        contribution = total_duration * kinetic + potential / total_duration
        diags.append(PieceDiagnostics(p.label, p.duration, kinetic, potential, contribution))
    return diags


def _bits(p: Point) -> tuple:
    """A key for the exact bits of ``p``'s coordinates.  Equal floats have
    equal bits but for ``0.0 == -0.0``, so a point with a zero coordinate
    adds the signs of its coordinates."""
    c = p.coords
    return c if all(c) else (c, tuple(math.copysign(1.0, v) for v in c))


def _is_trivial(piece: SampledCurve, g: Callable[[Point], float]) -> bool:
    anchor = piece.points[0]
    for p in piece.points:
        if distance(piece.space, anchor, p) > ENDPOINT_TOL or g(p) > 1e-12:
            return False
    return True


def _vanishing_endpoint_ride(f, space, anchor, eps_h, slope_cap):
    """Flow of the unscaled functional, one grid step at a time, until the
    scaled slope is tame."""
    times = np.concatenate(([0.0], np.geomspace(eps_h * 1e-6, eps_h * 0.999, 48)))
    points = [anchor]
    for k in range(1, len(times)):
        points.append(flow_times(f, space, points[-1], times[k - 1 : k + 1]).end)
        if eps_h * descending_slope(f, space, points[-1]) <= slope_cap:
            return SampledCurve(times[: k + 1] / times[k], points, space), float(times[k])
    raise ConvergenceError(
        f"scaled slope never dropped under {slope_cap} on (0, {eps_h:g}); refine the grid"
    )


def build_recovery(
    f: FunctionalSpec, cfg: RecoveryConfig, h: int, eps: Optional[Callable[[int], float]] = None
) -> RecoveryOutput:
    """Recovery curve for index ``h`` in the mode ``cfg.mode``.

    In ``resolvent`` and ``flow`` mode ``f`` is the member functional.  In
    ``vanishing`` mode ``f`` is the unscaled base and ``eps`` the scale
    law: the scaled family ``eps_h * f`` needs finite values (not slopes)
    at the moving endpoints, because the flow rides from each endpoint long
    enough to tame the scaled slope before the flow-mode construction joins
    the reached points.
    """
    if not h > 0:
        raise DomainError(f"index h must be positive, got {h}")
    space = cfg.base_curve.space
    x0h, x1h = cfg.x0_seq(h), cfg.x1_seq(h)
    x0, x1 = cfg.base_curve.start, cfg.base_curve.end
    vanishing = cfg.mode is RecoveryMode.VANISHING
    f_h = f
    if vanishing:
        eps_h = eps(h)
        f_h = f.scaled(eps_h)
        for name, pt in (("start", x0h), ("end", x1h)):
            if not f.in_domain(pt):
                raise DomainError(f"{name} endpoint has infinite value")
        ride0, t0 = _vanishing_endpoint_ride(f, space, x0h, eps_h, cfg.slope_cap)
        ride1, t1 = _vanishing_endpoint_ride(f, space, x1h, eps_h, cfg.slope_cap)
        x0h, x1h = ride0.end, ride1.end
    use_flow = cfg.mode is not RecoveryMode.RESOLVENT
    d0, d1 = distance(space, x0h, x0), distance(space, x1h, x1)
    tau = default_tau_schedule(h, d0, d1, f_h.lam) if cfg.tau is None else cfg.tau
    tau = min(tau, tau_cap(f_h.lam))
    if not tau > 0:
        raise DomainError(f"recovery step tau must be positive, got {tau}")
    phi_t = _phi_times(tau)

    for name, pt in (("start", x0h), ("end", x1h)):
        if not math.isfinite(descending_slope(f_h, space, pt)):
            raise DomainError(
                f"{name} endpoint has infinite slope; this construction needs "
                "bounded endpoint slopes (use the vanishing mode instead)"
            )

    # the flow map reuses the entry-piece grid so that junction points are
    # produced by the identical discrete computation on both sides; each
    # point is regularized once, keyed on its exact bits (0.0 is not -0.0)
    done = {}

    def regularize(p: Point) -> Point:
        key = _bits(p)
        if key not in done:
            if use_flow:
                done[key] = flow_times(f_h, space, p, phi_t * tau).end
            else:
                done[key] = resolvent(f_h, space, tau, p).point
        return done[key]

    def entry_piece(anchor: Point) -> SampledCurve:
        if use_flow:
            pts = flow_times(f_h, space, anchor, phi_t * tau).points
        else:
            pts = [anchor] + [
                resolvent(f_h, space, float(s * tau), anchor).point for s in phi_t[1:]
            ]
        done[_bits(anchor)] = pts[-1]   # phi_t ends at 1: the end is R_tau(anchor)
        return SampledCurve(phi_t, pts, space)

    def repair_piece(a: Point, b: Point, d: float) -> SampledCurve:
        if not d <= MAX_REPAIR_NODES * DELTA_S:
            raise DomainError(f"an endpoint gap of {d:g} needs more than {MAX_REPAIR_NODES} repair nodes")
        n = max(2, int(math.ceil(d / DELTA_S)))
        return geodesic_curve(space, a, b, n).mapped(regularize)

    entry, exit_ = entry_piece(x0h), entry_piece(x1h)   # first: they seed ``done``
    pieces = [Piece(entry, tau, "entry")]
    if d0 > ENDPOINT_TOL:
        pieces.append(Piece(repair_piece(x0h, x0, d0), d0, "repair_start"))
    pieces.append(Piece(cfg.base_curve.mapped(regularize), 1.0, "middle"))
    if d1 > ENDPOINT_TOL:
        pieces.append(Piece(repair_piece(x1h, x1, d1).reversed_time(), d1, "repair_end"))
    pieces.append(Piece(exit_.reversed_time(), tau, "exit"))
    if vanishing:
        ride_out = Piece(ride1.reversed_time(), t1, "ride_out")
        pieces = [Piece(ride0, t0, "ride_in")] + pieces + [ride_out]

    g = functools.partial(slope_squared, f_h, space)
    kept = [p for p in pieces if p.label == "middle" or not _is_trivial(p.curve, g)]
    return RecoveryOutput(concatenate_rescale(kept), kept, tau, f_h)
