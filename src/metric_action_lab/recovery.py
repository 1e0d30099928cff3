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

The ``vanishing`` mode handles scaled families ``eps_h * f``: it first rides
the flow of the unscaled functional from each endpoint until the scaled
slope drops under a cap, then applies the flow-mode construction between
the reached points, and finally prepends/appends those flow segments.

Repair pieces that are spatially constant with zero slope contribute
nothing and are dropped, so the zero functional reproduces the base curve
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import PreconditionError, ScheduleError
from .curves import Piece, SampledCurve, concatenate_rescale, geodesic_curve
from .flow import flow_times
from .functionals import FunctionalSpec, best_slope_method, descending_slope, lam_neg
from .proximal import resolvent
from .spaces import Point, SpaceHandle, distance


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
N_PHI_MIN = 8           # nodes on entry/exit pieces
DT_MIN = 1e-3           # finest time step on entry/exit pieces
ENDPOINT_TOL = 1e-9     # distances below this count as zero


@dataclass
class RecoveryConfig:
    mode: RecoveryMode
    base_curve: SampledCurve
    x0_seq: Callable[[int], Point]
    x1_seq: Callable[[int], Point]
    tau_schedule: Optional[Callable[[int], float]] = None
    slope_cap: float = 10.0         # vanishing mode switch threshold


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
    diagnostics: dict = field(default_factory=dict)


def _phi_times(tau: float) -> np.ndarray:
    """Normalized grid for the entry piece, geometric near zero."""
    n = max(N_PHI_MIN, int(math.ceil(tau / DT_MIN)))
    n = min(n, 64)
    body = np.geomspace(1e-4, 1.0, n)
    return np.concatenate(([0.0], body))


def _piece_integrals(curve: SampledCurve, duration: float, g: Callable[[Point], float]):
    """Kinetic and potential integrals in the piece's own duration time."""
    if duration <= 0:
        return 0.0, 0.0
    dts = np.diff(curve.times) * duration
    d = [distance(curve.space, curve.points[k], curve.points[k + 1]) for k in range(len(curve.points) - 1)]
    kinetic = float(np.sum(np.array(d) ** 2 / dts))
    gv = np.array([g(p) for p in curve.points])
    w = np.zeros(len(gv))
    w[:-1] += dts / 2.0
    w[1:] += dts / 2.0
    potential = float(np.sum(w * gv))
    return kinetic, potential


def _is_trivial(piece: SampledCurve, g: Callable[[Point], float], tol: float) -> bool:
    anchor = piece.points[0]
    for p in piece.points:
        if distance(piece.space, anchor, p) > tol or g(p) > 1e-12:
            return False
    return True


def _build_core(
    f_h: FunctionalSpec,
    space: SpaceHandle,
    gamma: SampledCurve,
    x0h: Point,
    x1h: Point,
    x0: Point,
    x1: Point,
    tau: float,
    use_flow: bool,
) -> tuple:
    """The shared five-piece assembly; returns the ordered piece list."""
    phi_t = _phi_times(tau)

    # the flow map reuses the entry-piece grid so that junction points are
    # produced by the identical discrete computation on both sides
    def regularize(p: Point) -> Point:
        if use_flow:
            return flow_times(f_h, space, p, phi_t * tau).end
        return resolvent(f_h, space, tau, p).point

    method = best_slope_method(f_h)
    for name, pt in (("start", x0h), ("end", x1h)):
        s = descending_slope(f_h, space, pt, method)
        if not math.isfinite(s):
            raise PreconditionError(
                f"{name} endpoint has infinite slope; this construction needs "
                "bounded endpoint slopes (use the vanishing mode instead)"
            )

    def entry_piece(anchor: Point) -> SampledCurve:
        if use_flow:
            traj = flow_times(f_h, space, anchor, phi_t * tau)
            pts = traj.points
        else:
            pts = [anchor] + [
                resolvent(f_h, space, float(s * tau), anchor).point for s in phi_t[1:]
            ]
        return SampledCurve(phi_t, pts, space)

    def repair_piece(a: Point, b: Point) -> Optional[SampledCurve]:
        d = distance(space, a, b)
        if d <= ENDPOINT_TOL:
            return None
        n = max(2, int(math.ceil(d / DELTA_S)))
        base = geodesic_curve(space, a, b, n)
        return base.mapped(regularize)

    d0 = distance(space, x0h, x0)
    d1 = distance(space, x1h, x1)

    phi0 = entry_piece(x0h)
    psi0 = repair_piece(x0h, x0)
    mid = gamma.mapped(regularize)
    psi1 = repair_piece(x1h, x1)
    phi1 = entry_piece(x1h).reversed_time()

    pieces = [Piece(phi0, tau, "entry")]
    if psi0 is not None:
        pieces.append(Piece(psi0, d0, "repair_start"))
    pieces.append(Piece(mid, 1.0, "middle"))
    if psi1 is not None:
        pieces.append(Piece(psi1.reversed_time(), d1, "repair_end"))
    pieces.append(Piece(phi1, tau, "exit"))
    return pieces


def _assemble(pieces, f_h, space, tau, extra_diag) -> RecoveryOutput:
    method = best_slope_method(f_h)

    def g(p: Point) -> float:
        s = descending_slope(f_h, space, p, method)
        return s * s if math.isfinite(s) else math.inf

    kept = []
    for p in pieces:
        if p.label != "middle" and _is_trivial(p.curve, g, ENDPOINT_TOL):
            continue
        kept.append(p)
    total_duration = sum(p.duration for p in kept)
    curve = concatenate_rescale(kept, endpoint_tol=1e-8)
    diags = []
    for p in kept:
        K, P = _piece_integrals(p.curve, p.duration, g)
        diags.append(
            PieceDiagnostics(p.label, p.duration, K, P, total_duration * K + P / total_duration)
        )
    diagnostics = {
        "tau": tau,
        "total_duration": total_duration,
        "pieces": diags,
    }
    diagnostics.update(extra_diag)
    return RecoveryOutput(curve, kept, tau, diagnostics)


def _resolve_tau(cfg: RecoveryConfig, f_h: FunctionalSpec, h: int, d0: float, d1: float) -> float:
    if cfg.tau_schedule is not None:
        tau = cfg.tau_schedule(h)
    else:
        tau = default_tau_schedule(h, d0, d1, f_h.lam)
    return min(tau, tau_cap(f_h.lam))


def estimated_entry_constant(f_h, space, x0h, x1h, tau, use_flow: bool) -> float:
    """Constant C with entry-piece action <= C tau, from measured slopes."""
    method = best_slope_method(f_h)
    s0 = descending_slope(f_h, space, x0h, method)
    s1 = descending_slope(f_h, space, x1h, method)
    s = max(s0, s1)
    lam = f_h.lam
    if use_flow:
        return 2.0 * math.exp(2.0 * lam_neg(lam) * tau) * s * s
    a = 1.0 / ((1.0 + min(lam, 0.0) * tau) * math.sqrt(1.0 - 2.0 * lam_neg(lam) * tau))
    b = max(1.0, 1.0 / (1.0 + lam * tau))
    return (a * a + b * b) * s * s


def _vanishing_endpoint_ride(f, space, anchor, eps_h, slope_cap):
    """Flow of the unscaled functional until the scaled slope is tame."""
    times = np.concatenate(([0.0], np.geomspace(eps_h * 1e-6, eps_h * 0.999, 48)))
    traj = flow_times(f, space, anchor, times)
    method = best_slope_method(f)
    for k in range(1, len(times)):
        s = descending_slope(f, space, traj.points[k], method)
        if eps_h * s <= slope_cap:
            sub_times = times[: k + 1]
            norm = sub_times / sub_times[-1]
            piece = SampledCurve(norm, traj.points[: k + 1], space)
            return piece, float(sub_times[-1])
    raise ScheduleError(
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
                raise PreconditionError(f"{name} endpoint has infinite value")
        ride0, t0 = _vanishing_endpoint_ride(f, space, x0h, eps_h, cfg.slope_cap)
        ride1, t1 = _vanishing_endpoint_ride(f, space, x1h, eps_h, cfg.slope_cap)
        x0h, x1h = ride0.end, ride1.end
    use_flow = cfg.mode is not RecoveryMode.RESOLVENT
    d0, d1 = distance(space, x0h, x0), distance(space, x1h, x1)
    tau = _resolve_tau(cfg, f_h, h, d0, d1)
    pieces = _build_core(f_h, space, cfg.base_curve, x0h, x1h, x0, x1, tau, use_flow)
    if vanishing:
        ride_out = Piece(ride1.reversed_time(), t1, "ride_out")
        pieces = [Piece(ride0, t0, "ride_in")] + pieces + [ride_out]
        extra = {"mode": "vanishing", "eps": eps_h, "t_switch": (t0, t1)}
    else:
        C = estimated_entry_constant(f_h, space, x0h, x1h, tau, use_flow)
        extra = {"entry_constant": C, "mode": cfg.mode.value}
    return _assemble(pieces, f_h, space, tau, extra)


# --------------------------------------------------------------------------
# diagonal selection
# --------------------------------------------------------------------------


@dataclass
class DiagonalSelection:
    assignment: dict
    thresholds: list
    conclusive: bool
    levels_used: int
    constant: float


def diagonal_select(
    action_grid: Sequence[Sequence[float]],
    dinf_grid: Sequence[Sequence[float]],
    taus: Sequence[float],
    h_list: Sequence[int],
    target: float,
    eps_list: Optional[Sequence[float]] = None,
    C: float = 5.0,
) -> DiagonalSelection:
    """Nondecreasing level assignment h -> n realizing both closeness bounds.

    Level ``n`` is usable past threshold ``H_n`` when every grid index
    ``h > H_n`` satisfies the inflated action bound
    ``(1 + C tau_n)^C * target + C tau_n`` and ``d_inf < eps_n``.  Stops at
    the last achievable level; ``conclusive`` records whether every level of
    ``eps_list`` was reached (an exhausted grid is reported, not an error).
    """
    if eps_list is None:
        eps_list = [1.0 / (n + 1) for n in range(len(taus))]
    thresholds = []
    for n, (tau_n, eps_n) in enumerate(zip(taus, eps_list)):
        bound = (1.0 + C * tau_n) ** C * target + C * tau_n
        ok_from = None
        for j in range(len(h_list)):
            if all(
                action_grid[n][k] <= bound and dinf_grid[n][k] < eps_n
                for k in range(j, len(h_list))
            ):
                ok_from = j
                break
        if ok_from is None:
            break
        H_n = h_list[ok_from] - 1
        if thresholds:
            H_n = max(H_n, thresholds[-1] + 1)  # strictly increasing thresholds
        thresholds.append(H_n)
    assignment = {}
    for h in h_list:
        level = -1
        for n, H_n in enumerate(thresholds):
            if h > H_n:
                level = n
        if level >= 0:
            assignment[h] = level
    return DiagonalSelection(
        assignment=assignment,
        thresholds=thresholds,
        conclusive=len(thresholds) == len(taus),
        levels_used=len(thresholds),
        constant=C,
    )
