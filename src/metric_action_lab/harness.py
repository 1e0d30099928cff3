"""Convergence experiments, certified counterexamples, report persistence.

Positive experiments build recovery curves per index ``h`` and track how
their action approaches the target curve's action while the uniform
distance shrinks.  Negative experiments certify, through interval-wise
lower bounds that hold for every admissible curve, that the infimum stays
bounded away from the target action; the verdict machinery only declares a
violation when such a certificate beats the target by the configured
margin.

Reports serialize to a CSV table (one row per index) plus a JSON summary.
Identical configurations produce byte-identical files.  Per-index work
items run in order in the calling thread; ``METRIC_ACTION_LAB_THREADS`` is
accepted and ignored, because the work is pure Python and holds the GIL.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .curves import (
    SampledCurve,
    action,
    curve_from_csv,
    geodesic_curve,
    minimize_action,
    uniform_distance,
)
from .errors import ConfigError, MetricActionError
from .functionals import (
    FunctionalFamily,
    SupFormula,
    best_slope_method,
    build_functional,
    descending_slope,
    inverse_square,
    ramp,
    zero_functional,
)
from .laws import parse_law
from .recovery import RecoveryConfig, RecoveryMode, RecoveryOutput, build_recovery
from .spaces import Point, SpaceHandle, euclidean, half_line, quantile_1d, tripod
from .spaces import distance as space_distance


class Verdict(str, Enum):
    CONSISTENT = "ConsistentWithGammaConvergence"
    VIOLATED = "GammaConvergenceViolated"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class ExperimentReport:
    columns: list
    rows: list
    verdict: Verdict
    witness: Optional[dict] = None
    meta: dict = field(default_factory=dict)


def parallel_map(fn: Callable, items: Sequence) -> list:
    """Map over the per-index work items in order, in the calling thread.

    The name stays because ``perfbench/tracer.py`` hooks it to group the
    per-index spans.
    """
    return [fn(x) for x in items]


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


def space_from_config(spec: dict) -> SpaceHandle:
    kind = spec["kind"]
    if kind == "euclidean":
        return euclidean(int(spec.get("dim", 1)))
    if kind == "half_line":
        return half_line()
    if kind == "tripod":
        return tripod(tuple(spec.get("edge_lengths", (1.0, 1.0, 1.0))))
    if kind == "quantile_1d":
        return quantile_1d(int(spec["grid_size"]))
    raise ConfigError(f"unknown space kind {kind!r}")


def family_from_config(space: SpaceHandle, fam: dict) -> FunctionalFamily:
    name = fam["name"]
    params = dict(fam.get("params", {}))
    if name == "example2":
        return FunctionalFamily(
            member=lambda h: ramp(float(h)),
            limit=zero_functional(space),
            description="ramp family",
        )
    if name == "example1":
        eps = parse_law(fam.get("eps_law", "1/h"))
        return FunctionalFamily(
            member=lambda h: inverse_square(eps(h)),
            limit=zero_functional(space),
            description="scaled inverse-square family",
            base=inverse_square(1.0),
        )
    base = build_functional(space, name, params)
    if "scale_law" in fam and fam["scale_law"] is not None:
        law = parse_law(fam["scale_law"])
        member = lambda h: base.scaled(law(h))
    else:
        member = lambda h: base
    if fam.get("limit") is not None:
        lim_spec = fam["limit"]
        limit = build_functional(space, lim_spec["name"], lim_spec.get("params", {}))
    elif fam.get("scale_limit") is not None:
        limit = base.scaled(float(fam["scale_limit"]))
    else:
        limit = base
    return FunctionalFamily(member=member, limit=limit, description=name, base=base)


def endpoint_law(space: SpaceHandle, law_spec) -> Callable[[int], Point]:
    laws = law_spec if isinstance(law_spec, (list, tuple)) else [law_spec]
    fns = [parse_law(l) for l in laws]
    return lambda h: space.point(*[fn(h) for fn in fns])


@dataclass
class ExperimentConfig:
    space: SpaceHandle
    family: FunctionalFamily
    x0: Point
    x1: Point
    x0_seq: Callable[[int], Point]
    x1_seq: Callable[[int], Point]
    h_list: list
    mode: RecoveryMode = RecoveryMode.RESOLVENT
    base_curve_spec: dict = field(default_factory=lambda: {"type": "geodesic"})
    eps_law: Optional[Callable[[int], float]] = None
    n_intervals: int = 64
    margin: float = 0.05
    d_inf_tol: float = 0.02
    slope_cap: float = 10.0
    seed: int = 0
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        space = space_from_config(obj["space"])
        family = family_from_config(space, obj["family"])
        x0 = space.point(*_as_coords(obj["x0"]))
        x1 = space.point(*_as_coords(obj["x1"]))
        disc = dict(obj.get("discretization", {}))
        tol = dict(obj.get("tolerances", {}))
        mode = RecoveryMode(obj.get("mode", "resolvent"))
        if mode is RecoveryMode.VANISHING and obj.get("eps_law"):
            # members are eps(h) * base with a vanishing scale, limit is zero
            base = family.base
            if base is None:
                raise ConfigError("vanishing mode needs a scalable base functional")
            eps = parse_law(obj["eps_law"])
            family = FunctionalFamily(
                member=lambda h: base.scaled(eps(h)),
                limit=zero_functional(space),
                description=f"vanishing {family.description}",
                base=base,
            )
        return cls(
            space=space,
            family=family,
            x0=x0,
            x1=x1,
            x0_seq=endpoint_law(space, obj.get("x0_law", obj["x0"])),
            x1_seq=endpoint_law(space, obj.get("x1_law", obj["x1"])),
            h_list=list(obj["h_list"]),
            mode=mode,
            base_curve_spec=dict(obj.get("base_curve", {"type": "geodesic"})),
            eps_law=parse_law(obj["eps_law"]) if obj.get("eps_law") else None,
            n_intervals=int(disc.get("N", 64)),
            margin=float(tol.get("margin", 0.05)),
            d_inf_tol=float(tol.get("d_inf_tol", 0.02)),
            slope_cap=float(tol.get("slope_cap", 10.0)),
            seed=int(obj.get("seed", 0)),
            raw=obj,
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _as_coords(v):
    return v if isinstance(v, (list, tuple)) else [v]


def resolve_base_curve(cfg: ExperimentConfig) -> SampledCurve:
    spec = cfg.base_curve_spec
    kind = spec.get("type", "geodesic")
    n = int(spec.get("N", cfg.n_intervals))
    if kind == "geodesic":
        return geodesic_curve(cfg.space, cfg.x0, cfg.x1, n)
    if kind == "minimize_action":
        curve, _, _ = minimize_action(cfg.family.limit, cfg.space, cfg.x0, cfg.x1, n)
        return curve
    if kind == "csv":
        return curve_from_csv(Path(spec["path"]).read_text(), cfg.space)
    raise ConfigError(f"unknown base curve type {kind!r}")


def experiment_recovery(cfg: ExperimentConfig, gamma: SampledCurve, h: int) -> RecoveryOutput:
    """Recovery curve for index ``h`` of the experiment around ``gamma``."""
    rcfg = RecoveryConfig(
        mode=cfg.mode,
        base_curve=gamma,
        x0_seq=cfg.x0_seq,
        x1_seq=cfg.x1_seq,
        slope_cap=cfg.slope_cap,
    )
    if cfg.mode is not RecoveryMode.VANISHING:
        return build_recovery(cfg.family.member(h), rcfg, h)
    if cfg.family.base is None or cfg.eps_law is None:
        raise ConfigError("vanishing mode needs a base functional and eps_law")
    return build_recovery(cfg.family.base, rcfg, h, eps=cfg.eps_law)


# --------------------------------------------------------------------------
# positive experiments
# --------------------------------------------------------------------------

POSITIVE_COLUMNS = [
    "h",
    "tau",
    "theta_h",
    "theta_target",
    "gap",
    "d_inf",
    "slope_x0",
    "slope_x1",
    "endpoint_gap",
    "pass",
]


def run_positive(cfg: ExperimentConfig) -> ExperimentReport:
    """Build recovery curves per index and compare against the target."""
    gamma = resolve_base_curve(cfg)
    target = action(gamma, cfg.family.limit, cfg.x0, cfg.x1).total

    def one(h):
        f_h = cfg.family.member(h)
        x0h, x1h = cfg.x0_seq(h), cfg.x1_seq(h)
        row = {"h": h, "theta_target": target}
        try:
            out = experiment_recovery(cfg, gamma, h)
            theta_h = action(out.curve, f_h, x0h, x1h).total
            row.update(
                tau=out.tau,
                theta_h=theta_h,
                gap=theta_h - target,
                d_inf=uniform_distance(out.curve, gamma),
                slope_x0=descending_slope(f_h, cfg.space, x0h, best_slope_method(f_h)),
                slope_x1=descending_slope(f_h, cfg.space, x1h, best_slope_method(f_h)),
                endpoint_gap=max(
                    space_distance(cfg.space, out.curve.start, x0h),
                    space_distance(cfg.space, out.curve.end, x1h),
                ),
            )
        except MetricActionError as exc:
            row.update(tau=math.nan, theta_h=math.inf, gap=math.inf, d_inf=math.inf,
                       slope_x0=math.nan, slope_x1=math.nan, endpoint_gap=math.inf)
            row["error"] = str(exc)
        return row

    rows = parallel_map(one, cfg.h_list)
    for row in rows:
        row["pass"] = bool(
            math.isfinite(row["gap"]) and row["gap"] <= cfg.margin and row["d_inf"] <= cfg.d_inf_tol
        )
    verdict = Verdict.INCONCLUSIVE
    if rows and rows[-1]["pass"]:
        tail = rows[2:] if len(rows) > 3 else rows
        mono = all(
            tail[i + 1]["gap"] <= tail[i]["gap"] + 1e-9
            and tail[i + 1]["d_inf"] <= tail[i]["d_inf"] + 1e-9
            for i in range(len(tail) - 1)
        )
        if mono:
            verdict = Verdict.CONSISTENT
    return ExperimentReport(
        columns=POSITIVE_COLUMNS,
        rows=rows,
        verdict=verdict,
        meta={
            "experiment": "positive",
            "mode": cfg.mode.value,
            "seed": cfg.seed,
            "repair": "geodesic",
            "margin": cfg.margin,
            "d_inf_tol": cfg.d_inf_tol,
        },
    )


# --------------------------------------------------------------------------
# certified counterexamples
# --------------------------------------------------------------------------


def crossing_lower_bound(xs: np.ndarray, sqrt_g_right: Callable[[float], float]) -> float:
    """Certified action lower bound for any curve crossing [xs[0], xs[-1]].

    Splits the segment at ``xs`` and charges each crossing window with
    ``2 * inf(sqrt g) * width``.  For nonincreasing potentials the infimum
    over everything reachable before the first hit of the right edge is the
    right-endpoint value, which is what ``sqrt_g_right`` must return.
    """
    total = 0.0
    for a, b in zip(xs[:-1], xs[1:]):
        total += 2.0 * sqrt_g_right(float(b)) * (float(b) - float(a))
    return total


def _certified_verdict(rows: list, bound: str, target: float, margin: float) -> tuple:
    """Mark rows whose ``bound`` column beats the target by the margin.

    The first passing row is the witness; the verdict is a violation only
    when every row passes, so an empty grid stays inconclusive.
    """
    witness = None
    for row in rows:
        row["pass"] = bool(row[bound] > target + margin)
        if row["pass"] and witness is None:
            witness = {"h": row["h"], "lower_bound": row[bound], "target": target}
    verdict = Verdict.VIOLATED if witness and all(r["pass"] for r in rows) else Verdict.INCONCLUSIVE
    return verdict, witness


EXAMPLE1_COLUMNS = [
    "h",
    "eps",
    "x0h",
    "certified_lower_bound",
    "coarse_lower_bound",
    "amgm_part",
    "kinetic_part",
    "slope_x0_closed",
    "slope_x0_sup",
    "theta_target",
    "pass",
]


def run_example1(
    h_list: Sequence[int],
    n_certificate: int = 1024,
    eps_law="1/h",
    margin: float = 0.05,
) -> ExperimentReport:
    """Scaled inverse-square family: certified obstruction to convergence.

    The moving start point sits where the scaled slope blows up; every
    admissible curve pays a certified toll crossing away from it, so the
    infimum exceeds the target action of the straight limit curve.
    """
    space = half_line()
    law = parse_law(eps_law)
    zero = zero_functional(space)
    straight = geodesic_curve(space, space.point(0.0), space.point(1.0), 256)
    target = action(straight, zero, space.point(0.0), space.point(1.0)).total

    def one(h):
        eps = law(h)
        seps = math.sqrt(eps)
        f_h = inverse_square(eps)

        def sqrt_g(x: float) -> float:
            return 2.0 * eps / x**3

        xs = np.geomspace(seps, 2.0 * seps, n_certificate + 1)
        amgm = crossing_lower_bound(xs, sqrt_g)
        kinetic = (1.0 - 2.0 * seps) ** 2
        certified = amgm + kinetic
        coarse = 2.0 * sqrt_g(2.0 * seps) * seps + kinetic
        x0h = space.point(seps)
        s_closed = descending_slope(f_h, space, x0h)
        s_sup = descending_slope(
            f_h, space, x0h, SupFormula(radius=max(1.0, seps), n_samples=512)
        )
        return {
            "h": h,
            "eps": eps,
            "x0h": seps,
            "certified_lower_bound": certified,
            "coarse_lower_bound": coarse,
            "amgm_part": amgm,
            "kinetic_part": kinetic,
            "slope_x0_closed": s_closed,
            "slope_x0_sup": s_sup,
            "theta_target": target,
        }

    rows = parallel_map(one, list(h_list))
    verdict, witness = _certified_verdict(rows, "certified_lower_bound", target, margin)
    return ExperimentReport(
        columns=EXAMPLE1_COLUMNS,
        rows=rows,
        verdict=verdict,
        witness=witness,
        meta={
            "experiment": "example1",
            "eps_law": str(eps_law),
            "n_certificate": n_certificate,
            "margin": margin,
            "repair": "geodesic",
            "seed": 0,
        },
    )


EXAMPLE2_COLUMNS = [
    "h",
    "amgm_lower_bound",
    "kinetic_remainder",
    "certified_lower_bound",
    "optimizer_upper_bound",
    "slope_x0",
    "theta_target",
    "pass",
]


def run_example2(
    h_list: Sequence[int],
    n_certificate: int = 1024,
    n_search: int = 64,
    margin: float = 0.05,
    with_optimizer: bool = True,
) -> ExperimentReport:
    """Ramp family: the certified crossing toll is 2 while the target is 1."""
    space = half_line()
    zero = zero_functional(space)
    x0, x1 = space.point(0.0), space.point(1.0)
    straight = geodesic_curve(space, x0, x1, 256)
    target = action(straight, zero, x0, x1).total

    def one(h):
        f_h = ramp(float(h))
        inv = 1.0 / h

        def sqrt_g(x: float) -> float:
            s = f_h.closed_form_slope(space.point(x))
            return float(s)

        xs = np.linspace(0.0, inv, n_certificate + 1)
        amgm = crossing_lower_bound(xs, sqrt_g)
        remainder = (1.0 - inv) ** 2
        upper = math.inf
        if with_optimizer:
            for init in _example2_inits(space, inv, n_search):
                _, val, _ = minimize_action(
                    f_h, space, x0, x1, n_search, init=init, max_iter=60
                )
                upper = min(upper, val.total)
        s0 = descending_slope(f_h, space, x0)
        return {
            "h": h,
            "amgm_lower_bound": amgm,
            "kinetic_remainder": remainder,
            "certified_lower_bound": amgm + remainder,
            "optimizer_upper_bound": upper,
            "slope_x0": s0,
            "theta_target": target,
        }

    rows = parallel_map(one, list(h_list))
    verdict, witness = _certified_verdict(rows, "amgm_lower_bound", target, margin)
    return ExperimentReport(
        columns=EXAMPLE2_COLUMNS,
        rows=rows,
        verdict=verdict,
        witness=witness,
        meta={
            "experiment": "example2",
            "n_certificate": n_certificate,
            "margin": margin,
            "repair": "geodesic",
            "seed": 0,
        },
    )


def _example2_inits(space, inv, n_search):
    x0, x1 = space.point(0.0), space.point(1.0)
    yield geodesic_curve(space, x0, x1, n_search)
    # fast early crossing of the ramp region, then a straight run
    times = np.linspace(0.0, 1.0, n_search + 1)
    pts = []
    for t in times:
        if t <= 0.1:
            pts.append(space.point(inv * (t / 0.1)))
        else:
            pts.append(space.point(inv + (1.0 - inv) * (t - 0.1) / 0.9))
    yield SampledCurve(times, pts, space)


# --------------------------------------------------------------------------
# liminf probe
# --------------------------------------------------------------------------

LIMINF_COLUMNS = ["h", "theta_h", "theta_limit", "difference", "d_inf"]


def liminf_probe(
    family: FunctionalFamily,
    curves: dict,
    gamma: SampledCurve,
    tail_from: int = 0,
    slack: float = 1e-6,
) -> ExperimentReport:
    """Empirical check that member actions do not undercut the limit action.

    ``curves`` maps index to a curve converging uniformly to ``gamma``.
    The probe evaluates each member action with the curve's own endpoints
    and reports the tail minimum of the differences.
    """
    theta_limit = action(gamma, family.limit, gamma.start, gamma.end).total

    def one(h):
        c = curves[h]
        f_h = family.member(h)
        th = action(c, f_h, c.start, c.end).total
        return {
            "h": h,
            "theta_h": th,
            "theta_limit": theta_limit,
            "difference": th - theta_limit,
            "d_inf": uniform_distance(c, gamma),
        }

    hs = sorted(curves)
    rows = parallel_map(one, hs)
    tail = [r["difference"] for r in rows if r["h"] >= tail_from]
    ok = bool(tail) and min(tail) >= -slack
    return ExperimentReport(
        columns=LIMINF_COLUMNS,
        rows=rows,
        verdict=Verdict.CONSISTENT if ok else Verdict.INCONCLUSIVE,
        meta={"experiment": "liminf", "tail_from": tail_from, "slack": slack, "seed": 0},
    )


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    if isinstance(v, Verdict):
        return v.value
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def emit_report(report: ExperimentReport, out_dir, stem: str) -> tuple:
    """Write ``stem.csv`` and ``stem.json``; byte-stable for fixed config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.csv"
    json_path = out / f"{stem}.json"
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(_fmt(row.get(c, "")) for c in report.columns))
    csv_path.write_text("\n".join(lines) + "\n")
    summary = {
        "schema": 1,
        "verdict": report.verdict.value,
        "witness": _jsonable(report.witness),
        "meta": _jsonable(report.meta),
        "rows": [_jsonable({c: row.get(c) for c in report.columns}) for row in report.rows],
        "versions": {"metric_action_lab": __version__},
    }
    json_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return csv_path, json_path
