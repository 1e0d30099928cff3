"""Convergence experiments, certified counterexamples, report persistence.

Positive experiments build recovery curves per index ``h`` and track how
their action approaches the target curve's action while the uniform
distance shrinks.  Negative experiments certify, through interval-wise
lower bounds that hold for every admissible curve, that the infimum stays
bounded away from the target action; the verdict machinery only declares a
violation when such a certificate beats the target by the configured
margin.

Reports serialize to a CSV table (one row per index) plus a JSON summary.
Identical configurations produce byte-identical files.  ``load_config``
reads every JSON config, ``load_curve`` every curve file, and ``write_json``
writes every JSON file.  Per-index work items run in order in the calling
thread; ``METRIC_ACTION_LAB_THREADS`` is accepted and ignored, because the
work is pure Python and holds the GIL.
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
    format_table,
    geodesic_curve,
    minimize_action,
    uniform_distance,
)
from .errors import ConfigError, DomainError, MetricActionError
from .functionals import (
    FunctionalFamily,
    SupFormula,
    build_functional,
    descending_slope,
    inverse_square,
    ramp,
    zero_functional,
)
from .laws import (
    ConfigObject,
    as_coords,
    config_h_list,
    config_number,
    config_object,
    config_point,
    parse_law,
)
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
    spec = config_object(spec, "space")
    kind = spec["kind"]
    if kind == "euclidean":
        return euclidean(config_number(spec.get("dim", 1), "dim", int))
    if kind == "half_line":
        return half_line()
    if kind == "tripod":
        lengths = as_coords(spec.get("edge_lengths", [1.0, 1.0, 1.0]))
        return tripod([config_number(l, "edge_lengths") for l in lengths])
    if kind == "quantile_1d":
        return quantile_1d(config_number(spec["grid_size"], "grid_size", int))
    raise ConfigError(f"unknown space kind {kind!r}")


def family_from_config(space: SpaceHandle, fam: dict) -> FunctionalFamily:
    fam = config_object(fam, "family")
    name = fam["name"]
    params = fam.get("params", {})
    if name == "example2":
        return FunctionalFamily(
            member=lambda h: ramp(float(h)),
            limit=zero_functional(space),
        )
    if name == "example1":
        eps = parse_law(fam.get("eps_law", "1/h"))
        return FunctionalFamily(
            member=lambda h: inverse_square(eps(h)),
            limit=zero_functional(space),
            base=inverse_square(1.0),
        )
    base = build_functional(space, name, params)
    if "scale_law" in fam and fam["scale_law"] is not None:
        law = parse_law(fam["scale_law"])
        member = lambda h: base.scaled(law(h))
    else:
        member = lambda h: base
    if fam.get("limit") is not None:
        lim_spec = config_object(fam["limit"], "limit")
        limit = build_functional(space, lim_spec["name"], lim_spec.get("params", {}))
    elif fam.get("scale_limit") is not None:
        limit = base.scaled(config_number(fam["scale_limit"], "scale_limit"))
    else:
        limit = base
    return FunctionalFamily(member=member, limit=limit, base=base)


def endpoint_law(space: SpaceHandle, law_spec) -> Callable[[int], Point]:
    fns = [parse_law(l) for l in as_coords(law_spec)]
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
        obj = ConfigObject(obj)
        space = space_from_config(obj["space"])
        family = family_from_config(space, obj["family"])
        x0 = config_point(space, obj["x0"], "x0")
        x1 = config_point(space, obj["x1"], "x1")
        disc = config_object(obj.get("discretization", {}), "discretization")
        tol = config_object(obj.get("tolerances", {}), "tolerances")
        try:
            mode = RecoveryMode(obj.get("mode", "resolvent"))
        except ValueError:
            raise ConfigError(
                f"config key 'mode' must be resolvent, flow or vanishing, got {obj['mode']!r}"
            ) from None
        eps_law = parse_law(obj["eps_law"]) if obj.get("eps_law") else None
        if mode is RecoveryMode.VANISHING:
            # members are eps(h) * base with a vanishing scale, limit is zero
            base = family.base
            if base is None or eps_law is None:
                raise ConfigError("vanishing mode needs a scalable base functional and eps_law")
            family = FunctionalFamily(
                member=lambda h: base.scaled(eps_law(h)),
                limit=zero_functional(space),
                base=base,
            )
        return cls(
            space=space,
            family=family,
            x0=x0,
            x1=x1,
            x0_seq=endpoint_law(space, obj.get("x0_law", obj["x0"])),
            x1_seq=endpoint_law(space, obj.get("x1_law", obj["x1"])),
            h_list=config_h_list(obj["h_list"]),
            mode=mode,
            base_curve_spec=config_object(obj.get("base_curve", {"type": "geodesic"}), "base_curve"),
            eps_law=eps_law,
            n_intervals=config_number(disc.get("N", 64), "N", int),
            margin=config_number(tol.get("margin", 0.05), "margin"),
            d_inf_tol=config_number(tol.get("d_inf_tol", 0.02), "d_inf_tol"),
            slope_cap=config_number(tol.get("slope_cap", 10.0), "slope_cap"),
            seed=config_number(obj.get("seed", 0), "seed", int),
            raw=obj,
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(load_config(path))


def load_config(path) -> dict:
    """The JSON object in the config file at ``path``.

    Raises ``ConfigError`` when the file cannot be read, is not JSON, or
    holds something other than an object.  Indexing any object of the
    config, nested ones included, by a missing key raises ``ConfigError``.
    """
    try:
        obj = json.loads(Path(path).read_text(), object_hook=ConfigObject)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return obj


def load_curve(path, space: SpaceHandle) -> SampledCurve:
    """The curve in the CSV file at ``path``, on ``space``.

    Raises ``ConfigError`` when the file cannot be read or parsed.
    """
    try:
        return curve_from_csv(Path(path).read_text(), space)
    except (OSError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"cannot read curve {path}: {exc}") from None


def resolve_base_curve(cfg: ExperimentConfig) -> tuple:
    """The experiment's base curve and the report ``meta`` entries it adds:
    ``base_curve_converged`` for a ``minimize_action`` curve, none otherwise."""
    spec = cfg.base_curve_spec
    kind = spec.get("type", "geodesic")
    n = config_number(spec.get("N", cfg.n_intervals), "N", int)
    if kind == "geodesic":
        return geodesic_curve(cfg.space, cfg.x0, cfg.x1, n), {}
    if kind == "minimize_action":
        curve, _, info = minimize_action(cfg.family.limit, cfg.space, cfg.x0, cfg.x1, n)
        return curve, {"base_curve_converged": info["converged"]}
    if kind == "csv":
        return load_curve(spec["path"], cfg.space), {}
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
    """Build recovery curves per index and compare against the target.

    A library error at one index, a law that fails at that ``h`` included,
    gives that row an ``error`` entry and infinite gaps; the other rows run.
    """
    gamma, base_meta = resolve_base_curve(cfg)
    target = action(gamma, cfg.family.limit, cfg.x0, cfg.x1).total

    def one(h):
        row = {"h": h, "theta_target": target}
        try:
            f_h = cfg.family.member(h)
            x0h, x1h = cfg.x0_seq(h), cfg.x1_seq(h)
            out = experiment_recovery(cfg, gamma, h)
            theta_h = action(out.curve, f_h, x0h, x1h).total
            row.update(
                tau=out.tau,
                theta_h=theta_h,
                gap=theta_h - target,
                d_inf=uniform_distance(out.curve, gamma),
                slope_x0=descending_slope(f_h, cfg.space, x0h),
                slope_x1=descending_slope(f_h, cfg.space, x1h),
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
            **base_meta,
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
    infimum exceeds the target action of the straight limit curve.  An
    ``eps`` that fails or is not positive at one ``h`` gives that row an
    ``error`` entry, ``nan`` values and no pass; the other rows run.
    """
    space = half_line()
    law = parse_law(eps_law)
    zero = zero_functional(space)
    straight = geodesic_curve(space, space.point(0.0), space.point(1.0), 256)
    target = action(straight, zero, space.point(0.0), space.point(1.0)).total

    def certificate(h):
        eps = law(h)
        if eps <= 0:
            raise DomainError(f"eps_law {eps_law!r} gives eps={eps} <= 0 at h={h}")
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
            "eps": eps,
            "x0h": seps,
            "certified_lower_bound": certified,
            "coarse_lower_bound": coarse,
            "amgm_part": amgm,
            "kinetic_part": kinetic,
            "slope_x0_closed": s_closed,
            "slope_x0_sup": s_sup,
        }

    def one(h):
        row = {"h": h, "theta_target": target}
        try:
            row.update(certificate(h))
        except MetricActionError as exc:
            row.update(dict.fromkeys(EXAMPLE1_COLUMNS[1:-2], math.nan), error=str(exc))
        return row

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
    """Ramp family: the certified crossing toll is 2 while the target is 1.

    A row's ``optimizer_converged`` (JSON only) is the ``converged`` flag of
    the search that gave ``optimizer_upper_bound``, ``None`` without the
    optimizer.
    """
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
        upper, converged = math.inf, None
        if with_optimizer:
            searches = [
                minimize_action(f_h, space, x0, x1, n_search, init=init, max_iter=60)[1:]
                for init in _example2_inits(space, inv, n_search)
            ]
            val, info = min(searches, key=lambda s: s[0].total)  # first search wins ties
            upper, converged = val.total, info["converged"]
        s0 = descending_slope(f_h, space, x0)
        return {
            "h": h,
            "amgm_lower_bound": amgm,
            "kinetic_remainder": remainder,
            "certified_lower_bound": amgm + remainder,
            "optimizer_upper_bound": upper,
            "optimizer_converged": converged,
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


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def write_json(path, obj) -> None:
    """Write ``obj`` as sorted, indented JSON with non-finite numbers as strings."""
    Path(path).write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def emit_report(report: ExperimentReport, out_dir, stem: str) -> tuple:
    """Write ``stem.csv`` and ``stem.json``; byte-stable for fixed config.

    A JSON summary row also carries the row's keys that are not CSV
    columns: an ``error``, ``optimizer_converged``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.csv"
    json_path = out / f"{stem}.json"
    cells = ([row.get(c, "") for c in report.columns] for row in report.rows)
    csv_path.write_text(format_table(report.columns, cells))
    summary = {
        "schema": 1,
        "verdict": report.verdict.value,
        "witness": report.witness,
        "meta": report.meta,
        "rows": [{**dict.fromkeys(report.columns), **row} for row in report.rows],
        "versions": {"metric_action_lab": __version__},
    }
    write_json(json_path, summary)
    return csv_path, json_path
