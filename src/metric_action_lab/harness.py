"""Convergence experiments, certified counterexamples, report persistence.

Positive experiments build recovery curves per index ``h`` and track how
their action approaches the target curve's action while the uniform
distance shrinks.  Negative experiments certify, through interval-wise
lower bounds that hold for every admissible curve, that the infimum stays
bounded away from the target action; the verdict machinery only declares a
violation when such a certificate beats the target by the configured
margin.

The harness owns the config format: ``CONFIG_KEYS`` declares the keys of
every config object, by mode, kind or type where they differ, ``DEFAULTS``
the default of every optional setting, and ``ExperimentConfig.from_dict``,
``run_gamma``, ``flow_config`` and ``action_config`` read every key they
accept; the CLI only dispatches to them.

Reports serialize to a CSV table (one row per index) plus a JSON summary.
Identical configurations produce byte-identical files.  ``load_config``
reads every JSON config, ``load_curve`` every curve file, and ``write_json``
writes every JSON file.  Every command that runs an ``h_list`` goes through
``index_rows``, which keeps a library error at one index in that index's
row; the items run in order in the calling thread, and
``METRIC_ACTION_LAB_THREADS`` is accepted and ignored.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .curves import (
    RESIDUAL_TOL,
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
    FunctionalSpec,
    SupFormula,
    descending_slope,
    inverse_square,
    linear_half_line,
    quadratic,
    ramp,
    zero_functional,
)
from .laws import (
    ConfigObject,
    as_coords,
    config_bool,
    config_count,
    config_h_list,
    config_number,
    config_point,
    parse_law,
)
from .proximal import grid_golden, resolvent
from .recovery import SLOPE_CAP, RecoveryConfig, RecoveryMode, RecoveryOutput, build_recovery
from .spaces import Point, SpaceHandle, SpaceKind, euclidean, half_line, quantile_1d, tripod
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


def index_rows(h_list: Sequence, fixed: dict, row: Callable, failed: dict) -> list:
    """The row ``{"h": h, **fixed, **row(h)}`` of each index, through
    ``parallel_map``.  A library error at one index, a law that fails at that
    ``h`` included, gives that row the ``failed`` values and the error's
    message under ``error``; the other rows still run."""

    def one(h):
        out = {"h": h, **fixed}
        try:
            out.update(row(h))
        except MetricActionError as exc:
            out.update(failed, error=str(exc))
        return out

    return parallel_map(one, h_list)


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

# The keys each config object may carry.  One experiment config serves
# ``gamma positive|liminf`` and ``recovery``.  By variant: its keys and
# ``tolerances`` by ``mode`` (only ``vanishing`` reads ``eps_law`` and
# ``slope_cap``); a certified example's keys and ``discretization`` by its
# kind; a ``base_curve``'s by its ``type``; a space's by its kind; a family's by
# its name, or in vanishing mode by its base's; a functional's params by name.
_EXPERIMENT = {"space", "family", "x0", "x1", "x0_law", "x1_law", "h_list", "mode", "base_curve",
               "tolerances", "liminf"}
CONFIG_KEYS = {
    "experiment": {"resolvent": _EXPERIMENT, "flow": _EXPERIMENT, "vanishing": _EXPERIMENT | {"eps_law"}},
    "flow": {"space", "functional", "x", "T", "n_steps"},
    "action": {"space", "functional", "curve_csv", "x0", "x1"},
    "limit": {"name", "params"},
    "functional": {"name", "params"},
    "liminf": {"tail_from", "slack", "tau_law"},
    "base_curve": {"geodesic": {"type", "N"}, "minimize_action": {"type", "N"}, "csv": {"type", "path"}},
    "tolerances": {"resolvent": {"margin", "d_inf_tol"}, "flow": {"margin", "d_inf_tol"},
                   "vanishing": {"margin", "d_inf_tol", "slope_cap"},
                   "certified example": {"margin"}},
    "discretization": {"example1": {"n_certificate"}, "example2": {"N", "n_certificate"}},
    "certified": {"example1": {"h_list", "discretization", "tolerances", "eps_law"},
                  "example2": {"h_list", "discretization", "tolerances", "with_optimizer"}},
    "space": {"euclidean": {"kind", "dim"}, "half_line": {"kind"},
              "tripod": {"kind", "edge_lengths"}, "quantile_1d": {"kind", "grid_size"}},
    "family": {"example1": {"name", "eps_law"}, "example2": {"name"},
               "catalogue": {"name", "params", "scale_law", "limit", "scale_limit"},
               "vanishing example1": {"name"}, "vanishing catalogue": {"name", "params"}},
    "params": {"zero": set(), "quadratic": {"center", "lam"}, "example1": {"eps"},
               "example2": {"h"}, "linear": {"c"}},
}

# what an unknown-key hint calls the variants of each key that has them
_VARIANT_TAGS = dict(experiment="mode", tolerances="mode", base_curve="base_curve", space="space",
                     family="family", params="functional", discretization="experiment", certified="experiment")

# the default of each grid size ``N``, certificate size, tolerance and example-1 ``eps_law``
DEFAULTS = {"N": 64, "n_certificate": 1024, "margin": 0.05, "d_inf_tol": 0.02, "slope_cap": SLOPE_CAP,
            "eps_law": "1/h"}


def config_object(value, key: str, variant: str | None = None) -> ConfigObject:
    """The config value under ``key``: a JSON object whose keys
    ``CONFIG_KEYS[key]``, or ``CONFIG_KEYS[key][variant]`` for a key with
    variants, lists.  An unknown key is a ``ConfigError`` naming it and the
    first other variant of the same kind (all words but the last alike) that
    reads it, or else the nearest known key."""
    if not isinstance(value, dict):
        raise ConfigError(f"config key {key!r} must be a JSON object, got {value!r}")
    known = CONFIG_KEYS[key] if variant is None else CONFIG_KEYS[key][variant]
    for k in value:
        if k not in known:
            import difflib  # only this error needs it; a module-level import costs every run

            near = difflib.get_close_matches(str(k), sorted(known), n=1)
            readers = variant and [v for v, keys in CONFIG_KEYS[key].items()
                                   if k in keys and v.split()[:-1] == variant.split()[:-1]]
            hint = (f"; the {readers[0]} {_VARIANT_TAGS[key]} reads it" if readers
                    else f"; did you mean {near[0]!r}?" if near else "")
            raise ConfigError(f"unknown config key {k!r}{hint}")
    return ConfigObject(value)


def config_variant(value, key: str, tag: str, default: str | None, unknown: str) -> str | None:
    """The variant of ``CONFIG_KEYS[key]`` that the config object ``value`` names
    under ``tag`` (``default`` when absent, required when ``None``); naming none
    raises ``ConfigError(unknown.format(name))``.  A non-object gives ``default``."""
    if not isinstance(value, dict):
        return default
    name = ConfigObject(value)[tag] if default is None else value.get(tag, default)
    if not (isinstance(name, str) and name in CONFIG_KEYS[key]):
        raise ConfigError(unknown.format(name))
    return name


def config_setting(obj: dict, key: str, read: Callable = config_number):
    """The setting ``key`` of the config object ``obj``, ``DEFAULTS[key]`` when absent."""
    return read(obj.get(key, DEFAULTS[key]), key)


def space_from_config(spec: dict) -> SpaceHandle:
    kind = config_variant(spec, "space", "kind", None, "unknown space kind {!r}")
    spec = config_object(spec, "space", kind)
    if kind == "euclidean":
        return euclidean(config_number(spec.get("dim", 1), "dim", int))
    if kind == "half_line":
        return half_line()
    if kind == "tripod":
        lengths = as_coords(spec.get("edge_lengths", [1.0, 1.0, 1.0]))
        return tripod([config_number(l, "edge_lengths") for l in lengths])
    return quantile_1d(config_number(spec["grid_size"], "grid_size", int))


def base_curve_from_config(spec) -> dict:
    """The ``base_curve`` object ``spec`` with its defaults: ``{type, N}``
    (``N`` defaults to ``DEFAULTS["N"]``), or ``{type, path}`` for ``csv``."""
    kind = config_variant(spec, "base_curve", "type", "geodesic", "unknown base curve type {!r}")
    spec = config_object(spec, "base_curve", kind)
    if kind == "csv":
        return {"type": kind, "path": spec["path"]}
    return {"type": kind, "N": config_setting(spec, "N", config_count)}


def build_functional(space: SpaceHandle, name: str, params: dict | None = None) -> FunctionalSpec:
    """Catalogue lookup used by config files.

    Names: ``zero``, ``quadratic`` (params ``center``, ``lam``), ``example1``
    (param ``eps``), ``example2`` (param ``h``), ``linear`` (param ``c``).
    """
    if not (isinstance(name, str) and name in CONFIG_KEYS["params"]):
        raise ConfigError(f"unknown catalogue functional {name!r}")
    params = config_object({} if params is None else params, "params", name)
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
    if space.kind is not SpaceKind.HALF_LINE:
        raise ConfigError(f"{name} lives on the half-line")
    make, key = {"example1": (inverse_square, "eps"), "example2": (ramp, "h"),
                 "linear": (linear_half_line, "c")}[name]
    return make(config_number(params.get(key, 1.0), key))


def functional_from_config(space: SpaceHandle, spec: dict, key: str) -> FunctionalSpec:
    """The catalogue functional of the ``{name, params}`` object under ``key``."""
    spec = config_object(spec, key)
    return build_functional(space, spec["name"], spec.get("params"))


def family_from_config(space: SpaceHandle, fam: dict, eps_law: Optional[Callable] = None) -> FunctionalFamily:
    """The family of the ``family`` object ``fam``.  With a vanishing scale
    law ``eps_law``, the family ``eps_law(h) * base`` with the zero limit,
    ``base`` the functional ``fam`` names; ``example2`` has no such base."""
    name = ConfigObject(fam)["name"] if isinstance(fam, dict) else None
    variant = name if name in ("example1", "example2") else "catalogue"
    if eps_law is not None:
        if variant == "example2":
            raise ConfigError("vanishing mode needs a scalable base functional and eps_law")
        fam = config_object(fam, "family", f"vanishing {variant}")
        base = build_functional(space, name, fam.get("params"))
        return FunctionalFamily(lambda h: base.scaled(eps_law(h)), zero_functional(space), base)
    fam = config_object(fam, "family", variant)
    if name == "example2":
        return FunctionalFamily(
            member=lambda h: ramp(float(h)),
            limit=zero_functional(space),
        )
    if name == "example1":
        eps = parse_law(fam.get("eps_law", DEFAULTS["eps_law"]))
        return FunctionalFamily(
            member=lambda h: inverse_square(eps(h)),
            limit=zero_functional(space),
            base=inverse_square(1.0),
        )
    base = build_functional(space, name, fam.get("params"))
    if fam.get("limit") is not None and fam.get("scale_limit") is not None:
        raise ConfigError("a family takes 'limit' or 'scale_limit', not both")
    if fam.get("scale_law") is not None:
        law = parse_law(fam["scale_law"])
        member = lambda h: base.scaled(law(h))
    else:
        member = lambda h: base
    if fam.get("limit") is not None:
        limit = functional_from_config(space, fam["limit"], "limit")
    elif fam.get("scale_limit") is not None:
        limit = base.scaled(config_number(fam["scale_limit"], "scale_limit"))
    else:
        limit = base
    return FunctionalFamily(member=member, limit=limit, base=base)


def endpoint_law(space: SpaceHandle, law_spec, key: str) -> Callable[[int], Point]:
    """``h -> point`` from the laws under ``key``, one per coordinate of ``space``."""
    laws = as_coords(law_spec)
    if len(laws) != space.dim:
        raise ConfigError(
            f"config key {key!r} must give one law per coordinate ({space.dim}), got {len(laws)}")
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
    mode: RecoveryMode
    base_curve_spec: dict           # as ``base_curve_from_config`` checked it
    eps_law: Optional[Callable[[int], float]]   # vanishing mode only
    margin: float
    d_inf_tol: float
    slope_cap: float
    # the ``liminf`` section, read by ``run_liminf``
    tail_from: int
    slack: float
    tau_law: Callable[[int], float]

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        mode = config_variant(obj, "experiment", "mode", "resolvent",
                              "config key 'mode' must be resolvent, flow or vanishing, got {!r}")
        obj = config_object(obj, "experiment", mode)
        space = space_from_config(obj["space"])
        eps_law = parse_law(obj["eps_law"]) if mode == "vanishing" else None
        family = family_from_config(space, obj["family"], eps_law)
        x0 = config_point(space, obj["x0"], "x0")
        x1 = config_point(space, obj["x1"], "x1")
        tol = config_object(obj.get("tolerances", {}), "tolerances", mode)
        h_list = config_h_list(obj["h_list"])
        probe = config_object(obj.get("liminf", {}), "liminf")
        tail_from = config_number(probe.get("tail_from", int(max(h_list, default=0))), "tail_from", int)
        slack = config_number(probe.get("slack", 0.01), "slack")
        tau_law = parse_law(probe.get("tau_law", "1/(h*h)"))
        return cls(
            space=space,
            family=family,
            x0=x0,
            x1=x1,
            x0_seq=endpoint_law(space, obj.get("x0_law", obj["x0"]), "x0_law"),
            x1_seq=endpoint_law(space, obj.get("x1_law", obj["x1"]), "x1_law"),
            h_list=h_list,
            mode=RecoveryMode(mode),
            base_curve_spec=base_curve_from_config(obj.get("base_curve", {})),
            eps_law=eps_law,
            margin=config_setting(tol, "margin"),
            d_inf_tol=config_setting(tol, "d_inf_tol"),
            slope_cap=config_setting(tol, "slope_cap"),
            tail_from=tail_from,
            slack=slack,
            tau_law=tau_law,
        )


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


def flow_config(obj: dict) -> tuple:
    """``(space, f, x, T, n_steps)`` of a ``flow`` config."""
    obj = config_object(obj, "flow")
    sp = space_from_config(obj["space"])
    f = functional_from_config(sp, obj["functional"], "functional")
    x = config_point(sp, obj["x"], "x")
    T = config_number(obj.get("T", 1.0), "T")
    return sp, f, x, T, config_number(obj.get("n_steps", 1000), "n_steps", int)


def action_config(obj: dict) -> tuple:
    """``(f, curve, x0, x1)`` of an ``action`` config."""
    obj = config_object(obj, "action")
    sp = space_from_config(obj["space"])
    f = functional_from_config(sp, obj["functional"], "functional")
    curve = load_curve(obj["curve_csv"], sp)
    return f, curve, config_point(sp, obj["x0"], "x0"), config_point(sp, obj["x1"], "x1")


def resolve_base_curve(cfg: ExperimentConfig) -> tuple:
    """The experiment's base curve and the report ``meta`` entries it adds:
    ``base_curve_converged`` for a ``minimize_action`` curve, none otherwise."""
    spec = cfg.base_curve_spec
    if spec["type"] == "csv":
        return load_curve(spec["path"], cfg.space), {}
    if spec["type"] == "geodesic":
        return geodesic_curve(cfg.space, cfg.x0, cfg.x1, spec["N"]), {}
    curve, _, info = minimize_action(cfg.family.limit, cfg.space, cfg.x0, cfg.x1, spec["N"])
    return curve, {"base_curve_converged": info["converged"]}


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

POSITIVE_COLUMNS = ["h", "tau", "theta_h", "theta_target", "gap", "d_inf", "slope_x0",
                    "slope_x1", "endpoint_gap", "pass"]


def run_positive(cfg: ExperimentConfig) -> ExperimentReport:
    """Build recovery curves per index and compare against the target.
    A failed index (``index_rows``) gets infinite gaps."""
    gamma, base_meta = resolve_base_curve(cfg)
    target = action(gamma, cfg.family.limit, cfg.x0, cfg.x1).total

    def recovery_row(h):
        out = experiment_recovery(cfg, gamma, h)
        f_h, x0h, x1h = out.functional, cfg.x0_seq(h), cfg.x1_seq(h)
        theta_h = action(out.curve, f_h, x0h, x1h).total
        return dict(
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

    failed = dict(tau=math.nan, theta_h=math.inf, gap=math.inf, d_inf=math.inf,
                  slope_x0=math.nan, slope_x1=math.nan, endpoint_gap=math.inf)
    rows = index_rows(cfg.h_list, {"theta_target": target}, recovery_row, failed)
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


def _certified_report(
    columns: list, h_list: Sequence, certificate: Callable, bound: str, margin: float, meta: dict
) -> ExperimentReport:
    """Rows ``certificate(h)`` per index against the straight-curve target.

    The target is the action of the straight curve from 0 to 1 on the
    half-line under the zero functional.  A failed index (``index_rows``)
    gets ``nan`` values and no pass.  A row passes
    when its ``bound`` column beats the target by ``margin``.  The first
    passing row is the witness; the verdict is a violation only when every
    row passes, so an empty grid stays inconclusive.
    """
    space = half_line()
    x0, x1 = space.point(0.0), space.point(1.0)
    target = action(geodesic_curve(space, x0, x1, 256), zero_functional(space), x0, x1).total

    rows = index_rows(h_list, {"theta_target": target}, certificate, dict.fromkeys(columns[1:-2], math.nan))
    witness = None
    for row in rows:
        row["pass"] = bool(row[bound] > target + margin)
        if row["pass"] and witness is None:
            witness = {"h": row["h"], "lower_bound": row[bound], "target": target}
    verdict = Verdict.VIOLATED if witness and all(r["pass"] for r in rows) else Verdict.INCONCLUSIVE
    meta = {**meta, "margin": margin, "repair": "geodesic"}
    return ExperimentReport(columns, rows, verdict, witness, meta)


EXAMPLE1_COLUMNS = ["h", "eps", "x0h", "certified_lower_bound", "coarse_lower_bound",
                    "amgm_part", "kinetic_part", "slope_x0_closed", "slope_x0_sup",
                    "theta_target", "pass"]


def run_example1(h_list: Sequence[int], n_certificate: int = DEFAULTS["n_certificate"],
                 eps_law=DEFAULTS["eps_law"], margin: float = DEFAULTS["margin"]) -> ExperimentReport:
    """Scaled inverse-square family: certified obstruction to convergence.

    The moving start point sits where the scaled slope blows up; every
    admissible curve pays a certified toll crossing away from it, so the
    infimum exceeds the target action of the straight limit curve.  An
    ``eps`` that fails or is not positive at one ``h`` gives that row an
    ``error`` entry, ``nan`` values and no pass; the other rows run.
    """
    n_certificate = config_count(n_certificate, "n_certificate")
    space = half_line()
    law = parse_law(eps_law)

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
        s_sup = descending_slope(f_h, space, x0h, SupFormula(radius=max(1.0, seps)))
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

    meta = {"experiment": "example1", "eps_law": str(eps_law), "n_certificate": n_certificate}
    return _certified_report(
        EXAMPLE1_COLUMNS, h_list, certificate, "certified_lower_bound", margin, meta
    )


EXAMPLE2_COLUMNS = ["h", "amgm_lower_bound", "kinetic_remainder", "certified_lower_bound",
                    "optimizer_upper_bound", "slope_x0", "theta_target", "pass"]


def run_example2(h_list: Sequence[int], n_certificate: int = DEFAULTS["n_certificate"],
                 n_search: int = DEFAULTS["N"], margin: float = DEFAULTS["margin"],
                 with_optimizer: bool = True) -> ExperimentReport:
    """Ramp family: the certified crossing toll is 2 while the target is 1.

    A row's ``optimizer_converged`` (JSON only) is the ``converged`` flag of
    the search that gave ``optimizer_upper_bound``, ``None`` without the
    optimizer.
    """
    n_certificate = config_count(n_certificate, "n_certificate")
    space = half_line()
    x0, x1 = space.point(0.0), space.point(1.0)

    def certificate(h):
        f_h = ramp(float(h))
        inv = 1.0 / h

        def sqrt_g(x: float) -> float:
            return float(f_h.closed_form_slope(space.point(x)))

        xs = np.linspace(0.0, inv, n_certificate + 1)
        amgm = crossing_lower_bound(xs, sqrt_g)
        remainder = (1.0 - inv) ** 2
        upper, converged = math.inf, None
        if with_optimizer:
            searches = [
                _sweep_nodes(f_h, space, x0, x1, init)[1:]
                for init in _example2_inits(space, inv, n_search)
            ]
            val, info = min(searches, key=lambda s: s[0].total)  # first search wins ties
            upper, converged = val.total, info["converged"]
        s0 = descending_slope(f_h, space, x0)
        return {
            "amgm_lower_bound": amgm,
            "kinetic_remainder": remainder,
            "certified_lower_bound": amgm + remainder,
            "optimizer_upper_bound": upper,
            "optimizer_converged": converged,
            "slope_x0": s0,
        }

    meta = {"experiment": "example2", "n_certificate": n_certificate}
    return _certified_report(EXAMPLE2_COLUMNS, h_list, certificate, "amgm_lower_bound", margin, meta)


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


# The ramp search of ``run_example2``, and nothing else, runs node-wise
# sweeps, not ``minimize_action``: on the ramp's step central differences
# see a zero gradient, so Newton would take the geodesic for stationary (on
# ramp(16) at N=64 it stops at 15.0, where the sweep finds 3.14).

GAIN_TOL = 1e-10        # a sweep that gains less than this ends a node-wise search
MAX_SWEEPS = 60         # sweeps of a node-wise search


def _update_node_half_line(slope, a: float, v: float, b: float, dt0, dt1, w, span: float):
    """Grid-then-golden minimum of the local objective of a half-line node at
    coordinate ``v`` between neighbours at ``a`` and ``b``: the kinetic terms
    of its two intervals plus its trapezoid share of ``slope^2``, as a
    function of its coordinate, on a bracket around it and its neighbours.
    Returns the new coordinate, its value and the value at ``v``."""

    kind = SpaceKind.HALF_LINE          # an Enum member lookup per probe costs ~0.1 us

    def local(s: float) -> float:
        sp = slope(Point(kind, (s,)))
        if not math.isfinite(sp):
            return math.inf
        return (s - a) ** 2 / dt0 + (s - b) ** 2 / dt1 + w * (sp * sp)

    lo = max(min(a, b, v) - span, 0.0)
    hi = max(a, b, v) + span
    s, value, _ = grid_golden(local, lo, hi)
    return s, value, local(v)


def _sweep_nodes(f, space, x0, x1, cur):
    """Node-wise sweeps on the half-line from the curve ``cur``, at most
    ``MAX_SWEEPS`` of them: each interior node of ``cur`` in turn moves, in
    place, to the minimum of its local objective.  The search stops when no
    node moves by ``RESIDUAL_TOL`` (converged) or, after the fourth sweep,
    when a sweep gains less than ``GAIN_TOL`` (not converged).  Returns
    ``(curve, ActionValue, info)`` as ``minimize_action`` does."""
    slope = functools.partial(descending_slope, f, space)
    kind = space.kind
    n_intervals = len(cur.points) - 1
    span = max(0.5 * max(space_distance(space, x0, x1), 1.0) / n_intervals, 1e-4)
    prev_total = action(cur, f, x0, x1).total
    # Python floats: numpy scalars would make every probe's arithmetic slower
    xs = [float(p.coords[0]) for p in cur.points]
    times = cur.times.tolist()
    for sweeps in range(1, MAX_SWEEPS + 1):
        moved = 0.0
        for i in range(1, len(xs) - 1):
            dt0 = times[i] - times[i - 1]
            dt1 = times[i + 1] - times[i]
            w = 0.5 * (dt0 + dt1)
            s, newv, oldv = _update_node_half_line(slope, xs[i - 1], xs[i], xs[i + 1], dt0, dt1, w, 4 * span)
            if newv <= oldv:
                moved = max(moved, abs(s - xs[i]))
                xs[i] = s
                cur.points[i] = Point(kind, (s,))
        total = action(cur, f, x0, x1).total
        if moved < RESIDUAL_TOL or (sweeps > 4 and prev_total - total < GAIN_TOL):
            break
        prev_total = total
    final = action(cur, f, x0, x1)
    info = {"sweeps": sweeps, "converged": moved < RESIDUAL_TOL, "residual": moved}
    return cur, final, info


# --------------------------------------------------------------------------
# liminf probe
# --------------------------------------------------------------------------

LIMINF_COLUMNS = ["h", "theta_h", "theta_limit", "difference", "d_inf"]


def liminf_probe(
    family: FunctionalFamily,
    h_list: Sequence,
    curve_of: Callable,
    gamma: SampledCurve,
    tail_from: int = 0,
    slack: float = 1e-6,
) -> ExperimentReport:
    """Empirical check that member actions do not undercut the limit action.

    For each index of ``h_list``, in increasing order and once,
    ``curve_of(h, f_h)`` with ``f_h = family.member(h)`` is a curve
    converging uniformly to ``gamma``; each member action takes the curve's
    own endpoints.  A failed index (``index_rows``) gets ``nan`` values.
    The verdict is consistent when every difference from ``tail_from`` on
    is at least ``-slack``; a ``nan`` there leaves it inconclusive.
    """
    theta_limit = action(gamma, family.limit, gamma.start, gamma.end).total

    def row(h):
        f_h = family.member(h)
        c = curve_of(h, f_h)
        th = action(c, f_h, c.start, c.end).total
        return {"theta_h": th, "difference": th - theta_limit, "d_inf": uniform_distance(c, gamma)}

    rows = index_rows(sorted(set(h_list)), {"theta_limit": theta_limit}, row,
                      dict.fromkeys(("theta_h", "difference", "d_inf"), math.nan))
    tail = [r["difference"] for r in rows if r["h"] >= tail_from]
    ok = bool(tail) and all(d >= -slack for d in tail)
    return ExperimentReport(
        columns=LIMINF_COLUMNS,
        rows=rows,
        verdict=Verdict.CONSISTENT if ok else Verdict.INCONCLUSIVE,
        meta={"experiment": "liminf", "tail_from": tail_from, "slack": slack},
    )


def run_liminf(cfg: ExperimentConfig) -> ExperimentReport:
    """``liminf_probe`` on the member resolvents of the base curve, with
    the config's ``liminf`` settings: the resolvent steps ``tau_law``, the
    tail start ``tail_from`` and the ``slack``."""
    gamma, base_meta = resolve_base_curve(cfg)

    def resolvent_image(h, f_h):
        tau = cfg.tau_law(h)
        return gamma.mapped(lambda p: resolvent(f_h, cfg.space, tau, p).point)

    report = liminf_probe(cfg.family, cfg.h_list, resolvent_image, gamma, tail_from=cfg.tail_from, slack=cfg.slack)
    report.meta.update(base_meta)
    return report


def run_gamma(kind: str, obj: dict) -> ExperimentReport:
    """The ``gamma <kind>`` experiment of the experiment config ``obj``."""
    if kind in ("positive", "liminf"):
        cfg = ExperimentConfig.from_dict(obj)
        return run_positive(cfg) if kind == "positive" else run_liminf(cfg)
    args = certified_args(kind, obj)
    return run_example1(**args) if kind == "example1" else run_example2(**args)


def certified_args(kind: str, obj: dict) -> dict:
    """The arguments of ``run_example1`` or ``run_example2`` (``kind``) in
    the config ``obj``, whose keys ``CONFIG_KEYS["certified"][kind]`` lists."""
    obj = config_object(obj, "certified", kind)
    disc = config_object(obj.get("discretization", {}), "discretization", kind)
    tol = config_object(obj.get("tolerances", {}), "tolerances", "certified example")
    args = {"h_list": config_h_list(obj["h_list"]), "margin": config_setting(tol, "margin"),
            "n_certificate": config_setting(disc, "n_certificate", config_count)}
    if kind == "example1":
        return dict(args, eps_law=obj.get("eps_law", DEFAULTS["eps_law"]))
    with_optimizer = config_bool(obj.get("with_optimizer", True), "with_optimizer")
    return dict(args, n_search=config_setting(disc, "N", config_count), with_optimizer=with_optimizer)


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
