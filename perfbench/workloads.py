"""Seeded workloads, their oracles and the per-row checks.

A workload is a fixed list of experiments driven through the public
harness API (``run_positive``, ``run_example2``, ``emit_report``).  The
seed only picks numbers inside the ranges recorded in ``RANGES``; the
program receives the generated configs and nothing else.

Every output is checked against an oracle that does not share the code
under test:

* ``flat_quadratic_action``: the closed-form continuous action of
  ``(lam/2) d(x, c)^2`` on a flat space, for ``theta_target``.
* the closed-form twin: the same experiment with the catalogue's closed
  forms kept, for the experiments run through ``strip_closed_forms``.
* the kinetic limit ``(x1 - x0)^2`` of the vanishing-potential family.
* the ramp certificate in closed form, ``2 (n - 1) / n + (1 - 1/h)^2``.

A row that disagrees with its oracle makes the run incorrect.  Rows that
break an invariant the acceptance criteria pin (verdicts, monotone tails,
``lower <= upper``) count as failed operations, as do rows the program
raised for.
"""

from __future__ import annotations

import importlib
import math
import os
import random
from dataclasses import dataclass, field, replace

from metric_action_lab import ExperimentConfig, Verdict

harness = importlib.import_module("metric_action_lab.harness")
functionals = importlib.import_module("metric_action_lab.functionals")

# --------------------------------------------------------------------------
# workload definitions
# --------------------------------------------------------------------------

WHY = {
    "minimize_certify": (
        "minimize_action sweeps: smooth quadratics (R^1 N=64, quantile_1d(4) N=16) and "
        "the nonsmooth example-2 ramp with one thread per core; counts its lower > upper rows"
    ),
    "numeric_recovery": (
        "geodesic base curves, so recovery, numeric resolvents, flow_times "
        "and sup-formula slopes do the work instead of minimize_action"
    ),
}

# The ranges each seed draws from.  ``h_k`` draws are offsets added to the
# nominal index list.  The positive experiments keep criterion 9's
# tolerances (gap <= 0.05, d_inf <= 0.02 at the largest h), which hold for
# metric lengths |x1 - x0| up to about 1.2 at h = 64: d_inf grows from
# 0.0162 at length 1 to 0.0216 at length 1.3.  Endpoints therefore stay
# within 0.05 of criterion 9's relative geometry.
RANGES = {
    "minimize_certify": {
        "r1": {
            "space": "euclidean(1)",
            "lam": 1.0,
            "center": [-0.5, 0.5],
            "x0 - center": [-0.05, 0.05],
            "x1 - center": [0.95, 1.05],
            "x0_law": "x0 + 1/h",
            "h": "{8,9} {16..18} {32..36} {64..72}",
            "N": 64,
        },
        "quantile": {
            "space": "quantile_1d(4)",
            "lam": 1.0,
            "center": [-0.25, 0.25],
            "x0 - center": "sorted, each in [-0.05, 0.05]",
            "x1 - center": "1 + sorted, each in [0, 0.05]",
            "x0_law": "x0_i + 1/h",
            "h": "{8,9} {16..18} {32..36} {64..72}",
            "N": 16,
        },
        "ramp": {
            "h": "{4,5} {8,9} {16,17} {32,33}",
            "N": 32,
            "n_certificate": 1024,
            "threads": "nproc",
        },
    },
    "numeric_recovery": {
        "vanishing": {
            "space": "half_line",
            "family": "example1, eps = 4^-h",
            "x0": [1.0, 1.2],
            # theta_h(5) exceeds the kinetic limit by about 0.05 |x1 - x0|^2,
            # and the test's pinned tolerance is 0.05 at |x1 - x0| = 1
            "x1 - x0": [0.85, 1.0],
            "h": "1..5",
            "N": 64,
        },
        "tripod_flow": {
            "space": "tripod(1, 1, 1)",
            "family": "stripped quadratic, lam 1, centre on edge 0 at [0.1, 0.3]",
            "x0": "edge 0 at [0.4, 0.6], law offset + 1/h",
            "x1": "edge 1 at [0.6, 0.9]",
            "h": "{8,9} {16..18} {32..36} {64..72}",
            "N": 32,
        },
        "quantile_flow": {
            "space": "quantile_1d(4)",
            "family": "stripped quadratic, lam 1, constant centre in [-0.25, 0.25]",
            "x0 - center": "sorted, each in [-0.05, 0.05], law x0_i + 1/h",
            "x1 - center": "1 + sorted, each in [0, 0.05]",
            "h": "{8,9} {16..18} {32..36} {64..72}",
            "N": 16,
        },
    },
}

MARGIN = 0.05
# Stripped runs take slopes from the sampled sup formula, which usually
# matches the closed form to 1e-7 but missed it by 1.8e-6 in both theta_h
# and theta_target on numeric_recovery seed 409 (quantile_flow).
TWIN_RTOL = 1e-5
CERT_RTOL = 1e-9
MONO_SLACK = 1e-9
VANISHING_TOL = 0.05
SEARCH_FLOOR = 1.95


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(lo + (hi - lo) * rng.random(), 4)


def _h_list(rng: random.Random, nominal, spread) -> list:
    return [h + rng.randrange(0, s + 1) for h, s in zip(nominal, spread)]


_POS_H = ((8, 16, 32, 64), (1, 2, 4, 8))


def _quantile_endpoints(rng: random.Random, c: float):
    a0 = sorted(_u(rng, -0.05, 0.05) for _ in range(4))
    a1 = sorted(_u(rng, 0.0, 0.05) for _ in range(4))
    x0 = [round(c + a, 4) for a in a0]
    x1 = [round(c + 1.0 + a, 4) for a in a1]
    return x0, x1


def _positive(space, family, x0, x1, x0_law, x1_law, h_list, mode, base_curve, tol):
    return {
        "space": space,
        "family": family,
        "x0": x0,
        "x1": x1,
        "x0_law": x0_law,
        "x1_law": x1_law,
        "h_list": h_list,
        "mode": mode,
        "base_curve": base_curve,
        "tolerances": tol,
    }


def _flat_oracle(lam, center, x0, x1, scale):
    u0 = [(a - center) * scale for a in x0]
    u1 = [(b - center) * scale for b in x1]
    return {"type": "flat_quadratic", "lam": lam, "u0": u0, "u1": u1}


def generate(workload: str, seed: int) -> list:
    """Plain-data experiment specs for ``workload`` drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "minimize_certify":
        c = _u(rng, -0.5, 0.5)
        x0 = round(c + _u(rng, -0.05, 0.05), 4)
        x1 = round(c + _u(rng, 0.95, 1.05), 4)
        r1 = _positive(
            {"kind": "euclidean", "dim": 1},
            {"name": "quadratic", "params": {"center": c, "lam": 1.0}},
            x0, x1, f"{x0} + 1/h", f"{x1}",
            _h_list(rng, *_POS_H), "resolvent",
            {"type": "minimize_action", "N": 64},
            {"margin": MARGIN, "d_inf_tol": 0.02},
        )
        cq = _u(rng, -0.25, 0.25)
        q0, q1 = _quantile_endpoints(rng, cq)
        quant = _positive(
            {"kind": "quantile_1d", "grid_size": 4},
            {"name": "quadratic", "params": {"center": cq, "lam": 1.0}},
            q0, q1, [f"{v} + 1/h" for v in q0], [f"{v}" for v in q1],
            _h_list(rng, *_POS_H), "resolvent",
            {"type": "minimize_action", "N": 16},
            {"margin": MARGIN, "d_inf_tol": 0.02},
        )
        ramp_h = _h_list(rng, (4, 8, 16, 32), (1, 1, 1, 1))
        return [
            {"name": "r1", "kind": "positive", "config": r1, "strip": False,
             "oracle": dict(_flat_oracle(1.0, c, [x0], [x1], 1.0), N=64)},
            {"name": "quantile", "kind": "positive", "config": quant, "strip": False,
             "oracle": dict(_flat_oracle(1.0, cq, q0, q1, 0.5), N=16)},
            # the only experiment whose parallel_map runs more than one thread
            {"name": "ramp", "kind": "example2", "threads": "nproc",
             "args": {"h_list": ramp_h, "n_certificate": 1024, "n_search": 32,
                      "margin": MARGIN, "with_optimizer": True},
             "oracle": {"type": "ramp_certificate"}},
        ]
    if workload == "numeric_recovery":
        v0 = _u(rng, 1.0, 1.2)
        v1 = round(v0 + _u(rng, 0.85, 1.0), 4)
        vanishing = _positive(
            {"kind": "half_line"}, {"name": "example1"},
            v0, v1, f"{v0}", f"{v1}", [1, 2, 3, 4, 5], "vanishing",
            {"type": "geodesic", "N": 64},
            {"margin": MARGIN, "d_inf_tol": 0.05},
        )
        vanishing["eps_law"] = "pow(4, -h)"
        tc = _u(rng, 0.1, 0.3)
        t0 = _u(rng, 0.4, 0.6)
        t1 = _u(rng, 0.6, 0.9)
        tri = _positive(
            {"kind": "tripod"},
            {"name": "quadratic", "params": {"center": [0, tc], "lam": 1.0}},
            [0, t0], [1, t1], ["0", f"{t0} + 1/h"], ["1", f"{t1}"],
            _h_list(rng, *_POS_H), "flow",
            {"type": "geodesic", "N": 32},
            {"margin": 2 * MARGIN, "d_inf_tol": 0.05},
        )
        cq = _u(rng, -0.25, 0.25)
        q0, q1 = _quantile_endpoints(rng, cq)
        quant = _positive(
            {"kind": "quantile_1d", "grid_size": 4},
            {"name": "quadratic", "params": {"center": cq, "lam": 1.0}},
            q0, q1, [f"{v} + 1/h" for v in q0], [f"{v}" for v in q1],
            _h_list(rng, *_POS_H), "flow",
            {"type": "geodesic", "N": 16},
            {"margin": 2 * MARGIN, "d_inf_tol": 0.05},
        )
        return [
            {"name": "vanishing", "kind": "positive", "config": vanishing, "strip": False,
             "oracle": {"type": "kinetic_limit", "value": (v1 - v0) ** 2}},
            {"name": "tripod_flow", "kind": "positive", "config": tri, "strip": True,
             "oracle": {"type": "closed_form_twin"}},
            {"name": "quantile_flow", "kind": "positive", "config": quant, "strip": True,
             "oracle": {"type": "closed_form_twin"}},
        ]
    raise KeyError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# building what the program receives
# --------------------------------------------------------------------------


def strip_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """The same experiment with every family member and the limit stripped."""
    strip = functionals.strip_closed_forms
    fam = cfg.family
    member = fam.member
    return replace(
        cfg,
        family=replace(
            fam,
            member=lambda h: strip(member(h)),
            limit=strip(fam.limit),
            base=None if fam.base is None else strip(fam.base),
        ),
    )


@dataclass
class Experiment:
    name: str
    spec: dict
    cfg: ExperimentConfig | None = None
    twin_cfg: ExperimentConfig | None = None
    h_list: list = field(default_factory=list)

    def run(self):
        """One run through the public API; module attributes resolve at call
        time so an installed tracer sees the call."""
        os.environ["METRIC_ACTION_LAB_THREADS"] = self.threads
        if self.cfg is None:
            return harness.run_example2(**self.spec["args"])
        return harness.run_positive(self.cfg)

    @property
    def threads(self) -> str:
        """``METRIC_ACTION_LAB_THREADS`` for this experiment."""
        if self.spec.get("threads") == "nproc":
            return str(len(os.sched_getaffinity(0)))
        return "1"

    def run_twin(self):
        os.environ["METRIC_ACTION_LAB_THREADS"] = self.threads
        return harness.run_positive(self.twin_cfg)


def build(specs: list) -> list:
    """Turn generated specs into configured experiments."""
    out = []
    for spec in specs:
        if spec["kind"] == "example2":
            out.append(Experiment(spec["name"], spec, h_list=list(spec["args"]["h_list"])))
            continue
        cfg = ExperimentConfig.from_dict(spec["config"])
        exp = Experiment(spec["name"], spec, cfg=cfg, h_list=list(cfg.h_list))
        if spec["strip"]:
            exp.twin_cfg = cfg
            exp.cfg = strip_config(cfg)
        out.append(exp)
    return out


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------


def flat_quadratic_action(lam: float, u0, u1) -> float:
    """Continuous minimal action of ``(lam/2)|u|^2`` between ``u0`` and ``u1``.

    The Euler-Lagrange equation is ``u'' = lam^2 u``, whose solution joins
    the endpoints with hyperbolic sines; the minimal value is
    ``lam [(|u0|^2 + |u1|^2) cosh lam - 2 u0.u1] / sinh lam``.  Coordinates
    are already scaled to the space's metric.
    """
    n0 = sum(a * a for a in u0)
    n1 = sum(b * b for b in u1)
    dot = sum(a * b for a, b in zip(u0, u1))
    return lam * ((n0 + n1) * math.cosh(lam) - 2.0 * dot) / math.sinh(lam)


def ramp_certificate(h: float, n_certificate: int) -> tuple:
    """Closed forms of the example-2 AM-GM toll and kinetic remainder.

    The crossing windows tile ``[0, 1/h]``; each charges ``2 h`` times its
    width except the last, whose right edge has slope zero.
    """
    amgm = 2.0 * (n_certificate - 1) / n_certificate
    remainder = (1.0 - 1.0 / h) ** 2
    return amgm, remainder


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def oracle_values(exp: Experiment) -> dict:
    """Oracle values that need no program call; computed before timing."""
    o = exp.spec["oracle"]
    if o["type"] == "flat_quadratic":
        return {"theta": flat_quadratic_action(o["lam"], o["u0"], o["u1"]),
                "rtol": 1.0 / o["N"] ** 2}
    if o["type"] == "kinetic_limit":
        return {"theta": o["value"]}
    if o["type"] == "ramp_certificate":
        n = exp.spec["args"]["n_certificate"]
        return {"rows": {h: ramp_certificate(h, n) for h in exp.h_list}}
    return {}


# --------------------------------------------------------------------------
# per-row checks
# --------------------------------------------------------------------------


@dataclass
class Checked:
    """Outcome of checking one experiment's report.

    ``row_failures[i]`` lists the failed checks of row ``i``; ``mismatches``
    lists oracle disagreements, which make the run incorrect.
    """

    row_failures: list
    mismatches: list
    oracle_err: float | None = None


def _finite(row, keys) -> bool:
    return all(isinstance(row.get(k), (int, float)) and math.isfinite(row[k]) for k in keys)


def _check_positive_common(rep, fails):
    rows = rep.rows
    for i, row in enumerate(rows):
        if "error" in row:
            fails[i].append(f"raised: {row['error']}")
        elif not _finite(row, ("theta_h", "gap", "d_inf")):
            fails[i].append("non-finite theta_h, gap or d_inf")
    for i in range(1, len(rows)):
        a, b = rows[i - 1], rows[i]
        if not (b["gap"] <= a["gap"] + MONO_SLACK and b["d_inf"] <= a["d_inf"] + MONO_SLACK):
            fails[i].append("gap or d_inf not monotone in h")
    if rows:
        if not rows[-1]["pass"]:
            fails[-1].append("largest h misses gap <= margin or d_inf <= d_inf_tol")
        if rep.verdict is not Verdict.CONSISTENT:
            fails[-1].append(f"verdict {rep.verdict.value}")


def check(exp: Experiment, rep, oracle: dict, twin=None) -> Checked:
    """Apply the oracle and invariant checks of ``exp`` to its report."""
    kind = exp.spec["oracle"]["type"]
    rows = rep.rows
    fails = [[] for _ in rows]
    mismatches = []
    err = None
    if len(rows) != len(exp.h_list) or [r["h"] for r in rows] != exp.h_list:
        mismatches.append("report rows do not match the requested h list")
        return Checked([["missing"] for _ in exp.h_list], mismatches)

    if kind == "ramp_certificate":
        target = 1.0  # straight unit segment under the zero functional
        for i, row in enumerate(rows):
            amgm, remainder = oracle["rows"][row["h"]]
            dev = max(
                _rel(row["amgm_lower_bound"], amgm),
                _rel(row["kinetic_remainder"], remainder),
                _rel(row["certified_lower_bound"], amgm + remainder),
                _rel(row["theta_target"], target),
            )
            if dev > CERT_RTOL:
                mismatches.append(f"h={row['h']}: certificate deviates {dev:.3e} from closed form")
                fails[i].append("certificate differs from closed form")
            if row["amgm_lower_bound"] < 2.0 - exp.spec["args"]["margin"]:
                fails[i].append("amgm_lower_bound below 2 - margin")
            if not row["optimizer_upper_bound"] >= SEARCH_FLOOR:
                fails[i].append(f"optimizer beat the search floor {SEARCH_FLOOR}")
            if not row["certified_lower_bound"] <= row["optimizer_upper_bound"]:
                fails[i].append(
                    f"certified_lower_bound {row['certified_lower_bound']:.4f} > "
                    f"optimizer_upper_bound {row['optimizer_upper_bound']:.4f}"
                )
        if rep.verdict is not Verdict.VIOLATED:
            for f in fails:
                f.append(f"verdict {rep.verdict.value}")
        return Checked(fails, mismatches)

    _check_positive_common(rep, fails)
    if kind == "flat_quadratic":
        err = _rel(rows[0]["theta_target"], oracle["theta"])
        if err > oracle["rtol"]:
            mismatches.append(f"theta_target off the flat-quadratic oracle by {err:.3e}")
            for f in fails:
                f.append("theta_target off oracle")
    elif kind == "kinetic_limit":
        last = rows[-1]
        if not abs(last["theta_h"] - oracle["theta"]) <= VANISHING_TOL:
            mismatches.append(
                f"theta_h {last['theta_h']:.6f} at h={last['h']} not within "
                f"{VANISHING_TOL} of the kinetic limit {oracle['theta']:.6f}"
            )
            fails[-1].append("theta_h off the kinetic limit")
    elif kind == "closed_form_twin":
        err = 0.0
        for i, (row, ref) in enumerate(zip(rows, twin.rows)):
            if "error" in row or "error" in ref:
                continue
            dev = max(_rel(row["theta_h"], ref["theta_h"]),
                      _rel(row["theta_target"], ref["theta_target"]))
            err = max(err, dev)
            if dev > TWIN_RTOL:
                mismatches.append(f"h={row['h']}: theta deviates {dev:.3e} from the closed-form twin")
                fails[i].append("theta off the closed-form twin")
        if twin.verdict is not rep.verdict:
            mismatches.append(f"verdict {rep.verdict.value} but twin {twin.verdict.value}")
    return Checked(fails, mismatches, err)
