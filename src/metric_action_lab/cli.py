"""Command line interface.

Subcommands:

* ``validate [spaces|functionals|prox|flow|all]`` runs the module
  validators over the built-in catalogue and writes a residual CSV
  (columns: space, functional, check, params, residual, pass).
* ``flow`` integrates a trajectory and writes it as CSV.
* ``action`` evaluates the action of a curve CSV under a catalogue
  functional.
* ``recovery`` builds per-index recovery curves and writes curve CSVs plus
  a summary JSON; an index that fails has an ``error`` there and no CSV.
* ``gamma positive|example1|example2|liminf`` runs the convergence
  experiments.

The CLI only dispatches: ``harness`` owns the config format and reads
every config key, and this module maps the command line to a harness call
and a verdict to an exit code.  Every subcommand takes ``--config PATH``
and ``--out DIR``.  The exit code is 0 when all asserted invariants pass,
1 when one fails, and 2 when the command line, the config or a law is
invalid; a library error prints one ``metric-action-lab: <message>`` line
on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .curves import action, curve_to_csv, format_table, metric_speed
from .errors import MetricActionError
from .flow import check_contraction, check_energy_identity, check_evi, flow, slack
from .functionals import SupFormula, check_lambda_convexity, descending_slope, evaluate
from .harness import (
    ExperimentConfig,
    Verdict,
    action_config,
    build_functional,
    emit_report,
    experiment_recovery,
    family_from_config,
    flow_config,
    index_rows,
    load_config,
    resolve_base_curve,
    run_gamma,
    space_from_config,
    write_json,
)
from .proximal import (
    check_bound_chain,
    check_resolvent_identity,
    check_resolvent_lipschitz,
    check_tau_continuity,
    resolvent,
    resolvent_convergence_probe,
)
from .recovery import piece_diagnostics
from .spaces import check_cat0, distance, geodesic_point, random_point

# space name -> (space config, ``{name: params}`` of the functionals after ``zero``);
# the first functional, times ``1 + 1/h``, is the resolvent convergence check's family
CATALOGUE = {
    "half_line": ({"kind": "half_line"}, {"quadratic": {"center": 1.0}, "linear": {"c": 2.0},
                                          "example1": {"eps": 0.5}, "example2": {"h": 4.0}}),
    "euclidean2": ({"kind": "euclidean", "dim": 2}, {"quadratic": {"center": [0.5, -0.5]}}),
    "tripod": ({"kind": "tripod"}, {"quadratic": {"center": [0, 0.5]}}),
    "quantile5": ({"kind": "quantile_1d", "grid_size": 5}, {"quadratic": {"center": [0, 1, 2, 3, 4]}}),
}


def _validation_spaces():
    return [(name, space_from_config(spec)) for name, (spec, _) in CATALOGUE.items()]


def _space_rows(seed: int) -> list:
    rows = []
    rng = np.random.default_rng(seed)
    for name, sp in _validation_spaces():
        tri, cat, geo = 0.0, -math.inf, 0.0
        for _ in range(200):
            a, b, c = (random_point(sp, rng) for _ in range(3))
            tri = max(tri, distance(sp, a, c) - distance(sp, a, b) - distance(sp, b, c))
            cat = max(cat, check_cat0(sp, a, b, c))
            t = float(rng.uniform())
            m = geodesic_point(sp, b, c, t)
            d = distance(sp, b, c)
            geo = max(
                geo,
                abs(distance(sp, b, m) - t * d),
                abs(distance(sp, m, c) - (1 - t) * d),
            )
        rows.append((name, "-", "triangle_inequality", "n=200", tri, tri <= 1e-12))
        rows.append((name, "-", "geodesic_split", "n=200", geo, geo <= 1e-9))
        rows.append((name, "-", "cat0_comparison", "n=200", cat, cat <= 1e-9))
    return rows


def _catalogue_for(space_name, sp):
    functionals = {"zero": None, **CATALOGUE[space_name][1]}
    return [(name, build_functional(sp, name, params)) for name, params in functionals.items()]


def _prox_rows(seed: int, n_samples: int = 20) -> list:
    rows = []
    rng = np.random.default_rng(seed + 1)
    for sname, sp in _validation_spaces():
        for fname, f in _catalogue_for(sname, sp):
            worst = {"bound_chain": -math.inf, "lipschitz": -math.inf,
                     "tau_continuity": -math.inf, "resolvent_identity": -math.inf,
                     "optimality": -math.inf}
            for _ in range(n_samples):
                tau = float(rng.uniform(0.05, 0.4))
                x = random_point(sp, rng)
                y = random_point(sp, rng)
                if fname == "example1" and x.coords[0] <= 1e-3:
                    x = sp.point(x.coords[0] + 0.5)
                ch = check_bound_chain(f, sp, tau, x)
                upper = ch.upper_residual if math.isfinite(ch.upper_residual) else -math.inf
                worst["bound_chain"] = max(worst["bound_chain"], ch.lower_residual, upper)
                worst["lipschitz"] = max(
                    worst["lipschitz"], check_resolvent_lipschitz(f, sp, tau, x, y)
                )
                nu = tau * float(rng.uniform(0.2, 0.8))
                s_x = descending_slope(f, sp, x)
                if math.isfinite(s_x):
                    worst["tau_continuity"] = max(
                        worst["tau_continuity"], check_tau_continuity(f, sp, nu, tau, x)
                    )
                worst["resolvent_identity"] = max(
                    worst["resolvent_identity"], check_resolvent_identity(f, sp, nu, tau, x)
                )
                res = resolvent(f, sp, tau, x)
                fx = evaluate(f, x)
                worst["optimality"] = max(worst["optimality"], res.value - fx)
            for check, val in worst.items():
                bar = 1e-4 if sname == "tripod" else 1e-6
                rows.append((sname, fname, check, f"n={n_samples}", val, val <= bar))
        # member resolvents must approach the limit resolvent
        name, params = next(iter(CATALOGUE[sname][1].items()))
        fam = family_from_config(sp, {"name": name, "params": params, "scale_law": "1 + 1/h"})
        x = random_point(sp, rng)
        dists = resolvent_convergence_probe(fam, sp, 0.2, x, [2, 16, 128, 1024])
        ok = dists[-1] <= 1e-3 and all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        rows.append((sname, "quadratic_family", "resolvent_convergence", "h<=1024", dists[-1], ok))
    return rows


def _functional_rows(seed: int) -> list:
    rows = []
    rng = np.random.default_rng(seed + 2)
    for sname, sp in _validation_spaces():
        for fname, f in _catalogue_for(sname, sp):
            pairs = []
            for _ in range(30):
                a, b = random_point(sp, rng), random_point(sp, rng)
                if f.in_domain(a) and f.in_domain(b):
                    pairs.append((a, b))
            r = check_lambda_convexity(f, sp, pairs)
            rows.append((sname, fname, "lambda_convexity", "n=30", r, r <= 1e-9))
            gap = 0.0
            for _ in range(10):
                x = random_point(sp, rng)
                if not f.in_domain(x):
                    continue
                cf = descending_slope(f, sp, x)
                sup = descending_slope(f, sp, x, SupFormula(radius=4.0))
                gap = max(gap, abs(cf - sup) / max(1.0, cf))
            rows.append((sname, fname, "slope_methods_agree", "n=10", gap, gap <= 1e-3))
    return rows


def _flow_rows(seed: int) -> list:
    rows = []
    sp = space_from_config({"kind": "euclidean", "dim": 1})
    f = build_functional(sp, "quadratic", {"center": 0.0})
    x0, x1 = sp.point(1.0), sp.point(-0.5)
    dt = 1e-3
    r = check_contraction(f, sp, x0, x1, 1.0, 1000)
    rows.append(("euclidean1", "quadratic", "contraction", "dt=1e-3", r, r <= 1e-3))
    traj = flow(f, sp, x0, 1.0, 1000)
    er = check_energy_identity(traj, f, sp)
    rows.append(("euclidean1", "quadratic", "energy_identity", "dt=1e-3",
                 er.relative_error, er.relative_error <= 0.02))
    ev = check_evi(traj, f, f.lam, sp.point(0.0), sp)
    rows.append(("euclidean1", "quadratic", "evi", "dt=1e-3", ev, ev <= slack(dt)))
    return rows


def cmd_validate(args) -> int:
    which = args.what
    rows = []
    if which in ("all", "spaces"):
        rows += _space_rows(args.seed)
    if which in ("all", "functionals"):
        rows += _functional_rows(args.seed)
    if which in ("all", "prox"):
        rows += _prox_rows(args.seed)
    if which in ("all", "flow"):
        rows += _flow_rows(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"validate_{which}.csv"
    header = ["space", "functional", "check", "params", "residual", "pass"]
    path.write_text(format_table(header, rows))
    ok = all(row[-1] for row in rows)
    print(f"wrote {path} ({len(rows)} checks, {'all pass' if ok else 'FAILURES'})")
    return 0 if ok else 1


def cmd_flow(args) -> int:
    sp, f, x, T, n_steps = flow_config(load_config(args.config))
    traj = flow(f, sp, x, T, n_steps)
    speeds = metric_speed(traj)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["t"] + [f"coord_{i}" for i in range(len(x.coords))] + ["f_value", "speed", "slope"]
    rows = (
        [t, *p.coords, evaluate(f, p), speeds[min(k, len(speeds) - 1)],
         descending_slope(f, sp, p)]
        for k, (t, p) in enumerate(zip(traj.times, traj.points))
    )
    path = out / "trajectory.csv"
    path.write_text(format_table(header, rows))
    print(f"wrote {path}")
    return 0


def cmd_action(args) -> int:
    f, curve, x0, x1 = action_config(load_config(args.config))
    av = action(curve, f, x0, x1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "action.json"
    write_json(path, asdict(av))
    print(f"wrote {path}")
    return 0


def cmd_recovery(args) -> int:
    cfg = ExperimentConfig.from_dict(load_config(args.config))
    gamma, meta = resolve_base_curve(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def curve_file(h):
        res = experiment_recovery(cfg, gamma, h)
        entry = {"tau": res.tau, "pieces": [asdict(p) for p in piece_diagnostics(res)]}
        (out / f"recovery_h{h}.csv").write_text(curve_to_csv(res.curve))
        return entry

    rows = index_rows(cfg.h_list, {}, curve_file, {})
    summary = {"schema": 1, "mode": cfg.mode.value, "meta": meta, "h": {str(r.pop("h")): r for r in rows}}
    write_json(out / "recovery_summary.json", summary)
    failed = sum("error" in r for r in rows)
    print(f"wrote {out}/recovery_summary.json and {len(rows) - failed} curve files")
    return 1 if failed else 0


def cmd_gamma(args) -> int:
    sub = args.experiment
    report = run_gamma(sub, load_config(args.config))
    emit_report(report, Path(args.out), f"gamma_{sub}")
    print(f"verdict: {report.verdict.value}")
    asserted = Verdict.VIOLATED if sub.startswith("example") else Verdict.CONSISTENT
    return 0 if report.verdict is asserted else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="metric-action-lab", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="run module validators")
    v.add_argument("what", nargs="?", default="all",
                   choices=["all", "spaces", "functionals", "prox", "flow"])
    v.add_argument("--out", default="out")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_validate)

    for name, fn, help in [
        ("flow", cmd_flow, "integrate and dump a trajectory"),
        ("action", cmd_action, "evaluate the action of a curve CSV"),
        ("recovery", cmd_recovery, "build recovery curves"),
        ("gamma", cmd_gamma, "convergence experiments"),
    ]:
        sp = sub.add_parser(name, help=help)
        if name == "gamma":
            sp.add_argument("experiment", choices=["positive", "example1", "example2", "liminf"])
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default="out")
        sp.set_defaults(fn=fn)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except MetricActionError as exc:
        print(f"metric-action-lab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
