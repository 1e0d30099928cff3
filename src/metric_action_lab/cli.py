"""Command line interface.

Subcommands:

* ``validate [spaces|functionals|prox|flow|all]`` runs the module
  validators over the built-in catalogue and writes a residual CSV
  (columns: space, functional, check, params, residual, pass).
* ``flow`` integrates a trajectory and writes it as CSV.
* ``action`` evaluates the action of a curve CSV under a catalogue
  functional.
* ``recovery`` builds per-index recovery curves and writes curve CSVs plus
  a summary JSON.
* ``gamma positive|example1|example2|liminf`` runs the convergence
  experiments.

Every subcommand takes ``--config PATH`` and ``--out DIR``.  The exit code
is 0 when all asserted invariants pass, 1 when one fails, and 2 when the
command line, the config or a law is invalid; a library error prints one
``metric-action-lab: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .curves import action, curve_to_csv, format_table
from .errors import MetricActionError
from .flow import check_contraction, check_energy_identity, check_evi, flow, slack
from .functionals import (
    FunctionalFamily,
    SupFormula,
    build_functional,
    check_lambda_convexity,
    descending_slope,
    evaluate,
    quadratic,
    zero_functional,
)
from .harness import (
    ExperimentConfig,
    Verdict,
    emit_report,
    experiment_recovery,
    liminf_probe,
    load_config,
    load_curve,
    resolve_base_curve,
    run_example1,
    run_example2,
    run_positive,
    space_from_config,
    write_json,
)
from .laws import (
    config_bool,
    config_h_list,
    config_number,
    config_object,
    config_point,
    parse_law,
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
from .spaces import (
    check_cat0,
    distance,
    euclidean,
    geodesic_point,
    half_line,
    quantile_1d,
    random_point,
    tripod,
)


def _validation_spaces():
    return [
        ("half_line", half_line()),
        ("euclidean2", euclidean(2)),
        ("tripod", tripod()),
        ("quantile5", quantile_1d(5)),
    ]


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
    out = [("zero", zero_functional(sp))]
    if space_name == "half_line":
        center = sp.point(1.0)
        out.append(("quadratic", quadratic(sp, center, 1.0)))
        out.append(("linear", build_functional(sp, "linear", {"c": 2.0})))
        out.append(("example1", build_functional(sp, "example1", {"eps": 0.5})))
        out.append(("example2", build_functional(sp, "example2", {"h": 4.0})))
    elif space_name == "euclidean2":
        out.append(("quadratic", quadratic(sp, sp.point(0.5, -0.5), 1.0)))
    elif space_name == "tripod":
        out.append(("quadratic", quadratic(sp, sp.point(0, 0.5), 1.0)))
    else:
        out.append(("quadratic", quadratic(sp, sp.point(*range(sp.dim)), 1.0)))
    return out


def _prox_rows(seed: int, n_samples: int = 20) -> list:
    rows = []
    rng = np.random.default_rng(seed + 1)
    for sname, sp in _validation_spaces():
        for fname, f in _catalogue_for(sname, sp):
            tol = 1e-6 if f.closed_form_slope is not None else 1e-3
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
                bar = 1e-6 if check != "bound_chain" else tol
                if sname == "tripod":
                    bar = max(bar, 1e-4)
                rows.append((sname, fname, check, f"n={n_samples}", val, val <= bar))
        # member resolvents must approach the limit resolvent
        base = _catalogue_for(sname, sp)[1][1]
        fam = FunctionalFamily(member=lambda h: base.scaled(1.0 + 1.0 / h), limit=base)
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
            if f.closed_form_slope is not None:
                gap = 0.0
                for _ in range(10):
                    x = random_point(sp, rng)
                    if not f.in_domain(x):
                        continue
                    cf = descending_slope(f, sp, x)
                    sup = descending_slope(f, sp, x, SupFormula(radius=4.0, n_samples=256))
                    gap = max(gap, abs(cf - sup) / max(1.0, cf))
                rows.append(
                    (sname, fname, "slope_methods_agree", "n=10", gap, gap <= 1e-3)
                )
    return rows


def _flow_rows(seed: int) -> list:
    rows = []
    sp = euclidean(1)
    f = quadratic(sp, sp.point(0.0), 1.0)
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


def _space_and_functional(cfg: dict) -> tuple:
    """The space and the catalogue functional a ``flow``/``action`` config names."""
    sp = space_from_config(cfg["space"])
    fn = config_object(cfg["functional"], "functional")
    return sp, build_functional(sp, fn["name"], fn.get("params", {}))


def cmd_flow(args) -> int:
    cfg = load_config(args.config)
    sp, f = _space_and_functional(cfg)
    x = config_point(sp, cfg["x"], "x")
    T = config_number(cfg.get("T", 1.0), "T")
    traj = flow(f, sp, x, T, config_number(cfg.get("n_steps", 1000), "n_steps", int))
    speeds = traj.speeds(sp)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["t"] + [f"coord_{i}" for i in range(len(x.coords))] + ["f_value", "speed", "slope"]
    rows = (
        [t, *p.coords, traj.f_values[k], speeds[min(k, len(speeds) - 1)],
         descending_slope(f, sp, p)]
        for k, (t, p) in enumerate(zip(traj.times, traj.points))
    )
    path = out / "trajectory.csv"
    path.write_text(format_table(header, rows))
    print(f"wrote {path}")
    return 0


def cmd_action(args) -> int:
    cfg = load_config(args.config)
    sp, f = _space_and_functional(cfg)
    curve = load_curve(cfg["curve_csv"], sp)
    x0 = config_point(sp, cfg["x0"], "x0")
    x1 = config_point(sp, cfg["x1"], "x1")
    av = action(curve, f, x0, x1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "action.json"
    write_json(path, asdict(av))
    print(f"wrote {path}")
    return 0


def cmd_recovery(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    gamma, meta = resolve_base_curve(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"schema": 1, "mode": cfg.mode.value, "meta": meta, "h": {}}
    for h in cfg.h_list:
        res = experiment_recovery(cfg, gamma, h)
        (out / f"recovery_h{h}.csv").write_text(curve_to_csv(res.curve))
        summary["h"][str(h)] = {
            "tau": res.tau,
            "pieces": [asdict(p) for p in piece_diagnostics(res)],
        }
    write_json(out / "recovery_summary.json", summary)
    print(f"wrote {out}/recovery_summary.json and {len(cfg.h_list)} curve files")
    return 0


def cmd_gamma(args) -> int:
    sub = args.experiment
    out = Path(args.out)
    if sub in ("example1", "example2"):
        cfg = load_config(args.config)
        h_list = config_h_list(cfg["h_list"])
        disc = config_object(cfg.get("discretization", {}), "discretization")
        n_certificate = config_number(disc.get("n_certificate", 1024), "n_certificate", int)
        tolerances = config_object(cfg.get("tolerances", {}), "tolerances")
        margin = config_number(tolerances.get("margin", 0.05), "margin")
        if sub == "example1":
            report = run_example1(
                h_list,
                n_certificate=n_certificate,
                eps_law=cfg.get("eps_law", "1/h"),
                margin=margin,
            )
        else:
            report = run_example2(
                h_list,
                n_certificate=n_certificate,
                n_search=config_number(disc.get("N", 64), "N", int),
                margin=margin,
                with_optimizer=config_bool(cfg.get("with_optimizer", True), "with_optimizer"),
            )
        emit_report(report, out, f"gamma_{sub}")
        print(f"verdict: {report.verdict.value}")
        return 0 if report.verdict is Verdict.VIOLATED else 1
    if sub == "positive":
        cfg = ExperimentConfig.from_json(args.config)
        report = run_positive(cfg)
        emit_report(report, out, "gamma_positive")
        print(f"verdict: {report.verdict.value}")
        return 0 if report.verdict is Verdict.CONSISTENT else 1
    # liminf probe: member resolvents of the base curve as the test sequence
    cfg = ExperimentConfig.from_json(args.config)
    gamma, base_meta = resolve_base_curve(cfg)
    probe_cfg = config_object(cfg.raw.get("liminf", {}), "liminf")
    tail_from = probe_cfg.get("tail_from", int(max(cfg.h_list, default=0)))
    tail_from = config_number(tail_from, "tail_from", int)
    slack = config_number(probe_cfg.get("slack", 0.01), "slack")
    tl = parse_law(probe_cfg.get("tau_law", "1/(h*h)"))
    curves = {
        h: gamma.mapped(lambda p, _h=h: resolvent(cfg.family.member(_h), cfg.space, tl(_h), p).point)
        for h in cfg.h_list
    }
    report = liminf_probe(cfg.family, curves, gamma, tail_from=tail_from, slack=slack)
    report.meta.update(base_meta)
    emit_report(report, out, "gamma_liminf")
    print(f"verdict: {report.verdict.value}")
    return 0 if report.verdict is Verdict.CONSISTENT else 1


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

    fl = sub.add_parser("flow", help="integrate and dump a trajectory")
    fl.add_argument("--config", required=True)
    fl.add_argument("--out", default="out")
    fl.set_defaults(fn=cmd_flow)

    ac = sub.add_parser("action", help="evaluate the action of a curve CSV")
    ac.add_argument("--config", required=True)
    ac.add_argument("--out", default="out")
    ac.set_defaults(fn=cmd_action)

    rc = sub.add_parser("recovery", help="build recovery curves")
    rc.add_argument("--config", required=True)
    rc.add_argument("--out", default="out")
    rc.set_defaults(fn=cmd_recovery)

    gm = sub.add_parser("gamma", help="convergence experiments")
    gm.add_argument("experiment", choices=["positive", "example1", "example2", "liminf"])
    gm.add_argument("--config", required=True)
    gm.add_argument("--out", default="out")
    gm.set_defaults(fn=cmd_gamma)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except MetricActionError as exc:
        print(f"metric-action-lab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
