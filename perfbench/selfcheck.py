"""Self-checks of the benchmark's own oracles and failure accounting.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Exit code 0 means every check passed.  The checks:

1. The flat-quadratic formula gives coth(1) for the criterion-9 endpoints,
   matches the RK4 shooting oracle of ``tests/test_curves.py`` there, and
   matches an independent RK4 shooting solve on the generated smooth
   configs of seeds 0..2.
2. On seed 0 the stripped runs of ``numeric_recovery`` agree with their
   closed-form twins to 1e-6 relative in ``theta_h``.
3. On the example-2 configuration of ROADMAP item 2 (h in {4, 8, 16, 32},
   N=32, 1024 certificate windows) the failure accounting flags exactly
   the rows that item names, with the values it quotes.  Fixing item 2
   makes this check fail on purpose: empty ``ROADMAP_ITEM2_ROWS`` then.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# h -> (certified_lower_bound, optimizer_upper_bound) as ROADMAP item 2 quotes them
ROADMAP_ITEM2_ROWS = {4: (2.5605, 2.5374), 8: (2.7637, 2.2928)}


def shoot(lam: float, u0: float, u1: float, n_steps: int = 2000) -> float:
    """Action of the RK4 shooting solution of ``u'' = lam^2 u`` from ``u0``
    to ``u1``, integrated by the trapezoid rule on the RK4 grid."""

    def integrate(s):
        u, v, dt = u0, s, 1.0 / n_steps
        us, vs = [u], [v]
        for _ in range(n_steps):
            f = lambda a, b: (b, lam * lam * a)
            k1 = f(u, v)
            k2 = f(u + dt / 2 * k1[0], v + dt / 2 * k1[1])
            k3 = f(u + dt / 2 * k2[0], v + dt / 2 * k2[1])
            k4 = f(u + dt * k3[0], v + dt * k3[1])
            u += dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v += dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            us.append(u)
            vs.append(v)
        return us, vs

    lo, hi = -20.0, 20.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if integrate(mid)[0][-1] < u1:
            lo = mid
        else:
            hi = mid
    us, vs = integrate(0.5 * (lo + hi))
    dt = 1.0 / n_steps
    dens = [v * v + lam * lam * u * u for u, v in zip(us, vs)]
    return dt * (sum(dens) - 0.5 * (dens[0] + dens[-1]))


def check_flat_quadratic(workloads) -> list:
    problems = []
    coth1 = workloads.flat_quadratic_action(1.0, [0.0], [1.0])
    if abs(coth1 - 1.3130352855) > 1e-10:
        problems.append(f"formula gives {coth1!r} for the criterion-9 endpoints, not coth(1)")
    sys.path.insert(0, str(ROOT))
    from tests.test_curves import shooting_oracle_value

    ref, _, _ = shooting_oracle_value()
    if abs(coth1 - ref) > 1e-6:
        problems.append(f"formula {coth1:.10f} vs tests' shooting oracle {ref:.10f}")
    for seed in range(3):
        for spec in workloads.generate("minimize_certify", seed):
            o = spec["oracle"]
            if o["type"] != "flat_quadratic":
                continue
            # flat quadratics separate by coordinate
            shot = sum(shoot(o["lam"], a, b) for a, b in zip(o["u0"], o["u1"]))
            formula = workloads.flat_quadratic_action(o["lam"], o["u0"], o["u1"])
            if abs(formula - shot) > 1e-6 * formula:
                problems.append(f"seed {seed} {spec['name']}: formula {formula:.10f} vs shooting {shot:.10f}")
    return problems


def check_twin(workloads) -> list:
    problems = []
    for exp in workloads.build(workloads.generate("numeric_recovery", 0)):
        if exp.twin_cfg is None:
            continue
        rep, twin = exp.run(), exp.run_twin()
        for row, ref in zip(rep.rows, twin.rows):
            dev = abs(row["theta_h"] - ref["theta_h"]) / abs(ref["theta_h"])
            if not dev <= 1e-6:
                problems.append(f"{exp.name} h={row['h']}: stripped theta_h off its twin by {dev:.2e}")
    return problems


def check_ramp_accounting(workloads) -> list:
    spec = {"name": "ramp", "kind": "example2",
            "args": {"h_list": [4, 8, 16, 32], "n_certificate": 1024, "n_search": 32,
                     "margin": workloads.MARGIN, "with_optimizer": True},
            "oracle": {"type": "ramp_certificate"}}
    (exp,) = workloads.build([spec])
    rep = exp.run()
    res = workloads.check(exp, rep, workloads.oracle_values(exp))
    problems = [f"ramp oracle: {m}" for m in res.mismatches]
    flagged = {h for h, f in zip(exp.h_list, res.row_failures) if f}
    if flagged != set(ROADMAP_ITEM2_ROWS):
        problems.append(f"failed rows h={sorted(flagged)}, ROADMAP item 2 names {sorted(ROADMAP_ITEM2_ROWS)}")
    for row in rep.rows:
        quoted = ROADMAP_ITEM2_ROWS.get(row["h"])
        got = (round(row["certified_lower_bound"], 4), round(row["optimizer_upper_bound"], 4))
        if quoted is not None and got != quoted:
            problems.append(f"h={row['h']}: lower, upper = {got}, ROADMAP item 2 quotes {quoted}")
    return problems


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    failed = False
    for name, fn in (("flat-quadratic oracle", check_flat_quadratic),
                     ("closed-form twin", check_twin),
                     ("ramp failure accounting", check_ramp_accounting)):
        problems = fn(workloads)
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for p in problems:
            print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
