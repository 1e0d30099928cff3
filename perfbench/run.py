"""Benchmark of metric-action-lab: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload minimize_certify --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55 --trace 1

Workloads and the ranges their seeds draw from are in ``workloads.py``.
With ``--trace 0`` a run reports the end-to-end metrics:

* ``setup_s``: median wall time of fresh interpreters that import the
  package and build the workload's configs;
* ``experiment_s``: median wall time of one iteration of the workload,
  iterations repeating while the next is expected to end within
  ``--seconds``;
* ``peak_rss_mb``: peak resident memory of this process.

It also prints the median time of each experiment, ``failed_frac`` and,
where an action oracle applies, ``oracle_err``.  With ``--trace 1``
iterations alternate untraced and traced; the traced ones report the
per-layer counts and self times of ``tracer.LAYER_METRICS``, including the
tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts report
rows (one index ``h`` of one experiment, per iteration).  A row fails when
the program raised for it or any of its checks failed; ``correct`` is false
when an output disagrees with its oracle, reports differ between identical
iterations or between traced and untraced runs, or an experiment raised.
A record of the run, host noise included, goes to
``perfbench/results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("minimize_certify", "numeric_recovery")
SETUP_SAMPLES = 7

SETUP_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import json, workloads
workloads.build(json.loads(sys.argv[3]))
"""


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# --------------------------------------------------------------------------
# host noise
# --------------------------------------------------------------------------


def cpu_ticks():
    """``(steal, total)`` jiffies from the aggregate line of /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]
    except OSError:
        return None
    ticks = [int(v) for v in fields]
    return ticks[7], sum(ticks)


def host_record(ticks_before, ticks_after) -> dict:
    import numpy

    steal = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
    return {
        "steal_frac": steal,
        "loadavg": list(os.getloadavg()),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# --------------------------------------------------------------------------
# measuring
# --------------------------------------------------------------------------


def measure_setup(specs: list) -> list:
    """Wall seconds of fresh interpreters importing and building configs."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), json.dumps(specs)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up child failed: {proc.stderr.strip().splitlines()[-1:]}")
    return samples


def run_iteration(exps, out_dir: Path, per_experiment: dict) -> tuple:
    """One iteration of every experiment; returns wall seconds, reports,
    the bytes each report wrote and the experiments that raised.  Appends
    each experiment's wall seconds to ``per_experiment``."""
    import workloads

    reports, errors = {}, {}
    t0 = time.perf_counter()
    for exp in exps:
        t = time.perf_counter()
        try:
            reports[exp.name] = exp.run()
            workloads.harness.emit_report(reports[exp.name], out_dir, exp.name)
        except Exception as exc:  # counted as failed rows, run goes on
            errors[exp.name] = f"{type(exc).__name__}: {exc}"
        per_experiment.setdefault(exp.name, []).append(time.perf_counter() - t)
    wall = time.perf_counter() - t0
    written = {
        name: (out_dir / f"{name}.csv").read_bytes() + (out_dir / f"{name}.json").read_bytes()
        for name in reports
    }
    return wall, reports, written, errors


class Tally:
    """Rows attempted and failed, oracle mismatches and their worst error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.oracle_err = None
        self.failures = {}

    def add(self, exps, reports, errors, oracles, twins, iterations: int):
        """Check one iteration's reports; every iteration wrote the same."""
        import workloads

        for exp in exps:
            self.attempted += iterations * len(exp.h_list)
            if exp.name in errors:
                self.failed += iterations * len(exp.h_list)
                self.problems.append(f"{exp.name} raised {errors[exp.name]}")
                continue
            res = workloads.check(exp, reports[exp.name], oracles[exp.name], twins.get(exp.name))
            self.problems.extend(f"{exp.name}: {m}" for m in res.mismatches)
            for h, f in zip(exp.h_list, res.row_failures):
                if f:
                    self.failed += iterations
                    self.failures[f"{exp.name}[h={h}]"] = f
            if res.oracle_err is not None:
                self.oracle_err = max(self.oracle_err or 0.0, res.oracle_err)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracer import LAYER_METRICS, Tracer

    ticks0 = cpu_ticks()
    specs = workloads.generate(workload, seed)
    setup = [] if trace else measure_setup(specs)
    exps = workloads.build(specs)
    oracles = {exp.name: workloads.oracle_values(exp) for exp in exps}

    walls, traced_walls, layer_runs, spans, per_experiment = [], [], [], [], {}
    first = None  # (written bytes, reports, errors) of the first iteration
    consistent = True
    (HERE / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp:
        out_dir = Path(tmp)
        started = last = time.perf_counter()
        pass_s = 0.0
        # repeat while the next pass is expected to end within ``seconds``
        while not walls or last - started + pass_s <= seconds:
            # with tracing, untraced and traced iterations alternate
            for tracer in (None, Tracer()) if trace else (None,):
                origin = time.perf_counter()
                with tracer or contextlib.nullcontext():
                    wall, reports, written, errors = run_iteration(
                        exps, out_dir, {} if tracer else per_experiment)
                if tracer is None:
                    walls.append(wall)
                else:
                    traced_walls.append(wall)
                    layer_runs.append(tracer.layer_stats())
                    spans = tracer.span_records(origin)
                if first is None:
                    first = (written, reports, errors)
                consistent = consistent and written == first[0]
            pass_s, last = time.perf_counter() - last, time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    twins = {exp.name: exp.run_twin() for exp in exps if exp.twin_cfg is not None}
    tally = Tally()
    tally.add(exps, first[1], first[2], oracles, twins, len(walls) + len(traced_walls))
    if not consistent:
        tally.problems.append("reports differ between iterations or between traced and untraced runs")
    counts = [{k: v for k, v in run.items() if not k.endswith("self_s")} for run in layer_runs]
    if any(c != counts[0] for c in counts):
        tally.problems.append("per-layer counts differ between traced iterations")

    metrics = {}
    if trace:
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead_frac":
                value = statistics.median(traced_walls) / statistics.median(walls) - 1.0
            else:
                value = statistics.median(run[name] for run in layer_runs)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "experiment_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "why": workloads.WHY[workload],
        "ranges": workloads.RANGES[workload],
        "specs": specs,
        "threads": {exp.name: exp.threads for exp in exps},
        "host": host_record(ticks0, cpu_ticks()),
        "samples": {"setup_s": setup, "experiment_s": walls, "traced_s": traced_walls,
                    "per_experiment_s": per_experiment},
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "oracle_err": tally.oracle_err,
        "problems": tally.problems,
        "failed_rows": tally.failures,
        "metrics": metrics,
    }
    if trace:
        record["spans"] = spans
    path = HERE / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def describe(rec: dict):
    """Human-readable lines for one workload's record."""
    w = rec["workload"]
    s = rec["samples"]
    for name, m in rec["metrics"].items():
        extra = ""
        if name == "experiment_s":
            extra = f"  (median of {len(s['experiment_s'])} iterations)"
        elif name == "setup_s":
            extra = f"  (median of {len(s['setup_s'])} fresh interpreters)"
        print(f"{w}  {name} = {m['value']:.6g} {m['unit']}{extra}")
    for name, times in s["per_experiment_s"].items():
        print(f"{w}  experiment {name}: median {statistics.median(times):.6g} s over {len(times)}, "
              f"threads {rec['threads'][name]}")
    print(f"{w}  failed_frac = {rec['failed_frac']:.6g} frac  ({rec['failed']} of {rec['attempted']} rows)")
    if rec["oracle_err"] is not None:
        print(f"{w}  oracle_err = {rec['oracle_err']:.3e} rel")
    for row, why in rec["failed_rows"].items():
        print(f"{w}  failed row {row}: {'; '.join(why)}")
    for p in rec["problems"]:
        print(f"{w}  INCORRECT: {p}")
    h = rec["host"]
    steal = "n/a" if h["steal_frac"] is None else f"{h['steal_frac']:.4f}"
    print(f"{w}  host: steal {steal}, loadavg {h['loadavg'][0]:.2f}, nproc {h['nproc']}, "
          f"python {h['python']}, numpy {h['numpy']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "metric_action_lab" / "__init__.py").is_file():
        fail(f"no package source under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    import metric_action_lab

    if Path(metric_action_lab.__file__).resolve().parent != SRC / "metric_action_lab":
        fail(f"imported metric_action_lab from {metric_action_lab.__file__}, not {SRC}")

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for rec in records:
        describe(rec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
