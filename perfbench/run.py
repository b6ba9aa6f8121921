"""strata-glue benchmark runner.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and measures the program under ``src``.
Each repetition of the workload's job list runs in a fresh child
interpreter (child.py), one at a time: no import state and no cache entry
carries from one repetition to the next, as for a CLI user.  Children are
started until the next one would end after ``--seconds``; at least one
runs (with ``--trace 1``, one plain and one traced).

--trace 0 reports the end-to-end metrics, medians over the run's children:
  wall_s       seconds to run and check the whole job list
  setup_s      spawn to "program imported and first command line parsed",
               over SETUP_COLD_STARTS cold starts plus every child
  peak_rss_mb  the child's peak resident set (ru_maxrss)
--trace 1 alternates plain and traced children and reports the per-layer
roll-up of the traced ones (spans.py; the low median, so counts stay whole),
with trace.overhead_s = traced wall minus plain wall (medians).  The first traced child's spans are written to
perfbench/out/<workload>.spans.jsonl.

A human-readable report comes first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS
from workloads import WORKLOADS, make_jobs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
OUT = HERE / "out"

SETUP_COLD_STARTS = 25
CHILD_TIMEOUT_S = 170

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def child_env():
    """The caller's environment with the PYTHON* variables replaced.

    Bytecode caching stays on, as for an installed CLI, and a fixed hash
    seed makes span counts repeat exactly.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def spawn(spec):
    env = child_env()
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(CHILD)], input=json.dumps(spec),
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - t0
    res["elapsed"] = elapsed
    return res


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workload, seed, seconds, trace):
    jobs = make_jobs(workload, seed)
    base = {"root": str(ROOT), "jobs": jobs}
    deadline = time.monotonic() + seconds
    spawn(dict(base, setup_only=True))  # writes bytecode caches; not counted
    setups = []
    if not trace:
        setups = [spawn(dict(base, setup_only=True))["setup_s"]
                  for _ in range(SETUP_COLD_STARTS)]
    plain, traced, longest = [], [], {False: 0.0, True: 0.0}
    while True:
        kind = bool(trace) and len(traced) < len(plain)
        enough = plain and (traced or not trace)
        if enough and time.monotonic() + longest[kind] > deadline:
            break
        spec = dict(base, trace=kind)
        if kind and not traced:
            OUT.mkdir(exist_ok=True)
            spec["spans_path"] = str(OUT / f"{workload}.spans.jsonl")
        res = spawn(spec)
        longest[kind] = max(longest[kind], res["elapsed"])
        (traced if kind else plain).append(res)
    return jobs, setups, plain, traced


def report(workload, seed, seconds, trace, jobs, setups, plain, traced):
    children = plain + traced
    attempted = sum(r["attempted"] for r in children)
    errors = [e for r in children for e in r["errors"]]
    print(f"workload={workload} seed={seed} seconds={seconds} trace={trace} "
          f"children={len(plain)} plain + {len(traced)} traced")
    for i, job in enumerate(jobs):
        q1, med, q3 = quartiles([r["job_seconds"][i] for r in plain])
        print(f"  job {job['name']}: median {med:.4f} s "
              f"(q1 {q1:.4f}, q3 {q3:.4f})")
    for e in sorted(set(errors)):
        print(f"  FAILED {e}")
    print(f"failed_frac {len(errors) / attempted:.4f} "
          f"({len(errors)}/{attempted} jobs)")
    walls = [r["wall_s"] for r in plain]
    metrics = {}
    if not trace:
        samples = {
            "wall_s": walls,
            "setup_s": setups + [r["setup_s"] for r in plain],
            "peak_rss_mb": [r["rss_kb"] / 1024 for r in plain],
        }
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": UNITS[name]}
            print(f"{name} {med:.6g} {UNITS[name]} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    else:
        keys = traced[0]["rollup"]
        for name in keys:
            metrics[name] = statistics.median_low(r["rollup"][name]
                                                  for r in traced)
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(walls))
        busy = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) or 1.0
        for layer in LAYERS:
            print(f"{layer:<12} self {metrics[f'{layer}.self_s']:9.4f} s "
                  f"share {100 * metrics[f'{layer}.self_s'] / busy:6.2f} % "
                  f"calls {metrics[f'{layer}.calls']}")
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {per_layer_unit(name)}")
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in metrics.items()}
    return {"correct": not errors, "attempted": attempted,
            "failed": len(errors), "metrics": metrics}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".rank_yield"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "strata_glue" / "cli.py").is_file():
        sys.exit(f"no strata_glue sources under {ROOT / 'src'}")
    try:
        runs = measure(args.workload, args.seed, args.seconds, args.trace)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        sys.exit(f"benchmark aborted: {exc}")
    result = report(args.workload, args.seed, args.seconds, args.trace, *runs)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
