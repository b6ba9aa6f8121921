"""Run one workload's job list in a fresh interpreter; report as JSON.

run.py starts this file once per repetition, with the job spec on stdin and
PYTHONPATH naming the checkout's ``src``.  The moment the program is
imported and the first job's command line is parsed is reported as
``ready`` (time.monotonic, which the parent shares); that is the set-up a
CLI user pays on every call.  A spec with ``setup_only`` stops there.

Every job's output is checked; a wrong answer or an exception counts as a
failed job and the rest still run.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


class Mismatch(Exception):
    pass


def _matches(want, got):
    """want is a subset of got: dict keys missing from want are ignored."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(
            k in got and _matches(v, got[k]) for k, v in want.items())
    if isinstance(want, list):
        return (isinstance(got, list) and len(want) == len(got)
                and all(_matches(w, g) for w, g in zip(want, got)))
    return want == got


def _check(job, want, got):
    if not _matches(want, got):
        raise Mismatch(f"expected {want!r}, got {got!r}"[:400])


def run_job(job):
    from strata_glue import (char_engine, cli, finite_rep, lambda_core,
                             sl2_coh)
    kind = job["kind"]
    if kind == "cli":
        os.environ.update(job.get("env", {}))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(job["argv"])
        if code != 0:
            raise Mismatch(f"exit code {code}")
        _check(job, job["expect"], json.loads(buf.getvalue()))
    elif kind == "ball":
        ring = lambda_core.make_ring(job["n"], job["p"])
        h = sl2_coh.bt_ball(job["p"], job["r"]).homology(ring)
        _check(job, job["expect"], {"H0": h[0].size(), "H1": h[1].size()})
    elif kind == "jacquet":
        ring = lambda_core.make_ring(job["n"], job["p"], job["sqrt_q"])
        chi = finite_rep.unram_pair(ring, job["a"], job["b"])
        res = finite_rep.jacquet_oracle(
            finite_rep.induced_rep(ring, chi, job["level"]))
        sym = char_engine.jacquet_symbolic(ring, job["spec"])
        want = {"filtration": [list(c.values()) for c in sym.constituents],
                "split": sym.split}
        _check(job, want, {"filtration": [list(f) for f in res.filtration],
                           "split": res.split})
    else:
        raise ValueError(f"unknown job kind {kind!r}")


def run_jobs(jobs):
    """Run and check every job; returns (per-job seconds, errors)."""
    seconds, errors = [], []
    for job in jobs:
        t0 = time.perf_counter()
        try:
            run_job(job)
        except (Exception, SystemExit) as exc:
            errors.append(f"{job['name']}: {type(exc).__name__}: {exc}")
        seconds.append(time.perf_counter() - t0)
    return seconds, errors


def main():
    from strata_glue import cli
    spec = json.loads(sys.stdin.read())
    cli._build_parser().parse_args(spec["jobs"][0]["argv"])
    ready = time.monotonic()
    src = os.path.join(os.path.realpath(spec["root"]), "src", "")
    if not os.path.realpath(cli.__file__).startswith(src):
        sys.exit(f"strata_glue imported from {cli.__file__}, not {src}")
    if spec.get("setup_only"):
        print(json.dumps({"ready": ready}))
        return
    recorder = None
    if spec.get("trace"):
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    t0 = time.perf_counter()
    seconds, errors = run_jobs(spec["jobs"])
    wall = time.perf_counter() - t0
    out = {"ready": ready, "wall_s": wall, "job_seconds": seconds,
           "attempted": len(spec["jobs"]), "errors": errors,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        out["rollup"] = spans.rollup(recorder.spans, wall)
        if spec.get("spans_path"):
            recorder.write(spec["spans_path"], origin=t0)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
