"""Tests of the benchmark's own machinery: python3 -m pytest perfbench"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_corrupted_expectation_and_exception_are_counted():
    bad = workloads.sl2coh_job("st", 11)
    bad["expect"] = {"H0": [], "H1": [7]}
    raising = {"name": "ball radius 0", "kind": "ball", "p": 2, "r": 0,
               "n": 7, "expect": {"H0": 7, "H1": 1}}
    jobs = [workloads.sl2coh_job("triv", 11), bad, raising,
            workloads.sl2coh_job("ind(0,0)", 11)]
    seconds, errors = child.run_jobs(jobs)
    assert len(seconds) == 4
    assert len(errors) == 2
    assert errors[0].startswith("sl2coh st n=11: Mismatch")
    assert errors[1].startswith("ball radius 0: ValueError")


def test_rollup_self_time_on_nested_tree():
    # A(cli 0-10) > B(lambda 1-4) > C(lambda 2-3); A > D(padic 5-9);
    # E(char 10.5-11) is a second root; the job list took 12 s
    tree = [
        ["main", "cli", None, 0.0, 10.0, None],
        ["kernel", "lambda_core", 0, 1.0, 4.0,
         {"rows": 5, "cols": 4, "out_rows": 2}],
        ["howell_form", "lambda_core", 1, 2.0, 3.0,
         {"rows": 3, "cols": 4, "out_rows": 2}],
        ["act", "padic_core", 0, 5.0, 9.0, None],
        ["glue", "char_engine", None, 10.5, 11.0, None],
    ]
    r = spans.rollup(tree, wall=12.0)
    assert r["cli.self_s"] == 3.0
    assert r["lambda_core.self_s"] == 3.0
    assert r["padic_core.self_s"] == 4.0
    assert r["char_engine.self_s"] == 0.5
    assert r["trace.unattributed_s"] == 1.5
    assert r["lambda_core.calls"] == 2
    assert r["lambda_core.howell_calls"] == 2
    assert r["lambda_core.howell_cells"] == 5 * 4 + 3 * 4
    assert r["lambda_core.rank_yield"] == 4 / 8
    assert r["padic_core.act_calls"] == 1


def test_install_spans_a_cli_job_and_restores():
    from strata_glue import cli, lambda_core
    original = lambda_core.howell_form
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        seconds, errors = child.run_jobs([workloads.sl2coh_job("st", 11)])
    finally:
        spans.restore(undo)
    assert errors == []
    assert lambda_core.howell_form is original
    assert cli.main.__module__ == "strata_glue.cli"
    roots = [s for s in rec.spans if s[2] is None]
    assert [s[0] for s in roots] == ["main"]
    r = spans.rollup(rec.spans, seconds[0])
    assert r["lambda_core.howell_calls"] > 0
    assert r["finite_rep.action_matrix_calls"] > 0
    assert r["padic_core.act_calls"] > 0
    total = sum(r[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert abs(total + r["trace.unattributed_s"] - seconds[0]) < 1e-9


def test_jobs_follow_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_jobs(w, 5) == workloads.make_jobs(w, 5)
    assert workloads.make_jobs("gate", 5) != workloads.make_jobs("gate", 6)
    primes = {workloads.banal_prime(s) for s in range(20)}
    assert len(primes) > 10
    for n in primes:
        assert 10 ** 6 <= n < 10 ** 6 + 2 * 10 ** 4 + 1000
        assert n % 27 == 1_000_003 % 27 and workloads._is_prime(n)
    pairs = {workloads.jacquet_pair(s) for s in range(40)}
    assert len(pairs) > 9
