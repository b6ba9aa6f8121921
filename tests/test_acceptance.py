"""Acceptance gate: one test per pinned criterion, all exact matches.

Each criterion gets exactly one test function so a verbose run prints one
pass/fail line apiece.  Everything is integer arithmetic; there are no
tolerances to tune, only exact equality.
"""

import json
import os
import random

import pytest

from strata_glue.lambda_core import CoeffRing, LambdaMatrix, free_module, \
    howell_form, iso_class, left_kernel, make_ring, quotient_module
from strata_glue.padic_core import SubgroupSpec, orbit_classification_check
from strata_glue.finite_rep import fixed_points, gl2_f2_sign, induced_rep, \
    jacquet_oracle, steinberg, trivial_rep, unram_pair
from strata_glue.sl2_coh import bt_ball, cohomology_report, \
    ps1_acyclicity_check
from strata_glue.char_engine import CuspidalWitnessFailed, \
    compact_generator_ranks, glue, jacquet_symbolic

from bruteforce import brute_left_kernel, orbits, span_of

R11 = make_ring(11, 3, sqrt_q=5)
R7 = make_ring(7, 2, sqrt_q=3)


def closed_form(p, k):
    return 2 + sum((p - 1) * p ** (min(k + i, k - i) - 1)
                   for i in range(-k + 1, k))


def test_criterion_1_orbit_formula():
    for p, k in ((2, 1), (2, 2), (3, 1), (3, 2)):
        want = closed_form(p, k)
        for m in (2 * k - 1, 2 * k):
            part = orbits(SubgroupSpec("Gamma_k", k=k), m, p=p)
            assert len(part) == want, (p, k, m)
        # infinity orbit is the valuation <= -k disc; the classification
        # checker verifies that clause and the zero disc symmetrically
        rep = orbit_classification_check(k, p)
        assert rep["orbit_count"] == want


def test_criterion_2_sl2_cohomology_table():
    for p in (2, 3):
        for n in (5, 7):
            ring = make_ring(n, p)
            assert cohomology_report(trivial_rep(ring, 2)) == \
                {"H0": [n], "H1": []}
            ind = induced_rep(ring, unram_pair(ring, 0, 0), 2)
            assert cohomology_report(ind) == {"H0": [n], "H1": [n]}
            assert cohomology_report(steinberg(ring, 2)) == \
                {"H0": [], "H1": [n]}


def test_criterion_3_ps1_acyclicity():
    for p, n, s in ((3, 11, 5), (2, 7, 3)):
        rep = ps1_acyclicity_check(p, n, s)
        assert rep["vanishes"] is True
        assert rep["H0"] == [] and rep["H1"] == []
        assert len(rep["matrix"]) == 2 and len(rep["matrix"][0]) == 2
        assert make_ring(n, p).is_unit(rep["unit"])


def test_criterion_4_jacquet_oracle_vs_symbolic():
    for spec, chi in (("ind(0,0)", (0, 0)), ("ind(0,1)", (0, 1)),
                      ("ind(1,0)", (1, 0)),
                      ("ind(1/2,-1/2)", ("1/2", "-1/2"))):
        sym = jacquet_symbolic(R11, spec)
        res = jacquet_oracle(induced_rep(R11, unram_pair(R11, *chi), 2))
        assert res.stabilized_rank == 2
        assert res.filtration == tuple(c.values() for c in sym.constituents)
        assert res.split == sym.split
        assert sym.split == (sym.constituents[0].values() !=
                             sym.constituents[1].values())
    res = jacquet_oracle(steinberg(R11, 2))
    sym = jacquet_symbolic(R11, "st")
    assert res.stabilized_rank == 1
    assert res.filtration == (sym.constituents[0].values(),) == ((4, 3),)


def vals(g):
    return {d: sorted(c.values() for c in entry)
            for d, entry in g.chars.items()}


def test_criterion_5_gluing_tables():
    assert vals(glue(R11, "int", "triv")) == {0: [(1, 1)], 3: [(3, 4)]}
    assert vals(glue(R11, "int", "absdet^1")) == {0: [(4, 4)], 3: [(1, 5)]}
    assert vals(glue(R11, "int", "absdet^-1")) == {0: [(3, 3)], 3: [(9, 1)]}
    assert vals(glue(R11, "int", "absdet^1/2")) == {0: [(9, 9)], 3: [(5, 3)]}
    assert vals(glue(R11, "int", "absdet^-1/2")) == {0: [(5, 5)], 3: [(4, 9)]}
    # the three non-generic windows
    assert vals(glue(R11, "int", "ps(0,1)")) == {0: [(9, 9)], 1: [(9, 9)]}
    assert vals(glue(R11, "int", "ps(0,0)")) == {1: [(5, 9)], 2: [(5, 9)]}
    assert vals(glue(R11, "int", "ps(1,0)")) == {2: [(5, 3)], 3: [(5, 3)]}
    for spec in ("ps(0,2)", "ps(3,0)", "ps(0,1/2)", "ps(2,0)", "ps(0,3)"):
        assert glue(R11, "int", spec).is_zero(), spec
    assert vals(glue(R11, "half", "nrd^0")) == {0: [(1, 1)], 1: [(3, 4)]}
    assert vals(glue(R11, "half", "nrd^1")) == {0: [(4, 4)], 1: [(1, 5)]}


def test_criterion_6_cuspidal_vanishing(tmp_path):
    sig = gl2_f2_sign(R7)
    assert fixed_points(sig, SubgroupSpec("Gamma0")).is_zero()
    out = glue(R7, "int", "cusp:gl2f2-sign")
    assert out.is_zero()
    table = tmp_path / "trivial.json"
    table.write_text(json.dumps({
        "group": "GL2(F2)",
        "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
        "matrices": [[[1]], [[1]]]}))
    with pytest.raises(CuspidalWitnessFailed):
        glue(R7, "int", f"cusp:{table}")


def test_criterion_7_compact_generator_ranks():
    ranks = compact_generator_ranks(1, 3, 11, 1)
    assert ranks == {2: 6, 3: 8, 4: 2}
    count = orbit_classification_check(1, 3)["orbit_count"]
    assert count == 4
    assert ranks == {2: 2 * (count - 1), 3: 2 * count, 4: 2}


def test_criterion_8_tree_ball_homology():
    for p, n in ((2, 7), (3, 11)):
        ring = make_ring(n, p)
        for r in (1, 2, 3):
            ball = bt_ball(p, r)
            h = ball.homology(ring)
            assert iso_class(h[0]) == [n], (p, r)
            assert iso_class(h[1]) == [], (p, r)
        ball = bt_ball(p, 2)
        assert ball.stabilizers[ball.base_edge].kind == "Gamma0"
        for v in ball.vertices:
            w = ball.eta_image(v)
            if w is not None:
                assert ball.colors[w] != ball.colors[v]


def test_criterion_9_linear_algebra_oracle():
    rng = random.Random(int(os.environ.get("STRATA_GLUE_SEED", "20104")))
    for _ in range(200):
        n = rng.randint(2, 9)
        ring = CoeffRing(n, 997)
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = LambdaMatrix(ring, [[rng.randrange(n) for _ in range(cols)]
                                for _ in range(rows)])
        assert span_of(howell_form(m).entries, n, cols) == \
            span_of(m.entries, n, cols)
        assert span_of(left_kernel(m).entries, n, rows) == \
            brute_left_kernel(m.entries, n)
        quot = quotient_module(free_module(ring, cols), list(m.entries))
        size = 1
        for f in iso_class(quot):
            size *= f
        assert size * len(span_of(m.entries, n, cols)) == n ** cols
