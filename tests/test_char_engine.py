"""Character bookkeeping for the two-stratum gluing tables.

Frozen values below are all value-level computations in Z/11 (q = 3,
sqrt_q = 5) or Z/7 (q = 2, sqrt_q = 3):

    |.|^s at pi is q^(-s):   |.|^1 = 4,  |.|^(1/2) = 9,  |.|^(-1) = 3  (mod 11)
    d_T = (3, 4)   d_T^(-1) = (4, 3)   d_T^(1/2) = (5, 9)   d_T^(-1/2) = (9, 5)

The gluing tables themselves were fixed beforehand by hand:
    integral slope:  triv -> {0: 1x1, 3: d_T} after dualizing {1, 4}
    ps(a,b) with v = b - a in {1, 0, -1} -> two adjacent degrees {1-v, 2-v}
    half slope:  nrd^k -> {0: sym(k), 1: sym(k) d_T}
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import provenance_glue, provenance_hc_tilde
from strata_glue.lambda_core import (BanalityViolation, CoeffRing,
                                     MissingSqrtQ, make_ring)
from strata_glue.finite_rep import (induced_rep, jacquet_oracle, rep_model,
                                    steinberg)
from strata_glue.char_engine import (
    CuspidalWitnessFailed,
    DegreeNotInTable,
    HALF,
    INTEGRAL,
    JacquetSymbol,
    TorusChar,
    UnramChar,
    UnsupportedSpec,
    _block_cohomology,
    _row_offsets,
    assemble_characters,
    compact_generator_ranks,
    glue,
    hc_tilde,
    jacquet_symbolic,
    ts_homology,
    verdier_dualize,
)

R11 = make_ring(11, 3, sqrt_q=5)
R7 = make_ring(7, 2, sqrt_q=3)
R5 = make_ring(5, 3)  # no square root of 3 mod 5 is installed


def vals(module):
    """Value-level snapshot {degree: sorted (chi1, chi2) value pairs}."""
    return {d: sorted((c.chi1.value, c.chi2.value) for c in chars)
            for d, chars in module.chars.items()}


# ------------------------------------------------------------- characters


def test_unram_char_values():
    assert UnramChar.abs_power(R11, 1).value == 4
    assert UnramChar.abs_power(R11, Fraction(1, 2)).value == 9
    assert UnramChar.abs_power(R11, -1).value == 3
    assert UnramChar.abs_power(R11, 0).value == 1
    assert UnramChar.abs_power(R11, 2).exponent == 2


def test_unram_char_algebra():
    a = UnramChar.abs_power(R11, 1)
    b = UnramChar.abs_power(R11, Fraction(-1, 2))
    assert (a * b).value == 4 * 5 % 11
    assert (a * b).exponent == Fraction(1, 2)
    assert a.inverse().value == 3
    assert a.inverse().exponent == -1
    assert (a * a.inverse()).value == UnramChar.abs_power(R11, 0).value


def test_unram_char_needs_sqrt_for_half_exponent():
    with pytest.raises(MissingSqrtQ):
        UnramChar.abs_power(R5, Fraction(1, 2))
    assert UnramChar.abs_power(R5, 1).value == 2  # 3^(-1) = 2 mod 5


def test_torus_char_delta_conventions():
    assert TorusChar.delta_power(R11, 1).values() == (3, 4)
    assert TorusChar.delta_power(R11, -1).values() == (4, 3)
    assert TorusChar.delta_power(R11, Fraction(1, 2)).values() == (5, 9)
    assert TorusChar.delta_power(R11, Fraction(-1, 2)).values() == (9, 5)
    assert TorusChar.delta_power(R7, Fraction(-1, 2)).values() == (5, 3)


def test_torus_char_weyl_and_restriction():
    chi = TorusChar.from_exponents(R11, 0, 1)
    assert chi.values() == (1, 4)
    assert chi.weyl().values() == (4, 1)
    assert chi.ts_value() == 3  # 1 * inv(4) = 3 mod 11
    assert not chi.is_ts_trivial()
    assert TorusChar.from_exponents(R11, 2, 2).is_ts_trivial()
    prod = chi * TorusChar.delta_power(R11, -1)
    assert prod.values() == (4, 12 % 11)


# ------------------------------------------------------- symbolic Jacquet


def test_jacquet_symbolic_steinberg():
    sym = jacquet_symbolic(R11, "st")
    assert len(sym.constituents) == 1
    assert sym.constituents[0].values() == (4, 3)
    assert not sym.split


def test_jacquet_symbolic_frozen_table():
    # sub = chi^w d_T^(-1) first, quotient = chi second
    sym = jacquet_symbolic(R11, "ind(0,0)")
    assert [c.values() for c in sym.constituents] == [(4, 3), (1, 1)]
    assert sym.split
    sym = jacquet_symbolic(R11, "ind(0,1)")
    assert [c.values() for c in sym.constituents] == [(5, 3), (1, 4)]
    assert sym.split
    sym = jacquet_symbolic(R11, "ind(1,0)")
    assert [c.values() for c in sym.constituents] == [(4, 1), (4, 1)]
    assert not sym.split
    sym = jacquet_symbolic(R11, "ind(1/2,-1/2)")
    assert [c.values() for c in sym.constituents] == [(9, 5), (9, 5)]
    assert not sym.split


def test_jacquet_symbolic_normalized_ps():
    # ps(a,b) carries the built-in d_T^(-1/2); ps(0,0) is ind(1/2,-1/2)
    sym = jacquet_symbolic(R11, "ps(0,0)")
    assert [c.values() for c in sym.constituents] == [(9, 5), (9, 5)]
    assert not sym.split
    assert jacquet_symbolic(R11, "ps(0,1)").split is True
    assert jacquet_symbolic(R11, "ps(0,2)").split is True


def test_jacquet_symbolic_rejects_foreign_specs():
    with pytest.raises(UnsupportedSpec):
        jacquet_symbolic(R11, "cusp:gl2f2-sign")
    with pytest.raises(UnsupportedSpec):
        jacquet_symbolic(R11, "nrd^2")
    with pytest.raises(ValueError):
        jacquet_symbolic(R11, "char(3,4)")


def test_jacquet_symbolic_matches_averaging_oracle():
    # the central integrity check: symbol vs finite-level smoothing tower
    for spec, chi in (("ind(0,0)", (1, 1)),
                      ("ind(0,1)", (1, 4)),
                      ("ind(1,0)", (4, 1)),
                      ("ind(1/2,-1/2)", (9, 5))):
        sym = jacquet_symbolic(R11, spec)
        res = jacquet_oracle(induced_rep(R11, chi, 2))
        assert [c.values() for c in sym.constituents] == list(res.filtration)
        assert sym.split == res.split
    sym = jacquet_symbolic(R11, "st")
    res = jacquet_oracle(steinberg(R11, 2))
    assert [c.values() for c in sym.constituents] == list(res.filtration)


def test_jacquet_symbolic_matches_oracle_at_level_3():
    sym = jacquet_symbolic(R11, "ind(0,1)")
    res = jacquet_oracle(induced_rep(R11, (1, 4), 3))
    assert [c.values() for c in sym.constituents] == list(res.filtration)
    assert sym.split == res.split


def test_jacquet_symbolic_matches_oracle_at_level_4():
    # the level-L line has 78,732 points here; the oracle works on at most
    # a few hundred disc slots per stage
    sym = jacquet_symbolic(R11, "ind(0,1)")
    res = jacquet_oracle(induced_rep(R11, (1, 4), 4))
    assert [c.values() for c in sym.constituents] == list(res.filtration)
    assert sym.split == res.split


def _oracle_matches_symbol(ring, spec, level):
    sym = jacquet_symbolic(ring, spec)
    res = jacquet_oracle(rep_model(ring, spec, level))
    return ([c.values() for c in sym.constituents] == list(res.filtration)
            and sym.split == res.split)


R13_5 = make_ring(13, 5)
R13_7 = make_ring(13, 7)
_LEVELS = ([(R11, spec, m) for spec in ("ind(0,1)", "st")
            for m in range(2, 7)]
           + [(R13_5, "ind(0,1)", 3)]
           + [(R13_7, "ind(0,1)", m) for m in (2, 3)])


@pytest.mark.parametrize("ring, spec, level", _LEVELS,
                         ids=[f"n{r.n}-p{r.p}-{s}-m{m}"
                              for r, s, m in _LEVELS])
def test_oracle_filtration_is_level_stable(ring, spec, level):
    # the coinvariants do not depend on the level the model is cut at: the
    # oracle reads the symbol's filtration and split at every level, up to
    # the level-6 line over Z/11 (6.4 million points at L = 14)
    assert _oracle_matches_symbol(ring, spec, level)


def _banal_rings_with_sqrt_q(p, bound):
    # Z/n for the primes 7 <= n < bound in which p is a square; every such
    # n is banal for p <= 5, since (p - 1)^2 (p + 1) has no prime factor
    # above 3
    for n in range(7, bound):
        if all(n % d for d in range(2, int(n ** 0.5) + 1)):
            root = next((x for x in range(1, n) if x * x % n == p), None)
            if root is not None:
                yield make_ring(n, p, sqrt_q=root)


@pytest.mark.parametrize("p, level", [(2, 2), (3, 2), (5, 2), (2, 3)])
def test_oracle_matches_symbol_across_rings(p, level):
    # two seeded half-integral exponent pairs in [-3, 3] per ring; every
    # case that disagrees is listed, none is dropped
    misses = []
    for ring in _banal_rings_with_sqrt_q(p, 10 ** 4):
        rng = random.Random(f"ring-sweep:{ring.n}:{p}:{level}")
        for _ in range(2):
            a, b = (Fraction(rng.randint(-6, 6), 2) for _ in range(2))
            spec = f"ind({a},{b})"
            if not _oracle_matches_symbol(ring, spec, level):
                misses.append((ring.n, spec))
    assert misses == []


# --------------------------------------------------------- torus homology


def test_ts_homology_split_counts_each_constituent():
    sym = jacquet_symbolic(R11, "ind(0,0)")
    ranks = ts_homology(sym, TorusChar.delta_power(R11, 1))
    # d_T^(-1) * d_T is trivial on T_s, the second constituent is not
    assert ranks == {0: 1, -1: 1}
    ranks = ts_homology(sym, TorusChar.from_exponents(R11, 0, 0))
    assert ranks == {0: 1, -1: 1}
    ranks = ts_homology(sym, TorusChar.from_exponents(R11, 0, 1))
    assert ranks == {0: 0, -1: 0}


def test_ts_homology_nonsplit_needs_every_constituent_trivial():
    sym = jacquet_symbolic(R11, "ind(1,0)")
    # twist (-1/2, 1/2): both constituents (4,1) land on the trivial line
    tw = TorusChar.from_exponents(R11, Fraction(-1, 2), Fraction(1, 2))
    assert ts_homology(sym, tw) == {0: 1, -1: 1}
    assert ts_homology(sym, TorusChar.from_exponents(R11, 0, 0)) == \
        {0: 0, -1: 0}


@settings(max_examples=20, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-3, 3))
def test_ts_homology_additive_over_split_symbols(a, b, t):
    sub = TorusChar.from_exponents(R11, a, b)
    quot = TorusChar.from_exponents(R11, b, a + 1)
    tw = TorusChar.from_exponents(R11, t, 0)
    joint = JacquetSymbol((sub, quot), split=True)
    total = ts_homology(joint, tw)
    parts = [ts_homology(JacquetSymbol((c,), split=False), tw)
             for c in (sub, quot)]
    assert total[0] == sum(p[0] for p in parts)
    assert total[-1] == sum(p[-1] for p in parts)


# -------------------------------------------------------------- assembly


def test_assemble_characters_pinned_examples():
    triv = UnramChar.abs_power(R11, 0)
    out = assemble_characters(4, triv, UnramChar.abs_power(R11, 1),
                              INTEGRAL)
    assert (out.chi1.value, out.chi2.value) == (3, 4)  # d_T
    out = assemble_characters(2, triv, triv, INTEGRAL)
    assert (out.chi1.value, out.chi2.value) == (1, 1)
    out = assemble_characters(3, triv,
                              UnramChar.abs_power(R11, Fraction(3, 2)),
                              INTEGRAL)
    # |.|^1 d_T^(1/2): (q^(-1) q^(1/2), q^(-1) q^(-1/2)) = (9, 3) mod 11
    assert (out.chi1.value, out.chi2.value) == (9, 3)
    assert out.chi1.exponent == Fraction(1, 2)
    assert out.chi2.exponent == Fraction(3, 2)


def test_assemble_characters_sheaf_lands_in_both_slots():
    sheaf = UnramChar.abs_power(R11, 1)
    triv = UnramChar.abs_power(R11, 0)
    out = assemble_characters(2, sheaf, triv, INTEGRAL)
    assert (out.chi1.value, out.chi2.value) == (4, 4)


def test_assemble_characters_unknown_degree():
    triv = UnramChar.abs_power(R11, 0)
    with pytest.raises(DegreeNotInTable):
        assemble_characters(5, triv, triv, INTEGRAL)
    with pytest.raises(DegreeNotInTable):
        assemble_characters(3, triv, triv, HALF)


def test_rule_tables_are_frozen_constants():
    assert dict(INTEGRAL.rows) == {
        2: ("st", 0, (0, 0)),
        3: ("ind(1,0)", Fraction(1, 2), (-1, 0)),
        4: ("absdet^1", 1, (-2, 0))}
    assert dict(HALF.rows) == {1: ("triv", 0, (0, 0)),
                               2: ("nrd^1", 1, (-2, 0))}
    assert INTEGRAL.d == 2 and HALF.d == 1
    assert INTEGRAL.inputs == {"triv", "absdet", "ind", "ps"}
    assert HALF.inputs == {"triv", "nrd"}
    with pytest.raises(TypeError):
        INTEGRAL.rows[2] = ("triv", 0, (9, 9))


# ------------------------------------------------- compactly supported side


def test_hc_tilde_trivial_sheaf():
    assert vals(hc_tilde(R11, "int", "triv")) == {1: [(1, 1)], 4: [(3, 4)]}
    assert vals(hc_tilde(R7, "int", "triv")) == {1: [(1, 1)], 4: [(2, 4)]}


def test_hc_tilde_absdet_twist():
    assert vals(hc_tilde(R11, "int", "absdet^1")) == {
        1: [(4, 4)], 4: [(1, 5)]}
    assert vals(hc_tilde(R11, "int", "absdet^-1")) == {
        1: [(3, 3)], 4: [(9, 1)]}


def test_hc_tilde_ps_trichotomy():
    # v = b - a picks the row: v=1 -> {1,2}, v=0 -> {2,3}, v=-1 -> {3,4}
    assert vals(hc_tilde(R11, "int", "ps(0,1)")) == {
        1: [(9, 9)], 2: [(9, 9)]}
    assert vals(hc_tilde(R11, "int", "ps(0,0)")) == {
        2: [(5, 9)], 3: [(5, 9)]}
    assert vals(hc_tilde(R11, "int", "ps(1,0)")) == {
        3: [(5, 3)], 4: [(5, 3)]}


def test_hc_tilde_generic_ps_vanishes():
    assert hc_tilde(R11, "int", "ps(0,2)").is_zero()
    assert hc_tilde(R11, "int", "ps(3,0)").is_zero()
    assert hc_tilde(R11, "int", "ps(0,1/2)").is_zero()


def test_hc_tilde_exponent_wraparound_keeps_formal_exponent():
    # q^5 = 1 mod 11: ps(5,5) matches ps(0,0) in values, not in exponents
    run = hc_tilde(R11, "int", "ps(5,5)")
    assert vals(run) == {2: [(5, 9)], 3: [(5, 9)]}
    char = run.chars[2][0]
    assert char.chi1.exponent == Fraction(9, 2)
    assert char.chi2.exponent == Fraction(11, 2)


def test_hc_tilde_half_slope():
    assert vals(hc_tilde(R11, "half", "nrd^0")) == {1: [(1, 1)], 2: [(3, 4)]}
    assert vals(hc_tilde(R11, "half", "nrd^1")) == {1: [(4, 4)], 2: [(1, 5)]}
    assert vals(hc_tilde(R7, "half", "triv")) == {1: [(1, 1)], 2: [(2, 4)]}


@pytest.mark.parametrize("ring", [
    R11, R7, make_ring(13, 5), make_ring(143, 3, sqrt_q=82),
    make_ring(121, 3, sqrt_q=27), make_ring(49, 3), make_ring(169, 3),
    make_ring(1001, 5)], ids=lambda r: f"n{r.n}-p{r.p}")
def test_each_row_lands_where_its_block_has_cohomology(ring):
    # Steinberg has only H^1, ind(1,0) is acyclic, and absdet^1 and both
    # half rows have only H^0
    for table, want in ((INTEGRAL, {"st": (-1,), "ind(1,0)": (),
                                    "absdet^1": (0,)}),
                        (HALF, {"triv": (0,), "nrd^1": (0,)})):
        assert {spec: _row_offsets(ring, table, spec)
                for spec, _det, _z in table.rows.values()} == want


def test_blocks_past_the_banality_gate_have_torsion():
    # CoeffRing skips make_ring's gate: 1 - q = 0 mod 2 at q = 3, and
    # q + 1 = 20 = 0 mod 5 at q = 19, so the blocks gain torsion there,
    # and hc_tilde and glue refuse both rings as make_ring would
    bad2, bad5 = CoeffRing(2, 3), CoeffRing(5, 19)
    assert _block_cohomology(bad2, INTEGRAL, "ind(1,0)") == {0: [2], 1: [2]}
    assert _block_cohomology(bad5, HALF, "triv") == {0: [5], 1: [5]}
    for f in (hc_tilde, glue):
        for ring, slope in ((bad2, "int"), (bad2, "half"), (bad5, "half")):
            with pytest.raises(BanalityViolation):
                f(ring, slope, "triv")


def test_hc_tilde_rejects_unsupported_sheaves():
    with pytest.raises(UnsupportedSpec):
        hc_tilde(R11, "int", "nrd^2")
    with pytest.raises(ValueError):
        hc_tilde(R11, "int", "char(3,4)")
    with pytest.raises(UnsupportedSpec):
        hc_tilde(R11, "half", "ps(0,0)")
    with pytest.raises(UnsupportedSpec):
        hc_tilde(R11, "half", "st")
    with pytest.raises(ValueError):
        hc_tilde(R11, "steep", "triv")


def test_hc_tilde_half_exponent_needs_sqrt():
    with pytest.raises(MissingSqrtQ):
        hc_tilde(R5, "int", "ps(0,0)")
    assert vals(hc_tilde(R5, "int", "triv")) == {1: [(1, 1)], 4: [(3, 2)]}


# ------------------------------------------------------------ dualization


def test_verdier_dualize_integral_purity():
    # triv is its own contragredient, so its flip is its glue output
    g = hc_tilde(R11, "int", "triv")
    assert vals(verdier_dualize(g, 2)) == {0: [(1, 1)], 3: [(3, 4)]}


def test_verdier_dualize_half():
    # the flip of nrd^-1's table is the glue output of nrd^1
    g = hc_tilde(R11, "half", "nrd^-1")
    assert vals(verdier_dualize(g, 1)) == {0: [(4, 4)], 1: [(1, 5)]}


def test_verdier_dualize_empty_is_empty():
    g = hc_tilde(R11, "int", "ps(0,2)")
    assert verdier_dualize(g, 2).is_zero()


@pytest.mark.parametrize("slope, spec", [("int", "ps(0,0)"),
                                         ("int", "absdet^1/2"),
                                         ("half", "nrd^3")])
def test_verdier_dualize_is_an_involution(slope, spec):
    g = hc_tilde(R11, slope, spec)
    d = INTEGRAL.d if slope == "int" else HALF.d
    assert verdier_dualize(verdier_dualize(g, d), d).to_json() == g.to_json()


# ------------------------------------------------------------------- glue


def test_glue_integral_trivial_sheaf():
    out = glue(R11, "int", "triv")
    assert vals(out) == {0: [(1, 1)], 3: [(3, 4)]}
    assert vals(glue(R7, "int", "triv")) == {0: [(1, 1)], 3: [(2, 4)]}


def test_glue_absdet_family():
    assert vals(glue(R11, "int", "absdet^1")) == {0: [(4, 4)], 3: [(1, 5)]}
    assert vals(glue(R11, "int", "absdet^-1")) == {0: [(3, 3)], 3: [(9, 1)]}
    assert vals(glue(R11, "int", "absdet^1/2")) == {0: [(9, 9)], 3: [(5, 3)]}
    assert vals(glue(R11, "int", "absdet^-1/2")) == {0: [(5, 5)], 3: [(4, 9)]}


def test_glue_ps_reproduces_corollary_rows():
    # v = 1: degrees {0,1} with sym(m); v = 0: {1,2} sym(m) d_T^(1/2);
    # v = -1: {2,3} sym(m) d_T
    assert vals(glue(R11, "int", "ps(0,1)")) == {0: [(9, 9)], 1: [(9, 9)]}
    assert vals(glue(R11, "int", "ps(0,0)")) == {1: [(5, 9)], 2: [(5, 9)]}
    assert vals(glue(R11, "int", "ps(1,0)")) == {2: [(5, 3)], 3: [(5, 3)]}
    assert vals(glue(R11, "int", "ps(5,5)")) == {1: [(5, 9)], 2: [(5, 9)]}


def test_glue_generic_controls_vanish():
    for spec in ("ps(0,2)", "ps(2,0)", "ps(0,3)", "ps(3,0)", "ps(1,3)"):
        assert glue(R11, "int", spec).is_zero()


def test_glue_half_slope():
    assert vals(glue(R11, "half", "nrd^0")) == {0: [(1, 1)], 1: [(3, 4)]}
    assert vals(glue(R11, "half", "nrd^1")) == {0: [(4, 4)], 1: [(1, 5)]}
    assert vals(glue(R7, "half", "nrd^1")) == {0: [(4, 4)], 1: [(1, 2)]}


def test_glue_refuses_an_input_whose_own_table_is_unrepresentable():
    # the contragredient ind(1,1/2) has an empty table, but q^5 = 1 mod 11
    # gives ind(-1,-1/2) a row whose determinant exponent is 1/4
    assert hc_tilde(R11, "int", "ind(1,1/2)").is_zero()
    with pytest.raises(ValueError,
                       match=r"^exponent 1/4 is not half-integral$"):
        glue(R11, "int", "ind(-1,-1/2)")


_CRT_SPECS = [("int", s) for s in (
    "triv", "absdet^1", "absdet^-1", "absdet^1/2", "absdet^-1/2",
    "ind(0,0)", "ind(0,1)", "ps(0,0)", "ps(0,1)", "ps(1,0)")] + [
    ("half", s) for s in ("nrd^0", "nrd^1", "nrd^-1")]


@pytest.mark.parametrize("slope, spec", _CRT_SPECS,
                         ids=[f"{sl}-{sp}" for sl, sp in _CRT_SPECS])
def test_glue_is_the_crt_of_its_prime_factors(slope, spec):
    # Z/143 = Z/11 x Z/13, and sqrt_q = 82 is 5 mod 11 and 4 mod 13: the
    # same degrees, and each character value reduces to the local ones
    got = vals(glue(make_ring(143, 3, sqrt_q=82), slope, spec))
    for n, sqrt_q in ((11, 5), (13, 4)):
        local = vals(glue(make_ring(n, 3, sqrt_q=sqrt_q), slope, spec))
        assert {d: sorted((a % n, b % n) for a, b in chars)
                for d, chars in got.items()} == local, (n, spec)


@pytest.mark.parametrize("spec", ["ind(1,0)", "ps(0,2)"])
def test_glue_crt_has_no_answer_where_the_factors_disagree(spec):
    # 3^3 = 1 mod 13 but not mod 11, so these inputs glue to zero over Z/11
    # and to two degrees over Z/13; no value over Z/143 can reduce to both.
    # Z/143 gives zero, as Z/11 does, since a coincidence mod 13 alone is
    # none in Z/143; that is recorded here, not derived
    r11, r13 = make_ring(11, 3, sqrt_q=5), make_ring(13, 3, sqrt_q=4)
    assert glue(r11, "int", spec).is_zero()
    assert len(glue(r13, "int", spec).chars) == 2
    assert glue(make_ring(143, 3, sqrt_q=82), "int", spec).is_zero()


RINGS = (R11, R7, R5, make_ring(143, 3, sqrt_q=82),
         make_ring(121, 3, sqrt_q=27))
EXPONENTS = st.sampled_from(
    [Fraction(k, 2) for k in range(-6, 7)] + [Fraction(1, 3)])
SPECS = st.one_of(
    st.sampled_from(["triv", "st"]),
    st.builds("{}^{}".format, st.sampled_from(["absdet", "nrd"]), EXPONENTS),
    st.builds("{}({},{})".format, st.sampled_from(["ind", "ps"]),
              EXPONENTS, EXPONENTS))


def _outcome(fn, *args):
    try:
        return fn(*args).to_json()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RINGS), st.sampled_from(["int", "integral", "half"]),
       SPECS)
def test_glue_matches_the_provenance_path(ring, slope, spec):
    # same table, or the same exception with the same message
    assert _outcome(glue, ring, slope, spec) == \
        _outcome(provenance_glue, ring, slope, spec)
    assert _outcome(hc_tilde, ring, slope, spec) == \
        _outcome(provenance_hc_tilde, ring, slope, spec)


def test_glue_cuspidal_vanishes_after_witness_check():
    assert glue(R7, "int", "cusp:gl2f2-sign").is_zero()


def test_glue_cuspidal_rejects_trivial_character_table(tmp_path):
    table = {
        "group": "GL2(F2)",
        "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
        "matrices": [[[1]], [[1]]],
    }
    path = tmp_path / "fake_cusp.json"
    path.write_text(json.dumps(table))
    with pytest.raises(CuspidalWitnessFailed):
        glue(R7, "int", f"cusp:{path}")


def test_glue_cuspidal_table_file_roundtrip(tmp_path):
    # the sign table, loaded from disk, passes both witnesses
    table = {
        "group": "GL2(F2)",
        "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
        "matrices": [[[6]], [[6]]],
    }
    path = tmp_path / "sign.json"
    path.write_text(json.dumps(table))
    assert glue(R7, "int", f"cusp:{path}").is_zero()


@settings(max_examples=15, deadline=None)
@given(st.integers(-3, 3))
def test_glue_absdet_commutes_with_twist(k):
    out = glue(R11, "int", f"absdet^{k}")
    s = UnramChar.abs_power(R11, k)
    dT = TorusChar.delta_power(R11, 1)
    assert vals(out) == {
        0: [(s.value, s.value)],
        3: [(s.value * dT.chi1.value % 11, s.value * dT.chi2.value % 11)]}


@settings(max_examples=15, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4))
def test_glue_ps_degree_support_window(a, b):
    out = glue(R11, "int", f"ps({a},{b})")
    support = set(out.chars)
    assert support in (set(), {0, 1}, {1, 2}, {2, 3})
    # generic: chi1/chi2 avoids 1, q and 1/q, so every counting rule is zero
    ratio = TorusChar.from_exponents(R11, a, b).ts_value()
    if ratio not in (1, R11.q_pow(1), R11.q_pow(-1)):
        assert support == set()


# ---------------------------------------------------------------- output


def test_graded_char_module_json_schema():
    out = glue(R11, "int", "ps(0,0)")
    blob = json.loads(json.dumps(out.to_json()))
    assert set(blob) == {"degrees"}
    assert set(blob["degrees"]) == {"1", "2"}
    entry = blob["degrees"]["1"][0]
    assert set(entry) == {"z1", "z2"}
    assert entry["z1"]["val"] == 5
    assert entry["z1"]["exp"] == "-1/2"
    assert entry["z2"] == {"val": 9, "exp": "1/2"}


def test_graded_char_module_zero_json():
    out = glue(R11, "int", "ps(0,2)")
    assert out.to_json() == {"degrees": {}}


# ------------------------------------------------------ compact generators


def test_compact_generator_ranks_frozen():
    ranks = compact_generator_ranks(1, 3, 11, 1)
    assert ranks == {2: 6, 3: 8, 4: 2}
    ranks = compact_generator_ranks(1, 2, 7, 2)
    assert ranks[2] == 4
    assert ranks == {2: 4, 3: 6, 4: 2}
    ranks = compact_generator_ranks(2, 2, 7, 1)
    # |O*/(1+pi^2 O)| = 2, orbits = 6 at k = 2
    assert ranks == {2: 10, 3: 12, 4: 2}
