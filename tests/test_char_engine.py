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
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from strata_glue.lambda_core import MissingSqrtQ, make_ring
from strata_glue.finite_rep import induced_rep, jacquet_oracle, steinberg
from strata_glue.char_engine import (
    CuspidalWitnessFailed,
    DegreeNotInTable,
    ExponentCollision,
    Gb2Character,
    GradedCharModule,
    HALF_RULES,
    HALF_TABLE,
    INTEGRAL_RULES,
    INTEGRAL_TABLE,
    JacquetSymbol,
    MissingProvenance,
    NonUnitWitness,
    TorusChar,
    UnramChar,
    UnsupportedSpec,
    assemble_characters,
    compact_generator_ranks,
    glue,
    hc_tilde,
    is_generic,
    jacquet_symbolic,
    ts_homology,
    verdier_dualize,
)

R11 = make_ring(11, 3, sqrt_q=5)
R7 = make_ring(7, 2, sqrt_q=3)
R5 = make_ring(5, 3)  # no square root of 3 mod 5 is installed


def vals(module):
    """Value-level snapshot {degree: sorted (z1, z2) value pairs}."""
    return {d: sorted((c.z1.value, c.z2.value) for c in chars)
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
    assert a * a.inverse() == UnramChar.abs_power(R11, 0)


def test_unram_char_semantic_equality_warns_on_collision():
    # q has order 5 in Z/11, so |.|^5 collides with the trivial character
    with pytest.warns(ExponentCollision):
        assert UnramChar.abs_power(R11, 5) == UnramChar.abs_power(R11, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert UnramChar.abs_power(R11, 2) == UnramChar.abs_power(R11, 2)
        assert UnramChar.abs_power(R11, 1) != UnramChar.abs_power(R11, 2)


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


def test_is_generic_ratio_window():
    assert not is_generic(TorusChar.from_exponents(R11, 0, 0))
    assert not is_generic(TorusChar.from_exponents(R11, 0, 1))
    assert not is_generic(TorusChar.from_exponents(R11, 1, 0))
    assert is_generic(TorusChar.from_exponents(R11, 0, 2))
    assert is_generic(TorusChar.from_exponents(R11, 3, 0))
    # q^5 = 1 mod 11: the formally-distant pair falls back into the window
    assert not is_generic(TorusChar.from_exponents(R11, 0, 5))


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


def test_ts_homology_rejects_non_unit_witness():
    bad = JacquetSymbol(
        (TorusChar.from_exponents(R11, 0, 0),), split=False, unit_witness=0)
    with pytest.raises(NonUnitWitness):
        ts_homology(bad, TorusChar.from_exponents(R11, 0, 0))


@settings(max_examples=20, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-3, 3))
def test_ts_homology_additive_over_split_symbols(a, b, t):
    sub = TorusChar.from_exponents(R11, a, b)
    quot = TorusChar.from_exponents(R11, b, a + 1)
    tw = TorusChar.from_exponents(R11, t, 0)
    joint = JacquetSymbol((sub, quot), split=True, unit_witness=1)
    total = ts_homology(joint, tw)
    parts = [ts_homology(JacquetSymbol((c,), split=False, unit_witness=1), tw)
             for c in (sub, quot)]
    assert total[0] == sum(p[0] for p in parts)
    assert total[-1] == sum(p[-1] for p in parts)


# -------------------------------------------------------------- assembly


def test_assemble_characters_pinned_examples():
    triv = UnramChar.abs_power(R11, 0)
    out = assemble_characters(4, triv, UnramChar.abs_power(R11, 1),
                              INTEGRAL_RULES)
    assert (out.z1.value, out.z2.value) == (3, 4)  # d_T
    out = assemble_characters(2, triv, triv, INTEGRAL_RULES)
    assert (out.z1.value, out.z2.value) == (1, 1)
    out = assemble_characters(3, triv,
                              UnramChar.abs_power(R11, Fraction(3, 2)),
                              INTEGRAL_RULES)
    # |.|^1 d_T^(1/2): (q^(-1) q^(1/2), q^(-1) q^(-1/2)) = (9, 3) mod 11
    assert (out.z1.value, out.z2.value) == (9, 3)
    assert out.z1.exponent == Fraction(1, 2)
    assert out.z2.exponent == Fraction(3, 2)


def test_assemble_characters_sheaf_lands_in_both_slots():
    sheaf = UnramChar.abs_power(R11, 1)
    triv = UnramChar.abs_power(R11, 0)
    out = assemble_characters(2, sheaf, triv, INTEGRAL_RULES)
    assert (out.z1.value, out.z2.value) == (4, 4)


def test_assemble_characters_unknown_degree():
    triv = UnramChar.abs_power(R11, 0)
    with pytest.raises(DegreeNotInTable):
        assemble_characters(5, triv, triv, INTEGRAL_RULES)
    with pytest.raises(DegreeNotInTable):
        assemble_characters(3, triv, triv, HALF_RULES)


def test_rule_tables_are_frozen_constants():
    assert dict(INTEGRAL_RULES.z_exponents) == {
        2: (0, 0), 3: (-1, 0), 4: (-2, 0)}
    assert dict(HALF_RULES.z_exponents) == {1: (0, 0), 2: (-2, 0)}
    assert INTEGRAL_RULES.d == 2 and HALF_RULES.d == 1
    assert dict(INTEGRAL_TABLE.rows) == {
        2: "st", 3: "ind(1,0)", 4: "absdet^1"}
    assert dict(HALF_TABLE.rows) == {1: "triv", 2: "nrd^1"}
    with pytest.raises(TypeError):
        INTEGRAL_RULES.z_exponents[2] = (9, 9)
    with pytest.raises(TypeError):
        INTEGRAL_TABLE.rows[2] = "triv"


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
    assert char.z1.exponent == Fraction(9, 2)
    assert char.z2.exponent == Fraction(11, 2)


def test_hc_tilde_half_slope():
    assert vals(hc_tilde(R11, "half", "nrd^0")) == {1: [(1, 1)], 2: [(3, 4)]}
    assert vals(hc_tilde(R11, "half", "nrd^1")) == {1: [(4, 4)], 2: [(1, 5)]}
    assert vals(hc_tilde(R7, "half", "triv")) == {1: [(1, 1)], 2: [(2, 4)]}


def test_hc_tilde_rejects_unsupported_sheaves():
    with pytest.raises(UnsupportedSpec):
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
    g = hc_tilde(R11, "int", "triv")
    assert vals(verdier_dualize(g, 2, INTEGRAL_RULES)) == {
        0: [(1, 1)], 3: [(3, 4)]}


def test_verdier_dualize_half():
    g = hc_tilde(R11, "half", "nrd^1")
    assert vals(verdier_dualize(g, 1, HALF_RULES)) == {
        0: [(4, 4)], 1: [(1, 5)]}


def test_verdier_dualize_empty_is_empty():
    g = hc_tilde(R11, "int", "ps(0,2)")
    assert verdier_dualize(g, 2, INTEGRAL_RULES).is_zero()


def test_verdier_dualize_requires_provenance():
    bare = GradedCharModule(
        R11, {0: (Gb2Character(UnramChar.abs_power(R11, 0),
                               UnramChar.abs_power(R11, 0)),)})
    with pytest.raises(MissingProvenance):
        verdier_dualize(bare, 2, INTEGRAL_RULES)


def test_verdier_dualize_checks_dimension_against_rules():
    g = hc_tilde(R11, "int", "triv")
    with pytest.raises(ValueError):
        verdier_dualize(g, 1, INTEGRAL_RULES)


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


def test_glue_cuspidal_vanishes_after_witness_check():
    out = glue(R7, "int", "cusp:gl2f2-sign")
    assert out.is_zero()
    assert out.provenance == ("integral", "cusp:gl2f2-sign")


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
    if is_generic(TorusChar.from_exponents(R11, a, b)):
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
