"""Finite-level models: induced/Steinberg reps, fixed points, Jacquet oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from strata_glue.lambda_core import (
    CoeffRing,
    identity_matrix,
    iso_class,
    make_ring,
    mat_mul,
)
from strata_glue.padic_core import (
    PrecisionExhausted,
    SubgroupSpec,
    elem_lower,
    elem_upper,
    laurent_matrix,
    orbits,
)
from strata_glue import finite_rep
from strata_glue.finite_rep import (
    LevelMismatch,
    NonInvertibleOrder,
    NotStabilized,
    averaging_projector,
    dual_rep,
    fixed_points,
    induced_rep,
    inflate,
    jacquet_oracle,
    parse_rep_spec,
    steinberg,
    tensor,
    trivial_rep,
    twist,
    unram_pair,
)

R11 = make_ring(11, 3, sqrt_q=5)
R5 = make_ring(5, 2)
R7 = make_ring(7, 2, sqrt_q=3)


def free_rank(mod, n):
    ic = iso_class(mod)
    assert all(f == n for f in ic), ic
    return len(ic)


# ----------------------------------------------------------- construction

def test_trivial_rep_shape():
    sig = trivial_rep(R11, 2)
    assert sig.rank == 1
    g = elem_upper(3, 1)
    assert sig.action_matrix(g).entries == ((1,),)

def test_induced_ranks():
    assert induced_rep(R5, (1, 1), 1).rank == 3
    assert induced_rep(R11, (1, 1), 2).rank == 12

def test_steinberg_rank():
    assert steinberg(R5, 1).rank == 2
    assert steinberg(R11, 2).rank == 11

def test_induced_trivial_chi_is_permutation():
    sig = induced_rep(R11, (1, 1), 2)
    a = sig.action_matrix(elem_upper(3, 1))
    for row in a.entries:
        assert sorted(row) == [0] * 11 + [1]

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_action_composes(a, b, c, d):
    g = laurent_matrix(3, [[a, b], [c, d]])
    if (a * d - b * c) % 3 == 0:
        return
    h = laurent_matrix(3, [[1, 2], [3, 1]])
    for chi in ((1, 1), unram_pair(R11, 1, 0)):
        sig = induced_rep(R11, chi, 2)
        lhs = mat_mul(R11, sig.action_matrix(g).entries,
                      sig.action_matrix(h).entries, sig.rank)
        assert tuple(map(tuple, lhs)) == sig.action_matrix(g.mul(h)).entries


# ----------------------------------------------------------- fixed points

def test_fixed_ind_trivial_U():
    # transitive action: constants only
    for ring, p, m in ((R5, 2, 1), (R11, 3, 2)):
        sig = induced_rep(ring, (1, 1), m)
        fx = fixed_points(sig, SubgroupSpec("U", m=m))
        assert free_rank(fx, ring.n) == 1

def test_fixed_ind_trivial_gamma0():
    sig = induced_rep(R11, (1, 1), 2)
    fx = fixed_points(sig, SubgroupSpec("Gamma0", m=2))
    assert free_rank(fx, 11) == 2

def test_fixed_rank_equals_orbit_count():
    # cross-module check against the orbit partition
    p, m = 3, 2
    sig = induced_rep(R11, (1, 1), m)
    for kind, kw in (("U", {}), ("Gamma0", {}), ("Gamma_k", {"k": 1})):
        spec = SubgroupSpec(kind, m=m, **kw)
        fx = fixed_points(sig, spec)
        assert free_rank(fx, 11) == len(orbits(spec, m, p=p))

def test_fixed_brute_force_small():
    # enumerate all of (Z/5)^3 against the two SL2(O) generators
    sig = induced_rep(R5, (1, 1), 1)
    mats = [sig.action_matrix(g).entries
            for g in (elem_upper(2, 1), elem_lower(2, 1))]

    def hits(v):
        for a in mats:
            if tuple(sum(a[i][j] * v[j] for j in range(3)) % 5
                     for i in range(3)) != v:
                return False
        return True

    brute = {v for v in
             ((x, y, z) for x in range(5) for y in range(5) for z in range(5))
             if hits(v)}
    fx = fixed_points(sig, SubgroupSpec("U", m=1))
    assert len(brute) == fx.size() == 5
    for row in fx.witness_rows:
        assert row in brute

def test_fixed_steinberg():
    sig = steinberg(R11, 2)
    assert fixed_points(sig, SubgroupSpec("U", m=2)).size() == 1
    assert free_rank(fixed_points(sig, SubgroupSpec("Gamma0", m=2)), 11) == 1

def test_fixed_uprime_transitive():
    sig = induced_rep(R11, (1, 1), 2)
    fx = fixed_points(sig, SubgroupSpec("Uprime", m=2))
    assert free_rank(fx, 11) == 1

def test_fixed_uprime_matches_U_rank():
    # conjugation by eta is an isomorphism between the two fixed spaces
    for sig in (induced_rep(R11, (1, 1), 2),
                steinberg(R11, 2),
                induced_rep(R11, unram_pair(R11, "1/2", "-1/2"), 2)):
        a = fixed_points(sig, SubgroupSpec("U", m=2))
        b = fixed_points(sig, SubgroupSpec("Uprime", m=2))
        assert len(iso_class(a)) == len(iso_class(b))
        # the integral Uprime generator really fixes the witnesses
        low = sig.action_matrix(elem_lower(3, 1, 1)).entries
        for row in b.witness_rows:
            img = tuple(sum(low[i][j] * row[j] for j in range(sig.rank)) % 11
                        for i in range(sig.rank))
            assert img == row


# ----------------------------------------------------- averaging projector

def test_averaging_trivial_is_identity():
    sig = trivial_rep(R11, 1)
    e = averaging_projector(sig, SubgroupSpec("U", m=1))
    assert e.matrix.entries == ((1,),)

def test_averaging_regular_rep():
    # order-3 element of GL2(F2) acting by cyclic shift: free orbit
    from strata_glue.lambda_core import LambdaMatrix, howell_form
    w = ((0, 1), (1, 1))
    table = {w: ((0, 0, 1), (1, 0, 0), (0, 1, 0))}
    sig = inflate(R5, 2, table, rank=3)
    e = averaging_projector(sig, [laurent_matrix(2, [[0, 1], [1, 1]])])
    ee = mat_mul(R5, e.matrix.entries, e.matrix.entries, 3)
    assert tuple(map(tuple, ee)) == e.matrix.entries
    img = howell_form(LambdaMatrix(R5, e.image_rows(), cols=3))
    assert img.nrows == 1

def test_averaging_gamma0_image():
    from strata_glue.lambda_core import LambdaMatrix, howell_form
    sig = induced_rep(R11, (1, 1), 2)
    e = averaging_projector(sig, SubgroupSpec("Gamma0", m=2))
    ee = mat_mul(R11, e.matrix.entries, e.matrix.entries, sig.rank)
    assert tuple(map(tuple, ee)) == e.matrix.entries
    img = howell_form(LambdaMatrix(R11, e.image_rows(), cols=sig.rank))
    assert img.nrows == 2

def test_averaging_noninvertible_order():
    ring = CoeffRing(6, 997)
    w = ((0, 1), (1, 1))
    table = {w: ((0, 0, 1), (1, 0, 0), (0, 1, 0))}
    sig = inflate(ring, 2, table, rank=3)
    with pytest.raises(NonInvertibleOrder):
        averaging_projector(sig, [laurent_matrix(2, [[0, 1], [1, 1]])])


# ----------------------------------------------------------- Jacquet oracle

def test_jacquet_ind_trivial():
    res = jacquet_oracle(induced_rep(R11, (1, 1), 2))
    assert res.stabilized_rank == 2
    mpi = res.torus_action["pi"].entries
    assert mpi[1][0] == 0
    assert mpi[0][0] == R11.inv(3)  # q^{-1}
    assert mpi[1][1] == 1
    assert res.filtration == ((4, 3), (1, 1))
    assert res.split is True
    assert res.stabilization_level == 2

def test_jacquet_ind_01():
    chi = unram_pair(R11, 0, 1)
    assert chi == (1, 4)
    res = jacquet_oracle(induced_rep(R11, chi, 2))
    assert res.stabilized_rank == 2
    assert res.filtration == ((5, 3), (1, 4))
    assert res.split is True

def test_jacquet_ind_10_nonsplit():
    chi = unram_pair(R11, 1, 0)
    assert chi == (4, 1)
    res = jacquet_oracle(induced_rep(R11, chi, 2))
    assert res.filtration[0] == res.filtration[1] == (4, 1)
    assert res.split is False
    off = res.torus_action["pi"].entries[0][1]
    assert R11.is_unit(off)  # genuinely non-diagonalizable

def test_jacquet_halfdelta_nonsplit():
    chi = unram_pair(R11, "1/2", "-1/2")  # delta_T^{-1/2}
    assert chi == (9, 5)
    res = jacquet_oracle(induced_rep(R11, chi, 2))
    assert res.stabilized_rank == 2
    assert res.filtration[0] == res.filtration[1] == (9, 5)
    assert res.split is False
    assert R11.is_unit(res.torus_action["pi"].entries[0][1])

def test_jacquet_steinberg():
    res = jacquet_oracle(steinberg(R11, 2))
    assert res.stabilized_rank == 1
    assert res.torus_action["pi"].entries == ((4,),)   # delta_T^{-1}(pi,1)
    assert res.filtration == ((4, 3),)

def test_jacquet_torus_matrices_commute():
    for chi in ((1, 1), unram_pair(R11, 0, 1), unram_pair(R11, 1, 0)):
        res = jacquet_oracle(induced_rep(R11, chi, 2))
        a = res.torus_action["pi"].entries
        b = res.torus_action["pi2"].entries
        k = res.stabilized_rank
        assert mat_mul(R11, a, b, k) == mat_mul(R11, b, a, k)

def test_jacquet_not_stabilized():
    with pytest.raises(NotStabilized):
        jacquet_oracle(induced_rep(R11, (1, 1), 2), j_max=1)

def test_jacquet_singular_pi_is_named(monkeypatch):
    # agreeing stages with a pi-matrix singular mod n are not "no agreement"
    monkeypatch.setattr(finite_rep, "_scaled_inverse", lambda *a: None)
    with pytest.raises(NotStabilized,
                       match=r"stages 1 and 2 agreed, but their pi-matrix "
                             r".* is not invertible mod 11"):
        jacquet_oracle(induced_rep(R11, (1, 1), 2))

def test_jacquet_needs_precision():
    sig = induced_rep(R11, (1, 1), 2, precision=3)
    with pytest.raises(PrecisionExhausted):
        jacquet_oracle(sig)


# ------------------------------------------------- tensor, twist, inflate

def test_tensor_with_trivial():
    sig = induced_rep(R11, (1, 1), 2)
    both = tensor(sig, trivial_rep(R11, 2))
    g = elem_upper(3, 2)
    assert both.rank == sig.rank
    assert both.action_matrix(g).entries == sig.action_matrix(g).entries

def test_tensor_level_mismatch():
    with pytest.raises(LevelMismatch):
        tensor(induced_rep(R11, (1, 1), 2), induced_rep(R11, (1, 1), 1))

def test_twist_by_absdet_on_sl2():
    # det = 1 on SL2 subgroups, so fixed ranks cannot move
    sig = steinberg(R11, 2)
    tw = twist(sig, R11.inv(3))
    for kind in ("U", "Gamma_k"):
        spec = SubgroupSpec(kind, m=2, k=1)
        assert fixed_points(sig, spec).size() == fixed_points(tw, spec).size()

def test_sign_inflation_witnesses():
    # sign of GL2(F2) ~ S3: both depth-zero witnesses vanish over Z/7
    from strata_glue.finite_rep import gl2_f2_sign
    sig = gl2_f2_sign(R7)
    a = sig.action_matrix(elem_upper(2, 1)).entries
    assert a == ((-1 % 7,),)
    fx = fixed_points(sig, SubgroupSpec("Gamma0", m=1))
    assert fx.size() == 1
    coin = (a[0][0] - 1) % 7
    assert R7.is_unit(coin)  # coinvariants V/(gv - v) = 0


# ------------------------------------------------------------------- dual

def test_dual_pairing_invariance():
    chi = unram_pair(R11, 1, 0)
    sig = induced_rep(R11, chi, 2)
    dl = dual_rep(sig)
    ident = identity_matrix(R11, sig.rank).entries
    for g in (elem_upper(3, 1), elem_lower(3, 1),
              laurent_matrix(3, [[2, 0], [0, 1]])):
        prod = mat_mul(R11, dl.action_matrix(g).transpose().entries,
                       sig.action_matrix(g).entries, sig.rank)
        assert tuple(map(tuple, prod)) == ident

def test_dual_trivial_chi():
    sig = induced_rep(R11, (1, 1), 2)
    assert dual_rep(sig).chi == (1, 1)
    assert dual_rep(steinberg(R11, 2)).kind == "steinberg"


# ---------------------------------------------------------------- grammar

def test_parse_rep_spec():
    from fractions import Fraction
    assert parse_rep_spec("triv") == ("triv",)
    assert parse_rep_spec("st") == ("st",)
    assert parse_rep_spec("ind(1,0)") == ("ind", Fraction(1), Fraction(0))
    assert parse_rep_spec("ps(1/2,-1/2)") == (
        "ps", Fraction(1, 2), Fraction(-1, 2))
    assert parse_rep_spec("absdet^-1") == ("absdet", Fraction(-1))
    assert parse_rep_spec("absdet^1/2") == ("absdet", Fraction(1, 2))
    assert parse_rep_spec("char(3,9)") == ("char", 3, 9)
    assert parse_rep_spec("cusp:/tmp/table.json") == ("cusp", "/tmp/table.json")
    assert parse_rep_spec("nrd^2") == ("nrd", Fraction(2))
    with pytest.raises(ValueError):
        parse_rep_spec("weil(2)")
