"""Finite-level models: induced/Steinberg reps, fixed points, Jacquet oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from strata_glue.lambda_core import (
    CoeffRing,
    LambdaMatrix,
    howell_form,
    iso_class,
    make_ring,
)
from strata_glue.padic_core import (
    SubgroupSpec,
    UnsupportedSubgroup,
    p1_size,
)
from strata_glue import finite_rep, lambda_core, padic_core, sl2_coh
from strata_glue.char_engine import jacquet_symbolic
from strata_glue.cli import _check_jacquet
from bruteforce import (DiscStageEngine, NonInvertibleOrder, PointStageEngine,
                        RowStageEngine, SlotStageEngine, _chi_val,
                        _eta_inv_images,
                        action_matrix, averaging_projector, elem_lower,
                        elem_upper, expand_cells, laurent_matrix,
                        loop_pull_table, mat_mul, orbits, per_point_pull)
from bruteforce import fixed_points as dense_fixed_points
from bruteforce import orbit_fixed_points
from strata_glue.finite_rep import (
    NotStabilized,
    _scaled_inverse,
    fixed_points,
    gl2_f2_sign,
    induced_rep,
    inflate,
    jacquet_oracle,
    parse_rep_spec,
    rep_model,
    steinberg,
    trivial_rep,
    unram_pair,
)
from strata_glue.sl2_coh import cohomology_report

R11 = make_ring(11, 3, sqrt_q=5)
R5 = make_ring(5, 2)
R7 = make_ring(7, 2, sqrt_q=3)
R143 = make_ring(143, 3, 82)
R121 = make_ring(121, 3, 27)


def free_rank(mod, n):
    ic = iso_class(mod)
    assert all(f == n for f in ic), ic
    return len(ic)


# ----------------------------------------------------------- construction

def test_trivial_rep_shape():
    sig = trivial_rep(R11, 2)
    assert sig.rank == 1
    g = elem_upper(3, 1)
    assert action_matrix(sig, g).entries == ((1,),)

def test_induced_ranks():
    assert induced_rep(R5, (1, 1), 1).rank == 3
    assert induced_rep(R11, (1, 1), 2).rank == 12

def test_steinberg_rank():
    assert steinberg(R5, 1).rank == 2
    assert steinberg(R11, 2).rank == 11

def test_induced_trivial_chi_is_permutation():
    sig = induced_rep(R11, (1, 1), 2)
    a = action_matrix(sig, elem_upper(3, 1))
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
        lhs = mat_mul(R11, action_matrix(sig, g).entries,
                      action_matrix(sig, h).entries, sig.rank)
        assert tuple(map(tuple, lhs)) == action_matrix(sig, g.mul(h)).entries


# ----------------------------------------------------------- fixed points

def test_fixed_ind_trivial_U():
    # transitive action: constants only
    for ring, p, m in ((R5, 2, 1), (R11, 3, 2)):
        sig = induced_rep(ring, (1, 1), m)
        fx = fixed_points(sig, SubgroupSpec("U"))
        assert free_rank(fx, ring.n) == 1

def test_fixed_ind_trivial_gamma0():
    sig = induced_rep(R11, (1, 1), 2)
    fx = fixed_points(sig, SubgroupSpec("Gamma0"))
    assert free_rank(fx, 11) == 2

def test_fixed_rank_equals_orbit_count():
    # cross-module check against the orbit partition
    p, m = 3, 2
    sig = induced_rep(R11, (1, 1), m)
    for kind in ("U", "Gamma0"):
        spec = SubgroupSpec(kind)
        fx = fixed_points(sig, spec)
        assert free_rank(fx, 11) == len(orbits(spec, m, p=p))

def test_fixed_brute_force_small():
    # enumerate all of (Z/5)^3 against the two SL2(O) generators
    sig = induced_rep(R5, (1, 1), 1)
    mats = [action_matrix(sig, g).entries
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
    fx = point_fixed_points(sig, SubgroupSpec("U"))
    assert len(brute) == fx.size() == 5
    for row in fx.witness_rows:
        assert row in brute

def test_fixed_steinberg():
    sig = steinberg(R11, 2)
    assert fixed_points(sig, SubgroupSpec("U")).size() == 1
    assert free_rank(fixed_points(sig, SubgroupSpec("Gamma0")), 11) == 1

def test_fixed_uprime_transitive():
    sig = induced_rep(R11, (1, 1), 2)
    fx = fixed_points(sig, SubgroupSpec("Uprime"))
    assert free_rank(fx, 11) == 1

def test_fixed_uprime_matches_U_rank():
    # conjugation by eta is an isomorphism between the two fixed spaces
    for sig in (induced_rep(R11, (1, 1), 2),
                steinberg(R11, 2),
                induced_rep(R11, unram_pair(R11, "1/2", "-1/2"), 2)):
        a = fixed_points(sig, SubgroupSpec("U"))
        b = point_fixed_points(sig, SubgroupSpec("Uprime"))
        assert len(iso_class(a)) == len(iso_class(b))
        # the integral Uprime generator really fixes the witnesses
        low = action_matrix(sig, elem_lower(3, 1, 1)).entries
        for row in b.witness_rows:
            img = tuple(sum(low[i][j] * row[j] for j in range(sig.rank)) % 11
                        for i in range(sig.rank))
            assert img == row


# U, Uprime and Gamma0 rows in cell coordinates: (big cell, [s:1]) on an
# induced model, [s:1] minus big cell on Steinberg; 3^-1 is 4 mod 11 and
# 48 mod 143, 3^-5 is 1 mod 11 and 133 mod 143
_CELL_ROWS = {
    (11, "triv"): (((1,),), ((1,),), ((1,),)),
    (11, "st"): ((), (), ((1,),)),
    (11, "ind(0,1)"): (((1, 1),), ((1, 4),), ((1, 0), (0, 1))),
    (11, "ind(0,5)"): (((1, 1),), ((1, 1),), ((1, 0), (0, 1))),
    (143, "triv"): (((1,),), ((1,),), ((1,),)),
    (143, "st"): ((), (), ((1,),)),
    (143, "ind(0,1)"): (((1, 1),), ((1, 48),), ((1, 0), (0, 1))),
    (143, "ind(0,5)"): (((1, 1),), ((1, 133),), ((1, 0), (0, 1))),
}


def test_fixed_rows_are_cell_vectors_at_every_level():
    # the same rows at every level, level 40 included
    for ring in (R11, R143):
        for spec in ("triv", "st", "ind(0,1)", "ind(0,5)"):
            for m in (1, 2, 3, 4, 40):
                sig = rep_model(ring, spec, m)
                got = tuple(fixed_points(sig, SubgroupSpec(k)).witness_rows
                            for k in ("U", "Uprime", "Gamma0"))
                assert got == _CELL_ROWS[ring.n, spec], (ring.n, spec, m)


# ---------------------------- closed forms against the orbit and dense paths

def point_fixed_points(sig, spec):
    # the closed forms with their witness rows expanded from cell to point
    # coordinates, as the dense and orbit paths present them
    fx = fixed_points(sig, spec)
    fx.witness_rows = expand_cells(sig, fx.witness_rows)
    return fx


def _fixed_outcome(fn, sig, spec):
    # the presentation, or the exception's class and message
    try:
        fx = fn(sig, spec)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)
    return fx.ambient, fx.witness_rows, fx.relations.entries


def _congruence_models(ring, m):
    return [rep_model(ring, "ind(0,1)", m), steinberg(ring, m),
            trivial_rep(ring, m)]


# (ring, levels): every level whose line has at most 3000 points
_ORBIT_GRID = [(R11, range(1, 8)), (R7, range(1, 11)),
               (R143, range(1, 8)), (R121, range(1, 8)),
               (make_ring(13, 5), range(1, 5)),
               (make_ring(13, 7), range(1, 5)), (R5, range(1, 11))]


@pytest.mark.parametrize("ring,levels", _ORBIT_GRID,
                         ids=[f"n{r.n}-p{r.p}" for r, _ in _ORBIT_GRID])
def test_closed_form_fixed_points_match_orbit_path(ring, levels):
    # the U and Gamma0 closed forms against the span of orbit indicators
    specs = ("triv", "st", "ind(0,0)", "ind(0,1)", "ind(0,5)", "ind(2,-3)",
             "ind(1,0)")
    for m in levels:
        assert p1_size(ring.p, m) <= 3000
        for sig in (rep_model(ring, s, m) for s in specs):
            for kind in ("U", "Gamma0"):
                spec = SubgroupSpec(kind)
                assert (_fixed_outcome(point_fixed_points, sig, spec)
                        == _fixed_outcome(orbit_fixed_points, sig, spec)), (
                    ring.n, ring.p, m, sig, kind)


def test_orbit_path_builds_no_action_matrix(monkeypatch):
    # neither the fixed points nor the cohomology that reads them build an
    # action matrix or sweep an orbit
    def refuse(*args):
        raise AssertionError("dense action matrix built or orbits swept")

    models = _congruence_models(R11, 2)
    reports = _congruence_models(R11, 3)
    want = {}
    for kind in ("U", "Uprime", "Gamma0"):
        for i, sig in enumerate(models):
            want[kind, i] = _fixed_outcome(dense_fixed_points, sig,
                                           SubgroupSpec(kind))
    want_reports = [cohomology_report(sig) for sig in reports]
    monkeypatch.setattr(finite_rep.FiniteRep, "action_matrix", refuse)
    monkeypatch.setattr(padic_core, "_fibres", refuse)
    for (kind, i), out in want.items():
        spec = SubgroupSpec(kind)
        assert _fixed_outcome(point_fixed_points, models[i], spec) == out
    assert [cohomology_report(sig) for sig in reports] == want_reports
    assert not hasattr(finite_rep, "orbits")
    assert not hasattr(sl2_coh, "orbits")


@pytest.mark.parametrize("kind", ["T", "B", "eta", "Gamma_k", "K_m"])
def test_fixed_points_refuse_kinds_outside_gl2_o(kind):
    # only the tree's stabilizers U, Uprime and Gamma0 have fixed points:
    # every model kind refuses the rest, the trivial one included
    models = _congruence_models(R11, 1) + [gl2_f2_sign(R7)]
    for sig in models:
        with pytest.raises(UnsupportedSubgroup, match=f"^{kind}$"):
            fixed_points(sig, SubgroupSpec(kind))


def test_uprime_unsupported_kinds():
    sig = gl2_f2_sign(R7)
    with pytest.raises(UnsupportedSubgroup, match="Uprime"):
        fixed_points(sig, SubgroupSpec("Uprime"))


def test_uprime_reads_one_level_up():
    # the closed-form Uprime line agrees with the reference, which reads
    # the dense eta-inverse matrix into the level-(m+1) model, on every
    # model kind and on twisted models: ind(0,5) over Z/143 has
    # c2 = 3^-5, which is 1 mod 11 but not mod 13
    spec = SubgroupSpec("Uprime")
    specs = ("triv", "st", "ind(0,0)", "ind(0,1)", "ind(0,5)", "ind(2,-3)",
             "ind(1/2,-1/2)")
    for ring in (R11, R7, R143, R121):
        for m in (1, 2, 3):
            for sig in (rep_model(ring, s, m) for s in specs):
                assert (_fixed_outcome(dense_fixed_points, sig, spec)
                        == _fixed_outcome(point_fixed_points, sig, spec)), (
                    ring.n, m, sig)


# ----------------------------------------------------- averaging projector

def test_averaging_trivial_is_identity():
    sig = trivial_rep(R11, 1)
    e = averaging_projector(sig, SubgroupSpec("U"))
    assert e.matrix.entries == ((1,),)

def test_averaging_regular_rep():
    # order-3 element of GL2(F2) acting by cyclic shift: free orbit
    w = ((0, 1), (1, 1))
    table = {w: ((0, 0, 1), (1, 0, 0), (0, 1, 0))}
    sig = inflate(R5, 2, table, rank=3)
    e = averaging_projector(sig, [laurent_matrix(2, [[0, 1], [1, 1]])])
    ee = mat_mul(R5, e.matrix.entries, e.matrix.entries, 3)
    assert tuple(map(tuple, ee)) == e.matrix.entries
    img = howell_form(LambdaMatrix(R5, e.image_rows(), cols=3))
    assert img.nrows == 1

def test_averaging_gamma0_image():
    # the projector's image is the fixed space, Howell row for Howell row,
    # under Gamma0 and U alike
    for m in (1, 2):
        for spec in ("ind(0,1)", "st"):
            sig = rep_model(R11, spec, m)
            for kind in ("Gamma0", "U"):
                e = averaging_projector(sig, SubgroupSpec(kind))
                img = howell_form(
                    LambdaMatrix(R11, e.image_rows(), cols=sig.rank))
                fx = point_fixed_points(sig, SubgroupSpec(kind))
                assert img.entries == fx.witness_rows

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

def test_not_stabilized_carries_stage_summaries():
    with pytest.raises(NotStabilized,
                       match="no two consecutive stages agreed up to "
                             "j_max=1") as info:
        jacquet_oracle(induced_rep(R11, (1, 1), 2), j_max=1)
    eng = finite_rep._StageEngine(R11, 3, 2, 3, (1, 1))
    assert info.value.stages == tuple((j, *eng.stage(j)) for j in (0, 1))
    assert info.value.stages[0][1:] != info.value.stages[1][1:]

def test_jacquet_singular_pi_is_named(monkeypatch):
    # agreeing stages with a pi-matrix singular mod n are not "no agreement"
    monkeypatch.setattr(finite_rep, "_scaled_inverse", lambda *a: None)
    with pytest.raises(NotStabilized,
                       match=r"stages 1 and 2 agreed, but their pi-matrix "
                             r".* is not invertible mod 11"):
        jacquet_oracle(induced_rep(R11, (1, 1), 2))

def test_singular_pi_carries_stage_summaries(monkeypatch):
    monkeypatch.setattr(finite_rep, "_scaled_inverse", lambda *a: None)
    with pytest.raises(NotStabilized, match="stages 1 and 2 agreed") as info:
        jacquet_oracle(induced_rep(R11, (1, 1), 2))
    stages = info.value.stages
    assert [s[0] for s in stages] == [0, 1, 2]
    assert stages[1][1:] == stages[2][1:] and stages[2][2] is not None

def _disc_coords(ref, slot, v, j):
    """Disc coordinates of a smoothed point vector: per slot, the value at
    each of its points over the reference's w_out, which must agree."""
    n = ref.n
    keys, _, w_out = ref._discs(j)
    coords = {}
    for k, key, w, x in zip(slot, keys, w_out, v):
        val = x if key is None else x * pow(w, -1, n) % n
        assert coords.setdefault(k, val) == val
    return [coords[k] for k in range(len(coords))]


@pytest.mark.parametrize("ring, p, m, chi", [
    (R7, 2, 4, (1, 2)),    # the deep tier's level-4 oracle over Z/7
    (R11, 3, 2, (0, 1)),   # verify-all's level-2 oracle over Z/11
])
def test_pull_table_matches_per_point_pullback(ring, p, m, chi):
    # each of the disc reference's transfer tables is the point reference's
    # per-point pullback followed by its smoothing, read in disc coordinates
    chi = unram_pair(ring, *chi)
    eng = DiscStageEngine(ring, p, m, 2 * m + 2, chi)
    ref = PointStageEngine(ring, p, m, 2 * m + 2, chi)
    rng = random.Random(f"pull:{ring.n}:{m}")
    for j in range(m + 3):
        slot, _, width = eng._slots(j)
        keys = ref._discs(j)[0]
        assert len(set(zip(slot, keys))) == len(set(keys)) == width
        for d1, d2 in eng.ops:
            v = ref.smooth([rng.randrange(ring.n) for _ in range(ref.size)], j)
            want = ref.smooth(per_point_pull(ref, v, d1, d2), j)
            coords = _disc_coords(ref, slot, v, j)
            got = [0] * width
            for (k, k2), c in eng.transfer(j, d1, d2).items():
                got[k] += c * coords[k2]
            assert [x % ring.n for x in got] == _disc_coords(ref, slot,
                                                             want, j)


_PINNED = (
    [(R11, 2, s) for s in ("ind(0,0)", "ind(0,1)", "ind(1,0)",
                           "ind(1/2,-1/2)", "st")]
    + [(R7, 4, f"ind({a},{b})")
       for a, b in ((0, 0), (0, 1), (1, 0), (2, 5), (3, 3), (5, 2))]
    + [(R143, 2, "ind(0,1)"), (R143, 2, "st"), (R121, 2, "ind(0,0)"),
       (R121, 2, "ind(1/2,-1/2)"), (R11, 3, "ind(0,1)")]
    + [(R7, 2, f"ind({a},{b})") for a in range(6) for b in range(6)])


def _project(ref, summary):
    """A reference engine's stage summary (rank, mats, mpi2) as the class
    engine states it, (rank, pi-matrix or None), once every unit matrix in
    mats is checked to be the identity and mpi2 the central pi times the
    inverse of the pi-matrix, mats[0]."""
    rank, mats, mpi2 = summary
    if mats is None:
        assert mpi2 is None
        return (rank, None)
    mpi, *units = mats
    k = len(mpi)
    one = tuple(tuple(int(a == b) for b in range(k)) for a in range(k))
    assert all(u == one for u in units), units
    assert mpi2 == _scaled_inverse(ref.ring, mpi, ref.c1 * ref.c2)
    return (rank, mpi)


def _projected(ref_cls):
    """The reference engine class ref_cls behind the class engine's
    interface, for jacquet_oracle to run on: fold passed to the
    constructor, where it sets the trivial character, and each stage
    summary projected (_project)."""

    class Projected:
        def __init__(self, ring, p, m, big_l, chi, fold=False):
            self.fold = fold
            self.c1, self.c2 = chi = (1, 1) if fold else chi
            self.ref = ref_cls(ring, p, m, big_l, chi)

        def stage(self, j):
            return _project(self.ref, self.ref.stage(j, self.fold))

    return Projected


def _oracle_outcome(sig, j_max=None):
    try:
        res = jacquet_oracle(sig, j_max)
    except NotStabilized as exc:
        return ("not stabilized", str(exc), exc.stages)
    torus = {k: v.entries for k, v in res.torus_action.items()}
    return (res.stabilized_rank, torus, res.filtration, res.split,
            res.stabilization_level)


@pytest.mark.parametrize("ring, m, spec", _PINNED,
                         ids=[f"n{r.n}-m{m}-{s.replace('/', '_')}"
                              for r, m, s in _PINNED])
def test_disc_engine_matches_point_engine(ring, m, spec, monkeypatch):
    # every stage summary against the reference's, projected, and the
    # oracle's outcomes at the default window and at j_max = 1
    sig = rep_model(ring, spec, m)
    fold = spec == "st"
    eng = finite_rep._StageEngine(ring, ring.p, m, 2 * m + 2, sig.chi, fold)
    ref = PointStageEngine(ring, ring.p, m, 2 * m + 2, sig.chi)
    for j in range(m + 3):
        assert eng.stage(j) == _project(ref, ref.stage(j, fold))
    got = [_oracle_outcome(sig), _oracle_outcome(sig, 1)]
    monkeypatch.setattr(finite_rep, "_StageEngine",
                        _projected(PointStageEngine))
    assert got == [_oracle_outcome(sig), _oracle_outcome(sig, 1)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("ring", [R11, R7, R121, R143],
                         ids=lambda r: f"n{r.n}")
def test_stage_rank_is_the_howell_row_count(ring, m):
    # each stage's rank, its echelon's pivot count, against the Howell row
    # count of that stage's fibre stack, with the row of ones that folding
    # adds, over the oracle's whole window, on the slot engine that the
    # class engine is pinned against
    for spec in ("ind(0,1)", "ps(0,0)", "st"):
        sig = rep_model(ring, spec, m)
        fold = spec == "st"
        chi = (1, 1) if fold else sig.chi
        eng = SlotStageEngine(ring, ring.p, m, 2 * m + 2, chi)
        for j in range(m + 3):
            rank = eng.stage(j, fold)[0]
            stack, width = eng._fibres(), len(eng.discs) + 2
            if fold:
                stack.append(dict.fromkeys(range(width), 1))
            want = howell_form(LambdaMatrix._sparse(ring, stack, width))
            assert rank == want.nrows - fold, (spec, j)


R13 = make_ring(13, 5)
R13_7 = make_ring(13, 7)
# the reference engine keeps several tables of one entry per point: past
# this many points they run to gigabytes (p = 7 at L = 8 has 6.7 million)
_REFERENCE_POINTS = 500_000


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("ring", [R11, R7, R143, R121, R13, R13_7],
                         ids=lambda r: f"n{r.n}-p{r.p}")
def test_slot_engine_matches_disc_engine(ring, m):
    # every stage summary of the closed-form engine against the engine that
    # visits each point, projected: on the lines at the model's level, one
    # level up and at the oracle's 2m + 2, at every stage of the window,
    # with fold off under a random character and on under the trivial one
    p = ring.p
    rng = random.Random(f"slots:{ring.n}:{p}:{m}")
    units = [c for c in range(1, ring.n) if ring.is_unit(c)]
    for big_l in (m, m + 1, 2 * m + 2):
        if p ** big_l + p ** (big_l - 1) > _REFERENCE_POINTS:
            continue
        chi = (rng.choice(units), rng.choice(units))
        for fold in (False, True):
            eng = finite_rep._StageEngine(ring, p, m, big_l, chi, fold)
            ref = DiscStageEngine(ring, p, m, big_l,
                                  (1, 1) if fold else chi)
            for j in range(big_l - m + 1):
                assert eng.stage(j) == _project(ref, ref.stage(j, fold)), (
                    big_l, j, fold)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ring", [R11, R7, R143, R121, R13],
                         ids=lambda r: f"n{r.n}-p{r.p}")
def test_probes_match_transfer_rows(ring, m):
    # the slot engine's probes, applied straight from its pull terms,
    # against the transfer rows they were once built as, times the vector:
    # at every stage of the oracle's window on the level-(2m + 2) line, on
    # the frame's two vectors and a random one, and every stage summary
    # with fold on and off
    p, n = ring.p, ring.n
    rng = random.Random(f"probes:{n}:{p}:{m}")
    units = [c for c in range(1, n) if ring.is_unit(c)]
    chi = (rng.choice(units), rng.choice(units))
    eng = SlotStageEngine(ring, p, m, 2 * m + 2, chi)
    ref = RowStageEngine(ring, p, m, 2 * m + 2, chi)
    for j in range(m + 3):
        for fold in (False, True):
            assert eng.stage(j, fold) == ref.stage(j, fold), (j, fold)
        width = len(eng.discs) + 2
        vecs = [[row.get(k, 0) for k in range(width)]
                for row in eng._fibres()[:2]]
        vecs.append([rng.randrange(n) for _ in range(width)])
        for d1, d2 in eng.ops:
            assert eng._probe(d1, d2, vecs) == ref._probe(d1, d2, vecs), (
                j, d1, d2)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ring", [R11, R7, R121, R143, R13],
                         ids=lambda r: f"n{r.n}-p{r.p}")
def test_class_engine_matches_slot_engine(ring, m, monkeypatch):
    # every stage summary of the class engine against the slot engine, one
    # value per disc, projected, over the oracle's window with fold off and,
    # under the trivial character of st, on; and the oracle's outcomes at
    # the default window and at j_max = 1.  Z/13 has no square root of
    # q = 5, so its ps twist is integral
    ps = "ps(0,0)" if ring.sqrt_q is not None else "ps(1/2,1/2)"
    for spec in ("ind(0,1)", ps, "st"):
        sig = rep_model(ring, spec, m)
        ref = SlotStageEngine(ring, ring.p, m, 2 * m + 2, sig.chi)
        for fold in (False, True) if spec == "st" else (False,):
            eng = finite_rep._StageEngine(ring, ring.p, m, 2 * m + 2,
                                          sig.chi, fold)
            for j in range(m + 3):
                assert eng.stage(j) == _project(ref, ref.stage(j, fold)), (
                    spec, j, fold)
        got = [_oracle_outcome(sig), _oracle_outcome(sig, 1)]
        with monkeypatch.context() as patch:
            patch.setattr(finite_rep, "_StageEngine",
                          _projected(SlotStageEngine))
            assert got == [_oracle_outcome(sig), _oracle_outcome(sig, 1)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("ring", [R11, R7, R121, R143, R13],
                         ids=lambda r: f"n{r.n}-p{r.p}")
def test_class_vectors_expand_to_slot_vectors(ring, m):
    # a class vector is the slot vector constant on each class: both frame
    # vectors and the diag(pi, 1) image of a random class vector expand to
    # the slot engine's, at every stage of the window.  The stage summaries
    # alone do not see the classes below depth m, where the frame vanishes
    p, n = ring.p, ring.n
    rng = random.Random(f"classes:{n}:{p}:{m}")
    units = [c for c in range(1, n) if ring.is_unit(c)]
    chi = (rng.choice(units), rng.choice(units))
    eng = finite_rep._StageEngine(ring, p, m, 2 * m + 2, chi)
    ref = SlotStageEngine(ring, p, m, 2 * m + 2, chi)
    for j in range(m + 3):
        eng._begin(j)
        ref._begin(j)
        cls = [0, 1] + [eng._class(mu, c) for c, mu in ref.discs]
        width = len(cls)
        assert [[v[c] for c in cls] for v in eng._frame()] == [
            [row.get(k, 0) for k in range(width)]
            for row in ref._fibres()[:2]], j
        vecs = [[rng.randrange(n) for _ in range(len(eng.classes) + 2)]
                for _ in range(2)]
        got = eng._probe(vecs)
        want = ref._probe(p, 1, [[v[c] for c in cls] for v in vecs])
        assert [[v[c] for c in cls] for v in got] == want, j


R49 = make_ring(49, 3)
R169 = make_ring(169, 5)
R1001 = make_ring(1001, 5)


@pytest.mark.parametrize("ring", [R11, R7, R143, R121, R49, R13, R169, R1001],
                         ids=lambda r: f"n{r.n}-p{r.p}")
def test_unit_probes_fix_the_frame_and_the_rank_is_counted(ring):
    # the two facts the class engine rests on, checked on the slot engine,
    # which still probes the units and eliminates its fibre rows: every
    # unit probe maps both frame vectors to themselves, and every stage's
    # eliminated rank is 2 + (classes of depth below m) - fold, at levels
    # 1-4 over the oracle's window, fold on under the trivial character
    p = ring.p
    for m in range(1, 5):
        big_l = 2 * m + 2
        if p1_size(p, big_l) > _REFERENCE_POINTS:
            continue
        for spec in ("ind(0,1)", "ind(1,0)", "st"):
            fold = spec == "st"
            ref = SlotStageEngine(ring, p, m, big_l,
                                  rep_model(ring, spec, m).chi)
            for j in range(m + 3):
                rank = ref.stage(j, fold)[0]
                width = len(ref.discs) + 2
                frame = [[row.get(k, 0) for k in range(width)]
                         for row in ref._fibres()[:2]]
                for d1, d2 in ref.ops[1:]:
                    assert ref._probe(d1, d2, frame) == frame, (
                        m, spec, j, d1, d2)
                below = {(mu, c % p ** min(ref.kk[mu], m))
                         for c, mu in ref.discs if mu < m}
                assert rank == 2 + len(below) - fold, (m, spec, j)


def test_oracle_runs_no_elimination(monkeypatch):
    # a stage counts its rank, so no oracle eliminates: verify-all's five
    # level-2 oracles over Z/11 and the level-4 oracles over Z/7 that the
    # deep benchmark tier draws from, with every elimination refused
    def refuse(*args, **kwargs):
        raise AssertionError("elimination ran")

    monkeypatch.setattr(lambda_core, "_eliminate", refuse)
    monkeypatch.setattr(finite_rep, "_eliminate", refuse, raising=False)
    assert _check_jacquet() == {"specs": 5}
    for a in range(6):
        for b in range(6):
            spec = f"ind({a},{b})"
            res = jacquet_oracle(rep_model(R7, spec, 4))
            sym = jacquet_symbolic(R7, spec)
            assert res.filtration == tuple(c.values()
                                           for c in sym.constituents), spec
            assert (res.split, set(res.torus_action)) == (
                sym.split, {"pi", "pi2"}), spec


def _class_count(p, m, big_l, j):
    # slot 0, infinity, the residues mod p^min(kk, m) of each depth below m
    # and one class per depth from m on
    return (2 + sum((p - 1) * p ** (min(2 * mu - j, big_l, m) - mu - 1)
                    for mu in range(j + 1, min(m, big_l)))
            + max(0, big_l - max(j + 1, m)))


@pytest.mark.parametrize("ring, levels", [
    (R11, range(1, 9)), (R7, range(1, 7)), (R13, range(1, 6))],
    ids=lambda x: f"n{x.n}-p{x.p}" if hasattr(x, "n") else None)
def test_stage_width_is_the_class_count(ring, levels):
    # a stage works on its classes, about 2 p^((m - j)/2) + m + 2, not on
    # its discs, about 2 p^((2m + 2 - j)/2): at level 8 over Z/11 stage 0
    # has 118 classes and 26,244 slots
    p = ring.p
    for m in levels:
        big_l = 2 * m + 2
        eng = finite_rep._StageEngine(ring, p, m, big_l, (1, 1))
        for j in range(m + 3):
            eng.stage(j)
            assert len(eng.classes) + 2 == _class_count(p, m, big_l, j), (
                m, j)
    eng = finite_rep._StageEngine(R11, 3, 8, 18, (1, 1))
    eng._begin(0)
    ref = SlotStageEngine(R11, 3, 8, 18, (1, 1))
    ref._begin(0)
    assert (len(eng.classes) + 2, len(ref.discs) + 2) == (118, 26_244)


@pytest.mark.parametrize("ring", [R11, R7, R143, R121, R13],
                         ids=lambda r: f"n{r.n}-p{r.p}")
def test_unit_pull_tables_equal_loop(ring):
    # the disc reference's closed-form probe tables against the per-point
    # loop: the engine's own probes, diag(p, 1) among them, then unit pairs
    # off its list
    p, n = ring.p, ring.n
    rng = random.Random(f"unit-pull:{n}")
    units = [c for c in range(1, n) if ring.is_unit(c)]
    for big_l in range(1, 6):
        md = p ** big_l
        for m in range(1, big_l + 1):
            chi = (rng.choice(units), rng.choice(units))
            eng = DiscStageEngine(ring, p, m, big_l, chi)
            probes = list(eng.ops)
            md_units = [x for x in range(1, md) if x % p]
            u, v = rng.choice(md_units), rng.choice(md_units)
            probes += [(u, 1), (1, u), (u, v)]
            for d1, d2 in probes:
                assert eng._pull_table(d1, d2) == loop_pull_table(eng, d1,
                                                                  d2)


@pytest.mark.parametrize("ring,levels", [
    *((r, range(1, 6)) for r in (R11, R7, R143, R121, R13)),
    (R7, (10,)),   # the deep tier's level-4 oracle, L = 2m + 2
    (R11, (6,)),   # verify-all's level-2 oracle
], ids=lambda x: f"n{x.n}-p{x.p}" if hasattr(x, "n") else None)
def test_eta_inv_images_equal_loop_pull_table(ring, levels):
    # the diag(p, 1) probe is the central pi times diag(1, pi^-1): the
    # shared closed form at level L, its torus valuations shifted by (1, 1),
    # against the per-point loop
    p, n = ring.p, ring.n
    rng = random.Random(f"eta-pull:{n}")
    units = [c for c in range(1, n) if ring.is_unit(c)]
    for big_l in levels:
        chi = (rng.choice(units), rng.choice(units))
        eng = DiscStageEngine(ring, p, 1, big_l, chi)
        want = loop_pull_table(eng, p, 1)
        got = [(t, _chi_val(ring, chi, (a + 1, b + 1))
                * eng.w_out[t] % n)
               for t, (a, b) in _eta_inv_images(p, big_l, big_l)]
        assert got == list(zip(*want))


def _jacquet_outcome(res):
    return (res.stabilized_rank, res.filtration, res.split,
            res.stabilization_level,
            {k: v.entries for k, v in res.torus_action.items()})


def test_jacquet_window_sets_its_own_level():
    # j_max = 7 runs the stages on the level-9 line
    sig = induced_rep(R11, (1, 1), 2)
    assert (_jacquet_outcome(jacquet_oracle(sig, j_max=7))
            == _jacquet_outcome(jacquet_oracle(sig)))


@pytest.mark.parametrize("j_max", [-1, -2, -5])
def test_jacquet_rejects_a_negative_window(monkeypatch, j_max):
    def refuse(*args):
        raise AssertionError("stage engine built")

    monkeypatch.setattr(finite_rep, "_StageEngine", refuse)
    with pytest.raises(ValueError,
                       match=rf"^j_max must be at least 0, got {j_max}$"):
        jacquet_oracle(induced_rep(R11, (1, 1), 2), j_max=j_max)


# ---------------------------------------------------------------- inflate

def test_sign_inflation_witnesses():
    # sign of GL2(F2) ~ S3: both depth-zero witnesses vanish over Z/7
    from strata_glue.finite_rep import gl2_f2_sign
    sig = gl2_f2_sign(R7)
    a = sig.action_matrix(((1, 1), (0, 1))).entries
    assert a == ((-1 % 7,),)
    fx = fixed_points(sig, SubgroupSpec("Gamma0"))
    assert fx.size() == 1
    coin = (a[0][0] - 1) % 7
    assert R7.is_unit(coin)  # coinvariants V/(gv - v) = 0

@pytest.mark.parametrize("mat", [((1, 0),), ((1,), (0,)), ((1, 0), (0,))])
def test_inflate_rejects_mis_sized_matrices(mat):
    table = {((1, 1), (0, 1)): ((1, 0), (0, 1)), ((1, 0), (1, 1)): mat}
    with pytest.raises(ValueError, match="is not 2x2"):
        inflate(R7, 2, table, rank=2)


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
    assert parse_rep_spec("cusp:/tmp/table.json") == ("cusp", "/tmp/table.json")
    assert parse_rep_spec("nrd^2") == ("nrd", Fraction(2))
    for text in ("weil(2)", "char(3,9)"):
        with pytest.raises(ValueError):
            parse_rep_spec(text)
