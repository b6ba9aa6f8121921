"""Finite-level projective line, subgroup images, the orbit
classification, and the reference act() and orbit sweep they are pinned
against."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import (PrecisionExhausted, ProjPoint, _eta_inv_images,
                        _in_gl2_o, _integral_images, _unit_inverses, act,
                        act_sweep_orbits, closure_size, diag_matrix,
                        enumerate_p1, laurent_matrix, level_generators,
                        orbits, point_index, pow_unit_inverses,
                        residue_sweep_orbits)
from bruteforce import subgroup_generators as ref_generators
from strata_glue import padic_core
from strata_glue.cli import main
from strata_glue.lambda_core import BanalityViolation
from strata_glue.padic_core import (
    ClassificationMismatch,
    SubgroupSpec,
    UnsupportedSubgroup,
    orbit_classification_check,
    p1_size,
    point_label,
    project,
    subgroup_generators,
)
from strata_glue.padic_core import _unit_gens


# ------------------------------------------------------------ enumerate_p1

def test_p1_counts():
    assert len(enumerate_p1(2, 2)) == 6
    assert len(enumerate_p1(3, 2)) == 12
    assert len(enumerate_p1(2, 3)) == 12
    assert len(enumerate_p1(5, 1)) == 6

def test_p1_level1_points():
    pts = {str(x) for x in enumerate_p1(2, 1)}
    assert pts == {"[1:0]", "[1:1]", "[0:1]"}

def test_p1_distinct():
    pts = enumerate_p1(3, 3)
    assert len(set(pts)) == len(pts) == 3 ** 2 * 4


# ------------------------------------------------- the index codec

# every p in {2, 3, 5, 7} and level m >= 1 with |P^1(O/pi^m)| <= 5000
_CODEC_GRID = [(p, m) for p in (2, 3, 5, 7) for m in range(1, 12)
               if p ** m + p ** (m - 1) <= 5000]


@pytest.mark.parametrize("p,m", _CODEC_GRID)
def test_codec_matches_reference_points(p, m):
    # size, labels and projection to every coarser level against the
    # ProjPoint reference, point by point
    pts = enumerate_p1(p, m)
    assert p1_size(p, m) == len(pts)
    assert [point_index(x) for x in pts] == list(range(len(pts)))
    assert [point_label(p, m, i) for i in range(len(pts))] == list(
        map(str, pts))
    for level in range(m + 1):
        assert project(p, m, level) == [point_index(x.project(level))
                                        for x in pts], level


def test_p1_size_is_an_integer_at_level_zero():
    assert all(type(p1_size(p, 0)) is int and p1_size(p, 0) == 1
               for p in (2, 3, 5, 7))


# ---------------------------------------------------- act (the reference)

def test_act_weyl_fixed():
    # (1,1) * [[0,-1],[1,0]] = (1,-1)
    g = laurent_matrix(5, [[0, -1], [1, 0]])
    x = ProjPoint.big_cell(5, 2, 1)
    y, coc = act(x, g, 2)
    assert y == ProjPoint.big_cell(5, 2, -1)
    assert coc.scalar_val == 0
    assert coc.torus_vals == (0, 0)

def test_act_shrink_infinity_branch():
    # (s,1) * diag(1,pi) = (s,pi); for v(s)=2 the canonical point is [s/pi : 1]
    g = diag_matrix(3, 0, 1)  # diag(1, pi)
    x = ProjPoint.inf_cell(3, 4, 9)
    y, coc = act(x, g, 3)
    assert y == ProjPoint.inf_cell(3, 3, 3)
    assert coc.scalar_val == 1

def test_act_shrink_unit_ratio():
    # v(s)=1: (s,pi) rescales to the big cell, same projective point
    g = diag_matrix(3, 0, 1)
    x = ProjPoint.inf_cell(3, 4, 3)
    y, coc = act(x, g, 3)
    assert y == ProjPoint.big_cell(3, 3, 1)
    assert coc.scalar_val == 1

def test_act_identity():
    g = laurent_matrix(7, [[1, 0], [0, 1]])
    for x in enumerate_p1(7, 2):
        y, coc = act(x, g, 2)
        assert y == x and coc.scalar_val == 0 and coc.torus_vals == (0, 0)

def test_project_refuses_a_finer_level():
    x = ProjPoint.big_cell(3, 2, 5)
    assert x.project(1) == ProjPoint.big_cell(3, 1, 2)
    with pytest.raises(PrecisionExhausted,
                       match="cannot refine a point to a finer level") as exc:
        x.project(4)
    assert (exc.value.needed, exc.value.available) == (4, 2)


def test_act_precision_exhausted():
    # [1:3].diag(1,1/pi) = [1 : 3/pi], whose residue needs one spare level
    g = diag_matrix(3, 0, -1)
    x = ProjPoint.big_cell(3, 2, 3)
    with pytest.raises(PrecisionExhausted):
        act(x, g, 2)

def test_act_cocycle_additive_across_branches():
    # frozen by hand: x=[1:3] at level 4 under w then diag(1,pi)
    p = 3
    w = laurent_matrix(p, [[0, -1], [1, 0]])
    eta = diag_matrix(p, 0, 1)
    x = ProjPoint.big_cell(p, 4, 3)
    y1, c1 = act(x, w, 4)
    assert y1 == ProjPoint.inf_cell(p, 4, 78)  # -3 mod 81
    assert (c1.scalar_val, c1.torus_vals) == (0, (0, 0))
    y2, c2 = act(y1, eta, 3)
    assert y2 == ProjPoint.big_cell(p, 3, 26)  # -1 mod 27
    assert (c2.scalar_val, c2.torus_vals) == (1, (0, 1))
    y3, c3 = act(x, w.mul(eta), 3)
    assert y3 == y2
    assert c3.scalar_val == c1.scalar_val + c2.scalar_val
    assert c3.torus_vals == (0, 1)

@settings(max_examples=50, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8),
       st.integers(0, 11))
def test_act_is_right_action(a, b, c, d, ti):
    # random integral 3-adic matrices with unit determinant, level 2
    p, m = 3, 2
    g = laurent_matrix(p, [[a, b], [c, d]])
    if (a * d - b * c) % p == 0:
        return
    h = laurent_matrix(p, [[1, 1], [0, 1]])
    pts = enumerate_p1(p, m)
    x = pts[ti % len(pts)]
    y1, c1 = act(x, g, m)
    y2, c2 = act(y1, h, m)
    y3, c3 = act(x, g.mul(h), m)
    assert y2 == y3
    assert c1.scalar_val + c2.scalar_val == c3.scalar_val
    t1 = (c1.torus_vals[0] + c2.torus_vals[0], c1.torus_vals[1] + c2.torus_vals[1])
    assert t1 == c3.torus_vals


# --------------------------------------------------- subgroup_generators

def test_closure_U_level3():
    gens = subgroup_generators(SubgroupSpec("U"), p=2, m=3)
    assert closure_size(gens, 2, 3) == 384  # |SL2(Z/8)|

def test_closure_gamma1_at_level1():
    gens = subgroup_generators(SubgroupSpec("Gamma_k", k=1), p=3, m=1)
    assert closure_size(gens, 3, 1) == 1

def test_closure_gamma0_level1():
    gens = subgroup_generators(SubgroupSpec("Gamma0"), p=3, m=1)
    assert closure_size(gens, 3, 1) == 12  # Borel of GL2(F3)

def test_closure_gamma_k_sizes():
    # principal congruence image has size p^(3(m-k))
    for p, m, k in [(2, 3, 1), (3, 2, 1), (2, 3, 2)]:
        gens = subgroup_generators(SubgroupSpec("Gamma_k", k=k), p=p, m=m)
        assert closure_size(gens, p, m) == p ** (3 * (m - k))

def test_closure_K_m():
    for p, m, k in [(3, 2, 1), (2, 3, 1)]:
        gens = ref_generators(SubgroupSpec("K_m", k=k), p=p, m=m)
        assert closure_size(gens, p, m) == p ** (4 * (m - k))

def _closure_cases():
    # every (kind, p, m, k) with 1 <= k <= m <= 8 and group order <= 4096
    for kind, e in (("Gamma_k", 3), ("K_m", 4)):
        for p in (2, 3, 5, 7):
            for m in range(1, 9):
                for k in range(1, m + 1):
                    if p ** (e * (m - k)) <= 4096:
                        yield kind, p, m, k, p ** (e * (m - k))


@pytest.mark.parametrize("kind,p,m,k,order", list(_closure_cases()))
def test_generating_set_closure(kind, p, m, k, order):
    # one generating set per group: a prefix of the generators at every
    # depth in [k, m), generating the same group, of the closed-form order
    spec = SubgroupSpec(kind, k=k)
    gens = ref_generators(spec, p, m)
    every = [g.int_entries(m) for g in level_generators(spec, p, m)]
    assert ([tuple(tuple(x % p ** m for x in row) for row in g)
             for g in gens] == every[:len(gens)])
    assert closure_size(gens, p, m) == closure_size(every, p, m) == order

def _depth_zero_cases():
    # every p^m <= 50 with p in {2, 3, 5, 7}
    return [(p, m) for p in (2, 3, 5, 7) for m in range(1, 6) if p ** m <= 50]


@pytest.mark.parametrize("p,m", _depth_zero_cases())
def test_depth_zero_generates_sl2_and_gl2(p, m):
    # at k = 0, Gamma_k is SL2(O) and K_m is GL2(O): no unit 1 + p^0 = 2,
    # which is singular at p = 2 and no primitive root mod 7^m
    md = p ** m
    units = p ** (m - 1) * (p - 1)
    sl2 = p ** (3 * m - 2) * (p * p - 1)
    gamma = ref_generators(SubgroupSpec("Gamma_k", k=0), p, m)
    km = ref_generators(SubgroupSpec("K_m", k=0), p, m)
    assert closure_size(gamma, p, m) == sl2
    if sl2 * units <= 10 ** 5:
        assert closure_size(km, p, m) == sl2 * units
    # the rest by SL2 inside K_m and det onto the units: a full closure of
    # GL2(Z/49) holds 4.8M matrices
    assert km[:len(gamma)] == gamma
    dets = []
    for (a, b), (c, d) in km:
        dets.append((a * d - b * c) % md)
    seen, frontier = {1 % md}, [1 % md]
    while frontier:
        grown = {x * d % md for x in frontier for d in dets} - seen
        seen |= grown
        frontier = list(grown)
    assert all(x % p for x in seen) and len(seen) == units


def test_unsupported_subgroup():
    with pytest.raises(UnsupportedSubgroup):
        subgroup_generators(SubgroupSpec("Weyl"), p=3, m=1)


def test_k_m_and_depth_zero_are_left_to_the_reference():
    # no command reads K_m or Gamma_k at depth 0: the package refuses them
    # and the reference generators in tests/bruteforce.py keep them
    with pytest.raises(UnsupportedSubgroup, match="^K_m$"):
        subgroup_generators(SubgroupSpec("K_m", k=1), p=3, m=2)
    with pytest.raises(UnsupportedSubgroup, match="^Gamma_k at depth 0$"):
        subgroup_generators(SubgroupSpec("Gamma_k", k=0), p=3, m=2)
    for spec in (SubgroupSpec("U"), SubgroupSpec("Gamma0"),
                 SubgroupSpec("Gamma_k", k=1), SubgroupSpec("Gamma_k", k=2)):
        assert ref_generators(spec, 3, 4) == subgroup_generators(spec, 3, 4)


# the kinds outside GL2(O)'s integer generators, which no command reaches:
# Uprime has a pole, T, B and eta a non-unit determinant, Ts and N_j both
@pytest.mark.parametrize("kind", ["Uprime", "T", "Ts", "B", "eta", "N_j"])
def test_kinds_outside_gl2_o_are_unsupported(kind):
    spec = SubgroupSpec(kind)
    with pytest.raises(UnsupportedSubgroup, match=f"^{kind}$"):
        subgroup_generators(spec, p=3, m=2)
    with pytest.raises(UnsupportedSubgroup, match=f"^{kind}$"):
        orbits(spec, 2, p=3)


# ------------------------------------------------------------------ orbits

def test_orbits_gamma1_p3_m2():
    part = orbits(SubgroupSpec("Gamma_k", k=1), 2, p=3)
    assert len(part) == 4

def test_orbits_gamma0_p3_m2():
    part = orbits(SubgroupSpec("Gamma0"), 2, p=3)
    sizes = sorted(len(b) for b in part)
    assert len(part) == 2
    assert sizes == [3, 9]

def test_orbits_U_transitive():
    for p in (2, 3):
        part = orbits(SubgroupSpec("U"), 2, p=p)
        assert len(part) == 1

def test_orbits_blocks_sorted():
    part = orbits(SubgroupSpec("Gamma_k", k=1), 2, p=3)
    assert all(list(b) == sorted(b) for b in part)
    reps = [b[0] for b in part]
    assert reps == sorted(reps)
    assert point_label(3, 2, reps[0]) == "[1:0]"

def test_gamma0_refines_U_and_Uprime():
    # Uprime, the eta-conjugate of U, has a pole: only act() sweeps it
    p, m = 3, 2
    blocks0 = orbits(SubgroupSpec("Gamma0"), m, p=p)
    for big in (orbits(SubgroupSpec("U"), m, p=p),
                act_sweep_orbits(SubgroupSpec("Uprime"), m, p=p)):
        lookup = {}
        for i, b in enumerate(big):
            for x in b:
                lookup[x] = i
        for blk in blocks0:
            assert len({lookup[x] for x in blk}) == 1

def test_uprime_transitive():
    part = act_sweep_orbits(SubgroupSpec("Uprime"), 2, p=3)
    assert len(part) == 1


def test_orbits_sweep_at_the_callers_level():
    # the spec carries no level, so the unit parameters and the depths
    # kept follow the level the orbits are asked for
    part = orbits(SubgroupSpec("K_m", k=1), 3, p=2)
    assert [len(b) for b in part] == [4, 4, 4]
    assert part == residue_sweep_orbits(SubgroupSpec("K_m", k=1), 3, 2)


def test_orbits_need_level_one():
    # at level 0 no residue is a unit
    with pytest.raises(ValueError, match="^orbits need level at least 1$"):
        orbits(SubgroupSpec("U"), 0, p=3)


GRID = [(p, m) for p in (2, 3, 5) for m in (1, 2, 3)]


def _specs(m):
    # one spec per subgroup kind, every depth k < m for the principal ones
    for kind in ("U", "Gamma0"):
        yield SubgroupSpec(kind)
    for k in range(1, m):
        yield SubgroupSpec("Gamma_k", k=k)
        yield SubgroupSpec("K_m", k=k)


@pytest.mark.parametrize("p,m", GRID)
def test_integral_images_equal_act(p, m):
    pts = enumerate_p1(p, m)
    specs = [SubgroupSpec("U"), SubgroupSpec("Gamma0")]
    specs += [SubgroupSpec(kind, k=k)
              for kind in ("Gamma_k", "K_m") for k in range(1, m)]
    for spec in specs:
        for g in ref_generators(spec, p, m):
            lg = laurent_matrix(p, g)
            assert _in_gl2_o(lg)
            imgs = _integral_images(g, p, m, _unit_inverses(p, m))
            assert [pts[i] for i in imgs] == [act(x, lg, m)[0] for x in pts]


@pytest.mark.parametrize("p,m", GRID)
def test_orbits_equal_act_sweep(p, m):
    for spec in _specs(m):
        assert orbits(spec, m, p) == act_sweep_orbits(spec, m, p), spec


# the orbits workload's shapes, (p, k) at levels 2k-1 and 2k, and depth 1
# at p = 2, where the unit generators 3 and 5 generate different groups
@pytest.mark.parametrize("kind,p,k,m", [
    *(("Gamma_k", p, k, m)
      for p, k in ((3, 4), (2, 6), (7, 2)) for m in (2 * k - 1, 2 * k)),
    *((kind, 2, 1, m) for kind in ("Gamma_k", "K_m") for m in (2, 3, 4, 5)),
])
def test_orbits_equal_residue_sweep(kind, p, k, m):
    spec = SubgroupSpec(kind, k=k)
    assert orbits(spec, m, p) == residue_sweep_orbits(spec, m, p)


# Gamma_k and K_m at every (p, m, k) up to |P^1| <= 400, p in {2, 3, 5, 7},
# against the sweep of the generators at every depth in [k, m)
@pytest.mark.parametrize("kind", ["Gamma_k", "K_m"])
@pytest.mark.parametrize("p,m", [(p, m) for p, top in ((2, 8), (3, 5),
                                                       (5, 3), (7, 3))
                                 for m in range(1, top + 1)])
def test_orbits_equal_level_generator_sweep(kind, p, m):
    for k in range(1, m):
        spec = SubgroupSpec(kind, k=k)
        assert orbits(spec, m, p) == residue_sweep_orbits(spec, m, p), spec


@pytest.mark.parametrize("p,m", GRID + [(2, 4), (3, 4)])
def test_integral_images_equal_act_every_depth(p, m):
    # the generators at depth lev > k, which subgroup_generators leaves out
    pts = enumerate_p1(p, m)
    inv = _unit_inverses(p, m)
    for kind in ("Gamma_k", "K_m"):
        for k in range(1, m):
            for g in level_generators(SubgroupSpec(kind, k=k), p, m):
                imgs = _integral_images(g.int_entries(m), p, m, inv)
                assert [pts[i] for i in imgs] == [act(x, g, m)[0]
                                                  for x in pts]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m", range(7))
def test_unit_inverses(p, m):
    md = p ** m
    inv = _unit_inverses(p, m)
    assert len(inv) == md
    assert all(u * inv[u] % md == 1 for u in range(md) if u % p)
    assert all(inv[u] == 0 for u in range(0, md, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("m", range(7))
def test_unit_inverses_equal_pow_table(p, m):
    assert _unit_inverses(p, m) == pow_unit_inverses(p, m)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m", range(1, 5))
def test_unit_gens_generate_the_units(p, m):
    md, gens = p ** m, _unit_gens(p, m)
    group = frontier = {1}
    while frontier:
        frontier = {x * g % md for x in frontier for g in gens} - group
        group = group | frontier
    assert group == {u for u in range(md) if u % p}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", range(5))
def test_eta_inv_images_equal_act(p, m):
    index = {x: i for i, x in enumerate(enumerate_p1(p, m))}
    eta_inv = diag_matrix(p, 0, -1)
    want = []
    for x in enumerate_p1(p, m + 1):
        y, coc = act(x, eta_inv, m)
        want.append((index[y], coc.torus_vals))
    assert list(_eta_inv_images(p, m + 1, m)) == want



# ------------------------------------------- orbit_classification_check

def test_classification_k1_p3():
    rep = orbit_classification_check(1, 3)
    assert rep["orbit_count"] == 4
    assert rep["formula_count"] == 4

def test_classification_k2_p2():
    rep = orbit_classification_check(2, 2)
    assert rep["orbit_count"] == 6

def test_classification_k2_p3():
    rep = orbit_classification_check(2, 3)
    assert rep["orbit_count"] == 12

def test_classification_closed_form():
    # 2 + sum equals p^k + p^(k-1), symbolically for a spread of (p,k)
    from strata_glue.padic_core import orbit_count_formula
    for p in (2, 3, 5):
        for k in (1, 2, 3, 4):
            assert orbit_count_formula(p, k) == p ** k + p ** (k - 1)

def test_classification_report_json(capsys):
    # the report's stable subset, as the orbits command serializes it
    assert main(["orbits", "--format", "json", "--p", "2", "--k", "1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["k"] == 1
    assert blob["orbit_count"] == 3
    assert all(set(o) == {"rep", "size"} for o in blob["orbits"])
    assert sum(o["size"] for o in blob["orbits"]) == len(enumerate_p1(2, blob["m"]))

# The disc clauses, driven by partitions corrupted at level 2k so that the
# orbit count, and with it the two count clauses, still passes.  Blocks are
# ranges of point indices, as _fibres writes them, since the clauses compare
# ranges and a tuple never equals one: [1:0] is 0 and [0:1] is p^m.

def _move_inf_out(blocks, p, m):
    # [0:1] leaves its disc for the zero block, which ends there
    md, step = p ** m, p ** (m // 2)
    inf = range(md, md + md // p, step // p)
    blocks[blocks.index(inf)] = inf[1:]
    blocks[0] = range(0, md + step, step)


def _split_zero(blocks, p, m):
    # the zero disc split by its next digit (_split_across_fibres), and as
    # many big-cell fibres merged into one block: those over the [1:t]
    # with t = 1 mod p^(k-1)
    _split_across_fibres(blocks, p, m)
    merged = range(1, p ** m, p ** (m // 2 - 1))
    blocks[:] = [b for b in blocks if b[0] not in merged] + [merged]


def _inf_not_first(blocks, p, m):
    # the last big-cell point of the infinity block's step, less than
    # [0:1], leaves its fibre for the infinity block
    md, step = p ** m, p ** (m // 2)
    inf = range(md, md + md // p, step // p)
    x = md - inf.step
    donor = next(b for b in blocks if b[-1] == x)
    blocks[blocks.index(donor)] = donor[:-1]
    blocks[blocks.index(inf)] = range(x, inf.stop, inf.step)


def _classify_corrupted(monkeypatch, k, p, corrupt, grow):
    # orbit_classification_check on the level-2k fibres after corrupt,
    # which leaves a partition of the line into ranges, grow blocks more;
    # it reads no other partition
    real = padic_core._fibres

    def corrupted(p, k):
        part = real(p, k)
        blocks = list(part)
        corrupt(blocks, p, 2 * k)
        assert all(type(b) is range for b in blocks)
        assert sorted(i for b in blocks for i in b) == list(
            range(p1_size(p, 2 * k)))
        assert len(blocks) == len(part) + grow
        return sorted(blocks, key=lambda b: b[0])

    monkeypatch.setattr(padic_core, "_fibres", corrupted)
    return orbit_classification_check(k, p)


@pytest.mark.parametrize("k,p", [(2, 3), (3, 2)])
@pytest.mark.parametrize("corrupt,clause", [
    (_move_inf_out, "infinity orbit is not the depth-k disc"),
    (_split_zero, "zero orbit is not the depth-k disc"),
    (_inf_not_first, "infinity orbit is not the depth-k disc"),
])
def test_classification_disc_clauses(monkeypatch, k, p, corrupt, clause):
    with pytest.raises(ClassificationMismatch, match=clause):
        _classify_corrupted(monkeypatch, k, p, corrupt, 0)


# The count clauses, driven by more blocks at level 2k.  The zero disc
# [1:0] + p^k O is a union of whole fibres of the projection to level
# 2k-1, and at k >= 2 it projects onto more than one point.

def _split_within_fibres(blocks, p, m):
    # the zero disc's points below p^(m-1), the least one over each of its
    # level-(m-1) points, leave it: both halves have its projection
    ml, step = p ** (m - 1), p ** (m // 2)
    blocks[0] = range(ml, p ** m, step)
    blocks.append(range(0, ml, step))


def _split_across_fibres(blocks, p, m):
    # the zero disc split by its next digit into p discs, each a union of
    # fibres over level m-1: the parts project to distinct sets
    md, step = p ** m, p ** (m // 2)
    blocks[0:1] = [range(r * step, md, p * step) for r in range(p)]


@pytest.mark.parametrize("k,p", [(2, 3), (3, 2)])
@pytest.mark.parametrize("corrupt,clause", [
    (_split_within_fibres, "orbit count changes between levels 2k-1 and 2k"),
    (_split_across_fibres, "orbit count disagrees with closed form"),
])
def test_classification_count_clauses(monkeypatch, k, p, corrupt, clause):
    grow = {_split_within_fibres: 1, _split_across_fibres: p - 1}[corrupt]
    with pytest.raises(ClassificationMismatch, match=clause):
        _classify_corrupted(monkeypatch, k, p, corrupt, grow)


# orbit_classification_check projects the level-(2k-1) partition from
# level 2k; projection commutes with the action, so it is the direct sweep
@pytest.mark.parametrize("p,k", [*((2, k) for k in range(1, 9)),
                                 *((3, k) for k in range(1, 6)), (7, 2)])
def test_projected_partition_equals_level_below(p, k):
    spec, m = SubgroupSpec("Gamma_k", k=k), 2 * k
    down = project(p, m, m - 1)
    projected = {frozenset(down[i] for i in b) for b in orbits(spec, m, p)}
    assert projected == set(map(frozenset, orbits(spec, m - 1, p)))


# orbit_classification_check writes the level-2k orbits down as the fibres
# over level k; the union-find sweep of the generators finds them, at every
# (p, k) that it sweeps in a few seconds
@pytest.mark.parametrize("p,k", [*((2, k) for k in range(1, 9)),
                                 *((3, k) for k in range(1, 6)),
                                 *((5, k) for k in range(1, 4)),
                                 (7, 1), (7, 2)])
def test_fibres_equal_union_find_sweep(p, k):
    spec, m = SubgroupSpec("Gamma_k", k=k), 2 * k
    fibres = padic_core._fibres(p, k)
    assert [tuple(b) for b in fibres] == orbits(spec, m, p)
    down = project(p, m, k)
    assert all(len({down[i] for i in b}) == 1 for b in fibres)


# the stability clause reads each fibre's projection to level 2k-1 off its
# range (_image): it is the set project() gives, listed once each in
# ascending order, at every (p, k) with p^2k <= 10^6
@pytest.mark.parametrize("p", [p for p in range(2, 1001)
                               if all(p % d for d in range(2, p))])
def test_fibre_images_equal_projection(p):
    k = 1
    while p ** (2 * k) <= 10 ** 6:
        m = 2 * k
        down = project(p, m, m - 1)
        for b in padic_core._fibres(p, k):
            image = padic_core._image(p, m, b)
            assert type(image) is range
            assert list(image) == sorted(set(down[b.start:b.stop:b.step]))
        k += 1


# the classification reads the fibres' ranges and no point: with the line's
# point count and projection refused, it still classifies lines of 10^7 to
# 5.7 * 10^7 points
@pytest.mark.parametrize("p,k", [(3, 8), (2, 12), (5, 5)])
def test_classification_visits_no_point(monkeypatch, p, k):
    def refuse(*args):
        raise AssertionError("points counted or projected")

    monkeypatch.setattr(padic_core, "project", refuse)
    monkeypatch.setattr(padic_core, "p1_size", refuse)
    rep = orbit_classification_check(k, p)
    assert rep["orbit_count"] == p ** k + p ** (k - 1)
    assert sum(o["size"] for o in rep["orbits"]) == (p + 1) * p ** (2 * k - 1)


# The proof on the generators, driven by generating sets that break it:
# one generator that moves the level-k projection, or one of the two
# unipotents that cycle the fibres left out.

def _with_depth_below(gens, p, k):
    return gens + [((1, p ** (k - 1)), (0, 1))]


def _without_upper(gens, p, k):
    return [g for g in gens if g != ((1, p ** k), (0, 1))]


def _without_lower(gens, p, k):
    return [g for g in gens if g != ((1, 0), (p ** k, 1))]


@pytest.mark.parametrize("k,p", [(1, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("corrupt", [_with_depth_below, _without_upper,
                                     _without_lower])
def test_classification_proof_clause(monkeypatch, k, p, corrupt):
    real = padic_core.subgroup_generators

    def corrupted(spec, p, m):
        assert (spec.kind, spec.k, m) == ("Gamma_k", k, 2 * k)
        gens = real(spec, p, m)
        out = corrupt(gens, p, k)
        assert out != gens
        return out

    monkeypatch.setattr(padic_core, "subgroup_generators", corrupted)
    with pytest.raises(ClassificationMismatch, match="^generators do not "
                       "fix and cycle the fibres over level k$"):
        orbit_classification_check(k, p)


def test_classification_refuses_a_composite_p():
    with pytest.raises(BanalityViolation, match="^residue characteristic 4 "
                       "is not prime$"):
        orbit_classification_check(1, 4)
