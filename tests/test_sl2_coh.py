"""Lattice-class tree balls and fixed-point complexes over them."""

import json
from itertools import zip_longest

import pytest

from strata_glue.lambda_core import (BanalityViolation, iso_class,
                                     make_ring)
from strata_glue.padic_core import (
    SubgroupSpec,
    UnsupportedSubgroup,
    subgroup_generators,
)
from strata_glue.finite_rep import (
    gl2_f2_sign,
    induced_rep,
    rep_model,
    steinberg,
    trivial_rep,
    unram_pair,
)
from strata_glue import finite_rep, lambda_core, sl2_coh
from bruteforce import (ProjPoint, closure_size, enumerate_p1,
                        expand_cells, fixed_points as dense_fixed_points,
                        integer_iso_class, point_eta_image, point_index,
                        vertex_image, vertex_row_boundary)
from strata_glue.sl2_coh import (
    AcyclicityFailed,
    bt_ball,
    cohomology_report,
    ps1_acyclicity_check,
    sl2_cohomology,
    ss_complex,
)
from fractions import Fraction

R11 = make_ring(11, 3, sqrt_q=5)
R7 = make_ring(7, 2, sqrt_q=3)
R5 = make_ring(5, 2)
R53 = make_ring(5, 3)

ROOT = (0, None)


def _adjacency(ball):
    adj = {v: set() for v in ball.vertices}
    for a, b in ball.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


# ----------------------------------------------------------------- the ball

def test_smallest_ball():
    ball = bt_ball(2, 1)
    assert len(ball.vertices) == 4
    assert len(ball.edges) == 3
    assert ROOT in ball.vertices
    assert all(parent == ROOT for _, parent in ball.edges)


def test_ball_is_a_tree():
    ball = bt_ball(3, 3)
    assert len(ball.vertices) == 1 + 4 + 12 + 36
    assert len(ball.edges) == len(ball.vertices) - 1
    adj = _adjacency(ball)
    seen = {ROOT}
    frontier = [ROOT]
    while frontier:
        frontier = [w for v in frontier for w in adj[v] if w not in seen]
        seen.update(frontier)
    assert seen == set(ball.vertices)


def test_ball_regularity():
    for p, r in ((2, 2), (3, 2), (2, 4)):
        assert bt_ball(p, r).check_regular() is True
    adj = _adjacency(bt_ball(2, 2))
    assert len(adj[ROOT]) == 3
    shell1 = [v for v in adj if v[0] == 1]
    assert all(len(adj[v]) == 3 for v in shell1)  # parent + p children
    assert all(len(adj[v]) == 1 for v in adj if v[0] == 2)


def test_ball_radius_guard():
    # labels are exact residues, so beside p the radius is the only guard
    with pytest.raises(ValueError, match="radius at least 1"):
        bt_ball(3, 0)


@pytest.mark.parametrize("p", [
    1, 4, 6, 100000000000000000039 * 300000000000000000053])
def test_ball_needs_a_prime(p):
    # a non-prime p gives no tree of lattice classes, though at p = 4 and
    # radius 2 the labels would make 26 vertices that pass check_regular();
    # the product of two primes near 10^20 is rejected without factoring
    with pytest.raises(BanalityViolation,
                       match=f"^residue characteristic {p} is not prime$"):
        bt_ball(p, 2)


def test_ball_chain_homology_is_a_point():
    for ring, rmax in ((R7, 4), (R11, 4)):
        for r in range(1, rmax + 1):
            ball = bt_ball(ring.p, r)
            h = ball.homology(ring)
            assert iso_class(h[0]) == [ring.n]
            assert h[1].is_zero()


def test_ball_iso_class_at_radius_five_and_composite_n():
    h = bt_ball(3, 5).homology(make_ring(11, 3))
    assert iso_class(h[0]) == [11]
    for n in (121, 143):
        for mod in bt_ball(3, 3).homology(make_ring(n, 3)).values():
            assert iso_class(mod) == integer_iso_class(mod)


def test_ball_boundary_columns_sum_to_zero():
    # edges -> vertices, one +1 and one -1 per edge, so the degree map
    # kills every boundary
    for p, n in ((2, 7), (3, 11), (3, 143)):
        ring = make_ring(n, p)
        for r in range(1, 6):
            ball = bt_ball(p, r)
            d = ball.boundary(ring)
            nv, ne = len(ball.vertices), len(ball.edges)
            assert (d.source.ambient, d.target.ambient) == (ne, nv)
            assert (d.matrix.nrows, d.matrix.cols) == (nv, ne)
            cols = d.image_rows()
            assert len(cols) == ne
            assert all(sum(c.values()) % n == 0 for c in cols)


def _items(rows):
    # rows with their column order
    return [list(r.items()) for r in rows]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_edge_row_boundary_matches_vertex_rows(p):
    # the boundary written as each edge's image row against the vertex rows
    # it was once built as: the same image rows, and the matrix, built only
    # when read, is those vertex rows; the homology reads neither the matrix
    # nor the ball's colors, stabilizers or children
    ring = make_ring(11, p)
    for r in range(1, 7):
        ball = bt_ball(p, r)
        f, want = ball.boundary(ring), vertex_row_boundary(ball, ring)
        assert _items(f.image_rows()) == _items(want.image_rows())
        ball.homology(ring)
        assert f._matrix is None
        assert ball._colors is ball._stabilizers is ball._kids is None
        m, w = f.matrix, want.matrix
        assert (m.nrows, m.cols) == (w.nrows, w.cols)
        assert _items(m.rows) == _items(w.rows)


def test_base_edge_stabilizer_is_iwahori():
    ball = bt_ball(3, 1)
    spec = ball.stabilizers[ball.base_edge]
    assert spec.kind == "Gamma0"
    gens = subgroup_generators(spec, 3, 1)
    assert closure_size(gens, 3, 1) == 12


def test_facet_stabilizer_kinds_follow_colors():
    ball = bt_ball(2, 3)
    for v in ball.vertices:
        want = "U" if v[0] % 2 == 0 else "Uprime"
        assert ball.colors[v] == want
        assert ball.stabilizers[v].kind == want
    for e in ball.edges:
        assert ball.stabilizers[e].kind == "Gamma0"


def test_eta_swaps_colors():
    ball = bt_ball(3, 3)
    moved = 0
    for v in ball.vertices:
        w = ball.eta_image(v)
        if w is None:
            continue
        moved += 1
        assert w in ball.colors
        assert ball.colors[w] != ball.colors[v]
    # root, interior big cells (3 + 9), and every second-branch cell (1+3+9)
    assert moved == 26
    def vertex(d, x):
        return (d, point_index(x))

    assert ball.eta_image(ROOT) == vertex(1, ProjPoint.big_cell(3, 1, 0))
    assert ball.eta_image(vertex(1, ProjPoint.inf_cell(3, 1, 0))) == ROOT
    # [3:1] at level 2 carries to [1:1] one shell down
    assert ball.eta_image(vertex(2, ProjPoint.inf_cell(3, 2, 3))) == \
        vertex(1, ProjPoint.big_cell(3, 1, 1))


@pytest.mark.parametrize("p,r", [(2, 5), (3, 4), (5, 3)])
def test_eta_image_matches_point_reference(p, r):
    # index arithmetic against the same translation on ProjPoint vertices
    ball = bt_ball(p, r)
    shells = [None] + [enumerate_p1(p, d) for d in range(1, r + 1)]
    for v in ball.vertices:
        d, i = v
        w = point_eta_image(p, r, v if d == 0 else (d, shells[d][i]))
        assert ball.eta_image(v) == (
            w if w is None or w[0] == 0 else (w[0], point_index(w[1])))


def test_eta_respects_adjacency():
    ball = bt_ball(2, 3)
    edge_set = {frozenset(e) for e in ball.edges}
    checked = 0
    for a, b in ball.edges:
        ia, ib = ball.eta_image(a), ball.eta_image(b)
        if ia is None or ib is None:
            continue
        checked += 1
        assert frozenset((ia, ib)) in edge_set
    assert checked > 0


def test_integral_action_fixes_root_and_colors():
    ball = bt_ball(3, 2)
    edge_set = {frozenset(e) for e in ball.edges}
    for g in subgroup_generators(SubgroupSpec("U"), 3, 1):
        assert vertex_image(3, ROOT, g) == ROOT
        for v in ball.vertices:
            w = vertex_image(3, v, g)
            assert w[0] == v[0]
            assert ball.colors[w] == ball.colors[v]
        for a, b in ball.edges:
            moved = frozenset((vertex_image(3, a, g), vertex_image(3, b, g)))
            assert moved in edge_set


# ------------------------------------------------------ fixed-point complex

def test_complex_of_trivial_model():
    ss = ss_complex(trivial_rep(R11, 2))
    assert ss.delta.matrix.entries == ((1, 10),)
    assert ss.delta.source.ambient == 2
    assert ss.delta.target.ambient == 1


def test_complex_of_full_induced_model():
    # both fixed lines are the constants, so the two columns agree up to sign
    ss = ss_complex(induced_rep(R11, (1, 1), 2))
    assert ss.delta.matrix.entries == ((1, 10), (1, 10))
    assert ss.delta.source.ambient == 2
    assert ss.delta.target.ambient == 2


def test_complex_of_quotient_model_has_empty_source():
    ss = ss_complex(steinberg(R11, 2))
    assert ss.u_fixed.is_zero()
    assert ss.uprime_fixed.is_zero()
    assert ss.delta.matrix.nrows == 1
    assert ss.delta.matrix.cols == 0


def test_complex_rejects_table_models():
    with pytest.raises(UnsupportedSubgroup):
        ss_complex(gl2_f2_sign(R7))


def test_cohomology_of_trivial_model():
    h = sl2_cohomology(trivial_rep(R11, 2))
    assert iso_class(h[0]) == [11]
    assert h[1].is_zero()


def test_cohomology_of_quotient_model():
    for ring in (R11, R7, R5, R53):
        h = sl2_cohomology(steinberg(ring, 2))
        assert h[0].is_zero()
        assert iso_class(h[1]) == [ring.n]


def test_cohomology_of_full_induced_model():
    h = sl2_cohomology(induced_rep(R11, (1, 1), 2))
    assert iso_class(h[0]) == [11]
    assert iso_class(h[1]) == [11]


def test_cohomology_report_is_json_ready():
    rep = cohomology_report(steinberg(R7, 2))
    assert rep == {"H0": [], "H1": [7]}
    assert json.loads(json.dumps(rep)) == {"H0": [], "H1": [7]}


# --------------------------------------------------------------- acyclicity

def test_acyclicity_first_configuration():
    rep = ps1_acyclicity_check(3, 11, 5)
    assert rep["vanishes"] is True
    assert rep["matrix"] == ((1, 10), (1, 8))
    assert rep["H0"] == [] and rep["H1"] == []
    assert R11.is_unit(rep["unit"])


def test_acyclicity_second_configuration():
    rep = ps1_acyclicity_check(2, 7, 3)
    assert rep["vanishes"] is True
    assert rep["matrix"] == ((1, 6), (1, 5))
    assert R7.is_unit(rep["unit"])


def test_acyclicity_control_character_fails():
    with pytest.raises(AcyclicityFailed) as exc:
        ps1_acyclicity_check(3, 11, 5, chi=(1, 1))
    assert exc.value.matrix == ((1, 10), (1, 10))


# ----------------------------------------------------------------- homology

def test_homology_degrees():
    # the three models are self-dual, so cohomology in degrees 0 and 1 is
    # homology in degrees 0 and -1
    h = sl2_cohomology(steinberg(R11, 2))
    assert h[0].is_zero()
    assert iso_class(h[1]) == [11]
    h = sl2_cohomology(trivial_rep(R11, 2))
    assert iso_class(h[0]) == [11]
    assert h[1].is_zero()
    h = sl2_cohomology(induced_rep(R11, (1, 1), 2))
    assert iso_class(h[0]) == [11]
    assert iso_class(h[1]) == [11]


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_cohomology_report_is_the_crt_of_its_prime_factors(level):
    # Z/143 = Z/11 x Z/13, so each degree over Z/143 is the product of its
    # localizations, and its invariant factors multiply position by
    # position; 3^-5 = 1 mod 11 but not mod 13, so ind(0,5) has a non-unit
    # entry mod 143 and the elimination splits Z/143 into Z/11 and Z/13
    for spec in ("triv", "st", "ind(0,0)", "ind(0,1)", "ind(0,5)"):
        local = [cohomology_report(rep_model(make_ring(n, 3), spec, level))
                 for n in (11, 13)]
        want = {h: [a * b for a, b in zip_longest(
            local[0][h], local[1][h], fillvalue=1)] for h in ("H0", "H1")}
        got = cohomology_report(rep_model(make_ring(143, 3), spec, level))
        assert got == want, spec


# --------------------------------------------------------------- invariants

def _pool():
    half = unram_pair(R11, Fraction(1, 2), Fraction(-1, 2))
    return [
        trivial_rep(R11, 2),
        steinberg(R11, 2),
        induced_rep(R11, (1, 1), 2),
        induced_rep(R11, (4, 1), 2),
        induced_rep(R11, half, 2),
    ]


def test_rank_bound_and_embedding():
    for sig in _pool():
        ss = ss_complex(sig)
        h = sl2_cohomology(sig)
        bound = len(iso_class(ss.gamma0_fixed)) + 1
        assert len(iso_class(h[0])) + len(iso_class(h[1])) <= bound
        room = ss.u_fixed.size() * ss.uprime_fixed.size()
        assert room % h[0].size() == 0


# ------------------------------------- the complex against the dense path

R143 = make_ring(143, 3, sqrt_q=82)
R121 = make_ring(121, 3, sqrt_q=27)


def _ss_pins(ss, expand=lambda rows: rows):
    # expand maps witness rows to point coordinates
    blocks = (ss.u_fixed, ss.uprime_fixed, ss.gamma0_fixed)
    return ([(expand(f.witness_rows), f.relations.entries) for f in blocks],
            ss.delta.matrix.entries, ss.delta.matrix.cols)


_SS_SPECS = ("triv", "ind(0,0)", "ind(0,1)", "ind(0,5)", "ind(1/2,-1/2)",
             "st")
_SS_RINGS = [R11, R7, R143, R121]
_SS_IDS = ["n11", "n7", "n143", "n121"]


@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("ring", _SS_RINGS, ids=_SS_IDS)
def test_ss_complex_matches_dense_reference(ring, level, monkeypatch):
    # the closed forms, expanded from cell to point coordinates, against
    # the dense path's point rows
    models = [rep_model(ring, s, level) for s in _SS_SPECS]
    got = [_ss_pins(ss_complex(sig), lambda rows: expand_cells(sig, rows))
           for sig in models]
    monkeypatch.setattr(sl2_coh, "fixed_points", dense_fixed_points)
    assert got == [_ss_pins(ss_complex(sig)) for sig in models]


_R13_P5 = make_ring(13, 5)


@pytest.mark.parametrize(
    "ring,specs",
    [(r, _SS_SPECS) for r in _SS_RINGS]
    + [(_R13_P5, tuple(s for s in _SS_SPECS if "/" not in s))],
    ids=_SS_IDS + ["n13-p5"])
def test_ss_complex_is_level_independent(ring, specs):
    # the closed forms are cell vectors, so level 40, whose line has
    # 4 * 3^39 points at p = 3, gives the level-1 answer; over Z/13 at
    # p = 5 only the integral specs run, as 5 has no square root mod 13
    for spec in specs:
        low, high = (rep_model(ring, spec, m) for m in (1, 40))
        assert cohomology_report(high) == cohomology_report(low), spec
        assert (ss_complex(high).delta.matrix.entries
                == ss_complex(low).delta.matrix.entries), spec


@pytest.mark.parametrize("spec", ["triv", "st", "ind(0,1)"])
def test_cohomology_counts_no_points_at_any_level(monkeypatch, spec):
    # the point count of a level-10^9 line at p = 3 has 4.8 * 10^8 digits;
    # the closed forms never read it, so counting it is a fault
    def refuse(p, m):
        raise AssertionError(f"p1_size({p}, {m}) was counted")
    monkeypatch.setattr(finite_rep, "p1_size", refuse)
    low, high = (rep_model(R11, spec, m) for m in (1, 10 ** 9))
    assert cohomology_report(high) == cohomology_report(low)


@pytest.mark.parametrize("ring,calls", [(R143, 4), (R11, 2)],
                         ids=["n143", "n11"])
def test_difference_map_eliminations(monkeypatch, ring, calls):
    # one elimination of the map gives the kernel rows and the cokernel,
    # one more puts the kernel rows in Howell form; over Z/143 a kernel row
    # leads with 13, and the left kernel that relates the generators takes
    # two more, whose Howell rows the kernel keeps as they are
    f = ss_complex(rep_model(ring, "ind(0,5)", 2)).delta
    seen, eliminate = [], lambda_core._eliminate

    def counted(*args, **kwargs):
        seen.append(1)
        return eliminate(*args, **kwargs)
    monkeypatch.setattr(lambda_core, "_eliminate", counted)
    h0, h1 = lambda_core.kernel_cokernel(f)
    assert len(seen) == calls
    assert (iso_class(h0), iso_class(h1)) == ([11], [11])
