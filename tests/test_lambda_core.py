"""Exact linear algebra over Z/n: canonical forms, kernels, homology, iso classes.

Expected values in the frozen tests were produced by the enumeration oracles
in bruteforce.py before the implementation existed, and must not be edited to
match the implementation.
"""

import copy
import random
import time
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from strata_glue import lambda_core
from strata_glue.lambda_core import (
    _check_prime,
    _eliminate_map,
    _factor,
    _is_strong_lucas_prp,
    _present_span,
    BadSqrt,
    BanalityViolation,
    CoeffRing,
    FgModule,
    LambdaMatrix,
    ModuleMap,
    free_module,
    howell_form,
    iso_class,
    kernel,
    kernel_cokernel,
    left_kernel,
    left_kernel_cokernel,
    make_ring,
    quotient_module,
)

from bruteforce import (
    _unit_scale,
    all_vectors,
    brute_left_kernel,
    coset_space,
    dense_howell_engine,
    dense_kernel,
    dense_left_kernel,
    element_order_multiset,
    factor_trial_division,
    integer_iso_class,
    mat_mul,
    orders_of_factor_sum,
    smith_iso_class,
    span_module,
    span_of,
    xgcd_howell,
    xgcd_left_kernel,
)


# ---------------------------------------------------------------- make_ring

def test_make_ring_banal_pairs():
    r = make_ring(5, 2)
    assert r.n == 5 and r.p == 2 and r.q == 2

def test_make_ring_sqrt_accepted():
    # 5^2 = 25 = 3 mod 11
    r = make_ring(11, 3, sqrt_q=5)
    assert r.sqrt_q == 5
    assert (r.sqrt_q * r.sqrt_q) % 11 == 3 % 11

def test_make_ring_rejects_nonbanal():
    # (q-1)^2 (q+1) = 3 for p=2, and 3 | 3
    with pytest.raises(BanalityViolation):
        make_ring(3, 2)

def test_make_ring_rejects_p_dividing_n():
    with pytest.raises(BanalityViolation):
        make_ring(10, 2)

def test_make_ring_rejects_bad_sqrt():
    with pytest.raises(BadSqrt):
        make_ring(11, 3, sqrt_q=4)

def test_make_ring_rejects_nonprime():
    with pytest.raises(BanalityViolation):
        make_ring(11, 6)

@pytest.mark.parametrize("p", [-3, 0, 1, 4, 25, 49, 1681])
def test_make_ring_rejects_prime_powers_and_small_p(p):
    with pytest.raises(BanalityViolation):
        make_ring(13, p)


# products of two primes near 10^20 and two near 10^14, which Pollard rho
# takes minutes and seconds to split
SEMIPRIMES = [100000000000000000039 * 300000000000000000053,
              100000000000031 * 100000000000067]


@pytest.mark.parametrize("p", SEMIPRIMES)
def test_make_ring_rejects_a_semiprime_without_factoring_it(monkeypatch, p):
    def refuse(n):
        raise AssertionError(f"{n} was factored")
    monkeypatch.setattr(lambda_core, "_rho", refuse)
    start = time.perf_counter()
    with pytest.raises(BanalityViolation, match="is not prime"):
        make_ring(13, p)
    assert time.perf_counter() - start < 0.5


def test_check_prime_agrees_with_factoring_below_1e5():
    factor = _factor.__wrapped__  # the cache would keep every entry
    for p in range(-3, 10 ** 5):
        try:
            _check_prime(p)
        except BanalityViolation:
            assert factor(p) != ((p, p),), p
        else:
            assert factor(p) == ((p, p),), p


# ------------------------------------------------------------------ _factor

def test_factor_equals_trial_division_up_to_2e5():
    factor = _factor.__wrapped__  # the cache would keep every entry
    for n in range(-3, 200001):
        assert factor(n) == factor_trial_division(n), n


@pytest.mark.parametrize("n,want", [
    # a Carmichael number, and a strong pseudoprime to the bases 2, 3, 5, 7
    (561, ((3, 3), (11, 11), (17, 17))),
    (3215031751, ((151, 151), (751, 751), (28351, 28351))),
    # a prime near 10^14, a second's trial division, and two near 10^9,
    # which trial division takes minutes to separate
    (11 * (10 ** 14 + 31), ((11, 11), (10 ** 14 + 31, 10 ** 14 + 31))),
    ((10 ** 9 + 7) * (10 ** 9 + 9),
     ((10 ** 9 + 7, 10 ** 9 + 7), (10 ** 9 + 9, 10 ** 9 + 9))),
])
def test_factor_pseudoprimes_and_large_primes(n, want):
    assert _factor.__wrapped__(n) == want


def test_check_prime_rejects_the_least_13_base_strong_pseudoprime():
    # it passes Miller-Rabin to every base of _MR_BASES, and the strong
    # Lucas test catches it; rho then splits it
    n = 3317044064679887385961981
    with pytest.raises(BanalityViolation, match="is not prime"):
        _check_prime(n)
    assert _factor(n) == ((1287836182261, 1287836182261),
                          (2575672364521, 2575672364521))


@pytest.mark.parametrize("e", [89, 107, 127])
def test_check_prime_accepts_mersenne_primes_past_the_bound(e):
    n = 2 ** e - 1
    _check_prime(n)
    assert _factor(n) == ((n, n),)


def test_strong_lucas_pseudoprimes_below_1e5():
    # every prime passes, and the composites that pass are the strong Lucas
    # pseudoprimes of OEIS A217255
    passed = [n for n in range(43, 10 ** 5, 2) if _is_strong_lucas_prp(n)]
    primes = [n for n in range(43, 10 ** 5, 2) if _factor(n) == ((n, n),)]
    assert sorted(set(passed) - set(primes)) == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
        75077, 97439]
    assert set(primes) <= set(passed)


# -------------------------------------------------------------- howell_form

def carrier(n):
    # plain ring carrier; the linear algebra layer never consults p
    return CoeffRing(n, 997)

def test_howell_identity_fixed():
    r = carrier(4)
    m = LambdaMatrix(r, [[1, 0], [0, 1]])
    assert howell_form(m).entries == ((1, 0), (0, 1))

def test_howell_frozen_mod4():
    # span{(2,2),(0,2)} mod 4 has 4 elements; canonical rows are (2,0),(0,2)
    r = carrier(4)
    m = LambdaMatrix(r, [[2, 2], [0, 2]])
    h = howell_form(m)
    assert h.entries == ((2, 0), (0, 2))
    assert span_of(h.entries, 4) == span_of(m.entries, 4)

def test_explicit_width_must_match_rows():
    r = carrier(5)
    with pytest.raises(ValueError, match="rows have 2 columns, not 3"):
        LambdaMatrix(r, [[1, 2]], cols=3)
    assert LambdaMatrix(r, [[1, 2]], cols=2).cols == 2
    assert LambdaMatrix(r, [], cols=3).cols == 3

def test_transpose_edges():
    r = carrier(6)
    t = LambdaMatrix(r, [], cols=3).transpose()          # 0x3 -> 3x0
    assert (t.nrows, t.cols, t.entries) == (3, 0, ((), (), ()))
    tt = t.transpose()                                   # 3x0 -> 0x3
    assert (tt.nrows, tt.cols, tt.entries) == (0, 3, ())
    m = LambdaMatrix(r, [[1, 2, 3], [4, 5, 7]])
    assert m.transpose().entries == ((1, 4), (2, 5), (3, 1))
    back = m.transpose().transpose()
    assert (back.nrows, back.cols, back.entries) == (2, 3, m.entries)

def test_howell_zero_matrix():
    r = carrier(4)
    m = LambdaMatrix(r, [[0, 0], [0, 0]])
    assert howell_form(m).entries == ()


small_mod = st.sampled_from([2, 3, 4, 5, 6, 8, 9])

@st.composite
def small_matrix(draw):
    n = draw(small_mod)
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    ent = [[draw(st.integers(0, n - 1)) for _ in range(cols)] for _ in range(rows)]
    return LambdaMatrix(carrier(n), ent)

@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_howell_idempotent_and_span_preserving(m):
    h = howell_form(m)
    assert howell_form(h).entries == h.entries
    assert span_of(h.entries, m.ring.n, m.cols) == span_of(m.entries, m.ring.n, m.cols)

@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.randoms(use_true_random=False))
def test_howell_unique_for_equal_spans(m, rnd):
    n = m.ring.n
    rows = [list(r) for r in m.entries]
    mixed = list(rows)
    for _ in range(4):
        i = rnd.randrange(len(rows))
        j = rnd.randrange(len(rows))
        c = rnd.randrange(n)
        mixed.append([(a + c * b) % n for a, b in zip(mixed[i], rows[j])])
    rnd.shuffle(mixed)
    h1 = howell_form(m)
    h2 = howell_form(LambdaMatrix(m.ring, mixed))
    assert h1.entries == h2.entries


# ------------------------------------------------------------------ kernel

def test_kernel_mult_by_two_mod4():
    r = carrier(4)
    f = ModuleMap(free_module(r, 1), free_module(r, 1), LambdaMatrix(r, [[2]]))
    k = kernel(f)
    assert iso_class(k) == [2]
    assert k.witness_rows == ((2,),)

def test_kernel_frozen_mod5():
    # map (Z/5)^2 -> (Z/5)^2 with matrix rows indexed by target coords:
    # image coords are (x0 - x1, x0 - x1), so the kernel is the diagonal
    r = make_ring(5, 2)
    f = ModuleMap(free_module(r, 2), free_module(r, 2),
                  LambdaMatrix(r, [[1, -1], [1, -1]]))
    k = kernel(f)
    assert iso_class(k) == [5]
    assert k.witness_rows == ((1, 1),)

def test_kernel_zero_map_mod6():
    r = carrier(6)
    f = ModuleMap(free_module(r, 1), free_module(r, 1), LambdaMatrix(r, [[0]]))
    assert iso_class(kernel(f)) == [6]

def test_kernel_ill_defined_rejected():
    # a map starts from a free module: a quotient source is refused, the
    # well-defined multiplication by 2 from Z/2 into Z/4 as well
    r = carrier(4)
    for src, tgt, mat in (
            (quotient_module(free_module(r, 1), [[1]]),
             quotient_module(free_module(r, 1), [[2]]), [[1]]),
            (quotient_module(free_module(r, 1), [[2]]),
             free_module(r, 1), [[2]])):
        with pytest.raises(ValueError, match="a map's source must be free"):
            ModuleMap(src, tgt, LambdaMatrix(r, mat))

def test_quotient_reduces_raw_rows():
    r = make_ring(11, 3)
    want = quotient_module(free_module(r, 1), [[2]])
    for rows in ([[13]], [(13,)], [[-9]], [(2,)]):
        got = quotient_module(free_module(r, 1), rows)
        assert got.relations.entries == want.relations.entries

def test_quotient_checks_row_width():
    r = carrier(4)
    with pytest.raises(ValueError, match="rows have 1 columns, not 2"):
        quotient_module(free_module(r, 2), [(1,)])

@pytest.mark.parametrize("n", [4, 6, 9, 11])
def test_span_module_presents_the_row_span(n):
    rnd = random.Random(n)
    r = carrier(n)
    for _ in range(20):
        rows = [[rnd.randrange(n) for _ in range(3)]
                for _ in range(rnd.randint(0, 3))]
        mod = span_module(r, 3, rows)
        span = span_of(rows, n, 3)
        assert span_of(list(mod.witness_rows), n, 3) == span
        assert mod.size() == len(span)

@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unit_pivot_generators_have_no_relations(data):
    # Howell rows that all lead with 1 are presented with no elimination;
    # every presentation must still be the one the left kernel gives
    n = data.draw(st.sampled_from((2, 3, 4, 6, 7, 8, 9, 11, 12, 121, 143)))
    r = carrier(n)
    low = next(d for d in range(2, n + 1) if n % d == 0)
    entry = st.one_of(st.integers(0, n - 1), st.sampled_from(range(0, n, low)))
    cols = data.draw(st.integers(1, 4))
    m = LambdaMatrix(r, [[data.draw(entry) for _ in range(cols)]
                         for _ in range(data.draw(st.integers(1, 4)))])
    rows = howell_form(m).rows
    got = _present_span(r, cols, rows)
    kern = left_kernel(LambdaMatrix._sparse(r, rows, cols))
    assert [list(x.items()) for x in got.relations.rows] == [
        list(x.items()) for x in kern.rows]
    assert got.witness_rows == tuple(howell_form(m).entries)
    if all(next(iter(x.values())) == 1 for x in rows):
        assert not kern.rows


@st.composite
def small_map(draw, moduli=(2, 3, 4, 5, 6, 8), relations=False):
    # entries are drawn among all residues and among the multiples of the
    # least prime divisor, so that on composite n some columns have no unit;
    # with relations the source stays free and the target gets one to
    # three relation rows
    n = draw(st.sampled_from(moduli))
    r = carrier(n)
    low = next(d for d in range(2, n + 1) if n % d == 0)
    entry = st.one_of(st.integers(0, n - 1), st.sampled_from(range(0, n, low)))

    def vec(k):
        return [draw(entry) for _ in range(k)]
    sr = draw(st.integers(1, 3))
    tr = draw(st.integers(1, 3))
    m = LambdaMatrix(r, [vec(sr) for _ in range(tr)])
    target = free_module(r, tr)
    if relations:
        trel = [vec(tr) for _ in range(draw(st.integers(1, 3)))]
        target = quotient_module(target, trel)
    return ModuleMap(free_module(r, sr), target, m)


def image(f, v):
    # f(v) = v * transpose(matrix), by the brute-force product
    return mat_mul(f.source.ring, [v], list(zip(*f.matrix.entries)),
                   f.matrix.nrows)[0]

@settings(max_examples=40, deadline=None)
@given(small_map())
def test_kernel_times_image_counts(f):
    n = f.source.ring.n
    sr = f.source.ambient
    # oracle counts
    images = {tuple(image(f, v)) for v in all_vectors(sr, n)}
    ker_oracle = {v for v in all_vectors(sr, n) if not any(image(f, v))}
    assert len(ker_oracle) * len(images) == n ** sr
    # package kernel matches the oracle set exactly
    k = kernel(f)
    got = span_of(k.witness_rows, n) if k.witness_rows else {tuple([0] * sr)}
    assert got == ker_oracle


# ---------------------------------------------------------------- homology
# a two-term complex C0 -d-> C1 has H0 = ker d and H1 = coker d, read off
# as sl2_coh reads its difference map: kernel_cokernel()

def two_term(r, mat, ranks=(2, 2)):
    c0 = free_module(r, ranks[0])
    c1 = free_module(r, ranks[1])
    h0, h1 = kernel_cokernel(ModuleMap(c0, c1, LambdaMatrix(r, mat)))
    return iso_class(h0), iso_class(h1)


def _pins(module):
    # relations with their column order, witness rows and ambient rank
    return ([list(r.items()) for r in module.relations.rows],
            module.witness_rows, module.ambient)


@settings(max_examples=300, deadline=None)
@given(small_map(moduli=(2, 3, 7, 11, 4, 6, 8, 12, 121, 143),
                 relations=True))
def test_kernel_cokernel_equals_the_two_pass_path(f):
    # one elimination gives the cokernel that quotient_module() gives, and
    # the kernel into a quotient target is the dense engine's
    h0, h1 = kernel_cokernel(f)
    assert _pins(h0) == _pins(kernel(f))
    assert _pins(h1) == _pins(quotient_module(f.target, f.image_rows()))
    rel, gens = dense_kernel(f, f.target.relations.entries)
    assert (list(h0.relations.entries), list(h0.witness_rows)) == (rel, gens)


def test_ball_homology_eliminates_once(monkeypatch):
    # the 484 boundary rows of the radius-5 ball are eliminated once for
    # both degrees
    from strata_glue.sl2_coh import bt_ball
    sizes, eliminate = [], lambda_core._eliminate

    def counted(rows, *args, **kwargs):
        sizes.append(len(rows))
        return eliminate(rows, *args, **kwargs)
    monkeypatch.setattr(lambda_core, "_eliminate", counted)
    h = bt_ball(3, 5).homology(make_ring(11, 3))
    assert (h[0].size(), h[1].size()) == (11, 1)
    assert sum(k >= 484 for k in sizes) == 1

def test_homology_single_spot():
    # a lone module is its own H0: the kernel of its map to zero
    r = carrier(6)
    d = ModuleMap(free_module(r, 1), free_module(r, 0),
                  LambdaMatrix(r, [], cols=1))
    assert iso_class(kernel(d)) == [6]

def test_map_to_zero_module_checks_its_width():
    r = carrier(6)
    with pytest.raises(ValueError, match="matrix shape"):
        ModuleMap(free_module(r, 3), free_module(r, 0),
                  LambdaMatrix(r, [], cols=5))
    f = ModuleMap(free_module(r, 3), free_module(r, 0),
                  LambdaMatrix(r, [], cols=3))
    assert f.image_rows() == ({}, {}, {})

def test_homology_frozen_steinberg_shape():
    # d(x0,x1) = (x0-x1, x0-x1) on (Z/5)^2: H0 = H1 = Z/5
    r = make_ring(5, 2)
    assert two_term(r, [[1, -1], [1, -1]]) == ([5], [5])

def test_homology_exact_identity_complex():
    r = carrier(6)
    assert two_term(r, [[1]], ranks=(1, 1)) == ([], [])

def test_homology_mapping_cone_smoke():
    # adding a contractible Lambda --id--> Lambda summand changes nothing
    r = make_ring(5, 2)
    plain = two_term(r, [[1, -1], [1, -1]])
    fat = two_term(r, [[1, -1, 0], [1, -1, 0], [0, 0, 1]], ranks=(3, 3))
    assert plain == fat

@settings(max_examples=30, deadline=None)
@given(small_map())
def test_homology_order_against_enumeration(f):
    # |H0| = |ker d| for the two-term complex placed in degrees 0, 1
    n = f.source.ring.n
    ker_oracle = {v for v in all_vectors(f.source.ambient, n)
                  if not any(image(f, v))}
    h0 = kernel(f)
    assert sorted(element_order_multiset(h0.ambient, h0.relations.entries, n)) \
        == sorted(o for o in _orders_of_set(ker_oracle, n))

def _orders_of_set(vectors, n):
    out = []
    for v in vectors:
        k = 1
        w = v
        while any(w):
            k += 1
            w = tuple((a + b) % n for a, b in zip(w, v))
        out.append(k)
    return sorted(out)


# ---------------------------------------------------------------- iso_class

def test_iso_class_direct_sum_frozen():
    r = carrier(4)
    m = quotient_module(free_module(r, 2), [[0, 2]])
    assert iso_class(m) == [4, 2]

def test_iso_class_cokernel_of_two():
    r = carrier(4)
    m = quotient_module(free_module(r, 1), [[2]])
    assert iso_class(m) == [2]

def test_iso_class_presentation_invariance():
    rnd = random.Random(11)
    for n in [4, 6, 8, 9]:
        r = carrier(n)
        rows = [[rnd.randrange(n) for _ in range(3)] for _ in range(2)]
        m1 = quotient_module(free_module(r, 3), rows)
        mixed = list(rows)
        for _ in range(3):
            c = rnd.randrange(n)
            mixed.append([(c * a) % n for a in rows[rnd.randrange(2)]])
        m2 = quotient_module(free_module(r, 3), mixed)
        assert iso_class(m1) == iso_class(m2)
        assert iso_class(m1) == sorted(
            (d for d in _snf_oracle(m1, n) if d > 1), reverse=True)

def _snf_oracle(m, n):
    # element-order route: largest order = first invariant factor, then recurse
    # on counts; for these sizes just compare order multisets directly
    got = element_order_multiset(m.ambient, m.relations.entries, n)
    for cand in _factor_candidates(n, m.ambient):
        if orders_of_factor_sum(cand, n) == sorted(got):
            return cand
    raise AssertionError("no cyclic decomposition matched the order multiset")

def _factor_candidates(n, rank):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    import itertools as it
    for combo in it.combinations_with_replacement(divs, rank):
        ok = all(combo[i + 1] % combo[i] == 0 for i in range(len(combo) - 1))
        if ok:
            yield tuple(sorted(combo, reverse=True))

def test_iso_class_complete_invariant():
    # finite abelian groups with the same element orders are isomorphic, so
    # equal iso classes must be exactly equal order multisets
    rnd = random.Random(7)
    r = carrier(8)
    mods = []
    for _ in range(10):
        rows = [[rnd.randrange(8) for _ in range(2)] for _ in range(2)]
        mods.append(quotient_module(free_module(r, 2), rows))
        extra = [[(3 * a) % 8 for a in rows[0]]]
        mods.append(quotient_module(free_module(r, 2), rows + extra))
    orders = [sorted(element_order_multiset(2, m.relations.entries, 8))
              for m in mods]
    for m1, o1 in zip(mods, orders):
        for m2, o2 in zip(mods, orders):
            assert (iso_class(m1) == iso_class(m2)) == (o1 == o2)


def _presentations(n, rnd):
    # tall, wide, zero-row and all-unit-pivot relations, plus rows scaled
    # by divisors of n so that pivots of every valuation occur
    divs = [d for d in range(1, n + 1) if n % d == 0]
    for ambient, count in [(3, 6), (5, 2), (4, 0), (0, 0), (6, 4)]:
        yield ambient, [[rnd.randrange(n) for _ in range(ambient)]
                        for _ in range(count)]
    for _ in range(3):
        yield 5, [[rnd.randrange(n) * d % n for _ in range(5)]
                  for d in rnd.sample(divs, min(4, len(divs)))]
    yield 4, [[0] * i + [1] + [rnd.randrange(n) for _ in range(3 - i)]
              for i in range(3)]

@pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 36, 64, 121, 143, 210, 1000,
                               30, 60, 72, 360, 900, 1001, 2310, 2695])
def test_iso_class_matches_integer_smith_form(n):
    rnd = random.Random(n)
    r = carrier(n)
    for _ in range(6):
        for ambient, rows in _presentations(n, rnd):
            m = quotient_module(free_module(r, ambient), rows)
            assert iso_class(m) == integer_iso_class(m), (ambient, rows)

@pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 36])
def test_iso_class_matches_sympy_smith_form(n):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rnd = random.Random(100 + n)
    r = carrier(n)
    for _ in range(10):
        ambient = rnd.randint(1, 4)
        rows = [[rnd.randrange(n) for _ in range(ambient)]
                for _ in range(rnd.randint(0, 4))]
        m = quotient_module(free_module(r, ambient), rows)
        stack = list(m.relations.entries) + [
            [n * (i == j) for j in range(ambient)] for i in range(ambient)]
        want = invariant_factors(sympy.Matrix(stack), domain=sympy.ZZ)
        assert iso_class(m) == sorted(
            (abs(int(d)) for d in want if abs(int(d)) > 1), reverse=True)

@pytest.mark.parametrize("n", [11, 12, 121, 143])
def test_size_is_product_of_iso_class(n):
    rnd = random.Random(f"size:{n}")
    r = carrier(n)
    for _ in range(6):
        for ambient, rows in _presentations(n, rnd):
            m = quotient_module(free_module(r, ambient), rows)
            assert m.size() == prod(iso_class(m)), (ambient, rows)

@pytest.mark.parametrize("first", [0, 1])
def test_size_with_non_unit_pivots_against_enumeration(first):
    # Howell rows over Z/12 with pivots 2, 3, 4 and 6, each dividing n;
    # without the first row, generator 0 is free
    rows = [[2, 1, 0, 3], [0, 3, 0, 3], [0, 0, 4, 0], [0, 0, 0, 6]][first:]
    m = quotient_module(free_module(carrier(12), 4), rows)
    assert [list(r) for r in m.relations.entries] == rows
    assert [next(iter(r.values())) for r in m.relations.rows] == [
        2, 3, 4, 6][first:]
    assert m.size() == len(coset_space(4, rows, 12))

# --------------------------------------------------------------- left kernel

@settings(max_examples=40, deadline=None)
@given(small_matrix())
def test_left_kernel_matches_enumeration(m):
    from strata_glue.lambda_core import left_kernel
    n = m.ring.n
    k = left_kernel(m)
    assert span_of(k.entries, n, m.nrows) == brute_left_kernel(m.entries, n)


@pytest.mark.parametrize("n", [27, 64, 121, 143])
def test_left_kernel_beyond_enumeration(n):
    # prime powers and a product of two primes: Z/n has zero divisors, so
    # pivots are proper divisors and annihilator rows carry the kernel
    rng = random.Random(n)
    divisors = [d for d in range(1, n) if n % d == 0]
    for _ in range(12):
        rows, cols = rng.randint(2, 9), rng.randint(1, 9)
        entries = [[rng.choice(divisors) * rng.randrange(n) % n
                    for _ in range(cols)] for _ in range(rows)]
        ring = CoeffRing(n, 2 if n % 2 else 3)
        m = LambdaMatrix(ring, entries, cols=cols)
        k = left_kernel(m)
        for x in k.entries:
            assert all(sum(c * r[j] for c, r in zip(x, entries)) % n == 0
                       for j in range(cols))
        # |ker| * |row span| = n^rows, sizes from the quotient orders
        ker = n ** rows // FgModule(ring, rows, k).size()
        span = n ** cols // FgModule(ring, cols, m).size()
        assert ker * span == n ** rows


@st.composite
def plain_matrix(draw):
    # up to 5 x 5, with empty shapes and with whole rows and columns of
    # zeros; entries are multiples of the divisors of n
    n = draw(st.one_of(st.sampled_from((4, 6, 8, 9, 12, 36, 121, 143)),
                       st.sampled_from((2, 3, 5, 7, 11, 13, 10007))))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    zero_rows = draw(st.sets(st.integers(0, 4)))
    zero_cols = draw(st.sets(st.integers(0, 4)))
    entry = st.builds(lambda d, x: d * x % n,
                      st.sampled_from([d for d in range(1, n) if n % d == 0]),
                      st.integers(0, n - 1))
    return LambdaMatrix(carrier(n), [
        [0 if i in zero_rows or j in zero_cols else draw(entry)
         for j in range(cols)] for i in range(rows)], cols=cols)


def _rows(m):
    # rows with their column order, and the shape
    return [list(r.items()) for r in m.rows], m.nrows, m.cols


@settings(max_examples=300, deadline=None)
@given(plain_matrix())
def test_left_kernel_cokernel_equals_the_separate_calls(m):
    # one elimination with the transform carried gives the left kernel and
    # the same pivot rows as an elimination without it
    kern, quot = left_kernel_cokernel(m)
    assert _rows(kern) == _rows(left_kernel(m))
    assert quot.ambient == m.cols
    assert _rows(quot.relations) == _rows(quotient_module(
        free_module(m.ring, m.cols), m.entries).relations)
    assert _rows(quot.relations) == _rows(howell_form(m))


# ---------------------------------------------- engine against its reference

def _random_entries(rng, n, rows, cols):
    # dense, sparse, or mostly non-units (multiples of proper divisors)
    style = rng.randrange(3)
    divisors = [d for d in range(2, n) if n % d == 0] if n < 10 ** 4 else []

    def entry():
        if style == 0:
            return rng.randrange(n)
        if style == 2 and divisors and rng.random() < 0.7:
            return rng.choice(divisors) * rng.randrange(n) % n
        return rng.randrange(n) if rng.random() < 0.3 else 0
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _assert_engine_matches_reference(n, entries, cols):
    m = LambdaMatrix(carrier(n), entries, cols=cols)
    assert list(howell_form(m).entries) == xgcd_howell(entries, n, cols)
    assert (list(left_kernel(m).entries)
            == xgcd_left_kernel(entries, n, cols))


@pytest.mark.parametrize("n", [7, 11, 6, 143, 27, 64, 121, 1000003, 30, 900,
                               1001, 3575, 72, 360, 2310, 2695])
def test_engine_matches_xgcd_reference(n):
    # bit for bit, not just equal spans: both outputs are canonical; on
    # composite n a column of non-units splits n by gcds into coprime
    # parts, up to three or four of them at 30, 360, 900, 1001, 2310 and
    # 2695 = 5 * 7^2 * 11, and joins the parts where some have no pivot
    rng = random.Random(f"engine:{n}")
    shapes = [(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(60)]
    shapes += [(30, 3), (24, 6), (3, 30), (5, 24), (16, 16)]
    for rows, cols in shapes:
        _assert_engine_matches_reference(
            n, _random_entries(rng, n, rows, cols), cols)


@pytest.mark.parametrize("n, column", [
    (6, [2, 3, 1]), (6, [3, 4, 5]), (27, [3, 9, 2]), (64, [4, 2, 8, 3]),
    (143, [11, 13, 2]), (6, [2, 3]), (143, [13, 11]),
])
def test_engine_late_unit_pivot(n, column):
    # the first hit is a non-unit and a later one a unit, or (the last two
    # cases) no hit is a unit but the coprime parts join to a unit
    rng = random.Random(f"late-unit:{n}:{column}")
    for cols in (1, 2, 5, 9):
        entries = [[c] + [rng.randrange(n) for _ in range(cols - 1)]
                   for c in column]
        _assert_engine_matches_reference(n, entries, cols)
        # the same column after a cleared one, below a zero-led block
        shifted = [[0] + r for r in entries] + [[1] * (cols + 1)]
        _assert_engine_matches_reference(n, shifted, cols + 1)


P1, P2 = 10 ** 20 + 39, 3 * 10 ** 20 + 53


def _refuse(n):
    raise AssertionError(f"{n} was factored")


@pytest.mark.parametrize("n", [6, 30, 72, 143, 1001, P1 * P2])
def test_linear_algebra_never_factors_n(monkeypatch, n):
    # a column with no unit entry, or a pivot that is not 1, splits n by
    # gcds: neither _factor nor Pollard rho is reached
    monkeypatch.setattr(lambda_core, "_factor", _refuse)
    monkeypatch.setattr(lambda_core, "_rho", _refuse)
    r = carrier(n)
    rng = random.Random(f"never-factored:{n}")
    divisors = [d for d in (2, 3, 7, 11, 13, P1, P2) if n % d == 0]
    for rows, cols in ((4, 3), (3, 5), (6, 6)):
        entries = [[rng.choice(divisors) * rng.randrange(n) % n
                    for _ in range(cols)] for _ in range(rows)]
        m = LambdaMatrix(r, entries)
        h = howell_form(m)
        kern, quot = left_kernel_cokernel(m)
        assert _rows(quot.relations) == _rows(h)
        assert quot.size() == prod(iso_class(quot))
        f = ModuleMap(free_module(r, rows), quotient_module(
            free_module(r, cols), entries[:1]), m.transpose())
        k, c = kernel_cokernel(f)
        assert c.size() == prod(iso_class(c))
        assert k.size() == prod(iso_class(k))
        if n < 10 ** 4:
            assert list(h.entries) == xgcd_howell(entries, n, cols)
            assert list(kern.entries) == xgcd_left_kernel(entries, n, cols)
            assert iso_class(quot) == smith_iso_class(entries, n, cols)


def test_only_a_column_without_a_unit_splits_n(monkeypatch):
    # a column with a unit entry pivots on it over any n, so a prime n is
    # never split, nor Z/143 on the radius-6 ball, whose every column has
    # a unit entry
    from strata_glue.sl2_coh import bt_ball
    calls, split = [], lambda_core._split

    def counted(a, g, others, m):
        if (m1 := split(a, g, others, m)) > 1:
            calls.append(m)
        return m1
    monkeypatch.setattr(lambda_core, "_split", counted)
    rng = random.Random("factor-calls")
    for n in (11, 1000003):
        for rows, cols in ((6, 4), (3, 8), (12, 12)):
            m = LambdaMatrix(carrier(n), [
                [rng.randrange(n) for _ in range(cols)] for _ in range(rows)])
            left_kernel_cokernel(m)
            howell_form(m)
    h = bt_ball(3, 6).homology(make_ring(143, 3))
    assert (h[0].size(), h[1].size()) == (143, 1)
    assert calls == []
    # over Z/6 the column (2, 3) has no unit: 6 splits into 2 and 3 once,
    # and each part's pivot rule holds
    entries = [[2, 1, 0], [3, 0, 5]]
    m = LambdaMatrix(carrier(6), entries)
    assert list(howell_form(m).entries) == xgcd_howell(entries, 6, 3)
    assert calls == [6]


@pytest.mark.parametrize("a, g, others, m, part", [
    # a / g = 2 shares the prime 2 with 6: the primes of gcd(2, 6) split
    (4, 2, [4, 3], 6, 2),
    (20, 10, [20, 30], 30, 2),
    # gcds 6, 9 and 8 over Z/72: 6 does not divide 9, and the primes of
    # 6 / gcd(6, 9) = 2 split 72 into 8 and 9; the block's gcd, 1, would
    # leave its quotient 6 with both primes of 72
    (6, 6, [6, 9, 8], 72, 8),
    (6, 6, [12, 6, 8, 9], 72, 9),
    # gcds 10 and 4 over Z/200: 10 / gcd(10, 4) = 5, so 200 splits into
    # 25 and 8
    (10, 10, [10, 4], 200, 25),
])
def test_a_failed_pivot_rule_splits_m_properly(a, g, others, m, part):
    m1 = lambda_core._split(a, g, others, m)
    assert m1 == part
    assert 1 < m1 < m and m % m1 == 0 and gcd(m1, m // m1) == 1


@pytest.mark.parametrize("m", [8, 9, 49, 121, 1024])
def test_the_pivot_rule_always_holds_over_a_prime_power(m):
    # the entry of least gcd divides every other entry and is its gcd
    # times a unit
    for a in range(1, m):
        g = gcd(a, m)
        assert lambda_core._split(a, g, [b for b in range(1, m)
                                         if gcd(b, m) % g == 0], m) == 1


def test_the_z72_column_and_block_split_by_their_first_divisor():
    # gcds 6, 9 and 8: their gcd is 1, so only the first entry that 6 does
    # not divide gives a proper split, in the Howell column and in the
    # Smith block alike
    r = carrier(72)
    for entries in ([[6, 1], [9, 0], [8, 5]], [[6, 0, 0], [0, 9, 0],
                                               [0, 0, 8]],
                    [[6, 9, 8]], [[8, 9], [9, 6]]):
        cols = len(entries[0])
        _assert_engine_matches_reference(72, entries, cols)
        quot = quotient_module(free_module(r, cols), entries)
        assert iso_class(quot) == smith_iso_class(entries, 72, cols)
    diag = quotient_module(free_module(r, 3), [[6, 0, 0], [0, 9, 0],
                                               [0, 0, 8]])
    assert iso_class(diag) == [72, 6]


def test_semiprime_moduli_split_at_once(monkeypatch):
    # n = P1 * P2 with both primes past 10^20, which Pollard rho does not
    # split in practice; gcds split it at the first non-unit column
    monkeypatch.setattr(lambda_core, "_rho", _refuse)
    r = carrier(P1 * P2)
    start = time.perf_counter()
    h = howell_form(LambdaMatrix(r, [[P1, 1], [0, P2]]))
    iso = iso_class(quotient_module(free_module(r, 1), [[P1]]))
    assert time.perf_counter() - start < 0.1
    assert h.rows == ({0: P1, 1: 1}, {1: P2})
    assert iso == [P1]


# ------------------------------------ sparse engine against the dense engine

@st.composite
def sparse_case(draw):
    # a matrix at a drawn density over a ring with and without zero
    # divisors; on composite n some columns hold only multiples of a prime
    # divisor, so that no hit is a unit: the least-gcd pivot and the
    # annihilator rows run over a prime power, and n splits by gcds into
    # coprime parts otherwise
    n = draw(st.sampled_from([7, 11, 8, 12, 30, 121, 143]))
    density = draw(st.sampled_from([0.05, 0.1, 0.25, 0.5, 0.75, 1.0]))
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    divisor = next(d for d in range(2, n + 1) if n % d == 0)
    nonunit = {j for j in range(cols) if divisor < n and rng.random() < 0.5}

    def entry(j):
        if rng.random() >= density:
            return 0
        return rng.randrange(n) * (divisor if j in nonunit else 1) % n
    return n, cols, [tuple(entry(j) for j in range(cols))
                     for _ in range(rows)]


@settings(max_examples=300, deadline=None)
@given(sparse_case())
def test_sparse_engine_matches_dense_engine(case):
    n, cols, entries = case
    ring = carrier(n)
    m = LambdaMatrix(ring, entries, cols=cols)
    assert list(howell_form(m).entries) == dense_howell_engine(
        entries, n, cols)
    assert list(left_kernel(m).entries) == dense_left_kernel(
        entries, n, cols)
    # the first half of the rows presents a module, the rest is quotiented
    half = len(entries) // 2
    base = quotient_module(free_module(ring, cols), entries[:half])
    base_rel = dense_howell_engine(entries[:half], n, cols)
    quot = quotient_module(base, entries[half:])
    quot_rel = dense_howell_engine(base_rel + entries[half:], n, cols)
    assert list(quot.relations.entries) == quot_rel
    assert iso_class(quot) == smith_iso_class(quot_rel, n, cols)
    # m maps Lambda^cols to Lambda^rows modulo the images of the first
    # half's relations and every other column of m
    if not entries:
        return
    images = [tuple(sum(r[j] * x[j] for j in range(cols)) % n
                    for r in entries) for x in base_rel]
    extra = list(zip(*entries))[::2]
    target_rel = dense_howell_engine(images + extra, n, len(entries))
    target = quotient_module(free_module(ring, len(entries)), images + extra)
    assert list(target.relations.entries) == target_rel
    f = ModuleMap(free_module(ring, cols), target, m)
    got = kernel(f)
    rel, gens = dense_kernel(f, target_rel)
    assert list(got.relations.entries) == rel
    assert list(got.witness_rows) == gens
    assert iso_class(got) == smith_iso_class(rel, n, len(gens))


@pytest.mark.parametrize("n", [11, 143])
@pytest.mark.parametrize("p", [2, 3])
def test_ball_boundaries_match_dense_engine(p, n):
    from strata_glue.sl2_coh import bt_ball
    ring = make_ring(n, p)
    for r in range(1, 6):
        ball = bt_ball(p, r)
        boundary = ball.boundary(ring)
        nv, ne = len(ball.vertices), len(ball.edges)
        index = {v: nv - 1 - i for i, v in enumerate(ball.vertices)}
        dense = [[0] * ne for _ in range(nv)]
        for j, (child, parent) in enumerate(ball.edges):
            dense[index[child]][j] = 1
            dense[index[parent]][j] = n - 1
        assert boundary.matrix.entries == tuple(map(tuple, dense))
        h = ball.homology(ring)
        assert list(h[0].relations.entries) == dense_howell_engine(
            list(zip(*dense)), n, nv)
        rel, gens = dense_kernel(boundary, [])
        assert list(h[1].relations.entries) == rel
        assert list(h[1].witness_rows) == gens


@pytest.mark.parametrize("p", [2, 3])
def test_ball_boundary_has_no_fill(p):
    # vertices numbered leaves first: each edge's image leads with its own
    # child's column, at 1, no two images share a leading column, and the
    # elimination files each image once and subtracts nothing
    from strata_glue.sl2_coh import bt_ball
    ring = make_ring(11, p)
    for r in range(1, 7):
        ball = bt_ball(p, r)
        f = ball.boundary(ring)
        nv = len(ball.vertices)
        index = {v: nv - 1 - i for i, v in enumerate(ball.vertices)}
        images = f.image_rows()
        leads = [next(iter(row.items())) for row in images]
        assert leads == [(index[child], 1) for child, _ in ball.edges]
        assert len(set(leads)) == len(leads)
        out, pivots, zeros = _eliminate_map(f)
        assert zeros == []
        assert out == sorted(images, key=min)
        assert pivots == sorted(c for c, _ in leads)

@pytest.mark.parametrize("p, r", [(3, 6), (2, 9)])
def test_ball_homology_at_scale(p, r):
    # 1457 and 1023 vertices: a dense engine takes seconds here
    from strata_glue.sl2_coh import bt_ball
    h = bt_ball(p, r).homology(make_ring(11, p))
    assert iso_class(h[0]) == [11]
    assert iso_class(h[1]) == []


# ------------------------------------------------------------ lazy cokernel

_LAZY_MODULI = (2, 4, 6, 8, 9, 11, 12, 36, 121, 143)


def _reads_agree(module, stack):
    # size and iso class before and after the first read of the relations,
    # and the relations against the Howell form of the stacked rows
    ring, k = module.ring, module.ambient
    before = module.size(), iso_class(module)
    want = howell_form(LambdaMatrix._sparse(ring, stack, k))
    assert _rows(module.relations) == _rows(want)
    assert (module.size(), iso_class(module)) == before
    eager = FgModule(ring, k, want)
    assert (eager.size(), iso_class(eager)) == before


@pytest.mark.parametrize("n", _LAZY_MODULI)
def test_lazy_cokernel_relations_are_the_stacked_howell_form(n):
    # maps into free and into quotient targets, and plain matrices: each
    # cokernel's relations, reduced on first read, are the Howell form of
    # the image rows stacked on the target relations
    rng = random.Random(f"lazy-cokernel:{n}")
    r = carrier(n)
    for _ in range(40):
        rows, cols = rng.randrange(7), rng.randrange(1, 7)
        m = LambdaMatrix(r, _random_entries(rng, n, rows, cols), cols=cols)
        _reads_agree(left_kernel_cokernel(m)[1], list(m.rows))
        target = free_module(r, cols)
        if rng.randrange(2):
            target = quotient_module(target, _random_entries(
                rng, n, rng.randrange(1, 4), cols))
        f = ModuleMap(free_module(r, rows), target, m.transpose())
        _reads_agree(kernel_cokernel(f)[1],
                     list(f.image_rows()) + list(target.relations.rows))


def _snapshot(*row_lists):
    # every row with its column order, copied, to compare after the calls
    return copy.deepcopy([[list(r.items()) for r in rows]
                          for rows in row_lists])


def _engine_cases(n, rng):
    """Matrices that take every step of the engine over Z/n, each with a
    zero row: a unit column whose pivot is scaled and whose other row is
    cleared; a column of multiples of a prime factor g of n, which over a
    prime power pivots on g and files n / g times the pivot row again, and
    over two or more primes splits n by gcds and joins the parts by CRT;
    entries above later pivots; then random matrices of dense, sparse and
    non-unit entries, each with a zero row slipped in."""
    g = next(d for d in range(2, n + 1) if n % d == 0)
    u = next(x for x in range(2, n) if gcd(x, n) == 1)
    cases = [[[u, g, 5, 1], [1, 2 * g, 0, 3], [0, 0, 0, 0], [0, g, 1, 0],
              [0, 0, 7, 2]]]
    for _ in range(24):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 7)
        entries = _random_entries(rng, n, rows, cols)
        entries.insert(rng.randrange(rows + 1), [0] * cols)
        cases.append(entries)
    return [LambdaMatrix(carrier(n), e, cols=len(e[0])) for e in cases]


@pytest.mark.parametrize("n", [11, 9, 8, 12, 143, 1001])
def test_engine_never_writes_its_callers_rows(n):
    # the engine works on the rows it is given as they are, so no call, nor
    # a later read of a cokernel's relations or iso class, may write to
    # them; and a zero row i still gives e_i in the left kernel
    rng = random.Random(f"no-writes:{n}")
    r = carrier(n)
    for m in _engine_cases(n, rng):
        k = m.nrows
        target = free_module(r, m.cols)
        if rng.randrange(2):
            target = quotient_module(target, _random_entries(
                rng, n, rng.randrange(1, 3), m.cols))
        f = ModuleMap(free_module(r, k), target, m.transpose())
        extra = [dict(row) for row in m.rows[:2]]
        before = _snapshot(m.rows, f.image_rows(), target.relations.rows,
                           extra)
        howell_form(m)
        kern = left_kernel(m)
        for i, row in enumerate(m.rows):
            if not row:
                with_ei = LambdaMatrix._sparse(r, kern.rows + ({i: 1},), k)
                assert _rows(howell_form(with_ei)) == _rows(kern), i
        kern2, coker = left_kernel_cokernel(m)
        for module in (coker, *kernel_cokernel(f),
                       quotient_module(target, f.image_rows()),
                       quotient_module(target, extra)):
            module.relations
            iso_class(module)
        assert _rows(kern2) == _rows(kern)
        assert _snapshot(m.rows, f.image_rows(), target.relations.rows,
                         extra) == before


def test_unit_pivot_sizes_and_iso_classes_never_reduce(monkeypatch):
    # over a prime n every pivot is 1, so sizes and iso classes read the
    # pivots alone; the kernels here have at most one row, which has
    # nothing above its pivot either
    from strata_glue import lambda_core
    from strata_glue.finite_rep import rep_model
    from strata_glue.sl2_coh import bt_ball, cohomology_report

    def refuse(*args):
        raise AssertionError("reduced above the pivots")
    monkeypatch.setattr(lambda_core, "_reduce_above", refuse)
    h = bt_ball(3, 5).homology(make_ring(11, 3))
    assert (h[0].size(), h[1].size()) == (11, 1)
    assert (iso_class(h[0]), iso_class(h[1])) == ([11], [])
    for n in (11, 1000003):
        ring = make_ring(n, 3)
        assert cohomology_report(rep_model(ring, "st", 2)) == {
            "H0": [], "H1": [n]}
        assert cohomology_report(rep_model(ring, "ind(0,0)", 2)) == {
            "H0": [n], "H1": [n]}


def test_sparse_rows_and_dense_view_agree():
    r = carrier(12)
    m = LambdaMatrix(r, [{3: 14, 0: 6, 1: 12}, (0, 5, 0, 0), [0, 0, 0, -1]])
    assert m.rows == ({0: 6, 3: 2}, {1: 5}, {3: 11})
    assert [list(row) for row in m.rows] == [[0, 3], [1], [3]]
    assert m.entries == ((6, 0, 0, 2), (0, 5, 0, 0), (0, 0, 0, 11))
    assert m.transpose().rows == ({0: 6}, {1: 5}, {}, {0: 2, 2: 11})
    with pytest.raises(ValueError, match="column count"):
        LambdaMatrix(r, [{0: 1}])
    with pytest.raises(ValueError, match="outside 0..2"):
        LambdaMatrix(r, [{3: 1}], cols=3)
    f = ModuleMap(free_module(r, 4), free_module(r, 3), m)
    assert f.image_rows() == m.transpose().rows


# ------------------------------------------------------------ unit normalizer

def test_unit_scale_exhaustive():
    # the normalizer of the reference engine xgcd_howell
    for n in range(2, 301):
        for a in range(1, n):
            u = _unit_scale(a, n)
            assert gcd(u, n) == 1 and u * a % n == gcd(a, n), (a, n, u)
