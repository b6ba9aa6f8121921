"""Brute-force enumeration oracles for the exact linear algebra layer, the
subgroup images and the orbit sweep, plus reference copies of replaced fast
paths and of the group action itself.

Everything here is deliberately naive: closures of vectors, of 2x2 matrix
images and of action matrices (the averaging projector), full vector
enumeration, element-order multisets, congruence subgroups generated at
every depth, one act() per generator and point, one pow() and one
union-find call per point and generator, an extended-gcd combine for every
row of a Howell column, the dense Howell engine that rescans every live
row per column, a pullback that solves for each point's source
point afresh, a Jacquet stage engine that smooths vectors on every point
of the line, one that visits every point to build each stage's disc
coordinates, one that holds a value per disc and one that builds each
probe's full transfer rows, fixed points as the kernel of dense action
matrices against a model rebuilt one level up and as the span of orbit
indicators, the closed forms' cell rows written out over every point of
the line, iso classes from the integer Smith form of the relations
stacked on n * I, moduli factored by trial division, tree-ball vertices
moved by act(), and the tree-ball boundary written as vertex rows.
Points of P^1(O/pi^m) are ProjPoint objects here, the reference that
padic_core's index codec is pinned against.

act() is the truncated p-adic layer the package ran before its sweeps
became residue arithmetic: point coordinates are Laurent numbers known
modulo a power of p, group elements are matrices with exact Laurent
entries, poles allowed, and act() canonicalizes x*g or raises
PrecisionExhausted where the point's precision cannot certify the image.
The package's residue sweeps and its closed forms for the eta-inverse
images and for the fixed points are pinned against it.

The linear algebra oracles are feasible for ambient rank <= 4 and modulus
<= 9, which is the regime the property tests run in.  The package code
must agree with these oracles.  Beyond the public API they import only
helpers that they do not restate: the unit generators, the eta-inverse
images, the point codec, the 2x2 scaled inverse, the residues of one
depth, the echelon engine, the unchecked matrix wrapper and the integral
table's degeneration certificate.

The gluing path through provenance tags, with its split input and rule
tables and its string-built contragredient, is kept at the end; glue and
hc_tilde are pinned against it.
"""

import itertools
from itertools import chain, compress, count, islice
from fractions import Fraction
from functools import lru_cache
from math import gcd

from strata_glue.char_engine import (DegreeNotInTable, GradedCharModule,
                                     JacquetSymbol, TorusChar, UnramChar,
                                     UnsupportedSpec, ts_homology)
from strata_glue.finite_rep import (_depth_residues, _scaled_inverse,
                                    induced_exponents, induced_rep,
                                    parse_rep_spec, steinberg, trivial_rep)
from strata_glue.lambda_core import (FgModule, LambdaMatrix, ModuleMap,
                                     _eliminate, free_module, howell_form,
                                     identity_matrix, iso_class, kernel,
                                     left_kernel, quotient_module)
from strata_glue import padic_core
from strata_glue.padic_core import (SubgroupSpec, UnsupportedSubgroup,
                                   _unit_gens, p1_size, project)
from strata_glue.sl2_coh import sl2_cohomology


def mat_mul(ring, a_rows, b_rows, b_cols):
    """Product of two matrices over Z/n, as lists of rows."""
    n = ring.n
    out = []
    for ar in a_rows:
        row = [0] * b_cols
        for c, br in zip(ar, b_rows):
            if c:
                for j in range(b_cols):
                    row[j] = (row[j] + c * br[j]) % n
        out.append(row)
    return out


def all_vectors(length, n):
    return list(itertools.product(range(n), repeat=length))


def span_of(rows, n, width=None):
    """Set of all Z/n-linear combinations of the given rows (BFS closure)."""
    if width is None:
        width = len(rows[0]) if rows else 0
    zero = tuple([0] * width)
    seen = {zero}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        for r in rows:
            w = tuple((a + b) % n for a, b in zip(v, r))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def brute_left_kernel(rows, n):
    """All x with x * M = 0, M given by rows (x has one entry per row)."""
    if not rows:
        return set(all_vectors(0, n))
    width = len(rows[0])
    out = set()
    for x in all_vectors(len(rows), n):
        img = [0] * width
        for c, r in zip(x, rows):
            for j in range(width):
                img[j] = (img[j] + c * r[j]) % n
        if not any(img):
            out.add(x)
    return out


def howell_box(m):
    """x·m, as dense tuples, for every x in the coefficient box
    0 <= x_i < n / gcd(pivot_i, n), pivot_i the entry of row i at its least
    column, in itertools.product order.  On a Howell form this lists each
    element of the row span exactly once.  A zero row has order 1."""
    n = m.ring.n
    orders = [n // gcd(r[min(r)] if r else 0, n) for r in m.rows]
    return [tuple(sum(c * r[j] for c, r in zip(x, m.entries)) % n
                  for j in range(m.cols))
            for x in itertools.product(*map(range, orders))]


def coset_space(ambient, relation_rows, n):
    """List of cosets of span(relation_rows) in (Z/n)^ambient, as frozensets."""
    sp = span_of(relation_rows, n) if relation_rows else {tuple([0] * ambient)}
    leftover = set(all_vectors(ambient, n))
    cosets = []
    while leftover:
        v = next(iter(leftover))
        cs = frozenset(tuple((a + b) % n for a, b in zip(v, s)) for s in sp)
        cosets.append(cs)
        leftover -= cs
    return cosets


def element_order_multiset(ambient, relation_rows, n):
    """Multiset of additive element orders in (Z/n)^ambient / span(relations)."""
    sp = span_of(relation_rows, n) if relation_rows else {tuple([0] * ambient)}
    orders = []
    for v in all_vectors(ambient, n):
        k = 1
        w = v
        while w not in sp:
            k += 1
            w = tuple((a + b) % n for a, b in zip(w, v))
        orders.append(k)
    # every coset is counted |span| times
    orders.sort()
    return orders[:: len(sp)] if sp else orders


def orders_of_factor_sum(factors, n):
    """Expected element-order multiset of a direct sum of cyclic groups Z/d."""
    orders = []
    for combo in itertools.product(*[range(d) for d in factors]):
        k = 1
        for d, c in zip(factors, combo):
            if c:
                k = k * (d // gcd(d, c)) // gcd(k, d // gcd(d, c))
        orders.append(k)
    orders.sort()
    return orders


def factor_trial_division(n):
    """Pairs (l, l^e) over the primes l dividing n exactly e times, l
    ascending, by trial division up to sqrt(n): the reference that
    lambda_core._factor's Pollard rho is pinned against."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            q = 1
            while n % d == 0:
                n //= d
                q *= d
            out.append((d, q))
        d += 1
    if n > 1:
        out.append((n, n))
    return tuple(out)


class PrecisionExhausted(ArithmeticError):
    """The truncated layer below cannot certify a residue at the level
    asked for.  needed is that level, available the precision at hand.
    """

    def __init__(self, message, needed=None, available=None):
        super().__init__(message)
        self.needed = needed
        self.available = available


# Points of P^1(O/pi^m) as objects, as padic_core carried them before every
# point became its index.  act() below returns them, and padic_core's index
# codec (p1_size, point_label, project) is pinned against them.  Copied
# verbatim; point_index is the codec's index of a point.

class ProjPoint:
    """Canonical point of P^1(O/pi^level): [1:t], or [s:1] with pi | s."""

    __slots__ = ("p", "level", "branch", "res")

    def __init__(self, p, level, branch, res):
        self.p = p
        self.level = level
        self.branch = branch
        self.res = res

    @classmethod
    def big_cell(cls, p, level, t):
        return cls(p, level, "b", t % p ** level)

    @classmethod
    def inf_cell(cls, p, level, s):
        s = s % p ** level
        if s % p:
            raise ValueError("second-branch residue must be divisible by p")
        return cls(p, level, "i", s)

    def project(self, level):
        if level > self.level:
            raise PrecisionExhausted("cannot refine a point to a finer level",
                                     needed=level, available=self.level)
        return ProjPoint(self.p, level, self.branch, self.res % self.p ** level)

    def _key(self):
        return (self.p, self.level, self.branch, self.res)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __lt__(self, other):
        # big cell first, then by residue; callers compare within one level
        return (self.branch, self.res) < (other.branch, other.res)

    def __str__(self):
        if self.branch == "b":
            return f"[1:{self.res}]"
        return f"[{self.res}:1]"

    def __repr__(self):
        return f"ProjPoint({self.p}^{self.level}, {self})"


def enumerate_p1(p, m):
    """All canonical points at level m, in canonical order."""
    pts = [ProjPoint.big_cell(p, m, t) for t in range(p ** m)]
    pts += [ProjPoint.inf_cell(p, m, s) for s in range(0, p ** m, p)]
    return pts


def point_index(x):
    """Position of x in enumerate_p1 order: [1:t] is t, [s:1] p^m + s/p."""
    return x.res if x.branch == "b" else x.p ** x.level + x.res // x.p


# The truncated Laurent layer and act() as padic_core ran them, before
# every subgroup it serves had integer generators in GL2(O).  Copied
# verbatim.

INF = 10 ** 9  # absolute-precision sentinel for exactly known values


def _sat(x, y):
    # precision addition, saturating at INF
    if x >= INF or y >= INF:
        return INF
    return x + y


class Laur:
    """p-normalized value a*p^w known modulo p^prec (prec=INF means exact).

    a is an exact integer prime to p, or 0; an inexact zero keeps a=0 with a
    finite prec, meaning only "divisible by p^prec".  Addition floors the
    precision, multiplication shifts it by the other factor's valuation.
    No general inversion is offered: residues of ratios are produced by
    act(), which knows the pivot is certified first.
    """

    __slots__ = ("p", "a", "w", "prec")

    def __init__(self, p, a, w, prec):
        self.p = p
        self.a = a
        self.w = w
        self.prec = prec

    @classmethod
    def make(cls, p, a, w, prec):
        if a == 0:
            return cls(p, 0, 0, prec)
        while a % p == 0:
            a //= p
            w += 1
        if prec < INF:
            rel = prec - w
            if rel <= 0:
                return cls(p, 0, 0, prec)
            a %= p ** rel
        return cls(p, a, w, prec)

    def vbound(self):
        # exact valuation when a != 0, else the lower bound carried by prec
        return self.w if self.a else self.prec

    def add(self, other):
        p = self.p
        prec = min(self.prec, other.prec)
        if self.a == 0 and other.a == 0:
            return Laur(p, 0, 0, prec)
        if self.a == 0:
            return Laur.make(p, other.a, other.w, prec)
        if other.a == 0:
            return Laur.make(p, self.a, self.w, prec)
        w0 = min(self.w, other.w)
        tot = self.a * p ** (self.w - w0) + other.a * p ** (other.w - w0)
        return Laur.make(p, tot, w0, prec)

    def neg(self):
        return Laur.make(self.p, -self.a, self.w, self.prec)

    def mul(self, other):
        prec = min(_sat(self.prec, other.vbound()),
                   _sat(other.prec, self.vbound()))
        if self.a == 0 or other.a == 0:
            return Laur(self.p, 0, 0, prec)
        return Laur.make(self.p, self.a * other.a, self.w + other.w, prec)

    def __repr__(self):
        if self.a == 0:
            return "0" if self.prec >= INF else f"O({self.p}^{self.prec})"
        tail = "" if self.prec >= INF else f"+O({self.p}^{self.prec})"
        return f"{self.a}*{self.p}^{self.w}{tail}"


class LaurentMatrix:
    """2x2 matrix with exact Laurent entries: the group side of the action."""

    __slots__ = ("p", "e")

    def __init__(self, p, e):
        self.p = p
        self.e = e

    def mul(self, other):
        a, b = self.e, other.e
        rows = tuple(
            tuple(a[i][0].mul(b[0][j]).add(a[i][1].mul(b[1][j]))
                  for j in range(2))
            for i in range(2))
        return LaurentMatrix(self.p, rows)

    def det(self):
        e = self.e
        return e[0][0].mul(e[1][1]).add(e[0][1].mul(e[1][0]).neg())

    def maxneg(self):
        """Deepest pole among the entries; 0 for an integral matrix."""
        d = 0
        for row in self.e:
            for x in row:
                if x.a and -x.w > d:
                    d = -x.w
        return d

    def int_entries(self, level):
        """Plain integer matrix mod p^level; the matrix must be integral."""
        md = self.p ** level
        out = []
        for row in self.e:
            vals = []
            for x in row:
                if x.a == 0:
                    vals.append(0)
                    continue
                if x.w < 0:
                    raise ValueError("matrix has a pole, no integer image")
                vals.append(x.a * self.p ** x.w % md)
            out.append(tuple(vals))
        return tuple(out)

    def __repr__(self):
        return f"LaurentMatrix({self.p}, {self.e!r})"


def laurent_matrix(p, entries):
    """Matrix with exact integer entries."""
    return LaurentMatrix(p, tuple(
        tuple(Laur.make(p, v, 0, INF) for v in row) for row in entries))


def diag_matrix(p, w1, w2):
    """diag(pi^w1, pi^w2); either exponent may be negative."""
    z = Laur(p, 0, 0, INF)
    return LaurentMatrix(p, ((Laur.make(p, 1, w1, INF), z),
                             (z, Laur.make(p, 1, w2, INF))))


def elem_upper(p, c, w=0):
    """[[1, c*pi^w], [0, 1]]"""
    z = Laur(p, 0, 0, INF)
    one = Laur.make(p, 1, 0, INF)
    return LaurentMatrix(p, ((one, Laur.make(p, c, w, INF)), (z, one)))


def elem_lower(p, c, w=0):
    """[[1, 0], [c*pi^w, 1]]"""
    z = Laur(p, 0, 0, INF)
    one = Laur.make(p, 1, 0, INF)
    return LaurentMatrix(p, ((one, z), (Laur.make(p, c, w, INF), one)))


class Cocycle:
    """Valuation data of the scalar pinned down by canonicalization.

    scalar_val is v(lambda) for the pivot scalar; torus_vals is the pair
    (v(det g) - v(lambda), v(lambda)), the diagonal part of the lift's
    triangular factorization.  Both add along composition.
    """

    __slots__ = ("scalar_val", "torus_vals")

    def __init__(self, scalar_val, torus_vals):
        self.scalar_val = scalar_val
        self.torus_vals = torus_vals

    def __repr__(self):
        return f"Cocycle({self.scalar_val}, {self.torus_vals})"


def _lift(x):
    # canonical lift: the leading coordinate is exact, the other is known
    # only to the point's own level
    one = Laur.make(x.p, 1, 0, INF)
    fuzzy = Laur.make(x.p, x.res, 0, x.level)
    if x.branch == "b":
        return one, fuzzy
    return fuzzy, one


def _ratio_residue(num, den, level, p):
    # num/den as an integer residue mod p^level; den is the certified pivot
    wd = den.w
    prec = min(_sat(num.prec, -wd),
               _sat(_sat(den.prec, -2 * wd), num.vbound()))
    if prec < level:
        raise PrecisionExhausted(
            f"residue known mod {p}^{prec}, level {level} requested")
    if num.a == 0:
        return 0
    shift = num.w - wd
    if shift >= level:
        return 0
    md = p ** (level - shift)
    r = num.a * pow(den.a % md, -1, md) % md
    return r * p ** shift


def act(x, g, level):
    """Right action: the canonical form of x*g at the requested level.

    Returns (point, Cocycle).  The pivot is the surviving coordinate of
    smallest valuation; choosing it needs that valuation to be decidable,
    and the ratio residue must survive to the requested level, otherwise
    PrecisionExhausted.
    """
    p = x.p
    if g.p != p:
        raise ValueError("mixed residue characteristics")
    x1, x2 = _lift(x)
    e = g.e
    c1 = x1.mul(e[0][0]).add(x2.mul(e[1][0]))
    c2 = x1.mul(e[0][1]).add(x2.mul(e[1][1]))
    if c1.a and c1.w <= c2.vbound():
        piv, other, branch = c1, c2, "b"
    elif c2.a and c2.w < c1.vbound():
        # strict: the second branch requires v(ratio) >= 1
        piv, other, branch = c2, c1, "i"
    else:
        raise PrecisionExhausted("pivot valuation is not determined")
    res = _ratio_residue(other, piv, level, p)
    det = g.det()
    if det.a == 0:
        raise ValueError("matrix is singular to working precision")
    coc = Cocycle(piv.w, (det.w - piv.w, piv.w))
    if branch == "b":
        return ProjPoint.big_cell(p, level, res), coc
    return ProjPoint.inf_cell(p, level, res), coc


def _in_gl2_o(g):
    # integral with a unit determinant: acts on P^1(O/pi^m) for every m
    det = g.det()
    return g.maxneg() == 0 and det.a != 0 and det.w == 0


def induced_parent(sig):
    """A Steinberg model's untwisted induced parent; any other model."""
    if sig.kind == "steinberg":
        return induced_rep(sig.ring, (1, 1), sig.level)
    return sig


# FiniteRep.action_matrix as it ran for the trivial, induced and Steinberg
# models, one act() per label; an inflated model reads g's residues mod p
# through its own table.

def action_matrix(sig, g):
    """Matrix of g acting on coordinate columns; rows follow the labels."""
    ring, n = sig.ring, sig.ring.n
    if sig.kind == "trivial":
        return LambdaMatrix(ring, ((1,),))
    if sig.kind == "induced":
        labels = enumerate_p1(sig.p, sig.level)
        index = {x: i for i, x in enumerate(labels)}
        rows = [[0] * sig.rank for _ in range(sig.rank)]
        for i, x in enumerate(labels):
            y, coc = act(x, g, sig.level)
            rows[i][index[y]] = _chi_val(ring, sig.chi, coc.torus_vals)
        return LambdaMatrix._reduced(ring, map(tuple, rows), sig.rank)
    if sig.kind == "steinberg":
        full = action_matrix(induced_parent(sig), g).entries
        rows = [tuple((x - y) % n for x, y in zip(r[1:], full[0][1:]))
                for r in full[1:]]
        return LambdaMatrix._reduced(ring, rows, sig.rank)
    if sig.kind == "inflated":
        if g.maxneg() > 0:
            raise ValueError("inflated models only see integral matrices")
        return sig.action_matrix(g.int_entries(1))
    raise ValueError(f"unknown model kind {sig.kind!r}")


# subgroup_generators as it ran before it returned one generating set per
# group: Gamma_k and K_m list their generators at every depth in [k, m).
# The orbit and fixed-point references below sweep these, so they do not
# follow a trim of the live generating sets.  At k = 0 they are SL2(O) and
# GL2(O) on their standard generators, since 1 + p^0 = 2 is no unit at
# p = 2 and does not generate the units mod 7^m.

def level_generators(spec, p, m):
    """Generator matrices, all with exact entries, for the image at level m.

    Unit parameters are taken mod p^m, so the generated image is only
    meaningful at levels up to m.  Uprime has a pole, so only act() sweeps
    it.
    """
    kind, k = spec.kind, spec.k
    if kind == "U":
        return [elem_upper(p, 1), elem_lower(p, 1)]
    if kind == "Uprime":
        # conjugate of U by diag(1, pi)
        return [elem_upper(p, 1, -1), elem_lower(p, 1, 1)]
    if kind == "Gamma0":
        gens = [elem_upper(p, 1), elem_lower(p, 1, 1)]
        for u in _unit_gens(p, m):
            gens.append(laurent_matrix(p, [[u, 0], [0, 1]]))
            gens.append(laurent_matrix(p, [[1, 0], [0, u]]))
        return gens
    if kind in ("Gamma_k", "K_m") and k == 0:
        gens = [elem_upper(p, 1), elem_lower(p, 1)]
        if kind == "K_m":
            gens += [laurent_matrix(p, [[u, 0], [0, 1]])
                     for u in _unit_gens(p, m)]
        return gens
    if kind == "Gamma_k":
        md = p ** m
        gens = []
        for lev in range(k, m):
            u = 1 + p ** lev
            gens.append(elem_upper(p, 1, lev))
            gens.append(elem_lower(p, 1, lev))
            gens.append(laurent_matrix(p, [[u, 0], [0, pow(u, -1, md)]]))
        return gens
    if kind == "K_m":
        gens = []
        for lev in range(k, m):
            u = 1 + p ** lev
            gens.append(elem_upper(p, 1, lev))
            gens.append(elem_lower(p, 1, lev))
            gens.append(laurent_matrix(p, [[u, 0], [0, 1]]))
            gens.append(laurent_matrix(p, [[1, 0], [0, u]]))
        return gens
    raise UnsupportedSubgroup(kind)


def _mul2(a, b, md):
    return tuple(
        tuple((a[i][0] * b[0][j] + a[i][1] * b[1][j]) % md for j in range(2))
        for i in range(2))


def closure_size(gens, p, m):
    """Order of the group the images of integer 2x2 matrices generate mod
    p^m.

    Forward closure only: the image monoid is finite, hence already a group.
    """
    md = p ** m
    imgs = [tuple(tuple(x % md for x in row) for row in g) for g in gens]
    ident = ((1 % md, 0), (0, 1 % md))
    seen = {ident}
    frontier = [ident]
    while frontier:
        grown = []
        for a in frontier:
            for b in imgs:
                c = _mul2(a, b, md)
                if c not in seen:
                    seen.add(c)
                    grown.append(c)
        frontier = grown
    return len(seen)


def act_sweep_orbits(spec, m, p):
    """Orbit partition by one act() per generator and point, as orbits()
    computed it for every generator before its residue sweep: all points of
    a level raised by twice the pole depth plus slack, merged at level m.
    Blocks are tuples of point indices, as orbits() returns them."""
    gens = level_generators(spec, p, m)
    depth = max((g.maxneg() for g in gens), default=0)
    internal = m if depth == 0 else m + 2 * depth + 2
    base = enumerate_p1(p, m)
    block = {x: {x} for x in base}
    for x in enumerate_p1(p, internal):
        for g in gens:
            a, b = block[x.project(m)], block[act(x, g, m)[0]]
            if a is not b:
                a |= b
                for y in b:
                    block[y] = a
    out = {id(b): tuple(sorted(map(point_index, b)))
           for b in block.values()}
    return sorted(out.values(), key=lambda b: b[0])


# The union-find sweep that orbit_classification_check ran before its
# orbits were proved on the generators to be the fibres over level k, with
# the branches of subgroup_generators that only the sweep reached: the
# principal congruence subgroups K_m of GL2(O), and depth 0.  The sweep is
# copied verbatim, kept as the reference for the written-down fibres and
# for the closed-form fixed points.

def subgroup_generators(spec, p, m):
    """padic_core.subgroup_generators, and K_m and depth k = 0 besides.

    K_m keeps Gamma_k's depths, with diag(u, 1) and diag(1, u) in place of
    diag(u, u^-1).  At k = 0 the groups are SL2(O), generated by the two
    elementary unipotents, and GL2(O), which adds diag(u, 1) for each
    generator u of the units mod p^m.
    """
    kind, k = spec.kind, spec.k
    if kind in ("Gamma_k", "K_m") and k == 0:
        gens = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
        if kind == "K_m":
            gens += [((u, 0), (0, 1)) for u in _unit_gens(p, m)]
        return gens
    if kind == "K_m":
        gens = []
        for g in padic_core.subgroup_generators(
                SubgroupSpec("Gamma_k", k=k), p, m):
            (a, b), (c, d) = g
            if b or c:
                gens.append(g)
            else:
                gens += [((a, 0), (0, 1)), ((1, 0), (0, a))]
        return gens
    return padic_core.subgroup_generators(spec, p, m)


def _unit_inverses(p, m):
    """inv[u] = u^-1 mod p^m for every unit u < p^m; 0 at the non-units.

    Each unit is a product of powers of the generators of (Z/p^m)^*
    (_unit_gens), and (g^i * u)^-1 = g^-i * u^-1, g^-i being the powers of
    g read backwards from g^0: two multiplications per unit, no pow.  At
    m = 0 the table is [0].
    """
    md = p ** m
    inv = [0] * md
    units = invs = [1 % md]
    for g in _unit_gens(p, m):
        powers = [1]
        while (x := powers[-1] * g % md) != 1:
            powers.append(x)
        units = [u * x % md for x in powers for u in units]
        invs = [v * x % md for x in powers[:1] + powers[:0:-1] for v in invs]
    for u, v in zip(units, invs):
        inv[u] = v
    return inv


def _integral_images(g, p, m, inv):
    """Index of x*g for every level-m point x, in index order.

    g must lie in GL2(O): it maps the primitive lift (1, t) or (s, 1) to a
    primitive (c1, c2), so one coordinate is a unit and the ratio is exact
    mod p^m.  inv is _unit_inverses(p, m).  Along each cell the lifts step
    by (0, 1) or (p, 0), so their images step by (c, d) or (p*a, p*b).
    When p | c, g is upper triangular mod p: c1 = a + t*c is a unit on the
    big cell and s*a + c is not on the other, so no point needs the test.
    When c = 0, c1 = a at every point of the big cell, whose images are
    then the progression (b + t*d) * a^-1.
    """
    md = p ** m
    (a, b), (c, d) = [[x % md for x in row] for row in g]
    big = zip(islice(count(a, c), md), count(b, d))
    small = zip(islice(count(c, p * a), md // p), count(d, p * b))
    if c % p == 0:
        if c == 0:
            # a and d are units, so the step is not 0
            b0, step = b * inv[a] % md, d * inv[a] % md
            cell = [x % md for x in range(b0, b0 + step * md, step)]
        else:
            cell = [c2 * inv[c1 % md] % md for c1, c2 in big]
        return cell + [md + c1 * inv[c2 % md] % md // p for c1, c2 in small]
    out = []
    for c1, c2 in chain(big, small):
        c1 %= md
        if c1 % p:
            out.append(c2 * inv[c1] % md)
        else:
            out.append(md + c1 * inv[c2 % md] % md // p)
    return out


def orbits(spec, m, p):
    """Partition of P^1(O/pi^m) into orbits of the named subgroup.

    The caller's m is the one working level: the generators are those of
    subgroup_generators(spec, p, m).  Every generator lies in GL2(O) and
    acts on the level-m points by residue arithmetic mod p^m
    (_integral_images); every point feeds one union per generator, and
    union-find closes the relation symmetrically.  One table of unit
    inverses mod p^m, built per call, serves every generator, and the
    images of one generator are merged before the next one's are made.
    Blocks are tuples of point indices in index order, and they come in
    the order of their first points.  Raises ValueError when
    m < 1, where no residue is a unit, and UnsupportedSubgroup for a kind
    that subgroup_generators does not know.
    """
    if m < 1:
        raise ValueError("orbits need level at least 1")
    gens = subgroup_generators(spec, p, m)
    parent = list(range(p1_size(p, m)))
    inv = _unit_inverses(p, m)
    for g in gens:
        # union-find with path halving, inlined (the chained assignment
        # sets parent[i] before i moves); the root of each class is its
        # least index; points that share a parent are one class already
        for i, j in enumerate(_integral_images(g, p, m, inv)):
            if parent[i] == parent[j]:
                continue
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i < j:
                parent[j] = i
            elif j < i:
                parent[i] = j

    # parents point to lesser indices, so in index order the parent's
    # parent is already the root
    blocks = {}
    for i in range(len(parent)):
        parent[i] = r = parent[parent[i]]
        blocks.setdefault(r, []).append(i)
    return [tuple(b) for b in blocks.values()]


# The GL2(O) residue sweep that orbits() ran before it shared one table of
# unit inverses per call and inlined its union-find: one pow() per point
# and generator, and one union() call per point and generator.  Copied
# verbatim, kept as the reference for the new sweep.

def _find(parent, i):
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _pow_integral_images(g, p, m):
    """Index of x*g for every level-m point x, in enumerate_p1 order.

    [1:t] has index t and [s:1] index p^m + s//p.  g must lie in GL2(O):
    it maps the primitive lift (1, t) or (s, 1) to a primitive (c1, c2), so
    one coordinate is a unit and the ratio is exact mod p^m; this is what
    act(x, g, m) returns.
    """
    md = p ** m
    (a, b), (c, d) = g.int_entries(m)
    lifts = [(1, t) for t in range(md)] + [(s, 1) for s in range(0, md, p)]
    out = []
    for x1, x2 in lifts:
        c1 = (x1 * a + x2 * c) % md
        c2 = (x1 * b + x2 * d) % md
        if c1 % p:
            out.append(c2 * pow(c1, -1, md) % md)
        else:
            out.append(md + c1 * pow(c2, -1, md) % md // p)
    return out


def residue_sweep_orbits(spec, m, p):
    """Partition of P^1(O/pi^m) into orbits of the named subgroup.

    Every point feeds one union per generator, and union-find closes the
    relation symmetrically.  Two sweeps share the work.  A generator in
    GL2(O) acts on the level-m points themselves, by residue arithmetic mod
    p^m (_pow_integral_images).  Every other generator, one with a pole or with
    a non-unit determinant, goes through act() on each point of a raised
    internal level L: L exceeds m by twice the pole depth plus slack, and
    act() raises PrecisionExhausted where even that cannot certify the
    image at level m.  Blocks are tuples of point indices, as orbits()
    returns them.
    """
    gens = level_generators(spec, p, m)
    base = enumerate_p1(p, m)
    parent = list(range(len(base)))

    def union(i, j):
        ri, rj = _find(parent, i), _find(parent, j)
        if ri != rj:
            parent[rj] = ri

    rest = []
    for g in gens:
        # at level 0 no residue is a unit, and act() alone decides
        if m >= 1 and _in_gl2_o(g):
            for i, j in enumerate(_pow_integral_images(g, p, m)):
                union(i, j)
        else:
            rest.append(g)
    if rest:
        depth = max(g.maxneg() for g in rest)
        internal = m if depth == 0 else m + 2 * depth + 2
        index = {x: i for i, x in enumerate(base)}
        for x in enumerate_p1(p, internal):
            src = index[x.project(m)]
            for g in rest:
                y, _ = act(x, g, m)
                union(src, index[y])

    blocks = {}
    for i in range(len(base)):
        blocks.setdefault(_find(parent, i), []).append(i)
    out = [tuple(sorted(b)) for b in blocks.values()]
    out.sort(key=lambda b: b[0])
    return out


# The table of unit inverses that orbits() built before it took the powers
# of the unit generators: one pow() per unit.  Copied verbatim, kept as
# the reference for the new table.

def pow_unit_inverses(p, m):
    """inv[u] = u^-1 mod p^m for every unit u < p^m; 0 at the non-units."""
    md = p ** m
    inv = [0] * md
    for u in range(1, md):
        if u % p:
            inv[u] = pow(u, -1, md)
    return inv


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _unit_scale(a, n):
    # the closed-form normalizer: a unit u with u*a = gcd(a, n) mod n
    d = gcd(a, n)
    u0 = pow(a // d, -1, n // d)
    c = n
    while (g := gcd(c, u0)) > 1:
        c //= g
    return (u0 + c * (n // d)) % n


def xgcd_howell(rows, n, width, kernel=False):
    """Howell rows of the span of rows over Z/n, or rows spanning its left
    kernel, as the engine computed them before its unit-pivot path: the
    first row of each column is combined with every other one by an
    extended-gcd step over the full width, whatever the entries are."""
    live, zeros = [], []
    for i, r in enumerate(rows):
        row = [e % n for e in r]
        if kernel:
            row += [0] * len(rows)
            row[width + i] = 1
        (live if any(row[:width]) else zeros).append(row)
    out, pivots = [], []
    for col in range(width):
        if not live:
            break
        hits = [w for w in live if w[col]]
        rest = [w for w in live if not w[col]]
        if hits:
            piv = hits[0]
            for b in hits[1:]:
                av, bv = piv[col], b[col]
                g, s, t = _xgcd(av, bv)
                u, v = -(bv // g), av // g
                pairs = list(zip(piv[col:], b[col:]))
                piv[col:] = [(s * x + t * y) % n for x, y in pairs]
                b[col:] = [(u * x + v * y) % n for x, y in pairs]
                if any(b[col + 1:width]):
                    rest.append(b)
                elif kernel:
                    zeros.append(b)
            u = _unit_scale(piv[col], n)
            piv[col:] = [(u * x) % n for x in piv[col:]]
            out.append(piv)
            pivots.append(col)
            if piv[col] > 1:
                ann = n // piv[col]
                arow = [0] * col + [(ann * x) % n for x in piv[col:]]
                if any(arow[col + 1:width]):
                    rest.append(arow)
                elif kernel:
                    zeros.append(arow)
        live = rest
    if kernel:
        return [tuple(w[width:]) for w in zeros if any(w[width:])]
    for i, row in enumerate(out):
        for k in range(i + 1, len(out)):
            c = pivots[k]
            q = row[c] // out[k][c]
            if q:
                row[c:] = [(x - q * y) % n for x, y in zip(row[c:], out[k][c:])]
    return [tuple(r) for r in out]


def xgcd_left_kernel(rows, n, width):
    """Howell rows of {x : x * rows = 0}, by xgcd_howell in both passes."""
    return xgcd_howell(xgcd_howell(rows, n, width, kernel=True), n, len(rows))


def dense_howell_engine(rows, n, width, kernel=False):
    """Howell form of the row span of rows over Z/n, or its left kernel.

    Entries of rows must already lie in [0, n); rows are copied, not
    reduced again.  Returns the Howell rows as tuples.  With kernel set it
    returns instead rows spanning {x : x * rows = 0}, not in Howell form:
    only then is the row transform carried, and the above-pivot reduction,
    which cannot change the kernel, is skipped.  Rows are split into live
    and zero once; a live row is zero left of the current column, so each
    step touches only the columns from there on.

    Each column takes one of two paths.  Unit path: when some row has a
    unit in the column, the first such row is the pivot, scaled to 1, and
    each other row with an entry there is cleared by one subtraction that
    touches only the pivot's nonzero columns, listed once per pivot.  A
    unit pivot has no annihilator.  Over a prime n every nonzero entry is a
    unit, so only this path runs.  Fallback path, reached only for
    composite n when no entry in the column is a unit: the first row is
    combined with each other one by an extended-gcd step over the full
    width, normalized by _unit_scale, and its annihilator multiple stays
    live, which gives the Howell property.  The above-pivot reduction
    subtracts each pivot row over its nonzero columns only.
    """
    live, zeros = [], []
    for i, r in enumerate(rows):
        row = list(r)
        if kernel:
            row += [0] * len(rows)
            row[width + i] = 1
        (live if any(row[:width]) else zeros).append(row)

    out, pivots = [], []
    for col in range(width):
        if not live:
            break
        hits = [w for w in live if w[col]]
        if not hits:
            continue
        live = [w for w in live if not w[col]]
        piv = next((w for w in hits if gcd(w[col], n) == 1), None)
        if piv is not None:
            nonzero = list(compress(range(col + 1, len(piv)), piv[col + 1:]))
            if piv[col] != 1:
                inv = pow(piv[col], -1, n)
                piv[col] = 1
                for k in nonzero:
                    piv[k] = inv * piv[k] % n
            support = [(k, piv[k]) for k in nonzero]
            for b in hits:
                if b is piv:
                    continue
                c = b[col]
                b[col] = 0
                for k, x in support:
                    b[k] = (b[k] - c * x) % n
                if any(b[col + 1:width]):
                    live.append(b)
                elif kernel:
                    zeros.append(b)
            out.append(piv)
            pivots.append(col)
            continue
        piv = hits[0]
        for b in hits[1:]:
            av, bv = piv[col], b[col]
            g, s, t = _xgcd(av, bv)
            u, v = -(bv // g), av // g
            pairs = list(zip(piv[col:], b[col:]))
            piv[col:] = [(s * x + t * y) % n for x, y in pairs]
            b[col:] = [(u * x + v * y) % n for x, y in pairs]
            if any(b[col + 1:width]):
                live.append(b)
            elif kernel:
                zeros.append(b)
        u = _unit_scale(piv[col], n)
        piv[col:] = [(u * x) % n for x in piv[col:]]
        out.append(piv)
        pivots.append(col)
        if piv[col] > 1:  # non-units can combine to a unit: 2, 3 mod 6
            ann = n // piv[col]
            arow = [0] * col + [(ann * x) % n for x in piv[col:]]
            if any(arow[col + 1:width]):
                live.append(arow)
            elif kernel:
                zeros.append(arow)

    if kernel:
        return [tuple(w[width:]) for w in zeros if any(w[width:])]
    # reduce entries above each pivot into [0, pivot); a pivot row is used
    # only on the rows above it, before it is itself reduced, so its nonzero
    # columns are listed once, when it is first needed
    supports = [None] * len(out)
    for i, row in enumerate(out):
        for k in range(i + 1, len(out)):
            c = pivots[k]
            d = out[k][c]
            q = row[c] // d
            if q:
                if supports[k] is None:
                    r = out[k]
                    supports[k] = [(j, r[j]) for j in
                                   compress(range(c + 1, width), r[c + 1:])]
                row[c] -= q * d
                for j, y in supports[k]:
                    row[j] = (row[j] - q * y) % n
    return [tuple(r) for r in out]


def dense_left_kernel(rows, n, width):
    """Howell rows of {x : x * rows = 0}, by dense_howell_engine in both
    passes, as left_kernel computed them."""
    return dense_howell_engine(
        dense_howell_engine(rows, n, width, kernel=True), n, len(rows))


def dense_kernel(f, target_relations):
    """(relations, witness rows) of kernel(f) as the dense engine computed
    them, for the map's dense matrix and the dense Howell relation rows of
    its target; a map's source is free."""
    n, k = f.source.ring.n, f.source.ambient
    a = list(zip(*f.matrix.entries)) or [()] * f.matrix.cols
    kern = dense_left_kernel(a + list(target_relations), n, f.matrix.nrows)
    gens = dense_howell_engine([r[:k] for r in kern], n, k)
    if not gens:
        return [], []
    rel = dense_left_kernel(gens, n, k)
    g = len(gens)
    return dense_howell_engine([r[:g] for r in rel], n, g), gens


def _vp(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def per_point_pull(eng, v, d1, d2):
    """Pullback of v along right translation by diag(d1, d2) on a Jacquet
    stage engine's level-L line, as the engine computed it before it kept
    per-(d1, d2) tables: each point's source point and weight afresh."""
    n, p, big_l = eng.n, eng.p, eng.big_l
    md = p ** big_l
    vdet = _vp(d1, p) + _vp(d2, p)
    out = [0] * eng.size
    for i, x in enumerate(eng.pts):
        if x.branch == "b":
            a, b = d1, x.res * d2
        else:
            a, b = x.res * d1, d2
        if a == 0:
            tgt, vl = eng.i_z0, _vp(b, p)
        elif b == 0:
            tgt, vl = eng.i_b0, _vp(a, p)
        else:
            va, vb = _vp(a, p), _vp(b, p)
            vl = min(va, vb)
            ua = a // p ** va
            ub = b // p ** vb
            if va <= vb:
                t = p ** (vb - va) * ub * pow(ua, -1, md) % md
                tgt = eng.index[ProjPoint.big_cell(p, big_l, t)]
            else:
                s = p ** (va - vb) * ua * pow(ub, -1, md) % md
                tgt = eng.index[ProjPoint.inf_cell(p, big_l, s)]
        val = v[tgt]
        if val:
            w = pow(eng.c1, vdet - vl, n) * pow(eng.c2, vl, n) % n
            out[i] = w * val % n
    return out


# _StageEngine._pull_table as it ran before the probes read their sources
# from closed forms: one valuation pair and one modular inverse per point,
# for every probe.  Copied verbatim as a function of the engine, with the
# point count p^L + p^(L-1) written out.

def loop_pull_table(eng, d1, d2):
    """Source index of each point under the pullback along right
    translation by diag(d1, d2), and the weight times w_out at the
    source; neither depends on the vector or the stage."""
    p, md = eng.p, eng.p ** eng.big_l
    vdet = _vp(d1, p) + _vp(d2, p)
    weight = [_chi_val(eng.ring, (eng.c1, eng.c2), (vdet - v, v))
              for v in range(vdet + 1)]
    src, wts = [], []
    for i in range(eng.size):
        if i < md:
            a, b = d1, i * d2
        else:
            a, b = (i - md) * p * d1, d2
        if a == 0:
            tgt, vl = md, _vp(b, p)
        elif b == 0:
            tgt, vl = 0, _vp(a, p)
        else:
            va, vb = _vp(a, p), _vp(b, p)
            vl = min(va, vb)
            ua = a // p ** va
            ub = b // p ** vb
            if va <= vb:
                tgt = p ** (vb - va) * ub * pow(ua, -1, md) % md
            else:
                tgt = md + p ** (va - vb) * ua * pow(ub, -1, md) % md // p
        src.append(tgt)
        wts.append(weight[vl] * eng.w_out[tgt] % eng.n)
    return src, wts


def _chi_val(ring, chi, torus_vals):
    c1, c2 = chi
    t1, t2 = torus_vals
    return pow(c1, t1, ring.n) * pow(c2, t2, ring.n) % ring.n


# The Jacquet stage engine as it ran before it kept stage vectors in disc
# coordinates: every smoothed vector lives on all points of the level-L
# line, and the stage rank is taken over point coordinates.
class PointStageEngine:
    # working model: functions on the level-L line; stage j smooths along
    # the depth-j unipotent discs and probes the torus in a two-vector frame

    def __init__(self, ring, p, m, big_l, chi):
        self.ring = ring
        self.p = p
        self.m = m
        self.big_l = big_l
        self.n = ring.n
        self.c1, self.c2 = chi
        self.r = self.c1 * ring.inv(self.c2) % ring.n
        self.pts = enumerate_p1(p, big_l)
        self.index = {x: i for i, x in enumerate(self.pts)}
        self.size = len(self.pts)
        self.i_b0 = self.index[ProjPoint.big_cell(p, big_l, 0)]
        self.i_z0 = self.index[ProjPoint.inf_cell(p, big_l, 0)]
        # depth of each point; None marks the fixed point at infinity
        self.mu = []
        for x in self.pts:
            if x.branch == "b":
                self.mu.append(0)
            elif x.res == 0:
                self.mu.append(None)
            else:
                self.mu.append(_vp(x.res, p))
        base = enumerate_p1(p, m)
        base_index = {x: i for i, x in enumerate(base)}
        self.fiber_of = [base_index[x.project(m)] for x in self.pts]
        self.base_count = len(base)
        self.bi_z0 = base_index[ProjPoint.inf_cell(p, m, 0)]
        # torus probes: diag(pi, 1), then diag(u, 1) and diag(1, u) per unit
        self.ops = [(p, 1)]
        for u in _unit_gens(p, m):
            self.ops += [(u, 1), (1, u)]
        self.pulls = {op: self._pull_table(*op) for op in self.ops}
        self.discs = (None,)

    def _discs(self, j):
        """Stage j's disc key, inbound and outbound weight at each point.

        Only the latest stage's tables are kept: stages run in order.
        """
        if self.discs[0] != j:
            p, n, big_l = self.p, self.n, self.big_l
            keys = [None] * self.size
            w_in = [0] * self.size
            w_out = [0] * self.size
            for i, mu in enumerate(self.mu):
                if mu is None:
                    continue
                kk = min(2 * mu - j, big_l)
                keys[i] = "big" if mu <= j else (mu, self.pts[i].res % p ** kk)
                w_in[i] = self.ring.q_pow(kk - big_l) * pow(self.r, mu, n) % n
                w_out[i] = pow(self.r, -mu, n)
            self.discs = (j, keys, w_in, w_out)
        return self.discs[1:]

    def smooth(self, v, j):
        """Average along the depth-j discs; exact on the truncated model."""
        n = self.n
        keys, w_in, w_out = self._discs(j)
        acc = {}
        for key, c, w in zip(keys, v, w_in):
            if c and key is not None:
                acc[key] = (acc.get(key, 0) + c * w) % n
        # the only keyless point is the fixed point at infinity
        out = [acc.get(key, 0) * w % n for key, w in zip(keys, w_out)]
        out[self.i_z0] = v[self.i_z0]
        return out

    def columns(self, j):
        vecs = [[0] * self.size for _ in range(self.base_count)]
        for i, b in enumerate(self.fiber_of):
            vecs[b][i] = 1
        return [self.smooth(v, j) for v in vecs]

    def _pull_table(self, d1, d2):
        """Source index and weight of each point under the pullback along
        right translation by diag(d1, d2); neither depends on the vector or
        the stage, so each engine builds them once per (d1, d2)."""
        p, big_l = self.p, self.big_l
        md = p ** big_l
        vdet = _vp(d1, p) + _vp(d2, p)
        chi = (self.c1, self.c2)
        table = []
        for x in self.pts:
            if x.branch == "b":
                a, b = d1, x.res * d2
            else:
                a, b = x.res * d1, d2
            if a == 0:
                tgt, vl = self.i_z0, _vp(b, p)
            elif b == 0:
                tgt, vl = self.i_b0, _vp(a, p)
            else:
                va, vb = _vp(a, p), _vp(b, p)
                vl = min(va, vb)
                ua = a // p ** va
                ub = b // p ** vb
                if va <= vb:
                    t = p ** (vb - va) * ub * pow(ua, -1, md) % md
                    tgt = self.index[ProjPoint.big_cell(p, big_l, t)]
                else:
                    s = p ** (va - vb) * ua * pow(ub, -1, md) % md
                    tgt = self.index[ProjPoint.inf_cell(p, big_l, s)]
            table.append((tgt, _chi_val(self.ring, chi, (vdet - vl, vl))))
        return table

    def pull(self, v, d1, d2):
        """Pullback along right translation by diag(d1, d2), exact integers."""
        n = self.n
        return [w * v[t] % n for t, w in self.pulls[(d1, d2)]]

    def solve(self, v, cb, ci):
        # frame coordinates: ci owns the infinity coefficient, cb the base one
        n = self.n
        den = cb[self.i_b0]
        if gcd(den, n) != 1:
            return None
        b = v[self.i_z0]
        a = (v[self.i_b0] - b * ci[self.i_b0]) * self.ring.inv(den) % n
        for i in range(self.size):
            if (a * cb[i] + b * ci[i]) % n != v[i]:
                return None
        return a, b % n

    def stage(self, j, fold):
        cols = self.columns(j)
        cb, ci = cols[0], cols[self.bi_z0]
        # smooth() returns reduced entries
        stack = [tuple(c) for c in cols]
        if fold:
            stack.append((1,) * self.size)
        rank = howell_form(
            LambdaMatrix._reduced(self.ring, stack, self.size)).nrows
        if fold:
            rank -= 1
        mats = []
        for d1, d2 in self.ops:
            sa = self.solve(self.smooth(self.pull(cb, d1, d2), j), cb, ci)
            sb = self.solve(self.smooth(self.pull(ci, d1, d2), j), cb, ci)
            if sa is None or sb is None:
                mats = None
                break
            mats.append(((sa[0], sb[0]), (sa[1], sb[1])))
        if mats is not None and fold:
            base = self.solve([1] * self.size, cb, ci)
            if base is None:
                mats = None
            else:
                a0 = base[0]
                mats = [(((mtx[0][0] - a0 * mtx[1][0]) % self.n,),)
                        for mtx in mats]
        if mats is None:
            return (rank, None, None)
        central = self.c1 * self.c2 % self.n
        mpi2 = _scaled_inverse(self.ring, mats[0], central)
        return (rank, tuple(mats), mpi2)


# The Jacquet stage engine as it ran before its stages were built from
# disc counts: stage vectors in disc coordinates, but every stage still
# visits each point of the level-L line to find its slot, its fibre and
# its probe sources.  Copied verbatim, with the unit-probe and eta-inverse
# images it read from padic_core.

def _unit_torus_images(p, m, d1, d2):
    """Index of x * diag(d1, d2) for every level-m point x, in index order,
    for units d1 and d2: [1:t] goes to [1:t*d2/d1] and [s:1] to
    [s*d1/d2:1]."""
    md = p ** m
    r = d2 * pow(d1, -1, md) % md
    out = [t * r % md for t in range(md)]
    r = pow(r, -1, md)
    out.extend(md + s * r % md // p for s in range(0, md, p))
    return out


def _eta_inv_images(p, m, level):
    """Yield the index at level m - 1 or m and the torus valuations of
    x * diag(1, pi^-1) for every level-m point x, in index order.

    [1:t] goes to [1:t/p] with torus_vals (-1, 0) when p | t, and to
    [p/t:1] with (0, -1) when t is a unit; [s:1] goes to [p*s:1] with
    (0, -1).  At level m - 1 these are the images; at level m, t/p is
    the residue below p^(m-1), which gives the sources of the pullback
    along diag(pi, 1), the central pi times diag(1, pi^-1), on the
    level-m line.
    """
    md, ml = p ** m, p ** level
    # p/t is [p*u:1] with u = t^-1 mod p^(level-1), and p*s is [p*s':1]
    # with s' = s mod p^(level-1): both have index ml + the residue
    inv = _unit_inverses(p, max(level - 1, 0))
    low = len(inv)
    for t in range(md):
        if t % p:
            yield ml + inv[t % low], (0, -1)
        else:
            yield t // p, (-1, 0)
    for s in range(0, md, p):
        yield ml + s % low, (0, -1)


class DiscStageEngine:
    # working model: functions on the level-L line; stage j smooths along
    # the depth-j unipotent discs and probes the torus in a two-vector frame.
    # Smoothing leaves the disc sum times a unit w_out fixed by the point, so
    # a vector is held in disc coordinates: slots ordered by their first point
    # (the big disc, holding [1:0], is slot 0), infinity being slot 1.
    # Points are indices in padic_core's codec.

    def __init__(self, ring, p, m, big_l, chi):
        self.ring = ring
        self.p = p
        self.big_l = big_l
        self.n = n = ring.n
        self.c1, self.c2 = chi
        self.r = self.c1 * ring.inv(self.c2) % n
        md, pm = p ** big_l, p ** m
        # point count, read by the stage sizer in perfbench/spans.py
        self.size = p1_size(p, big_l)
        # depth of each [s:1] with s != 0, in order of s
        self.mu = [_vp(s, p) for s in range(p, md, p)]
        self.fiber_of = project(p, big_l, m)
        self.pm = pm
        # value of w_out at each point; 1 on the big cell and at infinity
        self.w_out = [1] * (md + 1) + [pow(self.r, -mu, n) for mu in self.mu]
        # torus probes: diag(pi, 1), then diag(u, 1) and diag(1, u) per unit
        self.ops = [(p, 1)]
        for u in _unit_gens(p, m):
            self.ops += [(u, 1), (1, u)]
        self.pulls = {op: self._pull_table(*op) for op in self.ops}
        self.slots = (None,)

    def _slots(self, j):
        """Stage j's slot and inbound weight at each point, and the slot
        count.  Only the latest stage's tables are kept: stages run in order.
        """
        if self.slots[0] != j:
            p, big_l, md, n = self.p, self.big_l, self.p ** self.big_l, self.n
            # a point [s:1] of depth mu > j lies in the disc s mod p^kk
            kk = [min(2 * mu - j, big_l) for mu in range(big_l)]
            w_mu = [self.ring.q_pow(kk[mu] - big_l) * pow(self.r, mu, n) % n
                    for mu in range(big_l)]
            first = {}
            slot = [0] * md + [1]
            for s, mu in zip(range(p, md, p), self.mu):
                slot.append(0 if mu <= j else first.setdefault(
                    (mu, s % p ** kk[mu]), len(first) + 2))
            w_in = [w_mu[0]] * md + [1] + [w_mu[mu] for mu in self.mu]
            self.slots = (j, slot, w_in, len(first) + 2)
        return self.slots[1:]

    def _pull_table(self, d1, d2):
        """Source index of each point under the pullback along right
        translation by diag(d1, d2), and the weight times w_out at the
        source; neither depends on the vector or the stage.

        The probes have closed forms in padic_core.  For units d1, d2 the
        weight is 1 and the source is the point times diag(d1, d2).  For
        diag(p, 1), the central pi (acting by c1 * c2) times
        diag(1, pi^-1), [1:t] pulls from [1:t/p] with weight c2 when p | t
        and from [p/t:1] with weight c1 when t is a unit, and [s:1] pulls
        from [p*s:1] with weight c1.
        """
        p, n = self.p, self.n
        if d1 % p and d2 % p:
            src = _unit_torus_images(p, self.big_l, d1, d2)
            return src, [self.w_out[t] for t in src]
        if (d1, d2) != (p, 1):
            raise ValueError(f"no pull table for diag({d1}, {d2})")
        scale = {(-1, 0): self.c2 % n, (0, -1): self.c1 % n}
        src, wts = [], []
        for t, tv in _eta_inv_images(p, self.big_l, self.big_l):
            src.append(t)
            wts.append(scale[tv] * self.w_out[t] % n)
        return src, wts

    def transfer(self, j, d1, d2):
        """Pull along diag(d1, d2), then smooth at stage j, as a sparse
        table {(slot, source slot): coefficient} on disc coordinates."""
        slot, w_in, _ = self._slots(j)
        src, wts = self.pulls[(d1, d2)]
        table = {}
        for k, w, t, c in zip(slot, w_in, src, wts):
            key = (k, slot[t])
            table[key] = table.get(key, 0) + w * c
        return {key: c % self.n for key, c in table.items()}

    def _apply(self, table, v):
        out = [0] * len(v)
        for (k, k2), c in table.items():
            out[k] += c * v[k2]
        return [x % self.n for x in out]

    def solve(self, v, cb, ci):
        # frame coordinates: ci owns the infinity coefficient, cb the base one
        n = self.n
        den = cb[0]
        if gcd(den, n) != 1:
            return None
        b = v[1]
        a = (v[0] - b * ci[0]) * self.ring.inv(den) % n
        for x, y, z in zip(v, cb, ci):
            if (a * y + b * z) % n != x:
                return None
        return a, b % n

    def stage(self, j, fold):
        n = self.n
        slot, w_in, width = self._slots(j)
        # every column's disc sums: the indicator of a level-m fibre, smoothed
        cols = [[0] * width for _ in range(self.pm + self.pm // self.p)]
        for f, k, w in zip(self.fiber_of, slot, w_in):
            cols[f][k] += w
        stack = [tuple(x % n for x in c) for c in cols]
        cb, ci = stack[0], stack[self.pm]
        # fold adds the constants, all ones in disc coordinates since w_out
        # is 1 under the trivial character that folding runs with
        if fold:
            stack.append((1,) * width)
        # the Howell row count equals that over point coordinates, also for
        # composite n: with slots in first-point order, a pivot can only sit
        # on the first point of its slot
        rank = howell_form(
            LambdaMatrix._reduced(self.ring, stack, width)).nrows
        if fold:
            rank -= 1
        mats = []
        for d1, d2 in self.ops:
            table = self.transfer(j, d1, d2)
            sa = self.solve(self._apply(table, cb), cb, ci)
            sb = self.solve(self._apply(table, ci), cb, ci)
            if sa is None or sb is None:
                mats = None
                break
            mats.append(((sa[0], sb[0]), (sa[1], sb[1])))
        if mats is not None and fold:
            base = self.solve((1,) * width, cb, ci)
            if base is None:
                mats = None
            else:
                a0 = base[0]
                mats = [(((mtx[0][0] - a0 * mtx[1][0]) % n,),)
                        for mtx in mats]
        if mats is None:
            return (rank, None, None)
        central = self.c1 * self.c2 % n
        mpi2 = _scaled_inverse(self.ring, mats[0], central)
        return (rank, tuple(mats), mpi2)


# finite_rep._StageEngine as it ran before it held vectors in class
# coordinates: one value per smoothing disc (slot), every stage listing its
# discs, its fibre rows and its probe sources slot by slot.  Copied
# verbatim; the class engine is pinned against it.

class SlotStageEngine:
    # working model: functions on the level-L line; stage j smooths along
    # the depth-j unipotent discs and probes the torus in a two-vector frame.
    # Points are grouped by depth: [s:1] with s != 0 has depth v_p(s), the
    # big cell [1:t] has depth 0 (its units t being the [1/t:1]), and
    # infinity stands alone.  Smoothing leaves the disc sum times
    # w_out = r^-depth, so a vector is held in disc coordinates, one per
    # slot: slot 0 holds the big cell and the depths mu <= j, slot 1
    # infinity, and slot 2 + i the i-th disc in order of its key c.  The
    # disc (mu, c), j < mu < L, is the [s:1] with s = c mod p^kk,
    # kk = min(2 mu - j, L), v_p(c) = mu, c < p^kk: p^(L - kk) points,
    # each of inbound weight q^(kk - L) r^mu, so r^mu in all.  Fibre columns
    # and probe pullbacks are point counts per slot in closed form: no
    # stage visits a point.  A probe is applied to the frame's two vectors
    # straight from those counts, one sum over at most p source slots per
    # slot, and builds no matrix, so a stage costs its slots times p per
    # probe.

    def __init__(self, ring, p, m, big_l, chi):
        self.ring = ring
        self.p = p
        self.m = m
        self.big_l = big_l
        self.n = n = ring.n
        self.c1, self.c2 = chi
        self.r = self.c1 * ring.inv(self.c2) % n
        # point count, read by the stage sizer in perfbench/spans.py
        self.size = p1_size(p, big_l)
        # w_out at each depth below L; 1 on the big cell and at infinity
        self.w_out = [pow(self.r, -mu, n) for mu in range(big_l)]
        # torus probes: diag(pi, 1), then diag(u, 1) and diag(1, u) per unit
        self.ops = [(p, 1)]
        for u in _unit_gens(p, m):
            self.ops += [(u, 1), (1, u)]

    def _begin(self, j):
        """Stage j's residue precision kk at each depth, its discs as
        (c, mu) in slot order, each disc's slot, and the inbound weight of
        one point at each depth."""
        p, big_l, n = self.p, self.big_l, self.n
        self.j = j
        self.kk = kk = [min(2 * mu - j, big_l) for mu in range(big_l)]
        self.discs = sorted((c, mu) for mu in range(j + 1, big_l)
                            for c in _depth_residues(p, mu, kk[mu]))
        self.slot_of = {c: k for k, (c, _) in enumerate(self.discs, 2)}
        self.w_in = [self.ring.q_pow(kk[mu] - big_l)
                     * pow(self.r, mu, n) % n for mu in range(big_l)]

    def _count(self, mu, e):
        # points of depth mu with s = a mod p^e, e > mu, or of depth mu
        # when e = mu; at depth 0 these are the big cell's units
        p, big_l = self.p, self.big_l
        if e > mu:
            return p ** (big_l - e)
        return (p - 1) * p ** (big_l - mu - 1)

    def _spread(self, mu, a, e):
        """(count, slots): the depth-mu points with s = a mod p^e, a < p^e,
        lie count to a slot on the slots, distinct and ascending; e = mu
        (a = 0) takes every depth-mu point."""
        p, big_l, j = self.p, self.big_l, self.j
        if mu <= j:
            return self._count(mu, e), [0]
        kk = self.kk[mu]
        if e >= kk:
            return p ** (big_l - e), [self.slot_of[a % p ** kk]]
        slot_of = self.slot_of
        if e == mu:
            return p ** (big_l - kk), [slot_of[c]
                                       for c in _depth_residues(p, mu, kk)]
        return p ** (big_l - kk), [slot_of[c]
                                   for c in range(a, p ** kk, p ** e)]

    def _fibres(self):
        """The smoothed indicators of the level-m fibres, deduplicated, as
        {slot: value} rows, slots ascending, those of [1:0] and of infinity
        first.

        A big-cell fibre is p^(L-m) points of depth 0; that of [s0:1] is
        the depth-mu0 points s = s0 mod p^m; that of infinity is infinity
        and every point of depth m or more.
        """
        p, m, big_l, n, w_in = self.p, self.m, self.big_l, self.n, self.w_in
        inf = {1: 1}
        for mu in range(m, big_l):
            count, slots = self._spread(mu, 0, mu)
            for k in slots:
                inf[k] = inf.get(k, 0) + count * w_in[mu]
        rows = [{0: p ** (big_l - m) * w_in[0] % n},
                {k: y for k, x in sorted(inf.items()) if (y := x % n)}]
        for mu in range(1, m):
            for s0 in _depth_residues(p, mu, m):
                count, slots = self._spread(mu, s0, m)
                x = count * w_in[mu] % n
                rows.append(dict.fromkeys(slots, x) if x else {})
        return list({tuple(r.items()): r for r in rows}.values())

    def _probe(self, d1, d2, vecs):
        """Pull each vector of vecs along diag(d1, d2), then smooth at the
        current stage: the images, slot by slot, each entry mod n.

        A unit pair keeps each point's depth and moves [s:1] to
        [s d1/d2:1], so each disc (mu, c) pulls from (mu, c d1/d2 mod p^kk)
        with weight r^mu r^-mu = 1, and slot 0 from itself with weight
        q^-j + (p - 1) (q^(-j) + ... + q^-1) = 1, as every stage has j < L.
        diag(p, 1) is the central pi times diag(1, pi^-1):
        [1:t] pulls from [1:t/p] with scale c2 when p | t, and every other
        point from [p s:1] with scale c1, one depth up, or from infinity at
        depth L - 1.  So the depth-mu points with s = a mod p^e pull
        evenly from the depth-(mu + 1) ones with s = p a mod p^(e + 1).
        """
        p, big_l, n = self.p, self.big_l, self.n
        w_in, w_out = self.w_in, self.w_out
        if d1 % p and d2 % p:
            md = p ** big_l
            shift = d1 * pow(d2, -1, md) % md
            src = [0, 1] + [self.slot_of[c * shift % p ** self.kk[mu]]
                            for c, mu in self.discs]
            return [[v[k] for k in src] for v in vecs]
        c1 = self.c1

        def pull(mu, a, e):
            # (weight, source slots) of the depth-mu points s = a mod p^e
            w = w_in[mu] * c1
            if mu + 1 == big_l:
                return w * self._count(mu, e), [1]
            e2 = min(e + 1, big_l)
            count, slots = self._spread(mu + 1, p * a % p ** e2, e2)
            return w * w_out[mu + 1] * p ** (e2 - e) * count, slots

        # each slot's (weight, source slots) terms: slot 0 pulls the big
        # cell's [1:t], p | t, then every depth mu <= j; slot 1 infinity
        terms = [[(p ** (big_l - 1) * w_in[0] * self.c2, [0])]
                 + [pull(mu, 0, mu) for mu in range(self.j + 1)],
                 [(c1, [1])]]
        terms += [[pull(mu, c, self.kk[mu])] for c, mu in self.discs]
        return [[sum(w * sum([v[k] for k in slots]) for w, slots in row) % n
                 for row in terms] for v in vecs]

    def solve(self, v, cb, ci):
        # frame coordinates: ci owns the infinity coefficient, cb the base one
        n = self.n
        den = cb[0]
        if gcd(den, n) != 1:
            return None
        b = v[1]
        a = (v[0] - b * ci[0]) * self.ring.inv(den) % n
        for x, y, z in zip(v, cb, ci):
            if (a * y + b * z) % n != x:
                return None
        return a, b % n

    def stage(self, j, fold):
        n = self.n
        self._begin(j)
        width = len(self.discs) + 2
        # every column's disc sums: the indicator of a level-m fibre, smoothed
        stack = self._fibres()
        cb, ci = ([r.get(k, 0) for k in range(width)] for r in stack[:2])
        # fold adds the constants, all ones in disc coordinates since w_out
        # is 1 under the trivial character that folding runs with
        if fold:
            stack.append(dict.fromkeys(range(width), 1))
        # the Howell row count depends only on the span, so not on the
        # duplicate fibres, and equals that over point coordinates, also
        # for composite n: with slots in first-point order, a pivot can only
        # sit on the first point of its slot.  It is the echelon's pivot
        # count, since reducing above the pivots keeps every row, so no
        # reduction runs
        rank = len(_eliminate(stack, n, width)[0])
        if fold:
            rank -= 1
        mats = []
        for d1, d2 in self.ops:
            sa, sb = (self.solve(v, cb, ci)
                      for v in self._probe(d1, d2, (cb, ci)))
            if sa is None or sb is None:
                mats = None
                break
            mats.append(((sa[0], sb[0]), (sa[1], sb[1])))
        if mats is not None and fold:
            base = self.solve((1,) * width, cb, ci)
            if base is None:
                mats = None
            else:
                a0 = base[0]
                mats = [(((mtx[0][0] - a0 * mtx[1][0]) % n,),)
                        for mtx in mats]
        if mats is None:
            return (rank, None, None)
        central = self.c1 * self.c2 % n
        mpi2 = _scaled_inverse(self.ring, mats[0], central)
        return (rank, tuple(mats), mpi2)


def _stage_row(eng, terms):
    # a {slot: coefficient} row from (slot, term) pairs: summed mod n,
    # zeros dropped, slots ascending
    n, acc = eng.n, {}
    for k, c in terms:
        acc[k] = acc.get(k, 0) + c
    return {k: c % n for k, c in sorted(acc.items()) if c % n}


def transfer_rows(eng, d1, d2):
    """SlotStageEngine's probe diag(d1, d2) at its current stage as the
    matrix it was once built as: the row of each slot maps source slots to
    coefficients, summed mod n (_StageEngine._transfer and _row as they
    ran).  The slot engine's _spread gives (count, slots) where these rows
    took (slot, count) pairs."""
    p, big_l, n = eng.p, eng.big_l, eng.n
    w_in, w_out = eng.w_in, eng.w_out

    def spread(mu, a, e):
        count, slots = eng._spread(mu, a, e)
        return [(k, count) for k in slots]

    if d1 % p and d2 % p:
        md = p ** big_l
        shift = d1 * pow(d2, -1, md) % md
        return [{0: 1}, {1: 1}] + [
            {eng.slot_of[c * shift % p ** eng.kk[mu]]: 1}
            for c, mu in eng.discs]
    c1 = eng.c1

    def pull(mu, a, e):
        w = w_in[mu] * c1
        if mu + 1 == big_l:
            return [(1, w * eng._count(mu, e))]
        e2 = min(e + 1, big_l)
        w = w * w_out[mu + 1] * p ** (e2 - e)
        return [(k, w * c) for k, c in spread(mu + 1, p * a % p ** e2, e2)]

    head = [(0, p ** (big_l - 1) * w_in[0] * eng.c2)]
    rows = [_stage_row(eng, head + [t for mu in range(eng.j + 1)
                                    for t in pull(mu, 0, mu)]),
            {1: c1 % n}]
    for c, mu in eng.discs:
        rows.append(_stage_row(eng, pull(mu, c, eng.kk[mu])))
    return rows


class RowStageEngine(SlotStageEngine):
    """SlotStageEngine with each probe applied as it once was: its
    transfer rows built in full (transfer_rows), then rows times vector."""

    def _probe(self, d1, d2, vecs):
        rows = transfer_rows(self, d1, d2)
        return [[sum(c * v[k] for k, c in row.items()) % self.n
                 for row in rows] for v in vecs]


# fixed_points, _eta_inv_rows and _uprime_fixed as they ran before the orbit
# path: every fixed module is the kernel of stacked dense g - 1 action
# matrices, and Uprime goes through the dense eta-inverse matrix against the
# U-fixed rows one level up.  Copied verbatim, less the model and subgroup
# kinds and the precision budget that are gone; the action matrices are
# action_matrix above, and the recursive calls resolve to these copies.

def at_level(sig, m2):
    """The same trivial, induced or Steinberg model realized at level m2."""
    if sig.kind == "trivial":
        return trivial_rep(sig.ring, m2)
    if sig.kind == "induced":
        return induced_rep(sig.ring, sig.chi, m2)
    return steinberg(sig.ring, m2)


def fixed_points(sig, spec):
    """Submodule of vectors fixed by every generator of the named subgroup,
    at the model's level.

    The result is presented on the model basis; witness_rows span the fixed
    space inside the coordinate module.
    """
    if spec.kind == "Uprime":
        return _uprime_fixed(sig)
    gens = level_generators(spec, sig.p, sig.level)
    ring, k = sig.ring, sig.rank
    rows = []
    for g in gens:
        for i, r in enumerate(action_matrix(sig, g).entries):
            rows.append(r[:i] + ((r[i] - 1) % ring.n,) + r[i + 1:])
    f = ModuleMap(free_module(ring, k),
                  free_module(ring, len(rows)),
                  LambdaMatrix._reduced(ring, rows, k))
    return kernel(f)


def _eta_inv_rows(sig, raised):
    # matrix of the eta-inverse translation from the level-m model into the
    # level-(m+1) model; every act() here is certified by the extra digit
    ring = sig.ring
    m = sig.level
    if sig.kind == "trivial":
        return [[1]]
    eta_inv = diag_matrix(sig.p, 0, -1)
    base, top = induced_parent(sig), induced_parent(raised)
    index = {x: i for i, x in enumerate(enumerate_p1(sig.p, m))}
    rows = []
    for x2 in enumerate_p1(sig.p, raised.level):
        y, coc = act(x2, eta_inv, m)
        row = [0] * base.rank
        row[index[y]] = _chi_val(ring, base.chi, coc.torus_vals)
        rows.append(row)
    if sig.kind == "steinberg":
        rows = [[(rows[i][j] - rows[0][j]) % ring.n
                 for j in range(1, base.rank)]
                for i in range(1, top.rank)]
    return rows


def _uprime_fixed(sig):
    # v is fixed by the eta-conjugate of U iff its eta-inverse translate,
    # computed at one level up, is fixed by U there
    if sig.kind not in ("trivial", "induced", "steinberg"):
        raise UnsupportedSubgroup("Uprime")
    ring, m = sig.ring, sig.level
    raised = at_level(sig, m + 1)
    fix2 = fixed_points(raised, SubgroupSpec("U"))
    rows = _eta_inv_rows(sig, raised)
    target = quotient_module(free_module(ring, raised.rank),
                             [list(r) for r in fix2.witness_rows])
    f = ModuleMap(free_module(ring, sig.rank), target,
                  LambdaMatrix(ring, rows, cols=sig.rank))
    return kernel(f)


# The orbit path that fixed_points ran on trivial, induced and Steinberg
# models before their fixed points became closed forms: the indicators of
# the orbits padic_core.orbits returns, taken modulo the constants on a
# Steinberg model, presented by span_module, which lambda_core kept for
# that path alone.

def span_module(ring, ambient, rows):
    """Submodule of Lambda^ambient spanned by rows, presented on its Howell
    generators, which it keeps as witness rows.  For the same span this is
    exactly the kernel that kernel() and kernel_cokernel() return, Howell
    form being canonical."""
    gens = howell_form(LambdaMatrix(ring, rows, cols=ambient))
    rel = left_kernel(gens)
    return FgModule(ring, gens.nrows, rel if rel.rows else None,
                    witness_rows=gens.entries)


def orbit_fixed_points(sig, spec):
    """Fixed points of a subgroup of GL2(O) that padic_core.orbits knows,
    presented as fixed_points presents them."""
    if sig.kind == "trivial":
        return span_module(sig.ring, 1, [(1,)])
    size = induced_parent(sig).rank
    rows = []
    for block in orbits(spec, sig.level, sig.p):
        row = [0] * size
        for i in block:
            row[i] = 1
        rows.append(row)
    if sig.kind == "steinberg":
        # to Steinberg coordinates: v[i] - v[0], i >= 1
        n = sig.ring.n
        rows = [tuple((x - r[0]) % n for x in r[1:]) for r in rows]
    return span_module(sig.ring, sig.rank, rows)


def expand_cells(sig, rows):
    """The closed-form fixed rows of finite_rep.fixed_points, given in cell
    coordinates, written out over the points of the model's line, as the
    dense and orbit paths write them: an induced row (a, b) is a on the big
    cell [1:t] and b on the [s:1]; a Steinberg row (x,) is, in the
    coordinates v[i] - v[0], i >= 1, zero on the big cell and x on the
    [s:1].  Trivial rows are already in the model's coordinates."""
    if sig.kind == "trivial":
        return tuple(rows)
    md = sig.p ** sig.level
    small = md // sig.p
    if sig.kind == "steinberg":
        return tuple((0,) * (md - 1) + (x,) * small for (x,) in rows)
    return tuple((a,) * md + (b,) * small for a, b in rows)


# The integer Smith form that iso_class ran before the Smith form mod n,
# kept as the reference for it.

def _snf_with_colbasis(rows, cols):
    """Integer Smith normal form tracking only the column transform.

    Returns (factors, v, vinv) with U*M*V diagonal; factors has length cols,
    padded with zeros when the matrix has lower column rank.
    """
    m = [list(r) for r in rows]
    nr, nc = len(m), cols
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    vinv = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def colswap(a, b):
        for r in m:
            r[a], r[b] = r[b], r[a]
        for r in v:
            r[a], r[b] = r[b], r[a]
        vinv[a], vinv[b] = vinv[b], vinv[a]

    def coladd(dst, src, q):
        # col_dst += q * col_src ; inverse op on vinv rows
        for r in m:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]
        for j in range(nc):
            vinv[src][j] -= q * vinv[dst][j]

    def colneg(a):
        for r in m:
            r[a] = -r[a]
        for r in v:
            r[a] = -r[a]
        for j in range(nc):
            vinv[a][j] = -vinv[a][j]

    def rowswap(a, b):
        m[a], m[b] = m[b], m[a]

    def rowadd(dst, src, q):
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]

    t = 0
    while t < nr and t < nc:
        # locate a minimal nonzero entry in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            rowswap(i, t)
        if j != t:
            colswap(j, t)
        dirty = False
        for i in range(t + 1, nr):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                rowadd(i, t, -q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                coladd(j, t, -q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility sweep
        piv = m[t][t]
        culprit = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % piv != 0:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            rowadd(t, culprit, 1)
            continue
        if m[t][t] < 0:
            colneg(t)
        t += 1

    factors = [m[i][i] if i < nr else 0 for i in range(nc)]
    return factors, v, vinv


def smith_iso_class(rows, n, ambient):
    """Invariant factors (> 1) of Lambda^ambient modulo the span of rows,
    largest first, by the integer Smith form of rows stacked on n * I."""
    if ambient == 0:
        return []
    stack = [list(r) for r in rows]
    for i in range(ambient):
        row = [0] * ambient
        row[i] = n
        stack.append(row)
    factors, _, _ = _snf_with_colbasis(stack, ambient)
    return sorted((f for f in factors if f > 1), reverse=True)


def integer_iso_class(module):
    """smith_iso_class of the module's Howell relations."""
    return smith_iso_class(module.relations.entries, module.ring.n,
                           module.ambient)


# Oracles that only the tests call: the averaging projector over the finite
# image of a subgroup, and the integral action on the vertices of a tree ball.

class NonInvertibleOrder(ValueError):
    """Averaging needs the group order to be a unit in the coefficient ring."""


def averaging_projector(sig, subgroup):
    """Idempotent (1/N) sum over the finite image of the subgroup.

    subgroup is a SubgroupSpec, generated as level_generators lists it at
    the model's level, or an explicit list of generator matrices.
    """
    ring, k = sig.ring, sig.rank
    if isinstance(subgroup, SubgroupSpec):
        gens = level_generators(subgroup, sig.p, sig.level)
    else:
        gens = list(subgroup)
    imgs = [action_matrix(sig, g).entries for g in gens]
    ident = identity_matrix(ring, k).entries
    seen = {ident}
    frontier = [ident]
    while frontier:
        grown = []
        for a in frontier:
            for b in imgs:
                c = tuple(map(tuple, mat_mul(ring, a, b, k)))
                if c not in seen:
                    seen.add(c)
                    grown.append(c)
        frontier = grown
    order = len(seen)
    if gcd(order, ring.n) != 1:
        raise NonInvertibleOrder(
            f"group image has order {order}, not invertible mod {ring.n}")
    scale = ring.inv(order % ring.n)
    rows = [[scale * sum(mtx[i][j] for mtx in seen) % ring.n
             for j in range(k)] for i in range(k)]
    e = LambdaMatrix(ring, rows)
    if tuple(map(tuple, mat_mul(ring, rows, rows, k))) != e.entries:
        raise RuntimeError("averaging produced a non-idempotent")
    return ModuleMap(free_module(ring, k), free_module(ring, k), e)


def point_eta_image(p, radius, label):
    """TreeBall.eta_image as it ran on (distance, ProjPoint) vertices:
    translate by diag(1, pi); None when pushed outside the ball."""
    d, pt = label
    if d == 0:
        return (1, ProjPoint.big_cell(p, 1, 0))
    if pt.branch == "b":
        if d + 1 > radius:
            return None
        return (d + 1, ProjPoint.big_cell(p, d + 1, pt.res * p))
    s1 = pt.res // p
    if d == 1:
        return (0, None)
    if s1 % p == 0:
        return (d - 1, ProjPoint.inf_cell(p, d - 1, s1))
    # the scaled lattice leads with a unit, so it flips branch
    t = pow(s1, -1, p ** (d - 1))
    return (d - 1, ProjPoint.big_cell(p, d - 1, t))


def vertex_row_boundary(ball, ring):
    """TreeBall.boundary as it was built: vertex rows, vertices numbered
    leaves first, +1 at each edge's child and -1 at its parent, which
    ModuleMap transposes into the edge images."""
    nv, ne = len(ball.vertices), len(ball.edges)
    index = {v: nv - 1 - i for i, v in enumerate(ball.vertices)}
    rows = [{} for _ in range(nv)]
    for j, (child, parent) in enumerate(ball.edges):
        rows[index[child]][j] = 1
        rows[index[parent]][j] = ring.n - 1
    return ModuleMap(free_module(ring, ne), free_module(ring, nv),
                     LambdaMatrix._sparse(ring, rows, ne))


def vertex_image(p, label, g):
    """Image of a tree-ball vertex (distance, index) under an integer
    matrix in GL2(O); shells are preserved."""
    d, i = label
    if d == 0:
        return label
    y, _ = act(enumerate_p1(p, d)[i], laurent_matrix(p, g), d)
    return (d, point_index(y))


# ------------------------------------------------- gluing through provenance
#
# The gluing path before glue flipped its contragredient's table directly:
# each slope carried an input table and a separate rule table, hc_tilde
# tagged its output with the (slope, spec) that produced it, and
# verdier_dualize read that tag back, checked the dimension against the
# rules, rebuilt the contragredient spec as a string and recomputed its
# table.  Cuspidal inputs are left out; glue checks them before any table
# is read.


class ProvenanceModule(GradedCharModule):
    """Character table that remembers the (slope, spec) behind it."""

    __slots__ = ("provenance",)

    def __init__(self, ring, chars, provenance):
        super().__init__(ring, chars)
        self.provenance = provenance


class InputCohomologyTable:
    """Degree -> building-block spec for one slope, with central twists."""

    def __init__(self, slope, rows, det_exponents):
        self.slope = slope
        self.rows = dict(rows)
        self.det_exponents = {j: Fraction(e)
                              for j, e in det_exponents.items()}


class TateRuleTable:
    """Frozen z_1/z_2 modulus exponents per degree, plus the duality dim."""

    def __init__(self, name, z_exponents, d):
        self.name = name
        self.z_exponents = dict(z_exponents)
        self.d = d


INTEGRAL_TABLE = InputCohomologyTable(
    "integral", {2: "st", 3: "ind(1,0)", 4: "absdet^1"},
    {2: 0, 3: Fraction(1, 2), 4: 1})
HALF_TABLE = InputCohomologyTable("half", {1: "triv", 2: "nrd^1"},
                                  {1: 0, 2: 1})
INTEGRAL_RULES = TateRuleTable(
    "integral", {2: (0, 0), 3: (-1, 0), 4: (-2, 0)}, d=2)
HALF_RULES = TateRuleTable("half", {1: (0, 0), 2: (-2, 0)}, d=1)


def _slope(slope):
    if slope in ("int", "integral"):
        return ("integral", INTEGRAL_TABLE, INTEGRAL_RULES)
    if slope == "half":
        return ("half", HALF_TABLE, HALF_RULES)
    raise ValueError(f"unknown slope {slope!r}")


def provenance_jacquet_symbolic(ring, spec):
    """Two-line coinvariant symbol, one return per spec kind."""
    tag = parse_rep_spec(spec)
    if tag[0] == "st":
        cs = (TorusChar.delta_power(ring, -1),)
        return JacquetSymbol(cs, split=False)
    if tag[0] == "triv":
        cs = (TorusChar.from_exponents(ring, 0, 0),)
        return JacquetSymbol(cs, split=False)
    if tag[0] == "absdet":
        cs = (TorusChar.from_exponents(ring, tag[1], tag[1]),)
        return JacquetSymbol(cs, split=False)
    if tag[0] in ("ind", "ps"):
        chi = TorusChar.from_exponents(ring, *induced_exponents(tag))
        sub = chi.weyl() * TorusChar.delta_power(ring, -1)
        cs = (sub, chi)
        return JacquetSymbol(cs, split=sub.values() != chi.values())
    raise UnsupportedSpec(f"no symbolic coinvariants for {spec!r}")


def _assemble(j, sheaf_char, module_det_char, rules):
    if j not in rules.z_exponents:
        raise DegreeNotInTable(f"degree {j} not in the {rules.name} rules")
    e1, e2 = rules.z_exponents[j]
    ring = sheaf_char.ring
    base = sheaf_char * module_det_char
    return TorusChar(base * UnramChar.abs_power(ring, e1),
                     base * UnramChar.abs_power(ring, e2))


@lru_cache(maxsize=None)
def _integral_degenerations(ring):
    """Certify the two numeric facts the integral table leans on."""
    # middle-row acyclicity: 1 - q^(+-1) must invert, which banality grants
    for e in (1, -1):
        if not ring.is_unit((1 - ring.q_pow(e)) % ring.n):
            raise RuntimeError(
                f"difference map 1 - q^{e} fails to invert mod {ring.n}")
    # both models are self-dual, so their cohomology in degrees 0 and 1 is
    # their homology in degrees 0 and -1: Steinberg concentrates below, the
    # trivial line on top
    h = sl2_cohomology(steinberg(ring, 1))
    if iso_class(h[0]) != [] or iso_class(h[1]) != [ring.n]:
        raise RuntimeError("Steinberg homology moved; table is invalid")
    h = sl2_cohomology(trivial_rep(ring, 1))
    if iso_class(h[0]) != [ring.n] or iso_class(h[1]) != []:
        raise RuntimeError("trivial-line homology moved; table is invalid")
    return True


def provenance_hc_tilde(ring, slope, spec):
    """Stratum table of one input, tagged with its provenance."""
    name, table, rules = _slope(slope)
    spec = spec.strip()
    tag = parse_rep_spec(spec)
    prov = (name, spec)
    one = UnramChar.abs_power(ring, 0)

    if name == "integral":
        _integral_degenerations(ring)
        if tag[0] in ("triv", "absdet"):
            k = tag[1] if tag[0] == "absdet" else Fraction(0)
            sheaf = UnramChar.abs_power(ring, k)
            lo = _assemble(
                2, sheaf,
                UnramChar.abs_power(ring, table.det_exponents[2]), rules)
            hi = _assemble(
                4, sheaf,
                UnramChar.abs_power(ring, table.det_exponents[4]), rules)
            return ProvenanceModule(ring, {1: (lo,), 4: (hi,)}, prov)
        if tag[0] in ("ind", "ps"):
            a, b = induced_exponents(tag)
            chi = TorusChar.from_exponents(ring, a, b)
            twist = chi * TorusChar.delta_power(ring, 1)
            center = (a + b) / 2
            chars = {}
            for j, row_spec in table.rows.items():
                ranks = ts_homology(
                    provenance_jacquet_symbolic(ring, row_spec), twist)
                if not ranks[0]:
                    continue
                det = UnramChar.abs_power(
                    ring, center + table.det_exponents[j])
                c = _assemble(j, one, det, rules)
                chars[j] = (c,) * ranks[0]
                chars[j - 1] = (c,) * ranks[-1]
            return ProvenanceModule(ring, chars, prov)
        raise UnsupportedSpec(f"integral slope cannot take {spec!r}")

    if tag[0] in ("triv", "nrd"):
        k = tag[1] if tag[0] == "nrd" else Fraction(0)
        sheaf = UnramChar.abs_power(ring, k)
        chars = {
            j: (_assemble(
                j, sheaf,
                UnramChar.abs_power(ring, table.det_exponents[j]), rules),)
            for j in table.rows}
        return ProvenanceModule(ring, chars, prov)
    raise UnsupportedSpec(f"half slope cannot take {spec!r}")


def _dual_spec(spec):
    tag = parse_rep_spec(spec)
    if tag[0] in ("triv", "st"):
        return spec
    if tag[0] in ("absdet", "nrd"):
        return f"{tag[0]}^{-tag[1]}"
    if tag[0] in ("ind", "ps"):
        return f"{tag[0]}({-tag[1]},{-tag[2]})"
    raise UnsupportedSpec(f"no contragredient spec for {spec!r}")


def provenance_verdier_dualize(graded, d, rules):
    """Recompute the contragredient's table from the provenance and flip it."""
    if rules.d != d:
        raise ValueError(
            f"dimension {d} disagrees with the {rules.name} rules")
    name, spec = graded.provenance
    partner = provenance_hc_tilde(graded.ring, name, _dual_spec(spec))
    dt = TorusChar.delta_power(graded.ring, 1)
    chars = {2 * d - k: tuple(c.inverse() * dt for c in entry)
             for k, entry in partner.chars.items()}
    return ProvenanceModule(graded.ring, chars, graded.provenance)


def provenance_glue(ring, slope, spec):
    """Gluing output of a non-cuspidal input through the provenance tag."""
    _name, _table, rules = _slope(slope)
    return provenance_verdier_dualize(
        provenance_hc_tilde(ring, slope, spec.strip()), rules.d, rules)
