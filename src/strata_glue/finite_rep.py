"""Finite-level smooth models and their invariant-theoretic probes.

A representation is a function space on the level-m projective line,
twisted by an unramified character pair (c1, c2) that turns torus
valuations into unit scalars.  The model kinds are trivial, induced,
Steinberg and inflated (depth-zero residue tables).  On top of them the
module offers fixed points under the named compact subgroups and a staged
unipotent-smoothing oracle that reads off the torus action on the stable
quotient together with its two-step filtration.

The oracle's smoothed vectors live on P^1(O/pi^L), L = m + j_max, which has
p^L + p^(L-1) points, but are held in class coordinates.  Smoothing makes
a vector a sum over discs, and every vector of the tower takes one value
on all discs of a class: one depth and one residue mod p^m, or mod the
disc's own precision where that is coarser.  So a vector is one value per
class, plus the big cell's and the one at infinity.  A stage builds only
its two-vector frame, the smoothed fibres of [1:0] and of infinity, each
a power of q times a character value on each class it meets.  It counts
its rank from its classes and probes the torus once: diag(pi, 1) takes
each class to the mean of at most p classes, and the torus units act on
the frame as the identity.  So a stage costs its class count times p,
and lists no disc and visits no point: the level-8 oracle at p = 3 works
on at most 118 classes, never on the 26,244 discs of its first stage or
the 516,560,652 points of its line.

Fixed points are asked for only under the stabilizers of the tree's
facets, U, Uprime and Gamma0.  On trivial, induced and Steinberg models
each is a closed form in cell coordinates, the same rows of at most two
values at every level, with no action matrix and no orbit sweep.  Only
inflated models, whose action is a table of residue matrices mod p, take
the dense kernel of their action matrices.
"""

from fractions import Fraction
from math import gcd
import re

from .lambda_core import (
    FgModule,
    LambdaMatrix,
    ModuleMap,
    free_module,
    identity_matrix,
    kernel,
)
from .padic_core import (
    UnsupportedSubgroup,
    p1_size,
    subgroup_generators,
)


class NotStabilized(RuntimeError):
    """The smoothing stages kept moving through the whole window.

    stages holds the (j, rank, pi-matrix) summary of every stage that ran,
    in order; the pi-matrix is None for a stage whose probe left the frame.
    """

    def __init__(self, message, stages=()):
        super().__init__(message)
        self.stages = tuple(stages)


# ------------------------------------------------------------ scalar helpers

def unram_pair(ring, a, b):
    """Value pair at pi of the unramified twist |.|^a x |.|^b.

    Exponents may be ints, Fractions, or strings like "1/2"; half-integral
    ones need the ring to carry sqrt_q.
    """
    return (ring.abs_value(a), ring.abs_value(b))


# ----------------------------------------------------------------- the model

class FiniteRep:
    """Level-m model of one of four kinds.

    trivial has rank 1; induced holds the functions on the level-m line,
    one coordinate per point index (padic_core's codec), twisted by the
    unit pair chi; steinberg is the quotient of its parent, the untwisted
    induced model, by the constants; inflated is a depth-zero model given
    by a table of rank x rank matrices keyed by 2x2 residue matrices mod p.
    Only the inflated kind has an action matrix: the fixed points of the
    other kinds are closed forms.

    A model carries only its level.  Every residue is exact mod p^L, so
    each call works at the level it needs: jacquet_oracle at level + j_max
    (2m + 2 by default), and the fixed points are closed forms at the
    model's own level.  So the rank of an induced or Steinberg model,
    p^m + p^(m-1) with about m log10(p) digits, is counted only when read.
    """

    __slots__ = ("ring", "p", "level", "kind", "chi", "table", "_rank")

    def __init__(self, ring, p, level, kind, chi=None, rank=None,
                 table=None):
        self.ring = ring
        self.p = p
        self.level = level
        self.kind = kind
        self.chi = chi
        self.table = table
        self._rank = rank

    @property
    def rank(self):
        if self.kind in ("induced", "steinberg"):
            return p1_size(self.p, self.level) - (self.kind == "steinberg")
        return self._rank

    def action_matrix(self, g):
        """Matrix of the integer 2x2 matrix g on an inflated model: the
        identity or the table entry of g's residue mod p."""
        if self.kind != "inflated":
            raise ValueError(f"no action matrix for kind {self.kind!r}")
        e = tuple(tuple(x % self.p for x in row) for row in g)
        if e == ((1, 0), (0, 1)):
            return identity_matrix(self.ring, self.rank)
        if e in self.table:
            return LambdaMatrix(self.ring, self.table[e])
        raise ValueError(f"no table entry for residue {e}")

    def __repr__(self):
        return (f"FiniteRep({self.kind}, level={self.level}, "
                f"rank={self.rank})")


def trivial_rep(ring, m):
    if m < 1:
        raise ValueError("level must be at least 1")
    return FiniteRep(ring, ring.p, m, "trivial", chi=(1, 1), rank=1)


def induced_rep(ring, chi, m):
    """Functions on the level-m projective line, twisted by a unit pair."""
    if m < 1:
        raise ValueError("level must be at least 1")
    c1, c2 = chi
    chi = (c1 % ring.n, c2 % ring.n)
    if not (ring.is_unit(chi[0]) and ring.is_unit(chi[1])):
        raise ValueError(f"character values {chi} must be units")
    return FiniteRep(ring, ring.p, m, "induced", chi=chi)


def steinberg(ring, m):
    """Quotient of the untwisted induced model by the constants."""
    if m < 1:
        raise ValueError("level must be at least 1")
    return FiniteRep(ring, ring.p, m, "steinberg", chi=(1, 1))


def inflate(ring, p, table, rank):
    """Depth-zero model given by rank x rank residue matrices mod p."""
    norm = {}
    for key, mat in table.items():
        if len(mat) != rank or any(len(row) != rank for row in mat):
            raise ValueError(f"matrix for {key} is not {rank}x{rank}")
        norm[key] = tuple(tuple(v % ring.n for v in row) for row in mat)
    return FiniteRep(ring, p, 1, "inflated", table=norm, rank=rank)


def gl2_f2_sign(ring):
    """Sign character of GL2(F_2) ~ S_3 on the two transvections."""
    neg = ((-1 % ring.n,),)
    table = {((1, 1), (0, 1)): neg, ((1, 0), (1, 1)): neg}
    return inflate(ring, 2, table, rank=1)


# ------------------------------------------------------------- fixed points

def fixed_points(sig, spec):
    """Submodule of vectors fixed by U, Uprime or Gamma0: the stabilizers
    of the tree's vertices and edges.

    The working level is the model's own, sig.level.  The result is
    presented on its Howell generators, kept as witness_rows: vectors of
    the enclosing coordinate module that span the fixed space.  Howell form
    is canonical per row span, so the result does not depend on which
    spanning rows a path produces.

    Closed form, for trivial, induced and Steinberg models (_cell_rows):
    every fixed vector of an induced model is constant on the big cell
    [1:t] and on the [s:1], p | s, so it is written in cell coordinates as
    those two values; a Steinberg vector as the one coordinate [s:1] value
    minus big-cell value, in which the constants vanish.  U = SL2(O) is
    transitive on the level-m line, so it fixes the constants.  Gamma0
    keeps a unit first coordinate a unit and a non-unit one a non-unit,
    and its unipotents step [1:t] to [1:t+1] and [s:1] to [s+p:1], so it
    fixes the two cell indicators.
    Uprime, the conjugate of U by eta = diag(1, pi), fixes one line: v is
    Uprime-fixed iff its translate by eta^-1 = diag(1, pi^-1) is U-fixed on
    the level-(m+1) line.  eta^-1 sends the [1:t] with p | t, of torus
    valuations (-1, 0), onto the level-m big cell, and every other point,
    of valuations (0, -1), onto the [s:1]; so no two weights meet over one
    point, and the line is (c1, c2), or (1, c2 c1^-1).  Steinberg takes
    each row modulo the constants, which by banality and Maschke gives its
    fixed space: nothing under U and Uprime, whose lines are the constants
    of its untwisted parent, and the [s:1] indicator, (1,), under Gamma0.
    These rows are written down in Howell form, each led by a 1, so the
    result is free on them and nothing is eliminated.

    Dense path, for inflated models: the kernel of the stacked g - 1
    action matrices over U or Gamma0.  Every other kind, and Uprime on an
    inflated model, raises UnsupportedSubgroup.
    """
    kind = spec.kind
    if (kind not in ("U", "Uprime", "Gamma0")
            or (kind == "Uprime" and sig.kind == "inflated")):
        raise UnsupportedSubgroup(kind)
    if sig.kind != "inflated":
        rows = _cell_rows(sig, kind)
        return FgModule(sig.ring, len(rows), witness_rows=rows)
    ring, k = sig.ring, sig.rank
    rows = []
    for g in subgroup_generators(spec, sig.p, sig.level):
        for i, r in enumerate(sig.action_matrix(g).entries):
            rows.append(r[:i] + ((r[i] - 1) % ring.n,) + r[i + 1:])
    f = ModuleMap(free_module(ring, k),
                  free_module(ring, len(rows)),
                  LambdaMatrix._reduced(ring, rows, k))
    return kernel(f)


def _cell_rows(sig, kind):
    # the Howell rows of the fixed space in cell coordinates: the values on
    # the big cell and on the [s:1], or for Steinberg their difference; see
    # fixed_points
    if sig.kind == "trivial":
        return ((1,),)
    if sig.kind == "steinberg":
        return ((1,),) if kind == "Gamma0" else ()
    c1, c2 = sig.chi
    return {"U": ((1, 1),), "Gamma0": ((1, 0), (0, 1)),
            "Uprime": ((1, c2 * sig.ring.inv(c1) % sig.ring.n),)}[kind]


# ----------------------------------------------------------- Jacquet oracle

class JacquetResult:
    """Stable data of the smoothing tower: rank, torus matrices, filtration."""

    __slots__ = ("stabilized_rank", "torus_action", "filtration",
                 "stabilization_level")

    def __init__(self, stabilized_rank, torus_action, filtration,
                 stabilization_level):
        self.stabilized_rank = stabilized_rank
        self.torus_action = torus_action
        self.filtration = filtration
        self.stabilization_level = stabilization_level

    @property
    def split(self):
        # two constituents whose torus values differ
        f = self.filtration
        return len(f) == 2 and f[0] != f[1]

    def __repr__(self):
        return (f"JacquetResult(rank={self.stabilized_rank}, "
                f"filtration={self.filtration}, split={self.split})")


def _depth_residues(p, mu, e):
    # the residues c < p^e with v_p(c) = mu, ascending
    return [p ** mu * u for u in range(1, p ** (e - mu)) if u % p]


class _StageEngine:
    # working model: functions on the level-L line; stage j smooths along
    # the depth-j unipotent discs and probes the torus in a two-vector frame.
    # Points are grouped by depth: [s:1] with s != 0 has depth v_p(s), the
    # big cell [1:t] has depth 0 (its units t being the [1/t:1]), and
    # infinity stands alone.  The disc (mu, c), j < mu < L, is the [s:1]
    # with s = c mod p^kk, kk = min(2 mu - j, L), v_p(c) = mu: p^(L - kk)
    # points, each of inbound weight q^(kk - L) r^mu.  So a disc's value is
    # r^mu times its points' mean, and smoothing leaves r^-mu times it on
    # each point.  Every vector the tower builds takes one value on all
    # discs of a class: the discs of one depth mu with one c mod p^ce,
    # ce = min(kk, m), which for mu >= m is every disc of depth mu.  The
    # level-m fibres fill classes, and diag(p, 1) sends c to p c one depth
    # up, so it pulls a class from one class, or from p where the depth
    # above resolves one digit more.  So a vector is held in class
    # coordinates, one value per class: class 0 holds the big cell and the
    # depths mu <= j, class 1 infinity, and class 2 + i the i-th class in
    # order of its first disc, its least residue c, which is p^mu when
    # mu >= m.  The frame and its probe image are closed forms per class,
    # so no stage lists a disc or visits a point: a stage costs its class
    # count, about 2 p^((m - j)/2) + L - m against about 2 p^((L - j)/2)
    # discs, times p, and builds no matrix.
    #
    # A stage builds only the frame, the fibres of [1:0] and of infinity,
    # and probes only diag(pi, 1), by two facts about the smoothed level-m
    # fibres (_frame gives their values).
    # The rank is 2 + (the classes of depth below m) - fold.  Every fibre
    # but infinity's is one class times a unit, q^(ce - m) r^mu: those of
    # [1:0] and of the depths mu <= j sit on class 0, and those of one
    # depth j < mu < m fill that depth's classes, as ce <= m there.
    # Infinity's alone meets class 1, with value 1, and otherwise only
    # class 0 and the classes of depth >= m.  So the fibres span a free
    # module on class 0, infinity's row and each class of depth below m,
    # also for composite n.  Folding runs with the trivial character, so
    # r = 1 and infinity's row is 1 on each class of depth >= m: the row of
    # ones is that row plus multiples of class 0 and of the classes below
    # m, so it adds nothing to the span, and the constants take one off.
    # The torus units fix the frame, so their matrices are the identity.
    # diag(u, 1) and diag(1, u) keep each point's depth and move [s:1] to
    # [s u^(+-1):1], with weight 1: each class pulls from one of its own
    # depth, and classes 0 and 1 from themselves.  The [1:0] fibre sits on
    # class 0 alone, and infinity's on classes 0 and 1 and the one class of
    # each depth >= m, so each is its own image.

    def __init__(self, ring, p, m, big_l, chi, fold=False):
        self.ring = ring
        self.p = p
        self.m = m
        self.big_l = big_l
        self.n = n = ring.n
        # fold works modulo the constants, under the trivial character that
        # the rank's closed form needs
        self.fold = fold
        self.c1, self.c2 = (1, 1) if fold else chi
        self.r = self.c1 * ring.inv(self.c2) % n
        # point count, read by the stage sizer in perfbench/spans.py
        self.size = p1_size(p, big_l)
        # r^mu at each depth below L
        self.r_pow = [pow(self.r, mu, n) for mu in range(big_l)]

    def _begin(self, j):
        """Stage j's class modulus ce at each depth, min(2 mu - j, L, m),
        its classes as (first disc, mu) in order, and each class's index by
        its first disc."""
        p, m, big_l = self.p, self.m, self.big_l
        self.j = j
        self.ce = ce = [min(2 * mu - j, big_l, m) for mu in range(big_l)]
        self.classes = sorted(
            [(c, mu) for mu in range(j + 1, min(m, big_l))
             for c in _depth_residues(p, mu, ce[mu])]
            + [(p ** mu, mu) for mu in range(max(j + 1, m), big_l)])
        self.index = {c: k for k, (c, _) in enumerate(self.classes, 2)}

    def _class(self, mu, x):
        # the class of the depth-mu residue x, j < mu <= L; depth L is
        # infinity
        if mu == self.big_l:
            return 1
        if mu >= self.m:
            return self.index[self.p ** mu]
        return self.index[x % self.p ** self.ce[mu]]

    def _frame(self):
        """The smoothed indicators of the level-m fibres of [1:0] and of
        infinity, class by class, each entry mod n.

        A depth-mu disc that a fibre fills takes r^mu, and one that holds
        the fibre's p^(L - m) points, as where kk < m, q^(kk - m) r^mu: in
        both cases q^(ce - m) r^mu, also on class 0 at depths mu <= j,
        where kk = 2 mu - j.  So the fibre of [1:0] is q^(-j - m) on class
        0, and that of [s0:1] at depth mu0 < m is q^(ce - m) r^mu0 on the
        class of s0.  That of infinity is infinity and every point of depth
        mu >= m: r^mu on its class, or (p - 1) q^(mu - j - 1) r^mu, for
        its (p - 1) p^(L - mu - 1) points, on class 0 when mu <= j.
        """
        p, m, n, j = self.p, self.m, self.n, self.j
        q_pow, r_pow = self.ring.q_pow, self.r_pow
        cb = [0] * (len(self.classes) + 2)
        ci = cb[:]
        cb[0] = q_pow(-j - m)
        ci[1] = 1
        for mu in range(m, self.big_l):
            if mu <= j:
                ci[0] += (p - 1) * q_pow(mu - j - 1) * r_pow[mu]
            else:
                ci[self.index[p ** mu]] = r_pow[mu]
        ci[0] %= n
        return cb, ci

    def _probe(self, vecs):
        """Pull each vector of vecs along diag(p, 1), then smooth at the
        current stage: the images, class by class, each entry mod n.

        diag(p, 1) is the central pi times diag(1, pi^-1): [1:t] pulls from
        [1:t/p] with scale c2 when p | t, and every other point from
        [p s:1] with scale c1, one depth up, or from infinity at depth
        L - 1.  A disc's value, r^mu times its points' mean, so becomes
        c1 r^mu times the mean of their sources, each r^-(mu + 1) times its
        disc's value: c2 times the mean of the source discs, or
        c1 r^(L - 1) times the value at infinity.  The class (c, mu) pulls
        evenly from the depth-(mu + 1) discs s = p c mod p^(ce + 1): one
        class there, or p.  Class 0 pulls a 1/q share from itself, its
        [1:t] with p | t, and the rest evenly from the depth-(j + 1)
        residues p^(j + 1) u mod p^(j + 2): the mean of p sources.
        Infinity pulls itself, with c1.
        """
        p, big_l, n = self.p, self.big_l, self.n
        c1, c2, ce, j = self.c1, self.c2, self.ce, self.j
        top = c1 * self.r_pow[-1]
        q_inv = self.ring.q_pow(-1)

        def row(ks):
            # the (class, weight) terms of a class that pulls from ks: one
            # class, or the mean of p
            w = q_inv if len(ks) > 1 else 1
            return [(k, (top if k == 1 else c2) * w) for k in ks]

        terms = [row([0] + [self._class(j + 1, p ** (j + 1) * u)
                            for u in range(1, p)]), [(1, c1)]]
        for c, mu in self.classes:
            if mu + 1 == big_l:
                terms.append(row([1]))
                continue
            e = min(ce[mu] + 1, ce[mu + 1])
            terms.append(row([self._class(mu + 1, x) for x in
                              range(p * c % p ** e, p ** ce[mu + 1], p ** e)]))
        return [[sum(w * v[k] for k, w in row) % n for row in terms]
                for v in vecs]

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

    def stage(self, j):
        """Stage j's (rank, pi-matrix): the matrix of diag(pi, 1) in the
        frame, or with fold on the frame modulo the constants, and None
        where the probe leaves the frame."""
        self._begin(j)
        rank = 2 + sum(mu < self.m for _, mu in self.classes) - self.fold
        cb, ci = self._frame()
        sa, sb = (self.solve(v, cb, ci) for v in self._probe((cb, ci)))
        if sa is None or sb is None:
            return (rank, None)
        if not self.fold:
            return (rank, ((sa[0], sb[0]), (sa[1], sb[1])))
        base = self.solve((1,) * len(cb), cb, ci)
        if base is None:
            return (rank, None)
        return (rank, (((sa[0] - base[0] * sa[1]) % self.n,),))


def _scaled_inverse(ring, mtx, scale):
    # diag(1, pi) acts as the central pi times the inverse of diag(pi, 1)
    n = ring.n
    if len(mtx) == 1:
        return ((scale * ring.inv(mtx[0][0]) % n,),)
    (a, b), (c, d) = mtx
    det = (a * d - b * c) % n
    if gcd(det, n) != 1:
        return None
    f = scale * ring.inv(det) % n
    return ((f * d % n, -f * b % n), (-f * c % n, f * a % n))


def jacquet_oracle(sig, j_max=None):
    """Run the smoothing tower until two consecutive stages agree.

    The stages run on the level-(m + j_max) line, in class coordinates
    (_StageEngine): stage j works on about 2 p^((m - j)/2) + j_max classes
    of smoothing discs, builds its two-vector frame, counts its rank from
    its classes and probes diag(pi, 1) alone, so the cost grows with the
    class count, not with the line or its discs.  diag(1, pi) is read off
    the agreeing stages' pi-matrix once, as the central pi times its
    inverse; the torus units act on the frame as the identity and are not
    listed.  Raises NotStabilized, carrying the stage summaries, when the
    window closes first or the agreeing stages' pi-matrix is singular.
    """
    if sig.kind not in ("induced", "steinberg"):
        raise ValueError(f"no smoothing stages for kind {sig.kind!r}")
    ring, m = sig.ring, sig.level
    if j_max is None:
        j_max = m + 2
    if j_max < 0:
        raise ValueError(f"j_max must be at least 0, got {j_max}")
    eng = _StageEngine(ring, sig.p, m, m + j_max, sig.chi,
                       fold=sig.kind == "steinberg")
    prev = None
    seen = []
    for j in range(j_max + 1):
        summary = eng.stage(j)
        seen.append((j,) + summary)
        if j >= 1 and summary == prev and summary[1] is not None:
            rank, mpi = summary
            mpi2 = _scaled_inverse(ring, mpi, eng.c1 * eng.c2)
            if mpi2 is None:
                raise NotStabilized(
                    f"stages {j - 1} and {j} agreed, but their pi-matrix "
                    f"{mpi} is not invertible mod {ring.n}", seen)
            # every entry is reduced mod n already
            torus = {"pi": LambdaMatrix._reduced(ring, mpi, len(mpi)),
                     "pi2": LambdaMatrix._reduced(ring, mpi2, len(mpi2))}
            filtration = tuple((mpi[i][i], mpi2[i][i])
                               for i in range(len(mpi)))
            return JacquetResult(rank, torus, filtration, j)
        prev = summary
    raise NotStabilized(
        f"no two consecutive stages agreed up to j_max={j_max}", seen)


# ----------------------------------------------------------------- grammar

_CALL = re.compile(r"(ind|ps)\(([^,()\s]+),([^,()\s]+)\)\Z")
_POW = re.compile(r"(absdet|nrd)\^([^\s^]+)\Z")


def _exponent(text):
    # Fraction also reads exponent notation, which would expand 1e99999999
    # for minutes; a zero denominator is a usage error, not arithmetic
    if "e" in text.lower():
        raise ValueError(f"exponent {text!r} is in exponent notation")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"exponent {text!r} has denominator 0") from None


def parse_rep_spec(text):
    """Parse a rep spec string into a tagged tuple with Fraction exponents."""
    text = text.strip()
    if text == "triv":
        return ("triv",)
    if text == "st":
        return ("st",)
    m = _CALL.match(text)
    if m:
        return (m.group(1), _exponent(m.group(2)), _exponent(m.group(3)))
    m = _POW.match(text)
    if m:
        return (m.group(1), _exponent(m.group(2)))
    if text.startswith("cusp:"):
        return ("cusp", text[5:])
    raise ValueError(f"unrecognized rep spec {text!r}")


def induced_exponents(tag):
    """Exponents (a, b) of |.|^a x |.|^b behind a parsed ind or ps tag.

    ps(a,b) is the half-shifted variant ind(a+1/2, b-1/2).
    """
    kind, a, b = tag
    if kind == "ps":
        return a + Fraction(1, 2), b - Fraction(1, 2)
    return a, b


def rep_model(ring, spec, level):
    """Level model of a rep spec that has one: triv, st, ind or ps."""
    tag = parse_rep_spec(spec)
    if tag[0] == "triv":
        return trivial_rep(ring, level)
    if tag[0] == "st":
        return steinberg(ring, level)
    if tag[0] in ("ind", "ps"):
        chi = unram_pair(ring, *induced_exponents(tag))
        return induced_rep(ring, chi, level)
    raise ValueError(f"no finite-level model for {spec!r}")
