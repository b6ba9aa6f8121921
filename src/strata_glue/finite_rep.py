"""Finite-level smooth models and their invariant-theoretic probes.

A representation is stored as a weighted permutation action on the level-m
projective line: an unramified character pair (c1, c2) turns the torus part
of each canonicalization cocycle into a unit scalar.  On top of the raw
models the module offers fixed points under the named compact subgroups, an
averaging projector when the group order is invertible, and a staged
unipotent-smoothing oracle that reads off the torus action on the stable
quotient together with its two-step filtration.
"""

from fractions import Fraction
from math import gcd
import re

from .lambda_core import (
    FgModule,
    LambdaMatrix,
    ModuleMap,
    free_module,
    howell_form,
    identity_matrix,
    mat_mul,
    quotient_module,
    kernel,
)
from .padic_core import (
    PrecisionExhausted,
    ProjPoint,
    SubgroupSpec,
    UnsupportedSubgroup,
    _unit_gens,
    act,
    diag_matrix,
    enumerate_p1,
    subgroup_generators,
)


class LevelMismatch(ValueError):
    """Two finite models disagree about the working level."""


class NonInvertibleOrder(ValueError):
    """Averaging needs the group order to be a unit in the coefficient ring."""


class NotStabilized(RuntimeError):
    """The smoothing stages kept moving through the whole window."""


class DualNotAvailable(ValueError):
    """No contragredient formula is wired in for this model kind."""


# ------------------------------------------------------------ scalar helpers

def _vp(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _upow(ring, c, e):
    if e >= 0:
        return pow(c, e, ring.n)
    return pow(ring.inv(c), -e, ring.n)


def _chi_val(ring, chi, torus_vals):
    c1, c2 = chi
    t1, t2 = torus_vals
    return _upow(ring, c1, t1) * _upow(ring, c2, t2) % ring.n


def unram_pair(ring, a, b):
    """Value pair at pi of the unramified twist |.|^a x |.|^b.

    Exponents may be ints, Fractions, or strings like "1/2"; half-integral
    ones need the ring to carry sqrt_q.
    """
    out = []
    for e in (a, b):
        e2 = 2 * Fraction(e)
        if e2.denominator != 1:
            raise ValueError(f"exponent {e!r} is not half-integral")
        # |pi| = q^{-1}, so |.|^e evaluates to q^{-e}
        out.append(ring.half_q_pow(-int(e2)))
    return tuple(out)


# ----------------------------------------------------------------- the model

class FiniteRep:
    """Level-m model with explicit action matrices."""

    __slots__ = ("ring", "p", "level", "precision", "kind", "chi",
                 "labels", "rank", "parent", "table", "factors", "scale")

    def __init__(self, ring, p, level, precision, kind, chi=None, labels=None,
                 rank=None, parent=None, table=None, factors=None, scale=None):
        self.ring = ring
        self.p = p
        self.level = level
        self.precision = precision
        self.kind = kind
        self.chi = chi
        self.labels = labels
        self.rank = rank
        self.parent = parent
        self.table = table
        self.factors = factors
        self.scale = scale

    def action_matrix(self, g):
        """Matrix of g acting on coordinate columns; rows follow the labels."""
        ring, n = self.ring, self.ring.n
        if self.kind == "trivial":
            return LambdaMatrix(ring, ((1,),))
        if self.kind == "induced":
            index = {x: i for i, x in enumerate(self.labels)}
            rows = [[0] * self.rank for _ in range(self.rank)]
            for i, x in enumerate(self.labels):
                y, coc = act(x, g, self.level)
                rows[i][index[y]] = _chi_val(ring, self.chi, coc.torus_vals)
            return LambdaMatrix(ring, rows)
        if self.kind == "steinberg":
            full = self.parent.action_matrix(g).entries
            rows = [[(full[i][j] - full[0][j]) % n
                     for j in range(1, len(full))]
                    for i in range(1, len(full))]
            return LambdaMatrix(ring, rows)
        if self.kind == "inflated":
            if g.maxneg() > 0:
                raise ValueError("inflated models only see integral matrices")
            e = g.int_entries(1)
            if e == ((1 % self.p, 0), (0, 1 % self.p)):
                return identity_matrix(ring, self.rank)
            if e in self.table:
                return LambdaMatrix(ring, self.table[e])
            raise ValueError(f"no table entry for residue {e}")
        if self.kind == "tensor":
            f1, f2 = self.factors
            a = f1.action_matrix(g).entries
            b = f2.action_matrix(g).entries
            r2 = f2.rank
            rows = [[a[i1][j1] * b[i2][j2] % n
                     for j1 in range(f1.rank) for j2 in range(r2)]
                    for i1 in range(f1.rank) for i2 in range(r2)]
            return LambdaMatrix(ring, rows)
        if self.kind == "sum":
            f1, f2 = self.factors
            a = f1.action_matrix(g).entries
            b = f2.action_matrix(g).entries
            rows = [list(r) + [0] * f2.rank for r in a]
            rows += [[0] * f1.rank + list(r) for r in b]
            return LambdaMatrix(ring, rows)
        if self.kind == "twist":
            det = g.det()
            if det.a == 0:
                raise ValueError("matrix is singular to working precision")
            c = _upow(ring, self.scale, det.w)
            inner = self.parent.action_matrix(g).entries
            return LambdaMatrix(
                ring, [[c * v % n for v in row] for row in inner])
        raise ValueError(f"unknown model kind {self.kind!r}")

    def at_level(self, m2):
        """The same representation realized at another level."""
        if m2 > self.precision:
            raise PrecisionExhausted(
                f"level {m2} exceeds the model budget {self.precision}")
        if m2 == self.level:
            return self
        if self.kind == "trivial":
            return trivial_rep(self.ring, m2, precision=self.precision)
        if self.kind == "induced":
            return induced_rep(self.ring, self.chi, m2,
                               precision=self.precision)
        if self.kind == "steinberg":
            return steinberg(self.ring, m2, precision=self.precision)
        if self.kind == "tensor":
            f1, f2 = self.factors
            return tensor(f1.at_level(m2), f2.at_level(m2))
        if self.kind == "sum":
            f1, f2 = self.factors
            return direct_sum(f1.at_level(m2), f2.at_level(m2))
        if self.kind == "twist":
            return twist(self.parent.at_level(m2), self.scale)
        raise LevelMismatch("inflated models live at their own level")

    def __repr__(self):
        return (f"FiniteRep({self.kind}, level={self.level}, "
                f"rank={self.rank})")


def trivial_rep(ring, m, precision=None):
    return FiniteRep(ring, ring.p, m, precision or 2 * m + 4, "trivial",
                     chi=(1, 1), rank=1)


def induced_rep(ring, chi, m, precision=None):
    """Functions on the level-m projective line, twisted by a unit pair."""
    if m < 1:
        raise ValueError("level must be at least 1")
    c1, c2 = chi
    chi = (c1 % ring.n, c2 % ring.n)
    if not (ring.is_unit(chi[0]) and ring.is_unit(chi[1])):
        raise ValueError(f"character values {chi} must be units")
    labels = enumerate_p1(ring.p, m)
    return FiniteRep(ring, ring.p, m, precision or 2 * m + 4, "induced",
                     chi=chi, labels=labels, rank=len(labels))


def steinberg(ring, m, precision=None):
    """Quotient of the untwisted induced model by the constants."""
    parent = induced_rep(ring, (1, 1), m, precision=precision)
    return FiniteRep(ring, ring.p, m, parent.precision, "steinberg",
                     chi=(1, 1), labels=parent.labels[1:],
                     rank=parent.rank - 1, parent=parent)


def inflate(ring, p, table, rank):
    """Depth-zero model given by residue matrices mod p."""
    norm = {}
    for key, mat in table.items():
        norm[key] = tuple(tuple(v % ring.n for v in row) for row in mat)
    return FiniteRep(ring, p, 1, 6, "inflated", table=norm, rank=rank)


def gl2_f2_sign(ring):
    """Sign character of GL2(F_2) ~ S_3 on the two transvections."""
    neg = ((-1 % ring.n,),)
    table = {((1, 1), (0, 1)): neg, ((1, 0), (1, 1)): neg}
    return inflate(ring, 2, table, rank=1)


def tensor(sig, tau):
    if sig.ring != tau.ring or sig.p != tau.p:
        raise ValueError("tensor factors live over different rings")
    if sig.level != tau.level:
        raise LevelMismatch(
            f"levels {sig.level} and {tau.level} cannot be paired")
    return FiniteRep(sig.ring, sig.p, sig.level,
                     min(sig.precision, tau.precision), "tensor",
                     rank=sig.rank * tau.rank, factors=(sig, tau))


def twist(sig, c):
    """Scale the action by c^{v(det g)}."""
    c = c % sig.ring.n
    if not sig.ring.is_unit(c):
        raise ValueError(f"twist value {c} must be a unit")
    return FiniteRep(sig.ring, sig.p, sig.level, sig.precision, "twist",
                     chi=sig.chi, rank=sig.rank, parent=sig, scale=c)


def direct_sum(sig, tau):
    """Block sum of two models at the same level."""
    if sig.ring != tau.ring or sig.p != tau.p:
        raise ValueError("summands live over different rings")
    if sig.level != tau.level:
        raise LevelMismatch(
            f"levels {sig.level} and {tau.level} cannot be paired")
    return FiniteRep(sig.ring, sig.p, sig.level,
                     min(sig.precision, tau.precision), "sum",
                     rank=sig.rank + tau.rank, factors=(sig, tau))


def dual_rep(sig):
    """Contragredient, produced as a first-class model of the same kind."""
    ring = sig.ring
    if sig.kind == "trivial":
        return sig
    if sig.kind == "induced":
        c1, c2 = sig.chi
        return induced_rep(ring, (ring.inv(c1), ring.inv(c2)), sig.level,
                           precision=sig.precision)
    if sig.kind == "steinberg":
        return steinberg(ring, sig.level, precision=sig.precision)
    if sig.kind == "tensor":
        f1, f2 = sig.factors
        return tensor(dual_rep(f1), dual_rep(f2))
    if sig.kind == "sum":
        f1, f2 = sig.factors
        return direct_sum(dual_rep(f1), dual_rep(f2))
    if sig.kind == "twist":
        return twist(dual_rep(sig.parent), ring.inv(sig.scale))
    raise DualNotAvailable(f"no dual for kind {sig.kind!r}")


# ------------------------------------------------------------- fixed points

def fixed_points(sig, spec):
    """Submodule of vectors fixed by every generator of the named subgroup.

    The result is presented on the model basis; witness_rows span the fixed
    space inside the coordinate module.
    """
    if spec.m != sig.level:
        raise LevelMismatch(
            f"subgroup at level {spec.m}, model at level {sig.level}")
    if spec.kind == "Uprime":
        return _uprime_fixed(sig)
    gens = subgroup_generators(spec, sig.p)
    if any(g.maxneg() > 0 for g in gens):
        raise UnsupportedSubgroup(spec.kind)
    ring, k = sig.ring, sig.rank
    rows = []
    for g in gens:
        a = sig.action_matrix(g).entries
        for i in range(k):
            row = list(a[i])
            row[i] = (row[i] - 1) % ring.n
            rows.append(row)
    f = ModuleMap(free_module(ring, k),
                  free_module(ring, len(rows)),
                  LambdaMatrix(ring, rows, cols=k))
    return kernel(f)


def _eta_inv_rows(sig, raised):
    # matrix of the eta-inverse translation from the level-m model into the
    # level-(m+1) model; every act() here is certified by the extra digit
    ring = sig.ring
    m = sig.level
    if sig.kind == "trivial":
        return [[1]]
    if sig.kind == "sum":
        b1 = _eta_inv_rows(sig.factors[0], raised.factors[0])
        b2 = _eta_inv_rows(sig.factors[1], raised.factors[1])
        w1 = sig.factors[0].rank
        w2 = sig.factors[1].rank
        return ([list(r) + [0] * w2 for r in b1]
                + [[0] * w1 + list(r) for r in b2])
    eta_inv = diag_matrix(sig.p, 0, -1)
    base = sig.parent if sig.kind == "steinberg" else sig
    top = raised.parent if raised.kind == "steinberg" else raised
    index = {x: i for i, x in enumerate(base.labels)}
    rows = []
    for x2 in top.labels:
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
    if sig.kind not in ("trivial", "induced", "steinberg", "sum"):
        raise UnsupportedSubgroup("Uprime")
    ring, m = sig.ring, sig.level
    raised = sig.at_level(m + 1)
    fix2 = fixed_points(raised, SubgroupSpec("U", m=m + 1))
    rows = _eta_inv_rows(sig, raised)
    target = quotient_module(free_module(ring, raised.rank),
                             [list(r) for r in fix2.witness_rows])
    f = ModuleMap(free_module(ring, sig.rank), target,
                  LambdaMatrix(ring, rows, cols=sig.rank))
    return kernel(f)


# ------------------------------------------------------- averaging projector

def averaging_projector(sig, subgroup):
    """Idempotent (1/N) sum over the finite image of the subgroup.

    subgroup is a SubgroupSpec or an explicit list of generator matrices.
    """
    ring, k = sig.ring, sig.rank
    if isinstance(subgroup, SubgroupSpec):
        if subgroup.m != sig.level:
            raise LevelMismatch(
                f"subgroup at level {subgroup.m}, model at level {sig.level}")
        gens = subgroup_generators(subgroup, sig.p)
    else:
        gens = list(subgroup)
    imgs = [sig.action_matrix(g).entries for g in gens]
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


# ----------------------------------------------------------- Jacquet oracle

class JacquetResult:
    """Stable data of the smoothing tower: rank, torus matrices, filtration."""

    __slots__ = ("stabilized_rank", "torus_action", "filtration", "split",
                 "stabilization_level")

    def __init__(self, stabilized_rank, torus_action, filtration, split,
                 stabilization_level):
        self.stabilized_rank = stabilized_rank
        self.torus_action = torus_action
        self.filtration = filtration
        self.split = split
        self.stabilization_level = stabilization_level

    def __repr__(self):
        return (f"JacquetResult(rank={self.stabilized_rank}, "
                f"filtration={self.filtration}, split={self.split})")


class _StageEngine:
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
        self.r_inv = ring.inv(self.r)
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
        self.units = _unit_gens(p, m)
        self.discs = (None,)

    def _rpow(self, e):
        if e >= 0:
            return pow(self.r, e, self.n)
        return pow(self.r_inv, -e, self.n)

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
                w_in[i] = self.ring.q_pow(kk - big_l) * self._rpow(mu) % n
                w_out[i] = self._rpow(-mu)
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

    def pull(self, v, d1, d2):
        """Pullback along right translation by diag(d1, d2), exact integers."""
        n, p, big_l = self.n, self.p, self.big_l
        md = p ** big_l
        vdet = _vp(d1, p) + _vp(d2, p)
        out = [0] * self.size
        for i, x in enumerate(self.pts):
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
            val = v[tgt]
            if val:
                w = _chi_val(self.ring, (self.c1, self.c2), (vdet - vl, vl))
                out[i] = w * val % n
        return out

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
        stack = [list(c) for c in cols]
        if fold:
            stack.append([1] * self.size)
        rank = howell_form(
            LambdaMatrix(self.ring, stack, cols=self.size)).nrows
        if fold:
            rank -= 1
        ops = [(self.p, 1)]
        for u in self.units:
            ops.append((u, 1))
            ops.append((1, u))
        mats = []
        for d1, d2 in ops:
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

    Raises NotStabilized when the window closes first and PrecisionExhausted
    when the model budget cannot hold the internal level.
    """
    if sig.kind not in ("induced", "steinberg"):
        raise ValueError(f"no smoothing stages for kind {sig.kind!r}")
    fold = sig.kind == "steinberg"
    ring, m = sig.ring, sig.level
    chi = (1, 1) if fold else sig.chi
    if j_max is None:
        j_max = m + 2
    big_l = m + j_max
    if sig.precision < big_l:
        raise PrecisionExhausted(
            f"stage window needs level {big_l}, budget is {sig.precision}")
    eng = _StageEngine(ring, sig.p, m, big_l, chi)
    prev = None
    for j in range(j_max + 1):
        summary = eng.stage(j, fold)
        if j >= 1 and summary == prev and summary[1] is not None:
            rank, mats, mpi2 = summary
            if mpi2 is None:
                raise NotStabilized(
                    f"stages {j - 1} and {j} agreed, but their pi-matrix "
                    f"{mats[0]} is not invertible mod {ring.n}")
            mpi = mats[0]
            torus = {
                "pi": LambdaMatrix(ring, mpi),
                "pi2": LambdaMatrix(ring, mpi2),
                "units": tuple(LambdaMatrix(ring, u) for u in mats[1:]),
            }
            if fold:
                filtration = ((mpi[0][0], mpi2[0][0]),)
            else:
                filtration = ((mpi[0][0], mpi2[0][0]),
                              (mpi[1][1], mpi2[1][1]))
            split = len(filtration) == 2 and filtration[0] != filtration[1]
            return JacquetResult(rank, torus, filtration, split, j)
        prev = summary
    raise NotStabilized(
        f"no two consecutive stages agreed up to j_max={j_max}")


# ----------------------------------------------------------------- grammar

_CALL = re.compile(r"(ind|ps)\(([^,()\s]+),([^,()\s]+)\)\Z")
_POW = re.compile(r"(absdet|nrd)\^([^\s^]+)\Z")
_CHAR = re.compile(r"char\((\d+),(\d+)\)\Z")


def parse_rep_spec(text):
    """Parse a rep spec string into a tagged tuple with Fraction exponents."""
    text = text.strip()
    if text == "triv":
        return ("triv",)
    if text == "st":
        return ("st",)
    m = _CALL.match(text)
    if m:
        return (m.group(1), Fraction(m.group(2)), Fraction(m.group(3)))
    m = _POW.match(text)
    if m:
        return (m.group(1), Fraction(m.group(2)))
    m = _CHAR.match(text)
    if m:
        return ("char", int(m.group(1)), int(m.group(2)))
    if text.startswith("cusp:"):
        return ("cusp", text[5:])
    raise ValueError(f"unrecognized rep spec {text!r}")
