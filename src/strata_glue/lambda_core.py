"""Exact linear algebra over Z/n.

Z/n is not a domain, so row reduction alone does not give canonical forms or
complete kernels.  The canonical representative used throughout is the Howell
form: unique per row span, closed under the annihilator rows that a composite
modulus introduces.  Modules are finitely generated quotients of free modules,
maps are matrices on ambient generators, and kernels and quotients are
computed by stacked Howell solves.  Iso classes come from a Smith form mod n
that starts from the Howell relations: rows with a unit pivot drop out with
their pivot column, and only the rest is eliminated, per prime power of n,
with the local orders joined by CRT.  All values are immutable after
construction and every operation is a pure function, so instances can be
shared freely.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import compress, zip_longest
from math import gcd, prod


class BanalityViolation(ValueError):
    """The modulus collides with p or with (q-1)^2(q+1)."""


class BadSqrt(ValueError):
    """Claimed square root of q fails sqrt_q^2 = q mod n."""


class IllDefinedMap(ValueError):
    """Matrix does not carry source relations into target relations."""


@lru_cache(maxsize=None)
def _factor(n):
    """Pairs (l, l^e) over the primes l dividing n exactly e times, l
    ascending, by trial division; cached, so each modulus is factored once."""
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


class CoeffRing:
    """The coefficient ring Z/n with its residue characteristic bookkeeping."""

    __slots__ = ("n", "p", "q", "sqrt_q")

    def __init__(self, n, p, sqrt_q=None):
        self.n = n
        self.p = p
        self.q = p
        self.sqrt_q = sqrt_q

    def is_unit(self, x):
        return gcd(x % self.n, self.n) == 1

    def inv(self, x):
        x = x % self.n
        if gcd(x, self.n) != 1:
            raise ZeroDivisionError(f"{x} is not a unit mod {self.n}")
        return pow(x, -1, self.n)

    def q_pow(self, e):
        """q^e mod n for any integer e; q is a unit by banality."""
        return pow(self.q, e, self.n)

    def abs_value(self, e):
        """Value q^(-e) at pi of the unramified character |.|^e.

        e may be an int, a Fraction or a string like "1/2"; it must be
        half-integral, and an odd number of halves needs sqrt_q.
        """
        e = Fraction(e)
        if e.denominator == 1:
            return pow(self.q, -e.numerator, self.n)
        if e.denominator != 2:
            raise ValueError(f"exponent {e} is not half-integral")
        if self.sqrt_q is None:
            raise MissingSqrtQ("half-integral twist requires sqrt_q")
        return pow(self.sqrt_q, -e.numerator, self.n)

    def __repr__(self):
        if self.sqrt_q is None:
            return f"CoeffRing(n={self.n}, p={self.p})"
        return f"CoeffRing(n={self.n}, p={self.p}, sqrt_q={self.sqrt_q})"

    def __eq__(self, other):
        return (isinstance(other, CoeffRing)
                and (self.n, self.p, self.sqrt_q) == (other.n, other.p, other.sqrt_q))

    def __hash__(self):
        return hash((self.n, self.p, self.sqrt_q))


class MissingSqrtQ(ValueError):
    """Half-integral exponent requested on a ring without sqrt_q."""


def make_ring(n, p, sqrt_q=None):
    """Validate and build the coefficient ring Z/n for residue prime p."""
    if n < 2:
        raise BanalityViolation(f"modulus {n} too small")
    if _factor(p) != ((p, p),):
        raise BanalityViolation(f"residue characteristic {p} is not prime")
    if gcd(n, p) != 1:
        raise BanalityViolation(f"gcd(n={n}, p={p}) != 1")
    bad = (p - 1) * (p - 1) * (p + 1)
    if gcd(n, bad) != 1:
        raise BanalityViolation(f"gcd(n={n}, (q-1)^2(q+1)={bad}) != 1")
    if sqrt_q is not None:
        if (sqrt_q * sqrt_q - p) % n != 0:
            raise BadSqrt(f"{sqrt_q}^2 != {p} mod {n}")
        sqrt_q %= n
    return CoeffRing(n, p, sqrt_q)


class LambdaMatrix:
    """Dense matrix over Z/n, entries stored reduced, row major."""

    __slots__ = ("ring", "entries", "cols")

    def __init__(self, ring, entries, cols=None):
        n = ring.n
        rows = tuple(tuple(int(e) % n for e in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
            if cols is not None and cols != width:
                raise ValueError(f"rows have {width} columns, not {cols}")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.ring = ring
        self.entries = rows
        self.cols = cols

    @classmethod
    def _reduced(cls, ring, rows, cols):
        """Wrap rows that are already tuples of entries in [0, n), each of
        length cols, without checking or reducing them again."""
        m = object.__new__(cls)
        m.ring = ring
        m.entries = tuple(rows)
        m.cols = cols
        return m

    @property
    def nrows(self):
        return len(self.entries)

    def transpose(self):
        rows = tuple(zip(*self.entries)) if self.entries else ((),) * self.cols
        return LambdaMatrix._reduced(self.ring, rows, self.nrows)

    def __repr__(self):
        return f"LambdaMatrix({self.nrows}x{self.cols} mod {self.ring.n})"


def identity_matrix(ring, k):
    return LambdaMatrix(ring, [[1 if i == j else 0 for j in range(k)]
                               for i in range(k)], cols=k)


# ----------------------------------------------------------- Howell engine

def _unit_scale(a, n):
    """A unit u with u*a = gcd(a, n) mod n, for a not divisible by n.

    Closed form, the "stab" step of Storjohann & Mulders, *Fast algorithms
    for linear algebra modulo N* (ESA 1998): with d = gcd(a, n), u0 inverts
    a/d mod n/d, and u0 + c*(n/d) is a unit mod n when c is the largest
    divisor of n coprime to u0.  Each prime of n then divides exactly one
    of u0 and c*(n/d).
    """
    d = gcd(a, n)
    u0 = pow(a // d, -1, n // d)
    c = n
    while (g := gcd(c, u0)) > 1:
        c //= g
    return (u0 + c * (n // d)) % n


def _howell_engine(rows, n, width, kernel=False):
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


def howell_form(m):
    """Unique Howell canonical representative of the row span of m."""
    return LambdaMatrix._reduced(
        m.ring, _howell_engine(m.entries, m.ring.n, m.cols), m.cols)


def left_kernel(m):
    """Howell basis of {x : x * m = 0}."""
    krows = _howell_engine(m.entries, m.ring.n, m.cols, kernel=True)
    kh = _howell_engine(krows, m.ring.n, m.nrows)
    return LambdaMatrix._reduced(m.ring, kh, m.nrows)


def express_in_span(v, hmat):
    """Coefficients c with c * hmat = v, or None.  hmat must be Howell form."""
    n = hmat.ring.n
    v = [e % n for e in v]
    coeffs = [0] * hmat.nrows
    c = -1
    for i, row in enumerate(hmat.entries):   # pivots strictly increase
        c = next(j for j in range(c + 1, hmat.cols) if row[j])
        d = row[c]
        if v[c] % d != 0:
            return None
        q = v[c] // d
        coeffs[i] = q % n
        for j in range(c, hmat.cols):
            v[j] = (v[j] - q * row[j]) % n
    if any(v):
        return None
    return coeffs


# ----------------------------------------------------------------- modules

class FgModule:
    """Quotient of a free module Lambda^ambient by a Howell-form row span.

    witness_rows, when present, are ambient vectors of an enclosing module
    that the generators of this abstract presentation came from (kernels
    keep them so callers can point at actual cycles).
    """

    __slots__ = ("ring", "ambient", "relations", "witness_rows")

    def __init__(self, ring, ambient, relations=None, witness_rows=None):
        self.ring = ring
        self.ambient = ambient
        if relations is None:
            relations = LambdaMatrix(ring, [], cols=ambient)
        else:
            relations = howell_form(relations)
        if relations.cols != ambient:
            raise ValueError("relation width differs from ambient rank")
        self.relations = relations
        self.witness_rows = witness_rows

    def contains_rel(self, v):
        return express_in_span(v, self.relations) is not None

    def size(self):
        span, c = 1, -1
        for row in self.relations.entries:   # pivots strictly increase
            c = next(j for j in range(c + 1, self.ambient) if row[j])
            span *= self.ring.n // row[c]
        return self.ring.n ** self.ambient // span

    def is_zero(self):
        return self.size() == 1

    def __repr__(self):
        return f"FgModule(ambient={self.ambient}, iso={iso_class(self)})"


def free_module(ring, k):
    return FgModule(ring, k)


def quotient_module(module, rows):
    """Quotient of an FgModule by extra ambient relation rows.

    Rows that are already tuples of entries in [0, n), as image_rows()
    gives them, are stacked on the relations without a second check; any
    other rows go through the checking constructor, which reduces them.
    """
    ring, k = module.ring, module.ambient
    rows = list(rows)
    if all(type(r) is tuple and len(r) == k
           and (not r or 0 <= min(r) and max(r) < ring.n) for r in rows):
        stack = LambdaMatrix._reduced(
            ring, module.relations.entries + tuple(rows), k)
    else:
        stack = LambdaMatrix(
            ring, list(module.relations.entries) + rows, cols=k)
    return FgModule(ring, k, stack)


def span_module(ring, ambient, rows):
    """Submodule of Lambda^ambient spanned by rows, presented on its Howell
    generators, which it keeps as witness rows.  For the same span this is
    exactly what kernel() returns, Howell form being canonical.  Entries of
    rows must already lie in [0, n)."""
    return _present_subquotient(
        ring, ambient, _howell_engine(rows, ring.n, ambient), ())


class ModuleMap:
    """Map between FgModules.

    matrix rows are indexed by target generators, columns by source
    generators: apply(v)[i] = sum_j matrix[i][j] * v[j].  Well-definedness
    (source relations land in target relations) is checked on construction.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if matrix.nrows != target.ambient or matrix.cols != source.ambient:
            if not (matrix.nrows == 0 and target.ambient == 0):
                raise ValueError("matrix shape does not match source/target")
        self.source = source
        self.target = target
        self.matrix = matrix
        for rel in source.relations.entries:
            if not target.contains_rel(self.apply(rel)):
                raise IllDefinedMap("source relation escapes target relations")

    def apply(self, v):
        n = self.source.ring.n
        support = [(j, c) for j, c in enumerate(v) if c]
        return [sum(row[j] * c for j, c in support) % n
                for row in self.matrix.entries]

    def image_rows(self):
        """Images of the source generators, as target-ambient rows."""
        return self.matrix.transpose().entries


class BoundedComplex:
    """Complex of FgModules with differentials d_k : C_k -> C_{k+1}."""

    __slots__ = ("modules", "differentials")

    def __init__(self, modules, differentials):
        self.modules = dict(modules)
        self.differentials = dict(differentials)
        for k, d in self.differentials.items():
            if d.source is not self.modules.get(k) or d.target is not self.modules.get(k + 1):
                raise ValueError(f"differential at {k} detached from the complex")
        for k in self.differentials:
            if k + 1 in self.differentials:
                nxt = self.differentials[k + 1]
                for row in self.differentials[k].image_rows():
                    if not self.modules[k + 2].contains_rel(nxt.apply(row)):
                        raise ValueError(f"d_{k+1} d_{k} != 0")


def _present_subquotient(ring, ambient, gen_rows, mod_rows):
    """span(gen_rows)/span(mod_rows) presented on the given generators."""
    if not gen_rows:
        return FgModule(ring, 0, witness_rows=())
    stacked = list(gen_rows) + list(mod_rows)
    kern = left_kernel(LambdaMatrix._reduced(ring, stacked, ambient))
    rel = [k[: len(gen_rows)] for k in kern.entries]
    return FgModule(ring, len(gen_rows),
                    LambdaMatrix._reduced(ring, rel, len(gen_rows)) if rel
                    else None,
                    witness_rows=tuple(tuple(g) for g in gen_rows))


def kernel(f):
    """Kernel of a ModuleMap as an abstract FgModule with witness rows:
    the Howell rows of {x : f(x) = 0 in target}."""
    ring, k = f.source.ring, f.source.ambient
    a = f.matrix.transpose()          # x * a = apply(x)
    stacked = list(a.entries) + list(f.target.relations.entries)
    kern = left_kernel(LambdaMatrix._reduced(ring, stacked, a.cols))
    rows = _howell_engine([r[:k] for r in kern.entries], ring.n, k)
    return _present_subquotient(ring, k, rows, f.source.relations.entries)


# --------------------------------------------------- Smith form, iso classes

def _local_smith(rows, width, q):
    """Smith form over Z/q, for q a prime power, of rows over Z/n: the
    order of each column's cyclic summand, q where no pivot lands.

    An entry of least valuation, that is of least gcd g with q, divides
    every entry of its block over Z/q, so it clears its column by row steps
    and its row by column steps, with no divisibility sweep.  The column
    steps change only the pivot row, which is then dropped, so they need
    not be carried out.  The pivot is left as g times a unit, which spans
    the same ideal as g.
    """
    a = [[x % q for x in r] for r in rows]
    orders = [q] * width
    while True:
        best = min(((gcd(x, q), i, j) for i, r in enumerate(a)
                    for j, x in enumerate(r) if x), default=None)
        if best is None:
            return orders
        g, i, j = best
        piv = a.pop(i)
        inv = pow(piv[j] // g, -1, q)
        # x = s * piv[j] mod q for each other entry x of the pivot row
        steps = [(c, x // g * inv % q) for c, x in enumerate(piv)
                 if x and c != j]
        for r in a:
            if r[j]:
                for c, s in steps:
                    r[c] = (r[c] - r[j] * s) % q
                r[j] = 0
        orders[j] = g


def iso_class(module):
    """Invariant factors (> 1) of the module, largest first, from its
    Howell relations.

    A Howell row whose pivot is 1 has its pivot column zero in every other
    row, so the row and that column drop out together: the row rewrites
    its pivot generator in terms of the others.  Over a prime n every pivot
    is 1, so the answer is [n] * (ambient - rows), with no elimination and
    no factoring.  Rows with other pivots are eliminated per prime power q
    of n.  The local orders, sorted largest first, multiply column by
    column into the invariant factors.
    """
    n, k = module.ring.n, module.ambient
    unit, rest, c = [], [], -1
    for r in module.relations.entries:   # pivots strictly increase
        c = next(j for j in range(c + 1, k) if r[j])
        (unit if r[c] == 1 else rest).append((c, r))
    cut = {c for c, _ in unit}
    cols = [j for j in range(k) if j not in cut]
    rest = [[r[j] for j in cols] for _, r in rest]
    local = []
    for _, q in _factor(n) if rest else ((n, n),):
        orders = _local_smith(rest, len(cols), q)
        local.append(sorted((o for o in orders if o > 1), reverse=True))
    return [prod(f) for f in zip_longest(*local, fillvalue=1)]
