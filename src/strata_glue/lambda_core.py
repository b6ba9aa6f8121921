"""Exact linear algebra over Z/n.

Z/n is not a domain, so row reduction alone does not give canonical forms or
complete kernels.  The canonical representative used throughout is the Howell
form, unique per row span.  One pivot rule eliminates over any Z/m: an
entry of least gcd g with m pivots when it is g times a unit and g divides
its column, as always over a prime power.  Where that fails, a gcd splits m
into two coprime parts, each eliminated again and joined by CRT: n is split
only by gcds, at a column with no unit entry, and never factored.
Modules are finitely generated quotients of free modules.  A map runs from a
free module into any module, as the maps whose kernels and cokernels give
cohomology do (the SS difference map and the tree-ball boundary), and is a
matrix on ambient generators.  Its kernel and cokernel are read off one
elimination of its image rows stacked on the target relations: the rows its
carried transform leaves zero give the kernel, and the cokernel keeps its
pivot rows as they are.  Reduced above their pivots, which happens only when
the cokernel's relations are first read, they are its Howell relations.  A
plain matrix's left kernel and cokernel come the same way from one
elimination of its rows (left_kernel_cokernel).  A module's size reads only
its pivots, and so does its iso class when every pivot is 1, as over a prime
n.  Other iso classes come from a Smith form mod n that starts from the
Howell relations: rows with a unit pivot drop out with their pivot column,
and only the rest is eliminated, by the same pivot rule and the same split,
with the orders of the parts joined by CRT.  All values are immutable after
construction (a cokernel reduces its relations once, on first read, and
keeps them), and every operation is a pure function, so instances can be
shared freely.  No operation writes to a row it was given: rows are shared,
not copied.

Matrices are held as sparse rows, {column: value} maps of the nonzero
entries, and every path reads supports, never the full width: the Howell
engine keeps rows in buckets keyed by their leading column, transposes and
images walk the nonzero entries, and sizes and iso classes read the
pivots, each the least column of its row.  The engine builds no row that
it would read once: it works on the caller's rows as they are, copying a
row only to write to it, and carries the kernel transform sparse and
apart from the rows, built only for a row that is scaled or combined.  So
a tree-ball boundary, its image rows two nonzeros each, costs one pass
over its nonzeros: with its vertices numbered leaves first it has no fill,
and its elimination writes nothing.  The dense view of a matrix, and a
map's matrix beside its image rows, are built on demand.
"""

from bisect import insort
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod


class BanalityViolation(ValueError):
    """The modulus collides with p or with (q-1)^2(q+1)."""


class BadSqrt(ValueError):
    """Claimed square root of q fails sqrt_q^2 = q mod n."""


# Miller-Rabin to the first 13 prime bases is deterministic below
# _MR_BOUND = 3317044064679887385961981, the least composite that passes
# (Sorenson and Webster, Math. Comp. 86, 2017); from there on _is_prime
# adds a strong Lucas test, which that composite fails
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Miller-Rabin to _MR_BASES, for n > 41 with no factor among them:
    a proof below _MR_BOUND.  From _MR_BOUND on, a strong Lucas test
    follows, which makes it the Baillie-PSW test: no composite is known to
    pass it, though none is proved not to."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _is_strong_lucas_prp(n)


def _jacobi(a, n):
    # the Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _is_strong_lucas_prp(n):
    """Strong Lucas probable-prime test of the odd n > 41 with Selfridge's
    parameters (Baillie and Wagstaff, Math. Comp. 35, 1980): D the first
    of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.  With
    n + 1 = k * 2^s, k odd, n passes when U_k = 0 or V_(k * 2^r) = 0 mod n
    for some r < s."""
    if isqrt(n) ** 2 == n:
        return False  # no D would have (D/n) = -1
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1, and |D| < n
        d = -d - 2 if d > 0 else 2 - d
    q = (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1

    def half(x):
        return (x if x % 2 == 0 else x + n) // 2

    # U_m, V_m, Q^m mod n up the bits of k, from m = 1
    u, v, qm = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qm = u * v % n, (v * v - 2 * qm) % n, qm * qm % n
        if bit == "1":
            u, v = half((u + v) % n), half((d * u + v) % n)
            qm = qm * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qm = (v * v - 2 * qm) % n, qm * qm % n
        if v == 0:
            return True
    return False


def _rho(n):
    """A proper factor of the composite n, which has no factor among
    _MR_BASES, by Brent's variant of Pollard rho: the walk y -> y^2 + c
    from y = 2, gcds batched over 128 steps, c = 1, 2, ... until one
    splits n."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                done += 128
            r *= 2
        if g == n:
            # the batch overshot: step again from its start, one gcd each
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=None)
def _factor(n):
    """Pairs (l, l^e) over the primes l dividing n exactly e times, l
    ascending; () when n < 2.  Primes up to 41 are divided out, and the
    rest is split by Pollard rho into factors that _is_prime accepts:
    proved prime by Miller-Rabin below _MR_BOUND, about 3.3 * 10^24, and
    Baillie-PSW probable primes from there on.  Cached, so each modulus is
    factored once.  Its one caller is padic_core._unit_gens, which factors
    p - 1 for a residue characteristic p; the linear algebra over Z/n
    splits n by gcds and never factors it."""
    primes = []
    for d in _MR_BASES:
        while n > 1 and n % d == 0:
            n //= d
            primes.append(d)
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if _is_prime(m):
            primes.append(m)
        else:
            d = _rho(m)
            todo += [d, m // d]
    out = {}
    for l in sorted(primes):
        out[l] = out.get(l, 1) * l
    return tuple(out.items())


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
        if not isinstance(e, Fraction):
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


def _check_prime(p):
    """Raise BanalityViolation unless the residue characteristic p is
    prime, by _is_prime past _MR_BASES: p is never factored."""
    if p not in _MR_BASES and (p <= 41 or any(p % b == 0 for b in _MR_BASES)
                               or not _is_prime(p)):
        raise BanalityViolation(f"residue characteristic {p} is not prime")


def _check_banal(n, p):
    """Raise BanalityViolation unless p and (q-1)^2(q+1) are units mod n."""
    if gcd(n, p) != 1:
        raise BanalityViolation(f"gcd(n={n}, p={p}) != 1")
    bad = (p - 1) * (p - 1) * (p + 1)
    if gcd(n, bad) != 1:
        raise BanalityViolation(f"gcd(n={n}, (q-1)^2(q+1)={bad}) != 1")


def make_ring(n, p, sqrt_q=None):
    """Validate and build the coefficient ring Z/n for residue prime p."""
    if n < 2:
        raise BanalityViolation(f"modulus {n} too small")
    _check_prime(p)
    _check_banal(n, p)
    if sqrt_q is not None:
        if (sqrt_q * sqrt_q - p) % n != 0:
            raise BadSqrt(f"{sqrt_q}^2 != {p} mod {n}")
        sqrt_q %= n
    return CoeffRing(n, p, sqrt_q)


class LambdaMatrix:
    """Matrix over Z/n held as sparse rows.

    rows is a tuple of {column: value} maps, one per row, holding only the
    nonzero entries, each in [1, n), with columns ascending: a row of a
    Howell form leads with its pivot.  entries is the dense row-major view,
    built on first use.  Rows are shared, never mutated: the Howell engine
    works on them as they are and copies a row only to write to it, so a
    row may be one matrix's and another's, or a map's image and its
    cokernel's relation, at once.
    """

    __slots__ = ("ring", "rows", "cols", "_entries")

    def __init__(self, ring, entries, cols=None):
        """Rows are dense sequences or {column: value} maps, mixed freely;
        every value is reduced mod n.  With no dense row, cols is needed."""
        n = ring.n
        rows, width = [], None
        for r in entries:
            if isinstance(r, dict):
                rows.append({j: x for j in sorted(r) if (x := int(r[j]) % n)})
                continue
            r = [int(e) % n for e in r]
            if width is None:
                width = len(r)
                if cols is not None and cols != width:
                    raise ValueError(f"rows have {width} columns, not {cols}")
            elif len(r) != width:
                raise ValueError("ragged matrix")
            rows.append(_nonzero(r))
        if cols is None:
            if width is None:
                raise ValueError("empty matrix needs an explicit column count")
            cols = width
        if any(r and (next(iter(r)) < 0 or next(reversed(r)) >= cols)
               for r in rows):
            raise ValueError(f"a row has a column outside 0..{cols - 1}")
        self.ring = ring
        self.rows = tuple(rows)
        self.cols = cols
        self._entries = None

    @classmethod
    def _sparse(cls, ring, rows, cols):
        """Wrap rows that are already {column: value} maps in the stored
        form, without checking them."""
        m = object.__new__(cls)
        m.ring = ring
        m.rows = tuple(rows)
        m.cols = cols
        m._entries = None
        return m

    @classmethod
    def _reduced(cls, ring, rows, cols):
        """Wrap dense rows that are already tuples of entries in [0, n),
        each of length cols, without checking or reducing them again."""
        rows = tuple(rows)
        m = cls._sparse(ring, [_nonzero(r) for r in rows], cols)
        m._entries = rows
        return m

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def entries(self):
        if self._entries is None:
            self._entries = tuple(_dense(r, self.cols) for r in self.rows)
        return self._entries

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.rows):
            for j, x in r.items():
                out[j][i] = x
        return LambdaMatrix._sparse(self.ring, out, self.nrows)

    def __repr__(self):
        return f"LambdaMatrix({self.nrows}x{self.cols} mod {self.ring.n})"


def _dense(row, width):
    # a {column: value} map as a dense tuple
    out = [0] * width
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def _nonzero(row):
    # a dense row as the {column: value} map of its nonzero entries
    return {j: x for j, x in enumerate(row) if x}


def identity_matrix(ring, k):
    return LambdaMatrix._sparse(ring, [{i: 1} for i in range(k)], k)


# ----------------------------------------------------------- Howell engine

def _howell_engine(rows, n, width):
    """Howell form of the row span of rows over Z/n: the rows as maps,
    columns ascending.  rows are {column: value} maps with values in
    [1, n) and columns below width; they are neither reduced again nor
    written, and a row that needs no change may come back as it is."""
    out, pivots, _ = _eliminate(rows, n, width)
    if len(out) > 1:
        return _reduce_above(out, pivots, n)
    # a lone row has no other pivot to reduce above
    return [dict(sorted(r.items())) for r in out]


def _eliminate(rows, n, width, transform=False):
    """Echelon form of the row span of rows over Z/n, before the
    above-pivot reduction: (pivot rows, their pivot columns, kernel rows).

    rows are as for _howell_engine, and are never written: a pivot row
    that no step changed is the caller's own map.  The pivot rows are
    maps, columns in no order, each with its pivot, a divisor of n, as its
    least column, and they have the Howell property.  The kernel rows are
    empty unless transform is set: only then is the row transform carried,
    sparse and apart from the rows, and the transforms of the rows that
    become zero, as {input row: coefficient} maps, span
    {x : x * rows = 0}; they are not in Howell form.  An input zero row i
    gives the kernel row {i: 1}.  The pivot rows are the same with
    transform set or not.  One elimination so gives both the row span and
    the left kernel (Storjohann & Mulders).

    Where the pivot rule fails over Z/m, m splits into coprime m1 and
    m / m1 (_Split), and each part runs again, from the rows mod it, until
    the rule holds over every part q.  Kernel rows lift through e_q, 1 mod
    q and 0 mod n/q.  In a pivot column c, with d the product over q of
    the local pivot at c, or of q where there is none, the joined row is
    the sum of e_q * (d / pivot) times the local rows: its pivot is d, and
    mod q it is a unit times the local row, so each part's span and Howell
    property are kept.
    """
    try:
        return _eliminate_local(rows, n, width, transform)
    except _Split as split:
        todo = [split.args[0], n // split.args[0]]
    parts, zeros = [], []
    while todo:
        q = todo.pop()
        try:
            out, pivots, kern = _eliminate_local(
                [{k: y for k, x in r.items() if (y := x % q)} for r in rows],
                q, width, transform)
        except _Split as split:
            todo += [split.args[0], q // split.args[0]]
            continue
        e = n // q * pow(n // q, -1, q)  # 1 mod q, 0 mod n/q
        parts.append((q, e, dict(zip(pivots, out))))
        zeros += [{k: e * x % n for k, x in r.items()} for r in kern]
    out, pivots = [], sorted(set().union(*(at for _, _, at in parts)))
    for c in pivots:
        d = prod(at[c][c] if c in at else q for q, _, at in parts)
        row = {}
        for _, e, at in parts:
            for k, x in at.get(c, {}).items():
                row[k] = (row.get(k, 0) + e * (d // at[c][c]) * x) % n
        out.append(row)
    return out, pivots, zeros


class _Split(Exception):
    """Raised by _eliminate_local where the pivot rule fails over Z/m;
    args[0] is _split's m1."""


def _split(a, g, others, m):
    """1 when the pivot rule holds over Z/m: a / g is a unit mod m, g =
    gcd(a, m), and g divides every value of others.  Otherwise m1, a
    proper divisor of m prime to m / m1, found by gcds alone.  g must be
    the least gcd with m over others, so the split is proper.

    If h = gcd(a / g, m) > 1, each prime of h divides g to its full power
    in m, since a / g is prime to m / g, and m / g > 1 has a prime that h
    lacks: m1 is the part of m on the primes of h.  Otherwise, at the
    first b that g does not divide, some prime divides g more often than
    G = gcd(b, m), and, as G >= g, another divides G more often than g:
    m1 is the part of m on the primes of g / gcd(g, b), which hold the
    first prime and not the second.  The gcd of all of others would not
    do: over Z/72 the gcds 6, 9 and 8 have gcd 1, and 6 / 1 holds both
    primes of 72.  Over a prime power an entry of least gcd divides the
    others, and the rule always holds (dynamic evaluation: Della Dora,
    Dicrescenzo & Duval, EUROCAL 1985).
    """
    h = gcd(a // g, m)
    if h == 1:
        h = next((g // gcd(g, b) for b in others if b % g), 1)
    m1 = 1
    while (h := gcd(m // m1, h)) > 1:
        m1 *= h
    return m1


def _eliminate_local(rows, n, width, transform):
    """_eliminate over Z/n by one pivot rule; it raises _Split where the
    rule does not hold.

    Structured Gaussian elimination (LaMacchia & Odlyzko, CRYPTO 1990):
    rows wait in buckets keyed by their leading column, and each row a
    column eliminates is filed again under its new leading column, so no
    row is looked at where it is known to be zero.  A column's pivot is
    its first row with a unit entry, scaled to 1; over a prime n every
    nonzero entry is a unit.  With no unit entry, the pivot is the first
    row whose entry a has the least gcd g with n, scaled to g by the
    inverse of a / g, where _split finds that a / g is a unit and that g
    divides the column (Howell, 1986; Storjohann & Mulders, ESA
    1998).  So each other row b clears by b / g times the pivot row, and
    n / g times the pivot row is filed again, which gives the Howell
    property.

    Rows are held by number, the refiled ones numbered after the input.
    Row i's entries are the caller's own map until the first write to it,
    which copies it, and its transform is built only when the row is
    scaled or cleared: until then it stands for {i: 1}.  A column whose
    one row leads with 1, as every column of a tree-ball boundary does,
    so writes nothing; a _Split leaves the caller's rows as they were.
    """
    buckets, zeros = {}, []
    mats = list(rows)
    owned = [False] * len(mats)
    trans = [None] * len(mats)

    def times(c, row):
        return {k: y for k, x in row.items() if (y := c * x % n)}

    def subtract(row, c, support):
        # row -= c * support, in place, zeros dropped
        for k, x in support:
            if y := (row.get(k, 0) - c * x) % n:
                row[k] = y
            else:
                row.pop(k, None)

    def transform_of(i):
        t = trans[i]
        return {i: 1} if t is None else t

    def file(i):
        if row := mats[i]:
            c = min(row)
            if c in buckets:
                buckets[c].append(i)
            else:
                buckets[c] = [i]
        elif transform and (t := transform_of(i)):
            zeros.append(t)

    for i in range(len(mats)):
        file(i)

    out, pivots = [], []
    for col in range(width):
        if not buckets:
            break
        hits = buckets.pop(col, None)
        if hits is None:
            continue
        g = 1
        for pi in hits:
            if gcd(mats[pi][col], n) == 1:
                break
        else:
            pi = min(hits, key=lambda i: gcd(mats[i][col], n))
            g = gcd(mats[pi][col], n)
            if (m1 := _split(mats[pi][col], g,
                             (mats[i][col] for i in hits), n)) > 1:
                raise _Split(m1)
        piv = mats[pi]
        a = piv[col]
        if a != g:
            inv = pow(a // g, -1, n)
            piv = mats[pi] = times(inv, piv)
            owned[pi] = True
            if transform:
                trans[pi] = times(inv, transform_of(pi))
        if len(hits) > 1:
            support = [(k, x) for k, x in piv.items() if k != col]
            if transform:
                tsupport = list(transform_of(pi).items())
            for b in hits:
                if b == pi:
                    continue
                row = mats[b]
                if not owned[b]:
                    row = mats[b] = dict(row)
                    owned[b] = True
                c = row.pop(col) // g
                subtract(row, c, support)
                if transform:
                    trans[b] = transform_of(b)
                    subtract(trans[b], c, tsupport)
                file(b)
        if g > 1:
            mats.append(times(n // g, piv))
            owned.append(True)
            trans.append(times(n // g, transform_of(pi)) if transform
                         else None)
            file(len(mats) - 1)
        out.append(piv)
        pivots.append(col)
    return out, pivots, zeros


def _reduce_above(out, pivots, n):
    """Howell rows from the echelon rows of _eliminate: every entry above a
    pivot is brought into [0, pivot), columns ascending.  Each row of out
    is replaced by its reduced copy; a row is copied before its first
    write, so the rows themselves, which may be a caller's, are not.

    The reduction runs from the last row up, so each row is reduced by rows
    already reduced, and it visits only the pivot columns a row holds.  A
    reduced row holds no unit pivot's column, so subtracting it can bring
    back only the non-unit pivots' columns it holds, which it lists.
    """
    where = {c: k for k, c in enumerate(pivots)}
    comeback = [()] * len(out)
    for i in range(len(out) - 1, -1, -1):
        row = out[i]
        todo = sorted(c for c in row if c in where and c != pivots[i])
        t, copied = 0, False
        while t < len(todo):
            c = todo[t]
            t += 1
            x = row.get(c, 0)
            r = out[where[c]]
            d = r[c]
            if x < d:
                continue
            if not copied:
                row, copied = dict(row), True
            q = x // d
            if x - q * d:
                row[c] = x - q * d
            else:
                del row[c]
            for j, y in r.items():
                if j != c:
                    if z := (row.get(j, 0) - q * y) % n:
                        row[j] = z
                    else:
                        row.pop(j, None)
            for j in comeback[where[c]]:
                insort(todo, j, t)
        out[i] = row = dict(sorted(row.items()))
        comeback[i] = [c for c in row if c in where and c != pivots[i]]
    return out


def howell_form(m):
    """Unique Howell canonical representative of the row span of m."""
    return LambdaMatrix._sparse(
        m.ring, _howell_engine(m.rows, m.ring.n, m.cols), m.cols)


def left_kernel(m):
    """Howell basis of {x : x * m = 0}."""
    return left_kernel_cokernel(m)[0]


def left_kernel_cokernel(m):
    """Left kernel and cokernel of a plain matrix, both read off one
    elimination of its rows: (left_kernel(m), Lambda^cols / span(m)).

    The plain-matrix twin of kernel_cokernel.  The elimination's kernel
    rows, in Howell form, are left_kernel(m).  The cokernel keeps its pivot
    rows and pivot columns as they are; its relations reduce them above
    their pivots when first read, to howell_form(m), as
    quotient_module(free_module(ring, cols), m.rows) gives them.
    """
    ring, n = m.ring, m.ring.n
    out, pivots, zeros = _eliminate(m.rows, n, m.cols, transform=True)
    kern = LambdaMatrix._sparse(ring, _howell_engine(zeros, n, m.nrows),
                                m.nrows)
    return kern, FgModule._wrap(ring, m.cols, out, pivots)


# ----------------------------------------------------------------- modules

class FgModule:
    """Quotient of a free module Lambda^ambient by a row span, presented
    by its echelon rows: one per pivot, each with its pivot as its least
    column, and that pivot dividing n.

    relations is the Howell form of the span: the echelon rows reduced
    above their pivots, on first read, and kept.  The pivots alone fix the
    order, so size() and is_zero() never reduce, nor does iso_class when
    every pivot is 1.

    witness_rows, when present, are the vectors of an enclosing coordinate
    module that the generators of this abstract presentation came from
    (kernels keep them so callers can point at actual cycles).  For the
    closed-form fixed points of finite_rep that module is the cell module,
    not the model's point coordinates.
    """

    __slots__ = ("ring", "ambient", "witness_rows", "_rows", "_pivots",
                 "_relations")

    def __init__(self, ring, ambient, relations=None, witness_rows=None):
        if relations is None:
            relations = LambdaMatrix._sparse(ring, (), ambient)
        else:
            relations = howell_form(relations)
        if relations.cols != ambient:
            raise ValueError("relation width differs from ambient rank")
        self._fill(ring, ambient, relations.rows, None, witness_rows)

    @classmethod
    def _wrap(cls, ring, ambient, rows, pivots=None, witness_rows=None):
        """Wrap {column: value} rows below ambient without reducing them:
        Howell rows, or, with their pivot columns, the echelon rows of
        _eliminate, which relations reduces above their pivots on first
        read.  The rows are held, not copied, and may be a caller's own (a
        map's image rows that no pivot step changed): the reduction
        replaces the rows it changes by copies and never writes to one."""
        m = object.__new__(cls)
        m._fill(ring, ambient, rows, pivots, witness_rows)
        return m

    def _fill(self, ring, ambient, rows, pivots, witness_rows):
        self.ring = ring
        self.ambient = ambient
        self.witness_rows = witness_rows
        self._rows = rows
        if pivots is None:  # Howell rows, each leading with its pivot
            self._pivots = [next(iter(r)) for r in rows]
            self._relations = LambdaMatrix._sparse(ring, rows, ambient)
        else:
            self._pivots = pivots
            self._relations = None

    @property
    def relations(self):
        """Howell form of the relation span, reduced on first read into
        new maps where a row changes; no echelon row is written."""
        if self._relations is None:
            self._relations = LambdaMatrix._sparse(
                self.ring, _reduce_above(self._rows, self._pivots,
                                         self.ring.n),
                self.ambient)
        return self._relations

    def _pivot_values(self):
        # reducing above the pivots leaves the pivots as they are
        return [r[c] for r, c in zip(self._rows, self._pivots)]

    def size(self):
        # n^ambient / prod(n / pivot), exact since every pivot divides n
        return (self.ring.n ** (self.ambient - len(self._pivots))
                * prod(self._pivot_values()))

    def is_zero(self):
        return self.size() == 1

    def __repr__(self):
        return f"FgModule(ambient={self.ambient}, iso={iso_class(self)})"


def free_module(ring, k):
    return FgModule(ring, k)


def quotient_module(module, rows):
    """Quotient of an FgModule by extra ambient relation rows: dense rows or
    {column: value} maps, as image_rows() gives them, reduced mod n."""
    ring, k = module.ring, module.ambient
    extra = LambdaMatrix(ring, rows, cols=k)
    return FgModule(ring, k, LambdaMatrix._sparse(
        ring, module.relations.rows + extra.rows, k))


class ModuleMap:
    """Map from a free FgModule into any FgModule.

    matrix rows are indexed by target generators, columns by source
    generators: source generator j goes to column j.  A free source has no
    relations to carry, so every matrix of the right shape is a map.  The
    map is held by its image rows, one per source generator, which is what
    its kernel and cokernel read; the matrix is their transpose, built on
    first read.
    """

    __slots__ = ("source", "target", "_matrix", "_images")

    def __init__(self, source, target, matrix):
        if source._pivots:
            raise ValueError("a map's source must be free")
        if matrix.nrows != target.ambient or matrix.cols != source.ambient:
            raise ValueError("matrix shape does not match source/target")
        self.source = source
        self.target = target
        self._matrix = matrix
        self._images = matrix.transpose().rows

    @classmethod
    def _of_images(cls, source, target, images):
        """The map from the free source sending generator j to images[j], a
        {column: value} map below target.ambient with values in [1, n) and
        columns ascending, without checking them."""
        f = object.__new__(cls)
        f.source = source
        f.target = target
        f._matrix = None
        f._images = tuple(images)
        return f

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = LambdaMatrix._sparse(
                self.target.ring, self._images, self.target.ambient
            ).transpose()
        return self._matrix

    def image_rows(self):
        """Images of the source generators, as target-ambient rows: one
        {column: value} map per generator."""
        return self._images


def _present_span(ring, ambient, gen_rows):
    """span(gen_rows) presented on the given generators, all of them
    {column: value} maps; gen_rows are Howell rows.

    With every pivot 1, the generators are independent: x * gen_rows is
    x_i at the pivot of the first row i with x_i != 0.  So there are no
    relations, and no elimination runs.  Otherwise the relations are
    left_kernel's rows, already in Howell form, and kept as they are."""
    rel = ()
    if any(next(iter(r.values())) != 1 for r in gen_rows):
        rel = left_kernel(LambdaMatrix._sparse(ring, gen_rows, ambient)).rows
    return FgModule._wrap(ring, len(gen_rows), rel, witness_rows=tuple(
        _dense(r, ambient) for r in gen_rows))


def _eliminate_map(f):
    # f's image rows stacked on its target relations, eliminated with the
    # transform carried: the kernel rows are the relations among them
    return _eliminate(list(f.image_rows()) + list(f.target.relations.rows),
                      f.target.ring.n, f.target.ambient, transform=True)


def kernel(f):
    """Kernel of a ModuleMap as an abstract FgModule with witness rows:
    the Howell rows of {x : f(x) = 0 in target}."""
    return kernel_cokernel(f)[0]


def kernel_cokernel(f):
    """Kernel and cokernel of a ModuleMap, both read off one elimination of
    f's image rows stacked on the target relations.

    The kernel rows of that elimination, cut to their source coordinates,
    span {x : f(x) = 0 in target}; their Howell rows present the kernel,
    with themselves as witness rows.  The cokernel keeps the pivot rows
    and pivot columns as they are: its size, and its iso class when every
    pivot is 1, read only the pivots.  Its relations reduce the pivot rows
    above their pivots when first read, to the Howell form of the image
    plus the target relations, as quotient_module(f.target, f.image_rows())
    gives them.
    """
    out, pivots, zeros = _eliminate_map(f)
    ring, k = f.source.ring, f.source.ambient
    rows = _howell_engine([{j: x for j, x in r.items() if j < k}
                           for r in zeros], ring.n, k)
    return (_present_span(ring, k, rows),
            FgModule._wrap(ring, f.target.ambient, out, pivots))


# --------------------------------------------------- Smith form, iso classes

def _smith(rows, width, m):
    """Smith form over Z/m of {column: value} rows over Z/n, m | n, spread
    over width columns: the orders of the cyclic summands, one per column,
    m where no pivot lands, ascending, each dividing the next.

    The pivot is an entry of least gcd g with m.  When _split finds that
    it is g times a unit and that g divides every entry of its block, it
    clears its column by row steps and its row by column steps, with no
    divisibility sweep, and every later pivot is a multiple of g.  The
    column steps change only the pivot row, which is then dropped, so they
    need not be carried out.  The pivot is left as g times a unit, which
    spans the same ideal as g.  Where the rule fails, m = m1 * (m / m1),
    coprime, and the two parts' orders multiply column by column (CRT).
    """
    a = [{j: y for j, x in r.items() if (y := x % m)} for r in rows]
    orders = []
    while True:
        best = min(((gcd(x, m), i, j) for i, r in enumerate(a)
                    for j, x in r.items()), default=None)
        if best is None:
            return orders + [m] * (width - len(orders))
        g, i, j = best
        if g > 1 and (m1 := _split(
                a[i][j], g, (x for r in a for x in r.values()), m)) > 1:
            return [x * y for x, y in zip(_smith(rows, width, m1),
                                          _smith(rows, width, m // m1))]
        piv = a.pop(i)
        inv = pow(piv[j] // g, -1, m)
        # x = s * piv[j] mod m for each other entry x of the pivot row
        steps = [(c, x // g * inv % m) for c, x in piv.items() if c != j]
        for r in a:
            if rj := r.pop(j, 0):
                for c, s in steps:
                    if y := (r.get(c, 0) - rj * s) % m:
                        r[c] = y
                    else:
                        r.pop(c, None)
        orders.append(g)


def iso_class(module):
    """Invariant factors (> 1) of the module, largest first, from its
    pivots and, past them, its Howell relations.

    A Howell row whose pivot is 1 has its pivot column zero in every other
    row, so the row and that column drop out together: the row rewrites
    its pivot generator in terms of the others.  When every pivot is 1, as
    over a prime n, the answer is [n] * (ambient - pivots), read off the
    pivots alone, with no reduction above them and no elimination.
    Otherwise the relations are read, and their rows with other pivots
    are put in Smith form over Z/n, on their supports, split by gcds into
    coprime parts where the pivot rule fails; the orders, largest first,
    are the invariant factors.
    """
    n = module.ring.n
    pivots = module._pivot_values()
    if all(d == 1 for d in pivots):
        return [n] * (module.ambient - len(pivots)) if n > 1 else []
    rest = [r for r in module.relations.rows   # each leads with its pivot
            if next(iter(r.values())) != 1]
    width = module.ambient - len(pivots) + len(rest)
    return [f for f in reversed(_smith(rest, width, n)) if f > 1]
