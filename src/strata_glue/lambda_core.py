"""Exact linear algebra over Z/n.

Z/n is not a domain, so row reduction alone does not give canonical forms or
complete kernels.  The canonical representative used throughout is the Howell
form: unique per row span, closed under the annihilator rows that a composite
modulus introduces.  Modules are finitely generated quotients of free modules,
maps are matrices on ambient generators, and homology is computed by stacked
kernel solves.  All values are immutable after construction and every
operation is a pure function, so instances can be shared freely.
"""

from math import gcd


class BanalityViolation(ValueError):
    """The modulus collides with p or with (q-1)^2(q+1)."""


class BadSqrt(ValueError):
    """Claimed square root of q fails sqrt_q^2 = q mod n."""


class IllDefinedMap(ValueError):
    """Matrix does not carry source relations into target relations."""


class DegreeOutOfRange(ValueError):
    """Complex has no module at the requested degree."""


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class CoeffRing:
    """The coefficient ring Z/n with its residue characteristic bookkeeping."""

    __slots__ = ("n", "p", "q", "sqrt_q")

    def __init__(self, n, p, sqrt_q=None):
        self.n = n
        self.p = p
        self.q = p
        self.sqrt_q = sqrt_q

    def norm(self, x):
        return x % self.n

    def is_unit(self, x):
        return gcd(x % self.n, self.n) == 1

    def inv(self, x):
        x = x % self.n
        if gcd(x, self.n) != 1:
            raise ZeroDivisionError(f"{x} is not a unit mod {self.n}")
        return pow(x, -1, self.n)

    def q_pow(self, e):
        """q^e mod n for any integer e; q is a unit by banality."""
        if e >= 0:
            return pow(self.q, e, self.n)
        return pow(self.inv(self.q), -e, self.n)

    def half_q_pow(self, e2):
        """q^(e2/2) mod n, e2 counted in half units.  Needs sqrt_q when odd."""
        if e2 % 2 == 0:
            return self.q_pow(e2 // 2)
        if self.sqrt_q is None:
            raise MissingSqrtQ("half-integral twist requires sqrt_q")
        s = self.sqrt_q if e2 > 0 else self.inv(self.sqrt_q)
        return pow(s, abs(e2), self.n)

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
    if not _is_prime(p):
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
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged matrix")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.ring = ring
        self.entries = rows
        self.cols = cols

    @property
    def nrows(self):
        return len(self.entries)

    def transpose(self):
        return LambdaMatrix(self.ring,
                            [[self.entries[i][j] for i in range(self.nrows)]
                             for j in range(self.cols)],
                            cols=self.nrows)

    def __repr__(self):
        return f"LambdaMatrix({self.nrows}x{self.cols} mod {self.ring.n})"


def identity_matrix(ring, k):
    return LambdaMatrix(ring, [[1 if i == j else 0 for j in range(k)]
                               for i in range(k)], cols=k)


def mat_mul(ring, a_rows, b_rows, b_cols):
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

    Returns the Howell rows as tuples.  With kernel set it returns instead
    rows spanning {x : x * rows = 0}, not in Howell form: only then is the
    row transform carried, and the above-pivot reduction, which cannot
    change the kernel, is skipped.  Rows are split into live and zero once;
    a live row is zero left of the current column, so each step touches
    only the columns from there on.  Pivots are normalized by _unit_scale
    and their annihilator multiples stay live, which gives the Howell
    property.
    """
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
            if piv[col] > 1:  # a unit pivot has no annihilator
                ann = n // piv[col]
                arow = [0] * col + [(ann * x) % n for x in piv[col:]]
                if any(arow[col + 1:width]):
                    rest.append(arow)
                elif kernel:
                    zeros.append(arow)
        live = rest

    if kernel:
        return [tuple(w[width:]) for w in zeros if any(w[width:])]
    # reduce entries above each pivot into [0, pivot)
    for i, row in enumerate(out):
        for k in range(i + 1, len(out)):
            c = pivots[k]
            q = row[c] // out[k][c]
            if q:
                row[c:] = [(x - q * y) % n for x, y in zip(row[c:], out[k][c:])]
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
    return LambdaMatrix(m.ring, _howell_engine(m.entries, m.ring.n, m.cols),
                        cols=m.cols)


def left_kernel(m):
    """Howell basis of {x : x * m = 0}."""
    krows = _howell_engine(m.entries, m.ring.n, m.cols, kernel=True)
    kh = _howell_engine(krows, m.ring.n, m.nrows)
    return LambdaMatrix(m.ring, kh, cols=m.nrows)


def in_span(v, hmat):
    """Membership of a vector in the row span of a Howell-form matrix."""
    return express_in_span(v, hmat) is not None


def express_in_span(v, hmat):
    """Coefficients c with c * hmat = v, or None.  hmat must be Howell form."""
    n = hmat.ring.n
    v = [e % n for e in v]
    coeffs = [0] * hmat.nrows
    for i, row in enumerate(hmat.entries):
        c = next(j for j in range(hmat.cols) if row[j] != 0)
        d = row[c]
        if v[c] % d != 0:
            return None
        q = v[c] // d
        coeffs[i] = q % n
        for j in range(hmat.cols):
            v[j] = (v[j] - q * row[j]) % n
    if any(v):
        return None
    return coeffs


# ----------------------------------------------------------------- modules

class FgModule:
    """Quotient of a free module Lambda^ambient by a Howell-form row span.

    witness_rows, when present, are ambient vectors of an enclosing module
    that the generators of this abstract presentation came from (kernels and
    homology keep them so callers can point at actual cycles).
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
        return in_span(v, self.relations)

    def size(self):
        span = 1
        for row in self.relations.entries:
            c = next(j for j in range(self.relations.cols) if row[j] != 0)
            span *= self.ring.n // row[c]
        return self.ring.n ** self.ambient // span

    def is_zero(self):
        return self.size() == 1

    def to_json(self):
        return {"ambient": self.ambient,
                "relations": [list(r) for r in self.relations.entries]}

    def __repr__(self):
        return f"FgModule(ambient={self.ambient}, iso={iso_class(self)})"


def free_module(ring, k):
    return FgModule(ring, k)


def quotient_module(module, rows):
    """Quotient of an FgModule by extra ambient relation rows."""
    allrows = list(module.relations.entries) + [list(r) for r in rows]
    return FgModule(module.ring, module.ambient,
                    LambdaMatrix(module.ring, allrows, cols=module.ambient))


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
        return [sum(row[j] * v[j] for j in range(len(v))) % n
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


def _submodule_rows(f):
    """Rows spanning {x : f(x) = 0 in target}, inside the source ambient."""
    ring = f.source.ring
    a = f.matrix.transpose()          # x * a = apply(x)
    stacked = list(a.entries) + list(f.target.relations.entries)
    kern = left_kernel(LambdaMatrix(ring, stacked, cols=a.cols))
    rows = [k[: f.source.ambient] for k in kern.entries]
    return _howell_engine(rows, ring.n, f.source.ambient)


def _present_subquotient(ring, ambient, gen_rows, mod_rows):
    """span(gen_rows)/span(mod_rows) presented on the given generators."""
    if not gen_rows:
        return FgModule(ring, 0, witness_rows=())
    stacked = list(gen_rows) + list(mod_rows)
    kern = left_kernel(LambdaMatrix(ring, stacked, cols=ambient))
    rel = [k[: len(gen_rows)] for k in kern.entries]
    return FgModule(ring, len(gen_rows),
                    LambdaMatrix(ring, rel, cols=len(gen_rows)) if rel
                    else None,
                    witness_rows=tuple(tuple(g) for g in gen_rows))


def kernel(f):
    """Kernel of a ModuleMap as an abstract FgModule with witness rows."""
    rows = _submodule_rows(f)
    return _present_subquotient(f.source.ring, f.source.ambient, rows,
                                f.source.relations.entries)


def homology(c, k):
    """ker(d_k)/im(d_{k-1}) at degree k of a BoundedComplex."""
    if k not in c.modules:
        raise DegreeOutOfRange(f"no module in degree {k}")
    mod = c.modules[k]
    ring = mod.ring
    if k in c.differentials:
        cycles = _submodule_rows(c.differentials[k])
    else:
        cycles = identity_matrix(ring, mod.ambient).entries
    boundaries = list(mod.relations.entries)
    if k - 1 in c.differentials:
        boundaries += c.differentials[k - 1].image_rows()
    return _present_subquotient(ring, mod.ambient, list(cycles), boundaries)


# --------------------------------------------------- Smith form, iso classes

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


def _presentation_stack(module):
    rows = [list(r) for r in module.relations.entries]
    n = module.ring.n
    for i in range(module.ambient):
        row = [0] * module.ambient
        row[i] = n
        rows.append(row)
    return rows


def iso_class(module):
    """Invariant factors (> 1) of the module, largest first."""
    if module.ambient == 0:
        return []
    factors, _, _ = _snf_with_colbasis(_presentation_stack(module), module.ambient)
    return sorted((f for f in factors if f > 1), reverse=True)


def module_isomorphism(m1, m2):
    """Explicit isomorphism between modules of equal iso_class, else None."""
    if m1.ring != m2.ring or iso_class(m1) != iso_class(m2):
        return None
    n = m1.ring.n
    f1, v1, _ = _snf_with_colbasis(_presentation_stack(m1), m1.ambient)
    f2, _, v2inv = _snf_with_colbasis(_presentation_stack(m2), m2.ambient)
    # pair coordinates carrying equal invariant factors > 1
    pos1 = sorted(range(m1.ambient), key=lambda i: -f1[i])
    pos2 = sorted(range(m2.ambient), key=lambda i: -f2[i])
    pairing = [[0] * m2.ambient for _ in range(m1.ambient)]
    for a, b in zip(pos1, pos2):
        if f1[a] > 1:
            pairing[a][b] = 1
    # x |-> ((x * v1) * pairing) * v2inv, assembled as one ambient matrix
    comp = mat_mul(m1.ring, v1, pairing, m2.ambient)
    comp = mat_mul(m1.ring, comp, v2inv, m2.ambient)
    mat = LambdaMatrix(m1.ring, comp, cols=m2.ambient).transpose()
    try:
        return ModuleMap(m1, m2, mat)
    except IllDefinedMap:
        return None
