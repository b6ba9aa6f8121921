"""Finite-level p-adic projective line with explicit precision tracking.

Coordinates are truncated Laurent numbers a*p^w whose value is known modulo
p^prec and nothing finer.  Group elements always have exact entries; only
point coordinates carry finite precision, which the action consumes when it
divides by a pivot of positive valuation.  When a pivot cannot be identified
or a residue cannot be certified at the requested level, the action refuses
with PrecisionExhausted instead of guessing.

Points are stored in canonical affine form, [1:t] when the first coordinate
can lead and [s:1] with v(s) >= 1 otherwise, so equality is plain field
comparison.  Orbits are merged at the working level m by a union-find with
path halving, run inline over one generator's images at a time, from two
sweeps: generators in GL2(O) (integral, unit determinant) act on the
level-m points by plain residue arithmetic mod p^m, reading one table of
unit inverses built per orbits() call, and every other generator goes
through act() at a raised internal level, which certifies each image or
raises PrecisionExhausted.  Generator inverses are never applied because
the image of each generator in the finite quotient has finite order.
"""

import json
from itertools import count, islice

INF = 10 ** 9  # absolute-precision sentinel for exactly known values


class PrecisionExhausted(ArithmeticError):
    """Requested level cannot be certified from the available precision."""


class UnsupportedSubgroup(ValueError):
    """No generator recipe for this subgroup name."""


class ClassificationMismatch(RuntimeError):
    """Computed orbit partition contradicts the closed-form description."""


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
            raise PrecisionExhausted("cannot refine a point to a finer level")
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


def enumerate_p1(p, m):
    """All canonical points at level m, in canonical order."""
    pts = [ProjPoint.big_cell(p, m, t) for t in range(p ** m)]
    pts += [ProjPoint.inf_cell(p, m, s) for s in range(0, p ** m, p)]
    return pts


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


# --------------------------------------------------------------- subgroups

class SubgroupSpec:
    """Names one of the supported subgroups at a working level m.

    k is the congruence depth for the principal families, j the depth of
    the pole for the one-parameter unipotent line.
    """

    __slots__ = ("kind", "m", "k", "j")

    def __init__(self, kind, m, k=None, j=None):
        self.kind = kind
        self.m = m
        self.k = k
        self.j = j

    def __repr__(self):
        extra = "".join(f", {f}={v}" for f, v in (("k", self.k), ("j", self.j))
                        if v is not None)
        return f"SubgroupSpec({self.kind!r}, m={self.m}{extra})"


def _prime_factors(x):
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


def _unit_gens(p, m):
    # generators of (Z/p^m)^*: cyclic for odd p; {-1} x <5> for p=2, m >= 3
    if p == 2:
        if m == 1:
            return []
        if m == 2:
            return [3]
        return [2 ** m - 1, 5]
    md = p ** m
    phi = (p - 1) * p ** (m - 1)
    facs = _prime_factors(phi)
    g = 2
    while True:
        if g % p and all(pow(g, phi // r, md) != 1 for r in facs):
            return [g]
        g += 1


def subgroup_generators(spec, p):
    """A generating set of the named subgroup, as matrices with exact
    entries.

    Unit parameters are taken mod p^spec.m, so the generated image is only
    meaningful at levels up to m.  Gamma_k and K_m get one generating set
    each, not one set per depth lev in [k, m): the unipotent at depth lev
    is the p^(lev-k)-th power of the one at depth k, and 1 + p^k generates
    1 + p^k Z_p when p is odd or k >= 2, so for k >= 1 the depth-k
    generators suffice, with those at depth 2 added when p = 2 and k = 1
    (1 + 2 Z_2 needs 5 as well as 3).  At k = 0 the groups are SL2(O),
    generated by the two elementary unipotents, and GL2(O), which adds
    diag(u, 1) for each generator u of the units mod p^m.
    """
    m, k, j = spec.m, spec.k, spec.j
    kind = spec.kind
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
    if kind in ("Gamma_k", "K_m"):
        if k == 0:
            gens = [elem_upper(p, 1), elem_lower(p, 1)]
            if kind == "K_m":
                gens += [laurent_matrix(p, [[u, 0], [0, 1]])
                         for u in _unit_gens(p, m)]
            return gens
        # the depths whose generators are kept; see above
        if p == 2 and k == 1:
            depths = range(1, min(m, 3))
        else:
            depths = range(k, min(m, k + 1))
        gens = []
        for lev in depths:
            u = 1 + p ** lev
            gens.append(elem_upper(p, 1, lev))
            gens.append(elem_lower(p, 1, lev))
            if kind == "Gamma_k":
                gens.append(laurent_matrix(
                    p, [[u, 0], [0, pow(u, -1, p ** m)]]))
            else:
                gens.append(laurent_matrix(p, [[u, 0], [0, 1]]))
                gens.append(laurent_matrix(p, [[1, 0], [0, u]]))
        return gens
    if kind == "N_j":
        return [elem_upper(p, 1, -j)]
    if kind == "T":
        gens = [diag_matrix(p, 1, 0), diag_matrix(p, 0, 1)]
        for u in _unit_gens(p, m):
            gens.append(laurent_matrix(p, [[u, 0], [0, 1]]))
            gens.append(laurent_matrix(p, [[1, 0], [0, u]]))
        return gens
    if kind == "Ts":
        md = p ** m
        gens = [diag_matrix(p, 1, -1)]
        for u in _unit_gens(p, m):
            gens.append(laurent_matrix(p, [[u, 0], [0, pow(u, -1, md)]]))
        return gens
    if kind == "eta":
        return [diag_matrix(p, 0, 1)]
    if kind == "B":
        return subgroup_generators(SubgroupSpec("T", m=m), p) + [elem_upper(p, 1)]
    raise UnsupportedSubgroup(kind)


# ------------------------------------------------------------------ orbits

def _in_gl2_o(g):
    # integral with a unit determinant: acts on P^1(O/pi^m) for every m
    det = g.det()
    return g.maxneg() == 0 and det.a != 0 and det.w == 0


def _unit_inverses(p, m):
    """inv[u] = u^-1 mod p^m for every unit u < p^m; 0 at the non-units."""
    md = p ** m
    inv = [0] * md
    for u in range(1, md):
        if u % p:
            inv[u] = pow(u, -1, md)
    return inv


def _integral_images(g, p, m, inv):
    """Index of x*g for every level-m point x, in enumerate_p1 order.

    [1:t] has index t and [s:1] index p^m + s//p.  g must lie in GL2(O):
    it maps the primitive lift (1, t) or (s, 1) to a primitive (c1, c2), so
    one coordinate is a unit and the ratio is exact mod p^m; this is what
    act(x, g, m) returns.  inv is _unit_inverses(p, m).  Along each cell
    the lifts step by (0, 1) or (p, 0), so their images step by (c, d) or
    (p*a, p*b).
    """
    md = p ** m
    (a, b), (c, d) = g.int_entries(m)
    out = []
    for c1, dc1, c2, dc2, size in ((a, c, b, d, md),
                                   (c, p * a, d, p * b, md // p)):
        for c1, c2 in zip(islice(count(c1, dc1), size), count(c2, dc2)):
            c1 %= md
            if c1 % p:
                out.append(c2 * inv[c1] % md)
            else:
                out.append(md + c1 * inv[c2 % md] % md // p)
    return out


def _eta_inv_images(p, m):
    """Yield the index at level m and the torus_vals of x * diag(1, pi^-1),
    as act() gives them, for every level-(m+1) point x in enumerate_p1
    order.

    [1:t] goes to [1:t/p] with torus_vals (-1, 0) when p | t, and to
    [p/t:1] with (0, -1) when t is a unit; [s:1] goes to [p*s:1] with
    (0, -1).
    """
    md = p ** m
    inv = _unit_inverses(p, m)
    for t in range(p * md):
        if t % p == 0:
            yield t // p, (-1, 0)
        else:
            yield md + p * inv[t % md] % md // p, (0, -1)
    for s in range(0, p * md, p):
        yield md + p * s % md // p, (0, -1)


def orbits(spec, m, p):
    """Partition of P^1(O/pi^m) into orbits of the named subgroup.

    Every point feeds one union per generator, and union-find closes the
    relation symmetrically.  Two sweeps share the work.  A generator in
    GL2(O) acts on the level-m points themselves, by residue arithmetic mod
    p^m (_integral_images).  One table of unit inverses mod p^m, built per
    call, serves every such generator, and the images of one generator are
    merged before the next one's are made.  Every other generator, one with
    a pole or with a non-unit determinant, goes through act() on each point
    of a raised internal level L: L exceeds m by twice the pole depth plus
    slack, and act() raises PrecisionExhausted where even that cannot
    certify the image at level m.  Blocks list their points in enumerate_p1
    order and come in the order of their first points.
    """
    gens = subgroup_generators(spec, p)
    base = enumerate_p1(p, m)
    parent = list(range(len(base)))

    def merge(pairs):
        # union-find with path halving, inlined in one loop per sweep (the
        # chained assignment sets parent[i] before i moves); the root of
        # each class is its least index
        for i, j in pairs:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i < j:
                parent[j] = i
            elif j < i:
                parent[i] = j

    inv = _unit_inverses(p, m)
    rest = []
    for g in gens:
        # at level 0 no residue is a unit, and act() alone decides
        if m >= 1 and _in_gl2_o(g):
            merge(enumerate(_integral_images(g, p, m, inv)))
        else:
            rest.append(g)
    if rest:
        depth = max(g.maxneg() for g in rest)
        internal = m if depth == 0 else m + 2 * depth + 2
        index = {x: i for i, x in enumerate(base)}
        merge((index[x.project(m)], index[act(x, g, m)[0]])
              for x in enumerate_p1(p, internal) for g in rest)

    # parents point to lesser indices, so in index order the parent's
    # parent is already the root
    blocks = {}
    for i, x in enumerate(base):
        parent[i] = r = parent[parent[i]]
        blocks.setdefault(r, []).append(x)
    return [tuple(b) for b in blocks.values()]


def orbit_count_formula(p, k):
    """Two end orbits plus the graded middle strata."""
    return 2 + sum(
        (p - 1) * p ** (min(k + i, k - i) - 1) for i in range(-k + 1, k))


def orbit_classification_check(k, p, n):
    """Cross-check depth-k congruence orbits against the closed form.

    Verifies, in order: the partition count is already stable between
    levels 2k-1 and 2k; the count matches the closed form; the orbit of
    [0:1] is the depth-k disc around infinity; the orbit of [1:0] is the
    depth-k disc around zero.  Raises ClassificationMismatch naming the
    first clause that fails.  n tags the report; the partition itself does
    not depend on it.  Raises ValueError when k < 1.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    parts = {}
    for m in (2 * k - 1, 2 * k):
        parts[m] = orbits(SubgroupSpec("Gamma_k", m=m, k=k), m, p=p)
    if len(parts[2 * k - 1]) != len(parts[2 * k]):
        raise ClassificationMismatch(
            "orbit count changes between levels 2k-1 and 2k")
    m = 2 * k
    part = parts[m]
    expected = orbit_count_formula(p, k)
    if len(part) != expected:
        raise ClassificationMismatch("orbit count disagrees with closed form")
    step = p ** k
    # blocks list their points in enumerate_p1 order and each disc's centre
    # is its least point, so a block equal to a disc starts with its centre
    inf = ProjPoint.inf_cell(p, m, 0)
    inf_block = next((b for b in part if b[0] == inf), ())
    if set(inf_block) != {ProjPoint.inf_cell(p, m, s)
                          for s in range(0, p ** m, step)}:
        raise ClassificationMismatch("infinity orbit is not the depth-k disc")
    zero = ProjPoint.big_cell(p, m, 0)
    zero_block = next((b for b in part if b[0] == zero), ())
    if set(zero_block) != {ProjPoint.big_cell(p, m, t)
                           for t in range(0, p ** m, step)}:
        raise ClassificationMismatch("zero orbit is not the depth-k disc")
    return {
        "k": k,
        "m": m,
        "p": p,
        "n": n,
        "orbit_count": len(part),
        "formula_count": expected,
        "orbits": [{"rep": str(b[0]), "size": len(b)} for b in part],
    }


def orbit_report_json(rep):
    """Serialize the stable subset of a classification report."""
    keep = {f: rep[f] for f in ("k", "m", "orbit_count", "orbits")}
    return json.dumps(keep, sort_keys=True)
