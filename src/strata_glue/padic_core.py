"""Finite-level p-adic projective line and orbit sweeps on it.

A point of P^1(O/pi^m) is stored in canonical affine form, [1:t] when the
first coordinate can lead and [s:1] with p | s otherwise, with t and s
exact residues mod p^m, so equality is plain comparison.  Group elements
are plain 2x2 integer matrices in GL2(O): integral with a unit
determinant, they map every primitive lift to a primitive one and so act
on the level-m points by residue arithmetic mod p^m alone.  Orbits are
merged by a union-find with path halving, run inline over one generator's
images at a time; one table of unit inverses, built per orbits() call,
serves every generator.  Generator inverses are never applied because
the image of each generator in the finite quotient has finite order.
"""

from itertools import count, islice


class PrecisionExhausted(ArithmeticError):
    """Requested level cannot be certified from the available precision.

    needed is the level that was asked for, available the deepest level
    the precision at hand certifies.
    """

    def __init__(self, message, needed=None, available=None):
        super().__init__(message)
        self.needed = needed
        self.available = available


class UnsupportedSubgroup(ValueError):
    """No generator recipe for this subgroup name."""


class ClassificationMismatch(RuntimeError):
    """Computed orbit partition contradicts the closed-form description."""


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


# --------------------------------------------------------------- subgroups

class SubgroupSpec:
    """Names one of the supported subgroups; k is the congruence depth for
    the principal families.  It carries no level: subgroup_generators and
    orbits take the working level m from their caller, and
    finite_rep.fixed_points takes it from the model."""

    __slots__ = ("kind", "k")

    def __init__(self, kind, k=None):
        self.kind = kind
        self.k = k

    def __repr__(self):
        extra = "" if self.k is None else f", k={self.k}"
        return f"SubgroupSpec({self.kind!r}{extra})"


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


def subgroup_generators(spec, p, m):
    """A generating set of the named subgroup of GL2(O), as plain 2x2
    integer matrices ((a, b), (c, d)), for its image at level m.

    The kinds are U = SL2(O), Gamma0 (c = 0 mod pi), and the principal
    congruence families Gamma_k and K_m; any other kind raises
    UnsupportedSubgroup.  The caller passes the working level m: unit
    parameters are taken mod p^m, so the generated image is only
    meaningful at levels up to m.  Gamma_k and K_m get one generating set
    each, not one set per depth lev in [k, m): the unipotent at depth lev
    is the p^(lev-k)-th power of the one at depth k, and 1 + p^k generates
    1 + p^k Z_p when p is odd or k >= 2, so for k >= 1 the depth-k
    generators suffice, with those at depth 2 added when p = 2 and k = 1
    (1 + 2 Z_2 needs 5 as well as 3).  At k = 0 the groups
    are SL2(O), generated by the two elementary unipotents, and GL2(O),
    which adds diag(u, 1) for each generator u of the units mod p^m.
    """
    kind, k = spec.kind, spec.k
    if kind == "U":
        return [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    if kind == "Gamma0":
        gens = [((1, 1), (0, 1)), ((1, 0), (p, 1))]
        for u in _unit_gens(p, m):
            gens.append(((u, 0), (0, 1)))
            gens.append(((1, 0), (0, u)))
        return gens
    if kind in ("Gamma_k", "K_m"):
        if k == 0:
            gens = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
            if kind == "K_m":
                gens += [((u, 0), (0, 1)) for u in _unit_gens(p, m)]
            return gens
        # the depths whose generators are kept; see above
        if p == 2 and k == 1:
            depths = range(1, min(m, 3))
        else:
            depths = range(k, min(m, k + 1))
        gens = []
        for lev in depths:
            u = 1 + p ** lev
            gens.append(((1, p ** lev), (0, 1)))
            gens.append(((1, 0), (p ** lev, 1)))
            if kind == "Gamma_k":
                gens.append(((u, 0), (0, pow(u, -1, p ** m))))
            else:
                gens.append(((u, 0), (0, 1)))
                gens.append(((1, 0), (0, u)))
        return gens
    raise UnsupportedSubgroup(kind)


# ------------------------------------------------------------------ orbits

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
    one coordinate is a unit and the ratio is exact mod p^m.  inv is
    _unit_inverses(p, m).  Along each cell the lifts step by (0, 1) or
    (p, 0), so their images step by (c, d) or (p*a, p*b).
    """
    md = p ** m
    (a, b), (c, d) = [[x % md for x in row] for row in g]
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
    """Yield the index at level m and the torus valuations of
    x * diag(1, pi^-1) for every level-(m+1) point x in enumerate_p1 order.

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

    The caller's m is the one working level: the generators are those of
    subgroup_generators(spec, p, m).  Every generator lies in GL2(O) and
    acts on the level-m points by residue arithmetic mod p^m
    (_integral_images); every point feeds one union per generator, and
    union-find closes the relation symmetrically.  One table of unit
    inverses mod p^m, built per call, serves every generator, and the
    images of one generator are merged before the next one's are made.
    Blocks list their points in enumerate_p1 order and
    come in the order of their first points.  Raises ValueError when
    m < 1, where no residue is a unit, and UnsupportedSubgroup for a kind
    that subgroup_generators does not know.
    """
    if m < 1:
        raise ValueError("orbits need level at least 1")
    gens = subgroup_generators(spec, p, m)
    base = enumerate_p1(p, m)
    parent = list(range(len(base)))
    inv = _unit_inverses(p, m)
    for g in gens:
        # union-find with path halving, inlined (the chained assignment
        # sets parent[i] before i moves); the root of each class is its
        # least index
        for i, j in enumerate(_integral_images(g, p, m, inv)):
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
        parts[m] = orbits(SubgroupSpec("Gamma_k", k=k), m, p=p)
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

