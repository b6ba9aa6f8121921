"""Finite-level p-adic projective line and orbit sweeps on it.

A point of P^1(O/pi^m) is its index (see the codec below): [1:t] when the
first coordinate can lead and [s:1] with p | s otherwise, with t and s
exact residues mod p^m, so equality is plain comparison.  Group elements
are plain 2x2 integer matrices in GL2(O): integral with a unit
determinant, they map every primitive lift to a primitive one and so act
on the level-m points by residue arithmetic mod p^m alone.  Orbits are
merged by a union-find with path halving, run inline over one generator's
images at a time; one table of unit inverses, built per orbits() call
from powers of the unit generators, serves every generator.  Generator
inverses are never applied because the image of each generator in the
finite quotient has finite order.  The depth-k classification sweeps
level 2k alone and projects the level below.
"""

from itertools import chain, count, islice

from .lambda_core import _factor


class UnsupportedSubgroup(ValueError):
    """No generator recipe for this subgroup name."""


class ClassificationMismatch(RuntimeError):
    """Computed orbit partition contradicts the closed-form description."""


# ------------------------------------------------------------ point codec
#
# The level-m points are the integers 0 <= i < p1_size(p, m): [1:t] is t
# for 0 <= t < p^m, and [s:1], p | s, is p^m + s/p.  So the big cell comes
# first and each cell runs in residue order; every block, table and sweep
# below is indexed this way.

def p1_size(p, m):
    """Point count p^m + p^(m-1) of P^1(O/pi^m)."""
    md = p ** m
    return md + md // p


def point_label(p, m, i):
    """The level-m point of index i as "[1:t]" or "[s:1]"."""
    md = p ** m
    return f"[1:{i}]" if i < md else f"[{(i - md) * p}:1]"


def project(p, m, level):
    """Index at level <= m of every level-m point, in index order."""
    md, ml = p ** m, p ** level
    return ([t % ml for t in range(md)]
            + [ml + s % ml // p for s in range(0, md, p)])


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


def _unit_gens(p, m):
    # generators of (Z/p^m)^*, independent: none when it is trivial
    # (p^m <= 2); cyclic for odd p; {-1} x <5> for p=2, m >= 3
    if p ** m <= 2:
        return []
    if p == 2:
        return [3] if m == 2 else [2 ** m - 1, 5]
    md = p ** m
    phi = (p - 1) * p ** (m - 1)
    facs = [r for r, _ in _factor(phi)]
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


def orbit_count_formula(p, k):
    """Two end orbits plus the graded middle strata."""
    return 2 + sum(
        (p - 1) * p ** (min(k + i, k - i) - 1) for i in range(-k + 1, k))


def orbit_classification_check(k, p, n):
    """Cross-check depth-k congruence orbits against the closed form.

    Sweeps the one level 2k.  Projection to level 2k-1 commutes with the
    action and is onto, so the level-(2k-1) orbits are the distinct
    projections of the level-2k ones, each taken as a set; that partition
    is projected, not swept.  Verifies, in order: the partition count is
    already stable between levels 2k-1 and 2k (distinct level-2k blocks
    project to distinct blocks); the count matches the closed form; the
    orbit of [0:1] is the depth-k disc around infinity; the orbit of [1:0]
    is the depth-k disc around zero.  Raises ClassificationMismatch naming
    the first clause that fails.  n tags the report; the partition itself
    does not depend on it.  Raises ValueError when k < 1.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    m = 2 * k
    part = orbits(SubgroupSpec("Gamma_k", k=k), m, p=p)
    down = project(p, m, m - 1)
    if len({frozenset(map(down.__getitem__, b)) for b in part}) != len(part):
        raise ClassificationMismatch(
            "orbit count changes between levels 2k-1 and 2k")
    expected = orbit_count_formula(p, k)
    if len(part) != expected:
        raise ClassificationMismatch("orbit count disagrees with closed form")
    md, step = p ** m, p ** k
    # blocks list their points in index order and each disc's centre is its
    # least point, so a block equal to a disc starts with its centre: [0:1]
    # at index md, its disc the [s:1] with p^k | s; [1:0] at index 0
    inf_block = next((b for b in part if b[0] == md), ())
    if set(inf_block) != set(range(md, md + md // p, step // p)):
        raise ClassificationMismatch("infinity orbit is not the depth-k disc")
    zero_block = next((b for b in part if b[0] == 0), ())
    if set(zero_block) != set(range(0, md, step)):
        raise ClassificationMismatch("zero orbit is not the depth-k disc")
    return {
        "k": k,
        "m": m,
        "p": p,
        "n": n,
        "orbit_count": len(part),
        "formula_count": expected,
        "orbits": [{"rep": point_label(p, m, b[0]), "size": len(b)}
                   for b in part],
    }

