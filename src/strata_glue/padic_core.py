"""Finite-level p-adic projective line and the depth-k orbit classification.

A point of P^1(O/pi^m) is its index (see the codec below): [1:t] when the
first coordinate can lead and [s:1] with p | s otherwise, with t and s
exact residues mod p^m, so equality is plain comparison.  Group elements
are plain 2x2 integer matrices in GL2(O).  The depth-k congruence orbits
on the level-2k line are not swept: they are proved on the generators to
be the fibres of the projection to level k, and those fibres are written
down as ranges of indices; tests/bruteforce.py keeps a union-find sweep
of the generators as the reference they are pinned against.  The
cross-check against the closed form reads those ranges and no point, so
it costs time in proportion to the p^k + p^(k-1) orbits, not to the
p^2k + p^(2k-1) points.
"""

from .lambda_core import _check_prime, _factor


class UnsupportedSubgroup(ValueError):
    """No generator recipe for this subgroup name."""


class ClassificationMismatch(RuntimeError):
    """Orbit partition contradicts the closed-form description."""


# ------------------------------------------------------------ point codec
#
# The level-m points are the integers 0 <= i < p1_size(p, m): [1:t] is t
# for 0 <= t < p^m, and [s:1], p | s, is p^m + s/p.  So the big cell comes
# first and each cell runs in residue order; every block and table below
# is indexed this way.

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
    # the images repeat along each cell: t % ml with period ml, and s % ml
    # over the s in range(0, md, p) with period max(ml, p), which the
    # ceiling division counts also at m = 0, where that range is s = 0
    period = max(ml, p)
    small = [ml + s % ml // p for s in range(0, period, p)]
    return list(range(ml)) * (md // ml) + small * -(-md // period)


# --------------------------------------------------------------- subgroups

class SubgroupSpec:
    """Names one of the supported subgroups; k is the congruence depth for
    the principal family.  It carries no level: subgroup_generators takes
    the working level m from its caller, and finite_rep.fixed_points takes
    it from the model."""

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

    The kinds are U = SL2(O), Gamma0 (c = 0 mod pi) and the principal
    congruence family Gamma_k, k >= 1; any other kind or depth raises
    UnsupportedSubgroup.  The caller passes the working level m: unit
    parameters are taken mod p^m, so the generated image is only
    meaningful at levels up to m.  Gamma_k gets one generating set, not
    one set per depth lev in [k, m): the unipotent at depth lev is the
    p^(lev-k)-th power of the one at depth k, and 1 + p^k generates
    1 + p^k Z_p when p is odd or k >= 2, so the depth-k generators
    suffice, with those at depth 2 added when p = 2 and k = 1 (1 + 2 Z_2
    needs 5 as well as 3).
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
    if kind == "Gamma_k":
        if k < 1:
            raise UnsupportedSubgroup(f"Gamma_k at depth {k}")
        # the depths whose generators are kept; see above
        top = 3 if p == 2 and k == 1 else k + 1
        gens = []
        for lev in range(k, min(m, top)):
            u = 1 + p ** lev
            gens.append(((1, p ** lev), (0, 1)))
            gens.append(((1, 0), (p ** lev, 1)))
            gens.append(((u, 0), (0, pow(u, -1, p ** m))))
        return gens
    raise UnsupportedSubgroup(kind)


# ------------------------------------------------------------------ orbits

def orbit_count_formula(p, k):
    """Two end orbits plus the graded middle strata."""
    return 2 + sum(
        (p - 1) * p ** (min(k + i, k - i) - 1) for i in range(-k + 1, k))


def _fibres(p, k):
    """The fibres of project(p, 2k, k), as ranges of level-2k indices in
    the order of their first points: [1:t] + p^k O for t < p^k, then
    [p*j:1] + p^k O for j < p^(k-1)."""
    md, step = p ** (2 * k), p ** k
    return ([range(t, md, step) for t in range(step)]
            + [range(md + j, md + md // p, step // p)
               for j in range(step // p)])


def _image(p, m, b):
    """The projection of a range b of level-m indices to level m-1, as a
    range.  b lies in one cell, its step divides that cell's size at level
    m-1, and it spans that size at least once, as every fibre over a level
    below m does."""
    md, ml = p ** m, p ** (m - 1)
    if b.start < md:
        return range(b.start % b.step, ml, b.step)
    return range(ml + (b.start - md) % b.step, ml + ml // p, b.step)


def orbit_classification_check(k, p):
    """Classify the depth-k congruence orbits on the level-2k line and
    cross-check them against the closed form.

    The orbits are proved on the generators of Gamma_k at level 2k to be
    the fibres of the projection to level k.  Every generator is I mod
    p^k, so the group fixes each point's level-k projection and every
    orbit lies in one fibre.  ((1, p^k), (0, 1)) sends [1:t] to
    [1:t + p^k] and ((1, 0), (p^k, 1)) sends [s:1] to [s + p^k:1], so each
    fibre is one cycle of a generator and lies in one orbit.  The fibres
    are then written down (_fibres), not swept.  Verifies, in order, on
    those blocks: the partition count is already stable between levels
    2k-1 and 2k (distinct level-2k blocks project to distinct blocks); the
    count matches the closed form; the orbit of [0:1] is the depth-k disc
    around infinity; the orbit of [1:0] is the depth-k disc around zero.
    Each clause compares ranges: a block's projection to level 2k-1 is
    again a range (_image), and ranges hash and compare as sequences in
    constant time, so the check costs time in proportion to the orbit
    count and visits no point.
    Raises ClassificationMismatch naming the first clause that fails, the
    proof on the generators first.  Raises BanalityViolation when p is not
    prime and ValueError when k < 1.
    """
    _check_prime(p)
    if k < 1:
        raise ValueError("k must be at least 1")
    m = 2 * k
    md, step = p ** m, p ** k
    gens = subgroup_generators(SubgroupSpec("Gamma_k", k=k), p, m)
    if (any((a - 1) % step or b % step or c % step or (d - 1) % step
            for (a, b), (c, d) in gens)
            or ((1, step), (0, 1)) not in gens
            or ((1, 0), (step, 1)) not in gens):
        raise ClassificationMismatch(
            "generators do not fix and cycle the fibres over level k")
    part = _fibres(p, k)
    if len({_image(p, m, b) for b in part}) != len(part):
        raise ClassificationMismatch(
            "orbit count changes between levels 2k-1 and 2k")
    expected = orbit_count_formula(p, k)
    if len(part) != expected:
        raise ClassificationMismatch("orbit count disagrees with closed form")
    # blocks list their points in index order and each disc's centre is its
    # least point, so a block equal to a disc starts with its centre: [0:1]
    # at index md, its disc the [s:1] with p^k | s; [1:0] at index 0
    inf_block = next((b for b in part if b[0] == md), ())
    if inf_block != range(md, md + md // p, step // p):
        raise ClassificationMismatch("infinity orbit is not the depth-k disc")
    zero_block = next((b for b in part if b[0] == 0), ())
    if zero_block != range(0, md, step):
        raise ClassificationMismatch("zero orbit is not the depth-k disc")
    return {
        "k": k,
        "m": m,
        "orbit_count": len(part),
        "formula_count": expected,
        "orbits": [{"rep": point_label(p, m, b[0]), "size": len(b)}
                   for b in part],
    }
