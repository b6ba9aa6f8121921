"""Character bookkeeping for the two-stratum gluing computation.

Everything the gluing functor does to an unramified input factors through
a short list of value-level facts: unramified characters of E^x are pinned
by their value at a uniformizer, the coinvariant constituents of the small
induced models form two-line symbols whose extension may split, and each
slope carries one frozen table saying which building block, determinant
twist and modulus exponents sit in which degree.  hc_tilde reads an input
spec against its slope's table; glue reads the contragredient against it
and flips the result through Verdier duality, which only reindexes and
inverts.  A one-dimensional input meets every row's block, and the row
lands in the degrees where that block has cohomology: sl2_coh computes it
for the integral blocks at level 1, and the half blocks have a closed
form.  The rest is arithmetic in Lambda.
"""

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from .lambda_core import (
    _check_banal,
    free_module,
    iso_class,
    make_ring,
    quotient_module,
)
from .padic_core import SubgroupSpec, orbit_count_formula
from .finite_rep import (
    fixed_points,
    gl2_f2_sign,
    induced_exponents,
    inflate,
    parse_rep_spec,
    rep_model,
)
from .sl2_coh import sl2_cohomology


class UnsupportedSpec(ValueError):
    """Input spec outside the unramified families this engine handles."""


class DegreeNotInTable(ValueError):
    """Requested output degree has no rule row."""


class CuspidalWitnessFailed(RuntimeError):
    """Claimed cuspidal datum has Iwahori-fixed vectors or N-coinvariants."""


# ------------------------------------------------------------- characters


class UnramChar:
    """Unramified character of E^x, pinned by its value at pi.

    The value is the whole identity over Lambda; the exponent is an
    optional formal label (s for |.|^s) kept for display and duality
    bookkeeping.  Characters compare through their values, as ints.
    """

    __slots__ = ("ring", "value", "exponent")

    def __init__(self, ring, value, exponent=None):
        self.ring = ring
        self.value = value % ring.n
        if exponent is not None and not isinstance(exponent, Fraction):
            exponent = Fraction(exponent)
        self.exponent = exponent

    @classmethod
    def abs_power(cls, ring, s):
        """|.|^s with value q^(-s) at pi; s must be half-integral."""
        return cls(ring, ring.abs_value(s), s)

    def __mul__(self, other):
        if self.ring.n != other.ring.n:
            raise ValueError("characters live over different rings")
        exp = None
        if self.exponent is not None and other.exponent is not None:
            exp = self.exponent + other.exponent
        return UnramChar(self.ring, self.value * other.value, exp)

    def inverse(self):
        exp = None if self.exponent is None else -self.exponent
        return UnramChar(self.ring, self.ring.inv(self.value), exp)

    def __repr__(self):
        return f"UnramChar(value={self.value}, exp={self.exponent})"


class TorusChar:
    """Pair of unramified characters of the diagonal torus: a constituent
    of a coinvariant symbol, or an output table's character of the
    two-block group E_1^x x E_2^x, which at the integral slope is T."""

    __slots__ = ("chi1", "chi2")

    def __init__(self, chi1, chi2):
        self.chi1 = chi1
        self.chi2 = chi2

    @classmethod
    def from_exponents(cls, ring, a, b):
        return cls(UnramChar.abs_power(ring, a), UnramChar.abs_power(ring, b))

    @classmethod
    def delta_power(cls, ring, r):
        """delta_T^r = |.|^(-r) x |.|^r; delta_T itself is (q, 1/q) at pi."""
        return cls.from_exponents(ring, -r, r)

    @property
    def ring(self):
        return self.chi1.ring

    def values(self):
        return (self.chi1.value, self.chi2.value)

    def weyl(self):
        return TorusChar(self.chi2, self.chi1)

    def __mul__(self, other):
        return TorusChar(self.chi1 * other.chi1, self.chi2 * other.chi2)

    def inverse(self):
        return TorusChar(self.chi1.inverse(), self.chi2.inverse())

    def ts_value(self):
        """Value of chi1/chi2 at pi, the restriction to the s-coroot line."""
        ring = self.ring
        return self.chi1.value * ring.inv(self.chi2.value) % ring.n

    def is_ts_trivial(self):
        return self.ts_value() == 1

    def to_json(self):
        return {"z1": _char_json(self.chi1), "z2": _char_json(self.chi2)}

    def __repr__(self):
        return f"TorusChar{self.values()}"


def _char_json(c):
    exp = None if c.exponent is None else str(c.exponent)
    return {"val": c.value, "exp": exp}


def _char_key(c):
    return c.values() + (str(c.chi1.exponent), str(c.chi2.exponent))


class GradedCharModule:
    """Finite character table indexed by output degree; empty degrees are
    dropped on construction."""

    __slots__ = ("ring", "chars")

    def __init__(self, ring, chars):
        cleaned = {}
        for d in sorted(chars):
            entry = tuple(sorted(chars[d], key=_char_key))
            if entry:
                cleaned[int(d)] = entry
        self.ring = ring
        self.chars = cleaned

    def is_zero(self):
        return not self.chars

    def to_json(self):
        return {"degrees": {str(d): [c.to_json() for c in entry]
                            for d, entry in self.chars.items()}}

    def __repr__(self):
        return f"GradedCharModule(degrees={sorted(self.chars)})"


class JacquetSymbol:
    """Ordered coinvariant constituents plus the extension split flag.

    Every constituent value is a power of q or sqrt_q, both units by
    banality, so the counting rules below need no further check.
    """

    __slots__ = ("constituents", "split")

    def __init__(self, constituents, split):
        self.constituents = tuple(constituents)
        self.split = split


# ----------------------------------------------------------- slope tables


class SlopeTable:
    """Frozen stratum table of one slope.

    rows maps an output degree to its building-block spec, the central
    character of that block as a modulus exponent, and the z_1/z_2 modulus
    exponents the degree adds; d is the ambient dimension of the duality
    flip and inputs the spec kinds the slope takes.
    """

    __slots__ = ("name", "rows", "d", "inputs")

    def __init__(self, name, rows, d, inputs):
        self.name = name
        self.rows = MappingProxyType(dict(rows))
        self.d = d
        self.inputs = frozenset(inputs)


INTEGRAL = SlopeTable(
    "integral",
    {2: ("st", 0, (0, 0)),
     3: ("ind(1,0)", Fraction(1, 2), (-1, 0)),
     4: ("absdet^1", 1, (-2, 0))},
    d=2, inputs=("triv", "absdet", "ind", "ps"))

HALF = SlopeTable(
    "half",
    {1: ("triv", 0, (0, 0)), 2: ("nrd^1", 1, (-2, 0))},
    d=1, inputs=("triv", "nrd"))


def _table(slope):
    if slope in ("int", "integral"):
        return INTEGRAL
    if slope == "half":
        return HALF
    raise ValueError(f"unknown slope {slope!r}")


# ------------------------------------------------- coinvariant arithmetic


def jacquet_symbolic(ring, spec):
    """Unipotent coinvariants of a spec, as an ordered two-line symbol.

    Induced models contribute the sub line chi^w delta_T^(-1) below the
    quotient line chi; the extension splits exactly when the two lines
    differ in Lambda.  One-dimensional specs and Steinberg contribute a
    single line.
    """
    tag = parse_rep_spec(spec)
    if tag[0] == "st":
        cs = (TorusChar.delta_power(ring, -1),)
    elif tag[0] == "triv":
        cs = (TorusChar.from_exponents(ring, 0, 0),)
    elif tag[0] == "absdet":
        cs = (TorusChar.from_exponents(ring, tag[1], tag[1]),)
    elif tag[0] in ("ind", "ps"):
        chi = TorusChar.from_exponents(ring, *induced_exponents(tag))
        cs = (chi.weyl() * TorusChar.delta_power(ring, -1), chi)
    else:
        raise UnsupportedSpec(f"no symbolic coinvariants for {spec!r}")
    split = len(cs) == 2 and cs[0].values() != cs[1].values()
    return JacquetSymbol(cs, split=split)


def ts_homology(symbol, twist):
    """Ranks of the s-coroot homology of a twisted symbol, degrees 0, -1.

    Split symbols count constituents landing on the trivial line, one
    rank in each degree apiece.  A non-split symbol is a single thread:
    it contributes one line, and only when every layer lands there.
    """
    flags = [(c * twist).is_ts_trivial() for c in symbol.constituents]
    if symbol.split:
        r = sum(flags)
    else:
        r = 1 if flags and all(flags) else 0
    return {0: r, -1: r}


# --------------------------------------------------------------- assembly


def assemble_characters(j, sheaf_char, module_det_char, table):
    """Two-block character at degree j: sheaf and det land in both slots,
    the table row adds its modulus exponents on z_1 and z_2."""
    if j not in table.rows:
        raise DegreeNotInTable(f"degree {j} not in the {table.name} rules")
    e1, e2 = table.rows[j][2]
    ring = sheaf_char.ring
    base = sheaf_char * module_det_char
    return TorusChar(base * UnramChar.abs_power(ring, e1),
                     base * UnramChar.abs_power(ring, e2))


def _accept(ring, table, tag, spec):
    """Refuse a ring that is not banal, as make_ring does, or an input kind
    the slope does not take."""
    _check_banal(ring.n, ring.p)
    if tag[0] not in table.inputs:
        raise UnsupportedSpec(f"{table.name} slope cannot take {spec!r}")


@lru_cache(maxsize=None)
def _row_symbol(ring, row_spec):
    # a table row's coinvariants: the rows are constant specs
    return jacquet_symbolic(ring, row_spec)


def _block_cohomology(ring, table, row_spec):
    """Invariant factors {k: orders} of H^k of a table row's block.

    An integral row's block is SL2 on the row's level-1 model, on which
    absdet^1 restricts to the trivial line.  A half row restricts trivially
    to SL1(D), the norm-one units of the quaternion division algebra; past
    its pro-p part that leaves its tame quotient C_{q+1} acting trivially,
    so H^0 = Lambda and H^1 = Lambda[q+1], cyclic of order gcd(n, q+1).
    """
    if table is HALF:
        g = gcd(ring.n, ring.q + 1)
        return {0: [ring.n], 1: [g] if g > 1 else []}
    spec = "triv" if row_spec.startswith("absdet") else row_spec
    return {k: iso_class(h)
            for k, h in sl2_cohomology(rep_model(ring, spec, 1)).items()}


@lru_cache(maxsize=None)
def _row_offsets(ring, table, row_spec):
    """Offsets -k of the degrees k where a row's block has cohomology."""
    return tuple(-k for k, orders
                 in _block_cohomology(ring, table, row_spec).items() if orders)


def _characters(ring, table, tag):
    """Degree -> characters of a slope's table against an accepted tag.

    Row j places its character in degree j + o, once per rank, for each
    offset o it carries: a one-dimensional input's block offsets, or an
    induced input's s-coroot homology ranks in offsets 0 and -1.  The
    input's central exponent, s for a twist by |det|^s and (a+b)/2 for an
    induced input, shifts every row's determinant exponent.
    """
    if tag[0] in ("ind", "ps"):
        a, b = induced_exponents(tag)
        twist = (TorusChar.from_exponents(ring, a, b)
                 * TorusChar.delta_power(ring, 1))
        center = (a + b) / 2
    else:
        twist, center = None, tag[1] if len(tag) > 1 else 0
    one = UnramChar.abs_power(ring, 0)
    chars = {}
    for j, (row_spec, det, _z) in table.rows.items():
        if twist is None:
            ranks = dict.fromkeys(_row_offsets(ring, table, row_spec), 1)
        else:
            ranks = ts_homology(_row_symbol(ring, row_spec), twist)
        if any(ranks.values()):
            c = assemble_characters(
                j, one, UnramChar.abs_power(ring, center + det), table)
            for o, r in ranks.items():
                chars[j + o] = (c,) * r
    return chars


def hc_tilde(ring, slope, spec):
    """Compactly supported output of one stratum against one input spec.

    A one-dimensional input meets every row of the slope's table, and row
    j lands in degree j - k for each k where its block has H^k != 0: the
    integral Steinberg row one degree down, the acyclic integral middle
    row nowhere, and the other rows in their own degrees.  Induced inputs
    pair with at most one row through the coinvariant count and occupy two
    adjacent degrees.
    """
    table, spec = _table(slope), spec.strip()
    tag = parse_rep_spec(spec)
    _accept(ring, table, tag, spec)
    return GradedCharModule(ring, _characters(ring, table, tag))


def verdier_dualize(graded, d):
    """Flip a stratum output through duality in ambient dimension d.

    Degree k of the flip is the inverse of degree 2d-k, twisted by delta_T
    across both blocks.  glue applies it to the contragredient's table.
    """
    dt = TorusChar.delta_power(graded.ring, 1)
    return GradedCharModule(graded.ring, {
        2 * d - k: tuple(c.inverse() * dt for c in entry)
        for k, entry in graded.chars.items()})


# -------------------------------------------------------------- cuspidal

# F0 and F1 are no fields, and p = 0 would not reduce residues
_GROUP_RE = re.compile(r"GL2\(F([2-9]|[1-9]\d+)\)\Z")
_CUSP_BUILTINS = {"gl2f2-sign": gl2_f2_sign}


def _int_matrix(mat, field, shape=None):
    # a non-empty list of equally long lists of ints; bool is an int
    # subclass, and a float or a string would pass through % p silently
    if (type(mat) is not list or not mat
            or any(type(r) is not list or len(r) != len(mat[0])
                   for r in mat)):
        raise ValueError(f"{field} is not a list of equally long rows")
    if shape is not None and (len(mat), len(mat[0])) != shape:
        raise ValueError(f"{field} is not {shape[0]}x{shape[1]}")
    if any(type(x) is not int for r in mat for x in r):
        raise ValueError(f"{field} has an entry that is not an integer")
    return mat


def _load_cusp_table(ring, source):
    """Depth-zero model of a built-in name or of a JSON file; raises
    ValueError naming the field that does not have the documented shape."""
    if source in _CUSP_BUILTINS:
        return _CUSP_BUILTINS[source](ring)
    with open(source) as fh:
        blob = json.load(fh)
    if type(blob) is not dict:
        raise ValueError("cusp table is not a JSON object")
    group = blob.get("group")
    m = _GROUP_RE.match(group) if type(group) is str else None
    if not m:
        raise ValueError(f"unrecognized group {group!r}")
    p = int(m.group(1))
    gens, mats = blob.get("generators"), blob.get("matrices")
    if type(gens) is not list or type(mats) is not list:
        raise ValueError("generators and matrices must be lists")
    if len(gens) != len(mats) or not mats:
        raise ValueError("generators and matrices must pair up")
    table, first = {}, {}
    for i, (g, mat) in enumerate(zip(gens, mats)):
        g = _int_matrix(g, f"generators[{i}]", (2, 2))
        key = tuple(tuple(v % p for v in row) for row in g)
        mat = _int_matrix(mat, f"matrices[{i}]")
        j = first.setdefault(key, i)
        if table.setdefault(key, mat) != mat:
            raise ValueError(f"generators[{j}] and generators[{i}] agree "
                             f"mod {p} but carry different matrices")
    return inflate(ring, p, table, rank=len(mats[0]))


def _check_cuspidal(ring, source):
    """Run both vanishing witnesses on a depth-zero datum."""
    sig = _load_cusp_table(ring, source)
    if sig.p != ring.p:
        raise ValueError(
            f"table residue characteristic {sig.p} is not p={ring.p}")
    if not fixed_points(sig, SubgroupSpec("Gamma0")).is_zero():
        raise CuspidalWitnessFailed("Iwahori-fixed vectors survive")
    # N-coinvariants: cokernel of (action of the unit transvection) - 1
    a = sig.action_matrix(((1, 1), (0, 1))).entries
    image = [[(a[i][j] - (i == j)) % ring.n for i in range(sig.rank)]
             for j in range(sig.rank)]
    coinv = quotient_module(free_module(ring, sig.rank), image)
    if not coinv.is_zero():
        raise CuspidalWitnessFailed("unipotent coinvariants survive")


# ------------------------------------------------------------------ glue


def glue(ring, slope, spec):
    """Gluing output for one input spec on one slope.

    Cuspidal inputs must pass both vanishing witnesses and then glue to
    zero.  An unramified input's output is the duality flip of its
    contragredient's stratum table; the contragredient negates every
    exponent of the parsed spec.  The input's own table is computed first
    as a check: a value collision mod n can give it a row whose exponent
    Lambda cannot represent, ind(-1,-1/2) over Z/11, say, although the
    contragredient's table is empty, and such an input is refused.
    """
    table, spec = _table(slope), spec.strip()
    tag = parse_rep_spec(spec)
    if tag[0] == "cusp":
        if table is not INTEGRAL:
            raise UnsupportedSpec("cuspidal data lives on the integral slope")
        _check_cuspidal(ring, tag[1])
        return GradedCharModule(ring, {})
    _accept(ring, table, tag, spec)
    _characters(ring, table, tag)
    dual = (tag[0],) + tuple(-e for e in tag[1:])
    return verdier_dualize(
        GradedCharModule(ring, _characters(ring, table, dual)), table.d)


# ------------------------------------------------------------ generators


def compact_generator_ranks(k, p, n, window):
    """Ranks of the compact generator in output degrees 2, 3, 4.

    The count is |O^x/(1 + pi^k O)| per vertex orbit and central twist:
    the middle degree sees every orbit, the top degree one, the bottom
    every orbit except the base one.  window is the number of central
    twists kept.
    """
    if k < 1 or window < 1:
        raise ValueError("depth and window must be positive")
    make_ring(n, p)  # banality gate
    units = (p - 1) * p ** (k - 1)
    orbits = orbit_count_formula(p, k)
    return {2: window * units * (orbits - 1),
            3: window * units * orbits,
            4: window * units}
