"""Character bookkeeping for the two-stratum gluing computation.

Everything the gluing functor does to an unramified input factors through
a short list of value-level facts: unramified characters of E^x are pinned
by their value at a uniformizer, the coinvariant constituents of the small
induced models form two-line symbols with a split flag, and each slope
carries a frozen degree table saying which determinant twists appear where.
The numeric engines certify the two degeneration facts this table leans on
(the Steinberg line concentrates in one homological degree, the weight-one
induced model is acyclic against the averaging operator); this module does
the remaining arithmetic in Lambda and never touches a tree again.
"""

import json
import re
import warnings
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .lambda_core import (
    LambdaMatrix,
    MissingSqrtQ,
    ModuleMap,
    free_module,
    iso_class,
    make_ring,
    quotient_module,
)
from .padic_core import SubgroupSpec, elem_upper, orbit_count_formula
from .finite_rep import (
    fixed_points,
    gl2_f2_sign,
    inflate,
    parse_rep_spec,
    steinberg,
    trivial_rep,
)
from .sl2_coh import sl2_homology

_HALF = Fraction(1, 2)


class UnsupportedSpec(ValueError):
    """Input spec outside the unramified families this engine handles."""


class DegreeNotInTable(ValueError):
    """Requested output degree has no rule row."""


class MissingProvenance(ValueError):
    """Graded module does not remember which input produced it."""


class NonUnitWitness(ValueError):
    """Coinvariant symbol carries a non-invertible certificate."""


class CuspidalWitnessFailed(RuntimeError):
    """Claimed cuspidal datum has Iwahori-fixed vectors or N-coinvariants."""


class ExponentCollision(UserWarning):
    """Formally distinct exponents give the same value in Lambda."""


# ------------------------------------------------------------- characters


class UnramChar:
    """Unramified character of E^x, pinned by its value at pi.

    The value is the whole identity over Lambda; the exponent is an
    optional formal label (s for |.|^s) kept for display and duality
    bookkeeping.  Equality compares values only, with a warning when two
    distinct formal exponents collide.
    """

    __slots__ = ("ring", "value", "exponent")

    def __init__(self, ring, value, exponent=None):
        self.ring = ring
        self.value = value % ring.n
        self.exponent = None if exponent is None else Fraction(exponent)

    @classmethod
    def abs_power(cls, ring, s):
        """|.|^s with value q^(-s) at pi; s must be half-integral."""
        s = Fraction(s)
        twice = -2 * s
        if twice.denominator != 1:
            raise ValueError(f"exponent {s} is not half-integral")
        return cls(ring, ring.half_q_pow(int(twice)), s)

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

    def __eq__(self, other):
        if not isinstance(other, UnramChar):
            return NotImplemented
        same = self.value == other.value
        if (same and self.exponent is not None and other.exponent is not None
                and self.exponent != other.exponent):
            warnings.warn(
                f"exponents {self.exponent} and {other.exponent} agree "
                f"in Z/{self.ring.n}", ExponentCollision, stacklevel=2)
        return same

    def __hash__(self):
        return hash((self.ring.n, self.value))

    def __repr__(self):
        return f"UnramChar(value={self.value}, exp={self.exponent})"


class TorusChar:
    """Pair of unramified characters of the diagonal torus."""

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

    def __repr__(self):
        return f"TorusChar{self.values()}"


class Gb2Character:
    """Character of the two-block group E_1^x x E_2^x at one degree."""

    __slots__ = ("z1", "z2")

    def __init__(self, z1, z2):
        self.z1 = z1
        self.z2 = z2

    @classmethod
    def delta(cls, ring):
        return cls(UnramChar.abs_power(ring, -1), UnramChar.abs_power(ring, 1))

    def values(self):
        return (self.z1.value, self.z2.value)

    def __mul__(self, other):
        return Gb2Character(self.z1 * other.z1, self.z2 * other.z2)

    def inverse(self):
        return Gb2Character(self.z1.inverse(), self.z2.inverse())

    def to_json(self):
        return {"z1": _char_json(self.z1), "z2": _char_json(self.z2)}

    def __repr__(self):
        return f"Gb2Character{self.values()}"


def _char_json(c):
    exp = None if c.exponent is None else str(c.exponent)
    return {"val": c.value, "exp": exp}


def _char_key(c):
    return (c.z1.value, c.z2.value, str(c.z1.exponent), str(c.z2.exponent))


class GradedCharModule:
    """Finite character table indexed by output degree.

    Empty degrees are dropped on construction; provenance records the
    (slope, spec) pair that produced the table, which the duality flip
    needs in order to recompute the partner table.
    """

    __slots__ = ("ring", "chars", "provenance")

    def __init__(self, ring, chars, provenance=None):
        cleaned = {}
        for d in sorted(chars):
            entry = tuple(sorted(chars[d], key=_char_key))
            if entry:
                cleaned[int(d)] = entry
        self.ring = ring
        self.chars = cleaned
        self.provenance = provenance

    def is_zero(self):
        return not self.chars

    def to_json(self):
        return {"degrees": {str(d): [c.to_json() for c in entry]
                            for d, entry in self.chars.items()}}

    def __repr__(self):
        return f"GradedCharModule(degrees={sorted(self.chars)})"


class JacquetSymbol:
    """Ordered coinvariant constituents plus the extension split flag.

    unit_witness is the product of constituent values; the counting
    rules below are only valid while it is a unit, so it travels with
    the symbol and is checked at use time.
    """

    __slots__ = ("constituents", "split", "unit_witness")

    def __init__(self, constituents, split, unit_witness):
        self.constituents = tuple(constituents)
        self.split = split
        self.unit_witness = unit_witness


# ------------------------------------------------------------ rule tables


class InputCohomologyTable:
    """Degree -> building-block spec for one slope, with central twists."""

    __slots__ = ("slope", "rows", "det_exponents")

    def __init__(self, slope, rows, det_exponents):
        self.slope = slope
        self.rows = MappingProxyType(dict(rows))
        self.det_exponents = MappingProxyType(
            {j: Fraction(e) for j, e in det_exponents.items()})


class TateRuleTable:
    """Frozen z_1/z_2 modulus exponents per degree, plus the duality dim."""

    __slots__ = ("name", "z_exponents", "d")

    def __init__(self, name, z_exponents, d):
        self.name = name
        self.z_exponents = MappingProxyType(dict(z_exponents))
        self.d = d


INTEGRAL_TABLE = InputCohomologyTable(
    "integral",
    {2: "st", 3: "ind(1,0)", 4: "absdet^1"},
    # central characters of the rows, as modulus exponents
    {2: 0, 3: _HALF, 4: 1})

HALF_TABLE = InputCohomologyTable(
    "half",
    {1: "triv", 2: "nrd^1"},
    {1: 0, 2: 1})

INTEGRAL_RULES = TateRuleTable(
    "integral", {2: (0, 0), 3: (-1, 0), 4: (-2, 0)}, d=2)

HALF_RULES = TateRuleTable("half", {1: (0, 0), 2: (-2, 0)}, d=1)


def _slope(slope):
    if slope in ("int", "integral"):
        return ("integral", INTEGRAL_TABLE, INTEGRAL_RULES)
    if slope == "half":
        return ("half", HALF_TABLE, HALF_RULES)
    raise ValueError(f"unknown slope {slope!r}")


# ------------------------------------------------- coinvariant arithmetic


def is_generic(chi):
    """chi1/chi2 avoids 1, q, 1/q, so every counting rule returns zero."""
    ring = chi.ring
    return chi.ts_value() not in (1, ring.q_pow(1), ring.q_pow(-1))


def _witness(constituents, ring):
    w = 1
    for c in constituents:
        w = w * c.chi1.value * c.chi2.value % ring.n
    return w


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
        return JacquetSymbol(cs, split=False, unit_witness=_witness(cs, ring))
    if tag[0] == "triv":
        cs = (TorusChar.from_exponents(ring, 0, 0),)
        return JacquetSymbol(cs, split=False, unit_witness=_witness(cs, ring))
    if tag[0] == "absdet":
        cs = (TorusChar.from_exponents(ring, tag[1], tag[1]),)
        return JacquetSymbol(cs, split=False, unit_witness=_witness(cs, ring))
    if tag[0] in ("ind", "ps"):
        a, b = tag[1], tag[2]
        if tag[0] == "ps":
            a, b = a + _HALF, b - _HALF
        chi = TorusChar.from_exponents(ring, a, b)
        sub = chi.weyl() * TorusChar.delta_power(ring, -1)
        cs = (sub, chi)
        return JacquetSymbol(cs, split=sub.values() != chi.values(),
                             unit_witness=_witness(cs, ring))
    raise UnsupportedSpec(f"no symbolic coinvariants for {spec!r}")


def ts_homology(symbol, twist):
    """Ranks of the s-coroot homology of a twisted symbol, degrees 0, -1.

    Split symbols count constituents landing on the trivial line, one
    rank in each degree apiece.  A non-split symbol is a single thread:
    it contributes one line, and only when every layer lands there.
    """
    ring = twist.ring
    if not ring.is_unit(symbol.unit_witness % ring.n):
        raise NonUnitWitness(
            f"witness {symbol.unit_witness} is not a unit mod {ring.n}")
    flags = [(c * twist).is_ts_trivial() for c in symbol.constituents]
    if symbol.split:
        r = sum(flags)
    else:
        r = 1 if flags and all(flags) else 0
    return {0: r, -1: r}


# --------------------------------------------------------------- assembly


def assemble_characters(j, sheaf_char, module_det_char, rules):
    """Two-block character at degree j: sheaf and det land in both slots,
    the rule row adds its modulus exponents on z_1 and z_2."""
    if j not in rules.z_exponents:
        raise DegreeNotInTable(f"degree {j} not in the {rules.name} rules")
    e1, e2 = rules.z_exponents[j]
    ring = sheaf_char.ring
    base = sheaf_char * module_det_char
    return Gb2Character(base * UnramChar.abs_power(ring, e1),
                        base * UnramChar.abs_power(ring, e2))


@lru_cache(maxsize=None)
def _integral_degenerations(ring):
    """Certify the two numeric facts the integral table leans on."""
    # middle-row acyclicity: 1 - q^(+-1) must invert, which banality grants
    for e in (1, -1):
        if not ring.is_unit((1 - ring.q_pow(e)) % ring.n):
            raise RuntimeError(
                f"difference map 1 - q^{e} fails to invert mod {ring.n}")
    # Steinberg concentrates below, the trivial line on top
    h = sl2_homology(steinberg(ring, 1))
    if iso_class(h[0]) != [] or iso_class(h[-1]) != [ring.n]:
        raise RuntimeError("Steinberg homology moved; table is invalid")
    h = sl2_homology(trivial_rep(ring, 1))
    if iso_class(h[0]) != [ring.n] or iso_class(h[-1]) != []:
        raise RuntimeError("trivial-line homology moved; table is invalid")
    return True


def hc_tilde(ring, slope, spec):
    """Compactly supported output of one stratum against one input spec.

    One-dimensional inputs on the integral slope keep the outer rows of
    the table (the Steinberg row lands one degree down, the middle row
    dies); induced inputs pair with at most one table row through the
    coinvariant count and occupy two adjacent degrees.  The half slope
    has no room to degenerate and keeps both of its rows.
    """
    name, table, rules = _slope(slope)
    spec = spec.strip()
    tag = parse_rep_spec(spec)
    prov = (name, spec)
    one = UnramChar.abs_power(ring, 0)

    if name == "integral":
        _integral_degenerations(ring)
        if tag[0] in ("triv", "absdet"):
            k = tag[1] if tag[0] == "absdet" else Fraction(0)
            sheaf = UnramChar.abs_power(ring, k)
            lo = assemble_characters(
                2, sheaf,
                UnramChar.abs_power(ring, table.det_exponents[2]), rules)
            hi = assemble_characters(
                4, sheaf,
                UnramChar.abs_power(ring, table.det_exponents[4]), rules)
            return GradedCharModule(ring, {1: (lo,), 4: (hi,)}, prov)
        if tag[0] in ("ind", "ps"):
            a, b = tag[1], tag[2]
            if tag[0] == "ps":
                a, b = a + _HALF, b - _HALF
            chi = TorusChar.from_exponents(ring, a, b)
            twist = chi * TorusChar.delta_power(ring, 1)
            center = (a + b) / 2
            chars = {}
            for j, row_spec in table.rows.items():
                ranks = ts_homology(jacquet_symbolic(ring, row_spec), twist)
                if not ranks[0]:
                    continue
                det = UnramChar.abs_power(
                    ring, center + table.det_exponents[j])
                c = assemble_characters(j, one, det, rules)
                chars[j] = (c,) * ranks[0]
                chars[j - 1] = (c,) * ranks[-1]
            return GradedCharModule(ring, chars, prov)
        raise UnsupportedSpec(f"integral slope cannot take {spec!r}")

    if tag[0] in ("triv", "nrd"):
        k = tag[1] if tag[0] == "nrd" else Fraction(0)
        sheaf = UnramChar.abs_power(ring, k)
        chars = {
            j: (assemble_characters(
                j, sheaf,
                UnramChar.abs_power(ring, table.det_exponents[j]), rules),)
            for j in table.rows}
        return GradedCharModule(ring, chars, prov)
    raise UnsupportedSpec(f"half slope cannot take {spec!r}")


# --------------------------------------------------------------- duality


def _dual_spec(spec):
    tag = parse_rep_spec(spec)
    if tag[0] in ("triv", "st"):
        return spec
    if tag[0] in ("absdet", "nrd"):
        return f"{tag[0]}^{-tag[1]}"
    if tag[0] in ("ind", "ps"):
        return f"{tag[0]}({-tag[1]},{-tag[2]})"
    raise UnsupportedSpec(f"no contragredient spec for {spec!r}")


def verdier_dualize(graded, d, rules):
    """Flip a stratum output through duality in ambient dimension d.

    Degree k of the flip is the inverse of degree 2d-k computed for the
    contragredient input, twisted by delta_T across both blocks; the
    provenance is what makes the partner computation possible.
    """
    if rules.d != d:
        raise ValueError(
            f"dimension {d} disagrees with the {rules.name} rules")
    if graded.provenance is None:
        raise MissingProvenance("graded module carries no input provenance")
    name, spec = graded.provenance
    partner = hc_tilde(graded.ring, name, _dual_spec(spec))
    dt = Gb2Character.delta(graded.ring)
    chars = {2 * d - k: tuple(c.inverse() * dt for c in entry)
             for k, entry in partner.chars.items()}
    return GradedCharModule(graded.ring, chars, graded.provenance)


# -------------------------------------------------------------- cuspidal

_GROUP_RE = re.compile(r"GL2\(F(\d+)\)\Z")
_CUSP_BUILTINS = {"gl2f2-sign": gl2_f2_sign}


def _load_cusp_table(ring, source):
    if source in _CUSP_BUILTINS:
        return _CUSP_BUILTINS[source](ring)
    with open(source) as fh:
        blob = json.load(fh)
    m = _GROUP_RE.match(blob["group"])
    if not m:
        raise ValueError(f"unrecognized group {blob['group']!r}")
    p = int(m.group(1))
    gens = blob["generators"]
    mats = blob["matrices"]
    if len(gens) != len(mats) or not mats:
        raise ValueError("generators and matrices must pair up")
    table = {tuple(tuple(int(v) % p for v in row) for row in g): mat
             for g, mat in zip(gens, mats)}
    return inflate(ring, p, table, rank=len(mats[0]))


def _check_cuspidal(ring, source):
    """Run both vanishing witnesses on a depth-zero datum."""
    sig = _load_cusp_table(ring, source)
    if sig.p != ring.p:
        raise ValueError(
            f"table residue characteristic {sig.p} is not p={ring.p}")
    if not fixed_points(sig, SubgroupSpec("Gamma0", 1)).is_zero():
        raise CuspidalWitnessFailed("Iwahori-fixed vectors survive")
    # N-coinvariants: cokernel of (action of the unit transvection) - 1
    a = sig.action_matrix(elem_upper(sig.p, 1)).entries
    rows = [[(a[i][j] - (i == j)) % ring.n for j in range(sig.rank)]
            for i in range(sig.rank)]
    f = ModuleMap(free_module(ring, sig.rank), free_module(ring, sig.rank),
                  LambdaMatrix(ring, rows, cols=sig.rank))
    coinv = quotient_module(free_module(ring, sig.rank), f.image_rows())
    if not coinv.is_zero():
        raise CuspidalWitnessFailed("unipotent coinvariants survive")


# ------------------------------------------------------------------ glue


def glue(ring, slope, spec):
    """Gluing output for one input spec on one slope.

    Cuspidal inputs must pass both vanishing witnesses and then glue to
    zero; everything unramified factors through the duality flip of the
    stratum table.
    """
    name, _table, rules = _slope(slope)
    spec = spec.strip()
    tag = parse_rep_spec(spec)
    if tag[0] == "cusp":
        if name != "integral":
            raise UnsupportedSpec("cuspidal data lives on the integral slope")
        _check_cuspidal(ring, tag[1])
        return GradedCharModule(ring, {}, (name, spec))
    return verdier_dualize(hc_tilde(ring, slope, spec), rules.d, rules)


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
