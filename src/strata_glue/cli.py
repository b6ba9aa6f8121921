"""Command-line front end for the desk-scale gluing computations.

Four commands: orbit classification reports, finite-level cohomology of
the small GL2 models, graded character output of the gluing functor, and
an aggregate verification run over every pinned acceptance check.  Text
and JSON modes carry the same numeric content; only labels differ.  Exit
codes: 0 success, 2 usage or invalid configuration, 3 a mathematical
assertion failed.

A process builds one parser and shares it across main() calls, so each
command after the first pays only for parsing, not for a new parser.
"""

import argparse
import functools
import json
import math
import os
import random
import sys
import tempfile
import time

from .lambda_core import (
    CoeffRing,
    LambdaMatrix,
    iso_class,
    left_kernel_cokernel,
    make_ring,
)
from .padic_core import orbit_classification_check
from .finite_rep import jacquet_oracle, rep_model
from .sl2_coh import bt_ball, cohomology_report, ps1_acyclicity_check
from .char_engine import (
    CuspidalWitnessFailed,
    compact_generator_ranks,
    glue,
    jacquet_symbolic,
)

_GRAMMAR = """\
rep specs:
  triv           trivial character
  st             Steinberg
  ind(a,b)       normalized unramified induction |.|^a x |.|^b
  ps(a,b)        its half-shifted variant, ind(a+1/2, b-1/2)
  absdet^k       |det|^k                (integral slope)
  nrd^k          |Nrd|^k                (half slope)
  cusp:NAME      depth-zero cuspidal datum, built-in name or a JSON
                 file {"group": "GL2(Fp)", "generators", "matrices"}
exponents a, b, k may be halves, written like 1/2 or -3/2.
"""


@functools.cache
def _shared_parser():
    """The flags every command takes, built once; _reject_ignored reads
    their defaults from it."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--p", type=int, default=3,
                        help="residue characteristic (default 3)")
    shared.add_argument("--n", type=int, default=11,
                        help="coefficient modulus (default 11)")
    shared.add_argument("--sqrt-q", dest="sqrt_q", type=int, default=None,
                        help="square root of q mod n (default 5 on the "
                             "default ring, else unset)")
    shared.add_argument("--level", type=int, default=2,
                        help="sl2coh's congruence level m >= 1 (default 2)")
    shared.add_argument("--precision", type=int, default=6,
                        help="accepted and ignored: every level is "
                             "computed exactly (default 6)")
    shared.add_argument("--k", type=int, default=1,
                        help="congruence depth for orbit counts (default 1)")
    shared.add_argument("--format", choices=("text", "json"), default="text")
    return shared


@functools.cache
def _build_parser():
    """The one parser of this process, built on first use.

    Every main() call shares it, so it must not be mutated; parse_args
    only reads it.  A build costs about as much as a whole level-2
    sl2coh command, so a process that runs many commands pays it once."""
    shared = _shared_parser()
    ap = argparse.ArgumentParser(
        prog="strata-glue",
        description="Desk-scale gluing computations for rank-2 strata.",
        epilog=_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("orbits", parents=[shared],
                   help="classify depth-k congruence orbits on P^1")
    p_coh = sub.add_parser("sl2coh", parents=[shared],
                           help="finite-level cohomology of one model")
    p_coh.add_argument("--rep", required=True, help="rep spec, see below")
    p_glue = sub.add_parser("glue", parents=[shared],
                            help="graded character output of the gluing "
                                 "functor")
    p_glue.add_argument("--slope", choices=("int", "half"), required=True)
    p_glue.add_argument("--rep", required=True, help="rep spec, see below")
    sub.add_parser("verify-all", parents=[shared],
                   help="run every acceptance criterion at desk scale")
    return ap


# --------------------------------------------------------------- commands


def cmd_orbits(args):
    rep = orbit_classification_check(args.k, args.p)
    if args.format == "json":
        out = {f: rep[f] for f in ("k", "m", "orbit_count", "orbits")}
        out.update(command="orbits", status="pass")
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"orbits p={args.p} k={args.k}: count {rep['orbit_count']} "
              f"matches formula {rep['formula_count']} at level {rep['m']}: "
              f"PASS")
    return 0


def _iso_text(factors):
    if not factors:
        return "0"
    return " + ".join(f"Z/{f}" for f in factors)


def cmd_sl2coh(args, ring):
    rep = cohomology_report(rep_model(ring, args.rep, args.level))
    if args.format == "json":
        out = {"command": "sl2coh", "rep": args.rep.strip()}
        out.update(rep)
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"H0 = {_iso_text(rep['H0'])}")
        print(f"H1 = {_iso_text(rep['H1'])}")
    return 0


def _exp_text(e):
    return str(e) if e.denominator == 1 else f"({e})"


def _char_text(c):
    """Render a two-block character as |.|^m d_T^r when exponents allow."""
    e1, e2 = c.chi1.exponent, c.chi2.exponent
    if e1 is None or e2 is None:
        return f"({c.chi1.value},{c.chi2.value})"
    m, r = (e1 + e2) / 2, (e2 - e1) / 2
    parts = []
    if m:
        parts.append(f"|·|^{_exp_text(m)}")
    if r == 1:
        parts.append("δ_T")
    elif r:
        parts.append(f"δ_T^{_exp_text(r)}")
    return " ".join(parts) if parts else "1⊗1"


def cmd_glue(args, ring):
    g = glue(ring, args.slope, args.rep)
    if args.format == "json":
        out = {"command": "glue", "slope": args.slope, "rep": args.rep.strip()}
        out.update(g.to_json())
        print(json.dumps(out, sort_keys=True))
    elif g.is_zero():
        print("0")
    else:
        for d, entry in sorted(g.chars.items()):
            print(f"degree {d}: " + ", ".join(_char_text(c) for c in entry))
    return 0


# ---------------------------------------------------- verification checks

_R11 = (11, 3, 5)
_R7 = (7, 2, 3)


def _check_orbits():
    for p, k in ((2, 1), (2, 2), (3, 1), (3, 2)):
        orbit_classification_check(k, p)
    return {"configs": 4}


def _check_sl2coh():
    cases = 0
    for p in (2, 3):
        for n in (5, 7):
            ring = make_ring(n, p)
            for spec, want in (("triv", ([n], [])),
                               ("ind(0,0)", ([n], [n])),
                               ("st", ([], [n]))):
                rep = cohomology_report(rep_model(ring, spec, 2))
                if (rep["H0"], rep["H1"]) != want:
                    raise RuntimeError(
                        f"sl2coh({spec}) at p={p}, n={n} gave {rep}")
                cases += 1
    return {"cases": cases}


def _check_ps1():
    for n, p, s in (_R11, _R7):
        ps1_acyclicity_check(p, n, s)
    return {"rings": 2}


def _check_jacquet():
    ring = make_ring(*_R11)
    for spec in ("ind(0,0)", "ind(0,1)", "ind(1,0)", "ind(1/2,-1/2)", "st"):
        sym = jacquet_symbolic(ring, spec)
        res = jacquet_oracle(rep_model(ring, spec, 2))
        if res.filtration != tuple(c.values() for c in sym.constituents):
            raise RuntimeError(f"filtration mismatch for {spec}")
        if res.split != sym.split:
            raise RuntimeError(f"split flag mismatch for {spec}")
    return {"specs": 5}


def _vals(g):
    return {d: sorted(c.values() for c in entry)
            for d, entry in g.chars.items()}


def _check_glue_tables():
    r11 = make_ring(*_R11)
    r7 = make_ring(*_R7)
    cases = (
        (r11, "int", "triv", {0: [(1, 1)], 3: [(3, 4)]}),
        (r7, "int", "triv", {0: [(1, 1)], 3: [(2, 4)]}),
        (r11, "int", "absdet^1", {0: [(4, 4)], 3: [(1, 5)]}),
        (r11, "int", "absdet^-1", {0: [(3, 3)], 3: [(9, 1)]}),
        (r11, "int", "absdet^1/2", {0: [(9, 9)], 3: [(5, 3)]}),
        (r11, "int", "absdet^-1/2", {0: [(5, 5)], 3: [(4, 9)]}),
        (r11, "int", "ps(0,1)", {0: [(9, 9)], 1: [(9, 9)]}),
        (r11, "int", "ps(0,0)", {1: [(5, 9)], 2: [(5, 9)]}),
        (r11, "int", "ps(1,0)", {2: [(5, 3)], 3: [(5, 3)]}),
        (r11, "half", "nrd^0", {0: [(1, 1)], 1: [(3, 4)]}),
        (r11, "half", "nrd^1", {0: [(4, 4)], 1: [(1, 5)]}),
        (r7, "half", "nrd^1", {0: [(4, 4)], 1: [(1, 2)]}),
    )
    for ring, slope, spec, want in cases:
        got = _vals(glue(ring, slope, spec))
        if got != want:
            raise RuntimeError(f"glue({slope}, {spec}) = {got}, want {want}")
    for spec in ("ps(0,2)", "ps(3,0)", "ps(0,1/2)", "ps(2,0)", "ps(0,3)"):
        if not glue(r11, "int", spec).is_zero():
            raise RuntimeError(f"generic control {spec} failed to vanish")
    return {"tables": len(cases), "generic_controls": 5}


def _check_cuspidal():
    r7 = make_ring(*_R7)
    if not glue(r7, "int", "cusp:gl2f2-sign").is_zero():
        raise RuntimeError("cuspidal datum glued to something nonzero")
    blob = {"group": "GL2(F2)",
            "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
            "matrices": [[[1]], [[1]]]}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(blob, fh)
        path = fh.name
    try:
        glue(r7, "int", f"cusp:{path}")
    except CuspidalWitnessFailed:
        return {"witnesses": 2}
    finally:
        os.unlink(path)
    raise RuntimeError("non-cuspidal table slipped through the witnesses")


def _check_generators():
    ranks = compact_generator_ranks(1, 3, 11, 1)
    if ranks != {2: 6, 3: 8, 4: 2}:
        raise RuntimeError(f"generator ranks moved: {ranks}")
    count = orbit_classification_check(1, 3)["orbit_count"]
    if ranks[3] != ranks[4] * count:
        raise RuntimeError("generator ranks disagree with the orbit count")
    return {"orbit_count": count}


def _check_tree_balls():
    for p, n in ((2, 7), (3, 11)):
        ring = make_ring(n, p)
        for r in (1, 2, 3):
            ball = bt_ball(p, r)
            ball.check_regular()
            h = ball.homology(ring)
            if iso_class(h[0]) != [n] or iso_class(h[1]) != []:
                raise RuntimeError(f"ball p={p} r={r} is not contractible")
        ball = bt_ball(p, 2)
        if ball.stabilizers[ball.base_edge].kind != "Gamma0":
            raise RuntimeError("base edge stabilizer is not Iwahori")
        for v in ball.vertices:
            w = ball.eta_image(v)
            if w is not None and ball.colors[w] == ball.colors[v]:
                raise RuntimeError(f"eta fixes the color of {v}")
    return {"balls": 6}


def _images(rows, n, width, tables=None):
    """x·rows for every x in (Z/n)^len(rows), in itertools.product order:
    the one enumeration the linear-algebra oracle makes of a case M.  Its
    zero count is |ker M|, which sizes the boxes of fact (b), and fact
    (c) looks H's rows up in it and indexes it by K's (see _check_linalg).
    n is at most 256 and width at most 8: each image is the int whose
    bytes, in native order, are its entries, as _packed packs a row.

    Each column is a bytes string of values, built from the last row to
    the first, so that the first coefficient varies slowest.  An entry b
    maps a column to the concatenation of its n translates by c·b mod n,
    c < n: one bytes.translate table per shift, kept per (n, b) in the
    dict tables, which callers may share."""
    if tables is None:
        tables = {}
    cols = [b"\0"] * width
    for row in reversed(rows):
        grown = []
        for col, b in zip(cols, row):
            table = tables.get((n, b))
            if table is None:
                table = tables[n, b] = [
                    bytes(range(s, n)) + bytes(range(s)) + bytes(256 - n)
                    for s in [c * b % n for c in range(n)]]
            grown.append(b"".join(map(col.translate, table)))
        cols = grown
    packed = bytearray(8 * len(cols[0]))
    for j, col in enumerate(cols):
        packed[j::8] = col
    return memoryview(packed).cast("Q").tolist()


def _packed(row):
    # a checked {column: value} row as _images packs its images
    out = bytearray(8)
    for j, x in row.items():
        out[j] = x
    return int.from_bytes(out, sys.byteorder)


def _box_size(rows, n, width):
    """Points of the box 0 <= x_i < n / gcd(a_i, n), a_i the entry at
    row i's leading column min(row); a zero row has order 1.  0 unless
    every column is in 0..width-1, every value in [1, n) and the leading
    columns of the nonzero rows strictly increase (fact (a))."""
    size, last = 1, -1
    for r in rows:
        if not r:
            continue
        lead = min(r)
        if (lead <= last or max(r) >= width
                or not all(0 < x < n for x in r.values())):
            return 0
        size *= n // math.gcd(r[lead], n)
        last = lead
    return size


def _lists_span(h, images, nker, n, width):
    # facts (a)-(c) of _check_linalg for H: its box lists span(M) once
    return (_box_size(h, n, width) * nker == len(images)
            and all(_packed(r) in images for r in h))


def _lists_kernel(k, images, nker, n, width):
    # facts (a)-(c) for K, of width rows(M): its box lists ker M once; x
    # sits at index sum x_i n^(width-1-i) of the enumeration
    return (_box_size(k, n, width) == nker
            and not any(images[sum(c * n ** (width - 1 - i)
                                   for i, c in r.items())]
                        for r in k))


def _check_linalg(seed):
    """200 seeded cases over Z/n, n <= 9, each checked exhaustively.

    One elimination of M gives its left kernel K and the quotient
    Lambda^cols / span(M), whose relations are the Howell form H of M.
    x·M is enumerated once, for every x: its zeros are ker M, so
    |span M| = n^rows / |ker M|.  H must list span(M) on its box
    0 <= x_i < n / gcd(a_i, n), a_i the entry at row i's leading column,
    once per element, and K must list ker M on its own box.  Neither box
    is enumerated; three facts prove it:

    (a) echelon shape: the leading columns of the nonzero rows strictly
        increase, so x -> x·H is one to one on the box: at the first i
        with x_i != y_i, column lead_i of the difference is
        (x_i - y_i)·a_i != 0 mod n, as every later row is zero there;
    (b) box size: the box has |span M| points (for K, |ker M|);
    (c) rows in place: each row of H is an image, each row of K indexes
        a zero of the enumeration.

    span M and ker M are submodules, so (c) puts the whole box inside
    them, and (a) with (b) makes the box all of them.  On H this is also
    the Howell property: by (a), an element that is zero before column
    lead_i has box coefficients zero before i.  Every row must have its
    columns in range and its values in [1, n) before it is packed or
    indexed.  The iso class of the quotient must multiply out to
    n^cols / |span(M)|."""
    rng = random.Random(seed)
    randint, randrange = rng.randint, rng.randrange
    tables = {}
    for _ in range(200):
        n = randint(2, 9)
        ring = CoeffRing(n, 997)  # matrix layer never consults p
        rows = randint(1, 3)
        cols = randint(1, 3)
        m = LambdaMatrix._reduced(ring, [
            tuple(randrange(n) for _ in range(cols))
            for _ in range(rows)], cols)
        images = _images(m.entries, n, cols, tables)
        nker = images.count(0)
        kern, quot = left_kernel_cokernel(m)
        if not _lists_span(quot.relations.rows, images, nker, n, cols):
            raise RuntimeError("howell form changed the row span")
        if not _lists_kernel(kern.rows, images, nker, n, rows):
            raise RuntimeError("left kernel disagrees with enumeration")
        size = 1
        for f in iso_class(quot):
            size *= f
        if size * len(images) != n ** cols * nker:
            raise RuntimeError("quotient size disagrees with enumeration")
    return {"cases": 200}


_CRITERIA = (
    ("orbit-classification", _check_orbits),
    ("sl2-cohomology", _check_sl2coh),
    ("ps1-acyclicity", _check_ps1),
    ("jacquet-cross-oracle", _check_jacquet),
    ("gluing-tables", _check_glue_tables),
    ("cuspidal-vanishing", _check_cuspidal),
    ("compact-generators", _check_generators),
    ("tree-balls", _check_tree_balls),
    ("linear-algebra", _check_linalg),
)


def cmd_verify_all(args, ring):
    seed = int(os.environ.get("STRATA_GLUE_SEED", "20104"))
    results, failed = [], []
    t_start = time.perf_counter()
    for name, fn in _CRITERIA:
        t0 = time.perf_counter()
        try:
            detail = fn(seed) if fn is _check_linalg else fn()
            entry = {"criterion": name, "status": "pass",
                     "seconds": round(time.perf_counter() - t0, 3)}
            entry.update(detail or {})
        except Exception as exc:  # aggregate; each failure must be listed
            failed.append(name)
            entry = {"criterion": name, "status": "fail",
                     "error": f"{type(exc).__name__}: {exc}"}
        results.append(entry)
    total = round(time.perf_counter() - t_start, 3)
    if args.format == "json":
        print(json.dumps({"command": "verify-all", "seed": seed,
                          "seconds": total, "criteria": results,
                          "failed": failed}, sort_keys=True))
    else:
        for r in results:
            line = f"{r['criterion']}: {r['status'].upper()}"
            if r["status"] == "fail":
                line += f" ({r['error']})"
            print(line)
        print(f"{len(results) - len(failed)}/{len(results)} criteria "
              f"passed in {total}s")
        if failed:
            print("FAILED: " + ", ".join(failed))
    return 3 if failed else 0


# the commands that read a coefficient ring (orbits reads none), each with
# the shared flags it ignores and why
_COMMANDS = {
    "sl2coh": (cmd_sl2coh, ("k",), "counts no orbits"),
    "glue": (cmd_glue, ("k",), "counts no orbits"),
    "verify-all": (cmd_verify_all,
                   ("p", "n", "sqrt_q", "level", "precision", "k"),
                   "runs on its fixed rings"),
}


def _reject_ignored(args, flags, reason):
    """ValueError naming each of flags (by dest) that args sets away from
    its default: a command must not accept a flag it ignores."""
    shared = _shared_parser()
    ignored = [f"--{k.replace('_', '-')}" for k, v in vars(args).items()
               if k in flags and v != shared.get_default(k)]
    if ignored:
        raise ValueError(f"{args.command} {reason} and ignores "
                         f"{', '.join(ignored)}")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # argparse reads "--rep=--" as an empty list of values, not a string
    for k, v in vars(args).items():
        if isinstance(v, list):
            parser.error(f"argument --{k.replace('_', '-')}: "
                         "expected one argument")
    try:
        if args.command == "orbits":
            # the points of P^1 carry no coefficients: no ring is built,
            # and p and k are checked where they are read; --precision
            # stays accepted, as for every command
            _reject_ignored(args, ("n", "sqrt_q", "level"),
                            "works at level 2k with no coefficient ring")
            return cmd_orbits(args)
        sqrt_q = args.sqrt_q
        if sqrt_q is None and (args.p, args.n) == (3, 11):
            sqrt_q = 5
        ring = make_ring(args.n, args.p, sqrt_q)
        command, ignored, reason = _COMMANDS[args.command]
        _reject_ignored(args, ignored, reason)
        return command(args, ring)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
