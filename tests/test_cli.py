"""End-to-end runs of the command-line front end, in process.

Every case calls cli.main with an argv list and inspects stdout/stderr
plus the exit code.  Only test_one_process_prints_what_fresh_processes_print
shells out, to compare a run of commands in one process with one process
per command.  Frozen renderings follow the same value tables as
test_char_engine.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from strata_glue import cli
from strata_glue.cli import main
from strata_glue.lambda_core import (
    FgModule,
    LambdaMatrix,
    howell_form,
    left_kernel,
    left_kernel_cokernel,
)
from bruteforce import brute_left_kernel, enumerate_p1, howell_box, span_of


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ glue


def test_glue_text_purity(capsys):
    code, out, _ = run(capsys, "glue", "--slope", "int", "--rep", "triv")
    assert code == 0
    assert out.splitlines() == ["degree 0: 1⊗1", "degree 3: δ_T"]


def test_glue_text_half_slope(capsys):
    code, out, _ = run(capsys, "glue", "--slope", "half", "--rep", "nrd^0")
    assert code == 0
    assert out.splitlines() == ["degree 0: 1⊗1", "degree 1: δ_T"]


def test_glue_text_ps_window(capsys):
    code, out, _ = run(capsys, "glue", "--slope", "int", "--rep", "ps(5,5)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("degree 1:")
    assert lines[1].startswith("degree 2:")
    assert "δ_T^(1/2)" in lines[0]


def test_glue_generic_prints_zero(capsys):
    code, out, _ = run(capsys, "glue", "--slope", "int", "--rep", "ps(0,2)")
    assert code == 0
    assert out.strip() == "0"


def test_glue_json_schema_and_values(capsys):
    code, out, _ = run(capsys, "glue", "--format", "json",
                       "--slope", "int", "--rep", "ps(0,0)")
    assert code == 0
    blob = json.loads(out)
    assert blob["command"] == "glue" and blob["slope"] == "int"
    assert set(blob["degrees"]) == {"1", "2"}
    entry = blob["degrees"]["1"][0]
    assert entry["z1"] == {"val": 5, "exp": "-1/2"}
    assert entry["z2"] == {"val": 9, "exp": "1/2"}
    # round-trips
    assert json.loads(json.dumps(blob)) == blob


def test_glue_text_json_numeric_agreement(capsys):
    _, out, _ = run(capsys, "glue", "--format", "json",
                    "--slope", "int", "--rep", "triv")
    blob = json.loads(out)
    assert [e["z1"]["val"] for e in blob["degrees"]["3"]] == [3]
    assert [e["z2"]["val"] for e in blob["degrees"]["3"]] == [4]
    assert blob["degrees"]["0"][0]["z1"]["val"] == 1


def test_glue_cuspidal_prints_zero(capsys):
    code, out, _ = run(capsys, "glue", "--slope", "int",
                       "--rep", "cusp:gl2f2-sign", "--p", "2", "--n", "7")
    assert code == 0
    assert out.strip() == "0"


def test_glue_cuspidal_witness_failure_is_math_error(capsys, tmp_path):
    table = tmp_path / "triv.json"
    table.write_text(json.dumps({
        "group": "GL2(F2)",
        "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
        "matrices": [[[1]], [[1]]]}))
    code, _, err = run(capsys, "glue", "--slope", "int",
                       "--rep", f"cusp:{table}", "--p", "2", "--n", "7")
    assert code == 3
    assert "CuspidalWitnessFailed" in err


def test_glue_missing_cusp_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "glue", "--slope", "int",
                       "--rep", f"cusp:{tmp_path}/absent.json",
                       "--p", "2", "--n", "7")
    assert code == 2


_T = [[1, 1], [0, 1]]


# each blob is malformed in one field; unchecked, these crashed with a
# TypeError (exit 1), or, for bool and float entries, reached the
# witnesses and failed as mathematics (exit 3)
@pytest.mark.parametrize("blob,field", [
    ([1, 2], "cusp table is not a JSON object"),
    ({"group": 5, "generators": [_T], "matrices": [[[1]]]},
     "unrecognized group 5"),
    ({"group": "GL2(F0)", "generators": [_T], "matrices": [[[1]]]},
     "unrecognized group 'GL2(F0)'"),
    ({"group": "GL2(F2)", "generators": [_T]},
     "generators and matrices must be lists"),
    ({"group": "GL2(F2)", "generators": [1, 2], "matrices": [[[1]], [[1]]]},
     "generators[0] is not a list of equally long rows"),
    ({"group": "GL2(F2)", "generators": [[[1, 1], [0, 1], [0, 0]]],
      "matrices": [[[1]]]}, "generators[0] is not 2x2"),
    ({"group": "GL2(F2)", "generators": [_T], "matrices": [1]},
     "matrices[0] is not a list of equally long rows"),
    ({"group": "GL2(F2)", "generators": [[["1", 1], [0, 1]]],
      "matrices": [[[1]]]}, "generators[0] has an entry that is not"),
    ({"group": "GL2(F2)", "generators": [[[1.5, 1], [0, 1]]],
      "matrices": [[[1]]]}, "generators[0] has an entry that is not"),
    ({"group": "GL2(F2)", "generators": [_T, [[True, 0], [1, 1]]],
      "matrices": [[[1]], [[1]]]}, "generators[1] has an entry that is not"),
    ({"group": "GL2(F2)", "generators": [_T], "matrices": [[["x"]]]},
     "matrices[0] has an entry that is not"),
    ({"group": "GL2(F2)", "generators": [_T], "matrices": [[[1.5]]]},
     "matrices[0] has an entry that is not"),
    # the sign table plus a lift of its first generator acting trivially;
    # keyed by residue alone, the later matrix replaced the earlier one and
    # the witnesses failed (exit 3)
    ({"group": "GL2(F2)",
      "generators": [_T, [[1, 0], [1, 1]], [[3, 1], [0, 1]]],
      "matrices": [[[6]], [[6]], [[1]]]},
     "generators[0] and generators[2] agree mod 2"),
], ids=["top-level-list", "int-group", "group-F0", "no-matrices",
        "1-d-generators", "3x2-generator", "1-d-matrices",
        "string-entry", "float-entry", "bool-entry", "string-matrix-entry",
        "float-matrix-entry", "residue-clash"])
def test_glue_malformed_cusp_table_is_usage_error(capsys, tmp_path, blob,
                                                   field):
    table = tmp_path / "bad.json"
    table.write_text(json.dumps(blob))
    code, out, err = run(capsys, "glue", "--slope", "int",
                         "--rep", f"cusp:{table}", "--p", "2", "--n", "7")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: ValueError: {field}"), err


def test_a_large_residue_characteristic_is_factored_by_rho(capsys, tmp_path):
    # the Gamma0 generators need a generator of (Z/p)^*, and _unit_gens
    # factors p - 1 = 2^4 * 202541467 * 123431514397 for it: Pollard rho
    # does so at once, where trial division would take about 2 * 10^8
    # steps; the one-entry table then has no matrix for diag(2, 1)
    p = 100000000000000001597
    table = tmp_path / "one.json"
    table.write_text(json.dumps({"group": f"GL2(F{p})", "generators": [_T],
                                 "matrices": [[[1]]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "glue", "--slope", "int",
                         "--rep", f"cusp:{table}", "--p", str(p), "--n", "11")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "no table entry for residue ((2, 0), (0, 1))" in err


def test_glue_unrepresentable_input_table_is_usage_error(capsys):
    # ind(1,1/2), the contragredient, has an empty table; the input's own
    # table meets exponent 1/4 through a value collision mod 11
    code, out, err = run(capsys, "glue", "--slope", "int",
                         "--rep", "ind(-1,-1/2)")
    assert (code, out) == (2, "")
    assert err == "error: ValueError: exponent 1/4 is not half-integral\n"


# glue, byte for byte: every run of the grid below, its argv, exit code,
# stdout and stderr, hashed into one sha256.  The rings take a prime, a
# prime with no square root of q, p = 5, and two composites with their
# square roots of 3; the specs take every kind, exponents that collide mod
# n (|.|^5 and |.|^0 over Z/11), half and quarter exponents, and malformed
# text.  A change to glue's output restates the digest.
_GLUE_RINGS = (("--n", "11"), ("--n", "7"), ("--n", "13", "--p", "5"),
               ("--n", "143", "--sqrt-q", "82"),
               ("--n", "121", "--sqrt-q", "27"))
_GLUE_SPECS = (
    "triv", " triv ", "st", "cusp:gl2f2-sign",
    *(f"{kind}^{e}" for kind in ("absdet", "nrd")
      for e in ("0", "1", "-1", "2", "5", "1/2", "-3/2")),
    *(f"{kind}({a},{b})" for kind in ("ind", "ps")
      for a, b in ((0, 0), (0, 1), (1, 0), (0, -1), (-1, 0), (1, 1),
                   (0, 2), (3, 0), (5, 5), (0, 5), (5, 6), (-5, -4),
                   ("-1", "-1/2"), ("1/2", "-1/2"), ("-1/2", "1/2"),
                   ("1/2", "3/2"), ("11/2", "9/2"), ("0", "1/2"),
                   ("1/4", "0"))),
    "", "bogus", "ind(1,", "ind(1/0,1)", "nrd^1e3", "absdet^",
    "ps(a,b)", "ind(1,2,3)", "triv2", "nrd^(1)", "ind( 0,1)",
    "absdet^1/3")
_GLUE_SHA256 = (
    "aa6b464f2dc1a1625a333ecb66f49a2d3940f2e82f4ec6b27902c33850d7abd9")


def test_glue_bytes_are_frozen(capsys):
    assert len(_GLUE_SPECS) == 68
    digest = hashlib.sha256()
    for ring, slope, fmt, spec in itertools.product(
            _GLUE_RINGS, ("int", "half"), ("text", "json"), _GLUE_SPECS):
        argv = ["glue", "--slope", slope, "--format", fmt, "--rep", spec,
                *ring]
        digest.update(json.dumps([argv, *run(capsys, *argv)]).encode())
    assert digest.hexdigest() == _GLUE_SHA256


# ---------------------------------------------------------------- sl2coh


def test_sl2coh_steinberg_example(capsys):
    code, out, _ = run(capsys, "sl2coh", "--rep", "st", "--p", "3", "--n", "5")
    assert code == 0
    assert out.splitlines() == ["H0 = 0", "H1 = Z/5"]


def test_sl2coh_trivial_default_ring(capsys):
    code, out, _ = run(capsys, "sl2coh", "--rep", "triv")
    assert code == 0
    assert out.splitlines() == ["H0 = Z/11", "H1 = 0"]


def test_sl2coh_ps_acyclic(capsys):
    code, out, _ = run(capsys, "sl2coh", "--rep", "ps(0,0)",
                       "--p", "3", "--n", "11", "--sqrt-q", "5")
    assert code == 0
    assert out.splitlines() == ["H0 = 0", "H1 = 0"]


def test_sl2coh_json_agrees_with_text(capsys):
    _, out, _ = run(capsys, "sl2coh", "--format", "json",
                    "--rep", "st", "--p", "3", "--n", "5")
    blob = json.loads(out)
    assert blob["H0"] == [] and blob["H1"] == [5]


@pytest.mark.parametrize("rep, forms", [("triv", (True, False)),
                                        ("ind(0,0)", (True, True)),
                                        ("st", (False, True))])
def test_sl2coh_closed_forms_near_1e9(capsys, rep, forms):
    n = 1000000007
    code, out, _ = run(capsys, "sl2coh", "--format", "json", "--rep", rep,
                       "--p", "3", "--n", str(n))
    assert code == 0
    blob = json.loads(out)
    assert (blob["H0"], blob["H1"]) == tuple([n] if f else [] for f in forms)


# ---------------------------------------------------------------- orbits


def test_orbits_pass(capsys):
    code, out, _ = run(capsys, "orbits", "--p", "3", "--k", "1")
    assert code == 0
    assert "count 4" in out and "PASS" in out


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "--format", "json",
                       "--p", "2", "--k", "2")
    blob = json.loads(out)
    assert code == 0
    assert blob["status"] == "pass" and blob["orbit_count"] == 6
    assert set(blob) == {"command", "status", "k", "m", "orbit_count",
                         "orbits"}
    assert blob["command"] == "orbits" and blob["k"] == 2
    assert all(set(o) == {"rep", "size"} for o in blob["orbits"])
    assert (sum(o["size"] for o in blob["orbits"])
            == len(enumerate_p1(2, blob["m"])))


# orbits --format json, byte for byte: literals at (p, k) = (2, 1) and
# (3, 1), and sha256 digests of the CI cases (2, 6), (5, 2), the
# benchmark cases (3, 4), (7, 2), from the ProjPoint-labelled sweep, and
# the large CI cases (3, 5), (2, 8), from the sweep of levels 2k-1 and 2k
_ORBITS_JSON = {
    (2, 1): '{"command": "orbits", "k": 1, "m": 2, "orbit_count": 3, '
            '"orbits": [{"rep": "[1:0]", "size": 2}, {"rep": "[1:1]", '
            '"size": 2}, {"rep": "[0:1]", "size": 2}], "status": "pass"}\n',
    (3, 1): '{"command": "orbits", "k": 1, "m": 2, "orbit_count": 4, '
            '"orbits": [{"rep": "[1:0]", "size": 3}, {"rep": "[1:1]", '
            '"size": 3}, {"rep": "[1:2]", "size": 3}, {"rep": "[0:1]", '
            '"size": 3}], "status": "pass"}\n',
}
_ORBITS_SHA256 = {
    (2, 6): "d67e3b288f4dbcdf425736dc2eba848d4177c7b6f5463ce12559c8ddb485d044",
    (5, 2): "58ed235e4a01fcf912abbf4572c304543cf1160b19484041a00d677cd6ab9c80",
    (3, 4): "461e00ec347d740ea52e9affbd8a6126889098bac08527fe47d425b1d316f65f",
    (7, 2): "3d81885e0c5602e091fc7af2d1a5890b1eecbdfecb4902729449fe514d5317ae",
    (3, 5): "52d902d7e6b7929841fa5c9a39e66b8a04b6aa1519c2c98f1fb3a753e826fd34",
    (2, 8): "911e13b59476870bb6b576baf292bd814b1f67ee05bad5e6137993fd78c22c42",
}


@pytest.mark.parametrize("p,k", [*_ORBITS_JSON, *_ORBITS_SHA256])
def test_orbits_json_bytes_are_frozen(capsys, p, k):
    code, out, _ = run(capsys, "orbits", "--p", str(p), "--k", str(k),
                       "--format", "json")
    assert code == 0
    if (p, k) in _ORBITS_JSON:
        assert out == _ORBITS_JSON[p, k]
    else:
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == _ORBITS_SHA256[p, k]


def test_orbits_nonprime_p_is_usage_error(capsys):
    code, _, err = run(capsys, "orbits", "--p", "4", "--k", "1")
    assert code == 2
    assert "BanalityViolation" in err


# products of two primes near 10^20 and two near 10^14, which Pollard rho
# takes minutes and seconds to split
_SEMIPRIMES = [100000000000000000039 * 300000000000000000053,
               100000000000031 * 100000000000067]


@pytest.mark.parametrize("p", _SEMIPRIMES)
def test_orbits_semiprime_p_is_a_prompt_usage_error(capsys, p):
    start = time.perf_counter()
    code, _, err = run(capsys, "orbits", "--p", str(p), "--k", "1")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert f"residue characteristic {p} is not prime" in err


@pytest.mark.parametrize("argv, want", [
    (("sl2coh", "--rep", "st"), ([], ["n"])),
    (("sl2coh", "--rep", "ind(0,1)"), ([], [])),
    (("glue", "--slope", "int", "--rep", "triv"), None),
])
def test_a_semiprime_modulus_is_never_factored(capsys, argv, want):
    # every column has a unit entry, so the engine never splits n, which
    # Pollard rho would take minutes to do
    n = _SEMIPRIMES[0]
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv, "--n", str(n), "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 0
    if want is not None:
        blob = json.loads(out)
        assert (blob["H0"], blob["H1"]) == tuple(
            [n if x == "n" else x for x in h] for h in want)


@pytest.mark.parametrize("p", [11, 23])
def test_orbits_read_no_coefficient_ring(capsys, p):
    # the default n = 11 is p at p = 11 and divides (p-1)^2(p+1) at
    # p = 23: no orbit reads it
    code, out, err = run(capsys, "orbits", "--p", str(p), "--k", "1",
                         "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["orbit_count"] == p + 1
    code, out, err = run(capsys, "orbits", "--p", str(p), "--k", "1")
    assert (code, err) == (0, "")
    assert f"count {p + 1} matches formula {p + 1}" in out


# ------------------------------------------------------------ exit codes


def test_banality_rejected_before_any_work(capsys):
    code, _, err = run(capsys, "verify-all", "--n", "3", "--p", "2")
    assert code == 2
    assert "BanalityViolation" in err


def test_unparseable_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "glue", "--slope", "int",
                       "--rep", "nonsense(3)")
    assert code == 2


@pytest.mark.parametrize("flag", ["--rep", "--n", "--level", "--k"])
def test_a_flag_set_to_a_bare_separator_is_usage_error(capsys, flag):
    # argparse reads "--x=--" as an empty list of values
    with pytest.raises(SystemExit) as exc:
        main(["sl2coh", "--rep=triv", f"{flag}=--"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().endswith(
        f"error: argument {flag}: expected one argument")


@pytest.mark.parametrize("level", ["0", "-1"])
def test_trivial_model_below_level_one_is_usage_error(capsys, level):
    code, out, err = run(capsys, "sl2coh", "--rep", "triv", "--level", level)
    assert code == 2
    assert out == ""
    assert "ValueError: level must be at least 1" in err


def test_non_half_integral_exponent_prints_a_fraction(capsys):
    code, _, err = run(capsys, "sl2coh", "--rep", "ps(1/3,0)")
    assert code == 2
    assert "exponent 5/6 is not half-integral" in err
    assert "Fraction(" not in err


@pytest.mark.parametrize("spec, message", [
    ("ind(1/0,0)", "exponent '1/0' has denominator 0"),
    ("absdet^0/0", "exponent '0/0' has denominator 0"),
    # Fraction would expand 10^99999999 before any check could run
    ("ps(0,1e99999999)", "exponent '1e99999999' is in exponent notation"),
    ("absdet^1E3", "exponent '1E3' is in exponent notation"),
])
def test_unreadable_exponent_is_usage_error(capsys, spec, message):
    code, out, err = run(capsys, "glue", "--slope", "int", "--rep", spec)
    assert (code, out, err) == (2, "", f"error: ValueError: {message}\n")


def test_precision_exhaustion_has_its_own_exit_code(capsys):
    # models carry no precision budget, so the run that once exhausted it
    # (Uprime fixed points at level + 1 = 3 > precision 2) now succeeds,
    # and no exit code is set aside for exhaustion at any level
    for extra in (("--level", "2", "--precision", "2"), ("--level", "6")):
        code, out, err = run(capsys, "sl2coh", "--rep", "st", *extra)
        assert (code, out, err) == (0, "H0 = 0\nH1 = Z/11\n", "")


def test_precision_exhaustion_message_is_unchanged(capsys):
    # the former exhaustion run prints what the run without --precision
    # prints, and no PrecisionExhausted message on either stream
    argv = ("sl2coh", "--rep", "st", "--level", "2")
    want = run(capsys, *argv)
    got = run(capsys, *argv, "--precision", "2")
    assert got == want == (0, "H0 = 0\nH1 = Z/11\n", "")
    assert "PrecisionExhausted" not in got[1] + got[2]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_glue_accepts_level_and_precision_it_does_not_read(capsys, fmt):
    argv = ("glue", "--slope", "int", "--rep", "triv", "--format", fmt)
    code, out, err = run(capsys, *argv, "--level", "5", "--precision", "3")
    assert (code, err) == (0, "")
    assert out == run(capsys, *argv)[1]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ("sl2coh", "--rep", "st", "--level", "3"),
    ("glue", "--slope", "half", "--rep", "nrd^1"),
    ("orbits", "--p", "2", "--k", "2"),
], ids=lambda argv: argv[0])
def test_precision_changes_no_output(capsys, argv, fmt):
    want = run(capsys, *argv, "--format", fmt)
    assert want[0] == 0
    for precision in ("1", "3", "10"):
        assert run(capsys, *argv, "--format", fmt,
                   "--precision", precision) == want


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_all_rejects_the_flags_it_ignores(capsys, fmt):
    code, out, err = run(capsys, "verify-all", "--format", fmt,
                         "--n", "13", "--p", "5", "--level", "2")
    assert (code, out) == (2, "")
    assert err.strip().endswith(
        "verify-all runs on its fixed rings and ignores --p, --n")
    # a banality violation is still named first
    code, _, err = run(capsys, "verify-all", "--format", fmt,
                       "--n", "3", "--p", "2", "--k", "2")
    assert code == 2 and "BanalityViolation" in err


@pytest.mark.parametrize("flag, value", [
    ("--n", "12"), ("--level", "3"), ("--sqrt-q", "4")])
def test_orbits_rejects_the_flags_it_ignores(capsys, flag, value):
    code, out, err = run(capsys, "orbits", "--p", "3", "--k", "1",
                         flag, value)
    assert (code, out) == (2, "")
    assert err.strip().endswith(
        f"orbits works at level 2k with no coefficient ring and "
        f"ignores {flag}")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ("sl2coh", "--rep", "st"), ("glue", "--slope", "int", "--rep", "triv")])
def test_sl2coh_and_glue_reject_the_depth_they_ignore(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt, "--k", "7")
    assert (code, out) == (2, "")
    assert err.strip().endswith(f"{argv[0]} counts no orbits and ignores --k")
    # the ring is built first, so a banality violation is still named
    code, out, err = run(capsys, *argv, "--format", fmt, "--k", "7",
                         "--n", "3", "--p", "2")
    assert (code, out) == (2, "") and "BanalityViolation" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_orbits_depth_below_one_is_usage_error(capsys, k):
    code, _, err = run(capsys, "orbits", "--k", k)
    assert code == 2
    assert "ValueError: k must be at least 1" in err


def test_help_documents_the_grammar(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "ps(a,b)" in out and "cusp:NAME" in out


# --------------------------------------------- many commands, one process


def test_a_second_main_call_builds_no_parser(capsys, monkeypatch):
    run(capsys, "glue", "--slope", "int", "--rep", "triv")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "sl2coh", "--rep", "st")[0] == 0
    # verify-all reads the shared defaults to reject --n
    assert run(capsys, "verify-all", "--n", "13")[0] == 2
    with pytest.raises(SystemExit):
        main(["glue", "--rep", "triv"])
    assert built == []


# each pair checks that nothing the first command parsed reaches the second:
# its level, its --slope, its modulus
_SEQUENCE = (
    ("sl2coh", "--rep", "ind(0,1)", "--level", "5"),
    ("sl2coh", "--rep", "ind(0,1)"),
    ("glue", "--slope", "half", "--rep", "nrd^1"),
    ("glue", "--rep", "triv"),
    ("sl2coh", "--rep", "ind(0,5)", "--n", "143", "--format", "json"),
    ("verify-all", "--n", "13"),
)


def test_one_process_prints_what_fresh_processes_print(capsys, monkeypatch):
    # argparse wraps usage lines at the terminal width: pin it for both
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    codes = []
    for argv in _SEQUENCE:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "strata_glue.cli", *argv], env=env,
            capture_output=True, encoding="utf-8", timeout=60)
        assert (code, out, err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 0, 2, 0, 2]


# ---------------------------------------------------------------- fuzzing
# every input through main() ends in a result (0) or a usage error (2),
# never in an exception; exit 3 means that mathematics failed, which only a
# well-formed cusp table that is not cuspidal may do


def _is_result_or_usage_error(argv):
    # the output is kept off capsys: hypothesis reruns a test body, and a
    # function-scoped fixture would not be reset between runs
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    witness = err.getvalue().startswith("error: CuspidalWitnessFailed")
    return code in (0, 2) or (code == 3 and witness)


_NUMERAL = st.text(alphabet="0123456789-+/.eE_ ", min_size=1, max_size=6)
_SPEC_STRINGS = st.one_of(
    st.builds("{}({},{})".format, st.sampled_from(["ind", "ps"]),
              _NUMERAL, _NUMERAL),
    st.builds("{}^{}".format, st.sampled_from(["absdet", "nrd"]), _NUMERAL),
    st.sampled_from(["triv", " st ", "cusp:", "cusp:gl2f2-sign", "ind(1,",
                     "ps()", "absdet^", "nrd^^1"]),
    st.text(alphabet="indpsabtrvcu()^,:/-0123456789 ", max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([("glue", "--slope=int"), ("glue", "--slope=half"),
                        ("sl2coh", "--level=1")]),
       _SPEC_STRINGS)
def test_any_rep_spec_is_a_result_or_a_usage_error(command, spec):
    assert _is_result_or_usage_error([*command, f"--rep={spec}"]), spec


_ENTRY = st.one_of(st.integers(-9, 9), st.booleans(),
                   st.sampled_from([1.5, "1", None, 10 ** 30]))
# ragged rows, bool and non-integer entries, no rows at all
_MALFORMED = st.one_of(st.lists(st.lists(_ENTRY, max_size=3), max_size=3),
                       _ENTRY)


def _square(size, entry):
    row = st.lists(entry, min_size=size, max_size=size)
    return st.lists(row, min_size=size, max_size=size)


@st.composite
def _cusp_tables(draw):
    # a table of the documented shape with at most one field spoiled; each
    # generator is a residue matrix mod p, the unit transvection the most
    # likely, lifted outside F_p
    p = draw(st.sampled_from([2, 3]))
    rank = draw(st.integers(1, 2))
    count = draw(st.integers(1, 4))
    residues = sorted(itertools.product(range(p), repeat=4),
                      key=lambda e: e != (1, 1, 0, 1))
    lifted = st.builds(
        lambda e, t: [[e[0] + p * t[0], e[1]], [e[2], e[3] + p * t[1]]],
        st.sampled_from(residues), st.tuples(*[st.integers(-2, 2)] * 2))

    def entries(good):
        # one draw in sixteen is malformed
        return [draw(_MALFORMED if draw(st.sampled_from([False] * 15 + [True]))
                     else good) for _ in range(count)]
    blob = {"group": f"GL2(F{p})",
            "generators": entries(lifted),
            "matrices": entries(_square(rank, st.integers(-9, 9)))}
    spoil = draw(st.sampled_from([None] * 8 + ["group", "generators",
                                               "matrices", "blob"]))
    if spoil == "group":
        blob["group"] = draw(st.sampled_from(
            ["GL2(F4)", "GL3(F2)", "SL2(F2)", "GL2(F1)", 2, None]))
    elif spoil == "blob":
        return draw(st.one_of(st.lists(_MALFORMED, max_size=2), _ENTRY))
    elif spoil:
        blob[spoil] = draw(st.one_of(st.lists(_MALFORMED, max_size=3),
                                     _ENTRY))
    return blob


@settings(max_examples=200, deadline=None)
@given(_cusp_tables(), st.sampled_from([("2", "7"), ("3", "11")]))
def test_any_cusp_table_is_a_result_or_a_usage_error(
        tmp_path_factory, blob, ring):
    table = tmp_path_factory.mktemp("cusp") / "table.json"
    table.write_text(json.dumps(blob))
    assert _is_result_or_usage_error(
        ["glue", "--slope", "int", "--rep", f"cusp:{table}",
         "--p", ring[0], "--n", ring[1]]), blob


# ------------------------------------------------------------ verify-all


def test_verify_all_passes_under_budget(capsys, monkeypatch):
    monkeypatch.setenv("STRATA_GLUE_SEED", "7")
    code, out, _ = run(capsys, "verify-all", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["seed"] == 7
    assert blob["failed"] == []
    assert len(blob["criteria"]) == 9
    assert all(c["status"] == "pass" for c in blob["criteria"])
    assert blob["seconds"] < 60
    details = [{k: v for k, v in c.items() if k != "seconds"}
               for c in blob["criteria"]]
    assert details == [
        {"criterion": "orbit-classification", "status": "pass",
         "configs": 4},
        {"criterion": "sl2-cohomology", "status": "pass", "cases": 12},
        {"criterion": "ps1-acyclicity", "status": "pass", "rings": 2},
        {"criterion": "jacquet-cross-oracle", "status": "pass", "specs": 5},
        {"criterion": "gluing-tables", "status": "pass", "tables": 12,
         "generic_controls": 5},
        {"criterion": "cuspidal-vanishing", "status": "pass",
         "witnesses": 2},
        {"criterion": "compact-generators", "status": "pass",
         "orbit_count": 4},
        {"criterion": "tree-balls", "status": "pass", "balls": 6},
        {"criterion": "linear-algebra", "status": "pass", "cases": 200},
    ]


def test_verify_all_lists_a_failing_criterion_and_runs_the_rest(
        capsys, monkeypatch):
    ran = []

    def broken():
        raise RuntimeError("table moved")

    def after():
        ran.append("after")
        return {"cases": 1}

    monkeypatch.setattr(cli, "_CRITERIA",
                        (("broken", broken), ("after", after)))
    code, out, _ = run(capsys, "verify-all", "--format", "json")
    assert code == 3
    blob = json.loads(out)
    assert blob["failed"] == ["broken"]
    assert blob["criteria"][0] == {"criterion": "broken", "status": "fail",
                                   "error": "RuntimeError: table moved"}
    assert blob["criteria"][1]["status"] == "pass"
    assert blob["criteria"][1]["cases"] == 1
    assert ran == ["after"]

    code, out, _ = run(capsys, "verify-all")
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "broken: FAIL (RuntimeError: table moved)"
    assert lines[1] == "after: PASS"
    assert lines[-1] == "FAILED: broken"
    assert ran == ["after", "after"]


# ------------------------------------------------- linear-algebra oracle


def _unpack(images, width):
    # each image is an int whose bytes, in native order, are its entries
    return [tuple(v.to_bytes(8, sys.byteorder)[:width]) for v in images]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_images_match_brute_force(data):
    n = data.draw(st.one_of(st.sampled_from((4, 8, 9)), st.integers(2, 12)))
    width = data.draw(st.integers(1, 3))
    row = st.one_of(
        st.just((0,) * width),
        st.tuples(*[st.integers(0, n - 1)] * width))
    pool = data.draw(st.lists(row, min_size=1, max_size=4))
    rows = data.draw(st.lists(st.sampled_from(pool), max_size=4))

    xs = list(itertools.product(range(n), repeat=len(rows)))
    packed = cli._images(rows, n, width)
    images = _unpack(packed, width)
    assert images == [
        tuple(sum(c * r[j] for c, r in zip(x, rows)) % n
              for j in range(width))
        for x in xs]
    assert set(images) == span_of(rows, n, width)
    assert {x for x, img in zip(xs, images) if not any(img)} == \
        brute_left_kernel(rows, n)
    # _packed packs a row as _images packs an image
    assert [cli._packed(dict(enumerate(img))) for img in images] == packed


@st.composite
def _box_matrices(draw):
    # at most 10^4 points in (Z/n)^rows and (Z/n)^cols, so that span_of
    # stays quick: 4 x 4 up to n = 9, 3 x 3 at n = 12, 2 x 2 at n = 36
    n = draw(st.sampled_from((4, 6, 8, 9, 12, 36)))
    most = max(k for k in range(1, 5) if n ** k <= 10 ** 4)
    rows = draw(st.integers(1, most))
    cols = draw(st.integers(1, most))
    entry = st.integers(0, n - 1)
    return LambdaMatrix(cli.CoeffRing(n, 997), draw(
        st.lists(st.lists(entry, min_size=cols, max_size=cols),
                 min_size=rows, max_size=rows)))


@settings(max_examples=100, deadline=None)
@given(_box_matrices())
def test_a_howell_box_lists_its_span_once(m):
    # what the oracle relies on: the box 0 <= x_i < n / gcd(pivot_i, n)
    # of a Howell form maps one to one onto its row span
    for h in (howell_form(m), left_kernel(m)):
        box = howell_box(h)
        assert len(box) == len(set(box))
        assert set(box) == span_of(h.entries, m.ring.n, h.cols)


def test_linear_algebra_oracle_passes_at_forty_seeds():
    for seed in range(40):
        assert cli._check_linalg(seed) == {"cases": 200}


def test_linear_algebra_oracle_eliminates_twice_per_case(monkeypatch):
    # one elimination of M gives H, K's rows and the quotient; one more
    # puts K's rows in Howell form
    from strata_glue import lambda_core
    calls, eliminate = [], lambda_core._eliminate

    def counted(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)
    monkeypatch.setattr(lambda_core, "_eliminate", counted)
    assert cli._check_linalg(1) == {"cases": 200}
    assert len(calls) == 2 * 200


def test_linear_algebra_oracle_enumerates_once_per_case(monkeypatch):
    # the boxes of H and K are proved, not enumerated: x·M is the only
    # enumeration a case makes
    calls, images = [], cli._images

    def counted(*args, **kwargs):
        calls.append(1)
        return images(*args, **kwargs)
    monkeypatch.setattr(cli, "_images", counted)
    assert cli._check_linalg(1) == {"cases": 200}
    assert len(calls) == 200


def _patch_engine(monkeypatch, part, fault):
    # the oracle's engine with fault applied to one part of its output:
    # left_kernel_cokernel's quotient relations H ("howell_form") or left
    # kernel K ("left_kernel"), or iso_class's invariant factors
    if part == "iso_class":
        iso = cli.iso_class
        monkeypatch.setattr(cli, "iso_class", lambda q: fault(iso(q)))
        return
    engine = cli.left_kernel_cokernel

    def faulty(m):
        kern, quot = engine(m)
        if part == "left_kernel":
            return fault(kern), quot
        h = fault(quot.relations)
        return kern, FgModule._wrap(h.ring, h.cols, h.rows)
    monkeypatch.setattr(cli, "left_kernel_cokernel", faulty)


def _drop_last_row(m):
    return LambdaMatrix(m.ring, m.rows[:-1], cols=m.cols)


def _keep_the_largest_factor(factors):
    # right on Z/n and on 0, so the other criteria still pass
    return factors[:1]


@pytest.mark.parametrize("part, fault, message", [
    ("howell_form", _drop_last_row, "howell form changed the row span"),
    ("left_kernel", _drop_last_row, "left kernel disagrees with enumeration"),
    ("iso_class", _keep_the_largest_factor,
     "quotient size disagrees with enumeration"),
])
def test_linear_algebra_oracle_catches_a_faulty_engine(
        capsys, monkeypatch, part, fault, message):
    _patch_engine(monkeypatch, part, fault)
    code, out, _ = run(capsys, "verify-all", "--format", "json")
    assert code == 3
    blob = json.loads(out)
    assert blob["failed"] == ["linear-algebra"]
    assert blob["criteria"][-1] == {"criterion": "linear-algebra",
                                    "status": "fail",
                                    "error": f"RuntimeError: {message}"}


def _drop_rows_in_the_span_of_the_others(h):
    # an echelon form with the right span that is not Howell: over Z/4,
    # [[2, 1], [0, 2]] becomes [[2, 1]], whose span also holds (0, 2)
    keep = list(h.entries)
    for r in list(keep):
        others = [s for s in keep if s is not r]
        if r in span_of(others, h.ring.n, h.cols):
            keep = others
    return LambdaMatrix(h.ring, keep, cols=h.cols)


def _double_rows_over_even_n(k):
    # doubling can send a row to zero, as it does in a draw at seed 20104;
    # the oracle must read that row as one of order 1, not fail on it
    if k.ring.n % 2:
        return k
    return LambdaMatrix(k.ring, [{j: 2 * x for j, x in r.items()}
                                 for r in k.rows], cols=k.cols)


def _reverse_rows(m):
    # the same rows, so the same span and box, out of echelon order: no
    # Howell form, and the leading columns decrease
    return LambdaMatrix._sparse(m.ring, m.rows[::-1], m.cols)


def _bump_the_last_column(m):
    # an echelon form with the right pivots, so the right box size, whose
    # first row led by an earlier column gets 1 added in the last column:
    # in most cases no longer in the span
    rows, last = list(m.rows), m.cols - 1
    for i, r in enumerate(rows):
        if r and min(r) < last:
            bumped = {**r, last: (r.get(last, 0) + 1) % m.ring.n}
            rows[i] = {j: x for j, x in bumped.items() if x}
            break
    return LambdaMatrix._sparse(m.ring, rows, m.cols)


def _column_past_the_width(m):
    # a malformed first row: an entry one column past the last; checked
    # before it is packed or used as an index, so the criterion fails with
    # its own message, not an IndexError
    rows = list(m.rows)
    if rows:
        rows[0] = {**rows[0], m.cols: 1}
    return LambdaMatrix._sparse(m.ring, rows, m.cols)


def _unreduced_values(m):
    # a malformed first row: each entry plus n, the same residues out of
    # [1, n)
    rows = list(m.rows)
    if rows:
        rows[0] = {j: x + m.ring.n for j, x in rows[0].items()}
    return LambdaMatrix._sparse(m.ring, rows, m.cols)


@pytest.mark.parametrize("seed", ["1", "20104"])
@pytest.mark.parametrize("part, fault, message", [
    ("howell_form", _drop_rows_in_the_span_of_the_others,
     "howell form changed the row span"),
    ("left_kernel", _double_rows_over_even_n,
     "left kernel disagrees with enumeration"),
    ("howell_form", _reverse_rows, "howell form changed the row span"),
    ("left_kernel", _reverse_rows, "left kernel disagrees with enumeration"),
    ("howell_form", _bump_the_last_column,
     "howell form changed the row span"),
    ("left_kernel", _bump_the_last_column,
     "left kernel disagrees with enumeration"),
    ("howell_form", _column_past_the_width,
     "howell form changed the row span"),
    ("left_kernel", _column_past_the_width,
     "left kernel disagrees with enumeration"),
    ("howell_form", _unreduced_values, "howell form changed the row span"),
    ("left_kernel", _unreduced_values,
     "left kernel disagrees with enumeration"),
])
def test_linear_algebra_oracle_checks_the_howell_box(
        capsys, monkeypatch, seed, part, fault, message):
    monkeypatch.setenv("STRATA_GLUE_SEED", seed)
    _patch_engine(monkeypatch, part, fault)
    code, out, _ = run(capsys, "verify-all", "--format", "json")
    assert code == 3
    blob = json.loads(out)
    assert blob["failed"] == ["linear-algebra"]
    assert blob["criteria"][-1]["error"] == f"RuntimeError: {message}"


_MATRIX_FAULTS = (_drop_last_row, _drop_rows_in_the_span_of_the_others,
                  _double_rows_over_even_n, _reverse_rows,
                  _bump_the_last_column, _column_past_the_width,
                  _unreduced_values)


@settings(max_examples=100, deadline=None)
@given(_box_matrices())
def test_the_box_facts_accept_only_boxes_that_list_the_span_once(m):
    # the oracle's proof pinned against the box it stands in for: wherever
    # facts (a)-(c) accept H or K, the enumerated box lists span(M), resp.
    # ker M, once per element; on the engine's own output they accept
    n, rows, cols = m.ring.n, m.nrows, m.cols
    images = cli._images(m.entries, n, cols)
    nker = images.count(0)
    span = span_of(m.entries, n, cols)
    kernel = brute_left_kernel(m.entries, n)
    kern, quot = left_kernel_cokernel(m)
    h = quot.relations
    assert cli._lists_span(h.rows, images, nker, n, cols)
    assert cli._lists_kernel(kern.rows, images, nker, n, rows)
    for fault in (lambda x: x,) + _MATRIX_FAULTS:
        fh, fk = fault(h), fault(kern)
        if cli._lists_span(fh.rows, images, nker, n, cols):
            box = howell_box(fh)
            assert len(box) == len(span) and set(box) == span
        if cli._lists_kernel(fk.rows, images, nker, n, rows):
            box = howell_box(fk)
            assert len(box) == len(kernel) and set(box) == kernel
