"""End-to-end runs of the command-line front end, in process.

Every case calls cli.main with an argv list and inspects stdout/stderr
plus the exit code; nothing here shells out.  Frozen renderings follow
the same value tables as test_char_engine.
"""

import json

import pytest

from strata_glue.cli import main


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


def test_orbits_nonprime_p_is_usage_error(capsys):
    code, _, err = run(capsys, "orbits", "--p", "4", "--k", "1")
    assert code == 2
    assert "BanalityViolation" in err


# ------------------------------------------------------------ exit codes


def test_banality_rejected_before_any_work(capsys):
    code, _, err = run(capsys, "verify-all", "--n", "3", "--p", "2")
    assert code == 2
    assert "BanalityViolation" in err


def test_unparseable_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "glue", "--slope", "int",
                       "--rep", "nonsense(3)")
    assert code == 2


def test_precision_exhaustion_has_its_own_exit_code(capsys):
    code, _, err = run(capsys, "sl2coh", "--rep", "st",
                       "--level", "2", "--precision", "2")
    assert code == 4
    assert "PrecisionExhausted" in err


def test_help_documents_the_grammar(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "ps(a,b)" in out and "cusp:NAME" in out


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
