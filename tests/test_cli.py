import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import siegelchi
from siegelchi import (DEFAULT_TAIL_TOL, DEFAULT_TOL, NotLevel2, NotUpperHalfSpace,
                       SingularFactor, TooFewUsable,
                       generator, is_igusa48, is_level2, is_level4,
                       matrix_power, random_igusa48, random_word, serialize,
                       word_to_matrix)
from siegelchi import character, cli
from siegelchi.cli import RunConfig, _build_parser, main

IDENTITY = {"g": 1, "m": [[1, 0], [0, 1]]}
B11 = {"g": 1, "m": [[1, 2], [0, 1]]}
NOT_LEVEL2 = {"g": 1, "m": [[1, 1], [0, 1]]}
SHEAR8 = {"g": 1, "m": [[1, 8], [0, 1]]}
NOT_SP = {"g": 1, "m": [[2, 0], [0, 2]]}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SRC = str(Path(siegelchi.__file__).resolve().parent.parent)


def fresh_env():
    """os.environ with this package's source tree first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}


def run_fresh(*argv, options=(), **kwargs):
    """python [options] -m siegelchi.cli argv in a new process, through entrypoint."""
    return subprocess.run([sys.executable, *options, "-m", "siegelchi.cli", *argv],
                          env=fresh_env(), timeout=120, **{"capture_output": True, **kwargs})


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------

def test_chi_identity(tmp_path, capsys):
    path = write(tmp_path, "m.json", IDENTITY)
    code, out, _ = run(capsys, "chi", "--matrix", path, "--char", "0,0")
    assert code == 0
    data = json.loads(out)
    assert data["exponent"] == 0 and data["phi_mod1"] == "0/8"


def test_chi_b11(tmp_path, capsys):
    path = write(tmp_path, "m.json", B11)
    code, out, _ = run(capsys, "chi", "--matrix", path, "--char", "1,0")
    assert code == 0
    data = json.loads(out)
    assert data["exponent"] == 2
    assert data["symbol"] == "i"
    assert data["value"] == "e(2/8)"
    assert data["phi_mod1"] == "2/8"
    assert data["delta_sign"] == 0


def test_chi_not_level2_exit3(tmp_path, capsys):
    path = write(tmp_path, "m.json", NOT_LEVEL2)
    code, _, err = run(capsys, "chi", "--matrix", path, "--char", "1,0")
    assert code == 3
    assert "mod 2" in err


def test_chi_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "chi", "--matrix", str(bad), "--char", "1,0")
    assert code == 2
    path = write(tmp_path, "m.json", B11)
    code, _, _ = run(capsys, "chi", "--matrix", path, "--char", "1,0,0,0")
    assert code == 2
    code, _, _ = run(capsys, "chi", "--matrix", path, "--char", "a,b")
    assert code == 2
    code, _, _ = run(capsys, "chi", "--matrix", str(tmp_path / "missing.json"),
                     "--char", "1,0")
    assert code == 2
    code, _, _ = run(capsys, "chi", "--matrix", write(tmp_path, "nsp.json", NOT_SP),
                     "--char", "1,0")
    assert code == 2


@pytest.mark.parametrize("payload, argv", [
    ({"g": "x", "m": [[1, 0], [0, 1]]}, ["chi", "--char", "1,0"]),
    ({"g": 1, "m": [[True, False], [False, True]]}, ["member"]),
    (B11, ["chi", "--char", "1,0,1"]),
], ids=["non-integer-g", "boolean-entries", "odd-length-characteristic"])
def test_parse_errors_exit_2_without_traceback(tmp_path, capsys, payload, argv):
    path = write(tmp_path, "m.json", payload)
    code, out, err = run(capsys, *argv, "--matrix", path)
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("payload", [{"g": 5, "m": [[1, 2], [0, 1]]},
                                     {"g": True, "m": [[1, 2], [0, 1]]}],
                         ids=["wrong-g", "boolean-g"])
@pytest.mark.parametrize("argv", [["chi", "--char", "0,0"], ["member"], ["decompose"]],
                         ids=["chi", "member", "decompose"])
def test_declared_g_is_checked_by_every_matrix_reader(tmp_path, capsys, payload, argv):
    path = write(tmp_path, "m.json", payload)
    code, out, err = run(capsys, *argv, "--matrix", path)
    assert code == 2
    assert out == "" and err.startswith("error: ")


UNDECODABLE = {"non-utf8": b'{"g": 1, "m": \xff}', "deep-nesting": b"[" * 100000}


@pytest.mark.parametrize("argv", [["chi", "--char", "1,0"], ["member"], ["decompose"]],
                         ids=["chi", "member", "decompose"])
@pytest.mark.parametrize("content", list(UNDECODABLE.values()), ids=list(UNDECODABLE))
def test_undecodable_json_exits_2_without_traceback(tmp_path, capsys, content, argv):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *argv, "--matrix", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_deeply_nested_json_exits_2_in_a_fresh_process(tmp_path):
    path = tmp_path / "deep.json"
    path.write_bytes(UNDECODABLE["deep-nesting"])
    proc = run_fresh("member", "--matrix", str(path), text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_degree_one(capsys):
    code, out, _ = run(capsys, "table", "--g", "1")
    assert code == 0
    data = json.loads(out)
    assert data["all_match"] is True
    # 3 generators x 4 characteristics
    assert len(data["rows"]) == 12


def test_table_degree_two_has_a12_row(capsys):
    code, out, _ = run(capsys, "table", "--g", "2")
    assert code == 0
    data = json.loads(out)
    rows = [r for r in data["rows"]
            if r["generator"] == "A_12" and r["m"] == [1, 0, 0, 1]]
    assert rows and rows[0]["chi"] == 4  # value -1
    assert all(r["match"] for r in data["rows"])


def test_table_markdown(capsys):
    code, out, _ = run(capsys, "table", "--g", "1", "--markdown")
    assert code == 0
    assert "| generator |" in out
    assert "B_11" in out


# ---------------------------------------------------------------------------
# member
# ---------------------------------------------------------------------------

def test_member_identity(tmp_path, capsys):
    path = write(tmp_path, "m.json", IDENTITY)
    code, out, _ = run(capsys, "member", "--matrix", path)
    assert code == 0
    assert json.loads(out) == {"sp": True, "level2": True, "level4": True,
                               "igusa48": True}


def test_member_shear_by_eight(tmp_path, capsys):
    path = write(tmp_path, "m.json", SHEAR8)
    code, out, _ = run(capsys, "member", "--matrix", path)
    assert code == 0
    assert json.loads(out) == {"sp": True, "level2": True, "level4": True,
                               "igusa48": True}


def test_member_non_symplectic(tmp_path, capsys):
    path = write(tmp_path, "m.json", NOT_SP)
    code, out, _ = run(capsys, "member", "--matrix", path)
    assert code == 0
    data = json.loads(out)
    assert data["sp"] is False and data["level2"] is False


@pytest.mark.parametrize("entries, payload", [
    (NOT_SP["m"], {"sp": False, "level2": False, "level4": False, "igusa48": False}),
    ([[1, 8], [8, 1]], {"sp": False, "level2": True, "level4": True, "igusa48": True}),
    ([[1 + 2**70, 8], [8, 1]], {"sp": False, "level2": True, "level4": True, "igusa48": True}),
])
def test_member_non_symplectic_payload(tmp_path, capsys, entries, payload):
    path = write(tmp_path, "m.json", {"g": 1, "m": entries})
    code, out, _ = run(capsys, "member", "--matrix", path)
    assert code == 0
    assert json.loads(out) == payload


def test_member_agrees_with_library_predicates(tmp_path, capsys):
    mats = []
    for g in (1, 2, 3):
        for seed in range(3):
            mats.append(word_to_matrix(random_word(g, 6, seed)))
            mats.append(random_igusa48(g, seed))
            for kind in "BC":  # near-misses: I mod 4, a diagonal 4 mod 8
                square = matrix_power(generator(kind, seed % g + 1, seed % g + 1, g), 2)
                mats.append(square @ random_igusa48(g, seed))
    seen = set()
    for mat in mats:
        path = write(tmp_path, "m.json", serialize.matrix_to_dict(mat))
        code, out, _ = run(capsys, "member", "--matrix", path)
        assert code == 0
        expected = {"sp": True, "level2": is_level2(mat), "level4": is_level4(mat),
                    "igusa48": is_igusa48(mat)}
        assert json.loads(out) == expected
        seen.add((expected["level4"], expected["igusa48"]))
    assert {(True, True), (True, False), (False, False)} <= seen


def test_member_odd_dimension(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"m": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    code, _, _ = run(capsys, "member", "--matrix", path)
    assert code == 2


# ---------------------------------------------------------------------------
# random
# ---------------------------------------------------------------------------

def test_random_deterministic(capsys):
    code, out1, _ = run(capsys, "random", "--g", "2", "--word-length", "5",
                        "--seed", "9")
    assert code == 0
    code, out2, _ = run(capsys, "random", "--g", "2", "--word-length", "5",
                        "--seed", "9")
    assert out1 == out2
    data = json.loads(out1)
    assert len(data["word"]["letters"]) == 5
    assert len(data["matrix"]["m"]) == 4


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_b11(tmp_path, capsys):
    path = write(tmp_path, "m.json", B11)
    code, out, _ = run(capsys, "decompose", "--matrix", path)
    assert code == 0
    data = json.loads(out)
    assert data["exponents"]["q_diag"] == [1]
    assert data["residual_check"] == "ok"
    assert data["checked_points"] == 4


def test_decompose_not_level2(tmp_path, capsys):
    path = write(tmp_path, "m.json", NOT_LEVEL2)
    code, _, _ = run(capsys, "decompose", "--matrix", path)
    assert code == 3


def test_decompose_inconsistent_kernel_exits_3(tmp_path, capsys, monkeypatch):
    # Exponent recovery checks chi at all 4^g binary rows, so a kernel value off
    # at row 15 = (1, 1, 1, 1), which no probe reads, is a precondition failure.
    kernel = character._chi_rows

    def shifted(mat):
        k, s = kernel(mat)
        k[15] = (k[15] + 1) % 8
        return k, s

    monkeypatch.setattr(character, "_chi_rows", shifted)
    mat = word_to_matrix(random_word(2, 3, 5))
    path = write(tmp_path, "m.json", serialize.matrix_to_dict(mat))
    code, out, err = run(capsys, "decompose", "--matrix", path)
    assert code == 3
    assert out == "" and err.startswith("error: exponents miss chi at 1 of 16")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_run(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--g", "1", "--seed", "42",
                     "--trials", "20", "--no-timestamp",
                     "--output", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["passed"] is True
    assert set(report["suites"]) == {"A_homomorphism", "B_triviality",
                                     "C_numeric", "D_equivalence", "E_phase_congruences"}
    assert "timestamp" not in report


def test_verify_deterministic_reports(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "--g", "1", "--seed", "7",
                         "--trials", "10", "--no-timestamp",
                         "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_timestamp_present_by_default(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    code, _, _ = run(capsys, "verify", "--g", "1", "--trials", "5",
                     "--output", str(out_file))
    assert code == 0
    assert "timestamp" in json.loads(out_file.read_text())


def test_verify_too_tight_tolerance(tmp_path, capsys):
    out_file = tmp_path / "tight.json"
    code, _, _ = run(capsys, "verify", "--g", "1", "--trials", "5",
                     "--tol", "1e-15", "--no-timestamp",
                     "--output", str(out_file))
    assert code == 1  # suite failure, report still written
    report = json.loads(out_file.read_text())
    assert report["suites"]["C_numeric"]["diagnostic"] == "TooTight"
    assert report["passed"] is False


@pytest.mark.parametrize("tol, tight", [("1e-14", False), ("9.9e-15", True)])
def test_verify_tightness_is_read_in_decimal(tmp_path, capsys, tol, tight):
    # tol = 10 tail_tol exactly in decimal is accepted, though 10 * 1e-15 rounds
    # above 1e-14 in binary64; just below it is refused.
    out_file = tmp_path / "tight.json"
    run(capsys, "verify", "--g", "1", "--trials", "5", "--tol", tol, "--tail-tol", "1e-15",
        "--no-timestamp", "--output", str(out_file))
    suite = json.loads(out_file.read_text())["suites"]["C_numeric"]
    assert (suite.get("diagnostic") == "TooTight") == tight


def test_too_tight_at_every_decimal_tenfold():
    # m 10^-e against m 10^-(e+1), m < 100, e <= 16: exactly tenfold, never too
    # tight; one unit less in the last digit of tol always is.
    for m in range(1, 100):
        for e in range(1, 17):
            tail = float(f"{m}e-{e + 1}")
            assert not RunConfig(tol=float(f"{m}e-{e}"), tail_tol=tail).too_tight()
            assert RunConfig(tol=float(f"{10 * m - 1}e-{e + 1}"), tail_tol=tail).too_tight()


def test_verify_reports_every_suite_when_one_raises(capsys, monkeypatch):
    # A sweep that cannot be evaluated is a failed trial (see the next test);
    # any other library error ends its suite, and the other suites still report.
    def not_level2(*args, **kwargs):
        raise NotLevel2("matrix not congruent to I mod 2")

    monkeypatch.setattr(cli, "verify_character", not_level2)
    code, out, _ = run(capsys, "verify", "--trials", "10", "--no-timestamp")
    assert code == 1
    suites = json.loads(out)["suites"]
    assert suites.pop("C_numeric") == {"passed": False,
                                       "error": "matrix not congruent to I mod 2"}
    assert sorted(suites) == ["A_homomorphism", "B_triviality", "D_equivalence",
                              "E_phase_congruences"]
    assert all(suite["passed"] for suite in suites.values())


@pytest.mark.parametrize("error, text", [
    (TooFewUsable, "only 1 theta constants above the floor"),
    (SingularFactor, "c tau + d is numerically singular"),
    (NotUpperHalfSpace, "M tau is not in the Siegel upper half space"),
], ids=["TooFewUsable", "SingularFactor", "NotUpperHalfSpace"])
def test_numeric_trial_below_the_floor_is_a_failure(capsys, monkeypatch, error, text):
    def fails(*args, **kwargs):
        raise error(text)

    monkeypatch.setattr(cli, "verify_igusa_product", fails)
    code, out, _ = run(capsys, "verify", "--trials", "10", "--no-timestamp")
    assert code == 1
    numeric = json.loads(out)["suites"]["C_numeric"]
    assert (numeric["character_trials"], numeric["product_trials"]) == (2, 1)
    assert numeric["failures"] == 1 and numeric["passed"] is False
    assert numeric["max_deviation"] < DEFAULT_TOL   # the character trials still ran
    assert numeric["errors"] == [text]


def test_verify_rejects_bad_config(capsys):
    code, _, _ = run(capsys, "verify", "--trials", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["random", "--g", "0"],
    ["verify", "--word-length", "0"],
    ["verify", "--tol", "nan"],
    ["verify", "--tail-tol", "inf"],
    ["random", "--word-length", "-3"],
], ids=["random-g-0", "word-length-0", "tol-nan", "tail-tol-inf",
        "random-word-length-negative"])
def test_bad_config_exits_2_without_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


IDENTITY7 = {"g": 7, "m": [[int(i == j) for j in range(14)] for i in range(14)]}
ABOVE_CAP = {"chi": ["--char", ",".join(["0"] * 14)], "decompose": [],
             "table": ["--g", "7"], "verify": ["--g", "7", "--trials", "1"]}


@pytest.fixture
def no_tables(monkeypatch):
    def no_basis(g):
        raise AssertionError(f"a 4^{g}-row table was built")

    monkeypatch.setattr(character, "_basis", no_basis)
    monkeypatch.setattr(character, "_chi_map", no_basis)


@pytest.mark.parametrize("command", ABOVE_CAP)
def test_degree_above_the_cap_exits_2(tmp_path, capsys, no_tables, command):
    assert cli.MAX_G == 6
    argv = [command, *ABOVE_CAP[command]]
    if command in ("chi", "decompose"):
        argv += ["--matrix", write(tmp_path, "m.json", IDENTITY7)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err == "error: g = 7 is above 6, the largest degree this command takes\n"


def test_member_and_random_are_not_capped(tmp_path, capsys, no_tables):
    code, out, _ = run(capsys, "member", "--matrix", write(tmp_path, "m.json", IDENTITY7))
    assert code == 0 and json.loads(out)["level2"] is True
    code, out, _ = run(capsys, "random", "--g", "7", "--word-length", "2")
    assert code == 0 and json.loads(out)["matrix"]["g"] == 7


def test_json_is_streamed_in_batches_as_dumps_writes_it(tmp_path, monkeypatch):
    # Far more encoder chunks than one batch: the bytes of json.dumps and a
    # newline, on stdout and to a file, in one write per batch and the newline.
    data = {"rows": [{"m": [i, -i], "k": i % 8} for i in range(2000)], "ok": True}
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    chunks = sum(1 for _ in json.JSONEncoder(indent=2, sort_keys=True).iterencode(data))
    assert chunks > 4 * cli._BATCH
    writes = []

    class Stdout:
        def write(self, part):
            writes.append(part)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Stdout())
    cli._emit_json(data, "-")
    assert "".join(writes) == text and len(writes) == -(-chunks // cli._BATCH) + 1
    cli._emit_json(data, str(tmp_path / "out.json"))
    assert (tmp_path / "out.json").read_text(encoding="utf-8") == text


@pytest.mark.parametrize("argv", [["verify", "--trials", "1"], ["table"]],
                         ids=["verify", "table"])
def test_unwritable_output_exits_2_without_traceback(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--output", str(tmp_path / "missing" / "out.json"))
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("options", [(), ("-u",)], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["table", "--g", "1"], ["table", "--g", "3"]],
                         ids=["short", "long"])
def test_closed_stdout_exits_2_without_traceback(argv, options):
    # Nothing reads the pipe: the first write fails, and so, with fd 1 left as
    # it was, would the flush at shutdown ("Exception ignored ...").
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_fresh(*argv, options=options, stdout=write, stderr=subprocess.PIPE,
                         capture_output=False, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write -: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


# sha256 of the exact suites A, B, D, E of `verify --seed 42 --no-timestamp`,
# plus suite C's pass/fail and counts; C's floats depend on the BLAS build.
GOLDEN_EXACT_SUITES = {
    (1, 100): "cab3f8713ccc89eb4f336f9b238ca1e3e461210a1c75c3b4069f5d7f109885f1",
    (2, 20): "194a8b9e6e1319bb9fe2aa25971899d8e7dd9394fe0bba3dc27724eeb01a3647",
    (3, 10): "9c0f079975fd162e2217491d49740b77eb20aae3b7efd83ce9afc9f3d0255e97",
}


@pytest.mark.parametrize("g, trials", sorted(GOLDEN_EXACT_SUITES))
def test_verify_exact_suites_match_golden_digest(capsys, g, trials):
    code, out, _ = run(capsys, "verify", "--g", str(g), "--trials", str(trials),
                       "--seed", "42", "--no-timestamp")
    assert code == 0
    suites = json.loads(out)["suites"]
    numeric = suites.pop("C_numeric")
    suites["C_numeric"] = {k: numeric[k] for k in
                           ("passed", "failures", "character_trials", "product_trials")}
    digest = hashlib.sha256(json.dumps(suites, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_EXACT_SUITES[g, trials]


def test_table_degree_three_under_five_seconds(capsys):
    import time

    start = time.monotonic()
    code, out, _ = run(capsys, "table", "--g", "3")
    elapsed = time.monotonic() - start
    assert code == 0
    assert json.loads(out)["all_match"] is True
    assert elapsed < 5.0


def test_verify_surfaces_sign_coset_in_report(tmp_path, capsys):
    # the strict-vs-signed membership counts are part of the report contract
    out_file = tmp_path / "d.json"
    code, _, _ = run(capsys, "verify", "--g", "1", "--seed", "42",
                     "--trials", "100", "--no-timestamp",
                     "--output", str(out_file))
    assert code == 0
    suite = json.loads(out_file.read_text())["suites"]["D_equivalence"]
    assert suite["discrepancies_up_to_sign"] == 0
    assert suite["literal_discrepancies"] == suite["sign_coset_elements"]


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------

PARSER_DEFAULTS = {
    "chi": {"matrix": "m.json", "char": "1,0", "output": "-"},
    "table": {"g": 1, "markdown": False, "output": "-"},
    "verify": {"g": 1, "seed": 42, "trials": 100, "word_length": 6, "tol": DEFAULT_TOL,
               "tail_tol": DEFAULT_TAIL_TOL, "no_timestamp": False, "output": "-"},
    "member": {"matrix": "m.json", "output": "-"},
    "random": {"g": 1, "seed": 42, "word_length": 6, "output": "-"},
    "decompose": {"matrix": "m.json", "output": "-"},
}
REQUIRED_FLAGS = {"chi": ["--matrix", "m.json", "--char", "1,0"],
                  "member": ["--matrix", "m.json"], "decompose": ["--matrix", "m.json"]}


def test_parser_keys_and_defaults():
    parser = _build_parser()
    for command, defaults in PARSER_DEFAULTS.items():
        args = vars(parser.parse_args([command, *REQUIRED_FLAGS.get(command, [])]))
        assert callable(args.pop("func"))
        assert args == {"command": command, **defaults}
    args = vars(parser.parse_args(["verify"]))
    assert {name: args[name] for name in asdict(RunConfig())} == asdict(RunConfig())


# sha256 of the six subcommands' --help texts, in PARSER_DEFAULTS order, at
# COLUMNS=80 (Python 3.11 argparse).
GOLDEN_HELP = "48dd8ae0650fd66824c204c689b9a46942f8cead9a4a1ecfe6092c6f3199fed3"


def test_subcommand_help_matches_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for command in PARSER_DEFAULTS:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == GOLDEN_HELP


# ---------------------------------------------------------------------------
# The process: entrypoint, as the console script and python -m run it
# ---------------------------------------------------------------------------

SMALL_VERIFY = ("verify", "--g", "1", "--trials", "5", "--no-timestamp")


def test_process_prints_the_bytes_of_main(capsys):
    code, out, err = run(capsys, *SMALL_VERIFY)
    proc = run_fresh(*SMALL_VERIFY)
    assert code == proc.returncode == 0
    assert proc.stdout == out.encode() and proc.stderr == err.encode() == b""


def test_process_exits_1_on_too_tight_tolerances():
    proc = run_fresh(*SMALL_VERIFY, "--tol", "1e-13", "--tail-tol", "1e-13")
    assert proc.returncode == 1 and proc.stderr == b""
    assert json.loads(proc.stdout)["suites"]["C_numeric"]["diagnostic"] == "TooTight"


def test_process_output_file_holds_the_whole_payload(tmp_path, capsys):
    code, out, _ = run(capsys, *SMALL_VERIFY)
    path = tmp_path / "report.json"
    proc = run_fresh(*SMALL_VERIFY, "--output", str(path))
    assert code == proc.returncode == 0 and proc.stdout == b""
    assert path.read_bytes() == out.encode()


def test_entrypoint_freezes_the_collector_once_after_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == 3 and calls == ["main", "freeze"]


def test_import_and_main_leave_the_callers_collector_alone():
    # In a new process, so that no earlier test has imported the package.
    code = """
import contextlib, gc, io
gc.set_threshold(555, 7, 3)
before = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
import siegelchi.cli
imported = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
with contextlib.redirect_stdout(io.StringIO()):
    siegelchi.cli.main(["verify", "--g", "1", "--trials", "2", "--no-timestamp"])
after = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
print(before == imported == after == (True, (555, 7, 3), 0))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


def test_entrypoint_keeps_atexit_handlers_and_the_final_flush():
    code = """
import atexit, sys
atexit.register(lambda: sys.stderr.write("atexit ran\\n"))
sys.argv = ["siegelchi", "random", "--g", "1", "--seed", "3"]
from siegelchi.cli import entrypoint
entrypoint()
"""
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "atexit ran\n"
    assert json.loads(proc.stdout)["word"]["g"] == 1
