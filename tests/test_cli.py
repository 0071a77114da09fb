import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import glattice
import glattice.cli as cli
from glattice.cli import InputError, parse_input, run_command
from glattice.intlinalg import FinAbGroup, IntMatrix


SWAP_DOC = {
    "rank": 2,
    "gram": None,
    "group": {"kind": "cyclic", "matrices": [[[0, 1], [1, 0]]], "bound": None},
}


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# --- parse_input -----------------------------------------------------------------


def test_parse_minimal_cyclic_document():
    doc = parse_input('{"rank": 1, "group": {"kind": "cyclic", "matrices": [[[-1]]]}}')
    assert doc.rank == 1
    assert doc.kind == "cyclic"
    assert doc.matrices == (IntMatrix([[-1]]),)
    assert doc.gram is None and doc.bound is None


def test_parse_names_offending_matrix():
    text = json.dumps(
        {"rank": 2, "group": {"kind": "list", "matrices": [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}}
    )
    with pytest.raises(InputError, match=r"group\.matrices\[1\]"):
        parse_input(text)


def test_parse_rejects_non_unimodular():
    text = json.dumps({"rank": 1, "group": {"kind": "cyclic", "matrices": [[[2]]]}})
    with pytest.raises(InputError, match="not unimodular"):
        parse_input(text)


def test_parse_rejects_non_integer_entries():
    text = json.dumps({"rank": 1, "group": {"kind": "cyclic", "matrices": [[[1.5]]]}})
    with pytest.raises(InputError, match="non-integer"):
        parse_input(text)


def test_parse_rejects_bad_kind_and_schema():
    with pytest.raises(InputError, match="group.kind"):
        parse_input('{"rank": 1, "group": {"kind": "weird", "matrices": [[[1]]]}}')
    with pytest.raises(InputError, match="rank"):
        parse_input('{"group": {"kind": "cyclic", "matrices": [[[1]]]}}')
    with pytest.raises(InputError, match="invalid JSON"):
        parse_input("{")
    with pytest.raises(InputError, match="cyclic kind takes exactly one"):
        parse_input('{"rank": 1, "group": {"kind": "cyclic", "matrices": [[[1]], [[-1]]]}}')
    with pytest.raises(InputError, match="^top level: expected an object$"):
        parse_input("[]")
    with pytest.raises(InputError, match="^rank: expected an integer, got True$"):
        parse_input('{"rank": true, "group": {"kind": "cyclic", "matrices": [[[1]]]}}')
    with pytest.raises(InputError, match=r"^group\.matrices\[0\]: row 1 must have 2 entries$"):
        parse_input('{"rank": 2, "group": {"kind": "cyclic", "matrices": [[[1, 0], [0]]]}}')
    with pytest.raises(InputError, match="^group: missing or not an object$"):
        parse_input('{"rank": 1}')
    with pytest.raises(InputError, match=r"^group\.matrices: expected a nonempty list$"):
        parse_input('{"rank": 1, "group": {"kind": "list", "matrices": []}}')


def test_parse_checks_form_preservation():
    text = json.dumps(
        {
            "rank": 2,
            "gram": [[1, 0], [0, -1]],
            "group": {"kind": "cyclic", "matrices": [[[0, 1], [1, 0]]]},
        }
    )
    with pytest.raises(InputError, match="does not preserve"):
        parse_input(text)


@pytest.mark.parametrize(
    "matrices, bound, gram, message",
    [
        # a defective matrix is named before a malformed later one
        ([[[2, 0], [0, 1]], [[1, 0]]], None, None, "group.matrices[0]: not unimodular"),
        ([[[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1.5, 0], [0, 1]]], None, [[1, 0], [0, 1]],
         "group.matrices[1]: does not preserve the gram form"),
        # a malformed matrix is named before a defective later one
        ([[[1, 0]], [[2, 0], [0, 1]]], None, None, "group.matrices[0]: expected 2 rows"),
        # every matrix is named before the bound
        ([[[1, 0], [0, 1]], [[2, 0], [0, 1]]], 0, None, "group.matrices[1]: not unimodular"),
        ([[[1, 0], [0, 1]]], 0, None, "group.bound: must be at least 1"),
    ],
)
def test_parse_reports_the_first_defect_in_document_order(matrices, bound, gram, message, capsys, tmp_path):
    doc = {"rank": 2, "gram": gram, "group": {"kind": "generated", "matrices": matrices, "bound": bound}}
    with pytest.raises(InputError) as err:
        parse_input(json.dumps(doc))
    assert str(err.value) == message
    assert run_command(["compute", "--input", write_doc(tmp_path, doc)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


# --- compute ---------------------------------------------------------------------


def test_compute_swap_action(tmp_path, capsys):
    path = write_doc(tmp_path, SWAP_DOC)
    code = run_command(["compute", "--input", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["h1"]["invariant_factors"] == []
    assert out["h0_rank"] == 1
    assert out["input"] == SWAP_DOC


def test_compute_report_roundtrip(tmp_path, capsys):
    path = write_doc(tmp_path, SWAP_DOC)
    run_command(["compute", "--input", path, "--json"])
    first = capsys.readouterr().out
    echoed = json.loads(first)["input"]
    path2 = write_doc(tmp_path, echoed, "echoed.json")
    run_command(["compute", "--input", path2, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_compute_sign_action_human(tmp_path, capsys):
    doc = {"rank": 1, "group": {"kind": "cyclic", "matrices": [[[-1]]]}}
    path = write_doc(tmp_path, doc)
    code = run_command(["compute", "--input", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "H^1 = (Z/2)" in out


def test_compute_invalid_input_exits_1(tmp_path, capsys):
    path = write_doc(tmp_path, {"rank": 2, "group": {"kind": "cyclic", "matrices": [[[2, 0], [0, 1]]]}})
    code = run_command(["compute", "--input", path])
    assert code == 1
    assert "not unimodular" in capsys.readouterr().err


def test_compute_refuses_a_gram_that_is_not_symmetric(tmp_path, capsys):
    doc = dict(SWAP_DOC, gram=[[1, 1], [0, 1]])
    assert run_command(["compute", "--input", write_doc(tmp_path, doc), "--json"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: gram: not symmetric\n")


def test_json_timing_is_the_last_key_and_only_asked_for(tmp_path, capsys):
    path = write_doc(tmp_path, SWAP_DOC)
    assert run_command(["compute", "--input", path, "--json", "--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert list(timed)[-1] == "timing_ms" and timed["timing_ms"] >= 0
    assert run_command(["compute", "--input", path, "--json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert "timing_ms" not in plain and list(plain) == list(timed)[:-1]


def test_compute_refuses_generated_unipotent(tmp_path, capsys):
    doc = {"rank": 2, "group": {"kind": "generated", "matrices": [[[1, 1], [0, 1]], [[0, 1], [1, 0]]]}}
    code = run_command(["compute", "--input", write_doc(tmp_path, doc), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "group too large or infinite: closure exceeds 10000" in captured.err


QUARTER_TURN = [[0, -1], [1, 0]]  # order 4


@pytest.mark.parametrize(
    "kind, matrices, message",
    [
        ("cyclic", [QUARTER_TURN], "order exceeds 3"),
        ("list", [[[1, 0], [0, 1]], [[-1, 0], [0, -1]], QUARTER_TURN, [[0, 1], [-1, 0]]], "4 > 3"),
        ("generated", [QUARTER_TURN], "closure exceeds 3"),
    ],
)
def test_group_bound_is_honoured_for_every_kind(kind, matrices, message, tmp_path, capsys):
    doc = {"rank": 2, "gram": None, "group": {"kind": kind, "matrices": matrices, "bound": 3}}
    for command in ("compute", "scan"):
        assert run_command([command, "--input", write_doc(tmp_path, doc), "--json"]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: group too large or infinite: {message}\n"
    # the order itself is within the bound
    doc["group"]["bound"] = 4
    assert run_command(["compute", "--input", write_doc(tmp_path, doc), "--json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["group_order"] == 4 and report["input"] == doc


def test_group_bound_above_the_default_admits_a_larger_group(tmp_path, capsys):
    # the signed permutation matrices of S_7 x {+-1}: 10080 elements, above the default 10000
    n = 7
    swap = [[int(i == (1 - j if j < 2 else j)) for j in range(n)] for i in range(n)]
    cycle = [[int(i == (j + 1) % n) for j in range(n)] for i in range(n)]
    minus = [[-int(i == j) for j in range(n)] for i in range(n)]
    doc = {"rank": n, "gram": None, "group": {"kind": "generated", "matrices": [swap, cycle, minus]}}
    assert run_command(["compute", "--input", write_doc(tmp_path, doc), "--json"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: group too large or infinite: closure exceeds 10000\n"
    doc["group"]["bound"] = 20000
    assert run_command(["compute", "--input", write_doc(tmp_path, doc), "--json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["group_order"] == 10080


def test_compute_missing_file_exits_1(capsys):
    assert run_command(["compute", "--input", "/does/not/exist.json"]) == 1


def test_unreadable_input_exits_1(tmp_path, capsys):
    missing = "/does/not/exist.json"
    assert run_command(["compute", "--input", missing]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
    # a directory, and a path through a regular file: typed refusals, not tracebacks
    through_file = os.path.join(write_doc(tmp_path, SWAP_DOC), "input.json")
    for command in ("compute", "scan"):
        for path in (str(tmp_path), through_file):
            assert run_command([command, "--input", path, "--json"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: [Errno ") and path in captured.err


# --- builtin ---------------------------------------------------------------------


def test_builtin_dejonquieres_genus_4(capsys):
    code = run_command(["builtin", "dejonquieres", "--genus", "4", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["h1"]["invariant_factors"] == [2] * 8


def test_builtin_geiser(capsys):
    code = run_command(["builtin", "geiser", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["h1"]["invariant_factors"] == [2] * 6
    assert out["predicted_h1_order"] == 64


# sha256 of the stdout of `builtin <name> --json`, taken while each constructor
# still checked its own action: the reports must not change now that GLattice
# and the closure are the only checks
BUILTIN_SHA256 = {
    ("geiser",): "a2d3ea27821f50472652ab6e86ae28b981b97570821a39d0e2195e3f120e813c",
    ("bertini",): "9d82221f2c3fe93a166fd2443ff4e6ca491ad6afb1e4398288a1476d14498b3d",
    ("dejonquieres", "--genus", "1"): "3149c788662b9c10366be0ac1682f56e2950702eee24caecbd64bd33a4a9e55a",
    ("dejonquieres", "--genus", "2"): "c5f4a72710939a36cdd7b0a0aac95861de31cfd119ef6ce279a524c7b4e694be",
    ("dejonquieres", "--genus", "3"): "513849096d3bdd22686414d5dce99860f6f25cb58b1d90054b11de4d5ead66ab",
    ("dejonquieres", "--genus", "4"): "81d94595ebb6dfac51636fbd789377b261b2cb96286e5dfd57d289df76011306",
}


@pytest.mark.parametrize("args", sorted(BUILTIN_SHA256))
def test_builtin_report_is_byte_identical(args, capsys):
    assert run_command(["builtin", *args, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BUILTIN_SHA256[args]


def test_builtin_dejonquieres_needs_genus(capsys):
    assert run_command(["builtin", "dejonquieres"]) == 1


def test_builtin_refuses_genus_for_geiser_and_bertini(capsys):
    for name in ("geiser", "bertini"):
        assert run_command(["builtin", name, "--genus", "3", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: builtin {name} takes no --genus\n"


def test_builtin_output_feeds_compute(tmp_path, capsys):
    run_command(["builtin", "bertini", "--json"])
    report = json.loads(capsys.readouterr().out)
    path = write_doc(tmp_path, report["input"])
    code = run_command(["compute", "--input", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["h1"]["invariant_factors"] == [2] * 8


# --- search ----------------------------------------------------------------------


def test_search_reports_are_byte_identical(capsys):
    argv = ["search", "--degree", "3", "--prime", "3", "--seed", "7", "--json"]
    assert run_command(argv) == 0
    first = capsys.readouterr().out
    assert run_command(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["seed"] == 7
    assert report["h1"]["invariant_factors"] == [3, 3]


def test_search_exhaustion_exit_code(capsys):
    argv = [
        "search", "--degree", "1", "--prime", "5", "--seed", "0",
        "--max-trials", "10", "--word-min", "2", "--word-max", "2",
    ]
    assert run_command(argv) == 2
    assert "exhausted" in capsys.readouterr().err


def test_search_invalid_parameters_exit_1(capsys):
    assert run_command(["search", "--degree", "2", "--prime", "3"]) == 1
    for argv, message in (
        (["--max-trials", "0"], "max_trials must be at least 1"),
        (["--word-min", "3", "--word-max", "2"], "need 1 <= word_min <= word_max"),
    ):
        capsys.readouterr()
        assert run_command(["search", "--degree", "1", "--prime", "5", *argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_search_refuses_a_large_prime_without_trial_division(capsys):
    # a 61-bit Mersenne prime: p - 1 exceeds 9 - d, so it is refused before any primality test
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["search", "--degree", "1", "--prime", "2305843009213693951"]
    proc = subprocess.run([sys.executable, "-m", "glattice", *argv], capture_output=True, text=True, env=env, timeout=5)
    assert proc.returncode == 1
    assert "is not divisible" in proc.stderr


# --- scan ------------------------------------------------------------------------


def test_scan_sign_action(tmp_path, capsys):
    doc = {"rank": 2, "group": {"kind": "cyclic", "matrices": [[[-1, 0], [0, -1]]]}}
    path = write_doc(tmp_path, doc)
    code = run_command(["scan", "--input", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["obstructed"] is True
    assert out["verdict"] == "stable linearization obstructed"
    assert any(e["h1"]["invariant_factors"] == [2, 2] for e in out["subgroups"])


def test_scan_permutation_module_clean(tmp_path, capsys):
    doc = {
        "rank": 3,
        "group": {"kind": "generated", "matrices": [[[0, 0, 1], [1, 0, 0], [0, 1, 0]]]},
    }
    path = write_doc(tmp_path, doc)
    code = run_command(["scan", "--input", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["obstructed"] is False


# --- verify-table -----------------------------------------------------------------


def test_verify_table_passes(capsys):
    code = run_command(["verify-table", "--max-genus", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 7  # 2 conic rows + 5 del Pezzo rows + summary
    assert "FAIL" not in out
    assert "(Z/2)^6" in out  # the Geiser row


def test_verify_table_json(capsys):
    code = run_command(["verify-table", "--max-genus", "1", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["all_passed"] is True
    cases = [r["case"] for r in out["rows"]]
    assert cases == ["dejonquieres-g1", "geiser", "bertini", "dp3-p3", "dp1-p3", "dp1-p5"]
    geiser = next(r for r in out["rows"] if r["case"] == "geiser")
    assert geiser["h1"]["invariant_factors"] == [2] * 6


def test_verify_table_takes_no_smith_form(monkeypatch, capsys):
    # every row of the table has prime order, so its H^1 comes from two ranks
    import glattice.cohomology as coh
    import glattice.intlinalg as ila

    calls = []
    for module, name in ((ila, "smith_form"), (coh, "subquotient")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    assert run_command(["verify-table", "--max-genus", "20", "--json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["all_passed"] is True
    assert calls == []


def test_verify_table_refuses_a_negative_max_genus(capsys):
    for argv in (["--max-genus", "-3"], ["--max-genus", "-1", "--json"]):
        assert run_command(["verify-table", *argv]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verify-table --max-genus must be at least 0, got {argv[1]}\n"


def test_verify_table_max_genus_0_runs_the_del_pezzo_rows_only(capsys):
    assert run_command(["verify-table", "--max-genus", "0", "--json"]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"] is True
    assert [r["case"] for r in out["rows"]] == ["geiser", "bertini", "dp3-p3", "dp1-p3", "dp1-p5"]


def test_genus_above_the_cap_is_an_input_error(capsys):
    assert cli.MAX_GENUS >= 60  # CI runs verify-table --max-genus 60
    over = str(cli.MAX_GENUS + 1)
    for argv, flag in (
        (["verify-table", "--max-genus", over, "--json"], "verify-table --max-genus"),
        (["builtin", "dejonquieres", "--genus", over, "--json"], "builtin dejonquieres --genus"),
    ):
        assert run_command(argv) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be at most {cli.MAX_GENUS}, got {over}\n"


def test_builtin_dejonquieres_runs_at_the_genus_cap(capsys):
    assert run_command(["builtin", "dejonquieres", "--genus", str(cli.MAX_GENUS), "--json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["h1"]["invariant_factors"] == [2] * (2 * cli.MAX_GENUS)


def test_help_states_the_genus_cap(capsys):
    for command in ("verify-table", "builtin"):
        assert run_command([command, "--help"]) == cli.EXIT_OK
        assert f"at most {cli.MAX_GENUS}" in " ".join(capsys.readouterr().out.split())


# sha256 of the stdout of `verify-table --max-genus 20 --json --seed s`, taken
# before the sparse-aware elimination kernels (zero-skipping row and column
# operations, Bareiss row skips, Hermite reduction before Smith) were
# introduced: the kernels must leave every report byte for byte as it was
VERIFY_TABLE_SHA256 = {
    0: "4aba0bc65cbdf2215d395ada4760d6eb5d2e1765db8cf67fc474c243d24f90b3",
    1: "01762276bd5106e9ebc5dbe27312bdee678f4c54c60e5eb62187e0ecc24bb606",
    2: "79113b22a27e65e55d2b30b9722ab1ded434f4cff0db647e903ec9700467043b",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_TABLE_SHA256))
def test_verify_table_report_is_byte_identical(seed, capsys):
    assert run_command(["verify-table", "--max-genus", "20", "--json", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_TABLE_SHA256[seed]


# sha256 of the stdout of `search --degree d --prime p --seed s --json`, taken
# with the Berkowitz characteristic polynomial: the search accepts a Weyl word
# by its characteristic polynomial on K^perp, and its report carries the
# generator, so these pin the accepted words
SEARCH_SHA256 = {
    (3, 3, 0): "92e6869a22ee64851c4d9c18eeed0a59728c8174a003541b97db07f8c595db48",
    (3, 3, 1): "0437c680bf9dc655be14f76f4bcde14fdd10dc440ffcbcc3ebb9b6943d594f2d",
    (3, 3, 2): "52a58d17fe1403b4eec9971420b0ffbcd4bd57c23edc560d4775ea8fa4e84e84",
    (1, 3, 0): "57f8ba72ee8b9dcb9b03d8666b146f8ab52e8b25ab8c36b58a963870385e3081",
    (1, 3, 1): "c87053177b2f4d90cc77f282f0c4640f3717bbf180a25fc4ea7e7c5816bac699",
    (1, 3, 2): "eb49d55141fb8efc089b763f7418cb1dc4bbcae52c6b824c7a661788cb4d8acc",
    (1, 5, 0): "7a6ffe5527bb8370b83e715e52a299e3680f9986c66a105c088d554ac6622784",
    (1, 5, 1): "4c27b3116d7e644f12abd8e46d16789e6014267e65065ad3450ead85b7581e78",
    (1, 5, 2): "74469adff9e3b3785ee6d17bcbfd41de92e921fc4865329e9f76561b5898f510",
    (2, 2, 0): "d68e1e4dcf61e711cbed660d018e242defbc0efc3fe391216854cb0036fba7e6",
    (2, 2, 1): "785e3c07c1be6c8680d398b8eb2dbd80b8952cd34db8758ca34b4b99edc24847",
    (2, 2, 2): "46e85431e39a87bf591a83a58773820d385e1a5101ca1031067ae83430e6515a",
    (5, 5, 0): "d5a1da69e764ef6195619d9932437c36b64e0d7e647088c2e8ac47491ffc93f5",
    (5, 5, 1): "b0660e9b18e13e4835a8716ef0ff0d325c90c2b97f6817029ca0d28b58c01529",
    (5, 5, 2): "7aab594e26741bc9276d74f16f68553da832fdd0b21d0435c55ba80aaca73321",
}


@pytest.mark.parametrize("degree, prime, seed", sorted(SEARCH_SHA256))
def test_search_report_is_byte_identical(degree, prime, seed, capsys):
    argv = ["search", "--degree", str(degree), "--prime", str(prime), "--seed", str(seed), "--json"]
    assert run_command(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SEARCH_SHA256[degree, prime, seed]


@pytest.mark.parametrize("module", ["glattice", "glattice.cli"])
def test_module_entry_point_matches_run_command(module, capsys):
    argv = ["verify-table", "--max-genus", "1", "--json"]
    assert run_command(argv) == 0
    expected = capsys.readouterr().out
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_verify_table_regression_exits_3(monkeypatch, capsys):
    real = cli.verify_row

    def broken(case, genus=None, cfg=None):
        report = real(case, genus=genus, cfg=cfg)
        if case == "geiser":
            from glattice.picard import Check, RowReport

            return RowReport(
                case=report.case,
                p=report.p,
                g=report.g,
                k2=report.k2,
                model=report.model,
                h1_pic=report.h1_pic,
                h1_q=report.h1_q,
                h0_rank=report.h0_rank,
                predicted_h1_order=report.predicted_h1_order,
                generator=report.generator,
                checks=(Check("H^1(Pic) = (Z/p)^2g", False, "simulated regression"),),
            )
        return report

    monkeypatch.setattr(cli, "verify_row", broken)
    code = run_command(["verify-table", "--max-genus", "1"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL" in out and "simulated regression" in out
    assert hashlib.sha256(_drop_done_line(out).encode("utf-8")).hexdigest() == FAILED_TABLE_SHA256


def test_usage_error_maps_to_exit_1(capsys):
    assert run_command(["no-such-command"]) == 1
    assert run_command([]) == 1


def test_help_exits_0(capsys):
    assert run_command(["--help"]) == 0


# --- scan and compute reports ---------------------------------------------------


def _perm_matrix(images, sign=1):
    # column i carries basis vector i to images[i]
    rows = [[0] * len(images) for _ in images]
    for i, j in enumerate(images):
        rows[j][i] = sign
    return rows


def _action(perm, pairs, signed):
    """The matrix of a permutation of 0..n-1 on Z^n or on the unordered pairs, optionally times its sign."""
    sign = 1
    if signed:
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
    if not pairs:
        return _perm_matrix(perm, sign)
    basis = list(itertools.combinations(range(len(perm)), 2))
    where = {b: k for k, b in enumerate(basis)}
    return _perm_matrix([where[tuple(sorted((perm[i], perm[j])))] for i, j in basis], sign)


def _conjugator(n):
    """A fixed unimodular P (unit upper triangular) and its inverse."""
    p = [[1 if i == j else ((i + 2 * j) % 3 - 1 if j > i else 0) for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in reversed(range(n)):  # back substitution: P.inv = I row by row from the bottom
        for j in range(i + 1, n):
            inv[i] = [a - p[i][j] * b for a, b in zip(inv[i], inv[j])]
    return p, inv


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# (degree, acts on pairs): S_4 and S_5 on Z^n, S_5 on the ten unordered pairs
GOLDEN_GROUPS = {"S4": (4, False), "S5": (5, False), "S5pairs": (5, True)}


def golden_doc(grp, signed, kind):
    """A permutation module, or its sign twist, conjugated by a fixed unimodular matrix."""
    degree, pairs = GOLDEN_GROUPS[grp]
    if kind == "cyclic":  # a 4-cycle in S_4, (0 1)(2 3 4) of order 6 in S_5
        perms = [(1, 2, 3, 0)] if degree == 4 else [(1, 0, 3, 4, 2)]
    elif kind == "generated":  # a transposition and an n-cycle
        perms = [(1, 0) + tuple(range(2, degree)), tuple(range(1, degree)) + (0,)]
    else:
        perms = list(itertools.permutations(range(degree)))
        random.Random(degree).shuffle(perms)
    mats = [_action(p, pairs, signed) for p in perms]
    p, inv = _conjugator(len(mats[0]))
    gram = _matmul(list(map(list, zip(*inv))), inv) if kind != "list" else None  # P^-T P^-1
    return {
        "rank": len(mats[0]),
        "gram": gram,
        "group": {"kind": kind, "matrices": [_matmul(_matmul(p, m), inv) for m in mats], "bound": None},
    }


# sha256 of the stdout of `compute` and `scan` with `--json` on each golden_doc,
# taken before obstruction_scan read powers and conjugates off the walk's
# table: the reports, subgroup entries and their order included, must stay
# byte for byte as they were
GOLDEN_SHA256 = {
    ("compute", "S4", False, "cyclic"): "04a6a4586366875bc56af52ec29e98a153116aefbfe4788ecba36c1e7c707cb1",
    ("compute", "S4", False, "generated"): "5ca081f09af31cf7e2f56886cf79db10c14193ec1b94dd05407cdf665f278f8a",
    ("compute", "S4", False, "list"): "459e84722d1421b89797021659cffbfde2e503702c3ee5e6ad7b5248f4e0add4",
    ("compute", "S4", True, "cyclic"): "283d126f024ac2aaa699f9eb3ea0003951ed054223fbf6b2544938657b71f983",
    ("compute", "S4", True, "generated"): "e8912c75ed861f200c33738b68cc84a449722f9070872b0b7c85b83adc6fac0b",
    ("compute", "S4", True, "list"): "ef759b9046cc333f77dd530971e32a17d36fe66aef9a1438781ae6342a0d1793",
    ("compute", "S5", False, "cyclic"): "eb1f537e4cff5da9e899cdb4a614c74ec0a305cdfff43839bf53eb344da61312",
    ("compute", "S5", False, "generated"): "871dd7cda68c371295f200f8795a6100807c687172fe82a2bf07f68aba3a2ae6",
    ("compute", "S5", False, "list"): "1008c802823111f2aee8c0e33c4a4c7b253e910e474e541dc9710a090c55d8d2",
    ("compute", "S5", True, "cyclic"): "4525e0b86b08e9fa0593a8678e3191f8420ecb19ceacbd12139bba83af4d8e76",
    ("compute", "S5", True, "generated"): "802474da15c18cd83cfbe5f03c7ce3962b9107e82f39da62193d248a53d8742b",
    ("compute", "S5", True, "list"): "c0b395dd7aac4fcf354d6a219d8dd07e44f0cbe9ad1e5a3b9e94f7f01b417ee9",
    ("compute", "S5pairs", False, "cyclic"): "721ecbf2ab42db9ea61472fc5d64ee5b87435d74f723eb616803e7b71e7f6759",
    ("compute", "S5pairs", False, "generated"): "b5c04dd2363343f4b8f2b990822a3c09c50aa57528e61e4619eddf255310412c",
    ("compute", "S5pairs", False, "list"): "11f85539a62a433dc044a23586e6d7cbfa6a206d66c565617f99ef673a36bc03",
    ("compute", "S5pairs", True, "cyclic"): "b4b199e24150b3b075b350f151185f6609439b8bdf979421a6867a4cad762762",
    ("compute", "S5pairs", True, "generated"): "e632ed22a977ac2725fcb7623210ebc18a6b0d39ab51f2108788bbe80ac687aa",
    ("compute", "S5pairs", True, "list"): "bd7009fbb14730cb2cb1cab6e20cc506f5bc6145fed3613c766484e422cb9823",
    ("scan", "S4", False, "cyclic"): "74397cac18489e4237c61960a920c69d92bffd20c4f95afabf4a2958692a7ace",
    ("scan", "S4", False, "generated"): "6fa4aa8410db73189aa803f5d5b2ed216e16e434054aaeff56989607f4839fd4",
    ("scan", "S4", False, "list"): "b9cc50f92068d1080c411600d93978b64640765324d9c053df5de5d069f4d2a9",
    ("scan", "S4", True, "cyclic"): "54f93e79c6f25b8bf694b8554d7d58e5a524eada849e37309e8706f63f565ed3",
    ("scan", "S4", True, "generated"): "a978156fefab4db9120063078e5cfa6345307fd930be8f7f6c977d232bcaf7b8",
    ("scan", "S4", True, "list"): "4b012fb46412fac9d20fe14077fec15e6ba05ece8209461cdee95a9a285de185",
    ("scan", "S5", False, "cyclic"): "a047e68b5adbadf046b4599a93aeb8538ba8f5af7137fbbc95d725d330e9abae",
    ("scan", "S5", False, "generated"): "7bd8331edf645dba469c2e7ac515f0c47502d707027df413e61359fb153f9534",
    ("scan", "S5", False, "list"): "ddfdc4668d894d6936bd0716efb2fb817382306009d41bd4621d96ba0816b6fa",
    ("scan", "S5", True, "cyclic"): "d6f547afaf465727f0b4950260b1ec1971667a2e0d4e2f79821dbe3e8ffb2883",
    ("scan", "S5", True, "generated"): "1acd7bf636de22bd4da3c1b9d2c6ce509cf5a519a276cde9ecb88cdedd5326e7",
    ("scan", "S5", True, "list"): "ed8ef9fde73376d1591997b198acf133d27d98597374464287403fc16bb75ddf",
    ("scan", "S5pairs", False, "cyclic"): "aefb34175e413bb705891dd28f600395c7a284f1b920941b508bb6bb553fe4f1",
    ("scan", "S5pairs", False, "generated"): "98355d536ac9b187d301bd9943029766f3484d6575cc7b0c5da9b7adfe1ee728",
    ("scan", "S5pairs", False, "list"): "0ba1d3438bbd8b968bcd64adbd1f0c0e0534de2944ab47f7147ef1c845a6627f",
    ("scan", "S5pairs", True, "cyclic"): "e11f6162899fca6878069e1076b731f813e365272a44aa2913d7b90fa27e4561",
    ("scan", "S5pairs", True, "generated"): "a526297f88725d4d5969139d3f2bacc862a7c428d8ce02f51c899db391e9d20f",
    ("scan", "S5pairs", True, "list"): "ae79908ae06fac1ebd004befeb5a4944174dabedafdf0e37dc30b356f05a4ca1",
}


@pytest.mark.parametrize("command, grp, signed, kind", sorted(GOLDEN_SHA256))
def test_group_reports_are_byte_identical(command, grp, signed, kind, tmp_path, capsys):
    path = write_doc(tmp_path, golden_doc(grp, signed, kind))
    assert run_command([command, "--input", path, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SHA256[command, grp, signed, kind]


# sha256 of the human reports (no `--json`), their closing `done in N ms` line dropped, taken
# while each subcommand still timed and printed its own report; `{golden}` is the sign-twisted
# S_4 generated golden_doc
TEXT_SHA256 = {
    "verify-table --max-genus 3": "fe99f435b23ebfbad49ab7cbd8520142af431dc3523997793e93544009526b58",
    "compute --input {golden}": "170dca12e8383bf0d7f000c25297acf9ff26b227b2cbd795e12a9ddc8ee715de",
    "scan --input {golden}": "d7c2127d49252a93aa847400dd92f168ec5146bbe5c081706bb94cc2791a72e5",
    "builtin geiser": "ca620972433fff5e8b796984296d5bb7d1d08038a585130385f37123c10d036d",
    "builtin dejonquieres --genus 2": "18f4301d1a4e90549737f62d51ea858d1881774943e849d5b5c2f623209c8051",
    "search --degree 3 --prime 3 --seed 0": "49295eaaa99802dab727add140d5c4767bda162f9bc917d7e196665f2ecae64d",
}
# the same for the table with the Geiser row failing in test_verify_table_regression_exits_3
FAILED_TABLE_SHA256 = "2a1d9b0f1c2a2c97df760ecec2701052efcc59724216c8a4f86675bbf254744b"


def _drop_done_line(out: str) -> str:
    body, done = out.removesuffix("\n").rsplit("\n", 1)
    assert re.fullmatch(r"done in \d+ ms", done), done
    return body + "\n"


@pytest.mark.parametrize("command", sorted(TEXT_SHA256))
def test_text_reports_are_byte_identical(command, tmp_path, capsys):
    path = write_doc(tmp_path, golden_doc("S4", True, "generated"))
    assert run_command([arg.format(golden=path) for arg in command.split()]) == 0
    out = _drop_done_line(capsys.readouterr().out)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TEXT_SHA256[command]


def test_json_scan_formats_no_text_report(tmp_path, monkeypatch, capsys):
    # S_5 on pairs has 67 cyclic subgroups; a JSON report formats an H^1 only for a witness line
    formatted = []
    real = FinAbGroup.__str__
    monkeypatch.setattr(FinAbGroup, "__str__", lambda g: formatted.append(g) or real(g))
    for signed in (False, True):
        formatted.clear()
        path = write_doc(tmp_path, golden_doc("S5pairs", signed, "generated"))
        assert run_command(["scan", "--input", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["subgroups"]) == 67
        assert len(formatted) <= len(report["witnesses"])


def test_text_scan_builds_no_json_report(tmp_path, monkeypatch, capsys):
    # the JSON report's H^1 entries, one per cyclic subgroup and one for the group, are built only for --json
    calls = []
    real = cli._h1_json
    monkeypatch.setattr(cli, "_h1_json", lambda g: calls.append(g) or real(g))
    path = write_doc(tmp_path, golden_doc("S5pairs", False, "generated"))
    assert run_command(["scan", "--input", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 67 + 3
    assert calls == []


# sha256 of the exit code, stdout and stderr of each of the 240 `groups`
# benchmark ops (five passes of its 48-op template) at seeds 1 and 11, taken
# before the walk composed permutations: every report and refusal must stay
# byte for byte as it was
GROUPS_OPS_SHA256 = {
    1: "382cf50d11fcbb7cb78bdb0522480cb3d9aa8b9e19e3daaebaf0ccce277c8982",
    11: "a68d2f966d67323ef8f041fc3ea7c1808083bede80b9d51994a43f89c322e6ea",
}


@pytest.mark.parametrize("seed", sorted(GROUPS_OPS_SHA256))
def test_groups_benchmark_outcomes_are_byte_identical(seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    ops = workloads.WORKLOADS["groups"].make_ops(glattice, seed, 0, 240, tmp_path)
    digest = hashlib.sha256()
    for op in ops:
        rc, out, err = op.call()
        digest.update(json.dumps([rc, out, err]).encode("utf-8"))
    assert len(ops) == 240
    assert digest.hexdigest() == GROUPS_OPS_SHA256[seed]


WEYL_E6_DOC = Path(__file__).resolve().parent / "data" / "weyl_e6_generated.json"


def test_weyl_e6_document_closes(capsys):
    # the six simple reflections of E_6 on Pic of a cubic surface, with bound 60000
    assert run_command(["compute", "--input", str(WEYL_E6_DOC), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["group_order"], report["h0_rank"], report["h1"]) == (
        51840, 1, {"invariant_factors": [], "free_rank": 0})


# sha256 of `scan --json` on WEYL_E6_DOC, taken while the walk kept a log of its products
WEYL_E6_SCAN_SHA256 = "877cfcf5002b57d0c97fda0369f5ac284a728be8f842fc93264626f605578967"


def test_weyl_e6_scan_is_byte_identical(capsys):
    # every cyclic subgroup of W(E6) on Pic of a cubic surface, about 0.5 s on 2 x86_64 cores; the
    # nonzero H^1 are two of Swinnerton-Dyer's values for cubic surfaces, (Z/2)^2 and (Z/3)^2
    assert run_command(["scan", "--input", str(WEYL_E6_DOC), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == WEYL_E6_SCAN_SHA256
    report = json.loads(out)
    assert len(report["subgroups"]) == 18074 and report["obstructed"] is True
    nonzero = Counter((e["order"], tuple(e["h1"]["invariant_factors"]), e["h1"]["free_rank"])
                      for e in report["subgroups"] if e["h1"] != {"invariant_factors": [], "free_rank": 0})
    assert nonzero == {(2, (2, 2), 0): 45, (4, (2, 2), 0): 270, (6, (2, 2), 0): 720, (3, (3, 3), 0): 40}


def test_generated_scan_builds_one_matrix_per_class(tmp_path, monkeypatch, capsys):
    # a generated walk builds an element's matrix only when it is read (``_Walk.element``): a scan
    # reads one per conjugacy class of cyclic subgroups, at most W(E6)'s 25 (Carter) and S_5's 7,
    # and compute reads none; the W(E6) scan composes permutations (``_Walk.product``) to walk each
    # cyclic subgroup's powers and to conjugate one generator per subgroup by each of the six
    # generators, 319,523 compositions, where a table of the conjugates of every element took 724,715
    import dataclasses

    import glattice.cohomology as coh

    read, composed = [], []
    walk_of = coh._closed_walk

    def spied(*args, **kwargs):
        walk = walk_of(*args, **kwargs)
        return walk and dataclasses.replace(walk, element=lambda i: read.append(i) or walk.element(i),
                                            product=lambda x, y: composed.append(1) or walk.product(x, y))

    monkeypatch.setattr(coh, "_closed_walk", spied)
    pairs = [write_doc(tmp_path, golden_doc("S5pairs", signed, "generated"), f"pairs{signed}.json")
             for signed in (False, True)]
    for command, path, most in (("scan", WEYL_E6_DOC, 25), ("scan", pairs[0], 7), ("scan", pairs[1], 7),
                                ("compute", WEYL_E6_DOC, 0), ("compute", pairs[1], 0)):
        read.clear()
        composed.clear()
        assert run_command([command, "--input", str(path), "--json"]) == 0
        # each element read once; the scan's representatives are read through the spy
        assert len(set(read)) == len(read) <= most and bool(read) == (command == "scan"), (command, path)
        if (command, path) == ("scan", WEYL_E6_DOC):
            assert len(composed) <= 330_000


CYCLIC_RANK81_DOC = Path(__file__).resolve().parent / "data" / "cyclic_rank81_order3603600.json"
REDUNDANT_DOC = Path(__file__).resolve().parent / "data" / "s5_pairs_signed_listed_twice.json"

# sha256 of the `--json` reports on REDUNDANT_DOC, taken when Ω was the union of every basis
# vector's orbit and each of the 240 listed matrices imaged all of it (0.86 and 0.84 s in process)
REDUNDANT_SHA256 = {
    "compute": "c7bc9268962dd0d19965d5fdddab1e012eb8910278eb9bf90ac8b6c636b9cfd3",
    "scan": "54b1ce78b0e648c7342756094f1d0648b71e71bc960b21de09cd74eb8e32cd72",
}


@pytest.mark.parametrize("command", sorted(REDUNDANT_SHA256))
def test_redundant_generators_are_walked_quickly(command, capsys):
    # all 120 elements of the sign-twisted S_5 on pairs, each listed twice and unimodularly
    # conjugated: about 0.2 s on 2 x86_64 cores, where Ω is a few orbits that span; the
    # bound fails a return to imaging the union of the basis orbits only on a much slower machine
    start = time.perf_counter()
    assert run_command([command, "--input", str(REDUNDANT_DOC), "--json"]) == 0
    assert time.perf_counter() - start < 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REDUNDANT_SHA256[command]


def test_large_cyclic_order_is_refused_quickly():
    # a rank-81 permutation matrix with cycles 16, 9, 25, 7, 11 and 13, of order 3,603,600: refused at the
    # default bound after 10,000 packed residue products, about 0.2 s on 2 x86_64 cores (8 s with residue
    # matrix products); the timeout fails a return to that cost only on a much slower machine
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["compute", "--input", str(CYCLIC_RANK81_DOC), "--json"]
    proc = subprocess.run([sys.executable, "-m", "glattice", *argv], capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: group too large or infinite: order exceeds 10000\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.lists(st.integers()),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@given(JSON_VALUES)
def test_indented_json_matches_json_dumps(value):
    assert cli._indented_json(value) == json.dumps(value, indent=2)
