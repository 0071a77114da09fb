import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glattice.cli as cli
from glattice.cli import InputError, parse_input, run_command
from glattice.intlinalg import IntMatrix


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


def test_compute_refuses_generated_unipotent(tmp_path, capsys):
    doc = {"rank": 2, "group": {"kind": "generated", "matrices": [[[1, 1], [0, 1]], [[0, 1], [1, 0]]]}}
    code = run_command(["compute", "--input", write_doc(tmp_path, doc), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "group too large or infinite: closure exceeds 10000" in captured.err


def test_compute_missing_file_exits_1(capsys):
    assert run_command(["compute", "--input", "/does/not/exist.json"]) == 1


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


def test_builtin_dejonquieres_needs_genus(capsys):
    assert run_command(["builtin", "dejonquieres"]) == 1


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


def test_usage_error_maps_to_exit_1(capsys):
    assert run_command(["no-such-command"]) == 1
    assert run_command([]) == 1


def test_help_exits_0(capsys):
    assert run_command(["--help"]) == 0
