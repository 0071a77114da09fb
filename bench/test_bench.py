"""Self-tests of the benchmark: tracer coverage and determinism, checkers, contract.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import oracle as O
import run
import workloads as W
from tracer import MAX_BITS, TARGETS, Tracer

sys.path.insert(0, str(run.SRC))


@pytest.fixture
def gl():
    return run.fresh_import()


def _doc_path(tmp_path, grp, signed, kind, seed=0):
    doc, _ = W._group_doc(random.Random(seed), ("accept", "compute", grp, signed, kind))
    path = tmp_path / f"{grp}-{kind}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _quiet(gl, argv):
    return W._cli_op("cli", gl.cli, argv, None).call()


def test_every_layer_function_records_calls(gl, tmp_path):
    generated = _doc_path(tmp_path, "S3", True, "generated")
    cyclic = _doc_path(tmp_path, "S4", False, "cyclic")
    tracer = Tracer()
    tracer.install()
    try:
        # re-exported names resolve to the same wrapper as the defining module's
        assert gl.kernel_basis is gl.cohomology.kernel_basis is gl.intlinalg.kernel_basis
        gl.picard.verify_row("dejonquieres", genus=2)
        gl.verify_row("dp3-p3", cfg=gl.WeylSearchConfig(seed=0))
        assert _quiet(gl, ["compute", "--input", generated, "--json"])[0] == 0
        assert _quiet(gl, ["scan", "--input", cyclic, "--json"])[0] == 0
        before = tracer.calls["intlinalg.hermite_form"]
        gl.hermite_form(gl.IntMatrix([[2, 4], [3, 5]]))
        assert tracer.calls["intlinalg.hermite_form"] == before + 1
    finally:
        tracer.uninstall()
    missing = [name for name, _, _ in TARGETS if tracer.calls[name] == 0]
    assert not missing, f"no calls recorded for {missing}"
    assert all(tracer.max_bits[name] > 0 for name in MAX_BITS)
    assert all(tracer.self_s[name] > -1e-9 for name, _, _ in TARGETS)  # children nest inside parents
    # uninstall restores every binding
    assert not hasattr(gl.kernel_basis, "__wrapped__")
    assert not hasattr(gl.cohomology.kernel_basis, "__wrapped__")
    assert not hasattr(gl.IntMatrix.__matmul__, "__wrapped__")


def test_errors_counted_once_when_leaving_cohomology(gl):
    unipotent = gl.IntMatrix([[1, 1], [0, 1]])
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(gl.GroupTooLarge):
            gl.h1(gl.GLattice(2, gl.Generated([unipotent], 50)))
    finally:
        tracer.uninstall()
    assert tracer.errors == 1


def test_traced_counts_repeat_exactly(gl, tmp_path):
    # lattice: one pass; groups: the S3 and S4 documents and every refusal of one pass
    for workload, pick in (("lattice", range(5)), ("groups", [*range(24), *range(42, 48)])):
        counts = []
        for _ in range(2):
            ops = W.WORKLOADS[workload].make_ops(gl, 7, 0.01, 1, tmp_path / workload)
            metrics, failures = run.run_traced([ops[i] for i in pick])
            assert not any(failures), [f for f in failures if f]
            counts.append({k: v for k, (v, _) in metrics.items() if k.endswith((".calls", ".max_bits", ".errors"))})
        assert counts[0] == counts[1]
        assert any(counts[0].values())


def test_table_root_spans_cover_op_time(gl):
    argv = ["verify-table", "--max-genus", "3", "--seed", "1", "--json"]
    op = W._cli_op("verify-table", gl.cli, argv, lambda outcome: W.check_table(3, outcome))
    metrics, failures = run.run_traced([op])
    assert not any(failures)
    assert metrics["trace.coverage"][0] >= run.COVERAGE_FLOOR
    assert metrics["cli.run_command.calls"][0] == 1


# ---------------------------------------------------------------------------
# the checkers reject wrong outcomes


def test_oracle_rejects_wrong_normal_forms(gl):
    rng = random.Random(3)
    a = O.random_matrix(rng, 6, 6, 20)
    h, u = (m.tolists() for m in gl.hermite_form(gl.IntMatrix(a)))
    assert O.check_hermite(a, h, u) is None
    u2 = [row[:] for row in u]
    u2[0][0] += 1
    assert O.check_hermite(a, h, u2) is not None

    sf = gl.smith_form(gl.IntMatrix(a))
    args = [a, sf.U.tolists(), sf.D.tolists(), sf.V.tolists(), sf.invariant_factors]
    assert O.check_smith(*args) is None
    assert O.check_smith(*args[:4], tuple(f + 1 for f in sf.invariant_factors)) is not None
    d2 = sf.D.tolists()
    d2[0][1] = 1
    assert O.check_smith(a, sf.U.tolists(), d2, sf.V.tolists(), sf.invariant_factors) is not None

    w = O.random_matrix(rng, 4, 9, 20)
    k = gl.kernel_basis(gl.IntMatrix(w)).tolists()
    assert O.check_kernel(w, k) is None
    assert O.check_kernel(w, k[1:]) is not None
    assert O.check_kernel(w, k + [k[0]]) is not None

    cp = list(gl.char_poly(gl.IntMatrix(a)))
    assert O.check_charpoly(a, cp) is None
    cp[2] += 1
    assert O.check_charpoly(a, cp) is not None


def test_charpoly_mod_matches_berkowitz(gl):
    rng = random.Random(5)
    for n in (1, 2, 5, 9):
        a = O.random_matrix(rng, n, n, 20)
        assert O.charpoly_mod(a) == [c % O.PRIME for c in gl.char_poly(gl.IntMatrix(a))]
    assert O.det([[2, 1], [7, 4]]) == 1
    assert O.rank_mod([[1, 2], [2, 4]]) == 1


def test_shapiro_ground_truth_matches_solver(gl):
    for degree, pairs, signed in ((3, False, False), (4, False, True), (5, True, True)):
        module = O.PermModule(degree, pairs, signed)
        elements = W._symmetric_group(degree)
        h0, h1 = module.cohomology(elements)
        assert h1 == ((2,) if signed else ())
        lattice = gl.GLattice(module.rank, gl.Generated([gl.IntMatrix(module.matrix(g)) for g in elements[1:3]]))
        res = gl.h1(lattice)
        assert (res.h0_rank, res.h1.invariant_factors) == (h0, h1)


def test_table_check_rejects_a_wrong_row(gl):
    outcome = _quiet(gl, ["verify-table", "--max-genus", "2", "--seed", "0", "--json"])
    assert W.check_table(2, outcome) is None
    rep = json.loads(outcome[1])
    rep["rows"][0]["h1"]["invariant_factors"] = [2]
    assert W.check_table(2, (0, json.dumps(rep), "")) is not None
    assert W.check_table(3, outcome) is not None


def test_refusal_check_needs_exit_1_and_the_typed_error():
    assert W.check_refusal("singular", (1, "", "error: group.matrices[1]: not unimodular\n")) is None
    assert W.check_refusal("singular", (0, "{}", "")) is not None
    assert W.check_refusal("unclosed", (1, "", "error: not unimodular\n")) is not None


def test_workload_inputs_repeat_for_a_seed(gl, tmp_path):
    for name in ("groups", "lattice"):
        texts = []
        for _ in range(2):
            wd = tmp_path / name
            ops = W.WORKLOADS[name].make_ops(gl, 3, 0.01, 1, wd)
            if name == "groups":
                texts.append([p.read_text() for p in sorted(wd.iterdir())])
            else:
                texts.append([repr(op.call()) for op in ops])
        assert texts[0] == texts[1]


# ---------------------------------------------------------------------------
# the command-line contract


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_declared_metrics(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice", "--seed", "2", "--seconds", "0.2", "--trace", trace],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in declared[section]]
    for m in declared[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert [w["name"] for w in declared["workloads"]] == list(W.WORKLOADS)
