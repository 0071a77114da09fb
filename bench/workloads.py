"""The benchmark workloads: seeded inputs, the timed call of each op, and its check.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  The op list is fixed by the workload seed and
the op count, and is made of a fixed template of op kinds repeated in
passes, so that every seed runs the same mix and only the numbers in the
inputs change.  Checks come from ``oracle`` and never call ``glattice``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle as O


@dataclass
class Op:
    kind: str
    call: Callable[[], object]  # the timed part
    check: Callable[[object], "str | None"]  # None when the outcome is right


@dataclass(frozen=True)
class Workload:
    name: str
    template: tuple  # op kinds of one pass
    nominal_rate: float  # ops per second at the commit that defined the benchmark
    build: Callable  # (glattice modules, rng, template, passes, workdir) -> list[Op]

    def passes(self, seconds: float, min_ops: int) -> int:
        """Passes over the template: about ``seconds`` of work at the nominal rate."""
        ops = max(min_ops, seconds * self.nominal_rate)
        return max(1, round(ops / len(self.template)))

    def make_ops(self, gl, seed: int, seconds: float, min_ops: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        return self.build(gl, rng, self.template, self.passes(seconds, min_ops), workdir)


def _cli_op(kind: str, cli, argv: list[str], check) -> Op:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run_command(argv)
        return rc, out.getvalue(), err.getvalue()

    return Op(kind, call, check)


def _report(outcome) -> tuple[dict | None, str | None]:
    rc, out, err = outcome
    if rc != 0:
        return None, f"exit code {rc}: {err.strip()[:200]}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as e:
        return None, f"stdout is not JSON: {e}"


def _h1_json(factors) -> dict:
    return {"invariant_factors": list(factors), "free_rank": 0}


# ---------------------------------------------------------------------------
# table: the paper's classification table through the CLI

TABLE_GENUS = 20

# the paper's del Pezzo rows: (case, p, genus of the fixed curve)
DEL_PEZZO_ROWS = (("geiser", 2, 3), ("bertini", 2, 4), ("dp3-p3", 3, 1), ("dp1-p3", 3, 2), ("dp1-p5", 5, 1))


def check_table(genus: int, outcome) -> str | None:
    rep, err = _report(outcome)
    if err:
        return err
    if rep.get("all_passed") is not True:
        return "all_passed is not true"
    rows = rep.get("rows", [])
    expected = [(f"dejonquieres-g{g}", 2, g) for g in range(1, genus + 1)] + list(DEL_PEZZO_ROWS)
    got = [(r.get("case"), r.get("p"), r.get("g")) for r in rows]
    if got != expected:
        return f"rows {got} differ from the table {expected}"
    for r in rows:
        if r["h1"] != _h1_json((r["p"],) * (2 * r["g"])):
            return f"{r['case']}: H^1 = {r['h1']}, expected (Z/{r['p']})^{2 * r['g']}"
        if r.get("passed") is not True:
            return f"{r['case']}: row not passed"
    return None


def build_table(gl, rng, template, passes, workdir) -> list[Op]:
    ops = []
    for _ in range(passes):
        argv = ["verify-table", "--max-genus", str(TABLE_GENUS), "--seed", str(rng.randrange(1 << 31)), "--json"]
        ops.append(_cli_op("verify-table", gl.cli, argv, functools.partial(check_table, TABLE_GENUS)))
    return ops


# ---------------------------------------------------------------------------
# groups: compute and scan on permutation modules, with must-refuse documents

# group name -> (degree of S_n, acts on unordered pairs)
GROUPS = {"S3": (3, False), "S4": (4, False), "S5": (5, False), "S5pairs": (5, True)}

GROUP_TEMPLATE = tuple(
    [("accept", cmd, grp, signed, kind)
     for grp in ("S3", "S4") for signed in (False, True)
     for kind in ("cyclic", "generated", "list") for cmd in ("compute", "scan")]
    + [("accept", cmd, grp, signed, kind)
       for grp in ("S5", "S5pairs") for signed in (False, True)
       for kind in ("cyclic", "generated") for cmd in ("compute", "scan")]
    + [("accept", "compute", "S5", signed, "list") for signed in (False, True)]
    # the must-refuse minority: infinite order, not unimodular, not product-closed
    + [("infinite", "compute", "S3", False, "cyclic"), ("infinite", "scan", "S3", False, "generated"),
       ("singular", "compute", "S4", False, "generated"), ("singular", "scan", "S5", True, "generated"),
       ("unclosed", "compute", "S4", True, "list"), ("unclosed", "scan", "S5", False, "list")]
)

REFUSAL_MESSAGES = {
    "infinite": "group too large or infinite",
    "singular": "not unimodular",
    "unclosed": "not closed under products",
}


@functools.lru_cache(maxsize=None)
def _symmetric_group(degree: int) -> tuple:
    return tuple(O.closure([(1, 0) + tuple(range(2, degree)), tuple(range(1, degree)) + (0,)]))


@functools.lru_cache(maxsize=None)
def _expected(grp: str, signed: bool, gens: tuple, with_subgroups: bool):
    """Shapiro ground truth: (order, h0 rank, H^1, sorted (order, H^1) of cyclic subgroups)."""
    degree, pairs = GROUPS[grp]
    module = O.PermModule(degree, pairs, signed)
    elements = O.closure(list(gens))
    h0, h1 = module.cohomology(elements)
    subs = None
    if with_subgroups:
        subs = sorted((len(c), module.cohomology(c)[1]) for c in O.cyclic_subgroups(elements))
    return len(elements), h0, h1, subs


def check_accept(cmd, grp, signed, kind, gens, doc, outcome) -> str | None:
    rep, err = _report(outcome)
    if err:
        return err
    order, h0, h1, subs = _expected(grp, signed, gens, cmd == "scan")
    if rep.get("input") != doc:
        return "report does not echo the input document"
    if rep.get("h0_rank") != h0:
        return f"H^0 rank {rep.get('h0_rank')}, expected {h0}"
    if rep.get("h1") != _h1_json(h1):
        return f"H^1 = {rep.get('h1')}, expected {_h1_json(h1)}"
    if cmd == "compute":
        method = "cyclic" if kind == "cyclic" else "cocycle"
        if rep.get("group_order") != order or rep.get("method") != method:
            return f"group order {rep.get('group_order')} by {rep.get('method')}, expected {order} by {method}"
        return None
    got = sorted((e["order"], tuple(e["h1"]["invariant_factors"])) for e in rep.get("subgroups", []))
    if got != subs or any(e["h1"]["free_rank"] for e in rep["subgroups"]):
        return "cyclic subgroup entries differ from Shapiro's lemma"
    obstructed = bool(h1) or any(f for _, f in subs)
    if rep.get("obstructed") is not obstructed:
        return f"obstructed = {rep.get('obstructed')}, expected {obstructed}"
    verdict = "stable linearization obstructed" if obstructed else "no obstruction found"
    if rep.get("verdict") != verdict:
        return f"verdict {rep.get('verdict')!r}, expected {verdict!r}"
    return None


def check_refusal(reason, outcome) -> str | None:
    rc, out, err = outcome
    if rc != 1 or out:
        return f"{reason} input: exit code {rc}, expected 1 with no report"
    if REFUSAL_MESSAGES[reason] not in err:
        return f"{reason} input: error {err.strip()[:200]!r} lacks {REFUSAL_MESSAGES[reason]!r}"
    return None


@functools.lru_cache(maxsize=None)
def _by_cycle_type(degree: int) -> tuple:
    """Non-identity elements of S_n grouped by cycle type, in a fixed order."""
    groups: dict = {}
    for g in _symmetric_group(degree)[1:]:
        groups.setdefault(tuple(sorted(len(c) for c in O.cycles(g))), []).append(g)
    return tuple(tuple(groups[t]) for t in sorted(groups))


def _group_doc(rng, slot, pass_index=0):
    """One input document and the check for its outcome.

    A cyclic slot draws its generator from the cycle type the pass index
    selects, so every seed runs the same mix of element orders.
    """
    reason, cmd, grp, signed, kind = slot
    degree, pairs = GROUPS[grp]
    module = O.PermModule(degree, pairs, signed)
    elements = _symmetric_group(degree)
    if reason == "infinite":
        gens = None
        unipotent = O.identity(module.rank)
        unipotent[0][1] = 1
        mats = [unipotent] + ([module.matrix(elements[-1])] if kind == "generated" else [])
    else:
        if kind == "cyclic":
            classes = _by_cycle_type(degree)
            gens = (rng.choice(classes[pass_index % len(classes)]),)
        elif kind == "generated":
            while True:
                gens = tuple(rng.sample(elements, 2))
                if len(O.closure(list(gens))) == len(elements):
                    break
        else:
            gens = tuple(elements[1:3])  # generate S_n; the document lists every element
            listed = list(elements)
            rng.shuffle(listed)
            if reason == "unclosed":
                listed.remove(rng.choice(elements[1:]))
        mats = [module.matrix(g) for g in (listed if kind == "list" else gens)]
        if reason == "singular":
            mats[-1][0] = [2 * x for x in mats[-1][0]]
    p, pinv = O.random_unimodular(rng, module.rank, module.rank)
    mats = [O.matmul(O.matmul(p, m), pinv) for m in mats]
    # the conjugated action preserves P^-T P^-1; list documents carry no form
    gram = O.matmul(O.transpose(pinv), pinv) if kind != "list" and reason != "infinite" else None
    doc = {"rank": module.rank, "gram": gram, "group": {"kind": kind, "matrices": mats, "bound": None}}
    if reason == "accept":
        check = functools.partial(check_accept, cmd, grp, signed, kind, gens, doc)
    else:
        check = functools.partial(check_refusal, reason)
    return doc, check


def build_groups(gl, rng, template, passes, workdir) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i in range(passes * len(template)):
        slot = template[i % len(template)]
        doc, check = _group_doc(rng, slot, i // len(template))
        path = workdir / f"doc{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        kind = f"{slot[1]}:{slot[0]}:{slot[2]}:{slot[4]}"
        ops.append(_cli_op(kind, gl.cli, [slot[1], "--input", str(path), "--json"], check))
    return ops


# ---------------------------------------------------------------------------
# lattice: direct normal-form calls on dense random matrices

ENTRY_BOUND = 20

LATTICE_TEMPLATE = (
    ("kernel_basis", 12, 16),
    ("hermite_form", 16, 16),
    ("smith_form", 16, 16),
    ("subquotient", 10, 14),
    ("char_poly", 28, 28),
)


def _lattice_op(lin, rng, slot) -> Op:
    fn, rows, cols = slot
    a = O.random_matrix(rng, rows, cols, ENTRY_BOUND)
    if fn == "subquotient":
        # A has full row rank; B = R.A with R = U.diag(d).V, so span(A)/span(B) = (+) Z/d_i
        while O.rank_mod(a) < rows:
            a = O.random_matrix(rng, rows, cols, ENTRY_BOUND)
        d = [1] * (rows - 4) + sorted(rng.choice((1, 2, 3)) for _ in range(4))
        for i in range(1, rows):
            d[i] = math.lcm(d[i], d[i - 1])
        u, _ = O.random_unimodular(rng, rows, rows)
        v, _ = O.random_unimodular(rng, rows, rows)
        b = O.matmul(O.matmul(u, [[d[i] * x for x in row] for i, row in enumerate(v)]), a)
        A, B = lin.IntMatrix(a), lin.IntMatrix(b)
        expected = tuple(x for x in d if x > 1)

        def call():
            return lin.subquotient(A, B)

        def check(res):
            if tuple(res.invariant_factors) != expected or res.free_rank:
                return f"subquotient {res}, expected factors {expected}"
            return None

        return Op(fn, call, check)

    A = lin.IntMatrix(a)
    if fn == "kernel_basis":
        return Op(fn, lambda: lin.kernel_basis(A), lambda k: O.check_kernel(a, k.tolists()))
    if fn == "hermite_form":
        return Op(fn, lambda: lin.hermite_form(A), lambda r: O.check_hermite(a, r[0].tolists(), r[1].tolists()))
    if fn == "smith_form":
        return Op(
            fn,
            lambda: lin.smith_form(A),
            lambda s: O.check_smith(a, s.U.tolists(), s.D.tolists(), s.V.tolists(), s.invariant_factors),
        )
    return Op(fn, lambda: lin.char_poly(A), lambda cp: O.check_charpoly(a, cp))


def build_lattice(gl, rng, template, passes, workdir) -> list[Op]:
    return [_lattice_op(gl.intlinalg, rng, template[i % len(template)]) for i in range(passes * len(template))]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("table", ("verify-table",), 0.5, build_table),
        Workload("groups", GROUP_TEMPLATE, 7.5, build_groups),
        Workload("lattice", LATTICE_TEMPLATE, 90.0, build_lattice),
    )
}
