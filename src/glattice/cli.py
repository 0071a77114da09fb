"""Command-line frontend.

Subcommands:

* ``verify-table``: run every built-in case (de Jonquieres for a genus
  range, Geiser, Bertini and the three searched prime-order actions) and
  print one row per case in the classification-table layout.
* ``compute``: H^0 rank and H^1 for a user-supplied action read from a JSON
  document.
* ``builtin``: the named built-in actions.
* ``search``: randomized Weyl search for a prime-order action.
* ``scan``: H^1 over the full group and all cyclic subgroups, with the
  stable-linearization verdict.

Exit codes: 0 success, 1 invalid input or schema, 2 search exhausted,
3 a verification check failed.

Machine reports (``--json``) are deterministic: fields appear in a fixed
order and timing is included only when ``--timing`` is passed, so equal
inputs (and equal seeds) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii

from .cohomology import (
    DEFAULT_ORDER_BOUND,
    Cyclic,
    Explicit,
    Generated,
    GLattice,
    GroupSpec,
    ValidationError,
    h1,
    obstruction_scan,
)
from .intlinalg import FinAbGroup, IntMatrix
from .picard import (
    DEL_PEZZO_CASES,
    SearchExhausted,
    WeylSearchConfig,
    bertini_involution,
    charpoly_order,
    dejonquieres,
    geiser_involution,
    verify_row,
    weyl_search,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_EXHAUSTED = 2
EXIT_VERIFY = 3

# the largest conic-bundle genus the commands take: memory grows about as genus^2
MAX_GENUS = 100

DEFAULT_TABLE_SEED = 0


class InputError(ValueError):
    """A problem with a user-supplied input document."""


# ---------------------------------------------------------------------------
# input documents


@dataclass(frozen=True)
class InputDocument:
    rank: int
    gram: IntMatrix | None
    kind: str
    matrices: tuple[IntMatrix, ...]
    bound: int | None

    def group_spec(self) -> GroupSpec:
        bound = DEFAULT_ORDER_BOUND if self.bound is None else self.bound  # every kind refuses a larger group
        if self.kind == "cyclic":
            return Cyclic(self.matrices[0], bound)
        return (Explicit if self.kind == "list" else Generated)(self.matrices, bound)

    @cached_property
    def lattice(self) -> GLattice:
        """The document's lattice, built (and so checked) once per document."""
        return GLattice(rank=self.rank, group=self.group_spec(), form=self.gram)

    def echo(self) -> dict:
        return {
            "rank": self.rank,
            "gram": self.gram.tolists() if self.gram is not None else None,
            "group": {
                "kind": self.kind,
                "matrices": [m.tolists() for m in self.matrices],
                "bound": self.bound,
            },
        }


def _require_int(value, where, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{where}: must be at least {minimum}")
    return value


def _parse_matrix(value, rank, where) -> IntMatrix:
    if not isinstance(value, list) or len(value) != rank:
        raise InputError(f"{where}: expected {rank} rows")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != rank:
            raise InputError(f"{where}: row {i} must have {rank} entries")
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise InputError(f"{where}: row {i} has a non-integer entry {x!r}")
    return IntMatrix._from_rows(tuple(map(tuple, value)), rank)  # every entry is checked above


def parse_input(text: str) -> InputDocument:
    """Validate a JSON input document describing a lattice action.

    Schema: ``{"rank": n, "gram": optional n x n matrix, "group": {"kind":
    "cyclic" | "list" | "generated", "matrices": [n x n integer matrices],
    "bound": optional positive integer}}``.  Every matrix must be unimodular
    and preserve ``gram`` when given, which the document's :class:`GLattice`
    checks; errors carry the offending field.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InputError("top level: expected an object")
    if "rank" not in doc:
        raise InputError("rank: missing")
    rank = _require_int(doc["rank"], "rank", minimum=1)
    gram = None
    if doc.get("gram") is not None:
        gram = _parse_matrix(doc["gram"], rank, "gram")
        if gram != gram.transpose():
            raise InputError("gram: not symmetric")
    group = doc.get("group")
    if not isinstance(group, dict):
        raise InputError("group: missing or not an object")
    kind = group.get("kind")
    if kind not in ("cyclic", "list", "generated"):
        raise InputError(f'group.kind: expected "cyclic", "list" or "generated", got {kind!r}')
    raw = group.get("matrices")
    if not isinstance(raw, list) or not raw:
        raise InputError("group.matrices: expected a nonempty list")
    if kind == "cyclic" and len(raw) != 1:
        raise InputError(f"group.matrices: cyclic kind takes exactly one matrix, got {len(raw)}")
    matrices, bound, defect = [], None, None
    try:
        for i, m in enumerate(raw):
            matrices.append(_parse_matrix(m, rank, f"group.matrices[{i}]"))
        if group.get("bound") is not None:
            bound = _require_int(group["bound"], "group.bound", minimum=1)
    except InputError as e:  # reported after any defect of a matrix before it
        defect = e
    doc = InputDocument(rank=rank, gram=gram, kind=kind, matrices=tuple(matrices), bound=bound)
    if matrices:
        try:
            doc.lattice  # GLattice checks every matrix, once
        except ValidationError as e:
            if e.reason not in _MATRIX_DEFECTS:
                raise
            raise InputError(f"group.matrices[{e.index}]: {_MATRIX_DEFECTS[e.reason]}") from None
    if defect is not None:
        raise defect
    return doc


_MATRIX_DEFECTS = {"unimodular": "not unimodular", "form": "does not preserve the gram form"}


# ---------------------------------------------------------------------------
# report helpers


def _h1_json(g: FinAbGroup) -> dict:
    return {"invariant_factors": list(g.invariant_factors), "free_rank": g.free_rank}


def _indented_json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for dicts with string keys, lists, tuples and scalars.

    ``json.dumps`` takes its pure-Python encoder whenever ``indent`` is
    set.  Here keys and strings go through the C
    ``encode_basestring_ascii``, and a list of plain ints, such as a matrix
    row, is one ``str.join``.  ``pad`` is the line break and indentation
    that close ``obj``.
    """
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _indented_json(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all([type(x) is int for x in obj]):
            items = map(str, obj)
        else:
            items = [_indented_json(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return str(obj)
    return json.dumps(obj)  # a float, a boolean or None


def _emit(report: dict, as_json: bool, timing_ms: float, with_timing: bool, human: str) -> None:
    if as_json:
        if with_timing:
            report["timing_ms"] = round(timing_ms, 3)
        print(_indented_json(report))
    else:
        print(human.rstrip())
        print(f"done in {timing_ms:.0f} ms")


def _glattice_echo(m: GLattice) -> dict:
    gen = m.group.matrices[0]
    return InputDocument(
        rank=m.rank,
        gram=m.form,
        kind="cyclic",
        matrices=(gen,),
        bound=None,
    ).echo()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify_table(args) -> int:
    if args.max_genus < 0:  # range() would drop every conic-bundle row and report a pass
        raise InputError(f"verify-table --max-genus must be at least 0, got {args.max_genus}")
    if args.max_genus > MAX_GENUS:
        raise InputError(f"verify-table --max-genus must be at most {MAX_GENUS}, got {args.max_genus}")
    cfg = WeylSearchConfig(seed=args.seed, max_trials=args.max_trials)
    cases = [("dejonquieres", g) for g in range(1, args.max_genus + 1)]
    cases += [(c, None) for c in DEL_PEZZO_CASES]
    rows = []
    t0 = time.perf_counter()
    for case, genus in cases:
        rows.append(verify_row(case, genus=genus, cfg=cfg))
    elapsed = (time.perf_counter() - t0) * 1000.0
    all_passed = all(r.passed for r in rows)
    if args.json:
        report = {
            "command": "verify-table",
            "seed": args.seed,
            "rows": [
                {
                    "case": r.case,
                    "p": r.p,
                    "g": r.g,
                    "K2": r.k2,
                    "model": r.model,
                    "h1": _h1_json(r.h1_pic),
                    "h1_q": _h1_json(r.h1_q),
                    "predicted_h1_order": r.predicted_h1_order,
                    "passed": r.passed,
                    "checks": [
                        {"name": c.name, "passed": c.passed, "detail": c.detail}
                        for c in r.checks
                    ],
                }
                for r in rows
            ],
            "all_passed": all_passed,
            "verdict": "all rows PASS" if all_passed else "verification FAILED",
        }
        _emit(report, True, elapsed, args.timing, "")
    else:
        header = f"{'case':<18} {'p':>2} {'g':>2} {'K^2':>3}  {'model':<38} {'H^1':<12} status"
        lines = [header, "-" * len(header)]
        for r in rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{r.case:<18} {r.p:>2} {r.g:>2} {r.k2:>3}  {r.model:<38} {str(r.h1_pic):<12} {status}"
            )
            if not r.passed:
                for c in r.checks:
                    if not c.passed:
                        lines.append(f"    FAILED {c.name}: {c.detail}")
        lines.append("all rows PASS" if all_passed else "verification FAILED")
        _emit({}, False, elapsed, False, "\n".join(lines))
    return EXIT_OK if all_passed else EXIT_VERIFY


def _cmd_compute(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        doc = parse_input(fh.read())
    m = doc.lattice
    t0 = time.perf_counter()
    res = h1(m)
    elapsed = (time.perf_counter() - t0) * 1000.0
    report = {
        "command": "compute",
        "input": doc.echo(),
        "h0_rank": res.h0_rank,
        "h1": _h1_json(res.h1),
        "group_order": res.group_order,
        "method": res.method,
        "verdict": f"H^1 = {res.h1}",
    }
    human = (
        f"group order {res.group_order} ({res.method} method)\n"
        f"H^0 rank: {res.h0_rank}\n"
        f"H^1 = {res.h1}"
    )
    _emit(report, args.json, elapsed, args.timing, human)
    return EXIT_OK


def _cmd_builtin(args) -> int:
    t0 = time.perf_counter()
    predicted = None
    if args.name == "dejonquieres":
        if args.genus is None:
            raise InputError("builtin dejonquieres needs --genus")
        if args.genus > MAX_GENUS:
            raise InputError(f"builtin dejonquieres --genus must be at most {MAX_GENUS}, got {args.genus}")
        m = dejonquieres(args.genus).pic_glattice()
    else:
        if args.genus is not None:
            raise InputError(f"builtin {args.name} takes no --genus")
        m = geiser_involution() if args.name == "geiser" else bertini_involution()
        predicted = charpoly_order(m)
    res = h1(m)
    elapsed = (time.perf_counter() - t0) * 1000.0
    case = args.name if args.genus is None else f"{args.name}-g{args.genus}"
    report = {
        "command": "builtin",
        "case": case,
        "input": _glattice_echo(m),
        "h0_rank": res.h0_rank,
        "h1": _h1_json(res.h1),
        "group_order": res.group_order,
        "verdict": f"H^1 = {res.h1}",
    }
    if predicted is not None:
        report["predicted_h1_order"] = predicted
    human = f"{case}: H^0 rank {res.h0_rank}, H^1 = {res.h1}"
    if predicted is not None:
        human += f"\npredicted |H^1| from the Q characteristic polynomial: {predicted}"
    _emit(report, args.json, elapsed, args.timing, human)
    return EXIT_OK


def _cmd_search(args) -> int:
    cfg = WeylSearchConfig(
        seed=args.seed,
        max_trials=args.max_trials,
        word_min=args.word_min,
        word_max=args.word_max,
    )
    t0 = time.perf_counter()
    m = weyl_search(args.degree, args.prime, cfg=cfg)
    elapsed = (time.perf_counter() - t0) * 1000.0
    res = h1(m)
    predicted = charpoly_order(m)
    report = {
        "command": "search",
        "degree": args.degree,
        "prime": args.prime,
        "multiplicity": (9 - args.degree) // (args.prime - 1),
        "seed": args.seed,
        "input": _glattice_echo(m),
        "h0_rank": res.h0_rank,
        "h1": _h1_json(res.h1),
        "predicted_h1_order": predicted,
        "verdict": f"H^1 = {res.h1}",
    }
    human = (
        f"found an order-{args.prime} isometry on the degree-{args.degree} lattice "
        f"(seed {args.seed})\n"
        f"H^1 = {res.h1}; predicted order {predicted}\n"
        f"generator:\n" + "\n".join(str(list(row)) for row in m.group.matrices[0])
    )
    _emit(report, args.json, elapsed, args.timing, human)
    return EXIT_OK


def _cmd_scan(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        doc = parse_input(fh.read())
    m = doc.lattice
    t0 = time.perf_counter()
    scan = obstruction_scan(m)
    elapsed = (time.perf_counter() - t0) * 1000.0
    report = {
        "command": "scan",
        "input": doc.echo(),
        "h0_rank": scan.full_group.h0_rank,
        "h1": _h1_json(scan.full_group.h1),
        "subgroups": [
            {
                "generator_index": e.generator_index,
                "order": e.order,
                "h1": _h1_json(e.h1),
            }
            for e in scan.subgroups
        ],
        "obstructed": scan.obstructed,
        "witnesses": list(scan.witnesses),
        "verdict": scan.verdict,
    }
    lines = [f"full group: H^1 = {scan.full_group.h1}"]
    for e in scan.subgroups:
        lines.append(f"  element {e.generator_index} (order {e.order}): H^1 = {e.h1}")
    lines.append(scan.verdict)
    _emit(report, args.json, elapsed, args.timing, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@cache  # a parser is reused across calls: building one costs about 1 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glattice",
        description="H^1 of finite group actions on integer lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-table", help="verify every built-in case")
    p.add_argument("--max-genus", type=int, default=5, help=f"verify conic bundles up to this genus, at most {MAX_GENUS} (0: del Pezzo rows only; {MAX_GENUS}: about 6 s, 34 MB peak)")
    p.add_argument("--seed", type=int, default=DEFAULT_TABLE_SEED)
    p.add_argument("--max-trials", type=int, default=1_000_000)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true", help="include timing in JSON reports")
    p.set_defaults(func=_cmd_verify_table)

    p = sub.add_parser("compute", help="H^1 of an action described in a JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("builtin", help="one of the built-in actions")
    p.add_argument("name", choices=("geiser", "bertini", "dejonquieres"))
    p.add_argument("--genus", type=int, default=None, help=f"de Jonquieres genus, at most {MAX_GENUS} ({MAX_GENUS}: about 22 MB peak)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_builtin)

    p = sub.add_parser("search", help="random search for a prime-order isometry")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-trials", type=int, default=1_000_000)
    p.add_argument("--word-min", type=int, default=2)
    p.add_argument("--word-max", type=int, default=16)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("scan", help="H^1 over all cyclic subgroups, with verdict")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_scan)

    return parser


def run_command(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except SearchExhausted as e:
        print(f"search exhausted: {e}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (OSError, ValueError) as e:  # InputError and every refusal of the library are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
