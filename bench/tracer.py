"""Spans and counters around glattice's public functions, installed from outside.

The tracer replaces each target with a wrapper that records a span: its
duration, and how much of it was covered by child spans.  A layer's self
time is span time minus child-span time.  Spans are folded into per-function
totals as they close, so memory stays constant however many calls a run
makes; the totals are read once, when the run ends.

``cohomology``, ``picard``, ``cli`` and the package ``__init__`` bind names
directly (``from .intlinalg import kernel_basis``), so a wrapper replaces the
name in every ``glattice`` module namespace that holds the original.
Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric prefix, defining module, attribute path)
TARGETS = (
    ("intlinalg.matmul", "glattice.intlinalg", "IntMatrix.__matmul__"),
    ("intlinalg.IntMatrix.init", "glattice.intlinalg", "IntMatrix.__init__"),
    ("intlinalg.det", "glattice.intlinalg", "IntMatrix.det"),
    ("intlinalg.hermite_form", "glattice.intlinalg", "hermite_form"),
    ("intlinalg.kernel_basis", "glattice.intlinalg", "kernel_basis"),
    ("intlinalg.express_in_row_basis", "glattice.intlinalg", "express_in_row_basis"),
    ("intlinalg.subquotient", "glattice.intlinalg", "subquotient"),
    ("intlinalg.smith_form", "glattice.intlinalg", "smith_form"),
    ("intlinalg.char_poly", "glattice.intlinalg", "char_poly"),
    ("cohomology.mulclose", "glattice.cohomology", "mulclose"),
    ("cohomology.matrix_order", "glattice.cohomology", "matrix_order"),
    ("cohomology.validate_and_close", "glattice.cohomology", "validate_and_close"),
    ("cohomology.h1_cocycle", "glattice.cohomology", "h1_cocycle"),
    ("cohomology.obstruction_scan", "glattice.cohomology", "obstruction_scan"),
    ("cohomology.h1_cyclic", "glattice.cohomology", "h1_cyclic"),
    ("cohomology.invariants_h0", "glattice.cohomology", "invariants_h0"),
    ("cohomology.GLattice.init", "glattice.cohomology", "GLattice.__init__"),
    ("picard.verify_row", "glattice.picard", "verify_row"),
    ("picard.weyl_search", "glattice.picard", "weyl_search"),
    ("picard.restrict_action", "glattice.picard", "restrict_action"),
    ("picard.q_sublattice", "glattice.picard", "q_sublattice"),
    ("picard.dejonquieres", "glattice.picard", "dejonquieres"),
    ("picard.charpoly_order", "glattice.picard", "charpoly_order"),
    ("cli.run_command", "glattice.cli", "run_command"),
    ("cli.parse_input", "glattice.cli", "parse_input"),
)


def _bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m for x in row), default=0)


# functions whose returned transforms or basis are measured for coefficient growth
MAX_BITS = {
    "intlinalg.hermite_form": lambda res: _bits((res[1],)),
    "intlinalg.smith_form": lambda res: _bits((res.U, res.V)),
    "intlinalg.kernel_basis": lambda res: _bits((res,)),
}


class Tracer:
    """Per-function call counts, self time and result bit lengths."""

    def __init__(self) -> None:
        names = [name for name, _, _ in TARGETS]
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.max_bits = dict.fromkeys(MAX_BITS, 0)
        self.errors = 0  # exceptions leaving the cohomology layer
        self.root_s = 0.0  # total duration of spans with no traced parent
        self._stack: list[list] = []  # open spans: [child seconds, layer]
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "glattice" or k.startswith("glattice.")]
        for name, modname, path in TARGETS:
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            if cls_path:
                cls = getattr(owner, cls_path[0])
                orig = cls.__dict__[attr]
                self._replace(cls, attr, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, orig, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _replace(self, owner, attr, orig, wrapper) -> None:
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        bits = MAX_BITS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if layer == "cohomology" and (len(stack) < 2 or stack[-2][1] != "cohomology"):
                    self.errors += 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_s += dur
            if bits is not None:
                # measuring the result is tracer work: hide it from the parent's self time
                t = clock()
                b = bits(result)
                if b > self.max_bits[name]:
                    self.max_bits[name] = b
                if stack:
                    stack[-1][0] += clock() - t
            return result

        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name, value in self.max_bits.items():
            out[f"{name}.max_bits"] = (value, "bits")
        out["cohomology.errors"] = (self.errors, "count")
        return out
