import os
import subprocess
import sys
from pathlib import Path

import pytest

import glattice
from glattice.cli import InputDocument
from glattice.cohomology import CohomologyResult, Cyclic, GLattice, ScanReport, SubgroupEntry, _Walk
from glattice.intlinalg import FinAbGroup, IntMatrix, SmithForm
from glattice.picard import (
    Check,
    ConicBundlePic,
    PicardLattice,
    QLattice,
    RootSystem,
    RowReport,
    WeylSearchConfig,
    dejonquieres,
    del_pezzo_pic,
)

PUBLIC_NAMES = {
    "intlinalg": [
        "FinAbGroup", "IntMatrix", "NotSublattice", "SmithForm", "char_poly", "express_in_row_basis",
        "hermite_form", "kernel_basis", "poly_mul", "poly_pow", "poly_str", "row_basis",
        "smith_form", "subquotient", "xgcd",
    ],
    "cohomology": [
        "CohomologyResult", "Cyclic", "Explicit", "GLattice", "Generated", "GroupMismatch", "GroupSpec",
        "GroupTooLarge", "NotSubgroup", "ScanReport", "ValidationError", "direct_sum", "h1",
        "h1_cocycle", "h1_cyclic", "invariants_h0", "matrix_order", "mulclose", "obstruction_scan",
        "permutation_module", "restrict_subgroup", "validate_and_close",
    ],
    "picard": [
        "ConicBundlePic", "ConstructionError", "PicardLattice", "QLattice", "RowReport", "SearchExhausted",
        "WeylSearchConfig", "bertini_involution", "charpoly_order", "dejonquieres", "del_pezzo_pic",
        "geiser_involution", "q_sublattice", "reflection", "restrict_action", "roots", "verify_row", "weyl_search",
    ],
}


def test_public_surface_is_each_modules_own_names():
    every = [name for names in PUBLIC_NAMES.values() for name in names]
    assert len(set(every)) == len(every) == 55
    namespace = {}
    exec("from glattice import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(every)
    assert sorted(glattice.__all__) == sorted(every)
    for module_name, names in PUBLIC_NAMES.items():
        module = getattr(glattice, module_name)
        assert sorted(module.__all__) == sorted(names)  # so no name is in two modules' lists
        for name in names:
            assert namespace[name] is getattr(module, name) is getattr(glattice, name)


def test_del_pezzo_cases_are_named_once():
    from glattice.picard import CASE_MODELS, CASE_PARAMS, DEL_PEZZO_CASES

    assert DEL_PEZZO_CASES == tuple(CASE_PARAMS) == ("geiser", "bertini", "dp3-p3", "dp1-p3", "dp1-p5")
    assert list(CASE_MODELS) == list(CASE_PARAMS)


I2, SWAP, Z2 = IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]]), FinAbGroup((2,))
CB = dejonquieres(1)


def element(i):
    return (I2, SWAP)[i]


def product(x, y):
    return y.translate(x + bytes(range(2, 256)))


# per record type: its fields by keyword, in order, then a field and a value that makes a different record
RECORDS = [
    (SmithForm, dict(U=I2, D=IntMatrix([[2, 0], [0, 4]]), V=SWAP, invariant_factors=(2, 4)), "V", I2),
    (FinAbGroup, dict(invariant_factors=(2, 4), free_rank=1), "free_rank", 0),
    (_Walk, dict(element=element, contains={I2, SWAP}.__contains__, gens=(SWAP,), gen_perms=(b"\x01\x00",),
                 perms=(b"\x00\x01", b"\x01\x00"), product=product), "gens", (I2,)),
    (GLattice, dict(rank=2, group=Cyclic(SWAP), form=None), "form", I2),
    (CohomologyResult, dict(h0_rank=1, h1=Z2, method="cyclic", group_order=2), "h0_rank", 0),
    (SubgroupEntry, dict(generator_index=1, order=2, h1=Z2), "generator_index", 3),
    (ScanReport, dict(full_group=CohomologyResult(1, Z2, "cyclic", 2), subgroups=(SubgroupEntry(1, 2, Z2),),
                      obstructed=True, witnesses=("full group: H^1 = Z/2",)), "obstructed", False),
    (PicardLattice, dict(degree=6, rank=4, gram=IntMatrix.diagonal([1, -1, -1, -1]), k=(-3, 1, 1, 1)), "degree", 5),
    (QLattice, dict(parent=del_pezzo_pic(6), basis=SWAP, gram_q=-I2), "gram_q", I2),
    (RootSystem, dict(lattice=del_pezzo_pic(6), roots=((0, 1, -1, 0), (0, 0, 1, -1)), simple=(0, 1),
                      coords=((1, 0), (0, 1)), reflections=(bytes(range(256)),) * 2), "simple", (1, 0)),
    (ConicBundlePic, dict(genus=CB.genus, rank=CB.rank, gram=CB.gram, delta=CB.delta, section_square=-1),
     "section_square", 0),
    (WeylSearchConfig, dict(seed=3, max_trials=10), "seed", 4),
    (Check, dict(name="det", passed=True, detail="det = -1"), "passed", False),
    (RowReport, dict(case="geiser", p=2, g=3, k2=2, model="degree-2 del Pezzo", h1_pic=Z2, h1_q=None, h0_rank=1,
                     predicted_h1_order=None, generator=SWAP, checks=(Check("det", True, "det = -1"),)), "case", "bertini"),
    (InputDocument, dict(rank=2, gram=None, kind="cyclic", matrices=(SWAP,), bound=None), "kind", "generated"),
]


@pytest.mark.parametrize("cls, fields, name, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_compare_hash_refuse_assignment_and_show_their_fields(cls, fields, name, other):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != cls(**{**fields, name: other})
    for change in (lambda: setattr(a, name, other), lambda: delattr(a, name), lambda: setattr(a, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(a, name) == fields[name]
    shown = [k for k, v in fields.items() if not callable(v)]  # a walk's functions are neither compared nor shown
    assert repr(a) == f"{cls.__name__}({', '.join(f'{k}={fields[k]!r}' for k in shown)})"


def test_importing_the_cli_loads_no_dataclasses():
    # a record type is a plain class, made with no generated code, so start-up never imports dataclasses
    src = Path(glattice.__file__).resolve().parents[1]
    probe = "import sys, glattice.cli; print(glattice.cli.__file__); print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout.split("\n")
    assert Path(out[0]).resolve().parent == src / "glattice"
    assert out[1] == "False"
