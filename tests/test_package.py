import glattice

PUBLIC_NAMES = {
    "intlinalg": [
        "FinAbGroup", "IntMatrix", "NotSublattice", "SmithForm", "char_poly", "express_in_row_basis",
        "hermite_form", "kernel_basis", "poly_eval", "poly_mul", "poly_pow", "poly_str", "row_basis",
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
    assert len(set(every)) == len(every) == 56
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
