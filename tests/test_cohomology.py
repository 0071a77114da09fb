import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glattice.cohomology import (
    DEFAULT_ORDER_BOUND,
    Cyclic,
    Explicit,
    Generated,
    GLattice,
    GroupMismatch,
    GroupTooLarge,
    NotSubgroup,
    SubgroupEntry,
    ValidationError,
    direct_sum,
    h1,
    h1_cocycle,
    h1_cyclic,
    invariants_h0,
    matrix_order,
    mulclose,
    obstruction_scan,
    permutation_module,
    restrict_subgroup,
    validate_and_close,
)
from glattice.intlinalg import FinAbGroup, IntMatrix, hermite_form, kernel_basis, subquotient

SWAP = IntMatrix([[0, 1], [1, 0]])
MINUS_I2 = IntMatrix([[-1, 0], [0, -1]])


def sign_lattice(n=1):
    return GLattice(n, Cyclic(IntMatrix.diagonal([-1] * n)))


def random_unimodular(rng, n):
    m = IntMatrix.identity(n).tolists()
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        op = rng.randrange(3)
        if op == 0:
            q = rng.randint(-2, 2)
            for k in range(n):
                m[i][k] += q * m[j][k]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return IntMatrix(m)


def conjugator(rng, n):
    """A random unimodular matrix and its inverse."""
    p = random_unimodular(rng, n)
    h, pinv = hermite_form(p)
    assert h == IntMatrix.identity(n)
    return p, pinv


def random_finite_order_action(rng, rank, max_order):
    """Random unimodular conjugate of a signed permutation of finite order."""
    perm = list(range(rank))
    rng.shuffle(perm)
    signs = [rng.choice([1, -1]) for _ in range(rank)]
    base = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        base[perm[i]][i] = signs[i]
    g = IntMatrix(base)
    if matrix_order(g, 10_000) > max_order:
        g = IntMatrix.diagonal([rng.choice([1, -1]) for _ in range(rank)])
    p, pinv = conjugator(rng, rank)
    return p @ g @ pinv


# --- validation and closure ----------------------------------------------------


def test_close_cyclic_sign():
    elems = validate_and_close(Cyclic(IntMatrix([[-1]])))
    assert elems == [IntMatrix([[1]]), IntMatrix([[-1]])]


def test_close_generated_dihedral_like():
    # hand closure: {I, -I, swap, -swap}
    elems = validate_and_close(Generated([SWAP, MINUS_I2], closure_bound=10))
    assert len(elems) == 4
    assert set(elems) == {IntMatrix.identity(2), MINUS_I2, SWAP, MINUS_I2 @ SWAP}


def test_close_rejects_infinite_order():
    with pytest.raises(GroupTooLarge, match="exceed"):
        validate_and_close(Cyclic(IntMatrix([[1, 1], [0, 1]]), closure_bound=50))


def test_close_rejects_non_unimodular():
    with pytest.raises(ValidationError, match="unimodular"):
        validate_and_close(Cyclic(IntMatrix([[2]])))


def test_close_rejects_form_violation():
    form = IntMatrix.diagonal([1, -1])
    with pytest.raises(ValidationError, match="form"):
        validate_and_close(Cyclic(SWAP), form=form)


def test_explicit_closure_checks():
    with pytest.raises(ValidationError, match="identity"):
        validate_and_close(Explicit([MINUS_I2]))
    with pytest.raises(ValidationError, match="closed"):
        validate_and_close(Explicit([IntMatrix.identity(2), SWAP, MINUS_I2]))
    elems = validate_and_close(Explicit([IntMatrix.identity(2), MINUS_I2]))
    assert len(elems) == 2
    with pytest.raises(ValidationError, match="^Explicit element list contains duplicates$"):
        validate_and_close(Explicit([IntMatrix.identity(2), MINUS_I2, MINUS_I2]))


QUARTER_TURN = IntMatrix([[0, -1], [1, 0]])
# each kind's spec of the order-4 group of quarter turns, by its bound, with its text for a bound of 3
QUARTER_TURN_SPECS = {
    "cyclic": (lambda b: Cyclic(QUARTER_TURN, b), "order exceeds 3"),
    "list": (lambda b: Explicit(mulclose([QUARTER_TURN]), b), "4 > 3"),
    "generated": (lambda b: Generated([QUARTER_TURN], b), "closure exceeds 3"),
}


@pytest.mark.parametrize("spec, message", QUARTER_TURN_SPECS.values(), ids=QUARTER_TURN_SPECS.keys())
def test_each_kind_is_closed_within_its_own_bound(spec, message):
    with pytest.raises(GroupTooLarge, match=f"^group too large or infinite: {message}$"):
        validate_and_close(spec(3))
    assert len(validate_and_close(spec(4))) == 4
    with pytest.raises(ValueError, match="closure bound must be positive"):
        spec(0)


def test_bounds_and_ranks_must_be_ints():
    # a walk never meets a float bound, which let S_3 through at 5.5, and a bool reads as 0 or 1
    s3 = [perm_matrix([1, 0, 2], False), perm_matrix([1, 2, 0], False)]
    c6 = perm_matrix([1, 2, 3, 4, 5, 0], False)
    for bound in (5.5, 6.0, True):
        for call in (lambda: Generated(s3, closure_bound=bound), lambda: Cyclic(c6, closure_bound=bound),
                     lambda: mulclose([c6], bound), lambda: matrix_order(c6, bound)):
            with pytest.raises(TypeError, match=f"bound must be an int, got {bound}$"):
                call()
    for rank in (2.0, True):
        with pytest.raises(TypeError, match=f"^rank must be an int, got {rank}$"):
            GLattice(rank, Cyclic(SWAP))


def test_specs_are_equal_only_with_equal_bounds():
    for make, _ in QUARTER_TURN_SPECS.values():
        assert make(4) != make(5)
        assert make(4) == make(4) and hash(make(4)) == hash(make(4))
        assert GLattice(2, make(4)) != GLattice(2, make(5))
    # one kind's matrices are not another's, whatever the bound
    assert Explicit([QUARTER_TURN]) != Generated([QUARTER_TURN])


def test_direct_sum_takes_the_larger_bound():
    a = GLattice(1, Explicit([IntMatrix([[1]]), IntMatrix([[-1]])], 50))
    b = GLattice(2, Explicit([IntMatrix.identity(2), MINUS_I2], 60))
    assert direct_sum(a, b).group.closure_bound == 60
    assert direct_sum(b, a).group.closure_bound == 60
    c = GLattice(1, Cyclic(IntMatrix([[-1]]), 50))
    assert direct_sum(c, GLattice(2, Cyclic(MINUS_I2, 60))).group.closure_bound == 60


# --- H^0 -----------------------------------------------------------------------


def test_h0_trivial_action():
    m = GLattice(3, Cyclic(IntMatrix.identity(3)))
    assert invariants_h0(m) == IntMatrix.identity(3)


def test_h0_sign_action():
    assert invariants_h0(sign_lattice(2)).rows == 0


def test_h0_swap():
    m = GLattice(2, Cyclic(SWAP))
    assert invariants_h0(m) == IntMatrix([[1, 1]])


# --- cyclic H^1 ------------------------------------------------------------------


def test_h1_cyclic_sign_on_z():
    res = h1_cyclic(sign_lattice(1))
    assert res.h1 == FinAbGroup((2,))
    assert res.h0_rank == 0
    assert res.method == "cyclic"


def test_h1_cyclic_swap_trivial():
    res = h1_cyclic(GLattice(2, Cyclic(SWAP)))
    assert res.h1.is_trivial


def test_h1_cyclic_rejects_other_specs():
    with pytest.raises(ValidationError):
        h1_cyclic(GLattice(2, Explicit([IntMatrix.identity(2), MINUS_I2])))


# --- cocycle H^1 ---------------------------------------------------------------


def test_h1_cocycle_trivial_action():
    m = GLattice(3, Explicit([IntMatrix.identity(3)]))
    assert h1_cocycle(m).h1.is_trivial


def test_h1_cocycle_regular_c3():
    # regular permutation module of the cyclic group of order 3
    m = permutation_module([[1, 2, 0]], kind="cyclic")
    res = h1_cocycle(m)
    assert res.h1.is_trivial
    assert res.group_order == 3


def test_h1_cocycle_matches_cyclic():
    rng = random.Random(23)
    for _ in range(20):
        rank = rng.randint(1, 5)
        g = random_finite_order_action(rng, rank, 8)
        m = GLattice(rank, Cyclic(g))
        assert h1_cocycle(m).h1 == h1_cyclic(m).h1


def test_h1_cocycle_klein_four_sign_action():
    # V4 acting by diag(-1,1) and diag(1,-1); inflation-restriction on each
    # rank-1 summand gives H^1 = Z/2 each, so (Z/2)^2 in total.
    a = IntMatrix.diagonal([-1, 1])
    b = IntMatrix.diagonal([1, -1])
    m = GLattice(2, Generated([a, b], closure_bound=10))
    res = h1_cocycle(m)
    assert res.group_order == 4
    assert res.h1 == FinAbGroup((2, 2))


def test_h1_cocycle_has_no_order_or_rank_cap():
    # Shapiro: H^1(S_6, Z[S_6/S_5]) = H^1(S_5, Z) = Hom(S_5, Z) = 0
    s6 = h1_cocycle(permutation_module([[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]], kind="generated"))
    assert (s6.group_order, s6.h0_rank, s6.h1) == (720, 1, FinAbGroup())
    trivial = h1_cocycle(GLattice(33, Cyclic(IntMatrix.identity(33))))
    assert (trivial.group_order, trivial.h0_rank, trivial.h1) == (1, 33, FinAbGroup())


# --- dispatch -------------------------------------------------------------------


def test_h1_dispatch_identity_only():
    res = h1(GLattice(2, Explicit([IntMatrix.identity(2)])))
    assert res.h1.is_trivial
    assert res.method == "cocycle"


def test_h1_dispatch_check_mode():
    res = h1(sign_lattice(2))
    assert res.h1 == FinAbGroup((2, 2))
    assert res.method == "cyclic"


# --- permutation modules ---------------------------------------------------------


def test_permutation_module_swap():
    m = permutation_module([[1, 0]], kind="cyclic")
    assert m.group.generator == SWAP


def test_permutation_module_regular_c4():
    m = permutation_module([[1, 2, 3, 0]], kind="cyclic")
    assert m.rank == 4
    assert matrix_order(m.group.generator) == 4
    assert h1(m).h1.is_trivial


def test_permutation_module_identity():
    m = permutation_module([[0, 1, 2]], kind="cyclic")
    assert m.group.generator == IntMatrix.identity(3)


def test_permutation_module_rejects_garbage():
    with pytest.raises(ValueError, match="inconsistent permutations"):
        permutation_module([[0, 0]], kind="cyclic")
    with pytest.raises(ValueError, match="inconsistent permutations"):
        permutation_module([[1, 0], [0, 1]], kind="cyclic")
    with pytest.raises(ValueError, match="^inconsistent permutations: empty list$"):
        permutation_module([])
    with pytest.raises(ValueError, match="^unknown kind 'dihedral'$"):
        permutation_module([[1, 0]], kind="dihedral")


def test_specs_and_lattices_reject_bad_shapes():
    with pytest.raises(ValueError, match="^Generated requires at least one matrix$"):
        Generated([])
    with pytest.raises(ValueError, match="^no generators$"):
        mulclose([])
    for mats in ([IntMatrix([[1, 0]])], [IntMatrix.identity(2), IntMatrix.identity(3)]):
        with pytest.raises(ValidationError, match="^Explicit: matrices must all be square of the same size$"):
            Explicit(mats)
    with pytest.raises(ValueError, match="^negative rank$"):
        GLattice(-1, Cyclic(SWAP))
    for form, message in ((IntMatrix.identity(3), "form has the wrong shape"),
                          (IntMatrix([[1, 1], [0, 1]]), "form is not symmetric")):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            GLattice(2, Cyclic(SWAP), form)
    with pytest.raises(ValidationError, match="^matrix 0 is not 3x3$"):
        GLattice(3, Cyclic(SWAP))


# --- direct sums -----------------------------------------------------------------


def test_direct_sum_with_rank_zero():
    m = sign_lattice(1)
    zero = GLattice(0, Cyclic(IntMatrix([], cols=0)))
    assert direct_sum(m, zero) is m
    assert direct_sum(zero, m) is m


def test_direct_sum_additivity_example():
    m = direct_sum(sign_lattice(1), sign_lattice(1))
    assert h1(m).h1 == FinAbGroup((2, 2))


def test_direct_sum_of_cyclic_lattices_of_coprime_orders():
    # cyclic summands pair by their generators whatever their orders: -1 on Z (order 2) and the
    # order-3 rotation of Z^2 give the cyclic action of order 6, with H^1 = Z/2 + Z/3 = Z/6
    sign, rotation = sign_lattice(1), GLattice(2, Cyclic(IntMatrix([[0, -1], [1, -1]])))
    res = h1(direct_sum(sign, rotation))
    assert res.group_order == 6
    assert res.h1 == FinAbGroup((6,)) == h1(sign).h1.direct_sum(h1(rotation).h1)
    assert (h1(sign).h1, h1(rotation).h1) == (FinAbGroup((2,)), FinAbGroup((3,)))


def test_direct_sum_mismatch():
    with pytest.raises(GroupMismatch):
        direct_sum(sign_lattice(1), GLattice(2, Explicit([IntMatrix.identity(2), MINUS_I2])))
    with pytest.raises(GroupMismatch, match="^group mismatch: generator counts differ$"):
        direct_sum(GLattice(1, Generated([IntMatrix([[-1]])])), GLattice(2, Generated([SWAP, MINUS_I2])))


def test_direct_sum_of_two_forms_is_their_block_form():
    a = GLattice(1, Generated([IntMatrix([[-1]])]), IntMatrix([[2]]))
    b = GLattice(2, Generated([SWAP]), IntMatrix([[1, 0], [0, 1]]))
    s = direct_sum(a, b)
    assert s.form == IntMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert all(g.transpose() @ s.form @ g == s.form for g in s.group.matrices)
    # one form alone does not make a form of the sum
    assert direct_sum(a, GLattice(2, Generated([SWAP]))).form is None


def test_direct_sum_geiser_with_regular_summand():
    # adding a free permutation summand must not change H^1
    from glattice.picard import geiser_involution

    geiser = geiser_involution()
    regular_c2 = permutation_module([[1, 0]], kind="cyclic")
    total = direct_sum(geiser, regular_c2)
    assert total.rank == 10
    assert h1(total).h1 == FinAbGroup((2,) * 6)


def test_direct_sum_explicit_table_check():
    c2a = GLattice(1, Explicit([IntMatrix([[1]]), IntMatrix([[-1]])]))
    c2b = GLattice(2, Explicit([IntMatrix.identity(2), MINUS_I2]))
    s = direct_sum(c2a, c2b)
    assert s.rank == 3
    assert h1(s).h1 == FinAbGroup((2, 2, 2))
    # mismatched table: pair identity with -I
    bad = GLattice(2, Explicit([MINUS_I2, IntMatrix.identity(2)]))
    with pytest.raises(GroupMismatch, match="^group mismatch: multiplication tables differ$"):
        direct_sum(c2a, bad)
    # S_3 with its identity, listed first, paired with a transposition
    perms = [list(p) for p in itertools.permutations(range(3))]
    with pytest.raises(GroupMismatch, match="^group mismatch: multiplication tables differ$"):
        direct_sum(permutation_module(perms, kind="explicit"),
                   permutation_module([perms[1], perms[0]] + perms[2:], kind="explicit"))


def test_direct_sum_generated_iso_check():
    a = GLattice(1, Generated([IntMatrix([[-1]])]))
    b = GLattice(2, Generated([SWAP]))
    s = direct_sum(a, b)
    assert s.rank == 3
    # pairing an order-2 with an order-3 generator is not an isomorphism
    c3 = permutation_module([[1, 2, 0]], kind="generated")
    with pytest.raises(GroupMismatch, match="isomorphism"):
        direct_sum(a, c3)


# --- restriction ----------------------------------------------------------------


def test_restrict_to_identity():
    m = GLattice(2, Explicit([IntMatrix.identity(2), MINUS_I2]))
    sub = restrict_subgroup(m, [IntMatrix.identity(2)])
    assert h1(sub).h1.is_trivial


def test_restrict_single_element_takes_cyclic_closure():
    full = GLattice(2, Explicit([IntMatrix.identity(2), MINUS_I2, SWAP, MINUS_I2 @ SWAP]))
    sub = restrict_subgroup(full, MINUS_I2)
    assert isinstance(sub.group, Cyclic)
    assert h1(sub).h1 == FinAbGroup((2, 2))


def test_restrict_full_group_unchanged():
    full = GLattice(2, Explicit([IntMatrix.identity(2), MINUS_I2]))
    sub = restrict_subgroup(full, list(full.group.elements))
    assert h1(sub).h1 == h1(full).h1
    assert set(sub.group.elements) == set(full.group.elements)


def test_restrict_rejects_non_subgroups():
    full = GLattice(2, Explicit([IntMatrix.identity(2), MINUS_I2, SWAP, MINUS_I2 @ SWAP]))
    with pytest.raises(NotSubgroup, match="closed"):
        restrict_subgroup(full, [IntMatrix.identity(2), SWAP, MINUS_I2])
    with pytest.raises(NotSubgroup, match="belong"):
        restrict_subgroup(full, IntMatrix([[0, -1], [1, 0]]))


def test_restrict_rejects_the_empty_set():
    full = GLattice(2, Explicit([IntMatrix.identity(2), MINUS_I2]))
    with pytest.raises(NotSubgroup, match="no identity"):
        restrict_subgroup(full, [])


def test_a_subset_longer_than_the_group_is_refused_as_holding_duplicates():
    # every member is proven an element first, so seven of them in S_3 repeat one, whatever the bound:
    # the list walk would refuse seven members at bound 6 as too large before it looked for duplicates
    s3 = symmetric_group_module(3, False)
    sevens = [IntMatrix.identity(3)] * 7
    for spec in (Generated(s3[1:3]), Generated(s3[1:3], 6), Explicit(s3), Explicit(s3, 6)):
        with pytest.raises(NotSubgroup, match="^subset not a subgroup: Explicit element list contains duplicates$"):
            restrict_subgroup(GLattice(3, spec), sevens)


def test_restrict_tests_membership_by_the_images_of_omega():
    # the cyclic group of a 4-cycle in every kind: Ω is the standard basis, the orbit of e_0 and
    # the columns of the list, and a transposition permutes it, yet is no member
    cycle, transposition = perm_matrix((1, 2, 3, 0), False), perm_matrix((1, 0, 2, 3), False)
    powers = mulclose([cycle])
    for spec in (Cyclic(cycle), Generated([cycle]), Explicit(powers[::-1])):
        m = GLattice(4, spec)
        walk = m.group._checked_walk()
        assert all(map(walk.contains, powers)) and not walk.contains(transposition)
        for outside in (transposition, IntMatrix.identity(3), IntMatrix([[1, 0, 0, 0]] * 4)):
            with pytest.raises(NotSubgroup, match="belong"):
                restrict_subgroup(m, outside)
            with pytest.raises(NotSubgroup, match="belong"):
                restrict_subgroup(m, [IntMatrix.identity(4), outside])
        assert restrict_subgroup(m, powers[2]).group == Cyclic(powers[2])
        assert restrict_subgroup(m, [powers[0], powers[2]]).group.elements == (powers[0], powers[2])


def test_restrict_weyl_e6_to_a_generator_builds_no_element():
    from pathlib import Path

    from glattice.cli import parse_input

    m = parse_input((Path(__file__).resolve().parent / "data" / "weyl_e6_generated.json").read_text()).lattice
    walk = m.group._checked_walk()
    start = time.perf_counter()
    sub = restrict_subgroup(m, m.group.generators[0])
    assert time.perf_counter() - start < 0.05  # about 0.7 s when every element matrix was built
    assert "elements" not in walk.__dict__
    assert h1(sub).group_order == 2


# --- obstruction scan -------------------------------------------------------------


def test_scan_trivial_action():
    report = obstruction_scan(GLattice(2, Cyclic(IntMatrix.identity(2))))
    assert not report.obstructed
    assert report.verdict == "no obstruction found"


def test_scan_permutation_module():
    report = obstruction_scan(permutation_module([[1, 2, 3, 0]], kind="cyclic"))
    assert not report.obstructed


def test_scan_sign_action_obstructed():
    report = obstruction_scan(sign_lattice(2))
    assert report.obstructed
    assert any("(Z/2)^2" in w for w in report.witnesses)
    indices = [e.generator_index for e in report.subgroups]
    assert indices == sorted(indices)


def test_scan_geiser_obstructed():
    from glattice.picard import geiser_involution

    report = obstruction_scan(geiser_involution())
    assert report.obstructed
    assert report.verdict == "stable linearization obstructed"
    assert any("(Z/2)^6" in w for w in report.witnesses)


def test_scan_subgroups_match_h1_cyclic_of_each_subgroup(monkeypatch):
    import glattice.cohomology as coh

    rng = random.Random(71)
    s4 = [[1, 0, 2, 3], [1, 2, 3, 0]]
    lattices = [
        permutation_module(s4, kind="generated"),
        permutation_module([[1, 2, 0]], kind="cyclic"),
        GLattice(4, Explicit(permutation_module(s4, kind="generated").elements())),
        GLattice(4, Generated([-g for g in permutation_module(s4, kind="generated").group.matrices])),
        GLattice(3, Cyclic(random_finite_order_action(rng, 3, 6))),
        GLattice(4, Explicit(GLattice(4, Cyclic(random_finite_order_action(rng, 4, 4))).elements())),
        # classes that are not rational, so a subgroup's generators are not all conjugate: A_5
        # (its 5-cycles x and x^2 are not) and the Frobenius group of order 21 (x and x^-1 of order 3)
        permutation_module([[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]),
        permutation_module([[1, 2, 3, 4, 5, 6, 0], [0, 2, 4, 6, 1, 3, 5]]),
    ]
    for m in lattices:
        elements = m.elements()
        report = obstruction_scan(m)
        assert report.full_group == h1(m)
        for e in report.subgroups:
            g = elements[e.generator_index]
            assert e.order == matrix_order(g)
            assert e.h1 == h1_cyclic(GLattice(m.rank, Cyclic(g), m.form)).h1
        # on a fresh lattice the scan computes the full group's H^1 and one per
        # conjugacy class of cyclic subgroups: none for a conjugate of a
        # subgroup already done
        calls = []
        real = coh._h1
        monkeypatch.setattr(coh, "_h1", lambda gens, rank, order: calls.append(gens) or real(gens, rank, order))
        h1(GLattice(m.rank, m.group, m.form))
        assert len(calls) == 1
        obstruction_scan(GLattice(m.rank, m.group, m.form))
        assert len(calls) == 2 + len(cyclic_subgroup_classes(elements))
        monkeypatch.undo()
    # subgroups and classes of A_5 and of the Frobenius group of order 21
    assert [len(obstruction_scan(m).subgroups) for m in lattices[-2:]] == [32, 9]
    assert [len(cyclic_subgroup_classes(m.elements())) for m in lattices[-2:]] == [4, 3]
    # subgroup entries assert what CohomologyResult asserts of H^1
    with pytest.raises(AssertionError, match="finite"):
        SubgroupEntry(0, 2, FinAbGroup((2,), 1))
    with pytest.raises(AssertionError, match="divide the group order"):
        SubgroupEntry(0, 2, FinAbGroup((3,), 0))


def cyclic_subgroup_classes(elements):
    """Conjugacy classes of the cyclic subgroups, by matrix products over the whole group."""

    def powers(g):
        out, p = [IntMatrix.identity(g.rows)], g
        while p != out[0]:
            out.append(p)
            p = p @ g
        return out

    inverse = {g: powers(g)[-1] for g in elements}  # g^(n-1); the identity for n = 1
    subgroups = {frozenset(powers(g)) for g in elements}
    return {frozenset(frozenset(inverse[h] @ x @ h for x in c) for h in elements) for c in subgroups}


def test_scan_kernels_one_per_conjugacy_class(monkeypatch):
    import glattice.cohomology as coh

    for degree, subgroups, classes in ((4, 17, 5), (5, 67, 7)):
        m = GLattice(degree, Generated(symmetric_group_generators(degree, True)))
        h1(m)
        calls = []
        real = coh._h1
        monkeypatch.setattr(coh, "_h1", lambda gens, rank, order: calls.append(gens) or real(gens, rank, order))
        report = obstruction_scan(m)
        monkeypatch.undo()
        assert len(report.subgroups) == subgroups
        # the full group on its listed generators, of width len(generators) * rank,
        # then one generator per conjugacy class of cyclic subgroups
        assert len(calls) == 1 + classes
        assert calls[0] == m.group._checked_walk().gens and len(calls[0]) == 2
        assert all(len(gens) == 1 for gens in calls[1:])
    # two classes of order-2 subgroups with different H^1 on the sign-twisted
    # permutation module: the value follows the class, not the order
    m = GLattice(4, Generated(symmetric_group_generators(4, True)))
    elements = m.elements()
    by_generator = {elements[e.generator_index]: e for e in obstruction_scan(m).subgroups}
    transposition = by_generator[perm_matrix((1, 0, 2, 3), True)]
    double_transposition = by_generator[perm_matrix((1, 0, 3, 2), True)]
    assert transposition.order == double_transposition.order == 2
    assert transposition.h1 == FinAbGroup((2, 2))
    assert double_transposition.h1.is_trivial


def test_scan_places_elements_and_generators_without_hashing_matrices(monkeypatch):
    import glattice.cohomology as coh

    # S_5 on pairs: the scan finds each element, generator, power and conjugate by the walk's
    # permutations, so the only matrices hashed are the generators _h1 deduplicates
    gens = [pairs_matrix(q) for q in ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))]
    plain = GLattice(10, Generated(gens))
    listed = plain.elements()
    random.Random(5).shuffle(listed)
    lattices = [
        plain,
        # a repeated generator, as an equal matrix and not the same object, and the identity
        GLattice(10, Generated(gens + [pairs_matrix((1, 0, 2, 3, 4)), IntMatrix.identity(10)])),
        GLattice(10, Explicit(listed)),  # a list is scanned in its own order
    ]
    reports = []
    for m in lattices:
        elements = m.elements()  # the walk and its element matrices are built before counting
        hashes, h1_gens = [], []
        real_hash, real_h1 = IntMatrix.__hash__, coh._h1
        monkeypatch.setattr(IntMatrix, "__hash__", lambda self: hashes.append(1) or real_hash(self))
        monkeypatch.setattr(coh, "_h1", lambda gens, rank, order: h1_gens.extend(gens) or real_h1(gens, rank, order))
        report = obstruction_scan(m)
        monkeypatch.undo()
        assert len(hashes) == len(h1_gens) < 20
        assert len(report.subgroups) == 67
        for e in report.subgroups:
            assert e.order == matrix_order(elements[e.generator_index])
        reports.append(report)
    assert reports[1].subgroups == reports[0].subgroups


def table_test_lattices():
    rng = random.Random(13)
    p, pinv = conjugator(rng, 4)
    listed = [p @ g @ pinv for g in symmetric_group_module(4, True)]
    rng.shuffle(listed)
    transposition = perm_matrix((1, 0, 2, 3), False)
    return [
        GLattice(4, Explicit(listed)),
        GLattice(4, Generated(symmetric_group_generators(4, False))),
        # a listed generator repeating the one before it, which the walk keeps
        GLattice(4, Generated([transposition, transposition, perm_matrix((1, 2, 3, 0), True)])),
        GLattice(3, Cyclic(random_finite_order_action(rng, 3, 6))),
        GLattice(2, Cyclic(IntMatrix.identity(2))),
    ]


def test_walk_table_products_equal_matrix_products():
    for m in table_test_lattices():
        walk = m.group._checked_walk()
        assert set(walk.elements) == set(m.elements())
        index = {p: i for i, p in enumerate(walk.perms)}
        for x, a in zip(walk.perms, walk.elements):
            for y, b in zip(walk.perms, walk.elements):
                assert walk.elements[index[walk.product(x, y)]] == a @ b
        # H^1 does not depend on which generators the walk took
        assert h1_cocycle(m).h1 == h1_cocycle(GLattice(m.rank, Explicit(m.elements()), m.form)).h1


def test_redundant_generators_add_no_cocycle_coordinate(monkeypatch):
    import glattice.cohomology as coh

    rng = random.Random(29)
    every = symmetric_group_module(4, True)
    listed = every + every[:5]  # all of S_4, five of them twice, the identity among them
    rng.shuffle(listed)
    transposition = perm_matrix((1, 0, 2, 3), True)
    two = GLattice(4, Generated(symmetric_group_generators(4, True)))
    calls = []
    real = coh._h1
    monkeypatch.setattr(coh, "_h1", lambda gens, rank, order: calls.append(gens) or real(gens, rank, order))
    for m, expected in (
        (GLattice(4, Generated(listed)), h1_cocycle(two).h1),
        (GLattice(4, Generated([transposition] * 50 + [IntMatrix.identity(4)])), FinAbGroup((2, 2))),
    ):
        # the greedy generators of the closure, found by closures of the ones kept
        greedy, span = [], {IntMatrix.identity(4)}
        for g in m.elements():
            if g not in span:
                greedy.append(g)
                span = set(mulclose(greedy))
        calls.clear()
        res = h1_cocycle(m)
        assert res.h1 == expected
        # the kernel takes the listed generators: each redundant one adds rank rows of B^T
        assert calls == [m.group.matrices]
        assert len(greedy) <= 3
        # yet they add no cocycle coordinate: H^1 and the rank of M^G are
        # those of the lattice on the greedy generators
        ref = h1_cocycle(GLattice(4, Generated(greedy)))
        assert (res.h1, res.h0_rank) == (ref.h1, ref.h0_rank)


def test_scan_forms_no_product_after_the_closure(monkeypatch):
    calls = []
    real = IntMatrix.__matmul__
    for m in table_test_lattices() + [permutation_module([[1, 0, 2, 3], [1, 2, 3, 0]], kind="generated")]:
        m.elements()
        monkeypatch.setattr(IntMatrix, "__matmul__", lambda a, b: calls.append(1) or real(a, b))
        obstruction_scan(m)
        monkeypatch.undo()
        assert len(calls) == 0


# --- properties -------------------------------------------------------------------


def test_shapiro_random_permutation_modules():
    rng = random.Random(101)
    for _ in range(40):
        k = rng.randint(1, 8)
        order = rng.randint(1, 12)
        perm = random_permutation_of_order_dividing(rng, k, order)
        m = permutation_module([perm], kind="cyclic")
        assert h1(m).h1.is_trivial


def random_permutation_of_order_dividing(rng, k, n):
    """Permutation of {0..k-1} whose order divides n, with random orbit sizes."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    items = list(range(k))
    rng.shuffle(items)
    perm = [0] * k
    while items:
        size = rng.choice([d for d in divisors if d <= len(items)])
        cycle, items = items[:size], items[size:]
        for i, x in enumerate(cycle):
            perm[x] = cycle[(i + 1) % size]
    return perm


def test_stability_under_permutation_summands():
    rng = random.Random(55)
    for _ in range(20):
        rank = rng.randint(1, 4)
        g = random_finite_order_action(rng, rank, 6)
        n = matrix_order(g)
        m = GLattice(rank, Cyclic(g))
        perm = random_permutation_of_order_dividing(rng, rng.randint(1, 5), n)
        pm = permutation_module([perm], kind="cyclic")
        assert h1(direct_sum(m, pm)).h1 == h1(m).h1


def test_h1_basis_invariance():
    rng = random.Random(77)
    for _ in range(15):
        rank = rng.randint(1, 5)
        g = random_finite_order_action(rng, rank, 8)
        m = GLattice(rank, Cyclic(g))
        base = h1(m)
        p = random_unimodular(rng, rank)
        h, pinv = hermite_form(p)
        conj = GLattice(rank, Cyclic(p @ g @ pinv))
        res = h1(conj)
        assert res.h1 == base.h1 and res.h0_rank == base.h0_rank


def test_h1_additivity():
    rng = random.Random(91)
    for _ in range(15):
        r1, r2 = rng.randint(1, 3), rng.randint(1, 3)
        g1 = random_finite_order_action(rng, r1, 4)
        g2 = random_finite_order_action(rng, r2, 4)
        # same abstract group: use a common power so orders match up
        m1 = GLattice(r1, Cyclic(g1))
        m2 = GLattice(r2, Cyclic(g2))
        s = direct_sum(m1, m2)
        assert h1(s).h1 == h1(m1).h1.direct_sum(h1(m2).h1)


# --- closure walk, cached closure and orders ------------------------------------------


def closed_by_table(elements):
    """Reference subgroup check over the full multiplication table, |G|^2 products."""
    members = set(elements)
    return (
        len(members) == len(elements)
        and IntMatrix.identity(elements[0].rows) in members
        and all(a @ b in members for a in elements for b in elements)
    )


def perm_matrix(perm, signed):
    """Permutation matrix of ``perm``, times its sign when ``signed``."""
    n = len(perm)
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    sign = -1 if signed and inversions % 2 else 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[perm[i]][i] = sign
    return IntMatrix(rows)


def symmetric_group_module(degree, signed):
    """All of S_n acting by permutations, twisted by the sign when ``signed``."""
    return [perm_matrix(p, signed) for p in itertools.permutations(range(degree))]


def symmetric_group_generators(degree, signed):
    """A transposition and an n-cycle."""
    cycle = tuple(range(1, degree)) + (0,)
    return [perm_matrix((1, 0) + tuple(range(2, degree)), signed), perm_matrix(cycle, signed)]


def conjugated_modules(seed):
    """Shuffled, unimodularly conjugated S3/S4 permutation and sign modules."""
    rng = random.Random(seed)
    for degree in (3, 4):
        for signed in (False, True):
            p, pinv = conjugator(rng, degree)
            mats = [p @ g @ pinv for g in symmetric_group_module(degree, signed)]
            rng.shuffle(mats)
            yield rng, degree, signed, p, pinv, mats


def unipotent(n):
    rows = IntMatrix.identity(n).tolists()
    rows[0][1] = 1
    return IntMatrix(rows)


def test_explicit_walk_matches_full_table():
    for rng, degree, signed, p, pinv, mats in conjugated_modules(7):
        ident = IntMatrix.identity(degree)
        missing = list(mats)
        missing.remove(rng.choice([g for g in mats if g != ident]))
        cases = [(mats, True), (missing, False)]
        for foreign in (-ident, p @ unipotent(degree) @ pinv):
            with_foreign = list(mats)
            with_foreign.insert(rng.randrange(len(mats) + 1), foreign)
            cases.append((with_foreign, False))
        for elements, expected in cases:
            assert closed_by_table(elements) is expected
            if expected:
                assert validate_and_close(Explicit(elements)) == elements
            else:
                with pytest.raises(ValidationError, match="not closed under products"):
                    validate_and_close(Explicit(elements))


def test_explicit_walk_rejects_unipotent_pair():
    with pytest.raises(ValidationError, match="not closed"):
        validate_and_close(Explicit([IntMatrix.identity(2), IntMatrix([[1, 1], [0, 1]])]))


def test_restrict_subgroup_walk_matches_full_table():
    for rng, degree, signed, p, pinv, mats in conjugated_modules(8):
        full = GLattice(degree, Explicit(mats))
        ident = IntMatrix.identity(degree)
        # the stabilizer of the last point, S_(n-1), conjugated the same way
        stabilizer = [
            p @ perm_matrix(q, signed) @ pinv
            for q in itertools.permutations(range(degree))
            if q[-1] == degree - 1
        ]
        rng.shuffle(stabilizer)
        outside = next(g for g in mats if g not in stabilizer)
        cases = [(mats, True), (stabilizer, True), (stabilizer + [outside], False)]
        for subgroup in (mats, stabilizer):
            partial = list(subgroup)
            partial.remove(rng.choice([g for g in subgroup if g != ident]))
            if len(partial) > 1:  # one element restricts to its cyclic closure instead
                cases.append((partial, False))
        for subset, expected in cases:
            assert closed_by_table(subset) is expected
            if expected:
                assert restrict_subgroup(full, subset).group.elements == tuple(subset)
            else:
                with pytest.raises(NotSubgroup, match="not closed under products"):
                    restrict_subgroup(full, subset)


def test_restrict_subgroup_keeps_the_checks_of_its_members(monkeypatch):
    dets = []
    real = IntMatrix.det
    mats = symmetric_group_module(3, True)
    m = GLattice(3, Explicit(mats), IntMatrix.identity(3))
    stabilizer = [g for g in mats if g[2][2]]  # the two that fix the last point up to sign
    m.elements()
    monkeypatch.setattr(IntMatrix, "det", lambda x: dets.append(1) or real(x))
    results = [h1(restrict_subgroup(m, stabilizer)), h1(restrict_subgroup(m, mats[1]))]
    # every member is unimodular and preserves the form already: no determinant
    assert dets == []
    monkeypatch.undo()
    assert len(stabilizer) == 2 and results == [
        h1(GLattice(3, Explicit(stabilizer), m.form)), h1(GLattice(3, Cyclic(mats[1]), m.form))]


def test_closure_is_cached_per_lattice(monkeypatch):
    import glattice.cohomology as coh

    calls = []
    real = coh._closed_walk
    monkeypatch.setattr(coh, "_closed_walk", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    m = permutation_module([[1, 0, 2, 3], [1, 2, 3, 0]], kind="generated")
    first = m.elements()
    obstruction_scan(m)
    h1_cocycle(m)
    restrict_subgroup(m, [IntMatrix.identity(4)])
    assert len(calls) == 1
    first.clear()  # callers get copies: the cache is untouched
    assert len(m.elements()) == 24
    assert m == permutation_module([[1, 0, 2, 3], [1, 2, 3, 0]], kind="generated")
    assert hash(m) == hash(permutation_module([[1, 0, 2, 3], [1, 2, 3, 0]], kind="generated"))
    assert repr(m) == repr(GLattice(m.rank, m.group, m.form))
    # the bound is the spec's: the same generators with a bound of 24 close, with 23 are refused
    assert len(GLattice(4, Generated(m.group.matrices, closure_bound=24)).elements()) == 24
    with pytest.raises(GroupTooLarge):
        GLattice(4, Generated(m.group.matrices, closure_bound=23)).elements()


def test_closure_cache_shared_between_threads():
    import sys
    import threading

    expected = h1_cocycle(permutation_module([[1, 0, 2, 3], [1, 2, 3, 0]], kind="generated"))
    m = permutation_module([[1, 0, 2, 3], [1, 2, 3, 0]], kind="generated")
    results = []

    def work():
        results.append((tuple(m.elements()), invariants_h0(m), h1_cocycle(m)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6
    assert all(r == results[0] for r in results)
    assert results[0][2] == expected and len(results[0][0]) == 24


def naive_order_within(g, bound):
    """The order of ``g`` by repeated exact products, or None beyond ``bound``."""
    ident = IntMatrix.identity(g.rows)
    p = g
    for k in range(1, bound + 1):
        if p == ident:
            return k
        p = p @ g
    return None


def assert_order_matches_exact_powers(g, bound):
    expected = naive_order_within(g, bound)
    if expected is None:
        with pytest.raises(GroupTooLarge, match=f"^group too large or infinite: order exceeds {bound}$"):
            matrix_order(g, bound)
    else:
        assert matrix_order(g, bound) == expected


def test_matrix_order_matches_naive_powers():
    rng = random.Random(31)
    for _ in range(60):
        rank = rng.randint(1, 7)
        g = random_finite_order_action(rng, rank, 60)
        assert_order_matches_exact_powers(g, DEFAULT_ORDER_BOUND)
    assert matrix_order(IntMatrix([[1]])) == 1
    assert matrix_order(IntMatrix([], cols=0)) == 1
    with pytest.raises(GroupTooLarge, match="order exceeds 3"):
        matrix_order(permutation_module([[1, 2, 3, 0]], kind="cyclic").group.generator, 3)
    assert matrix_order(permutation_module([[1, 2, 3, 0]], kind="cyclic").group.generator, 4) == 4
    # an involution is settled by its exact square, within the bound as well
    with pytest.raises(GroupTooLarge, match="order exceeds 1"):
        matrix_order(SWAP, 1)
    assert matrix_order(SWAP, 2) == 2


def hyperbolic_plus_unipotent(rng, n):
    """Unimodular conjugate of [[2,1],[1,1]] + [[1,1],[0,1]] + I_(n-4): infinite order."""
    rows = IntMatrix.identity(n).tolists()
    rows[0][:2] = [2, 1]
    rows[1][:2] = [1, 1]
    rows[2][3] = 1
    p, pinv = conjugator(rng, n)
    return p @ IntMatrix(rows) @ pinv


def conjugated_symmetric_elements(seed):
    """Every element of S3, S4, S5 and S5 on unordered pairs, plain and sign-twisted, unimodularly conjugated."""
    rng = random.Random(seed)
    for degree, on_pairs in ((3, False), (4, False), (5, False), (5, True)):
        points = list(itertools.combinations(range(degree), 2)) if on_pairs else [(i,) for i in range(degree)]
        for signed in (False, True):
            p, pinv = conjugator(rng, len(points))
            for perm in itertools.permutations(range(degree)):
                moved = tuple(points.index(tuple(sorted(perm[x] for x in q))) for q in points)
                odd = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(degree), 2)) % 2
                g = p @ perm_matrix(moved, False) @ pinv
                yield -g if signed and odd else g


def test_packed_order_matches_exact_powers_on_permutation_modules():
    for g in conjugated_symmetric_elements(17):
        assert_order_matches_exact_powers(g, DEFAULT_ORDER_BOUND)


def test_packed_order_matches_exact_powers_on_signed_permutations():
    rng = random.Random(23)
    for rank in range(1, 41):
        for bound in (rank, 4 * rank):
            perm = list(range(rank))
            rng.shuffle(perm)
            rows = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                rows[perm[i]][i] = rng.choice((1, -1))
            assert_order_matches_exact_powers(IntMatrix(rows), bound)


def test_packed_order_matches_exact_powers_on_weyl_elements():
    from glattice.picard import reflection, restrict_action, root_system

    rng = random.Random(29)
    for d in range(1, 7):
        system = root_system(d)
        for _ in range(8):
            g = IntMatrix.identity(system.lattice.rank)
            for _ in range(rng.randint(1, 12)):
                g = g @ reflection(system.lattice, rng.choice(system.roots))
            for m in (g, restrict_action(g, system.q.basis)):
                assert_order_matches_exact_powers(m, 60)


def test_matrix_order_refuses_infinite_order():
    rng = random.Random(12)
    inputs = [IntMatrix([[1, 1], [0, 1]]), IntMatrix([[2, 1], [1, 1]]), unipotent(5)]
    inputs += [hyperbolic_plus_unipotent(rng, n) for n in (12, 16)]
    for g in inputs:
        for bound in (1, 2, 50, DEFAULT_ORDER_BOUND):
            with pytest.raises(GroupTooLarge, match=f"^group too large or infinite: order exceeds {bound}$"):
                matrix_order(g, bound)
    with pytest.raises(GroupTooLarge, match="closure exceeds 10000"):
        validate_and_close(Generated([inputs[-1], IntMatrix.identity(16)]))


def two_pass_cocycle_bases(m, gens=None):
    """Z^1 and B^1 the way they were built before the single-pass walk.

    Cocycles are taken by their values on ``gens``, the greedy generators of
    the closure by default; a generator may repeat or be redundant.
    """
    elements = m.elements()
    if gens is None:
        gens = []
        known = {IntMatrix.identity(m.rank)}
        for g in elements:
            if g not in known:
                gens.append(g)
                known = set(mulclose(gens, len(elements)))
    r, s = m.rank, len(gens)
    ident = IntMatrix.identity(r)
    slot = []
    for k in range(s):
        e = IntMatrix.zeros(r, s * r).tolists()
        for i in range(r):
            e[i][k * r + i] = 1
        slot.append(IntMatrix(e, cols=s * r))
    t = {ident: IntMatrix.zeros(r, s * r)}
    frontier = [ident]
    while frontier:
        new = []
        for h in frontier:
            for k, g in enumerate(gens):
                if g @ h not in t:
                    t[g @ h] = slot[k] + g @ t[h]
                    new.append(g @ h)
        frontier = new
    rows = [row for k, g in enumerate(gens) for h in elements for row in t[g @ h] - slot[k] - g @ t[h] if any(row)]
    z1 = kernel_basis(IntMatrix(rows, cols=s * r))
    b1 = IntMatrix([[x for g in gens for x in (g - ident).column(i)] for i in range(r)], cols=s * r)
    return z1, b1


def test_single_pass_cocycle_matches_two_pass_reference():
    rng = random.Random(5)
    for degree in (3, 4):
        for signed in (False, True):
            mats = symmetric_group_module(degree, signed)
            listed = list(mats)
            rng.shuffle(listed)
            gens = symmetric_group_generators(degree, signed)
            for m in (GLattice(degree, Explicit(listed)), GLattice(degree, Generated(gens))):
                res = h1_cocycle(m)
                z1, b1 = two_pass_cocycle_bases(m)
                assert res.h1 == subquotient(z1, b1)
                assert res.group_order == len(mats)


@st.composite
def signed_permutation_groups(draw):
    """A group of signed permutation matrices, unimodularly conjugated, as a list or by generators.

    A generated group may also list redundant matrices: a repeat, the
    identity and a product of two drawn generators.
    """
    degree = draw(st.integers(1, 4))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(degree)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=degree, max_size=degree))
        rows = [[0] * degree for _ in range(degree)]
        for i in range(degree):
            rows[perm[i]][i] = signs[i]
        gens.append(IntMatrix(rows))
    p, pinv = conjugator(random.Random(draw(st.integers(0, 2**16))), degree)
    gens = [p @ g @ pinv for g in gens]
    if draw(st.booleans()):
        for redundant in draw(st.lists(st.sampled_from(("repeat", "identity", "product")), max_size=3)):
            if redundant == "repeat":
                extra = draw(st.sampled_from(gens))
            elif redundant == "identity":
                extra = IntMatrix.identity(degree)
            else:
                extra = draw(st.sampled_from(gens)) @ draw(st.sampled_from(gens))
            gens.insert(draw(st.integers(0, len(gens))), extra)
        return GLattice(degree, Generated(gens))
    return GLattice(degree, Explicit(mulclose(gens)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(signed_permutation_groups())
def test_cocycle_kernel_matches_fox_reference(m):
    res = h1_cocycle(m)
    z1, b1 = two_pass_cocycle_bases(m, m.group._checked_walk().gens)
    assert res.h1 == subquotient(z1, b1)
    assert res.h0_rank == invariants_h0(m).rows


def test_weyl_d5_on_del_pezzo_4():
    from glattice.picard import del_pezzo_pic, reflection, simple_roots

    lat = del_pezzo_pic(4)
    gens = [reflection(lat, a) for a in simple_roots(lat)]
    # W(D5) fixes K; twisted by the sign character it fixes nothing, and H^1 = Z/2
    for twisted, h0_rank, expected in ((False, 1, FinAbGroup()), (True, 0, FinAbGroup((2,)))):
        m = GLattice(lat.rank, Generated([-g if twisted else g for g in gens]), lat.gram)
        res = h1_cocycle(m)
        assert (res.group_order, res.h0_rank, res.h1) == (1920, h0_rank, expected)


def test_fixed_lattice_computed_once_per_row(monkeypatch):
    import glattice.cohomology as coh
    from glattice.picard import dejonquieres, verify_row

    delta = dejonquieres(3).pic_glattice().group.generator
    fixed_problem = delta - IntMatrix.identity(delta.rows)
    calls = []
    real = coh.kernel_basis
    monkeypatch.setattr(coh, "kernel_basis", lambda a: calls.append(a) or real(a))
    assert verify_row("dejonquieres", genus=3).passed
    assert calls.count(fixed_problem) == 1


def test_generator_order_found_once_per_lattice(monkeypatch):
    import glattice.cohomology as coh
    import glattice.picard as picard

    calls = []
    real = coh.matrix_order

    def counted(g, *args, **kw):
        calls.append(g)
        return real(g, *args, **kw)

    monkeypatch.setattr(coh, "matrix_order", counted)
    assert picard.verify_row("geiser").passed
    # the Pic lattice's order, once; its K^perp restriction's is found mod 3 within it
    assert len(calls) == 1
    assert calls[0].rows == 8


def test_order_found_once_per_searched_row(monkeypatch):
    import glattice.cohomology as coh
    import glattice.picard as picard

    calls = []
    real = coh.matrix_order

    def counted(g, *args, **kw):
        calls.append(g)
        return real(g, *args, **kw)

    monkeypatch.setattr(coh, "matrix_order", counted)
    assert picard.verify_row("dp3-p3").passed
    # the searched Pic lattice's order, once; its K^perp restriction's is found mod 3 within it
    assert len(calls) == 1
    assert calls[0].rows == 7


def test_cyclic_order_found_once(monkeypatch):
    import glattice.cohomology as coh

    calls = []
    real = coh.matrix_order
    monkeypatch.setattr(coh, "matrix_order", lambda *a: calls.append(a) or real(*a))
    m = permutation_module([[1, 2, 0]], kind="cyclic")
    h1(m)
    obstruction_scan(m)
    assert len(calls) == 1


def test_cyclic_h1_reads_the_order_and_takes_no_walk(monkeypatch):
    import glattice.cohomology as coh
    from glattice.picard import charpoly_order, geiser_involution, verify_row

    walks, orders = [], []
    real_walk, real_order = coh._closed_walk, coh.matrix_order
    monkeypatch.setattr(coh, "_closed_walk", lambda *a, **kw: walks.append(a) or real_walk(*a, **kw))
    monkeypatch.setattr(coh, "matrix_order", lambda *a: orders.append(a) or real_order(*a))
    geiser = geiser_involution()
    res = h1_cyclic(geiser)
    assert (res.group_order, res.h0_rank, res.h1) == (2, 1, FinAbGroup((2,) * 6))
    assert charpoly_order(geiser) == 64
    assert verify_row("dejonquieres", genus=3).passed
    # one exact order per lattice (Geiser, then the conic bundle's Pic), kept by the spec; the Q block's
    # order is 1 or 2 by one identity test (see leading_block); no walk
    assert len(orders) == 2 and walks == []
    assert geiser.group._walk is None and "_elements" not in geiser.__dict__

    # the closure and the scan still walk the powers, on the order already found
    g = -permutation_module([[1, 2, 0, 4, 3]], kind="cyclic").group.generator
    m = GLattice(5, Cyclic(g))
    res = h1_cyclic(m)
    assert (res.group_order, res.h0_rank, res.h1, len(orders), walks) == (6, 1, FinAbGroup((2,)), 3, [])
    powers = [IntMatrix.identity(5)]
    for _ in range(5):
        powers.append(powers[-1] @ g)
    assert m.elements() == powers
    scan = obstruction_scan(m)
    assert (len(orders), len(walks)) == (3, 1)
    assert scan.full_group == res
    assert scan.subgroups == (
        SubgroupEntry(0, 1, FinAbGroup(())),
        SubgroupEntry(1, 6, FinAbGroup((2,))),
        SubgroupEntry(2, 3, FinAbGroup(())),
        SubgroupEntry(3, 2, FinAbGroup((2, 2, 2))),
    )
    assert scan.witnesses == (
        "full group: H^1 = (Z/2)",
        "cyclic subgroup of element 1 (order 6): H^1 = (Z/2)",
        "cyclic subgroup of element 3 (order 2): H^1 = (Z/2)^3",
    )


def test_h1_cocycle_reuses_the_closure_walk(monkeypatch):
    calls = []
    real = IntMatrix.__matmul__

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    explicit = permutation_module([list(p) for p in itertools.permutations(range(4))], kind="explicit")
    generated = permutation_module([[1, 0, 2, 3], [1, 2, 3, 0]], kind="generated")
    for m in (explicit, generated):
        m.elements()
    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    assert h1_cocycle(explicit).h1.is_trivial
    # the list was walked when it was validated: no product is formed again
    assert len(calls) == 0
    assert h1_cocycle(generated).h1.is_trivial
    # the walk that closed the group is the one H^1 takes
    assert len(calls) == 0


def test_each_lattice_is_walked_once(monkeypatch):
    import glattice.cohomology as coh

    calls = []
    real = coh._closed_walk
    monkeypatch.setattr(coh, "_closed_walk", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    perms = [list(p) for p in itertools.permutations(range(4))]
    for make in (
        lambda: permutation_module([[1, 0, 2, 3], [1, 2, 3, 0]], kind="generated"),
        lambda: permutation_module(perms, kind="explicit"),
        lambda: permutation_module([[1, 2, 3, 0]], kind="cyclic"),
    ):
        calls.clear()
        m = make()
        h1(m)
        obstruction_scan(m)
        restrict_subgroup(m, [IntMatrix.identity(4)])
        # the spec keeps the walk that closed it, and H^1 and the scan run on it
        assert len(calls) == 1
        assert m.group._checked_walk() is m.group._walk and set(m.group._walk.elements) == set(m.elements())
        assert len(calls) == 1


def test_listed_matrices_checked_once_per_lattice(monkeypatch):
    calls = []
    real = IntMatrix.is_unimodular
    monkeypatch.setattr(IntMatrix, "is_unimodular", lambda a: calls.append(a) or real(a))
    mats = symmetric_group_module(3, True)
    m = GLattice(3, Explicit(mats), IntMatrix.identity(3))
    h1(m)
    obstruction_scan(m)
    # the six listed matrices are products of the walk's two greedy generators, whose determinants
    # prove every member unimodular
    gens = m.group._checked_walk().gens
    assert len(gens) == 2 and calls == list(gens)
    # the public closure checks the generators of every spec it is given
    validate_and_close(Explicit(mats))
    assert len(calls) == 4


def test_an_unclosed_list_is_walked_once_and_refused_at_first_use(monkeypatch):
    import glattice.cohomology as coh

    calls = []
    real = coh._closed_walk
    monkeypatch.setattr(coh, "_closed_walk", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    # S_3 without its last element: every listed matrix is unimodular and keeps the form, so the
    # lattice is built, and the walk its check took is refused where the group is first used
    m = GLattice(3, Explicit(symmetric_group_module(3, True)[:-1]), IntMatrix.identity(3))
    for use in (h1, obstruction_scan, GLattice.elements, lambda m: restrict_subgroup(m, [IntMatrix.identity(3)])):
        with pytest.raises(ValidationError, match="^Explicit element list is not closed under products$"):
            use(m)
    assert len(calls) == 1


def test_a_refused_generated_walk_is_kept_and_raised_at_every_use(monkeypatch):
    import glattice.cohomology as coh

    orders = []
    real = coh.matrix_order
    monkeypatch.setattr(coh, "matrix_order", lambda *a: orders.append(a) or real(*a))
    m = GLattice(2, Generated([IntMatrix([[1, 1], [0, 1]])], 50))
    for use in (h1, obstruction_scan, GLattice.elements):
        with pytest.raises(GroupTooLarge, match="^group too large or infinite: closure exceeds 50$"):
            use(m)
    # the spec keeps the refusal its walk ended in: the unipotent generator's order is sought once
    assert len(orders) == 1


def test_a_refused_cyclic_order_is_kept_and_raised_at_every_use(monkeypatch):
    import glattice.cohomology as coh

    orders = []
    real = coh.matrix_order
    monkeypatch.setattr(coh, "matrix_order", lambda *a: orders.append(a) or real(*a))
    m = GLattice(2, Cyclic(IntMatrix([[1, 1], [0, 1]]), 50))
    for use in (h1, obstruction_scan, GLattice.elements):
        with pytest.raises(GroupTooLarge, match="^group too large or infinite: order exceeds 50$"):
            use(m)
    # the order's refusal is kept with the spec, as a walk's is: the unipotent generator is powered once
    assert len(orders) == 1


def test_a_list_is_checked_on_its_greedy_generators_in_one_pass(monkeypatch):
    import glattice.cohomology as coh

    rng = random.Random(42)
    p, pinv = conjugator(rng, 4)
    listed = [p @ g @ pinv for g in symmetric_group_module(4, True)]
    rng.shuffle(listed)
    form = pinv.transpose() @ pinv  # the conjugated action preserves P^-T P^-1
    hashed, defects = [], []
    real_hash, real_defect = IntMatrix.__hash__, coh.GroupSpec._defect
    monkeypatch.setattr(IntMatrix, "__hash__", lambda a: hashed.append(a) or real_hash(a))
    monkeypatch.setattr(coh.GroupSpec, "_defect", lambda spec, g, f: defects.append(g) or real_defect(spec, g, f))
    m = GLattice(4, Explicit(listed), form)
    gens = m.group._checked_walk().gens
    # the walk finds duplicates and the identity by column keys: no listed matrix is hashed
    assert not [a for a in hashed if any(a is g for g in listed)]
    assert 2 <= len(gens) < len(listed) and defects == list(gens)

    # a walk reads only columns, so a greedy generator reported singular keeps the list closed: the one
    # pass reaches it last and names its list index, with no second pass over the members before it
    bad = gens[-1]
    real_unimodular = IntMatrix.is_unimodular
    monkeypatch.setattr(IntMatrix, "is_unimodular", lambda a: a is not bad and real_unimodular(a))
    defects.clear()
    with pytest.raises(ValidationError) as refused:
        GLattice(4, Explicit(listed), form)
    index = next(i for i, g in enumerate(listed) if g is bad)
    assert (str(refused.value), refused.value.index, refused.value.reason) == (
        f"matrix {index} is not unimodular", index, "unimodular")
    assert defects == list(gens)

    # a singular matrix that a closed list holds is walked as a greedy generator: the zero matrix,
    # which absorbs every product, appended to the list is its last one and the first defect
    monkeypatch.setattr(IntMatrix, "is_unimodular", real_unimodular)
    defects.clear()
    with pytest.raises(ValidationError, match=f"^matrix {len(listed)} is not unimodular$"):
        GLattice(4, Explicit(listed + [IntMatrix.zeros(4, 4)]), form)
    assert defects == [*gens, IntMatrix.zeros(4, 4)]


LIST_FAULTS = ("singular", "form", "duplicate", "no identity", "missing member", "bound")


def faulty_list(rng, degree, signed, faults):
    """A shuffled, conjugated S_n list with ``faults`` applied in turn, the bound last: ``(list, bound, form)``."""
    p, pinv = conjugator(rng, degree)
    listed = [p @ g @ pinv for g in symmetric_group_module(degree, signed)]
    rng.shuffle(listed)
    ident = IntMatrix.identity(degree)
    form = pinv.transpose() @ pinv if "form" in faults or rng.random() < 0.5 else None
    for fault in faults:
        i = rng.randrange(len(listed))
        if fault == "singular":  # row 0 doubled
            listed[i] = IntMatrix([[2 * x for x in listed[i][0]]] + [list(row) for row in listed[i][1:]])
        elif fault == "form":  # unimodular, but times a conjugated shear it breaks the form
            listed[i] = listed[i] @ p @ unipotent(degree) @ pinv
        elif fault == "duplicate":
            listed.insert(rng.randrange(len(listed) + 1), IntMatrix(listed[i].tolists()))
        elif fault == "no identity":
            listed = [g for g in listed if g != ident]
        elif fault == "missing member":
            listed.remove(rng.choice([g for g in listed if g != ident]))
    return listed, len(listed) - 1 if "bound" in faults else DEFAULT_ORDER_BOUND, form


def reference_refusal(listed, bound, form):
    """``(stage, type, text, index, reason)`` of the documented first refusal, found by brute force, or None.

    Each listed matrix's defect, in list order, is refused when the lattice
    is built; a list that is no group is refused at its first use: over the
    bound, then a duplicate, then no identity, then a product outside it.
    """
    for i, g in enumerate(listed):
        if g.det() not in (1, -1):
            return "built", ValidationError, f"matrix {i} is not unimodular", i, "unimodular"
        if form is not None and g.transpose() @ form @ g != form:
            return "built", ValidationError, f"matrix {i} does not preserve the bilinear form", i, "form"
    members = set(listed)
    if len(listed) > bound:
        return "used", GroupTooLarge, f"group too large or infinite: {len(listed)} > {bound}", None, None
    if len(members) < len(listed):
        return "used", ValidationError, "Explicit element list contains duplicates", None, None
    if IntMatrix.identity(listed[0].rows) not in members:
        return "used", ValidationError, "Explicit element list is missing the identity", None, None
    if not all(a @ b in members for a in listed for b in listed):
        return "used", ValidationError, "Explicit element list is not closed under products", None, None
    return None


def test_a_list_with_combined_faults_gets_the_documented_first_refusal():
    rng = random.Random(43)
    combos = [()] + [(f,) for f in LIST_FAULTS] + list(itertools.combinations(LIST_FAULTS, 2))
    for degree in (3, 4, 5):
        for signed in (False, True):
            for faults in combos:
                listed, bound, form = faulty_list(rng, degree, signed, rng.sample(faults, len(faults)))
                stage, got = "built", None
                try:
                    m = GLattice(degree, Explicit(listed, bound), form)
                    stage = "used"
                    h1(m)
                except (ValidationError, GroupTooLarge) as e:
                    got = stage, type(e), str(e), getattr(e, "index", None), getattr(e, "reason", None)
                assert got == reference_refusal(listed, bound, form), (degree, signed, faults)


def test_direct_sum_checks_explicit_pairing_along_the_walk(monkeypatch):
    calls, dets = [], []
    real, real_det = IntMatrix.__matmul__, IntMatrix.det
    perms = [list(p) for p in itertools.permutations(range(4))]
    a = permutation_module(perms, kind="explicit")
    b = permutation_module(perms, kind="explicit")
    monkeypatch.setattr(IntMatrix, "__matmul__", lambda x, y: calls.append(1) or real(x, y))
    monkeypatch.setattr(IntMatrix, "det", lambda x: dets.append(1) or real_det(x))
    s = direct_sum(a, b)
    # the pairing is proved by one walk of the paired list on permutations: no product,
    # against one per edge of a walk (24 elements by 3 greedy generators) or two tables of 24^2
    assert len(calls) == 0
    # the sum's walk keeps its listed objects: each element is held once
    assert all(any(x is y for y in s.group.elements) for x in s.group._walk.elements)
    # the sum keeps the pairing walk and the checks its summands passed
    calls.clear()
    assert h1(s).h1.is_trivial
    assert len(calls) == 0 and len(dets) == 0
    monkeypatch.undo()
    assert h1(s) == h1(GLattice(s.rank, Explicit(s.group.elements), s.form))
    with pytest.raises(GroupMismatch, match="tables"):
        direct_sum(a, permutation_module(perms[::-1], kind="explicit"))


def test_direct_sum_of_generated_lattices_stops_the_walk_past_the_first_order(monkeypatch):
    import glattice.cohomology as coh

    refused = []
    real = coh._closed_walk

    def spy(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except GroupTooLarge as e:
            refused.append((kwargs.get("bound"), str(e)))
            raise

    # S_3 by a transposition and a 3-cycle, paired with the 3-cycle and the transposition: both
    # summands have order 6 and bound 6, and the paired generators close a larger group
    t, c = perm_matrix((1, 0, 2), False), perm_matrix((1, 2, 0), False)
    m1, m2 = GLattice(3, Generated([t, c], 6)), GLattice(3, Generated([c, t], 6))
    assert len(m1.elements()) == len(m2.elements()) == 6
    monkeypatch.setattr(coh, "_closed_walk", spy)
    with pytest.raises(GroupMismatch, match="^group mismatch: generator pairing is not an isomorphism$"):
        direct_sum(m1, m2)
    # the sum's walk is refused at its seventh element, and the refusal is the pairing's
    assert refused == [(6, "group too large or infinite: closure exceeds 6")]


def test_direct_sum_keeps_the_generated_walk(monkeypatch):
    calls = []
    real = IntMatrix.__matmul__
    a = permutation_module([[1, 0, 2, 3], [1, 2, 3, 0]], kind="generated")
    b = GLattice(4, Generated(symmetric_group_generators(4, True)))
    a.elements(), b.elements()
    monkeypatch.setattr(IntMatrix, "__matmul__", lambda x, y: calls.append(1) or real(x, y))
    s = direct_sum(a, b)
    assert h1(s).h1 == FinAbGroup((2,))
    assert len(s.elements()) == 24
    # the pairing is proved on the summands' walks, which the sum keeps
    assert len(calls) == 0
    monkeypatch.undo()
    assert h1(s) == h1(GLattice(s.rank, Generated(s.group.generators), s.form))


def test_direct_sum_of_generated_lattices_builds_no_element_matrix(monkeypatch):
    blocks = []
    real = IntMatrix.block_diag
    a = permutation_module([[1, 0, 2, 3], [1, 2, 3, 0]], kind="generated")
    b = GLattice(4, Generated(symmetric_group_generators(4, True)), IntMatrix.identity(4))
    monkeypatch.setattr(IntMatrix, "block_diag", lambda x, y: blocks.append(1) or real(x, y))
    s = direct_sum(a, b)
    assert h1(s).h1 == FinAbGroup((2,)) and s.form is None
    # the pairing is proved by walking the sum on permutations: the summands' walks and the
    # sum's build no element, and only the listed generators are paired, which the sum walks by
    walks = [m.group._walk for m in (a, b, s)]
    assert all("elements" not in w.__dict__ for w in walks) and len(blocks) == 2
    assert s.group._walk.gens == s.group.generators
    elements = s.elements()
    monkeypatch.undo()
    assert elements == [real(x, y) for x, y in zip(a.elements(), b.elements())]
    assert set(elements) == set(GLattice(8, Generated(s.group.generators)).elements())


def test_direct_sum_generated_pairing_matches_closure_sizes():
    # the pairing is an isomorphism iff the paired closure is no larger than either side
    rng = random.Random(23)
    for degree in (3, 4):
        group = symmetric_group_module(degree, False)
        for _ in range(12):
            g1, g2 = rng.sample(group, 2), rng.sample(group, 2)
            paired = [IntMatrix.block_diag(x, y) for x, y in zip(g1, g2)]
            iso = len(mulclose(g1)) == len(mulclose(g2)) == len(mulclose(paired))
            m1, m2 = GLattice(degree, Generated(g1)), GLattice(degree, Generated(g2))
            if iso:
                assert len(direct_sum(m1, m2).elements()) == len(mulclose(g1))
            else:
                with pytest.raises(GroupMismatch, match="isomorphism"):
                    direct_sum(m1, m2)


def products_along_the_first_walk(m1, m2):
    """Reference pairing proof: every product a.s of ``m1``'s walk, paired, must be formed in ``m2``.

    A list pairs its elements as listed; a generated pairing maps each
    element to the paired product that first reaches it, row by row of
    ``m1``'s Cayley table, which must be well defined and one-to-one.  The
    table is the reference walk's by matrix products (``matrix_walk``).
    """
    if isinstance(m1.group, Explicit):
        m2.elements()  # the second list is a group as well
        reached, walk_gens, right = matrix_walk((), m1.group.elements)
        pair = dict(zip(m1.group.elements, m2.group.elements))
        image = [pair[x] for x in reached]
        gens = [pair[s] for s in walk_gens]
    else:
        reached, walk_gens, right = matrix_walk(m1.group.generators)
        assert walk_gens == list(m1.group.generators)  # a generated group is walked by its listed generators
        image, gens = [IntMatrix.identity(m2.rank)] + [None] * (len(reached) - 1), m2.group.generators
    for a, row in enumerate(right):  # breadth first: row a's element was reached from an earlier row
        for s, b in enumerate(row):
            product = image[a] @ gens[s]
            if image[b] is None:
                image[b] = product
            elif product != image[b]:
                return False
    return len(set(image)) == len(image)


def test_direct_sum_walk_pairing_matches_products_along_the_first_walk():
    rng = random.Random(41)
    outcomes = []
    for degree in (3, 4):
        perms = list(itertools.permutations(range(degree)))
        for signed1, signed2 in ((False, False), (False, True), (True, True)):
            p1, p1inv = conjugator(rng, degree)
            p2, p2inv = conjugator(rng, degree)
            group1 = [p1 @ perm_matrix(q, signed1) @ p1inv for q in perms]
            group2 = [p2 @ perm_matrix(q, signed2) @ p2inv for q in perms]
            pairs = []
            for trial in range(6):
                # the same permutations, conjugated by c (an automorphism of S_n), then
                # perhaps two of them swapped or all shuffled
                c = rng.choice(perms)
                order = list(range(len(perms)))
                rng.shuffle(order)
                image = [perms.index(tuple(c[q[c.index(i)]] for i in range(degree))) for q in perms]
                if trial % 3 == 1:
                    i, j = rng.sample(range(len(perms)), 2)
                    image[i], image[j] = image[j], image[i]
                elif trial % 3 == 2:
                    rng.shuffle(image)
                listed1 = [group1[k] for k in order]
                listed2 = [group2[image[k]] for k in order]
                pairs.append((Explicit(listed1), Explicit(listed2)))
                g1, g2 = rng.sample(range(len(perms)), 2), rng.sample(range(len(perms)), 2)
                if trial % 2 == 0:
                    g2 = [image[k] for k in g1]
                pairs.append((Generated([group1[k] for k in g1]), Generated([group2[k] for k in g2])))
            for spec1, spec2 in pairs:
                m1, m2 = GLattice(degree, spec1), GLattice(degree, spec2)
                expected = products_along_the_first_walk(m1, m2)
                try:
                    s = direct_sum(m1, m2)
                except GroupMismatch:
                    accepted = False
                else:
                    accepted = True
                    assert len(s.elements()) == len(m1.elements())
                assert accepted is expected
                outcomes.append((type(spec1), accepted))
    # both kinds were both accepted and refused
    assert set(outcomes) == {(kind, ok) for kind in (Explicit, Generated) for ok in (True, False)}


# --- the permutation walk -------------------------------------------------------


def matrix_walk(gens, members=()):
    """Reference walk by exact matrix products: breadth first from the identity by
    ``gens``, then by each of ``members`` not reached when the walk comes to it;
    ``right[a][s]`` is the index of ``reached[a] @ walk_gens[s]``."""
    one = IntMatrix.identity((gens or members)[0].rows)
    reached, index, walk_gens, right = [one], {one: 0}, [], [[]]
    for batch in itertools.chain([list(gens)], ([g] for g in members if g not in index)):
        first = len(walk_gens)
        walk_gens.extend(batch)
        known = len(reached)
        for i, x in enumerate(reached):  # the list grows as it is read
            for s in range(first if i < known else 0, len(walk_gens)):
                y = x @ walk_gens[s]
                if y not in index:
                    index[y] = len(reached)
                    reached.append(y)
                    right.append([])
                right[i].append(index[y])
    return reached, walk_gens, right


def perm_table(walk):
    """The Cayley table of a walk, ``right[a][s]`` the index of ``elements[a] @ gens[s]``, from its permutations."""
    index = {p: i for i, p in enumerate(walk.perms)}
    gens = [walk.perms[walk.elements.index(s)] for s in walk.gens]
    return [[index[walk.product(x, s)] for s in gens] for x in walk.perms]


def pairs_matrix(perm):
    """The permutation of 0..n-1 acting on the unordered pairs, as a permutation matrix."""
    pairs = list(itertools.combinations(range(len(perm)), 2))
    return perm_matrix([pairs.index(tuple(sorted((perm[i], perm[j])))) for i, j in pairs], False)


def omega_size(elements):
    """|Ω|: the orbits of the basis vectors are the columns of the group's elements."""
    return len({column for g in elements for column in zip(*g)})


def test_permutation_walk_matches_matrix_products():
    import glattice.cohomology as coh

    rng = random.Random(20)  # the union of the basis orbits has 590 points on the pairs
    p4, p4inv = conjugator(rng, 4)
    p10, p10inv = conjugator(rng, 10)
    s4 = [p4 @ g @ p4inv for g in symmetric_group_generators(4, True)]
    s5_pairs = [p10 @ pairs_matrix(q) @ p10inv for q in ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))]
    signed_pairs = [p10 @ -pairs_matrix((1, 0, 2, 3, 4)) @ p10inv, s5_pairs[1]]  # twisted by the sign
    for gens, order in ((s4, 24), (s5_pairs, 120), (signed_pairs, 120)):
        walk = Generated(gens)._checked_walk()
        assert (list(walk.elements), list(walk.gens), perm_table(walk)) == matrix_walk(gens)
        assert len(walk.elements) == walk.order == order
        # Ω is a few closed orbits that span, short of the union of every basis vector's orbit
        points, _, _, combos = coh._orbits(gens, DEFAULT_ORDER_BOUND)
        assert len(points) <= 20 < omega_size(walk.elements)
        if order == 120:  # some basis vector lies outside Ω: columns are built by combination
            assert combos is not None and not set(IntMatrix.identity(10)) <= set(points)
    # a cyclic walk: the powers of (0 1)(2 3 4) on the pairs
    g = p10 @ pairs_matrix((1, 0, 3, 4, 2)) @ p10inv
    walk = Cyclic(g)._checked_walk()
    assert (list(walk.elements), list(walk.gens), perm_table(walk)) == matrix_walk([g])
    assert len(walk.elements) == 6
    # a list, walked by its greedy generators, keeps the listed objects; both compositions
    # are taken, translated bytes up to 256 points of Ω and an itemgetter beyond
    for listed, small in (([p4 @ g @ p4inv for g in symmetric_group_module(4, False)], True),
                          ([p10 @ pairs_matrix(q) @ p10inv for q in itertools.permutations(range(5))], False)):
        rng.shuffle(listed)
        walk = Explicit(listed)._checked_walk()
        assert (list(walk.elements), list(walk.gens), perm_table(walk)) == matrix_walk((), listed)
        assert all(any(x is y for y in listed) for x in walk.elements)
        assert (omega_size(listed) <= 256) is small


def test_omega_spans_with_a_few_orbits():
    import glattice.cohomology as coh
    from glattice.picard import del_pezzo_pic, reflection, simple_roots

    # the simple reflections of E6, E7 and E8: Ω is the orbit of E_1, the exceptional curves,
    # where the union of the basis orbits has 99, 632 and 17,520 points
    for degree, size in ((3, 27), (2, 56), (1, 240)):
        lat = del_pezzo_pic(degree)
        points, images, s, combos = coh._orbits([reflection(lat, a) for a in simple_roots(lat)], DEFAULT_ORDER_BOUND)
        assert len(points) == size and lat.rank <= s < size
        assert all(sorted(image) == list(range(size)) for image in images)
        # H lies outside Ω, and is written from the support
        basis = [tuple(sum(c * x for c, x in zip(row, col)) for col in zip(*points[:s])) for row in combos]
        assert basis == list(IntMatrix.identity(lat.rank))


def test_spanning_decides_by_index_and_writes_the_basis():
    import glattice.cohomology as coh

    # points as _orbits keeps them: e0, e1, e2 first, then the extra points; the chosen ones by index
    e0, e1, e2 = IntMatrix.identity(3)

    def spanning(extra, chosen):  # the support as vectors, and the rows C
        points = [e0, e1, e2, *extra]
        span = coh._spanning(points, [points.index(v) for v in chosen], 3)
        return span and ([points[k] for k in span[0]], span[1])

    two_e0, three_e0, e01, e20 = (2, 0, 0), (3, 0, 0), (1, 1, 0), (-1, 0, 1)
    assert spanning([two_e0], [e1, e2, two_e0]) is None  # index 2: even, so singular mod 2 as well
    assert spanning([three_e0], [e1, e2, three_e0]) is None  # index 3, with full rank mod 2
    assert spanning([e01], [e0, e1, e01]) is None  # rank 2
    # no e0 is chosen: it is rebuilt from e0 + e1 and e1, and e1, e2 are their own combinations
    assert spanning([e01, e20], [e1, e2, e01, e20]) == ([e1, e01, e2], [(-1, 1, 0), (1, 0, 0), (0, 0, 1)])


def test_omega_is_small_on_benchmark_documents(monkeypatch):
    import glattice.cohomology as coh
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    for seed in range(1, 11):
        rng = random.Random(seed)
        for slot in workloads.GROUP_TEMPLATE:
            doc, _ = workloads._group_doc(rng, slot)
            if slot[0] != "accept" or slot[4] == "list":
                continue
            gens = [IntMatrix(m) for m in doc["group"]["matrices"]]
            bound = matrix_order(gens[0]) if slot[4] == "cyclic" else DEFAULT_ORDER_BOUND
            assert len(coh._orbits(gens, bound)[0]) <= 256, (seed, slot)


def test_compute_on_a_generated_lattice_builds_no_element_matrix():
    rng = random.Random(21)
    p, pinv = conjugator(rng, 10)
    m = GLattice(10, Generated([p @ pairs_matrix(q) @ pinv for q in ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))]))
    res = h1(m)
    assert (res.group_order, res.method, res.h1) == (120, "cocycle", FinAbGroup(()))
    # the walk knows its generators, its order and its table; no element matrix was built
    walk = m.group._walk
    assert "elements" not in walk.__dict__ and "_elements" not in m.__dict__
    assert len(m.elements()) == 120 and "elements" in walk.__dict__


def test_walk_refusals_keep_their_text():
    # two integer reflections with a unipotent product: the infinite dihedral
    # group, also beside 38 fixed basis vectors: only the orbit that grows counts
    reflections = [IntMatrix([[-1, 0], [0, 1]]), IntMatrix([[-1, 2], [0, 1]])]
    for fixed in (0, 38):
        gens = [IntMatrix.block_diag(r, IntMatrix.identity(fixed)) for r in reflections]
        start = time.perf_counter()
        with pytest.raises(GroupTooLarge, match="closure exceeds 10000$"):
            GLattice(2 + fixed, Generated(gens)).elements()
        assert time.perf_counter() - start < 1
    with pytest.raises(GroupTooLarge, match="closure exceeds 100$"):
        GLattice(5, Generated(symmetric_group_generators(5, False), closure_bound=100)).elements()
    rng = random.Random(19)
    p, pinv = conjugator(rng, 5)
    listed = [p @ g @ pinv for g in symmetric_group_module(5, True)]
    listed.remove(rng.choice(listed[1:]))
    with pytest.raises(ValidationError, match="not closed under products"):
        validate_and_close(Explicit(listed))


def test_h1_stacks_each_distinct_generator_once(monkeypatch):
    import glattice.cohomology as coh

    rows = []
    real = coh._rank_mod
    monkeypatch.setattr(coh, "_rank_mod", lambda b, p: rows.append(b.rows) or real(b, p))
    transposition = perm_matrix((1, 0, 2, 3), True)
    m = GLattice(4, Generated([transposition] * 50 + [IntMatrix.identity(4)]))
    res = h1_cocycle(m)
    assert res.h1 == FinAbGroup((2, 2))
    # one block of rank rows for the one distinct generator that is not the identity
    assert rows == [4]


def subquotient_h1(gens, rank):
    """``(H^1, rank of M^G)`` by Hermite and Smith: Z^rank modulo the rows of the blocks g - 1 stacked."""
    ident = IntMatrix.identity(rank)
    coker = subquotient(ident, IntMatrix.stack([g - ident for g in gens]))
    return FinAbGroup(coker.invariant_factors), coker.free_rank


def augmentation_shift(n):
    """The generator of C_n on its augmentation ideal, on the basis e_i - e_(i-1), i = 1..n-1: H^1 = Z/n."""
    rows = [[0] * (n - 1) for _ in range(n - 1)]
    for i in range(n - 1):
        rows[i][n - 2] = -1  # e_(n-1) - e_(n-2) -> e_0 - e_(n-1), minus the sum of the basis
        if i:
            rows[i][i - 1] = 1
    return IntMatrix(rows)


def test_prime_order_h1_from_ranks_matches_subquotient():
    import glattice.cohomology as coh
    from glattice.picard import dejonquieres, reflection, restrict_action, root_system

    cases = []  # (generators, rank, their group's prime order)
    # every prime-order element of the S3, S4, S5 and S5-on-pairs modules, plain and signed, conjugated
    elements = [(g, matrix_order(g)) for g in conjugated_symmetric_elements(31)]
    cases += [((g,), g.rows, n) for g, n in elements if n in (2, 3, 5)]
    # seeded Weyl words of prime order on Pic and on K^perp, a few per order and degree
    rng = random.Random(37)
    for d, primes in ((1, {2, 3, 5, 7}), (2, {2, 3, 5, 7}), (3, {2, 3, 5}), (4, {2, 3, 5}), (5, {2, 3, 5}), (6, {2, 3})):
        system = root_system(d)
        found = {}
        while any(len(found.get(p, ())) < 3 for p in primes):
            g = IntMatrix.identity(system.lattice.rank)
            for _ in range(rng.randint(1, 12)):
                g = g @ reflection(system.lattice, rng.choice(system.roots))
            n = matrix_order(g, 60)
            if n in primes and len(found.setdefault(n, [])) < 3:
                found[n].append(g)
                q = restrict_action(g, system.q.basis)
                cases += [((g,), g.rows, n), ((q,), q.rows, n)]
    cases += [((augmentation_shift(p),), p - 1, p) for p in (2, 3, 5, 7)]
    # the de Jonquieres involution on Pic and on Q, up to the genus cap
    for genus in [*range(1, 21), 60, 100]:
        cb = dejonquieres(genus)
        cases += [(m.group.matrices, m.rank, 2) for m in (cb.pic_glattice(), cb.q_glattice())]
    nontrivial = set()  # the orders with some H^1 != 0
    for gens, rank, p in cases:
        h1_and_h0_rank = coh._h1(gens, rank, p)
        assert h1_and_h0_rank == subquotient_h1(gens, rank)
        if not h1_and_h0_rank[0].is_trivial:
            nontrivial.add(p)
    assert nontrivial == {2, 3, 5, 7}
    # several generators of one group of prime order: g and g^2, repeated, with the identity
    for g, n in elements[::7]:
        if n in (2, 3, 5):
            gens = [g, g, IntMatrix.identity(g.rows), g @ g, g]
            res = h1_cocycle(GLattice(g.rows, Generated(gens)))
            assert res.group_order == n
            assert (res.h1, res.h0_rank) == coh._h1(gens, g.rows, n) == subquotient_h1(gens, g.rows)


def test_prime_order_h1_takes_no_subquotient(monkeypatch):
    import glattice.cohomology as coh
    from glattice.picard import dejonquieres, geiser_involution

    calls = []
    real = coh.subquotient
    monkeypatch.setattr(coh, "subquotient", lambda a, b: calls.append(b) or real(a, b))
    cb = dejonquieres(5)
    assert h1_cyclic(geiser_involution()).h1 == FinAbGroup((2,) * 6)
    assert h1_cyclic(cb.pic_glattice()).h1 == FinAbGroup((2,) * 10)
    assert h1_cocycle(cb.q_glattice()).h1 == FinAbGroup((2,) * 11)
    # the augmentation ideal of Z[C3], generated by the shift, its square and 1
    shift = augmentation_shift(3)
    res = h1_cocycle(GLattice(2, Generated([shift, shift @ shift, IntMatrix.identity(2)])))
    assert (res.group_order, res.h1, res.h0_rank) == (3, FinAbGroup((3,)), 0)
    assert calls == []
    # a composite order keeps Hermite and Smith, as ranks cannot tell Z/4 from (Z/2)^2:
    # the augmentation ideal of Z[C4] has H^1 = Z/4
    assert augmentation_shift(4) == IntMatrix([[0, 0, -1], [1, 0, -1], [0, 1, -1]])
    res = h1_cyclic(GLattice(3, Cyclic(augmentation_shift(4))))
    assert (res.group_order, res.h1, res.h0_rank) == (4, FinAbGroup((4,)), 0)
    assert len(calls) == 1
    # a trace that does not fit the order: -1 on Z as order 3, the order-3 shift as order 2
    for gens, rank, order in (((IntMatrix([[-1]]),), 1, 3), ((shift,), 2, 2)):
        with pytest.raises(AssertionError, match="trace does not fit an action of order"):
            coh._h1(gens, rank, order)


def test_leading_block_inherits_the_lattice_checks(monkeypatch):
    from glattice.cohomology import leading_block

    # (0 1 2) on e_0, e_1, e_2, and e_3 -> e_3 + e_0 - e_1, of order 3: the span of the first three is invariant
    g = IntMatrix([[0, 0, 1, 1], [1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 0, 1]])
    m = GLattice(4, Cyclic(g))
    assert m.group._order == 3
    calls = []
    for name in ("__matmul__", "det"):
        real = getattr(IntMatrix, name)
        monkeypatch.setattr(IntMatrix, name, lambda *a, real=real: calls.append(1) or real(*a))
    block = leading_block(m, 3)
    order = block.group._order
    monkeypatch.undo()
    # no product and no determinant: the form, unimodularity and the order come from m
    assert calls == [] and order == 3 == matrix_order(block.group.generator)
    assert block.group.generator == IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) and block.form is None
    assert h1_cyclic(block).h1 == h1_cyclic(GLattice(3, Cyclic(block.group.generator))).h1
    assert leading_block(m, 4).group.generator == g  # the whole lattice is always invariant
    for bad, n in ((m, 1), (GLattice(4, Generated([g])), 3)):  # e_0 -> e_1 leaves the span of e_0
        with pytest.raises(ValidationError, match="invariant block of a cyclic action"):
            leading_block(bad, n)


def test_matrix_order_early_returns_keep_bounds_and_refusals():
    from glattice.cohomology import _power
    from glattice.picard import reflection, root_system

    refusal = "^group too large or infinite: order exceeds {}$"
    # the identity and an involution are read off g and g^2, within the bound as before
    with pytest.raises(GroupTooLarge, match=refusal.format(0)):
        matrix_order(IntMatrix.identity(3), 0)
    assert matrix_order(IntMatrix.identity(3), 1) == 1
    with pytest.raises(GroupTooLarge, match=refusal.format(1)):
        matrix_order(SWAP, 1)
    assert matrix_order(SWAP, 2) == 2
    # a non-square matrix has no order, though its diagonal may read as the identity's; the empty one is I
    for rows in ([[1, 0]], [[1, 0, 0], [0, 1, 0]], [[1], [0]]):
        with pytest.raises(ValueError, match="^order of a non-square matrix$"):
            matrix_order(IntMatrix(rows))
    assert matrix_order(IntMatrix([], cols=0)) == 1
    # orders 3, 4 and 6 go through the residues and the confirmation from the square
    rotations = [augmentation_shift(3), augmentation_shift(4), -augmentation_shift(3), perm_matrix([1, 2, 3, 0], True)]
    for g in rotations:
        expected = naive_order_within(g, 10)
        assert expected in (3, 4, 6) and matrix_order(g) == expected
        assert_order_matches_exact_powers(g, expected - 1)
    # I mod 3 but of infinite order, and a unipotent: refused with the same text at every bound
    for g in (IntMatrix([[1, 3], [0, 1]]), IntMatrix([[1, 1], [0, 1]])):
        for bound in (1, 2, 3, 50, DEFAULT_ORDER_BOUND):
            with pytest.raises(GroupTooLarge, match=refusal.format(bound)):
                matrix_order(g, bound)
    # the confirmation's given square is the first squaring of binary powering
    system = root_system(3)
    rng = random.Random(37)
    w = IntMatrix.identity(system.lattice.rank)
    for _ in range(7):
        w = w @ reflection(system.lattice, rng.choice(system.roots))
    for k in range(1, 13):
        assert _power(w, k, w @ w) == _power(w, k)


def random_involution(rng, n):
    """P s P^-1 for a random signed permutation s with s^2 = I and a random unimodular P."""
    perm, rest = list(range(n)), list(range(n))
    rng.shuffle(rest)
    while len(rest) > 1 and rng.random() < 0.7:  # a 2-cycle, with one sign on both of its points
        i, j = rest.pop(), rest.pop()
        perm[i], perm[j] = j, i
    signs = [rng.choice((1, -1)) for _ in range(n)]
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        s[perm[i]][i] = signs[min(i, perm[i])]
    p, pinv = conjugator(rng, n)
    return p @ IntMatrix(s) @ pinv


def test_involution_checks_match_the_form_equation():
    rng = random.Random(38)
    outcomes = set()
    for trial in range(60):
        n = rng.randint(1, 6)
        g = IntMatrix.identity(n) if trial % 10 == 0 else random_involution(rng, n)
        assert g @ g == IntMatrix.identity(n)
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        sym = a + a.transpose()
        # a symmetric form averaged over <g> is preserved, a random one usually not
        for form in (sym + g.transpose() @ sym @ g, sym):
            preserved = g.transpose() @ form @ g == form
            try:
                m = GLattice(n, Cyclic(g), form)
            except ValidationError as e:
                assert not preserved
                assert (str(e), e.index, e.reason) == ("matrix 0 does not preserve the bilinear form", 0, "form")
            else:
                assert preserved and m.group._order == (1 if g == IntMatrix.identity(n) else 2)
            outcomes.add(preserved)
        # the public closure takes a form that is not symmetric, and still decides by g^T.F.g = F
        for form in (a + g.transpose() @ a @ g, a):
            if form == form.transpose():
                continue
            if g.transpose() @ form @ g == form:
                assert len(validate_and_close(Cyclic(g), form)) == matrix_order(g)
            else:
                with pytest.raises(ValidationError, match="^matrix 0 does not preserve the bilinear form$"):
                    validate_and_close(Cyclic(g), form)
            outcomes.add(("not symmetric", g.transpose() @ form @ g == form))
    assert len(outcomes) == 4


def test_involution_is_checked_and_ordered_by_its_square(monkeypatch):
    rng = random.Random(5)
    g = random_involution(rng, 6)
    while g == IntMatrix.identity(6):
        g = random_involution(rng, 6)
    form = IntMatrix.identity(6) + g.transpose() @ g
    rotation, rotation_form = augmentation_shift(3), IntMatrix([[2, -1], [-1, 2]])  # C_3 on the A_2 root lattice
    dets, products = [], []
    for name, calls in (("det", dets), ("__matmul__", products)):
        real = getattr(IntMatrix, name)
        monkeypatch.setattr(IntMatrix, name, lambda *a, real=real, calls=calls: calls.append(1) or real(*a))
    # g^2, formed by the check and read by the order, and F.g: no determinant; the spec then drops the square
    spec = GLattice(6, Cyclic(g), form).group
    assert spec._order == 2 and "_square" not in spec.__dict__
    assert (len(dets), len(products)) == (0, 2)
    # an order-3 generator keeps its determinant and g^T.F.g; its square also starts the confirmation g^2.g
    dets.clear()
    products.clear()
    assert GLattice(2, Cyclic(rotation), rotation_form).group._order == 3
    assert (len(dets), len(products)) == (1, 4)
    monkeypatch.undo()
    for h in (IntMatrix.identity(2), SWAP, rotation, IntMatrix([[1, 1], [0, 1]])):
        for bound in (0, 1, 2):
            outcomes = []
            for args in ((h, bound), (h, bound, h @ h)):
                try:
                    outcomes.append(matrix_order(*args))
                except GroupTooLarge as e:
                    outcomes.append(str(e))
            assert outcomes[0] == outcomes[1]


def test_sub_action_orders_match_their_exact_orders(monkeypatch):
    import glattice.cohomology as coh
    import glattice.picard as pic
    from glattice.cohomology import leading_block
    from glattice.picard import CASE_PARAMS, WeylSearchConfig, verify_row

    kept = []
    real = coh._sub_order

    def recorded(g, order):
        kept.append((g, real(g, order)))
        return kept[-1][1]

    for module in (coh, pic):
        monkeypatch.setattr(module, "_sub_order", recorded)
    for genus in range(1, 11):
        assert verify_row("dejonquieres", genus=genus).passed
    for seed in range(5):
        for case in CASE_PARAMS:
            assert verify_row(case, cfg=WeylSearchConfig(seed=seed)).passed
    # a leading block per conic bundle; a K^perp restriction per del Pezzo row, as each fixes K
    assert len(kept) == 10 + 5 * len(CASE_PARAMS)
    assert all(order == matrix_order(g) for g, order in kept)
    monkeypatch.undo()

    # a prime order p gives the block the order 1 or p by one identity test
    block = leading_block(GLattice(2, Cyclic(IntMatrix([[1, 1], [0, -1]]))), 1)
    assert block.group._order == 1 == matrix_order(block.group.generator)
    # a composite order keeps the residue loop: the order-4 rotation block of an order-4 action
    calls = []
    real_mod3 = coh._order_mod3
    monkeypatch.setattr(coh, "_order_mod3", lambda g, bound: calls.append((g, bound)) or real_mod3(g, bound))
    m = GLattice(3, Cyclic(IntMatrix([[0, -1, 0], [1, 0, 0], [0, 0, -1]])))
    assert m.group._order == 4
    calls.clear()
    block = leading_block(m, 2)
    assert block.group._order == 4 and calls == [(IntMatrix([[0, -1], [1, 0]]), 4)]


def test_verify_table_finds_only_the_odd_orders_mod_3(monkeypatch, capsys):
    import sys

    import glattice.cohomology as coh
    import glattice.picard as pic
    from glattice.cli import run_command

    assert not hasattr(pic, "_order_mod3")  # picard reaches residues only through cohomology
    orders, builders = [], []
    real_mod3 = coh._order_mod3
    monkeypatch.setattr(coh, "_order_mod3", lambda g, bound: orders.append(real_mod3(g, bound)) or orders[-1])
    real_identity = IntMatrix.identity.__func__

    def identity(cls, n):
        builders.append(sys._getframe(1).f_code.co_name)
        return real_identity(cls, n)

    monkeypatch.setattr(IntMatrix, "identity", classmethod(identity))
    assert run_command(["verify-table", "--max-genus", "20", "--seed", "0"]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    # the generators of order 3, 3 and 5; every involution, leading block and K^perp restriction skips the residues
    assert orders == [3, 3, 5]
    assert "matrix_order" not in builders and "_h1" not in builders
