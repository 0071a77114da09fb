import itertools
import random
import re

import pytest

from glattice.cohomology import Cyclic, Generated, GLattice, h1_cyclic, invariants_h0, matrix_order
from glattice.intlinalg import FinAbGroup, IntMatrix, char_poly, express_in_row_basis, poly_eval, poly_mul, poly_pow
from glattice.picard import (
    CASE_PARAMS,
    ConicBundlePic,
    ConstructionError,
    SearchExhausted,
    WeylSearchConfig,
    bertini_involution,
    build_case,
    charpoly_order,
    dejonquieres,
    del_pezzo_pic,
    geiser_involution,
    q_sublattice,
    reflection,
    restrict_action,
    root_system,
    roots,
    simple_roots,
    verify_row,
    weyl_search,
)


# --- oracle: bounded-coefficient enumeration of roots ---------------------------


def roots_bruteforce(p):
    """All alpha with alpha.alpha = -2, alpha.K = 0 by direct enumeration.

    Writing alpha = (a, b_1, ..., b_k), the conditions read
    sum(b_i) = -3a and sum(b_i^2) = a^2 + 2, which bounds everything.
    """
    k = p.rank - 1
    found = []
    for a in range(-3, 4):
        square_budget = a * a + 2
        target_sum = -3 * a

        def rec(pos, remaining_sum, remaining_sq, prefix):
            if pos == k:
                if remaining_sum == 0 and remaining_sq == 0:
                    found.append((a,) + tuple(prefix))
                return
            slots = k - pos
            for b in range(-3, 4):
                sq = remaining_sq - b * b
                rs = remaining_sum - b
                if sq < 0:
                    continue
                # Cauchy-Schwarz: the rest must fit in the square budget
                if (slots - 1) * sq < rs * rs:
                    continue
                prefix.append(b)
                rec(pos + 1, rs, sq, prefix)
                prefix.pop()

        rec(0, target_sum, square_budget, [])
    return sorted(found)


# --- lattices -------------------------------------------------------------------


def test_del_pezzo_degree_1():
    p = del_pezzo_pic(1)
    assert p.rank == 9
    assert p.k == (-3,) + (1,) * 8
    assert p.dot(p.k, p.k) == 1


def test_del_pezzo_degree_2():
    p = del_pezzo_pic(2)
    assert p.rank == 8
    assert p.dot(p.k, p.k) == 2


def test_del_pezzo_range_check():
    with pytest.raises(ValueError):
        del_pezzo_pic(7)
    with pytest.raises(ValueError):
        del_pezzo_pic(0)


def test_search_sizes_and_the_degree_must_be_ints():
    # a bool counted trials as 0 or 1 ("found in True trials"), and a float failed inside
    # randrange or list repetition with the standard library's untyped error
    for field, value in (("max_trials", True), ("max_trials", 5.5), ("word_min", 1.5), ("word_min", True),
                         ("word_max", 16.0)):
        with pytest.raises(TypeError, match=f"^{field} must be an int, got {value}$"):
            weyl_search(3, 2, WeylSearchConfig(**{field: value}))
    for d in (3.0, True):
        with pytest.raises(TypeError, match=f"^degree must be an int, got {d}$"):
            del_pezzo_pic(d)
    assert WeylSearchConfig(max_trials=5, word_min=1, word_max=1).max_trials == 5


def test_q_sublattice_discriminants():
    # |det| of the induced form: 1, 2, 3 for the E8, E7, E6 lattices
    for d, disc in [(1, 1), (2, 2), (3, 3)]:
        q = q_sublattice(del_pezzo_pic(d))
        assert q.rank == 9 - d
        assert abs(q.gram_q.det()) == disc
        for v in q.basis:
            assert q.parent.dot(v, q.parent.k) == 0


# --- roots and reflections --------------------------------------------------------


@pytest.mark.parametrize("d,count", [(1, 240), (2, 126), (3, 72)])
def test_root_counts_two_methods(d, count):
    p = del_pezzo_pic(d)
    closure = roots(p)
    brute = roots_bruteforce(p)
    assert len(closure) == count
    assert closure == brute


def test_roots_smaller_degrees():
    assert len(roots(del_pezzo_pic(4))) == 40
    assert len(roots(del_pezzo_pic(5))) == 20
    assert len(roots(del_pezzo_pic(6))) == 8


def test_reflection_swaps_exceptional_classes():
    p = del_pezzo_pic(3)
    alpha = (0, 1, -1, 0, 0, 0, 0)  # E1 - E2
    r = reflection(p, alpha)
    perm = IntMatrix.identity(7).tolists()
    perm[1][1] = perm[2][2] = 0
    perm[1][2] = perm[2][1] = 1
    assert r == IntMatrix(perm)


def test_reflection_is_involution_and_isometry():
    p = del_pezzo_pic(2)
    for alpha in roots(p)[:20]:
        r = reflection(p, alpha)
        assert r @ r == IntMatrix.identity(p.rank)
        assert r.transpose() @ p.gram @ r == p.gram
        assert r @ p.k_column() == p.k_column()


@pytest.mark.parametrize("d", range(1, 7))
def test_root_system_permutes_the_roots_by_their_reflections(d):
    p = del_pezzo_pic(d)
    system = root_system(d)
    all_roots = system.roots
    count = {1: 240, 2: 126, 3: 72, 4: 40, 5: 20, 6: 8}[d]
    assert len(all_roots) == count
    assert list(all_roots) == roots(p)
    index = {beta: i for i, beta in enumerate(all_roots)}
    for alpha, table in zip(all_roots, system.reflections):
        assert len(table) == 256
        assert table[count:] == bytes(range(count, 256))
        for beta, image in zip(all_roots, table):
            c = p.dot(beta, alpha)
            assert image == index[tuple(b + c * a for b, a in zip(beta, alpha))]
    simples = simple_roots(p)
    assert [all_roots[i] for i in system.simple] == simples
    for beta, coords in zip(all_roots, system.coords):
        assert tuple(sum(c * a[j] for c, a in zip(coords, simples)) for j in range(p.rank)) == beta


def test_reflection_quadratic_transformation():
    # x + (x.alpha) alpha at x = H with alpha = H - E1 - E2 - E3: H.alpha = 1
    p = del_pezzo_pic(3)
    r = reflection(p, (1, -1, -1, -1, 0, 0, 0))
    h_image = r.column(0)
    assert h_image == (2, -1, -1, -1, 0, 0, 0)


def test_reflection_rejects_non_roots():
    p = del_pezzo_pic(3)
    with pytest.raises(ValueError, match="not a root"):
        reflection(p, (1, 0, 0, 0, 0, 0, 0))


def test_reflection_refuses_a_vector_of_the_wrong_length():
    # PicardLattice.dot zips its arguments: the first passes both root tests on its leading entries,
    # the second is a root once truncated to the rank
    p = del_pezzo_pic(3)
    for bad in [(1, -1, -1, -1), (0, 1, -1, 0, 0, 0, 0, 0)]:
        with pytest.raises(ValueError, match=f"^not a root: {re.escape(str(bad))}$"):
            reflection(p, bad)


def test_reflection_refuses_entries_that_are_not_int():
    # the matrix is built unchecked, so a float or bool entry must be refused before the root tests,
    # which both vectors pass
    p = del_pezzo_pic(3)
    for bad, entry in [((0, 1.0, -1.0, 0, 0, 0, 0), "1.0"), ((0, True, -1, 0, 0, 0, 0), "True")]:
        with pytest.raises(TypeError, match=f"^integer entry required, got {entry}$"):
            reflection(p, bad)


@pytest.mark.parametrize("d", range(1, 7))
def test_word_matrix_is_the_product_of_its_reflections(d):
    # weyl_search reads a word's matrix M off its permutation of the roots as the solution of M B = B',
    # where B has the simple roots and then K as columns and B' their images: the product of the
    # reflections must send each simple root where the composed tables do and fix K
    p = del_pezzo_pic(d)
    system = root_system(d)
    basis = IntMatrix([system.roots[r] for r in system.simple] + [p.k]).transpose()
    assert abs(basis.det()) == d
    rng = random.Random(d)
    for _ in range(40):
        word = [rng.randrange(len(system.roots)) for _ in range(rng.randint(1, 16))]
        table = system.reflections[word[-1]]
        for idx in reversed(word[:-1]):  # composed as weyl_search composes them
            table = table.translate(system.reflections[idx])
        product = IntMatrix.identity(p.rank)
        for idx in word:
            product = product @ reflection(p, system.roots[idx])
        images = IntMatrix([system.roots[table[r]] for r in system.simple] + [p.k]).transpose()
        assert product @ basis == images
        assert express_in_row_basis(basis, images) == product
    bad = (1,) + (0,) * (p.rank - 1)
    with pytest.raises(ValueError, match=f"^not a root: {re.escape(str(bad))}$"):
        reflection(p, bad)


def test_simple_roots_are_roots():
    p = del_pezzo_pic(1)
    for alpha in simple_roots(p):
        assert p.dot(alpha, alpha) == -2
        assert p.dot(alpha, p.k) == 0


# --- Geiser and Bertini ------------------------------------------------------------


def test_geiser_fixes_k_and_maps_h():
    m = geiser_involution()
    p = del_pezzo_pic(2)
    delta = m.group.generator
    assert delta @ p.k_column() == p.k_column()
    # H.K = -3 so H -> -3K - H = 8H - 3(E1+...+E7)
    assert delta.column(0) == (8, -3, -3, -3, -3, -3, -3, -3)
    assert matrix_order(delta) == 2


def test_geiser_is_minus_one_on_q():
    m = geiser_involution()
    q = q_sublattice(del_pezzo_pic(2))
    restricted = restrict_action(m.group.generator, q.basis)
    assert restricted == IntMatrix.diagonal([-1] * 7)
    assert char_poly(restricted) == poly_pow((1, 1), 7)


def test_bertini_maps_h():
    m = bertini_involution()
    delta = m.group.generator
    assert delta.column(0) == (17, -6, -6, -6, -6, -6, -6, -6, -6)
    q = q_sublattice(del_pezzo_pic(1))
    assert char_poly(restrict_action(delta, q.basis)) == poly_pow((1, 1), 8)


def test_geiser_h1():
    assert h1_cyclic(geiser_involution()).h1 == FinAbGroup((2,) * 6)


def test_bertini_h1():
    assert h1_cyclic(bertini_involution()).h1 == FinAbGroup((2,) * 8)


# --- conic bundles -----------------------------------------------------------------


def delta_section_image_bruteforce(cb: ConicBundlePic):
    """All candidate images of the section class under the defining constraints.

    Enumerates integer vectors v = aF + sum(b_i F_i') + eS in a small box and
    keeps those compatible with a form-preserving involution sending F to F
    and F_i' to F - F_i':

      v.F = S.F,  v.(F - F_i') = S.F_i',  v.v = S.S,

    and, substituting v itself for the image of S, the involution condition
    a.F + sum(b_i (F - F_i')) + e.v = S, which in coefficients reads
    e^2 = 1, b_i (e - 1) = 0 and a (1 + e) + sum(b_i) = 0.
    """
    g = cb.genus
    n = cb.rank
    gram = cb.gram

    def dot(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    s_vec = tuple(1 if i == n - 1 else 0 for i in range(n))
    f_vec = tuple(1 if i == 0 else 0 for i in range(n))
    fiber_imgs = []
    for i in range(1, 2 * g + 3):
        img = [0] * n
        img[0] = 1
        img[i] = -1
        fiber_imgs.append(tuple(img))
    hits = []
    for coeffs in itertools.product(range(-3, 4), repeat=n):
        if dot(coeffs, f_vec) != dot(s_vec, f_vec):
            continue
        if dot(coeffs, coeffs) != dot(s_vec, s_vec):
            continue
        if any(dot(coeffs, img) != 0 for img in fiber_imgs):
            continue
        a, bs, e = coeffs[0], coeffs[1 : n - 1], coeffs[n - 1]
        if e * e != 1:
            continue
        if any(b * (e - 1) != 0 for b in bs):
            continue
        if a * (1 + e) + sum(bs) != 0:
            continue
        hits.append(coeffs)
    return hits


def test_dejonquieres_section_image_genus_1():
    cb = dejonquieres(1)
    hits = delta_section_image_bruteforce(cb)
    expected = (2, -1, -1, -1, -1, 1)  # 2F - (F1'+F2'+F3'+F4') + S
    assert hits == [expected]
    assert cb.delta.column(cb.rank - 1) == expected


def q_reference_basis(cb):
    """F and the F_i' as rows: the first 2g+3 standard basis vectors of the conic-bundle lattice."""
    return IntMatrix([[int(i == j) for j in range(cb.rank)] for i in range(2 * cb.genus + 3)])


def test_dejonquieres_defining_constraints():
    for g in (1, 2, 3):
        cb = dejonquieres(g)
        n = cb.rank
        assert n == 2 * g + 4
        assert cb.delta @ cb.delta == IntMatrix.identity(n)
        assert cb.delta.transpose() @ cb.gram @ cb.delta == cb.gram
        assert cb.gram.det() in (1, -1)
        assert cb.delta.column(0) == tuple(1 if i == 0 else 0 for i in range(n))
        basis = q_reference_basis(cb)
        assert basis.rows == 2 * g + 3
        assert [cb.labels[row.index(1)] for row in basis] == list(cb.labels[:-1])  # every class but S


def test_dejonquieres_canonical_class():
    cb = dejonquieres(2)
    k = cb.k_vector()
    n = cb.rank
    kk = sum(k[i] * cb.gram[i][j] * k[j] for i in range(n) for j in range(n))
    assert kk == 6 - 2 * cb.genus
    assert tuple((cb.delta @ IntMatrix([k]).transpose()).column(0)) == k


def test_dejonquieres_rejects_genus_zero():
    with pytest.raises(ValueError):
        dejonquieres(0)


def test_dejonquieres_rejects_non_integer_arguments():
    for bad in (True, False, 1.0, "1", None):
        with pytest.raises(TypeError, match=f"^integer entry required, got {re.escape(repr(bad))}$"):
            dejonquieres(1, section_square=bad)
    for bad in (True, False, 2.0, "2"):
        with pytest.raises(TypeError, match="genus must be an integer"):
            dejonquieres(bad)


def test_q_glattice_is_the_restricted_action():
    for g in range(1, 9):
        for section_square in (-1, 0, 1):
            cb = dejonquieres(g, section_square)
            basis = q_reference_basis(cb)
            q = cb.q_glattice()
            assert q.rank == 2 * g + 3
            assert q.group.generator == restrict_action(cb.delta, basis)
            assert q.form == basis @ cb.gram @ basis.transpose()


def test_q_glattice_refuses_a_span_that_is_not_invariant():
    import dataclasses

    cb = dejonquieres(2)
    for j in range(cb.rank - 1):
        rows = cb.delta.tolists()
        rows[-1][j] = 1
        broken = dataclasses.replace(cb, delta=IntMatrix(rows))
        with pytest.raises(ConstructionError, match="not invariant"):
            broken.q_glattice()


def test_dejonquieres_alternative_completion_same_h1():
    for g in (1, 3):
        standard = dejonquieres(g)
        other = dejonquieres(g, section_square=-2)
        assert standard.delta == other.delta
        assert standard.gram != other.gram
        assert h1_cyclic(standard.pic_glattice()).h1 == h1_cyclic(other.pic_glattice()).h1


def test_dejonquieres_h1_values():
    for g in (1, 2):
        cb = dejonquieres(g)
        assert h1_cyclic(cb.pic_glattice()).h1 == FinAbGroup((2,) * (2 * g))
        assert h1_cyclic(cb.q_glattice()).h1 == FinAbGroup((2,) * (2 * g + 1))


def test_dejonquieres_fixed_rank_two():
    cb = dejonquieres(3)
    assert invariants_h0(cb.pic_glattice()).rows == 2


# --- Weyl search --------------------------------------------------------------------


def test_weyl_search_dp3_p3():
    m = weyl_search(3, 3, cfg=WeylSearchConfig(seed=0))
    q = q_sublattice(del_pezzo_pic(3))
    chi = char_poly(restrict_action(m.group.generator, q.basis))
    assert chi == poly_pow((1, 1, 1), 3)
    assert h1_cyclic(m).h1 == FinAbGroup((3, 3))


def test_weyl_search_dp1_p5():
    m = weyl_search(1, 5, cfg=WeylSearchConfig(seed=0))
    q = q_sublattice(del_pezzo_pic(1))
    chi = char_poly(restrict_action(m.group.generator, q.basis))
    assert chi == poly_pow((1, 1, 1, 1, 1), 2)
    assert h1_cyclic(m).h1 == FinAbGroup((5, 5))
    # the seeded search draws the same words, so it finds the same element
    assert m.group.generator == IntMatrix([
        [12, 3, 6, 5, 4, 4, 3, 4, 4],
        [-4, -1, -2, -2, -2, -1, -1, -1, -1],
        [-3, 0, -2, -1, -1, -1, -1, -1, -1],
        [-4, -1, -2, -2, -1, -1, -1, -1, -2],
        [-5, -1, -2, -2, -2, -2, -1, -2, -2],
        [-4, -1, -2, -2, -1, -2, -1, -1, -1],
        [-4, -1, -2, -2, -1, -1, -1, -2, -1],
        [-3, -1, -2, -1, -1, -1, 0, -1, -1],
        [-6, -2, -3, -2, -2, -2, -2, -2, -2],
    ])


def test_weyl_search_dp1_p3():
    m = weyl_search(1, 3, cfg=WeylSearchConfig(seed=0))
    assert h1_cyclic(m).h1 == FinAbGroup((3, 3, 3, 3))


def test_weyl_search_deterministic():
    a = weyl_search(3, 3, cfg=WeylSearchConfig(seed=42))
    b = weyl_search(3, 3, cfg=WeylSearchConfig(seed=42))
    assert a.group.generator == b.group.generator


def test_weyl_search_exhaustion_is_distinct():
    # two reflections compose to a rotation of order 2, 3, 4 or 6 in a
    # crystallographic group, never 5, so this cannot succeed
    cfg = WeylSearchConfig(seed=0, max_trials=25, word_min=2, word_max=2)
    with pytest.raises(SearchExhausted):
        weyl_search(1, 5, cfg=cfg)


def test_weyl_search_builds_no_k_perp(monkeypatch):
    # a search reads the roots alone: K^perp, with its kernel and minors, is built on first use of .q
    from glattice import cohomology, intlinalg, picard

    calls = []
    for module in (picard, cohomology, intlinalg):
        monkeypatch.setattr(module, "kernel_basis", lambda *a: calls.append(a))
    root_system.cache_clear()
    weyl_search(1, 5)
    assert calls == []


def test_power_matches_repeated_products_on_weyl_words():
    from glattice.cohomology import _power

    rng = random.Random(5)
    for d in (1, 3):
        lat = del_pezzo_pic(d)
        system = root_system(d)
        w = IntMatrix.identity(lat.rank)
        for _ in range(9):
            w = w @ reflection(lat, rng.choice(system.roots))
        power = w
        for k in range(1, 61):
            assert _power(w, k) == power
            power = power @ w


@pytest.mark.parametrize("d", range(1, 7))
def test_trace_fixes_the_char_poly_of_a_prime_order_weyl_element(d):
    # u of order p acts on Q (rank 9 - d) with char poly (t - 1)^b Phi_p^a: b + (p - 1) a = 9 - d and
    # tr u = b - a fix a and b, so weyl_search's trace test decides its char poly test
    system = root_system(d)
    rng = random.Random(d)
    ident = bytes(range(256))
    traces = set()
    for _ in range(300):
        word = [rng.randrange(len(system.roots)) for _ in range(rng.randint(2, 16))]
        w = ident
        for idx in word:
            w = system.reflections[idx].translate(w)
        powers = [ident]
        while len(powers) == 1 or powers[-1] != ident:
            powers.append(powers[-1].translate(w))
        order = len(powers) - 1
        for p in (2, 3, 5, 7):
            if order % p:
                continue
            u = powers[order // p]
            columns = [system.coords[u[r]] for r in system.simple]
            trace = sum(col[j] for j, col in enumerate(columns))
            a, rest = divmod(9 - d - trace, p)
            assert rest == 0
            expected = poly_mul(poly_pow((-1, 1), trace + a), poly_pow((1,) * p, a))
            assert char_poly(IntMatrix(columns).transpose()) == expected
            traces.add((p, trace))
    # several classes were met, at least two of them of order 2
    assert len(traces) >= 3 and len({t for p, t in traces if p == 2}) >= 2


def test_weyl_search_parameter_errors():
    with pytest.raises(ValueError, match="divisible"):
        weyl_search(2, 3)
    with pytest.raises(ValueError, match="prime"):
        weyl_search(1, 4)
    with pytest.raises(ValueError, match="degree"):
        weyl_search(7, 3)


def test_search_results_preserve_everything():
    # the constructors do not check these facts themselves: GLattice, the closure and the rows do
    for case in ("geiser", "bertini", "dp3-p3", "dp1-p3", "dp1-p5"):
        p, g, d = CASE_PARAMS[case]
        m = build_case(case, WeylSearchConfig(seed=0))
        lat = del_pezzo_pic(d)
        delta = m.group.generator
        assert delta.is_unimodular()
        assert delta.transpose() @ lat.gram @ delta == lat.gram
        assert delta @ lat.k_column() == lat.k_column()
        assert matrix_order(delta) == p
        assert invariants_h0(m).rows == 1


# --- the order formula ----------------------------------------------------------------


def test_charpoly_order_involutions():
    assert charpoly_order(geiser_involution()) == 64  # 2^7 / 2
    assert charpoly_order(bertini_involution()) == 256  # 2^8 / 1


def test_charpoly_order_searched_element():
    m = weyl_search(1, 5, cfg=WeylSearchConfig(seed=0))
    assert charpoly_order(m) == 25


def test_charpoly_order_rejects_bad_inputs():
    p = del_pezzo_pic(2)
    ident = GLattice(8, Cyclic(IntMatrix.identity(8)), form=p.gram)
    with pytest.raises(ValueError, match="prime"):
        charpoly_order(ident)
    refl = GLattice(8, Cyclic(reflection(p, (0, 1, -1, 0, 0, 0, 0, 0))), form=p.gram)
    with pytest.raises(ValueError, match="rank"):
        charpoly_order(refl)
    with pytest.raises(ValueError, match="form"):
        charpoly_order(GLattice(8, Cyclic(IntMatrix.diagonal([-1] * 8))))
    with pytest.raises(ValueError, match="^charpoly_order needs a cyclic action$"):
        charpoly_order(GLattice(8, Generated([IntMatrix.identity(8)]), form=p.gram))


def test_charpoly_order_refuses_an_action_moving_k():
    # order 2, preserves the form, Pic^G = ZH of rank 1, and sends K = -3H + sum(E_i) to -3H - sum(E_i)
    p = del_pezzo_pic(1)
    flip = GLattice(9, Cyclic(IntMatrix.diagonal([1] + [-1] * 8)), form=p.gram)
    assert invariants_h0(flip).rows == 1
    with pytest.raises(ValueError, match="fix K"):
        charpoly_order(flip)


def test_charpoly_order_reads_only_the_picard_matrix(monkeypatch):
    from glattice import cohomology, intlinalg, picard

    cases = [build_case(case, WeylSearchConfig(seed=0)) for case in CASE_PARAMS]
    calls = []
    for module, name in [(picard, "restrict_action"), (picard, "root_system"), (picard, "kernel_basis"),
                         (cohomology, "kernel_basis"), (intlinalg, "kernel_basis")]:
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
    assert [charpoly_order(m) for m in cases] == [p ** (2 * g) for p, g, _ in CASE_PARAMS.values()]
    assert calls == []


def test_charpoly_order_matches_the_restriction_to_k_perp():
    # the reference: |chi(1)| / d with chi the char poly of the restriction to K^perp's basis
    for (d, p), seed in itertools.product([(3, 3), (1, 3), (1, 5), (5, 5), (1, 2), (2, 2)], range(10)):
        m = weyl_search(d, p, cfg=WeylSearchConfig(seed=seed))
        chi = char_poly(restrict_action(m.group.generator, root_system(d).q.basis))
        assert charpoly_order(m) == abs(poly_eval(chi, 1)) // d


# --- the verification harness ------------------------------------------------------------


def test_verify_row_geiser():
    r = verify_row("geiser")
    assert r.passed
    assert r.h1_pic == FinAbGroup((2,) * 6)
    assert r.h1_q.order() == 128 == 2 * 64
    assert r.predicted_h1_order == 64


def test_verify_row_checks_only_the_picard_lattice(monkeypatch):
    # the K^perp lattice restricts an isometry the Pic lattice has passed and inherits its checks:
    # once the root system and its K^perp minors are cached, a row takes at most the Pic lattice's
    # determinant; an involution is proven unimodular by its square and takes none, and a
    # de Jonquieres row takes only its own det gram
    real = IntMatrix.det
    for case, genus, ranks_expected in (("geiser", None, []), ("dp3-p3", None, [7]), ("dejonquieres", 3, [10])):
        verify_row(case, genus)
        ranks = []
        monkeypatch.setattr(IntMatrix, "det", lambda a: ranks.append(a.rows) or real(a))
        assert verify_row(case, genus).passed
        monkeypatch.undo()
        assert ranks == ranks_expected


def test_verify_row_dejonquieres_genus_2():
    r = verify_row("dejonquieres", genus=2)
    assert r.passed
    assert r.h1_pic == FinAbGroup((2, 2, 2, 2))
    assert r.h1_q == FinAbGroup((2,) * 5)


def test_verify_row_dp1_p5():
    r = verify_row("dp1-p5", cfg=WeylSearchConfig(seed=0))
    assert r.passed
    assert r.h1_pic == FinAbGroup((5, 5))


def test_verify_row_argument_errors():
    with pytest.raises(ValueError, match="genus"):
        verify_row("dejonquieres")
    with pytest.raises(ValueError, match="unknown case"):
        verify_row("dp2-p7")
    with pytest.raises(ValueError, match="^unknown case 'nope'$"):
        build_case("nope")


def test_verify_row_reports_a_broken_construction(monkeypatch, capsys):
    # delta preserves every multiple of the form, so GLattice accepts a doubled gram;
    # the row's determinant check is what catches it, without raising
    import dataclasses

    import glattice.picard as picard
    from glattice.cli import EXIT_VERIFY, run_command

    real = picard.dejonquieres

    def doubled(g, section_square=-1):
        cb = real(g, section_square)
        return dataclasses.replace(cb, gram=IntMatrix([[2 * x for x in row] for row in cb.gram]))

    monkeypatch.setattr(picard, "dejonquieres", doubled)
    r = verify_row("dejonquieres", genus=1)
    assert not r.passed
    check = next(c for c in r.checks if c.name.startswith("lattice is unimodular"))
    assert not check.passed
    assert check.detail == f"|det gram| = {2 ** r.generator.rows}"
    assert run_command(["verify-table", "--max-genus", "1"]) == EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


def test_verify_row_reports_a_generator_that_moves_k(monkeypatch):
    # diag(1, -1, ..., -1) preserves the form but moves K: the row records its failed check instead of
    # raising from a restriction to K^perp, which it skips along with the order formula
    import glattice.picard as picard

    lat = del_pezzo_pic(1)
    flip = GLattice(9, Cyclic(IntMatrix.diagonal([1] + [-1] * 8)), form=lat.gram)
    monkeypatch.setattr(picard, "build_case", lambda case, cfg=None: flip)
    calls = []
    for name in ("restrict_action", "charpoly_order"):
        monkeypatch.setattr(picard, name, lambda *a, name=name: calls.append(name))
    r = verify_row("bertini")
    assert calls == []
    assert not r.passed
    assert [c.name for c in r.checks if not c.passed] == ["generator has order p and fixes K"]
    assert r.checks[-3].detail == "order 2, moves K"
    assert r.h1_q is None and r.predicted_h1_order is None


def test_no_assert_statements_in_src():
    # ``python -O`` strips assert statements: every check in the package raises a typed error instead
    import ast
    from pathlib import Path

    import glattice

    sources = sorted(Path(glattice.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert statements at lines {found}"
