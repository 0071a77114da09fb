import itertools
import random
from math import gcd

import pytest

from glattice.intlinalg import (
    FinAbGroup,
    IntMatrix,
    NotSublattice,
    char_poly,
    express_in_row_basis,
    hermite_form,
    kernel_basis,
    poly_eval,
    poly_mul,
    poly_pow,
    poly_str,
    row_basis,
    smith_form,
    subquotient,
    xgcd,
)


def random_matrix(rng, rows, cols, lo=-20, hi=20):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_unimodular(rng, n, steps=None):
    """Product of random elementary row operations applied to the identity."""
    m = IntMatrix.identity(n).tolists()
    for _ in range(steps if steps is not None else 3 * n):
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


# --- oracles -----------------------------------------------------------------


def charpoly_leibniz(a):
    """det(tI - A) expanded directly over permutations; usable for small n."""
    n = a.rows
    poly = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
                length += 1
            if length % 2 == 0:
                sign = -sign
        # product over i of (t*[i==perm[i]] - a[i][perm[i]])
        term = [sign]
        for i in range(n):
            factor = [-a[i][perm[i]], 1] if perm[i] == i else [-a[i][perm[i]]]
            term = list(poly_mul(term, factor))
        for k, c in enumerate(term):
            poly[k] += c
    return tuple(poly)


def quotient_structure_bruteforce(b_rows, n):
    """Invariant factors and free rank of Z^n / (row span of b) by enumeration.

    Works by saturating the span to split off the free part, then listing
    the finite quotient sat(B)/B as vectors modulo B-membership and reading
    off the invariant chain from element orders.  Only fit for tiny inputs.
    """
    b = IntMatrix(b_rows, cols=n)
    sat = kernel_basis(kernel_basis(b))  # saturation: kernel of the dual kernel
    rank = row_basis(b).rows
    free = n - rank
    if rank == 0:
        return [], free

    def in_span(mat, v):
        try:
            express_in_row_basis(row_basis(mat), IntMatrix([v], cols=n))
            return True
        except NotSublattice:
            return False

    # coset representatives live in a box bounded by the index
    index = 1
    coords = express_in_row_basis(sat, b if rank == len(b_rows) else row_basis(b))
    index = abs(coords.det())
    reps = []
    for vec in itertools.product(range(index), repeat=rank):
        w = [sum(vec[i] * sat[i][j] for i in range(rank)) for j in range(n)]
        if not any(in_span(b, [x - y for x, y in zip(w, list(r))]) for r in reps):
            reps.append(tuple(w))
    orders = []
    for r in reps:
        k = 1
        while not in_span(b, [k * x for x in r]):
            k += 1
        orders.append(k)
    total = len(reps)
    factors = []
    while total > 1:
        e = max(orders)
        factors.append(e)
        total //= e
        orders = [o for o in orders if o != e] or [1]
        if factors and total > 1 and max(orders) == 1:
            # remaining structure is forced: repeat the exponent
            orders = [total]
    return sorted(factors), free


# --- Hermite form ------------------------------------------------------------


def test_hermite_identity():
    a = IntMatrix.identity(2)
    h, u = hermite_form(a)
    assert h == a
    assert u == a


def test_hermite_worked_example():
    # manual row reduction: r2 <- r2 - 3 r1 gives (0, -4); negate; reduce r1
    a = IntMatrix([[2, 4], [6, 8]])
    h, u = hermite_form(a)
    assert h == IntMatrix([[2, 0], [0, 4]])
    assert u @ a == h
    assert u.det() in (1, -1)


def test_hermite_zero_matrix():
    a = IntMatrix([[0, 0]])
    h, u = hermite_form(a)
    assert h == IntMatrix([[0, 0]])
    assert row_basis(a).rows == 0


def test_hermite_shape_properties():
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        h, u = hermite_form(a)
        assert u @ a == h
        assert u.det() in (1, -1)
        # echelon with positive pivots, reduced above
        last = -1
        for i in range(h.rows):
            nz = [j for j in range(n) if h[i][j] != 0]
            if not nz:
                assert all(not any(h[k]) for k in range(i, h.rows))
                break
            p = nz[0]
            assert p > last
            last = p
            assert h[i][p] > 0
            for k in range(i):
                assert 0 <= h[k][p] < h[i][p]


# --- Smith form --------------------------------------------------------------


def test_smith_chain_form_already():
    assert smith_form(IntMatrix([[2, 0], [0, 4]])).invariant_factors == (2, 4)


def test_smith_coprime_diagonal():
    # d1 = gcd of entries = 1, d1*d2 = |det| = 6
    assert smith_form(IntMatrix([[2, 0], [0, 3]])).invariant_factors == (1, 6)


def test_smith_row_vector():
    # gcd of the entries
    assert smith_form(IntMatrix([[1, 1]])).invariant_factors == (1,)


def test_smith_random_identities():
    rng = random.Random(5)
    for _ in range(80):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        a = random_matrix(rng, m, n)
        sf = smith_form(a)
        assert sf.U @ a @ sf.V == sf.D
        assert sf.U.det() in (1, -1)
        assert sf.V.det() in (1, -1)
        assert all(
            sf.D[i][j] == 0 for i in range(m) for j in range(n) if i != j
        )
        assert all(sf.D[i][i] >= 0 for i in range(min(m, n)))
        fs = sf.invariant_factors
        assert all(f > 0 for f in fs)
        assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))
        entries = [x for row in a for x in row]
        g = 0
        for x in entries:
            g = gcd(g, x)
        if fs:
            assert fs[0] == g
        else:
            assert g == 0
        if m == n:
            det = a.det()
            if det != 0:
                prod = 1
                for f in fs:
                    prod *= f
                assert prod == abs(det)


def test_smith_empty_and_zero():
    sf = smith_form(IntMatrix.zeros(3, 2))
    assert sf.invariant_factors == ()
    sf = smith_form(IntMatrix([], cols=4))
    assert sf.invariant_factors == ()
    assert sf.D.rows == 0 and sf.D.cols == 4


# --- kernels -----------------------------------------------------------------


def test_kernel_examples():
    assert kernel_basis(IntMatrix([[1, 1], [1, 1]])) == IntMatrix([[1, -1]])
    assert kernel_basis(IntMatrix.identity(3)).rows == 0
    assert kernel_basis(IntMatrix.zeros(1, 3)) == IntMatrix.identity(3)


def test_kernel_is_saturated():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        a = random_matrix(rng, m, n, -6, 6)
        k = kernel_basis(a)
        for v in k:
            assert all(x == 0 for x in (a @ IntMatrix([v]).transpose()).column(0))
            for q in (2, 3, 5, 7):
                if all(x % q == 0 for x in v):
                    shrunk = IntMatrix([[x // q for x in v]])
                    express_in_row_basis(row_basis(k), shrunk)  # must not raise


# --- subquotients ------------------------------------------------------------


def test_subquotient_full_rank_quotient():
    a = IntMatrix.identity(2)
    b = IntMatrix([[2, 0], [0, 3]])
    expected_factors, expected_free = quotient_structure_bruteforce([[2, 0], [0, 3]], 2)
    assert expected_factors == [6] and expected_free == 0
    assert subquotient(a, b) == FinAbGroup((6,), 0)


def test_subquotient_equal_lattices():
    a = IntMatrix([[1, 2], [0, 5]])
    assert subquotient(a, a) == FinAbGroup((), 0)


def test_subquotient_with_free_part():
    expected_factors, expected_free = quotient_structure_bruteforce([[2, 0]], 2)
    assert expected_factors == [2] and expected_free == 1
    assert subquotient(IntMatrix.identity(2), IntMatrix([[2, 0]])) == FinAbGroup((2,), 1)


def test_subquotient_rejects_outside_vectors():
    with pytest.raises(NotSublattice, match="generator 0"):
        subquotient(IntMatrix([[2, 0], [0, 2]]), IntMatrix([[1, 0]]))


def test_subquotient_basis_invariance():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 5)
        b = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))])
        base = subquotient(IntMatrix.identity(n), b)
        p = random_unimodular(rng, n)
        # change of basis of the ambient lattice
        assert subquotient(p, b @ p) == base
        # different generating set for the same sublattice
        w = random_unimodular(rng, b.rows)
        doubled = IntMatrix.stack([w @ b, b])
        assert subquotient(IntMatrix.identity(n), doubled) == base


# --- characteristic polynomials ----------------------------------------------


def test_charpoly_examples():
    assert char_poly(IntMatrix.identity(2)) == (1, -2, 1)  # (t-1)^2
    assert char_poly(IntMatrix([[0, -1], [1, -1]])) == (1, 1, 1)  # t^2+t+1
    minus_i7 = IntMatrix.diagonal([-1] * 7)
    assert char_poly(minus_i7) == poly_pow((1, 1), 7)  # (t+1)^7


def test_charpoly_against_leibniz_oracle():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(0, 4)
        a = random_matrix(rng, n, n, -5, 5)
        assert char_poly(a) == charpoly_leibniz(a)


def test_charpoly_conjugation_invariance():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, n, -8, 8)
        p = random_unimodular(rng, n)
        h, u = hermite_form(p)
        assert h == IntMatrix.identity(n)  # unimodular, so U is the inverse
        assert char_poly(p @ a @ u) == char_poly(a)


def test_charpoly_rejects_rectangular():
    with pytest.raises(ValueError):
        char_poly(IntMatrix([[1, 2, 3]]))


# --- FinAbGroup and polynomial helpers ----------------------------------------


def test_finabgroup_validation():
    with pytest.raises(ValueError):
        FinAbGroup((1, 2))
    with pytest.raises(ValueError):
        FinAbGroup((4, 2))
    with pytest.raises(ValueError):
        FinAbGroup((), -1)


def test_finabgroup_direct_sum_canonicalizes():
    assert FinAbGroup((2,)).direct_sum(FinAbGroup((3,))) == FinAbGroup((6,))
    assert FinAbGroup((2, 4)).direct_sum(FinAbGroup((2,))) == FinAbGroup((2, 2, 4))
    assert FinAbGroup((), 1).direct_sum(FinAbGroup((5,), 2)) == FinAbGroup((5,), 3)


def test_finabgroup_display():
    assert str(FinAbGroup()) == "0"
    assert str(FinAbGroup((2, 2, 2))) == "(Z/2)^3"
    assert str(FinAbGroup((3, 9))) == "(Z/3) x (Z/9)"
    assert str(FinAbGroup((2,), 1)) == "Z x (Z/2)"


def test_poly_helpers():
    assert poly_mul((1, 1), (1, 1)) == (1, 2, 1)
    assert poly_pow((1, 1), 0) == (1,)
    assert poly_eval((1, 1, 1), 1) == 3
    assert poly_str((1, 1, 1)) == "t^2 + t + 1"
    assert poly_str((-1, 0, 1)) == "t^2 - 1"


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 0), (0, -7), (5, 0)]:
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g == gcd(a, b)


# --- IntMatrix basics ----------------------------------------------------------


def naive_product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(a.cols)) for j in range(b.cols)] for i in range(a.rows)]


def assert_check_free_result(m):
    """Internal results hold tuples of int rows and match the validated matrix."""
    assert all(type(row) is tuple and len(row) == m.cols for row in m)
    assert all(type(x) is int for row in m for x in row)
    checked = IntMatrix(m.tolists(), cols=m.cols)
    assert m == checked and hash(m) == hash(checked)


def test_matmul_matches_naive_product():
    rng = random.Random(7)
    big = 2**70 + 3
    perm = IntMatrix([[1 if j == (3 * i + 1) % 5 else 0 for j in range(5)] for i in range(5)])
    sparse = IntMatrix([[rng.choice((0, 0, 0, 0, 1, -1, 2)) for _ in range(6)] for _ in range(6)])
    dense = random_matrix(rng, 6, 6)
    huge = IntMatrix([[rng.choice((-big, big, -1, 0, 5)) for _ in range(4)] for _ in range(6)])
    cases = [
        (sparse, sparse),
        (sparse, dense),
        (perm, random_matrix(rng, 5, 3)),
        (random_matrix(rng, 4, 5), perm),
        (dense, dense),
        (random_matrix(rng, 3, 6), random_matrix(rng, 6, 2)),
        (IntMatrix.zeros(3, 6), dense),
        (huge.transpose(), huge),
        (dense, huge),
        (IntMatrix([], cols=4), random_matrix(rng, 4, 3)),
    ]
    for a, b in cases:
        prod = a @ b
        assert prod.rows == a.rows and prod.cols == b.cols
        assert prod.tolists() == naive_product(a, b)
        assert_check_free_result(prod)
    # an empty inner dimension gives the zero matrix of the outer shape
    prod = IntMatrix([[], [], []], cols=0) @ IntMatrix([], cols=4)
    assert prod == IntMatrix.zeros(3, 4)
    assert_check_free_result(prod)


def test_express_in_row_basis_recovers_coefficients():
    rng = random.Random(11)
    basis = IntMatrix([[2, 1, 0, -3, 5], [0, 4, 1, 1, -2], [1, 0, 0, 7, 1]])
    coeffs = random_matrix(rng, 6, 3)
    coords = express_in_row_basis(basis, coeffs @ basis)
    assert coords == coeffs
    assert_check_free_result(coords)
    assert express_in_row_basis(basis, IntMatrix([], cols=5)) == IntMatrix([], cols=3)


def test_matrix_shapes_and_ops():
    a = IntMatrix([[1, 2], [3, 4]])
    assert (a @ IntMatrix.identity(2)) == a
    assert a.transpose() == IntMatrix([[1, 3], [2, 4]])
    assert (-a + a) == IntMatrix.zeros(2, 2)
    assert a - a == IntMatrix.zeros(2, 2)
    for m in (a @ a, a + a, a - a, -a, a.transpose(), IntMatrix.identity(3), IntMatrix.zeros(2, 3),
              IntMatrix.stack([a, a]), IntMatrix.block_diag(a, a), IntMatrix.zeros(0, 2).transpose()):
        assert_check_free_result(m)
    assert a.det() == -2
    assert not a.is_unimodular()
    assert IntMatrix([[2, 1], [1, 1]]).is_unimodular()
    empty = IntMatrix([], cols=3)
    assert empty.rows == 0 and empty.cols == 3
    assert empty.transpose().rows == 3
    assert IntMatrix.block_diag(a, empty).cols == 5
    assert IntMatrix.identity(0).det() == 1


def test_matrix_rejects_bad_entries():
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
