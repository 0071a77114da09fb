import hashlib
import itertools
import random
import time
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from glattice import intlinalg
from glattice.intlinalg import (
    FinAbGroup,
    IntMatrix,
    NotSublattice,
    char_poly,
    express_in_row_basis,
    hermite_form,
    kernel_basis,
    matmul_rows,
    poly_eval,
    poly_mul,
    poly_pow,
    poly_str,
    row_basis,
    smith_form,
    subquotient,
    xgcd,
)
from glattice.picard import dejonquieres


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


def charpoly_berkowitz(a):
    """Berkowitz's division-free O(n^4) det(tI - A): the reference the
    modular Hessenberg ``char_poly`` must match exactly."""
    n = a.rows
    if n == 0:
        return (1,)
    rows = a.tolists()
    # vec holds the coefficients for the leading principal minors,
    # highest degree first
    vec = [1, -rows[0][0]]
    for r in range(1, n):
        m = [row[:r] for row in rows[:r]]
        row = rows[r][:r]
        w = [rows[i][r] for i in range(r)]  # the column C above a_rr
        # Toeplitz column: 1, -a_rr, -(R C), -(R M C), ..., -(R M^{r-1} C)
        q = [1, -rows[r][r], -sum(map(mul, row, w))]
        for _ in range(r - 1):
            w = [sum(map(mul, mi, w)) for mi in m]
            q.append(-sum(map(mul, row, w)))
        # lower-triangular Toeplitz product: new[i] = sum_j q[i - j] * vec[j]
        vec = [sum(map(mul, q[i::-1], vec)) for i in range(r + 2)]
    vec.reverse()
    return tuple(vec)


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


def assert_hermite_shape(h):
    """Echelon with positive pivots, the entries above each pivot in [0, pivot)."""
    last = -1
    for i in range(h.rows):
        nz = [j for j in range(h.cols) if h[i][j] != 0]
        if not nz:
            assert all(not any(h[k]) for k in range(i, h.rows))
            break
        p = nz[0]
        assert p > last
        last = p
        assert h[i][p] > 0
        for k in range(i):
            assert 0 <= h[k][p] < h[i][p]


def test_hermite_shape_properties():
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        h, u = hermite_form(a)
        assert u @ a == h
        assert u.det() in (1, -1)
        assert_hermite_shape(h)


def test_hermite_form_is_the_reduced_echelon_form_of_its_row_lattice():
    # checked against the definition, with no elimination of its own: H in
    # reduced echelon form, U @ A == H and U unimodular fix H uniquely
    rng = random.Random(29)
    cases = list(zero_heavy_matrices())
    for _ in range(200):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        a = random_matrix(rng, m, n)
        if min(m, n) > 1 and rng.random() < 0.4:  # rank r < min(m, n)
            r = rng.randint(1, min(m, n) - 1)
            a = random_matrix(rng, m, r, -4, 4) @ random_matrix(rng, r, n, -4, 4)
        cases.append(a)
    assert any(row_basis(a).rows < min(a.rows, a.cols) for a in cases)
    assert any(a.rows < a.cols for a in cases) and any(a.rows > a.cols for a in cases)
    for a in cases:
        h, u = hermite_form(a)
        assert_hermite_shape(h)
        assert u @ a == h
        assert u.det() in (1, -1)
        basis = row_basis(a)
        assert h == IntMatrix.stack([basis, IntMatrix.zeros(a.rows - basis.rows, a.cols)])


# digests of (H, U) on random_matrix(random.Random(seed), 16, 16), seeds 0-4,
# all nonsingular: U = H A^-1 is unique, so no elimination order may move them
HERMITE_PINS = (
    "e5e911aeaecd5e3c69967ae707712d41a315191cee664c2d4778c33263dc6868",
    "8fab8ba12fd191a2a9def45ae66f41bbdeced36ec80eaceb9eb5969881700d67",
    "7344662e8eefa818e21a889406922b31d29e5cdd9abca9b79502b43e1e790590",
    "02c302e863a9ee9425ae2cea5c01db1954a8f502e059636fd5d6125560af592b",
    "1bb2de975755cc19d5cc2cfe6d9f6eb20917f3c30d911ef557558c418a3b1700",
)


def test_hermite_transforms_of_dense_matrices_are_pinned():
    for seed, pin in enumerate(HERMITE_PINS):
        hasher = hashlib.sha256()
        for t in hermite_form(random_matrix(random.Random(seed), 16, 16)):
            hasher.update(repr((t.rows, t.cols, t.tolists())).encode())
        assert hasher.hexdigest() == pin, seed


def spy_row_operations(monkeypatch):
    """Record the width of the first row of every ``_row_sub`` and ``_combine_rows`` call."""
    widths = []
    for name in ("_row_sub", "_combine_rows"):
        op = getattr(intlinalg, name)
        monkeypatch.setattr(intlinalg, name, lambda row, *args, op=op: widths.append(len(row)) or op(row, *args))
    return widths


def test_bases_without_transforms_make_no_row_operation_on_an_empty_row(monkeypatch):
    # row_basis, the kernel's second pass and both subquotient passes insert plain rows: no empty
    # placeholder transform takes a second call for each operation
    widths = spy_row_operations(monkeypatch)
    rng = random.Random(34)
    for _ in range(4):
        row_basis(random_matrix(rng, 12, 16))
        kernel_basis(random_matrix(rng, 12, 16))
        a = random_matrix(rng, 10, 14)
        subquotient(a, random_matrix(rng, 10, 10) @ a)
    assert widths and 0 not in widths


def test_hermite_form_makes_each_row_operation_once_on_the_row_and_its_transform(monkeypatch):
    # each row carries its transform as its tail, so one call covers both: on a 16 x 16 input
    # every operation is made on rows of width 32, none on the row or the transform alone
    widths = spy_row_operations(monkeypatch)
    hermite_form(random_matrix(random.Random(34), 16, 16))
    assert widths and set(widths) == {32}


@pytest.mark.parametrize("fn, seed", [pytest.param("hermite_form", s, id=str(s)) for s in (1, 2, 3)] + [
    pytest.param(fn, s, id=f"{fn}-{s}")
    for fn, s in (("row_basis", 16), ("express_in_row_basis", 6), ("subquotient", 2))
])
def test_hermite_form_of_a_dense_30x30_matrix_is_fast(fn, seed):
    # eliminating column by column and reducing above each pivot took, from
    # coefficient growth: hermite_form 0.05-3.1 s on seeds 1-10 of this family
    # (1.4-2.1 s on seed 1) and over 120 s on seed 8; row_basis 2.3-3.5 s on
    # seed 16, express_in_row_basis 3.6-3.7 s on seed 6 and subquotient
    # 3.6-4.1 s on seed 2, given the vectors R @ A for the seed's next dense R
    rng = random.Random(seed)
    a = random_matrix(rng, 30, 30)
    r = random_matrix(rng, 30, 30)
    ra = r @ a
    t0 = time.perf_counter()
    result = getattr(intlinalg, fn)(*((a, ra) if fn in ("express_in_row_basis", "subquotient") else (a,)))
    elapsed = time.perf_counter() - t0
    if fn == "hermite_form":
        h, u = result
        assert u @ a == h
    elif fn == "row_basis":
        assert_hermite_shape(result)
        assert result.rows == 30 and result.det() == abs(a.det())
    elif fn == "express_in_row_basis":
        assert result == r
    else:
        factors = smith_form(r).invariant_factors
        assert result == FinAbGroup(tuple(f for f in factors if f > 1), 30 - len(factors))
    assert elapsed < 1.0, f"{fn} 30 x 30 took {elapsed:.2f} s"


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
    with pytest.raises(ValueError, match="^ambient dimensions differ$"):
        subquotient(IntMatrix.identity(2), IntMatrix([[1, 0, 0]]))


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


def perm_matrix(perm):
    return IntMatrix([[1 if perm[i] == j else 0 for j in range(len(perm))] for i in range(len(perm))])


def test_charpoly_matches_berkowitz_at_scale():
    rng = random.Random(29)
    big = 2**64
    for n in range(41):
        cases = [
            random_matrix(rng, n, n),
            # a few rows carry entries above 2^64, the rest stay small and sparse
            IntMatrix([[rng.choice((-1, 1)) * rng.randint(big, 4 * big) if i % 9 == 0 and rng.random() < 0.3
                        else rng.randint(-3, 3) if rng.random() < 0.2 else 0 for _ in range(n)] for i in range(n)]),
        ]
        if n <= 12:
            cases.append(random_matrix(rng, n, n, -4 * big, 4 * big))
        for a in cases:
            assert char_poly(a) == charpoly_berkowitz(a)


def test_charpoly_special_matrices():
    rng = random.Random(31)
    for n in (1, 2, 5, 12, 23):
        ident = IntMatrix.identity(n)
        nilpotent = IntMatrix([[rng.randint(-9, 9) if j > i else 0 for j in range(n)] for i in range(n)])
        perm = list(range(n))
        rng.shuffle(perm)
        cases = {
            "identity": (ident, poly_pow((-1, 1), n)),
            "-I": (-ident, poly_pow((1, 1), n)),
            "nilpotent": (nilpotent, (0,) * n + (1,)),
            "nilpotent^T": (nilpotent.transpose(), (0,) * n + (1,)),
            "zero": (IntMatrix.zeros(n, n), (0,) * n + (1,)),
            "permutation": (perm_matrix(perm), None),
            "block diagonal": (IntMatrix.block_diag(random_matrix(rng, n, n), perm_matrix(perm)), None),
            "blocks, first column zero": (IntMatrix.block_diag(IntMatrix.zeros(1, 1), random_matrix(rng, n, n)), None),
        }
        for name, (a, expected) in cases.items():
            assert char_poly(a) == charpoly_berkowitz(a), name
            if expected is not None:
                assert char_poly(a) == expected, name


def test_charpoly_skip_and_swap_paths():
    # column 0 zero below the diagonal: no pivot, the column is skipped
    skip = IntMatrix([[2, 1, 0, 3], [0, 1, 4, 0], [0, 5, 1, 2], [0, 0, 7, 1]])
    # zero subdiagonal entry with a nonzero below it: rows and columns 1, 2 swap
    swap = IntMatrix([[1, 2, 3, 4], [0, 5, 6, 7], [8, 9, 1, 2], [3, 4, 5, 6]])
    # joined by Chinese remainders, the largest prime is one of the moduli and
    # an entry equal to it is a zero pivot modulo it alone
    top = intlinalg._PRIMES[-1]
    hidden = IntMatrix([[0, 1, 0], [top, 0, 1], [1, 1, 1]])
    assert intlinalg._moduli(9 * (top + 2)) == (top, intlinalg._PRIMES[-2])
    for a in (skip, swap, hidden, skip.transpose(), swap.transpose()):
        assert char_poly(a) == charpoly_berkowitz(a)
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(2, 9)
        a = IntMatrix([[rng.randint(-2, 2) if rng.random() < 0.25 else 0 for _ in range(n)] for _ in range(n)])
        assert char_poly(a) == charpoly_berkowitz(a)


def test_charpoly_bound_around_each_prime():
    primes = intlinalg._PRIMES
    for i, p in enumerate(primes):
        # B = prod_i (isqrt(sum_j a_ij^2) + 2) = 9 (x + 2) for diag(x) + a swap
        for x, expected in (
            ((p - 1) // 18 - 2, (p,)),  # 2B just below p
            (p // 18 - 1, (primes[i + 1],) if i + 1 < len(primes) else primes[:-3:-1]),  # just above
        ):
            bound = 9 * (x + 2)
            assert intlinalg._moduli(bound) == expected
            for a in (IntMatrix([[x, 0, 0], [0, 0, 1], [0, 1, 0]]), IntMatrix([[-x, 0, 0], [0, 0, -1], [0, 1, 0]])):
                assert char_poly(a) == charpoly_berkowitz(a)
        # a 1 x 1 matrix puts its coefficient next to the edge of the symmetric range
        x = (p - 1) // 2 - 2
        assert intlinalg._moduli(x + 2) == (p,)
        assert char_poly(IntMatrix([[x]])) == (-x, 1)
        assert char_poly(IntMatrix([[-x]])) == (x, 1)


def test_charpoly_chinese_remainder_path():
    primes = intlinalg._PRIMES
    rng = random.Random(41)
    top, second = primes[-1], primes[-2]
    # beyond the largest prime the largest ones are joined, as few as will do
    assert intlinalg._moduli(top) == (top, second)
    assert intlinalg._moduli(top * second // 2 - 1) == (top, second)
    assert intlinalg._moduli(top * second // 2 + 1) == (top, second, primes[-3])
    x = top * second // 2 - 3
    assert char_poly(IntMatrix([[x]])) == (-x, 1)
    assert char_poly(IntMatrix([[-x]])) == (x, 1)
    # 3 x 3 matrices of 16000-bit entries have B near 2^48000, beyond the largest prime
    assert len(intlinalg._moduli(2**48000)) == 2
    for _ in range(3):
        a = random_matrix(rng, 3, 3, -(2**16000), 2**16000)
        assert char_poly(a) == charpoly_berkowitz(a)
    product = 1
    for p in primes:
        product *= p
    with pytest.raises(ValueError, match="exceeds the listed primes"):
        char_poly(IntMatrix([[product // 2]]))


def test_charpoly_primes_are_listed_ascending():
    primes = intlinalg._PRIMES
    assert list(primes) == sorted(set(primes))
    assert 2**61 - 1 not in primes  # the benchmark oracle's modulus
    assert primes[:10] == (
        1005 * 2**20 + 1, 979 * 2**50 + 1, 1005 * 2**80 + 1, 1003 * 2**110 + 1, 2**127 - 1,
        897 * 2**140 + 1, 807 * 2**170 + 1, 2**192 - 2**64 - 1, 2**255 - 19, 2**521 - 1,
    )
    for p in primes:
        if p.bit_length() <= 2300:
            assert pow(3, p - 1, p) == 1


def test_charpoly_rungs_carry_proth_certificates():
    # N = k 2^m + 1 with k odd and k < 2^m is prime when a^((N - 1)/2) = -1 mod N (Proth)
    rungs = [k * 2**m + 1 for k, m, _ in intlinalg._PROTH_RUNGS]
    assert [n.bit_length() for n in rungs] == [30, 60, 90, 120, 150, 180]  # one per CPython digit below 2^192
    for (k, m, a), n in zip(intlinalg._PROTH_RUNGS, rungs):
        assert k % 2 == 1 and k < 2**m
        assert pow(a, (n - 1) // 2, n) == n - 1
        assert n in intlinalg._PRIMES


def test_charpoly_lattice_inputs_take_a_six_digit_modulus(monkeypatch):
    # 28 x 28 matrices with entries in [-20, 20], drawn as the lattice benchmark draws them, have
    # 2B of 167-171 bits: the 180-bit rung, 6 digits of 30 bits, where 2^192 - 2^64 - 1 takes 7
    seen = []
    mod = intlinalg._char_poly_mod

    def spy(rows, p):
        seen.append(p)
        return mod(rows, p)

    monkeypatch.setattr(intlinalg, "_char_poly_mod", spy)
    rng = random.Random("lattice:5")
    for _ in range(40):
        flat = rng.choices(range(-20, 21), k=28 * 28)
        char_poly(IntMatrix([flat[i:i + 28] for i in range(0, 28 * 28, 28)]))
    assert len(seen) == 40
    assert {-(-p.bit_length() // 30) for p in seen} == {6}


def test_charpoly_packed_slot_edges():
    # A n_r packs each column of A + c into byte slots, c the largest entry size: entries at -c
    # and +c fill a slot's range, for c on both sides of byte edges, and swaps move only perm
    rng = random.Random(47)
    cases = [IntMatrix([]), IntMatrix([[0]]), IntMatrix([[-7]]), IntMatrix([[2**90]]), IntMatrix.zeros(6, 6)]
    for n in (2, 5, 13, 28):
        for c in (1, 20, 127, 128, 255, 256, 2**64 - 1, 2**70):
            cases.append(IntMatrix([[rng.choice((-c, c)) for _ in range(n)] for _ in range(n)]))
        cases.append(random_matrix(rng, n, n, -20, -1))  # all negative
        huge = IntMatrix.zeros(n, n).tolists()
        huge[rng.randrange(n)][rng.randrange(n)] = rng.choice((-1, 1)) * 2**100
        cases.append(IntMatrix(huge))
    # under the 23-cycle i -> i + 5, A n_r rarely leads at position r + 1: 20 of the 22 steps swap
    cycle = perm_matrix([(i + 5) % 23 for i in range(23)])
    cases += [cycle, cycle + IntMatrix.diagonal([rng.randint(-3, 3) for _ in range(23)])]
    for a in cases:
        assert char_poly(a) == charpoly_berkowitz(a)
    assert char_poly(cycle) == (-1,) + (0,) * 22 + (1,)  # t^23 - 1


def test_charpoly_cayley_hamilton():
    rng = random.Random(43)
    for lo in (1, 20, 2**40):
        a = random_matrix(rng, 20, 20, -lo, lo)
        acc = IntMatrix.zeros(20, 20)
        for c in reversed(char_poly(a)):  # Horner: chi(A) = (...(A + c_19 I) A + ...) + c_0 I
            acc = acc @ a + IntMatrix.diagonal([c] * 20)
        assert acc == IntMatrix.zeros(20, 20)


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
    with pytest.raises(ValueError, match="^infinite group has no order$"):
        FinAbGroup((2,), 1).order()
    assert str(FinAbGroup((2, 2, 6), 3)) == "Z^3 x (Z/2)^2 x (Z/6)"


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
    assert poly_str((0,)) == "0"
    assert poly_str((1, 0, -1)) == "-t^2 + 1"


def euclid_xgcd(a, b):
    """The extended Euclidean loop: the reference whose ``(x, y, g)`` ``xgcd`` must return."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 0), (0, -7), (5, 0)]:
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g == gcd(a, b)


def test_xgcd_matches_the_euclidean_loop():
    for a in range(-300, 301):
        for b in range(-300, 301):
            assert xgcd(a, b) == euclid_xgcd(a, b), (a, b)
    # sizes log-uniform up to 2,000 bits, every sign, and pairs with a common factor or b | a
    rng = random.Random(11)

    def draw():
        return rng.choice((-1, 1)) * rng.getrandbits(round(2000 ** rng.random()))

    for _ in range(100_000):
        a, b, c = draw(), draw(), draw()
        kind = rng.randrange(3)
        if kind == 1:
            a, b = a * c, b * c
        elif kind == 2:
            a = b * c
        assert xgcd(a, b) == euclid_xgcd(a, b), (a, b)


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
    # rows of B with fewer than a quarter nonzeros are scattered into the sum, denser ones added in full;
    # A's rows mix 1, -1 and other entries, and start on sparse and dense rows alike
    mixed = IntMatrix([
        [i + 1 if j == i else -2 if j == (i + 5) % 12 else 0 for j in range(12)] if i % 2 == 0
        else [(3 * i + j) % 7 - 3 for j in range(12)]
        for i in range(10)
    ])
    picks = IntMatrix([
        [1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, -1, 0, 5, 0, 0, 0],
        [1, 1, 0, -1, 0, 0, 0, 0, 1, 0],
        [0, -1, 0, 0, 1, 0, 0, 0, -7, 0],
        [3, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        [0] * 10,
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    ] + [[rng.choice((0, 0, 0, 1, -1, 5, -7)) for _ in range(10)] for _ in range(4)])
    cases += [(picks, mixed), (picks @ mixed @ mixed.transpose(), mixed), (mixed.transpose(), mixed)]
    # the genus-20 de Jonquieres involution and its form
    cb = dejonquieres(20)
    cases += [(cb.delta, cb.delta), (cb.delta.transpose(), cb.gram), (cb.delta.transpose() @ cb.gram, cb.delta)]
    for a, b in cases:
        prod = a @ b
        assert prod.rows == a.rows and prod.cols == b.cols
        assert prod.tolists() == naive_product(a, b)
        assert_check_free_result(prod)
    # B given as lists, as express_in_row_basis passes them, is read and never written
    b = mixed.tolists()
    assert matmul_rows(picks.tolists(), b, 12) == list(map(tuple, naive_product(picks, mixed)))
    assert b == mixed.tolists()
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


def test_express_in_row_basis_refusals():
    basis = IntMatrix([[1, 0, 0], [0, 2, 0]])
    with pytest.raises(ValueError, match="^basis rows are linearly dependent$"):
        express_in_row_basis(IntMatrix([[1, 2, 0], [2, 4, 0]]), IntMatrix([[1, 2, 0]]))
    # outside the rational span, and inside it but not an integer combination
    for v in ([0, 0, 1], [0, 1, 0]):
        with pytest.raises(NotSublattice, match="^vector 1 is not in the spanned lattice$"):
            express_in_row_basis(basis, IntMatrix([[3, 4, 0], v]))
    # a narrower vector once came back as if it fitted, and a wider one raised IndexError
    for v in ([1, 0], [1, 0, 0, 0]):
        with pytest.raises(ValueError, match="^ambient dimensions differ$"):
            express_in_row_basis(basis, IntMatrix([v]))


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
    with pytest.raises(ValueError, match="^expected 3 columns, got 2$"):
        IntMatrix([[1, 2]], cols=3)
    with pytest.raises(ValueError, match="^negative column count$"):
        IntMatrix([], cols=-1)
    with pytest.raises(ValueError, match="^nothing to stack$"):
        IntMatrix.stack([])
    with pytest.raises(ValueError, match="^column counts differ$"):
        IntMatrix.stack([IntMatrix.identity(2), IntMatrix.identity(3)])


def test_arithmetic_rejects_shape_mismatch():
    a, b = IntMatrix.identity(2), IntMatrix([[1, 2, 3]])
    with pytest.raises(ValueError, match=r"^shape mismatch: 2x2 @ 1x3$"):
        a @ b
    with pytest.raises(TypeError):  # a scalar is not a matrix
        IntMatrix([[1]]) @ 3
    for op in (IntMatrix.__add__, IntMatrix.__sub__):
        with pytest.raises(ValueError, match="^shape mismatch$"):
            op(a, b)


# --- sparse inputs: determinants, normal forms and subquotients ----------------------


def det_laplace(rows):
    """Cofactor expansion along the first row; fit for n <= 6."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * det_laplace([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def det_fraction(rows):
    """Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    assert det.denominator == 1
    return int(det)


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return IntMatrix([[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)], cols=n)


def sparse_matrix(rng, rows, cols, entries=(0, 0, 0, 0, 1, -1, 2, -3)):
    return IntMatrix([[rng.choice(entries) for _ in range(cols)] for _ in range(rows)], cols=cols)


def zero_heavy_matrices():
    """Signed permutations, de Jonquieres delta +- I, block-diagonal matrices
    and matrices with empty rows and columns."""
    rng = random.Random(23)
    out = [signed_permutation(rng, n) for n in (1, 2, 3, 5, 6, 8)]
    for g in (1, 2, 3, 4):
        delta = dejonquieres(g).delta
        ident = IntMatrix.identity(delta.rows)
        out += [delta + ident, delta - ident, delta.transpose() + ident, delta.transpose() - ident]
    out += [
        IntMatrix.block_diag(signed_permutation(rng, 3), sparse_matrix(rng, 2, 4)),
        IntMatrix.block_diag(sparse_matrix(rng, 3, 2), IntMatrix.zeros(2, 3)),
        IntMatrix.block_diag(IntMatrix([[2, 1], [0, 2]]), IntMatrix([[0, 3], [3, 0]])),
    ]
    for _ in range(12):
        m = sparse_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)).tolists()
        m.insert(rng.randint(0, len(m)), [0] * len(m[0]))  # an empty row
        j = rng.randint(0, len(m[0]))
        out.append(IntMatrix([r[:j] + [0] + r[j:] for r in m]))  # and an empty column
    out += [IntMatrix.zeros(3, 4), IntMatrix([], cols=3), IntMatrix([[], []], cols=0)]
    return out


def test_det_matches_references_on_sparse_and_special_inputs():
    big = 2**70 + 1
    cases = [
        [],
        [[7]],
        [[-big]],
        [[0, 1], [1, 0]],  # forced swap
        [[1, 2, 3], [2, 4, 6], [1, 0, 1]],  # singular
        [[0, 0, 1], [0, 2, 0], [0, 0, 5]],  # zero column: singular
        [[2, 1, 0], [0, 3, 1], [1, 0, 4]],  # zero below a pivot of 2: rescale only
        [[-3, 1, 0, 0], [0, 2, 1, 0], [0, 0, -1, 1], [1, 0, 0, 5]],
        [[-1, 2, 0], [0, 1, 3], [4, 0, 1]],  # pivot -prev: negated row
        [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]],  # zero pivot mid-way: swap
        [[big, 1, 0], [0, big, -1], [1, 0, -big]],
        [[3, 2**64, 0, 0], [0, 5, 0, 1], [2**65, 0, 7, 0], [0, 1, 0, 2**63]],
    ]
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 6)
        entries = rng.choice([(0, 0, 0, 1, -1), (0, 0, 1, -1, 2, -2, 3), (0, 0, 0, 0, 5, -7, 11)])
        cases.append(sparse_matrix(rng, n, n, entries).tolists())
    for m in cases:
        assert IntMatrix(m, cols=len(m)).det() == det_laplace(m) == det_fraction(m), m
    for _ in range(40):
        n = rng.randint(7, 12)
        m = sparse_matrix(rng, n, n).tolists()
        assert IntMatrix(m).det() == det_fraction(m), m
    for a in zero_heavy_matrices():
        if a.is_square and a.rows <= 12:
            assert a.det() == det_fraction(a.tolists())
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]).det()


def test_normal_forms_on_zero_heavy_inputs():
    for a in zero_heavy_matrices():
        h, u = hermite_form(a)
        assert u @ a == h and u.det() in (1, -1)
        assert_hermite_shape(h)
        rank = row_basis(a).rows
        assert row_basis(a) == IntMatrix(h.tolists()[:rank], cols=a.cols)

        k = kernel_basis(a)
        assert k.rows == a.cols - rank and k.cols == a.cols
        assert a @ k.transpose() == IntMatrix.zeros(a.rows, k.rows)
        assert_hermite_shape(k)

        sf = smith_form(a)
        assert sf.U @ a @ sf.V == sf.D
        assert sf.U.det() in (1, -1) and sf.V.det() in (1, -1)
        assert all(sf.D[i][j] == 0 for i in range(a.rows) for j in range(a.cols) if i != j)
        fs = sf.invariant_factors
        assert len(fs) == rank and all(f > 0 for f in fs)
        assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))

        for m in (h, u, row_basis(a), k, sf.U, sf.D, sf.V):
            assert_check_free_result(m)


def determinantal_divisors(a):
    """The gcd of the k x k minors of ``a``, k = 1 .. min(rows, cols), minors by cofactor expansion."""
    rows = a.tolists()
    out = []
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for ri in itertools.combinations(range(a.rows), k):
            for ci in itertools.combinations(range(a.cols), k):
                g = gcd(g, det_laplace([[rows[i][j] for j in ci] for i in ri]))
        out.append(g)
    return out


def test_smith_factors_match_determinantal_divisors():
    # d_1 * ... * d_k is the gcd of the k x k minors, and 0 beyond the rank
    rng = random.Random(37)
    cases = [a for a in zero_heavy_matrices() if min(a.rows, a.cols) <= 4 and max(a.rows, a.cols) <= 5]
    for _ in range(120):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = random_matrix(rng, m, n, -9, 9) if rng.random() < 0.5 else sparse_matrix(rng, m, n)
        cases += [a, a.transpose()]
    for a in cases:
        fs = smith_form(a).invariant_factors
        prod = 1
        for k, divisor in enumerate(determinantal_divisors(a)):
            prod *= fs[k] if k < len(fs) else 0
            assert prod == divisor, a


def test_smith_transforms_stay_small_on_dense_inputs():
    # clearing rows before columns at every pivot took U and V to 84,676-139,002 bits here
    for s in (1, 2, 3):
        a = random_matrix(random.Random(s), 30, 30)
        sf = smith_form(a)
        assert sf.U @ a @ sf.V == sf.D
        assert max(abs(x).bit_length() for t in (sf.U, sf.V) for row in t for x in row) < 5000


def smith_of_raw_coefficients(a, b):
    """(span a) / (span b) from the Smith form of b's coordinates in a basis of a."""
    basis = row_basis(a)
    sf = smith_form(express_in_row_basis(basis, b))
    return FinAbGroup(tuple(f for f in sf.invariant_factors if f > 1), basis.rows - len(sf.invariant_factors))


def test_subquotient_matches_smith_of_raw_coefficients():
    rng = random.Random(31)
    cases = []
    for _ in range(30):
        n = rng.randint(1, 6)
        a = sparse_matrix(rng, rng.randint(1, n), n)
        if not row_basis(a).rows:
            continue
        r = a.rows
        more = sparse_matrix(rng, r + rng.randint(1, 4), r) @ a  # more generators than rank
        dependent = IntMatrix.stack([more, more, IntMatrix.zeros(1, n)])  # repeated and zero generators
        none = IntMatrix([], cols=n)
        cases += [(a, more), (a, dependent), (a, none), (a, a)]
    for g in (1, 2, 3, 4):
        delta = dejonquieres(g).delta
        ident = IntMatrix.identity(delta.rows)
        cases.append((kernel_basis(ident + delta), (ident - delta).transpose()))
    for a, b in cases:
        assert subquotient(a, b) == smith_of_raw_coefficients(a, b)
    assert subquotient(IntMatrix([[1, 0, 2], [0, 3, 0]]), IntMatrix([], cols=3)) == FinAbGroup((), 2)
    # repeated, dependent and zero generators of an index-2 sublattice
    a = IntMatrix([[2, 0], [0, 1]])
    b = IntMatrix([[2, 0], [2, 0], [4, 2], [0, 6], [0, 0]])
    assert subquotient(a, b) == smith_of_raw_coefficients(a, b) == FinAbGroup((2,), 0)


def smith_pin_family():
    """Named groups of inputs whose Smith transforms are pinned by sha256."""
    dense16 = [random_matrix(random.Random(s), 16, 16) for s in range(10)]
    dense30 = [random_matrix(random.Random(s), 30, 30) for s in (1, 2, 3)]
    dejonquieres_family = []
    for g in range(1, 21):
        m = dejonquieres(g).delta - IntMatrix.identity(2 * g + 4)
        dejonquieres_family += [m, m.transpose()]
    rng = random.Random(41)
    misc = [
        IntMatrix([[2, 0], [0, 3]]),  # the pivot 2 does not divide 3: the offender path
        IntMatrix.diagonal([6, 4, 9]),
        IntMatrix.diagonal([0, 10, 0, 4, 15]),
        IntMatrix([[4, 6, 0], [6, 9, 2], [0, 2, 5]]),
        IntMatrix([[6, 0, 2], [0, 6, 0], [-4, 0, 0]]),  # a row swap after the offender step
        IntMatrix.zeros(3, 5),
        IntMatrix([], cols=4),
        IntMatrix([[], [], []], cols=0),
    ]
    for _ in range(40):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        misc.append(sparse_matrix(rng, m, n))
        misc.append(sparse_matrix(rng, m, n, entries=(0, 0, 0, 2, -4, 6, 9, -15)))
    for _ in range(300):  # small pivots that rarely divide the rest: many offender steps
        misc.append(sparse_matrix(rng, rng.randint(2, 6), rng.randint(2, 6), entries=(0, 0, 2, 3, 4, 6, -6, 12)))
    return {"dense16": dense16, "dense30": dense30, "dejonquieres": dejonquieres_family, "misc": misc}


SMITH_PINS = {
    "dense16": "01b8ad166cdf03cb8db9e69602b8413f98f7ec4d9d04fbf1e0618eb97598149a",
    "dense30": "f36334a4e0ed014c9e9ea2bfa987c3ece9445f4c7647c0fcd0c76e5e7c3c8651",
    "dejonquieres": "e6235527495df9fee4322ead6c94cdee9b5dd1bd68d2534803867662a0daf00d",
    "misc": "bf69d2e7ccabdaa53be5b659c8b02d394bfa8e5accfe4f13a071a20aa36ef4e2",
}


def smith_digest(cases):
    hasher = hashlib.sha256()
    for a in cases:
        sf = smith_form(a)
        for t in (sf.U, sf.D, sf.V):
            hasher.update(repr((t.rows, t.cols, t.tolists())).encode())
    return hasher.hexdigest()


def test_smith_transforms_are_pinned():
    # U, D and V depend on the pivot order, not only on the input: these
    # digests fix the pivot rule (first entry of least |value|, row by row)
    for name, cases in smith_pin_family().items():
        assert smith_digest(cases) == SMITH_PINS[name], name


def test_subquotient_takes_each_distinct_nonzero_generator_once(monkeypatch):
    rows = []
    reduce = intlinalg._reduced_basis
    monkeypatch.setattr(intlinalg, "_reduced_basis", lambda r, n: rows.append(len(r)) or reduce(r, n))
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(1, 6)
        b = random_matrix(rng, rng.randint(1, 5), n, -5, 5)
        distinct = len({v for v in b if any(v)})
        noisy = list(b) + [rng.choice(list(b)) for _ in range(4)] + [(0,) * n] * 3
        rng.shuffle(noisy)
        for a in (IntMatrix.identity(n), random_unimodular(rng, n)):
            rows.clear()
            result = subquotient(a, IntMatrix(noisy))
            assert rows[-1] == distinct  # the second pass inserts the distinct nonzero rows only
            assert result == subquotient(a, b) == smith_of_raw_coefficients(a, b)
    # a generator outside the lattice is named by its index in the input, repeats and zeros included
    with pytest.raises(NotSublattice, match="generator 4 lies"):
        subquotient(IntMatrix([[2, 0], [0, 2]]), IntMatrix([[0, 0], [2, 0], [2, 0], [0, 0], [1, 0], [1, 0]]))


def test_subquotient_of_the_identity_basis_matches_the_general_path(monkeypatch):
    solves = []
    solve = intlinalg._solve_against_hnf
    monkeypatch.setattr(intlinalg, "_solve_against_hnf", lambda *args: solves.append(1) or solve(*args))
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 7)
        b = sparse_matrix(rng, rng.randint(1, 6), n) if rng.random() < 0.5 else random_matrix(rng, rng.randint(1, 6), n, -6, 6)
        more = sparse_matrix(rng, b.rows + rng.randint(1, 3), b.rows) @ b  # dependent rows
        for gens in (b, more, IntMatrix.stack([b, b, IntMatrix.zeros(2, n)]), IntMatrix([], cols=n)):
            ident, u = IntMatrix.identity(n), random_unimodular(rng, n)
            solves.clear()
            fast = subquotient(ident, gens)
            assert not solves  # the identity is not solved against
            general = subquotient(u, gens)
            # each distinct nonzero generator is solved once
            assert len(solves) == (len({v for v in gens if any(v)}) if u != ident else 0)
            assert fast == general == smith_of_raw_coefficients(ident, gens)
    assert subquotient(IntMatrix.identity(3), IntMatrix.zeros(2, 3)) == FinAbGroup((), 3)
    assert subquotient(IntMatrix.identity(2), IntMatrix([[2, 0], [0, 6], [2, 6]])) == FinAbGroup((2, 6), 0)
    assert subquotient(IntMatrix.identity(0), IntMatrix([], cols=0)) == FinAbGroup()
