"""Ground truth and outcome checks for the benchmark, independent of glattice.

Nothing here imports the package under test: matrices are lists of lists of
Python integers, and every algorithm (Bareiss determinant, rank and
characteristic polynomial modulo a prime, permutation-group closure) is
written out again so that a defect in ``glattice`` cannot hide itself by
also appearing in its checker.  Each ``check_*`` function returns ``None``
when the outcome is right and a one-line reason otherwise.
"""

from __future__ import annotations

import random

# A Mersenne prime; ranks and characteristic polynomials are compared modulo it.
PRIME = (1 << 61) - 1


# ---------------------------------------------------------------------------
# exact integer matrices as lists of lists


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def det(a) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


def rank_mod(a, p: int = PRIME) -> int:
    """Rank of ``a`` over GF(p); a lower bound for its rank over Q."""
    m = [[x % p for x in row] for row in a]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        top = m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv % p
            if f:
                row = m[i]
                for j in range(c, cols):
                    row[j] = (row[j] - f * top[j]) % p
        rank += 1
    return rank


def charpoly_mod(a, p: int = PRIME) -> list[int]:
    """Characteristic polynomial of ``a`` over GF(p), ascending degree.

    Reduces to upper Hessenberg form by similarity and then runs the
    Hessenberg recurrence (Cohen, Algorithm 2.2.9).
    """
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        inv = pow(h[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:
                hi, hm = h[i], h[m]
                for j in range(n):
                    hi[j] = (hi[j] - u * hm[j]) % p
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]  # polys[k]: characteristic polynomial of the leading k x k block
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [0] + prev  # X * p_{m-1}
        c = h[m - 1][m - 1]
        for k, x in enumerate(prev):
            cur[k] -= c * x
        t = 1
        for i in range(1, m):
            t = t * h[m - i][m - i - 1] % p
            f = h[m - i - 1][m - 1] * t % p
            if f:
                for k, x in enumerate(polys[m - i - 1]):
                    cur[k] -= f * x
        polys.append([x % p for x in cur])
    return polys[n]


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> list[list[int]]:
    """Dense matrix with entries drawn uniformly from ``[-bound, bound]``."""
    flat = rng.choices(range(-bound, bound + 1), k=rows * cols)
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


def random_unimodular(rng: random.Random, n: int, steps: int) -> tuple[list[list[int]], list[list[int]]]:
    """A seeded unimodular matrix and its exact inverse.

    Built from ``steps`` elementary row additions with multiplier +-1 and
    one row permutation with random signs, so entries stay small.
    """
    p = identity(n)
    pinv = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # P <- (I + c e_i e_j^T) P and P^-1 <- P^-1 (I - c e_i e_j^T)
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= c * row[i]
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    p = [[signs[k] * x for x in p[order[k]]] for k in range(n)]
    pinv = [[row[order[k]] * signs[k] for k in range(n)] for row in pinv]
    if matmul(p, pinv) != identity(n):
        raise AssertionError("random_unimodular produced a wrong inverse")
    return p, pinv


# ---------------------------------------------------------------------------
# normal-form certificates


def hnf_shape_error(h) -> str | None:
    """Why ``h`` is not in row Hermite form, or None.

    Row-style upper echelon, zero rows last, positive pivots, and entries
    above each pivot reduced into ``[0, pivot)``.
    """
    last = -1
    seen_zero = False
    for i, row in enumerate(h):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            seen_zero = True
            continue
        if seen_zero:
            return f"nonzero row {i} after a zero row"
        if c <= last:
            return f"row {i} pivot column {c} not right of {last}"
        if row[c] <= 0:
            return f"row {i} pivot {row[c]} not positive"
        for k in range(i):
            if not 0 <= h[k][c] < row[c]:
                return f"entry ({k},{c}) not reduced modulo pivot {row[c]}"
        last = c
    return None


def check_hermite(a, h, u) -> str | None:
    if matmul(u, a) != h:
        return "U.A != H"
    if abs(det(u)) != 1:
        return "|det U| != 1"
    return hnf_shape_error(h)


def check_smith(a, u, d, v, factors) -> str | None:
    if matmul(matmul(u, a), v) != d:
        return "U.A.V != D"
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        return "U or V is not unimodular"
    diag = []
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j and x:
                return f"D has an off-diagonal entry at ({i},{j})"
            if i == j:
                diag.append(x)
    nonzero = [x for x in diag if x]
    if any(x < 0 for x in diag) or diag[: len(nonzero)] != nonzero:
        return "D diagonal is not nonnegative with zeros last"
    if any(b % a_ for a_, b in zip(nonzero, nonzero[1:])):
        return "D diagonal is not a divisibility chain"
    if tuple(nonzero) != tuple(factors):
        return "invariant_factors differ from the diagonal of D"
    return None


def check_kernel(a, k) -> str | None:
    """``A.K^T == 0`` and ``rows(K) == cols - rank(A)`` for independent rows.

    Rank over GF(p) never exceeds rank over Q, and independent kernel
    vectors bound the rank from above, so agreement certifies both exactly.
    """
    cols = len(a[0])
    if any(len(row) != cols for row in k):
        return "kernel basis has the wrong width"
    if k and any(any(row) for row in matmul(a, transpose(k))):
        return "A.K^T != 0"
    if k and rank_mod(k) != len(k):
        return "kernel basis rows are dependent"
    if rank_mod(a) + len(k) != cols:
        return f"rows(K) = {len(k)} but cols - rank = {cols - rank_mod(a)}"
    return hnf_shape_error(k)


def check_charpoly(a, coeffs) -> str | None:
    n = len(a)
    if len(coeffs) != n + 1 or coeffs[n] != 1:
        return "wrong degree or leading coefficient"
    if coeffs[n - 1] != -sum(a[i][i] for i in range(n)):
        return "t^(n-1) coefficient is not -trace"
    if [c % PRIME for c in coeffs] != charpoly_mod(a):
        return "differs from the Hessenberg characteristic polynomial mod p"
    return None


# ---------------------------------------------------------------------------
# permutation groups and Shapiro's lemma


def compose(a, b) -> tuple[int, ...]:
    """``a o b``: apply ``b`` first."""
    return tuple(a[x] for x in b)


def closure(gens) -> list[tuple[int, ...]]:
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    out = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                if y not in seen:
                    seen.add(y)
                    out.append(y)
                    new.append(y)
        frontier = new
    return out


def cycles(perm) -> list[list[int]]:
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = perm[x]
        out.append(cyc)
    return out


def sign(perm) -> int:
    return -1 if sum(len(c) - 1 for c in cycles(perm)) % 2 else 1


class PermModule:
    """Z^points with a permutation group acting through its action on points.

    ``points`` lists the basis labels; ``act(g, x)`` moves a label by a
    permutation ``g`` of ``range(degree)``.  With ``signed`` the basis
    vectors also pick up ``sign(g)``: that is Ind_{G_x}^G Z_sgn on each
    orbit, the sign-twisted permutation module.
    """

    def __init__(self, degree: int, on_pairs: bool, signed: bool):
        self.degree = degree
        self.signed = signed
        if on_pairs:
            self.points = [(i, j) for i in range(degree) for j in range(i + 1, degree)]
        else:
            self.points = [(i,) for i in range(degree)]
        self.index = {p: k for k, p in enumerate(self.points)}

    @property
    def rank(self) -> int:
        return len(self.points)

    def basis_perm(self, g) -> tuple[int, ...]:
        return tuple(self.index[tuple(sorted(g[x] for x in p))] for p in self.points)

    def matrix(self, g) -> list[list[int]]:
        s = sign(g) if self.signed else 1
        bp = self.basis_perm(g)
        m = [[0] * self.rank for _ in range(self.rank)]
        for i in range(self.rank):
            m[bp[i]][i] = s
        return m

    def cohomology(self, elements) -> tuple[int, tuple[int, ...]]:
        """``(rank M^G, invariant factors of H^1)`` by Shapiro's lemma.

        M splits over the orbits of G on the basis as Ind_{G_x}^G Z_chi with
        chi the sign restricted to the stabiliser G_x.  Each orbit gives
        H^0 = Z and H^1 = Hom(G_x, Z) = 0 when chi is trivial, and H^0 = 0
        and H^1 = Z/2 when it is not.
        """
        h0 = 0
        twos = 0
        seen = set()
        for x in range(self.rank):
            if x in seen:
                continue
            orbit = {self.basis_perm(g)[x] for g in elements}
            seen |= orbit
            twisted = self.signed and any(
                self.basis_perm(g)[x] == x and sign(g) == -1 for g in elements
            )
            if twisted:
                twos += 1
            else:
                h0 += 1
        return h0, (2,) * twos


def cyclic_subgroups(elements) -> list[list[tuple[int, ...]]]:
    """Distinct cyclic subgroups, each as the list of powers of a generator."""
    seen = set()
    out = []
    for g in elements:
        powers = [tuple(range(len(g)))]
        while True:
            nxt = compose(powers[-1], g)
            if nxt == powers[0]:
                break
            powers.append(nxt)
        key = frozenset(powers)
        if key not in seen:
            seen.add(key)
            out.append(powers)
    return out
