"""Picard lattices of rational surfaces and the prime-order actions on them.

The lattice of a degree-d del Pezzo surface (1 <= d <= 6) is Z^(1,9-d) with
basis H, E_1, ..., E_{9-d}, intersection form diag(1, -1, ..., -1) and
canonical class K = -3H + sum(E_i), so K.K = d.  The orthogonal complement
Q = K^perp is a negative-definite root lattice (E8, E7, E6 for d = 1, 2, 3)
whose roots alpha (alpha.alpha = -2, alpha.K = 0) generate the Weyl group by
the reflections x -> x + (x.alpha) alpha.

This module constructs:

* the Geiser and Bertini involutions on degrees 2 and 1, the isometries
  fixing K that act as -1 on Q;
* the rank-(2g+4) lattice of a genus-g conic bundle together with the
  involution swapping the components of its 2g+2 degenerate fibers;
* by seeded random search in the Weyl group, isometries of prime order p
  whose characteristic polynomial on Q is a pure power of the p-th
  cyclotomic polynomial (equivalently: no invariant vectors in Q);
* a verification harness checking H^1(G, Pic) = (Z/p)^(2g) case by case,
  along with the order bookkeeping that links H^1(G, Q) and H^1(G, Pic).

Each fact about an action built here is checked once.  :class:`GLattice`
checks unimodularity and the form, as for a user's document, an involution
by its square with no determinant; the cyclic spec keeps the order that
square proves, or finds any other by ``matrix_order``, and a row reads it
as ``group_order``; fixing K, the fixed ranks, H^1 and ``det gram`` are
checked by the row, and ``charpoly_order`` refuses an action moving K, as
its formula reads the Pic matrix.  Matrices written here skip the per-entry
check (their arguments are checked up front); a conic bundle's Q action is a
leading block of its Pic lattice, with its checks (``leading_block``).
"""

from __future__ import annotations

import random
from functools import cache, cached_property
from math import gcd
from operator import mul
from typing import NamedTuple

from ._record import Record
from .cohomology import Cyclic, GLattice, _require_int, _sub_order, h1_cyclic, invariants_h0, leading_block
from .intlinalg import (
    FinAbGroup,
    IntMatrix,
    _is_prime,
    char_poly,
    express_in_row_basis,
    kernel_basis,
    poly_pow,
    poly_str,
)

__all__ = [
    "ConicBundlePic",
    "ConstructionError",
    "PicardLattice",
    "QLattice",
    "RowReport",
    "SearchExhausted",
    "WeylSearchConfig",
    "bertini_involution",
    "charpoly_order",
    "dejonquieres",
    "del_pezzo_pic",
    "geiser_involution",
    "q_sublattice",
    "reflection",
    "restrict_action",
    "roots",
    "verify_row",
    "weyl_search",
]


class SearchExhausted(RuntimeError):
    """The randomized Weyl search ran out of trials without a hit."""


class ConstructionError(RuntimeError):
    """A lattice or action built here lacks a property it has by construction."""


def restrict_action(action: IntMatrix, basis: IntMatrix) -> IntMatrix:
    """Matrix of ``action`` on the sublattice spanned by the basis rows.

    The sublattice must be invariant; the result acts on column vectors of
    coordinates relative to ``basis``.
    """
    return express_in_row_basis(basis, basis @ action.transpose()).transpose()


# ---------------------------------------------------------------------------
# del Pezzo Picard lattices


class PicardLattice(NamedTuple):
    """Z^(1,9-d) with the canonical class of a degree-d del Pezzo surface."""

    degree: int
    rank: int
    gram: IntMatrix
    k: tuple[int, ...]

    def dot(self, u, v) -> int:
        return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))

    def k_column(self) -> IntMatrix:
        return IntMatrix([self.k]).transpose()


def del_pezzo_pic(d: int) -> PicardLattice:
    """Picard lattice of a degree-d del Pezzo surface; needs 1 <= d <= 6.

    Degrees above 6 leave no room for the simple root H - E1 - E2 - E3, and
    none of the prime-order actions of interest live there.
    """
    _require_int(d, "degree")
    if not 1 <= d <= 6:
        raise ValueError(f"degree must be between 1 and 6, got {d}")
    rank = 10 - d
    gram = IntMatrix.diagonal([1] + [-1] * (rank - 1))
    k = (-3,) + (1,) * (rank - 1)
    lat = PicardLattice(degree=d, rank=rank, gram=gram, k=k)
    if lat.dot(k, k) != d:
        raise ConstructionError(f"K.K = {lat.dot(k, k)}, expected the degree {d}")
    return lat


class QLattice(NamedTuple):
    """Saturated orthogonal complement of K inside a Picard lattice."""

    parent: PicardLattice
    basis: IntMatrix
    gram_q: IntMatrix

    @property
    def rank(self) -> int:
        return self.basis.rows


def q_sublattice(p: PicardLattice) -> QLattice:
    """K^perp with its induced (negative definite) intersection form."""
    pairing = IntMatrix([p.k]) @ p.gram  # row vector x -> x.K
    basis = kernel_basis(pairing)
    gram_q = basis @ p.gram @ basis.transpose()
    if basis.rows != 9 - p.degree:
        raise ConstructionError(f"K^perp has rank {basis.rows}, expected {9 - p.degree}")
    neg = -gram_q
    for t in range(1, neg.rows + 1):
        minor = IntMatrix([row[:t] for row in list(neg)[:t]])
        if minor.det() <= 0:
            raise ConstructionError("induced form is not negative definite")
    return QLattice(parent=p, basis=basis, gram_q=gram_q)


def simple_roots(p: PicardLattice) -> list[tuple[int, ...]]:
    """H - E1 - E2 - E3 followed by the differences E_i - E_{i+1}."""
    n = p.rank
    out = [(1, -1, -1, -1) + (0,) * (n - 4)]
    for i in range(1, n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        out.append(tuple(v))
    return out


class RootSystem(Record):
    """The roots of a degree-d del Pezzo lattice, with its Weyl group acting on them.

    ``roots`` is sorted.  ``reflections[i]`` is the reflection in
    ``roots[i]`` as a permutation of the roots: a 256-byte table whose entry
    j is the index of the image of ``roots[j]``, padded with the identity
    (there are at most 240 roots).  ``a.translate(b)`` is then a followed
    by b.  ``simple[k]`` is the index of the k-th simple root, and
    ``coords[i]`` are the coordinates of ``roots[i]`` in the simple roots.
    """

    _fields = ("lattice", "roots", "simple", "coords", "reflections")

    def __init__(self, lattice: PicardLattice, roots: tuple[tuple[int, ...], ...], simple: tuple[int, ...],
                 coords: tuple[tuple[int, ...], ...], reflections: tuple[bytes, ...]) -> None:
        vars(self).update(lattice=lattice, roots=roots, simple=simple, coords=coords, reflections=reflections)

    @cached_property
    def q(self) -> QLattice:
        """K^perp, built on first use: the Weyl search never reads it."""
        return q_sublattice(self.lattice)


@cache
def root_system(d: int) -> RootSystem:
    """The root system of the degree-d del Pezzo lattice, built once per process.

    Every root is conjugate to a simple one under the Weyl group, so the
    orbit of the simple roots under the simple reflections is the whole
    system.  It is found breadth first, and each simple reflection's image
    of every root is kept.  A root first reached as ``s_k x`` has the
    coordinates of ``x`` plus ``x.alpha_k`` in place k, and the reflection
    ``s_k s_x s_k``: two translates of tables already built.
    """
    lat = del_pezzo_pic(d)
    simples = simple_roots(lat)
    n = len(simples)
    found = list(simples)
    where = {x: i for i, x in enumerate(found)}
    coords = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    reached_by: list[tuple[int, int]] = []  # entry t is (k, i) when found[n + t] is s_k found[i]
    images: list[list[int]] = [[] for _ in simples]  # images[k][i]: the index of s_k found[i]
    pairings = list(IntMatrix(simples) @ lat.gram)  # row k: x -> x.alpha_k
    for i, x in enumerate(found):  # the list grows as it is read
        for k, (a, pairing) in enumerate(zip(simples, pairings)):
            c = sum(map(mul, x, pairing))
            if not c:  # s_k fixes x
                images[k].append(i)
                continue
            y = tuple([u + c * v for u, v in zip(x, a)])
            j = where.get(y)
            if j is None:
                j = where[y] = len(found)
                found.append(y)
                coords.append(coords[i][:k] + (coords[i][k] + c,) + coords[i][k + 1:])
                reached_by.append((k, i))
            images[k].append(j)
    order = sorted(range(len(found)), key=found.__getitem__)
    rank = [0] * len(found)
    for r, i in enumerate(order):
        rank[i] = r
    pad = bytes(range(len(found), 256))
    tables = [bytes([rank[image[i]] for i in order]) + pad for image in images]
    for k, i in reached_by:
        tables.append(tables[k].translate(tables[i]).translate(tables[k]))
    return RootSystem(
        lattice=lat,
        roots=tuple([found[i] for i in order]),
        simple=tuple(rank[:n]),
        coords=tuple([coords[i] for i in order]),
        reflections=tuple([tables[i] for i in order]),
    )


def roots(p: PicardLattice) -> list[tuple[int, ...]]:
    """All roots, sorted: the reflection closure of the simple roots."""
    return list(root_system(p.degree).roots)


def reflection(p: PicardLattice, alpha) -> IntMatrix:
    """Matrix of x -> x + (x.alpha) alpha; an involution fixing K.

    Entry (i, j) is delta_ij + alpha_i (e_j.alpha), where e_j.alpha is
    alpha_0 for j = 0 and -alpha_j otherwise.  Entries must be ``int``.
    """
    alpha = tuple(alpha)
    for x in alpha:
        if type(x) is not int:
            raise TypeError(f"integer entry required, got {x!r}")
    if len(alpha) != p.rank or p.dot(alpha, alpha) != -2 or p.dot(alpha, p.k) != 0:
        raise ValueError(f"not a root: {alpha}")
    pairing = (alpha[0],) + tuple([-a for a in alpha[1:]])  # e_j.alpha
    rows = tuple([tuple([int(i == j) + a * c for j, c in enumerate(pairing)]) for i, a in enumerate(alpha)])
    return IntMatrix._from_rows(rows, p.rank)


# ---------------------------------------------------------------------------
# the two involutions acting as -1 on Q


def _anti_q_involution(d: int, scale: int) -> GLattice:
    p = del_pezzo_pic(d)
    pair = IntMatrix([p.k]) @ p.gram  # x -> x.K as a row functional
    delta = IntMatrix(
        [[scale * p.k[i] * pair[0][j] - (1 if i == j else 0) for j in range(p.rank)]
         for i in range(p.rank)]
    )
    return GLattice(rank=p.rank, group=Cyclic(delta), form=p.gram)


def geiser_involution() -> GLattice:
    """x -> (x.K)K - x on the degree-2 lattice: fixes K, is -1 on Q."""
    return _anti_q_involution(2, 1)


def bertini_involution() -> GLattice:
    """x -> 2(x.K)K - x on the degree-1 lattice: fixes K, is -1 on Q."""
    return _anti_q_involution(1, 2)


# ---------------------------------------------------------------------------
# conic bundles


class ConicBundlePic(Record):
    """Lattice of a genus-g conic bundle with its fiber-swapping involution.

    Basis: the fiber class F, one component F_i' of each of the 2g+2
    degenerate fibers, and a section class S.  The involution fixes F, sends
    F_i' to F - F_i', and extends to S as uniquely forced by preserving the
    intersection form with S.F_i' = 0.
    """

    _fields = ("genus", "rank", "gram", "delta", "section_square")

    def __init__(self, genus: int, rank: int, gram: IntMatrix, delta: IntMatrix, section_square: int) -> None:
        vars(self).update(genus=genus, rank=rank, gram=gram, delta=delta, section_square=section_square)

    @property
    def labels(self) -> tuple[str, ...]:
        return ("F",) + tuple(f"F{i}'" for i in range(1, 2 * self.genus + 3)) + ("S",)

    def k_vector(self) -> tuple[int, ...]:
        """Canonical class (S^2 - 2)F + sum(F_i') - 2S, from adjunction: K.F = -2, K.F_i' = -1, K.S + S^2 = -2."""
        return (self.section_square - 2,) + (1,) * (2 * self.genus + 2) + (-2,)

    def pic_glattice(self) -> GLattice:
        """The involution on Pic, built and checked once per bundle."""
        return self._pic

    @cached_property
    def _pic(self) -> GLattice:
        return GLattice(rank=self.rank, group=Cyclic(self.delta), form=self.gram)

    def q_glattice(self) -> GLattice:
        """The leading blocks of ``delta`` and ``gram``, on F and the F_i'.

        Their span is invariant when the S row of ``delta`` is zero on it;
        the block takes what the Pic lattice has passed (``leading_block``).
        """
        n = 2 * self.genus + 3
        if any(self.delta[n][:n]):
            raise ConstructionError("the span of F and the F_i' is not invariant under the involution")
        return leading_block(self.pic_glattice(), n)


def dejonquieres(g: int, section_square: int = -1) -> ConicBundlePic:
    """Genus-g conic-bundle lattice with its component-swapping involution.

    ``section_square`` selects the self-intersection of the section class
    used to complete the span of F and the F_i' to a unimodular lattice; the
    involution's matrix is the same for every choice, and downstream
    cohomology does not depend on it.
    """
    if isinstance(g, bool) or not isinstance(g, int):
        raise TypeError(f"genus must be an integer, got {g!r}")
    if isinstance(section_square, bool) or not isinstance(section_square, int):
        raise TypeError(f"integer entry required, got {section_square!r}")
    if g < 1:
        raise ValueError(f"genus must be at least 1, got {g}")
    m, n = 2 * g + 2, 2 * g + 4  # the F_i', the rank
    minus = [(0,) * i + (-1,) + (0,) * (m - i - 1) for i in range(m)]  # -F_i' in the F_i' coordinates
    # columns: F is fixed, F_i' -> F - F_i', S -> (g+1) F - sum(F_i') + S
    delta = ((1,) * (m + 1) + (g + 1,), *[(0,) + r + (-1,) for r in minus], (0,) * (m + 1) + (1,))
    gram = ((0,) * (m + 1) + (1,), *[(0,) + r + (0,) for r in minus], (1,) + (0,) * m + (section_square,))
    gram, delta = IntMatrix._from_rows(gram, n), IntMatrix._from_rows(delta, n)
    return ConicBundlePic(genus=g, rank=n, gram=gram, delta=delta, section_square=section_square)


# ---------------------------------------------------------------------------
# randomized Weyl search


class WeylSearchConfig(Record):
    __slots__ = _fields = ("seed", "max_trials")

    def __init__(self, seed: int = 0, max_trials: int = 1_000_000) -> None:
        for name, value in zip(self._fields, (seed, max_trials)):
            _require_int(value, name)  # None seeds from the OS, a bool counts as 0 or 1, a float fails in randrange
        if max_trials < 1:
            raise ValueError("max_trials must be at least 1")
        self._set("seed", seed)
        self._set("max_trials", max_trials)


# the shortest and longest words a search trial draws
_WORD_MIN, _WORD_MAX = 2, 16

# no Weyl group element has order above this; used to cap order detection
_MAX_WEYL_ORDER = 60


def weyl_search(d: int, p: int, cfg: WeylSearchConfig | None = None) -> GLattice:
    """Find an order-p isometry of Pic with char polynomial Phi_p^s on Q, s = (9 - d)/(p - 1).

    Each trial draws a word of random length from 2 to 16 over
    uniformly sampled roots and multiplies the reflections.  When p divides
    the order of the product, the trial tests its (order/p)-th power, an
    element of order exactly p; it succeeds when that power, restricted to
    Q, has characteristic polynomial (t^(p-1) + ... + 1)^s, i.e. no
    invariant vectors in Q.  Taking the power part is what makes the search
    practical: words rarely land in the target class directly, but words of
    order divisible by p are plentiful.

    A trial forms no matrix.  The roots span Q, so the Weyl group acts
    faithfully on them, and an element is known by its permutation of the
    roots (``root_system``).  There are at most 240 roots, so a permutation
    is a 256-byte table and a product is one ``bytes.translate`` in C; the
    order is found by powering the word's table.  Only a power u of order
    p is tested, by the trace of its matrix in the simple roots: column j
    is the coordinate vector of the root u sends the j-th simple root to.
    The simple roots are a basis of Q over the rationals, so this matrix is
    similar over Q to u's matrix on the basis of Q.  Its trace decides the
    test: u has order p, so its char poly on Q is (t - 1)^b Phi_p^a with
    b + (p - 1) a = 9 - d and trace b - a, which fix a and b.  The accepted
    u's matrix M on Pic is then read off the same permutation: with B the
    matrix whose columns are the simple roots and then K (|det B| = d), and
    B' the matrix of their images under u (u fixes K), M is the unique
    integer solution of M B = B'.

    Deterministic for a fixed seed.  Raises :class:`SearchExhausted` after
    max_trials misses; parameter errors are ordinary ValueErrors or TypeErrors.
    """
    system = root_system(d)  # refuses a degree outside 1..6 first
    lat = system.lattice
    if p - 1 <= 9 - d and not _is_prime(p):  # a larger p is refused below without trial division
        raise ValueError(f"p must be prime, got {p}")
    if p - 1 > 9 - d or (9 - d) % (p - 1) != 0:
        raise ValueError(f"(9-d) = {9 - d} is not divisible by (p-1) = {p - 1}")
    s = (9 - d) // (p - 1)
    if cfg is None:
        cfg = WeylSearchConfig()

    target_trace = -s  # s copies of the primitive p-th roots of unity summed: b = 0, a = s
    tables = system.reflections
    coords = system.coords
    simple = system.simple
    # columns: the simple roots and then K, and below their images under the accepted element
    basis = IntMatrix._from_rows(tuple(zip(*[system.roots[r] for r in simple], lat.k)), lat.rank)
    rng = random.Random(cfg.seed)
    nroots = len(tables)
    ident = bytes(range(256))

    for _ in range(cfg.max_trials):
        length = rng.randint(_WORD_MIN, _WORD_MAX)
        word = [rng.randrange(nroots) for _ in range(length)]
        w = tables[word[-1]]
        for idx in reversed(word[:-1]):  # the word acts on a root from its right end
            w = w.translate(tables[idx])
        powers = [ident]
        cur = w
        while cur != ident and len(powers) <= _MAX_WEYL_ORDER:
            powers.append(cur)
            cur = cur.translate(w)
        order = len(powers)
        if cur != ident or order % p != 0:
            continue
        u = powers[order // p]
        if sum([coords[u[r]][j] for j, r in enumerate(simple)]) != target_trace:
            continue
        images = IntMatrix._from_rows(tuple(zip(*[system.roots[u[r]] for r in simple], lat.k)), lat.rank)
        found = express_in_row_basis(basis, images)  # found @ basis == images
        return GLattice(rank=lat.rank, group=Cyclic(found), form=lat.gram)
    raise SearchExhausted(
        f"no order-{p} isometry with Q-char-polynomial {poly_str(poly_pow((1,) * p, s))} "
        f"found in {cfg.max_trials} trials (seed {cfg.seed})"
    )


# ---------------------------------------------------------------------------
# the order formula and the verification harness


def charpoly_order(m: GLattice) -> int:
    """Predicted order of H^1 from the Q-characteristic polynomial.

    For a cyclic prime-order action on a del Pezzo Picard lattice that fixes
    K, with fixed sublattice spanned by K alone, the order of H^1(G, Pic)
    equals |chi(1)| / d where chi is the characteristic polynomial of the
    generator on Q = K^perp and d the degree.  As K.K = d is nonzero, chi_Pic
    = (t - 1) chi, so chi(1) = chi_Pic'(1): for an element of finite order it
    is nonzero exactly when the fixed sublattice has rank 1.
    """
    if not isinstance(m.group, Cyclic):
        raise ValueError("charpoly_order needs a cyclic action")
    d = 10 - m.rank
    lat = del_pezzo_pic(d)  # rejects ranks outside the del Pezzo range
    if m.form != lat.gram:
        raise ValueError("the lattice does not carry the del Pezzo intersection form")
    n = m.group._order
    if not _is_prime(n):
        raise ValueError(f"the generator must have prime order, got {n}")
    if m.group.generator @ lat.k_column() != lat.k_column():
        raise ValueError("the generator does not fix K, the canonical class")
    # chi(1) = chi_Pic'(1) read from the Pic matrix, with no restriction to Q
    value = abs(sum(i * c for i, c in enumerate(char_poly(m.group.generator))))
    if value == 0:
        raise ValueError(f"fixed sublattice has rank {invariants_h0(m).rows}, expected 1")
    if value % d != 0:
        raise ValueError(f"|chi(1)| = {value} is not divisible by the degree {d}")
    return value // d


# case -> (p, genus of the fixed curve, degree K^2), in the verify table's row order
CASE_PARAMS = {
    "geiser": (2, 3, 2),
    "bertini": (2, 4, 1),
    "dp3-p3": (3, 1, 3),
    "dp1-p3": (3, 2, 1),
    "dp1-p5": (5, 1, 1),
}
DEL_PEZZO_CASES = tuple(CASE_PARAMS)

CASE_MODELS = {
    "geiser": "del Pezzo, Geiser involution",
    "bertini": "del Pezzo, Bertini involution",
    "dp3-p3": "del Pezzo, order 3 on degree 3",
    "dp1-p3": "del Pezzo, order 3 on degree 1",
    "dp1-p5": "del Pezzo, order 5 on degree 1",
}


def build_case(case: str, cfg: WeylSearchConfig | None = None) -> GLattice:
    """The Picard action behind a named del Pezzo table case."""
    if case == "geiser":
        return geiser_involution()
    if case == "bertini":
        return bertini_involution()
    if case in CASE_PARAMS:
        p, _, d = CASE_PARAMS[case]
        return weyl_search(d, p, cfg=cfg)
    raise ValueError(f"unknown case {case!r}")


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


class RowReport(NamedTuple):
    """Verification outcome for one table case, with per-check certificates."""

    case: str
    p: int
    g: int
    k2: int
    model: str
    h1_pic: FinAbGroup
    h1_q: FinAbGroup | None  # None when the generator moves K, so that K^perp is not invariant
    h0_rank: int
    predicted_h1_order: int | None
    generator: IntMatrix
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, ok: bool, detail: str) -> Check:
    return Check(name=name, passed=bool(ok), detail=detail)


def _verify_del_pezzo(case: str, cfg: WeylSearchConfig | None) -> RowReport:
    p, g, d = CASE_PARAMS[case]
    m = build_case(case, cfg)
    system = root_system(d)
    lat = system.lattice
    delta = m.group.generator
    res = h1_cyclic(m)
    expected = FinAbGroup((p,) * (2 * g))
    fixes_k = delta @ lat.k_column() == lat.k_column()
    h1_q = predicted = None
    checks = [
        _check(
            "H^1(Pic) = (Z/p)^2g",
            res.h1 == expected,
            f"computed {res.h1}, expected {expected}",
        ),
    ]
    if fixes_k:  # K^perp and the order formula need an action that fixes K
        # delta fixes K, so it restricts to K^perp unimodular and preserving the induced form: m has checked it;
        # the restriction's order divides delta's prime order, so it is 1 or p by one identity test
        q = system.q
        gq = restrict_action(delta, q.basis)
        mq = GLattice(q.rank, Cyclic(gq)._keep(q.gram_q, order=_sub_order(gq, m.group._order)), q.gram_q)
        h1_q = h1_cyclic(mq).h1
        predicted = charpoly_order(m)
        checks += [
            _check(
                "|H^1(Q)| = d * |H^1(Pic)|",
                h1_q.order() == d * res.h1.order(),
                f"|H^1(Q)| = {h1_q.order()}, d * |H^1(Pic)| = {d * res.h1.order()}",
            ),
            _check(
                "char-poly order formula",
                predicted == res.h1.order(),
                f"|chi(1)|/d = {predicted}, |H^1(Pic)| = {res.h1.order()}",
            ),
        ]
    j = 1 if d == p else 0
    count = (9 - d) // (p - 1) - j
    order = res.group_order
    checks += [
        _check(
            "invariant-factor count = (9-d)/(p-1) - j",
            len(res.h1.invariant_factors) == count,
            f"count {len(res.h1.invariant_factors)}, formula gives {count}",
        ),
        _check(
            "generator has order p and fixes K",
            order == p and fixes_k,
            f"order {order}" if fixes_k else f"order {order}, moves K",
        ),
        _check(
            "fixed sublattice has rank 1",
            res.h0_rank == 1,
            f"rank {res.h0_rank}",
        ),
        _check(
            "generator preserves the intersection form",
            m.form == lat.gram,  # GLattice has checked g^T.form.g = form
            "checked g^T.gram.g = gram",
        ),
    ]
    return RowReport(
        case=case,
        p=p,
        g=g,
        k2=d,
        model=CASE_MODELS[case],
        h1_pic=res.h1,
        h1_q=h1_q,
        h0_rank=res.h0_rank,
        predicted_h1_order=predicted,
        generator=delta,
        checks=tuple(checks),
    )


def _verify_conic_bundle(g: int) -> RowReport:
    cb = dejonquieres(g)
    m = cb.pic_glattice()
    res = h1_cyclic(m)
    resq = h1_cyclic(cb.q_glattice())
    expected = FinAbGroup((2,) * (2 * g))
    expected_q = FinAbGroup((2,) * (2 * g + 1))
    fixed = invariants_h0(m)
    # pairing v -> v.F over the fixed sublattice; F is the first basis vector
    pair = cb.gram.column(0)
    values = [sum(map(mul, v, pair)) for v in fixed]
    image_gcd = gcd(*values)
    gram_det = cb.gram.det()
    checks = (
        _check(
            "H^1(Pic) = (Z/2)^2g",
            res.h1 == expected,
            f"computed {res.h1}, expected {expected}",
        ),
        _check(
            "H^1(Q) = (Z/2)^(2g+1)",
            resq.h1 == expected_q,
            f"computed {resq.h1}, expected {expected_q}",
        ),
        _check(
            "fixed sublattice has rank 2",
            fixed.rows == 2,
            f"rank {fixed.rows}",
        ),
        _check(
            "pairing with F over Pic^G generates 2Z",
            image_gcd == 2,
            f"values {values} generate {image_gcd}Z",
        ),
        _check(
            "involution squares to the identity",
            res.group_order == 2,
            "delta^2 = 1",
        ),
        _check(
            "lattice is unimodular and the form is preserved",
            gram_det in (1, -1),  # GLattice has checked delta^T.gram.delta = gram
            f"|det gram| = {abs(gram_det)}",
        ),
    )
    return RowReport(
        case=f"dejonquieres-g{g}",
        p=2,
        g=g,
        k2=6 - 2 * g,
        model="conic bundle, de Jonquieres involution",
        h1_pic=res.h1,
        h1_q=resq.h1,
        h0_rank=res.h0_rank,
        predicted_h1_order=None,
        generator=cb.delta,
        checks=checks,
    )


def verify_row(case: str, genus: int | None = None, cfg: WeylSearchConfig | None = None) -> RowReport:
    """Verify one table case and return the report with its certificates.

    ``case`` is a key of ``CASE_PARAMS``, which takes no ``genus``, or
    ``dejonquieres``, which needs one.  An action :class:`GLattice` refuses
    (not unimodular or not form-preserving) raises ValidationError; every
    other failure is recorded check by check in the report.  The module docstring says where each fact
    is checked.
    """
    if case == "dejonquieres":
        if genus is None:
            raise ValueError("dejonquieres needs a genus")
        return _verify_conic_bundle(genus)
    if case in CASE_PARAMS:
        if genus is not None:
            raise ValueError(f"{case} takes no genus")
        return _verify_del_pezzo(case, cfg)
    raise ValueError(f"unknown case {case!r}")
