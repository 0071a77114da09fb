"""Finite group actions on integer lattices and their first cohomology.

A G-lattice is a free Z-module of finite rank on which a finite matrix group
acts by unimodular integer matrices (acting on column vectors).  The group
is given by a spec, ``Cyclic``, ``Explicit`` or ``Generated``, built from its
listed matrices and a bound on the group's size (``closure_bound``, default
10,000): the bound is part of the spec from its construction, every kind's
walk refuses a larger group, and specs that differ in it are unequal.

Group elements are found by one walk from the identity (``_closed_walk``):
by the powers of d for a ``cyclic`` spec <d>, breadth first by the listed
generators of a ``generated`` spec, and by greedy generators S picked in
list order for a ``list`` spec, whose every product must land in the list,
O(|G| * |S|) products rather than the |G|^2 of the full multiplication
table.  The walk multiplies no matrices.  It acts on Ω, a finite set of
vectors that spans Z^rank: the standard basis and the distinct columns of
a list, or a few orbits of basis vectors, grown smallest first until the
closed ones span (27, 56 and 240 points for the simple reflections of E6,
E7 and E8, where all the basis orbits hold 99, 632 and 17,520).  An
element is a permutation of Ω, known by its images of a few points that
write the basis; a product is one composition of permutations, done in C
in time linear in |Ω|, where an exact matrix product costs up to rank^3
Python-level multiply-adds.  The arithmetic left is one sparse
matrix-vector product per orbit point and generator, and an element's
matrix, built from its images only when read (``_Walk.element``):
``h1_cocycle`` reads none, ``obstruction_scan`` one per conjugacy class of
cyclic subgroups, and ``restrict_subgroup`` tests a matrix by its images of
Ω (``_Walk.contains``), building none.
Each spec keeps what its walk ended in (``_checked_walk``): a refusal, or the
permutations it reached and their composition (``_Walk.product``): a group
acting faithfully on Ω is its permutations (Seress, *Permutation Group
Algorithms*, ch. 4), and they are the only group structure used after the
closure.  An order is 1 or 2 when an element or its exact square is the
identity; any other comes from residues mod 3 and one exact confirmation
from that square: by Minkowski's lemma the kernel of GL_n(Z) -> GL_n(F_3)
is torsion-free, so a finite order equals the order mod 3, and an
infinite-order input is refused after a few cheap products on bit-packed
residue rows instead of ``bound`` growing exact ones.  A cyclic spec keeps
its generator's order, from which a sub-action's is read (``_sub_order``).
Its check forms the generator's square, which the order then starts from;
the square proves an involution g unimodular, as det(g)^2 = 1, and
form-preserving when F.g is symmetric, for a symmetric form F: no
determinant and one product (``GroupSpec._check``).  A list's walk raises
every list refusal; its check then takes determinants and form products of
the walk's greedy generators, or of every listed matrix if the walk refused.

H^1 has one kernel, ``_h1``, and needs no relators.  A crossed homomorphism
f(gh) = f(g) + g.f(h) is fixed by its values on generators s_1, ..., s_k,
so the cocycles Z^1 form a saturated lattice in Z^(k * rank); the
coboundaries f(s) = (s - 1)x span a sublattice B^1 of finite index, since
H^1 of a finite group is finite.  So Z^1 is the saturation of B^1, and
H^1 = Z^1/B^1 is the torsion of the cokernel of
B = [(s_1 - 1)^T | ... | (s_k - 1)^T].  For a prime order p, as in every
row of the paper's table, that is (Z/p)^(rank_Q B - rank_Fp B); any other
order takes one ``subquotient`` of Z^rank by the rows of B^T, a Hermite
elimination of its k * rank rows, then Smith on at most rank x rank
entries.  ``h1_cocycle`` takes the generators of the lattice's walk, which
for a generated lattice are its listed generators (a repeat or the
identity adds no rows, any other redundant one rank rows of B^T);
``h1_cyclic`` takes d for <d> and its order, walking nothing:
tors coker(d - 1) = ker(N)/eta(M) with N the norm and eta = 1 - d;
``obstruction_scan`` takes one generator per conjugacy class of cyclic
subgroups.  Either way the result is a :class:`FinAbGroup`; H^1 of a finite
group acting on a lattice is always finite and annihilated by the group
order, which is asserted on every run.

A :class:`GLattice` keeps nothing: its spec keeps what it has proved (the
forms it has passed, its walk and, when cyclic, its order), so
``h1_cocycle``, ``obstruction_scan`` and ``restrict_subgroup`` close a group
once however often they are called.  A lattice made from checked ones
(``leading_block``, ``direct_sum``, ``restrict_subgroup``) inherits those
facts through ``GroupSpec._keep`` and is not checked again; a direct sum
proves its pairing by one walk of its own, on permutations.  The rank of
M^G comes with each H^1 from the same ranks or subquotient; only
``invariants_h0`` computes a basis of M^G, from the listed matrices.

All inputs and outputs are immutable; every function here is pure and safe
for concurrent use.  What a spec keeps is filled idempotently: a value
computed twice by racing threads is the same value either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from math import gcd
from operator import itemgetter
from typing import Callable, Sequence

from .intlinalg import (
    FinAbGroup,
    IntMatrix,
    _is_prime,
    _rank_mod,
    hermite_form,
    kernel_basis,
    matmul_rows,
    subquotient,
)

__all__ = [
    "CohomologyResult",
    "Cyclic",
    "Explicit",
    "Generated",
    "GLattice",
    "GroupMismatch",
    "GroupSpec",
    "GroupTooLarge",
    "NotSubgroup",
    "ScanReport",
    "ValidationError",
    "direct_sum",
    "h1",
    "h1_cocycle",
    "h1_cyclic",
    "invariants_h0",
    "matrix_order",
    "mulclose",
    "obstruction_scan",
    "permutation_module",
    "restrict_subgroup",
    "validate_and_close",
]

DEFAULT_ORDER_BOUND = 10_000


class ValidationError(ValueError):
    """An action matrix violates the G-lattice invariants.

    When one listed matrix is at fault, ``index`` is its position and
    ``reason`` names its defect: ``"unimodular"`` or ``"form"``.
    """

    def __init__(self, message: str, index: int | None = None, reason: str | None = None):
        super().__init__(message)
        self.index, self.reason = index, reason


_DEFECTS = {"unimodular": "is not unimodular", "form": "does not preserve the bilinear form"}


class GroupTooLarge(ValueError):
    """Closure exceeded its bound: the group is too large or infinite."""


class GroupMismatch(ValueError):
    """Two G-lattices do not carry matching group data."""


class NotSubgroup(ValueError):
    """A supplied subset of group elements is not a subgroup."""


# ---------------------------------------------------------------------------
# group specifications


class GroupSpec:
    """A finite matrix group as presented: its listed matrices and the bound on its size.

    Every kind is built, compared and hashed here, on its listed matrices
    and its bound; a subclass says only how its kind is walked
    (``_walk_group``), and keeps what that walk ended in.
    """

    _walk: _Walk | ValueError | None = None  # the walk that proved the spec a group, or the refusal it ended in
    _square: IntMatrix | None = None  # a cyclic spec's generator's square, read by its check and then its order

    def __init__(self, matrices: Sequence[IntMatrix], closure_bound: int = DEFAULT_ORDER_BOUND):
        what = type(self).__name__
        self.matrices = tuple([m if isinstance(m, IntMatrix) else IntMatrix(m) for m in matrices])
        if not self.matrices:
            raise ValueError(f"{what} requires at least one matrix")
        n = self.size
        if any(not m.is_square or m.rows != n for m in self.matrices):
            raise ValidationError(f"{what}: matrices must all be square of the same size")
        _require_int(closure_bound, "closure bound")
        if closure_bound < 1:
            raise ValueError("closure bound must be positive")
        self.closure_bound = closure_bound

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.matrices == other.matrices
            and self.closure_bound == other.closure_bound
        )

    def __hash__(self):
        return hash((type(self).__name__, self.matrices, self.closure_bound))

    def __repr__(self):
        return f"{type(self).__name__}({self.matrices!r}, closure_bound={self.closure_bound})"

    @property
    def size(self) -> int:
        """Matrix dimension (the lattice rank the spec acts on)."""
        return self.matrices[0].rows

    def _walk_group(self) -> _Walk:
        """The walk that proves the spec a group of at most ``closure_bound`` elements."""
        raise NotImplementedError

    def _checked_walk(self) -> _Walk:
        """The walk within ``closure_bound``, taken once per spec: the spec keeps the walk or the refusal
        (ValidationError or GroupTooLarge) it ended in, and raises that refusal again at every later use."""
        if self._walk is None:
            try:
                self._walk = self._walk_group()
            except (ValidationError, GroupTooLarge) as e:
                self._walk = e
        if isinstance(self._walk, ValueError):
            raise self._walk.with_traceback(None)
        return self._walk

    def _check(self, form: IntMatrix | None) -> None:
        """Raise ValidationError unless every listed matrix is unimodular and preserves ``form``, naming the first
        defective one; a spec keeps the forms it has passed, so each is checked once.  One pass, in list order,
        reads the matrices whose products are all the listed ones (``_generating``: a list's greedy generators),
        or else every listed matrix.  The first defective listed matrix is always a greedy generator: any other
        member is a product of the greedy generators listed before it, so it is sound when they are."""
        passed = self.__dict__.setdefault("_passed", set())
        if form in passed:
            return
        gens = self._generating()
        for g in self.matrices if gens is None else gens:
            reason = self._defect(g, form)
            if reason is not None:
                i = self.matrices.index(g)
                raise ValidationError(f"matrix {i} {_DEFECTS[reason]}", i, reason)
        passed.add(form)

    def _generating(self) -> tuple[IntMatrix, ...] | None:
        """Matrices whose products are all the listed ones, known before the check; only a list has them."""
        return None

    def _defect(self, g: IntMatrix, form: IntMatrix | None) -> str | None:
        """``"unimodular"`` or ``"form"`` when the listed ``g`` fails that check, else None.  An involution g
        has det(g)^2 = 1 and, being its own inverse, preserves a symmetric F exactly when F.g is symmetric:
        one product and no determinant, where any other matrix or form takes a determinant and g^T.F.g."""
        square = self._square  # None unless the spec is cyclic, whose one listed matrix it squares
        involution = square is not None and _is_identity(square) and (form is None or _is_symmetric(form))
        if not involution and not g.is_unimodular():
            return "unimodular"
        if form is not None and not (_is_symmetric(form @ g) if involution else g.transpose() @ form @ g == form):
            return "form"
        return None

    def _keep(self, form: IntMatrix | None, walk: _Walk | None = None, order: int | None = None) -> GroupSpec:
        """Mark a spec built from checked ones as preserving ``form``, and as walked by ``walk``
        or of ``order`` when those are known: the one place a derived spec inherits what was proved."""
        self._passed, self._walk = {None, form}, walk
        if order is not None:
            self._order = order
        return self


class Cyclic(GroupSpec):
    """Cyclic group presented by a single generator of finite order, checked and ordered from its square."""

    def __init__(self, generator, closure_bound: int = DEFAULT_ORDER_BOUND):
        super().__init__([generator], closure_bound)

    @property
    def generator(self) -> IntMatrix:
        return self.matrices[0]

    @cached_property
    def _square(self) -> IntMatrix:
        """The generator's square, formed by the check and held until the order is read from it."""
        return self.generator @ self.generator

    @cached_property
    def _order(self) -> int:
        """The generator's order within ``closure_bound``, found once per spec, from its square if formed."""
        return matrix_order(self.generator, self.closure_bound, self.__dict__.pop("_square", None))

    def _walk_group(self) -> _Walk:
        """The walk of the powers 1, d, ..., d^(n-1) of the generator d, after its order n, d^k walked as k."""
        powers, n = mulclose([self.generator], self._order), self._order
        return _Walk(powers.__getitem__, powers.__contains__, (self.generator,), (1 % n,), range(n),
                     lambda a, b: (a + b) % n)


class Explicit(GroupSpec):
    """Full element list, closed under product and containing the identity: its walk by greedy
    generators (``_closed_walk``) proves it a group or refuses it, and the spec keeps either."""

    @property
    def elements(self) -> tuple[IntMatrix, ...]:
        return self.matrices

    def _generating(self) -> tuple[IntMatrix, ...] | None:
        """The greedy generators of the list's walk, of which every listed matrix is a product, or None when the
        list is no group: the spec keeps that refusal and raises it at first use, after any listed matrix's defect."""
        try:
            return self._checked_walk().gens
        except (ValidationError, GroupTooLarge):
            return None

    def _walk_group(self) -> _Walk:
        """The walk by greedy generators that proves the list a group, or raises why it is none."""
        return _closed_walk((), self.elements, bound=self.closure_bound)


class Generated(GroupSpec):
    """Group given by generators; closed by multiplication on demand."""

    @property
    def generators(self) -> tuple[IntMatrix, ...]:
        return self.matrices

    def _walk_group(self) -> _Walk:
        """The breadth-first walk by the listed generators, after each one's order."""
        bound = self.closure_bound
        try:
            for g in self.generators:  # the closure holds every power of g
                matrix_order(g, bound)
        except GroupTooLarge:
            raise GroupTooLarge(f"group too large or infinite: closure exceeds {bound}") from None
        return _closed_walk(self.generators, bound=bound)


def matrix_order(g: IntMatrix, bound: int = DEFAULT_ORDER_BOUND, square: IntMatrix | None = None) -> int:
    """Multiplicative order of ``g``; error if it exceeds ``bound``.

    The identity has order 1 and g with g^2 == I order 2.  Any other
    candidate ``k`` is the order of ``g`` mod 3 (``_order_mod3``), and
    ``g^k == I`` is confirmed exactly by binary powering from that square.
    By Minkowski's lemma a finite order equals the order mod 3, so a failed
    confirmation proves it infinite.  A given ``square`` must be g^2 (a
    cyclic spec's check forms it).  Cost: no product for the identity, and
    for an involution one, the square, unless given; otherwise min(k, bound)
    packed products of O(nonzeros of g) operations on rank-bit ints, plus
    the square and at most 2 log2(k) - 1 more exact ones (one for order 3).
    """
    _require_int(bound, "order bound")
    if not g.is_square:
        raise ValueError("order of a non-square matrix")
    if bound >= 1 and _is_identity(g):
        return 1
    if square is None:
        square = g @ g
    if bound >= 2 and _is_identity(square):
        return 2
    k = _order_mod3(g, bound)
    if not _is_identity(_power(g, k, square)):
        raise GroupTooLarge(f"group too large or infinite: order exceeds {bound}")
    return k


def _require_int(value, what: str) -> None:
    """Refuse a size or bound that is not an int: a walk never meets a float bound, and a bool reads as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")


def _is_identity(m: IntMatrix) -> bool:
    """Whether the square matrix ``m`` is the identity, with no identity built to compare."""
    return all(row[i] == 1 and row.count(0) == len(row) - 1 for i, row in enumerate(m))


def _is_symmetric(m: IntMatrix) -> bool:
    """Whether the square matrix ``m`` equals its transpose, with no transpose built."""
    return all(row == col for row, col in zip(m, zip(*m)))


def _power(g: IntMatrix, k: int, square: IntMatrix | None = None) -> IntMatrix:
    """``g^k`` for ``k >= 1`` by binary powering: at most 2 log2(k) products, one fewer given ``square`` = g^2."""
    power = g
    for bit in bin(k)[3:]:
        power, square = power @ power if square is None else square, None
        if bit == "1":
            power = power @ g
    return power


def _sub_order(g: IntMatrix, order: int) -> int:
    """The order of ``g``, the action of an element of ``order`` on an invariant sublattice, which divides it:
    1 or a prime ``order`` by one identity test, else the order mod 3 with no confirmation (Minkowski's lemma)."""
    if _is_prime(order):
        return 1 if _is_identity(g) else order
    return _order_mod3(g, order)


def _order_mod3(g: IntMatrix, bound: int) -> int:
    """The order of ``g`` mod 3, refused beyond ``bound``.  A residue row is packed as two int bit
    masks, its columns holding 1 and -1, so row i of g.p is the F_3 sum of the rows of p at the
    nonzero residues of row i of g, six bitwise operations each (Boothby and Bradshaw, arXiv:0901.1413)."""
    n = g.rows
    # row i of g mod 3: the columns j of its nonzero residues, each with whether it is -1
    terms = [[(j, row[j] % 3 == 2) for j in compress(range(n), row) if row[j] % 3] for row in g]
    one = tuple([(1 << i, 0) for i in range(n)])
    p, k = one, 0
    while k == 0 or p != one:  # p = g^k mod 3, packed
        if k >= bound:
            raise GroupTooLarge(f"group too large or infinite: order exceeds {bound}")
        rows = []
        for row in terms:
            if len(row) == 1:  # a monomial row: row j of p, negated when the residue is -1
                j, neg = row[0]
                rows.append(p[j][::-1] if neg else p[j])
                continue
            a = b = 0  # the masks of 1 and of -1 of the sum so far
            for j, neg in row:
                c, d = p[j]
                if neg:
                    c, d = d, c
                t = (a | d) ^ (b | c)
                a, b = (b | d) ^ t, (a | c) ^ t
            rows.append((a, b))
        p, k = tuple(rows), k + 1
    return k


def mulclose(generators: Sequence[IntMatrix], bound: int = DEFAULT_ORDER_BOUND) -> list[IntMatrix]:
    """Closure of the generators under multiplication, in breadth-first order: their walk's elements."""
    _require_int(bound, "closure bound")
    if not generators:
        raise ValueError("no generators")
    return list(_closed_walk(generators, bound=bound).elements)


@dataclass(frozen=True)
class _Walk:
    """A finite group walked from the identity by right multiplication.

    ``perms`` lists the group in the order the walk reached it, the
    identity first, each element as its permutation of a spanning set Ω
    (``_closed_walk``), or as its exponent k in g^k for a cyclic spec
    <g>.  ``product`` composes two of them: ``product(perms[a], perms[b])``
    stands for ``elements[a] @ elements[b]``, with no matrix product;
    ``gen_perms`` holds ``gens`` in the same form, repeats included.
    ``element(i)`` is the matrix of ``perms[i]``, built from its images of
    Ω or read from the powers of g, and ``contains(g)`` tells whether a
    matrix is an element, from its images of Ω or among the powers; so a
    caller of the generators, the order, the permutations or a few
    elements builds only the matrices it reads.
    """

    element: Callable[[int], IntMatrix] = field(repr=False, compare=False)
    contains: Callable[[IntMatrix], bool] = field(repr=False, compare=False)
    gens: tuple[IntMatrix, ...]
    gen_perms: tuple
    perms: Sequence
    product: Callable = field(repr=False, compare=False)

    @cached_property
    def elements(self) -> tuple[IntMatrix, ...]:
        return tuple(map(self.element, range(self.order)))

    @property
    def order(self) -> int:
        return len(self.perms)


def _closed_walk(gens: Sequence[IntMatrix], members: Sequence[IntMatrix] = (), *, bound: int) -> _Walk:
    """The walk from the identity by ``gens``, or by each of ``members`` it has not reached when it comes to it.

    Every element is walked as a permutation of Ω, a finite set of vectors
    that spans Z^rank and is stable under the group: the standard basis and
    the distinct columns of ``members``, or the orbits of basis vectors that
    ``_orbits`` picks.  The walk keeps each permutation, unpadded: ``bytes``
    of length |Ω| up to 256 points, a tuple beyond.  An element is known by
    its images of the first s points of Ω, which write the basis vectors by
    fixed combinations.  ``element(i)`` takes a member or a generator as it
    is and builds any other matrix from those images, when it is read;
    ``contains(g)`` images the points a ``seen`` key reads by g, one
    ``matmul_rows``, and looks the key up, so a matrix of another shape or
    with an image outside Ω is no element.  A product is one composition of
    permutations in C:
    ``bytes.translate`` by the left factor padded to a 256-entry table, or
    an ``itemgetter``; a row is padded once for all the generators it takes.

    The reached set grows by right-multiplying it by the generators,
    breadth first.  A member joins as a generator (the greedy generators of
    a list); elements reached before need only the product with it, newly
    reached ones take every generator.  Without ``members`` a closure beyond
    ``bound`` raises GroupTooLarge.  With them the walk keeps the member
    objects and refuses a list longer than ``bound`` before Ω is built,
    then one with two equal column keys (a duplicate) or no key 0..n-1 (no
    identity), then one not closed, at its first product outside it or
    generator image outside Ω, which a group's columns hold: so it ends.
    """
    n = (gens or members)[0].rows
    if members:
        if len(members) > bound:
            raise GroupTooLarge(f"group too large or infinite: {len(members)} > {bound}")
        points, given, s, combos = list(IntMatrix.identity(n)), {}, n, None  # Ω, the basis first
        where = dict(zip(points, range(n)))
        for v in chain.from_iterable(zip(*g) for g in members):
            if v not in where:
                where[v] = len(points)
                points.append(v)
    else:
        points, images, s, combos = _orbits(gens, bound)
        given, where = dict(zip(gens, images)), dict(zip(points, range(len(points))))
    size = len(points)
    if size <= 256:  # bytes, composed by translate through the left factor padded to a 256-entry table
        pack, pad = bytes, bytes(range(size, 256))

        def move(perm):  # x -> x @ g, which takes point i where x takes g's image of it: x[perm[i]]
            return perm.translate

        def product(x, y):  # the permutation of x @ y
            return y.translate(x + pad)
    else:  # tuples, composed by an itemgetter, with no padding
        pack, pad = tuple, ()

        def move(perm):
            return itemgetter(*perm)

        def product(x, y):
            return itemgetter(*y)(x)

    listed = {pack([where[v] for v in zip(*g)]): g for g in members}
    if len(listed) < len(members):
        raise ValidationError("Explicit element list contains duplicates")
    if members and pack(range(n)) not in listed:
        raise ValidationError("Explicit element list is missing the identity")
    reached = [pack(range(size))]
    # a list's member check reads the first s points; a generated walk keys ``seen`` by the kept
    # permutation itself (y[:None] of bytes or a tuple is y), so it holds no second object per element
    cut = s if members else None
    seen = {reached[0][:cut]}
    walk_gens: list[IntMatrix] = []
    gen_perms: list = []
    moves: list = []
    # the members are tested against ``seen`` as the walk comes to them
    for batch in chain([gens], ([g] for key, g in listed.items() if key not in seen)):
        first = len(moves)
        for g in batch:
            images = _images(g, points, where) if members else given[g]
            if images is None:
                raise ValidationError("Explicit element list is not closed under products")
            perm = pack(images)
            walk_gens.append(g)
            gen_perms.append(perm)
            moves.append(move(perm))
        known, fresh = len(reached), moves[first:]
        for i, x in enumerate(reached):  # the list grows as it is read
            table = x + pad
            for step in fresh if i < known else moves:
                y = step(table)
                key = y[:cut]
                if key not in seen:
                    if members:
                        if key not in listed:
                            raise ValidationError("Explicit element list is not closed under products")
                    elif len(reached) == bound:
                        raise GroupTooLarge(f"group too large or infinite: closure exceeds {bound}")
                    seen.add(key)
                    reached.append(y)
    listed.update({pack(given[g][:s]): g for g in gens})
    rows: dict = {}  # equal rows are shared

    def element(i: int) -> IntMatrix:  # a member or a generator as it is; any other element by its columns
        key = reached[i][:s]
        g = listed.get(key)
        if g is None:
            cols = [points[k] for k in key]  # the images of the support, then the columns they write
            if combos is not None:
                cols = matmul_rows(combos, cols, n)
            g = IntMatrix._from_rows(tuple([rows.setdefault(r, r) for r in zip(*cols)]), n)
        return g

    def contains(g: IntMatrix) -> bool:  # g's images of the points a key reads, looked up as the walk's keys
        if not g.is_square or g.rows != n:
            return False
        images = [where.get(v) for v in matmul_rows(points[:cut], tuple(zip(*g)), n)]
        return None not in images and pack(images)[:cut] in seen

    return _Walk(element, contains, tuple(walk_gens), tuple(gen_perms), reached, product)


def _orbits(gens: Sequence[IntMatrix], bound: int) -> tuple[list, list[list[int]], int, list | None]:
    """``(Ω, images, s, C)``: Ω with the s points of its support first, each generator's images of Ω
    as indices into it, and the rows C_j with e_j = sum_t C_j[t] Ω[t], or None when Ω begins with the basis.

    Each round extends by one layer the open orbits of basis vectors with
    the fewest points, one ``matmul_rows`` per generator; orbits that meet
    merge, and one whose layer finds no new point is closed.  An orbit of
    more than ``bound`` points refuses the group.  Once the open orbits hold
    more points than the closed ones, the closed ones become Ω if they span
    Z^rank (``_spanning``); else Ω is the union of all the basis orbits.
    """
    n = gens[0].rows
    columns = [tuple(zip(*g)) for g in gens]
    points = list(IntMatrix.identity(n))
    where = dict(zip(points, range(n)))
    images: list[dict[int, int]] = [{} for _ in gens]
    orbit = list(range(n))  # the orbit of each point, named by one of its points
    members = {j: [j] for j in range(n)}
    layers = {j: [j] for j in range(n)}  # each open orbit's points not yet imaged
    span, tested = None, 0
    while layers:
        least = min([len(members[o]) for o in layers])
        todo = [i for o in [o for o in layers if len(members[o]) == least] for i in layers.pop(o)]
        for cols, image in zip(columns, images):
            for i, v in zip(todo, matmul_rows([points[i] for i in todo], cols, n)):
                o = orbit[i]
                k = where.setdefault(v, len(points))
                if k == len(points):
                    points.append(v)
                    orbit.append(o)
                    members[o].append(k)
                    layers.setdefault(o, []).append(k)
                    if len(members[o]) > bound:
                        raise GroupTooLarge(f"group too large or infinite: closure exceeds {bound}")
                elif orbit[k] != o:  # the orbits meet: o takes the other's points and its layer
                    p = orbit[k]
                    for q in members[p]:
                        orbit[q] = o
                    members[o] += members.pop(p)
                    layers.setdefault(o, []).extend(layers.pop(p, ()))
                image[i] = k
        grown = sum([len(members[o]) for o in layers])
        if n <= len(points) - grown < grown and len(points) - grown != tested:
            closed = [k for p, ks in members.items() if p not in layers for k in ks]
            tested, span = len(closed), _spanning(points, closed, n)
            if span:
                break
    support, combos = span or (list(range(n)), None)
    order = support + sorted(set(closed if span else range(len(points))).difference(support))
    at = dict(zip(order, range(len(order))))
    return [points[k] for k in order], [[at[image[k]] for k in order] for image in images], len(support), combos


def _spanning(points: list, chosen: list[int], n: int) -> tuple[list[int], list] | None:
    """``(support, C)`` writing each basis vector from the ``chosen`` points, or None when they do not span Z^n.

    One ``hermite_form`` of the chosen points, shortest first, decides:
    they span exactly when the first n rows of ``H`` are the identity, and
    then ``U``'s first n rows write the basis.  ``_orbits`` passes at least
    n points, so ``H`` has those rows.  A chosen basis vector is its own
    combination; ``_orbits`` asks only while an orbit is open, and every
    orbit holds a basis vector, so some basis vector is not chosen.
    """
    inside = set(chosen)
    shortest = sorted(chosen, key=lambda k: sum(map(abs, points[k])))
    h, u = hermite_form(IntMatrix._from_rows(tuple([points[k] for k in shortest]), n))
    if any(h[j][j] != 1 for j in range(n)):  # index 1: the first n rows of H are the identity
        return None
    terms = [{j: 1} if j in inside else {shortest[t]: c for t, c in enumerate(u[j]) if c} for j in range(n)]
    support = list(dict.fromkeys(chain.from_iterable(terms)))
    return support, [tuple([t.get(k, 0) for k in support]) for t in terms]


def _images(g: IntMatrix, points: list, where: dict) -> list[int] | None:
    """The indices of g's images of Ω, or None when one lies outside it."""
    cols = tuple(zip(*g))
    images = [where.get(v) for v in chain(cols, matmul_rows(points[len(cols):], cols, len(cols)))]
    return None if None in images else images


def validate_and_close(spec: GroupSpec, form: IntMatrix | None = None) -> list[IntMatrix]:
    """Validate a group spec and return its full element list.

    Checks that every listed matrix is unimodular and preserves ``form``
    when one is given, once per spec and form (``GroupSpec._check``), and
    walks the group once per spec, which keeps what the walk ended in: the
    walk, or the refusal it raises again at every use.  A group larger than
    the spec's own bound, the ``closure_bound`` it was built with, is
    refused with GroupTooLarge.  A cyclic spec is walked by the powers of
    its generator, after its order (see :func:`matrix_order`), which the
    spec keeps.  A generated spec first has each generator's order checked,
    so an infinite-order generator is refused after a few packed residue
    products; a few orbits then give Ω (``_orbits``), and the group is
    walked breadth first at |G| * |generators| compositions of permutations
    of Ω.  An explicit list is walked first, by greedy generators S on Ω,
    the set of its columns, in O(|G| * |S|) compositions where the full
    table takes |G|^2 products; the walk refuses a list longer than the
    bound, then one with a duplicate, without the identity, or not closed (a
    product outside the list or an image outside Ω).  The check then reads
    S, or every listed matrix when the walk refused, whose refusal comes
    after any matrix's defect.  The list comes back in its own order; any
    other kind's in walk order, each element taken from the walk
    (``_Walk.element``), which builds it on this first read unless listed.
    """
    spec._check(form)
    walk = spec._checked_walk()
    return list(spec.elements if isinstance(spec, Explicit) else walk.elements)


# ---------------------------------------------------------------------------
# G-lattices


@dataclass(frozen=True)
class GLattice:
    """A free Z-module of finite rank with a finite group acting on it.

    The optional ``form`` is a symmetric Gram matrix every action matrix
    must preserve (g^T . form . g == form).
    """

    rank: int
    group: GroupSpec
    form: IntMatrix | None = None

    def __post_init__(self) -> None:
        _require_int(self.rank, "rank")
        if self.rank < 0:
            raise ValueError("negative rank")
        if self.form is not None:
            if self.form.rows != self.rank or self.form.cols != self.rank:
                raise ValidationError("form has the wrong shape")
            if not _is_symmetric(self.form):
                raise ValidationError("form is not symmetric")
        if self.group.size != self.rank:  # the spec's matrices are square and of one size
            raise ValidationError(f"matrix 0 is not {self.rank}x{self.rank}")
        self.group._check(self.form)

    def elements(self) -> list[IntMatrix]:
        """The group elements within the spec's bound, from the walk the spec keeps."""
        return validate_and_close(self.group, self.form)


@dataclass(frozen=True)
class CohomologyResult:
    h0_rank: int
    h1: FinAbGroup
    method: str
    group_order: int

    def __post_init__(self) -> None:
        _check_h1(self.h1, self.group_order)


def _check_h1(h1: FinAbGroup, group_order: int) -> None:
    if h1.free_rank != 0:
        raise AssertionError("H^1 of a finite group on a lattice must be finite")
    if group_order % h1.exponent() != 0:
        raise AssertionError("H^1 exponent must divide the group order")


def invariants_h0(m: GLattice) -> IntMatrix:
    """Canonical basis of the fixed sublattice M^G (rows of the result).

    A vector is fixed by the whole group iff it is fixed by the listed
    matrices, so only those enter one kernel computation, which walks
    nothing and is made on every call: each caller asks once.  Every spec
    lists a matrix; at rank 0 the kernel is the 0x0 identity.
    """
    return kernel_basis(_stacked(m.group.matrices, m.rank))


def _h1(gens: Sequence[IntMatrix], rank: int, order: int) -> tuple[FinAbGroup, int]:
    """``(H^1, rank of M^G)`` for the group of ``order`` elements that ``gens`` generate, acting on Z^rank.

    In generator-value coordinates Z^1 is saturated and B^1, the row lattice
    of B = [(s_1 - 1)^T | ... | (s_k - 1)^T], has finite index in it, so H^1
    is the torsion of coker(B) (Brown, *Cohomology of Groups*, III-IV).  B^T,
    the blocks s - 1 stacked, has the same invariant factors and the kernel
    M^G, so Z^rank modulo the rows of B^T is H^1 + Z^(rank M^G).  A repeated
    generator or the identity adds no row to that lattice, so its block is
    left out.

    A prime order p kills H^1, so each invariant factor is 1 or p: H^1 is
    (Z/p)^(r - s), r and s the ranks of B^T over Q and F_p.  A generator
    g != 1 has char poly (t - 1)^a Phi_p^b, so r = (p - 1) b = (p - 1)(rank - tr g) / p.
    Ranks cannot tell Z/4 from (Z/2)^2, so any other order takes ``subquotient``.
    """
    gens = [g for g in dict.fromkeys(gens) if not _is_identity(g)]
    rows = _stacked(gens, rank)
    if _is_prime(order):
        b, rest = divmod(rank - sum([gens[0][i][i] for i in range(rank)]), order)
        if rest:
            raise AssertionError(f"a generator's trace does not fit an action of order {order}")
        r = (order - 1) * b
        return FinAbGroup((order,) * (r - _rank_mod(rows, order))), rank - r
    coker = subquotient(IntMatrix.identity(rank), rows)
    return FinAbGroup(coker.invariant_factors), coker.free_rank


def _stacked(gens: Sequence[IntMatrix], rank: int) -> IntMatrix:
    """B^T: the blocks g - 1 stacked, with no rows for no generators; row i
    of g - 1 is row i of g with 1 taken from its diagonal entry."""
    return IntMatrix._from_rows(
        tuple([row[:i] + (row[i] - 1,) + row[i + 1:] for g in gens for i, row in enumerate(g)]), rank
    )


def h1_cyclic(m: GLattice) -> CohomologyResult:
    """H^1 for a cyclic action <d>: the torsion of coker(d - 1), which is ker(N) / eta(M).

    ``N`` is the norm 1 + d + ... + d^(n-1) and eta = 1 - d.  Only d and its
    order are needed (Brown, *Cohomology of Groups*, III.1): no walk, and for
    a prime order two ranks (see ``_h1``), else one ``subquotient``.
    """
    if not isinstance(m.group, Cyclic):
        raise ValidationError("h1_cyclic needs a cyclic group spec")
    h1, h0_rank = _h1(m.group.matrices, m.rank, m.group._order)
    return CohomologyResult(h0_rank=h0_rank, h1=h1, method="cyclic", group_order=m.group._order)


def h1_cocycle(m: GLattice) -> CohomologyResult:
    """H^1 by crossed homomorphisms, for an arbitrary finite group.

    Cocycles are taken in the coordinates of their values on the generators
    of the lattice's walk (see ``_h1``): the listed generators of a
    generated lattice, the greedy generators of a list.  A repeated listed
    generator or the identity adds no rows of B^T; any other redundant one
    adds ``rank`` and changes neither H^1 nor the rank of M^G.  Only the closure's bound limits the group.
    """
    walk = m.group._checked_walk()  # the spec was checked when the lattice was made
    h1, h0_rank = _h1(walk.gens, m.rank, walk.order)
    return CohomologyResult(h0_rank=h0_rank, h1=h1, method="cocycle", group_order=walk.order)


def h1(m: GLattice) -> CohomologyResult:
    """H^1 of the action: cyclic formula when available, cocycles otherwise."""
    if isinstance(m.group, Cyclic):
        return h1_cyclic(m)
    return h1_cocycle(m)


# ---------------------------------------------------------------------------
# constructions


def permutation_module(perms: Sequence[Sequence[int]], kind: str = "generated") -> GLattice:
    """G-lattice permuting the standard basis of Z^k.

    Each permutation is a sequence with ``perm[i]`` the image of ``i``
    (0-indexed).  ``kind`` selects the group presentation: ``"cyclic"``
    (exactly one permutation), ``"explicit"`` (a closed list) or
    ``"generated"``.
    """
    if not perms:
        raise ValueError("inconsistent permutations: empty list")
    k = len(perms[0])
    mats = []
    for p in perms:
        if sorted(p) != list(range(k)):
            raise ValueError(f"inconsistent permutations: {p!r} is not a permutation of 0..{k - 1}")
        rows = [[0] * k for _ in range(k)]
        for i in range(k):
            rows[p[i]][i] = 1  # column i carries basis vector i to p(i)
        mats.append(IntMatrix(rows))
    if kind == "cyclic":
        if len(mats) != 1:
            raise ValueError("inconsistent permutations: cyclic kind takes exactly one permutation")
        spec: GroupSpec = Cyclic(mats[0])
    elif kind == "explicit":
        spec = Explicit(mats)
    elif kind == "generated":
        spec = Generated(mats)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    m = GLattice(rank=k, group=spec, form=None)
    if kind == "explicit":
        spec._checked_walk()  # a list that is no group is refused here, by the walk its check took
    return m


def leading_block(m: GLattice, n: int) -> GLattice:
    """The action of a cyclic lattice on the span of its first ``n`` basis vectors: rows n, ... of g are 0 there.

    The block inherits what ``m`` has passed, so nothing is checked again:
    det g is its determinant times the rest's, it preserves the form's
    leading block, and its order divides g's (``_sub_order``).
    """
    if not isinstance(m.group, Cyclic) or any(any(row[:n]) for row in m.group.generator[n:]):
        raise ValidationError(f"the first {n} basis vectors do not span an invariant block of a cyclic action")
    g, form = [None if a is None else IntMatrix._from_rows(tuple([row[:n] for row in a[:n]]), n)
               for a in (m.group.generator, m.form)]
    spec = Cyclic(g, m.group.closure_bound)._keep(form, order=_sub_order(g, m.group._order))
    return GLattice(n, spec, form)


def direct_sum(m1: GLattice, m2: GLattice) -> GLattice:
    """Block-diagonal action on the direct sum of the two lattices.

    Both sides must be specs of the same kind, their listed matrices paired
    positionally.  Cyclic summands pair by their generators whatever their
    orders: the sum is the cyclic action of order lcm(n1, n2), and its H^1
    is the sum of the summands', as inflation is an isomorphism on lattices
    (H^1(K, M) = Hom(K, M) = 0 for the kernel K).  A rank-0 summand is
    absorbed, whatever its presentation, since only one group can act on 0.
    A list or generated pairing must present the same abstract group; it is
    proved by walking the paired spec once, with no matrix product: the sum
    maps onto both summands, so the pairing is an isomorphism exactly when
    the sum's order equals both summands' orders.  A list of paired blocks
    must then be a group itself; a generated sum is walked by its block
    generators and refused past |G1| elements, with no order check of the
    generators, since the summands are finite.  The sum keeps the block form
    its summands have passed and its walk, so it is not validated or walked
    again; its bound is the larger of the summands' bounds.
    """
    if m1.rank == 0:
        return m2
    if m2.rank == 0:
        return m1
    if type(m1.group) is not type(m2.group):
        raise GroupMismatch("group mismatch: different presentation kinds")
    form = None
    if m1.form is not None and m2.form is not None:
        form = IntMatrix.block_diag(m1.form, m2.form)
    bound = max(m1.group.closure_bound, m2.group.closure_bound)
    if isinstance(m1.group, Cyclic):
        spec = Cyclic(IntMatrix.block_diag(m1.group.generator, m2.group.generator), bound)
        return GLattice(m1.rank + m2.rank, spec._keep(form), form)
    listed = m1.group.matrices, m2.group.matrices
    explicit = isinstance(m1.group, Explicit)
    if explicit:
        counts, tables = "element counts differ", "multiplication tables differ"
    else:
        counts, tables = "generator counts differ", "generator pairing is not an isomorphism"
    if len(listed[0]) != len(listed[1]):
        raise GroupMismatch(f"group mismatch: {counts}")
    order = m1.group._checked_walk().order
    if m2.group._checked_walk().order == order:
        blocks = list(map(IntMatrix.block_diag, *listed))
        spec = type(m1.group)(blocks, bound)
        try:
            walk = spec._checked_walk() if explicit else _closed_walk(blocks, bound=order)
        except (ValidationError, GroupTooLarge):  # the paired list is not a group, or the sum is larger
            pass
        else:
            return GLattice(m1.rank + m2.rank, spec._keep(form, walk), form)
    raise GroupMismatch(f"group mismatch: {tables}")


def restrict_subgroup(m: GLattice, elements: IntMatrix | Sequence[IntMatrix]) -> GLattice:
    """Restrict the action to a subgroup.

    A single matrix restricts to the cyclic subgroup it generates; a list
    must be product-closed, contain the identity, and consist of members of
    the acting group, which are checked already: the subgroup keeps the form.
    Membership is read off the group's walk (``_Walk.contains``): a matrix's
    images of Ω looked up among the walk's permutations, or the powers of a
    cyclic spec's generator, so no element matrix of the group is built.
    """
    walk = m.group._checked_walk()
    if isinstance(elements, IntMatrix):
        elements = [elements]
    subset = [e if isinstance(e, IntMatrix) else IntMatrix(e) for e in elements]
    if not all(map(walk.contains, subset)):
        raise NotSubgroup("subset not a subgroup: element does not belong to the group")
    if not subset:
        raise NotSubgroup("subset not a subgroup: the empty set has no identity")
    bound = m.group.closure_bound  # a subgroup is no larger than the group
    if len(subset) == 1:
        return GLattice(m.rank, Cyclic(subset[0], bound)._keep(m.form), m.form)
    spec = Explicit(subset, bound)._keep(m.form)
    try:
        spec._checked_walk()  # kept by the spec, so the restricted lattice does not walk again
    except ValidationError as e:
        raise NotSubgroup(f"subset not a subgroup: {e}") from None
    return GLattice(m.rank, spec, m.form)


@dataclass(frozen=True)
class SubgroupEntry:
    generator_index: int
    order: int
    h1: FinAbGroup

    def __post_init__(self) -> None:
        _check_h1(self.h1, self.order)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of scanning H^1 over the group and its cyclic subgroups."""

    full_group: CohomologyResult
    subgroups: tuple[SubgroupEntry, ...]
    obstructed: bool
    witnesses: tuple[str, ...]

    @property
    def verdict(self) -> str:
        return "stable linearization obstructed" if self.obstructed else "no obstruction found"


def obstruction_scan(m: GLattice) -> ScanReport:
    """Compute H^1 for the full group and every cyclic subgroup.

    Nonvanishing anywhere obstructs stable linearization of the action; the
    report lists each witness.  Cyclic subgroups are deduplicated by the
    subgroup they generate, keeping the lowest generator index; entries come
    out sorted by that index.

    The scan composes the walk's permutations (``_Walk.product``), with no
    matrix product after the closure.  ``owner``, indexed by walk position,
    names the subgroup each element generates, filled as each new
    subgroup's powers are walked.  Conjugate subgroups have isomorphic H^1
    (Brown, *Cohomology of Groups*, III.8), so a second pass in entry order
    runs ``_h1`` once per class, on its first generator's matrix
    (``_Walk.element``: 25 built on W(E6), of 51,840 elements), and hands
    the value on by conjugating one generator per subgroup, s^-1 x s for
    each distinct walk generator s, looked up through ``owner``.
    """
    full = h1(m)
    walk = m.group._checked_walk()
    perms, product = walk.perms, walk.product
    index = {p: i for i, p in enumerate(perms)}
    if isinstance(m.group, Generated):  # in walk order, with no element built until ``_h1`` reads it
        places = range(len(perms))
    else:  # a list's objects or a cyclic spec's powers, by ``m.elements()``: the benchmark's
        # self-test reaches ``validate_and_close`` and ``mulclose`` only through a cyclic scan
        at = {id(x): i for i, x in enumerate(walk.elements)}
        places = [at[id(g)] for g in m.elements()]
    owner: list[int | None] = [None] * len(perms)  # the subgroup each element generates
    found = []  # per subgroup: its generator_index, its first generator's walk position, its order
    for idx, x in enumerate(places):
        if owner[x] is None:
            powers, p = [0], x
            while p:  # index 0 is the identity
                powers.append(p)
                p = index[product(perms[p], perms[x])]
            for k, y in enumerate(powers):
                if gcd(k, len(powers)) == 1:
                    owner[y] = len(found)
            found.append((idx, x, len(powers)))
    conjugators = []  # (s^-1, s) per distinct generator s
    for s in dict.fromkeys(walk.gen_perms):
        inverse = s  # s, s^2, ... up to the power before the identity
        while index[product(inverse, s)]:
            inverse = product(inverse, s)
        conjugators.append((inverse, s))
    values: list[FinAbGroup | None] = [None] * len(found)
    for j, (_, x, n) in enumerate(found):
        if values[j] is None:
            values[j] = _h1((walk.element(x),), m.rank, n)[0]
            orbit = [j]
            for c in orbit:  # the list grows as it is read
                for inverse, s in conjugators:
                    image = owner[index[product(product(inverse, perms[found[c][1]]), s)]]
                    if values[image] is None:
                        values[image] = values[j]
                        orbit.append(image)
    entries = [SubgroupEntry(idx, n, value) for (idx, _, n), value in zip(found, values)]
    witnesses = []
    if not full.h1.is_trivial:
        witnesses.append(f"full group: H^1 = {full.h1}")
    for e in entries:
        if not e.h1.is_trivial:
            witnesses.append(f"cyclic subgroup of element {e.generator_index} (order {e.order}): H^1 = {e.h1}")
    return ScanReport(
        full_group=full,
        subgroups=tuple(entries),
        obstructed=bool(witnesses),
        witnesses=tuple(witnesses),
    )
