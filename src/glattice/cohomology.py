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
vectors that starts with the standard basis and spans Z^rank: the union of
the basis vectors' orbits under the generators, or the distinct columns of
a list.  An element is a permutation of Ω, known by its images of the
basis, which are its columns; a product is one composition of permutations,
done in C in time linear in |Ω|, where an exact matrix product costs up to
rank^3 Python-level multiply-adds.  The arithmetic left is one sparse
matrix-vector product per point of Ω and generator (|Ω| <= rank * |G|, and
a basis vector's image is read off as a column); matrices are built from
their columns once the walk is done.  As Ω spans, G acts on it faithfully,
so Ω is finite exactly when G is, and an orbit beyond the bound refuses a
group before it is walked.  Each spec keeps the walk that closed it
(``_checked_walk``), a Schreier table from which any group product is read
by index (``_Walk.times``): it is the only group structure used after the
closure.  Orders come from residues mod 3 and one exact confirmation: by
Minkowski's lemma the kernel of GL_n(Z) -> GL_n(F_3) is torsion-free, so a
finite order equals the order mod 3, and an infinite-order input is refused
after a few cheap products on bit-packed residue rows instead of ``bound``
growing exact ones.  A cyclic spec keeps its generator's order.

H^1 has one kernel, ``_h1``, and needs no relators.  A crossed homomorphism
f(gh) = f(g) + g.f(h) is fixed by its values on generators s_1, ..., s_k,
so the cocycles Z^1 form a saturated lattice in Z^(k * rank); the
coboundaries f(s) = (s - 1)x span a sublattice B^1 of finite index, since
H^1 of a finite group is finite.  So Z^1 is the saturation of B^1, and
H^1 = Z^1/B^1 is the torsion of the cokernel of
B = [(s_1 - 1)^T | ... | (s_k - 1)^T]: one ``subquotient`` of Z^rank by
the rows of B^T, a Hermite elimination of its k * rank rows, then Smith on
at most rank x rank entries.  ``h1_cocycle`` takes the generators of the
lattice's walk, which for a generated lattice are its listed generators (a
repeat or the identity adds no rows, any other redundant one rank rows of
B^T); ``h1_cyclic`` takes d for <d> and its order, walking nothing:
tors coker(d - 1) = ker(N)/eta(M) with N the norm and eta = 1 - d;
``obstruction_scan`` takes one generator per conjugacy class of cyclic
subgroups.  Either way the result is a :class:`FinAbGroup`; H^1 of a finite
group acting on a lattice is always finite and annihilated by the group
order, which is asserted on every run.

Each :class:`GLattice` keeps its closure (within its spec's bound) and its
walk after first use, so ``h1_cocycle``, ``obstruction_scan`` and
``restrict_subgroup`` close a group once however often they are called; the
rank of M^G comes with each H^1 from the same subquotient.  Only
``invariants_h0`` needs a basis of M^G, which it computes once per lattice
and keeps with the closure.

All inputs and outputs are immutable; every function here is pure and safe
for concurrent use.  The per-lattice cache, and what a spec keeps (its
walk, its order, the forms it has passed), are filled idempotently: a
value computed twice by racing threads is the same value either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice
from math import gcd
from operator import itemgetter
from typing import Sequence

from .intlinalg import (
    FinAbGroup,
    IntMatrix,
    kernel_basis,
    matmul_rows,
    subquotient,
)

DEFAULT_ORDER_BOUND = 10_000


class ValidationError(ValueError):
    """An action matrix violates the G-lattice invariants.

    When one listed matrix is at fault, ``index`` is its position and
    ``reason`` names its defect: ``"unimodular"`` or ``"form"``.
    """

    def __init__(self, message: str, index: int | None = None, reason: str | None = None):
        super().__init__(message)
        self.index, self.reason = index, reason


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
    (``_walk_group``), and keeps the walk that proved it a group.
    """

    _walk: _Walk | None = None

    def __init__(self, matrices: Sequence[IntMatrix], closure_bound: int = DEFAULT_ORDER_BOUND):
        what = type(self).__name__
        self.matrices = tuple([m if isinstance(m, IntMatrix) else IntMatrix(m) for m in matrices])
        if not self.matrices:
            raise ValueError(f"{what} requires at least one matrix")
        n = self.size
        if any(not m.is_square or m.rows != n for m in self.matrices):
            raise ValidationError(f"{what}: matrices must all be square of the same size")
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
        """The walk within ``closure_bound``, found once per spec."""
        if self._walk is None:
            self._walk = self._walk_group()
        return self._walk

    def _check(self, form: IntMatrix | None) -> None:
        """Raise ValidationError unless every listed matrix is unimodular and
        preserves ``form``; a spec keeps the forms it has passed, so each is checked once."""
        passed = self.__dict__.setdefault("_passed", set())
        if form in passed:
            return
        for i, g in enumerate(self.matrices):
            if not g.is_unimodular():
                raise ValidationError(f"matrix {i} is not unimodular", i, "unimodular")
            if form is not None and g.transpose() @ form @ g != form:
                raise ValidationError(f"matrix {i} does not preserve the bilinear form", i, "form")
        passed.add(form)

    def _keep(self, walk: _Walk, form: IntMatrix | None) -> GroupSpec:
        """Mark a spec built from checked ones as walked by ``walk`` and as preserving ``form``."""
        self._walk = walk
        self.__dict__["_passed"] = {None, form}
        return self


class Cyclic(GroupSpec):
    """Cyclic group presented by a single generator of finite order."""

    def __init__(self, generator, closure_bound: int = DEFAULT_ORDER_BOUND):
        super().__init__([generator], closure_bound)

    @property
    def generator(self) -> IntMatrix:
        return self.matrices[0]

    @cached_property
    def _order(self) -> int:
        """The generator's order within ``closure_bound``, found once per spec."""
        return matrix_order(self.generator, self.closure_bound)

    def _walk_group(self) -> _Walk:
        """The walk of the powers of the generator, after its order."""
        return _cyclic_walk(mulclose([self.generator], self._order))


class Explicit(GroupSpec):
    """Full element list, closed under product and containing the identity."""

    @property
    def elements(self) -> tuple[IntMatrix, ...]:
        return self.matrices

    def _walk_group(self) -> _Walk:
        """The walk by greedy generators that proves the list a group."""
        if len(self.elements) > self.closure_bound:
            raise GroupTooLarge(f"group too large or infinite: {len(self.elements)} > {self.closure_bound}")
        members = set(self.elements)
        if len(members) != len(self.elements):
            raise ValidationError("Explicit element list contains duplicates")
        if IntMatrix.identity(self.size) not in members:
            raise ValidationError("Explicit element list is missing the identity")
        walk = _closed_walk((), self.elements)
        if walk is None:
            raise ValidationError("Explicit element list is not closed under products")
        return walk


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


def matrix_order(g: IntMatrix, bound: int = DEFAULT_ORDER_BOUND) -> int:
    """Multiplicative order of ``g``; error if it exceeds ``bound``.

    The candidate order ``k`` is the order of ``g`` mod 3.  A residue row is
    packed as two int bit masks, its columns holding 1 and -1, so row i of
    g.p is the F_3 sum of the rows of p at the nonzero residues of row i of
    g, six bitwise operations each (Boothby and Bradshaw, arXiv:0901.1413);
    ``g^k == I`` is then confirmed exactly by binary powering.  By
    Minkowski's lemma a finite order equals the order mod 3, so a failed
    confirmation proves it infinite.  Cost: min(k, bound) packed products of
    O(nonzeros of g) operations on rank-bit ints, plus at most 2 log2(k)
    exact ones (one for an involution, two for order 3).
    """
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
    ident = IntMatrix.identity(n)
    power = g
    for bit in bin(k)[3:]:
        power = power @ power
        if bit == "1":
            power = power @ g
    if power != ident:
        raise GroupTooLarge(f"group too large or infinite: order exceeds {bound}")
    return k


def mulclose(generators: Sequence[IntMatrix], bound: int = DEFAULT_ORDER_BOUND) -> list[IntMatrix]:
    """Closure of the generators under multiplication, in breadth-first order: their walk's elements."""
    if not generators:
        raise ValueError("no generators")
    return list(_closed_walk(generators, bound=bound).elements)


@dataclass(frozen=True)
class _Walk:
    """A finite group walked from the identity by right multiplication.

    ``elements`` lists the group in the order the walk reached it, the
    identity first.  Each ``(a, s, b)`` in ``edges`` is a product
    ``elements[a] @ gens[s] == elements[b]``, in the order they were made;
    every element meets every generator exactly once.  The edge that first
    reaches an element (``b`` is then the number of elements reached before
    it) belongs to the Schreier tree; every other edge closes a relator.

    The edges are a Schreier table: ``table`` holds ``right[a][s] = b`` and
    each element's word in the generators along the tree, so :meth:`times`
    finds any product by index, with no matrix product.  The walk that made
    them composed permutations of a spanning set Ω (``_closed_walk``); of
    it only the matrices, the generators and the edges are kept.
    """

    elements: tuple[IntMatrix, ...]
    gens: tuple[IntMatrix, ...]
    edges: tuple[tuple[int, int, int], ...]

    @cached_property
    def table(self) -> tuple[list[list[int]], list[tuple[int, ...]]]:
        right = [[0] * len(self.gens) for _ in self.elements]
        words: list[tuple[int, ...]] = [()]
        for a, s, b in self.edges:
            right[a][s] = b
            if b == len(words):  # a tree edge
                words.append(words[a] + (s,))
        return right, words

    def times(self, x: int, y: int) -> int:
        """The index of ``elements[x] @ elements[y]``: ``y``'s word followed from ``x``."""
        right, words = self.table
        for s in words[y]:
            x = right[x][s]
        return x


def _closed_walk(gens: Sequence[IntMatrix], members: Sequence[IntMatrix] = (),
                 bound: int | None = None) -> _Walk | None:
    """The walk from the identity by ``gens``, then by each of ``members`` it has not reached when it comes to it.

    Every element is walked as a permutation of Ω, a finite set of vectors
    that starts with the standard basis and is stable under the group: the
    union of the orbits of the basis vectors under ``gens`` (``_orbits``),
    or the distinct columns of ``members``, which a group's own columns
    are.  As g.e_j is column j of g, an element is known by its first rank
    images, the indices of its columns in Ω, and its matrix is built from
    them with no product once the walk is done.  A product is one
    composition of permutations in C: ``bytes.translate`` on tables padded
    to 256 entries when |Ω| <= 256, an ``itemgetter`` otherwise.

    The reached set grows by right-multiplying it by the generators,
    breadth first.  A member joins as a generator (the greedy generators of
    a list); elements reached before need only the product with it, newly
    reached ones take every generator, so every element meets every
    generator once.  Without ``members`` a closure beyond ``bound`` raises
    GroupTooLarge.  With them the walk keeps the member objects and returns
    None at the first product outside them, or at a generator's first image
    outside Ω, which the columns of a group contain: so it ends.
    """
    n = (gens or members)[0].rows
    ident = IntMatrix.identity(n)
    points = list(ident)  # Ω, the basis first
    where = dict(zip(points, range(n)))
    for v in chain.from_iterable(zip(*g) for g in members):
        if v not in where:
            where[v] = len(points)
            points.append(v)
    perms = dict(zip(gens, _orbits(gens, points, where, bound)))
    size = len(points)
    if size <= 256:
        pad = bytes(range(size, 256))
        pack, one = bytes, bytes(range(256))

        def move(images):  # x -> x @ g, which takes point i where x takes g's image of it: x[images[i]]
            return (bytes(images) + pad).translate
    else:
        pack, one = tuple, tuple(range(size))

        def move(images):  # the same, by an itemgetter
            return itemgetter(*images)
    keys = {g: pack([where[v] for v in zip(*g)]) for g in members}
    listed = {key: g for g, key in keys.items()}
    reached = [one]
    index = {one[:n]: 0}
    walk_gens: list[IntMatrix] = []
    moves: list = []
    edges: list[tuple[int, int, int]] = []
    # the members are tested against ``index`` as the walk comes to them
    for batch in chain([gens], ([g] for g in members if keys[g] not in index)):
        first = len(moves)
        for g in batch:
            images = perms[g] if g in perms else _images(g, points, where)
            if images is None:
                return None
            walk_gens.append(g)
            moves.append(move(images))
        known = len(reached)
        for i, x in enumerate(reached):  # the list grows as it is read
            for s in range(first if i < known else 0, len(moves)):
                y = moves[s](x)
                key = y[:n]
                j = index.get(key)
                if j is None:
                    if members:
                        if key not in listed:
                            return None
                    elif len(reached) == bound:
                        raise GroupTooLarge(f"group too large or infinite: closure exceeds {bound}")
                    j = index[key] = len(reached)
                    reached.append(y)
                edges.append((i, s, j))
            if not members:  # one batch: a row done is not read again
                reached[i] = None
    del reached  # the permutations go before the matrices come
    if members:
        elements = [listed[key] for key in index]
    else:  # the identity and the generators as they are; any other element by its columns, Ω[key[j]]
        elements = [ident]
        given = {pack(perms[g][:n]): g for g in gens}
        rows: dict[tuple[int, ...], tuple[int, ...]] = {}  # equal rows are shared
        for key in islice(index, 1, None):
            g = given.get(key)
            if g is None:
                g = IntMatrix._from_rows(tuple([rows.setdefault(r, r) for r in zip(*[points[c] for c in key])]), n)
            elements.append(g)
    return _Walk(tuple(elements), tuple(walk_gens), tuple(edges))


def _orbits(gens: Sequence[IntMatrix], points: list, where: dict, bound: int | None) -> list[list[int]]:
    """Grow ``points`` from the standard basis into Ω, the union of its orbits; each generator's images of Ω.

    Images are indices into ``points`` (``where`` maps each point to its
    index).  Ω is found breadth first, a layer of new points at a time: a
    basis vector's image is a column, read with no arithmetic, and a later
    layer's images are one ``matmul_rows`` of its points with a generator's
    columns.  Ω spans Z^rank, so the group acts on it faithfully, and it is
    finite exactly when the group is.  A new point is counted to the basis
    vector in whose orbit it was found; no orbit is larger than the group,
    so more than ``bound`` points counted to one basis vector refuse the
    group before it is walked.
    """
    n = len(points)
    columns = [tuple(zip(*g)) for g in gens]
    images: list[list[int]] = [[] for _ in gens]
    owner = list(range(n))  # the basis vector from whose orbit each point was found
    found = [1] * n  # the points found so far in each basis vector's orbit
    done = 0
    while done < len(points):
        start, done = done, len(points)
        for cols, image in zip(columns, images):
            for i, v in enumerate(matmul_rows(points[start:done], cols, n) if start else cols, start):
                k = where.setdefault(v, len(points))
                if k == len(points):
                    points.append(v)
                    owner.append(owner[i])
                    found[owner[i]] += 1
                    if found[owner[i]] > bound:
                        raise GroupTooLarge(f"group too large or infinite: closure exceeds {bound}")
                image.append(k)
    return images


def _images(g: IntMatrix, points: list, where: dict) -> list[int] | None:
    """The indices of g's images of Ω, or None when one lies outside it."""
    cols = tuple(zip(*g))
    images = [where.get(v) for v in chain(cols, matmul_rows(points[len(cols):], cols, len(cols)))]
    return None if None in images else images


def validate_and_close(spec: GroupSpec, form: IntMatrix | None = None) -> list[IntMatrix]:
    """Validate a group spec and return its full element list.

    A group larger than the spec's own bound, the ``closure_bound`` it was
    built with, is refused with GroupTooLarge.  Checks that every listed
    matrix is unimodular and preserves ``form`` when one is given, once per
    spec and form, then walks the group once per spec, which keeps its walk.
    A cyclic spec is walked by the powers of its generator, after its order
    (see :func:`matrix_order`), which the spec keeps.  A generated spec
    first has each generator's order checked, so an infinite-order generator
    is refused after a few packed residue products.  The orbits of the basis vectors then give Ω at
    |Ω| * |generators| matrix-vector products; Ω is finite exactly when the
    group is, and an orbit beyond the bound refuses it.  The group is then walked
    breadth first at |G| * |generators| compositions of permutations of Ω.
    An explicit list is proved to contain the identity and be product-closed
    by one walk of greedy generators S: Ω is the set of its columns, found
    with no arithmetic, each of S maps Ω into itself at |Ω| matrix-vector
    products (an image outside Ω proves the list not closed), and the walk
    takes O(|G| * |S|) compositions where the full table takes |G|^2
    products.  The list comes back in its own order.
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
        if self.rank < 0:
            raise ValueError("negative rank")
        if self.form is not None:
            if self.form.rows != self.rank or self.form.cols != self.rank:
                raise ValidationError("form has the wrong shape")
            if self.form != self.form.transpose():
                raise ValidationError("form is not symmetric")
        if self.group.size != self.rank:  # the spec's matrices are square and of one size
            raise ValidationError(f"matrix 0 is not {self.rank}x{self.rank}")
        self.group._check(self.form)

    def elements(self) -> list[IntMatrix]:
        return list(self._closure())

    def _memo(self, key: str, compute):
        """``compute()`` once per instance, kept beside the dataclass fields.

        The value is stored in the instance ``__dict__``, outside the
        fields, so equality, hashing and ``repr`` ignore it.  A fill is
        idempotent: two threads racing on it compute equal values and
        either one may be kept.
        """
        memo = self.__dict__
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def _closure(self) -> tuple[IntMatrix, ...]:
        """The group elements within the spec's bound, validated once."""
        return self._memo("_elements", lambda: tuple(validate_and_close(self.group, self.form)))

    def _walk(self) -> _Walk:
        """The walk that closed the group, kept by its spec: by the powers of a
        cyclic generator, the listed generators of a generated group, or the
        greedy generators of a list."""
        self._closure()  # validates the spec, which then keeps its walk
        return self.group._walk


@dataclass(frozen=True)
class Witness:
    """Certificate bases behind a cohomology value.

    For the cyclic method the numerator is a basis of ker(N) and the
    denominator generates eta(M); for the cocycle method they are bases of
    the cocycles and coboundaries in generator-value coordinates, on the
    generators of the lattice's walk (the listed ones of a generated lattice).
    """

    numerator_basis: IntMatrix
    denominator_gens: IntMatrix
    description: str


@dataclass(frozen=True)
class CohomologyResult:
    h0_rank: int
    h1: FinAbGroup
    method: str
    group_order: int
    witness: Witness | None = None

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
    generators, so only those enter the kernel computation.  The basis is
    computed once per lattice and kept with its closure.
    """
    def fixed() -> IntMatrix:  # every spec lists a matrix; at rank 0 the kernel is the 0x0 identity
        return kernel_basis(_stacked(m.group.matrices, IntMatrix.identity(m.rank)))

    return m._memo("_fixed", fixed)


def _h1(gens: Sequence[IntMatrix], rank: int) -> tuple[FinAbGroup, int]:
    """``(H^1, rank of M^G)`` for the finite group generated by ``gens`` acting on Z^rank.

    In generator-value coordinates Z^1 is saturated and B^1, the row lattice
    of B = [(s_1 - 1)^T | ... | (s_k - 1)^T], has finite index in it, so H^1
    is the torsion of coker(B) (Brown, *Cohomology of Groups*, III-IV).  B^T,
    the blocks s - 1 stacked, has the same invariant factors and the kernel
    M^G, so Z^rank modulo the rows of B^T is H^1 + Z^(rank M^G).  A repeated
    generator or the identity adds no row to that lattice, so its block is
    left out.
    """
    ident = IntMatrix.identity(rank)
    coker = subquotient(ident, _stacked([g for g in dict.fromkeys(gens) if g != ident], ident))
    return FinAbGroup(coker.invariant_factors), coker.free_rank


def _stacked(gens: Sequence[IntMatrix], ident: IntMatrix) -> IntMatrix:
    """B^T: the blocks g - 1 stacked, with no rows for no generators."""
    return IntMatrix._from_rows(tuple([row for g in gens for row in g - ident]), ident.cols)


def _cyclic_walk(powers: Sequence[IntMatrix]) -> _Walk:
    """The walk of <d> on d alone, for ``powers = [1, d, ..., d^(n-1)]``."""
    n = len(powers)
    return _Walk(tuple(powers), (powers[1 % n],), tuple([(j, 0, (j + 1) % n) for j in range(n)]))


def _result(m: GLattice, gens: Sequence[IntMatrix], order: int, method: str, witness: bool) -> CohomologyResult:
    """H^1 of ``m``, whose group of ``order`` elements ``gens`` generate; a witness
    holds the rows of B, one per basis vector x, and the Hermite basis of their saturation Z^1."""
    h1, h0_rank = _h1(gens, m.rank)
    cert = None
    if witness:
        b1 = _stacked(gens, IntMatrix.identity(m.rank)).transpose()
        z1 = kernel_basis(kernel_basis(b1))
        if method == "cyclic":  # row i of -B^1 = (1 - d)^T is eta applied to the i-th basis vector
            cert = Witness(z1, -b1, "ker(N) basis and eta(M) generators")
        else:
            cert = Witness(z1, b1, "cocycle and coboundary bases (generator-value coordinates)")
    return CohomologyResult(h0_rank=h0_rank, h1=h1, method=method, group_order=order, witness=cert)


def h1_cyclic(m: GLattice, witness: bool = False) -> CohomologyResult:
    """H^1 for a cyclic action <d>: the torsion of coker(d - 1), which is ker(N) / eta(M).

    ``N`` is the norm 1 + d + ... + d^(n-1) and eta = 1 - d; the cocycles
    and coboundaries are built only for a witness.  Only d and its order are
    needed (Brown, *Cohomology of Groups*, III.1): no walk, one ``subquotient``.
    """
    if not isinstance(m.group, Cyclic):
        raise ValidationError("h1_cyclic needs a cyclic group spec")
    return _result(m, m.group.matrices, m.group._order, "cyclic", witness)


def h1_cocycle(m: GLattice, witness: bool = False) -> CohomologyResult:
    """H^1 by crossed homomorphisms, for an arbitrary finite group.

    Cocycles are taken in the coordinates of their values on the generators
    of the lattice's walk (see ``_h1``): the listed generators of a
    generated lattice, the greedy generators of a list.  A repeated listed
    generator or the identity adds no rows of B^T; any other redundant one
    adds ``rank`` and changes neither H^1 nor the rank of M^G.  Only the closure's bound limits the group.
    """
    walk = m._walk()
    return _result(m, walk.gens, len(walk.elements), "cocycle", witness)


def h1(m: GLattice, witness: bool = False) -> CohomologyResult:
    """H^1 of the action: cyclic formula when available, cocycles otherwise."""
    if isinstance(m.group, Cyclic):
        return h1_cyclic(m, witness=witness)
    return h1_cocycle(m, witness=witness)


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
        m._closure()  # verifies closure and identity, and keeps the elements
    return m


def direct_sum(m1: GLattice, m2: GLattice) -> GLattice:
    """Block-diagonal action on the direct sum of the two lattices.

    Both sides must present the same abstract group in the same way; the
    listed matrices are paired positionally.  A rank-0 summand is absorbed,
    whatever its presentation, since only one group can act on 0.  A list
    or generated pairing is proved on the summands' kept walks, with no
    matrix product: both must trace one Cayley graph and pair the listed
    matrices as the lists do.  The sum keeps the paired walk and the block
    form its summands have passed, so it is not validated or walked again;
    its bound is the larger of the summands' bounds.
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
        gen = IntMatrix.block_diag(m1.group.generator, m2.group.generator)
        return GLattice(m1.rank + m2.rank, Cyclic(gen, bound), form)
    if isinstance(m1.group, Explicit):
        counts, tables = "element counts differ", "multiplication tables differ"
    else:
        counts, tables = "generator counts differ", "generator pairing is not an isomorphism"
    listed = m1.group.matrices, m2.group.matrices
    if len(listed[0]) != len(listed[1]):
        raise GroupMismatch(f"group mismatch: {counts}")
    w1, w2 = m1.group._checked_walk(), m2.group._checked_walk()
    # with equal edges w1.elements[k] -> w2.elements[k] is an isomorphism:
    # it maps the identity to the identity and respects each product a.s
    pair = dict(zip(w1.elements, w2.elements))
    if w1.edges != w2.edges or any(pair[a] != b for a, b in zip(*listed)):
        raise GroupMismatch(f"group mismatch: {tables}")
    block = {a: IntMatrix.block_diag(a, b) for a, b in pair.items()}
    paired = [block[a] for a in listed[0]]
    spec = type(m1.group)(paired, bound)
    walk = _Walk(tuple(block.values()), tuple([block[s] for s in w1.gens]), w1.edges)
    return GLattice(m1.rank + m2.rank, spec._keep(walk, form), form)


def restrict_subgroup(m: GLattice, elements: IntMatrix | Sequence[IntMatrix]) -> GLattice:
    """Restrict the action to a subgroup.

    A single matrix restricts to the cyclic subgroup it generates; a list
    must be product-closed, contain the identity, and consist of members of
    the acting group.
    """
    full = set(m._closure())
    if isinstance(elements, IntMatrix):
        elements = [elements]
    subset = [e if isinstance(e, IntMatrix) else IntMatrix(e) for e in elements]
    for g in subset:
        if g not in full:
            raise NotSubgroup("subset not a subgroup: element does not belong to the group")
    if not subset:
        raise NotSubgroup("subset not a subgroup: the empty set has no identity")
    bound = m.group.closure_bound  # a subgroup is no larger than the group
    if len(subset) == 1:
        return GLattice(m.rank, Cyclic(subset[0], bound), m.form)
    spec = Explicit(subset, bound)
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

    Powers and conjugates are read off the walk's Schreier table: no matrix
    product after the closure.  Conjugate subgroups have isomorphic H^1
    (Brown, *Cohomology of Groups*, III.8), so ``_h1`` runs once per
    orbit of subgroups under x -> s^-1 x s by the walk's generators s.
    """
    elements = m._closure()
    full = h1(m)
    walk = m._walk()
    (right, _), times = walk.table, walk.times
    conjugations = []
    for s in {right[0][s]: s for s in range(len(walk.gens))}.values():  # one per distinct generator
        inverse = right[0][s]  # s, s^2, ... up to the power before the identity
        while right[inverse][s]:
            inverse = right[inverse][s]
        conjugations.append([right[times(inverse, x)][s] for x in range(len(right))])
    at = {x: i for i, x in enumerate(walk.elements)}
    entries: list[SubgroupEntry] = []
    known: dict[frozenset[int], FinAbGroup] = {}
    covered: set[int] = set()  # the generators of the subgroups entered so far
    for idx, g in enumerate(elements):
        x = at[g]
        if x in covered:
            continue
        powers, p = [0], x
        while p:  # index 0 is the identity
            powers.append(p)
            p = times(p, x)
        n = len(powers)
        covered.update(powers[k] for k in range(n) if gcd(k, n) == 1)
        key = frozenset(powers)
        if key not in known:
            known[key] = _h1((walk.elements[x],), m.rank)[0]
            orbit = [key]
            for c in orbit:  # the list grows as it is read
                for conj in conjugations:
                    image = frozenset([conj[y] for y in c])
                    if image not in known:
                        known[image] = known[key]
                        orbit.append(image)
        entries.append(SubgroupEntry(idx, n, known[key]))
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
