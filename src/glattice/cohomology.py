"""Finite group actions on integer lattices and their first cohomology.

A G-lattice is a free Z-module of finite rank on which a finite matrix group
acts by unimodular integer matrices (acting on column vectors).  H^1 is
computed two ways:

* for a cyclic group of order n with generator d, as ker(N)/eta(M) where
  N = 1 + d + ... + d^(n-1) and eta = 1 - d in the group ring;
* for an arbitrary finite group, from crossed homomorphisms
  f(gh) = f(g) + g.f(h) modulo the principal ones f(g) = g.m - m.

Both methods return the isomorphism type as a :class:`FinAbGroup`; H^1 of a
finite group acting on a lattice is always finite and annihilated by the
group order, which is asserted on every run.

Group elements are found by walking from the identity.  A ``list`` spec is
proved closed by one walk (``_closed_walk``): greedy generators S are picked
in list order, their span is grown by right multiplication, and every
product must land in the list, O(|G| * |S|) products in all rather than
the |G|^2 of the full multiplication table.  Orders come from residues
mod 3 and one exact confirmation: by Minkowski's lemma the kernel of
GL_n(Z) -> GL_n(F_3) is torsion-free, so a finite order equals the order
mod 3, and an infinite-order input is refused after a few cheap products
instead of ``bound`` growing exact ones.

Each :class:`GLattice` keeps its closure (default bound), its greedy
generators and its fixed lattice after first use, so ``obstruction_scan``,
``h1_cocycle``, ``restrict_subgroup`` and ``invariants_h0`` walk a group
once however often they are called.

All inputs and outputs are immutable; every function here is pure and safe
for concurrent use.  The per-lattice cache is filled idempotently: a value
computed twice by racing threads is the same value either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .intlinalg import (
    FinAbGroup,
    IntMatrix,
    kernel_basis,
    matmul_rows,
    subquotient,
)

DEFAULT_ORDER_BOUND = 10_000
COCYCLE_ORDER_CAP = 200
COCYCLE_RANK_CAP = 32


class ValidationError(ValueError):
    """An action matrix violates the G-lattice invariants."""


class GroupTooLarge(ValueError):
    """Closure exceeded its bound: the group is too large or infinite."""


class GroupMismatch(ValueError):
    """Two G-lattices do not carry matching group data."""


class NotSubgroup(ValueError):
    """A supplied subset of group elements is not a subgroup."""


# ---------------------------------------------------------------------------
# group specifications


class GroupSpec:
    """How the acting group is presented; see the concrete subclasses."""

    def listed_matrices(self) -> tuple[IntMatrix, ...]:
        raise NotImplementedError

    @property
    def size(self) -> int:
        """Matrix dimension (the lattice rank the spec acts on)."""
        mats = self.listed_matrices()
        return mats[0].rows if mats else 0


def _as_matrix_tuple(mats: Sequence[IntMatrix], what: str) -> tuple[IntMatrix, ...]:
    out = []
    for m in mats:
        if not isinstance(m, IntMatrix):
            m = IntMatrix(m)
        out.append(m)
    if not out:
        raise ValueError(f"{what} requires at least one matrix")
    n = out[0].rows
    for m in out:
        if not m.is_square or m.rows != n:
            raise ValidationError(f"{what}: matrices must all be square of the same size")
    return tuple(out)


class Cyclic(GroupSpec):
    """Cyclic group presented by a single generator of finite order."""

    __slots__ = ("generator",)

    def __init__(self, generator):
        (self.generator,) = _as_matrix_tuple([generator], "Cyclic")

    def listed_matrices(self) -> tuple[IntMatrix, ...]:
        return (self.generator,)

    def __eq__(self, other):
        return isinstance(other, Cyclic) and self.generator == other.generator

    def __hash__(self):
        return hash(("Cyclic", self.generator))

    def __repr__(self):
        return f"Cyclic({self.generator!r})"


class Explicit(GroupSpec):
    """Full element list, closed under product and containing the identity."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[IntMatrix]):
        self.elements = _as_matrix_tuple(elements, "Explicit")

    def listed_matrices(self) -> tuple[IntMatrix, ...]:
        return self.elements

    def __eq__(self, other):
        return isinstance(other, Explicit) and self.elements == other.elements

    def __hash__(self):
        return hash(("Explicit", self.elements))

    def __repr__(self):
        return f"Explicit({len(self.elements)} elements)"


class Generated(GroupSpec):
    """Group given by generators; closed by multiplication on demand."""

    __slots__ = ("generators", "closure_bound")

    def __init__(self, generators: Sequence[IntMatrix], closure_bound: int = DEFAULT_ORDER_BOUND):
        self.generators = _as_matrix_tuple(generators, "Generated")
        if closure_bound < 1:
            raise ValueError("closure bound must be positive")
        self.closure_bound = closure_bound

    def listed_matrices(self) -> tuple[IntMatrix, ...]:
        return self.generators

    def __eq__(self, other):
        return (
            isinstance(other, Generated)
            and self.generators == other.generators
            and self.closure_bound == other.closure_bound
        )

    def __hash__(self):
        return hash(("Generated", self.generators, self.closure_bound))

    def __repr__(self):
        return f"Generated({len(self.generators)} generators, bound={self.closure_bound})"


def matrix_order(g: IntMatrix, bound: int = DEFAULT_ORDER_BOUND) -> int:
    """Multiplicative order of ``g``; error if it exceeds ``bound``.

    The candidate order ``k`` is the order of ``g`` mod 3, found on
    residues in {-1, 0, 1}; ``g^k == I`` is then confirmed exactly by
    binary powering from ``g``.  By Minkowski's lemma a finite order equals
    the order mod 3, so a failed confirmation proves the order infinite.
    Cost: k - 1 residue products plus at most 2 log2(k) exact ones (one for
    an involution, two for order 3, three for order 5).
    """

    def mod3(rows):
        return tuple([tuple([(x + 1) % 3 - 1 for x in row]) for row in rows])

    ident = IntMatrix.identity(g.rows)
    one = tuple(ident)
    residue = mod3(g)
    p = residue
    k = 1
    while p != one:
        p = mod3(matmul_rows(p, residue, g.cols))
        k += 1
        if k > bound:
            raise GroupTooLarge(f"group too large or infinite: order exceeds {bound}")
    power = g
    for bit in bin(k)[3:]:
        power = power @ power
        if bit == "1":
            power = power @ g
    if power != ident:
        raise GroupTooLarge(f"group too large or infinite: order exceeds {bound}")
    return k


def mulclose(generators: Sequence[IntMatrix], bound: int = DEFAULT_ORDER_BOUND) -> list[IntMatrix]:
    """Closure of the generators under multiplication, in breadth-first order."""
    if not generators:
        raise ValueError("no generators")
    ident = IntMatrix.identity(generators[0].rows)
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in generators:
                b = a @ g
                if b not in seen:
                    seen.add(b)
                    elements.append(b)
                    new.append(b)
                    if len(elements) > bound:
                        raise GroupTooLarge(
                            f"group too large or infinite: closure exceeds {bound}"
                        )
        frontier = new
    return elements


def _closed_walk(
    elements: Sequence[IntMatrix], members: set[IntMatrix]
) -> tuple[list[IntMatrix], IntMatrix | None]:
    """Greedy generators of ``elements`` and the first product to leave ``members``.

    Generators are picked in list order: each is the first element the
    walk has not reached yet.  The reached set starts at the identity and
    grows by right-multiplying it by the generators; after a new generator
    joins, elements reached before need only the product with it, while
    newly reached ones take every generator, so a step costs at most
    |reached| * |generators| products.  Returns ``(generators, None)`` when
    every product stays inside ``members``: the reached set is then the
    subgroup the generators span, and it contains every listed element.
    Otherwise the walk stops at the first product outside ``members`` and
    returns it; it never leaves the finite set ``members``, so it ends.
    """
    ident = IntMatrix.identity(elements[0].rows)
    reached = [ident]
    seen = {ident}
    gens: list[IntMatrix] = []
    for g in elements:
        if g in seen:
            continue
        gens.append(g)
        new_only = gens[-1:]
        known = len(reached)
        i = 0
        while i < len(reached):
            x = reached[i]
            for s in new_only if i < known else gens:
                y = x @ s
                if y not in seen:
                    if y not in members:
                        return gens, y
                    seen.add(y)
                    reached.append(y)
            i += 1
    return gens, None


def validate_and_close(
    spec: GroupSpec,
    order_bound: int | None = None,
    form: IntMatrix | None = None,
) -> list[IntMatrix]:
    """Validate a group spec and return its full element list.

    Checks that every listed matrix is unimodular and preserves ``form``
    when one is given.  Cyclic specs are expanded into the powers of the
    generator.  Generated specs first have each generator's order checked
    (see :func:`matrix_order`), so an infinite-order generator is refused
    after a few residue products, and are then closed by ``mulclose`` at
    |G| * |generators| products.  Explicit specs are verified to contain
    the identity and be product-closed by one generator walk
    (``_closed_walk``), O(|G| * |S|) products for a greedy generating set
    S instead of the |G|^2 of the full multiplication table.
    """
    if order_bound is None:
        order_bound = spec.closure_bound if isinstance(spec, Generated) else DEFAULT_ORDER_BOUND
    if order_bound < 1:
        raise ValueError("order bound must be positive")
    for i, g in enumerate(spec.listed_matrices()):
        if not g.is_unimodular():
            raise ValidationError(f"matrix {i} is not unimodular")
        if form is not None and g.transpose() @ form @ g != form:
            raise ValidationError(f"matrix {i} does not preserve the bilinear form")
    if isinstance(spec, Cyclic):
        n = matrix_order(spec.generator, order_bound)
        ident = IntMatrix.identity(spec.size)
        powers = [ident]
        for _ in range(n - 1):
            powers.append(powers[-1] @ spec.generator)
        return powers
    if isinstance(spec, Generated):
        for g in spec.generators:
            try:
                matrix_order(g, order_bound)
            except GroupTooLarge:
                # the closure holds every power of g, so it exceeds the bound too
                raise GroupTooLarge(
                    f"group too large or infinite: closure exceeds {order_bound}"
                ) from None
        return mulclose(spec.generators, order_bound)
    if isinstance(spec, Explicit):
        elems = spec.elements
        if len(elems) > order_bound:
            raise GroupTooLarge(f"group too large or infinite: {len(elems)} > {order_bound}")
        seen = set(elems)
        if len(seen) != len(elems):
            raise ValidationError("Explicit element list contains duplicates")
        if IntMatrix.identity(spec.size) not in seen:
            raise ValidationError("Explicit element list is missing the identity")
        if _closed_walk(elems, seen)[1] is not None:
            raise ValidationError("Explicit element list is not closed under products")
        return list(elems)
    raise TypeError(f"unknown group spec {spec!r}")


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
        for i, g in enumerate(self.group.listed_matrices()):
            if g.rows != self.rank or g.cols != self.rank:
                raise ValidationError(f"matrix {i} is not {self.rank}x{self.rank}")
            if not g.is_unimodular():
                raise ValidationError(f"matrix {i} is not unimodular")
            if self.form is not None and g.transpose() @ self.form @ g != self.form:
                raise ValidationError(f"matrix {i} does not preserve the bilinear form")

    def elements(self, order_bound: int | None = None) -> list[IntMatrix]:
        if order_bound is not None:
            return validate_and_close(self.group, order_bound, self.form)
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
        """The group elements with the default bound, validated once."""
        return self._memo("_elements", lambda: tuple(validate_and_close(self.group, None, self.form)))

    def _generator_order(self) -> int:
        """The order of a cyclic group's generator with the default bound, found once."""
        return self._memo("_order", lambda: matrix_order(self.group.generator))

    def _walk_generators(self) -> tuple[IntMatrix, ...]:
        """Greedy generating subset of :meth:`_closure`, in element order."""

        def walk():
            elems = self._closure()
            return tuple(_closed_walk(elems, set(elems))[0])

        return self._memo("_generators", walk)

    def generator_matrices(self) -> tuple[IntMatrix, ...]:
        return self.group.listed_matrices()


@dataclass(frozen=True)
class Witness:
    """Certificate bases behind a cohomology value.

    For the cyclic method the numerator is a basis of ker(N) and the
    denominator generates eta(M); for the cocycle method they are bases of
    the cocycles and coboundaries in generator-value coordinates.
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
    def fixed() -> IntMatrix:
        gens = m.generator_matrices()
        if not gens or m.rank == 0:
            return IntMatrix.identity(m.rank)
        ident = IntMatrix.identity(m.rank)
        return kernel_basis(IntMatrix.stack([g - ident for g in gens]))

    return m._memo("_fixed", fixed)


def h1_cyclic(m: GLattice, witness: bool = False, order_bound: int | None = None) -> CohomologyResult:
    """H^1 for a cyclic action, as ker(N) / eta(M).

    ``N`` is the norm 1 + d + ... + d^(n-1) of the generator d and
    eta = 1 - d; the image eta(M) always lands inside ker(N), which the
    subquotient computation verifies as a side effect.
    """
    if not isinstance(m.group, Cyclic):
        raise ValidationError("h1_cyclic needs a cyclic group spec")
    delta = m.group.generator
    n = matrix_order(delta, order_bound) if order_bound else m._generator_order()
    powers = [IntMatrix.identity(m.rank)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ delta)
    h1, ker, eta_image = _norm_quotient(powers)
    return CohomologyResult(
        h0_rank=invariants_h0(m).rows,
        h1=h1,
        method="cyclic",
        group_order=n,
        witness=Witness(ker, eta_image, "ker(N) basis and eta(M) generators") if witness else None,
    )


def _norm_quotient(powers: list[IntMatrix]) -> tuple[FinAbGroup, IntMatrix, IntMatrix]:
    """``(ker(N) / eta(M), ker(N) basis, eta(M) generators)`` for the cyclic
    group whose elements are ``powers = [1, d, ..., d^(n-1)]``."""
    norm = powers[0]
    for power in powers[1:]:
        norm = norm + power
    eta = powers[0] - powers[1 % len(powers)]  # 1 - d; d is 1 when n == 1
    ker = kernel_basis(norm)
    eta_image = eta.transpose()  # row i is eta applied to the i-th basis vector
    return subquotient(ker, eta_image), ker, eta_image


def h1_cocycle(
    m: GLattice,
    witness: bool = False,
    order_cap: int = COCYCLE_ORDER_CAP,
    rank_cap: int = COCYCLE_RANK_CAP,
) -> CohomologyResult:
    """H^1 by crossed homomorphisms, for an arbitrary finite group.

    A cocycle is determined by its values on a generating set S: walking the
    Cayley graph expresses every f(g) as an integer-linear function of the
    f(s), and the relations f(s.h) = f(s) + s.f(h) over all s in S, h in G
    cut out the cocycle lattice Z^1 inside Z^(|S| * rank).  Coboundaries map
    to ((s - 1)x)_{s in S}, and H^1 is the subquotient.
    """
    order = len(m._closure())
    if order > order_cap:
        raise GroupTooLarge(f"cocycle computation refused: group order {order} > {order_cap}")
    if m.rank > rank_cap:
        raise GroupTooLarge(f"cocycle computation refused: rank {m.rank} > {rank_cap}")
    r = m.rank
    gens = m._walk_generators()
    s = len(gens)
    ident = IntMatrix.identity(r)

    if s == 0 or r == 0:
        empty = IntMatrix([], cols=s * r)
        return CohomologyResult(
            h0_rank=invariants_h0(m).rows,
            h1=FinAbGroup(),
            method="cocycle",
            group_order=order,
            witness=Witness(empty, empty, "cocycle and coboundary bases (generator-value coordinates)") if witness else None,
        )

    # T[g]: r x (s*r) matrix with f(g) = T[g] . (f(s_0), ..., f(s_{s-1})).
    # Each edge h -> g.h of the walk either defines T[g.h] (a tree edge,
    # whose relation holds by construction) or yields the residual of the
    # relation f(g.h) = f(g) + g.f(h) as constraint rows.
    slot = {}
    for k, g in enumerate(gens):
        e = IntMatrix.zeros(r, s * r).tolists()
        for i in range(r):
            e[i][k * r + i] = 1
        slot[g] = IntMatrix(e, cols=s * r)
    t = {ident: IntMatrix.zeros(r, s * r)}
    constraint_rows: list[tuple[int, ...]] = []
    frontier = [ident]
    while frontier:
        new = []
        for h in frontier:
            th = t[h]
            for g in gens:
                gh = g @ h
                image = slot[g] + g @ th
                known = t.get(gh)
                if known is None:
                    t[gh] = image
                    new.append(gh)
                    continue
                for row in known - image:
                    if any(row):
                        constraint_rows.append(row)
        frontier = new
    assert len(t) == order

    constraints = IntMatrix(constraint_rows, cols=s * r)
    z1 = kernel_basis(constraints)
    b1 = IntMatrix(
        [[x for g in gens for x in (g - ident).column(i)] for i in range(r)],
        cols=s * r,
    )
    h1 = subquotient(z1, b1)
    return CohomologyResult(
        h0_rank=invariants_h0(m).rows,
        h1=h1,
        method="cocycle",
        group_order=order,
        witness=Witness(z1, b1, "cocycle and coboundary bases (generator-value coordinates)") if witness else None,
    )


def h1(m: GLattice, witness: bool = False, check: bool = False) -> CohomologyResult:
    """H^1 of the action: cyclic formula when available, cocycles otherwise.

    With ``check=True`` a cyclic input is run through both methods and the
    results are asserted equal before returning the cyclic one.
    """
    if isinstance(m.group, Cyclic):
        res = h1_cyclic(m, witness=witness)
        if check:
            other = h1_cocycle(m, witness=False)
            if other.h1 != res.h1 or other.h0_rank != res.h0_rank:
                raise AssertionError(
                    f"method disagreement: cyclic {res.h1} vs cocycle {other.h1}"
                )
        return res
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
    whatever its presentation, since only one group can act on 0.
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
    if isinstance(m1.group, Cyclic):
        gen = IntMatrix.block_diag(m1.group.generator, m2.group.generator)
        return GLattice(m1.rank + m2.rank, Cyclic(gen), form)
    if isinstance(m1.group, Explicit):
        e1, e2 = m1.group.elements, m2.group.elements
        if len(e1) != len(e2):
            raise GroupMismatch("group mismatch: element counts differ")
        idx1 = {g: i for i, g in enumerate(e1)}
        idx2 = {g: i for i, g in enumerate(e2)}
        for i in range(len(e1)):
            for j in range(len(e1)):
                if idx1[e1[i] @ e1[j]] != idx2[e2[i] @ e2[j]]:
                    raise GroupMismatch("group mismatch: multiplication tables differ")
        paired = [IntMatrix.block_diag(a, b) for a, b in zip(e1, e2)]
        return GLattice(m1.rank + m2.rank, Explicit(paired), form)
    if isinstance(m1.group, Generated):
        g1, g2 = m1.group.generators, m2.group.generators
        if len(g1) != len(g2):
            raise GroupMismatch("group mismatch: generator counts differ")
        bound = max(m1.group.closure_bound, m2.group.closure_bound)
        paired = [IntMatrix.block_diag(a, b) for a, b in zip(g1, g2)]
        n1 = len(mulclose(list(g1), bound))
        n2 = len(mulclose(list(g2), bound))
        n12 = len(mulclose(paired, bound))
        if not (n1 == n2 == n12):
            raise GroupMismatch("group mismatch: generator pairing is not an isomorphism")
        return GLattice(m1.rank + m2.rank, Generated(paired, bound), form)
    raise TypeError(f"unknown group spec {m1.group!r}")


def restrict_subgroup(m: GLattice, elements: IntMatrix | Sequence[IntMatrix]) -> GLattice:
    """Restrict the action to a subgroup.

    A single matrix restricts to the cyclic subgroup it generates; a list
    must be product-closed, contain the identity, and consist of members of
    the acting group.
    """
    full = set(m._closure())
    if isinstance(elements, IntMatrix):
        subset: list[IntMatrix] = [elements]
        single = True
    else:
        subset = [e if isinstance(e, IntMatrix) else IntMatrix(e) for e in elements]
        single = len(subset) == 1
    for g in subset:
        if g not in full:
            raise NotSubgroup("subset not a subgroup: element does not belong to the group")
    if single:
        return GLattice(m.rank, Cyclic(subset[0]), m.form)
    seen = set(subset)
    if len(seen) != len(subset):
        raise NotSubgroup("subset not a subgroup: duplicate elements")
    if IntMatrix.identity(m.rank) not in seen:
        raise NotSubgroup("subset not a subgroup: identity missing")
    if _closed_walk(subset, seen)[1] is not None:
        raise NotSubgroup("subset not a subgroup: not closed under products")
    return GLattice(m.rank, Explicit(subset), m.form)


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
    """
    elements = m._closure()
    full = h1(m)
    ident = IntMatrix.identity(m.rank)
    entries: list[SubgroupEntry] = []
    seen_subgroups: set[frozenset[IntMatrix]] = set()
    for idx, g in enumerate(elements):
        powers = [ident]
        power = g
        while power != ident:
            powers.append(power)
            power = power @ g
        key = frozenset(powers)
        if key in seen_subgroups:
            continue
        seen_subgroups.add(key)
        entries.append(SubgroupEntry(idx, len(powers), _norm_quotient(powers)[0]))
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
