"""Exact integer matrix algebra: Hermite and Smith normal forms, integer
kernels, subquotient structure, ranks over F_p and characteristic
polynomials.

Everything runs on Python's arbitrary-precision integers, with no floating
point; coefficient blowup costs speed, never correctness.  Conventions:

* matrices act on column vectors; a sublattice is given by a matrix whose
  rows span it;
* Hermite form is row-style upper echelon with positive pivots and the
  entries above each pivot reduced into ``[0, pivot)``;
* invariant factors are listed smallest first, each dividing the next.

Every reduced Hermite basis (``hermite_form``, ``row_basis``,
``kernel_basis``, ``express_in_row_basis``, ``subquotient``) is made by
inserting rows one at a time into a basis kept in reduced Hermite form
(``_insert_row``, after Kannan and Bachem), which bounds the growth of the
entries above the pivots.  Column elimination (``_clear_below``, which
zeroes a column below its pivot) is left where no reduced basis is read:
``kernel_basis``'s first pass, which keeps only the transforms of the rows
that clear to zero, and ``smith_form``, on rows and on columns.  Outside
``smith_form`` a transform, when kept, is its row's tail: one call for both.

The actions met in practice (permutation modules, de Jonquieres and Weyl
group elements) are mostly zeros with tiny entries, so the kernels are
sparse-aware: ``A @ B`` sums ``a * B[k]`` over the nonzero ``a`` of each row
of ``A`` (Gustavson), adding a row ``B[k]`` with fewer than a quarter
nonzeros at its nonzero columns alone; row and column operations skip zero
source entries, and a pivot row subtracted from many rows has its nonzero
columns found once for each state of the pivot, found again after an xgcd
step rewrites it; ``det`` skips the Bareiss updates that are the identity;
``kernel_basis`` eliminates the sparsest rows first (``_fill_in_order``);
``subquotient`` of the identity basis solves nothing.
Characteristic polynomials are computed modulo the narrowest listed prime
above their coefficient bound, and each product of ``A`` with a vector is one
big-integer product per column of ``A`` (see ``char_poly``).

Values are immutable and functions pure, so the module is thread-safe.
"""

from __future__ import annotations

from itertools import chain, compress
from math import gcd, isqrt
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from ._record import Record

__all__ = [
    "FinAbGroup",
    "IntMatrix",
    "NotSublattice",
    "SmithForm",
    "char_poly",
    "express_in_row_basis",
    "hermite_form",
    "kernel_basis",
    "poly_eval",
    "poly_mul",
    "poly_pow",
    "poly_str",
    "row_basis",
    "smith_form",
    "subquotient",
    "xgcd",
]


class NotSublattice(ValueError):
    """Raised when a vector falls outside the lattice that should contain it."""


def _require_int_entries(rows: Iterable[tuple]) -> None:
    """Raise TypeError at the first entry, row by row, that is a bool or no ``int``."""
    for x in chain.from_iterable(rows):
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"integer entry required, got {x!r}")


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(x, y, g)`` with ``x*a + y*b == g == gcd(a, b)`` and ``g >= 0``.

    The pair is the one the extended Euclidean algorithm ends on: x is the
    inverse of a/g modulo m = |b|/g of least absolute value, the positive
    one of a tie (m = 2) only when b > 0, and x = 0 when m = 1: one ``pow``
    in C, with no Python step per quotient.
    """
    g = gcd(a, b)
    if not b:
        return (-1 if a < 0 else 1), 0, g
    m = abs(b) // g
    if m == 1:
        return 0, (-1 if b < 0 else 1), g
    x = pow(a // g, -1, m)
    if 2 * x > m or (2 * x == m and b < 0):
        x -= m
    return x, (g - a * x) // b, g


class IntMatrix:
    """An immutable matrix of arbitrary-precision integers.

    Rows are exposed as tuples: ``A[i]`` is a row, ``A[i][j]`` an entry.
    ``A.rows`` and ``A.cols`` are the dimensions.  Empty matrices (zero rows
    and/or zero columns) are legal everywhere; construct them by passing
    ``cols=`` explicitly when there are no rows to infer the width from.

    The public constructor validates every entry and the row lengths.
    Results built from valid matrices (arithmetic, ``transpose``, the
    constructors and the normal forms) skip the checks through
    ``_from_rows``, whose rows must be tuples of ``int`` of the stated width.
    """

    __slots__ = ("_data", "_cols")

    def __init__(self, rows: Iterable[Iterable[int]], *, cols: int | None = None):
        # C-level passes over the rows and over all entries; only input that fails them takes the
        # entry loop, which names the first defect in row order, as a loop over each row would
        data: list[tuple[int, ...]] = []
        try:
            data.extend(map(tuple, rows))  # the rows before one that is not iterable stay in ``data``
        except TypeError:
            _require_int_entries(data)
            raise
        if not {int}.issuperset(map(type, chain.from_iterable(data))):
            _require_int_entries(data)  # an int subclass passes
        if data:
            width = len(data[0])
            if not {width}.issuperset(map(len, data)):
                raise ValueError("rows have inconsistent lengths")
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, got {width}")
        else:
            width = 0 if cols is None else cols
        if width < 0:
            raise ValueError("negative column count")
        self._data = tuple(data)
        self._cols = width

    @classmethod
    def _from_rows(cls, data: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """Wrap rows that are already valid, without checking them."""
        m = object.__new__(cls)
        m._data = data
        m._cols = cols
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._from_rows(tuple([(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._from_rows(((0,) * cols,) * rows, cols)

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntMatrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def stack(cls, blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        """Vertical concatenation; all blocks must share a column count."""
        if not blocks:
            raise ValueError("nothing to stack")
        cols = blocks[0].cols
        rows: list[tuple[int, ...]] = []
        for b in blocks:
            if b.cols != cols:
                raise ValueError("column counts differ")
            rows.extend(b._data)
        return cls._from_rows(tuple(rows), cols)

    @classmethod
    def block_diag(cls, a: "IntMatrix", b: "IntMatrix") -> "IntMatrix":
        rows = [row + (0,) * b.cols for row in a._data]
        rows += [(0,) * a.cols + row for row in b._data]
        return cls._from_rows(tuple(rows), a.cols + b.cols)

    @property
    def rows(self) -> int:
        return len(self._data)

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def is_square(self) -> bool:
        return len(self._data) == self._cols

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._data)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self._data)

    def tolists(self) -> list[list[int]]:
        return [list(row) for row in self._data]

    def transpose(self) -> "IntMatrix":
        if not self._data:
            return IntMatrix._from_rows(((),) * self._cols, 0)
        # tuple() of a list is sized once; of a bare iterator it grows by
        # resizing, which measurably raises peak memory
        return IntMatrix._from_rows(tuple(list(zip(*self._data))), self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self._cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return IntMatrix._from_rows(tuple(matmul_rows(self._data, other._data, other._cols)), other._cols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self._cols != other._cols:
            raise ValueError("shape mismatch")
        return IntMatrix._from_rows(
            tuple([tuple([a + b for a, b in zip(r1, r2)]) for r1, r2 in zip(self._data, other._data)]),
            self._cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self._cols != other._cols:
            raise ValueError("shape mismatch")
        return IntMatrix._from_rows(
            tuple([tuple([a - b for a, b in zip(r1, r2)]) for r1, r2 in zip(self._data, other._data)]),
            self._cols,
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._from_rows(tuple([tuple([-x for x in row]) for row in self._data]), self._cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self._cols == other._cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self._cols, self._data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.tolists()!r})"

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination.

        Step k replaces ``a[i][j]`` by ``(a[i][j] * p - a[i][k] * a[k][j]) //
        prev`` for the pivot ``p = a[k][k]``.  When ``p == prev`` a row with
        ``a[i][k] == 0`` is left as it is and any other row changes only
        where the pivot row is nonzero; a pivot equal to ``-prev`` is brought
        to that case by negating its row (and the determinant).  Otherwise a
        row with ``a[i][k] == 0`` is only rescaled by ``p / prev``.
        """
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.tolists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            ak = a[k]
            if ak[k] == -prev:
                ak = a[k] = [-x for x in ak]
                sign = -sign
            p = ak[k]
            if p == prev:
                # exact: a[i][j] * prev - x * a[k][j] is divisible by prev,
                # hence so is x * a[k][j]
                support = [j for j in range(k + 1, n) if ak[j]]
                for ai in a[k + 1:]:
                    x = ai[k]
                    if x:
                        for j in support:
                            ai[j] -= x * ak[j] // prev
            else:
                for ai in a[k + 1:]:
                    x = ai[k]
                    if x:
                        for j in range(k + 1, n):
                            ai[j] = (ai[j] * p - x * ak[j]) // prev
                    else:
                        for j in range(k + 1, n):
                            ai[j] = ai[j] * p // prev
                prev = p
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.is_square and self.det() in (1, -1)


def matmul_rows(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Rows of the product of ``a`` and ``b``, where ``b`` has ``width`` columns.

    Output row i is the sum of ``x * b[k]`` over the nonzero entries
    ``x = a[i][k]``, which ``compress`` finds; rows of ``a`` with no nonzero
    entry share one zero tuple.  The first term starts the sum (``b[k]``
    itself when ``x`` is 1).  A later row ``b[k]`` with fewer than a quarter
    nonzeros is scattered into the sum at its nonzero columns; a denser one
    is added across the whole width.  The choice reads that row alone, so
    rows of ``b`` that no entry of ``a`` selects cost nothing.
    """
    zero = (0,) * width
    columns, inner = range(width), range(len(b))
    out = []
    for row in a:
        acc = None
        for k in compress(inner, row):
            x, r = row[k], b[k]
            if acc is None:
                first = r
                acc = r if x == 1 else [x * y for y in r]
            elif 4 * (width - r.count(0)) < width:
                if acc is first:  # a row of b itself: never write into it
                    acc = list(acc)
                for j in compress(columns, r):
                    acc[j] += x * r[j]
            else:
                acc = [s + x * y for s, y in zip(acc, r)]
        out.append(zero if acc is None else tuple(acc))
    return out


# ---------------------------------------------------------------------------
# Hermite normal form


def _matrix(rows: Sequence[Sequence[int]], cols: int) -> IntMatrix:
    """Wrap rows of ``int`` computed here from valid matrices, unchecked."""
    return IntMatrix._from_rows(tuple([tuple(r) for r in rows]), cols)


def _row_sub(row: list[int], other: Sequence[int], q: int, start: int = 0) -> None:
    # row -= q * other, from position start on; zeros of other change nothing
    for k in range(start, len(row)):
        x = other[k]
        if x:
            row[k] -= q * x


def _row_sub_on(row: list[int], other: Sequence[int], q: int, support: Sequence[int]) -> None:
    # row -= q * other, where support lists the columns at which other is nonzero
    for k in support:
        row[k] -= q * other[k]


def _combine_rows(r1: list[int], r2: list[int], x: int, y: int, u: int, v: int, start: int = 0) -> None:
    # applies the 2x2 transform [[x, y], [u, v]] to the row pair; a position
    # where both rows are 0 stays 0
    for k in range(start, len(r1)):
        a, b = r1[k], r2[k]
        if a or b:
            r1[k] = x * a + y * b
            r2[k] = u * a + v * b


def _clear_below(rows: list[list[int]], u: list[list[int]] | None, r: int, j: int) -> None:
    """Zero column ``j`` below row ``r`` against the pivot ``rows[r][j] != 0``,
    in rows that are 0 left of ``j``: the module's one column-elimination
    step.  An entry the pivot divides is cleared by an exact quotient, any
    other by the xgcd transform, which leaves their gcd as the pivot.
    ``u``, when given, takes the same row operations.  The pivot row's
    nonzero columns (and its transform's) are found at its first exact
    quotient and serve every later one, until an xgcd step rewrites it."""
    piv = rows[r]
    support = None
    for i in range(r + 1, len(rows)):
        b = rows[i][j]
        if b == 0:
            continue
        a = piv[j]
        if b % a == 0:
            q = b // a
            if support is None:
                support = [k for k in range(j, len(piv)) if piv[k]]
                if u is not None:
                    u_support = [k for k in range(len(u[r])) if u[r][k]]
            _row_sub_on(rows[i], piv, q, support)
            if u is not None:
                _row_sub_on(u[i], u[r], q, u_support)
        else:
            x, y, g = xgcd(a, b)
            _combine_rows(piv, rows[i], x, y, -(b // g), a // g, j)
            if u is not None:
                _combine_rows(u[r], u[i], x, y, -(b // g), a // g)
            support = None


def _fill_in_order(row: Sequence[int]) -> int:
    """Sort key for the rows of ``A^T`` before ``kernel_basis`` eliminates
    them column by column: the rows whose last nonzero lies furthest right
    come first.  The elimination pivots on the first row of least absolute
    value, and subtracting such a row from the others fills in columns that
    are eliminated late, if at all, rather than the next one."""
    end = len(row)
    while end and not row[end - 1]:
        end -= 1
    return -end


def _with_identity(a: IntMatrix) -> list[list[int]]:
    """The rows of ``a``, each with the matching identity row as its tail."""
    return [list(row + unit) for row, unit in zip(a, IntMatrix.identity(a.rows))]


def _insert_row(h: list[list[int]], cols: list[int], row: list[int], n: int) -> bool:
    """Clear the first ``n`` entries of ``row`` against the reduced Hermite
    basis ``h``, whose pivots lie in the columns ``cols``; return whether any
    is left.  Each operation covers the whole row, so a tail follows along.

    A pivot that divides the row's entry clears it by an exact quotient;
    any other takes the xgcd transform with the row, which leaves their gcd
    as the pivot.  A row left nonzero joins the basis at its first nonzero
    column, made positive.  From the first pivot row added or changed on,
    the entries above each pivot are reduced again into ``[0, pivot)``,
    the pivot row's nonzero columns found once for all the rows above it.
    """
    first = None
    m = len(cols)
    k = j = 0
    while True:
        while j < n and not row[j]:
            j += 1
        if j == n:
            break
        while k < m and cols[k] < j:
            k += 1
        if k == m or cols[k] != j:
            if row[j] < 0:
                row = [-x for x in row]
            cols.insert(k, j)
            h.insert(k, row)
            first = k if first is None else first
            break
        p, b = h[k][j], row[j]
        if b % p == 0:
            _row_sub(row, h[k], b // p, j)
        else:
            x, y, g = xgcd(p, b)
            _combine_rows(h[k], row, x, y, -(b // g), p // g, j)
            first = k if first is None else first
    if first is not None:
        for l in range(first, len(h)):
            c, piv = cols[l], h[l]
            p = piv[c]
            support = None
            for i in range(l):
                q = h[i][c] // p  # floor: leaves the entry in [0, p)
                if q:
                    support = support or [k for k in range(c, len(piv)) if piv[k]]
                    _row_sub_on(h[i], piv, q, support)
    return j < n


def _reduced_basis(rows: list[list[int]], n: int):
    """Insert ``rows`` in order into an empty reduced Hermite basis on the
    first ``n`` columns (``_insert_row``); return the basis, its pivot
    columns and the tails past ``n`` of the rows that cleared, in order."""
    h, cols, zero_tails = [], [], []
    for row in rows:
        if not _insert_row(h, cols, row, n):
            zero_tails.append(row[n:])
    return h, cols, zero_tails


def hermite_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form ``(H, U)`` with ``U @ A == H`` and ``|det U| = 1``.

    ``H`` keeps the shape of ``A``: the nonzero rows, a basis of the row
    lattice of ``A``, come first, followed by zero rows.

    The rows of ``A``, each with the matching identity row as its tail, are
    inserted one at a time into a basis kept in reduced Hermite form
    (``_insert_row``), as Kannan and Bachem do ("Polynomial algorithms for
    computing the Smith and Hermite normal forms of an integer matrix",
    SIAM J. Comput. 8, 1979): the entries above each pivot stay below it,
    so they cannot grow from one elimination to the next.  The tails end
    as ``U``'s rows, those of the rows that cleared to zero last, in the
    order of ``A``.  On dense 30 x 30 matrices with entries in [-20, 20]
    this takes 0.008-0.013 s, where eliminating column by column and
    reducing above each pivot took 0.05-3.1 s on nine of ten seeds and over
    120 s on the tenth (2-core x86_64, Python 3.11.7).  ``H`` is unique,
    and so is ``U`` when ``A`` is square and nonsingular.
    """
    n = a.cols
    h, _, zero_u = _reduced_basis(_with_identity(a), n)
    zero = [(0,) * n] * len(zero_u)
    return _matrix([row[:n] for row in h] + zero, n), _matrix([row[n:] for row in h] + zero_u, a.rows)


def row_basis(a: IntMatrix) -> IntMatrix:
    """Canonical (Hermite) basis of the lattice spanned by the rows of ``a``:
    the nonzero rows of ``hermite_form(a)``'s ``H``, found without ``U``."""
    return _matrix(_reduced_basis(a.tolists(), a.cols)[0], a.cols)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Canonical basis of the saturated lattice ``{x : A @ x^T = 0}``.

    The rows of the result are a basis; an empty matrix means the kernel is
    zero.  The kernel of an integer matrix is automatically saturated, and
    the basis is Hermite-reduced so equal kernels yield equal matrices.

    The rows of ``A^T``, each followed by its transform, are eliminated
    column by column (``_clear_below``), pivoting on the first row of least
    absolute value; the transforms of the rows that clear to zero span the
    kernel.  Nothing else of that pass is read, so its pivot rows are
    neither made positive nor reduced.  Those transforms are inserted, in
    the order the pass leaves them, into a reduced basis; sorted by
    ``_fill_in_order`` they took 2.3 times as long on dense 12 x 16 inputs.
    """
    # the kernel is a lattice and its Hermite basis is unique, so the rows
    # may be eliminated in any order
    t = sorted(_with_identity(a.transpose()), key=lambda row: _fill_in_order(row[:a.rows]))
    r = 0
    for j in range(a.rows):
        piv = None
        for i in range(r, len(t)):
            if t[i][j] != 0 and (piv is None or abs(t[i][j]) < abs(t[piv][j])):
                piv = i
        if piv is not None:
            t[r], t[piv] = t[piv], t[r]
            _clear_below(t, None, r, j)
            r += 1
    return _matrix(_reduced_basis([row[a.rows:] for row in t[r:]], a.cols)[0], a.cols)


def _solve_against_hnf(h: list[list[int]], cols: list[int], v: Sequence[int]) -> list[int] | None:
    """Integer coordinates of ``v`` in the Hermite basis ``h``, whose pivots
    lie in the columns ``cols``, or None; row tails past ``len(v)`` go unread."""
    residue = list(v)
    coeffs = []
    for row, c in zip(h, cols):
        q, rest = divmod(residue[c], row[c])
        if rest:
            return None
        if q:
            _row_sub(residue, row, q, c)
        coeffs.append(q)
    return None if any(residue) else coeffs


def express_in_row_basis(basis: IntMatrix, vectors: IntMatrix) -> IntMatrix:
    """Coordinates of each row of ``vectors`` in the given row basis.

    The rows of ``basis`` must be linearly independent and as wide as the
    vectors; raises :class:`NotSublattice` when a vector is not an integer
    combination.  Rows carry their transforms as tails, as in ``hermite_form``.
    """
    if basis.cols != vectors.cols:
        raise ValueError("ambient dimensions differ")
    h, cols, zero_u = _reduced_basis(_with_identity(basis), basis.cols)
    if zero_u:
        raise ValueError("basis rows are linearly dependent")
    coords = [_solve_against_hnf(h, cols, v) for v in vectors]
    if None in coords:
        raise NotSublattice(f"vector {coords.index(None)} is not in the spanned lattice")
    # coordinates were found against H = U*basis; translate back
    return IntMatrix._from_rows(tuple(matmul_rows(coords, [row[basis.cols:] for row in h], basis.rows)), basis.rows)


# ---------------------------------------------------------------------------
# Smith normal form and finite abelian groups


class SmithForm(NamedTuple):
    """``U @ A @ V == D`` with unimodular transforms and a diagonal ``D``.

    The diagonal is nonnegative and each nonzero entry divides the next;
    ``invariant_factors`` lists the nonzero diagonal entries in order.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    invariant_factors: tuple[int, ...]


def smith_form(a: IntMatrix) -> SmithForm:
    """Smith normal form over the integers.

    The pivot is an entry of least nonzero absolute value in the remaining
    submatrix, the first one row by row; ``D`` does not depend on that
    choice, but ``U`` and ``V`` do.  Rows and columns are cleared by the
    step that ``kernel_basis``'s first pass uses, ``_clear_below``: the
    working matrix clears the pivot's column, and while the pivot's row is
    not clean it is transposed and clears again, ``U`` and ``V^T`` trading
    which one takes the operations.  The orientation is left as it is for
    the next pivot, so rows and columns take turns to lead; one transpose
    at the end restores the shape.  On dense 30 x 30 matrices with entries
    in [-20, 20] the transforms reach 436-3,213 bits (eight seeds), where
    clearing the rows first at every pivot reached 9,654-2,323,405.
    ``U`` and ``V^T`` stay apart: as tails, each transpose would split and
    rejoin every row, 5% slower on dense 16 x 16 inputs (2-core x86_64).
    """
    m, n = a.rows, a.cols
    d = a.tolists()
    # u takes the row operations on d and w those on d^T, that is on V^T;
    # a transposed d swaps the two
    u = IntMatrix.identity(m).tolists()
    w = IntMatrix.identity(n).tolists()
    flipped = False
    for t in range(min(m, n)):
        while True:
            # the first entry of least absolute value, row by row; a unit
            # cannot be beaten, so the search stops at the first one
            pi, best = None, 0
            for i in range(t, m):
                least = min(map(abs, filter(None, d[i][t:])), default=0)
                if least and (pi is None or least < best):
                    pi, best = i, least
                    if best == 1:
                        break
            if pi is None:
                break
            pj = next(j for j in range(t, n) if abs(d[pi][j]) == best)
            if pi != t:
                d[t], d[pi] = d[pi], d[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in d:
                    row[t], row[pj] = row[pj], row[t]
                w[t], w[pj] = w[pj], w[t]
            _clear_below(d, u, t, t)
            while any(d[t][t + 1:]):
                d, u, w, m, n = [list(c) for c in zip(*d)], w, u, n, m
                flipped = not flipped
                _clear_below(d, u, t, t)
            # the pivot must divide every remaining entry (a unit always
            # does): the first row whose gcd it does not divide is dirty;
            # below the pivot column t is now 0
            aa = d[t][t]
            offender = None
            if abs(aa) != 1:
                offender = next((i for i in range(t + 1, m) if gcd(*d[i][t:]) % aa), None)
            if offender is None:
                break
            _row_sub(d[t], d[offender], -1, t)
            _row_sub(u[t], u[offender], -1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    if flipped:
        d, u, w, m, n = [list(c) for c in zip(*d)], w, u, n, m

    factors = tuple(d[i][i] for i in range(min(m, n)) if d[i][i] != 0)
    return SmithForm(
        U=_matrix(u, m),
        D=_matrix(d, n),
        V=_matrix(w, n).transpose(),
        invariant_factors=factors,
    )


class FinAbGroup(Record):
    """A finitely generated abelian group in invariant-factor normal form.

    ``invariant_factors`` is the canonical chain (every factor > 1, each
    dividing the next) and ``free_rank`` counts the Z summands.  Two values
    are equal exactly when these fields agree, so no isomorphism search is
    ever needed.
    """

    __slots__ = _fields = ("invariant_factors", "free_rank")

    def __init__(self, invariant_factors: Iterable[int] = (), free_rank: int = 0) -> None:
        fs = tuple(invariant_factors)
        if any(f <= 1 for f in fs):
            raise ValueError("invariant factors must exceed 1")
        if any(fs[i + 1] % fs[i] != 0 for i in range(len(fs) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")
        if free_rank < 0:
            raise ValueError("negative free rank")
        self._set("invariant_factors", fs)
        self._set("free_rank", free_rank)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0

    def order(self) -> int:
        """Number of elements; only defined for finite groups."""
        if self.free_rank:
            raise ValueError("infinite group has no order")
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        """Canonical invariant factors of the direct sum."""
        merged = IntMatrix.diagonal(list(self.invariant_factors) + list(other.invariant_factors))
        factors = tuple(f for f in smith_form(merged).invariant_factors if f > 1)
        return FinAbGroup(factors, self.free_rank + other.free_rank)

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        i = 0
        fs = self.invariant_factors
        while i < len(fs):
            j = i
            while j < len(fs) and fs[j] == fs[i]:
                j += 1
            parts.append(f"(Z/{fs[i]})" + (f"^{j - i}" if j - i > 1 else ""))
            i = j
        return " x ".join(parts)


def subquotient(a_basis: IntMatrix, b_gens: IntMatrix) -> FinAbGroup:
    """Isomorphism type of ``(span of A rows) / (span of B rows)``.

    The rows of ``b_gens`` must lie in the row lattice of ``a_basis``;
    otherwise :class:`NotSublattice` is raised naming the offending
    generator.  The result does not depend on the choice of bases or
    generating sets.  When ``a_basis`` is the identity, as for ``H^1`` of
    a group of composite order, the generators are their own coordinates:
    no Hermite form of ``a_basis`` is made and nothing is solved against
    it.  That saves close to half of an ``H^1``: on the sign-twisted S_5 on
    pairs (1,190 rows of B^T, rank 10) it takes 4.4-4.5 ms with the
    shortcut and 7.9-8.2 ms without (best of 40, 2-core x86_64, Python
    3.11.7).  A repeated or zero generator adds nothing to the span, so
    each distinct nonzero one is taken once: 567 of those 1,190 rows.
    """
    if a_basis.cols != b_gens.cols:
        raise ValueError("ambient dimensions differ")
    gens: dict[tuple[int, ...], int] = {}  # each distinct nonzero generator and its first index
    for i, v in enumerate(b_gens):
        if any(v):
            gens.setdefault(v, i)
    if a_basis == IntMatrix.identity(a_basis.cols):
        r = a_basis.rows
        coeff_rows = list(map(list, gens))
    else:
        h, cols, _ = _reduced_basis(a_basis.tolists(), a_basis.cols)
        r = len(h)
        coeff_rows = [_solve_against_hnf(h, cols, v) for v in gens]
        if None in coeff_rows:
            i = list(gens.values())[coeff_rows.index(None)]
            raise NotSublattice(f"not a sublattice: generator {i} lies outside the lattice")
    # unimodular row operations keep the invariant factors and the rank, so
    # Smith gets the (at most r) nonzero Hermite rows
    sf = smith_form(_matrix(_reduced_basis(coeff_rows, r)[0], r))
    factors = tuple(f for f in sf.invariant_factors if f > 1)
    return FinAbGroup(factors, free_rank=r - len(sf.invariant_factors))


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, isqrt(n) + 1))


def _rank_mod(a: IntMatrix, p: int) -> int:
    """Rank of ``a`` over F_p, for a prime ``p``: each row, held as a dict of its
    nonzero residues, is reduced at its least column by the kept row leading
    there, until it is zero or is kept itself, scaled to lead with 1."""
    kept: dict[int, dict[int, int]] = {}  # leading column -> its row
    for row in a:
        r = {j: x for j in compress(range(a.cols), row) if (x := row[j] % p)}
        while r:
            j = min(r)
            pivot = kept.get(j)
            if pivot is None:
                inv = pow(r[j], -1, p)
                kept[j] = {k: x * inv % p for k, x in r.items()}
                break
            c = r[j]
            for k, x in pivot.items():
                y = (r.get(k, 0) - c * x) % p
                if y:
                    r[k] = y
                else:  # c * x is nonzero, so k was in r
                    del r[k]
    return len(kept)


# ---------------------------------------------------------------------------
# Characteristic polynomials and polynomial helpers (coefficient tuples,
# ascending degree)

# proven primes, ascending; 2^61 - 1 is left out, so checks modulo it stay independent.
# Below 2^192 a Proth prime N = k 2^m + 1 sits just under each multiple of 30 bits (one
# CPython digit); Proth's theorem proves it: k is odd, k < 2^m and a^((N - 1)/2) = -1 mod N
_PROTH_RUNGS = ((1005, 20, 7), (979, 50, 3), (1005, 80, 7), (1003, 110, 3), (897, 140, 5), (807, 170, 13))  # (k, m, a)
_PRIMES = tuple(sorted([k * 2**m + 1 for k, m, _ in _PROTH_RUNGS] + [2**127 - 1, 2**192 - 2**64 - 1, 2**255 - 19] + [
    2**k - 1 for k in (521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497)]))


def _moduli(bound: int) -> tuple[int, ...]:
    """The smallest listed prime above ``2 * bound``, else the fewest largest whose
    product is.  Below 2^192 a rung lies within a factor 1.27 under each multiple
    of 30 bits, so the prime takes no more CPython digits than ``2 * bound``
    unless ``2 * bound`` falls in such a gap."""
    for p in _PRIMES:
        if p > 2 * bound:
            return (p,)
    moduli, prod = [], 1
    for p in reversed(_PRIMES):
        moduli.append(p)
        prod *= p
        if prod > 2 * bound:
            return tuple(moduli)
    raise ValueError(f"char_poly: a {bound.bit_length()}-bit coefficient bound exceeds the listed primes")


def _char_poly_mod(rows: Sequence[Sequence[int]], p: int) -> list[int]:
    """``det(tI - A)`` mod ``p`` from ``A N = N H``, ``H`` upper Hessenberg
    (Cohen, Algorithm 2.2.9, built by inner products as in Wilkinson's direct
    reduction).  ``N`` is lower triangular, ``n_0 = e_0``, and ``n_{r+1}`` is
    ``A n_r`` less its parts along ``n_0 .. n_r``, so ``H``'s subdiagonal is
    0 or 1.  ``A`` keeps its own (small) entries and order: a zero pivot swaps
    two entries of ``perm``, so row ``i`` of the permuted ``A`` is row
    ``perm[i]`` of ``rows``.  ``A n_r`` is one big-integer product per column
    (Kronecker substitution): column ``j`` is packed once as an integer with
    ``A[i][j] + c`` in byte slot ``i``, ``c`` the largest entry size, and a
    slot of ``nb`` bytes holds ``2c n (p - 1)``, so no slot of a sum of residue
    multiples of columns goes negative or overflows; ``c`` times the sum of the
    residues is taken off after."""
    n = len(rows)
    c = max((abs(x) for row in rows for x in row), default=0)
    nb = ((2 * c * n * (p - 1)).bit_length() + 7) // 8
    packed = [int.from_bytes(b"".join((x + c).to_bytes(nb, "little") for x in col), "little") for col in zip(*rows)]
    perm = list(range(n))
    low = [[0] if i else [] for i in range(n)]  # low[i]: row i of N left of the diagonal
    diag, inv = [1] * n, [1] * n  # the diagonal of N and its inverses mod p
    cols = []  # cols[r]: h[0][r], ..., h[r][r]
    sub = [0] * n  # sub[r]: h[r][r - 1]
    for r in range(n):
        ncol = [diag[r]] + [low[i][r] for i in range(r + 1, n)]
        acc = sum(map(mul, ncol, [packed[k] for k in perm[r:]])).to_bytes(n * nb, "little")
        shift = c * sum(ncol)
        v = [int.from_bytes(acc[k * nb:(k + 1) * nb], "little") - shift for k in perm]
        hc = []
        for i in range(r + 1):
            hc.append((v[i] - sum(map(mul, low[i], hc))) * inv[i] % p)
        cols.append(hc)
        s = r + 1
        if s == n:
            break
        w = [(v[i] - sum(map(mul, low[i], hc))) % p for i in range(s, n)]
        j = next((j for j, x in enumerate(w) if x), None)
        if j is None:  # A n_r is in the span of n_0 .. n_r mod p: h[s][r] = 0
            for lo in low[s + 1:]:
                lo.append(0)
            continue
        if j:  # a zero pivot: swap s with the first nonzero below it
            t = s + j
            perm[s], perm[t] = perm[t], perm[s]
            low[s], low[t] = low[t], low[s]
            w[0], w[j] = w[j], w[0]
        sub[s], diag[s], inv[s] = 1, w[0], pow(w[0], -1, p)
        for lo, x in zip(low[s + 1:], w[1:]):
            lo.append(x)
    # the block polynomials P_0 = 1, P_{m+1} = t P_m - sum_{i=z..m} h[i][m] P_i,
    # where z is the last index up to m with h[z][z - 1] = 0; by_degree[j]
    # lists the t^j coefficients of P_j, P_{j+1}, ...
    by_degree = [[1]]
    z = 0
    for m in range(n):
        if not sub[m]:
            z = m
        cs = [0] * z + cols[m][z:]
        shifted = [0] + [c[-1] for c in by_degree[:-1]]
        for j, (c, x) in enumerate(zip(by_degree, shifted)):
            c.append((x - sum(map(mul, cs[j:], c))) % p)
        by_degree.append([1])
    return [c[-1] for c in by_degree]


def char_poly(a: IntMatrix) -> tuple[int, ...]:
    """Coefficients of ``det(tI - A)``, ascending, leading coefficient 1.

    By Hadamard's inequality on the principal minors, each coefficient is
    at most ``B = prod_i (isqrt(sum_j a_ij^2) + 2)``.  The polynomial is
    found in O(n^3) steps modulo the smallest listed proven prime above
    ``2B`` (Proth primes of 30, 60, 90, 120, 150 and 180 bits, ``2^127 - 1``,
    ``2^192 - 2^64 - 1``, ``2^255 - 19``, Mersenne primes to ``2^44497 - 1``),
    else several joined by Chinese remainders, and lifted to the symmetric
    range; ``ValueError`` beyond them all.  Modulo each prime, ``A n`` costs
    one big-integer product per column of ``A`` (see ``_char_poly_mod``).
    """
    if not a.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    bound = 1
    for row in a._data:
        bound *= isqrt(sum(map(mul, row, row))) + 2
    coeffs, m = [0] * (a.rows + 1), 1
    for p in _moduli(bound):
        inv = pow(m, -1, p)
        coeffs = [c + m * ((x - c) * inv % p) for c, x in zip(coeffs, _char_poly_mod(a._data, p))]
        m *= p
    return tuple([c - m if 2 * c > m else c for c in coeffs])


def poly_mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return tuple(out)


def poly_pow(p: Sequence[int], k: int) -> tuple[int, ...]:
    out: tuple[int, ...] = (1,)
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def poly_eval(p: Sequence[int], t: int) -> int:
    val = 0
    for c in reversed(p):
        val = val * t + c
    return val


def poly_str(p: Sequence[int], var: str = "t") -> str:
    """Human-readable form, highest degree first."""
    terms = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c)) + "*"
            body = f"{mag}{var}" + (f"^{k}" if k > 1 else "")
        terms.append(("- " if c < 0 else "+ ") + body)
    if not terms:
        return "0"
    head = terms[0].lstrip("+ ")
    if terms[0].startswith("- "):
        head = "-" + terms[0][2:]
    return " ".join([head] + terms[1:])
