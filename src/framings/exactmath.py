"""Exact integer linear algebra.

Determinants, Smith normal forms, signatures of symmetric integer matrices
and affine GF(2) systems, all computed with arbitrary-precision integers.
Determinants and signatures eliminate a shrinking block with one shared
fraction-free (Bareiss) step, whose divisions are exact, and repair a zero
pivot by adding a later row (and, for signatures, its column), so no
rational or floating-point number enters any elimination and results are
exact at any input size.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple, Sequence, Union

from .errors import NotSymmetric, Unsolvable

MatrixLike = Union["IntMatrix", Sequence[Sequence[int]]]


class IntMatrix(NamedTuple("IntMatrix", [("entries", tuple[tuple[int, ...], ...])])):
    """Immutable integer matrix stored as a tuple of row tuples.

    The 0x0 matrix is legal and represents the empty presentation
    (surgery on the empty link, i.e. the 3-sphere).
    """

    __slots__ = ()

    def __new__(cls, entries: Sequence[Sequence[int]]) -> IntMatrix:
        entries = tuple(tuple(row) for row in entries)
        if len({len(row) for row in entries}) > 1:
            raise ValueError("matrix rows have unequal lengths")
        for row in entries:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError(f"non-integer matrix entry {x!r}")
        return super().__new__(cls, entries)

    # _replace builds through _make, which would otherwise skip __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def trace(self) -> int:
        return sum(self.diagonal())

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.entries[i][j] == self.entries[j][i]
                   for i in range(self.rows) for j in range(i + 1, self.cols))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-x for x in row) for row in self.entries))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination: the
        last pivot.  A zero pivot gets a later row with a nonzero entry in
        its column added; with no such row the determinant is 0."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        a = self.to_lists()
        prev = 1
        while a:
            if a[0][0] == 0:
                donor = next((row for row in a[1:] if row[0]), None)
                if donor is None:
                    return 0
                a[0] = [x + y for x, y in zip(a[0], donor)]
            prev, a = a[0][0], _bareiss_block(a, prev)
        return prev


def _bareiss_block(a: list[list[int]], prev: int) -> list[list[int]]:
    """One fraction-free step on the pivot a[0][0]: the block left to
    eliminate, (a[i][j] a[0][0] - a[i][0] a[0][j]) / prev for i, j >= 1,
    prev being the previous pivot (1 before the first step).  By Sylvester's
    identity each entry is the minor of the eliminated rows bordered by row
    i and column j, so the division is exact and entries stay integers."""
    p = a[0][0]
    top = a[0][1:]
    block = []
    for row in a[1:]:
        f = row[0]
        block.append([(x * p - f * y) // prev for x, y in zip(row[1:], top)])
    return block


def as_int_matrix(m: MatrixLike) -> IntMatrix:
    if isinstance(m, IntMatrix):
        return m
    return IntMatrix(m)


class SmithForm(NamedTuple("SmithForm", [("invariant_factors", tuple[int, ...])])):
    """Invariant factors d1 | d2 | ... | dr followed by zeros."""

    __slots__ = ()

    def __new__(cls, invariant_factors: tuple[int, ...]) -> SmithForm:
        fs = invariant_factors
        for a, b in zip(fs, fs[1:]):
            if a < 0 or b < 0:
                raise ValueError("invariant factors must be nonnegative")
            if a == 0 and b != 0:
                raise ValueError("zero invariant factors must come last")
            if a != 0 and b != 0 and b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        return super().__new__(cls, invariant_factors)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def rank(self) -> int:
        return sum(1 for f in self.invariant_factors if f)

    @property
    def kernel_rank(self) -> int:
        return sum(1 for f in self.invariant_factors if not f)


def _smallest_pivot(a: list[list[int]]) -> tuple[int, int] | None:
    """Position of the nonzero entry of least absolute value in a."""
    best: tuple[int, int, int] | None = None
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            v = abs(x)
            if v and (best is None or v < best[0]):
                best = (v, i, j)
                if v == 1:
                    return i, j
    return None if best is None else (best[1], best[2])


def smith_normal_form(m: MatrixLike) -> SmithForm:
    """Invariant factors of an integer matrix.

    Row/column reduction with the smallest-absolute-value pivot rule, which
    keeps coefficient growth tame.  A pivot is split off, and the block
    left to reduce shrinks, once its row and column are clear; a remainder
    smaller than the pivot means a new pivot.  One pass of gcd/lcm swaps
    then turns the diagonal into the divisibility chain.  Equivalently there
    are unimodular U, V with U m V diagonal and the returned chain on it.
    """
    mat = as_int_matrix(m)
    a = mat.to_lists()
    d: list[int] = []
    while (pos := _smallest_pivot(a)) is not None:
        pi, pj = pos
        a[0], a[pi] = a[pi], a[0]
        if pj:
            for row in a:
                row[0], row[pj] = row[pj], row[0]
        top = a[0]
        p = top[0]
        for i in range(1, len(a)):
            q = a[i][0] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], top)]
        if any(row[0] for row in a[1:]):
            continue  # a remainder smaller than the pivot appeared; re-pivot
        # Column 0 is clear below the pivot, so column operations now change
        # only the pivot row; reducing it any earlier would be wrong.
        top[1:] = [x % p for x in top[1:]]
        if any(top[1:]):
            continue
        d.append(abs(p))
        a = [row[1:] for row in a[1:]]
    for i in range(len(d)):  # afterwards d[i] divides every later d[j]
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return SmithForm(tuple(d + [0] * (min(mat.rows, mat.cols) - len(d))))


def exact_signature(q: MatrixLike) -> int:
    """Signature of a symmetric integer matrix, computed exactly.

    Symmetric fraction-free (Bareiss) elimination over the integers.  The
    successive pivots are nested principal minors D_1, D_2, ... of a matrix
    congruent to q, and by Jacobi's rule each contributes the sign of
    D_k D_{k-1} (D_0 = 1).  A zero pivot with a nonzero entry b = a[0][k]
    in its row is repaired by adding s times row and column k, which makes
    the pivot 2sb + a[k][k]; one of s = 1, -1 makes that nonzero.  A zero
    row and column is skipped as a radical direction, the divisor unchanged.
    """
    mat = as_int_matrix(q)
    if not mat.is_symmetric():
        raise NotSymmetric("signature needs a symmetric matrix")
    a = mat.to_lists()
    signature = 0
    prev = 1
    while a:
        top = a[0]
        if top[0] == 0:
            k = next((k for k in range(1, len(top)) if top[k]), None)
            if k is None:
                a = [row[1:] for row in a[1:]]  # a radical direction
                continue
            s = 1 if 2 * top[k] + a[k][k] else -1
            a[0] = [x + s * y for x, y in zip(top, a[k])]
            for row in a:
                row[0] += s * row[k]
        p = a[0][0]
        signature += 1 if (p > 0) == (prev > 0) else -1
        prev, a = p, _bareiss_block(a, prev)
    return signature


class Gf2Solution(NamedTuple):
    """Affine solution set of a GF(2) system: particular + kernel basis."""

    particular: tuple[int, ...]
    kernel: tuple[tuple[int, ...], ...]


def solve_gf2(a: MatrixLike, b: Sequence[int]) -> Gf2Solution:
    """Solve a x = b over GF(2); entries of a and b are reduced mod 2.

    Raises Unsolvable when the system is inconsistent.  Rows are held as
    integer bitmasks in reduced row echelon form, keyed by pivot column; a
    new row is reduced by them, and its pivot cleared from them.
    """
    mat = as_int_matrix(a)
    nc = mat.cols
    if len(b) != mat.rows:
        raise ValueError(f"right-hand side has length {len(b)}, expected {mat.rows}")
    pivots: dict[int, tuple[int, int]] = {}  # pivot column -> (row bits, rhs bit)
    for row, rhs in zip(mat.entries, b):
        bits = sum(1 << j for j, x in enumerate(row) if x & 1)
        rhs &= 1
        for col, (pbits, prhs) in pivots.items():
            if (bits >> col) & 1:
                bits ^= pbits
                rhs ^= prhs
        if bits == 0:
            if rhs:
                raise Unsolvable("inconsistent linear system over GF(2)")
            continue
        col = (bits & -bits).bit_length() - 1
        for pcol, (pbits, prhs) in pivots.items():
            if (pbits >> col) & 1:
                pivots[pcol] = (pbits ^ bits, prhs ^ rhs)
        pivots[col] = (bits, rhs)
    particular = [0] * nc
    for col, (_, rhs) in pivots.items():
        particular[col] = rhs
    kernel = []
    for free in range(nc):
        if free in pivots:
            continue
        v = [0] * nc
        v[free] = 1
        for col, (pbits, _) in pivots.items():
            if (pbits >> free) & 1:
                v[col] = 1
        kernel.append(tuple(v))
    return Gf2Solution(tuple(particular), tuple(kernel))
