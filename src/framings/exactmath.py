"""Exact integer linear algebra.

Determinants, Smith normal forms, signatures of symmetric integer matrices
and affine GF(2) systems, all with arbitrary-precision integers.  One
fraction-free (Bareiss) step eliminates a shrinking block for determinants
and signatures, its divisions exact; a symmetric block stays symmetric, so
only its upper triangle is stored.  A zero pivot is repaired by adding a
later row (for signatures, row k rebuilt whole from the triangle, and its
column); a radical direction of a symmetric block drops its first row.
A symmetric nonsingular Q has its signature, det Q and a modulus t from
one elimination of [Q | 1]; every invariant factor but the last divides
t (Cohen, A Course in Computational Algebraic Number Theory, section 2.4)
and the three (n-1)-minors of the last 2x2 block of the elimination, so
divides their gcd g with t.  The Smith form is read off that block when
g = 1 or the minor D_{n-2} is a unit mod g, and reduced mod g otherwise.
No rational or floating-point number enters any elimination.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm, prod
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
        rows = []
        for i, row in enumerate(entries):
            try:
                rows.append(tuple(row))
            except TypeError:
                raise TypeError(f"matrix row {i} is not a list of integers") from None
        if len({len(row) for row in rows}) > 1:
            raise ValueError("matrix rows have unequal lengths")
        if not {int}.issuperset(map(type, chain.from_iterable(rows))):  # one C-level scan
            for x in chain.from_iterable(rows):
                if not isinstance(x, int) or isinstance(x, bool):
                    name = repr(x)  # a long one is named by its type: the message stays short
                    name = name if len(name) <= 40 else f"of type {type(x).__name__}"
                    raise TypeError(f"non-integer matrix entry {name}")
        return super().__new__(cls, tuple(rows))

    # _replace builds through _make, which would otherwise skip __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def trace(self) -> int:
        return sum(self.diagonal())

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.entries == tuple(zip(*self.entries))

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


def _bareiss_block(a: list[list[int]], prev: int, upper: bool = False) -> list[list[int]]:
    """One fraction-free step on the pivot a[0][0]: the block left to
    eliminate, (a[i][j] a[0][0] - a[i][0] a[0][j]) / prev for i, j >= 1,
    prev being the previous pivot (1 before the first step).  By Sylvester's
    identity each entry is the minor of the eliminated rows bordered by row
    i and column j, so the division is exact and entries stay integers.
    With upper, a is the upper triangle of a symmetric block, row i from
    column i on (then any right-hand side), so a[i][0] is read as a[0][i]."""
    p, top = a[0][0], a[0]
    block = []
    for i, row in enumerate(a[1:], 1):
        f, xs, ys = (top[i], row, top[i:]) if upper else (row[0], row[1:], top[1:])
        block.append([(x * p - f * y) // prev for x, y in zip(xs, ys)])
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


def _smith_factors(a: list[list[int]], t: int) -> list[int]:
    """Invariant factors s_i of a over Z when t = 0, else gcd(s_i, t), with
    every row the loop makes reduced mod t.  Row/column reduction with the
    smallest-absolute-value pivot rule, which keeps coefficient growth
    tame.  A pivot is split off, and the block left to reduce shrinks, once
    its row and column are clear; a remainder smaller than the pivot means
    a new pivot.  One pass of gcd/lcm swaps then turns the diagonal into
    the divisibility chain, which the block left over pads with t."""
    size = min(len(a), len(a[0])) if a else 0
    d: list[int] = []
    while (pos := _smallest_pivot(a)) is not None:
        pi, pj = pos
        a[0], a[pi] = a[pi], a[0]
        if pj:
            for row in a:
                row[0], row[pj] = row[pj], row[0]
        top, p = a[0], a[0][0]
        for i in range(1, len(a)):
            q = a[i][0] // p
            if q and t:
                a[i] = [(x - q * y) % t for x, y in zip(a[i], top)]
            elif q:
                a[i] = [x - q * y for x, y in zip(a[i], top)]
        if any(row[0] for row in a[1:]):
            continue  # a remainder smaller than the pivot appeared; re-pivot
        # Column 0 is clear below the pivot, so column operations now change
        # only the pivot row; reducing it any earlier would be wrong.
        top[1:] = [x % p for x in top[1:]]
        if any(top[1:]):
            continue
        d.append(gcd(p, t))
        a = [row[1:] for row in a[1:]]
    for i in range(len(d)):  # afterwards d[i] divides every later d[j]
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return d + [t] * (size - len(d))


def smith_normal_form(m: MatrixLike) -> SmithForm:
    """Invariant factors s_1 | ... | s_n of an integer matrix m: there are
    unimodular U, V with U m V diagonal and the returned chain on it.

    A symmetric m with det m != 0 has s_1 ... s_{n-1} | t = |det m| / den,
    den the denominator of m^-1 b for an integer b, as den | s_n and
    s_n m^-1 is integral.  signature_and_smith reads the head off the last
    2x2 block or reduces m mod a divisor g of t that s_1 ... s_{n-1} still
    divide: mod g the loop gives gcd(s_i, g) = s_i for i < n, and
    s_n = |det m| / (s_1 ... s_{n-1}).  Entries stay below g (Cohen, A
    Course in Computational Algebraic Number Theory, section 2.4).  Any
    other matrix is reduced over Z."""
    mat = as_int_matrix(m)
    if mat.is_symmetric():
        return signature_and_smith(mat)[1]
    return SmithForm(tuple(_smith_factors(mat.to_lists(), 0)))


def _symmetric_pass(mat: IntMatrix, rhs: list[int]) -> tuple[int, int, list[list[int]]]:
    """Signature, determinant and kept pivot rows of the symmetric Bareiss
    elimination of [mat | rhs], kept to its upper triangle: row i of the
    block holds columns i, i + 1, ... and then rhs.  The pivots are nested
    principal minors D_1, D_2, ... of a matrix Q' = E mat E^T congruent to
    mat, and by Jacobi's rule each contributes the sign of D_k D_{k-1}
    (D_0 = 1).  A zero pivot with b = a[0][k] != 0 is repaired by adding s
    times row k, rebuilt whole from a[j][k - j] (j < k) and a[k], and
    column k, which reaches row 0 and the kept pivot rows alone: the pivot
    becomes 2sb + a[k][k], nonzero for one of s = 1, -1, and the kept rows
    stay those of the elimination of [Q' | E rhs].  A zero row and column
    is a radical direction: row 0 is dropped and the determinant is 0."""
    if not mat.is_symmetric():
        raise NotSymmetric("signature needs a symmetric matrix")
    a = [list(row[i:]) + rhs for i, row in enumerate(mat.entries)]
    kept: list[list[int]] = []
    signature, prev = 0, 1
    while a:
        top = a[0]
        if top[0] == 0:
            k = next((k for k in range(1, len(a)) if top[k]), None)
            if k is None:
                a = a[1:]  # a radical direction
                continue
            s = 1 if 2 * top[k] + a[k][0] else -1
            row_k = [row[k - j] for j, row in enumerate(a[:k])] + a[k]
            a[0] = [x + s * y for x, y in zip(top, row_k)]
            for row in a[:1] + kept:  # column 0 of the block is len(top) from the end
                row[-len(top)] += s * row[k - len(top)]
        p = a[0][0]
        signature += 1 if (p > 0) == (prev > 0) else -1
        kept.append(a[0])
        prev, a = p, _bareiss_block(a, prev, upper=True)
    return signature, prev if len(kept) == mat.rows else 0, kept


def exact_signature(q: MatrixLike) -> int:
    """Signature of a symmetric integer matrix, exactly (_symmetric_pass)."""
    return _symmetric_pass(as_int_matrix(q), [])[0]


def signature_and_smith(q: MatrixLike) -> tuple[int, SmithForm]:
    """Signature and Smith form of a symmetric integer matrix from one
    symmetric elimination of [q | 1].  For det q != 0, back-substitution on
    the kept pivot rows gives y = det Q'^-1 E 1, an integer vector, and
    t = gcd(det, y) is |det| over the denominator of Q'^-1 E 1, a multiple
    of s_1 ... s_{n-1} (smith_normal_form).

    The last 2x2 block then bounds the head further.  With D = D_{n-2}
    (1 when n = 2), the kept rows give the (n-1)-minors alpha = D_{n-1}
    and beta (row n - 2 at column n - 1) of Q', and Sylvester's identity
    det D = alpha gamma - beta^2 the third, gamma, exactly.  Each of
    s_1 ... s_{n-1} divides every (n-1)-minor, so divides
    g = gcd(t, alpha, beta, gamma): g = 1 makes the head all ones.  When D
    is a unit mod g, Q' = I (+) S over Z/g with S the Schur complement,
    whose entries alpha/D, beta/D, gamma/D are 0 mod g, so the head is
    1, ..., 1, g.  Otherwise the Smith form is reduced mod g.  A singular
    or empty q is reduced over Z."""
    mat = as_int_matrix(q)
    signature, det, kept = _symmetric_pass(mat, [1])
    if not det or not kept:
        return signature, SmithForm(tuple(_smith_factors(mat.to_lists(), 0)))
    y: list[int] = []
    for row in reversed(kept):  # [pivot, entries right of it, rhs]; y integral: exact
        y.append((det * row[-1] - sum(u * v for u, v in zip(row[1:-1], reversed(y)))) // row[0])
    n, t = len(kept), gcd(det, *y)
    g = d = 1
    if t > 1:  # n = 1 gives y = [1], so t = 1
        (alpha, beta, _), d = kept[-2], kept[-3][0] if n > 2 else 1
        g = gcd(t, alpha, beta, (det * d + beta * beta) // alpha)
    if g == 1:
        head = [1] * (n - 1)
    elif gcd(d, g) == 1:
        head = [1] * (n - 2) + [g]
    else:
        head = _smith_factors([[x % g for x in row] for row in mat.entries], g)[:-1]
    return signature, SmithForm((*head, abs(det) // prod(head)))


class Gf2Solution(NamedTuple):
    """Affine solution set of a GF(2) system: particular + kernel basis."""

    particular: tuple[int, ...]
    kernel: tuple[tuple[int, ...], ...]


def solve_gf2(a: MatrixLike, b: Sequence[int]) -> Gf2Solution:
    """Solve a x = b over GF(2); entries of a and b are reduced mod 2.

    Raises Unsolvable when the system is inconsistent.  Rows are held as
    integer bitmasks in reduced row echelon form, keyed by pivot column,
    the right-hand side as bit nc of the same int; a new row is reduced by
    them, and its pivot cleared from them.  A row reduced to bit nc alone
    reads 0 = 1.
    """
    mat = as_int_matrix(a)
    nc = mat.cols
    if len(b) != mat.rows:
        raise ValueError(f"right-hand side has length {len(b)}, expected {mat.rows}")
    pivots: dict[int, int] = {}  # pivot column -> row bits, rhs at bit nc
    for row, rhs in zip(mat.entries, b):
        bits = sum(1 << j for j, x in enumerate(row) if x & 1) | (rhs & 1) << nc
        for col, pbits in pivots.items():
            if (bits >> col) & 1:
                bits ^= pbits
        if bits == 1 << nc:
            raise Unsolvable("inconsistent linear system over GF(2)")
        if bits == 0:
            continue
        col = (bits & -bits).bit_length() - 1
        for pcol, pbits in pivots.items():
            if (pbits >> col) & 1:
                pivots[pcol] = pbits ^ bits
        pivots[col] = bits
    particular = [0] * nc
    for col, pbits in pivots.items():
        particular[col] = pbits >> nc
    kernel = []
    for free in range(nc):
        if free in pivots:
            continue
        v = [0] * nc
        v[free] = 1
        for col, pbits in pivots.items():
            if (pbits >> free) & 1:
                v[col] = 1
        kernel.append(tuple(v))
    return Gf2Solution(tuple(particular), tuple(kernel))
