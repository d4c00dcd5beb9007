"""Exact integer linear algebra.

Determinants and signatures of symmetric integer matrices, Smith normal
forms and affine GF(2) systems, all with arbitrary-precision integers.
One fraction-free (Bareiss) elimination of a symmetric Q gives its
determinant, its signature and the head of its Smith form.  It stores
only the upper triangle, since a symmetric block stays symmetric, and
takes two pivots per step where it can: the block two steps on is made
of 3x3 minors of the current one, each over the previous pivot twice
(Sylvester's identity; Bareiss's two-step elimination).  Each 2x2
cofactor in those minors is a multiple of that pivot, so every entry
takes one exact division by it, with operands half as wide.  It takes one
step where the second pivot is 0 or at most 2 rows are left.  A zero
pivot has one repair, adding a later row k, rebuilt whole from the
triangle, and its column; a radical direction drops its first row, and
the determinant is 0.  IntMatrix.det reads this elimination, so it needs
a symmetric matrix.
A nonsingular Q has its signature, det Q and the kept pivot rows from
that one elimination.  Every invariant factor but the last divides g,
the gcd of det Q and the three (n-1)-minors in the last 2x2 block of the
elimination.  Over Z/g the leading block up to the last pivot D_m that
is a unit mod g splits off as an identity; one Smith loop mod g, on the
step-m Bareiss block rebuilt from the kept rows by running the steps
backwards when it is small and on Q otherwise, gives the head of the
Smith form.  A singular Q and a non-symmetric matrix are reduced by the
same loop over Z.  An affine GF(2) system is one bit-sliced elimination
of a single int, a row to a lane, whose answer is the int masks of a
reduced echelon basis.  No rational or floating-point number enters any
elimination.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from math import gcd, lcm, prod

from .errors import NotSymmetric, Unsolvable

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Sequence, Union

    MatrixLike = Union["IntMatrix", Sequence[Sequence[int]]]


class IntMatrix(namedtuple("IntMatrix", "entries")):
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
            _refuse_non_int(chain.from_iterable(rows), "matrix entry")
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
        """Exact determinant of a symmetric matrix, from the symmetric pass
        (_symmetric_pass): the last pivot of its elimination of a congruent
        Q' = E Q E^T, E unimodular, so det Q' = det Q; 0 once a radical
        direction is dropped.  Any other matrix raises NotSymmetric."""
        return _symmetric_pass(self)[1]


def _refuse_non_int(values: Iterable[object], what: str) -> None:
    """TypeError naming the first of values that is not an int, or is a bool."""
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            name = repr(x)  # a long one is named by its type: the message stays short
            name = name if len(name) <= 40 else f"of type {type(x).__name__}"
            raise TypeError(f"non-integer {what} {name}")


def as_int_matrix(m: MatrixLike) -> IntMatrix:
    if isinstance(m, IntMatrix):
        return m
    return IntMatrix(m)


class SmithForm(namedtuple("SmithForm", "invariant_factors")):
    """Invariant factors d1 | d2 | ... | dr followed by zeros."""

    __slots__ = ()

    def __new__(cls, invariant_factors: Sequence[int]) -> SmithForm:
        fs = tuple(invariant_factors)
        if not {int}.issuperset(map(type, fs)):  # one C-level scan
            _refuse_non_int(fs, "invariant factor")
        if min(fs, default=0) < 0:
            raise ValueError("invariant factors must be nonnegative")
        for a, b in zip(fs, fs[1:]):
            if a == 0 and b != 0:
                raise ValueError("zero invariant factors must come last")
            if a != 0 and b != 0 and b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        return super().__new__(cls, fs)

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
    a and every row the loop makes reduced into [0, t): a negative entry
    would let a remainder mod t outgrow its pivot, and the loop would not
    end.  Row/column reduction with the smallest-absolute-value pivot rule,
    which keeps coefficient growth tame.  A pivot is split off, and the
    block left to reduce shrinks, once its row and column are clear; a
    remainder smaller than the pivot means a new pivot.  One pass of
    gcd/lcm swaps then turns the diagonal into the divisibility chain,
    which the block left over pads with t."""
    size = min(len(a), len(a[0])) if a else 0
    if t:
        a = [[x % t for x in row] for row in a]
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

    s_1 ... s_{n-1} is the gcd of the (n-1)-minors of m, so for det m != 0
    it divides any g that divides det m and some (n-1)-minors: mod g the
    loop gives gcd(s_i, g) = s_i for i < n, with entries kept below g, and
    s_n = |det m| / (s_1 ... s_{n-1}).  A symmetric m goes through
    signature_and_smith, whose one loop runs mod such a g; any other
    matrix is reduced over Z."""
    mat = as_int_matrix(m)
    if mat.is_symmetric():
        return signature_and_smith(mat)[1]
    return SmithForm(tuple(_smith_factors(mat.to_lists(), 0)))


def _symmetric_pass(mat: IntMatrix) -> tuple[int, int, list[list[int]]]:
    """Signature, determinant and kept pivot rows of the symmetric Bareiss
    elimination of mat, kept to its upper triangle: row i of the block
    holds columns i, i + 1, ....  The pivots are nested principal minors
    D_1, D_2, ... of a matrix Q' = E mat E^T congruent to mat, and by
    Jacobi's rule each contributes the sign of D_k D_{k-1} (D_0 = 1).  A
    zero pivot with b = a[0][k] != 0 is repaired by adding s times row k,
    rebuilt whole from a[j][k - j] (j < k) and a[k], and column k, which
    reaches row 0 and the kept pivot rows alone: the pivot becomes
    2sb + a[k][k], nonzero for one of s = 1, -1, and the kept rows stay
    those of the elimination of Q'.  A zero row and column is a radical
    direction: row 0 is dropped and the determinant is 0.

    The single step on the pivot p = a[0][0] leaves the block
    (a[i][j] p - a[0][i] a[0][j]) / prev for i, j >= 1, prev being the
    previous pivot (1 before the first step).  By Sylvester's identity each
    entry is the minor of the eliminated rows bordered by row i and column
    j, so the division is exact and entries stay integers.

    Once the pivot p = D_k is kept and at least 3 rows are left, the next
    pivot row comes from row 1 alone by the one-step formula.  If its pivot
    p1 = D_{k+1} is nonzero it is kept too, and the step-(k + 2) block comes
    straight from the step-k block b, with prev = D_{k-1}, by the 3 x 3
    Sylvester identity: entry (i, j), i, j >= 2, is the minor of b on rows
    0, 1, i and columns 0, 1, j over prev^2.  Expanded along column j it is
    b_ij p1 prev - b_1j m1 + b_0j m0, with m1 = p b_1i - b_01 b_0i and
    m0 = b_01 b_1i - b_11 b_0i.  Both cofactors are 2 x 2 minors of b, so
    multiples of prev by Sylvester's identity again: m1 / prev is entry
    i - 1 of the row-1 pivot row just computed, and m0 / prev is one exact
    division a row.  So the entry is (b_ij p1 - b_1j m1' + b_0j m0') / prev,
    m1' and m0' the two quotients, one division by prev on operands half
    as wide as those over prev^2.  A zero p1, or 2 rows or fewer, takes the
    single step, which reuses the row 1 already computed, and the next
    pivot's repair sees the zero as before; so the kept rows, pivots and
    repairs are those of single steps."""
    if not mat.is_symmetric():
        raise NotSymmetric("the matrix is not square and symmetric")
    a = [list(row[i:]) for i, row in enumerate(mat.entries)]
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
            top = a[0] = [x + s * y for x, y in zip(top, row_k)]
            for row in a[:1] + kept:  # column 0 of the block is len(top) from the end
                row[-len(top)] += s * row[k - len(top)]
        p = top[0]
        signature += 1 if (p > 0) == (prev > 0) else -1
        kept.append(top)
        done = []  # rows of the single step computed already
        if len(a) > 2:
            one, f = a[1], top[1]
            nxt = [(x * p - f * y) // prev for x, y in zip(one, top[1:])]
            p1 = nxt[0]
            if p1:
                signature += 1 if (p1 > 0) == (p > 0) else -1
                kept.append(nxt)
                block = []
                for i, row in enumerate(a[2:], 2):
                    m1, m0 = nxt[i - 1], (f * one[i - 1] - one[0] * top[i]) // prev
                    block.append([(x * p1 - y * m1 + z * m0) // prev
                                  for x, y, z in zip(row, one[i - 1:], top[i:])])
                prev, a = p1, block
                continue
            done = [nxt]  # a zero p1: nxt is the single step's row 1
        start = 1 + len(done)
        prev, a = p, done + [[(x * p - f * y) // prev for x, y in zip(row, top[i:])]
                             for i, (f, row) in enumerate(zip(top[start:], a[start:]), start)]
    return signature, prev if len(kept) == mat.rows else 0, kept


def _rebuilt_block(kept: list[list[int]], m: int) -> list[list[int]]:
    """Upper triangle of the block left to eliminate at step m of a pass
    that kept every pivot row, rebuilt from kept rows m, ..., n - 1 alone.
    Entry (i, j) is the minor of Q' on rows and columns 0, ..., m - 1 plus
    i and j, D_m S for the Schur complement S of the leading m x m block.
    The steps are inverted last first: with top = kept[s], the step-s block
    has a[0] = top and a[i][j] = (b[i-1][j-1] D_s + top[i] top[j]) / D_{s+1}
    from the step-(s + 1) block b, exact by Sylvester's identity."""
    block = [kept[-1]]
    for s in range(len(kept) - 2, m - 1, -1):
        top, prev = kept[s], kept[s - 1][0] if s else 1
        p = top[0]
        block = [top] + [[(x * prev + f * y) // p for x, y in zip(row, top[i:])]
                         for i, (f, row) in enumerate(zip(top[1:], block), 1)]
    return block


def exact_signature(q: MatrixLike) -> int:
    """Signature of a symmetric integer matrix, exactly (_symmetric_pass)."""
    return _symmetric_pass(as_int_matrix(q))[0]


def signature_and_smith(q: MatrixLike) -> tuple[int, SmithForm]:
    """Signature and Smith form of a symmetric integer matrix from one
    symmetric elimination of q.  For det q != 0 the last 2x2 block,
    rebuilt from the kept pivot rows, holds alpha = D_{n-1}, beta and
    gamma, three (n-1)-minors of Q', so s_1 ... s_{n-1} divides
    g = gcd(det, alpha, beta, gamma) (smith_normal_form).

    Let m, 1 <= m <= n - 2, be the last step whose pivot D_m is a unit
    mod g, or 0 if there is none.  Over Z/g, Q' = I_m (+) S with S the
    Schur complement of its leading m x m block, and the step-m block is
    D_m S, a unit times S: the head is m ones and the first k - 1 factors
    of that k x k block mod g (k = n - m).  The block is rebuilt only when
    k <= max(m, 2), where that costs less than the loop it shortens;
    otherwise m = 0 and the block is q.  A singular or empty q is reduced
    over Z."""
    mat = as_int_matrix(q)
    signature, det, kept = _symmetric_pass(mat)
    if not det or not kept:
        return signature, SmithForm(tuple(_smith_factors(mat.to_lists(), 0)))
    n = len(kept)
    g = gcd(det, *chain.from_iterable(_rebuilt_block(kept, n - 2))) if n > 1 else 1
    m = next((m for m in range(n - 2, 0, -1) if gcd(kept[m - 1][0], g) == 1), 0)
    k = n - m
    if k <= max(m, 2):
        block = _rebuilt_block(kept, m)
        block = [[block[j][i - j] for j in range(i)] + block[i] for i in range(k)]
    else:
        m, block = 0, mat.to_lists()
    head = [1] * m + _smith_factors(block, g)[:-1]
    return signature, SmithForm((*head, abs(det) // prod(head)))


class Gf2Solution(namedtuple("Gf2Solution", "particular kernel")):
    """Affine solution set of a GF(2) system, particular + span(kernel),
    each vector an int mask with column 0 the leading of nc bits.  The
    kernel is in reduced echelon form and ascending: each vector's leading
    bit is a free column, and is in no other vector nor in particular."""

    __slots__ = ()


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def solve_gf2(a: MatrixLike, b: Sequence[int]) -> Gf2Solution:
    """Solve a x = b over GF(2); entries of a and b are reduced mod 2.

    Raises Unsolvable when the system is inconsistent.  (a | b) mod 2 is
    packed by one C-level pass into one int of max(rows, nc) lanes, nc + 1
    bits wide: row 0 the highest lane, column 0 the leading bit of a lane
    and b its last.  Lane nc - 1 - j is column j's place.  The columns are
    eliminated from nc - 1 down to 0, each by a few whole-int operations,
    with no loop over rows: column j of every lane is read by one shift
    and mask; a lane with a 1 there that holds no pivot, its place first,
    becomes column j's pivot, is added to every other lane with a 1 there
    by one multiply, carry-free as each lane gets one copy, and is swapped
    into its place.  A column with no such lane is free.  Every lane that
    holds no pivot is then 0 but for b, where a 1 reads 0 = 1.

    Read from the top, the lowest nc lanes are then the rows of a reduced
    echelon form in column order, a free column's lane 0.  Their b column
    is the particular solution, 0 at each free column f, and their column
    f plus bit f is f's kernel vector.  A free column f > j is 0 in every
    lane that holds no pivot when j is eliminated, so pivot row j has a 1
    at f only for f < j: f is its vector's leading bit, and the vectors,
    taken as f falls, ascend.
    """
    mat = as_int_matrix(a)
    rows, nc = mat.rows, mat.cols
    if len(b) != rows:
        raise ValueError(f"right-hand side has length {len(b)}, expected {rows}")
    if not {int}.issuperset(map(type, b)):  # one C-level scan
        _refuse_non_int(b, "right-hand side entry")
    w = nc + 1
    lane = (1 << w) - 1
    ones = ((1 << max(rows, nc) * w) - 1) // lane  # bit 0 of each lane
    entries = chain.from_iterable(map(tuple.__add__, mat.entries, zip(b)))
    m = int(b"0" + bytes([x & 1 for x in entries]).translate(_BIT_DIGITS), 2)
    free, avail = [], ones  # avail: the lanes that hold no pivot
    for j, at in zip(range(nc - 1, -1, -1), range(0, nc * w, w)):
        col, slot = m >> nc - j & ones, 1 << at
        if col & slot:  # the pivot is in its place
            m ^= (m >> at & lane) * (col ^ slot)
        elif pick := col & avail:
            pick &= -pick
            row = m >> pick.bit_length() - 1 & lane
            m ^= row * (col ^ pick)
            m ^= (row ^ m >> at & lane) * (pick | slot)
        else:
            free.append(j)
            continue
        avail ^= slot
    if m & avail:
        raise Unsolvable("inconsistent linear system over GF(2)")
    bits = f"{m:0{nc * w}b}"
    kernel = tuple(int(bits[f::w], 2) | 1 << nc - 1 - f for f in free)
    return Gf2Solution(int(bits[nc::w], 2), kernel)
