"""Shared hypothesis strategies."""

from __future__ import annotations

import sys

import hypothesis.strategies as st

from framings import FramedLink, FramingOffset, TotalDefect


# The interpreter's limit on the digits int() converts, or where it has none
# the default of those that have one.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


@st.composite
def group_parameter_specs(draw):
    """A C<m> or D<m> spec of up to about 6000 ASCII digits: a parameter of
    at most 2500 (an order of at most 10^4, a quick cotangent sweep) or of
    8 to 6000 significant digits (an order past 10^6), some around
    INT_DIGIT_LIMIT, after no leading zeros, a few, or enough to take the
    whole digit string just past INT_DIGIT_LIMIT."""
    family = draw(st.sampled_from("CD"))
    if draw(st.booleans()):
        significant = str(draw(st.integers(0, 2500)))
    else:
        size = draw(st.one_of(st.integers(8, 6000),
                              st.integers(INT_DIGIT_LIMIT - 2, INT_DIGIT_LIMIT + 2)))
        significant = (str(draw(st.integers(1, 9)))
                       + draw(st.sampled_from("0123456789")) * (size - 1))
    zeros = draw(st.one_of(st.just(0), st.integers(0, max(0, 6000 - len(significant))),
                           st.just(max(0, INT_DIGIT_LIMIT + 1 - len(significant)))))
    return family + "0" * zeros + significant


@st.composite
def int_matrices(draw, max_rows=5, max_cols=5, lo=-5, hi=5):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    if rows == 0 or cols == 0:
        rows = cols = 0  # only the 0x0 empty matrix is legal
    return [[draw(st.integers(lo, hi)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def symmetric_int_matrices(draw, max_size=6, min_size=0, lo=-5, hi=5):
    n = draw(st.integers(min_size, max_size))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(st.integers(lo, hi))
            rows[i][j] = rows[j][i] = v
    return rows


@st.composite
def degenerate_symmetric_matrices(draw, max_block=4, lo=-5, hi=5):
    """Symmetric matrices that drive both zero-pivot outcomes of a symmetric
    elimination, the row-and-column repair and the radical skip, under a
    random simultaneous permutation of rows and columns.

    The block sum of A (nonzero diagonal), a zero block and H (zero
    diagonal), plus copies of some rows and columns of A.  The zero block
    gives zero rows, and so do the copies once the rows they copy are
    eliminated; H has a vanishing diagonal that only the repair can pivot
    on, and zero pivots elsewhere are repaired against the rest.
    """
    a = draw(symmetric_int_matrices(max_size=max_block, lo=lo, hi=hi))
    h = draw(symmetric_int_matrices(max_size=max_block, lo=lo, hi=hi))
    for i in range(len(a)):
        a[i][i] = draw(st.integers(lo, hi).filter(bool))
    for i in range(len(h)):
        h[i][i] = 0
    na, nz, nh = len(a), draw(st.integers(0, 2)), len(h)
    n = na + nz + nh
    rows = [[0] * n for _ in range(n)]
    for i in range(na):
        rows[i][:na] = a[i]
    for i in range(nh):
        rows[na + nz + i][na + nz:] = h[i]
    copies = draw(st.lists(st.integers(0, na - 1), max_size=2)) if na else []
    for i in copies:
        for row in rows:
            row.append(row[i])
        rows.append(list(rows[i]))
    perm = draw(st.permutations(range(len(rows))))
    return [[rows[i][j] for j in perm] for i in perm]


def hyperbolic(b: list[list[int]]) -> list[list[int]]:
    """The zero-diagonal block form [[0, B], [B^T, 0]]: Smith form that of
    B twice over, signature 0."""
    k = len(b)
    return ([[0] * k + list(row) for row in b]
            + [[b[j][i] for j in range(k)] + [0] * k for i in range(k)])


@st.composite
def hyperbolic_forms(draw):
    """hyperbolic(B) for a random B of size 1-3, entries in [-3, 3], under a
    random simultaneous permutation of rows and columns: even, with a zero
    diagonal that a symmetric elimination pivots on only through its
    zero-pivot repair."""
    k = draw(st.integers(1, 3))
    rows = hyperbolic([[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(k)])
    perm = draw(st.permutations(range(2 * k)))
    return [[rows[i][j] for j in perm] for i in perm]


@st.composite
def kirby_moves(draw, presentations):
    """(Q, Q after 1-4 Kirby moves) for a linking matrix Q drawn from
    presentations.  A move is a handle slide Q -> P^T Q P with
    P = I + e E_ji (i != j, e = +-1), which adds e times column j to column
    i and then e times row j to row i, or a blow-up Q -> Q + [e] by a new
    component at a random index."""
    rows = draw(presentations)
    q = [list(row) for row in rows]
    for _ in range(draw(st.integers(1, 4))):
        n, e = len(q), draw(st.sampled_from([1, -1]))
        if n >= 2 and draw(st.booleans()):
            i, j = draw(st.permutations(range(n)))[:2]
            for row in q:
                row[i] += e * row[j]
            q[i] = [x + e * y for x, y in zip(q[i], q[j])]
        else:
            k = draw(st.integers(0, n))
            q = [row[:k] + [0] + row[k:] for row in q]
            q.insert(k, [0] * k + [e] + [0] * (n - k))
    return rows, q


@st.composite
def congruent_diagonal_forms(draw, max_size=4, bound=400_000):
    """(P^T D P, signature of D) for D diagonal in {-1, 0, 1} and P unit
    upper triangular with entries up to bound: integer entries near 10^12
    whose smallest eigenvalues lie far below any floating-point margin."""
    n = draw(st.integers(1, max_size))
    d = [draw(st.sampled_from([-1, 0, 1])) for _ in range(n)]
    p = [[1 if i == j else draw(st.integers(-bound, bound)) if j > i else 0
          for j in range(n)] for i in range(n)]
    rows = [[sum(p[k][i] * d[k] * p[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    return rows, sum(d)


@st.composite
def framed_links(draw, max_components=6):
    return FramedLink.from_rows(draw(symmetric_int_matrices(max_size=max_components,
                                                            lo=-3, hi=3)))


@st.composite
def even_framed_links(draw, max_components=8):
    n = draw(st.integers(0, max_components))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.sampled_from([-2, 0, 2]))
        for j in range(i + 1, n):
            v = draw(st.integers(-3, 3))
            rows[i][j] = rows[j][i] = v
    return FramedLink.from_rows(rows)


# Wide entries mixed with small ones: up to 10**30 either way, and powers of
# two.  A matrix draws its entries from a palette of one to three of them,
# so equal entries, and with copied components blocks of one value, are
# common: there the walk's lanes meet their bound exactly.
_WIDE_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-10**30, 10**30),
    st.builds(lambda sign, k: sign << k, st.sampled_from([1, -1]), st.sampled_from(range(101))),
)


@st.composite
def spin_test_links(draw, max_components=8, wide=False):
    """Links with odd, even or mixed framings, singular ones included; with
    wide, entries from a palette drawn from _WIDE_ENTRIES, else in [-3, 3].

    Some components are copies of others (same framing and linking), which
    makes the matrix singular and raises the mod-2 rank r of H1, so the
    spin structures come in larger numbers.
    """
    framings = draw(st.sampled_from(["even", "odd", "any"]))
    n = draw(st.integers(0, max_components))
    if wide:
        palette = st.sampled_from(draw(st.lists(_WIDE_ENTRIES, min_size=1, max_size=3)))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(palette)
    else:
        rows = draw(symmetric_int_matrices(min_size=n, max_size=n, lo=-3, hi=3))
    for i in range(n):
        if framings == "even":
            rows[i][i] -= rows[i][i] % 2
        elif framings == "odd":
            rows[i][i] |= 1
    for j in range(1, n):
        if draw(st.integers(0, 3)) == 0:
            i = draw(st.integers(0, j - 1))
            for row in rows:
                row[j] = row[i]
            rows[j] = list(rows[i])
    return FramedLink.from_rows(rows)


def total_defects(bound=50):
    return st.builds(TotalDefect, st.integers(-bound, bound), st.integers(-bound, bound))


def framing_offsets(bound=20):
    return st.builds(FramingOffset, st.integers(-bound, bound), st.integers(-bound, bound))
