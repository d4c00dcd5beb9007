"""The exact linear-algebra kernel."""

import os
import random
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from framings import (
    IntMatrix,
    NotSymmetric,
    SmithForm,
    Unsolvable,
    exact_signature,
    signature_and_smith,
    smith_normal_form,
    solve_gf2,
)

from framings import exactmath
import oracles
from records import assert_rejected, assert_round_trips
from strategies import (
    congruent_diagonal_forms,
    degenerate_symmetric_matrices,
    hyperbolic,
    int_matrices,
    symmetric_int_matrices,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class TestIntMatrix:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="^matrix rows have unequal lengths$"):
            IntMatrix([[1, 2], [3]])

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            IntMatrix((((Fraction(1, 2)),),))

    @pytest.mark.parametrize("entry", [2.7, np.int64(3)], ids=["float", "numpy"])
    def test_from_rows_rejects_non_integers(self, entry):
        with pytest.raises(TypeError, match=f"^non-integer matrix entry {re.escape(repr(entry))}$"):
            IntMatrix([[entry]])

    @pytest.mark.parametrize("entry, name", [
        ("x" * 38, repr("x" * 38)), ("x" * 39, "of type str"),
        ([[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]], "of type list"),
        (Fraction(10**40, 3), "of type Fraction"),
    ], ids=["40-chars", "41-chars", "nested", "long-fraction"])
    def test_a_long_entry_is_named_by_its_type(self, entry, name):
        with pytest.raises(TypeError, match=f"^non-integer matrix entry {re.escape(name)}$"):
            IntMatrix([[1, entry]])

    @pytest.mark.parametrize("rows", [[[1], 2], [[1], None], [3]], ids=["int", "none", "first"])
    def test_a_row_that_is_no_list_is_named_by_its_index(self, rows):
        with pytest.raises(TypeError, match=f"^matrix row {len(rows) - 1} is not a list of integers$"):
            IntMatrix(rows)

    @pytest.mark.parametrize("entry", [True, False])
    def test_rejects_bools(self, entry):
        # bool is a subclass of int; accepting it would hand True back from to_lists().
        with pytest.raises(TypeError):
            IntMatrix([[1, entry], [entry, 1]])

    @pytest.mark.parametrize("entries, exc, message", [
        (((1, 2), (3,)), ValueError, "matrix rows have unequal lengths"),
        (((1, 2.5),), TypeError, "non-integer matrix entry 2.5"),
        (((True,),), TypeError, "non-integer matrix entry True"),
    ], ids=["ragged", "float", "bool"])
    def test_every_build_runs_the_checks(self, entries, exc, message):
        good = IntMatrix([[1, 2], [2, 1]])
        assert_rejected(good, {"entries": entries}, exc, message)
        assert_round_trips(good)

    def test_every_build_stores_tuple_rows(self):
        good = IntMatrix(())
        for built in (IntMatrix([[1, 2]]), good._replace(entries=[[1, 2]]),
                      IntMatrix._make([[[1, 2]]])):
            assert type(built.entries) is tuple and type(built.entries[0]) is tuple
            assert built == IntMatrix(((1, 2),))

    def test_empty_matrix(self):
        m = IntMatrix(())
        assert (m.rows, m.cols) == (0, 0)
        assert m.det() == 1
        assert m.is_symmetric()

    def test_basic_accessors(self):
        m = IntMatrix([[1, 2], [3, 4]])
        assert m.diagonal() == (1, 4)
        assert m.trace() == 5
        assert m.to_lists() == [[1, 2], [3, 4]]
        assert not m.is_symmetric()

    @given(int_matrices(max_rows=5, max_cols=5, lo=-1, hi=1))
    def test_is_symmetric_compares_every_mirrored_pair(self, rows):
        n = len(rows)
        expected = all(len(row) == n for row in rows) and all(
            rows[i][j] == rows[j][i] for i in range(n) for j in range(n))
        assert IntMatrix(rows).is_symmetric() == expected

    def test_determinant_with_zero_pivot(self):
        # Each zero pivot is repaired by a later row and its column, with
        # s = 1 or, where 2b + c = 0, s = -1; a zero row is radical, det 0.
        assert IntMatrix([[0, 1], [1, 0]]).det() == -1
        assert IntMatrix([[0, 2], [2, 0]]).det() == -4
        assert IntMatrix([[0, 1], [1, -2]]).det() == -1
        assert IntMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == -1
        assert IntMatrix([[0, 0], [0, 2]]).det() == 0

    @pytest.mark.parametrize("rows", [[[1, 2]], [[1], [2]], [[0, 2], [3, 0]]],
                             ids=["wide", "tall", "asymmetric"])
    def test_determinant_of_a_non_symmetric_matrix_is_refused(self, rows):
        with pytest.raises(NotSymmetric, match="^the matrix is not square and symmetric$"):
            IntMatrix(rows).det()

    # Zero diagonals, zero rows and copied rows drive the pass's repairs and
    # radical skips; the rational oracle eliminates the whole matrix.
    @given(st.one_of(symmetric_int_matrices(max_size=7), degenerate_symmetric_matrices(),
                     symmetric_int_matrices(max_size=5, lo=-10**12, hi=10**12),
                     symmetric_int_matrices(max_size=7, lo=0, hi=1),
                     symmetric_int_matrices(max_size=7, lo=-2, hi=2)))
    @example([[0, 0, 0], [0, 0, 3], [0, 3, 0]])  # a radical row, then a repair
    # A zero first pivot that only s = -1 repairs: s = 1 would leave it 0,
    # and a divisor of the steps after it.
    @example([[0, 0, 1, 0, 1], [0, -2, 0, 1, 1], [1, 0, -2, -2, 0], [0, 1, -2, 0, -1],
              [1, 1, 0, -1, -2]])
    @settings(max_examples=200)
    def test_determinant_matches_rational_gauss(self, rows):
        assert IntMatrix(rows).det() == oracles.det_fraction_gauss(rows)

    @given(int_matrices(max_rows=5, max_cols=5))
    def test_determinant_of_a_non_symmetric_draw_is_refused(self, rows):
        n = len(rows)
        if all(len(row) == n for row in rows) and all(
                rows[i][j] == rows[j][i] for i in range(n) for j in range(n)):
            return
        with pytest.raises(NotSymmetric):
            IntMatrix(rows).det()


class TestSmithNormalForm:
    def test_chain_link_matrix(self):
        assert smith_normal_form([[2, 1], [1, 2]]).invariant_factors == (1, 3)

    def test_identity(self):
        identity = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert smith_normal_form(identity).invariant_factors == (1, 1, 1)

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]).invariant_factors == (0, 0)

    def test_empty_matrix(self):
        assert smith_normal_form([]).invariant_factors == ()

    def test_rectangular(self):
        assert smith_normal_form([[2, 4, 6]]).invariant_factors == (2,)
        assert smith_normal_form([[2], [4], [6]]).invariant_factors == (2,)

    @pytest.mark.parametrize("factors, exc, message", [
        ((1, -2), ValueError, "invariant factors must be nonnegative"),
        ((-5,), ValueError, "invariant factors must be nonnegative"),
        ((0, 2), ValueError, "zero invariant factors must come last"),
        ((2, 3), ValueError, "invariant factors must form a divisibility chain"),
        ((1.5,), TypeError, "non-integer invariant factor 1.5"),
        ((True,), TypeError, "non-integer invariant factor True"),
        ((2, "4"), TypeError, "non-integer invariant factor '4'"),
    ], ids=["negative", "lone-negative", "zero-first", "not-a-chain", "float", "bool", "str"])
    def test_every_build_runs_the_checks(self, factors, exc, message):
        good = SmithForm((1, 2, 0))
        assert_rejected(good, {"invariant_factors": factors}, exc, message)
        assert_round_trips(good)

    def test_every_build_stores_a_tuple(self):
        good = SmithForm(())
        for built in (SmithForm([2, 4]), good._replace(invariant_factors=[2, 4]),
                      SmithForm._make([[2, 4]])):
            assert type(built.invariant_factors) is tuple
            assert built == SmithForm((2, 4))

    def test_rank_and_kernel_rank(self):
        form = smith_normal_form([[2, 0, 0], [0, 0, 0], [0, 0, 6]])
        assert form.invariant_factors == (2, 6, 0)
        assert form.kernel_rank == 1

    @pytest.mark.parametrize("rows, t", [
        ([[-3, -3], [-3, -2]], 4),
        ([[12, 0, -2, -2, -1, 0], [0, 4, 6, 9, 1, 4], [-2, 6, 12, 5, 0, 1],
          [-2, 9, 5, 6, 0, 0], [-1, 1, 0, 0, 3, 1], [0, 4, 1, 0, 1, 6]], 16),
    ], ids=["2x2-mod-4", "6x6-mod-16"])
    def test_loop_mod_t_ends_on_entries_outside_0_to_t(self, rows, t):
        # A negative entry lets a remainder mod t outgrow its pivot, and an
        # unreduced loop never ends; a child process turns a hang into a failure.
        code = f"from framings import exactmath; print(exactmath._smith_factors({rows!r}, {t}))"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                                timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.decode() == f"{[gcd(s, t) for s in oracles.smith_by_hermite(rows)]}\n"

    @given(int_matrices(max_rows=4, max_cols=4))
    def test_matches_minor_gcd_oracle(self, rows):
        assert (smith_normal_form(rows).invariant_factors
                == oracles.invariant_factors_by_minors(rows))

    @given(int_matrices(max_rows=6, max_cols=6))
    def test_divisibility_chain(self, rows):
        factors = smith_normal_form(rows).invariant_factors
        for a, b in zip(factors, factors[1:]):
            if b == 0:
                continue
            assert a != 0 and b % a == 0

    @given(int_matrices(max_rows=6, max_cols=6))
    def test_product_of_factors_is_abs_det(self, rows):
        if len(rows) != (len(rows[0]) if rows else 0):
            return
        det = oracles.det_fraction_gauss(rows)
        if det == 0:
            return
        product = 1
        for factor in smith_normal_form(rows).invariant_factors:
            product *= factor
        assert product == abs(det)

    # About 10 times the slowest kind's time (symmetric_large, 1 s on a
    # shared 2-vCPU machine, Python 3.11): a kernel fault that lets the
    # entries grow fails here instead of running for many minutes.
    @pytest.mark.time_limit(10)
    @pytest.mark.parametrize("kind", ["dense", "sparse", "singular_even", "symmetric_large"])
    def test_workload_sizes_against_ranks_mod_p(self, kind):
        # The minor-gcd oracle is exponential; at n = 10-100 the Hermite
        # oracle gives the factors, and each prime p pins how many of them
        # it divides: size - rank over GF(p).  Past n = 40 the rational
        # determinant oracle takes seconds, so the product is held to the
        # textbook Bareiss determinant there; CI checks n = 100 against the
        # rational oracle.
        for rows in _workload_size_matrices(kind, random.Random(f"smith:{kind}")):
            factors = smith_normal_form(rows).invariant_factors
            assert factors == oracles.smith_by_hermite(rows)
            size = min(len(rows), len(rows[0]))
            assert len(factors) == size
            for a, b in zip(factors, factors[1:]):
                assert b == 0 or (a != 0 and b % a == 0)
            for p in (2, 3, 5, 7):
                divisible = sum(1 for f in factors if f % p == 0)
                assert divisible == size - oracles.rank_mod_p(rows, p)
            if len(rows) == len(rows[0]):
                product = 1
                for factor in factors:
                    product *= factor
                det = (oracles.det_fraction_gauss(rows) if len(rows) <= 40
                       else oracles.det_bareiss(rows))
                assert product == abs(det)


def _symmetric(n: int, entries, rng: random.Random) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.choice(entries)
    return rows


def _workload_size_matrices(kind: str, rng: random.Random, count: int = 12):
    """Seeded matrices at the sizes the benchmark workloads run.

    dense: entries in [-3, 3], square or rectangular; sparse: entries from
    {0, 2, 4, 6, 9, 12}, rich in factors 2 and 3; singular_even: symmetric
    with even diagonal, and singular because the last row and column are
    the sums of two others; symmetric_large: symmetric at n = 60 and 100,
    dense in [-3, 3], or 6 times such a matrix, whose Smith form is
    reduced modulo a t of at least 6^59.
    """
    if kind == "symmetric_large":
        yield _symmetric(100, range(-3, 4), rng)
        yield _symmetric(60, range(-3, 4), rng)
        yield [[6 * x for x in row] for row in _symmetric(60, range(-3, 4), rng)]
        return
    for k in range(count):
        n = rng.randint(10, 40)
        cols = n if k % 2 == 0 else rng.randint(10, 40)
        if kind == "dense":
            yield [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(n)]
        elif kind == "sparse":
            yield [[rng.choice((0, 0, 0, 2, 4, 6, 9, 12)) for _ in range(cols)]
                   for _ in range(n)]
        else:
            q = [[0] * (n - 1) for _ in range(n - 1)]
            for i in range(n - 1):
                for j in range(i, n - 1):
                    v = rng.choice((-2, 0, 2)) if i == j else rng.randint(-3, 3)
                    q[i][j] = q[j][i] = v
            i, j = rng.sample(range(n - 1), 2)
            last = [x + y for x, y in zip(q[i], q[j])]
            for row, x in zip(q, last):
                row.append(x)
            q.append(last + [last[i] + last[j]])
            yield q


E8_ROWS = [
    [2, 1, 0, 0, 0, 0, 0, 0],
    [1, 2, 1, 0, 0, 0, 0, 0],
    [0, 1, 2, 1, 0, 0, 0, 0],
    [0, 0, 1, 2, 1, 0, 0, 0],
    [0, 0, 0, 1, 2, 1, 0, 1],
    [0, 0, 0, 0, 1, 2, 1, 0],
    [0, 0, 0, 0, 0, 1, 2, 0],
    [0, 0, 0, 0, 1, 0, 0, 2],
]


class TestExactSignature:
    def test_e8_form(self):
        assert exact_signature(E8_ROWS) == 8

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_negative_definite_1x1(self, m):
        assert exact_signature([[-m]]) == -1

    def test_empty_form(self):
        assert exact_signature([]) == 0

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            exact_signature([[0, 1], [2, 0]])

    def test_hyperbolic_plane(self):
        assert exact_signature([[0, 1], [1, 0]]) == 0
        assert exact_signature([[0, 3], [3, 0]]) == 0
        assert exact_signature([[0, 1], [1, -2]]) == 0  # 2b + a[k][k] = 0: s = -1

    def test_zero_rows_are_skipped(self):
        assert exact_signature([[0, 0, 0], [0, 5, 0], [0, 0, -2]]) == 0

    @given(symmetric_int_matrices(max_size=6))
    def test_negation_flips_signature(self, rows):
        negated = [[-x for x in row] for row in rows]
        assert exact_signature(negated) == -exact_signature(rows)

    @given(symmetric_int_matrices(max_size=4), symmetric_int_matrices(max_size=4))
    def test_block_sum_additivity(self, a, b):
        n, m = len(a), len(b)
        block = [row + [0] * m for row in a] + [[0] * n + row for row in b]
        assert exact_signature(block) == exact_signature(a) + exact_signature(b)

    @given(symmetric_int_matrices(max_size=8))
    @settings(max_examples=150)
    def test_agrees_with_eigenvalue_signs(self, rows):
        expected, clear = oracles.signature_by_eigenvalues(rows)
        if clear:
            assert exact_signature(rows) == expected

    @given(st.one_of(symmetric_int_matrices(max_size=8),
                     symmetric_int_matrices(max_size=8, lo=-10**12, hi=10**12)))
    @settings(max_examples=200)
    def test_agrees_with_charpoly_oracle(self, rows):
        assert exact_signature(rows) == oracles.signature_by_charpoly(rows)

    @given(st.one_of(degenerate_symmetric_matrices(),
                     degenerate_symmetric_matrices(lo=-10**12, hi=10**12)))
    @settings(max_examples=300)
    def test_zero_pivot_repairs_agree_with_charpoly_oracle(self, rows):
        assert exact_signature(rows) == oracles.signature_by_charpoly(rows)

    @given(congruent_diagonal_forms())
    def test_ill_conditioned_forms_keep_their_inertia(self, case):
        rows, inertia = case
        assert exact_signature(rows) == oracles.signature_by_charpoly(rows) == inertia

    def test_near_singular_form_beyond_the_float_oracle(self):
        # Congruent to diag(1, -1); the negative eigenvalue is about -1e-12.
        m = 10**6
        rows = [[1, m], [m, m * m - 1]]
        assert not oracles.signature_by_eigenvalues(rows)[1]
        assert exact_signature(rows) == oracles.signature_by_charpoly(rows) == 0


@st.composite
def _nonzero_leading_minors(draw, max_size=12):
    """Dense symmetric Q = L D L^T, L unit lower triangular and D a nonzero
    diagonal: its leading principal minors are the products of the first
    entries of D, so none is zero and no pivot needs a repair."""
    n = draw(st.integers(1, max_size))
    d = [draw(st.integers(-3, 3).filter(bool)) for _ in range(n)]
    low = [[draw(st.integers(-2, 2)) if j < i else int(i == j) for j in range(n)]
           for i in range(n)]
    return [[sum(low[i][k] * d[k] * low[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


@st.composite
def _paired_pivot_forms(draw, max_size=10):
    """Symmetric Q = L B L^T, L unit lower triangular and B block diagonal:
    nonzero 1 x 1 blocks and 2 x 2 blocks [[0, b], [b, c]] with b != 0.  L
    keeps B's leading minors, so Q is nonsingular and its minor ending at a
    2 x 2 block's first row is 0.  Met as the first pivot of a double step
    (block at an even index, all steps double so far) it needs a repair;
    met as the second (odd index) it is p1 = 0 and the single step runs."""
    n = draw(st.integers(1, max_size))
    b = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        if i + 1 < n and draw(st.booleans()):
            b[i][i + 1] = b[i + 1][i] = draw(st.integers(-3, 3).filter(bool))
            b[i + 1][i + 1] = draw(st.integers(-3, 3))
            i += 2
        else:
            b[i][i] = draw(st.integers(-3, 3).filter(bool))
            i += 1
    low = [[draw(st.integers(-2, 2)) if j < i else int(i == j) for j in range(n)]
           for i in range(n)]
    lb = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in low]
    return [[sum(x * y for x, y in zip(row, other)) for other in low] for row in lb]


def _dense_symmetric(rng: random.Random, n: int) -> list[list[int]]:
    """A symmetric n x n matrix with entries drawn from [-3, 3]."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-3, 3)
    return rows


class TestSymmetricPass:
    @given(_nonzero_leading_minors())
    @settings(max_examples=60)
    def test_kept_rows_are_bordered_leading_minors(self, rows):
        # By Sylvester's identity kept row k holds, for each column j >= k,
        # the minor of rows 0..k and columns 0..k-1, j; at j = k that is the
        # leading (k + 1)-block, the k-th pivot.  The triangle stores only
        # these entries, so each is checked by the rational oracle.
        n = len(rows)
        _, det, kept = exactmath._symmetric_pass(IntMatrix(rows))
        assert len(kept) == n
        for k, row in enumerate(kept):
            assert row == [oracles.det_fraction_gauss([r[:k] + [r[j]] for r in rows[:k + 1]])
                           for j in range(k, n)]
        assert det == kept[-1][0] == oracles.det_fraction_gauss(rows)

    # Each 2 x 2 block meets the double step in one of its branches: a
    # repair of its first pivot, or p1 = 0 and the single step after it.
    @given(_paired_pivot_forms())
    @example([[0, 1, 0], [1, 0, 0], [0, 0, 2]])  # repaired first pivot, then a double step
    @example([[1, 0, 0], [0, 0, 1], [0, 1, 0]])  # p1 = 0: the single step
    @example([[0, 1], [1, 3]])  # n = 2 and n = 1: single steps alone
    @example([[-2]])
    @settings(max_examples=150)
    def test_double_step_branches_agree_with_the_oracles(self, rows):
        signature, det, kept = exactmath._symmetric_pass(IntMatrix(rows))
        assert len(kept) == len(rows)
        assert signature == oracles.signature_by_charpoly(rows)
        assert det == oracles.det_fraction_gauss(rows) != 0
        factors = signature_and_smith(rows)[1].invariant_factors
        if len(rows) <= 5:
            assert factors == oracles.invariant_factors_by_minors(rows)
        else:
            assert factors == oracles.smith_by_hermite(rows)

    # Dense forms whose pivots run to many digits: the double step's one
    # division by the previous pivot, and the cofactor m0 divided by it
    # first, are exact only as Sylvester's identity says, and a wrong
    # divisor or a misread row-1 entry shows in every later pivot.
    @pytest.mark.time_limit(20)
    @pytest.mark.parametrize("n, seed", [(12, 1), (24, 0), (40, 0)])  # seeds with no D_k = 0
    def test_dense_pivots_are_the_leading_minors(self, n, seed):
        rows = _dense_symmetric(random.Random(seed), n)
        minors = [oracles.det_fraction_gauss([r[:k] for r in rows[:k]]) for k in range(1, n + 1)]
        assert all(minors)  # no pivot is 0, so none is repaired
        _, det, kept = exactmath._symmetric_pass(IntMatrix(rows))
        assert [row[0] for row in kept] == minors
        assert det == minors[-1]
        assert len(str(abs(minors[n // 2]))) >= 5

    # A leading minor D_k made 0 by repeating row 0 as row k - 1 on the
    # leading k x k block: at k = 10 the second pivot of a double step,
    # p1 = 0, takes the single step and the next pivot its repair; at
    # k = 11 the first pivot of a double step is repaired.  Both come after
    # pivots of several digits.
    @pytest.mark.time_limit(10)
    @pytest.mark.parametrize("k", [10, 11], ids=["p1=0", "repair"])
    def test_zero_pivot_branches_agree_with_the_oracles(self, k):
        rows = _dense_symmetric(random.Random(0), 24)
        for j in range(k):
            rows[k - 1][j] = rows[j][k - 1] = rows[0][j]
        rows[k - 1][0] = rows[0][k - 1] = rows[k - 1][k - 1] = rows[0][0]
        minors = [oracles.det_fraction_gauss([r[:i] for r in rows[:i]]) for i in range(1, k + 1)]
        assert all(minors[:-1]) and minors[-1] == 0
        signature, det, kept = exactmath._symmetric_pass(IntMatrix(rows))
        assert [row[0] for row in kept[:k - 1]] == minors[:-1]
        assert kept[k - 1][0] != 0  # the repaired pivot
        assert det == oracles.det_fraction_gauss(rows) != 0
        assert signature == _signature(rows)

    @given(_nonzero_leading_minors(max_size=10))
    @settings(max_examples=40)
    def test_rebuilt_block_is_the_bordered_minors(self, rows):
        # The step-m block, run backwards out of the kept rows m..n-1, holds
        # at (i, j) the minor of Q on rows and columns 0..m-1 plus i and j.
        n = len(rows)
        kept = exactmath._symmetric_pass(IntMatrix(rows))[2]
        for m in range(n):
            lead = list(range(m))
            assert exactmath._rebuilt_block(kept, m) == [
                [oracles.det_fraction_gauss([[rows[r][c] for c in lead + [j]] for r in lead + [i]])
                 for j in range(i, n)]
                for i in range(m, n)]


def _over_z(rows: list[list[int]]) -> SmithForm:
    """The Smith form from the smallest-pivot loop over Z, with no modulus:
    the kernel's other route, a route check and no oracle."""
    return SmithForm(tuple(exactmath._smith_factors([list(row) for row in rows], 0)))


def _signature(rows: list[list[int]]) -> int:
    """The signature by eigenvalue signs, or by the characteristic
    polynomial where an eigenvalue is too near 0 for the float oracle."""
    sigma, clear = oracles.signature_by_eigenvalues(rows)
    return sigma if clear else oracles.signature_by_charpoly(rows)


def _modulus(monkeypatch, rows: list[list[int]]) -> tuple[int, int]:
    """The modulus g of the one loop signature_and_smith runs (0 when it
    reduces rows over Z) and the size of the matrix the loop receives; its
    answer is checked against the signature and Hermite oracles."""
    expected = (_signature(rows), SmithForm(oracles.smith_by_hermite(rows)))
    loop, seen = exactmath._smith_factors, []

    def recorded(a, t):
        seen.append((t, len(a)))
        return loop(a, t)

    with monkeypatch.context() as patch:
        patch.setattr(exactmath, "_smith_factors", recorded)
        assert signature_and_smith(rows) == expected
    assert len(seen) == 1
    return seen[0]


def _route(monkeypatch, rows: list[list[int]]) -> str:
    """Where signature_and_smith runs its loop on rows: "over Z", "loop"
    (q mod g) or "trailing" (mod g on the block after the last unit pivot,
    smaller than q); checked against the oracles."""
    g, size = _modulus(monkeypatch, rows)
    return "over Z" if not g else "loop" if size == len(rows) else "trailing"


@st.composite
def _prescribed_smith_forms(draw, max_size=10):
    """(U^T D U, s): U unimodular, a product of row additions, and D
    diagonal with entries +-s_1, ..., +-s_n, so the Smith form is s.  The
    last k factors are running products of small multipliers, the rest 1,
    so each count of factors past 1, and each route, is drawn."""
    n = draw(st.integers(1, max_size))
    k = draw(st.integers(0, n))
    factors, s = [1] * (n - k), 1
    for _ in range(k):
        s *= draw(st.sampled_from((1, 2, 3, 4, 6)))
        factors.append(s)
    d = [draw(st.sampled_from((1, -1))) * f for f in factors]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-2, 2))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    rows = [[sum(u[m][i] * d[m] * u[m][j] for m in range(n)) for j in range(n)]
            for i in range(n)]
    return rows, tuple(factors)


class TestSignatureAndSmith:
    """One symmetric elimination of Q gives the signature, det Q and the
    modulus g with s_1 ... s_{n-1} | g | det Q, the gcd of det Q and the
    three (n-1)-minors of its last 2x2 block.  The head of the Smith form
    is then m ones and the head of the block after D_m, the last pivot
    that is a unit mod g, reduced mod g, or the head of Q mod g.  Every
    case is checked against the signature and Hermite oracles."""

    @pytest.mark.parametrize("rows, factors, loop", [
        ([], (), (0, 0)), ([[7]], (7,), (1, 1)), ([[-7]], (7,), (1, 1)), ([[0]], (0,), (0, 1)),
    ], ids=["empty", "positive", "negative", "zero"])
    def test_small_forms(self, monkeypatch, rows, factors, loop):
        assert _modulus(monkeypatch, rows) == loop
        assert signature_and_smith(rows)[1].invariant_factors == factors

    def test_e8_loops_mod_1_on_its_last_block(self, monkeypatch):
        # det = 1, so g = 1 and every pivot is a unit: m = 6, and the loop
        # mod 1 on the last 2x2 block gives the head all ones.
        assert _modulus(monkeypatch, E8_ROWS) == (1, 2)
        assert signature_and_smith(E8_ROWS) == (8, SmithForm((1,) * 8))

    # g = gcd(d^n, d^(n-1), 0, d^(n-1)) = |d|^(n-1).  Every D_m = d^m past
    # D_0 = 1 shares g's factors, so m = 0 and the loop runs on all of Q.
    @pytest.mark.parametrize("d, n", [(2, 2), (6, 3), (-5, 4)])
    def test_scalar_matrix_modulus_is_d_to_the_n_minus_1(self, monkeypatch, d, n):
        rows = [[d if i == j else 0 for j in range(n)] for i in range(n)]
        assert _modulus(monkeypatch, rows) == (abs(d) ** (n - 1), n)
        assert signature_and_smith(rows) == (n if d > 0 else -n, SmithForm((abs(d),) * n))

    def test_last_block_minors_cut_det_16_to_g_4(self, monkeypatch):
        # 4 I - J: the last block's minors alpha = 8, beta = 4 and gamma = 8
        # cut det = 16 to g = 4, and D_1 = 3 is a unit mod 4: the loop runs
        # mod 4 on the 2x2 block after it, which is 0 mod 4.
        rows = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
        assert oracles.det_fraction_gauss(rows) == 16
        assert _modulus(monkeypatch, rows) == (4, 2)
        assert signature_and_smith(rows)[1].invariant_factors == (1, 4, 4)

    @pytest.mark.parametrize("rows, form, route", [
        (hyperbolic([[3]]), (0, (3, 3)), "loop"),
        (hyperbolic([[-1, 2], [3, -1]]), (0, (1, 1, 5, 5)), "trailing"),
        (hyperbolic([[1, 1, 0], [0, 2, 1], [1, 0, 3]]), (0, (1, 1, 1, 1, 7, 7)), "trailing"),
        ([[2, 2, 3], [2, 2, 0], [3, 0, 0]], (1, (1, 3, 6)), "trailing"),
        (hyperbolic([[2, 0], [0, 6]]), (0, (2, 2, 6, 6)), "loop"),
    ], ids=["plane", "B2", "B3", "after-a-pivot", "B2-even"])
    def test_zero_pivot_repairs_reach_the_kept_pivot_rows(self, monkeypatch, rows, form, route):
        # The plane is repaired at its first pivot.  Every other elimination
        # meets a zero pivot after a kept pivot row with nonzero entries in
        # the repaired columns; without the repair on that row, the block
        # minors give a g that loses a factor, and the rebuilt blocks are not
        # those of Q'.
        assert _route(monkeypatch, rows) == route
        assert signature_and_smith(rows) == (form[0], SmithForm(form[1]))

    # A zero pivot with b = a[0][k] and c = a[k][k] is repaired to 2sb + c,
    # and here 2b + c = 0: only s = -1 gives a nonzero pivot.
    @pytest.mark.parametrize("rows, factors, det", [
        ([[0, 1], [1, -2]], (1, 1), -1),
        ([[0, 2], [2, -4]], (2, 2), -4),
        ([[0, -1], [-1, 2]], (1, 1), -1),
    ], ids=["b1", "b2", "b-1"])
    def test_a_zero_pivot_that_needs_s_minus_1(self, rows, factors, det):
        assert exact_signature(rows) == oracles.signature_by_charpoly(rows) == 0
        assert signature_and_smith(rows) == (0, SmithForm(factors))
        assert factors == oracles.invariant_factors_by_minors(rows)
        assert IntMatrix(rows).det() == oracles.det_fraction_gauss(rows) == det

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            signature_and_smith([[0, 1], [2, 0]])

    @given(st.one_of(degenerate_symmetric_matrices(), symmetric_int_matrices(max_size=8),
                     symmetric_int_matrices(max_size=5, lo=-10**6, hi=10**6)))
    @settings(max_examples=200)
    def test_equals_the_oracles_and_the_over_z_loop(self, rows):
        expected = (oracles.signature_by_charpoly(rows), SmithForm(oracles.smith_by_hermite(rows)))
        assert signature_and_smith(rows) == expected
        assert smith_normal_form(rows) == _over_z(rows) == expected[1]  # the two routes agree

    @given(st.one_of(degenerate_symmetric_matrices(max_block=2).filter(lambda r: len(r) <= 5),
                     symmetric_int_matrices(max_size=5)))
    @settings(max_examples=60)
    def test_matches_minor_gcd_oracle(self, rows):
        assert (signature_and_smith(rows)[1].invariant_factors
                == oracles.invariant_factors_by_minors(rows))

    def test_prescribed_smith_forms_take_every_route(self, monkeypatch):
        # U^T D U has the Smith form of D, whichever route reads it.  The
        # draws are derandomized, so the routes they reach do not vary by run.
        routes = Counter()

        @given(_prescribed_smith_forms())
        @settings(max_examples=300, derandomize=True)
        def check(case):
            rows, factors = case
            routes[_route(monkeypatch, rows)] += 1
            assert signature_and_smith(rows)[1].invariant_factors == factors

        check()
        assert set(routes) == {"loop", "trailing"}, routes

    @pytest.mark.time_limit(5)  # about 10 times its 0.4 s
    def test_sizes_to_30_against_ranks_mod_p(self, monkeypatch):
        # Each prime p pins how many factors it divides, n - rank over GF(p),
        # so a head of (1, 4) is told from one of (2, 2)
        # that the product alone would pass.  Dense forms, dense ones with
        # an even diagonal and sparse ones rich in 2 and 3 at n = 2-30.
        rng, routes = random.Random("smith-routes"), Counter()
        for n in range(2, 31):
            even = _symmetric(n, range(-3, 4), rng)
            for i in range(n):
                even[i][i] *= 2
            for rows in (_symmetric(n, range(-3, 4), rng), even,
                         _symmetric(n, (0, 0, 0, 2, 4, 6, 9, 12), rng)):
                routes[_route(monkeypatch, rows)] += 1
                factors = signature_and_smith(rows)[1].invariant_factors
                for p in (2, 3, 5, 7):
                    assert sum(1 for f in factors if f % p == 0) == n - oracles.rank_mod_p(rows, p)
                assert prod(factors) == abs(oracles.det_bareiss(rows))
        assert {"loop", "trailing"} <= set(routes), routes


def _expand(sol) -> list[int]:
    """Every solution as a mask: the particular one plus each subset sum of
    the kernel."""
    out = []
    for picks in range(1 << len(sol.kernel)):
        v = sol.particular
        for k, basis in enumerate(sol.kernel):
            if (picks >> k) & 1:
                v ^= basis
        out.append(v)
    return out


def _mask(x: tuple[int, ...]) -> int:
    """The 0/1 vector x as a mask, x[0] its leading bit."""
    return int("0" + "".join(map(str, x)), 2)


class TestSolveGf2:
    def test_zero_map(self):
        sol = solve_gf2([[0]], [0])
        assert sol.particular == 0
        assert sol.kernel == (0b1,)
        assert sorted(_expand(sol)) == [0b0, 0b1]

    def test_identity_system(self):
        identity = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        sol = solve_gf2(identity, [1, 0, 1])
        assert sol.particular == 0b101
        assert sol.kernel == ()
        assert len(_expand(sol)) == 1

    def test_chain_matrix_mod2(self):
        # [[2,1],[1,2]] reduces to the swap matrix; diagonal reduces to 0.
        sol = solve_gf2([[2, 1], [1, 2]], [2, 2])
        assert _expand(sol) == [0b00]

    def test_unsolvable(self):
        with pytest.raises(Unsolvable):
            solve_gf2([[0]], [1])

    def test_empty_system(self):
        sol = solve_gf2([], [])
        assert sol == (0, ())
        assert _expand(sol) == [0]

    def test_rows_with_no_columns(self):
        # One equation 0 = b: solved by the empty vector alone when b is even.
        assert solve_gf2([[]], [0]) == (0, ())
        with pytest.raises(Unsolvable, match="^inconsistent linear system over GF\\(2\\)$"):
            solve_gf2([[]], [1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_gf2([[1]], [1, 0])

    @pytest.mark.parametrize("entry", [1.5, True, "1"], ids=["float", "bool", "str"])
    def test_refuses_non_integer_right_hand_side(self, entry):
        # bool is refused as it is in a matrix entry.
        with pytest.raises(TypeError,
                           match=f"^non-integer right-hand side entry {re.escape(repr(entry))}$"):
            solve_gf2([[1]], [entry])

    @given(int_matrices(max_rows=4, max_cols=4, lo=0, hi=1),
           st.lists(st.integers(0, 1), max_size=4))
    def test_solution_set_matches_bruteforce(self, rows, b):
        nr = len(rows)
        b = (b + [0] * nr)[:nr]
        expected = oracles.gf2_solutions_bruteforce(rows, b)
        if not expected:
            with pytest.raises(Unsolvable):
                solve_gf2(rows, b)
            return
        sol = solve_gf2(rows, b)
        assert set(_expand(sol)) == set(map(_mask, expected))
        assert len(_expand(sol)) == len(expected)

    @given(int_matrices(max_rows=6, max_cols=6, lo=-3, hi=3),
           st.lists(st.integers(0, 1), min_size=6, max_size=6))
    def test_kernel_is_ascending_reduced_echelon(self, rows, x):
        # b = a x is solvable; the answer must be the reduced echelon form
        # the spin record walks, with nc - rank mod 2 kernel vectors.
        b = [sum(r * v for r, v in zip(row, x)) for row in rows]
        sol = solve_gf2(rows, b)
        assert oracles.gf2_solution_faults(rows, b, *sol) == []

    @pytest.mark.time_limit(5)
    def test_dense_100_against_the_rank_mod_2(self):
        # 100 rows of lanes 101 bits wide, a rank mod 2 of at most 60: the
        # packed int spans thousands of digits and the kernel has 40 vectors or more.
        rng = random.Random(39)
        base = [[rng.randint(-3, 3) for _ in range(100)] for _ in range(60)]
        rows = [[sum(col) + 2 * rng.randint(-1, 1) for col in zip(*rng.sample(base, 5))]
                for _ in range(100)]
        b = [sum(row[:7]) for row in rows]
        sol = solve_gf2(rows, b)
        assert len(sol.kernel) >= 40
        assert oracles.gf2_solution_faults(rows, b, *sol) == []

    def test_characteristic_system_always_solvable_exhaustive(self):
        # a x = diag(a) is solvable for every symmetric bit matrix.
        for n in range(5):
            pairs = [(i, j) for i in range(n) for j in range(i, n)]
            for mask in range(1 << len(pairs)):
                rows = [[0] * n for _ in range(n)]
                for bit, (i, j) in enumerate(pairs):
                    if (mask >> bit) & 1:
                        rows[i][j] = rows[j][i] = 1
                solve_gf2(rows, [rows[i][i] for i in range(n)])

    @given(symmetric_int_matrices(max_size=6, lo=0, hi=1))
    def test_characteristic_system_always_solvable(self, rows):
        solve_gf2(rows, [rows[i][i] for i in range(len(rows))])


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="time_limit is a no-op here")
@pytest.mark.time_limit(0.05)
def test_time_limit_fails_a_test_that_runs_past_it():
    # The marker the workload-size tests carry (tests/conftest.py).
    with pytest.raises(pytest.fail.Exception, match="past its time limit of 0.05 s"):
        time.sleep(5)
