"""The exact linear-algebra kernel."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from framings import (
    IntMatrix,
    NotSymmetric,
    SmithForm,
    Unsolvable,
    exact_signature,
    smith_normal_form,
    solve_gf2,
)

import oracles
from records import assert_rejected, assert_round_trips
from strategies import (
    congruent_diagonal_forms,
    degenerate_symmetric_matrices,
    int_matrices,
    symmetric_int_matrices,
)


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
        assert m[0, 1] == 2
        assert m.diagonal() == (1, 4)
        assert m.trace() == 5
        assert m.to_lists() == [[1, 2], [3, 4]]
        assert (-m)[1, 0] == -3
        assert not m.is_symmetric()

    def test_determinant_with_zero_pivot(self):
        m = IntMatrix([[0, 1], [1, 0]])
        assert m.det() == -1
        assert IntMatrix([[0, 2], [3, 0]]).det() == -6
        assert IntMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == -1
        assert IntMatrix([[0, 1], [0, 2]]).det() == 0

    @given(int_matrices(max_rows=5, max_cols=5))
    def test_determinant_matches_rational_gauss(self, rows):
        if len(rows) != (len(rows[0]) if rows else 0):
            return
        assert IntMatrix(rows).det() == oracles.det_fraction_gauss(rows)


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

    @pytest.mark.parametrize("factors, message", [
        ((1, -2), "invariant factors must be nonnegative"),
        ((0, 2), "zero invariant factors must come last"),
        ((2, 3), "invariant factors must form a divisibility chain"),
    ], ids=["negative", "zero-first", "not-a-chain"])
    def test_every_build_runs_the_checks(self, factors, message):
        good = SmithForm((1, 2, 0))
        assert_rejected(good, {"invariant_factors": factors}, ValueError, message)
        assert_round_trips(good)

    def test_rank_and_kernel_rank(self):
        form = smith_normal_form([[2, 0, 0], [0, 0, 0], [0, 0, 6]])
        assert form.invariant_factors == (2, 6, 0)
        assert form.rank == 2
        assert form.kernel_rank == 1

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

    @pytest.mark.parametrize("kind", ["dense", "sparse", "singular_even"])
    def test_workload_sizes_against_ranks_mod_p(self, kind):
        # The minor-gcd oracle is exponential; at n = 10-40 each prime p
        # still pins how many factors it divides: size - rank over GF(p).
        for rows in _workload_size_matrices(kind, random.Random(f"smith:{kind}")):
            factors = smith_normal_form(rows).invariant_factors
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
                assert product == abs(oracles.det_fraction_gauss(rows))


def _workload_size_matrices(kind: str, rng: random.Random, count: int = 12):
    """Seeded matrices at the sizes the benchmark workloads run.

    dense: entries in [-3, 3], square or rectangular; sparse: entries from
    {0, 2, 4, 6, 9, 12}, rich in factors 2 and 3; singular_even: symmetric
    with even diagonal, and singular because the last row and column are
    the sums of two others.
    """
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


def _expand(sol) -> list[tuple[int, ...]]:
    """Every solution: the particular one plus each subset sum of the kernel."""
    out = []
    for picks in range(1 << len(sol.kernel)):
        v = list(sol.particular)
        for k, basis in enumerate(sol.kernel):
            if (picks >> k) & 1:
                v = [x ^ y for x, y in zip(v, basis)]
        out.append(tuple(v))
    return out


class TestSolveGf2:
    def test_zero_map(self):
        sol = solve_gf2([[0]], [0])
        assert sol.particular == (0,)
        assert sol.kernel == ((1,),)
        assert sorted(_expand(sol)) == [(0,), (1,)]

    def test_identity_system(self):
        identity = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        sol = solve_gf2(identity, [1, 0, 1])
        assert sol.particular == (1, 0, 1)
        assert sol.kernel == ()
        assert len(_expand(sol)) == 1

    def test_chain_matrix_mod2(self):
        # [[2,1],[1,2]] reduces to the swap matrix; diagonal reduces to 0.
        sol = solve_gf2([[2, 1], [1, 2]], [2, 2])
        assert _expand(sol) == [(0, 0)]

    def test_unsolvable(self):
        with pytest.raises(Unsolvable):
            solve_gf2([[0]], [1])

    def test_empty_system(self):
        sol = solve_gf2([], [])
        assert sol.particular == ()
        assert _expand(sol) == [()]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_gf2([[1]], [1, 0])

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
        assert set(_expand(sol)) == expected
        assert len(_expand(sol)) == len(expected)

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
