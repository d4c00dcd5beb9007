"""Independent brute-force oracles.

Each oracle deliberately takes a different route from the library code it
checks, and none imports the library: determinants by rational Gaussian
elimination, and by textbook Bareiss on the whole matrix with row swaps,
instead of the symmetric pass; invariant factors from gcds of minors,
from Hermite normal forms taken mod |det| and, at larger sizes, their
counts per prime from ranks over GF(p) instead of the Smith loop;
signatures from floating eigenvalues and, exactly, from the sign changes
of the integer characteristic polynomial instead of symmetric
elimination, GF(2) systems and characteristic sublinks by exhaustive
enumeration, a GF(2) solution's masks by products with the matrix and by
the rank mod 2 instead of by elimination on packed lanes, a spin structure's mu (`mu_of`) from a C.C summed straight
from the linking matrix's entries instead of by the Gray-code walk's
updates and from the characteristic polynomial's signature, whether
L(n, 1)'s canonical 2-framing splits as a double by a closed form in n
instead of the walk's lambda classes, Dedekind sums term by term from the
sawtooth function instead of the closed forms they are compared with, and
the float cotangent sum one element at a time instead of by runs of
repeated rotations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from typing import Iterator

import numpy as np


def det_fraction_gauss(rows: list[list[int]]) -> Fraction:
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            if factor:
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


def det_bareiss(rows: list[list[int]]) -> int:
    """Determinant by textbook fraction-free (Bareiss) elimination of the
    whole square matrix: entry (i, j) of step k becomes
    (a_ij a_kk - a_ik a_kj) / a_{k-1,k-1}, exact, and a zero pivot swaps
    in the first row below with a nonzero entry in its column, flipping
    the sign.  Every row is kept, with no symmetry used and no repair."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        top, p = a[k], a[k][k]
        for i in range(k + 1, n):
            row, f = a[i], a[i][k]
            a[i][k + 1:] = [(x * p - f * y) // prev for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = p
    return sign * a[-1][-1] if n else 1


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u a + v b = g = gcd(a, b) for a, b >= 0, and (a, 1, 0)
    when a > 0 divides b, so that a pivot dividing an entry stays put."""
    if a and b % a == 0:
        return a, 1, 0
    u0, u1, v0, v1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return a, u0, v0


def _hermite_rows(rows: list[list[int]], d: int) -> list[list[int]]:
    """An upper echelon basis of the lattice the rows span, column by column:
    extended-gcd steps on pairs of rows fold every entry of a column into
    its top row, which is kept, and the rows below go on.

    With d > 0 the lattice must contain d Z^n with d a multiple of its
    determinant.  Then all entries are kept mod r, r = d at first and then
    divided by each pivot taken: the rows left span a lattice containing
    r Z^(n - j) in the columns from j on.  The kept top row is u times the
    folded one mod r, its pivot gcd(pivot, r), by the extended gcd with r;
    the multiples of the folded row it drops are 0 mod the next r."""
    a = [list(row) for row in rows]
    cols = len(a[0]) if a else 0
    basis, r = [], d
    for j in range(cols):
        if r:
            a = [[x % r for x in row] for row in a]
        first = next((i for i, row in enumerate(a) if row[j]), None)
        if first is None:
            if r:  # the column's pivot is r itself, from r e_j
                basis.append([0] * j + [r] + [0] * (cols - j - 1))
                r = 1
            continue
        a[0], a[first] = a[first], a[0]
        for i in range(1, len(a)):
            if a[i][j]:
                x, y = a[0][j], a[i][j]
                g, u, v = _xgcd(abs(x), abs(y))
                u, v = u * (1 if x > 0 else -1), v * (1 if y > 0 else -1)
                a[0], a[i] = ([u * p + v * q for p, q in zip(a[0], a[i])],
                              [x // g * q - y // g * p for p, q in zip(a[0], a[i])])
                if r:
                    a[0], a[i] = [p % r for p in a[0]], [q % r for q in a[i]]
        top = a[0]
        if r:
            g, u, _ = _xgcd(top[j], r)
            top = [u * x % r for x in top]
            top[j], r = g, r // g
        elif top[j] < 0:
            top = [-x for x in top]
        basis.append(top)
        a = a[1:]
    return basis


def smith_by_hermite(rows: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors from Hermite normal forms alone: the echelon basis
    of the row lattice, then that of its transpose, and so on until the
    matrix is diagonal; gcd and lcm swaps turn the diagonal into the
    divisibility chain, zeros last.  Each basis spans the lattice of the
    matrix before it, so the Smith form changes by zeros at most.  For a
    square matrix with D = |det| != 0 (det_bareiss) the lattice contains
    D Z^n, and every basis is taken mod D (Domich, Kannan and Trotter,
    Math. Oper. Res. 12, 1987; Cohen, Algorithm 2.4.8); any other matrix
    is reduced with no modulus.  No pivot search and no Smith loop."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    d = abs(det_bareiss(rows)) if nr == nc else 0
    a = [list(row) for row in rows]
    while any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
        a = [list(col) for col in zip(*_hermite_rows(a, d))]
    diagonal = [abs(a[i][i]) for i in range(min(len(a), len(a[0]) if a else 0))]
    factors = [x for x in diagonal if x]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            factors[i], factors[j] = gcd(factors[i], factors[j]), lcm(factors[i], factors[j])
    return tuple(factors) + (0,) * (min(nr, nc) - len(factors))


def invariant_factors_by_minors(rows: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors as quotients d_k / d_{k-1} of gcds of k x k minors."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    size = min(nr, nc)
    d = [1]
    for k in range(1, size + 1):
        g = 0
        for rsel in combinations(range(nr), k):
            for csel in combinations(range(nc), k):
                minor = det_fraction_gauss([[rows[i][j] for j in csel] for i in rsel])
                g = gcd(g, int(minor))
        d.append(g)
    factors = []
    for k in range(1, size + 1):
        factors.append(0 if d[k] == 0 else d[k] // d[k - 1])
    return tuple(factors)


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p), p prime, by Gaussian elimination modulo p."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inverse = pow(a[rank][col], p - 2, p)
        a[rank] = [x * inverse % p for x in a[rank]]
        for i in range(rank + 1, len(a)):
            f = a[i][col]
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def signature_by_eigenvalues(rows: list[list[int]], margin: float = 1e-6) -> tuple[int, bool]:
    """(signature by sign counts, whether all |eigenvalues| clear the margin)."""
    if not rows:
        return 0, True
    eigs = np.linalg.eigvalsh(np.array(rows, dtype=float))
    clear = bool(np.all(np.abs(eigs) > margin))
    return int(np.sum(eigs > 0) - np.sum(eigs < 0)), clear


def charpoly_coefficients(rows: list[list[int]]) -> list[int]:
    """[1, c1, ..., cn] with det(xI - A) = x^n + c1 x^(n-1) + ... + cn.

    Faddeev-LeVerrier: M_k = A M_(k-1) + c_(k-1) I and c_k = -tr(A M_k) / k,
    starting from M_0 = 0.  The c_k are integers, so every division is exact.
    """
    n = len(rows)
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(rows[i][l] * m[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        trace = sum(rows[i][l] * m[l][i] for i in range(n) for l in range(n))
        assert trace % k == 0, "Faddeev-LeVerrier division must be exact"
        coeffs.append(-trace // k)
    return coeffs


def _sign_changes(coeffs: list[int]) -> int:
    nonzero = [c for c in coeffs if c]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0))


def signature_by_charpoly(rows: list[list[int]]) -> int:
    """Signature of a symmetric integer matrix, exactly.

    Every root of the characteristic polynomial p is real, so Descartes'
    rule of signs counts the positive roots exactly (with multiplicity),
    and the negative roots are the positive roots of p(-x).
    """
    coeffs = charpoly_coefficients(rows)
    n = len(coeffs) - 1
    mirrored = [c if (n - k) % 2 == 0 else -c for k, c in enumerate(coeffs)]
    return _sign_changes(coeffs) - _sign_changes(mirrored)


def gf2_solutions_bruteforce(a: list[list[int]], b: list[int]) -> set[tuple[int, ...]]:
    nr = len(a)
    nc = len(a[0]) if nr else 0
    out = set()
    for mask in range(1 << nc):
        x = tuple((mask >> j) & 1 for j in range(nc))
        if all(sum(a[i][j] * x[j] for j in range(nc)) % 2 == b[i] % 2 for i in range(nr)):
            out.add(x)
    return out


def gf2_solution_faults(a: list[list[int]], b: list[int], particular: int,
                        kernel: tuple[int, ...]) -> list[str]:
    """What is wrong with particular + span(kernel) as the solution set of
    a x = b over GF(2) in reduced echelon form, each vector a mask with
    column 0 the leading of nc bits; [] when nothing is.  particular must
    solve the system and each kernel vector a x = 0, the kernel must be
    nc - rank_2(a) vectors, ascending, and each one's leading bit must be in
    no other vector nor in particular."""
    nc = len(a[0]) if a else 0

    def image(mask: int) -> list[int]:
        x = [mask >> nc - 1 - j & 1 for j in range(nc)]
        return [sum(r * v for r, v in zip(row, x)) % 2 for row in a]

    leads = [1 << v.bit_length() - 1 for v in kernel]
    faults = []
    if not 0 <= particular < 1 << nc or image(particular) != [v % 2 for v in b]:
        faults.append("particular does not solve a x = b")
    if any(not 0 < v < 1 << nc or any(image(v)) for v in kernel):
        faults.append("a kernel vector is not in ker a")
    if len(kernel) != nc - rank_mod_p(a, 2):
        faults.append(f"{len(kernel)} kernel vectors, not nc - rank = {nc - rank_mod_p(a, 2)}")
    if any(u >= v for u, v in zip(kernel, kernel[1:])) or any(
            particular & lead or any(v & lead for v in kernel if 1 << v.bit_length() - 1 != lead)
            for lead in leads):
        faults.append("the kernel is not in ascending reduced echelon form")
    return faults


def characteristic_subsets_bruteforce(rows: list[list[int]]) -> set[frozenset[int]]:
    n = len(rows)
    out = set()
    for mask in range(1 << n):
        x = [(mask >> i) & 1 for i in range(n)]
        if all((sum(rows[i][j] * x[j] for j in range(n)) - rows[i][i]) % 2 == 0
               for i in range(n)):
            out.add(frozenset(i for i in range(n) if x[i]))
    return out


def mu_of(rows, members, arf: int) -> int:
    """mu = sigma - C.C + 8 Arf(C) mod 16 of the sublink C with the given
    members: C.C the sum of the linking matrix's entries over pairs of
    members, sigma by signature_by_charpoly (once per matrix)."""
    chosen = frozenset(members)
    if any(i < 0 or i >= len(rows) for i in chosen):
        raise ValueError("sublink member out of range")
    cc = sum(rows[i][j] for i in chosen for j in chosen)
    return (_charpoly_signature(tuple(map(tuple, rows))) - cc + 8 * arf) % 16


def lens_double_splits(n: int) -> bool:
    """Whether the canonical 2-framing of the lens space L(n, 1) splits as a
    double, that is, some spin structure has lambda = 0.

    The unique spin structure for odd n has lambda = 3 - |n| mod 4, vanishing
    exactly when |n| = 3 mod 4; the two spin structures for even n have odd
    lambda.  n = 0 is the product of a 2-sphere with a circle, which splits.
    """
    return n == 0 or abs(n) % 4 == 3


@lru_cache(maxsize=32)
def _charpoly_signature(rows: tuple[tuple[int, ...], ...]) -> int:
    return signature_by_charpoly(rows)


def _sawtooth(x: Fraction) -> Fraction:
    """((x)) = x - floor(x) - 1/2 off the integers, and 0 on them."""
    if x.denominator == 1:
        return Fraction(0)
    return x - x.numerator // x.denominator - Fraction(1, 2)


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum over j mod k of ((j/k)) ((hj/k)), term by term, k >= 1."""
    return sum((_sawtooth(Fraction(j, k)) * _sawtooth(Fraction(h * j, k)) for j in range(1, k)),
               Fraction(0))


# Each binary polyhedral group as maximal cyclic subgroups meeting
# pairwise in {1, -1}: (number of subgroups, their order).
_POLYHEDRAL_SUBGROUPS = {"T": ((4, 6), (3, 4)),
                         "O": ((3, 8), (4, 6), (6, 4)),
                         "I": ((15, 4), (10, 6), (6, 10))}


def _element_angles(group) -> Iterator[tuple[int, int]]:
    """The rotation angle p/q of pi of each element u != 1, one pair per
    element, in the library's documented order: C_m its m-th roots of
    unity; D_m the cyclic group of order 2m, then its 2m quarter turns;
    T, O, I the central -1, then each cyclic subgroup without 1 and -1."""
    family, m = group.family, group.m
    if family == "C":
        for k in range(1, m):
            yield 2 * k, m
    elif family == "D":
        for k in range(1, 2 * m):
            yield k, m
        for _ in range(2 * m):
            yield 1, 2
    else:
        yield 1, 1
        for count, order in _POLYHEDRAL_SUBGROUPS[family]:
            for _ in range(count):
                for k in range(1, order):
                    if 2 * k != order:
                        yield 2 * k, order


def cotangent_sum(group) -> float:
    """3 times the sum of cot^2 of half of each rotation angle, as a float:
    one term per element, each added on its own in enumeration order, so
    the result is bit for bit the double the library's sweep must give."""
    total = 0.0
    for p, q in _element_angles(group):
        x = p / q * math.pi / 2
        total += (math.cos(x) / math.sin(x)) ** 2
    return 3.0 * total
