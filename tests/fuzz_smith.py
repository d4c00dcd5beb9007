"""Seeded fuzz of signature_and_smith and solve_gf2 against oracles that
share no code with the kernel.

Runs 20 000 symmetric matrices with n = 1..8 from five families: dense,
zero-diagonal, rich in 2 and 3, dense scaled by 2-6, and singular.  Each
must give, from exactly one loop call, the signature from its
characteristic polynomial and the Smith form from Hermite normal forms
(mod |det|, or with no modulus when det = 0); every fourth with n <= 4
is also checked against the gcds of its minors.  The smallest-pivot loop
run over Z, the kernel's other route, must agree too; that is a route
check, not an oracle, and is counted apart.  solve_gf2(Q, diag Q) must
give a particular solution of the system mod 2 and a kernel of
n - rank_2(Q) vectors in ker Q mod 2, in ascending reduced echelon form.
Prints how many matrices each check saw and the routes the loop took,
and exits 1 on any mismatch.  pytest does not collect it; run it with

    PYTHONPATH=src:tests python tests/fuzz_smith.py
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import oracles
from framings import SmithForm, exactmath, signature_and_smith, solve_gf2

PER_FAMILY = 4000


def _symmetric(n: int, values, rng: random.Random) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.choice(values)
    return rows


def _dense(n, rng):
    return _symmetric(n, range(-3, 4), rng)


def _hollow(n, rng):
    rows = _dense(n, rng)
    for i in range(n):
        rows[i][i] = 0
    return rows


def _rich_in_2_and_3(n, rng):
    return _symmetric(n, (0, 0, 0, 2, 4, 6, 9, 12, -2, -3), rng)


def _scaled(n, rng):
    c = rng.randint(2, 6)
    return [[c * x for x in row] for row in _dense(n, rng)]


def _singular(n, rng):
    """A dense form whose last row and column are the sum of the first two,
    or at n <= 2 a zero last row and column."""
    rows = _dense(n, rng)
    for j in range(n):
        rows[-1][j] = rows[0][j] + rows[1][j] if n > 2 else 0
    for i in range(n):
        rows[i][-1] = rows[i][0] + rows[i][1] if n > 2 else 0
    return rows


FAMILIES = (_dense, _hollow, _rich_in_2_and_3, _scaled, _singular)


def main() -> int:
    loop, calls = exactmath._smith_factors, []

    def recorded(a, t):
        calls.append((t, len(a)))
        return loop(a, t)

    rng, routes, mismatches, checked = random.Random("fuzz-smith"), Counter(), 0, Counter()
    exactmath._smith_factors = recorded
    try:
        for family in FAMILIES:
            for i in range(PER_FAMILY):
                n = rng.randint(1, 8)
                rows = family(n, rng)
                calls.clear()
                try:
                    got = signature_and_smith(rows)
                except Exception as exc:  # reported with its matrix, like a wrong answer
                    got = exc
                if isinstance(got, Exception) or len(calls) != 1:
                    print(f"{family.__name__} {rows}: {got!r} after {len(calls)} loop calls",
                          file=sys.stderr)
                    mismatches += 1
                    continue
                t, size = calls[0]
                routes["over Z" if not t else "loop" if size == n else "trailing"] += 1
                expected = {
                    "charpoly and Hermite": (oracles.signature_by_charpoly(rows),
                                             SmithForm(oracles.smith_by_hermite(rows))),
                    "over-Z route": (got[0], SmithForm(tuple(loop([list(r) for r in rows], 0)))),
                }
                if n <= 4 and i % 4 == 0:
                    expected["minors"] = (got[0], SmithForm(oracles.invariant_factors_by_minors(rows)))
                checked.update(list(expected))
                if any(got != e for e in expected.values()):
                    print(f"{family.__name__} {rows}: {got} != {expected}", file=sys.stderr)
                    mismatches += 1
                diagonal = [rows[k][k] for k in range(n)]
                checked["GF(2) solve"] += 1
                try:
                    solution = solve_gf2(rows, diagonal)
                    faults = oracles.gf2_solution_faults(rows, diagonal, *solution)
                except Exception as exc:
                    solution, faults = exc, ["raised"]
                if faults:
                    print(f"{family.__name__} {rows}: {solution}: {faults}", file=sys.stderr)
                    mismatches += 1
    finally:
        exactmath._smith_factors = loop
    total = PER_FAMILY * len(FAMILIES)
    print(f"{total} matrices: {mismatches} mismatches; checked by",
          ", ".join(f"{name} {count}" for name, count in checked.items()) + "; routes",
          ", ".join(f"{route} {count}" for route, count in sorted(routes.items())))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
