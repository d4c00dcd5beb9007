"""Seeded inputs for the three workloads.

Each workload is a pool of operations, one `framings` argv each, built
from the seed alone. Runs cover whole passes over the pool, so every run
sees the same mix.

The pool is laid out in cost tiers. What an operation costs depends on
the stratum (r and n, or |G|) and, by 10-20%, on the particular matrix.
If the strata were spread evenly, p50 and p90 would each fall in the gap
between two single inputs, and every seed would read a different gap.
So each pool has a light tier, a middle tier of half or more of the
operations in which p50 falls, and a heavy tier of about a fifth in which
p90 falls; the operations within a tier cost about the same. A quantile then reads the typical cost of a tier, and
the seed changes the matrices, the small commands' arguments, the order
and a little jitter, not the mix.

An operation is a dict: `argv`, `kind` (which check applies), the
descriptors `n`, `r` and `order`, and whatever the check needs. Link
documents go in `doc` and are written out before timing starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import oracle


@dataclass(frozen=True)
class Sizes:
    """Operations per pass; the smoke test shrinks them."""

    # (r, n, count). Light (three tenths): r = 3-6 at small cost; middle
    # (half): r = 7, n = 8 (128 spin structures); heavy (a fifth): r = 8,
    # n = 8 (256 structures, ~70 KB). The heavy tier is large because the
    # cost of one r = 8 matrix varies by a fifth around its median.
    spin: tuple[tuple[int, int, int], ...] = (
        (3, 8, 2), (3, 9, 2), (3, 10, 2), (3, 11, 2), (3, 12, 2),
        (4, 8, 2), (4, 9, 2), (4, 10, 2), (4, 11, 2), (5, 9, 3), (5, 10, 3), (6, 8, 6),
        (7, 8, 50), (8, 8, 20))
    # (n, r, even framings, count). Light: `canonical` on the even ones;
    # middle: three (n, r) pairs whose 2 + 2^r signatures cost about the
    # same; heavy: n = 40, under 1 s an operation.
    big: tuple[tuple[int, int, bool, int], ...] = (
        (24, 2, False, 8), (28, 1, False, 8), (30, 0, True, 8), (40, 1, False, 8))
    # (family, |G|, count), plus T, O and I. With SMALL_PER_QUOTIENT small
    # commands per quotient, p50 falls among the small commands and p90 in
    # the |G| = 10^4 tier; the one |G| = 2 * 10^5 group sets peak RSS.
    quotient: tuple[tuple[str, int, int], ...] = (
        ("D", 1_000, 2), ("C", 10_000, 10), ("D", 100_000, 2), ("D", 200_000, 1))


FULL = Sizes()
TINY = Sizes(spin=((1, 4, 1), (2, 5, 1)), big=((5, 1, False, 1), (6, 0, True, 1)),
             quotient=(("C", 40, 1), ("D", 400, 1)))


def _symmetric(rng: random.Random, n: int, lo: int, hi: int, even_diagonal: bool) -> list[list[int]]:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(lo, hi)
            if i == j and even_diagonal:
                v = rng.choice((-2, 0, 2))
            a[i][j] = a[j][i] = v
    return a


def _permuted(rng: random.Random, q: list[list[int]]) -> list[list[int]]:
    order = list(range(len(q)))
    rng.shuffle(order)
    return [[q[i][j] for j in order] for i in order]


def _link_op(name: str, q: list[list[int]], facts: dict, rng: random.Random) -> dict:
    n = len(q)
    # A few Arf values for random sublinks; only characteristic ones are read.
    arf = {"".join(rng.choice("01") for _ in range(n)): rng.randint(0, 1) for _ in range(3)}
    doc = {"name": name, "components": n, "matrix": q, "arf_table": arf}
    return {"kind": "invariants", "doc": doc, "facts": facts, "n": n}


def spin_matrix(rng: random.Random, n: int, r: int) -> list[list[int]]:
    """A symmetric matrix of mod-2 corank exactly r.

    A block A of size n - r, invertible mod 2, sits beside an even block
    and even coupling, so Q = A (+) 0 mod 2. A symmetric permutation then
    hides the block structure without changing any invariant.
    """
    k = n - r
    while True:
        a = _symmetric(rng, k, -3, 3, False)
        if oracle.gf2_rank(a) == k:
            break
    q = [[2 * rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            q[i][j] = q[j][i]
    for i in range(k):
        q[i][:k] = a[i]
    return _permuted(rng, q)


def spin_enum(rng: random.Random, sizes: Sizes) -> list[dict]:
    """Nonsingular presentations, so |det Q| = prod(torsion) is checked on
    every one; singular ones skip part of the elimination and would add
    a cost mode that only some seeds draw."""
    ops = []
    for r, n, count in sizes.spin:
        for k in range(count):
            while True:
                q = spin_matrix(rng, n, r)
                facts = oracle.link_facts(q)
                if facts["det"]:
                    break
            if facts["r"] != r:
                raise RuntimeError(f"generated r = {facts['r']}, wanted {r}")
            ops.append(_link_op(f"spin-r{r}-n{n}-{k}", q, facts, rng))
    rng.shuffle(ops)
    return ops


def big_presentations(rng: random.Random, sizes: Sizes) -> list[dict]:
    """Dense matrices with entries in [-3, 3] and a prescribed r <= 2; the
    even-framed ones are also run through `canonical`."""
    ops = []
    for n, r, even, count in sizes.big:
        if even and (r - n) % 2:
            raise ValueError(f"an even-framed n = {n} link has r = n mod 2, not {r}")
        for k in range(count):
            while True:
                q = _symmetric(rng, n, -3, 3, even)
                if n - oracle.gf2_rank(q) == r:
                    break
            op = _link_op(f"big-n{n}-r{r}-{k}", q, oracle.link_facts(q), rng)
            ops.append(op)
            if even:
                ops.append(dict(op, kind="canonical"))
    rng.shuffle(ops)
    return ops


# Small commands after each quotient in `quotient_mix`.
SMALL_PER_QUOTIENT = 4


def _small_ops(rng: random.Random, count: int) -> list[dict]:
    """Constant-time commands, one of each kind in turn."""
    ops = []
    for i in range(count):
        kind = ("bundle", "cover", "canonical_lambda", "catalog")[i % 4]
        if kind == "bundle":
            genus = rng.randint(0, 20)
            chi = 2 - 2 * genus
            divisors = [e for e in range(1, abs(chi) + 1) if chi % e == 0] or [0]
            euler = rng.choice(divisors) * rng.choice((-1, 1)) if rng.random() < 0.8 \
                else rng.randint(-9, 9)
            ops.append({"kind": kind, "genus": genus, "euler": euler,
                        "argv": ["bundle", "--genus", str(genus), "--euler", str(euler)]})
        elif kind == "cover":
            d, h, degree = rng.randint(-9, 9), rng.randint(-30, 30), rng.randint(1, 120)
            sigma_pi = Fraction(rng.randint(-3000, 3000), rng.choice((1, 3)))
            ops.append({"kind": kind, "defect": [d, h], "degree": degree,
                        "sigma_pi": str(sigma_pi),
                        "argv": ["cover", f"--defect={d},{h}", "--degree", str(degree),
                                 f"--sigma-pi={sigma_pi}"]})
        elif kind == "canonical_lambda":
            lam = rng.randint(-6, 6)
            ops.append({"kind": kind, "lambda": lam,
                        "argv": ["canonical", f"--lambda={lam}"]})
        else:
            ops.append({"kind": kind, "argv": ["catalog"]})
    return ops


def quotient_mix(rng: random.Random, sizes: Sizes) -> list[dict]:
    """Quotients of each tier, the seed moving |G| down by at most 3%, each
    followed by the same number of small commands."""
    specs = ["T", "O", "I"]
    for family, order, count in sizes.quotient:
        per_m = 4 if family == "D" else 1
        specs += [f"{family}{max(2, round(order * rng.uniform(0.97, 1.0) / per_m))}"
                  for _ in range(count)]
    rng.shuffle(specs)
    per = SMALL_PER_QUOTIENT
    small = _small_ops(rng, per * len(specs))
    ops = []
    for i, spec in enumerate(specs):
        ops.append({"kind": "quotient", "group": spec, "argv": ["quotient", spec],
                    "order": oracle.group_facts(spec)["order"]})
        ops.extend(small[i * per:(i + 1) * per])
    return ops


GENERATORS = {"spin_enum": spin_enum, "big_presentations": big_presentations,
            "quotient_mix": quotient_mix}


def build(name: str, seed: int, sizes: Sizes = FULL) -> list[dict]:
    """The operation pool of one workload; argv lacks the link path and --json."""
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(GENERATORS)}")
    rng = random.Random(f"{name}:{seed}")
    return GENERATORS[name](rng, sizes)
