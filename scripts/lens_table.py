#!/usr/bin/env python3
"""Tabulate framing invariants of the lens spaces L(m, 1).

For each m the table lists the quotient framing defect, the rho offset
canonicalizing it, and the mu/lambda invariants of every spin structure
seen from the -m-framed unknot presentation.
"""

import argparse

from framings import (
    act,
    analyze,
    canonical_offset,
    cyclic,
    lambda_class,
    lens_double_splits,
    mu_representative,
    quotient_framing_defect,
    unknot,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=16, help="largest m (default 16)")
    args = parser.parse_args()

    header = f"{'m':>3}  {'h(phi+)':>8}  {'rho off':>7}  {'canon h':>7}  {'splits':>6}  mu / lambda per spin structure"
    print(header)
    print("-" * len(header))
    for m in range(1, args.max + 1):
        defect = quotient_framing_defect(cyclic(m))
        offset = canonical_offset(defect, lambda_class(defect).representative)
        landed = act(defect, offset)
        spins = [f"[{s.sublink.bitmask}] mu={mu_representative(s.mu):>2} "
                 f"lam={s.lam.representative:>2}"
                 for s in analyze(unknot(-m), None).spin_structures]
        print(f"{m:>3}  {defect.h:>8}  {offset.m_rho:>7}  {landed.h:>7}  "
              f"{'yes' if lens_double_splits(m) else 'no':>6}  " + "   ".join(spins))


if __name__ == "__main__":
    main()
