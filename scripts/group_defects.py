#!/usr/bin/env python3
"""Survey the quotients of the 3-sphere by its finite subgroups.

Prints, for every group in the five families, the closed-form sigma(G)
next to its brute-force cotangent-sum evaluation, the quotient framing
defect, and the defect pulled back to the universal cover (which must be
the Hopf framing value (0, 2) every time).
"""

import argparse

from framings import (
    ICOSAHEDRAL,
    OCTAHEDRAL,
    TETRAHEDRAL,
    binary_dihedral,
    cyclic,
    pullback_cover,
    quotient_framing_defect,
    sigma_g,
    sigma_g_bruteforce,
    signature_defect,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-cyclic", type=int, default=12)
    parser.add_argument("--max-dihedral", type=int, default=8)
    args = parser.parse_args()

    groups = ([cyclic(m) for m in range(1, args.max_cyclic + 1)]
              + [binary_dihedral(m) for m in range(2, args.max_dihedral + 1)]
              + [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL])

    header = (f"{'group':>6}  {'|G|':>4}  {'sigma(G)':>9}  {'cot sum':>14}  "
              f"{'error':>9}  {'H(quotient)':>12}  {'pulled back':>11}")
    print(header)
    print("-" * len(header))
    worst = 0.0
    for group in groups:
        closed = sigma_g(group)
        brute = sigma_g_bruteforce(group)
        error = abs(brute - closed)
        worst = max(worst, error)
        defect = quotient_framing_defect(group)
        lifted = pullback_cover(defect, group.order, signature_defect(group))
        print(f"{group.label:>6}  {group.order:>4}  {closed:>9}  {brute:>14.6f}  "
              f"{error:>9.2e}  {str(tuple(defect)):>12}  {str(tuple(lifted)):>11}")
        assert lifted == (0, 2)
    print(f"\nworst cotangent-sum error: {worst:.2e}")


if __name__ == "__main__":
    main()
