"""Expected CLI outputs, derived with the standard library only.

Nothing here imports `framings`: every expectation is recomputed from the
input by a different route than the library takes, so a wrong answer in
the library cannot also be the expectation it is checked against.

- Signature: sign changes of the integer characteristic polynomial, exact
  because a symmetric matrix has only real eigenvalues (Descartes' rule is
  then an equality).
- Mod-2 rank: elimination on row bitmasks.
- Quotients, bundles, covers and canonical defects: their closed forms.

Each `check_*` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import mul

# sigma(G) for the three polyhedral groups, from the cotangent sums.
POLYHEDRAL_SIGMA = {"T": 98, "O": 242, "I": 722}
POLYHEDRAL_ORDER = {"T": 24, "O": 48, "I": 120}

ODD_WARNING = "odd framings present: delta_L, epsilon_L and phi_L are undefined"

# Catalog rows whose values follow from the closed forms above.
CATALOG_VALUES = {
    "s3.delta": [1, 0],
    "quotient.sigma.cyclic": 5 * 5 - 3 * 5 + 2,
    "quotient.sigma.dihedral": 4 * 3 * 3 + 2,
    "quotient.sigma.tetrahedral": 98,
    "quotient.sigma.octahedral": 242,
    "quotient.sigma.icosahedral": 722,
    "quotient.h.lens": [3 - m for m in range(1, 9)],
    "quotient.h.dihedral": [-m for m in range(2, 6)],
    "quotient.h.polyhedral": [(2 - POLYHEDRAL_SIGMA[g]) // POLYHEDRAL_ORDER[g] for g in "TOI"],
    "bundle.hopf.h": 2,
    "two_framing.e8": -16,
}


def charpoly(q: list[list[int]]) -> list[int]:
    """Coefficients [1, c1, ..., cn] of det(xI - Q) by Faddeev-LeVerrier.

    Each M_k is a polynomial in the symmetric Q, hence symmetric, so its
    rows serve as its columns and tr(Q M_k) is the entrywise product sum.
    """
    n = len(q)
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(map(mul, row, col)) for col in m] for row in q]
        for i in range(n):
            m[i][i] += coeffs[-1]
        tr = sum(sum(map(mul, qr, mr)) for qr, mr in zip(q, m))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs.append(-tr // k)
    return coeffs


def spectrum_signs(q: list[list[int]]) -> tuple[int, int, int, int]:
    """(positive, negative, zero) eigenvalue counts and det, exactly."""
    n = len(q)
    coeffs = charpoly(q)
    zero = 0
    while zero < n and coeffs[n - zero] == 0:
        zero += 1
    nonzero = [c for c in coeffs if c]
    positive = sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0))
    return positive, n - zero - positive, zero, (-1) ** n * coeffs[n]


def gf2_rank(q: list[list[int]]) -> int:
    pivots: dict[int, int] = {}  # lowest set bit -> reduced row
    for row in q:
        bits = sum(1 << j for j, x in enumerate(row) if x & 1)
        while bits:
            low = bits & -bits
            if low not in pivots:
                pivots[low] = bits
                break
            bits ^= pivots[low]
    return len(pivots)


def link_facts(q: list[list[int]]) -> dict:
    """Everything the checks need about one linking matrix."""
    n = len(q)
    pos, neg, zero, det = spectrum_signs(q)
    tau = sum(q[i][i] for i in range(n))
    return {"n": n, "chi": n + 1, "sigma": pos - neg, "tau": tau, "betti1": zero,
            "det": det, "r": n - gf2_rank(q), "even": all(q[i][i] % 2 == 0 for i in range(n))}


def canonical_points(lam: int) -> list[list[int]]:
    """Minimal-norm points of {(d, h): 2d + h = lam mod 4}, sorted."""
    return {0: [[0, 0]], 1: [[0, 1]], 2: [[-1, 0], [0, -2], [0, 2], [1, 0]],
            3: [[0, -1]]}[lam % 4]


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_invariants(doc: dict, facts: dict, out: dict) -> list[str]:
    p: list[str] = []
    q, n, r, sigma = doc["matrix"], facts["n"], facts["r"], facts["sigma"]
    chi, tau = facts["chi"], facts["tau"]
    _expect(p, "name", out["name"], doc["name"])
    _expect(p, "components", out["components"], n)
    _expect(p, "chi", out["chi"], chi)
    _expect(p, "tau", out["tau"], tau)
    _expect(p, "sigma", out["sigma"], sigma)
    hom = out["homology"]
    torsion = hom["torsion"]
    _expect(p, "betti1", hom["betti1"], facts["betti1"])
    _expect(p, "r", hom["r"], r)
    _expect(p, "s", hom["s"], sum(1 for t in torsion if t % 2 == 0))
    _expect(p, "r = betti1 + s", hom["r"], hom["betti1"] + hom["s"])
    if any(t <= 1 for t in torsion) or any(b % a for a, b in zip(torsion, torsion[1:])):
        p.append(f"torsion {torsion} is not a divisibility chain of factors > 1")
    if facts["betti1"] == 0:
        prod = 1
        for t in torsion:
            prod *= t
        _expect(p, "product of torsion", prod, abs(facts["det"]))
    rows = out["spin_structures"]
    _expect(p, "spin structure count", len(rows), 2 ** r)
    masks = [row["bitmask"] for row in rows]
    if masks != sorted(set(masks)):
        p.append("spin structure bitmasks are not distinct and ascending")
    arf_table = doc.get("arf_table", {})
    for row in rows:
        mask = row["bitmask"]
        x = [1 if c == "1" else 0 for c in mask]
        if len(x) != n or any((sum(map(mul, q[i], x)) - q[i][i]) % 2 for i in range(n)):
            p.append(f"sublink {mask} is not characteristic")
            continue
        members = [i for i in range(n) if x[i]]
        cc = sum(q[i][j] for i in members for j in members)
        arf = arf_table.get(mask, 0)
        mu = (sigma - cc + 8 * arf) % 16
        lam = (2 * (1 + r) + mu) % 4
        want = {"bitmask": mask, "members": members, "self_intersection": cc,
                "arf": arf, "arf_assumed": mask not in arf_table,
                "mu": (mu + 7) % 16 - 7, "mu_mod16": mu,
                "lambda": -1 if lam == 3 else lam, "lambda_mod4": lam}
        _expect(p, f"spin structure {mask}", row, want)
    framings = {"freed_gompf_h": 2 * tau - 6 * sigma}
    if facts["even"]:
        framings.update({"delta": [chi, -3 * sigma], "epsilon_h": 2 * chi - 3 * sigma,
                         "phi_half_tau": [chi - tau // 2, tau - 3 * sigma]})
    _expect(p, "framings", out["framings"], framings)
    _expect(p, "warnings", out["warnings"], [] if facts["even"] else [ODD_WARNING])
    return p


def _offsets(named: list[tuple[str, list[int]]], lam: int) -> list[dict]:
    targets = [-2, 2] if lam == 2 else [canonical_points(lam)[0][1]]
    out = []
    for name, (d, h) in named:
        for target in targets:
            out.append({"framing": name, "defect": [d, h], "m_rho": (target - 2 * d - h) // 4,
                         "n_sigma": d, "target": target, "result": [0, target]})
    return out


def check_canonical_link(doc: dict, facts: dict, out: dict) -> list[str]:
    p: list[str] = []
    chi, sigma, tau = facts["chi"], facts["sigma"], facts["tau"]
    delta = [chi, -3 * sigma]
    lam = (2 * delta[0] + delta[1]) % 4
    named = [("delta_L", delta), ("epsilon_L", [0, 2 * chi - 3 * sigma]),
             ("phi_L", [chi - tau // 2, tau - 3 * sigma])]
    _expect(p, "canonical", out, {
        "name": doc["name"], "lambda_mod4": lam,
        "lambda_representative": -1 if lam == 3 else lam,
        "canonical_set": canonical_points(lam), "offsets": _offsets(named, lam)})
    return p


def check_canonical_lambda(k: int, out: dict) -> list[str]:
    p: list[str] = []
    _expect(p, "canonical --lambda", out,
            {"lambda_mod4": k % 4, "canonical_set": canonical_points(k)})
    return p


def group_facts(spec: str) -> dict:
    family, m = spec[0], int(spec[1:] or 0)
    if family == "C":
        order, sigma, desc = m, m * m - 3 * m + 2, f"cyclic of order {m}"
    elif family == "D":
        order, sigma, desc = 4 * m, 4 * m * m + 2, f"binary dihedral of order {4 * m}"
    else:
        order, sigma = POLYHEDRAL_ORDER[family], POLYHEDRAL_SIGMA[family]
        desc = {"T": "binary tetrahedral", "O": "binary octahedral",
                "I": "binary icosahedral"}[family]
    return {"family": family, "m": m, "order": order, "sigma": sigma, "description": desc}


def check_quotient(spec: str, out: dict) -> list[str]:
    p: list[str] = []
    g = group_facts(spec)
    sigma, order = g["sigma"], g["order"]
    h, rem = divmod(2 - sigma, order)
    if rem:
        p.append(f"2 - sigma({spec}) is not divisible by |G| = {order}")
    brute = out.get("sigma_g_bruteforce")
    if not isinstance(brute, float) or abs(brute - sigma) > 1e-9 * max(1, sigma):
        p.append(f"cotangent sum {brute!r} is not within 1e-9 of sigma = {sigma}")
    want = {"group": spec, "family": g["description"], "order": order, "sigma_g": sigma,
            "sigma_g_bruteforce": brute, "bruteforce_abs_error": abs(brute - sigma)
            if isinstance(brute, float) else None,
            "signature_defect": str(Fraction(sigma, 3)), "defect": [0, h]}
    if g["family"] == "C":
        rho = (g["m"] - 1) // 4
        want["canonical_offset_rho"] = rho
        want["canonical_h"] = h + 4 * rho
        if not -1 <= h + 4 * rho <= 2:
            p.append(f"canonical h {h + 4 * rho} is outside [-1, 2]")
    _expect(p, f"quotient {spec}", out, want)
    return p


def check_bundle(genus: int, euler: int, out: dict) -> list[str]:
    chi = 2 - 2 * genus
    exists = chi == 0 if euler == 0 else chi % euler == 0
    p1 = (1 + chi // euler) ** 2 * euler - 2 * chi if exists and euler else None
    if not exists:
        h = None
    else:
        h = p1 - 3 * (1 if euler > 0 else -1) if euler else 0
    p: list[str] = []
    _expect(p, f"bundle g={genus} e={euler}", out,
            {"genus": genus, "euler": euler, "chi": chi, "fiber_framing_exists": exists,
             "p1": p1, "h": h})
    return p


def check_cover(d: int, h: int, degree: int, sigma_pi: Fraction, out: dict) -> list[str]:
    corrected = degree * h + 3 * sigma_pi
    p: list[str] = []
    if corrected.denominator != 1:
        p.append("cover input does not give an integral defect")
    _expect(p, "cover", out, {"defect": [d, h], "degree": degree, "sigma_pi": str(sigma_pi),
                              "result": [degree * d, int(corrected)]})
    return p


def check_catalog(out: dict) -> list[str]:
    p: list[str] = []
    entries = out["entries"]
    _expect(p, "all_ok", out["all_ok"], True)
    if not entries:
        p.append("catalog is empty")
    for e in entries:
        if e["value"] != e["expected"] or not e["ok"]:
            p.append(f"catalog row {e['key']} is not ok")
    values = {e["key"]: e["value"] for e in entries}
    for key, want in CATALOG_VALUES.items():
        _expect(p, f"catalog {key}", values.get(key), want)
    return p


def check(op: dict, text: str) -> list[str]:
    """Check one CLI output against the expectation for its operation."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    kind = op["kind"]
    try:
        if kind == "invariants":
            return check_invariants(op["doc"], op["facts"], out)
        if kind == "canonical":
            return check_canonical_link(op["doc"], op["facts"], out)
        if kind == "canonical_lambda":
            return check_canonical_lambda(op["lambda"], out)
        if kind == "quotient":
            return check_quotient(op["group"], out)
        if kind == "bundle":
            return check_bundle(op["genus"], op["euler"], out)
        if kind == "cover":
            return check_cover(*op["defect"], op["degree"], Fraction(op["sigma_pi"]), out)
        if kind == "catalog":
            return check_catalog(out)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"output lacks the expected structure: {exc!r}"]
    raise ValueError(f"unknown operation kind {kind!r}")
