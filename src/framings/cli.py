"""Command-line front end.

Subcommands: invariants, canonical, quotient, bundle, cover, catalog.
One table (`_commands`) declares each one's arguments, `cmd_*` and
renderer.  `main` builds only the parser of the subcommand named first on
the command line; any other argv (top-level help, `--version`, an unknown
command) goes through the whole tree from `build_parser`.
Link files are JSON documents with a symmetric integer linking matrix and
an optional table of Arf invariants keyed by sublink bitmask.  Every
command validates its input and returns one payload dict; `main` prints its
renderer's text, or under --json ASCII-escaped JSON byte-identical to
`json.dumps(payload, indent=2, sort_keys=True)`, joined by `_dumps` in one pass.
`_dumps` renders the items of a long array as one column: like rows, such as
the 2^r spin structures, sort and quote their keys once per call, and each
of their fields renders with one converter mapped over the column.

Exit codes: 0 success, 1 `catalog` with a FAIL row, 2 parse or validation
error, 3 mathematical precondition violation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple, NoReturn, Sequence

from . import __version__, bundles, catalog, defects, links, quotients
from .defects import LambdaClass, TotalDefect
from .errors import FramingError, NotSymmetric, ParseError, _shown


# The characters str.splitlines() breaks at, each mapped to its repr escape:
# an input echoed in an error line has them escaped, so it stays one line.
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


class LinkDocument(NamedTuple):
    name: str
    link: links.FramedLink
    arf_table: dict[str, int]


def load_link_document(path: str) -> LinkDocument:
    """Read and validate a link file; any defect raises ParseError."""
    # A path whose repr passes 40 characters is named by its length (_shown).
    where = path.translate(_LINE_BREAKS) if _shown(path) == repr(path) else _shown(path)
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # strerror, as str(exc) repeats the path
        raise ParseError(f"cannot read {where}: {exc.strerror or type(exc).__name__}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # undecodable bytes, or an integer too long to parse
        raise ParseError(f"cannot parse {where}: {exc}") from exc
    except RecursionError as exc:  # nesting deeper than the decoder's recursion limit
        raise ParseError(f"cannot parse {where}: nested too deeply") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: top level must be an object")
    matrix = raw.get("matrix")
    if not isinstance(matrix, list):
        raise ParseError(f"{where}: 'matrix' must be a list of integer rows")
    try:  # IntMatrix checks the entries and row lengths, FramedLink the symmetry
        link = links.FramedLink.from_rows(matrix)
    except (TypeError, ValueError, NotSymmetric) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    size = link.components
    components = raw.get("components", size)
    if not isinstance(components, int) or isinstance(components, bool):
        raise ParseError(f"{where}: 'components' must be an integer")
    if components != size:  # an integer whose repr passes 40 characters is named by its digits
        text = repr(components)
        shown = text if len(text) <= 40 else f"<{len(text.lstrip('-'))} digits>"
        raise ParseError(f"{where}: components = {shown} but matrix is {size}x{size}")
    name = raw.get("name", Path(path).stem)
    if not isinstance(name, str):
        raise ParseError(f"{where}: 'name' must be a string")
    raw_table = {} if raw.get("arf_table") is None else raw["arf_table"]
    if not isinstance(raw_table, dict):
        raise ParseError(f"{where}: 'arf_table' must be an object")
    arf_table: dict[str, int] = {}
    for key, value in raw_table.items():
        if (not isinstance(key, str) or len(key) != size
                or any(c not in "01" for c in key)):
            raise ParseError(f"{where}: arf_table key {_shown(key)} is not a {size}-bit mask")
        if not isinstance(value, int) or isinstance(value, bool) or value not in (0, 1):
            raise ParseError(f"{where}: arf_table[{_shown(key)}] must be 0 or 1")
        arf_table[key] = value
    return LinkDocument(name=name, link=link, arf_table=arf_table)


def _pair_text(pair: list[int]) -> str:
    return f"({pair[0]}, {pair[1]})"


def cmd_invariants(args: argparse.Namespace) -> dict:
    doc = load_link_document(args.file)
    link = doc.link
    report = links.analyze(link, doc.arf_table)
    nat, profile, spins = report.framings, report.homology, report.spin_structures
    mu_shown = {mu: links.mu_representative(mu) for mu in {s.mu for s in spins}}
    warnings: list[str] = []
    framings_json: dict = {"freed_gompf_h": nat.freed_gompf_h}
    if nat.even:
        framings_json.update({
            "delta": list(nat.delta),
            "epsilon_h": nat.epsilon_h,
            "phi_half_tau": list(nat.phi_half_tau),
        })
    else:
        warnings.append("odd framings present: delta_L, epsilon_L and phi_L are undefined")
    return {
        "name": doc.name,
        "components": link.components,
        "chi": nat.chi,
        "sigma": nat.sigma,
        "tau": nat.tau,
        "homology": {"betti1": profile.betti1, "torsion": list(profile.torsion),
                     "r": profile.r, "s": profile.s},
        "spin_structures": [
            {"bitmask": bits, "members": [i for i, bit in enumerate(bits) if bit == "1"],
             "self_intersection": cc, "arf": arf, "arf_assumed": assumed, "mu": mu_shown[mu],
             "mu_mod16": mu, "lambda": lam.representative, "lambda_mod4": lam.value}
            for bits, cc, arf, assumed, mu, lam in spins],
        "framings": framings_json,
        "warnings": warnings,
    }


def _invariants_text(payload: dict) -> list[str]:
    """The text report of `invariants`, rendered from its JSON payload."""
    profile, spins, framings = payload["homology"], payload["spin_structures"], payload["framings"]
    lines = [
        f"link '{payload['name']}': {payload['components']} components",
        f"  chi = {payload['chi']}",
        f"  sigma = {payload['sigma']}",
        f"  tau = {payload['tau']}",
        "homology H1(M):",
        f"  b1 = {profile['betti1']}",
        f"  torsion = {profile['torsion']}",
        f"  r = {profile['r']}",
        f"  s = {profile['s']}",
        f"spin structures (characteristic sublinks): {len(spins)}",
    ]
    for spin in spins:
        note = " [arf assumed 0]" if spin["arf_assumed"] else ""
        lines.append(f"  [{spin['bitmask'] or '-'}] C.C = {spin['self_intersection']}  "
                     f"Arf = {spin['arf']}{note}  mu = {spin['mu']} (mod 16)  "
                     f"lambda = {spin['lambda']} (class {spin['lambda_mod4']} mod 4)")
    lines.append("natural framings:")
    if "delta" in framings:
        lines += [
            f"  H(delta_L) = {_pair_text(framings['delta'])}",
            f"  h(epsilon_L) = {framings['epsilon_h']}",
            f"  H(phi_L) = {_pair_text(framings['phi_half_tau'])}",
        ]
    lines.append(f"  h(2phi_L) = {framings['freed_gompf_h']}  (surgery 2-framing)")
    if payload["warnings"]:
        lines.append("warnings:")
        lines += [f"  {w}" for w in payload["warnings"]]
    return lines


def cmd_canonical(args: argparse.Namespace) -> dict:
    if (args.file is None) == (args.lambda_class is None):
        raise ParseError("give exactly one of a link file and --lambda")
    if args.lambda_class is not None:
        lam = LambdaClass(args.lambda_class)
        return {"lambda_mod4": lam.value,
                "canonical_set": [list(p) for p in sorted(defects.canonical_set(lam))]}
    doc = load_link_document(args.file)
    nat = links.natural_framings(doc.link)
    named = [("delta_L", nat.delta),
             ("epsilon_L", TotalDefect(0, nat.epsilon_h)),
             ("phi_L", nat.phi_half_tau)]
    lam = defects.lambda_class(nat.delta)
    canonical = sorted(defects.canonical_set(lam))
    offsets = []
    for name, defect in named:
        for target in (p.h for p in canonical if p.d == 0):
            off = defects.canonical_offset(defect, target)
            offsets.append({"framing": name, "defect": list(defect),
                            "m_rho": off.m_rho, "n_sigma": off.n_sigma, "target": target,
                            "result": list(defects.act(defect, off))})
    return {
        "name": doc.name,
        "lambda_mod4": lam.value,
        "lambda_representative": lam.representative,
        "canonical_set": [list(p) for p in canonical],
        "offsets": offsets,
    }


def _canonical_text(payload: dict) -> list[str]:
    points = [_pair_text(p) for p in payload["canonical_set"]]
    if "name" not in payload:  # --lambda: the canonical set alone
        return ([f"canonical defects for lambda class {payload['lambda_mod4']} (mod 4):"]
                + [f"  {p}" for p in points])
    lines = [
        f"link '{payload['name']}': lambda = {payload['lambda_representative']} "
        f"(class {payload['lambda_mod4']} mod 4)",
        "canonical defects: " + ", ".join(points),
        "offsets to the canonical points:",
    ]
    lines += [f"  {o['framing']} {_pair_text(o['defect'])} + {o['n_sigma']} sigma "
              f"+ {o['m_rho']} rho -> {_pair_text(o['result'])}" for o in payload["offsets"]]
    return lines


# The cotangent check visits every element; at this order the sweep takes
# about 0.16 s for C1000000 and 0.09 s for D250000 (best of 9, shared
# 2-vCPU machine, Python 3.11), and its float error is still below 3e-11
# relative.
MAX_QUOTIENT_ORDER = 10**6


def cmd_quotient(args: argparse.Namespace) -> dict:
    # A parameter with more digits than the limit is past it for C and D
    # alike: it is named by its digit count, neither parsed nor echoed.
    spec = args.group.strip()
    digits = spec[1:].lstrip("0")
    if (spec[:1] in ("C", "D") and digits.isascii() and digits.isdigit()
            and len(digits) > len(str(MAX_QUOTIENT_ORDER))):
        raise ParseError(f"group {spec[0]} has a parameter of {len(digits)} digits, "
                         f"past the order limit of {MAX_QUOTIENT_ORDER}")
    try:
        group = quotients.parse_group(args.group)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if group.order > MAX_QUOTIENT_ORDER:
        raise ParseError(f"group {group.label} has order {group.order}, "
                         f"past the limit of {MAX_QUOTIENT_ORDER}")
    sigma = quotients.sigma_g(group)
    brute = quotients.sigma_g_bruteforce(group)
    defect = quotients.quotient_framing_defect(group)
    payload = {
        "group": group.label,
        "family": group.description,
        "order": group.order,
        "sigma_g": sigma,
        "sigma_g_bruteforce": brute,
        "bruteforce_abs_error": abs(brute - sigma),
        "signature_defect": str(quotients.signature_defect(group)),
        "defect": list(defect),
    }
    if group.family == "C":
        off = defects.canonical_offset(defect, defects.lambda_class(defect).representative)
        payload["canonical_offset_rho"] = off.m_rho
        payload["canonical_h"] = defects.act(defect, off).h
    return payload


def _quotient_text(payload: dict) -> list[str]:
    lines = [
        f"group {payload['group']} ({payload['family']}), order {payload['order']}",
        f"  sigma(G) = {payload['sigma_g']}",
        f"  cotangent sum = {payload['sigma_g_bruteforce']:.9f}  "
        f"(|error| = {payload['bruteforce_abs_error']:.2e})",
        f"  signature defect = {payload['signature_defect']}",
        f"  quotient framing defect H = {_pair_text(payload['defect'])}",
    ]
    if "canonical_h" in payload:  # cyclic groups: lens spaces
        lines.append(f"  canonical framing: + {payload['canonical_offset_rho']} rho "
                     f"-> h = {payload['canonical_h']}")
    return lines


def cmd_bundle(args: argparse.Namespace) -> dict:
    if args.genus < 0:
        raise ParseError("--genus must be nonnegative")
    bundle = bundles.CircleBundle(args.genus, args.euler)
    framing = bundles.fiber_framing(bundle)
    p1, h = (None, None) if framing is None else framing
    return {"genus": bundle.genus, "euler": bundle.euler, "chi": bundle.chi,
            "fiber_framing_exists": framing is not None, "p1": p1, "h": h}


def _bundle_text(payload: dict) -> list[str]:
    exists = payload["fiber_framing_exists"]
    lines = [f"circle bundle: genus {payload['genus']}, euler class {payload['euler']} "
             f"(chi = {payload['chi']})",
             f"  fiber-preserving framing exists: {'yes' if exists else 'no'}"]
    if exists:
        if payload["p1"] is not None:
            lines.append(f"  p1(disk bundle) = {payload['p1']}")
        lines.append(f"  h(fiber framing) = {payload['h']}")
    return lines


# The one integer grammar of the command line: ASCII digits, spaces
# around.  int() and Fraction also read '1_0' and non-ASCII digits, and
# Fraction reads decimals and exponents, expanding '1e999999999' before
# any size check could refuse it.
_INTEGER = re.compile(r"\s*[-+]?[0-9]+\s*")
_RATIONAL = re.compile(r"\s*[-+]?[0-9]+(/[0-9]+)?\s*")


def _integer(text: str) -> int:
    """int(text) for text in the integer grammar, else ArgumentTypeError,
    whose message argparse prints as it is."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise argparse.ArgumentTypeError(f"invalid integer value: {_shown(text)}")


def cmd_cover(args: argparse.Namespace) -> dict:
    try:
        d_text, h_text = args.defect.split(",")
        start = TotalDefect(_integer(d_text), _integer(h_text))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ParseError(f"--defect must look like 'd,h', got {_shown(args.defect)}") from exc
    if args.degree < 1:
        raise ParseError("--degree must be at least 1")
    try:
        if not _RATIONAL.fullmatch(args.sigma_pi):
            raise ValueError("not an integer or p/q")
        sigma_pi = Fraction(args.sigma_pi)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"--sigma-pi must be an integer or p/q, "
                         f"got {_shown(args.sigma_pi)}") from exc
    result = defects.pullback_cover(start, args.degree, sigma_pi)
    return {"defect": list(start), "degree": args.degree, "sigma_pi": str(sigma_pi),
            "result": list(result)}


def _cover_text(payload: dict) -> list[str]:
    return [f"pullback along a {payload['degree']}-fold cover with signature defect "
            f"{payload['sigma_pi']}:",
            f"  {_pair_text(payload['defect'])} -> {_pair_text(payload['result'])}"]


def cmd_catalog(args: argparse.Namespace) -> dict:
    entries = catalog.build_catalog()
    return {
        "entries": [{"key": e.key, "description": e.description,
                     "value": e.value, "expected": e.expected, "ok": e.ok}
                    for e in entries],
        "all_ok": all(e.ok for e in entries),
    }


def _catalog_text(payload: dict) -> list[str]:
    entries = payload["entries"]
    lines = [f"{'ok  ' if e['ok'] else 'FAIL'} {e['key']}: {e['description']} = {e['value']}"
             for e in entries]
    lines.append(f"{sum(e['ok'] for e in entries)}/{len(entries)} entries verified")
    return lines


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end, like every other error,
    in exit 2 with one stderr line; subparsers inherit the class.  argparse
    echoes an unknown token as it is, so its line breaks are escaped here."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message.translate(_LINE_BREAKS)}\n")


class _Command(NamedTuple):
    help: str
    arguments: tuple[tuple[str, dict], ...]  # (name, add_argument options) pairs
    run: Callable[[argparse.Namespace], dict]
    text: Callable[[dict], list[str]]


def _commands() -> dict[str, _Command]:
    """The subcommands in help order.  Built per call, so each entry holds the
    module's current cmd_* and renderer, wrapped ones (perfbench's tracer) too."""
    link_file = {"help": "link document (JSON)"}
    return {
        "invariants": _Command("invariants of a framed-link file", (("file", link_file),),
                               cmd_invariants, _invariants_text),
        "canonical": _Command("canonical framings and offsets", (
            ("file", {"nargs": "?", **link_file}),
            ("--lambda", {"dest": "lambda_class", "type": _integer,
                          "help": "show the canonical set for this class instead"})),
            cmd_canonical, _canonical_text),
        "quotient": _Command("defects of quotients of the 3-sphere",
                             (("group", {"help": "C<m>, D<m>, T, O or I"}),),
                             cmd_quotient, _quotient_text),
        "bundle": _Command("fiber framings of circle bundles", (
            ("--genus", {"type": _integer, "required": True}),
            ("--euler", {"type": _integer, "required": True})), cmd_bundle, _bundle_text),
        "cover": _Command("pull a defect back along a finite cover", (
            ("--defect", {"required": True, "help": "total defect 'd,h'"}),
            ("--degree", {"type": _integer, "required": True}),
            ("--sigma-pi", {"default": "0",
                            "help": "signature defect, an integer or p/q, e.g. '722/3'"})),
            cmd_cover, _cover_text),
        "catalog": _Command("recompute the table of known values", (), cmd_catalog, _catalog_text),
    }


def _add_arguments(parser: argparse.ArgumentParser, command: _Command) -> argparse.ArgumentParser:
    for name, options in command.arguments + (("--json", {"action": "store_true"}),):
        parser.add_argument(name, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="framings",
        description="Degree and Hirzebruch-defect invariants of framings of "
                    "closed oriented 3-manifolds.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _commands().items():
        _add_arguments(sub.add_parser(name, help=command.help), command)
    return parser


_LITERALS = {None: "null", True: "true", False: "false"}
# Shorter arrays render item by item: there, sorting out a column's types
# costs more than mapping one converter saves (2 ints: about 0.7 us item
# by item, 1.2 us as a column; even near 16; Python 3.11, 2-vCPU VM).
_COLUMN_MIN = 8


def _dumps(obj: object) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` byte for byte, for obj with str keys.

    An array of _COLUMN_MIN items or more renders as one column.  A column
    of exact ints, of strs, or of bools and None maps one converter over
    it (repr, _quote, a dict lookup).  A column of lists and tuples renders
    all their items as one column, then cuts it back into arrays.  A
    column of dicts with one nonempty key tuple renders each key's values
    as a column and fills the shape's %-template row by row.  Other
    columns, shorter arrays and a lone dict's values render item by item:
    exact ints, strs, bools and None inline, lists and nonempty dicts
    recurse, and json.dumps renders the rest (floats, subclasses, {}).  A
    table local to the call maps each dict shape (its key tuple and
    indent) to its sorted keys and a %-template of their `,\n  "key": `
    heads, so like dicts sort and quote their keys once.
    """
    shapes: dict[tuple[tuple, str], tuple[list, str]] = {}

    def shape(keys: tuple, pad: str) -> tuple[list, str]:
        found = shapes.get((keys, pad))
        if found is None:
            order, inner = sorted(keys), pad + "  "
            found = shapes[keys, pad] = order, "{" + inner + ("," + inner).join(
                _quote(k).replace("%", "%%") + ": %s" for k in order) + pad + "}"
        return found

    def items(values: Sequence, pad: str) -> list[str]:
        return [repr(v) if type(v) is int  # ValueError past sys.get_int_max_str_digits()
                else _quote(v) if type(v) is str else "null" if v is None
                else "true" if v is True else "false" if v is False
                else render(v, pad) for v in values]

    def column(values: Sequence, pad: str) -> list[str]:
        kinds = set(map(type, values))
        if kinds == {int}:
            return list(map(repr, values))
        if kinds == {str}:
            return list(map(_quote, values))
        if kinds <= {bool, type(None)}:
            return list(map(_LITERALS.__getitem__, values))
        inner = pad + "  "
        if kinds <= {list, tuple}:
            flat = list(chain.from_iterable(values))
            texts = iter(column(flat, inner) if len(flat) >= _COLUMN_MIN else items(flat, inner))
            comma = "," + inner
            return ["[" + inner + comma.join(islice(texts, len(v))) + pad + "]" if v else "[]"
                    for v in values]
        if kinds == {dict}:
            keys = set(map(tuple, values))
            if len(keys) == 1 and () not in keys:  # like dicts, and not all {}
                order, template = shape(keys.pop(), pad)
                return list(map(template.__mod__, zip(*[
                    column(list(map(itemgetter(k), values)), inner) for k in order])))
        return items(values, pad)

    def render(obj: object, pad: str) -> str:
        inner = pad + "  "
        if isinstance(obj, dict) and obj:
            order, template = shape(tuple(obj), pad)
            return template % tuple(items([obj[k] for k in order], inner))
        if not isinstance(obj, (list, tuple)):
            return json.dumps(obj)  # TypeError for what JSON cannot hold
        if not obj:
            return "[]"
        # No name holds the item texts, so they are freed before the copies of their join.
        return "[" + inner + ("," + inner).join(
            column(obj, inner) if len(obj) >= _COLUMN_MIN else items(obj, inner)) + pad + "]"

    return render(obj, "\n")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    commands = _commands()
    if argv and argv[0] in commands:  # build only the subparser build_parser() would use
        command = commands[argv[0]]
        args = _add_arguments(_Parser(prog=f"framings {argv[0]}"), command).parse_args(argv[1:])
    else:  # no subcommand name first: help, --version, '--' or an error
        args = build_parser().parse_args(argv)
        command = commands[args.command]
    try:
        payload = command.run(args)
        try:
            output = _dumps(payload) if args.json else "\n".join(command.text(payload))
        except ValueError as exc:  # raised by int-to-str past sys.get_int_max_str_digits()
            raise ParseError("cannot print the result: an integer in it has more digits "
                             "than the interpreter converts to text") from exc
    except FramingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 3
    try:
        print(output, flush=True)
    except BrokenPipeError:  # the reader closed stdout; keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if payload.get("all_ok") is False else 0


if __name__ == "__main__":
    sys.exit(main())
