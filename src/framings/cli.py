"""Command-line front end.

Subcommands: invariants, canonical, quotient, bundle, cover, catalog.
One table (`_commands`) declares each one's arguments, `cmd_*` and
renderer.  A plain command line, a subcommand name and then only its
declared arguments spelt out in full, is read straight from the table
(`_plain_args`) and builds no parser.  Anything else goes through the whole
argparse tree from `build_parser`, so help, abbreviations and usage errors
keep its text.  Each call is a fresh process, so a plain command line
imports only what it runs: argparse only in `build_parser`, fractions only
where a Fraction is computed with (`cover`), `catalog` only in
`cmd_catalog`, and neither typing nor pathlib.
Link files are JSON documents with a symmetric integer linking matrix and
an optional table of Arf invariants keyed by sublink bitmask.  Every
command validates its input and returns one payload dict; `main` prints its
renderer's text, or under --json ASCII-escaped JSON byte-identical to
`json.dumps(payload, indent=2, sort_keys=True)` with each spin row written as
its dict, joined by `_dumps` in one pass.  The payload of `invariants` holds
the 2^r spin structures as `analyze`'s own record (`links.SpinStructures`),
and both renderers read it: `_dumps` reads its mask and C.C columns and
fills one %-template per (Arf, mu) class with each row's bitmask, members
and C.C; the text report iterates its rows.

Exit codes: 0 success, 1 `catalog` with a FAIL row, 2 parse or validation
error, 3 mathematical precondition violation.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from . import __version__, bundles, defects, links, quotients
from .defects import LambdaClass, TotalDefect
from .errors import _TOKEN_WIDTH, FramingError, NotSymmetric, ParseError, _shown, _shown_int
from .links import _BIT_VALUES

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from typing import Callable, NoReturn, Sequence


# The characters str.splitlines() breaks at, each mapped to its repr escape:
# an input echoed in an error line has them escaped, so it stays one line.
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


class LinkDocument(namedtuple("LinkDocument", "name link arf_table")):
    __slots__ = ()


def _stem(path: str) -> str:
    """`pathlib.PurePath(path).stem` of a POSIX path, without importing pathlib:
    its last part other than '' and '.', less the last suffix, if any."""
    name = next((part for part in reversed(path.split("/")) if part not in ("", ".")), "")
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def load_link_document(path: str) -> LinkDocument:
    """Read and validate a link file; any defect raises ParseError."""
    # A path whose repr passes 40 characters is named by its length (_shown).
    where = path.translate(_LINE_BREAKS) if _shown(path) == repr(path) else _shown(path)
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except OSError as exc:  # strerror, as str(exc) repeats the path
        raise ParseError(f"cannot read {where}: {exc.strerror or type(exc).__name__}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot parse {where}: {exc}") from exc
    except ValueError as exc:  # open() refuses a path with a NUL in it, escaped here
        where = where.replace("\0", r"\x00")
        raise ParseError(f"cannot read {where}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # raised by str-to-int past sys.get_int_max_str_digits()
        raise ParseError(f"cannot parse {where}: an integer in it has more digits "
                         "than the interpreter converts from text") from exc
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
    if components != size:
        raise ParseError(f"{where}: components = {_shown_int(components)} "
                         f"but matrix is {size}x{size}")
    name = raw.get("name", _stem(path))
    if not isinstance(name, str):
        raise ParseError(f"{where}: 'name' must be a string")
    try:  # a lone surrogate (a JSON escape, an undecodable file name) has no UTF-8 to print
        name.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError(f"{where}: 'name' must be valid Unicode, with no lone surrogate") from exc
    raw_table = {} if raw.get("arf_table") is None else raw["arf_table"]
    if not isinstance(raw_table, dict):
        raise ParseError(f"{where}: 'arf_table' must be an object")
    arf_table: dict[str, int] = {}
    for key, value in raw_table.items():
        if not isinstance(key, str) or len(key) != size or key.strip("01"):
            raise ParseError(f"{where}: arf_table key {_shown(key)} is not a {size}-bit mask")
        if not isinstance(value, int) or isinstance(value, bool) or value not in (0, 1):
            raise ParseError(f"{where}: arf_table[{_shown(key)}] must be 0 or 1")
        arf_table[key] = value
    return LinkDocument(name=name, link=link, arf_table=arf_table)


def _pair_text(pair: list[int]) -> str:
    return f"({pair[0]}, {pair[1]})"


def cmd_invariants(args: SimpleNamespace) -> dict:
    doc = load_link_document(args.file)
    link = doc.link
    report = links.analyze(link, doc.arf_table)
    nat, profile = report.framings, report.homology
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
        "spin_structures": report.spin_structures,
        "framings": framings_json,
        "warnings": warnings,
    }


def _invariants_text(payload: dict) -> list[str]:
    """The text report of `invariants`, rendered from its payload."""
    profile, framings = payload["homology"], payload["framings"]
    spins = payload["spin_structures"]
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
        f"spin structures (characteristic sublinks): {spins.count}",
    ]
    for bits, cc, arf, assumed, mu, lam in spins:
        note = " [arf assumed 0]" if assumed else ""
        lines.append(f"  [{bits or '-'}] C.C = {cc}  Arf = {arf}{note}  "
                     f"mu = {links.mu_representative(mu)} (mod 16)  "
                     f"lambda = {lam.representative} (class {lam.value} mod 4)")
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


def cmd_canonical(args: SimpleNamespace) -> dict:
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


def cmd_quotient(args: SimpleNamespace) -> dict:
    try:
        group = quotients.parse_group(args.group)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if group.order > MAX_QUOTIENT_ORDER:  # the order at the width the label names m
        raise ParseError(f"group {group.label} has order "
                         f"{_shown_int(group.order, _TOKEN_WIDTH - 1)}, "
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
        # sigma / 3 in lowest terms with no Fraction: sigma >= 0, and gcd(sigma, 3) is 1 or 3.
        "signature_defect": str(sigma // 3) if sigma % 3 == 0 else f"{sigma}/3",
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


def cmd_bundle(args: SimpleNamespace) -> dict:
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


# The one integer grammar of the command line, --sigma-pi's p and q too: ASCII
# digits, a sign, spaces around.  int() and Fraction also read '1_0' and non-ASCII
# digits, and Fraction expands '1e999999999' before any size check could refuse it.
_INTEGER = re.compile(r"\s*[-+]?[0-9]+\s*")


def _integer(text: str) -> int:
    """int(text) for text in the integer grammar, else ValueError, whose
    message `build_parser`'s tree prints as it is."""
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise ValueError(f"invalid integer value: {_shown(text)}")


def cmd_cover(args: SimpleNamespace) -> dict:
    from fractions import Fraction

    try:
        start = TotalDefect(*map(_integer, args.defect.split(",")))
    except (TypeError, ValueError) as exc:  # TypeError: not two integers
        raise ParseError(f"--defect must look like 'd,h', got {_shown(args.defect)}") from exc
    if args.degree < 1:
        raise ParseError("--degree must be at least 1")
    try:
        sigma_pi = Fraction(*map(_integer, args.sigma_pi.split("/")))
    except (TypeError, ValueError, ZeroDivisionError) as exc:  # not p or p/q
        raise ParseError(f"--sigma-pi must be an integer or p/q, "
                         f"got {_shown(args.sigma_pi)}") from exc
    result = defects.pullback_cover(start, args.degree, sigma_pi)
    return {"defect": list(start), "degree": args.degree, "sigma_pi": str(sigma_pi),
            "result": list(result)}


def _cover_text(payload: dict) -> list[str]:
    return [f"pullback along a {payload['degree']}-fold cover with signature defect "
            f"{payload['sigma_pi']}:",
            f"  {_pair_text(payload['defect'])} -> {_pair_text(payload['result'])}"]


def cmd_catalog(args: SimpleNamespace) -> dict:
    from . import catalog

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


class _Command(namedtuple("_Command", "help arguments run text")):
    """A subcommand: its help, its (name, add_argument options) pairs, its
    cmd_* and its renderer."""

    __slots__ = ()


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


def _plain_value(token: str) -> bool:
    """Whether argparse reads token as a value, not an option, by a rule
    every version shares: no leading '-', or '-' and ASCII digits."""
    return not token.startswith("-") or re.fullmatch("-[0-9]+", token) is not None


def _plain_args(commands: dict[str, _Command], argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` fills, read straight
    from the table, or None unless argv[0] names a command and every token
    after it is plain: a positional, an exact option name, the value after
    it, or `name=value`.  None for help, '--', an abbreviation, an unknown
    or repeated option, --json=..., a value its type refuses, a missing
    argument or an extra positional; argparse then parses, prints or
    refuses it.  The table's options store one value each, and its
    positionals take one or, with nargs '?', none."""
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return None
    given: dict[str, str] = {}  # option name -> its value
    free: list[str] = []  # positional tokens, in order
    options = {name for name, _ in command.arguments if name.startswith("-")} | {"--json"}
    rest = iter(argv[1:])
    for token in rest:
        if token in options:
            value = "" if token == "--json" else next(rest, "--")  # '--' when none is left
            if not _plain_value(value):
                return None
        elif _plain_value(token):
            free.append(token)
            continue
        else:
            token, eq, value = token.partition("=")
            # argparse 3.11 reads '--defect=--' as [], so '--' is left to it
            if not eq or token not in options or token == "--json" or value == "--":
                return None
        if token in given:
            return None
        given[token] = value
    values = {"command": argv[0], "json": "--json" in given}
    for name, spec in command.arguments:
        if name.startswith("-"):
            dest, value = spec.get("dest", name.lstrip("-").replace("-", "_")), given.get(name)
            if value is None and spec.get("required"):
                return None
        else:
            dest, value = name, free.pop(0) if free else None
            if value is None and spec.get("nargs") != "?":
                return None
        if value is None:
            value = spec.get("default")
        if isinstance(value, str) and "type" in spec:  # argparse types string defaults too
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        values[dest] = value
    return None if free else SimpleNamespace(**values)


def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, from the table: the one place argparse is
    imported, as only help, abbreviations and usage errors need it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """An argument parser whose usage errors end, like every other error,
        in exit 2 with one stderr line; subparsers inherit the class.  argparse
        echoes an unknown token as it is, so a token, or the value after its
        first '=', whose repr passes 40 characters is named by its length
        (_shown), and line breaks are escaped."""

        _argv: Sequence[str] = ()

        def parse_known_args(self, args=None, namespace=None):
            self._argv = sys.argv[1:] if args is None else args
            return super().parse_known_args(args, namespace)

        def error(self, message: str) -> NoReturn:
            parts = {part for token in self._argv for part in (token, token.partition("=")[2])}
            for part in sorted(parts, key=len, reverse=True):  # a long part before any inside it
                if _shown(part) != repr(part):
                    message = message.replace(repr(part), _shown(part)).replace(part, _shown(part))
            self.exit(2, f"error: {message.translate(_LINE_BREAKS)}\n")

    # A type's ValueError as ArgumentTypeError, whose message argparse prints as it is.
    def typed(convert: Callable[[str], int]) -> Callable[[str], int]:
        def checked(text: str) -> int:
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from exc
        return checked

    parser = Parser(
        prog="framings",
        description="Degree and Hirzebruch-defect invariants of framings of "
                    "closed oriented 3-manifolds.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _commands().items():
        subparser = sub.add_parser(name, help=command.help)
        for argument, options in command.arguments + (("--json", {"action": "store_true"}),):
            if "type" in options:
                options = {**options, "type": typed(options["type"])}
            subparser.add_argument(argument, **options)
    return parser


# A spin row's fields that its class fixes, and the three left as slots of
# the class's template, in sorted key order.  A bitmask holds only 0s and 1s,
# so its quotes go in the template.
_SPIN_FIXED = ("arf", "arf_assumed", "lambda", "lambda_mod4", "mu", "mu_mod16")
_SPIN_SLOTS = {"bitmask": '"%s"', "members": "%s", "self_intersection": "%d"}


def _dumps(obj: object) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` byte for byte, for obj with
    str keys, where a `links.SpinStructures` is written as the array of its
    rows' dicts {"bitmask", "members": the indices of its 1s,
    "self_intersection", "arf", "arf_assumed", "mu": mu_representative(mu),
    "mu_mod16": mu, "lambda": lam.representative, "lambda_mod4": lam.value}.

    Arrays and a dict's values render item by item: exact ints, strs, bools
    and None inline, lists and nonempty dicts recurse, and json.dumps
    renders the rest (floats, subclasses, {}).  A table local to the call
    maps each dict shape (its key tuple and indent) to its sorted keys and a
    %-template of their `,\n  "key": ` heads, so like dicts sort and quote
    their keys once.

    The spin rows build no dicts and no row tuples: the loop reads the
    record's mask and C.C columns, and per row makes the bitmask and looks
    up its Arf.  The Arf (or its absence) and C.C mod 16 fix the row's
    class, the fields arf, arf_assumed, mu = sigma - C.C + 8 Arf and
    lambda; each class met fills the row shape's template once with its
    six fixed fields, from the record's own row, leaving the bitmask, the
    members and C.C as slots, so a row costs one %.
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

    def spin_rows(spins: links.SpinStructures, pad: str) -> str:  # at least one row
        inner = pad + "  "
        fields = inner + "  "  # the rows' keys, and the members arrays
        order, template = shape(_SPIN_FIXED + tuple(_SPIN_SLOTS), inner)
        names = [str(i) for i in range(spins.components)]
        comma, close = "," + fields + "  ", fields + "]"
        opening = "[" + fields + "  "
        top, get = 1 << spins.components, spins.arf_table.get
        classes: dict[tuple, str] = {}
        texts = []
        for mask, cc in zip(spins.masks, spins.self_intersections):
            bits = bin(mask | top)[3:]
            arf = get(bits)
            row = classes.get((arf, cc & 15))
            if row is None:
                spin = spins.row(mask, cc)
                shown = _SPIN_SLOTS | dict(zip(_SPIN_FIXED, items([
                    spin.arf, spin.arf_assumed, spin.lam.representative, spin.lam.value,
                    links.mu_representative(spin.mu), spin.mu], fields)))
                row = classes[arf, cc & 15] = template % tuple(shown[k] for k in order)
            members = comma.join(compress(names, bits.encode().translate(_BIT_VALUES)))
            texts.append(row % (bits, opening + members + close if members else "[]", cc))
        return "[" + inner + ("," + inner).join(texts) + pad + "]"

    def render(obj: object, pad: str) -> str:
        inner = pad + "  "
        if isinstance(obj, dict) and obj:
            order, template = shape(tuple(obj), pad)
            return template % tuple(items([obj[k] for k in order], inner))
        if type(obj) is links.SpinStructures:
            return spin_rows(obj, pad)
        if not isinstance(obj, (list, tuple)):
            return json.dumps(obj)  # TypeError for what JSON cannot hold
        if not obj:
            return "[]"
        # No name holds the item texts, so they are freed before the copies of their join.
        return "[" + inner + ("," + inner).join(items(obj, inner)) + pad + "]"

    return render(obj, "\n")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    commands = _commands()
    args = _plain_args(commands, argv) or build_parser().parse_args(argv, SimpleNamespace())
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
