"""Hostile input to the command line: drawn argv and link documents.

Every call of `cli.main` must end in an exit code of 0-3, with exactly one
stderr line on the error exits 2 and 3, and within the deadline: no
traceback, no unbounded run, whatever argv and whatever file it is given.
What it prints on exits 0 and 1 encodes as UTF-8.  No token whose repr
passes 40 characters is echoed on stderr.  And where `cli._plain_args`
reads an argv without argparse, the tree from `cli.build_parser` reads it
alike.
"""

import contextlib
import io
import json

import hypothesis.strategies as st
from hypothesis import example, given, settings

from framings import cli
from framings.cli import main

from strategies import group_parameter_specs

# Tokens an attacker or a typo might pass: short junk, non-ASCII text (line
# and paragraph separators included, and the lone surrogate an undecodable
# argv byte becomes), signed digit strings past the interpreter's
# integer-parse limit, and option look-alikes.
_GARBAGE = st.one_of(
    st.text(max_size=12),
    st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=8),
    st.builds(lambda sign, n: sign + "9" * n, st.sampled_from(["", "-", "+"]),
              st.integers(30, 5000)),
    st.builds("--{}".format, st.text(max_size=8)),
    st.sampled_from(["--json", "--", "-", "-h", "--version", "--lambda=", "--de=\n",
                     "1_0", "١", "\udcff", "1e999999999", "0x10", "1/0", " 7 ", "nan"]),
)
# Integers of 37 to 42 digits, either sign, straddle the 39 characters from
# which a token's repr passes 40.
_INTEGER = st.one_of(
    st.integers(-50, 50).map(str),
    st.builds("{}{}".format, st.sampled_from(["", "-"]), st.integers(37, 42).flatmap(
        lambda digits: st.integers(10 ** (digits - 1), 10**digits - 1))),
    _GARBAGE,
)
# Group orders stay at most 10^4; a C or D parameter past that is junk,
# up to 6000 digits long with and without leading zeros, as parse_group's
# own test draws them.
_GROUP = st.one_of(
    st.integers(1, 10**4).map("C{}".format),
    st.integers(2, 2500).map("D{}".format),
    st.sampled_from(["T", "O", "I", "C0", "D1", "T3", "c7", " C7 ", "C" + "9" * 30]),
    group_parameter_specs(),
    _GARBAGE,
)
_RATIONAL = st.one_of(st.builds("{}/{}".format, st.integers(-30, 30), st.integers(0, 9)),
                      _INTEGER)
_DEFECT = st.one_of(st.builds("{},{}".format, _INTEGER, _INTEGER), _GARBAGE)


_ENTRY = st.integers(-3, 3)
_ODD_VALUE = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=4),
                       st.integers(-10**50, 10**50), st.lists(_ENTRY, max_size=2),
                       st.dictionaries(st.text(max_size=2), _ENTRY, max_size=2))


@st.composite
def _symmetric(draw):
    n = draw(st.integers(0, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(_ENTRY)
    return rows


_MATRIX = st.one_of(
    _symmetric(), _symmetric(), _symmetric(),
    st.lists(st.lists(_ENTRY, max_size=4), max_size=4),  # ragged, asymmetric
    st.lists(st.one_of(st.lists(_ODD_VALUE, max_size=4), _ODD_VALUE), max_size=4),
    _ODD_VALUE,
)
_BITMASK = st.text("01", max_size=4)
# Text with a lone surrogate, which JSON escapes such as "\ud800" decode to.
_SURROGATE_TEXT = st.builds("{}{}{}".format, st.text(max_size=3),
                            st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF,
                                          categories=["Cs"]),
                            st.text(max_size=3))


@st.composite
def _documents(draw):
    """A link document's text: mostly objects with a matrix of n <= 4 and
    small entries, with malformed shapes and types in any field."""
    if draw(st.integers(0, 9)) == 0:  # not an object, or not JSON at all
        return draw(st.one_of(st.builds(json.dumps, _ODD_VALUE), st.text(max_size=20)))
    doc = {"matrix": draw(_MATRIX)}
    for key, value in [("name", st.one_of(st.text(max_size=8), _SURROGATE_TEXT, _ODD_VALUE)),
                       ("components", st.one_of(st.integers(-1, 5), _ODD_VALUE)),
                       ("arf_table", st.one_of(
                           st.dictionaries(_BITMASK, st.one_of(st.integers(0, 1), _ODD_VALUE),
                                           max_size=3),
                           _ODD_VALUE))]:
        if draw(st.booleans()):
            doc[key] = draw(value)
    if draw(st.booleans()):
        doc.pop("matrix")
    return json.dumps(doc)


def _units(file):
    """Each subcommand's valid arguments, as option-and-value units."""
    return {
        "invariants": [[file]],
        "canonical": [[file], ["--lambda", _INTEGER]],
        "quotient": [[_GROUP]],
        "bundle": [["--genus", _INTEGER], ["--euler", _INTEGER]],
        "cover": [["--defect", _DEFECT], ["--degree", _INTEGER], ["--sigma-pi", _RATIONAL]],
        "catalog": [],
    }


def _drawn(draw, unit):
    return [draw(part) if isinstance(part, st.SearchStrategy) else part for part in unit]


@st.composite
def _argv(draw, path, missing):
    """argv for one drawn subcommand (or none): its valid pieces in any
    order, some left out, with junk tokens in between."""
    commands = _units(st.one_of(st.just(path), st.just(missing), _GARBAGE))
    name = draw(st.sampled_from(list(commands) + [None]))
    units = [_drawn(draw, unit) for unit in commands.get(name, []) if draw(st.integers(0, 4))]
    units += [[token] for token in draw(st.lists(_GARBAGE, max_size=2))]
    if draw(st.booleans()):
        units.append(["--json"])
    argv = [token for unit in draw(st.permutations(units)) for token in unit]
    return argv if name is None else [name] + argv


def _outcome(argv):
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_ends_cleanly(argv):
    code, out, err = _outcome(argv)
    assert code in (0, 1, 2, 3), (code, err)
    # A token whose repr passes 40 characters is named by its length, never echoed.
    assert not [token for token in argv if len(repr(token)) > 40 and token in err], err
    if code in (2, 3):
        assert out == "" and err.startswith("error: "), (out, err)
        assert err.endswith("\n") and len(err.splitlines()) == 1, err
    else:  # a StringIO never encodes, so a stdout that would must be tried here
        assert err == "", err
        out.encode("utf-8")


@settings(max_examples=300, deadline=500)
@given(st.data())
def test_every_argv_ends_in_an_exit_code_and_one_error_line(tmp_path_factory, data):
    directory = tmp_path_factory.getbasetemp() / "hostile"
    directory.mkdir(exist_ok=True)
    path = directory / "link.json"
    path.write_bytes(data.draw(st.one_of(_documents().map(str.encode), st.binary(max_size=8)),
                               label="document"))
    _assert_ends_cleanly(data.draw(_argv(str(path), str(directory / "missing.json")),
                                   label="argv"))


# The argv test above seldom pairs a well-formed document with a plain argv;
# this one always does, so that each drawn name reaches the printed report.
@settings(max_examples=100, deadline=500)
@given(st.one_of(st.text(max_size=8), _SURROGATE_TEXT, _ODD_VALUE), _symmetric(),
       st.sampled_from(["invariants", "canonical"]), st.sampled_from([[], ["--json"]]))
def test_every_document_name_ends_in_an_exit_code_and_one_error_line(tmp_path_factory, name,
                                                                     matrix, command, json_flag):
    path = tmp_path_factory.getbasetemp() / "named.json"
    path.write_text(json.dumps({"name": name, "matrix": matrix}))
    _assert_ends_cleanly([command, str(path), *json_flag])


@st.composite
def _well_formed_documents(draw):
    """A link document whose every field parses: a symmetric matrix of
    n <= 4, its diagonal made even half the time so that canonical has
    its even framings, and, each or not, a name, components = n and an
    arf_table of n-bit masks."""
    matrix = draw(_symmetric())
    n, doc = len(matrix), {"matrix": matrix}
    if draw(st.booleans()):
        for i in range(n):
            matrix[i][i] -= matrix[i][i] % 2
    for key, value in [("name", st.text(max_size=8)), ("components", st.just(n)),
                       ("arf_table", st.dictionaries(st.text("01", min_size=n, max_size=n),
                                                     st.integers(0, 1), max_size=3))]:
        if draw(st.booleans()):
            doc[key] = draw(value)
    return json.dumps(doc)


# The argv test above draws the document and the argv together, and junk in
# either refuses nearly every call before a report is printed; here a
# well-formed document and a plain argv are drawn apart, so that the report
# renders every field the document gives.
@settings(max_examples=200, deadline=500)
@given(_well_formed_documents(), st.sampled_from(["invariants", "canonical"]),
       st.sampled_from([[], ["--json"]]), st.booleans())
def test_a_well_formed_document_and_a_plain_argv_end_cleanly(tmp_path_factory, document,
                                                             command, json_flag, flag_first):
    path = tmp_path_factory.getbasetemp() / "well-formed.json"
    path.write_text(document)
    tokens = [*json_flag, str(path)] if flag_first else [str(path), *json_flag]
    _assert_ends_cleanly([command, *tokens])


_OPTIONS = ["--json", "--lambda", "--genus", "--euler", "--defect", "--degree", "--sigma-pi"]
_VALUE = st.one_of(_INTEGER, st.integers(-10**4, -1).map(str), _GROUP, _RATIONAL, _DEFECT)


@st.composite
def _near_plain(draw):
    """A subcommand and tokens near a plain argv: its arguments in any
    order, each left out, given once or twice, an option and its value
    joined by '=' or not, with negative, junk or missing values, and the
    exact option names of every subcommand among junk tokens."""
    name = draw(st.sampled_from(list(cli._commands())))
    units = []
    for unit in _units(st.one_of(st.just("link.json"), _GARBAGE))[name]:
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
            tokens = _drawn(draw, unit)
            if len(tokens) == 2 and draw(st.booleans()):
                tokens = ["=".join(tokens)]
            units.append(tokens)
    units += [[token] for token in draw(st.lists(st.one_of(
        st.sampled_from(_OPTIONS), _VALUE, _GARBAGE,
        st.builds("{}={}".format, st.sampled_from(_OPTIONS), _VALUE)), max_size=2))]
    if draw(st.booleans()):
        units.append(["--json"])
    return name, [token for unit in draw(st.permutations(units)) for token in unit]


# argparse 3.11 reads '--defect=--' as an empty list; the plain path leaves it to argparse.
@example(("cover", ["--defect=--", "--degree", "1"]))
@settings(max_examples=500)
@given(_near_plain())
def test_a_plain_argv_reads_as_argparse_reads_it(drawn):
    name, tokens = drawn
    plain = cli._plain_args(cli._commands(), [name, *tokens])
    if plain is not None:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                parsed = cli.build_parser().parse_args([name, *tokens])
            except SystemExit as exc:
                raise AssertionError(f"argparse exits {exc.code} ({err.getvalue()!r}) "
                                     f"where the plain path reads {plain}") from None
        assert vars(parsed) == vars(plain)
