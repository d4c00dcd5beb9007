"""Hostile input to the command line: drawn argv and link documents.

Every call of `cli.main` must end in an exit code of 0-3, with exactly one
stderr line on the error exits 2 and 3, and within the deadline: no
traceback, no unbounded run, whatever argv and whatever file it is given.
"""

import contextlib
import io
import json

import hypothesis.strategies as st
from hypothesis import given, settings

from framings.cli import main

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
_INTEGER = st.one_of(st.integers(-50, 50).map(str), _GARBAGE)
# Group orders stay at most 10^4; a C or D parameter past that is junk.
_GROUP = st.one_of(
    st.integers(1, 10**4).map("C{}".format),
    st.integers(2, 2500).map("D{}".format),
    st.sampled_from(["T", "O", "I", "C0", "D1", "T3", "c7", " C7 ", "C" + "9" * 30]),
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


@st.composite
def _documents(draw):
    """A link document's text: mostly objects with a matrix of n <= 4 and
    small entries, with malformed shapes and types in any field."""
    if draw(st.integers(0, 9)) == 0:  # not an object, or not JSON at all
        return draw(st.one_of(st.builds(json.dumps, _ODD_VALUE), st.text(max_size=20)))
    doc = {"matrix": draw(_MATRIX)}
    for key, value in [("name", st.one_of(st.text(max_size=8), _ODD_VALUE)),
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


@st.composite
def _argv(draw, path, missing):
    """argv for one drawn subcommand (or none): its valid pieces in any
    order, some left out, with junk tokens in between."""
    file = st.one_of(st.just(path), st.just(missing), _GARBAGE)
    commands = {  # each subcommand's valid arguments, as option-and-value units
        "invariants": [[file]],
        "canonical": [[file], ["--lambda", _INTEGER]],
        "quotient": [[_GROUP]],
        "bundle": [["--genus", _INTEGER], ["--euler", _INTEGER]],
        "cover": [["--defect", _DEFECT], ["--degree", _INTEGER], ["--sigma-pi", _RATIONAL]],
        "catalog": [],
    }
    name = draw(st.sampled_from(list(commands) + [None]))
    units = [[draw(part) if isinstance(part, st.SearchStrategy) else part for part in unit]
             for unit in commands.get(name, []) if draw(st.integers(0, 4))]
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


@settings(max_examples=300, deadline=500)
@given(st.data())
def test_every_argv_ends_in_an_exit_code_and_one_error_line(tmp_path_factory, data):
    directory = tmp_path_factory.getbasetemp() / "hostile"
    directory.mkdir(exist_ok=True)
    path = directory / "link.json"
    path.write_bytes(data.draw(st.one_of(_documents().map(str.encode), st.binary(max_size=8)),
                               label="document"))
    argv = data.draw(_argv(str(path), str(directory / "missing.json")), label="argv")
    code, out, err = _outcome(argv)
    assert code in (0, 1, 2, 3), (code, err)
    if code in (2, 3):
        assert out == "" and err.startswith("error: "), (out, err)
        assert err.endswith("\n") and len(err.splitlines()) == 1, err
    else:
        assert err == "", err
