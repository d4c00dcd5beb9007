"""The command-line interface."""

import json
import os
import re
import subprocess
import sys
from collections import Counter
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from framings import __version__, bundles, catalog, cli
from framings.catalog import CatalogEntry
from framings.cli import MAX_QUOTIENT_ORDER, load_link_document, main
from framings.errors import ParseError

LINKS = Path(__file__).resolve().parent.parent / "links"
SRC = LINKS.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def source_env():
    """The environment of a fresh interpreter that imports framings from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def write_doc(tmp_path, payload, name="link.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadLinkDocument:
    def test_shipped_documents_parse(self):
        for path in sorted(LINKS.glob("*.json")):
            doc = load_link_document(str(path))
            assert doc.link.components == len(doc.link.matrix.entries)

    def test_rejects_asymmetric(self, tmp_path):
        path = write_doc(tmp_path, {"matrix": [[0, 1], [2, 0]]})
        with pytest.raises(ParseError):
            load_link_document(path)

    # IntMatrix refuses non-integer entries and ragged rows, FramedLink a
    # matrix that is not square; the loader turns each refusal into one
    # error line, and the loader's own list check catches what is not a list.
    @pytest.mark.parametrize("doc", [
        {"matrix": m} for m in ([[1.0]], [[True]], [[1, 2], [3]], [[1, 2]], [[]], "12",
                                [{"0": 1}], [[[1]]], None)
    ] + [{}], ids=["float", "bool", "ragged", "wide", "empty-row", "string", "object-row",
                   "nested", "null", "missing"])
    def test_malformed_matrix_exits_2_with_one_line(self, capsys, monkeypatch, tmp_path, doc):
        monkeypatch.chdir(tmp_path)  # a short path is echoed as it is
        path = Path(write_doc(tmp_path, doc)).name
        code, out, err = run(capsys, "invariants", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("doc, message", [
        ([[1]], "top level must be an object"), ("[[1]]", "top level must be an object"),
        (None, "top level must be an object"),
        ({"matrix": [[1]], "name": 3}, "'name' must be a string"),
        ({"matrix": [[1]], "name": ["e8"]}, "'name' must be a string"),
    ], ids=["list", "string", "null", "int-name", "list-name"])
    def test_malformed_document_exits_2_with_one_line(self, capsys, monkeypatch, tmp_path,
                                                      doc, message):
        monkeypatch.chdir(tmp_path)
        path = Path(write_doc(tmp_path, doc)).name
        code, out, err = run(capsys, "invariants", path)
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("components", [3, True, 1.0], ids=["mismatch", "bool", "float"])
    def test_rejects_component_mismatch(self, tmp_path, components):
        path = write_doc(tmp_path, {"components": components, "matrix": [[0]]})
        with pytest.raises(ParseError):
            load_link_document(path)

    # A components value whose repr passes 40 characters is named by its
    # digit count, a shorter one echoed as it is.  Each runs as a process,
    # in the file's directory, so the short path is echoed as it is.
    @pytest.mark.parametrize("components, shown", [
        ("9" * 4000, "<4000 digits>"),
        ("-" + "9" * 4000, "<4000 digits>"),
        ("9" * 40, "9" * 40),
        ("9" * 41, "<41 digits>"),
        ("-" + "9" * 39, "-" + "9" * 39),
        ("-" + "9" * 40, "<40 digits>"),
        ("3", "3"),
    ], ids=["4000-digits", "minus-4000-digits", "repr-40", "repr-41", "minus-repr-40",
            "minus-repr-41", "short"])
    def test_a_long_components_value_is_named_by_its_digits(self, tmp_path, components, shown):
        path = tmp_path / "c.json"
        path.write_text('{"matrix": [[1]], "components": ' + components + "}")
        result = subprocess.run([sys.executable, "-m", "framings.cli", "invariants", path.name],
                                capture_output=True, env=source_env(), cwd=tmp_path, timeout=60)
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr == f"error: c.json: components = {shown} but matrix is 1x1\n".encode()
        assert len(result.stderr) <= 200

    def test_rejects_bad_arf_keys(self, tmp_path):
        path = write_doc(tmp_path, {"matrix": [[2]], "arf_table": {"11": 0}})
        with pytest.raises(ParseError):
            load_link_document(path)

    def test_rejects_non_bit_arf_values(self, tmp_path):
        path = write_doc(tmp_path, {"matrix": [[2]], "arf_table": {"1": 2}})
        with pytest.raises(ParseError):
            load_link_document(path)

    # Arf of the empty sublink is 0, yet a table giving it 1 is honoured:
    # mu comes out 7 for unknot-4's empty sublink (15 is right) and 8 for
    # the 3-sphere (0 is right).  perfbench's spin_enum pools draw such
    # tables and its oracle expects them honoured, so refusing them waits
    # for a benchmark change (ROADMAP item 7).
    @pytest.mark.xfail(strict=True, reason="the table's Arf 1 for the empty sublink is used")
    @pytest.mark.parametrize("matrix, key", [([[-4]], "0"), ([], "")], ids=["unknot-4", "empty"])
    def test_refuses_arf_one_for_the_empty_sublink(self, capsys, tmp_path, matrix, key):
        path = write_doc(tmp_path, {"matrix": matrix, "arf_table": {key: 1}})
        code, out, err = run(capsys, "invariants", path, "--json")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_name_defaults_to_the_stem(self, tmp_path):
        path = write_doc(tmp_path, {"matrix": []}, name="sphere.json")
        assert load_link_document(path).name == "sphere"


class TestInvariantsCommand:
    def test_e8_table(self, capsys):
        code, out, _ = run(capsys, "invariants", str(LINKS / "e8.json"))
        assert code == 0
        assert "H(delta_L) = (9, -24)" in out
        assert "h(epsilon_L) = -6" in out
        assert "h(2phi_L) = -16" in out
        assert "mu = 8 (mod 16)" in out
        assert "[arf assumed 0]" in out

    def test_empty_link_is_the_sphere(self, capsys):
        code, out, _ = run(capsys, "invariants", str(LINKS / "empty.json"))
        assert code == 0
        assert "H(delta_L) = (1, 0)" in out
        assert "lambda = 2" in out

    def test_chain4_json_values(self, capsys):
        code, out, _ = run(capsys, "invariants", str(LINKS / "chain4.json"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["chi"] == 5 and payload["sigma"] == 4
        spin = payload["spin_structures"][0]
        assert spin["mu_mod16"] == 4 and spin["lambda_mod4"] == 2

    def test_arf_table_is_honoured(self, capsys):
        code, out, _ = run(capsys, "invariants", str(LINKS / "trefoil2.json"), "--json")
        assert code == 0
        payload = json.loads(out)
        by_mask = {s["bitmask"]: s for s in payload["spin_structures"]}
        assert by_mask["1"]["arf"] == 1 and not by_mask["1"]["arf_assumed"]
        assert by_mask["1"]["mu_mod16"] == (1 - 2 + 8) % 16
        assert by_mask["0"]["arf_assumed"]

    def test_sublinks_are_listed_by_ascending_bitmask(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"matrix": [[2, 1, 0], [1, 2, 1], [0, 1, 2]]})
        code, out, _ = run(capsys, "invariants", path, "--json")
        assert code == 0
        masks = [s["bitmask"] for s in json.loads(out)["spin_structures"]]
        assert masks == sorted(masks) == ["000", "101"]

    def test_odd_framings_warn_but_do_not_fail(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"matrix": [[-3]]})
        code, out, _ = run(capsys, "invariants", path)
        assert code == 0
        assert "warnings:" in out and "odd framings" in out
        assert "h(2phi_L) = 0" in out
        assert "H(delta_L)" not in out and "h(epsilon_L)" not in out

    def test_parse_errors_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _, err = run(capsys, "invariants", str(bad))
        assert code == 2 and "error:" in err
        code, _, err = run(capsys, "invariants", str(tmp_path / "missing.json"))
        assert code == 2

    @pytest.mark.parametrize("arf_table", [[1], {"1": True}, {"1": 1.0}, "1"],
                             ids=["list", "bool", "float", "string"])
    def test_malformed_arf_tables_exit_2_with_one_line(self, capsys, tmp_path, arf_table):
        path = write_doc(tmp_path, {"matrix": [[2]], "arf_table": arf_table})
        code, out, err = run(capsys, "invariants", path, "--json")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no integer-parse limit")
    def test_integer_beyond_the_parse_limit_exits_2_with_one_line(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"matrix": [[' + "7" * 5000 + ']]}')
        code, out, err = run(capsys, "invariants", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no integer-to-text limit")
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_result_beyond_the_print_limit_exits_2_with_one_line(self, capsys, tmp_path,
                                                                 json_flag):
        # Every entry parses, but C.C of the whole link has 4301 digits.
        path = write_doc(tmp_path, {"matrix": [[10 ** 4299 - 1] * 5] * 5})
        code, out, err = run(capsys, "invariants", path, *json_flag)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("nested", ['{"matrix": ' + "[" * 100000 + "]" * 100000 + "}",
                                        '{"name": ' + '{"a": ' * 100000 + "0" + "}" * 100001],
                             ids=["lists", "objects"])
    def test_deep_nesting_exits_2_with_one_line(self, capsys, tmp_path, nested):
        path = tmp_path / "deep.json"
        path.write_text(nested)
        code, out, err = run(capsys, "invariants", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    # A long entry is named by its type and a row that is no list by its
    # index, so the error line stays short.  A process of its own meets the
    # 984-deep list at the recursion depth of a real run; it runs in the
    # file's directory, so the short path is echoed as it is.
    @pytest.mark.parametrize("matrix, message", [
        ('[["' + "x" * 10**5 + '"]]', "non-integer matrix entry of type str"),
        ("[[" + "[" * 984 + "]" * 984 + "]]", "non-integer matrix entry of type list"),
        ("[[1, 2], 3]", "matrix row 1 is not a list of integers"),
    ], ids=["long-string", "deep-list", "number-row"])
    def test_odd_entries_exit_2_with_one_short_line(self, tmp_path, matrix, message):
        path = tmp_path / "m.json"
        path.write_text('{"matrix": ' + matrix + "}")
        env = source_env()
        result = subprocess.run([sys.executable, "-m", "framings.cli", "invariants", path.name],
                                capture_output=True, env=env, cwd=tmp_path, timeout=60)
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr == f"error: {path.name}: {message}\n".encode()
        assert len(result.stderr) <= 200

    # A path whose repr passes 40 characters is named by its length in every
    # loader message, and a file that cannot be read by the OS's reason
    # alone, which does not repeat the path.
    @pytest.mark.parametrize("name, text, message", [
        ("x" * 5000 + ".json", None, "cannot read <{n} characters>: File name too long"),
        ("missing.json", None, "cannot read <{n} characters>: No such file or directory"),
        ("bad.json", "{ not json", "<{n} characters> is not valid JSON: "
                                   "Expecting property name enclosed in double quotes: "
                                   "line 1 column 3 (char 2)"),
        ("m.json", '{"matrix": [[1.0]]}', "<{n} characters>: non-integer matrix entry 1.0"),
        ("k.json", '{"matrix": [[2]], "arf_table": {"' + "1" * 5000 + '": 0}}',
         "<{n} characters>: arf_table key <5000 characters> is not a 1-bit mask"),
    ], ids=["too-long-to-open", "missing", "not-json", "float-entry", "long-arf-key"])
    def test_a_long_path_is_named_by_its_length(self, tmp_path, name, text, message):
        directory = tmp_path / ("d" * 50)
        directory.mkdir()
        path = directory / name
        if text is not None:
            path.write_text(text)
        result = subprocess.run([sys.executable, "-m", "framings.cli", "invariants", str(path)],
                                capture_output=True, env=source_env(), timeout=60)
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr == f"error: {message.format(n=len(str(path)))}\n".encode()
        assert len(result.stderr) <= 200

    @pytest.mark.parametrize("path, named", [("p" * 33 + ".json", "{path}"),
                                             ("p" * 34 + ".json", "<39 characters>"),
                                             ("a\nb\u2028c.json", "a\\nb\\u2028c.json")],
                             ids=["repr-40", "repr-41", "line-breaks-escaped"])
    def test_a_path_is_echoed_while_its_repr_fits_40_characters(self, capsys, monkeypatch,
                                                               tmp_path, path, named):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "invariants", path)
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {named.format(path=path)}: No such file or directory\n"

    def test_a_closed_stdout_ends_quietly(self, tmp_path):
        # The 12-component 0-framed unlink has 4096 spin structures, about
        # 1 MB of JSON: the reader closes the pipe long before the write ends.
        path = write_doc(tmp_path, {"matrix": [[0] * 12] * 12}, name="u12.json")
        env = source_env()
        with subprocess.Popen([sys.executable, "-m", "framings.cli", "invariants", path, "--json"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert (proc.wait(timeout=60), stderr) == (0, b"")

    def test_json_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "invariants", str(LINKS / "e8.json"), "--json")
        _, second, _ = run(capsys, "invariants", str(LINKS / "e8.json"), "--json")
        assert first == second

    # A 0-framed 10-component unlink (r = 10), and an even link with framings
    # 0, +-2, 4, -4, 6 whose one odd linking number leaves r = 6.  Each has
    # an Arf table, so the arf, arf_assumed and mu columns vary.
    @pytest.mark.parametrize("matrix, arf_table, r", [
        ([[0] * 10] * 10, {"1000000000": 1, "0000000011": 0, "1111111111": 1}, 10),
        ([[0, 1, 2, 0, 0, 0, 0, 0], [1, 2, 0, 0, 0, 0, 0, 0], [2, 0, -2, 0, 0, 0, 0, 0],
          [0, 0, 0, 4, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, -4, 0, 0],
          [0, 0, 0, 0, 0, 0, 2, 0], [0, 0, 0, 0, 0, 0, 0, 6]],
         {"00000001": 1, "00000011": 0, "00000111": 1}, 6),
    ], ids=["unlink10", "mixed-even"])
    def test_many_spin_rows_render_as_json_dumps_indent_2(self, capsys, tmp_path, matrix,
                                                          arf_table, r):
        path = write_doc(tmp_path, {"name": "snowman \u2603 \"q\"", "matrix": matrix,
                                    "arf_table": arf_table})
        code, out, _ = run(capsys, "invariants", path, "--json")
        payload = json.loads(out)
        rows = payload["spin_structures"]
        assert code == 0 and payload["homology"]["r"] == r
        assert len(rows) == 2 ** r
        assert all(len({row[key] for row in rows}) > 1 for key in ("arf", "arf_assumed", "mu"))
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestCanonicalCommand:
    def test_lambda_two_square(self, capsys):
        code, out, _ = run(capsys, "canonical", "--lambda", "2")
        assert code == 0
        for point in ("(-1, 0)", "(0, -2)", "(0, 2)", "(1, 0)"):
            assert point in out

    def test_lambda_zero(self, capsys):
        code, out, _ = run(capsys, "canonical", "--lambda", "0", "--json")
        assert code == 0
        assert json.loads(out)["canonical_set"] == [[0, 0]]

    def test_e8_offsets(self, capsys):
        code, out, _ = run(capsys, "canonical", str(LINKS / "e8.json"))
        assert code == 0
        assert "delta_L (9, -24) + 9 sigma + 1 rho -> (0, -2)" in out
        assert "delta_L (9, -24) + 9 sigma + 2 rho -> (0, 2)" in out

    def test_file_and_lambda_are_exclusive(self, capsys):
        code, out, err = run(capsys, "canonical", str(LINKS / "e8.json"), "--lambda", "0")
        assert code == 2 and out == ""
        assert err == "error: give exactly one of a link file and --lambda\n"

    def test_needs_a_file_or_lambda(self, capsys):
        code, out, err = run(capsys, "canonical")
        assert code == 2 and out == ""
        assert err == "error: give exactly one of a link file and --lambda\n"

    @pytest.mark.parametrize("path", sorted(LINKS.glob("*.json")), ids=lambda p: p.stem)
    def test_lambda_of_delta_is_that_of_the_empty_sublink(self, capsys, path):
        # Two routes to one lambda within one even presentation: 2d + h of
        # the boundary framing delta, and 2(1 + r) + mu at C = {}.
        code, out, _ = run(capsys, "canonical", str(path), "--json")
        assert code == 0
        canonical = json.loads(out)
        code, out, _ = run(capsys, "invariants", str(path), "--json")
        assert code == 0
        empty = [row for row in json.loads(out)["spin_structures"] if "1" not in row["bitmask"]]
        assert len(empty) == 1, "every shipped link is even"
        d, h = next(o["defect"] for o in canonical["offsets"] if o["framing"] == "delta_L")
        assert (2 * d + h) % 4 == canonical["lambda_mod4"] == empty[0]["lambda_mod4"]

    def test_odd_link_exits_3(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"matrix": [[-3]]})
        code, _, err = run(capsys, "canonical", path)
        assert code == 3 and "error:" in err


class TestQuotientCommand:
    def test_icosahedral(self, capsys):
        code, out, _ = run(capsys, "quotient", "I", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma_g"] == 722
        assert payload["defect"] == [0, -6]
        assert payload["signature_defect"] == "722/3"
        assert payload["bruteforce_abs_error"] < 1e-6

    def test_lens_canonicalization(self, capsys):
        code, out, _ = run(capsys, "quotient", "C7")
        assert code == 0
        assert "quotient framing defect H = (0, -4)" in out
        assert "+ 1 rho -> h = 0" in out

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "quotient", "Q8")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("group", ["C1000000000000", "D250001"])
    def test_order_past_the_limit_exits_2_with_one_line(self, capsys, group):
        code, out, err = run(capsys, "quotient", group)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(MAX_QUOTIENT_ORDER) in err

    # 4000 digits parse but would be echoed twice; 5000 pass the interpreter's
    # integer-parse limit.  Either is named by its digit count, in one short
    # line, as a fresh process meets it.
    @pytest.mark.parametrize("digits", [4000, 5000])
    def test_a_huge_parameter_exits_2_with_one_short_line(self, digits):
        result = subprocess.run([sys.executable, "-m", "framings.cli", "quotient",
                                 "C" + "9" * digits], capture_output=True, env=source_env(),
                                timeout=60)
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr == (f"error: group C has a parameter of {digits} digits, "
                                 f"past the order limit of {MAX_QUOTIENT_ORDER}\n").encode()
        assert len(result.stderr) <= 200

    @pytest.mark.parametrize("group, order", [("C05", 5), ("C0000000000000000000007", 7),
                                              ("D0000000000000000000000000003", 12)])
    def test_leading_zeros_still_answer(self, capsys, group, order):
        code, out, _ = run(capsys, "quotient", group, "--json")
        assert code == 0 and json.loads(out)["order"] == order

    def test_order_at_the_limit_still_answers(self, capsys):
        code, out, _ = run(capsys, "quotient", "C1000000", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == MAX_QUOTIENT_ORDER
        assert payload["defect"] == [0, 3 - MAX_QUOTIENT_ORDER]


class TestBundleCommand:
    def test_hopf(self, capsys):
        code, out, _ = run(capsys, "bundle", "--genus", "0", "--euler", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["p1"] == 5 and payload["h"] == 2

    def test_nonexistent_framing_reports_cleanly(self, capsys):
        code, out, _ = run(capsys, "bundle", "--genus", "0", "--euler", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["fiber_framing_exists"] is False
        assert payload["h"] is None and payload["p1"] is None

    def test_torus_bundle(self, capsys):
        code, out, _ = run(capsys, "bundle", "--genus", "1", "--euler", "0")
        assert code == 0
        assert "h(fiber framing) = 0" in out

    def test_negative_genus_exits_2(self, capsys):
        code, _, _ = run(capsys, "bundle", "--genus", "-1", "--euler", "1")
        assert code == 2


class TestCoverCommand:
    def test_poincare_round_trip(self, capsys):
        code, out, _ = run(capsys, "cover", "--defect", "0,-6",
                           "--degree", "120", "--sigma-pi", "722/3")
        assert code == 0
        assert "(0, -6) -> (0, 2)" in out

    def test_non_integral_exits_3(self, capsys):
        code, _, err = run(capsys, "cover", "--defect", "0,0",
                           "--degree", "1", "--sigma-pi", "1/2")
        assert code == 3

    @pytest.mark.parametrize("sigma_pi", ["1e200000", "1e999999999", "0.5", "1_0", "\u0661\u0662"])
    def test_sigma_pi_outside_integer_or_ratio_exits_2_with_one_line(self, capsys, sigma_pi):
        code, out, err = run(capsys, "cover", "--defect", "0,0", "--degree", "1",
                             "--sigma-pi", sigma_pi)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no integer-to-text limit")
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_result_beyond_the_print_limit_exits_2_with_one_line(self, capsys, json_flag):
        code, out, err = run(capsys, "cover", "--defect", "0," + "7" * 4000,
                             "--degree", "9" * 4000, *json_flag)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_flag_values_exit_2(self, capsys):
        assert run(capsys, "cover", "--defect", "nope", "--degree", "2",
                   "--sigma-pi", "0")[0] == 2
        assert run(capsys, "cover", "--defect", "0,0", "--degree", "0",
                   "--sigma-pi", "0")[0] == 2
        assert run(capsys, "cover", "--defect", "0,0", "--degree", "2",
                   "--sigma-pi", "x")[0] == 2


class TestCatalogCommand:
    def test_all_entries_verify(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "FAIL" not in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "catalog", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"] is True
        assert all(entry["ok"] for entry in payload["entries"])

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_a_fail_row_exits_1(self, capsys, monkeypatch, json_flag):
        stale = CatalogEntry("stale.value", "a value that no longer recomputes", 1, 2)
        monkeypatch.setattr(catalog, "build_catalog", lambda: [stale])
        code, out, err = run(capsys, "catalog", *json_flag)
        assert (code, err) == (1, "")
        if json_flag:
            assert json.loads(out)["all_ok"] is False
        else:
            assert out == ("FAIL stale.value: a value that no longer recomputes = 1\n"
                           "0/1 entries verified\n")


def _golden_cases():
    """(golden file stem, argv) for every captured output; each runs once
    with --json against <stem>.json and once without against <stem>.txt."""
    cases = [(f"{path.stem}.{command}", [command, str(path)])
             for path in sorted(LINKS.glob("*.json"))
             for command in ("invariants", "canonical")]
    cases += [(f"lambda{lam}.canonical", ["canonical", "--lambda", str(lam)])
              for lam in (-1, 0, 1, 2)]
    cases += [(f"{group}.quotient", ["quotient", group])
              for group in ("C1", "C7", "C12", "D3", "T", "O", "I")]
    cases += [(f"genus{genus}-euler{euler}.bundle",
               ["bundle", "--genus", str(genus), "--euler", str(euler)])
              for genus, euler in ((0, 1), (0, 3), (1, 0), (3, -2))]
    cases += [("poincare.cover", ["cover", "--defect", "0,-6", "--degree", "120",
                                  "--sigma-pi", "722/3"]),
              ("degree5.cover", ["cover", "--defect", "2,3", "--degree", "5"]),
              ("all.catalog", ["catalog"])]
    return [pytest.param(argv + ["--json"], f"{stem}.json", id=stem.replace(".", "-"))
            for stem, argv in cases] + [
            pytest.param(argv, f"{stem}.txt", id=stem.replace(".", "-") + "-text")
            for stem, argv in cases]


_text = st.lists(st.characters() | st.characters(categories=["Cs"])
                 | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\U0001f600"])
                 ).map("".join)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2 ** 64, 2 ** 200).map(lambda n: -n)
    | st.integers(2 ** 64, 2 ** 200) | st.floats() | st.sampled_from([-0.0, float("nan")]) | _text,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=400)
@given(_json_values)
def test_json_renderer_is_json_dumps_indent_2(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@st.composite
def _like_dicts(draw):
    """A payload whose dicts share one key set: rows inserted in different
    orders, a key's value type differing from row to row, empty dict and
    list rows among them, and the same shape again deeper down."""
    keys = draw(st.lists(_text | st.sampled_from(["%", "%s", "%%d", "a"]),
                         min_size=1, max_size=5, unique=True))
    values = (st.none() | st.integers() | st.booleans() | _text | st.floats()
              | st.lists(st.integers(), max_size=2)
              | st.dictionaries(_text, st.booleans(), max_size=2))

    def row():
        return {k: draw(values) for k in draw(st.permutations(keys))}

    rows = [row() for _ in range(draw(st.integers(1, 6)))]
    rows += draw(st.lists(st.sampled_from([{}, [], ()]), max_size=3))
    deeper = row()
    deeper[keys[0]] = [row(), {"again": row()}]
    return {"rows": draw(st.permutations(rows)), "deeper": [deeper, row()]}


@settings(max_examples=200)
@given(_like_dicts())
def test_json_renderer_reuses_dict_shapes_byte_for_byte(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, {"rows": [{"x": Fraction(1, 3)}]},
                                   {"rows": [{"x": 1}] * 8 + [{"x": Fraction(1, 3)}]}],
                         ids=["fraction", "set", "nested", "like-dicts"])
def test_json_renderer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._dumps(value)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python has no integer-to-text limit")
@pytest.mark.parametrize("wrap", [lambda n: n, lambda n: [0, -n], lambda n: {"k": {"n": n}},
                                  lambda n: {"rows": [{"n": 1, "s": "a"}] * 8 + [{"n": n, "s": "b"}]}],
                         ids=["bare", "list", "dict", "like-dicts"])
def test_json_renderer_raises_value_error_past_the_print_limit(wrap):
    # main turns this ValueError into exit 2 with one line on stderr.
    with pytest.raises(ValueError):
        cli._dumps(wrap(10 ** sys.get_int_max_str_digits()))


class _Dict(dict):
    pass


class _List(list):
    pass


class _Pair(NamedTuple):
    left: object
    right: object


class _Small(IntEnum):
    ZERO = 0
    ONE = 1


class _Str(str):
    pass


_subclassed = (st.builds(_Dict, st.dictionaries(_text, st.integers(), max_size=2))
               | st.builds(_List, st.lists(st.integers(), max_size=2))
               | st.builds(_Pair, st.integers(), _text)
               | st.sampled_from(_Small) | st.builds(_Str, _text))
# What one column may hold: one exact type, bools beside ints, subclasses
# beside their bases, several types at once, arrays, and like dicts.
_cells = st.sampled_from([
    st.integers(), _text, st.none() | st.booleans(), st.integers(-2, 2) | st.booleans(),
    st.none() | st.integers() | st.floats() | _text, _subclassed, st.integers() | _subclassed,
    _text | _subclassed, st.lists(st.integers(), max_size=3) | st.tuples(st.integers()),
    st.fixed_dictionaries({"a": st.integers(), "b": st.booleans() | st.integers()}),
    st.just({}) | st.just([]) | st.just(()),
])


_COLUMN = st.integers(cli._COLUMN_MIN - 1, cli._COLUMN_MIN + 2)  # short of a column, and long enough


@st.composite
def _columns(draw):
    """Arrays whose items render as one column: like dicts (a column of
    each key's values), arrays of arrays with empty ones and tuples among
    them, arrays of {} and loose items of several types."""
    keys = draw(st.lists(_text | st.sampled_from(["%", "a"]), min_size=1, max_size=4, unique=True))
    row = st.fixed_dictionaries({k: draw(_cells) for k in keys})
    cell = draw(_cells)
    array = (st.lists(cell, max_size=2) | st.tuples(cell, cell)
             | st.builds(_List, st.lists(cell, max_size=2)) | st.sampled_from([[], ()]))

    def column(items):
        size = draw(_COLUMN)
        return draw(st.lists(items, min_size=size, max_size=size))

    return {"like": column(row), "arrays": column(array), "deeper": column(st.lists(array, max_size=2)),
            "empty_dicts": column(st.just({})),
            "loose": column(_cells.flatmap(lambda cells: cells))}


@settings(max_examples=100)
@given(_columns())
def test_json_renderer_renders_columns_byte_for_byte(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


# Each array is cli._COLUMN_MIN items or more, so it renders as one column.
@pytest.mark.parametrize("value", [
    [{}] * 8, [[], [1, 2], [], (3,), ()] * 2, [[[], [0]], [[]]] * 4, [1, True, False, 0, None] * 2,
    [{"a": 1}, {"a": True}] * 4, [_Small.ONE, 1] * 4, [_Str("x"), "y"] * 4,
    [_List([1]), [2]] * 4, [_Pair(1, 2), (3, 4)] * 4, [_Dict(a=1), {"a": 2}] * 4,
    [{"k": _Dict()}, {"k": {}}] * 4, {"a": True, "b": _Small.ONE, "c": [0, 1]},
], ids=["empty-dicts", "empty-arrays", "nested-empty-arrays", "bool-beside-int",
        "bool-beside-int-in-like-dicts", "int-enum", "str-subclass", "list-subclass",
        "named-tuple", "dict-subclass", "empty-dict-subclass", "lone-dict"])
def test_json_renderer_renders_edge_columns_byte_for_byte(value):
    assert isinstance(value, dict) or len(value) >= cli._COLUMN_MIN
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv, golden", _golden_cases())
def test_json_matches_golden_output(capsys, argv, golden):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_argparse_rejects_unknown_subcommands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.count("\n") == 1


USAGE_ERRORS = [
    ["cover", "--defect", "0,0", "--degree", "1x"],
    ["cover", "--defect", "0,0", "--degree", "9" * 5000],
    ["quotient"],
    # One ASCII integer grammar: no '_' separators, no non-ASCII digits.
    ["cover", "--defect", "1_0,2", "--degree", "1"],
    ["cover", "--defect", "0,0", "--degree", "1_0"],
    ["bundle", "--genus", "1_0", "--euler", "1"],
    ["bundle", "--genus", "0", "--euler", "\u0662"],
    ["canonical", "--lambda", "1_0"],
    ["quotient", "C\u0661\u0662"],
    # argparse echoes these tokens as they are; their line breaks are escaped.
    ["quotient", "C7", "a\nb\u2028c"],
    ["cover", "--de=\r\n", "--degree", "1"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS,
                         ids=["bad-int", "int-past-the-parse-limit", "missing-positional",
                              "defect-underscore", "degree-underscore", "genus-underscore",
                              "euler-arabic-indic", "lambda-underscore", "group-arabic-indic",
                              "unknown-token-line-breaks", "ambiguous-option-line-breaks"])
def test_usage_errors_exit_2_with_one_line(capsys, argv):
    # argparse refuses most of these by SystemExit; --defect and the group
    # are read by the command, which returns 2.
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert captured.err.endswith("\n")


_PARSE_LIMIT = pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                                  reason="this Python parses integers of any length")


# A value whose repr passes 40 characters is named by its length, not
# echoed.  5000 digits pass the interpreter's integer-parse limit; values
# that end in "x" fail the grammar on any Python.
@pytest.mark.parametrize("argv, named", [
    pytest.param(["cover", "--defect", "0,1", "--degree", "9" * 5000],
                 "argument --degree: invalid integer value: <5000 characters>",
                 marks=_PARSE_LIMIT, id="degree"),
    pytest.param(["bundle", "--genus", "9" * 5000, "--euler", "1"],
                 "argument --genus: invalid integer value: <5000 characters>",
                 marks=_PARSE_LIMIT, id="genus"),
    pytest.param(["bundle", "--genus", "0", "--euler", "-" + "9" * 5000],
                 "argument --euler: invalid integer value: <5001 characters>",
                 marks=_PARSE_LIMIT, id="euler"),
    pytest.param(["canonical", "--lambda", "9" * 5000],
                 "argument --lambda: invalid integer value: <5000 characters>",
                 marks=_PARSE_LIMIT, id="lambda"),
    pytest.param(["cover", "--defect", "0," + "9" * 5000, "--degree", "1"],
                 "--defect must look like 'd,h', got <5002 characters>",
                 marks=_PARSE_LIMIT, id="defect"),
    pytest.param(["cover", "--defect", "0,0", "--degree", "1", "--sigma-pi", "9" * 5000],
                 "--sigma-pi must be an integer or p/q, got <5000 characters>",
                 marks=_PARSE_LIMIT, id="sigma-pi"),
    pytest.param(["cover", "--defect", "0,0", "--degree", "9" * 4999 + "x"],
                 "argument --degree: invalid integer value: <5000 characters>",
                 id="degree-not-an-integer"),
    pytest.param(["cover", "--defect", "x" * 5000, "--degree", "1"],
                 "--defect must look like 'd,h', got <5000 characters>",
                 id="defect-not-a-pair"),
    pytest.param(["cover", "--defect", "0,0", "--degree", "1", "--sigma-pi", "9" * 4999 + "x"],
                 "--sigma-pi must be an integer or p/q, got <5000 characters>",
                 id="sigma-pi-not-a-ratio"),
    pytest.param(["quotient", "C" + "x" * 5000],
                 "bad group spec <5001 characters>; expected C<m>, D<m>, T, O or I",
                 id="group"),
])
def test_an_over_long_value_exits_2_with_one_short_line(argv, named):
    result = subprocess.run([sys.executable, "-m", "framings.cli", *argv],
                            capture_output=True, env=source_env(), timeout=60)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == f"error: {named}\n".encode()
    assert len(result.stderr) <= 200


@pytest.mark.parametrize("argv, named", [
    (["cover", "--defect", "0,0", "--degree", "9" * 37 + "x"],
     "argument --degree: invalid integer value: '" + "9" * 37 + "x'"),
    (["cover", "--defect", "0,0", "--degree", "9" * 38 + "x"],
     "argument --degree: invalid integer value: <39 characters>"),
    (["cover", "--defect", "0," + "x" * 36, "--degree", "1"],
     "--defect must look like 'd,h', got '0," + "x" * 36 + "'"),
    (["cover", "--defect", "0," + "x" * 37, "--degree", "1"],
     "--defect must look like 'd,h', got <39 characters>"),
    (["quotient", "Q" * 38], "bad group spec '" + "Q" * 38 + "'; expected C<m>, D<m>, T, O or I"),
    (["quotient", "Q" * 39], "bad group spec <39 characters>; expected C<m>, D<m>, T, O or I"),
], ids=["degree-40", "degree-41", "defect-40", "defect-41", "group-40", "group-41"])
def test_a_value_is_echoed_while_its_repr_fits_40_characters(capsys, argv, named):
    assert outcome(capsys, argv) == (2, "", f"error: {named}\n")


@pytest.mark.parametrize("argv", [[], ["quotient"]], ids=["top", "quotient"])
def test_help_still_prints_the_usage(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: framings")


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _NothingIsACommand(dict):
    """The command table with no name found in it, so that main parses every
    argv with the whole tree from build_parser()."""

    def __contains__(self, name):
        return False


COMMANDS = ["invariants", "canonical", "quotient", "bundle", "cover", "catalog"]


@pytest.mark.parametrize("argv", [p.values[0] for p in _golden_cases()]
                         + [[command, flag] for command in COMMANDS for flag in ("--help", "-h")]
                         + [["--help"], [], ["frobnicate"], ["--json", "quotient", "C7"],
                            ["--version"], ["quotient", "C7", "extra"], ["quotient", "--", "C7"],
                            ["bundle", "--gen", "1", "--euler", "0"]]
                         + USAGE_ERRORS)
def test_one_subparser_answers_as_the_whole_tree(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    direct = outcome(capsys, argv)
    commands = cli._commands
    monkeypatch.setattr(cli, "_commands", lambda: _NothingIsACommand(commands()))
    assert outcome(capsys, argv) == direct


def test_the_command_table_is_the_help_list(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert list(cli._commands()) == COMMANDS
    assert "{" + ",".join(COMMANDS) + "}" in outcome(capsys, ["--help"])[1]


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["framings", "quotient", "C7", "--json"])
    assert main() == 0
    assert capsys.readouterr().out == (GOLDEN / "C7.quotient.json").read_text(encoding="utf-8")


def test_version_prints_the_package_version(capsys):
    assert outcome(capsys, ["--version"]) == (0, f"framings {__version__}\n", "")


def test_package_version_is_the_pyproject_version():
    pyproject = (LINKS.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert __version__ == re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)


@pytest.mark.parametrize("genus, euler", [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, -2)])
def test_bundle_checks_the_genus_and_the_divisibility_once(capsys, monkeypatch, genus, euler):
    # fiber_framing is the one place that checks both.
    calls = Counter()

    def counted(bundle, real=bundles.fiber_framing):
        calls["fiber_framing"] += 1
        return real(bundle)

    monkeypatch.setattr(bundles, "fiber_framing", counted)
    assert run(capsys, "bundle", "--genus", str(genus), "--euler", str(euler))[0] == 0
    assert calls == {"fiber_framing": 1}


def test_importing_the_cli_loads_no_dataclasses_inspect_or_ast():
    # Each of these modules costs a fresh process milliseconds to import.
    env = source_env()
    check = ("import sys, framings.cli; "
             "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                            env=env, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
