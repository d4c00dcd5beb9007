"""Smoke test of the benchmark at tiny sizes; nothing here is timing-gated.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(name: str, trace: bool, seed: int = 7) -> tuple[dict, dict]:
    return run.run(name, seed, 0.05, trace, workloads.TINY)


def test_workloads_are_the_declared_ones():
    assert sorted(NAMES) == sorted(workloads.GENERATORS)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_is_correct_and_complete(name):
    line, report = _run(name, trace=False)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert report["error_rate"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert sum(report["descriptors"]["command_share"].values()) == pytest.approx(1)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(name):
    line, report = _run(name, trace=True)
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["cli.main.calls_per_op"] == 1
    assert sum(v for k, v in values.items() if k.endswith(".self_share")) == pytest.approx(1)
    # The exact counts of the current code: 2 + 2^r signatures, 2 Smith forms.
    for check in report["exact_counts"].values():
        done, total = check.split("/")
        assert done == total
    assert (run.ROOT / report["spans_file"]).is_file()


def test_counts_and_digest_repeat_for_a_seed():
    first_line, first = _run("big_presentations", trace=True)
    second_line, second = _run("big_presentations", trace=True)
    counts = [{k: v["value"] for k, v in line["metrics"].items() if k.endswith("calls_per_op")}
              for line in (first_line, second_line)]
    assert counts[0] == counts[1]
    assert first["digest"] == second["digest"]
    assert _run("big_presentations", trace=True, seed=8)[1]["digest"] != first["digest"]


def test_a_wrong_expectation_shows_in_the_error_rate(monkeypatch):
    true_facts = oracle.link_facts

    def off_by_one(q):
        facts = true_facts(q)
        return dict(facts, sigma=facts["sigma"] + 1)

    monkeypatch.setattr(oracle, "link_facts", off_by_one)
    line, report = _run("spin_enum", trace=False)
    assert not line["correct"]
    assert line["failed"] == line["attempted"]
    assert report["error_rate"] == 1
    assert any("sigma" in note for note in report["failures"])


def test_compare_merges_the_untraced_and_traced_runs_of_a_seed(tmp_path):
    for name, metric in (("untraced", "ops_per_s"), ("traced", "trace_overhead")):
        report = {"report": {"workload": "w", "seed": 3}}
        line = {"metrics": {metric: {"value": 1.5, "unit": "x"}}}
        (tmp_path / name).write_text(f"{json.dumps(report)}\n{json.dumps(line)}\n")
    assert compare.load(str(tmp_path)) == {"w": {3: {"ops_per_s": 1.5, "trace_overhead": 1.5}}}


def test_oracle_signature_matches_known_forms():
    e8 = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)):
        e8[i][j] = e8[j][i] = 1
    assert oracle.link_facts(e8) == {"n": 8, "chi": 9, "sigma": 8, "tau": 16, "betti1": 0,
                                     "det": 1, "r": 0, "even": True}
    hyperbolic = oracle.link_facts([[0, 1], [1, 0]])
    assert (hyperbolic["sigma"], hyperbolic["det"], hyperbolic["r"]) == (0, -1, 0)
    unlink = oracle.link_facts([[0, 0, 0]] * 3)
    assert (unlink["sigma"], unlink["betti1"], unlink["r"]) == (0, 3, 3)


def test_refuses_to_run_without_the_sources():
    bare = run.ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", NAMES[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
