"""Benchmark of the `framings` CLI, driven the way a user drives it.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository is found from this file's location and
the library is imported from its `src/`. Scratch files go under
`.bench_build/perfbench/` in the repository and are removed afterwards,
except the span file of a traced run.

With `--trace 0` the last line of stdout carries the end-to-end metrics
of BENCHMARK.json, measured with tracing off. With `--trace 1` it carries
the per-layer metrics: one pass set runs untraced, one traced, and the
ratio of their mean latencies is `trace_overhead`. Every output is checked
against `oracle.py` outside the timed region; the line before the last is
a report with the determinism digest, the error rate, sample counts,
the unscaled times, the repeat-over-first latency ratio and the input
descriptors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh interpreters timed for setup_s; the median of this many holds to
# within a tenth on a busy two-core machine. Each child times the import,
# then the calibration kernel, which the import has not warmed.
SETUP_REPEATS = 15
SETUP_CODE = ("import sys, time\n"
              "t = time.perf_counter()\n"
              "import framings.cli\n"
              "t = time.perf_counter() - t\n"
              "sys.path.insert(0, {here!r})\n"
              "import calibrate\n"
              "print(t, calibrate.scale([calibrate.kernel_ms() for _ in range(3)]))\n")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup() -> tuple[float, float]:
    """Median time a fresh interpreter takes to import framings.cli, in
    reference time and unscaled. The first, untimed interpreter warms the
    bytecode cache."""
    code = SETUP_CODE.format(here=str(HERE))
    times = []
    for k in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True).stdout
        seconds, factor = map(float, out.split())
        if k:
            times.append((seconds * factor, seconds))
    return (statistics.median(t for t, _ in times), statistics.median(t for _, t in times))


def run_worker(work: Path, tag: str, job: dict, timeout: float) -> dict:
    job_path, result_path = work / f"{tag}.job.json", work / f"{tag}.result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path),
                           str(result_path)], env=_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode:
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["outputs"] = {int(k): v for k, v in result["outputs"].items()}
    return result


def prepare(ops: list[dict], work: Path) -> list[list[str]]:
    """Write the link documents and return each operation's argv."""
    argvs = []
    for op in ops:
        if "doc" in op:
            path = work / f"{op['doc']['name']}.json"
            if not path.exists():
                path.write_text(json.dumps(op["doc"]), encoding="utf-8")
            op["argv"] = [op["kind"], str(path)]
        argvs.append(op["argv"] + ["--json"])
    return argvs


def count_failures(ops: list[dict], result: dict, problems: dict[int, list[str]],
                   reference: dict[int, str] | None = None) -> tuple[int, list[str]]:
    """Failed operations in one worker result, and a few sample messages.

    An operation fails on an exception, a nonzero exit, an output unlike
    its first run (or unlike `reference`), or an output the oracle rejects.
    """
    for idx, text in result["outputs"].items():
        if idx not in problems:
            problems[idx] = oracle.check(ops[idx], text)
        if reference is not None and reference.get(idx) != text:
            problems[idx] = problems[idx] + ["output differs between runs"]
    failed, notes = 0, []
    for idx, _, status, _ in result["records"]:
        if status != 0 or problems[idx]:
            failed += 1
            if len(notes) < 5:
                notes.append(f"op {idx} {ops[idx]['argv'][:2]}: status {status!r}, "
                             f"{problems[idx][:2]}")
    return failed, notes


def digest(result: dict) -> str:
    outputs = result["outputs"]
    h = hashlib.sha256()
    for idx in sorted(outputs):
        h.update(outputs[idx].encode("utf-8"))
    return h.hexdigest()


def descriptors(ops: list[dict], result: dict) -> dict:
    """What the timed operations looked like, for quoting shares later."""
    executed = [ops[idx] for idx, *_ in result["records"]]
    links = [op for op in executed if "n" in op]
    commands = Counter(op["argv"][0] for op in executed)
    r_hist = Counter(op["facts"]["r"] for op in executed if op["kind"] == "invariants")
    out_bytes = sum(len(result["outputs"][idx]) for idx, *_ in result["records"])
    return {
        "pool_size": len(ops),
        "n_mean": statistics.fmean(op["n"] for op in links) if links else None,
        "n_max": max((op["n"] for op in links), default=None),
        "r_histogram": {str(r): c for r, c in sorted(r_hist.items())},
        "total_group_order": sum(op.get("order", 0) for op in executed),
        "json_bytes": out_bytes,
        "json_bytes_per_op": out_bytes / len(executed),
        "command_share": {c: k / len(executed) for c, k in sorted(commands.items())},
    }


def latency_stats(result: dict, scaled: bool = True) -> dict:
    """Throughput and latency percentiles, in reference time unless
    scaled is false."""
    ms = [ns / 1e6 * (factor if scaled else 1) for _, ns, _, factor in result["records"]]
    busy_s = sum(ms) / 1e3
    return {"samples": len(ms), "busy_s": busy_s, "ops_per_s": len(ms) / busy_s,
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8]
            if len(ms) > 1 else ms[0]}


def repeat_over_first(result: dict) -> float | None:
    """Median over pool entries of (median latency of its repeats) / (its
    first latency), in reference time; None when no entry ran twice.

    Each CLI invocation is a fresh process, so a memo kept across calls
    would speed up the repeats here and never a user's call: such a change
    shows as this ratio falling below its value on the parent.
    """
    runs: dict[int, list[float]] = {}
    for idx, ns, _, factor in result["records"]:
        runs.setdefault(idx, []).append(ns * factor)
    ratios = [statistics.median(t[1:]) / t[0] for t in runs.values() if len(t) > 1]
    return statistics.median(ratios) if ratios else None


def layer_metrics(ops: list[dict], traced: dict, plain: dict) -> tuple[dict, dict]:
    """Per-function and per-layer numbers of a traced run, and a report of
    the exact call counts on `invariants` operations."""
    summary = traced["trace"]
    n_ops = len(traced["records"])
    to_ms_per_op = statistics.median(r[3] for r in traced["records"]) / n_ops / 1e6
    metrics: dict[str, float] = {}
    layer_ns: Counter = Counter()
    for name, calls in summary["calls"].items():
        self_ns = summary["self_ns"][name]
        metrics[f"{name}.calls_per_op"] = calls / n_ops
        metrics[f"{name}.self_ms_per_op"] = self_ns * to_ms_per_op
        layer_ns[name.split(".")[0]] += self_ns
    total_ns = sum(layer_ns.values())
    for layer, ns in layer_ns.items():
        metrics[f"{layer}.self_ms_per_op"] = ns * to_ms_per_op
        metrics[f"{layer}.self_share"] = ns / total_ns
    metrics["trace_overhead"] = (latency_stats(plain)["ops_per_s"]
                                 / latency_stats(traced)["ops_per_s"])
    matches = Counter()
    invariants = [idx for idx, op in enumerate(ops) if op["kind"] == "invariants"]
    for idx in invariants:
        counts = summary["per_op"][str(idx)]
        r = ops[idx]["facts"]["r"]
        matches["exact_signature == 2 + 2^r"] += counts.get("exactmath.exact_signature") == 2 + 2 ** r
        matches["smith_normal_form == 2"] += counts.get("exactmath.smith_normal_form") == 2
    counts_report = {k: f"{v}/{len(invariants)}" for k, v in matches.items()}
    return metrics, counts_report


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: workloads.Sizes = workloads.FULL) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, report)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base = ROOT / ".bench_build" / "perfbench"
    work = base / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(workload, seed, sizes)
        argvs = prepare(ops, work)
        timeout = seconds + 60  # per worker; a run ends within 180 s
        report: dict = {"workload": workload, "seed": seed}
        problems: dict[int, list[str]] = {}
        if not trace:
            setup_s, report["setup_s_unscaled"] = measure_setup()
            timed = run_worker(work, "timed",
                               {"ops": argvs, "seconds": seconds, "trace": False}, timeout)
            failed, notes = count_failures(ops, timed, problems)
            stats = latency_stats(timed)
            values = dict(stats, setup_s=setup_s, peak_rss_mb=timed["maxrss_kb"] / 1024)
            wanted = spec["end_to_end"]
            runs = [timed]
        else:
            half = {"ops": argvs, "seconds": seconds / 2}
            plain = run_worker(work, "plain", dict(half, trace=False), timeout)
            spans_path = base / f"spans-{workload}-{seed}.jsonl"
            traced = run_worker(work, "traced",
                                dict(half, trace=True, spans_path=str(spans_path)), timeout)
            failed_plain, notes = count_failures(ops, plain, problems)
            failed_traced, more = count_failures(ops, traced, problems, plain["outputs"])
            failed, notes = failed_plain + failed_traced, notes + more
            values, report["exact_counts"] = layer_metrics(ops, traced, plain)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
            stats = latency_stats(traced)
            wanted = spec["per_layer"]
            runs = [plain, traced]
        attempted = sum(len(r["records"]) for r in runs)
        report.update({
            "digest": digest(runs[0]),
            "error_rate": failed / attempted,
            "failures": notes,
            "latency_samples": stats["samples"],
            "busy_s": stats["busy_s"],
            "unscaled": {k: v for k, v in latency_stats(runs[-1], scaled=False).items()
                         if k.startswith(("ops", "latency"))},
            "repeat_over_first": repeat_over_first(runs[0]),
            "descriptors": descriptors(ops, runs[0]),
        })
        if trace:
            report["all_layer_metrics"] = values
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in wanted}
        line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
        return line, report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "framings" / "cli.py").is_file():
        print(f"error: no framings sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    line, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
