"""Compare two sets of saved benchmark runs, parent against change.

Usage: python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the stdout of `run.py` runs, one file per run;
other files are skipped. Runs are grouped by the workload named in their
report line and paired by seed. For every workload and metric the table
shows each side's median and quartile spread (as a share of the median),
the change of the median, and a verdict:

- `worse`: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- `gain`: the change wins at least 9 in 10 seed pairs and the medians
  differ by more than the parent's quartile spread;
- `unresolved`: the parent's own spread is wider than the bound;
- `same` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> metric -> value."""
    runs: dict = defaultdict(dict)
    for path in sorted(Path(directory).iterdir()):
        lines = path.read_text(encoding="utf-8").splitlines()
        try:
            report, line = json.loads(lines[-2])["report"], json.loads(lines[-1])
        except (IndexError, KeyError, TypeError, json.JSONDecodeError):
            continue  # not the stdout of a finished run
        runs[report["workload"]].setdefault(report["seed"], {}).update(
            {k: v["value"] for k, v in line["metrics"].items()})
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    """Median and quartile distance as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv: list[str]) -> int:
    parent, change = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':18} {'metric':44} {'parent':>12} {'iqr':>6} {'change':>12} "
          f"{'iqr':>6} {'delta':>7}  verdict")
    for workload in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[workload].keys() & change[workload].keys())
        names = sorted(set.intersection(*(set(parent[workload][s]) for s in seeds)))
        for name in names:
            if name not in metrics:
                continue
            m = metrics[name]
            a = [parent[workload][s][name] for s in seeds]
            b = [change[workload][s][name] for s in seeds]
            (ma, sa), (mb, sb) = spread(a), spread(b)
            sign = 1 if m["better"] == "higher" else -1
            delta = (mb - ma) / ma if ma else 0.0
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            bound = m.get("bound")
            if bound is not None and -sign * delta > bound:
                verdict = "worse"
            elif wins >= 0.9 * len(seeds) and abs(mb - ma) > sa * ma:
                verdict = "gain"
            elif bound is not None and sa > bound:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"{workload:18} {name:44} {ma:12.5g} {sa:6.3f} {mb:12.5g} {sb:6.3f} "
                  f"{delta:+7.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
