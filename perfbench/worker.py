"""Closed-loop client: one process, one thread, one operation at a time.

Usage: worker.py JOB.json RESULT.json

The job names the operation pool (a list of argv), how long to run, and
whether to trace. Each operation is one in-process call to
`framings.cli.main(argv)` with stdout captured; the latency is the time
of that call alone. The loop runs whole passes over the pool until the
time is up, so every input is run and checked, every run sees the same
mix of operations, and per-operation counts repeat exactly.

Before each operation the cyclic garbage collector is emptied and what
survives is frozen out of its view, so every operation starts from the
same collector state, as it would in a fresh CLI process, and does not
pay for garbage an earlier one left. Every CALIBRATE_EVERY_S, between
operations, the calibration kernel is timed (see calibrate.py); each
operation's scale factor comes from the two kernel times before it and
the two after it.

The result holds, per operation in the order run, the pool index, the
latency in ns, the exit status and the scale factor; the first output of
each pool entry; and `ru_maxrss` of this process. A later output that
differs from the first is marked, which is how every repeat gets checked.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
from bisect import bisect_right
from time import perf_counter, perf_counter_ns

import calibrate

CALIBRATE_EVERY_S = 0.05


def run(job: dict) -> dict:
    from framings import cli

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    pool = job["ops"]
    budget = job["seconds"]
    outputs: dict[int, str] = {}
    records = []
    cal_at: list[int] = []  # number of operations done before each kernel run
    cal_ms: list[float] = []
    start = last_cal = perf_counter()
    i = 0
    while True:
        if not cal_at or perf_counter() - last_cal >= CALIBRATE_EVERY_S:
            cal_at.append(i)
            cal_ms.append(calibrate.kernel_ms())
            last_cal = perf_counter()
        idx = i % len(pool)
        gc.collect()
        gc.freeze()  # survivors are kept for good; later collections skip them
        if tracer is not None:
            tracer.op = i
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter_ns()
            try:
                status = cli.main(pool[idx])
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # a failed operation, counted, not fatal
                status = repr(exc)
            t1 = perf_counter_ns()
        text = buf.getvalue()
        if idx not in outputs:
            outputs[idx] = text
        elif text != outputs[idx]:
            status = "output differs from the first run of this input"
        records.append([idx, t1 - t0, status])
        i += 1
        if i % len(pool) == 0 and perf_counter() - start >= budget:
            break
    cal_at.append(i)
    cal_ms.append(calibrate.kernel_ms())
    for j, record in enumerate(records):
        k = bisect_right(cal_at, j)
        record.append(calibrate.scale(cal_ms[max(0, k - 2):k + 2]))
    result = {"records": records, "outputs": outputs,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = tracer.summary(len(pool))
        tracer.dump(job["spans_path"])
    return result


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    with open(job_path, encoding="utf-8") as f:
        job = json.load(f)
    result = run(job)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
