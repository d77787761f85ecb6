"""One pass of a workload in a fresh interpreter.

Reads a job from stdin: {"queries": [...], "traced": bool, "pass_id": int,
"plant": index or null, "spans_path": path or null}. Imports the library,
prepares every query's inputs, then runs the queries as a closed loop, one
at a time, timing each call. Outputs are checked against the references
only after the last query, so checking costs neither latency nor wall time.
Writes one JSON report to stdout.

Between queries, about every REF_EVERY_S seconds of query time, the pass
times the reference kernel (``refkernel.py``). Each query is reported with
the mean of the kernel times just before and just after the stretch it ran
in, so its latency can be given in units of the host's speed at that moment.
"""

import gc
import json
import resource
import sys
import time
import traceback

import refkernel

REF_EVERY_S = 0.25
REF_ROUNDS = 3


def time_reference():
    """Median seconds per kernel round over REF_ROUNDS, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return sorted(refkernel.one_round() for _ in range(REF_ROUNDS))[REF_ROUNDS // 2]
    finally:
        if enabled:
            gc.enable()


def main():
    job = json.load(sys.stdin)
    import reflectron  # noqa: F401  (the import is part of set-up)
    import numpy as np

    from queries import KINDS, Checker

    tracer = None
    if job["traced"]:
        from tracer import Tracer

        tracer = Tracer(job["pass_id"])
        tracer.install()

    items = job["queries"]
    inputs = [KINDS[q["kind"]][0](q) if KINDS[q["kind"]][0] else None for q in items]
    outputs, errors, latencies = [None] * len(items), {}, []
    clock = time.perf_counter
    ref_times, ref_after = [], []  # kernel seconds, and how many queries had run by then
    ref_spent = 0.0

    def take_reference(done):
        nonlocal ref_spent
        start = clock()
        ref_times.append(time_reference())
        ref_after.append(done)
        ref_spent += clock() - start

    t_first = clock()
    take_reference(0)
    since = 0.0
    for i, q in enumerate(items):
        run = KINDS[q["kind"]][1]
        start = clock()
        try:
            outputs[i] = run(q, inputs[i])
        except Exception as exc:  # a failing query is counted, never fatal
            errors[i] = [f"{type(exc).__name__}: {exc}"[:300]]
        latencies.append(clock() - start)
        since += latencies[-1]
        if since >= REF_EVERY_S or i + 1 == len(items):
            take_reference(i + 1)
            since = 0.0
    t_end = clock()
    query_ref = []
    for k in range(1, len(ref_times)):
        mean = (ref_times[k - 1] + ref_times[k]) / 2.0
        query_ref += [mean] * (ref_after[k] - ref_after[k - 1])

    for i, q in enumerate(items):
        if i in errors:
            continue
        checker = Checker(planted=(i == job["plant"]))
        try:
            KINDS[q["kind"]][2](q, inputs[i], outputs[i], checker)
        except Exception:
            checker.errors.append("check raised: " + traceback.format_exc(limit=3)[-300:])
        if checker.errors:
            errors[i] = checker.errors

    report = {
        "t_first": t_first,
        "t_end": t_end,
        "ref_spent": ref_spent,
        "latencies": latencies,
        "query_ref": query_ref,
        "failures": [[i, items[i]["kind"], msgs] for i, msgs in sorted(errors.items())],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas": _blas(np),
    }
    if tracer is not None:
        report["layer_metrics"], report["functions"] = tracer.summary()
        if job["spans_path"]:
            tracer.write(job["spans_path"])
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")


def _blas(np):
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except Exception:  # numpy builds differ in what they report
        return "unknown"


if __name__ == "__main__":
    main()
