"""Benchmark of the reflectron library.

Run from the repository root:

    python3 bench/run.py --workload covariant-sweep --seed 1 --seconds 44 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 44 --trace 1

Each pass runs a workload's whole query list in a fresh interpreter (see
``passrun.py``), so imports and library caches start cold as for a CLI user.
Passes repeat until ``--seconds`` is used up. Between queries a pass times
a fixed reference kernel (``refkernel.py``), and each query's latency is
reported in units of the kernel's time around it ("ref"); set-up time is
converted the same way, at 1 ref = REF_NOMINAL_S seconds. That cancels the
shared host's drifting speed; the raw seconds are printed and stored beside
them. ``--trace 0`` reports the end-to-end metrics of the untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead against the
untraced ones.

Every metric is printed by name with its unit. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}. The exit code
is 1 if any query failed its reference check, raised, or got a non-zero
exit from the CLI, and 2 if the library is missing.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PASS_TIMEOUT_S = 100
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# setup_s must be given in seconds; it converts set-up time from ref units at this rate
REF_NOMINAL_S = 0.010

END_TO_END = ("setup_s", "wall_ref", "query_p50_ref", "query_p90_ref", "peak_rss_mb", "passed_frac")
PER_LAYER = (
    "distances.oracle_share", "distances.diamond_covariant.calls",
    "distances.diamond_covariant.p50_us", "cyclic.is_channel_element.calls",
    "cyclic.lmr_coeffs.self_s", "optima.objective_evals", "optima.theta_star.p50_ms",
    "optima.landscape.self_s", "channels.effective_channel.calls",
    "repthy.cg_su2.calls", "repthy.cg_su2.self_s", "repthy.commutant_basis.self_s",
    "repthy.twirl.calls", "repthy.twirl.p50_ms", "repthy.maximize_entropy_over_q.self_s",
    "repthy.nelder_mead.nfev",
    "distances.apply_reference_extended.calls", "distances.dense_diamond_covariant.self_s",
    "channels.dense_reflection_channel.self_s", "tensor_core.symmetric_encoder.self_s",
    "tensor_core.permutation_operator.calls", "cyclic.dense_element.self_s",
    "circuits.apply_circuit.self_s", "circuits.gates_applied", "universal.verify_budget.p50_ms",
    "cli.calls", "setup.import_reflectron_s", "setup.import_scipy_optimize_s",
    "config.budget_checks", "config.peak_budget_frac",
) + tuple(f"{layer}.self_s" for layer in LAYERS) + ("trace.overhead_frac",)


def unit(name):
    for suffix, u in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_ref", "ref"),
                      ("_frac", "frac"), ("_share", "frac")):
        if name.endswith(suffix):
            return u
    return "count"


def child_env():
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values, q):
    """Nearest rank: with N samples, N - ceil(qN/100) of them lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def run_pass(queries, traced, pass_id, plant, spans_path):
    job = json.dumps({"queries": queries, "traced": traced, "pass_id": pass_id,
                      "plant": plant, "spans_path": spans_path and str(spans_path)})
    launched = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "passrun.py")], cwd=ROOT,
                            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(job, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err = f"pass timed out after {PASS_TIMEOUT_S} s\n{err}"
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        report = None
    if report is None:
        # a crashed pass counts every one of its queries as failed
        return {"crashed": err.strip()[-2000:], "traced": traced, "attempted": len(queries),
                "failed": len(queries), "failures": []}
    report.update({
        "traced": traced,
        "setup_raw_s": report["t_first"] - launched,
        # the kernel time around the first queries, right after set-up, gauges the host during it
        "setup_s": (report["t_first"] - launched) / report["query_ref"][0] * REF_NOMINAL_S,
        "wall_s": report["t_end"] - report["t_first"] - report["ref_spent"],
        "wall_ref": sum(t / r for t, r in zip(report["latencies"], report["query_ref"])),
        "attempted": len(queries),
        "failed": len(report["failures"]),
    })
    return report


def import_times():
    """Cumulative import times of reflectron and scipy.optimize, from -X importtime."""
    try:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import reflectron"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        return 0.0, 0.0
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("reflectron", "scipy.optimize"):
            found.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return found.get("reflectron", 0.0), found.get("scipy.optimize", 0.0)


def run_workload(name, seed, seconds, trace, tiny, plant):
    queries = workloads.build(name, seed, tiny)
    OUT_DIR.mkdir(exist_ok=True)
    passes, imports = [], []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        spans = OUT_DIR / f"spans-{name}-seed{seed}-pass{len(passes)}.jsonl.gz" if traced else None
        t0 = time.perf_counter()
        report = run_pass(queries, traced, len(passes), plant if not passes else None, spans)
        report["pass_s"] = time.perf_counter() - t0
        passes.append(report)
        if traced:
            imports.append(import_times())
        if any("crashed" in p for p in passes):
            break
        kinds_done = {p["traced"] for p in passes} == ({False, True} if trace else {False})
        longest = max(p["pass_s"] for p in passes)
        if kinds_done and time.perf_counter() - start + longest > seconds:
            break
    return summarize(name, seed, queries, passes, imports, trace)


def summarize(name, seed, queries, passes, imports, trace):
    med = statistics.median
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"] and "crashed" not in p]
    traced = [p for p in passes if p["traced"] and "crashed" not in p]
    n = len(queries) * len(plain)
    samples = {"passes": len(plain), "queries_per_pass": len(queries), "latency_samples": n,
               "beyond_p50": n - math.ceil(0.5 * n), "beyond_p90": n - math.ceil(0.9 * n)}
    metrics, raw = {}, {}
    if plain and not trace:
        latency = [t / r for p in plain for t, r in zip(p["latencies"], p["query_ref"])]
        metrics = {
            "setup_s": med(p["setup_s"] for p in plain),
            "wall_ref": med(p["wall_ref"] for p in plain),
            "query_p50_ref": percentile(latency, 50),
            "query_p90_ref": percentile(latency, 90),
            "peak_rss_mb": med(p["maxrss_kb"] for p in plain) / 1024.0,
            "passed_frac": 1.0 - failed / attempted,
        }
        latency = [t for p in plain for t in p["latencies"]]
        raw = {
            "setup_raw_s": med(p["setup_raw_s"] for p in plain),
            "wall_s": med(p["wall_s"] for p in plain),
            "query_p50_ms": percentile(latency, 50) * 1e3,
            "query_p90_ms": percentile(latency, 90) * 1e3,
            "ref_round_ms": med(r for p in plain for r in p["query_ref"]) * 1e3,
        }
    elif plain and traced:
        metrics = {key: med(p["layer_metrics"][key] for p in traced) for key in traced[0]["layer_metrics"]}
        metrics["setup.import_reflectron_s"] = med(t[0] for t in imports)
        metrics["setup.import_scipy_optimize_s"] = med(t[1] for t in imports)
        metrics["trace.overhead_frac"] = med(p["wall_ref"] for p in traced) / med(p["wall_ref"] for p in plain) - 1.0
        samples["traced_passes"] = len(traced)
    if metrics:
        metrics = {key: metrics[key] for key in (PER_LAYER if trace else END_TO_END)}
    first_ok = (plain + traced)[:1]
    result = {
        "workload": name,
        "correct": failed == 0 and bool(plain) and (bool(traced) or not trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": unit(k)} for k, v in raw.items()},
        "provenance": provenance(seed, first_ok[0]["blas"] if first_ok else "unknown", samples),
        "failures": [f for p in passes for f in p.get("failures", [])][:50],
        "crashes": [p["crashed"] for p in passes if "crashed" in p],
        "functions": traced[0]["functions"] if traced else None,
        "per_pass": [{"traced": p["traced"], "setup_s": p["setup_s"], "setup_raw_s": p["setup_raw_s"],
                      "wall_s": p["wall_s"],
                      "wall_ref": p["wall_ref"], "peak_rss_mb": p["maxrss_kb"] / 1024.0,
                      "latencies": p["latencies"], "query_ref": p["query_ref"]} for p in plain + traced],
    }
    return result


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed, blas, samples):
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "REFLECTRON_BUDGET": os.environ.get("REFLECTRON_BUDGET", "unset (library default)"),
        "seed": seed,
        "samples": samples,
    }


def report(result):
    name, samples = result["workload"], result["provenance"]["samples"]
    print(f"# workload {name}: {samples['passes']} untraced passes of "
          f"{samples['queries_per_pass']} queries"
          + (f", {samples['traced_passes']} traced" if "traced_passes" in samples else ""))
    raw = {k: dict(m, raw=True) for k, m in result["raw_metrics"].items()}
    for key, metric in {**result["metrics"], **raw}.items():
        note = ""
        if key.startswith(("query_p50", "query_p90")):
            beyond = samples["beyond_p50" if key.startswith("query_p50") else "beyond_p90"]
            note = f"  ({samples['latency_samples']} samples from {samples['passes']} passes, {beyond} beyond)"
        if metric.get("raw"):
            note += "  (raw, not in units of the reference kernel)"
        print(f"{name}  {key:42s} {metric['value']:.6g} {metric['unit']}{note}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{name}  {'failed_frac':42s} {frac:.6g} frac  ({result['failed']} of {result['attempted']} queries)")
    for index, kind, messages in result["failures"][:10]:
        print(f"{name}  FAILED query {index} ({kind}): {'; '.join(messages)}")
    for crash in result["crashes"][:3]:
        print(f"{name}  CRASHED pass: {crash[-500:]}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few cheap queries per workload (self-test)")
    parser.add_argument("--plant-wrong-reference", action="store_true",
                        help="check the first query of the first pass against a wrong reference (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "reflectron" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'reflectron'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.tiny,
                              0 if args.plant_wrong_reference else None)
        path = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        report(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
