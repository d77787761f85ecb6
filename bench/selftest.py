"""Self-test of the benchmark. Run from the repository root:

    python3 bench/selftest.py

It runs every workload at a tiny size, untraced and traced, and asserts
that exactly the metrics BENCHMARK.json names are emitted, with their units.
It plants a wrong reference and asserts that the failure is counted while
the run still completes. It also asserts that the benchmark refuses to run,
without a result line, when the library source is missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--seed", "3", "--seconds", "0", "--tiny", *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def check_metrics(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run_bench("--workload", workload, "--trace", str(trace))
            assert proc.returncode == 0 and result and result["correct"], proc.stdout[-3000:] + proc.stderr[-3000:]
            assert result["failed"] == 0 and result["attempted"] > 0, result
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {sorted(set(got) ^ set(want))}"
            for name, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), (workload, name, metric)
            for name in want:
                assert f"  {name} " in proc.stdout, f"{name} not printed by name"
            print(f"ok  {workload} trace {trace}: {len(got)} metrics")


def check_planted_failure():
    proc, result = run_bench("--workload", "covariant-sweep", "--trace", "0", "--plant-wrong-reference")
    assert proc.returncode == 1, proc.returncode
    assert result is not None and not result["correct"], result
    assert result["failed"] == 1, result
    assert result["metrics"]["passed_frac"]["value"] == 1 - 1 / result["attempted"], result
    assert "failed_frac" in proc.stdout and f"(1 of {result['attempted']} queries)" in proc.stdout
    assert "FAILED query 0" in proc.stdout, proc.stdout
    print("ok  planted wrong reference counted as 1 failed query")


def check_missing_library():
    bare = BENCH / "out" / "selftest-no-library"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc, result = run_bench("--workload", "lowerbound", "--trace", "0", root=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode not in (0, None) and result is None, (proc.returncode, proc.stdout)
    print("ok  no library: exit code", proc.returncode, "and no result line")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_planted_failure()
    check_missing_library()
    print("bench self-test passed")


if __name__ == "__main__":
    main()
