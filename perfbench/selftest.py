"""Self-test of the benchmark: small runs of every workload.

    python3 perfbench/selftest.py

For each workload in ``BENCHMARK.json`` it makes a small-size untraced and
traced run and checks that the run passes its correctness checks, reports
attempted and failed operations, and prints every declared metric with its
declared unit, both in the report and in the JSON result line.  It also
checks that the benchmark fails, without printing a result, in a directory
holding only ``BENCHMARK.json`` and the benchmark's own files.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--seconds", "3", "--scale", "0.05"]


def run(argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    name = f"{workload} trace={trace}"
    proc = run(
        ["perfbench/run.py", "--workload", workload, "--seed", "7", "--trace", str(trace), *SMALL]
    )
    if proc.returncode != 0:
        return [f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = "\n".join(lines[:-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{name}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{name}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{name}: attempted={result.get('attempted')}")
    for phase in ("online_regions", "server_ingest", "offline_query"):
        if f"  {phase}: attempted=" not in report:
            errors.append(f"{name}: no attempted/failed line for {phase}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"{name}: metrics differ: {sorted(set(metrics) ^ set(declared))}")
    for metric, unit in declared.items():
        got = metrics.get(metric, {})
        value = got.get("value")
        if got.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: {metric} = {got}")
        elif not trace and value <= 0:
            errors.append(f"{name}: {metric} is not positive: {value}")
        if not any(metric in line and unit in line for line in lines[:-1]):
            errors.append(f"{name}: report does not print {metric} with {unit}")
        if not trace and not any(line.split()[:1] == [metric] and " n=" in line for line in lines):
            errors.append(f"{name}: report gives no sample count for {metric}")
    return errors


def check_bare(bench: dict) -> list[str]:
    """Without the program, the benchmark must fail and print no result."""
    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path),
                os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        workload = bench["workloads"][0]["name"]
        argv = bench["command"][1:] + ["--workload", workload, "--seed", "1", "--trace", "0", *SMALL]
        proc = run(argv, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    errors = check_bare(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            errors += check_run(bench, workload, trace)
    for error in errors:
        print("FAIL", error)
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
