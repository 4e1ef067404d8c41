"""Tiny-size self-check of the benchmark itself.

    python3 bench/selfcheck.py

Runs every workload of BENCHMARK.json with a handful of tasks, untraced and
traced, and asserts that the run exits 0, that every metric BENCHMARK.json
names is printed by name with its unit (and nothing else is in the result),
and that the error rate is 0.  Then it copies only BENCHMARK.json and the
benchmark's directories into a scratch directory and asserts that the
benchmark refuses to run there: non-zero exit and no result line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TASKS = 1  # runs stop at whole rounds, so this is one round of each workload
TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tasks", str(TASKS)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, where
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == wanted, f"{where}: metrics differ from BENCHMARK.json: {set(got) ^ set(wanted)}"
    for name, unit in wanted.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)), f"{where}: {name} is not a number"
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), (
            f"{where}: {name} not printed with unit {unit}"
        )
    assert any(line.startswith("error_rate = 0 ratio ") for line in lines), f"{where}: error_rate is not 0"
    print(f"ok   {where}: {len(wanted)} metrics, {result['attempted']} tasks")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    assert proc.returncode != 0, "benchmark ran without the program's sources"
    assert not last[0].startswith("{"), "benchmark printed a result without the program's sources"
    print(f"ok   bare directory: exit {proc.returncode}, no result")


def main() -> int:
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check_run(workload["name"], trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
