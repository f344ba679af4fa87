"""Smoke check of the benchmark itself, at its smallest run length.

    python3 bench/smoke.py

For every workload it runs ``bench/run.py --seconds 1`` untraced once and
traced twice with the same seed, and fails unless each run exits 0, is
correct with no failed op, reports exactly the metrics that BENCHMARK.json
names with their units, accounts for the traced wall time with span self
times plus the untraced remainder, and repeats every count exactly.  It
also checks that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"smoke check failed: {message}")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess, expected: list[dict], label: str) -> dict:
    require(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: {proc.stderr}")
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == want, f"{label}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        e2e = result_of(run(workload, 0), SPEC["end_to_end"], f"{workload} trace 0")
        require(all(value > 0 for value in e2e.values()), f"{workload}: {e2e}")

        first, second = (result_of(run(workload, 1), SPEC["per_layer"], f"{workload} trace 1") for _ in range(2))
        wall = first["trace.wall_s"]
        gap = abs(first["trace.self_s"] + first["trace.outside_s"] - wall)
        require(gap <= 1e-6 * wall, f"{workload}: self times and remainder miss the traced wall time by {gap}")
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes", "ratio")]
        counts.remove("trace.overhead_frac")
        changed = [name for name in counts if first[name] != second[name]]
        require(not changed, f"{workload}: counts differ between runs of one seed: {changed}")
        print(f"ok {workload}")

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=Path(bare))
        require(proc.returncode != 0 and '"correct"' not in proc.stdout, "ran without the program's sources")
    print("ok refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
