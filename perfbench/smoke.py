"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced, repeats one traced run
to compare its deterministic counts with the first, and checks that each
result line has exactly the contract's keys, is correct, and reports the
metrics BENCHMARK.json lists with their units. Finally it runs the benchmark
from a directory holding only BENCHMARK.json and the benchmark's files,
where it must fail without printing a result. Exits non-zero on any problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = ["perfbench/run.py"]


def run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *RUN, *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_result(proc, expected: dict) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}: "
                        f"{proc.stderr[-2000:]}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted={result.get('attempted')!r}")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got).symmetric_difference(expected))} "
                        f"or units {[k for k in got if got[k] != expected.get(k)]}")
    bad = [name for name, m in result.get("metrics", {}).items()
           if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool)]
    if bad:
        problems.append(f"non-numeric metric values: {bad}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = 0
    runs = [(w, t) for w in WORKLOAD_NAMES for t in (0, 1)] + [("quadratic_scale", 1)]
    for workload, trace in runs:
        proc = run(ROOT, "--workload", workload, "--seed", 0, "--seconds", 1,
                   "--trace", trace, "--smoke")
        problems = check_result(proc, per_layer if trace else end_to_end)
        print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
        failures += bool(problems)

    bare = ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, "--workload", "oracle", "--seed", 0, "--seconds", 1, "--trace", 0)
    bare_ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"bare directory: {'ok' if bare_ok else 'FAIL'} (exit {proc.returncode})")
    failures += not bare_ok
    shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
