#!/usr/bin/env python3
"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for one operation on the 3-month quick study, once
untraced and once traced, and asserts that:
  * every check passes (correct, no failed op);
  * the metrics are exactly the end-to-end (untraced) or per-layer
    (traced) names of BENCHMARK.json, each with its declared unit;
  * the traced op's layer times add up to its wall time: <workload>.other_s
    plus every other layer time, except the kernels that run inside
    study.sweep_s and the core.shard_events_max_s summary.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--config", "quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(result: dict, declared: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{what}: printed {sorted(got.items())}, declared {sorted(want.items())}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} is not a number"


def check_layers_add_up(result: dict, workload: str) -> None:
    spans_file = Path(result["spans"])
    spans = json.loads(spans_file.read_text())["spans"]
    root = next(s for s in spans if s["parent"] == -1)
    wall = root["end_s"] - root["start_s"]
    kernels = {f"{s['name']}_s" for s in spans
               if s["parent"] >= 0 and spans[s["parent"]]["name"] == "study.sweep"}
    total = sum(m["value"] for name, m in result["metrics"].items()
                if m["unit"] == "s" and not name.startswith("proc.")
                and name not in kernels and name != "core.shard_events_max_s")
    assert abs(total - wall) <= 1e-6 * max(1.0, wall), \
        f"{workload}: layer times sum to {total} s, traced op took {wall} s"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        plain = run(workload, 0)
        assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1, plain
        check_names(plain, bench["end_to_end"], f"{workload} untraced")
        for name, m in plain["metrics"].items():
            assert m["value"] > 0, f"{workload}: end-to-end metric {name} is 0"

        traced = run(workload, 1)
        assert traced["correct"] and traced["failed"] == 0, traced
        check_names(traced, bench["per_layer"], f"{workload} traced")
        traced["spans"] = BUILD / "spans" / f"{workload}-seed7.json"
        check_layers_add_up(traced, workload)
        print(f"ok  {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
