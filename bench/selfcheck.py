#!/usr/bin/env python3
"""Harness self-check: every workload at a tiny size, untraced and traced.

    python3 bench/selfcheck.py

Runs every workload bench/run.py defines, including any that BENCHMARK.json
does not list. Asserts that each run exits 0, passes its output checks, and prints exactly
the metrics BENCHMARK.json names (end_to_end untraced, per_layer traced),
each with its unit and a finite value. Takes about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import WORKLOADS  # noqa: E402  (after the path is set)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} trace={trace}"
            if done.returncode != 0 or not done.stdout.strip():
                problems.append(f"{label}: exit {done.returncode}\n{done.stdout[-3000:]}{done.stderr[-3000:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} checks failed")
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                problems.append(f"{label}: missing {missing}, unexpected {extra}, wrong units {units}")
            bad = [k for k, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{label}: non-finite values {bad}")
            print(f"{label}: {len(got)} metrics, {result['attempted']} checks", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check passed" if not problems else f"self-check failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
