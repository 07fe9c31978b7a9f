#!/usr/bin/env python3
"""Compare two sets of benchmark reports, refusing runs on different inputs.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds ``report-trace0.json`` files written by bench/run.py (a
copy of a checkout's ``.bench_work``). Reports are paired by workload and
seed; a pair whose input fingerprints differ is refused, because a changed
generator or workload config would make the two runs measure different work.
For each workload and end-to-end metric this prints both medians, how many
pairs the new side wins, and whether the new median is worse than the base
median by more than the bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[tuple[str, int], dict]:
    reports = {}
    for path in sorted(directory.rglob("report-trace0.json")):
        report = json.loads(path.read_text())
        if not report.get("tiny"):
            reports[(report["workload"], report["seed"])] = report
    return reports


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = (load(Path(arg)) for arg in argv)
    pairs = sorted(set(base) & set(new))
    if not pairs:
        print("error: no workload/seed appears in both directories", file=sys.stderr)
        return 2
    mismatched = [key for key in pairs
                  if base[key]["fingerprint"]["digest"] != new[key]["fingerprint"]["digest"]]
    if mismatched:
        for workload, seed in mismatched:
            print(f"error: {workload} seed {seed}: input fingerprints differ", file=sys.stderr)
        return 2

    regressed = False
    print(f"{'workload':16} {'metric':22} {'base':>12} {'new':>12} {'change':>8} {'wins':>6}  verdict")
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            b = [base[(workload, s)]["end_to_end"][name] for s in seeds]
            n = [new[(workload, s)]["end_to_end"][name] for s in seeds]
            b_med, n_med = statistics.median(b), statistics.median(n)
            change = (n_med - b_med) / b_med
            wins = sum(sign * (y - x) > 0 for x, y in zip(b, n))
            worse = -sign * change > bound
            regressed |= worse
            verdict = f"worse than bound {bound}" if worse else "within bound"
            print(f"{workload:16} {name:22} {b_med:12.5g} {n_med:12.5g} {change:+8.2%} "
                  f"{wins:>3}/{len(seeds):<2}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
