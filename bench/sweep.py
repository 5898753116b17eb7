"""Run the benchmark over several seeds and workloads, one run at a time.

    python3 bench/sweep.py                      # every workload, seed 1
    python3 bench/sweep.py --seeds 1-10         # the run-to-run spread check

With one seed it prints each run's full report, which names every
end-to-end metric with its unit, plus failed_share and wrong_outputs.  With
several seeds it prints, per workload and metric, the median, the spread
(interquartile distance over the median) and the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls = []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - start)
            lines = proc.stdout.strip().splitlines()
            if len(seeds) == 1 or proc.returncode != 0:
                print("\n".join(lines[:-1]), proc.stderr, sep="\n")
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(seeds)} runs, wall per run "
              f"{min(walls):.1f}-{max(walls):.1f} s")
        if len(seeds) < 2:
            continue
        for name, vals in values.items():
            print(f"  {name:42} runs   " + " ".join(f"{v:.4g}" for v in vals))
            med = statistics.median(vals)
            sp = stats.spread(vals) if med else 0.0
            bound = bounds[name]
            flag = "" if sp <= bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:42} median {med:14.4f}  spread {sp:7.4f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
