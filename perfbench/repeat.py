"""Repeat benchmark runs over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload train-elbo --seeds 1-10 --seconds 25

Runs ``run.py`` once per seed, one process at a time, and prints for every
metric its median, first and third quartile and the quartile spread as a
share of the median, plus the share of failed operations. Each run's JSON
result is appended to ``perfbench/out/repeat-<workload>-trace<t>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    status = 0
    for workload in args.workload:
        results = []
        log_path = out_dir / f"repeat-{workload}-trace{args.trace}.jsonl"
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            results.append(result)
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(result) + "\n")
            print(proc.stderr.strip(), file=sys.stderr, flush=True)
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, failed share {shares}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:40s} {first['unit']:7s} median {med:12.4f}  "
                  f"q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:6.3f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
