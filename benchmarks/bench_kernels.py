"""Time the geometric kernels at fixed sizes, from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernels.py

Each kernel is called once to warm up, then ``REPEAT`` times; the median
and quartiles of those calls are printed in ms. One process sees the drift
of a shared machine, so compare two versions by alternating runs of this
script, not by one run each.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from coarsegen import kernels

REPEAT = 21


def bench(label, fn, *args) -> None:
    fn(*args)
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn(*args)
        times.append(1e3 * (time.perf_counter() - t0))
    q1, med, q3 = statistics.quantiles(times, n=4)
    print(f"{label:<32s} median {med:9.3f} ms  quartiles {q1:.3f}-{q3:.3f} ms  (n={REPEAT})")


def main() -> None:
    rng = np.random.default_rng(0)

    coords = rng.uniform(0, 30, size=(2000, 3))
    bench("pairs_within_cutoff n=2000", kernels.pairs_within_cutoff, coords, 4.0)

    a = rng.standard_normal((64, 40, 3))
    b = rng.standard_normal((64, 40, 3))
    bench("rmsd_matrix 64x64 m=40", kernels.rmsd_matrix, a, b)


if __name__ == "__main__":
    main()
