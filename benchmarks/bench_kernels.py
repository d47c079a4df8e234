"""Time the geometric kernels and the tape's segment sum at fixed sizes,
from the repository root:

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

from coarsegen import autodiff, kernels

REPEAT = 21


def bench(label, fn, *args) -> None:
    fn(*args)
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn(*args)
        times.append(1e3 * (time.perf_counter() - t0))
    q1, med, q3 = statistics.quantiles(times, n=4)
    print(f"{label:<32s} median {med:9.4f} ms  quartiles {q1:.4f}-{q3:.4f} ms  (n={REPEAT})")


def main() -> None:
    rng = np.random.default_rng(0)

    coords = rng.uniform(0, 30, size=(2000, 3))
    bench("pairs_within_cutoff n=2000", kernels.pairs_within_cutoff, coords, 4.0)

    a = rng.standard_normal((64, 40, 3))
    b = rng.standard_normal((64, 40, 3))
    bench("rmsd_matrix 64x64 m=40", kernels.rmsd_matrix, a, b)

    # one message-passing aggregation: E=60 edge messages of width D=16 into
    # the 20 atoms of a desk-scale molecule
    messages = autodiff.Tensor(rng.standard_normal((60, 16)))
    dst = rng.integers(0, 20, size=60)
    bench("segment_sum E=60 D=16", autodiff.segment_sum, messages, dst, 20)


if __name__ == "__main__":
    main()
