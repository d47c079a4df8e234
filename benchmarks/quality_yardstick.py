"""Train acceptance ``test_7``'s two objectives at several training seeds and
print the spread of the quality statistics, to judge a change that moves the
numbers (a digest only says "different"). From the repository root:

    PYTHONPATH=src python benchmarks/quality_yardstick.py

Each training seed, 0 to 7, trains objective A (``elbo-ar``, 100 epochs)
and objective B (``ot``, 350 epochs) on ``make_corpus(10, 0, sigma=0.3)``
with the test's run configurations and that seed, and prints one JSON line:

- ``gen_rmsd`` / ``ref_rmsd``: mean aligned RMSD to the ground truth of one
  ``ar`` draw per molecule (sampling seed 123, as in the test) and of the
  distorted reference;
- ``ot_ratio``: the last OT step's recon over the first (``test_7``'s
  statistic, bound 0.5);
- ``tail_ratio``: the mean recon of the last ``TAIL`` OT steps over the
  first step's, which a single step's rounding moves less.

After the seeds, one line per statistic gives its min, median and max.
Only public names that older versions also have are used, so one copy of
the script runs on two trees (point ``PYTHONPATH`` at each ``src``).
A seed takes about a minute on one core; two trees can run side by side.
"""

from __future__ import annotations

import json
import statistics

import numpy as np

from coarsegen import topology
from coarsegen.corpus import make_corpus
from coarsegen.decoder import generate
from coarsegen.geometry import aligned_rmsd
from coarsegen.train import RunConfig, train

SEEDS = range(8)
TAIL = 35
STATS = ("gen_rmsd", "ref_rmsd", "ot_ratio", "tail_ratio")


def one_seed(seed: int) -> dict:
    corpus = make_corpus(10, 0, sigma=0.3)
    run_ar = RunConfig(preset="elbo-ar", epochs=100, lr=5e-3, lr_decay=1.0,
                       batch_size=1, seed=seed, layers=2, hidden_dim=16,
                       latent_channels=8, optimizer="adam")
    store = train(run_ar, corpus=corpus).store
    cfg = run_ar.model_config()
    rng = np.random.default_rng(123)
    gen_err, ref_err = [], []
    for mol in corpus:
        order = topology.bead_order(mol.graph, mol.mapping, cfg.aux_cutoff)
        conf = generate(store, cfg, mol.graph, mol.mapping, mol.ref.coords,
                        order, rng, mode="ar")
        gen_err.append(aligned_rmsd(conf.coords, mol.gt.coords))
        ref_err.append(aligned_rmsd(mol.ref.coords, mol.gt.coords))

    run_ot = RunConfig(preset="ot", epochs=350, lr=1e-2, lr_decay=0.995,
                       batch_size=10, seed=seed, layers=2, hidden_dim=16,
                       latent_channels=8, ot_samples=3, optimizer="adam")
    recon = [h["recon"] for h in train(run_ot, corpus=corpus).history]
    return {"seed": seed, "gen_rmsd": float(np.mean(gen_err)),
            "ref_rmsd": float(np.mean(ref_err)), "ot_ratio": recon[-1] / recon[0],
            "tail_ratio": float(np.mean(recon[-TAIL:])) / recon[0]}


def main() -> None:
    rows = []
    for seed in SEEDS:
        rows.append(one_seed(seed))
        print(json.dumps({k: round(v, 4) if isinstance(v, float) else v
                          for k, v in rows[-1].items()}), flush=True)
    for stat in STATS:
        values = [r[stat] for r in rows]
        print(f"{stat:10s} min {min(values):.4f}  median "
              f"{statistics.median(values):.4f}  max {max(values):.4f}")


if __name__ == "__main__":
    main()
