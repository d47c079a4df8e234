"""Print SHA-256 digests of the model's numbers, to compare two versions of
the package bit for bit. From the repository root:

    PYTHONPATH=src python benchmarks/numerics_digest.py

Run it once per version (point ``PYTHONPATH`` at each ``src``) and compare
the lines. Where a line moves, compare its arrays one by one:

    PYTHONPATH=src python benchmarks/numerics_digest.py --arrays new.npz
    PYTHONPATH=src python benchmarks/numerics_digest.py --compare old.npz new.npz

``--arrays`` also saves every array a line hashes (``train``: the trained
parameters, not the checkpoint bytes), under ``line/name``. ``--compare``
prints, for each array, "bit-equal" or its largest difference relative to
the largest magnitude of the first file's array, followed by that
difference and that magnitude (an array that is zero up to noise shows a
large relative figure on a tiny magnitude), then a count per line.

Each line digests the raw float64 bytes of:

- ``corpus``: for each of ``make_corpus(1, s)``, s = 0 to 39, at 5 and at
  16 truth conformers, the ground-truth, reference and truth coordinates,
  the auxiliary edges and the bead assignment;
- ``corpus-variants``: the same arrays for ``make_corpus(2, s)``, s = 0 to 19,
  at each of ``CORPUS_VARIANTS``: the defaults, 0, 1 and 16 truth
  conformers, a noise-free reference (``sigma=0``) and torsion scales 0.5
  and 0;
- ``ot`` / ``elbo-ar`` / ``elbo-annealed``: the loss of each of 10 toy
  molecules at epoch 1 from a fresh parameter store, and every parameter
  gradient after its backward (at epoch 1 the annealed KL weight is the
  ladder's second rung, 1e-5); ``ot`` reads K = 3 of each molecule's 5
  truth conformers;
- ``ot-k5``: as ``ot`` with K = 5, every truth conformer;
- ``generate`` / ``generate-ot``: 40 conformers drawn with
  ``decoder.generate`` in the ``ar`` and in the ``ot`` decode mode;
- ``generate-repeat``: four successive ``decoder.generate`` calls for each of
  4 molecules, with an in-place write to an encoder parameter
  (``enc.main.emb.w``) before the third and to a prior parameter
  (``lat.prior.vn.w0``) before the fourth;
- ``rmsd_matrix``: the RMSD matrices of 30 random stack pairs;
- ``emd``: the plan and value of ``losses.emd_solve`` on 200 random square
  costs, n = 2 to 6 (training solves K x K costs). Empty plan cells are
  hashed as +0.0: the sign of a zero weight means nothing, ``ot_loss`` skips
  zero weights, and the LP solver of older versions returns some as -0.0;
- ``train``: the checkpoint bytes after 2 epochs of ``ot`` training with Adam;
- ``gradcheck``: ``max_rel`` of ``checks.gradient_check`` at seeds 0, 1 and 2;
- ``equivcheck``: both ``max_rel`` values of ``checks.equivariance_check``
  (seed 0, 2 molecules, 2 motions each).

Only public names that older versions also have are used.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import tempfile
from collections import Counter

import numpy as np

from coarsegen import autodiff, checks, coarsen, corpus, decoder, kernels, losses
from coarsegen.params import ParameterStore

train = importlib.import_module("coarsegen.train")   # the package exports a function of that name

N_MOLECULES = 10


def digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(np.ascontiguousarray(c, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def hashed(named: dict) -> tuple[str, dict]:
    """The digest of ``named``'s arrays in order, and the arrays."""
    return digest(named.values()), named


def add_molecule(named: dict, key: str, mol) -> None:
    named[f"{key}/gt"] = mol.gt.coords
    named[f"{key}/ref"] = mol.ref.coords
    for k, t in enumerate(mol.truth_ensemble):
        named[f"{key}/truth{k}"] = t.coords
    named[f"{key}/aux"] = np.asarray(mol.graph.aux_edges, dtype=np.float64)
    named[f"{key}/beads"] = np.asarray(mol.mapping.assignment, dtype=np.float64)


def corpus_arrays() -> tuple[str, dict]:
    named = {}
    for n_truth in (5, 16):
        for s in range(40):
            add_molecule(named, f"truth{n_truth}/seed{s}",
                         corpus.make_corpus(1, s, n_truth=n_truth)[0])
    return hashed(named)


CORPUS_VARIANTS = [{}, {"n_truth": 16}, {"sigma": 0.0, "torsion_scale": 0.5},
                   {"sigma": 0.0}, {"n_truth": 0}, {"n_truth": 1},
                   {"torsion_scale": 0.5}, {"sigma": 0.0, "torsion_scale": 0.0}]


def corpus_variant_arrays() -> tuple[str, dict]:
    named = {}
    for v, settings in enumerate(CORPUS_VARIANTS):
        for s in range(20):
            for i, mol in enumerate(corpus.make_corpus(2, s, **settings)):
                add_molecule(named, f"settings{v}/seed{s}/mol{i}", mol)
    return hashed(named)


def loss_and_grads(preset: str, mols, ot_samples: int = 3) -> tuple[str, dict]:
    run = train.RunConfig(preset=preset, seed=3, ot_samples=ot_samples)
    cfg = run.model_config()
    store = ParameterStore(seed=3)
    rng = np.random.default_rng(4)
    named = {}
    for i, mol in enumerate(mols):
        store.zero_grad()
        loss, _ = train.molecule_loss(store, cfg, mol, run, 1, rng)
        autodiff.backward(loss)
        named[f"mol{i}/loss"] = loss.data
        for name in store.names():
            g = store[name].grad
            named[f"mol{i}/grad/{name}"] = np.zeros(0) if g is None else g
    return hashed(named)


def draws(mols, mode: str) -> tuple[str, dict]:
    cfg = train.RunConfig().model_config()
    store = ParameterStore(seed=5)
    rng = np.random.default_rng(6)
    named = {}
    for i, mol in enumerate(mols[:4]):
        order = coarsen.order_beads(
            mol.mapping, coarsen.build_bead_graph(mol.graph, mol.mapping, cfg.aux_cutoff))
        for j in range(10):
            named[f"mol{i}/draw{j}"] = decoder.generate(
                store, cfg, mol.graph, mol.mapping, mol.ref.coords, order, rng,
                mode=mode).coords
    return hashed(named)


def repeat_draws(mols) -> tuple[str, dict]:
    cfg = train.RunConfig().model_config()
    store = ParameterStore(seed=12)
    rng = np.random.default_rng(13)
    named = {}
    for i, mol in enumerate(mols[:4]):
        order = coarsen.order_beads(
            mol.mapping, coarsen.build_bead_graph(mol.graph, mol.mapping, cfg.aux_cutoff))
        for j in range(4):
            if j >= 2:
                name = "enc.main.emb.w" if j == 2 else "lat.prior.vn.w0"
                store[name].data[...] += 0.01
            named[f"mol{i}/draw{j}"] = decoder.generate(
                store, cfg, mol.graph, mol.mapping, mol.ref.coords, order, rng).coords
    return hashed(named)


def rmsd_matrices() -> tuple[str, dict]:
    rng = np.random.default_rng(7)
    named = {}
    for i in range(30):
        k, l, m = rng.integers(1, 33), rng.integers(1, 17), rng.integers(3, 41)
        a = rng.uniform(1, 20) * rng.standard_normal((k, m, 3))
        b = rng.uniform(1, 20) * rng.standard_normal((l, m, 3))
        named[f"pair{i}"] = kernels.rmsd_matrix(a, b)
    return hashed(named)


def emd_plans() -> tuple[str, dict]:
    rng = np.random.default_rng(9)
    named = {}
    for i in range(200):
        n = rng.integers(2, 7)
        plan, value = losses.emd_solve(rng.uniform(0, 5, size=(n, n)))
        named[f"cost{i}/plan"] = plan.matrix + 0.0    # -0.0 + 0.0 is +0.0
        named[f"cost{i}/value"] = value
    return hashed(named)


def checkpoint() -> tuple[str, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        run = train.RunConfig(preset="ot", epochs=2, lr=1e-2, batch_size=2,
                              corpus_size=4, optimizer="adam", seed=8,
                              checkpoint_dir=tmp)
        store = train.train(run).store
        with open(os.path.join(tmp, "ckpt_epoch1.bin"), "rb") as fh:
            return (hashlib.sha256(fh.read()).hexdigest()[:16],
                    {name: store[name].data for name in store.names()})


def gradcheck() -> tuple[str, dict]:
    return hashed({f"seed{s}/max_rel": checks.gradient_check(seed=s).max_rel
                   for s in (0, 1, 2)})


def equivcheck() -> tuple[str, dict]:
    report = checks.equivariance_check(seed=0, n_molecules=2, n_motions=2)
    return hashed({"latent_max_rel": report.latent_max_rel,
                   "generate_max_rel": report.generate_max_rel})


def compare(path_a: str, path_b: str) -> None:
    """Print each array of ``path_a`` against the same-named one of ``path_b``.
    An array only one file has counts as differing."""
    a, b = np.load(path_a), np.load(path_b)
    keys = list(dict.fromkeys(a.files + b.files))
    tally: Counter = Counter()
    for key in keys:
        if key not in a.files:
            verdict = "missing in the first file"
        elif key not in b.files:
            verdict = "missing in the second file"
        elif (x := a[key]).shape != b[key].shape:
            verdict = f"shape {x.shape} != {b[key].shape}"
        elif x.tobytes() == b[key].tobytes():
            verdict = "bit-equal"
        else:
            scale = np.abs(x).max()
            diff = np.abs(x - b[key]).max()
            verdict = (f"max rel diff {diff / scale if scale else diff:.3e} "
                       f"(max abs diff {diff:.3e}, max abs {scale:.3e})")
        line = key.split("/", 1)[0]
        tally[line, verdict == "bit-equal"] += 1
        print(f"{key}: {verdict}")
    for line in dict.fromkeys(k.split("/", 1)[0] for k in keys):
        print(f"{line}: {tally[line, True]} bit-equal, {tally[line, False]} differ")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--arrays", metavar="OUT.npz",
                        help="also save every hashed array to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"),
                        help="compare two --arrays files instead of digesting")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    mols = corpus.make_corpus(N_MOLECULES, 11, n_truth=5)
    lines = {
        "corpus": corpus_arrays,
        "corpus-variants": corpus_variant_arrays,
        "ot": lambda: loss_and_grads("ot", mols),
        "ot-k5": lambda: loss_and_grads("ot", mols, ot_samples=5),
        "elbo-ar": lambda: loss_and_grads("elbo-ar", mols),
        "elbo-annealed": lambda: loss_and_grads("elbo-annealed", mols),
        "generate": lambda: draws(mols, "ar"),
        "generate-ot": lambda: draws(mols, "ot"),
        "generate-repeat": lambda: repeat_draws(mols),
        "rmsd_matrix": rmsd_matrices,
        "emd": emd_plans,
        "train": checkpoint,
        "gradcheck": gradcheck,
        "equivcheck": equivcheck,
    }
    saved = {}
    for label, run in lines.items():
        line_digest, named = run()
        print(f"{label:12s} {line_digest}", flush=True)
        saved.update((f"{label}/{name}", np.asarray(x)) for name, x in named.items())
    if args.arrays:
        np.savez(args.arrays, **saved)


if __name__ == "__main__":
    main()
