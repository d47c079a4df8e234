"""Print SHA-256 digests of the model's numbers, to compare two versions of
the package bit for bit. From the repository root:

    PYTHONPATH=src python benchmarks/numerics_digest.py

Run it once per version (point ``PYTHONPATH`` at each ``src``) and compare
the lines. Each line digests the raw float64 bytes of:

- ``ot`` / ``elbo-ar`` / ``elbo-annealed``: the loss of each of 10 toy
  molecules at epoch 1 from a fresh parameter store, and every parameter
  gradient after its backward (at epoch 1 the annealed KL weight is the
  ladder's second rung, 1e-5); ``ot`` reads K = 3 of each molecule's 5
  truth conformers;
- ``ot-k5``: as ``ot`` with K = 5, every truth conformer;
- ``generate`` / ``generate-ot``: 40 conformers drawn with
  ``decoder.generate`` in the ``ar`` and in the ``ot`` decode mode;
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

import hashlib
import importlib
import os
import tempfile

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


def loss_and_grads(preset: str, mols, ot_samples: int = 3) -> str:
    run = train.RunConfig(preset=preset, seed=3, ot_samples=ot_samples)
    cfg = run.model_config()
    store = ParameterStore(seed=3)
    rng = np.random.default_rng(4)
    chunks = []
    for mol in mols:
        store.zero_grad()
        loss, _ = train.molecule_loss(store, cfg, mol, run, 1, rng)
        autodiff.backward(loss)
        chunks.append(loss.data)
        for name in store.names():
            g = store[name].grad
            chunks.append(np.zeros(0) if g is None else g)
    return digest(chunks)


def draws(mols, mode: str) -> str:
    cfg = train.RunConfig().model_config()
    store = ParameterStore(seed=5)
    rng = np.random.default_rng(6)
    chunks = []
    for mol in mols[:4]:
        order = coarsen.order_beads(
            mol.mapping, coarsen.build_bead_graph(mol.graph, mol.mapping, cfg.aux_cutoff))
        for _ in range(10):
            chunks.append(decoder.generate(store, cfg, mol.graph, mol.mapping,
                                           mol.ref.coords, order, rng,
                                           mode=mode).coords)
    return digest(chunks)


def rmsd_matrices() -> str:
    rng = np.random.default_rng(7)
    chunks = []
    for _ in range(30):
        k, l, m = rng.integers(1, 33), rng.integers(1, 17), rng.integers(3, 41)
        a = rng.uniform(1, 20) * rng.standard_normal((k, m, 3))
        b = rng.uniform(1, 20) * rng.standard_normal((l, m, 3))
        chunks.append(kernels.rmsd_matrix(a, b))
    return digest(chunks)


def emd_plans() -> str:
    rng = np.random.default_rng(9)
    chunks = []
    for _ in range(200):
        n = rng.integers(2, 7)
        plan, value = losses.emd_solve(rng.uniform(0, 5, size=(n, n)))
        chunks += [plan.matrix + 0.0, value]    # -0.0 + 0.0 is +0.0
    return digest(chunks)


def checkpoint() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        run = train.RunConfig(preset="ot", epochs=2, lr=1e-2, batch_size=2,
                              corpus_size=4, optimizer="adam", seed=8,
                              checkpoint_dir=tmp)
        train.train(run)
        with open(os.path.join(tmp, "ckpt_epoch1.bin"), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:16]


def gradcheck() -> str:
    return digest([checks.gradient_check(seed=s).max_rel for s in (0, 1, 2)])


def equivcheck() -> str:
    report = checks.equivariance_check(seed=0, n_molecules=2, n_motions=2)
    return digest([report.latent_max_rel, report.generate_max_rel])


def main() -> None:
    mols = corpus.make_corpus(N_MOLECULES, 11, n_truth=5)
    print(f"ot           {loss_and_grads('ot', mols)}")
    print(f"ot-k5        {loss_and_grads('ot', mols, ot_samples=5)}")
    print(f"elbo-ar      {loss_and_grads('elbo-ar', mols)}")
    print(f"elbo-annealed {loss_and_grads('elbo-annealed', mols)}")
    print(f"generate     {draws(mols, 'ar')}")
    print(f"generate-ot  {draws(mols, 'ot')}")
    print(f"rmsd_matrix  {rmsd_matrices()}")
    print(f"emd          {emd_plans()}")
    print(f"train        {checkpoint()}")
    print(f"gradcheck    {gradcheck()}")
    print(f"equivcheck   {equivcheck()}")


if __name__ == "__main__":
    main()
