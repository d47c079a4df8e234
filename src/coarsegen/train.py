"""Training loop: ELBO (optionally annealed) or optimal-transport objectives,
SGD or Adam with a stepped learning-rate decay, per-epoch checkpoints and
structured logging. Deterministic for a fixed run configuration and seed."""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import topology
from .autodiff import Tensor, backward, gc_paused
from .corpus import ToyMolecule, make_corpus
from .decoder import decode, decode_blocks
from .encoder import center, encode
from .latent import kl_divergence, posterior_params, prior_params, sample
from .losses import (LossWeights, aligned_mse, annealed_beta1, distance_loss,
                     elbo_loss, ot_loss)
from .nn import ModelConfig
from .params import ParameterStore

log = logging.getLogger("coarsegen.train")

PRESETS = ("elbo-ar", "elbo-annealed", "ot")


@dataclass
class RunConfig:
    preset: str = "elbo-ar"
    epochs: int = 3
    lr: float = 1e-3
    lr_decay: float = 0.2          # multiplier applied per epoch
    batch_size: int = 1
    seed: int = 0
    corpus_size: int = 8
    corpus_seed: int = 0
    sigma: float = 0.3
    ot_samples: int = 3            # generated ensemble size for the OT preset
    optimizer: str = "sgd"         # "sgd" (default) or "adam"
    layers: int = ModelConfig.layers
    hidden_dim: int = ModelConfig.hidden_dim
    latent_channels: int = ModelConfig.latent_channels
    weights: LossWeights = field(default_factory=LossWeights)
    checkpoint_dir: str | None = None

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        # zero epochs train nothing, as when a finished run is resumed
        for name, least in (("batch_size", 1), ("ot_samples", 1), ("corpus_size", 1),
                            ("epochs", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and at least 0, got {self.sigma}")
        self.model_config()     # checks the model fields

    def model_config(self) -> ModelConfig:
        return ModelConfig(hidden_dim=self.hidden_dim,
                           latent_channels=self.latent_channels,
                           layers=self.layers)

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def lr_at(self, epoch: int) -> float:
        return self.lr * self.lr_decay ** epoch


@dataclass
class TrainResult:
    store: ParameterStore
    history: list[dict]            # one breakdown dict per optimizer step
    config: RunConfig


def molecule_loss(store: ParameterStore, cfg: ModelConfig, mol: ToyMolecule,
                  run: RunConfig, epoch: int,
                  rng: np.random.Generator) -> tuple[Tensor, dict[str, float]]:
    """Differentiable loss for one molecule under the configured preset.

    The ELBO presets reconstruct the ground truth (K = 1) autoregressively
    under teacher forcing. ``ot`` reconstructs the first K = ``ot_samples``
    truth conformers in one pass each and matches them to the same K truths
    by optimal transport, so a perfect reconstruction costs zero. The K
    paths run as one (K, beads, F, 3) stack from the encoder through the
    posterior, the draw and the KL; ``ot`` decodes the stack in one call,
    whose (K, atoms, 3) output the OT loss reads."""
    graph, mapping = mol.graph, mol.mapping
    ot = run.preset == "ot"
    # the preset alone decides whether the KL weight follows the ladder
    b1 = annealed_beta1(epoch) if run.preset == "elbo-annealed" else run.weights.beta1
    ref_c, _ = center(mol.ref.coords)
    if ot:
        if len(mol.truth_ensemble) < run.ot_samples:
            raise ValueError(f"the ot preset reads ot_samples={run.ot_samples} truth "
                             f"conformers, but the molecule has {len(mol.truth_ensemble)}")
        truth = [center(t.coords)[0] for t in mol.truth_ensemble[:run.ot_samples]]
        blocks = decode_blocks(mapping, "ot")
    else:
        truth = [center(mol.gt.coords)[0]]
        blocks = decode_blocks(mapping, "ar",
                               topology.bead_order(graph, mapping, cfg.aux_cutoff))

    z_truth, z_ref = encode(store, cfg, graph, mapping, truth, ref_c)
    # a fresh store draws initial values in creation order, posterior heads first
    post = posterior_params(store, cfg, z_truth, z_ref)
    kl = kl_divergence(post, prior_params(store, cfg, z_ref))
    z = sample(post, rng)

    if ot:
        decoded = decode(store, cfg, z, mapping, ref_c, graph, blocks)
        kl = kl * (1.0 / len(truth))
        recon, _plan = ot_loss(decoded, truth, graph)
        total = recon + b1 * kl
        breakdown = {"recon": float(recon.data), "kl": float(kl.data),
                     "dist": 0.0, "beta1": b1, "beta2": 0.0,
                     "total": float(total.data)}
        return total, breakdown
    # the ar blocks decode the one path, reading the teacher
    decoded = decode(store, cfg, z, mapping, ref_c, graph, blocks, teacher_coords=truth[0])
    decoded = decoded.reshape(decoded.shape[1:])
    recon = aligned_mse(decoded, truth[0])
    dist = distance_loss(decoded, truth[0], graph)
    return elbo_loss(recon, kl, dist, b1, run.weights.beta2)


def _check_finite(breakdown: dict[str, float], step: int) -> None:
    if not all(math.isfinite(v) for v in breakdown.values()):
        raise RuntimeError(
            f"non-finite loss at step {step}: "
            + " ".join(f"{k}={v:g}" for k, v in breakdown.items()))


def _train_step(store: ParameterStore, cfg: ModelConfig, batch: list[ToyMolecule],
                run: RunConfig, epoch: int, rng: np.random.Generator,
                lr: float) -> dict[str, float]:
    """Forward, backward and optimizer update on one batch; returns the
    batch mean of each loss term.

    Each molecule's loss is backpropagated, scaled by 1/batch, right after
    its forward, and its tape is freed before the next molecule's forward,
    so a step holds one molecule's tape. Molecules share only parameter
    leaves, and :func:`~coarsegen.autodiff.backward` adds a leaf's
    contributions as they arrive, so the gradients equal those of one
    backward of the batch mean bit for bit."""
    store.zero_grad()
    agg: dict[str, float] = {}
    for mol in batch:
        loss, breakdown = molecule_loss(store, cfg, mol, run, epoch, rng)
        backward(loss * (1.0 / len(batch)))
        del loss
        for k, v in breakdown.items():
            agg[k] = agg.get(k, 0.0) + v / len(batch)
    _check_finite(agg, store.step)
    if run.optimizer == "adam":
        store.adam_step(lr)
    else:
        store.sgd_step(lr)
    return agg


def checkpoint_path(run: RunConfig, epoch: int) -> str:
    assert run.checkpoint_dir is not None
    return os.path.join(run.checkpoint_dir, f"ckpt_epoch{epoch}.bin")


def train(run: RunConfig, store: ParameterStore | None = None,
          start_epoch: int = 0, corpus: list[ToyMolecule] | None = None) -> TrainResult:
    """Run (or resume from ``start_epoch``) the configured training job.

    Per-epoch RNG streams are derived from the seed and epoch index, so a
    resume from an epoch-boundary checkpoint replays the run bit-exactly.
    Each optimizer step (forward, backward and update) runs with the cyclic
    garbage collector paused (see :func:`~coarsegen.autodiff.gc_paused`).
    """
    if store is None:
        store = ParameterStore(seed=run.seed)
    cfg = run.model_config()
    if corpus is None:
        corpus = make_corpus(run.corpus_size, run.corpus_seed, sigma=run.sigma)
    if run.checkpoint_dir:
        os.makedirs(run.checkpoint_dir, exist_ok=True)

    history: list[dict] = []
    for epoch in range(start_epoch, run.epochs):
        rng = np.random.default_rng(run.seed + 1000 * (epoch + 1))
        lr = run.lr_at(epoch)
        for batch_start in range(0, len(corpus), run.batch_size):
            batch = corpus[batch_start:batch_start + run.batch_size]
            # each molecule's tape is freed by reference counting after its
            # backward, so the collector has nothing to find in it
            with gc_paused():
                agg = _train_step(store, cfg, batch, run, epoch, rng, lr)
            # the step's gradients are spent; a kept result holds none
            store.zero_grad()
            agg.update(epoch=epoch, step=store.step, lr=lr)
            history.append(agg)
            log.info("step=%d epoch=%d lr=%g recon=%.6f kl=%.6f dist=%.6f "
                     "beta1=%g beta2=%g total=%.6f",
                     store.step, epoch, lr, agg["recon"], agg["kl"],
                     agg["dist"], agg["beta1"], agg["beta2"], agg["total"])
        if run.checkpoint_dir:
            store.save(checkpoint_path(run, epoch))
    return TrainResult(store=store, history=history, config=run)


def resume(run: RunConfig, checkpoint: str,
           corpus: list[ToyMolecule] | None = None) -> TrainResult:
    """Continue a run from an epoch checkpoint written by :func:`train`."""
    store = ParameterStore.load(checkpoint)
    steps_per_epoch = math.ceil(
        max(run.corpus_size if corpus is None else len(corpus), 1) / run.batch_size)
    completed = store.step // steps_per_epoch
    return train(run, store=store, start_epoch=completed, corpus=corpus)
