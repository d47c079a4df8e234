"""Self-verification suites: SE(3) equivariance of the encoder and the full
generation path, and central finite-difference validation of every named
parameter array. Used by the command-line interface and the test suite."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import topology
from .autodiff import backward, no_grad
from .coarsen import coarse_grain
from .corpus import ToyMolecule, make_corpus
from .decoder import generate
from .encoder import encode_reference
from .geometry import random_rotation
from .losses import LossWeights
from .molio import Atom, Bond, Conformer, build_graph
from .nn import ModelConfig
from .params import ParameterStore
from .train import RunConfig, molecule_loss


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.abs(want).max()), 1e-12)
    return float(np.abs(got - want).max()) / scale


@dataclass
class EquivarianceReport:
    latent_max_rel: float
    generate_max_rel: float
    latent_tol: float = 1e-8
    generate_tol: float = 1e-6
    n_cases: int = 0

    @property
    def passed(self) -> bool:
        return (self.n_cases > 0
                and self.latent_max_rel < self.latent_tol
                and self.generate_max_rel < self.generate_tol)

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"equivariance [{status}] cases={self.n_cases} "
                f"latent_max_rel={self.latent_max_rel:.3e} (tol {self.latent_tol:g}) "
                f"generate_max_rel={self.generate_max_rel:.3e} (tol {self.generate_tol:g})")


def equivariance_check(seed: int = 0, n_molecules: int = 20,
                       n_motions: int = 10) -> EquivarianceReport:
    """Rotate+translate inputs and compare against the co-rotated baseline.

    The sampling noise is co-rotated with the inputs, since a matched-seed
    draw is only equivalent up to the rotation of the isotropic noise. No
    tape is recorded (:func:`~coarsegen.autodiff.no_grad`). The model is a
    small one (D=8, F=4, two layers) with fresh weights.
    """
    cfg = ModelConfig(hidden_dim=8, latent_channels=4, layers=2)
    store = ParameterStore(seed=seed)
    rng = np.random.default_rng(seed)
    corpus = make_corpus(n_molecules, seed + 1)

    lat_max = 0.0
    gen_max = 0.0
    cases = 0
    with no_grad():
        for mol in corpus:
            graph, mapping = mol.graph, mol.mapping
            ref = mol.ref.coords
            order = topology.bead_order(graph, mapping, cfg.aux_cutoff)
            z_base = encode_reference(store, cfg, graph, mapping, ref).data
            noise = rng.standard_normal(z_base.shape)
            base = generate(store, cfg, graph, mapping, ref, order, rng,
                            mode="ar", noise=noise).coords
            for _ in range(n_motions):
                rot = random_rotation(rng)
                shift = rng.uniform(-10.0, 10.0, size=3)
                moved = ref @ rot.T + shift
                z_moved = encode_reference(store, cfg, graph, mapping, moved).data
                lat_max = max(lat_max, _rel_err(z_moved, z_base @ rot.T))
                out = generate(store, cfg, graph, mapping, moved, order, rng,
                               mode="ar", noise=noise @ rot.T).coords
                gen_max = max(gen_max, _rel_err(out, base @ rot.T + shift))
                cases += 1
    return EquivarianceReport(latent_max_rel=lat_max, generate_max_rel=gen_max,
                              n_cases=cases)


@dataclass
class GradientReport:
    n_params: int = 0
    n_entries: int = 0
    max_rel: float = 0.0
    tol: float = 1e-4
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        head = (f"gradients [{status}] params={self.n_params} "
                f"entries={self.n_entries} max_rel={self.max_rel:.3e} (tol {self.tol:g})")
        return "\n".join([head] + [f"  FAIL {f}" for f in self.failures[:20]])


def _micro_instance(seed: int) -> ToyMolecule:
    """A 4-atom heavy-atom chain (2 beads) with random finite coordinates."""
    rng = np.random.default_rng(seed)
    atoms = [Atom("C", 0, 1), Atom("C", 0, 2), Atom("O", 0, 2), Atom("C", 0, 1)]
    bonds = [Bond(0, 1), Bond(1, 2), Bond(2, 3)]
    base = np.array([[0.0, 0, 0], [1.5, 0, 0], [2.3, 1.2, 0], [3.8, 1.2, 0.4]])
    gt = base + 0.1 * rng.standard_normal(base.shape)
    ref = base + 0.1 * rng.standard_normal(base.shape)
    graph = build_graph(atoms, bonds, Conformer(ref))
    mapping = coarse_grain(graph, Conformer(ref))
    return ToyMolecule(graph, Conformer(gt), Conformer(ref), [], mapping)


def gradient_check(seed: int = 0, h: float = 1e-5, tol: float = 1e-4,
                   entries_per_param: int = 2) -> GradientReport:
    """Central finite differences against backpropagated gradients.

    Every named parameter array is probed at ``entries_per_param`` random
    entries of the ``elbo-ar`` training loss
    (:func:`~coarsegen.train.molecule_loss`) on a randomized micro-instance.
    """
    cfg = ModelConfig(hidden_dim=8, latent_channels=4, layers=2)
    run = RunConfig(preset="elbo-ar", weights=LossWeights(beta1=1e-2, beta2=0.5))
    store = ParameterStore(seed=seed)
    mol = _micro_instance(seed + 7)

    def loss_value(grad: bool = False) -> float:
        # a fresh stream per evaluation draws the same latent noise each time
        total, _ = molecule_loss(store, cfg, mol, run, 0,
                                 np.random.default_rng(seed + 11))
        if grad:
            backward(total)
        return float(total.data)

    store.zero_grad()
    loss_value(grad=True)
    analytic = {n: (t.grad.copy() if t.grad is not None
                    else np.zeros_like(t.data))
                for n, t in store.params.items()}

    rng = np.random.default_rng(seed + 13)
    report = GradientReport(tol=tol)
    for name in store.names():
        t = store.params[name]
        flat = t.data.reshape(-1)
        n_probe = min(entries_per_param, flat.size)
        idx = rng.choice(flat.size, size=n_probe, replace=False)
        for k in idx:
            orig = flat[k]
            flat[k] = orig + h
            up = loss_value()
            flat[k] = orig - h
            down = loss_value()
            flat[k] = orig
            fd = (up - down) / (2.0 * h)
            an = float(analytic[name].reshape(-1)[k])
            denom = max(abs(fd), abs(an), 1e-6)
            rel = abs(fd - an) / denom
            report.n_entries += 1
            report.max_rel = max(report.max_rel, rel)
            if rel >= tol:
                report.failures.append(
                    f"{name}[{k}] fd={fd:.8g} analytic={an:.8g} rel={rel:.3e}")
        report.n_params += 1
    return report
