"""Coarse-grained variational conformer generation toolkit.

Torsion-based coarse-graining of molecular graphs, a rotation/translation
equivariant hierarchical variational autoencoder with attention-based
backmapping, aligned and optimal-transport training losses, and ensemble
quality metrics — all on a small custom reverse-mode autodiff engine.
"""

from .autodiff import Tensor, backward
from .coarsen import (CGMapping, build_bead_graph, coarse_grain,
                      find_rotatable_bonds, order_beads)
from .corpus import ToyMolecule, make_corpus
from .decoder import (channel_selection, decode, decode_blocks, generate,
                      generate_ensemble)
from .encoder import encode, encode_reference
from .geometry import Alignment, aligned_rmsd, kabsch_align, random_rotation
from .latent import (GaussianLatent, kl_divergence, posterior_params,
                     prior_params, sample)
from .losses import (LossWeights, TransportPlan, aligned_mse, distance_loss,
                     elbo_loss, emd_solve, ot_loss)
from .metrics import (EnsembleReport, budget_sweep, ensemble_report,
                      error_histogram)
from .molio import (Atom, Bond, Conformer, MolecularGraph, ParseError,
                    build_graph, parse_sdf, parse_xyz, write_conformer)
from .nn import ModelConfig
from .params import ParameterStore
from .train import RunConfig, TrainResult, resume, train

__version__ = "0.1.0"

__all__ = [
    "Alignment", "Atom", "Bond", "CGMapping", "Conformer", "EnsembleReport",
    "GaussianLatent", "LossWeights", "ModelConfig", "MolecularGraph",
    "ParameterStore", "ParseError", "RunConfig", "Tensor", "ToyMolecule",
    "TrainResult", "TransportPlan", "aligned_mse", "aligned_rmsd", "backward",
    "budget_sweep", "build_bead_graph", "build_graph",
    "channel_selection", "coarse_grain", "decode", "decode_blocks",
    "distance_loss", "elbo_loss", "emd_solve", "encode",
    "encode_reference", "ensemble_report", "error_histogram",
    "find_rotatable_bonds", "generate", "generate_ensemble",
    "kabsch_align", "kl_divergence", "make_corpus", "order_beads", "ot_loss",
    "parse_sdf", "parse_xyz", "posterior_params", "prior_params",
    "random_rotation", "resume", "sample", "train", "write_conformer",
]
