"""Training objectives: aligned reconstruction, distance auxiliary loss,
annealed ELBO weighting and the optimal-transport ensemble loss.

The transport plan comes from an exact LP solve (HiGHS) and is treated as a
constant during backpropagation; gradients flow through the pairwise costs
only. The Kabsch alignment inside the reconstruction term is likewise held
fixed, which is exact at the alignment optimum (envelope theorem).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from . import topology
from .autodiff import Tensor, as_tensor
from .geometry import kabsch_align
from .molio import MolecularGraph

_NORM_EPS = 1e-12

# KL-weight ladder of the elbo-annealed preset: 1e-6 at epoch 0, x10 per
# epoch, capped at 0.1
ANNEAL_START = 1e-6
ANNEAL_FACTOR = 10.0
ANNEAL_CAP = 1e-1


@dataclass
class LossWeights:
    beta1: float = 1e-3            # KL weight (elbo-annealed uses the ladder)
    beta2: float = 0.5             # distance-loss weight


def annealed_beta1(epoch: int) -> float:
    """The ladder's KL weight at ``epoch``."""
    return float(min(ANNEAL_START * ANNEAL_FACTOR ** epoch, ANNEAL_CAP))


@dataclass
class TransportPlan:
    matrix: np.ndarray     # K x L, nonnegative, uniform marginals

    def check_marginals(self, tol: float = 1e-9) -> bool:
        k, l = self.matrix.shape
        rows = np.abs(self.matrix.sum(axis=1) - 1.0 / k).max()
        cols = np.abs(self.matrix.sum(axis=0) - 1.0 / l).max()
        return bool(rows <= tol and cols <= tol)


def aligned_mse(x_model, x_true) -> Tensor:
    """Mean squared per-atom error after optimally aligning truth onto model.

    Equals the squared Kabsch RMSD. The alignment is computed from current
    values and held constant for gradients (exact at the optimum).
    """
    x_model = as_tensor(x_model)
    truth = np.asarray(x_true.data if isinstance(x_true, Tensor) else x_true,
                       dtype=np.float64)
    aligned = kabsch_align(truth, x_model.data).apply(truth)
    diff = x_model - Tensor(aligned)
    return (diff * diff).sum(axis=1).mean()


def distance_loss(x, x_true, graph: MolecularGraph) -> Tensor:
    """Mean squared deviation of 1/2-hop distances from their true values."""
    i, j = topology.hop12_index(graph)
    if not len(i):
        return Tensor(0.0)
    x = as_tensor(x)
    truth = np.asarray(x_true.data if isinstance(x_true, Tensor) else x_true,
                       dtype=np.float64)
    diff = x[i] - x[j]
    dist = ((diff * diff).sum(axis=1) + _NORM_EPS).sqrt()
    true_dist = np.sqrt(((truth[i] - truth[j]) ** 2).sum(axis=1))
    delta = dist - Tensor(true_dist)
    return (delta * delta).mean()


def elbo_loss(recon: Tensor, kl: Tensor, dist: Tensor, b1: float,
              b2: float) -> tuple[Tensor, dict[str, float]]:
    """Weighted total ``recon + b1 * kl + b2 * dist`` plus a per-term
    breakdown for the training log."""
    total = recon + b1 * kl + b2 * dist
    breakdown = {
        "recon": float(recon.data),
        "kl": float(kl.data),
        "dist": float(dist.data),
        "beta1": b1,
        "beta2": b2,
        "total": float(total.data),
    }
    return total, breakdown


def emd_solve(cost: np.ndarray) -> tuple[TransportPlan, float]:
    """Exact Earth Mover Distance between uniform marginals.

    Minimizes sum(T * cost) over nonnegative T with row sums 1/K and column
    sums 1/L, via the HiGHS dual-simplex LP solver (vertex solutions, exact
    to floating-point resolution).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] < 1 or cost.shape[1] < 1:
        raise ValueError("cost must be a nonempty K x L matrix")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost entries must be finite")
    k, l = cost.shape
    if k == 1 and l == 1:
        return TransportPlan(np.ones((1, 1))), float(cost[0, 0])

    a_eq = np.zeros((k + l, k * l))
    b_eq = np.zeros(k + l)
    for r in range(k):
        a_eq[r, r * l:(r + 1) * l] = 1.0
        b_eq[r] = 1.0 / k
    for c in range(l):
        a_eq[k + c, c::l] = 1.0
        b_eq[k + c] = 1.0 / l
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(k, l)
    return TransportPlan(plan), float(np.sum(plan * cost))


def pairwise_cost(generated, truth, graph: MolecularGraph) -> list[list[Tensor]]:
    """Per-pair cost aligned_mse + distance_loss as differentiable tensors."""
    return [[aligned_mse(g, t) + distance_loss(g, t, graph) for t in truth]
            for g in generated]


def ot_loss(generated, truth, graph: MolecularGraph) -> tuple[Tensor, TransportPlan]:
    """Optimal-transport matching loss between two conformer ensembles.

    ``generated`` may contain tape tensors (gradients flow through the
    costs); ``truth`` entries are plain coordinate arrays.
    """
    costs = pairwise_cost(generated, truth, graph)
    cost_values = np.array([[float(c.data) for c in row] for row in costs])
    plan, _ = emd_solve(cost_values)
    total = Tensor(0.0)
    for ki, row in enumerate(costs):
        for li, c in enumerate(row):
            w = plan.matrix[ki, li]
            if w != 0.0:
                total = total + w * c
    return total, plan
