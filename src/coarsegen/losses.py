"""Training objectives: aligned reconstruction, distance auxiliary loss,
annealed ELBO weighting and the optimal-transport ensemble loss.

The transport plan comes from an exact assignment solve (a numpy Hungarian
method, no LP solver) and is treated as a constant during backpropagation;
gradients flow through the pairwise costs only. The Kabsch alignment inside
the reconstruction term is likewise held fixed, which is exact at the
alignment optimum (envelope theorem).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost assignment of a square matrix.

    The Hungarian method (Kuhn 1955) in its shortest-augmenting-path form:
    rows join one at a time, and dual potentials ``u`` (rows) and ``v``
    (columns) keep every reduced cost nonnegative. Index 0 of ``v``,
    ``row_of`` and ``way`` is a virtual column holding the row that joins;
    rows and columns are 1-based in those arrays. O(n^3), one vectorized
    pass over the columns per augmenting-path step.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    row_of = np.zeros(n + 1, dtype=np.intp)   # 0: column is unassigned
    way = np.zeros(n + 1, dtype=np.intp)      # previous column on the path
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            cur = np.full(n + 1, np.inf)
            cur[1:] = cost[i0 - 1] - u[i0] - v[1:]
            better = ~used & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            reach = np.where(used, np.inf, minv)
            j1 = int(np.argmin(reach))
            delta = reach[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    cols = np.empty(n, dtype=np.intp)
    cols[row_of[1:] - 1] = np.arange(n)
    return cols


def emd_solve(cost: np.ndarray) -> tuple[TransportPlan, float]:
    """Exact Earth Mover Distance between uniform marginals.

    Minimizes sum(T * cost) over nonnegative T with row sums 1/K and column
    sums 1/L. With m = lcm(K, L) that problem has an optimal vertex with
    entries in multiples of 1/m, so it is solved as an m x m assignment:
    each row repeated m/K times and each column m/L times. A K x K cost
    gives a permutation matrix divided by K. The work grows as m^3.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] < 1 or cost.shape[1] < 1:
        raise ValueError("cost must be a nonempty K x L matrix")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost entries must be finite")
    k, l = cost.shape
    m = math.lcm(k, l)
    cols = _assignment(np.repeat(np.repeat(cost, m // k, axis=0), m // l, axis=1))
    counts = np.zeros((k, l))
    np.add.at(counts, (np.arange(m) // (m // k), cols // (m // l)), 1.0)
    plan = counts / m
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
