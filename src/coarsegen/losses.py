"""Training objectives: aligned reconstruction, distance auxiliary loss,
annealed ELBO weighting and the optimal-transport ensemble loss.

The transport plan comes from an exact assignment solve (a numpy Hungarian
method, no LP solver) and is treated as a constant during backpropagation;
gradients flow through the pairwise costs only. The Kabsch alignment inside
the reconstruction term is likewise held fixed, which is exact at the
alignment optimum (envelope theorem). The OT loss is one tape node over the
stacked K x L cost matrix, and its backward runs only the pairs the plan
weighs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import topology
from .autodiff import Tensor, _scatter_rows, as_tensor
from .geometry import _kabsch_rotation, kabsch_align
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


def ot_loss(generated: Tensor, truth, graph: MolecularGraph) -> tuple[Tensor, TransportPlan]:
    """Optimal-transport matching loss between two conformer ensembles.

    ``generated`` is a (K, atoms, 3) path stack; ``truth`` holds L plain
    coordinate arrays. Pair (k, l) costs ``aligned_mse + distance_loss`` of
    generated k against truth l, and the loss is the transport plan's
    weighted sum of the costs, folded over the nonzero weights in row-major
    order.

    One tape node. The forward computes all K x L costs in one stacked pass
    whose slices run the numpy operations of the per-pair functions, so the
    costs, the plan and the loss are theirs bit for bit. The backward runs
    only the pairs the plan weighs, and folds each row's partials in the
    order a tape of per-pair chains adds them: pair by pair in column
    order, each pair's alignment partial before the scatters of its two
    distance gathers. Its gradients are that tape's bit for bit.
    """
    x = generated.data
    truth = np.stack([np.asarray(t.data if isinstance(t, Tensor) else t,
                                 dtype=np.float64) for t in truth])
    n = x.shape[1]
    # alignment term: truth l optimally aligned onto generated k, (K, L, n, 3)
    rot, pc, qc = _kabsch_rotation(truth[None], x[:, None])
    trans = qc - np.swapaxes(np.matmul(rot, np.swapaxes(pc, -1, -2)), -1, -2)
    diff = x[:, None] - (np.matmul(truth, np.swapaxes(rot, -1, -2)) + trans)
    cost = (diff * diff).sum(axis=-1).sum(axis=-1) / float(n)
    # distance term over the 1/2-hop pairs, from C-ordered (K or L, P, 3) gathers
    i, j = topology.hop12_index(graph)
    if len(i):
        dx = x.take(i, axis=1) - x.take(j, axis=1)
        dist = np.sqrt((dx * dx).sum(axis=-1) + _NORM_EPS)
        dt = truth.take(i, axis=1) - truth.take(j, axis=1)
        delta = dist[:, None] - np.sqrt((dt ** 2).sum(axis=-1))
        cost = cost + (delta * delta).sum(axis=-1) / float(len(i))
    plan, _ = emd_solve(cost)
    live_k, live_l = np.nonzero(plan.matrix)
    weights = plan.matrix[live_k, live_l]
    total = np.float64(0.0)
    for c, w in zip(cost[live_k, live_l], weights):
        total = total + c * w

    def bw(g):
        # each live pair's partials, formed as the per-pair ops form them:
        # the cost's gradient g * w through the means, and each square's
        # two mul partials added
        gw = g * weights
        ga = (gw / float(n))[:, None, None] * diff[live_k, live_l]
        parts = [ga + ga]
        if len(i):
            gd = (gw / float(len(i)))[:, None] * delta[live_k, live_l]
            gd = (gd + gd) / (2.0 * dist[live_k])
            gd = gd[..., None] * dx[live_k]
            gd = gd + gd
            parts += [_scatter_rows(gd, i, n, 1), _scatter_rows(-gd, j, n, 1)]
        # rank of each live pair within its row; every row has rank 0
        rank = np.arange(len(live_k)) - np.searchsorted(live_k, live_k)
        out = np.empty(x.shape)
        for r in range(rank.max() + 1):
            at = rank == r
            rows = live_k[at]
            acc = parts[0][at] if r == 0 else out[rows] + parts[0][at]
            for part in parts[1:]:
                acc = acc + part[at]
            out[rows] = acc
        return (out,)

    return Tensor(total, _parents=(generated,), _backward_fn=bw), plan
