"""Hot geometric kernels, vectorised in numpy: the cutoff pair search and
the pairwise RMSD matrix of ensemble evaluation, whose rotations come from
the one Kabsch solver in ``geometry``."""

from __future__ import annotations

import numpy as np

from .geometry import _kabsch_rotation

# Largest (rows, L, m, 3) residual block ``rmsd_matrix`` holds at once, in
# float64 elements (8 MB); rows of ``a`` are processed in blocks under it.
_BLOCK_ELEMENTS = 1 << 20


def pairs_within_cutoff(coords: np.ndarray, cutoff: float) -> np.ndarray:
    """All unordered index pairs (i < j) with Euclidean distance <= cutoff."""
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    diff = coords[:, None, :] - coords[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    i, j = np.triu_indices(n, k=1)
    mask = d2[i, j] <= float(cutoff) * float(cutoff)
    return np.stack([i[mask], j[mask]], axis=1).astype(np.int64)


def rmsd_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Kabsch-minimized RMSD between two stacks of conformers.

    ``a`` is (K, m, 3) and ``b`` is (L, m, 3) with m >= 1; the result is
    (K, L). Each pair's rotation comes from ``geometry._kabsch_rotation``,
    and its RMSD from the aligned residual ``(p - pc) R^T - (q - qc)``
    summed directly. The closed form ``|p|^2 + |q|^2 - 2 sum(sigma)`` would
    cancel two large terms for identical or rigidly moved conformers and the
    square root would lift the rounding residue to ~1e-6 A; the residual
    gives 0 up to rounding. Each entry depends on its own pair only, so
    ``rmsd_matrix(a[:k], b)`` equals the first k rows of
    ``rmsd_matrix(a, b)`` bit for bit.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if (a.ndim != 3 or b.ndim != 3 or a.shape[1:] != b.shape[1:]
            or a.shape[2] != 3 or a.shape[1] < 1):
        raise ValueError("rmsd_matrix needs two (., m, 3) stacks with the same "
                         f"m >= 1, got {a.shape} and {b.shape}")
    k, l, m = a.shape[0], b.shape[0], a.shape[1]
    out = np.empty((k, l))
    if out.size == 0:
        return out
    q = b[None]
    rows = max(1, _BLOCK_ELEMENTS // (l * m * 3))
    for start in range(0, k, rows):
        p = a[start:start + rows, None]
        rot, pc, qc = _kabsch_rotation(p, q)
        r = np.matmul(p - pc, np.swapaxes(rot, -1, -2)) - (q - qc)
        out[start:start + rows] = np.sqrt((r * r).reshape(r.shape[0], l, -1).sum(axis=-1) / m)
    return out
