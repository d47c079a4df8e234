"""Hot geometric kernels, vectorised in numpy."""

from __future__ import annotations

import numpy as np

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


def _rmsd_block(ac: np.ndarray, bc: np.ndarray) -> np.ndarray:
    """Kabsch RMSD of every pair of centred stacks (k, m, 3) x (L, m, 3).

    Every entry comes from its own pair alone: one 3x3 cross-covariance,
    one SVD of the (k, L, 3, 3) stack, a sign fix where the rotation would
    reflect, and the aligned residual ``ac @ R - bc`` summed directly. The
    closed form ``|p|^2 + |q|^2 - 2 sum(sigma)`` would cancel two large terms
    for identical or rigidly moved conformers and the square root would lift
    the rounding residue to ~1e-6 A; the residual gives 0 up to rounding.
    """
    m = ac.shape[1]
    u, _, vt = np.linalg.svd(np.matmul(np.swapaxes(ac, -1, -2)[:, None], bc[None]))
    rot = np.matmul(u, vt)
    flip = np.linalg.det(rot) < 0.0
    if flip.any():
        u[flip, :, -1] *= -1.0
        rot[flip] = np.matmul(u[flip], vt[flip])
    r = np.matmul(ac[:, None], rot) - bc[None]
    return np.sqrt((r * r).reshape(r.shape[0], r.shape[1], -1).sum(axis=-1) / m)


def rmsd_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Kabsch-minimized RMSD between two stacks of conformers.

    ``a`` is (K, m, 3) and ``b`` is (L, m, 3); the result is (K, L). Each
    entry is the RMSD of the aligned residual (see ``_rmsd_block``) and
    depends on its own pair only, so ``rmsd_matrix(a[:k], b)`` equals the
    first k rows of ``rmsd_matrix(a, b)`` bit for bit.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    k, m = a.shape[0], a.shape[1]
    out = np.empty((k, b.shape[0]))
    if out.size == 0:
        return out
    ac = a - a.sum(axis=1, keepdims=True) / m
    bc = b - b.sum(axis=1, keepdims=True) / m
    rows = max(1, _BLOCK_ELEMENTS // max(b.shape[0] * m * 3, 1))
    for start in range(0, k, rows):
        out[start:start + rows] = _rmsd_block(ac[start:start + rows], bc)
    return out
