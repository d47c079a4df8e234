"""Rigid-body alignment via the SVD-based Kabsch solution.

``_kabsch_rotation`` is the package's one Kabsch solver: ``kabsch_align``,
the training losses and ``kernels.rmsd_matrix`` all take their rotation
from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Alignment:
    rotation: np.ndarray       # 3 x 3, det = +1
    translation: np.ndarray    # 3-vector
    rmsd: float

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points @ self.rotation.T + self.translation


def kabsch_align(p: np.ndarray, q: np.ndarray) -> Alignment:
    """Optimal rigid motion mapping point set ``p`` onto ``q``.

    Returns rotation R (always a proper rotation, det = +1), translation t
    and the minimized RMSD of ``R p + t`` against ``q``. For degenerate
    inputs (coincident or collinear points) the motion is not unique; the
    one returned is still optimal.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 2 or p.shape[1] != 3:
        raise ValueError("point sets must share an m x 3 shape")
    m = p.shape[0]
    if m < 1:
        raise ValueError("need at least one point")

    rot, pc, qc = _kabsch_rotation(p, q)
    pc, qc = pc[0], qc[0]
    trans = qc - rot @ pc

    aligned = (p - pc) @ rot.T + qc
    rmsd = float(np.sqrt(np.mean(np.sum((aligned - q) ** 2, axis=1))))
    return Alignment(rot, trans, rmsd)


def _kabsch_rotation(p: np.ndarray, q: np.ndarray):
    """Kabsch rotation of ``p`` onto ``q`` for (..., m, 3) stacks, which
    broadcast against each other: (rotation, centroid of ``p``, centroid of
    ``q``), the centroids with the point axis kept.

    Each slice runs the numpy operations of a single (m, 3) pair, so it is
    bit-equal to the unstacked call.
    """
    pc = p.mean(axis=-2, keepdims=True)
    qc = q.mean(axis=-2, keepdims=True)
    h = np.matmul(np.swapaxes(p - pc, -1, -2), q - qc)
    u, _, vt = np.linalg.svd(h)
    v, ut = np.swapaxes(vt, -1, -2), np.swapaxes(u, -1, -2)
    corr = np.zeros(h.shape)
    corr[..., 0, 0] = corr[..., 1, 1] = 1.0
    corr[..., 2, 2] = np.sign(np.linalg.det(np.matmul(v, ut)))
    return np.matmul(np.matmul(v, corr), ut), pc, qc


def aligned_rmsd(p: np.ndarray, q: np.ndarray) -> float:
    """Kabsch-minimized RMSD between two point sets."""
    return kabsch_align(p, q).rmsd


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (QR of a Gaussian matrix, det fixed)."""
    a = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
