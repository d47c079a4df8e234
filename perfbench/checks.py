"""Output checks of the benchmark, made apart from the program under test.

Every check is a pure function of the program's outputs that returns a list
of failure messages (empty when the check passes). None of them imports
``coarsegen``: each one tests a property the method must have, or compares
against a computation of its own (the RMSD here uses Horn's quaternion
method, the program uses an SVD). ``test_checks.py`` feeds each check a
wrong answer and requires it to fail.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# A conformer scored against itself, or an RMSD entry against the
# independent implementation, may differ by rounding only.
RMSD_TOL = 1e-9
# V2000 coordinates carry 4 decimals, so a round trip moves a coordinate by
# at most half a unit in the last place, plus the binary rounding of the
# printed value.
SDF_TOL = 5e-5 + 1e-12
# Relative error of a central difference at h = 1e-6 against the backward
# gradient; a wrong gradient term moves it by orders of magnitude more.
FD_TOL = 1e-5
# Equivariance tolerance of ``coarsegen equivcheck`` for the generation path.
EQUIV_TOL = 1e-6
# KL is nonnegative; a posterior equal to the prior may round below zero.
KL_ROUNDING = -1e-12


# -- training ---------------------------------------------------------------

def check_terms(history: list[dict]) -> list[str]:
    """Finite terms, kl/recon/dist >= 0, total = recon + b1*kl + b2*dist."""
    bad = []
    for k, h in enumerate(history):
        terms = [h[key] for key in ("recon", "kl", "dist", "total", "beta1", "beta2")]
        if not all(math.isfinite(v) for v in terms):
            bad.append(f"step {k}: non-finite term in {h}")
            continue
        if h["kl"] < KL_ROUNDING or h["recon"] < 0.0 or h["dist"] < 0.0:
            bad.append(f"step {k}: negative term kl={h['kl']!r} "
                       f"recon={h['recon']!r} dist={h['dist']!r}")
        weighted = h["recon"] + h["beta1"] * h["kl"] + h["beta2"] * h["dist"]
        scale = abs(h["recon"]) + abs(h["beta1"] * h["kl"]) + abs(h["beta2"] * h["dist"])
        if abs(h["total"] - weighted) > 1e-12 * max(scale, 1.0):
            bad.append(f"step {k}: total {h['total']!r} != weighted sum {weighted!r}")
    return bad


def check_descent(history: list[dict], key: str, steps_per_epoch: int) -> list[str]:
    """The mean of ``key`` over the last epoch is below that of the first."""
    first = np.mean([h[key] for h in history[:steps_per_epoch]])
    last = np.mean([h[key] for h in history[-steps_per_epoch:]])
    if not last < first:
        return [f"{key} did not fall: first epoch {first!r}, last epoch {last!r}"]
    return []


def check_rounds_identical(histories: list[list[dict]]) -> list[str]:
    """Repeated runs with the same seed give bit-identical loss histories."""
    bad = []
    for r, h in enumerate(histories[1:], start=1):
        if h != histories[0]:
            bad.append(f"round {r} history differs from round 0")
    return bad


def check_directional_derivative(fd: float, analytic: float) -> list[str]:
    """Central difference along a direction matches the backward gradient."""
    denom = max(abs(fd), abs(analytic), 1e-12)
    rel = abs(fd - analytic) / denom
    if not rel < FD_TOL:
        return [f"directional derivative fd={fd!r} backward={analytic!r} rel={rel:.3e}"]
    return []


def check_transport(cost: np.ndarray, plan: np.ndarray, value: float) -> list[str]:
    """A square uniform plan is optimal: its cost equals the best of all
    assignments divided by K, and its marginals are 1/K."""
    bad = []
    k, l = cost.shape
    if k != l:
        return [f"expected a square cost matrix, got {cost.shape}"]
    brute = min(sum(cost[i, p[i]] for i in range(k))
                for p in itertools.permutations(range(k))) / k
    own = float((plan * cost).sum())
    scale = max(abs(brute), 1.0)
    for label, v in (("plan cost", own), ("returned value", value)):
        if abs(v - brute) > 1e-9 * scale:
            bad.append(f"{label} {v!r} != brute-force optimum {brute!r}")
    if plan.min() < -1e-12:
        bad.append(f"negative plan entry {plan.min()!r}")
    rows = np.abs(plan.sum(axis=1) - 1.0 / k).max()
    cols = np.abs(plan.sum(axis=0) - 1.0 / l).max()
    if rows > 1e-9 or cols > 1e-9:
        bad.append(f"plan marginals off by rows {rows:.3e} cols {cols:.3e}")
    return bad


# -- sampling and evaluation -------------------------------------------------

def check_coordinates(coords: list[np.ndarray], n_atoms: int) -> list[str]:
    bad = []
    for k, c in enumerate(coords):
        if c.shape != (n_atoms, 3):
            bad.append(f"conformer {k}: shape {c.shape}, expected ({n_atoms}, 3)")
        elif not np.all(np.isfinite(c)):
            bad.append(f"conformer {k}: non-finite coordinates")
    return bad


def check_equivariance(base: np.ndarray, moved: np.ndarray, rot: np.ndarray,
                       shift: np.ndarray) -> list[str]:
    """Moving the reference (noise co-rotated) moves the sample the same way."""
    want = base @ rot.T + shift
    rel = float(np.abs(moved - want).max()) / max(float(np.abs(want).max()), 1e-12)
    if not rel < EQUIV_TOL:
        return [f"equivariance error {rel:.3e} >= {EQUIV_TOL:g}"]
    return []


def check_sdf_roundtrip(written: list[np.ndarray], parsed: list[np.ndarray],
                        elements: list[str], parsed_elements: list[list[str]]) -> list[str]:
    bad = []
    if len(written) != len(parsed):
        return [f"wrote {len(written)} records, parsed {len(parsed)}"]
    for k, (w, p, el) in enumerate(zip(written, parsed, parsed_elements)):
        if el != elements:
            bad.append(f"record {k}: element list changed")
        err = float(np.abs(w - p).max())
        if not err <= SDF_TOL:
            bad.append(f"record {k}: round trip moved a coordinate by {err:.3e} A")
    return bad


def _quat_rotation(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z]])


def horn_rmsd(p: np.ndarray, q: np.ndarray) -> float:
    """Minimal RMSD over rigid motions, by Horn's quaternion method.

    The optimal rotation is the top eigenvector of Horn's 4x4 matrix; the
    RMSD is taken from the residual of the rotated points rather than from
    the eigenvalue, which would cancel to ~1e-8 for identical inputs.
    """
    pc = p - p.mean(axis=0)
    qc = q - q.mean(axis=0)
    s = pc.T @ qc
    sxx, sxy, sxz = s[0]
    syx, syy, syz = s[1]
    szx, szy, szz = s[2]
    n = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz]])
    _, vecs = np.linalg.eigh(n)
    r = pc @ _quat_rotation(vecs[:, -1]).T - qc
    return float(np.sqrt((r * r).sum() / p.shape[0]))


def own_rmsd_matrix(generated: list[np.ndarray], truth: list[np.ndarray]) -> np.ndarray:
    return np.array([[horn_rmsd(g, t) for t in truth] for g in generated])


def check_rmsd_matrix(matrix: np.ndarray, own: np.ndarray) -> list[str]:
    if matrix.shape != own.shape:
        return [f"RMSD matrix shape {matrix.shape}, expected {own.shape}"]
    err = float(np.abs(matrix - own).max())
    if not err <= RMSD_TOL:
        k, l = np.unravel_index(np.abs(matrix - own).argmax(), own.shape)
        return [f"RMSD[{k},{l}] = {matrix[k, l]!r}, own {own[k, l]!r} (diff {err:.3e})"]
    return []


def check_report(report, own: np.ndarray, delta: float) -> list[str]:
    """Coverage and AMR in both directions agree with the own RMSD matrix."""
    bad = []
    min_gen, min_truth = own.min(axis=1), own.min(axis=0)
    for label, got, want in (("amr_precision", report.amr_precision, min_gen.mean()),
                             ("amr_recall", report.amr_recall, min_truth.mean())):
        if abs(got - want) > RMSD_TOL:
            bad.append(f"{label} {got!r} != {want!r}")
    # an entry within rounding of the threshold may fall on either side
    for label, got, mins in (("cov_precision", report.cov_precision, min_gen),
                             ("cov_recall", report.cov_recall, min_truth)):
        lo = 100.0 * np.mean(mins < delta - RMSD_TOL)
        hi = 100.0 * np.mean(mins < delta + RMSD_TOL)
        if not lo - 1e-9 <= got <= hi + 1e-9:
            bad.append(f"{label} {got!r} outside [{lo!r}, {hi!r}]")
    return bad


def check_budget_sweep(budgets: list[int], reports: list, full) -> list[str]:
    """Recall never falls and AMR-recall never rises as the budget grows;
    the full budget reproduces the full report."""
    bad = []
    for k in range(1, len(reports)):
        a, b = reports[k - 1], reports[k]
        if b.cov_recall < a.cov_recall:
            bad.append(f"cov_recall fell from budget {budgets[k - 1]} to {budgets[k]}")
        if b.amr_recall > a.amr_recall:
            bad.append(f"amr_recall rose from budget {budgets[k - 1]} to {budgets[k]}")
    last = reports[-1]
    same = (np.array_equal(last.rmsd_matrix, full.rmsd_matrix)
            and (last.cov_precision, last.cov_recall, last.amr_precision, last.amr_recall)
            == (full.cov_precision, full.cov_recall, full.amr_precision, full.amr_recall))
    if not same:
        bad.append("full-budget report differs from ensemble_report")
    return bad


def check_self_match(report) -> list[str]:
    """An ensemble scored against itself: zero AMR and full coverage."""
    bad = []
    if not (report.amr_recall < RMSD_TOL and report.amr_precision < RMSD_TOL):
        bad.append(f"self-match AMR {report.amr_recall!r}/{report.amr_precision!r}")
    if report.cov_recall != 100.0 or report.cov_precision != 100.0:
        bad.append(f"self-match coverage {report.cov_recall}/{report.cov_precision}")
    return bad
