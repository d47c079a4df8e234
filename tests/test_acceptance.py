"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints a single PASS/FAIL summary line (bypassing output
capture, so the lines appear in any pytest run). The slow training criterion
is the longest and finishes within its ten-minute budget.
"""

import itertools
import time

import numpy as np
import pytest

from coarsegen import topology
from coarsegen.checks import equivariance_check, gradient_check
from coarsegen.coarsen import coarse_grain, find_rotatable_bonds
from coarsegen.corpus import make_corpus
from coarsegen.decoder import generate
from coarsegen.encoder import center, encode, encode_reference
from coarsegen.geometry import aligned_rmsd, kabsch_align, random_rotation
from coarsegen.latent import prior_params
from coarsegen.losses import emd_solve
from coarsegen.metrics import budget_sweep, ensemble_report
from coarsegen.molio import Atom, Bond, MolecularGraph
from coarsegen.train import RunConfig, train


_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _line(name: str, ok: bool, detail: str) -> None:
    text = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    if _CAPSYS is not None:        # bypass capture so the line always shows
        with _CAPSYS.disabled():
            print(text)
    else:  # pragma: no cover
        print(text)


class TestAcceptance:
    def test_1_equivariance(self):
        t0 = time.perf_counter()
        report = equivariance_check(seed=0, n_molecules=20, n_motions=10)
        elapsed = time.perf_counter() - t0
        ok = report.passed and elapsed < 60.0
        _line("equivariance", ok,
              f"cases={report.n_cases} latent={report.latent_max_rel:.3e} "
              f"(tol 1e-8) generate={report.generate_max_rel:.3e} (tol 1e-6) "
              f"time={elapsed:.1f}s (limit 60s)")
        assert ok

    def test_2_gradients(self):
        t0 = time.perf_counter()
        report = gradient_check(seed=0, h=1e-5, tol=1e-4)
        elapsed = time.perf_counter() - t0
        ok = report.passed and elapsed < 120.0
        _line("gradients", ok,
              f"params={report.n_params} entries={report.n_entries} "
              f"max_rel={report.max_rel:.3e} (tol 1e-4) "
              f"time={elapsed:.1f}s (limit 120s)")
        assert ok

    def test_3_alignment_optimality(self):
        rng = np.random.default_rng(0)
        rotations = np.stack([random_rotation(rng) for _ in range(10_000)])
        worst_gap = -np.inf
        min_det = np.inf
        for _ in range(200):
            a = rng.standard_normal((8, 3))
            b = rng.standard_normal((8, 3))
            # force half the pairs into reflection-favoring territory
            if rng.random() < 0.5:
                b = a @ np.diag([1.0, 1.0, -1.0]) + 0.1 * b
            align = kabsch_align(a, b)
            min_det = min(min_det, float(np.linalg.det(align.rotation)))
            exact = aligned_rmsd(a, b)
            ac = a - a.mean(axis=0)
            bc = b - b.mean(axis=0)
            trial = np.einsum("rij,nj->rni", rotations, ac)
            best_random = np.sqrt(((trial - bc) ** 2).sum(axis=(1, 2)) / 8).min()
            worst_gap = max(worst_gap, exact - best_random)
        ok = worst_gap <= 1e-9 and min_det > 1.0 - 1e-9
        _line("alignment-optimality", ok,
              f"pairs=200 rotations=10000 max(exact - best_random)="
              f"{worst_gap:.3e} min_det={min_det:.9f}")
        assert ok

    def test_4_transport_exactness(self):
        rng = np.random.default_rng(1)
        max_err = 0.0
        for trial in range(100):
            n = int(rng.integers(1, 5))
            cost = rng.uniform(0, 10, size=(n, n))
            _, value = emd_solve(cost)
            best = min(sum(cost[i, p] for i, p in enumerate(perm)) / n
                       for perm in itertools.permutations(range(n)))
            max_err = max(max_err, abs(value - best))
        max_marg = 0.0
        for shape in [(2, 3), (3, 2), (4, 2), (2, 4), (3, 4), (4, 4), (1, 3)]:
            plan, _ = emd_solve(rng.uniform(0, 10, size=shape))
            k, l = plan.matrix.shape
            max_marg = max(max_marg,
                           np.abs(plan.matrix.sum(axis=1) - 1.0 / k).max(),
                           np.abs(plan.matrix.sum(axis=0) - 1.0 / l).max())
        ok = max_err < 1e-9 and max_marg < 1e-9
        _line("transport-exactness", ok,
              f"instances=100 max_value_err={max_err:.3e} (tol 1e-9) "
              f"max_marginal_err={max_marg:.3e} (tol 1e-9)")
        assert ok

    def test_5_ensemble_metrics(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 3))
        b = a * 5.0 + rng.standard_normal((5, 3))
        d = aligned_rmsd(b, a)
        rep_same = ensemble_report([a, b], [a, b], delta=0.5)
        rep_half = ensemble_report([a, b], [a], delta=0.5)
        rep_inf = ensemble_report([a], [b], delta=np.inf)
        hand_ok = (rep_same.cov_precision == 100.0
                   and rep_same.cov_recall == 100.0
                   and rep_same.amr_precision < 1e-6
                   and rep_half.cov_precision == 50.0
                   and rep_half.cov_recall == 100.0
                   and abs(rep_half.amr_precision - d / 2.0) < 1e-6
                   and rep_half.amr_recall < 1e-6
                   and rep_inf.cov_precision == 100.0)
        mono_ok = True
        for trial in range(50):
            trng = np.random.default_rng(100 + trial)
            pool = [trng.standard_normal((4, 3)) for _ in range(8)]
            truth = [trng.standard_normal((4, 3)) for _ in range(3)]
            reps = budget_sweep(pool, truth, [1, 2, 4, 8], delta=1.5)
            recalls = [r.cov_recall for r in reps]
            amrs = [r.amr_recall for r in reps]
            mono_ok &= all(x <= y + 1e-12 for x, y in zip(recalls, recalls[1:]))
            mono_ok &= all(x >= y - 1e-12 for x, y in zip(amrs, amrs[1:]))
        ok = hand_ok and mono_ok
        _line("ensemble-metrics", ok,
              f"hand_cases={'ok' if hand_ok else 'FAIL'} "
              f"recall_monotone_50_pools={'ok' if mono_ok else 'FAIL'}")
        assert ok

    def test_6_coarse_graining(self):
        corpus = make_corpus(200, 0)
        bead_ok = all(m.mapping.n_beads == len(find_rotatable_bonds(m.graph)) + 1
                      for m in corpus)

        def graph_of(elements, bonds):
            deg = [0] * len(elements)
            for b in bonds:
                deg[b.i] += 1
                deg[b.j] += 1
            atoms = [Atom(el, 0, deg[k]) for k, el in enumerate(elements)]
            return MolecularGraph(atoms, bonds)

        ethane = graph_of(["C", "C"], [Bond(0, 1)])
        butane = graph_of(["C"] * 4, [Bond(i, i + 1) for i in range(3)])
        acetamide = graph_of(["C", "C", "O", "N"],
                             [Bond(0, 1), Bond(1, 2, "double"), Bond(1, 3)])
        hand_ok = (find_rotatable_bonds(ethane) == []
                   and find_rotatable_bonds(butane) == [1]
                   and find_rotatable_bonds(acetamide) == [])
        ok = bead_ok and hand_ok
        _line("coarse-graining", ok,
              f"corpus=200 beads_equal_rotatable_plus_one="
              f"{'ok' if bead_ok else 'FAIL'} "
              f"hand_cases={'ok' if hand_ok else 'FAIL'}")
        assert ok

    def test_7_training_improves_on_reference(self):
        t0 = time.perf_counter()
        corpus = make_corpus(10, 0, sigma=0.3)

        # objective A: posterior-free generation beats the distorted reference
        run_ar = RunConfig(preset="elbo-ar", epochs=100, lr=5e-3, lr_decay=1.0,
                           batch_size=1, seed=0, layers=2, hidden_dim=16,
                           latent_channels=8, optimizer="adam")
        result = train(run_ar, corpus=corpus)
        steps = result.store.step
        gen_err, ref_err = [], []
        rng = np.random.default_rng(123)
        cfg = run_ar.model_config()
        for mol in corpus:
            order = topology.bead_order(mol.graph, mol.mapping, cfg.aux_cutoff)
            conf = generate(result.store, cfg, mol.graph, mol.mapping,
                            mol.ref.coords, order, rng, mode="ar")
            gen_err.append(aligned_rmsd(conf.coords, mol.gt.coords))
            ref_err.append(aligned_rmsd(mol.ref.coords, mol.gt.coords))
        ar_ok = steps <= 2000 and np.mean(gen_err) < np.mean(ref_err)

        # objective B: the ensemble-matching loss falls below half its start
        run_ot = RunConfig(preset="ot", epochs=350, lr=1e-2, lr_decay=0.995,
                           batch_size=10, seed=0, layers=2, hidden_dim=16,
                           latent_channels=8, ot_samples=3, optimizer="adam")
        result_ot = train(run_ot, corpus=corpus)
        per_epoch = max(1, len(corpus) // run_ot.batch_size)
        first = np.mean([h["recon"] for h in result_ot.history[:per_epoch]])
        last = np.mean([h["recon"] for h in result_ot.history[-per_epoch:]])
        ratio = last / first
        elapsed = time.perf_counter() - t0
        ot_ok = ratio < 0.5
        ok = ar_ok and ot_ok and elapsed < 600.0
        _line("training-improves-on-reference", ok,
              f"steps={steps} gen_rmsd={np.mean(gen_err):.3f} < "
              f"ref_rmsd={np.mean(ref_err):.3f}: {'ok' if ar_ok else 'FAIL'}; "
              f"ot_ratio={ratio:.3f} (<0.5): {'ok' if ot_ok else 'FAIL'}; "
              f"time={elapsed:.0f}s (limit 600s)")
        assert ok

    def test_8_prior_never_sees_ground_truth(self):
        from coarsegen.nn import ModelConfig
        from coarsegen.params import ParameterStore
        cfg = ModelConfig(hidden_dim=8, latent_channels=4, layers=2)
        store = ParameterStore(seed=0)
        mol = make_corpus(1, 0)[0]
        gt_c, _ = center(mol.gt.coords)
        ref_c, _ = center(mol.ref.coords)
        _, z_ref = encode(store, cfg, mol.graph, mol.mapping, [gt_c], ref_c)
        prior = prior_params(store, cfg, z_ref)
        ok = True
        for seed in range(5):
            noise = np.random.default_rng(seed).standard_normal(gt_c.shape)
            _, z2 = encode(store, cfg, mol.graph, mol.mapping,
                           [gt_c + 10.0 * noise], ref_c)
            prior2 = prior_params(store, cfg, z2)
            ok &= np.array_equal(z_ref.data, z2.data)
            ok &= np.array_equal(prior.mu.data, prior2.mu.data)
            ok &= np.array_equal(prior.log_var.data, prior2.log_var.data)
        solo = encode_reference(store, cfg, mol.graph, mol.mapping, ref_c)
        ok &= np.array_equal(z_ref.data, solo.data)
        _line("no-ground-truth-leak", ok,
              "reference latent and prior bit-identical under randomized "
              "ground-truth inputs" if ok else "leak detected")
        assert ok

    def test_9_training_determinism(self, tmp_path):
        blobs = []
        for sub in ("run_a", "run_b"):
            d = tmp_path / sub
            run = RunConfig(epochs=2, lr=1e-3, corpus_size=3, seed=0,
                            layers=1, hidden_dim=8, latent_channels=4,
                            checkpoint_dir=str(d))
            train(run)
            blobs.append((d / "ckpt_epoch1.bin").read_bytes())
        ok = blobs[0] == blobs[1]
        _line("training-determinism", ok,
              f"two identical runs, final checkpoints byte-identical="
              f"{ok} ({len(blobs[0])} bytes)")
        assert ok
