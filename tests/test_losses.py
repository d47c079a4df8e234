"""Training objectives: alignment identity, exact transport against a
permutation brute force, annealing schedule, loss bookkeeping."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import coarsegen
from coarsegen.autodiff import Tensor
from coarsegen.geometry import aligned_rmsd, random_rotation
from coarsegen.corpus import make_corpus
from coarsegen import losses
from coarsegen.losses import (LossWeights, aligned_mse, annealed_beta1,
                              distance_loss, elbo_loss, emd_solve, ot_loss)
from coarsegen.molio import Atom, Bond, MolecularGraph
from coarsegen.params import ParameterStore
from coarsegen.topology import hop12_pairs
from coarsegen.train import RunConfig, molecule_loss
from tests.test_fused_ops import check_grads, tape_nodes

RNG = np.random.default_rng(23)


def chain_graph(n):
    bonds = [Bond(i, i + 1) for i in range(n - 1)]
    return MolecularGraph([Atom("C", 0, min(2, 1)) for _ in range(n)], bonds)


class TestAlignedMse:
    def test_equals_squared_kabsch_rmsd(self):
        for _ in range(10):
            a = RNG.standard_normal((6, 3))
            b = RNG.standard_normal((6, 3))
            np.testing.assert_allclose(aligned_mse(a, b).data,
                                       aligned_rmsd(a, b) ** 2, atol=1e-10)

    def test_zero_under_rigid_motion(self):
        a = RNG.standard_normal((5, 3))
        moved = a @ random_rotation(RNG).T + np.array([1.0, 2.0, 3.0])
        assert aligned_mse(Tensor(a), moved).data < 1e-20

    def test_gradient_flows_to_model_coords(self):
        a = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        loss = aligned_mse(a, RNG.standard_normal((4, 3)))
        loss.backward()
        assert a.grad is not None and np.abs(a.grad).max() > 0


class TestDistanceLoss:
    def test_hop12_pairs_on_chain(self):
        # chain 0-1-2-3: bonded pairs + the two 2-hop pairs
        assert hop12_pairs(chain_graph(4)) == [(0, 1), (0, 2), (1, 2), (1, 3),
                                               (2, 3)]

    def test_hand_value(self):
        graph = chain_graph(2)          # single pair (0, 1)
        truth = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        model = np.array([[0.0, 0, 0], [3.0, 0, 0]])
        np.testing.assert_allclose(distance_loss(model, truth, graph).data,
                                   1.0, atol=1e-9)

    def test_invariant_to_rigid_motion_of_model(self):
        graph = chain_graph(5)
        truth = RNG.standard_normal((5, 3))
        model = RNG.standard_normal((5, 3))
        moved = model @ random_rotation(RNG).T + 3.0
        np.testing.assert_allclose(distance_loss(model, truth, graph).data,
                                   distance_loss(moved, truth, graph).data,
                                   atol=1e-9)

    def test_no_pairs_gives_zero(self):
        graph = MolecularGraph([Atom("C")], [])
        assert distance_loss(np.zeros((1, 3)), np.zeros((1, 3)),
                             graph).data == 0.0


class TestAnnealing:
    def test_ladder_values(self):
        got = [annealed_beta1(e) for e in range(8)]
        want = [min(1e-6 * 10.0 ** e, 1e-1) for e in range(8)]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert got[6] == 0.1 and got[7] == 0.1   # capped

    def test_fixed_when_not_annealed(self):
        """Only ``elbo-annealed`` follows the ladder; the other presets weigh
        the KL term by ``weights.beta1`` at every epoch."""
        mol = make_corpus(1, 0)[0]
        for preset in ("elbo-ar", "ot"):
            run = RunConfig(preset=preset, layers=1, hidden_dim=8,
                            latent_channels=4, ot_samples=2,
                            weights=LossWeights(beta1=0.02))
            store = ParameterStore(seed=0)
            for epoch in (0, 100):
                _, info = molecule_loss(store, run.model_config(), mol, run,
                                        epoch, np.random.default_rng(1))
                assert info["beta1"] == 0.02


class TestElboLoss:
    def test_weighted_sum_and_breakdown(self):
        total, info = elbo_loss(Tensor(2.0), Tensor(3.0), Tensor(4.0), 0.1, 0.5)
        np.testing.assert_allclose(total.data, 2.0 + 0.3 + 2.0)
        assert info["recon"] == 2.0 and info["kl"] == 3.0
        assert info["beta1"] == 0.1 and info["beta2"] == 0.5
        assert info["total"] == pytest.approx(4.3)


def marginals_ok(plan, tol=1e-9):
    """Row sums 1/K and column sums 1/L, to ``tol``."""
    k, l = plan.matrix.shape
    rows = np.abs(plan.matrix.sum(axis=1) - 1.0 / k).max()
    cols = np.abs(plan.matrix.sum(axis=0) - 1.0 / l).max()
    return bool(rows <= tol and cols <= tol)


def emd_brute_force(cost):
    """Exact EMD and an optimal plan by enumeration. With m = lcm(K, L) the
    uniform-marginal transport polytope has integer vertices once scaled by
    m, and those are the assignments of the cost with each row repeated m/K
    times and each column m/L times: try every permutation of the m columns.
    For K == L the plan is the best permutation matrix divided by K."""
    k, l = cost.shape
    m = math.lcm(k, l)
    big = np.repeat(np.repeat(cost, m // k, axis=0), m // l, axis=1)
    perms = np.array(list(itertools.permutations(range(m))))
    totals = big[np.arange(m), perms].sum(axis=1)
    best = perms[np.argmin(totals)]
    plan = np.zeros((k, l))
    np.add.at(plan, (np.arange(m) // (m // k), best // (m // l)), 1.0)
    return plan / m, totals.min() / m


# a 6 x 2 near-tie cost (rank one plus 1e-8-scale noise) on which the HiGHS
# LP solver once used here returned a plan 4.2e-8 above the optimum
NEAR_TIE_6X2 = np.array([
    [6.04901672010471, 2.170553053953071],
    [5.107976849006482, 1.2295131391036713],
    [7.516723377525093, 3.6382597433403245],
    [4.841836059861815, 0.9633724871830703],
    [5.71050464489691, 1.8320410653880401],
    [6.417156174345975, 2.5386925699201495]])


class TestEmd:
    def test_matches_permutation_brute_force_square(self):
        for n in range(2, 7):
            for _ in range(5):
                cost = RNG.uniform(0, 5, size=(n, n))
                plan, value = emd_solve(cost)
                want_plan, want_value = emd_brute_force(cost)
                assert np.array_equal(plan.matrix, want_plan)
                assert abs(value - want_value) < 1e-12

    def test_rectangular_marginals_and_value(self):
        shapes = [(k, l) for k in range(1, 9) for l in range(1, 9)
                  if k != l and math.lcm(k, l) <= 8]
        for shape in shapes:
            cost = RNG.uniform(0, 5, size=shape)
            plan, value = emd_solve(cost)
            assert marginals_ok(plan)
            assert abs(value - emd_brute_force(cost)[1]) < 1e-12

    def test_near_tie_rectangular(self):
        plan, value = emd_solve(NEAR_TIE_6X2)
        assert marginals_ok(plan)
        assert abs(value - emd_brute_force(NEAR_TIE_6X2)[1]) < 1e-12

    @pytest.mark.parametrize("shape", [(3, 3), (3, 2), (2, 4), (4, 8)])
    def test_all_ties_exact_marginals(self, shape):
        """Every plan is optimal; the one returned has entries that are
        exact multiples of 1/m and integer marginals m/K and m/L."""
        k, l = shape
        m = math.lcm(k, l)
        plan, value = emd_solve(np.full(shape, 1.5))
        counts = np.rint(plan.matrix * m)
        assert np.array_equal(counts / m, plan.matrix)
        assert (counts.sum(axis=1) == m // k).all()
        assert (counts.sum(axis=0) == m // l).all()
        assert value == pytest.approx(1.5, abs=1e-15)

    def test_identity_cost_square(self):
        cost = 1.0 - np.eye(3)
        _, value = emd_solve(cost)
        assert abs(value) < 1e-12

    def test_single_cell(self):
        plan, value = emd_solve(np.array([[2.5]]))
        assert value == 2.5 and plan.matrix[0, 0] == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            emd_solve(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            emd_solve(np.array([[np.inf]]))
        with pytest.raises(ValueError):
            emd_solve(np.zeros(3))

    def test_import_leaves_scipy_unloaded(self):
        code = "import sys, coarsegen; print('scipy' in sys.modules)"
        # import the package the tests run against, wherever it lives
        root = os.path.dirname(os.path.dirname(coarsegen.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": root})
        assert out.stdout.strip() == "False"


class TestOtLoss:
    def test_zero_when_ensembles_match(self):
        graph = chain_graph(4)
        truth = [RNG.standard_normal((4, 3)) for _ in range(3)]
        loss, plan = ot_loss(Tensor(np.stack(truth)), truth, graph)
        assert loss.data < 1e-18
        assert marginals_ok(plan)

    @staticmethod
    def pair_cost(g, t, graph):
        """The per-pair chain of tape ops the one-node loss replaces."""
        return aligned_mse(g, t) + distance_loss(g, t, graph)

    @staticmethod
    def ensembles(k, l, n=None, seed=0):
        """A toy molecule's graph with K generated and L true conformers."""
        graph = make_corpus(1, seed)[0].graph if n is None else chain_graph(n)
        rng = np.random.default_rng(seed)
        truth = [rng.standard_normal((graph.n_atoms, 3)) for _ in range(l)]
        return graph, truth, rng.standard_normal((k, graph.n_atoms, 3))

    def test_value_is_plan_weighted_cost(self):
        """Bit for bit the plan-weighted sum of the per-pair costs, folded
        over the nonzero weights in row-major order, for K = L = 3 and for
        K = 2, L = 3."""
        for k, l in [(3, 3), (2, 3)]:
            graph, truth, x = self.ensembles(k, l)
            loss, plan = ot_loss(Tensor(x), truth, graph)
            costs = np.array([[self.pair_cost(x[i], truth[j], graph).data
                               for j in range(l)] for i in range(k)])
            assert np.array_equal(plan.matrix, emd_solve(costs)[0].matrix)
            want = 0.0
            for i, j in zip(*np.nonzero(plan.matrix)):
                want = want + costs[i, j] * plan.matrix[i, j]
            assert np.array_equal(loss.data, want), (k, l)

    @pytest.mark.parametrize("k,l", [(3, 3), (2, 3), (3, 2)])
    def test_row_gradients_equal_per_pair_chain(self, k, l):
        """Each row's gradient is, bit for bit, its gradient through the
        plan-weighted sum of per-pair chains, whose tape adds each row's
        partials pair by pair in column order."""
        graph, truth, x = self.ensembles(k, l)
        stacked = Tensor(x, requires_grad=True)
        loss, plan = ot_loss(stacked, truth, graph)
        loss.backward()
        rows = [Tensor(row, requires_grad=True) for row in x]
        chain = Tensor(0.0)
        for i, j in zip(*np.nonzero(plan.matrix)):
            chain = chain + self.pair_cost(rows[i], truth[j], graph) * plan.matrix[i, j]
        chain.backward()
        assert np.array_equal(loss.data, chain.data)
        for i, row in enumerate(rows):
            assert np.array_equal(stacked.grad[i], row.grad), i

    @pytest.mark.parametrize("k,l", [(2, 3), (3, 2)])
    def test_gradcheck_rectangular(self, k, l):
        graph, truth, x = self.ensembles(k, l, n=5, seed=4)
        check_grads(lambda t: ot_loss(t, truth, graph)[0], x, ParameterStore(),
                    np.random.default_rng(5))

    def test_one_node(self):
        graph, truth, x = self.ensembles(3, 3)
        loss, _ = ot_loss(Tensor(x, requires_grad=True), truth, graph)
        assert tape_nodes(loss) == 1

    def test_one_transport_solve_per_call(self, monkeypatch):
        calls = []
        solve = losses.emd_solve
        monkeypatch.setattr(losses, "emd_solve", lambda cost: calls.append(cost) or solve(cost))
        graph, truth, x = self.ensembles(2, 3)
        ot_loss(Tensor(x, requires_grad=True), truth, graph)
        assert len(calls) == 1 and calls[0].shape == (2, 3)

    def test_graph_without_hop_pairs(self):
        """No 1/2-hop pairs: the cost is the alignment term alone."""
        graph = MolecularGraph([Atom("C") for _ in range(4)], [])
        _, truth, x = self.ensembles(2, 3, n=4, seed=6)
        loss, plan = ot_loss(Tensor(x), truth, graph)
        want = 0.0
        for i, j in zip(*np.nonzero(plan.matrix)):
            want = want + aligned_mse(x[i], truth[j]).data * plan.matrix[i, j]
        assert np.array_equal(loss.data, want)
        check_grads(lambda t: ot_loss(t, truth, graph)[0], x, ParameterStore(),
                    np.random.default_rng(7))

    def test_gradients_reach_generated_coords(self):
        graph = chain_graph(4)
        truth = [RNG.standard_normal((4, 3)) for _ in range(2)]
        generated = Tensor(RNG.standard_normal((2, 4, 3)), requires_grad=True)
        loss, _ = ot_loss(generated, truth, graph)
        loss.backward()
        for g in generated.grad:
            assert np.abs(g).max() > 0
