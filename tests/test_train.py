"""Training loop: determinism, checkpoint/resume replay, loss-decrease sanity,
configuration validation, the per-molecule backward of a step, the tape-node
budget of one molecule's loss, the parameter names a checkpoint holds."""

import hashlib
import importlib
import weakref

import numpy as np
import pytest

from coarsegen import topology
from coarsegen.autodiff import Tensor, backward
from coarsegen.corpus import make_corpus
from coarsegen.coarsen import coarse_grain
from coarsegen.decoder import generate, generate_ensemble
from coarsegen.losses import LossWeights
from coarsegen.molio import Atom, Bond, Conformer, build_graph
from coarsegen.nn import ModelConfig
from coarsegen.params import ParameterStore
from coarsegen.train import RunConfig, TrainResult, molecule_loss, resume, train
from tests.conftest import butane_like

# the package exports a function named train, which hides the module
train_module = importlib.import_module("coarsegen.train")

SMALL = dict(epochs=2, lr=1e-3, corpus_size=2, layers=1, hidden_dim=8,
             latent_channels=4)


class TestRunConfig:
    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            RunConfig(preset="diffusion")

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError, match="optimizer"):
            RunConfig(optimizer="lbfgs")

    def test_annealed_preset_enables_ladder(self):
        """The preset alone switches the ladder on, whatever ``beta1`` says."""
        run = RunConfig(preset="elbo-annealed", weights=LossWeights(beta1=0.02),
                        layers=1, hidden_dim=8, latent_channels=4)
        mol = make_corpus(1, 0)[0]
        _, info = molecule_loss(ParameterStore(seed=0), run.model_config(), mol,
                                run, 2, np.random.default_rng(1))
        assert info["beta1"] == pytest.approx(1e-4, rel=1e-12)

    @pytest.mark.parametrize("field,value", [("batch_size", 0), ("batch_size", -1),
                                             ("ot_samples", 0), ("ot_samples", -2),
                                             ("corpus_size", 0), ("corpus_size", -1)])
    def test_counts_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(preset="ot", **{field: value})

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_sigma_must_be_finite_and_not_negative(self, sigma):
        with pytest.raises(ValueError, match=f"^sigma must be finite and at least 0, got {sigma}$"):
            RunConfig(sigma=sigma)

    def test_epochs_may_be_zero_but_not_negative(self):
        assert RunConfig(epochs=0).epochs == 0
        with pytest.raises(ValueError, match="epochs must be at least 0, got -1"):
            RunConfig(epochs=-1)

    def test_model_size_defaults_come_from_model_config(self):
        """One set of defaults (D=16, F=8, two layers); the hash of the
        default run is unchanged by where the defaults live."""
        assert RunConfig().model_config() == ModelConfig()
        assert (ModelConfig().hidden_dim, ModelConfig().latent_channels,
                ModelConfig().layers) == (16, 8, 2)
        assert RunConfig().config_hash() == "9870929e3984"

    def test_lr_schedule(self):
        run = RunConfig(lr=0.1, lr_decay=0.5)
        assert run.lr_at(0) == 0.1 and run.lr_at(2) == 0.025

    def test_config_hash_stable_and_sensitive(self):
        a, b = RunConfig(seed=1), RunConfig(seed=1)
        assert a.config_hash() == b.config_hash()
        assert len(a.config_hash()) == 12
        assert a.config_hash() != RunConfig(seed=2).config_hash()


class TestDeterminism:
    def test_zero_lr_leaves_parameters_untouched(self):
        run = RunConfig(**{**SMALL, "lr": 0.0})
        result = train(run)
        fresh = ParameterStore(seed=run.seed)
        # materialize the same parameter set by replaying one loss
        run2 = RunConfig(**{**SMALL, "lr": 0.0})
        result2 = train(run2, store=fresh)
        for name in result.store.names():
            np.testing.assert_array_equal(result.store[name].data,
                                          result2.store[name].data)

    def test_identical_runs_byte_identical_checkpoints(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            run = RunConfig(checkpoint_dir=str(d), **SMALL)
            train(run)
            outs.append((d / "ckpt_epoch1.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_returned_store_holds_no_gradients(self):
        """train() drops each step's gradients after the update, so a kept
        result holds no gradient arrays."""
        result = train(RunConfig(**SMALL))
        assert result.store.names()
        assert all(result.store[name].grad is None for name in result.store.names())

    def test_resume_replays_run_bit_exactly(self, tmp_path):
        full = train(RunConfig(checkpoint_dir=str(tmp_path / "full"), **SMALL))
        part_dir = tmp_path / "part"
        run1 = RunConfig(checkpoint_dir=str(part_dir),
                         **{**SMALL, "epochs": 1})
        train(run1)
        run2 = RunConfig(checkpoint_dir=str(tmp_path / "part2"), **SMALL)
        resumed = resume(run2, str(part_dir / "ckpt_epoch0.bin"))
        for name in full.store.names():
            np.testing.assert_array_equal(full.store[name].data,
                                          resumed.store[name].data)


class TestPerMoleculeStep:
    """A step backpropagates each molecule's loss right after its forward."""

    @pytest.mark.parametrize("preset", ["ot", "elbo-ar"])
    def test_grads_equal_one_backward_of_batch_sum(self, preset):
        run = RunConfig(preset=preset, batch_size=3, seed=5)
        cfg = run.model_config()
        batch = make_corpus(3, 2)
        stepped = ParameterStore(seed=5)
        train_module._train_step(stepped, cfg, batch, run, 1,
                                 np.random.default_rng(6), 0.0)
        summed = ParameterStore(seed=5)
        rng = np.random.default_rng(6)
        total = Tensor(0.0)
        for mol in batch:
            loss, _ = molecule_loss(summed, cfg, mol, run, 1, rng)
            total = total + loss
        backward(total * (1.0 / len(batch)))
        assert stepped.names() == summed.names()
        reached = 0
        for name in summed.names():
            a, b = stepped[name].grad, summed[name].grad
            assert (a is None) == (b is None), name
            if b is not None:
                assert np.array_equal(a, b), name
                reached += 1
        assert reached > 0

    def test_previous_tape_freed_before_next_forward(self, monkeypatch):
        real = train_module.molecule_loss
        refs = []

        def wrapped(*args, **kwargs):
            assert all(r() is None for r in refs), "a previous tape is alive"
            loss, breakdown = real(*args, **kwargs)
            refs.append(weakref.ref(loss.data))
            return loss, breakdown

        monkeypatch.setattr(train_module, "molecule_loss", wrapped)
        train(RunConfig(preset="ot", epochs=1, batch_size=3, corpus_size=3,
                        ot_samples=2, layers=1, hidden_dim=8,
                        latent_channels=4))
        assert len(refs) == 3


class TestNodeBudget:
    """Tape nodes of ``molecule_loss`` on ``make_corpus(10, 0)`` at epoch 1
    with the default model, summed over the 10 molecules. Nodes are the cost
    model: at this scale a created node costs 7-13 us forward and a
    reachable one 9-17 us backward (the ``elbo-ar`` and ``ot`` figures, on a
    2-core x86-64 machine with numpy 2.4.6; larger path stacks cost more
    per node). A change that lowers a count lowers its figure here. Every
    created node reaches the loss: no op computes what nothing reads."""

    # preset: nodes created, all of them reachable from the loss; per
    # molecule 335.0 (ot: K = 3 truths and the reference in one encoder
    # stack, the K paths one stack through the latent heads, the decode and
    # the OT loss, which is one node) and 719.3 (elbo-ar: a 2-path encoder
    # stack); channel selection and the KL are one node each
    BUDGET = {"ot": 3350, "elbo-ar": 7193}

    @staticmethod
    def reachable(out: Tensor) -> int:
        seen, stack, n = set(), [out], 0
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                n += node._backward_fn is not None
                stack.extend(node._parents)
        return n

    @pytest.mark.parametrize("preset", ["ot", "elbo-ar"])
    def test_node_counts_do_not_grow(self, preset, monkeypatch):
        created = 0
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal created
            init(self, *args, **kwargs)
            created += self._backward_fn is not None

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        run = RunConfig(preset=preset)
        cfg = run.model_config()
        store = ParameterStore(seed=run.seed)
        rng = np.random.default_rng(run.seed)
        reached = 0
        for mol in make_corpus(10, 0):
            loss, _ = molecule_loss(store, cfg, mol, run, 1, rng)
            reached += self.reachable(loss)
        assert created == reached <= self.BUDGET[preset], (created, reached)


class TestLossBytes:
    """The bytes of ``molecule_loss`` on each molecule of
    ``make_corpus(10, 0)`` at epoch 1 with the default model, fresh store
    and generator at the run seed: the first 16 hex digits of the SHA-256 of
    the 10 float64 losses in order. They pin the forward numbers, so a
    change that is meant to keep them (stacking, fusing) must keep them bit
    for bit. ``ot`` at K = 1 decodes a one-path stack."""

    @pytest.mark.parametrize("preset,k,want", [
        ("ot", 1, "6c8936065f381f10"),
        ("ot", 3, "264933a7bcf1d0b8"),
        ("elbo-ar", 1, "c88cc1376f7c821d"),
    ])
    def test_loss_bytes(self, preset, k, want):
        run = RunConfig(preset=preset, ot_samples=k)    # elbo-ar reads K = 1 always
        cfg = run.model_config()
        store = ParameterStore(seed=run.seed)
        rng = np.random.default_rng(run.seed)
        h = hashlib.sha256()
        for mol in make_corpus(10, 0):
            loss, _ = molecule_loss(store, cfg, mol, run, 1, rng)
            h.update(loss.data.tobytes())
        assert h.hexdigest()[:16] == want


class TestParameterNamespace:
    """The names, shapes and initial values of the default model's
    parameters. A checkpoint loads only into a model that asks for the names
    it holds, so a rename here breaks every saved checkpoint; a fresh store
    draws its values in creation order, so a change of that order changes
    every trained number. Each case gives the array count, the value count,
    and the first 16 hex digits of the SHA-256 of the sorted ``name:shape``
    lines and of the values' bytes in that order."""

    @staticmethod
    def summary(store: ParameterStore) -> tuple[int, int, str, str]:
        names = store.names()
        lines = "\n".join(f"{n}:{store[n].data.shape}" for n in names)
        values = hashlib.sha256()
        for n in names:
            values.update(store[n].data.tobytes())
        return (len(names), sum(t.data.size for t in store.params.values()),
                hashlib.sha256(lines.encode()).hexdigest()[:16],
                values.hexdigest()[:16])

    @pytest.mark.parametrize("preset,want", [
        ("elbo-ar", (202, 31382, "44d0b7256249cfa4", "7f6f637e0cfdc873")),
        ("ot", (192, 29782, "8fa4a0ba0f9c0d22", "398fe8df73de30e7")),
    ])
    def test_training_namespace(self, preset, want):
        store = ParameterStore(seed=3)
        run = RunConfig(preset, seed=3)
        rng = np.random.default_rng(4)
        for mol in make_corpus(10, 0):
            molecule_loss(store, run.model_config(), mol, run, 1, rng)
        assert self.summary(store) == want

    @staticmethod
    def one_bead():
        """A three-carbon chain: no rotatable bond, so one bead, whose one
        autoregressive block is also the last."""
        atoms = [Atom("C", 0, 1), Atom("C", 0, 2), Atom("C", 0, 1)]
        coords = np.array([[0.0, 0, 0], [1.5, 0, 0], [2.3, 1.2, 0]])
        graph = build_graph(atoms, [Bond(0, 1), Bond(1, 2)], Conformer(coords), 4.0)
        return graph, coarse_grain(graph, Conformer(coords)), coords

    # the multi-bead ar case is test_generate_namespace's
    @pytest.mark.parametrize("molecule,mode,want", [
        ("corpus", "ot", (165, 25918, "97c30b8a73356666", "8fce07e4e14f1fc9")),
        ("one-bead", "ar", (153, 24830, "39f0afa1b5985e91", "72163c269ace9d93")),
        ("one-bead", "ot", (153, 24830, "39f0afa1b5985e91", "72163c269ace9d93")),
        ("two-bead", "ar", (175, 27518, "ab6f1e02eedf7a7f", "8dc9868f48812b90")),
    ])
    def test_sampling_namespace(self, molecule, mode, want):
        """``generate_ensemble`` creates the parameters of every update it
        skips (the last encoder layer's bead features, the last block's
        features) where it would have created them, so names, shapes and
        values are pinned here."""
        cfg = ModelConfig()
        if molecule == "corpus":
            mol = make_corpus(1, 0)[0]
            graph, mapping, ref = mol.graph, mol.mapping, mol.ref.coords
        elif molecule == "one-bead":
            graph, mapping, ref = self.one_bead()
        else:
            # the last block is the first to attend, so only it would
            # create the last decoder layer's attention
            graph, mapping, _, ref = butane_like()
        assert mapping.n_beads == {"one-bead": 1, "two-bead": 2}.get(molecule, 6)
        store = ParameterStore(seed=0)
        generate_ensemble(store, cfg, graph, mapping, ref,
                          topology.bead_order(graph, mapping, cfg.aux_cutoff),
                          np.random.default_rng(0), 2, mode=mode)
        assert self.summary(store) == want

    def test_generate_namespace(self):
        mol = make_corpus(1, 0)[0]
        cfg = ModelConfig()
        store = ParameterStore(seed=0)
        generate(store, cfg, mol.graph, mol.mapping, mol.ref.coords,
                 topology.bead_order(mol.graph, mol.mapping, cfg.aux_cutoff),
                 np.random.default_rng(0))
        assert self.summary(store) == (175, 27518, "ab6f1e02eedf7a7f", "8dc9868f48812b90")


class TestLearning:
    def test_loss_decreases_on_one_molecule(self):
        corpus = make_corpus(1, 0)
        run = RunConfig(preset="elbo-ar", epochs=1, lr=1e-2, optimizer="adam",
                        layers=1, hidden_dim=8, latent_channels=4)
        # repeat the single molecule so one epoch is 500 optimizer steps
        result = train(run, corpus=corpus * 500)
        first = np.mean([h["recon"] for h in result.history[:10]])
        last = np.mean([h["recon"] for h in result.history[-10:]])
        assert last < 0.7 * first

    def test_history_structure(self):
        result = train(RunConfig(**SMALL))
        assert isinstance(result, TrainResult)
        assert len(result.history) == 2 * 2   # epochs x corpus molecules
        for entry in result.history:
            assert {"recon", "kl", "dist", "beta1", "beta2",
                    "total"} <= entry.keys()

    def test_annealing_values_recorded(self):
        run = RunConfig(preset="elbo-annealed",
                        **{**SMALL, "epochs": 3})
        result = train(run)
        per_epoch = sorted({h["beta1"] for h in result.history})
        np.testing.assert_allclose(per_epoch, [1e-6, 1e-5, 1e-4], rtol=1e-12)

    def test_ot_preset_runs_and_logs(self):
        run = RunConfig(preset="ot", epochs=1, lr=1e-3, corpus_size=1,
                        layers=1, hidden_dim=8, latent_channels=4,
                        ot_samples=2)
        result = train(run)
        assert all(h["dist"] == 0.0 for h in result.history)
        assert all(np.isfinite(h["recon"]) for h in result.history)


class TestFailureModes:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_context(self):
        run = RunConfig(**SMALL)
        corpus = make_corpus(1, 0)
        corpus[0].gt.coords[:] = 1e200     # force overflow in the loss
        with pytest.raises((RuntimeError, ValueError)):
            train(run, corpus=corpus)

    @pytest.mark.parametrize("n_truth", [0, 2])
    def test_ot_needs_ot_samples_truths(self, n_truth):
        """``ot`` decodes K = ``ot_samples`` paths; a molecule with fewer
        truth conformers is refused, not trained on fewer paths."""
        run = RunConfig(preset="ot", ot_samples=4, **SMALL)
        mol = make_corpus(1, 0, n_truth=n_truth)[0]
        with pytest.raises(ValueError, match=f"ot_samples=4 .* has {n_truth}$"):
            molecule_loss(ParameterStore(seed=0), run.model_config(), mol, run, 0,
                          np.random.default_rng(0))

    def test_one_weights_object_for_annealed_then_fixed_run(self):
        """An annealed config leaves the caller's weights as they were, so a
        later ``elbo-ar`` run with the same object keeps its own beta1."""
        w = LossWeights(beta1=0.02)
        annealed = train(RunConfig(preset="elbo-annealed", weights=w, **SMALL))
        fixed = train(RunConfig(preset="elbo-ar", weights=w, **SMALL))
        assert w == LossWeights(beta1=0.02)
        np.testing.assert_allclose([h["beta1"] for h in annealed.history],
                                   [1e-6, 1e-6, 1e-5, 1e-5], rtol=1e-12)
        assert [h["beta1"] for h in fixed.history] == [0.02] * 4

    def test_weights_object_not_shared_across_configs(self):
        a = RunConfig(preset="elbo-annealed")
        b = RunConfig(preset="elbo-ar")
        assert a.weights is not b.weights
        assert isinstance(b.weights, LossWeights)
