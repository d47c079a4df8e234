"""Command-line interface: exit codes, file handling, end-to-end
train/generate/eval roundtrip through temporary files."""

import numpy as np
import pytest

from coarsegen import nn, topology
from coarsegen.checks import gradient_check
from coarsegen.cli import build_parser, main
from coarsegen.coarsen import coarse_grain
from coarsegen.corpus import make_corpus
from coarsegen.decoder import generate_ensemble
from coarsegen.molio import (Atom, Bond, Conformer, MolecularGraph, build_graph,
                             parse_sdf, write_sdf_records)
from coarsegen.nn import ModelConfig
from coarsegen.params import ParameterStore


@pytest.fixture
def butane_sdf(tmp_path):
    path = tmp_path / "mol.sdf"
    mol = make_corpus(1, 0)[0]
    path.write_bytes(write_sdf_records([(mol.graph, mol.ref)]))
    return str(path)


@pytest.fixture
def two_ensembles(tmp_path):
    mol = make_corpus(1, 0)[0]
    gen = tmp_path / "gen.sdf"
    truth = tmp_path / "truth.sdf"
    records = [(mol.graph, t) for t in mol.truth_ensemble]
    gen.write_bytes(write_sdf_records(records))
    truth.write_bytes(write_sdf_records(records))
    return str(gen), str(truth)


class TestErrorHandling:
    def test_missing_input_exits_1_with_path(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coarsen", "/no/such/file.sdf"])
        assert "/no/such/file.sdf" in str(exc.value)

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["coarsen", "--frobnicate", "x.sdf"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_missing_checkpoint(self, butane_sdf, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", butane_sdf, "--checkpoint",
                  str(tmp_path / "none.bin")])
        assert "none.bin" in str(exc.value)

    def test_directory_as_input_exits_1_with_path(self, butane_sdf, tmp_path,
                                                  capsys):
        d = str(tmp_path)
        assert main(["eval", d, d]) == 1
        assert f"error: {d}: " in capsys.readouterr().err
        assert main(["generate", butane_sdf, "--checkpoint", d]) == 1
        assert f"error: {d}: " in capsys.readouterr().err

    def test_truncated_checkpoint_exits_1_with_path(self, butane_sdf, tmp_path,
                                                    capsys):
        trunc = tmp_path / "trunc.bin"
        trunc.write_bytes(b"CGCK0001\x05\x00")
        assert main(["generate", butane_sdf, "--checkpoint", str(trunc)]) == 1
        assert f"error: {trunc}: truncated checkpoint" in capsys.readouterr().err
        assert main(["train", "--resume", str(trunc), "--corpus-size", "1"]) == 1
        captured = capsys.readouterr()
        assert f"error: {trunc}: truncated checkpoint" in captured.err
        assert "done" not in captured.out

    def test_directory_as_output_exits_1_with_path(self, butane_sdf,
                                                   two_ensembles, tmp_path,
                                                   capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["generate", butane_sdf, "--output", str(out_dir)]) == 1
        assert f"error: {out_dir}: " in capsys.readouterr().err
        gen, truth = two_ensembles
        assert main(["eval", gen, truth, "--histogram", str(out_dir)]) == 1
        assert f"error: {out_dir}: " in capsys.readouterr().err

    @pytest.mark.parametrize("num", ["0", "-1"])
    def test_generate_num_below_one(self, butane_sdf, tmp_path, num):
        out = tmp_path / "gen.sdf"
        with pytest.raises(SystemExit) as exc:
            main(["generate", butane_sdf, "--num", num, "--output", str(out)])
        assert "--num" in str(exc.value)
        assert not out.exists()

    def test_train_batch_size_below_one(self, capsys):
        assert main(["train", "--batch-size", "-1", "--corpus-size", "1"]) == 1
        captured = capsys.readouterr()
        assert "batch_size" in captured.err
        assert "done" not in captured.out

    @pytest.mark.parametrize("flags,message", [
        (["--layers", "0"], "layers must be at least 1, got 0"),
        (["--layers", "-1"], "layers must be at least 1, got -1"),
        (["--hidden-dim", "0"], "hidden_dim must be at least 1, got 0"),
        (["--latent-channels", "0"], "latent_channels must be at least 1, got 0"),
        (["--cutoff", "-1"], "aux_cutoff must be finite and at least 0, got -1.0"),
        (["--cutoff", "nan"], "aux_cutoff must be finite and at least 0, got nan"),
    ])
    def test_generate_invalid_model_settings(self, butane_sdf, tmp_path, capsys,
                                             flags, message):
        out = tmp_path / "gen.sdf"
        assert main(["generate", butane_sdf, "--output", str(out)] + flags) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--layers", "0"], "layers must be at least 1, got 0"),
        (["--hidden-dim", "-2"], "hidden_dim must be at least 1, got -2"),
        (["--epochs", "-1"], "epochs must be at least 0, got -1"),
        (["--corpus-size", "0"], "corpus_size must be at least 1, got 0"),
        (["--sigma", "-1"], "sigma must be finite and at least 0, got -1.0"),
        (["--sigma", "nan"], "sigma must be finite and at least 0, got nan"),
    ])
    def test_train_invalid_settings(self, capsys, flags, message):
        assert main(["train", "--corpus-size", "1"] + flags) == 1
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "done" not in captured.out

    @pytest.mark.parametrize("argv", [["train", "--tie-layers"],
                                      ["generate", "x.sdf", "--no-share-paths"]])
    def test_removed_weight_layout_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_model_flag_defaults_come_from_model_config(self):
        args = build_parser().parse_args(["train"])
        assert (args.hidden_dim, args.latent_channels, args.layers) == (
            ModelConfig.hidden_dim, ModelConfig.latent_channels, ModelConfig.layers)


class TestCoarsen:
    def test_reports_beads(self, butane_sdf, capsys):
        assert main(["coarsen", butane_sdf]) == 0
        out = capsys.readouterr().out
        assert "beads=" in out and "bead 0:" in out and "centroid" in out

    @pytest.mark.parametrize("cutoff", ["-1", "nan"])
    def test_invalid_cutoff_exits_1(self, butane_sdf, capsys, cutoff):
        assert main(["coarsen", butane_sdf, "--cutoff", cutoff]) == 1
        captured = capsys.readouterr()
        assert "error: aux_cutoff must be finite and at least 0" in captured.err
        assert "order=" not in captured.out


class TestEval:
    def test_identical_files_full_coverage(self, two_ensembles, capsys):
        gen, truth = two_ensembles
        assert main(["eval", gen, truth, "--delta", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "cov_precision 100.00 %" in out
        assert "cov_recall    100.00 %" in out

    @pytest.mark.parametrize("delta", ["nan", "inf", "0", "-0.5"])
    def test_delta_must_be_finite_and_positive(self, two_ensembles, delta):
        gen, truth = two_ensembles
        with pytest.raises(SystemExit, match="--delta must be finite and positive"):
            main(["eval", gen, truth, "--delta", delta])

    def test_budget_sweep_lines(self, two_ensembles, capsys):
        gen, truth = two_ensembles
        assert main(["eval", gen, truth, "--budgets", "1,3,5"]) == 0
        out = capsys.readouterr().out
        assert "budget 1:" in out and "budget 5:" in out

    def test_budgets_leave_report_and_histogram_unchanged(self, tmp_path, capsys):
        """With --budgets the full report is read from the sweep's matrix; it
        prints the same report and histogram as a run without budgets."""
        mol = make_corpus(1, 0)[0]
        gen, truth = tmp_path / "gen.sdf", tmp_path / "truth.sdf"
        gen.write_bytes(write_sdf_records([(mol.graph, t) for t in mol.truth_ensemble]))
        truth.write_bytes(write_sdf_records([(mol.graph, c) for c in (mol.gt, mol.ref)]))
        plain_hist, swept_hist = tmp_path / "plain.txt", tmp_path / "swept.txt"
        assert main(["eval", str(gen), str(truth), "--delta", "0.3",
                     "--histogram", str(plain_hist)]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(["eval", str(gen), str(truth), "--delta", "0.3",
                     "--budgets", "1,2,5", "--histogram", str(swept_hist)]) == 0
        swept = capsys.readouterr().out.splitlines()
        assert swept[:len(plain)] == plain
        assert [line.split(":")[0] for line in swept[len(plain):]] == [
            "budget 1", "budget 2", "budget 5"]
        assert swept_hist.read_text() == plain_hist.read_text()

    @staticmethod
    def eval_error(tmp_path, gen_records, truth_records) -> tuple[str, str, str]:
        gen, truth = tmp_path / "gen.sdf", tmp_path / "truth.sdf"
        gen.write_bytes(write_sdf_records(gen_records))
        truth.write_bytes(write_sdf_records(truth_records))
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(gen), str(truth)])
        return str(exc.value), str(gen), str(truth)

    def test_atom_count_mismatch_names_file_and_record(self, tmp_path):
        a, b = make_corpus(2, 0)            # 31 and 29 atoms
        msg, gen, truth = self.eval_error(tmp_path, [(a.graph, a.gt)],
                                          [(a.graph, a.ref), (b.graph, b.ref)])
        assert msg == (f"error: {truth}: 29 atoms where {gen} record 0 "
                       f"has 31 (record 1)")
        msg, gen, _ = self.eval_error(tmp_path, [(a.graph, a.gt), (b.graph, b.gt)],
                                      [(a.graph, a.ref)])
        assert msg == f"error: {gen}: 29 atoms where {gen} record 0 has 31 (record 1)"

    def test_element_order_mismatch_names_file_and_record(self, tmp_path):
        mol = make_corpus(1, 0)[0]
        atoms = list(mol.graph.atoms)
        atoms[1], atoms[2] = atoms[2], atoms[1]     # C, O -> O, C
        swapped = MolecularGraph(atoms, mol.graph.bonds)
        msg, gen, truth = self.eval_error(tmp_path, [(mol.graph, mol.gt)],
                                          [(swapped, mol.ref)])
        assert msg == f"error: {truth}: atom 2 is O where {gen} record 0 has C (record 0)"

    def test_heavy_only_ignores_hydrogen_motion(self, tmp_path, capsys):
        """Moving hydrogens alone changes the all-atom RMSD, not the heavy-atom
        one."""
        mol = make_corpus(1, 0)[0]
        hydrogens = [k for k, a in enumerate(mol.graph.atoms) if a.element == "H"]
        moved = mol.gt.coords.copy()
        moved[hydrogens] += 0.5 * np.random.default_rng(1).standard_normal((len(hydrogens), 3))
        gen, truth = tmp_path / "gen.sdf", tmp_path / "truth.sdf"
        gen.write_bytes(write_sdf_records([(mol.graph, Conformer(moved))]))
        truth.write_bytes(write_sdf_records([(mol.graph, mol.gt)]))
        argv = ["eval", str(gen), str(truth), "--delta", "0.1", "--budgets", "1"]

        def amr(out):
            return float(out.split("amr_recall")[1].split()[0])

        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert amr(plain) > 0.1 and "cov_recall    0.00 %" in plain
        assert main(argv + ["--heavy-only"]) == 0
        heavy = capsys.readouterr().out
        assert amr(heavy) < 1e-4 and "cov_recall    100.00 %" in heavy
        assert "budget 1: cov_recall 100.00 %" in heavy

    def test_heavy_only_needs_a_heavy_atom(self, tmp_path):
        graph = MolecularGraph([Atom("H", 0, 0, False)] * 2, [Bond(0, 1, "single")])
        path = tmp_path / "h2.sdf"
        path.write_bytes(write_sdf_records([(graph, Conformer(np.eye(3)[:2]))]))
        with pytest.raises(SystemExit, match=f"^error: --heavy-only: {path} record 0 "
                                             "has no heavy atom$"):
            main(["eval", str(path), str(path), "--heavy-only"])

    def test_histogram_file(self, two_ensembles, tmp_path, capsys):
        gen, truth = two_ensembles
        hist = tmp_path / "hist.txt"
        assert main(["eval", gen, truth, "--histogram", str(hist)]) == 0
        lines = hist.read_text().splitlines()
        assert lines[0] == "# bin_left bin_right count"
        counts = [int(line.split()[2]) for line in lines[1:]]
        assert sum(counts) == 25    # 5 x 5 RMSD entries


class TestTrainAndGenerate:
    def test_roundtrip(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpt"
        rc = main(["train", "--epochs", "1", "--corpus-size", "1",
                   "--layers", "1", "--hidden-dim", "8",
                   "--latent-channels", "4",
                   "--checkpoint-dir", str(ckpt_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "config_hash=" in out and "done steps=1" in out
        ckpt = ckpt_dir / "ckpt_epoch0.bin"
        assert ckpt.exists()

        mol = make_corpus(1, 0)[0]
        ref_path = tmp_path / "ref.sdf"
        ref_path.write_bytes(write_sdf_records([(mol.graph, mol.ref)]))
        gen_path = tmp_path / "gen.sdf"
        rc = main(["generate", str(ref_path), "--checkpoint", str(ckpt),
                   "--num", "3", "--seed", "1", "--layers", "1",
                   "--hidden-dim", "8", "--latent-channels", "4",
                   "--output", str(gen_path)])
        assert rc == 0

        truth_path = tmp_path / "truth.sdf"
        truth_path.write_bytes(write_sdf_records(
            [(mol.graph, t) for t in mol.truth_ensemble]))
        assert main(["eval", str(gen_path), str(truth_path)]) == 0
        assert "amr_recall" in capsys.readouterr().out

    def test_checkpoint_with_other_layers_rejected(self, tmp_path, capsys):
        """A 3-layer generate on a 2-layer checkpoint exits 1 naming the
        missing parameter, instead of sampling from random layer-2 weights."""
        ckpt_dir = tmp_path / "ckpt"
        small = ["--hidden-dim", "8", "--latent-channels", "4"]
        assert main(["train", "--epochs", "1", "--corpus-size", "1",
                     "--layers", "2", "--checkpoint-dir", str(ckpt_dir)] + small) == 0
        mol = make_corpus(1, 0)[0]
        ref_path = tmp_path / "ref.sdf"
        ref_path.write_bytes(write_sdf_records([(mol.graph, mol.ref)]))
        gen_path = tmp_path / "gen.sdf"
        capsys.readouterr()
        rc = main(["generate", str(ref_path), "--checkpoint",
                   str(ckpt_dir / "ckpt_epoch0.bin"), "--layers", "3",
                   "--output", str(gen_path)] + small)
        assert rc == 1
        err = capsys.readouterr().err
        assert "not in the checkpoint" in err and ".l2." in err
        assert "flags do not match" in err
        assert not gen_path.exists()

    def test_generate_to_stdout(self, butane_sdf, capsys):
        rc = main(["generate", butane_sdf, "--seed", "0", "--layers", "1",
                   "--hidden-dim", "8", "--latent-channels", "4"])
        assert rc == 0
        assert "$$$$" in capsys.readouterr().out

    def test_generate_deterministic_via_env_seed(self, butane_sdf, capsys,
                                                 monkeypatch):
        monkeypatch.setenv("COARSEGEN_SEED", "5")
        main(["generate", butane_sdf, "--layers", "1", "--hidden-dim", "8",
              "--latent-channels", "4"])
        a = capsys.readouterr().out
        main(["generate", butane_sdf, "--layers", "1", "--hidden-dim", "8",
              "--latent-channels", "4"])
        assert a == capsys.readouterr().out


    @pytest.mark.parametrize("cutoff", [None, 5.0])
    def test_cutoff_applies_everywhere(self, butane_sdf, tmp_path, cutoff):
        """``--cutoff`` sets the atom graph, the encoder's bead graph
        (``ModelConfig.aux_cutoff``) and the decode order; the default is 4.0.
        On this molecule the bead graph has 24 directed edges at 4.0 and 28
        at 5.0."""
        flags = [] if cutoff is None else ["--cutoff", str(cutoff)]
        out = tmp_path / "gen.sdf"
        assert main(["generate", butane_sdf, "--num", "2", "--seed", "3",
                     "--layers", "1", "--hidden-dim", "8",
                     "--latent-channels", "4", "--output", str(out)] + flags) == 0

        c = 4.0 if cutoff is None else cutoff
        with open(butane_sdf, encoding="utf-8") as fh:
            graph, ref = parse_sdf(fh.read())[0]
        expanded = build_graph(graph.atoms, graph.bonds, ref, c)
        mapping = coarse_grain(expanded, ref)
        cfg = ModelConfig(hidden_dim=8, latent_channels=4, layers=1, aux_cutoff=c)
        confs = generate_ensemble(ParameterStore(seed=3), cfg, expanded, mapping,
                                  ref.coords, topology.bead_order(expanded, mapping, c),
                                  np.random.default_rng(3), 2)
        assert out.read_bytes() == write_sdf_records([(graph, x) for x in confs])


class TestConfigFile:
    def test_ini_config_applies(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = 1\ncorpus_size = 1\nlayers = 1\n"
                       "hidden_dim = 8\nlatent_channels = 4\n")
        assert main(["train", "--config", str(ini)]) == 0
        assert "done steps=1" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nmomentum = 0.9\n")
        with pytest.raises(SystemExit, match="momentum"):
            main(["train", "--config", str(ini)])

    @pytest.mark.parametrize("key", ["share_paths", "tie_layers"])
    def test_removed_weight_layout_keys_rejected(self, tmp_path, key):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[train]\n{key} = true\n")
        with pytest.raises(SystemExit, match=f"unknown key '{key}'") as exc:
            main(["train", "--config", str(ini)])
        assert isinstance(exc.value.code, str)   # a message: the process exits 1

    def test_missing_section_rejected(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nlayers = 1\n")
        with pytest.raises(SystemExit, match="train"):
            main(["train", "--config", str(ini)])

    def test_unreadable_config_exits_1_with_path(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("epochs = 1\n")          # no section header
        with pytest.raises(SystemExit, match="run.ini: File contains no section"):
            main(["train", "--config", str(ini)])
        with pytest.raises(SystemExit, match="input file not found"):
            main(["train", "--config", str(tmp_path / "none.ini")])
        assert main(["train", "--config", str(tmp_path)]) == 1
        assert f"error: {tmp_path}: " in capsys.readouterr().err


class TestChecks:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_gradcheck_catches_wrong_bias_gradient(self, monkeypatch, capsys):
        """A doubled bias gradient fails the suite, on bias parameters only."""
        bias_grad = nn._bias_grad
        monkeypatch.setattr(nn, "_bias_grad", lambda g: 2.0 * bias_grad(g))
        report = gradient_check(seed=0)
        assert not report.passed
        failed = {f.split("[")[0].rsplit(".", 1)[1] for f in report.failures}
        assert failed <= {"b", "b0", "b1"} and {"b0", "b1"} <= failed
        assert main(["gradcheck", "--seed", "0"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_equivcheck_small_passes(self, capsys):
        assert main(["equivcheck", "--molecules", "2", "--motions", "2"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--molecules", "0"], ["--motions", "0"]])
    def test_equivcheck_without_cases_fails(self, flags, capsys):
        assert main(["equivcheck"] + flags) == 1
        assert "[FAIL] cases=0" in capsys.readouterr().out
