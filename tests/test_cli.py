"""Command-line interface tests.

Commands run in-process through main(argv) so exit codes and output are
asserted directly; one subprocess test confirms the installed console
script is wired to the same entry point. The describe table is pinned
byte-for-byte against a golden file.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from winvit.cli import RunConfig, main
from winvit.data import SyntheticSpec, read_ppm_p5, write_ppm_p6
from winvit.errors import ConfigError
from winvit.model import Model, ModelConfig, save_checkpoint
from winvit.train import TrainConfig

GOLDEN = Path(__file__).parent / "golden" / "describe_desk.txt"

TINY = [
    "--set", "image_size=16", "--set", "patch_size=4", "--set", "embed_dim=8",
    "--set", "depth=1", "--set", "heads=2", "--set", "window=2",
    "--set", "mlp_ratio=2", "--set", "samples_per_class=5",
]


def assert_one_error_line(capsys, prefix):
    """stderr is one line starting with ``prefix``; returns stdout."""
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(prefix)
    return out


def tiny_model_config(**overrides):
    kw = dict(image_size=16, patch_size=4, embed_dim=8, depth=1, heads=2,
              window=2, mlp_ratio=2, num_classes=3)
    kw.update(overrides)
    return ModelConfig(**kw)


# ---------------------------------------------------------------------------
# config plumbing


class TestRunConfig:
    def test_defaults(self):
        run = RunConfig.load()
        assert run["image_size"] == 64
        assert run["epochs"] == 10
        assert run["dataset"] == "synthetic"

    def test_file_then_set_then_seed_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\nseed = 9\nlr_init = 1e-3  # comment\n")
        run = RunConfig.load(config_path=cfg, overrides=["epochs=2"], seed=4)
        assert run["epochs"] == 2  # --set beats the file
        assert run["seed"] == 4  # --seed beats everything
        assert run["lr_init"] == 1e-3

    def test_unknown_key_rejected_with_location(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate=0.1\n")
        with pytest.raises(ConfigError) as exc:
            RunConfig.load(config_path=cfg)
        assert "run.cfg:1" in str(exc.value)
        with pytest.raises(ConfigError, match="--set"):
            RunConfig.load(overrides=["learning_rate=0.1"])

    def test_type_errors_name_key(self):
        with pytest.raises(ConfigError, match="epochs"):
            RunConfig.load(overrides=["epochs=ten"])

    def test_malformed_lines(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(ConfigError, match="key=value"):
            RunConfig.load(config_path=cfg)
        with pytest.raises(ConfigError, match="key=value"):
            RunConfig.load(overrides=["epochs"])

    def test_dataset_name_checked(self):
        with pytest.raises(ConfigError, match="dataset"):
            RunConfig.load(overrides=["dataset=imagefolder"])

    def test_keys_are_the_dataclass_fields(self):
        run = RunConfig.load()
        keys = {"dataset", "manifest_path"}
        for cls in (ModelConfig, TrainConfig, SyntheticSpec):
            for f in dataclasses.fields(cls):
                key = "data_seed" if (cls, f.name) == (SyntheticSpec, "seed") else f.name
                assert run[key] == f.default, key
                assert type(run[key]).__name__ == f.type, key
                keys.add(key)
        assert set(run.values) == keys
        assert run.model_config() == ModelConfig()
        assert run.train_config() == TrainConfig()
        assert run._build(SyntheticSpec) == SyntheticSpec()

    def test_data_seed_builds_the_dataset_seed(self):
        run = RunConfig.load(overrides=["data_seed=7", "seed=3"])
        assert run._build(SyntheticSpec).seed == 7
        assert run.model_config().seed == 3

    @pytest.mark.parametrize("key,value", [("noise_std", "nan"), ("weight_decay", "inf"),
                                           ("lr_init", "inf")])
    def test_non_finite_float_exits_2(self, tmp_path, capsys, key, value):
        code = main(["train", *TINY, "--set", "epochs=1", "--set", f"{key}={value}",
                     "--out", str(tmp_path)])
        assert code == 2
        assert key in capsys.readouterr().err


# ---------------------------------------------------------------------------
# describe


class TestDescribe:
    def test_desk_output_matches_golden(self, tmp_path, capsys):
        assert main(["describe", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        head = out.split("\ncsv written to", 1)[0] + "\n"
        assert head == GOLDEN.read_text()

    def test_csv_has_both_variants(self, tmp_path, capsys):
        assert main(["describe", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "describe.csv").read_text().strip().split("\n")
        assert lines[0] == "layer,name,params,flops,variant"
        variants = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert variants == {"windowed", "global"}
        totals = [l for l in lines if l.startswith("total,,")]
        assert len(totals) == 2

    def test_depth_zero(self, tmp_path, capsys):
        assert main(["describe", "--set", "depth=0", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "saves 0 FLOPs" in out

    def test_invalid_geometry_exits_2(self, tmp_path, capsys):
        code = main(["describe", "--set", "window=3", "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        assert main(["describe", "--set", "windows=3", "--out", str(tmp_path)]) == 2

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["describe", "--out", str(taken)]) == 2
        assert assert_one_error_line(capsys, "config error: cannot create output directory") == ""

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"epochs=2\n# caf\xff\n")
        assert main(["describe", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(cfg) in err


# ---------------------------------------------------------------------------
# check


class TestCheck:
    def test_healthy_build_exits_0(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "all suites passed" in out
        for name in ("roundtrip", "row_stochastic", "gradients", "equivalence",
                     "cost_reconciliation"):
            assert f"{name}" in out
        assert "FAIL" not in out

    def test_tight_float64_gradients_exit_0(self, capsys):
        assert main(["check", "--f64"]) == 0
        out = capsys.readouterr().out
        grad_line = next(l for l in out.splitlines() if l.startswith("gradients"))
        assert "PASS" in grad_line and "< 1e-05" in grad_line

    def test_injected_fault_exits_1(self, capsys):
        code = main(["check", "--fault-bias-sign"])
        assert code == 1
        out = capsys.readouterr().out
        assert "SUITE FAILURES PRESENT" in out
        eq_line = next(l for l in out.splitlines() if l.startswith("equivalence"))
        assert "FAIL" in eq_line
        grad_line = next(l for l in out.splitlines() if l.startswith("gradients"))
        assert "PASS" in grad_line


# ---------------------------------------------------------------------------
# train / eval


class TestTrainEval:
    def test_train_then_eval_flow(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", *TINY, "--set", "epochs=2", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "trained" in stdout and "checkpoint:" in stdout
        assert (out / "checkpoint.wmh").is_file()
        assert (out / "metrics.csv").is_file()
        assert (out / "config_resolved.txt").is_file()
        resolved = (out / "config_resolved.txt").read_text()
        assert "epochs=2" in resolved and "embed_dim=8" in resolved
        metrics_lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert metrics_lines[0] == "step,lr,loss,acc,pre,rec,f1"

        code = main(["eval", *TINY, "--checkpoint", str(out / "checkpoint.wmh")])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("acc=")
        for key in ("pre=", "rec=", "f1="):
            assert key in line

    def test_eval_untrained_checkpoint_is_exact_chance(self, tmp_path, capsys):
        # zero head -> constant logits -> all predictions class 0 -> the
        # balanced synthetic val split scores exactly 1/3
        ckpt = tmp_path / "fresh.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        code = main(["eval", *TINY, "--checkpoint", str(ckpt)])
        assert code == 0
        assert "acc=0.3333" in capsys.readouterr().out

    def test_eval_missing_checkpoint_exits_3(self, tmp_path, capsys):
        code = main(["eval", *TINY, "--checkpoint", str(tmp_path / "no.wmh")])
        assert code == 3
        assert "checkpoint error" in capsys.readouterr().err

    def test_eval_wrong_config_exits_3(self, tmp_path, capsys):
        ckpt = tmp_path / "tiny.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        args = [a if a != "embed_dim=8" else "embed_dim=16" for a in TINY]
        code = main(["eval", *args, "--checkpoint", str(ckpt)])
        assert code == 3
        assert "checkpoint error" in capsys.readouterr().err

    def test_eval_without_checkpoint_flag_exits_2(self, capsys):
        assert main(["eval", *TINY]) == 2

    def test_train_out_under_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["train", *TINY, "--set", "epochs=1", "--out", str(taken / "x")])
        assert code == 2
        assert_one_error_line(capsys, "config error: cannot create output directory")

    def test_train_config_error_leaves_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["train", *TINY, "--set", "epochs=0", "--out", str(out)]) == 2
        assert_one_error_line(capsys, "config error:")
        assert not out.exists()

    def test_train_non_utf8_manifest_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "data.csv"
        manifest.write_bytes(b"filepath,label,split\n\xff.ppm,0,train\n")
        code = main([
            "train", *TINY, "--set", "dataset=manifest",
            "--set", f"manifest_path={manifest}", "--out", str(tmp_path / "m"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "row 2" in err and str(manifest) in err

    def test_train_checkpoint_write_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        import winvit.tensor as tensor_mod

        def full_disk(t, f):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(tensor_mod, "write_tensor", full_disk)
        out = tmp_path / "run"
        code = main(["train", *TINY, "--set", "epochs=1", "--out", str(out)])
        assert code == 3
        assert "checkpoint error" in capsys.readouterr().err
        assert not any(p.suffix in (".wmh", ".tmp") for p in out.iterdir())

    def test_train_divergent_lr_exits_1(self, tmp_path, capsys, monkeypatch):
        import winvit.train as train_mod

        monkeypatch.setattr(train_mod, "DIVERGENCE_PATIENCE", 1)
        code = main([
            "train", *TINY, "--set", "epochs=5", "--set", "lr_init=30.0",
            "--set", "weight_decay=0", "--out", str(tmp_path / "d"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# heatmap


class TestHeatmap:
    def test_zeroed_gate_renders_uniform_midgray(self, tmp_path, capsys):
        # zeroed gate kernel -> gate 0.5 everywhere -> a constant map is
        # written at its own gray level, round(0.5 * 255) = 128
        model = Model(tiny_model_config())
        for name, t in model.named_params():
            if ".sam." in name:
                t.data[...] = 0.0
        ckpt = tmp_path / "fresh.wmh"
        save_checkpoint(model, ckpt)
        out = tmp_path / "maps"
        code = main(["heatmap", *TINY, "--checkpoint", str(ckpt), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "wrote 3 maps" in stdout  # 1 sam + 2 heads at depth 1
        sam = read_ppm_p5(out / "block0_sam.ppm")
        assert sam.shape == (16, 16)  # 4x4 grid upsampled by patch size 4
        np.testing.assert_allclose(sam, 128 / 255, atol=1e-12)

    def test_attention_maps_span_full_range(self, tmp_path):
        # min-max scaling puts 0 and 255 in every non-constant map
        rng = np.random.default_rng(190)
        model = Model(tiny_model_config())
        for _, t in model.named_params():
            t.data[...] = rng.normal(scale=0.1, size=t.shape).astype(t.dtype)
        ckpt = tmp_path / "noisy.wmh"
        save_checkpoint(model, ckpt)
        out = tmp_path / "maps"
        assert main(["heatmap", *TINY, "--checkpoint", str(ckpt), "--out", str(out)]) == 0
        files = sorted(os.listdir(out))
        assert files == ["block0_head0.ppm", "block0_head1.ppm", "block0_sam.ppm"]
        for name in ("block0_head0.ppm", "block0_head1.ppm"):
            img = read_ppm_p5(out / name)
            assert img.min() == 0.0 and img.max() == 1.0

    def test_query_token_reported(self, tmp_path, capsys):
        ckpt = tmp_path / "fresh.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        out = tmp_path / "maps"
        code = main([
            "heatmap", *TINY, "--checkpoint", str(ckpt), "--token", "5",
            "--out", str(out),
        ])
        assert code == 0
        assert "query token 5 (row 1, col 1)" in capsys.readouterr().out

    def test_token_out_of_range_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "fresh.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        code = main([
            "heatmap", *TINY, "--checkpoint", str(ckpt), "--token", "16",
            "--out", str(tmp_path / "maps"),
        ])
        assert code == 2
        assert "token index" in capsys.readouterr().err

    def test_explicit_query_image(self, tmp_path, capsys):
        ckpt = tmp_path / "fresh.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        img_path = tmp_path / "query.ppm"
        rng = np.random.default_rng(191)
        write_ppm_p6(img_path, rng.integers(0, 256, size=(3, 20, 20)).astype(np.uint8))
        out = tmp_path / "maps"
        code = main([
            "heatmap", *TINY, "--checkpoint", str(ckpt), "--image", str(img_path),
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "block0_sam.ppm").is_file()

    def test_missing_query_image_exits_1(self, tmp_path, capsys):
        ckpt = tmp_path / "fresh.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        code = main([
            "heatmap", *TINY, "--checkpoint", str(ckpt), "--image", str(tmp_path / "missing.ppm"),
            "--out", str(tmp_path / "maps"),
        ])
        assert code == 1
        assert_one_error_line(capsys, "error: cannot open image")

    def test_missing_checkpoint_exits_3(self, tmp_path):
        assert main([
            "heatmap", *TINY, "--checkpoint", str(tmp_path / "no.wmh"),
            "--out", str(tmp_path / "maps"),
        ]) == 3


# ---------------------------------------------------------------------------
# console entry point


class TestConsoleScript:
    def test_installed_script_runs_describe(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "winvit.cli", "describe", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "windowed attention saves 3145728 FLOPs" in proc.stdout
