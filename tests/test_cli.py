"""Command-line interface tests.

Commands run in-process through main(argv) so exit codes and output are
asserted directly; subprocess tests run `python -m winvit.cli` where only
a separate process can show the behaviour: a config piped through
/dev/stdin, and a run that outgrows its own address-space cap. The
describe table is pinned byte-for-byte against a golden file.
"""

import builtins
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from winvit.attention import set_fault_bias_sign
from winvit.cli import RunConfig, main
from winvit.data import SyntheticSpec, bilinear_resize, read_ppm, read_ppm_p5, write_ppm_p6
from winvit.errors import ConfigError
from winvit.model import Model, ModelConfig, classify, load_checkpoint, save_checkpoint
from winvit.tensor import Tensor
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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfimage_size=32\n")
        assert RunConfig.load(config_path=cfg)["image_size"] == 32

    @pytest.mark.parametrize("raw, manifest_path", [
        (b"\xef\xbb\xbfimage_size=32\r\nepochs=3\r\n", ""),  # BOM and CRLF
        (b"image_size=32\repochs=3\r", ""),  # a lone CR ends a line
        # form feed and U+2028 stay inside a value; only CR and LF end a line
        ("image_size=32\nmanifest_path=a\x0cb\u2028c\nepochs=3\n".encode(), "a\x0cb\u2028c"),
    ])
    def test_line_endings(self, tmp_path, raw, manifest_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(raw)
        run = RunConfig.load(config_path=cfg)
        assert (run["image_size"], run["epochs"], run["manifest_path"]) == (32, 3, manifest_path)

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

    def test_csv_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "describe.csv").mkdir()
        assert main(["describe", "--out", str(tmp_path)]) == 2
        assert_one_error_line(capsys, "config error: cannot write")

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
        set_fault_bias_sign(True)
        try:
            code = main(["check"])
        finally:
            set_fault_bias_sign(False)
        assert code == 1
        out = capsys.readouterr().out
        assert "SUITE FAILURES PRESENT" in out
        eq_line = next(l for l in out.splitlines() if l.startswith("equivalence"))
        assert "FAIL" in eq_line
        grad_line = next(l for l in out.splitlines() if l.startswith("gradients"))
        assert "PASS" in grad_line

    def test_fault_option_is_a_usage_error(self, capsys):
        # the bias-sign fault is switched in code only, never from the command line
        with pytest.raises(SystemExit) as exc:
            main(["check", "--fault-bias-sign"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fault-bias-sign" in capsys.readouterr().err


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

        final = [ln for ln in stdout.splitlines() if ln.startswith("final val: ")]
        assert len(final) == 1

        # the recorded config and the checkpoint evaluate to what train reported
        code = main(["eval", "--config", str(out / "config_resolved.txt"),
                     "--checkpoint", str(out / "checkpoint.wmh")])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("acc=")
        for key in ("pre=", "rec=", "f1="):
            assert key in line
        assert line == final[0].removeprefix("final val: ")

    def test_train_evaluates_val_once_per_eval_point(self, tmp_path, capsys, monkeypatch):
        # "final val:" reports train_loop's evaluation at the final step;
        # train does not evaluate the same weights again
        import winvit.cli as cli_mod
        import winvit.train as train_mod

        evaluate, measured = train_mod.evaluate, []

        def counting(model, dataset):
            result = evaluate(model, dataset)
            measured.append(result[1])
            return result

        monkeypatch.setattr(train_mod, "evaluate", counting)
        monkeypatch.setattr(cli_mod, "evaluate", counting)
        out = tmp_path / "run"
        assert main(["train", *TINY, "--set", "epochs=2", "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().strip().split("\n")[1:]
        assert len(measured) == sum(1 for row in rows if not row.endswith(",,,,")) == 2
        final = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("final val: ")]
        assert final == ["final val: " + cli_mod._METRICS_LINE.format(**measured[-1])]
        assert final[0].split()[2] == f"acc={float(rows[-1].split(',')[3]):.4f}"

    def test_eval_untrained_checkpoint_is_exact_chance(self, tmp_path, capsys):
        # zero head -> constant logits -> all predictions class 0 -> the
        # balanced synthetic val split scores exactly 1/3
        ckpt = tmp_path / "fresh.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        code = main(["eval", *TINY, "--checkpoint", str(ckpt)])
        assert code == 0
        assert "acc=0.3333" in capsys.readouterr().out

    def test_eval_scores_the_val_split(self, tmp_path, capsys):
        # the zero head predicts class 0 for every image, so the all-class-0
        # train split would score 1 and the all-class-1 val split scores 0
        rng = np.random.default_rng(193)
        rows = ["filepath,label,split"]
        for i, (label, split) in enumerate([(0, "train")] * 3 + [(1, "val")] * 2):
            write_ppm_p6(tmp_path / f"{i}.ppm", rng.integers(0, 256, size=(3, 16, 16)).astype(np.uint8))
            rows.append(f"{i}.ppm,{label},{split}")
        manifest = tmp_path / "data.csv"
        manifest.write_text("\n".join(rows) + "\n")
        ckpt = tmp_path / "fresh.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        code = main(["eval", *TINY, "--set", "dataset=manifest", "--set", f"manifest_path={manifest}",
                     "--checkpoint", str(ckpt)])
        assert code == 0
        assert capsys.readouterr().out.startswith("acc=0.0000 ")

    def test_eval_missing_checkpoint_exits_3(self, tmp_path, capsys):
        code = main(["eval", *TINY, "--checkpoint", str(tmp_path / "no.wmh")])
        assert code == 3
        assert "checkpoint error" in capsys.readouterr().err

    def test_eval_directory_checkpoint_exits_3(self, tmp_path, capsys):
        code = main(["eval", *TINY, "--checkpoint", str(tmp_path)])
        assert code == 3
        assert_one_error_line(capsys, "checkpoint error: cannot open checkpoint")

    @pytest.mark.parametrize("command", ["eval", "heatmap"])
    def test_wrong_config_exits_3(self, tmp_path, capsys, command):
        ckpt = tmp_path / "tiny.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        args = [a if a != "embed_dim=8" else "embed_dim=16" for a in TINY]
        code = main([command, *args, "--checkpoint", str(ckpt), "--out", str(tmp_path / "maps")])
        assert code == 3
        assert_one_error_line(capsys, "checkpoint error: checkpoint holds embed_dim=8, "
                                      "requested config has embed_dim=16")
        assert not (tmp_path / "maps").exists()

    def test_eval_at_another_image_size_exits_3(self, tmp_path, capsys):
        # image_size shapes no tensor; the header comparison still names it
        ckpt = tmp_path / "tiny.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        code = main(["eval", *TINY, "--set", "image_size=8", "--checkpoint", str(ckpt)])
        assert code == 3
        assert_one_error_line(capsys, "checkpoint error: checkpoint holds image_size=16, "
                                      "requested config has image_size=8")

    def test_eval_nonfinite_checkpoint_exits_3(self, tmp_path, capsys):
        ckpt = tmp_path / "nan.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        raw = bytearray(ckpt.read_bytes())
        raw[-4:] = np.float32(np.nan).tobytes()  # the last head_bias value
        ckpt.write_bytes(bytes(raw))
        code = main(["eval", *TINY, "--checkpoint", str(ckpt)])
        assert code == 3
        assert_one_error_line(capsys, "checkpoint error: parameter head_bias in ")

    def test_eval_without_checkpoint_flag_exits_2(self, capsys):
        assert main(["eval", *TINY]) == 2

    def test_train_out_under_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["train", *TINY, "--set", "epochs=1", "--out", str(taken / "x")])
        assert code == 2
        assert_one_error_line(capsys, "config error: cannot create output directory")

    @pytest.mark.parametrize("record", ["config_resolved.txt", "metrics.csv"])
    def test_train_config_record_unwritable_exits_2(self, tmp_path, capsys, record):
        (tmp_path / record).mkdir()
        code = main(["train", *TINY, "--set", "epochs=1", "--out", str(tmp_path)])
        assert code == 2
        assert_one_error_line(capsys, "config error: cannot write")

    def test_config_record_keeps_argv_bytes_that_are_not_utf8(self, tmp_path):
        # Python decodes such argv bytes to lone surrogates; the record
        # writes the original bytes back instead of raising UnicodeEncodeError
        code = main(["train", *TINY, "--set", "epochs=1", "--set", "manifest_path=x\udcff",
                     "--out", str(tmp_path)])
        assert code == 0
        assert b"\nmanifest_path=x\xff\n" in (tmp_path / "config_resolved.txt").read_bytes()

    def test_train_config_error_leaves_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["train", *TINY, "--set", "epochs=0", "--out", str(out)]) == 2
        assert_one_error_line(capsys, "config error:")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"],
        ["--set", "data_seed=-1"],
        ["--set", f"seed={2**64}"],  # beyond the checkpoint's int64 seed
        ["--set", "samples_per_class=0"],  # rejected when the dataset is built
    ], ids=["seed", "data_seed", "seed-2**64", "samples_per_class"])
    def test_train_bad_value_exits_2_and_leaves_no_out_dir(self, tmp_path, capsys, flags):
        out = tmp_path / "d"
        assert main(["train", *TINY, "--set", "epochs=1", *flags, "--out", str(out)]) == 2
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

    @pytest.mark.parametrize("flags", [
        ["lr_init=1e30"],
        ["lr_min=0", "lr_init=1e38"],
        ["weight_decay=1e308"],
    ])
    def test_train_that_would_write_nonfinite_parameters_exits_1(self, tmp_path, capsys, flags):
        # each of these steps overflows the update or the decay of a finite
        # gradient; the run stops before any parameter or checkpoint holds
        # the result
        out = tmp_path / "run"
        sets = [arg for flag in flags for arg in ("--set", flag)]
        code = main(["train", *sets, "--set", "samples_per_class=2", "--set", "epochs=1",
                     "--out", str(out)])
        assert code == 1
        assert_one_error_line(capsys, "error: step 1 ")
        assert not list(out.glob("*.wmh"))

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

    def test_attention_row_placed_in_query_window(self, tmp_path):
        # token 13 of the 4x4 grid is (row 3, col 1): window (1, 0) of the
        # 2x2 windows, position 3 inside it; not the default centre token
        rng = np.random.default_rng(192)
        model = Model(tiny_model_config())
        for _, t in model.named_params():
            t.data[...] = rng.normal(scale=0.5, size=t.shape).astype(t.dtype)
        ckpt = tmp_path / "noisy.wmh"
        save_checkpoint(model, ckpt)
        img_path = tmp_path / "query.ppm"
        write_ppm_p6(img_path, rng.integers(0, 256, size=(3, 16, 16)).astype(np.uint8))
        out = tmp_path / "maps"
        assert main([
            "heatmap", *TINY, "--checkpoint", str(ckpt), "--image", str(img_path),
            "--token", "13", "--out", str(out),
        ]) == 0

        image = bilinear_resize(read_ppm(img_path), 16, 16).astype(np.float32)
        capture = []
        classify(Tensor(image), load_checkpoint(ckpt), capture=capture)
        attn = capture[0]["attn"].data  # (4 windows, 2 heads, 4, 4)
        for j in range(2):
            grid = read_ppm_p5(out / f"block0_head{j}.ppm")[::4, ::4]  # undo the x4 upsample
            outside = np.ones((4, 4), dtype=bool)
            outside[2:4, 0:2] = False
            assert np.all(grid[outside] == 0.0)
            row = attn[2, j, 3].astype(np.float64)
            # the map's minimum is an outside 0, so its gray levels are row / max
            levels = np.round(row / row.max() * 255.0)
            assert len(np.unique(levels)) == 4  # a transposed block would not match
            np.testing.assert_array_equal(np.round(grid[2:4, 0:2] * 255.0), levels.reshape(2, 2))

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

    def test_query_image_piped_through_stdin(self, tmp_path):
        # a pipe cannot seek; the image is read whole before it is parsed
        ckpt = tmp_path / "fresh.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        img_path = tmp_path / "query.ppm"
        rng = np.random.default_rng(193)
        write_ppm_p6(img_path, rng.integers(0, 256, size=(3, 20, 20)).astype(np.uint8))
        args = ["heatmap", *TINY, "--checkpoint", str(ckpt), "--token", "13"]
        assert main([*args, "--image", str(img_path), "--out", str(tmp_path / "file")]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "winvit.cli", *args, "--image", "/dev/stdin",
             "--out", str(tmp_path / "pipe")],
            input=img_path.read_bytes(),
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("block0_sam.ppm", "block0_head0.ppm", "block0_head1.ppm"):
            assert (tmp_path / "pipe" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()

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
# output faults


def command_args(tmp_path, command):
    """argv for a tiny run of ``command``, without ``--out``; heatmap reads
    a fresh checkpoint saved at tmp_path/fresh.wmh."""
    if command == "heatmap":
        save_checkpoint(Model(tiny_model_config()), tmp_path / "fresh.wmh")
    return {
        "describe": ["describe"],
        "train": ["train", *TINY, "--set", "epochs=1"],
        "heatmap": ["heatmap", *TINY, "--checkpoint", str(tmp_path / "fresh.wmh")],
    }[command]


def run_with_fault(tmp_path, monkeypatch, command, target, fault):
    """Run ``command`` with ``--out`` at tmp_path/out, where ``target``
    already holds b"old", while ``fault`` ("replace" or "fsync") raises
    OSError(28); os.replace fails only when it renames onto ``target``.
    Returns the exit code."""
    out = tmp_path / "out"
    out.mkdir()
    (out / target).write_bytes(b"old")
    args = command_args(tmp_path, command)
    real_replace = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == target:
            raise OSError(28, "No space left on device")
        real_replace(src, dst)

    def fsync(fd):
        raise OSError(28, "No space left on device")

    if fault == "replace":
        monkeypatch.setattr(os, "replace", replace)
    else:
        monkeypatch.setattr(os, "fsync", fsync)
    code = main([*args, "--out", str(out)])
    monkeypatch.undo()
    assert (out / target).read_bytes() == b"old"
    assert not list(out.glob("*.tmp"))
    return code


class TestOutputFaults:
    @pytest.mark.parametrize("command, target, code, prefix", [
        ("describe", "describe.csv", 2, "config error: cannot write"),
        ("train", "config_resolved.txt", 2, "config error: cannot write"),
        ("train", "checkpoint.wmh", 3, "checkpoint error: cannot write"),
        ("heatmap", "block0_sam.ppm", 2, "config error: cannot write"),
    ])
    def test_failed_rename(self, tmp_path, capsys, monkeypatch, command, target, code, prefix):
        assert run_with_fault(tmp_path, monkeypatch, command, target, "replace") == code
        assert_one_error_line(capsys, prefix)

    # the first file each command writes is the one whose fsync fails
    @pytest.mark.parametrize("command, target", [
        ("describe", "describe.csv"),
        ("train", "config_resolved.txt"),
        ("heatmap", "block0_sam.ppm"),
    ])
    def test_failed_fsync(self, tmp_path, capsys, monkeypatch, command, target):
        assert run_with_fault(tmp_path, monkeypatch, command, target, "fsync") == 2
        assert_one_error_line(capsys, "config error: cannot write")

    @pytest.mark.parametrize("command", ["describe", "train", "heatmap"])
    def test_each_failed_open_for_writing(self, tmp_path, capsys, monkeypatch, command):
        # the k-th open for writing under --out fails, for k = 1, 2, ...
        # until the command succeeds; each output is opened once, so each
        # is the failed target of exactly one run
        args = command_args(tmp_path, command)
        real_open = builtins.open
        targets, outs = [], []
        while True:
            out = tmp_path / f"out{len(outs)}"
            outs.append(out)
            opens = []

            def failing_open(file, mode="r", *rest, **kw):
                if (isinstance(file, (str, os.PathLike)) and set(mode) & set("wax+")
                        and os.path.abspath(file).startswith(f"{out}{os.sep}")):
                    opens.append(file)
                    if len(opens) == len(outs):
                        raise OSError(28, "No space left on device")
                return real_open(file, mode, *rest, **kw)

            monkeypatch.setattr(builtins, "open", failing_open)
            code = main([*args, "--out", str(out)])
            monkeypatch.undo()
            if len(opens) < len(outs):
                assert code == 0 and capsys.readouterr().err == ""
                break
            target = re.sub(r"\.\d+\.tmp$", "", os.fspath(opens[-1]))  # write_file's temporary
            kind = "checkpoint" if target.endswith(".wmh") else "config"
            assert code == (3 if kind == "checkpoint" else 2)
            assert_one_error_line(capsys, f"{kind} error: cannot write {target}: ")
            targets.append(os.path.basename(target))
        done = {p.name: p.read_bytes() for p in outs[-1].iterdir()}
        assert sorted(targets) == sorted(done)
        # a failed run leaves only whole outputs: the metrics log holds
        # whole rows, every other file the bytes of the run that succeeded
        for out in outs[:-1]:
            for p in out.iterdir():
                if p.name == "metrics.csv":
                    assert done[p.name].startswith(p.read_bytes())
                    assert p.read_bytes().endswith(b"\n")
                else:
                    assert p.read_bytes() == done[p.name], p

    @pytest.mark.parametrize("command", ["describe", "train", "heatmap"])
    def test_failed_makedirs(self, tmp_path, capsys, monkeypatch, command):
        args = command_args(tmp_path, command)

        def makedirs(*_, **__):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(os, "makedirs", makedirs)
        out = tmp_path / "out"
        code = main([*args, "--out", str(out)])
        monkeypatch.undo()
        assert code == 2
        assert_one_error_line(capsys, "config error: cannot create output directory")
        assert not out.exists()

    def test_heatmap_map_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "fresh.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        out = tmp_path / "maps"
        (out / "block0_sam.ppm").mkdir(parents=True)
        code = main(["heatmap", *TINY, "--checkpoint", str(ckpt), "--out", str(out)])
        assert code == 2
        assert_one_error_line(capsys, "config error: cannot write")


# ---------------------------------------------------------------------------
# console entry point


class TestConsoleScript:
    def test_out_of_memory_exits_1_with_one_line(self, tmp_path):
        # The child caps its own address space, and no other process's. At
        # image_size=4096 one rendered image is 384 MiB of float64, so the
        # dataset outgrows the cap before --out is made.
        resource = pytest.importorskip("resource")
        cap = 1 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "winvit.cli", "train", "--set", "image_size=4096",
             "--set", "samples_per_class=2", "--set", "epochs=1", "--out", str(out)],
            capture_output=True, text=True, preexec_fn=limit,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 1, proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: out of memory: ")
        assert not out.exists()

    def test_oversized_requested_config_exits_3_before_allocating(self, tmp_path):
        # Under the same 1 GiB cap, embed_dim=65536 would need a 32 GiB
        # model; the checkpoint's header refuses the config before any
        # parameter is allocated.
        resource = pytest.importorskip("resource")
        cap = 1 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        ckpt = tmp_path / "tiny.wmh"
        save_checkpoint(Model(tiny_model_config()), ckpt)
        args = [a if a != "embed_dim=8" else "embed_dim=65536" for a in TINY]
        proc = subprocess.run(
            [sys.executable, "-m", "winvit.cli", "eval", *args, "--checkpoint", str(ckpt)],
            capture_output=True, text=True, preexec_fn=limit,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 3, proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("checkpoint error: checkpoint holds embed_dim=8, ")

    def test_config_piped_through_stdin_reads_as_the_file_does(self, tmp_path):
        # a byte-order mark and CRLF lines, read from a pipe and from a file
        raw = b"\xef\xbb\xbfembed_dim=32\r\ndepth=2\r\n"
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(raw)
        assert main(["describe", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "winvit.cli", "describe", "--config", "/dev/stdin",
             "--out", str(tmp_path / "pipe")],
            input=raw, capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        expected = (tmp_path / "file" / "describe.csv").read_bytes()
        assert (tmp_path / "pipe" / "describe.csv").read_bytes() == expected
