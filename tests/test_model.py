"""Classifier assembly and checkpoint tests.

The forward-path oracle here is a from-scratch recomposition of the whole
network out of primitives already proven in test_tensor.py, written in a
straight line so any wiring mistake in the library (wrong residual, wrong
norm placement, wrong reshape order) shows up as a mismatch.
"""

import dataclasses
import hashlib
import io
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from winvit import tensor as tc
from winvit.attention import window_merge, window_partition
from winvit.costs import model_cost
from winvit.errors import (
    CheckpointError,
    CheckpointMagicError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    ConfigError,
)
from winvit.model import (
    CHECKPOINT_MAGIC,
    Model,
    ModelConfig,
    _write_config,
    classify,
    load_checkpoint,
    patch_embed,
    save_checkpoint,
)
from winvit.spatial import sam_map

SMALL = dict(
    image_size=16, patch_size=4, embed_dim=8, depth=1, heads=2, window=2,
    mlp_ratio=2, num_classes=3,
)


def small_config(**overrides):
    kw = dict(SMALL)
    kw.update(overrides)
    return ModelConfig(**kw)


def randomize(model: Model, seed: int, scale=0.1) -> Model:
    """Fill every parameter (head included) with seeded noise."""
    rng = np.random.default_rng(seed)
    seen = set()
    for _, t in model.named_params():
        if id(t) in seen:
            continue
        seen.add(id(t))
        t.data[...] = rng.normal(scale=scale, size=t.shape).astype(t.dtype)
    return model


# ---------------------------------------------------------------------------
# config


class TestModelConfig:
    def test_defaults_are_consistent(self):
        c = ModelConfig()
        assert c.grid == 8
        assert c.tokens == 64
        assert c.geometry.n_windows == 4

    def test_rejections(self):
        with pytest.raises(ConfigError):
            small_config(image_size=17)  # patch does not divide image
        with pytest.raises(ConfigError):
            small_config(window=3)  # window does not divide grid
        with pytest.raises(ConfigError):
            small_config(embed_dim=9)  # heads do not divide channels
        with pytest.raises(ConfigError):
            small_config(num_classes=1)
        with pytest.raises(ConfigError):
            small_config(depth=-1)
        with pytest.raises(ConfigError):
            small_config(mlp_ratio=0)
        with pytest.raises(ConfigError):
            small_config(dropout_rate=1.5)
        with pytest.raises(ConfigError):
            small_config(sharing_mode="mystery")
        for seed in (-1, 2**63):  # numpy rejects the first, the int64 record the second
            with pytest.raises(ConfigError, match="seed"):
                small_config(seed=seed)

    def test_depth_zero_is_legal(self):
        m = Model(small_config(depth=0))
        img = tc.zeros((3, 16, 16))
        assert classify(img, m).shape == (3,)


# ---------------------------------------------------------------------------
# patch embedding


class TestPatchEmbed:
    def test_zero_image_gives_bias(self):
        m = Model(small_config())
        m.patch_bias = tc.Tensor(np.arange(8.0, dtype=np.float32))
        out = patch_embed(tc.zeros((3, 16, 16)), m).data
        np.testing.assert_allclose(out, np.broadcast_to(np.arange(8.0), (4, 4, 8)))

    def test_selector_weight_reads_chosen_pixel(self):
        # a one-hot projection row copies one flattened patch entry into
        # one channel; entry order is channel-major then row-major pixels
        m = Model(small_config())
        p = 4
        m.patch_weight = tc.zeros((3 * p * p, 8))
        m.patch_bias = tc.zeros((8,))
        chan, py, px = 1, 2, 3
        flat = chan * p * p + py * p + px
        w = np.zeros((3 * p * p, 8), dtype=np.float32)
        w[flat, 5] = 1.0
        m.patch_weight = tc.Tensor(w)
        rng = np.random.default_rng(120)
        img = rng.normal(size=(3, 16, 16)).astype(np.float32)
        out = patch_embed(tc.Tensor(img), m).data
        for gy in range(4):
            for gx in range(4):
                expected = img[chan, gy * p + py, gx * p + px]
                np.testing.assert_allclose(out[gy, gx, 5], expected, rtol=1e-6)
                assert np.all(out[gy, gx, :5] == 0) and np.all(out[gy, gx, 6:] == 0)

    def test_matches_unfold_oracle(self):
        m = randomize(Model(small_config()), seed=121)
        rng = np.random.default_rng(122)
        img = rng.normal(size=(3, 16, 16)).astype(np.float32)
        out = patch_embed(tc.Tensor(img), m).data
        p = 4
        w = m.patch_weight.data.astype(np.float64)
        b = m.patch_bias.data.astype(np.float64)
        for gy in range(4):
            for gx in range(4):
                patch = img[:, gy * p : (gy + 1) * p, gx * p : (gx + 1) * p]
                np.testing.assert_allclose(
                    out[gy, gx], patch.reshape(-1) @ w + b, atol=1e-5
                )

    def test_wrong_image_shape_rejected(self):
        m = Model(small_config())
        with pytest.raises(ConfigError):
            patch_embed(tc.zeros((3, 8, 8)), m)
        with pytest.raises(ConfigError):
            patch_embed(tc.zeros((1, 16, 16)), m)


# ---------------------------------------------------------------------------
# forward path


class TestForward:
    def test_logit_shape_and_finiteness(self):
        m = randomize(Model(small_config()), seed=130)
        logits = classify(tc.Tensor(np.random.default_rng(131).normal(size=(3, 16, 16)).astype(np.float32)), m)
        assert logits.shape == (3,)
        assert np.isfinite(logits.data).all()

    def test_zeroed_block_is_identity(self):
        # with every block weight zero both residual branches contribute
        # nothing, so the token grid passes through unchanged
        m = Model(small_config())
        blk = m.blocks[0]
        for _, t in blk.named_params():
            t.data[...] = 0.0
        blk.ln1_gamma.data[...] = 1.0  # layernorm still normalizes
        blk.ln2_gamma.data[...] = 1.0
        rng = np.random.default_rng(132)
        img = tc.Tensor(rng.normal(size=(3, 16, 16)).astype(np.float32))
        from winvit.model import block_forward

        x = patch_embed(img, m)
        y = block_forward(x, blk)
        np.testing.assert_allclose(y.data, x.data, atol=1e-6)

    def test_untrained_logits_equal_head_bias(self):
        m = Model(small_config())
        m.head_bias = tc.Tensor(np.array([0.3, -0.1, 0.7], dtype=np.float32))
        img = tc.Tensor(np.random.default_rng(133).normal(size=(3, 16, 16)).astype(np.float32))
        logits = classify(img, m).data
        np.testing.assert_allclose(logits, [0.3, -0.1, 0.7], atol=1e-7)

    def test_head_bias_shift_preserves_argmax_gaps(self):
        m = randomize(Model(small_config()), seed=134)
        img = tc.Tensor(np.random.default_rng(135).normal(size=(3, 16, 16)).astype(np.float32))
        base = classify(img, m).data.copy()
        m.head_bias = tc.Tensor(m.head_bias.data + np.float32(2.5))
        shifted = classify(img, m).data
        np.testing.assert_allclose(shifted, base + 2.5, atol=1e-5)
        assert shifted.argmax() == base.argmax()

    def test_same_seed_same_logits(self):
        cfg = small_config(seed=7)
        a = Model(cfg)
        b = Model(cfg)
        img = tc.Tensor(np.random.default_rng(136).normal(size=(3, 16, 16)).astype(np.float32))
        la = classify(img, a).data
        lb = classify(img, b).data
        np.testing.assert_array_equal(la, lb)

    def test_different_seed_different_weights(self):
        a = Model(small_config(seed=1))
        b = Model(small_config(seed=2))
        assert np.abs(a.patch_weight.data - b.patch_weight.data).max() > 1e-4

    def test_capture_exposes_attention_and_gate(self):
        m = randomize(Model(small_config(depth=2)), seed=137)
        img = tc.Tensor(np.random.default_rng(138).normal(size=(3, 16, 16)).astype(np.float32))
        capture = []
        classify(img, m, capture=capture)
        assert len(capture) == 2
        for cap in capture:
            attn = cap["attn"].data
            assert attn.shape == (4, 2, 4, 4)  # windows, heads, M^2, M^2
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)
            gate = cap["sam"].data
            assert gate.shape == (1, 4, 4)
            assert ((gate >= 0) & (gate <= 1)).all()

    def test_matches_straight_line_recomposition(self):
        # full depth-1 forward rebuilt inline from primitives
        cfg = small_config()
        m = randomize(Model(cfg), seed=139)
        rng = np.random.default_rng(140)
        img = rng.normal(size=(3, 16, 16)).astype(np.float32)
        got = classify(tc.Tensor(img), m).data

        blk = m.blocks[0]
        g, p, c = cfg.grid, cfg.patch_size, cfg.embed_dim
        l = g * g

        # patches, channel-major flattening
        x = np.zeros((l, 3 * p * p), dtype=np.float32)
        for gy in range(g):
            for gx in range(g):
                x[gy * g + gx] = img[:, gy * p : (gy + 1) * p, gx * p : (gx + 1) * p].reshape(-1)
        tokens = tc.add(tc.matmul(tc.Tensor(x), m.patch_weight), m.patch_bias)

        # attention sublayer
        normed = tc.layernorm_lastdim(tokens, blk.ln1_gamma, blk.ln1_beta)
        windows = window_partition(tc.reshape(normed, (g, g, c)), cfg.window)
        from winvit.attention import window_mha_forward

        attn_out = window_mha_forward(windows, blk.attn)
        merged = window_merge(attn_out, cfg.geometry)
        tokens = tc.add(tokens, tc.reshape(merged, (l, c)))

        # gated feed-forward sublayer
        normed = tc.layernorm_lastdim(tokens, blk.ln2_gamma, blk.ln2_beta)
        hidden = tc.gelu(tc.add(tc.matmul(normed, blk.fc1_weight), blk.fc1_bias))
        rc = hidden.shape[-1]
        grid = tc.depthwise_conv2d(tc.reshape(hidden, (g, g, rc)), blk.dw_kernel, blk.dw_bias, padding=1)
        grid = tc.transpose(grid, (2, 0, 1))
        gate = sam_map(grid, blk.sam)
        grid = tc.add(grid, tc.mul(grid, gate))
        hidden = tc.reshape(tc.transpose(grid, (1, 2, 0)), (l, rc))
        tokens = tc.add(tokens, tc.add(tc.matmul(hidden, blk.fc2_weight), blk.fc2_bias))

        pooled = tc.reduce_mean(tokens, axes=0, keepdims=True)
        ref = tc.add(tc.matmul(pooled, m.head_weight), m.head_bias).data[0]
        np.testing.assert_allclose(got, ref, atol=1e-5)

    def test_to_dtype_preserves_values_and_aliasing(self):
        m = randomize(Model(small_config(sharing_mode="shared_qk")), seed=141)
        m64 = m.to_dtype(np.float64)
        assert m64.patch_weight.dtype == np.float64
        np.testing.assert_allclose(
            m64.patch_weight.data, m.patch_weight.data, atol=1e-7
        )
        assert m64.blocks[0].attn.w_q is m64.blocks[0].attn.w_k

    def test_gradients_reach_every_parameter(self):
        cfg = small_config()
        m = randomize(Model(cfg), seed=142)
        img = tc.Tensor(np.random.default_rng(143).normal(size=(3, 16, 16)).astype(np.float32))
        with tc.Tape() as tape:
            logits = classify(img, m)
            loss = tc.cross_entropy_logits(tc.reshape(logits, (1, 3)), np.array([1]))
        grads = tc.backward(loss, tape)
        for name, t in m.named_params():
            g = grads.get(t)
            assert g is not None, f"no gradient for {name}"
            assert np.abs(g).max() > 0, f"zero gradient for {name}"


# ---------------------------------------------------------------------------
# batched forward


def _f64_batch(b, seed, depth=2):
    m = randomize(Model(small_config(depth=depth)), seed=seed).to_dtype(np.float64)
    images = np.random.default_rng(seed + 1).uniform(0, 1, size=(b, 3, 16, 16))
    return m, images


class TestBatchedForward:
    @pytest.mark.parametrize("b", [1, 4])
    def test_batch_logits_match_single_calls(self, b):
        m, images = _f64_batch(b, seed=150)
        got = classify(tc.Tensor(images), m)
        assert got.shape == (b, 3)
        for i in range(b):
            one = classify(tc.Tensor(images[i]), m)
            assert one.shape == (3,)
            np.testing.assert_allclose(got.data[i], one.data, rtol=0, atol=1e-12)

    def test_one_image_batch_is_bit_equal_and_reaches_every_param(self):
        # a (1, H, W, C) batch adds window_merge's (H, W, C) by broadcasting
        m = randomize(Model(small_config()), seed=152)
        image = np.random.default_rng(153).uniform(0, 1, size=(3, 16, 16)).astype(np.float32)
        one = classify(tc.Tensor(image), m).data
        with tc.Tape() as tape:
            logits = classify(tc.Tensor(image[None]), m, training=True)
            loss = tc.cross_entropy_logits(logits, np.array([1]))
        assert logits.shape == (1, 3)
        assert logits.data[0].tobytes() == one.tobytes()
        grads = tc.backward(loss, tape)
        for name, t in m.named_params():
            assert grads[t].shape == t.shape, name
            assert np.abs(grads[t]).max() > 0, name

    def test_batch_loss_gradients_match_stacked_single_graphs(self):
        m, images = _f64_batch(3, seed=154)
        labels = np.array([2, 0, 1])
        results = []
        for batched in (True, False):
            with tc.Tape() as tape:
                if batched:
                    logits = classify(tc.Tensor(images), m, training=True)
                else:
                    logits = tc.stack([classify(tc.Tensor(im), m, training=True) for im in images])
                loss = tc.cross_entropy_logits(logits, labels)
                grads = tc.backward(loss, tape)
            results.append((loss.item(), {name: grads[t] for name, t in m.named_params()}))
        (loss_b, grads_b), (loss_s, grads_s) = results
        assert abs(loss_b - loss_s) <= 1e-12
        for name, g in grads_b.items():
            np.testing.assert_allclose(g, grads_s[name], rtol=0, atol=1e-12, err_msg=name)

    def test_counted_macs_scale_with_batch(self):
        cfg = small_config(depth=2)
        m = Model(cfg)
        with tc.FlopCounter() as counter:
            classify(tc.zeros((5, 3, 16, 16)), m)
        assert counter.mac_flops == 5 * model_cost(cfg, "windowed").total_flops

    def test_desk_step_returns_only_leaf_gradients(self):
        # a node's output gradient is dropped once the node has run: the
        # gradients are exactly those of the parameters and the image batch
        m = Model(ModelConfig())
        images = tc.Tensor(np.random.default_rng(160).normal(size=(8, 3, 64, 64)).astype(np.float32))
        with tc.Tape() as tape:
            logits = classify(images, m, training=True)
            loss = tc.cross_entropy_logits(logits, np.arange(8) % 3)
        grads = tc.backward(loss, tape)
        assert len(tape.nodes) == 65  # 4 blocks of 14 nodes, 9 outside them
        leaves = [t for _, t in m.named_params()] + [images]
        assert len(grads) == len(leaves)
        for t in leaves:
            assert t in grads

    def test_desk_step_peak_memory(self):
        # The tape keeps leaves and backward closures, not op outputs, and
        # backward frees each closure once it has run. One desk B=8 step
        # (forward and backward) peaks near 16 MB of traced allocations;
        # holding every op output until the step ends took about 25 MB.
        m = Model(ModelConfig())
        images = tc.Tensor(np.random.default_rng(165).normal(size=(8, 3, 64, 64)).astype(np.float32))
        labels = np.arange(8) % 3
        tracemalloc.start()
        try:
            with tc.Tape() as tape:
                loss = tc.cross_entropy_logits(classify(images, m, training=True), labels)
            tc.backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, f"peak {peak / 1e6:.2f} MB"

    def test_desk_step_keeps_no_rebuildable_array(self):
        # The attention backward rebuilds its q/k/v buffer, stacked weight
        # and merged heads; the fc1 and fc2 matmuls keep the recipes of the
        # ln2 and gate outputs instead of those arrays; the depthwise-conv
        # backward frees its kernel-gradient temporaries before the input
        # gradient's. One desk B=8 step then holds 8.90 MB after the forward
        # and peaks at 10.67 MB, against 13.83 and 15.77 MB keeping them.
        m = Model(ModelConfig())
        images = tc.Tensor(np.random.default_rng(165).normal(size=(8, 3, 64, 64)).astype(np.float32))
        labels = np.arange(8) % 3
        tracemalloc.start()
        try:
            with tc.Tape() as tape:
                loss = tc.cross_entropy_logits(classify(images, m, training=True), labels)
            held = tracemalloc.get_traced_memory()[0]
            tc.backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held < 9.5e6, f"held {held / 1e6:.2f} MB after the forward"
        assert peak < 11.5e6, f"peak {peak / 1e6:.2f} MB"

    @staticmethod
    def _record_outputs(monkeypatch) -> list:
        """Every op output from here on, in emit order."""
        outputs = []
        emit = tc._emit

        def recording(data, inputs, backward):
            outputs.append(emit(data, inputs, backward))
            return outputs[-1]

        monkeypatch.setattr(tc, "_emit", recording)
        return outputs

    def _assert_tape_outputs(self, outputs, tape, loss, model, dtype):
        assert loss.shape == ()
        assert len(outputs) == len(tape.nodes)
        for i, out in enumerate(outputs):
            data = out.data
            assert type(data) is np.ndarray and data.flags.c_contiguous, i
            assert data.dtype == dtype and data.size, i
        grads = tc.backward(loss, tape)
        for name, t in model.named_params():
            assert grads[t].dtype == dtype, name

    def test_desk_float32_tape_outputs_are_contiguous_arrays(self, monkeypatch):
        m = Model(ModelConfig())
        images = np.random.default_rng(162).normal(size=(2, 3, 64, 64)).astype(np.float32)
        outputs = self._record_outputs(monkeypatch)
        with tc.Tape() as tape:
            logits = classify(tc.Tensor(images), m, training=True, rng=np.random.default_rng(0))
            loss = tc.cross_entropy_logits(logits, np.array([0, 2]))
        self._assert_tape_outputs(outputs, tape, loss, m, np.float32)

    def test_check_suite_float64_tape_outputs_are_contiguous_arrays(self, monkeypatch):
        # the model and loss of checks.suite_gradients
        cfg = ModelConfig(image_size=16, patch_size=4, embed_dim=8, depth=1, heads=2,
                          window=2, num_classes=3, seed=7)
        m = randomize(Model(cfg), seed=163).to_dtype(np.float64)
        image = tc.Tensor(np.random.default_rng(164).uniform(0, 1, (3, 16, 16)), dtype=np.float64)
        outputs = self._record_outputs(monkeypatch)
        with tc.Tape() as tape:
            logits = classify(image, m, training=False)
            loss = tc.cross_entropy_logits(tc.reshape(logits, (1, 3)), np.array([1]))
        self._assert_tape_outputs(outputs, tape, loss, m, np.float64)

    def test_batch_capture_shapes(self):
        m, images = _f64_batch(2, seed=156)
        capture = []
        classify(tc.Tensor(images), m, capture=capture)
        for cap in capture:
            assert cap["attn"].shape == (2 * 4, 2, 4, 4)  # image-major windows
            assert cap["sam"].shape == (2, 1, 4, 4)

    def test_batch_patch_embed_matches_single(self):
        m, images = _f64_batch(2, seed=158, depth=0)
        got = patch_embed(tc.Tensor(images), m)
        assert got.shape == (2, 4, 4, 8)
        for i in range(2):
            np.testing.assert_array_equal(got.data[i], patch_embed(tc.Tensor(images[i]), m).data)
        for shape in ((2, 1, 16, 16), (1, 2, 3, 16, 16)):
            with pytest.raises(ConfigError):
                patch_embed(tc.zeros(shape), m)


# ---------------------------------------------------------------------------
# checkpoints


class TestCheckpoints:
    # SHA-256 and size of freshly initialized models' .wmh v1 files; the
    # format is frozen, so these bytes must never change
    GOLDEN = [
        ({}, "51e42ab911b84dbc08aaaf30955d10ee5cc31d459c3601ccc69b014a68579463", 897718),
        (dict(image_size=16, patch_size=4, embed_dim=8, depth=2, heads=2, window=2,
              mlp_ratio=2, num_classes=4, dropout_rate=0.25, sharing_mode="shared_qk", seed=9),
         "5beb717ff700881d5aa8e551088f1218546a078117ce65a6b58657194e1939a0", 9318),
        (dict(depth=0), "8a6197e6241ea7849387c8387ced6097606069283ca972c17be8cc852fd06eba", 50386),
    ]

    @pytest.mark.parametrize("fields,digest,size", GOLDEN)
    def test_v1_bytes_are_golden(self, tmp_path, fields, digest, size):
        path = tmp_path / "model.wmh"
        save_checkpoint(Model(ModelConfig(**fields)), path)
        raw = path.read_bytes()
        assert (hashlib.sha256(raw).hexdigest(), len(raw)) == (digest, size)
        assert load_checkpoint(path).config == ModelConfig(**fields)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_parameter_is_not_written(self, tmp_path, value):
        path = tmp_path / "model.wmh"
        save_checkpoint(Model(small_config()), path)
        before = path.read_bytes()
        m = randomize(Model(small_config()), seed=149)
        m.blocks[0].fc2_weight.data[1, 2] = value
        with pytest.raises(CheckpointError, match="block0.fc2_weight holds a non-finite value"):
            save_checkpoint(m, path)
        # the file already there is left as it was, and no temporary remains
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.wmh"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_stored_value_is_refused(self, tmp_path, value):
        path = tmp_path / "model.wmh"
        save_checkpoint(Model(small_config()), path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.float32(value).tobytes()  # the last head_bias value
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="parameter head_bias in .* holds a non-finite value"):
            load_checkpoint(path)

    def test_float64_value_past_float32_range_is_refused(self, tmp_path):
        m = Model(small_config()).to_dtype(np.float64)
        m.blocks[0].fc1_bias.data[2] = 1e300
        path = tmp_path / "model.wmh"
        save_checkpoint(m, path)
        with pytest.raises(CheckpointError, match="parameter block0.fc1_bias in .* non-finite"):
            load_checkpoint(path)

    BLANK_CONFIGS = [ModelConfig(), ModelConfig(sharing_mode="shared_qk", dropout_rate=0.25, seed=3)]

    @pytest.mark.parametrize("cfg", BLANK_CONFIGS, ids=["desk", "shared_qk-dropout"])
    def test_load_and_to_dtype_draw_no_init(self, tmp_path, monkeypatch, cfg):
        m = randomize(Model(cfg), seed=160)
        path = tmp_path / "model.wmh"
        save_checkpoint(m, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("an init was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        for back, dtype in ((load_checkpoint(path), np.float32), (m.to_dtype(np.float64), np.float64)):
            assert back.config == cfg and vars(back).keys() == vars(m).keys()
            for (na, ta), (nb, tb) in zip(m.named_params(), back.named_params(), strict=True):
                assert na == nb and tb.dtype == dtype and tb is not ta
                assert np.array_equal(ta.data, tb.data)
            for block in back.blocks:
                assert (block.attn.w_k is block.attn.w_q) == (cfg.sharing_mode == "shared_qk")

    @pytest.mark.parametrize("cfg", BLANK_CONFIGS, ids=["desk", "shared_qk-dropout"])
    def test_load_never_imports_numpy_random(self, tmp_path, cfg):
        path = tmp_path / "model.wmh"
        save_checkpoint(Model(cfg), path)
        probe = ("import sys, winvit; winvit.load_checkpoint(sys.argv[1]); "
                 "print('numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_roundtrip_bit_exact(self, tmp_path):
        m = randomize(Model(small_config(depth=2)), seed=150)
        path = tmp_path / "model.wmh"
        save_checkpoint(m, path)
        back = load_checkpoint(path)
        for (na, ta), (nb, tb) in zip(m.named_params(), back.named_params()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_roundtrip_preserves_logits(self, tmp_path):
        m = randomize(Model(small_config()), seed=151)
        img = tc.Tensor(np.random.default_rng(152).normal(size=(3, 16, 16)).astype(np.float32))
        before = classify(img, m).data.copy()
        path = tmp_path / "model.wmh"
        save_checkpoint(m, path)
        after = classify(img, load_checkpoint(path)).data
        np.testing.assert_array_equal(before, after)

    def test_shared_qk_stored_once_and_realiased(self, tmp_path):
        cfg = small_config(sharing_mode="shared_qk")
        m = randomize(Model(cfg), seed=153)
        path = tmp_path / "shared.wmh"
        save_checkpoint(m, path)
        back = load_checkpoint(path)
        assert back.blocks[0].attn.w_q is back.blocks[0].attn.w_k
        np.testing.assert_array_equal(
            back.blocks[0].attn.w_q.data, m.blocks[0].attn.w_q.data
        )
        # the shared file is exactly one C x C float32 tensor smaller
        m_std = randomize(Model(small_config()), seed=153)
        std_path = tmp_path / "std.wmh"
        save_checkpoint(m_std, std_path)
        c = cfg.embed_dim
        tensor_overhead = 4 + 4 + 1 + 2 * 8  # magic, rank, width, dims
        assert std_path.stat().st_size - path.stat().st_size == c * c * 4 + tensor_overhead

    def test_load_with_matching_config(self, tmp_path):
        cfg = small_config()
        m = randomize(Model(cfg), seed=154)
        path = tmp_path / "model.wmh"
        save_checkpoint(m, path)
        back = load_checkpoint(path, config=cfg)
        np.testing.assert_array_equal(back.head_weight.data, m.head_weight.data)

    def test_requested_config_may_differ_only_in_seed_and_dropout(self, tmp_path):
        path = tmp_path / "model.wmh"
        save_checkpoint(Model(small_config()), path)
        back = load_checkpoint(path, config=small_config(seed=5, dropout_rate=0.5))
        assert (back.config.seed, back.config.dropout_rate) == (5, 0.5)
        # image_size shapes no tensor, yet a 16 px checkpoint does not load as 8 px
        want = "^checkpoint holds image_size=16, requested config has image_size=8$"
        with pytest.raises(CheckpointShapeError, match=want):
            load_checkpoint(path, config=small_config(image_size=8))

    # one differing value per compared field; each keeps SMALL a valid config
    MISMATCHES = [("image_size", 8), ("patch_size", 8), ("embed_dim", 16), ("depth", 2), ("heads", 4),
                  ("window", 4), ("mlp_ratio", 3), ("num_classes", 4), ("sharing_mode", "shared_qk")]

    def test_mismatches_cover_every_compared_field(self):
        compared = {f.name for f in dataclasses.fields(ModelConfig)} - {"seed", "dropout_rate"}
        assert {name for name, _ in self.MISMATCHES} == compared

    @pytest.mark.parametrize("field,value", MISMATCHES, ids=[name for name, _ in MISMATCHES])
    def test_requested_config_mismatch_names_the_field_from_the_header(self, tmp_path, field, value):
        cfg = small_config()
        path = tmp_path / "model.wmh"
        save_checkpoint(Model(cfg), path)
        want = f"^checkpoint holds {field}={getattr(cfg, field)}, requested config has {field}={value}$"
        with pytest.raises(CheckpointShapeError, match=want):
            load_checkpoint(path, config=small_config(**{field: value}))
        # the header alone decides: a file cut right after it reports the same
        header = io.BytesIO()
        _write_config(header, cfg)
        path.write_bytes(path.read_bytes()[:len(CHECKPOINT_MAGIC) + 4 + len(header.getvalue())])
        with pytest.raises(CheckpointShapeError, match=want):
            load_checkpoint(path, config=small_config(**{field: value}))

    @pytest.mark.parametrize("fields", [{}, dict(sharing_mode="shared_qk"), dict(depth=0)],
                             ids=["standard", "shared_qk", "depth0"])
    def test_sections_declare_the_v1_layout(self, fields):
        cfg = small_config(**{"depth": 2, **fields})
        m = Model(cfg)
        sections = [(tag, [name for name, _ in params]) for tag, params in m.sections()]
        attn = ["w_qk"] if cfg.sharing_mode == "shared_qk" else ["w_q", "w_k"]
        attn += ["w_v", "w_o", "b_q", "b_k", "b_v", "b_o", "bias_table"]
        want = [("PEMB", ["patch_weight", "patch_bias"])]
        for i in range(cfg.depth):
            b = f"block{i}."
            want += [
                ("ATTN", [b + "ln1_gamma", b + "ln1_beta", *(b + "attn." + n for n in attn)]),
                ("SAM ", [b + "sam.conv_kernel", b + "sam.conv_bias"]),
                ("FFN ", [b + n for n in ("ln2_gamma", "ln2_beta", "fc1_weight", "fc1_bias",
                                          "dw_kernel", "dw_bias", "fc2_weight", "fc2_bias")]),
            ]
        want.append(("HEAD", ["head_weight", "head_bias"]))
        assert sections == want
        flat = [(name, t) for _, params in m.sections() for name, t in params]
        assert [(n, id(t)) for n, t in flat] == [(n, id(t)) for n, t in m.named_params()]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wmh"
        path.write_bytes(b"NOPE!" + b"\x00" * 64)
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        m = Model(small_config())
        path = tmp_path / "model.wmh"
        save_checkpoint(m, path)
        raw = bytearray(path.read_bytes())
        raw[len(CHECKPOINT_MAGIC)] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncation_at_many_points(self, tmp_path):
        m = Model(small_config())
        path = tmp_path / "model.wmh"
        save_checkpoint(m, path)
        raw = path.read_bytes()
        cut_path = tmp_path / "cut.wmh"
        for cut in (3, 7, 20, len(raw) // 2, len(raw) - 1):
            cut_path.write_bytes(raw[:cut])
            with pytest.raises((CheckpointTruncatedError, CheckpointMagicError)):
                load_checkpoint(cut_path)

    def test_trailing_bytes_rejected(self, tmp_path):
        m = Model(small_config())
        path = tmp_path / "model.wmh"
        save_checkpoint(m, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_config_names_every_differing_field(self, tmp_path):
        path = tmp_path / "model.wmh"
        save_checkpoint(Model(small_config()), path)
        with pytest.raises(CheckpointShapeError) as exc:
            load_checkpoint(path, config=small_config(embed_dim=16, depth=2, seed=4))
        assert str(exc.value) == "checkpoint holds embed_dim=8 depth=1, requested config has embed_dim=16 depth=2"

    def test_zeroed_section_tag_names_the_config_it_was_read_against(self, tmp_path):
        cfg = small_config()
        header = io.BytesIO()
        _write_config(header, cfg)
        path = tmp_path / "model.wmh"
        save_checkpoint(Model(cfg), path)
        raw = bytearray(path.read_bytes())
        tag_at = len(CHECKPOINT_MAGIC) + 4 + len(header.getvalue())
        assert raw[tag_at:tag_at + 4] == b"PEMB"
        raw[tag_at:tag_at + 4] = bytes(4)
        path.write_bytes(bytes(raw))
        # a requested config has already matched the header, so either way
        # the sections are read against the config the file stores
        for requested in (None, cfg):
            with pytest.raises(CheckpointShapeError, match="does not match its stored config"):
                load_checkpoint(path, config=requested)

    def test_largest_seed_round_trips(self, tmp_path):
        cfg = small_config(seed=2**63 - 1)
        path = tmp_path / "model.wmh"
        save_checkpoint(Model(cfg), path)
        assert load_checkpoint(path).config == cfg

    @pytest.mark.parametrize("declared", [
        dict(image_size=2**20, patch_size=2**20, window=1),  # a 1.5 PiB patch embedding
        dict(depth=2**40),
    ], ids=["huge-patch", "huge-depth"])
    def test_header_declaring_more_than_the_file_holds_is_truncated(self, tmp_path, declared):
        # a header with no sections: the stored config is checked against
        # the bytes left before any parameter is allocated
        cfg = small_config(**declared)
        header = io.BytesIO()
        _write_config(header, cfg)
        path = tmp_path / "crafted.wmh"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1) + header.getvalue())
        # a requested config that matches the header meets the same bound
        for requested in (None, cfg):
            with pytest.raises(CheckpointTruncatedError, match="bytes cannot hold"):
                load_checkpoint(path, config=requested)

    def test_large_window_header_fails_before_building_a_bias_index(self, tmp_path):
        # window 64 over a 64x64 token grid: the zero-padded file holds every
        # parameter, so the size check passes, but the (M^2, M^2) bias index
        # alone would take 128 MiB; a fresh interpreter, so ru_maxrss starts
        # below the peak of the tests before it
        cfg = ModelConfig(image_size=64, patch_size=1, window=64, depth=1)
        header = io.BytesIO()
        _write_config(header, cfg)
        params = model_cost(cfg, "windowed").total_params
        path = tmp_path / "crafted.wmh"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1) + header.getvalue() + bytes(4 * params))
        code = (
            "import resource, sys\n"
            "from winvit.errors import CheckpointError\n"
            "from winvit.model import load_checkpoint\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "try:\n"
            "    load_checkpoint(sys.argv[1])\n"
            "    sys.exit('loaded')\n"
            "except CheckpointError:\n"
            "    pass\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(path)], capture_output=True, text=True, check=True
        )
        assert float(proc.stdout) < 100  # MiB; ru_maxrss counts KiB on Linux

    def test_config_record_is_authoritative(self, tmp_path):
        cfg = small_config(depth=2, seed=11)
        m = randomize(Model(cfg), seed=155)
        path = tmp_path / "model.wmh"
        save_checkpoint(m, path)
        back = load_checkpoint(path)
        assert back.config == cfg

    def test_header_layout(self, tmp_path):
        m = Model(small_config())
        path = tmp_path / "model.wmh"
        save_checkpoint(m, path)
        raw = path.read_bytes()
        assert raw[:5] == b"WMHV1"
        (version,) = struct.unpack("<I", raw[5:9])
        assert version == 1

    def test_failed_save_leaves_existing_file_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "model.wmh"
        save_checkpoint(randomize(Model(small_config()), seed=156), path)
        before = path.read_bytes()
        real_write = tc.write_tensor
        written = []

        def failing_write(t, f):
            # the fourth tensor fails after half its bytes are out
            if len(written) == 3:
                f.write(b"\x00" * 7)
                raise OSError(28, "No space left on device")
            written.append(t)
            real_write(t, f)

        monkeypatch.setattr(tc, "write_tensor", failing_write)
        with pytest.raises(CheckpointError) as exc:
            save_checkpoint(randomize(Model(small_config()), seed=157), path)
        assert "No space left" in str(exc.value)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.wmh"]

    @pytest.mark.parametrize("name", ["absent.wmh", "."])
    def test_unopenable_path_raises_checkpoint_error(self, tmp_path, name):
        # a missing file and a directory, not a raw FileNotFoundError or
        # IsADirectoryError
        path = tmp_path / name
        with pytest.raises(CheckpointError, match="cannot open checkpoint"):
            load_checkpoint(path)

    def test_save_into_missing_directory(self, tmp_path):
        path = tmp_path / "absent" / "model.wmh"
        with pytest.raises(CheckpointError):
            save_checkpoint(Model(small_config()), path)
        assert not path.parent.exists()
        assert list(tmp_path.iterdir()) == []

    def test_save_replaces_existing_file(self, tmp_path):
        path = tmp_path / "model.wmh"
        path.write_bytes(b"stale")
        m = randomize(Model(small_config()), seed=158)
        save_checkpoint(m, path)
        np.testing.assert_array_equal(load_checkpoint(path).head_weight.data, m.head_weight.data)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.wmh"]
