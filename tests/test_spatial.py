"""Spatial gate tests.

The gate is small enough to recompute from primitives in the test body, so
the main oracle is a hand-composed pipeline on float64 copies, plus the
closed-form facts (99 parameters, 0.5 gate at zero init, residual factor
strictly inside (1, 2)).
"""

import numpy as np
import pytest

from winvit import tensor as tc
from winvit.errors import ConfigError, ShapeError
from winvit.model import Model, ModelConfig, classify
from winvit.spatial import KERNEL_SIZE, PADDING, SamParams, sam_map, sam_residual


def gate_oracle(f: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Pixel-by-pixel recompute: pool, pad, convolve, squash."""
    c, h, w = f.shape
    desc = np.zeros((2, h, w))
    for y in range(h):
        for x in range(w):
            col = f[:, y, x]
            desc[0, y, x] = col.mean()
            desc[1, y, x] = col.max()
    out = np.zeros((1, h, w))
    k = KERNEL_SIZE
    p = PADDING
    for y in range(h):
        for x in range(w):
            s = float(bias[0])
            for ci in range(2):
                for dy in range(k):
                    for dx in range(k):
                        yy = y + dy - p
                        xx = x + dx - p
                        if 0 <= yy < h and 0 <= xx < w:
                            s += kernel[0, ci, dy, dx] * desc[ci, yy, xx]
            out[0, y, x] = 1.0 / (1.0 + np.exp(-s))
    return out


class TestSamParams:
    def test_exactly_99_parameters(self):
        p = SamParams()
        assert p.param_count() == 99
        assert p.conv_kernel.shape == (1, 2, KERNEL_SIZE, KERNEL_SIZE)
        assert p.conv_bias.shape == (1,)
        # 99 regardless of how wide the feature map it gates is
        assert 1 * 2 * KERNEL_SIZE * KERNEL_SIZE + 1 == 99

    def test_named_params_complete(self):
        p = SamParams()
        names = dict(p.named_params())
        assert set(names) == {"conv_kernel", "conv_bias"}


class TestSamMap:
    def test_matches_primitive_composition(self):
        rng = np.random.default_rng(101)
        p = SamParams(rng=np.random.default_rng(102))
        f = rng.normal(size=(5, 9, 8)).astype(np.float32)
        got = sam_map(tc.Tensor(f), p).data
        ref = gate_oracle(
            f.astype(np.float64),
            p.conv_kernel.data.astype(np.float64),
            p.conv_bias.data.astype(np.float64),
        )
        np.testing.assert_allclose(got, ref, atol=1e-6)

    def test_zero_init_gate_is_half(self):
        p = SamParams()
        p.conv_kernel = tc.zeros((1, 2, KERNEL_SIZE, KERNEL_SIZE))
        f = tc.Tensor(np.random.default_rng(103).normal(size=(4, 8, 8)).astype(np.float32))
        gate = sam_map(f, p).data
        np.testing.assert_allclose(gate, 0.5, atol=1e-7)

    def test_output_shape_and_open_range(self):
        rng = np.random.default_rng(104)
        p = SamParams(rng=rng)
        # amplified but unsaturated: values stay strictly inside (0, 1)
        p.conv_kernel = tc.Tensor(p.conv_kernel.data * 5.0)
        f = tc.Tensor(rng.normal(size=(3, 8, 10)).astype(np.float32))
        gate = sam_map(f, p).data
        assert gate.shape == (1, 8, 10)
        assert (gate > 0.0).all() and (gate < 1.0).all()
        assert gate.std() > 1e-3

    def test_saturated_inputs_stay_in_closed_range(self):
        # float32 rounds extreme sigmoids to the interval ends, never past
        rng = np.random.default_rng(114)
        p = SamParams(rng=rng)
        p.conv_kernel = tc.Tensor(p.conv_kernel.data * 1000.0)
        f = tc.Tensor(rng.normal(size=(3, 8, 10)).astype(np.float32) * 10.0)
        gate = sam_map(f, p).data
        assert np.isfinite(gate).all()
        assert (gate >= 0.0).all() and (gate <= 1.0).all()

    def test_constant_input_constant_interior(self):
        # a constant feature map gives a constant descriptor, so interior
        # pixels (full 7x7 support) share one gate value; border pixels
        # differ because zero padding enters their receptive field
        rng = np.random.default_rng(105)
        p = SamParams(rng=rng)
        f = tc.Tensor(np.full((4, 16, 16), 0.7, dtype=np.float32))
        gate = sam_map(f, p).data[0]
        interior = gate[PADDING:-PADDING, PADDING:-PADDING]
        np.testing.assert_allclose(interior, interior[0, 0], atol=1e-7)

    def test_channel_permutation_invariance(self):
        # avg and max are symmetric in the channel order
        rng = np.random.default_rng(106)
        p = SamParams(rng=rng)
        f = rng.normal(size=(6, 8, 8)).astype(np.float32)
        perm = rng.permutation(6)
        a = sam_map(tc.Tensor(f), p).data
        b = sam_map(tc.Tensor(f[perm]), p).data
        np.testing.assert_allclose(a, b, atol=1e-7)

    def test_gate_depends_on_both_pools(self):
        # perturbing one channel's value at a pixel (changing the mean but
        # not the max) must move the gate; so must raising the max alone
        rng = np.random.default_rng(107)
        p = SamParams(rng=rng)
        f = rng.normal(size=(4, 8, 8)).astype(np.float32)
        base = sam_map(tc.Tensor(f), p).data
        f_mean = f.copy()
        f_mean[f[:, 4, 4].argmin(), 4, 4] -= 1.0
        assert np.abs(sam_map(tc.Tensor(f_mean), p).data - base).max() > 1e-6
        f_max = f.copy()
        f_max[f[:, 4, 4].argmax(), 4, 4] += 1.0
        assert np.abs(sam_map(tc.Tensor(f_max), p).data - base).max() > 1e-6


class TestSamResidual:
    def test_zero_init_residual_is_1p5x(self):
        p = SamParams()
        p.conv_kernel = tc.zeros((1, 2, KERNEL_SIZE, KERNEL_SIZE))
        f = np.random.default_rng(108).normal(size=(4, 8, 8)).astype(np.float32)
        out = sam_residual(tc.Tensor(f), p).data
        np.testing.assert_allclose(out, 1.5 * f, atol=1e-7)

    def test_residual_factor_strictly_inside_1_2(self):
        rng = np.random.default_rng(109)
        p = SamParams(rng=rng)
        f = rng.normal(size=(4, 8, 8)).astype(np.float32)
        f[np.abs(f) < 1e-3] = 1e-3  # keep the ratio well defined
        out = sam_residual(tc.Tensor(f), p).data
        ratio = out / f
        assert (ratio > 1.0).all() and (ratio < 2.0).all()

    def test_residual_bounded_by_twice_input(self):
        rng = np.random.default_rng(110)
        p = SamParams(rng=rng)
        for _ in range(5):
            f = rng.normal(size=(3, 8, 8)).astype(np.float32) * rng.uniform(0.1, 10)
            out = sam_residual(tc.Tensor(f), p).data
            assert np.abs(out).max() <= 2.0 * np.abs(f).max() + 1e-6

    def test_gate_broadcasts_across_channels(self):
        # every channel at a pixel is scaled by the same factor
        rng = np.random.default_rng(111)
        p = SamParams(rng=rng)
        f = rng.normal(size=(5, 6, 6)).astype(np.float32)
        f[np.abs(f) < 1e-3] = 1e-3
        out = sam_residual(tc.Tensor(f), p).data
        ratio = out / f
        np.testing.assert_allclose(ratio, np.broadcast_to(ratio[:1], ratio.shape), atol=1e-5)

    def test_gradients_pass_finite_difference(self):
        rng = np.random.default_rng(112)
        p = SamParams(rng=np.random.default_rng(113))
        p.conv_kernel = tc.Tensor(p.conv_kernel.data.astype(np.float64))
        p.conv_bias = tc.Tensor(p.conv_bias.data.astype(np.float64))
        f = tc.Tensor(rng.normal(size=(3, 8, 8)))
        target = tc.Tensor(rng.normal(size=(3, 8, 8)))

        def loss_fn():
            out = sam_residual(f, p)
            diff = tc.sub(out, target)
            return tc.reduce_mean(tc.mul(diff, diff))

        err = tc.finite_difference_check(
            loss_fn, [p.conv_kernel, p.conv_bias, f], eps=1e-5
        )
        assert err < 1e-3, f"finite difference error {err:.3e}"

    def test_flop_cost_is_width_independent(self):
        # the conv cost depends on H, W only: same grid, different channel
        # counts, identical mac flops
        p = SamParams()
        costs = []
        for c in (4, 16, 64):
            f = tc.ones((c, 8, 8))
            with tc.FlopCounter() as fc:
                sam_map(f, p)
            costs.append(fc.mac_flops)
        assert costs[0] == costs[1] == costs[2]


# ---------------------------------------------------------------------------
# the fused gate node against the separate tensor ops it replaced


def composed_map(f, params):
    """The gate as separate ``tc`` ops on channels-first ``f``: two channel
    pools, reshapes, concat, the 7x7 conv2d and the sigmoid."""
    lead, (h, w) = f.shape[:-3], f.shape[-2:]
    pools = [tc.reshape(tc.channel_pool(f, mode), (*lead, h, w, 1)) for mode in ("avg", "max")]
    desc = tc.concat(pools, axis=-1)
    conv = tc.conv2d(desc, params.conv_kernel, params.conv_bias, padding=PADDING)
    return tc.sigmoid(tc.reshape(conv, (*lead, 1, h, w)))


def composed(f, params, channel_axis, residual):
    """``composed_map`` or ``f + f * gate`` in either layout; channels-last
    input is transposed to channels-first and the result back."""
    k = f.ndim - 3
    if channel_axis == -1:
        f = tc.transpose(f, (*range(k), k + 2, k, k + 1))
    out = composed_map(f, params)
    if residual:
        out = tc.add(f, tc.mul(f, out))
    if channel_axis == -1:
        out = tc.transpose(out, (*range(k), k + 1, k + 2, k))
    return out


def fused(f, params, channel_axis, residual):
    fn = sam_residual if residual else sam_map
    return fn(f, params, channel_axis=channel_axis)


def f64_params(seed):
    # a kernel large enough that the gate varies well away from 0.5
    p = SamParams(rng=np.random.default_rng(seed))
    p.conv_kernel = tc.Tensor(p.conv_kernel.data.astype(np.float64) * 40.0)
    p.conv_bias = tc.Tensor(np.array([0.3]))
    return p


def features(rng, channel_axis, batched, c=5, h=6, w=7):
    shape = (c, h, w) if channel_axis == -3 else (h, w, c)
    return rng.normal(size=((3,) if batched else ()) + shape)


def run_with_grads(fn, f, p, channel_axis, residual):
    """Output, tape length and the gradients of f, kernel and bias for a
    fixed random weighting of the output."""
    x = tc.Tensor(f)
    with tc.Tape() as tape:
        out = fn(x, p, channel_axis, residual)
        weights = np.random.default_rng(7).normal(size=out.shape)
        loss = tc.reduce_sum(tc.mul(out, tc.Tensor(weights)))
    grads = tc.backward(loss, tape)
    return out.data, len(tape), [grads[t] for t in (x, p.conv_kernel, p.conv_bias)]


LAYOUTS = [(axis, batched) for axis in (-3, -1) for batched in (False, True)]


class TestFusedGate:
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("channel_axis,batched", LAYOUTS)
    def test_matches_composed_ops(self, channel_axis, batched, residual):
        rng = np.random.default_rng(201)
        p = f64_params(202)
        f = features(rng, channel_axis, batched)
        got, nodes, got_grads = run_with_grads(fused, f, p, channel_axis, residual)
        ref, _, ref_grads = run_with_grads(composed, f, p, channel_axis, residual)
        assert nodes == 3  # the gate, the weighting, the sum
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        for name, a, b in zip(("f", "conv_kernel", "conv_bias"), got_grads, ref_grads):
            assert a.shape == b.shape, name
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("channel_axis,batched", [
        pytest.param(axis, batched, id=f"{axis}-batched" if batched else str(axis))
        for axis, batched in LAYOUTS
    ])
    def test_max_tie_gradient_goes_to_first_channel(self, channel_axis, batched, residual):
        rng = np.random.default_rng(203)
        p = f64_params(204)
        f = features(rng, -1, batched)
        f[..., 2, 3, :] = [0.1, 0.9, -0.3, 0.9, 0.2]  # channels 1 and 3 share the max
        if channel_axis == -3:
            f = np.ascontiguousarray(np.moveaxis(f, -1, -3))
        _, _, (gf, _, _) = run_with_grads(fused, f, p, channel_axis, residual)
        _, _, (ref, _, _) = run_with_grads(composed, f, p, channel_axis, residual)
        np.testing.assert_allclose(gf, ref, rtol=0, atol=1e-12)
        if not residual:  # the pixel's gradient is the avg share plus, once, the max's
            pixel = gf[..., 2, 3, :] if channel_axis == -1 else gf[..., :, 2, 3]
            others = pixel[..., [0, 2, 3, 4]]
            np.testing.assert_allclose(others - others[..., :1], 0, rtol=0, atol=1e-15)
            assert np.all(np.abs(pixel[..., 1] - pixel[..., 3]) > 1e-6)

    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("channel_axis,batched", LAYOUTS)
    def test_flop_counts_match_composed_ops(self, channel_axis, batched, residual):
        p = f64_params(205)
        f = tc.Tensor(features(np.random.default_rng(206), channel_axis, batched))
        counts = []
        for fn in (fused, composed):
            with tc.FlopCounter() as counter:
                fn(f, p, channel_axis, residual)
                with tc.flop_scope("gate"):
                    fn(f, p, channel_axis, residual)
            counts.append(counter.by_scope)
        assert counts[0] == counts[1]
        # 2 FLOPs per multiply-add, two calls, 98 taps per output pixel
        assert sum(counts[0].values()) == 2 * 2 * (3 if batched else 1) * 6 * 7 * 98

    @pytest.mark.parametrize("batched", [False, True])
    def test_model_capture_is_the_channels_first_map(self, batched, monkeypatch):
        cfg = ModelConfig(image_size=16, patch_size=4, embed_dim=8, depth=2, heads=2, window=2,
                          mlp_ratio=2, num_classes=3)
        m = Model(cfg).to_dtype(np.float64)
        for block in m.blocks:
            block.sam.conv_kernel.data *= 40.0
        grids = []

        def recording(f, params, channel_axis=-3):
            grids.append(f)
            return sam_residual(f, params, channel_axis=channel_axis)

        monkeypatch.setattr("winvit.model.sam_residual", recording)
        shape = (2, 3, 16, 16) if batched else (3, 16, 16)
        image = tc.Tensor(np.random.default_rng(207).uniform(0, 1, shape))
        capture = []
        classify(image, m, capture=capture)
        assert len(capture) == len(grids) == 2
        for cap, grid, block in zip(capture, grids, m.blocks):
            assert cap["sam"].shape == ((2, 1, 4, 4) if batched else (1, 4, 4))
            ref = composed(grid, block.sam, -1, residual=False).data
            np.testing.assert_allclose(cap["sam"].data, ref.reshape(cap["sam"].shape),
                                       rtol=0, atol=1e-12)

    def test_bad_arguments_are_typed_errors(self):
        p = SamParams()
        with pytest.raises(ConfigError):
            sam_map(tc.ones((4, 8, 8)), p, channel_axis=0)
        with pytest.raises(ShapeError):
            sam_residual(tc.ones((8, 8)), p)
        p.conv_kernel = tc.zeros((1, 2, 3, 3))
        with pytest.raises(ShapeError):
            sam_residual(tc.ones((4, 8, 8)), p)
