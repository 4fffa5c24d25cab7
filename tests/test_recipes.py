"""Recipes: the layernorm and residual-gate outputs rebuilt in backward.

Under a tape, those two ops give their output a recipe, and ``matmul``'s
2-D weight path keeps the recipe instead of the output's array. The
rebuilt array must have the forward's bits, so a matmul over a recipe
output and a matmul over a plain tensor of the same data agree exactly:
``np.array_equal``, not a tolerance. The cases run at desk B=8 shapes in
float32 and at small float64 shapes.
"""

import numpy as np
import pytest

from winvit import tensor as tc
from winvit.spatial import SamParams, sam_map, sam_residual

# (dtype, layernorm input, gate input): the desk block's ln2 and gate
# inputs at B=8, and small float64 shapes
CASES = [
    (np.float32, (8, 8, 8, 64), (8, 8, 8, 256)),
    (np.float64, (2, 4, 4, 8), (2, 4, 4, 8)),
]
IDS = ["desk-f32", "small-f64"]


def layernorm_output(rng, dtype, shape):
    x = tc.Tensor(rng.normal(size=shape).astype(dtype))
    gamma = tc.Tensor(rng.normal(size=shape[-1:]).astype(dtype))
    beta = tc.Tensor(rng.normal(size=shape[-1:]).astype(dtype))
    return tc.layernorm_lastdim(x, gamma, beta)


def gate_output(rng, dtype, shape, channel_axis=-1):
    params = SamParams(rng)
    params.conv_kernel.data = rng.normal(0, 0.2, params.conv_kernel.shape).astype(dtype)
    params.conv_bias.data = rng.normal(size=(1,)).astype(dtype)
    f = tc.Tensor(rng.normal(size=shape).astype(dtype))
    return sam_residual(f, params, channel_axis=channel_axis)


def matmul_node(a, w):
    """matmul(a, w) on a tape of its own: the output and the node's
    backward."""
    with tc.Tape() as tape:
        out = tc.matmul(a, w)
    return out, tape.nodes[-1].backward


def assert_matmul_bits(rng, make):
    """matmul over a recipe output against matmul over a plain copy."""
    with tc.Tape():
        a = make()
    assert a._recipe is not None
    plain = tc.Tensor(a.data.copy())
    dtype = a.dtype
    w = tc.Tensor(rng.normal(size=(a.shape[-1], 16)).astype(dtype))
    g = rng.normal(size=(*a.shape[:-1], 16)).astype(dtype)
    out, bwd = matmul_node(a, w)
    ref, ref_bwd = matmul_node(plain, w)
    assert np.array_equal(out.data, ref.data)
    grads, ref_grads = bwd(g), ref_bwd(g)
    assert len(grads) == len(ref_grads) == 2
    for got, want in zip(grads, ref_grads):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype, ln_shape, gate_shape", CASES, ids=IDS)
class TestRecipeBits:
    def test_layernorm_recipe(self, dtype, ln_shape, gate_shape):
        rng = np.random.default_rng(11)
        assert_matmul_bits(rng, lambda: layernorm_output(rng, dtype, ln_shape))

    def test_gate_recipe(self, dtype, ln_shape, gate_shape):
        rng = np.random.default_rng(12)
        assert_matmul_bits(rng, lambda: gate_output(rng, dtype, gate_shape))

    def test_recipe_rebuilds_the_output(self, dtype, ln_shape, gate_shape):
        rng = np.random.default_rng(13)
        with tc.Tape():
            outputs = [layernorm_output(rng, dtype, ln_shape), gate_output(rng, dtype, gate_shape),
                       gate_output(rng, dtype, gate_shape, channel_axis=-3)]
        for y in outputs:
            rebuilt = y._recipe()
            assert rebuilt is not y.data and rebuilt.flags.c_contiguous
            assert rebuilt.dtype == y.dtype and np.array_equal(rebuilt, y.data)


def test_channels_first_gate_recipe_feeds_matmul():
    rng = np.random.default_rng(14)
    assert_matmul_bits(rng, lambda: gate_output(rng, np.float64, (2, 8, 4, 4), channel_axis=-3))


def test_outputs_made_off_the_tape_carry_no_recipe():
    rng = np.random.default_rng(15)
    f = tc.Tensor(rng.normal(size=(2, 4, 4, 8)))
    outputs = [layernorm_output(rng, np.float64, (2, 4, 4, 8)), gate_output(rng, np.float64, (2, 4, 4, 8)),
               sam_map(f, SamParams(rng), channel_axis=-1)]
    for y in outputs:
        assert getattr(y, "_recipe", None) is None


def test_gate_map_carries_no_recipe():
    # only the residual form sets one; the gate map is kept by its
    # consumers as it is
    rng = np.random.default_rng(16)
    with tc.Tape():
        y = sam_map(tc.Tensor(rng.normal(size=(2, 4, 4, 8))), SamParams(rng), channel_axis=-1)
    assert getattr(y, "_recipe", None) is None
