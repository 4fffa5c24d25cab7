"""Spatial gate: channel-pooled descriptor, 7x7 conv, sigmoid.

The gate reduces the feature map across channels to an [avg; max] pair,
convolves it with a single 7x7 filter, and squashes to (0,1). Applied in
residual form, F + F * gate, it rescales each spatial position by a factor
in (1, 2) while costing a fixed 99 parameters no matter the model width.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tc
from .tensor import Tensor

KERNEL_SIZE = 7
PADDING = 3  # keeps H and W unchanged


class SamParams:
    """One 1x2x7x7 conv kernel and its scalar bias: 99 learnable values."""

    def __init__(self, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.conv_kernel = tc.trunc_normal(rng, (1, 2, KERNEL_SIZE, KERNEL_SIZE))
        self.conv_bias = tc.zeros((1,))

    def named_params(self):
        yield "conv_kernel", self.conv_kernel
        yield "conv_bias", self.conv_bias

    def param_count(self) -> int:
        return sum(t.size for _, t in self.named_params())


def sam_map(f: Tensor, params: SamParams) -> Tensor:
    """Gate map for features ``f`` (C, H, W) or a batch (B, C, H, W):
    sigmoid(conv7x7([avg; max])).

    Output is (1, H, W) or (B, 1, H, W) with every value strictly inside
    (0, 1). The concat order is fixed avg-then-max; golden outputs depend
    on it.
    """
    # (..., 1, H, W) and (..., H, W, 1) hold the same bytes, so the
    # channels-last conv needs reshapes only, no copies
    lead, (h, w) = f.shape[:-3], f.shape[-2:]
    pools = [tc.reshape(tc.channel_pool(f, mode), (*lead, h, w, 1)) for mode in ("avg", "max")]
    desc = tc.concat(pools, axis=-1)
    conv = tc.conv2d(desc, params.conv_kernel, params.conv_bias, padding=PADDING)
    return tc.sigmoid(tc.reshape(conv, (*lead, 1, h, w)))


def sam_residual(f: Tensor, params: SamParams) -> Tensor:
    """F + F * gate for ``f`` (C, H, W) or (B, C, H, W), the gate
    broadcast across channels.

    With a zero-initialized kernel the gate is exactly 0.5 everywhere, so
    this reduces to 1.5 * F.
    """
    gate = sam_map(f, params)
    return tc.add(f, tc.mul(f, gate))
