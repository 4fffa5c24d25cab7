"""Spatial gate: channel-pooled descriptor, 7x7 conv, sigmoid.

The gate reduces the feature map across channels to an [avg; max] pair,
convolves it with a single 7x7 filter, and squashes to (0,1). Applied in
residual form, F + F * gate, it rescales each spatial position by a factor
in (1, 2) while costing a fixed 99 parameters no matter the model width.

The channel axis is ``channel_axis``: -3 (the default) for channels-first
features (C, H, W) or (B, C, H, W), -1 for channels-last (H, W, C) or
(B, H, W, C), which is how the model's blocks hold their grid. Either way
:func:`sam_map` and :func:`sam_residual` each record one tape node with a
hand-written backward.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as tc
from .errors import ConfigError, ShapeError
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


def _gate(f: Tensor, params: SamParams, channel_axis: int, residual: bool) -> Tensor:
    """The gate map, or ``F + F * gate`` when ``residual``, as one tape node.

    Forward: the avg and max pools over ``channel_axis`` make an
    (n, H, W, 2) descriptor, the 7x7 conv and the sigmoid make the
    (n, H, W, 1) gate. Backward: the sigmoid and conv gradients give the
    descriptor's; the avg half reaches every channel divided by C, the max
    half only the first maximal channel of each pixel.
    """
    if channel_axis not in (-3, -1):
        raise ConfigError(f"spatial gate channel_axis must be -3 or -1, got {channel_axis}")
    first = channel_axis == -3
    tc._conv_input(f, "spatial gate", "C, H, W" if first else "H, W, C")
    kernel, bias = params.conv_kernel, params.conv_bias
    if kernel.shape != (1, 2, KERNEL_SIZE, KERNEL_SIZE) or bias.shape != (1,):
        raise ShapeError(f"spatial gate needs a (1, 2, 7, 7) kernel and a (1,) bias, "
                         f"got {kernel.shape} and {bias.shape}")
    fd = f.data
    shape = fd.shape
    lead, c = shape[:-3], shape[channel_axis]
    h, w = shape[-2:] if first else shape[-3:-1]
    n = math.prod(lead)
    # the pools and the gate with their channel axis kept: (..., 1, H, W)
    # and (..., H, W, 1) hold the same bytes as (n, H, W, 1)
    kept = (*lead, 1, h, w) if first else (*lead, h, w, 1)
    desc = np.empty((*lead, h, w, 2), dtype=fd.dtype)
    np.divide(np.add.reduce(fd, axis=channel_axis), c, out=desc[..., 0])
    np.maximum.reduce(fd, axis=channel_axis, out=desc[..., 1])
    desc = desc.reshape(n, h, w, 2)
    tc._count("elementwise", 2 * fd.size)  # the two pools
    z, k = tc._conv_forward(desc, kernel.data, bias.data, PADDING)
    gate = tc._sigmoid(z)
    tc._count("elementwise", gate.size)
    gate_kept = gate.reshape(kept)
    if residual:
        out = fd * gate_kept
        out += fd
        tc._count("elementwise", 2 * fd.size)  # the product and the sum
    else:
        out = gate_kept

    def bwd(g):
        g = np.ascontiguousarray(g)
        # sum over channels of g * f, without a full-size product
        dot = "...chw,...chw->...hw" if first else "...c,...c->..."
        ggate = np.einsum(dot, g, fd) if residual else g
        gz = ggate.reshape(gate.shape) * gate * (1.0 - gate)
        gdesc, gk, gb = tc._conv_backward(gz, desc, k, PADDING)
        gavg = (gdesc[..., 0] / c).reshape(kept)
        if residual:
            gf = g * (gate_kept + 1.0)
            gf += gavg
        else:
            gf = np.empty(shape, dtype=g.dtype)
            gf[...] = gavg
        # flat index of every pixel's first maximal channel
        idx = fd.argmax(axis=channel_axis).reshape(-1)
        pix = np.arange(idx.size)
        if first:  # pixel p of image b starts at b*C*H*W + p
            flat = pix + pix // (h * w) * ((c - 1) * h * w) + idx * (h * w)
        else:
            flat = pix * c + idx
        gf.reshape(-1)[flat] += gdesc[..., 1].reshape(-1)
        return gf, gk, gb

    return tc._emit(out, (f, kernel, bias), bwd)


def sam_map(f: Tensor, params: SamParams, channel_axis: int = -3) -> Tensor:
    """Gate map for features ``f``: sigmoid(conv7x7([avg; max])) of the
    pools over ``channel_axis``.

    Channels-first ``f`` (C, H, W) or (B, C, H, W) gives (1, H, W) or
    (B, 1, H, W); channels-last ``f`` (H, W, C) or (B, H, W, C), with
    ``channel_axis=-1``, gives (H, W, 1) or (B, H, W, 1). Every value lies
    strictly inside (0, 1). The descriptor order is fixed avg-then-max
    (kernel input channel 0 sees the avg); golden outputs depend on it.
    """
    return _gate(f, params, channel_axis, residual=False)


def sam_residual(f: Tensor, params: SamParams, channel_axis: int = -3) -> Tensor:
    """F + F * gate for ``f`` in the layout ``channel_axis`` selects (see
    :func:`sam_map`), the gate broadcast across channels; same shape as
    ``f``.

    With a zero-initialized kernel the gate is exactly 0.5 everywhere, so
    this reduces to 1.5 * F.
    """
    return _gate(f, params, channel_axis, residual=True)
