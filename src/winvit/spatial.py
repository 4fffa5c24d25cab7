"""Spatial gate: channel-pooled descriptor, 7x7 conv, sigmoid.

The gate reduces the feature map across channels to an [avg; max] pair,
convolves it with a single 7x7 filter, and squashes to (0,1). Applied in
residual form, F + F * gate, it rescales each spatial position by a factor
in (1, 2) while costing a fixed 99 parameters no matter the model width.

The gate computes channels-last, (H, W, C) or (B, H, W, C) with
``channel_axis=-1``, which is how the model's blocks hold their grid.
Channels-first features (C, H, W) or (B, C, H, W), the ``channel_axis=-3``
default, are a view onto that computation whose output and input gradient
move back. Each call records one tape node with a hand-written backward.
"""

from __future__ import annotations

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

    Forward: the avg and max pools over the channels make an
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
    fd = np.moveaxis(f.data, -3, -1) if first else f.data
    shape = fd.shape
    c = shape[-1]
    desc = np.empty((*shape[:-1], 2), dtype=fd.dtype)
    np.divide(np.add.reduce(fd, axis=-1), c, out=desc[..., 0])
    np.maximum.reduce(fd, axis=-1, out=desc[..., 1])
    desc = desc.reshape(-1, *shape[-3:-1], 2)
    z, k = tc._conv_forward(desc, kernel.data, bias.data, PADDING)
    gate = tc._sigmoid(z)
    gate_kept = gate.reshape((*shape[:-1], 1))
    if residual:
        out = fd * gate_kept
        out += fd
    else:
        out = gate_kept
    if not tc._TAPES:
        return tc._emit(np.moveaxis(out, -1, -3) if first else out, (f, kernel, bias), None)

    def bwd(g):
        # C-contiguous after the move, or the max += below lands in a copy
        g = np.ascontiguousarray(np.moveaxis(g, -3, -1) if first else g)
        # sum over channels of g * f, without a full-size product
        ggate = np.einsum("...c,...c->...", g, fd) if residual else g
        gz = ggate.reshape(gate.shape) * gate * (1.0 - gate)
        gdesc, gk, gb = tc._conv_backward(gz, desc, k, PADDING)
        gavg = (gdesc[..., 0] / c).reshape(gate_kept.shape)
        if residual:
            gf = g * (gate_kept + 1.0)
            gf += gavg
        else:
            gf = np.empty(shape, dtype=g.dtype)
            gf[...] = gavg
        # flat index of every pixel's first maximal channel
        idx = fd.argmax(axis=-1).reshape(-1)
        gf.reshape(-1)[np.arange(idx.size) * c + idx] += gdesc[..., 1].reshape(-1)
        return (np.moveaxis(gf, -1, -3) if first else gf), gk, gb

    y = tc._emit(np.moveaxis(out, -1, -3) if first else out, (f, kernel, bias), bwd)
    if residual:

        def recipe():
            # the forward's two ops, on fd and the gate that bwd holds
            out = fd * gate_kept + fd
            return np.ascontiguousarray(np.moveaxis(out, -1, -3)) if first else out

        y._recipe = recipe
    return y


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
