"""Bit pins for the arithmetic that gelu, layernorm and the attention core
run in place.

Each reference below is the plain numpy expression, one temporary per
operation, that the op computes. The ops reuse their temporaries, and the
order of operations is kept, so the results must be the same bits:
``np.array_equal``, not a tolerance. The cases run at the shapes of a desk
B=8 train step in float32 and at one small float64 shape.
"""

import math

import numpy as np
import pytest

from winvit import tensor as tc
from winvit.attention import WindowAttentionParams, _mha

# (dtype, gelu input, layernorm input, (windows, window side, channels, heads))
CASES = [
    (np.float32, (8, 8, 8, 256), (8, 8, 8, 64), (32, 4, 64, 4)),
    (np.float64, (2, 4, 4, 8), (2, 4, 4, 8), (3, 2, 8, 2)),
]
IDS = ["desk-f32", "small-f64"]


def erf_reference(x):
    starts, coef = tc._ERF_TABLES[x.dtype]
    flat = x.reshape(-1)
    t = np.minimum(np.abs(flat), tc._ERF_SPAN)
    idx = np.fmin(t * (tc._ERF_CELLS / tc._ERF_SPAN), tc._ERF_CELLS).astype(np.intp)
    dx = t - starts.take(idx)
    p = coef[0].take(idx)
    for ck in coef[1:]:
        p = p * dx + ck.take(idx)
    return np.copysign(p, flat).reshape(x.shape)


def gelu_reference(x, g):
    """At +-inf, where 0.5 * x * (1 + erf) and x * pdf are inf * 0, the
    reference takes the limits: gelu(+inf) = inf, gelu(-inf) = -0, and
    gelu'(+-inf) = 1 and 0."""
    inner = erf_reference(x * tc._INV_SQRT2)
    inf = np.isinf(x)
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.where(inf, np.maximum(x, -0.0), 0.5 * x * (1.0 + inner))
        pdf = np.exp(-0.5 * x * x) * tc._INV_SQRT2PI
        grad = np.where(inf, 0.5 * (1.0 + inner), 0.5 * (1.0 + inner) + x * pdf)
    return out, g * grad


def layernorm_reference(x, gamma, beta, g, eps=1e-5):
    n = x.shape[-1]
    d = x - x.sum(axis=-1, keepdims=True) / n
    var = (d * d).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = d * inv
    out = xhat * gamma + beta
    red = tuple(range(g.ndim - 1))
    dxhat = g * gamma
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return out, (dx, (g * xhat).sum(axis=red), g.sum(axis=red))


def mha_reference(xd, prm, g):
    """Output and every input's gradient of the windowed attention node,
    eval mode, with the same GEMMs on the same layouts as ``_mha``."""
    *lead, t, c = xd.shape
    h = prm.heads
    d = c // h
    n = len(lead)
    to_heads = (n + 1, *range(n), n + 2, n, n + 3)
    w_qkv = np.concatenate((prm.w_q.data, prm.w_k.data, prm.w_v.data), axis=1)
    x2 = xd.reshape(-1, c)
    qkv = x2 @ w_qkv + np.concatenate((prm.b_q.data, prm.b_k.data, prm.b_v.data))
    q, k, v = qkv.reshape(*lead, t, 3, h, d).transpose(to_heads)
    scale = qkv.dtype.type(1.0 / math.sqrt(d))
    scores = (q @ k.swapaxes(-1, -2)) * scale + prm.bias_table.data.take(prm.bias_index, axis=1)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    merged = (p @ v).swapaxes(-3, -2).reshape(-1, c)
    w_o = prm.w_o.data
    out = merged @ w_o + prm.b_o.data

    g2 = g.reshape(-1, c)
    gz = (g2 @ w_o.T).reshape(*lead, t, h, d).swapaxes(-3, -2)
    gp = gz @ v.swapaxes(-1, -2)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    gt = np.zeros_like(prm.bias_table.data)
    np.add.at(gt, (slice(None), prm.bias_index), gs.reshape(-1, h, t, t).sum(axis=0))
    gs = gs * scale
    gqkv = np.empty_like(qkv)
    gq, gk, gv = gqkv.reshape(*lead, t, 3, h, d).transpose(to_heads)
    gq[...] = gs @ k
    gk[...] = gs.swapaxes(-1, -2) @ q
    gv[...] = p.swapaxes(-1, -2) @ gz
    gw = np.split(x2.T @ gqkv, 3, axis=1)
    gx = (gqkv @ w_qkv.T).reshape(xd.shape)
    gb = np.split(gqkv.sum(axis=0), 3)
    return out.reshape(xd.shape), (gx, *gw, merged.T @ g2, *gb, g2.sum(axis=0), gt)


def run_node(op, *inputs):
    """The op's output and its node's gradients for a random upstream g."""
    with tc.Tape() as tape:
        out = op(*inputs)
    out = out[0] if isinstance(out, tuple) else out
    g = np.random.default_rng(3).normal(size=out.shape).astype(out.dtype)
    return out.data, g, tape.nodes[-1].backward(g)


def assert_bits(got, want):
    """Equal bit patterns, so -0.0 and +0.0 differ; any NaN matches any NaN."""
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.shape == b.shape, i
        same = (a.view(f"u{a.itemsize}") == b.view(f"u{b.itemsize}")) | (np.isnan(a) & np.isnan(b))
        assert same.all(), f"gradient {i} differs"


@pytest.mark.parametrize("dtype, gelu_shape, ln_shape, attn", CASES, ids=IDS)
class TestInPlaceArithmeticBits:
    def test_gelu(self, dtype, gelu_shape, ln_shape, attn):
        rng = np.random.default_rng(11)
        x = (rng.normal(size=gelu_shape) * 3.0).astype(dtype)
        x.reshape(-1)[:7] = [0.0, -0.0, np.inf, -np.inf, np.nan, 40.0, 1e30]
        out, g, grads = run_node(tc.gelu, tc.Tensor(x))
        want_out, want_grad = gelu_reference(x, g)
        assert_bits((out, *grads), (want_out, want_grad))

    def test_erf(self, dtype, gelu_shape, ln_shape, attn):
        x = (np.random.default_rng(12).normal(size=gelu_shape) * 4.0).astype(dtype)
        x.reshape(-1)[:5] = [0.0, np.inf, -np.inf, np.nan, -6.0]
        assert_bits((tc._erf(x),), (erf_reference(x),))

    def test_layernorm(self, dtype, gelu_shape, ln_shape, attn):
        rng = np.random.default_rng(13)
        x, gamma, beta = (rng.normal(size=s).astype(dtype)
                          for s in (ln_shape, ln_shape[-1:], ln_shape[-1:]))
        out, g, grads = run_node(tc.layernorm_lastdim, *map(tc.Tensor, (x, gamma, beta)))
        want_out, want_grads = layernorm_reference(x, gamma, beta, g)
        assert_bits((out, *grads), (want_out, *want_grads))

    def test_windowed_attention(self, dtype, gelu_shape, ln_shape, attn):
        windows, side, dim, heads = attn
        rng = np.random.default_rng(14)
        prm = WindowAttentionParams(dim, heads, side, rng=rng)
        for _, t in prm.named_params():
            t.data = rng.normal(0.0, 0.5, t.shape).astype(dtype)
        x = rng.normal(size=(windows, side * side, dim)).astype(dtype)
        out, g, grads = run_node(lambda t: _mha(t, prm, True, False, None), tc.Tensor(x))
        want_out, want_grads = mha_reference(x, prm, g)
        assert_bits((out, *grads), (want_out, *want_grads))
