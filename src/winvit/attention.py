"""Windowed multi-head self-attention with a relative position bias.

The token grid is cut into non-overlapping M x M tiles and attention runs
independently inside each tile, so score cost scales with M^2 per token
instead of with the full sequence length. A per-head bias table indexed by
in-window displacement is added to the raw scores. A global (unwindowed)
multi-head attention over the whole sequence lives alongside it as the
oracle and cost baseline.

Both attention entry points run one core, :func:`_mha`, over the last two
axes of their input; it records a single tape node whose backward is
written out by hand, and tallies the same FLOPs, under the same scopes, as
the separate ops it stands for. Window partition and merge are one node
each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .errors import ConfigError, ContractError, GeometryError, ShapeError
from .tensor import Tensor

# Query/key projection sharing; the index is the checkpoint's sharing code.
SHARING_MODES = ("standard", "shared_qk")

# When set, the bias is subtracted from the scores instead of added.
# Deliberate defect switch used by the self-check command to prove the
# invariant suites can catch a wrong-sign regression; never on by default.
_FAULT_BIAS_SIGN = False


def set_fault_bias_sign(enabled: bool) -> None:
    global _FAULT_BIAS_SIGN
    _FAULT_BIAS_SIGN = bool(enabled)


@dataclass(frozen=True)
class WindowGeometry:
    """Partition of an H x W token grid into M x M tiles."""

    height: int
    width: int
    window: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise GeometryError(f"token grid must be positive, got {self.height}x{self.width}")
        if self.window < 1:
            raise GeometryError(f"window side must be >= 1, got {self.window}")
        if self.height % self.window or self.width % self.window:
            raise GeometryError(
                f"token grid {self.height}x{self.width} is not divisible by window {self.window}"
            )

    @property
    def n_windows(self) -> int:
        return (self.height // self.window) * (self.width // self.window)

    @property
    def tokens_per_window(self) -> int:
        return self.window * self.window


def build_bias_index(window: int) -> np.ndarray:
    """M^2 x M^2 map from a token pair to its bias-table slot.

    Tokens i=(r_i,c_i), j=(r_j,c_j) share a slot iff they have the same
    displacement: index = (r_i-r_j+M-1)*(2M-1) + (c_i-c_j+M-1). All
    (2M-1)^2 slots are hit for M >= 1.
    """
    if window < 1:
        raise GeometryError(f"window side must be >= 1, got {window}")
    m = window
    coords = np.stack(np.meshgrid(np.arange(m), np.arange(m), indexing="ij"), axis=0)
    coords = coords.reshape(2, m * m)
    delta = coords[:, :, None] - coords[:, None, :]
    return ((delta[0] + m - 1) * (2 * m - 1) + (delta[1] + m - 1)).astype(np.int64)


def _regroup(x: Tensor, split: tuple, shape: tuple) -> Tensor:
    """One tape node: ``x`` viewed as ``split`` with axes 1 and 2 swapped,
    copied and viewed as ``shape``. The swap is its own inverse."""
    data = np.ascontiguousarray(x.data.reshape(split).swapaxes(1, 2)).reshape(shape)

    def bwd(g):
        swapped = (split[0], split[2], split[1], *split[3:])
        return (np.ascontiguousarray(g.reshape(swapped).swapaxes(1, 2)).reshape(x.shape),)

    return tc._emit(data, (x,), bwd)


def window_partition(x: Tensor, window: int) -> Tensor:
    """(H, W, C) -> (N, M^2, C), or a batch (B, H, W, C) -> (B*N, M^2, C):
    tiles in row-major tile order, image by image, tokens in row-major
    order within each tile. Folding the batch into the tile axis lets one
    attention call cover every window of every image. Indivisible grids
    are an error; the cost model assumes an exact partition, so no
    implicit padding.
    """
    if x.ndim not in (3, 4):
        raise ShapeError(f"window_partition expects (H, W, C) or (B, H, W, C), got {x.shape}")
    h, w, c = x.shape[-3:]
    geom = WindowGeometry(h, w, window)
    b = x.shape[0] if x.ndim == 4 else 1
    m = window
    return _regroup(x, (b * (h // m), m, w // m, m, c), (b * geom.n_windows, m * m, c))


def window_merge(windows: Tensor, geom: WindowGeometry) -> Tensor:
    """Exact inverse of :func:`window_partition`: (N, M^2, C) -> (H, W, C),
    or (B*N, M^2, C) -> (B, H, W, C) for B > 1. The batch size is the
    window count over the N tiles per image.
    """
    if windows.ndim != 3:
        raise GeometryError(f"window_merge expects (N, M^2, C), got {windows.shape}")
    n, t, c = windows.shape
    m = geom.window
    if n % geom.n_windows or t != geom.tokens_per_window:
        raise GeometryError(
            f"window tensor {windows.shape} does not match geometry "
            f"{geom.height}x{geom.width} window {m}"
        )
    b = n // geom.n_windows
    shape = (*((b,) if b > 1 else ()), geom.height, geom.width, c)
    return _regroup(windows, (b * geom.height // m, geom.width // m, m, m, c), shape)


class WindowAttentionParams:
    """Projection weights, per-head bias table, and the fixed index map.

    Q/K/V/output projections are fused across heads (C x C each, sliced to
    d = C/h per head). ``shared_qk`` stores one matrix for both the query
    and key projections, dropping exactly C^2 parameters; the projection
    biases stay separate. The bias index is derived from M and is never a
    parameter.
    """

    def __init__(self, dim, heads, window, dropout_rate=0.0, sharing_mode="standard", rng=None):
        if heads < 1 or dim % heads:
            raise ConfigError(f"channels {dim} must be divisible by heads {heads}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
        if sharing_mode not in SHARING_MODES:
            raise ConfigError(f"sharing_mode must be one of {SHARING_MODES}, got {sharing_mode!r}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.dim = dim
        self.heads = heads
        self.window = window
        self.dropout_rate = float(dropout_rate)
        self.sharing_mode = sharing_mode
        self.w_q = tc.trunc_normal(rng, (dim, dim))
        self.w_k = self.w_q if sharing_mode == "shared_qk" else tc.trunc_normal(rng, (dim, dim))
        self.w_v = tc.trunc_normal(rng, (dim, dim))
        self.w_o = tc.trunc_normal(rng, (dim, dim))
        self.b_q = tc.zeros((dim,))
        self.b_k = tc.zeros((dim,))
        self.b_v = tc.zeros((dim,))
        self.b_o = tc.zeros((dim,))
        # zero bias at init keeps the single-window/global equivalence exact
        self.bias_table = tc.zeros((heads, (2 * window - 1) ** 2))
        self.bias_index = build_bias_index(window)

    def named_params(self):
        """(name, tensor) pairs; the shared matrix appears once as w_qk."""
        if self.sharing_mode == "shared_qk":
            yield "w_qk", self.w_q
        else:
            yield "w_q", self.w_q
            yield "w_k", self.w_k
        yield "w_v", self.w_v
        yield "w_o", self.w_o
        yield "b_q", self.b_q
        yield "b_k", self.b_k
        yield "b_v", self.b_v
        yield "b_o", self.b_o
        yield "bias_table", self.bias_table

    def param_count(self) -> int:
        return sum(t.size for _, t in self.named_params())


def _mha(x: Tensor, params: WindowAttentionParams, bias: bool, training: bool, rng):
    """Attention over the T tokens of every (T, C) slice of ``x`` (..., T, C)
    as one tape node with a hand-written backward. Returns the output and,
    as arrays, the biased scores and the (post-dropout) weights.

    One GEMM against ``[w_q | w_k | w_v]`` fills a q/k/v buffer whose heads
    are views; the backward keeps ``x``, that buffer, the probabilities, the
    merged heads and the dropout masks. A shared q/k matrix is two inputs,
    so the tape sums both roles.
    """
    xd = x.data
    *lead, t, c = xd.shape
    if c != params.dim:
        raise ConfigError(f"channel mismatch: input {c} vs params {params.dim}")
    drop = params.dropout_rate if training else 0.0
    if drop and rng is None:
        raise ContractError("training-mode dropout needs an rng")
    h = params.heads
    d = c // h
    n = len(lead)
    to_heads = (n + 1, *range(n), n + 2, n, n + 3)  # (..., T, 3, h, d) -> (3, ..., h, T, d)
    inputs = (x, params.w_q, params.w_k, params.w_v, params.w_o,
              params.b_q, params.b_k, params.b_v, params.b_o)
    fault = _FAULT_BIAS_SIGN

    w_qkv = np.concatenate((params.w_q.data, params.w_k.data, params.w_v.data), axis=1)
    x2 = xd.reshape(-1, c)
    qkv = x2 @ w_qkv
    qkv += np.concatenate((params.b_q.data, params.b_k.data, params.b_v.data))
    q, k, v = qkv.reshape(*lead, t, 3, h, d).transpose(to_heads)
    scores = q @ k.swapaxes(-1, -2)
    scale = scores.dtype.type(1.0 / math.sqrt(d))
    scores *= scale
    if bias:
        inputs += (params.bias_table,)
        table = params.bias_table.data.take(params.bias_index, axis=1)
        scores += -table if fault else table
    p = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    p_mask = tc._dropout_mask(p.shape, p.dtype, drop, rng) if drop else None
    attn = p * p_mask if drop else p
    merged = (attn @ v).swapaxes(-3, -2).reshape(-1, c)
    w_o = params.w_o.data
    out = merged @ w_o
    out += params.b_o.data
    o_mask = tc._dropout_mask(out.shape, out.dtype, drop, rng) if drop else None
    if drop:
        out *= o_mask
    if tc._COUNTERS:  # the tally of the separate ops this node stands for
        rows, n_scores = x2.shape[0], scores.size
        for _ in range(3):  # q, k, v projections and their biases
            tc._count("mac", 2 * rows * c * c)
            tc._count("elementwise", rows * c)
        with tc.flop_scope("scores"):
            tc._count("mac", 2 * n_scores * d)
        tc._count("elementwise", n_scores * (2 if bias else 1))  # scale, bias
        tc._count("softmax", 5 * n_scores)
        if drop:
            tc._count("elementwise", n_scores)
        with tc.flop_scope("weighted_sum"):
            tc._count("mac", 2 * n_scores * d)
        tc._count("mac", 2 * rows * c * c)
        tc._count("elementwise", rows * c * (2 if drop else 1))  # bias, dropout

    def bwd(g):
        g2 = g.reshape(-1, c)
        if drop:
            g2 = g2 * o_mask
        gz = (g2 @ w_o.T).reshape(*lead, t, h, d).swapaxes(-3, -2)
        gp = gz @ v.swapaxes(-1, -2)
        if drop:
            gp *= p_mask
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        g_table = []
        if bias:
            gt = np.zeros_like(params.bias_table.data)
            np.add.at(gt, (slice(None), params.bias_index), gs.reshape(-1, h, t, t).sum(axis=0))
            g_table.append(-gt if fault else gt)
        gs *= scale
        gqkv = np.empty_like(qkv)
        gq, gk, gv = gqkv.reshape(*lead, t, 3, h, d).transpose(to_heads)
        gq[...] = gs @ k
        gk[...] = gs.swapaxes(-1, -2) @ q
        gv[...] = (p * p_mask if drop else p).swapaxes(-1, -2) @ gz
        gw = [np.ascontiguousarray(w) for w in np.split(x2.T @ gqkv, 3, axis=1)]
        gx = (gqkv @ w_qkv.T).reshape(xd.shape)
        gb = np.split(gqkv.sum(axis=0), 3)
        return (gx, *gw, merged.T @ g2, *gb, g2.sum(axis=0), *g_table)

    return tc._emit(out.reshape(xd.shape), inputs, bwd), scores, attn


def window_mha_forward(
    x_windows: Tensor,
    params: WindowAttentionParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
    return_scores: bool = False,
):
    """Attention inside each window of ``x_windows`` (N, M^2, C).

    Per window and head: q/k/v projections, scaled dot-product scores plus
    the displacement bias, softmax (dropout in training), weighted sum of
    values, head concat, output projection (dropout in training). With
    ``return_scores`` the raw biased scores and the post-softmax weights
    (N, heads, M^2, M^2) come back alongside the output, off the tape.
    """
    if x_windows.ndim != 3:
        raise ContractError(f"expected (N, M^2, C) windows, got {x_windows.shape}")
    t = x_windows.shape[1]
    if t != params.window**2:
        raise ConfigError(f"window tokens {t} do not match window side {params.window}")
    out, scores, attn = _mha(x_windows, params, True, training, rng)
    return (out, Tensor(scores), Tensor(attn)) if return_scores else out


def global_mha_forward(
    x: Tensor,
    params: WindowAttentionParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
    return_scores: bool = False,
):
    """Multi-head attention over all L tokens of ``x`` (L, C), no bias.

    Same projections as the windowed path; the score matrix is L x L per
    head, which is the quadratic cost the windowed variant undercuts.
    """
    if x.ndim != 2:
        raise ContractError(f"expected (L, C) tokens, got {x.shape}")
    out, scores, attn = _mha(x, params, False, training, rng)
    return (out, Tensor(scores), Tensor(attn)) if return_scores else out
