"""Windowed multi-head self-attention with a relative position bias.

The token grid is cut into non-overlapping M x M tiles and attention runs
independently inside each tile, so score cost scales with M^2 per token
instead of with the full sequence length. A per-head bias table indexed by
in-window displacement is added to the raw scores. A global (unwindowed)
multi-head attention over the whole sequence lives alongside it as the
oracle and cost baseline.
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
    t = tc.reshape(x, (b * (h // m), m, w // m, m, c))
    t = tc.transpose(t, (0, 2, 1, 3, 4))
    return tc.reshape(t, (b * geom.n_windows, m * m, c))


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
    x = tc.reshape(windows, (b * geom.height // m, geom.width // m, m, m, c))
    x = tc.transpose(x, (0, 2, 1, 3, 4))
    return tc.reshape(x, (*((b,) if b > 1 else ()), geom.height, geom.width, c))


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


def _split_heads(t: Tensor, heads: int) -> Tensor:
    """(..., T, C) -> (..., heads, T, d) with head i owning channel slice
    [i*d, (i+1)*d)."""
    *lead, tokens, dim = t.shape
    d = dim // heads
    t = tc.reshape(t, (*lead, tokens, heads, d))
    axes = list(range(t.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return tc.transpose(t, tuple(axes))


def _merge_heads(t: Tensor) -> Tensor:
    """(..., heads, T, d) -> (..., T, heads*d): concatenation across heads."""
    axes = list(range(t.ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    t = tc.transpose(t, tuple(axes))
    *lead, tokens, heads, d = t.shape
    return tc.reshape(t, (*lead, tokens, heads * d))


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
    (N, heads, M^2, M^2) come back alongside the output.
    """
    if x_windows.ndim != 3:
        raise ContractError(f"expected (N, M^2, C) windows, got {x_windows.shape}")
    n, t, c = x_windows.shape
    if c != params.dim:
        raise ConfigError(f"channel mismatch: input {c} vs params {params.dim}")
    if t != params.window**2:
        raise ConfigError(f"window tokens {t} do not match window side {params.window}")
    if training and params.dropout_rate > 0.0 and rng is None:
        raise ContractError("training-mode dropout needs an rng")
    h = params.heads
    d = c // h

    q = tc.add(tc.matmul(x_windows, params.w_q), params.b_q)
    k = tc.add(tc.matmul(x_windows, params.w_k), params.b_k)
    v = tc.add(tc.matmul(x_windows, params.w_v), params.b_v)
    q = _split_heads(q, h)
    k = _split_heads(k, h)
    v = _split_heads(v, h)

    with tc.flop_scope("scores"):
        scores = tc.matmul(q, tc.transpose(k, (0, 1, 3, 2)))
    scores = tc.mul(scores, 1.0 / math.sqrt(d))

    flat_index = params.bias_index.reshape(-1)
    bias = tc.take_lastdim(params.bias_table, flat_index)
    bias = tc.reshape(bias, (h, t, t))
    if _FAULT_BIAS_SIGN:
        scores = tc.sub(scores, bias)
    else:
        scores = tc.add(scores, bias)

    attn = tc.softmax_lastdim(scores)
    if training and params.dropout_rate > 0.0:
        attn = tc.dropout(attn, params.dropout_rate, rng)

    with tc.flop_scope("weighted_sum"):
        z = tc.matmul(attn, v)
    out = tc.matmul(_merge_heads(z), params.w_o)
    out = tc.add(out, params.b_o)
    if training and params.dropout_rate > 0.0:
        out = tc.dropout(out, params.dropout_rate, rng)
    if return_scores:
        return out, scores, attn
    return out


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
    l, c = x.shape
    if c != params.dim:
        raise ConfigError(f"channel mismatch: input {c} vs params {params.dim}")
    if training and params.dropout_rate > 0.0 and rng is None:
        raise ContractError("training-mode dropout needs an rng")
    h = params.heads
    d = c // h

    q = tc.add(tc.matmul(x, params.w_q), params.b_q)
    k = tc.add(tc.matmul(x, params.w_k), params.b_k)
    v = tc.add(tc.matmul(x, params.w_v), params.b_v)
    q = _split_heads(q, h)
    k = _split_heads(k, h)
    v = _split_heads(v, h)

    with tc.flop_scope("scores"):
        scores = tc.matmul(q, tc.transpose(k, (0, 2, 1)))
    scores = tc.mul(scores, 1.0 / math.sqrt(d))

    attn = tc.softmax_lastdim(scores)
    if training and params.dropout_rate > 0.0:
        attn = tc.dropout(attn, params.dropout_rate, rng)

    with tc.flop_scope("weighted_sum"):
        z = tc.matmul(attn, v)
    out = tc.matmul(_merge_heads(z), params.w_o)
    out = tc.add(out, params.b_o)
    if training and params.dropout_rate > 0.0:
        out = tc.dropout(out, params.dropout_rate, rng)
    if return_scores:
        return out, scores, attn
    return out
