"""Dense tensors with a reverse-mode differentiation tape.

Every higher-level module builds on the primitives here. Data lives in
row-major numpy arrays; the forward default is float32 while verification
paths (finite differences, oracles) run the same code in float64. Tensors
produced by library ops are treated as immutable; only leaf parameters are
ever updated in place, and only by the optimizer.

Recording is contextual: entering a :class:`Tape` makes subsequent ops
append nodes to it, entering a :class:`FlopCounter` makes them tally their
cost. Both stacks are thread-local so read-only inference can fan out
across threads without sharing trainer state.

FLOP convention (documented once, used everywhere): matrix products and
convolutions count 2 FLOPs per multiply-accumulate under the ``mac``
category; plain elementwise ops count 1 FLOP per element under
``elementwise``; softmax counts 5 per element under ``softmax``. The
``mac`` category is exact and is the one reconciled against analytical
counts; the other buckets are bookkeeping estimates.
"""

from __future__ import annotations

import math
import struct
import threading
from contextlib import contextmanager

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    NumericsError,
    ShapeError,
)

DEFAULT_DTYPE = np.float32

TENSOR_MAGIC = b"WMHT"

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

_state = threading.local()


def _tapes() -> list:
    tapes = getattr(_state, "tapes", None)
    if tapes is None:
        tapes = []
        _state.tapes = tapes
    return tapes


def _counters() -> list:
    counters = getattr(_state, "counters", None)
    if counters is None:
        counters = []
        _state.counters = counters
    return counters


_debug_checks = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle the NaN/Inf check run after every op (off by default)."""
    global _debug_checks
    _debug_checks = bool(enabled)


class Tensor:
    """Dense N-dimensional float array with shape metadata.

    ``data`` is always a C-contiguous float32 or float64 numpy array and
    ``product(shape) == data.size`` by construction. Zero-length axes are
    rejected; a rank-0 tensor is the scalar case.
    """

    __slots__ = ("data",)

    def __init__(self, values, dtype=None):
        arr = np.asarray(values)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        if arr.ndim and min(arr.shape) < 1:
            raise ShapeError(f"tensor axes must be >= 1, got shape {arr.shape}")
        # ascontiguousarray promotes rank 0 to rank 1; keep scalars rank 0
        shape = arr.shape
        arr = np.ascontiguousarray(arr)
        self.data = arr.reshape(shape) if arr.shape != shape else arr

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"

    # Operator sugar; everything routes through the module-level ops so
    # recording and counting behave identically either way.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class TapeNode:
    __slots__ = ("output", "inputs", "backward")

    def __init__(self, output, inputs, backward):
        self.output = output
        self.inputs = inputs
        self.backward = backward


class Tape:
    """Ordered record of ops; execution order is a topological order, so
    replaying ``nodes`` in reverse visits consumers before producers."""

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self):
        _tapes().append(self)
        return self

    def __exit__(self, *exc):
        popped = _tapes().pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.nodes)


class FlopCounter:
    """Per-invocation FLOP tally, split by category and optional scope label."""

    def __init__(self):
        self.by_category: dict[str, int] = {}
        self.by_scope: dict[str, dict[str, int]] = {}
        self._labels: list[str] = []

    def __enter__(self):
        _counters().append(self)
        return self

    def __exit__(self, *exc):
        popped = _counters().pop()
        assert popped is self
        return False

    def add(self, category: str, flops: int) -> None:
        self.by_category[category] = self.by_category.get(category, 0) + flops
        label = self._labels[-1] if self._labels else ""
        bucket = self.by_scope.setdefault(label, {})
        bucket[category] = bucket.get(category, 0) + flops

    @contextmanager
    def scope(self, label: str):
        self._labels.append(label)
        try:
            yield self
        finally:
            self._labels.pop()

    def scope_flops(self, label: str, category: str | None = None) -> int:
        bucket = self.by_scope.get(label, {})
        if category is None:
            return sum(bucket.values())
        return bucket.get(category, 0)

    @property
    def mac_flops(self) -> int:
        return self.by_category.get("mac", 0)

    @property
    def elementwise_flops(self) -> int:
        return self.by_category.get("elementwise", 0)

    @property
    def softmax_flops(self) -> int:
        return self.by_category.get("softmax", 0)

    @property
    def total_flops(self) -> int:
        return sum(self.by_category.values())


def _count(category: str, flops: int) -> None:
    for counter in _counters():
        counter.add(category, flops)


@contextmanager
def flop_scope(label: str):
    """Label ops on every active counter; lets library code tag phases
    (e.g. attention scores) without holding a counter reference."""
    counters = list(_counters())
    for c in counters:
        c._labels.append(label)
    try:
        yield
    finally:
        for c in counters:
            c._labels.pop()


def _emit(data, inputs, backward_builder, op_name: str) -> Tensor:
    """Wrap an op result: finiteness check, then tape recording.

    ``backward_builder`` is only invoked when a tape is active so the eval
    path allocates no closures.
    """
    if _debug_checks and not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values produced by {op_name}")
    out = Tensor(data)
    tapes = _tapes()
    if tapes:
        node = TapeNode(out, inputs, backward_builder())
        tapes[-1].nodes.append(node)
    return out


class Gradients:
    """Gradient map returned by :func:`backward`, keyed by tensor identity.

    It holds the gradients of the tape's leaves (parameters and inputs),
    not those of tensors that an op on the tape produced.
    """

    def __init__(self, grads: dict):
        self._grads = grads

    def __contains__(self, t: Tensor) -> bool:
        return id(t) in self._grads

    def __getitem__(self, t: Tensor) -> np.ndarray:
        try:
            return self._grads[id(t)]
        except KeyError:
            raise KeyError(f"no gradient recorded for {t!r}") from None

    def get(self, t: Tensor, default=None):
        return self._grads.get(id(t), default)

    def __len__(self):
        return len(self._grads)


def backward(loss: Tensor, tape: Tape) -> Gradients:
    """Reverse-replay ``tape`` from a scalar ``loss``; gradients accumulate
    additively where a tensor feeds several consumers.

    A node's output gradient is complete once the node runs, so it is
    dropped there: only leaf gradients are returned.
    """
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if not any(node.output is loss for node in tape.nodes):
        raise ContractError("loss was not produced on this tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        gout = grads.pop(id(node.output), None)
        if gout is None:
            continue
        gins = node.backward(gout)
        for inp, gin in zip(node.inputs, gins):
            if gin is None:
                continue
            slot = id(inp)
            acc = grads.get(slot)
            grads[slot] = gin if acc is None else acc + gin
    return Gradients(grads)


# ---------------------------------------------------------------------------
# constructors


def zeros(shape, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype))


def ones(shape, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype))


def full(shape, value, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype))


def trunc_normal(rng: np.random.Generator, shape, std=0.02, dtype=DEFAULT_DTYPE) -> Tensor:
    """normal(0, std) resampled until every draw lies within +-2 std."""
    vals = rng.normal(0.0, std, size=shape)
    bad = np.abs(vals) > 2.0 * std
    while bad.any():
        vals[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(vals) > 2.0 * std
    return Tensor(vals.astype(dtype))


# ---------------------------------------------------------------------------
# broadcasting helpers


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ts) in enumerate(zip(g.shape, shape)) if ts == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _as_scalar_operand(a: Tensor, other):
    """Python numbers participate as untracked constants of matching dtype."""
    return np.asarray(other, dtype=a.dtype)


# ---------------------------------------------------------------------------
# arithmetic ops


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = _as_scalar_operand(a, b)
        data = a.data + c
        _count("elementwise", data.size)
        return _emit(data, (a,), lambda: lambda g: (g,), "add")
    data = a.data + b.data
    _count("elementwise", data.size)

    def build():
        a_shape, b_shape = a.shape, b.shape
        return lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape))

    return _emit(data, (a, b), build, "add")


def sub(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = _as_scalar_operand(a, b)
        data = a.data - c
        _count("elementwise", data.size)
        return _emit(data, (a,), lambda: lambda g: (g,), "sub")
    data = a.data - b.data
    _count("elementwise", data.size)

    def build():
        a_shape, b_shape = a.shape, b.shape
        return lambda g: (_unbroadcast(g, a_shape), -_unbroadcast(g, b_shape))

    return _emit(data, (a, b), build, "sub")


def neg(a: Tensor) -> Tensor:
    _count("elementwise", a.size)
    return _emit(-a.data, (a,), lambda: lambda g: (-g,), "neg")


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = _as_scalar_operand(a, b)
        data = a.data * c
        _count("elementwise", data.size)
        return _emit(data, (a,), lambda: lambda g: (g * c,), "mul")
    data = a.data * b.data
    _count("elementwise", data.size)

    def build():
        ad, bd = a.data, b.data
        a_shape, b_shape = a.shape, b.shape
        return lambda g: (_unbroadcast(g * bd, a_shape), _unbroadcast(g * ad, b_shape))

    return _emit(data, (a, b), build, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product: ``(..., m, k) @ (..., k, n)``.

    Leading axes broadcast; gradients are reduced back to each operand's
    shape. Counts ``2 * m * k * n`` FLOPs per matrix pair.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)
    _count("mac", 2 * data.size * a.shape[-1])

    def build():
        ad, bd = a.data, b.data
        a_shape, b_shape = a.shape, b.shape

        def bwd(g):
            ga = np.matmul(g, bd.swapaxes(-1, -2))
            gb = np.matmul(ad.swapaxes(-1, -2), g)
            return _unbroadcast(ga, a_shape), _unbroadcast(gb, b_shape)

        return bwd

    return _emit(data, (a, b), build, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def build():
        a_shape = a.shape
        return lambda g: (np.ascontiguousarray(g).reshape(a_shape),)

    return _emit(data, (a,), build, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = np.ascontiguousarray(a.data.transpose(axes))

    def build():
        inv = tuple(np.argsort(axes))
        return lambda g: (np.ascontiguousarray(g.transpose(inv)),)

    return _emit(data, (a,), build, "transpose")


def concat(parts: list[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat of an empty list")
    data = np.concatenate([p.data for p in parts], axis=axis)

    def build():
        sizes = [p.shape[axis] for p in parts]
        splits = np.cumsum(sizes)[:-1]
        return lambda g: tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return _emit(data, tuple(parts), build, "concat")


def stack(parts: list[Tensor]) -> Tensor:
    """Stack equal-shaped tensors along a new leading axis."""
    if not parts:
        raise ShapeError("stack of an empty list")
    data = np.stack([p.data for p in parts], axis=0)

    def build():
        return lambda g: tuple(g[i] for i in range(len(parts)))

    return _emit(data, tuple(parts), build, "stack")


def take_lastdim(table: Tensor, index: np.ndarray) -> Tensor:
    """Gather ``table[..., index]``; shared entries accumulate gradient."""
    index = np.asarray(index)
    if index.size and (index.min() < 0 or index.max() >= table.shape[-1]):
        raise ShapeError(
            f"gather index out of range [0, {table.shape[-1]}) for table {table.shape}"
        )
    data = table.data[..., index]

    def build():
        t_shape = table.shape

        def bwd(g):
            gt = np.zeros(t_shape, dtype=g.dtype)
            np.add.at(gt, (..., index), g)
            return (gt,)

        return bwd

    return _emit(data, (table,), build, "take_lastdim")


def reduce_sum(a: Tensor, axes=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axes, keepdims=keepdims)
    _count("elementwise", a.size)

    def build():
        a_shape = a.shape
        ax = tuple(range(len(a_shape))) if axes is None else (
            axes if isinstance(axes, tuple) else (axes,)
        )

        def bwd(g):
            if not keepdims:
                g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, a_shape).astype(g.dtype, copy=True),)

        return bwd

    return _emit(data, (a,), build, "reduce_sum")


def reduce_mean(a: Tensor, axes=None, keepdims=False) -> Tensor:
    data = a.data.mean(axis=axes, keepdims=keepdims)
    _count("elementwise", a.size)

    def build():
        a_shape = a.shape
        ax = tuple(range(len(a_shape))) if axes is None else (
            axes if isinstance(axes, tuple) else (axes,)
        )
        count = 1
        for i in ax:
            count *= a_shape[i]

        def bwd(g):
            if not keepdims:
                g = np.expand_dims(g, ax)
            return (np.broadcast_to(g / count, a_shape).astype(g.dtype, copy=True),)

        return bwd

    return _emit(data, (a,), build, "reduce_mean")


# ---------------------------------------------------------------------------
# nonlinearities


def sigmoid(a: Tensor) -> Tensor:
    # Split by sign so neither branch exponentiates a large positive value.
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    _count("elementwise", a.size)

    def build():
        y = out
        return lambda g: (g * y * (1.0 - y),)

    return _emit(out, (a,), build, "sigmoid")


# erf as piecewise Taylor polynomials, one about the left end of each of
# _ERF_CELLS equal cells of [0, _ERF_SPAN]; |x| is clamped to _ERF_SPAN,
# where erf rounds to 1 in float64. Odd symmetry covers x < 0. Expanding
# about the left end makes erf(0) = 0 and erf(+-6) = +-1 exact.
_ERF_SPAN = 6.0
_ERF_CELLS = 2048


def _erf_table(dtype) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The cells' start points, and per power of (x - start) the Taylor
    coefficients of every cell, the highest power first.

    Coefficient k of the cell starting at c is erf^(k)(c) / k!, where
    erf^(k)(x) = 2/sqrt(pi) (-1)^(k-1) H_(k-1)(x) exp(-x^2) for the
    physicists' Hermite polynomials H. The degree is the lowest whose
    Taylor remainder over one cell is below ``dtype``'s epsilon, bounding
    |H_n(x)| exp(-x^2/2) by 1.086435 sqrt(2^n n!) (Abramowitz & Stegun
    22.14.17): 2 in float32, 5 in float64.
    """
    h = _ERF_SPAN / _ERF_CELLS
    eps = np.finfo(dtype).eps
    deg = 1
    while (
        2 / math.sqrt(math.pi) * 1.086435 * math.sqrt(2.0**deg * math.factorial(deg))
        * h ** (deg + 1) / math.factorial(deg + 1)
    ) >= eps:
        deg += 1
    c = np.arange(_ERF_CELLS + 1) * h
    coef = np.empty((deg + 1, _ERF_CELLS + 1))
    coef[0] = [math.erf(v) for v in c]
    pdf2 = 2 / math.sqrt(math.pi) * np.exp(-c * c)
    herm_prev, herm = np.zeros_like(c), np.ones_like(c)  # H_(k-2), H_(k-1)
    for k in range(1, deg + 1):
        coef[k] = (-1) ** (k - 1) * herm * pdf2 / math.factorial(k)
        herm_prev, herm = herm, 2 * c * herm - 2 * (k - 1) * herm_prev
    return c.astype(dtype), tuple(coef[::-1].astype(dtype))


_ERF_TABLES = {np.dtype(t): _erf_table(t) for t in (np.float32, np.float64)}


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of a float32 or float64 array, in its dtype, by Horner with one
    ``take`` per coefficient. NaN maps to NaN and +-inf to +-1."""
    starts, coef = _ERF_TABLES[x.dtype]
    flat = x.reshape(-1)
    t = np.minimum(np.abs(flat), _ERF_SPAN)
    # fmin sends NaN to the last cell's index, while t (and so dx) keeps it.
    idx = np.fmin(t * (_ERF_CELLS / _ERF_SPAN), _ERF_CELLS).astype(np.intp)
    dx = t - starts.take(idx)
    p = coef[0].take(idx)
    for ck in coef[1:]:
        p *= dx
        p += ck.take(idx)
    return np.copysign(p, flat, out=p).reshape(x.shape)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    inner = _erf(x * _INV_SQRT2)
    with np.errstate(invalid="ignore"):  # gelu(-inf) is -inf * 0 = NaN
        out = 0.5 * x * (1.0 + inner)
    _count("elementwise", a.size)

    def build():
        def bwd(g):
            pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
            return (g * (0.5 * (1.0 + inner) + x * pdf),)

        return bwd

    return _emit(out, (a,), build, "gelu")


def softmax_lastdim(a: Tensor) -> Tensor:
    """Max-subtracted softmax over the last axis; each slice sums to 1."""
    if a.ndim < 1:
        raise ShapeError("softmax needs at least one axis")
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    _count("softmax", 5 * a.size)

    def build():
        y = out

        def bwd(g):
            dot = (g * y).sum(axis=-1, keepdims=True)
            return (y * (g - dot),)

        return bwd

    return _emit(out, (a,), build, "softmax")


def layernorm_lastdim(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeError(
            f"layernorm affine params must be ({x.shape[-1]},), got {gamma.shape} and {beta.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gamma.data + beta.data
    _count("elementwise", x.size)

    def build():
        n = x.shape[-1]
        gdat = gamma.data

        def bwd(g):
            red = tuple(range(g.ndim - 1))
            dgamma = (g * xhat).sum(axis=red)
            dbeta = g.sum(axis=red)
            dxhat = g * gdat
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            return dx, dgamma, dbeta

        return bwd

    return _emit(out, (x, gamma, beta), build, "layernorm")


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call sites skip it entirely in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    scale = x.dtype.type(1.0 / (1.0 - rate))
    data = x.data * keep * scale
    _count("elementwise", x.size)

    def build():
        return lambda g: (g * keep * scale,)

    return _emit(data, (x,), build, "dropout")


# ---------------------------------------------------------------------------
# spatial ops


def _unroll(x: np.ndarray, kh: int, kw: int, pad_y: int, pad_x: int):
    """Gather every kernel tap of ``x[..., H, W]`` as one contiguous run.

    Leading axes (channels, or batch and channels) are folded into one.
    Each ``H x W`` plane is zero-padded once into a row-major buffer of row
    width ``W + 2*pad_x`` plus one spare row. Tap ``(dy, dx)`` of every
    output position is then the run of ``ho * row`` elements starting at
    ``dy * row + dx`` (unrolled convolution, Chellapilla et al. 2006).
    Returns the columns ``[..., kh*kw, ho*row]`` and ``(ho, wo, row)``; the
    last ``row - wo`` entries of each output row wrap around and are
    cropped by the caller.
    """
    *lead, h, w = x.shape
    row = w + 2 * pad_x
    ho, wo = h + 2 * pad_y - kh + 1, row - kw + 1
    planes = math.prod(lead)
    buf = np.zeros((planes, h + 2 * pad_y + 1, row), dtype=x.dtype)
    buf[:, pad_y : pad_y + h, pad_x : pad_x + w] = x.reshape(planes, h, w)
    runs = np.lib.stride_tricks.sliding_window_view(buf.reshape(buf.shape[0], -1), ho * row, axis=1)
    starts = (np.arange(kh)[:, None] * row + np.arange(kw)).ravel()
    cols = runs[:, starts].reshape(*lead, kh * kw, ho * row)
    return cols, (ho, wo, row)


def _correlate(x: np.ndarray, kd: np.ndarray, pad_y: int, pad_x: int) -> np.ndarray:
    """Zero-padded cross-correlation of a batch ``x[B,C,H,W]`` with a dense
    ``kd[O,C,kh,kw]`` or a depthwise ``kd[C,kh,kw]`` kernel, no bias;
    returns ``[B,O,ho,wo]``."""
    kh, kw = kd.shape[-2:]
    cols, (ho, wo, row) = _unroll(x, kh, kw, pad_y, pad_x)
    taps = kd.reshape(kd.shape[0], -1)
    if kd.ndim == 4:
        out = np.matmul(taps, cols.reshape(x.shape[0], taps.shape[1], ho * row))
    else:
        out = np.einsum("ct,bctn->bcn", taps, cols)
    return out.reshape(x.shape[0], kd.shape[0], ho, row)[..., :wo]


def _conv(x: Tensor, kernel: Tensor, bias: Tensor, padding: int, op_name: str) -> Tensor:
    """Shared body of :func:`conv2d` and :func:`depthwise_conv2d` once the
    shapes are validated; the kernel's rank selects dense or depthwise.
    A (C, H, W) input runs as a batch of one."""
    kd = kernel.data
    lead = x.shape[:-3]
    xb = x.data.reshape(math.prod(lead), *x.shape[-3:])
    out = _correlate(xb, kd, padding, padding) + bias.data[:, None, None]
    _count("mac", 2 * out.size * (kd.size // kd.shape[0]))
    _count("elementwise", out.size)

    def build():
        kh, kw = kd.shape[-2:]
        h, w = xb.shape[-2:]
        batched = out.shape

        def bwd(g):
            g = g.reshape(batched)
            # The input gradient is the correlation of g with the flipped
            # kernel. Padding g by k-1-padding yields exactly the unpadded
            # input; a padding above k-1 leaves a border to crop. It goes
            # first so its columns are freed before the kernel gradient
            # gathers x's.
            if kd.ndim == 4:
                flipped = kd.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
            else:
                flipped = kd[:, ::-1, ::-1]
            qy, qx = kh - 1 - padding, kw - 1 - padding
            gx = _correlate(g, flipped, max(qy, 0), max(qx, 0))
            cy, cx = max(-qy, 0), max(-qx, 0)
            gx = np.ascontiguousarray(gx[:, :, cy : cy + h, cx : cx + w]).reshape(x.shape)
            cols, (ho, wo, row) = _unroll(xb, kh, kw, padding, padding)
            grow = np.zeros((*g.shape[:2], ho, row), dtype=g.dtype)
            grow[..., :wo] = g
            grow = grow.reshape(*g.shape[:2], -1)
            if kd.ndim == 4:
                gk = np.tensordot(grow, cols.reshape(g.shape[0], -1, ho * row), axes=([0, 2], [0, 2]))
            else:
                gk = np.einsum("bcn,bctn->ct", grow, cols)
            return gx, gk.reshape(kd.shape), g.sum(axis=(0, 2, 3))

        return bwd

    return _emit(out.reshape(*lead, *out.shape[1:]), (x, kernel, bias), build, op_name)


def _conv_input(x: Tensor, name: str) -> None:
    if x.ndim not in (3, 4):
        raise ShapeError(f"{name} expects (C, H, W) or (B, C, H, W) input, got {x.shape}")


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, padding: int) -> Tensor:
    """Cross-correlation of ``x[Cin,H,W]`` or a batch ``x[B,Cin,H,W]`` with
    ``kernel[Cout,Cin,kh,kw]``; returns ``[Cout,ho,wo]`` or ``[B,Cout,ho,wo]``.

    Zero padding, odd kernel sides; ``padding=(k-1)//2`` preserves H and W.
    Evaluated as unrolled convolution: one gather of all kernel taps of all
    images and one contraction over input channels and taps (:func:`_unroll`).
    """
    _conv_input(x, "conv2d")
    if kernel.ndim != 4:
        raise ShapeError(f"conv2d expects an OIHW kernel, got {kernel.shape}")
    cout, cin, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d kernel sides must be odd, got {kh}x{kw}")
    if x.shape[-3] != cin:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d bias must be ({cout},), got {bias.shape}")
    if padding < 0:
        raise ShapeError(f"conv2d padding must be >= 0, got {padding}")
    h, w = x.shape[-2:]
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"conv2d output would be empty for input {x.shape}, kernel {kernel.shape}")
    return _conv(x, kernel, bias, padding, "conv2d")


def depthwise_conv2d(x: Tensor, kernel: Tensor, bias: Tensor, padding: int) -> Tensor:
    """Per-channel cross-correlation of ``x[C,H,W]`` or a batch
    ``x[B,C,H,W]``: ``kernel[C,kh,kw]`` filters channel c only.

    Same unrolled evaluation as :func:`conv2d`, contracting over taps only.
    """
    _conv_input(x, "depthwise conv")
    if kernel.ndim != 3:
        raise ShapeError(f"depthwise conv expects a CHW kernel, got {kernel.shape}")
    c, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"depthwise kernel sides must be odd, got {kh}x{kw}")
    if x.shape[-3] != c:
        raise ShapeError(f"depthwise channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    if bias.shape != (c,):
        raise ShapeError(f"depthwise bias must be ({c},), got {bias.shape}")
    if padding < 0:
        raise ShapeError(f"depthwise padding must be >= 0, got {padding}")
    h, w = x.shape[-2:]
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"depthwise output would be empty for input {x.shape}")
    return _conv(x, kernel, bias, padding, "depthwise_conv2d")


def channel_pool(x: Tensor, mode: str) -> Tensor:
    """Reduce ``x[C,H,W]`` or ``x[B,C,H,W]`` across channels (axis -3)
    only, to ``[1,H,W]`` or ``[B,1,H,W]``."""
    _conv_input(x, "channel_pool")
    if mode not in ("avg", "max"):
        raise ConfigError(f"channel_pool mode must be 'avg' or 'max', got {mode!r}")
    _count("elementwise", x.size)
    if mode == "avg":
        data = x.data.mean(axis=-3, keepdims=True)

        def build():
            c = x.shape[-3]
            return lambda g: (np.broadcast_to(g / c, x.shape).astype(g.dtype, copy=True),)

        return _emit(data, (x,), build, "channel_pool_avg")

    data = x.data.max(axis=-3, keepdims=True)

    def build():
        # gradient flows to the first maximal channel per pixel
        idx = np.argmax(x.data, axis=-3)[..., None, :, :]
        x_shape = x.shape

        def bwd(g):
            gx = np.zeros(x_shape, dtype=g.dtype)
            np.put_along_axis(gx, idx, g, axis=-3)
            return (gx,)

        return bwd

    return _emit(data, (x,), build, "channel_pool_max")


def cross_entropy_logits(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of ``labels`` under ``softmax(logits)``.

    ``logits`` is (B, K); labels are integers in [0, K). Fused forward via
    log-sum-exp so large logits stay finite; backward is the standard
    (softmax - onehot) / B.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross entropy expects (batch, classes) logits, got {logits.shape}")
    labels = np.asarray(labels)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ShapeError(f"labels must be ({b},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ContractError(f"labels must lie in [0, {k}), got range [{labels.min()}, {labels.max()}]")
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    picked = x[np.arange(b), labels][:, None]
    data = np.asarray((lse - picked).mean(), dtype=x.dtype)
    _count("elementwise", 5 * logits.size)

    def build():
        def bwd(g):
            p = np.exp(x - lse)
            p[np.arange(b), labels] -= 1.0
            return (g * p / b,)

        return bwd

    return _emit(data, (logits,), build, "cross_entropy")


# ---------------------------------------------------------------------------
# serialization and debugging


def write_tensor(t: Tensor, f) -> None:
    """Binary layout: magic ``WMHT``, u32 rank, u8 item width (4 or 8),
    u64 dims, little-endian payload."""
    width = t.dtype.itemsize
    f.write(TENSOR_MAGIC)
    f.write(struct.pack("<IB", t.ndim, width))
    f.write(struct.pack(f"<{t.ndim}Q", *t.shape))
    f.write(t.data.astype(f"<f{width}", copy=False).tobytes())


def _bytes_left(f) -> int:
    here = f.tell()
    end = f.seek(0, 2)
    f.seek(here)
    return end - here


def read_tensor(f) -> Tensor:
    """Inverse of :func:`write_tensor` on a seekable binary file.

    The rank and dims are checked against the bytes left in ``f`` before
    anything of that size is read or allocated.
    """
    from .errors import CheckpointError, CheckpointMagicError, CheckpointTruncatedError

    magic = f.read(4)
    if magic != TENSOR_MAGIC:
        raise CheckpointMagicError(f"bad tensor magic {magic!r}")
    head = f.read(5)
    if len(head) < 5:
        raise CheckpointTruncatedError("tensor header truncated")
    rank, width = struct.unpack("<IB", head)
    if width not in (4, 8):
        raise CheckpointMagicError(f"unsupported item width {width}")
    if 8 * rank > _bytes_left(f):
        raise CheckpointTruncatedError(f"tensor dims truncated (rank {rank})")
    dims = struct.unpack(f"<{rank}Q", f.read(8 * rank)) if rank else ()
    if 0 in dims:
        raise CheckpointError(f"tensor dims {dims} hold an empty axis")
    count = width
    for d in dims:
        count *= d
    left = _bytes_left(f)
    if count > left:
        raise CheckpointTruncatedError(f"tensor payload truncated: {left} of {count} bytes")
    arr = np.frombuffer(f.read(count), dtype=f"<f{width}").reshape(dims)
    return Tensor(arr.copy())


# ---------------------------------------------------------------------------
# finite-difference verification


def finite_difference_check(loss_fn, params, eps: float = 1e-4):
    """Compare analytic gradients with central finite differences.

    ``loss_fn`` must rebuild the forward pass from the current parameter
    values on every call (it is invoked under a fresh tape once for the
    analytic pass, then repeatedly without one while parameters are
    perturbed in place). Returns the max relative error over all parameter
    elements, with the relative scale floored at 1 so near-zero gradients
    compare absolutely.
    """
    with Tape() as tape:
        loss = loss_fn()
        grads = backward(loss, tape)
    worst = 0.0
    for p in params:
        analytic = grads.get(p)
        if analytic is None:
            analytic = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_fn().item()
            flat[i] = orig - eps
            lm = loss_fn().item()
            flat[i] = orig
            fd = (lp - lm) / (2.0 * eps)
            a = float(analytic.reshape(-1)[i])
            err = abs(a - fd) / max(abs(a), abs(fd), 1.0)
            if err > worst:
                worst = err
    return worst
