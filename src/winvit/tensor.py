"""Dense tensors with a reverse-mode differentiation tape.

Every higher-level module builds on the primitives here. Data lives in
row-major numpy arrays; the forward default is float32 while verification
paths (finite differences, oracles) run the same code in float64. Tensors
produced by library ops are treated as immutable; only leaf parameters are
ever updated in place, and only by the optimizer.

Recording is contextual: entering a :class:`Tape` makes subsequent ops
append nodes to it, entering a :class:`FlopCounter` makes them tally their
cost. Both stacks are plain module lists, so recording is per process: a
tape or counter entered in one thread also records the ops of every other
thread, and nothing here is meant to run from several threads at once.

An op follows one protocol: compute the forward result as a numpy array,
tally its cost with ``_count``, define ``bwd(g)`` that maps the output's
gradient to a tuple holding one gradient (or None) per input, and return
``_emit(data, inputs, bwd)``. The tape stores ``bwd`` as the node's
backward; without a tape it is dropped, so work that only the backward
needs (argsorts, argmax indices) belongs inside ``bwd``.

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
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

DEFAULT_DTYPE = np.float32
_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)

TENSOR_MAGIC = b"WMHT"

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

# the active tapes and counters, innermost last
_TAPES: list = []
_COUNTERS: list = []


class Tensor:
    """Dense N-dimensional float array with shape metadata.

    ``data`` is always a C-contiguous float32 or float64 numpy array and
    ``product(shape) == data.size`` by construction. Zero-length axes are
    rejected; a rank-0 tensor is the scalar case.
    """

    __slots__ = ("data",)

    def __init__(self, values, dtype=None):
        # Op results are already valid: a C-contiguous float32/float64
        # ndarray with no zero-length axis (size 0 iff an axis is 0) is
        # kept as is. Everything else is converted and checked below.
        if (
            dtype is None
            and type(values) is np.ndarray
            and ((dt := values.dtype) is _F32 or dt is _F64)
            and values.size
            and values.flags.c_contiguous
        ):
            self.data = values
            return
        arr = np.asarray(values)
        if dtype is None:
            # float32/float64 keep their width, in native byte order
            dt = arr.dtype
            native = dt.kind == "f" and dt.itemsize in (4, 8)
            dtype = dt.newbyteorder("=") if native else DEFAULT_DTYPE
        arr = arr.astype(dtype, copy=False)
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
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPES.pop()
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
        _COUNTERS.append(self)
        return self

    def __exit__(self, *exc):
        popped = _COUNTERS.pop()
        assert popped is self
        return False

    def add(self, category: str, flops: int) -> None:
        self.by_category[category] = self.by_category.get(category, 0) + flops
        label = self._labels[-1] if self._labels else ""
        bucket = self.by_scope.setdefault(label, {})
        bucket[category] = bucket.get(category, 0) + flops

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
    if _COUNTERS:
        for counter in _COUNTERS:
            counter.add(category, flops)


@contextmanager
def flop_scope(label: str):
    """Label ops on every active counter; lets library code tag phases
    (e.g. attention scores) without holding a counter reference."""
    counters = list(_COUNTERS)
    for c in counters:
        c._labels.append(label)
    try:
        yield
    finally:
        for c in counters:
            c._labels.pop()


def _emit(data, inputs, backward) -> Tensor:
    """The last step of an op: wrap ``data`` and, under a tape, record a
    node whose ``backward(g)`` returns one gradient or None per input."""
    out = Tensor(data)
    if _TAPES:
        _TAPES[-1].nodes.append(TapeNode(out, inputs, backward))
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
        if len(gins) != len(node.inputs):
            raise ContractError(
                f"a backward returned {len(gins)} gradients for {len(node.inputs)} inputs"
            )
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
    ad = a.data
    if not isinstance(b, Tensor):
        data = ad + _as_scalar_operand(a, b)
        _count("elementwise", data.size)
        return _emit(data, (a,), lambda g: (g,))
    bd = b.data
    data = ad + bd
    _count("elementwise", data.size)

    def bwd(g):
        return _unbroadcast(g, ad.shape), _unbroadcast(g, bd.shape)

    return _emit(data, (a, b), bwd)


def sub(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = _as_scalar_operand(a, b)
        data = a.data - c
        _count("elementwise", data.size)
        return _emit(data, (a,), lambda g: (g,))
    data = a.data - b.data
    _count("elementwise", data.size)

    def bwd(g):
        return _unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)

    return _emit(data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    _count("elementwise", a.size)
    return _emit(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = _as_scalar_operand(a, b)
        data = a.data * c
        _count("elementwise", data.size)
        return _emit(data, (a,), lambda g: (g * c,))
    ad, bd = a.data, b.data
    data = ad * bd
    _count("elementwise", data.size)

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _emit(data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product: ``(..., m, k) @ (..., k, n)``.

    Leading axes broadcast; gradients are reduced back to each operand's
    shape. A 2-D ``b`` shared by a batched ``a`` gets its gradient from one
    GEMM over all rows. Counts ``2 * m * k * n`` FLOPs per matrix pair.
    """
    ad, bd = a.data, b.data
    a_shape, b_shape = ad.shape, bd.shape
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a_shape} @ {b_shape}")
    k = a_shape[-1]
    if k != b_shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a_shape} @ {b_shape}")
    data = np.matmul(ad, bd)
    _count("mac", 2 * data.size * k)

    def bwd(g):
        ga = np.matmul(g, bd.swapaxes(-1, -2))
        if len(b_shape) == 2:
            gb = ad.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = np.matmul(ad.swapaxes(-1, -2), g)
        return _unbroadcast(ga, a_shape), _unbroadcast(gb, b_shape)

    return _emit(data, (a, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def bwd(g):
        return (np.ascontiguousarray(g).reshape(a.shape),)

    return _emit(data, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = np.ascontiguousarray(a.data.transpose(axes))

    def bwd(g):
        return (np.ascontiguousarray(g.transpose(tuple(np.argsort(axes)))),)

    return _emit(data, (a,), bwd)


def concat(parts: list[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat of an empty list")
    data = np.concatenate([p.data for p in parts], axis=axis)

    def bwd(g):
        splits = np.cumsum([p.shape[axis] for p in parts])[:-1]
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return _emit(data, tuple(parts), bwd)


def stack(parts: list[Tensor]) -> Tensor:
    """Stack equal-shaped tensors along a new leading axis."""
    if not parts:
        raise ShapeError("stack of an empty list")
    data = np.stack([p.data for p in parts], axis=0)

    def bwd(g):
        return tuple(g[i] for i in range(len(parts)))

    return _emit(data, tuple(parts), bwd)


def take_lastdim(table: Tensor, index: np.ndarray) -> Tensor:
    """Gather ``table[..., index]``; shared entries accumulate gradient."""
    index = np.asarray(index)
    if index.size and (index.min() < 0 or index.max() >= table.shape[-1]):
        raise ShapeError(
            f"gather index out of range [0, {table.shape[-1]}) for table {table.shape}"
        )
    data = table.data[..., index]

    def bwd(g):
        gt = np.zeros(table.shape, dtype=g.dtype)
        np.add.at(gt, (..., index), g)
        return (gt,)

    return _emit(data, (table,), bwd)


def _reduce(a: Tensor, axes, keepdims: bool, mean: bool) -> Tensor:
    """Sum over ``axes`` (all when None), divided by the count of summed
    elements when ``mean``: the ufuncs ``np.mean`` runs, without its
    Python-level wrapper."""
    total = a.data.sum(axis=axes, keepdims=keepdims)
    count = a.size // total.size
    data = total / count if mean else total
    _count("elementwise", a.size)

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, tuple(range(a.ndim)) if axes is None else axes)
        if mean:
            g = g / count
        return (np.broadcast_to(g, a.shape).astype(g.dtype, copy=True),)

    return _emit(data, (a,), bwd)


def reduce_sum(a: Tensor, axes=None, keepdims=False) -> Tensor:
    return _reduce(a, axes, keepdims, mean=False)


def reduce_mean(a: Tensor, axes=None, keepdims=False) -> Tensor:
    return _reduce(a, axes, keepdims, mean=True)


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e)
    # below. Negating only x >= 0 keeps a NaN's sign bit.
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    _count("elementwise", a.size)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _emit(out, (a,), bwd)


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

    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (0.5 * (1.0 + inner) + x * pdf),)

    return _emit(out, (a,), bwd)


def softmax_lastdim(a: Tensor) -> Tensor:
    """Max-subtracted softmax over the last axis; each slice sums to 1."""
    if a.ndim < 1:
        raise ShapeError("softmax needs at least one axis")
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    _count("softmax", 5 * a.size)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _emit(out, (a,), bwd)


def layernorm_lastdim(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeError(
            f"layernorm affine params must be ({x.shape[-1]},), got {gamma.shape} and {beta.shape}"
        )
    # Centre once; the same ufunc sequence as np.mean and np.var.
    xd = x.data
    n = xd.shape[-1]
    d = xd - xd.sum(axis=-1, keepdims=True) / n
    var = (d * d).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = d * inv
    gd = gamma.data
    out = xhat * gd + beta.data
    _count("elementwise", xd.size)

    def bwd(g):
        red = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=red)
        dbeta = g.sum(axis=red)
        dxhat = g * gd
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgamma, dbeta

    return _emit(out, (x, gamma, beta), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call sites skip it entirely in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    mask = _dropout_mask(x.shape, x.dtype, rate, rng)
    data = x.data * mask
    _count("elementwise", x.size)
    return _emit(data, (x,), lambda g: (g * mask,))


def _dropout_mask(shape, dtype, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Kept entries 1 / (1 - rate), dropped ones 0: one uniform draw per
    entry, kept where the draw is >= ``rate``. Multiplying by the mask
    gives the bits of multiplying by the 0/1 keep mask, then the scale."""
    keep = (rng.random(shape) >= rate).astype(dtype)
    return keep * dtype.type(1.0 / (1.0 - rate))


# ---------------------------------------------------------------------------
# spatial ops


def _tap_view(x: np.ndarray, kh: int, kw: int, pad_y: int, pad_x: int):
    """Every kernel tap of a channels-last batch ``x[N, H, W, C]`` as a
    read-only view, without copying a tap.

    The batch is zero-padded once into a row-major buffer of row width
    ``row = W + 2*pad_x`` plus one spare row. Tap ``(dy, dx)`` of every
    output position of an image is then the contiguous run of ``ho * row``
    pixels starting at pixel ``dy * row + dx``. Returns the view
    ``[N, kh, kw, ho*row, C]`` and ``(ho, wo, row)``; the last
    ``row - wo`` positions of each output row wrap around and are cropped
    by the caller.
    """
    n, h, w, c = x.shape
    row = w + 2 * pad_x
    ho, wo = h + 2 * pad_y - kh + 1, row - kw + 1
    buf = np.zeros((n, h + 2 * pad_y + 1, row, c), dtype=x.dtype)
    buf[:, pad_y : pad_y + h, pad_x : pad_x + w] = x
    # The last run of the last tap ends kw - 1 pixels into the spare row.
    if (kh - 1 + ho) * row + kw - 1 > buf.shape[1] * row:
        raise ShapeError(f"kernel {kh}x{kw} overruns a padded row of {row}")
    img, line, pixel, chan = buf.strides
    # built directly: as_strided's Python wrapper costs several times more
    taps = np.ndarray((n, kh, kw, ho * row, c), buf.dtype, buf, 0, (img, line, pixel, pixel, chan))
    taps.flags.writeable = False
    return taps, (ho, wo, row)


def _slide(x: np.ndarray, k: np.ndarray, pad_y: int, pad_x: int) -> np.ndarray:
    """Zero-padded cross-correlation of ``x[N, H, W, C]`` with a tap-major
    kernel, no bias: depthwise ``k[kh, kw, C]`` or dense
    ``k[kh, kw, Cin, Cout]``. Returns ``[N, ho, wo, Cout]``, a view."""
    kh, kw = k.shape[:2]
    taps, (ho, wo, row) = _tap_view(x, kh, kw, pad_y, pad_x)
    if k.ndim == 4:
        # tensordot's GEMM over (taps, Cin), without its Python wrapper
        out = _tap_rows(taps) @ k.reshape(-1, k.shape[-1])
    else:
        out = np.einsum("byxnc,yxc->bnc", taps, k)
    return out.reshape(x.shape[0], ho, row, k.shape[-1])[:, :, :wo]


def _tap_rows(taps: np.ndarray) -> np.ndarray:
    """The tap view as a ``[N*ho*row, kh*kw*C]`` matrix (a copy)."""
    n, kh, kw, npix, c = taps.shape
    return taps.transpose(0, 3, 1, 2, 4).reshape(n * npix, kh * kw * c)


def _conv_forward(xb: np.ndarray, kd: np.ndarray, bd: np.ndarray, padding: int):
    """``_slide`` plus bias over a batch ``xb[N, H, W, Cin]`` for an OIHW
    (dense) or CHW (depthwise) kernel ``kd``, counted. Returns the output
    ``[N, ho, wo, Cout]`` and the tap-major kernel that
    :func:`_conv_backward` takes."""
    dense = kd.ndim == 4
    # OIHW -> (kh, kw, Cin, Cout) and CHW -> (kh, kw, C)
    k = np.ascontiguousarray(kd.transpose((2, 3, 1, 0) if dense else (1, 2, 0)))
    out = _slide(xb, k, padding, padding) + bd
    _count("mac", 2 * out.size * (kd.size // kd.shape[0]))
    _count("elementwise", out.size)
    return out, k


def _conv_backward(g: np.ndarray, xb: np.ndarray, k: np.ndarray, padding: int):
    """Gradients of :func:`_conv_forward` for the output gradient
    ``g[N, ho, wo, Cout]``: the input ``[N, H, W, Cin]``, the kernel in its
    OIHW or CHW layout, and the bias."""
    dense = k.ndim == 4
    kh, kw = k.shape[:2]
    h, w = xb.shape[1:3]
    # The input gradient is the correlation of g with the flipped kernel.
    # Padding g by k-1-padding yields exactly the unpadded input; a padding
    # above k-1 leaves a border to crop.
    flipped = k[::-1, ::-1].swapaxes(2, 3) if dense else k[::-1, ::-1]
    qy, qx = kh - 1 - padding, kw - 1 - padding
    gx = _slide(g, flipped, max(qy, 0), max(qx, 0))
    cy, cx = max(-qy, 0), max(-qx, 0)
    gx = np.ascontiguousarray(gx[:, cy : cy + h, cx : cx + w])
    taps, (ho, wo, row) = _tap_view(xb, kh, kw, padding, padding)
    grow = np.zeros((g.shape[0], ho, row, g.shape[-1]), dtype=g.dtype)
    grow[:, :, :wo] = g
    grow = grow.reshape(g.shape[0], ho * row, g.shape[-1])
    if dense:
        cout, cin = g.shape[-1], xb.shape[-1]
        gk = grow.reshape(-1, cout).T @ _tap_rows(taps)
        gk = gk.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2)
    else:
        gk = np.einsum("bnc,byxnc->cyx", grow, taps)
    return gx, np.ascontiguousarray(gk), g.reshape(-1, g.shape[-1]).sum(axis=0)


def _conv(x: Tensor, kernel: Tensor, bias: Tensor, padding: int) -> Tensor:
    """Shared body of :func:`conv2d` and :func:`depthwise_conv2d` once the
    shapes are validated; the kernel's rank selects dense or depthwise.
    A (H, W, C) input runs as a batch of one."""
    xd = x.data
    x_shape = xd.shape
    lead = x_shape[:-3]
    xb = xd.reshape(math.prod(lead), *x_shape[-3:])
    out, k = _conv_forward(xb, kernel.data, bias.data, padding)

    def bwd(g):
        gx, gk, gb = _conv_backward(g.reshape(-1, *g.shape[-3:]), xb, k, padding)
        return gx.reshape(x_shape), gk, gb

    return _emit(out.reshape(*lead, *out.shape[1:]), (x, kernel, bias), bwd)


def _conv_input(x: Tensor, name: str, layout: str) -> None:
    if x.ndim not in (3, 4):
        raise ShapeError(f"{name} expects ({layout}) or (B, {layout}) input, got {x.shape}")


def _check_conv(x: Tensor, kernel: Tensor, bias: Tensor, padding: int, dense: bool) -> None:
    """The shape checks of :func:`conv2d` (``dense``) and
    :func:`depthwise_conv2d`; the kernel's channel axis is -3 in both."""
    name = "conv2d" if dense else "depthwise conv"
    _conv_input(x, name, "H, W, Cin" if dense else "H, W, C")
    xs, ks = x.shape, kernel.shape
    if len(ks) != (4 if dense else 3):
        raise ShapeError(f"{name} expects {'an OIHW' if dense else 'a CHW'} kernel, got {ks}")
    kh, kw = ks[-2:]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"{name} kernel sides must be odd, got {kh}x{kw}")
    if xs[-1] != ks[-3]:
        raise ShapeError(f"{name} channel mismatch: input {xs} vs kernel {ks}")
    if bias.shape != ks[:1]:
        raise ShapeError(f"{name} bias must be ({ks[0]},), got {bias.shape}")
    if padding < 0:
        raise ShapeError(f"{name} padding must be >= 0, got {padding}")
    if xs[-3] + 2 * padding < kh or xs[-2] + 2 * padding < kw:
        raise ShapeError(f"{name} output would be empty for input {xs}, kernel {ks}")


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, padding: int) -> Tensor:
    """Cross-correlation of a channels-last ``x[H,W,Cin]`` or a batch
    ``x[B,H,W,Cin]`` with ``kernel[Cout,Cin,kh,kw]``; returns
    ``[ho,wo,Cout]`` or ``[B,ho,wo,Cout]``.

    Zero padding, odd kernel sides; ``padding=(k-1)//2`` preserves H and W.
    One contraction over taps and input channels of the tap view
    (:func:`_tap_view`).
    """
    _check_conv(x, kernel, bias, padding, dense=True)
    return _conv(x, kernel, bias, padding)


def depthwise_conv2d(x: Tensor, kernel: Tensor, bias: Tensor, padding: int) -> Tensor:
    """Per-channel cross-correlation of a channels-last ``x[H,W,C]`` or a
    batch ``x[B,H,W,C]``: ``kernel[C,kh,kw]`` filters channel c only.
    Returns ``[ho,wo,C]`` or ``[B,ho,wo,C]``.

    Same tap view as :func:`conv2d`, one multiply-add per tap.
    """
    _check_conv(x, kernel, bias, padding, dense=False)
    return _conv(x, kernel, bias, padding)


def channel_pool(x: Tensor, mode: str) -> Tensor:
    """Reduce ``x[C,H,W]`` or ``x[B,C,H,W]`` across channels (axis -3)
    only, to ``[1,H,W]`` or ``[B,1,H,W]``."""
    _conv_input(x, "channel_pool", "C, H, W")
    if mode not in ("avg", "max"):
        raise ConfigError(f"channel_pool mode must be 'avg' or 'max', got {mode!r}")
    _count("elementwise", x.size)
    if mode == "avg":
        c = x.shape[-3]
        data = x.data.sum(axis=-3, keepdims=True) / c

        def bwd_avg(g):
            return (np.broadcast_to(g / c, x.shape).astype(g.dtype, copy=True),)

        return _emit(data, (x,), bwd_avg)

    data = x.data.max(axis=-3, keepdims=True)

    def bwd(g):
        # gradient flows to the first maximal channel per pixel
        idx = np.argmax(x.data, axis=-3)[..., None, :, :]
        gx = np.zeros(x.shape, dtype=g.dtype)
        np.put_along_axis(gx, idx, g, axis=-3)
        return (gx,)

    return _emit(data, (x,), bwd)


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

    def bwd(g):
        p = np.exp(x - lse)
        p[np.arange(b), labels] -= 1.0
        return (g * p / b,)

    return _emit(data, (logits,), bwd)


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
