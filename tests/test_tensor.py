"""Tensor core tests.

Every numeric claim is checked against an independent oracle written in
plain Python loops (or a closed-form identity), never against the library
itself. Gradient claims are checked with central finite differences.
"""

import io
import math
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from winvit import tensor as tc
from winvit.errors import (
    CheckpointError,
    CheckpointMagicError,
    CheckpointTruncatedError,
    ConfigError,
    ContractError,
    ShapeError,
)


# ---------------------------------------------------------------------------
# oracles


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple loop over the last two axes; leading axes iterated explicitly."""
    out = np.zeros(a.shape[:-1] + (b.shape[-1],), dtype=np.float64)
    a2 = a.reshape(-1, a.shape[-2], a.shape[-1])
    b2 = np.broadcast_to(b, a.shape[:-2] + b.shape[-2:]).reshape(
        -1, b.shape[-2], b.shape[-1]
    ) if b.ndim < a.ndim else b.reshape(-1, b.shape[-2], b.shape[-1])
    o2 = out.reshape(-1, out.shape[-2], out.shape[-1])
    for n in range(a2.shape[0]):
        for i in range(a2.shape[1]):
            for j in range(b2.shape[2]):
                s = 0.0
                for k in range(a2.shape[2]):
                    s += float(a2[n, i, k]) * float(b2[n, k, j])
                o2[n, i, j] = s
    return out


def conv2d_oracle(x: np.ndarray, k: np.ndarray, b: np.ndarray, pad: int) -> np.ndarray:
    """Six nested loops, zero padding handled by bounds checks."""
    cout, cin, kh, kw = k.shape
    _, h, w = x.shape
    ho = h + 2 * pad - kh + 1
    wo = w + 2 * pad - kw + 1
    out = np.zeros((cout, ho, wo), dtype=np.float64)
    for co in range(cout):
        for y in range(ho):
            for z in range(wo):
                s = float(b[co])
                for ci in range(cin):
                    for dy in range(kh):
                        for dx in range(kw):
                            yy = y + dy - pad
                            xx = z + dx - pad
                            if 0 <= yy < h and 0 <= xx < w:
                                s += float(k[co, ci, dy, dx]) * float(x[ci, yy, xx])
                out[co, y, z] = s
    return out


def depthwise_oracle(x: np.ndarray, k: np.ndarray, b: np.ndarray, pad: int) -> np.ndarray:
    c, kh, kw = k.shape
    _, h, w = x.shape
    ho = h + 2 * pad - kh + 1
    wo = w + 2 * pad - kw + 1
    out = np.zeros((c, ho, wo), dtype=np.float64)
    for ci in range(c):
        for y in range(ho):
            for z in range(wo):
                s = float(b[ci])
                for dy in range(kh):
                    for dx in range(kw):
                        yy = y + dy - pad
                        xx = z + dx - pad
                        if 0 <= yy < h and 0 <= xx < w:
                            s += float(k[ci, dy, dx]) * float(x[ci, yy, xx])
                out[ci, y, z] = s
    return out


# (H, W), (kh, kw), padding: no padding, "same" padding, padding beyond
# k - 1 (the input gradient is cropped), H != W and a non-square kernel
CONV_CASES = [
    ((6, 5), (3, 3), 0),
    ((6, 5), (3, 3), 1),
    ((5, 4), (3, 3), 3),
    ((4, 6), (3, 5), 2),
    ((5, 7), (3, 5), 0),
]


def _chw(op):
    """The channels-last conv ``op`` on channels-first operands: the input
    goes through CHW -> HWC and the output through HWC -> CHW, so the
    oracles above and their cases apply unchanged."""

    def run(x, kernel, bias, padding):
        k = x.ndim - 3
        hwc = tc.transpose(x, (*range(k), k + 1, k + 2, k))
        return tc.transpose(op(hwc, kernel, bias, padding), (*range(k), k + 2, k, k + 1))

    return run


conv2d_chw = _chw(tc.conv2d)
depthwise_chw = _chw(tc.depthwise_conv2d)


def channel_pool_oracle(x: np.ndarray, mode: str) -> np.ndarray:
    c, h, w = x.shape
    out = np.zeros((1, h, w), dtype=np.float64)
    for y in range(h):
        for z in range(w):
            col = [float(x[ci, y, z]) for ci in range(c)]
            out[0, y, z] = sum(col) / c if mode == "avg" else max(col)
    return out


# ---------------------------------------------------------------------------
# construction and bookkeeping


class TestTensorBasics:
    def test_scalar_tensor_keeps_rank_zero(self):
        t = tc.Tensor(3.5)
        assert t.shape == ()
        assert t.ndim == 0
        assert t.item() == 3.5

    def test_default_dtype_is_float32(self):
        assert tc.zeros((2, 3)).dtype == np.float32

    def test_constructors(self):
        assert np.all(tc.zeros((4,)).data == 0.0)
        assert np.all(tc.ones((4,)).data == 1.0)

    def test_item_rejects_nonscalar(self):
        with pytest.raises(ContractError):
            tc.zeros((2,)).item()

    def test_trunc_normal_respects_bounds(self):
        rng = np.random.default_rng(0)
        for std in (0.02, 0.5, 3.0):
            t = tc.trunc_normal(rng, (200, 50), std=std)
            assert np.abs(t.data).max() <= 2.0 * std
            # the distribution is not degenerate
            assert t.data.std() > 0.5 * std

    def test_python_scalars_as_operands(self):
        a = tc.Tensor(np.arange(4.0))
        np.testing.assert_allclose(tc.add(a, 1.0).data, np.arange(4.0) + 1.0)
        np.testing.assert_allclose(tc.mul(a, 2.0).data, 2.0 * np.arange(4.0))


# ---------------------------------------------------------------------------
# forward oracles


class TestForwardOracles:
    def test_matmul_matches_triple_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m, k, n = rng.integers(1, 5, size=3)
            a = rng.normal(size=(int(m), int(k)))
            b = rng.normal(size=(int(k), int(n)))
            got = tc.matmul(tc.Tensor(a), tc.Tensor(b)).data
            np.testing.assert_allclose(got, matmul_oracle(a, b), rtol=1e-12)

    def test_batched_matmul_matches_loop(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 2, 4, 5))
        b = rng.normal(size=(3, 2, 5, 6))
        got = tc.matmul(tc.Tensor(a), tc.Tensor(b)).data
        np.testing.assert_allclose(got, matmul_oracle(a, b), rtol=1e-12)

    def test_matmul_associativity(self):
        rng = np.random.default_rng(9)
        a = tc.Tensor(rng.normal(size=(6, 7)))
        b = tc.Tensor(rng.normal(size=(7, 8)))
        c = tc.Tensor(rng.normal(size=(8, 5)))
        lhs = tc.matmul(tc.matmul(a, b), c).data
        rhs = tc.matmul(a, tc.matmul(b, c)).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-4)

    def test_conv2d_matches_six_loop(self):
        rng = np.random.default_rng(10)
        for (h, w), (kh, kw), pad in CONV_CASES:
            x = rng.normal(size=(2, h, w))
            k = rng.normal(size=(3, 2, kh, kw))
            b = rng.normal(size=(3,))
            got = conv2d_chw(tc.Tensor(x), tc.Tensor(k), tc.Tensor(b), pad).data
            np.testing.assert_allclose(got, conv2d_oracle(x, k, b, pad), rtol=1e-6, atol=1e-6)

    def test_conv2d_7x7_matches_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 8, 8))
        k = rng.normal(size=(1, 2, 7, 7))
        b = rng.normal(size=(1,))
        got = conv2d_chw(tc.Tensor(x), tc.Tensor(k), tc.Tensor(b), 3).data
        assert got.shape == (1, 8, 8)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, conv2d_oracle(x, k, b, 3), rtol=1e-12, atol=1e-12)

    def test_depthwise_matches_loop(self):
        rng = np.random.default_rng(12)
        for (h, w), (kh, kw), pad in CONV_CASES:
            x = rng.normal(size=(4, h, w))
            k = rng.normal(size=(4, kh, kw))
            b = rng.normal(size=(4,))
            got = depthwise_chw(tc.Tensor(x), tc.Tensor(k), tc.Tensor(b), pad).data
            np.testing.assert_allclose(got, depthwise_oracle(x, k, b, pad), rtol=1e-6, atol=1e-6)

    def test_channel_pool_matches_loop(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 4, 3))
        for mode in ("avg", "max"):
            got = tc.channel_pool(tc.Tensor(x), mode).data
            np.testing.assert_allclose(got, channel_pool_oracle(x, mode), rtol=1e-6)

    def test_take_lastdim_gathers(self):
        table = tc.Tensor(np.arange(12.0).reshape(3, 4))
        idx = np.array([[3, 0], [1, 1]])
        got = tc.take_lastdim(table, idx).data
        expected = np.zeros((3, 2, 2))
        for h in range(3):
            for i in range(2):
                for j in range(2):
                    expected[h, i, j] = table.data[h, idx[i, j]]
        np.testing.assert_array_equal(got, expected)

    def test_reductions_match_numpy(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 4, 5))
        np.testing.assert_allclose(
            tc.reduce_sum(tc.Tensor(x), axes=(0, 2)).data, x.sum(axis=(0, 2)), rtol=1e-12
        )
        np.testing.assert_allclose(
            tc.reduce_mean(tc.Tensor(x), axes=0, keepdims=True).data,
            x.mean(axis=0, keepdims=True),
            rtol=1e-12,
        )
        np.testing.assert_allclose(tc.reduce_sum(tc.Tensor(x)).data, x.sum(), rtol=1e-12)

    def test_gelu_fixed_points(self):
        # gelu(0) = 0 exactly; large positive inputs pass through, large
        # negative inputs vanish
        x = tc.Tensor(np.array([0.0, 10.0, -10.0]))
        y = tc.gelu(x).data
        assert y[0] == 0.0
        np.testing.assert_allclose(y[1], 10.0, atol=1e-6)
        np.testing.assert_allclose(y[2], 0.0, atol=1e-6)


# ---------------------------------------------------------------------------
# erf (the numpy-only one inside gelu)


ERF_GRID = np.linspace(-9.0, 9.0, 200_001)


class TestErf:
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1.2e-7), (np.float64, 1e-15)])
    def test_matches_math_erf(self, dtype, tol):
        x = ERF_GRID.astype(dtype)
        ref = np.array([math.erf(v) for v in x.tolist()])
        assert np.abs(tc._erf(x) - ref).max() <= tol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_odd_with_zero_at_zero(self, dtype):
        x = ERF_GRID.astype(dtype)
        np.testing.assert_array_equal(tc._erf(-x), -tc._erf(x))
        assert tc._erf(np.zeros(1, dtype))[0] == 0.0

    def test_exactly_one_from_six_in_float64(self):
        x = np.array([6.0, 6.5, 9.0, 1e6, 1e300, np.inf])
        np.testing.assert_array_equal(tc._erf(x), np.ones_like(x))
        np.testing.assert_array_equal(tc._erf(-x), -np.ones_like(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (1,), (3, 4), (2, 3, 5)])
    def test_keeps_dtype_and_shape(self, dtype, shape):
        x = np.random.default_rng(60).normal(size=shape).astype(dtype)
        y = tc._erf(x)
        assert y.dtype == dtype
        assert y.shape == shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nonfinite_inputs_raise_no_warning(self, dtype):
        x = np.array([np.nan, np.inf, -np.inf], dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = tc._erf(x)
            y = tc.gelu(tc.Tensor(x)).data
        np.testing.assert_array_equal(e, [np.nan, 1.0, -1.0])
        np.testing.assert_array_equal(y, [np.nan, np.inf, np.nan])

    def test_import_loads_no_scipy(self):
        code = (
            "import sys, winvit, winvit.cli, winvit.checks; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# softmax and sigmoid properties


class TestActivationProperties:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            shape = tuple(int(s) for s in rng.integers(1, 6, size=rng.integers(1, 4)))
            x = rng.normal(scale=5.0, size=shape)
            y = tc.softmax_lastdim(tc.Tensor(x)).data
            np.testing.assert_allclose(y.sum(axis=-1), np.ones(shape[:-1]), atol=1e-6)
            assert (y >= 0).all()

    def test_softmax_is_shift_invariant_and_stable(self):
        # huge logits must not overflow: softmax([1000, 1000.5]) equals
        # softmax([0, 0.5]) by shift invariance
        big = tc.softmax_lastdim(tc.Tensor(np.array([1000.0, 1000.5]))).data
        small = tc.softmax_lastdim(tc.Tensor(np.array([0.0, 0.5]))).data
        assert np.isfinite(big).all()
        np.testing.assert_allclose(big, small, atol=1e-7)

    def test_softmax_orders_like_inputs(self):
        x = np.array([0.3, -1.2, 2.0, 0.3])
        y = tc.softmax_lastdim(tc.Tensor(x)).data
        assert y.argmax() == x.argmax()

    def test_sigmoid_identities(self):
        rng = np.random.default_rng(22)
        x = rng.normal(scale=4.0, size=(50,))
        s = tc.sigmoid(tc.Tensor(x)).data
        # symmetry sigma(-x) = 1 - sigma(x)
        s_neg = tc.sigmoid(tc.Tensor(-x)).data
        np.testing.assert_allclose(s + s_neg, np.ones_like(x), atol=1e-7)
        assert ((s > 0) & (s < 1)).all()
        # stability at extremes
        ext = tc.sigmoid(tc.Tensor(np.array([-500.0, 500.0]))).data
        assert np.isfinite(ext).all()
        np.testing.assert_allclose(ext, [0.0, 1.0], atol=1e-12)

    def test_sigmoid_bits_match_masked_formula(self):
        # the sign-split formula with boolean-mask scatters, as a reference
        def masked(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 100.0, -100.0, 1e-30, -1e-30, 88.7, -88.7]
        rng = np.random.default_rng(24)
        for dtype in (np.float32, np.float64):
            x = np.concatenate([special, rng.normal(scale=20.0, size=500)]).astype(dtype)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = tc.sigmoid(tc.Tensor(x)).data
            assert got.dtype == dtype
            np.testing.assert_array_equal(got.view(f"u{x.itemsize}"), masked(x).view(f"u{x.itemsize}"))

    def test_layernorm_normalizes(self):
        rng = np.random.default_rng(23)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 16))
        g = tc.ones((16,), dtype=np.float64)
        b = tc.zeros((16,), dtype=np.float64)
        y = tc.layernorm_lastdim(tc.Tensor(x), g, b).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)

    def test_cross_entropy_uniform_and_peaked(self):
        # uniform logits give ln(K); a huge correct-class margin gives ~0
        k = 5
        logits = tc.zeros((2, k), dtype=np.float64)
        loss = tc.cross_entropy_logits(logits, np.array([1, 3]))
        np.testing.assert_allclose(loss.item(), np.log(k), rtol=1e-12)
        peaked = np.zeros((1, k))
        peaked[0, 2] = 50.0
        loss2 = tc.cross_entropy_logits(tc.Tensor(peaked), np.array([2]))
        assert loss2.item() < 1e-12

    def test_cross_entropy_matches_direct_formula(self):
        rng = np.random.default_rng(24)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        got = tc.cross_entropy_logits(tc.Tensor(logits), labels).item()
        total = 0.0
        for i in range(6):
            row = logits[i]
            p = np.exp(row - row.max())
            p = p / p.sum()
            total -= np.log(p[labels[i]])
        np.testing.assert_allclose(got, total / 6, rtol=1e-6)

    def test_cross_entropy_stable_at_huge_logits(self):
        logits = tc.Tensor(np.array([[1000.0, 1000.5]]))
        loss = tc.cross_entropy_logits(logits, np.array([0]))
        assert np.isfinite(loss.item())


# ---------------------------------------------------------------------------
# dropout


class TestDropout:
    def test_same_seed_same_mask(self):
        x = tc.ones((64,))
        a = tc.dropout(x, 0.5, np.random.default_rng(3)).data
        b = tc.dropout(x, 0.5, np.random.default_rng(3)).data
        np.testing.assert_array_equal(a, b)

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(4)
        x = tc.ones((20000,))
        y = tc.dropout(x, 0.3, rng).data
        kept = y[y != 0]
        np.testing.assert_allclose(kept[0], 1.0 / 0.7, rtol=1e-6)
        np.testing.assert_allclose(y.mean(), 1.0, atol=0.02)

    def test_rate_zero_is_identity(self):
        x = tc.ones((8,))
        assert tc.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_rate_out_of_range(self):
        x = tc.ones((8,))
        with pytest.raises(ConfigError):
            tc.dropout(x, 1.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            tc.dropout(x, -0.1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# autodiff


def _fd_single(op, shapes, seed, tol=2e-3, make_loss=None):
    """Finite-difference check for one op over float64 inputs."""
    rng = np.random.default_rng(seed)
    params = [tc.Tensor(rng.normal(size=s).astype(np.float64)) for s in shapes]

    def loss_fn():
        out = op(*params)
        if make_loss is not None:
            return make_loss(out)
        w = tc.Tensor(np.linspace(0.5, 1.5, out.size).reshape(out.shape))
        return tc.reduce_sum(tc.mul(out, w))

    err = tc.finite_difference_check(loss_fn, params, eps=1e-5)
    assert err < tol, f"finite difference error {err:.3e}"


class TestGradients:
    def test_add_mul_grads(self):
        _fd_single(lambda a, b: tc.add(tc.mul(a, b), a), [(3, 4), (3, 4)], seed=31)

    def test_broadcast_grads(self):
        _fd_single(lambda a, b: tc.add(a, b), [(3, 4), (4,)], seed=32)

    def test_matmul_grads(self):
        _fd_single(tc.matmul, [(3, 4), (4, 2)], seed=33)

    def test_batched_matmul_grads(self):
        _fd_single(tc.matmul, [(2, 3, 4), (2, 4, 2)], seed=34)
        # a 2-D right operand shared by every matrix of a batched left one
        _fd_single(tc.matmul, [(2, 2, 3, 4), (4, 2)], seed=350)

    def test_reshape_transpose_grads(self):
        _fd_single(
            lambda a: tc.transpose(tc.reshape(a, (2, 6)), (1, 0)), [(3, 4)], seed=35
        )

    def test_concat_stack_grads(self):
        _fd_single(lambda a, b: tc.concat([a, b], axis=1), [(2, 3), (2, 2)], seed=36)
        _fd_single(lambda a, b: tc.stack([a, b]), [(2, 3), (2, 3)], seed=37)

    def test_take_lastdim_grads_accumulate(self):
        # repeated indices must scatter-add, not overwrite
        idx = np.array([[0, 0], [1, 0]])
        _fd_single(lambda t: tc.take_lastdim(t, idx), [(2, 3)], seed=38)

    def test_take_lastdim_grad_is_per_row_scatter_add(self):
        rng = np.random.default_rng(380)
        table = tc.Tensor(rng.normal(size=(2, 3, 5)))
        idx = rng.integers(0, 5, size=(4, 4))
        weights = rng.normal(size=(2, 3, 4, 4))
        with tc.Tape() as tape:
            loss = tc.reduce_sum(tc.mul(tc.take_lastdim(table, idx), tc.Tensor(weights)))
            got = tc.backward(loss, tape)[table]
        expected = np.zeros((2, 3, 5))
        for a in range(2):
            for b in range(3):
                for i, j in np.ndindex(4, 4):
                    expected[a, b, idx[i, j]] += weights[a, b, i, j]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_reduce_grads(self):
        _fd_single(lambda a: tc.reduce_sum(a, axes=1), [(3, 4)], seed=39)
        _fd_single(lambda a: tc.reduce_mean(a, axes=(0, 1)), [(3, 4)], seed=40)
        _fd_single(lambda a: tc.reduce_mean(a), [(3, 4)], seed=41)

    def test_activation_grads(self):
        _fd_single(tc.sigmoid, [(3, 4)], seed=42)
        _fd_single(tc.gelu, [(3, 4)], seed=43)
        _fd_single(tc.softmax_lastdim, [(3, 4)], seed=44)

    def test_layernorm_grads(self):
        _fd_single(tc.layernorm_lastdim, [(3, 8), (8,), (8,)], seed=45)

    def test_conv_grads(self):
        for i, ((h, w), (kh, kw), pad) in enumerate(CONV_CASES):
            _fd_single(
                lambda x, k, b: conv2d_chw(x, k, b, pad),
                [(2, h, w), (2, 2, kh, kw), (2,)],
                seed=460 + i,
            )
            _fd_single(
                lambda x, k, b: depthwise_chw(x, k, b, pad),
                [(3, h, w), (3, kh, kw), (3,)],
                seed=470 + i,
            )
        # the spatial gate's shape: [avg; max] pool, one 7x7 filter
        _fd_single(lambda x, k, b: conv2d_chw(x, k, b, 3), [(2, 8, 8), (1, 2, 7, 7), (1,)], seed=46)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_keeps_dtype_and_contiguous_grads(self, dtype):
        rng = np.random.default_rng(47)
        # channels-last inputs, so the input gradient is the conv's own
        cases = [
            (tc.conv2d, (5, 7, 2), (3, 2, 3, 5), 2),
            (tc.depthwise_conv2d, (5, 7, 3), (3, 3, 5), 3),
        ]
        for op, x_shape, k_shape, pad in cases:
            x = tc.Tensor(rng.normal(size=x_shape).astype(dtype))
            k = tc.Tensor(rng.normal(size=k_shape).astype(dtype))
            b = tc.Tensor(rng.normal(size=k_shape[:1]).astype(dtype))
            with tc.Tape() as tape:
                out = op(x, k, b, pad)
                loss = tc.reduce_sum(out)
                grads = tc.backward(loss, tape)
            assert out.dtype == dtype
            for t in (x, k, b):
                assert grads[t].dtype == dtype
                assert grads[t].shape == t.shape
            assert grads[x].flags.c_contiguous

    def test_channel_pool_grads(self):
        _fd_single(lambda x: tc.channel_pool(x, "avg"), [(3, 4, 4)], seed=48)
        _fd_single(lambda x: tc.channel_pool(x, "max"), [(3, 4, 4)], seed=49)

    def test_cross_entropy_grads(self):
        labels = np.array([1, 0, 2])
        _fd_single(
            lambda l: tc.cross_entropy_logits(l, labels),
            [(3, 4)],
            seed=50,
            make_loss=lambda out: out,
        )

    def test_softmax_vjp_matches_jacobian(self):
        # explicit jacobian: J[i,j] = y_i (delta_ij - y_j)
        rng = np.random.default_rng(51)
        x = rng.normal(size=(5,))
        g = rng.normal(size=(5,))
        with tc.Tape() as tape:
            xt = tc.Tensor(x)
            y = tc.softmax_lastdim(xt)
            loss = tc.reduce_sum(tc.mul(y, tc.Tensor(g)))
        grads = tc.backward(loss, tape)
        yv = y.data
        jac = np.diag(yv) - np.outer(yv, yv)
        np.testing.assert_allclose(grads[xt], jac.T @ g, rtol=1e-6)

    def test_fanout_gradients_accumulate(self):
        # y = x*x via two consumers of the same tensor: dy/dx = 2x
        x = tc.Tensor(np.array([3.0]))
        with tc.Tape() as tape:
            loss = tc.reduce_sum(tc.mul(x, x))
        grads = tc.backward(loss, tape)
        np.testing.assert_allclose(grads[x], [6.0])

    def test_dropout_grads_match_mask(self):
        x = tc.Tensor(np.ones(32))
        with tc.Tape() as tape:
            y = tc.dropout(x, 0.5, np.random.default_rng(5))
            loss = tc.reduce_sum(y)
        grads = tc.backward(loss, tape)
        # gradient is the same scaled mask applied in the forward pass
        np.testing.assert_array_equal(grads[x], y.data)

    def test_backward_rejects_nonscalar_loss(self):
        with tc.Tape() as tape:
            y = tc.mul(tc.ones((3,)), tc.ones((3,)))
        with pytest.raises(ContractError):
            tc.backward(y, tape)

    def test_backward_rejects_foreign_loss(self):
        with tc.Tape() as tape:
            tc.mul(tc.ones((3,)), tc.ones((3,)))
        with tc.Tape() as other:
            loss = tc.reduce_sum(tc.ones((3,)))
        with pytest.raises(ContractError):
            tc.backward(loss, tape)

    def test_backward_rejects_a_gradient_count_unlike_the_inputs(self):
        a, b = tc.ones((3,)), tc.ones((3,))
        with tc.Tape() as tape:
            y = tc._emit(a.data + b.data, (a, b), lambda g: (g,))
            loss = tc.reduce_sum(y)
        with pytest.raises(ContractError, match="1 gradients for 2 inputs"):
            tc.backward(loss, tape)

    def test_no_tape_records_nothing(self):
        t = tc.Tape()
        with t:
            pass
        before = len(t)
        tc.mul(tc.ones((3,)), tc.ones((3,)))
        assert len(t) == before

    def test_nested_tapes_record_independently(self):
        with tc.Tape() as outer:
            tc.neg(tc.ones((2,)))
            with tc.Tape() as inner:
                tc.neg(tc.ones((2,)))
            tc.neg(tc.ones((2,)))
        # ops record on the innermost tape only
        assert len(inner) == 1
        assert len(outer) == 2


# ---------------------------------------------------------------------------
# flop counting


class TestFlopCounter:
    def test_matmul_flops_are_two_mn_k(self):
        a = tc.ones((3, 4))
        b = tc.ones((4, 5))
        with tc.FlopCounter() as fc:
            tc.matmul(a, b)
        assert fc.mac_flops == 2 * 3 * 5 * 4

    def test_counter_additivity(self):
        a = tc.ones((3, 4))
        b = tc.ones((4, 5))
        with tc.FlopCounter() as fc:
            tc.matmul(a, b)
            tc.matmul(a, b)
        with tc.FlopCounter() as single:
            tc.matmul(a, b)
        assert fc.total_flops == 2 * single.total_flops

    def test_softmax_and_elementwise_categories(self):
        x = tc.ones((2, 8))
        with tc.FlopCounter() as fc:
            tc.softmax_lastdim(x)
            tc.add(x, x)
        assert fc.softmax_flops == 5 * 16
        assert fc.elementwise_flops == 16
        assert fc.total_flops == 5 * 16 + 16

    def test_scope_labels_attribute_flops(self):
        a = tc.ones((2, 2))
        with tc.FlopCounter() as fc:
            with tc.flop_scope("first"):
                tc.matmul(a, a)
            with tc.flop_scope("second"):
                tc.matmul(a, a)
                tc.matmul(a, a)
        assert fc.scope_flops("second") == 2 * fc.scope_flops("first")
        assert fc.scope_flops("first", "mac") == 2 * 2 * 2 * 2

    def test_nested_counters_both_count(self):
        a = tc.ones((2, 3))
        with tc.FlopCounter() as outer:
            with tc.FlopCounter() as inner:
                tc.add(a, a)
        assert inner.total_flops == 6
        assert outer.total_flops == 6

    def test_conv_flops_formula(self):
        x = tc.ones((2, 5, 5))
        k = tc.ones((3, 2, 3, 3))
        b = tc.zeros((3,))
        with tc.FlopCounter() as fc:
            conv2d_chw(x, k, b, 1)
        assert fc.mac_flops == 2 * 3 * 5 * 5 * 2 * 3 * 3


# ---------------------------------------------------------------------------
# batch axis


def _batch_vs_samples(op, x, params, seed):
    """Run ``op`` on the batch ``x[B, ...]`` and on each sample alone, in
    float64 and under a tape. Returns (output, input gradient, parameter
    gradients) of a weighted sum for the batch, and the same stacked over
    the samples with the parameter gradients summed."""
    xt = tc.Tensor(x)
    ps = [tc.Tensor(p) for p in params]
    weights = np.random.default_rng(seed).normal(size=op(xt, *ps).shape)

    def run(inp, w):
        with tc.Tape() as tape:
            out = op(inp, *ps)
            loss = tc.reduce_sum(tc.mul(out, tc.Tensor(w)))
            grads = tc.backward(loss, tape)
        return out.data, grads[inp], [grads[p] for p in ps]

    batched = run(xt, weights)
    per_sample = [run(tc.Tensor(x[i]), weights[i]) for i in range(x.shape[0])]
    outs, gxs, gps = zip(*per_sample)
    return batched, (np.stack(outs), np.stack(gxs), [sum(g) for g in zip(*gps)])


class TestBatchAxis:
    """A (B, C, H, W) input is B (C, H, W) inputs evaluated in one op."""

    def test_conv_batch_matches_per_sample(self):
        rng = np.random.default_rng(480)
        for i, ((h, w), (kh, kw), pad) in enumerate(CONV_CASES):
            cases = [
                (conv2d_chw, (3, 2, kh, kw)),
                (depthwise_chw, (2, kh, kw)),
            ]
            for op, k_shape in cases:
                x = rng.normal(size=(3, 2, h, w))
                params = [rng.normal(size=k_shape), rng.normal(size=k_shape[:1])]
                batched, single = _batch_vs_samples(
                    lambda x, k, b: op(x, k, b, pad), x, params, seed=490 + i
                )
                assert batched[0].shape == single[0].shape
                for got, want in zip(batched[:2] + tuple(batched[2]), single[:2] + tuple(single[2])):
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_channel_pool_batch_matches_per_sample(self):
        rng = np.random.default_rng(481)
        x = rng.normal(size=(4, 5, 3, 6))
        for mode in ("avg", "max"):
            batched, single = _batch_vs_samples(lambda x: tc.channel_pool(x, mode), x, [], seed=482)
            assert batched[0].shape == (4, 1, 3, 6)
            np.testing.assert_allclose(batched[0], single[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(batched[1], single[1], rtol=0, atol=1e-12)

    def test_conv_of_empty_plane_is_bias_only(self):
        # Tensor() rejects an empty axis, but an array assigned to .data is
        # not checked; padding then leaves a non-empty output of pure bias.
        # The shapes are channels-last: a transpose op rejects an empty axis.
        cases = [(tc.conv2d, (2, 3, 3, 3)), (tc.depthwise_conv2d, (3, 3, 3))]
        for op, k_shape in cases:
            for shape in ((0, 5, 3), (5, 0, 3), (2, 0, 5, 3)):
                x = tc.ones((1,) * len(shape))
                x.data = np.zeros(shape)
                kernel = tc.ones(k_shape, np.float64)
                bias = tc.Tensor(np.arange(k_shape[0], dtype=np.float64))
                with tc.Tape() as tape:
                    y = op(x, kernel, bias, 2)
                    loss = tc.reduce_sum(tc.mul(y, y))
                np.testing.assert_array_equal(y.data, np.broadcast_to(bias.data, y.shape))
                grads = tc.backward(loss, tape)
                assert grads[x].shape == shape
                np.testing.assert_array_equal(grads[kernel], np.zeros(k_shape))
                np.testing.assert_array_equal(grads[bias], 2 * y.data.sum(axis=tuple(range(y.ndim - 1))))

    def test_desk_depthwise_does_not_copy_every_tap(self):
        # A copy of all 9 taps alone would be 9x the input; the tap view
        # keeps a desk-shaped forward plus backward near 6x.
        rng = np.random.default_rng(483)
        x = tc.Tensor(rng.normal(size=(8, 8, 8, 256)).astype(np.float32))
        kernel = tc.Tensor(rng.normal(size=(256, 3, 3)).astype(np.float32))
        bias = tc.zeros((256,))
        tracemalloc.start()
        try:
            with tc.Tape() as tape:
                y = tc.depthwise_conv2d(x, kernel, bias, 1)
                tc.backward(tc.reduce_sum(y), tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * x.data.nbytes, f"peak {peak / x.data.nbytes:.1f}x the input"

    def test_tap_view_is_read_only_and_checks_overrun(self):
        x = np.arange(2 * 3 * 4 * 2, dtype=np.float64).reshape(2, 3, 4, 2)
        taps, (ho, wo, row) = tc._tap_view(x, 3, 3, 1, 1)
        assert (ho, wo, row) == (3, 4, 6)
        assert not taps.flags.writeable
        with pytest.raises(ValueError):
            taps[0, 0, 0, 0, 0] = 1.0
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        for dy in range(3):
            for dx in range(3):
                tap = taps[:, dy, dx].reshape(2, ho, row, 2)[:, :, :wo]
                np.testing.assert_array_equal(tap, padded[:, dy : dy + ho, dx : dx + wo])
        # a kernel wider than a padded row plus the spare row would read
        # past the buffer
        with pytest.raises(ShapeError):
            tc._tap_view(np.zeros((1, 3, 1, 1)), 1, 5, 0, 0)

    def test_rank_outside_3_or_4_rejected(self):
        for shape in ((5, 5), (1, 1, 2, 5, 5)):
            with pytest.raises(ShapeError):
                tc.conv2d(tc.ones(shape), tc.ones((1, 2, 3, 3)), tc.zeros((1,)), 1)
            with pytest.raises(ShapeError):
                tc.channel_pool(tc.ones(shape), "max")


class TestDispatch:
    """The constructor keeps valid op results as they are and converts or
    rejects everything else; the reductions without numpy's wrappers still
    match them bit for bit."""

    def test_valid_array_is_kept_without_copy(self):
        for dtype in (np.float32, np.float64):
            arr = np.ones((2, 3), dtype=dtype)
            assert tc.Tensor(arr).data is arr

    def test_other_inputs_are_converted(self):
        base = np.arange(12.0).reshape(3, 4)
        cases = [
            (base.T, np.float64),  # not C-contiguous
            (base[:, ::2], np.float64),
            (np.arange(6).reshape(2, 3), np.float32),  # integer
            (base.astype(">f8"), np.float64),  # not native byte order
            (base.astype(">f4"), np.float32),
            ([[1.0, 2.0]], np.float64),
            (np.float64(2.5), np.float64),
        ]
        for values, dtype in cases:
            t = tc.Tensor(values)
            assert type(t.data) is np.ndarray
            assert t.data.flags.c_contiguous and t.dtype.isnative
            assert t.dtype == dtype
            np.testing.assert_array_equal(t.data, np.asarray(values))
        assert tc.Tensor(base, dtype=np.float32).dtype == np.float32
        assert tc.Tensor(np.float64(2.5)).shape == ()

    def test_empty_axis_rejected_on_every_path(self):
        for values in (np.zeros((0, 3)), np.zeros((2, 0), np.float32), np.zeros((3, 0)).T, []):
            with pytest.raises(ShapeError):
                tc.Tensor(values)

    def test_take_lastdim_with_empty_index_raises(self):
        table = tc.Tensor(np.arange(6.0).reshape(2, 3))
        with pytest.raises(ShapeError):
            tc.take_lastdim(table, np.array([], dtype=np.intp))

    def test_full_reductions_are_rank_zero(self):
        for dtype in (np.float32, np.float64):
            x = tc.Tensor(np.arange(1.0, 7.0, dtype=dtype).reshape(2, 3))
            for t in (tc.reduce_sum(x), tc.reduce_mean(x),
                      tc.cross_entropy_logits(x, np.array([0, 2]))):
                assert t.shape == () and t.dtype == dtype
                assert type(t.data) is np.ndarray

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_normalizations_bit_equal_numpy_mean_and_var(self, dtype):
        rng = np.random.default_rng(77)
        for shape in ((7,), (3, 5), (2, 16, 64), (4, 4, 257)):
            for scale, shift in ((1e-3, 0.0), (1.0, 3.0), (1e3, -50.0)):
                x = (rng.normal(size=shape) * scale + shift).astype(dtype)
                g = rng.normal(size=shape[-1]).astype(dtype)
                b = rng.normal(size=shape[-1]).astype(dtype)
                mu = x.mean(axis=-1, keepdims=True)
                inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
                got = tc.layernorm_lastdim(tc.Tensor(x), tc.Tensor(g), tc.Tensor(b)).data
                np.testing.assert_array_equal(got, (x - mu) * inv * g + b)
                for axes in (None, -1, 0, tuple(range(len(shape)))):
                    for keepdims in (False, True):
                        got = tc.reduce_mean(tc.Tensor(x), axes=axes, keepdims=keepdims).data
                        want = x.mean(axis=axes, keepdims=keepdims)
                        assert got.dtype == want.dtype
                        np.testing.assert_array_equal(got, want)
                if len(shape) >= 3:
                    got = tc.channel_pool(tc.Tensor(x), "avg").data
                    np.testing.assert_array_equal(got, x.mean(axis=-3, keepdims=True))


# ---------------------------------------------------------------------------
# serialization


class TestTensorSerialization:
    def test_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(61)
        for shape in [(), (5,), (3, 4), (2, 3, 4, 5)]:
            for dtype in (np.float32, np.float64):
                t = tc.Tensor(rng.normal(size=shape).astype(dtype))
                buf = io.BytesIO()
                tc.write_tensor(t, buf)
                buf.seek(0)
                back = tc.read_tensor(buf)
                assert back.dtype == t.dtype
                assert back.shape == t.shape
                np.testing.assert_array_equal(back.data, t.data)

    def test_bad_magic_raises(self):
        buf = io.BytesIO(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CheckpointMagicError):
            tc.read_tensor(buf)

    def test_truncated_payload_raises(self):
        t = tc.Tensor(np.arange(6.0).reshape(2, 3))
        buf = io.BytesIO()
        tc.write_tensor(t, buf)
        raw = buf.getvalue()
        for cut in (5, 8, 12, len(raw) - 1):
            with pytest.raises(CheckpointTruncatedError):
                tc.read_tensor(io.BytesIO(raw[:cut]))

    def test_header_layout(self):
        t = tc.Tensor(np.zeros((2, 3), dtype=np.float32))
        buf = io.BytesIO()
        tc.write_tensor(t, buf)
        raw = buf.getvalue()
        assert raw[:4] == b"WMHT"
        rank, width = struct.unpack("<IB", raw[4:9])
        assert (rank, width) == (2, 4)
        assert struct.unpack("<2Q", raw[9:25]) == (2, 3)
        assert len(raw) == 25 + 6 * 4

    @pytest.mark.parametrize("rank, dims", [(2, (2**40, 2**40)), (2, (2**63, 3)), (2**31, ())])
    def test_oversized_header_rejected_before_reading(self, rank, dims):
        raw = b"WMHT" + struct.pack("<IB", rank, 4) + struct.pack(f"<{len(dims)}Q", *dims) + b"\x00" * 8
        with pytest.raises(CheckpointTruncatedError):
            tc.read_tensor(io.BytesIO(raw))

    def test_empty_axis_rejected(self):
        raw = b"WMHT" + struct.pack("<IB", 2, 4) + struct.pack("<2Q", 0, 2**40)
        with pytest.raises(CheckpointError):
            tc.read_tensor(io.BytesIO(raw))

    def test_unsupported_width_rejected(self):
        raw = b"WMHT" + struct.pack("<IB", 1, 2) + struct.pack("<Q", 1) + b"\x00\x00"
        with pytest.raises(CheckpointMagicError):
            tc.read_tensor(io.BytesIO(raw))


# ---------------------------------------------------------------------------
# debug facilities


class TestDebugFacilities:
    def test_shape_errors_name_the_problem(self):
        with pytest.raises(ShapeError):
            tc.matmul(tc.ones((2, 3)), tc.ones((4, 5)))
        with pytest.raises(ShapeError):
            tc.conv2d(tc.ones((2, 4, 4)), tc.ones((1, 2, 2, 2)), tc.zeros((1,)), 0)
        with pytest.raises(ShapeError):
            tc.channel_pool(tc.ones((4, 4)), "avg")
        with pytest.raises(ConfigError):
            tc.channel_pool(tc.ones((1, 4, 4)), "median")
