"""Windowed multi-head attention tests.

The reference implementation used throughout is a deliberately slow
per-pair loop (one dot product at a time, float64) so that the vectorized
library path is checked against arithmetic spelled out token by token.
"""

import math

import numpy as np
import pytest

from winvit import attention
from winvit import tensor as tc
from winvit.attention import (
    WindowAttentionParams,
    WindowGeometry,
    build_bias_index,
    global_mha_forward,
    window_merge,
    window_mha_forward,
    window_partition,
)
from winvit.errors import ConfigError, ContractError, GeometryError, ShapeError


# ---------------------------------------------------------------------------
# oracle


def attention_oracle(x, wq, bq, wk, bk, wv, bv, wo, bo, heads, bias=None):
    """One (T, C) token block, per-pair loops, float64 throughout.

    ``bias`` is an optional (heads, T, T) additive term on the raw scores.
    """
    t, c = x.shape
    d = c // heads
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    out_heads = []
    for h in range(heads):
        qs = q[:, h * d : (h + 1) * d]
        ks = k[:, h * d : (h + 1) * d]
        vs = v[:, h * d : (h + 1) * d]
        scores = np.zeros((t, t))
        for i in range(t):
            for j in range(t):
                s = 0.0
                for e in range(d):
                    s += qs[i, e] * ks[j, e]
                scores[i, j] = s / math.sqrt(d)
                if bias is not None:
                    scores[i, j] += bias[h, i, j]
        weights = np.zeros((t, t))
        for i in range(t):
            row = np.exp(scores[i] - scores[i].max())
            weights[i] = row / row.sum()
        zh = np.zeros((t, d))
        for i in range(t):
            for e in range(d):
                zh[i, e] = sum(weights[i, j] * vs[j, e] for j in range(t))
        out_heads.append(zh)
    z = np.concatenate(out_heads, axis=1)
    return z @ wo + bo


def params_to_f64(p: WindowAttentionParams):
    """Pull the weight arrays out as float64 for the oracle."""
    return {
        "wq": p.w_q.data.astype(np.float64),
        "bq": p.b_q.data.astype(np.float64),
        "wk": p.w_k.data.astype(np.float64),
        "bk": p.b_k.data.astype(np.float64),
        "wv": p.w_v.data.astype(np.float64),
        "bv": p.b_v.data.astype(np.float64),
        "wo": p.w_o.data.astype(np.float64),
        "bo": p.b_o.data.astype(np.float64),
    }


def expanded_bias(p: WindowAttentionParams) -> np.ndarray:
    """(heads, M^2, M^2) bias gathered from the table by the index map."""
    idx = p.bias_index
    return p.bias_table.data[:, idx].astype(np.float64)


# ---------------------------------------------------------------------------
# geometry


class TestWindowGeometry:
    def test_valid_geometry(self):
        g = WindowGeometry(8, 8, 4)
        assert g.n_windows == 4
        assert g.tokens_per_window == 16

    def test_indivisible_sides_rejected(self):
        for h, w, m in [(7, 8, 4), (8, 7, 4), (6, 6, 4), (8, 8, 3)]:
            with pytest.raises(GeometryError):
                WindowGeometry(h, w, m)

    def test_nonpositive_rejected(self):
        for h, w, m in [(0, 8, 4), (8, 0, 4), (8, 8, 0), (8, 8, -2)]:
            with pytest.raises(GeometryError):
                WindowGeometry(h, w, m)


class TestWindowPartition:
    def test_4x4_window2_enumeration(self):
        # tokens numbered row-major; each window must hold its own 2x2 patch
        x = tc.Tensor(np.arange(16.0).reshape(4, 4, 1))
        w = window_partition(x, 2).data[..., 0]
        expected = np.array(
            [
                [0, 1, 4, 5],
                [2, 3, 6, 7],
                [8, 9, 12, 13],
                [10, 11, 14, 15],
            ],
            dtype=np.float64,
        )
        np.testing.assert_array_equal(w, expected)

    def test_partition_merge_roundtrip_all_geometries(self):
        rng = np.random.default_rng(71)
        cases = 0
        for h in range(1, 17):
            for w in range(1, 17):
                for m in range(1, min(h, w) + 1):
                    if h % m or w % m:
                        continue
                    cases += 1
                    x = tc.Tensor(rng.normal(size=(h, w, 3)))
                    geom = WindowGeometry(h, w, m)
                    back = window_merge(window_partition(x, m), geom)
                    np.testing.assert_array_equal(back.data, x.data)
        assert cases > 300

    def test_window_isolation(self):
        # zeroing everything outside one window leaves exactly one
        # nonzero window after partitioning
        x = np.zeros((8, 8, 2))
        x[4:8, 0:4] = 1.0
        w = window_partition(tc.Tensor(x), 4).data
        nonzero = [i for i in range(4) if np.abs(w[i]).sum() > 0]
        assert nonzero == [2]
        assert np.all(w[2] == 1.0)

    def test_partition_rejects_bad_shapes(self):
        with pytest.raises(GeometryError):
            window_partition(tc.Tensor(np.zeros((6, 8, 2))), 4)
        with pytest.raises(ShapeError):
            window_partition(tc.Tensor(np.zeros((8, 8))), 4)

    def test_batched_partition_merge_roundtrip(self):
        rng = np.random.default_rng(73)
        for b in (1, 3):
            for h, w, m in ((4, 4, 2), (6, 4, 2), (6, 9, 3), (5, 5, 5)):
                geom = WindowGeometry(h, w, m)
                x = tc.Tensor(rng.normal(size=(b, h, w, 3)))
                windows = window_partition(x, m)
                assert windows.shape == (b * geom.n_windows, m * m, 3)
                # image-major: image i's tiles are exactly its own partition
                for i in range(b):
                    one = window_partition(tc.Tensor(x.data[i]), m)
                    rows = slice(i * geom.n_windows, (i + 1) * geom.n_windows)
                    np.testing.assert_array_equal(windows.data[rows], one.data)
                back = window_merge(windows, geom)
                assert back.shape == ((b, h, w, 3) if b > 1 else (h, w, 3))
                np.testing.assert_array_equal(back.data.reshape(x.shape), x.data)

    def test_merge_rejects_partial_image(self):
        geom = WindowGeometry(4, 4, 2)
        windows = window_partition(tc.Tensor(np.zeros((2, 4, 4, 3))), 2)
        with pytest.raises(GeometryError):
            window_merge(tc.Tensor(windows.data[:-1]), geom)

    def test_gradients_are_the_inverse_regrouping(self):
        # partition and merge permute entries, so each one's gradient is
        # the other applied to the output gradient, bit for bit
        rng = np.random.default_rng(74)
        for b, h, w, m in ((1, 4, 6, 2), (3, 6, 9, 3), (2, 2, 8, 2), (1, 6, 3, 3)):
            geom = WindowGeometry(h, w, m)
            x = tc.Tensor(rng.normal(size=(b, h, w, 3) if b > 1 else (h, w, 3)))
            windows = tc.Tensor(rng.normal(size=(b * geom.n_windows, m * m, 3)))
            with tc.Tape() as tape:
                loss = tc.reduce_sum(tc.mul(window_partition(x, m), windows))
            grad = tc.backward(loss, tape)[x]
            np.testing.assert_array_equal(grad, window_merge(windows, geom).data)
            with tc.Tape() as tape:
                loss = tc.reduce_sum(tc.mul(window_merge(windows, geom), x))
            grad = tc.backward(loss, tape)[windows]
            np.testing.assert_array_equal(grad, window_partition(x, m).data)

    def test_partition_is_differentiable(self):
        x = tc.Tensor(np.random.default_rng(72).normal(size=(4, 4, 2)))

        def loss_fn():
            w = window_partition(x, 2)
            geom = WindowGeometry(4, 4, 2)
            back = window_merge(w, geom)
            return tc.reduce_sum(tc.mul(back, back))

        err = tc.finite_difference_check(loss_fn, [x], eps=1e-5)
        assert err < 1e-4


# ---------------------------------------------------------------------------
# displacement bias index


class TestBiasIndex:
    def test_window1_is_single_zero(self):
        idx = build_bias_index(1)
        assert idx.shape == (1, 1)
        assert idx[0, 0] == 0

    def test_window2_diagonal_and_range(self):
        idx = build_bias_index(2)
        assert idx.shape == (4, 4)
        # zero displacement maps to the table center (M-1)*(2M-1)+(M-1) = 4
        for i in range(4):
            assert idx[i, i] == 4
        assert idx.min() >= 0
        assert idx.max() <= (2 * 2 - 1) ** 2 - 1

    def test_every_displacement_appears(self):
        for m in range(1, 5):
            idx = build_bias_index(m)
            assert idx.shape == (m * m, m * m)
            assert len(np.unique(idx)) == (2 * m - 1) ** 2

    def test_index_depends_only_on_displacement(self):
        # pairs with equal (row delta, col delta) share a table slot
        m = 3
        idx = build_bias_index(m)
        pos = [(r, c) for r in range(m) for c in range(m)]
        slots = {}
        for i, (ri, ci) in enumerate(pos):
            for j, (rj, cj) in enumerate(pos):
                key = (ri - rj, ci - cj)
                if key in slots:
                    assert slots[key] == idx[i, j]
                else:
                    slots[key] = idx[i, j]

    def test_swap_maps_to_mirror_slot(self):
        # index(i, j) and index(j, i) correspond to opposite displacements
        m = 3
        idx = build_bias_index(m)
        side = 2 * m - 1
        for i in range(m * m):
            for j in range(m * m):
                a = idx[i, j]
                b = idx[j, i]
                ar, ac = divmod(a, side)
                br, bc = divmod(b, side)
                assert ar + br == 2 * (m - 1)
                assert ac + bc == 2 * (m - 1)


# ---------------------------------------------------------------------------
# parameter container


class TestWindowAttentionParams:
    def test_param_count_closed_form(self):
        for c, h, m in [(8, 2, 2), (64, 4, 4), (96, 3, 7)]:
            p = WindowAttentionParams(c, h, m)
            assert p.param_count() == 4 * c * c + 4 * c + h * (2 * m - 1) ** 2

    def test_shared_qk_drops_exactly_c_squared(self):
        c, h, m = 16, 4, 2
        std = WindowAttentionParams(c, h, m, sharing_mode="standard")
        sh = WindowAttentionParams(c, h, m, sharing_mode="shared_qk")
        assert std.param_count() - sh.param_count() == c * c

    def test_shared_qk_is_one_storage_object(self):
        p = WindowAttentionParams(8, 2, 2, sharing_mode="shared_qk")
        assert p.w_q is p.w_k
        names = [n for n, _ in p.named_params()]
        assert "w_qk" in names
        assert "w_q" not in names and "w_k" not in names

    def test_bias_table_never_lists_index(self):
        p = WindowAttentionParams(8, 2, 3)
        names = [n for n, _ in p.named_params()]
        assert "bias_index" not in names
        assert p.bias_table.shape == (2, 25)

    def test_validation(self):
        with pytest.raises(ConfigError):
            WindowAttentionParams(10, 3, 2)
        with pytest.raises(ConfigError):
            WindowAttentionParams(8, 2, 2, dropout_rate=1.0)
        with pytest.raises(ConfigError):
            WindowAttentionParams(8, 2, 2, sharing_mode="tied")


# ---------------------------------------------------------------------------
# forward semantics


class TestForwardSemantics:
    def test_matches_oracle_per_window(self):
        rng = np.random.default_rng(81)
        p = WindowAttentionParams(4, 2, 2, rng=np.random.default_rng(82))
        p.bias_table = tc.Tensor(rng.normal(size=(2, 9)).astype(np.float32) * 0.3)
        x = rng.normal(size=(3, 4, 4)).astype(np.float32)
        out = window_mha_forward(tc.Tensor(x), p).data
        w = params_to_f64(p)
        bias = expanded_bias(p)
        for n in range(3):
            ref = attention_oracle(x[n].astype(np.float64), heads=2, bias=bias, **w)
            np.testing.assert_allclose(out[n], ref, atol=1e-5)

    def test_global_matches_oracle(self):
        rng = np.random.default_rng(83)
        p = WindowAttentionParams(4, 2, 2, rng=np.random.default_rng(84))
        x = rng.normal(size=(8, 4)).astype(np.float32)
        out = global_mha_forward(tc.Tensor(p_x := x), p).data
        w = params_to_f64(p)
        ref = attention_oracle(p_x.astype(np.float64), heads=2, bias=None, **w)
        np.testing.assert_allclose(out, ref, atol=1e-5)

    def test_single_window_equals_global(self):
        # when the window covers the whole grid and the bias table is zero
        # the two paths are the same function
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            p = WindowAttentionParams(8, 2, 4, rng=rng)
            x = rng.normal(size=(16, 8)).astype(np.float32)
            windows = tc.reshape(tc.Tensor(x), (1, 16, 8))
            a = window_mha_forward(windows, p).data[0]
            b = global_mha_forward(tc.Tensor(x), p).data
            np.testing.assert_allclose(a, b, atol=1e-6)

    def test_equal_tokens_give_uniform_weights(self):
        p = WindowAttentionParams(4, 2, 2)
        x = tc.Tensor(np.tile(np.array([0.3, -0.2, 0.5, 0.1], dtype=np.float32), (1, 4, 1)))
        _, _, attn = window_mha_forward(x, p, return_scores=True)
        np.testing.assert_allclose(attn.data, 0.25, atol=1e-7)

    def test_attention_rows_are_stochastic(self):
        rng = np.random.default_rng(85)
        p = WindowAttentionParams(8, 4, 2, rng=rng)
        p.bias_table = tc.Tensor(rng.normal(size=(4, 9)).astype(np.float32))
        x = tc.Tensor(rng.normal(size=(5, 4, 8)).astype(np.float32))
        _, _, attn = window_mha_forward(x, p, return_scores=True)
        sums = attn.data.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        assert (attn.data >= 0).all()

    def test_token_permutation_equivariance_without_bias(self):
        # zero bias table: permuting tokens inside a window permutes the
        # output rows identically
        rng = np.random.default_rng(86)
        p = WindowAttentionParams(6, 2, 2, rng=rng)
        x = rng.normal(size=(1, 4, 6)).astype(np.float32)
        perm = np.array([2, 0, 3, 1])
        out = window_mha_forward(tc.Tensor(x), p).data
        out_p = window_mha_forward(tc.Tensor(x[:, perm]), p).data
        np.testing.assert_allclose(out_p, out[:, perm], atol=1e-6)

    def test_bias_breaks_permutation_equivariance(self):
        rng = np.random.default_rng(87)
        p = WindowAttentionParams(6, 2, 2, rng=rng)
        p.bias_table = tc.Tensor(rng.normal(size=(2, 9)).astype(np.float32))
        x = rng.normal(size=(1, 4, 6)).astype(np.float32)
        perm = np.array([2, 0, 3, 1])
        out = window_mha_forward(tc.Tensor(x), p).data
        out_p = window_mha_forward(tc.Tensor(x[:, perm]), p).data
        assert np.abs(out_p - out[:, perm]).max() > 1e-4

    def test_bias_is_shared_across_windows(self):
        # identical window contents + any bias table -> identical outputs,
        # because every window reads the same table through the same index
        rng = np.random.default_rng(88)
        p = WindowAttentionParams(4, 2, 2, rng=rng)
        p.bias_table = tc.Tensor(rng.normal(size=(2, 9)).astype(np.float32))
        block = rng.normal(size=(4, 4)).astype(np.float32)
        x = tc.Tensor(np.stack([block, block, block]))
        out = window_mha_forward(x, p).data
        np.testing.assert_allclose(out[0], out[1], atol=1e-7)
        np.testing.assert_allclose(out[0], out[2], atol=1e-7)

    def test_single_table_write_shifts_mapped_scores(self):
        # putting v in one slot must raise the raw score by exactly v at
        # every (i, j) pair the index maps there, and nowhere else
        p = WindowAttentionParams(4, 2, 2)
        x = tc.Tensor(np.random.default_rng(89).normal(size=(1, 4, 4)).astype(np.float32))
        _, base, _ = window_mha_forward(x, p, return_scores=True)
        v = 0.73
        slot = 1
        table = np.zeros((2, 9), dtype=np.float32)
        table[0, slot] = v
        p.bias_table = tc.Tensor(table)
        _, shifted, _ = window_mha_forward(x, p, return_scores=True)
        delta = shifted.data - base.data
        idx = p.bias_index
        expected = np.zeros_like(delta)
        expected[0, 0][idx == slot] = v
        np.testing.assert_allclose(delta, expected, atol=1e-6)

    def test_window1_with_identity_projections(self):
        # a 1-token window attends only to itself: output = (x Wv + bv) Wo + bo
        p = WindowAttentionParams(4, 2, 1)
        eye = np.eye(4, dtype=np.float32)
        p.w_v = tc.Tensor(eye * 2.0)
        p.w_o = tc.Tensor(eye)
        p.b_o = tc.Tensor(np.full(4, 0.5, dtype=np.float32))
        x = np.random.default_rng(90).normal(size=(3, 1, 4)).astype(np.float32)
        out = window_mha_forward(tc.Tensor(x), p).data
        np.testing.assert_allclose(out, x * 2.0 + 0.5, atol=1e-6)

    def test_shared_qk_symmetric_scores_on_zero_bias(self):
        # with Wq == Wk and zero projections biases, raw scores are symmetric
        rng = np.random.default_rng(91)
        p = WindowAttentionParams(4, 2, 2, sharing_mode="shared_qk", rng=rng)
        x = tc.Tensor(rng.normal(size=(1, 4, 4)).astype(np.float32))
        _, scores, _ = window_mha_forward(x, p, return_scores=True)
        s = scores.data
        np.testing.assert_allclose(s, np.swapaxes(s, -1, -2), atol=1e-6)

    def test_forward_validation(self):
        p = WindowAttentionParams(4, 2, 2)
        with pytest.raises(ContractError):
            window_mha_forward(tc.Tensor(np.zeros((4, 4), dtype=np.float32)), p)
        with pytest.raises(ConfigError):
            window_mha_forward(tc.Tensor(np.zeros((1, 4, 6), dtype=np.float32)), p)
        with pytest.raises(ConfigError):
            window_mha_forward(tc.Tensor(np.zeros((1, 9, 4), dtype=np.float32)), p)
        p2 = WindowAttentionParams(4, 2, 2, dropout_rate=0.5)
        with pytest.raises(ContractError):
            window_mha_forward(
                tc.Tensor(np.zeros((1, 4, 4), dtype=np.float32)), p2, training=True
            )

    def test_dropout_only_in_training(self):
        rng = np.random.default_rng(92)
        p = WindowAttentionParams(4, 2, 2, dropout_rate=0.5, rng=rng)
        x = tc.Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32))
        a = window_mha_forward(x, p).data
        b = window_mha_forward(x, p).data
        np.testing.assert_array_equal(a, b)
        t1 = window_mha_forward(x, p, training=True, rng=np.random.default_rng(1)).data
        t2 = window_mha_forward(x, p, training=True, rng=np.random.default_rng(2)).data
        assert np.abs(t1 - t2).max() > 1e-6


# ---------------------------------------------------------------------------
# gradients


class TestAttentionGradients:
    def _f64_params(self, p: WindowAttentionParams):
        for name, t in p.named_params():
            setattr(
                p,
                {"w_qk": "w_q"}.get(name, name),
                tc.Tensor(t.data.astype(np.float64)),
            )
        if p.sharing_mode == "shared_qk":
            p.w_k = p.w_q
        return [t for _, t in p.named_params()]

    def test_all_params_pass_finite_difference(self):
        rng = np.random.default_rng(93)
        p = WindowAttentionParams(4, 2, 2, rng=rng)
        p.bias_table = tc.Tensor(rng.normal(size=(2, 9)) * 0.1)
        params = self._f64_params(p)
        x = tc.Tensor(rng.normal(size=(2, 4, 4)))
        target = tc.Tensor(rng.normal(size=(2, 4, 4)))

        def loss_fn():
            out = window_mha_forward(x, p)
            diff = tc.sub(out, target)
            return tc.reduce_mean(tc.mul(diff, diff))

        err = tc.finite_difference_check(loss_fn, params + [x], eps=1e-5)
        assert err < 1e-3, f"finite difference error {err:.3e}"

    def test_shared_qk_gradient_sums_both_roles(self):
        # the shared matrix must collect query-side and key-side gradient;
        # check against an untied twin fed the same weights
        rng = np.random.default_rng(94)
        shared = WindowAttentionParams(4, 2, 2, sharing_mode="shared_qk", rng=np.random.default_rng(9))
        tied_w = shared.w_q.data.copy()
        untied = WindowAttentionParams(4, 2, 2, rng=np.random.default_rng(9))
        untied.w_q = tc.Tensor(tied_w.copy())
        untied.w_k = tc.Tensor(tied_w.copy())
        untied.w_v = tc.Tensor(shared.w_v.data.copy())
        untied.w_o = tc.Tensor(shared.w_o.data.copy())
        x = tc.Tensor(rng.normal(size=(1, 4, 4)).astype(np.float32))

        def run(p):
            with tc.Tape() as tape:
                out = window_mha_forward(x, p)
                loss = tc.reduce_sum(tc.mul(out, out))
            return tc.backward(loss, tape)

        g_shared = run(shared)[shared.w_q]
        g_untied = run(untied)
        np.testing.assert_allclose(
            g_shared, g_untied[untied.w_q] + g_untied[untied.w_k], atol=1e-4
        )


# ---------------------------------------------------------------------------
# the fused core against the composition of tape ops it replaced


def composed_mha(x, p, bias, training=False, rng=None):
    """Attention spelled as the separate tape ops (projections, head
    split, scores, bias gather, softmax, dropout, weighted sum, head
    merge, output projection) that the fused core folds into one node."""
    *lead, t, c = x.shape
    h = p.heads
    d = c // h
    nd = len(lead)

    def split(u):
        u = tc.reshape(u, (*lead, t, h, d))
        return tc.transpose(u, (*range(nd), nd + 1, nd, nd + 2))

    q = split(tc.add(tc.matmul(x, p.w_q), p.b_q))
    k = split(tc.add(tc.matmul(x, p.w_k), p.b_k))
    v = split(tc.add(tc.matmul(x, p.w_v), p.b_v))
    with tc.flop_scope("scores"):
        scores = tc.matmul(q, tc.transpose(k, (*range(nd + 1), nd + 2, nd + 1)))
    scores = tc.mul(scores, 1.0 / math.sqrt(d))
    if bias:
        table = tc.reshape(tc.take_lastdim(p.bias_table, p.bias_index.reshape(-1)), (h, t, t))
        scores = tc.sub(scores, table) if attention._FAULT_BIAS_SIGN else tc.add(scores, table)
    attn = tc.softmax_lastdim(scores)
    dropping = training and p.dropout_rate > 0.0
    if dropping:
        attn = tc.dropout(attn, p.dropout_rate, rng)
    with tc.flop_scope("weighted_sum"):
        z = tc.matmul(attn, v)
    z = tc.transpose(z, (*range(nd), nd + 1, nd, nd + 2))
    out = tc.add(tc.matmul(tc.reshape(z, (*lead, t, c)), p.w_o), p.b_o)
    if dropping:
        out = tc.dropout(out, p.dropout_rate, rng)
    return out, scores, attn


def random_case(rng, windowed, sharing_mode, live_bias=True, dropout_rate=0.0):
    """float64 params with nonzero biases, and a (N, M^2, C) or (L, C) input."""
    heads = int(rng.integers(1, 4))
    dim = heads * int(rng.integers(1, 4))
    window = int(rng.integers(1, 4))
    p = WindowAttentionParams(dim, heads, window, dropout_rate=dropout_rate,
                              sharing_mode=sharing_mode, rng=rng)
    for _, t in p.named_params():
        t.data = rng.normal(0.0, 0.5, t.shape)
    if not live_bias:
        p.bias_table.data[...] = 0.0
    if windowed:
        shape = (int(rng.integers(1, 5)), window * window, dim)
    else:
        shape = (int(rng.integers(1, 10)), dim)
    return p, tc.Tensor(rng.normal(size=shape))


def run_both(x, p, windowed, training=False, seed=None):
    """(fused, composed) results: output, scores, weights, every
    parameter's and the input's gradient, and the FLOP counter."""
    fused_fn = window_mha_forward if windowed else global_mha_forward
    target = np.random.default_rng(0).normal(size=x.shape)
    results = []
    for run in ("fused", "composed"):
        rng = None if seed is None else np.random.default_rng(seed)
        with tc.FlopCounter() as counter, tc.Tape() as tape:
            if run == "fused":
                out, scores, attn = fused_fn(x, p, training=training, rng=rng, return_scores=True)
            else:
                out, scores, attn = composed_mha(x, p, windowed, training, rng)
        with tape:
            loss = tc.reduce_sum(tc.mul(out, tc.Tensor(target)))
        grads = tc.backward(loss, tape)
        # the global path never reads the bias table
        named = {name: grads.get(t, 0.0) for name, t in p.named_params()}
        named["x"] = grads[x]
        results.append((out.data, scores.data, attn.data, named, counter))
    return results


def assert_same_results(fused, composed, tokens):
    """Output, scores and weights bit-equal; gradients within 1e-12."""
    for a, b in zip(fused[:3], composed[:3]):
        if tokens > 1:
            np.testing.assert_array_equal(a, b)
        else:
            # one token: BLAS runs each projection as a GEMV, whose
            # rounding depends on the column count (C vs 3C)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
    for name, g in composed[3].items():
        np.testing.assert_allclose(fused[3][name], g, rtol=0, atol=1e-12, err_msg=name)


class TestFusedCore:
    CASES = [(windowed, mode) for windowed in (True, False) for mode in ("standard", "shared_qk")]

    @pytest.mark.parametrize("windowed,mode", CASES)
    def test_bit_equal_outputs_and_matching_gradients(self, windowed, mode):
        rng = np.random.default_rng(500 + 2 * windowed + (mode == "shared_qk"))
        for trial in range(12):
            p, x = random_case(rng, windowed, mode, live_bias=trial % 3 != 0)
            fused, composed = run_both(x, p, windowed)
            assert_same_results(fused, composed, x.shape[-2])

    @pytest.mark.parametrize("windowed,mode", CASES)
    def test_flop_counts_match_composition(self, windowed, mode):
        rng = np.random.default_rng(520)
        for training in (False, True):
            p, x = random_case(rng, windowed, mode, dropout_rate=0.3)
            fused, composed = run_both(x, p, windowed, training=training, seed=4)
            assert fused[4].by_scope == composed[4].by_scope

    @pytest.mark.parametrize("windowed,mode", CASES)
    def test_training_dropout_draws_like_composition(self, windowed, mode):
        rng = np.random.default_rng(530)
        for _ in range(4):
            p, x = random_case(rng, windowed, mode, dropout_rate=0.4)
            fused, composed = run_both(x, p, windowed, training=True, seed=17)
            assert_same_results(fused, composed, x.shape[-2])
            again = (window_mha_forward if windowed else global_mha_forward)(
                x, p, training=True, rng=np.random.default_rng(17))
            np.testing.assert_array_equal(again.data, fused[0])

    @pytest.mark.parametrize("windowed,mode,rate", [
        (False, "standard", 0.0), (True, "shared_qk", 0.0), (False, "shared_qk", 0.3),
        (True, "standard", 0.3),
    ])
    def test_finite_differences(self, windowed, mode, rate):
        rng = np.random.default_rng(540)
        p, x = random_case(rng, windowed, mode, dropout_rate=rate)
        fn = window_mha_forward if windowed else global_mha_forward
        target = tc.Tensor(rng.normal(size=x.shape))

        def loss_fn():
            # a fresh rng per call draws the same masks every evaluation
            out = fn(x, p, training=rate > 0, rng=np.random.default_rng(8))
            diff = tc.sub(out, target)
            return tc.reduce_mean(tc.mul(diff, diff))

        params = [t for _, t in p.named_params()] + [x]
        err = tc.finite_difference_check(loss_fn, params, eps=1e-6)
        assert err < 1e-6, f"finite difference error {err:.3e}"

    def test_one_node_per_call(self):
        rng = np.random.default_rng(550)
        p, x = random_case(rng, True, "standard")
        with tc.Tape() as tape:
            window_mha_forward(x, p)
            global_mha_forward(tc.Tensor(x.data[0]), p)
            grid = tc.Tensor(rng.normal(size=(2, 4, 4, 3)))
            window_merge(window_partition(grid, 2), WindowGeometry(4, 4, 2))
        assert len(tape.nodes) == 4

    def test_fault_bias_sign_subtracts_bias(self):
        rng = np.random.default_rng(560)
        p, x = random_case(rng, True, "standard")
        _, plain, _ = window_mha_forward(x, p, return_scores=True)
        attention.set_fault_bias_sign(True)
        try:
            fused, composed = run_both(x, p, True)
        finally:
            attention.set_fault_bias_sign(False)
        assert_same_results(fused, composed, x.shape[-2])
        np.testing.assert_allclose(fused[1], plain.data - 2 * expanded_bias(p), rtol=0, atol=1e-12)
