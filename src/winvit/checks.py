"""Self-check suites behind the `check` CLI command.

Five suites: partition/checkpoint roundtrips, attention row-stochasticity,
finite-difference gradient verification, windowed/global/naive-oracle
equivalence (including the bias decomposition), and analytical-vs-counted
cost reconciliation. Each returns (passed, detail); the command prints one
line per suite and exits nonzero if any fail.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import tensor as tc
from .attention import (
    WindowAttentionParams,
    WindowGeometry,
    global_mha_forward,
    window_merge,
    window_partition,
    window_mha_forward,
)
from .costs import attention_cost, instrumented_forward, model_cost
from .model import Model, ModelConfig, classify, load_checkpoint, save_checkpoint
from .tensor import FlopCounter, Tensor


def _naive_attention(x: np.ndarray, params: WindowAttentionParams, bias: bool) -> np.ndarray:
    """Per-pair double-loop attention in float64; the independent oracle."""
    l, c = x.shape
    h = params.heads
    d = c // h
    q = x @ params.w_q.data.astype(np.float64) + params.b_q.data.astype(np.float64)
    k = x @ params.w_k.data.astype(np.float64) + params.b_k.data.astype(np.float64)
    v = x @ params.w_v.data.astype(np.float64) + params.b_v.data.astype(np.float64)
    table = params.bias_table.data.astype(np.float64)
    index = params.bias_index
    heads_out = np.zeros((l, c))
    for head in range(h):
        sl = slice(head * d, (head + 1) * d)
        for i in range(l):
            scores = np.empty(l)
            for j in range(l):
                scores[j] = q[i, sl] @ k[j, sl] / np.sqrt(d)
                if bias:
                    scores[j] += table[head, index[i, j]]
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            heads_out[i, sl] = w @ v[:, sl]
    return heads_out @ params.w_o.data.astype(np.float64) + params.b_o.data.astype(np.float64)


def _f64_params(dim, heads, window, rng, zero_bias=True) -> WindowAttentionParams:
    p = WindowAttentionParams(dim, heads, window, rng=rng)
    for _, t in p.named_params():
        t.data = t.data.astype(np.float64)
    if not zero_bias:
        p.bias_table = Tensor(rng.normal(0, 0.5, p.bias_table.shape), dtype=np.float64)
    return p


def suite_roundtrip() -> tuple:
    rng = np.random.default_rng(11)
    cases = 0
    for h in range(1, 17):
        for w in range(1, 17):
            for m in range(1, min(h, w) + 1):
                if h % m or w % m:
                    continue
                x = Tensor(rng.normal(size=(h, w, 3)).astype(np.float32))
                geom = WindowGeometry(h, w, m)
                back = window_merge(window_partition(x, m), geom)
                if not np.array_equal(back.data, x.data):
                    return False, f"partition/merge mismatch at H={h} W={w} M={m}"
                cases += 1
    config = ModelConfig(image_size=16, patch_size=4, embed_dim=8, depth=1, heads=2,
                         window=2, num_classes=3, seed=5)
    model = Model(config)
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "ckpt.wmh")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
    for (name, a), (_, b) in zip(model.named_params(), loaded.named_params()):
        if not np.array_equal(a.data, b.data):
            return False, f"checkpoint roundtrip differs at {name}"
    return True, f"{cases} partition geometries + checkpoint bit-exact"


def suite_row_stochastic() -> tuple:
    rng = np.random.default_rng(23)
    worst = 0.0
    for dim, heads, window, n in ((8, 2, 2, 4), (16, 4, 4, 2), (6, 3, 3, 1)):
        params = _f64_params(dim, heads, window, rng, zero_bias=False)
        x = Tensor(rng.normal(size=(n, window * window, dim)))
        _, _, attn = window_mha_forward(x, params, training=False, return_scores=True)
        sums = attn.data.sum(axis=-1)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    if worst > 1e-6:
        return False, f"attention rows deviate from 1 by {worst:.2e}"
    return True, f"max row-sum deviation {worst:.2e}"


def suite_gradients(tight: bool = False) -> tuple:
    tol = 1e-5 if tight else 1e-3
    config = ModelConfig(image_size=16, patch_size=4, embed_dim=8, depth=1, heads=2,
                         window=2, num_classes=3, seed=7)
    model = Model(config).to_dtype(np.float64)
    rng = np.random.default_rng(3)
    # the head is zero-initialized; give it values so gradients reach
    # every upstream parameter instead of vanishing through a zero matmul
    model.head_weight.data[...] = rng.normal(0, 0.05, model.head_weight.shape)
    model.head_bias.data[...] = rng.normal(0, 0.05, model.head_bias.shape)
    image = Tensor(rng.uniform(0, 1, (3, 16, 16)), dtype=np.float64)
    label = np.array([1])

    def loss_fn():
        logits = classify(image, model, training=False)
        return tc.cross_entropy_logits(tc.reshape(logits, (1, config.num_classes)), label)

    params = [t for _, t in model.named_params()]
    err = tc.finite_difference_check(loss_fn, params, eps=1e-4)
    if err >= tol:
        return False, f"max relative gradient error {err:.2e} >= {tol:.0e}"
    return True, f"max relative gradient error {err:.2e} < {tol:.0e}"


def suite_equivalence() -> tuple:
    rng = np.random.default_rng(41)
    # single window vs global, zero bias
    for trial in range(5):
        dim, heads, window = 8, 2, 3
        params = _f64_params(dim, heads, window, rng)
        l = window * window
        x = rng.normal(size=(l, dim))
        windowed = window_mha_forward(Tensor(x[None]), params)
        global_ = global_mha_forward(Tensor(x), params)
        gap = float(np.abs(windowed.data[0] - global_.data).max())
        if gap > 1e-5:
            return False, f"single-window vs global gap {gap:.2e} (trial {trial})"
        oracle = _naive_attention(x, params, bias=False)
        gap = float(np.abs(global_.data - oracle).max())
        if gap > 1e-5:
            return False, f"global vs naive oracle gap {gap:.2e} (trial {trial})"
    # windowed with a live bias table vs the oracle on each window
    params = _f64_params(8, 2, 2, rng, zero_bias=False)
    xw = rng.normal(size=(3, 4, 8))
    out = window_mha_forward(Tensor(xw), params)
    for n in range(3):
        oracle = _naive_attention(xw[n], params, bias=True)
        gap = float(np.abs(out.data[n] - oracle).max())
        if gap > 1e-5:
            return False, f"windowed vs biased oracle gap {gap:.2e} (window {n})"
    # bias decomposition: a single table write must shift the raw scores
    # by exactly +v at the mapped pair positions and nowhere else
    params = _f64_params(4, 1, 2, rng)
    x = Tensor(rng.normal(size=(1, 4, 4)))
    _, base, _ = window_mha_forward(x, params, return_scores=True)
    slot, v = 2, 0.73
    params.bias_table.data[0, slot] = v
    _, shifted, _ = window_mha_forward(x, params, return_scores=True)
    delta = shifted.data[0, 0] - base.data[0, 0]
    expected = np.where(params.bias_index == slot, v, 0.0)
    gap = float(np.abs(delta - expected).max())
    if gap > 1e-9:
        return False, f"bias write of {v} produced wrong score delta (max err {gap:.2e})"
    return True, "windowed == global == naive oracle; bias decomposition exact"


def suite_cost_reconciliation() -> tuple:
    config = ModelConfig()  # desk default
    model = Model(config)
    image = Tensor(np.zeros((3, config.image_size, config.image_size), dtype=np.float32))
    _, counter = instrumented_forward(model, image)
    analytic = model_cost(config, "windowed").total_flops
    if counter.mac_flops != analytic:
        return False, f"instrumented MAC FLOPs {counter.mac_flops} != analytical {analytic}"
    # score + weighted-sum cost ratio at a 14x14 grid with 7x7 windows
    dim, heads = 16, 4
    rng = np.random.default_rng(2)
    grid = Tensor(rng.normal(size=(14, 14, dim)).astype(np.float32))
    params = WindowAttentionParams(dim, heads, 7, rng=rng)
    with FlopCounter() as fc_w:
        window_mha_forward(window_partition(grid, 7), params)
    with FlopCounter() as fc_g:
        global_mha_forward(tc.reshape(grid, (196, dim)), params)
    win = fc_w.scope_flops("scores", "mac") + fc_w.scope_flops("weighted_sum", "mac")
    glob = fc_g.scope_flops("scores", "mac") + fc_g.scope_flops("weighted_sum", "mac")
    if glob != 4 * win:
        return False, f"score+weighted-sum ratio {win}/{glob} is not exactly 1/4"
    a = attention_cost(196, dim, heads, 7, "windowed")["flops"]
    g = attention_cost(196, dim, heads, 7, "global")["flops"]
    if g - a != 4 * 196 * dim * (196 - 49):
        return False, "closed-form FLOPs delta does not match 4LC(L - M^2)"
    return True, "analytical == instrumented; windowed/global score ratio exactly 1/4"


SUITES = (
    ("roundtrip", suite_roundtrip),
    ("row_stochastic", suite_row_stochastic),
    ("gradients", suite_gradients),
    ("equivalence", suite_equivalence),
    ("cost_reconciliation", suite_cost_reconciliation),
)


def run_suites(tight_gradients: bool = False) -> tuple:
    """Run everything; returns (all_passed, [(name, passed, detail), ...])."""
    results = []
    ok = True
    for name, fn in SUITES:
        passed, detail = fn(tight_gradients) if name == "gradients" else fn()
        results.append((name, passed, detail))
        ok = ok and passed
    return ok, results
