"""Cost model tests.

Two independent routes to every number: the closed-form accounting here is
checked against (a) formulas re-derived inline in the tests and (b) the
runtime counter driving the real forward pass. The two routes must agree
exactly, not approximately.
"""

import numpy as np
import pytest

from winvit import tensor as tc
from winvit.costs import (
    CostReport,
    attention_cost,
    instrumented_forward,
    model_cost,
    render_comparison,
)
from winvit.errors import ConfigError
from winvit.model import Model, ModelConfig

DESK = ModelConfig()  # 64px, patch 8, C=64, depth 4, 4 heads, window 4


class TestAttentionCost:
    def test_params_closed_form(self):
        for l, c, h, m in [(64, 64, 4, 4), (16, 8, 2, 2), (196, 96, 3, 7)]:
            win = attention_cost(l, c, h, m, "windowed")
            assert win["params"] == 4 * c * c + 4 * c + h * (2 * m - 1) ** 2
            glob = attention_cost(l, c, h, m, "global")
            assert glob["params"] == 4 * c * c + 4 * c

    def test_bias_table_smaller_than_full_pairwise(self):
        # h(2M-1)^2 < L^2 whenever several windows tile the grid
        for l, h, m in [(64, 4, 4), (196, 3, 7), (256, 8, 4)]:
            assert h * (2 * m - 1) ** 2 < l * l

    def test_flops_closed_form(self):
        for l, c, h, m in [(64, 64, 4, 4), (144, 48, 4, 3)]:
            win = attention_cost(l, c, h, m, "windowed")
            glob = attention_cost(l, c, h, m, "global")
            assert win["flops"] == 8 * l * c * c + 4 * l * m * m * c
            assert glob["flops"] == 8 * l * c * c + 4 * l * l * c

    def test_saving_law(self):
        # global minus windowed = 4LC(L - M^2), per layer
        for l, c, h, m in [(64, 64, 4, 4), (196, 96, 4, 7), (1024, 128, 8, 8)]:
            win = attention_cost(l, c, h, m, "windowed")
            glob = attention_cost(l, c, h, m, "global")
            assert glob["flops"] - win["flops"] == 4 * l * c * (l - m * m)

    def test_single_window_costs_match_global(self):
        # L = M^2 puts every token in one window: no quadratic savings
        win = attention_cost(16, 8, 2, 4, "windowed")
        glob = attention_cost(16, 8, 2, 4, "global")
        assert win["flops"] == glob["flops"]

    def test_score_flops_ratio_is_window_to_sequence(self):
        # the quadratic terms scale as M^2 / L; at L=196, M=7 that is 1/4
        l, c, h, m = 196, 64, 4, 7
        win_quad = 4 * l * m * m * c
        glob_quad = 4 * l * l * c
        assert win_quad * 4 == glob_quad

    def test_shared_qk_saves_c_squared(self):
        base = attention_cost(64, 64, 4, 4, "windowed")
        shared = attention_cost(64, 64, 4, 4, "windowed", sharing_mode="shared_qk")
        assert base["params"] - shared["params"] == 64 * 64
        assert base["flops"] == shared["flops"]  # storage shrinks, work does not

    def test_validation(self):
        with pytest.raises(ConfigError):
            attention_cost(64, 64, 4, 4, "sparse")
        with pytest.raises(ConfigError):
            attention_cost(64, 63, 4, 4, "windowed")
        with pytest.raises(ConfigError):
            attention_cost(60, 64, 4, 4, "windowed")  # 60 not divisible by 16
        with pytest.raises(ConfigError):
            attention_cost(64, 64, 4, 4, "windowed", sharing_mode="odd")


class TestModelCost:
    def test_totals_match_live_parameters(self):
        # analytic param total == sum over the real model's tensors
        for cfg in (DESK, ModelConfig(depth=2, sharing_mode="shared_qk")):
            report = model_cost(cfg, "windowed")
            model = Model(cfg)
            assert report.total_params == model.param_count()

    def test_mac_total_matches_instrumented_forward(self):
        # the analytic windowed FLOPs equal the live counter exactly
        report = model_cost(DESK, "windowed")
        model = Model(DESK)
        img = tc.Tensor(
            np.random.default_rng(160).normal(size=(3, 64, 64)).astype(np.float32)
        )
        _, counter = instrumented_forward(model, img)
        assert counter.mac_flops == report.total_flops

    def test_mac_total_matches_on_other_shapes(self):
        for cfg in (
            ModelConfig(image_size=32, patch_size=4, embed_dim=32, depth=2, heads=2, window=2),
            ModelConfig(image_size=16, patch_size=4, embed_dim=8, depth=1, heads=2, window=2, mlp_ratio=2),
        ):
            report = model_cost(cfg, "windowed")
            model = Model(cfg)
            img = tc.Tensor(
                np.random.default_rng(161)
                .normal(size=(3, cfg.image_size, cfg.image_size))
                .astype(np.float32)
            )
            _, counter = instrumented_forward(model, img)
            assert counter.mac_flops == report.total_flops

    def test_desk_scale_delta(self):
        # depth 4, L=64, C=64, M=4: per block 4*64*64*(64-16) = 786432
        win = model_cost(DESK, "windowed")
        glob = model_cost(DESK, "global")
        assert glob.total_flops - win.total_flops == 4 * 786432 == 3145728

    def test_sam_row_is_99_params_per_block(self):
        report = model_cost(DESK, "windowed")
        sam_rows = [r for r in report.rows if r.name.endswith(".sam")]
        assert len(sam_rows) == DESK.depth
        assert all(r.params == 99 for r in sam_rows)

    def test_depth_zero_is_stem_plus_head(self):
        cfg = ModelConfig(depth=0)
        report = model_cost(cfg, "windowed")
        names = [r.name for r in report.rows]
        assert names == ["patch_embed", "head"]
        c = cfg.embed_dim
        p = cfg.patch_size
        assert report.total_params == (3 * p * p * c + c) + (c * cfg.num_classes + cfg.num_classes)

    def test_flops_reduction_is_monotone_in_depth(self):
        deltas = []
        for depth in (1, 2, 4):
            cfg = ModelConfig(depth=depth)
            d = model_cost(cfg, "global").total_flops - model_cost(cfg, "windowed").total_flops
            deltas.append(d)
        assert deltas[0] < deltas[1] < deltas[2]
        assert deltas[1] == 2 * deltas[0]
        assert deltas[2] == 4 * deltas[0]

    def test_scope_ratio_at_quarter_sequence(self):
        # live counter route to the same 1/4: label the score and weighted
        # sum matmuls, windowed quadratic work = 1/4 global at L=196, M=7
        from winvit.attention import (
            WindowAttentionParams,
            global_mha_forward,
            window_mha_forward,
            window_partition,
        )

        c, h, m = 16, 2, 7
        grid = 14  # L = 196
        rng = np.random.default_rng(162)
        p = WindowAttentionParams(c, h, m, rng=rng)
        x = tc.Tensor(rng.normal(size=(grid, grid, c)).astype(np.float32))
        windows = window_partition(x, m)
        with tc.FlopCounter() as fw:
            window_mha_forward(windows, p)
        tokens = tc.reshape(x, (grid * grid, c))
        with tc.FlopCounter() as fg:
            global_mha_forward(tokens, p)
        win_quad = fw.scope_flops("scores", "mac") + fw.scope_flops("weighted_sum", "mac")
        glob_quad = fg.scope_flops("scores", "mac") + fg.scope_flops("weighted_sum", "mac")
        assert glob_quad == 4 * win_quad

    def test_csv_lines_schema(self):
        report = model_cost(DESK, "windowed")
        lines = report.csv_lines()
        assert len(lines) == len(report.rows) + 1
        for line in lines[:-1]:
            layer, name, params, flops, variant = line.split(",")
            int(layer), int(params), int(flops)
            assert variant == "windowed"
        assert lines[-1].startswith("total,,")


class TestRenderComparison:
    def test_render_mentions_the_saving(self):
        win = model_cost(DESK, "windowed")
        glob = model_cost(DESK, "global")
        text = render_comparison(win, glob)
        assert "windowed attention saves 3145728 FLOPs" in text
        assert "FLOPs = 2 x MACs" in text
        assert "bias tables add" in text

    def test_render_handles_depth_zero(self):
        cfg = ModelConfig(depth=0)
        text = render_comparison(model_cost(cfg, "windowed"), model_cost(cfg, "global"))
        assert "saves 0 FLOPs" in text
