"""Analytical parameter/FLOPs accounting, reconciled against a live counter.

Convention, shared with the runtime counter: FLOPs are 2x the
multiply-accumulates of matmuls and convolutions, and nothing else is
counted (not residual adds, normalization, activations, dropout or
softmax), so the FLOP total reconciles exactly against an instrumented
forward pass.

For L tokens, C channels, h heads, window side M:

    attention params       4C^2 + 4C   (+ h(2M-1)^2 windowed; -C^2 shared_qk)
    global attention FLOPs 8LC^2 + 4L^2C
    window attention FLOPs 8LC^2 + 4L M^2 C

so windowing saves exactly 4LC(L - M^2) per layer, positive whenever the
sequence is longer than one window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attention import SHARING_MODES
from .errors import ConfigError
from .model import DW_KERNEL, Model, ModelConfig, classify
from .spatial import KERNEL_SIZE
from .tensor import FlopCounter, Tensor

VARIANTS = ("windowed", "global")


@dataclass(frozen=True)
class CostRow:
    layer: int
    name: str
    params: int
    flops: int


@dataclass(frozen=True)
class CostReport:
    variant: str
    rows: tuple

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.rows)

    def csv_lines(self) -> list:
        lines = [f"{r.layer},{r.name},{r.params},{r.flops},{self.variant}" for r in self.rows]
        lines.append(f"total,,{self.total_params},{self.total_flops},{self.variant}")
        return lines


def attention_cost(tokens: int, dim: int, heads: int, window: int, variant: str,
                   sharing_mode: str = "standard") -> dict:
    """Closed-form {params, flops} for one attention layer."""
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if heads < 1 or dim % heads:
        raise ConfigError(f"channels {dim} must be divisible by heads {heads}")
    if tokens < 1 or window < 1:
        raise ConfigError(f"tokens and window must be >= 1, got {tokens}, {window}")
    if sharing_mode not in SHARING_MODES:
        raise ConfigError(f"unknown sharing_mode {sharing_mode!r}")
    params = 4 * dim * dim + 4 * dim
    if sharing_mode == "shared_qk":
        params -= dim * dim
    if variant == "windowed":
        if tokens % (window * window):
            raise ConfigError(f"tokens {tokens} not divisible by window area {window * window}")
        params += heads * (2 * window - 1) ** 2
        flops = 8 * tokens * dim * dim + 4 * tokens * window * window * dim
    else:
        flops = 8 * tokens * dim * dim + 4 * tokens * tokens * dim
    return {"params": params, "flops": flops}


def model_cost(config: ModelConfig, variant: str) -> CostReport:
    """Per-layer CostReport for the full classifier under ``variant``."""
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    c = config.embed_dim
    l = config.tokens
    p = config.patch_size
    rc = c * config.mlp_ratio
    k = config.num_classes
    rows = []
    layer = 0

    def emit(name, params, flops):
        nonlocal layer
        rows.append(CostRow(layer, name, params, flops))
        layer += 1

    patch_in = 3 * p * p
    emit("patch_embed", patch_in * c + c, 2 * l * patch_in * c)
    for i in range(config.depth):
        attn = attention_cost(l, c, config.heads, config.window, variant, config.sharing_mode)
        emit(f"block{i}.ln1", 2 * c, 0)
        emit(f"block{i}.attn", attn["params"], attn["flops"])
        emit(f"block{i}.ln2", 2 * c, 0)
        emit(f"block{i}.fc1", c * rc + rc, 2 * l * c * rc)
        emit(f"block{i}.dwconv", rc * DW_KERNEL * DW_KERNEL + rc, 2 * rc * DW_KERNEL * DW_KERNEL * l)
        emit(f"block{i}.sam", 2 * KERNEL_SIZE * KERNEL_SIZE + 1,
             2 * 2 * KERNEL_SIZE * KERNEL_SIZE * l)
        emit(f"block{i}.fc2", rc * c + c, 2 * l * rc * c)
    emit("head", c * k + k, 2 * c * k)
    return CostReport(variant=variant, rows=tuple(rows))


def instrumented_forward(model: Model, image: Tensor):
    """Eval-mode forward under a live counter; returns (logits, counter).

    counter.mac_flops is the figure that must equal the analytical
    windowed-variant total exactly.
    """
    with FlopCounter() as counter:
        logits = classify(image, model, training=False)
    return logits, counter


def _units(value: int) -> str:
    """Raw count annotated in M or G with 4 significant digits."""
    if value >= 10**9:
        return f"{value / 1e9:.4g}G"
    if value >= 10**6:
        return f"{value / 1e6:.4g}M"
    return str(value)


def render_comparison(windowed: CostReport, global_: CostReport) -> str:
    """Side-by-side text table for the two variants, with the reduction."""
    header = (
        f"{'layer':>5}  {'name':<16} {'params(win)':>12} {'params(glob)':>13} "
        f"{'flops(win)':>14} {'flops(glob)':>14}"
    )
    lines = [
        "cost model: FLOPs = 2 x MACs of matmuls and convolutions; nothing else is counted",
        "",
        header,
        "-" * len(header),
    ]
    for wr, gr in zip(windowed.rows, global_.rows):
        lines.append(
            f"{wr.layer:>5}  {wr.name:<16} {wr.params:>12} {gr.params:>13} "
            f"{wr.flops:>14} {gr.flops:>14}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'total':>5}  {'':<16} {windowed.total_params:>12} {global_.total_params:>13} "
        f"{windowed.total_flops:>14} {global_.total_flops:>14}"
    )
    lines.append("")
    lines.append(
        f"totals: windowed {_units(windowed.total_params)} params, "
        f"{_units(windowed.total_flops)} FLOPs; global {_units(global_.total_params)} params, "
        f"{_units(global_.total_flops)} FLOPs"
    )
    flops_delta = global_.total_flops - windowed.total_flops
    if global_.total_flops:
        pct = 100.0 * flops_delta / global_.total_flops
        lines.append(
            f"windowed attention saves {flops_delta} FLOPs ({pct:.2f}% of the global variant)"
        )
    params_delta = windowed.total_params - global_.total_params
    lines.append(
        f"bias tables add {params_delta} params over the global variant"
    )
    return "\n".join(lines)
