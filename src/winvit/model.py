"""Classifier assembly: patch embedding, attention blocks, pooled head.

Blocks are pre-norm residual pairs. The first sublayer runs windowed
attention over the token grid; the second is a feed-forward path whose
hidden features pass through a 3x3 depthwise conv and the spatial gate
before projecting back down. Classification is a global average pool over
tokens followed by one linear layer.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import tensor as tc
from .attention import (
    SHARING_MODES,
    WindowAttentionParams,
    WindowGeometry,
    window_merge,
    window_mha_forward,
    window_partition,
)
from .errors import (
    CheckpointError,
    CheckpointMagicError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    ConfigError,
)
from .spatial import SamParams, sam_map, sam_residual
from .tensor import Tensor

CHECKPOINT_MAGIC = b"WMHV1"
CHECKPOINT_VERSION = 1
DW_KERNEL = 3  # side of the feed-forward path's depthwise conv
# the init generator of a model about to be overwritten: trunc_normal gets
# zeros, which it never resamples, and numpy.random is never imported
_ZEROS = SimpleNamespace(normal=lambda loc, scale, size: np.zeros(size))


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 64
    patch_size: int = 8
    embed_dim: int = 64
    depth: int = 4
    heads: int = 4
    window: int = 4
    mlp_ratio: int = 4
    num_classes: int = 3
    dropout_rate: float = 0.0
    sharing_mode: str = "standard"
    seed: int = 0

    def __post_init__(self):
        if self.image_size < 1 or self.patch_size < 1:
            raise ConfigError(f"image_size/patch_size must be >= 1, got {self.image_size}/{self.patch_size}")
        if self.image_size % self.patch_size:
            raise ConfigError(f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        grid = self.image_size // self.patch_size
        if self.window < 1 or grid % self.window:
            raise ConfigError(f"token grid {grid}x{grid} not divisible by window {self.window}")
        if self.heads < 1 or self.embed_dim % self.heads:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.depth < 0:
            raise ConfigError(f"depth must be >= 0, got {self.depth}")
        if self.mlp_ratio < 1:
            raise ConfigError(f"mlp_ratio must be >= 1, got {self.mlp_ratio}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.sharing_mode not in SHARING_MODES:
            raise ConfigError(f"sharing_mode must be one of {SHARING_MODES}, got {self.sharing_mode!r}")
        if not 0 <= self.seed < 2**63:  # the checkpoint stores it as an int64
            raise ConfigError(f"seed must lie in [0, 2**63), got {self.seed}")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def tokens(self) -> int:
        return self.grid * self.grid

    @property
    def geometry(self) -> WindowGeometry:
        return WindowGeometry(self.grid, self.grid, self.window)


class Block:
    """One pre-norm residual block: attention, then gated feed-forward."""

    def __init__(self, config: ModelConfig, rng):
        c = config.embed_dim
        hidden = c * config.mlp_ratio
        self.ln1_gamma = tc.ones((c,))
        self.ln1_beta = tc.zeros((c,))
        self.attn = WindowAttentionParams(
            c,
            config.heads,
            config.window,
            dropout_rate=config.dropout_rate,
            sharing_mode=config.sharing_mode,
            rng=rng,
        )
        self.ln2_gamma = tc.ones((c,))
        self.ln2_beta = tc.zeros((c,))
        # fan-in-scaled init on the feed-forward path: at desk scale the
        # short schedule cannot recover from uniformly tiny weights, so
        # these layers start at a magnitude that preserves signal variance
        self.fc1_weight = tc.trunc_normal(rng, (c, hidden), std=math.sqrt(2.0 / c))
        self.fc1_bias = tc.zeros((hidden,))
        self.dw_kernel = tc.trunc_normal(rng, (hidden, DW_KERNEL, DW_KERNEL), std=1.0 / DW_KERNEL)
        self.dw_bias = tc.zeros((hidden,))
        self.sam = SamParams(rng)
        self.fc2_weight = tc.trunc_normal(rng, (hidden, c), std=math.sqrt(2.0 / hidden))
        self.fc2_bias = tc.zeros((c,))

    def sections(self, prefix=""):
        """Checkpoint sections (tag, [(name, tensor), ...]): ATTN (ln1 and
        the attention), SAM (the spatial gate), then FFN (ln2, fc1, dw, fc2)."""
        attn = [("ln1_gamma", self.ln1_gamma), ("ln1_beta", self.ln1_beta),
                *(("attn." + name, t) for name, t in self.attn.named_params())]
        sam = [("sam." + name, t) for name, t in self.sam.named_params()]
        ffn = [(name, getattr(self, name)) for name in ("ln2_gamma", "ln2_beta", "fc1_weight",
               "fc1_bias", "dw_kernel", "dw_bias", "fc2_weight", "fc2_bias")]
        for tag, params in (("ATTN", attn), ("SAM ", sam), ("FFN ", ffn)):
            yield tag, [(prefix + name, t) for name, t in params]

    def named_params(self, prefix=""):
        for _, params in self.sections(prefix):
            yield from params


class Model:
    """Full classifier; construction is deterministic in config.seed.
    ``load_checkpoint`` and ``to_dtype``, which overwrite every value,
    build the same structure and draw nothing."""

    def __init__(self, config: ModelConfig):
        self._build(config, np.random.default_rng(config.seed))

    @classmethod
    def _blank(cls, config: ModelConfig) -> "Model":
        model = cls.__new__(cls)
        model._build(config, _ZEROS)
        return model

    def _build(self, config: ModelConfig, rng) -> None:
        self.config = config
        c = config.embed_dim
        patch_in = 3 * config.patch_size**2
        self.patch_weight = tc.trunc_normal(rng, (patch_in, c), std=math.sqrt(2.0 / patch_in))
        self.patch_bias = tc.zeros((c,))
        self.blocks = [Block(config, rng) for _ in range(config.depth)]
        # zero head: an untrained model ties all logits, so argmax is a
        # fixed class and chance-level accuracy is exact on balanced splits
        self.head_weight = tc.zeros((c, config.num_classes))
        self.head_bias = tc.zeros((config.num_classes,))

    def sections(self):
        """Checkpoint sections in file order: PEMB, each block's ATTN / SAM /
        FFN (see :meth:`Block.sections`), then HEAD."""
        yield "PEMB", [("patch_weight", self.patch_weight), ("patch_bias", self.patch_bias)]
        for i, block in enumerate(self.blocks):
            yield from block.sections(f"block{i}.")
        yield "HEAD", [("head_weight", self.head_weight), ("head_bias", self.head_bias)]

    def named_params(self):
        for _, params in self.sections():
            yield from params

    def param_count(self) -> int:
        return sum(t.size for _, t in self.named_params())

    def to_dtype(self, dtype) -> "Model":
        """Copy with every parameter cast; used for 64-bit verification.
        Tensors shared between names (``shared_qk``) stay shared, since
        ``named_params`` yields each once."""
        other = Model._blank(self.config)
        for (_, src), (_, dst) in zip(self.named_params(), other.named_params()):
            dst.data = src.data.astype(dtype)
        return other


def patch_embed(image: Tensor, model: Model) -> Tensor:
    """(3, S, S) image -> (H, W, C) token grid, or a batch
    (B, 3, S, S) -> (B, H, W, C).

    Non-overlapping patch_size^2 patches flattened channel-major and
    linearly projected.
    """
    config = model.config
    s = config.image_size
    if image.ndim not in (3, 4) or image.shape[-3:] != (3, s, s):
        raise ConfigError(f"expected image (3, {s}, {s}) or a batch (B, 3, {s}, {s}), got {image.shape}")
    p = config.patch_size
    g = config.grid
    x = tc.reshape(image, (-1, 3, g, p, g, p))
    x = tc.transpose(x, (0, 2, 4, 1, 3, 5))
    x = tc.reshape(x, (*image.shape[:-3], g, g, 3 * p * p))
    return tc.add(tc.matmul(x, model.patch_weight), model.patch_bias)


def block_forward(
    x: Tensor,
    block: Block,
    training: bool = False,
    rng: np.random.Generator | None = None,
    capture: dict | None = None,
) -> Tensor:
    """(H, W, C) -> (H, W, C), or a batch (B, H, W, C) -> (B, H, W, C),
    through both residual sublayers.

    The whole block runs on the token grid: the tokens of all images share
    each matmul, and the windows of all images share one attention call.
    ``capture``, when given, receives the post-softmax attention weights
    under "attn", (B*N, heads, M^2, M^2), and the spatial gate map under
    "sam", (1, H, W) or (B, 1, H, W).
    """
    h, w = x.shape[-3:-1]
    normed = tc.layernorm_lastdim(x, block.ln1_gamma, block.ln1_beta)
    attn_out = window_mha_forward(
        window_partition(normed, block.attn.window), block.attn,
        training=training, rng=rng, return_scores=capture is not None,
    )
    if capture is not None:
        attn_out, _, capture["attn"] = attn_out
    # for one image in a (1, H, W, C) batch the merge is (H, W, C), which
    # the add broadcasts exactly
    x = tc.add(x, window_merge(attn_out, WindowGeometry(h, w, block.attn.window)))

    normed = tc.layernorm_lastdim(x, block.ln2_gamma, block.ln2_beta)
    hidden = tc.gelu(tc.add(tc.matmul(normed, block.fc1_weight), block.fc1_bias))
    hidden = tc.depthwise_conv2d(hidden, block.dw_kernel, block.dw_bias, padding=DW_KERNEL // 2)
    if capture is not None:
        gate = sam_map(hidden, block.sam, channel_axis=-1)
        capture["sam"] = tc.reshape(gate, (*x.shape[:-3], 1, h, w))
    hidden = sam_residual(hidden, block.sam, channel_axis=-1)
    return tc.add(x, tc.add(tc.matmul(hidden, block.fc2_weight), block.fc2_bias))


def classify(
    image: Tensor,
    model: Model,
    training: bool = False,
    rng: np.random.Generator | None = None,
    capture: list | None = None,
) -> Tensor:
    """Logits (num_classes,) for one (3, S, S) image, or (B, num_classes)
    for a batch (B, 3, S, S) run as one graph.

    ``capture``, when given, is filled with one dict per block holding the
    attention weights and spatial gate map (see :func:`block_forward`).
    """
    x = patch_embed(image, model)
    for block in model.blocks:
        cap = {} if capture is not None else None
        x = block_forward(x, block, training=training, rng=rng, capture=cap)
        if capture is not None:
            capture.append(cap)
    pooled = tc.reduce_mean(x, axes=(-3, -2))
    return tc.add(tc.matmul(pooled, model.head_weight), model.head_bias)


# ---------------------------------------------------------------------------
# checkpoint format
#
# magic "WMHV1", u32 version, config record, then tagged sections. Each
# section is a 4-byte tag plus u32 tensor count plus that many tensors in
# the binary tensor format, as ``Model.sections`` declares them. The bias
# index map is never written; it is a pure function of the window side.

_CONFIG_PACK = "<10qdB"
# ModelConfig fields in record order; None is the reserved slot, and the
# sharing mode is stored as its index in SHARING_MODES
_CONFIG_FIELDS = ("image_size", "patch_size", "embed_dim", "depth", "heads", "window",
                  "mlp_ratio", "num_classes", "seed", None, "dropout_rate", "sharing_mode")


def _write_config(f, config: ModelConfig) -> None:
    values = [0 if k is None else getattr(config, k) for k in _CONFIG_FIELDS]
    values[-1] = SHARING_MODES.index(values[-1])
    f.write(struct.pack(_CONFIG_PACK, *values))


def _read_config(f) -> ModelConfig:
    raw = tc.read_exact(f, struct.calcsize(_CONFIG_PACK), CheckpointTruncatedError, "config record")
    values = dict(zip(_CONFIG_FIELDS, struct.unpack(_CONFIG_PACK, raw)))
    del values[None]
    sharing = values["sharing_mode"]
    if not 0 <= sharing < len(SHARING_MODES):
        raise CheckpointError(f"unknown sharing mode code {sharing}")
    values["sharing_mode"] = SHARING_MODES[sharing]
    try:
        return ModelConfig(**values)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint config invalid: {exc}") from exc


def save_checkpoint(model: Model, path) -> None:
    """Write ``model`` to ``path`` through :func:`tensor.write_file`: on
    failure a file already at ``path`` is left intact; OS errors, and a
    parameter that holds a non-finite value, raise
    :class:`CheckpointError`."""
    for name, t in model.named_params():
        if not np.isfinite(t.data).all():
            raise CheckpointError(f"parameter {name} holds a non-finite value; {path} not written")

    def write(f):
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        _write_config(f, model.config)
        for tag, params in model.sections():
            f.write(tag.encode("ascii"))
            f.write(struct.pack("<I", len(params)))
            for _, t in params:
                tc.write_tensor(t, f)  # looked up per call, so tests can patch it

    tc.write_file(path, write, CheckpointError)


def load_checkpoint(path, config: ModelConfig | None = None) -> Model:
    """Rebuild a model from ``path``. The model is built without an init
    draw and filled from the file; a stored value that is not finite in
    the model's dtype raises :class:`CheckpointError`.

    With ``config`` given, the stored config must agree with it in every
    field but ``seed`` and ``dropout_rate``, which the model takes from
    ``config``. The header alone decides this, before anything is built:
    a :class:`CheckpointShapeError` names each field that differs. Without
    it, the config stored in the file is used.
    """
    raw = tc.read_file(path, CheckpointError, "checkpoint")
    with io.BytesIO(raw) as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointMagicError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", tc.read_exact(f, 4, CheckpointTruncatedError, "version field"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        stored = _read_config(f)
        if config is not None:
            compared = [k.name for k in fields(ModelConfig) if k.name not in ("seed", "dropout_rate")]
            differ = [k for k in compared if getattr(stored, k) != getattr(config, k)]
            if differ:
                held, asked = (" ".join(f"{k}={getattr(c, k)}" for k in differ) for c in (stored, config))
                raise CheckpointShapeError(f"checkpoint holds {held}, requested config has {asked}")
        from .costs import model_cost  # costs imports this module

        # the stored config must fit the bytes left before anything is
        # built; depth goes first (a block writes three 8-byte section
        # headers), which keeps model_cost's per-block walk bounded
        left = len(raw) - f.tell()
        if stored.depth * 24 > left or model_cost(stored, "windowed").total_params * 4 > left:
            raise CheckpointTruncatedError(f"{left} bytes cannot hold the stored config's parameters")
        model = Model._blank(config if config is not None else stored)
        for tag, params in model.sections():
            raw_tag = tc.read_exact(f, 4, CheckpointTruncatedError, f"section tag for {tag!r}")
            if raw_tag.decode("ascii", "replace") != tag:
                raise CheckpointShapeError(
                    f"section {raw_tag!r} where {tag!r} expected; checkpoint does not match its stored config"
                )
            raw_count = tc.read_exact(f, 4, CheckpointTruncatedError, f"section {tag!r} header")
            (count,) = struct.unpack("<I", raw_count)
            if count != len(params):
                raise CheckpointShapeError(
                    f"section {tag!r} holds {count} tensors, config expects {len(params)}"
                )
            for name, t in params:
                loaded = tc.read_tensor(f)
                if loaded.shape != t.shape:
                    raise CheckpointShapeError(
                        f"section {tag!r}: stored tensor {loaded.shape} does not fit {t.shape}"
                    )
                # a float64 file can hold values past float32's range
                with np.errstate(over="ignore"):
                    t.data[...] = loaded.data
                if not np.isfinite(t.data).all():
                    raise CheckpointError(f"parameter {name} in {path} holds a non-finite value")
        if f.read(1):
            raise CheckpointError("trailing bytes after final section")
    return model
