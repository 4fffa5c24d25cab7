"""Supervised training: cross-entropy, decoupled-decay Adam, cosine schedule.

The loop is deterministic per seed: initialization, batch order, and any
dropout masks all derive from the one generator, so two runs with the same
config produce identical metric logs byte for byte.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tc
from .errors import ConfigError, ContractError, DataError, DivergenceError
from .model import Model, classify, save_checkpoint
from .tensor import Gradients, Tape, Tensor, backward

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# divergence guard: abort after this many consecutive steps with loss
# above 10x the initial value
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 50

METRICS_HEADER = "step,lr,loss,acc,pre,rec,f1"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 8
    lr_init: float = 7e-4
    weight_decay: float = 5e-2
    lr_min: float = 1e-6
    seed: int = 0
    eval_every: int = 0  # 0: evaluate once per epoch

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr_init) and self.lr_init > self.lr_min >= 0.0):
            raise ConfigError(
                f"need finite lr_init > lr_min >= 0, got lr_init={self.lr_init}, lr_min={self.lr_min}"
            )
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainState:
    """Parameters plus optimizer moments; ``step`` counts completed updates.

    Build it with :meth:`init`, which moves the parameters of each dtype
    into one flat buffer and rebinds every ``Tensor.data`` to a view of it;
    the moments live in two more flat buffers, which :func:`adamw_step`
    replaces with the new moments at each step. ``flats`` holds, per dtype,
    the parameter, m and v buffers and each parameter's (name, tensor, data
    view, offset in the buffers); ``params`` and ``moments`` are read from
    it. :func:`train_loop` sets ``last_val`` to the metrics of its latest
    val-split evaluation.
    """

    flats: list = field(repr=False)
    step: int = 0
    last_val: dict | None = None

    @classmethod
    def init(cls, named_params) -> "TrainState":
        params = list(named_params)
        if len({id(t) for _, t in params}) < len(params):
            raise ContractError("a parameter tensor is listed under two names")
        flats = []
        for dtype in dict.fromkeys(t.dtype for _, t in params):
            group = [(name, t) for name, t in params if t.dtype == dtype]
            theta = np.concatenate([t.data.reshape(-1) for _, t in group])
            members, start = [], 0
            for name, t in group:
                t.data = theta[start : start + t.size].reshape(t.shape)
                members.append((name, t, t.data, start))
                start += t.size
            flats.append((theta, np.zeros_like(theta), np.zeros_like(theta), members))
        return cls(flats=flats)

    @property
    def params(self) -> list:
        """[(name, Tensor)], grouped by dtype in the order of :meth:`init`."""
        return [(name, t) for *_, members in self.flats for name, t, *_ in members]

    @property
    def moments(self) -> dict:
        """name -> (m, v) views of the current moment buffers, shape-matched
        to the parameter; a later step does not update them."""
        return {name: tuple(flat[start : start + view.size].reshape(view.shape) for flat in (m, v))
                for _, m, v, members in self.flats for name, _, view, start in members}


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean batch cross-entropy; see tensor core for the fused primitive."""
    return tc.cross_entropy_logits(logits, labels)


def cosine_lr(step: int, total_steps: int, lr_init: float, lr_min: float) -> float:
    """lr_min + (lr_init - lr_min) * (1 + cos(pi * step/total)) / 2."""
    if total_steps < 1:
        raise ConfigError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr_init - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))


def adamw_step(
    state: TrainState,
    grads: Gradients,
    lr: float,
    weight_decay: float = 0.0,
) -> TrainState:
    """One decoupled-weight-decay Adam update, in place on the parameters.

    Decay is applied as theta -= lr * lambda * theta, separate from the
    moment-driven term; a parameter with no recorded gradient still decays.
    Every gradient is checked and gathered into a flat array (in its
    parameter's dtype) before anything is written, and each operation runs
    once per flat buffer. The new moments and parameters are built beside
    the old ones and written only once every new parameter and second
    moment is finite; a step that would make one non-finite raises
    :class:`DivergenceError` and leaves the parameters, the moments and
    ``step`` as they were.
    """
    gathered = []
    for theta, _, _, members in state.flats:
        parts = []
        for name, p, view, _ in members:
            if p.data is not view:
                raise ContractError(f"parameter {name}'s data was rebound after TrainState.init")
            g = grads.get(p)
            if g is None:
                g = np.zeros_like(view)
            elif g.shape != view.shape:
                raise ConfigError(f"gradient shape {g.shape} mismatches parameter {name} {view.shape}")
            parts.append(g.reshape(-1))
        gathered.append(np.concatenate(parts, dtype=theta.dtype))
    t = state.step + 1
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    built = []
    # an overflow or an inf - inf here is reported below, as the parameter
    # it would have made non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        for (theta, m, v, members), g in zip(state.flats, gathered):
            m_new = m * ADAM_BETA1
            tmp = g * (1.0 - ADAM_BETA1)
            m_new += tmp
            v_new = v * ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
            tmp *= g
            v_new += tmp
            # update = lr * (m / c1) / (sqrt(v / c2) + eps), built in g
            np.divide(v_new, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            np.divide(m_new, c1, out=g)
            g *= lr
            g /= tmp
            theta_new = np.subtract(theta, g, out=tmp)
            if weight_decay:
                np.multiply(theta_new, lr * weight_decay, out=g)
                theta_new -= g
            # an overflowing second moment would leave the update 0 and the
            # parameter frozen, so it fails the step too
            for flat, what in ((theta_new, ""), (v_new, "'s second moment")):
                if not np.isfinite(flat).all():
                    raise DivergenceError(
                        f"step {t} (lr={lr:.4g}) would leave parameter "
                        f"{_first_nonfinite(flat, members)}{what} non-finite; nothing was updated"
                    )
            built.append((theta_new, m_new, v_new))
    for i, (theta_new, m_new, v_new) in enumerate(built):
        theta, _, _, members = state.flats[i]
        theta[...] = theta_new
        state.flats[i] = (theta, m_new, v_new, members)
    state.step = t
    return state


def _first_nonfinite(flat: np.ndarray, members) -> str:
    """The name of the first member whose slice of ``flat`` holds a
    non-finite value."""
    return next(name for name, _, view, start in members
                if not np.isfinite(flat[start : start + view.size]).all())


def metrics(confusion: np.ndarray) -> dict:
    """Accuracy and macro precision/recall/F1 from a (true x predicted)
    count matrix. A class absent from the denominator contributes 0 to the
    macro average, with a warning."""
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise ConfigError(f"confusion matrix must be square, got {confusion.shape}")
    if (confusion < 0).any():
        raise ConfigError("confusion counts must be nonnegative")
    k = confusion.shape[0]
    total = confusion.sum()
    acc = float(np.trace(confusion) / total) if total else 0.0
    precisions, recalls, f1s = [], [], []
    for i in range(k):
        col = confusion[:, i].sum()
        row = confusion[i, :].sum()
        diag = confusion[i, i]
        if col == 0:
            warnings.warn(f"class {i} never predicted; precision counted as 0")
            prec = 0.0
        else:
            prec = float(diag / col)
        if row == 0:
            warnings.warn(f"class {i} absent from labels; recall counted as 0")
            rec = 0.0
        else:
            rec = float(diag / row)
        f1 = 2.0 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
    return {
        "acc": acc,
        "precision": float(np.mean(precisions)),
        "recall": float(np.mean(recalls)),
        "f1": float(np.mean(f1s)),
    }


def evaluate(model: Model, dataset) -> tuple[np.ndarray, dict]:
    """Confusion matrix and metrics for ``dataset`` in eval mode."""
    k = model.config.num_classes
    tc.check_labels(np.asarray(dataset.labels), k)
    confusion = np.zeros((k, k), dtype=np.int64)
    for image, label in zip(dataset.images, dataset.labels):
        logits = classify(image, model, training=False)
        pred = int(np.argmax(logits.data))
        confusion[label, pred] += 1
    return confusion, metrics(confusion)


def _format_row(step, lr, loss, measured=None) -> str:
    base = f"{step},{lr:.10g},{loss:.8f}"
    if measured is None:
        return base + ",,,,"
    return base + ",{acc:.6f},{precision:.6f},{recall:.6f},{f1:.6f}".format(**measured)


def train_loop(
    model: Model,
    train_set,
    val_set,
    config: TrainConfig,
    metrics_path=None,
    checkpoint_dir=None,
):
    """Train ``model``; returns (TrainState, list of metrics-CSV rows).

    Each step classifies its minibatch as one (B, 3, S, S) tensor, so one
    graph is recorded and replayed per step; the last batch of an epoch may
    be smaller. Per step the row holds step, lr, loss; at evaluation points
    (every ``eval_every`` steps, default once per epoch, plus the final
    step) the val-split accuracy/precision/recall/F1 fill the remaining
    columns, ``state.last_val`` holds them, and a checkpoint is written when
    ``checkpoint_dir`` is given.
    """
    n = len(train_set.images)
    if n == 0:
        raise DataError("training split is empty")
    rng = np.random.default_rng(config.seed)
    state = TrainState.init(model.named_params())
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    eval_every = config.eval_every or steps_per_epoch

    rows = [METRICS_HEADER]
    # a row reaches the file as soon as it exists, so a run that raises
    # keeps the header and the row of every step it finished. The handler
    # spans the whole `with`: closing after a failed flush fails again.
    try:
        with open(os.devnull if metrics_path is None else metrics_path, "w") as log:
            log.write(METRICS_HEADER + "\n")
            initial_loss = None
            high_loss_streak = 0
            for _epoch in range(config.epochs):
                order = rng.permutation(n)
                for start in range(0, n, config.batch_size):
                    batch = order[start : start + config.batch_size]
                    lr = cosine_lr(state.step, total_steps, config.lr_init, config.lr_min)
                    images = Tensor(np.stack([train_set.images[i].data for i in batch]))
                    labels = np.array([train_set.labels[i] for i in batch])
                    with Tape() as tape:
                        logits = classify(images, model, training=True, rng=rng)
                        loss = cross_entropy(logits, labels)
                    grads = backward(loss, tape)
                    loss_val = loss.item()

                    if not math.isfinite(loss_val):
                        raise DivergenceError(
                            f"non-finite loss {loss_val} at step {state.step}"
                        )
                    if initial_loss is None:
                        initial_loss = loss_val
                    if loss_val > DIVERGENCE_FACTOR * max(initial_loss, 1e-12):
                        high_loss_streak += 1
                        if high_loss_streak >= DIVERGENCE_PATIENCE:
                            raise DivergenceError(
                                f"loss {loss_val:.4g} stayed above {DIVERGENCE_FACTOR}x the initial "
                                f"{initial_loss:.4g} for {DIVERGENCE_PATIENCE} consecutive steps"
                            )
                    else:
                        high_loss_streak = 0

                    adamw_step(state, grads, lr, weight_decay=config.weight_decay)

                    measured = None
                    if state.step % eval_every == 0 or state.step == total_steps:
                        if len(val_set.images):
                            _, measured = evaluate(model, val_set)
                            state.last_val = measured
                        if checkpoint_dir is not None:
                            save_checkpoint(
                                model, os.path.join(checkpoint_dir, f"ckpt_step{state.step}.wmh")
                            )
                    rows.append(_format_row(state.step, lr, loss_val, measured))
                    log.write(rows[-1] + "\n")
                    log.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write {metrics_path}: {exc}") from exc
    return state, rows
