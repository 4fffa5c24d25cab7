"""Spans around winvit's public functions, recorded from outside the package.

Nothing under ``src/`` knows about tracing. :class:`Patches` rebinds module
attributes (``winvit.model.window_mha_forward``, ``winvit.train.backward``,
``winvit.tensor.conv2d``, ...) to timing wrappers and puts the originals
back afterwards. Because modules import functions by name, one function can
be bound in several modules; :meth:`Patches.rebind` replaces every binding.

A :class:`Tracer` keeps spans (id, parent, unit, name, start, end) in memory
and derives, as it goes:

- each span name's call count, inclusive time and self time (its duration
  minus the part covered by its child spans), and from those each layer's
  self time; a layer is the winvit module a function belongs to;
- forward time per tensor op kind, and backward time per op kind, from
  timing every ``TapeNode.backward`` of the tape handed to ``backward``;
  a node gets the kind of the op span that created it;
- forward and backward time per ``model_cost`` row (patch_embed, ln1, attn,
  ln2, fc1, dwconv, sam, fc2, head), summed over blocks. Inside a block the
  row is set by the last row boundary entered: the ln1/ln2 layernorm (told
  apart by their gamma), window partition/attention/merge, the fc1/fc2
  matmul (told apart by their weight), the depthwise conv and the spatial
  gate. A matmul inside ``window_mha_forward`` therefore lands in ``attn``
  and the feed-forward ones in ``fc1``/``fc2``. Ops of ``classify`` outside
  the patch embedding and the blocks are the ``head`` row.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

LAYERS = ("tensor", "attention", "spatial", "model", "costs", "train", "data", "checks")

# op kinds reported one by one; the remaining tensor ops are summed as "other"
REPORTED_OPS = (
    "conv2d", "depthwise_conv2d", "matmul", "layernorm_lastdim", "softmax_lastdim", "gelu",
    "take_lastdim", "sigmoid", "channel_pool", "transpose", "reshape", "add", "mul",
)
TENSOR_OPS = REPORTED_OPS + (
    "sub", "neg", "concat", "stack", "reduce_sum", "reduce_mean", "dropout",
    "cross_entropy_logits",
)
SUITES = ("roundtrip", "row_stochastic", "gradients", "equivalence", "cost_reconciliation")

TRACED = {
    "tensor": TENSOR_OPS + ("backward", "finite_difference_check", "write_tensor", "read_tensor"),
    "attention": ("build_bias_index", "window_partition", "window_merge",
                  "window_mha_forward", "global_mha_forward"),
    "spatial": ("sam_map", "sam_residual"),
    "model": ("patch_embed", "block_forward", "classify", "save_checkpoint", "load_checkpoint"),
    "costs": ("attention_cost", "model_cost", "instrumented_forward"),
    "train": ("cosine_lr", "adamw_step", "cross_entropy", "metrics", "evaluate", "train_loop"),
    "data": ("render_pattern", "generate_synthetic", "read_ppm", "bilinear_resize",
             "load_manifest"),
    "checks": tuple(f"suite_{s}" for s in SUITES) + ("run_suites",),
}

ROWS = ("patch_embed", "ln1", "attn", "ln2", "fc1", "dwconv", "sam", "fc2", "head")

# functions whose call, inside a block, starts a model_cost row
ROW_BOUNDARIES = {
    "window_partition": "attn",
    "window_mha_forward": "attn",
    "window_merge": "attn",
    "sam_map": "sam",
    "sam_residual": "sam",
    "depthwise_conv2d": "dwconv",
}

# raw spans kept in memory; later spans are still aggregated, only not kept
SPAN_CAP = 50_000

_KEEP = object()


def winvit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "winvit" or name.startswith("winvit."))]


class Patches:
    """Attribute rebinding that :meth:`undo` reverts, last change first."""

    def __init__(self):
        self._saved = []

    def set(self, obj, name, value):
        self._saved.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def rebind(self, fn, value):
        """Point every winvit module attribute bound to ``fn`` at ``value``."""
        for mod in winvit_modules():
            for name, bound in list(vars(mod).items()):
                if bound is fn:
                    self.set(mod, name, value)

    def undo(self):
        while self._saved:
            obj, name, value = self._saved.pop()
            setattr(obj, name, value)


def record_calls(patches: Patches, module, name: str, sink: list) -> None:
    """Append the wall ns of every call of ``module.name`` to ``sink``."""
    fn = getattr(module, name)
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(clock() - start)

    patches.set(module, name, timed)


def record_steps(patches: Patches, train_module, sink: list) -> None:
    """Append the wall ns of every ``train_loop`` step to ``sink``: from the
    ``cosine_lr`` call that opens a step to the end of its ``adamw_step``.
    In-loop evaluation and checkpoint writes fall outside the step."""
    lr_fn, step_fn = train_module.cosine_lr, train_module.adamw_step
    clock = time.perf_counter_ns
    opened = [0]

    @functools.wraps(lr_fn)
    def cosine_lr(*args, **kwargs):
        opened[0] = clock()
        return lr_fn(*args, **kwargs)

    @functools.wraps(step_fn)
    def adamw_step(*args, **kwargs):
        try:
            return step_fn(*args, **kwargs)
        finally:
            sink.append(clock() - opened[0])

    patches.set(train_module, "cosine_lr", cosine_lr)
    patches.set(train_module, "adamw_step", adamw_step)


class Tracer:
    """Spans and per-layer totals for everything winvit runs while installed."""

    def __init__(self):
        self.spans = []  # (id, parent id, unit, name, start ns, end ns)
        self.dropped = 0
        self.unit = 0  # set by the workload: the step, image or pass in progress
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.layer_self_ns = defaultdict(int)
        self.op_ns = defaultdict(int)  # (op kind, "fwd" | "bwd") -> ns
        self.row_ns = defaultdict(int)  # (row, "fwd" | "bwd") -> self ns
        self.row_flops = defaultdict(int)  # analytical MAC FLOPs of classify calls
        self.counts = defaultdict(int)
        self.row = None
        self.block = None
        self._stack = []  # open frames: [span id, child ns, row, op kind]
        self._ids = 0
        self._in_train_loop = 0
        self._origin = time.perf_counter_ns()
        self._patches = Patches()
        self._row_costs = {}

    # -- recording ---------------------------------------------------------

    def call(self, name, layer, fn, args, kwargs, op=None, row=_KEEP, phase="fwd"):
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        self._ids += 1
        frame = [self._ids, 0, self.row if row is _KEEP else row, op]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - start
            own = dur - frame[1]
            if stack:
                stack[-1][1] += dur
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += own
            self.layer_self_ns[layer] += own
            if frame[2] is not None:
                self.row_ns[frame[2], phase] += own
            if op is not None:
                self.op_ns[op, phase] += dur
                if phase == "fwd":
                    self.counts["op_calls"] += 1
            if len(self.spans) < SPAN_CAP:
                self.spans.append((frame[0], parent, self.unit, name,
                                   start - self._origin, end - self._origin))
            else:
                self.dropped += 1

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {layer: sys.modules[f"winvit.{layer}"] for layer in LAYERS}
        self._model_cost = mods["costs"].model_cost
        wrapped = {}
        for layer, names in TRACED.items():
            for name in names:
                fn = getattr(mods[layer], name)
                wrapper = functools.wraps(fn)(self._wrap(layer, name, fn))
                wrapped[fn] = wrapper
                self._patches.rebind(fn, wrapper)
        checks = mods["checks"]
        self._patches.set(checks, "SUITES",
                          tuple((n, wrapped.get(f, f)) for n, f in checks.SUITES))
        model_cls = mods["model"].Model
        self._patches.set(model_cls, "to_dtype",
                          self._wrap("model", "to_dtype", model_cls.to_dtype))
        self._patches.set(mods["tensor"], "TapeNode", self._node_factory(mods["tensor"].TapeNode))
        return self

    def uninstall(self):
        self._patches.undo()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, layer, name, fn):
        span = f"{layer}.{name}"
        call = self.call
        special = {
            "classify": self._wrap_classify,
            "block_forward": self._wrap_block,
            "patch_embed": self._wrap_patch_embed,
            "backward": self._wrap_backward,
            "finite_difference_check": self._wrap_fd_check,
            "save_checkpoint": self._wrap_save,
            "train_loop": self._wrap_train_loop,
        }.get(name)
        if special is not None:
            return special(span, layer, fn)
        if layer == "tensor" and name in TENSOR_OPS:
            return self._wrap_op(span, name, fn)
        boundary = ROW_BOUNDARIES.get(name)
        if boundary is not None:
            def entered_row(*args, **kwargs):
                if self.block is not None:
                    self.row = boundary
                return call(span, layer, fn, args, kwargs)

            return entered_row

        def traced(*args, **kwargs):
            return call(span, layer, fn, args, kwargs)

        return traced

    def _wrap_op(self, span, op, fn):
        call = self.call
        boundary = ROW_BOUNDARIES.get(op)

        def row_of(args):
            block = self.block
            if op == "layernorm_lastdim":
                gamma = args[1]
                return "ln1" if gamma is block.ln1_gamma else "ln2" if gamma is block.ln2_gamma else None
            if op == "matmul":
                weight = args[1]
                return "fc1" if weight is block.fc1_weight else "fc2" if weight is block.fc2_weight else None
            return boundary

        def traced_op(*args, **kwargs):
            if self.block is not None:
                row = row_of(args)
                if row is not None:
                    self.row = row
            return call(span, "tensor", fn, args, kwargs, op=op)

        return traced_op

    def _wrap_classify(self, span, layer, fn):
        call = self.call

        def classify(image, model, training=False, *args, **kwargs):
            for row, flops in self._row_cost(model.config):
                self.row_flops[row] += flops
            saved = self.row, self.block
            self.row, self.block = "head", None
            before = self.total_ns[span]
            try:
                return call(span, layer, fn, (image, model, training, *args), kwargs, row=None)
            finally:
                self.row, self.block = saved
                if training:
                    self.counts["train_forward_ns"] += self.total_ns[span] - before

        return classify

    def _row_cost(self, config):
        rows = self._row_costs.get(config)
        if rows is None:
            summed = dict.fromkeys(ROWS, 0)
            for r in self._model_cost(config, "windowed").rows:
                summed[r.name.rsplit(".", 1)[-1]] += r.flops
            rows = self._row_costs[config] = tuple(summed.items())
        return rows

    def _wrap_block(self, span, layer, fn):
        call = self.call

        def block_forward(x, block, *args, **kwargs):
            saved = self.row, self.block
            self.row, self.block = "ln1", block
            try:
                return call(span, layer, fn, (x, block, *args), kwargs, row=None)
            finally:
                self.row, self.block = saved

        return block_forward

    def _wrap_patch_embed(self, span, layer, fn):
        call = self.call

        def patch_embed(*args, **kwargs):
            saved = self.row
            self.row = "patch_embed"
            try:
                return call(span, layer, fn, args, kwargs)
            finally:
                self.row = saved

        return patch_embed

    def _wrap_backward(self, span, layer, fn):
        call = self.call

        def timed_node(bwd, kind, row):
            name = f"tensor.{kind}.backward"
            return lambda g: call(name, "tensor", bwd, (g,), {}, op=kind, row=row, phase="bwd")

        def backward(loss, tape):
            for node in tape.nodes:
                node.backward = timed_node(node.backward, getattr(node, "kind", "other"),
                                           getattr(node, "row", None))
            self.counts["tape_nodes"] += len(tape.nodes)
            return call(span, layer, fn, (loss, tape), {}, row=None)

        return backward

    def _node_factory(self, node_cls):
        stack = self._stack

        class TracedTapeNode(node_cls):
            __slots__ = ("kind", "row")

        def make_node(output, inputs, backward):
            node = TracedTapeNode(output, inputs, backward)
            top = stack[-1] if stack else None
            node.kind = top[3] if top is not None and top[3] else "other"
            node.row = top[2] if top is not None else None
            return node

        return make_node

    def _wrap_fd_check(self, span, layer, fn):
        call = self.call

        def finite_difference_check(loss_fn, *args, **kwargs):
            def counted_loss():
                self.counts["loss_evals"] += 1
                return loss_fn()

            return call(span, layer, fn, (counted_loss, *args), kwargs)

        return finite_difference_check

    def _wrap_save(self, span, layer, fn):
        call = self.call

        def save_checkpoint(model, path, *args, **kwargs):
            before = self.total_ns[span]
            result = call(span, layer, fn, (model, path, *args), kwargs)
            self.counts["checkpoint_bytes"] = os.path.getsize(path)
            if self._in_train_loop:
                self.counts["checkpoint_stall_ns"] += self.total_ns[span] - before
            return result

        return save_checkpoint

    def _wrap_train_loop(self, span, layer, fn):
        call = self.call

        def train_loop(*args, **kwargs):
            self._in_train_loop += 1
            try:
                return call(span, layer, fn, args, kwargs)
            finally:
                self._in_train_loop -= 1

        return train_loop


def per_layer_spec():
    """(name, unit) of every per-layer metric, in report order."""
    spec = []
    for op in REPORTED_OPS + ("other",):
        spec += [(f"tensor.{op}.fwd_ms", "ms"), (f"tensor.{op}.bwd_ms", "ms")]
    spec += [
        ("tensor.backward_ms_per_step", "ms"),
        ("tensor.tape_nodes_per_step", "count"),
        ("tensor.op_calls", "count"),
        ("tensor.us_per_op", "us"),
        ("tensor.mac_flops_per_image", "count"),
        ("tensor.gflops_achieved", "GFLOP/s"),
        ("attention.window_mha_forward.ms", "ms"),
        ("attention.window_partition.ms", "ms"),
        ("attention.window_merge.ms", "ms"),
        ("attention.global_mha_forward.ms", "ms"),
        ("spatial.sam_residual.ms", "ms"),
    ]
    for row in ROWS:
        spec += [(f"row.{row}.fwd_ms", "ms"), (f"row.{row}.bwd_ms", "ms"),
                 (f"row.{row}.flops", "count")]
    spec += [
        ("model.load_checkpoint.ms", "ms"),
        ("model.save_checkpoint.ms", "ms"),
        ("model.checkpoint_bytes", "bytes"),
        ("train.forward_ms_per_step", "ms"),
        ("train.adamw_step.ms", "ms"),
        ("train.evaluate.s", "s"),
        ("train.checkpoint_stall_ms", "ms"),
        ("data.generate_synthetic.s", "s"),
        ("data.load_manifest.s", "s"),
        ("data.read_ppm.ms", "ms"),
        ("data.bilinear_resize.ms", "ms"),
        ("costs.instrumented_forward.ms", "ms"),
    ]
    spec += [(f"checks.{s}.s", "s") for s in SUITES]
    spec += [("checks.loss_evals", "count")]
    spec += [(f"layer.{layer}.self_ms", "ms") for layer in LAYERS]
    spec += [("trace.overhead_ms", "ms"), ("trace.overhead_pct", "%")]
    return spec


def per_layer_metrics(loop: Tracer, setup: Tracer, units: int, overhead_ms: float,
                      overhead_pct: float, mac_flops_per_image: int) -> dict:
    """Every per-layer metric from the traced measurement (``loop``) and the
    traced in-process set-up (``setup``).

    Times are per unit of work (``units``: train steps, classified images or
    suite passes) unless the name says otherwise; set-up and I/O functions
    (``load_checkpoint``, ``save_checkpoint``, ``evaluate``, ``data.*``) are
    per call, over both tracers.
    """
    per = 1.0 / max(units, 1)

    def ms(ns):
        return ns / 1e6 * per

    def per_call(name, scale):
        calls = loop.calls[name] + setup.calls[name]
        total = loop.total_ns[name] + setup.total_ns[name]
        return total / calls / scale if calls else 0.0

    values = {}
    other = {"fwd": 0, "bwd": 0}
    for (op, phase), ns in loop.op_ns.items():
        if op not in REPORTED_OPS:
            other[phase] += ns
    for op in REPORTED_OPS:
        values[f"tensor.{op}.fwd_ms"] = ms(loop.op_ns[op, "fwd"])
        values[f"tensor.{op}.bwd_ms"] = ms(loop.op_ns[op, "bwd"])
    values["tensor.other.fwd_ms"] = ms(other["fwd"])
    values["tensor.other.bwd_ms"] = ms(other["bwd"])
    op_calls = loop.counts["op_calls"]
    op_fwd_ns = sum(ns for (_, phase), ns in loop.op_ns.items() if phase == "fwd")
    classify_ns = loop.total_ns["model.classify"]
    values.update({
        "tensor.backward_ms_per_step": ms(loop.total_ns["tensor.backward"]),
        "tensor.tape_nodes_per_step": loop.counts["tape_nodes"] * per,
        "tensor.op_calls": op_calls * per,
        "tensor.us_per_op": op_fwd_ns / op_calls / 1e3 if op_calls else 0.0,
        "tensor.mac_flops_per_image": mac_flops_per_image,
        "tensor.gflops_achieved": sum(loop.row_flops.values()) / classify_ns if classify_ns else 0.0,
        "attention.window_mha_forward.ms": ms(loop.total_ns["attention.window_mha_forward"]),
        "attention.window_partition.ms": ms(loop.total_ns["attention.window_partition"]),
        "attention.window_merge.ms": ms(loop.total_ns["attention.window_merge"]),
        "attention.global_mha_forward.ms": ms(loop.total_ns["attention.global_mha_forward"]),
        "spatial.sam_residual.ms": ms(loop.total_ns["spatial.sam_residual"]),
    })
    for row in ROWS:
        values[f"row.{row}.fwd_ms"] = ms(loop.row_ns[row, "fwd"])
        values[f"row.{row}.bwd_ms"] = ms(loop.row_ns[row, "bwd"])
        values[f"row.{row}.flops"] = loop.row_flops[row] * per
    values.update({
        "model.load_checkpoint.ms": per_call("model.load_checkpoint", 1e6),
        "model.save_checkpoint.ms": per_call("model.save_checkpoint", 1e6),
        "model.checkpoint_bytes": max(loop.counts["checkpoint_bytes"],
                                      setup.counts["checkpoint_bytes"]),
        "train.forward_ms_per_step": ms(loop.counts["train_forward_ns"]
                                        + loop.total_ns["train.cross_entropy"]),
        "train.adamw_step.ms": ms(loop.total_ns["train.adamw_step"]),
        "train.evaluate.s": per_call("train.evaluate", 1e9),
        "train.checkpoint_stall_ms": ms(loop.counts["checkpoint_stall_ns"]),
        "data.generate_synthetic.s": per_call("data.generate_synthetic", 1e9),
        "data.load_manifest.s": per_call("data.load_manifest", 1e9),
        "data.read_ppm.ms": per_call("data.read_ppm", 1e6),
        "data.bilinear_resize.ms": per_call("data.bilinear_resize", 1e6),
        "costs.instrumented_forward.ms": ms(loop.total_ns["costs.instrumented_forward"]),
    })
    for s in SUITES:
        values[f"checks.{s}.s"] = loop.total_ns[f"checks.suite_{s}"] / 1e9 * per
    values["checks.loss_evals"] = loop.counts["loss_evals"] * per
    for layer in LAYERS:
        values[f"layer.{layer}.self_ms"] = ms(loop.layer_self_ns[layer])
    values["trace.overhead_ms"] = overhead_ms
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_spec()}


def row_table(loop: Tracer, units: int, unit_name: str) -> list:
    """Text lines: per model_cost row, analytical FLOPs beside measured times."""
    per = 1.0 / max(units, 1)
    lines = [f"per model_cost row, summed over blocks, per {unit_name}:",
             f"  {'row':<12}{'MAC FLOPs':>14}{'fwd ms':>10}{'bwd ms':>10}{'fwd GFLOP/s':>13}"]
    for row in ROWS:
        flops = loop.row_flops[row] * per
        fwd = loop.row_ns[row, "fwd"] / 1e6 * per
        bwd = loop.row_ns[row, "bwd"] / 1e6 * per
        rate = f"{flops / fwd / 1e6:.2f}" if fwd else "-"
        lines.append(f"  {row:<12}{flops:>14.0f}{fwd:>10.3f}{bwd:>10.3f}{rate:>13}")
    return lines


def layer_table(loop: Tracer, units: int, unit_name: str) -> list:
    per = 1.0 / max(units, 1)
    total = sum(loop.layer_self_ns.values()) or 1
    lines = [f"self time per layer, per {unit_name}:"]
    for layer in LAYERS:
        ns = loop.layer_self_ns[layer]
        lines.append(f"  {layer:<10}{ns / 1e6 * per:>10.3f} ms {100.0 * ns / total:6.1f}%")
    return lines
