"""The three workloads. Each is a closed loop with one client: the next unit
of work starts when the previous one has returned.

- train-desk: fixed-schedule ``train_loop`` runs on the desk recipe. The
  only workload that runs backward, the tape, AdamW and checkpoint writes.
- eval-manifest: a fixture checkpoint classifies a PPM manifest set, as
  ``evaluate`` passes (throughput) and single ``classify`` calls (latency).
  Forward only, and the only workload that runs the PPM reader and resize.
- check-f64: ``run_suites(tight_gradients=True)`` (``winvit check --f64``),
  thousands of tiny float64 graphs, so its time is per-call overhead.

Every workload reports the same end-to-end metrics (see ``E2E``); what a
pass, an image and an operation are differs per workload and is listed in
perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import recipe
import tracing
from child import FIXTURE_CHECKPOINT, MANIFEST

HERE = os.path.dirname(os.path.abspath(__file__))

# (name, unit); which way is better and each bound are in BENCHMARK.json
E2E = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("images_per_s", "1/s"),
    ("op_ms_p90", "ms"),
    ("quality", "ratio"),
)
# Timings are the 90th percentile of many short samples, not medians, and
# no metric rests on a few long passes. The host alternates, over minutes,
# between a loaded state and one in which part of the calls run up to 40%
# faster; the 90th percentile of many calls stays with the loaded speed in
# both states, while medians, means, lower quantiles and pass times jump
# between them from one run to the next. Those are printed, not reported.
TAIL = 90

SETUP_REPS = 7


class Outcome:
    """What one run measured and whether its outputs were right."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}
        self.report = []  # (name, value, unit, note) lines printed above the result
        self.samples = {}
        self.tables = []  # text lines of a traced run
        self.tracer = None

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok


def _pct(ns_values, q, scale=1e6):
    return float(np.percentile(ns_values, q)) / scale


def _child(args, timeout):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed:\n{proc.stderr}")
    return proc.stdout


def setup_seconds(workload: str, seed: int, workdir: str) -> list:
    """Set-up time of SETUP_REPS fresh processes, one after another."""
    return [float(_child(["setup", workload, str(seed), workdir], 120).split()[-1])
            for _ in range(SETUP_REPS)]


def _more(start_ns: int, seconds: float, durations_ns: list, minimum: int) -> bool:
    """Start another unit if fewer than ``minimum`` ran or it should end in time."""
    if len(durations_ns) < minimum:
        return True
    return time.perf_counter_ns() - start_ns + durations_ns[-1] <= seconds * 1e9


def _mac_check(winvit, out: Outcome, model, image) -> int:
    """Counted MACs of one forward equal the analytical windowed total."""
    _, counter = winvit.instrumented_forward(model, image)
    analytic = winvit.model_cost(model.config, "windowed").total_flops
    out.check(counter.mac_flops == analytic,
              f"counted MAC FLOPs {counter.mac_flops} != model_cost total {analytic}")
    return counter.mac_flops


def _end_to_end(out: Outcome, setup, images_per_unit, unit_ns, op_ns, quality, pass_ns, names):
    """Fill the end-to-end metrics and the report lines.

    ``unit_ns`` are the times of the unit ``images_per_unit`` images go
    through; ``pass_ns`` the times of whole passes, printed only; ``names``
    maps metric names to what this workload calls them.
    """
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "images_per_s": images_per_unit / _pct(unit_ns, TAIL, 1e9),
        "op_ms_p90": _pct(op_ns, TAIL),
        "quality": quality,
    }
    out.metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
    out.samples = {"setup": len(setup), "units": len(unit_ns), "ops": len(op_ns),
                   "passes": len(pass_ns)}
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "images_per_s": f"{images_per_unit:g} per unit, over the p{TAIL} of {len(unit_ns)} units",
        "op_ms_p90": f"{len(op_ns)} operations",
    }
    out.report = [(names.get(name, name), values[name], unit, notes.get(name, ""))
                  for name, unit in E2E]
    op = names["op"]
    out.report += [(f"{op}_p50", _pct(op_ns, 50), "ms", "median, not a metric"),
                   (f"{op}_p75", _pct(op_ns, 75), "ms", "not a metric"),
                   (f"{op}_p99", _pct(op_ns, 99), "ms", "not a metric"),
                   (names["pass"], _pct(pass_ns, 50, 1e9), "s",
                    f"median of {len(pass_ns)} passes, not a metric")]


def _per_layer(out: Outcome, loop, setup_tracer, units, unit_name, untraced_ms, traced_ms, mac):
    overhead = traced_ms - untraced_ms
    out.metrics = tracing.per_layer_metrics(loop, setup_tracer, units, overhead,
                                            100.0 * overhead / untraced_ms, mac)
    out.tables = (tracing.row_table(loop, units, unit_name)
                  + tracing.layer_table(loop, units, unit_name)
                  + [f"tracing overhead: {overhead:.3f} ms per {unit_name} "
                     f"({untraced_ms:.3f} untraced, {traced_ms:.3f} traced)"])
    out.tracer = loop


# ---------------------------------------------------------------------------
# train-desk


def train_desk(winvit, seed, seconds, trace, workdir) -> Outcome:
    out = Outcome("train-desk")
    setup = setup_seconds(out.workload, seed, workdir)
    setup_tracer = tracing.Tracer()
    with setup_tracer if trace else contextlib.nullcontext():
        data = recipe.train_data(winvit, seed)
    config = recipe.model_config(winvit, seed)
    tcfg = recipe.train_config(winvit, seed)
    expected_steps = recipe.total_steps()
    train_module = sys.modules["winvit.train"]

    step_ns, traced_steps, pass_ns, first_rows = [], [], [], None
    quality = 0.0
    loop = tracing.Tracer()
    start = time.perf_counter_ns()
    # traced runs: the first pass untraced, the second traced; both record
    # step times, so their difference is the tracing overhead
    while len(pass_ns) < 2 or not trace and _more(start, seconds, pass_ns, 2):
        traced = trace and len(pass_ns) == 1
        sink = traced_steps if traced else step_ns
        steps_before = len(sink)
        patches = tracing.Patches()
        if traced:
            loop.unit = len(pass_ns)
            loop.install()
        tracing.record_steps(patches, train_module, sink)
        model = winvit.Model(config)
        ckpt_dir = os.path.join(workdir, f"pass{len(pass_ns)}")
        os.makedirs(ckpt_dir)
        t0 = time.perf_counter_ns()
        try:
            state, rows = winvit.train_loop(model, data["train"], data["val"], tcfg,
                                            checkpoint_dir=ckpt_dir)
        except winvit.WinvitError as exc:
            state, rows = None, None
            out.check(False, f"train_loop raised {exc!r}")
        finally:
            pass_ns.append(time.perf_counter_ns() - t0)
            patches.undo()
            if traced:
                loop.uninstall()
        out.attempted += expected_steps
        steps = len(sink) - steps_before
        if state is None or not out.check(state.step == expected_steps == steps,
                                          f"pass ran {steps} steps, expected {expected_steps}"):
            out.failed += expected_steps
            continue
        if first_rows is None:
            first_rows = rows
            quality = float(rows[-1].split(",")[3])
        elif not out.check(rows == first_rows, "same-seed train_loop rows differ between passes"):
            out.failed += expected_steps
    mac = _mac_check(winvit, out, model, data["val"].images[0])

    if trace:
        _per_layer(out, loop, setup_tracer, len(traced_steps), "train step",
                   _pct(step_ns, 50), _pct(traced_steps, 50), mac)
    else:
        _end_to_end(out, setup, recipe.BATCH, step_ns, step_ns, quality, pass_ns,
                    {"pass": "train_loop_s", "images_per_s": "train_images_per_s",
                     "quality": "val_acc", "op": "train_step_ms"})
    return out


# ---------------------------------------------------------------------------
# eval-manifest


def eval_manifest(winvit, seed, seconds, trace, workdir) -> Outcome:
    out = Outcome("eval-manifest")
    _child(["fixture", str(seed), workdir], 170)
    setup = setup_seconds(out.workload, seed, workdir)
    setup_tracer = tracing.Tracer()
    with setup_tracer if trace else contextlib.nullcontext():
        model = winvit.load_checkpoint(os.path.join(workdir, FIXTURE_CHECKPOINT))
        dataset = winvit.load_manifest(os.path.join(workdir, MANIFEST), recipe.IMAGE_SIZE,
                                       recipe.NUM_CLASSES)["val"]
    n = len(dataset.images)
    k = model.config.num_classes

    eval_ns, eval_image_ns, classify_ns, traced_ns, cycle_ns = [], [], [], [], []
    quality = None
    loop = tracing.Tracer()
    patches = tracing.Patches()
    if not trace:
        # per-image times inside evaluate; the direct calls below go through
        # winvit.classify, not the binding evaluate uses
        tracing.record_calls(patches, sys.modules["winvit.train"], "classify", eval_image_ns)
    start = time.perf_counter_ns()
    # one cycle: an evaluate pass, then every image classified twice on its
    # own, so about two thirds of the run yields single-call latencies;
    # traced runs trace every cycle after the first
    while _more(start, seconds, cycle_ns, 2 if trace else 1):
        cycle_start = time.perf_counter_ns()
        traced = trace and len(cycle_ns) > 0
        if traced and len(cycle_ns) == 1:
            loop.install()
        loop.unit = len(cycle_ns)
        t0 = time.perf_counter_ns()
        confusion, measured = winvit.evaluate(model, dataset)
        eval_ns.append(time.perf_counter_ns() - t0)
        out.attempted += n
        if quality is None:
            quality = measured["acc"]
        if not (out.check(int(confusion.sum()) == n, f"confusion total {confusion.sum()} != {n} images")
                and out.check(measured["acc"] == quality, "evaluate accuracy changed between passes")):
            out.failed += n
        predicted = np.zeros((k, k), dtype=np.int64)
        sink = traced_ns if traced else classify_ns
        for _ in range(2):
            for image, label in zip(dataset.images, dataset.labels):
                t0 = time.perf_counter_ns()
                logits = winvit.classify(image, model)
                sink.append(time.perf_counter_ns() - t0)
                out.attempted += 1
                if not out.check(logits.shape == (k,) and bool(np.isfinite(logits.data).all()),
                                 f"classify returned non-finite or misshapen logits {logits!r}"):
                    out.failed += 1
                    continue
                predicted[label, int(np.argmax(logits.data))] += 1
        out.check(np.array_equal(predicted, 2 * confusion),
                  "classify predictions disagree with the evaluate confusion matrix")
        cycle_ns.append(time.perf_counter_ns() - cycle_start)
    patches.undo()
    if trace:
        loop.uninstall()
    mac = _mac_check(winvit, out, model, dataset.images[0])

    if trace:
        _per_layer(out, loop, setup_tracer, loop.calls["model.classify"], "image",
                   _pct(classify_ns, 50), _pct(traced_ns, 50), mac)
    else:
        _end_to_end(out, setup, 1, eval_image_ns, classify_ns, quality, eval_ns,
                    {"pass": "evaluate_pass_s", "images_per_s": "eval_images_per_s",
                     "quality": "val_acc", "op": "classify_ms"})
    return out


# ---------------------------------------------------------------------------
# check-f64


def check_f64(winvit, seed, seconds, trace, workdir) -> Outcome:
    out = Outcome("check-f64")
    setup = setup_seconds(out.workload, seed, workdir)
    checks = sys.modules["winvit.checks"]
    pass_ns, op_ns, shares = [], [], []
    loop = tracing.Tracer()
    patches = tracing.Patches()
    tracing.record_calls(patches, checks, "classify", op_ns)
    start = time.perf_counter_ns()
    try:
        # traced runs: the first pass untraced, then traced passes
        while _more(start, seconds, pass_ns, 2 if trace else 1):
            if trace and len(pass_ns) == 1:
                patches.undo()
                loop.install()
                tracing.record_calls(patches, checks, "classify", op_ns)
            loop.unit = len(pass_ns)
            t0 = time.perf_counter_ns()
            ok, results = checks.run_suites(tight_gradients=True)
            pass_ns.append(time.perf_counter_ns() - t0)
            out.attempted += 1
            shares.append(sum(passed for _, passed, _ in results) / len(results))
            failing = [f"{name}: {detail}" for name, passed, detail in results if not passed]
            if not out.check(ok, f"check suites failed: {failing}"):
                out.failed += 1
    finally:
        patches.undo()
        if trace:
            loop.uninstall()

    # canary: with the bias sign flipped the suites must report failure
    attention = sys.modules["winvit.attention"]
    attention.set_fault_bias_sign(True)
    try:
        canary_ok, _ = checks.run_suites(tight_gradients=True)
    finally:
        attention.set_fault_bias_sign(False)
    out.check(not canary_ok, "suites passed with set_fault_bias_sign(True)")

    model = winvit.Model(recipe.model_config(winvit, seed))
    rng = np.random.default_rng(recipe.derive_seed(seed, "image"))
    image = winvit.Tensor(rng.uniform(0.0, 1.0, (3, recipe.IMAGE_SIZE, recipe.IMAGE_SIZE)))
    mac = _mac_check(winvit, out, model, image)

    if trace:
        _per_layer(out, loop, tracing.Tracer(), len(pass_ns) - 1, "suite pass",
                   pass_ns[0] / 1e6, _pct(pass_ns[1:], 50), mac)
    else:
        _end_to_end(out, setup, 1, op_ns, op_ns, statistics.median(shares), pass_ns,
                    {"pass": "check_s", "images_per_s": "loss_evals_per_s",
                     "quality": "suites_passing", "op": "loss_eval_ms"})
    return out


WORKLOADS = {"train-desk": train_desk, "eval-manifest": eval_manifest, "check-f64": check_f64}
