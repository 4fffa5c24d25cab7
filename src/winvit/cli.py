"""Command-line entry point.

Subcommands: describe (cost tables), check (invariant suites), train,
eval, heatmap. Configuration is a plain key=value file merged with
repeatable --set overrides; every key is schema-checked and unknown keys
are hard errors. Exit codes: 0 success, 1 runtime failure, 2 config
error, 3 checkpoint error.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys

import numpy as np

from .attention import set_fault_bias_sign
from .checks import run_suites
from .costs import model_cost, render_comparison
from .data import (
    SyntheticSpec,
    bilinear_resize,
    generate_synthetic,
    load_manifest,
    read_ppm,
    write_ppm_p5,
)
from .errors import CheckpointError, ConfigError, GeometryError, WinvitError
from .model import Model, ModelConfig, classify, load_checkpoint, save_checkpoint
from .tensor import Tensor, read_file, write_file
from .train import TrainConfig, evaluate, train_loop


def _key(cls, name: str) -> str:
    """The config key of field ``name`` of ``cls``; the dataset's seed is
    data_seed, every other field keeps its own name."""
    return "data_seed" if (cls, name) == (SyntheticSpec, "seed") else name


# key -> (parser, default), taken from the fields of the dataclasses that
# RunConfig builds; fields shared between them share one key
_SCHEMA = {
    _key(cls, f.name): (type(f.default), f.default)
    for cls in (ModelConfig, TrainConfig, SyntheticSpec)
    for f in dataclasses.fields(cls)
}
_SCHEMA.update(dataset=(str, "synthetic"), manifest_path=(str, ""))


class RunConfig:
    """Validated key=value settings for one command invocation."""

    def __init__(self, values: dict):
        self.values = values

    @classmethod
    def load(cls, config_path=None, overrides=(), seed=None) -> "RunConfig":
        values = {k: default for k, (_, default) in _SCHEMA.items()}

        def apply(key, raw, where):
            if key not in _SCHEMA:
                raise ConfigError(f"unknown config key {key!r} ({where})")
            parser, _ = _SCHEMA[key]
            try:
                values[key] = parser(raw)
            except ValueError:
                raise ConfigError(
                    f"config key {key!r} expects {parser.__name__}, got {raw!r} ({where})"
                ) from None

        if config_path is not None:
            try:
                text = read_file(config_path, ConfigError, "config file").decode("utf-8-sig")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
            # CR, LF and CRLF end a line (str.splitlines also splits on \f and U+2028)
            for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{config_path}:{lineno}: expected key=value, got {line!r}")
                key, raw = (part.strip() for part in line.split("=", 1))
                apply(key, raw, f"{config_path}:{lineno}")
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, raw = (part.strip() for part in item.split("=", 1))
            apply(key, raw, "--set")
        if seed is not None:
            values["seed"] = seed
        if values["dataset"] not in ("synthetic", "manifest"):
            raise ConfigError(f"dataset must be synthetic or manifest, got {values['dataset']!r}")
        return cls(values)

    def __getitem__(self, key):
        return self.values[key]

    def _build(self, cls):
        """``cls`` from the settings keyed by its dataclass fields."""
        return cls(**{f.name: self.values[_key(cls, f.name)] for f in dataclasses.fields(cls)})

    def model_config(self) -> ModelConfig:
        return self._build(ModelConfig)

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig)

    def datasets(self) -> dict:
        v = self.values
        if v["dataset"] == "manifest":
            if not v["manifest_path"]:
                raise ConfigError("dataset=manifest requires manifest_path")
            return load_manifest(v["manifest_path"], v["image_size"], v["num_classes"])
        return generate_synthetic(self._build(SyntheticSpec))

    def echo(self) -> str:
        return "\n".join(f"{k}={self.values[k]}" for k in sorted(self.values)) + "\n"


def _ensure_out(out_dir) -> str:
    out = out_dir if out_dir is not None else "winvit_out"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def cmd_describe(run: RunConfig, args) -> int:
    config = run.model_config()
    out = _ensure_out(args.out)
    windowed = model_cost(config, "windowed")
    global_ = model_cost(config, "global")
    print(render_comparison(windowed, global_))
    csv_path = os.path.join(out, "describe.csv")
    rows = ["layer,name,params,flops,variant", *windowed.csv_lines(), *global_.csv_lines()]
    text = ("\n".join(rows) + "\n").encode()
    write_file(csv_path, lambda f: f.write(text), ConfigError)
    print(f"\ncsv written to {csv_path}")
    return 0


def cmd_check(run: RunConfig, args) -> int:
    run.model_config()  # validate geometry keys even though suites pin their own
    set_fault_bias_sign(args.fault_bias_sign)
    try:
        ok, results = run_suites(tight_gradients=args.f64)
    finally:
        set_fault_bias_sign(False)
    width = max(len(name) for name, _, _ in results)
    for name, passed, detail in results:
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
    print(f"\n{'all suites passed' if ok else 'SUITE FAILURES PRESENT'}")
    return 0 if ok else 1


# the val metrics line of train ("final val: ...") and eval
_METRICS_LINE = "acc={acc:.4f} pre={precision:.4f} rec={recall:.4f} f1={f1:.4f}"


def cmd_train(run: RunConfig, args) -> int:
    config = run.model_config()
    tcfg = run.train_config()
    data = run.datasets()
    out = _ensure_out(args.out)
    model = Model(config)
    echo = run.echo().encode(errors="surrogateescape")  # keeps argv bytes that are not UTF-8
    write_file(os.path.join(out, "config_resolved.txt"), lambda f: f.write(echo), ConfigError)
    state, rows = train_loop(
        model,
        data["train"],
        data["val"],
        tcfg,
        metrics_path=os.path.join(out, "metrics.csv"),
        checkpoint_dir=out,
    )
    ckpt = os.path.join(out, "checkpoint.wmh")
    save_checkpoint(model, ckpt)
    print(f"trained {state.step} steps; checkpoint: {ckpt}")
    # train_loop evaluates at its final step, on the weights just saved
    if state.last_val is not None:
        print("final val: " + _METRICS_LINE.format(**state.last_val))
    return 0


def _load_model(run: RunConfig, args) -> Model:
    """The model in ``--checkpoint``, which must match the run's config."""
    if args.checkpoint is None:
        raise ConfigError(f"{args.command} requires --checkpoint")
    return load_checkpoint(args.checkpoint, run.model_config())


def cmd_eval(run: RunConfig, args) -> int:
    model = _load_model(run, args)
    data = run.datasets()
    val = data["val"]
    if not len(val.images):
        raise ConfigError("validation split is empty")
    _, measured = evaluate(model, val)
    print(_METRICS_LINE.format(**measured))
    return 0


def _to_u8(values: np.ndarray) -> np.ndarray:
    """Min-max scale to [0,255]; a constant map keeps its own gray level."""
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo < 1e-12:
        return np.clip(np.round(values * 255.0), 0, 255).astype(np.uint8)
    return np.round((values - lo) / (hi - lo) * 255.0).astype(np.uint8)


def _upsample(img: np.ndarray, factor: int) -> np.ndarray:
    return np.repeat(np.repeat(img, factor, axis=0), factor, axis=1)


def cmd_heatmap(run: RunConfig, args) -> int:
    model = _load_model(run, args)
    config = model.config
    if args.image is not None:
        raw = read_ppm(args.image)
        image = Tensor(
            bilinear_resize(raw, config.image_size, config.image_size).astype(np.float32)
        )
    else:
        val = run.datasets()["val"]
        if not len(val.images):
            raise ConfigError("no validation image available; pass --image")
        image = val.images[0]
    g = config.grid
    m = config.window
    tokens = config.tokens
    token = tokens // 2 if args.token is None else args.token
    if not 0 <= token < tokens:
        raise ConfigError(f"token index {token} outside [0, {tokens})")
    out = _ensure_out(args.out)

    capture = []
    logits = classify(image, model, training=False, capture=capture)
    pred = int(np.argmax(logits.data))
    factor = config.patch_size
    r, c = divmod(token, g)
    wr, wc = r // m, c // m
    win_index = wr * (g // m) + wc
    pos = (r % m) * m + (c % m)
    written = []
    for i, cap in enumerate(capture):
        sam = cap["sam"].data[0]
        path = os.path.join(out, f"block{i}_sam.ppm")
        write_ppm_p5(path, _upsample(_to_u8(sam), factor))
        written.append(path)
        attn = cap["attn"].data  # (N, heads, M^2, M^2)
        for j in range(attn.shape[1]):
            row = attn[win_index, j, pos]
            full = np.zeros((g, g))
            full[wr * m:(wr + 1) * m, wc * m:(wc + 1) * m] = row.reshape(m, m)
            path = os.path.join(out, f"block{i}_head{j}.ppm")
            write_ppm_p5(path, _upsample(_to_u8(full), factor))
            written.append(path)
    print(f"predicted class {pred}; query token {token} (row {r}, col {c})")
    print(f"wrote {len(written)} maps to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winvit",
        description="windowed-attention vision classifier: costs, checks, training, heatmaps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        """A subcommand with the options every command takes; ``main``
        calls ``handler(run, args)``."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--config", metavar="PATH", help="key=value config file")
        p.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            dest="overrides",
            help="override one config key (repeatable)",
        )
        p.add_argument("--seed", type=int, help="override the seed key")
        p.add_argument("--out", metavar="DIR", help="output directory (default winvit_out)")
        return p

    command("describe", cmd_describe, "analytical cost tables for both attention variants")
    p = command("check", cmd_check, "run the invariant suites")
    p.add_argument("--f64", action="store_true", help="tighten the gradient tolerance to 1e-5")
    p.add_argument("--fault-bias-sign", action="store_true", help=argparse.SUPPRESS)
    command("train", cmd_train, "train on the configured dataset")
    p = command("eval", cmd_eval, "evaluate a checkpoint on the val split")
    p.add_argument("--checkpoint", metavar="PATH")
    p = command("heatmap", cmd_heatmap, "export spatial-gate and attention maps as PPM")
    p.add_argument("--checkpoint", metavar="PATH")
    p.add_argument("--image", metavar="PPM", help="query image (default: first val sample)")
    p.add_argument("--token", type=int, help="query token index (default: center)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = RunConfig.load(args.config, args.overrides, args.seed)
        return args.handler(run, args)
    except (ConfigError, GeometryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 3
    except WinvitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the allocation that failed
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
