"""Optimizer, schedule, metrics, and training-loop tests.

The optimizer oracle is the update recurrence transcribed by hand in
float64 inside the tests; the library must track it to 1e-10 over dozens
of steps. The loop tests run a real (tiny) model on real (tiny) synthetic
data, checking determinism and the overfit-one-sample sanity bar.
"""

import math

import numpy as np
import pytest

import winvit.train as train_mod
from winvit import tensor as tc
from winvit.data import SyntheticSpec, generate_synthetic
from winvit.errors import ConfigError, DivergenceError
from winvit.model import Model, ModelConfig, classify
from winvit.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    METRICS_HEADER,
    TrainConfig,
    TrainState,
    adamw_step,
    cosine_lr,
    cross_entropy,
    evaluate,
    metrics,
    train_loop,
)

TINY_MODEL = dict(
    image_size=16, patch_size=4, embed_dim=8, depth=1, heads=2, window=2,
    mlp_ratio=2, num_classes=3,
)


def tiny_data(samples_per_class=5, seed=0):
    return generate_synthetic(
        SyntheticSpec(samples_per_class=samples_per_class, image_size=16, seed=seed)
    )


# ---------------------------------------------------------------------------
# learning-rate schedule


class TestCosineSchedule:
    def test_endpoints_are_exact(self):
        assert cosine_lr(0, 100, lr_init=7e-4, lr_min=1e-6) == 7e-4
        np.testing.assert_allclose(
            cosine_lr(100, 100, lr_init=7e-4, lr_min=1e-6), 1e-6, rtol=1e-12
        )

    def test_midpoint_is_mean(self):
        lr = cosine_lr(50, 100, lr_init=6e-4, lr_min=2e-4)
        np.testing.assert_allclose(lr, 4e-4, rtol=1e-12)

    def test_strictly_decreasing(self):
        vals = [cosine_lr(s, 200, lr_init=1e-3, lr_min=1e-6) for s in range(201)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_closed_form_pointwise(self):
        for s in (0, 17, 63, 150):
            got = cosine_lr(s, 150, lr_init=5e-4, lr_min=1e-5)
            want = 1e-5 + 0.5 * (5e-4 - 1e-5) * (1 + math.cos(math.pi * s / 150))
            np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_range_errors(self):
        with pytest.raises(ConfigError):
            cosine_lr(-1, 100)
        with pytest.raises(ConfigError):
            cosine_lr(101, 100)
        with pytest.raises(ConfigError):
            cosine_lr(0, 0)


# ---------------------------------------------------------------------------
# optimizer


def hand_adamw(p0, grads_per_step, lr, wd, steps):
    """Reference recurrence, float64, transcribed independently."""
    p = p0.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t in range(1, steps + 1):
        g = grads_per_step(p, t)
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1**t)
        vhat = v / (1 - ADAM_BETA2**t)
        p = p - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        p = p - lr * wd * p
    return p


class TestAdamW:
    def test_zero_gradient_zero_decay_is_fixed_point(self):
        p = tc.Tensor(np.array([1.0, -2.0, 3.0]))
        state = TrainState.init([("p", p)])
        before = p.data.copy()
        for _ in range(5):
            adamw_step(state, tc.Gradients({}), lr=1e-2, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, before)
        assert state.step == 5

    def test_pure_decay_closed_form(self):
        # zero gradients, nonzero decay: p_t = p_0 (1 - lr wd)^t
        p = tc.Tensor(np.array([1.0, -2.0, 0.5], dtype=np.float64))
        state = TrainState.init([("p", p)])
        lr, wd, steps = 1e-2, 0.1, 40
        for _ in range(steps):
            adamw_step(state, tc.Gradients({}), lr=lr, weight_decay=wd)
        expected = np.array([1.0, -2.0, 0.5]) * (1 - lr * wd) ** steps
        np.testing.assert_allclose(p.data, expected, rtol=1e-10)

    def test_quadratic_bowl_tracks_hand_recurrence(self):
        # loss = 0.5 sum(p^2) so the gradient is p itself at each step
        rng = np.random.default_rng(170)
        p0 = rng.normal(size=(6,))
        p = tc.Tensor(p0.astype(np.float64))
        state = TrainState.init([("p", p)])
        lr, wd, steps = 3e-2, 0.05, 30
        for _ in range(steps):
            with tc.Tape() as tape:
                loss = tc.mul(tc.reduce_sum(tc.mul(p, p)), 0.5)
            grads = tc.backward(loss, tape)
            adamw_step(state, grads, lr=lr, weight_decay=wd)
        ref = hand_adamw(p0, lambda q, t: q, lr, wd, steps)
        np.testing.assert_allclose(p.data, ref, atol=1e-10)

    def test_constant_gradient_first_step_is_signed_lr(self):
        # bias correction makes the first update lr * g/(|g| + eps)
        p = tc.Tensor(np.array([0.0, 0.0], dtype=np.float64))
        state = TrainState.init([("p", p)])
        g = np.array([0.3, -0.7])
        adamw_step(state, tc.Gradients({id(p): g}), lr=1e-2, weight_decay=0.0)
        np.testing.assert_allclose(p.data, [-1e-2, 1e-2], rtol=1e-6)

    def test_decay_is_decoupled_from_moments(self):
        # with decay on, a zero-gradient parameter still shrinks while the
        # moments stay exactly zero
        p = tc.Tensor(np.array([4.0]))
        state = TrainState.init([("p", p)])
        adamw_step(state, tc.Gradients({}), lr=0.1, weight_decay=0.5)
        m, v = state.moments["p"]
        assert np.all(m == 0) and np.all(v == 0)
        np.testing.assert_allclose(p.data, [4.0 * (1 - 0.05)], rtol=1e-6)

    def test_gradient_shape_mismatch_rejected(self):
        p = tc.Tensor(np.zeros(3))
        state = TrainState.init([("p", p)])
        with pytest.raises(ConfigError):
            adamw_step(state, tc.Gradients({id(p): np.zeros((2,))}), lr=1e-3)


# ---------------------------------------------------------------------------
# cross-entropy delegate


class TestCrossEntropy:
    def test_uniform_logits_log_k(self):
        loss = cross_entropy(tc.zeros((4, 7), dtype=np.float64), np.arange(4) % 7)
        np.testing.assert_allclose(loss.item(), math.log(7), rtol=1e-12)

    def test_matches_explicit_softmax_nll(self):
        rng = np.random.default_rng(171)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        got = cross_entropy(tc.Tensor(logits), labels).item()
        ref = 0.0
        for i in range(5):
            z = logits[i] - logits[i].max()
            ref -= z[labels[i]] - math.log(np.exp(z).sum())
        np.testing.assert_allclose(got, ref / 5, rtol=1e-6)


# ---------------------------------------------------------------------------
# metrics


class TestMetrics:
    def test_perfect_diagonal(self):
        m = metrics(np.diag([7, 5, 9]))
        assert m == {"acc": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_chance_level_uniform_confusion(self):
        m = metrics(np.full((3, 3), 4))
        np.testing.assert_allclose(m["acc"], 1 / 3)
        np.testing.assert_allclose(m["precision"], 1 / 3)
        np.testing.assert_allclose(m["recall"], 1 / 3)

    def test_hand_worked_confusion(self):
        conf = np.array([[5, 1, 0], [0, 4, 2], [1, 0, 7]])
        m = metrics(conf)
        np.testing.assert_allclose(m["acc"], 16 / 20)
        precs = [5 / 6, 4 / 5, 7 / 9]
        recs = [5 / 6, 4 / 6, 7 / 8]
        f1s = [2 * p * r / (p + r) for p, r in zip(precs, recs)]
        np.testing.assert_allclose(m["precision"], np.mean(precs), rtol=1e-12)
        np.testing.assert_allclose(m["recall"], np.mean(recs), rtol=1e-12)
        np.testing.assert_allclose(m["f1"], np.mean(f1s), rtol=1e-12)

    def test_never_predicted_class_warns_and_zeroes(self):
        conf = np.array([[4, 0], [2, 0]])  # class 1 never predicted
        with pytest.warns(UserWarning, match="never predicted"):
            m = metrics(conf)
        np.testing.assert_allclose(m["precision"], (4 / 6 + 0.0) / 2)

    def test_absent_class_warns(self):
        conf = np.array([[4, 1], [0, 0]])  # class 1 absent from labels
        with pytest.warns(UserWarning, match="absent"):
            metrics(conf)

    def test_bad_confusions_rejected(self):
        with pytest.raises(ConfigError):
            metrics(np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            metrics(np.array([[1, -1], [0, 2]]))


# ---------------------------------------------------------------------------
# training loop


class TestTrainLoop:
    def test_single_sample_overfits(self):
        # one image, one class: loss must collapse below 1e-2 well inside
        # 200 steps or the optimizer/gradient plumbing is broken
        data = tiny_data(samples_per_class=5)
        train_set = data["train"]
        train_set.images = train_set.images[:1]
        train_set.labels = train_set.labels[:1]
        model = Model(ModelConfig(**TINY_MODEL))
        cfg = TrainConfig(epochs=200, batch_size=1, lr_init=5e-3, weight_decay=0.0)
        _, rows = train_loop(model, train_set, data["val"], cfg)
        losses = [float(r.split(",")[2]) for r in rows[1:]]
        assert min(losses) < 1e-2, f"best loss {min(losses):.4f}"

    def test_determinism_bit_identical(self, tmp_path):
        results = []
        for run in range(2):
            data = tiny_data()
            model = Model(ModelConfig(**TINY_MODEL, seed=3))
            cfg = TrainConfig(epochs=2, batch_size=4, seed=5)
            path = tmp_path / f"metrics{run}.csv"
            _, rows = train_loop(model, data["train"], data["val"], cfg, metrics_path=path)
            results.append((rows, path.read_bytes(), model))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]
        for (_, ta), (_, tb) in zip(results[0][2].named_params(), results[1][2].named_params()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_metrics_file_schema(self, tmp_path):
        data = tiny_data()
        model = Model(ModelConfig(**TINY_MODEL))
        n = len(data["train"].images)
        cfg = TrainConfig(epochs=2, batch_size=4)
        path = tmp_path / "metrics.csv"
        train_loop(model, data["train"], data["val"], cfg, metrics_path=path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == METRICS_HEADER == "step,lr,loss,acc,pre,rec,f1"
        steps_per_epoch = math.ceil(n / 4)
        assert len(lines) == 1 + 2 * steps_per_epoch
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 7
            int(fields[0])
            float(fields[1]), float(fields[2])
        # per-epoch rows carry measured values, the rest are blank
        last = lines[-1].split(",")
        assert all(f != "" for f in last)

    def test_eval_every_and_checkpoints(self, tmp_path):
        data = tiny_data()
        model = Model(ModelConfig(**TINY_MODEL))
        n = len(data["train"].images)  # 12 train images at 5 per class x 3
        cfg = TrainConfig(epochs=1, batch_size=4, eval_every=2)
        train_loop(
            model, data["train"], data["val"], cfg,
            checkpoint_dir=tmp_path,
        )
        steps = math.ceil(n / 4)
        expected = sorted(
            {s for s in range(1, steps + 1) if s % 2 == 0} | {steps}
        )
        found = sorted(
            int(p.stem.replace("ckpt_step", "")) for p in tmp_path.glob("ckpt_step*.wmh")
        )
        assert found == expected

    def test_partial_last_batch_is_one_smaller_graph(self, monkeypatch):
        # 12 training images at batch size 5: batches of 5, 5 and 2, each
        # classified as one (B, 3, S, S) tensor in permutation order
        data = tiny_data()
        images = data["train"].images
        seen = []

        def recording_classify(image, model, training=False, **kwargs):
            if training:
                seen.append(image.data.copy())
            return classify(image, model, training=training, **kwargs)

        monkeypatch.setattr(train_mod, "classify", recording_classify)
        cfg = TrainConfig(epochs=1, batch_size=5, seed=9)
        model = Model(ModelConfig(**TINY_MODEL))
        _, rows = train_loop(model, data["train"], data["val"], cfg)
        assert [batch.shape[0] for batch in seen] == [5, 5, 2]
        order = np.random.default_rng(cfg.seed).permutation(len(images))
        np.testing.assert_array_equal(seen[2], np.stack([images[i].data for i in order[10:]]))
        assert len(rows) == 1 + 3
        assert all(math.isfinite(float(r.split(",")[2])) for r in rows[1:])

    def test_lr_column_follows_cosine(self):
        data = tiny_data()
        model = Model(ModelConfig(**TINY_MODEL))
        cfg = TrainConfig(epochs=2, batch_size=4)
        _, rows = train_loop(model, data["train"], data["val"], cfg)
        n = len(data["train"].images)
        total = 2 * math.ceil(n / 4)
        for i, row in enumerate(rows[1:]):
            lr = float(row.split(",")[1])
            np.testing.assert_allclose(
                lr, cosine_lr(i, total, cfg.lr_init, cfg.lr_min), rtol=1e-9
            )

    def test_divergence_guard_streak(self, monkeypatch):
        # a destructive learning rate sends the loss far above its start;
        # with patience 1 the second bad step must abort
        monkeypatch.setattr(train_mod, "DIVERGENCE_PATIENCE", 1)
        data = tiny_data()
        model = Model(ModelConfig(**TINY_MODEL))
        cfg = TrainConfig(epochs=50, batch_size=4, lr_init=30.0, weight_decay=0.0)
        with pytest.raises(DivergenceError):
            train_loop(model, data["train"], data["val"], cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_activation_is_divergence(self, value):
        # a non-finite fc1 output reaches gelu; the step must end in the
        # loop's DivergenceError, not in an exception from inside an op
        data = tiny_data()
        model = Model(ModelConfig(**TINY_MODEL))
        dict(model.named_params())["block0.fc1_bias"].data[0] = value
        with pytest.raises(DivergenceError, match="non-finite loss"):
            train_loop(model, data["train"], data["val"], TrainConfig(epochs=1, batch_size=4))

    def test_empty_train_split_rejected(self):
        data = tiny_data()
        data["train"].images = []
        data["train"].labels = []
        model = Model(ModelConfig(**TINY_MODEL))
        with pytest.raises(Exception):
            train_loop(model, data["train"], data["val"], TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr_init=1e-6, lr_min=1e-4)
        with pytest.raises(ConfigError):
            TrainConfig(weight_decay=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(eval_every=-1)


class TestEvaluate:
    def test_untrained_model_is_exactly_chance(self):
        # the zero head ties every logit, argmax picks class 0, and the
        # balanced val split makes accuracy exactly 1/num_classes
        data = tiny_data(samples_per_class=10)
        model = Model(ModelConfig(**TINY_MODEL))
        confusion, m = evaluate(model, data["val"])
        assert confusion[:, 0].sum() == confusion.sum()
        np.testing.assert_allclose(m["acc"], 1 / 3)

    def test_confusion_counts_sum_to_dataset(self):
        data = tiny_data()
        model = Model(ModelConfig(**TINY_MODEL))
        confusion, _ = evaluate(model, data["val"])
        assert confusion.sum() == len(data["val"].images)
