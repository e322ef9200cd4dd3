import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pendetect.errors import NonFiniteGradient
from pendetect.features import FeatureMatrix
from pendetect.nn import (
    CELLS,
    Adam,
    Conv1dSpec,
    ModelSpec,
    RecurrentSpec,
    SequenceClassifier,
    TrainConfig,
    bce_loss,
    closed_form_parameter_count,
    gradient_check,
    predict,
    train_model,
    train_step,
)
from pendetect.signal_io import LABEL_TO_Y


def _fm(values, label="PD", subject="s", task="t"):
    values = np.asarray(values, dtype=np.float64)
    return FeatureMatrix(
        values=values,
        column_names=[f"f{j}" for j in range(values.shape[1])],
        column_groups=["raw"] * values.shape[1],
        label=label,
        subject_id=subject,
        task_id=task,
    )


def _toy_set(n_per_class, t, m, seed, shift=2.0):
    """Linearly separable toy data: class mean shift on every channel."""
    rng = np.random.default_rng(seed)
    data = []
    for y, sign in ((0, -1.0), (1, 1.0)):
        for i in range(n_per_class):
            values = rng.normal(size=(t, m)) + sign * shift
            data.append((_fm(values, subject=f"s{y}{i}"), y))
    return data


def _batch(pairs):
    """(B, T, m) values, (B,) targets and ids of pairs, stacked per batch."""
    x = np.stack([fm.values for fm, _ in pairs])
    y = np.array([y for _, y in pairs], dtype=np.float64)
    return x, y, [f"{fm.subject_id}/{fm.task_id}" for fm, _ in pairs]


def _stack(pairs):
    """(T, N, m) values, (N,) targets and ids of pairs, as train_model takes them."""
    x, y, ids = _batch(pairs)
    return np.ascontiguousarray(x.transpose(1, 0, 2)), y, ids


def _small_model(seed=0, cell="gru", m=3):
    spec = ModelSpec(
        conv_layers=(),
        recurrent_layers=(RecurrentSpec(cell, 4, bidirectional=True),),
    )
    return SequenceClassifier(spec, m, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# bce

def test_bce_at_half_is_ln2():
    assert bce_loss(0.0, 0) == pytest.approx(math.log(2), rel=1e-12)
    assert bce_loss(0.0, 1) == pytest.approx(math.log(2), rel=1e-12)


def test_bce_monotone_toward_label():
    losses_1 = [bce_loss(z, 1) for z in (0.5, 2.0, 5.0, 10.0)]
    assert losses_1 == sorted(losses_1, reverse=True)
    losses_0 = [bce_loss(z, 0) for z in (-0.5, -2.0, -5.0, -10.0)]
    assert losses_0 == sorted(losses_0, reverse=True)


def test_bce_clamp_keeps_loss_finite():
    # no clamp any more: the loss is formed from the logit and stays finite
    # and exact where sigmoid(logit) rounds to 0 or 1
    assert bce_loss(-1000.0, 1) == 1000.0
    assert bce_loss(1000.0, 0) == 1000.0
    assert bce_loss(1000.0, 1) == 0.0
    np.testing.assert_allclose(
        bce_loss(np.array([-2.0, 3.0]), np.array([1.0, 0.0])),
        [-math.log(_sigmoid(-2.0)), -math.log1p(-_sigmoid(3.0))],
        rtol=1e-12,
    )


def test_bce_from_logit_does_not_saturate():
    # computed from a clamped probability this read -ln(1e-7) = 16.1
    assert bce_loss(-40.0, 1) == pytest.approx(40.0, rel=1e-15)


def _sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


# ---------------------------------------------------------------------------
# adam

def test_adam_zero_gradients_leave_params_unchanged():
    theta = np.array([1.0, -2.0])
    opt = Adam(theta, TrainConfig(learning_rate=0.1))
    for _ in range(3):
        opt.step(np.zeros(2))
    np.testing.assert_array_equal(theta, [1.0, -2.0])
    assert opt.step_count == 3


def test_adam_moments_decay_after_gradient_stops():
    theta = np.array([0.0])
    opt = Adam(theta, TrainConfig(learning_rate=0.0))
    opt.step(np.array([4.0]))
    m_after_signal = opt.m.copy()
    opt.step(np.array([0.0]))
    assert abs(opt.m[0]) == pytest.approx(0.9 * abs(m_after_signal[0]), rel=1e-12)


def test_adam_quadratic_trajectory_matches_hand_rolled_oracle():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    theta = np.array([0.0])
    opt = Adam(theta, TrainConfig(learning_rate=lr, adam_beta1=b1, adam_beta2=b2, adam_eps=eps))

    # independent scalar implementation of the same five steps
    t_oracle, m, v = 0.0, 0.0, 0.0
    mine = []
    ours = []
    for step in range(1, 6):
        g = 2.0 * (theta[0] - 3.0)
        opt.step(np.array([g]))
        mine.append(theta[0])

        g_o = 2.0 * (t_oracle - 3.0)
        m = b1 * m + (1 - b1) * g_o
        v = b2 * v + (1 - b2) * g_o * g_o
        m_hat = m / (1 - b1**step)
        v_hat = v / (1 - b2**step)
        t_oracle -= lr * m_hat / (math.sqrt(v_hat) + eps)
        ours.append(t_oracle)

    np.testing.assert_allclose(mine, ours, rtol=1e-12)
    # first update moves by almost exactly lr (signal dwarfs eps)
    assert mine[0] == pytest.approx(0.1, abs=1e-8)


def test_adam_updates_its_moments_in_place():
    theta = np.array([1.0, -2.0, 0.5])
    opt = Adam(theta, TrainConfig(learning_rate=0.1))
    m, v = opt.m, opt.v
    opt.step(np.array([0.3, -1.0, 2.0]))
    assert opt.m is m and opt.v is v and opt.theta is theta
    assert m.any() and v.any()


def test_adam_lr_zero_is_identity():
    model = _small_model(seed=1)
    before = model.theta.copy()
    opt = Adam(model.theta, TrainConfig(learning_rate=0.0))
    rng = np.random.default_rng(0)
    for _ in range(4):
        opt.step(rng.normal(size=model.theta.shape))
    np.testing.assert_array_equal(model.theta, before)


# ---------------------------------------------------------------------------
# training loop

def test_train_step_returns_mean_loss_and_updates():
    model = _small_model(seed=2)
    opt = Adam(model.theta, TrainConfig(learning_rate=0.01))
    batch = _batch(_toy_set(2, 12, 3, seed=0))
    before = {k: v.copy() for k, v in model.params().items()}
    loss = train_step(model, *batch, opt, np.random.default_rng(0))
    assert loss > 0
    assert any(
        not np.array_equal(before[k], v) for k, v in model.params().items()
    )
    with pytest.raises(ValueError):
        train_step(model, np.empty((0, 12, 3)), np.empty(0), [], opt, np.random.default_rng(0))


def test_parameters_and_gradients_are_views_of_one_flat_store():
    data = _toy_set(2, 60, 4, seed=12)
    model = SequenceClassifier(ModelSpec.reference(4), 4, np.random.default_rng(13))
    params, grads = model.params(), model.grads()
    assert list(params) == list(grads)
    assert len(params) == 18
    for key in params:
        assert np.shares_memory(params[key], model.theta), key
        assert np.shares_memory(grads[key], model.grad), key
        assert params[key].shape == grads[key].shape
    assert sum(v.size for v in params.values()) == model.theta.size
    assert model.theta.size == closed_form_parameter_count(model.spec, 4)
    assert model.grad.shape == model.theta.shape

    theta, grad = model.theta, model.grad
    opt = Adam(theta, TrainConfig(learning_rate=0.01))
    before = theta.copy()
    train_step(model, *_batch(data), opt, np.random.default_rng(0))
    assert model.theta is theta and model.grad is grad
    assert not np.array_equal(theta, before)
    assert np.any(grad != 0.0)
    model.zero_grads()
    assert model.grad is grad
    assert not grad.any()


def test_training_is_deterministic():
    data = _toy_set(4, 16, 3, seed=3)
    config = TrainConfig(epochs=3, batch_size=4, seed=11)
    results = []
    for _ in range(2):
        model = _small_model(seed=7)
        train_model(model, *_stack(data), config)
        results.append({k: v.copy() for k, v in model.params().items()})
    for key in results[0]:
        np.testing.assert_array_equal(results[0][key], results[1][key])


def test_loss_decreases_on_separable_toy_set():
    data = _toy_set(8, 30, 4, seed=4, shift=1.5)
    model = SequenceClassifier(ModelSpec.reference(4), 4, np.random.default_rng(5))
    result = train_model(model, *_stack(data), TrainConfig(epochs=20, batch_size=16, seed=0))
    assert result.epoch_losses[19] < result.epoch_losses[0]
    assert result.stopping_rule == "fixed_epochs"
    assert len(result.wall_clock_epoch_seconds) == 20


def test_early_stopping_triggers_and_restores_best():
    train_set = _toy_set(6, 14, 3, seed=6, shift=2.0)
    # validation labels inverted: val loss rises as the model learns
    val_set = [(fm, 1 - y) for fm, y in _toy_set(3, 14, 3, seed=7, shift=2.0)]
    model = _small_model(seed=8)
    config = TrainConfig(epochs=60, batch_size=6, seed=1, early_stop_patience=3)
    x_val, y_val, _ = _stack(val_set)
    result = train_model(model, *_stack(train_set), config, val=(x_val, y_val))
    assert result.stopped_early
    assert result.epochs_run < 60
    assert result.best_epoch is not None
    assert result.stopping_rule == "early_stopping(patience=3)"
    assert len(result.val_losses) == result.epochs_run
    # restored parameters reproduce the best recorded validation loss
    best_val = min(result.val_losses)
    _, logits = predict(model, x_val)
    val_loss = float(np.mean(bce_loss(logits, y_val)))
    assert val_loss == pytest.approx(best_val, rel=1e-12)


def test_no_early_stop_without_validation_set():
    data = _toy_set(3, 12, 3, seed=9)
    model = _small_model(seed=9)
    result = train_model(model, *_stack(data), TrainConfig(epochs=4, batch_size=4, seed=2))
    assert not result.stopped_early
    assert result.epochs_run == 4
    assert result.val_losses == []


def test_non_finite_gradient_diagnostics():
    model = _small_model(seed=10)
    model.recurrents[0].params["fwd/W"][0, 0] = np.nan
    opt = Adam(model.theta, TrainConfig(learning_rate=0.01))
    x, y, ids = _batch(_toy_set(2, 10, 3, seed=10))
    with pytest.raises(NonFiniteGradient) as exc:
        train_step(model, x, y, ids, opt, np.random.default_rng(0))
    assert exc.value.layer.startswith("rec")
    assert exc.value.block
    assert len(exc.value.batch_ids) == 4
    assert exc.value.batch_ids == ["s00/t", "s01/t", "s10/t", "s11/t"]

    # train_model names the rows of the failing minibatch from its ids
    x, y, ids = _stack(_toy_set(3, 10, 3, seed=10))
    with pytest.raises(NonFiniteGradient) as exc:
        train_model(model, x, y, ids, TrainConfig(epochs=1, batch_size=4, seed=0))
    order = np.random.default_rng([0]).permutation(6)
    assert exc.value.batch_ids == [ids[i] for i in order[:4]]


def test_training_from_the_fold_array_equals_per_batch_stacking():
    # oracle: train_model's loop with every minibatch stacked from its pairs
    # and every scoring chunk stacked on its own
    train_set = _toy_set(11, 40, 4, seed=14, shift=0.5)
    val_set = _toy_set(3, 40, 4, seed=15, shift=0.5)
    config = TrainConfig(epochs=3, batch_size=8, seed=4, early_stop_patience=None)
    model = SequenceClassifier(ModelSpec.reference(4), 4, np.random.default_rng(16))
    oracle = SequenceClassifier(ModelSpec.reference(4), 4, np.random.default_rng(16))
    result = train_model(model, *_stack(train_set), config, val=_stack(val_set)[:2])

    def chunked(pairs):
        probs, logits = [], []
        for start in range(0, len(pairs), config.batch_size):
            chunk = pairs[start : start + config.batch_size]
            probs.append(oracle.forward(np.stack([fm.values for fm, _ in chunk])))
            logits.append(oracle.head.logits)
        return np.concatenate(probs), np.concatenate(logits)

    rng = np.random.default_rng([config.seed])
    opt = Adam(oracle.theta, config)
    val_y = np.array([y for _, y in val_set])
    val_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(train_set))
        for start in range(0, len(train_set), config.batch_size):
            batch = [train_set[i] for i in order[start : start + config.batch_size]]
            train_step(oracle, *_batch(batch), opt, rng)
        val_losses.append(float(np.mean(bce_loss(chunked(val_set)[1], val_y))))

    np.testing.assert_array_equal(model.theta, oracle.theta)
    assert result.val_losses == val_losses
    scored = train_set + val_set
    expected = chunked(scored)
    for got, want in zip(predict(model, _stack(scored)[0]), expected):
        np.testing.assert_array_equal(got, want)


# row counts across the 4-row block and 64-row chunk edges
_PREDICT_ROWS = (1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 66, 67, 68, 69, 70)


def _predict_mismatches() -> list[str]:
    """The (cell, with_conv, N) of the six reference models at T = 157 where
    a row's probability or logit from predict over N rows differs from
    predict over that row alone."""
    m = 17
    x = np.random.default_rng(0).normal(size=(157, max(_PREDICT_ROWS), m))
    found = []
    for cell in CELLS:
        for with_conv in (True, False):
            spec = ModelSpec.reference(m, cell, with_conv)
            model = SequenceClassifier(spec, m, np.random.default_rng(3))
            alone = np.array([predict(model, x[:, [i]]) for i in range(x.shape[1])])[..., 0]
            for n in _PREDICT_ROWS:
                if not np.array_equal(np.array(predict(model, x[:, :n])), alone[:n].T):
                    found.append(f"{cell}/{with_conv}/{n}")
    return found


def test_predict_scores_a_row_as_it_scores_it_alone():
    assert _predict_mismatches() == []


def test_predict_scores_a_row_as_it_scores_it_alone_on_two_blas_threads():
    # larger GEMMs may take threaded BLAS paths; they must give the same bits
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tests.parent / "src"),
                                                      str(tests), env.get("PYTHONPATH")]))
    program = "from test_nn_train import _predict_mismatches; print(_predict_mismatches())"
    proc = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_repeated_training_keeps_the_heap_resident():
    # reference shapes: B = 16, T = 150, m = 17. With glibc's default
    # thresholds the second run faults 2300-2600 trimmed heap pages back in
    # (about 300 a step); with them fixed it takes 0-130 faults
    import resource

    data = _toy_set(16, 150, 17, seed=17)
    config = TrainConfig(epochs=2, batch_size=16, seed=0, early_stop_patience=None)

    def minor_faults_of_one_run():
        model = SequenceClassifier(ModelSpec.reference(17), 17, np.random.default_rng(18))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_model(model, *_stack(data), config)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    minor_faults_of_one_run()
    assert minor_faults_of_one_run() < 500


def test_label_mapping():
    assert LABEL_TO_Y == {"HC": 0, "PD": 1}


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(early_stop_patience=0)


# ---------------------------------------------------------------------------
# gradient checking

def test_gradient_check_tiny_model_oracle():
    spec = ModelSpec(
        conv_layers=(Conv1dSpec(2, 2, kernel=2, stride=2),),
        recurrent_layers=(RecurrentSpec("gru", 3, bidirectional=True),),
    )
    model = SequenceClassifier(spec, 2, np.random.default_rng(2))
    x = np.random.default_rng(3).normal(size=(8, 2))
    assert gradient_check(model, x, 0, epsilon=1e-4) < 1e-4


def test_gradient_check_near_linear_regime():
    # no model in this family is exactly linear (the recurrent tanh and the
    # sigmoid head are always present), but with the conv activation removed
    # the truncation error drops well below the generic 1e-4 oracle bound
    spec = ModelSpec(
        conv_layers=(Conv1dSpec(2, 2, kernel=2, stride=2, activation="none"),),
        recurrent_layers=(RecurrentSpec("rnn", 3, bidirectional=False),),
    )
    model = SequenceClassifier(spec, 2, np.random.default_rng(0))
    x = np.random.default_rng(100).normal(size=(8, 2))
    assert gradient_check(model, x, 1, epsilon=1e-4) < 1e-6


def test_gradient_check_invariant_to_dropout_setting():
    x = np.random.default_rng(4).normal(size=(10, 2))
    results = []
    for rate in (0.0, 0.4):
        spec = ModelSpec(
            conv_layers=(),
            recurrent_layers=(
                RecurrentSpec("gru", 3, dropout_rate=rate, recurrent_dropout_rate=rate),
            ),
        )
        model = SequenceClassifier(spec, 2, np.random.default_rng(5))
        results.append(gradient_check(model, x, 1, epsilon=1e-4))
    assert results[0] == results[1]


def test_gradient_check_epsilon_bounds():
    model = _small_model(seed=11, m=2)
    x = np.zeros((6, 2))
    with pytest.raises(ValueError):
        gradient_check(model, x, 0, epsilon=1e-7)
    with pytest.raises(ValueError):
        gradient_check(model, x, 0, epsilon=1e-2)
