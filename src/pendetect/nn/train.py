"""Mini-batch training loop: shuffling, Adam steps, early stopping."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import NonFiniteGradient
from ..features import FeatureMatrix
from .losses import bce_logit_grad, bce_loss
from .model import SequenceClassifier
from .optim import Adam


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 16
    epochs: int = 100
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    early_stop_patience: int | None = 10

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1 or None")


@dataclass
class TrainResult:
    epoch_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int | None = None
    stopped_early: bool = False
    epochs_run: int = 0
    stopping_rule: str = "fixed_epochs"
    wall_clock_epoch_seconds: list[float] = field(default_factory=list)


def _stack(pairs: list[tuple[FeatureMatrix, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(B, T, m) values and (B,) labels; the matrices must share T."""
    values = np.stack([fm.values for fm, _ in pairs])
    return values, np.array([y for _, y in pairs], dtype=np.float64)


def train_step(
    model: SequenceClassifier,
    batch: list[tuple[FeatureMatrix, int]],
    optimizer: Adam,
    rng: np.random.Generator,
) -> float:
    """One forward/backward/Adam update over a batch; returns the mean loss."""
    if not batch:
        raise ValueError("batch must be non-empty")
    model.zero_grads()
    values, y = _stack(batch)
    p = model.forward(values, train=True, rng=rng)
    model.backward(bce_logit_grad(p, y))
    model.grad *= 1.0 / len(batch)
    if not np.isfinite(model.grad).all():
        key = next(k for k, g in model.grads().items() if not np.isfinite(g).all())
        layer, _, block = key.partition("/")
        ids = [f"{fm.subject_id}/{fm.task_id}" for fm, _ in batch]
        raise NonFiniteGradient(layer, block, ids)
    optimizer.step(model.grad)
    return float(bce_loss(model.head.logits, y).mean())


def predict(
    model: SequenceClassifier,
    data: list[tuple[FeatureMatrix, int]],
    batch_size: int = TrainConfig.batch_size,
) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode (probabilities, logits) of every pair, in chunks of batch_size."""
    probs, logits = np.empty(len(data)), np.empty(len(data))
    for start in range(0, len(data), batch_size):
        chunk = slice(start, start + batch_size)
        probs[chunk] = model.forward(_stack(data[chunk])[0])
        logits[chunk] = model.head.logits
    return probs, logits


def mean_eval_loss(
    model: SequenceClassifier,
    data: list[tuple[FeatureMatrix, int]],
    batch_size: int = TrainConfig.batch_size,
) -> float:
    _, logits = predict(model, data, batch_size)
    return float(np.mean(bce_loss(logits, np.array([y for _, y in data]))))


def train_model(
    model: SequenceClassifier,
    train_set: list[tuple[FeatureMatrix, int]],
    config: TrainConfig,
    val_set: list[tuple[FeatureMatrix, int]] | None = None,
) -> TrainResult:
    """Train in place. Early stopping engages only when a validation set exists.

    All stochasticity (batch order, dropout masks) flows from one generator
    seeded with config.seed, so identical inputs give identical parameters.
    """
    rng = np.random.default_rng([config.seed])
    optimizer = Adam(
        model.theta,
        learning_rate=config.learning_rate,
        beta1=config.adam_beta1,
        beta2=config.adam_beta2,
        eps=config.adam_eps,
    )
    use_early_stop = val_set is not None and config.early_stop_patience is not None
    result = TrainResult(
        stopping_rule=(
            f"early_stopping(patience={config.early_stop_patience})"
            if use_early_stop
            else "fixed_epochs"
        )
    )
    n = len(train_set)
    best_val = np.inf
    best_theta = None
    since_best = 0

    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, config.batch_size):
            batch = [train_set[i] for i in order[start : start + config.batch_size]]
            epoch_total += train_step(model, batch, optimizer, rng) * len(batch)
        result.epoch_losses.append(epoch_total / n)
        result.wall_clock_epoch_seconds.append(time.perf_counter() - started)
        result.epochs_run = epoch + 1

        if val_set is not None:
            val_loss = mean_eval_loss(model, val_set, config.batch_size)
            result.val_losses.append(val_loss)
            if use_early_stop:
                if val_loss < best_val:
                    best_val = val_loss
                    result.best_epoch = epoch + 1
                    best_theta = model.theta.copy()
                    since_best = 0
                else:
                    since_best += 1
                    if since_best >= config.early_stop_patience:
                        result.stopped_early = True
                        break

    if use_early_stop and best_theta is not None:
        model.theta[...] = best_theta
    return result
