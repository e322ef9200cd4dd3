"""Mini-batch training loop: shuffling, Adam steps, early stopping.

`train_model` takes a time-major ``(T, N, m)`` array with ``(N,)`` 0/1
targets and knows nothing of feature matrices: `preprocess.prepare` makes
the array once (cut and pad, stack, normalize, zero the padding), and a
caller hands in it or views of it. A minibatch is a gather ``x[:, idx]``,
handed to the model as its ``(B, T, m)`` transpose view, so the model's
own time-major copy costs nothing for a gathered batch.

The first `train_model` call in a process also fixes glibc's malloc
thresholds (`_keep_heap_resident`); importing the package or scoring
leaves the allocator as it was.
"""

from __future__ import annotations

import ctypes
import functools
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import NonFiniteGradient
from .losses import bce_logit_grad, bce_loss
from .model import SequenceClassifier, TrainConfig, predict
from .optim import Adam

# mallopt parameters and glibc's caps for its dynamic thresholds on a
# 64-bit host: the mmap threshold stops at 32 MiB, the trim threshold at
# twice that
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


@dataclass
class TrainResult:
    epoch_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int | None = None
    stopped_early: bool = False
    epochs_run: int = 0
    stopping_rule: str = "fixed_epochs"
    wall_clock_epoch_seconds: list[float] = field(default_factory=list)


@functools.cache
def _keep_heap_resident() -> None:
    """Keep the memory a train step frees mapped for the next step.

    A step frees a few MB of activations and gradients at the top of the
    heap. glibc returns that top to the kernel once it exceeds the trim
    threshold (128 KiB by default), and the next step faults every page
    back in: about 375 minor faults a step at the reference shapes (B = 16,
    T = 150, m = 17, one BLAS thread). This fixes the mmap threshold
    at 32 MiB and the trim threshold at 64 MiB, the caps of glibc's own
    dynamic rule, so up to 64 MiB of freed heap stays mapped. Both are
    set: fixing the trim threshold alone freezes the mmap threshold at
    128 KiB, and every minibatch-sized array would then be mmapped
    afresh. Runs once per process; does nothing outside glibc.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def train_step(
    model: SequenceClassifier,
    x: np.ndarray,
    y: np.ndarray,
    ids: list[str],
    optimizer: Adam,
    rng: np.random.Generator,
) -> float:
    """One forward/backward/Adam update over a (B, T, m) batch with (B,)
    0/1 targets; returns the mean loss. `ids` name the B sequences
    ("subject/task") in a NonFiniteGradient."""
    if len(x) == 0:
        raise ValueError("batch must be non-empty")
    model.zero_grads()
    p = model.forward(x, train=True, rng=rng)
    model.backward(bce_logit_grad(p, y))
    model.grad *= 1.0 / len(x)
    if not np.isfinite(model.grad).all():
        key = next(k for k, g in model.grads().items() if not np.isfinite(g).all())
        layer, _, block = key.partition("/")
        raise NonFiniteGradient(layer, block, ids)
    optimizer.step(model.grad)
    return float(bce_loss(model.head.logits, y).mean())


def train_model(
    model: SequenceClassifier,
    x: np.ndarray,
    y: np.ndarray,
    ids: list[str],
    config: TrainConfig,
    val: tuple[np.ndarray, np.ndarray] | None = None,
) -> TrainResult:
    """Train in place on a (T, N, m) array with (N,) 0/1 targets; `ids` name
    the N sequences in a NonFiniteGradient. `val` is an (x_val, y_val) pair
    of the same form, and early stopping engages only when it is given.

    All stochasticity (batch order, dropout masks) flows from one generator
    seeded with config.seed, so identical inputs give identical parameters.
    """
    _keep_heap_resident()
    rng = np.random.default_rng([config.seed])
    optimizer = Adam(model.theta, config)
    use_early_stop = val is not None and config.early_stop_patience is not None
    result = TrainResult(
        stopping_rule=(
            f"early_stopping(patience={config.early_stop_patience})"
            if use_early_stop
            else "fixed_epochs"
        )
    )
    n = x.shape[1]
    best_val = np.inf
    best_theta = None
    since_best = 0

    # what overflows or turns invalid in a step ends as NonFiniteGradient;
    # numpy's warnings would only repeat it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            started = time.perf_counter()
            order = rng.permutation(n)
            epoch_total = 0.0
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                batch = x[:, idx].transpose(1, 0, 2)
                loss = train_step(model, batch, y[idx], [ids[i] for i in idx], optimizer, rng)
                epoch_total += loss * len(idx)
            result.epoch_losses.append(epoch_total / n)
            result.wall_clock_epoch_seconds.append(time.perf_counter() - started)
            result.epochs_run = epoch + 1

            if val is not None:
                _, logits = predict(model, val[0])
                val_loss = float(np.mean(bce_loss(logits, val[1])))
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
