"""Finite-difference verification of the analytic gradients.

The analytic pass is a train-mode forward without a generator, which
keeps the caches backward needs but draws no dropout masks; the numeric
passes run in eval mode. Dropout settings therefore cannot influence the
comparison. The check perturbs every single parameter entry; it is meant
for small instances, where the cost of two forwards per entry is nothing.
"""

from __future__ import annotations

import numpy as np

from .losses import bce_logit_grad, bce_loss
from .model import SequenceClassifier


def gradient_check(
    model: SequenceClassifier,
    values: np.ndarray,
    y: int,
    epsilon: float = 1e-4,
) -> float:
    """Max over parameters of |analytic - numeric| / max(|a| + |n|, 1e-8)."""
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in [1e-6, 1e-3], got {epsilon}")

    model.zero_grads()
    p = model.forward(values, train=True)
    model.backward(bce_logit_grad(p, y))
    analytic = model.grad.copy()

    theta = model.theta
    worst = 0.0
    for i in range(theta.size):
        original = theta[i]
        theta[i] = original + epsilon
        model.forward(values)
        loss_plus = bce_loss(model.head.logits[0], y)
        theta[i] = original - epsilon
        model.forward(values)
        loss_minus = bce_loss(model.head.logits[0], y)
        theta[i] = original
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        a = analytic[i]
        rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
