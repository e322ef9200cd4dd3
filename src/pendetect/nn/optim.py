"""Adam with bias-corrected moment estimates.

The optimizer holds the model's flat parameter vector and updates it in
place from the matching flat gradient vector. Both moment estimates are
vectors of the same length; they are public so tests can inspect them.
A step updates them, and ``theta``, in place through two preallocated
work vectors, in the same operation order as the textbook formulas.
Its rates are a TrainConfig's ``learning_rate``, ``adam_beta1``,
``adam_beta2`` and ``adam_eps``, which declares their defaults and checks
them.
"""

from __future__ import annotations

import numpy as np

from .model import TrainConfig


class Adam:
    def __init__(self, theta: np.ndarray, config: TrainConfig):
        self.theta = theta
        self.lr = config.learning_rate
        self.beta1 = config.adam_beta1
        self.beta2 = config.adam_beta2
        self.eps = config.adam_eps
        self.step_count = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self._num = np.empty_like(theta)
        self._den = np.empty_like(theta)

    def step(self, grad: np.ndarray) -> None:
        self.step_count += 1
        t = self.step_count
        m, v, num, den = self.m, self.v, self._num, self._den
        # m = beta1 * m + (1 - beta1) * grad
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=num)
        m += num
        # v = beta2 * v + (1 - beta2) * grad * grad
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=num)
        num *= grad
        v += num
        # theta -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, 1.0 - self.beta2**t, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(m, 1.0 - self.beta1**t, out=num)
        num *= self.lr
        num /= den
        self.theta -= num
