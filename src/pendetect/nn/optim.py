"""Adam with bias-corrected moment estimates.

The optimizer holds the model's flat parameter vector and updates it in
place from the matching flat gradient vector. Both moment estimates are
vectors of the same length; they are public so tests can inspect them.
"""

from __future__ import annotations

import numpy as np


class Adam:
    def __init__(self, theta: np.ndarray, learning_rate=0.001,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        if learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        self.theta = theta
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)

    def step(self, grad: np.ndarray) -> None:
        self.step_count += 1
        t = self.step_count
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**t)
        v_hat = self.v / (1.0 - self.beta2**t)
        self.theta -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
