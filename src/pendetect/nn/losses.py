"""Binary cross-entropy, computed from the logit."""

from __future__ import annotations

import numpy as np


def bce_loss(logit, y):
    """-(y ln p + (1-y) ln(1-p)) for p = sigmoid(logit), elementwise.

    Written as logaddexp(0, logit) - y * logit, which stays exact where p
    rounds to 0 or 1: a logit of -40 with y = 1 costs 40.
    """
    return np.logaddexp(0.0, logit) - y * logit


def bce_logit_grad(p, y):
    """dL/dlogit for p = sigmoid(logit): the fused, numerically exact form."""
    return p - y
