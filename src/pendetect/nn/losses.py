"""Binary cross-entropy with the clamped-probability convention."""

from __future__ import annotations

import math

P_EPS = 1e-7


def bce_loss(p: float, y: int) -> float:
    """-(y ln p + (1-y) ln(1-p)), with p clamped to [1e-7, 1 - 1e-7]."""
    p = min(max(p, P_EPS), 1.0 - P_EPS)
    return -(y * math.log(p) + (1 - y) * math.log1p(-p))


def bce_logit_grad(p: float, y: int) -> float:
    """dL/dlogit for p = sigmoid(logit): the fused, numerically exact form."""
    return p - y
