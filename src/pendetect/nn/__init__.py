"""From-scratch numpy neural network: conv, recurrent cells, Adam, gradcheck.

The names imported here are the package's public interface. The training
names (the loop, Adam, the losses, the gradient check) are imported on
first use, so building and scoring a model never loads them.
"""

import importlib

from .layers import CELLS, Conv1d, DenseSigmoid, Recurrent
from .model import (
    DECISION_THRESHOLD,
    Conv1dSpec,
    ModelSpec,
    RecurrentSpec,
    SequenceClassifier,
    TrainConfig,
    closed_form_parameter_count,
    load_checkpoint,
    predict,
    spec_hash,
)

# public name -> the module of this package that defines it
_ON_FIRST_USE = {
    "Adam": "optim",
    "bce_logit_grad": "losses",
    "bce_loss": "losses",
    "gradient_check": "gradcheck",
    "TrainResult": "train",
    "train_model": "train",
    "train_step": "train",
}


def __getattr__(name: str):
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ON_FIRST_USE[name]}", __name__), name)
    globals()[name] = value
    return value
