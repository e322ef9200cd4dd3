"""From-scratch numpy neural network: conv, recurrent cells, Adam, gradcheck."""

from .gradcheck import gradient_check
from .layers import CELLS, Conv1d, DenseSigmoid, Recurrent, sigmoid
from .losses import bce_logit_grad, bce_loss
from .model import (
    Conv1dSpec,
    ModelSpec,
    RecurrentSpec,
    SequenceClassifier,
    closed_form_parameter_count,
    load_checkpoint,
    spec_hash,
)
from .optim import Adam
from .train import (
    TrainConfig,
    TrainResult,
    predict,
    train_model,
    train_step,
)

__all__ = [
    "CELLS",
    "Conv1d",
    "DenseSigmoid",
    "Recurrent",
    "sigmoid",
    "bce_logit_grad",
    "bce_loss",
    "Conv1dSpec",
    "ModelSpec",
    "RecurrentSpec",
    "SequenceClassifier",
    "closed_form_parameter_count",
    "load_checkpoint",
    "spec_hash",
    "Adam",
    "TrainConfig",
    "TrainResult",
    "predict",
    "train_model",
    "train_step",
    "gradient_check",
]
