"""From-scratch numpy neural network: conv, recurrent cells, Adam, gradcheck.

The names listed here are the package's public interface. Each is
imported from its module on first use, so ``nn.fields``, which the data
modules (``signal_io``, ``features``, ``preprocess``) import for their
setting declarations, loads neither the layers nor the model, and
building and scoring a model never loads the training loop, Adam, the
losses or the gradient check.
"""

import importlib

# public name -> the module of this package that defines it
_ON_FIRST_USE = {
    name: module
    for module, names in (
        ("layers", "CELLS Conv1d DenseSigmoid Recurrent"),
        ("model", "DECISION_THRESHOLD Conv1dSpec ModelSpec RecurrentSpec SequenceClassifier "
                  "TrainConfig closed_form_parameter_count load_checkpoint predict spec_hash"),
        ("optim", "Adam"),
        ("losses", "bce_logit_grad bce_loss"),
        ("gradcheck", "gradient_check"),
        ("train", "TrainResult train_model train_step"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ON_FIRST_USE[name]}", __name__), name)
    globals()[name] = value
    return value
