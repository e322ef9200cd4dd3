"""Verifying the hand-written backward passes with finite differences.

Every layer implements its own analytic gradients. This script builds a
model using all of them at once (conv front end, bidirectional GRU,
sigmoid head), perturbs each parameter by +/- epsilon, and compares the
resulting loss slope against the backward pass.
"""

import numpy as np

from pendetect.nn import (
    Conv1dSpec,
    ModelSpec,
    RecurrentSpec,
    SequenceClassifier,
    gradient_check,
)

rng = np.random.default_rng(42)

spec = ModelSpec(
    conv_layers=(Conv1dSpec(in_channels=3, out_channels=4, kernel=3, stride=2),),
    recurrent_layers=(RecurrentSpec("gru", hidden_units=4, bidirectional=True),),
)
model = SequenceClassifier(spec, input_size=3, rng=rng)
print(f"model has {model.theta.size} parameters, "
      f"minimum input length {model.min_input_length()}")

x = rng.normal(size=(12, 3))
for y in (0, 1):
    err = gradient_check(model, x, y, epsilon=1e-4)
    print(f"label y={y}: max relative error {err:.3e}")

# The error scales with epsilon^2 until float64 rounding takes over,
# which is the signature of a correct central difference comparison.
for eps in (1e-3, 1e-4, 1e-5):
    err = gradient_check(model, x, 1, epsilon=eps)
    print(f"epsilon {eps:.0e}: max relative error {err:.3e}")
