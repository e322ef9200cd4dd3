"""Layers with explicit forward passes and hand-written gradients.

Everything operates on one sequence at a time: inputs are (T, C) arrays,
recurrent states are 1-d vectors. Batching lives in the trainer, which
accumulates per-sequence gradients.

Parameter blocks live in ``params``/``grads`` dicts keyed by short block
names ("W", "U", "b", "w"); a recurrent layer's blocks belong to its
``fwd``/``bwd`` directions. A standalone layer owns its arrays. Inside a
SequenceClassifier every entry is a view into the model's flat
``theta``/``grad`` vectors, so layers read and accumulate in place and
never replace an entry.

Gate layouts of the combined matrices:

* gru:  W is (C, 3H), U is (H, 3H), b is (3H,), blocks ordered [z | r | c]
  (update gate, reset gate, candidate).
* lstm: (C, 4H) / (H, 4H) / (4H,), ordered [i | f | g | o]
  (input, forget, cell candidate, output).
* rnn:  (C, H) / (H, H) / (H,), a single tanh block.

The recurrent state update for the GRU is

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    hbar = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * hbar

with the reset gate applied to h before the U_h product. Recurrent
dropout is variational: one mask per sequence and direction, applied to
h wherever it enters a U product, never to the (1 - z) * h carry term.
Input dropout (the conventional kind) is an inverted elementwise mask
drawn independently per time-step.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch, InputTooShort

CELLS = ("rnn", "lstm", "gru")
_GATES_PER_CELL = {"rnn": 1, "lstm": 4, "gru": 3}


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, int], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    # fix the sign ambiguity of the decomposition so init is reproducible
    return q * np.sign(np.diag(r))


class Layer:
    """Named parameter blocks and their same-shaped gradient accumulators."""

    def __init__(self, **blocks: np.ndarray):
        self.params: dict[str, np.ndarray] = blocks
        self.grads: dict[str, np.ndarray] = {k: np.zeros_like(v) for k, v in blocks.items()}


class Conv1d(Layer):
    """Valid-padding strided 1-d convolution over (T, C) sequences."""

    def __init__(self, in_channels, out_channels, kernel, stride, activation, rng):
        if kernel < 1 or stride < 1:
            raise ValueError("kernel and stride must be >= 1")
        if activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {activation!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.activation = activation
        fan_in = in_channels * kernel
        fan_out = out_channels * kernel
        super().__init__(
            W=glorot_uniform(rng, (kernel, in_channels, out_channels), fan_in, fan_out),
            b=np.zeros(out_channels),
        )
        self._cache = None

    @staticmethod
    def output_length(t: int, kernel: int, stride: int) -> int:
        return (t - kernel) // stride + 1

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        t, c = x.shape
        if c != self.in_channels:
            raise DimensionMismatch(f"expected {self.in_channels} channels, got {c}")
        if t < self.kernel:
            raise InputTooShort(f"length {t} < kernel {self.kernel}")
        windows = np.lib.stride_tricks.sliding_window_view(x, self.kernel, axis=0)
        windows = windows[:: self.stride]          # (T_out, C, k)
        z = np.einsum("tck,kco->to", windows, self.params["W"]) + self.params["b"]
        if self.activation == "relu":
            out = np.maximum(z, 0.0)
        else:
            out = z
        self._cache = (x.shape, windows, z)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        (t, _), windows, z = self._cache
        if self.activation == "relu":
            dout = dout * (z > 0)
        self.grads["b"] += dout.sum(axis=0)
        self.grads["W"] += np.einsum("tck,to->kco", windows, dout)
        dx = np.zeros((t, self.in_channels))
        t_out = dout.shape[0]
        for j in range(self.kernel):
            dx[j : j + self.stride * t_out : self.stride] += dout @ self.params["W"][j].T
        return dx


# ---------------------------------------------------------------------------
# recurrent cell math: step/backstep pairs per cell kind

def _gru_step(x, h_prev, p, rmask):
    hidden = h_prev.shape[0]
    gx = x @ p["W"] + p["b"]
    hm = h_prev * rmask
    z = sigmoid(gx[:hidden] + hm @ p["U"][:, :hidden])
    r = sigmoid(gx[hidden : 2 * hidden] + hm @ p["U"][:, hidden : 2 * hidden])
    rhm = r * hm
    hbar = np.tanh(gx[2 * hidden :] + rhm @ p["U"][:, 2 * hidden :])
    h = (1.0 - z) * h_prev + z * hbar
    return h, (x, h_prev, hm, z, r, rhm, hbar)


def _gru_backstep(dh, cache, p, grads, rmask):
    x, h_prev, hm, z, r, rhm, hbar = cache
    hidden = h_prev.shape[0]
    u_z = p["U"][:, :hidden]
    u_r = p["U"][:, hidden : 2 * hidden]
    u_c = p["U"][:, 2 * hidden :]

    dz = dh * (hbar - h_prev)
    dhbar = dh * z
    dh_prev = dh * (1.0 - z)

    da_c = dhbar * (1.0 - hbar * hbar)
    drhm = da_c @ u_c.T
    dr = drhm * hm
    dhm = drhm * r

    da_z = dz * z * (1.0 - z)
    da_r = dr * r * (1.0 - r)
    dhm += da_z @ u_z.T + da_r @ u_r.T

    da = np.concatenate([da_z, da_r, da_c])
    grads["W"] += np.outer(x, da)
    grads["b"] += da
    grads["U"][:, :hidden] += np.outer(hm, da_z)
    grads["U"][:, hidden : 2 * hidden] += np.outer(hm, da_r)
    grads["U"][:, 2 * hidden :] += np.outer(rhm, da_c)

    dh_prev += dhm * rmask
    dx = da @ p["W"].T
    return dx, dh_prev


def _lstm_step(x, h_prev, p, rmask, c_prev):
    hidden = h_prev.shape[0]
    hm = h_prev * rmask
    a = x @ p["W"] + hm @ p["U"] + p["b"]
    i = sigmoid(a[:hidden])
    f = sigmoid(a[hidden : 2 * hidden])
    g = np.tanh(a[2 * hidden : 3 * hidden])
    o = sigmoid(a[3 * hidden :])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c, (x, h_prev, hm, c_prev, i, f, g, o, c)


def _lstm_backstep(dh, dc, cache, p, grads, rmask):
    x, h_prev, hm, c_prev, i, f, g, o, c = cache
    tc = np.tanh(c)
    do = dh * tc
    dc_total = dc + dh * o * (1.0 - tc * tc)
    di = dc_total * g
    df = dc_total * c_prev
    dg = dc_total * i
    dc_prev = dc_total * f

    da = np.concatenate(
        [
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ]
    )
    grads["W"] += np.outer(x, da)
    grads["U"] += np.outer(hm, da)
    grads["b"] += da
    dx = da @ p["W"].T
    dh_prev = (da @ p["U"].T) * rmask
    return dx, dh_prev, dc_prev


def _rnn_step(x, h_prev, p, rmask):
    hm = h_prev * rmask
    h = np.tanh(x @ p["W"] + hm @ p["U"] + p["b"])
    return h, (x, hm, h)


def _rnn_backstep(dh, cache, p, grads, rmask):
    x, hm, h = cache
    da = dh * (1.0 - h * h)
    grads["W"] += np.outer(x, da)
    grads["U"] += np.outer(hm, da)
    grads["b"] += da
    dx = da @ p["W"].T
    dh_prev = (da @ p["U"].T) * rmask
    return dx, dh_prev


def cell_step(cell: str, x, h_prev, params, rmask):
    """One recurrent step with zero initial extra state; public for tests."""
    if cell == "gru":
        h, _ = _gru_step(x, h_prev, params, rmask)
        return h
    if cell == "lstm":
        h, _, _ = _lstm_step(x, h_prev, params, rmask, np.zeros_like(h_prev))
        return h
    if cell == "rnn":
        h, _ = _rnn_step(x, h_prev, params, rmask)
        return h
    raise ValueError(f"unknown cell {cell!r}")


class _Direction(Layer):
    """Parameters and the unrolled pass for one direction of a layer."""

    def __init__(self, cell, input_size, hidden, rng):
        gates = _GATES_PER_CELL[cell]
        self.cell = cell
        self.hidden = hidden
        w = glorot_uniform(rng, (input_size, gates * hidden), input_size, hidden)
        u = np.concatenate([orthogonal(rng, hidden) for _ in range(gates)], axis=1)
        super().__init__(W=w, U=u, b=np.zeros(gates * hidden))

    def run(self, x: np.ndarray, rmask: np.ndarray):
        t = x.shape[0]
        h = np.zeros(self.hidden)
        c = np.zeros(self.hidden)
        states = np.empty((t, self.hidden))
        caches = []
        for step in range(t):
            if self.cell == "gru":
                h, cache = _gru_step(x[step], h, self.params, rmask)
            elif self.cell == "lstm":
                h, c, cache = _lstm_step(x[step], h, self.params, rmask, c)
            else:
                h, cache = _rnn_step(x[step], h, self.params, rmask)
            states[step] = h
            caches.append(cache)
        return states, caches

    def run_backward(self, dstates: np.ndarray, caches, rmask: np.ndarray):
        t = dstates.shape[0]
        dx = np.empty((t, self.params["W"].shape[0]))
        dh = np.zeros(self.hidden)
        dc = np.zeros(self.hidden)
        for step in reversed(range(t)):
            dh = dh + dstates[step]
            if self.cell == "gru":
                dx[step], dh = _gru_backstep(dh, caches[step], self.params, self.grads, rmask)
            elif self.cell == "lstm":
                dx[step], dh, dc = _lstm_backstep(dh, dc, caches[step], self.params, self.grads, rmask)
            else:
                dx[step], dh = _rnn_backstep(dh, caches[step], self.params, self.grads, rmask)
        return dx


class Recurrent:
    """A (bi)directional recurrent layer over a (T, C) sequence.

    Output is (T, hidden) or (T, 2*hidden) when bidirectional; the second
    half of each row is the backward direction's state after reading the
    sequence from the end down to that step. The parameter blocks belong
    to the ``fwd`` and ``bwd`` directions.
    """

    def __init__(
        self,
        cell,
        input_size,
        hidden_units,
        bidirectional,
        dropout_rate,
        recurrent_dropout_rate,
        rng,
    ):
        if cell not in CELLS:
            raise ValueError(f"cell must be one of {CELLS}, got {cell!r}")
        if hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")
        if not (0 <= dropout_rate < 1 and 0 <= recurrent_dropout_rate < 1):
            raise ValueError("dropout rates must be in [0, 1)")
        self.cell = cell
        self.input_size = input_size
        self.hidden = hidden_units
        self.bidirectional = bidirectional
        self.dropout_rate = dropout_rate
        self.recurrent_dropout_rate = recurrent_dropout_rate
        self.fwd = _Direction(cell, input_size, hidden_units, rng)
        self.bwd = _Direction(cell, input_size, hidden_units, rng) if bidirectional else None
        self._cache = None

    @property
    def output_size(self) -> int:
        return self.hidden * (2 if self.bidirectional else 1)

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        t, c = x.shape
        if c != self.input_size:
            raise DimensionMismatch(f"expected input size {self.input_size}, got {c}")
        if t < 1:
            raise InputTooShort("recurrent layer needs at least one step")

        if train and self.dropout_rate > 0:
            keep = 1.0 - self.dropout_rate
            in_mask = (rng.random(x.shape) < keep) / keep
            x_used = x * in_mask
        else:
            in_mask = None
            x_used = x

        def rec_mask():
            if train and self.recurrent_dropout_rate > 0:
                keep = 1.0 - self.recurrent_dropout_rate
                return (rng.random(self.hidden) < keep) / keep
            return np.ones(self.hidden)

        fmask = rec_mask()
        fstates, fcaches = self.fwd.run(x_used, fmask)
        if self.bwd is not None:
            bmask = rec_mask()
            bstates_rev, bcaches = self.bwd.run(x_used[::-1], bmask)
            out = np.concatenate([fstates, bstates_rev[::-1]], axis=1)
        else:
            bmask, bcaches = None, None
            out = fstates
        self._cache = (in_mask, fmask, fcaches, bmask, bcaches)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        in_mask, fmask, fcaches, bmask, bcaches = self._cache
        h = self.hidden
        dx = self.fwd.run_backward(dout[:, :h], fcaches, fmask)
        if self.bwd is not None:
            dx_rev = self.bwd.run_backward(dout[::-1, h:], bcaches, bmask)
            dx = dx + dx_rev[::-1]
        if in_mask is not None:
            dx = dx * in_mask
        return dx


class DenseSigmoid(Layer):
    """The scalar classification head: p = sigmoid(w . s + b)."""

    def __init__(self, input_size, rng):
        self.input_size = input_size
        super().__init__(w=glorot_uniform(rng, (input_size,), input_size, 1), b=np.zeros(1))
        self._cache = None

    def forward(self, s: np.ndarray, train: bool = False, rng=None) -> float:
        if s.shape != (self.input_size,):
            raise DimensionMismatch(
                f"expected state of shape ({self.input_size},), got {s.shape}"
            )
        logit = float(s @ self.params["w"] + self.params["b"][0])
        p = float(sigmoid(np.array([logit]))[0])
        self._cache = (s, p)
        return p

    def backward(self, dlogit: float) -> np.ndarray:
        s, _ = self._cache
        self.grads["w"] += dlogit * s
        self.grads["b"] += dlogit
        return dlogit * self.params["w"]

    @property
    def last_probability(self) -> float:
        return self._cache[1]
