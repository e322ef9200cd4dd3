"""Layers with explicit forward passes and hand-written gradients.

Every layer runs on a whole minibatch held time-major: sequences are
(T, B, C) arrays, recurrent states (B, H); one sequence is a batch of one.
Parameter blocks live in ``params``/``grads`` dicts keyed by short block
names ("W", "U", "b", "w"); a recurrent layer's blocks belong to its
``fwd``/``bwd`` directions. A standalone layer owns its arrays; inside a
SequenceClassifier every entry is a view into the model's flat ``theta``/
``grad`` vectors, so layers read and accumulate in place and never replace
an entry.

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

with the reset gate applied to h before the U_h product. A direction
computes X @ W + b for all steps as one (T*B, C) product and loops over t
only, adding the (B, H) @ (H, gates*H) recurrent term and activating the
gates in place; after the backward sweep, dW, dU, db and dx are each one
product over all T*B rows, as is each conv tap. Recurrent.forward draws
dropout once per minibatch, in train mode with a generator: an inverted
(T, B, C) input mask, then a (B, H) recurrent mask per direction (all ones
otherwise), applied to h wherever it enters a U product, never to the
(1 - z) * h carry term: variational, one mask per sequence and direction.
Train mode keeps what backward needs; eval mode keeps nothing.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch, InputTooShort

CELLS = ("rnn", "lstm", "gru")
# per gate block, in layout order: 1 where the activation is tanh, 0 for sigmoid
_TANH_BLOCKS = {"rnn": (1,), "lstm": (0, 0, 1, 0), "gru": (0, 0, 1)}
GATES = {cell: len(blocks) for cell, blocks in _TANH_BLOCKS.items()}


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gate sigmoid 0.5 * (tanh(0.5 x) + 1): one ufunc chain, 0 below x ~ -37."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def glorot_uniform(rng: np.random.Generator | None, shape, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot draw; without a generator, zeros (a model to be filled from a checkpoint)."""
    if rng is None:
        return np.zeros(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(rng: np.random.Generator | None, n: int) -> np.ndarray:
    """Orthogonal draw; without a generator, zeros, like glorot_uniform."""
    if rng is None:
        return np.zeros((n, n))
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
    """Valid-padding strided 1-d convolution over the time axis of (T, B, C)."""

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
        w = glorot_uniform(rng, (kernel, in_channels, out_channels),
                           in_channels * kernel, out_channels * kernel)
        super().__init__(W=w, b=np.zeros(out_channels))
        self._cache = None

    @staticmethod
    def output_length(t: int, kernel: int, stride: int) -> int:
        return (t - kernel) // stride + 1

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        t, batch, c = x.shape
        if c != self.in_channels:
            raise DimensionMismatch(f"expected {self.in_channels} channels, got {c}")
        if t < self.kernel:
            raise InputTooShort(f"length {t} < kernel {self.kernel}")
        w = self.params["W"]
        span = self.stride * (self.output_length(t, self.kernel, self.stride) - 1) + 1
        # tap j reads rows j, j + stride, ...: one (T_out*B, C) @ (C, C_out) per tap
        out = x[:span:self.stride].reshape(-1, c) @ w[0] + self.params["b"]
        for j in range(1, self.kernel):
            out += x[j : j + span : self.stride].reshape(-1, c) @ w[j]
        out = out.reshape(-1, batch, self.out_channels)
        if self.activation == "relu":
            np.maximum(out, 0.0, out=out)
        self._cache = (x, out) if train else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, out = self._cache
        self._cache = None
        if self.activation == "relu":
            dout = dout * (out > 0)
        w = self.params["W"]
        span = self.stride * (dout.shape[0] - 1) + 1
        rows = dout.reshape(-1, self.out_channels)
        self.grads["b"] += rows.sum(axis=0)
        dx = np.zeros_like(x)
        for j in range(self.kernel):
            taps = x[j : j + span : self.stride].reshape(-1, self.in_channels)
            self.grads["W"][j] += taps.T @ rows
            dx[j : j + span : self.stride] += (rows @ w[j].T).reshape(-1, x.shape[1], x.shape[2])
        return dx


# ---------------------------------------------------------------------------
# recurrent sweeps, a forward/backward pair per cell. `acts` holds a (T, B, k)
# buffer per gate group activated at once, X @ W + b on entry and the gates
# on return. Backward scales `dacts`, which arrives holding each gate's
# activation derivative, in place; it may overwrite `cells`. `hprev`/`cprev`
# are the states the forward sweep read before step t, `hm` is hprev * rmask.

def _gru_forward(acts, u, rmask, states, steps):
    hidden = states.shape[2]
    u_zr, u_c = u[:, : 2 * hidden], u[:, 2 * hidden :]
    h = np.zeros(states.shape[1:])
    for t in steps:
        hm = h * rmask
        zr, c = acts[0][t], acts[1][t]
        zr += hm @ u_zr
        sigmoid(zr, out=zr)
        c += (zr[:, hidden:] * hm) @ u_c
        np.tanh(c, out=c)
        h = h + zr[:, :hidden] * (c - h)
        states[t] = h


def _gru_backward(acts, u, rmask, dstates, dacts, steps, hprev, hm, cells, cprev):
    hidden = hprev.shape[2]
    u_zr, u_c = u[:, : 2 * hidden], u[:, 2 * hidden :]
    dh = 0.0
    for t in steps:
        dh = dh + dstates[t]
        z, r = acts[0][t, :, :hidden], acts[0][t, :, hidden:]
        d = dacts[t]
        dhz = dh * z
        d[:, 2 * hidden :] *= dhz
        drhm = d[:, 2 * hidden :] @ u_c.T
        d[:, :hidden] *= dh * (acts[1][t] - hprev[t])
        d[:, hidden : 2 * hidden] *= drhm * hm[t]
        dhm = drhm * r + d[:, : 2 * hidden] @ u_zr.T
        dh = dh - dhz + dhm * rmask


def _lstm_forward(acts, u, rmask, states, steps):
    hidden = states.shape[2]
    # sigmoid(a) = 0.5 * tanh(0.5 a) + 0.5 on i, f, o and tanh(a) on g: one
    # chain of four ufuncs over the whole row
    scale = 0.5 + 0.5 * np.repeat(_TANH_BLOCKS["lstm"], hidden)
    shift = 1.0 - scale
    h = c = np.zeros(states.shape[1:])
    cells = np.empty(states.shape)
    for t in steps:
        a = acts[0][t]
        a += (h * rmask) @ u
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        c = a[:, hidden : 2 * hidden] * c + a[:, :hidden] * a[:, 2 * hidden : 3 * hidden]
        cells[t] = c
        h = a[:, 3 * hidden :] * np.tanh(c)
        states[t] = h
    return cells


def _lstm_backward(acts, u, rmask, dstates, dacts, steps, hprev, hm, cells, cprev):
    hidden = hprev.shape[2]
    tcs = np.tanh(cells, out=cells)
    dh, dc = 0.0, 0.0
    for t in steps:
        dh = dh + dstates[t]
        i, f = acts[0][t, :, :hidden], acts[0][t, :, hidden : 2 * hidden]
        g, o = acts[0][t, :, 2 * hidden : 3 * hidden], acts[0][t, :, 3 * hidden :]
        d, tc = dacts[t], tcs[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        d[:, :hidden] *= dc * g
        d[:, hidden : 2 * hidden] *= dc * cprev[t]
        d[:, 2 * hidden : 3 * hidden] *= dc * i
        d[:, 3 * hidden :] *= dh * tc
        dc = dc * f
        dh = (d @ u.T) * rmask


def _rnn_forward(acts, u, rmask, states, steps):
    h = np.zeros(states.shape[1:])
    for t in steps:
        a = acts[0][t]
        a += (h * rmask) @ u
        h = np.tanh(a, out=a)
        states[t] = h


def _rnn_backward(acts, u, rmask, dstates, dacts, steps, hprev, hm, cells, cprev):
    dh = 0.0
    for t in steps:
        d = dacts[t]
        d *= dh + dstates[t]
        dh = (d @ u.T) * rmask


_SWEEPS = {
    "gru": (_gru_forward, _gru_backward),
    "lstm": (_lstm_forward, _lstm_backward),
    "rnn": (_rnn_forward, _rnn_backward),
}


def _previous(seq: np.ndarray, reverse: bool) -> np.ndarray:
    """seq one step earlier in the reading order, zero before the first step."""
    prev = np.roll(seq, -1 if reverse else 1, axis=0)
    prev[-1 if reverse else 0] = 0.0
    return prev


class _Direction(Layer):
    """Parameters and the unrolled pass for one direction of a layer. A
    reverse direction reads t = T-1 down to 0 and writes each state at the
    step it was computed, so every array stays in natural time order."""

    def __init__(self, cell, input_size, hidden, reverse, rng):
        gates = GATES[cell]
        self.cell = cell
        self.hidden = hidden
        self.reverse = reverse
        # the GRU activates its candidate after r, so it keeps two gate groups
        self.groups = (slice(0, 2 * hidden), slice(2 * hidden, None)) if cell == "gru" else (slice(None),)
        self.tanh_cols = np.repeat(np.array(_TANH_BLOCKS[cell], dtype=np.float64), hidden)
        w = glorot_uniform(rng, (input_size, gates * hidden), input_size, hidden)
        u = np.concatenate([orthogonal(rng, hidden) for _ in range(gates)], axis=1)
        super().__init__(W=w, U=u, b=np.zeros(gates * hidden))

    def forward(self, x: np.ndarray, rmask, states: np.ndarray, keep: bool):
        """Read x (T, B, C), writing h into states (T, B, H); returns the
        backward cache when `keep`, else None."""
        t, batch, c = x.shape
        steps = range(t - 1, -1, -1) if self.reverse else range(t)
        w, b = self.params["W"], self.params["b"]
        rows = x.reshape(-1, c)
        acts = [(rows @ w[:, k] + b[k]).reshape(t, batch, -1) for k in self.groups]
        cells = _SWEEPS[self.cell][0](acts, self.params["U"], rmask, states, steps)
        return (x, acts, rmask, states, steps, cells) if keep else None

    def backward(self, cache, dstates: np.ndarray) -> np.ndarray:
        x, acts, rmask, states, steps, cells = cache
        hidden = self.hidden
        hprev = _previous(states, self.reverse)
        hm = hprev * rmask
        cprev = None if cells is None else _previous(cells, self.reverse)
        # sigmoid' = (1 - a) * a and tanh' = (1 - a) * (1 + a)
        dacts = np.empty(acts[0].shape[:2] + self.params["b"].shape)
        for k, a in zip(self.groups, acts):
            np.add(a, self.tanh_cols[k], out=dacts[:, :, k])
            dacts[:, :, k] *= 1.0 - a
        _SWEEPS[self.cell][1](
            acts, self.params["U"], rmask, dstates, dacts, steps[::-1], hprev, hm, cells, cprev
        )
        rows = dacts.reshape(-1, dacts.shape[2])
        self.grads["W"] += x.reshape(-1, x.shape[2]).T @ rows
        self.grads["b"] += rows.sum(axis=0)
        if self.cell == "gru":
            # the candidate block's U reads r * h, not h
            rhm = (acts[0][:, :, hidden:] * hm).reshape(-1, hidden)
            self.grads["U"][:, : 2 * hidden] += hm.reshape(-1, hidden).T @ rows[:, : 2 * hidden]
            self.grads["U"][:, 2 * hidden :] += rhm.T @ rows[:, 2 * hidden :]
        else:
            self.grads["U"] += hm.reshape(-1, hidden).T @ rows
        return (rows @ self.params["W"].T).reshape(x.shape)


class Recurrent:
    """A (bi)directional recurrent layer over a (T, B, C) batch.

    Output is (T, B, hidden) or (T, B, 2*hidden) when bidirectional; the
    second half of each row is the backward direction's state after reading
    the sequence from the end down to that step. The parameter blocks belong
    to the ``fwd`` and ``bwd`` directions; ``steps`` is the last forward's T.
    """

    def __init__(self, cell, input_size, hidden_units, bidirectional,
                 dropout_rate, recurrent_dropout_rate, rng):
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
        self.fwd = _Direction(cell, input_size, hidden_units, False, rng)
        self.bwd = _Direction(cell, input_size, hidden_units, True, rng) if bidirectional else None
        self.directions = [self.fwd] if self.bwd is None else [self.fwd, self.bwd]
        self._cache = None

    @property
    def output_size(self) -> int:
        return self.hidden * len(self.directions)

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        t, batch, c = x.shape
        if c != self.input_size:
            raise DimensionMismatch(f"expected input size {self.input_size}, got {c}")
        if t < 1:
            raise InputTooShort("recurrent layer needs at least one step")
        draw = train and rng is not None
        in_mask = None
        if draw and self.dropout_rate > 0:
            keep = 1.0 - self.dropout_rate
            in_mask = (rng.random(x.shape) < keep) / keep
            x = x * in_mask
        out = np.empty((t, batch, self.output_size))
        caches = []
        for k, direction in enumerate(self.directions):
            rmask = np.ones((batch, self.hidden))
            if draw and self.recurrent_dropout_rate > 0:
                keep = 1.0 - self.recurrent_dropout_rate
                rmask = (rng.random((batch, self.hidden)) < keep) / keep
            states = out[:, :, k * self.hidden : (k + 1) * self.hidden]
            caches.append(direction.forward(x, rmask, states, train))
        self.steps = t
        self._cache = (in_mask, caches) if train else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        in_mask, caches = self._cache
        self._cache = None
        h = self.hidden
        dx = sum(d.backward(cache, dout[:, :, k * h : (k + 1) * h])
                 for k, (d, cache) in enumerate(zip(self.directions, caches)))
        if in_mask is not None:
            dx *= in_mask
        return dx


class DenseSigmoid(Layer):
    """The classification head: p = sigmoid(s . w + b) for each row of a
    (B, W) state, as 1 / (1 + e^-x) or e^x / (1 + e^x) by sign, exact at any
    logit. ``logits`` keeps the (B,) logits for a loss to be formed from."""

    def __init__(self, input_size, rng):
        self.input_size = input_size
        super().__init__(w=glorot_uniform(rng, (input_size,), input_size, 1), b=np.zeros(1))
        self.logits = None
        self._cache = None

    def forward(self, s: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        if s.ndim != 2 or s.shape[1] != self.input_size:
            raise DimensionMismatch(f"expected states (B, {self.input_size}), got {s.shape}")
        self.logits = s @ self.params["w"] + self.params["b"][0]
        self._cache = s if train else None
        e = np.exp(-np.abs(self.logits))
        return np.where(self.logits >= 0, 1.0, e) / (1.0 + e)

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        s = self._cache
        self._cache = None
        self.grads["w"] += dlogits @ s
        self.grads["b"] += dlogits.sum()
        return np.outer(dlogits, self.params["w"])
