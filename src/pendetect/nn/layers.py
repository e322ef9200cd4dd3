"""Layers with explicit forward passes and hand-written gradients.

Every layer runs on a whole minibatch held time-major: sequences are
(T, B, C) arrays, recurrent states (B, H); one sequence is a batch of one.
Parameter blocks live in ``params``/``grads`` dicts keyed by short block
names ("W", "U", "b", "w"); a recurrent layer keys each direction's blocks
by the direction ("fwd/W", "fwd/U", "fwd/b", "bwd/W", ...). A standalone
layer owns its arrays; inside a SequenceClassifier every entry is a view
into the model's flat ``theta``/``grad`` vectors, so layers read and
accumulate in place and never replace an entry.

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

with the reset gate applied to h before the U_h product.

A recurrent layer runs all D of its directions (1, or 2 when
bidirectional) in one loop over t, on a (D, B, H) state:

* Reading order. Row t of a direction's arrays holds the time step it
  reads t-th: time t for fwd, time T-1-t for bwd. The sweep always reads
  rows 0..T-1; the bwd input projection is time-reversed once when it is
  packed, and its states once when they are joined into the output.
* Direction axis. Gate buffers are (T, D, B, gates*H), states
  (T + 1, D, B, H) and U the (D, H, gates*H) stack of the directions' U
  blocks, so one stacked product per step (two for the GRU) serves every
  direction, each with its own U: a direction's numbers are those of a
  one-direction layer, bit for bit.

X @ W + b is one (T*B, C) product per direction and gate group, before the
loop; after the backward sweep, each direction's dW, dU, db and dx are one
product over all T*B rows of its own, back in time order, as is each
conv tap. Recurrent.forward draws dropout once per minibatch, in train
mode with a generator: an inverted (T, B, C) input mask, then a (D, B, H)
recurrent mask, fwd first (all ones otherwise), applied to h wherever it
enters a U product, never to the (1 - z) * h carry term: variational,
one mask per sequence and direction.
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
        # backward returns dx only when a layer below needs it; a model's
        # first conv clears this, and its backward then returns None
        self._input_grad = True

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

    def backward(self, dout: np.ndarray) -> np.ndarray | None:
        x, out = self._cache
        self._cache = None
        if self.activation == "relu":
            dout = dout * (out > 0)
        w = self.params["W"]
        span = self.stride * (dout.shape[0] - 1) + 1
        rows = dout.reshape(-1, self.out_channels)
        self.grads["b"] += rows.sum(axis=0)
        dx = np.zeros_like(x) if self._input_grad else None
        for j in range(self.kernel):
            taps = x[j : j + span : self.stride].reshape(-1, self.in_channels)
            self.grads["W"][j] += taps.T @ rows
            if dx is not None:
                dx[j : j + span : self.stride] += (rows @ w[j].T).reshape(-1, *x.shape[1:])
        return dx


# ---------------------------------------------------------------------------
# recurrent sweeps, a forward/backward pair per cell, reading rows t = 0..T-1
# of arrays held in reading order, with the direction axis ahead of the batch.
# `acts` holds a (T, D, B, k) buffer per gate group activated at once,
# X @ W + b on entry and the gates on return. `u` is (D, H, gates*H).
# Backward scales `dacts`, which arrives holding each gate's activation
# derivative, in place. `states` (and the LSTM's `cells`) has T + 1 rows:
# row 0 stays zero and the forward sweep writes step t's state to row t + 1,
# so `hprev`, the states the sweep read before each step, is `states[:-1]`;
# `hm` is hprev * rmask.

def _gru_forward(acts, u, rmask, states):
    hidden = states.shape[-1]
    u_zr, u_c = u[..., : 2 * hidden], u[..., 2 * hidden :]
    h = np.zeros(states.shape[1:])
    for t in range(len(states) - 1):
        hm = h * rmask
        zr, c = acts[0][t], acts[1][t]
        zr += hm @ u_zr
        sigmoid(zr, out=zr)
        c += (zr[..., hidden:] * hm) @ u_c
        np.tanh(c, out=c)
        h = h + zr[..., :hidden] * (c - h)
        states[t + 1] = h


def _gru_backward(acts, u, rmask, dstates, dacts, hprev, hm, cells):
    hidden = hprev.shape[-1]
    u_zr, u_c = u[..., : 2 * hidden], u[..., 2 * hidden :]
    dh = 0.0
    for t in range(hprev.shape[0] - 1, -1, -1):
        dh = dh + dstates[t]
        z, r = acts[0][t, ..., :hidden], acts[0][t, ..., hidden:]
        d = dacts[t]
        dhz = dh * z
        d[..., 2 * hidden :] *= dhz
        drhm = d[..., 2 * hidden :] @ u_c.swapaxes(1, 2)
        d[..., :hidden] *= dh * (acts[1][t] - hprev[t])
        d[..., hidden : 2 * hidden] *= drhm * hm[t]
        dhm = drhm * r + d[..., : 2 * hidden] @ u_zr.swapaxes(1, 2)
        dh = dh - dhz + dhm * rmask


def _lstm_forward(acts, u, rmask, states):
    hidden = states.shape[-1]
    # sigmoid(a) = 0.5 * tanh(0.5 a) + 0.5 on i, f, o and tanh(a) on g: one
    # chain of four ufuncs over the whole row
    scale = 0.5 + 0.5 * np.repeat(_TANH_BLOCKS["lstm"], hidden)
    shift = 1.0 - scale
    h = c = np.zeros(states.shape[1:])
    cells = np.zeros(states.shape)
    for t in range(len(states) - 1):
        a = acts[0][t]
        a += (h * rmask) @ u
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        c = a[..., hidden : 2 * hidden] * c + a[..., :hidden] * a[..., 2 * hidden : 3 * hidden]
        cells[t + 1] = c
        h = a[..., 3 * hidden :] * np.tanh(c)
        states[t + 1] = h
    return cells


def _lstm_backward(acts, u, rmask, dstates, dacts, hprev, hm, cells):
    hidden = hprev.shape[-1]
    tcs, cprev = np.tanh(cells[1:]), cells[:-1]
    dh, dc = 0.0, 0.0
    for t in range(hprev.shape[0] - 1, -1, -1):
        dh = dh + dstates[t]
        i, f = acts[0][t, ..., :hidden], acts[0][t, ..., hidden : 2 * hidden]
        g, o = acts[0][t, ..., 2 * hidden : 3 * hidden], acts[0][t, ..., 3 * hidden :]
        d, tc = dacts[t], tcs[t]
        dc = dc + dh * o * (1.0 - tc * tc)
        d[..., :hidden] *= dc * g
        d[..., hidden : 2 * hidden] *= dc * cprev[t]
        d[..., 2 * hidden : 3 * hidden] *= dc * i
        d[..., 3 * hidden :] *= dh * tc
        dc = dc * f
        dh = (d @ u.swapaxes(1, 2)) * rmask


def _rnn_forward(acts, u, rmask, states):
    h = np.zeros(states.shape[1:])
    for t in range(len(states) - 1):
        a = acts[0][t]
        a += (h * rmask) @ u
        h = np.tanh(a, out=a)
        states[t + 1] = h


def _rnn_backward(acts, u, rmask, dstates, dacts, hprev, hm, cells):
    dh = 0.0
    for t in range(hprev.shape[0] - 1, -1, -1):
        d = dacts[t]
        d *= dh + dstates[t]
        dh = (d @ u.swapaxes(1, 2)) * rmask


_SWEEPS = {
    "gru": (_gru_forward, _gru_backward),
    "lstm": (_lstm_forward, _lstm_backward),
    "rnn": (_rnn_forward, _rnn_backward),
}

# the rows of the time axis in each direction's reading order: fwd, then bwd
_ORDERS = (slice(None), slice(None, None, -1))


class Recurrent(Layer):
    """A (bi)directional recurrent layer over a (T, B, C) batch.

    Output is (T, B, hidden) or (T, B, 2*hidden) when bidirectional; the
    second half of each row is the backward direction's state after reading
    the sequence from the end down to that step. ``directions`` holds the
    key prefixes, ("fwd",) or ("fwd", "bwd"); each direction has a W
    (C, gates*H), U (H, gates*H) and b (gates*H,) block in the per-cell gate
    layout of the module docstring. ``steps`` is the last forward's T.

    Every direction runs in the same loop over t: the sweep holds its gate
    buffers and states in reading order (bwd rows time-reversed), with the
    direction as the axis ahead of the batch, and multiplies the (D, B, H)
    state by the (D, H, gates*H) stack of the directions' U blocks. A
    unidirectional layer is the case D = 1 of the same code.
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
        self.directions = ("fwd", "bwd") if bidirectional else ("fwd",)
        gates, h = GATES[cell], hidden_units
        blocks = {}
        for d in self.directions:
            blocks[f"{d}/W"] = glorot_uniform(rng, (input_size, gates * h), input_size, h)
            blocks[f"{d}/U"] = np.concatenate([orthogonal(rng, h) for _ in range(gates)], axis=1)
            blocks[f"{d}/b"] = np.zeros(gates * h)
        super().__init__(**blocks)
        # gate groups activated at once, as gate index ranges: the GRU
        # activates its candidate after r, so it keeps two
        self._groups = ((0, 2), (2, 3)) if cell == "gru" else ((0, gates),)
        self._tanh_cols = np.repeat(np.array(_TANH_BLOCKS[cell], dtype=np.float64), hidden_units)
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
        h, n = self.hidden, len(self.directions)
        draw = train and rng is not None
        in_mask = None
        if draw and self.dropout_rate > 0:
            keep = 1.0 - self.dropout_rate
            in_mask = (rng.random(x.shape) < keep) / keep
            x = x * in_mask
        rmask = np.ones((n, batch, h))
        if draw and self.recurrent_dropout_rate > 0:
            keep = 1.0 - self.recurrent_dropout_rate
            rmask = (rng.random((n, batch, h)) < keep) / keep
        # X @ W + b per direction and group, packed in reading order
        rows = x.reshape(-1, c)
        acts = []
        for g0, g1 in self._groups:
            k = slice(g0 * h, g1 * h)
            group = np.empty((t, n, batch, (g1 - g0) * h))
            for d, (direction, order) in enumerate(zip(self.directions, _ORDERS)):
                w, b = self.params[f"{direction}/W"], self.params[f"{direction}/b"]
                proj = rows @ w[:, k] + b[k]
                group[:, d] = proj.reshape(t, batch, -1)[order]
            acts.append(group)
        u = np.array([self.params[f"{direction}/U"] for direction in self.directions])
        states = np.zeros((t + 1, n, batch, h))
        cells = _SWEEPS[self.cell][0](acts, u, rmask, states)
        self.steps = t
        self._cache = (x, in_mask, acts, u, rmask, states, cells) if train else None
        return np.concatenate([states[1:][order, d] for d, order in enumerate(_ORDERS[:n])],
                              axis=2)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, in_mask, acts, u, rmask, states, cells = self._cache
        self._cache = None
        t, batch, c = x.shape
        h, n, gates = self.hidden, len(self.directions), GATES[self.cell]
        hprev = states[:-1]
        hm = hprev * rmask
        # sigmoid' = (1 - a) * a and tanh' = (1 - a) * (1 + a)
        dacts = np.empty((t, n, batch, gates * h))
        for (g0, g1), a in zip(self._groups, acts):
            k = slice(g0 * h, g1 * h)
            np.add(a, self._tanh_cols[k], out=dacts[..., k])
            dacts[..., k] *= 1.0 - a
        dstates = np.stack([dout[order, :, d * h : (d + 1) * h]
                            for d, order in enumerate(_ORDERS[:n])], axis=1)
        _SWEEPS[self.cell][1](acts, u, rmask, dstates, dacts, hprev, hm, cells)
        # each direction's dW, dU, db and dx from its own rows, in time order
        x_rows = x.reshape(-1, c)
        dx = 0.0
        for d, (direction, order) in enumerate(zip(self.directions, _ORDERS)):
            rows = dacts[order, d].reshape(-1, gates * h)
            hm_d = hm[order, d].reshape(-1, h)
            du = self.grads[f"{direction}/U"]
            self.grads[f"{direction}/W"] += x_rows.T @ rows
            self.grads[f"{direction}/b"] += rows.sum(axis=0)
            if self.cell == "gru":
                # the candidate block's U reads r * h, not h
                r = acts[0][order, d, :, h:].reshape(-1, h)
                du[:, : 2 * h] += hm_d.T @ rows[:, : 2 * h]
                du[:, 2 * h :] += (r * hm_d).T @ rows[:, 2 * h :]
            else:
                du += hm_d.T @ rows
            dx = dx + rows @ self.params[f"{direction}/W"].T
        dx = dx.reshape(x.shape)
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
