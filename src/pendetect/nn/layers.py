"""Layers with explicit forward passes and hand-written gradients.

Every layer runs on a whole minibatch held time-major: sequences are
(T, B, C) arrays, recurrent states (B, H); one sequence is a batch of one.
Parameter blocks live in ``params``/``grads`` dicts keyed by short block
names ("W", "U", "b", "w"); a recurrent layer keys each direction's blocks
by the direction ("fwd/W", "fwd/U", "fwd/b", "bwd/W", ...). Every entry is
a view into one flat (theta, grad) pair of vectors: a SequenceClassifier
hands each layer its slice of the model's, and a standalone layer
allocates its own. Layers read and accumulate in place and never replace
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

Only work that depends on t runs inside the loop over t. X @ W + b is one
(T*B, C) product per direction and gate group, before the loop, and the
sigmoid gates' columns of it and of U are halved there once, so a step's
sigmoid 0.5 * (tanh(a / 2) + 1) starts at its tanh. After the backward
sweep, each direction's dW, dU, db and dx are one product over all T*B
rows of its own, back in time order, as is each conv tap.
Recurrent.forward draws dropout once per minibatch, in train mode with a
generator: an inverted (T, B, C) input mask, then a (D, B, H) recurrent
mask, fwd first, applied to h wherever it enters a U product, never to
the (1 - z) * h carry term: variational, one mask per sequence and
direction. A mask that is not drawn (eval mode, no generator, a rate of
0) is None, and nothing is multiplied in its place.
Train mode keeps what backward needs; eval mode keeps nothing.

A layer's constructor takes its settings as a checked Conv1dSpec or
RecurrentSpec holds them, and does not check them again.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DimensionMismatch, InputTooShort

CELLS = ("rnn", "lstm", "gru")
# per gate block, in layout order: 1 where the activation is tanh, 0 for sigmoid
_TANH_BLOCKS = {"rnn": (1,), "lstm": (0, 0, 1, 0), "gru": (0, 0, 1)}
GATES = {cell: len(blocks) for cell, blocks in _TANH_BLOCKS.items()}


def glorot_uniform(rng: np.random.Generator, out: np.ndarray, fan_in: int, fan_out: int) -> None:
    """Fill `out` with a Glorot uniform draw."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    out[...] = rng.uniform(-limit, limit, size=out.shape)


def orthogonal(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the (n, k*n) `out` with k orthogonal (n, n) blocks side by side.

    One (k, n, n) normal draw, the stream of k (n, n) draws in turn, and one
    stacked QR give each block what a QR of its own draw gives.
    """
    n = out.shape[0]
    q, r = np.linalg.qr(rng.normal(size=(out.shape[1] // n, n, n)))
    # fix the sign ambiguity of the decomposition so init is reproducible
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    np.multiply(q, signs, out=out.reshape(n, -1, n).swapaxes(0, 1))


class Layer:
    """Named parameter blocks and their same-shaped gradient accumulators:
    views into `flat`, a (theta, grad) pair of vectors holding exactly the
    blocks of `shapes` in order, or into a zero pair of their own.

    Each layer's static ``shapes`` takes its constructor's arguments and
    gives the blocks such a layer holds, in layout order, so that a model
    can size its vectors before it builds any layer.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]],
                 flat: tuple[np.ndarray, np.ndarray] | None = None):
        if flat is None:
            size = sum(math.prod(shape) for shape in shapes.values())
            flat = np.zeros(size), np.zeros(size)
        theta, grad = flat
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        offset = 0
        for key, shape in shapes.items():
            end = offset + math.prod(shape)
            self.params[key] = theta[offset:end].reshape(shape)
            self.grads[key] = grad[offset:end].reshape(shape)
            offset = end


class Conv1d(Layer):
    """Valid-padding strided 1-d convolution over the time axis of (T, B, C)."""

    @staticmethod
    def shapes(in_channels, out_channels, kernel, *_) -> dict[str, tuple[int, ...]]:
        return {"W": (kernel, in_channels, out_channels), "b": (out_channels,)}

    def __init__(self, in_channels, out_channels, kernel, stride, activation, rng, flat=None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.activation = activation
        super().__init__(self.shapes(in_channels, out_channels, kernel), flat)
        if rng is not None:
            glorot_uniform(rng, self.params["W"], in_channels * kernel, out_channels * kernel)
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
# X @ W + b on entry and the gates on return; the rnn's one group is
# `states[1:]`, so its steps activate in place. `u` is (D, H, gates*H) and
# `rmask` the (D, B, H) recurrent mask, or None when none was drawn.
# Forward: the sigmoid blocks' columns (GRU z, r; LSTM i, f, o) arrive
# halved in `acts` and `u`, so a gate is tanh, then +1 and x0.5 (GRU) or
# x0.5 and +0.5 (LSTM). Halving is exact unless an unhalved sum would
# overflow, and wherever a subnormal could round differently the gate is
# 0.5 either way. `states` (and the LSTM's `cells`) has T + 1 rows: row 0
# stays zero and step t writes its state into row t + 1.
# Backward: `u` is not halved. `dacts` arrives holding each gate's
# activation derivative and is scaled in place. `hprev`, the states the
# sweep read before each step, is `states[:-1]`, and `hm` is hprev * rmask.
# Formed once before each loop: the gate and derivative column views, the
# transposed U, the GRU's c - hprev, the LSTM's 1 - tanh(c)^2 and its
# [g | c_prev | i] stack, whose product with dc scales the i, f and g
# derivatives in one multiply.

def _gru_forward(acts, u, rmask, states):
    hidden = states.shape[-1]
    u_zr, u_c = u[..., : 2 * hidden], u[..., 2 * hidden :]
    zs, rs = acts[0][..., :hidden], acts[0][..., hidden:]
    for t in range(len(states) - 1):
        h, zr, c = states[t], acts[0][t], acts[1][t]
        hm = h if rmask is None else h * rmask
        zr += hm @ u_zr
        np.tanh(zr, out=zr)
        zr += 1.0
        zr *= 0.5
        c += (rs[t] * hm) @ u_c
        np.tanh(c, out=c)
        np.add(h, zs[t] * (c - h), out=states[t + 1])


def _gru_backward(acts, u, rmask, dstates, dacts, hprev, hm, cells):
    hidden = hprev.shape[-1]
    u_zr, u_c = u[..., : 2 * hidden].swapaxes(1, 2), u[..., 2 * hidden :].swapaxes(1, 2)
    zs, rs = acts[0][..., :hidden], acts[0][..., hidden:]
    c_minus_h = acts[1] - hprev
    dz, dr = dacts[..., :hidden], dacts[..., hidden : 2 * hidden]
    dzr, dc = dacts[..., : 2 * hidden], dacts[..., 2 * hidden :]
    dh = 0.0
    for t in range(hprev.shape[0] - 1, -1, -1):
        dh = dh + dstates[t]
        dhz = dh * zs[t]
        dc[t] *= dhz
        drhm = dc[t] @ u_c
        dz[t] *= dh * c_minus_h[t]
        dr[t] *= drhm * hm[t]
        dhm = drhm * rs[t] + dzr[t] @ u_zr
        dh = dh - dhz + (dhm if rmask is None else dhm * rmask)


def _lstm_forward(acts, u, rmask, states):
    hidden = states.shape[-1]
    scale = 0.5 + 0.5 * np.repeat(_TANH_BLOCKS["lstm"], hidden)
    shift = 1.0 - scale
    a = acts[0]
    i, f, g, o = (a[..., k * hidden : (k + 1) * hidden] for k in range(4))
    cells = np.zeros(states.shape)
    for t in range(len(states) - 1):
        h, at = states[t], a[t]
        at += (h if rmask is None else h * rmask) @ u
        np.tanh(at, out=at)
        at *= scale
        at += shift
        c = np.add(f[t] * cells[t], i[t] * g[t], out=cells[t + 1])
        np.multiply(o[t], np.tanh(c), out=states[t + 1])
    return cells


def _lstm_backward(acts, u, rmask, dstates, dacts, hprev, hm, cells):
    hidden = hprev.shape[-1]
    a, u_t = acts[0], u.swapaxes(1, 2)
    i, f, g, o = (a[..., k * hidden : (k + 1) * hidden] for k in range(4))
    tcs = np.tanh(cells[1:])
    dtcs = 1.0 - tcs * tcs
    gci = np.stack([g, cells[:-1], i], axis=-2)
    difg = dacts.reshape(*dacts.shape[:-1], 4, hidden)[..., :3, :]
    do = dacts[..., 3 * hidden :]
    dh, dc = 0.0, 0.0
    for t in range(hprev.shape[0] - 1, -1, -1):
        dh = dh + dstates[t]
        dc = dc + dh * o[t] * dtcs[t]
        difg[t] *= dc[..., None, :] * gci[t]
        do[t] *= dh * tcs[t]
        dc = dc * f[t]
        dh = dacts[t] @ u_t
        if rmask is not None:
            dh *= rmask


def _rnn_forward(acts, u, rmask, states):
    for t in range(len(states) - 1):
        h, a = states[t], acts[0][t]
        a += (h if rmask is None else h * rmask) @ u
        np.tanh(a, out=a)


def _rnn_backward(acts, u, rmask, dstates, dacts, hprev, hm, cells):
    u_t = u.swapaxes(1, 2)
    dh = 0.0
    for t in range(hprev.shape[0] - 1, -1, -1):
        d = dacts[t]
        d *= dh + dstates[t]
        dh = d @ u_t
        if rmask is not None:
            dh *= rmask


_SWEEPS = {
    "gru": (_gru_forward, _gru_backward),
    "lstm": (_lstm_forward, _lstm_backward),
    "rnn": (_rnn_forward, _rnn_backward),
}

# the direction key prefixes, and the rows of the time axis in each
# direction's reading order: fwd, then bwd
_DIRECTIONS = ("fwd", "bwd")
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

    @staticmethod
    def shapes(cell, input_size, hidden_units, bidirectional, *_) -> dict[str, tuple[int, ...]]:
        width = GATES[cell] * hidden_units
        return {f"{d}/{key}": shape for d in _DIRECTIONS[: 1 + bidirectional]
                for key, shape in (("W", (input_size, width)), ("U", (hidden_units, width)),
                                   ("b", (width,)))}

    def __init__(self, cell, input_size, hidden_units, bidirectional,
                 dropout_rate, recurrent_dropout_rate, rng, flat=None):
        self.cell = cell
        self.input_size = input_size
        self.hidden = hidden_units
        self.bidirectional = bidirectional
        self.dropout_rate = dropout_rate
        self.recurrent_dropout_rate = recurrent_dropout_rate
        self.directions = _DIRECTIONS[: 1 + bidirectional]
        super().__init__(self.shapes(cell, input_size, hidden_units, bidirectional), flat)
        if rng is not None:
            for d in self.directions:
                glorot_uniform(rng, self.params[f"{d}/W"], input_size, hidden_units)
                orthogonal(rng, self.params[f"{d}/U"])
        # gate groups activated at once, as gate index ranges: the GRU
        # activates its candidate after r, so it keeps two
        self._groups = ((0, 2), (2, 3)) if cell == "gru" else ((0, GATES[cell]),)
        self._tanh_cols = np.repeat(np.array(_TANH_BLOCKS[cell], dtype=np.float64), hidden_units)
        # 0.5 on the sigmoid blocks' columns, 1 on the tanh blocks'
        self._halve = 0.5 + 0.5 * self._tanh_cols
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
        rmask = None
        if draw and self.recurrent_dropout_rate > 0:
            keep = 1.0 - self.recurrent_dropout_rate
            rmask = (rng.random((n, batch, h)) < keep) / keep
        states = np.zeros((t + 1, n, batch, h))
        acts = [states[1:]] if self.cell == "rnn" else [
            np.empty((t, n, batch, (g1 - g0) * h)) for g0, g1 in self._groups]
        # X @ W + b per direction and group, sigmoid blocks halved, packed in
        # reading order
        rows = x.reshape(-1, c)
        for d, (direction, order) in enumerate(zip(self.directions, _ORDERS)):
            w = self.params[f"{direction}/W"] * self._halve
            b = self.params[f"{direction}/b"] * self._halve
            for (g0, g1), group in zip(self._groups, acts):
                k = slice(g0 * h, g1 * h)
                np.add((rows @ w[:, k]).reshape(t, batch, -1)[order], b[k], out=group[:, d])
        u = np.array([self.params[f"{direction}/U"] for direction in self.directions])
        cells = _SWEEPS[self.cell][0](acts, u * self._halve, rmask, states)
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
        hm = hprev if rmask is None else hprev * rmask
        # sigmoid' = (1 - a) * a and tanh' = (1 - a) * (1 + a)
        dacts = np.empty((t, n, batch, gates * h))
        for (g0, g1), a in zip(self._groups, acts):
            k = slice(g0 * h, g1 * h)
            np.multiply(a + self._tanh_cols[k], 1.0 - a, out=dacts[..., k])
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

    @staticmethod
    def shapes(input_size) -> dict[str, tuple[int, ...]]:
        return {"w": (input_size,), "b": (1,)}

    def __init__(self, input_size, rng, flat=None):
        self.input_size = input_size
        super().__init__(self.shapes(input_size), flat)
        if rng is not None:
            glorot_uniform(rng, self.params["w"], input_size, 1)
        self.logits = None
        self._cache = None

    def forward(self, s: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        if s.ndim != 2 or s.shape[1] != self.input_size:
            raise DimensionMismatch(f"expected states (B, {self.input_size}), got {s.shape}")
        # p comes from the local logits: another thread's forward on a
        # shared model may replace ``self.logits`` before this one is done
        self.logits = logits = s @ self.params["w"] + self.params["b"][0]
        self._cache = s if train else None
        e = np.exp(-np.abs(logits))
        return np.where(logits >= 0, 1.0, e) / (1.0 + e)

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        s = self._cache
        self._cache = None
        self.grads["w"] += dlogits @ s
        self.grads["b"] += dlogits.sum()
        return np.outer(dlogits, self.params["w"])
