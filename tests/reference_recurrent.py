"""The recurrent sweeps and Recurrent.forward/backward as written before
their loops over t were cut to step-dependent work, kept verbatim as the
bit-for-bit reference for the current ones (tests/test_nn_layers.py).

`ReferenceRecurrent` is a `Recurrent` whose forward and backward are the
old ones; built with the same arguments and rng as a `Recurrent`, it holds
the same parameters, draws the same dropout masks and must give the same
bytes. Both run on the same BLAS, so the comparison holds on any machine.
"""

from __future__ import annotations

import numpy as np

from pendetect.errors import DimensionMismatch, InputTooShort
from pendetect.nn.layers import Recurrent

_TANH_BLOCKS = {"rnn": (1,), "lstm": (0, 0, 1, 0), "gru": (0, 0, 1)}
GATES = {cell: len(blocks) for cell, blocks in _TANH_BLOCKS.items()}


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gate sigmoid 0.5 * (tanh(0.5 x) + 1): one ufunc chain, 0 below x ~ -37."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


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

_ORDERS = (slice(None), slice(None, None, -1))


class ReferenceRecurrent(Recurrent):
    """`Recurrent` with the old forward and backward."""

    def __init__(self, cell, input_size, hidden_units, *args, **kwargs):
        super().__init__(cell, input_size, hidden_units, *args, **kwargs)
        self._groups = ((0, 2), (2, 3)) if cell == "gru" else ((0, GATES[cell]),)
        self._tanh_cols = np.repeat(np.array(_TANH_BLOCKS[cell], dtype=np.float64),
                                    hidden_units)

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
