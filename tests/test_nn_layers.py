import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pendetect.errors import DimensionMismatch, InputTooShort
from pendetect.nn.layers import Conv1d, DenseSigmoid, Recurrent, orthogonal, sigmoid


def _one_direction(cell, params):
    """A unidirectional layer carrying `params` and no dropout."""
    c, hidden = params["W"].shape[0], params["U"].shape[0]
    layer = Recurrent(cell, c, hidden, False, 0.0, 0.0, np.random.default_rng(0))
    for key, value in params.items():
        layer.params[f"fwd/{key}"][...] = value
    return layer


def _run_one(layer, x):
    """Forward one (T, C) sequence as a batch of one; returns (T, width)."""
    return layer.forward(x[:, None, :])[:, 0]


# ---------------------------------------------------------------------------
# conv

def test_conv_output_length_paper_cascade():
    assert Conv1d.output_length(1000, 5, 5) == 200
    assert Conv1d.output_length(200, 3, 3) == 66


def test_conv_length_formula_matches_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        kernel = int(rng.integers(1, 8))
        stride = int(rng.integers(1, 8))
        t = int(rng.integers(kernel, kernel + 60))
        # independent count: window starts j with j + kernel <= t, step stride
        count = len([j for j in range(0, t - kernel + 1, stride)])
        assert Conv1d.output_length(t, kernel, stride) == count


def test_conv_identity():
    rng = np.random.default_rng(1)
    conv = Conv1d(3, 3, kernel=1, stride=1, activation="none", rng=rng)
    conv.params["W"][0] = np.eye(3)
    conv.params["b"][:] = 0.0
    x = rng.normal(size=(12, 2, 3))
    np.testing.assert_array_equal(conv.forward(x), x)


def test_conv_matches_triple_loop_oracle():
    rng = np.random.default_rng(2)
    t, c_in, c_out, kernel, stride = 40, 3, 4, 5, 2
    conv = Conv1d(c_in, c_out, kernel, stride, activation="none", rng=rng)
    batch = 3
    x = rng.normal(size=(t, batch, c_in))
    out = conv.forward(x)

    t_out = (t - kernel) // stride + 1
    oracle = np.zeros((t_out, batch, c_out))
    for i in range(t_out):
        for s in range(batch):
            for o in range(c_out):
                acc = conv.params["b"][o]
                for j in range(kernel):
                    for ch in range(c_in):
                        acc += x[i * stride + j, s, ch] * conv.params["W"][j, ch, o]
                oracle[i, s, o] = acc
    np.testing.assert_allclose(out, oracle, rtol=1e-12, atol=1e-12)


def test_conv_relu_clamps():
    rng = np.random.default_rng(3)
    conv = Conv1d(2, 2, kernel=2, stride=1, activation="relu", rng=rng)
    out = conv.forward(rng.normal(size=(10, 3, 2)))
    assert (out >= 0).all()


def test_conv_input_too_short():
    rng = np.random.default_rng(4)
    conv = Conv1d(2, 2, kernel=5, stride=5, activation="relu", rng=rng)
    with pytest.raises(InputTooShort):
        conv.forward(np.zeros((4, 1, 2)))


def test_conv_wrong_channel_count():
    rng = np.random.default_rng(4)
    conv = Conv1d(2, 2, kernel=2, stride=1, activation="relu", rng=rng)
    with pytest.raises(DimensionMismatch):
        conv.forward(np.zeros((10, 1, 3)))


@given(
    kernel=st.integers(1, 6),
    stride=st.integers(1, 6),
    extra=st.integers(0, 30),
    seed=st.integers(0, 100),
)
@settings(max_examples=50, deadline=None)
def test_conv_length_property(kernel, stride, extra, seed):
    rng = np.random.default_rng(seed)
    t = kernel + extra
    conv = Conv1d(2, 3, kernel, stride, activation="relu", rng=rng)
    out = conv.forward(rng.normal(size=(t, 2, 2)))
    assert out.shape == ((t - kernel) // stride + 1, 2, 3)


# ---------------------------------------------------------------------------
# recurrent cells

def test_gru_zero_params_analytic_case():
    # zero weights and a candidate bias beta: z = r = 1/2 and hbar = tanh(beta)
    # at every step, so h1 = tanh(beta) / 2 and h2 = 3/4 tanh(beta)
    beta = np.array([0.3, -1.2, 2.0])
    params = {"W": np.zeros((2, 9)), "U": np.zeros((3, 9)), "b": np.zeros(9)}
    params["b"][6:] = beta
    out = _run_one(_one_direction("gru", params), np.array([[1.0, -2.0], [0.5, 4.0]]))
    np.testing.assert_array_equal(out[0], 0.5 * np.tanh(beta))
    np.testing.assert_allclose(out[1], 0.75 * np.tanh(beta), rtol=1e-15)


def _scalar_sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


# The cell oracles run two steps, so the second reads a non-zero state
# through U; each transcribes the update equations in plain scalar math.

def test_gru_matches_symbolic_oracle():
    rng = np.random.default_rng(7)
    c, hidden = 2, 3
    params = {
        "W": rng.normal(size=(c, 3 * hidden)),
        "U": rng.normal(size=(hidden, 3 * hidden)),
        "b": rng.normal(size=3 * hidden),
    }
    xs = rng.normal(size=(2, c))
    out = _run_one(_one_direction("gru", params), xs)

    def step(x, h_prev):
        def affine(gate, unit):
            g = gate * hidden + unit
            return sum(x[j] * params["W"][j, g] for j in range(c)) + params["b"][g]

        def rec(gate, unit, h_vec):
            g = gate * hidden + unit
            return sum(h_vec[k] * params["U"][k, g] for k in range(hidden))

        z = [_scalar_sigmoid(affine(0, u) + rec(0, u, h_prev)) for u in range(hidden)]
        r = [_scalar_sigmoid(affine(1, u) + rec(1, u, h_prev)) for u in range(hidden)]
        rh = [r[k] * h_prev[k] for k in range(hidden)]
        hbar = [math.tanh(affine(2, u) + rec(2, u, rh)) for u in range(hidden)]
        return [(1 - z[u]) * h_prev[u] + z[u] * hbar[u] for u in range(hidden)]

    h1 = step(xs[0], [0.0] * hidden)
    h2 = step(xs[1], h1)
    np.testing.assert_allclose(out, [h1, h2], rtol=1e-12, atol=1e-14)


def test_lstm_matches_symbolic_oracle():
    rng = np.random.default_rng(8)
    c, hidden = 2, 2
    params = {
        "W": rng.normal(size=(c, 4 * hidden)),
        "U": rng.normal(size=(hidden, 4 * hidden)),
        "b": rng.normal(size=4 * hidden),
    }
    xs = rng.normal(size=(2, c))
    out = _run_one(_one_direction("lstm", params), xs)

    def step(x, h_prev, c_prev):
        def gate(idx, unit, act):
            g = idx * hidden + unit
            v = (
                sum(x[j] * params["W"][j, g] for j in range(c))
                + sum(h_prev[k] * params["U"][k, g] for k in range(hidden))
                + params["b"][g]
            )
            return act(v)

        h, cell = [], []
        for u in range(hidden):
            i = gate(0, u, _scalar_sigmoid)
            f = gate(1, u, _scalar_sigmoid)
            g = gate(2, u, math.tanh)
            o = gate(3, u, _scalar_sigmoid)
            cell.append(f * c_prev[u] + i * g)
            h.append(o * math.tanh(cell[u]))
        return h, cell

    h1, c1 = step(xs[0], [0.0] * hidden, [0.0] * hidden)
    h2, _ = step(xs[1], h1, c1)
    np.testing.assert_allclose(out, [h1, h2], rtol=1e-12, atol=1e-14)


def test_rnn_matches_symbolic_oracle():
    rng = np.random.default_rng(9)
    params = {
        "W": rng.normal(size=(2, 3)),
        "U": rng.normal(size=(3, 3)),
        "b": rng.normal(size=3),
    }
    xs = rng.normal(size=(2, 2))
    out = _run_one(_one_direction("rnn", params), xs)
    h1 = np.tanh(xs[0] @ params["W"] + params["b"])
    h2 = np.tanh(xs[1] @ params["W"] + h1 @ params["U"] + params["b"])
    np.testing.assert_allclose(out, [h1, h2], rtol=1e-14)


@given(seed=st.integers(0, 500), cell=st.sampled_from(["rnn", "lstm", "gru"]))
@settings(max_examples=50, deadline=None)
def test_hidden_state_bounded(seed, cell):
    rng = np.random.default_rng(seed)
    hidden = int(rng.integers(1, 5))
    c = int(rng.integers(1, 4))
    gates = {"rnn": 1, "gru": 3, "lstm": 4}[cell]

    # moderate scale: the mathematical strict bound survives rounding
    params = {
        "W": rng.normal(size=(c, gates * hidden)),
        "U": rng.normal(size=(hidden, gates * hidden)),
        "b": rng.normal(size=gates * hidden),
    }
    h = _run_one(_one_direction(cell, params), rng.normal(size=(1, c)))
    assert (np.abs(h) < 1).all()

    # extreme scale: tanh saturates to exactly 1.0 in float64, so the
    # representable guarantee is |h| <= 1 and finite
    big = {k: v * 100 for k, v in params.items()}
    h = _run_one(_one_direction(cell, big), rng.normal(size=(1, c)) * 100)
    assert (np.abs(h) <= 1).all()
    assert np.isfinite(h).all()


def test_cell_dimension_mismatch():
    rng = np.random.default_rng(0)
    layer = Recurrent("gru", 3, 4, False, 0.0, 0.0, rng)
    with pytest.raises(DimensionMismatch):
        layer.forward(np.zeros((5, 1, 2)))


# ---------------------------------------------------------------------------
# bidirectional wrapper

def test_bidirectional_width_and_degenerate_length():
    rng = np.random.default_rng(10)
    layer = Recurrent("gru", 3, 4, True, 0.0, 0.0, rng)
    # make both directions identical so the single step is visibly shared
    for key in ("W", "U", "b"):
        layer.params[f"bwd/{key}"][...] = layer.params[f"fwd/{key}"]
    out = layer.forward(np.array([[[0.5, -1.0, 2.0]]]))
    assert out.shape == (1, 1, 8)
    np.testing.assert_array_equal(out[0, 0, :4], out[0, 0, 4:])


@pytest.mark.parametrize("hidden", [4, 17])
def test_bidirectional_reversal_symmetry(hidden):
    # swapping the directions' parameters and reversing time swaps the
    # halves: the fused sweep reads the backward direction's rows reversed
    rng = np.random.default_rng(11)
    c, t = 3, 9
    for cell in ("rnn", "lstm", "gru"):
        a = Recurrent(cell, c, hidden, True, 0.0, 0.0, rng)
        b = Recurrent(cell, c, hidden, True, 0.0, 0.0, rng)
        for key in ("W", "U", "b"):
            b.params[f"fwd/{key}"][...] = a.params[f"bwd/{key}"]
            b.params[f"bwd/{key}"][...] = a.params[f"fwd/{key}"]
        x = rng.normal(size=(t, 2, c))
        out_a = a.forward(x)
        out_b = b.forward(x[::-1])
        swapped = np.concatenate([out_a[::-1, :, hidden:], out_a[::-1, :, :hidden]], axis=2)
        np.testing.assert_array_equal(out_b, swapped, err_msg=cell)


def _forward_half_and_unidirectional(cell, hidden):
    """A bidirectional layer and a unidirectional one with the same fwd
    parameters, run in train mode with drawn masks on the same batch; the
    bidirectional output's gradient is zero on the backward half."""
    c, t, batch = 5, 9, 4
    bi = Recurrent(cell, c, hidden, True, 0.3, 0.4, np.random.default_rng(21))
    uni = Recurrent(cell, c, hidden, False, 0.3, 0.4, np.random.default_rng(0))
    for key in uni.params:
        uni.params[key][...] = bi.params[key]
    data = np.random.default_rng(3)
    x = data.normal(size=(t, batch, c))
    g = data.normal(size=(t, batch, hidden))
    # both draw the input mask, then the fwd recurrent mask, from one seed
    out_bi = bi.forward(x, train=True, rng=np.random.default_rng(8))
    out_uni = uni.forward(x, train=True, rng=np.random.default_rng(8))
    dx_bi = bi.backward(np.concatenate([g, np.zeros_like(g)], axis=2))
    dx_uni = uni.backward(g)
    return (out_bi[:, :, :hidden], bi.grads, dx_bi), (out_uni, uni.grads, dx_uni)


def _assert_forward_half_exact(cell, hidden):
    (out, grads, dx), (out_uni, grads_uni, dx_uni) = _forward_half_and_unidirectional(cell, hidden)
    np.testing.assert_array_equal(out, out_uni)
    for key in grads_uni:
        np.testing.assert_array_equal(grads[key], grads_uni[key], err_msg=key)
    np.testing.assert_array_equal(dx, dx_uni)


@pytest.mark.parametrize("cell", ["rnn", "lstm", "gru"])
def test_bidirectional_forward_half_equals_unidirectional(cell):
    # each direction multiplies its own state by its own U, so the fwd half
    # keeps every bit; the bwd direction's share of dx is exactly zero here
    _assert_forward_half_exact(cell, 32)


@pytest.mark.parametrize("hidden", [4, 17])
@pytest.mark.parametrize("cell", ["rnn", "lstm", "gru"])
def test_bidirectional_forward_half_at_other_widths(cell, hidden):
    # no width-dependent summation order: bit-exact away from the paper's width too
    _assert_forward_half_exact(cell, hidden)


def test_bidirectional_paper_width():
    rng = np.random.default_rng(12)
    layer = Recurrent("gru", 16, 32, True, 0.0, 0.0, rng)
    out = layer.forward(rng.normal(size=(7, 5, 16)))
    assert out.shape == (7, 5, 64)


# ---------------------------------------------------------------------------
# dropout behavior

def test_dropout_inactive_in_eval_mode():
    rng = np.random.default_rng(13)
    layer = Recurrent("gru", 3, 4, True, 0.5, 0.5, rng)
    x = rng.normal(size=(6, 2, 3))
    np.testing.assert_array_equal(layer.forward(x, train=False), layer.forward(x, train=False))


def test_dropout_applies_in_train_mode():
    rng = np.random.default_rng(14)
    layer = Recurrent("gru", 3, 4, True, 0.5, 0.5, rng)
    x = np.random.default_rng(0).normal(size=(6, 2, 3))
    eval_out = layer.forward(x, train=False)
    train_out = layer.forward(x, train=True, rng=np.random.default_rng(99))
    assert not np.allclose(eval_out, train_out)


def test_recurrent_masks_are_drawn_per_sequence():
    # two identical sequences in one batch: with recurrent dropout only, each
    # gets its own (B, H) mask per direction, so their outputs part ways
    layer = Recurrent("gru", 3, 8, True, 0.0, 0.5, np.random.default_rng(17))
    seq = np.random.default_rng(2).normal(size=(6, 1, 3))
    x = np.concatenate([seq, seq], axis=1)
    out = layer.forward(x, train=True, rng=np.random.default_rng(5))
    for half in (slice(0, 8), slice(8, 16)):
        assert not np.allclose(out[:, 0, half], out[:, 1, half])
    eval_out = layer.forward(x)
    np.testing.assert_allclose(eval_out[:, 0], eval_out[:, 1], rtol=1e-12)


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("cell", ["rnn", "lstm", "gru"])
def test_masked_gradients_match_finite_differences(cell, bidirectional):
    # the dropout path training runs: input and recurrent masks drawn from a
    # fixed seed, so every forward of the check sees the same masks
    layer = Recurrent(cell, 3, 4, bidirectional, 0.3, 0.4, np.random.default_rng(21))
    data = np.random.default_rng(3)
    x = data.normal(size=(5, 2, 3))
    g = data.normal(size=(5, 2, layer.output_size))

    def loss(inputs):
        return float(np.sum(layer.forward(inputs, train=True, rng=np.random.default_rng(8)) * g))

    # the masks drop units: the train-mode loss differs from the eval-mode one
    assert not np.isclose(np.sum(layer.forward(x) * g), loss(x))
    dx = layer.backward(g)
    eps = 1e-6
    for name, block in layer.params.items():
        numeric = np.zeros_like(block)
        for i in np.ndindex(block.shape):
            original = block[i]
            block[i] = original + eps
            plus = loss(x)
            block[i] = original - eps
            numeric[i] = (plus - loss(x)) / (2 * eps)
            block[i] = original
        np.testing.assert_allclose(layer.grads[name], numeric, rtol=1e-6, atol=1e-8)
    numeric = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[i] = eps
        numeric[i] = (loss(x + step) - loss(x - step)) / (2 * eps)
    np.testing.assert_allclose(dx, numeric, rtol=1e-6, atol=1e-8)


def test_zero_rate_train_equals_eval():
    rng = np.random.default_rng(15)
    layer = Recurrent("gru", 3, 4, True, 0.0, 0.0, rng)
    x = np.random.default_rng(1).normal(size=(6, 2, 3))
    np.testing.assert_array_equal(
        layer.forward(x, train=True, rng=np.random.default_rng(0)),
        layer.forward(x, train=False),
    )


# ---------------------------------------------------------------------------
# head and small pieces

def test_dense_sigmoid_forward():
    rng = np.random.default_rng(16)
    head = DenseSigmoid(4, rng)
    s = rng.normal(size=(3, 4))
    p = head.forward(s)
    for row, p_row in zip(s, p):
        logit = float(row @ head.params["w"] + head.params["b"][0])
        assert p_row == pytest.approx(1.0 / (1.0 + math.exp(-logit)), rel=1e-12)
    with pytest.raises(DimensionMismatch):
        head.forward(np.zeros((1, 5)))
    # p keeps full relative precision far below the logit where the tanh-form
    # gate sigmoid rounds to 0, so confident negatives stay ranked apart
    unit = DenseSigmoid(1, rng)
    unit.params["w"][...] = 1.0
    logits = np.array([-30.0, -40.0, -41.0, -700.0, 30.0])
    p = unit.forward(logits[:, None])
    expected = [math.exp(v) / (1.0 + math.exp(v)) if v < 0 else 1.0 / (1.0 + math.exp(-v))
                for v in logits]
    np.testing.assert_allclose(p, expected, rtol=1e-12, atol=0.0)
    assert p[1] > p[2] > p[3] > 0.0


def test_sigmoid_stable_at_extremes():
    out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)
    assert np.isfinite(out).all()


def test_orthogonal_init_is_orthogonal_and_deterministic():
    q1 = orthogonal(np.random.default_rng(5), 6)
    q2 = orthogonal(np.random.default_rng(5), 6)
    np.testing.assert_array_equal(q1, q2)
    np.testing.assert_allclose(q1 @ q1.T, np.eye(6), atol=1e-12)
