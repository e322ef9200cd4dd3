import ast
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pendetect.errors import DimensionMismatch, InputTooShort, ParseError, SpecMismatch
from pendetect.nn import model as model_module
from pendetect.nn import (
    Conv1dSpec,
    ModelSpec,
    RecurrentSpec,
    SequenceClassifier,
    closed_form_parameter_count,
    load_checkpoint,
    spec_hash,
)
from pendetect.nn.layers import Conv1d, glorot_uniform, orthogonal


def _tiny_spec(cell="gru", with_conv=True, bidirectional=True):
    convs = (Conv1dSpec(2, 2, kernel=2, stride=2),) if with_conv else ()
    return ModelSpec(
        conv_layers=convs,
        recurrent_layers=(RecurrentSpec(cell, 3, bidirectional=bidirectional),),
    )


# ---------------------------------------------------------------------------
# spec validation

def test_spec_requires_recurrent_layer():
    with pytest.raises(ValueError):
        ModelSpec(conv_layers=(), recurrent_layers=())


def test_spec_conv_chain_must_match():
    with pytest.raises(ValueError):
        ModelSpec(
            conv_layers=(Conv1dSpec(4, 8, 5, 5), Conv1dSpec(16, 16, 3, 3)),
            recurrent_layers=(RecurrentSpec("gru", 4),),
        )


def test_model_rejects_wrong_input_size():
    with pytest.raises(DimensionMismatch):
        SequenceClassifier(_tiny_spec(), input_size=3, rng=np.random.default_rng(0))


def test_reference_spec_shape():
    spec = ModelSpec.reference(17)
    assert [(c.out_channels, c.kernel, c.stride) for c in spec.conv_layers] == [
        (8, 5, 5),
        (16, 3, 3),
    ]
    assert [r.hidden_units for r in spec.recurrent_layers] == [32, 32]
    assert all(r.bidirectional and r.cell == "gru" for r in spec.recurrent_layers)
    # the conventional + recurrent dropout pair sits on the second layer only
    assert spec.recurrent_layers[0].dropout_rate == 0.0
    assert spec.recurrent_layers[0].recurrent_dropout_rate == 0.0
    assert spec.recurrent_layers[1].dropout_rate == 0.1
    assert spec.recurrent_layers[1].recurrent_dropout_rate == 0.1


# ---------------------------------------------------------------------------
# parameter counting

def test_reference_parameter_count_m17():
    model = SequenceClassifier(ModelSpec.reference(17), 17, np.random.default_rng(0))
    assert model.theta.size == closed_form_parameter_count(model.spec, 17) == 29185


def test_closed_form_counts_by_hand():
    # conv: 2*2*2+2 = 10; bi-gru h=3 on 2 channels: 2 * 3*(2*3+9+3) = 108;
    # head: 6+1 = 7
    assert closed_form_parameter_count(_tiny_spec(), 2) == 10 + 108 + 7
    # lstm swaps the gate multiplier 3 -> 4
    assert closed_form_parameter_count(_tiny_spec("lstm"), 2) == 10 + 144 + 7
    # unidirectional rnn without conv: 1*(2*3+9+3) + (3+1)
    assert (
        closed_form_parameter_count(_tiny_spec("rnn", with_conv=False, bidirectional=False), 2)
        == 18 + 4
    )


def test_reference_layout_is_pinned():
    # checkpoints name and order their blocks by this layout, and a seed
    # pins their values through the init draw order
    model = SequenceClassifier(ModelSpec.reference(17), 17, np.random.default_rng(0))
    params = model.params()
    assert list(params) == [
        "conv0/W", "conv0/b", "conv1/W", "conv1/b",
        *(f"rec{i}/{d}/{k}" for i in (0, 1) for d in ("fwd", "bwd") for k in "WUb"),
        "head/w", "head/b",
    ]
    offset = 0
    for name, block in params.items():
        assert block.flags.c_contiguous, name
        assert block.ctypes.data - model.theta.ctypes.data == offset * block.itemsize, name
        offset += block.size
    assert offset == model.theta.size

    replay = np.random.default_rng(0)
    expected = {
        "conv0/W": glorot_uniform(replay, (5, 17, 8), 17 * 5, 8 * 5),
        "conv1/W": glorot_uniform(replay, (3, 8, 16), 8 * 3, 16 * 3),
    }
    for d in ("fwd", "bwd"):
        expected[f"rec0/{d}/W"] = glorot_uniform(replay, (16, 96), 16, 32)
        expected[f"rec0/{d}/U"] = np.concatenate([orthogonal(replay, 32) for _ in range(3)],
                                                 axis=1)
    for name, value in expected.items():
        np.testing.assert_array_equal(params[name], value, err_msg=name)


def test_parameter_count_matches_array_sizes():
    for cell in ("rnn", "lstm", "gru"):
        model = SequenceClassifier(
            ModelSpec.reference(5, cell=cell), 5, np.random.default_rng(1)
        )
        assert model.theta.size == closed_form_parameter_count(model.spec, 5)
        assert sum(v.size for v in model.params().values()) == model.theta.size


# ---------------------------------------------------------------------------
# forward contracts

def test_zero_weights_give_exactly_half():
    model = SequenceClassifier(_tiny_spec(), 2, np.random.default_rng(2))
    for p in model.params().values():
        p[...] = 0.0
    assert model.forward(np.random.default_rng(0).normal(size=(10, 2))) == 0.5


def test_eval_forward_is_bit_identical():
    model = SequenceClassifier(_tiny_spec(), 2, np.random.default_rng(3))
    x = np.random.default_rng(1).normal(size=(12, 2))
    assert model.forward(x) == model.forward(x)


def test_output_range_sweep():
    model = SequenceClassifier(
        ModelSpec(conv_layers=(), recurrent_layers=(RecurrentSpec("gru", 2),)),
        2,
        np.random.default_rng(4),
    )
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        p = model.forward(rng.normal(size=(4, 2)) * rng.uniform(0.1, 30))
        assert 0.0 < p < 1.0


def test_min_input_length_reference_stack():
    model = SequenceClassifier(ModelSpec.reference(3), 3, np.random.default_rng(6))
    assert model.min_input_length() == 15
    with pytest.raises(InputTooShort):
        model.forward(np.zeros((14, 3)))
    assert 0 < model.forward(np.zeros((15, 3))) < 1


def test_head_reads_each_directions_final_state():
    # with the head weights split in halves, forcing one half to zero must
    # isolate the corresponding direction's final step
    model = SequenceClassifier(
        ModelSpec(conv_layers=(), recurrent_layers=(RecurrentSpec("gru", 3),)),
        2,
        np.random.default_rng(7),
    )
    x = np.random.default_rng(2).normal(size=(9, 2))
    rec_out = model.recurrents[0].forward(x[:, None])[:, 0]  # a (T, 1, C) batch
    state = np.concatenate([rec_out[-1, :3], rec_out[0, 3:]])
    expected_logit = float(state @ model.head.params["w"] + model.head.params["b"][0])
    p = model.forward(x)
    assert p == pytest.approx(1.0 / (1.0 + np.exp(-expected_logit)), rel=1e-12)


@pytest.mark.parametrize("cell", ["rnn", "lstm", "gru"])
@pytest.mark.parametrize("with_conv", [True, False])
@pytest.mark.parametrize("bidirectional", [True, False])
def test_batch_equals_sequences_one_at_a_time(cell, with_conv, bidirectional):
    spec = ModelSpec(
        conv_layers=(Conv1dSpec(2, 3, kernel=3, stride=2),) if with_conv else (),
        recurrent_layers=(
            RecurrentSpec(cell, 3, bidirectional=bidirectional),
            RecurrentSpec(cell, 2, bidirectional=bidirectional),
        ),
    )
    model = SequenceClassifier(spec, 2, np.random.default_rng(21))
    x = np.random.default_rng(22).normal(size=(3, 11, 2))
    dlogits = np.array([0.7, -0.4, 0.2])

    single_p, single_grad = [], np.zeros_like(model.grad)
    for values, d in zip(x, dlogits):
        single_p.append(model.forward(values, train=True))
        model.zero_grads()
        model.backward(d)
        single_grad += model.grad

    p = model.forward(x, train=True)
    model.zero_grads()
    model.backward(dlogits)
    assert p.shape == (3,)
    np.testing.assert_allclose(p, single_p, rtol=1e-12)
    np.testing.assert_allclose(model.grad, single_grad, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(model.forward(x), p, rtol=1e-12)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    model = SequenceClassifier(_tiny_spec(), 2, rng)
    x = np.random.default_rng(3).normal(size=(10, 2))
    before = model.forward(x)
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, normalization_ref="norm.tsv", preprocessing={"cutoff": 9})
    loaded, meta = load_checkpoint(path)
    assert meta["normalization_ref"] == "norm.tsv"
    assert meta["preprocessing"] == {"cutoff": 9}
    assert loaded.forward(x) == before
    for key, value in model.params().items():
        np.testing.assert_array_equal(loaded.params()[key], value)


def test_load_checkpoint_draws_no_initialization(tmp_path, monkeypatch):
    model = SequenceClassifier(ModelSpec.reference(3), 3, np.random.default_rng(5))
    x = np.random.default_rng(6).normal(size=(40, 3))
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path)

    def no_qr(*args, **kwargs):
        raise AssertionError("load_checkpoint ran an orthogonal initialization")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    loaded, _ = load_checkpoint(path)
    assert loaded.forward(x) == model.forward(x)
    np.testing.assert_array_equal(loaded.theta, model.theta)


def test_repeated_load_decodes_once_per_content(tmp_path, monkeypatch):
    a = SequenceClassifier(ModelSpec.reference(3), 3, np.random.default_rng(21))
    b = SequenceClassifier(ModelSpec.reference(3), 3, np.random.default_rng(22))
    x = np.random.default_rng(23).normal(size=(2, 40, 3))
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    a.save_checkpoint(pa, preprocessing={"cutoff": 40})
    b.save_checkpoint(pb, preprocessing={"cutoff": 40})

    missed, _ = load_checkpoint(pa)
    decode = model_module._decode_checkpoint

    def no_decode(*args):
        raise AssertionError("an unchanged checkpoint was decoded again")

    monkeypatch.setattr(model_module, "_decode_checkpoint", no_decode)
    hit, _ = load_checkpoint(pa)
    assert hit is not missed
    np.testing.assert_array_equal(hit.forward(x), missed.forward(x))
    np.testing.assert_array_equal(hit.forward(x), a.forward(x))
    monkeypatch.setattr(model_module, "_decode_checkpoint", decode)
    other, _ = load_checkpoint(pb)  # new bytes: a miss
    np.testing.assert_array_equal(other.forward(x), b.forward(x))


def test_changing_a_load_leaves_the_next_unchanged(tmp_path):
    model = SequenceClassifier(_tiny_spec(), 2, np.random.default_rng(24))
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, normalization_ref="n.tsv",
                          preprocessing={"cutoff": 9, "feature_groups": ["raw"]})
    first, meta = load_checkpoint(path)
    first.theta += 1.0
    first.params()["head/b"][...] = 7.0
    meta["preprocessing"]["cutoff"] = 3
    meta["preprocessing"]["feature_groups"].append("kinematic")
    meta["normalization_ref"] = None
    second, meta2 = load_checkpoint(path)
    np.testing.assert_array_equal(second.theta, model.theta)
    assert meta2 == {"normalization_ref": "n.tsv",
                     "preprocessing": {"cutoff": 9, "feature_groups": ["raw"]}}


def test_load_failure_is_not_kept(tmp_path):
    model = SequenceClassifier(_tiny_spec(), 2, np.random.default_rng(25))
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    model.save_checkpoint(good)
    load_checkpoint(good)
    doc = json.loads(good.read_text())
    doc["spec_sha256"] = "0" * 64
    bad.write_text(json.dumps(doc))
    for _ in range(2):
        with pytest.raises(SpecMismatch):
            load_checkpoint(bad)
    np.testing.assert_array_equal(load_checkpoint(good)[0].theta, model.theta)


def test_checkpoint_bytes_are_deterministic(tmp_path):
    a = SequenceClassifier(_tiny_spec(), 2, np.random.default_rng(9))
    b = SequenceClassifier(_tiny_spec(), 2, np.random.default_rng(9))
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    a.save_checkpoint(pa)
    b.save_checkpoint(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_checkpoint_rejects_tampered_spec(tmp_path):
    model = SequenceClassifier(_tiny_spec(), 2, np.random.default_rng(10))
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path)
    doc = json.loads(path.read_text())
    doc["spec"]["recurrent_layers"][0]["hidden_units"] = 64
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecMismatch):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_text(json.dumps({"format": "something v99"}))
    with pytest.raises(SpecMismatch):
        load_checkpoint(path)


def test_load_parameters_into_wrong_shape_model(tmp_path):
    # the blocks of a 3-unit model under a consistently hashed 5-unit spec
    a = SequenceClassifier(_tiny_spec(), 2, np.random.default_rng(11))
    path = tmp_path / "a.ckpt"
    a.save_checkpoint(path)
    doc = json.loads(path.read_text())
    wider = ModelSpec(
        conv_layers=(Conv1dSpec(2, 2, kernel=2, stride=2),),
        recurrent_layers=(RecurrentSpec("gru", 5),),
    )
    doc["spec"], doc["spec_sha256"] = wider.to_dict(), spec_hash(wider, 2)
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecMismatch, match="block rec0/fwd/W: checkpoint shape") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_a_non_finite_block(tmp_path, value):
    model = SequenceClassifier(_tiny_spec(), 2, np.random.default_rng(13))
    model.params()["rec0/bwd/U"][1, 2] = value
    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path)
    with pytest.raises(ParseError, match="block rec0/bwd/U holds a non-finite value") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


def test_spec_hash_differs_for_different_specs():
    assert spec_hash(_tiny_spec(), 2) != spec_hash(_tiny_spec("lstm"), 2)
    assert spec_hash(_tiny_spec(), 2) != spec_hash(_tiny_spec(), 3)
    assert spec_hash(_tiny_spec(), 2) == spec_hash(_tiny_spec(), 2)


# ---------------------------------------------------------------------------
# first conv


def test_first_conv_skips_input_gradient_with_equal_weight_gradients():
    model = SequenceClassifier(ModelSpec.reference(5), 5, np.random.default_rng(26))
    x = np.random.default_rng(27).normal(size=(3, 60, 5))
    conv0 = model.convs[0]
    seen = {}

    def recording_backward(dout):
        seen["dout"] = dout.copy()
        seen["dx"] = Conv1d.backward(conv0, dout)
        return seen["dx"]

    conv0.backward = recording_backward
    model.zero_grads()
    p = model.forward(x, train=True, rng=np.random.default_rng(28))
    model.backward(p - np.array([1.0, 0.0, 1.0]))
    assert seen["dx"] is None

    ref = Conv1d(5, 8, 5, 5, "relu", rng=None)
    ref.params["W"][...] = model.params()["conv0/W"]
    ref.params["b"][...] = model.params()["conv0/b"]
    ref.forward(np.ascontiguousarray(x.transpose(1, 0, 2)), train=True)
    dx = ref.backward(seen["dout"])
    assert dx.shape == (60, 3, 5)
    assert model.grads()["conv0/W"].tobytes() == ref.grads["W"].tobytes()
    assert model.grads()["conv0/b"].tobytes() == ref.grads["b"].tobytes()


# ---------------------------------------------------------------------------
# dependencies

def test_nn_imports_only_the_standard_library_numpy_errors_and_itself():
    # nn depends on numpy and pendetect.errors alone: it knows nothing of
    # recordings, features, evaluation or the CLI
    nn_dir = Path(model_module.__file__).parent
    own = {path.stem for path in nn_dir.glob("*.py")}
    outside = []
    for path in sorted(nn_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [(0, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [(node.level, node.module or alias.name) for alias in node.names]
            else:
                continue
            for level, name in imported:
                top = name.partition(".")[0]
                if not (
                    (level == 0 and (top in sys.stdlib_module_names or top == "numpy"))
                    or (level == 1 and top in own)
                    or (level == 2 and name == "errors")
                ):
                    outside.append(f"{path.name}: {'.' * level}{name}")
    assert outside == []
