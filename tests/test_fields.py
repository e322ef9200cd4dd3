"""The declared settings: one rule and one message per field, whether the
value comes from a Python caller, a config file or a checkpoint."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pendetect.cli import CONFIG_FIELDS, load_config, main
from pendetect.errors import ConfigError
from pendetect.nn import (
    Conv1dSpec,
    ModelSpec,
    RecurrentSpec,
    SequenceClassifier,
    TrainConfig,
    load_checkpoint,
    spec_hash,
)
from pendetect.nn.fields import REQUIRED, declared
from pendetect.nn.model import SplitPlan
from pendetect.preprocess import PrepConfig

# a valid instance of each kind, as keyword arguments
_KFOLD = {"kind": "kfold", "seed": 0, "k": 2}
_HOLDOUT = {"kind": "holdout", "seed": 0, "train_frac": 0.5, "val_frac": 0.25,
            "test_frac": 0.25, "n_runs": 1}
_CONV = ModelSpec.reference(16).to_dict()["conv_layers"][0]
_REC = ModelSpec.reference(16).to_dict()["recurrent_layers"][0]


def _refused(f) -> list:
    """Values that row `f`'s own interval or vocabulary refuses: each
    finite end the interval leaves out, else the whole number past it; an
    unknown word where there is no interval."""
    if not isinstance(f.allowed, str) or not f.allowed:
        return ["bogus"]
    lo, hi = map(float, f.allowed[1:-1].split(","))
    out = []
    if lo > -np.inf:
        out.append(lo - 1 if f.allowed[0] == "[" else lo)
    if hi < np.inf:
        out.append(hi + 1 if f.allowed[-1] == "]" else hi)
    return [f.type(v) for v in out]


def _cases():
    for cls in (Conv1dSpec, RecurrentSpec, TrainConfig, SplitPlan):
        for f in declared(cls):
            for value in _refused(f):
                yield pytest.param(cls, f.path, value, id=f"{cls.__name__}-{f.path}-{value}")


def _valid(cls, name: str) -> dict:
    """Keyword arguments of a valid `cls` whose field `name` is checked."""
    if cls is SplitPlan:
        return _HOLDOUT if name in _HOLDOUT and name != "kind" else _KFOLD
    return {Conv1dSpec: _CONV, RecurrentSpec: _REC, TrainConfig: {}}[cls]


def _config_fault(cls, name: str, value) -> tuple[dict, str]:
    """Config overrides that set field `name` of `cls` to `value`, and the
    prefix the config error puts before the field's own message."""
    if name == "seed":
        return {"seed": value}, ""
    if cls is TrainConfig:
        return {"train": {name: value}}, "train."
    if cls is SplitPlan:
        split = {k: v for k, v in _valid(cls, name).items() if k != "seed"}
        return {"split": {**split, name: value}}, "split."
    spec = ModelSpec.reference(16).to_dict()
    spec["conv_layers" if cls is Conv1dSpec else "recurrent_layers"][0][name] = value
    return {"model": {"spec": spec}}, "model.spec is invalid: "


@pytest.mark.parametrize("cls, name, value", _cases())
def test_python_callers_and_config_files_meet_one_rule_with_one_message(
    tmp_path, cls, name, value
):
    overrides, prefix = _config_fault(cls, name, value)
    doc = {"seed": 3, "source": {"kind": "synthetic", "n_per_class": 4,
                                 "length_range": [30, 45], "class_separation": 1.0},
           "features": {"groups": ["kinematic"]}, **overrides}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        load_config(path, env={})
    with pytest.raises(ValueError) as python_exc:
        cls(**{**_valid(cls, name), name: value})
    assert str(exc.value) == prefix + str(python_exc.value)


def test_config_rows_are_the_declared_rows_and_prep_config_checks_them(tmp_path):
    rows = {f.path: f for f in CONFIG_FIELDS}
    for cls, prefix in ((TrainConfig, "train."), (SplitPlan, "split."), (PrepConfig, "")):
        for f in declared(cls, prefix):
            if f.path.endswith(".seed"):  # the top-level seed seeds every block
                assert f.path not in rows
            else:
                assert rows[f.path] == f
    for name, value in (("normalize", "no"), ("clip_pcts", (5.0,)),
                        ("clip_pcts", (90.0, 5.0)), ("cutoff_scope", "test")):
        doc = {"seed": 3, "source": {"kind": "synthetic", "n_per_class": 4,
                                     "length_range": [30, 45], "class_separation": 1.0},
               name: value}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc:
            load_config(path, env={})
        with pytest.raises(ValueError) as python_exc:
            PrepConfig(**{name: value})
        assert str(exc.value) == str(python_exc.value)
        assert str(exc.value).startswith(f"{name} must be ")


def test_an_in_range_numpy_float_passes_and_is_kept():
    rate = np.float64(0.25)
    assert RecurrentSpec("gru", 3, dropout_rate=rate).dropout_rate is rate


def _integer_dropout_spec() -> dict:
    """The reference spec as JSON, its first recurrent layer's rates the
    integer 0, as a hand-written config or an old checkpoint may hold them."""
    d = ModelSpec.reference(16).to_dict()
    d["recurrent_layers"][0].update(dropout_rate=0, recurrent_dropout_rate=0)
    return d


def test_a_spec_with_integer_rates_round_trips_and_keeps_its_hash(tmp_path):
    d = _integer_dropout_spec()
    spec = ModelSpec.from_dict(d)
    assert json.dumps(spec.to_dict()) == json.dumps(d)
    canonical = json.dumps({"input_size": 16, "spec": d}, sort_keys=True, separators=(",", ":"))
    assert spec_hash(spec, 16) == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path = tmp_path / "m.ckpt"
    SequenceClassifier(spec, 16, np.random.default_rng(0)).save_checkpoint(path)
    assert json.loads(path.read_text())["spec"] == d
    model, _ = load_checkpoint(path)
    assert json.dumps(model.spec.to_dict()) == json.dumps(d)
    assert spec_hash(model.spec, 16) == spec_hash(spec, 16)


def test_train_with_integer_rates_in_the_config_spec_writes_the_same_checkpoint(tmp_path):
    doc = {"seed": 5,
           "source": {"kind": "synthetic", "n_per_class": 3, "length_range": [30, 45],
                      "class_separation": 1.0},
           "features": {"groups": ["kinematic"]},
           "model": {"spec": _integer_dropout_spec()},
           "train": {"epochs": 2, "early_stop_patience": None},
           "split": {"kind": "kfold", "k": 2}}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["train", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
    # the sha256 that the code before the field declarations wrote for this config
    digest = hashlib.sha256((out / "model.ckpt").read_bytes()).hexdigest()
    assert digest == "2ac6f2c833b8b9d1a1a015b426c64748f17e46765e05b5cb3fd8f92512b77937"


def test_readme_rows_of_the_spec_layer_fields_state_their_declarations():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {line.split("|")[1].strip(): [c.strip() for c in line.split("|")[2:5]]
            for line in readme.splitlines() if line.startswith("| `model.spec.")}
    types = {int: "integer", float: "number", bool: "true or false", str: "string"}
    for layers, cls in (("conv_layers", Conv1dSpec), ("recurrent_layers", RecurrentSpec)):
        for f in declared(cls):
            type_, default, allowed = rows[f"`model.spec.{layers}[].{f.path}`"]
            assert type_ == types[f.type]
            if f.default is REQUIRED:
                assert default == "required"
            else:
                assert default == (f"`{f.default}`" if type(f.default) is str
                                   else json.dumps(f.default))
            vocabulary = ", ".join(f"`{a}`" for a in f.allowed)
            assert allowed.startswith(f.allowed if isinstance(f.allowed, str) else vocabulary)
