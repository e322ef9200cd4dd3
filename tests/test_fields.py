"""The declared settings: one rule and one message per field, whether the
value comes from a Python caller, a config file or a checkpoint."""

import ast
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pendetect import cli
from pendetect.cli import CONFIG_FIELDS, PREPROCESSING_FIELDS, load_config, main
from pendetect.errors import ConfigError, InvalidRange
from pendetect.features import FeatureGroupSelection
from pendetect.nn import (
    Conv1dSpec,
    ModelSpec,
    RecurrentSpec,
    SequenceClassifier,
    TrainConfig,
    load_checkpoint,
    spec_hash,
)
from pendetect.nn.fields import REQUIRED, check_value, declared
from pendetect.nn.model import SplitPlan
from pendetect.preprocess import LengthPolicy, PrepConfig
from pendetect.signal_io import SYNTHETIC_FIELDS, DatasetManifest, SignalSequence, generate_synthetic

# a valid instance of each kind, as keyword arguments
_KFOLD = {"kind": "kfold", "seed": 0, "k": 2}
_HOLDOUT = {"kind": "holdout", "seed": 0, "train_frac": 0.5, "val_frac": 0.25,
            "test_frac": 0.25, "n_runs": 1}
_CONV = ModelSpec.reference(16).to_dict()["conv_layers"][0]
_REC = ModelSpec.reference(16).to_dict()["recurrent_layers"][0]
_SYNTHETIC = {"kind": "synthetic", "n_per_class": 4, "length_range": [30, 45],
              "class_separation": 1.0}
_MANIFEST = {"kind": "manifest", "path": "m.csv", "format": "tablet_svc"}


def _refused(f) -> list:
    """Values that row `f`'s own interval or vocabulary refuses: each
    finite end the interval leaves out, else the whole number past it; an
    unknown word where there is no interval. A list row's are lists of
    such items, of two where the row is a pair, plus a pair out of order
    and the empty list."""
    if not isinstance(f.allowed, str) or not f.allowed:
        out = ["bogus"]
    else:
        lo, hi = map(float, f.allowed[1:-1].split(","))
        out = []
        if lo > -np.inf:
            out.append(lo - 1 if f.allowed[0] == "[" else lo)
        if hi < np.inf:
            out.append(hi + 1 if f.allowed[-1] == "]" else hi)
        out = [(f.item or f.type)(v) for v in out]
    if f.type is not list:
        return out
    swapped = [[f.item(hi), f.item(lo)]] if f.pair else []
    return [[v] * (2 if f.pair else 1) for v in out] + swapped + [[]]


def _rows(owner) -> tuple:
    return SYNTHETIC_FIELDS if owner is generate_synthetic else declared(owner)


def _cases():
    for owner in (Conv1dSpec, RecurrentSpec, TrainConfig, SplitPlan, PrepConfig,
                  FeatureGroupSelection, LengthPolicy, SignalSequence, DatasetManifest,
                  generate_synthetic):
        for f in _rows(owner):
            for value in _refused(f):
                yield pytest.param(owner, f.path, value, id=f"{owner.__name__}-{f.path}-{value}")


def _valid(cls, name: str) -> dict:
    """Keyword arguments of a valid `cls` whose field `name` is checked."""
    if cls is SplitPlan:
        return _HOLDOUT if name in _HOLDOUT and name != "kind" else _KFOLD
    return {Conv1dSpec: _CONV, RecurrentSpec: _REC, TrainConfig: {}, PrepConfig: {},
            FeatureGroupSelection: {"groups": ("kinematic",)}, LengthPolicy: {},
            SignalSequence: {"subject_id": "s", "task_id": "t", "label": None,
                             "channels": {"x": [0.0]}},
            DatasetManifest: {"entries": []}}[cls]


def _python_call(owner, name: str, value):
    """Call `owner` with its argument `name` set to `value`, the others valid."""
    if owner is not generate_synthetic:
        return owner(**{**_valid(owner, name), name: value})
    args = [2, (20, 40), 0.5, 0]
    args[[f.path for f in SYNTHETIC_FIELDS].index(name)] = value
    return generate_synthetic(*args)


def _config_fault(owner, name: str, value) -> tuple[dict, str] | None:
    """Config overrides that set field `name` of `owner` to `value`, and the
    prefix the config error puts before the field's own message; None
    where no config key reaches the field."""
    if owner in (LengthPolicy, SignalSequence, DatasetManifest, generate_synthetic):
        if name in ("cutoff", "label"):  # a checkpoint's cutoff; a manifest row's label
            return None
        source = _SYNTHETIC if owner is generate_synthetic else _MANIFEST
        return {"source": {**source, name: value}}, "source."
    if name == "seed":
        return {"seed": value}, ""
    if owner is PrepConfig:
        return {name: value}, ""
    if owner in (TrainConfig, FeatureGroupSelection):
        block = "train" if owner is TrainConfig else "features"
        return {block: {name: value}}, f"{block}."
    if owner is SplitPlan:
        split = {k: v for k, v in _valid(owner, name).items() if k != "seed"}
        return {"split": {**split, name: value}}, "split."
    spec = ModelSpec.reference(16).to_dict()
    spec["conv_layers" if owner is Conv1dSpec else "recurrent_layers"][0][name] = value
    return {"model": {"spec": spec}}, "model.spec is invalid: "


@pytest.mark.parametrize("owner, name, value", _cases())
def test_python_callers_and_config_files_meet_one_rule_with_one_message(
    tmp_path, owner, name, value
):
    """A refused value raises the message of the field's row; a config file
    gets the same message after its key path (and "or null" where its row
    also takes null)."""
    (row,) = (f for f in _rows(owner) if f.path == name)
    with pytest.raises(ValueError) as row_exc:
        check_value(row, value, ValueError)
    fault = InvalidRange if owner is generate_synthetic else ValueError
    with pytest.raises(fault) as python_exc:
        _python_call(owner, name, value)
    assert str(python_exc.value) == str(row_exc.value)
    config = _config_fault(owner, name, value)
    if config is None:
        return
    overrides, prefix = config
    doc = {"seed": 3, "source": _SYNTHETIC, "features": {"groups": ["kinematic"]}, **overrides}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        load_config(path, env={})
    expected = prefix + str(python_exc.value)
    config_row = {f.path: f for f in CONFIG_FIELDS}.get(prefix + name)
    if config_row is not None and config_row.null and not row.null:
        expected = expected.replace(", got ", " or null, got ", 1)
    assert str(exc.value) == expected


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


def _row(rows, name: str, path: str, **changes):
    """Row `name` of `rows` moved to key path `path`, with `changes`."""
    (row,) = (f for f in rows if f.path == name)
    return replace(row, path=path, **changes)


def test_every_config_and_checkpoint_row_but_five_is_a_declared_row_moved():
    null = {"default": None, "null": True}
    features = declared(FeatureGroupSelection)
    expected = [
        _row(declared(TrainConfig), "seed", "seed", default=REQUIRED),
        _row(declared(DatasetManifest), "format", "source.format", kind="manifest"),
        _row(declared(SignalSequence), "sample_rate_hz", "source.sample_rate_hz",
             kind="manifest", **null),
        *(_row(SYNTHETIC_FIELDS, f.path, f"source.{f.path}", kind="synthetic",
               **(null if f.path == "seed" else {})) for f in SYNTHETIC_FIELDS),
        *declared(FeatureGroupSelection, "features."),
        _row(declared(RecurrentSpec), "cell", "model.cell", default="gru"),
        *(f for f in declared(TrainConfig, "train.") + declared(SplitPlan, "split.")
          if f.path not in ("train.seed", "split.seed")),
        *declared(PrepConfig),
        _row(declared(LengthPolicy), "cutoff", "preprocessing.cutoff", **null),
        _row(features, "groups", "preprocessing.feature_groups"),
        _row(features, "include_raw_pressure_in_derived",
             "preprocessing.include_raw_pressure_in_derived"),
        _row(declared(DatasetManifest), "format", "preprocessing.format", default="tablet_svc"),
        _row(declared(SignalSequence), "sample_rate_hz", "preprocessing.sample_rate_hz", **null),
    ]
    literal = ["model.spec", "model.with_conv", "out_dir", "source.kind", "source.path"]
    rows = {f.path: f for f in CONFIG_FIELDS + PREPROCESSING_FIELDS}
    assert len(rows) == len(CONFIG_FIELDS + PREPROCESSING_FIELDS)
    assert sorted(rows) == sorted([f.path for f in expected] + literal)
    for f in expected:
        assert rows[f.path] == f, f.path
    # and cli.py writes no other row as a Field(...) literal
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    written = [call.args[0].value for node in tree.body if isinstance(node, ast.Assign)
               and getattr(node.targets[0], "id", "") in ("CONFIG_FIELDS", "PREPROCESSING_FIELDS")
               for call in ast.walk(node.value)
               if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "Field"]
    assert sorted(written) == literal


@pytest.mark.parametrize("flags, name, value", [
    (["--n-per-class", "0"], "n_per_class", 0),
    (["--min-length", "5"], "length_range", [5, 200]),
    (["--min-length", "50", "--max-length", "40"], "length_range", [50, 40]),
    (["--separation", "1.5"], "class_separation", 1.5),
    (["--seed", "-1"], "seed", -1),
])
def test_a_refused_synth_flag_exits_2_with_its_rows_message_and_makes_no_directory(
    tmp_path, capsys, flags, name, value
):
    (row,) = (f for f in SYNTHETIC_FIELDS if f.path == name)
    with pytest.raises(ValueError) as row_exc:
        check_value(row, value, ValueError)
    assert main(["synth", "--out", str(tmp_path / "x" / "deep"), *flags]) == 2
    assert capsys.readouterr().err == f"data error: {row_exc.value}\n"
    assert not (tmp_path / "x").exists()


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
