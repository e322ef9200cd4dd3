"""Command-line entry point for reproducible experiments.

Subcommands: ``synth`` writes a synthetic dataset to disk, ``features``
dumps feature matrices as CSV, ``train`` runs one evaluation protocol
end to end, ``ablate`` runs the cell-by-convolution grid, and ``score``
applies a saved checkpoint to a single recording.

Experiments are driven by a JSON config file (see CONFIG_FIELDS). Each
row there and in PREPROCESSING_FIELDS is the row declared by the code
that uses its value, moved to its key path, except the literal rows
source.kind, source.path, model.spec, model.with_conv and out_dir.
A handful of settings can be overridden without editing the file, with
flag beating environment variable beating file: ``--seed`` /
PENDETECT_SEED, ``--out`` / PENDETECT_OUT, and PENDETECT_EPOCHS.

Exit codes: 0 success, 1 config error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DataError,
    DuplicateEntry,
    EmptyDataset,
    InputTooShort,
    IoError,
    ParseError,
    PenDetectError,
    ShapeError,
    SpecMismatch,
    TrainingError,
    write_text,
)
from .features import (
    GROUPS,
    MIN_LENGTH,
    FeatureGroupSelection,
    assemble_features,
    dump_csv,
)
from .nn import DECISION_THRESHOLD, ModelSpec, RecurrentSpec, TrainConfig, load_checkpoint, predict
from .nn.fields import REQUIRED, Field, checked, declared
from .nn.model import SplitPlan
from .preprocess import LengthPolicy, PrepConfig, load_stats, prepare, save_stats
from .signal_io import (
    SYNTHETIC_FIELDS,
    DatasetManifest,
    ManifestEntry,
    SignalSequence,
    generate_synthetic,
    load_dataset,
    load_manifest,
    parse_recording,
    write_manifest,
    write_tablet_file,
)

PRESETS = {"synthetic-quick": "synthetic_quick.json"}


def _moved(rows: tuple[Field, ...], name: str, path: str, **changes) -> Field:
    """Row `name` of `rows` at key path `path`, changed only in `changes`."""
    (row,) = (f for f in rows if f.path == name)
    return replace(row, path=path, **changes)


_NULL = {"default": None, "null": True}  # a row that a config may leave unset

CONFIG_FIELDS = (
    _moved(declared(TrainConfig), "seed", "seed", default=REQUIRED),
    Field("source.kind", str, allowed=("manifest", "synthetic")),
    Field("source.path", str, kind="manifest"),
    _moved(declared(DatasetManifest), "format", "source.format", kind="manifest"),
    _moved(declared(SignalSequence), "sample_rate_hz", "source.sample_rate_hz", kind="manifest",
           **_NULL),
    *(replace(f, path=f"source.{f.path}", kind="synthetic")  # all but the seed
      for f in SYNTHETIC_FIELDS[:3]),
    _moved(SYNTHETIC_FIELDS, "seed", "source.seed", kind="synthetic", **_NULL),
    *declared(FeatureGroupSelection, "features."),
    Field("model.spec", dict, None),
    _moved(declared(RecurrentSpec), "cell", "model.cell", default="gru"),
    Field("model.with_conv", bool, True),
    # the dataclasses' rows, less their "seed": the top-level one seeds both
    *(f for f in declared(TrainConfig, "train.") + declared(SplitPlan, "split.")
      if not f.path.endswith(".seed")),
    Field("out_dir", str, "pendetect-out"),
    *declared(PrepConfig),
)

#: what `train` records in model.ckpt and `score` replays; absent keys
#: (checkpoints written before a key existed) take these defaults
PREPROCESSING_FIELDS = (
    _moved(declared(LengthPolicy), "cutoff", "preprocessing.cutoff", **_NULL),
    _moved(declared(FeatureGroupSelection), "groups", "preprocessing.feature_groups"),
    _moved(declared(FeatureGroupSelection), "include_raw_pressure_in_derived",
           "preprocessing.include_raw_pressure_in_derived"),
    _moved(declared(DatasetManifest), "format", "preprocessing.format", default="tablet_svc"),
    _moved(declared(SignalSequence), "sample_rate_hz", "preprocessing.sample_rate_hz", **_NULL),
)


@dataclass
class ExperimentConfig:
    """Checked experiment settings; a manifest source's "path" is resolved."""

    seed: int
    source: dict
    features: FeatureGroupSelection
    model: dict  # only the model keys the file gives, "spec" as a ModelSpec
    train: TrainConfig
    plan: SplitPlan
    out_dir: Path
    prep: PrepConfig


def _env_int(env, name: str) -> int:
    try:
        return int(env[name])
    except ValueError as exc:
        raise ConfigError(f"{name} is not an integer: {env[name]!r}") from exc


def _built(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), for what CONFIG_FIELDS does not hold: a
    spec's layer fields, which its dataclasses check, and the cross-field
    rules (a spec's conv chain, holdout fractions summing to 1)."""
    try:
        return build(*args, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path} is invalid: {exc}") from exc


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | None = None,
    env: dict | None = None,
) -> ExperimentConfig:
    """Load an experiment config file and check it against CONFIG_FIELDS:
    any fault is a ConfigError naming the key path. A leading UTF-8 byte
    order mark is dropped.

    ``seed_override`` or PENDETECT_SEED replaces "seed", ``out_override``
    or PENDETECT_OUT "out_dir", and PENDETECT_EPOCHS "train.epochs"; an
    argument beats the environment, and a replacement is checked like the
    file's value.
    """
    env = dict(os.environ if env is None else env)
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    overrides = {key: _env_int(env, name) for key, name in
                 (("seed", "PENDETECT_SEED"), ("train.epochs", "PENDETECT_EPOCHS")) if name in env}
    for key, value in (("out_dir", env.get("PENDETECT_OUT")), ("seed", seed_override),
                       ("out_dir", out_override)):
        if value is not None:
            overrides[key] = value
    cfg = checked(raw, "", CONFIG_FIELDS, ConfigError, overrides)

    seed, source, model = cfg["seed"], cfg["source"], cfg["model"]
    if model["spec"] is not None:
        model["spec"] = _built("model.spec", ModelSpec.from_dict, model["spec"])
    if source["kind"] == "manifest":
        manifest = path.parent / source["path"]
        if not manifest.exists():
            raise ConfigError(f"source.path: manifest {manifest} does not exist")
        source["path"] = manifest.resolve()
    return ExperimentConfig(
        seed=seed,
        source=source,
        features=FeatureGroupSelection(**cfg["features"]),
        model={key: value for key, value in model.items() if key in raw.get("model", {})},
        train=TrainConfig(seed=seed, **cfg["train"]),
        plan=_built("split", SplitPlan, seed=seed, **cfg["split"]),
        out_dir=Path(cfg["out_dir"]),
        prep=PrepConfig(**{f.path: cfg[f.path] for f in declared(PrepConfig)}),
    )


def resolve_config_path(args) -> Path:
    """The config file that --config or --preset names; giving both is a
    ConfigError, raised before anything is read."""
    name = getattr(args, "preset", None)
    if name is not None and args.config is not None:
        raise ConfigError("--config and --preset exclude each other; give one of them")
    if name is not None:
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
        from importlib import resources

        return Path(str(resources.files("pendetect") / "presets" / PRESETS[name]))
    if args.config is None:
        raise ConfigError("either --config or --preset is required")
    return Path(args.config)


def load_sequences(config: ExperimentConfig) -> list:
    src = config.source
    if src["kind"] == "synthetic":
        seed = config.seed if src["seed"] is None else src["seed"]
        return generate_synthetic(
            src["n_per_class"], src["length_range"], src["class_separation"], seed=seed
        )
    manifest = load_manifest(src["path"], format=src["format"])
    base = src["path"].parent
    for e in manifest.entries:
        if not (base / e.path).is_file():
            raise DataError(f"lists {e.path}, but {base / e.path} is not a file",
                            path=str(src["path"]))
    return load_dataset(manifest, base_dir=base, sample_rate_hz=src["sample_rate_hz"])


def _make_out_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        raise IoError(str(exc), path=str(path)) from exc
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    sequences = generate_synthetic(  # checks the flags before --out is made
        args.n_per_class,
        (args.min_length, args.max_length),
        args.separation,
        seed=args.seed,
    )
    out = _make_out_dir(Path(args.out))
    entries = [ManifestEntry(f"{s.subject_id}.svc", s.subject_id, s.task_id, s.label)
               for s in sequences]
    for seq, entry in zip(sequences, entries):
        write_tablet_file(seq, out / entry.path)
    write_manifest(DatasetManifest(entries=entries, format="synthetic"), out / "manifest.csv")
    print(f"wrote {len(sequences)} sequences and manifest.csv to {out}")
    return 0


def cmd_features(args) -> int:
    config = load_config(resolve_config_path(args), args.seed, args.out)
    sequences = load_sequences(config)
    feat_dir = config.out_dir / "features"
    if not sequences:
        print("warning: dataset is empty, nothing to do", file=sys.stderr)
        return 0
    # one plain file name per recording, checked before anything is written
    names = [f"{seq.subject_id}_{seq.task_id}.csv" for seq in sequences]
    owners: dict[str, tuple[str, str]] = {}
    for seq, name in zip(sequences, names):
        key = (seq.subject_id, seq.task_id)
        if Path(name).name != name or "\0" in name:
            raise DataError(f"recording {key} gives {name!r}, which is not a plain file name")
        if name in owners:
            raise DuplicateEntry(f"recordings {owners[name]} and {key} both give {name}")
        owners[name] = key
    _make_out_dir(feat_dir)
    counts: Counter = Counter()
    for seq, name in zip(sequences, names):
        fm = assemble_features(seq, config.features)
        counts = Counter(fm.column_groups)
        dump_csv(fm, feat_dir / name)
    per_group = ", ".join(f"{g}={counts[g]}" for g in GROUPS if counts[g])
    print(
        f"wrote {len(sequences)} feature files to {feat_dir} "
        f"({sum(counts.values())} columns: {per_group})"
    )
    return 0


def _setup(args) -> tuple[ExperimentConfig, list, ModelSpec | None, Path]:
    """The config, recordings (at least one), model and output directory of
    `train` or `ablate`; the directory is made last, after every refusal."""
    config = load_config(resolve_config_path(args), args.seed, args.out)
    sequences = load_sequences(config)
    if not sequences:
        # only a manifest can be empty: synthetic sources need n_per_class >= 1
        raise EmptyDataset(f"manifest {config.source['path']} lists no recordings")
    if args.command == "ablate":
        if config.model:
            raise ConfigError(f"model.{next(iter(config.model))}: ablate reads no model key; "
                              "its grid sets the cell and the conv stack of every model it trains")
        return config, sequences, None, _make_out_dir(config.out_dir)
    width = assemble_features(sequences[0], config.features).m
    model = dict(config.model)
    spec = model.pop("spec", None) or ModelSpec.reference(width, **model)
    if spec.conv_layers and spec.conv_layers[0].in_channels != width:
        raise ConfigError(f"model.spec: first conv expects {spec.conv_layers[0].in_channels} "
                          f"channels, but features {list(config.features.groups)} give {width}")
    if "spec" in config.model and model:
        raise ConfigError(f"model.{next(iter(model))}: model.spec gives the whole model, so it "
                          "excludes model.cell and model.with_conv")
    return config, sequences, spec, _make_out_dir(config.out_dir)


def cmd_train(args) -> int:
    from .evaluation import emit_roc, run_experiment

    config, sequences, spec, out = _setup(args)
    artifacts: dict = {}
    report = run_experiment(
        sequences, config.features, spec, config.train, config.plan,
        prep=config.prep, out_artifacts=artifacts,
    )

    write_text(out / "report.json", report.to_json() + "\n")
    write_text(out / "report.txt", report.to_table())
    emit_roc(report, out / "roc.csv")

    norm_ref = None
    if artifacts.get("stats") is not None:
        norm_ref = "normalization.tsv"
        save_stats(artifacts["stats"], out / norm_ref)
    preprocessing = {  # each value from a checked object or config row
        "cutoff": artifacts["policy"].cutoff,
        "feature_groups": list(config.features.groups),
        "include_raw_pressure_in_derived": config.features.include_raw_pressure_in_derived,
        "format": config.source.get("format", "synthetic"),
        "sample_rate_hz": config.source.get("sample_rate_hz"),
    }
    artifacts["model"].save_checkpoint(
        out / "model.ckpt", normalization_ref=norm_ref, preprocessing=preprocessing
    )

    a = report.aggregate
    print(
        f"{config.plan.kind}: mean accuracy {a['accuracy']:.4f}, mean auc {a['auc']:.4f}, "
        f"sensitivity {a['sensitivity']:.4f}, specificity {a['specificity']:.4f}"
    )
    print(f"report, roc, and checkpoint written to {out}")
    return 0


def cmd_ablate(args) -> int:
    from .evaluation import run_ablation_grid

    config, sequences, _, out = _setup(args)
    report = run_ablation_grid(
        sequences, config.features, config.train, config.plan, prep=config.prep
    )
    write_text(out / "ablation.json", report.to_json() + "\n")
    write_text(out / "ablation.txt", report.to_table())
    print(report.to_table(), end="")
    print(f"ablation grid written to {out}")
    return 0


def _replayed_preprocessing(meta: dict, checkpoint: str | Path) -> dict:
    """The checkpoint's preprocessing block checked against
    PREPROCESSING_FIELDS, absent keys at their defaults; a fault is a
    ParseError naming the checkpoint."""

    def fault(message: str) -> ParseError:
        return ParseError(f"malformed checkpoint: {message}", path=str(checkpoint))

    return checked(meta["preprocessing"] or {}, "preprocessing", PREPROCESSING_FIELDS, fault)


def score_file(checkpoint: str | Path, input_path: str | Path) -> float:
    """Score one recording, replaying the checkpoint's training-time
    preprocessing (feature groups, normalization statistics, cutoff). It is
    prepared and scored as a fold's row is (`preprocess.prepare`, then
    `nn.predict`), so p is the report's p for it, bit for bit.

    The whole recording is parsed and validated, but features are derived
    only for its first ``cutoff`` rows (at least MIN_LENGTH), the rows the
    model reads. Every derived column at row t depends on rows up to t
    alone and normalization works row by row, so p is the same as from
    features of the whole recording. One consequence: a derived value past
    the cutoff that is not finite, such as an overflow of finite inputs
    near 1e308, no longer fails the call.

    Features the recording cannot give (too few rows, a missing channel,
    a non-finite value), and a recording the model refuses as too short,
    are data errors naming `input_path`. A cutoff below the conv stack's
    minimum, features whose width is not the model's input_size, a
    normalization sidecar that cannot be read or parsed, and a p that is
    not finite (the forward overflowed), are data errors naming the
    checkpoint; stats that do not fit the features, or z-score them to a
    non-finite value, name the checkpoint and `input_path`.
    """
    model, meta = load_checkpoint(checkpoint)
    pre = _replayed_preprocessing(meta, checkpoint)
    cutoff = pre["cutoff"]
    if cutoff is not None and cutoff < model.min_input_length():  # `train` never writes one
        raise ParseError(f"malformed checkpoint: preprocessing.cutoff {cutoff} is below the "
                         f"minimum {model.min_input_length()} for the conv stack",
                         path=str(checkpoint))
    seq = parse_recording(input_path, pre["format"], pre["sample_rate_hz"])
    # at least MIN_LENGTH rows, so that a recording fit for features stays fit
    rows = None if cutoff is None else max(cutoff, MIN_LENGTH)
    if rows is not None and seq.length > rows:
        seq = replace(seq, channels={name: c[:rows] for name, c in seq.channels.items()})
    selection = FeatureGroupSelection(pre["feature_groups"], pre["include_raw_pressure_in_derived"])
    try:
        fm = assemble_features(seq, selection)
    except (ShapeError, DataError) as exc:
        raise DataError(str(exc), path=str(input_path)) from exc
    if fm.m != model.input_size:  # `train` never writes one
        raise DataError(f"the model reads {model.input_size} feature columns, but "
                        f"preprocessing.feature_groups {list(selection.groups)} give {fm.m}",
                        path=str(checkpoint))
    ref, stats = meta["normalization_ref"], None
    if ref is not None:
        try:
            stats = load_stats(Path(checkpoint).parent / ref)
        except (IoError, ParseError) as exc:
            raise ParseError(f"normalization_ref {ref!r}: {exc}", path=str(checkpoint)) from exc
    try:  # the preparation of a training fold, at the recording's own length without a cutoff
        x = prepare([fm], LengthPolicy(cutoff=fm.length if cutoff is None else cutoff), stats)
    except (ShapeError, DataError) as exc:  # other columns, or an overflow
        raise DataError(f"normalization_ref {ref!r} on {input_path}: {exc}",
                        path=str(checkpoint)) from exc
    try:
        p = float(predict(model, x)[0][0])
    except InputTooShort as exc:  # shorter than the conv stack, and no cutoff pads it
        raise DataError(str(exc), path=str(input_path)) from exc
    if not np.isfinite(p):
        raise DataError(f"{checkpoint}: p for {input_path} is {p}, not a probability")
    return p


def cmd_score(args) -> int:
    p = score_file(args.checkpoint, args.input)
    print(f"{p:.4f} {'PD' if p >= DECISION_THRESHOLD else 'HC'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pendetect",
        description="Parkinson's detection from pen signals with sequence models.",
    )
    parser.add_argument("--version", action="version", version=f"pendetect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-per-class", type=int, default=20)
    p.add_argument("--min-length", type=int, default=120)
    p.add_argument("--max-length", type=int, default=200)
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_synth)

    for name, handler, description in (
        ("features", cmd_features, "dump per-sample feature CSVs"),
        ("train", cmd_train, "run one evaluation protocol end to end"),
        ("ablate", cmd_ablate, "run the recurrent-cell x convolution grid"),
    ):
        p = sub.add_parser(name, help=description)
        p.add_argument("--config", help="path to an experiment config JSON file")
        p.add_argument("--preset", help=f"name of a bundled config: {', '.join(sorted(PRESETS))}")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config output directory")
        p.set_defaults(handler=handler)

    p = sub.add_parser("score", help="score one recording with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(handler=cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, DataError, ShapeError, SpecMismatch) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return 3
    except PenDetectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
