"""Command-line entry point for reproducible experiments.

Subcommands: ``synth`` writes a synthetic dataset to disk, ``features``
dumps feature matrices as CSV, ``train`` runs one evaluation protocol
end to end, ``ablate`` runs the cell-by-convolution grid, and ``score``
applies a saved checkpoint to a single recording.

Experiments are driven by a JSON config file (see ExperimentConfig).
A handful of settings can be overridden without editing the file, with
flag beating environment variable beating file: ``--seed`` /
PENDETECT_SEED, ``--out`` / PENDETECT_OUT, and PENDETECT_EPOCHS.

Exit codes: 0 success, 1 config error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from . import __version__
from .errors import (
    ConfigError,
    DataError,
    DuplicateEntry,
    EmptyDataset,
    IoError,
    ParseError,
    PenDetectError,
    ShapeError,
    SpecMismatch,
    TrainingError,
)
from .evaluation import (
    DECISION_THRESHOLD,
    SplitPlan,
    emit_roc,
    run_ablation_grid,
    run_experiment,
)
from .features import (
    GROUPS,
    MIN_LENGTH,
    FeatureGroupSelection,
    assemble_features,
    dump_csv,
)
from .nn import CELLS, ModelSpec, TrainConfig, load_checkpoint
from .preprocess import LengthPolicy, apply_normalization, fit_length, load_stats, save_stats
from .signal_io import (
    MANIFEST_FORMATS,
    DatasetManifest,
    ManifestEntry,
    generate_synthetic,
    load_dataset,
    load_manifest,
    parse_recording,
    write_manifest,
    write_tablet_file,
)

PRESETS = {"synthetic-quick": "synthetic_quick.json"}

_TOP_KEYS = {
    "seed",
    "source",
    "features",
    "model",
    "train",
    "split",
    "out_dir",
    "cutoff_scope",
    "normalize",
    "clip_pcts",
}


@dataclass
class ExperimentConfig:
    """Resolved experiment settings; see load_config for the file format.

    A manifest source's "path" holds the resolved manifest path.
    """

    seed: int
    source: dict
    features: FeatureGroupSelection
    model_spec: ModelSpec | None  # explicit spec, else reference variant
    model_cell: str
    model_with_conv: bool
    train: TrainConfig
    plan: SplitPlan
    out_dir: Path
    cutoff_scope: str
    normalize: bool
    clip_pcts: tuple[float, float]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _flag(block: dict, key: str, default: bool, name: str) -> bool:
    """A JSON boolean from `block`; a string such as "false" is rejected,
    not read as true."""
    value = block.get(key, default)
    _require(isinstance(value, bool), f"{name} must be true or false, got {value!r}")
    return value


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | None = None,
    env: dict | None = None,
) -> ExperimentConfig:
    """Load and validate an experiment config file.

    The file is JSON with a mandatory top-level "seed" and a "source"
    block naming either a dataset manifest or synthetic-generation
    parameters. Optional blocks: "features" (groups), "model" (reference
    variant via "cell"/"with_conv", or a full "spec"), "train", "split",
    plus the flat preprocessing flags "cutoff_scope", "normalize",
    "clip_pcts", and "out_dir". Every omitted training field keeps its
    default (lr 0.001, batch 16, conv 8k5s5/16k3s3, BiGRU 32x2, dropout
    0.1 on the second recurrent layer).
    """
    env = dict(os.environ if env is None else env)
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), f"config {path} must be a JSON object")

    unknown = set(raw) - _TOP_KEYS
    _require(not unknown, f"unknown config keys {sorted(unknown)}")
    for key in ("features", "model", "train", "split"):
        block = raw.get(key, {})
        _require(isinstance(block, dict), f"{key} must be a JSON object, got {block!r}")

    seed = raw.get("seed")
    if "PENDETECT_SEED" in env:
        try:
            seed = int(env["PENDETECT_SEED"])
        except ValueError as exc:
            raise ConfigError(f"PENDETECT_SEED is not an integer: {env['PENDETECT_SEED']!r}") from exc
    if seed_override is not None:
        seed = seed_override
    _require(isinstance(seed, int) and not isinstance(seed, bool), "config needs an integer seed")

    source = raw.get("source")
    _require(isinstance(source, dict) and "kind" in source, "config needs a source block with a kind")
    if source["kind"] == "manifest":
        _require("path" in source and "format" in source, "manifest source needs path and format")
        manifest_path = (path.parent / source["path"]).resolve()
        _require(manifest_path.exists(), f"manifest {manifest_path} does not exist")
        source = {**source, "path": manifest_path}
    elif source["kind"] == "synthetic":
        for key in ("n_per_class", "length_range", "class_separation"):
            _require(key in source, f"synthetic source needs {key}")
    else:
        raise ConfigError(f"unknown source kind {source['kind']!r}")

    feat = raw.get("features", {})
    groups = tuple(feat.get("groups", ["derived"]))
    _require(
        all(g in GROUPS for g in groups) and len(groups) > 0,
        f"feature groups must be a non-empty subset of {GROUPS}",
    )
    selection = FeatureGroupSelection(
        groups,
        _flag(feat, "include_raw_pressure_in_derived", False,
              "features.include_raw_pressure_in_derived"),
    )

    model = raw.get("model", {})
    model_spec = None
    if "spec" in model:
        try:
            model_spec = ModelSpec.from_dict(model["spec"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad model spec: {exc}") from exc
    cell = model.get("cell", "gru")
    with_conv = _flag(model, "with_conv", True, "model.with_conv")
    _require(cell in CELLS, f"unknown cell {cell!r}")

    train_block = dict(raw.get("train", {}))
    if "PENDETECT_EPOCHS" in env:
        try:
            train_block["epochs"] = int(env["PENDETECT_EPOCHS"])
        except ValueError as exc:
            raise ConfigError(f"PENDETECT_EPOCHS is not an integer: {env['PENDETECT_EPOCHS']!r}") from exc
    _require("seed" not in train_block, "set the seed at the top level, not in train")
    try:
        train = TrainConfig(seed=seed, **train_block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train block: {exc}") from exc

    split = dict(raw.get("split", {"kind": "kfold", "k": 10}))
    _require("seed" not in split, "set the seed at the top level, not in split")
    try:
        plan = SplitPlan(seed=seed, **split)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad split block: {exc}") from exc

    out_dir = raw.get("out_dir", "pendetect-out")
    if "PENDETECT_OUT" in env:
        out_dir = env["PENDETECT_OUT"]
    if out_override is not None:
        out_dir = out_override

    cutoff_scope = raw.get("cutoff_scope", "train")
    _require(cutoff_scope in ("train", "all"), "cutoff_scope must be 'train' or 'all'")
    clip = raw.get("clip_pcts", [5.0, 90.0])
    _require(
        isinstance(clip, list)
        and len(clip) == 2
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in clip)
        and 0 <= clip[0] < clip[1] <= 100,
        f"clip_pcts must be a [low, high] pair of numbers with 0 <= low < high <= 100, "
        f"got {clip!r}",
    )

    return ExperimentConfig(
        seed=seed,
        source=source,
        features=selection,
        model_spec=model_spec,
        model_cell=cell,
        model_with_conv=with_conv,
        train=train,
        plan=plan,
        out_dir=Path(out_dir),
        cutoff_scope=cutoff_scope,
        normalize=_flag(raw, "normalize", True, "normalize"),
        clip_pcts=(float(clip[0]), float(clip[1])),
    )


def resolve_config_path(args) -> Path:
    if getattr(args, "preset", None):
        name = args.preset
        _require(name in PRESETS, f"unknown preset {name!r}; available: {sorted(PRESETS)}")
        return Path(str(resources.files("pendetect") / "presets" / PRESETS[name]))
    _require(args.config is not None, "either --config or --preset is required")
    return Path(args.config)


def load_sequences(config: ExperimentConfig) -> list:
    src = config.source
    if src["kind"] == "synthetic":
        lo, hi = src["length_range"]
        return generate_synthetic(
            int(src["n_per_class"]),
            (int(lo), int(hi)),
            float(src["class_separation"]),
            seed=int(src.get("seed", config.seed)),
        )
    manifest = load_manifest(src["path"], format=src["format"])
    return load_dataset(
        manifest,
        base_dir=src["path"].parent,
        sample_rate_hz=src.get("sample_rate_hz"),
    )


def load_training_sequences(config: ExperimentConfig) -> list:
    """load_sequences for `train` and `ablate`, which need at least one recording."""
    sequences = load_sequences(config)
    if not sequences:
        # only a manifest can be empty: synthetic sources need n_per_class >= 1
        raise EmptyDataset(f"manifest {config.source['path']} lists no recordings")
    return sequences


def _make_out_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(str(exc), path=str(path)) from exc
    return path


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc), path=str(path)) from exc


def _model_spec(config: ExperimentConfig, input_size: int) -> ModelSpec:
    if config.model_spec is not None:
        return config.model_spec
    return ModelSpec.reference(
        input_size, cell=config.model_cell, with_conv=config.model_with_conv
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    out = _make_out_dir(Path(args.out))
    sequences = generate_synthetic(
        args.n_per_class,
        (args.min_length, args.max_length),
        args.separation,
        seed=args.seed,
    )
    entries = []
    for seq in sequences:
        name = f"{seq.subject_id}.svc"
        write_tablet_file(seq, out / name)
        entries.append(
            ManifestEntry(
                path=name, subject_id=seq.subject_id, task_id=seq.task_id, label=seq.label
            )
        )
    manifest = DatasetManifest(entries=entries, format="synthetic")
    write_manifest(manifest, out / "manifest.csv")
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
        if Path(name).name != name:
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


def cmd_train(args) -> int:
    config = load_config(resolve_config_path(args), args.seed, args.out)
    sequences = load_training_sequences(config)
    out = _make_out_dir(config.out_dir)
    probe = assemble_features(sequences[0], config.features)
    artifacts: dict = {}
    report = run_experiment(
        sequences,
        config.features,
        _model_spec(config, probe.m),
        config.train,
        config.plan,
        cutoff_scope=config.cutoff_scope,
        normalize=config.normalize,
        clip_pcts=config.clip_pcts,
        out_artifacts=artifacts,
    )

    _write_text(out / "report.json", report.to_json() + "\n")
    _write_text(out / "report.txt", report.to_table())
    emit_roc(report, out / "roc.csv")

    norm_ref = None
    if artifacts.get("stats") is not None:
        norm_ref = "normalization.tsv"
        save_stats(artifacts["stats"], out / norm_ref)
    preprocessing = {
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
    config = load_config(resolve_config_path(args), args.seed, args.out)
    sequences = load_training_sequences(config)
    out = _make_out_dir(config.out_dir)
    report = run_ablation_grid(
        sequences,
        config.features,
        config.train,
        config.plan,
        cutoff_scope=config.cutoff_scope,
        normalize=config.normalize,
        clip_pcts=config.clip_pcts,
    )
    _write_text(out / "ablation.json", report.to_json() + "\n")
    _write_text(out / "ablation.txt", report.to_table())
    print(report.to_table(), end="")
    print(f"ablation grid written to {out}")
    return 0


def _replayed_preprocessing(meta: dict, checkpoint: str | Path) -> dict:
    """The checkpoint's preprocessing block, absent entries at their
    defaults; a wrongly typed or unknown value is a ParseError naming the
    checkpoint."""
    pre = {
        "cutoff": None,
        "feature_groups": ["derived"],
        "include_raw_pressure_in_derived": False,
        "format": "tablet_svc",
        "sample_rate_hz": None,
        **(meta.get("preprocessing") or {}),
    }

    def bad(message: str) -> ParseError:
        return ParseError(f"malformed checkpoint: preprocessing.{message}", path=str(checkpoint))

    cutoff, groups, rate = pre["cutoff"], pre["feature_groups"], pre["sample_rate_hz"]
    if not (
        cutoff is None or (isinstance(cutoff, int) and not isinstance(cutoff, bool) and cutoff >= 1)
    ):
        raise bad(f"cutoff must be null or an integer >= 1, got {cutoff!r}")
    if not (
        isinstance(groups, list) and groups and all(isinstance(g, str) and g in GROUPS for g in groups)
    ):
        raise bad(f"feature_groups must be a non-empty list of {GROUPS}, got {groups!r}")
    if not isinstance(pre["include_raw_pressure_in_derived"], bool):
        raise bad(
            "include_raw_pressure_in_derived must be true or false, "
            f"got {pre['include_raw_pressure_in_derived']!r}"
        )
    if not (isinstance(pre["format"], str) and pre["format"] in MANIFEST_FORMATS):
        raise bad(f"format must be one of {MANIFEST_FORMATS}, got {pre['format']!r}")
    if not (
        rate is None
        or (isinstance(rate, (int, float)) and not isinstance(rate, bool) and 0 < rate < math.inf)
    ):
        raise bad(f"sample_rate_hz must be null or a positive number, got {rate!r}")
    return pre


def score_file(checkpoint: str | Path, input_path: str | Path) -> float:
    """Score one recording, replaying the checkpoint's training-time
    preprocessing (feature groups, normalization statistics, cutoff).

    The whole recording is parsed and validated, but features are derived
    only for its first ``cutoff`` rows (at least MIN_LENGTH), the rows the
    model reads. Every derived column at row t depends on rows up to t
    alone and normalization works row by row, so p is the same as from
    features of the whole recording. One consequence: a derived value past
    the cutoff that is not finite, such as an overflow of finite inputs
    near 1e308, no longer fails the call.
    """
    model, meta = load_checkpoint(checkpoint)
    pre = _replayed_preprocessing(meta, checkpoint)
    seq = parse_recording(input_path, pre["format"], pre["sample_rate_hz"])
    cutoff = pre["cutoff"]
    # at least MIN_LENGTH rows, so that a recording fit for features stays fit
    rows = None if cutoff is None else max(cutoff, MIN_LENGTH)
    if rows is not None and seq.length > rows:
        seq = replace(seq, channels={name: c[:rows] for name, c in seq.channels.items()})
    selection = FeatureGroupSelection(
        tuple(pre["feature_groups"]), pre["include_raw_pressure_in_derived"]
    )
    fm = assemble_features(seq, selection)
    if meta.get("normalization_ref"):
        stats = load_stats(Path(checkpoint).parent / meta["normalization_ref"])
        fm = apply_normalization(fm, stats)
    if cutoff is not None:
        fm = fit_length(fm, LengthPolicy(cutoff=cutoff))
    return model.forward(fm.values)


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

    def config_flags(p):
        p.add_argument("--config", help="path to an experiment config JSON file")
        p.add_argument(
            "--preset",
            help=f"name of a bundled config: {', '.join(sorted(PRESETS))}",
        )
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config output directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-per-class", type=int, default=20)
    p.add_argument("--min-length", type=int, default=120)
    p.add_argument("--max-length", type=int, default=200)
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("features", help="dump per-sample feature CSVs")
    config_flags(p)
    p.set_defaults(handler=cmd_features)

    p = sub.add_parser("train", help="run one evaluation protocol end to end")
    config_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("ablate", help="run the recurrent-cell x convolution grid")
    config_flags(p)
    p.set_defaults(handler=cmd_ablate)

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
    except (ParseError, DataError, ShapeError, SpecMismatch, ValueError) as exc:
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
