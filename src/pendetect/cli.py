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
import os
import sys
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import __version__
from .errors import (
    ConfigError,
    DataError,
    EmptyDataset,
    ParseError,
    PenDetectError,
    ShapeError,
    SpecMismatch,
    TrainingError,
)
from .evaluation import (
    SplitPlan,
    emit_roc,
    run_ablation_grid,
    run_experiment,
)
from .features import GROUPS, FeatureGroupSelection, assemble_features, dump_csv
from .nn import ModelSpec, TrainConfig, load_checkpoint
from .preprocess import LengthPolicy, apply_normalization, fit_length, load_stats, save_stats
from .signal_io import (
    DatasetManifest,
    ManifestEntry,
    generate_synthetic,
    load_dataset,
    load_manifest,
    parse_smartpen_file,
    parse_tablet_file,
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
    """Resolved experiment settings; see load_config for the file format."""

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
    config_dir: Path


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


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
        groups, bool(feat.get("include_raw_pressure_in_derived", False))
    )

    model = raw.get("model", {})
    model_spec = None
    if "spec" in model:
        try:
            model_spec = ModelSpec.from_dict(model["spec"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad model spec: {exc}") from exc
    cell = model.get("cell", "gru")
    with_conv = bool(model.get("with_conv", True))
    _require(cell in ("rnn", "lstm", "gru"), f"unknown cell {cell!r}")

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
        isinstance(clip, (list, tuple)) and len(clip) == 2,
        "clip_pcts must be a [low, high] pair",
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
        normalize=bool(raw.get("normalize", True)),
        clip_pcts=(float(clip[0]), float(clip[1])),
        config_dir=path.parent,
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
    manifest_path = (config.config_dir / src["path"]).resolve()
    manifest = load_manifest(manifest_path, format=src["format"])
    return load_dataset(
        manifest,
        base_dir=manifest_path.parent,
        sample_rate_hz=src.get("sample_rate_hz"),
    )


def load_training_sequences(config: ExperimentConfig) -> list:
    """load_sequences for `train` and `ablate`, which need at least one recording."""
    sequences = load_sequences(config)
    if not sequences:
        # only a manifest can be empty: synthetic sources need n_per_class >= 1
        manifest_path = (config.config_dir / config.source["path"]).resolve()
        raise EmptyDataset(f"manifest {manifest_path} lists no recordings")
    return sequences


def _model_spec(config: ExperimentConfig, input_size: int) -> ModelSpec:
    if config.model_spec is not None:
        return config.model_spec
    return ModelSpec.reference(
        input_size, cell=config.model_cell, with_conv=config.model_with_conv
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    feat_dir.mkdir(parents=True, exist_ok=True)
    counts: Counter = Counter()
    for seq in sequences:
        fm = assemble_features(seq, config.features)
        counts = Counter(fm.column_groups)
        dump_csv(fm, feat_dir / f"{seq.subject_id}_{seq.task_id}.csv")
    per_group = ", ".join(f"{g}={counts[g]}" for g in GROUPS if counts[g])
    print(
        f"wrote {len(sequences)} feature files to {feat_dir} "
        f"({sum(counts.values())} columns: {per_group})"
    )
    return 0


def cmd_train(args) -> int:
    config = load_config(resolve_config_path(args), args.seed, args.out)
    sequences = load_training_sequences(config)
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

    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    (out / "report.txt").write_text(report.to_table(), encoding="utf-8")
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
    report = run_ablation_grid(
        sequences,
        config.features,
        config.train,
        config.plan,
        cutoff_scope=config.cutoff_scope,
        normalize=config.normalize,
        clip_pcts=config.clip_pcts,
    )
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation.json").write_text(report.to_json() + "\n", encoding="utf-8")
    (out / "ablation.txt").write_text(report.to_table(), encoding="utf-8")
    print(report.to_table(), end="")
    print(f"ablation grid written to {out}")
    return 0


def score_file(checkpoint: str | Path, input_path: str | Path) -> float:
    """Score one recording, replaying the checkpoint's training-time
    preprocessing (feature groups, normalization statistics, cutoff)."""
    model, meta = load_checkpoint(checkpoint)
    pre = meta.get("preprocessing") or {}
    ckpt_dir = Path(checkpoint).parent

    fmt = pre.get("format", "tablet_svc")
    rate = pre.get("sample_rate_hz")
    if fmt in ("tablet_svc", "synthetic"):
        seq = parse_tablet_file(input_path, sample_rate_hz=rate or 200.0)
    else:
        seq = parse_smartpen_file(input_path, sample_rate_hz=rate or 100.0)

    selection = FeatureGroupSelection(
        tuple(pre.get("feature_groups", ["derived"])),
        pre.get("include_raw_pressure_in_derived", False),
    )
    fm = assemble_features(seq, selection)
    if meta.get("normalization_ref"):
        stats = load_stats(ckpt_dir / meta["normalization_ref"])
        fm = apply_normalization(fm, stats)
    if pre.get("cutoff"):
        fm = fit_length(fm, LengthPolicy(cutoff=int(pre["cutoff"])))
    return model.forward(fm.values)


def cmd_score(args) -> int:
    p = score_file(args.checkpoint, args.input)
    print(f"{p:.4f} {'PD' if p >= 0.5 else 'HC'}")
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
