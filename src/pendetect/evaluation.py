"""Evaluation protocols, metrics, and experiment reports.

Two protocols are supported: stratified k-fold cross-validation and a
repeated stratified train/val/test holdout. Both split subject-wise so
that all samples of one subject land on the same side of every split
boundary. An experiment run produces an :class:`ExperimentReport` that
embeds the resolved configuration, per-fold raw numbers, and aggregate
metrics; reports serialize to canonical JSON and a fixed-width table.

Each fold is prepared once, by one `preprocess.prepare` call over its
rows in train, val, test order, the call `score` makes for one
recording: cut and pad to the fold's cutoff, stack time-major, normalize,
zero the padding rows. Training, early stopping and scoring all read
that array. Rows past the cutoff are never normalized, so a value there
that would overflow once z-scored does not fail the fold. The ablation
grid prepares its folds once and shares them between its six cells.

Folds are independent of each other (any could run concurrently); they
are executed sequentially here so that a report is reproducible down to
the byte, with all timing recorded in ``wall_clock_*`` fields that are
excluded from determinism comparisons.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, asdict
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import SingleClass, TooSmall, TrainingError, write_text
from .features import FeatureGroupSelection, FeatureMatrix, assemble_features
from .preprocess import (
    CUTOFF_SCOPES,
    DEFAULT_CLIP_PCTS,
    DEFAULT_CUTOFF_SCOPE,
    DEFAULT_NORMALIZE,
    LengthPolicy,
    NormalizationStats,
    compute_cutoff,
    fit_normalization,
    prepare,
    round_half_up,
)
from .nn import (
    CELLS,
    DECISION_THRESHOLD,
    ModelSpec,
    SequenceClassifier,
    TrainConfig,
    predict,
    train_model,
)
from .nn.model import SplitPlan
from .signal_io import LABEL_TO_Y

HOLDOUT_ROUNDING = "per-class: round-half-up train, floor val, remainder test"
CARVEOUT_FRACTION = 0.10
ROC_FILE_VERSION = "pendetect-roc v1"


# ---------------------------------------------------------------------------
# splits


@dataclass(frozen=True)
class SplitIndices:
    """Index sets into the dataset list; val may be empty."""

    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]

    def rows(self) -> list[tuple[str, int]]:
        """(role, dataset index) of every sample, in train, val, test order."""
        return [(role, i) for role in ("train", "val", "test") for i in getattr(self, role)]


def _subjects_by_class(dataset) -> tuple[dict[str, list[int]], dict[str, list[str]]]:
    """Group sample indices by subject, then subjects by label.

    Insertion order is preserved in both maps so the only randomness in a
    split comes from the seeded permutation.
    """
    indices: dict[str, list[int]] = {}
    label_of: dict[str, str] = {}
    for i, item in enumerate(dataset):
        indices.setdefault(item.subject_id, []).append(i)
        label_of.setdefault(item.subject_id, item.label)
    by_class: dict[str, list[str]] = {}
    for subject, label in label_of.items():
        by_class.setdefault(label, []).append(subject)
    if len(by_class) < 2:
        raise SingleClass(f"need two classes, found {sorted(by_class)}")
    return indices, by_class


def _expand(subjects: list[str], indices: dict[str, list[int]]) -> tuple[int, ...]:
    out: list[int] = []
    for s in subjects:
        out.extend(indices[s])
    return tuple(sorted(out))


def make_splits(dataset, plan: SplitPlan) -> list[SplitIndices]:
    """Build stratified, subject-grouped splits of `dataset`.

    For k-fold, per-class remainders are assigned one at a time to the
    fold with the smallest running total (ties to the lowest index), so
    fold sizes never differ by more than one more than necessary. For
    holdout, each class contributes round-half-up(train_frac*n) subjects
    to train, floor(val_frac*n) to val, and the remainder to test; run r
    draws its permutation from seed [plan.seed, r].
    """
    indices, by_class = _subjects_by_class(dataset)
    labels = sorted(by_class)

    if plan.kind == "kfold":
        k = plan.k
        if len(dataset) < k:
            raise TooSmall(f"{len(dataset)} samples cannot fill {k} folds")
        totals = [0] * k
        class_sizes: dict[str, list[int]] = {}
        for label in labels:
            n_c = len(by_class[label])
            sizes = [n_c // k] * k
            for _ in range(n_c % k):
                j = min(range(k), key=lambda f: (totals[f] + sizes[f], f))
                sizes[j] += 1
            class_sizes[label] = sizes
            for f in range(k):
                totals[f] += sizes[f]

        rng = np.random.default_rng([plan.seed, 0])
        fold_subjects: list[list[str]] = [[] for _ in range(k)]
        for label in labels:
            pool = by_class[label]
            order = [pool[j] for j in rng.permutation(len(pool))]
            pos = 0
            for f in range(k):
                take = class_sizes[label][f]
                fold_subjects[f].extend(order[pos : pos + take])
                pos += take

        splits = []
        for f in range(k):
            test = set(fold_subjects[f])
            train = [s for fold in fold_subjects for s in fold if s not in test]
            splits.append(
                SplitIndices(
                    train=_expand(train, indices),
                    val=(),
                    test=_expand(fold_subjects[f], indices),
                )
            )
        return splits

    splits = []
    for run in range(plan.n_runs):
        rng = np.random.default_rng([plan.seed, run])
        train: list[str] = []
        val: list[str] = []
        test: list[str] = []
        for label in labels:
            pool = by_class[label]
            order = [pool[j] for j in rng.permutation(len(pool))]
            n_c = len(pool)
            n_train = round_half_up(plan.train_frac * n_c)
            n_val = int(math.floor(plan.val_frac * n_c))
            n_test = n_c - n_train - n_val
            if n_train < 1 or n_test < 1:
                raise TooSmall(
                    f"class {label}: {n_c} subjects leave train={n_train}, "
                    f"test={n_test}"
                )
            train.extend(order[:n_train])
            val.extend(order[n_train : n_train + n_val])
            test.extend(order[n_train + n_val :])
        splits.append(
            SplitIndices(
                train=_expand(train, indices),
                val=_expand(val, indices),
                test=_expand(test, indices),
            )
        )
    return splits


# ---------------------------------------------------------------------------
# metrics


def compute_roc(scores) -> list[tuple[float, float]]:
    """Threshold-swept ROC curve over (probability, 0/1 target) pairs.

    Thresholds sit at +inf and at every distinct score, predicting the
    positive class at score >= threshold; equal scores move as one step,
    so ties trace a single diagonal segment. Points run from (0,0) to
    (1,1) sorted by fpr.
    """
    pairs = [(float(p), int(y)) for p, y in scores]
    pos = sum(y for _, y in pairs)
    neg = len(pairs) - pos
    if pos == 0 or neg == 0:
        raise SingleClass("ROC needs at least one sample of each class")
    points = [(0.0, 0.0)]
    tp = fp = 0
    ordered = sorted(pairs, key=lambda it: -it[0])
    for _, group in groupby(ordered, key=lambda it: it[0]):
        for _, y in group:
            tp += y
            fp += 1 - y
        points.append((fp / neg, tp / pos))
    return points


def roc_auc_from_points(points) -> float:
    """Trapezoidal area under an fpr-sorted ROC polyline.

    Over compute_roc's tie-grouped polyline this equals the normalized
    Mann-Whitney statistic P(score_pos > score_neg) + 0.5 * P(tie).
    """
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def metrics_from_scores(scores) -> dict:
    """Confusion counts at DECISION_THRESHOLD plus ROC/AUC over
    (probability, 0/1 target) pairs, as a report's per-fold metrics."""
    pairs = [(float(p), int(y)) for p, y in scores]
    tp = sum(1 for p, y in pairs if p >= DECISION_THRESHOLD and y == 1)
    fp = sum(1 for p, y in pairs if p >= DECISION_THRESHOLD and y == 0)
    tn = sum(1 for p, y in pairs if p < DECISION_THRESHOLD and y == 0)
    fn = sum(1 for p, y in pairs if p < DECISION_THRESHOLD and y == 1)
    roc = compute_roc(pairs)
    return {
        "accuracy": (tp + tn) / (tp + fp + tn + fn),
        "auc": roc_auc_from_points(roc),
        "sensitivity": tp / (tp + fn) if tp + fn else 0.0,
        "specificity": tn / (tn + fp) if tn + fp else 0.0,
        "confusion": {"tp": tp, "fp": fp, "tn": tn, "fn": fn},
        "roc_points": [list(p) for p in roc],
    }


# ---------------------------------------------------------------------------
# reports


@dataclass
class ExperimentReport:
    kind: str
    seed: int
    config: dict
    per_fold: list = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    pooled: dict = field(default_factory=dict)
    cells: dict | None = None
    notes: list = field(default_factory=list)
    wall_clock_total_seconds: float = 0.0

    def to_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "seed": self.seed,
            "config": self.config,
            "per_fold": self.per_fold,
            "aggregate": self.aggregate,
            "pooled": self.pooled,
            "notes": self.notes,
            "wall_clock_total_seconds": self.wall_clock_total_seconds,
        }
        if self.cells is not None:
            doc["cells"] = self.cells
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        """Canonical JSON with every wall_clock field removed.

        Two runs of the same experiment with the same seed must produce
        identical fingerprints; only timing may differ.
        """
        return json.dumps(
            strip_wall_clock(self.to_dict()), sort_keys=True, separators=(",", ":")
        )

    def to_table(self) -> str:
        if self.kind == "ablation":
            return self._ablation_table()
        return self._experiment_table()

    def _experiment_table(self) -> str:
        header = (
            f"{'fold':>4}  {'n_train':>7}  {'n_val':>5}  {'n_test':>6}  "
            f"{'accuracy':>8}  {'auc':>6}  {'sensitivity':>11}  {'specificity':>11}"
        )
        lines = [header, "-" * len(header)]
        for entry in self.per_fold:
            m = entry["metrics"]
            sizes = entry["sizes"]
            lines.append(
                f"{entry['fold']:>4}  {sizes['train']:>7}  {sizes['val']:>5}  "
                f"{sizes['test']:>6}  {m['accuracy']:>8.4f}  {m['auc']:>6.4f}  "
                f"{m['sensitivity']:>11.4f}  {m['specificity']:>11.4f}"
            )
        a = self.aggregate
        lines.append("-" * len(header))
        lines.append(
            f"{'mean':>4}  {'':>7}  {'':>5}  {'':>6}  {a['accuracy']:>8.4f}  "
            f"{a['auc']:>6.4f}  {a['sensitivity']:>11.4f}  {a['specificity']:>11.4f}"
        )
        lines.append(f"pooled auc {self.pooled['auc']:.4f}")
        return "\n".join(lines) + "\n"

    def _ablation_table(self) -> str:
        header = (
            f"{'cell':<22}  {'accuracy':>8}  {'auc':>6}  {'sensitivity':>11}  "
            f"{'specificity':>11}  {'sec/epoch':>9}"
        )
        lines = [header, "-" * len(header)]
        for name in sorted(self.cells):
            cell = self.cells[name]
            a = cell["aggregate"]
            lines.append(
                f"{name:<22}  {a['accuracy']:>8.4f}  {a['auc']:>6.4f}  "
                f"{a['sensitivity']:>11.4f}  {a['specificity']:>11.4f}  "
                f"{cell['wall_clock_mean_epoch_seconds']:>9.4f}"
            )
        lines.extend(self.notes)
        for name in self.cells:
            if not name.endswith("/with_conv"):
                continue
            cell = name.removesuffix("/with_conv")
            with_s = self.cells[name]["wall_clock_mean_epoch_seconds"]
            without_s = self.cells[f"{cell}/without_conv"]["wall_clock_mean_epoch_seconds"]
            lines.append(
                f"wall clock {cell}: with_conv {with_s:.4f}s/epoch vs without_conv "
                f"{without_s:.4f}s/epoch ({'faster' if with_s < without_s else 'not faster'})"
            )
        return "\n".join(lines) + "\n"


def strip_wall_clock(obj):
    if isinstance(obj, dict):
        return {
            k: strip_wall_clock(v)
            for k, v in obj.items()
            if not k.startswith("wall_clock")
        }
    if isinstance(obj, list):
        return [strip_wall_clock(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# experiment driver


def _carve_validation(
    train_idx: tuple[int, ...], matrices, seed_words
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Move ~10% of the training subjects, stratified, into a val set.

    Each class gives up at least one subject whenever it can spare one,
    so that requesting early stopping always yields a validation signal
    even on small cohorts.
    """
    labels: dict[str, list[str]] = {}
    for i in train_idx:
        fm = matrices[i]
        if fm.subject_id not in labels.setdefault(fm.label, []):
            labels[fm.label].append(fm.subject_id)
    rng = np.random.default_rng(seed_words)
    val_subjects: set[str] = set()
    for label in sorted(labels):
        pool = labels[label]
        n_val = int(math.floor(CARVEOUT_FRACTION * len(pool)))
        if n_val == 0 and len(pool) >= 2:
            n_val = 1
        order = rng.permutation(len(pool))
        val_subjects.update(pool[j] for j in order[:n_val])
    val = tuple(sorted(i for i in train_idx if matrices[i].subject_id in val_subjects))
    train = tuple(i for i in train_idx if matrices[i].subject_id not in val_subjects)
    return train, val


@dataclass(frozen=True)
class _Fold:
    """One split after any carve-out, its rows stacked time-major into `x`
    (T, N, m) in ``split.rows()`` order; `y` holds the 0/1 targets as
    trained (under shuffle_labels, train rows permuted)."""

    index: int
    split: SplitIndices
    carved: bool
    policy: LengthPolicy
    stats: NormalizationStats | None
    x: np.ndarray
    y: np.ndarray


def _prepare_folds(
    matrices: list[FeatureMatrix],
    plan: SplitPlan,
    train_config: TrainConfig,
    cutoff_scope: str = DEFAULT_CUTOFF_SCOPE,
    normalize: bool = DEFAULT_NORMALIZE,
    clip_pcts: tuple[float, float] = DEFAULT_CLIP_PCTS,
    shuffle_labels: bool = False,
) -> Iterator[_Fold]:
    """Each split of `plan` as a `_Fold`, prepared when it is reached; the
    flags are run_experiment's."""
    if cutoff_scope not in CUTOFF_SCOPES:
        raise ValueError(f"cutoff_scope must be one of {CUTOFF_SCOPES}, got {cutoff_scope!r}")
    splits = make_splits(matrices, plan)
    # refused before any fold trains: a test part of one class has no ROC
    labels = {fm.label for fm in matrices}
    for fold_i, split in enumerate(splits):
        missing = sorted(labels - {matrices[i].label for i in split.test})
        if missing:
            raise TooSmall(f"fold {fold_i} tests no {missing[0]} subject: with k = {plan.k}, "
                           f"each class needs at least {plan.k} subjects")
    for fold_i, split in enumerate(splits):
        carved = False
        if train_config.early_stop_patience is not None and not split.val:
            train, val = _carve_validation(split.train, matrices, [plan.seed, 31, fold_i])
            if val:
                split, carved = SplitIndices(train=train, val=val, test=split.test), True
        train_ms = [matrices[i] for i in split.train]
        policy = compute_cutoff(train_ms if cutoff_scope == "train" else matrices)
        stats = fit_normalization(train_ms, clip_pcts[0], clip_pcts[1]) if normalize else None
        fold_ms = [matrices[i] for _, i in split.rows()]
        x = prepare(fold_ms, policy, stats)
        y = np.array([LABEL_TO_Y[fm.label] for fm in fold_ms], dtype=np.float64)
        if shuffle_labels:
            n = len(split.train)
            y[:n] = y[:n][np.random.default_rng([plan.seed, 7, fold_i]).permutation(n)]
        yield _Fold(fold_i, split, carved, policy, stats, x, y)


def _run_fold(
    fold: _Fold, matrices: list[FeatureMatrix], spec: ModelSpec, train_config: TrainConfig
) -> tuple[dict, dict]:
    split = fold.split
    n_train = len(split.train)
    n_fit = n_train + len(split.val)
    model = SequenceClassifier(
        spec, matrices[0].m, np.random.default_rng([train_config.seed, 101, fold.index])
    )
    ids = [f"{matrices[i].subject_id}/{matrices[i].task_id}" for i in split.train]
    val = (fold.x[:, n_train:n_fit], fold.y[n_train:n_fit]) if split.val else None
    t0 = time.perf_counter()
    try:
        result = train_model(
            model, fold.x[:, :n_train], fold.y[:n_train], ids, train_config, val=val
        )
    except TrainingError as exc:
        exc.fold_index = fold.index
        raise
    train_seconds = time.perf_counter() - t0

    # one scoring pass over the whole fold, train, val and test rows alike;
    # a last update can leave finite parameters whose forward overflows
    probs, _ = predict(model, fold.x)
    if not np.isfinite(probs).all():
        raise TrainingError(f"fold {fold.index}: the trained model scores a non-finite probability")
    samples = [
        {
            "subject_id": matrices[i].subject_id,
            "task_id": matrices[i].task_id,
            "role": role,
            "label": matrices[i].label,
            "y": int(y),
            "p": p,
        }
        for (role, i), y, p in zip(split.rows(), fold.y.tolist(), probs.tolist())
    ]

    epoch_secs = result.wall_clock_epoch_seconds
    entry = {
        "fold": fold.index,
        "sizes": {
            "train": n_train,
            "val": len(split.val),
            "test": len(split.test),
        },
        "cutoff": fold.policy.cutoff,
        "early_stop_carveout": fold.carved,
        "metrics": metrics_from_scores(_test_scores(samples)),
        "samples": samples,
        "training": {
            "epochs_run": result.epochs_run,
            "best_epoch": result.best_epoch,
            "stopped_early": result.stopped_early,
            "stopping_rule": result.stopping_rule,
            "final_train_loss": result.epoch_losses[-1],
        },
        "wall_clock_train_seconds": train_seconds,
        "wall_clock_mean_epoch_seconds": float(np.mean(epoch_secs)),
    }
    artifacts = {"policy": fold.policy, "stats": fold.stats, "model": model}
    return entry, artifacts


@dataclass(frozen=True)
class _Cohort:
    """A dataset's feature matrices and its folds: a generator when each
    fold is dropped after scoring, a tuple when the grid's cells share them."""

    matrices: list[FeatureMatrix]
    folds: Iterable[_Fold]


def _test_scores(samples: list[dict]) -> list[tuple[float, int]]:
    """(p, target) of a fold's test rows; test targets are never shuffled."""
    return [(s["p"], s["y"]) for s in samples if s["role"] == "test"]


def run_experiment(
    dataset,
    feature_selection: FeatureGroupSelection,
    model_spec: ModelSpec | None,
    train_config: TrainConfig,
    plan: SplitPlan,
    *,
    cutoff_scope: str = DEFAULT_CUTOFF_SCOPE,
    normalize: bool = DEFAULT_NORMALIZE,
    clip_pcts: tuple[float, float] = DEFAULT_CLIP_PCTS,
    shuffle_labels: bool = False,
    out_artifacts: dict | None = None,
) -> ExperimentReport:
    """Run one full protocol over `dataset` (a list of SignalSequence, or
    the `_Cohort` whose folds run_ablation_grid prepared for all its cells).

    Each split is prepared once: the length cutoff and normalization
    statistics are fitted on the training side only (set
    ``cutoff_scope="all"`` to fit the cutoff on the whole dataset; the
    choice is echoed in the report), and the sequences are cut to the
    cutoff, normalized, padded and stacked into one time-major array in
    train, val, test row order. A fresh model trains on its train rows
    (the val rows drive early stopping) and one pass scores every row.
    Given a list of sequences, each fold is prepared when it is reached
    and dropped after scoring. ``shuffle_labels`` permutes training
    labels only, as a leakage control.

    When early stopping is configured and a split has no validation part
    (k-fold), 10% of the training subjects are carved out, stratified,
    and the report flags it. If `out_artifacts` is a dict, the last
    fold's trained model, length policy, and normalization statistics
    are stored in it for checkpointing.
    """
    t_start = time.perf_counter()
    if isinstance(dataset, _Cohort):
        cohort = dataset
    else:
        matrices = [assemble_features(seq, feature_selection) for seq in dataset]
        folds = _prepare_folds(
            matrices, plan, train_config, cutoff_scope, normalize, clip_pcts, shuffle_labels
        )
        cohort = _Cohort(matrices, folds)
    matrices = cohort.matrices
    spec = model_spec if model_spec is not None else ModelSpec.reference(matrices[0].m)

    per_fold = []
    pooled_scores: list[tuple[float, int]] = []
    last_artifacts: dict = {}
    for fold in cohort.folds:
        entry, last_artifacts = _run_fold(fold, matrices, spec, train_config)
        per_fold.append(entry)
        pooled_scores.extend(_test_scores(entry["samples"]))
    any_carved = any(entry["early_stop_carveout"] for entry in per_fold)

    aggregate = {
        key: float(np.mean([f["metrics"][key] for f in per_fold]))
        for key in ("accuracy", "auc", "sensitivity", "specificity")
    }
    confusion_total = {
        k: sum(f["metrics"]["confusion"][k] for f in per_fold)
        for k in ("tp", "fp", "tn", "fn")
    }
    aggregate["confusion_total"] = confusion_total
    pooled_roc = compute_roc(pooled_scores)
    pooled = {
        "auc": roc_auc_from_points(pooled_roc),
        "roc_points": [list(p) for p in pooled_roc],
    }

    from pendetect import __version__

    config = {
        "tool_version": __version__,
        "feature_groups": list(feature_selection.groups),
        "include_raw_pressure_in_derived": feature_selection.include_raw_pressure_in_derived,
        "input_size": matrices[0].m,
        "model_spec": spec.to_dict(),
        "train": asdict(train_config),
        "plan": plan.to_dict(),
        "flags": {
            "cutoff_scope": cutoff_scope,
            "normalize": normalize,
            "clip_low_pct": clip_pcts[0],
            "clip_high_pct": clip_pcts[1],
            "shuffle_labels": shuffle_labels,
            "stratified": True,
            "subject_grouped": True,
            "holdout_rounding": HOLDOUT_ROUNDING,
            "holdout_run_seeding": "default_rng([seed, run]) per run",
            "early_stop_carveout": any_carved,
            "early_stop_carveout_fraction": CARVEOUT_FRACTION if any_carved else None,
        },
    }
    report = ExperimentReport(
        kind="experiment",
        seed=plan.seed,
        config=config,
        per_fold=per_fold,
        aggregate=aggregate,
        pooled=pooled,
        wall_clock_total_seconds=time.perf_counter() - t_start,
    )
    if out_artifacts is not None:
        out_artifacts.update(last_artifacts)
        out_artifacts["report"] = report
    return report


def run_ablation_grid(
    dataset,
    feature_selection: FeatureGroupSelection,
    train_config: TrainConfig,
    plan: SplitPlan,
    **experiment_kwargs,
) -> ExperimentReport:
    """Run the {rnn, lstm, gru} x {with_conv, without_conv} grid.

    Each cell is a full run_experiment under the same plan and training
    configuration, differing only in the model. The report stores one
    summary per cell plus soft-check notes comparing with_conv accuracy
    with the without_conv counterpart (logged, not asserted). Timings
    stay in the cells' ``wall_clock_*`` fields, out of the fingerprint;
    the table renders the per-cell speed comparison from them. The
    features are derived and the folds prepared once, and every cell
    trains and scores on the same fold arrays. `experiment_kwargs` are
    run_experiment's preprocessing flags.
    """
    t_start = time.perf_counter()
    matrices = [assemble_features(seq, feature_selection) for seq in dataset]
    cohort = _Cohort(
        matrices, tuple(_prepare_folds(matrices, plan, train_config, **experiment_kwargs))
    )
    input_size = matrices[0].m
    probe = None
    grid: dict[str, dict] = {}
    for cell in CELLS:
        for with_conv in (True, False):
            name = f"{cell}/{'with_conv' if with_conv else 'without_conv'}"
            sub = run_experiment(
                cohort,
                feature_selection,
                ModelSpec.reference(input_size, cell=cell, with_conv=with_conv),
                train_config,
                plan,
                **experiment_kwargs,
            )
            probe = probe or sub
            grid[name] = {
                "aggregate": sub.aggregate,
                "pooled_auc": sub.pooled["auc"],
                "per_fold_accuracy": [f["metrics"]["accuracy"] for f in sub.per_fold],
                "wall_clock_mean_epoch_seconds": float(
                    np.mean([f["wall_clock_mean_epoch_seconds"] for f in sub.per_fold])
                ),
            }

    notes = []
    for cell in CELLS:
        with_c = grid[f"{cell}/with_conv"]
        without_c = grid[f"{cell}/without_conv"]
        acc_w = with_c["aggregate"]["accuracy"]
        acc_wo = without_c["aggregate"]["accuracy"]
        ok = acc_w >= acc_wo - 0.05
        notes.append(
            f"soft check {cell}: with_conv accuracy {acc_w:.4f} vs "
            f"without_conv {acc_wo:.4f} - 0.05: {'ok' if ok else 'violated'}"
        )

    config = dict(probe.config)
    config.pop("model_spec", None)
    config["grid_cells"] = sorted(grid)
    return ExperimentReport(
        kind="ablation",
        seed=plan.seed,
        config=config,
        per_fold=[],
        aggregate={},
        pooled={},
        cells=grid,
        notes=notes,
        wall_clock_total_seconds=time.perf_counter() - t_start,
    )


# ---------------------------------------------------------------------------
# roc files


def emit_roc(report: ExperimentReport, path: str | Path) -> None:
    """Write the pooled ROC as CSV with the AUC in a header comment."""
    points = report.pooled.get("roc_points")
    if not points:
        raise ValueError("report has no pooled roc_points to emit")
    lines = [
        f"# {ROC_FILE_VERSION}",
        f"# auc={report.pooled['auc']!r}",
        "fpr,tpr",
    ]
    for x, y in points:
        lines.append(f"{float(x)!r},{float(y)!r}")
    write_text(path, "\n".join(lines) + "\n")
