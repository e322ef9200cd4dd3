"""The three benchmark workloads.

Each workload generates its inputs from the seed in ``setup`` and then
offers one operation, ``op``, which the loop in ``run.py`` calls in a
closed loop with one caller. ``check`` validates one operation's output
right after it ran; ``finish`` runs the checks that need every output.
Both return error messages, one per failed operation. The program is
reached only through module attributes (``evaluation.run_experiment``,
``cli.score_file``), so the tracer's replacements take effect.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from measure import tail
from pendetect import cli, evaluation, features, preprocess, signal_io
from pendetect.nn import ModelSpec, SequenceClassifier, TrainConfig, load_checkpoint

SELECTION = features.FeatureGroupSelection(("derived",))
SEPARATION = 0.3


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fold_cutoffs(cohort, plan) -> list[int]:
    matrices = [features.assemble_features(s, SELECTION) for s in cohort]
    return [
        preprocess.compute_cutoff([matrices[i] for i in split.train]).cutoff
        for split in evaluation.make_splits(matrices, plan)
    ]


def _cohort_properties(seed, cohort, plan) -> dict:
    lengths = [s.length for s in cohort]
    cutoffs = _fold_cutoffs(cohort, plan)
    return {
        "seed": seed,
        "subjects": len({s.subject_id for s in cohort}),
        "sequences": len(cohort),
        "class_separation": SEPARATION,
        "raw_length_min": min(lengths),
        "raw_length_max": max(lengths),
        "fold_cutoff_min": min(cutoffs),
        "fold_cutoff_max": max(cutoffs),
        "raw_length_max_over_cutoff": max(lengths) / min(cutoffs),
        "folds": plan.k,
    }


class CvGruConv:
    """Stratified subject-grouped 10-fold CV of the reference Conv1d+BiGRU.

    Fixed epochs and no early stopping, so run length never depends on
    the numbers the model computes.
    """

    name = "cv-gru-conv"
    min_ops = 2
    cold_every = 0
    EPOCHS = 1

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cohort = signal_io.generate_synthetic(20, (120, 200), SEPARATION, seed=seed)
        self.plan = evaluation.SplitPlan.kfold(10, seed)
        self.train = TrainConfig(epochs=self.EPOCHS, early_stop_patience=None, seed=seed)
        self.first: tuple[str, str] | None = None
        self.aucs: list[float] = []

    def op(self, step: int):
        artifacts: dict = {}
        report = evaluation.run_experiment(
            self.cohort, SELECTION, None, self.train, self.plan, out_artifacts=artifacts
        )
        return report, artifacts

    def check(self, step: int, output) -> str | None:
        report, artifacts = output
        path = self.workdir / "model.ckpt"
        artifacts["model"].save_checkpoint(
            path, preprocessing={"cutoff": artifacts["policy"].cutoff}
        )
        digests = (_sha256(report.fingerprint().encode()), _sha256(path.read_bytes()))
        if self.first is None:
            self.first = digests
        elif digests[0] != self.first[0]:
            return "report fingerprint differs from the first repeat"
        elif digests[1] != self.first[1]:
            return "checkpoint bytes differ from the first repeat"
        scored = Counter(
            (s["subject_id"], s["task_id"])
            for fold in report.per_fold
            for s in fold["samples"]
            if s["role"] == "test"
        )
        expected = {(s.subject_id, s.task_id) for s in self.cohort}
        if set(scored) != expected or any(n != 1 for n in scored.values()):
            return "test subjects are not each scored exactly once"
        auc = report.pooled["auc"]
        if not math.isfinite(auc):
            return f"pooled auc is not finite: {auc}"
        self.aucs.append(auc)
        return None

    def finish(self) -> list[str]:
        return []

    def properties(self) -> dict:
        return _cohort_properties(self.seed, self.cohort, self.plan) | {
            "epochs": self.EPOCHS, "report_sha256": self.first and self.first[0],
            "checkpoint_sha256": self.first and self.first[1],
        }

    def named_metrics(self, op_s: list[float]) -> dict:
        return {
            "cv_wall_s": (float(np.median(op_s)) if op_s else None, "s"),
            "cv_auc": (self.aucs[0] if self.aucs else None, "unitless"),
        }


class AblationGrid:
    """{rnn, lstm, gru} x {with, without conv}, fixed epochs, 2-fold CV
    of 4 subjects per class.

    Lengths of 104-124 keep every fold cutoff above 100, so the
    without-conv cells run more than 100 recurrent steps per sequence.
    """

    name = "ablation-grid"
    min_ops = 1
    cold_every = 0
    EPOCHS = 1
    CELLS = tuple(
        f"{c}/{t}" for c in ("rnn", "lstm", "gru") for t in ("with_conv", "without_conv")
    )

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.cohort = signal_io.generate_synthetic(4, (104, 124), SEPARATION, seed=seed)
        self.plan = evaluation.SplitPlan.kfold(2, seed)
        self.train = TrainConfig(epochs=self.EPOCHS, early_stop_patience=None, seed=seed)
        self.first: str | None = None

    def op(self, step: int):
        return evaluation.run_ablation_grid(self.cohort, SELECTION, self.train, self.plan)

    def check(self, step: int, report) -> str | None:
        cells = report.cells or {}
        if sorted(cells) != sorted(self.CELLS):
            return f"grid cells {sorted(cells)} are not the six expected"
        aggregates = {name: cells[name]["aggregate"] for name in self.CELLS}
        for name, agg in aggregates.items():
            values = [agg[k] for k in ("accuracy", "auc", "sensitivity", "specificity")]
            if not all(math.isfinite(v) for v in values):
                return f"cell {name} has a non-finite aggregate"
        digest = _sha256(repr(sorted(aggregates.items())).encode())
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            return "cell aggregates differ from the first repeat"
        return None

    def finish(self) -> list[str]:
        return []

    def properties(self) -> dict:
        return _cohort_properties(self.seed, self.cohort, self.plan) | {
            "epochs": self.EPOCHS, "cells": list(self.CELLS),
        }

    def named_metrics(self, op_s: list[float]) -> dict:
        return {"grid_wall_s": (float(np.median(op_s)) if op_s else None, "s")}


class ScoreStream:
    """Warm in-process ``cli.score_file`` over distinct recordings, plus a
    smaller series of cold ``python -m pendetect.cli score`` processes.

    The checkpoint holds the reference model at its seeded initial
    weights: scoring cost does not depend on the weight values. Raw
    lengths are stratified log-uniformly between the checkpoint cutoff
    and 20 times it.
    """

    name = "score-stream"
    min_ops = 20
    cold_every = 30
    RECORDINGS = 32
    MAX_RATIO = 20.0

    def __init__(self, src_dir: Path):
        self.src_dir = src_dir

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        cohort = signal_io.generate_synthetic(20, (120, 200), SEPARATION, seed=seed)
        matrices = [features.assemble_features(s, SELECTION) for s in cohort]
        self.cutoff = preprocess.compute_cutoff(matrices).cutoff
        stats = preprocess.fit_normalization(matrices)
        m = matrices[0].m
        model = SequenceClassifier(ModelSpec.reference(m), m, np.random.default_rng([seed, 1]))
        preprocess.save_stats(stats, workdir / "normalization.tsv")
        self.checkpoint = workdir / "model.ckpt"
        model.save_checkpoint(
            self.checkpoint,
            normalization_ref="normalization.tsv",
            preprocessing={
                "cutoff": self.cutoff,
                "feature_groups": list(SELECTION.groups),
                "include_raw_pressure_in_derived": False,
                "format": "synthetic",
                "sample_rate_hz": None,
            },
        )
        rng = np.random.default_rng([seed, 2])
        n = self.RECORDINGS
        self.lengths = [
            int(round(self.cutoff * self.MAX_RATIO ** ((i + rng.random()) / n)))
            for i in range(n)
        ]
        self.recordings = []
        for i, length in enumerate(self.lengths):
            seq = signal_io.generate_synthetic(
                1, (length, length), SEPARATION, seed=seed * 1000 + i
            )[i % 2]
            path = workdir / f"rec{i:03d}.svc"
            signal_io.write_tablet_file(seq, path)
            self.recordings.append(path)
        self.warm: list[tuple[int, float]] = []
        self.cold_s: list[float] = []

    def op(self, step: int) -> tuple[int, float]:
        i = step % self.RECORDINGS
        return i, cli.score_file(self.checkpoint, self.recordings[i])

    def check(self, step: int, output) -> str | None:
        i, p = output
        if not (math.isfinite(p) and 0.0 <= p <= 1.0):
            return f"recording {i}: probability {p} is not in [0, 1]"
        self.warm.append((i, p))
        return None

    def cold(self) -> str | None:
        """One fresh CLI process on the recording scored last; returns an error or None."""
        i, p = self.warm[-1]
        env = dict(os.environ, PYTHONPATH=str(self.src_dir))
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pendetect.cli", "score",
             "--checkpoint", str(self.checkpoint), "--input", str(self.recordings[i])],
            capture_output=True, text=True, timeout=120, env=env,
        )
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            return f"cold score exited {proc.returncode}: {proc.stderr.strip()[-200:]}"
        printed = proc.stdout.split()[0] if proc.stdout.split() else ""
        if printed != f"{p:.4f}":
            return f"recording {i}: cold score printed {printed!r}, warm gave {p:.4f}"
        self.cold_s.append(elapsed)
        return None

    def finish(self) -> list[str]:
        """Each warm probability must equal SequenceClassifier.forward on the
        same preprocessed matrix, to within 1e-12."""
        model, meta = load_checkpoint(self.checkpoint)
        stats = preprocess.load_stats(self.workdir / meta["normalization_ref"])
        policy = preprocess.LengthPolicy(cutoff=self.cutoff)
        reference = {}
        for i in sorted({i for i, _ in self.warm}):
            seq = signal_io.parse_tablet_file(self.recordings[i])
            fm = features.assemble_features(seq, SELECTION)
            fm = preprocess.fit_length(preprocess.apply_normalization(fm, stats), policy)
            reference[i] = model.forward(fm.values)
        return [
            f"recording {i}: score_file gave {p!r}, forward gave {reference[i]!r}"
            for i, p in self.warm
            if abs(p - reference[i]) > 1e-12
        ]

    def properties(self) -> dict:
        ratios = [n / self.cutoff for n in self.lengths]
        return {
            "seed": self.seed,
            "stats_cohort_sequences": 40,
            "recordings": self.RECORDINGS,
            "class_separation": SEPARATION,
            "checkpoint_cutoff": self.cutoff,
            "raw_length_min": min(self.lengths),
            "raw_length_max": max(self.lengths),
            "raw_length_min_over_cutoff": min(ratios),
            "raw_length_max_over_cutoff": max(ratios),
            "share_longer_than_4x_cutoff": sum(r > 4 for r in ratios) / len(ratios),
            "recording_bytes": sum(p.stat().st_size for p in self.recordings),
            "cold_every_warm_calls": self.cold_every,
        }

    def named_metrics(self, op_s: list[float]) -> dict:
        value, pct, n = tail(op_s) if op_s else (None, None, 0)
        return {
            "score_p50_ms": (1e3 * float(np.median(op_s)) if op_s else None, "ms"),
            "score_tail_ms": (1e3 * value if value is not None else None, "ms"),
            "score_tail_percentile": (pct, "percent"),
            "score_warm_samples": (n, "count"),
            "score_cold_ms": (
                1e3 * float(np.median(self.cold_s)) if self.cold_s else None, "ms"
            ),
            "score_cold_samples": (len(self.cold_s), "count"),
        }


def make(name: str, src_dir: Path):
    if name == CvGruConv.name:
        return CvGruConv()
    if name == AblationGrid.name:
        return AblationGrid()
    if name == ScoreStream.name:
        return ScoreStream(src_dir)
    raise ValueError(f"unknown workload {name!r}")

