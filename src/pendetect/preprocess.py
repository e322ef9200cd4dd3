"""Sequence length harmonization and train-fitted normalization.

The length policy fixes every sequence to a common cutoff, the rounded
mean of the training lengths: shorter sequences get zero rows appended,
longer ones lose their tail. Normalization clips each column to fitted
percentile bounds and then z-scores it; statistics always come from the
training split alone and travel to the other splits as an explicit
NormalizationStats value, so there is no way to leak test data into the
fit.

``prepare`` is the one preparation of rows for the model, a fold's in
``train`` and a recording's in ``score``: the sequences are cut and
padded to the cutoff and stacked into one time-major (cutoff, N, m)
array, that array is normalized as a whole, and its padding rows are
set back to exact zeros, so in normalized space they sit at each
column's clipped training mean. Only the rows the model reads pass
through the clip and the z-score.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ColumnMismatch, EmptyDataset, InvalidRange, ParseError, read_decoded, write_text
from .features import FeatureMatrix, check_finite
from .nn.fields import check, check_value, declared, setting

STD_FLOOR = 1e-8
STATS_FILE_VERSION = "pendetect-normalization v1"


@dataclass(frozen=True)
class PrepConfig:
    """How each fold is prepared: the cutoff fitted on its training split
    or on the whole dataset (`cutoff_scope`), and whether it is normalized
    with `fit_normalization` at the percentile bounds `clip_pcts`."""

    cutoff_scope: str = setting(str, ("train", "all"), "train")
    normalize: bool = setting(bool, default=True)
    clip_pcts: tuple[float, float] = setting(list, "[0, 100]", (5.0, 90.0), item=float, pair="<")

    def __post_init__(self):
        check(self)


@dataclass(frozen=True)
class LengthPolicy:
    cutoff: int = setting(int, "[1, inf)")

    def __post_init__(self):
        check(self)


@dataclass
class NormalizationStats:
    column_names: list[str]
    mean: np.ndarray
    std: np.ndarray
    low_clip: np.ndarray
    high_clip: np.ndarray
    fitted_on: int

    def __post_init__(self):
        m = len(self.column_names)
        for field_name in ("mean", "std", "low_clip", "high_clip"):
            arr = np.asarray(getattr(self, field_name), dtype=np.float64)
            setattr(self, field_name, arr)
            if arr.shape != (m,):
                raise ColumnMismatch(
                    f"{field_name} has shape {arr.shape}, expected ({m},)"
                )
            if np.isnan(arr).any():
                raise ValueError(f"{field_name} has nan entries")
        if (self.std <= 0).any():
            raise ValueError("std entries must be positive after flooring")
        if (self.low_clip > self.high_clip).any():
            raise ValueError("low_clip must not exceed high_clip")


def round_half_up(x: float) -> int:
    """`x` rounded to the nearest integer, a half upwards (2.5 to 3, -2.5 to -2)."""
    return int(np.floor(x + 0.5))


def compute_cutoff(train: list[FeatureMatrix]) -> LengthPolicy:
    """Cutoff = round-half-up mean of the training sequence lengths."""
    if not train:
        raise EmptyDataset("cannot compute a cutoff from zero sequences")
    mean = sum(fm.length for fm in train) / len(train)
    return LengthPolicy(cutoff=round_half_up(mean))


def fit_length(
    fm: FeatureMatrix | Sequence[np.ndarray], policy: LengthPolicy
) -> FeatureMatrix | np.ndarray:
    """Pad with zero rows or cut the tail so the output has cutoff rows.

    `fm` is a non-empty sequence of N 2-d arrays with m columns each, which
    come back stacked time-major as one (cutoff, N, m) array, or a
    FeatureMatrix, which comes back as one (kept for perfbench's
    ``ScoreStream.finish`` while ``perfbench/`` is frozen).
    """
    if isinstance(fm, FeatureMatrix):
        return replace(fm, values=fit_length([fm.values], policy)[:, 0])
    out = np.zeros((policy.cutoff, len(fm), fm[0].shape[1]))
    for j, values in enumerate(fm):
        rows = values[: policy.cutoff]
        out[: len(rows), j] = rows
    return out


def fit_normalization(
    train: list[FeatureMatrix], clip_pcts: tuple[float, float] = PrepConfig.clip_pcts
) -> NormalizationStats:
    """Fit per-column clip bounds and post-clip z-score statistics.

    `clip_pcts` is a (low, high) pair of percentiles that PrepConfig's
    ``clip_pcts`` row allows (a ValueError otherwise), by default its
    default. Percentiles follow the linear-interpolation definition. The
    boundary request (0, 100) turns clipping off entirely (bounds at ±inf)
    rather than clamping unseen data to the training min/max. A column
    whose bounds, mean or variance overflow is an InvalidRange naming it.
    """
    if not train:
        raise EmptyDataset("cannot fit normalization on zero sequences")
    clip_low_pct, clip_high_pct = check_value(declared(PrepConfig)[2], clip_pcts, ValueError)
    names = list(train[0].column_names)
    for fm in train[1:]:
        if list(fm.column_names) != names:
            raise ColumnMismatch(
                f"matrix for {fm.subject_id}/{fm.task_id} has different columns"
            )
    stacked = np.concatenate([fm.values for fm in train], axis=0)

    with np.errstate(over="ignore", invalid="ignore"):
        low, high = _clip_bounds(stacked, (clip_low_pct, clip_high_pct))
        if clip_low_pct == 0:
            low = np.full(len(names), -np.inf)
        if clip_high_pct == 100:
            high = np.full(len(names), np.inf)
        # `stacked` is this call's own copy: clip it and run numpy's own std steps
        # in place, so std equals np.clip(stacked, low, high).std(axis=0) bit for bit
        np.clip(stacked, low, high, out=stacked)
        mean = stacked.mean(axis=0)
        stacked -= mean
        stacked *= stacked
        std = np.sqrt(stacked.sum(axis=0) / len(stacked))
    unfit = ~(np.isfinite(mean) & np.isfinite(std))
    if unfit.any():
        raise InvalidRange(f"column {names[np.argmax(unfit)]!r} spans too wide a range to z-score")
    std = np.where(std < STD_FLOOR, 1.0, std)
    return NormalizationStats(
        column_names=names,
        mean=mean,
        std=std,
        low_clip=low,
        high_clip=high,
        fitted_on=len(train),
    )


def _clip_bounds(stacked: np.ndarray, pcts: tuple[float, float]) -> np.ndarray:
    """``np.percentile(stacked, pcts, axis=0)`` from one sort of each column.

    np.percentile partitions each column at six positions, which costs
    more than three times one sort. This takes numpy's linear method step for
    step, so every bound equals np.percentile's to the bit: the virtual
    index ``(n - 1) * q``, both neighbours moved to the last row where it
    reaches n - 1, and numpy's lerp, which works from the upper neighbour
    when the weight is at least 0.5.
    """
    n = len(stacked)
    ordered = np.sort(stacked, axis=0)
    virtual = (n - 1) * np.true_divide(pcts, 100)
    prev = np.floor(virtual)
    next_ = prev + 1
    at_end = virtual >= n - 1
    prev[at_end] = -1
    next_[at_end] = -1
    gamma = (virtual - prev)[:, None]
    a, b = ordered[prev.astype(np.intp)], ordered[next_.astype(np.intp)]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def apply_normalization(
    fm: FeatureMatrix | np.ndarray, stats: NormalizationStats
) -> FeatureMatrix | np.ndarray:
    """Clip each column to the fitted bounds, then z-score it.

    `fm` is an array whose last axis holds the fitted columns, which comes
    back as an array, or a FeatureMatrix of those columns, which comes back
    as one (kept for perfbench's ``ScoreStream.finish`` while ``perfbench/``
    is frozen). An overflow leaves a non-finite value without a warning: a
    FeatureMatrix raises NonFiniteFeatures naming its recording, and a
    caller passing an array checks it.
    """
    if not isinstance(fm, FeatureMatrix):
        if fm.shape[-1] != len(stats.column_names):
            raise ColumnMismatch(
                f"array has {fm.shape[-1]} columns, fitted on {len(stats.column_names)}"
            )
        return _normalized(fm, stats)
    _check_columns(fm, stats)
    return replace(fm, values=_normalized(fm.values, stats))


def _check_columns(fm: FeatureMatrix, stats: NormalizationStats) -> None:
    if list(fm.column_names) != list(stats.column_names):
        raise ColumnMismatch(f"matrix columns {fm.column_names} do not match fitted columns "
                             f"{stats.column_names}")


def prepare(matrices: Sequence[FeatureMatrix], policy: LengthPolicy,
            stats: NormalizationStats | None = None) -> np.ndarray:
    """The rows' values cut or padded to the cutoff, stacked as one (cutoff,
    N, m) array and normalized with `stats` when given, padding rows back at
    exact zeros. Stats of other columns are a ColumnMismatch; a value that
    normalizes to inf or nan is NonFiniteFeatures naming its recording."""
    x = fit_length([fm.values for fm in matrices], policy)
    if stats is None:
        return x
    for fm in matrices:
        _check_columns(fm, stats)
    x = apply_normalization(x, stats)
    x[np.arange(policy.cutoff)[:, None] >= [fm.length for fm in matrices]] = 0.0
    if not np.isfinite(x).all():
        for j, fm in enumerate(matrices):
            check_finite(x[:, j], fm.column_names, fm.subject_id, fm.task_id)
    return x


def _normalized(values: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    out = np.clip(values, stats.low_clip, stats.high_clip)
    with np.errstate(over="ignore", invalid="ignore"):
        out -= stats.mean
        out /= stats.std
    return out


# ---------------------------------------------------------------------------
# stats file round-trip

def save_stats(stats: NormalizationStats, path: str | Path) -> None:
    """Write stats as a small versioned text file, one column per line."""
    lines = [STATS_FILE_VERSION, f"fitted_on {stats.fitted_on}"]
    columns = (stats.mean, stats.std, stats.low_clip, stats.high_clip)
    for j, name in enumerate(stats.column_names):
        lines.append("\t".join([name, *(repr(float(c[j])) for c in columns)]))
    write_text(path, "\n".join(lines) + "\n")


def _decode_stats(raw: bytes, path: str | Path) -> NormalizationStats:
    """Parse stats file bytes; any content fault is a ParseError naming `path`."""
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    if not lines or lines[0] != STATS_FILE_VERSION:
        raise ParseError(
            f"expected version line {STATS_FILE_VERSION!r}", path=str(path)
        )
    if len(lines) < 2 or not lines[1].startswith("fitted_on "):
        raise ParseError("missing fitted_on line", path=str(path))
    names, rows = [], []
    for line in lines[2:]:
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError(f"bad stats line {line!r}", path=str(path))
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise ParseError(f"bad stats line {line!r}: {exc}", path=str(path)) from exc
        names.append(parts[0])
    mean, std, low, high = np.array(rows).reshape(-1, 4).T
    try:
        return NormalizationStats(
            column_names=names,
            mean=mean,
            std=std,
            low_clip=low,
            high_clip=high,
            fitted_on=int(lines[1].removeprefix("fitted_on ")),
        )
    except ValueError as exc:
        raise ParseError(str(exc), path=str(path)) from exc


def load_stats(path: str | Path) -> NormalizationStats:
    """Read a stats file; any content fault is a ParseError naming it.

    The file is read on every call, but the last stats file that parsed
    is kept (`errors.read_decoded`): when the bytes are equal, the parse
    is skipped. Every call returns new stats with their own arrays, so
    changing one never reaches the next load.
    """
    stats = read_decoded("stats", path, _decode_stats)
    # a shallow copy skips __post_init__: the kept stats were checked when decoded
    fresh = copy.copy(stats)
    fresh.column_names = list(stats.column_names)
    fresh.mean, fresh.std = stats.mean.copy(), stats.std.copy()
    fresh.low_clip, fresh.high_clip = stats.low_clip.copy(), stats.high_clip.copy()
    return fresh
