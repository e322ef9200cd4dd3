"""Sequence length harmonization and train-fitted normalization.

The length policy fixes every sequence to a common cutoff, the rounded
mean of the training lengths: shorter sequences get zero rows appended,
longer ones lose their tail. Normalization clips each column to fitted
percentile bounds and then z-scores it; statistics always come from the
training split alone and travel to the other splits as an explicit
NormalizationStats value, so there is no way to leak test data into the
fit. Callers normalize first and fit the length afterwards, so padding
rows are appended after normalization: they are exact zeros in
normalized space (each column at its clipped training mean) and never
pass through the clip or the z-score.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ColumnMismatch, EmptyDataset, IoError, ParseError
from .features import FeatureMatrix

STD_FLOOR = 1e-8
STATS_FILE_VERSION = "pendetect-normalization v1"


@dataclass(frozen=True)
class LengthPolicy:
    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")


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


def compute_cutoff(train: list[FeatureMatrix]) -> LengthPolicy:
    """Cutoff = round-half-up mean of the training sequence lengths."""
    if not train:
        raise EmptyDataset("cannot compute a cutoff from zero sequences")
    mean = sum(fm.length for fm in train) / len(train)
    return LengthPolicy(cutoff=int(np.floor(mean + 0.5)))


def fit_length(fm: FeatureMatrix, policy: LengthPolicy) -> FeatureMatrix:
    """Pad with zero rows or cut the tail so the output has cutoff rows."""
    t = fm.length
    if t == policy.cutoff:
        values = fm.values.copy()
    elif t > policy.cutoff:
        values = fm.values[: policy.cutoff].copy()
    else:
        values = np.zeros((policy.cutoff, fm.m), dtype=np.float64)
        values[:t] = fm.values
    return replace(fm, values=values)


def fit_normalization(
    train: list[FeatureMatrix],
    clip_low_pct: float = 5.0,
    clip_high_pct: float = 90.0,
) -> NormalizationStats:
    """Fit per-column clip bounds and post-clip z-score statistics.

    Percentiles follow the linear-interpolation definition. The boundary
    request (0, 100) turns clipping off entirely (bounds at ±inf) rather
    than clamping unseen data to the training min/max.
    """
    if not train:
        raise EmptyDataset("cannot fit normalization on zero sequences")
    if not (0 <= clip_low_pct < clip_high_pct <= 100):
        raise ValueError(
            f"need 0 <= low < high <= 100, got ({clip_low_pct}, {clip_high_pct})"
        )
    names = list(train[0].column_names)
    for fm in train[1:]:
        if list(fm.column_names) != names:
            raise ColumnMismatch(
                f"matrix for {fm.subject_id}/{fm.task_id} has different columns"
            )
    stacked = np.concatenate([fm.values for fm in train], axis=0)

    low, high = _clip_bounds(stacked, (clip_low_pct, clip_high_pct))
    if clip_low_pct == 0:
        low = np.full(len(names), -np.inf)
    if clip_high_pct == 100:
        high = np.full(len(names), np.inf)

    clipped = np.clip(stacked, low, high)
    mean = clipped.mean(axis=0)
    std = clipped.std(axis=0)
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


def apply_normalization(fm: FeatureMatrix, stats: NormalizationStats) -> FeatureMatrix:
    if list(fm.column_names) != list(stats.column_names):
        raise ColumnMismatch(
            f"matrix columns {fm.column_names} do not match fitted columns "
            f"{stats.column_names}"
        )
    values = (np.clip(fm.values, stats.low_clip, stats.high_clip) - stats.mean) / stats.std
    return replace(fm, values=values)


# ---------------------------------------------------------------------------
# stats file round-trip

def save_stats(stats: NormalizationStats, path: str | Path) -> None:
    """Write stats as a small versioned text file, one column per line."""
    lines = [STATS_FILE_VERSION, f"fitted_on {stats.fitted_on}"]
    for j, name in enumerate(stats.column_names):
        lines.append(
            "\t".join(
                [
                    name,
                    repr(float(stats.mean[j])),
                    repr(float(stats.std[j])),
                    repr(float(stats.low_clip[j])),
                    repr(float(stats.high_clip[j])),
                ]
            )
        )
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc), path=str(path)) from exc


# the last stats file that parsed: (file bytes, stats)
_last_decoded: tuple[bytes, NormalizationStats] | None = None


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

    The file is read on every call, but the last file that parsed is
    kept: when the bytes are equal, the parse is skipped. Every call
    returns new stats with their own arrays, so changing one never
    reaches the next load.
    """
    global _last_decoded
    try:
        raw = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        raise IoError(str(exc), path=str(path)) from exc
    last = _last_decoded  # one read: another thread may replace the entry
    if last is None or last[0] != raw:
        stats = _decode_stats(raw, path)
        _last_decoded = (raw, stats)
    else:
        stats = last[1]
    return replace(
        stats,
        column_names=list(stats.column_names),
        mean=stats.mean.copy(),
        std=stats.std.copy(),
        low_clip=stats.low_clip.copy(),
        high_clip=stats.high_clip.copy(),
    )
