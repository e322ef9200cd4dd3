"""Reading, writing and synthesizing pen-signal recordings.

Two on-disk formats are supported:

* tablet: one sample per line, 7 whitespace-separated integers, optional
  single header line (detected by arity mismatch and skipped).
* smart pen: one sample per line, 6 whitespace-separated reals.

Parsing is format-only: a parsed sequence may be as short as one sample;
length requirements are enforced downstream by the feature stage.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateEntry,
    EmptyFile,
    InvalidRange,
    MalformedLine,
    NonMonotonicTime,
    ParseError,
)

PD = "PD"
HC = "HC"
LABELS = (PD, HC)

#: channel names of a tablet recording, in canonical order
TABLET_CHANNELS = ("x", "y", "timestamp", "pressure", "tilt_x", "tilt_y", "button")

#: default on-disk column order for tablet files. The acquisition format does
#: not document its column order, so this is a convention; pass an explicit
#: ``column_map`` if your files differ.
DEFAULT_TABLET_COLUMNS = ("x", "y", "timestamp", "button", "tilt_x", "tilt_y", "pressure")

#: smart-pen channel names, in on-disk order
SMARTPEN_CHANNELS = (
    "microphone",
    "finger_grip",
    "axial_pressure",
    "tilt_accel_x",
    "tilt_accel_y",
    "tilt_accel_z",
)

MANIFEST_HEADER = ("path", "subject_id", "task_id", "label")
MANIFEST_FORMATS = ("tablet_svc", "smartpen_channels", "synthetic")


@dataclass
class SignalSequence:
    """One task performance by one subject: named equal-length channels."""

    subject_id: str
    task_id: str
    label: str | None
    channels: dict[str, np.ndarray]
    sample_rate_hz: float = 200.0

    def __post_init__(self):
        if not self.channels:
            raise ValueError("a SignalSequence needs at least one channel")
        lengths = {name: len(series) for name, series in self.channels.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"channel lengths differ: {lengths}")
        if self.label is not None and self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {self.label!r}")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        self.channels = {k: np.asarray(v, dtype=np.float64) for k, v in self.channels.items()}

    @property
    def length(self) -> int:
        return len(next(iter(self.channels.values())))

    def is_tablet(self) -> bool:
        return set(TABLET_CHANNELS) <= set(self.channels)

    def is_smartpen(self) -> bool:
        return set(SMARTPEN_CHANNELS) <= set(self.channels)


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    subject_id: str
    task_id: str
    label: str


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    format: str

    def __post_init__(self):
        if self.format not in MANIFEST_FORMATS:
            raise ValueError(f"unknown manifest format {self.format!r}")
        seen: set[tuple[str, str]] = set()
        for e in self.entries:
            key = (e.subject_id, e.task_id)
            if key in seen:
                raise DuplicateEntry(f"duplicate (subject, task) pair {key}")
            seen.add(key)


# ---------------------------------------------------------------------------
# parsing

def _read_lines(path: str | Path) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    return text.splitlines()


def _parse_numeric_lines(path: str | Path, arity: int) -> tuple[np.ndarray, list[int]]:
    """Parse whitespace-separated numeric lines of fixed arity.

    Returns the value matrix and the 1-based physical line number of each data
    row. A first line that does not match the arity is treated as a header and
    skipped with a warning; blank lines are ignored. A nan or infinite value
    is a MalformedLine naming its line.
    """
    lines = _read_lines(path)
    rows: list[list[float]] = []
    line_nos: list[int] = []
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != arity:
            if not rows and line_no == 1:
                warnings.warn(
                    f"{path}: skipping line 1 ({len(tokens)} fields, expected {arity}); "
                    "assumed to be a header",
                    stacklevel=3,
                )
                continue
            raise MalformedLine(
                line_no, f"expected {arity} fields, got {len(tokens)}", path=str(path)
            )
        try:
            rows.append([float(t) for t in tokens])
        except ValueError as exc:
            raise MalformedLine(line_no, f"non-numeric field: {exc}", path=str(path)) from exc
        line_nos.append(line_no)
    if not rows:
        raise EmptyFile(path=str(path))
    values = np.asarray(rows, dtype=np.float64)
    # float() also reads nan, inf and out-of-range numbers such as 1e999
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise MalformedLine(
            line_nos[row], f"non-finite value in field {col + 1}", path=str(path)
        )
    return values, line_nos


def parse_tablet_file(
    path: str | Path,
    column_map: tuple[str, ...] = DEFAULT_TABLET_COLUMNS,
    sample_rate_hz: float = 200.0,
    subject_id: str = "",
    task_id: str = "",
    label: str | None = None,
) -> SignalSequence:
    """Parse a 7-column tablet recording into a SignalSequence.

    ``column_map`` names every tablet channel exactly once, in the on-disk
    column order.
    """
    if sorted(column_map) != sorted(TABLET_CHANNELS):
        raise ValueError(
            f"column_map must name each of {TABLET_CHANNELS} exactly once, got {column_map}"
        )
    values, line_nos = _parse_numeric_lines(path, arity=7)
    channels = {name: values[:, i].copy() for i, name in enumerate(column_map)}

    bad_button = np.nonzero(~np.isin(channels["button"], (0.0, 1.0)))[0]
    if bad_button.size:
        i = int(bad_button[0])
        raise MalformedLine(line_nos[i], "button must be 0 or 1", path=str(path))
    bad_pressure = np.nonzero(channels["pressure"] < 0)[0]
    if bad_pressure.size:
        i = int(bad_pressure[0])
        raise MalformedLine(line_nos[i], "pressure must be >= 0", path=str(path))
    ts = channels["timestamp"]
    decreasing = np.nonzero(ts[1:] < ts[:-1])[0]
    if decreasing.size:
        i = int(decreasing[0]) + 1
        raise NonMonotonicTime(line_nos[i], path=str(path))

    return SignalSequence(
        subject_id=subject_id or Path(path).stem,
        task_id=task_id or "unknown",
        label=label,
        channels=channels,
        sample_rate_hz=sample_rate_hz,
    )


def parse_smartpen_file(
    path: str | Path,
    sample_rate_hz: float = 100.0,
    subject_id: str = "",
    task_id: str = "",
    label: str | None = None,
) -> SignalSequence:
    """Parse a 6-column smart-pen recording.

    Smart-pen files carry no timestamps; a uniform nominal sample rate is
    attached (default 100 Hz). The six channels are the raw feature set, no
    kinematic derivation is possible from them.
    """
    values, _ = _parse_numeric_lines(path, arity=6)
    channels = {name: values[:, i].copy() for i, name in enumerate(SMARTPEN_CHANNELS)}
    return SignalSequence(
        subject_id=subject_id or Path(path).stem,
        task_id=task_id or "unknown",
        label=label,
        channels=channels,
        sample_rate_hz=sample_rate_hz,
    )


# ---------------------------------------------------------------------------
# writing (round-trip counterpart of the parsers; used by `synth` and tests)

def write_tablet_file(
    seq: SignalSequence,
    path: str | Path,
    column_map: tuple[str, ...] = DEFAULT_TABLET_COLUMNS,
) -> None:
    """Write a tablet sequence as integer columns in ``column_map`` order."""
    cols = [seq.channels[name] for name in column_map]
    with open(path, "w", encoding="utf-8") as fh:
        for row in zip(*cols):
            fh.write(" ".join(str(int(round(v))) for v in row) + "\n")


def write_smartpen_file(seq: SignalSequence, path: str | Path) -> None:
    """Write a smart-pen sequence; floats use shortest round-trip decimals."""
    cols = [seq.channels[name] for name in SMARTPEN_CHANNELS]
    with open(path, "w", encoding="utf-8") as fh:
        for row in zip(*cols):
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# synthetic data

def generate_synthetic(
    n_subjects_per_class: int,
    length_range: tuple[int, int],
    class_separation: float,
    seed: int,
) -> list[SignalSequence]:
    """Generate a balanced synthetic tablet dataset.

    Every sequence is a smooth pen trajectory; the PD class adds a velocity
    fluctuation (an oscillatory tremor plus noise) whose magnitude scales with
    ``class_separation``. At 0 the two classes share one generating
    distribution; at 1 a threshold on mean absolute velocity change separates
    them almost perfectly. Deterministic for a fixed seed.
    """
    lo, hi = length_range
    if lo > hi:
        raise InvalidRange(f"length_range min {lo} > max {hi}")
    if lo < 8:
        raise InvalidRange(f"length_range min must be >= 8, got {lo}")
    if not 0.0 <= class_separation <= 1.0:
        raise ValueError(f"class_separation must be in [0, 1], got {class_separation}")
    if n_subjects_per_class < 1:
        raise ValueError("n_subjects_per_class must be >= 1")

    rng = np.random.default_rng(seed)
    sequences: list[SignalSequence] = []
    for label in (HC, PD):
        tremor_amp = 0.9 * class_separation if label == PD else 0.0
        for subject in range(n_subjects_per_class):
            n = int(rng.integers(lo, hi + 1))
            t = np.arange(n)

            # smooth base movement: wandering heading, slowly modulated speed
            heading = np.cumsum(rng.normal(0.0, 0.08, n))
            base_speed = rng.uniform(35.0, 55.0)
            slow_hz = rng.uniform(0.3, 1.2)
            speed = base_speed * (1.0 + 0.2 * np.sin(2 * np.pi * slow_hz / 200.0 * t + rng.uniform(0, 2 * np.pi)))

            # PD-only tremor: ~5 Hz oscillation plus white noise on the speed
            tremor_hz = rng.uniform(4.0, 6.0)
            tremor = tremor_amp * (
                np.sin(2 * np.pi * tremor_hz / 200.0 * t + rng.uniform(0, 2 * np.pi))
                + 0.5 * rng.normal(0.0, 1.0, n)
            )
            speed = speed * (1.0 + tremor)

            x = np.round(4000 + np.cumsum(speed * np.cos(heading)))
            y = np.round(4000 + np.cumsum(speed * np.sin(heading)))

            pressure = np.round(
                600
                + 150 * np.sin(2 * np.pi * 0.5 / 200.0 * t + rng.uniform(0, 2 * np.pi))
                + 25 * rng.normal(0.0, 1.0, n)
            )
            pressure = np.maximum(pressure, 0.0)
            tilt_x = np.round(np.clip(300 + np.cumsum(rng.normal(0.0, 1.5, n)), 0, 900))
            tilt_y = np.round(np.clip(400 + np.cumsum(rng.normal(0.0, 1.5, n)), 0, 900))

            # a few short in-air stretches
            button = np.ones(n)
            for _ in range(int(rng.integers(1, 4))):
                start = int(rng.integers(0, max(n - 5, 1)))
                button[start : start + int(rng.integers(2, 6))] = 0.0

            sequences.append(
                SignalSequence(
                    subject_id=f"syn-{label.lower()}-{subject:03d}",
                    task_id="synthetic",
                    label=label,
                    channels={
                        "x": x,
                        "y": y,
                        "timestamp": t.astype(np.float64),
                        "pressure": pressure,
                        "tilt_x": tilt_x,
                        "tilt_y": tilt_y,
                        "button": button,
                    },
                    sample_rate_hz=200.0,
                )
            )
    return sequences


# ---------------------------------------------------------------------------
# manifests

def load_manifest(path: str | Path, format: str) -> DatasetManifest:
    """Read a ``path,subject_id,task_id,label`` CSV into a DatasetManifest."""
    entries: list[ManifestEntry] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return DatasetManifest(entries=[], format=format)
        if tuple(h.strip() for h in header) != MANIFEST_HEADER:
            raise ParseError(
                f"manifest header must be {','.join(MANIFEST_HEADER)}", path=str(path)
            )
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 4:
                raise MalformedLine(row_no, f"expected 4 columns, got {len(row)}", path=str(path))
            file_path, subject_id, task_id, label = (c.strip() for c in row)
            if label.upper() not in LABELS:
                raise MalformedLine(row_no, f"label must be PD or HC, got {label!r}", path=str(path))
            entries.append(ManifestEntry(file_path, subject_id, task_id, label.upper()))
    return DatasetManifest(entries=entries, format=format)


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for e in manifest.entries:
            writer.writerow([e.path, e.subject_id, e.task_id, e.label])


def load_dataset(
    manifest: DatasetManifest,
    base_dir: str | Path | None = None,
    column_map: tuple[str, ...] = DEFAULT_TABLET_COLUMNS,
    sample_rate_hz: float | None = None,
) -> list[SignalSequence]:
    """Parse every manifest entry, attaching ids and labels from the manifest."""
    # the manifest constructor enforces uniqueness, but re-check in case the
    # entries list was mutated after construction
    seen: set[tuple[str, str]] = set()
    for e in manifest.entries:
        key = (e.subject_id, e.task_id)
        if key in seen:
            raise DuplicateEntry(f"duplicate (subject, task) pair {key}")
        seen.add(key)

    base = Path(base_dir) if base_dir is not None else None
    sequences: list[SignalSequence] = []
    for e in manifest.entries:
        file_path = Path(e.path) if base is None else base / e.path
        if manifest.format in ("tablet_svc", "synthetic"):
            seq = parse_tablet_file(
                file_path,
                column_map=column_map,
                sample_rate_hz=sample_rate_hz or 200.0,
                subject_id=e.subject_id,
                task_id=e.task_id,
                label=e.label,
            )
        else:
            seq = parse_smartpen_file(
                file_path,
                sample_rate_hz=sample_rate_hz or 100.0,
                subject_id=e.subject_id,
                task_id=e.task_id,
                label=e.label,
            )
        sequences.append(seq)
    return sequences
