"""Reading, writing and synthesizing pen-signal recordings.

Two on-disk formats are supported:

* tablet: one sample per line, 7 whitespace-separated integers in the
  column order x, y, timestamp, button, tilt_x, tilt_y, pressure
  (DEFAULT_TABLET_COLUMNS), optional single header line (detected by arity
  mismatch and skipped).
* smart pen: one sample per line, 6 whitespace-separated reals.

Parsing is format-only: a parsed sequence may be as short as one sample;
length requirements are enforced downstream by the feature stage.

A parser reads and validates the whole file, however long. ``score``
parses and validates the whole recording too, but derives features only
for the first ``cutoff`` rows that its model reads (see cli.score_file).
"""

from __future__ import annotations

import csv
import io
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateEntry,
    EmptyFile,
    InvalidRange,
    IoError,
    MalformedLine,
    NonMonotonicTime,
    ParseError,
)

PD = "PD"
HC = "HC"
LABELS = (PD, HC)
#: model target of each label: PD is the positive class
LABEL_TO_Y = {HC: 0, PD: 1}

#: channel names of a tablet recording, in canonical order
TABLET_CHANNELS = ("x", "y", "timestamp", "pressure", "tilt_x", "tilt_y", "button")

#: on-disk column order of every tablet file read or written here. The
#: acquisition format does not document its column order, so this is a
#: convention.
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

#: the range of generate_synthetic's sequence lengths
MIN_SYNTHETIC_LENGTH = 8
MAX_SYNTHETIC_LENGTH = 1_000_000


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

def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, a NUL in the name
        raise ParseError(str(exc), path=str(path)) from exc


#: characters str.splitlines breaks a line at but numpy's C reader takes for
#: field separators; reading through either must see the same lines
_SPLITLINES_ONLY_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


def _parse_numeric_lines(
    path: str | Path, arity: int
) -> tuple[np.ndarray, Callable[[], list[int]]]:
    """Parse whitespace-separated numeric lines of fixed arity.

    Returns the value matrix and a function giving the 1-based physical
    line number of each data row. A first line that does not match the arity
    is treated as a header and skipped with a warning; blank lines are
    ignored. A nan or infinite value is a MalformedLine naming its line.

    numpy's C reader reads a clean file: ASCII text with one arity on every
    non-blank line and only finite values, which it converts with the same
    routine as float(). Every other file goes to _parse_split_lines, which
    gives the values, warnings and errors with their line numbers. Line
    numbers of a clean file are worked out only when asked for.
    """
    text = _read_text(path)
    values = _read_clean(text, arity)
    if values is None:
        values, line_nos = _parse_split_lines(text.splitlines(), arity, path)
        return values, lambda: line_nos
    return values, lambda: _data_line_numbers(text)


def _read_clean(text: str, arity: int) -> np.ndarray | None:
    """The values of `text` read by numpy's C reader, or None where that
    reading is refused or could differ from _parse_split_lines'.

    Text that is not ASCII may hold line breaks of str.splitlines (U+0085,
    U+2028) that the C reader takes for field separators, or digits
    (U+0661) that float() takes and the C reader refuses; ASCII text may
    hold the line breaks of _SPLITLINES_ONLY_BREAKS. Such text is not read
    here, and neither is an empty or blank file, which the C reader would
    read as no data with a warning. The C reader refuses a wrong arity on
    any line (a header among them) and tokens such as 1_000 that float()
    takes. `text` comes from a universal-newlines read, so it holds no
    carriage return that the two readers could split differently.
    """
    if (
        not text.isascii()
        or not text
        or text.isspace()
        or any(c in text for c in _SPLITLINES_ONLY_BREAKS)
    ):
        return None
    try:
        values = np.loadtxt(io.StringIO(text), dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != arity or not np.isfinite(values).all():
        return None
    return values


def _data_line_numbers(text: str) -> list[int]:
    """The 1-based line number of each non-blank line of a clean file."""
    return [n for n, line in enumerate(text.splitlines(), start=1) if line.split()]


def _parse_split_lines(
    lines: list[str], arity: int, path: str | Path
) -> tuple[np.ndarray, list[int]]:
    """_parse_numeric_lines for any file: the value matrix and the line
    number of each data row.

    Every token goes through float() in one pass over the whole file; only
    when a line has the wrong arity or a token does not convert does a
    line-by-line scan run, to name the first faulty line.
    """
    split = list(map(str.split, lines))
    counts = np.fromiter(map(len, split), dtype=np.intp, count=len(split))
    start = 0
    if split and int(counts[0]) not in (0, arity):
        warnings.warn(
            f"{path}: skipping line 1 ({counts[0]} fields, expected {arity}); "
            "assumed to be a header",
            stacklevel=4,
        )
        counts[0] = 0
        start = 1
    rows = np.flatnonzero(counts)
    if np.any(counts[rows] != arity):
        _raise_first_fault(split, arity, start, path)
    try:
        flat = np.fromiter(
            map(float, chain.from_iterable(split[start:])), dtype=np.float64,
            count=rows.size * arity,
        )
    except ValueError:
        _raise_first_fault(split, arity, start, path)
    if not rows.size:
        raise EmptyFile(path=str(path))
    values = flat.reshape(-1, arity)
    line_nos = (rows + 1).tolist()
    # float() also reads nan, inf and out-of-range numbers such as 1e999
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise MalformedLine(
            line_nos[row], f"non-finite value in field {col + 1}", path=str(path)
        )
    return values, line_nos


def _raise_first_fault(split: list[list[str]], arity: int, start: int, path) -> None:
    """Raise the MalformedLine of the first line from index `start` on, in
    file order, that has the wrong arity or a token float() rejects."""
    for line_no, tokens in enumerate(split[start:], start=start + 1):
        if tokens and len(tokens) != arity:
            raise MalformedLine(
                line_no, f"expected {arity} fields, got {len(tokens)}", path=str(path)
            )
        try:
            [float(t) for t in tokens]
        except ValueError as exc:
            raise MalformedLine(line_no, f"non-numeric field: {exc}", path=str(path)) from exc
    raise AssertionError("no faulty line found")


def parse_tablet_file(
    path: str | Path,
    sample_rate_hz: float = 200.0,
    subject_id: str = "",
    task_id: str = "",
    label: str | None = None,
) -> SignalSequence:
    """Parse a 7-column tablet recording, columns in DEFAULT_TABLET_COLUMNS
    order, into a SignalSequence."""
    values, line_nos = _parse_numeric_lines(path, arity=7)
    channels = {name: values[:, i].copy() for i, name in enumerate(DEFAULT_TABLET_COLUMNS)}

    bad_button = np.nonzero(~np.isin(channels["button"], (0.0, 1.0)))[0]
    if bad_button.size:
        i = int(bad_button[0])
        raise MalformedLine(line_nos()[i], "button must be 0 or 1", path=str(path))
    bad_pressure = np.nonzero(channels["pressure"] < 0)[0]
    if bad_pressure.size:
        i = int(bad_pressure[0])
        raise MalformedLine(line_nos()[i], "pressure must be >= 0", path=str(path))
    ts = channels["timestamp"]
    decreasing = np.nonzero(ts[1:] < ts[:-1])[0]
    if decreasing.size:
        i = int(decreasing[0]) + 1
        raise NonMonotonicTime(line_nos()[i], path=str(path))

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


def parse_recording(
    path: str | Path, format: str, sample_rate_hz: float | None = None, **ids
) -> SignalSequence:
    """Parse one recording stored in a manifest ``format``.

    Smart-pen files go to parse_smartpen_file, tablet and synthetic files
    to parse_tablet_file. ``sample_rate_hz`` None keeps that parser's
    nominal rate (100 Hz smart pen, 200 Hz tablet); ``ids`` (subject_id,
    task_id, label) pass through to it.
    """
    if format not in MANIFEST_FORMATS:
        raise ValueError(f"unknown recording format {format!r}")
    parse = parse_smartpen_file if format == "smartpen_channels" else parse_tablet_file
    if sample_rate_hz is not None:
        ids["sample_rate_hz"] = sample_rate_hz
    return parse(path, **ids)


# ---------------------------------------------------------------------------
# writing (round-trip counterpart of the tablet parser; used by `synth`)

def write_tablet_file(seq: SignalSequence, path: str | Path) -> None:
    """Write a tablet sequence as integer columns in DEFAULT_TABLET_COLUMNS order."""
    cols = [seq.channels[name] for name in DEFAULT_TABLET_COLUMNS]
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(*cols):
                fh.write(" ".join(str(int(round(v))) for v in row) + "\n")
    except OSError as exc:
        raise IoError(str(exc), path=str(path)) from exc


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
    them almost perfectly. Deterministic for a fixed seed. An argument
    out of range is an InvalidRange.
    """
    lo, hi = length_range
    if not MIN_SYNTHETIC_LENGTH <= lo <= hi <= MAX_SYNTHETIC_LENGTH:
        raise InvalidRange(
            f"length_range must be min <= max within [{MIN_SYNTHETIC_LENGTH}, "
            f"{MAX_SYNTHETIC_LENGTH}], got {tuple(length_range)}"
        )
    if not 0.0 <= class_separation <= 1.0:
        raise InvalidRange(f"class_separation must be in [0, 1], got {class_separation}")
    if n_subjects_per_class < 1:
        raise InvalidRange("n_subjects_per_class must be >= 1")
    if seed < 0:
        raise InvalidRange(f"seed must be >= 0, got {seed}")

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
    """Read a ``path,subject_id,task_id,label`` CSV into a DatasetManifest.

    A file that cannot be read is an IoError, and one that is not UTF-8 a
    ParseError; both name the manifest.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoError(str(exc), path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    entries: list[ManifestEntry] = []
    if not rows:
        return DatasetManifest(entries=entries, format=format)
    if tuple(h.strip() for h in rows[0]) != MANIFEST_HEADER:
        raise ParseError(
            f"manifest header must be {','.join(MANIFEST_HEADER)}", path=str(path)
        )
    for row_no, row in enumerate(rows[1:], start=2):
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
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(MANIFEST_HEADER)
            for e in manifest.entries:
                writer.writerow([e.path, e.subject_id, e.task_id, e.label])
    except OSError as exc:
        raise IoError(str(exc), path=str(path)) from exc


def load_dataset(
    manifest: DatasetManifest,
    base_dir: str | Path | None = None,
    sample_rate_hz: float | None = None,
) -> list[SignalSequence]:
    """Parse every manifest entry, attaching ids and labels from the manifest."""
    base = Path(base_dir) if base_dir is not None else None
    return [
        parse_recording(
            Path(e.path) if base is None else base / e.path,
            manifest.format,
            sample_rate_hz,
            subject_id=e.subject_id,
            task_id=e.task_id,
            label=e.label,
        )
        for e in manifest.entries
    ]
