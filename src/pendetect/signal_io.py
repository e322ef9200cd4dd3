"""Reading, writing and synthesizing pen-signal recordings.

Two on-disk formats are supported:

* tablet: one sample per line, 7 whitespace-separated integers in the
  column order x, y, timestamp, button, tilt_x, tilt_y, pressure
  (DEFAULT_TABLET_COLUMNS), optional single header line (detected by arity
  mismatch and skipped).
* smart pen: one sample per line, 6 whitespace-separated reals.

Parsing is format-only: a parsed sequence may be as short as one sample;
length requirements are enforced downstream by the feature stage.

Both formats go through one of three readers, with the same values,
warnings and errors on every file. numpy's C reader (_read_clean) reads
a clean file: ASCII text, one arity on every non-blank line after any
header, finite values. It reads a body of integers (no ".", "e", "E" or
"-0" in it, as tablet files are written) as int64 and casts it to
float64, which gives float()'s bits and is faster; it reads any other
body, or one whose integers overflow int64, as float64, converting a
token as float() does. Every other file (non-ASCII text, a token such as
1_000, a malformed line) is read one line at a time with float()
(_parse_split_lines).

A parser reads and validates the whole file, however long. ``score``
parses and validates the whole recording too, but derives features only
for the first ``cutoff`` rows that its model reads (see cli.score_file).
"""

from __future__ import annotations

import io
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateEntry,
    EmptyFile,
    InvalidEntry,
    InvalidRange,
    MalformedLine,
    NonMonotonicTime,
    ParseError,
    read_bytes,
    write_text,
)
from .nn.fields import Field, check, check_value, declared, setting

PD = "PD"
HC = "HC"
LABELS = (PD, HC)
#: model target of each label: PD is the positive class
LABEL_TO_Y = {HC: 0, PD: 1}

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

#: the rows generate_synthetic checks its four arguments against, in order
SYNTHETIC_FIELDS = (
    Field("n_per_class", int, allowed="[1, inf)"),
    Field("length_range", list, allowed="[8, 1000000]", item=int, pair="<="),
    Field("class_separation", float, allowed="[0, 1]"),
    Field("seed", int, allowed="[0, inf)"),
)


@dataclass
class SignalSequence:
    """One task performance by one subject: named equal-length channels."""

    subject_id: str
    task_id: str
    label: str | None = setting(str, LABELS, null=True)
    channels: dict[str, np.ndarray]
    sample_rate_hz: float = setting(float, "(0, inf)", 200.0)

    def __post_init__(self):
        if not self.channels:
            raise ValueError("a SignalSequence needs at least one channel")
        lengths = {name: len(series) for name, series in self.channels.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"channel lengths differ: {lengths}")
        check(self)
        self.channels = {k: np.asarray(v, dtype=np.float64) for k, v in self.channels.items()}

    @property
    def length(self) -> int:
        return len(next(iter(self.channels.values())))

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
    """Recordings to load, each named by subject, task and label.

    Every split groups samples by subject and stratifies subjects by
    label, so an entry with an empty subject_id or task_id is an
    InvalidEntry; then a (subject, task) pair listed twice is a
    DuplicateEntry; then an entry that gives a subject a second label is
    an InvalidEntry naming the subject's first entry.
    """

    entries: list[ManifestEntry]
    format: str = setting(str, MANIFEST_FORMATS)

    def __post_init__(self):
        check(self)
        for i, e in enumerate(self.entries):
            if not e.subject_id or not e.task_id:
                raise InvalidEntry(i, "subject_id and task_id must not be empty")
        seen: set[tuple[str, str]] = set()
        for e in self.entries:
            key = (e.subject_id, e.task_id)
            if key in seen:
                raise DuplicateEntry(f"duplicate (subject, task) pair {key}")
            seen.add(key)
        first: dict[str, int] = {}
        for i, e in enumerate(self.entries):
            other = self.entries[first.setdefault(e.subject_id, i)]
            if other.label != e.label:
                raise InvalidEntry(i, f"subject {e.subject_id!r} is {e.label} here but "
                                      f"{other.label}", first[e.subject_id])


# ---------------------------------------------------------------------------
# parsing

def _read_text(path: str | Path) -> str:
    """The text of a recording, without a leading UTF-8 byte order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
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
    line number of each data row, worked out for a clean file only when
    asked for. A first line that does not match the arity is treated as a
    header and skipped with a warning; blank lines are ignored. Of a file's
    faults, a line of the wrong arity or with a token float() rejects comes
    first, then an EmptyFile, then a nan or infinite value, a MalformedLine
    naming its line.
    """
    text = _read_text(path)
    clean = _read_clean(text, arity, path)
    if clean is None:
        values, line_nos = _parse_split_lines(text.splitlines(), arity, path)
        return values, lambda: line_nos
    values, skipped = clean
    return values, lambda: _data_line_numbers(text)[skipped:]


def _read_clean(text: str, arity: int, path) -> tuple[np.ndarray, int] | None:
    """The values of `text` read by numpy's C reader and the number of
    header lines skipped (0 or 1), or None where that reading is refused
    or could differ from _parse_split_lines'. A body of integers is read
    as int64 (_read_integers), any other as float64, which converts a
    token as float() does.

    A header is line 1 as _parse_split_lines finds it: not blank and of
    another arity. It is skipped with the same warning, and the C reader
    reads the lines after it.

    Text that is not ASCII may hold line breaks of str.splitlines (U+0085,
    U+2028) that the C reader takes for field separators, or digits
    (U+0661) that float() takes and the C reader refuses; ASCII text may
    hold the line breaks of _SPLITLINES_ONLY_BREAKS. Such text is not read
    here, and neither is an empty or blank body, which the C reader would
    read as no data with a warning. The C reader refuses a wrong arity on
    any line and tokens such as 1_000 that float() takes. `text` comes
    from a universal-newlines read, so it holds no carriage return that
    the two readers could split differently.
    """
    if not text.isascii() or any(c in text for c in _SPLITLINES_ONLY_BREAKS):
        return None
    newline = text.find("\n")
    line_1 = text if newline < 0 else text[:newline]
    fields = len(line_1.split())
    skipped = int(fields not in (0, arity))
    body = text[len(line_1) + 1 :] if skipped else text
    if not body or body.isspace():
        return None
    values = _read_integers(body)
    if values is None:
        try:
            values = np.loadtxt(io.StringIO(body), dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            return None
        if not np.isfinite(values).all():
            return None
    if values.shape[1] != arity:
        return None
    if skipped:
        _warn_header(path, fields, arity)
    return values, skipped


def _read_integers(body: str) -> np.ndarray | None:
    """The values of `body` read by numpy's C reader as int64 and cast to
    float64, or None for a body that may hold a real or a -0 and for one
    with a token that reader refuses (one out of the int64 range included).

    The cast rounds to nearest, as float() does a decimal integer, so each
    value has float()'s bits; an integer is finite.

    numpy releases before 2 read a token the int64 reader refuses ("nan",
    "inf", an integer beyond the int64 range) through float and cast the
    result unchecked, with a DeprecationWarning. That warning is raised
    here as an error, so such a body is refused as numpy 2 refuses it.
    """
    # ".", "e" and "E" mark a real; float() reads "-0" as -0.0, an int64
    # read as 0. A one-character search is far faster, so "-" goes first.
    if any(c in body for c in ".eE") or ("-" in body and "-0" in body):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    return values.astype(np.float64)


def _warn_header(path, fields: int, arity: int) -> None:
    """Warn, at the parser's caller, that line 1 is skipped as a header."""
    warnings.warn(
        f"{path}: skipping line 1 ({fields} fields, expected {arity}); assumed to be a header",
        stacklevel=5,
    )


def _data_line_numbers(text: str) -> list[int]:
    """The 1-based line number of each non-blank line of a clean file."""
    return [n for n, line in enumerate(text.splitlines(), start=1) if line.split()]


def _parse_split_lines(
    lines: list[str], arity: int, path: str | Path
) -> tuple[np.ndarray, list[int]]:
    """_parse_numeric_lines for any file, one line at a time: the value
    matrix and the line number of each data row."""
    flat: list[float] = []
    line_nos: list[int] = []
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != arity:
            if line_no == 1:
                _warn_header(path, len(tokens), arity)
                continue
            raise MalformedLine(
                line_no, f"expected {arity} fields, got {len(tokens)}", path=str(path)
            )
        try:
            flat.extend(map(float, tokens))
        except ValueError as exc:
            raise MalformedLine(line_no, f"non-numeric field: {exc}", path=str(path)) from exc
        line_nos.append(line_no)
    if not line_nos:
        raise EmptyFile(path=str(path))
    values = np.array(flat, dtype=np.float64).reshape(-1, arity)
    # float() also reads nan, inf and out-of-range numbers such as 1e999
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise MalformedLine(
            line_nos[row], f"non-finite value in field {col + 1}", path=str(path)
        )
    return values, line_nos


def _sequence(path, names, values, sample_rate_hz, subject_id, task_id, label) -> SignalSequence:
    """The SignalSequence of a parsed file: channel names[i] is column i of
    `values`, a row of one transposed copy; the ids default to the file stem
    and "unknown"."""
    return SignalSequence(
        subject_id=subject_id or Path(path).stem,
        task_id=task_id or "unknown",
        label=label,
        channels=dict(zip(names, values.T.copy())),
        sample_rate_hz=sample_rate_hz,
    )


def parse_tablet_file(
    path: str | Path,
    sample_rate_hz: float = SignalSequence.sample_rate_hz,
    subject_id: str = "",
    task_id: str = "",
    label: str | None = None,
) -> SignalSequence:
    """Parse a 7-column tablet recording, columns in DEFAULT_TABLET_COLUMNS
    order, into a SignalSequence. The rate defaults to SignalSequence's own
    default (200 Hz)."""
    values, line_nos = _parse_numeric_lines(path, arity=7)
    columns = dict(zip(DEFAULT_TABLET_COLUMNS, values.T))

    button = columns["button"]
    bad_button = np.nonzero((button != 0.0) & (button != 1.0))[0]
    if bad_button.size:
        i = int(bad_button[0])
        raise MalformedLine(line_nos()[i], "button must be 0 or 1", path=str(path))
    bad_pressure = np.nonzero(columns["pressure"] < 0)[0]
    if bad_pressure.size:
        i = int(bad_pressure[0])
        raise MalformedLine(line_nos()[i], "pressure must be >= 0", path=str(path))
    ts = columns["timestamp"]
    decreasing = np.nonzero(ts[1:] < ts[:-1])[0]
    if decreasing.size:
        i = int(decreasing[0]) + 1
        raise NonMonotonicTime(line_nos()[i], path=str(path))

    return _sequence(
        path, DEFAULT_TABLET_COLUMNS, values, sample_rate_hz, subject_id, task_id, label
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
    return _sequence(path, SMARTPEN_CHANNELS, values, sample_rate_hz, subject_id, task_id, label)


def parse_recording(
    path: str | Path, format: str, sample_rate_hz: float | None = None, **ids
) -> SignalSequence:
    """Parse one recording stored in a manifest ``format``.

    Smart-pen files go to parse_smartpen_file, tablet and synthetic files
    to parse_tablet_file. ``sample_rate_hz`` None keeps that parser's
    nominal rate (100 Hz smart pen, 200 Hz tablet); ``ids`` (subject_id,
    task_id, label) pass through to it. A ``format`` that DatasetManifest's
    one row refuses is a ValueError.
    """
    check_value(declared(DatasetManifest)[0], format, ValueError)
    parse = parse_smartpen_file if format == "smartpen_channels" else parse_tablet_file
    if sample_rate_hz is not None:
        ids["sample_rate_hz"] = sample_rate_hz
    return parse(path, **ids)


# ---------------------------------------------------------------------------
# writing (round-trip counterpart of the tablet parser; used by `synth`)

def write_tablet_file(seq: SignalSequence, path: str | Path) -> None:
    """Write a tablet sequence as integer columns in DEFAULT_TABLET_COLUMNS
    order, each value rounded half to even. A non-finite value is an
    InvalidRange naming `path`, raised before the file is opened."""
    values = np.column_stack([seq.channels[name] for name in DEFAULT_TABLET_COLUMNS])
    if not np.isfinite(values).all():
        raise InvalidRange("a channel holds a non-finite value, which no integer column can",
                           path=str(path))
    # "%.0f" prints an integral float's exact digits, str(int(v)) for every
    # v; adding 0.0 turns the -0.0 of a value in (-0.5, 0) into 0
    line = " ".join(["%.0f"] * len(DEFAULT_TABLET_COLUMNS)) + "\n"
    write_text(path, line * len(values) % tuple((np.rint(values) + 0.0).ravel()))


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
    that its row of SYNTHETIC_FIELDS refuses is an InvalidRange.
    """
    n_subjects_per_class, (lo, hi), class_separation, seed = (
        check_value(f, v, InvalidRange) for f, v in
        zip(SYNTHETIC_FIELDS, (n_subjects_per_class, length_range, class_separation, seed)))

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

    A file that cannot be read is an IoError, one that is not UTF-8 or has
    a malformed row (a wrong column count, a label that is not PD or HC in
    any case) a ParseError, and one that lists a (subject, task) pair
    twice a DuplicateEntry; each names the manifest. A row that breaks
    DatasetManifest's other identity rules (an empty subject_id or
    task_id, a subject's second label) is a MalformedLine naming the row.
    A row is named by the physical line it starts on, so a quoted path
    holding a line break does not shift the rows after it. A UTF-8 byte
    order mark is dropped.
    """
    import csv  # here, not at the top: scoring reads no manifest

    try:
        text = read_bytes(path).decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    rows: list[tuple[int, list[str]]] = []  # each record and the line it starts on
    start = 1
    for record in reader:
        rows.append((start, record))
        start = reader.line_num + 1
    entries: list[ManifestEntry] = []
    if not rows:
        return DatasetManifest(entries=entries, format=format)
    if tuple(h.strip() for h in rows[0][1]) != MANIFEST_HEADER:
        raise ParseError(
            f"manifest header must be {','.join(MANIFEST_HEADER)}", path=str(path)
        )
    line_nos: list[int] = []
    for line_no, row in rows[1:]:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 4:
            raise MalformedLine(line_no, f"expected 4 columns, got {len(row)}", path=str(path))
        file_path, subject_id, task_id, label = (c.strip() for c in row)
        if label.upper() not in LABELS:
            raise MalformedLine(line_no, f"label must be PD or HC, got {label!r}", path=str(path))
        entries.append(ManifestEntry(file_path, subject_id, task_id, label.upper()))
        line_nos.append(line_no)
    try:
        return DatasetManifest(entries=entries, format=format)
    except DuplicateEntry as exc:
        raise DuplicateEntry(str(exc), path=str(path)) from exc
    except InvalidEntry as exc:
        other = "" if exc.other is None else f" on line {line_nos[exc.other]}"
        raise MalformedLine(line_nos[exc.index], exc.detail + other, path=str(path)) from exc


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write `manifest` as CSV with csv's ``\r\n`` row ends; a file that
    cannot be written is an IoError naming `path`."""
    import csv

    text = io.StringIO()
    csv.writer(text).writerows([MANIFEST_HEADER, *((e.path, e.subject_id, e.task_id, e.label)
                                                   for e in manifest.entries)])
    write_text(path, text.getvalue())


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
