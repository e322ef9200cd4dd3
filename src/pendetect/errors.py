"""Exception types shared across the package, and the one place where an
artifact file is read (``read_bytes``, or ``read_decoded``, which
decodes it once per file content) or written (``write_text``), so that
every such failure is an IoError naming the file. That place is here
because every module imports ``errors``, and ``nn`` imports nothing else
of the package; this module imports only the standard library.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path
from typing import Any


class PenDetectError(Exception):
    """Base class for all errors raised by this package.

    A ``path``, when given, names the offending file and prefixes the message.
    """

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(message if path is None else f"{path}: {message}")


class ConfigError(PenDetectError):
    """Invalid or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# parsing / dataset assembly

class ParseError(PenDetectError):
    """Base class for file parsing failures."""


class MalformedLine(ParseError):
    def __init__(self, line_no: int, detail: str, path: str | None = None):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}", path)


class EmptyFile(ParseError):
    def __init__(self, path: str | None = None):
        super().__init__("no data lines", path)


class NonMonotonicTime(ParseError):
    def __init__(self, line_no: int, path: str | None = None):
        self.line_no = line_no
        super().__init__(f"line {line_no}: timestamp decreases", path)


class DataError(PenDetectError):
    """Dataset-level problem (labels, duplicates, sizes)."""


class DuplicateEntry(DataError):
    pass


class InvalidEntry(DataError):
    """A manifest entry that breaks an identity rule. ``index`` is its
    position among the entries, and ``other``, when the rule is broken
    against an earlier entry, that entry's."""

    def __init__(self, index: int, detail: str, other: int | None = None):
        self.index = index
        self.detail = detail
        self.other = other
        where = "" if other is None else f" in entry {other}"
        super().__init__(f"entry {index}: {detail}{where}")


class InvalidRange(DataError):
    pass


class EmptyDataset(DataError):
    pass


class NonFiniteFeatures(DataError):
    """A recording's features hold inf or nan; the message names the recording."""


class SingleClass(DataError):
    pass


class TooSmall(DataError):
    pass


# ---------------------------------------------------------------------------
# shape / contract violations inside the numeric pipeline

class ShapeError(PenDetectError):
    pass


class LengthMismatch(ShapeError):
    pass


class TooShort(ShapeError):
    pass


class MissingChannel(ShapeError):
    def __init__(self, name: str, recording: tuple[str, str]):
        self.channel = name
        super().__init__(f"recording {recording}: required channel {name!r} is not present")


class ColumnMismatch(ShapeError):
    pass


class DimensionMismatch(ShapeError):
    pass


class InputTooShort(ShapeError):
    pass


# ---------------------------------------------------------------------------
# training / checkpoints

class TrainingError(PenDetectError):
    pass


class NonFiniteGradient(TrainingError):
    def __init__(self, layer: str, block: str, batch_ids: list[str]):
        self.layer = layer
        self.block = block
        self.batch_ids = batch_ids
        super().__init__(
            f"non-finite gradient in layer {layer!r}, parameter block {block!r}, "
            f"batch samples {batch_ids}"
        )


class SpecMismatch(PenDetectError):
    """Checkpoint does not match the model spec it is being loaded into."""


class IoError(PenDetectError):
    """Reading or writing an artifact file failed."""


def read_bytes(path: str | Path) -> bytes:
    """The bytes of the file at `path`. A file that cannot be read, a
    name with a NUL in it included, is an IoError naming `path`."""
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        raise IoError(str(exc), path=str(path)) from exc


# artifact kind -> (bytes, decoded value) of the last file of that kind that decoded
_decoded: dict[str, tuple[bytes, Any]] = {}


def read_decoded(kind: str, path: str | Path, decode: Callable[[bytes, str | Path], Any]) -> Any:
    """``decode(raw, path)`` of the bytes `raw` of the file at `path`, read
    on every call. The last file of each `kind` that decoded is kept: on
    equal bytes `decode` is skipped and every caller gets the same kept
    value. Kinds keep separate slots, so one never evicts another."""
    raw = read_bytes(path)
    last = _decoded.get(kind)  # one read: another thread may replace the entry
    if last is None or last[0] != raw:
        last = _decoded[kind] = (raw, decode(raw, path))
    return last[1]


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` as UTF-8. A file that cannot be written, a
    name with a NUL in it included, is an IoError naming `path`."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        raise IoError(str(exc), path=str(path)) from exc
