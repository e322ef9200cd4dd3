"""Exception types shared across the package."""

from __future__ import annotations


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
    def __init__(self, name: str):
        self.channel = name
        super().__init__(f"required channel {name!r} is not present")


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
