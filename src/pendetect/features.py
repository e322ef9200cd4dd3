"""Derivation of dynamic handwriting features from raw pen channels.

Columns are organized in five groups:

* raw: the channels as acquired (for tablet data: x, y, pressure, tilt_x,
  tilt_y, button; a smart-pen recording, one holding SMARTPEN_CHANNELS,
  exposes its six channels here instead).
* inclination: the two tilt channels.
* pressure: raw pressure and its first time derivative.
* kinematic: displacement and its first three time derivatives, in four
  directional ladders (tangential, horizontal, vertical, resultant), 16
  columns total.
* derived: kinematic plus the pressure derivative, 17 columns.

The resultant ladder is the magnitude of the (horizontal, vertical)
component pair at each derivative order. At order zero it coincides with
tangential displacement by the Pythagorean identity; at higher orders the
two ladders genuinely differ, because differentiating the unsigned
tangential series is not the same as taking the magnitude of the
differentiated components.

All difference and derivative series put 0 in their first entry so that
every column keeps the input length.

Each column reads channels of the recording: a channel column (raw,
inclination, raw pressure) reads its own channel, and every derived
column (kinematic, pressure derivative) reads x, y, timestamp and
pressure, as _derive does. A selection is refused for the first channel,
in column order, that a column reads and the recording lacks. So a
smart-pen recording gives only its raw group, and a tablet recording
without tilt or button channels still gives every group that does not
select them.

A recording's 17 derived columns are computed together in one
(17, T) block (_derive): the tangential, horizontal and vertical ladders
advance one derivative order per pass, and the resultant ladder is one
hypot call. Each value goes through the same IEEE operations as the
column-by-column definitions (the hypot or the signed difference of
consecutive points, then a backward-difference derivative per order), so
it has their bits; tests/reference_features.py keeps that derivation as
the oracle. The selected columns are gathered from the block into a
C-ordered (T, m) matrix in one take.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, MissingChannel, NonFiniteFeatures, TooShort, write_text
from .nn.fields import check, setting
from .signal_io import SMARTPEN_CHANNELS, SignalSequence

GROUPS = ("raw", "inclination", "pressure", "kinematic", "derived")

RAW_COLUMNS = ("x", "y", "pressure", "tilt_x", "tilt_y", "button")
INCLINATION_COLUMNS = ("tilt_x", "tilt_y")
PRESSURE_COLUMNS = ("pressure", "pressure_derivative")
KINEMATIC_COLUMNS = (
    "displacement",
    "velocity",
    "acceleration",
    "jerk",
    "horizontal_displacement",
    "horizontal_velocity",
    "horizontal_acceleration",
    "horizontal_jerk",
    "vertical_displacement",
    "vertical_velocity",
    "vertical_acceleration",
    "vertical_jerk",
    "resultant_displacement",
    "resultant_velocity",
    "resultant_acceleration",
    "resultant_jerk",
)
DERIVED_COLUMNS = KINEMATIC_COLUMNS + ("pressure_derivative",)

#: the fewest time-steps that every selection accepts: jerk needs four
MIN_LENGTH = 4

_GROUP_COLUMNS = {
    "raw": RAW_COLUMNS,
    "inclination": INCLINATION_COLUMNS,
    "pressure": PRESSURE_COLUMNS,
    "kinematic": KINEMATIC_COLUMNS,
    "derived": DERIVED_COLUMNS,
}


@dataclass(frozen=True)
class FeatureGroupSelection:
    """Non-empty subset of feature groups, kept in canonical order.

    ``include_raw_pressure_in_derived`` widens the derived group with the
    raw pressure column (a sensitivity-analysis switch, off by default).
    """

    groups: tuple[str, ...] = setting(list, GROUPS, item=str, config=("derived",))
    include_raw_pressure_in_derived: bool = setting(bool, default=False)

    def __post_init__(self):
        check(self)
        ordered = tuple(g for g in GROUPS if g in self.groups)
        object.__setattr__(self, "groups", ordered)

    @classmethod
    def of(cls, *groups: str) -> "FeatureGroupSelection":
        return cls(tuple(groups))


@dataclass
class FeatureMatrix:
    """T×m feature matrix with per-column names and group tags."""

    values: np.ndarray
    column_names: list[str]
    column_groups: list[str]
    label: str | None
    subject_id: str
    task_id: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-d, got shape {self.values.shape}")
        m = self.values.shape[1]
        if len(self.column_names) != m or len(self.column_groups) != m:
            raise LengthMismatch(
                f"{m} columns but {len(self.column_names)} names, "
                f"{len(self.column_groups)} group tags"
            )
        check_finite(self.values, self.column_names, self.subject_id, self.task_id)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_names.index(name)]


def check_finite(values: np.ndarray, column_names, subject_id: str, task_id: str) -> None:
    """Raise NonFiniteFeatures naming the recording and the columns where
    its (T, m) `values` hold inf or nan."""
    if not np.isfinite(values).all():
        bad = [column_names[j] for j in np.nonzero(~np.isfinite(values).all(axis=0))[0]]
        raise NonFiniteFeatures(
            f"recording {(subject_id, task_id)}: non-finite values in columns {bad}"
        )


# ---------------------------------------------------------------------------
# elementary series

def _gaps(timestamps: np.ndarray, tick_seconds: float) -> np.ndarray:
    """Each timestamp gap in seconds, floored at one tick."""
    return np.maximum((timestamps[1:] - timestamps[:-1]) * tick_seconds, tick_seconds)


def _rate(s: np.ndarray, gaps: np.ndarray, out: np.ndarray) -> None:
    """Write into `out` the backward-difference time derivative of the
    float64 series `s` (one series per row when 2-d) over the `gaps` of its
    timestamps, first entry 0 (np.diff's subtraction, without its per-call
    overhead)."""
    out[..., :1] = 0.0
    np.subtract(s[..., 1:], s[..., :-1], out=out[..., 1:])
    out[..., 1:] /= gaps


# ---------------------------------------------------------------------------
# assembly

#: row of each derived column in the block _column_values derives, in
#: DERIVED_COLUMNS order: four ladders of four rows (displacement and its
#: three time derivatives), then the pressure derivative
_DERIVED_ROWS = {name: i for i, name in enumerate(DERIVED_COLUMNS)}

#: the channels _derive reads, and so every derived column, in the order
#: a missing one is named
_DERIVE_READS = ("x", "y", "timestamp", "pressure")


def _derive(block: np.ndarray, seq: SignalSequence) -> None:
    """Fill the (17, T) `block` with the derived columns of `seq`, rows in
    DERIVED_COLUMNS order.

    The tangential, horizontal and vertical ladders advance together, one
    derivative order per pass over three strided rows, and the resultant
    ladder is one hypot of the horizontal and vertical ladders. Every
    element goes through the IEEE operations of the column-by-column
    definitions (see the module docstring), so it keeps their bits.
    """
    gaps = _gaps(seq.channels["timestamp"], 1.0 / seq.sample_rate_hz)
    ladders = block[:12].reshape(3, 4, -1)  # tangential, horizontal, vertical
    for ladder, name in ((1, "x"), (2, "y")):
        c = seq.channels[name]
        ladders[ladder, 0, 0] = 0.0
        np.subtract(c[1:], c[:-1], out=ladders[ladder, 0, 1:])
    np.hypot(ladders[1, 0], ladders[2, 0], out=ladders[0, 0])
    for order in range(3):
        _rate(ladders[:, order], gaps, out=ladders[:, order + 1])
    np.hypot(ladders[1], ladders[2], out=block[12:16])
    _rate(seq.channels["pressure"], gaps, out=block[16])


def _column_values(seq: SignalSequence, names: list[str]) -> np.ndarray:
    """The C-ordered (T, m) matrix of the columns `names`: a channel as
    acquired, a derived column as _derive gives it. The columns are
    gathered in one take from a block of the derived rows (filled only
    when one is named) and the named channels'."""
    channels = [name for name in names if name not in _DERIVED_ROWS]
    block = np.empty((len(_DERIVED_ROWS) + len(channels), seq.length))
    rows = dict(_DERIVED_ROWS)
    for row, name in enumerate(channels, start=len(_DERIVED_ROWS)):
        block[row] = seq.channels[name]
        rows[name] = row
    if len(channels) < len(names):
        with np.errstate(all="ignore"):  # FeatureMatrix names the inf or nan of an overflow
            _derive(block[: len(_DERIVED_ROWS)], seq)
    return np.ascontiguousarray(block.take([rows[name] for name in names], axis=0).T)


def assemble_features(seq: SignalSequence, selection: FeatureGroupSelection) -> FeatureMatrix:
    """Build the FeatureMatrix for the selected groups.

    Selected groups are laid out in canonical order (raw, inclination,
    pressure, kinematic, derived); a column name already emitted by an
    earlier group is not repeated. The raw group is the recording's
    acquired channels: SMARTPEN_CHANNELS for a smart-pen recording,
    RAW_COLUMNS for any other.

    Timestamps count samples: one tick is one nominal sample interval,
    ``1 / seq.sample_rate_hz`` seconds. A channel that a selected column
    reads (see the module docstring) and the recording lacks, the first
    in column order, or too few time-steps, is refused with the recording
    named, as a non-finite value is.
    """
    recording = (seq.subject_id, seq.task_id)
    group_columns = dict(_GROUP_COLUMNS)
    if seq.is_smartpen():
        group_columns["raw"] = SMARTPEN_CHANNELS
    if selection.include_raw_pressure_in_derived:
        group_columns["derived"] = KINEMATIC_COLUMNS + ("pressure", "pressure_derivative")

    names: list[str] = []
    tags: list[str] = []
    for group in selection.groups:
        for name in group_columns[group]:
            if name not in names:
                names.append(name)
                tags.append(group)

    for name in names:
        for channel in _DERIVE_READS if name in _DERIVED_ROWS else (name,):
            if channel not in seq.channels:
                raise MissingChannel(channel, recording)

    if seq.length < 2:
        raise TooShort(f"recording {recording}: need at least 2 time-steps, got {seq.length}")
    if any(n.endswith("jerk") for n in names) and seq.length < MIN_LENGTH:
        raise TooShort(
            f"recording {recording}: jerk needs at least {MIN_LENGTH} time-steps, "
            f"got {seq.length}"
        )

    return FeatureMatrix(
        values=_column_values(seq, names),
        column_names=names,
        column_groups=tags,
        label=seq.label,
        subject_id=seq.subject_id,
        task_id=seq.task_id,
    )


def dump_csv(fm: FeatureMatrix, path) -> None:
    """Write the matrix as CSV; floats use shortest round-trip decimals."""
    lines = [",".join(fm.column_names)]
    lines += [",".join(repr(float(v)) for v in row) for row in fm.values]
    write_text(path, "\n".join(lines) + "\n")
