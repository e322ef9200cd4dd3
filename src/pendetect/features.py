"""Derivation of dynamic handwriting features from raw pen channels.

Columns are organized in five groups:

* raw: the channels as acquired (for tablet data: x, y, pressure, tilt_x,
  tilt_y, button; smart-pen data exposes its six channels here instead).
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IoError, LengthMismatch, MissingChannel, NonFiniteFeatures, TooShort
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

    groups: tuple[str, ...]
    include_raw_pressure_in_derived: bool = False

    def __post_init__(self):
        if not self.groups:
            raise ValueError("selection must name at least one group")
        unknown = set(self.groups) - set(GROUPS)
        if unknown:
            raise ValueError(f"unknown feature groups {sorted(unknown)}")
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
        if not np.isfinite(self.values).all():
            bad = [
                self.column_names[j]
                for j in np.nonzero(~np.isfinite(self.values).all(axis=0))[0]
            ]
            raise NonFiniteFeatures(
                f"recording {(self.subject_id, self.task_id)}: non-finite values in columns {bad}"
            )

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_names.index(name)]


# ---------------------------------------------------------------------------
# elementary series

def displacement(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Straight-line distance between consecutive points; first entry 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch(f"x has shape {x.shape}, y has shape {y.shape}")
    if len(x) < 2:
        raise TooShort(f"need at least 2 points, got {len(x)}")
    out = np.zeros_like(x)
    out[1:] = np.hypot(np.diff(x), np.diff(y))
    return out


def directional_displacement(c: np.ndarray) -> np.ndarray:
    """Signed difference of one coordinate series; first entry 0."""
    c = np.asarray(c, dtype=np.float64)
    if len(c) < 2:
        raise TooShort(f"need at least 2 points, got {len(c)}")
    out = np.zeros_like(c)
    out[1:] = np.diff(c)
    return out


def time_derivative(s: np.ndarray, timestamps: np.ndarray, tick_seconds: float) -> np.ndarray:
    """Backward-difference time derivative; first entry 0.

    Each delta divides by the actual timestamp gap converted to seconds,
    floored at one tick so that repeated ticks cannot divide by zero.
    """
    s = np.asarray(s, dtype=np.float64)
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if s.shape != timestamps.shape:
        raise LengthMismatch(
            f"series has shape {s.shape}, timestamps have shape {timestamps.shape}"
        )
    if tick_seconds <= 0:
        raise ValueError("tick_seconds must be positive")
    out = np.zeros_like(s)
    if len(s) > 1:
        dt = np.maximum(np.diff(timestamps) * tick_seconds, tick_seconds)
        out[1:] = np.diff(s) / dt
    return out


# ---------------------------------------------------------------------------
# assembly

def _tablet_columns(seq: SignalSequence) -> dict[str, np.ndarray]:
    """Every tablet column by name: the channels, the pressure derivative and
    the four kinematic ladders."""
    ts = seq.channels["timestamp"]
    tick_seconds = 1.0 / seq.sample_rate_hz
    x, y = seq.channels["x"], seq.channels["y"]
    cols = dict(seq.channels)
    cols["pressure_derivative"] = time_derivative(cols["pressure"], ts, tick_seconds)
    ladders = {
        "": displacement(x, y),
        "horizontal_": directional_displacement(x),
        "vertical_": directional_displacement(y),
    }
    for prefix, series in ladders.items():
        cols[prefix + "displacement"] = series
        for quantity in ("velocity", "acceleration", "jerk"):
            series = time_derivative(series, ts, tick_seconds)
            cols[prefix + quantity] = series
    for quantity in ("displacement", "velocity", "acceleration", "jerk"):
        cols["resultant_" + quantity] = np.hypot(
            cols["horizontal_" + quantity], cols["vertical_" + quantity]
        )
    return cols


def assemble_features(seq: SignalSequence, selection: FeatureGroupSelection) -> FeatureMatrix:
    """Build the FeatureMatrix for the selected groups.

    Selected groups are laid out in canonical order (raw, inclination,
    pressure, kinematic, derived); a column name already emitted by an
    earlier group is not repeated.

    Timestamps count samples: one tick is one nominal sample interval,
    ``1 / seq.sample_rate_hz`` seconds.
    """
    if seq.is_smartpen() and not seq.is_tablet():
        if selection.groups != ("raw",):
            needed = set(selection.groups) - {"raw"}
            if needed & {"kinematic", "derived"}:
                raise MissingChannel("x")
            raise MissingChannel("pressure" if "pressure" in needed else "tilt_x")
        if seq.length < 2:
            raise TooShort(f"need at least 2 time-steps, got {seq.length}")
        values = np.column_stack([seq.channels[name] for name in SMARTPEN_CHANNELS])
        return FeatureMatrix(
            values=values,
            column_names=list(SMARTPEN_CHANNELS),
            column_groups=["raw"] * len(SMARTPEN_CHANNELS),
            label=seq.label,
            subject_id=seq.subject_id,
            task_id=seq.task_id,
        )

    group_columns = dict(_GROUP_COLUMNS)
    if selection.include_raw_pressure_in_derived:
        group_columns["derived"] = KINEMATIC_COLUMNS + ("pressure", "pressure_derivative")

    names: list[str] = []
    tags: list[str] = []
    for group in selection.groups:
        for name in group_columns[group]:
            if name not in names:
                names.append(name)
                tags.append(group)

    # any group with derived columns needs the whole tablet channel set
    # (timestamps included); a pure raw selection needs only the raw channels
    if selection.groups == ("raw",):
        required = set(RAW_COLUMNS)
    else:
        required = set(RAW_COLUMNS) | {"timestamp"}
    for channel in sorted(required):
        if channel not in seq.channels:
            raise MissingChannel(channel)

    if seq.length < 2:
        raise TooShort(f"need at least 2 time-steps, got {seq.length}")
    if any(n.endswith("jerk") for n in names) and seq.length < MIN_LENGTH:
        raise TooShort(f"jerk needs at least {MIN_LENGTH} time-steps, got {seq.length}")

    with np.errstate(all="ignore"):  # FeatureMatrix names the inf or nan of an overflow
        cols = seq.channels if selection.groups == ("raw",) else _tablet_columns(seq)
    values = np.column_stack([cols[name] for name in names])
    return FeatureMatrix(
        values=values,
        column_names=names,
        column_groups=tags,
        label=seq.label,
        subject_id=seq.subject_id,
        task_id=seq.task_id,
    )


def dump_csv(fm: FeatureMatrix, path) -> None:
    """Write the matrix as CSV; floats use shortest round-trip decimals."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(fm.column_names) + "\n")
            for row in fm.values:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    except OSError as exc:
        raise IoError(str(exc), path=str(path)) from exc
