"""The column-by-column feature derivation that features._derive replaced,
kept as an oracle: one ladder and one derivative order at a time, each
column its own array, stacked by np.column_stack. tests/test_features.py
checks that assemble_features gives these values to the bit and these
column names, for every group selection, and pins the elementary series
(displacement, directional_displacement) to hand-computed values.
"""

from __future__ import annotations

import numpy as np

from pendetect.errors import LengthMismatch, TooShort
from pendetect.features import (
    DERIVED_COLUMNS,
    INCLINATION_COLUMNS,
    KINEMATIC_COLUMNS,
    PRESSURE_COLUMNS,
    RAW_COLUMNS,
)
from pendetect.signal_io import SignalSequence


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


def _gaps(timestamps: np.ndarray, tick_seconds: float) -> np.ndarray:
    """Each timestamp gap in seconds, floored at one tick."""
    return np.maximum((timestamps[1:] - timestamps[:-1]) * tick_seconds, tick_seconds)


def _rate(s: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Backward-difference time derivative of the float64 series `s` over
    the `gaps` of its timestamps, first entry 0 (np.diff's subtraction,
    without its per-call overhead)."""
    out = np.empty_like(s)
    out[:1] = 0.0
    np.subtract(s[1:], s[:-1], out=out[1:])
    out[1:] /= gaps
    return out


def _tablet_columns(seq: SignalSequence) -> dict[str, np.ndarray]:
    """Every tablet column by name: the channels, the pressure derivative and
    the four kinematic ladders."""
    gaps = _gaps(seq.channels["timestamp"], 1.0 / seq.sample_rate_hz)
    x, y = seq.channels["x"], seq.channels["y"]
    cols = dict(seq.channels)
    cols["pressure_derivative"] = _rate(cols["pressure"], gaps)
    ladders = {
        "": displacement(x, y),
        "horizontal_": directional_displacement(x),
        "vertical_": directional_displacement(y),
    }
    for prefix, series in ladders.items():
        cols[prefix + "displacement"] = series
        for quantity in ("velocity", "acceleration", "jerk"):
            series = _rate(series, gaps)
            cols[prefix + quantity] = series
    for quantity in ("displacement", "velocity", "acceleration", "jerk"):
        cols["resultant_" + quantity] = np.hypot(
            cols["horizontal_" + quantity], cols["vertical_" + quantity]
        )
    return cols


def reference_features(seq: SignalSequence, selection) -> tuple[np.ndarray, list[str], list[str]]:
    """The (values, column names, group tags) that assemble_features gave a
    tablet sequence fit for `selection` before the block derivation."""
    group_columns = {
        "raw": RAW_COLUMNS,
        "inclination": INCLINATION_COLUMNS,
        "pressure": PRESSURE_COLUMNS,
        "kinematic": KINEMATIC_COLUMNS,
        "derived": DERIVED_COLUMNS,
    }
    if selection.include_raw_pressure_in_derived:
        group_columns["derived"] = KINEMATIC_COLUMNS + ("pressure", "pressure_derivative")
    names: list[str] = []
    tags: list[str] = []
    for group in selection.groups:
        for name in group_columns[group]:
            if name not in names:
                names.append(name)
                tags.append(group)
    with np.errstate(all="ignore"):
        cols = seq.channels if selection.groups == ("raw",) else _tablet_columns(seq)
    return np.column_stack([cols[name] for name in names]), names, tags
