import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pendetect.errors import LengthMismatch, MissingChannel, NonFiniteFeatures, TooShort
from pendetect.features import (
    DERIVED_COLUMNS,
    GROUPS,
    INCLINATION_COLUMNS,
    KINEMATIC_COLUMNS,
    PRESSURE_COLUMNS,
    RAW_COLUMNS,
    FeatureGroupSelection,
    FeatureMatrix,
    _column_values,
    assemble_features,
    dump_csv,
)
from pendetect.signal_io import SMARTPEN_CHANNELS, SignalSequence, generate_synthetic
from reference_features import directional_displacement, displacement, reference_features


def _tablet_sequence(x, y, timestamp=None, pressure=None, label=None, rate=200.0):
    n = len(x)
    channels = {
        "x": np.asarray(x, dtype=np.float64),
        "y": np.asarray(y, dtype=np.float64),
        "timestamp": np.arange(n, dtype=np.float64) if timestamp is None else np.asarray(timestamp, dtype=np.float64),
        "pressure": np.full(n, 500.0) if pressure is None else np.asarray(pressure, dtype=np.float64),
        "tilt_x": np.full(n, 300.0),
        "tilt_y": np.full(n, 400.0),
        "button": np.ones(n),
    }
    return SignalSequence("s", "t", label, channels, sample_rate_hz=rate)


# ---------------------------------------------------------------------------
# displacement, as the column-by-column oracle of reference_features takes it

def test_displacement_3_4_5_triangle():
    np.testing.assert_array_equal(displacement([0, 3], [0, 4]), [0.0, 5.0])


def test_displacement_stationary_pen():
    np.testing.assert_array_equal(displacement([7.0] * 10, [2.0] * 10), np.zeros(10))


def test_displacement_matches_pairwise_oracle():
    rng = np.random.default_rng(42)
    x = rng.integers(-5000, 5000, 50).astype(float)
    y = rng.integers(-5000, 5000, 50).astype(float)
    oracle = [0.0]
    for i in range(1, 50):
        oracle.append(math.sqrt((x[i] - x[i - 1]) ** 2 + (y[i] - y[i - 1]) ** 2))
    np.testing.assert_allclose(displacement(x, y), oracle, rtol=1e-12, atol=0)


def test_displacement_errors():
    with pytest.raises(LengthMismatch):
        displacement([0, 1, 2], [0, 1])
    with pytest.raises(TooShort):
        displacement([0], [0])


# ---------------------------------------------------------------------------
# directional displacement

def test_directional_displacement_constant():
    np.testing.assert_array_equal(
        directional_displacement([5, 5, 5]), [0.0, 0.0, 0.0]
    )


def test_directional_displacement_signed():
    np.testing.assert_array_equal(
        directional_displacement([0, 2, 1]), [0.0, 2.0, -1.0]
    )


def test_directional_matches_displacement_when_other_axis_flat():
    rng = np.random.default_rng(3)
    c = rng.integers(-100, 100, 30).astype(float)
    zeros = np.zeros(30)
    np.testing.assert_array_equal(
        np.abs(directional_displacement(c)), displacement(c, zeros)
    )


def test_directional_displacement_errors():
    with pytest.raises(TooShort):
        directional_displacement([0])


# ---------------------------------------------------------------------------
# time derivative, as the assembled rate columns take it

def _rates(x, y, timestamps, rate=200.0):
    """The velocity, acceleration and jerk columns assembled from x, y and
    `timestamps` at `rate` Hz."""
    fm = assemble_features(_tablet_sequence(x, y, timestamp=timestamps, rate=rate),
                           FeatureGroupSelection.of("kinematic"))
    return [fm.column(q) for q in ("velocity", "acceleration", "jerk")]


def test_time_derivative_at_200hz():
    # steps of 1, 2 and 3: the displacement series is 0, 1, 2, 3
    velocity = _rates([0, 1, 3, 6], [0, 0, 0, 0], [0, 1, 2, 3])[0]
    np.testing.assert_array_equal(velocity, [0.0, 200.0, 200.0, 200.0])


def test_time_derivative_constant_series():
    velocity = _rates(np.full(8, 3.5), np.full(8, -1.0), np.arange(8))[0]
    np.testing.assert_array_equal(velocity, np.zeros(8))


def test_time_derivative_floors_repeated_ticks():
    # two samples share a tick; the delta is floored at one nominal interval
    velocity = _rates([0, 1, 3, 6], [0, 0, 0, 0], [0, 0, 1, 2], rate=100.0)[0]
    np.testing.assert_array_equal(velocity, [0.0, 100.0, 100.0, 100.0])
    assert np.isfinite(velocity).all()


def test_triple_derivative_matches_finite_difference_oracle():
    rng = np.random.default_rng(9)
    n = 40
    x = rng.integers(-2000, 2000, n).astype(float)
    y = rng.integers(-2000, 2000, n).astype(float)
    ts = np.cumsum(rng.integers(1, 4, n)).astype(float)
    tick = 0.005

    v, a, j = _rates(x, y, ts, rate=1 / tick)

    # independently coded chain, plain python loops
    od = [0.0] + [
        math.sqrt((x[i] - x[i - 1]) ** 2 + (y[i] - y[i - 1]) ** 2) for i in range(1, n)
    ]

    def oracle_derivative(series):
        out = [0.0]
        for i in range(1, n):
            dt = max((ts[i] - ts[i - 1]) * tick, tick)
            out.append((series[i] - series[i - 1]) / dt)
        return out

    ov = oracle_derivative(od)
    oa = oracle_derivative(ov)
    oj = oracle_derivative(oa)
    np.testing.assert_allclose(v, ov, rtol=1e-12)
    np.testing.assert_allclose(a, oa, rtol=1e-11)
    np.testing.assert_allclose(j, oj, rtol=1e-10)


# ---------------------------------------------------------------------------
# group selection and assembly

def test_selection_validation():
    with pytest.raises(ValueError):
        FeatureGroupSelection(())
    with pytest.raises(ValueError):
        FeatureGroupSelection(("raw", "bogus"))
    sel = FeatureGroupSelection(("derived", "raw"))
    assert sel.groups == ("raw", "derived")


def test_group_column_counts():
    assert len(RAW_COLUMNS) == 6
    assert len(INCLINATION_COLUMNS) == 2
    assert len(PRESSURE_COLUMNS) == 2
    assert len(KINEMATIC_COLUMNS) == 16
    assert len(DERIVED_COLUMNS) == 17


def test_assemble_raw_group():
    seq = generate_synthetic(1, (30, 30), 0.5, seed=2)[0]
    fm = assemble_features(seq, FeatureGroupSelection.of("raw"))
    assert fm.m == 6
    assert fm.column_names == list(RAW_COLUMNS)
    assert fm.column_groups == ["raw"] * 6
    assert fm.length == 30
    np.testing.assert_array_equal(fm.column("x"), seq.channels["x"])


def test_assemble_kinematic_group():
    seq = generate_synthetic(1, (30, 30), 0.5, seed=2)[0]
    fm = assemble_features(seq, FeatureGroupSelection.of("kinematic"))
    assert fm.m == 16
    assert fm.column_names == list(KINEMATIC_COLUMNS)
    assert set(fm.column_groups) == {"kinematic"}


def test_assemble_derived_group_is_kinematic_plus_pressure_derivative():
    seq = generate_synthetic(1, (30, 30), 0.5, seed=2)[0]
    fm = assemble_features(seq, FeatureGroupSelection.of("derived"))
    assert fm.m == 17
    assert fm.column_names == list(KINEMATIC_COLUMNS) + ["pressure_derivative"]
    kin = assemble_features(seq, FeatureGroupSelection.of("kinematic"))
    np.testing.assert_array_equal(fm.values[:, :16], kin.values)


def test_assemble_all_groups_deduplicates():
    seq = generate_synthetic(1, (30, 30), 0.5, seed=2)[0]
    fm = assemble_features(
        seq, FeatureGroupSelection.of("raw", "inclination", "pressure", "kinematic", "derived")
    )
    # raw 6, inclination duplicated, pressure adds 1, kinematic 16, derived dup
    assert fm.m == 6 + 0 + 1 + 16 + 0
    assert len(set(fm.column_names)) == fm.m
    # first group claiming a column keeps it
    assert fm.column_groups[fm.column_names.index("tilt_x")] == "raw"
    assert fm.column_groups[fm.column_names.index("pressure_derivative")] == "pressure"


def test_assemble_derived_with_raw_pressure_override():
    seq = generate_synthetic(1, (30, 30), 0.5, seed=2)[0]
    fm = assemble_features(
        seq, FeatureGroupSelection(("derived",), include_raw_pressure_in_derived=True)
    )
    assert fm.m == 18
    assert "pressure" in fm.column_names


def test_assemble_constant_sequence_derived_all_zero():
    n = 12
    seq = _tablet_sequence([5] * n, [9] * n, pressure=[700] * n)
    fm = assemble_features(seq, FeatureGroupSelection.of("derived"))
    assert fm.m == 17
    np.testing.assert_array_equal(fm.values, np.zeros((n, 17)))


def test_assemble_first_row_of_derived_is_zero():
    seq = generate_synthetic(1, (25, 25), 1.0, seed=8)[0]
    fm = assemble_features(seq, FeatureGroupSelection.of("derived"))
    np.testing.assert_array_equal(fm.values[0], np.zeros(17))


def test_resultant_ladder_identity_and_divergence():
    seq = generate_synthetic(1, (40, 40), 1.0, seed=4)[0]
    fm = assemble_features(seq, FeatureGroupSelection.of("kinematic"))
    # order zero: the resultant of the component pair is the displacement
    np.testing.assert_array_equal(
        fm.column("resultant_displacement"), fm.column("displacement")
    )
    # higher orders differ: |.| and d/dt do not commute
    assert not np.allclose(fm.column("resultant_acceleration"), fm.column("acceleration"))
    # the resultant ladder is non-negative by construction
    for q in ("displacement", "velocity", "acceleration", "jerk"):
        assert (fm.column(f"resultant_{q}") >= 0).all()


def test_assemble_too_short():
    seq = _tablet_sequence([0, 1, 2], [0, 1, 2])
    with pytest.raises(TooShort):
        assemble_features(seq, FeatureGroupSelection.of("kinematic"))  # jerk needs 4
    fm = assemble_features(seq, FeatureGroupSelection.of("pressure"))
    assert fm.length == 3  # no jerk involved, 3 steps suffice
    one = _tablet_sequence([0], [0])
    with pytest.raises(TooShort):
        assemble_features(one, FeatureGroupSelection.of("raw"))


def test_assemble_missing_channel():
    seq = _tablet_sequence(np.arange(10), np.arange(10))
    del seq.channels["tilt_y"]
    with pytest.raises(MissingChannel) as exc:
        assemble_features(seq, FeatureGroupSelection.of("raw"))
    assert exc.value.channel == "tilt_y"


def _smartpen_sequence(n=10, seed=3):
    rng = np.random.default_rng(seed)
    channels = dict(zip(SMARTPEN_CHANNELS, rng.normal(0.0, 100.0, (len(SMARTPEN_CHANNELS), n))))
    return SignalSequence("s", "t", "PD", channels, sample_rate_hz=100.0)


def test_smartpen_raw_only():
    seq = _smartpen_sequence()
    fm = assemble_features(seq, FeatureGroupSelection.of("raw"))
    assert fm.m == 6
    assert fm.column_names == list(SMARTPEN_CHANNELS)
    assert fm.column_groups == ["raw"] * 6


def test_smartpen_raw_matrix_is_its_channels_byte_for_byte():
    seq = _smartpen_sequence(n=257)
    fm = assemble_features(seq, FeatureGroupSelection.of("raw"))
    want = np.column_stack([seq.channels[name] for name in SMARTPEN_CHANNELS])
    assert fm.values.flags.c_contiguous
    assert fm.values.dtype == want.dtype and fm.values.shape == want.shape
    assert fm.values.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "groups, channel",
    [
        (("inclination",), "tilt_x"),
        (("pressure",), "pressure"),
        (("kinematic",), "x"),
        (("derived",), "x"),
        (("raw", "derived"), "x"),
        # several groups: the first column in canonical order that reads a missing channel
        (("inclination", "pressure"), "tilt_x"),
        (("pressure", "kinematic"), "pressure"),
    ],
)
def test_smartpen_missing_channel_of_each_group(groups, channel):
    with pytest.raises(MissingChannel) as exc:
        assemble_features(_smartpen_sequence(), FeatureGroupSelection.of(*groups))
    assert exc.value.channel == channel


def test_tablet_without_tilt_gives_the_groups_that_do_not_read_it():
    full = _tablet_sequence(np.arange(10) ** 2, np.arange(10) * 3)
    seq = _tablet_sequence(np.arange(10) ** 2, np.arange(10) * 3)
    del seq.channels["tilt_x"], seq.channels["tilt_y"], seq.channels["button"]
    for groups in (("kinematic",), ("pressure",), ("derived",), ("pressure", "derived")):
        selection = FeatureGroupSelection.of(*groups)
        got, want = assemble_features(seq, selection), assemble_features(full, selection)
        assert got.column_names == want.column_names
        assert got.values.tobytes() == want.values.tobytes()
    # raw reads tilt_x before button, so tilt_x is named (not "button", first alphabetically)
    for groups in (("raw",), ("inclination",), ("inclination", "derived")):
        with pytest.raises(MissingChannel) as exc:
            assemble_features(seq, FeatureGroupSelection.of(*groups))
        assert exc.value.channel == "tilt_x"


def test_tablet_without_timestamp_gives_raw_but_no_derived_column():
    seq = _tablet_sequence(np.arange(10), np.arange(10))
    del seq.channels["timestamp"]
    assert assemble_features(seq, FeatureGroupSelection.of("raw", "inclination")).m == 6
    for groups in (("pressure",), ("kinematic",)):
        with pytest.raises(MissingChannel) as exc:
            assemble_features(seq, FeatureGroupSelection.of(*groups))
        assert exc.value.channel == "timestamp"


def test_recording_with_both_channel_sets_takes_the_smartpen_raw_group():
    seq = _tablet_sequence(np.arange(10), np.arange(10))
    seq.channels.update(_smartpen_sequence().channels)
    fm = assemble_features(seq, FeatureGroupSelection.of("raw", "pressure"))
    assert fm.column_names == [*SMARTPEN_CHANNELS, "pressure", "pressure_derivative"]
    assert fm.column_groups == ["raw"] * 6 + ["pressure"] * 2


# ---------------------------------------------------------------------------
# invariance properties

coords = st.lists(st.integers(-8000, 8000), min_size=4, max_size=30)


@given(xs=coords, offset_x=st.integers(-500, 500), offset_y=st.integers(-500, 500), data=st.data())
@settings(max_examples=40, deadline=None)
def test_translation_invariance(xs, offset_x, offset_y, data):
    ys = data.draw(st.lists(st.integers(-8000, 8000), min_size=len(xs), max_size=len(xs)))
    seq = _tablet_sequence(xs, ys)
    moved = _tablet_sequence([v + offset_x for v in xs], [v + offset_y for v in ys])
    a = assemble_features(seq, FeatureGroupSelection.of("kinematic"))
    b = assemble_features(moved, FeatureGroupSelection.of("kinematic"))
    np.testing.assert_array_equal(a.values, b.values)


@given(xs=coords, k=st.integers(-3, 6), data=st.data())
@settings(max_examples=40, deadline=None)
def test_scale_equivariance_powers_of_two(xs, k, data):
    ys = data.draw(st.lists(st.integers(-8000, 8000), min_size=len(xs), max_size=len(xs)))
    c = 2.0**k
    seq = _tablet_sequence(xs, ys)
    scaled = _tablet_sequence([c * v for v in xs], [c * v for v in ys])
    a = assemble_features(seq, FeatureGroupSelection.of("kinematic"))
    b = assemble_features(scaled, FeatureGroupSelection.of("kinematic"))
    np.testing.assert_allclose(b.values, c * a.values, rtol=1e-12, atol=0)


def test_scale_equivariance_general_factor():
    seq = generate_synthetic(1, (30, 30), 0.5, seed=6)[0]
    c = 3.7
    scaled_channels = dict(seq.channels)
    scaled_channels["x"] = c * seq.channels["x"]
    scaled_channels["y"] = c * seq.channels["y"]
    scaled = SignalSequence("s", "t", None, scaled_channels)
    a = assemble_features(seq, FeatureGroupSelection.of("kinematic"))
    b = assemble_features(scaled, FeatureGroupSelection.of("kinematic"))
    # entries that nearly cancel have no relative accuracy to give; bound the
    # absolute error by the matrix scale instead
    atol = 1e-12 * np.abs(c * a.values).max()
    np.testing.assert_allclose(b.values, c * a.values, rtol=1e-12, atol=atol)


@given(xs=coords, data=st.data())
@settings(max_examples=40, deadline=None)
def test_displacement_dominates_components_and_stays_finite(xs, data):
    n = len(xs)
    ys = data.draw(st.lists(st.integers(-8000, 8000), min_size=n, max_size=n))
    # timestamps may repeat: the derivative floor has to keep everything finite
    steps = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    ts = np.cumsum(steps).astype(float)
    seq = _tablet_sequence(xs, ys, timestamp=ts)
    fm = assemble_features(seq, FeatureGroupSelection.of("derived"))
    assert np.isfinite(fm.values).all()
    d = fm.column("displacement")
    assert (d >= np.abs(fm.column("horizontal_displacement")) - 1e-9).all()
    assert (d >= np.abs(fm.column("vertical_displacement")) - 1e-9).all()
    np.testing.assert_array_equal(fm.values[0], np.zeros(fm.m))


@given(n=st.integers(4, 40), rate=st.sampled_from([100.0, 200.0]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_assembled_columns_equal_column_by_column_oracles(n, rate, data):
    ints = st.lists(st.integers(-8000, 8000), min_size=n, max_size=n)
    x, y = np.array(data.draw(ints), float), np.array(data.draw(ints), float)
    pressure = np.array(data.draw(st.lists(st.integers(0, 1023), min_size=n, max_size=n)), float)
    # steps of 0 repeat a timestamp
    ts = np.cumsum(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))).astype(float)
    seq = _tablet_sequence(x, y, timestamp=ts, pressure=pressure, rate=rate)
    tick = 1.0 / rate

    def deriv(s):
        out = np.zeros(n)
        out[1:] = np.diff(s) / np.maximum(np.diff(ts) * tick, tick)
        return out

    oracle = {name: seq.channels[name] for name in RAW_COLUMNS}
    oracle["pressure_derivative"] = deriv(pressure)
    for prefix, disp in (
        ("", displacement(x, y)),
        ("horizontal_", directional_displacement(x)),
        ("vertical_", directional_displacement(y)),
    ):
        vel = deriv(disp)
        acc = deriv(vel)
        oracle[prefix + "displacement"] = disp
        oracle[prefix + "velocity"] = vel
        oracle[prefix + "acceleration"] = acc
        oracle[prefix + "jerk"] = deriv(acc)
    for q in ("displacement", "velocity", "acceleration", "jerk"):
        oracle[f"resultant_{q}"] = np.hypot(oracle[f"horizontal_{q}"], oracle[f"vertical_{q}"])

    fm = assemble_features(seq, FeatureGroupSelection(GROUPS))
    assert sorted(fm.column_names) == sorted(oracle)
    for name, expected in oracle.items():
        np.testing.assert_array_equal(fm.column(name), expected, err_msg=name)

    # each rate column is the oracle derivative of the column it is the
    # rate of, to the bit, repeated timestamps included
    ladder = ("displacement", "velocity", "acceleration", "jerk")
    sources = {"pressure_derivative": "pressure"}
    for prefix in ("", "horizontal_", "vertical_"):
        sources.update((prefix + b, prefix + a) for a, b in zip(ladder, ladder[1:]))
    for name, source in sources.items():
        rate = deriv(fm.column(source))
        assert fm.column(name).tobytes() == rate.tobytes(), name


# coordinates and pressures: integers as a tablet gives them, or values near
# 1e308 whose differences overflow to inf and whose later differences are
# inf - inf = nan
_EXTREME = st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, 8.9e307, -8.9e307])
_COORD = st.one_of(st.integers(-8000, 8000).map(float), _EXTREME)


@given(
    n=st.integers(4, 30),
    rate=st.sampled_from([100.0, 200.0, 133.0]),
    groups=st.lists(st.sampled_from(GROUPS), min_size=1, max_size=5, unique=True),
    raw_pressure=st.booleans(),
    extreme=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_assembled_features_equal_column_by_column_derivation(
    n, rate, groups, raw_pressure, extreme, data
):
    coord = _COORD if extreme else st.integers(-8000, 8000).map(float)
    level = st.integers(0, 1023).map(float)
    level = st.one_of(level, _EXTREME.map(abs)) if extreme else level
    x, y = (np.array(data.draw(st.lists(coord, min_size=n, max_size=n))) for _ in range(2))
    pressure = data.draw(st.lists(level, min_size=n, max_size=n))
    # steps of 0 repeat a timestamp
    ts = np.cumsum(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))).astype(float)
    seq = _tablet_sequence(x, y, timestamp=ts, pressure=pressure, rate=rate)
    selection = FeatureGroupSelection(tuple(groups), raw_pressure)
    want, names, tags = reference_features(seq, selection)
    if np.isfinite(want).all():
        fm = assemble_features(seq, selection)
        assert (fm.column_names, fm.column_groups) == (names, tags)
        assert fm.values.flags.c_contiguous
        assert fm.values.tobytes() == want.tobytes()
    else:
        bad = [names[j] for j in np.nonzero(~np.isfinite(want).all(axis=0))[0]]
        with pytest.raises(NonFiniteFeatures) as exc:
            assemble_features(seq, selection)
        assert str(exc.value).endswith(f"non-finite values in columns {bad}")
    # the values before the finiteness check, inf and nan included
    got = _column_values(seq, names)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# feature matrix and CSV dump

def test_feature_matrix_validates_shapes():
    with pytest.raises(LengthMismatch):
        FeatureMatrix(np.zeros((3, 2)), ["a"], ["raw"], None, "s", "t")
    with pytest.raises(NonFiniteFeatures, match=r"\('s', 't'\).*\['a'\]"):
        FeatureMatrix(np.array([[np.nan, 0.0]]), ["a", "b"], ["raw", "raw"], None, "s", "t")


def test_dump_csv_round_trips(tmp_path):
    seq = generate_synthetic(1, (20, 20), 1.0, seed=13)[0]
    fm = assemble_features(seq, FeatureGroupSelection.of("derived"))
    path = tmp_path / "features.csv"
    dump_csv(fm, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == fm.column_names
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    np.testing.assert_array_equal(values, fm.values)
