import io
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pendetect.errors import (
    DuplicateEntry,
    EmptyFile,
    InvalidEntry,
    InvalidRange,
    MalformedLine,
    NonMonotonicTime,
    ParseError,
)
from pendetect.signal_io import (
    DEFAULT_TABLET_COLUMNS,
    SMARTPEN_CHANNELS,
    DatasetManifest,
    ManifestEntry,
    SignalSequence,
    generate_synthetic,
    load_dataset,
    load_manifest,
    parse_recording,
    parse_smartpen_file,
    parse_tablet_file,
    write_manifest,
    write_tablet_file,
)
from pendetect.signal_io import _parse_numeric_lines, _read_clean, _read_text


# ---------------------------------------------------------------------------
# tablet parsing

def test_parse_tablet_two_lines(tmp_path):
    p = tmp_path / "a.svc"
    p.write_text("0 0 0 1 0 0 100\n1 1 5 1 0 0 110\n")
    seq = parse_tablet_file(p)
    assert seq.length == 2
    assert seq.channels["x"].tolist() == [0.0, 1.0]
    assert seq.channels["y"].tolist() == [0.0, 1.0]
    assert seq.channels["timestamp"].tolist() == [0.0, 5.0]
    assert seq.channels["button"].tolist() == [1.0, 1.0]
    assert seq.channels["pressure"].tolist() == [100.0, 110.0]
    assert seq.sample_rate_hz == 200.0


def test_parse_tablet_malformed_line_3(tmp_path):
    p = tmp_path / "a.svc"
    p.write_text("0 0 0 1 0 0 100\n1 1 5 1 0 0 110\na b c\n")
    with pytest.raises(MalformedLine) as exc:
        parse_tablet_file(p)
    assert exc.value.line_no == 3


def test_parse_tablet_non_numeric_field(tmp_path):
    p = tmp_path / "a.svc"
    p.write_text("0 0 0 1 0 0 100\n1 oops 5 1 0 0 110\n")
    with pytest.raises(MalformedLine) as exc:
        parse_tablet_file(p)
    assert exc.value.line_no == 2


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-Infinity", "1e999"])
def test_parse_tablet_non_finite_field_names_line(tmp_path, token):
    p = tmp_path / "a.svc"
    p.write_text(f"0 0 0 1 0 0 100\n\n{token} 1 5 1 0 0 110\n")
    with pytest.raises(MalformedLine) as exc:
        parse_tablet_file(p)
    assert exc.value.line_no == 3
    assert exc.value.path == str(p)
    assert "non-finite value in field 1" in str(exc.value)


def test_parse_undecodable_file_names_path(tmp_path):
    p = tmp_path / "a.svc"
    p.write_bytes(b"0 0 0 1 0 0 100\n\xff\xfe\n")
    with pytest.raises(ParseError) as exc:
        parse_tablet_file(p)
    assert exc.value.path == str(p)


def test_parse_tablet_empty_file(tmp_path):
    p = tmp_path / "a.svc"
    p.write_text("")
    with pytest.raises(EmptyFile):
        parse_tablet_file(p)
    p.write_text("\n\n  \n")
    with pytest.raises(EmptyFile):
        parse_tablet_file(p)


def test_parse_tablet_header_skipped_with_warning(tmp_path):
    p = tmp_path / "a.svc"
    p.write_text("2\n0 0 0 1 0 0 100\n1 1 5 1 0 0 110\n")
    with pytest.warns(UserWarning, match="header"):
        seq = parse_tablet_file(p)
    assert seq.length == 2


def test_parse_tablet_non_monotonic_time(tmp_path):
    p = tmp_path / "a.svc"
    # in the second case the difference overflows to -inf: the check must not warn
    for first, second in (("10", "5"), ("1e308", "-1e308")):
        p.write_text(f"0 0 {first} 1 0 0 100\n1 1 {second} 1 0 0 110\n")
        with pytest.raises(NonMonotonicTime) as exc:
            parse_tablet_file(p)
        assert exc.value.line_no == 2


def test_parse_tablet_repeated_timestamp_ok(tmp_path):
    # non-decreasing, not strictly increasing
    p = tmp_path / "a.svc"
    p.write_text("0 0 5 1 0 0 100\n1 1 5 1 0 0 110\n")
    assert parse_tablet_file(p).length == 2


def test_parse_tablet_invalid_button(tmp_path):
    p = tmp_path / "a.svc"
    p.write_text("0 0 0 2 0 0 100\n")
    with pytest.raises(MalformedLine) as exc:
        parse_tablet_file(p)
    assert exc.value.line_no == 1


def test_parse_tablet_negative_pressure(tmp_path):
    p = tmp_path / "a.svc"
    p.write_text("0 0 0 1 0 0 -4\n")
    with pytest.raises(MalformedLine):
        parse_tablet_file(p)


def test_tablet_round_trip_of_synthetic(tmp_path):
    seq = generate_synthetic(1, (400, 400), 0.7, seed=11)[0]
    assert seq.length == 400
    p = tmp_path / "rt.svc"
    write_tablet_file(seq, p)
    back = parse_tablet_file(p, subject_id=seq.subject_id, task_id=seq.task_id, label=seq.label)
    for name in DEFAULT_TABLET_COLUMNS:
        np.testing.assert_array_equal(back.channels[name], seq.channels[name], err_msg=name)


def _tablet_of(values: np.ndarray) -> SignalSequence:
    columns = values.reshape(-1, len(DEFAULT_TABLET_COLUMNS))
    return SignalSequence("s", "t", "PD", dict(zip(DEFAULT_TABLET_COLUMNS, columns.T)), 200.0)


def test_tablet_writer_bytes_follow_the_per_value_rule(tmp_path):
    rng = np.random.default_rng(3)
    edge = [0.5, 1.5, 2.5, -0.5, -1.5, -0.4, -0.0, 0.0, 2.0**53 + 1, 1e300, 1e308, -1e308,
            0.49999999999999994]
    values = np.concatenate([
        edge,
        rng.integers(-50, 50, 2_000) + 0.5,  # halves round to even
        rng.normal(0.0, 1e4, 20_000),
    ])
    values = np.append(values, np.zeros(-len(values) % 7))
    path = tmp_path / "w.svc"
    write_tablet_file(_tablet_of(values), path)
    expected = "".join(" ".join(str(int(round(v))) for v in row) + "\n"
                       for row in values.reshape(-1, 7).tolist())
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tablet_writer_refuses_a_non_finite_value_before_opening_the_file(tmp_path, bad):
    values = np.arange(70, dtype=float)
    values[40] = bad
    path = tmp_path / "w.svc"
    with pytest.raises(InvalidRange) as exc:
        write_tablet_file(_tablet_of(values), path)
    assert exc.value.path == str(path) and not path.exists()


# ---------------------------------------------------------------------------
# smart-pen parsing

def test_parse_smartpen_zeros(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("0 0 0 0 0 0\n" * 3)
    seq = parse_smartpen_file(p)
    assert seq.length == 3
    for name in SMARTPEN_CHANNELS:
        assert seq.channels[name].tolist() == [0.0, 0.0, 0.0]
    assert seq.sample_rate_hz == 100.0


def test_parse_smartpen_single_line_accepted(tmp_path):
    # parsers are format-only; the length >= 2 rule lives in the feature stage
    p = tmp_path / "a.txt"
    p.write_text("1 2 3 4 5 6\n")
    seq = parse_smartpen_file(p)
    assert seq.length == 1


def _write_smartpen(seq, path):
    """One sample per line, floats as shortest round-trip decimals."""
    rows = zip(*(seq.channels[name] for name in SMARTPEN_CHANNELS))
    path.write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in rows))


def test_smartpen_sinusoid_round_trip_bit_identical(tmp_path):
    t = np.arange(50, dtype=np.float64)
    channels = {
        name: np.sin(0.1 * (i + 1) * t) * (i + 0.5)
        for i, name in enumerate(SMARTPEN_CHANNELS)
    }
    seq = SignalSequence("s", "task", None, channels, sample_rate_hz=100.0)
    p = tmp_path / "pen.txt"
    _write_smartpen(seq, p)
    back = parse_smartpen_file(p)
    for name in SMARTPEN_CHANNELS:
        assert np.array_equal(back.channels[name], seq.channels[name]), name
    # text form itself must be stable under a second write
    p2 = tmp_path / "pen2.txt"
    _write_smartpen(back, p2)
    assert p.read_text() == p2.read_text()


def test_parse_smartpen_wrong_arity(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("1 2 3 4 5 6\n1 2 3\n")
    with pytest.raises(MalformedLine) as exc:
        parse_smartpen_file(p)
    assert exc.value.line_no == 2


# ---------------------------------------------------------------------------
# one loader per manifest format

@pytest.mark.parametrize(
    "fmt, line, default_hz",
    [
        ("tablet_svc", "1 2 0 1 300 400 600\n", 200.0),
        ("synthetic", "1 2 0 1 300 400 600\n", 200.0),
        ("smartpen_channels", "0.5 1 2 3 4 5\n", 100.0),
    ],
)
def test_parse_recording_rate_defaults_by_format(tmp_path, fmt, line, default_hz):
    p = tmp_path / "rec.txt"
    p.write_text(line * 3)
    seq = parse_recording(p, fmt, subject_id="s1", task_id="spiral", label="PD")
    assert seq.sample_rate_hz == default_hz
    assert (seq.subject_id, seq.task_id, seq.label, seq.length) == ("s1", "spiral", "PD", 3)
    assert (fmt == "smartpen_channels") == seq.is_smartpen()
    assert parse_recording(p, fmt, 50.0).sample_rate_hz == 50.0


def test_parse_recording_rejects_unknown_format(tmp_path):
    p = tmp_path / "rec.txt"
    p.write_text("0.5 1 2 3 4 5\n")
    with pytest.raises(ValueError, match="format"):
        parse_recording(p, "smartpen")


# ---------------------------------------------------------------------------
# synthetic generation

def test_generate_synthetic_shape_and_balance():
    seqs = generate_synthetic(10, (100, 100), 0.0, seed=7)
    assert len(seqs) == 20
    assert all(s.length == 100 for s in seqs)
    assert sum(s.label == "PD" for s in seqs) == 10
    assert sum(s.label == "HC" for s in seqs) == 10


def test_generate_synthetic_deterministic():
    a = generate_synthetic(10, (100, 100), 0.0, seed=7)
    b = generate_synthetic(10, (100, 100), 0.0, seed=7)
    for sa, sb in zip(a, b):
        assert sa.subject_id == sb.subject_id and sa.label == sb.label
        for name in DEFAULT_TABLET_COLUMNS:
            np.testing.assert_array_equal(sa.channels[name], sb.channels[name])


def test_generate_synthetic_seed_changes_output():
    a = generate_synthetic(2, (64, 64), 0.5, seed=1)
    b = generate_synthetic(2, (64, 64), 0.5, seed=2)
    assert any(
        not np.array_equal(sa.channels["x"], sb.channels["x"]) for sa, sb in zip(a, b)
    )


def _mean_abs_velocity_derivative(seq):
    d = np.hypot(np.diff(seq.channels["x"]), np.diff(seq.channels["y"]))
    return float(np.mean(np.abs(np.diff(d))))


def test_generate_synthetic_separable_at_full_separation():
    # independently verified by a brute-force threshold sweep: a single cut on
    # mean |velocity derivative| reaches 1.0 accuracy on this seed
    seqs = generate_synthetic(20, (200, 400), 1.0, seed=1)
    vals = np.array([_mean_abs_velocity_derivative(s) for s in seqs])
    labs = np.array([1 if s.label == "PD" else 0 for s in seqs])
    best = 0.0
    for thr in np.sort(vals):
        for sense in (1, -1):
            pred = (sense * vals >= sense * thr).astype(int)
            best = max(best, float((pred == labs).mean()))
    assert best >= 0.95


def test_generate_synthetic_invalid_range():
    with pytest.raises(InvalidRange):
        generate_synthetic(2, (50, 40), 0.5, seed=0)
    with pytest.raises(InvalidRange):
        generate_synthetic(2, (4, 40), 0.5, seed=0)
    for args, seed in (
        ((2, (8, 1_000_001), 0.5), 0),
        ((2, (20, 40), 1.5), 0),
        ((0, (20, 40), 0.5), 0),
        ((2, (20, 40), 0.5), -1),
    ):
        with pytest.raises(InvalidRange):
            generate_synthetic(*args, seed=seed)


def test_generate_synthetic_valid_tablet_channels():
    for s in generate_synthetic(3, (20, 60), 1.0, seed=3):
        assert set(s.channels) == set(DEFAULT_TABLET_COLUMNS)
        assert np.isin(s.channels["button"], (0.0, 1.0)).all()
        assert (s.channels["pressure"] >= 0).all()
        assert (np.diff(s.channels["timestamp"]) >= 0).all()
        # every channel holds whole device units
        for name in DEFAULT_TABLET_COLUMNS:
            np.testing.assert_array_equal(s.channels[name], np.round(s.channels[name]))


@given(
    n=st.integers(min_value=1, max_value=4),
    lo=st.integers(min_value=8, max_value=30),
    extra=st.integers(min_value=0, max_value=30),
    sep=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_generate_synthetic_properties(n, lo, extra, sep, seed):
    seqs = generate_synthetic(n, (lo, lo + extra), sep, seed=seed)
    assert len(seqs) == 2 * n
    assert sum(s.label == "PD" for s in seqs) == sum(s.label == "HC" for s in seqs) == n
    assert all(lo <= s.length <= lo + extra for s in seqs)
    ids = [s.subject_id for s in seqs]
    assert len(set(ids)) == len(ids)


# ---------------------------------------------------------------------------
# sequences

def test_signal_sequence_rejects_ragged_channels():
    with pytest.raises(ValueError):
        SignalSequence("s", "t", None, {"a": np.zeros(3), "b": np.zeros(4)})


def test_signal_sequence_rejects_bad_label():
    with pytest.raises(ValueError):
        SignalSequence("s", "t", "sick", {"a": np.zeros(3)})


# ---------------------------------------------------------------------------
# manifests and dataset assembly

def test_empty_manifest_loads_empty_dataset(tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("path,subject_id,task_id,label\n")
    manifest = load_manifest(m, format="tablet_svc")
    assert manifest.entries == []
    assert load_dataset(manifest) == []


def test_manifest_duplicate_entry():
    rows = [
        ManifestEntry("a.svc", "s1", "spiral", "PD"),
        ManifestEntry("b.svc", "s1", "spiral", "HC"),
    ]
    with pytest.raises(DuplicateEntry):
        DatasetManifest(entries=rows, format="tablet_svc")


def test_manifest_file_with_a_duplicate_pair_names_the_manifest(tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("path,subject_id,task_id,label\na.svc,s1,spiral,PD\nb.svc,s1,spiral,HC\n")
    with pytest.raises(DuplicateEntry, match=f"^{re.escape(str(m))}: duplicate"):
        load_manifest(m, format="tablet_svc")


def test_manifest_label_case_insensitive(tmp_path):
    m = tmp_path / "m.csv"
    # the second time with the byte order mark of Excel's "CSV UTF-8"
    for bom in ("", "\ufeff"):
        rows = "path,subject_id,task_id,label\na.svc,s1,spiral,pd\nb.svc,s2,spiral,Hc\n"
        m.write_text(bom + rows, encoding="utf-8")
        manifest = load_manifest(m, format="tablet_svc")
        assert [e.label for e in manifest.entries] == ["PD", "HC"]


def test_manifest_bad_header_rejected(tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("file,subject,task,diagnosis\na.svc,s1,spiral,PD\n")
    with pytest.raises(ParseError):
        load_manifest(m, format="tablet_svc")


@pytest.mark.parametrize("rows, line_no, detail", [
    ("a.svc,s1,spiral,parkinsons\n", 2, "label must be PD or HC, got 'parkinsons'"),
    # an empty subject_id was replaced by the file stem, an empty task_id
    # by "unknown", so the subjects that splits group by came from file names
    ("a.svc,,a,HC\nb.svc,,b,HC\n", 2, "subject_id and task_id must not be empty"),
    ("a.svc,s1,spiral,HC\nb.svc,s2, ,PD\n", 3, "subject_id and task_id must not be empty"),
    # a subject listed under both labels was stratified by its first one
    ("a.svc,s1,spiral,HC\nb.svc,s2,spiral,PD\nc.svc,s1,second,pd\n", 4,
     "subject 's1' is PD here but HC on line 2"),
], ids=["label", "empty-subject", "empty-task", "second-label"])
def test_manifest_bad_row_rejected(tmp_path, rows, line_no, detail):
    m = tmp_path / "m.csv"
    m.write_text("path,subject_id,task_id,label\n" + rows)
    with pytest.raises(MalformedLine) as exc:
        load_manifest(m, format="tablet_svc")
    assert str(exc.value) == f"{m}: line {line_no}: {detail}"


def test_manifest_rows_are_named_by_their_first_physical_line(tmp_path):
    m = tmp_path / "m.csv"
    head = 'path,subject_id,task_id,label\n"a\nb.svc",s1,spiral,PD\n'
    m.write_text(head + "c.svc,s2,spiral,sick\n")
    with pytest.raises(MalformedLine) as exc:
        load_manifest(m, format="tablet_svc")
    assert str(exc.value) == f"{m}: line 4: label must be PD or HC, got 'sick'"
    # a record spanning lines 4-5 is named by line 4, the earlier one by line 2
    m.write_text(head + '"c\nd.svc",s1,second,HC\n')
    with pytest.raises(MalformedLine) as exc:
        load_manifest(m, format="tablet_svc")
    assert str(exc.value) == f"{m}: line 4: subject 's1' is HC here but PD on line 2"


@pytest.mark.parametrize("entries, message", [
    ([("a.svc", "", "spiral", "HC")], "entry 0: subject_id and task_id must not be empty"),
    ([("a.svc", "s1", "spiral", "HC"), ("b.svc", "s2", "", "PD")],
     "entry 1: subject_id and task_id must not be empty"),
    ([("a.svc", "x", "spiral", "PD"), ("b.svc", "y", "spiral", "HC"),
      ("c.svc", "x", "second", "HC")], "entry 2: subject 'x' is HC here but PD in entry 0"),
], ids=["empty-subject", "empty-task", "second-label"])
def test_manifest_built_in_python_keeps_the_identity_rules(entries, message):
    with pytest.raises(InvalidEntry) as exc:
        DatasetManifest([ManifestEntry(*e) for e in entries], "synthetic")
    assert str(exc.value) == message


def test_load_dataset_cohort_72(tmp_path):
    # 36 per class, one file each, assembled through a written manifest
    seqs = generate_synthetic(36, (30, 60), 0.5, seed=5)
    entries = []
    for i, s in enumerate(seqs):
        name = f"f{i:03d}.svc"
        write_tablet_file(s, tmp_path / name)
        entries.append(ManifestEntry(name, s.subject_id, s.task_id, s.label))
    manifest = DatasetManifest(entries=entries, format="tablet_svc")
    write_manifest(manifest, tmp_path / "m.csv")
    manifest = load_manifest(tmp_path / "m.csv", format="tablet_svc")

    out = load_dataset(manifest, base_dir=tmp_path)
    assert len(out) == 72
    assert sum(s.label == "PD" for s in out) == 36
    assert sum(s.label == "HC" for s in out) == 36
    assert out[0].subject_id == manifest.entries[0].subject_id


def test_load_dataset_annotates_parse_error_with_path(tmp_path):
    bad = tmp_path / "bad.svc"
    bad.write_text("0 0 0 1 0 0 100\nnope\n")
    manifest = DatasetManifest(
        entries=[ManifestEntry("bad.svc", "s1", "spiral", "PD")], format="tablet_svc"
    )
    with pytest.raises(MalformedLine) as exc:
        load_dataset(manifest, base_dir=tmp_path)
    assert exc.value.path is not None and "bad.svc" in exc.value.path


@given(
    data=st.lists(
        st.tuples(
            st.integers(-10000, 10000),      # x
            st.integers(-10000, 10000),      # y
            st.integers(0, 50),              # timestamp increment
            st.integers(0, 1),               # button
            st.integers(-900, 900),          # tilt_x
            st.integers(-900, 900),          # tilt_y
            st.integers(0, 2048),            # pressure
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=30, deadline=None)
def test_tablet_round_trip_property(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("rt")
    ts = np.cumsum([d[2] for d in data]).astype(np.float64)
    channels = {
        "x": np.array([d[0] for d in data], dtype=np.float64),
        "y": np.array([d[1] for d in data], dtype=np.float64),
        "timestamp": ts,
        "button": np.array([d[3] for d in data], dtype=np.float64),
        "tilt_x": np.array([d[4] for d in data], dtype=np.float64),
        "tilt_y": np.array([d[5] for d in data], dtype=np.float64),
        "pressure": np.array([d[6] for d in data], dtype=np.float64),
    }
    seq = SignalSequence("s", "t", None, channels)
    path = tmp / "f.svc"
    write_tablet_file(seq, path)
    back = parse_tablet_file(path)
    for name in DEFAULT_TABLET_COLUMNS:
        np.testing.assert_array_equal(back.channels[name], seq.channels[name], err_msg=name)


_NUMBER = st.one_of(
    st.sampled_from(["0", "1", "-3", "2.5", "nan", "-inf", "Infinity", "1e999", "1e308", "-1e308"]),
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
)
# lines of arbitrary tokens, and lines of 6 or 7 numbers that pass the arity check
_LINE = st.one_of(
    st.lists(st.one_of(st.text(max_size=6), _NUMBER), max_size=8),
    st.lists(_NUMBER, min_size=6, max_size=7),
).map(" ".join)


@given(lines=st.lists(_LINE, max_size=6), tablet=st.booleans())
@settings(max_examples=200, deadline=None)
def test_parsers_raise_only_parse_errors(tmp_path_factory, lines, tablet):
    path = tmp_path_factory.mktemp("fuzz") / "rec.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # header lines
            seq = (parse_tablet_file if tablet else parse_smartpen_file)(path)
    except ParseError:
        return
    assert all(np.isfinite(values).all() for values in seq.channels.values())


def _parse_line_by_line(path, arity):
    """The per-line parser the bulk one replaced, kept as its oracle."""
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
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
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise MalformedLine(
            line_nos[row], f"non-finite value in field {col + 1}", path=str(path)
        )
    return values, line_nos


def _outcome(parse, path, arity):
    """(values, line numbers) or (error class, line, message), and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(path, arity)
        except ParseError as exc:
            result = (type(exc), getattr(exc, "line_no", None), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


# integers in the forms a file may hold them: a sign, leading zeros, zeros
# that float() reads as -0.0, 2**53 + 1 (no float64 holds it) and the ends
# of the int64 range
_INTEGER = st.one_of(
    st.integers(-(10**9), 10**9).map(str),
    st.sampled_from(["-0", "-000", "+0", "+17", "007", "9007199254740993",
                     "9223372036854775807", "-9223372036854775807"]),
)
_NUMBER = st.one_of(_INTEGER, st.floats(allow_nan=False, allow_infinity=False).map(repr))
# tokens float() takes but numpy's C reader refuses (1_000, Arabic-Indic
# digits) or reads only as a real (integers beyond the int64 range), tokens
# float() also refuses, and non-finite values
_ODD = st.sampled_from(
    ["1_000", "\u0661\u0662", "0x10", "nan", "-inf", "1e999", "abc", "1,5", "--1",
     "9223372036854775808", "-9223372036854775809"]
)
_BLANK = st.sampled_from(["", " ", "\t", "  \t "])
# characters str.split or str.splitlines treat otherwise than a space or
# "\n"; the file is read with universal newlines, so "\r" becomes "\n"
_ODD_SPACE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028"]
_SEPARATORS = [" ", "\t"]
_LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def _recording(draw):
    arity = draw(st.sampled_from([6, 7]))
    odd = draw(st.booleans())
    sep = st.sampled_from(_SEPARATORS + _ODD_SPACE if odd else _SEPARATORS)
    end = st.sampled_from(_LINE_ENDS + _ODD_SPACE if odd else _LINE_ENDS)
    # often integers alone, as a tablet writes them
    number = _INTEGER if draw(st.booleans()) else _NUMBER

    def row(n):
        tokens = draw(st.lists(number, min_size=n, max_size=n))
        if tokens and draw(st.integers(0, 5)) == 0:
            tokens[draw(st.integers(0, n - 1))] = draw(_ODD)
        return draw(sep).join(tokens)

    lines = []
    header = draw(st.booleans())
    if header:  # a wrong-arity line 1, such as the one-field sample count of PaHaW's files
        fields = draw(st.one_of(st.just(1), st.integers(1, arity + 2).filter(lambda k: k != arity)))
        lines.append(row(fields))
    for kind in draw(st.lists(st.sampled_from("vvvvvvbw"), max_size=12)):
        if kind == "v":
            lines.append(row(arity))
        elif kind == "b":
            lines.append(draw(_BLANK))
        else:
            lines.append(row(draw(st.integers(1, arity + 2).filter(lambda k: k != arity))))
    lines = [line + draw(end) for line in lines]
    if draw(st.integers(0, 3)) == 0:  # a few thousand clean rows among them
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(1000, 4000))
        if draw(st.booleans()):
            block = rng.integers(-(10**6), 10**6, (n, arity)).tolist()
        else:
            block = (rng.normal(0.0, 1.0, (n, arity)) * 10.0 ** rng.integers(-5, 6, (n, 1))).tolist()
        ending = draw(st.sampled_from(_LINE_ENDS))
        # often right after a header, so that only the header keeps the file from being clean
        at = draw(st.integers(1 if header and draw(st.booleans()) else 0, len(lines)))
        lines[at:at] = [" ".join(map(repr, values)) + ending for values in block]
    return arity, "".join(lines)


def _assert_parsers_agree(path, arity):
    got, got_warnings = _outcome(_parse_numeric_lines, path, arity)
    want, want_warnings = _outcome(_parse_line_by_line, path, arity)
    assert got_warnings == want_warnings
    if isinstance(want[0], np.ndarray):
        assert isinstance(got[0], np.ndarray)
        assert np.array_equal(got[0], want[0])
        assert got[0].tobytes() == want[0].tobytes()
        # the row-to-line mapping is lazy: force it
        assert got[1]() == want[1]
    else:
        assert got == want


@given(_recording())
@settings(max_examples=300, deadline=None)
def test_bulk_parser_matches_line_by_line(tmp_path_factory, recording):
    arity, text = recording
    path = tmp_path_factory.mktemp("bulk") / "rec.txt"
    path.write_bytes(text.encode("utf-8"))
    _assert_parsers_agree(path, arity)


# a header line and blank lines before a tablet file's rows, header-less
# files with either line end or a UTF-8 byte order mark, and a smart-pen
# file of reals
@pytest.mark.parametrize(
    "head, newline, arity",
    [
        pytest.param(f"{h}\n{b}", "\n", 7, id=f"{h}-{b}")
        for h in ("744", "744 samples", "x y t b tx ty p q", "\t1")
        for b in ("", "\n", " \n")
    ]
    + [
        pytest.param("", "\n", 7, id="tablet"),
        pytest.param("", "\r\n", 7, id="tablet-crlf"),
        pytest.param("\ufeff", "\n", 7, id="tablet-bom"),
        pytest.param("", "\n", 6, id="smartpen-reals"),
    ],
)
def test_header_line_file_is_read_by_the_c_reader(tmp_path, head, newline, arity):
    rng = np.random.default_rng(3)
    if arity == 7:
        rows = rng.integers(0, 10**5, (744, 7))
        names, write = DEFAULT_TABLET_COLUMNS, write_tablet_file
    else:
        rows = rng.normal(0.0, 1.0, (744, 6)) * 10.0 ** rng.integers(-5, 6, (744, 1))
        names, write = SMARTPEN_CHANNELS, _write_smartpen
    path = tmp_path / "rec.svc"
    write(SignalSequence("s", "t", None, dict(zip(names, rows.T))), path)
    path.write_bytes((head + path.read_text()).replace("\n", newline).encode())
    _assert_parsers_agree(path, arity)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        clean = _read_clean(_read_text(path), arity, path)
    assert clean is not None, "the C reader refused the file"
    values, skipped = clean
    assert skipped == len(caught) == (head.lstrip("\ufeff") != "")
    assert np.array_equal(values, rows)
    assert all("header" in str(w.message) for w in caught)


def test_integer_file_is_read_as_int64_and_a_file_of_reals_as_float64(tmp_path, monkeypatch):
    dtypes = []
    loadtxt = np.loadtxt

    def spy(*args, dtype, **kwargs):
        dtypes.append(np.dtype(dtype))
        return loadtxt(*args, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    tablet = generate_synthetic(1, (300, 300), 1.0, seed=4)[0]
    write_tablet_file(tablet, tmp_path / "rec.svc")
    parsed = parse_tablet_file(tmp_path / "rec.svc")
    assert dtypes == [np.dtype(np.int64)]
    for name in DEFAULT_TABLET_COLUMNS:
        assert parsed.channels[name].tobytes() == tablet.channels[name].tobytes(), name

    dtypes.clear()
    rng = np.random.default_rng(5)
    channels = dict(zip(SMARTPEN_CHANNELS, rng.normal(0.0, 100.0, (6, 300))))
    _write_smartpen(SignalSequence("s", "t", None, channels), tmp_path / "pen.txt")
    parsed = parse_smartpen_file(tmp_path / "pen.txt")
    assert dtypes == [np.dtype(np.float64)]
    for name in SMARTPEN_CHANNELS:
        assert parsed.channels[name].tobytes() == channels[name].tobytes(), name


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "9223372036854775808"])
def test_int64_reader_refuses_a_token_numpy_1_reads_through_float(tmp_path, monkeypatch, token):
    # numpy releases before 2 read such a token with the int64 reader through
    # float, warn with a DeprecationWarning and cast the value unchecked
    loadtxt = np.loadtxt
    dtypes = []

    def numpy_1_loadtxt(fname, *args, dtype, **kwargs):
        dtypes.append(np.dtype(dtype))
        text = fname.read()
        try:
            return loadtxt(io.StringIO(text), *args, dtype=dtype, **kwargs)
        except ValueError:
            if dtype is not np.int64:
                raise
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            shape = loadtxt(io.StringIO(text), *args, dtype=np.float64, **kwargs).shape
            return np.full(shape, np.iinfo(np.int64).min)

    monkeypatch.setattr(np, "loadtxt", numpy_1_loadtxt)
    path = tmp_path / "rec.svc"
    path.write_text(f"0 0 0 1 0 0 100\n5 6 1 1 0 0 {token}\n")
    _assert_parsers_agree(path, 7)
    assert dtypes[0] == np.dtype(np.int64)


@pytest.mark.parametrize("sep", _ODD_SPACE)
@pytest.mark.parametrize("rows", [["1 2 3", "4 5 6 7"], ["1 2 3 4 5 6 7", "1 2 3 4 5 6 7"]])
def test_bulk_parser_splits_lines_as_splitlines_does(tmp_path, sep, rows):
    # numpy's C reader and str.split take each of these characters for a
    # field separator; str.splitlines breaks a line at most of them
    path = tmp_path / "rec.txt"
    path.write_text("0 0 0 1 0 0 100\n" + sep.join(rows) + "\n", encoding="utf-8")
    _assert_parsers_agree(path, 7)
