import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pendetect.errors import ColumnMismatch, EmptyDataset, InvalidRange, NonFiniteFeatures, ParseError
from pendetect.features import FeatureMatrix
from pendetect.preprocess import (
    STD_FLOOR,
    LengthPolicy,
    NormalizationStats,
    apply_normalization,
    compute_cutoff,
    fit_length,
    fit_normalization,
    load_stats,
    prepare,
    save_stats,
)
from pendetect.preprocess import _clip_bounds


def _fm(values, label="PD", subject="s", task="t"):
    values = np.asarray(values, dtype=np.float64)
    m = values.shape[1]
    return FeatureMatrix(
        values=values,
        column_names=[f"f{j}" for j in range(m)],
        column_groups=["raw"] * m,
        label=label,
        subject_id=subject,
        task_id=task,
    )


def _random_fms(rng, lengths, m=3):
    return [_fm(rng.normal(size=(t, m)) * 10 + 2) for t in lengths]


# ---------------------------------------------------------------------------
# cutoff

def test_cutoff_is_mean_of_lengths():
    rng = np.random.default_rng(0)
    assert compute_cutoff(_random_fms(rng, [100, 200, 300])).cutoff == 200


def test_cutoff_singleton():
    rng = np.random.default_rng(0)
    assert compute_cutoff(_random_fms(rng, [3])).cutoff == 3


def test_cutoff_rounds_half_up():
    rng = np.random.default_rng(0)
    assert compute_cutoff(_random_fms(rng, [101, 150])).cutoff == 126
    assert compute_cutoff(_random_fms(rng, [100, 149])).cutoff == 125


def test_cutoff_empty():
    with pytest.raises(EmptyDataset):
        compute_cutoff([])


def test_length_policy_validation():
    with pytest.raises(ValueError):
        LengthPolicy(cutoff=0)


# ---------------------------------------------------------------------------
# fit_length

def test_fit_length_pads_with_zero_rows():
    fm = _fm(np.arange(15).reshape(5, 3) + 1.0)
    out = fit_length(fm, LengthPolicy(cutoff=8))
    assert out.length == 8
    np.testing.assert_array_equal(out.values[:5], fm.values)
    np.testing.assert_array_equal(out.values[5:], np.zeros((3, 3)))
    assert out.column_names == fm.column_names
    assert out.label == fm.label


def test_fit_length_identity_at_cutoff():
    fm = _fm(np.random.default_rng(1).normal(size=(8, 2)))
    out = fit_length(fm, LengthPolicy(cutoff=8))
    np.testing.assert_array_equal(out.values, fm.values)
    assert out.values is not fm.values  # still a copy, never a view


def test_fit_length_truncates_tail():
    fm = _fm(np.arange(20).reshape(10, 2).astype(float))
    out = fit_length(fm, LengthPolicy(cutoff=6))
    np.testing.assert_array_equal(out.values, fm.values[:6])


@given(
    t=st.integers(1, 40),
    cutoff=st.integers(1, 40),
    m=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_fit_length_idempotent_and_exact(t, cutoff, m, seed):
    fm = _fm(np.random.default_rng(seed).normal(size=(t, m)))
    policy = LengthPolicy(cutoff=cutoff)
    once = fit_length(fm, policy)
    twice = fit_length(once, policy)
    assert once.length == cutoff
    np.testing.assert_array_equal(once.values, twice.values)


# ---------------------------------------------------------------------------
# normalization fitting

def _percentile_oracle(sorted_vals, pct):
    # independent linear-interpolation percentile: rank = p/100 * (n-1)
    n = len(sorted_vals)
    rank = pct / 100.0 * (n - 1)
    lo = int(np.floor(rank))
    hi = int(np.ceil(rank))
    frac = rank - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def test_percentile_clip_bounds_on_1_to_100():
    column = np.arange(1, 101, dtype=np.float64)
    fm = _fm(column.reshape(-1, 1))
    stats = fit_normalization([fm], 5, 90)
    assert stats.low_clip[0] == pytest.approx(5.95, abs=1e-12)
    assert stats.high_clip[0] == pytest.approx(90.1, abs=1e-12)
    s = np.sort(column)
    assert stats.low_clip[0] == pytest.approx(_percentile_oracle(s, 5), abs=1e-12)
    assert stats.high_clip[0] == pytest.approx(_percentile_oracle(s, 90), abs=1e-12)


@given(
    pct_low=st.floats(0.5, 40),
    pct_high=st.floats(60, 99.5),
    seed=st.integers(0, 500),
)
@settings(max_examples=30, deadline=None)
def test_percentiles_match_oracle(pct_low, pct_high, seed):
    rng = np.random.default_rng(seed)
    fms = _random_fms(rng, [7, 13, 22], m=2)
    stats = fit_normalization(fms, pct_low, pct_high)
    stacked = np.concatenate([fm.values for fm in fms])
    for j in range(2):
        s = np.sort(stacked[:, j])
        assert stats.low_clip[j] == pytest.approx(_percentile_oracle(s, pct_low), rel=1e-12)
        assert stats.high_clip[j] == pytest.approx(_percentile_oracle(s, pct_high), rel=1e-12)


@given(
    values=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=60),
        elements=st.one_of(st.floats(-1e300, 1e300), st.sampled_from([-1.5, 0.0, 2.0])),
    ),
    pcts=st.lists(
        st.one_of(st.sampled_from([0.0, 5.0, 90.0, 100.0]), st.floats(0, 100)),
        min_size=2,
        max_size=2,
    ),
)
@settings(max_examples=300, deadline=None)
def test_clip_bounds_equal_numpy_percentile(values, pcts):
    # ties, one-row columns, magnitudes up to 1e300 and the bounds 0 and 100
    assert np.array_equal(_clip_bounds(values, tuple(pcts)), np.percentile(values, pcts, axis=0))


def test_zero_hundred_means_no_clipping():
    rng = np.random.default_rng(3)
    fms = _random_fms(rng, [10, 20])
    stats = fit_normalization(fms, 0, 100)
    assert np.isneginf(stats.low_clip).all()
    assert np.isposinf(stats.high_clip).all()
    stacked = np.concatenate([fm.values for fm in fms])
    np.testing.assert_allclose(stats.mean, stacked.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(stats.std, stacked.std(axis=0), rtol=1e-12)
    # values far outside the training range pass through unclipped
    out = apply_normalization(_fm(np.full((2, 3), 1e9)), stats)
    assert (out.values > 1e6).all()


def test_fit_normalization_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(EmptyDataset):
        fit_normalization([], 5, 90)
    with pytest.raises(ValueError):
        fit_normalization(_random_fms(rng, [5]), 90, 5)
    with pytest.raises(ValueError):
        fit_normalization(_random_fms(rng, [5]), -1, 90)
    a = _fm(np.zeros((4, 2)))
    b = _fm(np.zeros((4, 3)))
    with pytest.raises(ColumnMismatch):
        fit_normalization([a, b], 5, 90)


@pytest.mark.parametrize("pcts", [(5, 90), (0, 100)])
@pytest.mark.parametrize("big", [1e300, 1.7e308])
def test_fit_normalization_refuses_a_column_whose_statistics_overflow(pcts, big):
    # the variance of +-1e300 overflows, and so do the percentile spans and
    # the mean of values near the largest float; no RuntimeWarning escapes
    values = np.zeros((20, 2))
    values[:, 1] = big * (-1.0) ** np.arange(20)
    with pytest.raises(InvalidRange, match="column 'f1' spans too wide a range"):
        fit_normalization([_fm(values)], *pcts)


def test_prepare_is_each_matrix_normalized_then_cut_or_padded():
    # oracle: the FeatureMatrix forms, one matrix at a time
    rng = np.random.default_rng(5)
    fms = _random_fms(rng, [3, 7, 12, 7])
    stats = fit_normalization(fms[:2])
    policy = LengthPolicy(cutoff=7)
    x = prepare(fms, policy, stats)
    for j, fm in enumerate(fms):
        np.testing.assert_array_equal(
            x[:, j], fit_length(apply_normalization(fm, stats), policy).values)
    np.testing.assert_array_equal(prepare(fms, policy),
                                  np.stack([fit_length(fm, policy).values for fm in fms], 1))
    other = _fm(np.zeros((5, 3)), subject="s9")
    other.column_names = ["a", "b", "c"]
    with pytest.raises(ColumnMismatch, match=r"matrix columns \['a', 'b', 'c'\] do not match"):
        prepare([fms[0], other], policy, stats)
    huge = _fm(np.full((5, 3), 1e308), subject="s8")
    tiny = NormalizationStats(["f0", "f1", "f2"], np.zeros(3), np.full(3, 1e-10),
                              np.full(3, -np.inf), np.full(3, np.inf), 1)
    with pytest.raises(NonFiniteFeatures, match=r"recording \('s8', 't'\)"):
        prepare([fms[0], huge], policy, tiny)


def test_mean_std_computed_after_clipping():
    column = np.arange(1, 101, dtype=np.float64)
    stats = fit_normalization([_fm(column.reshape(-1, 1))], 5, 90)
    clipped = np.clip(column, stats.low_clip[0], stats.high_clip[0])
    assert stats.mean[0] == pytest.approx(clipped.mean(), rel=1e-12)
    assert stats.std[0] == pytest.approx(clipped.std(), rel=1e-12)
    # and not the plain statistics
    assert stats.mean[0] != pytest.approx(column.mean(), rel=1e-6)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fit_normalization_equals_numpy_mean_and_std_of_the_clipped_stack(data):
    # one-row inputs, constant columns, ties and the bounds 0 and 100
    m = data.draw(st.integers(1, 4))
    lengths = data.draw(st.lists(st.integers(1, 25), min_size=1, max_size=4))
    elements = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-1.5, 0.0, 0.1, 2.0]))
    values = [data.draw(hnp.arrays(np.float64, (t, m), elements=elements)) for t in lengths]
    for j in range(m):
        if data.draw(st.booleans()):
            constant = data.draw(elements)
            for v in values:
                v[:, j] = constant
    low_pct, high_pct = sorted(data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, 5.0, 90.0, 100.0]), st.floats(0, 100)),
        min_size=2, max_size=2, unique=True)))
    fms = [_fm(v) for v in values]
    before = [v.copy() for v in values]

    stats = fit_normalization(fms, low_pct, high_pct)

    clipped = np.clip(np.concatenate(before), stats.low_clip, stats.high_clip)
    std = np.std(clipped, axis=0)
    assert np.array_equal(stats.mean, np.mean(clipped, axis=0))
    assert np.array_equal(stats.std, np.where(std < STD_FLOOR, 1.0, std))
    for fm, v, old in zip(fms, values, before):
        assert fm.values is v and np.array_equal(v, old)


# ---------------------------------------------------------------------------
# applying normalization

def test_apply_identity_stats():
    fm = _fm(np.random.default_rng(2).normal(size=(6, 2)))
    stats = NormalizationStats(
        column_names=fm.column_names,
        mean=np.zeros(2),
        std=np.ones(2),
        low_clip=np.full(2, -np.inf),
        high_clip=np.full(2, np.inf),
        fitted_on=1,
    )
    out = apply_normalization(fm, stats)
    np.testing.assert_array_equal(out.values, fm.values)


def test_constant_column_std_floored():
    fm = _fm(np.full((10, 1), 7.25))
    stats = fit_normalization([fm], 5, 90)
    assert stats.std[0] == 1.0
    out = apply_normalization(fm, stats)
    np.testing.assert_array_equal(out.values, np.zeros((10, 1)))


def test_train_fitted_stats_standardize_train():
    rng = np.random.default_rng(11)
    fms = _random_fms(rng, [30, 45, 60], m=4)
    stats = fit_normalization(fms, 5, 90)
    transformed = np.concatenate([apply_normalization(fm, stats).values for fm in fms])
    np.testing.assert_allclose(transformed.mean(axis=0), np.zeros(4), atol=1e-9)
    np.testing.assert_allclose(transformed.std(axis=0), np.ones(4), atol=1e-9)


def test_apply_column_mismatch():
    fm = _fm(np.zeros((3, 2)))
    stats = fit_normalization([_fm(np.random.default_rng(0).normal(size=(5, 3)))], 5, 90)
    with pytest.raises(ColumnMismatch):
        apply_normalization(fm, stats)
    with pytest.raises(ColumnMismatch):
        apply_normalization(fm.values, stats)


@given(seed=st.integers(0, 300), low=st.floats(1, 30), high=st.floats(70, 99))
@settings(max_examples=30, deadline=None)
def test_apply_never_leaves_clip_interval(seed, low, high):
    rng = np.random.default_rng(seed)
    train = _random_fms(rng, [12, 18], m=2)
    other = _fm(rng.normal(size=(25, 2)) * 100)   # wilder than the train data
    stats = fit_normalization(train, low, high)
    out = apply_normalization(other, stats)
    lo_t = (stats.low_clip - stats.mean) / stats.std
    hi_t = (stats.high_clip - stats.mean) / stats.std
    assert (out.values >= lo_t - 1e-12).all()
    assert (out.values <= hi_t + 1e-12).all()


# ---------------------------------------------------------------------------
# stats round-trip file

def test_stats_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    fms = _random_fms(rng, [9, 14], m=3)
    stats = fit_normalization(fms, 5, 90)
    path = tmp_path / "norm.tsv"
    save_stats(stats, path)
    back = load_stats(path)
    assert back.column_names == stats.column_names
    assert back.fitted_on == stats.fitted_on
    np.testing.assert_array_equal(back.mean, stats.mean)
    np.testing.assert_array_equal(back.std, stats.std)
    np.testing.assert_array_equal(back.low_clip, stats.low_clip)
    np.testing.assert_array_equal(back.high_clip, stats.high_clip)


def test_stats_file_round_trip_with_infinite_clips(tmp_path):
    stats = fit_normalization([_fm(np.random.default_rng(0).normal(size=(8, 2)))], 0, 100)
    path = tmp_path / "norm.tsv"
    save_stats(stats, path)
    back = load_stats(path)
    assert np.isneginf(back.low_clip).all()
    assert np.isposinf(back.high_clip).all()


def test_stats_file_rejects_unknown_version(tmp_path):
    path = tmp_path / "norm.tsv"
    path.write_text("something-else v9\nfitted_on 3\n")
    with pytest.raises(ParseError):
        load_stats(path)


def _two_column_stats(mean0):
    return NormalizationStats(
        column_names=["a", "b"],
        mean=[mean0, 0.5],
        std=[1.0, 2.0],
        low_clip=[-1.0, -2.0],
        high_clip=[1.0, 2.0],
        fitted_on=3,
    )


def test_stats_rewritten_in_place_are_read_again(tmp_path):
    path = tmp_path / "norm.tsv"
    save_stats(_two_column_stats(1.5), path)
    stat = path.stat()
    assert load_stats(path).mean[0] == 1.5
    save_stats(_two_column_stats(2.5), path)
    # same size and mtime: only the bytes tell the files apart
    assert path.stat().st_size == stat.st_size
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert load_stats(path).mean[0] == 2.5


def test_changing_loaded_stats_leaves_the_next_load_unchanged(tmp_path):
    path = tmp_path / "norm.tsv"
    save_stats(_two_column_stats(1.5), path)
    first = load_stats(path)
    first.column_names.append("c")
    for arr in (first.mean, first.std, first.low_clip, first.high_clip):
        arr[:] = 9.0
    second = load_stats(path)
    assert second.column_names == ["a", "b"]
    assert second.mean.tolist() == [1.5, 0.5]
    assert second.std.tolist() == [1.0, 2.0]
    assert second.low_clip.tolist() == [-1.0, -2.0]
    assert second.high_clip.tolist() == [1.0, 2.0]


def test_corrupt_stats_after_a_good_load_raise_a_parse_error(tmp_path):
    path = tmp_path / "norm.tsv"
    save_stats(_two_column_stats(1.5), path)
    good = path.read_bytes()
    load_stats(path)
    path.write_bytes(good.replace(b"fitted_on 3", b"fitted_on x"))
    for _ in range(2):  # a file that failed to parse is never kept
        with pytest.raises(ParseError) as exc:
            load_stats(path)
        assert exc.value.path == str(path)
    path.write_bytes(good)
    assert load_stats(path).mean.tolist() == [1.5, 0.5]
