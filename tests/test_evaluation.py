import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_splits

from pendetect.errors import IoError, NonFiniteFeatures, SingleClass, TooSmall, TrainingError
from pendetect.evaluation import (
    ROC_FILE_VERSION,
    ExperimentReport,
    SplitPlan,
    _Cohort,
    _carve_validation,
    _prepare_folds,
    compute_roc,
    emit_roc,
    make_splits,
    metrics_from_scores,
    roc_auc_from_points,
    run_ablation_grid,
    run_experiment,
)
from pendetect.features import FeatureGroupSelection, FeatureMatrix, assemble_features
from pendetect.nn import CELLS, ModelSpec, TrainConfig
from pendetect.preprocess import PrepConfig, apply_normalization, fit_length
from pendetect.signal_io import generate_synthetic


@dataclasses.dataclass(frozen=True)
class Sample:
    subject_id: str
    label: str


def _cohort(n_pd, n_hc, samples_per_subject=1):
    out = []
    for label, n in (("PD", n_pd), ("HC", n_hc)):
        for i in range(n):
            for _ in range(samples_per_subject):
                out.append(Sample(f"{label.lower()}{i:03d}", label))
    return out


def _auc_pairwise(scores):
    pos = [p for p, y in scores if y == 1]
    neg = [p for p, y in scores if y == 0]
    wins = sum(1 for a in pos for b in neg if a > b)
    ties = sum(1 for a in pos for b in neg if a == b)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# split plans and splits

def test_split_plan_validation():
    with pytest.raises(ValueError):
        SplitPlan.kfold(1, seed=0)
    with pytest.raises(ValueError):
        SplitPlan(kind="holdout", train_frac=0.7, val_frac=0.1, test_frac=0.1, n_runs=5, seed=0)
    with pytest.raises(ValueError):
        SplitPlan(kind="holdout", train_frac=0.65, val_frac=0.10, test_frac=0.25, n_runs=0, seed=0)
    with pytest.raises(ValueError):
        SplitPlan(kind="bootstrap", seed=0)


def test_kfold_72_samples_balanced():
    data = _cohort(36, 36)
    splits = make_splits(data, SplitPlan.kfold(10, seed=4))
    assert len(splits) == 10
    sizes = sorted(len(s.test) for s in splits)
    assert set(sizes) <= {7, 8}
    assert sum(sizes) == 72
    for s in splits:
        pd = sum(1 for i in s.test if data[i].label == "PD")
        hc = len(s.test) - pd
        assert abs(pd - hc) <= 1
        assert len(s.val) == 0
        assert len(s.train) + len(s.test) == 72


def test_kfold_folds_disjoint_and_cover():
    data = _cohort(13, 9)
    splits = make_splits(data, SplitPlan.kfold(4, seed=1))
    seen = []
    for s in splits:
        assert set(s.train).isdisjoint(s.test)
        seen.extend(s.test)
    assert sorted(seen) == list(range(len(data)))


def test_kfold_2_on_4_samples_forced_stratification():
    data = _cohort(2, 2)
    splits = make_splits(data, SplitPlan.kfold(2, seed=9))
    for s in splits:
        labels = sorted(data[i].label for i in s.test)
        assert labels == ["HC", "PD"]


def test_kfold_remainder_assignment_oracle():
    # 5 HC and 7 PD into 3 folds: HC remainders land on folds 0 and 1,
    # the PD remainder must then flow to fold 2, evening totals out at 4
    data = _cohort(7, 5)
    splits = make_splits(data, SplitPlan.kfold(3, seed=0))
    per_fold = []
    for s in splits:
        hc = sum(1 for i in s.test if data[i].label == "HC")
        pd = len(s.test) - hc
        per_fold.append((hc, pd))
    assert [h + p for h, p in per_fold] == [4, 4, 4]
    assert [h for h, _ in per_fold] == [2, 2, 1]
    assert [p for _, p in per_fold] == [2, 2, 3]


def test_kfold_deterministic_and_seed_sensitive():
    data = _cohort(10, 10)
    a = make_splits(data, SplitPlan.kfold(5, seed=3))
    b = make_splits(data, SplitPlan.kfold(5, seed=3))
    c = make_splits(data, SplitPlan.kfold(5, seed=4))
    assert a == b
    assert a != c


def test_holdout_66_subjects_sizes():
    data = _cohort(31, 35)
    splits = make_splits(data, SplitPlan(kind="holdout", train_frac=0.65,
                                         val_frac=0.10, test_frac=0.25, n_runs=20, seed=7))
    assert len(splits) == 20
    for s in splits:
        assert (len(s.train), len(s.val), len(s.test)) == (43, 6, 17)
        pd_train = sum(1 for i in s.train if data[i].label == "PD")
        pd_val = sum(1 for i in s.val if data[i].label == "PD")
        pd_test = sum(1 for i in s.test if data[i].label == "PD")
        assert (pd_train, pd_val, pd_test) == (20, 3, 8)
    # runs are re-randomized, not copies of one partition
    assert len({s.train for s in splits}) > 1


def test_holdout_partitions_cover_each_run():
    data = _cohort(9, 8)
    splits = make_splits(data, SplitPlan(kind="holdout", train_frac=0.65,
                                         val_frac=0.10, test_frac=0.25, n_runs=3, seed=1))
    for s in splits:
        combined = sorted(s.train + s.val + s.test)
        assert combined == list(range(len(data)))


def test_subject_samples_stay_together():
    data = _cohort(6, 6, samples_per_subject=4)
    for plan in (
        SplitPlan.kfold(3, seed=2),
        SplitPlan(kind="holdout", train_frac=0.65,
                  val_frac=0.10, test_frac=0.25, n_runs=4, seed=2),
    ):
        for s in make_splits(data, plan):
            for part in (s.train, s.val, s.test):
                subjects = {data[i].subject_id for i in part}
                for other in (s.train, s.val, s.test):
                    if other is part:
                        continue
                    assert subjects.isdisjoint(data[i].subject_id for i in other)
            # grouped subjects bring all four samples along
            for subject in {data[i].subject_id for i in s.test}:
                assert sum(1 for i in s.test if data[i].subject_id == subject) == 4


def test_split_errors():
    with pytest.raises(SingleClass):
        make_splits(_cohort(5, 0), SplitPlan.kfold(2, seed=0))
    with pytest.raises(TooSmall):
        make_splits(_cohort(3, 2), SplitPlan.kfold(10, seed=0))
    # 32 samples but 4 subjects: counting samples let this through, and 6 of
    # the 10 folds tested nothing
    with pytest.raises(TooSmall, match=r"^4 subjects cannot fill 10 folds$"):
        make_splits(_cohort(2, 2, samples_per_subject=8), SplitPlan.kfold(10, seed=0))
    with pytest.raises(TooSmall):
        # a single-subject class cannot give both train and test a member
        make_splits(_cohort(1, 10), SplitPlan(kind="holdout", train_frac=0.65,
                                              val_frac=0.10, test_frac=0.25, n_runs=1, seed=0))


def _outcome(call):
    """What `call()` returns, or the type and message of what it raises."""
    try:
        return call()
    except (SingleClass, TooSmall) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    pd_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=25),
    hc_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=25),
    kind=st.sampled_from(["kfold", "holdout"]),
    k=st.integers(2, 6),
    twentieths=st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(lambda t: sum(t) <= 20),
    n_runs=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_splits_and_carve_out_match_the_reference(pd_sizes, hc_sizes, kind, k, twentieths,
                                                  n_runs, seed, data):
    # PD subject i has pd_sizes[i] samples, and so on; the samples are
    # shuffled so that a subject's samples are not adjacent
    assume(len(pd_sizes) + len(hc_sizes) >= k)
    rows = [Sample(f"{label.lower()}{i:02d}", label)
            for label, counts in (("PD", pd_sizes), ("HC", hc_sizes))
            for i, n in enumerate(counts) for _ in range(n)]
    rows = data.draw(st.permutations(rows))
    if kind == "kfold":
        plan = SplitPlan.kfold(k, seed=seed)
    else:
        train, val = twentieths
        plan = SplitPlan(kind="holdout", train_frac=train / 20, val_frac=val / 20,
                         test_frac=(20 - train - val) / 20, n_runs=n_runs, seed=seed)
    splits = _outcome(lambda: make_splits(rows, plan))
    assert splits == _outcome(lambda: reference_splits.make_splits(rows, plan))
    if isinstance(splits, tuple):
        return
    for fold_i, split in enumerate(splits):
        words = [seed, 31, fold_i]
        assert _carve_validation(split.train, rows, words) == \
            reference_splits._carve_validation(split.train, rows, words)


@settings(max_examples=40, deadline=None)
@given(
    n_pd=st.integers(2, 25),
    n_hc=st.integers(2, 25),
    k=st.integers(2, 6),
    seed=st.integers(0, 10),
)
def test_kfold_properties(n_pd, n_hc, k, seed):
    assume(n_pd + n_hc >= k)
    data = _cohort(n_pd, n_hc)
    splits = make_splits(data, SplitPlan.kfold(k, seed=seed))
    seen = []
    sizes = []
    for s in splits:
        assert set(s.train).isdisjoint(s.test)
        seen.extend(s.test)
        sizes.append(len(s.test))
        pd = sum(1 for i in s.test if data[i].label == "PD")
        # stratification: each fold's class share is within one of exact
        assert abs(pd - n_pd / k) < 1 + 1e-9
    assert sorted(seen) == list(range(len(data)))
    assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# roc and metrics

def _auc(scores):
    return roc_auc_from_points(compute_roc(scores))


def test_auc_perfect_separation():
    assert _auc([(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]) == 1.0


def test_auc_all_ties():
    assert _auc([(0.4, 1), (0.4, 0), (0.4, 1), (0.4, 0)]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(SingleClass):
        _auc([(0.9, 1), (0.8, 1)])


def test_auc_matches_pairwise_oracle_random():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(4, 40))
        ys = rng.integers(0, 2, size=n)
        if ys.min() == ys.max():
            ys[0] = 1 - ys[0]
        # quantized scores produce plenty of exact ties
        ps = np.round(rng.random(n), 1)
        scores = list(zip(ps.tolist(), ys.tolist()))
        assert _auc(scores) == pytest.approx(_auc_pairwise(scores), abs=1e-12)


def test_roc_shape_perfect_classifier():
    roc = compute_roc([(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)])
    assert roc[0] == (0.0, 0.0)
    assert roc[-1] == (1.0, 1.0)
    assert (0.0, 1.0) in roc


def test_roc_all_tied_is_single_diagonal_segment():
    roc = compute_roc([(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)])
    assert roc == [(0.0, 0.0), (1.0, 1.0)]


def test_roc_monotone():
    rng = np.random.default_rng(5)
    ys = [1, 0] * 20
    ps = np.round(rng.random(40), 2).tolist()
    roc = compute_roc(list(zip(ps, ys)))
    for (x0, y0), (x1, y1) in zip(roc, roc[1:]):
        assert x1 >= x0
        assert y1 >= y0


def test_metrics_hand_case():
    scores = [(0.9, 1), (0.6, 1), (0.4, 1), (0.8, 0), (0.3, 0), (0.2, 0)]
    m = metrics_from_scores(scores)
    assert m["confusion"] == {"tp": 2, "fp": 1, "tn": 2, "fn": 1}
    assert m["accuracy"] == pytest.approx(4 / 6)
    assert m["sensitivity"] == pytest.approx(2 / 3)
    assert m["specificity"] == pytest.approx(2 / 3)
    assert m["auc"] == pytest.approx(_auc_pairwise(scores), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_auc_trapezoid_equals_pairwise(data):
    n = data.draw(st.integers(4, 30))
    ys = data.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
            lambda v: 0 < sum(v) < len(v)
        )
    )
    ps = data.draw(
        st.lists(
            st.integers(0, 8).map(lambda q: q / 8.0), min_size=n, max_size=n
        )
    )
    scores = list(zip(ps, ys))
    assert _auc(scores) == pytest.approx(_auc_pairwise(scores), abs=1e-12)


# ---------------------------------------------------------------------------
# experiments

def _quick_dataset(n=6, seed=5):
    return generate_synthetic(n, (40, 60), 1.0, seed=seed)


def _quick_config(**overrides):
    base = dict(epochs=2, batch_size=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def test_run_experiment_report_structure():
    seqs = _quick_dataset()
    sel = FeatureGroupSelection.of("kinematic")
    plan = SplitPlan.kfold(3, seed=2)
    report = run_experiment(seqs, sel, None, _quick_config(), plan)

    assert report.kind == "experiment"
    assert len(report.per_fold) == 3
    for key in ("accuracy", "auc", "sensitivity", "specificity"):
        expected = sum(f["metrics"][key] for f in report.per_fold) / 3
        assert report.aggregate[key] == pytest.approx(expected, abs=1e-15)
    total = report.aggregate["confusion_total"]
    assert sum(total.values()) == len(seqs)

    flags = report.config["flags"]
    assert flags["cutoff_scope"] == "train"
    assert flags["normalize"] is True
    assert flags["stratified"] is True
    assert report.config["feature_groups"] == ["kinematic"]
    assert report.config["input_size"] == 16

    # pooled AUC must agree with a recomputation from the logged samples
    scores = [
        (row["p"], row["y"])
        for fold in report.per_fold
        for row in fold["samples"]
        if row["role"] == "test"
    ]
    assert report.pooled["auc"] == pytest.approx(_auc(scores), abs=1e-15)

    table = report.to_table()
    assert "pooled auc" in table
    assert table.count("\n") >= 6


def test_run_experiment_deterministic():
    seqs = _quick_dataset()
    sel = FeatureGroupSelection.of("pressure")
    plan = SplitPlan.kfold(3, seed=2)
    a = run_experiment(seqs, sel, None, _quick_config(), plan)
    b = run_experiment(seqs, sel, None, _quick_config(), plan)
    assert a.fingerprint() == b.fingerprint()
    assert a.to_json() != ""


def test_run_experiment_artifacts_and_cutoff_scope():
    seqs = _quick_dataset()
    sel = FeatureGroupSelection.of("raw")
    plan = SplitPlan.kfold(3, seed=0)
    art = {}
    report = run_experiment(
        seqs, sel, None, _quick_config(), plan, prep=PrepConfig(cutoff_scope="all"),
        out_artifacts=art,
    )
    assert set(art) >= {"model", "policy", "stats", "report"}
    matrices = [assemble_features(s, sel) for s in seqs]
    from pendetect.preprocess import compute_cutoff

    expected = compute_cutoff(matrices).cutoff
    assert all(f["cutoff"] == expected for f in report.per_fold)
    assert report.config["flags"]["cutoff_scope"] == "all"
    with pytest.raises(ValueError):
        PrepConfig(cutoff_scope="test")


def test_run_experiment_without_normalization():
    seqs = _quick_dataset()
    sel = FeatureGroupSelection.of("raw")
    plan = SplitPlan.kfold(2, seed=0)
    art = {}
    report = run_experiment(
        seqs, sel, None, _quick_config(), plan, prep=PrepConfig(normalize=False),
        out_artifacts=art,
    )
    assert report.config["flags"]["normalize"] is False
    assert art["stats"] is None


def test_label_shuffle_is_visible_in_the_audit_trail():
    seqs = _quick_dataset(n=8)
    sel = FeatureGroupSelection.of("raw")
    plan = SplitPlan.kfold(2, seed=3)

    def train_mismatches(report):
        from pendetect.signal_io import LABEL_TO_Y

        return sum(
            1
            for fold in report.per_fold
            for row in fold["samples"]
            if row["role"] == "train" and row["y"] != LABEL_TO_Y[row["label"]]
        )

    plain = run_experiment(seqs, sel, None, _quick_config(), plan)
    shuffled = run_experiment(
        seqs, sel, None, _quick_config(), plan, shuffle_labels=True
    )
    assert train_mismatches(plain) == 0
    assert train_mismatches(shuffled) > 0
    assert shuffled.config["flags"]["shuffle_labels"] is True


def test_early_stop_carveout_in_kfold():
    seqs = _quick_dataset(n=12)
    sel = FeatureGroupSelection.of("raw")
    plan = SplitPlan.kfold(2, seed=1)
    config = _quick_config(epochs=4, early_stop_patience=2)
    report = run_experiment(seqs, sel, None, config, plan)
    assert report.config["flags"]["early_stop_carveout"] is True
    for fold in report.per_fold:
        assert fold["early_stop_carveout"] is True
        assert fold["sizes"]["val"] > 0
        assert fold["training"]["stopping_rule"] == "early_stopping(patience=2)"
        # carved subjects leave the training side
        roles = {row["subject_id"]: row["role"] for row in fold["samples"]}
        assert "val" in roles.values()



def test_fold_scores_every_role_in_one_pass(monkeypatch):
    # training is stubbed out, so every eval forward is the fold's scoring:
    # train, val and test pairs share one chunk, whatever the batch size
    from pendetect.nn import SequenceClassifier, TrainResult

    seqs = _quick_dataset(n=12)
    sel = FeatureGroupSelection.of("raw")
    config = _quick_config(batch_size=8, early_stop_patience=2)
    chunks = []
    forward = SequenceClassifier.forward

    def counting_forward(model, values, train=False, rng=None):
        if not train:
            chunks.append(len(values))
        return forward(model, values, train, rng)

    monkeypatch.setattr(SequenceClassifier, "forward", counting_forward)
    monkeypatch.setattr(
        "pendetect.evaluation.train_model",
        lambda *args, **kwargs: TrainResult(epoch_losses=[0.0], wall_clock_epoch_seconds=[0.0]),
    )
    report = run_experiment(seqs, sel, None, config, SplitPlan.kfold(2, seed=1))
    totals = [sum(fold["sizes"].values()) for fold in report.per_fold]
    assert all(fold["sizes"]["val"] > 0 for fold in report.per_fold)
    assert chunks == totals

def _matrices(lengths, seed=0, m=3):
    """Hand-made feature matrices, labels alternating, one recording per subject."""
    rng = np.random.default_rng(seed)
    return [
        FeatureMatrix(
            values=rng.random((t, m)), column_names=[f"c{j}" for j in range(m)],
            column_groups=["raw"] * m, label=("PD", "HC")[i % 2],
            subject_id=f"s{i:02d}", task_id="spiral",
        )
        for i, t in enumerate(lengths)
    ]


@pytest.mark.parametrize(
    "config, flags",
    [
        (_quick_config(), {}),
        (_quick_config(), {"prep": PrepConfig(normalize=False)}),
        (_quick_config(), {"prep": PrepConfig(cutoff_scope="all")}),
        (_quick_config(), {"shuffle_labels": True}),
        (_quick_config(), {"prep": PrepConfig(clip_pcts=(0.0, 100.0))}),
        (_quick_config(early_stop_patience=2), {}),
    ],
    ids=["default", "normalize-off", "cutoff-all", "shuffle-labels", "no-clip", "carve-out"],
)
def test_fold_array_equals_the_per_recording_pipeline(config, flags):
    # every length from 20 to 40: a fold's cutoff, near 30, meets shorter,
    # equal and longer recordings
    matrices = _matrices(list(range(20, 41)) + [30, 30, 30])
    plan = SplitPlan.kfold(3, seed=1)
    folds = list(_prepare_folds(matrices, plan, config, **flags))
    seen = set()
    for fold in folds:
        assert fold.carved == (config.early_stop_patience is not None)
        rows = [matrices[i] for _, i in fold.split.rows()]
        expected = np.stack([
            fit_length(fm if fold.stats is None else apply_normalization(fm, fold.stats),
                       fold.policy).values
            for fm in rows
        ], axis=1)
        assert fold.x.shape == (fold.policy.cutoff, len(rows), 3)
        assert np.array_equal(fold.x, expected)
        assert fold.x.tobytes() == expected.tobytes()  # signed zeros too
        seen.update(np.sign([fm.length - fold.policy.cutoff for fm in rows]).tolist())
    assert seen == {-1, 0, 1}


_HOLDOUT = SplitPlan(kind="holdout", train_frac=0.5, val_frac=0.0, test_frac=0.5, n_runs=1, seed=3)
_NO_CLIP = PrepConfig(clip_pcts=(0.0, 100.0))


def _overflowing_test_recording(length: int, row: int):
    """Twelve 40-row matrices with values in [0, 1), and the index of one
    that the holdout split tests on, now `length` rows long with 1e308 at
    `row`: finite, but past the float range once z-scored. Training never
    sees it, so the fitted stats stay finite."""
    matrices = _matrices([40] * 12)
    (split,) = make_splits(matrices, _HOLDOUT)
    i = split.test[0]
    values = np.random.default_rng(1).random((length, 3))
    values[row, 1] = 1e308
    matrices[i] = dataclasses.replace(matrices[i], values=values)
    return matrices, i


def test_normalized_overflow_inside_the_cutoff_names_the_recording():
    matrices, i = _overflowing_test_recording(40, row=5)
    named = rf"\('{matrices[i].subject_id}', 'spiral'\).*\['c1'\]"
    with pytest.raises(NonFiniteFeatures, match=named):
        list(_prepare_folds(matrices, _HOLDOUT, _quick_config(), _NO_CLIP))


def test_normalized_overflow_past_the_cutoff_trains():
    # only the rows the model reads are normalized: a value past the cutoff
    # that would overflow is never z-scored
    matrices, i = _overflowing_test_recording(60, row=50)
    config = _quick_config(epochs=1)
    folds = _prepare_folds(matrices, _HOLDOUT, config, _NO_CLIP)
    report = run_experiment(_Cohort(matrices, folds), FeatureGroupSelection.of("raw"),
                            None, config, _HOLDOUT, prep=_NO_CLIP)
    (fold,) = report.per_fold
    assert fold["cutoff"] < matrices[i].length
    assert all(math.isfinite(s["p"]) for s in fold["samples"])


def test_training_error_carries_fold_index(monkeypatch):
    seqs = _quick_dataset()
    sel = FeatureGroupSelection.of("raw")

    def boom(*args, **kwargs):
        raise TrainingError("synthetic failure")

    monkeypatch.setattr("pendetect.evaluation.train_model", boom)
    with pytest.raises(TrainingError) as exc:
        run_experiment(seqs, sel, None, _quick_config(), SplitPlan.kfold(2, seed=0))
    assert exc.value.fold_index == 0
    # four subjects per class cannot test both classes in each of five folds:
    # refused, naming the fold and the class, before any fold trains
    with pytest.raises(TooSmall, match=r"fold 3 tests no PD subject: with k = 5, each class"):
        run_experiment(_quick_dataset(4), sel, None, _quick_config(), SplitPlan.kfold(5, seed=0))


def test_ablation_grid_structure():
    seqs = generate_synthetic(4, (30, 40), 1.0, seed=6)
    sel = FeatureGroupSelection.of("pressure")
    plan = SplitPlan.kfold(2, seed=4)
    config = TrainConfig(epochs=1, batch_size=8, seed=0)
    report = run_ablation_grid(seqs, sel, config, plan)

    expected = {
        f"{cell}/{tag}"
        for cell in ("rnn", "lstm", "gru")
        for tag in ("with_conv", "without_conv")
    }
    assert set(report.cells) == expected
    assert report.kind == "ablation"
    for cell in report.cells.values():
        assert 0.0 <= cell["aggregate"]["accuracy"] <= 1.0
        assert cell["wall_clock_mean_epoch_seconds"] > 0
    assert len([n for n in report.notes if n.startswith("soft check")]) == 3
    assert sorted(report.config["grid_cells"]) == sorted(expected)
    table = report.to_table()
    assert len([n for n in table.splitlines() if n.startswith("wall clock")]) == 3
    assert "sec/epoch" in table
    for name in expected:
        assert name in table

def test_ablation_grid_derives_features_and_splits_once(monkeypatch):
    import pendetect.evaluation as evaluation
    import pendetect.preprocess as preprocess

    seqs = generate_synthetic(3, (30, 40), 1.0, seed=6)
    sel = FeatureGroupSelection.of("pressure")
    plan = SplitPlan.kfold(2, seed=4)
    config = TrainConfig(epochs=1, batch_size=8, seed=0)
    calls = dict.fromkeys(
        ("assemble_features", "make_splits", "fit_normalization", "apply_normalization",
         "fit_length"),
        0,
    )
    specs = []
    for name in calls:
        # preprocess.prepare cuts and normalizes a fold with its module's own names
        module = preprocess if name in ("apply_normalization", "fit_length") else evaluation
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    run_one = evaluation.run_experiment

    def recording_run_experiment(dataset, feature_selection, model_spec, *args, **kwargs):
        specs.append(model_spec)
        return run_one(dataset, feature_selection, model_spec, *args, **kwargs)

    monkeypatch.setattr(evaluation, "run_experiment", recording_run_experiment)
    report = run_ablation_grid(seqs, sel, config, plan)
    # every fold is prepared once, for all six cells: its rows are
    # normalized in one call and length-fitted in one call
    assert calls == {
        "assemble_features": len(seqs),
        "make_splits": 1,
        "fit_normalization": 2,
        "apply_normalization": 2,
        "fit_length": 2,
    }
    assert len(specs) == 6 and all(isinstance(spec, ModelSpec) for spec in specs)

    # a shared cohort gives each cell the numbers of a run of its own
    alone = run_one(seqs, sel, ModelSpec.reference(2, cell="lstm", with_conv=False), config, plan)
    assert report.cells["lstm/without_conv"]["aggregate"] == alone.aggregate
    assert report.cells["lstm/without_conv"]["pooled_auc"] == alone.pooled["auc"]


def test_ablation_grid_shares_carved_out_folds():
    # early stopping carves a validation set out of every k-fold split; the
    # carve-out is part of the shared fold, and each cell still matches a
    # run of its own
    seqs = generate_synthetic(3, (30, 40), 1.0, seed=6)
    sel = FeatureGroupSelection.of("pressure")
    plan = SplitPlan.kfold(2, seed=4)
    config = TrainConfig(epochs=2, batch_size=4, seed=0, early_stop_patience=1)
    report = run_ablation_grid(seqs, sel, config, plan)
    assert report.config["flags"]["early_stop_carveout"] is True
    for cell in CELLS:
        for with_conv in (True, False):
            name = f"{cell}/{'with_conv' if with_conv else 'without_conv'}"
            spec = ModelSpec.reference(2, cell=cell, with_conv=with_conv)
            alone = run_experiment(seqs, sel, spec, config, plan)
            assert report.cells[name]["aggregate"] == alone.aggregate, name
            assert report.cells[name]["pooled_auc"] == alone.pooled["auc"], name


def test_ablation_fingerprint_does_not_depend_on_the_clock(monkeypatch):
    seqs = generate_synthetic(3, (30, 40), 1.0, seed=6)
    sel = FeatureGroupSelection.of("pressure")
    plan = SplitPlan.kfold(2, seed=4)
    config = TrainConfig(epochs=1, batch_size=8, seed=0)
    fingerprints = []
    for tick in (1.0, 3.0):
        clock = itertools.count(step=tick)
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(clock)))
        report = run_ablation_grid(seqs, sel, config, plan)
        fingerprints.append(report.fingerprint())
    assert fingerprints[0] == fingerprints[1]


# ---------------------------------------------------------------------------
# roc files

def test_emit_roc_round_trip(tmp_path):
    seqs = _quick_dataset()
    sel = FeatureGroupSelection.of("kinematic")
    report = run_experiment(seqs, sel, None, _quick_config(), SplitPlan.kfold(3, seed=2))
    path = tmp_path / "roc.csv"
    emit_roc(report, path)

    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:3] == [f"# {ROC_FILE_VERSION}", f"# auc={report.pooled['auc']!r}", "fpr,tpr"]
    stated = float(lines[1].removeprefix("# auc="))
    points = [tuple(map(float, line.split(","))) for line in lines[3:]]
    assert stated == report.pooled["auc"]
    assert abs(roc_auc_from_points(points) - stated) < 1e-9
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)


def test_emit_roc_errors(tmp_path):
    report = ExperimentReport(kind="experiment", seed=0, config={})
    with pytest.raises(ValueError):
        emit_roc(report, tmp_path / "roc.csv")
    report.pooled = {"auc": 1.0, "roc_points": [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}
    with pytest.raises(IoError):
        emit_roc(report, tmp_path / "missing" / "roc.csv")


def test_report_fingerprint_drops_only_wall_clock():
    report = ExperimentReport(
        kind="experiment",
        seed=1,
        config={"x": 1},
        per_fold=[{"metrics": {"accuracy": 1.0}, "wall_clock_train_seconds": 5.0}],
        aggregate={"accuracy": 1.0},
        pooled={"auc": 1.0, "roc_points": [[0.0, 0.0], [1.0, 1.0]]},
        wall_clock_total_seconds=9.0,
    )
    fp = report.fingerprint()
    assert "wall_clock" not in fp
    assert '"accuracy":1.0' in fp
    assert "9.0" not in fp
