"""`make_splits` and `_carve_validation` as written before the three split
protocols were expressed through one `evaluation._partition`, kept verbatim
as the reference for the current ones (tests/test_evaluation.py).

Only the imports are new. The reference's k-fold size check counts
samples; the current one counts subjects, so the two are compared on
cohorts of at least k subjects, where neither check fires.
"""

from __future__ import annotations

import math

import numpy as np

from pendetect.errors import SingleClass, TooSmall
from pendetect.evaluation import CARVEOUT_FRACTION, SplitIndices
from pendetect.nn.model import SplitPlan
from pendetect.preprocess import round_half_up


def _subjects_by_class(dataset) -> tuple[dict[str, list[int]], dict[str, list[str]]]:
    """Group sample indices by subject, then subjects by label.

    Insertion order is preserved in both maps so the only randomness in a
    split comes from the seeded permutation.
    """
    indices: dict[str, list[int]] = {}
    label_of: dict[str, str] = {}
    for i, item in enumerate(dataset):
        indices.setdefault(item.subject_id, []).append(i)
        label_of.setdefault(item.subject_id, item.label)
    by_class: dict[str, list[str]] = {}
    for subject, label in label_of.items():
        by_class.setdefault(label, []).append(subject)
    if len(by_class) < 2:
        raise SingleClass(f"need two classes, found {sorted(by_class)}")
    return indices, by_class


def _expand(subjects: list[str], indices: dict[str, list[int]]) -> tuple[int, ...]:
    out: list[int] = []
    for s in subjects:
        out.extend(indices[s])
    return tuple(sorted(out))


def make_splits(dataset, plan: SplitPlan) -> list[SplitIndices]:
    """Build stratified, subject-grouped splits of `dataset`.

    For k-fold, per-class remainders are assigned one at a time to the
    fold with the smallest running total (ties to the lowest index), so
    fold sizes never differ by more than one more than necessary. For
    holdout, each class contributes round-half-up(train_frac*n) subjects
    to train, floor(val_frac*n) to val, and the remainder to test; run r
    draws its permutation from seed [plan.seed, r].
    """
    indices, by_class = _subjects_by_class(dataset)
    labels = sorted(by_class)

    if plan.kind == "kfold":
        k = plan.k
        if len(dataset) < k:
            raise TooSmall(f"{len(dataset)} samples cannot fill {k} folds")
        totals = [0] * k
        class_sizes: dict[str, list[int]] = {}
        for label in labels:
            n_c = len(by_class[label])
            sizes = [n_c // k] * k
            for _ in range(n_c % k):
                j = min(range(k), key=lambda f: (totals[f] + sizes[f], f))
                sizes[j] += 1
            class_sizes[label] = sizes
            for f in range(k):
                totals[f] += sizes[f]

        rng = np.random.default_rng([plan.seed, 0])
        fold_subjects: list[list[str]] = [[] for _ in range(k)]
        for label in labels:
            pool = by_class[label]
            order = [pool[j] for j in rng.permutation(len(pool))]
            pos = 0
            for f in range(k):
                take = class_sizes[label][f]
                fold_subjects[f].extend(order[pos : pos + take])
                pos += take

        splits = []
        for f in range(k):
            test = set(fold_subjects[f])
            train = [s for fold in fold_subjects for s in fold if s not in test]
            splits.append(
                SplitIndices(
                    train=_expand(train, indices),
                    val=(),
                    test=_expand(fold_subjects[f], indices),
                )
            )
        return splits

    splits = []
    for run in range(plan.n_runs):
        rng = np.random.default_rng([plan.seed, run])
        train: list[str] = []
        val: list[str] = []
        test: list[str] = []
        for label in labels:
            pool = by_class[label]
            order = [pool[j] for j in rng.permutation(len(pool))]
            n_c = len(pool)
            n_train = round_half_up(plan.train_frac * n_c)
            n_val = int(math.floor(plan.val_frac * n_c))
            n_test = n_c - n_train - n_val
            if n_train < 1 or n_test < 1:
                raise TooSmall(
                    f"class {label}: {n_c} subjects leave train={n_train}, "
                    f"test={n_test}"
                )
            train.extend(order[:n_train])
            val.extend(order[n_train : n_train + n_val])
            test.extend(order[n_train + n_val :])
        splits.append(
            SplitIndices(
                train=_expand(train, indices),
                val=_expand(val, indices),
                test=_expand(test, indices),
            )
        )
    return splits


def _carve_validation(
    train_idx: tuple[int, ...], matrices, seed_words
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Move ~10% of the training subjects, stratified, into a val set.

    Each class gives up at least one subject whenever it can spare one,
    so that requesting early stopping always yields a validation signal
    even on small cohorts.
    """
    labels: dict[str, list[str]] = {}
    for i in train_idx:
        fm = matrices[i]
        if fm.subject_id not in labels.setdefault(fm.label, []):
            labels[fm.label].append(fm.subject_id)
    rng = np.random.default_rng(seed_words)
    val_subjects: set[str] = set()
    for label in sorted(labels):
        pool = labels[label]
        n_val = int(math.floor(CARVEOUT_FRACTION * len(pool)))
        if n_val == 0 and len(pool) >= 2:
            n_val = 1
        order = rng.permutation(len(pool))
        val_subjects.update(pool[j] for j in order[:n_val])
    val = tuple(sorted(i for i in train_idx if matrices[i].subject_id in val_subjects))
    train = tuple(i for i in train_idx if matrices[i].subject_id not in val_subjects)
    return train, val
