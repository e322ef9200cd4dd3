"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with -rP/-s or on
failure) and asserts the criterion at its stated tolerance. The two
dataset-dependent tests skip with an explanation when the restricted
datasets are not available; they do not gate the suite.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pendetect.cli import load_config, main
from pendetect.evaluation import (
    SplitPlan,
    compute_roc,
    roc_auc_from_points,
    run_experiment,
    strip_wall_clock,
)
from pendetect.features import FeatureGroupSelection, assemble_features
from pendetect.nn import (
    Conv1dSpec,
    ModelSpec,
    RecurrentSpec,
    SequenceClassifier,
    TrainConfig,
    gradient_check,
)
from pendetect.nn.layers import Conv1d
from pendetect.signal_io import SignalSequence, generate_synthetic, load_dataset, load_manifest


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _random_tablet(rng, n) -> SignalSequence:
    return SignalSequence(
        subject_id="acc",
        task_id="t",
        label="PD",
        channels={
            "x": np.cumsum(rng.integers(-40, 41, n)).astype(np.float64) + 2000,
            "y": np.cumsum(rng.integers(-40, 41, n)).astype(np.float64) + 2000,
            "timestamp": np.arange(n, dtype=np.float64),
            "pressure": rng.integers(0, 1000, n).astype(np.float64),
            "tilt_x": rng.integers(0, 900, n).astype(np.float64),
            "tilt_y": rng.integers(0, 900, n).astype(np.float64),
            "button": np.ones(n),
        },
        sample_rate_hz=200.0,
    )


# ---------------------------------------------------------------------------
# 1. gradient correctness, per layer type, 100 randomized instances each


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(20240001)
    t0 = time.perf_counter()
    worst = 0.0
    worst_kind = ""

    def spec_for(kind, m):
        units = int(rng.integers(1, 5))
        if kind == "conv1d":
            return ModelSpec(
                conv_layers=(
                    Conv1dSpec(
                        in_channels=m,
                        out_channels=int(rng.integers(1, 4)),
                        kernel=int(rng.integers(2, 4)),
                        stride=int(rng.integers(1, 3)),
                    ),
                ),
                recurrent_layers=(RecurrentSpec("rnn", 2, bidirectional=False),),
            )
        if kind == "bidirectional":
            cell = ("rnn", "lstm", "gru")[int(rng.integers(0, 3))]
            return ModelSpec(
                conv_layers=(),
                recurrent_layers=(RecurrentSpec(cell, units, bidirectional=True),),
            )
        if kind == "dense-sigmoid":
            # the head is exercised in every instance; vary its input width
            return ModelSpec(
                conv_layers=(),
                recurrent_layers=(
                    RecurrentSpec("gru", units, bidirectional=bool(rng.integers(0, 2))),
                ),
            )
        return ModelSpec(
            conv_layers=(),
            recurrent_layers=(RecurrentSpec(kind, units, bidirectional=False),),
        )

    kinds = ("conv1d", "rnn", "lstm", "gru", "bidirectional", "dense-sigmoid")
    for kind in kinds:
        for _ in range(100):
            m = int(rng.integers(1, 4))
            spec = spec_for(kind, m)
            model = SequenceClassifier(spec, m, np.random.default_rng(int(rng.integers(1 << 30))))
            t_min = model.min_input_length()
            t = int(rng.integers(t_min, max(t_min + 1, 13)))
            x = np.random.default_rng(int(rng.integers(1 << 30))).normal(size=(t, m))
            err = gradient_check(model, x, int(rng.integers(0, 2)), epsilon=1e-4)
            if err > worst:
                worst, worst_kind = err, kind

    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        worst < 1e-3 and elapsed < 120.0,
        f"600 gradient checks, max rel err {worst:.3e} ({worst_kind}), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. conv output length and values against a naive triple loop


def _naive_conv(x, w, b, stride, relu):
    t_in, _ = x.shape
    k, c_in, c_out = w.shape
    t_out = (t_in - k) // stride + 1
    out = np.zeros((t_out, c_out))
    for t in range(t_out):
        for o in range(c_out):
            acc = b[o]
            for j in range(k):
                for c in range(c_in):
                    acc += x[t * stride + j, c] * w[j, c, o]
            out[t, o] = acc
    return np.maximum(out, 0.0) if relu else out


def test_criterion_2_conv_oracle():
    rng = np.random.default_rng(20240002)
    worst = 0.0
    for _ in range(1000):
        kernel = int(rng.integers(1, 6))
        stride = int(rng.integers(1, 6))
        t_in = int(rng.integers(kernel, 31))
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        relu = bool(rng.integers(0, 2))
        layer = Conv1d(
            c_in, c_out, kernel, stride,
            activation="relu" if relu else "none",
            rng=np.random.default_rng(int(rng.integers(1 << 30))),
        )
        x = rng.normal(size=(t_in, c_in))
        got = layer.forward(x[:, None])[:, 0]  # a (T, 1, C) batch of one
        assert got.shape[0] == (t_in - kernel) // stride + 1
        assert got.shape[0] == Conv1d.output_length(t_in, kernel, stride)
        expect = _naive_conv(x, layer.params["W"], layer.params["b"], stride, relu)
        worst = max(worst, float(np.abs(got - expect).max()))
    _verdict(2, worst < 1e-12, f"1000 random convs, max abs deviation {worst:.3e}")


# ---------------------------------------------------------------------------
# 3. AUC trapezoid vs pairwise counting


def test_criterion_3_auc_oracle():
    rng = np.random.default_rng(20240003)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(4, 60))
        ys = rng.integers(0, 2, n)
        if ys.min() == ys.max():
            ys[0] = 1 - ys[0]
        if trial % 2:
            scores = rng.integers(0, 4, n) / 3.0  # heavy ties
        else:
            scores = rng.random(n)
        pairs = list(zip(scores.tolist(), ys.tolist()))
        pos = [p for p, y in pairs if y == 1]
        neg = [p for p, y in pairs if y == 0]
        wins = sum(1 for a in pos for b in neg if a > b)
        ties = sum(1 for a in pos for b in neg if a == b)
        oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
        worst = max(worst, abs(roc_auc_from_points(compute_roc(pairs)) - oracle))
    _verdict(3, worst < 1e-12, f"1000 score sets, max |trapezoid - pairwise| {worst:.3e}")


# ---------------------------------------------------------------------------
# 4. feature identities


def test_criterion_4_feature_identities():
    rng = np.random.default_rng(20240004)
    kin = FeatureGroupSelection.of("kinematic")

    counts = {}
    probe = _random_tablet(rng, 50)
    for group, expected in (
        ("raw", 6), ("inclination", 2), ("pressure", 2), ("kinematic", 16), ("derived", 17),
    ):
        counts[group] = assemble_features(probe, FeatureGroupSelection.of(group)).m
        assert counts[group] == expected, f"{group}: {counts[group]} != {expected}"

    worst_scale = 0.0
    for _ in range(150):
        n = int(rng.integers(8, 60))
        seq = _random_tablet(rng, n)
        base = assemble_features(seq, kin)

        # translation invariance: exact, shifts cancel in the differences
        shifted = _random_tablet(rng, n)
        shifted.channels = dict(seq.channels)
        shifted.channels["x"] = seq.channels["x"] + float(rng.integers(-500, 500))
        shifted.channels["y"] = seq.channels["y"] + float(rng.integers(-500, 500))
        moved = assemble_features(shifted, kin)
        assert np.array_equal(base.values, moved.values)

        # scale equivariance: doubling coordinates doubles every column
        doubled = _random_tablet(rng, n)
        doubled.channels = dict(seq.channels)
        doubled.channels["x"] = seq.channels["x"] * 2.0
        doubled.channels["y"] = seq.channels["y"] * 2.0
        scaled = assemble_features(doubled, kin)
        tol = 1e-12 * max(np.abs(2.0 * base.values).max(), 1.0)
        worst_scale = max(worst_scale, float(np.abs(scaled.values - 2.0 * base.values).max()))
        assert np.allclose(scaled.values, 2.0 * base.values, rtol=1e-12, atol=tol)

        # first-sample convention and finiteness
        assert np.all(base.values[0] == 0.0)
        assert np.isfinite(base.values).all()

    _verdict(
        4,
        True,
        "counts 6/2/2/16/17, translation exact, scale max dev "
        f"{worst_scale:.3e}, d1=0, all finite (150 sequences)",
    )


# ---------------------------------------------------------------------------
# 5. end-to-end synthetic learning on the bundled preset


def test_criterion_5_synthetic_quick(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "quick"
    code = main(["train", "--preset", "synthetic-quick", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    acc = report["aggregate"]["accuracy"]
    auc = report["aggregate"]["auc"]

    # label-shuffle control on the same data and settings
    preset = load_config(
        Path(__file__).resolve().parents[1]
        / "src" / "pendetect" / "presets" / "synthetic_quick.json",
        env={},
    )
    seqs = generate_synthetic(
        preset.source["n_per_class"],
        tuple(preset.source["length_range"]),
        preset.source["class_separation"],
        seed=preset.seed,
    )
    shuffled = run_experiment(
        seqs,
        preset.features,
        None,
        preset.train,
        preset.plan,
        shuffle_labels=True,
    )
    control = shuffled.aggregate["accuracy"]

    ok = acc >= 0.95 and auc >= 0.97 and elapsed < 300.0 and abs(control - 0.5) <= 0.12
    _verdict(
        5,
        ok,
        f"accuracy {acc:.4f} (>=0.95), auc {auc:.4f} (>=0.97), {elapsed:.0f}s (<300), "
        f"shuffled-label control {control:.4f} (0.5 +/- 0.12)",
    )


# ---------------------------------------------------------------------------
# 6. determinism of cmd_train


_CRITERION_6_CONFIG = {
    "seed": 17,
    "source": {
        "kind": "synthetic",
        "n_per_class": 5,
        "length_range": [40, 60],
        "class_separation": 1.0,
    },
    "features": {"groups": ["kinematic"]},
    "train": {"epochs": 3, "early_stop_patience": None},
    "split": {"kind": "kfold", "k": 2},
}


def test_criterion_6_determinism(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_CRITERION_6_CONFIG))
    for name in ("a", "b"):
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0

    reports = [
        json.dumps(
            strip_wall_clock(json.loads((tmp_path / n / "report.json").read_text())),
            sort_keys=True,
        )
        for n in ("a", "b")
    ]
    ckpts = [(tmp_path / n / "model.ckpt").read_bytes() for n in ("a", "b")]
    stats = [(tmp_path / n / "normalization.tsv").read_bytes() for n in ("a", "b")]
    ok = reports[0] == reports[1] and ckpts[0] == ckpts[1] and stats[0] == stats[1]
    _verdict(
        6,
        ok,
        "two cmd_train runs: reports byte-identical after dropping wall_clock fields, "
        "checkpoints and normalization stats bit-identical",
    )


def test_criterion_6_determinism_across_blas_threads(tmp_path):
    # larger GEMMs may take threaded BLAS paths; they must give the same bits
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_CRITERION_6_CONFIG))
    src = str(Path(__file__).resolve().parents[1] / "src")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "pendetect.cli", "train", "--config", str(cfg),
             "--out", str(tmp_path / threads)],
            env=env, check=True, capture_output=True, timeout=300,
        )
    reports = [
        json.dumps(
            strip_wall_clock(json.loads((tmp_path / n / "report.json").read_text())),
            sort_keys=True,
        )
        for n in ("1", "2")
    ]
    ckpts = [(tmp_path / n / "model.ckpt").read_bytes() for n in ("1", "2")]
    _verdict(
        6,
        reports[0] == reports[1] and ckpts[0] == ckpts[1],
        "cmd_train at OPENBLAS_NUM_THREADS=1 and =2: reports byte-identical after "
        "dropping wall_clock fields, checkpoints bit-identical",
    )


# ---------------------------------------------------------------------------
# 7. ablation grid structure and with-conv speedup


def test_criterion_7_ablation(tmp_path):
    config = {
        "seed": 23,
        "source": {
            "kind": "synthetic",
            "n_per_class": 5,
            "length_range": [80, 120],
            "class_separation": 1.0,
        },
        "features": {"groups": ["derived"]},
        "train": {"epochs": 2, "early_stop_patience": None},
        "split": {"kind": "kfold", "k": 2},
    }
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "grid"
    assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "ablation.json").read_text())

    expected = {
        f"{cell}/{tag}"
        for cell in ("rnn", "lstm", "gru")
        for tag in ("with_conv", "without_conv")
    }
    cells = doc["cells"]
    assert set(cells) == expected

    speedups = {}
    for cell in ("rnn", "lstm", "gru"):
        with_c = cells[f"{cell}/with_conv"]["wall_clock_mean_epoch_seconds"]
        without_c = cells[f"{cell}/without_conv"]["wall_clock_mean_epoch_seconds"]
        speedups[cell] = without_c / with_c
    ok = all(s > 1.0 for s in speedups.values())
    _verdict(
        7,
        ok,
        "full 3x2 grid; per-epoch speedup with conv: "
        + ", ".join(f"{c} {s:.1f}x" for c, s in speedups.items()),
    )


# ---------------------------------------------------------------------------
# 8. dataset-dependent (optional, does not gate)


def _run_task_kfold(sequences, k, seed):
    report = run_experiment(
        sequences,
        FeatureGroupSelection.of("derived"),
        None,
        TrainConfig(seed=seed),
        SplitPlan.kfold(k, seed=seed),
    )
    return report.aggregate["accuracy"]


@pytest.mark.skipif(
    "PENDETECT_PAHAW_DIR" not in os.environ,
    reason="PaHaW is access-restricted and not supplied; "
    "set PENDETECT_PAHAW_DIR to a directory with manifest.csv to run",
)
def test_criterion_8a_pahaw_tasks():
    base = Path(os.environ["PENDETECT_PAHAW_DIR"])
    manifest = load_manifest(base / "manifest.csv", format="tablet_svc")
    sequences = load_dataset(manifest, base_dir=base)
    published = {"spiral": 0.9375, "lll": 0.9625}
    results = {}
    for task, expected in published.items():
        subset = [s for s in sequences if s.task_id == task]
        assert subset, f"no samples for task {task!r}"
        acc = _run_task_kfold(subset, k=10, seed=0)
        results[task] = acc
        assert abs(acc - expected) <= 0.07, (
            f"{task}: accuracy {acc:.4f} outside {expected:.4f} +/- 0.07"
        )
    _verdict(8, True, "PaHaW per-task accuracy within +/-7 points: " + str(results))


@pytest.mark.skipif(
    "PENDETECT_NEWHANDPD_DIR" not in os.environ,
    reason="NewHandPD is access-restricted and not supplied; "
    "set PENDETECT_NEWHANDPD_DIR to a directory with manifest.csv to run",
)
def test_criterion_8b_newhandpd_spiral():
    base = Path(os.environ["PENDETECT_NEWHANDPD_DIR"])
    manifest = load_manifest(base / "manifest.csv", format="smartpen_channels")
    sequences = load_dataset(manifest, base_dir=base)
    subset = [s for s in sequences if s.task_id == "spiral"]
    assert subset, "no spiral samples found"
    report = run_experiment(
        subset,
        FeatureGroupSelection.of("raw"),
        None,
        TrainConfig(seed=0),
        SplitPlan(kind="holdout", train_frac=0.65,
                  val_frac=0.10, test_frac=0.25, n_runs=20, seed=0),
    )
    acc = report.aggregate["accuracy"]
    assert abs(acc - 0.9444) <= 0.07
    _verdict(8, True, f"NewHandPD spiral holdout accuracy {acc:.4f} within 0.9444 +/- 0.07")
