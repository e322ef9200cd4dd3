import base64
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pendetect.cli import (
    CONFIG_FIELDS,
    PREPROCESSING_FIELDS,
    ExperimentConfig,
    _replayed_preprocessing,
    load_config,
    main,
    resolve_config_path,
    score_file,
)
from pendetect.errors import (
    ConfigError,
    IoError,
    MalformedLine,
    NonMonotonicTime,
    ParseError,
    TrainingError,
    write_text,
)
from pendetect.evaluation import ExperimentReport, emit_roc, strip_wall_clock
from pendetect.features import (
    KINEMATIC_COLUMNS,
    FeatureGroupSelection,
    assemble_features,
    dump_csv,
)
from pendetect.nn import (
    CELLS,
    Conv1dSpec,
    ModelSpec,
    RecurrentSpec,
    SequenceClassifier,
    load_checkpoint,
    spec_hash,
)
from pendetect.nn.fields import declared
from pendetect.nn import model as model_module
from pendetect import preprocess as preprocess_module
from pendetect.preprocess import (
    LengthPolicy,
    NormalizationStats,
    PrepConfig,
    apply_normalization,
    fit_length,
    fit_normalization,
    load_stats,
    save_stats,
)
from pendetect.signal_io import (
    SMARTPEN_CHANNELS,
    DatasetManifest,
    ManifestEntry,
    generate_synthetic,
    load_manifest,
    parse_recording,
    write_manifest,
    write_tablet_file,
)


def _write_config(path: Path, **overrides) -> Path:
    doc = {
        "seed": 3,
        "source": {
            "kind": "synthetic",
            "n_per_class": 4,
            "length_range": [30, 45],
            "class_separation": 1.0,
        },
        "features": {"groups": ["kinematic"]},
        "train": {"epochs": 2, "early_stop_patience": None},
        "split": {"kind": "kfold", "k": 2},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# config loading

def test_load_config_minimal(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.json"), env={})
    assert cfg.seed == 3
    assert cfg.features.groups == ("kinematic",)
    assert cfg.train.epochs == 2
    assert cfg.train.seed == 3
    assert cfg.plan.kind == "kfold" and cfg.plan.k == 2 and cfg.plan.seed == 3
    assert cfg.prep == PrepConfig(cutoff_scope="train", normalize=True, clip_pcts=(5.0, 90.0))
    # a byte order mark, as Notepad writes one, is not part of the JSON
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "c.json").read_bytes())
    assert load_config(bom, env={}) == cfg


def test_load_config_takes_an_integer_number_as_a_float(tmp_path):
    source = {**_SYNTHETIC_SOURCE, "class_separation": 1}
    path = _write_config(tmp_path / "c.json", source=source, clip_pcts=[5, 90])
    cfg = load_config(path, env={})
    assert type(cfg.source["class_separation"]) is float
    assert [type(c) for c in cfg.prep.clip_pcts] == [float, float]


def test_load_config_requires_seed(tmp_path):
    path = tmp_path / "c.json"
    doc = json.loads(_write_config(tmp_path / "tmp.json").read_text())
    del doc["seed"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(path, env={})


def test_load_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path / "c.json", typo_key=1), env={})


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path, env={})


def test_load_config_rejects_missing_manifest(tmp_path):
    path = _write_config(
        tmp_path / "c.json",
        source={"kind": "manifest", "path": "nowhere.csv", "format": "tablet_svc"},
    )
    with pytest.raises(ConfigError):
        load_config(path, env={})


def test_load_config_rejects_seed_inside_blocks(tmp_path):
    path = _write_config(tmp_path / "c.json", train={"epochs": 2, "seed": 9})
    with pytest.raises(ConfigError):
        load_config(path, env={})


def test_seed_precedence_flag_env_file(tmp_path):
    path = _write_config(tmp_path / "c.json")
    assert load_config(path, env={}).seed == 3
    assert load_config(path, env={"PENDETECT_SEED": "44"}).seed == 44
    assert load_config(path, seed_override=7, env={"PENDETECT_SEED": "44"}).seed == 7
    with pytest.raises(ConfigError):
        load_config(path, env={"PENDETECT_SEED": "not-a-number"})
    with pytest.raises(ConfigError, match="^seed must be an integer in"):
        load_config(path, seed_override=-1, env={})


def test_env_overrides_epochs_and_out(tmp_path):
    path = _write_config(tmp_path / "c.json", out_dir="from-file")
    cfg = load_config(path, env={"PENDETECT_EPOCHS": "9", "PENDETECT_OUT": "from-env"})
    assert cfg.train.epochs == 9
    assert cfg.out_dir == Path("from-env")
    cfg = load_config(path, out_override="from-flag", env={"PENDETECT_OUT": "from-env"})
    assert cfg.out_dir == Path("from-flag")
    with pytest.raises(ConfigError, match="^train.epochs must be an integer in"):
        load_config(path, env={"PENDETECT_EPOCHS": "0"})


def test_full_model_spec_in_config(tmp_path):
    spec = ModelSpec.reference(16, cell="lstm", with_conv=False)
    path = _write_config(tmp_path / "c.json", model={"spec": spec.to_dict()})
    cfg = load_config(path, env={})
    assert cfg.model_spec == spec


def test_resolve_preset():
    class Args:
        preset = "synthetic-quick"
        config = None

    path = resolve_config_path(Args())
    cfg = load_config(path, env={})
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.source["kind"] == "synthetic"
    assert cfg.source["n_per_class"] == 20
    assert cfg.plan.k == 10

    class Bad:
        preset = "no-such-preset"
        config = None

    with pytest.raises(ConfigError):
        resolve_config_path(Bad())


# ---------------------------------------------------------------------------
# subcommands

def test_synth_writes_dataset(tmp_path):
    out = tmp_path / "data"
    code = main(
        [
            "synth", "--out", str(out), "--n-per-class", "3",
            "--min-length", "20", "--max-length", "30", "--seed", "5",
        ]
    )
    assert code == 0
    files = sorted(p.name for p in out.glob("*.svc"))
    assert len(files) == 6
    assert (out / "manifest.csv").exists()
    lines = (out / "manifest.csv").read_text().splitlines()
    assert lines[0] == "path,subject_id,task_id,label"
    assert len(lines) == 7


@pytest.mark.parametrize("blocked", ["out", "manifest.csv", "syn-hc-000.svc"])
def test_synth_write_failure_is_an_io_error(tmp_path, capsys, blocked):
    out = tmp_path / "data"
    if blocked == "out":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x"
        target = out
    else:
        target = out / blocked
        target.mkdir(parents=True)  # a directory where synth writes a file
    args = ["synth", "--out", str(out), "--n-per-class", "1", "--min-length", "20",
            "--max-length", "20"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(target) in err and "Traceback" not in err


def test_features_command(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    code = main(["features", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0
    files = list((tmp_path / "o" / "features").glob("*.csv"))
    assert len(files) == 8
    out = capsys.readouterr().out
    assert "kinematic=16" in out


def _manifest_config(tmp_path: Path, ids) -> Path:
    """A config over a manifest of one short recording per (subject, task) pair."""
    rows = ["path,subject_id,task_id,label"]
    for i, (subject, task) in enumerate(ids):
        (tmp_path / f"r{i}.svc").write_text("".join(f"{t} {t} {t} 1 0 0 100\n" for t in range(10)))
        rows.append(f"r{i}.svc,{subject},{task},{'PD' if i % 2 else 'HC'}")
    (tmp_path / "manifest.csv").write_text("\n".join(rows) + "\n")
    return _write_config(
        tmp_path / "c.json",
        source={"kind": "manifest", "path": "manifest.csv", "format": "tablet_svc"},
    )


def test_features_file_name_clash_is_a_data_error(tmp_path, capsys):
    cfg = _manifest_config(tmp_path, [("a_b", "c"), ("a", "b_c")])
    out = tmp_path / "o"
    assert main(["features", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "('a_b', 'c')" in err and "('a', 'b_c')" in err
    assert not out.exists()


def test_features_subject_id_cannot_leave_the_features_dir(tmp_path, capsys):
    cfg = _manifest_config(tmp_path, [("../escaped", "t"), ("s", "t")])
    out = tmp_path / "o"
    assert main(["features", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "('../escaped', 't')" in err
    assert not out.exists()


def test_features_empty_manifest_warns(tmp_path, capsys):
    (tmp_path / "manifest.csv").write_text("path,subject_id,task_id,label\n")
    cfg = _write_config(
        tmp_path / "c.json",
        source={"kind": "manifest", "path": "manifest.csv", "format": "tablet_svc"},
    )
    code = main(["features", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "empty" in capsys.readouterr().err
    assert not (tmp_path / "o" / "features").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_empty_manifest_is_a_data_error(tmp_path, capsys, command):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,subject_id,task_id,label\n")
    cfg = _write_config(
        tmp_path / "c.json",
        source={"kind": "manifest", "path": "manifest.csv", "format": "tablet_svc"},
    )
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert str(manifest.resolve()) in err
    assert not (tmp_path / "o").exists()


def test_train_writes_artifacts_and_is_deterministic(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    for name in ("r1", "r2"):
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0

    r1 = tmp_path / "r1"
    for artifact in ("report.json", "report.txt", "roc.csv", "model.ckpt", "normalization.tsv"):
        assert (r1 / artifact).exists()

    docs = [
        json.loads((tmp_path / n / "report.json").read_text()) for n in ("r1", "r2")
    ]
    fingerprints = [
        json.dumps(strip_wall_clock(d), sort_keys=True) for d in docs
    ]
    assert fingerprints[0] == fingerprints[1]
    assert (r1 / "model.ckpt").read_bytes() == (tmp_path / "r2" / "model.ckpt").read_bytes()
    assert docs[0]["config"]["tool_version"]
    assert docs[0]["config"]["plan"]["seed"] == 3


def test_train_seed_flag_changes_the_run(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["train", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "8"])
    da = json.loads((tmp_path / "a" / "report.json").read_text())
    db = json.loads((tmp_path / "b" / "report.json").read_text())
    assert da["seed"] == 3
    assert db["seed"] == 8


def test_ablate_writes_grid(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        source={
            "kind": "synthetic",
            "n_per_class": 3,
            "length_range": [25, 35],
            "class_separation": 1.0,
        },
        train={"epochs": 1, "early_stop_patience": None},
        features={"groups": ["pressure"]},
    )
    code = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0
    doc = json.loads((tmp_path / "o" / "ablation.json").read_text())
    assert len(doc["cells"]) == 6
    assert (tmp_path / "o" / "ablation.txt").exists()


def test_ablate_is_deterministic_across_blas_threads(tmp_path):
    # ablate is the one command that trains LSTM and RNN cells: at one and two
    # OpenBLAS threads its grid must keep every bit
    cfg = _write_config(
        tmp_path / "c.json",
        source={"kind": "synthetic", "n_per_class": 3, "length_range": [30, 45],
                "class_separation": 1.0},
        train={"epochs": 1, "early_stop_patience": None},
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    grids = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / threads
        subprocess.run(
            [sys.executable, "-m", "pendetect.cli", "ablate", "--config", str(cfg),
             "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        doc = strip_wall_clock(json.loads((out / "ablation.json").read_text()))
        grids.append(json.dumps(doc, sort_keys=True))
    assert grids[0] == grids[1]


def test_score_is_deterministic_across_blas_threads(tmp_path):
    # the printed line, and p to the last bit, at one and two OpenBLAS threads
    ckpt, _, _ = _score_fixture(tmp_path, "tablet_svc", 60, True)
    recording = str(tmp_path / "full.svc")
    hex_p = "import sys; from pendetect.cli import score_file; print(score_file(*sys.argv[1:]).hex())"
    commands = (["-m", "pendetect.cli", "score", "--checkpoint", str(ckpt), "--input", recording],
                ["-c", hex_p, str(ckpt), recording])
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs.append([subprocess.run([sys.executable, *argv], env=env, check=True, text=True,
                                    capture_output=True, timeout=300).stdout
                     for argv in commands])
    assert runs[0] == runs[1]


def test_score_replays_training_preprocessing(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n-per-class", "4",
          "--min-length", "30", "--max-length", "40", "--seed", "2"])
    cfg = _write_config(
        tmp_path / "c.json",
        source={"kind": "manifest", "path": "data/manifest.csv", "format": "synthetic"},
    )
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0

    report = json.loads((run / "report.json").read_text())
    rows = report["per_fold"][-1]["samples"]
    for row in rows[:4]:
        p = score_file(run / "model.ckpt", data / f"{row['subject_id']}.svc")
        assert p == pytest.approx(row["p"], abs=1e-9)


@pytest.mark.parametrize("model", [{"cell": "rnn"}, {"cell": "gru", "with_conv": False}])
def test_score_gives_the_report_p_of_every_recording_of_a_fold_of_ten_rows(tmp_path, model):
    # 5 subjects per class in 2 folds: the model's fold scores its 10 rows,
    # not a multiple of 4, in one forward, and score scores each on its own
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n-per-class", "5",
          "--min-length", "30", "--max-length", "40", "--seed", "2"])
    cfg = _write_config(
        tmp_path / "c.json",
        source={"kind": "manifest", "path": "data/manifest.csv", "format": "synthetic"},
        model=model,
    )
    program = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from pendetect.cli import main, score_file\n"
        "cfg, data, run = map(Path, sys.argv[1:])\n"
        "main(['train', '--config', str(cfg), '--out', str(run)])\n"
        "rows = json.loads((run / 'report.json').read_text())['per_fold'][-1]['samples']\n"
        "print(len(rows), [r['subject_id'] for r in rows\n"
        "                  if score_file(run / 'model.ckpt', data / f\"{r['subject_id']}.svc\")\n"
        "                  != r['p']])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", program, str(cfg), str(data),
                               str(tmp_path / f"run{threads}")],
                              env=env, check=True, text=True, capture_output=True, timeout=300)
        assert proc.stdout.splitlines()[-1] == "10 []", (threads, proc.stdout)


def test_score_zero_weight_checkpoint_prints_half(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n-per-class", "1",
          "--min-length", "30", "--max-length", "30", "--seed", "0"])
    model = SequenceClassifier(ModelSpec.reference(16), 16, np.random.default_rng(0))
    for value in model.params().values():
        value[...] = 0.0
    ckpt = tmp_path / "zero.ckpt"
    model.save_checkpoint(
        ckpt,
        preprocessing={"cutoff": 30, "feature_groups": ["kinematic"], "format": "synthetic"},
    )
    svc = next(data.glob("*.svc"))
    capsys.readouterr()
    code = main(["score", "--checkpoint", str(ckpt), "--input", str(svc)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.5000 PD"


def test_score_smartpen_checkpoint_matches_forward(tmp_path, capsys):
    rng = np.random.default_rng(5)
    values = rng.normal(0.0, 1.0, (45, len(SMARTPEN_CHANNELS)))
    pen = tmp_path / "pen.txt"
    pen.write_text("".join(" ".join(map(repr, row)) + "\n" for row in values.tolist()))
    model = SequenceClassifier(ModelSpec.reference(6), 6, np.random.default_rng(1))
    ckpt = tmp_path / "pen.ckpt"
    model.save_checkpoint(
        ckpt,
        preprocessing={"cutoff": 30, "feature_groups": ["raw"], "format": "smartpen_channels"},
    )
    expected = model.forward(values[:30])
    assert score_file(ckpt, pen) == expected
    capsys.readouterr()
    assert main(["score", "--checkpoint", str(ckpt), "--input", str(pen)]) == 0
    label = "PD" if expected >= 0.5 else "HC"
    assert capsys.readouterr().out.strip() == f"{expected:.4f} {label}"


@pytest.mark.parametrize("with_conv", [True, False])
def test_score_checkpoint_whose_features_do_not_fit_its_model_names_it(
    tmp_path, capsys, with_conv
):
    svc = tmp_path / "rec.svc"
    write_tablet_file(generate_synthetic(1, (40, 40), 0.5, seed=2)[0], svc)
    model = SequenceClassifier(ModelSpec.reference(17, with_conv=with_conv), 17,
                               np.random.default_rng(3))
    ckpt = tmp_path / "m.ckpt"
    model.save_checkpoint(ckpt, preprocessing={"cutoff": 30, "feature_groups": ["raw"]})
    capsys.readouterr()
    assert main(["score", "--checkpoint", str(ckpt), "--input", str(svc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"data error: {ckpt}: the model reads 17 feature columns, but "
                   "preprocessing.feature_groups ['raw'] give 6\n")


def _score_fixture(tmp_path, fmt, cutoff, with_conv):
    """A checkpoint with a normalization sidecar, the lines of a recording 20
    times the cutoff, and the feature selection the checkpoint replays."""
    if fmt == "tablet_svc":
        selection = FeatureGroupSelection(("derived",))
        seq = generate_synthetic(1, (20 * cutoff, 20 * cutoff), 0.5, seed=8)[1]
        write_tablet_file(seq, tmp_path / "full.svc")
        lines = (tmp_path / "full.svc").read_text().splitlines()
    else:
        selection = FeatureGroupSelection(("raw",))
        values = np.random.default_rng(8).normal(0.0, 1.0, (20 * cutoff, len(SMARTPEN_CHANNELS)))
        lines = [" ".join(map(repr, row)) for row in values.tolist()]
    (tmp_path / "fit.txt").write_text("\n".join(lines) + "\n")
    fm = assemble_features(parse_recording(tmp_path / "fit.txt", fmt), selection)
    save_stats(fit_normalization([fm]), tmp_path / "normalization.tsv")
    model = SequenceClassifier(
        ModelSpec.reference(fm.m, with_conv=with_conv), fm.m, np.random.default_rng(2)
    )
    model.save_checkpoint(
        tmp_path / "m.ckpt",
        normalization_ref="normalization.tsv",
        preprocessing={"cutoff": cutoff, "feature_groups": list(selection.groups),
                       "format": fmt},
    )
    return tmp_path / "m.ckpt", lines, selection


def _uncut_score(ckpt, recording, fmt, selection, cutoff):
    """p from features of the whole recording, scored as `predict` scores a
    row: first of a zero-padded 4-row batch."""
    model, meta = load_checkpoint(ckpt)
    fm = assemble_features(parse_recording(recording, fmt), selection)
    fm = apply_normalization(fm, load_stats(ckpt.parent / meta["normalization_ref"]))
    batch = np.zeros((4, cutoff, fm.m))
    batch[0] = fit_length(fm, LengthPolicy(cutoff=cutoff)).values
    return float(model.forward(batch)[0])


@pytest.mark.parametrize("fmt", ["tablet_svc", "smartpen_channels"])
@pytest.mark.parametrize(
    "cutoff, with_conv, lengths",
    # a cutoff below MIN_LENGTH still leaves MIN_LENGTH rows for the features
    [(30, True, [25, 30, 600]), (3, False, [4, 5, 60])],
)
def test_score_equals_the_uncut_pipeline(tmp_path, fmt, cutoff, with_conv, lengths):
    ckpt, lines, selection = _score_fixture(tmp_path, fmt, cutoff, with_conv)
    for n in lengths:
        recording = tmp_path / f"rec{n}.txt"
        recording.write_text("\n".join(lines[:n]) + "\n")
        assert score_file(ckpt, recording) == _uncut_score(ckpt, recording, fmt, selection, cutoff)


@pytest.mark.parametrize(
    "fault, error, message",
    [
        (lambda fields: ["a"] * 7, MalformedLine, "line 502: non-numeric field"),
        (lambda fields: fields[:6] + ["-1"], MalformedLine, "line 502: pressure must be >= 0"),
        (lambda fields: fields[:2] + ["0"] + fields[3:], NonMonotonicTime,
         "line 502: timestamp decreases"),
    ],
    ids=["malformed", "negative-pressure", "decreasing-time"],
)
def test_score_validates_the_rows_past_the_cutoff(tmp_path, fault, error, message):
    ckpt, lines, _ = _score_fixture(tmp_path, "tablet_svc", 30, True)
    lines[10:10] = ["", "  "]  # blank lines move every later line number
    lines[501] = " ".join(fault(lines[501].split()))
    recording = tmp_path / "rec.svc"
    recording.write_text("\n".join(lines) + "\n")
    with pytest.raises(error) as exc:
        score_file(ckpt, recording)
    assert exc.value.line_no == 502 and message in str(exc.value)


def test_score_too_short_input_is_a_data_error(tmp_path, capsys):
    model = SequenceClassifier(ModelSpec.reference(16), 16, np.random.default_rng(0))
    ckpt = tmp_path / "m.ckpt"
    model.save_checkpoint(
        ckpt, preprocessing={"cutoff": 30, "feature_groups": ["kinematic"], "format": "synthetic"}
    )
    short = tmp_path / "short.svc"
    short.write_text("0 0 0 1 0 0 100\n")
    assert main(["score", "--checkpoint", str(ckpt), "--input", str(short)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(short) in err
    # without a cutoff nothing pads the input, and the conv stack refuses it
    model.save_checkpoint(ckpt, preprocessing={"feature_groups": ["kinematic"]})
    short.write_text("".join(f"{t} {t} {t} 1 0 0 100\n" for t in range(10)))
    assert main(["score", "--checkpoint", str(ckpt), "--input", str(short)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(short) in err and "conv stack" in err


@pytest.mark.parametrize("command", ["features", "train", "score"])
def test_a_recording_too_short_for_jerk_is_a_data_error_naming_it(tmp_path, capsys, command):
    rows = ["path,subject_id,task_id,label"]
    for i in range(4):
        steps = 3 if i == 0 else 30  # recording 0 is one step short of jerk
        (tmp_path / f"r{i}.svc").write_text("".join(f"{t} {t} {t} 1 0 0 100\n"
                                                    for t in range(steps)))
        rows.append(f"r{i}.svc,s{i},spiral,{'PD' if i % 2 else 'HC'}")
    (tmp_path / "manifest.csv").write_text("\n".join(rows) + "\n")
    if command == "score":
        ckpt, _, _ = _score_fixture(tmp_path, "tablet_svc", 30, True)
        argv, named = ["--checkpoint", str(ckpt), "--input", str(tmp_path / "r0.svc")], "r0.svc"
    else:
        cfg = _write_config(tmp_path / "c.json", source=_MANIFEST_SOURCE)
        argv, named = ["--config", str(cfg), "--out", str(tmp_path / "o")], "('s0', 'spiral')"
    capsys.readouterr()
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and named in err
    assert "jerk needs at least 4 time-steps, got 3" in err and err.count("\n") == 1


_TRAINING_MODULES = {"pendetect.evaluation", "pendetect.nn.train", "pendetect.nn.optim",
                     "pendetect.nn.losses", "pendetect.nn.gradcheck"}


def _main_in_a_fresh_interpreter(argv: list[str]) -> tuple[list[str], str, list[str]]:
    """(stdout lines before the last, exit code, pendetect modules loaded)
    of ``cli.main(argv)`` run in a new interpreter."""
    program = (
        "import sys\n"
        "from pendetect import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, *sorted(name for name in sys.modules if name.startswith('pendetect')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    *lines, loaded_line = proc.stdout.splitlines()
    code, *loaded = loaded_line.split()
    return lines, code, loaded


def test_score_in_a_fresh_interpreter_loads_no_training_module(tmp_path):
    ckpt, lines, _ = _score_fixture(tmp_path, "tablet_svc", 30, True)
    recording = tmp_path / "rec.svc"
    recording.write_text("\n".join(lines[:100]) + "\n")
    (score_line,), code, loaded = _main_in_a_fresh_interpreter(
        ["score", "--checkpoint", str(ckpt), "--input", str(recording)]
    )
    assert code == "0" and score_line.endswith(("PD", "HC"))
    assert "pendetect.nn.model" in loaded
    assert _TRAINING_MODULES.isdisjoint(loaded)


def test_features_in_a_fresh_interpreter_loads_no_training_module(tmp_path):
    # load_config builds the split plan, which lives beside TrainConfig
    (summary,), code, loaded = _main_in_a_fresh_interpreter(
        ["features", "--preset", "synthetic-quick", "--out", str(tmp_path / "out")]
    )
    assert code == "0" and summary.startswith("wrote 40 feature files")
    assert loaded == ["pendetect", "pendetect.cli", "pendetect.errors", "pendetect.features",
                      "pendetect.nn", "pendetect.nn.fields", "pendetect.nn.layers",
                      "pendetect.nn.model", "pendetect.preprocess", "pendetect.signal_io"]


def test_training_names_resolve_on_first_use():
    import pendetect.nn
    from pendetect.nn import Adam, TrainConfig, gradient_check, train_model
    from pendetect.nn import gradcheck, optim, train

    assert train_model is train.train_model and train.TrainConfig is TrainConfig
    assert Adam is optim.Adam and gradient_check is gradcheck.gradient_check
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pendetect.nn.no_such_name  # noqa: B018


def test_score_reads_a_checkpoint_rewritten_in_place(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--n-per-class", "1",
          "--min-length", "40", "--max-length", "40", "--seed", "3"])
    svc = next(data.glob("*.svc"))
    ckpt = tmp_path / "model.ckpt"
    pre = {"cutoff": 40, "feature_groups": ["kinematic"], "format": "synthetic"}
    scores = []
    for seed in (31, 32, 31):
        model = SequenceClassifier(ModelSpec.reference(16), 16, np.random.default_rng(seed))
        stat = ckpt.stat() if ckpt.exists() else None
        model.save_checkpoint(ckpt, preprocessing=pre)
        if stat is not None:  # same size and mtime: only the bytes tell the files apart
            assert ckpt.stat().st_size == stat.st_size
            os.utime(ckpt, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        expected = model.forward(fit_length(assemble_features(
            parse_recording(svc, "synthetic"), FeatureGroupSelection(("kinematic",))
        ), LengthPolicy(cutoff=40)).values)
        scores.append(score_file(ckpt, svc))
        assert scores[-1] == expected
        assert score_file(ckpt, svc) == expected
    assert scores[0] != scores[1]


def test_warm_scoring_builds_and_decodes_no_model(tmp_path, monkeypatch):
    # each call loads the checkpoint and then its stats file: each kind keeps
    # its own slot in the cache, so neither load evicts the other
    ckpt, lines, _ = _score_fixture(tmp_path, "tablet_svc", 30, True)
    recording = tmp_path / "rec.svc"
    recording.write_text("\n".join(lines[:200]) + "\n")
    cold = score_file(ckpt, recording)
    counts = {"builds": 0, "decodes": 0, "stats decodes": 0}

    def counted(key, fn):
        def counted_fn(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted_fn

    monkeypatch.setattr(SequenceClassifier, "__init__",
                        counted("builds", SequenceClassifier.__init__))
    monkeypatch.setattr(model_module, "_decode_checkpoint",
                        counted("decodes", model_module._decode_checkpoint))
    monkeypatch.setattr(preprocess_module, "_decode_stats",
                        counted("stats decodes", preprocess_module._decode_stats))
    for _ in range(20):
        assert score_file(ckpt, recording) == cold
    assert counts == {"builds": 0, "decodes": 0, "stats decodes": 0}
    loaded, meta = load_checkpoint(ckpt)
    rewritten = SequenceClassifier(loaded.spec, loaded.input_size, np.random.default_rng(3))
    rewritten.save_checkpoint(ckpt, meta["normalization_ref"], meta["preprocessing"])
    counts.update(builds=0, decodes=0)
    assert score_file(ckpt, recording) != cold
    assert counts == {"builds": 1, "decodes": 1, "stats decodes": 0}


def test_threads_sharing_one_loaded_model_score_as_sequential_calls(tmp_path):
    ckpt, lines, _ = _score_fixture(tmp_path, "tablet_svc", 30, True)
    recordings = []
    for i in range(8):
        path = tmp_path / f"rec{i}.svc"
        path.write_text("\n".join(lines[50 * i : 50 * i + 60 + 10 * i]) + "\n")
        recordings.append(path)
    sequential = [score_file(ckpt, path) for path in recordings]
    assert len(set(sequential)) == len(recordings)
    assert load_checkpoint(ckpt)[0] is load_checkpoint(ckpt)[0]
    with ThreadPoolExecutor(max_workers=4) as pool:
        shared = list(pool.map(lambda path: score_file(ckpt, path), recordings * 4))
    assert shared == sequential * 4


_BAD_PREPROCESSING = {
    "cutoff-list": {"cutoff": [1]},
    "cutoff-string": {"cutoff": "abc"},
    "cutoff-float": {"cutoff": 2.5},
    "cutoff-bool": {"cutoff": True},
    "cutoff-zero": {"cutoff": 0},
    "groups-empty": {"feature_groups": []},
    "groups-unknown": {"feature_groups": ["tremor"]},
    "groups-string": {"feature_groups": "derived"},
    "raw-pressure-string": {"include_raw_pressure_in_derived": "false"},
    "format-unknown": {"format": "csv"},
    "rate-negative": {"sample_rate_hz": -200},
    "rate-string": {"sample_rate_hz": "200"},
    "rate-bool": {"sample_rate_hz": True},
    "rate-infinite": {"sample_rate_hz": float("inf")},
    "unknown-key": {"cutoff": 40, "cut_off": 40},
    # below the reference conv stack's minimum of 15, so every recording would fail
    "cutoff-below-conv": {"cutoff": 5, "feature_groups": ["kinematic"]},
}


_BAD_METADATA = {
    "unknown-format": {"format": "pendetect-checkpoint v0"},
    "spec-hash": {"spec_sha256": "0" * 64},
    "input-size-float": {"input_size": 16.5},
    "input-size-integral-float": {"input_size": 16.0},
    "input-size-string": {"input_size": "16"},
    "input-size-bool": {"input_size": True},
    "input-size-zero": {"input_size": 0},
    "ref-subdirectory": {"normalization_ref": "sub/normalization.tsv"},
    "ref-nul": {"normalization_ref": "normalization\0.tsv"},
    "ref-missing": {"normalization_ref": "absent.tsv"},
    "ref-empty": {"normalization_ref": ""},
}


def _corrupt_checkpoint(path: Path, kind: str) -> None:
    model = SequenceClassifier(ModelSpec.reference(16), 16, np.random.default_rng(0))
    model.save_checkpoint(path, preprocessing={"cutoff": 40, "feature_groups": ["kinematic"]})
    raw = path.read_bytes()
    if kind == "truncated":
        path.write_bytes(raw[: len(raw) // 2])
    elif kind == "not-utf-8":
        path.write_bytes(b"\xff\xfe" + raw)
    else:
        doc = json.loads(raw)
        if kind == "no-spec":
            del doc["spec"]
        elif kind == "list-spec":
            doc["spec"] = ["gru"]
        elif kind == "short-block":
            doc["params"]["head/b"]["data"] = "AAAA"
        elif kind == "spec-kernel-float":
            doc["spec"]["conv_layers"][0]["kernel"] = 2.5
        elif kind == "spec-hidden-units-bool":
            doc["spec"]["recurrent_layers"][0]["hidden_units"] = True
        elif kind == "list-preprocessing":
            doc["preprocessing"] = [40]
        elif kind in _BAD_PREPROCESSING:
            doc["preprocessing"] = _BAD_PREPROCESSING[kind]
        elif kind in _BAD_METADATA:
            doc.update(_BAD_METADATA[kind])
        elif kind == "ref-absolute":
            doc["normalization_ref"] = str(path.parent / "normalization.tsv")
        elif kind == "ref-directory":
            (path.parent / "stats.d").mkdir()
            doc["normalization_ref"] = "stats.d"
        elif kind == "missing-block":
            del doc["params"]["head/b"]
        elif kind == "block-shape":
            doc["params"]["head/w"]["shape"] = [32, 2]
        elif kind in ("nan-block", "inf-block"):
            block = doc["params"]["conv0/W"]
            values = np.zeros(block["shape"])
            values[1, 2, 3] = np.nan if kind == "nan-block" else -np.inf
            block["data"] = base64.b64encode(values.tobytes()).decode("ascii")
        elif kind == "first-conv-width":
            doc["input_size"] = 5
            doc["spec_sha256"] = spec_hash(ModelSpec.from_dict(doc["spec"]), 5)
        elif kind == "spec-huge":  # a theta of more than any address space holds
            doc["spec"]["recurrent_layers"][0]["hidden_units"] = 10**7
            doc["spec_sha256"] = spec_hash(ModelSpec.from_dict(doc["spec"]), 16)
        path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "kind",
    ["no-spec", "truncated", "not-utf-8", "list-spec", "short-block", "list-preprocessing",
     "spec-kernel-float", "spec-hidden-units-bool", *_BAD_PREPROCESSING, *_BAD_METADATA,
     "ref-absolute", "ref-directory", "missing-block", "block-shape", "nan-block", "inf-block",
     "first-conv-width", "spec-huge"],
)
def test_corrupt_checkpoint_is_a_data_error_naming_the_file(tmp_path, capsys, kind):
    svc = tmp_path / "rec.svc"
    svc.write_text("0 0 0 1 0 0 100\n" * 40)
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    SequenceClassifier(ModelSpec.reference(16), 16, np.random.default_rng(1)).save_checkpoint(
        good, preprocessing={"cutoff": 40, "feature_groups": ["kinematic"]}
    )
    _corrupt_checkpoint(bad, kind)
    before = score_file(good, svc)
    for _ in range(2):  # a file that failed to decode is never kept
        capsys.readouterr()
        assert main(["score", "--checkpoint", str(bad), "--input", str(svc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bad) in err and err.count("\n") == 1
    assert score_file(good, svc) == before


# every integer of the reference spec's layers, as (layer list, index, field)
_SPEC_INTEGERS = [(layers, i, f.path) for layers, cls in (("conv_layers", Conv1dSpec),
                                                           ("recurrent_layers", RecurrentSpec))
                  for i in (0, 1) for f in declared(cls) if f.type is int]


@given(target=st.sampled_from(_SPEC_INTEGERS), value=st.integers(1, 10**9))
@settings(max_examples=100, deadline=None)
def test_score_on_a_mutated_spec_integer_runs_or_fails_as_documented(
    tmp_path_factory, target, value
):
    work = tmp_path_factory.mktemp("ckpt-fuzz")
    ckpt, svc = work / "m.ckpt", work / "rec.svc"
    svc.write_text("0 0 0 1 0 0 100\n" * 40)
    SequenceClassifier(ModelSpec.reference(16), 16, np.random.default_rng(1)).save_checkpoint(
        ckpt, preprocessing={"cutoff": 40, "feature_groups": ["kinematic"]}
    )
    doc = json.loads(ckpt.read_bytes())
    layers, i, key = target
    doc["spec"][layers][i][key] = value
    # spec_hash's canonical encoding, which also covers a spec ModelSpec refuses
    canonical = json.dumps({"input_size": 16, "spec": doc["spec"]}, sort_keys=True,
                           separators=(",", ":"))
    doc["spec_sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    ckpt.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["score", "--checkpoint", str(ckpt), "--input", str(svc)])
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 2 and err.startswith("data error: ") and err.count("\n") == 1, err


def test_score_refuses_a_probability_the_forward_overflows_to(tmp_path, capsys):
    ckpt, lines, _ = _score_fixture(tmp_path, "tablet_svc", 30, True)
    recording = tmp_path / "rec.svc"
    recording.write_text("\n".join(lines[:200]) + "\n")
    loaded, meta = load_checkpoint(ckpt)  # read-only: craft the file from a trainable copy
    model = SequenceClassifier(loaded.spec, loaded.input_size, None)
    model.theta[...] = loaded.theta
    w = model.params()["conv0/W"]
    w[...] = np.where(np.arange(w.size).reshape(w.shape) % 2, 1e308, -1e308)  # finite
    model.save_checkpoint(ckpt, meta["normalization_ref"], meta["preprocessing"])
    capsys.readouterr()
    # pytest's filterwarnings makes a RuntimeWarning an error: none may escape
    assert main(["score", "--checkpoint", str(ckpt), "--input", str(recording)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("data error: ") and str(ckpt) in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "old, new",
    [
        (b"fitted_on 4", b"fitted_on "),
        (b"fitted_on 4", b"fitted_on x"),
        (b"\t0.0\t", b"\tabc\t"),
        (b"displacement\t", b"displacement\xff\t"),
        (b"\t1.0\t", b"\t-1.0\t"),
        (b"\t0.0\t", b"\tnan\t"),
    ],
    ids=["empty-fitted-on", "non-integer-fitted-on", "non-numeric-field", "not-utf-8",
         "negative-std", "nan-mean"],
)
def test_corrupt_stats_sidecar_is_a_data_error_naming_the_file(tmp_path, capsys, old, new):
    svc = tmp_path / "rec.svc"
    svc.write_text("0 0 0 1 0 0 100\n" * 40)
    ckpt, sidecar = tmp_path / "m.ckpt", tmp_path / "normalization.tsv"
    SequenceClassifier(ModelSpec.reference(16), 16, np.random.default_rng(1)).save_checkpoint(
        ckpt,
        normalization_ref=sidecar.name,
        preprocessing={"cutoff": 40, "feature_groups": ["kinematic"]},
    )
    lines = ["pendetect-normalization v1", "fitted_on 4"]
    lines += [f"{name}\t0.0\t1.0\t-1.0\t1.0" for name in KINEMATIC_COLUMNS]
    good = ("\n".join(lines) + "\n").encode()
    sidecar.write_bytes(good)
    assert main(["score", "--checkpoint", str(ckpt), "--input", str(svc)]) == 0
    sidecar.write_bytes(good.replace(old, new))
    assert main(["score", "--checkpoint", str(ckpt), "--input", str(svc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(sidecar) in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_config_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"source": {"kind": "synthetic"}}))
    assert main(["train", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_exit_code_data_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "path,subject_id,task_id,label\nmissing.svc,s1,spiral,PD\nalso.svc,s2,spiral,HC\n"
    )
    cfg = _write_config(
        tmp_path / "c.json",
        source={"kind": "manifest", "path": "manifest.csv", "format": "tablet_svc"},
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "data error" in capsys.readouterr().err


def test_exit_code_training_failure(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path / "c.json")

    def boom(*args, **kwargs):
        raise TrainingError("diverged")

    monkeypatch.setattr("pendetect.evaluation.run_experiment", boom)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "training failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_a_diverging_run_is_a_training_failure_and_prints_no_warning(tmp_path, capsys,
                                                                     command):
    # a learning rate of 1e300 overflows the conv products after the first
    # step: the run ends as a non-finite gradient, with no numpy warning
    cfg = _write_config(
        tmp_path / "c.json",
        source={"kind": "synthetic", "n_per_class": 3, "length_range": [30, 45],
                "class_separation": 1.0},
        train={"epochs": 2, "early_stop_patience": None, "learning_rate": 1e300},
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("training failure: non-finite gradient"), err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_a_cutoff_below_the_conv_minimum_names_the_fold_and_the_cutoff(tmp_path, capsys,
                                                                      command):
    # 8-10-row recordings: the fold's cutoff, their rounded mean length, is 10
    # and the reference conv stack reads at least 15 steps
    main(["synth", "--out", str(tmp_path / "data"), "--n-per-class", "2", "--min-length", "8",
          "--max-length", "10", "--seed", "1"])
    cfg = _write_config(
        tmp_path / "c.json",
        source={"kind": "manifest", "path": "data/manifest.csv", "format": "synthetic"},
    )
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "data error: fold 0: its cutoff 10 (the rounded mean recording length; see "
        "cutoff_scope) is below the minimum 15 for the conv stack\n"
    )


@pytest.mark.parametrize(
    "command, runner", [("train", "run_experiment"), ("ablate", "run_ablation_grid")]
)
def test_uncreatable_out_fails_before_any_training(tmp_path, capsys, monkeypatch,
                                                   command, runner):
    def never(*args, **kwargs):
        pytest.fail(f"{runner} ran although the output directory cannot be created")

    monkeypatch.setattr(f"pendetect.evaluation.{runner}", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "run"
    cfg = _write_config(tmp_path / "c.json")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize("command, report", [("train", "report.json"), ("ablate", "ablation.json")])
def test_unwritable_report_is_an_io_error(tmp_path, capsys, command, report):
    cfg = _write_config(
        tmp_path / "c.json",
        source={
            "kind": "synthetic",
            "n_per_class": 3,
            "length_range": [25, 35],
            "class_separation": 1.0,
        },
        train={"epochs": 1, "early_stop_patience": None},
        features={"groups": ["pressure"]},
    )
    (tmp_path / "o" / report).mkdir(parents=True)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert str(tmp_path / "o" / report) in capsys.readouterr().err


def test_missing_config_flag_is_a_config_error(capsys):
    assert main(["train"]) == 1
    assert "config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config values checked before any work


@pytest.mark.parametrize("clip", [[90, 5], ["a", "b"]])
def test_bad_clip_pcts_is_a_config_error_before_any_work(tmp_path, capsys, clip):
    cfg = _write_config(tmp_path / "c.json", clip_pcts=clip)
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "clip_pcts" in err
    assert not out.exists()


def test_spec_whose_first_conv_does_not_fit_the_features_is_a_config_error(tmp_path, capsys):
    spec = {"conv_layers": [{"in_channels": 5, "out_channels": 8, "kernel": 5, "stride": 5}],
            "recurrent_layers": [{"cell": "gru", "hidden_units": 8}]}
    cfg = _write_config(tmp_path / "c.json", model={"spec": spec})
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: model.spec: first conv expects 5 channels, "
        "but features ['kinematic'] give 16\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("normalize", {"normalize": "false"}),
        ("model.with_conv", {"model": {"with_conv": "false"}}),
        (
            "features.include_raw_pressure_in_derived",
            {"features": {"groups": ["derived"], "include_raw_pressure_in_derived": "false"}},
        ),
    ],
)
def test_config_booleans_must_be_json_booleans(tmp_path, key, overrides):
    with pytest.raises(ConfigError, match=key):
        load_config(_write_config(tmp_path / "c.json", **overrides), env={})


_MANIFEST_SOURCE = {"kind": "manifest", "path": "manifest.csv", "format": "tablet_svc"}
_SYNTHETIC_SOURCE = {
    "kind": "synthetic", "n_per_class": 4, "length_range": [30, 45], "class_separation": 1.0
}


def _spec_doc(layers: str, field: str, value) -> dict:
    """The reference spec as JSON, with `field` of the first of `layers` set to `value`."""
    doc = ModelSpec.reference(17).to_dict()
    doc[layers][0][field] = value
    return doc


def _fault(block: str, field: str | None, value, id: str):
    """A config fault, `field` of `block` set to `value` (None: the block
    itself is `value`), and the start of its error, which names the key path."""
    if field is None:
        return pytest.param({block: value}, f"{block} must be a JSON object", id=id)
    base = {"source": _MANIFEST_SOURCE if field in ("path", "format", "sample_rate_hz")
            else _SYNTHETIC_SOURCE}.get(block, {})
    return pytest.param({block: {**base, field: value}}, f"{block}.{field} ", id=id)


@pytest.mark.parametrize(
    "overrides, message",
    [
        _fault("model", None, 5, "model-5"),
        _fault("features", None, ["derived"], "features-value1"),
        _fault("train", None, [1], "train-value2"),
        _fault("split", None, "kfold", "split-kfold"),
        _fault("source", "length_range", 5, "length-range-int"),
        _fault("source", "path", 5, "manifest-path-int"),
        _fault("source", "sample_rate_hz", "x", "rate-string"),
        _fault("features", "groups", 5, "groups-int"),
        _fault("train", "epochs", 2.5, "epochs-float"),
        _fault("split", "k", 2.5, "k-float"),
        _fault("source", "n_per_class", "x", "n-per-class-string"),
        _fault("source", "class_separation", "x", "separation-string"),
        _fault("source", "seed", "x", "source-seed-string"),
        _fault("source", "format", "bogus", "format-unknown"),
        _fault("source", "class_separation", 2, "separation-above-1"),
        _fault("source", "n_per_class", 0, "n-per-class-zero"),
        _fault("source", "sample_rate_hz", -1, "rate-negative"),
        _fault("source", "length_range", [5, 3], "length-range-reversed"),
        _fault("source", "length_range", [0, 3], "length-range-below-8"),
        _fault("source", "length_range", [45, 30], "length-range-descending"),
        _fault("source", "n_per_class", 2.5, "n-per-class-float"),
        _fault("train", "batch_size", True, "batch-size-bool"),
        _fault("train", "early_stop_patience", 1.5, "patience-float"),
        pytest.param({"out_dir": 5}, "out_dir ", id="out-dir-int"),
        pytest.param({"seed": -1}, "seed ", id="seed-negative"),
        _fault("source", "typo", 1, "source-unknown-key"),
        _fault("features", "include_raw_presure_in_derived", True, "features-unknown-key"),
        _fault("model", "typo", 1, "model-unknown-key"),
        _fault("train", "seed", 9, "train-unknown-key"),
        _fault("split", "typo", 1, "split-unknown-key"),
        pytest.param({"typo": 1}, "typo ", id="top-level-unknown-key"),
        _fault("model", "spec", _spec_doc("conv_layers", "kernel", 2.5), "spec-kernel-float"),
        _fault("model", "spec", _spec_doc("recurrent_layers", "hidden_units", True),
               "spec-hidden-units-bool"),
    ],
)
def test_config_blocks_must_be_json_objects(tmp_path, capsys, overrides, message):
    # the manifest names a recording that does not exist, so reading it
    # before the config check would be a data error (exit 2)
    (tmp_path / "manifest.csv").write_text("path,subject_id,task_id,label\nmissing.svc,s1,t,PD\n")
    cfg = _write_config(tmp_path / "c.json", **{"source": _MANIFEST_SOURCE, **overrides})
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and "Traceback" not in err
    assert not out.exists()


def test_manifest_that_is_a_directory_is_an_io_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.mkdir()
    cfg = _write_config(
        tmp_path / "c.json",
        source={"kind": "manifest", "path": "manifest.csv", "format": "tablet_svc"},
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(manifest.resolve()) in err and "Traceback" not in err


def test_manifest_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(b"path,subject_id,task_id,label\na.svc,s1,spiral,PD\xff\n")
    cfg = _write_config(
        tmp_path / "c.json",
        source={"kind": "manifest", "path": "manifest.csv", "format": "tablet_svc"},
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(manifest.resolve()) in err



@pytest.mark.parametrize("listed", ["missing", "directory"])
def test_manifest_listing_a_recording_that_is_not_a_file_names_the_manifest(
    tmp_path, capsys, listed
):
    if listed == "directory":
        (tmp_path / "rec0.svb").mkdir()
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,subject_id,task_id,label\nrec0.svb,s1,spiral,PD\n")
    cfg = _write_config(tmp_path / "c.json", source=_MANIFEST_SOURCE)
    assert main(["features", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {manifest.resolve()}: lists rec0.svb, ")
    assert err.count("\n") == 1


def _roc_report() -> ExperimentReport:
    report = ExperimentReport(kind="experiment", seed=0, config={})
    report.pooled = {"auc": 1.0, "roc_points": [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}
    return report


def _recording():
    return generate_synthetic(1, (20, 20), 0.5, seed=0)[0]


_WRITERS = {
    "write_text": lambda path: write_text(path, "text\n"),
    "emit_roc": lambda path: emit_roc(_roc_report(), path),
    "save_stats": lambda path: save_stats(
        NormalizationStats(column_names=["a"], mean=np.zeros(1), std=np.ones(1),
                           low_clip=-np.ones(1), high_clip=np.ones(1), fitted_on=1), path),
    "save_checkpoint": lambda path: SequenceClassifier(
        ModelSpec.reference(16), 16, np.random.default_rng(0)).save_checkpoint(path),
    "dump_csv": lambda path: dump_csv(
        assemble_features(_recording(), FeatureGroupSelection(("kinematic",))), path),
    "write_tablet_file": lambda path: write_tablet_file(_recording(), path),
    "write_manifest": lambda path: write_manifest(
        DatasetManifest([ManifestEntry("r.svc", "s1", "spiral", "PD")], "tablet_svc"), path),
}
_READERS = {
    "load_checkpoint": load_checkpoint,
    "load_stats": load_stats,
    "load_manifest": lambda path: load_manifest(path, format="tablet_svc"),
}


@pytest.mark.parametrize(
    "call, where",
    [*((w, where) for w in _WRITERS for where in ("missing-directory", "nul")),
     *((r, where) for r in _READERS for where in ("directory", "nul"))],
)
def test_an_artifact_that_cannot_be_read_or_written_is_an_io_error_naming_it(
    tmp_path, call, where
):
    path = {"missing-directory": tmp_path / "missing" / "file", "directory": tmp_path,
            "nul": tmp_path / "a\0b"}[where]
    with pytest.raises(IoError) as exc:
        {**_WRITERS, **_READERS}[call](path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("where", ["directory", "nul"])
def test_score_with_an_unreadable_checkpoint_is_an_io_error(tmp_path, capsys, where):
    recording = tmp_path / "rec.svc"
    recording.write_text("0 0 0 1 0 0 100\n" * 40)
    checkpoint = str(tmp_path) if where == "directory" else "a\0b"
    assert main(["score", "--checkpoint", checkpoint, "--input", str(recording)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {checkpoint}: ") and err.count("\n") == 1

def test_features_non_finite_derived_value_is_a_data_error_naming_the_recording(
    tmp_path, capsys
):
    # x alternates between +-1e308, so each step's displacement overflows;
    # a RuntimeWarning on the way would fail the test (pyproject's filterwarnings)
    rows = [f"{(-1) ** t * 1e308!r} 0 {t} 1 0 0 100\n" for t in range(20)]
    (tmp_path / "rec.svc").write_text("".join(rows))
    (tmp_path / "manifest.csv").write_text("path,subject_id,task_id,label\nrec.svc,s1,spiral,PD\n")
    cfg = _write_config(tmp_path / "c.json", source=_MANIFEST_SOURCE)
    assert main(["features", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: recording ('s1', 'spiral'): non-finite values in columns")


# ---------------------------------------------------------------------------
# the field table

_PRESET = json.loads(
    resolve_config_path(SimpleNamespace(preset="synthetic-quick", config=None)).read_text()
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=4,
)
_OUT_OF_RANGE = st.sampled_from(
    [-1, 0, 1, 2, 7, 8, 100, 101, 10**6 + 1, 2**63, 10**400, -0.5, 0.5, 1.5, 100.5, 1e308,
     math.inf, -math.inf, math.nan]
) | st.lists(st.integers(-10, 10**7) | st.floats(), max_size=3)


def _main(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_typed(field, value) -> None:
    """`value`, loaded for `field`, has exactly the field's type."""
    if value is None:
        assert field.null or field.default is None
    elif field.type is list:
        assert type(value) is tuple and all(type(v) is field.item for v in value)
    elif field.path == "model.spec":
        assert type(value) is ModelSpec
    elif field.path == "out_dir":
        assert isinstance(value, Path)
    else:
        assert type(value) is field.type


def _loaded(cfg: ExperimentConfig, path: str):
    block, _, key = path.rpartition(".")
    if block in ("source", "train", "split"):
        return {"source": cfg.source, "train": vars(cfg.train), "split": vars(cfg.plan)}[block][key]
    return {
        "seed": cfg.seed,
        "features.groups": cfg.features.groups,
        "features.include_raw_pressure_in_derived": cfg.features.include_raw_pressure_in_derived,
        "model.spec": cfg.model_spec,
        "model.cell": cfg.model_cell,
        "model.with_conv": cfg.model_with_conv,
        "out_dir": cfg.out_dir,
        **vars(cfg.prep),
    }[path]


@given(
    path=st.sampled_from(
        ["source", "features", "model", "train", "split"] + [f.path for f in CONFIG_FIELDS]
    ),
    value=_JSON_VALUES | _OUT_OF_RANGE,
)
@settings(max_examples=300, deadline=None)
def test_every_config_field_loads_typed_or_is_a_config_error(tmp_path_factory, path, value):
    doc = copy.deepcopy(_PRESET)
    *blocks, key = path.split(".")
    block = doc
    for name in blocks:
        block = block[name]
    block[key] = value
    cfg_path = tmp_path_factory.getbasetemp() / "fields.json"
    cfg_path.write_text(json.dumps(doc))
    try:
        cfg = load_config(cfg_path, env={})
    except ConfigError as exc:
        assert str(exc).startswith(path.split(".")[0])
        code, err = _main(["features", "--config", str(cfg_path)])
        assert code == 1 and err.startswith("config error: ") and "Traceback" not in err
        return
    for field in CONFIG_FIELDS:
        if not field.kind or field.kind in (cfg.source["kind"], cfg.plan.kind):
            _assert_typed(field, _loaded(cfg, field.path))


@given(
    key=st.sampled_from([None] + [f.path.split(".")[1] for f in PREPROCESSING_FIELDS]),
    value=_JSON_VALUES | _OUT_OF_RANGE,
)
@settings(max_examples=150, deadline=None)
def test_every_preprocessing_field_loads_typed_or_is_a_data_error(tmp_path_factory, key, value):
    work = tmp_path_factory.getbasetemp()
    svc, ckpt = work / "fields.svc", work / "fields.ckpt"
    svc.write_text("0 0 0 1 0 0 100\n" * 40)
    block = value if key is None else {"cutoff": 40, "feature_groups": ["kinematic"], key: value}
    SequenceClassifier(ModelSpec.reference(16), 16, np.random.default_rng(1)).save_checkpoint(
        ckpt, preprocessing=block
    )
    try:
        pre = _replayed_preprocessing(load_checkpoint(ckpt)[1], ckpt)
    except ParseError as exc:
        assert str(ckpt) in str(exc)
        code, err = _main(["score", "--checkpoint", str(ckpt), "--input", str(svc)])
        assert code == 2 and err.startswith("data error: ") and str(ckpt) in err
        return
    for field in PREPROCESSING_FIELDS:
        _assert_typed(field, pre[field.path.split(".")[1]])


# ---------------------------------------------------------------------------
# score's three input files, mutated

_SPLICES = ["nan", "1e400", "\ufeff", "\0", "\u2028", "1_0"]


def _mutated(data: bytes, kind: str, at: int, bit: int, token: str) -> bytes:
    i = at % (len(data) + 1)
    if kind == "flip":
        i = min(i, len(data) - 1)
        return data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1 :]
    if kind == "truncate":
        return data[:i]
    return data[:i] + token.encode("utf-8") + data[i:]


@given(
    target=st.sampled_from(["recording", "checkpoint", "sidecar"]),
    kind=st.sampled_from(["flip", "truncate", "splice"]),
    at=st.integers(0, 10**7),
    bit=st.integers(0, 7),
    token=st.sampled_from(_SPLICES),
)
@settings(max_examples=300, deadline=None)
def test_score_on_a_mutated_input_scores_or_names_the_file(
    tmp_path_factory, target, kind, at, bit, token
):
    base = tmp_path_factory.getbasetemp() / "score-inputs"
    if not base.exists():
        base.mkdir()
        ckpt, lines, _ = _score_fixture(base, "tablet_svc", 30, True)
        (base / "rec.svc").write_text("\n".join(lines[:100]) + "\n")
    work = tmp_path_factory.getbasetemp() / "score-mutated"
    work.mkdir(exist_ok=True)
    files = {"recording": "rec.svc", "checkpoint": "m.ckpt", "sidecar": "normalization.tsv"}
    for name, file in files.items():
        data = (base / file).read_bytes()
        (work / file).write_bytes(_mutated(data, kind, at, bit, token) if name == target else data)
    ckpt, recording = work / "m.ckpt", work / "rec.svc"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["score", "--checkpoint", str(ckpt), "--input", str(recording)])
    out, err = out.getvalue(), err.getvalue()
    # the only warning README documents: a first line skipped as a header
    assert all("assumed to be a header" in str(w.message) for w in caught)
    assert "nan" not in out.lower()
    if code == 0:
        assert err == "" and out.endswith((" PD\n", " HC\n"))
        assert 0.0 <= float(out.split()[0]) <= 1.0
    else:
        # a sidecar belongs to its checkpoint, which names it
        at_fault = recording if target == "recording" else ckpt
        assert code == 2 and out == ""
        assert err.startswith("data error: ") and str(at_fault) in err, err


@given(
    target=st.sampled_from(["config", "manifest"]),
    kind=st.sampled_from(["flip", "truncate", "splice"]),
    at=st.integers(0, 10**7),
    bit=st.integers(0, 7),
    token=st.sampled_from(_SPLICES),
)
@settings(max_examples=300, deadline=None)
def test_features_on_a_mutated_config_or_manifest_runs_or_names_the_file(
    tmp_path_factory, target, kind, at, bit, token
):
    # `features` loads and checks the config, the manifest and every
    # recording it lists, and trains nothing
    base = tmp_path_factory.getbasetemp() / "features-inputs"
    work = tmp_path_factory.getbasetemp() / "features-mutated"
    if not base.exists():
        base.mkdir()
        work.mkdir()
        rows = ["path,subject_id,task_id,label"]
        for i, seq in enumerate(generate_synthetic(2, (40, 60), 0.5, seed=8)):
            write_tablet_file(seq, work / f"rec{i}.svc")
            rows.append(f"rec{i}.svc,{seq.subject_id},{seq.task_id},{seq.label}")
        (base / "manifest.csv").write_text("\n".join(rows) + "\n")
        doc = copy.deepcopy(_PRESET)
        doc["source"] = {"kind": "manifest", "path": "manifest.csv", "format": "tablet_svc",
                         "sample_rate_hz": 200}
        (base / "c.json").write_text(json.dumps(doc, indent=1))
    files = {"config": "c.json", "manifest": "manifest.csv"}
    for name, file in files.items():
        data = (base / file).read_bytes()
        (work / file).write_bytes(_mutated(data, kind, at, bit, token) if name == target else data)
    cfg, manifest = work / "c.json", work / "manifest.csv"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["features", "--config", str(cfg), "--out", str(work / "out")])
    out, err = out.getvalue(), err.getvalue()
    assert caught == []
    assert "nan" not in out.lower()
    if code == 0:
        assert out.startswith("wrote ") and " feature files to " in out and err == "" or \
            out == "" and err == "warning: dataset is empty, nothing to do\n"
        return
    assert out == "" and err.count("\n") == 1
    if code == 1:
        # a config error names the config, or the key at fault in it
        assert target == "config" and err.startswith("config error: ")
        head, _, rest = err.removeprefix("config error: ").partition(" ")
        known = {f.path for f in CONFIG_FIELDS} | {f.path.split(".")[0] for f in CONFIG_FIELDS}
        assert str(cfg) in err or head.rstrip(":") in known or \
            rest.startswith("is not a known key"), err
    else:
        # a data error names the manifest, a recording file it lists, or
        # a recording by its (subject, task) pair
        assert code == 2 and err.startswith("data error: ")
        assert str(manifest) in err or f"data error: {work}{os.sep}" in err or \
            err.startswith("data error: recording ("), err



# ---------------------------------------------------------------------------
# train and ablate on mutated numbers

_TINY = {
    "seed": 1,
    "source": {"kind": "synthetic", "n_per_class": 2, "length_range": [16, 20],
               "class_separation": 1.0},
    "features": {"groups": ["pressure"]},
    "model": {"spec": ModelSpec(
        conv_layers=(Conv1dSpec(2, 3, kernel=3, stride=2),),
        recurrent_layers=(RecurrentSpec("gru", 3, dropout_rate=0.1, recurrent_dropout_rate=0.1),),
    ).to_dict()},
    "train": {"epochs": 1, "early_stop_patience": None},
    "clip_pcts": [5.0, 90.0],
}
_TINY_SPLITS = {
    "kfold": {"kind": "kfold", "k": 2},
    "holdout": {"kind": "holdout", "train_frac": 0.5, "val_frac": 0.0, "test_frac": 0.5,
                "n_runs": 1},
}
# rows that size no array, so a huge integer is only a number to them
_HUGE_OK = {"seed", "train.batch_size", "train.early_stop_patience", "split.k"}


def _fuzz_values(field) -> list:
    """0, 1e-320, 1e300, -0.0 and the finite ends of the row's interval; huge
    integers where they size nothing, and elsewhere no integer above 64."""
    values = [0, 1e-320, 1e300, -0.0]
    if isinstance(field.allowed, str) and field.allowed:
        ends = (float(e) for e in field.allowed[1:-1].split(","))
        values += [(field.item or field.type)(e) for e in ends if e != math.inf]
    if field.path in _HUGE_OK:
        return values + [2**64, 10**30]
    return [v for v in values if not (type(v) is int and v > 64)]


def _fuzz_targets(split: str, source: str) -> list:
    """(key path in the tiny config, row) for each number the tiny config
    with `split` and `source` holds or can hold, model.spec's layer fields
    included."""
    targets = []
    for f in CONFIG_FIELDS:
        if f.kind in ("", source, split) and (f.item or f.type) in (int, float):
            keys = tuple(f.path.split("."))
            targets += [(keys + (i,), f) for i in (0, 1)] if f.type is list else [(keys, f)]
    for layers, cls in (("conv_layers", Conv1dSpec), ("recurrent_layers", RecurrentSpec)):
        targets += [(("model", "spec", layers, 0, f.path), f) for f in declared(cls)
                    if f.type in (int, float)]
    return targets


_MUTATIONS = {(split, source): [(keys, v) for keys, f in _fuzz_targets(split, source)
                                for v in _fuzz_values(f)]
              for split in _TINY_SPLITS for source in ("synthetic", "manifest")}
_EXIT_PREFIXES = {1: ("config error: ",), 2: ("data error: ", "error: "),
                  3: ("training failure: ",)}


@pytest.fixture(scope="session")
def tiny_manifest(tmp_path_factory) -> Path:
    """A manifest of 2 subjects per class at 14 or 15 rows, around the
    reference conv stack's minimum of 15 that ablate's cells with conv
    need; its first recording opens with a sample-count header line."""
    data = tmp_path_factory.mktemp("tiny-manifest")
    with contextlib.redirect_stdout(io.StringIO()):
        main(["synth", "--out", str(data), "--n-per-class", "2", "--min-length", "12",
              "--max-length", "18", "--seed", "1"])
    first = data / load_manifest(data / "manifest.csv", format="tablet_svc").entries[0].path
    first.write_text(f"{len(first.read_text().splitlines())}\n{first.read_text()}")
    return data / "manifest.csv"


@given(command=st.sampled_from(["train", "ablate"]), split=st.sampled_from(sorted(_TINY_SPLITS)),
       source=st.sampled_from(["synthetic", "manifest"]), cell=st.sampled_from(CELLS),
       with_conv=st.booleans(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_train_and_ablate_on_mutated_numbers_run_or_fail_as_documented(
    tmp_path_factory, tiny_manifest, command, split, source, cell, with_conv, data
):
    doc = copy.deepcopy({**_TINY, "split": _TINY_SPLITS[split]})
    if source == "manifest":
        doc["source"] = {"kind": "manifest", "path": str(tiny_manifest), "format": "tablet_svc"}
    doc["model"]["spec"]["recurrent_layers"][0]["cell"] = cell
    if not with_conv:
        doc["model"]["spec"]["conv_layers"] = []
    mutations = [(keys, v) for keys, v in _MUTATIONS[split, source]
                 if with_conv or "conv_layers" not in keys]
    for keys, value in data.draw(st.lists(st.sampled_from(mutations), min_size=1, max_size=3)):
        block = doc
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
    work = tmp_path_factory.mktemp("fuzz")
    (work / "c.json").write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(work / "c.json"), "--out", str(work / "out")])
    out, err = out.getvalue(), err.getvalue()
    # no warning but the parser's own for the manifest's one header line
    assert [str(w.message) for w in caught if not (
        source == "manifest" and str(w.message).endswith("assumed to be a header"))] == []
    assert "nan" not in out.lower()
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(_EXIT_PREFIXES[code]) and err.count("\n") == 1, err
    if code == 0 and command == "train":  # the model written did not diverge
        theta = load_checkpoint(work / "out" / "model.ckpt")[0].theta
        with np.errstate(over="ignore"):
            assert np.isfinite(theta @ theta)


def test_a_model_that_scores_nan_after_its_last_update_is_a_training_failure(tmp_path, capsys):
    # with no validation part, nothing runs the model between the last
    # update and the fold's scoring pass, and at a learning rate of 1e300
    # some cell of the grid then scores nan
    doc = {**_TINY, "split": _TINY_SPLITS["holdout"],
           "train": {"epochs": 1, "early_stop_patience": None, "learning_rate": 1e300}}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["ablate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")])
    assert code == 3 and caught == []
    assert capsys.readouterr().err == \
        "training failure: fold 0: the trained model scores a non-finite probability\n"


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cell", CELLS)
def test_a_model_whose_parameters_diverged_is_a_training_failure(tmp_path, capsys, cell, seed):
    # without the conv stack the 1e300 weights of the last update still score
    # finite p (lstm at seed 1 scored every test row right); only their
    # squared norm, which overflows, shows that training diverged
    doc = {"seed": seed, "source": {"kind": "synthetic", "n_per_class": 2, "length_range": [30, 40],
                                    "class_separation": 1.0},
           "model": {"cell": cell, "with_conv": False}, "split": _TINY_SPLITS["holdout"],
           "train": {"epochs": 1, "early_stop_patience": None, "learning_rate": 1e300}}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")])
    assert code == 3 and caught == []
    assert capsys.readouterr().err == \
        "training failure: fold 0: the trained model's parameters diverged\n"
    assert not (tmp_path / "o" / "model.ckpt").exists()


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_example_config_loads(tmp_path):
    example = _readme().split("For real data", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    doc = json.loads(example)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,subject_id,task_id,label\n")
    doc["source"]["path"] = str(manifest)
    (tmp_path / "experiment.json").write_text(json.dumps(doc))
    cfg = load_config(tmp_path / "experiment.json", env={})
    assert cfg.source["path"] == manifest.resolve()


def test_readme_lists_every_field():
    readme = _readme()
    for field in CONFIG_FIELDS + PREPROCESSING_FIELDS:
        assert f"`{field.path}`" in readme
