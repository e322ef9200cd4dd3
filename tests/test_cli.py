import json
from pathlib import Path

import numpy as np
import pytest

from pendetect.cli import (
    ExperimentConfig,
    load_config,
    main,
    resolve_config_path,
    score_file,
)
from pendetect.errors import ConfigError, TrainingError
from pendetect.evaluation import strip_wall_clock
from pendetect.nn import ModelSpec, SequenceClassifier


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
    assert cfg.cutoff_scope == "train"
    assert cfg.normalize is True
    assert cfg.clip_pcts == (5.0, 90.0)


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


def test_env_overrides_epochs_and_out(tmp_path):
    path = _write_config(tmp_path / "c.json", out_dir="from-file")
    cfg = load_config(path, env={"PENDETECT_EPOCHS": "9", "PENDETECT_OUT": "from-env"})
    assert cfg.train.epochs == 9
    assert cfg.out_dir == Path("from-env")
    cfg = load_config(path, out_override="from-flag", env={"PENDETECT_OUT": "from-env"})
    assert cfg.out_dir == Path("from-flag")


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


def test_features_command(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    code = main(["features", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0
    files = list((tmp_path / "o" / "features").glob("*.csv"))
    assert len(files) == 8
    out = capsys.readouterr().out
    assert "kinematic=16" in out


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


def test_score_too_short_input_is_a_data_error(tmp_path, capsys):
    model = SequenceClassifier(ModelSpec.reference(16), 16, np.random.default_rng(0))
    ckpt = tmp_path / "m.ckpt"
    model.save_checkpoint(
        ckpt, preprocessing={"cutoff": 30, "feature_groups": ["kinematic"], "format": "synthetic"}
    )
    short = tmp_path / "short.svc"
    short.write_text("0 0 0 1 0 0 100\n")
    assert main(["score", "--checkpoint", str(ckpt), "--input", str(short)]) == 2
    assert "data error" in capsys.readouterr().err


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

    monkeypatch.setattr("pendetect.cli.run_experiment", boom)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "training failure" in capsys.readouterr().err


def test_missing_config_flag_is_a_config_error(capsys):
    assert main(["train"]) == 1
    assert "config" in capsys.readouterr().err
