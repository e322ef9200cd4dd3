"""The benchmark's traced runs stay clean.

A traced run fails when a span that serves its workload records no call,
so these runs catch a training or scoring path that stops going through a
traced function. They take about two seconds each.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
    return result


@pytest.mark.parametrize("workload", ["cv-gru-conv", "ablation-grid"])
def test_traced_training_run_is_correct(workload):
    result = _traced_run(workload)
    calls = {name: result["metrics"][f"preprocess.{name}.calls"]["value"]
             for name in ("fit_normalization", "apply_normalization", "fit_length")}
    # each fold fits its normalization once, and normalizes and length-fits
    # all of its rows in one call each
    assert 0 < calls["apply_normalization"] == calls["fit_length"] == calls["fit_normalization"]


def test_traced_scoring_run_is_correct():
    # the workload's own checks run on the batch-1 path: warm p equals the
    # model's forward to 1e-12, and the cold CLI prints the same four decimals
    _traced_run("score-stream")
