"""Tests of the benchmark itself: python -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from measure import (  # noqa: E402
    REFERENCE_KERNEL_S, SPEED_EXPONENT, Calibration, spread, tail,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- tail percentile ---------------------------------------------------------


def test_tail_has_exactly_ten_samples_beyond_it():
    samples = list(np.random.default_rng(3).permutation(100).astype(float))
    value, pct, n = tail(samples)
    assert n == 100
    assert sum(s > value for s in samples) == 10
    assert pct == 90.0


def test_tail_at_forty_samples_is_the_upper_quartile():
    samples = [float(v) for v in range(40, 0, -1)]
    assert tail(samples) == (30.0, 75.0, 40)


@pytest.mark.parametrize("n, value", [(1, 0.0), (2, 1.0), (4, 2.0), (13, 9.0), (39, 29.0)])
def test_tail_is_the_upper_quartile_below_forty_samples(n, value):
    samples = [float(v) for v in range(n)]
    assert tail(samples) == (value, 75.0, n)


def test_calibration_factor_follows_the_exponent():
    assert Calibration().factor_of(REFERENCE_KERNEL_S) == 1.0
    assert Calibration().factor_of(2 * REFERENCE_KERNEL_S) == pytest.approx(0.5 ** SPEED_EXPONENT)


def test_sampling_runs_the_kernel_inside_a_long_body_and_restores_the_timer():
    cal = Calibration()
    cal.run(cal.EVERY_S)
    before = len(cal.samples)
    with cal.sampling():
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(cal.samples) > before
    assert cal.spent > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_spread_is_interquartile_distance_over_median():
    median, rel = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert median == 3.0
    assert rel == pytest.approx((4.5 - 1.5) / 3.0)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    S = spans.Span
    tree = [
        S(0, None, 0, "root", 0.0, 10.0),
        S(1, 0, 0, "a", 1.0, 4.0),
        S(2, 1, 0, "a.child", 2.0, 3.0),
        S(3, 0, 0, "b", 3.0, 6.0),    # overlaps a: counted once
        S(4, 0, 0, "c", 8.0, 12.0),   # runs past root: clipped at 10
        S(5, None, 1, "other", 20.0, 21.0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 1.0])


def test_aggregate_sums_calls_self_and_total_time():
    S = spans.Span
    tree = [
        S(0, None, 0, "cli.score_file", 0.0, 5.0),
        S(1, 0, 0, "nn.model.load_checkpoint", 1.0, 3.0),
        S(2, None, 1, "cli.score_file", 10.0, 11.0),
    ]
    metrics = spans.aggregate(tree, 0.05)
    assert metrics["cli.score_file.calls"] == 2
    assert metrics["cli.score_file.total_s"] == pytest.approx(6.0)
    assert metrics["cli.score_file.self_s"] == pytest.approx(4.0)
    assert metrics["nn.model.load_checkpoint.self_s"] == pytest.approx(2.0)
    assert metrics["trace.overhead_frac"] == 0.05
    assert "cli.score_file" not in spans.missing_spans(metrics, "score-stream")
    assert "signal_io.parse_tablet_file" in spans.missing_spans(metrics, "score-stream")


def test_overhead_frac_compares_pairs_at_reference_speed():
    class HalfSpeedLater:
        @staticmethod
        def factor(start, end):
            return 0.5 if start >= 10.0 else 1.0

    # the traced op took twice the wall time, on a machine running at half speed
    samples = {"untraced": {0: (0.0, 2.0, 2.0)}, "traced": {0: (10.0, 14.0, 4.0)}}
    assert run.overhead_frac(samples, HalfSpeedLater()) == 0.0


# -- names and the metric lists ----------------------------------------------


def test_every_name_matches_the_name_rule_and_is_unique():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [name for name, *_ in spans.SPANS]
    for name in names:
        assert NAME_RE.fullmatch(name), name
        assert name[0].isalnum() and len(name) <= 64, name
    metric_names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(metric_names) == len(set(metric_names))


def test_benchmark_json_lists_the_metrics_the_code_defines():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == spans.per_layer_catalog()
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_exactly_the_listed_metrics(trace, section):
    proc = _run("--workload", "score-stream", "--seed", "5", "--seconds", "0.2",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
    assert printed == [(m["name"], m["unit"]) for m in BENCH[section]]


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cv-gru-conv", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the tracer ----------------------------------------------------------------


def test_tracer_leaves_numbers_alone_and_restores_every_original():
    from pendetect import cli, evaluation
    from pendetect.nn import ModelSpec, SequenceClassifier
    from pendetect.nn.layers import Recurrent

    originals = (cli.load_checkpoint, evaluation.assemble_features,
                 Recurrent.__dict__["forward"], SequenceClassifier.__dict__["forward"])
    spec = ModelSpec.reference(4)
    x = np.random.default_rng(0).normal(size=(40, 4))
    plain = SequenceClassifier(spec, 4, np.random.default_rng(1)).forward(x)

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.load_checkpoint is not originals[0]
        traced = SequenceClassifier(spec, 4, np.random.default_rng(1)).forward(x)
    finally:
        tracer.uninstall()

    assert traced == plain
    assert (cli.load_checkpoint, evaluation.assemble_features,
            Recurrent.__dict__["forward"], SequenceClassifier.__dict__["forward"]) == originals
    metrics = spans.aggregate(tracer.spans, 0.0)
    assert metrics["nn.model.forward_eval.calls"] == 1
    assert metrics["nn.rec0.forward.steps"] == 2 * 2  # T=40 -> 8 -> 2 steps, 2 directions
    assert metrics["nn.conv0.forward.flops"] == 2 * 8 * 5 * 4 * 8
