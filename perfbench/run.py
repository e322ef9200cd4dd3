"""End-to-end benchmark of pendetect.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is imported from ``src/``;
every input is generated from ``--seed``. Workloads (see workloads.py):

* ``cv-gru-conv``   one full 10-fold ``run_experiment`` per operation
* ``ablation-grid`` one full ``run_ablation_grid`` per operation
* ``score-stream``  one warm ``cli.score_file`` call per operation, with a
  cold ``python -m pendetect.cli score`` process after every 30 of them,
  followed by one untimed warm call

Operations run back to back, one caller, until ``--seconds`` have passed
(and at least the workload's minimum count). With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics:

* ``setup_s``      median of fifteen set-ups, each the import of numpy and
                   pendetect.cli in a fresh interpreter plus the
                   workload's input generation in this process
* ``op_p50_ms``    median time of one operation
* ``op_tail_ms``   highest percentile of it with ten operations beyond,
                   but at least the 75th (measure.tail)
* ``peak_rss_mb``  peak resident memory of this process

Times are given at reference speed (see measure.Calibration): this
shared machine's speed drifts by up to a factor of two within minutes,
and scaling by a fixed kernel timed around each measurement removes most
of that drift. The fresh interpreter times the kernel itself, right after
its import (measure.import_child). The wall-clock values are printed and
stored next to them.

With ``--trace 1`` operations alternate untraced and traced on the same
input, and the line carries the per-layer span metrics of spans.py
instead. Output checks count failed operations in ``failed``. The
workload's named metrics (``cv_wall_s``, ``cv_auc``, ``grid_wall_s``,
``score_p50_ms``, ``score_tail_ms``, ``score_cold_ms``, ``failed_frac``),
its input properties and the environment are printed above the last line
and written to ``.perfbench_out/<workload>-seed<N>-trace<T>/result.json``.
Times are wall clock as measured, less the calibration kernel's time
inside an operation.

BLAS threads are pinned to 1 unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
or MKL_NUM_THREADS ask for more, and never above the usable core count.
The single-thread setting is the stated baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from measure import Calibration, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15
WORKLOADS = ("cv-gru-conv", "ablation-grid", "score-stream")
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> dict[str, int]:
    cores = len(os.sched_getaffinity(0))
    pinned = {}
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        pinned[var] = max(1, min(wanted, cores))
        os.environ[var] = str(pinned[var])
    return pinned


def environment(pinned: dict[str, int]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: v for k, v in blas.items() if "directory" not in k}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_pinned": pinned,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def fresh_import_s(cal: Calibration) -> tuple[float, float]:
    """(wall seconds, seconds at reference speed) a fresh interpreter takes
    to import numpy and pendetect.cli; see measure.import_child."""
    path = os.pathsep.join([str(SRC), str(HERE)])
    proc = subprocess.run([sys.executable, "-c", "import measure; measure.import_child()"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=120, check=True)
    seconds, kernel_s = (float(v) for v in proc.stdout.split())
    return seconds, seconds * cal.factor_of(kernel_s)


def run_op(workload, step, tracer, cal):
    """Run and check one operation: traced if `tracer`, else with the
    calibration kernel sampling inside it.

    Returns (start, end, seconds net of the kernel's time, error or None).
    """
    if tracer:
        tracer.trace_id = step
    around = tracer.installed() if tracer else cal.sampling()
    spent = cal.spent
    started = time.perf_counter()
    try:
        with around:
            output = workload.op(step)
    except Exception:  # one failed operation must not end the run
        traceback.print_exc()
        return started, time.perf_counter(), 0.0, "operation raised"
    ended = time.perf_counter()
    seconds = ended - started - (cal.spent - spent)
    try:
        error = workload.check(step, output)
    except Exception:
        traceback.print_exc()
        error = "output check raised"
    return started, ended, seconds, error


def measure(workload, seconds: float, tracer, cal: Calibration) -> dict:
    """Closed loop of operations for `seconds`; with a tracer, every odd
    operation is traced and repeats the input of the one before it. The
    calibration runs between operations and inside untraced ones."""
    samples = {"untraced": {}, "traced": {}}  # step -> (start, end, seconds)
    errors: list[str] = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    min_ops = workload.min_ops if tracer is None else max(workload.min_ops, 2)
    i = 0
    # with a tracer, stop only after a traced operation, so pairs stay complete
    while i < min_ops or time.perf_counter() < deadline or (tracer and i % 2):
        traced = tracer is not None and i % 2 == 1
        step = i // 2 if tracer is not None else i
        start, end, seconds, error = run_op(workload, step, tracer if traced else None, cal)
        cal.maybe_run()
        attempted += 1
        i += 1
        if error is not None:
            errors.append(f"op {step}: {error}")
        else:
            samples["traced" if traced else "untraced"][step] = (start, end, seconds)
        if workload.cold_every and i % workload.cold_every == 0 and error is None:
            attempted += 1
            try:
                error = workload.cold()
            except Exception:
                traceback.print_exc()
                error = "cold run raised"
            if error is not None:
                errors.append(f"cold after op {step}: {error}")
            # the cold process evicted this one's caches; a warm call after
            # it would time that, so repeat the last operation untimed first
            attempted += 1
            error = run_op(workload, step, None, cal)[3]
            if error is not None:
                errors.append(f"warm-up after op {step}: {error}")
    try:
        late = workload.finish()
    except Exception:
        traceback.print_exc()
        late = ["final output check raised"]
    errors.extend(late)
    return {"samples": samples, "errors": errors, "attempted": attempted}


def end_to_end(setup_s: float, op_s: list[float]) -> dict[str, float]:
    """The end-to-end metrics from times at reference speed."""
    return {
        "setup_s": setup_s,
        "op_p50_ms": 1e3 * statistics.median(op_s) if op_s else 0.0,
        "op_tail_ms": 1e3 * tail(op_s)[0] if op_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def overhead_frac(samples: dict, cal: Calibration) -> float:
    """Traced minus untraced time over untraced, on paired operations, each
    at reference speed."""
    def seconds(start, end, net):
        return net * cal.factor(start, end)

    pairs = [(seconds(*samples["untraced"][s]), seconds(*t))
             for s, t in samples["traced"].items() if s in samples["untraced"]]
    if not pairs:
        return 0.0
    untraced = sum(u for u, _ in pairs)
    return (sum(t for _, t in pairs) - untraced) / untraced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pendetect" / "__init__.py").is_file():
        print(f"perfbench: no pendetect sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    pinned = pin_blas_threads()

    sys.path.insert(0, str(SRC))
    import pendetect.cli
    import spans
    import workloads

    if Path(pendetect.cli.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: imported pendetect from {pendetect.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = out_dir / "work"
    shutil.rmtree(out_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    workload = workloads.make(args.workload, SRC)
    tracer = spans.Tracer() if args.trace else None
    cal = Calibration()
    cal.run(cal.EVERY_S)
    setup_wall, setup_ref = [], []
    for _ in range(1 if tracer else SETUP_REPEATS):
        imported, imported_ref = fresh_import_s(cal)
        cal.maybe_run()
        spent = cal.spent
        with tracer.installed() if tracer else cal.sampling():
            t0 = time.perf_counter()
            workload.setup(args.seed, work_dir)
            t1 = time.perf_counter()
        setup = t1 - t0 - (cal.spent - spent)
        cal.maybe_run()
        setup_wall.append(imported + setup)
        setup_ref.append(imported_ref + setup * cal.factor(t0, t1))

    run = measure(workload, args.seconds, tracer, cal)
    errors = list(run["errors"])
    intervals = list(run["samples"]["untraced"].values())
    op_s = [net for _, _, net in intervals]
    op_ref = [net * cal.factor(start, end) for start, end, net in intervals]

    if tracer:
        metrics = spans.aggregate(tracer.spans, overhead_frac(run["samples"], cal))
        units = dict(spans.per_layer_catalog())
        missing = spans.missing_spans(metrics, args.workload)
        if missing:
            errors.append(f"spans with no call on {args.workload}: {missing}")
        if not run["samples"]["traced"]:
            errors.append("no traced operation passed its checks")
        with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.span_id, s.parent, s.trace_id, s.name,
                                     s.start, s.end, s.counters]) + "\n")
    else:
        metrics = end_to_end(statistics.median(setup_ref), op_ref)
        units = dict(END_TO_END)

    failed = len(errors)
    attempted = run["attempted"]
    named = workload.named_metrics(op_s)
    named["setup_wall_s"] = (statistics.median(setup_wall), "s")
    named["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    named["failed_frac"] = (failed / attempted, "ratio")
    result = {
        "correct": failed == 0 and bool(op_s),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(pinned),
        "properties": workload.properties(),
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "setup_samples_s": setup_wall,
        "setup_reference_s": setup_ref,
        "op_samples_s": op_s,
        "op_reference_s": op_ref,
        "op_kernel_s": [cal.at(start, end) for start, end, _ in intervals],
        "op_intervals_s": [(start, end) for start, end, _ in intervals],
        "kernel_samples_s": cal.samples,
        "errors": errors,
        "result": result,
    }
    shutil.rmtree(work_dir, ignore_errors=True)
    (out_dir / "result.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for message in errors:
        print(f"FAILED {message}")
    for name, (value, unit) in named.items():
        print(f"{name} {value} {unit}")
    print(f"properties {json.dumps(report['properties'])}")
    print(f"environment {json.dumps(report['environment'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
