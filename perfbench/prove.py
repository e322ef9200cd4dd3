"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/prove.py [--workloads A,B] [--seeds 10] [--first-seed 1]
                               [--seconds S] [--trace 0|1]

Runs ``run.py`` once per (workload, seed), one process at a time, from
the root of the checkout. For every end-to-end metric it prints the
median over seeds and the interquartile distance over the median (the
spread), as ``statistics.quantiles(values, n=4)`` gives the quartiles,
next to the metric's bound from BENCHMARK.json. The summary is written
to ``.perfbench_out/prove-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from measure import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median, rel = spread(values) if len(values) > 1 else (values[0], 0.0)
            rows[name] = {"median": median, "spread": rel, "bound": bounds.get(name),
                          "values": values, "unit": runs[0]["metrics"][name]["unit"]}
            if args.trace == 0:
                print(f"  {name:14s} median {median:12.4f} {rows[name]['unit']:6s} "
                      f"spread {rel:.4f} bound {bounds.get(name)}")
        summary[workload] = {"runs": runs, "metrics": rows}
    out = ROOT / ".perfbench_out" / f"prove-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"all correct: {ok}; summary in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
