"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/repeat.py --seeds 1-10 [--trace 0] [--out perfbench/baseline.json]

Runs every workload that BENCHMARK.json lists, for its ``run_seconds``, one
seed at a time, each in its own process, as ``run.py`` is meant to be run.
The spread of a metric is the distance between the first and third
quartiles of its values (``statistics.quantiles(values, n=4)``) as a share
of their median.  Untraced runs also report the unscaled wall-time values
from the detail line.  ``--out`` writes the medians, spreads, seeds and the
machine description.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 600


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    record = {"seeds": _seeds(args.seeds), "seconds": seconds, "trace": args.trace,
              "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, args.trace) for seed in record["seeds"]]
        record["machine"] = runs[-1][0]["machine"]
        metrics = {}
        for name in runs[0][1]["metrics"]:
            values = [r[1]["metrics"][name]["value"] for r in runs]
            metrics[name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "unit": runs[0][1]["metrics"][name]["unit"],
                "values": values,
            }
        record["workloads"][workload] = {
            "metrics": metrics,
            "attempted": [r[1]["attempted"] for r in runs],
            "failed": [r[1]["failed"] for r in runs],
            "correct": all(r[1]["correct"] for r in runs),
        }
        if not args.trace:
            record["workloads"][workload]["wall"] = {
                name: {"median": statistics.median(v), "spread": spread(v), "values": v}
                for name, v in ((name, [r[0]["wall"][name] for r in runs])
                                for name in runs[0][0]["wall"])
            }
        print(f"== {workload}  correct={record['workloads'][workload]['correct']}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "  OK" if m["spread"] < bound / 3 else "  WIDE"
            print(f"  {name:40s} median {m['median']:.6g} {m['unit']:6s} spread {m['spread']:.4f}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}")
        for name, m in record["workloads"][workload].get("wall", {}).items():
            print(f"  wall {name:35s} median {m['median']:.6g}        spread {m['spread']:.4f}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
