"""dissipext benchmark: one command, one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload verdict_map --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The run builds the workload's inputs from ``--seed``,
does one untimed warm-up operation, then repeats whole rounds of the
workload until ``--seconds`` have passed.  Each operation is a call a user
makes, issued only after the previous one returned.  Every output is checked
against its closed form.

``--trace 0`` prints the end-to-end metrics.  Their timings are wall times
scaled to a reference machine speed by a calibration loop run around each
timed operation (see ``workloads``); the detail keeps the wall times.
``--trace 1`` alternates untraced and traced rounds, checks that both give
identical outputs, and prints the per-layer metrics of the traced rounds per
round, the tracing overhead and the share of traced time that no layer span
covers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the detail: the metrics under the names of the workload's own
operations, the sample counts, the skipped checks, the failures with their
inputs and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh processes that each import the package and build the inputs
SETUP_PROBES = 9
SETUP_PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_s_p50": "s",
    "latency_s_tail": "s",
    "throughput_per_s": "1/s",
}

#: the workload's own name for each gated metric, printed in the detail line
OWN_NAMES = {
    "verdict_map": ("check_s_p50", "check_s_tail", "sweep_points_per_s"),
    "oracle_coarse": ("oracle_s_p50", "oracle_s_tail", "oracle_per_s"),
    "general_span": ("general_special_s_p50", "general_special_s_tail", "general_per_s"),
}


def per_layer_names() -> dict:
    """Per-layer metric name -> (unit, better)."""
    from layertrace import LAYERS

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
    out.update({
        "oracle.pencil_dim_sum": ("count", "lower"),
        "oracle.resolution_limited.count": ("count", "lower"),
        "oracle.agree_ratio": ("ratio", "higher"),
        "analytic.quad_ratio": ("ratio", "lower"),
        "trace.overhead_ratio": ("ratio", "lower"),
        "trace.uncovered_share": ("ratio", "lower"),
        "trace.rounds": ("count", "higher"),
    })
    return out


# ---------------------------------------------------------------------------
# environment


def import_package():
    """Import dissipext from this checkout's ``src``; exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "dissipext", "__init__.py")):
        sys.stderr.write(f"no dissipext sources under {SRC}; run from a source checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import dissipext

    if not os.path.abspath(dissipext.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"dissipext imported from {dissipext.__file__}, not from {SRC}\n")
        sys.exit(2)
    return dissipext


def _blas() -> dict:
    """BLAS library and the thread count it runs with (read, never changed)."""
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def machine() -> dict:
    import mpmath
    import numpy as np
    import workloads

    nproc = os.cpu_count() or 1
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": _blas(),
        # the pool verdict_map's sweeps run on, and ThreadPoolExecutor's
        # default, which the CLI's sweep runs on
        "sweep_workers": workloads.SWEEP_WORKERS,
        "cli_sweep_pool_threads": min(32, nproc + 4),
    }


# ---------------------------------------------------------------------------
# statistics


#: a round that times at least this many distinct inputs takes its tail over
#: the inputs' medians
TAIL_OVER_INPUTS = 40


def tail(samples: list, keys: list) -> tuple[float, float, str, int]:
    """(percentile, value, over, count): the highest of 99.9/99/95/90/75 with
    at least ten samples beyond it, or the median when there are fewer than
    40 samples.  When the rounds time at least ``TAIL_OVER_INPUTS`` distinct
    inputs, a sample is one input's median over the rounds, so that a
    scheduler stall on a millisecond operation does not make a tail of its
    own; otherwise a sample is one operation."""
    import numpy as np

    by_input: dict = {}
    for key, value in zip(keys, samples):
        by_input.setdefault(key, []).append(value)
    over = "operations"
    if len(by_input) >= TAIL_OVER_INPUTS:
        samples, over = [statistics.median(v) for v in by_input.values()], "inputs"
    n = len(samples)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - q) >= 1000.0 - 1e-6:
            return q, float(np.percentile(samples, q)), over, n
    return 50.0, float(statistics.median(samples)), over, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# runs


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time the package import plus building the inputs, then
    the machine's speed right after, by three calibration loops."""
    t0 = perf_counter()
    import_package()
    import workloads

    workloads.WORKLOADS[workload].build(seed)
    setup = perf_counter() - t0
    workloads.calibration()
    print(json.dumps({"setup_s": setup, "speed": workloads.calibrated_speed(samples=3)}))


def measure_setup(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"setup probe failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_plain(wl, inputs, seconds: float, rec) -> None:
    t_start = perf_counter()
    while True:
        wl.run_round(inputs, rec)
        if perf_counter() - t_start >= seconds:
            return


def end_to_end(wl, rec, probes: list) -> tuple[dict, dict]:
    q, tail_value, tail_over, tail_samples = tail(rec.latency, rec.latency_keys)
    wall_tail = tail(rec.wall_latency, rec.latency_keys)[1]
    values = {
        "setup_s": statistics.median(p["setup_s"] / p["speed"] for p in probes),
        "peak_rss_mb": peak_rss_mb(),
        "latency_s_p50": statistics.median(rec.latency),
        "latency_s_tail": tail_value,
        "throughput_per_s": sum(r[0] for r in rec.rounds) / sum(r[1] for r in rec.rounds),
    }
    own = OWN_NAMES[wl.name]
    detail = {
        own[0]: values["latency_s_p50"],
        own[1]: values["latency_s_tail"],
        "tail_percentile": q,
        "tail_over": tail_over,
        "tail_samples": tail_samples,
        "latency_samples": len(rec.latency),
        own[2]: values["throughput_per_s"],
        "rounds": len(rec.rounds),
        "wall": {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "latency_s_p50": statistics.median(rec.wall_latency),
            "latency_s_tail": wall_tail,
            "throughput_per_s": sum(r[0] for r in rec.rounds) / sum(r[2] for r in rec.rounds),
        },
        "speed": {
            "p50": statistics.median(rec.speeds),
            "min": min(rec.speeds),
            "max": max(rec.speeds),
            "samples": len(rec.speeds),
            "setup_p50": statistics.median(p["speed"] for p in probes),
        },
        "setup_probes": probes,
    }
    for key, samples in sorted(rec.detail.items()):
        if isinstance(samples, list) and samples:
            detail[f"{key}.p50"] = statistics.median(samples)
        elif not isinstance(samples, list):
            detail[key] = samples
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, detail


def run_traced(wl, inputs, seconds: float, rec) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds; per-layer metrics per traced round."""
    import workloads
    from layertrace import Tracer, union_length

    tracer = Tracer()
    plain_walls, traced_walls = [], []
    traced_span = 0.0
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        reference = repr(wl.run_round(inputs, workloads.Recorder()))
        plain_walls.append(perf_counter() - t0)
        n_roots = len(tracer.root_intervals)
        with tracer:
            t0 = perf_counter()
            got = repr(wl.run_round(inputs, rec))
            t1 = perf_counter()
        traced_walls.append(t1 - t0)
        traced_span += union_length(tracer.root_intervals[n_roots:], t0, t1)
        rec.check(got == reference, "traced and untraced outputs identical", wl.name,
                  "outputs differ")
        if perf_counter() - t_start >= seconds:
            break
    rounds = len(traced_walls)
    values = {}
    names = per_layer_names()
    for name in names:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = tracer.calls.get(layer, 0) / rounds
        elif stat == "self_s":
            values[name] = tracer.self_s.get(layer, 0.0) / rounds
    counts = rec.counts
    cv = counts.get("oracle.cross_validations", 0)
    integrals = tracer.calls.get("analytic.integral", 0)
    values.update({
        "oracle.pencil_dim_sum": tracer.counters.get("oracle.pencil_dim_sum", 0) / rounds,
        "oracle.resolution_limited.count": counts.get("oracle.resolution_limited", 0) / rounds,
        "oracle.agree_ratio": counts.get("oracle.agree_or_limited", 0) / cv if cv else 0.0,
        "analytic.quad_ratio": (tracer.calls.get("analytic.mpmath_quad", 0) / integrals
                                if integrals else 0.0),
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
        "trace.uncovered_share": 1.0 - traced_span / sum(traced_walls),
        "trace.rounds": rounds,
    })
    metrics = {name: {"value": values[name], "unit": names[name][0]} for name in names}
    detail = {
        "traced_round_s": traced_walls,
        "untraced_round_s": plain_walls,
        "missing_targets": tracer.missing,
        "agree_ratio_base_cross_validations_per_round": cv / rounds,
        "quad_ratio_base_integral_calls_per_round": integrals / rounds,
    }
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    wl.warmup(inputs)
    if args.trace:
        rec = workloads.Recorder()
        metrics, detail = run_traced(wl, inputs, args.seconds, rec)
    else:
        probes = [measure_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        workloads.calibration()  # mpmath.quad makes its nodes on first use
        rec = workloads.Recorder(calibrate=True)
        run_plain(wl, inputs, args.seconds, rec)
        if not rec.latency or not sum(r[1] for r in rec.rounds):
            print(json.dumps({"detail": {"workload": wl.name, "seed": args.seed,
                                         "failures": rec.failures}}))
            sys.stderr.write("no operation completed; see the failures above\n")
            return 1
        metrics, detail = end_to_end(wl, rec, probes)
    detail.update({
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "failure_ratio": rec.failed / rec.attempted if rec.attempted else 0.0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "sign_checks_skipped_near_boundary": rec.skipped,
        "counts": rec.counts,
        "failures": rec.failures,
        "machine": machine(),
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
