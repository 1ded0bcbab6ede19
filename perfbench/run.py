"""The mblaser benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload period-map-1e5 --seed 1 --seconds 10 --trace 0

The package is imported from the checkout's ``src``; nothing is installed.
With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones.  The line before it is a JSON record with
the machine, the output digest, op-time quantiles, every check and the span
table.  See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from machine import machine_record, pin_blas_threads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("period-map-1e5", "pump-scan-1e6")
#: fresh interpreters started per run to time set-up; setup_s is their median
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60
#: every phase runs at least this many ops; digests, counts and the error
#: metrics are taken over exactly these, so they repeat at a fixed seed
MIN_OPS = 3


@dataclass
class OpResult:
    stream: int
    k: int
    seconds: float
    ok: bool
    info: dict
    chunk: bytes
    inp: Any = None
    out: Any = None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="timed op seconds per run (shared by untraced and "
                   "traced ops with --trace 1)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package() -> float:
    """Import mblaser.cli, which pulls in every module, from the checkout."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import mblaser.cli
    seconds = time.perf_counter() - t0
    if Path(mblaser.cli.__file__).resolve().parent != SRC / "mblaser":
        raise SystemExit(f"error: mblaser imported from {mblaser.cli.__file__}, "
                         f"not from {SRC}")
    return seconds


def probe_setup(args) -> int:
    """Child process: set up as a run does and report when the first op could start."""
    import_s = import_package()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "import_s": import_s,
                      "config_s": wl.config_s, "sample_s": wl.sample_s}))
    return 0


def measure_setup(args) -> dict:
    """Medians over fresh interpreters of set-up time and its parts."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr[-2000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["setup_s"] = probe.pop("ready") - start
        samples.append(probe)
    medians = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    medians["setup_s_samples"] = [s["setup_s"] for s in samples]
    return medians


def run_phase(wl, stream, seconds, min_ops, tracer=None, start=0):
    """Ops back to back until `seconds` of op time and `min_ops` ops are done.

    Only `wl.op` is timed.  Each result is checked right after its op; an op
    or check that raises counts as a failed op.  The cyclic garbage collector
    runs before each op, untimed: scipy's solvers sit in reference cycles, so
    without it an op would pay at random for freeing earlier ops' solver
    state, and peak memory would count that dead state.
    """
    results = []
    busy = 0.0
    k = start
    while k < start + min_ops or busy < seconds:
        inp = wl.inputs(stream, k)
        gc.collect()
        if tracer is not None:
            tracer.op = (stream, k)
        t0 = time.perf_counter()
        try:
            out = wl.op(inp)
            error = None
        except Exception:
            out, error = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        if error is None:
            try:
                ok, info, chunk = wl.check(stream, k, inp, out)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"op {stream}/{k} failed:\n{error}", file=sys.stderr)
            ok, info, chunk = False, {"error": error.strip().splitlines()[-1]}, b""
        keep = wl.keeps_results
        results.append(OpResult(stream, k, dt, ok, info, chunk,
                                inp if keep else None, out if keep else None))
        busy += dt
        k += 1
    return results


def quantiles(values) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "min": values[0], "q1": q[0], "median": q[1],
            "q3": q[2], "max": values[-1]}


def ops_per_s(results) -> float:
    return len(results) / sum(r.seconds for r in results)


def first_info_max(results, key) -> float:
    """Largest check value over the first MIN_OPS ops (0 where not measured)."""
    vals = [r.info.get(key) for r in results[:MIN_OPS]]
    return max((v for v in vals if v is not None), default=0.0)


#: per-layer time metrics: span self seconds per traced op
SPAN_SECONDS = {
    "dynamics.rhs_s": "dynamics.rhs",
    "dynamics.solver_self_s": "dynamics.integrate",
    "poincare.numeric_map_s": "poincare.numeric_map",
    "model.lift_s": "model.lift",
    "spectrum.reduced_matrix_s": "spectrum.reduced_matrix",
    "spectrum.back_substitute_s": "spectrum.back_substitute",
    "spectrum.assemble_blocks_s": "spectrum.assemble_blocks",
    "spectrum.char_poly_s": "spectrum.char_poly",
    "spectrum.poly_roots_s": "spectrum.poly_roots",
    "ensemble.with_pump_s": "ensemble.with_pump",
    "kernels.s": "kernels",
}
#: per-layer call counts per op, over the first MIN_OPS traced ops
SPAN_CALLS = {
    "poincare.map_evals": "poincare.numeric_map",
    "spectrum.reduced_matrix_calls": "spectrum.reduced_matrix",
}
#: solver-boundary counters per op, over the first MIN_OPS traced ops
COUNTERS = {
    "dynamics.nfev": "count",
    "dynamics.solves": "count",
    "dynamics.steps": "count",
    "dynamics.rhs_bytes_computed": "B",
}


def layer_metrics(tracer, traced) -> dict:
    ops = [(r.stream, r.k) for r in traced]
    first = ops[:MIN_OPS]
    selfs = tracer.self_times()
    out = {}
    for metric, span in SPAN_SECONDS.items():
        total = sum(selfs[(op, span)][1] for op in ops if (op, span) in selfs)
        out[metric] = {"value": total / len(ops), "unit": "s"}
    for metric, span in SPAN_CALLS.items():
        calls = sum(selfs[(op, span)][0] for op in first if (op, span) in selfs)
        out[metric] = {"value": calls / len(first), "unit": "count"}

    def counted(key):
        return sum(tracer.counts[op][key] for op in first if op in tracer.counts)

    for metric, unit in COUNTERS.items():
        out[metric] = {"value": counted(metric) / len(first), "unit": unit}
    attempts = counted("dynamics.step_attempts")
    out["dynamics.step_accept_ratio"] = {
        "value": counted("dynamics.steps") / attempts if attempts else 0.0,
        "unit": "ratio"}
    return out


def span_table(tracer, traced) -> dict:
    """Calls and self seconds per traced op for every span name."""
    ops = {(r.stream, r.k) for r in traced}
    table = {}
    for (op, name), (calls, self_s) in tracer.self_times().items():
        if op in ops:
            row = table.setdefault(name, {"calls": 0.0, "self_s": 0.0})
            row["calls"] += calls / len(ops)
            row["self_s"] += self_s / len(ops)
    return dict(sorted(table.items()))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mblaser" / "__init__.py").is_file():
        print(f"error: no mblaser package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    pin_blas_threads()
    if args.probe_setup:
        return probe_setup(args)

    setup = measure_setup(args)
    import_s = import_package()
    import workloads
    from spans import Tracer, instrument

    wl = workloads.WORKLOADS[args.workload](args.seed)
    results = run_phase(wl, workloads.WARMUP, 0.0, wl.warmup_ops)
    traced, tracer = [], None
    if args.trace:
        # untraced and traced ops alternate, so drift in the machine's speed
        # falls on both sides of the tracing-overhead comparison alike
        tracer = Tracer()
        timed = []
        while (min(len(timed), len(traced)) < MIN_OPS
               or sum(r.seconds for r in timed + traced) < args.seconds):
            timed += run_phase(wl, workloads.TIMED, 0.0, 1, start=len(timed))
            with instrument(tracer):
                traced += run_phase(wl, workloads.TRACED, 0.0, 1, tracer,
                                    start=len(traced))
    else:
        timed = run_phase(wl, workloads.TIMED, args.seconds, MIN_OPS)
    results += timed + traced

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_ops = {(r.stream, r.k) for r in results if not r.ok}
    failed_ops |= wl.finish(results)
    attempted, failed = len(results), len(failed_ops)
    rate = wl.units_per_op * ops_per_s(timed)
    checks = {"period_map_err": first_info_max(timed, "period_map_err"),
              "fail_ratio": failed / attempted}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(),
        "warmup_ops": wl.warmup_ops, "timed_ops": len(timed),
        "op_seconds": quantiles([r.seconds for r in timed]),
        "digest": workloads.digest(r.chunk for r in timed[:MIN_OPS]),
        "checks": checks,
        "failures": [f"{r.stream}/{r.k}: {r.info.get('error', 'check failed')}"
                     for r in results if (r.stream, r.k) in failed_ops],
        "setup": setup, "main_import_s": import_s,
    }
    if args.trace:
        traced_rate = wl.units_per_op * ops_per_s(traced)
        overhead_pct = 100.0 * (rate / traced_rate - 1.0)
        record.update(traced_ops=len(traced), untraced_ops_per_s=rate,
                      traced_ops_per_s=traced_rate, trace_overhead_pct=overhead_pct,
                      untraced_targets=tracer.missing,
                      spans=span_table(tracer, traced))
        metrics = layer_metrics(tracer, traced)
        metrics.update({
            "cli.import_s": {"value": setup["import_s"], "unit": "s"},
            "config.load_s": {"value": setup["config_s"], "unit": "s"},
            "ensemble.sample_s": {"value": setup["sample_s"], "unit": "s"},
            "check.period_map_err": {"value": checks["period_map_err"], "unit": "abs"},
            "trace.overhead_pct": {"value": overhead_pct, "unit": "%"},
        })
    else:
        metrics = {
            "ops_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
