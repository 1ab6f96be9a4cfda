#!/usr/bin/env python3
"""Benchmark for shallowop: three closed-loop workloads, measured end to end
with tracing off, or per layer with an outside-in tracer.

Run from the repository root:

    python3 benchmarks/run.py --workload preset_sweep --seed 1 --seconds 20 --trace 0

Workloads: preset_sweep, cover_wide, network_io (see workloads.py).  The
program is imported from ``src/`` next to this directory; no install step.
Human-readable figures go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits 1
when any operation failed a check, and 2 when the program cannot be loaded.
Spans and the full detail are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import HOOKS, Tracer  # noqa: E402
from workloads import WORKLOAD_NAMES, make_workload  # noqa: E402

# setup_s is the median time to import the program in IMPORT_REPEATS fresh
# interpreters plus the median time of the workload set-up, which is repeated
# at least SETUP_REPEATS times and for at least SETUP_MIN_S seconds.  The
# import part keeps work moved to import time visible, and fresh interpreters
# average out the per-process speed differences a sub-millisecond set-up shows.
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
# passes every run makes at least, so determinism can be checked
MIN_PASSES = 2

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
)

# What the runs produced.  These are exact for a seed and commit but vary
# from seed to seed more than an end-to-end bound allows, so they are
# reported with the per-layer metrics; io.* are zero outside network_io.
RESULT_METRICS = (
    ("result.neurons", "count"),
    ("result.train_ratio", "ratio"),
    ("result.heldout_ratio", "ratio"),
    ("result.failed_frac", "ratio"),
    ("io.save_ms", "ms"),
    ("io.load_ms", "ms"),
    ("io.net_bytes", "bytes"),
    ("io.eval_samples_per_s", "1/s"),
)

# (metric, unit, hook, field): field is ms (total time), self_ms, calls,
# samples or results of the named tracer hook
LAYER_METRICS = (
    ("inputs.random_functional.calls", "count", "inputs.random_functional", "calls"),
    ("seeding.derive_seed.calls", "count", "seeding.derive_seed", "calls"),
    ("construct.features.ms", "ms", "construct.features", "ms"),
    ("construct.features.calls", "count", "construct.features", "calls"),
    ("construct.fit.ms", "ms", "construct.fit", "ms"),
    ("construct.fit.self_ms", "ms", "construct.fit", "self_ms"),
    ("construct.solve.ms", "ms", "construct.solve", "ms"),
    ("construct.solve.calls", "count", "construct.solve", "calls"),
    ("network.init.ms", "ms", "network.init", "ms"),
    ("construct.assemble.self_ms", "ms", "construct.assemble", "self_ms"),
    ("construct.eps_net.ms", "ms", "construct.eps_net", "ms"),
    ("construct.eps_net.centers", "count", "construct.eps_net", "results"),
    ("construct.partition.ms", "ms", "construct.partition", "ms"),
    ("targets.seminorm.calls", "count", "targets.seminorm", "calls"),
    ("construct.uniform_error.ms", "ms", "construct.uniform_error", "ms"),
    ("operators.apply_many.ms", "ms", "operators.apply_many", "ms"),
    ("operators.apply_many.samples", "count", "operators.apply_many", "samples"),
    ("inputs.sample_ensemble.ms", "ms", "inputs.sample_ensemble", "ms"),
    ("network.serialize.ms", "ms", "network.serialize", "ms"),
    ("network.deserialize.ms", "ms", "network.deserialize", "ms"),
    ("network.evaluate_many.ms", "ms", "network.evaluate_many", "ms"),
    ("network.evaluate_many.samples", "count", "network.evaluate_many", "samples"),
    ("experiment.run_experiment.ms", "ms", "experiment.run_experiment", "ms"),
    ("experiment.self.ms", "ms", "experiment.run_experiment", "self_ms"),
)
# per-layer metrics derived from a traced pass's results: (metric, unit)
DERIVED_LAYER_METRICS = (
    ("construct.fit.accepted_ratio", "ratio"),
    ("construct.solve.rank_deficient", "count"),
    ("trace.overhead_ms", "ms"),  # traced minus untraced sweep_s
)


def load_program():
    """Import shallowop from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import shallowop
    except ImportError as exc:
        print(f"benchmark: cannot import shallowop from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(shallowop.__file__).resolve().parent.parent != src.resolve():
        print(f"benchmark: imported shallowop from {shallowop.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return shallowop


def import_times():
    """Seconds to import shallowop, each in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import shallowop; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return times


def machine_info(seed):
    import numpy as np

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = None
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                    and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0], values[0]] if values else [None] * 3
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], statistics.median(values), q[2]]


def _layer_values(tracer, pass_ops):
    """Per-layer metric values for one traced pass."""
    out = {}
    for metric, _, hook, field in LAYER_METRICS:
        if not tracer.hooked(hook):
            continue
        stats = tracer.stats[hook]
        out[metric] = {
            "ms": stats.total * 1000.0,
            "self_ms": stats.self_time * 1000.0,
            "calls": stats.calls,
            "samples": stats.samples,
            "results": stats.results,
        }[field]
    if tracer.hooked("construct.fit"):
        attempts = tracer.stats["construct.fit"].calls
        fitted = sum(op.coefficients for op in pass_ops)
        out["construct.fit.accepted_ratio"] = fitted / attempts if attempts else 0.0
    out["construct.solve.rank_deficient"] = sum(op.rank_deficient for op in pass_ops)
    return out


def _layer_table(tracer, pass_s):
    rows = []
    for hook in tracer.hooks:
        if not tracer.hooked(hook.name):
            continue
        stats = tracer.stats[hook.name]
        rows.append({
            "layer": hook.name,
            "calls": stats.calls,
            "ms": stats.total * 1000.0,
            "self_ms": stats.self_time * 1000.0,
            "self_share": stats.self_time / pass_s if pass_s else 0.0,
        })
    return rows


def measure(workload, seconds, trace, hooks=HOOKS):
    """Set up, run passes for about ``seconds``, and summarize."""
    imports = import_times()
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    tracer = Tracer(hooks) if trace else None
    passes = []  # (seconds, ops, traced)
    layer_passes = []
    first_signatures = None
    started = time.perf_counter()
    while True:
        gc.collect()  # start every pass with no garbage left from the last
        traced = bool(trace) and len(passes) >= 1  # pass 0 is the untraced reference
        if traced:
            tracer.reset()
            with tracer:
                start = time.perf_counter()
                ops = workload.run_pass()
                elapsed = time.perf_counter() - start
            layer_passes.append((_layer_values(tracer, ops), _layer_table(tracer, elapsed),
                                 [list(s) for s in tracer.spans]))
        else:
            start = time.perf_counter()
            ops = workload.run_pass()
            elapsed = time.perf_counter() - start
        signatures = [op.signature for op in ops]
        if first_signatures is None:
            first_signatures = signatures
        elif signatures != first_signatures:
            for op, sig, ref in zip(ops, signatures, first_signatures):
                if sig != ref and op.ok:
                    op.ok, op.reason = False, "result differs from the first pass"
            if len(signatures) != len(first_signatures):
                ops[0].ok, ops[0].reason = False, "pass produced a different run count"
        passes.append((elapsed, ops, traced))
        typical = statistics.median(p[0] for p in passes)
        done = len(passes) >= MIN_PASSES and (not trace or layer_passes)
        if done and time.perf_counter() - started + typical > seconds:
            break
    return summarize(imports, setup_times, passes, layer_passes, tracer)


def result_figures(pass_list):
    """What the runs produced: sizes, errors, failures and network I/O.

    Sizes and errors come from the first pass (later passes must repeat them
    exactly); failures and I/O timings cover every pass given.
    """
    all_ops = [op for ops in pass_list for op in ops]
    first = pass_list[0]
    train = [op.train_ratio for op in first if op.train_ratio is not None]
    heldout = [op.heldout_ratio for op in first if op.heldout_ratio is not None]
    figures = {
        "result.neurons": sum(op.neurons for op in first),
        "result.train_ratio": statistics.median(train) if train else 0.0,
        "result.heldout_ratio": statistics.median(heldout) if heldout else 0.0,
        "result.failed_frac": sum(not op.ok for op in all_ops) / len(all_ops),
        "io.save_ms": 0.0,
        "io.load_ms": 0.0,
        "io.net_bytes": 0,
        "io.eval_samples_per_s": 0.0,
    }
    io_ops = [op for op in all_ops if op.timings]
    if io_ops:
        by_net = {}
        for op in io_ops:
            by_net.setdefault(op.signature[0], []).append(op)
        # per pass: the sum over networks of each network's median time
        for key in ("save", "load"):
            figures[f"io.{key}_ms"] = 1000.0 * sum(
                statistics.median(op.timings[key] for op in ops) for ops in by_net.values())
        figures["io.net_bytes"] = sum(op.counts["bytes"] for op in first)
        figures["io.eval_samples_per_s"] = (sum(op.counts["samples"] for op in io_ops)
                                            / sum(op.timings["eval"] for op in io_ops))
    return figures


def summarize(imports, setup_times, passes, layer_passes, tracer):
    all_ops = [op for _, ops, _ in passes for op in ops]
    failures = [op.reason for op in all_ops if not op.ok]
    untraced = [s for s, _, traced in passes if not traced]
    traced = [s for s, _, t in passes if t]
    end_to_end = {
        "setup_s": statistics.median(imports) + statistics.median(setup_times),
        "sweep_s": statistics.median(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    first_ops = passes[0][1]
    detail = {
        "samples": {"import_s": len(imports), "setup_s": len(setup_times),
                    "sweep_s": len(untraced)},
        "quartiles": {"import_s": _quartiles(imports), "setup_s": _quartiles(setup_times),
                      "sweep_s": _quartiles(untraced)},
        "pass_s": [s for s, _, _ in passes],
        "results": result_figures([ops for _, ops, t in passes if not t]),
        "rank_deficient_warnings": sum(op.rank_deficient for op in first_ops),
        "failures": failures[:20],
    }
    layer = None
    if tracer is not None:
        layer = {}
        for name, *_ in LAYER_METRICS + DERIVED_LAYER_METRICS:
            values = [vals[name] for vals, _, _ in layer_passes if name in vals]
            if values:
                layer[name] = statistics.median(values)
        layer.update(result_figures([ops for _, ops, t in passes if t]))
        layer["trace.overhead_ms"] = (statistics.median(traced)
                                      - statistics.median(untraced)) * 1000.0
        detail["trace"] = {
            "traced_passes": len(traced),
            "missing_hooks": list(tracer.missing),
            "layers": layer_passes[-1][1],
        }
    return {
        "attempted": len(all_ops),
        "failed": len(failures),
        "end_to_end": end_to_end,
        "layer": layer,
        "detail": detail,
        "spans": layer_passes[-1][2] if layer_passes else [],
    }


def _units():
    units = dict(END_TO_END)
    for name, unit, *_ in LAYER_METRICS + DERIVED_LAYER_METRICS + RESULT_METRICS:
        units[name] = unit
    return units


def _row(key, value, unit, note=""):
    print(f"  {key:<32} {value:>14.6g} {unit}{note}")


def report(name, result, info):
    """Print the readable summary and return the final JSON line's object."""
    units = _units()
    detail = result["detail"]
    print(f"workload {name}  machine {json.dumps(info)}")
    for key, value in result["end_to_end"].items():
        parts = ("import_s", "setup_s") if key == "setup_s" else (key,)
        note = "; ".join(f"{k} median of {detail['samples'][k]}, quartiles "
                         f"{detail['quartiles'][k][0]:.6g} .. {detail['quartiles'][k][2]:.6g}"
                         for k in parts if k in detail["quartiles"])
        _row(key, value, units[key], f"  ({note})" if note else "")
    print(f"  {result['failed']} of {result['attempted']} operations failed; "
          f"{detail['rank_deficient_warnings']} rank-deficiency warnings per pass")
    if result["layer"] is None:
        for key, value in detail["results"].items():
            _row(key, value, units[key])
    else:
        trace = detail["trace"]
        print(f"  traced passes {trace['traced_passes']}, "
              f"missing hooks {', '.join(trace['missing_hooks']) or 'none'}")
        print(f"  {'layer':<28} {'calls':>9} {'ms':>11} {'self ms':>11} {'self %':>7}")
        for row in trace["layers"]:
            print(f"  {row['layer']:<28} {row['calls']:>9} {row['ms']:>11.1f} "
                  f"{row['self_ms']:>11.1f} {100 * row['self_share']:>6.1f}%")
        for key, value in result["layer"].items():
            _row(key, value, units[key])
    for reason in detail["failures"]:
        print(f"  FAILED: {reason}")
    metrics = result["layer"] if result["layer"] is not None else result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def write_detail(name, seed, trace, result, info):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{name}-seed{seed}-trace{trace}.json"
    doc = {"workload": name, "seed": seed, "trace": trace, "machine": info,
           "end_to_end": result["end_to_end"], "layer": result["layer"],
           "detail": result["detail"], "spans": result["spans"]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    so = load_program()
    info = machine_info(args.seed)
    workload = make_workload(args.workload, so, args.seed)
    result = measure(workload, args.seconds, args.trace)
    line = report(args.workload, result, info)
    write_detail(args.workload, args.seed, args.trace, result, info)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
