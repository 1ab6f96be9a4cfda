#!/usr/bin/env python3
"""Self-test for the benchmark: each workload at a reduced size.

    python3 benchmarks/selftest.py

For every workload, with tracing off and on, it checks that the result line
carries exactly the metrics BENCHMARK.json names, each with its unit and
printed in the readable summary, that every operation passed its checks, and
that a different seed changes the generated inputs while the same seed
repeats them.  It also checks that the tracer skips and lists a hooked name
that does not exist.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from tracer import HOOKS, Hook
from workloads import WORKLOAD_NAMES, make_workload


def check(condition, message):
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check([w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES),
          "BENCHMARK.json workloads differ from the benchmark's")
    so = run.load_program()
    info = run.machine_info(0)
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            workload = make_workload(name, so, seed=1, reduced=True)
            result = run.measure(workload, seconds=0.0, trace=trace)
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                line = run.report(name, result, info)
            text = printed.getvalue()
            check(line["correct"] and line["failed"] == 0,
                  f"{name} trace={trace}: failures {result['detail']['failures']}")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == declared[trace],
                  f"{name} trace={trace}: metrics {got} != declared {declared[trace]}")
            for metric, unit in got.items():
                check(any(row.split()[:1] == [metric] and row.split()[2:3] == [unit]
                          for row in text.splitlines()),
                      f"{name} trace={trace}: {metric} not printed with unit {unit}")
            json.dumps(line)  # the result line must serialize
            print(f"selftest ok: {name} trace={trace} ({line['attempted']} operations)")

        prints = []
        for seed in (1, 1, 2):
            workload = make_workload(name, so, seed=seed, reduced=True)
            workload.setup()
            prints.append(workload.fingerprint())
        check(prints[0] == prints[1], f"{name}: the same seed gave different inputs")
        check(prints[0] != prints[2], f"{name}: a different seed gave the same inputs")
        print(f"selftest ok: {name} inputs follow the seed")

    # a hooked name that no longer exists is skipped, listed and left absent
    gone = "shallowop.construct:draw_features_removed"
    hooks = tuple(Hook(h.name, (gone,)) if h.name == "construct.features" else h
                  for h in HOOKS)
    workload = make_workload("cover_wide", so, seed=1, reduced=True)
    result = run.measure(workload, seconds=0.0, trace=1, hooks=hooks)
    check(result["failed"] == 0, "a missing hook broke the traced run")
    check(result["detail"]["trace"]["missing_hooks"] == [gone],
          f"missing hooks listed as {result['detail']['trace']['missing_hooks']}")
    absent = {"construct.features.ms", "construct.features.calls"}
    check(not absent & set(result["layer"]), "metrics of a missing hook were reported")
    check("construct.fit.ms" in result["layer"], "a missing hook dropped other metrics")
    print("selftest ok: a missing hook is skipped and listed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
