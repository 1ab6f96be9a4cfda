"""The benchmark tracer wraps program names by path; each must still exist."""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_benchmark_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracer = importlib.import_module("tracer").Tracer()
    with tracer:
        missing = list(tracer.missing)
    assert missing == []
