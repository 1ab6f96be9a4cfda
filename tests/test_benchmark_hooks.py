"""The benchmark tracer wraps program names by path; each must still exist."""

import importlib
from pathlib import Path

from shallowop.construct import FitConfig, assemble_vector_network
from shallowop.inputs import EnsembleSpec, FunctionalSpec, sample_ensemble
from shallowop.operators import poisson_operator
from shallowop.targets import GridMeta, LqNorm, SeminormFamily

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_benchmark_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracer = importlib.import_module("tracer").Tracer()
    with tracer:
        missing = list(tracer.missing)
    assert missing == []


def test_seminorm_and_partition_hooks_count_a_pipeline_pass(monkeypatch):
    # the hooks watch names the construction calls: one small assembly
    # passes through both the seminorm classes and the partition
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracer = importlib.import_module("tracer").Tracer()
    grid = GridMeta(0.0, 1.0, 21)
    ens = sample_ensemble(EnsembleSpec("band_limited", 12, radii=(1.0, 0.5), grid=grid), 5)
    values = poisson_operator(grid).apply_many(ens)
    cfg = FitConfig(FunctionalSpec(("function", grid)), width=4, max_width=8, lam=1e-6)
    with tracer:
        assemble_vector_network(values, ens, SeminormFamily((LqNorm(2.0),)), 0, 0.05, cfg)
    assert tracer.stats["targets.seminorm"].calls > 0
    assert tracer.stats["construct.partition"].calls > 0
