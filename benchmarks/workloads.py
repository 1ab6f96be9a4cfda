"""The benchmark's three workloads, each a closed loop run by one caller.

A workload turns the workload seed into inputs in ``setup`` (one derived
root seed per config, so the program only ever sees generated inputs) and
then runs passes.  A pass is a list of operations, each an ``Op`` that says
whether it passed its checks.

- ``preset_sweep``: every shipped preset through ``run_experiment``.  This
  is the traffic users run, and it is dominated by stage 2 (feature draws,
  design matrices and solves for each coefficient).
- ``cover_wide``: the Poisson preset with 4000 samples at a loose epsilon.
  Runs converge with (nearly always) two centers at the starting width, so
  stage 2 is small and the epsilon net, partition, seminorms, operator apply
  and ``uniform_error`` dominate: the "ensembles in the thousands" case.
- ``network_io``: three networks built once in set-up, then saved to JSON,
  loaded back and evaluated on a held-out batch.  The construct layer does
  not run in the timed passes.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np


@dataclass
class Op:
    """One operation's outcome; ``signature`` must repeat exactly across passes."""

    ok: bool
    reason: str = ""
    signature: tuple = ()
    neurons: int = 0
    train_ratio: float | None = None
    heldout_ratio: float | None = None
    coefficients: int = 0
    rank_deficient: int = 0
    timings: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def config_seed(seed: int, workload_index: int, config_index: int) -> int:
    """Root seed for one config, derived from the workload seed."""
    ss = np.random.SeedSequence([seed, workload_index, config_index])
    return int(ss.generate_state(1)[0])


def _captured_run(so, config):
    """run_experiment with its warnings captured and counted, not printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = so.run_experiment(config)
    rank_deficient = sum("rank-deficient" in str(w.message) for w in caught)
    return report, rank_deficient


def _run_signature(run):
    return (run.m_centers, run.network_width, run.coefficient_widths,
            run.coefficient_errors, tuple(run.train_errors.items()),
            tuple((run.heldout_errors or {}).items()),
            tuple((run.dual_train_errors or {}).items()),
            tuple((run.dual_heldout_errors or {}).items()))


def _target_ratios(config, run):
    label = list(run.train_errors)[config.target_index]
    train = run.train_errors[label] / run.epsilon
    heldout = None
    if run.heldout_errors is not None:
        heldout = run.heldout_errors[label] / run.epsilon
    return label, train, heldout


def _check_run(config, run):
    """Failure reason for one run, or '' when it passed."""
    label, _, _ = _target_ratios(config, run)
    if not run.converged:
        return f"{config.name} eps={run.epsilon}: did not converge"
    if not run.train_errors[label] < run.epsilon:
        return (f"{config.name} eps={run.epsilon}: train error "
                f"{run.train_errors[label]} is not below epsilon")
    return ""


class SweepWorkload:
    """Runs a list of experiment configs through ``run_experiment`` per pass."""

    def __init__(self, so, index, raw_configs_fn, seed, reduced=False):
        self.so = so
        self.index = index
        self.raw_configs_fn = raw_configs_fn
        self.seed = seed
        self.reduced = reduced
        self.configs = []

    def setup(self):
        configs = []
        for i, raw in enumerate(self.raw_configs_fn(self.so, self.reduced)):
            raw["seed"] = config_seed(self.seed, self.index, i)
            configs.append(self.so.ExperimentConfig.from_dict(raw))
        self.configs = configs

    def fingerprint(self):
        """Digest of the generated inputs: the configs with their seeds."""
        text = json.dumps([c.to_dict() for c in self.configs], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def run_pass(self):
        ops = []
        for config in self.configs:
            try:
                report, rank_deficient = _captured_run(self.so, config)
            except Exception as exc:  # a raising config fails each of its runs
                ops.extend(Op(False, f"{config.name}: {type(exc).__name__}: {exc}")
                           for _ in config.epsilons)
                continue
            for i, run in enumerate(report.runs):
                _, train, heldout = _target_ratios(config, run)
                reason = _check_run(config, run)
                ops.append(Op(
                    ok=not reason,
                    reason=reason,
                    signature=(config.name,) + _run_signature(run),
                    neurons=run.network_width,
                    train_ratio=train,
                    heldout_ratio=heldout,
                    coefficients=0 if run.degenerate else len(run.coefficient_widths),
                    # warnings are per config; book them on its first run
                    rank_deficient=rank_deficient if i == 0 else 0,
                ))
        return ops


def preset_configs(so, reduced):
    """Every shipped preset; reduced: 40 samples and only the loosest epsilon."""
    raws = [so.preset_dict(name) for name in so.preset_names()]
    if reduced:
        for raw in raws:
            raw["ensemble"]["count"] = 40
            raw["epsilons"] = [max(raw["epsilons"])]
    return raws


# Independent draws of the cover_wide config per pass.  At epsilon 0.15 about
# 96% of draws cover the image with two centers and fit both coefficients at
# the starting width (a 128-neuron network); the rest take one center.  At 0.2
# the split is closer to even, which makes the pass time depend on the seed,
# and at 0.1 about one draw in sixty does not converge at the width cap.
COVER_WIDE_DRAWS = 12


def cover_wide_configs(so, reduced):
    """Poisson with thousands of samples; reduced: one draw of 400 samples."""
    raws = []
    for i in range(1 if reduced else COVER_WIDE_DRAWS):
        raw = so.preset_dict("poisson_dirichlet")
        raw["name"] = f"cover_wide_{i}"
        raw["ensemble"]["count"] = 400 if reduced else 4000
        raw["epsilons"] = [0.15]
        raw["seminorms"] = [{"kind": "lq", "q": 2.0}, {"kind": "sup_derivative", "order": 0}]
        raw["target_index"] = 0
        raw["duals"] = [{"name": "mean", "values": "ones"}]
        raws.append(raw)
    return raws


# (preset, epsilon): one network per input kind; the function network is the
# largest document the pipeline writes today
IO_NETWORKS = (("integral_gaussian", 0.05), ("sequence_decay", 0.1), ("matrix_sin_trace", 0.1))


class NetworkIOWorkload:
    """Save, load and evaluate three pipeline-built networks per pass."""

    index = 2

    def __init__(self, so, seed, reduced=False):
        self.so = so
        self.seed = seed
        self.reduced = reduced
        self.batch = 256 if reduced else 4096
        self.specs = [(name, 0.2 if reduced else eps) for name, eps in IO_NETWORKS]
        self.items = []
        self.setup_signature = None

    def setup(self):
        so = self.so
        self.items = items = []
        for i, (name, eps) in enumerate(self.specs):
            raw = so.preset_dict(name)
            raw["seed"] = config_seed(self.seed, self.index, i)
            raw["epsilons"] = [eps]
            raw["save_networks"] = True
            if self.reduced:
                raw["ensemble"]["count"] = 40
            config = so.ExperimentConfig.from_dict(raw)
            run = _captured_run(so, config)[0].runs[0]
            reason = _check_run(config, run)
            if reason:
                raise RuntimeError(f"network_io set-up: {reason}")
            net = so.deserialize_network(run.network_doc)
            batch_seed = np.random.SeedSequence([self.seed, self.index, i, 1])
            batch = list(so.sample_ensemble(replace(config.ensemble, count=self.batch),
                                            batch_seed))
            _, train, heldout = _target_ratios(config, run)
            items.append({
                "name": name,
                "net": net,
                "batch": batch,
                "reference": net.evaluate_many(batch),
                "text": None,
                "train_ratio": train,
                "heldout_ratio": heldout,
                "signature": (name,) + _run_signature(run),
            })
        signature = tuple(item["signature"] for item in items)
        if self.setup_signature is not None and signature != self.setup_signature:
            raise RuntimeError("network_io set-up is not deterministic for a fixed seed")
        self.setup_signature = signature

    def fingerprint(self):
        """Digest of the generated inputs: the built networks and the batches."""
        digest = hashlib.sha256(json.dumps(self.setup_signature, default=str).encode())
        for item in self.items:
            digest.update(np.stack([s.flat for s in item["batch"]]).tobytes())
        return digest.hexdigest()

    def run_pass(self):
        so = self.so
        clock = time.perf_counter
        ops = []
        for item in self.items:
            try:
                t0 = clock()
                text = json.dumps(so.serialize_network(item["net"]))
                t1 = clock()
                loaded = so.deserialize_network(json.loads(text))
                t2 = clock()
                out = loaded.evaluate_many(item["batch"])
                t3 = clock()
            except Exception as exc:
                ops.append(Op(False, f"{item['name']}: {type(exc).__name__}: {exc}"))
                continue
            reason = ""
            ref = item["reference"]
            if out.shape != ref.shape or out.tobytes() != ref.tobytes():
                reason = f"{item['name']}: loaded network does not evaluate bit-identically"
            if item["text"] is None:
                item["text"] = text
            elif text != item["text"]:
                reason = reason or f"{item['name']}: saved document changed between passes"
            ops.append(Op(
                ok=not reason,
                reason=reason,
                signature=item["signature"],
                neurons=item["net"].width,
                train_ratio=item["train_ratio"],
                heldout_ratio=item["heldout_ratio"],
                timings={"save": t1 - t0, "load": t2 - t1, "eval": t3 - t2},
                counts={"bytes": len(text), "samples": len(item["batch"])},
            ))
        return ops


WORKLOAD_NAMES = ("preset_sweep", "cover_wide", "network_io")


def make_workload(name, so, seed, reduced=False):
    if name == "preset_sweep":
        return SweepWorkload(so, 0, preset_configs, seed, reduced)
    if name == "cover_wide":
        return SweepWorkload(so, 1, cover_wide_configs, seed, reduced)
    if name == "network_io":
        return NetworkIOWorkload(so, seed, reduced)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")
