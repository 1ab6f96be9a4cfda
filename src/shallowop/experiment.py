"""Experiment configs, sweep runner, and report emission.

A config names an operator, a sampled ensemble with a held-out split, a
seminorm family with one targeted member, an epsilon sweep, and fit knobs.
Each epsilon gets its own deterministic seed path, so sweeps reproduce
byte-identically (wall-clock fields aside).
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .construct import (
    FitConfig,
    assemble_vector_network,
    uniform_error,
)
from .errors import ConfigError
from .inputs import CompactEnsemble, EnsembleSpec, FunctionalSpec, sample_ensemble
from .network import make_activation, serialize_network
from .operators import (
    Operator,
    integral_operator,
    make_kernel,
    matrix_map_operator,
    poisson_operator,
    superposition_operator,
    zero_operator,
)
from .seeding import derive_seed
from .targets import (
    DualPairing,
    GridMeta,
    LqNorm,
    SchwartzWeighted,
    SeminormFamily,
    SupDerivative,
    TargetBatch,
)

CSV_COLUMNS = (
    "epsilon",
    "seminorm",
    "m_centers",
    "C",
    "delta",
    "width",
    "converged",
    "train_sup_error",
    "heldout_sup_error",
    "wall_ms",
)

_OPERATOR_KINDS = ("integral", "poisson", "superposition", "matrix_map", "zero")
_SEMINORM_KINDS = ("lq", "sup_derivative", "schwartz", "dual")


def _require(cond, field, message):
    if not cond:
        raise ConfigError(f"field {field!r}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description."""

    name: str
    operator: dict
    ensemble: EnsembleSpec
    heldout_fraction: float
    seminorms: tuple[dict, ...]
    target_index: int
    epsilons: tuple[float, ...]
    fit: dict
    duals: tuple[dict, ...]
    seed: int
    out: str | None
    save_networks: bool

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a mapping, got {type(raw).__name__}")
        known = {
            "name", "operator", "grid", "ensemble", "heldout_fraction", "seminorms",
            "target_index", "epsilons", "fit", "duals", "seed", "out", "save_networks",
        }
        for key in raw:
            _require(key in known, key, "unknown config field")

        name = raw.get("name", "experiment")
        _require(isinstance(name, str) and name, "name", "must be a nonempty string")

        grid = None
        if raw.get("grid") is not None:
            g = raw["grid"]
            try:
                grid = GridMeta(float(g["a"]), float(g["b"]), int(g["n"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"field 'grid': {exc}") from exc

        ensemble = _parse_ensemble(raw.get("ensemble"), grid)
        operator = _parse_operator(raw.get("operator"), ensemble, grid)

        heldout = raw.get("heldout_fraction", 0.2)
        _require(isinstance(heldout, (int, float)) and 0.0 <= heldout < 1.0,
                 "heldout_fraction", "must lie in [0, 1)")

        seminorms = _parse_seminorms(raw.get("seminorms"))
        target_index = raw.get("target_index", 0)
        _require(isinstance(target_index, int) and 0 <= target_index < len(seminorms),
                 "target_index", f"must index the {len(seminorms)} configured seminorms")

        epsilons = raw.get("epsilons", [])
        _require(isinstance(epsilons, (list, tuple)), "epsilons", "must be a list")
        for e in epsilons:
            _require(isinstance(e, (int, float)) and e > 0, "epsilons",
                     f"every value must be positive, got {e}")

        fit = _parse_fit(raw.get("fit", {}))
        duals = _parse_duals(raw.get("duals", []))

        seed = raw.get("seed", 0)
        _require(isinstance(seed, int) and seed >= 0, "seed",
                 "must be a nonnegative integer")

        out = raw.get("out")
        _require(out is None or (isinstance(out, str) and out), "out",
                 "must be a nonempty string when given")
        save_networks = raw.get("save_networks", False)
        _require(isinstance(save_networks, bool), "save_networks", "must be a boolean")

        return ExperimentConfig(
            name=name,
            operator=operator,
            ensemble=ensemble,
            heldout_fraction=float(heldout),
            seminorms=seminorms,
            target_index=target_index,
            epsilons=tuple(float(e) for e in epsilons),
            fit=fit,
            duals=duals,
            seed=seed,
            out=out,
            save_networks=save_networks,
        )

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "operator": dict(self.operator),
            "ensemble": _ensemble_to_dict(self.ensemble),
            "heldout_fraction": self.heldout_fraction,
            "seminorms": [dict(s) for s in self.seminorms],
            "target_index": self.target_index,
            "epsilons": list(self.epsilons),
            "fit": dict(self.fit),
            "duals": [dict(d) for d in self.duals],
            "seed": self.seed,
            "save_networks": self.save_networks,
        }
        if self.ensemble.grid is not None:
            doc["grid"] = {"a": self.ensemble.grid.a, "b": self.ensemble.grid.b,
                           "n": self.ensemble.grid.n}
        if self.out is not None:
            doc["out"] = self.out
        return doc


def _parse_ensemble(raw, grid) -> EnsembleSpec:
    _require(isinstance(raw, dict), "ensemble", "must be a mapping")
    family = raw.get("family")
    try:
        if family == "band_limited":
            _require(grid is not None, "grid", "band_limited ensembles need a grid")
            return EnsembleSpec(family=family, count=raw.get("count", 0),
                                radii=tuple(raw.get("radii", ())), grid=grid)
        if family == "sequence_box":
            return EnsembleSpec(family=family, count=raw.get("count", 0),
                                radii=tuple(raw.get("radii", ())))
        if family == "matrix_ball":
            shape = raw.get("shape")
            return EnsembleSpec(family=family, count=raw.get("count", 0),
                                shape=tuple(shape) if shape else None,
                                radius=raw.get("radius"))
    except ConfigError as exc:
        raise ConfigError(f"field 'ensemble': {exc}") from exc
    raise ConfigError(f"field 'ensemble.family': unknown family {family!r}")


def _ensemble_to_dict(spec: EnsembleSpec) -> dict:
    doc = {"family": spec.family, "count": spec.count}
    if spec.radii is not None:
        doc["radii"] = list(spec.radii)
    if spec.shape is not None:
        doc["shape"] = list(spec.shape)
    if spec.radius is not None:
        doc["radius"] = spec.radius
    return doc


def _parse_operator(raw, ensemble: EnsembleSpec, grid) -> dict:
    _require(isinstance(raw, dict), "operator", "must be a mapping")
    kind = raw.get("kind")
    _require(kind in _OPERATOR_KINDS, "operator.kind",
             f"must be one of {_OPERATOR_KINDS}, got {kind!r}")
    if kind in ("integral", "poisson"):
        _require(ensemble.family == "band_limited", "operator.kind",
                 f"{kind} operators need a function ensemble")
    if kind == "integral":
        kernel = raw.get("kernel", {"name": "gaussian"})
        _require(isinstance(kernel, dict) and "name" in kernel, "operator.kernel",
                 "must be a mapping with a kernel name")
        probe = dict(kernel)
        try:
            make_kernel(probe.pop("name"), **probe)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'operator.kernel': {exc}") from exc
    if kind == "superposition":
        _require(ensemble.family in ("band_limited", "sequence_box"), "operator.kind",
                 "superposition operators need a function or sequence ensemble")
        _require(raw.get("map") in ("sin", "square", "exp-"), "operator.map",
                 f"unknown pointwise map {raw.get('map')!r}")
    if kind == "matrix_map":
        _require(ensemble.family == "matrix_ball", "operator.kind",
                 "matrix maps need a matrix ensemble")
        _require(raw.get("map") in ("row_sums", "sin_of_trace_times_basis"),
                 "operator.map", f"unknown matrix map {raw.get('map')!r}")
    if "out_dim" in raw:
        _require(_is_int(raw["out_dim"]) and raw["out_dim"] >= 1, "operator.out_dim",
                 "must be a positive integer")
    return dict(raw)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_seminorms(raw) -> tuple[dict, ...]:
    _require(isinstance(raw, (list, tuple)) and raw, "seminorms",
             "must be a nonempty list")
    out = []
    for i, s in enumerate(raw):
        field = f"seminorms[{i}]"
        _require(isinstance(s, dict), field, "must be a mapping")
        kind = s.get("kind")
        _require(kind in _SEMINORM_KINDS, field,
                 f"unknown seminorm kind {kind!r}")
        if kind == "lq":
            q = s.get("q", 2.0)
            _require(isinstance(q, (int, float)) and q >= 1, f"{field}.q",
                     "lq needs a number q >= 1")
        if kind == "sup_derivative":
            _require(isinstance(s.get("order", 0), int) and s.get("order", 0) >= 0,
                     field, "derivative order must be a nonnegative integer")
        if kind == "schwartz":
            for index in ("alpha", "beta"):
                _require(_is_int(s.get(index, 0)) and s.get(index, 0) >= 0,
                         f"{field}.{index}", "must be a nonnegative integer")
            radius = s.get("radius", 8.0)
            _require(isinstance(radius, (int, float)) and radius > 0, f"{field}.radius",
                     "must be a positive number")
        if kind == "dual":
            values = s.get("values", "ones")
            ok = values == "ones" or (isinstance(values, list) and values)
            _require(ok, field, "dual values must be 'ones' or a nonempty list")
        out.append(dict(s))
    return tuple(out)


def _parse_duals(raw) -> tuple[dict, ...]:
    _require(isinstance(raw, (list, tuple)), "duals", "must be a list")
    out = []
    for i, d in enumerate(raw):
        field = f"duals[{i}]"
        _require(isinstance(d, dict), field, "must be a mapping")
        values = d.get("values", "ones")
        ok = values == "ones" or (isinstance(values, list) and values)
        _require(ok, field, "dual values must be 'ones' or a nonempty list")
        out.append(dict(d))
    return tuple(out)


_FIT_DEFAULTS = {
    "activation": "tanh",
    "width": 64,
    "max_width": 512,
    "theta_range": [-3.0, 3.0],
    "lam": 0.0,
    "functional_order": 3,
    "functional_scale": 1.0,
}


def _parse_fit(raw) -> dict:
    _require(isinstance(raw, dict), "fit", "must be a mapping")
    fit = dict(_FIT_DEFAULTS)
    for key, value in raw.items():
        _require(key in _FIT_DEFAULTS, f"fit.{key}", "unknown fit field")
        fit[key] = value
    _require(isinstance(fit["width"], int) and fit["width"] >= 1, "fit.width",
             "must be a positive integer")
    _require(isinstance(fit["max_width"], int) and fit["max_width"] >= fit["width"],
             "fit.max_width", "must be an integer >= fit.width")
    _require(isinstance(fit["lam"], (int, float)) and fit["lam"] >= 0, "fit.lam",
             "must be nonnegative")
    tr = fit["theta_range"]
    _require(isinstance(tr, (list, tuple)) and len(tr) == 2 and tr[1] > tr[0],
             "fit.theta_range", "must be an increasing (low, high) pair")
    fit["theta_range"] = [float(tr[0]), float(tr[1])]
    order, scale = fit["functional_order"], fit["functional_scale"]
    _require(isinstance(order, int) and order >= 0, "fit.functional_order",
             "must be a nonnegative integer")
    _require(isinstance(scale, (int, float)) and scale > 0, "fit.functional_scale",
             "must be a positive number")
    try:
        make_activation(fit["activation"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'fit.activation': {exc}") from exc
    return fit


def build_operator(config: ExperimentConfig) -> Operator:
    """Instantiate the configured ground-truth operator."""
    kind = config.operator["kind"]
    signature = config.ensemble.input_signature
    if kind == "integral":
        kernel_cfg = dict(config.operator.get("kernel", {"name": "gaussian"}))
        kernel = make_kernel(kernel_cfg.pop("name"), **kernel_cfg)
        return integral_operator(kernel, config.ensemble.grid)
    if kind == "poisson":
        return poisson_operator(config.ensemble.grid)
    if kind == "superposition":
        return superposition_operator(config.operator["map"], signature)
    if kind == "matrix_map":
        return matrix_map_operator(config.operator["map"], config.ensemble.shape,
                                   config.operator.get("out_dim", 3))
    out_dim, out_grid = _zero_output_shape(config)
    return zero_operator(signature, out_dim, out_grid)


def _zero_output_shape(config: ExperimentConfig):
    sig = config.ensemble.input_signature
    if sig[0] == "function":
        return sig[1].n, sig[1]
    if sig[0] == "sequence":
        return sig[1], None
    return config.operator.get("out_dim", 3), None


def build_seminorm(spec: dict, out_dim: int, out_grid):
    kind = spec["kind"]
    if kind == "lq":
        return LqNorm(float(spec.get("q", 2.0)))
    if kind == "sup_derivative":
        return SupDerivative(int(spec.get("order", 0)))
    if kind == "schwartz":
        return SchwartzWeighted(int(spec.get("alpha", 0)), int(spec.get("beta", 0)),
                                float(spec.get("radius", 8.0)))
    values = spec.get("values", "ones")
    test = np.ones(out_dim) if values == "ones" else np.asarray(values, dtype=float)
    if test.shape[0] != out_dim:
        raise ConfigError(
            f"dual test vector has {test.shape[0]} entries, output has {out_dim}"
        )
    return DualPairing(test, out_grid, name=spec.get("name", "dual"))


def build_family(config: ExperimentConfig, out_dim: int, out_grid) -> SeminormFamily:
    members = tuple(build_seminorm(s, out_dim, out_grid) for s in config.seminorms)
    return SeminormFamily(members, name=config.name)


def build_fit_config(config: ExperimentConfig, seed) -> FitConfig:
    sig = config.ensemble.input_signature
    fit = config.fit
    if sig[0] == "function":
        fspec = FunctionalSpec(kind="function", grid=sig[1],
                               order=int(fit["functional_order"]),
                               scale=float(fit["functional_scale"]))
    elif sig[0] == "sequence":
        fspec = FunctionalSpec(kind="sequence", length=sig[1],
                               scale=float(fit["functional_scale"]))
    else:
        fspec = FunctionalSpec(kind="matrix", shape=sig[1],
                               scale=float(fit["functional_scale"]))
    return FitConfig(
        functional_spec=fspec,
        width=fit["width"],
        max_width=fit["max_width"],
        activation=fit["activation"],
        theta_range=tuple(fit["theta_range"]),
        lam=float(fit["lam"]),
        seed=seed,
    )


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything one (epsilon) pipeline run produced."""

    epsilon: float
    m_centers: int
    C: float
    delta: float | None
    degenerate: bool
    stage1_sup: float
    converged: bool
    network_width: int
    coefficient_widths: tuple[int, ...]
    coefficient_errors: tuple[float, ...]
    #: training samples; a fit with width >= n_train can interpolate them
    n_train: int
    interpolating: bool
    train_errors: dict
    heldout_errors: dict | None
    dual_train_errors: dict | None
    dual_heldout_errors: dict | None
    activation_flagged: bool
    wall_ms: float
    network_doc: dict | None

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "m_centers": self.m_centers,
            "C": self.C,
            "delta": self.delta,
            "degenerate": self.degenerate,
            "stage1_sup": self.stage1_sup,
            "converged": self.converged,
            "network_width": self.network_width,
            "coefficient_widths": list(self.coefficient_widths),
            "coefficient_errors": list(self.coefficient_errors),
            "n_train": self.n_train,
            "interpolating": self.interpolating,
            "train_errors": dict(self.train_errors),
            "heldout_errors": None if self.heldout_errors is None else dict(self.heldout_errors),
            "dual_train_errors": (None if self.dual_train_errors is None
                                  else dict(self.dual_train_errors)),
            "dual_heldout_errors": (None if self.dual_heldout_errors is None
                                    else dict(self.dual_heldout_errors)),
            "activation_flagged": self.activation_flagged,
            "wall_ms": self.wall_ms,
        }


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Ordered run results plus the config that produced them."""

    config: ExperimentConfig
    runs: tuple[RunResult, ...]
    created_at: str

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "created_at": self.created_at,
            "runs": [r.to_dict() for r in self.runs],
        }


def _split(ensemble: CompactEnsemble, values: TargetBatch, fraction: float):
    """Train and held-out parts of the ensemble and its values, as views."""
    n = len(ensemble)
    n_heldout = int(np.floor(fraction * n))
    n_train = n - n_heldout
    if n_heldout == 0:
        return ensemble, values, None, None
    return ensemble[:n_train], values[:n_train], ensemble[n_train:], values[n_train:]


def _run_one(config: ExperimentConfig, run_index: int, epsilon: float) -> RunResult:
    start = time.perf_counter()
    run_seed = derive_seed(config.seed, run_index)
    ensemble = sample_ensemble(config.ensemble, derive_seed(run_seed, 0))
    op = build_operator(config)
    values = op.apply_many(ensemble)
    family = build_family(config, op.output_dim, op.output_grid)
    duals = [build_seminorm({**d, "kind": "dual"}, op.output_dim, op.output_grid)
             for d in config.duals]

    train, train_values, heldout, heldout_values = _split(
        ensemble, values, config.heldout_fraction
    )
    fit_cfg = build_fit_config(config, derive_seed(run_seed, 1))
    net, budget, report = assemble_vector_network(
        train_values, train, family, config.target_index, epsilon, fit_cfg
    )

    # one error pass per split over the family and the duals together, split
    # by position rather than label: a dual may share a member's label
    everything = SeminormFamily(family.members + tuple(duals))
    labels = family.labels()
    dual_labels = [d.label() for d in duals]

    def _errors(values, samples):
        raw = [float(e) for e in uniform_error(values, net, samples, everything)]
        family_errs = dict(zip(labels, raw[:len(labels)]))
        return family_errs, (dict(zip(dual_labels, raw[len(labels):])) if duals else None)

    train_errs, dual_train = _errors(train_values, train)
    heldout_errs = dual_heldout = None
    if heldout is not None:
        heldout_errs, dual_heldout = _errors(heldout_values, heldout)

    wall_ms = (time.perf_counter() - start) * 1000.0
    return RunResult(
        epsilon=float(epsilon),
        m_centers=budget.m,
        C=budget.C,
        delta=budget.delta,
        degenerate=budget.degenerate,
        stage1_sup=report.stage1_sup,
        converged=report.converged,
        network_width=net.width,
        coefficient_widths=tuple(int(w) for w in report.coefficient_widths),
        coefficient_errors=tuple(float(e) for e in report.coefficient_errors),
        n_train=len(train),
        interpolating=bool(np.any(report.coefficient_widths >= len(train))),
        train_errors=train_errs,
        heldout_errors=heldout_errs,
        dual_train_errors=dual_train,
        dual_heldout_errors=dual_heldout,
        activation_flagged=fit_cfg.activation.negative_control
        or fit_cfg.activation.name == "relu",
        wall_ms=wall_ms,
        network_doc=serialize_network(net) if config.save_networks else None,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the epsilon sweep; results come back ordered by sweep position."""
    runs = [_run_one(config, i, e) for i, e in enumerate(config.epsilons)]
    created = datetime.now(timezone.utc).isoformat()
    return ExperimentReport(config, tuple(runs), created)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(float(value)) if isinstance(value, float) else str(value)


def emit_report(report: ExperimentReport, out_dir) -> list[Path]:
    """Write report.csv, report.json, and any serialized networks.

    CSV has one row per (epsilon, seminorm); floats are written in shortest
    round-trip form so parsing the file back is lossless.
    """
    out = Path(out_dir)
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "report.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for run in report.runs:
                for label, err in run.train_errors.items():
                    heldout = (None if run.heldout_errors is None
                               else run.heldout_errors[label])
                    writer.writerow([
                        _fmt(run.epsilon),
                        label,
                        _fmt(run.m_centers),
                        _fmt(run.C),
                        _fmt(run.delta),
                        _fmt(run.network_width),
                        _fmt(run.converged),
                        _fmt(err),
                        _fmt(heldout),
                        _fmt(run.wall_ms),
                    ])
        written.append(csv_path)

        json_path = out / "report.json"
        with open(json_path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        written.append(json_path)

        for i, run in enumerate(report.runs):
            if run.network_doc is None:
                continue
            net_path = out / f"network_run{i}.json"
            with open(net_path, "w") as fh:
                json.dump(run.network_doc, fh)
                fh.write("\n")
            written.append(net_path)
    except OSError as exc:
        raise OSError(f"cannot write report under {out}: {exc}") from exc
    return written


def read_report_csv(path) -> list[dict]:
    """Parse an emitted CSV back into typed row dicts."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns in {path}: {reader.fieldnames}")
        for rec in reader:
            rows.append({
                "epsilon": float(rec["epsilon"]),
                "seminorm": rec["seminorm"],
                "m_centers": int(rec["m_centers"]),
                "C": float(rec["C"]),
                "delta": None if rec["delta"] == "" else float(rec["delta"]),
                "width": int(rec["width"]),
                "converged": rec["converged"] == "true",
                "train_sup_error": float(rec["train_sup_error"]),
                "heldout_sup_error": (None if rec["heldout_sup_error"] == ""
                                      else float(rec["heldout_sup_error"])),
                "wall_ms": float(rec["wall_ms"]),
            })
    return rows
