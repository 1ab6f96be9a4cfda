"""Experiment configs, sweep runner, and report emission.

A config names an operator, a sampled ensemble with a held-out split, a
seminorm family with one targeted member, an epsilon sweep, and fit knobs.
Each epsilon gets its own deterministic seed path, so sweeps reproduce
byte-identically (wall-clock fields aside).
"""

from __future__ import annotations

import copy
import csv
import json
import time
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from functools import cached_property, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .construct import (
    FitConfig,
    assemble_vector_network,
    uniform_error,
)
from .errors import ConfigError, _named
from .inputs import CompactEnsemble, EnsembleSpec, FunctionalSpec, sample_ensemble
from .network import _grid_to_doc, make_activation, serialize_network
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
    Seminorm,
    SeminormFamily,
    SupDerivative,
    TargetBatch,
    _as_float,
    _as_int,
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

#: the input kinds each operator kind accepts, and the fields it reads
_OPERATORS = {
    "integral": (("function",), ("kind", "kernel")),
    "poisson": (("function",), ("kind",)),
    "superposition": (("function", "sequence"), ("kind", "map")),
    "matrix_map": (("matrix",), ("kind", "map", "out_dim")),
    "zero": (("function", "sequence", "matrix"), ("kind", "out_dim")),
}
_DUAL_FIELDS = ("values", "name")
#: each seminorm kind's constructor (None for duals) and the fields it reads
_SEMINORMS = {
    "lq": (LqNorm, ("kind", "q")),
    "sup_derivative": (SupDerivative, ("kind", "order")),
    "schwartz": (SchwartzWeighted, ("kind", "alpha", "beta", "radius")),
    "dual": (None, ("kind",) + _DUAL_FIELDS),
}
_FIT_DEFAULTS = {
    "activation": "tanh",
    "width": 64,
    "max_width": 512,
    "theta_range": [-3.0, 3.0],
    "lam": 0.0,
    "functional_order": 3,
    "functional_scale": 1.0,
}


def _require(cond, field, message):
    if not cond:
        raise ConfigError(f"field {field!r}: {message}")


def _only(doc, at, fields):
    """ConfigError naming the first key of doc, read at field `at`, not in fields."""
    for key in doc:
        _require(key in fields, f"{at}.{key}" if at else key, "unknown field")


def _get(doc, at, key, default, ok, message):
    """doc[key], or default when it is absent, read from the mapping at field
    `at` ("" at the top level); ConfigError naming the field unless ok(value).
    """
    value = doc.get(key, default)
    _require(ok(value), f"{at}.{key}" if at else key, message)
    return value


#: config fields named apart from the constructor argument they fill
_FIELD_NAMES = {
    "fit.order": "fit.functional_order",
    "fit.scale": "fit.functional_scale",
    "ensemble.grid": "grid",
    "output_dim": "out_dim",
    "map_id": "map",
    "test": "values",
}
#: _from_field(at, make, *args, **kwargs) is make(*args, **kwargs) read from
#: the field at; what it raises is a ConfigError naming the field written
_from_field = partial(_named, ConfigError, _FIELD_NAMES)


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple))


def _is_mapping(value) -> bool:
    return isinstance(value, dict)


def _mappings(doc, key, nonempty) -> tuple[dict, ...]:
    """doc[key] as a tuple of mappings, item i named key[i] when bad."""
    items = _get(doc, "", key, [], lambda v: _is_list(v) and (v or not nonempty),
                 "must be a nonempty list" if nonempty else "must be a list")
    for i, item in enumerate(items):
        _require(_is_mapping(item), f"{key}[{i}]", "must be a mapping")
    return tuple(items)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description.

    from_dict checks a config by building its operator, seminorms, duals and
    fit config once, so a config that loads builds; a bad field raises
    ConfigError naming it.  What it built is kept as `parts`, which runs use.
    The config holds a deep copy of the document it was read from, and
    to_dict returns a new one, so neither aliases the caller's mappings.
    """

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
        raw = copy.deepcopy(raw)
        _only(raw, "", ("name", "operator", "grid", "ensemble", "heldout_fraction",
                        "seminorms", "target_index", "epsilons", "fit", "duals", "seed",
                        "out", "save_networks"))
        grid = _get(raw, "", "grid", None, lambda g: g is None or _is_mapping(g),
                    "must be a mapping")
        seminorms = _mappings(raw, "seminorms", nonempty=True)
        fit = _get(raw, "", "fit", {}, _is_mapping, "must be a mapping")
        _only(fit, "fit", _FIT_DEFAULTS)
        heldout = _from_field("", _as_float, raw.get("heldout_fraction", 0.2),
                              "heldout_fraction", 0)
        _require(heldout < 1.0, "heldout_fraction", "must be below 1")
        epsilons = tuple(_from_field("", _as_float, e, "epsilons", above=0)
                         for e in _get(raw, "", "epsilons", [], _is_list, "must be a list"))
        target_index = _from_field("", _as_int, raw.get("target_index", 0), "target_index", 0)
        _require(target_index < len(seminorms), "target_index",
                 f"must index the {len(seminorms)} configured seminorms")
        seed = _from_field("", _as_int, raw.get("seed", 0), "seed", 0)
        config = ExperimentConfig(
            name=_get(raw, "", "name", "experiment", lambda v: isinstance(v, str) and v,
                      "must be a nonempty string"),
            operator=_get(raw, "", "operator", None, _is_mapping, "must be a mapping"),
            ensemble=_build_ensemble(
                _get(raw, "", "ensemble", None, _is_mapping, "must be a mapping"),
                None if grid is None else _build_grid(grid)),
            heldout_fraction=heldout,
            seminorms=seminorms,
            target_index=target_index,
            epsilons=epsilons,
            fit={**_FIT_DEFAULTS, **fit},
            duals=_mappings(raw, "duals", nonempty=False),
            seed=seed,
            out=_get(raw, "", "out", None, lambda v: v is None or (isinstance(v, str) and v),
                     "must be a nonempty string when given"),
            save_networks=_get(raw, "", "save_networks", False, lambda v: isinstance(v, bool),
                               "must be a boolean"),
        )
        parts = config.parts
        # report errors are keyed by label, so a repeated one would hide a column
        _unique([rho.label() for rho in parts.members], "seminorms[{}]")
        _unique([d.label() for d in parts.duals], "duals[{}].name")
        # kept as the fit config holds it, so integer bounds read back as floats
        config.fit["theta_range"] = list(parts.fit.theta_range)
        return config

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "operator": self.operator,
            "ensemble": _ensemble_to_dict(self.ensemble),
            "heldout_fraction": self.heldout_fraction,
            "seminorms": list(self.seminorms),
            "target_index": self.target_index,
            "epsilons": list(self.epsilons),
            "fit": self.fit,
            "duals": list(self.duals),
            "seed": self.seed,
            "save_networks": self.save_networks,
        }
        if self.ensemble.grid is not None:
            doc["grid"] = _grid_to_doc(self.ensemble.grid)
        if self.out is not None:
            doc["out"] = self.out
        return copy.deepcopy(doc)

    @cached_property
    def parts(self) -> _Parts:
        """The operator, seminorms, duals and fit config, built on first use."""
        return _build(self)


def _unique(labels, field):
    """ConfigError naming field.format(i) for the first label i that repeats."""
    for i, label in enumerate(labels):
        _require(label not in labels[:i], field.format(i),
                 f"label {label!r} repeats that of {field.format(labels.index(label))}")


def _build_grid(doc) -> GridMeta:
    _only(doc, "grid", ("a", "b", "n"))
    return _from_field("grid", GridMeta, doc.get("a"), doc.get("b"), doc.get("n"))


def _build_ensemble(doc, grid) -> EnsembleSpec:
    _only(doc, "ensemble", ("family", "count", "radii", "shape", "radius"))
    family = doc.get("family")
    # the top-level grid is the domain of band-limited functions only
    return _from_field("ensemble", EnsembleSpec, family, doc.get("count"),
                       radii=doc.get("radii"), shape=doc.get("shape"), radius=doc.get("radius"),
                       grid=grid if family == "band_limited" else None)


def _ensemble_to_dict(spec: EnsembleSpec) -> dict:
    doc = {"family": spec.family, "count": spec.count}
    if spec.radii is not None:
        doc["radii"] = list(spec.radii)
    if spec.shape is not None:
        doc["shape"] = list(spec.shape)
    if spec.radius is not None:
        doc["radius"] = spec.radius
    return doc


def build_operator(config: ExperimentConfig) -> Operator:
    """Instantiate the configured ground-truth operator."""
    doc, sig = config.operator, config.ensemble.input_signature
    kind = _get(doc, "operator", "kind", None,
                lambda k: isinstance(k, str) and k in _OPERATORS,
                f"must be one of {tuple(_OPERATORS)}, got {doc.get('kind')!r}")
    inputs, fields = _OPERATORS[kind]
    _require(sig[0] in inputs, "operator.kind",
             f"{kind} operators need a {' or '.join(inputs)} ensemble")
    _only(doc, "operator", fields)
    out_dim = doc.get("out_dim")
    if kind == "integral":
        params = dict(_get(doc, "operator", "kernel", {"name": "gaussian"}, _is_mapping,
                           "must be a mapping"))
        kernel = _from_field("operator.kernel", make_kernel, params.pop("name", None), **params)
        return integral_operator(kernel, sig[1])
    if kind == "poisson":
        return _from_field("grid.n", poisson_operator, sig[1])
    if kind == "superposition":
        return _from_field("operator", superposition_operator, doc.get("map"), sig)
    if kind == "matrix_map":
        return _from_field("operator", matrix_map_operator, doc.get("map"), sig[1], out_dim)
    if sig[0] == "matrix":
        return _from_field("operator", zero_operator, sig, 3 if out_dim is None else out_dim)
    # on functions and sequences the zero operator's output is its input's shape
    _require(out_dim is None, "operator.out_dim", f"does not apply to {sig[0]} inputs")
    if sig[0] == "function":
        return zero_operator(sig, sig[1].n, sig[1])
    return zero_operator(sig, sig[1])


def build_seminorm(spec: dict, field: str, op: Operator) -> Seminorm:
    """The seminorm spec describes on op's outputs; its bad fields are named under field."""
    kind = _get(spec, field, "kind", None, lambda k: isinstance(k, str) and k in _SEMINORMS,
                f"unknown seminorm kind {spec.get('kind')!r}")
    make, names = _SEMINORMS[kind]
    _only(spec, field, names)
    if make is None:
        return _build_dual(spec, field, op)
    return _from_field(field, make, **{k: v for k, v in spec.items() if k != "kind"})


def _build_dual(spec: dict, field: str, op: Operator) -> DualPairing:
    n = op.output_dim
    values = _get(spec, field, "values", "ones", lambda v: v == "ones" or _is_list(v),
                  "dual values must be 'ones' or a list of numbers")
    # the one rule a dual cannot check itself: its length is the operator's output's
    _require(values == "ones" or len(values) == n, f"{field}.values",
             f"dual test vector has {len(values)} entries, output has {n}")
    return _from_field(field, DualPairing, np.ones(n) if values == "ones" else values,
                       op.output_grid, name=spec.get("name", "dual"))


def build_fit_config(config: ExperimentConfig) -> FitConfig:
    """The stage-2 fit config of config.fit; runs give it their own bank seed."""
    fit = config.fit
    spec = _from_field("fit", FunctionalSpec, config.ensemble.input_signature,
                       fit["functional_order"], fit["functional_scale"])
    return _from_field(
        "fit", FitConfig, spec,
        width=fit["width"],
        max_width=fit["max_width"],
        activation=_from_field("fit.activation", make_activation, fit["activation"]),
        theta_range=fit["theta_range"],
        lam=fit["lam"],
    )


class _Parts(NamedTuple):
    """What a config builds: its operator, seminorms, duals and fit config."""

    operator: Operator
    members: tuple[Seminorm, ...]
    duals: tuple[DualPairing, ...]
    fit: FitConfig


def _build(config: ExperimentConfig) -> _Parts:
    op = build_operator(config)
    for i, dual in enumerate(config.duals):
        _only(dual, f"duals[{i}]", _DUAL_FIELDS)
    return _Parts(
        op,
        tuple(build_seminorm(s, f"seminorms[{i}]", op) for i, s in enumerate(config.seminorms)),
        tuple(_build_dual(d, f"duals[{i}]", op) for i, d in enumerate(config.duals)),
        build_fit_config(config),
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
        """The run's report.json record: every field but network_doc, in
        declaration order, with tuples as lists and dicts copied."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "network_doc"}
        return {k: list(v) if isinstance(v, tuple) else dict(v) if isinstance(v, dict) else v
                for k, v in doc.items()}


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


def _run_one(config: ExperimentConfig, parts: _Parts, run_index: int,
             epsilon: float) -> RunResult:
    start = time.perf_counter()
    run_seed = derive_seed(config.seed, run_index)
    ensemble = sample_ensemble(config.ensemble, derive_seed(run_seed, 0))
    values = parts.operator.apply_many(ensemble)
    train, train_values, heldout, heldout_values = _split(
        ensemble, values, config.heldout_fraction
    )
    fit_cfg = replace(parts.fit, seed=derive_seed(run_seed, 1))
    # the family and the duals together, so assembly's training pass measures
    # every error the report needs; errors are split by position rather than
    # label, since a dual may share a member's label
    everything = SeminormFamily(parts.members + parts.duals)
    net, report = assemble_vector_network(
        train_values, train, everything, config.target_index, epsilon, fit_cfg
    )
    n_members = len(parts.members)
    labels = [rho.label() for rho in parts.members]
    dual_labels = [d.label() for d in parts.duals]

    def _by_label(errors):
        raw = [float(e) for e in errors]
        duals = dict(zip(dual_labels, raw[n_members:])) if parts.duals else None
        return dict(zip(labels, raw[:n_members])), duals

    train_errs, dual_train = _by_label(report.train_errors)
    heldout_errs = dual_heldout = None
    if heldout is not None:
        heldout_errs, dual_heldout = _by_label(
            uniform_error(heldout_values, net, heldout, everything))

    wall_ms = (time.perf_counter() - start) * 1000.0
    return RunResult(
        epsilon=float(epsilon),
        m_centers=report.m,
        C=report.C,
        delta=report.delta,
        degenerate=report.degenerate,
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
    runs = [_run_one(config, config.parts, i, e) for i, e in enumerate(config.epsilons)]
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
