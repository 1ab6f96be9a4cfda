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
import math
import time
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

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
    Seminorm,
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

#: the input kinds each operator kind accepts, and the fields it reads
_OPERATORS = {
    "integral": (("function",), ("kind", "kernel")),
    "poisson": (("function",), ("kind",)),
    "superposition": (("function", "sequence"), ("kind", "map")),
    "matrix_map": (("matrix",), ("kind", "map", "out_dim")),
    "zero": (("function", "sequence", "matrix"), ("kind", "out_dim")),
}
_DUAL_FIELDS = ("values", "name")
#: the fields each seminorm kind reads
_SEMINORM_FIELDS = {
    "lq": ("kind", "q"),
    "sup_derivative": ("kind", "order"),
    "schwartz": ("kind", "alpha", "beta", "radius"),
    "dual": ("kind",) + _DUAL_FIELDS,
}
#: each kernel's one parameter: (field, default, check, message)
_KERNEL_PARAMS = {
    "gaussian": ("width", 1.0, lambda w: _is_number(w) and w > 0, "must be a positive number"),
    "constant": ("value", 1.0, lambda v: _is_number(v), "must be a finite number"),
}
_ENSEMBLE_FAMILIES = ("band_limited", "sequence_box", "matrix_ball")
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


def _named(field, make, *args, **kwargs):
    """make(*args, **kwargs), with its TypeError or ValueError named as field's."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {field!r}: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite int or float, not a boolean; an integer beyond float range
    is not finite."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
        config = ExperimentConfig(
            name=_get(raw, "", "name", "experiment", lambda v: isinstance(v, str) and v,
                      "must be a nonempty string"),
            operator=_get(raw, "", "operator", None, _is_mapping, "must be a mapping"),
            ensemble=_build_ensemble(
                _get(raw, "", "ensemble", None, _is_mapping, "must be a mapping"),
                None if grid is None else _build_grid(grid)),
            heldout_fraction=float(_get(raw, "", "heldout_fraction", 0.2,
                                        lambda v: _is_number(v) and 0.0 <= v < 1.0,
                                        "must be a number in [0, 1)")),
            seminorms=seminorms,
            target_index=_get(raw, "", "target_index", 0,
                              lambda v: _is_int(v) and 0 <= v < len(seminorms),
                              f"must index the {len(seminorms)} configured seminorms"),
            epsilons=tuple(float(e) for e in _get(
                raw, "", "epsilons", [],
                lambda v: _is_list(v) and all(_is_number(e) and e > 0 for e in v),
                "must be a list of positive finite numbers")),
            fit={**_FIT_DEFAULTS, **fit},
            duals=_mappings(raw, "duals", nonempty=False),
            seed=_get(raw, "", "seed", 0, lambda v: _is_int(v) and v >= 0,
                      "must be a nonnegative integer"),
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
            doc["grid"] = {"a": self.ensemble.grid.a, "b": self.ensemble.grid.b,
                           "n": self.ensemble.grid.n}
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
    a, b = (float(_get(doc, "grid", end, None, _is_number, "must be a finite number"))
            for end in ("a", "b"))
    n = _get(doc, "grid", "n", None, _is_int, "must be an integer")
    return _named("grid", GridMeta, a, b, n)


def _build_ensemble(doc, grid) -> EnsembleSpec:
    family = _get(doc, "ensemble", "family", None, lambda f: f in _ENSEMBLE_FAMILIES,
                  f"unknown family {doc.get('family')!r}")
    count = _get(doc, "ensemble", "count", None, lambda c: _is_int(c) and c >= 1,
                 "must be a positive integer")
    if family == "matrix_ball":
        _only(doc, "ensemble", ("family", "count", "shape", "radius"))
        shape = _get(doc, "ensemble", "shape", None,
                     lambda s: _is_list(s) and len(s) == 2
                     and all(_is_int(d) and d >= 1 for d in s),
                     "must be a (rows, cols) pair of positive integers")
        radius = _get(doc, "ensemble", "radius", None, lambda r: _is_number(r) and r >= 0,
                      "must be a nonnegative number")
        return EnsembleSpec(family=family, count=count, shape=tuple(shape), radius=radius)
    _only(doc, "ensemble", ("family", "count", "radii"))
    radii = tuple(_get(doc, "ensemble", "radii", None,
                       lambda r: _is_list(r) and r and all(_is_number(x) and x >= 0 for x in r),
                       "must be a nonempty list of nonnegative numbers"))
    if family == "sequence_box":
        return EnsembleSpec(family=family, count=count, radii=radii)
    _require(grid is not None, "grid", "band_limited ensembles need a grid")
    return EnsembleSpec(family=family, count=count, radii=radii, grid=grid)


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
    out_dim = _get(doc, "operator", "out_dim", 3, lambda d: _is_int(d) and d >= 1,
                   "must be a positive integer")
    if kind == "integral":
        kernel = _get(doc, "operator", "kernel", {"name": "gaussian"}, _is_mapping,
                      "must be a mapping")
        name = _get(kernel, "operator.kernel", "name", None, lambda k: k in _KERNEL_PARAMS,
                    f"must be one of {tuple(_KERNEL_PARAMS)}, got {kernel.get('name')!r}")
        param, default, ok, message = _KERNEL_PARAMS[name]
        _only(kernel, "operator.kernel", ("name", param))
        value = float(_get(kernel, "operator.kernel", param, default, ok, message))
        return integral_operator(make_kernel(name, **{param: value}), sig[1])
    if kind == "poisson":
        return _named("grid.n", poisson_operator, sig[1])
    if kind == "superposition":
        return _named("operator.map", superposition_operator, doc.get("map"), sig)
    if kind == "matrix_map":
        return _named("operator.map", matrix_map_operator, doc.get("map"), sig[1], out_dim)
    if sig[0] == "function":
        return zero_operator(sig, sig[1].n, sig[1])
    return zero_operator(sig, sig[1] if sig[0] == "sequence" else out_dim)


def build_seminorm(spec: dict, field: str, op: Operator) -> Seminorm:
    """The seminorm spec describes on op's outputs; its bad fields are named under field."""
    kind = _get(spec, field, "kind", None, lambda k: k in _SEMINORM_FIELDS,
                f"unknown seminorm kind {spec.get('kind')!r}")
    _only(spec, field, _SEMINORM_FIELDS[kind])
    if kind == "lq":
        return LqNorm(float(_get(spec, field, "q", 2.0, lambda q: _is_number(q) and q >= 1,
                                 "lq needs a number q >= 1")))
    if kind == "sup_derivative":
        return SupDerivative(_get(spec, field, "order", 0, lambda o: _is_int(o) and o >= 0,
                                  "derivative order must be a nonnegative integer"))
    if kind == "schwartz":
        alpha, beta = (_get(spec, field, index, 0, lambda v: _is_int(v) and v >= 0,
                            "must be a nonnegative integer") for index in ("alpha", "beta"))
        radius = _get(spec, field, "radius", 8.0, lambda r: _is_number(r) and r > 0,
                      "must be a positive number")
        return SchwartzWeighted(alpha, beta, float(radius))
    return _build_dual(spec, field, op)


def _build_dual(spec: dict, field: str, op: Operator) -> DualPairing:
    n = op.output_dim
    values = _get(spec, field, "values", "ones",
                  lambda v: v == "ones" or (isinstance(v, list) and v
                                            and all(_is_number(x) for x in v)),
                  "dual values must be 'ones' or a nonempty list of numbers")
    _require(values == "ones" or len(values) == n, f"{field}.values",
             f"dual test vector has {len(values)} entries, output has {n}")
    name = _get(spec, field, "name", "dual", lambda v: isinstance(v, str) and v,
                "must be a nonempty string")
    test = np.ones(n) if values == "ones" else np.asarray(values, dtype=float)
    return DualPairing(test, op.output_grid, name=name)


def build_fit_config(config: ExperimentConfig) -> FitConfig:
    """The stage-2 fit config of config.fit; runs give it their own bank seed."""
    fit = config.fit
    width = _get(fit, "fit", "width", None, lambda w: _is_int(w) and w >= 1,
                 "must be a positive integer")
    max_width = _get(fit, "fit", "max_width", None, lambda w: _is_int(w) and w >= width,
                     "must be an integer >= fit.width")
    lam = _get(fit, "fit", "lam", None, lambda v: _is_number(v) and v >= 0,
               "must be a nonnegative number")
    lo, hi = _get(fit, "fit", "theta_range", None,
                  lambda t: _is_list(t) and len(t) == 2 and all(map(_is_number, t))
                  and t[1] > t[0], "must be an increasing (low, high) pair of numbers")
    order = _get(fit, "fit", "functional_order", None, lambda v: _is_int(v) and v >= 0,
                 "must be a nonnegative integer")
    scale = float(_get(fit, "fit", "functional_scale", None, lambda v: _is_number(v) and v > 0,
                       "must be a positive number"))
    return FitConfig(
        functional_spec=FunctionalSpec(config.ensemble.input_signature, order, scale),
        width=width,
        max_width=max_width,
        activation=_named("fit.activation", make_activation, fit["activation"]),
        theta_range=(float(lo), float(hi)),
        lam=float(lam),
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
