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
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .construct import FitConfig, assemble_vector_network, uniform_error
from .errors import ConfigError, _named
from .inputs import CompactEnsemble, EnsembleSpec, FunctionalSpec, sample_ensemble
from .network import _grid_to_doc, _one_blas_thread, make_activation, serialize_network
from .operators import (
    Operator,
    _same_shape,
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
#: each seminorm kind's constructor; a kind reads its fields but grid
_SEMINORMS = {"lq": LqNorm, "sup_derivative": SupDerivative, "schwartz": SchwartzWeighted,
              "dual": DualPairing}


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


def _keys(cls, at, skip=()) -> dict:
    """{key: (name, default)} for the fields of the dataclass cls but skip:
    the key that fills each in the mapping read at field `at` (see
    _FIELD_NAMES), its name, and its default, None where it has none."""
    return {_FIELD_NAMES.get(f"{at}.{f.name}", _FIELD_NAMES.get(f.name, f.name))
            .removeprefix(f"{at}."): (f.name, None if f.default is MISSING else f.default)
            for f in fields(cls) if f.name not in skip}


def _read(cls, doc, at, **given):
    """cls built from the mapping doc read at field `at`: the arguments
    given, and each other field the value at its key in doc, or its default
    when absent.  A key of doc that fills no other field is refused by name
    before anything is built."""
    keys = _keys(cls, at, given)
    _only(doc, at, keys)
    return _from_field(at, cls, **given,
                       **{name: doc.get(key, default) for key, (name, default) in keys.items()})


#: fit's keys and defaults, in the order report.json echoes them: FitConfig's
#: fields but its spec and seed, then FunctionalSpec's but its signature
_FIT_DEFAULTS = {key: default for cls, skip in ((FitConfig, ("functional_spec", "seed")),
                                                (FunctionalSpec, ("signature",)))
                 for key, (_, default) in _keys(cls, "fit", skip).items()}


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple))


def _is_mapping(value) -> bool:
    return isinstance(value, dict)


def _mappings(items, key, nonempty) -> tuple[dict, ...]:
    """items, the value at key, as a tuple of mappings, item i named
    key[i] when bad."""
    _require(_is_list(items) and (items or not nonempty), key,
             "must be a nonempty list" if nonempty else "must be a list")
    for i, item in enumerate(items):
        _require(_is_mapping(item), f"{key}[{i}]", "must be a mapping")
    return tuple(items)


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked experiment description.

    However it is made, directly, by from_dict or by dataclasses.replace,
    the config checks every field, a bad one raising ConfigError naming it,
    and then builds its operator, seminorms, duals and fit config once, so a
    config that exists builds.  What it built is kept as `parts`, which runs
    use.  The config holds the mappings it is given as new JSON documents
    (see _document), fit with its defaults filled in and its theta_range
    and activation as the built fit config holds them, and to_dict returns
    a new document, so neither aliases the caller's mappings.
    """

    name: str = "experiment"
    operator: dict | None = None
    ensemble: EnsembleSpec | None = None
    heldout_fraction: float = 0.2
    seminorms: tuple[dict, ...] = ()
    target_index: int = 0
    epsilons: tuple[float, ...] = ()
    fit: dict = field(default_factory=dict)
    duals: tuple[dict, ...] = ()
    seed: int = 0
    out: str | None = None
    save_networks: bool = False

    def __post_init__(self):
        seminorms = _mappings(self.seminorms, "seminorms", nonempty=True)
        _require(_is_mapping(self.fit), "fit", "must be a mapping")
        _only(self.fit, "fit", _FIT_DEFAULTS)
        heldout = _from_field("", _as_float, self.heldout_fraction, "heldout_fraction", 0)
        _require(heldout < 1.0, "heldout_fraction", "must be below 1")
        _require(_is_list(self.epsilons), "epsilons", "must be a list")
        epsilons = tuple(_from_field("", _as_float, e, "epsilons", above=0)
                         for e in self.epsilons)
        target_index = _from_field("", _as_int, self.target_index, "target_index", 0)
        _require(target_index < len(seminorms), "target_index",
                 f"must index the {len(seminorms)} configured seminorms")
        seed = _from_field("", _as_int, self.seed, "seed", 0)
        _require(isinstance(self.name, str) and self.name, "name", "must be a nonempty string")
        _require(_is_mapping(self.operator), "operator", "must be a mapping")
        _require(isinstance(self.ensemble, EnsembleSpec), "ensemble", "must be an EnsembleSpec")
        _require(self.out is None or (isinstance(self.out, str) and self.out), "out",
                 "must be a nonempty string when given")
        _require(isinstance(self.save_networks, bool), "save_networks", "must be a boolean")
        checked = {"operator": self.operator, "heldout_fraction": heldout,
                   "seminorms": seminorms, "target_index": target_index, "epsilons": epsilons,
                   "fit": {**_FIT_DEFAULTS, **self.fit},
                   "duals": _mappings(self.duals, "duals", nonempty=False), "seed": seed}
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        parts = _build(self)
        object.__setattr__(self, "parts", parts)
        # report errors are keyed by label, so a repeated one would hide a column
        _unique([rho.label() for rho in parts.members], "seminorms[{}]")
        _unique([d.label() for d in parts.duals], "duals[{}].name")
        # kept as the fit config holds them, so integer bounds read back as
        # floats and a built activation as its document
        self.fit.update(theta_range=list(parts.fit.theta_range),
                        activation=parts.fit.activation.to_doc())
        for name in ("operator", "seminorms", "fit", "duals"):
            object.__setattr__(self, name, _document(getattr(self, name), name))

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """The config a document describes: each top-level key fills the
        field of its name, and an absent one takes the field's default, but
        ensemble and grid, which are read into one EnsembleSpec."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a mapping, got {type(raw).__name__}")
        _only(raw, "", [f.name for f in fields(ExperimentConfig)] + ["grid"])
        raw = dict(raw)
        grid = raw.pop("grid", None)
        _require(grid is None or _is_mapping(grid), "grid", "must be a mapping")
        ensemble = _get(raw, "", "ensemble", None, _is_mapping, "must be a mapping")
        return ExperimentConfig(**{**raw, "ensemble": _read(
            EnsembleSpec, ensemble, "ensemble",
            grid=None if grid is None else _read(GridMeta, grid, "grid"))})

    def to_dict(self) -> dict:
        """The document the config reads back from: its fields in order, but
        out, with tuples as lists and the ensemble as a mapping; then the
        ensemble's grid as `grid` and out, each when set."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}
        doc = {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}
        doc["ensemble"] = _ensemble_to_dict(self.ensemble)
        if self.ensemble.grid is not None:
            doc["grid"] = _grid_to_doc(self.ensemble.grid)
        if self.out is not None:
            doc["out"] = self.out
        return copy.deepcopy(doc)


def _document(value, field):
    """value as a new JSON document: mappings, lists and tuples of
    documents, strings, booleans, None and Python numbers, a numpy number
    held as the Python number it is; anything else is a ConfigError naming
    its field.  (A mapping's keys are strings: every reader refuses a key
    it does not know.)"""
    if isinstance(value, np.generic) and value.dtype.kind in "biuf":
        value = value.item()
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    if isinstance(value, (list, tuple)):
        items = (_document(item, f"{field}[{i}]") for i, item in enumerate(value))
        return tuple(items) if isinstance(value, tuple) else list(items)
    _require(_is_mapping(value), field, f"no JSON document holds {value!r}")
    return {key: _document(item, f"{field}.{key}") for key, item in value.items()}


def _unique(labels, field):
    """ConfigError naming field.format(i) for the first label i that repeats."""
    for i, label in enumerate(labels):
        _require(label not in labels[:i], field.format(i),
                 f"label {label!r} repeats that of {field.format(labels.index(label))}")


def _ensemble_to_dict(spec: EnsembleSpec) -> dict:
    """The ensemble mapping spec reads back from: each field but grid that is
    set, under its key, with tuples as lists."""
    doc = {key: getattr(spec, name)
           for key, (name, _) in _keys(EnsembleSpec, "ensemble", ("grid",)).items()}
    return {key: list(v) if isinstance(v, tuple) else v for key, v in doc.items() if v is not None}


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
    return zero_operator(sig, *_same_shape(sig, "zero"))


def build_seminorm(spec: dict, field: str, op: Operator) -> Seminorm:
    """The seminorm spec describes on op's outputs, built on their grid, so
    one that cannot apply to them, such as a derivative of sequence entries,
    is refused by its constructor; its bad fields are named under field."""
    kind = _get(spec, field, "kind", None, lambda k: isinstance(k, str) and k in _SEMINORMS,
                f"unknown seminorm kind {spec.get('kind')!r}")
    spec = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "dual":
        return _build_dual(spec, field, op)
    return _read(_SEMINORMS[kind], spec, field, grid=op.output_grid)


def _build_dual(spec: dict, field: str, op: Operator) -> DualPairing:
    n = op.output_dim
    values = _get(spec, field, "values", "ones", lambda v: v == "ones" or _is_list(v),
                  "dual values must be 'ones' or a list of numbers")
    # the one rule a dual cannot check itself: its length is the operator's output's
    _require(values == "ones" or len(values) == n, f"{field}.values",
             f"dual test vector has {len(values)} entries, output has {n}")
    return _read(DualPairing, {**spec, "values": np.ones(n) if values == "ones" else values},
                 field, grid=op.output_grid)


def build_fit_config(config: ExperimentConfig) -> FitConfig:
    """The stage-2 fit config of config.fit; runs give it their own bank seed."""
    fit = config.fit

    def held(cls):
        """{name: value} for each field of cls that fit holds"""
        return {name: fit[key] for key, (name, _) in _keys(cls, "fit").items() if key in fit}

    spec = _from_field("fit", FunctionalSpec, config.ensemble.input_signature,
                       **held(FunctionalSpec))
    activation = _from_field("fit.activation", make_activation, fit["activation"])
    return _from_field("fit", FitConfig, spec, **{**held(FitConfig), "activation": activation})


class _Parts(NamedTuple):
    """What a config builds: its operator, seminorms, duals and fit config."""

    operator: Operator
    members: tuple[Seminorm, ...]
    duals: tuple[DualPairing, ...]
    fit: FitConfig


def _build(config: ExperimentConfig) -> _Parts:
    op = build_operator(config)
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


def _split(ensemble: CompactEnsemble, values: np.ndarray, fraction: float):
    """Train and held-out parts of the ensemble and its value matrix, as views."""
    n = len(ensemble)
    n_heldout = int(np.floor(fraction * n))
    n_train = n - n_heldout
    if n_heldout == 0:
        return ensemble, values, None, None
    return ensemble[:n_train], values[:n_train], ensemble[n_train:], values[n_train:]


def _run_one(config: ExperimentConfig, run_index: int, epsilon: float) -> RunResult:
    start = time.perf_counter()
    parts = config.parts
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
        degenerate=report.C == 0.0,
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
        activation_flagged=fit_cfg.activation.flagged,
        wall_ms=wall_ms,
        network_doc=serialize_network(net) if config.save_networks else None,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the epsilon sweep at one OpenBLAS thread; results come in sweep order."""
    with _one_blas_thread():
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

    CSV has one row per (epsilon, seminorm): each column the run record's
    field of that name, but the row's seminorm label, its train and held-out
    sup errors, and width, the network's; floats are written in shortest
    round-trip form so parsing the file back is lossless.
    """
    out = Path(out_dir)
    written = []
    # built before anything is written, so a value no JSON holds leaves no file
    report_json = json.dumps(report.to_dict(), indent=2) + "\n"
    try:
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "report.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for run in report.runs:
                record, heldout = run.to_dict(), run.heldout_errors or {}
                for label, err in run.train_errors.items():
                    row = {**record, "seminorm": label, "train_sup_error": err,
                           "heldout_sup_error": heldout.get(label),
                           "width": record["network_width"]}
                    writer.writerow([_fmt(row[column]) for column in CSV_COLUMNS])
        written.append(csv_path)

        json_path = out / "report.json"
        json_path.write_text(report_json)
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

