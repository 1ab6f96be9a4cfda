"""A config mapping's keys are the fields of the constructor it fills, and
its defaults are that constructor's.

Each key is probed by writing it into one mapping of a small valid config:
a key the mapping takes is refused, if at all, for its value, and any other
key as an unknown field naming it.
"""

import copy
from dataclasses import fields

import pytest

from shallowop.construct import FitConfig
from shallowop.errors import ConfigError
from shallowop.experiment import ExperimentConfig
from shallowop.inputs import EnsembleSpec, FunctionalSpec
from shallowop.targets import DualPairing, GridMeta, LqNorm, SchwartzWeighted, SupDerivative

BASE = {
    "name": "keys",
    "grid": {"a": 0.0, "b": 1.0, "n": 21},
    "ensemble": {"family": "band_limited", "count": 20, "radii": [1.0, 0.5]},
    "operator": {"kind": "poisson"},
    "seminorms": [{"kind": "lq", "q": 2.0}],
    "duals": [{"name": "mean"}],
    "epsilons": [0.2],
    "fit": {"width": 8, "max_width": 16},
}


def names(cls, *skip, renamed=()):
    """cls's field names but skip, each written as renamed says."""
    renamed = dict(renamed)
    return {renamed.get(f.name, f.name) for f in fields(cls) if f.name not in skip}


#: where each mapping sits in BASE, what it holds instead when not BASE's,
#: and the keys it takes: its constructor's fields under their config names
MAPPINGS = {
    "top": ((), None, names(ExperimentConfig) | {"grid"}),
    "grid": (("grid",), None, names(GridMeta)),
    "ensemble": (("ensemble",), None, names(EnsembleSpec, "grid")),
    "fit": (("fit",), None,
            names(FitConfig, "functional_spec", "seed")
            | names(FunctionalSpec, "signature",
                    renamed={"order": "functional_order", "scale": "functional_scale"})),
    "duals": (("duals", 0), None, names(DualPairing, "grid", renamed={"test": "values"})),
    **{f"seminorms-{kind}": (("seminorms", 0), {"kind": kind}, {"kind"} | names(cls, "grid"))
       for kind, cls in (("lq", LqNorm), ("sup_derivative", SupDerivative),
                         ("schwartz", SchwartzWeighted))},
    "seminorms-dual": (("seminorms", 0), {"kind": "dual"},
                       {"kind"} | names(DualPairing, "grid", renamed={"test": "values"})),
}


def refused_as_unknown(path, replaced, key) -> bool:
    """Whether BASE, with key written as None into its mapping at path, is
    refused as an unknown field naming key."""
    doc = copy.deepcopy(BASE)
    if replaced is not None:
        doc[path[0]][path[1]] = dict(replaced)
    mapping = doc
    for part in path:
        mapping = mapping[part]
    mapping[key] = None
    at = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")
    field = f"{at}.{key}" if at else key
    try:
        ExperimentConfig.from_dict(doc)
    except ConfigError as exc:
        return str(exc) == f"field {field!r}: unknown field"
    return False


@pytest.mark.parametrize("where", MAPPINGS)
def test_keys_are_the_constructors_fields(where):
    path, replaced, takes = MAPPINGS[where]
    every_field = set().union(*(names(cls) for cls in (
        ExperimentConfig, GridMeta, EnsembleSpec, FitConfig, FunctionalSpec, DualPairing,
        LqNorm, SupDerivative, SchwartzWeighted)))
    probes = takes | every_field | {"kind", "values", "functional_order", "bogus"}
    taken = {key for key in probes if not refused_as_unknown(path, replaced, key)}
    assert taken == takes


def test_fit_defaults_are_the_constructors_defaults():
    doc = copy.deepcopy(BASE)
    del doc["fit"]
    config = ExperimentConfig.from_dict(doc)
    spec = FunctionalSpec(config.ensemble.input_signature)
    direct, built = FitConfig(spec), config.parts.fit
    for f in fields(FitConfig):
        if f.name != "functional_spec":
            assert getattr(built, f.name) == getattr(direct, f.name), f.name
    for f in fields(FunctionalSpec):
        assert getattr(built.functional_spec, f.name) == getattr(spec, f.name), f.name
    # the report echoes the defaults the config used
    assert config.fit["lam"] == FitConfig.lam == 0.0
    assert config.fit["functional_order"] == spec.order


def test_fit_echo_follows_the_constructors_field_order():
    config = ExperimentConfig.from_dict(copy.deepcopy(BASE))
    order = [f.name for f in fields(FitConfig) if f.name not in ("functional_spec", "seed")]
    assert list(config.to_dict()["fit"]) == order + ["functional_order", "functional_scale"]
