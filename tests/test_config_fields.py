"""Property: any value in a numeric config field loads or is refused by name.

A value written into one numeric field of a small valid config either loads,
or raises a ConfigError whose message starts with that field's name; no
other exception escapes.  Where a rule relates two fields (grid.b > grid.a,
fit.max_width >= fit.width), the error names the later field of the pair.
"""

import copy
import math
import re
import warnings

import pytest

from shallowop.errors import ConfigError
from shallowop.experiment import ExperimentConfig

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

COMMON = {
    "target_index": 0,
    "epsilons": [0.2],
    "heldout_fraction": 0.2,
    "seed": 3,
    "fit": {"width": 8, "max_width": 16, "lam": 0.0, "theta_range": [-2.0, 2.0],
            "functional_order": 2, "functional_scale": 1.0},
}
#: three small configs, one per input kind, and their numeric fields
CONFIGS = {
    "function": ({
        **COMMON,
        "grid": {"a": 0.0, "b": 1.0, "n": 21},
        "ensemble": {"family": "band_limited", "count": 20, "radii": [1.0, 0.5]},
        "operator": {"kind": "integral", "kernel": {"name": "gaussian", "width": 0.25}},
        "seminorms": [{"kind": "lq", "q": 2.0}, {"kind": "sup_derivative", "order": 1},
                      {"kind": "schwartz", "alpha": 1, "beta": 0, "radius": 0.5}],
    }, ["grid.a", "grid.b", "grid.n", "ensemble.count", "ensemble.radii[0]",
        "operator.kernel.width", "seminorms[0].q", "seminorms[1].order", "seminorms[2].alpha",
        "seminorms[2].beta", "seminorms[2].radius", "target_index", "epsilons[0]",
        "heldout_fraction", "seed", "fit.width", "fit.max_width", "fit.lam",
        "fit.theta_range[0]", "fit.theta_range[1]", "fit.functional_order",
        "fit.functional_scale"]),
    "sequence": ({
        **COMMON,
        "ensemble": {"family": "sequence_box", "count": 20, "radii": [1.0, 0.5, 0.25]},
        "operator": {"kind": "superposition", "map": "sin"},
        "seminorms": [{"kind": "lq", "q": 1.0}],
        "duals": [{"name": "tilt", "values": [1.0, 0.0, -1.0]}],
    }, ["ensemble.radii[1]", "duals[0].values[1]"]),
    "matrix": ({
        **COMMON,
        "ensemble": {"family": "matrix_ball", "count": 20, "shape": [2, 2], "radius": 1.0},
        "operator": {"kind": "matrix_map", "map": "sin_of_trace_times_basis", "out_dim": 3},
        "seminorms": [{"kind": "lq", "q": 2.0}],
    }, ["ensemble.shape[0]", "ensemble.shape[1]", "ensemble.radius", "operator.out_dim"]),
}
FIELDS = [(kind, path) for kind, (_, paths) in CONFIGS.items() for path in paths]
#: the later field of each pair of fields one rule relates
PARTNER = {"grid.a": "grid.b", "fit.width": "fit.max_width"}

#: values of no number type or beyond every float and array size
EXTREMES = [10**400, -10**400, "1", "", None, [1.0], {"x": 1.0}]
#: small integers only, so that no size builds a large operator
VALUES = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.sampled_from(EXTREMES),
)
#: the edge values written into every field, not only those the draws reach
EDGES = EXTREMES + [math.nan, math.inf, -math.inf, True]


def written(doc, path, value):
    """doc with value at path, a dotted path whose parts may end in [i]."""
    node = doc
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


@hypothesis.settings(derandomize=True, max_examples=400, deadline=None)
@hypothesis.given(field=st.sampled_from(FIELDS), value=VALUES)
def test_value_loads_or_is_refused_naming_its_field(field, value):
    kind, path = field
    doc = written(copy.deepcopy(CONFIGS[kind][0]), path, value)
    name = re.sub(r"\[\d+\]$", "", path)
    try:
        with warnings.catch_warnings():
            # an extreme grid may overflow while its operator is built
            warnings.simplefilter("ignore", RuntimeWarning)
            ExperimentConfig.from_dict(doc)
    except ConfigError as exc:
        named = re.match(r"field '([^']*)'", str(exc))
        assert named is not None, str(exc)
        assert named.group(1) in (name, PARTNER.get(name)), str(exc)


def edge_id(value):
    if isinstance(value, int) and abs(value) == 10**400:
        return "-10**400" if value < 0 else "10**400"
    return repr(value)


@pytest.mark.parametrize("value", EDGES, ids=edge_id)
@pytest.mark.parametrize("field", FIELDS, ids=lambda field: "-".join(field))
def test_edge_value_loads_or_is_refused_naming_its_field(field, value):
    # the property test's own body, run on each (field, value) pair
    test_value_loads_or_is_refused_naming_its_field.hypothesis.inner_test(field, value)


@pytest.mark.parametrize("kind", CONFIGS)
def test_configs_load_as_written(kind):
    ExperimentConfig.from_dict(copy.deepcopy(CONFIGS[kind][0]))
