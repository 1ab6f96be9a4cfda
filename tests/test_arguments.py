"""Each constructor checks its own arguments and names the one it refuses.

Every numeric argument takes a finite number (an integer where it is a
size, an order or an index) and refuses NaN, infinities, booleans and
strings with a ConfigError whose `arg` is the argument's name.
"""

import math

import numpy as np
import pytest

from shallowop.construct import FitConfig
from shallowop.errors import ConfigError
from shallowop.inputs import EnsembleSpec, FunctionalSpec
from shallowop.network import Polynomial
from shallowop.operators import Operator, make_kernel, matrix_map_operator
from shallowop.targets import DualPairing, GridMeta, LqNorm, SchwartzWeighted, SupDerivative

SPEC = FunctionalSpec(("sequence", 3))

#: each constructor, the keyword arguments of one it accepts, and its numeric
#: arguments: (argument, index of the entry within it or None, integer?)
CONSTRUCTORS = {
    "GridMeta": (GridMeta, {"a": 0.0, "b": 1.0, "n": 5},
                 [("a", None, False), ("b", None, False), ("n", None, True)]),
    "EnsembleSpec-sequence_box": (
        EnsembleSpec, {"family": "sequence_box", "count": 3, "radii": (1.0, 0.5)},
        [("count", None, True), ("radii", 1, False)]),
    "EnsembleSpec-matrix_ball": (
        EnsembleSpec, {"family": "matrix_ball", "count": 3, "shape": (2, 3), "radius": 1.0},
        [("shape", 0, True), ("shape", 1, True), ("radius", None, False)]),
    "FunctionalSpec": (FunctionalSpec, {"signature": ("sequence", 3), "order": 2, "scale": 1.0},
                       [("signature", 1, True), ("order", None, True), ("scale", None, False)]),
    "FitConfig": (FitConfig, {"functional_spec": SPEC, "width": 4, "max_width": 8,
                              "theta_range": (-1.0, 1.0), "lam": 0.0},
                  [("width", None, True), ("max_width", None, True),
                   ("theta_range", 0, False), ("theta_range", 1, False), ("lam", None, False)]),
    "LqNorm": (LqNorm, {"q": 2.0}, [("q", None, False)]),
    "SupDerivative": (SupDerivative, {"order": 1}, [("order", None, True)]),
    "SchwartzWeighted": (SchwartzWeighted, {"alpha": 1, "beta": 1, "radius": 2.0},
                         [("alpha", None, True), ("beta", None, True),
                          ("radius", None, False)]),
    "make_kernel-gaussian": (make_kernel, {"name": "gaussian", "width": 0.5},
                             [("width", None, False)]),
    "make_kernel-constant": (make_kernel, {"name": "constant", "value": 2.0},
                             [("value", None, False)]),
    "Operator": (Operator, {"name": "id", "fn": None, "input_signature": ("sequence", 3),
                            "output_dim": 3},
                 [("output_dim", None, True)]),
    "Polynomial": (Polynomial, {"coefficients": (0.0, 1.0)}, [("coefficients", 1, False)]),
    "DualPairing": (DualPairing, {"test": [1.0, 2.0], "name": "d"}, [("test", 0, False)]),
}

#: refused by every numeric argument
NOT_FINITE_NUMBERS = [math.nan, math.inf, -math.inf, True, np.bool_(False), "1"]
#: refused by integer arguments too: no fraction is truncated, and no float
#: is read as an integer
NOT_INTEGERS = NOT_FINITE_NUMBERS + [2.0, 2.5, np.float64(3.0)]


def substituted(kwargs, arg, index, value):
    """kwargs with its argument arg, or entry index of it, replaced by value."""
    kwargs = dict(kwargs)
    if index is None:
        kwargs[arg] = value
    else:
        entries = list(kwargs[arg])
        entries[index] = value
        kwargs[arg] = type(kwargs[arg])(entries)
    return kwargs


CASES = [
    pytest.param(key, arg, index, bad,
                 id=f"{key}-{arg}{'' if index is None else f'[{index}]'}-{bad!r}")
    for key, (_, _, numeric) in CONSTRUCTORS.items()
    for arg, index, integer in numeric
    for bad in (NOT_INTEGERS if integer else NOT_FINITE_NUMBERS)
]


@pytest.mark.parametrize("key", CONSTRUCTORS)
def test_table_builds_as_written(key):
    make, kwargs, _ = CONSTRUCTORS[key]
    make(**kwargs)


@pytest.mark.parametrize("key, arg, index, bad", CASES)
def test_numeric_argument_refuses_non_numbers_by_name(key, arg, index, bad):
    make, kwargs, _ = CONSTRUCTORS[key]
    with pytest.raises(ConfigError) as info:
        make(**substituted(kwargs, arg, index, bad))
    assert info.value.arg == arg
    assert str(info.value).endswith(f"got {bad!r}")


@pytest.mark.parametrize("make, kwargs, arg", [
    (FitConfig, {"functional_spec": SPEC, "theta_range": (0.0, 1.0, 2.0)}, "theta_range"),
    (FitConfig, {"functional_spec": SPEC, "theta_range": "ab"}, "theta_range"),
    (FitConfig, {"functional_spec": SPEC, "theta_range": (1.0, 1.0)}, "theta_range"),
    (FitConfig, {"functional_spec": SPEC, "width": 8, "max_width": 4}, "max_width"),
    (FitConfig, {"functional_spec": SPEC, "lam": -1.0}, "lam"),
    (EnsembleSpec, {"family": "sequence_box", "count": 3, "radii": "abc"}, "radii"),
    (EnsembleSpec, {"family": "sequence_box", "count": 3, "radii": 5}, "radii"),
    (EnsembleSpec, {"family": "matrix_ball", "count": 3, "shape": (2, 2, 2), "radius": 1.0},
     "shape"),
    (EnsembleSpec, {"family": "cube", "count": 3}, "family"),
    (Polynomial, {"coefficients": ()}, "coefficients"),
    (Polynomial, {"coefficients": 5}, "coefficients"),
    (GridMeta, {"a": 1.0, "b": 1.0, "n": 5}, "b"),
    (GridMeta, {"a": 0.0, "b": 1.0, "n": 1}, "n"),
    (GridMeta, {"a": -1.7e308, "b": 1.7e308, "n": 5}, "b"),
    (SchwartzWeighted, {"radius": 0.0}, "radius"),
    (make_kernel, {"name": "gaussian", "width": 0.0}, "width"),
    (make_kernel, {"name": "gaussian", "value": 1.0}, "value"),
    (make_kernel, {"name": "cauchy"}, "name"),
    (DualPairing, {"test": [1.0], "name": ""}, "name"),
    (matrix_map_operator, {"map_id": "row_sums", "shape": (2, 2), "out_dim": 2}, "out_dim"),
    (matrix_map_operator, {"map_id": "det", "shape": (2, 2)}, "map_id"),
], ids=["theta_triple", "theta_string", "theta_not_increasing", "max_width_below_width",
        "negative_lam", "string_radii", "scalar_radii", "shape_triple", "unknown_family",
        "no_coefficients", "scalar_coefficients", "empty_grid", "one_node", "infinite_spacing",
        "zero_truncation_radius", "zero_kernel_width", "parameter_of_another_kernel",
        "unknown_kernel", "empty_dual_name", "row_sums_out_dim", "unknown_matrix_map"])
def test_shape_and_range_refused_by_name(make, kwargs, arg):
    with pytest.raises(ConfigError) as info:
        make(**kwargs)
    assert info.value.arg == arg


def test_accepted_numbers_are_normalized():
    # integers read as floats where the argument is real, numpy integers as
    # ints, so equal arguments give one label and one report key
    assert SupDerivative(np.int64(2)).label() == SupDerivative(2).label() == "sup_d2"
    assert LqNorm(2).q == 2.0 and type(LqNorm(2).q) is float
    assert GridMeta(0, 1, 5) == GridMeta(0.0, 1.0, 5) and type(GridMeta(0, 1, 5).a) is float
    assert FitConfig(SPEC, theta_range=[-1, 1]).theta_range == (-1.0, 1.0)
    assert EnsembleSpec("matrix_ball", 3, shape=(2, 2), radius=1).radius == 1.0
    assert Polynomial([0, 1]).coefficients == (0.0, 1.0)
