"""Each constructor checks its own arguments and names the one it refuses.

Every numeric argument takes a finite number (an integer where it is a
size, an order or an index) and refuses NaN, infinities, booleans and
strings with a ConfigError whose `arg` is the argument's name.  Every
vector and matrix argument takes real entries only, by the same rule, and
is held read-only.
"""

import math

import numpy as np
import pytest

from shallowop.construct import FitConfig
from shallowop.errors import ConfigError
from shallowop.inputs import (
    CompactEnsemble,
    EnsembleSpec,
    FunctionalSpec,
    FunctionSample,
    MatrixPoint,
    SequencePoint,
)
from shallowop.network import Polynomial, ShallowVectorNetwork, Tanh
from shallowop.operators import Operator, make_kernel, matrix_map_operator
from shallowop.targets import (
    DualPairing,
    GridMeta,
    LqNorm,
    SchwartzWeighted,
    SupDerivative,
    TargetBatch,
    TargetElement,
)

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


NETWORK = {"weights": [[1.0, 0.5]], "thresholds": [0.0], "coefficients": [1.0],
           "centers": [[1.0, 2.0]], "widths": [1], "activation": Tanh(),
           "input_signature": ("sequence", 3), "basis": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]]}
#: each constructor taking arrays, the keyword arguments of one it accepts,
#: and its array arguments
ARRAY_CONSTRUCTORS = {
    "TargetElement": (TargetElement, {"values": [1.0, 2.0]}, ["values"]),
    "TargetBatch": (TargetBatch, {"values": [[1.0, 2.0], [3.0, 4.0]]}, ["values"]),
    "FunctionSample": (FunctionSample, {"values": [0.0, 1.0, 0.5], "grid": GridMeta(0, 1, 3)},
                       ["values"]),
    "SequencePoint": (SequencePoint, {"values": [1.0, 2.0]}, ["values"]),
    "MatrixPoint": (MatrixPoint, {"values": [[1.0, 2.0], [3.0, 4.0]]}, ["values"]),
    "CompactEnsemble": (
        CompactEnsemble, {"flats": [[1.0, 2.0], [0.5, 0.0]], "seed": 0,
                          "spec": EnsembleSpec("sequence_box", 2, radii=(1.0, 1.0))},
        ["flats"]),
    "DualPairing": (DualPairing, {"test": [1.0, 2.0]}, ["test"]),
    "ShallowVectorNetwork": (ShallowVectorNetwork, NETWORK,
                             ["weights", "thresholds", "coefficients", "centers", "basis"]),
}


def first_replaced(values, value):
    """values, a nested list, with its first entry replaced by value."""
    if isinstance(values[0], list):
        return [first_replaced(values[0], value)] + values[1:]
    return [value] + values[1:]


def with_non_finite(values, bad):
    """values as an array with its last entry replaced by bad."""
    a = np.array(values)
    a.flat[-1] = bad
    return a


#: each bad value, built from the accepted list of the argument's shape
BAD_ARRAYS = {
    "strings": lambda values: np.array(values).astype(str),
    "booleans": lambda values: np.ones(np.shape(values), dtype=bool),
    "complex": lambda values: np.array(values) + 1j,
    "list_holding_True": lambda values: first_replaced(values, True),
    "nan": lambda values: with_non_finite(values, np.nan),
    "inf": lambda values: with_non_finite(values, np.inf),
    "minus_inf": lambda values: with_non_finite(values, -np.inf),
}

ARRAY_CASES = [
    pytest.param(key, arg, bad, id=f"{key}-{arg}-{bad}")
    for key, (_, _, arrays) in ARRAY_CONSTRUCTORS.items()
    for arg in arrays
    for bad in BAD_ARRAYS
]


@pytest.mark.parametrize("key", ARRAY_CONSTRUCTORS)
def test_array_table_builds_as_written(key):
    make, kwargs, arrays = ARRAY_CONSTRUCTORS[key]
    built = make(**kwargs)
    for arg in arrays:
        held = getattr(built, arg)
        assert held.dtype == np.float64 and not held.flags.writeable
        np.testing.assert_array_equal(held, kwargs[arg])


@pytest.mark.parametrize("key, arg, bad", ARRAY_CASES)
def test_array_argument_refuses_non_reals_by_name(key, arg, bad):
    make, kwargs, _ = ARRAY_CONSTRUCTORS[key]
    kwargs = {**kwargs, arg: BAD_ARRAYS[bad](kwargs[arg])}
    with pytest.raises(ConfigError) as info:
        make(**kwargs)
    assert info.value.arg == arg
    if bad in ("nan", "inf", "minus_inf"):
        assert "contain non-finite" in str(info.value)


def test_array_is_held_unless_something_can_write_it():
    whole = np.arange(12.0).reshape(4, 3)
    view = whole[1:]
    view.setflags(write=False)
    # a read-only view of a writeable array is copied: writing that array
    # later does not change the batch
    batch = TargetBatch(view)
    assert not np.shares_memory(batch.values, whole)
    whole[1, 0] = -1.0
    assert batch.values[0, 0] == 3.0
    # a row slice of a batch and a row of it view the batch's matrix
    assert np.shares_memory(batch[1:].values, batch.values)
    assert np.shares_memory(batch[1].values, batch.values)
    # integers and Fortran order are copied to C-ordered float64
    for values in (np.arange(6).reshape(2, 3), np.asfortranarray(whole)):
        held = TargetBatch(values).values
        assert held.dtype == np.float64 and held.flags.c_contiguous
        assert not held.flags.writeable and not np.shares_memory(held, values)
    # a buffer nothing can write, as a network document's arrays are, is held
    frozen = np.frombuffer(np.arange(3.0).tobytes())
    assert SequencePoint(frozen).values is frozen
    # a read-only array over a writeable buffer is copied
    thawed = np.frombuffer(bytearray(np.arange(3.0).tobytes()))
    thawed.setflags(write=False)
    assert not np.shares_memory(SequencePoint(thawed).values, thawed)
