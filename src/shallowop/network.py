"""Shallow vector-valued networks: sums of activation ridges times coefficients.

A network holds weight rows l_j, thresholds theta_j and coefficient rows v_j
as three matrices plus one shared activation, and evaluates to
sum_j eta(l_j(s) - theta_j) v_j.  The width may be zero, in which case the
network is identically zero.  Networks are immutable after construction and
evaluation is pure.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

from .errors import DocumentError, ShapeError
from .inputs import signature_dim, stack_inputs
from .targets import GridMeta


class Activation:
    """Scalar nonlinearity applied entrywise; finite for all finite inputs."""

    #: set on variants that are polynomial on intervals and therefore cannot
    #: yield a dense class; kept for stall experiments
    negative_control = False

    name = ""

    def __call__(self, x):
        raise NotImplementedError

    def to_doc(self):
        return self.name


@dataclass(frozen=True)
class Tanh(Activation):
    name = "tanh"

    def __call__(self, x):
        return np.tanh(x)


@dataclass(frozen=True)
class Sigmoid(Activation):
    name = "sigmoid"

    def __call__(self, x):
        # split by sign to avoid overflow in exp for large |x|
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Relu(Activation):
    """Rectifier; affine on each half-line, so approximation claims relying on
    nowhere-polynomial activations do not literally cover it.  Runs that use
    it are flagged in experiment reports."""

    name = "relu"

    def __call__(self, x):
        return np.maximum(x, 0.0)


@dataclass(frozen=True)
class Gaussian(Activation):
    name = "gaussian"

    def __call__(self, x):
        return np.exp(-np.square(x))


@dataclass(frozen=True)
class Polynomial(Activation):
    """Polynomial activation sum_k c_k x^k; a deliberate negative control.

    The span it generates saturates at degree-d functions of the pairings,
    so uniform error stalls instead of decaying.
    """

    coefficients: tuple[float, ...] = (0.0, 0.0, 1.0)

    name = "polynomial"
    negative_control = True

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("polynomial activation needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, self.coefficients)

    def to_doc(self):
        return {"name": self.name, "coefficients": list(self.coefficients)}


_ACTIVATIONS = {
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "relu": Relu,
    "gaussian": Gaussian,
    "polynomial": Polynomial,
}


def make_activation(spec) -> Activation:
    """Build an activation from its name, an (name, options) dict, or itself."""
    if isinstance(spec, Activation):
        return spec
    if isinstance(spec, str):
        name, options = spec, {}
    elif isinstance(spec, dict):
        options = dict(spec)
        name = options.pop("name", None)
    else:
        raise DocumentError(f"activation spec must be a name or mapping, got {type(spec).__name__}")
    if name not in _ACTIVATIONS:
        raise DocumentError(f"unknown activation {name!r} in field 'activation'")
    if name == "polynomial" and "coefficients" in options:
        made = Polynomial(tuple(options.pop("coefficients")))
    else:
        made = _ACTIVATIONS[name]()
    if options:
        raise DocumentError(f"activation {name!r} got unexpected options {sorted(options)}")
    return made


#: input rows per block in ShallowVectorNetwork.evaluate_many
EVAL_BLOCK_ROWS = 256


class ShallowVectorNetwork:
    """Finite sum of ridges s |-> eta(l_k(s) - theta_k) v_k sharing one activation.

    Held as three matrices: weight rows L (width, input dim), thresholds
    theta (width,) and coefficient rows V (width, output dim).  Row k of L
    pairs with a flattened input by a dot product, so batch evaluation is two
    matrix products: eta(S L^T - theta) V.  The matrices are read-only copies.
    """

    def __init__(self, weights, thresholds, coefficients, activation: Activation,
                 input_signature: tuple, output_grid: GridMeta | None = None):
        self.weights = _readonly_array(weights, "weights", 2)
        self.thresholds = _readonly_array(thresholds, "thresholds", 1)
        self.coefficients = _readonly_array(coefficients, "coefficients", 2)
        self.activation = activation
        self.input_signature = input_signature
        self.output_grid = output_grid
        self.output_dim = self.coefficients.shape[1]
        width = self.thresholds.shape[0]
        if self.weights.shape[0] != width or self.coefficients.shape[0] != width:
            raise ShapeError(
                f"weights, thresholds and coefficients have {self.weights.shape[0]}, "
                f"{width} and {self.coefficients.shape[0]} rows"
            )
        if self.weights.shape[1] != signature_dim(input_signature):
            raise ShapeError(
                f"weights have {self.weights.shape[1]} columns, input signature "
                f"{input_signature} has dimension {signature_dim(input_signature)}"
            )
        if self.output_dim < 1:
            raise ShapeError("coefficients need at least one column (output dim)")
        if output_grid is not None and self.output_dim != output_grid.n:
            raise ShapeError(
                f"coefficients have {self.output_dim} columns, output grid has "
                f"{output_grid.n} nodes"
            )

    @classmethod
    def zero(cls, activation: Activation, input_signature: tuple, output_dim: int,
             output_grid: GridMeta | None = None) -> ShallowVectorNetwork:
        """The width-0 network, identically zero."""
        return cls(np.zeros((0, signature_dim(input_signature))), np.zeros(0),
                   np.zeros((0, output_dim)), activation, input_signature, output_grid)

    @property
    def width(self) -> int:
        return self.thresholds.shape[0]

    def evaluate_many(self, samples) -> np.ndarray:
        """(n_samples, output_dim) evaluations, two matrix products per block.

        samples is a CompactEnsemble, whose input matrix is used as it is,
        or a list of input points.  Inputs are evaluated in blocks of
        EVAL_BLOCK_ROWS rows, so the (rows, width) activation matrix stays
        bounded however many samples come in.
        """
        flats, signature = stack_inputs(samples)
        if signature != self.input_signature:
            raise ShapeError(
                f"network expects input signature {self.input_signature}, got {signature}"
            )
        out = np.empty((flats.shape[0], self.output_dim))
        for start in range(0, flats.shape[0], EVAL_BLOCK_ROWS):
            block = slice(start, start + EVAL_BLOCK_ROWS)
            pre = flats[block] @ self.weights.T
            pre -= self.thresholds
            out[block] = self.activation(pre) @ self.coefficients
        return out


def _readonly_array(values, field: str, ndim: int) -> np.ndarray:
    a = np.array(values, dtype=np.float64, order="C")
    if a.ndim != ndim:
        raise ShapeError(f"{field} must be {ndim}-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{field} contain non-finite entries")
    a.setflags(write=False)
    return a


def _grid_to_doc(grid: GridMeta | None):
    if grid is None:
        return None
    return {"a": grid.a, "b": grid.b, "n": grid.n}


def _size_from_doc(doc, key, field):
    """doc[key] when it is an integer; a bool, float or string is a
    DocumentError naming field, never truncated to an integer."""
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _endpoint_from_doc(doc, key, field):
    """doc[key] as a float when it is a finite number; a bool, a string, a
    non-finite value or an integer beyond float range is a DocumentError
    naming field."""
    value = doc[key]
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise DocumentError(f"field {field!r} must be a finite number, got {value!r}")


def _grid_from_doc(doc, field):
    if doc is None:
        return None
    try:
        return GridMeta(_endpoint_from_doc(doc, "a", f"{field}.a"),
                        _endpoint_from_doc(doc, "b", f"{field}.b"),
                        _size_from_doc(doc, "n", f"{field}.n"))
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed grid in field {field!r}: {exc}") from exc


def _signature_to_doc(signature: tuple):
    kind = signature[0]
    if kind == "function":
        return {"kind": "function", "grid": _grid_to_doc(signature[1])}
    if kind == "sequence":
        return {"kind": "sequence", "length": signature[1]}
    return {"kind": "matrix", "rows": signature[1][0], "cols": signature[1][1]}


def _signature_from_doc(doc):
    try:
        kind = doc["kind"]
        if kind == "function":
            return ("function", _grid_from_doc(doc["grid"], "input_shape.grid"))
        if kind == "sequence":
            return ("sequence", _size_from_doc(doc, "length", "input_shape.length"))
        if kind == "matrix":
            return ("matrix", tuple(_size_from_doc(doc, key, f"input_shape.{key}")
                                    for key in ("rows", "cols")))
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed field 'input_shape': {exc}") from exc
    raise DocumentError(f"unknown input kind {kind!r} in field 'input_shape'")


def _matrix_to_doc(a: np.ndarray) -> dict:
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.astype("<f8", copy=False).tobytes()).decode("ascii")}


def _matrix_from_doc(doc, field: str) -> np.ndarray:
    try:
        shape = doc["shape"]
        data = base64.b64decode(doc["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise DocumentError(f"malformed field {field!r}: {exc}") from exc
    if not (isinstance(shape, list)
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)):
        raise DocumentError(f"field {field!r} has shape {shape!r}, not a list of sizes")
    if len(data) != 8 * math.prod(shape):
        raise DocumentError(
            f"field {field!r} holds {len(data)} bytes, shape {shape} needs {8 * math.prod(shape)}"
        )
    return np.frombuffer(data, dtype="<f8").reshape(shape)


def serialize_network(net: ShallowVectorNetwork) -> dict:
    """JSON-compatible document capturing the network exactly.

    Each matrix is stored as its shape and the base64 of its little-endian
    float64 bytes, so deserialized networks evaluate bit-identically.
    """
    return {
        "activation": net.activation.to_doc(),
        "input_shape": _signature_to_doc(net.input_signature),
        "output_grid": _grid_to_doc(net.output_grid),
        "output_dim": net.output_dim,
        "weights": _matrix_to_doc(net.weights),
        "thresholds": _matrix_to_doc(net.thresholds),
        "coefficients": _matrix_to_doc(net.coefficients),
    }


def deserialize_network(doc: dict) -> ShallowVectorNetwork:
    """Rebuild a network from its document, diagnosing the offending field."""
    if not isinstance(doc, dict):
        raise DocumentError(f"network document must be a mapping, got {type(doc).__name__}")
    for field in ("activation", "input_shape", "output_dim", "weights", "thresholds",
                  "coefficients"):
        if field not in doc:
            raise DocumentError(f"network document is missing field {field!r}")
    activation = make_activation(doc["activation"])
    signature = _signature_from_doc(doc["input_shape"])
    output_grid = _grid_from_doc(doc.get("output_grid"), "output_grid")
    output_dim = _size_from_doc(doc, "output_dim", "output_dim")
    matrices = [_matrix_from_doc(doc[field], field)
                for field in ("weights", "thresholds", "coefficients")]
    if matrices[2].ndim == 2 and matrices[2].shape[1] != output_dim:
        raise DocumentError(
            f"field 'coefficients' has {matrices[2].shape[1]} columns, "
            f"field 'output_dim' says {output_dim}"
        )
    try:
        return ShallowVectorNetwork(*matrices, activation, signature, output_grid)
    except (ShapeError, ValueError) as exc:
        raise DocumentError(f"inconsistent network document: {exc}") from exc
