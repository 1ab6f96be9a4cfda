"""Shallow vector-valued networks: sums of activation ridges times coefficients.

A network evaluates to sum_j eta(l_j(s) - theta_j) v_j with one shared
activation, and holds the factors the construction builds: weight rows
l_j as parameters over a functional basis, and coefficient rows v_j as
scalar coefficients times the rows of a center matrix.  The width may be
zero, in which case the network is identically zero.  Networks are
immutable after construction and evaluation is pure.
"""

from __future__ import annotations

import base64
import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DocumentError, ShapeError, _named
from .inputs import signature_dim, stack_inputs
from .targets import GridMeta, _as_array, _as_floats, _as_int


class Activation:
    """Scalar nonlinearity applied entrywise; finite for all finite inputs.

    Batch evaluation calls it from several threads at once, one block of
    pre-activations per call, so it must not keep state between calls."""

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
        object.__setattr__(self, "coefficients", _as_floats(
            self.coefficients, "coefficients", subject="polynomial coefficients"))

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
    if not isinstance(name, str) or name not in _ACTIVATIONS:
        raise DocumentError(f"unknown activation {name!r} in field 'activation'")
    try:
        return _ACTIVATIONS[name](**options)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"bad options for activation {name!r} in field 'activation': "
                            f"{exc}") from exc


#: bytes of float64 activations per block of input rows in
#: ShallowVectorNetwork.evaluate_many: a block's temporaries stay in cache
EVAL_BLOCK_BYTES = 1 << 18
#: fewest row blocks in a share of ShallowVectorNetwork.evaluate_many that
#: gets a thread of its own: with fewer, starting and joining the thread
#: costs more than it saves, and evaluation runs on the calling thread
EVAL_SHARE_BLOCKS = 16


class ShallowVectorNetwork:
    """Finite sum of ridges s |-> eta(l_k(s) - theta_k) v_k sharing one activation.

    Held in the factored form the construction builds.  The weight rows are
    L = P B: parameters P (width, r) over a basis B (r, input dim), where no
    basis (None) means the identity, so that P is L.  The neurons fall into
    len(widths) consecutive blocks, block j holding widths[j] neurons, and
    neuron k of block j has coefficient row v_k = c_k U_j: a scalar
    coefficient c_k times center row j of U (m, output dim).  Batch
    evaluation projects the inputs once, S B^T, and then sums the scaled
    activations eta((S B^T) P^T - theta) * c over each block before one
    product with U.  A dense network (L, theta, V) is the case with no
    basis, every width 1, c = 1 and U = V.  The arrays are read-only.
    """

    def __init__(self, weights, thresholds, coefficients, centers, widths,
                 activation: Activation, input_signature: tuple,
                 output_grid: GridMeta | None = None, basis=None):
        self.weights = _as_array(weights, "weights", 2, empty=True)
        self.basis = None if basis is None else _as_array(basis, "basis", 2, empty=True)
        self.thresholds = _as_array(thresholds, "thresholds", 1, empty=True)
        self.coefficients = _as_array(coefficients, "coefficients", 1, empty=True)
        self.centers = _as_array(centers, "centers", 2, empty=True)
        self.activation = activation
        self.input_signature = input_signature
        self.output_grid = output_grid
        self.output_dim = self.centers.shape[1]
        width = self.thresholds.shape[0]
        if self.weights.shape[0] != width or self.coefficients.shape[0] != width:
            raise ShapeError(
                f"weights, thresholds and coefficients have {self.weights.shape[0]}, "
                f"{width} and {self.coefficients.shape[0]} rows"
            )
        self.widths = _readonly_widths(widths, width)
        if self.widths.shape[0] != self.centers.shape[0]:
            raise ShapeError(f"widths has {self.widths.shape[0]} blocks, centers have "
                             f"{self.centers.shape[0]} rows")
        dim = signature_dim(input_signature)
        if self.basis is None:
            if self.weights.shape[1] != dim:
                raise ShapeError(f"weights have {self.weights.shape[1]} columns, input "
                                 f"signature {input_signature} has dimension {dim}")
        elif self.weights.shape[1] != self.basis.shape[0]:
            raise ShapeError(f"weights have {self.weights.shape[1]} columns, basis has "
                             f"{self.basis.shape[0]} rows")
        elif self.basis.shape[1] != dim:
            raise ShapeError(f"basis has {self.basis.shape[1]} columns, input signature "
                             f"{input_signature} has dimension {dim}")
        if self.output_dim < 1:
            raise ShapeError("centers need at least one column (output dim)")
        if output_grid is not None and self.output_dim != output_grid.n:
            raise ShapeError(
                f"centers have {self.output_dim} columns, output grid has "
                f"{output_grid.n} nodes"
            )
        # first neuron of each block, as np.add.reduceat takes them
        self._starts = np.cumsum(self.widths) - self.widths
        # P^T (r, width) in row order: a block's pre-activation product reads
        # it contiguously, about twice as fast as against the view weights.T
        self._weights_t = np.ascontiguousarray(self.weights.T)

    @classmethod
    def zero(cls, activation: Activation, input_signature: tuple, output_dim: int,
             output_grid: GridMeta | None = None) -> ShallowVectorNetwork:
        """The width-0 network, identically zero."""
        return cls(np.zeros((0, signature_dim(input_signature))), np.zeros(0), np.zeros(0),
                   np.zeros((0, output_dim)), np.zeros(0, dtype=np.int64), activation,
                   input_signature, output_grid)

    @property
    def width(self) -> int:
        return self.thresholds.shape[0]

    def evaluate_many(self, samples) -> np.ndarray:
        """(n_samples, output_dim) evaluations.

        samples is a CompactEnsemble, whose input matrix is used as it is,
        or a list of input points.  The inputs are projected on the basis
        once.  Then, per block of input rows, the scaled activations are
        summed per neuron block and multiplied by the centers.  A block
        holds as many rows as keep its (rows, width) activations within
        EVAL_BLOCK_BYTES, and at least one.  The blocks are split into
        contiguous shares, one per CPU this process may use, as long as
        each keeps about EVAL_SHARE_BLOCKS blocks.  The calling thread
        evaluates the first share and one started thread each of the
        others, in a copy of the caller's context, so np.errstate holds in
        them too.  Each block is computed alone, so the outputs do not
        depend on the number of threads.  An exception raised in any share
        is raised here once every thread has finished.
        """
        flats, signature = stack_inputs(samples)
        if signature != self.input_signature:
            raise ShapeError(
                f"network expects input signature {self.input_signature}, got {signature}"
            )
        if self.basis is not None:
            flats = flats @ self.basis.T
        out = np.empty((flats.shape[0], self.output_dim))
        rows = max(1, EVAL_BLOCK_BYTES // (8 * max(1, self.width)))
        starts = range(0, flats.shape[0], rows)
        errors = []

        def evaluate(share):
            try:
                for start in share:
                    block = slice(start, start + rows)
                    pre = flats[block] @ self._weights_t
                    pre -= self.thresholds
                    act = self.activation(pre)
                    act *= self.coefficients
                    out[block] = np.add.reduceat(act, self._starts, axis=1) @ self.centers
            except BaseException as exc:  # raised once every thread has ended
                errors.append(exc)

        # shares of per consecutive blocks; the caller evaluates the first
        shares = max(1, min(_cpu_count(), len(starts) // EVAL_SHARE_BLOCKS))
        per = -(-len(starts) // shares)
        started = []
        try:
            for first in range(per, len(starts), per):
                thread = threading.Thread(target=contextvars.copy_context().run,
                                          args=(evaluate, starts[first:first + per]))
                thread.start()
                started.append(thread)
            evaluate(starts[:per])
        finally:
            for thread in started:
                thread.join()
        if errors:
            raise errors[0]
        return out


def _cpu_count() -> int:
    """The number of CPUs this process may run on: its affinity set where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _readonly_widths(values, neurons: int) -> np.ndarray:
    """values as a read-only int64 vector of positive block sizes that sum to
    neurons; a ShapeError or ValueError naming widths otherwise."""
    a = np.array(values)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise ShapeError(f"widths must be a 1-d integer array, got {a.dtype} shape {a.shape}")
    a = a.astype(np.int64)
    # every block is positive, so none exceeds neurons and the sum cannot wrap
    if np.any(a < 1) or np.any(a > neurons) or a.sum() != neurons:
        raise ValueError(f"widths must be positive and sum to the {neurons} neurons, "
                         f"got {a.tolist()}")
    a.setflags(write=False)
    return a


def _grid_to_doc(grid: GridMeta | None):
    if grid is None:
        return None
    return {"a": grid.a, "b": grid.b, "n": grid.n}


def _size_from_doc(doc, key, at=""):
    """doc[key], read at field at, as an integer it is, never truncated; a
    DocumentError naming the field otherwise."""
    return _named(DocumentError, {}, at, _as_int, doc[key], key)


def _grid_from_doc(doc, field):
    if doc is None:
        return None
    try:
        a, b, n = doc["a"], doc["b"], doc["n"]
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"malformed grid in field {field!r}: {exc}") from exc
    return _named(DocumentError, {}, field, GridMeta, a, b, n)


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
            return ("sequence", _size_from_doc(doc, "length", "input_shape"))
        if kind == "matrix":
            return ("matrix", tuple(_size_from_doc(doc, key, "input_shape")
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

    Each array is stored as its shape and the base64 of its little-endian
    float64 bytes, the basis as null when there is none, and the block
    widths as a list of integers, so deserialized networks evaluate
    bit-identically.
    """
    return {
        "activation": net.activation.to_doc(),
        "input_shape": _signature_to_doc(net.input_signature),
        "output_grid": _grid_to_doc(net.output_grid),
        "output_dim": net.output_dim,
        "weights": _matrix_to_doc(net.weights),
        "basis": None if net.basis is None else _matrix_to_doc(net.basis),
        "thresholds": _matrix_to_doc(net.thresholds),
        "coefficients": _matrix_to_doc(net.coefficients),
        "centers": _matrix_to_doc(net.centers),
        "widths": net.widths.tolist(),
    }


def _widths_from_doc(value) -> list:
    """value when it is a list of JSON integers; a DocumentError naming
    'widths' otherwise, so no boolean is read as a block size."""
    if not (isinstance(value, list)
            and all(isinstance(n, int) and not isinstance(n, bool) for n in value)):
        raise DocumentError(f"field 'widths' must be a list of integers, got {value!r}")
    return value


_NETWORK_FIELDS = ("activation", "input_shape", "output_dim", "weights", "basis",
                   "thresholds", "coefficients", "centers", "widths")


def deserialize_network(doc: dict) -> ShallowVectorNetwork:
    """Rebuild a network from its document, diagnosing the offending field."""
    if not isinstance(doc, dict):
        raise DocumentError(f"network document must be a mapping, got {type(doc).__name__}")
    for field in _NETWORK_FIELDS:
        if field not in doc:
            raise DocumentError(f"network document is missing field {field!r}")
    activation = make_activation(doc["activation"])
    signature = _signature_from_doc(doc["input_shape"])
    output_grid = _grid_from_doc(doc.get("output_grid"), "output_grid")
    output_dim = _size_from_doc(doc, "output_dim")
    weights, thresholds, coefficients, centers = (
        _matrix_from_doc(doc[field], field)
        for field in ("weights", "thresholds", "coefficients", "centers"))
    basis = None if doc["basis"] is None else _matrix_from_doc(doc["basis"], "basis")
    widths = _widths_from_doc(doc["widths"])
    if centers.ndim == 2 and centers.shape[1] != output_dim:
        raise DocumentError(
            f"field 'centers' has {centers.shape[1]} columns, "
            f"field 'output_dim' says {output_dim}"
        )
    try:
        return ShallowVectorNetwork(weights, thresholds, coefficients, centers, widths,
                                    activation, signature, output_grid, basis)
    except (ShapeError, ValueError) as exc:
        raise DocumentError(f"inconsistent network document: {exc}") from exc
