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
import functools
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DocumentError, ShapeError, _named
from .inputs import _checked_signature, signature_dim, stack_inputs
from .targets import GridMeta, _as_array, _as_floats, _as_int, _checked_output_grid, _row_blocks


class Activation:
    """Scalar nonlinearity applied entrywise; finite for all finite inputs.

    Batch evaluation calls it from several threads at once, one block of
    pre-activations per call, so it must not keep state between calls."""

    #: marks an activation that is polynomial on some interval, which results
    #: stated for nowhere-polynomial activations do not cover (activation_flagged)
    flagged = False

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
    nowhere-polynomial activations do not literally cover it."""

    name = "relu"
    flagged = True

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
    flagged = True

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _as_floats(
            self.coefficients, "coefficients", subject="polynomial coefficients"))

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, self.coefficients)

    def to_doc(self):
        return {"name": self.name, "coefficients": list(self.coefficients)}


_ACTIVATIONS = {cls.name: cls for cls in (Tanh, Sigmoid, Relu, Gaussian, Polynomial)}


def make_activation(spec) -> Activation:
    """Build an activation from its name, an (name, options) dict, or itself;
    a ConfigError otherwise, naming any option its class has no field for."""
    if isinstance(spec, Activation):
        return spec
    if isinstance(spec, str):
        name, options = spec, {}
    elif isinstance(spec, dict):
        options = dict(spec)
        name = options.pop("name", None)
    else:
        raise ConfigError(f"activation spec must be a name or mapping, got {type(spec).__name__}")
    if not isinstance(name, str) or name not in _ACTIVATIONS:
        raise ConfigError(f"unknown activation {name!r}")
    cls = _ACTIVATIONS[name]
    for option in options:
        if option not in {field.name for field in fields(cls)}:
            raise ConfigError(f"is not an option of the {name} activation", str(option))
    return cls(**options)


class ShallowVectorNetwork:
    """Finite sum of ridges s |-> eta(l_k(s) - theta_k) v_k sharing one activation.

    Held in the factored form the construction builds.  The weight rows are
    L = P B: parameters P (width, r) over a basis B (r, input dim), where no
    basis (None) means the identity, so that P is L.  The neurons fall into
    len(widths) consecutive blocks, block j holding widths[j] neurons, and
    neuron k of block j has coefficient row v_k = c_k U_j: a scalar
    coefficient c_k times center row j of U (m, output dim), so that the
    network is the (n, m) matrix of per-center sums
    sum_{k in block j} c_k eta(l_k(s) - theta_k) times U.  A dense network
    (L, theta, V) is the case with no basis, every width 1, c = 1 and
    U = V.  The arrays are read-only.
    """

    def __init__(self, weights, thresholds, coefficients, centers, widths,
                 activation: Activation, input_signature: tuple,
                 output_grid: GridMeta | None = None, basis=None):
        self.weights = _as_array(weights, "weights", 2, empty=True)
        self.basis = None if basis is None else _as_array(basis, "basis", 2, empty=True)
        self.thresholds = _as_array(thresholds, "thresholds", 1, empty=True)
        self.coefficients = _as_array(coefficients, "coefficients", 1, empty=True)
        self.centers = _as_array(centers, "centers", 2, empty=True)
        if not isinstance(activation, Activation):
            raise ConfigError(f"must be an Activation, got {activation!r}", "activation")
        self.activation = activation
        self.input_signature = _checked_signature(input_signature, "input_signature")
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
        dim = signature_dim(self.input_signature)
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
        self.output_grid = _checked_output_grid(output_grid, self.output_dim)
        self._panels = _panels(self.weights, self.thresholds, self.coefficients, self.widths)

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

        samples is a CompactEnsemble of the network's input signature,
        whose input matrix is used as it is, or an (n, dim) matrix of input
        rows, a 2-d array or a list of rows (see stack_inputs).  The neurons
        form panels (see _panels), each holding its augmented weights
        A = [P^T; -theta] and coefficients C.  The inputs go in blocks of
        rows: a row block is projected on the basis with a column of ones
        appended, X = [S B^T, 1]; each panel's eta(X A) C fills its columns
        of the block's (rows, m) per-center sums (eta(X A) * c for a panel
        of one-neuron blocks); and the block's outputs are those sums times
        U.  The row blocks are those _row_blocks cuts for the widest of the
        augmented inputs, a panel's activations and the per-center sums, so
        each array of a block stays within targets.BLOCK_BYTES.

        The row blocks are evaluated by _in_shares, in one contiguous share
        per CPU.  Each block is computed alone, so the outputs do not depend
        on the number of threads, and a row in a full block has the same
        bits in any batch; a row in a partial block can move in the last
        bits, since its products round apart (one row is a gemv).
        """
        flats = stack_inputs(samples, self.input_signature)
        n, r, m = flats.shape[0], self.weights.shape[1], self.centers.shape[0]
        out = np.empty((n, self.output_dim))
        widest = max([r + 1, m] + [weights.shape[1] for weights, _, _ in self._panels])
        blocks = _row_blocks(n, widest)

        def evaluate(share):
            for rows in share:
                block = flats[rows]
                inputs = np.empty((block.shape[0], r + 1))
                inputs[:, :r] = block if self.basis is None else block @ self.basis.T
                inputs[:, r] = 1.0
                sums = np.empty((block.shape[0], m))
                for weights, coefficients, centers in self._panels:
                    act = self.activation(inputs @ weights)
                    if coefficients.ndim == 1:  # one-neuron blocks: C is diagonal
                        np.multiply(act, coefficients, out=sums[:, centers])
                    else:
                        sums[:, centers] = act @ coefficients
                out[rows] = sums @ self.centers

        _in_shares(evaluate, blocks)
        return out


def _panels(weights, thresholds, coefficients, widths) -> list:
    """The neurons as panels of consecutive blocks, for evaluate_many.

    A panel is one block of several neurons, or a run of one-neuron blocks
    of any length.  Each is the triple (A, C, centers): the augmented
    weights A = [P^T; -theta] (r + 1, p) of its p neurons, so that [S, 1] A
    is their pre-activations; the coefficients C, so that eta([S, 1] A) C is
    the blocks' sums; and the slice of their center rows.  The augmented
    weights of all neurons are built once, and each panel's A is a view of
    its columns.  C is a view of c too: the block's coefficients as one
    column, or, in a run of one-neuron blocks, where C is diagonal, its
    diagonal c (p,), which scales the activations elementwise.
    """
    # [P, -theta] row by row, so that A, its transpose, is column-major:
    # BLAS rounds the panel products of a row-major A differently
    augmented = np.empty((weights.shape[0], weights.shape[1] + 1))
    augmented[:, :-1] = weights
    np.negative(thresholds, out=augmented[:, -1])
    augmented = augmented.T
    column = coefficients.reshape(-1, 1)
    sizes = widths.tolist()
    bounds = np.concatenate([[0], np.cumsum(widths)]).tolist()
    panels, first = [], 0
    for last in range(1, len(sizes) + 1):
        if last < len(sizes) and sizes[first] == sizes[last] == 1:
            continue  # the run of one-neuron blocks goes on
        neurons = slice(bounds[first], bounds[last])
        C = coefficients[neurons] if sizes[first] == 1 else column[neurons]
        panels.append((augmented[:, neurons], C, slice(first, last)))
        first = last
    return panels


def _in_shares(work, items) -> None:
    """work(share) for contiguous shares of items, one per CPU this process
    may use (_cpu_count) and at most one per item; nothing for no items.
    The calling thread takes the first share, and one started thread each
    of the others, in a copy of the caller's context, so np.errstate holds
    there too.  OpenBLAS is held at one thread (_one_blas_thread) while the
    shares run, so its workers never compete with them for the CPUs.  An
    exception raised in any share is raised here once every thread has
    ended."""
    if not items:
        return
    errors = []

    def run(share):
        try:
            work(share)
        except BaseException as exc:  # raised once every thread has ended
            errors.append(exc)

    shares = min(_cpu_count(), len(items))
    # share i is items[bounds[i]:bounds[i + 1]]; the sizes differ by one at most
    bounds = [-(-i * len(items) // shares) for i in range(shares + 1)]
    started = []
    with _one_blas_thread():
        try:
            for first, last in zip(bounds[1:], bounds[2:]):
                thread = threading.Thread(target=contextvars.copy_context().run,
                                          args=(run, items[first:last]))
                thread.start()
                started.append(thread)
            run(items[:bounds[1]])
        finally:
            for thread in started:
                thread.join()
    if errors:
        raise errors[0]


def _cpu_count() -> int:
    """The number of CPUs this process may run on: its affinity set where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: holds on OpenBLAS's thread count, one per process: those open, the count found
_hold_lock = threading.Lock()
_holds = [0, None]


@functools.cache
def _openblas():
    """(dgels, get_threads, set_threads), bound on the first call in the
    scipy-openblas64 library numpy's wheel ships and loads (numpy.libs on
    Linux and Windows, numpy/.dylibs on macOS); None where there is none."""
    import ctypes

    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*scipy_openblas64*"),
                        *package.glob(".dylibs/*scipy_openblas64*")]):
        try:
            library = ctypes.CDLL(str(path))
            functions = (library.scipy_LAPACKE_dgels_work64_,
                         library.scipy_openblas_get_num_threads64_,
                         library.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        dgels, get_threads, set_threads = functions
        # (layout, trans, m, n, nrhs, A, lda, B, ldb, work, lwork), 64-bit sizes
        index = ctypes.c_int64
        dgels.argtypes = [ctypes.c_int, ctypes.c_char] + [index] * 3 + [ctypes.c_void_p, index] * 3
        dgels.restype = index
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return functions
    return None


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread until every open hold has ended, then
    restore the count the first found; a hold opened under another, also on
    a thread started under it, sets nothing.  A no-op without the library."""
    library = _openblas()
    if library is None:
        yield
        return
    _, get_threads, set_threads = library
    with _hold_lock:
        if not _holds[0]:
            _holds[1] = get_threads()
            set_threads(1)
        _holds[0] += 1
    try:
        yield
    finally:
        with _hold_lock:
            _holds[0] -= 1
            if not _holds[0]:
                set_threads(_holds[1])


def _readonly_widths(values, neurons: int) -> np.ndarray:
    """values as a read-only int64 vector of positive block sizes that sum to
    neurons, a list or tuple read entry by entry by _as_int, or an integer
    array; a ConfigError, ShapeError or ValueError naming widths otherwise."""
    if isinstance(values, (list, tuple)):
        values = [_as_int(v, "widths", 1, sized=True) for v in values]
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
    return None if grid is None else asdict(grid)


def _size_from_doc(doc, key, at=""):
    """doc[key], read at field at, as an integer it is, never truncated; a
    DocumentError naming the field otherwise."""
    return _named(DocumentError, {}, at, _as_int, doc[key], key)


def _grid_from_doc(doc, field):
    """The GridMeta of doc, its fields by name, read at field; None for None."""
    return None if doc is None else _named(DocumentError, {}, field, lambda: GridMeta(**doc))


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


def _matrix_to_doc(a: np.ndarray | None) -> dict | None:
    if a is None:
        return None
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


#: the network's arrays, in the order its document holds them
_ARRAYS = ("weights", "basis", "thresholds", "coefficients", "centers")


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
        **{field: _matrix_to_doc(getattr(net, field)) for field in _ARRAYS},
        "widths": net.widths.tolist(),
    }


_NETWORK_FIELDS = ("activation", "input_shape", "output_dim", *_ARRAYS, "widths")


def deserialize_network(doc: dict) -> ShallowVectorNetwork:
    """Rebuild a network from its document, diagnosing the offending field."""
    if not isinstance(doc, dict):
        raise DocumentError(f"network document must be a mapping, got {type(doc).__name__}")
    for field in _NETWORK_FIELDS:
        if field not in doc:
            raise DocumentError(f"network document is missing field {field!r}")
    activation = _named(DocumentError, {}, "activation", make_activation, doc["activation"])
    signature = _signature_from_doc(doc["input_shape"])
    output_grid = _grid_from_doc(doc.get("output_grid"), "output_grid")
    output_dim = _size_from_doc(doc, "output_dim")
    arrays = {field: None if field == "basis" and doc[field] is None
              else _matrix_from_doc(doc[field], field) for field in _ARRAYS}
    centers = arrays["centers"]
    if centers.ndim == 2 and centers.shape[1] != output_dim:
        raise DocumentError(
            f"field 'centers' has {centers.shape[1]} columns, "
            f"field 'output_dim' says {output_dim}"
        )
    try:
        return ShallowVectorNetwork(**arrays, widths=doc["widths"], activation=activation,
                                    input_signature=signature, output_grid=output_grid)
    except (ShapeError, ValueError) as exc:
        raise DocumentError(f"inconsistent network document: {exc}") from exc
