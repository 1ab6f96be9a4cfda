"""Shallow vector-valued networks: sums of activation ridges times coefficients.

A network holds neurons (functional, threshold, coefficient element) plus one
shared activation, and evaluates to sum_j eta(l_j(s) - theta_j) v_j.  The
neuron list may be empty, in which case the network is identically zero.
Networks are immutable after construction and evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DocumentError, ShapeError
from .inputs import (
    InputPoint,
    LinearFunctional,
    MatrixTrace,
    QuadraturePairing,
    SequenceDot,
    ZeroFunctional,
    functional_matrix,
    stack_flat,
)
from .targets import GridMeta, TargetElement


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


def activation_eval(eta: Activation, x: float) -> float:
    """Scalar activation value."""
    return float(eta(np.float64(x)))


@dataclass(frozen=True, eq=False)
class Neuron:
    """One ridge term: s |-> eta(functional(s) - theta) * coeff."""

    functional: LinearFunctional
    theta: float
    coeff: TargetElement

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        if not math.isfinite(self.theta):
            raise ValueError("neuron threshold must be finite")
        if not isinstance(self.coeff, TargetElement):
            raise TypeError("neuron coefficient must be a TargetElement")


class ShallowVectorNetwork:
    """Finite sum of neurons sharing one activation and one shape contract.

    Construction stacks the neuron data into matrices, so batch evaluation
    is two matrix products: weights = eta(S L^T - theta), outputs = weights V.
    """

    def __init__(self, neurons, activation: Activation, input_signature: tuple,
                 output_dim: int, output_grid: GridMeta | None = None):
        self.neurons = tuple(neurons)
        self.activation = activation
        self.input_signature = input_signature
        self.output_dim = int(output_dim)
        self.output_grid = output_grid
        if self.output_grid is not None and self.output_dim != self.output_grid.n:
            raise ShapeError("output dim does not match output grid node count")
        if self.output_dim < 1:
            raise ShapeError("output dim must be positive")

        m = len(self.neurons)
        self._L = functional_matrix([n.functional for n in self.neurons], input_signature)
        self._theta = np.zeros(m)
        self._V = np.zeros((m, self.output_dim))
        for j, nrn in enumerate(self.neurons):
            if nrn.coeff.dim != self.output_dim or nrn.coeff.grid != self.output_grid:
                raise ShapeError(f"neuron {j} coefficient does not match the output shape")
            self._theta[j] = nrn.theta
            self._V[j] = nrn.coeff.values

    @property
    def width(self) -> int:
        return len(self.neurons)

    def _check_input(self, s: InputPoint):
        if s.signature != self.input_signature:
            raise ShapeError(
                f"network expects input signature {self.input_signature}, got {s.signature}"
            )

    def __call__(self, s: InputPoint) -> TargetElement:
        self._check_input(s)
        if not self.neurons:
            return TargetElement(np.zeros(self.output_dim), self.output_grid)
        w = self.activation(self._L @ s.flat - self._theta)
        return TargetElement(w @ self._V, self.output_grid)

    def evaluate_many(self, samples) -> np.ndarray:
        """(n_samples, output_dim) evaluations, one matrix product per stage."""
        samples = list(samples)
        flats = stack_flat(samples)
        if samples[0].signature != self.input_signature:
            raise ShapeError("batch signature does not match the network input")
        if not self.neurons:
            return np.zeros((flats.shape[0], self.output_dim))
        w = self.activation(flats @ self._L.T - self._theta)
        return w @ self._V


def evaluate_network(net: ShallowVectorNetwork, s: InputPoint) -> TargetElement:
    """Evaluate the network sum at one input point."""
    return net(s)


def network_sum(a: ShallowVectorNetwork, b: ShallowVectorNetwork) -> ShallowVectorNetwork:
    """Concatenate neuron lists; the class is a span, so sums stay inside it."""
    if a.activation != b.activation:
        raise ShapeError("cannot sum networks with different activations")
    if (a.input_signature != b.input_signature or a.output_dim != b.output_dim
            or a.output_grid != b.output_grid):
        raise ShapeError("cannot sum networks with different shapes")
    return ShallowVectorNetwork(
        a.neurons + b.neurons, a.activation, a.input_signature, a.output_dim, a.output_grid
    )


def _grid_to_doc(grid: GridMeta | None):
    if grid is None:
        return None
    return {"a": grid.a, "b": grid.b, "n": grid.n}


def _grid_from_doc(doc, field):
    if doc is None:
        return None
    try:
        return GridMeta(float(doc["a"]), float(doc["b"]), int(doc["n"]))
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
            return ("sequence", int(doc["length"]))
        if kind == "matrix":
            return ("matrix", (int(doc["rows"]), int(doc["cols"])))
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed field 'input_shape': {exc}") from exc
    raise DocumentError(f"unknown input kind {kind!r} in field 'input_shape'")


def _functional_to_doc(l: LinearFunctional):
    if isinstance(l, ZeroFunctional):
        return {"variant": "zero"}
    if isinstance(l, QuadraturePairing):
        return {"variant": "quadrature", "phi": l.phi.tolist(), "grid": _grid_to_doc(l.grid)}
    if isinstance(l, SequenceDot):
        return {"variant": "sequence_dot", "coeffs": l.coeffs.tolist()}
    if isinstance(l, MatrixTrace):
        return {"variant": "matrix_trace", "weight": l.weight.tolist()}
    raise DocumentError(f"cannot serialize functional of type {type(l).__name__}")


def _functional_from_doc(doc, field):
    try:
        variant = doc["variant"]
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"missing functional variant in field {field!r}") from exc
    try:
        if variant == "zero":
            return ZeroFunctional()
        if variant == "quadrature":
            return QuadraturePairing(np.array(doc["phi"], dtype=float),
                                     _grid_from_doc(doc["grid"], field + ".grid"))
        if variant == "sequence_dot":
            return SequenceDot(np.array(doc["coeffs"], dtype=float))
        if variant == "matrix_trace":
            return MatrixTrace(np.array(doc["weight"], dtype=float))
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError, ShapeError) as exc:
        raise DocumentError(f"malformed functional in field {field!r}: {exc}") from exc
    raise DocumentError(f"unknown functional variant {variant!r} in field {field!r}")


def serialize_network(net: ShallowVectorNetwork) -> dict:
    """JSON-compatible document capturing the network exactly.

    Floats survive a json round trip bit-identically (shortest round-trip
    decimal form), so deserialized networks evaluate bit-identically.
    """
    return {
        "activation": net.activation.to_doc(),
        "input_shape": _signature_to_doc(net.input_signature),
        "output_grid": _grid_to_doc(net.output_grid),
        "output_dim": net.output_dim,
        "neurons": [
            {
                "functional": _functional_to_doc(n.functional),
                "theta": n.theta,
                "coeff": n.coeff.values.tolist(),
            }
            for n in net.neurons
        ],
    }


def deserialize_network(doc: dict) -> ShallowVectorNetwork:
    """Rebuild a network from its document, diagnosing the offending field."""
    if not isinstance(doc, dict):
        raise DocumentError(f"network document must be a mapping, got {type(doc).__name__}")
    for field in ("activation", "input_shape", "output_dim", "neurons"):
        if field not in doc:
            raise DocumentError(f"network document is missing field {field!r}")
    activation = make_activation(doc["activation"])
    signature = _signature_from_doc(doc["input_shape"])
    output_grid = _grid_from_doc(doc.get("output_grid"), "output_grid")
    try:
        output_dim = int(doc["output_dim"])
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"malformed field 'output_dim': {exc}") from exc
    neurons = []
    for j, ndoc in enumerate(doc["neurons"]):
        field = f"neurons[{j}]"
        try:
            functional = _functional_from_doc(ndoc["functional"], field + ".functional")
            theta = float(ndoc["theta"])
            coeff = TargetElement(np.array(ndoc["coeff"], dtype=float), output_grid)
        except DocumentError:
            raise
        except (KeyError, TypeError, ValueError, ShapeError) as exc:
            raise DocumentError(f"malformed field {field!r}: {exc}") from exc
        neurons.append(Neuron(functional, theta, coeff))
    try:
        return ShallowVectorNetwork(neurons, activation, signature, output_dim, output_grid)
    except ShapeError as exc:
        raise DocumentError(f"inconsistent network document: {exc}") from exc
