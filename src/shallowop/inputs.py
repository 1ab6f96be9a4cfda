"""Discretized input points, continuous linear functionals, and sampled ensembles.

Every input variant flattens to a real vector, and every functional reduces to
a dot product against a fixed weight vector, so pairings over whole ensembles
are single matrix products.  Compact sets are surrogated by parametric
families with bounded parameters, sampled finitely with a seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .targets import GridMeta, _as_readonly_vector


class InputPoint:
    """Base class for discretized input-space points."""

    @property
    def signature(self) -> tuple:
        """Hashable shape descriptor; functionals pair only with matching ones."""
        raise NotImplementedError

    @property
    def flat(self) -> np.ndarray:
        """1-d float view used for dot-product pairings."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class FunctionSample(InputPoint):
    """A function sampled on a uniform grid."""

    values: np.ndarray
    grid: GridMeta

    def __post_init__(self):
        v = _as_readonly_vector(self.values)
        if v.shape[0] != self.grid.n:
            raise ShapeError(f"value count {v.shape[0]} != grid node count {self.grid.n}")
        object.__setattr__(self, "values", v)

    @property
    def signature(self):
        return ("function", self.grid)

    @property
    def flat(self):
        return self.values

    def __add__(self, other):
        if not isinstance(other, FunctionSample) or other.grid != self.grid:
            raise ShapeError("can only add function samples on the same grid")
        return FunctionSample(self.values + other.values, self.grid)

    def __mul__(self, scalar):
        return FunctionSample(self.values * float(scalar), self.grid)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class SequencePoint(InputPoint):
    """A truncated sequence-space point; the tail beyond the stored length is zero."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly_vector(self.values))

    @property
    def signature(self):
        return ("sequence", self.values.shape[0])

    @property
    def flat(self):
        return self.values

    def __add__(self, other):
        if not isinstance(other, SequencePoint) or other.values.shape != self.values.shape:
            raise ShapeError("can only add sequence points of the same truncation length")
        return SequencePoint(self.values + other.values)

    def __mul__(self, scalar):
        return SequencePoint(self.values * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class MatrixPoint(InputPoint):
    """A real matrix input."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 2 or v.size == 0:
            raise ShapeError(f"expected a nonempty 2-d matrix, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("matrix contains non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def signature(self):
        return ("matrix", self.values.shape)

    @property
    def flat(self):
        return self.values.reshape(-1)

    def __add__(self, other):
        if not isinstance(other, MatrixPoint) or other.values.shape != self.values.shape:
            raise ShapeError("can only add matrices of the same shape")
        return MatrixPoint(self.values + other.values)

    def __mul__(self, scalar):
        return MatrixPoint(self.values * float(scalar))

    __rmul__ = __mul__


def _checked_shape(shape) -> tuple[int, int]:
    if shape is None or len(shape) != 2:
        raise ConfigError(f"matrix shape must be a (rows, cols) pair, got {shape!r}")
    r, c = int(shape[0]), int(shape[1])
    if r < 1 or c < 1:
        raise ConfigError(f"matrix shape must be positive, got {shape!r}")
    return (r, c)


def signature_dim(signature: tuple) -> int:
    kind = signature[0]
    if kind == "function":
        return signature[1].n
    if kind == "sequence":
        return signature[1]
    if kind == "matrix":
        r, c = signature[1]
        return r * c
    raise ShapeError(f"unknown input signature kind {kind!r}")


class LinearFunctional:
    """Base class for continuous linear functionals on input points.

    Application is a dot product of `weight_vector` with the input's flat
    view, so batches reduce to one matrix product.
    """

    #: signature this functional pairs with, or None for the zero functional
    signature: tuple | None = None

    def weight_vector(self) -> np.ndarray:
        raise NotImplementedError

    def _require_compatible(self, s: InputPoint):
        if self.signature is not None and s.signature != self.signature:
            raise ShapeError(
                f"functional expects input signature {self.signature}, got {s.signature}"
            )

    def __call__(self, s: InputPoint) -> float:
        self._require_compatible(s)
        return float(np.dot(self.weight_vector(), s.flat))


@dataclass(frozen=True, eq=False)
class QuadraturePairing(LinearFunctional):
    """f |-> sum_i w_i phi_i f_i with composite trapezoid weights."""

    phi: np.ndarray
    grid: GridMeta

    def __post_init__(self):
        v = _as_readonly_vector(self.phi)
        if v.shape[0] != self.grid.n:
            raise ShapeError("phi length does not match its grid")
        object.__setattr__(self, "phi", v)

    @property
    def signature(self):
        return ("function", self.grid)

    def weight_vector(self):
        return self.grid.trapezoid_weights() * self.phi


@dataclass(frozen=True, eq=False)
class SequenceDot(LinearFunctional):
    """s |-> sum_{n <= N} a_n s_n on truncated sequences."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_readonly_vector(self.coeffs))

    @property
    def signature(self):
        return ("sequence", self.coeffs.shape[0])

    def weight_vector(self):
        return self.coeffs


@dataclass(frozen=True, eq=False)
class MatrixTrace(LinearFunctional):
    """Z |-> trace(W^T Z), the Frobenius pairing with a weight matrix."""

    weight: np.ndarray

    def __post_init__(self):
        w = np.array(self.weight, dtype=float, copy=True)
        if w.ndim != 2 or w.size == 0:
            raise ShapeError(f"weight must be a nonempty matrix, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weight matrix contains non-finite entries")
        w.setflags(write=False)
        object.__setattr__(self, "weight", w)

    @property
    def signature(self):
        return ("matrix", self.weight.shape)

    def weight_vector(self):
        return self.weight.reshape(-1)


class ZeroFunctional(LinearFunctional):
    """The zero functional; continuous and linear on every input variant."""

    signature = None

    def weight_vector(self):
        raise ShapeError(
            "zero functional has no intrinsic dimension; a feature bank holds it as a zero row"
        )

    def __call__(self, s: InputPoint) -> float:
        return 0.0

    def __eq__(self, other):
        return isinstance(other, ZeroFunctional)

    def __hash__(self):
        return hash(ZeroFunctional)


def stack_flat(samples) -> np.ndarray:
    """Stack input points into an (n_samples, dim) matrix."""
    samples = list(samples)
    if not samples:
        raise ShapeError("cannot stack an empty sample list")
    sig = samples[0].signature
    for s in samples[1:]:
        if s.signature != sig:
            raise ShapeError("samples have mixed signatures")
    return np.stack([s.flat for s in samples])


@dataclass(frozen=True)
class FunctionalSpec:
    """Recipe for drawing a random functional of a given input variant.

    Function-variant draws build phi as a low-order trigonometric combination
    c_0 + sum_k (a_k sin(k pi x) + b_k cos(k pi x)) in the grid's normalized
    coordinate, with all coefficients N(0, scale^2).
    """

    kind: str
    scale: float = 1.0
    grid: GridMeta | None = None
    order: int = 3
    length: int | None = None
    shape: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in ("function", "sequence", "matrix"):
            raise ConfigError(f"unknown functional kind {self.kind!r}")
        if self.scale < 0:
            raise ConfigError("functional scale must be nonnegative")
        if self.kind == "function":
            if self.grid is None:
                raise ConfigError("function-kind functional spec needs a grid")
            if self.order < 0:
                raise ConfigError("trigonometric order must be nonnegative")
        if self.kind == "sequence" and (self.length is None or self.length < 1):
            raise ConfigError("sequence-kind functional spec needs a positive length")
        if self.kind == "matrix":
            object.__setattr__(self, "shape", _checked_shape(self.shape))

    @property
    def signature(self) -> tuple:
        """Input signature the drawn functionals pair with."""
        if self.kind == "function":
            return ("function", self.grid)
        if self.kind == "sequence":
            return ("sequence", self.length)
        return ("matrix", self.shape)


def draw_functional_params(spec: FunctionalSpec, rng: np.random.Generator,
                           count: int) -> np.ndarray:
    """Parameters of `count` random functionals, one (count, dim) draw from rng.

    Rows are phi on the grid (function kind), sequence coefficients, or
    flattened weight matrices.  Each row consumes the same stretch of the
    stream whatever `count` is, so drawing a rows and then b rows gives
    bitwise the same a + b rows as one call: banks grow by continuing a
    generator instead of redrawing.
    """
    if spec.kind == "function":
        grid = spec.grid
        xhat = (grid.nodes() - grid.a) / (grid.b - grid.a)
        coeffs = rng.standard_normal((count, 1 + 2 * spec.order)) * spec.scale
        phi = np.repeat(coeffs[:, :1], grid.n, axis=1)
        # term by term rather than one matrix product, so a row's bits do not
        # depend on how many rows share the call
        for k in range(1, spec.order + 1):
            phi += coeffs[:, 2 * k - 1, None] * np.sin(k * np.pi * xhat)
            phi += coeffs[:, 2 * k, None] * np.cos(k * np.pi * xhat)
        return phi
    return rng.standard_normal((count, signature_dim(spec.signature))) * spec.scale


def functional_weights(spec: FunctionalSpec, params: np.ndarray) -> np.ndarray:
    """Weight rows of drawn functionals: row k pairs with inputs by a dot product."""
    if spec.kind == "function":
        return params * spec.grid.trapezoid_weights()
    return params


def functional_from_params(spec: FunctionalSpec, params: np.ndarray) -> LinearFunctional:
    """The functional object for one row of `draw_functional_params`."""
    if spec.kind == "function":
        return QuadraturePairing(params, spec.grid)
    if spec.kind == "sequence":
        return SequenceDot(params)
    return MatrixTrace(params.reshape(spec.shape))


def random_functional(spec: FunctionalSpec, seed) -> LinearFunctional:
    """Draw a seeded random functional; a pure function of (spec, seed)."""
    params = draw_functional_params(spec, np.random.default_rng(seed), 1)
    return functional_from_params(spec, params[0])


@dataclass(frozen=True)
class EnsembleSpec:
    """Named parametric compact family plus sample count.

    Families:
      band_limited  -- f = sum_k c_k sin(k pi x) on a grid, |c_k| <= radii[k]
      sequence_box  -- truncated sequences with |s_n| <= radii[n]
      matrix_ball   -- matrices with Frobenius norm <= radius
    """

    family: str
    count: int
    radii: tuple[float, ...] | None = None
    grid: GridMeta | None = None
    shape: tuple[int, int] | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"sample count must be positive, got {self.count}")
        if self.family in ("band_limited", "sequence_box"):
            if not self.radii:
                raise ConfigError(f"{self.family} ensemble needs a nonempty radii tuple")
            if any(r < 0 for r in self.radii):
                raise ConfigError("ensemble radii must be nonnegative")
            object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
            if self.family == "band_limited" and self.grid is None:
                raise ConfigError("band_limited ensemble needs a grid")
        elif self.family == "matrix_ball":
            if self.radius is None:
                raise ConfigError("matrix_ball ensemble needs shape and radius")
            if self.radius < 0:
                raise ConfigError("matrix_ball radius must be nonnegative")
            object.__setattr__(self, "shape", _checked_shape(self.shape))
        else:
            raise ConfigError(f"unknown ensemble family {self.family!r}")

    @property
    def input_signature(self) -> tuple:
        if self.family == "band_limited":
            return ("function", self.grid)
        if self.family == "sequence_box":
            return ("sequence", len(self.radii))
        return ("matrix", tuple(self.shape))


@dataclass(frozen=True, eq=False)
class CompactEnsemble:
    """Finite sample of a parametric compact set, with its generator and seed."""

    samples: tuple[InputPoint, ...]
    spec: EnsembleSpec
    seed: object

    def __post_init__(self):
        samples = tuple(self.samples)
        if not samples:
            raise ValueError("ensemble must be nonempty")
        sig = samples[0].signature
        for s in samples[1:]:
            if s.signature != sig:
                raise ShapeError("ensemble samples have mixed signatures")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]

    def __iter__(self):
        return iter(self.samples)

    @property
    def signature(self):
        return self.samples[0].signature


def sample_ensemble(spec: EnsembleSpec, seed) -> CompactEnsemble:
    """Draw samples uniformly within the ensemble's parameter box/ball.

    Pure in (spec, seed): rerunning reproduces bit-identical samples.  Every
    sample satisfies its family bound exactly.
    """
    rng = np.random.default_rng(seed)
    if spec.family == "band_limited":
        grid = spec.grid
        radii = np.asarray(spec.radii)
        xhat = (grid.nodes() - grid.a) / (grid.b - grid.a)
        modes = np.stack([np.sin((k + 1) * np.pi * xhat) for k in range(len(radii))])
        coeffs = rng.uniform(-1.0, 1.0, (spec.count, len(radii))) * radii
        samples = [FunctionSample(c @ modes, grid) for c in coeffs]
    elif spec.family == "sequence_box":
        radii = np.asarray(spec.radii)
        draws = rng.uniform(-1.0, 1.0, (spec.count, len(radii))) * radii
        samples = [SequencePoint(row) for row in draws]
    else:  # matrix_ball
        r, c = spec.shape
        d = r * c
        dirs = rng.standard_normal((spec.count, d))
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0.0] = 1.0
        radial = spec.radius * rng.uniform(0.0, 1.0, spec.count) ** (1.0 / d)
        flat = dirs / norms[:, None] * radial[:, None]
        samples = [MatrixPoint(row.reshape(r, c)) for row in flat]
    return CompactEnsemble(tuple(samples), spec, seed)
