"""Discretized input points, random functional weights, and sampled ensembles.

Every input variant flattens to a real vector, and every continuous linear
functional is a weight row paired with it by a dot product, so pairings over
whole ensembles are single matrix products.  An input point carries its
hashable shape `signature` and its 1-d `flat` view; functionals, operators
and networks pair only with inputs of their own signature.  Compact sets
are surrogated by parametric families with bounded parameters, sampled
finitely with a seeded generator into one (n_samples, dim) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ShapeError
from .targets import GridMeta, _as_array, _as_float, _as_floats, _as_int


@dataclass(frozen=True, eq=False)
class FunctionSample:
    """A function sampled on a uniform grid."""

    values: np.ndarray
    grid: GridMeta

    def __post_init__(self):
        v = _as_array(self.values, "values", 1)
        if v.shape[0] != self.grid.n:
            raise ShapeError(f"value count {v.shape[0]} != grid node count {self.grid.n}")
        object.__setattr__(self, "values", v)

    @property
    def signature(self):
        return ("function", self.grid)

    @property
    def flat(self):
        return self.values


@dataclass(frozen=True, eq=False)
class SequencePoint:
    """A truncated sequence-space point; the tail beyond the stored length is zero."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_array(self.values, "values", 1))

    @property
    def signature(self):
        return ("sequence", self.values.shape[0])

    @property
    def flat(self):
        return self.values


@dataclass(frozen=True, eq=False)
class MatrixPoint:
    """A real matrix input."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_array(self.values, "values", 2))

    @property
    def signature(self):
        return ("matrix", self.values.shape)

    @property
    def flat(self):
        return self.values.reshape(-1)


def _checked_shape(shape, arg: str) -> tuple[int, int]:
    """shape as a (rows, cols) pair of positive ints; a ConfigError naming arg
    otherwise."""
    if not isinstance(shape, (list, tuple)) or len(shape) != 2:
        raise ConfigError(f"must be a (rows, cols) pair, got {shape!r}", arg, "matrix shape")
    return tuple(_as_int(d, arg, 1, subject="matrix shape entry") for d in shape)


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


def stack_inputs(samples) -> tuple[np.ndarray, tuple]:
    """The (n_samples, dim) input matrix and the samples' common signature.

    A CompactEnsemble gives its own read-only matrix; a list of input points
    is stacked into a new one.
    """
    if isinstance(samples, CompactEnsemble):
        return samples.flats, samples.signature
    samples = list(samples)
    if not samples:
        raise ShapeError("cannot stack an empty sample list")
    sig = samples[0].signature
    for s in samples[1:]:
        if s.signature != sig:
            raise ShapeError("samples have mixed signatures")
    return np.stack([s.flat for s in samples]), sig


def _point(signature: tuple, row: np.ndarray) -> FunctionSample | SequencePoint | MatrixPoint:
    """The input point of signature whose flattened values are row."""
    kind = signature[0]
    if kind == "function":
        return FunctionSample(row, signature[1])
    if kind == "sequence":
        return SequencePoint(row)
    return MatrixPoint(row.reshape(signature[1]))


@dataclass(frozen=True)
class FunctionalSpec:
    """Recipe for drawing random functionals that pair with inputs of one
    signature.

    Function-variant draws build phi as a low-order trigonometric combination
    c_0 + sum_k (a_k sin(k pi x) + b_k cos(k pi x)) in the grid's normalized
    coordinate, with all coefficients N(0, scale^2).  A draw's parameters are
    those 1 + 2 order coefficients, and its weight row is params @ basis.
    Sequence and matrix draws are their own weight rows.
    """

    signature: tuple
    order: int = 3
    scale: float = 1.0

    def __post_init__(self):
        sig = self.signature
        kind = sig[0] if isinstance(sig, tuple) and len(sig) == 2 else None
        if kind == "function":
            if not isinstance(sig[1], GridMeta):
                raise ConfigError(f"needs a GridMeta, got {sig[1]!r}", "signature",
                                  "function signature")
        elif kind == "sequence":
            sig = (kind, _as_int(sig[1], "signature", 1, subject="sequence length"))
        elif kind == "matrix":
            sig = (kind, _checked_shape(sig[1], "signature"))
        else:
            raise ConfigError(f"is unknown, got {sig!r}", "signature", "input signature")
        object.__setattr__(self, "signature", sig)
        object.__setattr__(self, "order", _as_int(self.order, "order", 0,
                                                  subject="trigonometric order"))
        object.__setattr__(self, "scale", _as_float(self.scale, "scale", above=0,
                                                    subject="functional scale"))

    @cached_property
    def basis(self) -> np.ndarray | None:
        """The read-only (1 + 2 order, n) rows that parameters combine into
        weight rows, built once: the modes 1, sin(pi xhat), cos(pi xhat),
        ..., cos(order pi xhat) on the grid, each times the trapezoid
        weights.  None for sequences and matrices, whose parameters are
        their weight rows."""
        if self.signature[0] != "function":
            return None
        grid = self.signature[1]
        xhat = (grid.nodes() - grid.a) / (grid.b - grid.a)
        modes = np.ones((1 + 2 * self.order, grid.n))
        for k in range(1, self.order + 1):
            modes[2 * k - 1] = np.sin(k * np.pi * xhat)
            modes[2 * k] = np.cos(k * np.pi * xhat)
        basis = modes * grid.trapezoid_weights()
        basis.setflags(write=False)
        return basis


def draw_functional_params(spec: FunctionalSpec, rng: np.random.Generator,
                           count: int) -> np.ndarray:
    """Parameters of `count` random functionals, one draw from rng.

    Rows are the 1 + 2 order trigonometric coefficients (function kind),
    sequence coefficients, or flattened weight matrices.  Each row consumes
    the same stretch of the stream whatever `count` is, so drawing a rows
    and then b rows gives bitwise the same a + b rows as one call: banks
    grow by continuing a generator instead of redrawing.
    """
    if spec.signature[0] == "function":
        return rng.standard_normal((count, 1 + 2 * spec.order)) * spec.scale
    return rng.standard_normal((count, signature_dim(spec.signature))) * spec.scale


def random_functional(spec: FunctionalSpec, seed) -> np.ndarray:
    """The weight row of one seeded random functional; a pure function of (spec, seed).

    It is the drawn parameters over spec.basis (the parameters themselves
    with no basis), and pairs with a flattened input of spec.signature by a
    dot product.
    """
    params = draw_functional_params(spec, np.random.default_rng(seed), 1)[0]
    return params if spec.basis is None else params @ spec.basis


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
        if self.family not in ("band_limited", "sequence_box", "matrix_ball"):
            raise ConfigError(f"is unknown, got {self.family!r}", "family", "ensemble family")
        object.__setattr__(self, "count", _as_int(self.count, "count", 1, subject="sample count"))
        # each family takes its own arguments and refuses the others'
        takes = ("shape", "radius") if self.family == "matrix_ball" else ("radii",)
        for arg in ("radii", "shape", "radius"):
            if (arg in takes) != (getattr(self, arg) is not None):
                raise ConfigError(f"{'is needed by' if arg in takes else 'does not apply to'} "
                                  f"{self.family} ensembles", arg)
        if self.family == "matrix_ball":
            object.__setattr__(self, "shape", _checked_shape(self.shape, "shape"))
            object.__setattr__(self, "radius", _as_float(self.radius, "radius", 0))
            return
        object.__setattr__(self, "radii", _as_floats(self.radii, "radii", 0,
                                                     subject="ensemble radii"))
        if self.family == "band_limited" and not isinstance(self.grid, GridMeta):
            raise ConfigError(f"must be a GridMeta for band_limited ensembles, got {self.grid!r}",
                              "grid")

    @property
    def input_signature(self) -> tuple:
        if self.family == "band_limited":
            return ("function", self.grid)
        if self.family == "sequence_box":
            return ("sequence", len(self.radii))
        return ("matrix", tuple(self.shape))


@dataclass(frozen=True, eq=False)
class CompactEnsemble:
    """Finite sample of a parametric compact set, with its generator and seed.

    Held as one validated, read-only (n_samples, dim) matrix `flats`: row i
    is sample i flattened for spec.input_signature.  Indexing and iteration
    build input points on demand, and a slice is an ensemble over a view of
    the same matrix, not a copy.
    """

    flats: np.ndarray
    spec: EnsembleSpec
    seed: object

    def __post_init__(self):
        sig = self.spec.input_signature
        flats = _as_array(self.flats, "flats", 2, subject="ensemble inputs")
        if flats.shape[1] != signature_dim(sig):
            raise ShapeError(f"ensemble rows have {flats.shape[1]} entries, {sig} needs "
                             f"{signature_dim(sig)}")
        object.__setattr__(self, "flats", flats)

    def __len__(self):
        return self.flats.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CompactEnsemble(self.flats[i], self.spec, self.seed)
        return _point(self.signature, self.flats[i])

    def __iter__(self):
        sig = self.signature
        return (_point(sig, row) for row in self.flats)

    @property
    def signature(self):
        return self.spec.input_signature


#: rows per block of a band-limited draw: a block's temporaries stay in cache
DRAW_BLOCK_ROWS = 256


def sample_ensemble(spec: EnsembleSpec, seed) -> CompactEnsemble:
    """Draw samples uniformly within the ensemble's parameter box/ball.

    Pure in (spec, seed): rerunning reproduces bit-identical samples.  Every
    sample satisfies its family bound exactly.  The (count, dim) matrix is
    drawn in one pass; for band_limited and sequence_box a row's bits do not
    depend on count, so the first k rows of a draw are a draw of k.
    """
    rng = np.random.default_rng(seed)
    if spec.family == "band_limited":
        grid = spec.grid
        radii = np.asarray(spec.radii)
        xhat = (grid.nodes() - grid.a) / (grid.b - grid.a)
        modes = np.stack([np.sin((k + 1) * np.pi * xhat) for k in range(len(radii))])
        coeffs = rng.uniform(-1.0, 1.0, (spec.count, len(radii))) * radii
        # term by term rather than one matrix product, so a row's bits do
        # not depend on count, over blocks of rows that stay in cache
        flats = np.empty((spec.count, grid.n))
        for start in range(0, spec.count, DRAW_BLOCK_ROWS):
            rows = flats[start:start + DRAW_BLOCK_ROWS]
            block = coeffs[start:start + DRAW_BLOCK_ROWS]
            np.multiply(block[:, :1], modes[0], out=rows)
            for k in range(1, len(radii)):
                rows += block[:, k, None] * modes[k]
    elif spec.family == "sequence_box":
        radii = np.asarray(spec.radii)
        flats = rng.uniform(-1.0, 1.0, (spec.count, len(radii))) * radii
    else:  # matrix_ball
        d = spec.shape[0] * spec.shape[1]
        dirs = rng.standard_normal((spec.count, d))
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0.0] = 1.0
        radial = spec.radius * rng.uniform(0.0, 1.0, spec.count) ** (1.0 / d)
        flats = dirs / norms[:, None] * radial[:, None]
    flats.setflags(write=False)
    return CompactEnsemble(flats, spec, seed)
