"""Discretized inputs, random functional weights, and sampled ensembles.

Every input variant flattens to a real vector, an input row, and every
continuous linear functional is a weight row paired with it by a dot
product, so pairings over whole ensembles are single matrix products.  The
hashable shape `signature` of the inputs belongs to their ensemble or their
consumer: functionals, operators and networks pair only with inputs of their
own signature.  Compact sets are surrogated by parametric families with
bounded parameters, sampled finitely with a seeded generator into one
(n_samples, dim) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ShapeError
from .seeding import derive_seed
from .targets import GridMeta, _as_array, _as_float, _as_floats, _as_int, _row_blocks


def _checked_shape(shape, arg: str) -> tuple[int, int]:
    """shape as a (rows, cols) pair of positive ints whose product numpy can
    size an array by; a ConfigError naming arg otherwise."""
    if not isinstance(shape, (list, tuple)) or len(shape) != 2:
        raise ConfigError(f"must be a (rows, cols) pair, got {shape!r}", arg, "matrix shape")
    rows, cols = (_as_int(d, arg, 1, subject="matrix shape entry") for d in shape)
    most = np.iinfo(np.intp).max // 8
    if rows * cols > most:
        raise ConfigError(f"must be at most {most}, the most float64 entries of one array, "
                          f"got {rows} x {cols}", arg, "matrix entry count rows x cols")
    return rows, cols


def _checked_signature(signature, arg: str) -> tuple:
    """signature as an input signature: ("function", grid) with a GridMeta,
    ("sequence", length) with an integer length of at least 1, or
    ("matrix", (rows, cols)) with positive integer sizes, held as a tuple;
    a ConfigError naming arg otherwise."""
    kind = signature[0] if isinstance(signature, tuple) and len(signature) == 2 else None
    if kind == "function":
        if not isinstance(signature[1], GridMeta):
            raise ConfigError(f"needs a GridMeta, got {signature[1]!r}", arg,
                              "function signature")
        return signature
    if kind == "sequence":
        return (kind, _as_int(signature[1], arg, 1, subject="sequence length"))
    if kind == "matrix":
        return (kind, _checked_shape(signature[1], arg))
    raise ConfigError(f"is unknown, got {signature!r}", arg, "input signature")


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


def stack_inputs(samples, signature: tuple) -> np.ndarray:
    """The (n_samples, dim) input matrix of samples, for a consumer of inputs
    of signature.

    A CompactEnsemble gives its own read-only matrix, and its signature must
    be signature.  Anything else is an (n, dim) matrix, a 2-d array or a
    list of rows, read once by the array rule (_as_array).  Its rows carry
    no grid, so only their length is checked against
    signature_dim(signature).
    """
    if isinstance(samples, CompactEnsemble):
        if samples.signature != signature:
            raise ShapeError(f"inputs of signature {signature} needed, got an ensemble of "
                             f"{samples.signature}")
        return samples.flats
    flats = _as_array(samples, "samples", 2, subject="inputs")
    if flats.shape[1] != signature_dim(signature):
        raise ShapeError(f"have rows of {flats.shape[1]} entries, {signature} needs "
                         f"{signature_dim(signature)}", "samples", "inputs")
    return flats


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
        object.__setattr__(self, "signature", _checked_signature(self.signature, "signature"))
        object.__setattr__(self, "order", _as_int(self.order, "order", 0,
                                                  subject="trigonometric order"))
        most = (np.iinfo(np.intp).max // 8 - 1) // 2
        if self.order > most:
            raise ConfigError(f"must be at most {most}, whose 1 + 2 order basis rows fill one "
                              f"float64 array, got {self.order}", "order", "trigonometric order")
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
    dot product.  seed is a root seed as derive_seed reads it.
    """
    params = draw_functional_params(spec, np.random.default_rng(derive_seed(seed)), 1)[0]
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
        object.__setattr__(self, "count", _as_int(self.count, "count", 1, sized=True,
                                                  subject="sample count"))
        # each family takes its own arguments and refuses the others'
        takes = {"band_limited": ("radii", "grid"), "sequence_box": ("radii",),
                 "matrix_ball": ("shape", "radius")}[self.family]
        for arg in ("radii", "grid", "shape", "radius"):
            if (arg in takes) != (getattr(self, arg) is not None):
                raise ConfigError(f"{'is needed by' if arg in takes else 'does not apply to'} "
                                  f"{self.family} ensembles", arg)
        if self.family == "matrix_ball":
            object.__setattr__(self, "shape", _checked_shape(self.shape, "shape"))
            object.__setattr__(self, "radius", _as_float(self.radius, "radius", 0))
        else:
            object.__setattr__(self, "radii", _as_floats(self.radii, "radii", 0,
                                                         subject="ensemble radii"))
            if self.family == "band_limited" and not isinstance(self.grid, GridMeta):
                raise ConfigError(f"must be a GridMeta, got {self.grid!r}", "grid")
        # a draw's widest array is (count, row): its inputs or band-limited coefficients
        row = max(signature_dim(self.input_signature), len(self.radii or ()))
        most = np.iinfo(np.intp).max // 8 // row
        if self.count > most:
            raise ConfigError(f"must be at most {most}, the most draws of {row} entries one "
                              f"float64 array holds, got {self.count}", "count", "sample count")

    @property
    def input_signature(self) -> tuple:
        if self.family == "band_limited":
            return ("function", self.grid)
        if self.family == "sequence_box":
            return ("sequence", len(self.radii))
        return ("matrix", tuple(self.shape))


@dataclass(frozen=True, eq=False)
class CompactEnsemble:
    """Finite sample of a parametric compact set.

    Held as one validated, read-only (n_samples, dim) matrix `flats`: row i
    is sample i flattened for the input signature, checked by the rule
    _checked_signature applies (arg signature).  Indexing and iteration give
    the rows, read-only views of flats, and a slice is an ensemble of the
    same signature over a view of the same matrix, not a copy.
    """

    flats: np.ndarray
    signature: tuple

    def __post_init__(self):
        sig = _checked_signature(self.signature, "signature")
        flats = _as_array(self.flats, "flats", 2, subject="ensemble inputs")
        if flats.shape[1] != signature_dim(sig):
            raise ShapeError(f"ensemble rows have {flats.shape[1]} entries, {sig} needs "
                             f"{signature_dim(sig)}")
        object.__setattr__(self, "flats", flats)
        object.__setattr__(self, "signature", sig)

    def __len__(self):
        return self.flats.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CompactEnsemble(self.flats[i], self.signature)
        return self.flats[i]

    def __iter__(self):
        return iter(self.flats)


def sample_ensemble(spec: EnsembleSpec, seed) -> CompactEnsemble:
    """Draw samples uniformly within the ensemble's parameter box/ball.

    Pure in (spec, seed), seed a root seed as derive_seed reads it:
    rerunning reproduces bit-identical samples.  Every
    sample satisfies its family bound exactly.  The (count, dim) matrix is
    drawn in one pass; for band_limited and sequence_box a row's bits do not
    depend on count, so the first k rows of a draw are a draw of k.
    """
    rng = np.random.default_rng(derive_seed(seed))
    if spec.family == "band_limited":
        grid = spec.grid
        radii = np.asarray(spec.radii)
        xhat = (grid.nodes() - grid.a) / (grid.b - grid.a)
        modes = np.stack([np.sin((k + 1) * np.pi * xhat) for k in range(len(radii))])
        coeffs = rng.uniform(-1.0, 1.0, (spec.count, len(radii))) * radii
        # term by term rather than one matrix product, so a row's bits do
        # not depend on count, over row blocks that stay in cache
        flats = np.empty((spec.count, grid.n))
        for rows in _row_blocks(*flats.shape):
            part, block = flats[rows], coeffs[rows]
            np.multiply(block[:, :1], modes[0], out=part)
            for k in range(1, len(radii)):
                part += block[:, k, None] * modes[k]
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
    return CompactEnsemble(flats, spec.input_signature)
