"""Ground-truth operators used as approximation targets.

Four families: kernel integral operators (trapezoid quadrature), the 1-d
Poisson solution operator (three-point finite differences), pointwise
superposition maps, and matrix-input maps.  All are wrapped as Operator
objects carrying the shape metadata the fitting pipeline needs; the pipeline
treats them as opaque maps even when they happen to be linear.

Each operator is one batched map from an (n, dim) input matrix to an
(n, d) value matrix, so an ensemble of thousands of samples is one array
pass: one matrix product, one banded solve with n right-hand sides, or one
elementwise map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .errors import ConfigError, ShapeError
from .inputs import stack_inputs
from .targets import GridMeta, TargetBatch


@dataclass(frozen=True, eq=False)
class Kernel:
    """Bivariate kernel K(x, s), vectorized over node arrays."""

    fn: object
    name: str

    def __call__(self, x, s):
        return self.fn(np.asarray(x, dtype=float), np.asarray(s, dtype=float))


def make_kernel(name: str, **params) -> Kernel:
    """Kernels by name: gaussian(width), constant(value)."""
    if name == "gaussian":
        width = float(params.pop("width", 1.0))
        if width <= 0:
            raise ConfigError(f"gaussian kernel width must be positive, got {width}")
        if params:
            raise ConfigError(f"unexpected gaussian kernel parameters {sorted(params)}")
        return Kernel(lambda x, s: np.exp(-((x - s) / width) ** 2), "gaussian")
    if name == "constant":
        value = float(params.pop("value", 1.0))
        if params:
            raise ConfigError(f"unexpected constant kernel parameters {sorted(params)}")
        return Kernel(lambda x, s: np.full(np.broadcast(x, s).shape, value), "constant")
    raise ConfigError(f"unknown kernel {name!r}")


def _poisson_rows(F: np.ndarray, grid: GridMeta) -> np.ndarray:
    """-u'' = f with u = 0 at both endpoints, for every row f of F.

    Standard second-order three-point scheme; the symmetric tridiagonal
    system is solved by banded Cholesky, one solve with n right-hand sides.
    Exact (to roundoff) whenever the true solution is a cubic, since the
    truncation term carries u''''.
    """
    n = grid.n
    if n < 3:
        raise ValueError(f"poisson solve needs at least 3 nodes, got {n}")
    h = grid.spacing
    interior = n - 2
    ab = np.zeros((2, interior))
    ab[0, 1:] = -1.0 / h**2
    ab[1, :] = 2.0 / h**2
    U = np.zeros(F.shape)
    U[:, 1:-1] = solveh_banded(ab, F[:, 1:-1].T).T
    return U


_POINTWISE_MAPS = {
    "sin": np.sin,
    "square": np.square,
    "exp-": lambda v: np.exp(-v),
}


def _pointwise_map(map_id: str):
    try:
        return _POINTWISE_MAPS[map_id]
    except KeyError:
        raise ConfigError(
            f"unknown pointwise map {map_id!r}, expected one of {sorted(_POINTWISE_MAPS)}"
        ) from None


def _matrix_map_rows(map_id: str, Z: np.ndarray, out_dim: int) -> np.ndarray:
    """Row sums, or sin(trace) * e_1, of each matrix of the (n, rows, cols) stack Z."""
    if map_id == "row_sums":
        return Z.sum(axis=2)
    out = np.zeros((Z.shape[0], out_dim))
    out[:, 0] = np.sin(np.trace(Z, axis1=1, axis2=2))
    return out


@dataclass(frozen=True, eq=False)
class Operator:
    """An opaque map from input points to target elements, with shape metadata.

    fn is the batched map: it takes the (n, dim) matrix whose rows are n
    flattened inputs of input_signature and returns a new (n, output_dim)
    matrix of their images.
    """

    name: str
    fn: object
    input_signature: tuple
    output_dim: int
    output_grid: GridMeta | None = None

    def __post_init__(self):
        if self.output_dim < 1:
            raise ShapeError(f"operator output dim must be positive, got {self.output_dim}")
        if self.output_grid is not None and self.output_dim != self.output_grid.n:
            raise ShapeError("operator output dim does not match its output grid")

    def apply_many(self, samples) -> TargetBatch:
        """Images of an ensemble or a list of input points, in one batched map.

        Returns the read-only (n, output_dim) value matrix with the output
        grid, as a TargetBatch.  A signature or output shape mismatch raises
        ShapeError, and a non-finite value raises ValueError.
        """
        flats, signature = stack_inputs(samples)
        if signature != self.input_signature:
            raise ShapeError(
                f"operator {self.name} expects {self.input_signature}, got {signature}"
            )
        out = np.asarray(self.fn(flats), dtype=float)
        if out.shape != (flats.shape[0], self.output_dim):
            raise ShapeError(
                f"operator {self.name} produced values of shape {out.shape}, expected "
                f"{(flats.shape[0], self.output_dim)}"
            )
        out.setflags(write=False)  # so the batch holds fn's new matrix without a copy
        return TargetBatch(out, self.output_grid)


def integral_operator(kernel: Kernel, grid: GridMeta) -> Operator:
    """(Ff)(x_i) = sum_k w_k K(x_i, s_k) f(s_k) with trapezoid weights w_k on
    grid; the matrix w_k K(x_i, s_k) is built once here."""
    x = grid.nodes()
    mat = kernel(x[:, None], x[None, :]) * grid.trapezoid_weights()
    return Operator(f"integral_{kernel.name}", lambda F: F @ mat.T, ("function", grid),
                    grid.n, grid)


def poisson_operator(grid: GridMeta) -> Operator:
    """The 1-d Dirichlet Poisson solution operator f |-> u on grid."""
    return Operator("poisson_1d", lambda F: _poisson_rows(F, grid), ("function", grid),
                    grid.n, grid)


def superposition_operator(map_id: str, signature: tuple) -> Operator:
    g = _pointwise_map(map_id)
    kind = signature[0]
    if kind == "function":
        grid = signature[1]
        return Operator(f"superpose_{map_id}", g, signature, grid.n, grid)
    if kind == "sequence":
        return Operator(f"superpose_{map_id}", g, signature, signature[1])
    raise ShapeError("superposition operators accept function or sequence inputs")


def matrix_map_operator(map_id: str, shape: tuple[int, int], out_dim: int = 3) -> Operator:
    if map_id == "row_sums":
        out_dim = shape[0]
    elif map_id != "sin_of_trace_times_basis":
        raise ConfigError(f"unknown matrix map {map_id!r}")
    return Operator(
        f"matrix_{map_id}",
        lambda F: _matrix_map_rows(map_id, F.reshape(-1, *shape), out_dim),
        ("matrix", tuple(shape)),
        out_dim,
    )


def zero_operator(signature: tuple, output_dim: int,
                  output_grid: GridMeta | None = None) -> Operator:
    """The constant-zero operator; its best approximant is the empty network."""
    return Operator(
        "zero",
        lambda F: np.zeros((F.shape[0], output_dim)),
        signature,
        output_dim,
        output_grid,
    )
