"""Ground-truth operators used as approximation targets.

Four families: kernel integral operators (trapezoid quadrature), the 1-d
Poisson solution operator (three-point finite differences), pointwise
superposition maps, and matrix-input maps.  All are wrapped as Operator
objects carrying the shape metadata the fitting pipeline needs; the pipeline
treats them as opaque maps even when they happen to be linear.

Each operator is one batched map from an (n, dim) input matrix to an
(n, d) value matrix, so an ensemble of thousands of samples is one array
pass: one matrix product, one pair of L D L^T sweeps over n right-hand
sides, or one elementwise map.

The Poisson matrix is factored once per operator in LAPACK's ?pttrf order,
and each call runs ?pttrs's forward and backward sweeps in numpy.  That is
the arithmetic LAPACK's ?ptsv does for scipy.linalg.solveh_banded on this
matrix, operation for operation and without fused multiply-adds, so the
values are bitwise those of that solve with numpy as the only dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .inputs import stack_inputs
from .targets import GridMeta, TargetBatch, _as_float, _as_int


@dataclass(frozen=True, eq=False)
class Kernel:
    """Bivariate kernel K(x, s), vectorized over node arrays."""

    fn: object
    name: str

    def __call__(self, x, s):
        return self.fn(np.asarray(x, dtype=float), np.asarray(s, dtype=float))


#: each kernel's one parameter, its default, and the bound it must exceed
_KERNEL_PARAMS = {"gaussian": ("width", 1.0, 0), "constant": ("value", 1.0, None)}


def make_kernel(name: str, **params) -> Kernel:
    """Kernels by name: gaussian(width), constant(value)."""
    if not isinstance(name, str) or name not in _KERNEL_PARAMS:
        raise ConfigError(f"must be one of {tuple(_KERNEL_PARAMS)}, got {name!r}", "name",
                          "kernel name")
    param, default, above = _KERNEL_PARAMS[name]
    for key in params:
        if key != param:
            raise ConfigError(f"is not a parameter of the {name} kernel", key)
    value = _as_float(params.get(param, default), param, subject=f"{name} kernel {param}",
                      above=above)
    if name == "constant":
        return Kernel(lambda x, s: np.full(np.broadcast(x, s).shape, value), "constant")
    return Kernel(lambda x, s: np.exp(-((x - s) / value) ** 2), "gaussian")


def _poisson_factors(grid: GridMeta) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal d and unit-lower subdiagonal e of L D L^T = A, factored in
    ?pttrf order, where A is the three-point -d^2/dx^2 on grid's n - 2
    interior nodes (2/h^2 on the diagonal, -1/h^2 beside it).
    """
    n = grid.n
    if n < 3:
        raise ValueError(f"poisson solve needs at least 3 nodes, got {n}")
    h = grid.spacing
    d = np.full(n - 2, 2.0 / h**2)
    e = np.full(n - 3, -1.0 / h**2)
    for i in range(n - 3):
        ei = e[i]
        e[i] = ei / d[i]
        d[i + 1] = d[i + 1] - e[i] * ei
    return d, e


def _poisson_rows(F: np.ndarray, d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """-u'' = f with u = 0 at both endpoints, for every row f of F.

    Standard second-order three-point scheme, solved with the factors of
    _poisson_factors by ?pttrs's two sweeps: L y = f forward, then
    D L^T u = y backward.  They run over a transposed (nodes, rows) copy, so
    each step is one contiguous row operation on all right-hand sides; every
    element still sees LAPACK's operations in LAPACK's order, which is why
    the bits equal solveh_banded's.  Exact (to roundoff) whenever the true
    solution is a cubic, since the truncation term carries u''''.
    """
    B = F[:, 1:-1].T.copy()
    for i in range(1, len(d)):
        B[i] -= B[i - 1] * e[i - 1]
    B[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        B[i] = B[i] / d[i] - B[i + 1] * e[i]
    U = np.zeros(F.shape)
    U[:, 1:-1] = B.T
    return U


_POINTWISE_MAPS = {
    "sin": np.sin,
    "square": np.square,
    "exp-": lambda v: np.exp(-v),
}


def _pointwise_map(map_id: str):
    if not isinstance(map_id, str) or map_id not in _POINTWISE_MAPS:
        raise ConfigError(f"must be one of {sorted(_POINTWISE_MAPS)}, got {map_id!r}",
                          "map_id", "pointwise map")
    return _POINTWISE_MAPS[map_id]


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
        object.__setattr__(self, "output_dim", _as_int(self.output_dim, "output_dim"))
        if self.output_dim < 1:
            raise ShapeError(f"must be positive, got {self.output_dim}", "output_dim")
        if self.output_grid is not None and self.output_dim != self.output_grid.n:
            raise ShapeError("operator output dim does not match its output grid")

    def apply_many(self, samples) -> TargetBatch:
        """Images of an ensemble or a list of input points, in one batched map.

        Returns the read-only (n, output_dim) value matrix with the output
        grid, as a TargetBatch.  A signature or output shape mismatch raises
        ShapeError, and a value that is not a finite real raises ConfigError.
        """
        flats, signature = stack_inputs(samples)
        if signature != self.input_signature:
            raise ShapeError(
                f"operator {self.name} expects {self.input_signature}, got {signature}"
            )
        out = np.asarray(self.fn(flats))
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
    """The 1-d Dirichlet Poisson solution operator f |-> u on grid; its L D L^T
    factors are computed once here.  A grid of fewer than 3 nodes, which has
    no interior, raises ValueError."""
    d, e = _poisson_factors(grid)
    return Operator("poisson_1d", lambda F: _poisson_rows(F, d, e), ("function", grid),
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


def matrix_map_operator(map_id: str, shape: tuple[int, int],
                        out_dim: int | None = None) -> Operator:
    """Each matrix's row sums, one output per row, or sin(trace) times the
    first of out_dim unit vectors (3 unless given); row sums take no out_dim."""
    if map_id == "row_sums":
        if out_dim is not None:
            raise ConfigError(f"does not apply to row_sums, got {out_dim!r}", "out_dim")
        out_dim = shape[0]
    elif map_id == "sin_of_trace_times_basis":
        out_dim = 3 if out_dim is None else out_dim
    else:
        raise ConfigError(f"must be 'row_sums' or 'sin_of_trace_times_basis', got {map_id!r}",
                          "map_id", "matrix map")
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
