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
from .inputs import _checked_shape, _checked_signature, stack_inputs
from .targets import GridMeta, _as_array, _as_float, _as_int, _checked_output_grid


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


@dataclass(frozen=True, eq=False)
class Operator:
    """An opaque map from input rows to target values, with shape metadata.

    fn is the batched map: it takes the (n, dim) matrix whose rows are n
    flattened inputs of input_signature and returns the (n, output_dim)
    matrix of their images, sampled on output_grid when that is given.  The
    built-in operators return new read-only matrices, which apply_many
    returns without a copy.
    """

    name: str
    fn: object
    input_signature: tuple
    output_dim: int
    output_grid: GridMeta | None = None

    def __post_init__(self):
        object.__setattr__(self, "input_signature",
                           _checked_signature(self.input_signature, "input_signature"))
        object.__setattr__(self, "output_dim", _as_int(self.output_dim, "output_dim", 1,
                                                       sized=True, error=ShapeError))
        _checked_output_grid(self.output_grid, self.output_dim)

    def apply_many(self, samples) -> np.ndarray:
        """Images of an ensemble or an (n, dim) matrix of input rows (see
        stack_inputs), in one batched map.

        Returns the read-only (n, output_dim) value matrix, read by the array
        rule (arg values).  A signature or output shape mismatch raises
        ShapeError, and a value that is not a finite real raises ConfigError.
        fn's matrix is never changed: it is returned as it is only when
        nothing can write it, and as a read-only copy otherwise.
        """
        flats = stack_inputs(samples, self.input_signature)
        out = np.asarray(self.fn(flats))
        if out.shape != (flats.shape[0], self.output_dim):
            raise ShapeError(
                f"operator {self.name} produced values of shape {out.shape}, expected "
                f"{(flats.shape[0], self.output_dim)}"
            )
        return _as_array(out, "values", 2, subject=f"operator {self.name} values")


def _frozen(out: np.ndarray) -> np.ndarray:
    """An operator function's new result, marked read-only so that
    apply_many returns it without a copy."""
    out.setflags(write=False)
    return out


def integral_operator(kernel: Kernel, grid: GridMeta) -> Operator:
    """(Ff)(x_i) = sum_k w_k K(x_i, s_k) f(s_k) with trapezoid weights w_k on
    grid; the matrix w_k K(x_i, s_k) is built once here.  A kernel that is
    not a Kernel, or a grid that is not a GridMeta, is a ConfigError naming
    it."""
    if not isinstance(kernel, Kernel):
        raise ConfigError(f"must be a Kernel, got {kernel!r}", "kernel")
    _, grid = _checked_signature(("function", grid), "grid")
    x = grid.nodes()
    mat = kernel(x[:, None], x[None, :]) * grid.trapezoid_weights()
    return Operator(f"integral_{kernel.name}", lambda F: _frozen(F @ mat.T),
                    ("function", grid), grid.n, grid)


def poisson_operator(grid: GridMeta) -> Operator:
    """The 1-d Dirichlet Poisson solution operator f |-> u on grid; its L D L^T
    factors are computed once here.  A grid that is not a GridMeta is a
    ConfigError naming it, and one of fewer than 3 nodes, which has no
    interior, raises ValueError."""
    _, grid = _checked_signature(("function", grid), "grid")
    d, e = _poisson_factors(grid)
    return Operator("poisson_1d", lambda F: _frozen(_poisson_rows(F, d, e)),
                    ("function", grid), grid.n, grid)


def _same_shape(signature, kind: str) -> tuple[int, GridMeta | None]:
    """(output_dim, output_grid) of a kind operator whose values have the
    shape of its inputs of signature (arg signature): a function's grid, or
    a sequence's length and no grid.  Matrix inputs are a ShapeError."""
    input_kind, size = _checked_signature(signature, "signature")
    if input_kind == "function":
        return size.n, size
    if input_kind == "sequence":
        return size, None
    raise ShapeError("accept function or sequence inputs", "signature", f"{kind} operators")


def superposition_operator(map_id: str, signature: tuple) -> Operator:
    """The pointwise map map_id of each function or sequence input, on the
    inputs' own grid or length."""
    g = _pointwise_map(map_id)
    return Operator(f"superpose_{map_id}", lambda F: _frozen(g(F)), signature,
                    *_same_shape(signature, "superposition"))


def matrix_map_operator(map_id: str, shape: tuple[int, int],
                        out_dim: int | None = None) -> Operator:
    """Each matrix's row sums, one output per row, or sin(trace) times the
    first of out_dim unit vectors (3 unless given); row sums take no out_dim.
    A shape that is not a (rows, cols) pair of sizes is a ConfigError
    naming it."""
    shape = _checked_shape(shape, "shape")
    if map_id == "row_sums":
        if out_dim is not None:
            raise ConfigError(f"does not apply to row_sums, got {out_dim!r}", "out_dim")
        out_dim = shape[0]

        def image(Z):
            return Z.sum(axis=2)
    elif map_id == "sin_of_trace_times_basis":
        out_dim = 3 if out_dim is None else out_dim

        def image(Z):
            out = np.zeros((Z.shape[0], out_dim))
            out[:, 0] = np.sin(np.trace(Z, axis1=1, axis2=2))
            return out
    else:
        raise ConfigError(f"must be 'row_sums' or 'sin_of_trace_times_basis', got {map_id!r}",
                          "map_id", "matrix map")
    return Operator(f"matrix_{map_id}", lambda F: _frozen(image(F.reshape(-1, *shape))),
                    ("matrix", shape), out_dim)


def zero_operator(signature: tuple, output_dim: int,
                  output_grid: GridMeta | None = None) -> Operator:
    """The constant-zero operator; its best approximant is the empty network."""
    return Operator(
        "zero",
        lambda F: _frozen(np.zeros((F.shape[0], output_dim))),
        signature,
        output_dim,
        output_grid,
    )
