"""Discretized target-space elements and the seminorms that topologize them.

A target element is a finite real vector: samples of a function on a uniform
grid, truncated sequence coefficients, or a flattened matrix.  A TargetBatch
holds n elements sharing one grid as one (n, dim) matrix.  Seminorms come
in four evaluable flavors (weighted Lq, sup of a finite-difference derivative,
polynomially weighted sup on a truncated grid, and pairing against a fixed
test vector); each is nonnegative, absolutely homogeneous, and subadditive on
compatible elements.

Every seminorm is evaluated row-wise: ``rho.batch(values, grid)`` maps an
(n, dim) matrix of element values sharing one grid to the n seminorm values,
so a sup over thousands of samples is one array pass.  ``rho(t)`` on a single
element is the one-row batch.  A custom seminorm subclasses ``Seminorm`` and
implements ``batch`` and ``label``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class GridMeta:
    """Uniform grid on [a, b] with n nodes, endpoints included."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "a", _as_float(self.a, "a"))
        object.__setattr__(self, "b", _as_float(self.b, "b", above=self.a))
        if not math.isfinite(self.b - self.a):
            raise ConfigError(f"is {self.b}, too far from a={self.a} for a finite spacing", "b")
        object.__setattr__(self, "n", _as_int(self.n, "n", 2, subject="grid node count n"))

    @property
    def spacing(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)

    def trapezoid_weights(self) -> np.ndarray:
        """Composite trapezoid weights; they sum to b - a."""
        w = np.full(self.n, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def _as_int(value, arg: str, least=None, *, subject: str | None = None) -> int:
    """value as an int if it is a Python or numpy integer, not a boolean, and
    at least least when that is given; nothing is truncated, and anything
    else is a ConfigError naming the argument arg."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"must be an integer, got {value!r}", arg, subject)
    if least is not None and value < least:
        raise ConfigError(f"must be at least {least}, got {value}", arg, subject)
    return int(value)


def _as_float(value, arg: str, least=None, *, above=None, subject: str | None = None) -> float:
    """value as a float if it is a finite Python or numpy real number, not a
    boolean, at least least and greater than above where those are given;
    anything else, an integer beyond float range too, is a ConfigError
    naming the argument arg."""
    try:
        finite = (isinstance(value, (int, float, np.integer, np.floating))
                  and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an integer beyond float range
        finite = False
    if not finite:
        raise ConfigError(f"must be a finite number, got {value!r}", arg, subject)
    if least is not None and value < least:
        raise ConfigError(f"must be at least {least}, got {value}", arg, subject)
    if above is not None and not value > above:
        raise ConfigError(f"must be greater than {above}, got {value}", arg, subject)
    return float(value)


def _as_floats(values, arg: str, least=None, *, subject: str | None = None) -> tuple:
    """values, a nonempty list, tuple or array, as a tuple of floats that
    _as_float takes; anything else is a ConfigError naming the argument arg."""
    if not isinstance(values, (list, tuple, np.ndarray)) or not len(values):
        raise ConfigError(f"must be a nonempty sequence, got {values!r}", arg, subject)
    return tuple(_as_float(v, arg, least, subject=subject) for v in values)


def _as_array(values, arg: str, ndim: int, *, empty=False, subject: str | None = None):
    """values as a read-only float64 array of ndim dimensions, no axis empty
    unless empty is set.

    A list or tuple is read entry by entry, as _as_float reads a number, and
    an array must hold integers or reals: no strings, booleans, complex
    numbers or objects.  A refused entry is a ConfigError naming the
    argument arg, a wrong shape a ShapeError.  An array is held as it is when
    it is float64, C-contiguous and nothing it views can be written, such as
    a row slice of a batch; anything else becomes a read-only copy.
    """
    if isinstance(values, (list, tuple)):
        entries = np.array(values, dtype=object)
        a = np.array([_as_float(x, arg, subject=subject) for x in entries.flat])
        a.setflags(write=False)  # a new array, held below without a second copy
        a = a.reshape(entries.shape)
    else:
        a = np.asarray(values)
        if a.dtype.kind not in "iuf":
            raise ConfigError(f"must hold real numbers, got {a.dtype} entries", arg, subject)
    if a.ndim != ndim or (not empty and 0 in a.shape):
        raise ShapeError(f"must be a {'' if empty else 'nonempty '}{ndim}-d array, "
                         f"got shape {a.shape}", arg, subject)
    if not np.all(np.isfinite(a)):
        raise ConfigError("contain non-finite entries", arg, subject)
    if not (a.dtype == np.float64 and a.flags.c_contiguous and _unwritable(a)):
        a = np.array(a, dtype=np.float64, order="C")
        a.setflags(write=False)
    return a


def _unwritable(a) -> bool:
    """Whether neither a nor any array it views can be written, where the
    only buffer that counts as unwritable is bytes."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None or isinstance(a, bytes)


@dataclass(frozen=True, eq=False)
class TargetElement:
    """A point of the discretized target space: values plus optional grid.

    Elements with a grid are samples of a function on that grid; elements
    without one are plain coefficient vectors (sequence/matrix targets).
    """

    values: np.ndarray
    grid: GridMeta | None = None

    def __post_init__(self):
        v = _as_array(self.values, "values", 1)
        if self.grid is not None and v.shape[0] != self.grid.n:
            raise ShapeError(
                f"value count {v.shape[0]} does not match grid node count {self.grid.n}"
            )
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class TargetBatch:
    """n target elements sharing one grid, held as one read-only (n, dim) matrix.

    Indexing with an integer gives that row as a TargetElement; slicing gives
    a TargetBatch over a view of the same matrix.
    """

    values: np.ndarray
    grid: GridMeta | None = None

    def __post_init__(self):
        v = _as_array(self.values, "values", 2, subject="batch values")
        if self.grid is not None and v.shape[1] != self.grid.n:
            raise ShapeError(
                f"batch rows have {v.shape[1]} values, grid has {self.grid.n} nodes"
            )
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __len__(self):
        return self.values.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TargetBatch(self.values[i], self.grid)
        return TargetElement(self.values[i], self.grid)

    def __iter__(self):
        return (TargetElement(row, self.grid) for row in self.values)


def _difference_at_nodes(values: np.ndarray, grid: GridMeta | None, order: int) -> np.ndarray:
    """Order-th finite difference of each row of values at every grid node.

    Uses the binomial-coefficient difference over a window of order+1
    consecutive nodes, centered on the node where possible and shifted
    one-sided near the boundaries.  Exact for polynomials of degree <= order,
    so the difference of x**order is the constant order! at every node.
    """
    if order == 0:
        return values
    if grid is None:
        raise ShapeError("derivative seminorms need grid metadata")
    n = values.shape[1]
    if n < order + 1:
        raise ValueError(
            f"derivative order {order} needs at least {order + 1} nodes, grid has {n}"
        )
    d = np.diff(values, n=order, axis=1) / grid.spacing**order
    window_start = np.clip(np.arange(n) - order // 2, 0, n - 1 - order)
    return d[:, window_start]


def _require_rows(values: np.ndarray, grid: GridMeta | None):
    if values.ndim != 2:
        raise ShapeError(f"batch values must be a 2-d (rows, dim) array, got shape {values.shape}")
    if grid is not None and values.shape[1] != grid.n:
        raise ShapeError(
            f"batch rows have {values.shape[1]} values, grid has {grid.n} nodes"
        )


class Seminorm:
    """Base class for evaluable continuous seminorms on target elements.

    batch(values, grid) is the one implementation: it takes an (n, dim)
    matrix whose rows are element values sharing the grid metadata and
    returns the n seminorm values.  Calling a seminorm on one element
    evaluates it as a one-row batch, so a custom seminorm implements batch
    (and label) only.  The shipped seminorms restate that __call__ in their
    own class bodies because benchmarks/tracer.py counts scalar calls by
    wrapping only attributes a class defines itself.
    """

    def __call__(self, t: TargetElement) -> float:
        return float(self.batch(t.values[None, :], t.grid)[0])

    def batch(self, values: np.ndarray, grid: GridMeta | None = None) -> np.ndarray:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError


def _number_label(x: float) -> str:
    """x as :g writes it when that reads back as x, else its round-trip repr,
    so seminorms that differ in a parameter never share a label."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


@dataclass(frozen=True)
class LqNorm(Seminorm):
    """Discrete Lq norm: trapezoid-weighted on grid elements, plain lq else."""

    q: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "q", _as_float(self.q, "q", 1, subject="Lq norm q"))

    def __call__(self, t: TargetElement) -> float:
        return float(self.batch(t.values[None, :], t.grid)[0])

    def batch(self, values: np.ndarray, grid: GridMeta | None = None) -> np.ndarray:
        _require_rows(values, grid)
        # in place: the batch may be thousands of rows
        a = np.abs(values)
        a **= self.q
        if grid is not None:
            a *= grid.trapezoid_weights()
        return np.sum(a, axis=1) ** (1.0 / self.q)

    def label(self) -> str:
        return f"lq(q={_number_label(self.q)})"


@dataclass(frozen=True)
class SupDerivative(Seminorm):
    """Sup over nodes of the |order|-th finite-difference derivative."""

    order: int = 0

    def __post_init__(self):
        object.__setattr__(self, "order", _as_int(self.order, "order", 0,
                                                  subject="derivative order"))

    def __call__(self, t: TargetElement) -> float:
        return float(self.batch(t.values[None, :], t.grid)[0])

    def batch(self, values: np.ndarray, grid: GridMeta | None = None) -> np.ndarray:
        _require_rows(values, grid)
        return np.max(np.abs(_difference_at_nodes(values, grid, self.order)), axis=1)

    def label(self) -> str:
        return f"sup_d{self.order}"


@dataclass(frozen=True)
class SchwartzWeighted(Seminorm):
    """Sup of |x**alpha * d^beta t| over the grid truncated to |x| <= radius.

    The sup over an unbounded domain is not computable from samples; the
    truncation radius is an explicit approximation parameter.
    """

    alpha: int = 0
    beta: int = 0
    radius: float = 8.0

    def __post_init__(self):
        for index in ("alpha", "beta"):
            object.__setattr__(self, index, _as_int(getattr(self, index), index, 0))
        object.__setattr__(self, "radius", _as_float(self.radius, "radius", above=0,
                                                     subject="truncation radius"))

    def __call__(self, t: TargetElement) -> float:
        return float(self.batch(t.values[None, :], t.grid)[0])

    def batch(self, values: np.ndarray, grid: GridMeta | None = None) -> np.ndarray:
        if grid is None:
            raise ShapeError("Schwartz seminorm needs grid metadata")
        _require_rows(values, grid)
        x = grid.nodes()
        mask = np.abs(x) <= self.radius
        if not np.any(mask):
            return np.zeros(values.shape[0])
        d = _difference_at_nodes(values, grid, self.beta)
        return np.max(np.abs(x[mask] ** self.alpha * d[:, mask]), axis=1)

    def label(self) -> str:
        return f"schwartz(a{self.alpha},b{self.beta},r={_number_label(self.radius)})"


@dataclass(frozen=True, eq=False)
class DualPairing(Seminorm):
    """Absolute pairing |<t', t>| against a fixed test vector t'.

    On grid elements the pairing is trapezoid-weighted; on plain coefficient
    vectors it is the ordinary dot product.
    """

    test: np.ndarray
    grid: GridMeta | None = None
    name: str = "dual"

    def __post_init__(self):
        v = _as_array(self.test, "test", 1, subject="test vector entries")
        if self.grid is not None and v.shape[0] != self.grid.n:
            raise ShapeError("test vector length does not match its grid")
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(f"must be a nonempty string, got {self.name!r}", "name")
        object.__setattr__(self, "test", v)

    def __call__(self, t: TargetElement) -> float:
        return float(self.batch(t.values[None, :], t.grid)[0])

    def batch(self, values: np.ndarray, grid: GridMeta | None = None) -> np.ndarray:
        _require_rows(values, grid)
        if grid != self.grid or values.shape[1] != self.test.shape[0]:
            raise ShapeError("element is incompatible with the dual pairing's test vector")
        if self.grid is not None:
            return np.abs(np.sum(self.grid.trapezoid_weights() * self.test * values, axis=1))
        # a row-wise sum, not a matrix product, so a row's value does not
        # depend on the other rows of the batch
        return np.abs(np.sum(self.test * values, axis=1))

    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class SeminormFamily:
    """Ordered finite family of seminorms defining the target topology."""

    members: tuple[Seminorm, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("seminorm family must be nonempty")
        object.__setattr__(self, "members", members)

    def __len__(self):
        return len(self.members)

    def __getitem__(self, i) -> Seminorm:
        return self.members[i]

    def __iter__(self):
        return iter(self.members)
