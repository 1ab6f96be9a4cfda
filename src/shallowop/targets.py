"""Discretized target values and the seminorms that topologize them.

A target value is a finite real vector: samples of a function on a uniform
grid, truncated sequence coefficients, or a flattened matrix; n values are
the rows of one (n, dim) matrix.  Seminorms come in four evaluable flavors
(weighted Lq, sup of a finite-difference derivative, polynomially weighted
sup on a truncated grid, and pairing against a fixed test vector); each is
nonnegative, absolutely homogeneous, and subadditive on compatible values.

A seminorm is a function on the discretized target space, so it holds the
grid its values are sampled on (None for sequence or matrix entries), and
what it cannot apply to on that grid is refused when it is built.  Every
seminorm is evaluated row-wise: ``rho(values)`` maps an (n, dim) matrix of
values to the n seminorm values, so a sup over thousands of samples is one
array pass, and one value v is the one-row matrix, ``rho(v[None])[0]``.  A
custom seminorm subclasses ``Seminorm``, implements ``__call__`` and
``label``, and sets ``grid`` when its values sit on one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

#: bytes of float64 per array of a block of rows: the seminorm passes, a
#: band-limited draw and batch evaluation go in blocks whose temporaries stay
#: in cache, which makes a pass over thousands of rows about three times faster
BLOCK_BYTES = 1 << 18


def _row_blocks(n: int, width: int) -> list[slice]:
    """n rows of width entries as consecutive slices of at most
    BLOCK_BYTES // (8 * width) rows each, and at least one."""
    rows = max(1, BLOCK_BYTES // (8 * width))
    return [slice(start, start + rows) for start in range(0, n, rows)]


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
        object.__setattr__(self, "n", _as_int(self.n, "n", 2, sized=True,
                                              subject="grid node count n"))

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


def _checked_output_grid(grid, n: int) -> GridMeta | None:
    """grid as the output grid of n values: None, or a GridMeta of n nodes;
    a ConfigError naming output_grid for anything else, a ShapeError for a
    grid of another node count."""
    if grid is not None and not isinstance(grid, GridMeta):
        raise ConfigError(f"must be a GridMeta or None, got {grid!r}", "output_grid")
    if grid is not None and grid.n != n:
        raise ShapeError(f"does not match its output grid: {n} values, {grid.n} nodes",
                         "output_grid", "output dim")
    return grid


def _as_int(value, arg: str, least=None, *, sized=False, error=ConfigError,
            subject: str | None = None) -> int:
    """value as an int if it is a Python or numpy integer, not a boolean, at
    least least when that is given, and, when sized, at most
    np.iinfo(np.intp).max // 8, the most float64 entries numpy can size one
    array by.  Nothing is truncated; anything else is a ConfigError naming
    the argument arg, or error for an integer out of range."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"must be an integer, got {value!r}", arg, subject)
    if least is not None and value < least:
        raise error(f"must be at least {least}, got {value}", arg, subject)
    if sized and value > np.iinfo(np.intp).max // 8:
        raise error(f"must be at most {np.iinfo(np.intp).max // 8}, the most float64 "
                    f"entries of one array, got {value}", arg, subject)
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

    A nonempty list or tuple of arrays, such as the rows of a matrix, is
    stacked by one numpy call into the array it reads; any other list or
    tuple is read entry by entry, as _as_float reads a number.  An array
    must hold integers or reals: no strings, booleans, complex numbers or
    objects.  A refused entry is a ConfigError naming the argument arg, a
    wrong shape a ShapeError.  An array is held as it is when it is float64,
    C-contiguous and nothing it views can be written, such as a row slice
    of a batch; anything else becomes a read-only copy.
    """
    if isinstance(values, (list, tuple)) and values and all(
            isinstance(row, np.ndarray) for row in values):
        try:
            values = np.stack(values)
        except ValueError as exc:  # rows of different shapes
            raise ShapeError(f"have rows of different shapes: {exc}", arg, subject) from exc
        values.setflags(write=False)  # a new array, held without a second copy
    # a list's shape is read before its entries, so rows of different
    # lengths are a ShapeError
    a = np.array(values, dtype=object) if isinstance(values, (list, tuple)) else (
        _as_real(values, arg, subject))
    if a.ndim != ndim or (not empty and 0 in a.shape):
        raise ShapeError(f"must be a {'' if empty else 'nonempty '}{ndim}-d array, "
                         f"got shape {a.shape}", arg, subject)
    if a.dtype == object:
        floats = np.array([_as_float(x, arg, subject=subject) for x in a.flat])
        floats.setflags(write=False)  # a new array, held below without a second copy
        a = floats.reshape(a.shape)
    if not np.all(np.isfinite(a)):
        raise ConfigError("contain non-finite entries", arg, subject)
    if not (a.dtype == np.float64 and a.flags.c_contiguous and _unwritable(a)):
        a = np.array(a, dtype=np.float64, order="C")
        a.setflags(write=False)
    return a


def _as_real(values, arg: str, subject: str | None = None) -> np.ndarray:
    """values as an array, which must hold integers or reals: strings,
    booleans, complex numbers and objects are a ConfigError naming arg."""
    a = np.asarray(values)
    if a.dtype.kind not in "iuf":
        raise ConfigError(f"must hold real numbers, got {a.dtype} entries", arg, subject)
    return a


def _unwritable(a) -> bool:
    """Whether neither a nor any array it views can be written, where the
    only buffer that counts as unwritable is bytes."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None or isinstance(a, bytes)


def _check_order(order: int, grid: GridMeta | None, arg: str):
    """ShapeError naming arg, the argument that set order, unless values on
    grid have an order-th derivative: order 0, or a grid of order + 1 nodes
    or more."""
    if order and grid is None:
        raise ShapeError(f"is {order}, and a derivative needs values on a grid", arg)
    if order and grid.n < order + 1:
        raise ShapeError(f"is {order}, and a derivative of that order needs at least "
                         f"{order + 1} nodes, grid has {grid.n}", arg)


def _difference_at_nodes(values: np.ndarray, grid: GridMeta | None,
                        order: int) -> np.ndarray:
    """Order-th finite difference of each row of values at every grid node,
    for an order _check_order allows.

    Uses the binomial-coefficient difference over a window of order+1
    consecutive nodes, centered on the node where possible and shifted
    one-sided near the boundaries.  Exact for polynomials of degree <= order,
    so the difference of x**order is the constant order! at every node.
    """
    if order == 0:
        return values
    n = values.shape[1]
    d = np.diff(values, n=order, axis=1) / grid.spacing**order
    window_start = np.clip(np.arange(n) - order // 2, 0, n - 1 - order)
    return d[:, window_start]


def _require_rows(values: np.ndarray, grid: GridMeta | None):
    if values.ndim != 2:
        raise ShapeError(f"values must be a 2-d (rows, dim) array, got shape {values.shape}")
    if grid is not None and values.shape[1] != grid.n:
        raise ShapeError(f"rows have {values.shape[1]} values, grid has {grid.n} nodes")


class Seminorm:
    """Base class for evaluable continuous seminorms on target values.

    rho(values) takes an (n, dim) matrix whose rows are values on rho.grid
    (None for values not sampled on a grid) and returns the n seminorm
    values; a subclass implements it and label.  Each shipped seminorm
    defines __call__ in its own class body, where benchmarks/tracer.py wraps
    it to count passes.
    """

    grid: GridMeta | None = None

    def __call__(self, values: np.ndarray) -> np.ndarray:
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
    """Discrete Lq norm: trapezoid-weighted on grid values, plain lq else."""

    q: float = 2.0
    grid: GridMeta | None = None

    def __post_init__(self):
        object.__setattr__(self, "q", _as_float(self.q, "q", 1, subject="Lq norm q"))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        _require_rows(values, self.grid)
        with np.errstate(over="ignore", under="ignore"):
            sums = self._powered_sums(np.abs(values))
            out = sums ** (1.0 / self.q)
            # a row whose sum underflowed below the normal range or overflowed
            # while its entries are finite and not all zero is m rho(v / m),
            # m its largest magnitude, whose sum does neither; one count
            # passes rows of zeros only, such as a center's distance to itself
            flagged = (sums < np.finfo(float).tiny) | (sums == np.inf)
            if np.count_nonzero(values[flagged]):
                rows = np.flatnonzero(flagged)
                a = np.abs(values[rows])
                m = np.max(a, axis=1)
                scaled = (m > 0) & (m < np.inf)
                rows, a, m = rows[scaled], a[scaled], m[scaled]
                out[rows] = m * self._powered_sums(a / m[:, None]) ** (1.0 / self.q)
        return out

    def _powered_sums(self, a: np.ndarray) -> np.ndarray:
        """The weighted sums of the rows of a, the magnitudes, to the power
        q; a is overwritten, since values may be thousands of rows."""
        a **= self.q
        if self.grid is not None:
            a *= self.grid.trapezoid_weights()
        return np.sum(a, axis=1)

    def label(self) -> str:
        return f"lq(q={_number_label(self.q)})"


@dataclass(frozen=True)
class SupDerivative(Seminorm):
    """Sup over nodes of the |order|-th finite-difference derivative; an
    order >= 1 needs a grid of more than order nodes."""

    order: int = 0
    grid: GridMeta | None = None

    def __post_init__(self):
        object.__setattr__(self, "order", _as_int(self.order, "order", 0,
                                                  subject="derivative order"))
        _check_order(self.order, self.grid, "order")

    def __call__(self, values: np.ndarray) -> np.ndarray:
        _require_rows(values, self.grid)
        return np.max(np.abs(_difference_at_nodes(values, self.grid, self.order)), axis=1)

    def label(self) -> str:
        return f"sup_d{self.order}"


@dataclass(frozen=True)
class SchwartzWeighted(Seminorm):
    """Sup of |x**alpha * d^beta t| over the grid truncated to |x| <= radius.

    The sup over an unbounded domain is not computable from samples; the
    truncation radius is an explicit approximation parameter.  The seminorm
    needs a grid, of more than beta nodes, and a weight |x|**alpha finite on
    every node it keeps, else an infinite weight would read NaN on zeros.
    """

    alpha: int = 0
    beta: int = 0
    radius: float = 8.0
    grid: GridMeta | None = None

    def __post_init__(self):
        for index in ("alpha", "beta"):
            object.__setattr__(self, index, _as_int(getattr(self, index), index, 0))
        if self.alpha > np.iinfo(np.int64).max:
            raise ConfigError(f"must be at most {np.iinfo(np.int64).max}, the largest exponent "
                              f"numpy's integer power takes, got {self.alpha}", "alpha")
        object.__setattr__(self, "radius", _as_float(self.radius, "radius", above=0,
                                                     subject="truncation radius"))
        if self.grid is None:
            raise ShapeError("Schwartz seminorm needs values on a grid")
        _check_order(self.beta, self.grid, "beta")
        # the nodes kept and their signed powers x**alpha; |powers * d| is
        # bitwise |x**alpha * d|, where |x|**alpha * |d| may differ in the last bit
        x = self.grid.nodes()
        object.__setattr__(self, "_mask", np.abs(x) <= self.radius)
        with np.errstate(over="ignore"):
            object.__setattr__(self, "_powers", x[self._mask] ** self.alpha)
        if not np.all(np.isfinite(self._powers)):
            raise ConfigError(f"makes the weight |x|**alpha overflow within radius "
                              f"{self.radius}, got {self.alpha}", "alpha")

    def __call__(self, values: np.ndarray) -> np.ndarray:
        _require_rows(values, self.grid)
        d = _difference_at_nodes(values, self.grid, self.beta)
        # initial 0 reads zeros when no node is kept
        return np.max(np.abs(self._powers * d[:, self._mask]), axis=1, initial=0.0)

    def label(self) -> str:
        return f"schwartz(a{self.alpha},b{self.beta},r={_number_label(self.radius)})"


@dataclass(frozen=True, eq=False)
class DualPairing(Seminorm):
    """Absolute pairing |<t', t>| against a fixed test vector t'.

    On grid values the pairing is trapezoid-weighted; on plain coefficient
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
        object.__setattr__(self, "_weighted",
                           v if self.grid is None else self.grid.trapezoid_weights() * v)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        _require_rows(values, self.grid)
        if values.shape[1] != self.test.shape[0]:
            raise ShapeError("values are incompatible with the dual pairing's test vector")
        # a row-wise sum, not a matrix product, so a row's value does not
        # depend on the other rows
        return np.abs(np.sum(self._weighted * values, axis=1))

    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class SeminormFamily:
    """Ordered finite family of seminorms defining the target topology, all
    on one grid, family.grid."""

    members: tuple[Seminorm, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("seminorm family must be nonempty")
        for i, rho in enumerate(members):
            if rho.grid != members[0].grid:
                raise ShapeError(f"member {i} is on grid {rho.grid}, member 0 on "
                                 f"{members[0].grid}", "members")
        object.__setattr__(self, "members", members)

    @property
    def grid(self) -> GridMeta | None:
        return self.members[0].grid

    def __len__(self):
        return len(self.members)

    def __getitem__(self, i) -> Seminorm:
        return self.members[i]

    def __iter__(self):
        return iter(self.members)
