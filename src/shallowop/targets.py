"""Discretized target-space elements and the seminorms that topologize them.

A target element is a finite real vector: samples of a function on a uniform
grid, truncated sequence coefficients, or a flattened matrix.  Seminorms come
in four evaluable flavors (weighted Lq, sup of a finite-difference derivative,
polynomially weighted sup on a truncated grid, and pairing against a fixed
test vector); each is nonnegative, absolutely homogeneous, and subadditive on
compatible elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class GridMeta:
    """Uniform grid on [a, b] with n nodes, endpoints included."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"grid endpoints must satisfy b > a, got [{self.a}, {self.b}]")
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 nodes, got n={self.n}")

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


def _as_readonly_vector(values) -> np.ndarray:
    v = np.array(values, dtype=float, copy=True)
    if v.ndim != 1:
        raise ShapeError(f"expected a 1-d value vector, got shape {v.shape}")
    if v.size == 0:
        raise ShapeError("value vector must be nonempty")
    if not np.all(np.isfinite(v)):
        raise ValueError("value vector contains non-finite entries")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class TargetElement:
    """A point of the discretized target space: values plus optional grid.

    Elements with a grid are samples of a function on that grid; elements
    without one are plain coefficient vectors (sequence/matrix targets).
    Arithmetic is only defined between elements with identical metadata.
    """

    values: np.ndarray
    grid: GridMeta | None = None

    def __post_init__(self):
        v = _as_readonly_vector(self.values)
        if self.grid is not None and v.shape[0] != self.grid.n:
            raise ShapeError(
                f"value count {v.shape[0]} does not match grid node count {self.grid.n}"
            )
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def _require_combinable(self, other: "TargetElement"):
        if not isinstance(other, TargetElement):
            raise TypeError(f"cannot combine TargetElement with {type(other).__name__}")
        if self.grid != other.grid or self.dim != other.dim:
            raise ShapeError("target elements have mismatched grid metadata")

    def __add__(self, other):
        self._require_combinable(other)
        return TargetElement(self.values + other.values, self.grid)

    def __sub__(self, other):
        self._require_combinable(other)
        return TargetElement(self.values - other.values, self.grid)

    def __mul__(self, scalar):
        return TargetElement(self.values * float(scalar), self.grid)

    __rmul__ = __mul__

    def __neg__(self):
        return TargetElement(-self.values, self.grid)

    @staticmethod
    def zero(dim: int, grid: GridMeta | None = None) -> "TargetElement":
        return TargetElement(np.zeros(dim), grid)

    def zero_like(self) -> "TargetElement":
        return TargetElement(np.zeros(self.dim), self.grid)


def _difference_at_nodes(t: TargetElement, order: int) -> np.ndarray:
    """Order-th finite difference of t evaluated at every grid node.

    Uses the binomial-coefficient difference over a window of order+1
    consecutive nodes, centered on the node where possible and shifted
    one-sided near the boundaries.  Exact for polynomials of degree <= order,
    so the difference of x**order is the constant order! at every node.
    """
    if order == 0:
        return t.values
    if t.grid is None:
        raise ShapeError("derivative seminorms need grid metadata")
    n = t.dim
    if n < order + 1:
        raise ValueError(
            f"derivative order {order} needs at least {order + 1} nodes, grid has {n}"
        )
    d = np.diff(t.values, n=order) / t.grid.spacing**order
    window_start = np.clip(np.arange(n) - order // 2, 0, n - 1 - order)
    return d[window_start]


class Seminorm:
    """Base class for evaluable continuous seminorms on target elements."""

    def __call__(self, t: TargetElement) -> float:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class LqNorm(Seminorm):
    """Discrete Lq norm: trapezoid-weighted on grid elements, plain lq else."""

    q: float = 2.0

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"Lq norm requires q >= 1, got q={self.q}")

    def __call__(self, t: TargetElement) -> float:
        absv = np.abs(t.values)
        if t.grid is not None:
            w = t.grid.trapezoid_weights()
            return float(np.sum(w * absv**self.q) ** (1.0 / self.q))
        return float(np.sum(absv**self.q) ** (1.0 / self.q))

    def label(self) -> str:
        return f"lq(q={self.q:g})"


@dataclass(frozen=True)
class SupDerivative(Seminorm):
    """Sup over nodes of the |order|-th finite-difference derivative."""

    order: int = 0

    def __post_init__(self):
        if self.order < 0 or self.order != int(self.order):
            raise ValueError(f"derivative order must be a nonnegative integer, got {self.order}")

    def __call__(self, t: TargetElement) -> float:
        return float(np.max(np.abs(_difference_at_nodes(t, self.order))))

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
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("Schwartz indices alpha, beta must be nonnegative integers")
        if self.radius <= 0:
            raise ValueError(f"truncation radius must be positive, got {self.radius}")

    def __call__(self, t: TargetElement) -> float:
        if t.grid is None:
            raise ShapeError("Schwartz seminorm needs grid metadata")
        x = t.grid.nodes()
        mask = np.abs(x) <= self.radius
        if not np.any(mask):
            return 0.0
        d = _difference_at_nodes(t, self.beta)
        return float(np.max(np.abs(x[mask] ** self.alpha * d[mask])))

    def label(self) -> str:
        return f"schwartz(a{self.alpha},b{self.beta})"


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
        v = _as_readonly_vector(self.test)
        if self.grid is not None and v.shape[0] != self.grid.n:
            raise ShapeError("test vector length does not match its grid")
        object.__setattr__(self, "test", v)

    def __call__(self, t: TargetElement) -> float:
        if t.grid != self.grid or t.dim != self.test.shape[0]:
            raise ShapeError("element is incompatible with the dual pairing's test vector")
        if self.grid is not None:
            w = self.grid.trapezoid_weights()
            return float(abs(np.sum(w * self.test * t.values)))
        return float(abs(np.dot(self.test, t.values)))

    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class SeminormFamily:
    """Ordered finite family of seminorms defining the target topology."""

    members: tuple[Seminorm, ...]
    name: str = ""

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

    def labels(self) -> list[str]:
        return [rho.label() for rho in self.members]


def family_sup_error(family: SeminormFamily, diffs) -> np.ndarray:
    """Per-seminorm maximum over a list of difference elements.

    An empty list yields zero for every seminorm.
    """
    out = np.zeros(len(family))
    diffs = list(diffs)
    if not diffs:
        return out
    for k, rho in enumerate(family):
        out[k] = max(rho(d) for d in diffs)
    return out
