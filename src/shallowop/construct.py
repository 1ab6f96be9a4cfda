"""The constructive approximation pipeline.

Stage 1 compresses the operator's sampled image to a finite epsilon net and a
subordinate partition of unity, giving a finite-rank map within epsilon/2.
Stage 2 fits each partition coefficient with a random-feature ridge network
to tolerance delta = epsilon / (2 m C), where C is the largest coefficient
seminorm.  The triangle inequality then bounds the assembled network's
uniform error by epsilon whenever every scalar fit met delta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, CoverageError, ShapeError
from .inputs import (
    CompactEnsemble,
    FunctionalSpec,
    draw_functional_params,
    random_functional,  # noqa: F401  not called here; benchmarks/tracer.py hooks this name
    signature_dim,
)
from .network import ShallowVectorNetwork, make_activation
from .seeding import derive_seed
from .targets import Seminorm, SeminormFamily, TargetBatch, _as_array, _as_float, _as_int


#: rows per batched seminorm call: a block's temporaries stay in cache, which
#: makes a pass over thousands of rows about three times faster than one call
SEMINORM_BLOCK_ROWS = 256

#: bytes of float64 factor input per np.linalg.qr call in stage 2: the fits
#: solve their designs in stacks of this size, so their working set stays
#: bounded however many partition columns a run has
SOLVE_STACK_BYTES = 1 << 20


def _seminorm_rows(rho: Seminorm, values: np.ndarray, grid, center=None) -> np.ndarray:
    """rho(values[i] - center) for every row i, one block of rows at a time.

    center is one row (or None for zero); a row's value does not depend on
    the block it falls in.
    """
    out = np.empty(values.shape[0])
    for start in range(0, values.shape[0], SEMINORM_BLOCK_ROWS):
        rows = values[start:start + SEMINORM_BLOCK_ROWS]
        out[start:start + SEMINORM_BLOCK_ROWS] = rho.batch(
            rows if center is None else rows - center, grid)
    return out


@dataclass(frozen=True, eq=False)
class EpsilonNet:
    """Greedy net: centers, the read-only (m, d) batch of the source values at
    center_indices, cover those values strictly within epsilon.

    distances[i, j] is the seminorm distance from source value i to center
    j, the read-only (n, m) matrix the scan computed.
    """

    centers: TargetBatch
    epsilon: float
    center_indices: tuple[int, ...]
    distances: np.ndarray

    def __len__(self):
        return len(self.centers)


def build_epsilon_net(values: TargetBatch, rho: Seminorm, epsilon: float) -> EpsilonNet:
    """Scan values in order; keep one as a center iff no existing center is
    strictly within epsilon of it.

    Every value ends up strictly covered and centers stay pairwise >= epsilon
    apart, which is exactly the finite-cover step of the compactness argument.
    Each accepted center gets one batched seminorm pass over all values,
    which is its column of the net's distances; the next center is the first
    value whose nearest center so far is at distance >= epsilon.  Earlier
    values are covered or centers, so that is the first such later value.
    The centers are the rows values[i] for the center indices.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    F, grid = values.values, values.grid
    nearest = np.full(F.shape[0], np.inf)
    # columns go into one buffer, doubled when full: keeping one array per
    # center instead made every later pass about twice as slow at n=3200,
    # through allocator churn on the passes' temporaries
    distances = np.empty((F.shape[0], 16))
    indices = []
    i = 0
    while True:
        if len(indices) == distances.shape[1]:
            distances = np.concatenate([distances, np.empty_like(distances)], axis=1)
        column = _seminorm_rows(rho, F, grid, F[i])
        distances[:, len(indices)] = column
        indices.append(i)
        np.minimum(nearest, column, out=nearest)
        uncovered = np.flatnonzero(nearest >= epsilon)
        if not uncovered.size:
            break
        i = int(uncovered[0])
    distances = distances[:, :len(indices)].copy()
    distances.setflags(write=False)
    return EpsilonNet(TargetBatch(F[indices], grid), float(epsilon), tuple(indices),
                      distances)


@dataclass(frozen=True, eq=False)
class PartitionOfUnity:
    """Normalized hat weights subordinate to the net's epsilon balls.

    weights[i, j] is psi_j at sample i; distances is the net's (n, m)
    matrix of seminorm distances, kept so the convexity bound can be
    re-checked without re-evaluating the operator.
    """

    weights: np.ndarray
    distances: np.ndarray
    epsilon: float


def build_partition(net: EpsilonNet, rho: Seminorm) -> PartitionOfUnity:
    """Hats max(0, 1 - dist/epsilon) on the net's distances, normalized per
    sample.

    The cover property makes every normalizer strictly positive; a sample no
    center reaches is reported by index, naming rho, the seminorm of the
    distances.
    """
    eps = net.epsilon
    raw = np.maximum(0.0, 1.0 - net.distances / eps)
    norms = raw.sum(axis=1)
    dead = np.flatnonzero(norms <= 0.0)
    if dead.size:
        raise CoverageError(
            f"sample {dead[0]} is not within {eps} of any center under {rho.label()}"
        )
    return PartitionOfUnity(raw / norms[:, None], net.distances, eps)


def least_squares_solve(design: np.ndarray, targets: np.ndarray, lam: float) -> np.ndarray:
    """Minimize ||A c - y||^2 + lam ||c||^2 for each member of a stack.

    design is a (b, n, k) stack with targets (b, n), and the result is
    (b, k); one design is the stack design[None].  Every member is solved
    from one Householder QR, all members by one np.linalg.qr call:
    - a tall design (n >= k), or any design with lam > 0, factors [A | y]
      with A augmented by sqrt(lam) I, so the conditioning is that of A
      rather than of A^T A, and back-substitutes;
    - a wide design (n < k) with lam = 0 takes the minimum-norm solution
      Q R^-T y from the QR of A^T = Q R.
    A member whose triangular factor is numerically singular (its diagonal
    ratio min |r_ii| / max |r_ii| is at most eps * max(n, k)), or whose
    coefficients come out non-finite, is solved alone by SVD least squares
    instead.  With lam = 0 that is the minimum-norm minimizer, and a warning
    says the design is rank-deficient.  A member whose design or targets hold
    a non-finite entry is refused there, by a ConfigError naming design or
    targets.  A member's result depends only on its own design, targets and
    lam, never on the rest of its stack.
    """
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if design.ndim != 3 or targets.ndim != 2 or design.shape[:2] != targets.shape:
        raise ShapeError(
            f"design {design.shape} and targets {targets.shape} are inconsistent"
        )
    lam = _as_float(lam, "lam", 0, subject="regularization lam")
    b, n, k = design.shape
    coeffs = np.full((b, k), np.nan)
    if lam > 0 or n >= k:
        # [A | y], rows augmented by [sqrt(lam) I | 0], laid out column by
        # column as LAPACK reads it, so the QR copies no transposes
        columns = np.empty((b, k + 1, n + k if lam > 0 else n))
        columns[:, :k, :n] = design.transpose(0, 2, 1)
        columns[:, k, :n] = targets
        if lam > 0:
            columns[:, :k, n:] = np.sqrt(lam) * np.eye(k)
            columns[:, k, n:] = 0.0
        R = np.linalg.qr(columns.transpose(0, 2, 1), mode="r")
        tri, rhs = R[:, :k, :k], R[:, :k, k]
        solved = _solvable(tri, n, k)
        coeffs[solved] = _back_substitute(tri[solved], rhs[solved])
    else:
        # A^T = Q R with Q = H_0 ... H_{n-1} kept as Householder reflectors:
        # row i of reflectors holds v_i[i + 1:] (v_i[i] = 1), and its first
        # n columns hold R^T in their lower triangle
        reflectors, tau = np.linalg.qr(design.transpose(0, 2, 1), mode="raw")
        lower = np.tril(reflectors[:, :, :n])
        solved = _solvable(lower, n, k)
        # R^T reversed in both axes is upper triangular
        w = _back_substitute(lower[solved][:, ::-1, ::-1],
                             targets[solved][:, ::-1])[:, ::-1]
        coeffs[solved] = _apply_reflectors(reflectors[solved], tau[solved], w)
    for i in np.flatnonzero(~np.all(np.isfinite(coeffs), axis=1)):
        coeffs[i] = _svd_solve(design[i], targets[i], lam)
    return coeffs


def _solvable(tri: np.ndarray, n: int, k: int) -> np.ndarray:
    """Members of a stack of triangular factors that are not numerically singular."""
    diag = np.abs(np.diagonal(tri, axis1=1, axis2=2))
    return diag.min(axis=1) > np.finfo(float).eps * max(n, k) * diag.max(axis=1)


def _back_substitute(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """upper^-1 rhs for a stack of nonsingular upper-triangular matrices.

    Partial pivoting swaps no rows of an upper-triangular matrix, so the LU
    solve is back substitution and meets no zero pivot.
    """
    return np.linalg.solve(upper, rhs[:, :, None])[:, :, 0]


def _apply_reflectors(reflectors: np.ndarray, tau: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Q [w; 0] for a stack of Q = H_0 ... H_{n-1}, H_i = I - tau_i v_i v_i^T,
    stored as np.linalg.qr(..., mode="raw") returns them; applying the n
    reflectors is cheaper than forming Q.  Overwrites the diagonal of
    reflectors with the implicit v_i[i] = 1.
    """
    b, n, k = reflectors.shape
    reflectors[:, range(n), range(n)] = 1.0
    x = np.zeros((b, k))
    x[:, :n] = w
    for i in range(n - 1, -1, -1):
        v, tail = reflectors[:, i, i:], x[:, i:]
        tail -= (tau[:, i] * np.einsum("bj,bj->b", v, tail))[:, None] * v
    return x


def _svd_solve(design: np.ndarray, targets: np.ndarray, lam: float) -> np.ndarray:
    """One member by SVD least squares on the sqrt(lam)-augmented design; a
    non-finite entry is refused before LAPACK reads it."""
    design = _as_array(design, "design", 2, subject="design rows")
    targets = _as_array(targets, "targets", 1)
    n, k = design.shape
    if lam > 0:
        aug = np.vstack([design, np.sqrt(lam) * np.eye(k)])
        rhs = np.concatenate([targets, np.zeros(k)])
        return np.linalg.lstsq(aug, rhs, rcond=None)[0]
    coeffs, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < min(n, k):
        warnings.warn(
            f"unregularized design is rank-deficient (rank {rank} < {min(n, k)}); "
            "solution is the minimum-norm minimizer",
            stacklevel=3,
        )
    return coeffs


@dataclass(frozen=True)
class FitConfig:
    """Knobs for one scalar random-feature fit.

    `seed` is the fit seed s: assembly seeds partition column j's feature
    bank with derive_seed(s, j) (see seeding.py); fit_columns never reads it.
    """

    functional_spec: FunctionalSpec
    width: int = 64
    max_width: int = 512
    activation: object = "tanh"
    theta_range: tuple[float, float] = (-3.0, 3.0)
    lam: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "width", _as_int(self.width, "width", 1))
        object.__setattr__(self, "max_width", _as_int(self.max_width, "max_width", self.width))
        object.__setattr__(self, "lam", _as_float(self.lam, "lam", 0,
                                                  subject="regularization lam"))
        theta = self.theta_range
        if not isinstance(theta, (list, tuple)) or len(theta) != 2:
            raise ConfigError(f"must be a (low, high) pair, got {theta!r}", "theta_range")
        lo = _as_float(theta[0], "theta_range", subject="threshold range low")
        hi = _as_float(theta[1], "theta_range", subject="threshold range high", above=lo)
        object.__setattr__(self, "theta_range", (lo, hi))
        object.__setattr__(self, "activation", make_activation(self.activation))


def draw_features(cfg: FitConfig, streams, start: int, stop: int):
    """Features [start, stop) of cfg's bank (P, theta): row 0 is the bias,
    the rest random.

    P holds the functionals' parameters over cfg.functional_spec.basis, as a
    network's weights do.  streams are the bank's (parameters, thresholds)
    generators after features [0, start) were drawn from them:
    parameter rows 1.. come in order from the first, thresholds 0.. from the
    second, and the bias row P[0] is zero and draws nothing.  A bank drawn in
    several calls therefore equals one drawn at once, so banks nest across
    width doublings.
    """
    weights_rng, thresholds_rng = streams
    params = draw_functional_params(cfg.functional_spec, weights_rng, stop - max(start, 1))
    if start == 0:
        params = np.vstack([np.zeros((1, params.shape[1])), params])
    return params, thresholds_rng.uniform(*cfg.theta_range, stop - start)


def _feature_streams(seed):
    """The (parameters, thresholds) generators of one feature bank."""
    return (np.random.default_rng(derive_seed(seed, 0)),
            np.random.default_rng(derive_seed(seed, 1)))


def fit_ridge_features(design: np.ndarray, targets: np.ndarray, lam: float):
    """Ridge-solve the coefficients of a (b, n, k) stack of designs with
    targets (b, n).

    Returns (coeffs, sup_error): coeffs (b, k), and sup_error (b,), each
    member's largest absolute training residual.
    """
    coeffs = least_squares_solve(design, targets, lam)
    residual = np.matmul(design, coeffs[..., None])[..., 0] - targets
    return coeffs, np.max(np.abs(residual), axis=-1)


def fit_columns(flats: np.ndarray, targets: np.ndarray, cfg: FitConfig, seeds,
                delta: float):
    """Fit column j of targets with the feature bank seeded by seeds[j], every
    column stepping through the width schedule in lockstep.

    flats is the (n_samples, dim) input matrix and targets is (n_samples,
    len(seeds)).  All pending columns share one width: cfg.width, doubled
    per step up to cfg.max_width (a fixed-width fit sets max_width = width).
    A step draws each pending bank's new features with draw_features,
    continuing its streams, and solves the pending designs in stacks of at
    most SOLVE_STACK_BYTES; a column stops once its training sup error is
    below delta or its width reaches cfg.max_width.  The inputs are
    projected on the spec's basis once, S = flats B^T (S = flats with no
    basis), and each design is eta(S P^T - theta), the pre-activation a
    network evaluates.  Returns one (P, theta, coeffs, sup_error) per
    column, P the bank's parameters as draw_features returns them.
    """
    spec = cfg.functional_spec
    dim = signature_dim(spec.signature)
    if flats.ndim != 2 or flats.shape[1] != dim:
        raise ShapeError(f"inputs {flats.shape} do not stack to {dim}-vectors")
    n = flats.shape[0]
    S = flats if spec.basis is None else flats @ spec.basis.T
    streams = [_feature_streams(seed) for seed in seeds]
    banks = [None] * len(seeds)
    fits = [None] * len(seeds)
    pending = list(range(len(seeds)))
    width, target = 0, cfg.width
    while pending:
        for j in pending:
            grown = draw_features(cfg, streams[j], width, target)
            banks[j] = grown if width == 0 else tuple(
                np.concatenate(parts) for parts in zip(banks[j], grown))
        width = target
        size = _stack_size(n, width, cfg.lam)
        for first in range(0, len(pending), size):
            stack = pending[first:first + size]
            # member i holds the transposed design A^T: one feature per row
            designs = np.empty((len(stack), width, n))
            for i, j in enumerate(stack):
                P, thetas = banks[j]
                block = np.matmul(P, S.T, out=designs[i])
                block -= thetas[:, None]
                designs[i] = cfg.activation(block)
            coeffs, errors = fit_ridge_features(designs.transpose(0, 2, 1),
                                                targets[:, stack].T, cfg.lam)
            for i, j in enumerate(stack):
                if errors[i] < delta or width >= cfg.max_width:
                    fits[j] = (*banks[j], coeffs[i], float(errors[i]))
        pending = [j for j in pending if fits[j] is None]
        target = min(2 * width, cfg.max_width)
    return fits


def _stack_size(n: int, width: int, lam: float) -> int:
    """Members per solve stack: as many (n, width) designs as keep the
    column-major [A | y] that least_squares_solve factors within
    SOLVE_STACK_BYTES, and at least one."""
    rows = n + width if lam > 0 else n
    return max(1, SOLVE_STACK_BYTES // (8 * rows * (width + 1)))


@dataclass(frozen=True, eq=False)
class AssemblyReport:
    """What the pipeline budgeted and actually achieved, stage by stage.

    The budget splits epsilon into epsilon/2 for the net and delta =
    epsilon/(2 m C) per fit; a degenerate run (C = 0) carries no delta.
    train_errors holds the training uniform error under every member of the
    family, and train_sup_error is that of the targeted member.
    """

    epsilon: float
    m: int
    C: float
    delta: float | None
    degenerate: bool
    stage1_sup: float
    coefficient_errors: np.ndarray
    coefficient_widths: np.ndarray
    converged: bool
    train_sup_error: float
    train_errors: np.ndarray

    @property
    def stage1(self) -> float:
        return self.epsilon / 2.0

    def __post_init__(self):
        if self.degenerate:
            if self.delta is not None:
                raise ValueError("degenerate budget carries no per-coefficient tolerance")
        else:
            if self.delta is None or not self.delta > 0:
                raise ValueError("per-coefficient tolerance must be positive")
            if self.delta * self.m * self.C > self.stage1 * (1.0 + 1e-12):
                raise ValueError("per-coefficient tolerance overruns the stage budget")


def assemble_vector_network(f_values: TargetBatch, ensemble: CompactEnsemble,
                            family: SeminormFamily, rho_index: int, epsilon: float,
                            fit_cfg: FitConfig):
    """Run the full two-stage construction for one target seminorm.

    Returns (network, report).  A scalar stage that cannot reach its
    tolerance at fit_cfg.max_width leaves report.converged False rather than
    raising; whenever it is True, the training uniform error is below epsilon
    by construction, and a BudgetError is raised if it is not.  f_values
    holds the operator value of each ensemble sample.  The training errors
    come from one uniform_error pass over the whole family, so a caller that
    wants them under more seminorms than the target passes those in the
    family too.
    """
    if len(f_values) != len(ensemble):
        raise ShapeError("one operator value per ensemble sample required")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    rho = family[rho_index]

    net1 = build_epsilon_net(f_values, rho, epsilon / 2.0)
    pou = build_partition(net1, rho)
    stage1_sup = float(np.max(np.sum(pou.weights * pou.distances, axis=1)))
    if not stage1_sup < (epsilon / 2.0) * (1.0 + 1e-9):
        raise BudgetError(f"stage-1 error {stage1_sup} reached its budget {epsilon / 2.0}")

    m = len(net1)
    c_max = float(np.max(rho.batch(net1.centers.values, net1.centers.grid)))
    if c_max == 0.0:
        # every center is rho-null, so the zero network is already within
        # epsilon/2, which is then the bound its training error is held to
        network = ShallowVectorNetwork.zero(fit_cfg.activation, ensemble.signature,
                                            f_values.dim, f_values.grid)
        delta, errors, widths = None, np.zeros(m), np.zeros(m, dtype=int)
        converged, bound = True, epsilon / 2.0
    else:
        delta = float(epsilon / (2.0 * m * c_max))
        P, thetas, c, errors, widths = _fit_coefficients(ensemble, pou.weights, fit_cfg,
                                                         delta)
        network = ShallowVectorNetwork(P, thetas, c, net1.centers.values, widths,
                                       fit_cfg.activation, ensemble.signature, f_values.grid,
                                       fit_cfg.functional_spec.basis)
        converged, bound = bool(np.all(errors < delta)), epsilon

    train_errors = uniform_error(f_values, network, ensemble, family)
    train_sup = float(train_errors[rho_index])
    if converged and not train_sup < bound * (1.0 + 1e-9):
        raise BudgetError(f"budget violated: uniform error {train_sup} is not below {bound} "
                          f"with epsilon {epsilon}")
    report = AssemblyReport(float(epsilon), m, c_max, delta, c_max == 0.0, stage1_sup, errors,
                            widths, converged, train_sup, train_errors)
    return network, report


def _fit_coefficients(ensemble, weights, fit_cfg: FitConfig, delta: float):
    """Fit every partition column j with fit_columns under the bank seed
    derive_seed(fit_cfg.seed, j), and return the network factors (P, theta,
    c), sup errors and widths.

    The columns are fitted together on the ensemble's input matrix.  Column j
    contributes one block of neurons: its bank's parameters, thresholds and
    ridge coefficients, whose output rows are multiples of center j.
    """
    spec = fit_cfg.functional_spec
    if spec.signature != ensemble.signature:
        raise ShapeError(
            f"functional spec draws {spec.signature} functionals, ensemble is "
            f"{ensemble.signature}"
        )
    seeds = [derive_seed(fit_cfg.seed, j) for j in range(weights.shape[1])]
    fits = fit_columns(ensemble.flats, weights, fit_cfg, seeds, delta)
    P = np.concatenate([fit[0] for fit in fits])
    thetas = np.concatenate([fit[1] for fit in fits])
    c = np.concatenate([fit[2] for fit in fits])
    errors = np.array([fit[3] for fit in fits])
    widths = np.array([len(fit[1]) for fit in fits], dtype=int)
    return P, thetas, c, errors, widths


def uniform_error(f_values: TargetBatch, net: ShallowVectorNetwork, ensemble,
                  family: SeminormFamily) -> np.ndarray:
    """Per-seminorm max over samples of rho(F(s) - net(s)).

    f_values holds the value of each sample of ensemble, a CompactEnsemble
    or a list of input points.  One batched pass per seminorm over the
    residual matrix, which overwrites the network outputs.
    """
    if len(f_values) != len(ensemble):
        raise ShapeError("one operator value per sample required")
    approx = net.evaluate_many(ensemble)
    F, grid = f_values.values, f_values.grid
    if approx.shape != F.shape:
        raise ShapeError(f"network outputs {approx.shape} do not match values {F.shape}")
    residual = np.subtract(F, approx, out=approx)
    return np.array([np.max(_seminorm_rows(rho, residual, grid)) for rho in family])

