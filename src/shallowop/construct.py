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

from .errors import BudgetError, CoverageError, ShapeError
from .inputs import (
    CompactEnsemble,
    FunctionalSpec,
    ZeroFunctional,
    draw_functional_params,
    functional_from_params,
    functional_matrix,
    functional_weights,
    random_functional,  # noqa: F401  not called here; benchmarks/tracer.py hooks this name
    stack_flat,
)
from .network import Activation, ShallowVectorNetwork, make_activation
from .seeding import derive_seed
from .targets import Seminorm, SeminormFamily, TargetElement, stack_values


#: rows per batched seminorm call: a block's temporaries stay in cache, which
#: makes a pass over thousands of rows about three times faster than one call
SEMINORM_BLOCK_ROWS = 256


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
    """Greedy net: centers cover the source values strictly within epsilon."""

    centers: tuple[TargetElement, ...]
    epsilon: float
    rho: Seminorm
    center_indices: tuple[int, ...]

    def __len__(self):
        return len(self.centers)


def build_epsilon_net(values, rho: Seminorm, epsilon: float) -> EpsilonNet:
    """Scan values in order; keep one as a center iff no existing center is
    strictly within epsilon of it.

    Every value ends up strictly covered and centers stay pairwise >= epsilon
    apart, which is exactly the finite-cover step of the compactness argument.
    The scan keeps each later value's distance to its nearest center so far:
    one batched seminorm pass per accepted center, and the next center is the
    first later value still at distance >= epsilon.
    """
    values = list(values)
    if not values:
        raise ValueError("cannot build an epsilon net from no values")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    F, grid = stack_values(values)
    nearest = np.full(len(values), np.inf)
    indices = [0]
    while True:
        i = indices[-1]
        later = nearest[i + 1:]  # a view: updated in place
        np.minimum(later, _seminorm_rows(rho, F[i + 1:], grid, F[i]), out=later)
        uncovered = np.flatnonzero(later >= epsilon)
        if not uncovered.size:
            break
        indices.append(i + 1 + int(uncovered[0]))
    centers = tuple(values[i] for i in indices)
    return EpsilonNet(centers, float(epsilon), rho, tuple(indices))


@dataclass(frozen=True, eq=False)
class PartitionOfUnity:
    """Normalized hat weights subordinate to the net's epsilon balls.

    weights[i, j] is psi_j at sample i; distances[i, j] is the seminorm
    distance from value i to center j, kept so the convexity bound can be
    re-checked without re-evaluating the operator.
    """

    weights: np.ndarray
    distances: np.ndarray
    epsilon: float
    rho: Seminorm

    @property
    def n_samples(self):
        return self.weights.shape[0]

    @property
    def n_centers(self):
        return self.weights.shape[1]


def build_partition(f_values, net: EpsilonNet, rho: Seminorm) -> PartitionOfUnity:
    """Hats max(0, 1 - dist/epsilon), normalized per sample.

    The cover property makes every normalizer strictly positive; a sample no
    center reaches is reported by index.
    """
    F, grid = stack_values(f_values)
    centers, center_grid = stack_values(net.centers)
    if center_grid != grid or centers.shape[1] != F.shape[1]:
        raise ShapeError("values and centers have mismatched grid metadata")
    eps = net.epsilon
    dist = np.empty((F.shape[0], centers.shape[0]))
    for j, c in enumerate(centers):
        dist[:, j] = _seminorm_rows(rho, F, grid, c)
    raw = np.maximum(0.0, 1.0 - dist / eps)
    norms = raw.sum(axis=1)
    dead = np.flatnonzero(norms <= 0.0)
    if dead.size:
        raise CoverageError(
            f"sample {dead[0]} is not within {eps} of any center under {rho.label()}"
        )
    return PartitionOfUnity(raw / norms[:, None], dist, eps, rho)


def finite_rank_apply(pou: PartitionOfUnity, net: EpsilonNet, sample_index: int) -> TargetElement:
    """Convex combination sum_j psi_j(s_i) v_j of the centers.

    Convexity gives rho(F(s_i) - result) <= sum_j psi_j d_ij < epsilon; the
    right-hand bound is re-checked here from the stored distances.
    """
    if not 0 <= sample_index < pou.n_samples:
        raise IndexError(f"sample index {sample_index} out of range")
    w = pou.weights[sample_index]
    bound = float(np.dot(w, pou.distances[sample_index]))
    if not bound < pou.epsilon * (1.0 + 1e-9):
        raise BudgetError(f"convexity bound {bound} reached epsilon {pou.epsilon}")
    out = net.centers[0].zero_like()
    for wj, c in zip(w, net.centers):
        if wj != 0.0:
            out = out + wj * c
    return out


def least_squares_solve(design: np.ndarray, targets: np.ndarray, lam: float) -> np.ndarray:
    """Minimize ||A c - y||^2 + lam ||c||^2.

    Solved as one least-squares problem on the sqrt(lam)-augmented matrix, so
    the conditioning is that of A itself rather than of A^T A.  With lam = 0
    this is the minimum-norm solution; a rank-deficient design then triggers
    a warning because the minimizer is no longer unique.
    """
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if design.ndim != 2 or targets.ndim != 1 or design.shape[0] != targets.shape[0]:
        raise ShapeError(
            f"design {design.shape} and targets {targets.shape} are inconsistent"
        )
    if lam < 0:
        raise ValueError(f"regularization must be nonnegative, got {lam}")
    n, k = design.shape
    if lam > 0:
        aug = np.vstack([design, np.sqrt(lam) * np.eye(k)])
        rhs = np.concatenate([targets, np.zeros(k)])
        coeffs, _, _, _ = np.linalg.lstsq(aug, rhs, rcond=None)
        return coeffs
    coeffs, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < min(n, k):
        warnings.warn(
            f"unregularized design is rank-deficient (rank {rank} < {min(n, k)}); "
            "solution is the minimum-norm minimizer",
            stacklevel=2,
        )
    return coeffs


@dataclass(frozen=True)
class FitConfig:
    """Knobs for one scalar random-feature fit.

    `seed` roots the feature bank's two streams: functional weights come
    from derive_seed(seed, 0) and thresholds from derive_seed(seed, 1).
    """

    functional_spec: FunctionalSpec
    width: int = 64
    max_width: int = 512
    activation: object = "tanh"
    theta_range: tuple[float, float] = (-3.0, 3.0)
    lam: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be at least 1, got {self.width}")
        if self.max_width < self.width:
            raise ValueError("max_width must be at least width")
        if self.lam < 0:
            raise ValueError("regularization must be nonnegative")
        lo, hi = self.theta_range
        if not hi > lo:
            raise ValueError(f"threshold range must be increasing, got {self.theta_range}")
        object.__setattr__(self, "activation", make_activation(self.activation))


@dataclass(frozen=True, eq=False)
class ScalarRidgeNet:
    """Scalar network sum_k c_k eta(l_k(s) - theta_k); feature 0 is the bias."""

    functionals: tuple
    thetas: np.ndarray
    coeffs: np.ndarray
    activation: Activation
    sup_error: float

    @property
    def width(self):
        return len(self.functionals)

    def design_matrix(self, samples) -> np.ndarray:
        return _design_matrix(samples, self.functionals, self.thetas, self.activation)

    def evaluate_many(self, samples) -> np.ndarray:
        return self.design_matrix(samples) @ self.coeffs

    def __call__(self, s) -> float:
        return float(self.evaluate_many([s])[0])


def draw_features(cfg: FitConfig, width: int, signature: tuple):
    """Feature bank for a width: index 0 is the bias, the rest are random.

    Weights of features 1.. are drawn in order from the generator seeded by
    derive_seed(cfg.seed, 0), and thresholds of features 0.. from the one
    seeded by derive_seed(cfg.seed, 1).  Smaller widths are therefore
    prefixes of larger ones, so width sweeps compare nested models.
    assemble_vector_network grows coefficient j's bank from the same streams
    under derive_seed(cfg.seed, j), so its neurons are the features this
    function draws for that seed.
    """
    spec = cfg.functional_spec
    _require_pairing(spec, signature)
    params, thetas = _draw_rows(cfg, _feature_streams(cfg.seed), 0, width)
    functionals = (ZeroFunctional(),) + tuple(functional_from_params(spec, p)
                                              for p in params[1:])
    return functionals, thetas


def _require_pairing(spec: FunctionalSpec, signature: tuple):
    if spec.signature != signature:
        raise ShapeError(
            f"functional spec draws {spec.signature} functionals, ensemble is {signature}"
        )


def _feature_streams(seed):
    """The (weights, thresholds) generators of one feature bank."""
    return (np.random.default_rng(derive_seed(seed, 0)),
            np.random.default_rng(derive_seed(seed, 1)))


def _draw_rows(cfg: FitConfig, streams, start: int, stop: int):
    """Functional parameters and thresholds of features [start, stop).

    Feature 0 is the bias: a zero parameter row that draws no weights.
    """
    weights_rng, thresholds_rng = streams
    params = draw_functional_params(cfg.functional_spec, weights_rng, stop - max(start, 1))
    if start == 0:
        params = np.vstack([np.zeros((1, params.shape[1])), params])
    return params, thresholds_rng.uniform(*cfg.theta_range, stop - start)


def _design_matrix(samples, functionals, thetas, activation):
    samples = list(samples)
    flats = stack_flat(samples)
    weights = functional_matrix(functionals, samples[0].signature)
    return activation(flats @ weights.T - thetas)


def fit_ridge_features(inputs, targets, functionals, thetas, activation,
                       lam: float) -> ScalarRidgeNet:
    """Ridge-solve the coefficients for an explicit feature bank."""
    targets = np.asarray(targets, dtype=float)
    design = _design_matrix(inputs, functionals, thetas, activation)
    if design.shape[0] != targets.shape[0]:
        raise ShapeError("one target per input sample required")
    coeffs = least_squares_solve(design, targets, lam)
    sup_error = float(np.max(np.abs(design @ coeffs - targets))) if len(targets) else 0.0
    return ScalarRidgeNet(tuple(functionals), np.asarray(thetas, dtype=float),
                          coeffs, activation, sup_error)


def fit_scalar_ridge(inputs: CompactEnsemble, targets, cfg: FitConfig) -> ScalarRidgeNet:
    """Draw cfg.width seeded features and ridge-fit the coefficients."""
    functionals, thetas = draw_features(cfg, cfg.width, inputs.signature)
    return fit_ridge_features(inputs, targets, functionals, thetas, cfg.activation, cfg.lam)


@dataclass(frozen=True)
class ErrorBudget:
    """Two-stage error split: epsilon/2 for the net, epsilon/(2mC) per fit."""

    epsilon: float
    m: int
    C: float
    delta: float | None
    degenerate: bool

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


@dataclass(frozen=True, eq=False)
class AssemblyReport:
    """What the pipeline actually achieved, stage by stage."""

    stage1_sup: float
    coefficient_errors: np.ndarray
    coefficient_widths: np.ndarray
    converged: bool
    train_sup_error: float


def assemble_vector_network(f_values, ensemble: CompactEnsemble, family: SeminormFamily,
                            rho_index: int, epsilon: float, fit_cfg: FitConfig):
    """Run the full two-stage construction for one target seminorm.

    Returns (network, budget, report).  A scalar stage that cannot reach its
    tolerance at fit_cfg.max_width leaves report.converged False rather than
    raising; whenever it is True, the training uniform error is below epsilon
    by construction, and a BudgetError is raised if it is not.
    """
    f_values = list(f_values)
    if len(f_values) != len(ensemble):
        raise ShapeError("one operator value per ensemble sample required")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    rho = family[rho_index]
    out_dim = f_values[0].dim
    out_grid = f_values[0].grid

    net1 = build_epsilon_net(f_values, rho, epsilon / 2.0)
    pou = build_partition(f_values, net1, rho)
    stage1_sup = float(np.max(np.sum(pou.weights * pou.distances, axis=1)))
    if not stage1_sup < (epsilon / 2.0) * (1.0 + 1e-9):
        raise BudgetError(f"stage-1 error {stage1_sup} reached its budget {epsilon / 2.0}")

    m = len(net1)
    c_max = float(np.max(rho.batch(*stack_values(net1.centers))))
    if c_max == 0.0:
        # every center is rho-null, so the zero network is already within
        # epsilon/2; return it
        network = ShallowVectorNetwork.zero(fit_cfg.activation, ensemble.signature,
                                            out_dim, out_grid)
        budget = ErrorBudget(float(epsilon), m, 0.0, None, True)
        train_sup = float(np.max(_seminorm_rows(rho, *stack_values(f_values))))
        if not train_sup < (epsilon / 2.0) * (1.0 + 1e-9):
            raise BudgetError(
                f"rho-null centers leave uniform error {train_sup} with epsilon {epsilon}"
            )
        report = AssemblyReport(stage1_sup, np.zeros(m), np.zeros(m, dtype=int),
                                True, train_sup)
        return network, budget, report

    delta = epsilon / (2.0 * m * c_max)
    budget = ErrorBudget(float(epsilon), m, float(c_max), float(delta), False)

    L, thetas, V, errors, widths = _fit_coefficients(ensemble, pou.weights, net1.centers,
                                                     fit_cfg, delta)
    network = ShallowVectorNetwork(L, thetas, V, fit_cfg.activation, ensemble.signature,
                                   out_grid)
    converged = bool(np.all(errors < delta))
    train_sup = float(uniform_error(f_values, network, ensemble,
                                    SeminormFamily((rho,)))[0])
    if converged and not train_sup < epsilon * (1.0 + 1e-9):
        raise BudgetError(f"budget violated: uniform error {train_sup} with epsilon {epsilon}")
    report = AssemblyReport(stage1_sup, errors, widths, converged, train_sup)
    return network, budget, report


def _fit_coefficients(ensemble, weights, centers, fit_cfg: FitConfig, delta: float):
    """Fit partition column j with bank derive_seed(fit_cfg.seed, j) and
    return the network matrices (L, theta, V), sup errors and widths.

    Column j contributes one block of rows: its bank's weight rows and
    thresholds, and the outer product of its ridge coefficients with center j.
    """
    _require_pairing(fit_cfg.functional_spec, ensemble.signature)
    flats = stack_flat(ensemble)
    m = len(centers)
    blocks = []
    errors = np.empty(m)
    widths = np.empty(m, dtype=int)
    for j, vj in enumerate(centers):
        L_j, thetas, coeffs, errors[j] = _fit_to_tolerance(
            flats, weights[:, j], fit_cfg, derive_seed(fit_cfg.seed, j), delta
        )
        widths[j] = len(thetas)
        blocks.append((L_j, thetas, np.outer(coeffs, vj.values)))
    L, thetas, V = (np.concatenate(parts) for parts in zip(*blocks))
    return L, thetas, V, errors, widths


def _fit_to_tolerance(flats, targets, cfg: FitConfig, seed, delta: float):
    """Double the width until the training sup error drops below delta.

    The bank is the one draw_features(replace(cfg, seed=seed), width) gives.
    Each doubling continues its two streams for the new features only and
    appends their design columns.  Returns (weight rows, thetas, coeffs,
    sup error); the bias feature's weight row is zero.
    """
    streams = _feature_streams(seed)
    L = thetas = design = None
    width, target = 0, cfg.width
    while True:
        new_params, new_thetas = _draw_rows(cfg, streams, width, target)
        new_L = functional_weights(cfg.functional_spec, new_params)
        columns = flats @ new_L.T
        columns -= new_thetas
        columns = cfg.activation(columns)
        if design is None:
            L, thetas, design = new_L, new_thetas, columns
        else:
            L = np.vstack([L, new_L])
            thetas = np.concatenate([thetas, new_thetas])
            design = np.hstack([design, columns])
        width = target
        coeffs = least_squares_solve(design, targets, cfg.lam)
        sup_error = float(np.max(np.abs(design @ coeffs - targets)))
        if sup_error < delta or width >= cfg.max_width:
            return L, thetas, coeffs, sup_error
        target = min(2 * width, cfg.max_width)


def uniform_error(f_values, net: ShallowVectorNetwork, ensemble,
                  family: SeminormFamily) -> np.ndarray:
    """Per-seminorm max over samples of rho(F(s) - net(s)).

    One batched pass per seminorm over the residual matrix.
    """
    f_values = list(f_values)
    samples = list(ensemble)
    if len(f_values) != len(samples):
        raise ShapeError("one operator value per sample required")
    # evaluate before stacking the values and drop the outputs before the
    # seminorm passes, so no two (n, dim) matrices are live beside the
    # temporaries of either step
    approx = net.evaluate_many(samples)
    F, grid = stack_values(f_values)
    if approx.shape != F.shape:
        raise ShapeError(f"network outputs {approx.shape} do not match values {F.shape}")
    F -= approx
    del approx
    return np.array([np.max(_seminorm_rows(rho, F, grid)) for rho in family])


def dual_uniform_error(f_values, net: ShallowVectorNetwork, ensemble, duals) -> np.ndarray:
    """Max over samples of |<t', F(s) - net(s)>| for each dual pairing."""
    return uniform_error(f_values, net, ensemble, SeminormFamily(tuple(duals)))
