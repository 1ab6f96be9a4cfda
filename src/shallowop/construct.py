"""The constructive approximation pipeline.

Stage 1 (stage1_partition) compresses the operator's sampled image to a
finite net and a subordinate partition of unity, giving a finite-rank map
within its budget, epsilon/2.  Stage 2 fits each of the m partition
coefficients with a random-feature ridge network to tolerance
delta = (epsilon - budget) / (m C), where C is the largest center seminorm.
The triangle inequality then bounds the assembled network's uniform error by
epsilon whenever every scalar fit met delta.
"""

from __future__ import annotations

import functools
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
from .network import (
    ShallowVectorNetwork,
    _in_shares,
    _one_blas_thread,
    _openblas,
    make_activation,
)
from .seeding import derive_seed
from .targets import (
    Seminorm,
    SeminormFamily,
    _as_array,
    _as_float,
    _as_int,
    _as_real,
    _row_blocks,
)

#: bytes of float64 designs per stacked solve in a share of stage 2.  A
#: share holds its stack's designs and one LAPACK copy of them at once (the
#: activation's result, then the operand of _dgels_members, which with
#: lam > 0 adds a k x k ridge block per member).  A stack holds at least
#: one member, of 8 n k bytes, so a share's working set is at most twice
#: max(SOLVE_STACK_BYTES, 8 n k), plus the ridge blocks, however many
#: columns there are
SOLVE_STACK_BYTES = 1 << 19


def _seminorm_rows(rho: Seminorm, values: np.ndarray, center=None) -> np.ndarray:
    """rho(values[i] - center) for every row i, one row block (_row_blocks)
    at a time.

    center is one row (or None for zero); a row's value does not depend on
    the block it falls in.
    """
    out = np.empty(values.shape[0])
    for rows in _row_blocks(*values.shape):
        out[rows] = rho(values[rows] if center is None else values[rows] - center)
    return out


@dataclass(frozen=True, eq=False)
class EpsilonNet:
    """Greedy net: centers, a read-only (m, d) matrix of source value rows,
    cover those values strictly within epsilon.

    distances[i, j] is the seminorm distance from source value i to center
    j, the read-only (n, m) matrix the scan computed.  Center j is source
    value np.argmax(distances[:, j] == 0): no earlier value is at distance
    0 from it, else that value would have covered it.
    """

    centers: np.ndarray
    epsilon: float
    distances: np.ndarray

    def __len__(self):
        return len(self.centers)


def build_epsilon_net(values, rho: Seminorm, epsilon: float) -> EpsilonNet:
    """Scan values in order; keep one as a center iff no existing center is
    strictly within epsilon of it.

    Every value ends up strictly covered and centers stay pairwise >= epsilon
    apart, which is exactly the finite-cover step of the compactness argument.
    Each accepted center gets one batched seminorm pass over all values,
    which is its column of the net's distances; the next center is the first
    value whose nearest center so far is at distance >= epsilon.  Earlier
    values are covered or centers, so that is the first such later value.
    values is the (n, d) matrix of source values, read by the array rule
    (arg values), and the centers are the rows the scan keeps.
    epsilon must be a finite number > 0, else a ConfigError names it.
    """
    epsilon = _as_float(epsilon, "epsilon", above=0)
    F = _as_array(values, "values", 2)
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
        column = _seminorm_rows(rho, F, F[i])
        distances[:, len(indices)] = column
        indices.append(i)
        np.minimum(nearest, column, out=nearest)
        uncovered = np.flatnonzero(nearest >= epsilon)
        if not uncovered.size:
            break
        i = int(uncovered[0])
    distances = distances[:, :len(indices)].copy()
    distances.setflags(write=False)
    centers = F[indices]
    centers.setflags(write=False)
    return EpsilonNet(centers, epsilon, distances)


def build_partition(net: EpsilonNet, rho: Seminorm) -> np.ndarray:
    """The (n, m) weights psi_j(s_i): hats max(0, 1 - dist/epsilon) on the
    net's distances, normalized per sample.

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
    return raw / norms[:, None]


def stage1_partition(f_values, rho: Seminorm, epsilon: float):
    """Stage 1 at epsilon: (T, U, stage1_sup, budget).

    budget = epsilon/2 is stage 1's share of epsilon, and the radius of the
    net of f_values (an (n, d) matrix) under rho; U is the net's (m, d)
    centers and T the (n, m) partition weights on them.  stage1_sup, the
    largest sum_j T_ij rho(F_i - U_j), bounds rho(F - T U) on every sample
    by convexity, and a BudgetError is raised unless it is below budget.
    Stage 2 then has epsilon - budget to spend.  epsilon must be a finite
    number > 0, else a ConfigError names it.
    """
    budget = _as_float(epsilon, "epsilon", above=0) / 2.0
    net = build_epsilon_net(f_values, rho, budget)
    T = build_partition(net, rho)
    stage1_sup = float(np.max(np.sum(T * net.distances, axis=1)))
    if not stage1_sup < budget * (1.0 + 1e-9):
        raise BudgetError(f"stage-1 error {stage1_sup} reached its budget {budget}")
    return T, net.centers, stage1_sup, budget


def least_squares_solve(design: np.ndarray, targets: np.ndarray, lam: float) -> np.ndarray:
    """Minimize ||A c - y||^2 + lam ||c||^2 for each member of a stack.

    design is a (b, n, k) stack with targets (b, n, r), r >= 1
    right-hand sides per member, and the result is (b, k, r); one target
    column is y[..., None], and one design the stack design[None].  The
    stack is copied into one LAPACK buffer and each member is one dgels
    call on it, with its r right-hand sides, after which INFO, R's diagonal
    and the coefficients are checked for the whole stack (see
    _dgels_members); a member those checks leave is solved alone by SVD
    least squares, which with lam = 0 gives the minimum-norm minimizer and
    warns, once per member, that the design is rank-deficient.  A design or
    targets array of strings, booleans, complex numbers or objects, or with
    a non-finite entry, is refused by a ConfigError naming it, and a design
    with an empty axis, or targets of any other shape, by a ShapeError
    naming it, before any member is solved.  A member's result depends only
    on its own design, targets and lam.  OpenBLAS is held at one thread
    (_one_blas_thread).
    """
    design = np.asarray(_as_real(design, "design"), dtype=float)
    targets = np.asarray(_as_real(targets, "targets"), dtype=float)
    if design.ndim != 3 or 0 in design.shape:
        raise ShapeError(f"must be a nonempty 3-d array, got shape {design.shape}", "design")
    if targets.ndim != 3 or targets.shape[:2] != design.shape[:2] or not targets.shape[2]:
        raise ShapeError(f"must be (b, n, r), r >= 1: design {design.shape} and targets "
                         f"{targets.shape} are inconsistent", "targets")
    for arg, values, subject in (("design", design, "design rows"), ("targets", targets, None)):
        if not np.all(np.isfinite(values)):
            raise ConfigError("contain non-finite entries", arg, subject)
    lam = _as_float(lam, "lam", 0, subject="regularization lam")
    with _one_blas_thread():
        coeffs = _dgels_members(design, targets, lam)
        for i in np.flatnonzero(~np.all(np.isfinite(coeffs), axis=(1, 2))):
            coeffs[i] = _svd_solve(design[i], targets[i], lam)
    return coeffs


def _dgels_members(design: np.ndarray, targets: np.ndarray, lam: float) -> np.ndarray:
    """Each member's coefficients by one LAPACK dgels call (a Householder
    QR), NaN for one left to the SVD fallback: every member without the
    library, and one whose triangular factor R has a zero diagonal entry
    (INFO > 0), is numerically singular (min |r_ii| / max |r_ii| <=
    eps * max(n, k)) or gives non-finite coefficients.  The stack must be
    finite, as least_squares_solve checks, with (b, n, r) targets and a
    (b, k, r) result.  A tall design (n >= k) or
    lam > 0 is solved as [A; sqrt(lam) I] c = [y; 0] ('N'), so the
    conditioning is that of A, not A^T A; a wide one with lam = 0 through
    A^T ('T'), which gives the minimum-norm c.  The whole stack is copied
    column-major into one buffer, which the members' R factors overwrite,
    and its right-hand sides into another, r columns of ldb = rows entries
    per member; one workspace query serves the stack, each member is one
    dgels call with NRHS = r at its offset in the two buffers, and INFO and
    the diagonals of R are read for every member at once.
    """
    (b, n, k), r = design.shape, targets.shape[2]
    coeffs = np.full((b, k, r), np.nan)
    library = _openblas()
    if library is None:
        return coeffs
    tall = lam > 0 or n >= k
    rows, cols = (n + k if lam > 0 else n, k) if tall else (k, n)
    # buffer[i] row j is column j of the matrix LAPACK factors for member i
    # (102: column-major)
    buffer, rhs, query = np.empty((b, cols, rows)), np.empty((b, r, rows)), np.empty(1)
    if tall:
        ridge = np.sqrt(lam) * np.eye(k, rows - n)
        buffer[:, :, :n], buffer[:, :, n:] = design.transpose(0, 2, 1), ridge
    else:
        buffer[:] = design
    rhs[:, :, :n], rhs[:, :, n:] = targets.transpose(0, 2, 1), 0.0
    # member i's operands start i strides into each buffer
    (a, a_step), (y, y_step) = ((x.ctypes.data, x.strides[0]) for x in (buffer, rhs))
    dgels = functools.partial(library[0], 102, b"N" if tall else b"T", rows, cols, r)
    dgels(a, rows, y, rows, query.ctypes.data, -1)
    work = np.empty(max(1, int(query[0])))
    w, lwork = work.ctypes.data, work.size
    info = np.array([dgels(a + i * a_step, rows, y + i * y_step, rows, w, lwork)
                     for i in range(b)])
    if np.any(info < 0):
        raise RuntimeError(f"dgels refused its argument {-info.min()}")
    diag = np.abs(np.diagonal(buffer, axis1=1, axis2=2))
    solved = (info == 0) & (diag.min(axis=1) > np.finfo(float).eps * max(n, k) * diag.max(axis=1))
    coeffs[solved] = rhs[solved, :, :k].transpose(0, 2, 1)
    return coeffs


def _svd_solve(design: np.ndarray, targets: np.ndarray, lam: float) -> np.ndarray:
    """One member by SVD least squares on the sqrt(lam)-augmented design,
    with (n, r) targets and a (k, r) result."""
    n, k = design.shape
    if lam > 0:
        aug = np.vstack([design, np.sqrt(lam) * np.eye(k)])
        rhs = np.concatenate([targets, np.zeros((k,) + targets.shape[1:])])
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

    `seed` is the fit seed s: assembly seeds bank j, the feature bank that
    fits partition column j, with derive_seed(s, j) (see seeding.py);
    fit_columns never reads it, and fits the columns given to each seed
    with that seed's bank.
    A config's `fit` mapping holds the fields between the spec and the seed,
    with their defaults, and report.json echoes it in this field order.
    """

    functional_spec: FunctionalSpec
    activation: object = "tanh"
    width: int = 64
    max_width: int = 512
    theta_range: tuple[float, float] = (-3.0, 3.0)
    lam: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.functional_spec, FunctionalSpec):
            raise ConfigError(f"must be a FunctionalSpec, got {self.functional_spec!r}",
                              "functional_spec")
        object.__setattr__(self, "width", _as_int(self.width, "width", 1, sized=True))
        object.__setattr__(self, "max_width", _as_int(self.max_width, "max_width", self.width,
                                                      sized=True))
        object.__setattr__(self, "lam", _as_float(self.lam, "lam", 0,
                                                  subject="regularization lam"))
        theta = self.theta_range
        if not isinstance(theta, (list, tuple)) or len(theta) != 2:
            raise ConfigError(f"must be a (low, high) pair, got {theta!r}", "theta_range")
        lo = _as_float(theta[0], "theta_range", subject="threshold range low")
        hi = _as_float(theta[1], "theta_range", subject="threshold range high", above=lo)
        if not np.isfinite(hi - lo):
            raise ConfigError(f"must have a finite width high - low, got {theta!r}",
                              "theta_range")
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


def fit_ridge_features(design: np.ndarray, targets: np.ndarray, lam: float):
    """Ridge-solve the coefficients of a (b, n, k) stack of designs with
    targets (b, n, r) (see least_squares_solve).

    Returns (coeffs, sup_error): coeffs (b, k, r), and sup_error (b, r),
    each member's largest absolute training residual per column.
    """
    coeffs = least_squares_solve(design, targets, lam)
    return coeffs, np.max(np.abs(np.matmul(design, coeffs) - targets), axis=1)


def fit_columns(flats: np.ndarray, targets: np.ndarray, cfg: FitConfig, seeds,
                delta: float):
    """Fit the r consecutive columns j r, ..., j r + r - 1 of targets with
    the feature bank seeded by seeds[j], r = targets.shape[1] / len(seeds),
    every bank stepping through the width schedule in lockstep, and return
    the factors (P, theta, c, widths, sup_errors) of the network whose block
    j is bank j.

    flats is the (n_samples, dim) input matrix, read by the array rule
    (arg flats), and so is targets (arg targets), which must have
    n_samples rows and r >= 1 columns per seed, else a ShapeError names
    targets; delta must be a finite number >= 0, else a ConfigError names
    it.  All pending banks share one width: cfg.width, doubled per step up
    to cfg.max_width (a fixed-width fit sets max_width = width).  A step
    first draws every pending bank's new features with draw_features on
    the calling thread, continuing its streams, then splits the pending
    banks into one contiguous share per CPU this process may use, run by
    _in_shares; a share builds and solves its designs in stacks of at most
    SOLVE_STACK_BYTES, each stack's designs by one product, one threshold
    subtraction and one activation call, and each member's r columns by
    one solve.  A bank stops once the training sup error of every one of
    its columns is below delta or its width reaches cfg.max_width.  Each
    design is eta(S P^T - theta), the pre-activation a network evaluates,
    with the inputs projected once, S = flats B^T (S = flats with no
    basis).  Block j is widths[j] neurons: its bank's parameters P, as
    draw_features returns them, thresholds theta and its (widths[j], r)
    coefficients, row by row in c, each factor concatenated in bank order
    and read-only, so a network holds it without a copy; sup_errors[i] is
    column i's training error.  With one column per seed (r = 1), block j
    fits column j and c holds one coefficient per neuron.  No block depends
    on the shares.  OpenBLAS is held at one thread throughout, the
    projection S outside the shares too.
    """
    spec = cfg.functional_spec
    dim = signature_dim(spec.signature)
    flats = _as_array(flats, "flats", 2, subject="inputs")
    if flats.shape[1] != dim:
        raise ShapeError(f"must have rows of {dim} entries, got {flats.shape}", "flats", "inputs")
    n = flats.shape[0]
    targets = _as_array(targets, "targets", 2)
    if not len(seeds) or len(targets) != n or targets.shape[1] % len(seeds):
        raise ShapeError(f"must be ({n}, r * {len(seeds)}), r >= 1 columns per seed and at "
                         f"least one seed, got shape {targets.shape}", "targets")
    delta = _as_float(delta, "delta", 0)
    # bank j's (n, r) targets are columns[:, j]
    columns = targets.reshape(n, len(seeds), -1)
    # bank j's (parameters, thresholds) generators, rooted at seeds[j]
    streams = [tuple(np.random.default_rng(derive_seed(seed, k)) for k in (0, 1))
               for seed in seeds]
    banks, coeffs, sup_errors = [None] * len(seeds), [None] * len(seeds), [None] * len(seeds)
    pending = list(range(len(seeds)))
    width, target = 0, cfg.width

    def fit_share(share):
        # members per stack: as many as keep the designs within
        # SOLVE_STACK_BYTES, and at least one
        size = max(1, SOLVE_STACK_BYTES // (8 * n * target))
        for first in range(0, len(share), size):
            stack = share[first:first + size]
            # member i holds the transposed design A^T: one feature per row
            designs = np.empty((len(stack), target, n))
            P, thetas = (np.stack(parts) for parts in zip(*(banks[j] for j in stack)))
            np.matmul(P, S.T, out=designs)
            designs -= thetas[:, :, None]
            designs[...] = cfg.activation(designs)
            fitted, errors = fit_ridge_features(designs.transpose(0, 2, 1),
                                                columns[:, stack].transpose(1, 0, 2), cfg.lam)
            for i, j in enumerate(stack):
                if errors[i].max() < delta or target >= cfg.max_width:
                    coeffs[j], sup_errors[j] = fitted[i], errors[i]

    with _one_blas_thread():
        S = flats if spec.basis is None else flats @ spec.basis.T
        while pending:
            for j in pending:
                grown = draw_features(cfg, streams[j], width, target)
                banks[j] = grown if width == 0 else tuple(
                    np.concatenate(parts) for parts in zip(banks[j], grown))
            _in_shares(fit_share, pending)
            pending = [j for j in pending if coeffs[j] is None]
            width, target = target, min(2 * target, cfg.max_width)
    P, theta = (np.concatenate(parts) for parts in zip(*banks))
    c, sup_errors = (np.concatenate(parts, axis=None) for parts in (coeffs, sup_errors))
    widths = np.array([len(thetas) for _, thetas in banks], dtype=int)
    for factor in (P, theta, c, widths, sup_errors):
        factor.setflags(write=False)  # new arrays, held by the network without a copy
    return P, theta, c, widths, sup_errors


@dataclass(frozen=True, eq=False)
class AssemblyReport:
    """What the pipeline budgeted and actually achieved, stage by stage.

    stage1_budget is the share of epsilon stage 1 kept (see
    stage1_partition), and stage1_sup the bound it reached; each of the m
    fits gets delta = (epsilon - stage1_budget)/(m C), and a report whose
    delta m C overruns epsilon - stage1_budget is refused.  A degenerate run
    (C = 0) carries no delta.  train_errors holds the training uniform
    error under every member of the family, the targeted member's at its
    rho_index.
    """

    epsilon: float
    m: int
    C: float
    delta: float | None
    stage1_sup: float
    stage1_budget: float
    coefficient_errors: np.ndarray
    coefficient_widths: np.ndarray
    converged: bool
    train_errors: np.ndarray

    def __post_init__(self):
        if self.C == 0.0:
            if self.delta is not None:
                raise ValueError("degenerate budget carries no per-coefficient tolerance")
        else:
            if self.delta is None or not self.delta > 0:
                raise ValueError("per-coefficient tolerance must be positive")
            if self.delta * self.m * self.C > (self.epsilon - self.stage1_budget) * (1.0 + 1e-12):
                raise ValueError("per-coefficient tolerance overruns the stage budget")


def assemble_vector_network(f_values, ensemble: CompactEnsemble,
                            family: SeminormFamily, rho_index: int, epsilon: float,
                            fit_cfg: FitConfig):
    """Run the full two-stage construction for the target seminorm
    rho = family[rho_index], and return (network, report).

    f_values is the (n, d) matrix of the operator value of each ensemble
    sample, read by the array rule (arg f_values); the network's outputs
    are on family.grid.  ensemble must be a CompactEnsemble, epsilon a
    finite number > 0 and rho_index an integer in [0, len(family)),
    else a ConfigError names the argument, and fit_cfg's spec must draw
    functionals of the ensemble's signature, else a ShapeError; all are
    checked before stage 1 runs.  Stage 1 is stage1_partition, which gives
    the (n, m) partition weights T and the (m, d) centers U, with T U within
    its budget of f_values; C is checked between the stages.  Stage 2 is
    one fit_columns call on T, column j seeded by
    derive_seed(fit_cfg.seed, j), to delta = (epsilon - budget)/(m C), and
    the network is ShallowVectorNetwork(P, theta, c, U, widths) on its
    factors.
    A fit that cannot reach delta at fit_cfg.max_width leaves
    report.converged False rather than raising; whenever it is True, the
    training uniform error is below epsilon by construction, and a
    BudgetError is raised if it is not.  The training errors come from one
    uniform_error pass over the whole family, so a caller that wants them
    under more seminorms than the target passes those in the family too.
    """
    f_values = _as_array(f_values, "f_values", 2, subject="operator values")
    if not isinstance(ensemble, CompactEnsemble):
        raise ConfigError(f"must be a CompactEnsemble, got {type(ensemble).__name__}", "ensemble")
    if len(f_values) != len(ensemble):
        raise ShapeError("one operator value per ensemble sample required")
    epsilon = _as_float(epsilon, "epsilon", above=0)
    rho_index = _as_int(rho_index, "rho_index", 0)
    if rho_index >= len(family):
        raise ConfigError(f"must be below {len(family)}, got {rho_index}", "rho_index")
    spec = fit_cfg.functional_spec
    if spec.signature != ensemble.signature:
        raise ShapeError(f"functional spec draws {spec.signature} functionals, ensemble is "
                         f"{ensemble.signature}")
    rho = family[rho_index]

    T, U, stage1_sup, budget = stage1_partition(f_values, rho, epsilon)
    m = len(U)
    c_max = float(np.max(rho(U)))
    if c_max == 0.0:
        # every center is rho-null, so the zero network is already within
        # stage 1's budget, which is then the bound its training error is
        # held to
        network = ShallowVectorNetwork.zero(fit_cfg.activation, ensemble.signature,
                                            f_values.shape[1], family.grid)
        delta, errors, widths = None, np.zeros(m), np.zeros(m, dtype=int)
        converged, bound = True, budget
    else:
        delta = float((epsilon - budget) / (m * c_max))
        seeds = [derive_seed(fit_cfg.seed, j) for j in range(m)]
        P, theta, c, widths, errors = fit_columns(ensemble.flats, T, fit_cfg, seeds, delta)
        network = ShallowVectorNetwork(P, theta, c, U, widths, fit_cfg.activation,
                                       ensemble.signature, family.grid, spec.basis)
        converged, bound = bool(np.all(errors < delta)), epsilon

    train_errors = uniform_error(f_values, network, ensemble, family)
    train_sup = float(train_errors[rho_index])
    if converged and not train_sup < bound * (1.0 + 1e-9):
        raise BudgetError(f"budget violated: uniform error {train_sup} is not below {bound} "
                          f"with epsilon {epsilon}")
    report = AssemblyReport(float(epsilon), m, c_max, delta, stage1_sup, budget, errors,
                            widths, converged, train_errors)
    return network, report


def uniform_error(f_values, net: ShallowVectorNetwork, ensemble,
                  family: SeminormFamily) -> np.ndarray:
    """Per-seminorm max over samples of rho(F(s) - net(s)).

    f_values is the (n, d) matrix of the value of each sample of ensemble,
    a CompactEnsemble or an (n, dim) matrix of input rows, read by the
    array rule (arg f_values).  The family measures values on the
    network's output grid, so a family on another grid is a ShapeError
    naming family.  One batched pass per seminorm over the residual matrix,
    which overwrites the network outputs.
    """
    F = _as_array(f_values, "f_values", 2, subject="operator values")
    if len(F) != len(ensemble):
        raise ShapeError("one operator value per sample required")
    if family.grid != net.output_grid:
        raise ShapeError(f"is on grid {family.grid}, the network's outputs on "
                         f"{net.output_grid}", "family", "seminorm family")
    approx = net.evaluate_many(ensemble)
    if approx.shape != F.shape:
        raise ShapeError(f"network outputs {approx.shape} do not match values {F.shape}")
    residual = np.subtract(F, approx, out=approx)
    return np.array([np.max(_seminorm_rows(rho, residual)) for rho in family])

