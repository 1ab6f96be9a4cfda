import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shallowop import construct
from shallowop.construct import (
    SEMINORM_BLOCK_ROWS,
    AssemblyReport,
    EpsilonNet,
    FitConfig,
    assemble_vector_network,
    build_epsilon_net,
    build_partition,
    draw_features,
    fit_columns,
    fit_ridge_features,
    least_squares_solve,
    uniform_error,
)
from shallowop.errors import BudgetError, ConfigError, CoverageError, ShapeError
from shallowop.inputs import (
    EnsembleSpec,
    FunctionalSpec,
    sample_ensemble,
    signature_dim,
)
from shallowop.network import Polynomial, Relu, ShallowVectorNetwork, Tanh
from shallowop.operators import make_kernel, integral_operator, poisson_operator
from shallowop.seeding import derive_seed
from shallowop.targets import (
    DualPairing,
    GridMeta,
    LqNorm,
    SeminormFamily,
    SupDerivative,
    TargetBatch,
    TargetElement,
)

ABS = LqNorm(1.0)  # on 1-entry elements this is plain absolute value


def scalar_batch(*xs):
    """The 1-entry elements xs as one (len(xs), 1) batch."""
    return TargetBatch(np.array(xs, dtype=float)[:, None])


def batch_of(rows, grid=None):
    """The value rows, one element each, as one batch."""
    return TargetBatch(np.array(rows, dtype=float), grid)


def gap(rho, t, c):
    """rho(t - c) for two elements on t's grid."""
    return rho(TargetElement(t.values - c.values, t.grid))


def band_ensemble(count, grid, seed, radii=(1.0, 0.5, 0.25)):
    return sample_ensemble(
        EnsembleSpec(family="band_limited", count=count, radii=radii, grid=grid), seed
    )


def fn_spec(grid):
    return FunctionalSpec(("function", grid), order=3)


def reference_net_indices(values, rho, epsilon):
    """The greedy net, one scalar seminorm call per (value, center) pair."""
    centers, indices = [], []
    for i, t in enumerate(values):
        if all(gap(rho, t, c) >= epsilon for c in centers):
            centers.append(t)
            indices.append(i)
    return tuple(indices)


class TestEpsilonNet:
    def test_single_value(self):
        net = build_epsilon_net(scalar_batch(7.0), ABS, 0.5)
        assert len(net) == 1
        np.testing.assert_array_equal(net.centers[0].values, [7.0])

    def test_three_point_line(self):
        values = scalar_batch(0.0, 1.0, 2.0)
        net = build_epsilon_net(values, ABS, 1.5)
        assert [c.values[0] for c in net.centers] == [0.0, 2.0]
        # brute-force cover check: every value strictly within epsilon
        for t in values:
            assert min(gap(ABS, t, c) for c in net.centers) < 1.5

    def test_epsilon_above_diameter(self):
        values = scalar_batch(0.0, 1.0, 2.0)
        net = build_epsilon_net(values, ABS, 10.0)
        assert len(net) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_epsilon_net(TargetBatch(np.zeros((0, 1))), ABS, 1.0)
        with pytest.raises(ValueError):
            build_epsilon_net(scalar_batch(0.0), ABS, 0.0)

    @pytest.mark.parametrize("trial", range(10))
    def test_cover_and_separation(self, trial):
        rng = np.random.default_rng(300 + trial)
        rho = LqNorm(2.0)
        values = batch_of([rng.standard_normal(6) for _ in range(40)])
        net = build_epsilon_net(values, rho, 1.0)
        for t in values:
            assert min(gap(rho, t, c) for c in net.centers) < 1.0
        for a in range(len(net)):
            for b in range(a + 1, len(net)):
                assert gap(rho, net.centers[a], net.centers[b]) >= 1.0

    def test_value_at_exactly_epsilon_becomes_a_center(self):
        # |1.0 - 0.0| is exactly epsilon: not strictly covered
        values = scalar_batch(0.0, 0.5, 1.0, 1.25, 2.0)
        net = build_epsilon_net(values, ABS, 1.0)
        assert net.center_indices == (0, 2, 4)
        assert net.center_indices == reference_net_indices(values, ABS, 1.0)

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_scalar_greedy_loop(self, trial):
        rng = np.random.default_rng(360 + trial)
        grid = GridMeta(0.0, 1.0, 9)
        values = batch_of([rng.standard_normal(9) for _ in range(50)], grid)
        for rho, eps in ((LqNorm(2.0), 1.0), (SupDerivative(1), 12.0), (LqNorm(1.0), 0.6)):
            net = build_epsilon_net(values, rho, eps)
            assert net.center_indices == reference_net_indices(values, rho, eps)
            want = np.array([values[i].values for i in net.center_indices])
            assert net.centers.values.shape == want.shape
            assert net.centers.values.tobytes() == want.tobytes()

    def test_centers_are_a_read_only_batch_of_value_rows(self):
        rng = np.random.default_rng(380)
        grid = GridMeta(0.0, 1.0, 9)
        values = TargetBatch(rng.standard_normal((50, 9)), grid)
        net = build_epsilon_net(values, LqNorm(2.0), 1.0)
        assert len(net) > 1
        assert isinstance(net.centers, TargetBatch) and net.centers.grid == grid
        want = values.values[list(net.center_indices)]
        assert net.centers.values.shape == want.shape
        assert net.centers.values.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            net.centers.values[0, 0] = 1.0

    def test_matches_scalar_greedy_loop_across_row_blocks(self):
        rng = np.random.default_rng(370)
        values = scalar_batch(*rng.uniform(0.0, 10.0, 2 * SEMINORM_BLOCK_ROWS + 41))
        net = build_epsilon_net(values, ABS, 1.0)
        assert net.center_indices == reference_net_indices(values, ABS, 1.0)

    @pytest.mark.parametrize("rho, eps", [(LqNorm(2.0), 1.0), (SupDerivative(1), 20.0)],
                             ids=["lq", "sup_derivative"])
    def test_distances_are_one_pass_per_center(self, rho, eps):
        # the scan's passes over all rows are the net's distances, bit for bit,
        # and the partition reads that same array
        rng = np.random.default_rng(390)
        grid = GridMeta(0.0, 1.0, 9)
        values = TargetBatch(rng.standard_normal((2 * SEMINORM_BLOCK_ROWS + 41, 9)), grid)
        net = build_epsilon_net(values, rho, eps)
        assert len(net) > 32  # past two doublings of the net's distance buffer
        want = np.stack([construct._seminorm_rows(rho, values.values, grid, c)
                         for c in net.centers.values], axis=1)
        assert net.distances.shape == want.shape
        assert net.distances.tobytes() == want.tobytes()
        assert not net.distances.flags.writeable
        assert build_partition(net, rho).distances is net.distances

    @pytest.mark.parametrize("trial", range(5))
    def test_halving_epsilon_never_drops_centers(self, trial):
        rng = np.random.default_rng(320 + trial)
        values = batch_of([rng.standard_normal(4) for _ in range(60)])
        rho = LqNorm(2.0)
        counts = [len(build_epsilon_net(values, rho, eps)) for eps in (2.0, 1.0, 0.5, 0.25)]
        assert counts == sorted(counts)


class TestPartition:
    def test_single_center_is_all_ones(self):
        values = scalar_batch(0.0, 0.3, -0.2)
        net = build_epsilon_net(values, ABS, 5.0)
        pou = build_partition(net, ABS)
        np.testing.assert_array_equal(pou.weights, np.ones((3, 1)))

    # hand-built nets carry the distance rows of their samples: here sample
    # 0.0, 1.0 or (0.5, 9.0) against centers 0.0 and 2.0, or 0.0 alone
    def test_support_condition_gives_unit_weight(self):
        net = EpsilonNet(scalar_batch(0.0, 2.0), 1.5, (0, 1), np.array([[0.0, 2.0]]))
        pou = build_partition(net, ABS)
        np.testing.assert_array_equal(pou.weights, [[1.0, 0.0]])

    def test_equidistant_sample_splits_evenly(self):
        net = EpsilonNet(scalar_batch(0.0, 2.0), 2.0, (0, 1), np.array([[1.0, 1.0]]))
        pou = build_partition(net, ABS)
        np.testing.assert_array_equal(pou.weights, [[0.5, 0.5]])

    def test_uncovered_sample_diagnosed_by_index(self):
        net = EpsilonNet(scalar_batch(0.0), 1.0, (0,), np.array([[0.5], [9.0]]))
        with pytest.raises(CoverageError, match="sample 1"):
            build_partition(net, ABS)

    @pytest.mark.parametrize("trial", range(10))
    def test_partition_invariants(self, trial):
        rng = np.random.default_rng(340 + trial)
        rho = LqNorm(2.0)
        values = batch_of([rng.standard_normal(5) for _ in range(30)])
        net = build_epsilon_net(values, rho, 1.2)
        pou = build_partition(net, rho)
        assert np.all(pou.weights >= 0.0)
        np.testing.assert_allclose(pou.weights.sum(axis=1), 1.0, atol=1e-12)
        support = pou.weights > 0.0
        assert np.all(pou.distances[support] < 1.2)

    def test_distances_match_scalar_calls(self):
        rng = np.random.default_rng(350)
        rho = LqNorm(2.0)
        values = batch_of([rng.standard_normal(3) for _ in range(2 * SEMINORM_BLOCK_ROWS + 41)])
        net = build_epsilon_net(values, rho, 2.0)
        pou = build_partition(net, rho)
        want = [[gap(rho, t, c) for c in net.centers] for t in values]
        np.testing.assert_allclose(pou.distances, want, rtol=1e-12, atol=0)


def finite_rank(pou, net):
    """The finite-rank map on every sample: row i is sum_j psi_j(s_i) v_j."""
    return TargetBatch(pou.weights @ net.centers.values, net.centers.grid)


def overrun_partition(real):
    """build_partition, but with every distance at 1.5 times the net's
    epsilon, so the weighted distances reach the stage-1 budget."""
    def build(net, rho):
        pou = real(net, rho)
        return replace(pou, distances=np.full_like(pou.distances, 1.5 * net.epsilon))
    return build


class TestFiniteRank:
    def test_single_center_reproduced_exactly(self):
        values = scalar_batch(3.0, 3.2)
        net = build_epsilon_net(values, ABS, 1.0)
        pou = build_partition(net, ABS)
        out = finite_rank(pou, net)[1]
        np.testing.assert_array_equal(out.values, [3.0])

    def test_constant_operator_exact(self):
        values = scalar_batch(*[5.0] * 4)
        net = build_epsilon_net(values, ABS, 0.7)
        assert len(net) == 1
        pou = build_partition(net, ABS)
        out = finite_rank(pou, net)
        for i in range(4):
            assert gap(ABS, out[i], values[i]) == 0.0

    def test_convexity_bound_survives_stripped_asserts(self, monkeypatch):
        # assembly's stage-1 check: the largest sum_j psi_j d_ij must stay
        # below epsilon/2
        grid = GridMeta(0.0, 1.0, 101)
        ens = band_ensemble(5, grid, seed=1)
        values = TargetBatch(np.full((5, 101), 2.0), grid)
        cfg = FitConfig(functional_spec=fn_spec(grid), width=4, seed=0)
        monkeypatch.setattr(construct, "build_partition",
                            overrun_partition(construct.build_partition))
        with pytest.raises(BudgetError, match="stage-1 error .* reached its budget 0.05"):
            assemble_vector_network(values, ens, SeminormFamily((LqNorm(2.0),)), 0, 0.1, cfg)

    def test_convexity_bound_raises_under_python_O(self):
        code = (
            "from dataclasses import replace\n"
            "import numpy as np\n"
            "from shallowop import construct\n"
            "from shallowop.construct import FitConfig, assemble_vector_network\n"
            "from shallowop.errors import BudgetError\n"
            "from shallowop.inputs import EnsembleSpec, FunctionalSpec, sample_ensemble\n"
            "from shallowop.targets import GridMeta, LqNorm, SeminormFamily, TargetBatch\n"
            "grid = GridMeta(0.0, 1.0, 101)\n"
            "spec = EnsembleSpec('band_limited', 5, radii=(1.0,), grid=grid)\n"
            "ens = sample_ensemble(spec, 1)\n"
            "values = TargetBatch(np.full((5, 101), 2.0), grid)\n"
            "cfg = FitConfig(functional_spec=FunctionalSpec(('function', grid)), width=4)\n"
            "real = construct.build_partition\n"
            "def overrun(net, rho):\n"
            "    pou = real(net, rho)\n"
            "    return replace(pou, distances=np.full_like(pou.distances, 1.5 * net.epsilon))\n"
            "construct.build_partition = overrun\n"
            "try:\n"
            "    family = SeminormFamily((LqNorm(2.0),))\n"
            "    assemble_vector_network(values, ens, family, 0, 0.1, cfg)\n"
            "except BudgetError as exc:\n"
            "    print(__debug__, exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(construct.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("False stage-1 error")

    def test_poisson_image_bound(self):
        # the finite-rank stage must bring every sampled Poisson solution
        # within epsilon under the L2 seminorm
        grid = GridMeta(0.0, 1.0, 101)
        op = poisson_operator(grid)
        ens = band_ensemble(50, grid, seed=77)
        values = op.apply_many(ens)
        rho = LqNorm(2.0)
        eps = 0.05
        net = build_epsilon_net(values, rho, eps)
        pou = build_partition(net, rho)
        out = finite_rank(pou, net)
        for i, t in enumerate(values):
            err = gap(rho, t, out[i])
            bound = float(np.dot(pou.weights[i], pou.distances[i]))
            assert err <= bound + 1e-9 * eps
            assert bound < eps * (1.0 + 1e-9)
            assert err < eps


class TestLeastSquares:
    def test_identity_system(self):
        (c,) = least_squares_solve(np.eye(2)[None], np.array([[3.0, 4.0]]), 0.0)
        np.testing.assert_allclose(c, [3.0, 4.0], rtol=1e-12)

    def test_mean_through_ones_column(self):
        a = np.ones((6, 1))
        (c,) = least_squares_solve(a[None], np.full((1, 6), 5.0), 0.0)
        np.testing.assert_allclose(c, [5.0], rtol=1e-12)

    def test_no_random_perturbation_beats_solution(self):
        rng = np.random.default_rng(400)
        a = rng.standard_normal((40, 10))
        y = rng.standard_normal(40)
        (c,) = least_squares_solve(a[None], y[None], 0.0)
        best = np.sum((a @ c - y) ** 2)
        for _ in range(1000):
            xi = rng.standard_normal(10)
            xi *= 1e-3 / np.linalg.norm(xi)
            assert best <= np.sum((a @ (c + xi) - y) ** 2)

    def test_regularized_solution_solves_normal_equations(self):
        rng = np.random.default_rng(401)
        a = rng.standard_normal((30, 8))
        y = rng.standard_normal(30)
        lam = 0.01
        (c,) = least_squares_solve(a[None], y[None], lam)
        np.testing.assert_allclose(
            (a.T @ a + lam * np.eye(8)) @ c, a.T @ y, rtol=1e-8, atol=1e-10
        )

    def test_rank_deficiency_warns_only_unregularized(self):
        a = np.ones((5, 2))  # duplicate columns
        y = np.arange(5.0)
        with pytest.warns(UserWarning, match="rank-deficient"):
            least_squares_solve(a[None], y[None], 0.0)
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            least_squares_solve(a[None], y[None], 1e-10)

    def test_shape_and_sign_errors(self):
        with pytest.raises(ShapeError):
            least_squares_solve(np.eye(3)[None], np.ones((1, 2)), 0.0)
        with pytest.raises(ValueError):
            least_squares_solve(np.eye(2)[None], np.ones((1, 2)), -1.0)
        for lam in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lam"):
                least_squares_solve(np.eye(2)[None], np.ones((1, 2)), lam)
        with pytest.raises(ShapeError):
            least_squares_solve(np.ones((2, 3, 3)), np.ones((3, 3)), 0.0)
        with pytest.raises(ShapeError):  # one design is a stack of one
            least_squares_solve(np.eye(2), np.ones(2), 0.0)

    @pytest.mark.parametrize("lam", (0.0, 1e-3))
    @pytest.mark.parametrize("n, k", ((6, 3), (3, 6)), ids=("tall", "wide"))
    @pytest.mark.parametrize("arg, bad", [("design", np.nan), ("design", np.inf),
                                          ("targets", np.nan), ("targets", -np.inf)])
    def test_non_finite_member_refused_by_name(self, capfd, lam, n, k, arg, bad):
        rng = np.random.default_rng(402)
        stack = {"design": rng.standard_normal((2, n, k)), "targets": rng.standard_normal((2, n))}
        stack[arg][1].flat[1] = bad
        with pytest.raises(ConfigError, match="contain non-finite") as info:
            least_squares_solve(stack["design"], stack["targets"], lam)
        assert info.value.arg == arg
        # refused before LAPACK reads it, so LAPACK prints nothing
        assert capfd.readouterr() == ("", "")


def random_stack(rng, b, n, k):
    return rng.standard_normal((b, n, k)), rng.standard_normal((b, n))


def reference_solve(a, y, lam):
    """SVD least squares on the sqrt(lam)-augmented matrix, one matrix."""
    k = a.shape[1]
    aug = np.vstack([a, np.sqrt(lam) * np.eye(k)])
    return np.linalg.lstsq(aug, np.concatenate([y, np.zeros(k)]), rcond=None)[0]


class TestStackedSolve:
    # the last two are large enough for blocked factorizations
    SHAPES = [(30, 8, 0.0), (12, 12, 0.0), (8, 20, 0.0), (30, 8, 1e-3), (8, 20, 1e-3),
              (400, 96, 0.0), (80, 300, 0.0)]
    IDS = ["tall", "square", "wide", "tall_lam", "wide_lam", "tall_large", "wide_large"]

    @pytest.mark.parametrize("n, k, lam", SHAPES, ids=IDS)
    def test_agrees_with_per_matrix_lstsq(self, n, k, lam):
        rng = np.random.default_rng(n * k)
        a, y = random_stack(rng, 5, n, k)
        coeffs = least_squares_solve(a, y, lam)
        assert coeffs.shape == (5, k)
        for i in range(5):
            np.testing.assert_allclose(coeffs[i], reference_solve(a[i], y[i], lam),
                                       rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("n, k, lam", SHAPES, ids=IDS)
    def test_member_bitwise_independent_of_its_stack(self, n, k, lam):
        rng = np.random.default_rng(7 + n + k)
        a, y = random_stack(rng, 6, n, k)
        coeffs, errors = fit_ridge_features(a, y, lam)
        other_a, other_y = random_stack(rng, 4, n, k)
        for i in range(6):
            alone = fit_ridge_features(a[i:i + 1], y[i:i + 1], lam)
            np.testing.assert_array_equal(coeffs[i], alone[0][0])
            assert errors[i] == alone[1][0]
            # the same member among other members, at another position
            mixed_a = np.concatenate([other_a[:i % 4 + 1], a[i:i + 1], other_a])
            mixed_y = np.concatenate([other_y[:i % 4 + 1], y[i:i + 1], other_y])
            mixed, mixed_errors = fit_ridge_features(mixed_a, mixed_y, lam)
            np.testing.assert_array_equal(mixed[i % 4 + 1], coeffs[i])
            assert mixed_errors[i % 4 + 1] == errors[i]
        reversed_coeffs, _ = fit_ridge_features(a[::-1], y[::-1], lam)
        np.testing.assert_array_equal(reversed_coeffs[::-1], coeffs)

    @pytest.mark.parametrize("n, k", [(9, 4), (4, 9)], ids=["tall", "wide"])
    def test_rank_deficient_member_falls_back_alone(self, n, k):
        rng = np.random.default_rng(11)
        a, y = random_stack(rng, 3, n, k)
        # duplicate columns (tall) or rows (wide) make member 1 rank-deficient
        if n >= k:
            a[1, :, 1] = a[1, :, 0]
        else:
            a[1, 1] = a[1, 0]
        with pytest.warns(UserWarning, match="rank-deficient") as caught:
            coeffs = least_squares_solve(a, y, 0.0)
        assert len([w for w in caught if "rank-deficient" in str(w.message)]) == 1
        # the minimum-norm minimizer, as SVD least squares gives it
        np.testing.assert_array_equal(coeffs[1], np.linalg.lstsq(a[1], y[1], rcond=None)[0])
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            for i in (0, 2):
                np.testing.assert_array_equal(coeffs[i],
                                              least_squares_solve(a[i:i + 1], y[i:i + 1], 0.0)[0])


def bank_design(flats, L, thetas, activation):
    return activation(flats @ L.T - thetas)


def fit_one(flats, y, cfg, delta):
    """fit_columns on the one column y, with the bank seeded by cfg.seed."""
    return fit_columns(flats, np.asarray(y, dtype=float)[:, None], cfg, [cfg.seed], delta)[0]


def bank_streams(seed):
    """A bank's generators as FitConfig documents them: weights from
    derive_seed(seed, 0), thresholds from derive_seed(seed, 1)."""
    return (np.random.default_rng(derive_seed(seed, 0)),
            np.random.default_rng(derive_seed(seed, 1)))


class TestScalarRidge:
    GRID = GridMeta(0.0, 1.0, 101)

    def sin_problem(self, count=100, seed=17):
        ens = band_ensemble(count, self.GRID, seed)
        phi = 4.0 * np.sin(np.pi * self.GRID.nodes())
        l0 = self.GRID.trapezoid_weights() * phi  # the weight row of the pairing with phi
        y = np.sin(ens.flats @ l0)
        return ens, y

    def test_zero_targets_give_zero_network(self):
        ens, _ = self.sin_problem(count=20)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, max_width=16, seed=3)
        _, _, coeffs, sup_error = fit_one(ens.flats, np.zeros(20), cfg, 0.0)
        np.testing.assert_array_equal(coeffs, np.zeros(16))
        assert sup_error == 0.0

    def test_relu_pair_recovers_identity(self):
        xs = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        design = bank_design(xs[:, None], np.array([[1.0], [-1.0]]), np.zeros(2), Relu())
        coeffs, sup_error = fit_ridge_features(design[None], xs[None], 0.0)
        np.testing.assert_allclose(coeffs[0], [1.0, -1.0], atol=1e-10)
        assert sup_error[0] < 1e-12

    def test_sin_of_pairing_fits_below_one_percent(self):
        ens, y = self.sin_problem()
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=200, max_width=200,
                        lam=1e-8, seed=5)
        P, thetas, coeffs, sup_error = fit_one(ens.flats, y, cfg, 0.0)
        assert sup_error < 1e-2
        # the recorded error matches a brute-force residual sweep of the
        # network: one block of neurons whose center is the scalar 1
        net = ShallowVectorNetwork(P, thetas, coeffs, [[1.0]], [len(thetas)], cfg.activation,
                                   ens.signature, basis=cfg.functional_spec.basis)
        resid = np.max(np.abs(net.evaluate_many(list(ens))[:, 0] - y))
        np.testing.assert_allclose(sup_error, resid, rtol=1e-9, atol=1e-15)

    SPECS = (
        FunctionalSpec(("function", GRID), order=3),
        FunctionalSpec(("sequence", 5)),
        FunctionalSpec(("matrix", (2, 2))),
    )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.signature[0])
    def test_feature_banks_nest_across_widths(self, spec):
        rng = np.random.default_rng(13)
        flats = rng.standard_normal((10, signature_dim(spec.signature)))
        y = rng.standard_normal(10)
        cfg = FitConfig(functional_spec=spec, width=8, max_width=8, seed=11)
        # delta 0 is never met, so the grown fit doubles from 8 to 16; the
        # banks are parameters, and weight rows P @ spec.basis nest with them
        P8, t8, _, _ = fit_one(flats, y, cfg, 0.0)
        grown_P, grown_t, _, _ = fit_one(flats, y, replace(cfg, max_width=16), 0.0)
        P16, t16, _, _ = fit_one(flats, y, replace(cfg, width=16, max_width=16), 0.0)
        assert len(t8) == 8 and len(t16) == 16
        np.testing.assert_array_equal(t8, t16[:8])
        assert np.all(P8[0] == 0.0) and np.all(P16[0] == 0.0)
        np.testing.assert_array_equal(P8, P16[:8])
        np.testing.assert_array_equal(grown_P, P16)
        np.testing.assert_array_equal(grown_t, t16)

    def test_draw_rejects_mismatched_signature(self):
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, seed=11)
        with pytest.raises(ShapeError):
            fit_columns(np.zeros((4, 100)), np.zeros((4, 1)), cfg, [cfg.seed], 0.1)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.signature[0])
    def test_grown_bank_equals_fresh_draw(self, spec):
        cfg = FitConfig(functional_spec=spec, width=64, max_width=256, seed=12)
        streams = bank_streams(cfg.seed)
        grown = [draw_features(cfg, streams, a, b) for a, b in ((0, 64), (64, 128), (128, 256))]
        rows, thetas = draw_features(cfg, bank_streams(cfg.seed), 0, 256)
        np.testing.assert_array_equal(np.vstack([g[0] for g in grown]), rows)
        np.testing.assert_array_equal(np.concatenate([g[1] for g in grown]), thetas)
        assert np.all(rows[0] == 0.0)

    def test_deterministic_in_seed(self):
        ens, y = self.sin_problem(count=30)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=32, max_width=32, seed=9)
        a = fit_one(ens.flats, y, cfg, 0.0)
        b = fit_one(ens.flats, y, cfg, 0.0)
        np.testing.assert_array_equal(a[2], b[2])

    @pytest.mark.parametrize("trial", range(5))
    def test_fit_optimality_against_perturbations(self, trial):
        rng = np.random.default_rng(500 + trial)
        ens, y = self.sin_problem(count=40, seed=600 + trial)
        lam = 1e-6
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=24, max_width=24, lam=lam,
                        seed=700 + trial)
        flats = ens.flats
        P, thetas, coeffs, _ = fit_one(flats, y, cfg, 0.0)
        design = bank_design(flats, P @ cfg.functional_spec.basis, thetas, cfg.activation)
        best = np.sum((design @ coeffs - y) ** 2) + lam * np.sum(coeffs**2)
        for _ in range(200):
            xi = rng.standard_normal(len(coeffs))
            xi *= 1e-4 / np.linalg.norm(xi)
            c = coeffs + xi
            obj = np.sum((design @ c - y) ** 2) + lam * np.sum(c**2)
            assert best <= obj + 1e-15

    def test_width_validation(self):
        with pytest.raises(ValueError):
            FitConfig(functional_spec=fn_spec(self.GRID), width=0)
        with pytest.raises(ValueError):
            FitConfig(functional_spec=fn_spec(self.GRID), width=8, max_width=4)

    def test_widths_must_be_integers(self):
        # refused, never truncated; numpy integers are read as ints
        for bad in ({"width": 2.5}, {"width": True}, {"width": 8, "max_width": 16.0}):
            with pytest.raises(ValueError, match="width"):
                FitConfig(functional_spec=fn_spec(self.GRID), **bad)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=np.int64(8))
        assert cfg.width == 8 and type(cfg.width) is int

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_lam_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match="lam"):
            FitConfig(functional_spec=fn_spec(self.GRID), lam=lam)

    def test_polynomial_activation_stalls(self):
        # degree-2 features span only quadratics of the pairings, so the sin
        # target stalls far above what tanh features reach
        ens, y = self.sin_problem()
        flats = ens.flats
        tanh_cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=200, max_width=200,
                             lam=1e-8, seed=5)
        tanh_err = fit_one(flats, y, tanh_cfg, 0.0)[3]
        poly_errs = []
        for width in (100, 200, 400):
            cfg = FitConfig(
                functional_spec=fn_spec(self.GRID),
                width=width,
                max_width=width,
                activation=Polynomial((0.0, 0.0, 1.0)),
                lam=1e-8,
                seed=5,
            )
            poly_errs.append(fit_one(flats, y, cfg, 0.0)[3])
        assert min(poly_errs) >= 5.0 * tanh_err


def expected_stacks(final_widths, n, cfg):
    """(stack size, width) of every stacked solve that fits columns with these
    final widths: per width tried, the columns not yet done, in stacks that
    keep [A | y] (augmented by sqrt(lam) I) within SOLVE_STACK_BYTES."""
    stacks, k = [], cfg.width
    while True:
        pending = int(np.sum(np.asarray(final_widths) >= k))
        if not pending:
            return stacks
        rows = n + k if cfg.lam > 0 else n
        size = max(1, construct.SOLVE_STACK_BYTES // (8 * rows * (k + 1)))
        stacks += [(min(size, pending - first), k) for first in range(0, pending, size)]
        if k >= cfg.max_width:
            return stacks
        k = min(2 * k, cfg.max_width)


class TestAssemble:
    GRID = GridMeta(0.0, 1.0, 101)

    def family(self):
        return SeminormFamily((LqNorm(2.0),))

    def test_zero_operator_takes_degenerate_branch(self):
        ens = band_ensemble(20, self.GRID, seed=1)
        values = TargetBatch(np.zeros((20, 101)), self.GRID)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, seed=0)
        net, report = assemble_vector_network(
            values, ens, self.family(), 0, 0.1, cfg
        )
        assert report.degenerate
        assert report.C == 0.0
        assert net.width == 0
        assert report.converged
        assert report.train_sup_error == 0.0

    def test_constant_operator_fits_through_bias(self):
        ens = band_ensemble(20, self.GRID, seed=2)
        values = TargetBatch(np.full((20, 101), 2.0), self.GRID)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, seed=0)
        eps = 0.05
        net, report = assemble_vector_network(
            values, ens, self.family(), 0, eps, cfg
        )
        assert report.m == 1
        assert report.C == pytest.approx(2.0, rel=1e-12)
        assert report.converged
        assert report.train_sup_error < eps

    def test_integral_operator_pipeline_converges(self):
        ens = band_ensemble(100, self.GRID, seed=3)
        op = integral_operator(make_kernel("gaussian", width=1.0), self.GRID)
        values = op.apply_many(ens)
        # the tanh feature spectrum on this 3-parameter ensemble decays fast;
        # lam=0 takes the documented minimum-norm interpolation path
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=64, max_width=512,
                        lam=0.0, seed=21)
        eps = 0.1
        net, report = assemble_vector_network(
            values, ens, self.family(), 0, eps, cfg
        )
        assert report.converged
        measured = uniform_error(values, net, ens, self.family())[0]
        assert measured < eps
        np.testing.assert_allclose(measured, report.train_sup_error, rtol=1e-12)
        assert report.train_errors[0] == report.train_sup_error
        assert np.all(report.coefficient_errors < report.delta)

    @pytest.mark.parametrize("zero", [False, True], ids=["fitted", "degenerate"])
    def test_train_errors_cover_the_whole_family(self, zero):
        ens = band_ensemble(30, self.GRID, seed=4)
        values = poisson_operator(self.GRID).apply_many(ens)
        if zero:
            values = TargetBatch(np.zeros((30, 101)), self.GRID)
        family = SeminormFamily((LqNorm(2.0), SupDerivative(0)))
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, lam=0.0, seed=6)
        net, report = assemble_vector_network(values, ens, family, 1, 0.2, cfg)
        np.testing.assert_array_equal(report.train_errors,
                                      uniform_error(values, net, ens, family))
        assert report.train_errors[1] == report.train_sup_error

    def test_network_neurons_are_the_public_banks(self):
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        net, report = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        assert report.m >= 2
        assert np.any(report.coefficient_widths > cfg.width)  # some banks were grown
        centers = build_epsilon_net(values, LqNorm(2.0), 0.025).centers
        start = 0
        # every coefficient row of block j is a multiple of center j
        np.testing.assert_array_equal(net.centers, centers.values)
        np.testing.assert_array_equal(net.widths, report.coefficient_widths)
        np.testing.assert_array_equal(net.basis, cfg.functional_spec.basis)
        for j, width in enumerate(report.coefficient_widths):
            P_j, thetas = draw_features(cfg, bank_streams(derive_seed(cfg.seed, j)), 0, width)
            rows = slice(start, start + width)
            start += width
            np.testing.assert_array_equal(net.weights[rows], P_j)
            np.testing.assert_array_equal(net.thresholds[rows], thetas)
        assert start == net.width

    def test_assembly_runs_the_public_fit(self, monkeypatch):
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        solve = construct.fit_ridge_features
        solved_stacks = []

        def counting(design, targets, lam):
            solved_stacks.append((design.shape[0], design.shape[2]))
            return solve(design, targets, lam)

        monkeypatch.setattr(construct, "fit_ridge_features", counting)
        net, report = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        # one stacked solve per width tried and stack: (stack size, width)
        assert solved_stacks == expected_stacks(report.coefficient_widths, len(ens), cfg)
        assert np.any(report.coefficient_widths > cfg.width)
        # block j of the network is fit_columns on partition column j alone
        rho = LqNorm(2.0)
        net1 = build_epsilon_net(values, rho, 0.025)
        psi = build_partition(net1, rho).weights
        start = 0
        for j, center in enumerate(net1.centers):
            (P, thetas, coeffs, err), = fit_columns(ens.flats, psi[:, j:j + 1], cfg,
                                                    [derive_seed(cfg.seed, j)], report.delta)
            rows = slice(start, start + len(thetas))
            start += len(thetas)
            np.testing.assert_array_equal(net.weights[rows], P)
            np.testing.assert_array_equal(net.thresholds[rows], thetas)
            np.testing.assert_array_equal(net.coefficients[rows], coeffs)
            np.testing.assert_array_equal(net.centers[j], center.values)
            assert net.widths[j] == len(thetas)
            assert err == report.coefficient_errors[j]
        assert start == net.width

    def test_designs_are_the_network_pre_activation(self, monkeypatch):
        # every design stage 2 solves is eta((X B^T) P^T - theta) on a prefix
        # of a block of the returned network, as evaluate_many computes it
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        solve = construct.fit_ridge_features
        designs = []

        def capturing(design, targets, lam):
            designs.extend(np.array(member) for member in design)
            return solve(design, targets, lam)

        monkeypatch.setattr(construct, "fit_ridge_features", capturing)
        net, _ = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        assert np.any(net.widths > cfg.width)
        S = ens.flats @ net.basis.T
        starts = np.cumsum(net.widths) - net.widths
        # per width tried, the columns still pending, in order
        want, k = [], cfg.width
        while np.any(net.widths >= k):
            for j in np.flatnonzero(net.widths >= k):
                rows = slice(starts[j], starts[j] + k)
                want.append(net.activation(S @ net.weights[rows].T - net.thresholds[rows]))
            k *= 2
        assert len(designs) == len(want)
        for got, expected in zip(designs, want):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_small_stacks_change_no_bit(self, monkeypatch):
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        net, report = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        solve = construct.fit_ridge_features
        solved_stacks = []

        def counting(design, targets, lam):
            solved_stacks.append((design.shape[0], design.shape[2]))
            return solve(design, targets, lam)

        # two members of the first width per stack, then one
        monkeypatch.setattr(construct, "SOLVE_STACK_BYTES", 2 * 8 * (40 + 16) * 17)
        monkeypatch.setattr(construct, "fit_ridge_features", counting)
        small, small_report = assemble_vector_network(values, ens, self.family(), 0, 0.05,
                                                         cfg)
        assert solved_stacks == expected_stacks(report.coefficient_widths, len(ens), cfg)
        assert solved_stacks[0] == (2, 16) and len(solved_stacks) > 4
        for name in ("weights", "thresholds", "coefficients"):
            np.testing.assert_array_equal(getattr(small, name), getattr(net, name))
        np.testing.assert_array_equal(small_report.coefficient_errors,
                                      report.coefficient_errors)

    def test_violated_budget_raises_not_asserts(self, monkeypatch):
        ens = band_ensemble(20, self.GRID, seed=2)
        values = TargetBatch(np.full((20, 101), 2.0), self.GRID)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, seed=0)
        eps = 0.05
        monkeypatch.setattr(construct, "uniform_error",
                            lambda *args: np.array([2.0 * eps]))
        with pytest.raises(BudgetError, match="budget violated"):
            assemble_vector_network(values, ens, self.family(), 0, eps, cfg)

    @staticmethod
    def budget(epsilon, m, C, delta, degenerate):
        """An AssemblyReport with the given budget and placeholder stage figures."""
        return AssemblyReport(epsilon, m, C, delta, degenerate, 0.0, np.zeros(m),
                              np.zeros(m, dtype=int), True, 0.0, np.zeros(1))

    def test_budget_arithmetic(self):
        b = self.budget(0.1, 4, 0.5, 0.1 / (2 * 4 * 0.5), False)
        assert b.stage1 == 0.05
        with pytest.raises(ValueError):
            self.budget(0.1, 4, 0.5, 0.5, False)  # delta overruns the stage budget
        with pytest.raises(ValueError):
            self.budget(0.1, 1, 0.0, 0.1, True)  # degenerate carries no delta
        with pytest.raises(ValueError):
            self.budget(0.1, 4, 0.5, 0.0, False)  # delta must be positive
        with pytest.raises(ValueError):
            self.budget(0.1, 4, 0.5, None, False)  # a fitted run carries a delta

    def test_non_convergence_is_reported_not_raised(self):
        ens = band_ensemble(60, self.GRID, seed=4)
        op = integral_operator(make_kernel("gaussian", width=1.0), self.GRID)
        values = op.apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=2, max_width=4,
                        seed=0)
        net, report = assemble_vector_network(
            values, ens, self.family(), 0, 0.02, cfg
        )
        assert not report.converged
        assert np.any(report.coefficient_errors >= report.delta)
        assert np.all(report.coefficient_widths <= 4)

    def test_deterministic_end_to_end(self):
        ens = band_ensemble(40, self.GRID, seed=5)
        op = poisson_operator(self.GRID)
        values = op.apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        a_net, a_rep = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        b_net, b_rep = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        assert a_rep.train_sup_error == b_rep.train_sup_error
        probe = list(ens)[:5]
        np.testing.assert_array_equal(a_net.evaluate_many(probe), b_net.evaluate_many(probe))

    def test_misaligned_values_rejected(self):
        ens = band_ensemble(5, self.GRID, seed=6)
        values = TargetBatch(np.zeros((4, 101)), self.GRID)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=4, seed=0)
        with pytest.raises(ShapeError):
            assemble_vector_network(values, ens, self.family(), 0, 0.1, cfg)

    def test_mismatched_functional_spec_rejected(self):
        ens = band_ensemble(5, self.GRID, seed=6)
        values = TargetBatch(np.full((5, 101), 1.0), self.GRID)
        cfg = FitConfig(functional_spec=FunctionalSpec(("sequence", 101)), width=4)
        with pytest.raises(ShapeError, match="functional spec"):
            assemble_vector_network(values, ens, self.family(), 0, 0.1, cfg)


class TestUniformError:
    GRID = GridMeta(0.0, 1.0, 31)

    def test_exact_reproduction_gives_zero(self):
        ens = band_ensemble(10, self.GRID, seed=7)
        values = TargetBatch(np.zeros((10, 31)), self.GRID)
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        fam = SeminormFamily((LqNorm(2.0), LqNorm(1.0)))
        np.testing.assert_array_equal(uniform_error(values, net, ens, fam), [0.0, 0.0])

    def test_empty_net_against_constant(self):
        ens = band_ensemble(10, self.GRID, seed=8)
        v = TargetElement(np.full(31, 3.0), self.GRID)
        values = TargetBatch(np.full((10, 31), 3.0), self.GRID)
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        fam = SeminormFamily((LqNorm(2.0), LqNorm(1.0)))
        got = uniform_error(values, net, ens, fam)
        np.testing.assert_allclose(got, [LqNorm(2.0)(v), LqNorm(1.0)(v)], rtol=1e-12)

    def test_dual_errors(self):
        ens = band_ensemble(10, self.GRID, seed=9)
        values = TargetBatch(np.full((10, 31), 3.0), self.GRID)
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        duals = SeminormFamily((
            DualPairing(np.zeros(31), self.GRID, name="null"),
            DualPairing(np.ones(31), self.GRID, name="mean"),
        ))
        got = uniform_error(values, net, ens, duals)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("count", [12, 2 * SEMINORM_BLOCK_ROWS + 41])
    def test_matches_per_sample_loop(self, count):
        rng = np.random.default_rng(400 + count)
        ens = band_ensemble(count, self.GRID, seed=11 + count)
        values = batch_of([rng.standard_normal(31) for _ in range(count)], self.GRID)
        net = ShallowVectorNetwork(rng.standard_normal((5, 31)), rng.uniform(-1, 1, 5),
                                   np.ones(5), rng.standard_normal((5, 31)), np.ones(5, int),
                                   Tanh(), ens.signature, self.GRID)
        fam = SeminormFamily((LqNorm(2.0), SupDerivative(1),
                              DualPairing(rng.standard_normal(31), self.GRID)))
        want = [max(rho(TargetElement(t.values - net.evaluate_many([s])[0], t.grid))
                    for t, s in zip(values, ens)) for rho in fam]
        np.testing.assert_allclose(uniform_error(values, net, ens, fam), want,
                                   rtol=1e-12, atol=0)

    def test_output_dim_mismatch(self):
        ens = band_ensemble(3, self.GRID, seed=10)
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 30)
        values = TargetBatch(np.zeros((3, 31)), self.GRID)
        with pytest.raises(ShapeError):
            uniform_error(values, net, ens, SeminormFamily((LqNorm(2.0),)))

    def test_shape_mismatch(self):
        ens = band_ensemble(3, self.GRID, seed=10)
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        fam = SeminormFamily((LqNorm(2.0),))
        with pytest.raises(ShapeError):
            uniform_error(TargetBatch(np.zeros((2, 31)), self.GRID), net, ens, fam)
