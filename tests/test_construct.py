from dataclasses import replace

import numpy as np
import pytest

from shallowop import construct
from shallowop.construct import (
    SEMINORM_BLOCK_ROWS,
    EpsilonNet,
    ErrorBudget,
    FitConfig,
    PartitionOfUnity,
    assemble_vector_network,
    build_epsilon_net,
    build_partition,
    draw_features,
    dual_uniform_error,
    finite_rank_apply,
    fit_ridge_features,
    fit_scalar_ridge,
    least_squares_solve,
    uniform_error,
)
from shallowop.errors import BudgetError, CoverageError, ShapeError
from shallowop.inputs import (
    EnsembleSpec,
    FunctionalSpec,
    SequenceDot,
    ZeroFunctional,
    functional_matrix,
    sample_ensemble,
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
    TargetElement,
)

ABS = LqNorm(1.0)  # on 1-entry elements this is plain absolute value


def scalar_elem(x):
    return TargetElement(np.array([float(x)]))


def band_ensemble(count, grid, seed, radii=(1.0, 0.5, 0.25)):
    return sample_ensemble(
        EnsembleSpec(family="band_limited", count=count, radii=radii, grid=grid), seed
    )


def fn_spec(grid):
    return FunctionalSpec(kind="function", grid=grid, order=3)


def reference_net_indices(values, rho, epsilon):
    """The greedy net, one scalar seminorm call per (value, center) pair."""
    centers, indices = [], []
    for i, t in enumerate(values):
        if all(rho(t - c) >= epsilon for c in centers):
            centers.append(t)
            indices.append(i)
    return tuple(indices)


class TestEpsilonNet:
    def test_single_value(self):
        net = build_epsilon_net([scalar_elem(7.0)], ABS, 0.5)
        assert len(net) == 1
        np.testing.assert_array_equal(net.centers[0].values, [7.0])

    def test_three_point_line(self):
        values = [scalar_elem(x) for x in (0.0, 1.0, 2.0)]
        net = build_epsilon_net(values, ABS, 1.5)
        assert [c.values[0] for c in net.centers] == [0.0, 2.0]
        # brute-force cover check: every value strictly within epsilon
        for t in values:
            assert min(ABS(t - c) for c in net.centers) < 1.5

    def test_epsilon_above_diameter(self):
        values = [scalar_elem(x) for x in (0.0, 1.0, 2.0)]
        net = build_epsilon_net(values, ABS, 10.0)
        assert len(net) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_epsilon_net([], ABS, 1.0)
        with pytest.raises(ValueError):
            build_epsilon_net([scalar_elem(0.0)], ABS, 0.0)

    @pytest.mark.parametrize("trial", range(10))
    def test_cover_and_separation(self, trial):
        rng = np.random.default_rng(300 + trial)
        rho = LqNorm(2.0)
        values = [TargetElement(rng.standard_normal(6)) for _ in range(40)]
        net = build_epsilon_net(values, rho, 1.0)
        for t in values:
            assert min(rho(t - c) for c in net.centers) < 1.0
        for a in range(len(net)):
            for b in range(a + 1, len(net)):
                assert rho(net.centers[a] - net.centers[b]) >= 1.0

    def test_value_at_exactly_epsilon_becomes_a_center(self):
        # |1.0 - 0.0| is exactly epsilon: not strictly covered
        values = [scalar_elem(x) for x in (0.0, 0.5, 1.0, 1.25, 2.0)]
        net = build_epsilon_net(values, ABS, 1.0)
        assert net.center_indices == (0, 2, 4)
        assert net.center_indices == reference_net_indices(values, ABS, 1.0)

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_scalar_greedy_loop(self, trial):
        rng = np.random.default_rng(360 + trial)
        grid = GridMeta(0.0, 1.0, 9)
        values = [TargetElement(rng.standard_normal(9), grid) for _ in range(50)]
        for rho, eps in ((LqNorm(2.0), 1.0), (SupDerivative(1), 12.0), (LqNorm(1.0), 0.6)):
            net = build_epsilon_net(values, rho, eps)
            assert net.center_indices == reference_net_indices(values, rho, eps)
            assert all(net.centers[k] is values[i] for k, i in enumerate(net.center_indices))

    def test_matches_scalar_greedy_loop_across_row_blocks(self):
        rng = np.random.default_rng(370)
        values = [scalar_elem(x) for x in rng.uniform(0.0, 10.0, 2 * SEMINORM_BLOCK_ROWS + 41)]
        net = build_epsilon_net(values, ABS, 1.0)
        assert net.center_indices == reference_net_indices(values, ABS, 1.0)

    def test_mismatched_metadata_rejected(self):
        values = [TargetElement(np.zeros(5), GridMeta(0.0, 1.0, 5)), TargetElement(np.ones(5))]
        with pytest.raises(ShapeError):
            build_epsilon_net(values, LqNorm(2.0), 0.5)

    @pytest.mark.parametrize("trial", range(5))
    def test_halving_epsilon_never_drops_centers(self, trial):
        rng = np.random.default_rng(320 + trial)
        values = [TargetElement(rng.standard_normal(4)) for _ in range(60)]
        rho = LqNorm(2.0)
        counts = [len(build_epsilon_net(values, rho, eps)) for eps in (2.0, 1.0, 0.5, 0.25)]
        assert counts == sorted(counts)


class TestPartition:
    def test_single_center_is_all_ones(self):
        values = [scalar_elem(x) for x in (0.0, 0.3, -0.2)]
        net = build_epsilon_net(values, ABS, 5.0)
        pou = build_partition(values, net, ABS)
        np.testing.assert_array_equal(pou.weights, np.ones((3, 1)))

    def test_support_condition_gives_unit_weight(self):
        net = EpsilonNet((scalar_elem(0.0), scalar_elem(2.0)), 1.5, ABS, (0, 1))
        pou = build_partition([scalar_elem(0.0)], net, ABS)
        np.testing.assert_array_equal(pou.weights, [[1.0, 0.0]])

    def test_equidistant_sample_splits_evenly(self):
        net = EpsilonNet((scalar_elem(0.0), scalar_elem(2.0)), 2.0, ABS, (0, 1))
        pou = build_partition([scalar_elem(1.0)], net, ABS)
        np.testing.assert_array_equal(pou.weights, [[0.5, 0.5]])

    def test_uncovered_sample_diagnosed_by_index(self):
        net = EpsilonNet((scalar_elem(0.0),), 1.0, ABS, (0,))
        with pytest.raises(CoverageError, match="sample 1"):
            build_partition([scalar_elem(0.5), scalar_elem(9.0)], net, ABS)

    @pytest.mark.parametrize("trial", range(10))
    def test_partition_invariants(self, trial):
        rng = np.random.default_rng(340 + trial)
        rho = LqNorm(2.0)
        values = [TargetElement(rng.standard_normal(5)) for _ in range(30)]
        net = build_epsilon_net(values, rho, 1.2)
        pou = build_partition(values, net, rho)
        assert np.all(pou.weights >= 0.0)
        np.testing.assert_allclose(pou.weights.sum(axis=1), 1.0, atol=1e-12)
        support = pou.weights > 0.0
        assert np.all(pou.distances[support] < 1.2)

    def test_distances_match_scalar_calls(self):
        rng = np.random.default_rng(350)
        rho = LqNorm(2.0)
        values = [TargetElement(rng.standard_normal(3)) for _ in range(2 * SEMINORM_BLOCK_ROWS + 41)]
        net = build_epsilon_net(values, rho, 2.0)
        pou = build_partition(values, net, rho)
        want = [[rho(t - c) for c in net.centers] for t in values]
        np.testing.assert_allclose(pou.distances, want, rtol=1e-12, atol=0)

    def test_values_and_centers_must_share_metadata(self):
        net = EpsilonNet((scalar_elem(0.0),), 1.0, ABS, (0,))
        with pytest.raises(ShapeError):
            build_partition([TargetElement(np.zeros(2))], net, ABS)


class TestFiniteRank:
    def test_single_center_reproduced_exactly(self):
        values = [scalar_elem(3.0), scalar_elem(3.2)]
        net = build_epsilon_net(values, ABS, 1.0)
        pou = build_partition(values, net, ABS)
        out = finite_rank_apply(pou, net, 1)
        np.testing.assert_array_equal(out.values, [3.0])

    def test_constant_operator_exact(self):
        values = [scalar_elem(5.0) for _ in range(4)]
        net = build_epsilon_net(values, ABS, 0.7)
        assert len(net) == 1
        pou = build_partition(values, net, ABS)
        for i in range(4):
            assert ABS(finite_rank_apply(pou, net, i) - values[i]) == 0.0

    def test_convexity_bound_survives_stripped_asserts(self):
        net = EpsilonNet((scalar_elem(0.0),), 1.0, ABS, (0,))
        pou = PartitionOfUnity(np.ones((1, 1)), np.full((1, 1), 1.5), 1.0, ABS)
        with pytest.raises(BudgetError, match="convexity bound"):
            finite_rank_apply(pou, net, 0)

    def test_index_out_of_range(self):
        values = [scalar_elem(0.0)]
        net = build_epsilon_net(values, ABS, 1.0)
        pou = build_partition(values, net, ABS)
        with pytest.raises(IndexError):
            finite_rank_apply(pou, net, 5)

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
        pou = build_partition(values, net, rho)
        for i, t in enumerate(values):
            g = finite_rank_apply(pou, net, i)
            err = rho(t - g)
            bound = float(np.dot(pou.weights[i], pou.distances[i]))
            assert err <= bound + 1e-9 * eps
            assert bound < eps * (1.0 + 1e-9)
            assert err < eps


class TestLeastSquares:
    def test_identity_system(self):
        c = least_squares_solve(np.eye(2), np.array([3.0, 4.0]), 0.0)
        np.testing.assert_allclose(c, [3.0, 4.0], rtol=1e-12)

    def test_mean_through_ones_column(self):
        a = np.ones((6, 1))
        c = least_squares_solve(a, np.full(6, 5.0), 0.0)
        np.testing.assert_allclose(c, [5.0], rtol=1e-12)

    def test_no_random_perturbation_beats_solution(self):
        rng = np.random.default_rng(400)
        a = rng.standard_normal((40, 10))
        y = rng.standard_normal(40)
        c = least_squares_solve(a, y, 0.0)
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
        c = least_squares_solve(a, y, lam)
        np.testing.assert_allclose(
            (a.T @ a + lam * np.eye(8)) @ c, a.T @ y, rtol=1e-8, atol=1e-10
        )

    def test_rank_deficiency_warns_only_unregularized(self):
        a = np.ones((5, 2))  # duplicate columns
        y = np.arange(5.0)
        with pytest.warns(UserWarning, match="rank-deficient"):
            least_squares_solve(a, y, 0.0)
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            least_squares_solve(a, y, 1e-10)

    def test_shape_and_sign_errors(self):
        with pytest.raises(ShapeError):
            least_squares_solve(np.eye(3), np.ones(2), 0.0)
        with pytest.raises(ValueError):
            least_squares_solve(np.eye(2), np.ones(2), -1.0)


class TestScalarRidge:
    GRID = GridMeta(0.0, 1.0, 101)

    def sin_problem(self, count=100, seed=17):
        ens = band_ensemble(count, self.GRID, seed)
        phi = 4.0 * np.sin(np.pi * self.GRID.nodes())
        from shallowop.inputs import QuadraturePairing

        l0 = QuadraturePairing(phi, self.GRID)
        y = np.array([np.sin(l0(s)) for s in ens])
        return ens, y

    def test_zero_targets_give_zero_network(self):
        ens, _ = self.sin_problem(count=20)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=3)
        fit = fit_scalar_ridge(ens, np.zeros(20), cfg)
        np.testing.assert_array_equal(fit.coeffs, np.zeros(16))
        assert fit.sup_error == 0.0

    def test_relu_pair_recovers_identity(self):
        xs = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        from shallowop.inputs import SequencePoint

        samples = [SequencePoint([x]) for x in xs]
        functionals = [SequenceDot([1.0]), SequenceDot([-1.0])]
        fit = fit_ridge_features(samples, xs, functionals, np.zeros(2), Relu(), 0.0)
        np.testing.assert_allclose(fit.coeffs, [1.0, -1.0], atol=1e-10)
        assert fit.sup_error < 1e-12

    def test_sin_of_pairing_fits_below_one_percent(self):
        ens, y = self.sin_problem()
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=200, lam=1e-8, seed=5)
        fit = fit_scalar_ridge(ens, y, cfg)
        assert fit.sup_error < 1e-2
        # the recorded error matches a brute-force residual sweep
        resid = np.max(np.abs(fit.evaluate_many(list(ens)) - y))
        np.testing.assert_allclose(fit.sup_error, resid, rtol=1e-9, atol=1e-15)

    SPECS = (
        FunctionalSpec(kind="function", grid=GRID, order=3),
        FunctionalSpec(kind="sequence", length=5),
        FunctionalSpec(kind="matrix", shape=(2, 2)),
    )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_feature_banks_nest_across_widths(self, spec):
        cfg = FitConfig(functional_spec=spec, width=8, seed=11)
        f8, t8 = draw_features(cfg, 8, spec.signature)
        f16, t16 = draw_features(cfg, 16, spec.signature)
        np.testing.assert_array_equal(t8, t16[:8])
        assert f8[0] == f16[0] == ZeroFunctional()
        for a, b in zip(f8[1:], f16[1:8]):
            np.testing.assert_array_equal(a.weight_vector(), b.weight_vector())

    def test_draw_rejects_mismatched_signature(self):
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, seed=11)
        with pytest.raises(ShapeError):
            draw_features(cfg, 8, ("sequence", 101))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_grown_bank_equals_fresh_draw(self, spec):
        cfg = FitConfig(functional_spec=spec, width=64, max_width=256, seed=12)
        streams = construct._feature_streams(cfg.seed)
        grown = [construct._draw_rows(cfg, streams, a, b)
                 for a, b in ((0, 64), (64, 128), (128, 256))]
        rows, thetas = construct._draw_rows(cfg, construct._feature_streams(cfg.seed), 0, 256)
        np.testing.assert_array_equal(np.vstack([g[0] for g in grown]), rows)
        np.testing.assert_array_equal(np.concatenate([g[1] for g in grown]), thetas)
        assert np.all(rows[0] == 0.0)

    def test_deterministic_in_seed(self):
        ens, y = self.sin_problem(count=30)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=32, seed=9)
        a = fit_scalar_ridge(ens, y, cfg)
        b = fit_scalar_ridge(ens, y, cfg)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("trial", range(5))
    def test_fit_optimality_against_perturbations(self, trial):
        rng = np.random.default_rng(500 + trial)
        ens, y = self.sin_problem(count=40, seed=600 + trial)
        lam = 1e-6
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=24, lam=lam,
                        seed=700 + trial)
        fit = fit_scalar_ridge(ens, y, cfg)
        design = fit.design_matrix(list(ens))
        best = np.sum((design @ fit.coeffs - y) ** 2) + lam * np.sum(fit.coeffs**2)
        for _ in range(200):
            xi = rng.standard_normal(fit.width)
            xi *= 1e-4 / np.linalg.norm(xi)
            c = fit.coeffs + xi
            obj = np.sum((design @ c - y) ** 2) + lam * np.sum(c**2)
            assert best <= obj + 1e-15

    def test_width_validation(self):
        with pytest.raises(ValueError):
            FitConfig(functional_spec=fn_spec(self.GRID), width=0)
        with pytest.raises(ValueError):
            FitConfig(functional_spec=fn_spec(self.GRID), width=8, max_width=4)

    def test_polynomial_activation_stalls(self):
        # degree-2 features span only quadratics of the pairings, so the sin
        # target stalls far above what tanh features reach
        ens, y = self.sin_problem()
        tanh_cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=200, lam=1e-8, seed=5)
        tanh_err = fit_scalar_ridge(ens, y, tanh_cfg).sup_error
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
            poly_errs.append(fit_scalar_ridge(ens, y, cfg).sup_error)
        assert min(poly_errs) >= 5.0 * tanh_err


class TestAssemble:
    GRID = GridMeta(0.0, 1.0, 101)

    def family(self):
        return SeminormFamily((LqNorm(2.0),), name="l2")

    def test_zero_operator_takes_degenerate_branch(self):
        ens = band_ensemble(20, self.GRID, seed=1)
        values = [TargetElement(np.zeros(101), self.GRID) for _ in range(20)]
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, seed=0)
        net, budget, report = assemble_vector_network(
            values, ens, self.family(), 0, 0.1, cfg
        )
        assert budget.degenerate
        assert budget.C == 0.0
        assert net.width == 0
        assert report.converged
        assert report.train_sup_error == 0.0

    def test_constant_operator_fits_through_bias(self):
        ens = band_ensemble(20, self.GRID, seed=2)
        v = TargetElement(np.full(101, 2.0), self.GRID)
        values = [v for _ in range(20)]
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, seed=0)
        eps = 0.05
        net, budget, report = assemble_vector_network(
            values, ens, self.family(), 0, eps, cfg
        )
        assert budget.m == 1
        assert budget.C == pytest.approx(2.0, rel=1e-12)
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
        net, budget, report = assemble_vector_network(
            values, ens, self.family(), 0, eps, cfg
        )
        assert report.converged
        measured = uniform_error(values, net, ens, self.family())[0]
        assert measured < eps
        np.testing.assert_allclose(measured, report.train_sup_error, rtol=1e-12)
        assert np.all(report.coefficient_errors < budget.delta)

    def test_network_neurons_are_the_public_banks(self):
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        net, budget, report = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        assert budget.m >= 2
        assert np.any(report.coefficient_widths > cfg.width)  # some banks were grown
        centers = build_epsilon_net(values, LqNorm(2.0), 0.025).centers
        start = 0
        for j, width in enumerate(report.coefficient_widths):
            cfg_j = replace(cfg, seed=derive_seed(cfg.seed, j))
            functionals, thetas = draw_features(cfg_j, width, ens.signature)
            rows = slice(start, start + width)
            start += width
            np.testing.assert_array_equal(
                net.weights[rows], functional_matrix(functionals, ens.signature)
            )
            np.testing.assert_array_equal(net.thresholds[rows], thetas)
            # every coefficient row is a multiple of center j
            V_j = net.coefficients[rows]
            vj = centers[j].values
            scale = V_j @ vj / (vj @ vj)
            np.testing.assert_allclose(V_j, np.outer(scale, vj), rtol=1e-12, atol=0.0)
        assert start == net.width

    def test_violated_budget_raises_not_asserts(self, monkeypatch):
        ens = band_ensemble(20, self.GRID, seed=2)
        v = TargetElement(np.full(101, 2.0), self.GRID)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, seed=0)
        eps = 0.05
        monkeypatch.setattr(construct, "uniform_error",
                            lambda *args: np.array([2.0 * eps]))
        with pytest.raises(BudgetError, match="budget violated"):
            assemble_vector_network([v] * 20, ens, self.family(), 0, eps, cfg)

    def test_budget_arithmetic(self):
        b = ErrorBudget(0.1, 4, 0.5, 0.1 / (2 * 4 * 0.5), False)
        assert b.stage1 == 0.05
        with pytest.raises(ValueError):
            ErrorBudget(0.1, 4, 0.5, 0.5, False)  # delta overruns the stage budget
        with pytest.raises(ValueError):
            ErrorBudget(0.1, 1, 0.0, 0.1, True)  # degenerate carries no delta

    def test_non_convergence_is_reported_not_raised(self):
        ens = band_ensemble(60, self.GRID, seed=4)
        op = integral_operator(make_kernel("gaussian", width=1.0), self.GRID)
        values = op.apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=2, max_width=4,
                        seed=0)
        net, budget, report = assemble_vector_network(
            values, ens, self.family(), 0, 0.02, cfg
        )
        assert not report.converged
        assert np.any(report.coefficient_errors >= budget.delta)
        assert np.all(report.coefficient_widths <= 4)

    def test_deterministic_end_to_end(self):
        ens = band_ensemble(40, self.GRID, seed=5)
        op = poisson_operator(self.GRID)
        values = op.apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        a_net, _, a_rep = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        b_net, _, b_rep = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        assert a_rep.train_sup_error == b_rep.train_sup_error
        probe = list(ens)[:5]
        np.testing.assert_array_equal(a_net.evaluate_many(probe), b_net.evaluate_many(probe))

    def test_misaligned_values_rejected(self):
        ens = band_ensemble(5, self.GRID, seed=6)
        values = [TargetElement(np.zeros(101), self.GRID)] * 4
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=4, seed=0)
        with pytest.raises(ShapeError):
            assemble_vector_network(values, ens, self.family(), 0, 0.1, cfg)

    def test_mismatched_functional_spec_rejected(self):
        ens = band_ensemble(5, self.GRID, seed=6)
        values = [TargetElement(np.full(101, 1.0), self.GRID)] * 5
        cfg = FitConfig(functional_spec=FunctionalSpec(kind="sequence", length=101), width=4)
        with pytest.raises(ShapeError, match="functional spec"):
            assemble_vector_network(values, ens, self.family(), 0, 0.1, cfg)


class TestUniformError:
    GRID = GridMeta(0.0, 1.0, 31)

    def test_exact_reproduction_gives_zero(self):
        ens = band_ensemble(10, self.GRID, seed=7)
        values = [TargetElement(np.zeros(31), self.GRID) for _ in range(10)]
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        fam = SeminormFamily((LqNorm(2.0), LqNorm(1.0)))
        np.testing.assert_array_equal(uniform_error(values, net, ens, fam), [0.0, 0.0])

    def test_empty_net_against_constant(self):
        ens = band_ensemble(10, self.GRID, seed=8)
        v = TargetElement(np.full(31, 3.0), self.GRID)
        values = [v for _ in range(10)]
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        fam = SeminormFamily((LqNorm(2.0), LqNorm(1.0)))
        got = uniform_error(values, net, ens, fam)
        np.testing.assert_allclose(got, [LqNorm(2.0)(v), LqNorm(1.0)(v)], rtol=1e-12)

    def test_dual_errors(self):
        ens = band_ensemble(10, self.GRID, seed=9)
        v = TargetElement(np.full(31, 3.0), self.GRID)
        values = [v for _ in range(10)]
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        duals = [
            DualPairing(np.zeros(31), self.GRID, name="null"),
            DualPairing(np.ones(31), self.GRID, name="mean"),
        ]
        got = dual_uniform_error(values, net, ens, duals)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("count", [12, 2 * SEMINORM_BLOCK_ROWS + 41])
    def test_matches_per_sample_loop(self, count):
        rng = np.random.default_rng(400 + count)
        ens = band_ensemble(count, self.GRID, seed=11 + count)
        values = [TargetElement(rng.standard_normal(31), self.GRID) for _ in range(count)]
        net = ShallowVectorNetwork(rng.standard_normal((5, 31)), rng.uniform(-1, 1, 5),
                                   rng.standard_normal((5, 31)), Tanh(), ens.signature,
                                   self.GRID)
        fam = SeminormFamily((LqNorm(2.0), SupDerivative(1),
                              DualPairing(rng.standard_normal(31), self.GRID)))
        want = [max(rho(t - net(s)) for t, s in zip(values, ens)) for rho in fam]
        np.testing.assert_allclose(uniform_error(values, net, ens, fam), want,
                                   rtol=1e-12, atol=0)

    def test_output_dim_mismatch(self):
        ens = band_ensemble(3, self.GRID, seed=10)
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 30)
        values = [TargetElement(np.zeros(31), self.GRID)] * 3
        with pytest.raises(ShapeError):
            uniform_error(values, net, ens, SeminormFamily((LqNorm(2.0),)))

    def test_shape_mismatch(self):
        ens = band_ensemble(3, self.GRID, seed=10)
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        fam = SeminormFamily((LqNorm(2.0),))
        with pytest.raises(ShapeError):
            uniform_error([], net, ens, fam)
