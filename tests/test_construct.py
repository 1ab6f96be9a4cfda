import ctypes
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shallowop import construct, network, targets as targets_module
from shallowop.construct import (
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
    stage1_partition,
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
)

ABS = LqNorm(1.0)  # on 1-entry values this is plain absolute value


def scalar_values(*xs):
    """The 1-entry values xs as one (len(xs), 1) matrix."""
    return np.array(xs, dtype=float)[:, None]


def gap(rho, t, c):
    """rho(t - c) for two value rows, as a one-row matrix."""
    return rho((t - c)[None])[0]


def band_ensemble(count, grid, seed, radii=(1.0, 0.5, 0.25)):
    return sample_ensemble(
        EnsembleSpec(family="band_limited", count=count, radii=radii, grid=grid), seed
    )


def fn_spec(grid):
    return FunctionalSpec(("function", grid), order=3)


#: rows that span two full row blocks and part of a third, in row blocks
#: of 256 rows (see small_row_blocks)
CROSSING_ROWS = 2 * 256 + 41


def small_row_blocks(monkeypatch, width):
    """Make row blocks of values of width entries 256 rows tall, so that
    CROSSING_ROWS of them span at least 3 blocks."""
    monkeypatch.setattr(targets_module, "BLOCK_BYTES", 8 * width * 256)
    assert len(targets_module._row_blocks(CROSSING_ROWS, width)) >= 3


def reference_net_indices(values, rho, epsilon):
    """The greedy net, one one-row seminorm call per (value, center) pair."""
    centers, indices = [], []
    for i, t in enumerate(values):
        if all(gap(rho, t, c) >= epsilon for c in centers):
            centers.append(t)
            indices.append(i)
    return tuple(indices)


def center_indices(net):
    """The source row of each center: the first at distance 0 from it."""
    return tuple(np.argmax(net.distances == 0, axis=0).tolist())


class TestEpsilonNet:
    def test_single_value(self):
        net = build_epsilon_net(scalar_values(7.0), ABS, 0.5)
        assert len(net) == 1
        np.testing.assert_array_equal(net.centers[0], [7.0])

    def test_three_point_line(self):
        values = scalar_values(0.0, 1.0, 2.0)
        net = build_epsilon_net(values, ABS, 1.5)
        assert [c[0] for c in net.centers] == [0.0, 2.0]
        # brute-force cover check: every value strictly within epsilon
        for t in values:
            assert min(gap(ABS, t, c) for c in net.centers) < 1.5

    def test_epsilon_above_diameter(self):
        values = scalar_values(0.0, 1.0, 2.0)
        net = build_epsilon_net(values, ABS, 10.0)
        assert len(net) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ShapeError) as info:
            build_epsilon_net(np.zeros((0, 1)), ABS, 1.0)
        assert info.value.arg == "values"
        with pytest.raises(ShapeError) as info:
            build_epsilon_net(np.zeros(3), ABS, 1.0)
        assert info.value.arg == "values"
        with pytest.raises(ConfigError, match="non-finite") as info:
            build_epsilon_net(scalar_values(0.0, np.nan), ABS, 1.0)
        assert info.value.arg == "values"
        with pytest.raises(ValueError):
            build_epsilon_net(scalar_values(0.0), ABS, 0.0)

    @pytest.mark.parametrize("epsilon", [True, float("inf"), float("nan"), 0, 0.0, -1.0, "1"],
                             ids=["True", "inf", "nan", "0", "0.0", "negative", "str"])
    def test_epsilon_refused_by_name(self, epsilon):
        values = np.random.default_rng(5).standard_normal((10, 2))
        with pytest.raises(ConfigError, match="epsilon") as info:
            build_epsilon_net(values, LqNorm(2.0), epsilon)
        assert info.value.arg == "epsilon"

    @pytest.mark.parametrize("trial", range(10))
    def test_cover_and_separation(self, trial):
        rng = np.random.default_rng(300 + trial)
        rho = LqNorm(2.0)
        values = np.array([rng.standard_normal(6) for _ in range(40)])
        net = build_epsilon_net(values, rho, 1.0)
        centers = net.centers
        for t in values:
            assert min(gap(rho, t, c) for c in centers) < 1.0
        for a in range(len(net)):
            for b in range(a + 1, len(net)):
                assert gap(rho, centers[a], centers[b]) >= 1.0

    def test_value_at_exactly_epsilon_becomes_a_center(self):
        # |1.0 - 0.0| is exactly epsilon: not strictly covered
        values = scalar_values(0.0, 0.5, 1.0, 1.25, 2.0)
        net = build_epsilon_net(values, ABS, 1.0)
        assert center_indices(net) == (0, 2, 4)
        assert center_indices(net) == reference_net_indices(values, ABS, 1.0)

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_scalar_greedy_loop(self, trial):
        rng = np.random.default_rng(360 + trial)
        grid = GridMeta(0.0, 1.0, 9)
        values = np.array([rng.standard_normal(9) for _ in range(50)])
        for rho, eps in ((LqNorm(2.0, grid), 1.0), (SupDerivative(1, grid), 12.0),
                         (LqNorm(1.0, grid), 0.6)):
            net = build_epsilon_net(values, rho, eps)
            assert center_indices(net) == reference_net_indices(values, rho, eps)
            want = np.array([values[i] for i in center_indices(net)])
            assert net.centers.shape == want.shape
            assert net.centers.tobytes() == want.tobytes()

    @pytest.mark.parametrize("trial", range(3))
    def test_first_zero_distance_is_the_center_row_with_duplicate_rows(self, trial):
        # a later copy of a center is at distance 0 from it, and an earlier
        # one would have covered it, so each column's first zero is its center
        rng = np.random.default_rng(390 + trial)
        grid = GridMeta(0.0, 1.0, 9)
        values = rng.standard_normal((300, 9))
        values[200:210] = values[:10]
        for rho, eps in ((LqNorm(2.0, grid), 1.0), (LqNorm(1.0, grid), 0.6)):
            net = build_epsilon_net(values, rho, eps)
            assert center_indices(net) == reference_net_indices(values, rho, eps)
            assert net.centers.tobytes() == values[list(center_indices(net))].tobytes()

    def test_centers_are_a_read_only_matrix_of_value_rows(self):
        rng = np.random.default_rng(380)
        grid = GridMeta(0.0, 1.0, 9)
        values = rng.standard_normal((50, 9))
        net = build_epsilon_net(values, LqNorm(2.0, grid), 1.0)
        assert len(net) > 1 and len(net) == len(center_indices(net))
        assert isinstance(net.centers, np.ndarray)
        want = values[list(center_indices(net))]
        assert net.centers.shape == want.shape
        assert net.centers.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            net.centers[0, 0] = 1.0
        # the net holds no view of the caller's writeable values
        assert not np.shares_memory(net.centers, values)

    def test_matches_scalar_greedy_loop_across_row_blocks(self, monkeypatch):
        small_row_blocks(monkeypatch, 1)
        rng = np.random.default_rng(370)
        values = scalar_values(*rng.uniform(0.0, 10.0, CROSSING_ROWS))
        net = build_epsilon_net(values, ABS, 1.0)
        assert center_indices(net) == reference_net_indices(values, ABS, 1.0)

    @pytest.mark.parametrize("rho, eps", [(LqNorm(2.0, GridMeta(0.0, 1.0, 9)), 1.0),
                                          (SupDerivative(1, GridMeta(0.0, 1.0, 9)), 20.0)],
                             ids=["lq", "sup_derivative"])
    def test_distances_are_one_pass_per_center(self, rho, eps, monkeypatch):
        # the scan's passes over all rows are the net's distances, bit for bit,
        # and the partition's weights are the hats of that same array
        small_row_blocks(monkeypatch, 9)
        rng = np.random.default_rng(390)
        values = rng.standard_normal((CROSSING_ROWS, 9))
        net = build_epsilon_net(values, rho, eps)
        assert len(net) > 32  # past two doublings of the net's distance buffer
        want = np.stack([construct._seminorm_rows(rho, values, c) for c in net.centers],
                        axis=1)
        assert net.distances.shape == want.shape
        assert net.distances.tobytes() == want.tobytes()
        assert not net.distances.flags.writeable
        hats = np.maximum(0.0, 1.0 - net.distances / eps)
        weights = build_partition(net, rho)
        assert weights.tobytes() == (hats / hats.sum(axis=1)[:, None]).tobytes()

    def test_narrow_rows_are_one_seminorm_call(self):
        # 3200 rows of 5 entries fit one row block
        calls = []

        class Counted(LqNorm):
            def __call__(self, values):
                calls.append(values.shape)
                return super().__call__(values)

        values = np.random.default_rng(391).standard_normal((3200, 5))
        got = construct._seminorm_rows(Counted(2.0), values, values[0])
        assert calls == [(3200, 5)]
        assert got.tobytes() == LqNorm(2.0)(values - values[0]).tobytes()

    @pytest.mark.parametrize("trial", range(5))
    def test_halving_epsilon_never_drops_centers(self, trial):
        rng = np.random.default_rng(320 + trial)
        values = np.array([rng.standard_normal(4) for _ in range(60)])
        rho = LqNorm(2.0)
        counts = [len(build_epsilon_net(values, rho, eps)) for eps in (2.0, 1.0, 0.5, 0.25)]
        assert counts == sorted(counts)


class TestPartition:
    def test_single_center_is_all_ones(self):
        values = scalar_values(0.0, 0.3, -0.2)
        net = build_epsilon_net(values, ABS, 5.0)
        np.testing.assert_array_equal(build_partition(net, ABS), np.ones((3, 1)))

    # hand-built nets carry the distance rows of their samples: here sample
    # 0.0, 1.0 or (0.5, 9.0) against centers 0.0 and 2.0, or 0.0 alone
    def test_support_condition_gives_unit_weight(self):
        net = EpsilonNet(scalar_values(0.0, 2.0), 1.5, np.array([[0.0, 2.0]]))
        np.testing.assert_array_equal(build_partition(net, ABS), [[1.0, 0.0]])

    def test_equidistant_sample_splits_evenly(self):
        net = EpsilonNet(scalar_values(0.0, 2.0), 2.0, np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(build_partition(net, ABS), [[0.5, 0.5]])

    def test_uncovered_sample_diagnosed_by_index(self):
        net = EpsilonNet(scalar_values(0.0), 1.0, np.array([[0.5], [9.0]]))
        with pytest.raises(CoverageError, match="sample 1"):
            build_partition(net, ABS)

    @pytest.mark.parametrize("trial", range(10))
    def test_partition_invariants(self, trial):
        rng = np.random.default_rng(340 + trial)
        rho = LqNorm(2.0)
        values = np.array([rng.standard_normal(5) for _ in range(30)])
        net = build_epsilon_net(values, rho, 1.2)
        weights = build_partition(net, rho)
        assert weights.shape == (30, len(net))
        assert np.all(weights >= 0.0)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        support = weights > 0.0
        assert np.all(net.distances[support] < 1.2)

    def test_distances_match_scalar_calls(self, monkeypatch):
        small_row_blocks(monkeypatch, 3)
        rng = np.random.default_rng(350)
        rho = LqNorm(2.0)
        values = np.array([rng.standard_normal(3) for _ in range(CROSSING_ROWS)])
        net = build_epsilon_net(values, rho, 2.0)
        want = [[gap(rho, t, c) for c in net.centers] for t in values]
        np.testing.assert_allclose(net.distances, want, rtol=1e-12, atol=0)


def finite_rank(weights, net):
    """The finite-rank map on every sample: row i is sum_j psi_j(s_i) v_j."""
    return weights @ net.centers


def overrun_partition(net, rho):
    """Weights that put each sample's whole mass on its farthest center.

    With two or more centers, a center's farthest center is at least the
    net's epsilon away, so the weighted distances reach the stage-1 budget.
    """
    return np.eye(len(net))[np.argmax(net.distances, axis=1)]


class TestFiniteRank:
    def test_single_center_reproduced_exactly(self):
        values = scalar_values(3.0, 3.2)
        net = build_epsilon_net(values, ABS, 1.0)
        out = finite_rank(build_partition(net, ABS), net)[1]
        np.testing.assert_array_equal(out, [3.0])

    def test_constant_operator_exact(self):
        values = scalar_values(*[5.0] * 4)
        net = build_epsilon_net(values, ABS, 0.7)
        assert len(net) == 1
        out = finite_rank(build_partition(net, ABS), net)
        for i in range(4):
            assert gap(ABS, out[i], values[i]) == 0.0

    def test_convexity_bound_survives_stripped_asserts(self, monkeypatch):
        # assembly's stage-1 check: the largest sum_j psi_j d_ij must stay
        # below epsilon/2; the constant values 0..4 are five centers
        grid = GridMeta(0.0, 1.0, 101)
        ens = band_ensemble(5, grid, seed=1)
        values = np.repeat(np.arange(5.0)[:, None], 101, axis=1)
        cfg = FitConfig(functional_spec=fn_spec(grid), width=4, seed=0)
        monkeypatch.setattr(construct, "build_partition", overrun_partition)
        family = SeminormFamily((LqNorm(2.0, grid),))
        with pytest.raises(BudgetError, match="stage-1 error .* reached its budget 0.05"):
            assemble_vector_network(values, ens, family, 0, 0.1, cfg)

    def test_convexity_bound_raises_under_python_O(self):
        code = (
            "import numpy as np\n"
            "from shallowop import construct\n"
            "from shallowop.construct import FitConfig, assemble_vector_network\n"
            "from shallowop.errors import BudgetError\n"
            "from shallowop.inputs import EnsembleSpec, FunctionalSpec, sample_ensemble\n"
            "from shallowop.targets import GridMeta, LqNorm, SeminormFamily\n"
            "grid = GridMeta(0.0, 1.0, 101)\n"
            "spec = EnsembleSpec('band_limited', 5, radii=(1.0,), grid=grid)\n"
            "ens = sample_ensemble(spec, 1)\n"
            "values = np.repeat(np.arange(5.0)[:, None], 101, axis=1)\n"
            "cfg = FitConfig(functional_spec=FunctionalSpec(('function', grid)), width=4)\n"
            "def overrun(net, rho):\n"
            "    return np.eye(len(net))[np.argmax(net.distances, axis=1)]\n"
            "construct.build_partition = overrun\n"
            "try:\n"
            "    family = SeminormFamily((LqNorm(2.0, grid),))\n"
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
        rho = LqNorm(2.0, grid)
        eps = 0.05
        net = build_epsilon_net(values, rho, eps)
        weights = build_partition(net, rho)
        out = finite_rank(weights, net)
        for i, t in enumerate(values):
            err = gap(rho, t, out[i])
            bound = float(np.dot(weights[i], net.distances[i]))
            assert err <= bound + 1e-9 * eps
            assert bound < eps * (1.0 + 1e-9)
            assert err < eps


class TestLeastSquares:
    def test_identity_system(self):
        (c,) = least_squares_solve(np.eye(2)[None], np.array([[[3.0], [4.0]]]), 0.0)
        np.testing.assert_allclose(c[:, 0], [3.0, 4.0], rtol=1e-12)

    def test_mean_through_ones_column(self):
        a = np.ones((6, 1))
        (c,) = least_squares_solve(a[None], np.full((1, 6, 1), 5.0), 0.0)
        np.testing.assert_allclose(c[:, 0], [5.0], rtol=1e-12)

    def test_no_random_perturbation_beats_solution(self):
        rng = np.random.default_rng(400)
        a = rng.standard_normal((40, 10))
        y = rng.standard_normal(40)
        c = least_squares_solve(a[None], y[None, :, None], 0.0)[0, :, 0]
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
        c = least_squares_solve(a[None], y[None, :, None], lam)[0, :, 0]
        np.testing.assert_allclose(
            (a.T @ a + lam * np.eye(8)) @ c, a.T @ y, rtol=1e-8, atol=1e-10
        )

    def test_rank_deficiency_warns_only_unregularized(self):
        a = np.ones((5, 2))  # duplicate columns
        y = np.arange(5.0)
        with pytest.warns(UserWarning, match="rank-deficient"):
            least_squares_solve(a[None], y[None, :, None], 0.0)
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            least_squares_solve(a[None], y[None, :, None], 1e-10)

    def test_shape_and_sign_errors(self):
        with pytest.raises(ShapeError):
            least_squares_solve(np.eye(3)[None], np.ones((1, 2, 1)), 0.0)
        with pytest.raises(ValueError):
            least_squares_solve(np.eye(2)[None], np.ones((1, 2, 1)), -1.0)
        for lam in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lam"):
                least_squares_solve(np.eye(2)[None], np.ones((1, 2, 1)), lam)
        with pytest.raises(ShapeError):
            least_squares_solve(np.ones((2, 3, 3)), np.ones((3, 3, 1)), 0.0)
        with pytest.raises(ShapeError):  # one design is a stack of one
            least_squares_solve(np.eye(2), np.ones((2, 1)), 0.0)

    @pytest.mark.parametrize("solve", (least_squares_solve, fit_ridge_features))
    @pytest.mark.parametrize("library", (True, False), ids=("dgels", "no_library"))
    @pytest.mark.parametrize("shape", ((0, 5, 3), (1, 0, 3), (1, 5, 0)),
                             ids=("no_members", "no_rows", "no_columns"))
    def test_empty_design_axis_refused_by_name(self, monkeypatch, solve, library, shape):
        # as the array rule refuses an empty axis, before any member is solved
        if not library:
            monkeypatch.setattr(construct, "_openblas", lambda: None)
        monkeypatch.setattr(construct, "_svd_solve", no_call("_svd_solve"))
        with pytest.raises(ShapeError, match="must be a nonempty 3-d array") as info:
            solve(np.ones(shape), np.ones(shape[:2] + (1,)), 0.0)
        assert info.value.arg == "design"

    @pytest.mark.parametrize("solve", (least_squares_solve, fit_ridge_features))
    @pytest.mark.parametrize("shape", ((2, 5, 0), (2, 5), (2, 5, 1, 1), (2,)),
                             ids=("no_columns", "2d", "4d", "1d"))
    def test_targets_of_another_shape_refused_by_name(self, monkeypatch, solve, shape):
        # targets are (b, n, r) with r >= 1, one column y[..., None], and are
        # refused before any member is solved
        monkeypatch.setattr(construct, "_dgels_members", no_call("_dgels_members"))
        with pytest.raises(ShapeError, match=r"must be \(b, n, r\).*inconsistent") as info:
            solve(np.ones((2, 5, 3)), np.ones(shape), 0.0)
        assert info.value.arg == "targets"

    @pytest.mark.parametrize("lam", (0.0, 1e-3))
    @pytest.mark.parametrize("n, k", ((6, 3), (3, 6)), ids=("tall", "wide"))
    @pytest.mark.parametrize("arg, bad", [("design", np.nan), ("design", np.inf),
                                          ("targets", np.nan), ("targets", -np.inf)])
    def test_non_finite_member_refused_by_name(self, capfd, monkeypatch, lam, n, k, arg, bad):
        # member 0 is rank-deficient (rank 1), member 1 holds the bad entry:
        # no member is solved, so nothing warns of the rank
        rng = np.random.default_rng(402)
        stack = {"design": rng.standard_normal((2, n, k)),
                 "targets": rng.standard_normal((2, n, 1))}
        stack["design"][0] = np.outer(rng.standard_normal(n), rng.standard_normal(k))
        stack[arg][1].flat[1] = bad
        monkeypatch.setattr(construct, "_dgels_members", no_call("_dgels_members"))
        monkeypatch.setattr(construct, "_svd_solve", no_call("_svd_solve"))
        import warnings as _w

        with _w.catch_warnings(record=True) as caught:
            _w.simplefilter("always")
            with pytest.raises(ConfigError, match="contain non-finite") as info:
                least_squares_solve(stack["design"], stack["targets"], lam)
        assert info.value.arg == arg and caught == []
        # refused before LAPACK reads it, so LAPACK prints nothing
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("n, k", ((6, 3), (3, 6)), ids=("tall", "wide"))
    @pytest.mark.parametrize("arg", ("design", "targets"))
    @pytest.mark.parametrize("kind", ("complex", "bool", "str", "object"))
    def test_non_real_array_refused_by_name(self, n, k, arg, kind):
        rng = np.random.default_rng(403)
        stack = {"design": rng.standard_normal((2, n, k)),
                 "targets": rng.standard_normal((2, n, 1))}
        stack[arg] = {"complex": stack[arg] + 1j,
                      "bool": stack[arg] > 0,
                      "str": stack[arg].astype(str),
                      "object": stack[arg].astype(object)}[kind]
        # refused before any cast, so numpy's ComplexWarning is never raised
        with pytest.raises(ConfigError, match="must hold real numbers") as info:
            least_squares_solve(stack["design"], stack["targets"], 0.0)
        assert info.value.arg == arg


def random_stack(rng, b, n, k):
    """b random (n, k) designs and their (n, 1) targets."""
    return rng.standard_normal((b, n, k)), rng.standard_normal((b, n, 1))


def reference_solve(a, y, lam):
    """SVD least squares on the sqrt(lam)-augmented matrix, one matrix, with
    targets y (n,) or (n, r)."""
    k = a.shape[1]
    aug = np.vstack([a, np.sqrt(lam) * np.eye(k)])
    return np.linalg.lstsq(aug, np.concatenate([y, np.zeros((k,) + y.shape[1:])]),
                           rcond=None)[0]


class TestStackedSolve:
    # tall_large and wide_large are large enough for blocked factorizations;
    # wide designs split A^T into panels of n // 2 and n - n // 2 columns,
    # one panel when n = 1
    SHAPES = [(30, 8, 0.0), (12, 12, 0.0), (8, 20, 0.0), (30, 8, 1e-3), (8, 20, 1e-3),
              (400, 96, 0.0), (80, 300, 0.0), (1, 6, 0.0), (2, 9, 0.0), (7, 20, 0.0),
              (79, 128, 0.0)]
    IDS = ["tall", "square", "wide", "tall_lam", "wide_lam", "tall_large", "wide_large",
           "wide_n1", "wide_n2", "wide_odd", "wide_odd_preset"]

    @pytest.mark.parametrize("n, k, lam", SHAPES, ids=IDS)
    def test_agrees_with_per_matrix_lstsq(self, n, k, lam):
        rng = np.random.default_rng(n * k)
        a, y = random_stack(rng, 5, n, k)
        coeffs = least_squares_solve(a, y, lam)
        assert coeffs.shape == (5, k, 1)
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
            np.testing.assert_array_equal(errors[i], alone[1][0])
            # the same member among other members, at another position
            mixed_a = np.concatenate([other_a[:i % 4 + 1], a[i:i + 1], other_a])
            mixed_y = np.concatenate([other_y[:i % 4 + 1], y[i:i + 1], other_y])
            mixed, mixed_errors = fit_ridge_features(mixed_a, mixed_y, lam)
            np.testing.assert_array_equal(mixed[i % 4 + 1], coeffs[i])
            np.testing.assert_array_equal(mixed_errors[i % 4 + 1], errors[i])
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

    @pytest.mark.parametrize("library", (True, False), ids=("dgels", "no_library"))
    @pytest.mark.parametrize("n, k", [(9, 4), (4, 9)], ids=["tall", "wide"])
    def test_rank_deficient_member_of_r_columns_falls_back_alone(self, monkeypatch, n, k,
                                                                 library):
        if not library:
            monkeypatch.setattr(construct, "_openblas", lambda: None)
        rng = np.random.default_rng(12)
        a, _ = random_stack(rng, 3, n, k)
        y = rng.standard_normal((3, n, 3))
        if n >= k:
            a[1, :, 1] = a[1, :, 0]
        else:
            a[1, 1] = a[1, 0]
        with pytest.warns(UserWarning, match="rank-deficient") as caught:
            coeffs = least_squares_solve(a, y, 0.0)
        # one warning for the member, not one per column
        assert len([w for w in caught if "rank-deficient" in str(w.message)]) == 1
        assert coeffs.shape == (3, k, 3)
        np.testing.assert_array_equal(coeffs[1], np.linalg.lstsq(a[1], y[1], rcond=None)[0])
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            for i in (0, 2):
                np.testing.assert_array_equal(coeffs[i],
                                              least_squares_solve(a[i:i + 1], y[i:i + 1], 0.0)[0])

    @pytest.mark.parametrize("column", (0, 4), ids=("first_column", "fifth_column"))
    def test_identity_reflector_member_solved_alone(self, column):
        # column c of A^T is e_c and row c of A^T is zero left of it, so
        # LAPACK's reflector for that column is the identity (tau = 0); the
        # QR handles it like any other member
        rng = np.random.default_rng(19)
        a, y = random_stack(rng, 3, 8, 20)
        a[1, :column, column] = 0.0
        a[1, column] = 0.0
        a[1, column, column] = 1.0
        _, tau = np.linalg.qr(a[1].T, mode="raw")
        assert tau[column] == 0.0
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            coeffs = least_squares_solve(a, y, 0.0)
            # the minimum-norm solution, as SVD least squares gives it
            assert_matches_lstsq(coeffs[1], a[1], y[1], 0.0)
            for i in (0, 2):
                np.testing.assert_array_equal(
                    coeffs[i], least_squares_solve(a[i:i + 1], y[i:i + 1], 0.0)[0])


def assert_matches_lstsq(coeffs, a, y, lam, want=None):
    """coeffs are want, by default SVD least squares on the
    sqrt(lam)-augmented a, to within 16 max(n, k) times the first-order
    bound for a backward-stable solve: eps (cond + cond^2 |r| / (|A| |x|))
    |x|, cond the augmented a's condition number over its min(n, k)
    singular values and r the residual."""
    n, k = a.shape
    aug = np.vstack([a, np.sqrt(lam) * np.eye(k)])
    rhs = np.concatenate([y, np.zeros((k,) + y.shape[1:])])
    sigma = np.linalg.svd(aug if lam > 0 else a, compute_uv=False)
    cond = sigma[0] / sigma[-1]
    want = reference_solve(a, y, lam) if want is None else want
    size = np.linalg.norm(want)
    residual = np.linalg.norm(aug @ want - rhs)
    bound = np.finfo(float).eps * (cond + cond ** 2 * residual / (sigma[0] * size)) * size
    assert np.linalg.norm(coeffs - want) <= 16 * max(n, k) * bound


class TestDgels:
    """Each member is one LAPACK dgels call (see least_squares_solve)."""

    @pytest.mark.parametrize("n, k, lam, deficient", [
        (40, 12, 0.0, False), (12, 40, 0.0, False), (40, 12, 1e-3, False),
        (12, 40, 1e-3, False), (40, 12, 0.0, True), (12, 40, 0.0, True)],
        ids=["tall", "wide", "tall_lam", "wide_lam", "tall_deficient", "wide_deficient"])
    def test_members_match_lstsq(self, n, k, lam, deficient):
        rng = np.random.default_rng(n + 3 * k)
        a, y = random_stack(rng, 4, n, k)
        # scaled columns give each member a different condition number
        a *= np.logspace(0, -4, k) * rng.uniform(0.5, 2.0, (4, 1, 1))
        if deficient:  # member 2 repeats a column (tall) or a row (wide)
            if n >= k:
                a[2, :, 3] = a[2, :, 1]
            else:
                a[2, 3] = a[2, 1]
        import warnings as _w

        with _w.catch_warnings(record=True) as caught:
            _w.simplefilter("always")
            coeffs = least_squares_solve(a, y, lam)
        assert len(caught) == deficient
        if deficient:
            assert "rank-deficient" in str(caught[0].message)
            np.testing.assert_array_equal(coeffs[2], np.linalg.lstsq(a[2], y[2], rcond=None)[0])
        for i in range(4):
            if not (deficient and i == 2):
                assert_matches_lstsq(coeffs[i], a[i], y[i], lam)

    @pytest.mark.parametrize("n, k", [(40, 12), (12, 40)], ids=["tall", "wide"])
    def test_ridge_rows_are_written_whatever_new_memory_holds(self, monkeypatch, n, k):
        # every array np.empty makes starts as 1e3, so a right-hand side
        # whose ridge rows are left unwritten solves another system
        if network._openblas() is None:
            pytest.skip("numpy ships no scipy-openblas library")
        empty = np.empty

        def filled(*args, **kwargs):
            out = empty(*args, **kwargs)
            out.fill(1e3)
            return out

        rng = np.random.default_rng(7 * n + k)
        a, y = random_stack(rng, 3, n, k)
        monkeypatch.setattr(np, "empty", filled)
        coeffs = construct._dgels_members(a, y, 1e-3)
        monkeypatch.undo()
        for i in range(3):
            assert_matches_lstsq(coeffs[i], a[i], y[i], 1e-3)

    @pytest.mark.parametrize("n, k", [(40, 12), (12, 40)], ids=["tall", "wide"])
    def test_svd_fallback_with_ridge_is_lstsq_on_the_augmented_system(self, monkeypatch, n, k):
        monkeypatch.setattr(construct, "_openblas", lambda: None)
        rng = np.random.default_rng(11 * n + k)
        a, y = random_stack(rng, 3, n, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs = least_squares_solve(a, y, 1e-2)
        for i in range(3):
            aug = np.vstack([a[i], np.sqrt(1e-2) * np.eye(k)])
            rhs = np.concatenate([y[i], np.zeros((k, 1))])
            want = np.linalg.lstsq(aug, rhs, rcond=None)[0]
            np.testing.assert_array_equal(coeffs[i], want)

    @pytest.mark.parametrize("n, k, lam", [(40, 12, 0.0), (12, 40, 0.0), (40, 12, 1e-3),
                                           (12, 40, 1e-3)],
                             ids=["tall", "wide", "tall_lam", "wide_lam"])
    def test_each_of_r_columns_matches_its_one_column_solve(self, n, k, lam):
        # one dgels call with NRHS = 3 per member; LAPACK need not round it
        # as three NRHS = 1 calls, so the columns agree to the solve's bound
        rng = np.random.default_rng(5 * n + k)
        a, _ = random_stack(rng, 4, n, k)
        a *= np.logspace(0, -4, k) * rng.uniform(0.5, 2.0, (4, 1, 1))
        y = rng.standard_normal((4, n, 3))
        coeffs = least_squares_solve(a, y, lam)
        assert coeffs.shape == (4, k, 3)
        for i in range(4):
            for column in range(3):
                alone = least_squares_solve(a[i:i + 1], y[i:i + 1, :, column, None],
                                            lam)[0, :, 0]
                assert_matches_lstsq(coeffs[i, :, column], a[i], y[i, :, column], lam, alone)

    @pytest.mark.parametrize("b", (1, 3, 5))
    @pytest.mark.parametrize("n, k, lam", [(40, 12, 0.0), (12, 40, 0.0), (40, 12, 1e-3),
                                           (12, 40, 1e-3)],
                             ids=["tall", "wide", "tall_lam", "wide_lam"])
    def test_one_query_per_stack_and_one_call_per_member(self, monkeypatch, b, n, k, lam):
        library = network._openblas()
        if library is None:
            pytest.skip("numpy ships no scipy-openblas library")
        calls = []

        def counting(*args):
            calls.append(args[-1])  # lwork: -1 asks for the workspace size
            return library[0](*args)

        monkeypatch.setattr(construct, "_openblas", lambda: (counting, *library[1:]))
        a, y = random_stack(np.random.default_rng(b + n), b, n, k)
        least_squares_solve(a, y, lam)
        assert calls[0] == -1 and calls.count(-1) == 1
        assert len(calls) == b + 1

    @pytest.mark.parametrize("member", (0, 2))
    @pytest.mark.parametrize("n, k", [(9, 4), (4, 9)], ids=["tall", "wide"])
    @pytest.mark.parametrize("fallback", ("info", "diagonal", "non_finite"))
    def test_each_fallback_sends_only_its_member_to_svd(self, monkeypatch, fallback, n, k,
                                                        member):
        library = network._openblas()
        if library is None:
            pytest.skip("numpy ships no scipy-openblas library")
        rng = np.random.default_rng(31 + n)
        a, y = random_stack(rng, 4, n, k)
        if fallback == "diagonal":  # a repeated column (tall) or row (wide)
            if n >= k:
                a[member, :, 1] = a[member, :, 0]
            else:
                a[member, 1] = a[member, 0]
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore")
            alone = [least_squares_solve(a[i:i + 1], y[i:i + 1], 0.0)[0] for i in range(4)]
        svd, solved, infos = construct._svd_solve, [], []

        def dgels(*args):
            info = library[0](*args)
            if args[-1] == -1:
                return info
            infos.append(info)
            if len(infos) - 1 != member:
                return info
            if fallback == "non_finite":  # the first coefficient of B
                ctypes.c_double.from_address(args[7]).value = np.nan
            return 1 if fallback == "info" else info

        def solving(design, targets, lam):
            solved.append(design.tobytes())
            return svd(design, targets, lam)

        monkeypatch.setattr(construct, "_openblas", lambda: (dgels, *library[1:]))
        monkeypatch.setattr(construct, "_svd_solve", solving)
        with _w.catch_warnings(record=True) as caught:
            _w.simplefilter("always")
            coeffs = least_squares_solve(a, y, 0.0)
        # dgels itself found no zero diagonal: each fallback is its own check
        assert infos == [0, 0, 0, 0]
        assert solved == [a[member].tobytes()]
        assert len(caught) == (fallback == "diagonal")
        np.testing.assert_array_equal(coeffs[member], svd(a[member], y[member], 0.0)
                                      if fallback != "diagonal" else alone[member])
        for i in set(range(4)) - {member}:
            np.testing.assert_array_equal(coeffs[i], alone[i])

    def test_binding_found_where_numpy_ships_scipy_openblas(self):
        try:
            lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        except (KeyError, TypeError):
            pytest.skip("numpy reports no build configuration")
        if lapack.get("name") != "scipy-openblas":
            pytest.skip(f"numpy was built with {lapack.get('name')}")
        assert network._openblas() is not None

    def test_import_binds_nothing(self):
        code = ("import shallowop\n"
                "from shallowop import network\n"
                "assert network._openblas.cache_info().currsize == 0\n")
        env = dict(os.environ, PYTHONPATH=str(Path(construct.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_without_binding_assembly_solves_by_svd(self, monkeypatch):
        monkeypatch.setattr(construct, "_openblas", lambda: None)
        svd, solved = construct._svd_solve, []

        def counting(design, targets, lam):
            solved.append(design.shape)
            return svd(design, targets, lam)

        monkeypatch.setattr(construct, "_svd_solve", counting)
        grid = GridMeta(0.0, 1.0, 101)
        ens = band_ensemble(40, grid, seed=5)
        values = poisson_operator(grid).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(grid), width=16, seed=8)
        net, report = assemble_vector_network(values, ens, SeminormFamily((LqNorm(2.0, grid),)),
                                              0, 0.05, cfg)
        assert report.converged and report.train_errors[0] < 0.05
        # every member of every width tried, each solved alone
        tried = sum(int(np.sum(report.coefficient_widths >= k)) for k in (16, 32, 64, 128, 256,
                                                                          512))
        assert len(solved) == tried and report.m >= 2

    def test_without_the_library_the_hold_sets_nothing(self, monkeypatch):
        # the platform without numpy's bundled OpenBLAS: neither module finds
        # the library, so the hold sets no thread count and every solve of
        # an assembly is by SVD; where the library is there, its count is
        # set to 2 first and must still read 2 in every solve
        library = network._openblas()
        monkeypatch.setattr(network, "_openblas", lambda: None)
        monkeypatch.setattr(construct, "_openblas", lambda: None)
        svd, seen = construct._svd_solve, []

        def counting(design, targets, lam):
            seen.append((network._holds[0], library and library[1]()))
            return svd(design, targets, lam)

        monkeypatch.setattr(construct, "_svd_solve", counting)
        grid = GridMeta(0.0, 1.0, 101)
        ens = band_ensemble(40, grid, seed=5)
        values = poisson_operator(grid).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(grid), width=16, seed=8)
        before = library and library[1]()
        try:
            if library:
                library[2](2)
            net, report = assemble_vector_network(
                values, ens, SeminormFamily((LqNorm(2.0, grid),)), 0, 0.05, cfg)
        finally:
            if library:
                library[2](before)
        assert report.converged and report.train_errors[0] < 0.05
        assert seen and set(seen) == {(0, 2 if library else None)}

    def test_thread_count_held_and_restored(self, monkeypatch):
        library = network._openblas()
        if library is None:
            pytest.skip("numpy ships no scipy-openblas library")
        _, get_threads, set_threads = library
        solve, seen = construct._dgels_members, []

        def watching(*args):
            seen.append(get_threads())
            return solve(*args)

        monkeypatch.setattr(construct, "_dgels_members", watching)
        rng = np.random.default_rng(23)
        a, y = random_stack(rng, 2, 30, 8)
        before = get_threads()
        try:
            set_threads(2)
            least_squares_solve(a, y, 0.0)
            assert seen == [1] and get_threads() == 2
        finally:
            set_threads(before)

    def test_concurrent_holds_restore_the_count(self):
        # more threads than CPUs opening and closing holds, switching often:
        # a lost update of the hold count would leave OpenBLAS at one thread
        library = network._openblas()
        if library is None:
            pytest.skip("numpy ships no scipy-openblas library")
        _, get_threads, set_threads = library
        before, interval = get_threads(), sys.getswitchinterval()
        rng = np.random.default_rng(29)
        a, y = random_stack(rng, 3, 20, 6)
        want = least_squares_solve(a, y, 0.0)
        results = []

        def solve():
            for _ in range(50):
                results.append(least_squares_solve(a, y, 0.0).tobytes())

        try:
            set_threads(2)
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=solve) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert get_threads() == 2 and network._holds[0] == 0
            assert results == [want.tobytes()] * 400
        finally:
            sys.setswitchinterval(interval)
            set_threads(before)


def bank_design(flats, L, thetas, activation):
    return activation(flats @ L.T - thetas)


def fit_one(flats, y, cfg, delta):
    """fit_columns on the one column y, with the bank seeded by cfg.seed: its
    one block's (P, theta, c) and sup error."""
    P, thetas, coeffs, widths, sup_errors = fit_columns(
        flats, np.asarray(y, dtype=float)[:, None], cfg, [cfg.seed], delta)
    assert widths.tolist() == [len(thetas)]
    return P, thetas, coeffs, sup_errors[0]


def no_call(name):
    """A stand-in for name that fails the test if anything calls it."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran before the arguments were checked")
    return refuse


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
        coeffs, sup_error = fit_ridge_features(design[None], xs[None, :, None], 0.0)
        np.testing.assert_allclose(coeffs[0, :, 0], [1.0, -1.0], atol=1e-10)
        assert sup_error[0, 0] < 1e-12

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

    @pytest.mark.parametrize("targets, seeds", [
        (np.zeros((4, 3)), [11, 12]), (np.zeros(4), [11]), (np.zeros((3, 1)), [11]),
        (np.zeros((4, 1, 1)), [11]), (np.zeros((4, 0)), []),
    ], ids=["three-columns-two-seeds", "1-d", "wrong-rows", "3-d", "no-column"])
    def test_targets_must_have_one_column_per_seed(self, targets, seeds, monkeypatch):
        cfg = FitConfig(functional_spec=FunctionalSpec(("sequence", 3)), width=4, seed=11)
        monkeypatch.setattr(construct, "draw_features", no_call("draw_features"))
        with pytest.raises(ShapeError, match="targets") as info:
            fit_columns(np.zeros((4, 3)), targets, cfg, seeds, 0.1)
        assert info.value.arg == "targets"

    def test_targets_must_be_real(self, monkeypatch):
        cfg = FitConfig(functional_spec=FunctionalSpec(("sequence", 3)), width=4, seed=11)
        monkeypatch.setattr(construct, "draw_features", no_call("draw_features"))
        for bad in (np.full((4, 1), "0.5"), np.ones((4, 1), dtype=bool)):
            with pytest.raises(ConfigError, match="targets"):
                fit_columns(np.zeros((4, 3)), bad, cfg, [cfg.seed], 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_targets_must_be_finite(self, bad, monkeypatch):
        # read by the array rule, before any bank is drawn or solved
        cfg = FitConfig(functional_spec=FunctionalSpec(("sequence", 3)), width=4, seed=11)
        monkeypatch.setattr(construct, "draw_features", no_call("draw_features"))
        targets = np.zeros((4, 2))
        targets[2, 1] = bad
        with pytest.raises(ConfigError, match="non-finite") as info:
            fit_columns(np.zeros((4, 3)), targets, cfg, [11, 12], 0.1)
        assert info.value.arg == "targets"

    def test_bank_stops_once_every_column_is_below_delta(self):
        ens, y = self.sin_problem()
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, max_width=32, seed=3)
        zeros = np.zeros(len(y))
        alone = fit_columns(ens.flats, zeros[:, None], cfg, [3], 1e-6)
        assert alone[3].tolist() == [8] and alone[4].tolist() == [0.0]
        # the sin column stays above delta, so the bank grows to max_width
        P, thetas, c, widths, errors = fit_columns(ens.flats, np.stack([zeros, y], axis=1),
                                                   cfg, [3], 1e-6)
        assert widths.tolist() == [32] and len(thetas) == 32 and c.shape == (64,)
        assert errors[0] == 0.0 and errors[1] >= 1e-6
        np.testing.assert_array_equal(c.reshape(32, 2)[:, 0], np.zeros(32))

    def test_flats_list_of_rows_is_read_as_its_array(self, monkeypatch):
        # array rows are stacked by one numpy call, Python numbers read
        # entry by entry
        ens = sample_ensemble(EnsembleSpec("sequence_box", 12, radii=(1.0, 0.5, 0.25)), 20)
        flats, targets = ens.flats, np.random.default_rng(20).standard_normal((12, 2))
        cfg = FitConfig(functional_spec=FunctionalSpec(("sequence", 3)), width=4, seed=11)
        want = fit_columns(flats, targets, cfg, [7, 8], 1e-3)
        as_float, read = targets_module._as_float, []

        def counting(value, *args, **kwargs):
            read.append(value)
            return as_float(value, *args, **kwargs)

        monkeypatch.setattr(targets_module, "_as_float", counting)
        for rows, entries in ((list(ens.flats), 0), (flats.tolist(), flats.size)):
            read.clear()
            got = fit_columns(rows, targets, cfg, [7, 8], 1e-3)
            assert len(read) == entries
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("flats, error", [
        ([[0.0, 1.0, 2.0], [1.0, 2.0]], ShapeError), ([np.zeros(3), np.zeros(2)], ShapeError),
        (np.zeros((4, 2)), ShapeError),
        (np.zeros(12), ShapeError), (np.full((4, 3), "0.5"), ConfigError),
        (np.ones((4, 3), dtype=bool), ConfigError), (np.zeros((4, 3)) + 1j, ConfigError),
        ([[0.0, 1.0, True]] * 4, ConfigError), (np.full((4, 3), np.nan), ConfigError),
        (np.full((4, 3), -np.inf), ConfigError),
    ], ids=["ragged-rows", "ragged-array-rows", "wrong-width", "1-d", "str", "bool", "complex", "bool-entry",
            "nan", "inf"])
    def test_flats_refused_by_name(self, flats, error, monkeypatch):
        cfg = FitConfig(functional_spec=FunctionalSpec(("sequence", 3)), width=4, seed=11)
        monkeypatch.setattr(construct, "draw_features", no_call("draw_features"))
        with pytest.raises(error, match="inputs") as info:
            fit_columns(flats, np.zeros((4, 1)), cfg, [cfg.seed], 0.1)
        assert info.value.arg == "flats"

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -0.5, True, "0.1"])
    def test_delta_must_be_finite_and_nonnegative(self, delta, monkeypatch):
        cfg = FitConfig(functional_spec=FunctionalSpec(("sequence", 3)), width=4, seed=11)
        monkeypatch.setattr(construct, "draw_features", no_call("draw_features"))
        with pytest.raises(ConfigError, match="delta") as info:
            fit_columns(np.zeros((4, 3)), np.zeros((4, 1)), cfg, [cfg.seed], delta)
        assert info.value.arg == "delta"

    def test_returns_read_only_factors_in_column_order(self):
        rng = np.random.default_rng(19)
        flats = rng.standard_normal((12, 3))
        targets = rng.standard_normal((12, 3))
        cfg = FitConfig(functional_spec=FunctionalSpec(("sequence", 3)), width=4,
                        max_width=16, seed=11)
        seeds = [7, 8, 9]
        P, thetas, coeffs, widths, sup_errors = fit_columns(flats, targets, cfg, seeds, 1e-3)
        assert widths.shape == sup_errors.shape == (3,) and widths.dtype == np.int64
        assert P.shape == (widths.sum(), 3) and thetas.shape == coeffs.shape == (widths.sum(),)
        for factor in (P, thetas, coeffs, widths, sup_errors):
            assert not factor.flags.writeable and factor.base is None
        starts = np.cumsum(widths) - widths
        for j, seed in enumerate(seeds):
            one = fit_columns(flats, targets[:, j:j + 1], cfg, [seed], 1e-3)
            block = slice(starts[j], starts[j] + widths[j])
            for whole, alone in zip((P[block], thetas[block], coeffs[block]), one[:3]):
                np.testing.assert_array_equal(whole, alone)
            assert one[3].tolist() == [widths[j]] and one[4][0] == sup_errors[j]

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


def expected_stacks(final_widths, n, cfg, cpus):
    """The stacked solves that fit columns with these final widths on cpus
    CPUs, share by share: per width tried, the columns not yet done split
    into min(cpus, pending) contiguous shares whose sizes differ by one at
    most, and each share solves its columns in order, in stacks that keep
    their designs, 8 n k bytes each, within SOLVE_STACK_BYTES.  A share is
    the list of its stacks, each (width, columns)."""
    shares, k = [], cfg.width
    while True:
        pending = np.flatnonzero(np.asarray(final_widths) >= k).tolist()
        if not pending:
            return shares
        count = min(cpus, len(pending))
        bounds = [-(-i * len(pending) // count) for i in range(count + 1)]
        size = max(1, construct.SOLVE_STACK_BYTES // (8 * n * k))
        for first, last in zip(bounds, bounds[1:]):
            share = pending[first:last]
            shares.append([(k, tuple(share[i:i + size])) for i in range(0, len(share), size)])
        if k >= cfg.max_width:
            return shares
        k = min(2 * k, cfg.max_width)


def assert_share_order(stacks, shares):
    """stacks, recorded from every thread, are the stacks of shares, and each
    share's come in its own order."""
    assert sorted(stacks) == sorted(stack for share in shares for stack in share)
    for share in shares:
        assert [stack for stack in stacks if stack in share] == share


def recording_stacks(monkeypatch, psi, designs=None):
    """The list that every stacked solve from now on appends its (width,
    columns) to, its partition columns found by their targets in psi; with
    designs, each member's (width, column, design) is appended there too."""
    columns = {psi[:, j].tobytes(): j for j in range(psi.shape[1])}
    assert len(columns) == psi.shape[1]
    solve, stacks = construct.fit_ridge_features, []

    def recording(design, targets, lam):
        stack = tuple(columns[column.tobytes()] for column in targets)
        stacks.append((design.shape[2], stack))
        if designs is not None:
            designs.extend((design.shape[2], j, np.array(member))
                           for j, member in zip(stack, design))
        return solve(design, targets, lam)

    monkeypatch.setattr(construct, "fit_ridge_features", recording)
    return stacks


def stage_one_weights(values, eps):
    """The partition weights assembly fits at eps under the L2 norm on
    TestAssemble's grid."""
    return stage1_partition(values, LqNorm(2.0, TestAssemble.GRID), eps)[0]


class TestAssemble:
    GRID = GridMeta(0.0, 1.0, 101)

    def family(self):
        return SeminormFamily((LqNorm(2.0, self.GRID),))

    def test_zero_operator_takes_degenerate_branch(self):
        ens = band_ensemble(20, self.GRID, seed=1)
        values = np.zeros((20, 101))
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, seed=0)
        net, report = assemble_vector_network(
            values, ens, self.family(), 0, 0.1, cfg
        )
        assert report.C == 0.0 and report.delta is None
        assert net.width == 0
        assert report.converged
        assert report.train_errors[0] == 0.0
        assert net.output_grid == self.GRID and net.output_dim == 101

    def test_constant_operator_fits_through_bias(self):
        ens = band_ensemble(20, self.GRID, seed=2)
        values = np.full((20, 101), 2.0)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, seed=0)
        eps = 0.05
        net, report = assemble_vector_network(
            values, ens, self.family(), 0, eps, cfg
        )
        assert net.output_grid == self.GRID
        assert report.m == 1
        assert report.C == pytest.approx(2.0, rel=1e-12)
        assert report.converged
        assert report.train_errors[0] < eps

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
        np.testing.assert_allclose(measured, report.train_errors[0], rtol=1e-12)
        assert np.all(report.coefficient_errors < report.delta)

    @pytest.mark.parametrize("zero", [False, True], ids=["fitted", "degenerate"])
    def test_train_errors_cover_the_whole_family(self, zero):
        ens = band_ensemble(30, self.GRID, seed=4)
        values = poisson_operator(self.GRID).apply_many(ens)
        if zero:
            values = np.zeros((30, 101))
        family = SeminormFamily((LqNorm(2.0, self.GRID), SupDerivative(0, self.GRID)))
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, lam=0.0, seed=6)
        net, report = assemble_vector_network(values, ens, family, 1, 0.2, cfg)
        np.testing.assert_array_equal(report.train_errors,
                                      uniform_error(values, net, ens, family))

    def test_network_neurons_are_the_public_banks(self):
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        net, report = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        assert report.m >= 2
        assert np.any(report.coefficient_widths > cfg.width)  # some banks were grown
        centers = build_epsilon_net(values, LqNorm(2.0, self.GRID), 0.025).centers
        start = 0
        # every coefficient row of block j is a multiple of center j
        np.testing.assert_array_equal(net.centers, centers)
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
        monkeypatch.setattr(network, "_cpu_count", lambda: 2)
        stacks = recording_stacks(monkeypatch, stage_one_weights(values, 0.05))
        net, report = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        # one stacked solve per width tried and stack, each share's in order
        assert_share_order(stacks, expected_stacks(report.coefficient_widths, len(ens), cfg, 2))
        assert np.any(report.coefficient_widths > cfg.width)
        # block j of the network is fit_columns on partition column j alone
        psi, centers, _, _ = stage1_partition(values, LqNorm(2.0, self.GRID), 0.05)
        start = 0
        for j, center in enumerate(centers):
            P, thetas, coeffs, width, (err,) = fit_columns(
                ens.flats, psi[:, j:j + 1], cfg, [derive_seed(cfg.seed, j)], report.delta)
            assert width.tolist() == [len(thetas)]
            rows = slice(start, start + len(thetas))
            start += len(thetas)
            np.testing.assert_array_equal(net.weights[rows], P)
            np.testing.assert_array_equal(net.thresholds[rows], thetas)
            np.testing.assert_array_equal(net.coefficients[rows], coeffs)
            np.testing.assert_array_equal(net.centers[j], center)
            assert net.widths[j] == len(thetas)
            assert err == report.coefficient_errors[j]
        assert start == net.width

    def test_stage_two_is_one_fit_columns_call(self, monkeypatch):
        # the handover: one fit_columns call on the stage-1 coordinates T, and
        # a network holding its factors and the centers U without a copy
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        fit, net_of = construct.fit_columns, construct.build_epsilon_net
        calls, nets = [], []

        def recording(flats, targets, fit_cfg, seeds, delta):
            result = fit(flats, targets, fit_cfg, seeds, delta)
            calls.append((flats, np.array(targets), fit_cfg, list(seeds), delta, result))
            return result

        def keeping(*args):
            nets.append(net_of(*args))
            return nets[-1]

        monkeypatch.setattr(construct, "fit_columns", recording)
        monkeypatch.setattr(construct, "build_epsilon_net", keeping)
        net, report = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        assert len(calls) == 1 and len(nets) == 1
        flats, targets, fit_cfg, seeds, delta, (P, thetas, c, widths, errors) = calls[0]
        assert flats is ens.flats and fit_cfg is cfg and delta == report.delta
        assert targets.tobytes() == build_partition(nets[0], LqNorm(2.0, self.GRID)).tobytes()
        assert targets.shape == (len(ens), report.m)
        want = [derive_seed(cfg.seed, j) for j in range(report.m)]
        assert [(s.entropy, s.spawn_key) for s in seeds] == [(s.entropy, s.spawn_key)
                                                             for s in want]
        assert net.weights is P and net.thresholds is thetas and net.coefficients is c
        assert net.centers is nets[0].centers
        np.testing.assert_array_equal(net.widths, widths)
        assert report.coefficient_widths is widths and report.coefficient_errors is errors

    @pytest.mark.parametrize("rho_index", [True, False, -1, 1, 0.0, np.float64(0), "0", None],
                             ids=["True", "False", "-1", "len", "float", "numpy-float", "str",
                                  "None"])
    def test_rho_index_refused_before_stage_one(self, rho_index, monkeypatch):
        ens = band_ensemble(5, self.GRID, seed=6)
        values = np.full((5, 101), 1.0)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=4)
        monkeypatch.setattr(construct, "build_epsilon_net", no_call("build_epsilon_net"))
        with pytest.raises(ConfigError, match="rho_index") as info:
            assemble_vector_network(values, ens, self.family(), rho_index, 0.1, cfg)
        assert info.value.arg == "rho_index"

    @pytest.mark.parametrize("epsilon", [float("inf"), float("nan"), 0.0, -0.1, True, "0.1"])
    def test_epsilon_refused_before_stage_one(self, epsilon, monkeypatch):
        ens = band_ensemble(5, self.GRID, seed=6)
        values = np.full((5, 101), 1.0)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=4)
        monkeypatch.setattr(construct, "build_epsilon_net", no_call("build_epsilon_net"))
        with pytest.raises(ConfigError, match="epsilon") as info:
            assemble_vector_network(values, ens, self.family(), 0, epsilon, cfg)
        assert info.value.arg == "epsilon"

    def test_designs_are_the_network_pre_activation(self, monkeypatch):
        # every design stage 2 solves is eta((X B^T) P^T - theta) on a prefix
        # of a block of the returned network, as evaluate_many computes it
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        monkeypatch.setattr(network, "_cpu_count", lambda: 3)
        designs = []
        stacks = recording_stacks(monkeypatch, stage_one_weights(values, 0.05), designs)
        net, _ = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        assert np.any(net.widths > cfg.width)
        # per width tried, the columns still pending, each share's in order
        assert_share_order(stacks, expected_stacks(net.widths, len(ens), cfg, 3))
        S = ens.flats @ net.basis.T
        starts = np.cumsum(net.widths) - net.widths
        assert len(designs) == sum(len(columns) for _, columns in stacks)
        for k, j, got in designs:
            rows = slice(starts[j], starts[j] + k)
            expected = net.activation(S @ net.weights[rows].T - net.thresholds[rows])
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cpus", (1, 2, 3))
    def test_small_stacks_change_no_bit(self, cpus, monkeypatch):
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        net, report = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        monkeypatch.setattr(network, "_cpu_count", lambda: cpus)
        stacks = recording_stacks(monkeypatch, stage_one_weights(values, 0.05))
        # two members of the first width per stack in each share, then one
        monkeypatch.setattr(construct, "SOLVE_STACK_BYTES", 2 * 8 * 40 * 16)
        small, small_report = assemble_vector_network(values, ens, self.family(), 0, 0.05,
                                                         cfg)
        shares = expected_stacks(report.coefficient_widths, len(ens), cfg, cpus)
        assert_share_order(stacks, shares)
        assert shares[0][0] == (16, (0, 1)) and len(stacks) > 4
        for name in ("weights", "thresholds", "coefficients"):
            np.testing.assert_array_equal(getattr(small, name), getattr(net, name))
        np.testing.assert_array_equal(small_report.coefficient_errors,
                                      report.coefficient_errors)

    def test_factors_do_not_depend_on_the_worker_count(self, monkeypatch):
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        psi = stage_one_weights(values, 0.05)
        seeds = [derive_seed(3, j) for j in range(psi.shape[1])]
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(network, "_cpu_count", lambda: cpus)
            net, report = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
            fitted = fit_columns(ens.flats, psi, cfg, seeds, report.delta)
            results.append([a.tobytes() for a in (
                net.weights, net.thresholds, net.coefficients, net.widths,
                report.coefficient_errors, report.train_errors, *fitted)])
        assert np.any(report.coefficient_widths > cfg.width) and report.m >= 3
        assert results[1] == results[0] and results[2] == results[0]

    def test_banks_of_r_columns_do_not_depend_on_the_worker_count(self, monkeypatch):
        # three banks of two partition columns each, which stop at
        # different widths
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        psi = stage_one_weights(values, 0.05)
        assert psi.shape[1] == 6
        seeds = [derive_seed(4, j) for j in range(3)]
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(network, "_cpu_count", lambda: cpus)
            fitted = fit_columns(ens.flats, psi, cfg, seeds, 0.1)
            results.append([a.tobytes() for a in fitted])
        widths = fitted[3]
        assert len(set(widths.tolist())) > 1 and fitted[4].shape == (6,)
        assert fitted[2].shape == (2 * widths.sum(),)
        assert results[1] == results[0] and results[2] == results[0]
        # bank j is columns 2 j and 2 j + 1 fitted alone, its block in order
        starts = np.cumsum(widths) - widths
        for j, seed in enumerate(seeds):
            alone = fit_columns(ens.flats, psi[:, 2 * j:2 * j + 2], cfg, [seed], 0.1)
            block = slice(starts[j], starts[j] + widths[j])
            whole = (fitted[0][block], fitted[1][block], fitted[2][2 * block.start:2 * block.stop],
                     widths[j:j + 1], fitted[4][2 * j:2 * j + 2])
            assert [a.tobytes() for a in whole] == [a.tobytes() for a in alone]

    @pytest.mark.parametrize("lam", (0.0, 1e-6))
    def test_one_bank_fits_every_partition_column(self, lam):
        # the stage-1 coordinates T as one bank of m columns: block 0's
        # (W, m) coefficients, row by row, and column i's one-column solve
        # on the same bank
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, lam=lam, seed=8)
        T = stage_one_weights(values, 0.05)
        m = T.shape[1]
        P, thetas, c, widths, errors = fit_columns(ens.flats, T, cfg, [8], 1e-3)
        (W,) = widths
        assert len(thetas) == W and errors.shape == (m,) and c.shape == (W * m,)
        design = bank_design(ens.flats @ cfg.functional_spec.basis.T, P, thetas, cfg.activation)
        fixed = replace(cfg, width=W, max_width=W)
        for i in range(m):
            one = fit_columns(ens.flats, T[:, i:i + 1], fixed, [8], 1e-3)
            np.testing.assert_array_equal(one[0], P)
            np.testing.assert_array_equal(one[1], thetas)
            assert_matches_lstsq(c.reshape(W, m)[:, i], design, T[:, i], lam, one[2])

    @pytest.mark.parametrize("cpus", (1, 2, 3))
    def test_every_draw_runs_on_the_calling_thread(self, cpus, monkeypatch):
        # the shares build and solve designs; the banks are drawn before
        # they start, so every stream is read on one thread
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=16, seed=8)
        psi = stage_one_weights(values, 0.05)
        draw, solve, drawn, solved = construct.draw_features, construct.fit_ridge_features, [], []

        def drawing(*args):
            drawn.append(threading.get_ident())
            return draw(*args)

        def solving(*args):
            solved.append(threading.get_ident())
            return solve(*args)

        monkeypatch.setattr(network, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(construct, "draw_features", drawing)
        monkeypatch.setattr(construct, "fit_ridge_features", solving)
        seeds = [derive_seed(3, j) for j in range(psi.shape[1])]
        widths = fit_columns(ens.flats, psi, cfg, seeds, 1e-3)[3]
        assert np.any(widths > cfg.width) and psi.shape[1] >= 3
        # one draw per column per width it tried
        assert len(drawn) == sum(int(np.log2(w // cfg.width)) + 1 for w in widths)
        assert set(drawn) == {threading.get_ident()}
        # the solves did run on started threads when there were shares
        assert (set(solved) != {threading.get_ident()}) == (cpus > 1)

    def test_violated_budget_raises_not_asserts(self, monkeypatch):
        ens = band_ensemble(20, self.GRID, seed=2)
        values = np.full((20, 101), 2.0)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, seed=0)
        eps = 0.05
        monkeypatch.setattr(construct, "uniform_error",
                            lambda *args: np.array([2.0 * eps]))
        with pytest.raises(BudgetError, match="budget violated"):
            assemble_vector_network(values, ens, self.family(), 0, eps, cfg)

    @staticmethod
    def budget(epsilon, m, C, delta, stage1_budget=None):
        """An AssemblyReport with the given budget and placeholder stage
        figures; stage 1 keeps epsilon/2 unless stage1_budget says otherwise."""
        if stage1_budget is None:
            stage1_budget = epsilon / 2
        return AssemblyReport(epsilon, m, C, delta, 0.0, stage1_budget, np.zeros(m),
                              np.zeros(m, dtype=int), True, np.zeros(1))

    def test_budget_arithmetic(self):
        # delta m C exactly epsilon/2 fills the stage budget; C = 0 is degenerate
        self.budget(0.1, 4, 0.5, 0.1 / (2 * 4 * 0.5))
        self.budget(0.1, 1, 0.0, None)
        with pytest.raises(ValueError):
            self.budget(0.1, 4, 0.5, 0.5)  # delta overruns the stage budget
        with pytest.raises(ValueError):
            self.budget(0.1, 1, 0.0, 0.1)  # degenerate (C = 0) carries no delta
        with pytest.raises(ValueError):
            self.budget(0.1, 4, 0.5, 0.0)  # delta must be positive
        with pytest.raises(ValueError):
            self.budget(0.1, 4, 0.5, None)  # a fitted run carries a delta

    def test_budget_is_what_stage_one_kept(self):
        # the check reads the stage-1 budget it is given, not epsilon/2:
        # with none kept, stage 2 may spend all of epsilon
        self.budget(0.1, 4, 0.5, 0.1 / (4 * 0.5), stage1_budget=0.0)
        with pytest.raises(ValueError, match="overruns the stage budget"):
            self.budget(0.1, 4, 0.5, 0.05 / (4 * 0.5), stage1_budget=0.08)

    def test_stage_one_keeps_half_of_epsilon(self):
        # the net's radius and the budget are epsilon/2; T and U are the
        # partition and centers of that net
        ens = band_ensemble(40, self.GRID, seed=5)
        values = poisson_operator(self.GRID).apply_many(ens)
        rho = LqNorm(2.0, self.GRID)
        T, U, stage1_sup, budget = stage1_partition(values, rho, 0.05)
        net = build_epsilon_net(values, rho, 0.025)
        assert budget == 0.025 and len(U) >= 2
        assert T.tobytes() == build_partition(net, rho).tobytes()
        np.testing.assert_array_equal(U, net.centers)
        assert stage1_sup == float(np.max(np.sum(T * net.distances, axis=1))) < budget

    @pytest.mark.parametrize("epsilon", [True, float("inf"), float("nan"), 0.0, "0.1"])
    def test_stage_one_refuses_epsilon_by_name(self, epsilon, monkeypatch):
        # True would halve to a radius of 0.5, and inf to a net of one center
        monkeypatch.setattr(construct, "build_epsilon_net", no_call("build_epsilon_net"))
        with pytest.raises(ConfigError, match="epsilon") as info:
            stage1_partition(np.ones((5, 101)), LqNorm(2.0, self.GRID), epsilon)
        assert info.value.arg == "epsilon"

    @pytest.mark.parametrize("fill", [1.0, 0.0], ids=["fitted", "degenerate"])
    def test_assembly_spends_what_stage_one_left(self, fill, monkeypatch):
        # delta, the report's check and the zero network's bound all read
        # the budget stage1_partition returns
        ens = band_ensemble(20, self.GRID, seed=2)
        values = np.full((20, 101), fill)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, seed=0)
        stage1 = construct.stage1_partition
        monkeypatch.setattr(construct, "stage1_partition",
                            lambda *args: (*stage1(*args)[:3], 0.01))
        net, report = assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        assert report.stage1_budget == 0.01 and report.converged
        monkeypatch.setattr(construct, "uniform_error", lambda *args: np.array([0.02]))
        if fill:
            assert report.delta == (0.05 - 0.01) / (report.m * report.C)
            assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)
        else:
            # the zero network is held to stage 1's budget, not epsilon/2
            assert report.delta is None and report.train_errors[0] == 0.0
            with pytest.raises(BudgetError, match="not below 0.01 "):
                assemble_vector_network(values, ens, self.family(), 0, 0.05, cfg)

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
        np.testing.assert_array_equal(a_rep.train_errors, b_rep.train_errors)
        probe = list(ens)[:5]
        np.testing.assert_array_equal(a_net.evaluate_many(probe), b_net.evaluate_many(probe))

    def test_misaligned_values_rejected(self):
        ens = band_ensemble(5, self.GRID, seed=6)
        values = np.zeros((4, 101))
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=4, seed=0)
        with pytest.raises(ShapeError):
            assemble_vector_network(values, ens, self.family(), 0, 0.1, cfg)

    @pytest.mark.parametrize("values, error", [
        (np.zeros(5), ShapeError),
        (np.full((5, 101), np.inf), ConfigError),
        (np.ones((5, 101), dtype=complex), ConfigError),
    ], ids=["one_row", "infinite", "complex"])
    def test_values_refused_by_name_before_stage_one(self, values, error, monkeypatch):
        ens = band_ensemble(5, self.GRID, seed=6)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=4, seed=0)
        monkeypatch.setattr(construct, "build_epsilon_net", no_call("build_epsilon_net"))
        with pytest.raises(error, match="operator values") as info:
            assemble_vector_network(values, ens, self.family(), 0, 0.1, cfg)
        assert info.value.arg == "f_values"

    @pytest.mark.parametrize("form", ["matrix", "rows"])
    def test_ensemble_refused_by_name_before_stage_one(self, form, monkeypatch):
        # an (n, dim) matrix of input rows, or a list of them, is not an
        # ensemble: it has no signature for the functional spec to match
        ens = band_ensemble(5, self.GRID, seed=6)
        rows = ens.flats if form == "matrix" else list(ens.flats)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=4, seed=0)
        monkeypatch.setattr(construct, "build_epsilon_net", no_call("build_epsilon_net"))
        with pytest.raises(ConfigError, match="ensemble must be a CompactEnsemble") as info:
            assemble_vector_network(np.ones((5, 101)), rows, self.family(), 0, 0.1, cfg)
        assert info.value.arg == "ensemble"

    def test_values_off_the_family_grid_refused(self):
        ens = band_ensemble(5, self.GRID, seed=6)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=4, seed=0)
        with pytest.raises(ShapeError, match="grid has 101 nodes"):
            assemble_vector_network(np.ones((5, 100)), ens, self.family(), 0, 0.1, cfg)

    def test_network_outputs_sit_on_the_family_grid(self):
        # an unweighted family on grid values gives a network without an
        # output grid, as its seminorms measure the values
        ens = band_ensemble(20, self.GRID, seed=2)
        cfg = FitConfig(functional_spec=fn_spec(self.GRID), width=8, seed=0)
        for fill in (2.0, 0.0):
            net, _ = assemble_vector_network(np.full((20, 101), fill), ens,
                                             SeminormFamily((LqNorm(2.0),)), 0, 0.5, cfg)
            assert net.output_grid is None and net.output_dim == 101

    def test_mismatched_functional_spec_rejected(self):
        ens = band_ensemble(5, self.GRID, seed=6)
        values = np.full((5, 101), 1.0)
        cfg = FitConfig(functional_spec=FunctionalSpec(("sequence", 101)), width=4)
        with pytest.raises(ShapeError, match="functional spec"):
            assemble_vector_network(values, ens, self.family(), 0, 0.1, cfg)

    @pytest.mark.parametrize("fill", [1.0, 0.0], ids=["fitted", "degenerate"])
    def test_mismatched_functional_spec_rejected_before_stage_one(self, fill, monkeypatch):
        # also when every center is rho-null (C = 0) and stage 2 would not run
        ens = band_ensemble(5, self.GRID, seed=6)
        values = np.full((5, 101), fill)
        cfg = FitConfig(functional_spec=fn_spec(GridMeta(0.0, 2.0, 101)), width=4)
        monkeypatch.setattr(construct, "build_epsilon_net", no_call("build_epsilon_net"))
        with pytest.raises(ShapeError, match="functional spec"):
            assemble_vector_network(values, ens, self.family(), 0, 0.1, cfg)


class TestUniformError:
    GRID = GridMeta(0.0, 1.0, 31)

    def test_exact_reproduction_gives_zero(self):
        ens = band_ensemble(10, self.GRID, seed=7)
        values = np.zeros((10, 31))
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        fam = SeminormFamily((LqNorm(2.0, self.GRID), LqNorm(1.0, self.GRID)))
        np.testing.assert_array_equal(uniform_error(values, net, ens, fam), [0.0, 0.0])

    def test_empty_net_against_constant(self):
        ens = band_ensemble(10, self.GRID, seed=8)
        v = np.full((1, 31), 3.0)
        values = np.full((10, 31), 3.0)
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        fam = SeminormFamily((LqNorm(2.0, self.GRID), LqNorm(1.0, self.GRID)))
        got = uniform_error(values, net, ens, fam)
        want = [LqNorm(2.0, self.GRID)(v)[0], LqNorm(1.0, self.GRID)(v)[0]]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_dual_errors(self):
        ens = band_ensemble(10, self.GRID, seed=9)
        values = np.full((10, 31), 3.0)
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        duals = SeminormFamily((
            DualPairing(np.zeros(31), self.GRID, name="null"),
            DualPairing(np.ones(31), self.GRID, name="mean"),
        ))
        got = uniform_error(values, net, ens, duals)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("count", [12, CROSSING_ROWS])
    def test_matches_per_sample_loop(self, count, monkeypatch):
        small_row_blocks(monkeypatch, 31)
        rng = np.random.default_rng(400 + count)
        ens = band_ensemble(count, self.GRID, seed=11 + count)
        values = np.array([rng.standard_normal(31) for _ in range(count)])
        net = ShallowVectorNetwork(rng.standard_normal((5, 31)), rng.uniform(-1, 1, 5),
                                   np.ones(5), rng.standard_normal((5, 31)), np.ones(5, int),
                                   Tanh(), ens.signature, self.GRID)
        fam = SeminormFamily((LqNorm(2.0, self.GRID), SupDerivative(1, self.GRID),
                              DualPairing(rng.standard_normal(31), self.GRID)))
        want = [max(gap(rho, t, net.evaluate_many([s])[0]) for t, s in zip(values, ens))
                for rho in fam]
        np.testing.assert_allclose(uniform_error(values, net, ens, fam), want,
                                   rtol=1e-12, atol=0)

    def test_output_dim_mismatch(self):
        ens = band_ensemble(3, self.GRID, seed=10)
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 30)
        values = np.zeros((3, 31))
        with pytest.raises(ShapeError):
            uniform_error(values, net, ens, SeminormFamily((LqNorm(2.0, self.GRID),)))

    @pytest.mark.parametrize("other", [GridMeta(0.0, 2.0, 31), None], ids=["wider", "none"])
    def test_family_on_another_grid_refused(self, other):
        # a seminorm on [0, 2] weighs values on [0, 1] as if they were twice
        # as far apart: a Poisson network's L2 error read 0.0397 for 0.0281
        ens = band_ensemble(3, self.GRID, seed=10)
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        with pytest.raises(ShapeError, match="seminorm family is on grid") as info:
            uniform_error(np.ones((3, 31)), net, ens, SeminormFamily((LqNorm(2.0, other),)))
        assert info.value.arg == "family"

    def test_shape_mismatch(self):
        ens = band_ensemble(3, self.GRID, seed=10)
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        fam = SeminormFamily((LqNorm(2.0, self.GRID),))
        with pytest.raises(ShapeError):
            uniform_error(np.zeros((2, 31)), net, ens, fam)

    @pytest.mark.parametrize("values, error", [
        (np.zeros(31), ShapeError),
        (np.full((3, 31), np.nan), ConfigError),
        ([["x"] * 31] * 3, ConfigError),
    ], ids=["one_row", "nan", "strings"])
    def test_values_refused_by_name(self, values, error):
        ens = band_ensemble(3, self.GRID, seed=10)
        net = ShallowVectorNetwork.zero(Tanh(), ens.signature, 31, self.GRID)
        fam = SeminormFamily((LqNorm(2.0, self.GRID),))
        with pytest.raises(error, match="operator values") as info:
            uniform_error(values, net, ens, fam)
        assert info.value.arg == "f_values"
