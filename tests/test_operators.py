import numpy as np
import pytest
from scipy.linalg import solveh_banded

from shallowop.errors import ConfigError, ShapeError
from shallowop.inputs import (
    EnsembleSpec,
    FunctionSample,
    MatrixPoint,
    SequencePoint,
    sample_ensemble,
)
from shallowop.operators import (
    Operator,
    integral_operator,
    make_kernel,
    matrix_map_operator,
    poisson_operator,
    superposition_operator,
    zero_operator,
)
from shallowop.seeding import derive_seed
from shallowop.targets import GridMeta, TargetBatch, TargetElement

EXP_NEG_1 = 0.36787944117144233


def fn_sample(f, grid):
    return FunctionSample(f(grid.nodes()), grid)


def fine_quadrature_oracle(kernel, f_analytic, xs, n_fine=2001):
    # reference values of the integral operator from a much finer s-grid
    fine = GridMeta(0.0, 1.0, n_fine)
    s = fine.nodes()
    w = fine.trapezoid_weights()
    return np.array([np.sum(w * kernel(x, s) * f_analytic(s)) for x in xs])


class TestIntegralOperator:
    def test_zero_kernel(self):
        g = GridMeta(0.0, 1.0, 31)
        out = integral_operator(make_kernel("constant", value=0.0), g).apply_many(
            [fn_sample(np.sin, g)])[0]
        np.testing.assert_array_equal(out.values, np.zeros(31))

    def test_unit_kernel_integrates_constants(self):
        g = GridMeta(0.0, 1.0, 31)
        out = integral_operator(make_kernel("constant"), g).apply_many(
            [fn_sample(np.ones_like, g)])[0]
        np.testing.assert_allclose(out.values, 1.0, rtol=1e-12)

    def test_gaussian_kernel_against_fine_quadrature(self):
        g = GridMeta(0.0, 1.0, 101)
        kernel = make_kernel("gaussian", width=1.0)
        f = fn_sample(lambda x: np.sin(np.pi * x), g)
        got = integral_operator(kernel, g).apply_many([f]).values[0]
        want = fine_quadrature_oracle(kernel, lambda s: np.sin(np.pi * s), g.nodes())
        assert np.max(np.abs(got - want)) < 1e-3

    def test_grid_refinement_reduces_error_fourfold(self):
        kernel = make_kernel("gaussian", width=1.0)
        errs = []
        for n in (101, 201):
            g = GridMeta(0.0, 1.0, n)
            f = fn_sample(lambda x: np.sin(np.pi * x), g)
            got = integral_operator(kernel, g).apply_many([f]).values[0]
            want = fine_quadrature_oracle(kernel, lambda s: np.sin(np.pi * s), g.nodes())
            errs.append(np.max(np.abs(got - want)))
        assert 3.0 < errs[0] / errs[1] < 5.0

    @pytest.mark.parametrize("trial", range(5))
    def test_linearity(self, trial):
        rng = np.random.default_rng(40 + trial)
        g = GridMeta(0.0, 1.0, 41)
        kernel = make_kernel("gaussian", width=0.7)
        f = FunctionSample(rng.standard_normal(41), g)
        h = FunctionSample(rng.standard_normal(41), g)
        a, b = rng.uniform(-2.0, 2.0, 2)
        op = integral_operator(kernel, g)
        lhs = op.apply_many([FunctionSample(a * f.values + b * h.values, g)]).values[0]
        rhs = a * op.apply_many([f]).values[0] + b * op.apply_many([h]).values[0]
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_unknown_kernel(self):
        with pytest.raises(ConfigError):
            make_kernel("mystery")
        with pytest.raises(ConfigError):
            make_kernel("gaussian", width=-1.0)


class TestPoisson:
    def test_unit_load_gives_parabola(self):
        g = GridMeta(0.0, 1.0, 101)
        u = poisson_operator(g).apply_many([fn_sample(np.ones_like, g)])[0]
        x = g.nodes()
        np.testing.assert_allclose(u.values, x * (1.0 - x) / 2.0, atol=1e-13)
        assert u.values[50] == pytest.approx(0.125, abs=1e-13)

    def test_boundary_values_exactly_zero(self):
        g = GridMeta(0.0, 1.0, 41)
        f = FunctionSample(np.random.default_rng(0).standard_normal(41), g)
        u = poisson_operator(g).apply_many([f])[0]
        assert u.values[0] == 0.0
        assert u.values[-1] == 0.0

    def test_sine_load_second_order_accurate(self):
        errs = []
        for n in (101, 201):
            g = GridMeta(0.0, 1.0, n)
            u = poisson_operator(g).apply_many([fn_sample(lambda x: np.sin(np.pi * x), g)])[0]
            exact = np.sin(np.pi * g.nodes()) / np.pi**2
            errs.append(np.max(np.abs(u.values - exact)))
        assert errs[0] < 1e-3
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_zero_load(self):
        g = GridMeta(0.0, 1.0, 11)
        u = poisson_operator(g).apply_many([fn_sample(np.zeros_like, g)])[0]
        np.testing.assert_array_equal(u.values, np.zeros(11))

    @pytest.mark.parametrize("trial", range(5))
    def test_linearity(self, trial):
        rng = np.random.default_rng(50 + trial)
        g = GridMeta(0.0, 1.0, 33)
        f = FunctionSample(rng.standard_normal(33), g)
        h = FunctionSample(rng.standard_normal(33), g)
        a, b = rng.uniform(-2.0, 2.0, 2)
        op = poisson_operator(g)
        lhs = op.apply_many([FunctionSample(a * f.values + b * h.values, g)]).values[0]
        rhs = a * op.apply_many([f]).values[0] + b * op.apply_many([h]).values[0]
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("trial", range(5))
    def test_discrete_maximum_principle(self, trial):
        rng = np.random.default_rng(60 + trial)
        g = GridMeta(0.0, 1.0, 51)
        f = FunctionSample(np.abs(rng.standard_normal(51)), g)
        assert np.min(poisson_operator(g).apply_many([f]).values) >= -1e-12

    def test_too_few_nodes(self):
        g = GridMeta(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            poisson_operator(g).apply_many([fn_sample(np.ones_like, g)])


class TestSuperposition:
    def test_sin_of_zero(self):
        g = GridMeta(0.0, 1.0, 11)
        out = superposition_operator("sin", ("function", g)).apply_many(
            [fn_sample(np.zeros_like, g)])[0]
        np.testing.assert_array_equal(out.values, np.zeros(11))

    def test_square_is_exact_nodewise(self):
        g = GridMeta(0.0, 1.0, 11)
        out = superposition_operator("square", ("function", g)).apply_many(
            [fn_sample(lambda x: x, g)])[0]
        np.testing.assert_array_equal(out.values, g.nodes() ** 2)

    def test_exp_minus_constant(self):
        g = GridMeta(0.0, 1.0, 11)
        out = superposition_operator("exp-", ("function", g)).apply_many(
            [fn_sample(np.ones_like, g)])[0]
        np.testing.assert_allclose(out.values, EXP_NEG_1, rtol=1e-15)

    def test_sequence_input(self):
        out = superposition_operator("sin", ("sequence", 2)).apply_many(
            [SequencePoint([0.0, np.pi / 2])])[0]
        np.testing.assert_allclose(out.values, [0.0, 1.0], atol=1e-15)
        assert out.grid is None

    def test_unknown_map(self):
        g = GridMeta(0.0, 1.0, 11)
        with pytest.raises(ConfigError):
            superposition_operator("cube", ("function", g)).apply_many([fn_sample(np.ones_like, g)])


class TestMatrixMaps:
    def test_row_sums(self):
        out = matrix_map_operator("row_sums", (2, 2)).apply_many(
            [MatrixPoint([[1.0, 2.0], [3.0, 4.0]])])[0]
        np.testing.assert_array_equal(out.values, [3.0, 7.0])

    def test_zero_matrix(self):
        z = MatrixPoint(np.zeros((2, 2)))
        np.testing.assert_array_equal(
            matrix_map_operator("row_sums", (2, 2)).apply_many([z]).values[0], [0.0, 0.0])
        np.testing.assert_array_equal(
            matrix_map_operator("sin_of_trace_times_basis", (2, 2)).apply_many([z]).values[0],
            [0.0, 0.0, 0.0]
        )

    def test_sin_of_trace_at_half_pi(self):
        z = MatrixPoint(np.diag([np.pi / 4, np.pi / 4]))
        out = matrix_map_operator("sin_of_trace_times_basis", (2, 2)).apply_many([z])[0]
        np.testing.assert_allclose(out.values, [1.0, 0.0, 0.0], atol=1e-12)

    def test_unknown_map(self):
        with pytest.raises(ConfigError):
            matrix_map_operator("det", (2, 2)).apply_many([MatrixPoint(np.eye(2))])


class TestOperatorWrappers:
    def test_signature_enforced(self):
        g = GridMeta(0.0, 1.0, 21)
        op = poisson_operator(g)
        with pytest.raises(ShapeError):
            op.apply_many([SequencePoint(np.ones(21))])
        with pytest.raises(ShapeError):
            op.apply_many([fn_sample(np.sin, GridMeta(0.0, 1.0, 31))])

    def test_apply_many(self):
        g = GridMeta(0.0, 1.0, 21)
        op = integral_operator(make_kernel("gaussian"), g)
        outs = op.apply_many([fn_sample(np.sin, g), fn_sample(np.cos, g)])
        assert len(outs) == 2
        assert all(o.grid == g for o in outs)

    def test_superposition_operator_variants(self):
        g = GridMeta(0.0, 1.0, 21)
        op = superposition_operator("sin", ("function", g))
        assert op.output_grid == g
        seq_op = superposition_operator("square", ("sequence", 4))
        out = seq_op.apply_many([SequencePoint([1.0, 2.0, 3.0, 4.0])])[0]
        np.testing.assert_array_equal(out.values, [1.0, 4.0, 9.0, 16.0])

    def test_matrix_operator_row_sums_dim(self):
        op = matrix_map_operator("row_sums", (3, 2))
        assert op.output_dim == 3
        out = op.apply_many([MatrixPoint(np.ones((3, 2)))])[0]
        np.testing.assert_array_equal(out.values, [2.0, 2.0, 2.0])

    def test_zero_operator(self):
        op = zero_operator(("sequence", 3), 5)
        out = op.apply_many([SequencePoint([1.0, 2.0, 3.0])])[0]
        np.testing.assert_array_equal(out.values, np.zeros(5))


BATCH_GRID = GridMeta(0.0, 1.0, 101)
BATCH_ROWS = 300  # more than one 256-row block


def batch_ensemble(family):
    specs = {
        "function": EnsembleSpec("band_limited", BATCH_ROWS, radii=(1.0, 0.5, 0.25, 2.0),
                                 grid=BATCH_GRID),
        "sequence": EnsembleSpec("sequence_box", BATCH_ROWS, radii=(3.0, 1.0, 0.5, 0.25, 0.1)),
        "matrix": EnsembleSpec("matrix_ball", BATCH_ROWS, shape=(3, 2), radius=2.0),
    }
    return sample_ensemble(specs[family], derive_seed(808, len(family)))


def per_row(fn, ens):
    """The reference: fn applied to one sample's values at a time."""
    return np.array([fn(s.values) for s in ens])


def bytes_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedOperators:
    def test_poisson_is_the_per_sample_banded_solve(self):
        ens = batch_ensemble("function")
        got = poisson_operator(BATCH_GRID).apply_many(ens).values
        n, h = BATCH_GRID.n, BATCH_GRID.spacing
        ab = np.zeros((2, n - 2))
        ab[0, 1:] = -1.0 / h**2
        ab[1, :] = 2.0 / h**2

        def banded(f):
            u = np.zeros(n)
            u[1:-1] = solveh_banded(ab, f[1:-1])
            return u

        assert bytes_equal(got, per_row(banded, ens))
        # and it solves the dense tridiagonal system
        dense = (np.diag(np.full(n - 2, 2.0)) - np.diag(np.ones(n - 3), 1)
                 - np.diag(np.ones(n - 3), -1)) / h**2
        want = per_row(lambda f: np.concatenate([[0.0], np.linalg.solve(dense, f[1:-1]),
                                                 [0.0]]), ens)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_integral_matches_a_quadrature_loop(self):
        ens = batch_ensemble("function")
        kernel = make_kernel("gaussian", width=0.3)
        got = integral_operator(kernel, BATCH_GRID).apply_many(ens).values
        x = BATCH_GRID.nodes()
        w = BATCH_GRID.trapezoid_weights()
        want = per_row(lambda f: np.array([np.sum(w * kernel(xi, x) * f) for xi in x]), ens)
        # relative to the image's size: single nodes where the integral
        # cancels to near zero carry the absolute error of the whole sum
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("map_id, g", [("sin", np.sin), ("square", np.square),
                                           ("exp-", lambda v: np.exp(-v))])
    @pytest.mark.parametrize("family", ["function", "sequence"])
    def test_superposition_is_elementwise(self, map_id, g, family):
        ens = batch_ensemble(family)
        op = superposition_operator(map_id, ens.signature)
        assert bytes_equal(op.apply_many(ens).values, per_row(g, ens))

    def test_matrix_maps_over_the_stack(self):
        ens = batch_ensemble("matrix")

        def sin_trace(z):
            out = np.zeros(4)
            out[0] = np.sin(np.trace(z))
            return out

        rows = matrix_map_operator("row_sums", (3, 2)).apply_many(ens).values
        assert bytes_equal(rows, per_row(lambda z: z.sum(axis=1), ens))
        traces = matrix_map_operator("sin_of_trace_times_basis", (3, 2), 4).apply_many(ens)
        assert bytes_equal(traces.values, per_row(sin_trace, ens))

    @pytest.mark.parametrize("family", ["function", "sequence", "matrix"])
    def test_zero_gives_zeros(self, family):
        ens = batch_ensemble(family)
        got = zero_operator(ens.signature, 7).apply_many(ens).values
        assert bytes_equal(got, np.zeros((BATCH_ROWS, 7)))

    def operators(self):
        kernel = make_kernel("gaussian", width=0.3)
        return [
            ("function", integral_operator(kernel, BATCH_GRID)),
            ("function", poisson_operator(BATCH_GRID)),
            ("function", superposition_operator("sin", ("function", BATCH_GRID))),
            ("sequence", superposition_operator("square", ("sequence", 5))),
            ("matrix", matrix_map_operator("row_sums", (3, 2))),
            ("matrix", matrix_map_operator("sin_of_trace_times_basis", (3, 2))),
            ("matrix", zero_operator(("matrix", (3, 2)), 3)),
        ]

    def test_list_and_ensemble_give_the_same_batch(self):
        for family, op in self.operators():
            ens = batch_ensemble(family)
            a, b = op.apply_many(ens), op.apply_many(list(ens))
            assert isinstance(a, TargetBatch) and isinstance(b, TargetBatch)
            assert bytes_equal(a.values, b.values)
            assert a.grid == b.grid == op.output_grid
            assert len(a) == BATCH_ROWS and a.dim == op.output_dim

    def test_one_sample_is_the_one_row_batch(self):
        for family, op in self.operators():
            ens = batch_ensemble(family)
            got = op.apply_many([ens[5]])[0]
            assert isinstance(got, TargetElement) and got.grid == op.output_grid
            np.testing.assert_allclose(got.values, op.apply_many(ens).values[5],
                                       rtol=1e-13, atol=1e-15)
            assert bytes_equal(got.values, op.apply_many([ens[5]]).values[0])

    def test_batch_is_read_only_and_slices_are_views(self):
        ens = batch_ensemble("function")
        batch = poisson_operator(BATCH_GRID).apply_many(ens)
        assert not batch.values.flags.writeable
        with pytest.raises(ValueError):
            batch.values[0, 0] = 1.0
        head, tail = batch[:240], batch[240:]
        assert isinstance(head, TargetBatch) and len(tail) == 60
        assert np.shares_memory(head.values, batch.values)
        assert np.shares_memory(tail.values, batch.values)
        elements = list(batch)
        assert all(type(t) is TargetElement and t.grid == BATCH_GRID for t in elements)
        assert bytes_equal(elements[-1].values, batch.values[-1])
        assert bytes_equal(batch[-1].values, batch.values[-1])

    def test_shape_and_finiteness_are_checked(self):
        ens = batch_ensemble("sequence")
        sig = ens.signature
        with pytest.raises(ShapeError, match="shape"):
            Operator("short", lambda F: F[:, :3], sig, 5).apply_many(ens)
        with pytest.raises(ShapeError, match="shape"):
            Operator("rows", lambda F: F[:-1], sig, 5).apply_many(ens)
        with pytest.raises(ValueError, match="non-finite"):
            Operator("blowup", lambda F: F + np.inf, sig, 5).apply_many(ens)
        with pytest.raises(ShapeError):
            superposition_operator("sin", ("sequence", 6)).apply_many(ens)
        with pytest.raises(ShapeError):
            zero_operator(sig, 0)
        with pytest.raises(ShapeError):
            poisson_operator(BATCH_GRID).apply_many([])
        with pytest.raises(ValueError, match="non-finite"):
            TargetBatch(np.array([[1.0, np.nan]]))
        with pytest.raises(ShapeError):
            TargetBatch(np.ones((2, 3)), GridMeta(0.0, 1.0, 4))
