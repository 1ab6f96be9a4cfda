import re

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from shallowop.errors import ConfigError, ShapeError
from shallowop.inputs import EnsembleSpec, sample_ensemble
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
from shallowop.targets import GridMeta

EXP_NEG_1 = 0.36787944117144233


def fn_row(f, grid):
    """f sampled on the nodes of grid: one input row of ("function", grid)."""
    return f(grid.nodes())


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
            [fn_row(np.sin, g)])
        np.testing.assert_array_equal(out[0], np.zeros(31))

    def test_unit_kernel_integrates_constants(self):
        g = GridMeta(0.0, 1.0, 31)
        out = integral_operator(make_kernel("constant"), g).apply_many(
            [fn_row(np.ones_like, g)])
        np.testing.assert_allclose(out[0], 1.0, rtol=1e-12)

    def test_gaussian_kernel_against_fine_quadrature(self):
        g = GridMeta(0.0, 1.0, 101)
        kernel = make_kernel("gaussian", width=1.0)
        f = fn_row(lambda x: np.sin(np.pi * x), g)
        got = integral_operator(kernel, g).apply_many([f])[0]
        want = fine_quadrature_oracle(kernel, lambda s: np.sin(np.pi * s), g.nodes())
        assert np.max(np.abs(got - want)) < 1e-3

    def test_grid_refinement_reduces_error_fourfold(self):
        kernel = make_kernel("gaussian", width=1.0)
        errs = []
        for n in (101, 201):
            g = GridMeta(0.0, 1.0, n)
            f = fn_row(lambda x: np.sin(np.pi * x), g)
            got = integral_operator(kernel, g).apply_many([f])[0]
            want = fine_quadrature_oracle(kernel, lambda s: np.sin(np.pi * s), g.nodes())
            errs.append(np.max(np.abs(got - want)))
        assert 3.0 < errs[0] / errs[1] < 5.0

    @pytest.mark.parametrize("trial", range(5))
    def test_linearity(self, trial):
        rng = np.random.default_rng(40 + trial)
        g = GridMeta(0.0, 1.0, 41)
        kernel = make_kernel("gaussian", width=0.7)
        f = rng.standard_normal(41)
        h = rng.standard_normal(41)
        a, b = rng.uniform(-2.0, 2.0, 2)
        op = integral_operator(kernel, g)
        lhs = op.apply_many([a * f + b * h])[0]
        rhs = a * op.apply_many([f])[0] + b * op.apply_many([h])[0]
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_unknown_kernel(self):
        with pytest.raises(ConfigError):
            make_kernel("mystery")
        with pytest.raises(ConfigError):
            make_kernel("gaussian", width=-1.0)


class TestPoisson:
    def test_unit_load_gives_parabola(self):
        g = GridMeta(0.0, 1.0, 101)
        u = poisson_operator(g).apply_many([fn_row(np.ones_like, g)])
        x = g.nodes()
        np.testing.assert_allclose(u[0], x * (1.0 - x) / 2.0, atol=1e-13)
        assert u[0, 50] == pytest.approx(0.125, abs=1e-13)

    def test_boundary_values_exactly_zero(self):
        g = GridMeta(0.0, 1.0, 41)
        f = np.random.default_rng(0).standard_normal(41)
        u = poisson_operator(g).apply_many([f])
        assert u[0, 0] == 0.0
        assert u[0, -1] == 0.0

    def test_sine_load_second_order_accurate(self):
        errs = []
        for n in (101, 201):
            g = GridMeta(0.0, 1.0, n)
            u = poisson_operator(g).apply_many([fn_row(lambda x: np.sin(np.pi * x), g)])
            exact = np.sin(np.pi * g.nodes()) / np.pi**2
            errs.append(np.max(np.abs(u[0] - exact)))
        assert errs[0] < 1e-3
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_zero_load(self):
        g = GridMeta(0.0, 1.0, 11)
        u = poisson_operator(g).apply_many([fn_row(np.zeros_like, g)])
        np.testing.assert_array_equal(u[0], np.zeros(11))

    @pytest.mark.parametrize("trial", range(5))
    def test_linearity(self, trial):
        rng = np.random.default_rng(50 + trial)
        g = GridMeta(0.0, 1.0, 33)
        f = rng.standard_normal(33)
        h = rng.standard_normal(33)
        a, b = rng.uniform(-2.0, 2.0, 2)
        op = poisson_operator(g)
        lhs = op.apply_many([a * f + b * h])[0]
        rhs = a * op.apply_many([f])[0] + b * op.apply_many([h])[0]
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("trial", range(5))
    def test_discrete_maximum_principle(self, trial):
        rng = np.random.default_rng(60 + trial)
        g = GridMeta(0.0, 1.0, 51)
        f = np.abs(rng.standard_normal(51))
        assert np.min(poisson_operator(g).apply_many([f])) >= -1e-12

    @pytest.mark.parametrize("n, rows", [(4, 50), (5, 50), (11, 50), (101, 50), (201, 50),
                                         (101, 4000)])
    def test_sweeps_are_the_per_row_banded_solve(self, n, rows):
        g = GridMeta(0.0, 1.0, n)
        F = np.random.default_rng(n + rows).standard_normal((rows, n))
        got = poisson_operator(g).apply_many(list(F))
        h = g.spacing
        ab = np.zeros((2, n - 2))
        ab[0, 1:] = -1.0 / h**2
        ab[1, :] = 2.0 / h**2
        want = np.zeros((rows, n))
        for u, f in zip(want, F):
            u[1:-1] = solveh_banded(ab, f[1:-1])
        assert got.tobytes() == want.tobytes()

    def test_one_interior_node(self):
        g = GridMeta(0.0, 1.0, 3)
        u = poisson_operator(g).apply_many([[0.7, -1.3, 2.9]])[0]
        # bytes, so the boundary values are +0.0 exactly
        assert u.tobytes() == np.array([0.0, -1.3 / (2.0 / g.spacing**2), 0.0]).tobytes()

    def test_too_few_nodes(self):
        g = GridMeta(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            poisson_operator(g).apply_many([fn_row(np.ones_like, g)])


class TestSuperposition:
    def test_sin_of_zero(self):
        g = GridMeta(0.0, 1.0, 11)
        out = superposition_operator("sin", ("function", g)).apply_many(
            [fn_row(np.zeros_like, g)])
        np.testing.assert_array_equal(out[0], np.zeros(11))

    def test_square_is_exact_nodewise(self):
        g = GridMeta(0.0, 1.0, 11)
        out = superposition_operator("square", ("function", g)).apply_many(
            [fn_row(lambda x: x, g)])
        np.testing.assert_array_equal(out[0], g.nodes() ** 2)

    def test_exp_minus_constant(self):
        g = GridMeta(0.0, 1.0, 11)
        out = superposition_operator("exp-", ("function", g)).apply_many(
            [fn_row(np.ones_like, g)])
        np.testing.assert_allclose(out[0], EXP_NEG_1, rtol=1e-15)

    def test_sequence_input(self):
        op = superposition_operator("sin", ("sequence", 2))
        out = op.apply_many([[0.0, np.pi / 2]])
        np.testing.assert_allclose(out[0], [0.0, 1.0], atol=1e-15)
        assert op.output_grid is None

    def test_unknown_map(self):
        g = GridMeta(0.0, 1.0, 11)
        with pytest.raises(ConfigError):
            superposition_operator("cube", ("function", g)).apply_many([fn_row(np.ones_like, g)])


class TestMatrixMaps:
    def test_row_sums(self):
        out = matrix_map_operator("row_sums", (2, 2)).apply_many(
            [[1.0, 2.0, 3.0, 4.0]])
        np.testing.assert_array_equal(out[0], [3.0, 7.0])

    def test_zero_matrix(self):
        z = np.zeros(4)
        np.testing.assert_array_equal(
            matrix_map_operator("row_sums", (2, 2)).apply_many([z])[0], [0.0, 0.0])
        np.testing.assert_array_equal(
            matrix_map_operator("sin_of_trace_times_basis", (2, 2)).apply_many([z])[0],
            [0.0, 0.0, 0.0]
        )

    def test_sin_of_trace_at_half_pi(self):
        z = np.diag([np.pi / 4, np.pi / 4]).reshape(-1)
        out = matrix_map_operator("sin_of_trace_times_basis", (2, 2)).apply_many([z])
        np.testing.assert_allclose(out[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_unknown_map(self):
        with pytest.raises(ConfigError):
            matrix_map_operator("det", (2, 2)).apply_many([np.eye(2).reshape(-1)])

    @pytest.mark.parametrize("map_id, out_dim, error, arg", [
        ("det", None, ConfigError, "map_id"),
        (3, None, ConfigError, "map_id"),
        ("row_sums", 2, ConfigError, "out_dim"),
        ("sin_of_trace_times_basis", 0, ShapeError, "output_dim"),
        ("sin_of_trace_times_basis", 2.5, ConfigError, "output_dim"),
    ])
    def test_refused_by_name_when_built(self, map_id, out_dim, error, arg):
        with pytest.raises(error) as info:
            matrix_map_operator(map_id, (2, 2), out_dim)
        assert info.value.arg == arg


class TestOperatorWrappers:
    def test_signature_enforced(self):
        g = GridMeta(0.0, 1.0, 21)
        op = poisson_operator(g)
        with pytest.raises(ShapeError):
            op.apply_many(sample_ensemble(EnsembleSpec("sequence_box", 2, radii=(1.0,) * 21), 0))
        with pytest.raises(ShapeError):
            op.apply_many([fn_row(np.sin, GridMeta(0.0, 1.0, 31))])

    def test_apply_many(self):
        g = GridMeta(0.0, 1.0, 21)
        op = integral_operator(make_kernel("gaussian"), g)
        outs = op.apply_many([fn_row(np.sin, g), fn_row(np.cos, g)])
        assert op.output_grid == g and outs.shape == (2, 21)

    def test_superposition_operator_variants(self):
        g = GridMeta(0.0, 1.0, 21)
        op = superposition_operator("sin", ("function", g))
        assert op.output_grid == g
        seq_op = superposition_operator("square", ("sequence", 4))
        assert (op.output_dim, seq_op.output_dim, seq_op.output_grid) == (21, 4, None)
        out = seq_op.apply_many([[1.0, 2.0, 3.0, 4.0]])
        np.testing.assert_array_equal(out[0], [1.0, 4.0, 9.0, 16.0])

    def test_matrix_operator_row_sums_dim(self):
        op = matrix_map_operator("row_sums", (3, 2))
        assert op.output_dim == 3
        out = op.apply_many([np.ones(6)])
        np.testing.assert_array_equal(out[0], [2.0, 2.0, 2.0])

    def test_zero_operator(self):
        op = zero_operator(("sequence", 3), 5)
        out = op.apply_many([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(out[0], np.zeros(5))

    @pytest.mark.parametrize("grid", [{"a": 0.0, "b": 1.0, "n": 3}, 3, (0.0, 1.0, 3)],
                             ids=["mapping", "number", "tuple"])
    def test_output_grid_must_be_a_grid(self, grid):
        with pytest.raises(ConfigError, match="output_grid must be a GridMeta or None") as info:
            Operator("cached", np.zeros_like, ("sequence", 3), 3, grid)
        assert info.value.arg == "output_grid"

    def test_output_dim_must_match_the_grid(self):
        with pytest.raises(ShapeError, match="output dim does not match its output grid"):
            Operator("cached", np.zeros_like, ("sequence", 3), 3, GridMeta(0.0, 1.0, 4))

    def test_superposition_refuses_matrices(self):
        with pytest.raises(ShapeError, match="accept function or sequence inputs"):
            superposition_operator("sin", ("matrix", (2, 2)))


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
    """The reference: fn applied to one sample's values at a time, a matrix
    sample's as its matrix."""
    shape = ens.signature[1] if ens.signature[0] == "matrix" else -1
    return np.array([fn(s.reshape(shape)) for s in ens])


def bytes_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedOperators:
    def test_poisson_is_the_per_sample_banded_solve(self):
        ens = batch_ensemble("function")
        got = poisson_operator(BATCH_GRID).apply_many(ens)
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
        got = integral_operator(kernel, BATCH_GRID).apply_many(ens)
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
        assert bytes_equal(op.apply_many(ens), per_row(g, ens))

    def test_matrix_maps_over_the_stack(self):
        ens = batch_ensemble("matrix")

        def sin_trace(z):
            out = np.zeros(4)
            out[0] = np.sin(np.trace(z))
            return out

        rows = matrix_map_operator("row_sums", (3, 2)).apply_many(ens)
        assert bytes_equal(rows, per_row(lambda z: z.sum(axis=1), ens))
        traces = matrix_map_operator("sin_of_trace_times_basis", (3, 2), 4).apply_many(ens)
        assert bytes_equal(traces, per_row(sin_trace, ens))

    @pytest.mark.parametrize("family", ["function", "sequence", "matrix"])
    def test_zero_gives_zeros(self, family):
        ens = batch_ensemble(family)
        got = zero_operator(ens.signature, 7).apply_many(ens)
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
            assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            assert bytes_equal(a, b)
            assert a.shape == (BATCH_ROWS, op.output_dim)

    def test_one_sample_is_the_one_row_batch(self):
        for family, op in self.operators():
            ens = batch_ensemble(family)
            one = op.apply_many([ens[5]])
            assert one.shape == (1, op.output_dim)
            np.testing.assert_allclose(one[0], op.apply_many(ens)[5], rtol=1e-13, atol=1e-15)
            assert bytes_equal(one[0], op.apply_many([ens[5]])[0])

    def test_values_are_read_only_and_slices_are_views(self):
        ens = batch_ensemble("function")
        values = poisson_operator(BATCH_GRID).apply_many(ens)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0] = 1.0
        head, tail = values[:240], values[240:]
        assert len(head) == 240 and len(tail) == 60
        assert np.shares_memory(head, values) and np.shares_memory(tail, values)
        assert not head.flags.writeable and not values[-1].flags.writeable

    def test_built_in_results_are_held_without_a_copy(self):
        for family, op in self.operators():
            ens = batch_ensemble(family)
            out = op.fn(ens.flats)
            # what apply_many returns as it is: float64, C-contiguous, read-only
            assert out.dtype == np.float64 and out.flags.c_contiguous
            assert not out.flags.writeable and out.base is None

    def test_fn_array_is_left_writable(self):
        cache = np.array([[1.0, 2.0]])
        op = Operator("cached", lambda F: cache, ("sequence", 2), 2)
        values = op.apply_many([[1.0, 2.0]])
        assert cache.flags.writeable
        assert not values.flags.writeable
        cache[0, 0] = 5.0
        assert values[0, 0] == 1.0

    def test_shape_and_finiteness_are_checked(self):
        ens = batch_ensemble("sequence")
        sig = ens.signature
        with pytest.raises(ShapeError, match="shape"):
            Operator("short", lambda F: F[:, :3], sig, 5).apply_many(ens)
        with pytest.raises(ShapeError, match="shape"):
            Operator("rows", lambda F: F[:-1], sig, 5).apply_many(ens)
        with pytest.raises(ConfigError, match="operator blowup values contain non-finite") as info:
            Operator("blowup", lambda F: F + np.inf, sig, 5).apply_many(ens)
        assert info.value.arg == "values"
        with pytest.raises(ConfigError, match="operator nan values contain non-finite"):
            Operator("nan", lambda F: np.where(F > 0, np.nan, F), sig, 5).apply_many(ens)
        with pytest.raises(ConfigError, match="operator words values must hold real"):
            Operator("words", lambda F: F.astype(str), sig, 5).apply_many(ens)
        with pytest.raises(ShapeError):
            superposition_operator("sin", ("sequence", 6)).apply_many(ens)
        with pytest.raises(ShapeError):
            zero_operator(sig, 0)
        with pytest.raises(ShapeError):
            poisson_operator(BATCH_GRID).apply_many([])
        with pytest.raises(ShapeError, match=r"operator flat .* shape \(300,\)"):
            Operator("flat", lambda F: F[:, 0], sig, 5).apply_many(ens)

    @pytest.mark.parametrize("dim", [0, -1, np.iinfo(np.intp).max // 8 + 1, 10**400],
                             ids=["zero", "negative", "past_the_bound", "10**400"])
    def test_output_dim_numpy_cannot_size_is_refused(self, dim):
        # refused when built, before any row of that width is asked for
        with pytest.raises(ShapeError) as info:
            Operator("wide", None, ("sequence", 3), dim)
        assert info.value.arg == "output_dim"

    def test_widest_sizable_output_dim_is_held(self):
        dim = np.iinfo(np.intp).max // 8
        assert Operator("wide", None, ("sequence", 3), dim).output_dim == dim
