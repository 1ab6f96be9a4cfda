import re

import numpy as np
import pytest

from shallowop import targets
from shallowop.construct import uniform_error
from shallowop.errors import ShapeError
from shallowop.network import ShallowVectorNetwork, Tanh
from shallowop.targets import (
    DualPairing,
    GridMeta,
    LqNorm,
    SchwartzWeighted,
    Seminorm,
    SeminormFamily,
    SupDerivative,
    TargetBatch,
)

GRID = GridMeta(0.0, 1.0, 101)


def seminorm_of(rho, v, grid=None):
    """rho of the one value v, evaluated as the one-row matrix v[None]."""
    return rho(np.asarray(v, dtype=float)[None], grid)[0]


def on_grid(rho, f, grid=GRID):
    """rho of f sampled on grid."""
    return seminorm_of(rho, f(grid.nodes()), grid)


class TestRowBlocks:
    @pytest.mark.parametrize("width", (1, 5, 101, 4096))
    @pytest.mark.parametrize("extra", (None, 0, 1), ids=("one_row", "one_block", "block_plus_one"))
    def test_every_row_once_in_order(self, width, extra):
        rows = targets.BLOCK_BYTES // (8 * width)
        n = 1 if extra is None else rows + extra
        blocks = targets._row_blocks(n, width)
        covered = [i for block in blocks for i in range(n)[block]]
        assert covered == list(range(n))
        assert all(1 <= len(range(n)[block]) <= rows for block in blocks)
        assert len(blocks) == (1 if n <= rows else 2)

    def test_a_row_wider_than_the_budget_is_a_block(self):
        assert targets._row_blocks(3, targets.BLOCK_BYTES) == [slice(0, 1), slice(1, 2),
                                                               slice(2, 3)]


class TestGridMeta:
    def test_spacing_and_nodes(self):
        g = GridMeta(0.0, 2.0, 5)
        assert g.spacing == 0.5
        np.testing.assert_allclose(g.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_trapezoid_weights_sum_to_length(self):
        g = GridMeta(-1.0, 3.0, 37)
        np.testing.assert_allclose(g.trapezoid_weights().sum(), 4.0, rtol=1e-12)

    def test_endpoint_weights_halved(self):
        w = GridMeta(0.0, 1.0, 5).trapezoid_weights()
        assert w[0] == w[-1] == w[1] / 2

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            GridMeta(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            GridMeta(0.0, 1.0, 1)

    def test_node_count_must_be_an_integer(self):
        # refused, never truncated; a numpy integer is read as an int
        for n in (11.0, 11.5, True, "11"):
            with pytest.raises(ValueError, match="node count n"):
                GridMeta(0.0, 1.0, n)
        g = GridMeta(0.0, 1.0, np.int64(11))
        assert g == GridMeta(0.0, 1.0, 11) and type(g.n) is int


class TestTargetBatch:
    def test_values_are_read_only(self):
        t = TargetBatch(np.ones((1, 4)))
        with pytest.raises(ValueError):
            t.values[0, 0] = 2.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TargetBatch(np.array([[1.0, np.nan]]))

    def test_takes_slices_only(self):
        batch = TargetBatch(np.arange(6.0).reshape(3, 2))
        for i in (1, np.int64(1), -1):
            with pytest.raises(TypeError, match=re.escape(f"batch.values[{i!r}]")):
                batch[i]
        with pytest.raises(TypeError):
            list(batch)
        np.testing.assert_array_equal(batch[1:].values, [[2.0, 3.0], [4.0, 5.0]])


class TestLqNorm:
    def test_constant_one_has_unit_l2_norm(self):
        assert on_grid(LqNorm(2.0), np.ones_like) == pytest.approx(1.0, rel=1e-12)

    def test_identity_l2_norm(self):
        # exact value is 1/sqrt(3); trapezoid error at n=101 is ~1e-5
        got = on_grid(LqNorm(2.0), lambda x: x)
        assert got == pytest.approx(0.5773502691896258, abs=1e-3)

    def test_identity_l1_norm_exact(self):
        # trapezoid integrates piecewise-linear data exactly
        assert on_grid(LqNorm(1.0), lambda x: x) == pytest.approx(0.5, rel=1e-12)

    def test_plain_vector_is_euclidean(self):
        assert seminorm_of(LqNorm(2.0), [3.0, 4.0]) == 5.0

    def test_grid_refinement_shrinks_error_quadratically(self):
        exact = 1.0 / np.sqrt(7.0)
        errs = []
        for n in (101, 201):
            g = GridMeta(0.0, 1.0, n)
            errs.append(abs(on_grid(LqNorm(2.0), lambda x: x**3, g) - exact))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            LqNorm(0.5)

    def test_label(self):
        assert LqNorm(2.0).label() == "lq(q=2)"


class TestSupDerivative:
    def test_order_zero_is_sup(self):
        assert on_grid(SupDerivative(0), lambda x: x) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha,factorial", [(1, 1.0), (2, 2.0), (3, 6.0)])
    def test_monomial_gives_factorial(self, alpha, factorial):
        g = GridMeta(0.0, 1.0, 201)
        got = on_grid(SupDerivative(alpha), lambda x: x**alpha, g)
        assert got == pytest.approx(factorial, abs=1e-6)

    def test_annihilates_lower_degree(self):
        g = GridMeta(0.0, 1.0, 201)
        assert on_grid(SupDerivative(3), lambda x: x**2, g) == pytest.approx(0.0, abs=1e-6)

    def test_needs_grid_metadata(self):
        with pytest.raises(ShapeError, match="needs values on a grid") as info:
            seminorm_of(SupDerivative(1), np.ones(8))
        assert info.value.arg == "order"

    def test_order_exceeding_resolution(self):
        with pytest.raises(ShapeError, match="needs at least 5 nodes, grid has 3") as info:
            seminorm_of(SupDerivative(4), np.ones(3), GridMeta(0.0, 1.0, 3))
        assert info.value.arg == "order"

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            SupDerivative(-1)


class TestSchwartzWeighted:
    def test_weighted_sup_on_integer_grid(self):
        g = GridMeta(-10.0, 10.0, 21)
        assert seminorm_of(SchwartzWeighted(alpha=1, beta=0), np.ones(21), g) == 8.0

    def test_truncation_radius_masks_tail(self):
        g = GridMeta(-10.0, 10.0, 21)
        assert on_grid(SchwartzWeighted(alpha=0, beta=0, radius=8.0), lambda x: x**2, g) == 64.0
        assert on_grid(SchwartzWeighted(alpha=0, beta=0, radius=3.0), lambda x: x**2, g) == 9.0

    def test_empty_truncation_window_is_zero(self):
        rho = SchwartzWeighted(alpha=2, beta=0, radius=2.0)
        assert seminorm_of(rho, np.ones(11), GridMeta(5.0, 6.0, 11)) == 0.0

    def test_needs_grid_metadata(self):
        with pytest.raises(ShapeError):
            seminorm_of(SchwartzWeighted(), np.ones(8))

    def test_beta_exceeding_resolution(self):
        with pytest.raises(ShapeError, match="needs at least 4 nodes, grid has 3") as info:
            seminorm_of(SchwartzWeighted(beta=3), np.ones(3), GridMeta(-1.0, 1.0, 3))
        assert info.value.arg == "beta"

    def test_label_names_the_radius(self):
        assert SchwartzWeighted(1, 2, 8.0).label() == "schwartz(a1,b2,r=8)"
        assert SchwartzWeighted(radius=0.25).label() != SchwartzWeighted().label()

    def test_labels_keep_parameters_g_format_would_merge(self):
        assert LqNorm(2.0000001).label() == "lq(q=2.0000001)"
        assert LqNorm(2.0000001).label() != LqNorm(2.0000002).label()
        assert LqNorm(1.5).label() == "lq(q=1.5)"
        assert SchwartzWeighted(radius=8.0000001).label() == "schwartz(a0,b0,r=8.0000001)"
        assert SchwartzWeighted().label() == "schwartz(a0,b0,r=8)"


class TestDualPairing:
    def test_pairing_against_constant_integrates(self):
        rho = DualPairing(np.ones(101), GRID)
        assert on_grid(rho, np.ones_like) == pytest.approx(1.0, rel=1e-12)
        assert on_grid(rho, lambda x: x) == pytest.approx(0.5, rel=1e-12)

    def test_zero_element_pairs_to_zero(self):
        rho = DualPairing(np.ones(101), GRID)
        assert seminorm_of(rho, np.zeros(101), GRID) == 0.0

    def test_absolute_value(self):
        rho = DualPairing(np.ones(101), GRID)
        t = np.ones(101)
        assert seminorm_of(rho, -t, GRID) == seminorm_of(rho, t, GRID)

    def test_plain_dot_without_grid(self):
        rho = DualPairing(np.array([1.0, 2.0]))
        assert seminorm_of(rho, [3.0, 4.0]) == 11.0

    def test_incompatible_value_rejected(self):
        rho = DualPairing(np.ones(101), GRID)
        with pytest.raises(ShapeError):
            seminorm_of(rho, np.ones(101))


class TestSeminormAxioms:
    FAMILY = [
        LqNorm(1.0),
        LqNorm(2.0),
        LqNorm(3.5),
        SupDerivative(0),
        SupDerivative(1),
        SupDerivative(2),
        SchwartzWeighted(alpha=1, beta=1, radius=0.9),
    ]

    GRID = GridMeta(0.0, 1.0, 64)

    def random_values(self, trial):
        rng = np.random.default_rng(1000 + trial)
        s = rng.standard_normal(64)
        t = rng.standard_normal(64)
        return s, t, rng

    def rho_of(self, rho, v):
        return seminorm_of(rho, v, self.GRID)

    @pytest.mark.parametrize("trial", range(25))
    def test_triangle_inequality(self, trial):
        s, t, _ = self.random_values(trial)
        for rho in self.FAMILY:
            assert (self.rho_of(rho, s + t)
                    <= self.rho_of(rho, s) + self.rho_of(rho, t) + 1e-9)

    @pytest.mark.parametrize("trial", range(25))
    def test_absolute_homogeneity(self, trial):
        _, t, rng = self.random_values(trial)
        lam = rng.uniform(-3.0, 3.0)
        for rho in self.FAMILY:
            np.testing.assert_allclose(self.rho_of(rho, lam * t),
                                       abs(lam) * self.rho_of(rho, t), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("trial", range(10))
    def test_power_of_two_scaling_is_exact(self, trial):
        _, t, rng = self.random_values(trial)
        dual = DualPairing(rng.standard_normal(64), self.GRID)
        for rho in (SupDerivative(0), SupDerivative(1), dual):
            assert self.rho_of(rho, 2.0 * t) == 2.0 * self.rho_of(rho, t)

    @pytest.mark.parametrize("trial", range(25))
    def test_nonnegative_and_zero_at_origin(self, trial):
        s, _, _ = self.random_values(trial)
        for rho in self.FAMILY:
            assert self.rho_of(rho, s) >= 0.0
            assert self.rho_of(rho, np.zeros(s.size)) == 0.0


class TestSeminormFamily:
    def test_family_basics(self):
        fam = SeminormFamily((LqNorm(2.0), SupDerivative(0)))
        assert len(fam) == 2
        assert [rho.label() for rho in fam] == ["lq(q=2)", "sup_d0"]
        assert fam[1].order == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SeminormFamily(())


def scalar_reference(rho, v, grid):
    """The seminorm of one value vector, written out per kind."""
    if isinstance(rho, LqNorm):
        w = np.ones_like(v) if grid is None else grid.trapezoid_weights()
        return float(np.sum(w * np.abs(v) ** rho.q) ** (1.0 / rho.q))
    if isinstance(rho, DualPairing):
        w = np.ones_like(v) if grid is None else grid.trapezoid_weights()
        return float(abs(np.dot(w * rho.test, v)))
    order = rho.order if isinstance(rho, SupDerivative) else rho.beta
    d = v
    if order:
        diffs = np.diff(v, n=order) / grid.spacing**order
        d = diffs[np.clip(np.arange(v.size) - order // 2, 0, v.size - 1 - order)]
    if isinstance(rho, SupDerivative):
        return float(np.max(np.abs(d)))
    x = grid.nodes()
    mask = np.abs(x) <= rho.radius
    return float(np.max(np.abs(x[mask] ** rho.alpha * d[mask]))) if mask.any() else 0.0


class TestRowwise:
    """rho on an (n, dim) matrix agrees, row by row, with rho on that row
    alone and with a per-kind scalar reference."""

    GRIDDED = [
        LqNorm(1.0),
        LqNorm(2.0),
        LqNorm(3.5),
        SupDerivative(0),
        SupDerivative(1),
        SupDerivative(2),
        SchwartzWeighted(alpha=0, beta=0, radius=0.5),
        SchwartzWeighted(alpha=2, beta=1, radius=0.7),
        SchwartzWeighted(alpha=1, beta=2, radius=8.0),
    ]
    PLAIN = [LqNorm(1.0), LqNorm(2.0), LqNorm(3.5), SupDerivative(0)]

    @staticmethod
    def check_rows(rho, values, grid):
        got = rho(values, grid)
        assert got.shape == (values.shape[0],)
        called = [seminorm_of(rho, row, grid) for row in values]
        np.testing.assert_allclose(got, called, rtol=1e-12, atol=0)
        reference = [scalar_reference(rho, row, grid) for row in values]
        np.testing.assert_allclose(got, reference, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("trial", range(10))
    def test_rows_agree_with_call_on_a_grid(self, trial):
        rng = np.random.default_rng(2000 + trial)
        g = GridMeta(-1.0, 1.0, 33)
        values = rng.standard_normal((17, 33)) * rng.uniform(0.01, 100.0, (17, 1))
        dual = DualPairing(rng.standard_normal(33), g)
        for rho in self.GRIDDED + [dual]:
            self.check_rows(rho, values, g)

    @pytest.mark.parametrize("trial", range(10))
    def test_rows_agree_with_call_without_a_grid(self, trial):
        rng = np.random.default_rng(2100 + trial)
        values = rng.standard_normal((17, 12)) * rng.uniform(0.01, 100.0, (17, 1))
        dual = DualPairing(rng.standard_normal(12))
        for rho in self.PLAIN + [dual]:
            self.check_rows(rho, values, None)

    def test_radius_masking_every_node_gives_zeros(self):
        g = GridMeta(1.0, 2.0, 9)
        rho = SchwartzWeighted(alpha=1, beta=1, radius=0.5)
        values = np.random.default_rng(0).standard_normal((4, 9))
        np.testing.assert_array_equal(rho(values, g), np.zeros(4))

    def test_a_row_does_not_depend_on_the_other_rows(self):
        rng = np.random.default_rng(1)
        g = GridMeta(0.0, 1.0, 50)
        values = rng.standard_normal((300, 50))
        test = rng.standard_normal(50)
        for rho, grid in [(LqNorm(2.0), g), (SupDerivative(1), g), (DualPairing(test, g), g),
                          (LqNorm(3.5), None), (DualPairing(test), None)]:
            whole = rho(values, grid)
            np.testing.assert_array_equal(whole[120:127], rho(values[120:127], grid))

    def test_dual_rejects_mismatched_grid_or_length(self):
        dual = DualPairing(np.ones(11), GridMeta(0.0, 1.0, 11))
        with pytest.raises(ShapeError):
            dual(np.ones((3, 11)), None)
        with pytest.raises(ShapeError):
            dual(np.ones((3, 11)), GridMeta(0.0, 2.0, 11))
        with pytest.raises(ShapeError):
            DualPairing(np.ones(11))(np.ones((3, 12)))

    def test_shape_checked(self):
        g = GridMeta(0.0, 1.0, 11)
        for rho in (LqNorm(2.0), SupDerivative(1), SchwartzWeighted()):
            with pytest.raises(ShapeError):
                rho(np.ones(11), g)
            with pytest.raises(ShapeError):
                rho(np.ones((2, 10)), g)
        with pytest.raises(ShapeError):
            SupDerivative(1)(np.ones((2, 11)), None)

    def test_custom_seminorm_needs_only_call_and_label(self):
        class MaxAbs(Seminorm):
            def __call__(self, values, grid=None):
                return np.max(np.abs(values), axis=1)

            def label(self):
                return "max_abs"

        assert seminorm_of(MaxAbs(), [1.0, -3.0]) == 3.0
        # a family of it measures the pipeline's uniform error; against the
        # zero network the residuals are the values themselves
        fam = SeminormFamily((MaxAbs(),))
        diffs = TargetBatch(np.array([[1.0, -3.0], [4.0, 0.0]]))
        inputs = [[0.0], [1.0]]
        zero = ShallowVectorNetwork.zero(Tanh(), ("sequence", 1), 2)
        np.testing.assert_array_equal(uniform_error(diffs, zero, inputs, fam), [4.0])
