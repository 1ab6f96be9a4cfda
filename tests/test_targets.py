import numpy as np
import pytest

from shallowop.construct import uniform_error
from shallowop.errors import ShapeError
from shallowop.inputs import SequencePoint
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
    TargetElement,
)

GRID = GridMeta(0.0, 1.0, 101)


def on_grid(f, grid=GRID):
    return TargetElement(f(grid.nodes()), grid)


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


class TestTargetElement:
    def test_values_are_read_only(self):
        t = TargetElement(np.ones(4))
        with pytest.raises(ValueError):
            t.values[0] = 2.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TargetElement(np.array([1.0, np.nan]))


class TestLqNorm:
    def test_constant_one_has_unit_l2_norm(self):
        assert LqNorm(2.0)(on_grid(np.ones_like)) == pytest.approx(1.0, rel=1e-12)

    def test_identity_l2_norm(self):
        # exact value is 1/sqrt(3); trapezoid error at n=101 is ~1e-5
        got = LqNorm(2.0)(on_grid(lambda x: x))
        assert got == pytest.approx(0.5773502691896258, abs=1e-3)

    def test_identity_l1_norm_exact(self):
        # trapezoid integrates piecewise-linear data exactly
        assert LqNorm(1.0)(on_grid(lambda x: x)) == pytest.approx(0.5, rel=1e-12)

    def test_plain_vector_is_euclidean(self):
        assert LqNorm(2.0)(TargetElement(np.array([3.0, 4.0]))) == 5.0

    def test_grid_refinement_shrinks_error_quadratically(self):
        exact = 1.0 / np.sqrt(7.0)
        errs = []
        for n in (101, 201):
            g = GridMeta(0.0, 1.0, n)
            errs.append(abs(LqNorm(2.0)(on_grid(lambda x: x**3, g)) - exact))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            LqNorm(0.5)

    def test_label(self):
        assert LqNorm(2.0).label() == "lq(q=2)"


class TestSupDerivative:
    def test_order_zero_is_sup(self):
        assert SupDerivative(0)(on_grid(lambda x: x)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha,factorial", [(1, 1.0), (2, 2.0), (3, 6.0)])
    def test_monomial_gives_factorial(self, alpha, factorial):
        g = GridMeta(0.0, 1.0, 201)
        got = SupDerivative(alpha)(on_grid(lambda x: x**alpha, g))
        assert got == pytest.approx(factorial, abs=1e-6)

    def test_annihilates_lower_degree(self):
        g = GridMeta(0.0, 1.0, 201)
        assert SupDerivative(3)(on_grid(lambda x: x**2, g)) == pytest.approx(0.0, abs=1e-6)

    def test_needs_grid_metadata(self):
        with pytest.raises(ShapeError):
            SupDerivative(1)(TargetElement(np.ones(8)))

    def test_order_exceeding_resolution(self):
        t = TargetElement(np.ones(3), GridMeta(0.0, 1.0, 3))
        with pytest.raises(ValueError):
            SupDerivative(4)(t)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            SupDerivative(-1)


class TestSchwartzWeighted:
    def test_weighted_sup_on_integer_grid(self):
        g = GridMeta(-10.0, 10.0, 21)
        t = TargetElement(np.ones(21), g)
        assert SchwartzWeighted(alpha=1, beta=0)(t) == 8.0

    def test_truncation_radius_masks_tail(self):
        g = GridMeta(-10.0, 10.0, 21)
        t = on_grid(lambda x: x**2, g)
        assert SchwartzWeighted(alpha=0, beta=0, radius=8.0)(t) == 64.0
        assert SchwartzWeighted(alpha=0, beta=0, radius=3.0)(t) == 9.0

    def test_empty_truncation_window_is_zero(self):
        t = TargetElement(np.ones(11), GridMeta(5.0, 6.0, 11))
        assert SchwartzWeighted(alpha=2, beta=0, radius=2.0)(t) == 0.0

    def test_needs_grid_metadata(self):
        with pytest.raises(ShapeError):
            SchwartzWeighted()(TargetElement(np.ones(8)))

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
        assert rho(on_grid(np.ones_like)) == pytest.approx(1.0, rel=1e-12)
        assert rho(on_grid(lambda x: x)) == pytest.approx(0.5, rel=1e-12)

    def test_zero_element_pairs_to_zero(self):
        rho = DualPairing(np.ones(101), GRID)
        assert rho(TargetElement(np.zeros(101), GRID)) == 0.0

    def test_absolute_value(self):
        rho = DualPairing(np.ones(101), GRID)
        t = on_grid(np.ones_like)
        assert rho(TargetElement(-t.values, t.grid)) == rho(t)

    def test_plain_dot_without_grid(self):
        rho = DualPairing(np.array([1.0, 2.0]))
        assert rho(TargetElement(np.array([3.0, 4.0]))) == 11.0

    def test_incompatible_element_rejected(self):
        rho = DualPairing(np.ones(101), GRID)
        with pytest.raises(ShapeError):
            rho(TargetElement(np.ones(101)))


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

    def random_elements(self, trial):
        rng = np.random.default_rng(1000 + trial)
        g = GridMeta(0.0, 1.0, 64)
        s = TargetElement(rng.standard_normal(64), g)
        t = TargetElement(rng.standard_normal(64), g)
        return s, t, rng

    @pytest.mark.parametrize("trial", range(25))
    def test_triangle_inequality(self, trial):
        s, t, _ = self.random_elements(trial)
        for rho in self.FAMILY:
            assert rho(TargetElement(s.values + t.values, s.grid)) <= rho(s) + rho(t) + 1e-9

    @pytest.mark.parametrize("trial", range(25))
    def test_absolute_homogeneity(self, trial):
        _, t, rng = self.random_elements(trial)
        lam = rng.uniform(-3.0, 3.0)
        for rho in self.FAMILY:
            np.testing.assert_allclose(rho(TargetElement(lam * t.values, t.grid)),
                                       abs(lam) * rho(t), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("trial", range(10))
    def test_power_of_two_scaling_is_exact(self, trial):
        _, t, rng = self.random_elements(trial)
        dual = DualPairing(rng.standard_normal(64), t.grid)
        for rho in (SupDerivative(0), SupDerivative(1), dual):
            assert rho(TargetElement(2.0 * t.values, t.grid)) == 2.0 * rho(t)

    @pytest.mark.parametrize("trial", range(25))
    def test_nonnegative_and_zero_at_origin(self, trial):
        s, _, _ = self.random_elements(trial)
        for rho in self.FAMILY:
            assert rho(s) >= 0.0
            assert rho(TargetElement(np.zeros(s.dim), s.grid)) == 0.0


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
    """The seminorm of one value vector, written out per kind without batch."""
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


class TestBatch:
    """rho.batch on an (n, dim) matrix agrees, row by row, with rho on that
    row's element and with a per-kind scalar reference."""

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
        got = rho.batch(values, grid)
        assert got.shape == (values.shape[0],)
        called = [rho(TargetElement(row, grid)) for row in values]
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
        np.testing.assert_array_equal(rho.batch(values, g), np.zeros(4))

    def test_a_row_does_not_depend_on_the_other_rows(self):
        rng = np.random.default_rng(1)
        g = GridMeta(0.0, 1.0, 50)
        values = rng.standard_normal((300, 50))
        test = rng.standard_normal(50)
        for rho, grid in [(LqNorm(2.0), g), (SupDerivative(1), g), (DualPairing(test, g), g),
                          (LqNorm(3.5), None), (DualPairing(test), None)]:
            whole = rho.batch(values, grid)
            np.testing.assert_array_equal(whole[120:127], rho.batch(values[120:127], grid))

    def test_dual_batch_rejects_mismatched_grid_or_length(self):
        dual = DualPairing(np.ones(11), GridMeta(0.0, 1.0, 11))
        with pytest.raises(ShapeError):
            dual.batch(np.ones((3, 11)), None)
        with pytest.raises(ShapeError):
            dual.batch(np.ones((3, 11)), GridMeta(0.0, 2.0, 11))
        with pytest.raises(ShapeError):
            DualPairing(np.ones(11)).batch(np.ones((3, 12)))

    def test_batch_shape_checked(self):
        g = GridMeta(0.0, 1.0, 11)
        for rho in (LqNorm(2.0), SupDerivative(1), SchwartzWeighted()):
            with pytest.raises(ShapeError):
                rho.batch(np.ones(11), g)
            with pytest.raises(ShapeError):
                rho.batch(np.ones((2, 10)), g)
        with pytest.raises(ShapeError):
            SupDerivative(1).batch(np.ones((2, 11)), None)

    def test_custom_seminorm_needs_only_batch(self):
        class MaxAbs(Seminorm):
            def batch(self, values, grid=None):
                return np.max(np.abs(values), axis=1)

            def label(self):
                return "max_abs"

        assert MaxAbs()(TargetElement(np.array([1.0, -3.0]))) == 3.0
        # a family of it measures the pipeline's uniform error; against the
        # zero network the residuals are the values themselves
        fam = SeminormFamily((MaxAbs(),))
        diffs = TargetBatch(np.array([[1.0, -3.0], [4.0, 0.0]]))
        inputs = [SequencePoint([0.0]), SequencePoint([1.0])]
        zero = ShallowVectorNetwork.zero(Tanh(), ("sequence", 1), 2)
        np.testing.assert_array_equal(uniform_error(diffs, zero, inputs, fam), [4.0])
