import numpy as np
import pytest

from shallowop import targets
from shallowop.construct import uniform_error
from shallowop.errors import ConfigError, ShapeError
from shallowop.network import ShallowVectorNetwork, Tanh
from shallowop.targets import (
    DualPairing,
    GridMeta,
    LqNorm,
    SchwartzWeighted,
    Seminorm,
    SeminormFamily,
    SupDerivative,
)

GRID = GridMeta(0.0, 1.0, 101)


def seminorm_of(rho, v):
    """rho of the one value v, evaluated as the one-row matrix v[None]."""
    return rho(np.asarray(v, dtype=float)[None])[0]


def on_grid(rho, f):
    """rho of f sampled on rho's grid."""
    return seminorm_of(rho, f(rho.grid.nodes()))


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


class TestLqNorm:
    def test_constant_one_has_unit_l2_norm(self):
        assert on_grid(LqNorm(2.0, GRID), np.ones_like) == pytest.approx(1.0, rel=1e-12)

    def test_identity_l2_norm(self):
        # exact value is 1/sqrt(3); trapezoid error at n=101 is ~1e-5
        got = on_grid(LqNorm(2.0, GRID), lambda x: x)
        assert got == pytest.approx(0.5773502691896258, abs=1e-3)

    def test_identity_l1_norm_exact(self):
        # trapezoid integrates piecewise-linear data exactly
        assert on_grid(LqNorm(1.0, GRID), lambda x: x) == pytest.approx(0.5, rel=1e-12)

    def test_plain_vector_is_euclidean(self):
        assert seminorm_of(LqNorm(2.0), [3.0, 4.0]) == 5.0

    def test_grid_refinement_shrinks_error_quadratically(self):
        exact = 1.0 / np.sqrt(7.0)
        errs = []
        for n in (101, 201):
            g = GridMeta(0.0, 1.0, n)
            errs.append(abs(on_grid(LqNorm(2.0, g), lambda x: x**3) - exact))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            LqNorm(0.5)

    def test_label(self):
        assert LqNorm(2.0).label() == "lq(q=2)"
        assert LqNorm(2.0, GRID).label() == "lq(q=2)"

    @pytest.mark.parametrize("q, entry", [(200.0, 1e-3), (2.0, 1e200)],
                             ids=["underflow", "overflow"])
    @pytest.mark.parametrize("grid", [None, GridMeta(0.0, 1.0, 50)], ids=["plain", "grid"])
    def test_sums_beyond_float_range_scale_by_the_largest_entry(self, q, entry, grid):
        # fifty 1e-3 entries to the 200th power underflow to a zero sum, and
        # 1e200 squared overflows; each row is m rho(v / m), m = max |v|,
        # with no warning (the suite turns warnings into errors)
        row = np.full(50, entry)
        weights = np.ones(50) if grid is None else grid.trapezoid_weights()
        want = entry * np.sum(weights * (row / entry) ** q) ** (1.0 / q)
        got = seminorm_of(LqNorm(q, grid), row)
        assert 0.0 < got < np.inf
        assert got == pytest.approx(want, rel=1e-12)

    def test_rows_in_float_range_keep_their_bits(self):
        # beside rescaled rows, the others are the plain formula bitwise; a
        # zero row stays 0, and rows with an infinite or NaN entry are not
        # rescaled
        rng = np.random.default_rng(51)
        values = rng.standard_normal((6, 40))
        values[1], values[3] = 1e-3, 1e200
        values[4], values[5, 7], values[5, 8] = 0.0, np.inf, np.nan
        values[2, 0] = np.inf
        rho = LqNorm(200.0)
        got = rho(values)
        plain = np.sum(np.abs(values[[0]]) ** 200.0, axis=1) ** (1.0 / 200.0)
        assert got[0].tobytes() == plain[0].tobytes()
        assert 0.0 < got[1] < np.inf and 0.0 < got[3] < np.inf
        assert got[2] == np.inf and got[4] == 0.0 and np.isnan(got[5])


class TestSupDerivative:
    def test_order_zero_is_sup(self):
        assert on_grid(SupDerivative(0, GRID), lambda x: x) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha,factorial", [(1, 1.0), (2, 2.0), (3, 6.0)])
    def test_monomial_gives_factorial(self, alpha, factorial):
        g = GridMeta(0.0, 1.0, 201)
        got = on_grid(SupDerivative(alpha, g), lambda x: x**alpha)
        assert got == pytest.approx(factorial, abs=1e-6)

    def test_annihilates_lower_degree(self):
        g = GridMeta(0.0, 1.0, 201)
        assert on_grid(SupDerivative(3, g), lambda x: x**2) == pytest.approx(0.0, abs=1e-6)

    def test_needs_grid_metadata(self):
        # refused when built, not when first evaluated
        with pytest.raises(ShapeError, match="needs values on a grid") as info:
            SupDerivative(1)
        assert info.value.arg == "order"
        assert seminorm_of(SupDerivative(0), [3.0, -4.0]) == 4.0

    def test_order_exceeding_resolution(self):
        with pytest.raises(ShapeError, match="needs at least 5 nodes, grid has 3") as info:
            SupDerivative(4, GridMeta(0.0, 1.0, 3))
        assert info.value.arg == "order"
        assert on_grid(SupDerivative(2, GridMeta(0.0, 1.0, 3)), np.square) == pytest.approx(2.0)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            SupDerivative(-1)


class TestSchwartzWeighted:
    def test_weighted_sup_on_integer_grid(self):
        g = GridMeta(-10.0, 10.0, 21)
        assert seminorm_of(SchwartzWeighted(alpha=1, beta=0, grid=g), np.ones(21)) == 8.0

    def test_truncation_radius_masks_tail(self):
        g = GridMeta(-10.0, 10.0, 21)
        assert on_grid(SchwartzWeighted(0, 0, 8.0, g), lambda x: x**2) == 64.0
        assert on_grid(SchwartzWeighted(0, 0, 3.0, g), lambda x: x**2) == 9.0

    def test_empty_truncation_window_is_zero(self):
        rho = SchwartzWeighted(alpha=2, beta=0, radius=2.0, grid=GridMeta(5.0, 6.0, 11))
        assert seminorm_of(rho, np.ones(11)) == 0.0

    def test_needs_grid_metadata(self):
        # refused when built, whatever beta is; the refusal names no argument
        for beta in (0, 1):
            with pytest.raises(ShapeError, match="needs values on a grid") as info:
                SchwartzWeighted(beta=beta)
            assert info.value.arg is None

    def test_beta_exceeding_resolution(self):
        with pytest.raises(ShapeError, match="needs at least 4 nodes, grid has 3") as info:
            SchwartzWeighted(beta=3, grid=GridMeta(-1.0, 1.0, 3))
        assert info.value.arg == "beta"
        SchwartzWeighted(beta=2, grid=GridMeta(-1.0, 1.0, 3))

    def test_alpha_beyond_int64_refused_by_name(self):
        # numpy's integer power takes no larger exponent; the largest it
        # takes is accepted
        big = np.iinfo(np.int64).max
        for alpha in (big + 1, 10**400):
            with pytest.raises(ConfigError, match=f"must be at most {big}") as info:
                SchwartzWeighted(alpha=alpha, grid=GRID)
            assert info.value.arg == "alpha"
        assert SchwartzWeighted(alpha=big, grid=GRID).alpha == big

    def test_weight_that_overflows_is_refused_by_name(self):
        # 8.0**400 is inf, and inf * 0 read NaN on a zero row; 8.0**300 is finite
        grid = GridMeta(-10.0, 10.0, 101)
        with pytest.raises(ConfigError, match="alpha makes the weight") as info:
            SchwartzWeighted(alpha=400, radius=8.0, grid=grid)
        assert info.value.arg == "alpha"
        assert seminorm_of(SchwartzWeighted(alpha=300, radius=8.0, grid=grid),
                           np.zeros(101)) == 0.0

    def test_bad_index_named_before_the_grid(self):
        # an argument's own refusal comes first, with or without a grid
        with pytest.raises(ValueError) as info:
            SchwartzWeighted(beta=-1)
        assert info.value.arg == "beta"

    def test_label_names_the_radius(self):
        assert SchwartzWeighted(1, 2, 8.0, GRID).label() == "schwartz(a1,b2,r=8)"
        assert (SchwartzWeighted(radius=0.25, grid=GRID).label()
                != SchwartzWeighted(grid=GRID).label())

    def test_labels_keep_parameters_g_format_would_merge(self):
        assert LqNorm(2.0000001).label() == "lq(q=2.0000001)"
        assert LqNorm(2.0000001).label() != LqNorm(2.0000002).label()
        assert LqNorm(1.5).label() == "lq(q=1.5)"
        assert (SchwartzWeighted(radius=8.0000001, grid=GRID).label()
                == "schwartz(a0,b0,r=8.0000001)")
        assert SchwartzWeighted(grid=GRID).label() == "schwartz(a0,b0,r=8)"


class TestDualPairing:
    def test_pairing_against_constant_integrates(self):
        rho = DualPairing(np.ones(101), GRID)
        assert on_grid(rho, np.ones_like) == pytest.approx(1.0, rel=1e-12)
        assert on_grid(rho, lambda x: x) == pytest.approx(0.5, rel=1e-12)

    def test_zero_element_pairs_to_zero(self):
        rho = DualPairing(np.ones(101), GRID)
        assert seminorm_of(rho, np.zeros(101)) == 0.0

    def test_absolute_value(self):
        rho = DualPairing(np.ones(101), GRID)
        t = np.ones(101)
        assert seminorm_of(rho, -t) == seminorm_of(rho, t)

    def test_plain_dot_without_grid(self):
        rho = DualPairing(np.array([1.0, 2.0]))
        assert seminorm_of(rho, [3.0, 4.0]) == 11.0

    def test_incompatible_value_rejected(self):
        rho = DualPairing(np.ones(101), GRID)
        with pytest.raises(ShapeError):
            seminorm_of(rho, np.ones(100))

    def test_test_vector_must_match_its_grid(self):
        with pytest.raises(ShapeError, match="test vector length does not match its grid"):
            DualPairing(np.ones(100), GRID)


class TestSeminormAxioms:
    GRID = GridMeta(0.0, 1.0, 64)
    FAMILY = [
        LqNorm(1.0, GRID),
        LqNorm(2.0, GRID),
        LqNorm(3.5, GRID),
        SupDerivative(0, GRID),
        SupDerivative(1, GRID),
        SupDerivative(2, GRID),
        SchwartzWeighted(alpha=1, beta=1, radius=0.9, grid=GRID),
    ]

    def random_values(self, trial):
        rng = np.random.default_rng(1000 + trial)
        s = rng.standard_normal(64)
        t = rng.standard_normal(64)
        return s, t, rng

    def rho_of(self, rho, v):
        return seminorm_of(rho, v)

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
        for rho in (SupDerivative(0, self.GRID), SupDerivative(1, self.GRID), dual):
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

    def test_grid_is_the_members_grid(self):
        assert SeminormFamily((LqNorm(2.0), DualPairing(np.ones(3)))).grid is None
        fam = SeminormFamily((LqNorm(2.0, GRID), SupDerivative(1, GRID),
                              DualPairing(np.ones(101), GRID)))
        assert fam.grid == GRID

    @pytest.mark.parametrize("members", [
        (LqNorm(2.0, GRID), LqNorm(1.0)),
        (LqNorm(2.0), SupDerivative(1, GRID)),
        (SupDerivative(0, GRID), DualPairing(np.ones(101), GridMeta(0.0, 2.0, 101))),
        (LqNorm(2.0, GRID), SchwartzWeighted(grid=GridMeta(0.0, 1.0, 100))),
    ], ids=["gridded_then_plain", "plain_then_gridded", "dual_on_another_grid",
            "another_node_count"])
    def test_members_on_different_grids_refused(self, members):
        with pytest.raises(ShapeError, match="member 1 is on grid") as info:
            SeminormFamily(members)
        assert info.value.arg == "members"


def scalar_reference(rho, v):
    """The seminorm of one value vector, written out per kind."""
    grid = rho.grid
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

    G = GridMeta(-1.0, 1.0, 33)
    GRIDDED = [
        LqNorm(1.0, G),
        LqNorm(2.0, G),
        LqNorm(3.5, G),
        SupDerivative(0, G),
        SupDerivative(1, G),
        SupDerivative(2, G),
        SchwartzWeighted(alpha=0, beta=0, radius=0.5, grid=G),
        SchwartzWeighted(alpha=2, beta=1, radius=0.7, grid=G),
        SchwartzWeighted(alpha=1, beta=2, radius=8.0, grid=G),
    ]
    PLAIN = [LqNorm(1.0), LqNorm(2.0), LqNorm(3.5), SupDerivative(0)]

    @staticmethod
    def check_rows(rho, values):
        got = rho(values)
        assert got.shape == (values.shape[0],)
        called = [seminorm_of(rho, row) for row in values]
        np.testing.assert_allclose(got, called, rtol=1e-12, atol=0)
        reference = [scalar_reference(rho, row) for row in values]
        np.testing.assert_allclose(got, reference, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("trial", range(10))
    def test_rows_agree_with_call_on_a_grid(self, trial):
        rng = np.random.default_rng(2000 + trial)
        values = rng.standard_normal((17, 33)) * rng.uniform(0.01, 100.0, (17, 1))
        dual = DualPairing(rng.standard_normal(33), self.G)
        for rho in self.GRIDDED + [dual]:
            self.check_rows(rho, values)

    @pytest.mark.parametrize("trial", range(10))
    def test_rows_agree_with_call_without_a_grid(self, trial):
        rng = np.random.default_rng(2100 + trial)
        values = rng.standard_normal((17, 12)) * rng.uniform(0.01, 100.0, (17, 1))
        dual = DualPairing(rng.standard_normal(12))
        for rho in self.PLAIN + [dual]:
            self.check_rows(rho, values)

    def test_radius_masking_every_node_gives_zeros(self):
        rho = SchwartzWeighted(alpha=1, beta=1, radius=0.5, grid=GridMeta(1.0, 2.0, 9))
        values = np.random.default_rng(0).standard_normal((4, 9))
        np.testing.assert_array_equal(rho(values), np.zeros(4))

    def test_a_row_does_not_depend_on_the_other_rows(self):
        rng = np.random.default_rng(1)
        g = GridMeta(0.0, 1.0, 50)
        values = rng.standard_normal((300, 50))
        test = rng.standard_normal(50)
        for rho in [LqNorm(2.0, g), SupDerivative(1, g), DualPairing(test, g), LqNorm(3.5),
                    DualPairing(test)]:
            whole = rho(values)
            np.testing.assert_array_equal(whole[120:127], rho(values[120:127]))

    def test_dual_rejects_mismatched_length(self):
        with pytest.raises(ShapeError):
            DualPairing(np.ones(11), GridMeta(0.0, 1.0, 11))(np.ones((3, 12)))
        with pytest.raises(ShapeError):
            DualPairing(np.ones(11))(np.ones((3, 12)))

    def test_shape_checked(self):
        g = GridMeta(0.0, 1.0, 11)
        for rho in (LqNorm(2.0, g), SupDerivative(1, g), SchwartzWeighted(grid=g),
                    DualPairing(np.ones(11), g)):
            with pytest.raises(ShapeError):
                rho(np.ones(11))
            with pytest.raises(ShapeError):
                rho(np.ones((2, 10)))
            assert rho(np.ones((2, 11))).shape == (2,)

    def test_call_takes_the_values_only(self):
        # the grid is the seminorm's own; no call passes it
        g = GridMeta(0.0, 1.0, 11)
        for rho in (LqNorm(2.0, g), SupDerivative(1, g), SchwartzWeighted(grid=g),
                    DualPairing(np.ones(11), g)):
            with pytest.raises(TypeError):
                rho(np.ones((2, 11)), g)

    def test_custom_seminorm_needs_only_call_and_label(self):
        class MaxAbs(Seminorm):
            def __call__(self, values):
                return np.max(np.abs(values), axis=1)

            def label(self):
                return "max_abs"

        assert MaxAbs().grid is None
        assert seminorm_of(MaxAbs(), [1.0, -3.0]) == 3.0
        # a family of it measures the pipeline's uniform error; against the
        # zero network the residuals are the values themselves
        fam = SeminormFamily((MaxAbs(),))
        diffs = np.array([[1.0, -3.0], [4.0, 0.0]])
        inputs = [[0.0], [1.0]]
        zero = ShallowVectorNetwork.zero(Tanh(), ("sequence", 1), 2)
        np.testing.assert_array_equal(uniform_error(diffs, zero, inputs, fam), [4.0])

    def test_custom_seminorm_on_a_grid_joins_a_family_on_it(self):
        class Endpoint(Seminorm):
            def __init__(self, grid):
                self.grid = grid

            def __call__(self, values):
                return np.abs(values[:, -1])

            def label(self):
                return "endpoint"

        fam = SeminormFamily((LqNorm(2.0, GRID), Endpoint(GRID)))
        assert fam.grid == GRID
        with pytest.raises(ShapeError):
            SeminormFamily((LqNorm(2.0), Endpoint(GRID)))


class TestValuesFixedWhenBuilt:
    """A Schwartz seminorm fixes its kept nodes and signed weights x**alpha,
    and a dual its weighted test vector, when built; each value is bitwise
    the one the formula computed in full on every call gives."""

    G = GridMeta(-10.0, 10.0, 101)

    @staticmethod
    def schwartz_in_full(rho, values):
        x = rho.grid.nodes()
        mask = np.abs(x) <= rho.radius
        if not np.any(mask):
            return np.zeros(values.shape[0])
        d = targets._difference_at_nodes(values, rho.grid, rho.beta)
        return np.max(np.abs(x[mask] ** rho.alpha * d[:, mask]), axis=1)

    @pytest.mark.parametrize("alpha", [0, 1, 2, 3, 12, 300])
    @pytest.mark.parametrize("beta", [0, 1, 2])
    @pytest.mark.parametrize("radius", [0.01, 0.2, 3.3, 8.0, 50.0])
    def test_schwartz_bitwise(self, alpha, beta, radius):
        rng = np.random.default_rng(alpha + 10 * beta)
        values = rng.standard_normal((9, 101)) * rng.uniform(0.01, 100.0, (9, 1))
        values[0] = 0.0
        rho = SchwartzWeighted(alpha, beta, radius, self.G)
        assert rho(values).tobytes() == self.schwartz_in_full(rho, values).tobytes()

    @pytest.mark.parametrize("alpha", [0, 1, 2, 3])
    @pytest.mark.parametrize("beta", [0, 1, 2])
    def test_schwartz_keeping_no_node_reads_zeros(self, alpha, beta):
        rho = SchwartzWeighted(alpha, beta, 2.0, GridMeta(5.0, 6.0, 11))
        values = np.random.default_rng(beta).standard_normal((4, 11))
        assert rho(values).tobytes() == np.zeros(4).tobytes()
        assert rho(values[:0]).shape == (0,)

    @pytest.mark.parametrize("grid", [GridMeta(0.0, 1.0, 33), GridMeta(-3.0, 7.0, 33), None],
                             ids=["unit_grid", "wide_grid", "no_grid"])
    def test_dual_bitwise(self, grid):
        rng = np.random.default_rng(5)
        test = rng.standard_normal(33)
        values = rng.standard_normal((17, 33)) * rng.uniform(0.01, 100.0, (17, 1))
        in_full = (test * values if grid is None
                   else grid.trapezoid_weights() * test * values)
        got = DualPairing(test, grid)(values)
        assert got.tobytes() == np.abs(np.sum(in_full, axis=1)).tobytes()
