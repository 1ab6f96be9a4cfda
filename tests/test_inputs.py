import numpy as np
import pytest

from shallowop.errors import ConfigError, ShapeError
from shallowop.inputs import (
    CompactEnsemble,
    EnsembleSpec,
    FunctionSample,
    FunctionalSpec,
    MatrixPoint,
    MatrixTrace,
    QuadraturePairing,
    SequenceDot,
    SequencePoint,
    ZeroFunctional,
    draw_functional_params,
    functional_from_params,
    functional_weights,
    random_functional,
    sample_ensemble,
    stack_flat,
)
from shallowop.seeding import derive_seed
from shallowop.targets import GridMeta

GRID = GridMeta(0.0, 1.0, 101)


def fn_sample(f, grid=GRID):
    return FunctionSample(f(grid.nodes()), grid)


class TestInputPoints:
    def test_function_sample_checks_grid(self):
        with pytest.raises(ShapeError):
            FunctionSample(np.ones(5), GRID)

    def test_function_sample_arithmetic(self):
        s = fn_sample(np.sin)
        t = fn_sample(np.cos)
        np.testing.assert_allclose((s + t).values, s.values + t.values)
        np.testing.assert_allclose((0.5 * s).values, 0.5 * s.values)
        with pytest.raises(ShapeError):
            s + fn_sample(np.sin, GridMeta(0.0, 1.0, 51))

    def test_sequence_point_flat(self):
        s = SequencePoint([1.0, 2.0, 3.0])
        assert s.signature == ("sequence", 3)
        np.testing.assert_array_equal(s.flat, [1.0, 2.0, 3.0])

    def test_matrix_point_flattens_row_major(self):
        z = MatrixPoint([[1.0, 2.0], [3.0, 4.0]])
        assert z.signature == ("matrix", (2, 2))
        np.testing.assert_array_equal(z.flat, [1.0, 2.0, 3.0, 4.0])

    def test_matrix_point_rejects_vector(self):
        with pytest.raises(ShapeError):
            MatrixPoint(np.ones(4))

    def test_values_read_only(self):
        s = SequencePoint([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_stack_flat(self):
        pts = [SequencePoint([1.0, 2.0]), SequencePoint([3.0, 4.0])]
        np.testing.assert_array_equal(stack_flat(pts), [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ShapeError):
            stack_flat([])
        with pytest.raises(ShapeError):
            stack_flat([SequencePoint([1.0]), SequencePoint([1.0, 2.0])])


class TestFunctionals:
    def test_quadrature_pairing_integrates_constants(self):
        l = QuadraturePairing(np.ones(GRID.n), GRID)
        assert l(fn_sample(np.ones_like)) == pytest.approx(1.0, rel=1e-12)

    def test_quadrature_pairing_sine_mass(self):
        # trapezoid integrates sin(pi x) * sin(pi x) exactly on a uniform
        # [0, 1] grid, so the pairing returns 4 * 1/2 = 2
        x = GRID.nodes()
        l = QuadraturePairing(4.0 * np.sin(np.pi * x), GRID)
        s = fn_sample(lambda x: np.sin(np.pi * x))
        assert l(s) == pytest.approx(2.0, rel=1e-12)

    def test_quadrature_pairing_grid_mismatch(self):
        l = QuadraturePairing(np.ones(GRID.n), GRID)
        with pytest.raises(ShapeError):
            l(fn_sample(np.sin, GridMeta(0.0, 1.0, 51)))
        with pytest.raises(ShapeError):
            l(SequencePoint(np.ones(GRID.n)))

    def test_sequence_dot(self):
        l = SequenceDot([1.0, 0.5])
        assert l(SequencePoint([2.0, 4.0])) == 4.0

    def test_matrix_trace_pairing(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((3, 2))
        z = rng.standard_normal((3, 2))
        l = MatrixTrace(w)
        assert l(MatrixPoint(z)) == pytest.approx(np.trace(w.T @ z), rel=1e-12)

    def test_zero_functional(self):
        z = ZeroFunctional()
        assert z(fn_sample(np.sin)) == 0.0
        assert z(SequencePoint([1.0])) == 0.0
        assert z == ZeroFunctional()

    @pytest.mark.parametrize("trial", range(10))
    def test_linearity(self, trial):
        rng = np.random.default_rng(200 + trial)
        l = SequenceDot(rng.standard_normal(16))
        s = SequencePoint(rng.standard_normal(16))
        t = SequencePoint(rng.standard_normal(16))
        a, b = rng.uniform(-2.0, 2.0, 2)
        lhs = l(a * s + b * t)
        assert lhs == pytest.approx(a * l(s) + b * l(t), abs=1e-9)

    def test_functional_weights_match_pairwise(self):
        # weight rows pair with stacked inputs as the functional objects do;
        # a zero row (a feature bank's bias) pairs as the zero functional
        rng = np.random.default_rng(3)
        points = {
            "function": lambda: FunctionSample(rng.standard_normal(GRID.n), GRID),
            "sequence": lambda: SequencePoint(rng.standard_normal(6)),
            "matrix": lambda: MatrixPoint(rng.standard_normal((2, 3))),
        }
        for spec in SPECS:
            params = draw_functional_params(spec, rng, 5)
            params[2] = 0.0
            pts = [points[spec.kind]() for _ in range(4)]
            got = functional_weights(spec, params) @ stack_flat(pts).T
            want = np.array([[functional_from_params(spec, p)(s) for s in pts]
                             for p in params])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
            assert np.all(got[2] == 0.0)
            assert all(ZeroFunctional()(s) == 0.0 for s in pts)

    def test_sequence_dot_signature_mismatch(self):
        with pytest.raises(ShapeError):
            SequenceDot(np.ones(8))(SequencePoint(np.ones(9)))


SPECS = (
    FunctionalSpec(kind="function", grid=GRID, order=3, scale=0.7),
    FunctionalSpec(kind="sequence", length=6),
    FunctionalSpec(kind="matrix", shape=(2, 3)),
)


class TestRandomFunctional:
    def test_deterministic_in_seed(self):
        spec = FunctionalSpec(kind="function", grid=GRID, order=3)
        a = random_functional(spec, derive_seed(42, 0))
        b = random_functional(spec, derive_seed(42, 0))
        np.testing.assert_array_equal(a.phi, b.phi)
        c = random_functional(spec, derive_seed(42, 1))
        assert not np.array_equal(a.phi, c.phi)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_one_row_draw_matches_batch_head(self, spec):
        l = random_functional(spec, derive_seed(42, 0))
        params = draw_functional_params(spec, np.random.default_rng(derive_seed(42, 0)), 5)
        assert l.signature == spec.signature
        np.testing.assert_array_equal(l.weight_vector(), functional_weights(spec, params)[0])
        np.testing.assert_array_equal(
            functional_from_params(spec, params[0]).weight_vector(), l.weight_vector()
        )

    def test_variants(self):
        l = random_functional(FunctionalSpec(kind="sequence", length=6), 1)
        assert l.signature == ("sequence", 6)
        l = random_functional(FunctionalSpec(kind="matrix", shape=(2, 3)), 1)
        assert l.signature == ("matrix", (2, 3))

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            FunctionalSpec(kind="nope")
        with pytest.raises(ConfigError):
            FunctionalSpec(kind="function")
        with pytest.raises(ConfigError):
            FunctionalSpec(kind="sequence")
        with pytest.raises(ConfigError):
            FunctionalSpec(kind="matrix", shape=(0, 2))
        with pytest.raises(ConfigError):
            FunctionalSpec(kind="sequence", length=4, scale=-1.0)


class TestEnsembles:
    def test_band_limited_membership_and_determinism(self):
        spec = EnsembleSpec(
            family="band_limited", count=20, radii=(1.0, 0.5, 0.25), grid=GRID
        )
        ens = sample_ensemble(spec, 11)
        assert len(ens) == 20
        assert ens.signature == ("function", GRID)
        bound = sum(spec.radii)
        for s in ens:
            assert np.max(np.abs(s.values)) <= bound + 1e-12
        again = sample_ensemble(spec, 11)
        for s, t in zip(ens, again):
            np.testing.assert_array_equal(s.values, t.values)

    def test_band_limited_vanishes_at_endpoints(self):
        spec = EnsembleSpec(family="band_limited", count=5, radii=(1.0, 1.0), grid=GRID)
        for s in sample_ensemble(spec, 0):
            assert abs(s.values[0]) < 1e-12
            assert abs(s.values[-1]) < 1e-12

    def test_sequence_box_membership(self):
        radii = (1.0, 0.5, 0.25, 0.125)
        spec = EnsembleSpec(family="sequence_box", count=50, radii=radii)
        for s in sample_ensemble(spec, 5):
            assert np.all(np.abs(s.values) <= np.asarray(radii))

    def test_matrix_ball_membership(self):
        spec = EnsembleSpec(family="matrix_ball", count=50, shape=(2, 2), radius=1.5)
        for z in sample_ensemble(spec, 9):
            assert np.linalg.norm(z.values) <= 1.5 + 1e-12

    def test_matrix_ball_radial_profile(self):
        # uniform draws in a d-dim ball have mean radius d/(d+1) of the bound
        spec = EnsembleSpec(family="matrix_ball", count=2000, shape=(2, 2), radius=1.0)
        ens = sample_ensemble(spec, 123)
        mean_r = np.mean([np.linalg.norm(z.values) for z in ens])
        assert mean_r == pytest.approx(4.0 / 5.0, abs=0.02)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            EnsembleSpec(family="nope", count=3)
        with pytest.raises(ConfigError):
            EnsembleSpec(family="sequence_box", count=0, radii=(1.0,))
        with pytest.raises(ConfigError):
            EnsembleSpec(family="sequence_box", count=3, radii=())
        with pytest.raises(ConfigError):
            EnsembleSpec(family="band_limited", count=3, radii=(1.0,))
        with pytest.raises(ConfigError):
            EnsembleSpec(family="sequence_box", count=3, radii=(-1.0,))
        with pytest.raises(ConfigError):
            EnsembleSpec(family="matrix_ball", count=3, shape=(2, 2))

    def test_ensemble_rejects_mixed_signatures(self):
        spec = EnsembleSpec(family="sequence_box", count=2, radii=(1.0,))
        with pytest.raises(ShapeError):
            CompactEnsemble(
                (SequencePoint([1.0]), SequencePoint([1.0, 2.0])), spec, 0
            )


class TestSeeding:
    def test_same_path_same_stream(self):
        a = np.random.default_rng(derive_seed(7, 3, 1)).standard_normal(8)
        b = np.random.default_rng(derive_seed(7, 3, 1)).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_diverge(self):
        a = np.random.default_rng(derive_seed(7, 3, 1)).standard_normal(8)
        b = np.random.default_rng(derive_seed(7, 3, 2)).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_requires_explicit_root(self):
        with pytest.raises(ValueError):
            derive_seed(None, 1)
