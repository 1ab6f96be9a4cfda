from dataclasses import replace

import numpy as np
import pytest

from shallowop.errors import ConfigError, ShapeError
from shallowop.inputs import (
    CompactEnsemble,
    EnsembleSpec,
    FunctionSample,
    FunctionalSpec,
    MatrixPoint,
    SequencePoint,
    draw_functional_params,
    functional_weights,
    random_functional,
    sample_ensemble,
    signature_dim,
    stack_inputs,
)
from shallowop.network import Polynomial, ShallowVectorNetwork
from shallowop.seeding import derive_seed
from shallowop.targets import GridMeta

GRID = GridMeta(0.0, 1.0, 101)


def fn_sample(f, grid=GRID):
    return FunctionSample(f(grid.nodes()), grid)


class TestInputPoints:
    def test_function_sample_checks_grid(self):
        with pytest.raises(ShapeError):
            FunctionSample(np.ones(5), GRID)

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
        np.testing.assert_array_equal(stack_inputs(pts)[0], [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ShapeError):
            stack_inputs([])
        with pytest.raises(ShapeError):
            stack_inputs([SequencePoint([1.0]), SequencePoint([1.0, 2.0])])


def pairing(spec, params):
    """The functional of one parameter row, as the one-neuron network s -> l(s).

    Weight rows pair with inputs only inside a network, which checks the
    input signature; the identity activation x -> x leaves l(s) as it is.
    """
    L = functional_weights(spec, np.atleast_2d(np.asarray(params, dtype=float)))
    return ShallowVectorNetwork(L, np.zeros(1), np.ones((1, 1)), Polynomial((0.0, 1.0)),
                                spec.signature)


def pair(spec, params, s):
    return float(pairing(spec, params).evaluate_many([s])[0, 0])


FN_SPEC = FunctionalSpec(kind="function", grid=GRID)


class TestFunctionals:
    def test_quadrature_pairing_integrates_constants(self):
        assert pair(FN_SPEC, np.ones(GRID.n), fn_sample(np.ones_like)) == pytest.approx(
            1.0, rel=1e-12)

    def test_quadrature_pairing_sine_mass(self):
        # trapezoid integrates sin(pi x) * sin(pi x) exactly on a uniform
        # [0, 1] grid, so the pairing returns 4 * 1/2 = 2
        x = GRID.nodes()
        s = fn_sample(lambda x: np.sin(np.pi * x))
        assert pair(FN_SPEC, 4.0 * np.sin(np.pi * x), s) == pytest.approx(2.0, rel=1e-12)

    def test_quadrature_pairing_grid_mismatch(self):
        l = pairing(FN_SPEC, np.ones(GRID.n))
        with pytest.raises(ShapeError):
            l.evaluate_many([fn_sample(np.sin, GridMeta(0.0, 1.0, 51))])
        with pytest.raises(ShapeError):
            l.evaluate_many([SequencePoint(np.ones(GRID.n))])

    def test_sequence_dot(self):
        spec = FunctionalSpec(kind="sequence", length=2)
        assert pair(spec, [1.0, 0.5], SequencePoint([2.0, 4.0])) == 4.0

    def test_matrix_trace_pairing(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((3, 2))
        z = rng.standard_normal((3, 2))
        spec = FunctionalSpec(kind="matrix", shape=(3, 2))
        assert pair(spec, w.reshape(-1), MatrixPoint(z)) == pytest.approx(
            np.trace(w.T @ z), rel=1e-12)

    def test_zero_functional(self):
        seq = FunctionalSpec(kind="sequence", length=1)
        assert pair(FN_SPEC, np.zeros(GRID.n), fn_sample(np.sin)) == 0.0
        assert pair(seq, [0.0], SequencePoint([1.0])) == 0.0
        # the zero functional is the zero weight row, whatever the spec
        assert np.array_equal(functional_weights(FN_SPEC, np.zeros((1, GRID.n)))[0],
                              np.zeros(GRID.n))

    @pytest.mark.parametrize("trial", range(10))
    def test_linearity(self, trial):
        rng = np.random.default_rng(200 + trial)
        l = pairing(FunctionalSpec(kind="sequence", length=16), rng.standard_normal(16))
        s = SequencePoint(rng.standard_normal(16))
        t = SequencePoint(rng.standard_normal(16))
        a, b = rng.uniform(-2.0, 2.0, 2)
        lhs, ls, lt = l.evaluate_many([SequencePoint(a * s.values + b * t.values), s, t])[:, 0]
        assert lhs == pytest.approx(a * ls + b * lt, abs=1e-9)

    def test_functional_weights_match_pairwise(self):
        # weight rows pair with stacked inputs as the functionals they stand
        # for (trapezoid quadrature, sequence dot, Frobenius trace); a zero row
        # (a feature bank's bias) pairs as the zero functional
        rng = np.random.default_rng(3)
        points = {
            "function": lambda: FunctionSample(rng.standard_normal(GRID.n), GRID),
            "sequence": lambda: SequencePoint(rng.standard_normal(6)),
            "matrix": lambda: MatrixPoint(rng.standard_normal((2, 3))),
        }
        definitions = {
            "function": lambda p, s: np.sum(GRID.trapezoid_weights() * p * s.values),
            "sequence": lambda p, s: np.dot(p, s.values),
            "matrix": lambda p, s: np.trace(p.reshape(2, 3).T @ s.values),
        }
        for spec in SPECS:
            params = draw_functional_params(spec, rng, 5)
            params[2] = 0.0
            pts = [points[spec.kind]() for _ in range(4)]
            got = functional_weights(spec, params) @ stack_inputs(pts)[0].T
            want = np.array([[definitions[spec.kind](p, s) for s in pts] for p in params])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
            assert np.all(got[2] == 0.0)
            assert all(pair(spec, np.zeros(params.shape[1]), s) == 0.0 for s in pts)

    def test_sequence_dot_signature_mismatch(self):
        with pytest.raises(ShapeError):
            pairing(FunctionalSpec(kind="sequence", length=8), np.ones(8)).evaluate_many(
                [SequencePoint(np.ones(9))])


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
        np.testing.assert_array_equal(a, b)
        c = random_functional(spec, derive_seed(42, 1))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_one_row_draw_matches_batch_head(self, spec):
        l = random_functional(spec, derive_seed(42, 0))
        params = draw_functional_params(spec, np.random.default_rng(derive_seed(42, 0)), 5)
        assert l.shape == (signature_dim(spec.signature),)
        np.testing.assert_array_equal(l, functional_weights(spec, params)[0])
        np.testing.assert_array_equal(functional_weights(spec, params[:1])[0], l)

    def test_variants(self):
        l = random_functional(FunctionalSpec(kind="sequence", length=6), 1)
        assert l.shape == (signature_dim(("sequence", 6)),)
        l = random_functional(FunctionalSpec(kind="matrix", shape=(2, 3)), 1)
        assert l.shape == (signature_dim(("matrix", (2, 3))),)

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
                stack_inputs((SequencePoint([1.0]), SequencePoint([1.0, 2.0])))[0], spec, 0
            )


ENSEMBLE_SPECS = (
    EnsembleSpec(family="band_limited", count=300, radii=(1.0, 0.5, 0.25), grid=GRID),
    EnsembleSpec(family="sequence_box", count=300, radii=(1.0, 0.5, 0.25, 0.125)),
    EnsembleSpec(family="matrix_ball", count=300, shape=(2, 3), radius=1.5),
)
POINT_TYPES = {"band_limited": FunctionSample, "sequence_box": SequencePoint,
               "matrix_ball": MatrixPoint}


class TestEnsembleMatrix:
    @pytest.mark.parametrize("spec", ENSEMBLE_SPECS, ids=lambda s: s.family)
    def test_flats_are_a_read_only_matrix(self, spec):
        ens = sample_ensemble(spec, 21)
        assert ens.flats.shape == (300, signature_dim(spec.input_signature))
        assert not ens.flats.flags.writeable
        with pytest.raises(ValueError):
            ens.flats[0, 0] = 1.0
        assert stack_inputs(ens)[0] is ens.flats

    @pytest.mark.parametrize("spec", ENSEMBLE_SPECS, ids=lambda s: s.family)
    def test_indexing_and_iteration_give_points(self, spec):
        ens = sample_ensemble(spec, 22)
        points = list(ens)
        assert len(points) == len(ens) == 300
        for i in (0, 17, 299, -1):
            p = ens[i]
            assert type(p) is POINT_TYPES[spec.family]
            assert p.signature == ens.signature == spec.input_signature
            np.testing.assert_array_equal(p.flat, ens.flats[i])
            np.testing.assert_array_equal(points[i].flat, ens.flats[i])
        np.testing.assert_array_equal(stack_inputs(points)[0], ens.flats)

    @pytest.mark.parametrize("spec", ENSEMBLE_SPECS, ids=lambda s: s.family)
    def test_slices_are_views(self, spec):
        ens = sample_ensemble(spec, 23)
        head, tail = ens[:240], ens[240:]
        assert (len(head), len(tail)) == (240, 60)
        for part in (head, tail):
            assert isinstance(part, CompactEnsemble)
            assert np.shares_memory(part.flats, ens.flats)
            assert part.spec is ens.spec and part.signature == ens.signature
        np.testing.assert_array_equal(tail.flats, ens.flats[240:])

    def test_built_from_points_or_matrix(self):
        spec = ENSEMBLE_SPECS[1]
        pts = [SequencePoint([1.0, 2.0, 3.0, 4.0]), SequencePoint([0.5, 0.0, 0.0, -1.0])]
        from_points = CompactEnsemble(stack_inputs(pts)[0], spec, 0)
        mine = np.array([p.flat for p in pts])
        from_matrix = CompactEnsemble(mine, spec, 0)
        np.testing.assert_array_equal(from_points.flats, from_matrix.flats)
        # a writable matrix is copied, so the caller's later writes do not leak in
        mine[0, 0] = 9.0
        assert from_matrix.flats[0, 0] == 1.0

    def test_bad_inputs_raise(self):
        spec = ENSEMBLE_SPECS[1]
        with pytest.raises(ValueError):
            CompactEnsemble((), spec, 0)
        with pytest.raises(ShapeError):
            CompactEnsemble(np.zeros((0, 4)), spec, 0)
        with pytest.raises(ShapeError):
            CompactEnsemble(np.zeros((3, 5)), spec, 0)
        with pytest.raises(ShapeError):
            CompactEnsemble(stack_inputs([SequencePoint(np.ones(4)), SequencePoint(np.ones(5))])[0],
                            spec, 0)
        with pytest.raises(ShapeError):
            CompactEnsemble(stack_inputs([FunctionSample(np.ones(GRID.n), GRID)])[0], spec, 0)
        bad = np.ones((3, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            CompactEnsemble(bad, spec, 0)
        bad[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            CompactEnsemble(bad, spec, 0)

    @pytest.mark.parametrize("spec", ENSEMBLE_SPECS[:2], ids=lambda s: s.family)
    def test_first_rows_do_not_depend_on_count(self, spec):
        full = sample_ensemble(spec, derive_seed(5, 0))
        for k in (1, 7, 256, 299):
            head = sample_ensemble(replace(spec, count=k), derive_seed(5, 0))
            assert head.flats.tobytes() == full.flats[:k].tobytes()


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
