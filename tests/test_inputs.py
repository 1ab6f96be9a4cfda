from dataclasses import replace

import numpy as np
import pytest

from shallowop import targets
from shallowop.errors import ConfigError, ShapeError
from shallowop.inputs import (
    CompactEnsemble,
    EnsembleSpec,
    FunctionalSpec,
    draw_functional_params,
    random_functional,
    sample_ensemble,
    signature_dim,
    stack_inputs,
)
from shallowop.network import Polynomial, ShallowVectorNetwork
from shallowop.operators import Operator, zero_operator
from shallowop.seeding import derive_seed
from shallowop.targets import GridMeta

GRID = GridMeta(0.0, 1.0, 101)


def fn_row(f, grid=GRID):
    """f sampled on the nodes of grid: one input row of ("function", grid)."""
    return f(grid.nodes())


class TestInputRows:
    def test_rows_are_read_as_a_matrix(self):
        # a list of Python rows, a list of array rows and a 2-d array give
        # one read-only (n, dim) matrix
        want = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        for rows in (want, [np.array(r) for r in want], np.array(want), tuple(want)):
            got = stack_inputs(rows, ("sequence", 3))
            assert got.dtype == np.float64 and not got.flags.writeable
            np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError):
            got[0, 0] = 9.0

    def test_a_matrix_input_is_its_row_major_row(self):
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(stack_inputs([z.reshape(-1)], ("matrix", (2, 2))),
                                      [[1.0, 2.0, 3.0, 4.0]])
        # a matrix itself is read as rows of its own, and the rows are too short
        with pytest.raises(ShapeError):
            stack_inputs(z, ("matrix", (2, 2)))
        with pytest.raises(ShapeError):
            stack_inputs([z], ("matrix", (2, 2)))

    @pytest.mark.parametrize("rows, signature, error", [
        ([np.ones(5)], ("function", GRID), ShapeError),
        ([[1.0, 2.0]], ("sequence", 3), ShapeError),
        ([], ("sequence", 3), ShapeError),
        ((), ("sequence", 3), ShapeError),
        (np.ones(3), ("sequence", 3), ShapeError),
        ([[1.0], [1.0, 2.0]], ("sequence", 2), ShapeError),
        ([np.ones(1), np.ones(2)], ("sequence", 2), ShapeError),
        ([[1.0, np.nan]], ("sequence", 2), ConfigError),
        ([np.array([1.0, np.inf])], ("sequence", 2), ConfigError),
        ([[1.5, True]], ("sequence", 2), ConfigError),
        ([[1.5, "2"]], ("sequence", 2), ConfigError),
        ([np.array(["1.5", "2"])], ("sequence", 2), ConfigError),
        ([np.array([True, False])], ("sequence", 2), ConfigError),
    ], ids=["function_row_length", "row_length", "empty_list", "empty_tuple", "one_vector",
            "ragged_lists", "ragged_arrays", "nan", "inf_array_row", "True", "string",
            "string_array_row", "boolean_array_row"])
    @pytest.mark.parametrize("reader", ["stack_inputs", "evaluate_many", "apply_many"])
    def test_bad_rows_are_refused_by_name(self, rows, signature, error, reader):
        read = {
            "stack_inputs": lambda: lambda samples: stack_inputs(samples, signature),
            "evaluate_many": lambda: ShallowVectorNetwork.zero(Polynomial(), signature,
                                                               1).evaluate_many,
            "apply_many": lambda: zero_operator(signature, 1).apply_many,
        }[reader]()
        with pytest.raises(error) as info:
            read(rows)
        assert info.value.arg == "samples" and str(info.value).startswith("inputs ")

    def test_ensemble_of_another_signature(self):
        ens = sample_ensemble(EnsembleSpec("band_limited", 4, radii=(1.0,), grid=GRID), 0)
        assert stack_inputs(ens, ("function", GRID)) is ens.flats
        for signature in (("function", GridMeta(0.0, 2.0, GRID.n)), ("sequence", GRID.n)):
            with pytest.raises(ShapeError):
                stack_inputs(ens, signature)
        # rows carry no grid: the same rows are read for any grid of their length
        rows = list(ens)
        np.testing.assert_array_equal(
            stack_inputs(rows, ("function", GridMeta(0.0, 2.0, GRID.n))), ens.flats)


def pairing(spec, params):
    """The functionals of parameter rows over spec.basis, as the network
    s -> (l_1(s), ..., l_k(s)): one neuron and one output per row.

    Weight rows pair with inputs only inside a network, which checks the
    input signature; the identity activation x -> x leaves l(s) as it is.
    """
    P = np.atleast_2d(np.asarray(params, dtype=float))
    k = P.shape[0]
    return ShallowVectorNetwork(P, np.zeros(k), np.ones(k), np.eye(k), np.ones(k, dtype=int),
                                Polynomial((0.0, 1.0)), spec.signature, basis=spec.basis)


def pair(spec, params, s):
    return float(pairing(spec, params).evaluate_many([s])[0, 0])


FN_SPEC = FunctionalSpec(("function", GRID))


def trig(k, scale=1.0):
    """FN_SPEC's parameters of phi = scale * mode k: 1, sin(pi x), cos(pi x),
    ..., cos(3 pi x) on [0, 1] for k = 0, 1, 2, ..., 6."""
    return scale * np.eye(1 + 2 * FN_SPEC.order)[k]


def trig_phi(p, x):
    """phi on the [0, 1] nodes x for trigonometric parameters p, by definition."""
    phi = np.full(x.shape, p[0])
    for k in range(1, (len(p) - 1) // 2 + 1):
        phi += p[2 * k - 1] * np.sin(k * np.pi * x) + p[2 * k] * np.cos(k * np.pi * x)
    return phi


class TestFunctionals:
    def test_quadrature_pairing_integrates_constants(self):
        assert pair(FN_SPEC, trig(0), fn_row(np.ones_like)) == pytest.approx(
            1.0, rel=1e-12)

    def test_quadrature_pairing_sine_mass(self):
        # trapezoid integrates sin(pi x) * sin(pi x) exactly on a uniform
        # [0, 1] grid, so the pairing returns 4 * 1/2 = 2
        s = fn_row(lambda x: np.sin(np.pi * x))
        assert pair(FN_SPEC, trig(1, 4.0), s) == pytest.approx(2.0, rel=1e-12)

    def test_quadrature_pairing_grid_mismatch(self):
        l = pairing(FN_SPEC, trig(0))
        with pytest.raises(ShapeError):
            l.evaluate_many([fn_row(np.sin, GridMeta(0.0, 1.0, 51))])
        with pytest.raises(ShapeError):
            l.evaluate_many(sample_ensemble(EnsembleSpec("sequence_box", 2, radii=(1.0,) * GRID.n),
                                            0))

    def test_sequence_dot(self):
        spec = FunctionalSpec(("sequence", 2))
        assert pair(spec, [1.0, 0.5], [2.0, 4.0]) == 4.0

    def test_matrix_trace_pairing(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((3, 2))
        z = rng.standard_normal((3, 2))
        spec = FunctionalSpec(("matrix", (3, 2)))
        assert pair(spec, w.reshape(-1), z.reshape(-1)) == pytest.approx(
            np.trace(w.T @ z), rel=1e-12)

    def test_zero_functional(self):
        seq = FunctionalSpec(("sequence", 1))
        assert pair(FN_SPEC, trig(0, 0.0), fn_row(np.sin)) == 0.0
        assert pair(seq, [0.0], [1.0]) == 0.0
        # the zero functional is the zero weight row, whatever the spec
        assert np.array_equal(trig(0, 0.0) @ FN_SPEC.basis, np.zeros(GRID.n))

    @pytest.mark.parametrize("trial", range(10))
    def test_linearity(self, trial):
        rng = np.random.default_rng(200 + trial)
        l = pairing(FunctionalSpec(("sequence", 16)), rng.standard_normal(16))
        s = rng.standard_normal(16)
        t = rng.standard_normal(16)
        a, b = rng.uniform(-2.0, 2.0, 2)
        lhs, ls, lt = l.evaluate_many([a * s + b * t, s, t])[:, 0]
        assert lhs == pytest.approx(a * ls + b * lt, abs=1e-9)

    def test_functional_weights_match_pairwise(self):
        # parameter rows over the basis pair with stacked inputs, in a
        # network's factored form, as the functionals they stand for
        # (trapezoid quadrature, sequence dot, Frobenius trace); a zero row
        # (a feature bank's bias) pairs as the zero functional
        rng = np.random.default_rng(3)
        points = {
            "function": lambda: rng.standard_normal(GRID.n),
            "sequence": lambda: rng.standard_normal(6),
            "matrix": lambda: rng.standard_normal(6),
        }
        definitions = {
            "function": lambda p, s: np.sum(GRID.trapezoid_weights() * trig_phi(p, GRID.nodes())
                                            * s),
            "sequence": lambda p, s: np.dot(p, s),
            "matrix": lambda p, s: np.trace(p.reshape(2, 3).T @ s.reshape(2, 3)),
        }
        for spec in SPECS:
            params = draw_functional_params(spec, rng, 5)
            params[2] = 0.0
            pts = [points[spec.signature[0]]() for _ in range(4)]
            got = pairing(spec, params).evaluate_many(pts).T
            want = np.array([[definitions[spec.signature[0]](p, s) for s in pts] for p in params])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
            assert np.all(got[2] == 0.0)
            assert all(pair(spec, np.zeros(params.shape[1]), s) == 0.0 for s in pts)

    def test_sequence_dot_signature_mismatch(self):
        with pytest.raises(ShapeError):
            pairing(FunctionalSpec(("sequence", 8)), np.ones(8)).evaluate_many(
                [np.ones(9)])


SPECS = (
    FunctionalSpec(("function", GRID), order=3, scale=0.7),
    FunctionalSpec(("sequence", 6)),
    FunctionalSpec(("matrix", (2, 3))),
)


class TestRandomFunctional:
    def test_deterministic_in_seed(self):
        spec = FunctionalSpec(("function", GRID), order=3)
        a = random_functional(spec, derive_seed(42, 0))
        b = random_functional(spec, derive_seed(42, 0))
        np.testing.assert_array_equal(a, b)
        c = random_functional(spec, derive_seed(42, 1))
        assert not np.array_equal(a, c)

    def test_none_seed_refused_by_name(self):
        # numpy would seed None from fresh OS entropy, so no two draws agree
        with pytest.raises(ConfigError, match="seed must be given") as info:
            random_functional(FunctionalSpec(("function", GRID), order=3), None)
        assert info.value.arg == "seed"

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.signature[0])
    def test_one_row_draw_matches_batch_head(self, spec):
        l = random_functional(spec, derive_seed(42, 0))
        params = draw_functional_params(spec, np.random.default_rng(derive_seed(42, 0)), 5)
        one = draw_functional_params(spec, np.random.default_rng(derive_seed(42, 0)), 1)
        assert l.shape == (signature_dim(spec.signature),)
        np.testing.assert_array_equal(one, params[:1])
        head = params[0] if spec.basis is None else params[0] @ spec.basis
        np.testing.assert_array_equal(l, head)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.signature[0])
    def test_weight_rows_are_params_over_the_basis(self, spec):
        params = draw_functional_params(spec, np.random.default_rng(4), 6)
        if spec.signature[0] != "function":
            # no basis: the parameters are the weight rows
            assert spec.basis is None
            return
        # one basis per spec, read-only, whose combinations are phi on the
        # grid times the trapezoid weights
        assert spec.basis is spec.basis and not spec.basis.flags.writeable
        assert params.shape == (6, 1 + 2 * spec.order)
        assert spec.basis.shape == (1 + 2 * spec.order, GRID.n)
        L = params @ spec.basis
        want = GRID.trapezoid_weights() * np.array([trig_phi(p, GRID.nodes()) for p in params])
        np.testing.assert_allclose(L, want, rtol=1e-12, atol=1e-15)

    def test_variants(self):
        l = random_functional(FunctionalSpec(("sequence", 6)), 1)
        assert l.shape == (signature_dim(("sequence", 6)),)
        l = random_functional(FunctionalSpec(("matrix", (2, 3))), 1)
        assert l.shape == (signature_dim(("matrix", (2, 3))),)

    def test_spec_validation(self):
        # a malformed signature: an unknown kind, a function signature
        # without a grid, a sequence without a length or below length 1,
        # a bad matrix shape, a signature that is not a (kind, size) pair;
        # an operator holds one too, and refuses each when it is built
        for signature in (("nope", 3), ("function", None), ("sequence", None),
                          ("sequence", 0), ("matrix", (0, 2)), ("matrix", None),
                          ("matrix", (2,)), "sequence", ("sequence", 4, 1)):
            with pytest.raises(ConfigError):
                FunctionalSpec(signature)
            with pytest.raises(ConfigError) as info:
                Operator("x", np.zeros_like, signature, 3)
            assert info.value.arg == "input_signature"
        with pytest.raises(ConfigError):
            FunctionalSpec(("sequence", 4), scale=-1.0)
        with pytest.raises(ConfigError):
            FunctionalSpec(("function", GRID), order=-1)

    def test_signature_is_the_inputs(self):
        # the spec keeps the signature it pairs with, sizes as plain ints
        assert FunctionalSpec(("function", GRID)).signature == ("function", GRID)
        seq = FunctionalSpec(("sequence", np.int64(6)))
        assert seq.signature == ("sequence", 6) and type(seq.signature[1]) is int
        assert FunctionalSpec(("matrix", [2, 3])).signature == ("matrix", (2, 3))

    def test_order_must_be_an_integer(self):
        with pytest.raises(ConfigError, match="order"):
            FunctionalSpec(("function", GRID), order=2.5)
        with pytest.raises(ConfigError, match="order"):
            FunctionalSpec(("function", GRID), order=True)

    def test_order_bounded_by_its_basis_rows(self):
        # 1 + 2 order rows of float64 at most; a sequence spec builds no basis
        most = (np.iinfo(np.intp).max // 8 - 1) // 2
        assert FunctionalSpec(("sequence", 2), order=most).order == most
        with pytest.raises(ConfigError, match=f"must be at most {most}, .* got {most + 1}$"):
            FunctionalSpec(("sequence", 2), order=most + 1)

    @pytest.mark.parametrize("scale", [np.nan, 0.0])
    def test_scale_must_be_finite_and_positive(self, scale):
        # a NaN scale used to draw NaN parameters; a zero one draws only zeros
        with pytest.raises(ConfigError, match="scale") as info:
            FunctionalSpec(("sequence", 3), scale=scale)
        assert info.value.arg == "scale"


class TestEnsembles:
    def test_none_seed_refused_by_name(self):
        # numpy would seed None from fresh OS entropy, so no two draws agree
        with pytest.raises(ConfigError, match="seed must be given") as info:
            sample_ensemble(EnsembleSpec("sequence_box", 4, radii=(1.0, 0.5)), None)
        assert info.value.arg == "seed"

    def test_band_limited_grid_must_be_a_grid(self):
        for grid in ({"a": 0.0, "b": 1.0, "n": 5}, 5, (0.0, 1.0, 5)):
            with pytest.raises(ConfigError, match="grid must be a GridMeta") as info:
                EnsembleSpec("band_limited", 3, radii=(1.0,), grid=grid)
            assert info.value.arg == "grid"

    def test_band_limited_membership_and_determinism(self):
        spec = EnsembleSpec(
            family="band_limited", count=20, radii=(1.0, 0.5, 0.25), grid=GRID
        )
        ens = sample_ensemble(spec, 11)
        assert len(ens) == 20
        assert ens.signature == ("function", GRID)
        bound = sum(spec.radii)
        for s in ens:
            assert np.max(np.abs(s)) <= bound + 1e-12
        again = sample_ensemble(spec, 11)
        for s, t in zip(ens, again):
            np.testing.assert_array_equal(s, t)

    def test_band_limited_vanishes_at_endpoints(self):
        spec = EnsembleSpec(family="band_limited", count=5, radii=(1.0, 1.0), grid=GRID)
        for s in sample_ensemble(spec, 0):
            assert abs(s[0]) < 1e-12
            assert abs(s[-1]) < 1e-12

    def test_sequence_box_membership(self):
        radii = (1.0, 0.5, 0.25, 0.125)
        spec = EnsembleSpec(family="sequence_box", count=50, radii=radii)
        for s in sample_ensemble(spec, 5):
            assert np.all(np.abs(s) <= np.asarray(radii))

    def test_matrix_ball_membership(self):
        spec = EnsembleSpec(family="matrix_ball", count=50, shape=(2, 2), radius=1.5)
        for z in sample_ensemble(spec, 9):
            assert np.linalg.norm(z) <= 1.5 + 1e-12

    def test_matrix_ball_radial_profile(self):
        # uniform draws in a d-dim ball have mean radius d/(d+1) of the bound
        spec = EnsembleSpec(family="matrix_ball", count=2000, shape=(2, 2), radius=1.0)
        ens = sample_ensemble(spec, 123)
        mean_r = np.mean([np.linalg.norm(z) for z in ens])
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

    def test_matrix_shape_must_be_integers(self):
        # refused, never truncated to (2, 2); numpy integers are read as ints
        with pytest.raises(ConfigError, match="matrix shape"):
            EnsembleSpec("matrix_ball", 10, shape=(2.7, 2), radius=1.0)
        spec = EnsembleSpec("matrix_ball", 10, shape=(np.int32(2), 3), radius=1.0)
        assert spec.shape == (2, 3) and all(type(d) is int for d in spec.shape)

    def test_count_must_be_an_integer(self):
        for count in (2.5, True):
            with pytest.raises(ConfigError, match="sample count"):
                EnsembleSpec(family="sequence_box", count=count, radii=(1.0,))
        spec = EnsembleSpec(family="sequence_box", count=np.int64(4), radii=(1.0,))
        assert type(spec.count) is int and len(sample_ensemble(spec, 0)) == 4

    @pytest.mark.parametrize("kwargs, arg", [
        ({"family": "sequence_box", "radii": (np.nan,)}, "radii"),
        ({"family": "band_limited", "radii": (1.0, np.inf), "grid": GRID}, "radii"),
        ({"family": "matrix_ball", "shape": (2, 2), "radius": np.nan}, "radius"),
    ], ids=["nan_radii", "infinite_radii", "nan_radius"])
    def test_bounds_must_be_finite(self, kwargs, arg):
        # refused when built, not when sampled as non-finite ensemble inputs
        with pytest.raises(ConfigError) as info:
            EnsembleSpec(count=3, **kwargs)
        assert info.value.arg == arg

    @pytest.mark.parametrize("kwargs, arg", [
        ({"family": "sequence_box", "radii": (1.0,), "radius": 1.0}, "radius"),
        ({"family": "band_limited", "radii": (1.0,), "grid": GRID, "shape": (2, 2)}, "shape"),
        ({"family": "matrix_ball", "shape": (2, 2), "radius": 1.0, "radii": (1.0,)}, "radii"),
    ], ids=["box_radius", "band_shape", "ball_radii"])
    def test_family_refuses_the_others_arguments(self, kwargs, arg):
        with pytest.raises(ConfigError, match="does not apply") as info:
            EnsembleSpec(count=3, **kwargs)
        assert info.value.arg == arg

    def test_ensemble_rejects_rows_of_different_lengths(self):
        spec = EnsembleSpec(family="sequence_box", count=2, radii=(1.0,))
        with pytest.raises(ShapeError):
            CompactEnsemble([[1.0], [1.0, 2.0]], spec.input_signature)
        with pytest.raises(ShapeError):
            CompactEnsemble([np.ones(1), np.ones(2)], spec.input_signature)


ENSEMBLE_SPECS = (
    EnsembleSpec(family="band_limited", count=300, radii=(1.0, 0.5, 0.25), grid=GRID),
    EnsembleSpec(family="sequence_box", count=300, radii=(1.0, 0.5, 0.25, 0.125)),
    EnsembleSpec(family="matrix_ball", count=300, shape=(2, 3), radius=1.5),
)


class TestEnsembleMatrix:
    @pytest.mark.parametrize("spec", ENSEMBLE_SPECS, ids=lambda s: s.family)
    def test_flats_are_a_read_only_matrix(self, spec):
        ens = sample_ensemble(spec, 21)
        assert ens.flats.shape == (300, signature_dim(spec.input_signature))
        assert not ens.flats.flags.writeable
        with pytest.raises(ValueError):
            ens.flats[0, 0] = 1.0
        assert stack_inputs(ens, spec.input_signature) is ens.flats

    @pytest.mark.parametrize("spec", ENSEMBLE_SPECS, ids=lambda s: s.family)
    def test_indexing_and_iteration_give_read_only_rows(self, spec):
        ens = sample_ensemble(spec, 22)
        rows = list(ens)
        assert len(rows) == len(ens) == 300
        for i in (0, 17, 299, -1):
            for row in (ens[i], rows[i]):
                assert row.shape == (ens.flats.shape[1],)
                assert np.shares_memory(row, ens.flats) and not row.flags.writeable
                assert row.tobytes() == ens.flats[i].tobytes()
                with pytest.raises(ValueError):
                    row[0] = 1.0
        assert stack_inputs(rows, ens.signature).tobytes() == ens.flats.tobytes()
        # as the benchmark's fingerprint reads them: each row's flat iterator
        assert np.stack([s.flat for s in rows]).tobytes() == ens.flats.tobytes()

    @pytest.mark.parametrize("spec", ENSEMBLE_SPECS, ids=lambda s: s.family)
    def test_slices_are_views(self, spec):
        ens = sample_ensemble(spec, 23)
        head, tail = ens[:240], ens[240:]
        assert (len(head), len(tail)) == (240, 60)
        for part in (head, tail):
            assert isinstance(part, CompactEnsemble)
            assert np.shares_memory(part.flats, ens.flats)
            assert part.signature == ens.signature == spec.input_signature
        np.testing.assert_array_equal(tail.flats, ens.flats[240:])

    def test_built_from_rows_or_matrix(self):
        spec = ENSEMBLE_SPECS[1]
        rows = [[1.0, 2.0, 3.0, 4.0], [0.5, 0.0, 0.0, -1.0]]
        from_rows = CompactEnsemble(rows, spec.input_signature)
        mine = np.array(rows)
        from_matrix = CompactEnsemble(mine, spec.input_signature)
        np.testing.assert_array_equal(from_rows.flats, from_matrix.flats)
        # a writable matrix is copied, so the caller's later writes do not leak in
        mine[0, 0] = 9.0
        assert from_matrix.flats[0, 0] == 1.0

    def test_bad_inputs_raise(self):
        spec = ENSEMBLE_SPECS[1]
        sig = spec.input_signature
        with pytest.raises(ValueError):
            CompactEnsemble((), sig)
        with pytest.raises(ShapeError):
            CompactEnsemble(np.zeros((0, 4)), sig)
        with pytest.raises(ShapeError):
            CompactEnsemble(np.zeros((3, 5)), sig)
        with pytest.raises(ShapeError):
            CompactEnsemble(stack_inputs([np.ones(4), np.ones(5)], sig), sig)
        with pytest.raises(ShapeError):
            CompactEnsemble(stack_inputs([np.ones(GRID.n)], ("function", GRID)), sig)
        bad = np.ones((3, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            CompactEnsemble(bad, sig)
        bad[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            CompactEnsemble(bad, sig)

    def test_signature_is_checked_by_name(self):
        # the ensemble spec itself is no signature
        spec = ENSEMBLE_SPECS[1]
        for signature in (spec, ("sequence", 0), ("function", 4)):
            with pytest.raises(ConfigError) as info:
                CompactEnsemble(np.ones((3, 4)), signature)
            assert info.value.arg == "signature"

    @pytest.mark.parametrize("spec", ENSEMBLE_SPECS[:2], ids=lambda s: s.family)
    def test_first_rows_do_not_depend_on_count(self, spec):
        # two full row blocks of 101-node rows and part of a third
        rows = targets.BLOCK_BYTES // (8 * GRID.n)
        count = 2 * rows + 41
        assert len(targets._row_blocks(count, GRID.n)) >= 3
        full = sample_ensemble(replace(spec, count=count), derive_seed(5, 0))
        for k in (1, 7, rows, rows + 1, count - 1):
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


#: the root seeds every draw refuses: a generator, whose stream depends on
#: what drew from it before, a boolean, a negative integer and a fraction
NOT_SEEDS = [np.random.default_rng(0), True, -1, 1.5]
#: each function of a root seed, on a seed
SEEDED = {
    "sample_ensemble": lambda seed: sample_ensemble(
        EnsembleSpec("sequence_box", 4, radii=(1.0, 0.5)), seed),
    "random_functional": lambda seed: random_functional(FunctionalSpec(("sequence", 3)), seed),
    "derive_seed": lambda seed: derive_seed(seed, 1),
}


@pytest.mark.parametrize("seed", NOT_SEEDS, ids=["generator", "true", "negative", "fraction"])
@pytest.mark.parametrize("draw", SEEDED)
def test_root_seed_refused_by_name(draw, seed):
    # one rule, derive_seed's, for every root seed
    with pytest.raises(ConfigError, match="^seed must be") as info:
        SEEDED[draw](seed)
    assert info.value.arg == "seed"


@pytest.mark.parametrize("root", [0, 7, 2**64 + 3, np.int64(9), derive_seed(5, 3, 1)],
                         ids=["zero", "seven", "wide", "numpy", "derived"])
def test_empty_path_seeds_the_roots_own_stream(root):
    # so that draws of an integer or a derived seed kept their bits when
    # they began to read it through derive_seed
    want = np.random.default_rng(root).standard_normal(8)
    assert np.random.default_rng(derive_seed(root)).standard_normal(8).tobytes() == want.tobytes()


@pytest.mark.parametrize("entry", [1.7, True, -1, "1"], ids=["fraction", "true", "negative",
                                                            "string"])
@pytest.mark.parametrize("root", [5, derive_seed(5, 2)], ids=["integer", "derived"])
def test_path_entry_refused_by_name(root, entry):
    # the root's rule: 1.7 and True used to give the stream of path entry 1,
    # and -1 ended in numpy's bare ValueError
    with pytest.raises(ConfigError, match="^path must be") as info:
        derive_seed(root, 0, entry)
    assert info.value.arg == "path"


@pytest.mark.parametrize("entry", [np.int64(1), np.uint8(1)], ids=["int64", "uint8"])
def test_numpy_path_entry_is_the_int_it_holds(entry):
    want = derive_seed(5, 1).generate_state(4)
    assert derive_seed(5, entry).generate_state(4).tobytes() == want.tobytes()
    assert derive_seed(5, entry).spawn_key == (1,)
