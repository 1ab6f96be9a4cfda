import base64
import json
import re
import threading

import numpy as np
import pytest

from shallowop import network, targets
from shallowop.errors import ConfigError, DocumentError, ShapeError
from shallowop.inputs import EnsembleSpec, sample_ensemble
from shallowop.network import (
    Activation,
    Gaussian,
    Polynomial,
    Relu,
    ShallowVectorNetwork,
    Sigmoid,
    Tanh,
    deserialize_network,
    make_activation,
    serialize_network,
)
from shallowop.targets import GridMeta

TANH_1 = 0.7615941559557649
EXP_NEG_1 = 0.36787944117144233


def dense(L, theta, V, activation, signature, output_grid=None):
    """The network eta(S L^T - theta) V: no basis, every width 1, c = 1, U = V."""
    width = len(theta)
    return ShallowVectorNetwork(L, theta, np.ones(width), V, np.ones(width, dtype=int),
                                activation, signature, output_grid)


def random_network(rng, width=4, in_dim=6, out_dim=5, activation=Tanh()):
    return dense(
        rng.standard_normal((width, in_dim)),
        rng.uniform(-1.0, 1.0, width),
        rng.standard_normal((width, out_dim)),
        activation,
        ("sequence", in_dim),
    )


def packed(a):
    """A matrix as the network document stores it."""
    a = np.asarray(a, dtype=float)
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}


class TestActivations:
    def test_point_values(self):
        assert Tanh()(np.float64(0.0)) == 0.0
        assert Relu()(np.float64(-3.0)) == 0.0
        assert Relu()(np.float64(2.0)) == 2.0
        assert Sigmoid()(np.float64(0.0)) == 0.5
        assert Gaussian()(np.float64(0.0)) == 1.0
        assert Tanh()(np.float64(1.0)) == pytest.approx(TANH_1, rel=1e-15)
        assert Gaussian()(np.float64(1.0)) == pytest.approx(EXP_NEG_1, rel=1e-15)
        assert Polynomial((0.0, 0.0, 1.0))(np.float64(3.0)) == 9.0

    def test_sigmoid_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            assert Sigmoid()(np.float64(800.0)) == 1.0
            assert Sigmoid()(np.float64(-800.0)) == 0.0

    def test_vectorized_shapes(self):
        x = np.linspace(-2.0, 2.0, 7)
        for eta in (Tanh(), Sigmoid(), Relu(), Gaussian(), Polynomial()):
            assert eta(x).shape == x.shape

    def test_make_activation(self):
        assert make_activation("tanh") == Tanh()
        assert make_activation({"name": "polynomial", "coefficients": [1.0, 2.0]}) == Polynomial(
            (1.0, 2.0)
        )
        assert make_activation(Relu()) == Relu()
        with pytest.raises(ConfigError, match="unknown activation 'foo'") as info:
            make_activation("foo")
        assert info.value.arg is None
        with pytest.raises(ConfigError, match="must be a name or mapping") as info:
            make_activation(["tanh"])
        assert info.value.arg is None
        # an option the activation does not take is refused by name
        with pytest.raises(ConfigError, match="not an option of the tanh") as info:
            make_activation({"name": "tanh", "coefficients": [1.0]})
        assert info.value.arg == "coefficients"
        # a bad option value keeps the argument its activation names
        with pytest.raises(ConfigError, match="must be a nonempty sequence") as info:
            make_activation({"name": "polynomial", "coefficients": []})
        assert info.value.arg == "coefficients"

    def test_flagged_activations(self):
        # polynomial on some interval: on all of it, or on each half-line
        assert Polynomial().flagged and Relu().flagged
        assert not any(eta.flagged for eta in (Tanh(), Sigmoid(), Gaussian()))


class TestEvaluate:
    def test_empty_network_is_zero(self):
        net = ShallowVectorNetwork.zero(Tanh(), ("sequence", 3), 4)
        assert net.width == 0
        out = net.evaluate_many([[1.0, -2.0, 5.0]])[0]
        np.testing.assert_array_equal(out, np.zeros(4))
        batch = net.evaluate_many([[1.0, -2.0, 5.0]] * 2)
        np.testing.assert_array_equal(batch, np.zeros((2, 4)))

    def test_single_relu_trace_neuron(self):
        # the one weight row is the Frobenius pairing with the identity
        net = dense(np.eye(2).reshape(1, 4), [0.0], [[1.0, 0.0]], Relu(), ("matrix", (2, 2)))
        out = net.evaluate_many([np.eye(2).reshape(-1)])[0]
        np.testing.assert_array_equal(out, [2.0, 0.0])

    def test_constant_via_zero_functional(self):
        grid = GridMeta(0.0, 1.0, 11)
        net = dense(np.zeros((1, 2)), [-1.0], np.ones((1, 11)), Tanh(), ("sequence", 2), grid)
        out = net.evaluate_many([[3.0, -7.0]])[0]
        np.testing.assert_allclose(out, TANH_1, rtol=1e-15)
        assert net.output_grid == grid

    def test_input_signature_checked(self):
        net = ShallowVectorNetwork.zero(Tanh(), ("sequence", 3), 4)
        with pytest.raises(ShapeError):
            net.evaluate_many([[1.0, 2.0]])

    def test_neuron_shape_mismatches_rejected(self):
        L, theta, V = np.ones((1, 3)), np.zeros(1), np.ones((1, 4))
        with pytest.raises(ShapeError, match="weights"):
            dense(L, theta, V, Tanh(), ("sequence", 5))
        with pytest.raises(ShapeError, match="output grid"):
            dense(L, theta, V, Tanh(), ("sequence", 3), GridMeta(0.0, 1.0, 6))
        with pytest.raises(ShapeError, match="rows"):
            ShallowVectorNetwork(L, np.zeros(2), [1.0, 1.0], V, [2], Tanh(), ("sequence", 3))
        with pytest.raises(ShapeError, match="thresholds"):
            dense(L, np.zeros((1, 1)), V, Tanh(), ("sequence", 3))
        with pytest.raises(ValueError, match="thresholds"):
            dense(L, [np.inf], V, Tanh(), ("sequence", 3))

    def test_matrices_are_read_only_copies(self):
        L, theta, V = np.ones((2, 3)), np.zeros(2), np.ones((2, 4))
        net = dense(L, theta, V, Tanh(), ("sequence", 3))
        L[0, 0] = 5.0
        assert net.weights[0, 0] == 1.0
        with pytest.raises(ValueError):
            net.centers[0, 0] = 2.0

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(0)
        net = random_network(rng)
        pts = [rng.standard_normal(6) for _ in range(9)]
        batch = net.evaluate_many(pts)
        single = np.stack([net.evaluate_many([p])[0] for p in pts])
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-14)


    def test_batch_longer_than_a_block_matches_pointwise(self, monkeypatch):
        # blocks of 16 rows for the 7 neurons
        monkeypatch.setattr(targets, "BLOCK_BYTES", 8 * 7 * 16)
        rng = np.random.default_rng(1)
        net = random_network(rng, width=7)
        pts = [rng.standard_normal(6) for _ in range(2 * 16 + 37)]
        assert len(targets._row_blocks(len(pts), 7)) >= 3
        batch = net.evaluate_many(pts)
        single = np.stack([net.evaluate_many([p])[0] for p in pts])
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("spec", [
        EnsembleSpec("band_limited", 300, radii=(1.0, 0.5), grid=GridMeta(0.0, 1.0, 13)),
        EnsembleSpec("sequence_box", 300, radii=(1.0, 0.5, 0.25)),
        EnsembleSpec("matrix_ball", 300, shape=(2, 3), radius=1.5),
    ], ids=lambda spec: spec.family)
    def test_row_list_and_ensemble_evaluate_bitwise_equal(self, spec):
        # a list of the ensemble's rows, as saved-network users hold them,
        # evaluates exactly as the ensemble's own matrix, across row blocks
        rng = np.random.default_rng(11)
        ens = sample_ensemble(spec, 12)
        dim = ens.flats.shape[1]
        net = dense(rng.standard_normal((9, dim)), rng.uniform(-1.0, 1.0, 9),
                    rng.standard_normal((9, 4)), Tanh(), ens.signature)
        want = net.evaluate_many(ens)
        assert net.evaluate_many(list(ens)).tobytes() == want.tobytes()

    def test_4096_array_rows_evaluate_as_the_ensemble_without_reading_entries(
            self, monkeypatch):
        # one numpy stack of the rows, never _as_float per entry
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return as_float(*args, **kwargs)

        as_float = targets._as_float
        grid = GridMeta(0.0, 1.0, 101)
        ens = sample_ensemble(EnsembleSpec("band_limited", 4096, radii=(1.0, 0.5, 0.25),
                                           grid=grid), 13)
        rng = np.random.default_rng(14)
        net = ShallowVectorNetwork(rng.standard_normal((256, 7)), rng.uniform(-1, 1, 256),
                                   rng.standard_normal(256), rng.standard_normal((2, 101)),
                                   [128, 128], Tanh(), ens.signature, grid,
                                   basis=rng.standard_normal((7, 101)) / 101)
        want = net.evaluate_many(ens)
        rows = list(ens)
        monkeypatch.setattr(targets, "_as_float", counted)
        assert net.evaluate_many(rows).tobytes() == want.tobytes()
        assert calls == []
        # a list of Python numbers is still read entry by entry
        net.evaluate_many([rows[0].tolist()])
        assert len(calls) == 101


    def test_widths_need_one_block_per_center(self):
        with pytest.raises(ShapeError, match="widths has 2 blocks, centers have 1 rows"):
            ShallowVectorNetwork(np.ones((2, 3)), np.zeros(2), np.ones(2), np.ones((1, 4)),
                                 [1, 1], Tanh(), ("sequence", 3))

    def test_centers_need_a_column(self):
        with pytest.raises(ShapeError, match="centers need at least one column"):
            ShallowVectorNetwork(np.ones((1, 3)), np.zeros(1), np.ones(1), np.ones((1, 0)),
                                 [1], Tanh(), ("sequence", 3))

    @pytest.mark.parametrize("grid", [{"a": 0.0, "b": 1.0, "n": 4}, 4, (0.0, 1.0, 4)],
                             ids=["mapping", "number", "tuple"])
    def test_output_grid_must_be_a_grid(self, grid):
        with pytest.raises(ConfigError, match="output_grid must be a GridMeta or None") as info:
            dense(np.ones((1, 3)), [0.0], np.ones((1, 4)), Tanh(), ("sequence", 3), grid)
        assert info.value.arg == "output_grid"

def stacked(a, b):
    """The network over a's neuron blocks and then b's (both without a
    basis): it evaluates to a + b."""
    return ShallowVectorNetwork(np.vstack([a.weights, b.weights]),
                                np.concatenate([a.thresholds, b.thresholds]),
                                np.concatenate([a.coefficients, b.coefficients]),
                                np.vstack([a.centers, b.centers]),
                                np.concatenate([a.widths, b.widths]),
                                a.activation, a.input_signature, a.output_grid)


class TestNetworkSum:
    def test_sum_with_empty_is_identity(self):
        rng = np.random.default_rng(1)
        a = random_network(rng)
        empty = ShallowVectorNetwork.zero(Tanh(), a.input_signature, a.output_dim)
        s = rng.standard_normal(6)
        np.testing.assert_array_equal(stacked(a, empty).evaluate_many([s]),
                                      a.evaluate_many([s]))

    def test_self_sum_doubles(self):
        rng = np.random.default_rng(2)
        a = random_network(rng)
        s = rng.standard_normal(6)
        np.testing.assert_allclose(
            stacked(a, a).evaluate_many([s]), 2.0 * a.evaluate_many([s]), rtol=1e-12, atol=1e-12
        )

    def test_additivity_on_random_inputs(self):
        rng = np.random.default_rng(3)
        a = random_network(rng, width=5)
        b = random_network(rng, width=3)
        c = stacked(a, b)
        for _ in range(20):
            s = [rng.standard_normal(6)]
            np.testing.assert_allclose(
                c.evaluate_many(s), a.evaluate_many(s) + b.evaluate_many(s),
                rtol=1e-12, atol=1e-12
            )


class TestInvariants:
    def scaled_coeffs(self, net, lam):
        return ShallowVectorNetwork(net.weights, net.thresholds, lam * net.coefficients,
                                    net.centers, net.widths, net.activation,
                                    net.input_signature, net.output_grid)

    def test_coefficient_scaling_power_of_two_exact(self):
        rng = np.random.default_rng(5)
        net = random_network(rng)
        doubled = self.scaled_coeffs(net, 2.0)
        for _ in range(10):
            s = rng.standard_normal(6)
            np.testing.assert_array_equal(doubled.evaluate_many([s]),
                                          2.0 * net.evaluate_many([s]))

    def test_coefficient_scaling_general(self):
        rng = np.random.default_rng(6)
        net = random_network(rng)
        lam = 0.3
        scaled = self.scaled_coeffs(net, lam)
        for _ in range(10):
            s = rng.standard_normal(6)
            np.testing.assert_allclose(
                scaled.evaluate_many([s]), lam * net.evaluate_many([s]), rtol=1e-12, atol=1e-14
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        net = random_network(rng, width=8)
        perm = rng.permutation(8)
        # every block holds one neuron, so blocks permute with their neurons
        shuffled = ShallowVectorNetwork(
            net.weights[perm],
            net.thresholds[perm],
            net.coefficients[perm],
            net.centers[perm],
            net.widths[perm],
            net.activation,
            net.input_signature,
        )
        for _ in range(10):
            s = rng.standard_normal(6)
            np.testing.assert_allclose(
                shuffled.evaluate_many([s]), net.evaluate_many([s]), rtol=1e-12, atol=1e-12
            )

    def test_polynomial_activation_stays_polynomial_along_rays(self):
        # with a degree-2 activation and one shared pairing, the output along
        # a ray x * s0 is a degree <= 2 polynomial in x
        rng = np.random.default_rng(8)
        grid = GridMeta(0.0, 1.0, 21)
        phi = rng.standard_normal(21)
        L = np.tile(grid.trapezoid_weights() * phi, (4, 1))  # the pairing with phi
        net = dense(
            L, rng.uniform(-1.0, 1.0, 4), rng.standard_normal((4, 3)),
            Polynomial((0.5, -1.0, 2.0)), ("function", grid),
        )
        s0 = rng.standard_normal(21)
        xs = np.linspace(-2.0, 2.0, 9)
        ys = net.evaluate_many([x * s0 for x in xs])[:, 0]
        fit = np.polynomial.Polynomial.fit(xs, ys, deg=2)
        assert np.max(np.abs(fit(xs) - ys)) < 1e-8


def kind_network(kind, rng):
    """A small network on sequences (out dim 5), on 2 x 3 matrices (out dim
    1), or on functions on a 13-node grid with a 17-node output grid."""
    if kind == "sequence":
        return random_network(rng, width=2)
    if kind == "matrix":
        return dense(rng.standard_normal((2, 6)), rng.uniform(-1, 1, 2),
                     rng.standard_normal((2, 1)), Tanh(), ("matrix", (2, 3)))
    in_grid, out_grid = GridMeta(0.0, 1.0, 13), GridMeta(-1.0, 2.0, 17)
    return dense(rng.standard_normal((2, 13)), rng.uniform(-1, 1, 2),
                 rng.standard_normal((2, 17)), Tanh(), ("function", in_grid), out_grid)


class TestSerialization:
    def roundtrip(self, net):
        return deserialize_network(json.loads(json.dumps(serialize_network(net))))

    def test_empty_roundtrip(self):
        net = ShallowVectorNetwork.zero(Tanh(), ("sequence", 3), 4)
        back = self.roundtrip(net)
        assert back.width == 0
        assert back.input_signature == ("sequence", 3)
        assert back.output_dim == 4

    def test_document_holds_packed_matrices(self):
        rng = np.random.default_rng(13)
        net = random_network(rng, width=3)
        doc = serialize_network(net)
        assert doc["weights"] == packed(net.weights)
        assert doc["basis"] is None
        assert doc["thresholds"] == packed(net.thresholds)
        assert doc["coefficients"] == packed(net.coefficients)
        assert doc["centers"] == packed(net.centers)
        assert doc["widths"] == [1, 1, 1]
        assert doc["output_dim"] == 5
        assert "neurons" not in doc

    def test_sequence_roundtrip_bit_identical(self):
        rng = np.random.default_rng(14)
        net = random_network(rng, width=6)
        back = self.roundtrip(net)
        for name in ("weights", "thresholds", "coefficients", "centers", "widths"):
            assert getattr(back, name).tobytes() == getattr(net, name).tobytes()
        s = rng.standard_normal(6)
        np.testing.assert_array_equal(back.evaluate_many([s]), net.evaluate_many([s]))
        assert json.dumps(serialize_network(back)) == json.dumps(serialize_network(net))

    def test_three_neuron_roundtrip_bit_identical(self):
        rng = np.random.default_rng(9)
        grid = GridMeta(-1.0, 2.0, 17)
        in_grid = GridMeta(0.0, 1.0, 13)
        # two trapezoid pairings with random phi, and the zero functional
        phis = [rng.standard_normal(13) for _ in range(2)]
        L = np.vstack([in_grid.trapezoid_weights() * phi for phi in phis] + [np.zeros(13)])
        thetas = np.append(rng.uniform(-1.0, 1.0, 2), 0.25)
        net = dense(L, thetas, rng.standard_normal((3, 17)), Sigmoid(), ("function", in_grid),
                    grid)
        back = self.roundtrip(net)
        assert back.output_grid == grid
        for _ in range(10):
            s = rng.standard_normal(13)
            np.testing.assert_array_equal(back.evaluate_many([s]), net.evaluate_many([s]))

    def test_matrix_and_polynomial_roundtrip(self):
        rng = np.random.default_rng(10)
        net = dense(
            rng.standard_normal((1, 6)), [0.0], rng.standard_normal((1, 4)),
            Polynomial((1.0, 0.5)), ("matrix", (2, 3)),
        )
        back = self.roundtrip(net)
        z = rng.standard_normal(6)
        np.testing.assert_array_equal(back.evaluate_many([z]), net.evaluate_many([z]))
        assert back.activation == net.activation

    def test_unknown_activation_diagnosed(self):
        net = ShallowVectorNetwork.zero(Tanh(), ("sequence", 2), 2)
        doc = serialize_network(net)
        doc["activation"] = "foo"
        with pytest.raises(DocumentError, match="activation"):
            deserialize_network(doc)

    def test_unhashable_activation_name_diagnosed(self):
        # a list is no activation name: a DocumentError, not a TypeError
        doc = serialize_network(ShallowVectorNetwork.zero(Tanh(), ("sequence", 2), 2))
        doc["activation"] = {"name": ["tanh"]}
        with pytest.raises(DocumentError, match="'activation'"):
            deserialize_network(doc)

    def test_missing_field_diagnosed(self):
        net = ShallowVectorNetwork.zero(Tanh(), ("sequence", 2), 2)
        doc = serialize_network(net)
        del doc["input_shape"]
        with pytest.raises(DocumentError, match="input_shape"):
            deserialize_network(doc)

    def test_neuron_list_document_rejected(self):
        # the neuron-list layout networks were saved in before the packed one
        doc = {
            "activation": "tanh",
            "input_shape": {"kind": "sequence", "length": 2},
            "output_grid": None,
            "output_dim": 1,
            "neurons": [{"functional": {"variant": "sequence_dot", "coeffs": [1.0, 2.0]},
                         "theta": 0.0, "coeff": [1.0]}],
        }
        with pytest.raises(DocumentError, match="'weights'"):
            deserialize_network(doc)

    def test_invalid_base64_diagnosed(self):
        doc = serialize_network(random_network(np.random.default_rng(15)))
        doc["thresholds"]["data"] = "not base64!"
        with pytest.raises(DocumentError, match="'thresholds'"):
            deserialize_network(doc)

    @pytest.mark.parametrize("field", ("weights", "thresholds", "coefficients"))
    def test_byte_count_mismatch_diagnosed(self, field):
        doc = serialize_network(random_network(np.random.default_rng(16)))
        doc[field]["shape"][0] += 1
        with pytest.raises(DocumentError, match=f"'{field}'.*bytes"):
            deserialize_network(doc)

    @pytest.mark.parametrize("field", ("weights", "thresholds", "coefficients"))
    def test_row_counts_disagree_diagnosed(self, field):
        rng = np.random.default_rng(17)
        doc = serialize_network(random_network(rng, width=4))
        wider = serialize_network(random_network(rng, width=5))
        doc[field] = wider[field]
        with pytest.raises(DocumentError, match="rows"):
            deserialize_network(doc)

    @pytest.mark.parametrize("shape, refusal", [
        ({"kind": "tensor", "length": 2}, "unknown input kind 'tensor' in field 'input_shape'"),
        (["sequence", 2], "malformed field 'input_shape'"),
        ("sequence", "malformed field 'input_shape'"),
        (None, "malformed field 'input_shape'"),
    ], ids=["unknown_kind", "list", "string", "null"])
    def test_input_shape_of_no_known_kind_rejected(self, shape, refusal):
        doc = serialize_network(ShallowVectorNetwork.zero(Tanh(), ("sequence", 2), 2))
        doc["input_shape"] = shape
        with pytest.raises(DocumentError, match=re.escape(refusal)):
            deserialize_network(doc)

    def test_weights_width_disagrees_with_input_shape(self):
        doc = serialize_network(random_network(np.random.default_rng(18), in_dim=6))
        doc["input_shape"]["length"] = 7
        with pytest.raises(DocumentError, match="weights"):
            deserialize_network(doc)

    def test_inconsistent_shape_diagnosed(self):
        rng = np.random.default_rng(12)
        net = random_network(rng, width=1)
        doc = serialize_network(net)
        doc["centers"] = packed([[1.0, 2.0]])
        with pytest.raises(DocumentError, match="'centers'.*'output_dim'"):
            deserialize_network(doc)

    @pytest.mark.parametrize("field", ("weights", "thresholds", "coefficients"))
    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_entry_rejected(self, field, bad):
        net = random_network(np.random.default_rng(19), width=2)
        values = np.array(getattr(net, field))
        values.flat[-1] = bad
        doc = serialize_network(net)
        doc[field] = packed(values)
        with pytest.raises(DocumentError, match=f"{field} contain non-finite"):
            deserialize_network(doc)

    # each bad size truncates to the document's true size, so only the type
    # check can reject it
    @pytest.mark.parametrize("kind, field, bad", [
        ("sequence", "output_dim", 5.5),
        ("sequence", "output_dim", "5"),
        ("matrix", "output_dim", True),
        ("sequence", "input_shape.length", 6.7),
        ("sequence", "input_shape.length", "6"),
        ("matrix", "input_shape.rows", 2.5),
        ("matrix", "input_shape.cols", 3.0),
        ("function", "output_grid.n", 17.5),
        ("function", "input_shape.grid.n", 13.0),
    ])
    def test_non_integer_size_rejected(self, kind, field, bad):
        doc = serialize_network(kind_network(kind, np.random.default_rng(20)))
        *parents, key = field.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = bad
        with pytest.raises(DocumentError, match=f"'{field}' must be an integer, got"):
            deserialize_network(doc)

    # each bad endpoint converts by float() to a valid grid, so only the type
    # and finiteness checks can reject it
    @pytest.mark.parametrize("field, bad", [
        ("output_grid.a", "-0.5"),
        ("output_grid.b", float("inf")),
        ("input_shape.grid.a", False),
        ("input_shape.grid.b", True),
        ("input_shape.grid.b", "Infinity"),
        pytest.param("output_grid.a", -10**400, id="output_grid.a-beyond_float_range"),
    ])
    def test_non_number_grid_endpoint_rejected(self, field, bad):
        doc = serialize_network(kind_network("function", np.random.default_rng(20)))
        *parents, key = field.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = bad
        with pytest.raises(DocumentError, match=f"'{field}' must be a finite number, got"):
            deserialize_network(json.loads(json.dumps(doc)))


    @pytest.mark.parametrize("doc", [[], "network", None], ids=["list", "string", "null"])
    def test_document_not_a_mapping_rejected(self, doc):
        with pytest.raises(DocumentError, match="network document must be a mapping"):
            deserialize_network(doc)

    @pytest.mark.parametrize("shape", [[2, 6.0], [-2, -6], [True, 6], "2x6", {"rows": 2}],
                             ids=["float", "negative", "bool", "string", "mapping"])
    def test_array_shape_not_a_list_of_sizes_rejected(self, shape):
        doc = serialize_network(random_network(np.random.default_rng(21), width=2))
        doc["weights"]["shape"] = shape
        with pytest.raises(DocumentError, match="'weights' has shape .* not a list of sizes"):
            deserialize_network(doc)

    # a grid is read as GridMeta's fields by name: a grid that is not a
    # mapping, or one missing a field or holding another, names the grid
    @pytest.mark.parametrize("field", ["output_grid", "input_shape.grid"])
    @pytest.mark.parametrize("change", [
        lambda grid: [grid["a"], grid["b"], grid["n"]],
        lambda grid: 13,
        lambda grid: {k: v for k, v in grid.items() if k != "n"},
        lambda grid: {**grid, "spacing": 0.25},
        lambda grid: {**grid, 1: 0.25},
    ], ids=["list", "number", "missing_n", "unknown_key", "non_string_key"])
    def test_malformed_grid_names_its_field(self, field, change):
        doc = serialize_network(kind_network("function", np.random.default_rng(20)))
        *parents, key = field.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = change(node[key])
        with pytest.raises(DocumentError, match=f"field '{field}': "):
            deserialize_network(doc)

def dense_formula(net, flats):
    """eta(S L^T - theta) V for a factored network, with L = P B and row k of
    V equal to c_k times the center of k's block, in one pass."""
    L = net.weights if net.basis is None else net.weights @ net.basis
    V = net.coefficients[:, None] * np.repeat(net.centers, net.widths, axis=0)
    return net.activation(flats @ L.T - net.thresholds) @ V


@pytest.fixture(scope="module")
def pipeline_networks():
    """One pipeline-built network per input kind, with its held-out inputs."""
    import shallowop as so

    networks = {}
    for kind, preset in (("function", "integral_gaussian"), ("sequence", "sequence_decay"),
                         ("matrix", "matrix_sin_trace")):
        raw = so.preset_dict(preset)
        raw["ensemble"]["count"] = 40
        raw["epsilons"] = [0.2]
        raw["save_networks"] = True
        config = so.ExperimentConfig.from_dict(raw)
        run = so.run_experiment(config).runs[0]
        batch = sample_ensemble(config.ensemble, 99)
        networks[kind] = (deserialize_network(run.network_doc), run, batch)
    return networks


class TestFactored:
    KINDS = ("function", "sequence", "matrix")

    @pytest.mark.parametrize("kind", KINDS)
    def test_pipeline_network_round_trips_bit_identically(self, kind, pipeline_networks):
        net, run, batch = pipeline_networks[kind]
        assert (net.basis is None) == (kind != "function")
        assert net.widths.tolist() == list(run.coefficient_widths)
        text = json.dumps(serialize_network(net))
        assert text == json.dumps(run.network_doc)
        back = deserialize_network(json.loads(text))
        for name in ("weights", "thresholds", "coefficients", "centers", "widths"):
            assert getattr(back, name).tobytes() == getattr(net, name).tobytes()
        if net.basis is not None:
            assert back.basis.tobytes() == net.basis.tobytes()
        assert back.evaluate_many(batch).tobytes() == net.evaluate_many(batch).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_pipeline_network_matches_the_dense_formula(self, kind, pipeline_networks):
        net, _, batch = pipeline_networks[kind]
        want = dense_formula(net, batch.flats)
        got = net.evaluate_many(batch)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_blocks_of_several_neurons_match_the_dense_formula(self):
        rng = np.random.default_rng(21)
        in_grid, out_grid = GridMeta(0.0, 1.0, 13), GridMeta(0.0, 2.0, 9)
        net = ShallowVectorNetwork(rng.standard_normal((10, 3)), rng.uniform(-1, 1, 10),
                                   rng.standard_normal(10), rng.standard_normal((3, 9)),
                                   [4, 1, 5], Sigmoid(), ("function", in_grid), out_grid,
                                   basis=rng.standard_normal((3, 13)))
        flats = rng.standard_normal((30, 13))
        pts = list(flats)
        want = dense_formula(net, flats)
        assert np.max(np.abs(net.evaluate_many(pts) - want)) <= 1e-11 * np.max(np.abs(want))

    def test_zero_network_matches_the_dense_formula(self):
        # no blocks: the segment sums are an (n, 0) matrix
        net = ShallowVectorNetwork.zero(Tanh(), ("matrix", (2, 3)), 4)
        assert net.centers.shape == (0, 4) and net.widths.shape == (0,)
        flats = np.random.default_rng(22).standard_normal((5, 6))
        got = net.evaluate_many(list(flats))
        np.testing.assert_array_equal(got, dense_formula(net, flats))
        np.testing.assert_array_equal(got, np.zeros((5, 4)))

    @pytest.mark.parametrize("with_basis", (False, True), ids=("no_basis", "basis"))
    def test_mixed_widths_match_the_dense_formula(self, with_basis):
        # blocks of 1, 3, 128 and 300 neurons: one-neuron panels scaled
        # elementwise, and panels of one block each
        net, flats = mixed_width_network(np.random.default_rng(27), with_basis)
        got = net.evaluate_many(list(flats))
        want = dense_formula(net, flats)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_panels_are_views_of_the_weights_and_coefficients(self):
        # [P^T; -theta] is built once, column-major as each panel's A was
        # when built alone; each A is a view of its columns, and each C a
        # view of c: one column per block of several neurons, the diagonal
        # of a run of one-neuron blocks
        net, _ = mixed_width_network(np.random.default_rng(30), False)
        bounds = np.concatenate([[0], np.cumsum(net.widths)])
        assert [C.shape for _, C, _ in net._panels] == [
            (1,), (3, 1), (128, 1), (1,), (300, 1), (3, 1), (1,)]
        for A, C, centers in net._panels:
            neurons = slice(bounds[centers.start], bounds[centers.stop])
            assert A.base is net._panels[0][0].base and A.flags.f_contiguous
            alone = np.vstack([net.weights[neurons].T, -net.thresholds[neurons]])
            assert A.tobytes(order="A") == alone.tobytes(order="A")
            assert np.shares_memory(C, net.coefficients)
            assert C.tobytes() == net.coefficients[neurons].tobytes()

    def test_runs_of_one_neuron_blocks_are_one_panel(self):
        rng = np.random.default_rng(32)
        widths = [1, 1, 2, 1, 1, 1, 5]
        net = ShallowVectorNetwork(rng.standard_normal((12, 3)), rng.uniform(-1, 1, 12),
                                   rng.standard_normal(12), rng.standard_normal((7, 2)),
                                   widths, Tanh(), ("sequence", 3))
        assert [(centers.start, centers.stop, C.shape) for _, C, centers in net._panels] == [
            (0, 2, (2,)), (2, 3, (2, 1)), (3, 6, (3,)), (6, 7, (5, 1))]

    def test_overflow_stays_in_its_own_block(self):
        # Relu on two 2-neuron blocks: the first neuron's weight 1e308 sends
        # its activation to inf; each block is its own panel, so no inf meets
        # a zero coefficient and, with U positive, every output is inf
        net = ShallowVectorNetwork([[1e308, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                   np.zeros(4), np.ones(4), [[1.0, 2.0], [3.0, 4.0]], [2, 2],
                                   Relu(), ("sequence", 2))
        with np.errstate(all="ignore"):
            got = net.evaluate_many(np.array([[2.0, 1.0]]))
        np.testing.assert_array_equal(got, [[np.inf, np.inf]])

    def test_spy_activation_gets_at_most_block_bytes(self):
        # 700 inputs: row blocks of 109 rows, for the 300-neuron panel product
        net, flats = mixed_width_network(np.random.default_rng(28), False, count=700)
        sizes = []

        class Spy(Activation):
            name = "spy"

            def __call__(self, x):
                sizes.append(x.nbytes)
                return np.tanh(x)

        spied = ShallowVectorNetwork(net.weights, net.thresholds, net.coefficients,
                                     net.centers, net.widths, Spy(), net.input_signature)
        spied.evaluate_many(list(flats))
        assert sizes and max(sizes) <= targets.BLOCK_BYTES
        assert sum(sizes) == 8 * 700 * net.width

    @pytest.mark.parametrize("bad, match", [
        (("sequence", 3.0), "sequence length must be an integer"),
        (("sequence", 0), "sequence length must be at least 1"),
        (("matrix", [1.0, 3]), "matrix shape entry must be an integer"),
        (("matrix", (1, 2, 3)), r"must be a \(rows, cols\) pair"),
        (("vector", 3), "input signature is unknown"),
        (["sequence", 3], "input signature is unknown"),
        (("function", 13), "function signature needs a GridMeta"),
    ])
    def test_bad_input_signature_refused_by_name(self, bad, match):
        with pytest.raises(ConfigError, match=match) as info:
            ShallowVectorNetwork(np.ones((1, 3)), [0.0], [1.0], np.ones((1, 2)), [1], Tanh(),
                                 bad)
        assert info.value.arg == "input_signature"

    @pytest.mark.parametrize("given, held", [
        (("sequence", np.int64(3)), ("sequence", 3)),
        (("matrix", [1, 3]), ("matrix", (1, 3))),
    ])
    def test_input_signature_held_as_ints_and_a_tuple(self, given, held):
        # the network evaluates a batch of its inputs and round-trips its document
        rng = np.random.default_rng(29)
        net = ShallowVectorNetwork(rng.standard_normal((2, 3)), [0.1, -0.2], [1.0, 2.0],
                                   rng.standard_normal((1, 2)), [2], Tanh(), given)
        assert net.input_signature == held
        size = net.input_signature[1]
        assert all(type(n) is int for n in (size if isinstance(size, tuple) else (size,)))
        pts = list(rng.standard_normal((4, 3)))
        back = deserialize_network(json.loads(json.dumps(serialize_network(net))))
        assert back.input_signature == held
        assert back.evaluate_many(pts).tobytes() == net.evaluate_many(pts).tobytes()

    def test_basis_shape_checked(self):
        args = (np.ones((2, 3)), np.zeros(2), np.ones(2), np.ones((1, 4)), [2], Tanh(),
                ("sequence", 5))
        with pytest.raises(ShapeError, match="basis has 2 rows"):
            ShallowVectorNetwork(*args, basis=np.ones((2, 5)))
        with pytest.raises(ShapeError, match="basis has 4 columns"):
            ShallowVectorNetwork(*args, basis=np.ones((3, 4)))
        assert ShallowVectorNetwork(*args, basis=np.ones((3, 5))).width == 2

    @pytest.mark.parametrize("bad", [
        [0, 4], [-1, 5], [2, 1], [2, 3], [4, 0],
        [2.0, 2], [2, True], "4", [[2, 2]], [2, 10**400],
    ], ids=["zero", "negative", "short", "long", "zero_last",
            "float", "bool", "string", "nested", "beyond_int64"])
    def test_bad_widths_rejected_by_name(self, bad):
        net = stacked(random_network(np.random.default_rng(23), width=2),
                      random_network(np.random.default_rng(24), width=2))
        doc = serialize_network(net)
        doc["widths"] = bad
        with pytest.raises(DocumentError, match="widths"):
            deserialize_network(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("bad, match", [
        ([1, True], "widths must be an integer, got True"),
        ((1, 1.0), "widths must be an integer, got 1.0"),
        ([2, 0], "widths must be at least 1, got 0"),
        ([1, 10**400], "widths must be at most"),
        (np.array([1.0, 1.0]), "widths must be a 1-d integer array"),
        (np.array([[1, 1]]), "widths must be a 1-d integer array"),
    ], ids=["bool", "float", "zero", "beyond_int64", "float_array", "2d_array"])
    def test_bad_widths_refused_by_name_when_built(self, bad, match):
        # a list or tuple is read entry by entry; [1, True] was read as [1, 1]
        with pytest.raises(ValueError, match=match):
            ShallowVectorNetwork(np.ones((2, 3)), [0.1, -0.2], [1.0, 2.0], np.ones((2, 2)),
                                 bad, Tanh(), ("sequence", 3))

    @pytest.mark.parametrize("widths", [[1, 1], (1, 1), [np.int64(1), np.uint8(1)],
                                        np.array([1, 1], dtype=np.int32)],
                             ids=["list", "tuple", "numpy_ints", "int_array"])
    def test_widths_held_as_a_readonly_int64_vector(self, widths):
        net = ShallowVectorNetwork(np.ones((2, 3)), [0.1, -0.2], [1.0, 2.0], np.ones((2, 2)),
                                   widths, Tanh(), ("sequence", 3))
        assert net.widths.dtype == np.int64 and net.widths.tolist() == [1, 1]
        assert not net.widths.flags.writeable

    def test_activation_option_it_does_not_take_rejected_by_name(self):
        doc = serialize_network(random_network(np.random.default_rng(27)))
        doc["activation"] = {"name": "tanh", "scale": 2}
        with pytest.raises(DocumentError, match="field 'activation.scale' is not an option "
                                                "of the tanh activation"):
            deserialize_network(doc)

    def test_dense_document_of_0_11_rejected_by_name(self):
        # 0.11.0 stored dense L and V and no basis, centers or widths
        rng = np.random.default_rng(25)
        doc = {
            "activation": "tanh",
            "input_shape": {"kind": "sequence", "length": 3},
            "output_grid": None,
            "output_dim": 2,
            "weights": packed(rng.standard_normal((4, 3))),
            "thresholds": packed(rng.standard_normal(4)),
            "coefficients": packed(rng.standard_normal((4, 2))),
        }
        with pytest.raises(DocumentError, match="missing field 'basis'"):
            deserialize_network(doc)

    @pytest.mark.parametrize("coefficients", [["x"], 5, [10**400], [], [True], "1"],
                             ids=["string_entry", "number", "beyond_float_range", "empty",
                                  "bool", "string"])
    def test_bad_polynomial_coefficients_rejected_by_name(self, coefficients):
        doc = serialize_network(random_network(np.random.default_rng(26),
                                               activation=Polynomial((0.0, 1.0))))
        doc["activation"]["coefficients"] = coefficients
        with pytest.raises(DocumentError, match="'activation.coefficients'"):
            deserialize_network(doc)


def mixed_width_network(rng, with_basis, count=40):
    """A network on sequences of length 9 whose blocks hold 1, 3, 128, 1,
    300, 3 and 1 neurons (with a 4-row basis or none), and count inputs."""
    widths = [1, 3, 128, 1, 300, 3, 1]
    width, r = sum(widths), 4 if with_basis else 9
    net = ShallowVectorNetwork(rng.standard_normal((width, r)), rng.uniform(-1, 1, width),
                               rng.standard_normal(width), rng.standard_normal((len(widths), 5)),
                               widths, Tanh(), ("sequence", 9),
                               basis=rng.standard_normal((4, 9)) if with_basis else None)
    return net, rng.standard_normal((count, 9))


def many_block_network(kind, rng, monkeypatch, count=300, width=2048, block=16):
    """A random factored network of width neurons in blocks of block
    neurons, each a panel, with a basis for functions, and count inputs
    from the ensemble of its kind.  targets.BLOCK_BYTES is sized for row
    blocks of 16 inputs, 19 of them for 300 inputs, as long as there are
    at most 128 blocks and none is wider than 128 neurons."""
    monkeypatch.setattr(targets, "BLOCK_BYTES", 8 * 128 * 16)
    spec = {
        "function": EnsembleSpec("band_limited", count, radii=(1.0, 0.5),
                                 grid=GridMeta(0.0, 1.0, 13)),
        "sequence": EnsembleSpec("sequence_box", count, radii=(1.0, 0.5, 0.25)),
        "matrix": EnsembleSpec("matrix_ball", count, shape=(2, 3), radius=1.5),
    }[kind]
    ens = sample_ensemble(spec, 31)
    dim = ens.flats.shape[1]
    basis = rng.standard_normal((5, dim)) if kind == "function" else None
    r = dim if basis is None else 5
    net = ShallowVectorNetwork(rng.standard_normal((width, r)), rng.uniform(-1, 1, width),
                               rng.standard_normal(width),
                               rng.standard_normal((width // block, 4)),
                               np.full(width // block, block), Tanh(), ens.signature,
                               basis=basis)
    return net, ens


def use_cpus(monkeypatch, cpus):
    """Evaluate as if on cpus CPUs."""
    monkeypatch.setattr(network, "_cpu_count", lambda: cpus)


class Boom(Exception):
    pass


class RaisesOnLarge(Activation):
    """tanh, except that an input beyond 1e100 raises Boom."""

    name = "raises_on_large"

    def __call__(self, x):
        if np.any(x > 1e100):
            raise Boom("large pre-activation")
        return np.tanh(x)


@pytest.fixture
def blas_at_two():
    """OpenBLAS's thread count getter, with the count set to 2 for the test
    and restored after it; None without the library."""
    library = network._openblas()
    if library is None:
        yield None
        return
    _, get_threads, set_threads = library
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


def count_threads(monkeypatch):
    """The list that each thread network starts from now on is appended to."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(network.threading, "Thread", Counted)
    return started


class TestInShares:
    """_in_shares runs one contiguous share of its items per CPU, at most one
    per item, with OpenBLAS held at one thread."""

    @pytest.mark.parametrize("cpus", (1, 2, 3))
    @pytest.mark.parametrize("count", (1, 2, 4, 5))
    def test_threads_started_are_one_fewer_than_the_shares(self, cpus, count, monkeypatch):
        use_cpus(monkeypatch, cpus)
        started, shares = count_threads(monkeypatch), []
        network._in_shares(shares.append, list(range(count)))
        assert len(started) == min(cpus, count) - 1
        assert len(shares) == min(cpus, count)
        # contiguous shares that take every item once, in sizes one apart at most
        assert [item for share in sorted(shares) for item in share] == list(range(count))
        assert max(map(len, shares)) - min(map(len, shares)) <= 1

    @pytest.mark.parametrize("cpus", (1, 2))
    def test_no_items_run_nothing(self, cpus, monkeypatch):
        use_cpus(monkeypatch, cpus)
        started, shares = count_threads(monkeypatch), []
        network._in_shares(shares.append, [])
        assert shares == [] and started == []

    @pytest.mark.parametrize("cpus", (1, 2, 3))
    def test_shares_run_at_one_blas_thread(self, cpus, monkeypatch, blas_at_two):
        if blas_at_two is None:
            pytest.skip("numpy ships no scipy-openblas library")
        use_cpus(monkeypatch, cpus)
        seen = []
        network._in_shares(lambda share: seen.append(blas_at_two()), list(range(3)))
        # every share at one thread, the count restored after
        assert seen == [1] * cpus
        assert blas_at_two() == 2 and network._holds[0] == 0


class TestThreads:
    """evaluate_many splits its row blocks over the CPUs: the caller's thread
    evaluates the first share, a started thread each of the others."""

    @pytest.mark.parametrize("with_basis", (False, True), ids=("no_basis", "basis"))
    def test_mixed_width_outputs_do_not_depend_on_the_worker_count(self, with_basis,
                                                                   monkeypatch):
        # the widest panel holds 300 neurons: row blocks of 8 inputs, 38 of them
        monkeypatch.setattr(targets, "BLOCK_BYTES", 8 * 300 * 8)
        net, flats = mixed_width_network(np.random.default_rng(45), with_basis, count=300)
        assert len(targets._row_blocks(len(flats), 300)) >= 3
        pts = list(flats)
        outputs = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            outputs.append(net.evaluate_many(pts).tobytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("kind", ("function", "sequence", "matrix"))
    def test_outputs_do_not_depend_on_the_worker_count(self, kind, monkeypatch):
        net, ens = many_block_network(kind, np.random.default_rng(41), monkeypatch)
        assert len(targets._row_blocks(len(ens), 128)) >= 3
        outputs = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            outputs.append(net.evaluate_many(ens).tobytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("cpus, blocks, threads", [
        (1, 19, 0), (2, 19, 1), (3, 19, 2), (4, 3, 2), (3, 1, 0),
    ])
    def test_threads_started_are_one_fewer_than_the_shares(self, cpus, blocks, threads,
                                                           monkeypatch):
        # one block of 128 neurons: a panel product per row block
        net, ens = many_block_network("sequence", np.random.default_rng(42), monkeypatch,
                                      count=800, width=128, block=128)
        ens = ens[:16 * blocks - 8]
        use_cpus(monkeypatch, cpus)
        started = count_threads(monkeypatch)
        assert net.evaluate_many(ens).shape == (16 * blocks - 8, 4)
        assert len(started) == threads

    @pytest.mark.parametrize("cpus", (2, 3))
    @pytest.mark.parametrize("block", (1, 16))
    @pytest.mark.parametrize("length", (3, 40))
    def test_every_network_threads_at_one_blas_thread(self, cpus, block, length,
                                                      monkeypatch, blas_at_two):
        # 128 neurons in blocks of block neurons on 5120 inputs: one panel of
        # one-neuron blocks on row blocks of 256 inputs, or 8 panels of 16 on
        # row blocks of 2048; at length 40 a 256-row block's panel product
        # is 41 * 2^15 multiply-adds, beyond OpenBLAS's threading size; the
        # thread count is checked where numpy ships the library
        use_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(46)
        shapes, threads, get_threads = [], [], blas_at_two or (lambda: 1)

        class Spy(Activation):
            name = "spy"

            def __call__(self, x):
                shapes.append(x.shape)
                threads.append(get_threads())
                return np.tanh(x)

        net = ShallowVectorNetwork(rng.standard_normal((128, length)), rng.uniform(-1, 1, 128),
                                   rng.standard_normal(128),
                                   rng.standard_normal((128 // block, 2)),
                                   np.full(128 // block, block), Spy(), ("sequence", length))
        flats = rng.standard_normal((20 * 256, length)) / np.sqrt(length)
        started = count_threads(monkeypatch)
        got = net.evaluate_many(list(flats))
        assert len(started) == cpus - 1
        assert threads == [1] * len(shapes)
        assert blas_at_two is None or get_threads() == 2
        assert sum(rows * width for rows, width in shapes) == 20 * 256 * 128
        want = dense_formula(net, flats)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("cpus", (1, 2, 3))
    @pytest.mark.parametrize("raises", (False, True), ids=("returns", "raises"))
    def test_blas_thread_count_held_and_restored(self, cpus, raises, monkeypatch, blas_at_two):
        # 8 neurons: blocks of 4 rows, 5 of them; with raises, the last
        # block's activation raises Boom
        monkeypatch.setattr(targets, "BLOCK_BYTES", 8 * 8 * 4)
        assert len(targets._row_blocks(20, 8)) >= 3
        if blas_at_two is None:
            pytest.skip("numpy ships no scipy-openblas library")
        use_cpus(monkeypatch, cpus)
        get_threads, seen = blas_at_two, []

        class Watching(RaisesOnLarge):
            def __call__(self, x):
                seen.append((threading.current_thread(), get_threads()))
                return super().__call__(x)

        rng = np.random.default_rng(49)
        net = dense(np.abs(rng.standard_normal((8, 3))) + 0.5, np.zeros(8),
                    rng.standard_normal((8, 2)), Watching(), ("sequence", 3))
        flats = rng.uniform(-1.0, 1.0, (20, 3))
        if raises:
            flats[-1] = 1e200
            with pytest.raises(Boom):
                net.evaluate_many(flats)
        else:
            assert net.evaluate_many(flats).shape == (20, 2)
        # every call of every share at one thread, restored after
        assert len(seen) == 5 and len({thread for thread, _ in seen}) == cpus
        assert [threads for _, threads in seen] == [1] * 5
        assert get_threads() == 2 and network._holds[0] == 0

    def test_one_neuron_blocks_are_one_panel_scaled_elementwise(self):
        # 600 one-neuron blocks, a dense network: one panel of 600 neurons,
        # and row blocks of 54 inputs keep the (rows, 600) sums within
        # targets.BLOCK_BYTES
        rng = np.random.default_rng(48)
        shapes = []

        class Spy(Activation):
            name = "spy"

            def __call__(self, x):
                shapes.append(x.shape)
                return np.tanh(x)

        net = ShallowVectorNetwork(rng.standard_normal((600, 3)), rng.uniform(-1, 1, 600),
                                   rng.standard_normal(600), rng.standard_normal((600, 2)),
                                   np.ones(600, dtype=int), Spy(), ("sequence", 3))
        flats = rng.standard_normal((200, 3))
        got = net.evaluate_many(list(flats))
        assert sorted(shapes) == [(38, 600)] + [(54, 600)] * 3
        assert 8 * 54 * 600 <= targets.BLOCK_BYTES
        want = dense_formula(net, flats)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_wide_inputs_bound_the_row_blocks(self):
        # 8 neurons on 4096-entry inputs with no basis: the (rows, 4097)
        # augmented inputs, not the 8 activations, set row blocks of 7 inputs;
        # shares on several CPUs call the activation in any order
        rng = np.random.default_rng(50)
        shapes = []

        class Spy(Activation):
            name = "spy"

            def __call__(self, x):
                shapes.append(x.shape)
                return np.tanh(x)

        net = dense(rng.standard_normal((8, 4096)) / 64, rng.uniform(-1, 1, 8),
                    rng.standard_normal((8, 2)), Spy(), ("sequence", 4096))
        flats = rng.standard_normal((20, 4096))
        got = net.evaluate_many(flats)
        assert sorted(shapes) == [(6, 8)] + [(7, 8)] * 2
        assert 8 * 7 * 4097 <= targets.BLOCK_BYTES
        want = dense_formula(net, flats)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("cpus", (1, 2, 3))
    def test_error_state_holds_in_every_worker(self, cpus, monkeypatch):
        # 8 neurons: blocks of 4 rows; only the last of the 5 blocks overflows
        monkeypatch.setattr(targets, "BLOCK_BYTES", 8 * 8 * 4)
        assert len(targets._row_blocks(20, 8)) >= 3
        use_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(43)
        net = dense(np.abs(rng.standard_normal((8, 3))) + 0.5, np.zeros(8),
                    rng.standard_normal((8, 2)), Polynomial((0.0, 0.0, 1.0)), ("sequence", 3))
        flats = rng.uniform(-1.0, 1.0, (20, 3))
        flats[-1] = 1e200
        pts = list(flats)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                net.evaluate_many(pts)
            assert np.all(np.isfinite(net.evaluate_many(pts[:16])))
        with np.errstate(all="ignore"):
            assert not np.all(np.isfinite(net.evaluate_many(pts)))

    @pytest.mark.parametrize("cpus", (1, 2, 3))
    @pytest.mark.parametrize("row", (0, 9, 19), ids=("first", "middle", "last"))
    def test_a_worker_failure_is_raised_after_every_thread_ends(self, cpus, row,
                                                                monkeypatch):
        monkeypatch.setattr(targets, "BLOCK_BYTES", 8 * 8 * 4)
        assert len(targets._row_blocks(20, 8)) >= 3
        use_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(44)
        net = dense(np.abs(rng.standard_normal((8, 3))) + 0.5, np.zeros(8),
                    rng.standard_normal((8, 2)), RaisesOnLarge(), ("sequence", 3))
        flats = rng.uniform(-1.0, 1.0, (20, 3))
        flats[row] = 1e200
        before = threading.active_count()
        with pytest.raises(Boom, match="large pre-activation"):
            net.evaluate_many(list(flats))
        assert threading.active_count() == before
