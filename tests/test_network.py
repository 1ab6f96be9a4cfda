import base64
import json

import numpy as np
import pytest

from shallowop.errors import DocumentError, ShapeError
from shallowop.inputs import (
    FunctionSample,
    MatrixPoint,
    SequencePoint,
)
from shallowop.network import (
    EVAL_BLOCK_ROWS,
    Gaussian,
    Polynomial,
    Relu,
    ShallowVectorNetwork,
    Sigmoid,
    Tanh,
    deserialize_network,
    make_activation,
    network_sum,
    serialize_network,
)
from shallowop.targets import GridMeta

TANH_1 = 0.7615941559557649
EXP_NEG_1 = 0.36787944117144233


def random_network(rng, width=4, in_dim=6, out_dim=5, activation=Tanh()):
    return ShallowVectorNetwork(
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
        with pytest.raises(DocumentError):
            make_activation("foo")
        with pytest.raises(DocumentError):
            make_activation({"name": "tanh", "coefficients": [1.0]})

    def test_negative_control_flag(self):
        assert Polynomial().negative_control
        assert not Tanh().negative_control
        assert Polynomial().degree == 2


class TestEvaluate:
    def test_empty_network_is_zero(self):
        net = ShallowVectorNetwork.zero(Tanh(), ("sequence", 3), 4)
        assert net.width == 0
        out = net(SequencePoint([1.0, -2.0, 5.0]))
        np.testing.assert_array_equal(out.values, np.zeros(4))
        batch = net.evaluate_many([SequencePoint([1.0, -2.0, 5.0])] * 2)
        np.testing.assert_array_equal(batch, np.zeros((2, 4)))

    def test_single_relu_trace_neuron(self):
        # the one weight row is the Frobenius pairing with the identity
        net = ShallowVectorNetwork(np.eye(2).reshape(1, 4), [0.0], [[1.0, 0.0]], Relu(),
                                   ("matrix", (2, 2)))
        out = net(MatrixPoint(np.eye(2)))
        np.testing.assert_array_equal(out.values, [2.0, 0.0])

    def test_constant_via_zero_functional(self):
        grid = GridMeta(0.0, 1.0, 11)
        net = ShallowVectorNetwork(np.zeros((1, 2)), [-1.0], np.ones((1, 11)), Tanh(),
                                   ("sequence", 2), grid)
        out = net(SequencePoint([3.0, -7.0]))
        np.testing.assert_allclose(out.values, TANH_1, rtol=1e-15)
        assert out.grid == grid

    def test_call_is_the_one_row_batch(self):
        rng = np.random.default_rng(2)
        grid = GridMeta(0.0, 1.0, 5)
        net = ShallowVectorNetwork(rng.standard_normal((7, 6)), rng.uniform(-1.0, 1.0, 7),
                                   rng.standard_normal((7, 5)), Tanh(), ("sequence", 6), grid)
        for _ in range(5):
            s = SequencePoint(rng.standard_normal(6))
            out = net(s)
            assert out.grid == grid
            assert out.values.tobytes() == net.evaluate_many([s])[0].tobytes()

    def test_input_signature_checked(self):
        net = ShallowVectorNetwork.zero(Tanh(), ("sequence", 3), 4)
        with pytest.raises(ShapeError):
            net(SequencePoint([1.0, 2.0]))

    def test_neuron_shape_mismatches_rejected(self):
        L, theta, V = np.ones((1, 3)), np.zeros(1), np.ones((1, 4))
        with pytest.raises(ShapeError, match="weights"):
            ShallowVectorNetwork(L, theta, V, Tanh(), ("sequence", 5))
        with pytest.raises(ShapeError, match="output grid"):
            ShallowVectorNetwork(L, theta, V, Tanh(), ("sequence", 3), GridMeta(0.0, 1.0, 6))
        with pytest.raises(ShapeError, match="rows"):
            ShallowVectorNetwork(L, np.zeros(2), V, Tanh(), ("sequence", 3))
        with pytest.raises(ShapeError, match="thresholds"):
            ShallowVectorNetwork(L, np.zeros((1, 1)), V, Tanh(), ("sequence", 3))
        with pytest.raises(ValueError, match="thresholds"):
            ShallowVectorNetwork(L, [np.inf], V, Tanh(), ("sequence", 3))

    def test_matrices_are_read_only_copies(self):
        L, theta, V = np.ones((2, 3)), np.zeros(2), np.ones((2, 4))
        net = ShallowVectorNetwork(L, theta, V, Tanh(), ("sequence", 3))
        L[0, 0] = 5.0
        assert net.weights[0, 0] == 1.0
        with pytest.raises(ValueError):
            net.coefficients[0, 0] = 2.0

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(0)
        net = random_network(rng)
        pts = [SequencePoint(rng.standard_normal(6)) for _ in range(9)]
        batch = net.evaluate_many(pts)
        single = np.stack([net(p).values for p in pts])
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-14)


    def test_batch_longer_than_a_block_matches_pointwise(self):
        rng = np.random.default_rng(1)
        net = random_network(rng, width=7)
        pts = [SequencePoint(rng.standard_normal(6)) for _ in range(2 * EVAL_BLOCK_ROWS + 37)]
        batch = net.evaluate_many(pts)
        single = np.stack([net(p).values for p in pts])
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-14)


class TestNetworkSum:
    def test_sum_with_empty_is_identity(self):
        rng = np.random.default_rng(1)
        a = random_network(rng)
        empty = ShallowVectorNetwork.zero(Tanh(), a.input_signature, a.output_dim)
        s = SequencePoint(rng.standard_normal(6))
        np.testing.assert_array_equal(network_sum(a, empty)(s).values, a(s).values)

    def test_self_sum_doubles(self):
        rng = np.random.default_rng(2)
        a = random_network(rng)
        s = SequencePoint(rng.standard_normal(6))
        np.testing.assert_allclose(
            network_sum(a, a)(s).values, 2.0 * a(s).values, rtol=1e-12, atol=1e-12
        )

    def test_additivity_on_random_inputs(self):
        rng = np.random.default_rng(3)
        a = random_network(rng, width=5)
        b = random_network(rng, width=3)
        c = network_sum(a, b)
        for _ in range(20):
            s = SequencePoint(rng.standard_normal(6))
            np.testing.assert_allclose(
                c(s).values, a(s).values + b(s).values, rtol=1e-12, atol=1e-12
            )

    def test_mismatches_rejected(self):
        rng = np.random.default_rng(4)
        a = random_network(rng)
        with pytest.raises(ShapeError):
            network_sum(a, random_network(rng, activation=Relu()))
        with pytest.raises(ShapeError):
            network_sum(a, random_network(rng, out_dim=7))


class TestInvariants:
    def scaled_coeffs(self, net, lam):
        return ShallowVectorNetwork(net.weights, net.thresholds, lam * net.coefficients,
                                    net.activation, net.input_signature, net.output_grid)

    def test_coefficient_scaling_power_of_two_exact(self):
        rng = np.random.default_rng(5)
        net = random_network(rng)
        doubled = self.scaled_coeffs(net, 2.0)
        for _ in range(10):
            s = SequencePoint(rng.standard_normal(6))
            np.testing.assert_array_equal(doubled(s).values, 2.0 * net(s).values)

    def test_coefficient_scaling_general(self):
        rng = np.random.default_rng(6)
        net = random_network(rng)
        lam = 0.3
        scaled = self.scaled_coeffs(net, lam)
        for _ in range(10):
            s = SequencePoint(rng.standard_normal(6))
            np.testing.assert_allclose(
                scaled(s).values, lam * net(s).values, rtol=1e-12, atol=1e-14
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        net = random_network(rng, width=8)
        perm = rng.permutation(8)
        shuffled = ShallowVectorNetwork(
            net.weights[perm],
            net.thresholds[perm],
            net.coefficients[perm],
            net.activation,
            net.input_signature,
        )
        for _ in range(10):
            s = SequencePoint(rng.standard_normal(6))
            np.testing.assert_allclose(
                shuffled(s).values, net(s).values, rtol=1e-12, atol=1e-12
            )

    def test_polynomial_activation_stays_polynomial_along_rays(self):
        # with a degree-2 activation and one shared pairing, the output along
        # a ray x * s0 is a degree <= 2 polynomial in x
        rng = np.random.default_rng(8)
        grid = GridMeta(0.0, 1.0, 21)
        phi = rng.standard_normal(21)
        L = np.tile(grid.trapezoid_weights() * phi, (4, 1))  # the pairing with phi
        net = ShallowVectorNetwork(
            L, rng.uniform(-1.0, 1.0, 4), rng.standard_normal((4, 3)),
            Polynomial((0.5, -1.0, 2.0)), ("function", grid),
        )
        s0 = rng.standard_normal(21)
        xs = np.linspace(-2.0, 2.0, 9)
        ys = np.array([net(FunctionSample(x * s0, grid)).values[0] for x in xs])
        fit = np.polynomial.Polynomial.fit(xs, ys, deg=2)
        assert np.max(np.abs(fit(xs) - ys)) < 1e-8


def kind_network(kind, rng):
    """A small network on sequences (out dim 5), on 2 x 3 matrices (out dim
    1), or on functions on a 13-node grid with a 17-node output grid."""
    if kind == "sequence":
        return random_network(rng, width=2)
    if kind == "matrix":
        return ShallowVectorNetwork(rng.standard_normal((2, 6)), rng.uniform(-1, 1, 2),
                                    rng.standard_normal((2, 1)), Tanh(), ("matrix", (2, 3)))
    in_grid, out_grid = GridMeta(0.0, 1.0, 13), GridMeta(-1.0, 2.0, 17)
    return ShallowVectorNetwork(rng.standard_normal((2, 13)), rng.uniform(-1, 1, 2),
                                rng.standard_normal((2, 17)), Tanh(), ("function", in_grid),
                                out_grid)


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
        assert doc["thresholds"] == packed(net.thresholds)
        assert doc["coefficients"] == packed(net.coefficients)
        assert doc["output_dim"] == 5
        assert "neurons" not in doc

    def test_sequence_roundtrip_bit_identical(self):
        rng = np.random.default_rng(14)
        net = random_network(rng, width=6)
        back = self.roundtrip(net)
        for name in ("weights", "thresholds", "coefficients"):
            assert getattr(back, name).tobytes() == getattr(net, name).tobytes()
        s = SequencePoint(rng.standard_normal(6))
        np.testing.assert_array_equal(back(s).values, net(s).values)
        assert json.dumps(serialize_network(back)) == json.dumps(serialize_network(net))

    def test_three_neuron_roundtrip_bit_identical(self):
        rng = np.random.default_rng(9)
        grid = GridMeta(-1.0, 2.0, 17)
        in_grid = GridMeta(0.0, 1.0, 13)
        # two trapezoid pairings with random phi, and the zero functional
        phis = [rng.standard_normal(13) for _ in range(2)]
        L = np.vstack([in_grid.trapezoid_weights() * phi for phi in phis] + [np.zeros(13)])
        thetas = np.append(rng.uniform(-1.0, 1.0, 2), 0.25)
        net = ShallowVectorNetwork(
            L, thetas, rng.standard_normal((3, 17)), Sigmoid(), ("function", in_grid), grid
        )
        back = self.roundtrip(net)
        assert back.output_grid == grid
        for _ in range(10):
            s = FunctionSample(rng.standard_normal(13), in_grid)
            np.testing.assert_array_equal(back(s).values, net(s).values)

    def test_matrix_and_polynomial_roundtrip(self):
        rng = np.random.default_rng(10)
        net = ShallowVectorNetwork(
            rng.standard_normal((1, 6)), [0.0], rng.standard_normal((1, 4)),
            Polynomial((1.0, 0.5)), ("matrix", (2, 3)),
        )
        back = self.roundtrip(net)
        z = MatrixPoint(rng.standard_normal((2, 3)))
        np.testing.assert_array_equal(back(z).values, net(z).values)
        assert back.activation == net.activation

    def test_unknown_activation_diagnosed(self):
        net = ShallowVectorNetwork.zero(Tanh(), ("sequence", 2), 2)
        doc = serialize_network(net)
        doc["activation"] = "foo"
        with pytest.raises(DocumentError, match="activation"):
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

    def test_weights_width_disagrees_with_input_shape(self):
        doc = serialize_network(random_network(np.random.default_rng(18), in_dim=6))
        doc["input_shape"]["length"] = 7
        with pytest.raises(DocumentError, match="weights"):
            deserialize_network(doc)

    def test_inconsistent_shape_diagnosed(self):
        rng = np.random.default_rng(12)
        net = random_network(rng, width=1)
        doc = serialize_network(net)
        doc["coefficients"] = packed([[1.0, 2.0]])
        with pytest.raises(DocumentError, match="'coefficients'.*'output_dim'"):
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
