import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from helpers import linear
from oracles import finite_difference_gradient, vector_pre_activations

from wasslip.io import InputFileError
from wasslip.measures import PointSet
from wasslip.models import (
    ActivationTag,
    MLP,
    MLPLayer,
    accuracy,
    ce_lipschitz_bound,
    ce_slice_lipschitz,
    empirical_lipschitz,
    forward,
    layerwise_bounds,
    load_model,
    loss_grads,
    loss_lipschitz,
    losses,
    phi_lipschitz_bound,
    save_model,
)
from wasslip.numerics import DimensionError, NormTag, operator_norm


def seeded_linear(seed, k=3, d=4, scale=1.0, bias=False):
    rng = np.random.default_rng(seed)
    b = 0.3 * rng.standard_normal(k) if bias else None
    return linear(scale * rng.standard_normal((k, d)), b)


def seeded_net(seed, dims, bias=False, activation=ActivationTag.RELU, scale=1.0):
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(dims) - 1):
        W = scale / math.sqrt(dims[i]) * rng.standard_normal((dims[i + 1], dims[i]))
        b = 0.2 * rng.standard_normal(dims[i + 1]) if bias else None
        act = activation if i < len(dims) - 2 else ActivationTag.IDENTITY
        layers.append(MLPLayer(W, act, b))
    return MLP(tuple(layers))


def loss_of(model, x, y):
    return float(losses(model, [x], [y])[0])


def flat_param_grads(out):
    """Weight then bias gradients of every layer, flattened layer by layer."""
    parts = []
    for gw, gb in zip(out.grads_w, out.grads_b):
        parts.append(gw.ravel())
        if gb is not None:
            parts.append(gb)
    return np.concatenate(parts)


def relative_error(got, expected):
    denom = max(float(np.linalg.norm(np.atleast_1d(expected))), 1e-10)
    return float(np.linalg.norm(np.atleast_1d(got) - np.atleast_1d(expected))) / denom


class TestSoftmaxCE:
    def test_zero_weights_uniform(self):
        model = linear(np.zeros((4, 3)))
        value = loss_of(model, np.array([0.7, -0.1, 2.0]), 2)
        assert value == pytest.approx(math.log(4.0), abs=1e-12)

    def test_symmetric_logits(self):
        model = linear(np.array([[1.0], [-1.0]]))
        value = loss_of(model, np.array([0.0]), 0)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_logsumexp_stable_for_huge_logits(self):
        model = linear(np.array([[1000.0], [-1000.0]]))
        value = loss_of(model, np.array([1.0]), 0)
        assert math.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_grad_x_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = seeded_linear(seed, bias=bool(seed % 2))
        x = rng.standard_normal(4)
        y = int(rng.integers(0, 3))
        ev = loss_grads(model, [x], [y])
        fd = finite_difference_gradient(lambda v: loss_of(model, v, y), x, 1e-5)
        assert relative_error(ev.grad_x[0], fd) <= 1e-4

    def test_label_validation(self):
        model = seeded_linear(0)
        with pytest.raises(ValueError):
            loss_grads(model, np.zeros((1, 4)), [3])
        with pytest.raises(DimensionError):
            loss_grads(model, np.zeros((1, 5)), [0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_convex_in_x_midpoint(self, seed):
        rng = np.random.default_rng(seed)
        model = linear(rng.standard_normal((3, 2)))
        y = int(rng.integers(0, 3))
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        mid = loss_of(model, 0.5 * (a + b), y)
        avg = 0.5 * (loss_of(model, a, y) + loss_of(model, b, y))
        assert avg - mid >= -1e-9

    def test_convex_in_x_thousand_seeded_triples(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            model = linear(rng.standard_normal((3, 2)))
            y = int(rng.integers(0, 3))
            a = rng.standard_normal(2)
            b = rng.standard_normal(2)
            mid = loss_of(model, 0.5 * (a + b), y)
            avg = 0.5 * (loss_of(model, a, y) + loss_of(model, b, y))
            assert avg - mid >= -1e-9


class TestMLPForwardBackward:
    def test_identity_collapse(self):
        W = np.array([[1.0, 0.5], [-0.5, 2.0]])
        net = MLP((MLPLayer(np.eye(2), ActivationTag.IDENTITY), MLPLayer(W, ActivationTag.IDENTITY)))
        x = np.array([0.3, -1.2])
        logits = forward(net, [x])[0]
        assert np.allclose(logits, W @ x)

    def test_single_layer_equals_linear_softmax(self):
        """The one-layer net is softmax regression: logits W x, loss
        lse(z) - z_y, grad_x = W^T (p - e_y), grad_W = (p - e_y) x^T."""
        net = seeded_linear(4)
        W = net.layers[0].weights
        x = np.random.default_rng(0).standard_normal(4)
        z = W @ x
        logits = forward(net, [x])[0]
        assert np.allclose(logits, z)
        p = np.exp(z - np.max(z))
        p /= p.sum()
        residual = p - np.eye(3)[1]
        ev = loss_grads(net, [x], [1], params=True)
        assert ev.losses[0] == pytest.approx(math.log(np.sum(np.exp(z))) - z[1], abs=1e-12)
        assert np.allclose(ev.grad_x[0], W.T @ residual)
        assert np.allclose(flat_param_grads(ev), np.outer(residual, x).ravel())

    def test_forward_matches_straight_line_reimplementation(self):
        net = seeded_net(7, [3, 5, 2], bias=True)
        x = np.random.default_rng(1).standard_normal(3)
        logits = forward(net, [x])[0]
        # independent re-evaluation with explicit loops
        a = [float(v) for v in x]
        for layer in net.layers:
            W, b = layer.weights, layer.bias
            out = []
            for r in range(W.shape[0]):
                s = sum(W[r, c] * a[c] for c in range(W.shape[1]))
                if b is not None:
                    s += b[r]
                if layer.activation == ActivationTag.RELU:
                    s = max(s, 0.0)
                elif layer.activation == ActivationTag.TANH:
                    s = math.tanh(s)
                out.append(s)
            a = out
        assert np.allclose(logits, a, atol=1e-12)

    def test_zero_net_closed_form(self):
        net = MLP(
            (
                MLPLayer(np.zeros((3, 2)), ActivationTag.RELU),
                MLPLayer(np.zeros((2, 3)), ActivationTag.IDENTITY),
            )
        )
        ev = loss_grads(net, np.zeros((1, 2)), [1], params=True)
        assert ev.losses[0] == pytest.approx(math.log(2.0), abs=1e-12)
        assert np.allclose(flat_param_grads(ev), 0.0)  # all activations are zero

    @pytest.mark.parametrize("seed", range(10))
    def test_grad_params_matches_finite_differences(self, seed):
        rng = np.random.default_rng(200 + seed)
        net = seeded_net(200 + seed, [3, 4, 3], bias=bool(seed % 2), activation=ActivationTag.TANH if seed % 3 == 0 else ActivationTag.RELU)
        x = rng.standard_normal(3)
        y = int(rng.integers(0, 3))
        # avoid ReLU kinks: resample until pre-activations are clear of zero
        for bump in range(50):
            if all(np.min(np.abs(pre)) > 1e-6 for pre in vector_pre_activations(net, x)[:-1]):
                break
            x = rng.standard_normal(3)
        grad_params = flat_param_grads(loss_grads(net, [x], [y], params=True))

        def loss_of_params(theta):
            pos = 0
            layers = []
            for layer in net.layers:
                size = layer.weights.size
                W = theta[pos : pos + size].reshape(layer.weights.shape)
                pos += size
                b = None
                if layer.bias is not None:
                    b = theta[pos : pos + layer.bias.size]
                    pos += layer.bias.size
                layers.append(MLPLayer(W, layer.activation, b))
            return loss_of(MLP(tuple(layers)), x, y)

        theta0 = grad_params * 0.0
        pos = 0
        for layer in net.layers:
            theta0[pos : pos + layer.weights.size] = layer.weights.ravel()
            pos += layer.weights.size
            if layer.bias is not None:
                theta0[pos : pos + layer.bias.size] = layer.bias
                pos += layer.bias.size
        fd = finite_difference_gradient(loss_of_params, theta0, 1e-5)
        assert relative_error(grad_params, fd) <= 1e-4


class TestLipschitzBounds:
    def test_zero_matrix_every_norm(self):
        for tag in NormTag:
            assert ce_lipschitz_bound(np.zeros((3, 3)), tag) == 0.0

    def test_identity_constants(self):
        assert ce_lipschitz_bound(np.eye(4), NormTag.L2) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_linf_and_l1_certified_forms(self):
        W = np.array([[1.0, -2.0], [0.5, 3.0]])
        assert ce_lipschitz_bound(W, NormTag.LINF) == pytest.approx(2.0 * 3.5)
        assert ce_lipschitz_bound(W, NormTag.L1) == pytest.approx(2.0 * 3.0)

    @pytest.mark.parametrize("tag", [NormTag.L1, NormTag.L2, NormTag.LINF])
    @pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize(
        "dims, activation",
        [([4, 3], ActivationTag.IDENTITY), ([3, 5, 2], ActivationTag.RELU), ([3, 6, 4, 3], ActivationTag.TANH)],
        ids=["linear", "relu", "tanh"],
    )
    def test_loss_lipschitz_is_head_times_phi(self, dims, activation, bias, tag):
        """The certificate's floor is the head's constant times lip(phi), in
        that order, bit for bit."""
        for seed in range(3):
            net = seeded_net(500 + seed, dims, bias=bias, activation=activation)
            expected = ce_lipschitz_bound(net.layers[-1].weights, tag) * phi_lipschitz_bound(net.layers[:-1], tag)
            assert loss_lipschitz(net, tag).hex() == expected.hex()

    @pytest.mark.parametrize("tag", [NormTag.L1, NormTag.L2, NormTag.LINF])
    def test_loss_lipschitz_of_a_zero_hidden_layer_is_zero(self, tag):
        net = seeded_net(7, [3, 4, 2], bias=True)
        head = net.layers[1]
        constant = MLP((MLPLayer(np.zeros((4, 3)), ActivationTag.RELU, net.layers[0].bias), head))
        assert loss_lipschitz(constant, tag) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_empirical_below_certified(self, seed):
        rng = np.random.default_rng(300 + seed)
        model = seeded_linear(300 + seed, k=3, d=3)
        y = int(rng.integers(0, 3))
        bound = ce_lipschitz_bound(model.layers[0].weights, NormTag.L2)
        est = empirical_lipschitz(
            lambda X: losses(model, X, np.full(len(X), y)),
            2.0 * rng.standard_normal((201, 3)),
            NormTag.L2,
        )
        assert 0.0 <= est <= bound + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_slice_constant_between_empirical_and_certified(self, seed):
        rng = np.random.default_rng(seed)
        model = seeded_linear(seed, k=4, d=3)
        y = int(rng.integers(0, 4))
        W = model.layers[0].weights
        tight = ce_slice_lipschitz(W, y, NormTag.L2)
        certified = ce_lipschitz_bound(W, NormTag.L2)
        assert tight <= certified + 1e-9
        est = empirical_lipschitz(
            lambda X: losses(model, X, np.full(len(X), y)),
            5.0 * rng.standard_normal((301, 3)),
            NormTag.L2,
        )
        assert est <= tight + 1e-8

    def test_network_bound_identity_layers(self):
        net = MLP(
            (
                MLPLayer(np.eye(3), ActivationTag.RELU),
                MLPLayer(np.eye(3), ActivationTag.IDENTITY),
            )
        )
        bounds = layerwise_bounds([operator_norm(l.weights, NormTag.L2) for l in net.layers])
        assert bounds.product == pytest.approx(1.0, abs=1e-9)
        assert bounds.young == pytest.approx(1.0, abs=1e-9)

    def test_network_bound_arithmetic(self):
        net = MLP(
            (
                MLPLayer(np.diag([2.0, 2.0]), ActivationTag.RELU),
                MLPLayer(np.diag([0.5, 0.5]), ActivationTag.IDENTITY),
            )
        )
        bounds = layerwise_bounds([operator_norm(l.weights, NormTag.L2) for l in net.layers])
        assert bounds.product == pytest.approx(1.0, abs=1e-9)
        assert bounds.young == pytest.approx((4.0 + 0.25) / 2.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_chain_empirical_product_young(self, seed):
        rng = np.random.default_rng(400 + seed)
        net = seeded_net(400 + seed, [3, 4, 4, 2])
        bounds = layerwise_bounds([operator_norm(l.weights, NormTag.L2) for l in net.layers])
        assert bounds.product <= bounds.young + 1e-9

        est = empirical_lipschitz(lambda X: forward(net, X), 2.0 * rng.standard_normal((151, 3)), NormTag.L2)
        assert est <= bounds.product + 1e-6

    def test_split_identity_layer_keeps_product(self):
        rng = np.random.default_rng(2)
        W = rng.standard_normal((3, 3))
        one = MLP((MLPLayer(W, ActivationTag.IDENTITY),))
        two = MLP((MLPLayer(W, ActivationTag.RELU), MLPLayer(np.eye(3), ActivationTag.IDENTITY)))
        p1 = layerwise_bounds([operator_norm(l.weights, NormTag.L2) for l in one.layers]).product
        p2 = layerwise_bounds([operator_norm(l.weights, NormTag.L2) for l in two.layers]).product
        assert p1 == pytest.approx(p2, abs=1e-9)

    def test_bias_invariance(self):
        rng = np.random.default_rng(9)
        W = rng.standard_normal((3, 2))
        b = rng.standard_normal(3)
        plain = linear(W)
        biased = linear(W, b)
        sampler_rng = np.random.default_rng(10)
        samples = sampler_rng.standard_normal((40, 2))

        def est(model):
            return empirical_lipschitz(lambda X: forward(model, X), samples, NormTag.L2)

        assert est(plain) == pytest.approx(est(biased), abs=1e-9)


class TestEmpiricalLipschitz:
    def test_exact_for_scalar_linear(self):
        rng = np.random.default_rng(0)
        est = empirical_lipschitz(lambda X: 3.0 * X[:, 0], rng.standard_normal((51, 1)), NormTag.L2)
        assert 3.0 - 1e-6 <= est <= 3.0 + 1e-9

    def test_constant_function(self):
        rng = np.random.default_rng(1)
        est = empirical_lipschitz(lambda X: np.full(len(X), 1.5), rng.standard_normal((21, 3)), NormTag.L2)
        assert est == 0.0

    def test_all_degenerate_pairs_error(self):
        with pytest.raises(ValueError):
            # the 1e-4 coordinate steps vanish in rounding next to 1e20
            empirical_lipschitz(lambda X: np.zeros(len(X)), np.full((4, 2), 1e20), NormTag.L2)


class TestModelFile:
    def test_round_trip_mlp(self, tmp_path):
        net = seeded_net(11, [2, 5, 3], bias=True)
        path = tmp_path / "model.txt"
        save_model(net, path, NormTag.LINF)
        back, tag = load_model(path)
        assert tag == NormTag.LINF
        assert isinstance(back, MLP)
        for a, b in zip(back.layers, net.layers):
            assert np.array_equal(a.weights, b.weights)
            assert a.activation == b.activation
            assert np.array_equal(a.bias, b.bias)

    def test_round_trip_linear(self, tmp_path):
        """A linear model is written as the one-layer `kind mlp` file."""
        model = seeded_linear(3, bias=True)
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert path.read_text().splitlines()[1] == "kind mlp"
        back, tag = load_model(path)
        assert len(back.layers) == 1 and back.layers[0].activation == ActivationTag.IDENTITY
        assert np.array_equal(back.layers[0].weights, model.layers[0].weights)
        assert np.array_equal(back.layers[0].bias, model.layers[0].bias)

    def test_kind_linear_reads_as_one_layer_mlp(self, tmp_path):
        model = seeded_linear(3, bias=True)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "kind linear"] + lines[2:]) + "\n")
        back, _ = load_model(path)
        (layer,) = back.layers
        assert layer.activation == ActivationTag.IDENTITY
        assert np.array_equal(layer.weights, model.layers[0].weights)
        assert np.array_equal(layer.bias, model.layers[0].bias)

    def test_rejects_unknown_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-model\n")
        with pytest.raises(ValueError):
            load_model(path)

    def _saved_lines(self, tmp_path, model):
        path = tmp_path / "model.txt"
        save_model(model, path)
        return path, path.read_text().splitlines()

    def test_rejects_missing_lines(self, tmp_path):
        path, lines = self._saved_lines(tmp_path, seeded_net(11, [2, 5, 3], bias=True))
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(InputFileError, match=rf"model.txt:{len(lines)}: unexpected end of file"):
            load_model(path)

    def test_rejects_trailing_lines(self, tmp_path):
        path, lines = self._saved_lines(tmp_path, seeded_linear(3, bias=True))
        path.write_text("\n".join(lines + ["0.5,0.5"]) + "\n\n")
        with pytest.raises(InputFileError, match=rf"model.txt:{len(lines) + 1}: trailing lines"):
            load_model(path)

    def test_rejects_linear_kind_with_several_layers(self, tmp_path):
        path, lines = self._saved_lines(tmp_path, seeded_net(11, [2, 5, 3]))
        path.write_text("\n".join(["wasslip-model v1", "kind linear"] + lines[2:]) + "\n")
        with pytest.raises(InputFileError, match="model.txt:4: kind linear needs exactly one layer"):
            load_model(path)

    def test_rejects_layers_that_do_not_chain(self, tmp_path):
        path, lines = self._saved_lines(tmp_path, seeded_net(11, [2, 5, 3]))
        second = 4 + 1 + 5  # header lines, first layer line, its five rows
        assert lines[second] == "layer 3 5 IDENTITY 0"
        lines[second] = "layer 3 4 IDENTITY 0"
        lines[second + 1 : second + 4] = [",".join(["0.5"] * 4)] * 3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputFileError, match=rf"model.txt:{second + 1}: layer takes 4 inputs"):
            load_model(path)

    def test_rejects_short_weight_row(self, tmp_path):
        path, lines = self._saved_lines(tmp_path, seeded_linear(3))
        lines[5] = lines[5].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputFileError, match="model.txt:6: expected 4 finite comma-separated numbers"):
            load_model(path)


class TestAccuracy:
    def test_accuracy_on_separable_points(self):
        model = linear(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        points = PointSet([[2.0, 0.0], [-2.0, 0.0], [3.0, 1.0]], [0, 1, 0], 2)
        assert accuracy(model, points) == 1.0
