"""The batched forward/backward pass and the all-atoms-at-once attacks,
checked against the per-vector reference in oracles.py and against central
finite differences."""

import math

import numpy as np
import pytest

from helpers import linear
from oracles import vector_fgsm, vector_grid, vector_loss_grad, vector_pgd
from wasslip.adversarial import AttackConfig, BallSpec, adversarial_risk
from wasslip.measures import DiscreteMeasure, PointSet
from wasslip.models import ActivationTag, MLP, MLPLayer, forward, loss_grads, losses
from wasslip.numerics import NormTag
from wasslip.seeding import derive_rng
from wasslip.suite import seeded_linear_model, seeded_mlp, seeded_points, seeded_weights

TOL = 1e-12


def _models(seed):
    rng = derive_rng(seed, "batched-models")
    return {
        "linear": seeded_linear_model(rng, 2, 3, scale=0.9),
        "linear_bias": linear(rng.standard_normal((3, 2)), rng.standard_normal(3)),
        "relu": seeded_mlp(rng, [2, 6, 3], scale=1.2, bias=True),
        "tanh": seeded_mlp(rng, [2, 5, 4, 3], activation=ActivationTag.TANH, bias=True),
    }


def _dead_relu_net() -> MLP:
    """Every hidden unit is off for inputs with x0 < -10 and small x1: the
    loss is flat there and its gradient is exactly zero."""
    return MLP(
        (
            MLPLayer(np.array([[1.0, 0.2], [0.5, -0.3], [2.0, 0.1]]), ActivationTag.RELU),
            MLPLayer(np.array([[1.0, -2.0, 0.5], [-1.0, 1.5, 0.3], [0.2, 0.4, -1.0]]), ActivationTag.IDENTITY, np.array([0.1, -0.2, 0.3])),
        )
    )


def _measure(seed, n=7):
    rng = derive_rng(seed, "batched-measure")
    support = seeded_points(rng, n, 2, 3, spread=1.5)
    return DiscreteMeasure(support, seeded_weights(rng, n))


def _close(a, b):
    return np.allclose(a, b, rtol=TOL, atol=TOL)


class TestBatchedPass:
    @pytest.mark.parametrize("name", ["linear", "linear_bias", "relu", "tanh"])
    def test_losses_and_input_gradients_match_per_vector(self, name):
        model = _models(0)[name]
        mu = _measure(1, n=12)
        X, Y = mu.support.xs, mu.support.ys
        out = loss_grads(model, X, Y)
        assert out.grads_w is None and out.grads_b is None
        for i in range(len(Y)):
            value, grad_x, _, _ = vector_loss_grad(model, X[i], Y[i])
            assert math.isclose(out.losses[i], value, rel_tol=TOL, abs_tol=TOL)
            assert _close(out.grad_x[i], grad_x)
        assert _close(losses(model, X, Y), out.losses)
        assert forward(model, X).shape == (len(Y), 3)

    @pytest.mark.parametrize("name", ["linear_bias", "relu", "tanh"])
    def test_parameter_gradients_are_the_sum_of_per_row_gradients(self, name):
        model = _models(2)[name]
        mu = _measure(3, n=9)
        X, Y = mu.support.xs, mu.support.ys
        out = loss_grads(model, X, Y, params=True)
        rows = [vector_loss_grad(model, X[i], Y[i]) for i in range(len(Y))]
        for j in range(len(out.grads_w)):
            assert _close(out.grads_w[j], sum(r[2][j] for r in rows))
            if out.grads_b[j] is None:
                assert all(r[3][j] is None for r in rows)
            else:
                assert _close(out.grads_b[j], sum(r[3][j] for r in rows))

    @pytest.mark.parametrize("name", ["linear_bias", "tanh"])
    def test_parameter_gradients_match_central_differences(self, name):
        model = _models(4)[name]
        mu = _measure(5, n=6)
        X, Y = mu.support.xs, mu.support.ys
        out = loss_grads(model, X, Y, params=True)
        layers = list(model.layers) if isinstance(model, MLP) else [MLPLayer(model.weights, ActivationTag.IDENTITY, model.bias)]
        h = 1e-6

        def total(j, part, idx, step):
            layer = layers[j]
            W, b = layer.weights.copy(), None if layer.bias is None else layer.bias.copy()
            (W if part == "weights" else b)[idx] += step
            trial = list(layers)
            trial[j] = MLPLayer(W, layer.activation, b)
            return float(np.sum(losses(MLP(tuple(trial)), X, Y)))

        for j, layer in enumerate(layers):
            for part, grad in (("weights", out.grads_w[j]), ("bias", out.grads_b[j])):
                fd = np.zeros_like(grad)
                for idx in np.ndindex(grad.shape):
                    fd[idx] = (total(j, part, idx, h) - total(j, part, idx, -h)) / (2.0 * h)
                assert np.allclose(grad, fd, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("name", ["linear_bias", "relu", "tanh"])
    def test_rows_do_not_depend_on_the_batch(self, name):
        """Every row's loss and gradients are bit-identical to evaluating the
        row alone, and the parameter sums to accumulating row after row, so
        reports do not move when the rows are batched differently."""
        model = _models(14)[name]
        mu = _measure(15, n=11)
        X, Y = mu.support.xs, mu.support.ys
        out = loss_grads(model, X, Y, params=True)
        sums = None
        for i in range(len(Y)):
            one = loss_grads(model, X[i : i + 1], Y[i : i + 1], params=True)
            assert np.array_equal(out.losses[i : i + 1], one.losses)
            assert np.array_equal(out.grad_x[i : i + 1], one.grad_x)
            sums = one.grads_w if sums is None else [a + b for a, b in zip(sums, one.grads_w)]
        assert all(np.array_equal(a, b) for a, b in zip(out.grads_w, sums))

    def test_label_and_dimension_checks(self):
        model = _models(0)["relu"]
        with pytest.raises(ValueError):
            losses(model, np.zeros((2, 2)), [0, 3])
        with pytest.raises(ValueError):
            loss_grads(model, np.zeros((2, 3)), [0, 1])


class TestBatchedAttacksMatchPerAtomReference:
    @pytest.mark.parametrize("tag", list(NormTag))
    @pytest.mark.parametrize("name", ["linear", "relu", "tanh"])
    def test_pgd_with_warm_starts_and_restarts(self, name, tag):
        model = _models(6)[name]
        mu = _measure(7)
        X, Y = mu.support.xs, mu.support.ys
        config = AttackConfig(steps=12, restarts=2, seed=11)
        rng = derive_rng(8, "warm")
        for eps in (0.0, 0.15, 0.6):
            ball = BallSpec(tag, eps)
            warm = [0.3 * rng.standard_normal(X.shape), 2.0 * rng.standard_normal(X.shape)]
            result = adversarial_risk(model, mu, ball, config, warm_starts=warm)
            for i in range(len(Y)):
                delta, value = vector_pgd(
                    model, X[i], Y[i], tag.value, eps, config.steps, None,
                    derive_rng(config.seed, f"attack/{i}"), config.restarts, [w[i] for w in warm],
                )
                assert math.isclose(result.losses[i], value, rel_tol=TOL, abs_tol=TOL)
                assert _close(result.perturbations[i], delta)

    @pytest.mark.parametrize("tag", list(NormTag))
    def test_zero_gradient_atom_stops_while_the_others_step(self, tag):
        model = _dead_relu_net()
        mu = _measure(9, n=5)
        X, Y = mu.support.xs.copy(), mu.support.ys
        X[2] = [-20.0, 0.5]  # dead region: every hidden unit is off
        mu = DiscreteMeasure(PointSet(X, Y, 3), mu.weights)
        assert not loss_grads(model, X[2:3], Y[2:3]).grad_x.any()
        config = AttackConfig(steps=15, restarts=2, seed=3)
        result = adversarial_risk(model, mu, BallSpec(tag, 0.4), config)
        for i in range(len(Y)):
            delta, value = vector_pgd(model, X[i], Y[i], tag.value, 0.4, config.steps, None, derive_rng(3, f"attack/{i}"), config.restarts)
            assert math.isclose(result.losses[i], value, rel_tol=TOL, abs_tol=TOL)
            assert _close(result.perturbations[i], delta)
        # the flat atom keeps the zero start: later starts only tie with it
        assert not result.perturbations[2].any()
        assert result.perturbations[[0, 1, 3, 4]].any()

    @pytest.mark.parametrize("tag", list(NormTag))
    @pytest.mark.parametrize("name", ["linear", "relu", "tanh"])
    def test_fgsm(self, name, tag):
        model = _models(10)[name]
        mu = _measure(11)
        X, Y = mu.support.xs, mu.support.ys
        result = adversarial_risk(model, mu, BallSpec(tag, 0.3), AttackConfig(method="FGSM"))
        for i in range(len(Y)):
            delta, value = vector_fgsm(model, X[i], Y[i], tag.value, 0.3)
            assert math.isclose(result.losses[i], value, rel_tol=TOL, abs_tol=TOL)
            assert _close(result.perturbations[i], delta)

    @pytest.mark.parametrize("tag", list(NormTag))
    @pytest.mark.parametrize("name", ["linear", "relu"])
    def test_grid(self, name, tag):
        model = _models(12)[name]
        mu = _measure(13, n=4)
        X, Y = mu.support.xs, mu.support.ys
        result = adversarial_risk(model, mu, BallSpec(tag, 0.25), AttackConfig(method="GRID", grid_points=9))
        for i in range(len(Y)):
            delta, value = vector_grid(model, X[i], Y[i], tag.value, 0.25, 9)
            assert math.isclose(result.losses[i], value, rel_tol=TOL, abs_tol=TOL)
            assert _close(result.perturbations[i], delta)
