import hashlib
import math

import numpy as np
import pytest

from helpers import linear
from oracles import spectral_norm_jacobi
from wasslip.datasets import gaussian_blobs
from wasslip.models import (
    ActivationTag,
    MLP,
    MLPLayer,
    accuracy,
    layerwise_bounds,
    save_model,
)
from wasslip.numerics import NormTag, UnsupportedNormError, operator_norm
from wasslip.seeding import derive_rng
from wasslip.suite import seeded_mlp, seeded_points
from wasslip.train import (
    ObjectiveKind,
    TrainConfig,
    objective_and_grad,
    project_layer_lipschitz,
    train_loop,
)


def fd_penalty_gradient(penalty_of, W, h=1e-6):
    grad = np.zeros_like(W)
    for r in range(W.shape[0]):
        for c in range(W.shape[1]):
            E = np.zeros_like(W)
            E[r, c] = h
            grad[r, c] = (penalty_of(W + E) - penalty_of(W - E)) / (2.0 * h)
    return grad


def sigma_gap_ok(W, tol=1e-3):
    eigs = np.sort(np.linalg.eigvalsh(W.T @ W))[::-1]
    s = np.sqrt(np.maximum(eigs, 0.0))
    return s[0] > 1e-6 and (len(s) < 2 or s[0] - s[1] > tol)


class TestObjectiveAndGrad:
    def test_rho_zero_is_pure_erm(self):
        rng = derive_rng(0, "obj0")
        net = seeded_mlp(rng, [2, 3, 2], scale=0.8)
        batch = seeded_points(rng, 5, 2, 2)
        for kind in ObjectiveKind:
            ev = objective_and_grad(net, batch, TrainConfig(kind, rho=0.0))
            assert ev.penalty == 0.0
            assert ev.value == ev.erm

    @pytest.mark.parametrize("kind", [ObjectiveKind.SPECTRAL, ObjectiveKind.PRODUCT])
    def test_exact_tie_keeps_the_penalty_subgradient(self, kind):
        # the top two singular values of W tie at 2; on one layer both
        # penalties are rho sqrt(2) ||W||_2, and every subgradient G of that
        # has nuclear norm rho sqrt(2) and <G, W> = rho sqrt(2) ||W||_2
        rho, W = 0.5, np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        batch = seeded_points(derive_rng(2, "tie"), 5, 3, 2)
        penalized = objective_and_grad(linear(W), batch, TrainConfig(kind, rho=rho))
        erm = objective_and_grad(linear(W), batch, TrainConfig(kind, rho=0.0))
        G = penalized.grads_w[0] - erm.grads_w[0]
        scale = rho * math.sqrt(2.0)
        assert np.linalg.norm(G, "nuc") == pytest.approx(scale, rel=1e-12)
        assert float(np.sum(G * W)) == pytest.approx(scale * 2.0, rel=1e-12)

    def test_zero_weights_zero_penalty_and_grad(self):
        net = MLP((MLPLayer(np.zeros((2, 2)), ActivationTag.IDENTITY),))
        batch = seeded_points(derive_rng(1, "z"), 3, 2, 2)
        ev = objective_and_grad(net, batch, TrainConfig(ObjectiveKind.SPECTRAL, rho=0.7))
        assert ev.penalty == 0.0
        # ERM gradient is unaffected; the penalty contribution must vanish
        ev0 = objective_and_grad(net, batch, TrainConfig(ObjectiveKind.SPECTRAL, rho=0.0))
        assert np.allclose(ev.grads_w[0], ev0.grads_w[0])

    def test_non_l2_penalty_rejected(self):
        rng = derive_rng(3, "nrm")
        net = seeded_mlp(rng, [2, 2])
        batch = seeded_points(rng, 3, 2, 2)
        with pytest.raises(UnsupportedNormError):
            objective_and_grad(net, batch, TrainConfig(ObjectiveKind.SPECTRAL, rho=0.5, norm=NormTag.L1))

    @pytest.mark.parametrize("seed", range(8))
    def test_spectral_penalty_gradient_matches_fd(self, seed):
        """Penalty subgradient rho*factor*sigma^(l-1) u v^T against central
        differences of the penalty, away from repeated singular values."""
        rng = derive_rng(seed, "spec-fd")
        dims = [3, 4, 2]
        net = seeded_mlp(rng, dims, scale=1.1)
        if not all(sigma_gap_ok(layer.weights) for layer in net.layers):
            pytest.skip("seeded net has near-tied singular values")
        batch = seeded_points(rng, 3, 3, 2)
        cfg = TrainConfig(ObjectiveKind.SPECTRAL, rho=0.6)
        ev = objective_and_grad(net, batch, cfg)
        ev0 = objective_and_grad(net, batch, TrainConfig(ObjectiveKind.SPECTRAL, rho=0.0))
        l = len(net.layers)
        factor = math.sqrt(2.0)
        for j, layer in enumerate(net.layers):
            pen_grad = ev.grads_w[j] - ev0.grads_w[j]

            def penalty_of(W, j=j):
                sigmas = [
                    spectral_norm_jacobi(W if i == j else net.layers[i].weights) for i in range(l)
                ]
                return 0.6 * factor / l * sum(s**l for s in sigmas)

            fd = fd_penalty_gradient(penalty_of, layer.weights)
            denom = max(np.linalg.norm(fd), 1e-10)
            assert np.linalg.norm(pen_grad - fd) / denom <= 1e-3

    @pytest.mark.parametrize("dims", [[3, 2], [3, 3, 2]], ids=["product-one-layer", "product"])
    def test_other_penalty_gradients_match_fd(self, dims):
        kind = ObjectiveKind.PRODUCT
        rng = derive_rng(17, f"fd-{kind.value}")
        net = seeded_mlp(rng, dims, scale=1.2)
        if not all(sigma_gap_ok(layer.weights) for layer in net.layers):
            pytest.skip("near-tied singular values")
        batch = seeded_points(rng, 3, 3, 2)
        rho = 0.5
        ev = objective_and_grad(net, batch, TrainConfig(kind, rho=rho))
        ev0 = objective_and_grad(net, batch, TrainConfig(kind, rho=0.0))
        l = len(net.layers)
        factor = math.sqrt(2.0)
        for j, layer in enumerate(net.layers):
            pen_grad = ev.grads_w[j] - ev0.grads_w[j]

            def penalty_of(W, j=j):
                sigmas = [
                    spectral_norm_jacobi(W if i == j else net.layers[i].weights) for i in range(l)
                ]
                return rho * factor * math.prod(sigmas)

            fd = fd_penalty_gradient(penalty_of, layer.weights)
            denom = max(np.linalg.norm(fd), 1e-10)
            assert np.linalg.norm(pen_grad - fd) / denom <= 1e-3

    def test_decomposition_identity(self):
        rng = derive_rng(4, "decomp")
        net = seeded_mlp(rng, [2, 4, 2], scale=1.0)
        batch = seeded_points(rng, 6, 2, 2)
        ev = objective_and_grad(net, batch, TrainConfig(ObjectiveKind.SPECTRAL, rho=0.3))
        assert ev.value == pytest.approx(ev.erm + ev.penalty, abs=1e-9)


class TestProjection:
    def test_small_matrix_unchanged(self):
        W = 0.5 * np.eye(3)
        assert np.array_equal(project_layer_lipschitz(W, 1.0), W)

    def test_scaled_identity(self):
        W = 2.0 * np.eye(3)
        assert np.allclose(project_layer_lipschitz(W, 1.0), np.eye(3), atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_post_projection_norm(self, seed):
        rng = derive_rng(seed, "proj")
        W = 2.0 * rng.standard_normal((4, 3))
        sigma = operator_norm(W, NormTag.L2)
        out = project_layer_lipschitz(W, 1.0)
        assert operator_norm(out, NormTag.L2) == pytest.approx(min(sigma, 1.0), abs=1e-8)


class TestTrainLoop:
    def _blobs(self, n=60, seed=11):
        return gaussian_blobs(n, 2, 2, seed=seed)

    def test_convex_erm_descends(self):
        """Full-batch gradient descent on the convex single-layer objective
        decreases monotonically over the first epochs at a small step size."""
        points = self._blobs()
        model = linear(np.zeros((2, 2)))
        cfg = TrainConfig(ObjectiveKind.PRODUCT, rho=0.0, epochs=10, learning_rate=0.1)
        report = train_loop(model, points, cfg)
        objs = [r.objective for r in report.records]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
        assert not report.diverged

    def test_penalty_bites_on_norms(self):
        points = self._blobs()
        rng = derive_rng(5, "bite")
        net = seeded_mlp(rng, [2, 5, 2], scale=1.0, bias=True)
        base = TrainConfig(ObjectiveKind.SPECTRAL, rho=0.0, epochs=40, learning_rate=0.1, seed=1)
        reg = TrainConfig(ObjectiveKind.SPECTRAL, rho=0.5, epochs=40, learning_rate=0.1, seed=1)
        r0 = train_loop(net, points, base)
        r1 = train_loop(net, points, reg)
        sum_plain = sum(operator_norm(l.weights, NormTag.L2) ** 2 for l in r0.model.layers)
        sum_reg = sum(operator_norm(l.weights, NormTag.L2) ** 2 for l in r1.model.layers)
        assert sum_reg < sum_plain
        assert accuracy(r1.model, points) >= 0.9

    def test_cap_mode_constrains_every_epoch(self):
        points = self._blobs()
        rng = derive_rng(6, "cap")
        net = seeded_mlp(rng, [2, 4, 2], scale=2.0, bias=True)
        cfg = TrainConfig(ObjectiveKind.SPECTRAL, rho=0.2, epochs=5, learning_rate=0.05, layer_cap=1.0)
        report = train_loop(net, points, cfg)
        for layer in report.model.layers:
            assert operator_norm(layer.weights, NormTag.L2) <= 1.0 + 1e-9

    def test_deterministic_bitwise(self):
        points = self._blobs(n=30)
        rng = derive_rng(7, "det")
        net = seeded_mlp(rng, [2, 3, 2], scale=0.9, bias=True)
        cfg = TrainConfig(ObjectiveKind.PRODUCT, rho=0.3, epochs=8, learning_rate=0.05, seed=42)
        r1 = train_loop(net, points, cfg)
        r2 = train_loop(net, points, cfg)
        for a, b in zip(r1.records, r2.records):
            assert (a.erm, a.penalty, a.objective, a.product_bound, a.young_bound) == (
                b.erm,
                b.penalty,
                b.objective,
                b.product_bound,
                b.young_bound,
            )
        for la, lb in zip(r1.model.layers, r2.model.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_rho_zero_identical_trajectories_across_objectives(self):
        points = self._blobs(n=30)
        rng = derive_rng(8, "same")
        net = seeded_mlp(rng, [2, 2], scale=0.9, bias=True)  # single layer: valid for all kinds
        reports = []
        for kind in ObjectiveKind:
            cfg = TrainConfig(kind, rho=0.0, epochs=6, learning_rate=0.1, seed=3)
            reports.append(train_loop(net, points, cfg))
        for other in reports[1:]:
            for a, b in zip(reports[0].records, other.records):
                assert a.erm == b.erm and a.objective == b.objective and a.penalty == b.penalty
            for la, lb in zip(reports[0].model.layers, other.model.layers):
                assert np.array_equal(la.weights, lb.weights)

    def test_decomposition_and_chain_each_epoch(self):
        points = self._blobs(n=40)
        rng = derive_rng(9, "chain")
        net = seeded_mlp(rng, [2, 4, 2], scale=1.0)
        cfg = TrainConfig(ObjectiveKind.SPECTRAL, rho=0.4, epochs=10, learning_rate=0.05)
        report = train_loop(net, points, cfg)
        for r in report.records:
            assert r.objective == pytest.approx(r.erm + r.penalty, abs=1e-9)
            assert r.product_bound <= r.young_bound + 1e-9

    def test_chain_holds_on_every_checkpoint_including_empirical(self):
        """Train one epoch at a time so every checkpoint model is visible,
        then check sampled-lipschitz <= product <= young at each one."""
        from wasslip.models import empirical_lipschitz, forward

        points = self._blobs(n=24)
        rng = derive_rng(14, "ckpt")
        model = seeded_mlp(rng, [2, 3, 2], scale=1.0, bias=True)
        sampler = derive_rng(14, "ckpt-sampler")
        for step in range(5):
            cfg = TrainConfig(ObjectiveKind.SPECTRAL, rho=0.3, epochs=1, learning_rate=0.05, seed=step)
            report = train_loop(model, points, cfg)
            model = report.model
            rec = report.records[-1]
            assert rec.product_bound <= rec.young_bound + 1e-9

            est = empirical_lipschitz(lambda X: forward(model, X), sampler.standard_normal((41, 2)), NormTag.L2)
            assert est <= rec.product_bound + 1e-6

    def test_spectral_penalty_dominates_product_penalty(self):
        points = self._blobs(n=30)
        rng = derive_rng(10, "dom")
        net = seeded_mlp(rng, [2, 4, 2], scale=1.0)
        cfg_s = TrainConfig(ObjectiveKind.SPECTRAL, rho=0.4, epochs=6, learning_rate=0.05, seed=2)
        cfg_p = TrainConfig(ObjectiveKind.PRODUCT, rho=0.4, epochs=0, learning_rate=0.05, seed=2)
        rs = train_loop(net, points, cfg_s)
        # compare penalties on the checkpoints of the spectral run
        for rec_model in (net, rs.model):
            ev_s = objective_and_grad(rec_model, points, cfg_s)
            ev_p = objective_and_grad(rec_model, points, TrainConfig(ObjectiveKind.PRODUCT, rho=0.4))
            assert ev_s.penalty >= ev_p.penalty - 1e-9

    def test_divergence_aborts_with_report(self):
        points = self._blobs(n=20)
        rng = derive_rng(12, "boom")
        net = seeded_mlp(rng, [2, 3, 2], scale=1.0)
        # the squared-norm penalty explodes once the step size blows weights up
        cfg = TrainConfig(ObjectiveKind.SPECTRAL, rho=1.0, epochs=200, learning_rate=1e6)
        report = train_loop(net, points, cfg)
        assert report.diverged
        assert report.certificate is None
        assert len(report.records) < 200

    def test_minibatch_runs_and_is_deterministic(self):
        points = self._blobs(n=24)
        rng = derive_rng(13, "mb")
        net = seeded_mlp(rng, [2, 3, 2], scale=0.8, bias=True)
        cfg = TrainConfig(ObjectiveKind.SPECTRAL, rho=0.1, epochs=4, learning_rate=0.05, batch_size=8, seed=5)
        r1 = train_loop(net, points, cfg)
        r2 = train_loop(net, points, cfg)
        assert [r.objective for r in r1.records] == [r.objective for r in r2.records]

    def test_final_certificate_present_and_consistent(self):
        points = self._blobs(n=30)
        model = linear(np.zeros((2, 2)))
        cfg = TrainConfig(ObjectiveKind.PRODUCT, rho=0.2, epochs=5, learning_rate=0.1)
        report = train_loop(model, points, cfg)
        cert = report.certificate
        assert cert is not None
        assert cert.robust_value >= cert.empirical_risk - 1e-9
        assert cert.rho == 0.2


class TestRecords:
    """Each epoch record takes the penalty and both bounds from one spectral
    pass over the same weights, and recording leaves the trajectory alone."""

    def _blobs(self):
        return gaussian_blobs(40, 2, 2, seed=11)

    def _net(self):
        return seeded_mlp(derive_rng(15, "pin"), [2, 4, 2], scale=1.0, bias=True)

    # sha256 of model.txt after 10 epochs, taken before the records shared
    # the penalty's pass; any change to the weights' bits moves them
    @pytest.mark.parametrize(
        "kind, digest",
        [
            (ObjectiveKind.SPECTRAL, "919e814b91217d79838e5923728e42064d851d83fc5dbfe2b6f99f174bb3ec04"),
            (ObjectiveKind.PRODUCT, "49f03acdc92b8b7dcad9c851f9d84598f08ba80a81dd87d21843945841d34942"),
        ],
    )
    def test_trajectory_pinned(self, tmp_path, kind, digest):
        cfg = TrainConfig(kind, rho=0.3, epochs=10, learning_rate=0.05, momentum=0.5, seed=4)
        report = train_loop(self._net(), self._blobs(), cfg)
        path = tmp_path / "model.txt"
        save_model(report.model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind", [ObjectiveKind.SPECTRAL, ObjectiveKind.PRODUCT])
    def test_penalty_and_bounds_share_one_pass(self, kind):
        rho = 0.3
        cfg = TrainConfig(kind, rho=rho, epochs=10, learning_rate=0.05, momentum=0.5, seed=4)
        report = train_loop(self._net(), self._blobs(), cfg)
        for r in report.records:
            bound = r.young_bound if kind == ObjectiveKind.SPECTRAL else r.product_bound
            assert r.penalty == pytest.approx(rho * math.sqrt(2.0) * bound, rel=1e-12)

    def test_one_power_iteration_per_layer_per_record(self, monkeypatch):
        import wasslip.numerics
        import wasslip.train

        calls = []
        real = wasslip.numerics.power_iteration

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(wasslip.numerics, "power_iteration", counted)
        monkeypatch.setattr(wasslip.train, "power_iteration", counted)
        cfg = TrainConfig(ObjectiveKind.SPECTRAL, rho=0.3, epochs=0)
        report = train_loop(self._net(), self._blobs(), cfg)
        assert len(report.records) == 1
        # two layers; the final certificate takes its norms from the SVD bound
        assert len(calls) == 2
        # one epoch adds the step's pass and the second record's, two each
        calls.clear()
        report = train_loop(self._net(), self._blobs(), TrainConfig(ObjectiveKind.SPECTRAL, rho=0.3, epochs=1))
        assert len(report.records) == 2
        assert len(calls) == 2 + 2 + 2

    @pytest.mark.parametrize("tag", [NormTag.L1, NormTag.LINF])
    def test_closed_form_bounds_at_rho_zero(self, tag):
        """With no penalty, L1 and LINF records use the closed-form operator
        norms: the bounds of the final model are layerwise_bounds of them."""
        cfg = TrainConfig(ObjectiveKind.SPECTRAL, rho=0.0, epochs=3, learning_rate=0.05, norm=tag)
        report = train_loop(self._net(), self._blobs(), cfg)
        bounds = layerwise_bounds([operator_norm(l.weights, tag) for l in report.model.layers])
        last = report.records[-1]
        assert (last.product_bound, last.young_bound) == (bounds.product, bounds.young)
        assert last.penalty == 0.0
