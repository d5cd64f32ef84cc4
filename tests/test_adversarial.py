import hashlib
import json
import math

import numpy as np
import pytest

from helpers import linear
from oracles import boundary_max_loss, empirical_risk, linf_corner_max_loss, vector_loss, vector_pgd
import wasslip.adversarial as adversarial
import wasslip.models as models
import wasslip.suite as suite
from wasslip.adversarial import AttackConfig, BallSpec, _project_rows, adversarial_risk, attack_sweep
from wasslip.cli import main
from wasslip.measures import (
    DiscreteMeasure,
    MetricSpec,
    PointSet,
    empirical_from_samples,
    pushforward,
    transport_cost,
)
from wasslip.models import ActivationTag, losses
from wasslip.numerics import NormTag, NumericalError, norm
from wasslip.robust import RobustInstance, robust_certificate_for
from wasslip.seeding import derive_rng
from wasslip.suite import (
    check_adversarial_bound,
    check_adversarial_bounds,
    seeded_linear_model,
    seeded_mlp,
    seeded_points,
)


def attack_one(model, x, y, ball, method="PGD", seed=0):
    """One atom through the all-atoms attack: (perturbation, loss)."""
    mu = DiscreteMeasure(PointSet([x], [y], model.label_count), np.array([1.0]))
    result = adversarial_risk(model, mu, ball, AttackConfig(method=method, seed=seed))
    return result.perturbations[0], float(result.losses[0])


class TestProjection:
    @pytest.mark.parametrize("tag", list(NormTag))
    def test_inside_is_untouched(self, tag):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = 0.05 * rng.standard_normal(4)
            out = _project_rows(v[None, :], BallSpec(tag, 1.0))[0]
            assert np.allclose(out, v)

    @pytest.mark.parametrize("tag", list(NormTag))
    def test_projection_feasible_and_idempotent(self, tag):
        rng = np.random.default_rng(1)
        ball = BallSpec(tag, 0.7)
        for _ in range(50):
            v = 3.0 * rng.standard_normal(5)
            p = _project_rows(v[None, :], ball)[0]
            assert norm(p, tag) <= 0.7 + 1e-9
            assert np.allclose(_project_rows(p[None, :], ball)[0], p, atol=1e-12)

    def test_l1_projection_matches_known_case(self):
        # projecting (1, 1) onto the l1 ball of radius 1 gives (0.5, 0.5)
        out = _project_rows(np.array([[1.0, 1.0]]), BallSpec(NormTag.L1, 1.0))[0]
        assert np.allclose(out, [0.5, 0.5], atol=1e-12)


class TestPGD:
    def test_zero_epsilon_returns_clean(self):
        model = seeded_linear_model(derive_rng(0, "pgd"), 2, 3)
        x = np.array([0.5, -0.2])
        delta, loss = attack_one(model, x, 1, BallSpec(NormTag.LINF, 0.0))
        assert not delta.any()
        assert loss == pytest.approx(vector_loss(model, x, 1))

    @pytest.mark.parametrize("seed", range(6))
    def test_binary_linear_linf_matches_corner_enumeration(self, seed):
        """For binary linear logits the LINF inner max sits at a sign corner;
        a single sign-gradient step finds it exactly."""
        rng = derive_rng(seed, "pgd-corner")
        model = seeded_linear_model(rng, 4, 2, scale=0.8)
        x = rng.standard_normal(4)
        y = int(rng.integers(0, 2))
        eps = 0.3
        exact = linf_corner_max_loss(lambda v: vector_loss(model, v, y), x, eps)
        _, pgd_loss = attack_one(model, x, y, BallSpec(NormTag.LINF, eps), seed=seed)
        assert pgd_loss == pytest.approx(exact, abs=1e-6)
        _, fgsm_loss = attack_one(model, x, y, BallSpec(NormTag.LINF, eps), method="FGSM")
        assert fgsm_loss == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("tag", [NormTag.L2, NormTag.LINF])
    @pytest.mark.parametrize("seed", range(4))
    def test_pgd_between_clean_and_boundary_oracle(self, seed, tag):
        rng = derive_rng(seed, f"pgd-{tag.value}")
        model = seeded_linear_model(rng, 2, 3, scale=0.9)
        x = rng.standard_normal(2)
        y = int(rng.integers(0, 3))
        eps = 0.25
        clean = vector_loss(model, x, y)
        oracle = boundary_max_loss(lambda v: vector_loss(model, v, y), x, eps, tag.value, count=20_000)
        delta, pgd_loss = attack_one(model, x, y, BallSpec(tag, eps), seed=seed)
        assert pgd_loss >= clean - 1e-9
        assert pgd_loss <= oracle + 1e-6
        assert norm(delta, tag) <= eps + 1e-9

    def test_grid_attack_close_to_pgd_in_2d(self):
        rng = derive_rng(11, "grid-vs-pgd")
        model = seeded_linear_model(rng, 2, 3, scale=0.8)
        points = seeded_points(rng, 4, 2, 3)
        mu = empirical_from_samples(points)
        ball = BallSpec(NormTag.L2, 0.2)
        pgd = adversarial_risk(model, mu, ball, AttackConfig(seed=5))
        grid = adversarial_risk(model, mu, ball, AttackConfig(method="GRID", grid_points=81))
        assert abs(pgd.adversarial_risk - grid.adversarial_risk) <= 1e-3

    def test_l1_attack_feasible_and_improving(self):
        rng = derive_rng(12, "l1")
        model = seeded_linear_model(rng, 3, 2, scale=1.0)
        x = rng.standard_normal(3)
        ball = BallSpec(NormTag.L1, 0.4)
        delta, loss = attack_one(model, x, 0, ball)
        assert norm(delta, NormTag.L1) <= 0.4 + 1e-9
        assert loss >= vector_loss(model, x, 0) - 1e-9

    def test_one_model_pass_per_step(self, monkeypatch):
        """The pass that scores a step's iterate also gives the next step's
        direction: s steps on rows that never stop make s + 1 passes, each
        over the zero start, the warm start and the restarts of every atom."""
        rng = derive_rng(25, "pgd-passes")
        model = seeded_mlp(rng, [2, 4, 2], ActivationTag.TANH, scale=0.9, bias=True)
        points = seeded_points(rng, 5, 2, 2)
        rows = []
        real = models._propagate

        def counted(layers, A):
            rows.append(A.shape[0])
            return real(layers, A)

        monkeypatch.setattr(models, "_propagate", counted)
        steps, warm = 7, [0.1 * points.xs]
        for restarts in (2, 0):
            rows.clear()
            draws = adversarial.restart_draws(1, 5, 2, NormTag.L2, restarts)
            adversarial._pgd(model, points.xs, points.ys, BallSpec(NormTag.L2, 0.2), steps, None, draws, warm)
            assert rows == [(1 + len(warm) + restarts) * 5] * (steps + 1)

    def test_rows_retire_at_exact_fixed_points(self, monkeypatch):
        """Sign steps on a binary linear model drive every LINF row into a
        corner, where its projected step returns it bit for bit; such rows
        stop reaching the model, and the result keeps the bytes it had when
        every row stepped to the end (digest recorded at commit d54108a)."""
        rng = derive_rng(26, "pgd-retire")
        model = seeded_linear_model(rng, 3, 2)
        mu = empirical_from_samples(seeded_points(rng, 6, 3, 2))
        rows = []
        real = models._propagate

        def counted(layers, A):
            rows.append(A.shape[0])
            return real(layers, A)

        monkeypatch.setattr(models, "_propagate", counted)
        config = AttackConfig(seed=3, steps=12, restarts=2)
        result = adversarial_risk(model, mu, BallSpec(NormTag.LINF, 0.3), config)
        S, n = 1 + config.restarts, 6
        assert sum(rows) < S * n * (config.steps + 1)
        assert rows[-1] < S * n
        assert np.array_equal(np.abs(result.perturbations), np.full((n, 3), 0.3))
        digest = hashlib.sha256(result.perturbations.tobytes() + result.losses.tobytes()).hexdigest()
        assert digest == "5af2fdc1338ad7e228a75ef364a3612376770b9b19498ade3ee26e25598260a9"

    @pytest.mark.parametrize("tag", list(NormTag))
    def test_restart_draws_are_each_streams_unit_points(self, tag, monkeypatch):
        """Every atom's unit rows, bit for bit, from its own stream in draw
        order: LINF and L1 draw the random() doubles that uniform(-1, 1)
        scales; L2 draws per restart a normal direction, then its radius
        factor.  Atom 1's first L2 normal draw is all zero, so its row is
        zero and it skips that radius draw."""
        real = derive_rng

        class FirstNormalZero:
            def __init__(self, rng):
                self._rng, self._zeroed = rng, False

            def standard_normal(self, size):
                draw = self._rng.standard_normal(size)
                if self._zeroed:
                    return draw
                self._zeroed = True
                return np.zeros(size)

            def __getattr__(self, name):
                return getattr(self._rng, name)

        def streams(seed, name):
            rng = real(seed, name)
            return FirstNormalZero(rng) if name == "attack/1" else rng

        monkeypatch.setattr(adversarial, "derive_rng", streams)
        atoms, dim, restarts, seed = 4, 3, 3, 11
        draws = adversarial.restart_draws(seed, atoms, dim, tag, restarts)
        assert isinstance(draws, np.ndarray)
        expected = np.zeros((restarts, atoms, dim))
        for i in range(atoms):
            rng = streams(seed, f"attack/{i}")
            for r in range(restarts):
                if tag != NormTag.L2:
                    expected[r, i] = 2.0 * rng.random(dim) - 1.0
                    continue
                direction = rng.standard_normal(dim)
                nd = math.sqrt(float(np.dot(direction, direction)))
                if nd > 0.0:
                    expected[r, i] = direction / nd * rng.uniform() ** (1.0 / dim)
        assert draws.view(np.int64).tolist() == expected.view(np.int64).tolist()
        if tag == NormTag.L2:
            assert not draws[0, 1].any() and draws[1, 1].any()

    @pytest.mark.parametrize("tag", list(NormTag))
    def test_restart_draws_of_an_atom_ignore_the_others(self, tag):
        five = adversarial.restart_draws(4, 5, 3, tag, 2)
        three = adversarial.restart_draws(4, 3, 3, tag, 2)
        assert five[:, :3].view(np.int64).tolist() == three.view(np.int64).tolist()

    @pytest.mark.parametrize("tag", list(NormTag))
    def test_restart_draws_lie_in_the_unit_ball(self, tag):
        draws = adversarial.restart_draws(6, 40, 3, tag, 4)
        assert draws.shape == (4, 40, 3)
        if tag == NormTag.L2:
            # unit direction times a factor in [0, 1], up to rounding
            assert np.all(np.linalg.norm(draws, axis=2) <= 1.0 + 1e-15)
        else:
            assert np.all(np.abs(draws) <= 1.0)
        assert adversarial.restart_draws(6, 40, 3, tag, 0).shape == (0, 40, 3)

    @staticmethod
    def _sweep_digests(tmp_path, norm):
        """sha256 of attack_report.json and bound_curve.csv of a seeded PGD
        sweep over three radii."""
        doc = {
            "seed": 4,
            "dataset": {"generator": "gaussian-blobs", "n": 24, "k": 2, "dim": 2, "seed": 8},
            "model": {"dims": [2, 8, 2], "seed": 6, "init_scale": 0.9},
            "attack": {"epsilons": [0.01, 0.1, 0.5], "norm": norm, "method": "PGD", "steps": 20, "restarts": 2},
        }
        cfg = tmp_path / "attack.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["attack", "--config", str(cfg), "--out", str(out)]) == 0
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("attack_report.json", "bound_curve.csv")}

    # recorded at commit 26a2107, when each PGD step made a second pass to
    # score its iterate; attack_report.json re-recorded when the certificate
    # dropped its objective_decomposition verdict and its fingerprint the
    # constant bound_mode, with no number moved; both re-recorded when the L2
    # operator norm became an upper bound from one SVD, which raised the
    # certificate's floor in its last bits
    def test_pgd_l2_sweep_bytes_pinned(self, tmp_path):
        assert self._sweep_digests(tmp_path, "L2") == {
            "attack_report.json": "0692fbcf7858dc92f0906f47b2baadcd74e8d083e25d67f2f89e6c5ba44f91ea",
            "bound_curve.csv": "f09518bdd60135f4138451b404dc684bbdda7441bee3b479ae251816bd2447b7",
        }

    # recorded at commit d54108a, when each radius drew its restarts with
    # uniform(-eps, eps) and no row retired before its last step;
    # attack_report.json re-recorded when the certificate dropped its
    # objective_decomposition verdict and its fingerprint the constant
    # bound_mode, with no number moved
    @pytest.mark.parametrize(
        "norm, digests",
        [
            (
                "LINF",
                {
                    "attack_report.json": "86827e82aad5c991e1ad0db24651f31a625f576e1ae59d5693e0e396892e3db0",
                    "bound_curve.csv": "8b1ebc2a8cc9ba56306dfbb63477cd93c83044e5b3b48ebf420c7b4a9fe34c7b",
                },
            ),
            (
                "L1",
                {
                    "attack_report.json": "6ae5fa7b6562d6f4a34f3a171a1f491dbdec562ad95c5804f21a38cc37e9996a",
                    "bound_curve.csv": "e9164e5c56808e4a1a6de6711c1daee88aba1f77e5bc889eb9581efb5cf7da70",
                },
            ),
        ],
    )
    def test_pgd_sweep_bytes_pinned(self, tmp_path, norm, digests):
        assert self._sweep_digests(tmp_path, norm) == digests


class TestAdversarialRisk:
    def test_zero_epsilon_equals_empirical(self):
        rng = derive_rng(21, "risk0")
        model = seeded_linear_model(rng, 2, 3)
        mu = empirical_from_samples(seeded_points(rng, 5, 2, 3))
        result = adversarial_risk(model, mu, BallSpec(NormTag.LINF, 0.0), AttackConfig(seed=1))
        assert result.adversarial_risk == pytest.approx(empirical_risk(model, mu))

    def test_single_atom_is_its_pgd_loss(self):
        rng = derive_rng(22, "risk1")
        model = seeded_linear_model(rng, 2, 2)
        points = seeded_points(rng, 1, 2, 2)
        mu = empirical_from_samples(points)
        ball = BallSpec(NormTag.L2, 0.3)
        cfg = AttackConfig(seed=9)
        result = adversarial_risk(model, mu, ball, cfg)
        _, expected = vector_pgd(
            model, points.xs[0], points.ys[0], "L2", 0.3, cfg.steps, None, derive_rng(cfg.seed, "attack/0"), cfg.restarts
        )
        assert result.adversarial_risk == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_epsilon_with_warm_starts(self):
        rng = derive_rng(23, "mono-eps")
        model = seeded_mlp(rng, [2, 4, 2], scale=0.9)
        mu = empirical_from_samples(seeded_points(rng, 4, 2, 2))
        cfg = AttackConfig(seed=3, steps=15, restarts=1)
        results = attack_sweep(model, mu, NormTag.L2, (0.3, 0.02, 0.6, 0.1), cfg)
        assert [r.epsilon for r in results] == [0.02, 0.1, 0.3, 0.6]
        for lo, hi in zip(results, results[1:]):
            assert np.all(hi.losses >= lo.losses)
            assert hi.adversarial_risk >= lo.adversarial_risk

    def test_feasibility_of_all_perturbations(self):
        rng = derive_rng(24, "feas")
        model = seeded_linear_model(rng, 2, 3)
        mu = empirical_from_samples(seeded_points(rng, 6, 2, 3))
        for tag in (NormTag.L1, NormTag.L2, NormTag.LINF):
            result = adversarial_risk(model, mu, BallSpec(tag, 0.25), AttackConfig(seed=7))
            for d in result.perturbations:
                assert norm(d, tag) <= 0.25 + 1e-9
            assert np.all(result.losses >= losses(model, mu.support.xs, mu.support.ys) - 1e-9)

    def test_range_check_squares_the_perturbation_not_the_point(self):
        """Points at 1e200 are in range for an L2 radius of 0.1 (their squares
        never form); a radius whose squared span overflows is a numerical
        failure."""
        model = linear(np.array([[1e-300, 0.0], [0.0, 1e-300]]))
        mu = empirical_from_samples(PointSet([[1e200, 0.0], [0.5, 0.5]], [0, 1], 2))
        result = adversarial_risk(model, mu, BallSpec(NormTag.L2, 0.1), AttackConfig(seed=1))
        assert math.isfinite(result.adversarial_risk)
        with pytest.raises(NumericalError, match="leaves the floating-point range"):
            adversarial_risk(model, mu, BallSpec(NormTag.L2, 1e160), AttackConfig(seed=1))


class TestRobustBound:
    def test_zero_epsilon_both_sides_empirical(self):
        rng = derive_rng(31, "bound0")
        model = seeded_linear_model(rng, 2, 3)
        points = seeded_points(rng, 4, 2, 3)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, 3), 0.0)
        checks = check_adversarial_bound(model, instance, AttackConfig(seed=1))
        assert all(ok for _, ok in checks), checks
        emp = empirical_risk(model, instance.empirical)
        attack = adversarial_risk(model, instance.empirical, BallSpec(NormTag.L2, 0.0), AttackConfig(seed=1))
        assert attack.adversarial_risk == pytest.approx(emp, abs=1e-12)
        assert robust_certificate_for(model, instance).robust_value == pytest.approx(emp, abs=1e-9)

    def test_large_kappa_closed_form_bound(self):
        rng = derive_rng(32, "bound-kappa")
        model = seeded_linear_model(rng, 2, 3, scale=0.8)
        points = seeded_points(rng, 4, 2, 3)
        eps = 0.2
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, math.inf, 3), eps)
        cert = robust_certificate_for(model, instance)
        emp = empirical_risk(model, instance.empirical)
        assert cert.robust_value == pytest.approx(emp + eps * cert.lipschitz_bound_used, abs=1e-9)
        checks = dict(check_adversarial_bound(model, instance, AttackConfig(seed=2)))
        assert all(checks.values()), checks
        assert checks["adversarial_risk_pgd_le_robust_value"]

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_and_membership_seeded(self, seed):
        rng = derive_rng(seed, "bound-seeded")
        k = int(rng.integers(2, 4))
        deep = seed % 2 == 0
        model = seeded_mlp(rng, [2, 3, k], scale=0.8) if deep else seeded_linear_model(rng, 2, k, scale=0.8)
        points = seeded_points(rng, 4, 2, k)
        eps = float(rng.choice([0.05, 0.2, 0.5]))
        tag = NormTag.L2 if seed % 2 else NormTag.LINF
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(tag, 1.0, k), eps)
        checks = dict(check_adversarial_bound(model, instance, AttackConfig(seed=seed)))
        assert all(checks.values()), checks
        assert "adversarial_risk_grid_le_robust_value" in checks  # 2-D: the grid attack runs too
        assert checks["attack_pushforward_inside_ball"]

    def test_pushforward_membership_lp(self):
        """The attack-induced pushforward lies in the transport ball of radius
        max ||delta||, certified by the coupling LP."""
        rng = derive_rng(41, "membership")
        model = seeded_linear_model(rng, 2, 2, scale=1.0)
        points = seeded_points(rng, 5, 2, 2)
        mu = empirical_from_samples(points)
        ball = BallSpec(NormTag.L2, 0.3)
        result = adversarial_risk(model, mu, ball, AttackConfig(seed=13))
        pushed = pushforward(mu, lambda xs: xs + result.perturbations)
        rho = max(norm(d, NormTag.L2) for d in result.perturbations)
        assert transport_cost(mu, pushed, MetricSpec(NormTag.L2, 1.0, 2)) <= rho + 1e-9

    def test_one_pushforward_per_verdict(self, monkeypatch):
        calls = []
        real = suite.pushforward

        def spy(mu, f):
            calls.append(1)
            return real(mu, f)

        monkeypatch.setattr(suite, "pushforward", spy)
        assert check_adversarial_bounds(7, tuples=6).passed
        assert len(calls) == 6

    @pytest.mark.parametrize("tag", [NormTag.L1, NormTag.L2, NormTag.LINF])
    def test_attack_ball_is_the_instance_own(self, monkeypatch, tag):
        """The bound check attacks in the instance's input norm at its radius."""
        balls = []
        real = suite.adversarial_risk

        def spy(model, mu, ball, config):
            balls.append((ball.norm, ball.epsilon))
            return real(model, mu, ball, config)

        monkeypatch.setattr(suite, "adversarial_risk", spy)
        rng = derive_rng(44, "instance-ball")
        model = seeded_linear_model(rng, 2, 3)
        instance = RobustInstance(empirical_from_samples(seeded_points(rng, 4, 2, 3)), MetricSpec(tag, 1.0, 3), 0.2)
        assert all(ok for _, ok in check_adversarial_bound(model, instance, AttackConfig(seed=4)))
        assert balls == [(tag, 0.2), (tag, 0.2)]  # PGD, then the 2-D grid

    def test_binary_linear_label_locked_equality_spot_check(self):
        """Binary antisymmetric logits with label transport forbidden: the
        certified dual bound is empirical + eps * 2||w||, and the exact
        adversarial risk approaches it once every margin sits deep in the
        linear tail of the loss (equality up to O(e^{-|margin|}))."""
        rng = derive_rng(51, "equality-spot")
        w = rng.standard_normal(2)
        w /= np.sqrt(w @ w)
        model = linear(np.stack([w, -w]))
        # margins around -8: badly misclassified, loss slope ~ exactly 1
        xs, ys = [], []
        for _ in range(5):
            x = rng.standard_normal(2)
            y = int(rng.integers(0, 2))
            sign = 1.0 if y == 0 else -1.0
            xs.append(x - sign * w * (w @ x) + sign * w * -4.0)  # project then set margin to -8
            ys.append(y)
        mu = empirical_from_samples(PointSet(xs, ys, 2))
        eps = 0.1
        instance = RobustInstance(mu, MetricSpec(NormTag.L2, math.inf, 2), eps)
        cert = robust_certificate_for(model, instance)
        grid = adversarial_risk(model, mu, BallSpec(NormTag.L2, eps), AttackConfig(method="GRID", grid_points=101))
        emp = empirical_risk(model, mu)
        assert cert.robust_value == pytest.approx(emp + eps * 2.0, abs=1e-9)  # sqrt2*sigma = 2||w||
        gap = cert.robust_value - grid.adversarial_risk
        assert -1e-9 <= gap <= 5e-3
