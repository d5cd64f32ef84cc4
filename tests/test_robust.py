import hashlib
import math

import numpy as np
import pytest

from helpers import linear
from oracles import (
    dense_lambda_grid_min,
    dual_brute_force,
    dual_derivatives,
    dual_objective_at,
    empirical_risk,
    undominated_couplings,
    vector_loss,
)
import wasslip.models as models
import wasslip.robust as robust
from wasslip import io
from wasslip.datasets import gaussian_blobs
from wasslip.measures import (
    DiscreteMeasure,
    MetricSpec,
    PointSet,
    cost_matrix,
    empirical_from_samples,
    label_costs,
)
from wasslip.models import (
    ActivationTag,
    MLP,
    MLPLayer,
    ce_lipschitz_bound,
    ce_slice_lipschitz,
    label_loss_matrix,
    losses as model_losses,
)
from wasslip.numerics import LPProblem, LPStatus, NormTag, NumericalError, solve_lp
from wasslip.robust import (
    RobustInstance,
    _minimize_envelope,
    certificate_table,
    certify_on_table,
    check_envelope_collapse,
    grid_targets,
    kappa_threshold,
    lattice_targets,
    minimize_dual,
    minimize_dual_on_targets,
    primal_robust_risk_lp,
    robust_certificate_for,
)
from wasslip.suite import seeded_finite_instance, seeded_linear_model, seeded_mlp, seeded_points
from wasslip.seeding import derive_rng


def single_atom_instance(rho, kappa=1.0, k=2):
    support = PointSet([[0.0]], [0], k)
    metric = MetricSpec(NormTag.L2, kappa, k)
    return RobustInstance(DiscreteMeasure(support, np.array([1.0])), metric, rho)


def certified_empirical_risk(model, mu):
    """The empirical risk a certificate at rho = 0 reports."""
    instance = RobustInstance(mu, MetricSpec(NormTag.L2, 1.0, mu.support.label_count), 0.0)
    return robust_certificate_for(model, instance).empirical_risk


class TestEmpiricalRisk:
    """The certificate reads its empirical risk off the loss table's own-label
    column."""

    def test_constant_loss(self):
        """Zero weights give the loss log(k) at every point."""
        mu = empirical_from_samples(seeded_points(derive_rng(0, "t"), 5, 2, 2))
        assert certified_empirical_risk(linear(np.zeros((2, 2))), mu) == pytest.approx(math.log(2.0))

    def test_dirac(self):
        model = seeded_linear_model(derive_rng(1, "t"), 2, 2)
        mu = DiscreteMeasure(PointSet([[1.0, 2.0]], [1], 2), np.array([1.0]))
        assert certified_empirical_risk(model, mu) == pytest.approx(vector_loss(model, [1.0, 2.0], 1))

    def test_uniform_three_losses(self):
        model = seeded_linear_model(derive_rng(2, "t"), 1, 2)
        mu = empirical_from_samples(PointSet([[0.0], [1.0], [2.0]], [0, 1, 0], 2))
        expected = sum(vector_loss(model, [x], y) for x, y in ((0.0, 0), (1.0, 1), (2.0, 0))) / 3.0
        assert certified_empirical_risk(model, mu) == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_same_bits_as_the_per_row_losses(self, seed):
        rng = derive_rng(seed, "t-bits")
        model = seeded_mlp(rng, [2, 5, 4, 3], scale=1.3) if seed % 2 else seeded_linear_model(rng, 2, 3)
        mu = empirical_from_samples(seeded_points(rng, 9, 2, 3))
        expected = float(np.dot(mu.weights, model_losses(model, mu.support.xs, mu.support.ys)))
        assert certified_empirical_risk(model, mu) == expected
        assert expected == pytest.approx(empirical_risk(model, mu), rel=1e-14)

    def test_non_finite_loss_reports_index(self):
        """Logits of about 1e400 overflow at the second point only: a
        numerical failure (exit 3 from the CLI), not bad input."""
        model = linear(np.array([[1e200], [-1e200]]))
        mu = empirical_from_samples(PointSet([[0.0], [1e200]], [0, 1], 2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="index 1"):
            certified_empirical_risk(model, mu)


def label_options(instance, table):
    """The label dual's padded option tables, built as `minimize_dual` does."""
    support = instance.empirical.support
    return robust._finite_options(table, label_costs(instance.metric, support.ys, np.arange(support.label_count)))


def linear_dual(instance, model):
    """The label dual of a linear model over lambda >= its certified loss bound."""
    bound = ce_lipschitz_bound(model.layers[0].weights, instance.metric.x_norm)
    return minimize_dual(instance, label_loss_matrix(model, instance.empirical.support.xs), bound)


def label_sup(lam, kappa=1.0, loss_row=(0.2, 0.9)):
    """The dual's inner max over labels for one atom at x=0 with label 0 and
    the given per-label losses: (value, winning label)."""
    instance = single_atom_instance(rho=0.0, kappa=kappa, k=len(loss_row))
    env, active = robust._envelope_eval(*label_options(instance, np.array([loss_row])), lam)
    return float(env[0]), int(active[0])


def dual_at(instance, model, lam):
    """F(lam) of the label dual, by the oracle on the library's label tables."""
    values, dists = label_options(instance, label_loss_matrix(model, instance.empirical.support.xs))
    return dual_objective_at(instance.empirical.weights, values, dists, instance.rho, lam)


class TestInnerLabelSup:
    def test_huge_penalty_picks_own_label(self):
        value, label = label_sup(1e9)
        assert label == 0
        assert value == pytest.approx(0.2)

    def test_zero_lambda_unpenalized_max(self):
        value, label = label_sup(0.0)
        assert label == 1
        assert value == pytest.approx(0.9)

    def test_two_term_enumeration(self):
        # max(0.2, 0.9 - 0.5) = 0.4 at label 1
        value, label = label_sup(0.5)
        assert value == pytest.approx(0.4)
        assert label == 1

    def test_kappa_inf_locks_label(self):
        value, label = label_sup(0.5, kappa=math.inf)
        assert (value, label) == (pytest.approx(0.2), 0)
        # the label tables drop kappa=inf moves at every lambda, 0 included:
        # they cannot lower the dual's infimum over lambda > 0
        value, label = label_sup(0.0, kappa=math.inf)
        assert (value, label) == (pytest.approx(0.2), 0)


class TestDualObjective:
    def test_sentinel_below_bound(self):
        rng = derive_rng(3, "dualobj")
        model = seeded_linear_model(rng, 2, 3, scale=1.0)
        points = seeded_points(rng, 4, 2, 3)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, 3), 0.1)
        bound = ce_lipschitz_bound(model.layers[0].weights, NormTag.L2)
        # the dual is only ever minimized at or above the Lipschitz bound
        dual = linear_dual(instance, model)
        assert dual.lambda_floor == bound and dual.lambda_star >= bound
        assert math.isfinite(dual.value)

    def test_rho_zero_large_kappa_equals_empirical(self):
        rng = derive_rng(4, "dualobj2")
        model = seeded_linear_model(rng, 2, 3, scale=0.7)
        points = seeded_points(rng, 4, 2, 3)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1e9, 3), 0.0)
        bound = ce_lipschitz_bound(model.layers[0].weights, NormTag.L2)
        emp = empirical_risk(model, instance.empirical)
        assert dual_at(instance, model, bound) == pytest.approx(emp, abs=1e-9)

    def test_piecewise_hand_values(self):
        """Single atom, two labels, losses (0.2, 0.9), kappa=1: the objective is
        lam*rho + max(0.2, 0.9 - lam)."""
        instance = single_atom_instance(rho=0.3)
        for lam in (0.0, 0.7, 2.0):
            env, _ = label_sup(lam)
            expected = lam * 0.3 + max(0.2, 0.9 - lam)
            assert lam * instance.rho + env == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_convex_in_lambda(self, seed):
        rng = derive_rng(seed, "lam-convex")
        model = seeded_linear_model(rng, 2, 3, scale=0.8)
        points = seeded_points(rng, 5, 2, 3)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, 3), 0.2)
        bound = ce_lipschitz_bound(model.layers[0].weights, NormTag.L2)
        lams = bound + rng.uniform(0.0, 3.0, 30)
        for _ in range(50):
            a, b = rng.choice(lams, 2, replace=False)
            mid = dual_at(instance, model, 0.5 * (a + b))
            avg = 0.5 * (dual_at(instance, model, a) + dual_at(instance, model, b))
            assert avg - mid >= -1e-9


class TestMinimizeDualOnTargets:
    def test_delta_zero_targets_hand_value(self):
        """mu = delta_0, targets {0, 1}, losses (0, 1), c = |x-y|, rho = 0.5:
        optimum 0.5 at lambda* = 1."""
        instance = single_atom_instance(0.5)
        targets = PointSet([[0.0], [1.0]], [0, 0], 2)
        instance = RobustInstance(instance.empirical, instance.metric, 0.5, targets)
        losses = np.array([0.0, 1.0])
        dual = minimize_dual_on_targets(instance, losses)
        lp = primal_robust_risk_lp(instance, losses)
        assert dual.value == pytest.approx(0.5, abs=1e-12)
        assert dual.lambda_star == pytest.approx(1.0, abs=1e-12)
        assert lp == pytest.approx(0.5, abs=1e-9)

    def test_matches_brute_force_lambda_grid(self):
        """1-atom/2-label instance, rho=0.3: min over lambda of
        0.3*lam + max(0.2, 0.9-lam) is 0.41 at the breakpoint 0.7."""
        instance = single_atom_instance(0.3)
        targets = PointSet([[0.0], [0.0]], [0, 1], 2)
        instance = RobustInstance(instance.empirical, instance.metric, 0.3, targets)
        losses = np.array([0.2, 0.9])
        dual = minimize_dual_on_targets(instance, losses)
        assert dual.value == pytest.approx(0.41, abs=1e-12)
        assert dual.lambda_star == pytest.approx(0.7, abs=1e-12)
        phi = lambda lam: lam * 0.3 + max(0.2 - lam * 0.0, 0.9 - lam * 1.0)
        assert dual.value == pytest.approx(dense_lambda_grid_min(phi, 0.0, 2.0, points=100_000), abs=1e-6)

    def test_targets_beyond_the_budget_raise(self):
        """Every target costs at least 1 from the atom and rho = 0.5: no
        distribution in the ball lives on the targets, and the dual falls
        without bound."""
        instance = single_atom_instance(0.5)
        targets = PointSet([[1.0], [2.0]], [0, 0], 2)
        instance = RobustInstance(instance.empirical, instance.metric, 0.5, targets)
        with pytest.raises(ValueError, match="unbounded below"):
            minimize_dual_on_targets(instance, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("seed", range(25))
    def test_strong_duality_seeded(self, seed):
        rng = derive_rng(seed, "strong-duality-unit")
        instance, losses = seeded_finite_instance(rng)
        dual = minimize_dual_on_targets(instance, losses)
        lp = primal_robust_risk_lp(instance, losses)
        assert abs(dual.value - lp) <= 1e-6 * (1.0 + abs(dual.value))
        # solution invariants
        weighted = float(np.dot(instance.empirical.weights, dual.envelopes))
        assert dual.value == pytest.approx(weighted + dual.lambda_star * instance.rho, abs=1e-10)
        assert dual.lambda_star >= 0.0


class TestPrimalLP:
    def test_lattice_targets_row_order(self):
        """Row-major lattice crossed with every label, then the support: the
        LP's column order, and with it the pivot path."""
        support = PointSet([[5.0, 5.0], [6.0, 6.0]], [1, 0], 3)
        instance = RobustInstance(empirical_from_samples(support), MetricSpec(NormTag.L2, 1.0, 3), 0.1)
        targets = lattice_targets(instance, [np.array([0.0, 1.0]), np.array([2.0, 3.0])])
        lattice = [[0.0, 2.0], [0.0, 3.0], [1.0, 2.0], [1.0, 3.0]]
        assert targets.xs.tolist() == [row for row in lattice for _ in range(3)] + [[5.0, 5.0], [6.0, 6.0]]
        assert targets.ys.tolist() == [0, 1, 2] * 4 + [1, 0]
        assert targets.label_count == 3

    def test_rho_zero_forces_identity(self):
        rng = derive_rng(9, "lp0")
        model = seeded_linear_model(rng, 2, 3, scale=0.8)
        points = seeded_points(rng, 4, 2, 3)
        metric = MetricSpec(NormTag.L2, 1.0, 3)
        base = RobustInstance(empirical_from_samples(points), metric, 0.0)
        instance = RobustInstance(base.empirical, metric, 0.0, grid_targets(base, 5, pad=0.2))
        targets = instance.candidate_targets
        losses = model_losses(model, targets.xs, targets.ys)
        lp = primal_robust_risk_lp(instance, losses)
        assert lp == pytest.approx(empirical_risk(model, instance.empirical), abs=1e-9)

    def test_budget_saturation_hits_max_loss(self):
        support = PointSet([[0.0], [1.0]], [0, 0], 2)
        metric = MetricSpec(NormTag.L2, 1.0, 2)
        targets = PointSet([[0.0], [1.0], [2.0]], [0, 0, 1], 2)
        mu = empirical_from_samples(support)
        losses = np.array([0.1, 0.4, 3.0])
        # worst target costs 3 from atom 0 (|2-0| + kappa) and 2 from atom 1
        instance = RobustInstance(mu, metric, 3.0, targets)
        assert primal_robust_risk_lp(instance, losses) == pytest.approx(3.0, abs=1e-9)

    def test_oracle_lp_pivot_budget(self, monkeypatch):
        """An oracle LP of the benchmark's shape (40 atoms, a 13x13 grid, 2
        labels and the support: 41 rows, 15,120 finite couplings) took 833
        pivots under Bland pricing and 87 under Dantzig pricing with its
        fallback; over its 1,250 undominated couplings it takes 48."""
        solutions = []

        def spy(problem):
            solutions.append(solve_lp(problem))
            return solutions[-1]

        points = gaussian_blobs(40, 2, 2, seed=7)
        metric = MetricSpec(NormTag.L2, 1.0, 2)
        base = RobustInstance(empirical_from_samples(points), metric, 0.1)
        instance = RobustInstance(base.empirical, metric, 0.1, grid_targets(base, 13, pad=0.1))
        targets = instance.candidate_targets
        target_losses = model_losses(seeded_linear_model(derive_rng(7, "lp-budget"), 2, 2, 0.6), targets.xs, targets.ys)
        monkeypatch.setattr(robust, "solve_lp", spy)
        lp = primal_robust_risk_lp(instance, target_losses)
        assert len(solutions[0].point) == 1_250
        assert solutions[0].pivots <= 150
        assert lp == pytest.approx(minimize_dual_on_targets(instance, target_losses).value, rel=1e-12)


def tied_instance(rng):
    """A small oracle instance full of ties: integer coordinates (so equal
    costs), duplicate targets, losses from a short list (so equal losses),
    kappa inf on some draws and zero-weight atoms."""
    k = int(rng.integers(2, 4))
    dim = int(rng.integers(1, 3))
    n = int(rng.integers(1, 6))
    support = PointSet(rng.integers(0, 3, (n, dim)).astype(float), rng.integers(0, k, n), k)
    extra = rng.integers(0, 3, (int(rng.integers(0, 9)), dim)).astype(float)
    copies = rng.integers(0, n, int(rng.integers(0, 4)))
    xs = np.concatenate([support.xs, extra, support.xs[copies]])
    ys = np.concatenate([support.ys, rng.integers(0, k, len(extra)), support.ys[copies]])
    targets = PointSet(xs, ys, k)
    raw = rng.uniform(0.1, 1.0, n) * (rng.uniform(size=n) < 0.7)
    raw[int(rng.integers(0, n))] += 0.5
    weights = raw / raw.sum()
    metric = MetricSpec(list(NormTag)[int(rng.integers(0, 3))], float(rng.choice([0.5, 1.0, math.inf])), k)
    rho = float(rng.choice([0.0, 0.5, 1.5, rng.uniform(0.0, 3.0)]))
    losses = np.where(rng.uniform(size=len(targets)) < 0.8, rng.choice([0.0, 0.5, 1.0, 2.0], len(targets)), rng.uniform(-1.0, 2.0, len(targets)))
    return RobustInstance(DiscreteMeasure(support, weights), metric, rho, targets), losses


class TestDominancePruning:
    """The oracle LP drops the couplings another candidate of the same atom
    dominates.  Pruning too much can only lower the oracle value and so
    make the dual's verdict easier to pass: the kept set must equal a
    pairwise brute force, and the value the LP over every finite coupling."""

    @pytest.mark.parametrize("seed", range(200))
    def test_kept_set_and_value_match_every_finite_coupling(self, seed):
        instance, losses = tied_instance(derive_rng(seed, "dominance"))
        C = cost_matrix(instance.metric, instance.empirical.support, instance.candidate_targets)
        atoms, targets = robust._undominated(losses, C)
        assert len(set(zip(atoms.tolist(), targets.tolist()))) == atoms.size
        assert set(zip(atoms.tolist(), targets.tolist())) == undominated_couplings(losses, C)
        rows, cols = np.nonzero(np.isfinite(C))
        marginals = (rows[None, :] == np.arange(len(C))[:, None]).astype(float)
        full = solve_lp(LPProblem(losses[cols], marginals, instance.empirical.weights, C[rows, cols][None, :], [instance.rho]))
        assert full.status == LPStatus.OPTIMAL
        assert abs(primal_robust_risk_lp(instance, losses) - full.value) <= 1e-12 * max(1.0, abs(full.value))

    def test_instances_hold_the_ties(self):
        """The seeded instances reach every case the rule must break."""
        seen = {"duplicate targets": 0, "equal cost, unequal loss": 0, "equal loss, unequal cost": 0, "kappa inf": 0, "zero weight": 0}
        for seed in range(200):
            instance, losses = tied_instance(derive_rng(seed, "dominance"))
            C = cost_matrix(instance.metric, instance.empirical.support, instance.candidate_targets)
            xs = instance.candidate_targets.xs
            seen["duplicate targets"] += len(np.unique(xs, axis=0)) < len(xs)
            same_cost = (C[:, :, None] == C[:, None, :]) & np.isfinite(C)[:, :, None]
            same_loss = losses[:, None] == losses[None, :]
            seen["equal cost, unequal loss"] += bool(np.any(same_cost & ~same_loss))
            seen["equal loss, unequal cost"] += bool(np.any(~same_cost & same_loss & np.isfinite(C)[:, :, None]))
            seen["kappa inf"] += math.isinf(instance.metric.kappa)
            seen["zero weight"] += bool(np.any(instance.empirical.weights == 0.0))
        assert min(seen.values()) >= 20, seen


class TestMinimizeDualModel:
    def test_rho_zero_value_is_empirical(self):
        rng = derive_rng(11, "md0")
        model = seeded_linear_model(rng, 2, 3, scale=0.9)
        points = seeded_points(rng, 5, 2, 3)
        for kappa in (0.7, 2.0, math.inf):
            instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, kappa, 3), 0.0)
            dual = linear_dual(instance, model)
            assert dual.value == pytest.approx(empirical_risk(model, instance.empirical), abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lambda_grid_brute_force(self, seed):
        """The kink sweep agrees with a dense-lambda brute force built
        directly from the loss table (vectorized, independent of the engine)."""
        rng = derive_rng(seed, "md-grid")
        model = seeded_linear_model(rng, 2, 3, scale=0.8)
        points = seeded_points(rng, 4, 2, 3)
        rho = float(rng.uniform(0.0, 1.0))
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, 3), rho)
        dual = linear_dual(instance, model)
        bound = ce_lipschitz_bound(model.layers[0].weights, NormTag.L2)

        labels = points.ys
        L = np.array([[vector_loss(model, x, y) for y in range(3)] for x in points.xs])
        dy = (labels[:, None] != np.arange(3)).astype(float)
        w = instance.empirical.weights

        def phi(lam):
            return lam * rho + float(np.dot(w, np.max(L - lam * 1.0 * dy, axis=1)))

        brute = dense_lambda_grid_min(phi, bound, max(dual.lambda_star * 2.0, bound + 5.0), points=20_000)
        assert dual.value == pytest.approx(brute, abs=1e-6)
        assert dual.value <= brute + 1e-12  # the sweep is exact, the grid is not
        assert dual.lambda_star >= bound - 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_lp_on_matched_targets_when_unconstrained(self, seed):
        """With a small model scale and small rho the dual optimum sits above
        the Lipschitz bound, and the dual equals the LP on the candidate set
        (empirical xs crossed with all labels) to 1e-6."""
        rng = derive_rng(seed, "md-match")
        model = seeded_linear_model(rng, 2, 3, scale=0.25)
        points = seeded_points(rng, 4, 2, 3)
        base = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, 3), float(rng.uniform(0.0, 0.2)))
        matched = PointSet(
            [x for x in points.xs for _ in range(3)] + list(points.xs),
            [y for _ in points.xs for y in range(3)] + list(points.ys),
            3,
        )
        instance = RobustInstance(base.empirical, base.metric, base.rho, matched)
        dual = linear_dual(instance, model)
        losses = model_losses(model, matched.xs, matched.ys)
        lp = primal_robust_risk_lp(instance, losses)
        finite_dual = minimize_dual_on_targets(instance, losses)
        assert dual.value >= lp - 1e-9
        if finite_dual.lambda_star >= ce_lipschitz_bound(model.layers[0].weights, NormTag.L2) - 1e-12:
            assert abs(dual.value - lp) <= 1e-6 * (1.0 + abs(dual.value))

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_in_rho_and_kappa(self, seed):
        rng = derive_rng(seed, "mono")
        model = seeded_linear_model(rng, 2, 3, scale=0.8)
        points = seeded_points(rng, 4, 2, 3)
        mu = empirical_from_samples(points)
        values_rho = []
        for rho in (0.0, 0.1, 0.3, 0.8):
            instance = RobustInstance(mu, MetricSpec(NormTag.L2, 1.0, 3), rho)
            values_rho.append(linear_dual(instance, model).value)
        assert all(b >= a - 1e-9 for a, b in zip(values_rho, values_rho[1:]))
        values_kappa = []
        for kappa in (0.5, 1.0, 2.0, 8.0):
            instance = RobustInstance(mu, MetricSpec(NormTag.L2, kappa, 3), 0.4)
            values_kappa.append(linear_dual(instance, model).value)
        assert all(b <= a + 1e-9 for a, b in zip(values_kappa, values_kappa[1:]))

    @pytest.mark.parametrize("tag", [NormTag.L1, NormTag.L2, NormTag.LINF])
    @pytest.mark.parametrize("seed", range(3))
    def test_weak_duality_against_any_grid(self, seed, tag):
        rng = derive_rng(seed, f"weak-{tag.value}")
        model = seeded_linear_model(rng, 2, 3, scale=0.7)
        points = seeded_points(rng, 4, 2, 3)
        rho = float(rng.uniform(0.05, 0.6))
        base = RobustInstance(empirical_from_samples(points), MetricSpec(tag, 1.0, 3), rho)
        dual = linear_dual(base, model)
        for side in (3, 6):
            instance = RobustInstance(base.empirical, base.metric, rho, grid_targets(base, side, pad=0.3))
            targets = instance.candidate_targets
            losses = model_losses(model, targets.xs, targets.ys)
            assert dual.value >= primal_robust_risk_lp(instance, losses) - 1e-9


class TestKappaThreshold:
    @pytest.mark.parametrize("seed", range(8))
    def test_doubled_threshold_gives_closed_form(self, seed):
        rng = derive_rng(seed, "kthresh")
        model = seeded_linear_model(rng, 2, 3, scale=0.8)
        points = seeded_points(rng, 5, 2, 3)
        rho = float(rng.uniform(0.05, 1.0))
        mu = empirical_from_samples(points)
        bound = ce_lipschitz_bound(model.layers[0].weights, NormTag.L2)
        base = RobustInstance(mu, MetricSpec(NormTag.L2, 1.0, 3), rho)
        kappa0 = kappa_threshold(base, label_loss_matrix(model, points.xs), bound)
        assert math.isfinite(kappa0)
        instance = RobustInstance(mu, MetricSpec(NormTag.L2, 2.0 * kappa0, 3), rho)
        dual = linear_dual(instance, model)
        emp = empirical_risk(model, mu)
        assert dual.value == pytest.approx(emp + rho * bound, abs=1e-9)
        assert np.array_equal(dual.active_labels, points.ys)

    def test_zero_bound_returns_inf(self):
        model = linear(np.zeros((2, 2)))
        points = seeded_points(derive_rng(0, "z"), 3, 2, 2)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, 2), 0.1)
        assert kappa_threshold(instance, label_loss_matrix(model, points.xs), 0.0) == math.inf


class TestLabelMetric:
    """`label_costs` and `kappa_threshold` against their formulas on the
    explicit 0/1 label table dy = 1 - I, bit for bit."""

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, math.inf])
    def test_label_costs_match_the_table_formula(self, kappa):
        rng = derive_rng(3, "label-costs")
        source, target = rng.integers(0, 4, 9), rng.integers(0, 4, 6)
        dy = (1.0 - np.eye(4))[np.ix_(source, target)]
        expected = np.where(dy > 0.0, math.inf, 0.0) if math.isinf(kappa) else kappa * dy
        got = label_costs(MetricSpec(NormTag.L2, kappa, 4), source, target)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, math.inf])
    @pytest.mark.parametrize("seed", range(3))
    def test_kappa_threshold_matches_the_table_formula(self, seed, kappa):
        rng = derive_rng(seed, "kappa-threshold-bits")
        model = seeded_mlp(rng, [2, 5, 4], bias=True)
        points = seeded_points(rng, 7, 2, 4)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, kappa, 4), 0.1)
        table = label_loss_matrix(model, points.xs)
        l_bound = models.loss_lipschitz(model, NormTag.L2)
        labels = points.ys
        dy = (1.0 - np.eye(4))[labels]
        gain = (table - table[np.arange(len(labels)), labels][:, None])[dy > 0.0] / (l_bound * dy[dy > 0.0])
        expected = max(float(np.max(gain, initial=0.0)), 1e-9)
        assert kappa_threshold(instance, table, l_bound).hex() == expected.hex()


class TestCertificates:
    def test_rho_zero_kappa_inf_equals_empirical(self):
        rng = derive_rng(21, "cert0")
        model = seeded_linear_model(rng, 2, 3, scale=0.8)
        points = seeded_points(rng, 5, 2, 3)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, math.inf, 3), 0.0)
        cert = robust_certificate_for(model, instance)
        assert cert.robust_value == pytest.approx(cert.empirical_risk, abs=1e-9)
        assert all(ok for _, ok in cert.verdicts)

    def test_grid_refinement_gap_monotone(self):
        rng = derive_rng(22, "cert-grid")
        model = seeded_linear_model(rng, 2, 3, scale=0.5)
        points = seeded_points(rng, 4, 2, 3)
        rho = 0.25
        base = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, 3), rho)
        xs = points.xs
        lo = xs.min(axis=0) - (rho + 0.2)
        hi = xs.max(axis=0) + (rho + 0.2)
        fine_axes = [np.linspace(lo[d], hi[d], 17) for d in range(2)]
        gaps = []
        for step in (4, 2, 1):  # nested 5 -> 9 -> 17 lattices
            axes = [ax[::step] for ax in fine_axes]
            instance = RobustInstance(base.empirical, base.metric, rho, lattice_targets(base, axes))
            cert = robust_certificate_for(model, instance)
            assert cert.oracle_gap >= -1e-9
            gaps.append(cert.oracle_gap)
        assert gaps[1] <= gaps[0] + 1e-9
        assert gaps[2] <= gaps[1] + 1e-9

    def test_value_below_empirical_risk_raises(self, monkeypatch):
        """A dual value more than 1e-9 below the empirical risk is a
        numerical failure, raised before any certificate is built."""
        rng = derive_rng(25, "cert-below")
        points = seeded_points(rng, 5, 2, 3)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, 3), 0.2)
        shared = certificate_table(seeded_linear_model(rng, 2, 3), instance.empirical, NormTag.L2)
        real = robust.minimize_dual
        monkeypatch.setattr(robust, "minimize_dual", lambda *args: real(*args)._replace(value=shared.empirical_risk - 1e-6))
        with pytest.raises(NumericalError, match="fell below the empirical risk"):
            certify_on_table(instance, shared)

    def test_lipschitz_bound_computed_once(self, monkeypatch):
        calls = []

        def counting(model, tag):
            calls.append(tag)
            return models.loss_lipschitz(model, tag)

        monkeypatch.setattr(robust, "loss_lipschitz", counting)
        rng = derive_rng(23, "cert-once")
        points = seeded_points(rng, 5, 2, 3)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, 3), 0.2)
        model = seeded_linear_model(rng, 2, 3)
        cert = robust_certificate_for(model, instance)
        assert len(calls) == 1
        assert cert.lipschitz_bound_used == ce_lipschitz_bound(model.layers[0].weights, NormTag.L2)
        push = robust_certificate_for(seeded_mlp(rng, [2, 4, 3]), instance)
        assert len(calls) == 2
        assert push.lipschitz_bound_used > 0.0

    def test_one_forward_pass_per_certificate(self, monkeypatch):
        """The loss table is the one pass over the support; the LP oracle adds
        one pass over its candidate targets."""
        rows = []
        real = models._propagate

        def spy(layers, A):
            rows.append(A.shape[0])
            return real(layers, A)

        monkeypatch.setattr(models, "_propagate", spy)
        rng = derive_rng(24, "cert-passes")
        points = seeded_points(rng, 5, 2, 3)
        model = seeded_mlp(rng, [2, 4, 4, 3])
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, 3), 0.2)
        robust_certificate_for(model, instance)
        assert rows == [5]
        with_oracle = RobustInstance(instance.empirical, instance.metric, 0.2, grid_targets(instance, 4))
        assert all(ok for _, ok in robust_certificate_for(model, with_oracle).verdicts)
        assert rows == [5, 5, len(with_oracle.candidate_targets)]


class TestGoldenCertificates:
    """sha256 of `io.dumps(cert.to_json_dict())` on seeded instances, recorded
    when linear models still had a model type and a certificate route of their
    own: certifying a linear model as the one-layer MLP with an empty feature
    map must not move a bit.  The mlp LINF kappa-inf digest was recorded with
    the certified loss constant on the last commit that also offered the
    plain operator norm.  The linear L1 kappa-1, linear L2 kappa-inf and mlp
    L2 grid digests were re-recorded when the LP oracle became a revised
    simplex, which moved their oracle_value and oracle_gap in the last bits;
    the linear L1 kappa-1 grid digest again when the oracle LP dropped its
    dominated couplings.  All fourteen were re-recorded when the certificate
    dropped its always-true objective_decomposition verdict; no number
    moved.  The five L2 digests were re-recorded when the L2 operator norm
    became an upper bound from one SVD, which raised lambda_star and the
    certified value by about 1e-14 relative."""

    CASES = [
        ("linear", NormTag.L1, 1.0, False, "407fb05e7cd4653ae04fcdcce360816dc8f30976f0db0e8d385ab6646e9952c5"),
        ("linear", NormTag.L1, 1.0, True, "80b071942e2df674f15547fdb589a1e230c7c267d96d0bf9e484b778e4a97f2d"),
        ("linear", NormTag.L1, math.inf, False, "ad100194d4b432d9bd39d9b083e87fb4ff8c62df5c4bd852ec6abc2c7ec5b0bc"),
        ("linear", NormTag.L1, math.inf, True, "7098c1ee0112291158f8876e9b0a850e5861c54e05474dcab15bff01d052c10d"),
        ("linear", NormTag.L2, 1.0, False, "f9c8b3e8bcb01df2cbfe09558f44308d901e87456e7aa98cdc6c7c531c50ff95"),
        ("linear", NormTag.L2, 1.0, True, "cb978d6926928a6a26e11473bdf99a6902d2f44ba2f6f288c96884b7be55ea5e"),
        ("linear", NormTag.L2, math.inf, False, "6b8f6ea2986202edcc33afb76c7a8b8dcfecc3eddff7f327c5e9a062dc1e100f"),
        ("linear", NormTag.L2, math.inf, True, "2cc0cbce157eb19273e7128efdc301bbe61f7d179a11963f771b1e2de3d86455"),
        ("linear", NormTag.LINF, 1.0, False, "bbbd1070c72f329330a91b90be3175624a5571c92dac9c6a8ecd5bf5d5197346"),
        ("linear", NormTag.LINF, 1.0, True, "801d5fe6ba36e9a111ff7be3c9a9b0bc78ebd832e6ebda7c8a9f275a0bd8f64e"),
        ("linear", NormTag.LINF, math.inf, False, "ba05ba79281b395807b4de2a1ca3e79e31c49f7e3d8c33c77ebf22a91dafcdb8"),
        ("linear", NormTag.LINF, math.inf, True, "72529e4228adcb7bb5b3fe6d3c86d89b4a8d417e474fa263afd2e2678639b1cb"),
        ("mlp", NormTag.L2, 1.0, True, "e2865747b8964f7500e8b8e012ac4af77b33edb061c6feb7f6a69d5c3b215afc"),
        ("mlp", NormTag.LINF, math.inf, False, "203c2f0c00fccc6c5e0360441e54c30223d5a3a4bbc12d762946cd02467e2ca0"),
    ]

    # the "-certified" suffix keeps the ids the cases had when a second,
    # unsound loss constant could be selected
    @pytest.mark.parametrize(
        "kind, tag, kappa, grid, digest",
        CASES,
        ids=[f"{c[0]}-{c[1].value}-{c[2]}-{'grid' if c[3] else 'dual'}-certified" for c in CASES],
    )
    def test_certificate_bytes_pinned(self, kind, tag, kappa, grid, digest):
        rng = derive_rng(7, f"golden/{kind}/{tag.value}/{kappa}/{grid}")
        points = seeded_points(rng, 6, 2, 3)
        if kind == "linear":
            model = seeded_linear_model(rng, 2, 3, scale=0.8)
        else:
            model = seeded_mlp(rng, [2, 4, 3], scale=0.9, bias=True)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(tag, kappa, 3), 0.3)
        if grid:
            instance = RobustInstance(instance.empirical, instance.metric, instance.rho, grid_targets(instance, 5, pad=0.1))
        cert = robust_certificate_for(model, instance)
        assert (cert.oracle_value is not None) == grid
        assert hashlib.sha256(io.dumps(cert.to_json_dict()).encode()).hexdigest() == digest


class TestPushforward:
    """Deep models: the label dual on the model's own loss table over lambda
    >= bound(head) * lip(phi), in the input metric."""

    def test_identity_feature_map_reduces_to_direct_dual(self):
        rng = derive_rng(31, "pf-id")
        k = 3
        W = rng.standard_normal((k, 2))
        mlp = MLP((MLPLayer(np.eye(2), ActivationTag.IDENTITY), MLPLayer(W, ActivationTag.IDENTITY)))
        points = seeded_points(rng, 4, 2, k)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, k), 0.3)
        push = robust_certificate_for(mlp, instance)
        direct = robust_certificate_for(linear(W), instance)
        assert push.robust_value == pytest.approx(direct.robust_value, abs=1e-9)
        assert push.lambda_star == pytest.approx(direct.lambda_star, abs=1e-9)
        assert push.lipschitz_bound_used == pytest.approx(direct.lipschitz_bound_used, abs=1e-9)

    def test_scaled_identity_feature_map(self):
        """phi = c*I multiplies the radius by c and scales features by c; the
        resulting value must match a direct evaluation on the scaled data."""
        rng = derive_rng(32, "pf-scale")
        k, c = 3, 1.7
        W = 0.6 * rng.standard_normal((k, 2))
        mlp = MLP((MLPLayer(c * np.eye(2), ActivationTag.IDENTITY), MLPLayer(W, ActivationTag.IDENTITY)))
        points = seeded_points(rng, 4, 2, k)
        rho, kappa = 0.2, 1.0
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, kappa, k), rho)
        push = robust_certificate_for(mlp, instance)

        scaled_points = PointSet(c * points.xs, points.ys, k)
        scaled_instance = RobustInstance(
            empirical_from_samples(scaled_points), MetricSpec(NormTag.L2, kappa * c, k), rho * c
        )
        direct = robust_certificate_for(linear(W), scaled_instance)
        assert push.robust_value == pytest.approx(direct.robust_value, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_dominates_input_space_grid_oracle(self, seed):
        rng = derive_rng(seed, "pf-grid")
        k = int(rng.integers(2, 4))
        activation = ActivationTag.TANH if seed % 2 else ActivationTag.RELU
        mlp = seeded_mlp(rng, [2, 3, k], activation=activation, scale=0.9)
        points = seeded_points(rng, 4, 2, k)
        rho = float(rng.uniform(0.05, 0.4))
        base = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, k), rho)
        instance = RobustInstance(base.empirical, base.metric, rho, grid_targets(base, 7, pad=0.1))
        cert = robust_certificate_for(mlp, instance)
        assert cert.oracle_value is not None
        assert cert.robust_value >= cert.oracle_value - 1e-8

    def test_zero_feature_map_degenerates_to_empirical(self):
        k = 2
        mlp = MLP((MLPLayer(np.zeros((2, 2)), ActivationTag.RELU), MLPLayer(np.eye(2), ActivationTag.IDENTITY)))
        points = seeded_points(derive_rng(1, "pf0"), 3, 2, k)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, k), 0.4)
        cert = robust_certificate_for(mlp, instance)
        assert cert.robust_value == pytest.approx(cert.empirical_risk, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.0, 0.4, 2.0])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, math.inf])
    @pytest.mark.parametrize("tag", [NormTag.L1, NormTag.L2, NormTag.LINF])
    def test_constant_feature_map_with_bias_is_exact(self, tag, kappa, rho):
        """Zero hidden weights and non-zero biases: lip(phi) = 0, yet the
        logits differ by label, so label moves pay.  The loss is constant in
        x, so the LP on the support crossed with every label is the exact
        supremum, and the certificate must equal it."""
        rng = derive_rng(3, "pf-const")
        k = 3
        hidden = MLPLayer(np.zeros((3, 2)), ActivationTag.RELU, rng.uniform(0.5, 1.5, 3))
        mlp = MLP((hidden, MLPLayer(rng.standard_normal((k, 3)), ActivationTag.IDENTITY, rng.standard_normal(k))))
        points = seeded_points(rng, 5, 2, k)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(tag, kappa, k), rho)
        cert = robust_certificate_for(mlp, instance)
        assert cert.lipschitz_bound_used == 0.0 and all(ok for _, ok in cert.verdicts)
        targets = PointSet(np.repeat(points.xs, k, axis=0), np.tile(np.arange(k), len(points)), k)
        exact = RobustInstance(instance.empirical, instance.metric, rho, targets)
        lp = primal_robust_risk_lp(exact, model_losses(mlp, targets.xs, targets.ys))
        assert cert.robust_value == pytest.approx(lp, abs=1e-12)


def _dual_table(rng, case: str):
    """(weights, values, dists, rho, lam_lo) for one case of the dual the kink
    sweep must get right.  Apart from "continuous" and the lam_lo of
    "tie_at_lam_lo", every number is a multiple of 1/8 and every distance an
    integer, so ties, concurrent lines and flat pieces (rho equal to a
    weighted distance sum) are exact."""
    n, k = int(rng.integers(1, 25)), int(rng.integers(2, 7))
    own = (np.arange(n), rng.integers(0, k, n))  # each atom keeps a zero-cost option
    weights = rng.integers(1, 9, n) / 8.0
    values = rng.integers(-16, 17, (n, k)) / 8.0
    dists = rng.integers(1, 5, (n, k)).astype(float)
    dists[own] = 0.0
    rho, lam_lo = int(rng.integers(0, 9)) / 8.0, 0.0
    if case == "continuous":
        weights, values = rng.uniform(0.0, 1.0, n), rng.standard_normal((n, k))
        dists = rng.uniform(0.0, 2.0, (n, k))
        dists[own] = 0.0
        rho, lam_lo = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 0.5))
    elif case == "padded":  # kappa = inf: moves off the atom's own label are padded out
        values[(rng.uniform(size=(n, k)) < 0.5) & (dists > 0.0)] = -math.inf
        dists[~np.isfinite(values)] = 0.0
    elif case == "tied_distances":  # the 0-1 label metric times kappa
        dists[dists > 0.0] = 1.5
    elif case == "tie_at_lam_lo":  # a farther option ties the top score at lam_lo, up to rounding
        lam_lo = 0.3
        top = np.max(values - lam_lo * dists, axis=1)
        far = np.argmax(dists, axis=1)
        values[np.arange(n), far] = top + lam_lo * dists[np.arange(n), far]
    elif case == "lam_lo_above_kinks":  # crossings are at most 4 here
        lam_lo = 64.0
    elif case == "zero_weights":
        weights[rng.uniform(size=n) < 0.5] = 0.0
    elif case == "concurrent":  # each atom's lines but one meet in a single point
        meet = rng.integers(0, 9, (n, 1)) / 8.0
        values[:, 1:] = rng.integers(-8, 9, (n, 1)) / 8.0 + meet * dists[:, 1:]
    return weights, values, dists, rho, lam_lo


class TestKinkSweep:
    def test_huge_option_table_stays_exact(self):
        """500 concurrent lines of one atom: the sweep must land on the kink
        (here at lambda = 0.01)."""
        j = np.arange(500, dtype=float)
        values = (0.01 * j)[None, :]
        dists = j[None, :]
        lam, value, env, active = _minimize_envelope(np.array([1.0]), values, dists, rho=0.5, lam_lo=0.0)
        assert value == pytest.approx(0.005, abs=1e-9)
        assert lam == pytest.approx(0.01, abs=1e-6)

    def test_kink_rounded_below_lam_lo_counts_as_lam_lo(self):
        """The first line scores higher at lam_lo, yet its computed crossing
        with the second falls below lam_lo by rounding.  lambda* must not
        undercut lam_lo (the Lipschitz bound), so it is lam_lo itself."""
        values = np.array([[1.1033585958871046, 0.9486494471372439]])
        dists = np.array([[2.0236432494005134, 0.9504636963259353]])
        lam_lo = 0.14415961271963373
        assert values[0, 0] - lam_lo * dists[0, 0] >= values[0, 1] - lam_lo * dists[0, 1]
        assert (values[0, 0] - values[0, 1]) / (dists[0, 0] - dists[0, 1]) < lam_lo
        lam, _, _, _ = _minimize_envelope(np.array([1.0]), values, dists, rho=1.0, lam_lo=lam_lo)
        assert lam == lam_lo

    @pytest.mark.parametrize(
        "case",
        ["continuous", "padded", "tied_distances", "tie_at_lam_lo", "lam_lo_above_kinks", "zero_weights", "concurrent"],
    )
    def test_matches_brute_force_and_is_leftmost(self, case):
        """The sweep's value is the brute-force minimum over every pairwise
        crossing to 1e-12 relative, and lambda* is the leftmost minimizer:
        F does not fall to its right and rises to its left."""
        for seed in range(30):
            weights, values, dists, rho, lam_lo = _dual_table(derive_rng(seed, f"sweep-{case}"), case)
            lam, value, _, _ = _minimize_envelope(weights, values, dists, rho, lam_lo)
            best, leftmost = dual_brute_force(weights, values, dists, rho, lam_lo, tol=1e-12 * max(1.0, abs(value)))
            assert value == pytest.approx(best, rel=1e-12, abs=1e-15)
            assert value == pytest.approx(dual_objective_at(weights, values, dists, rho, lam), rel=1e-15, abs=1e-15)
            left, right = dual_derivatives(weights, values, dists, rho, lam, tol=1e-9)
            assert lam >= lam_lo and right >= -1e-12
            assert lam == lam_lo or left < -1e-12
            assert lam <= leftmost + 1e-12 * (1.0 + leftmost)
            if case == "lam_lo_above_kinks":
                assert lam == lam_lo

    def test_linear_certificate_beyond_the_old_cap(self):
        """n=4000, k=10: 180,000 label pairs, past the 100,000 that pairwise
        enumeration once handled.  rho * n is an integer, so the dual is flat
        where 400 atoms still switch label, and lambda* is the left end."""
        rng = derive_rng(5, "sweep-4000")
        model = seeded_linear_model(rng, 8, 10, scale=0.8)
        points = seeded_points(rng, 4000, 8, 10)
        instance = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, 10), 0.1)
        cert = robust_certificate_for(model, instance)
        lam_lo = ce_lipschitz_bound(model.layers[0].weights, NormTag.L2)
        values = label_loss_matrix(model, points.xs)
        dists = (points.ys[:, None] != np.arange(10)).astype(float)
        weights = instance.empirical.weights
        lam = cert.lambda_star
        assert cert.robust_value == pytest.approx(dual_objective_at(weights, values, dists, 0.1, lam), rel=1e-15)
        left, right = dual_derivatives(weights, values, dists, 0.1, lam, tol=1e-9)
        assert lam > lam_lo and left < -1e-12 and right >= -1e-12


class TestEnvelopeCollapse:
    def test_abs_equality_branch(self):
        check = check_envelope_collapse(lambda X: np.abs(X[:, 0]), 2.0, np.array([0.0]))
        assert check.equality_holds and not check.growth_detected
        assert check.sup_values[0] == pytest.approx(0.0, abs=1e-12)

    def test_abs_growth_branch(self):
        check = check_envelope_collapse(lambda X: np.abs(X[:, 0]), 0.5, np.array([0.0]))
        assert check.growth_detected
        # sup over [-R, R] is R/2: doubling the extent doubles the sup
        assert check.sup_values[1] == pytest.approx(2.0 * check.sup_values[0], rel=1e-9)

    def test_one_point_per_axis_is_rejected(self):
        """A grid of one point per axis is z alone: the supremum could never
        grow, so a growth branch would fail falsely."""
        with pytest.raises(ValueError, match="points_per_dim must be >= 2"):
            check_envelope_collapse(lambda X: np.abs(X[:, 0]), 0.5, np.array([0.0]), points_per_dim=1)
        assert check_envelope_collapse(lambda X: np.abs(X[:, 0]), 0.5, np.array([0.0]), points_per_dim=2).growth_detected

    def test_growth_judged_on_the_tail(self):
        # 2 * max(0, |x| - 3) - |x| peaks at x = 0 until the extent passes 6
        check = check_envelope_collapse(lambda X: 2.0 * np.maximum(np.abs(X[:, 0]) - 3.0, 0.0), 1.0, np.array([0.0]))
        assert check.sup_values[:3] == (0.0, 0.0, 0.0) and check.sup_values[3] == pytest.approx(2.0)
        assert check.growth_detected and not check.equality_holds

    def test_ce_slice_equality_with_certified_bound(self):
        rng = derive_rng(41, "env-ce")
        model = seeded_linear_model(rng, 2, 3, scale=0.8)
        z = rng.standard_normal(2)
        y = 1
        gamma = ce_lipschitz_bound(model.layers[0].weights, NormTag.L2)
        check = check_envelope_collapse(lambda X: model_losses(model, X, np.full(len(X), y)), gamma, z)
        assert check.equality_holds and not check.growth_detected

    def test_ce_slice_growth_at_half_lipschitz(self):
        rng = derive_rng(42, "env-ce2")
        model = seeded_linear_model(rng, 2, 3, scale=0.8)
        z = rng.standard_normal(2)
        y = 0
        gamma = 0.5 * ce_slice_lipschitz(model.layers[0].weights, y, NormTag.L2)
        check = check_envelope_collapse(lambda X: model_losses(model, X, np.full(len(X), y)), gamma, z)
        assert check.growth_detected
