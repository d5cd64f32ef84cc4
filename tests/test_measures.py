import math

import numpy as np
import pytest

from oracles import product_metric, transport_cost_vertex_enumeration
from wasslip.measures import (
    DiscreteMeasure,
    MetricSpec,
    PointSet,
    TransportInfeasibleError,
    cost_matrix,
    empirical_from_samples,
    pushforward,
    transport_cost,
)
from wasslip.models import ActivationTag, MLPLayer, feature_map, phi_lipschitz_bound
from wasslip.numerics import FEASIBILITY_TOL, DimensionError, NormTag, NumericalError


class TestPointSet:
    @pytest.mark.parametrize(
        "xs, ys, match",
        [
            ([[0.0, math.nan]], [0], "non-finite coordinate in row 0"),
            ([[0.0, 1.0], [math.inf, 0.0]], [0, 1], "non-finite coordinate in row 1"),
            ([[0.0]], [-1], r"label -1 outside \[0, 2\)"),
            ([[0.0], [1.0]], [0, 2], r"label 2 outside \[0, 2\)"),
            ([[0.0]], [1.5], "labels must be integers"),
            ([[0.0], [1.0]], [0], "one label per row"),
            ([0.0, 1.0], [0, 1], "n x d array"),
            (np.empty((0, 2)), np.empty(0, dtype=int), "non-empty"),
        ],
        ids=["nan", "inf", "negative-label", "label-ge-k", "non-integral-label", "label-count", "1-d-xs", "empty"],
    )
    def test_rejects(self, xs, ys, match):
        with pytest.raises(ValueError, match=match):
            PointSet(xs, ys, 2)

    def test_holds_read_only_copies(self):
        xs, ys = np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([1.0, 0.0])
        ps = PointSet(xs, ys, 2)
        xs[0, 0], ys[0] = 9.0, 0.0
        assert ps.xs.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert ps.ys.tolist() == [1, 0] and ps.ys.dtype.kind == "i"
        with pytest.raises(ValueError, match="read-only"):
            ps.xs[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            ps.ys[0] = 0


class TestMetricSpec:
    def test_rejects_non_metric(self):
        with pytest.raises(ValueError):
            MetricSpec(NormTag.L2, 0.0, 2)

    def test_metric_eval_examples(self):
        spec = MetricSpec(NormTag.L2, 2.0, 2)
        s = ([0.0], 0)
        targets = [([0.0], 0), ([3.0], 0), ([0.0], 1)]
        assert [product_metric(spec, s, t) for t in targets] == [0.0, pytest.approx(3.0), pytest.approx(2.0)]
        C = cost_matrix(spec, PointSet([[0.0]], [0], 2), PointSet([[0.0], [3.0], [0.0]], [0, 0, 1], 2))
        assert C.tolist() == [[0.0, pytest.approx(3.0), pytest.approx(2.0)]]

    def test_kappa_inf_sentinel(self):
        spec = MetricSpec(NormTag.L2, math.inf, 2)
        s = ([0.0], 0)
        assert product_metric(spec, s, ([1.0], 1)) == math.inf
        assert product_metric(spec, s, ([1.0], 0)) == pytest.approx(1.0)
        C = cost_matrix(spec, PointSet([[0.0]], [0], 2), PointSet([[1.0], [1.0]], [1, 0], 2))
        assert C.tolist() == [[math.inf, pytest.approx(1.0)]]

    def test_dimension_mismatch(self):
        spec = MetricSpec(NormTag.L2, 1.0, 2)
        with pytest.raises(ValueError, match="dimensions"):
            product_metric(spec, ([0.0], 0), ([0.0, 1.0], 0))
        with pytest.raises(DimensionError):
            cost_matrix(spec, PointSet([[0.0]], [0], 2), PointSet([[0.0, 1.0]], [0], 2))

    @pytest.mark.parametrize("tag", [NormTag.L1, NormTag.L2, NormTag.LINF])
    # "discrete": the label part is the discrete metric kappa * [y != y']
    @pytest.mark.parametrize("kappa", [0.7, math.inf], ids=["discrete-0.7", "discrete-inf"])
    def test_cost_matrix_matches_product_metric(self, tag, kappa):
        """Every entry of cost_matrix against the scalar reference, on a
        seeded source/target pair and on a source used as its own target
        (whose diagonal is exactly zero)."""
        rng = np.random.default_rng(17)
        k = 4
        spec = MetricSpec(tag, kappa, k)
        source = PointSet(rng.standard_normal((7, 3)), rng.integers(0, k, 7), k)
        target = PointSet(rng.standard_normal((5, 3)), rng.integers(0, k, 5), k)
        for a, b in ((source, target), (source, source)):
            C = cost_matrix(spec, a, b)
            expected = [[product_metric(spec, (x, y), (u, v)) for u, v in zip(b.xs, b.ys)] for x, y in zip(a.xs, a.ys)]
            np.testing.assert_allclose(C, expected, rtol=1e-12, atol=0.0)
            if a is b:
                assert np.all(np.diag(C) == 0.0)


class TestMeasures:
    def test_empirical_single_point(self):
        mu = empirical_from_samples(PointSet([[0.0]], [0], 2))
        assert mu.weights.tolist() == [1.0]

    def test_empirical_uniform(self):
        mu = empirical_from_samples(PointSet([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1], 2))
        assert np.allclose(mu.weights, 0.25)

    def test_duplicates_not_merged(self):
        mu = empirical_from_samples(PointSet([[1.0], [1.0], [2.0]], [0, 0, 1], 2))
        assert len(mu) == 3
        assert np.allclose(mu.weights, 1.0 / 3.0)

    def test_weights_validated(self):
        support = PointSet([[0.0], [1.0]], [0, 1], 2)
        with pytest.raises(ValueError):
            DiscreteMeasure(support, np.array([0.9, 0.2]))
        with pytest.raises(ValueError):
            DiscreteMeasure(support, np.array([1.1, -0.1]))

    def test_weights_read_only(self):
        mu = empirical_from_samples(PointSet([[0.0], [1.0]], [0, 1], 2))
        with pytest.raises(ValueError):
            mu.weights[0] = 5.0
        assert mu.weights.tolist() == [0.5, 0.5]
        given = np.array([0.25, 0.75])
        DiscreteMeasure(mu.support, given)
        given[0] = 0.5  # the caller's array is copied, not frozen

    def test_pushforward_identity_and_constant(self):
        mu = empirical_from_samples(PointSet([[0.0], [1.0]], [0, 1], 2))
        ident = pushforward(mu, lambda xs: xs)
        assert np.allclose(ident.weights, mu.weights)
        const = pushforward(mu, lambda xs: np.full((len(xs), 1), 7.0))
        assert const.support.xs.tolist() == [[7.0], [7.0]]
        assert const.support.ys.tolist() == [0, 1]  # labels are kept
        assert len(const) == 2  # atoms stay index-aligned, no merging

    def test_pushforward_linear_image(self):
        mu = empirical_from_samples(PointSet([[0.0], [1.0]], [0, 0], 2))
        doubled = pushforward(mu, lambda xs: 2.0 * xs)
        assert doubled.support.xs.tolist() == [[0.0], [2.0]]

    def test_pushforward_changes_dimension(self):
        mu = DiscreteMeasure(PointSet([[1.0, 2.0], [3.0, 4.0]], [1, 0], 2), np.array([0.25, 0.75]))
        image = pushforward(mu, lambda xs: xs.sum(axis=1, keepdims=True))
        assert image.support.xs.tolist() == [[3.0], [7.0]]
        assert image.support.ys.tolist() == [1, 0]
        assert image.weights.tolist() == [0.25, 0.75]


class TestTransportCost:
    def setup_method(self):
        self.spec = MetricSpec(NormTag.L2, 1.0, 2)

    def test_identical_measures(self):
        support = PointSet([[0.0], [1.0]], [0, 1], 2)
        mu = empirical_from_samples(support)
        assert transport_cost(mu, mu, self.spec) == pytest.approx(0.0, abs=1e-12)

    def test_single_atom_pair(self):
        a = PointSet([[0.0]], [0], 2)
        b = PointSet([[1.0]], [0], 2)
        assert transport_cost(empirical_from_samples(a), empirical_from_samples(b), self.spec) == pytest.approx(1.0)

    def test_two_atom_derived_value(self):
        # uniform{0,1} vs uniform{0,2} with c=|x-y|: vertex couplings give 0.5
        a = PointSet([[0.0], [1.0]], [0, 0], 2)
        b = PointSet([[0.0], [2.0]], [0, 0], 2)
        expected = transport_cost_vertex_enumeration([0.5, 0.5], [0.5, 0.5], cost_matrix(self.spec, a, b))
        assert expected == pytest.approx(0.5, abs=1e-12)
        assert transport_cost(empirical_from_samples(a), empirical_from_samples(b), self.spec) == pytest.approx(expected)

    def test_infeasible_when_labels_locked(self):
        spec = MetricSpec(NormTag.L2, math.inf, 2)
        a = PointSet([[0.0]], [0], 2)
        b = PointSet([[0.0]], [1], 2)
        with pytest.raises(TransportInfeasibleError):
            transport_cost(empirical_from_samples(a), empirical_from_samples(b), spec)

    def test_kappa_inf_feasible_same_labels(self):
        spec = MetricSpec(NormTag.L2, math.inf, 2)
        support = PointSet([[0.0], [1.0]], [0, 1], 2)
        mu = DiscreteMeasure(support, np.array([0.5, 0.5]))
        assert transport_cost(mu, mu, spec) == pytest.approx(0.0, abs=1e-12)

    def test_dirac_identity(self):
        s, t = PointSet([[0.3, -1.0]], [0], 2), PointSet([[1.3, 0.5]], [1], 2)
        spec = MetricSpec(NormTag.L1, 2.0, 2)
        expected = product_metric(spec, ([0.3, -1.0], 0), ([1.3, 0.5], 1))
        assert transport_cost(empirical_from_samples(s), empirical_from_samples(t), spec) == pytest.approx(expected)

    @pytest.mark.parametrize("tag", [NormTag.L1, NormTag.L2, NormTag.LINF])
    @pytest.mark.parametrize("kappa", [0.7, math.inf], ids=["kappa-0.7", "kappa-inf"])
    def test_metric_costs_match_vertex_enumeration(self, tag, kappa):
        """transport_cost under a metric equals the vertex enumeration on
        cost_matrix of the two supports: seeded supports of 2-4 atoms, and a
        4-atom support shared by both measures.  Every label is on both sides, and
        at kappa = inf each label carries the same mass on both sides, so the
        label-locked LP stays feasible."""
        rng = np.random.default_rng(29)
        k = 2
        spec = MetricSpec(tag, kappa, k)
        label_mass = rng.dirichlet(np.ones(k))

        def points(n):
            return PointSet(rng.standard_normal((n, 2)), np.concatenate([np.arange(k), rng.integers(0, k, n - k)]), k)

        def measure(support):
            w = rng.uniform(0.1, 1.0, len(support))
            if math.isinf(kappa):
                w *= label_mass[support.ys] / np.bincount(support.ys, w)[support.ys]
            return DiscreteMeasure(support, w / w.sum())

        shared = points(4)
        for source, target in ((points(int(rng.integers(2, 5))), points(int(rng.integers(2, 5)))), (shared, shared)):
            mu, nu = measure(source), measure(target)
            expected = transport_cost_vertex_enumeration(mu.weights, nu.weights, cost_matrix(spec, mu.support, nu.support))
            assert abs(transport_cost(mu, nu, spec) - expected) <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_metric_properties_on_shared_support(self, seed):
        rng = np.random.default_rng(seed)
        support = PointSet(rng.standard_normal((4, 2)), rng.integers(0, 2, 4), 2)
        spec = MetricSpec(NormTag.L2, 1.0, 2)

        def measure():
            w = rng.uniform(0.05, 1.0, 4)
            return DiscreteMeasure(support, w / w.sum())

        m1, m2, m3 = measure(), measure(), measure()
        d12 = transport_cost(m1, m2, spec)
        d21 = transport_cost(m2, m1, spec)
        assert d12 == pytest.approx(d21, abs=1e-8)
        d13 = transport_cost(m1, m3, spec)
        d32 = transport_cost(m3, m2, spec)
        assert d12 <= d13 + d32 + 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_ball_convexity(self, seed):
        rng = np.random.default_rng(40 + seed)
        support = PointSet(rng.standard_normal((4, 2)), rng.integers(0, 2, 4), 2)
        spec = MetricSpec(NormTag.L2, 1.0, 2)
        mu = empirical_from_samples(support)

        def measure():
            w = rng.uniform(0.05, 1.0, 4)
            return DiscreteMeasure(support, w / w.sum())

        n1, n2 = measure(), measure()
        lam = float(rng.uniform(0.2, 0.8))
        mix = DiscreteMeasure(support, lam * n1.weights + (1 - lam) * n2.weights)
        lhs = transport_cost(mu, mix, spec)
        rhs = lam * transport_cost(mu, n1, spec) + (1 - lam) * transport_cost(mu, n2, spec)
        assert lhs <= rhs + 1e-8


class TestCostMatrixOverflow:
    """A distance between finite points that overflows is a numerical
    failure naming the first pair, not an unreachable target."""

    @pytest.mark.parametrize(
        "tag, far_source, far_target, pair",
        [
            (NormTag.L1, [1e308, 1e308], [-1.0, -1.0], "source 1 to target 0"),  # each |diff| is finite, their sum is not
            (NormTag.L2, [1e200, 1e200], [-1e200, -1e200], "source 0 to target 1"),  # the squares overflow
            (NormTag.LINF, [1e308, 0.0], [-1e308, 0.0], "source 1 to target 1"),  # the difference itself overflows
        ],
        ids=["L1", "L2", "LINF"],
    )
    def test_overflowing_distance_raises(self, tag, far_source, far_target, pair):
        source = PointSet([[0.0, 0.0], far_source], [0, 1], 2)
        target = PointSet([[0.5, 0.5], far_target], [0, 1], 2)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match=f"the {tag.value} distance from {pair} overflows"):
            cost_matrix(MetricSpec(tag, 1.0, 2), source, target)

    def test_infinite_label_cost_is_not_an_overflow(self):
        spec = MetricSpec(NormTag.L2, math.inf, 2)
        support = PointSet([[1e150, 0.0], [-1e150, 0.0]], [0, 1], 2)
        C = cost_matrix(spec, support, support)
        assert C[0, 0] == 0.0 and math.isinf(C[0, 1]) and math.isinf(C[1, 0])


class TestBallContains:
    def test_trivials(self):
        spec = MetricSpec(NormTag.L2, 1.0, 2)
        a = PointSet([[0.0]], [0], 2)
        b = PointSet([[1.0]], [0], 2)
        mu = empirical_from_samples(a)
        assert transport_cost(mu, mu, spec) <= 0.0 + FEASIBILITY_TOL
        assert not transport_cost(mu, empirical_from_samples(b), spec) <= 0.5 + FEASIBILITY_TOL

    @pytest.mark.parametrize("seed", range(8))
    def test_lipschitz_image_containment(self, seed):
        """An affine+ReLU map phi sends B(mu, rho) into B(phi#mu, rho*L)."""
        rng = np.random.default_rng(seed)
        k = 2
        support = PointSet(rng.standard_normal((5, 2)), rng.integers(0, k, 5), k)
        spec = MetricSpec(NormTag.L2, 1.0, k)
        mu = empirical_from_samples(support)
        w = rng.uniform(0.05, 1.0, 5)
        nu = DiscreteMeasure(support, w / w.sum())
        base = transport_cost(mu, nu, spec)

        layers = (
            MLPLayer(rng.standard_normal((3, 2)), ActivationTag.RELU),
            MLPLayer(rng.standard_normal((2, 3)), ActivationTag.IDENTITY),
        )
        L = phi_lipschitz_bound(layers, NormTag.L2)
        image = PointSet(feature_map(layers, support.xs), support.ys, k)
        spec_img = MetricSpec(NormTag.L2, max(1.0 * L, 1e-9), k)
        mu_img = DiscreteMeasure(image, mu.weights.copy())
        nu_img = DiscreteMeasure(image, nu.weights.copy())
        pushed = transport_cost(mu_img, nu_img, spec_img)
        assert pushed <= L * base + 1e-8
        assert pushed <= L * base + FEASIBILITY_TOL
