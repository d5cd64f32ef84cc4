import numpy as np
import pytest

from wasslip.seeding import derive_rng, derive_seed
from wasslip.suite import (
    DEFAULT_SIZES,
    VerdictRecord,
    check_envelope_collapse_suite,
    run_verification_suite,
    seeded_finite_instance,
    seeded_linear_model,
    seeded_mlp,
    seeded_points,
)


class TestSeeding:
    def test_streams_are_independent_and_reproducible(self):
        a1 = derive_rng(5, "alpha").standard_normal(4)
        a2 = derive_rng(5, "alpha").standard_normal(4)
        b = derive_rng(5, "beta").standard_normal(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_derived_seed_stable(self):
        assert derive_seed(5, "x") == derive_seed(5, "x")
        assert derive_seed(5, "x") != derive_seed(6, "x")


class TestBuilders:
    def test_seeded_points_deterministic(self):
        p1 = seeded_points(derive_rng(1, "pts"), 5, 2, 3)
        p2 = seeded_points(derive_rng(1, "pts"), 5, 2, 3)
        assert np.array_equal(p1.xs, p2.xs)
        assert np.array_equal(p1.ys, p2.ys)

    def test_seeded_models_deterministic(self):
        m1 = seeded_linear_model(derive_rng(2, "m"), 3, 2)
        m2 = seeded_linear_model(derive_rng(2, "m"), 3, 2)
        assert len(m1.layers) == 1 and np.array_equal(m1.layers[0].weights, m2.layers[0].weights)
        n1 = seeded_mlp(derive_rng(3, "n"), [2, 4, 2], bias=True)
        n2 = seeded_mlp(derive_rng(3, "n"), [2, 4, 2], bias=True)
        for a, b in zip(n1.layers, n2.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_finite_instance_is_well_formed(self):
        for seed in range(10):
            instance, losses = seeded_finite_instance(derive_rng(seed, "fi"))
            assert len(losses) == len(instance.candidate_targets)
            assert 0.0 <= instance.rho <= 2.0
            # candidate targets always contain the support
            s, t = instance.empirical.support, instance.candidate_targets
            support = set(zip(map(tuple, s.xs.tolist()), s.ys.tolist()))
            targets = set(zip(map(tuple, t.xs.tolist()), t.ys.tolist()))
            assert support <= targets


class TestSuiteRun:
    def test_small_suite_passes_and_serializes(self):
        records = run_verification_suite(
            99,
            {
                "strong_duality_instances": 5,
                "envelope_points_per_dim": 17,
                "pushforward_triples": 2,
                "pushforward_cases": 1,
                "adversarial_tuples": 1,
                "chain_nets": 2,
            },
        )
        assert all(isinstance(r, VerdictRecord) for r in records)
        assert all(r.passed for r in records)
        names = [r.name for r in records]
        assert names == [
            "strong_duality",
            "envelope_collapse",
            "pushforward_containment",
            "pushforward_bound",
            "adversarial_bound",
            "lipschitz_chain",
        ]
        for r in records:
            doc = r.to_json_dict()
            assert set(doc) == {"name", "passed", "details"}

    @pytest.mark.parametrize("seed", [17, 18, 30, 109])
    def test_envelope_growth_seen_when_the_slice_starts_flat(self, seed):
        """At gamma = lip/2 these ce slices keep their supremum at psi(z) over
        the first extents (18 and 109 grow only in the last doubling)."""
        record = check_envelope_collapse_suite(seed, DEFAULT_SIZES["envelope_points_per_dim"])
        assert record.passed, record.details
