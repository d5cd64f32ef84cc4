import json
import os
import time

import numpy as np
import pytest

import wasslip.suite as suite
from wasslip.cli import main
from wasslip.numerics import NumericalError
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


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def slow_square(i):
    """i squared and the process that computed it; the sleep lets every
    worker take some of the calls."""
    time.sleep(0.02)
    return i * i, os.getpid()


def slow_raise(i):
    """Call 1 raises NumericalError, every later call KeyError, each after a
    sleep that keeps every worker's first call among the later ones."""
    time.sleep(0.02)
    raise NumericalError(f"call {i}") if i == 1 else KeyError(f"call {i}")


def raise_numerical(message):
    raise NumericalError(message)


class TestRunCalls:
    """suite._run_calls: the checks' calls on every usable CPU."""

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_results_in_call_order(self, monkeypatch, cpus):
        usable_cpus(monkeypatch, cpus)
        results = suite._run_calls([(slow_square, (i,)) for i in range(8)], (7, 0, 6, 1, 5, 2, 4, 3))
        assert [square for square, _ in results] == [i * i for i in range(8)]
        pids = {pid for _, pid in results}
        if cpus == 1:
            assert pids == {os.getpid()}
        else:
            assert len(pids) > 1
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_earliest_exception_in_call_order(self, monkeypatch, cpus):
        # the queue takes the later failing calls first; the earliest one's
        # exception still comes back, with its type, as a plain loop raises it
        usable_cpus(monkeypatch, cpus)
        calls = [(slow_square, (0,))] + [(slow_raise, (i,)) for i in range(1, 6)]
        with pytest.raises(NumericalError, match="call 1"):
            suite._run_calls(calls, (5, 4, 3, 2, 1, 0))
        assert_no_child_left()

    def test_child_without_results_is_a_runtime_error(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        parent = os.getpid()

        def die_in_child():
            if os.getpid() != parent:
                os._exit(7)
            time.sleep(0.3)  # the child takes the other call meanwhile
            return "parent"

        with pytest.raises(RuntimeError, match=r"exit status 7 ended without sending the results of die_in_child"):
            suite._run_calls([(die_in_child, ()), (die_in_child, ())], (0, 1))
        assert_no_child_left()

    def test_numerical_error_in_a_check_exits_3(self, tmp_path, monkeypatch, capsys):
        usable_cpus(monkeypatch, 4)
        monkeypatch.setattr(suite, "check_pushforward_bound", lambda seed, cases: raise_numerical("forced in a check"))
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"seed": 1, "verify": {"strong_duality_instances": 2, "pushforward_triples": 2, "adversarial_tuples": 1, "chain_nets": 2}}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.splitlines() == ["numerical failure: forced in a check"]
        assert_no_child_left()

    def test_report_bytes_do_not_depend_on_the_cpus(self, tmp_path, monkeypatch):
        """At the default sizes, the report of one CPU and of several."""
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"seed": 30}))
        reports = []
        for cpus in (1, 4):
            usable_cpus(monkeypatch, cpus)
            assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / f"cpus-{cpus}")]) == 0
            reports.append((tmp_path / f"cpus-{cpus}" / "verify_report.json").read_bytes())
            assert_no_child_left()
        assert reports[0] == reports[1]
