"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here, not configured elsewhere.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
from oracles import empirical_risk, finite_difference_gradient, spectral_norm_jacobi, vector_pre_activations
from wasslip.cli import main
from wasslip.datasets import gaussian_blobs
from wasslip.measures import MetricSpec, empirical_from_samples
from wasslip.models import (
    accuracy,
    ce_lipschitz_bound,
    label_loss_matrix,
    loss_grads,
    losses,
)
from wasslip.numerics import NormTag, operator_norm
from wasslip.robust import (
    RobustInstance,
    kappa_threshold,
    lattice_targets,
    minimize_dual,
    robust_certificate_for,
)
from wasslip.seeding import derive_rng
from wasslip.suite import (
    check_adversarial_bounds,
    check_envelope_collapse_suite,
    check_lipschitz_chain,
    check_pushforward_bound,
    check_pushforward_containment,
    check_strong_duality,
    seeded_linear_model,
    seeded_mlp,
    seeded_points,
)
from wasslip.train import ObjectiveKind, TrainConfig, objective_and_grad, train_loop

SEED = 20240811
TINY_VERIFY = {"strong_duality_instances": 8, "envelope_points_per_dim": 17, "pushforward_triples": 3,
               "pushforward_cases": 2, "adversarial_tuples": 2, "chain_nets": 3}


def report(number: int, name: str, passed: bool, extra: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_strong_duality_oracle_equivalence():
    t0 = time.perf_counter()
    record = check_strong_duality(SEED, instances=100)
    elapsed = time.perf_counter() - t0
    ok = record.passed and elapsed < 30.0
    report(1, "strong duality vs primal LP on 100 finite instances", ok,
           f"worst rel gap {record.details['worst_relative_gap']:.2e}, {elapsed:.1f}s")


def test_criterion_02_upper_bound_and_grid_refinement():
    t0 = time.perf_counter()
    rng = derive_rng(SEED, "acceptance/refinement")
    all_upper = True
    all_monotone = True
    for _ in range(20):
        k = int(rng.integers(2, 4))
        model = seeded_linear_model(rng, 2, k, scale=0.5)
        points = seeded_points(rng, int(rng.integers(3, 8)), 2, k)
        rho = float(rng.uniform(0.05, 0.4))
        base = RobustInstance(empirical_from_samples(points), MetricSpec(NormTag.L2, 1.0, k), rho)
        xs = points.xs
        lo = xs.min(axis=0) - (rho + 0.2)
        hi = xs.max(axis=0) + (rho + 0.2)
        fine = [np.linspace(lo[d], hi[d], 17) for d in range(2)]
        gaps = []
        for step in (4, 2, 1):  # nested lattices with 25, 81, 289 grid points
            axes = [ax[::step] for ax in fine]
            instance = RobustInstance(base.empirical, base.metric, rho, lattice_targets(base, axes))
            cert = robust_certificate_for(model, instance)
            all_upper &= cert.oracle_gap >= -1e-9
            gaps.append(cert.oracle_gap)
        all_monotone &= gaps[1] <= gaps[0] + 1e-9 and gaps[2] <= gaps[1] + 1e-9
    elapsed = time.perf_counter() - t0
    report(2, "dual dominates grid LP with monotone refinement", all_upper and all_monotone and elapsed < 120.0,
           f"20 instances x 3 grids, {elapsed:.1f}s")


def test_criterion_03_label_lock_threshold():
    rng = derive_rng(SEED, "acceptance/threshold")
    ok = True
    for _ in range(10):
        k = int(rng.integers(2, 5))
        model = seeded_linear_model(rng, 2, k, scale=0.8)
        points = seeded_points(rng, int(rng.integers(3, 7)), 2, k)
        rho = float(rng.uniform(0.05, 1.0))
        mu = empirical_from_samples(points)
        bound = ce_lipschitz_bound(model.layers[0].weights, NormTag.L2)
        base = RobustInstance(mu, MetricSpec(NormTag.L2, 1.0, k), rho)
        table = label_loss_matrix(model, points.xs)
        kappa0 = kappa_threshold(base, table, bound)
        ok &= math.isfinite(kappa0)
        dual = minimize_dual(RobustInstance(mu, MetricSpec(NormTag.L2, 2.0 * kappa0, k), rho), table, bound)
        expected = empirical_risk(model, mu) + rho * bound
        ok &= abs(dual.value - expected) <= 1e-9
        ok &= bool(np.array_equal(dual.active_labels, points.ys))
    report(3, "finite label-lock threshold gives the closed-form value", ok)


def test_criterion_04_envelope_collapse_both_branches():
    record = check_envelope_collapse_suite(SEED, points_per_dim=65)
    detail = ", ".join(f"{k}:{'ok' if v['ok'] else 'FAIL'}" for k, v in record.details.items())
    report(4, "penalized-sup collapse: equality and growth branches", record.passed, detail)


def test_criterion_05_pushforward_containment_and_bound():
    containment = check_pushforward_containment(SEED, triples=50)
    bound = check_pushforward_bound(SEED, cases=10)
    ok = containment.passed and bound.passed
    report(5, "image-ball containment (50 triples) and feature-space bound", ok,
           f"worst contraction slack {containment.details['worst_contraction_slack']:.2e}, "
           f"worst oracle excess {bound.details['worst_oracle_excess']:.2e}")


def test_criterion_06_adversarial_risk_bound():
    record = check_adversarial_bounds(SEED, tuples=30, epsilons=(0.01, 0.1, 0.5), norms=(NormTag.L2, NormTag.LINF))
    report(6, "adversarial risk below dual robust value on 30 tuples", record.passed,
           f"failures: {record.details['failures']}")


def test_criterion_07_lipschitz_chain_and_jacobi():
    chain = check_lipschitz_chain(SEED, nets=50)
    rng = derive_rng(SEED, "acceptance/jacobi")
    worst = 0.0
    for _ in range(50):
        rows = int(rng.integers(2, 17))
        cols = int(rng.integers(2, 17))
        W = rng.standard_normal((rows, cols))
        sigma = operator_norm(W, NormTag.L2)
        expected = spectral_norm_jacobi(W)
        worst = max(worst, abs(sigma - expected) / max(expected, 1e-12))
    ok = chain.passed and worst <= 1e-8
    report(7, "empirical<=product<=young on 50 nets; power iteration vs Jacobi", ok,
           f"worst sigma rel err {worst:.2e}")


def _relative_error(got, expected):
    denom = max(float(np.linalg.norm(np.atleast_1d(expected))), 1e-10)
    return float(np.linalg.norm(np.atleast_1d(got) - np.atleast_1d(expected))) / denom


def _mlp_away_from_kinks(rng, net, dim):
    for _ in range(100):
        x = rng.standard_normal(dim)
        if all(np.min(np.abs(pre)) > 1e-6 for pre in vector_pre_activations(net, x)[:-1]):
            return x
    raise RuntimeError("could not sample away from activation kinks")


def _loss(model, x, y):
    return float(losses(model, [x], [y])[0])


def _flat_param_grads(out):
    """Weight then bias gradients of every layer, flattened layer by layer."""
    parts = []
    for gw, gb in zip(out.grads_w, out.grads_b):
        parts.append(gw.ravel())
        if gb is not None:
            parts.append(gb)
    return np.concatenate(parts)


def test_criterion_08_gradient_checks_200():
    rng = derive_rng(SEED, "acceptance/gradients")
    checks = 0
    failures = []

    # 80 input-gradient checks: 40 linear softmax + 40 MLP
    for i in range(40):
        model = seeded_linear_model(rng, 3, 3, scale=1.0)
        x = rng.standard_normal(3)
        y = int(rng.integers(0, 3))
        ev = loss_grads(model, [x], [y])
        fd = finite_difference_gradient(lambda v: _loss(model, v, y), x, 1e-5)
        if _relative_error(ev.grad_x[0], fd) > 1e-4:
            failures.append(("linear grad_x", i))
        checks += 1
    for i in range(40):
        net = seeded_mlp(rng, [3, 4, 3], scale=1.0, bias=bool(i % 2))
        x = _mlp_away_from_kinks(rng, net, 3)
        y = int(rng.integers(0, 3))
        ev = loss_grads(net, [x], [y])
        fd = finite_difference_gradient(lambda v: _loss(net, v, y), x, 1e-5)
        if _relative_error(ev.grad_x[0], fd) > 1e-4:
            failures.append(("mlp grad_x", i))
        checks += 1

    # 80 parameter-gradient checks on MLPs
    for i in range(80):
        net = seeded_mlp(rng, [2, 3, 2], scale=1.0, bias=bool(i % 2))
        x = _mlp_away_from_kinks(rng, net, 2)
        y = int(rng.integers(0, 2))
        grad_params = _flat_param_grads(loss_grads(net, [x], [y], params=True))

        def loss_of_params(theta):
            from wasslip.models import MLP, MLPLayer

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
            return _loss(MLP(tuple(layers)), x, y)

        theta0 = np.zeros_like(grad_params)
        pos = 0
        for layer in net.layers:
            theta0[pos : pos + layer.weights.size] = layer.weights.ravel()
            pos += layer.weights.size
            if layer.bias is not None:
                theta0[pos : pos + layer.bias.size] = layer.bias
                pos += layer.bias.size
        fd = finite_difference_gradient(loss_of_params, theta0, 1e-5)
        if _relative_error(grad_params, fd) > 1e-4:
            failures.append(("mlp grad_params", i))
        checks += 1

    # 40 spectral-penalty gradient checks, away from repeated singular values
    done = 0
    attempt = 0
    while done < 40:
        attempt += 1
        net = seeded_mlp(rng, [3, 4, 2], scale=1.1)
        gaps_ok = True
        for layer in net.layers:
            s = np.sqrt(np.maximum(np.sort(np.linalg.eigvalsh(layer.weights.T @ layer.weights))[::-1], 0.0))
            if s[0] < 1e-6 or (len(s) > 1 and s[0] - s[1] < 1e-3):
                gaps_ok = False
        if not gaps_ok:
            continue
        batch = seeded_points(rng, 2, 3, 2)
        rho = 0.6
        cfg = TrainConfig(ObjectiveKind.SPECTRAL, rho=rho)
        ev = objective_and_grad(net, batch, cfg)
        ev0 = objective_and_grad(net, batch, TrainConfig(ObjectiveKind.SPECTRAL, rho=0.0))
        l = len(net.layers)
        factor = math.sqrt(2.0)
        j = done % l
        layer = net.layers[j]
        pen_grad = ev.grads_w[j] - ev0.grads_w[j]
        grad = np.zeros_like(layer.weights)
        h = 1e-6
        for r in range(layer.weights.shape[0]):
            for c in range(layer.weights.shape[1]):
                E = np.zeros_like(layer.weights)
                E[r, c] = h
                up = spectral_norm_jacobi(layer.weights + E)
                dn = spectral_norm_jacobi(layer.weights - E)
                grad[r, c] = rho * factor / l * (up**l - dn**l) / (2.0 * h)
        if _relative_error(pen_grad, grad) > 1e-3:
            failures.append(("spectral penalty", done))
        checks += 1
        done += 1

    report(8, "200 gradient checks against central differences", checks == 200 and not failures,
           f"{checks} checks, failures: {failures}")


def test_criterion_09_training_behavior():
    t0 = time.perf_counter()
    points = gaussian_blobs(200, 2, 2, seed=SEED)
    net = seeded_mlp(derive_rng(SEED, "acceptance/train-model"), [2, 6, 2], scale=1.0, bias=True)
    reg = train_loop(net, points, TrainConfig(ObjectiveKind.SPECTRAL, rho=0.5, epochs=60, learning_rate=0.1, seed=1))
    plain = train_loop(net, points, TrainConfig(ObjectiveKind.SPECTRAL, rho=0.0, epochs=60, learning_rate=0.1, seed=1))
    l = len(net.layers)
    sum_reg = sum(operator_norm(layer.weights, NormTag.L2) ** l for layer in reg.model.layers)
    sum_plain = sum(operator_norm(layer.weights, NormTag.L2) ** l for layer in plain.model.layers)
    acc = accuracy(reg.model, points)

    single = seeded_mlp(derive_rng(SEED, "acceptance/train-single"), [2, 2], scale=0.8, bias=True)
    trajectories = []
    for kind in (ObjectiveKind.PRODUCT, ObjectiveKind.SPECTRAL):
        rep = train_loop(single, points, TrainConfig(kind, rho=0.0, epochs=20, learning_rate=0.1, seed=2))
        trajectories.append([(r.erm, r.penalty, r.objective) for r in rep.records])
    identical = trajectories[0] == trajectories[1]
    elapsed = time.perf_counter() - t0
    ok = sum_reg < sum_plain and acc >= 0.9 and identical and elapsed < 60.0
    report(9, "spectral penalty shrinks norms at accuracy >= 0.9; rho=0 trajectories identical", ok,
           f"sum sigma^l {sum_reg:.3f} vs {sum_plain:.3f}, acc {acc:.3f}, {elapsed:.1f}s")


def _run_cli_twice(tmp_path: Path, command: str, doc: dict) -> bool:
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out1 = tmp_path / f"{command}-1"
    out2 = tmp_path / f"{command}-2"
    if main([command, "--config", str(cfg), "--out", str(out1)]) != 0:
        return False
    if main([command, "--config", str(cfg), "--out", str(out2)]) != 0:
        return False
    names1 = sorted(p.name for p in out1.iterdir() if p.name != "metadata.json")
    names2 = sorted(p.name for p in out2.iterdir() if p.name != "metadata.json")
    if names1 != names2 or not names1:
        return False
    return all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1)


def test_criterion_10_byte_identical_reruns(tmp_path):
    dataset = {"generator": "gaussian-blobs", "n": 8, "k": 2, "dim": 2, "seed": 3}
    ok = True
    ok &= _run_cli_twice(tmp_path, "gen-data", {"seed": 1, "dataset": dataset})
    ok &= _run_cli_twice(
        tmp_path,
        "certify",
        {"seed": 2, "dataset": dataset, "model": {"dims": [2, 2], "seed": 5, "init_scale": 0.6},
         "robust": {"rho": 0.2, "kappa": 1.0, "oracle_grid_side": 5}},
    )
    ok &= _run_cli_twice(
        tmp_path,
        "attack",
        {"seed": 3, "dataset": dataset, "model": {"dims": [2, 3, 2], "seed": 6, "init_scale": 0.8},
         "attack": {"epsilons": [0.05, 0.2], "norm": "L2", "steps": 10, "restarts": 1}},
    )
    ok &= _run_cli_twice(
        tmp_path,
        "train",
        {"seed": 4, "dataset": dataset, "model": {"dims": [2, 3, 2], "seed": 7},
         "train": {"objective": "spectral", "rho": 0.3, "epochs": 4, "learning_rate": 0.05}},
    )
    ok &= _run_cli_twice(tmp_path, "verify", {"seed": SEED, "verify": TINY_VERIFY})
    report(10, "every command reproduces byte-identical reports", ok)


def test_verify_report_bytes_pinned(tmp_path):
    """The verify report for SEED at the tiny sizes, byte for byte; computed
    before the checks moved onto the batched pass, which moved no bit, and
    re-recorded when the LP became a revised simplex, which moved the last
    bits of worst_relative_gap, and when the L2 operator norm became an upper
    bound from one SVD, which moved the last bits of the spectral norms."""
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"seed": SEED, "verify": TINY_VERIFY}), encoding="utf-8")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "verify_report.json").read_bytes()).hexdigest()
    assert digest == "a7acb0c0db7067d344163082cdd80a6d58ecc2ecb9eafdf7537ce8d9de2ae0a4"
