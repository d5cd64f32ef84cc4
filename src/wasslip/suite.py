"""Seeded instance builders and the named verification checks behind the
`verify` command.

Each check pits an implementation against an independent route to the same
quantity (restricted primal LP vs. the dual, coupling LPs vs. Lipschitz
contraction, exhaustive grids vs. analytic collapse) on freshly seeded
instances, and reports a verdict with enough diagnostics to debug a failure;
the adversarial verdict names the `(name, ok)` checks that failed.

The checks share no state: each draws from its own stream
derive_rng(seed, "verify/<name>").  So `run_verification_suite` runs them
side by side, one process per usable CPU (this one and forked children), and
reports them in their fixed order; the report's bytes do not depend on how
many CPUs ran it (`taskset -c 0` gives one).
"""

from __future__ import annotations

import math
import os
import pickle
from typing import NamedTuple

import numpy as np

from wasslip.adversarial import AttackConfig, attack_sweep
from wasslip.measures import (
    DiscreteMeasure,
    MetricSpec,
    PointSet,
    empirical_from_samples,
    pushforward,
    transport_cost,
)
from wasslip.models import (
    CE_GRAD_L2,
    ActivationTag,
    MLP,
    MLPLayer,
    ce_slice_lipschitz,
    empirical_lipschitz,
    feature_map,
    forward,
    layerwise_bounds,
    loss_lipschitz,
    losses,
    phi_lipschitz_bound,
)
from wasslip.numerics import FEASIBILITY_TOL, NormTag, NumericalError, ensure_addressable, operator_norm, row_norms
from wasslip.robust import (
    RobustInstance,
    check_envelope_collapse,
    grid_targets,
    minimize_dual_on_targets,
    primal_robust_risk_lp,
    robust_certificate_for,
)
from wasslip.seeding import derive_rng

_NORMS = (NormTag.L1, NormTag.L2, NormTag.LINF)
# sizes of seeded_finite_instance and the grid side of check_pushforward_bound
_FINITE_MAX_ATOMS = 8
_FINITE_MAX_TARGETS = 20
_FINITE_MAX_LABELS = 4
_PUSHFORWARD_GRID_SIDE = 7


class VerdictRecord(NamedTuple):
    name: str
    passed: bool
    details: dict


# ---------------------------------------------------------------------------
# seeded builders


def seeded_points(rng: np.random.Generator, n: int, dim: int, k: int, spread: float = 1.0) -> PointSet:
    xs = spread * rng.standard_normal((n, dim))
    return PointSet(xs, rng.integers(0, k, n), k)


def seeded_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(0.1, 1.0, n)
    return w / w.sum()


def seeded_linear_model(rng: np.random.Generator, dim: int, k: int, scale: float = 1.0) -> MLP:
    """A linear softmax classifier: the one-layer MLP without bias."""
    return MLP((MLPLayer(scale * rng.standard_normal((k, dim)), ActivationTag.IDENTITY),))


def seeded_mlp(
    rng: np.random.Generator,
    dims: list,
    activation: ActivationTag = ActivationTag.RELU,
    scale: float = 1.0,
    bias: bool = False,
) -> MLP:
    layers = []
    for i in range(len(dims) - 1):
        ensure_addressable((dims[i + 1], dims[i]), f"the weights of layer {i}")
        W = scale / math.sqrt(dims[i]) * rng.standard_normal((dims[i + 1], dims[i]))
        if not np.all(np.isfinite(W)):
            raise NumericalError(f"scale {scale!r} overflows the weights of layer {i}")
        b = 0.1 * rng.standard_normal(dims[i + 1]) if bias else None
        act = activation if i < len(dims) - 2 else ActivationTag.IDENTITY
        layers.append(MLPLayer(W, act, b))
    return MLP(tuple(layers))


def seeded_finite_instance(rng: np.random.Generator):
    """A finite robust instance with an arbitrary loss table on its targets:
    support atoms plus extra candidate atoms, random weights, random radius."""
    k = int(rng.integers(2, _FINITE_MAX_LABELS + 1))
    dim = 2
    n = int(rng.integers(1, _FINITE_MAX_ATOMS + 1))
    extra = int(rng.integers(0, _FINITE_MAX_TARGETS - n + 1))
    support = seeded_points(rng, n, dim, k, spread=1.5)
    targets = support
    if extra:
        more = seeded_points(rng, extra, dim, k, spread=2.0)
        targets = PointSet(np.concatenate([support.xs, more.xs]), np.concatenate([support.ys, more.ys]), k)
    kappa = float(rng.choice([0.5, 1.0, 2.0, math.inf]))
    metric = MetricSpec(_NORMS[int(rng.integers(0, len(_NORMS)))], kappa, k)
    mu = DiscreteMeasure(support, seeded_weights(rng, n))
    rho = float(rng.uniform(0.0, 2.0))
    instance = RobustInstance(mu, metric, rho, targets)
    target_losses = rng.uniform(-2.0, 3.0, len(targets))
    return instance, target_losses


# ---------------------------------------------------------------------------
# named checks


def check_strong_duality(seed: int, instances: int) -> VerdictRecord:
    """Restricted dual vs. restricted primal LP on seeded finite instances."""
    rng = derive_rng(seed, "verify/strong-duality")
    worst = 0.0
    for _ in range(instances):
        instance, target_losses = seeded_finite_instance(rng)
        dual = minimize_dual_on_targets(instance, target_losses)
        lp = primal_robust_risk_lp(instance, target_losses)
        rel = abs(dual.value - lp) / (1.0 + abs(dual.value))
        worst = max(worst, rel)
    return VerdictRecord(
        "strong_duality",
        worst <= 1e-6,
        {"instances": instances, "worst_relative_gap": worst, "tolerance": 1e-6},
    )


def _huber(X: np.ndarray) -> np.ndarray:
    r = row_norms(X, NormTag.L2)
    return np.where(r <= 1.0, r * r, 2.0 * r - 1.0)


def _abs(X: np.ndarray) -> np.ndarray:
    return np.abs(X[:, 0])


def check_envelope_collapse_suite(seed: int, points_per_dim: int) -> VerdictRecord:
    """Penalized-supremum collapse for |x|, a clipped quadratic, and softmax
    cross-entropy slices: equality when gamma dominates the Lipschitz
    constant, unbounded growth when it does not."""
    rng = derive_rng(seed, "verify/envelope")
    cases = []

    cases.append(("abs_equality", _abs, 2.0, np.array([0.0]), True))
    cases.append(("abs_growth", _abs, 0.5, np.array([0.0]), False))
    cases.append(("huber_equality", _huber, 2.5, np.array([0.3]), True))
    cases.append(("huber_growth", _huber, 1.0, np.array([-0.2]), False))

    model = seeded_linear_model(rng, 2, 3, scale=0.8)
    z = rng.standard_normal(2)
    y = int(rng.integers(0, 3))

    def ce_slice(grid: np.ndarray) -> np.ndarray:
        return losses(model, grid, np.full(grid.shape[0], y))

    certified = loss_lipschitz(model, NormTag.L2)
    tight = ce_slice_lipschitz(model.layers[0].weights, y, NormTag.L2)
    cases.append(("ce_slice_equality", ce_slice, certified, z, True))
    cases.append(("ce_slice_growth", ce_slice, 0.5 * tight, z, False))

    details = {}
    passed = True
    for name, psi, gamma, center, expect_equality in cases:
        verdict = check_envelope_collapse(psi, gamma, center, points_per_dim=points_per_dim)
        ok = (verdict.equality_holds and not verdict.growth_detected) if expect_equality else verdict.growth_detected
        details[name] = {
            "gamma": gamma,
            "sup_values": list(verdict.sup_values),
            "equality_gap": verdict.equality_gap,
            "ok": ok,
        }
        passed = passed and ok
    return VerdictRecord("envelope_collapse", passed, details)


def check_pushforward_containment(seed: int, triples: int) -> VerdictRecord:
    """Lipschitz maps contract transport balls: cost between image measures
    is at most lip(phi) times the input cost, checked by coupling LPs."""
    rng = derive_rng(seed, "verify/pushforward-containment")
    worst = -math.inf
    count_inside = 0
    for _ in range(triples):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(2, 7))
        support = seeded_points(rng, n, 2, k, spread=1.2)
        mu = DiscreteMeasure(support, seeded_weights(rng, n))
        nu0 = DiscreteMeasure(support, seeded_weights(rng, n))
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        metric = MetricSpec(NormTag.L2, kappa, k)
        rho = float(rng.uniform(0.1, 1.0))
        base_cost = transport_cost(mu, nu0, metric)
        t = 1.0 if base_cost <= 0.9 * rho else 0.9 * rho / base_cost
        nu = DiscreteMeasure(support, (1.0 - t) * mu.weights + t * nu0.weights)
        cost_in = transport_cost(mu, nu, metric)

        depth = int(rng.integers(1, 3))
        dims = [2] + [int(rng.integers(2, 4)) for _ in range(depth)]
        layers = []
        for i in range(len(dims) - 1):
            layers.append(
                MLPLayer(
                    0.9 * rng.standard_normal((dims[i + 1], dims[i])),
                    ActivationTag.RELU if i < len(dims) - 2 else ActivationTag.IDENTITY,
                )
            )
        lip_phi = phi_lipschitz_bound(layers, NormTag.L2)

        mu_img = pushforward(mu, lambda xs: feature_map(layers, xs))
        nu_img = DiscreteMeasure(mu_img.support, nu.weights.copy())
        feature_metric = MetricSpec(NormTag.L2, max(kappa * lip_phi, 1e-9), k)
        cost_out = transport_cost(mu_img, nu_img, feature_metric)

        worst = max(worst, cost_out - lip_phi * cost_in)
        if cost_out <= lip_phi * rho + 1e-8:
            count_inside += 1
    passed = worst <= 1e-8 and count_inside == triples
    return VerdictRecord(
        "pushforward_containment",
        passed,
        {"triples": triples, "worst_contraction_slack": worst, "inside_scaled_ball": count_inside},
    )


def check_pushforward_bound(seed: int, cases: int) -> VerdictRecord:
    """The certificate of a one-hidden-layer MLP dominates the input-space
    grid LP oracle."""
    rng = derive_rng(seed, "verify/pushforward-bound")
    worst = -math.inf
    for _ in range(cases):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(3, 7))
        dataset = seeded_points(rng, n, 2, k, spread=1.0)
        model = seeded_mlp(rng, [2, 3, k], scale=0.9)
        kappa = float(rng.choice([1.0, math.inf]))
        metric = MetricSpec(NormTag.L2, kappa, k)
        rho = float(rng.uniform(0.05, 0.5))
        instance = RobustInstance(empirical_from_samples(dataset), metric, rho)
        instance = RobustInstance(
            instance.empirical, metric, rho, grid_targets(instance, _PUSHFORWARD_GRID_SIDE, pad=0.1)
        )
        cert = robust_certificate_for(model, instance)
        worst = max(worst, cert.oracle_value - cert.robust_value)
    return VerdictRecord(
        "pushforward_bound",
        worst <= 1e-8,
        {"cases": cases, "worst_oracle_excess": worst, "tolerance": 1e-8},
    )


def check_adversarial_bound(model: MLP, instance: RobustInstance, config: AttackConfig = AttackConfig()) -> tuple:
    """Machine check that the adversarial risk sits below the robust value;
    returns the `(name, ok)` checks.

    The attack ball is the instance's own: its input norm at radius rho.  In
    one or two dimensions the exhaustive GRID attack is checked against the
    robust value as well.  Also verifies the attack-induced pushforward
    measure lies inside the transport ball (via the coupling LP) and that the
    restricted primal LP already dominates the attack.
    """
    norm, mu = instance.metric.x_norm, instance.empirical
    result = attack_sweep(model, mu, norm, [instance.rho], config)[0]
    risks = [("pgd", result)]
    if mu.support.dim <= 2:
        risks.append(("grid", attack_sweep(model, mu, norm, [instance.rho], AttackConfig(method="GRID", grid_points=config.grid_points))[0]))

    cert = robust_certificate_for(model, instance)

    checks = []
    for name, res in risks:
        checks.append((f"adversarial_risk_{name}_le_robust_value", res.adversarial_risk <= cert.robust_value + 1e-8))

    # the attack map keeps labels, so its pushforward must stay in the ball
    attacked = pushforward(mu, lambda xs: xs + result.perturbations)
    max_norm = float(np.max(row_norms(result.perturbations, norm)))
    push_cost = transport_cost(mu, attacked, instance.metric)
    checks.append(("attack_pushforward_inside_ball", push_cost <= max_norm + FEASIBILITY_TOL))

    # restricted primal on the support, the attacked points and any candidate
    # targets: it must already dominate the attack, and the dual must dominate it
    parts = [mu.support, attacked.support]
    if instance.candidate_targets is not None:
        parts.append(instance.candidate_targets)
    aug_targets = PointSet(np.concatenate([p.xs for p in parts]), np.concatenate([p.ys for p in parts]), mu.support.label_count)
    aug_instance = RobustInstance(mu, instance.metric, instance.rho, aug_targets)
    target_losses = losses(model, aug_targets.xs, aug_targets.ys)
    lp_value = primal_robust_risk_lp(aug_instance, target_losses)
    checks.append(("lp_oracle_ge_attack", lp_value >= result.adversarial_risk - 1e-8))
    checks.append(("robust_value_ge_lp_oracle", cert.robust_value >= lp_value - 1e-9))
    return tuple(checks)


def check_adversarial_bounds(
    seed: int,
    tuples: int,
    epsilons: tuple = (0.01, 0.1, 0.5),
    norms: tuple = (NormTag.L2, NormTag.LINF),
) -> VerdictRecord:
    """Attack risk below the dual robust value at rho = epsilon, plus the
    coupling-LP membership check for the attack-induced pushforward."""
    rng = derive_rng(seed, "verify/adversarial")
    combos = [(eps, nrm) for eps in epsilons for nrm in norms]
    failures = []
    for idx in range(tuples):
        eps, nrm = combos[idx % len(combos)]
        k = int(rng.integers(2, 4))
        n = int(rng.integers(3, 7))
        dataset = seeded_points(rng, n, 2, k, spread=1.0)
        deep = bool(rng.integers(0, 2))
        model = seeded_mlp(rng, [2, 3, k], scale=0.8) if deep else seeded_linear_model(rng, 2, k, scale=0.8)
        kappa = float(rng.choice([1.0, math.inf]))
        instance = RobustInstance(empirical_from_samples(dataset), MetricSpec(nrm, kappa, k), eps)
        checks = check_adversarial_bound(model, instance, AttackConfig(seed=int(rng.integers(0, 2**32))))
        failed = [name for name, ok in checks if not ok]
        if failed:
            failures.append({"epsilon": eps, "norm": nrm.value, "failed": failed})
    return VerdictRecord(
        "adversarial_bound",
        not failures,
        {"tuples": tuples, "failures": failures},
    )


def check_lipschitz_chain(seed: int, nets: int) -> VerdictRecord:
    """Sampled Lipschitz estimate <= layerwise product <= power-mean bound,
    and the separable penalty dominates the product penalty."""
    rng = derive_rng(seed, "verify/lipschitz-chain")
    worst_emp = -math.inf
    worst_young = -math.inf
    worst_penalty = -math.inf
    for i in range(nets):
        depth = int(rng.integers(1, 5))
        dims = [int(rng.integers(2, 17)) for _ in range(depth + 1)]
        model = seeded_mlp(rng, dims, scale=1.0)
        sig = [operator_norm(layer.weights, NormTag.L2) for layer in model.layers]
        bounds = layerwise_bounds(sig)

        points = derive_rng(seed, f"verify/chain-sampler/{i}").standard_normal((61, dims[0]))
        emp = empirical_lipschitz(lambda X: forward(model, X), points, NormTag.L2)
        worst_emp = max(worst_emp, emp - bounds.product)
        worst_young = max(worst_young, bounds.product - bounds.young)

        l = len(sig)
        product_pen = CE_GRAD_L2 * math.prod(sig)
        spectral_pen = CE_GRAD_L2 / l * sum(s**l for s in sig)
        worst_penalty = max(worst_penalty, product_pen - spectral_pen)
    passed = worst_emp <= 1e-6 and worst_young <= 1e-9 and worst_penalty <= 1e-9
    return VerdictRecord(
        "lipschitz_chain",
        passed,
        {
            "nets": nets,
            "worst_empirical_excess": worst_emp,
            "worst_product_minus_young": worst_young,
            "worst_product_minus_spectral_penalty": worst_penalty,
        },
    )


DEFAULT_SIZES = {
    "strong_duality_instances": 25,
    "envelope_points_per_dim": 33,
    "pushforward_triples": 12,
    "pushforward_cases": 6,
    "adversarial_tuples": 6,
    "chain_nets": 10,
}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _serve(calls: list, queue: int) -> list:
    """(index, ok, result or exception) of every call whose index this
    process takes from the queue pipe, one byte (one call) at a time."""
    done = []
    while taken := os.read(queue, 1):
        fn, args = calls[taken[0]]
        try:
            done.append((taken[0], True, fn(*args)))
        except Exception as exc:
            done.append((taken[0], False, exc))
    return done


def _run_calls(calls: list, queue_order) -> list:
    """fn(*args) of every (fn, args) in calls, returned in call order.

    The calls run on min(len(calls), usable CPUs) processes: this one and
    forked children, or a plain loop when that is one or fork is missing.
    The work queue is a pipe pre-filled with one byte per call index (so at
    most 256 calls), in `queue_order`; a 1-byte pipe read is atomic, so
    faster processes take more calls.  Each child pickles its results to its own pipe and leaves by
    os._exit, and every child is reaped before this returns or raises.  When
    calls raise, the exception of the earliest in call order is raised, as the
    plain loop raises it; a child that ends without sending its results is a
    RuntimeError naming the calls lost.

    Fork, not a spawned pool: a spawned worker re-imports numpy and wasslip,
    which costs about what the checks save.  The program starts no thread of
    its own; OpenBLAS's pool, the one other thread source, is shut down by
    its own at-fork handler.
    """
    workers = min(len(calls), _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(*args) for fn, args in calls]
    queue, fill = os.pipe()
    os.write(fill, bytes(queue_order))
    os.close(fill)
    children = {}  # pid -> read end of its result pipe, None once read
    silent = []  # the children whose results did not arrive
    try:
        for _ in range(workers - 1):
            receive, send = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(receive)
                os.close(send)
                raise
            if pid == 0:  # the child serves, sends and leaves without unwinding the caller's stack
                status = 1
                try:
                    os.close(receive)
                    with os.fdopen(send, "wb") as out:
                        pickle.dump(_serve(calls, queue), out)
                    status = 0
                finally:
                    os._exit(status)
            os.close(send)
            children[pid] = receive
        triples = _serve(calls, queue)
        for pid, receive in children.items():
            children[pid] = None
            with os.fdopen(receive, "rb") as sent:
                payload = sent.read()
            try:
                triples += pickle.loads(payload)
            except (EOFError, pickle.UnpicklingError):  # empty or cut short: the child died first
                silent.append(pid)
    finally:
        os.close(queue)
        for receive in children.values():
            if receive is not None:
                os.close(receive)
        statuses = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children}
    results = {i: (ok, value) for i, ok, value in triples}
    for index in range(len(calls)):
        if index not in results:
            lost = ", ".join(fn.__name__ for i, (fn, _) in enumerate(calls) if i not in results)
            ended = ", ".join(f"{pid} with exit status {statuses[pid]}" for pid in silent)
            raise RuntimeError(f"worker process {ended} ended without sending the results of {lost}")
        ok, value = results[index]
        if not ok:
            raise value
    return [results[i][1] for i in range(len(calls))]


# The calls' queue order: longest first, as timed at the default sizes (seed
# 7, one call at a time on an Intel Xeon core): adversarial_bound 64 ms,
# pushforward_containment 31, strong_duality 23, pushforward_bound 11,
# lipschitz_chain 8, envelope_collapse 5.
_QUEUE_ORDER = (4, 2, 0, 3, 5, 1)


def run_verification_suite(seed: int, sizes: dict | None = None) -> list:
    cfg = dict(DEFAULT_SIZES)
    if sizes:
        cfg.update(sizes)
    calls = [
        (check_strong_duality, (seed, cfg["strong_duality_instances"])),
        (check_envelope_collapse_suite, (seed, cfg["envelope_points_per_dim"])),
        (check_pushforward_containment, (seed, cfg["pushforward_triples"])),
        (check_pushforward_bound, (seed, cfg["pushforward_cases"])),
        (check_adversarial_bounds, (seed, cfg["adversarial_tuples"])),
        (check_lipschitz_chain, (seed, cfg["chain_nets"])),
    ]
    return _run_calls(calls, _QUEUE_ORDER)
