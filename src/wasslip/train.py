"""Gradient descent on the regularized risk objectives.

Two penalties are supported, each with its weight fully determined by the
ball radius rho and the loss Lipschitz constant (no free hyperparameter).
The cross-entropy head W contributes its certified L2 constant
sqrt(2) * ||W||_2 (`models.CE_GRAD_L2`), so a penalty needs the L2 norm
whenever rho > 0:

  PRODUCT   rho * sqrt(2) * prod_j ||W_j||_2
  SPECTRAL  (rho * sqrt(2) / l) * sum_j ||W_j||_2^l

PRODUCT is rho times the certificate's lambda floor `models.loss_lipschitz`
in L2 (training takes the norms from warm-started power iteration, the
certificate from the SVD upper bound of `numerics.operator_norm`), and
SPECTRAL dominates it by the arithmetic-geometric mean inequality.  On a
one-layer (linear softmax) model both are rho * sqrt(2) * ||W||_2.

The epoch record and the step each make one warm-started power iteration
per layer.  The step's subgradient of ||W||_2 is u v^T from that iteration:
the subdifferential is the convex hull of u v^T over unit top singular
pairs, so this holds at tied top singular values too, and 0 lies in it only
at a zero matrix, which gets 0.  Training is plain full-batch gradient
descent with optional momentum, deterministic given the seed.

The recorded penalty, product bound and Young bound all come from the
record's sigmas (L1 and LINF records use the closed-form operator norms).
The two bounds are power-iteration estimates, approached from below, logged
to show training progress; no certificate uses them.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from wasslip.measures import MetricSpec, PointSet, empirical_from_samples
from wasslip.models import (
    CE_GRAD_L2,
    MLP,
    MLPLayer,
    layerwise_bounds,
    loss_grads,
    losses,
)
from wasslip.numerics import (
    FrozenRecord,
    NormTag,
    NumericalError,
    UnsupportedNormError,
    operator_norm,
    power_iteration,
)
from wasslip.robust import RobustCertificate, RobustInstance, robust_certificate_for
from wasslip.seeding import derive_rng

_DIVERGENCE_LIMIT = 1e12


class ObjectiveKind(str, Enum):
    PRODUCT = "product"
    SPECTRAL = "spectral"


class TrainConfig(FrozenRecord):
    __slots__ = ("objective", "rho", "kappa", "learning_rate", "epochs", "batch_size", "seed", "momentum", "layer_cap", "norm")

    def __init__(
        self,
        objective: ObjectiveKind,
        rho: float,
        kappa: float = math.inf,
        learning_rate: float = 0.1,
        epochs: int = 100,
        batch_size: int | None = None,  # None = full batch
        seed: int = 0,
        momentum: float = 0.0,
        layer_cap: float | None = None,
        norm: NormTag = NormTag.L2,
    ):
        objective = ObjectiveKind(objective)
        norm = NormTag(norm)
        if rho < 0.0:
            raise ValueError("rho must be non-negative")
        if learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        if layer_cap is not None and layer_cap <= 0.0:
            raise ValueError("layer_cap must be positive")
        self._fill(
            objective=objective,
            rho=rho,
            kappa=kappa,
            learning_rate=learning_rate,
            epochs=epochs,
            batch_size=batch_size,
            seed=seed,
            momentum=momentum,
            layer_cap=layer_cap,
            norm=norm,
        )


class EpochRecord(NamedTuple):
    epoch: int
    erm: float
    penalty: float
    objective: float
    product_bound: float
    young_bound: float


class ObjectiveEval(NamedTuple):
    value: float
    erm: float
    penalty: float
    grads_w: list
    grads_b: list


class TrainReport(NamedTuple):
    records: list
    model: MLP
    certificate: RobustCertificate | None
    diverged: bool

    def to_json_dict(self) -> dict:
        doc = {
            "diverged": self.diverged,
            "epochs": [r._asdict() for r in self.records],
        }
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_json_dict()
        return doc


def project_layer_lipschitz(W: np.ndarray, cap: float) -> np.ndarray:
    """Rescale W so its spectral norm does not exceed `cap`."""
    if cap <= 0.0:
        raise ValueError("cap must be positive")
    sigma = operator_norm(W, NormTag.L2)
    if sigma <= cap:
        return W
    return W * (cap / sigma)


def _erm_grads(model: MLP, X: np.ndarray, Y: np.ndarray) -> tuple[float, list, list]:
    """Mean loss over the batch rows and its weight and bias gradients."""
    out = loss_grads(model, X, Y, params=True)
    inv = 1.0 / X.shape[0]
    grads_b = [None if gb is None else gb * inv for gb in out.grads_b]
    return _running_sum(out.losses) * inv, [gw * inv for gw in out.grads_w], grads_b


def _running_sum(values: np.ndarray) -> float:
    """Left-to-right sum, the order a per-sample accumulation would use."""
    return float(np.cumsum(values)[-1])


def _penalty(config: TrainConfig, sigmas: list) -> float:
    """Penalty value of layers whose spectral norms are `sigmas`."""
    rho = config.rho
    if rho == 0.0:
        return 0.0
    if config.norm != NormTag.L2:
        raise UnsupportedNormError("penalty subgradients are only available for the L2 operator norm")
    l = len(sigmas)
    scale = rho * CE_GRAD_L2
    if config.objective == ObjectiveKind.SPECTRAL:
        return scale / l * float(sum(s**l for s in sigmas))
    return math.prod(sigmas, start=scale)


def _spectral_pass(model: MLP, warm: list) -> list:
    """(sigma, u, v) of every layer from one power iteration started at the
    layer's warm vector; each v becomes that layer's next warm start."""
    runs = [power_iteration(layer.weights, v0=v0) for layer, v0 in zip(model.layers, warm)]
    warm[:] = [v for _, _, v in runs]
    return runs


def _penalty_and_grads(model: MLP, config: TrainConfig, warm: list) -> tuple[float, list]:
    """Penalty value plus per-layer weight subgradients; `warm` carries the
    power-iteration start vectors across calls."""
    grads = [np.zeros_like(layer.weights) for layer in model.layers]
    if config.rho == 0.0:
        return 0.0, grads
    runs = _spectral_pass(model, warm)
    sigmas = [sigma for sigma, _, _ in runs]
    penalty = _penalty(config, sigmas)
    l = len(sigmas)
    scale = config.rho * CE_GRAD_L2
    for j, (sigma, u, v) in enumerate(runs):
        if sigma == 0.0:
            continue  # a zero matrix: 0 is a subgradient of its norm
        if config.objective == ObjectiveKind.SPECTRAL:
            coeff = scale * sigma ** (l - 1)
        else:  # product rule
            coeff = math.prod(sigmas[:j] + sigmas[j + 1 :], start=scale)
        grads[j] = coeff * np.outer(u, v)
    return penalty, grads


def objective_and_grad(model: MLP, batch: PointSet, config: TrainConfig) -> ObjectiveEval:
    """Regularized objective value and exact (sub)gradients on a batch of
    labeled points."""
    return _objective(model, batch.xs, batch.ys, config, [None] * len(model.layers))


def _objective(mlp: MLP, X: np.ndarray, Y: np.ndarray, config: TrainConfig, warm: list) -> ObjectiveEval:
    erm, grads_w, grads_b = _erm_grads(mlp, X, Y)
    penalty, pen_grads = _penalty_and_grads(mlp, config, warm)
    grads_w = [g + pen for g, pen in zip(grads_w, pen_grads)]
    return ObjectiveEval(erm + penalty, erm, penalty, grads_w, grads_b)


def train_loop(model: MLP, dataset: PointSet, config: TrainConfig) -> TrainReport:
    """Deterministic (momentum) gradient descent; records per-epoch risk,
    penalty, and both Lipschitz bounds, then certifies the final model.  An
    objective above the divergence limit stops training (`diverged`); a
    step or record that is not finite raises NumericalError."""
    layers = [
        MLPLayer(layer.weights.copy(), layer.activation, None if layer.bias is None else layer.bias.copy())
        for layer in model.layers
    ]
    current = MLP(tuple(layers))
    warm = [None] * len(layers)
    velocity_w = [np.zeros_like(layer.weights) for layer in layers]
    velocity_b = [np.zeros_like(layer.bias) if layer.bias is not None else None for layer in layers]
    rng = derive_rng(config.seed, "train/shuffle")
    X, Y = dataset.xs, dataset.ys

    records: list = []
    diverged = False

    def record(epoch: int) -> float:
        # one norm pass gives the penalty and both bounds
        erm = _running_sum(losses(current, X, Y)) / X.shape[0]
        if config.norm == NormTag.L2:
            sigmas = [sigma for sigma, _, _ in _spectral_pass(current, warm)]
        else:
            sigmas = [operator_norm(layer.weights, config.norm) for layer in current.layers]
        penalty = _penalty(config, sigmas)
        bounds = layerwise_bounds(sigmas)
        rec = EpochRecord(epoch, erm, penalty, erm + penalty, bounds.product, bounds.young)
        if not all(map(math.isfinite, rec[1:])):
            raise NumericalError(f"training overflowed: the objective or a bound of epoch {epoch} is not finite")
        records.append(rec)
        return erm + penalty

    obj = record(0)
    for epoch in range(1, config.epochs + 1):
        if obj > _DIVERGENCE_LIMIT:
            diverged = True
            break
        if config.batch_size is None:
            batches = [slice(None)]
        else:
            order = rng.permutation(len(Y))
            batches = [order[k : k + config.batch_size] for k in range(0, len(Y), config.batch_size)]
        for batch in batches:
            ev = _objective(current, X[batch], Y[batch], config, warm)
            new_layers = []
            for j, layer in enumerate(current.layers):
                velocity_w[j] = config.momentum * velocity_w[j] - config.learning_rate * ev.grads_w[j]
                W = layer.weights + velocity_w[j]
                b = layer.bias
                if b is not None:
                    velocity_b[j] = config.momentum * velocity_b[j] - config.learning_rate * ev.grads_b[j]
                    b = b + velocity_b[j]
                if not (np.all(np.isfinite(W)) and (b is None or np.all(np.isfinite(b)))):
                    raise NumericalError(f"training overflowed: layer {j}'s parameters are not finite in epoch {epoch}")
                if config.layer_cap is not None:
                    W = project_layer_lipschitz(W, config.layer_cap)
                new_layers.append(MLPLayer(W, layer.activation, b))
            current = MLP(tuple(new_layers))
        obj = record(epoch)

    certificate = None
    if not diverged:
        metric = MetricSpec(config.norm, config.kappa, dataset.label_count)
        instance = RobustInstance(empirical_from_samples(dataset), metric, config.rho)
        certificate = robust_certificate_for(current, instance)
    return TrainReport(records, current, certificate, diverged)
