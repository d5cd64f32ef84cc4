"""Gradient descent on the regularized risk objectives.

Three penalties are supported, each with its weight fully determined by the
ball radius rho and the loss Lipschitz constant (no free hyperparameter).
The cross-entropy head W contributes its certified L2 constant
sqrt(2) * ||W||_2 (`models.ce_lipschitz_bound`), so a penalty needs the L2
norm whenever rho > 0:

  DUAL_LINEAR  rho * sqrt(2) * ||W||_2             (single linear layer)
  PRODUCT      rho * sqrt(2) * prod_j ||W_j||_2
  SPECTRAL     (rho * sqrt(2) / l) * sum_j ||W_j||_2^l

Spectral-norm subgradients use the top singular pair u v^T from power
iteration; at a zero matrix or when the top two singular values are within
1e-8 the subgradient is set to 0 (any subdifferential element is valid;
zero is deterministic).  Training is plain full-batch gradient descent with
optional momentum, deterministic given the seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from wasslip.measures import MetricSpec, PointSet, empirical_from_samples
from wasslip.models import (
    MLP,
    MLPLayer,
    loss_grads,
    losses,
    network_lipschitz_bound,
)
from wasslip.numerics import (
    NormTag,
    UnsupportedNormError,
    operator_norm,
    power_iteration,
)
from wasslip.robust import RobustCertificate, RobustInstance, robust_certificate_for
from wasslip.seeding import derive_rng

_DIVERGENCE_LIMIT = 1e12
_SIGMA_GAP_TOL = 1e-8


class ObjectiveKind(str, Enum):
    DUAL_LINEAR = "dual_linear"
    PRODUCT = "product"
    SPECTRAL = "spectral"


@dataclass(frozen=True)
class TrainConfig:
    objective: ObjectiveKind
    rho: float
    kappa: float = math.inf
    learning_rate: float = 0.1
    epochs: int = 100
    batch_size: int | None = None  # None = full batch
    seed: int = 0
    momentum: float = 0.0
    layer_cap: float | None = None
    norm: NormTag = NormTag.L2

    def __post_init__(self):
        object.__setattr__(self, "objective", ObjectiveKind(self.objective))
        object.__setattr__(self, "norm", NormTag(self.norm))
        if self.rho < 0.0:
            raise ValueError("rho must be non-negative")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.layer_cap is not None and self.layer_cap <= 0.0:
            raise ValueError("layer_cap must be positive")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    erm: float
    penalty: float
    objective: float
    product_bound: float
    young_bound: float


@dataclass(frozen=True)
class ObjectiveEval:
    value: float
    erm: float
    penalty: float
    grads_w: list
    grads_b: list


@dataclass
class TrainReport:
    records: list
    model: MLP
    certificate: RobustCertificate | None
    wall_clock: float
    diverged: bool

    def to_json_dict(self) -> dict:
        # wall-clock deliberately excluded: reports must be byte-stable
        doc = {
            "diverged": self.diverged,
            "epochs": [
                {
                    "epoch": r.epoch,
                    "erm": r.erm,
                    "penalty": r.penalty,
                    "objective": r.objective,
                    "product_bound": r.product_bound,
                    "young_bound": r.young_bound,
                }
                for r in self.records
            ],
        }
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_json_dict()
        return doc


def _spectral_data(W: np.ndarray, warm: np.ndarray | None):
    """sigma, u, v (v is also the next warm start), and whether the
    subgradient is usable (zero matrix or near-tied top singular values give
    subgradient 0)."""
    sigma, u, v = power_iteration(W, tol=1e-13, v0=warm)
    if sigma <= 1e-12:
        return sigma, u, v, False
    deflated = W - sigma * np.outer(u, v)
    sigma2, _, _ = power_iteration(deflated, tol=1e-12) if deflated.any() else (0.0, None, None)
    return sigma, u, v, (sigma - sigma2) >= _SIGMA_GAP_TOL


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


def _penalty_and_grads(model: MLP, config: TrainConfig, warm: list) -> tuple[float, list]:
    """Penalty value plus per-layer weight subgradients; `warm` carries the
    power-iteration start vectors across calls."""
    rho = config.rho
    layers = model.layers
    l = len(layers)
    zeros = [np.zeros_like(layer.weights) for layer in layers]
    if rho == 0.0:
        return 0.0, zeros
    if config.norm != NormTag.L2:
        raise UnsupportedNormError("penalty subgradients are only available for the L2 operator norm")
    factor = math.sqrt(2.0)  # the head's certified L2 loss constant is sqrt(2) * ||W||_2

    data = [_spectral_data(layer.weights, v0) for layer, v0 in zip(layers, warm)]
    warm[:] = [v for _, _, v, _ in data]
    sigmas = [d[0] for d in data]

    if config.objective == ObjectiveKind.DUAL_LINEAR:
        if l != 1:
            raise ValueError("DUAL_LINEAR requires a single linear layer")
        sigma, u, v, usable = data[0]
        penalty = rho * factor * sigma
        grads = zeros
        if usable:
            grads[0] = rho * factor * np.outer(u, v)
        return penalty, grads

    if config.objective == ObjectiveKind.PRODUCT:
        # rho * (factor * sigma_head) * prod_{j < l} sigma_j, product rule
        grads = zeros
        for j, (sigma, u, v, usable) in enumerate(data):
            if usable:
                grads[j] = math.prod(sigmas[:j] + sigmas[j + 1 :], start=rho * factor) * np.outer(u, v)
        return math.prod(sigmas, start=rho * factor), grads

    # SPECTRAL: (rho * factor / l) * sum_j sigma_j^l
    penalty = rho * factor / l * float(sum(s**l for s in sigmas))
    grads = zeros
    for j, (sigma, u, v, usable) in enumerate(data):
        if not usable:
            continue
        grads[j] = rho * factor * sigma ** (l - 1) * np.outer(u, v)
    return penalty, grads


def objective_and_grad(model: MLP, batch: PointSet, config: TrainConfig) -> ObjectiveEval:
    """Regularized objective value and exact (sub)gradients on a batch of
    labeled points."""
    return _objective(model, batch.xs, batch.ys, config, [None] * len(model.layers))


def _objective(mlp: MLP, X: np.ndarray, Y: np.ndarray, config: TrainConfig, warm: list) -> ObjectiveEval:
    if config.objective == ObjectiveKind.DUAL_LINEAR and len(mlp.layers) != 1:
        raise ValueError("DUAL_LINEAR requires a single-layer (linear softmax) model")
    erm, grads_w, grads_b = _erm_grads(mlp, X, Y)
    penalty, pen_grads = _penalty_and_grads(mlp, config, warm)
    grads_w = [g + pen for g, pen in zip(grads_w, pen_grads)]
    return ObjectiveEval(erm + penalty, erm, penalty, grads_w, grads_b)


def _metrics(model: MLP, X: np.ndarray, Y: np.ndarray, config: TrainConfig, warm: list) -> tuple[float, float, float]:
    erm = _running_sum(losses(model, X, Y)) / X.shape[0]
    penalty, _ = _penalty_and_grads(model, config, warm)
    return erm, penalty, erm + penalty


def train_loop(model: MLP, dataset: PointSet, config: TrainConfig) -> TrainReport:
    """Deterministic (momentum) gradient descent; records per-epoch risk,
    penalty, and both Lipschitz bounds, then certifies the final model."""
    t0 = time.perf_counter()
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
        erm, penalty, obj = _metrics(current, X, Y, config, warm)
        bounds = network_lipschitz_bound(current, config.norm)
        records.append(EpochRecord(epoch, erm, penalty, obj, bounds.product, bounds.young))
        return obj

    obj = record(0)
    for epoch in range(1, config.epochs + 1):
        if not math.isfinite(obj) or obj > _DIVERGENCE_LIMIT:
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
    return TrainReport(records, current, certificate, time.perf_counter() - t0, diverged)
