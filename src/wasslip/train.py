"""Gradient descent on the regularized risk objectives.

Two penalties are supported, each with its weight fully determined by the
ball radius rho and the loss Lipschitz constant (no free hyperparameter).
The cross-entropy head W contributes its certified L2 constant
sqrt(2) * ||W||_2 (`models.ce_lipschitz_bound`), so a penalty needs the L2
norm whenever rho > 0:

  PRODUCT   rho * sqrt(2) * prod_j ||W_j||_2
  SPECTRAL  (rho * sqrt(2) / l) * sum_j ||W_j||_2^l

On a one-layer (linear softmax) model both are rho * sqrt(2) * ||W||_2.

Spectral-norm subgradients use the top singular pair u v^T from power
iteration; at a zero matrix or when the top two singular values are within
1e-8 the subgradient is set to 0 (any subdifferential element is valid;
zero is deterministic).  Training is plain full-batch gradient descent with
optional momentum, deterministic given the seed.

Each epoch record makes one spectral pass per layer: the warm-started power
iteration that opens the penalty's own pass, without its deflation.  The
recorded penalty, product bound and Young bound all come from those sigmas
(L1 and LINF records use the closed-form operator norms).  The two bounds are
power-iteration estimates, approached from below, logged to show training
progress; no certificate uses them.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from wasslip.measures import MetricSpec, PointSet, empirical_from_samples
from wasslip.models import (
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
_SIGMA_GAP_TOL = 1e-8


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


def _penalty(config: TrainConfig, sigmas: list) -> float:
    """Penalty value of layers whose spectral norms are `sigmas`."""
    rho = config.rho
    if rho == 0.0:
        return 0.0
    if config.norm != NormTag.L2:
        raise UnsupportedNormError("penalty subgradients are only available for the L2 operator norm")
    l = len(sigmas)
    scale = rho * math.sqrt(2.0)  # the head's certified L2 loss constant is sqrt(2) * ||W||_2
    if config.objective == ObjectiveKind.SPECTRAL:
        return scale / l * float(sum(s**l for s in sigmas))
    return math.prod(sigmas, start=scale)


def _penalty_and_grads(model: MLP, config: TrainConfig, warm: list) -> tuple[float, list]:
    """Penalty value plus per-layer weight subgradients; `warm` carries the
    power-iteration start vectors across calls."""
    grads = [np.zeros_like(layer.weights) for layer in model.layers]
    if config.rho == 0.0:
        return 0.0, grads
    data = [_spectral_data(layer.weights, v0) for layer, v0 in zip(model.layers, warm)]
    warm[:] = [v for _, _, v, _ in data]
    sigmas = [d[0] for d in data]
    penalty = _penalty(config, sigmas)
    l = len(sigmas)
    scale = config.rho * math.sqrt(2.0)
    for j, (sigma, u, v, usable) in enumerate(data):
        if not usable:
            continue
        if config.objective == ObjectiveKind.SPECTRAL:
            coeff = scale * sigma ** (l - 1)
        else:  # product rule
            coeff = math.prod(sigmas[:j] + sigmas[j + 1 :], start=scale)
        grads[j] = coeff * np.outer(u, v)
    return penalty, grads


def _layer_norms(model: MLP, tag: NormTag, warm: list) -> list:
    """Every layer's `tag` operator norm.  L2 takes one power iteration per
    layer from the warm start, the same call that opens `_spectral_data`, and
    advances `warm` as that does; L1 and LINF are closed forms."""
    if tag != NormTag.L2:
        return [operator_norm(layer.weights, tag) for layer in model.layers]
    runs = [power_iteration(layer.weights, tol=1e-13, v0=v0) for layer, v0 in zip(model.layers, warm)]
    warm[:] = [v for _, _, v in runs]
    return [sigma for sigma, _, _ in runs]


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
        # one norm pass gives the penalty and both bounds, and moves the
        # warm starts exactly as the penalty's own pass would
        erm = _running_sum(losses(current, X, Y)) / X.shape[0]
        sigmas = _layer_norms(current, config.norm, warm)
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
