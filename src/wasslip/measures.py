"""Finitely supported measures over labeled points, the kappa-product metric,
pushforwards, and exact transport costs under that metric via the simplex LP.

The metric on a labeled pair is ||x - x'|| + kappa * [y != y'].  With
kappa = inf a label mismatch costs infinity; the transport LP encodes that
exactly by dropping the corresponding coupling variables instead of using a
big-M surrogate.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from wasslip.numerics import (
    DimensionError,
    FrozenRecord,
    LPProblem,
    LPStatus,
    NormTag,
    NumericalError,
    as_vector,
    solve_lp,
)


class TransportInfeasibleError(RuntimeError):
    """No finite-cost coupling exists between the two measures."""


class PointSet(FrozenRecord):
    """n labeled points: `xs` (n x d floats) and `ys` (n integer labels in
    [0, label_count)).  Both are stored as read-only copies; row i of `xs`
    carries label `ys[i]`."""

    __slots__ = ("xs", "ys", "label_count")

    def __init__(self, xs: np.ndarray, ys: np.ndarray, label_count: int):
        xs = np.array(xs, dtype=float, order="C")
        ys = np.asarray(ys)
        if xs.ndim != 2:
            raise DimensionError(f"xs must be an n x d array, got shape {xs.shape}")
        if xs.shape[0] == 0:
            raise ValueError("point set must be non-empty")
        if ys.shape != (xs.shape[0],):
            raise DimensionError(f"one label per row required: {xs.shape[0]} rows, labels of shape {ys.shape}")
        bad = np.flatnonzero(~np.all(np.isfinite(xs), axis=1))
        if bad.size:
            raise ValueError(f"non-finite coordinate in row {bad[0]}")
        if ys.dtype.kind not in "iub" and not np.all(np.isfinite(ys) & (ys == np.floor(ys))):
            raise ValueError("labels must be integers")
        ys = ys.astype(int)
        outside = np.flatnonzero((ys < 0) | (ys >= label_count))
        if outside.size:
            raise ValueError(f"label {ys[outside[0]]} outside [0, {label_count})")
        xs.setflags(write=False)
        ys.setflags(write=False)
        self._fill(xs=xs, ys=ys, label_count=label_count)

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    def __len__(self) -> int:
        return self.xs.shape[0]


class DiscreteMeasure(FrozenRecord):
    """Weights on the rows of a point set, stored as a read-only copy."""

    __slots__ = ("support", "weights")

    def __init__(self, support: PointSet, weights: np.ndarray):
        w = as_vector(weights)
        if w.size != len(support):
            raise DimensionError("one weight per support point required")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {float(np.sum(w))!r}")
        w = w.copy()
        w.setflags(write=False)
        self._fill(support=support, weights=w)

    def __len__(self) -> int:
        return len(self.support)


def empirical_from_samples(points: PointSet) -> DiscreteMeasure:
    """Uniform weights 1/n; duplicate points keep their own index (multiset)."""
    n = len(points)
    return DiscreteMeasure(points, np.full(n, 1.0 / n))


class MetricSpec(FrozenRecord):
    """Product metric ||x-x'|| + kappa * [y != y'] on labeled points."""

    __slots__ = ("x_norm", "kappa", "label_count")

    def __init__(self, x_norm: NormTag, kappa: float, label_count: int):
        if not (kappa > 0.0):  # inf is allowed, zero and NaN are not
            raise ValueError("kappa must be positive (or inf)")
        if label_count < 1:
            raise ValueError("label_count must be >= 1")
        self._fill(x_norm=x_norm, kappa=kappa, label_count=label_count)


def _pairwise_x_distances(xs: np.ndarray, xt: np.ndarray, tag: NormTag) -> np.ndarray:
    diff = xs[:, None, :] - xt[None, :, :]
    if tag == NormTag.L1:
        return np.sum(np.abs(diff), axis=2)
    if tag == NormTag.L2:
        return np.sqrt(np.sum(diff * diff, axis=2))
    return np.max(np.abs(diff), axis=2)


def label_costs(spec: MetricSpec, source_ys, target_ys) -> np.ndarray:
    """kappa * [y != y'] for every (source label, target label) pair; with
    kappa = inf a label change costs inf and keeping the label 0."""
    return np.where(np.not_equal.outer(source_ys, target_ys), spec.kappa, 0.0)


def cost_matrix(spec: MetricSpec, source: PointSet, target: PointSet) -> np.ndarray:
    """Every source-to-target cost; an x-distance that overflows between
    (always finite) points raises NumericalError."""
    if source.dim != target.dim:
        raise DimensionError("source and target point sets have different dimensions")
    dist = _pairwise_x_distances(source.xs, target.xs, spec.x_norm)
    bad = np.argwhere(~np.isfinite(dist))
    if bad.size:
        raise NumericalError(f"the {spec.x_norm.value} distance from source {bad[0, 0]} to target {bad[0, 1]} overflows")
    return dist + label_costs(spec, source.ys, target.ys)


def pushforward(mu: DiscreteMeasure, f: Callable[[np.ndarray], np.ndarray]) -> DiscreteMeasure:
    """Image measure under the array map f (n x d -> n x d'), applied to the
    support's rows; labels and weights are kept, and atoms stay
    index-aligned and are never merged."""
    support = mu.support
    return DiscreteMeasure(PointSet(f(support.xs), support.ys, support.label_count), mu.weights)


def marginal_rows(index: np.ndarray, count: int) -> np.ndarray:
    """Equality rows of a coupling LP whose variables are cells of a cost
    matrix, `index` holding each variable's source (or target) index: row r
    sums the variables whose index is r."""
    rows = np.zeros((count, index.size))
    rows[index, np.arange(index.size)] = 1.0
    return rows


def transport_cost(mu: DiscreteMeasure, nu: DiscreteMeasure, metric: MetricSpec) -> float:
    """Exact optimal coupling cost between mu and nu under `metric`, via the
    simplex LP."""
    a = mu.weights
    b = nu.weights
    C = cost_matrix(metric, mu.support, nu.support)
    n, m = C.shape

    finite = np.isfinite(C)
    for side, weights, reached, other in (("source", a, finite.any(axis=1), "destination"), ("target", b, finite.any(axis=0), "origin")):
        stuck = np.flatnonzero((weights > 0.0) & ~reached)
        if stuck.size:
            raise TransportInfeasibleError(f"{side} atom {stuck[0]} has no finite-cost {other}")

    rows, cols = np.nonzero(finite)
    objective = -C[rows, cols]
    marginals = np.concatenate([marginal_rows(rows, n), marginal_rows(cols, m)])
    solution = solve_lp(LPProblem(objective, marginals, np.concatenate([a, b])))
    if solution.status != LPStatus.OPTIMAL:
        raise TransportInfeasibleError(f"coupling LP terminated with status {solution.status.value}")
    return float(-solution.value)
