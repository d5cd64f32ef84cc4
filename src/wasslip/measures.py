"""Finitely supported measures over labeled points, the kappa-product metric,
pushforwards, and exact transport costs via the simplex LP.

The metric on a labeled pair is ||x - x'|| + kappa * d_Y(y, y').  With
kappa = inf a label mismatch costs infinity; the transport LP encodes that
exactly by dropping the corresponding coupling variables instead of using a
big-M surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from wasslip import io
from wasslip.numerics import (
    DimensionError,
    FEASIBILITY_TOL,
    LPProblem,
    LPStatus,
    NormTag,
    as_vector,
    norm,
    solve_lp,
)


class TransportInfeasibleError(RuntimeError):
    """No finite-cost coupling exists between the two measures."""


@dataclass(frozen=True)
class LabeledPoint:
    x: np.ndarray
    y: int

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x))
        object.__setattr__(self, "y", int(self.y))
        if self.y < 0:
            raise ValueError("label ids must be non-negative")


@dataclass(frozen=True)
class PointSet:
    points: tuple
    label_count: int

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ValueError("point set must be non-empty")
        dim = pts[0].x.size
        for p in pts:
            if p.x.size != dim:
                raise DimensionError("all points must share the input dimension")
            if p.y >= self.label_count:
                raise ValueError(f"label {p.y} outside [0, {self.label_count})")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points[0].x.size

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> LabeledPoint:
        return self.points[i]

    def xs(self) -> np.ndarray:
        return np.stack([p.x for p in self.points])

    def labels(self) -> np.ndarray:
        return np.array([p.y for p in self.points], dtype=int)


def point_set(xs: Iterable, ys: Iterable[int], label_count: int) -> PointSet:
    return PointSet(tuple(LabeledPoint(x, y) for x, y in zip(xs, ys)), label_count)


@dataclass(frozen=True)
class DiscreteMeasure:
    support: PointSet
    weights: np.ndarray

    def __post_init__(self):
        w = as_vector(self.weights)
        if w.size != len(self.support):
            raise DimensionError("one weight per support point required")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {float(np.sum(w))!r}")
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.support)


def dirac(point: LabeledPoint, label_count: int) -> DiscreteMeasure:
    return DiscreteMeasure(PointSet((point,), label_count), np.array([1.0]))


def empirical_from_samples(points: PointSet) -> DiscreteMeasure:
    """Uniform weights 1/n; duplicate points keep their own index (multiset)."""
    n = len(points)
    return DiscreteMeasure(points, np.full(n, 1.0 / n))


def discrete_label_metric(label_count: int) -> np.ndarray:
    return 1.0 - np.eye(label_count)


@dataclass(frozen=True)
class MetricSpec:
    """Product metric ||x-x'|| + kappa * d_Y(y,y') on labeled points."""

    x_norm: NormTag
    kappa: float
    label_count: int
    label_metric: np.ndarray | None = None

    def __post_init__(self):
        if not (self.kappa > 0.0):  # inf is allowed, zero and NaN are not
            raise ValueError("kappa must be positive (or inf)")
        if self.label_count < 1:
            raise ValueError("label_count must be >= 1")
        lm = self.label_metric
        lm = discrete_label_metric(self.label_count) if lm is None else np.asarray(lm, dtype=float)
        k = self.label_count
        if lm.shape != (k, k):
            raise DimensionError(f"label metric must be {k}x{k}")
        if not np.all(np.isfinite(lm)):
            raise ValueError("label metric entries must be finite")
        if np.any(lm < 0.0):
            raise ValueError("label metric must be non-negative")
        if np.max(np.abs(np.diag(lm))) > 0.0:
            raise ValueError("label metric must have a zero diagonal")
        if np.max(np.abs(lm - lm.T)) > 1e-12:
            raise ValueError("label metric must be symmetric")
        # exhaustive triangle-inequality check over (a, b, c): lm[a,b] <= lm[a,c] + lm[c,b]
        broken = np.argwhere(lm[:, :, None] > lm[:, None, :] + lm.T[None, :, :] + 1e-12)
        if broken.size:
            raise ValueError("label metric violates the triangle inequality at ({},{},{})".format(*broken[0]))
        object.__setattr__(self, "label_metric", lm)


def metric_eval(spec: MetricSpec, s: LabeledPoint, t: LabeledPoint) -> float:
    if s.x.size != t.x.size:
        raise DimensionError("points live in different input dimensions")
    if s.y >= spec.label_count or t.y >= spec.label_count:
        raise ValueError("label outside the metric's label universe")
    dy = float(spec.label_metric[s.y, t.y])
    dx = norm(s.x - t.x, spec.x_norm)
    if dy == 0.0:
        return dx
    if math.isinf(spec.kappa):
        return math.inf
    return dx + spec.kappa * dy


@dataclass(frozen=True)
class CostMatrix:
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2:
            raise DimensionError("cost matrix must be 2-D")
        if np.any(np.isnan(e)) or np.any(e < 0.0):
            raise ValueError("costs must be non-negative (inf allowed)")
        object.__setattr__(self, "entries", e)


def _pairwise_x_distances(xs: np.ndarray, xt: np.ndarray, tag: NormTag) -> np.ndarray:
    diff = xs[:, None, :] - xt[None, :, :]
    if tag == NormTag.L1:
        return np.sum(np.abs(diff), axis=2)
    if tag == NormTag.L2:
        return np.sqrt(np.sum(diff * diff, axis=2))
    return np.max(np.abs(diff), axis=2)


def cost_matrix(spec: MetricSpec, source: PointSet, target: PointSet) -> CostMatrix:
    if source.dim != target.dim:
        raise DimensionError("source and target point sets have different dimensions")
    dx = _pairwise_x_distances(source.xs(), target.xs(), spec.x_norm)
    dy = spec.label_metric[np.ix_(source.labels(), target.labels())]
    if math.isinf(spec.kappa):
        entries = np.where(dy > 0.0, math.inf, dx)
    else:
        entries = dx + spec.kappa * dy
    if source is target:
        np.fill_diagonal(entries, 0.0)
    return CostMatrix(entries)


def pushforward(mu: DiscreteMeasure, mapping: Callable[[LabeledPoint], LabeledPoint]) -> DiscreteMeasure:
    """Image measure; atoms stay index-aligned and are never merged."""
    image = tuple(mapping(p) for p in mu.support.points)
    return DiscreteMeasure(PointSet(image, mu.support.label_count), mu.weights.copy())


def marginal_rows(index: np.ndarray, count: int) -> np.ndarray:
    """Equality rows of a coupling LP whose variables are the finite-cost
    cells (row-major, as np.nonzero lists them): row r sums the variables
    whose source (or target) index is r."""
    return (index[None, :] == np.arange(count)[:, None]).astype(float)


def transport_cost(mu: DiscreteMeasure, nu: DiscreteMeasure, costs: CostMatrix) -> float:
    """Exact optimal coupling cost between mu and nu via the simplex LP."""
    a = mu.weights
    b = nu.weights
    C = costs.entries
    n, m = C.shape
    if a.size != n or b.size != m:
        raise DimensionError("cost matrix shape does not match the two supports")

    finite = np.isfinite(C)
    for side, weights, reached, other in (("source", a, finite.any(axis=1), "destination"), ("target", b, finite.any(axis=0), "origin")):
        stuck = np.flatnonzero((weights > 0.0) & ~reached)
        if stuck.size:
            raise TransportInfeasibleError(f"{side} atom {stuck[0]} has no finite-cost {other}")

    rows, cols = np.nonzero(finite)
    objective = -C[rows, cols]
    eq = [(row, float(v)) for row, v in zip(marginal_rows(rows, n), a)]
    eq += [(row, float(v)) for row, v in zip(marginal_rows(cols, m), b)]
    solution = solve_lp(LPProblem(objective, eq_constraints=eq))
    if solution.status != LPStatus.OPTIMAL:
        raise TransportInfeasibleError(f"coupling LP terminated with status {solution.status.value}")
    return float(-solution.value)


def ball_contains(mu: DiscreteMeasure, nu: DiscreteMeasure, costs: CostMatrix, rho: float) -> bool:
    """Whether nu lies in the transport ball of radius rho around mu."""
    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    return transport_cost(mu, nu, costs) <= rho + FEASIBILITY_TOL


def save_measure_csv(mu: DiscreteMeasure, path) -> None:
    header = ["weight", "label"] + [f"x{i}" for i in range(mu.support.dim)]
    rows = []
    for w, p in zip(mu.weights, mu.support.points):
        rows.append([float(w), int(p.y)] + [float(c) for c in p.x])
    io.write_csv(path, header, rows)


def load_measure_csv(path, label_count: int | None = None) -> DiscreteMeasure:
    header, rows = io.read_csv(path)
    if header[:2] != ["weight", "label"]:
        raise ValueError("measure CSV must start with weight,label columns")
    weights = []
    points = []
    for row in rows:
        weights.append(float(row[0]))
        points.append(LabeledPoint(np.array([float(c) for c in row[2:]]), int(row[1])))
    k = label_count if label_count is not None else max(p.y for p in points) + 1
    return DiscreteMeasure(PointSet(tuple(points), k), np.array(weights))
