"""Distributionally robust risk over transport-cost balls.

The worst-case risk sup over the ball is computed through its one-dimensional
convex dual: minimize over lambda >= L of

    lambda * rho + sum_i w_i * max_k (value_ik - lambda * dist_ik),

where the inner envelope ranges either over the finite label set or over an
explicit finite candidate set with arbitrary loss tables (in which case the
identity is exact LP duality and L = 0).

A model f = head o phi (phi is every layer but the last, none for a linear
model) has a loss x -> CE(f(x), y) that is L-Lipschitz in the input metric
with L = bound(head) * lip(phi).  Once lambda >= L the continuous input
supremum collapses onto the sample point, so a certificate is the label dual
on the model's own loss table (row i: x_i against every label, costs
kappa * d_Y) over lambda >= L.  A constant phi gives L = 0; the loss is then
constant in x and that dual is the exact supremum.  The primal restricted to
a finite candidate set is also solved directly as an LP and serves as the
independent oracle; on any sub-grid the dual value can only dominate it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from wasslip.measures import (
    DiscreteMeasure,
    MetricSpec,
    PointSet,
    cost_matrix,
    label_costs,
    marginal_rows,
)
from wasslip.models import (
    MLP,
    ce_lipschitz_bound,
    label_loss_matrix,
    losses,
    phi_lipschitz_bound,
)
from wasslip.numerics import (
    DimensionError,
    FrozenRecord,
    LPProblem,
    LPStatus,
    NormTag,
    NumericalError,
    as_vector,
    axis_points,
    row_norms,
    solve_lp,
)

class RobustInstance(FrozenRecord):
    """An empirical measure, the product metric, a ball radius, and an
    optional finite candidate set used by the LP oracle."""

    __slots__ = ("empirical", "metric", "rho", "candidate_targets")

    def __init__(self, empirical: DiscreteMeasure, metric: MetricSpec, rho: float, candidate_targets: PointSet | None = None):
        if rho < 0.0:
            raise ValueError("rho must be non-negative")
        if metric.label_count != empirical.support.label_count:
            raise ValueError("metric and measure disagree on the label count")
        self._fill(empirical=empirical, metric=metric, rho=rho, candidate_targets=candidate_targets)


class DualSolution(NamedTuple):
    """The dual's minimizer and value; `lambda_floor` is the lower bound the
    dual was minimized over (the loss Lipschitz bound, or 0 on targets)."""

    lambda_star: float
    value: float
    envelopes: np.ndarray
    active_labels: np.ndarray
    lambda_floor: float


class RobustCertificate(NamedTuple):
    empirical_risk: float
    robust_value: float
    lambda_star: float
    rho: float
    kappa: float
    lipschitz_bound_used: float
    oracle_value: float | None = None
    oracle_gap: float | None = None
    verdicts: tuple = ()

    def to_json_dict(self, fingerprint: dict | None = None) -> dict:
        doc = self._asdict()
        doc["kappa"] = "inf" if math.isinf(self.kappa) else self.kappa
        doc["verdicts"] = [{"check": name, "passed": bool(ok)} for name, ok in self.verdicts]
        if fingerprint is not None:
            doc["fingerprint"] = fingerprint
        return doc


def _envelope_eval(values: np.ndarray, dists: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    scores = values - lam * dists
    return np.max(scores, axis=1), np.argmax(scores, axis=1)


def _minimize_envelope(
    weights: np.ndarray,
    values: np.ndarray,
    dists: np.ndarray,
    rho: float,
    lam_lo: float,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Leftmost minimizer of F(lam) = lam*rho + sum_i w_i max_k (values[i,k] -
    lam*dists[i,k]) over lam >= lam_lo, by an exact sorted-kink sweep.
    Infinite-cost options are padded out beforehand by `_finite_options`.

    F is convex and piecewise linear with slope rho - sum_i w_i d_i(lam), where
    d_i(lam) is the distance of atom i's active option.  Each atom's upper
    envelope is walked from its best option a at lam_lo: the next kink is the
    smallest crossing (v_a - v_j)/(d_a - d_j) over options j with d_j < d_a
    (a tie only adds a step at the same lambda; kinks below lam_lo by rounding
    count as lam_lo).  The distance falls at every step, so an atom has at
    most k - 1 kinks.  Sorting all kinks and sweeping the slope gives the
    first kink where it turns non-negative.  Cost: at most k vectorised O(nk)
    steps for the walk, O(nk log nk) for the sweep.
    """
    n = values.shape[0]
    rows = np.arange(n)
    active = np.argmax(values - lam_lo * dists, axis=1)
    live = rows[np.isfinite(values[rows, active])]
    kinks, steps = [np.empty(0)], [np.empty(0)]
    while live.size:
        a = active[live]
        drop = dists[live, a][:, None] - dists[live]
        cross = np.full(drop.shape, np.inf)
        np.divide(values[live, a][:, None] - values[live], drop, out=cross, where=drop > 0.0)
        nxt = np.argmin(cross, axis=1)
        lam = cross[np.arange(live.size), nxt]
        moved = np.isfinite(lam)
        live, a, nxt = live[moved], a[moved], nxt[moved]
        kinks.append(lam[moved])
        steps.append(weights[live] * (dists[live, a] - dists[live, nxt]))
        active[live] = nxt
    kinks, steps = np.concatenate(kinks), np.concatenate(steps)
    order = np.argsort(kinks)
    kinks = np.maximum(kinks[order], lam_lo)
    # slope on each piece, summed back from the last one, where every atom sits
    # on its nearest option; a slope within the rounding error of these sums
    # counts as zero, so a piece that is flat in exact arithmetic (uniform
    # weights, rho * n an integer) yields its left end
    remaining = np.append(np.cumsum(steps[order][::-1])[::-1], 0.0)
    final = float(np.dot(weights, dists[rows, active]))
    slopes = rho - final - remaining
    flat = (kinks.size + n) * np.finfo(float).eps * (rho + final + remaining[0])
    if not slopes[-1] >= -flat:
        raise ValueError("the dual is unbounded below: even the nearest options cost more than the budget rho")
    piece = int(np.argmax(slopes >= -flat))
    best_lam = lam_lo if piece == 0 else float(kinks[piece - 1])
    env, active = _envelope_eval(values, dists, best_lam)
    return best_lam, best_lam * rho + float(np.dot(weights, env)), env, active


def _finite_options(values: np.ndarray, dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Option tables for `_minimize_envelope`: an infinite-cost option gets
    value -inf and cost 0, so it never wins the max and never lowers the
    infimum."""
    if np.shape(values) != dists.shape:
        raise DimensionError(f"{np.shape(values)} option values for {dists.shape} option costs")
    infinite = ~np.isfinite(dists)
    if np.any(np.all(infinite, axis=1)):
        raise ValueError("a source atom has no finite-cost option")
    return np.where(infinite, -math.inf, values), np.where(infinite, 0.0, dists)


def minimize_dual(instance: RobustInstance, table: np.ndarray, lam_lo: float) -> DualSolution:
    """Leftmost exact minimizer over lambda >= lam_lo of the label dual on a
    (sample, label) loss table: option (i, y) keeps x_i, relabels it y and
    costs kappa * d_Y(y_i, y).  It bounds the supremum over the input ball
    once lam_lo is at least the Lipschitz constant of every loss slice
    x -> loss(x, y)."""
    support = instance.empirical.support
    costs = label_costs(instance.metric, support.ys, np.arange(support.label_count))
    values, dists = _finite_options(table, costs)
    lam, value, env, active = _minimize_envelope(instance.empirical.weights, values, dists, instance.rho, lam_lo)
    return DualSolution(lam, value, env, active, lam_lo)


def _target_table(instance: RobustInstance, target_losses) -> tuple[np.ndarray, np.ndarray]:
    """One loss per candidate target, and the source-to-target cost matrix."""
    targets = instance.candidate_targets
    if targets is None:
        raise ValueError("instance has no candidate targets")
    values = as_vector(target_losses)
    if values.size != len(targets):
        raise DimensionError("one loss per candidate target required")
    return values, cost_matrix(instance.metric, instance.empirical.support, targets).entries


def minimize_dual_on_targets(instance: RobustInstance, target_losses) -> DualSolution:
    """Dual of the ball supremum restricted to the finite candidate set, with
    arbitrary loss tables; equals the primal LP value by exact LP duality.
    `active_labels` holds candidate-target indices here."""
    target_values, costs = _target_table(instance, target_losses)
    values, dists = _finite_options(np.broadcast_to(target_values, costs.shape), costs)
    lam, value, env, active = _minimize_envelope(instance.empirical.weights, values, dists, instance.rho, lam_lo=0.0)
    return DualSolution(lam, value, env, active, 0.0)


def _undominated(values: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The finite-cost couplings (i, j) that no other candidate of atom i
    dominates; (i, j') dominates (i, j) when C[i, j'] <= C[i, j] and
    values[j'] >= values[j].  Each row is sorted by cost ascending, then loss
    descending (the sort is stable, so the lower index comes first on exact
    ties), and a candidate is kept when its loss is strictly above every loss
    before it.  Returns (atoms, targets), atom by atom in that sorted order."""
    loss = np.broadcast_to(values, C.shape)
    order = np.lexsort((-loss, C))
    ranked = np.take_along_axis(loss, order, axis=1)
    before = np.maximum.accumulate(np.column_stack([np.full(len(C), -np.inf), ranked[:, :-1]]), axis=1)
    rows, ranks = np.nonzero((ranked > before) & np.isfinite(np.take_along_axis(C, order, axis=1)))
    return rows, order[rows, ranks]


def primal_robust_risk_lp(instance: RobustInstance, target_losses) -> float:
    """Exact worst-case risk over distributions supported on the candidate
    set: max sum_ij pi_ij * loss_j subject to source marginals and the
    transport budget, solved with the simplex LP.

    The LP gets only the couplings that `_undominated` keeps, and its
    optimum is the same.  Every dropped (i, j) has a kept (i, j') with
    C[i, j'] <= C[i, j] and loss_j' >= loss_j: the first candidate before
    it in the sorted row whose loss reaches the running maximum.  Moving an
    optimal plan's mass from (i, j) to (i, j') keeps atom i's marginal, does
    not raise the budget row and does not lower the objective, so some
    optimal plan lives on the kept columns."""
    values, C = _target_table(instance, target_losses)
    w = instance.empirical.weights
    stuck = np.flatnonzero((w > 0.0) & ~np.isfinite(C).any(axis=1))
    if stuck.size:
        raise ValueError(f"source atom {stuck[0]} has no finite-cost candidate target")
    rows, cols = _undominated(values, C)
    objective = values[cols]
    budget = C[rows, cols]
    solution = solve_lp(LPProblem(objective, marginal_rows(rows, C.shape[0]), w, budget[None, :], [instance.rho]))
    if solution.status != LPStatus.OPTIMAL:
        raise NumericalError(f"restricted primal LP unexpectedly {solution.status.value}")
    return float(solution.value)


def kappa_threshold(instance: RobustInstance, table: np.ndarray, l_bound: float) -> float:
    """Smallest kappa beyond which no label switch can ever pay inside the
    label dual on a (sample, label) loss table over lambda >= l_bound (so the
    value collapses to empirical risk + rho * l_bound), floored at 1e-9.
    Returns inf when l_bound = 0."""
    if l_bound < 0.0:
        raise ValueError("l_bound must be non-negative")
    if l_bound == 0.0:
        return math.inf
    labels = instance.empirical.support.ys
    dy = instance.metric.label_metric[labels]  # (n, k): d_Y(y_i, y)
    gain = (table - table[np.arange(len(labels)), labels][:, None])[dy > 0.0] / (l_bound * dy[dy > 0.0])
    return max(float(np.max(gain, initial=0.0)), 1e-9)


class CertificateTable(NamedTuple):
    """What a model's certificates on one empirical measure share at every
    radius: the (sample, label) loss table, the empirical risk read off it,
    and the lambda floor bound(head) * lip(phi) in the input norm."""

    table: np.ndarray
    empirical_risk: float
    lambda_floor: float


def certificate_table(model: MLP, mu: DiscreteMeasure, tag: NormTag) -> CertificateTable:
    """One forward pass for the loss table and the spectral norms for the
    floor.  For f = head o phi (phi is every layer but the last, none for a
    linear model) each loss slice x -> CE(f(x), y) is
    bound(head)*lip(phi)-Lipschitz in the input norm.  An empty phi has
    lip(phi) = 1.0 exactly; a constant phi has lip(phi) = 0."""
    table = label_loss_matrix(model, mu.support.xs)
    own = table[np.arange(len(mu)), mu.support.ys]
    bad = np.flatnonzero(~np.isfinite(own))
    if bad.size:
        raise NumericalError(f"loss is non-finite at support index {bad[0]}")
    floor = ce_lipschitz_bound(model.layers[-1].weights, tag) * phi_lipschitz_bound(model.layers[:-1], tag)
    return CertificateTable(table, float(np.dot(mu.weights, own)), floor)


def certify_on_table(instance: RobustInstance, shared: CertificateTable, oracle_value: float | None = None) -> RobustCertificate:
    """The certificate at the instance's radius from its measure's shared
    table: the label dual over lambda >= the floor bounds the supremum over
    the input ball (at a floor of 0 it is the exact supremum).  A given
    `oracle_value` (the restricted primal LP) adds the oracle verdict.  A
    robust value that overflows, or falls more than 1e-9 below the empirical
    risk, raises NumericalError before any certificate is built."""
    emp = shared.empirical_risk
    dual = minimize_dual(instance, shared.table, shared.lambda_floor)
    if not math.isfinite(dual.value):
        raise NumericalError(f"the robust value overflows at rho {instance.rho!r}: {dual.value!r}")
    if dual.value < emp - 1e-9:
        raise NumericalError(f"robust value {dual.value} fell below the empirical risk {emp}")
    # true past the raise above; kept while perfbench's corrupted-report test
    # flips it (ROADMAP item 6)
    verdicts = [("robust_value_ge_empirical_risk", dual.value >= emp - 1e-9)]
    gap = None
    if oracle_value is not None:
        gap = dual.value - oracle_value
        verdicts.append(("dual_dominates_lp_oracle", gap >= -1e-9))
    return RobustCertificate(
        empirical_risk=emp,
        robust_value=dual.value,
        lambda_star=dual.lambda_star,
        rho=instance.rho,
        kappa=instance.metric.kappa,
        lipschitz_bound_used=shared.lambda_floor,
        oracle_value=oracle_value,
        oracle_gap=gap,
        verdicts=tuple(verdicts),
    )


def robust_certificate_for(model: MLP, instance: RobustInstance) -> RobustCertificate:
    """Upper bound on the robust risk of a model from one loss table and one
    dual (`certificate_table`, then `certify_on_table`), cross-checked
    against the restricted primal LP when the instance has a candidate set.
    A sweep over radii on one measure builds the table once and calls
    `certify_on_table` per radius."""
    shared = certificate_table(model, instance.empirical, instance.metric.x_norm)
    targets = instance.candidate_targets
    oracle_value = None if targets is None else primal_robust_risk_lp(instance, losses(model, targets.xs, targets.ys))
    return certify_on_table(instance, shared, oracle_value)


class EnvelopeCheck(NamedTuple):
    sup_values: tuple
    equality_gap: float
    equality_holds: bool
    growth_detected: bool


_ENVELOPE_DOUBLINGS = 3  # grid half-widths 1, 2, 4, 8 around z
_ENVELOPE_TOL = 1e-3


def check_envelope_collapse(
    psi: Callable[[np.ndarray], np.ndarray],
    gamma: float,
    z,
    points_per_dim: int = 65,
) -> EnvelopeCheck:
    """Grid study of sup_x psi(x) - gamma*||x - z||_2 for a batched psi
    (m x d -> m values).

    When gamma dominates lip(psi) the supremum collapses to psi(z) (equality
    holds within 1e-3); when gamma is strictly below it the supremum keeps
    growing as the grid half-width doubles from 1 to 8.  Growth is judged on
    the tail: the last doubling must raise the supremum and no doubling may
    lower it (a convex psi can sit at psi(z) for the first extents).  The
    verdict reports both behaviours so callers can assert the branch they
    expect.
    """
    z = as_vector(z)
    if z.size > 2:
        raise ValueError("grid study only supports 1- or 2-D centers")
    if points_per_dim < 2:
        raise ValueError(f"points_per_dim must be >= 2, got {points_per_dim}: one point per axis is only z")
    if points_per_dim % 2 == 0:
        points_per_dim += 1  # keep z itself on the grid
    psi_z = float(psi(z[None, :])[0])
    sups = []
    for k in range(_ENVELOPE_DOUBLINGS + 1):
        radius = 2.0**k
        axes = np.meshgrid(*(axis_points(c - radius, c + radius, points_per_dim) for c in z), indexing="ij")
        grid = np.stack([a.ravel() for a in axes], axis=1)
        sups.append(float(np.max(psi(grid) - gamma * row_norms(grid - z, NormTag.L2))))
    slack = [max(1e-9, 1e-6 * (1.0 + abs(s))) for s in sups]
    growth = sups[-1] > sups[-2] + slack[-2] and all(b >= a - t for a, b, t in zip(sups, sups[1:], slack))
    gap = max(sups) - psi_z
    return EnvelopeCheck(
        sup_values=tuple(sups),
        equality_gap=gap,
        equality_holds=gap <= _ENVELOPE_TOL,
        growth_detected=growth,
    )


def lattice_targets(instance: RobustInstance, axes: Sequence[np.ndarray]) -> PointSet:
    """Candidate-target set for the LP oracle: the lattice spanned by `axes`
    crossed with every label, plus the empirical support itself (so the
    identity coupling is always available)."""
    support = instance.empirical.support
    if len(axes) != support.dim:
        raise DimensionError("one axis per input dimension required")
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = np.stack([m.ravel() for m in mesh], axis=1)
    k = instance.metric.label_count
    xs = np.concatenate([np.repeat(lattice, k, axis=0), support.xs])
    ys = np.concatenate([np.tile(np.arange(k), len(lattice)), support.ys])
    return PointSet(xs, ys, support.label_count)


def grid_targets(instance: RobustInstance, side: int, pad: float = 0.0) -> PointSet:
    """Axis-aligned lattice covering the support's bounding box inflated by
    rho + pad, crossed with all labels, plus the support."""
    xs = instance.empirical.support.xs
    lo = xs.min(axis=0) - (instance.rho + pad)
    hi = xs.max(axis=0) + (instance.rho + pad)
    axes = [axis_points(lo[d], hi[d], side) for d in range(xs.shape[1])]
    if not all(np.all(np.isfinite(axis)) for axis in axes):
        raise NumericalError(f"the oracle grid overflows at rho {instance.rho!r}")
    return lattice_targets(instance, axes)
