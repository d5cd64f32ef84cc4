"""Adversarial risk under norm-bounded input perturbations.

The attack never touches labels, so pushing every atom by its perturbation
keeps the empirical measure inside the transport ball of radius
max_i ||delta_i||; the dual robust value at rho = epsilon therefore upper
bounds the adversarial risk for any kappa (`suite.check_adversarial_bound`
checks this).  PGD and FGSM, its one-step case, report lower bounds on the
inner maximum (which only makes the inequality easier); GRID mode makes the
check sharp in two dimensions by sweeping a lattice plus a dense boundary
ring.  `attack_sweep` is the one way in: it attacks a list of radii, checking
the clean losses and drawing PGD's restarts once for the whole sweep.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from wasslip.measures import DiscreteMeasure
from wasslip.models import MLP, finite_losses, loss_grads, losses
from wasslip.numerics import FrozenRecord, NormTag, NumericalError, axis_points, ensure_addressable, lattice, row_norms
from wasslip.seeding import derive_rng


class BallSpec(FrozenRecord):
    __slots__ = ("norm", "epsilon")

    def __init__(self, norm: NormTag, epsilon: float):
        if epsilon < 0.0 or not math.isfinite(epsilon):
            raise ValueError("epsilon must be finite and non-negative")
        self._fill(norm=norm, epsilon=epsilon)


class AttackConfig(FrozenRecord):
    __slots__ = ("method", "steps", "step_size", "restarts", "seed", "grid_points")

    def __init__(
        self,
        method: str = "PGD",  # PGD | FGSM | GRID
        steps: int = 40,
        step_size: float | None = None,  # default: 2.5 * epsilon / steps
        restarts: int = 3,
        seed: int = 0,
        grid_points: int = 41,
    ):
        if method not in ("PGD", "FGSM", "GRID"):
            raise ValueError(f"unknown attack method {method!r}")
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if step_size is not None and step_size <= 0.0:
            raise ValueError("step_size must be positive")
        self._fill(method=method, steps=steps, step_size=step_size, restarts=restarts, seed=seed, grid_points=grid_points)


class AttackResult(NamedTuple):
    perturbations: np.ndarray
    losses: np.ndarray
    adversarial_risk: float
    epsilon: float


def _project_l1_rows(V: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of every row onto the l1 ball via the sorted
    simplex projection."""
    U = np.sort(np.abs(V), axis=1)[:, ::-1]
    cumsum = np.cumsum(U, axis=1)
    ks = np.arange(1, V.shape[1] + 1)
    mask = U > (cumsum - radius) / ks
    k = V.shape[1] - np.argmax(mask[:, ::-1], axis=1)  # last True, 1-based
    theta = (cumsum[np.arange(V.shape[0]), k - 1] - radius) / k
    return np.sign(V) * np.maximum(np.abs(V) - theta[:, None], 0.0)


def _project_rows(V: np.ndarray, ball: BallSpec) -> np.ndarray:
    """Project every row of V onto the ball; rows inside are left as they are."""
    eps = ball.epsilon
    if eps == 0.0:
        return np.zeros_like(V)
    if ball.norm == NormTag.LINF:
        return np.clip(V, -eps, eps)
    sizes = row_norms(V, ball.norm)
    outside = sizes > eps
    out = V.copy()
    if ball.norm == NormTag.L2:
        out[outside] = V[outside] * (eps / sizes[outside])[:, None]
    else:
        out[outside] = _project_l1_rows(V[outside], eps)
    return out


def _ascent_directions(G: np.ndarray, tag: NormTag) -> np.ndarray:
    """Steepest-ascent direction of every gradient row under the ball norm."""
    if tag == NormTag.LINF:
        return np.sign(G)
    if tag == NormTag.L2:
        sizes = row_norms(G, tag)
        return G / np.where(sizes > 0.0, sizes, 1.0)[:, None]
    # an l1 budget goes entirely onto the best coordinate; an all-zero row
    # gets no direction, as under the other norms
    out = np.zeros_like(G)
    rows = np.arange(G.shape[0])
    best = np.argmax(np.abs(G), axis=1)
    out[rows, best] = np.sign(G[rows, best])
    return out


def restart_draws(seed: int, atoms: int, dim: int, norm: NormTag, restarts: int) -> np.ndarray:
    """Every atom's `restarts` random starts as points of the unit ball, shape
    (restarts, atoms, dim); `_pgd` scales them by the radius and projects
    them onto the ball, so one draw serves every radius.

    Atom i draws from its own stream derive_rng(seed, f"attack/{i}"): for
    LINF and L1 one uniform(-1, 1) vector per restart; for L2, per restart, a
    normal direction and then, unless it is all zero (which gives a zero
    row), a uniform radius factor u ** (1/dim).
    """
    ensure_addressable((restarts, atoms, dim), "the restart draws")
    draws = np.zeros((restarts, atoms, dim))
    for i in range(atoms):
        rng = derive_rng(seed, f"attack/{i}")
        if norm != NormTag.L2:
            draws[:, i] = rng.uniform(-1.0, 1.0, (restarts, dim))
            continue
        for r in range(restarts):
            direction = rng.standard_normal(dim)
            nd = math.sqrt(float(np.dot(direction, direction)))
            if nd > 0.0:
                draws[r, i] = direction / nd * rng.uniform() ** (1.0 / dim)
    return draws


def _pgd(model: MLP, X: np.ndarray, Y: np.ndarray, ball: BallSpec, steps: int, step_size, draws: np.ndarray | None = None, warm_starts=()):
    """Projected gradient ascent from every start of every atom at once.

    Atom i starts from zero, from its row of each warm start (projected),
    then from its unit-ball rows of `draws` (see `restart_draws`) scaled to
    this radius and projected, if any.  The S (start, atom) blocks are
    stacked into S*n rows that step together.  A row stops for good when its
    ascent direction is all zero or when its projected step returns its
    iterate bit for bit (compared as int64 views, so -0.0 to 0.0 is a move):
    rows do not depend on the batch, so such a row would get the same loss
    and direction at every later step, and a loss it has already had is
    never strictly better.  Each atom keeps its first maximum in (start,
    step) order.

    One forward/backward pass per step: the pass that scores a step's
    iterate also gives the next step's ascent direction, so s steps make at
    most s + 1 passes.  Every row is bit-identical to evaluating it alone,
    so this equals scoring and differentiating in separate passes.
    """
    if ball.epsilon == 0.0:
        return np.zeros_like(X), losses(model, X, Y)
    starts = [np.zeros_like(X)] + [_project_rows(np.asarray(ws, dtype=float), ball) for ws in warm_starts]
    if draws is not None:
        if draws.shape[1:] != X.shape:
            raise ValueError(f"restart draws of shape {draws.shape} do not fit {X.shape[0]} atoms in dimension {X.shape[1]}")
        starts.append(_project_rows(ball.epsilon * draws.reshape(-1, X.shape[1]), ball))
    delta = np.concatenate(starts)
    n, d = X.shape
    S = delta.shape[0] // n
    step = step_size if step_size is not None else 2.5 * ball.epsilon / steps
    # the live rows' points, labels and iterates are kept packed in live order
    Xs, Ys = np.tile(X, (S, 1)), np.tile(Y, S)
    best_delta = delta.copy()
    out = loss_grads(model, Xs + delta, Ys)
    best_loss = out.losses
    live = np.arange(S * n)
    for _ in range(steps):
        direction = _ascent_directions(out.grad_x, ball.norm)
        stepped = _project_rows(delta + step * direction, ball)
        keep = direction.any(axis=1) & np.any(stepped.view(np.int64) != delta.view(np.int64), axis=1)
        if not keep.all():
            live, Xs, Ys, stepped = live[keep], Xs[keep], Ys[keep], stepped[keep]
            if live.size == 0:
                break
        delta = stepped
        out = loss_grads(model, Xs + delta, Ys)
        better = out.losses > best_loss[live]
        best_loss[live[better]] = out.losses[better]
        best_delta[live[better]] = delta[better]
    per_start = best_loss.reshape(S, n)
    winner = np.argmax(per_start, axis=0)  # ties go to the earliest start
    atoms = np.arange(n)
    return best_delta.reshape(S, n, d)[winner, atoms], per_start[winner, atoms]


def _boundary_ring(ball: BallSpec, count: int) -> np.ndarray:
    """Dense boundary sample of a 2-D ball; the maximum of a convex loss over
    the ball lives on the boundary, so this is where resolution matters."""
    eps = ball.epsilon
    ts = np.linspace(0.0, 1.0, count, endpoint=False)
    if ball.norm == NormTag.L2:
        ang = 2.0 * math.pi * ts
        return np.stack([eps * np.cos(ang), eps * np.sin(ang)], axis=1)
    if ball.norm == NormTag.LINF:
        side = np.linspace(-eps, eps, max(count // 4, 2))
        full = np.full_like(side, eps)
        pieces = ((side, full), (side, -full), (full, side), (-full, side))
    else:  # l1 diamond
        side = np.linspace(0.0, eps, max(count // 4, 2))
        pieces = ((side, eps - side), (-side, eps - side), (side, side - eps), (-side, side - eps))
    return np.concatenate([np.stack(piece, axis=1) for piece in pieces], axis=0)


_GRID_ROWS = 1 << 16  # loss rows evaluated per batch by the grid attack


def _grid(model: MLP, X: np.ndarray, Y: np.ndarray, ball: BallSpec, points_per_dim: int):
    """Exhaustive sweep of every atom over one candidate set: the zero
    perturbation, a lattice inside the ball and, in 2-D, a dense boundary
    ring.  Each atom keeps its first maximum in candidate order."""
    n, dim = X.shape
    if dim > 2:
        raise ValueError("grid attack only supports 1- or 2-D inputs")
    eps = ball.epsilon
    if eps == 0.0:
        return np.zeros_like(X), losses(model, X, Y)
    candidates = lattice([axis_points(-eps, eps, points_per_dim)] * dim)
    if dim == 2:
        candidates = np.concatenate([candidates, _boundary_ring(ball, 16 * points_per_dim)], axis=0)
    candidates = np.concatenate([np.zeros((1, dim)), candidates], axis=0)
    candidates = candidates[row_norms(candidates, ball.norm) <= eps * (1.0 + 1e-12)]
    m = candidates.shape[0]
    table = np.empty((n, m))
    chunk = max(1, _GRID_ROWS // m)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        points = (X[lo:hi, None, :] + candidates[None, :, :]).reshape(-1, dim)
        table[lo:hi] = losses(model, points, np.repeat(Y[lo:hi], m)).reshape(hi - lo, m)
    best = np.argmax(table, axis=1)
    return candidates[best], table[np.arange(n), best]


def attack_sweep(
    model: MLP,
    mu: DiscreteMeasure,
    norm: NormTag,
    epsilons: Sequence[float],
    config: AttackConfig = AttackConfig(),
) -> list:
    """The attack at each radius, in ascending order of radius; each result's
    risk is the weighted average of the per-atom worst-case losses.

    A non-finite clean loss raises `models.finite_losses`'s NumericalError
    first, once for the sweep.  Every atom is attacked at once.  PGD then
    draws its restarts once, from `restart_draws` (atom i from its own stream
    derive_rng(config.seed, f"attack/{i}"), so results do not depend on how
    the atoms are batched), as unit-ball points that each radius scales to
    itself and projects; it also starts each radius from the previous
    radius's optimum, taken as it is and scaled to the new radius (when the
    previous radius is positive), so its reported risk never falls as the
    radius grows.  FGSM and GRID use neither.
    """
    X, Y = mu.support.xs, mu.support.ys
    finite_losses(losses(model, X, Y))
    draws = restart_draws(config.seed, len(Y), X.shape[1], norm, config.restarts) if config.method == "PGD" else None
    results = []
    for eps in sorted(epsilons):
        ball = BallSpec(norm, eps)
        # the largest values an attack forms: a point plus a perturbation of a
        # few epsilon (a start inside the ball plus a step, 2.5 epsilon / steps
        # by default), and in L2 the sum of dim squares of such a perturbation
        span = 2.5 * eps + (config.step_size or 0.0)
        if not math.isfinite(float(np.max(np.abs(X))) + span) or (norm == NormTag.L2 and not math.isfinite(span * span * X.shape[1])):
            raise NumericalError(f"the attack at epsilon {eps!r} leaves the floating-point range")
        if config.method == "GRID":
            deltas, values = _grid(model, X, Y, ball, config.grid_points)
        elif config.method == "FGSM":
            # one step of size epsilon from the clean point, which a tie keeps
            deltas, values = _pgd(model, X, Y, ball, 1, eps)
        else:
            starts = ()
            if results and results[-1].epsilon > 0:
                prev = results[-1]
                starts = (prev.perturbations, prev.perturbations * (eps / prev.epsilon))
            deltas, values = _pgd(model, X, Y, ball, config.steps, config.step_size, draws, starts)
        sizes = row_norms(deltas, norm)
        if np.any(sizes > eps + 1e-9):
            raise RuntimeError(f"attack produced an infeasible perturbation of norm {float(np.max(sizes))}")
        risk = float(np.dot(mu.weights, values))
        if not math.isfinite(risk):
            raise NumericalError(f"the attacked losses overflow at epsilon {eps!r}")
        results.append(AttackResult(deltas, values, risk, eps))
    return results
