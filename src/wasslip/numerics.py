"""Dense numerical kernels shared by every other module.

Everything here is deterministic: power iteration starts from a fixed seeded
vector, the simplex solver prices by Dantzig's rule with a fallback to Bland's
rule against cycling, and tolerances are module constants rather than
per-call knobs.  Only induced operator norms from one of {L1, L2, LINF} to
itself are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

FEASIBILITY_TOL = 1e-9
CONVERGENCE_TOL = 1e-10
MAX_ITERATIONS = 10_000

_PIVOT_TOL = 1e-10
# fixed stream so every power-iteration call sees the same starting vector
_POWER_SEED = 0x9E3779B97F4A7C15


class DimensionError(ValueError):
    """Shapes do not line up."""


class UnsupportedNormError(ValueError):
    """Norm or norm pair outside the supported induced-norm set."""


class NumericalError(RuntimeError):
    """A solver exceeded its iteration cap or failed internal validation."""


class NormTag(str, Enum):
    L1 = "L1"
    L2 = "L2"
    LINF = "LINF"

    @property
    def dual(self) -> "NormTag":
        return _DUAL[self]


_DUAL = {NormTag.L1: NormTag.LINF, NormTag.L2: NormTag.L2, NormTag.LINF: NormTag.L1}


def as_vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(values) -> np.ndarray:
    m = np.asarray(values, dtype=float)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def norm(v, tag: NormTag) -> float:
    v = as_vector(v)
    if v.size == 0:
        raise DimensionError("norm of an empty vector is undefined")
    if tag == NormTag.L1:
        return float(np.sum(np.abs(v)))
    if tag == NormTag.L2:
        return float(math.sqrt(np.dot(v, v)))
    if tag == NormTag.LINF:
        return float(np.max(np.abs(v)))
    raise UnsupportedNormError(f"unsupported norm tag {tag!r}")


def row_norms(D: np.ndarray, tag: NormTag) -> np.ndarray:
    """The norm of every row of D, each bit-identical to `norm` on that row
    (L2 takes one dot product per row)."""
    if tag == NormTag.L1:
        return np.sum(np.abs(D), axis=1)
    if tag == NormTag.L2:
        return np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])
    if tag == NormTag.LINF:
        return np.max(np.abs(D), axis=1)
    raise UnsupportedNormError(f"unsupported norm tag {tag!r}")


def _power_start(n: int, salt: int = 0) -> np.ndarray:
    # harmonic profile plus tiny seeded noise: overlaps every singular
    # direction with probability one while staying reproducible
    base = 1.0 / np.arange(1, n + 1, dtype=float)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([_POWER_SEED, n, salt])))
    v = base + 1e-3 * rng.standard_normal(n)
    return v / math.sqrt(np.dot(v, v))


def power_iteration(
    W,
    max_iters: int = MAX_ITERATIONS,
    tol: float = CONVERGENCE_TOL,
    v0: np.ndarray | None = None,
    history: list | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest singular value of W with unit left/right singular vectors.

    Iterates v <- W^T W v from a deterministic seeded start and stops when two
    successive sigma estimates differ by less than `tol`.  A zero matrix
    returns (0, e1, e1).
    """
    W = as_matrix(W)
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    m, n = W.shape
    if not W.any():
        u = np.zeros(m)
        u[0] = 1.0
        v = np.zeros(n)
        v[0] = 1.0
        return 0.0, u, v
    if v0 is None:
        v = _power_start(n)
    else:
        v = as_vector(v0)
        nv = math.sqrt(np.dot(v, v))
        v = _power_start(n) if nv == 0.0 else v / nv

    sigma = 0.0
    sigma_prev = -1.0
    w = W @ v
    for it in range(max_iters):
        w = W @ v
        sigma = math.sqrt(np.dot(w, w))
        if sigma <= 1e-300:
            # start landed in the null space; deterministic re-kick
            v = _power_start(n, salt=it + 1)
            continue
        if history is not None:
            history.append(sigma)
        if abs(sigma - sigma_prev) < tol:
            break
        sigma_prev = sigma
        v_next = W.T @ w
        v = v_next / math.sqrt(np.dot(v_next, v_next))
    u = w / sigma if sigma > 0.0 else np.zeros(m)
    return float(sigma), u, v


def operator_norm(W, tag: NormTag) -> float:
    """Induced operator norm of W with the `tag` norm on both sides."""
    W = as_matrix(W)
    if tag == NormTag.L1:
        return float(np.max(np.sum(np.abs(W), axis=0)))
    if tag == NormTag.LINF:
        return float(np.max(np.sum(np.abs(W), axis=1)))
    if tag == NormTag.L2:
        sigma, _, _ = power_iteration(W, tol=1e-13)
        return sigma
    raise UnsupportedNormError(f"unsupported norm tag {tag!r}")


class LPStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPProblem:
    """max objective . x  s.t.  eq rows hold, ineq rows are <=, x >= 0."""

    objective: np.ndarray
    eq_constraints: list = field(default_factory=list)
    ineq_constraints: list = field(default_factory=list)


@dataclass(frozen=True)
class LPSolution:
    status: LPStatus
    value: float
    point: np.ndarray | None
    pivots: int


def _run_simplex(T: np.ndarray, basis: list) -> tuple[str, int]:
    """Simplex on a tableau whose last row is the objective row.

    Dantzig pricing: the most negative reduced cost enters, the lowest index
    on ties.  After m degenerate pivots in a row (minimum ratio 0), Bland's
    lowest-index rule prices until a pivot moves the objective again.  A
    cycle consists of degenerate pivots only, and Bland's rule cannot cycle.
    The leaving row has the minimum ratio, the lowest basic index on ties.
    Returns the status and the number of pivots made.
    """
    m = T.shape[0] - 1
    degenerate_run = 0
    for pivots in range(MAX_ITERATIONS):
        obj = T[-1, :-1]
        negative = obj < -_PIVOT_TOL
        if not negative.any():
            return "optimal", pivots
        # Dantzig, or Bland (first eligible index) after a degenerate run
        j = int(np.argmin(obj)) if degenerate_run < m else int(np.argmax(negative))
        col = T[:m, j]
        pos = np.nonzero(col > _PIVOT_TOL)[0]
        if pos.size == 0:
            return "unbounded", pivots
        rhs = np.maximum(T[:m, -1][pos], 0.0)
        ratios = rhs / col[pos]
        best = float(np.min(ratios))
        degenerate_run = degenerate_run + 1 if best == 0.0 else 0
        ties = pos[ratios <= best + 1e-11 * (1.0 + abs(best))]
        r = int(min(ties, key=lambda i: basis[i]))  # lowest basic index leaves
        piv = T[r, j]
        T[r] /= piv
        colvals = T[:, j].copy()
        colvals[r] = 0.0
        T -= np.outer(colvals, T[r])
        basis[r] = j
    raise NumericalError("simplex iteration cap exceeded")


def solve_lp(problem: LPProblem) -> LPSolution:
    """Two-phase dense simplex: Dantzig pricing with a Bland fallback.

    `pivots` on the result counts every tableau pivot over both phases,
    including those that drive artificials out of the basis after phase 1.
    """
    c = as_vector(problem.objective)
    n = c.size
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    kinds: list[str] = []
    for row, b in problem.eq_constraints:
        rows.append(as_vector(row))
        rhs.append(float(b))
        kinds.append("eq")
    for row, b in problem.ineq_constraints:
        rows.append(as_vector(row))
        rhs.append(float(b))
        kinds.append("le")
    for row in rows:
        if row.size != n:
            raise DimensionError(f"constraint row has {row.size} entries, expected {n}")

    m = len(rows)
    n_slack = sum(1 for k in kinds if k == "le")
    A = np.zeros((m, n + n_slack))
    b = np.array(rhs, dtype=float)
    slack_col = n
    slack_of = [-1] * m
    for i, row in enumerate(rows):
        A[i, :n] = row
        if kinds[i] == "le":
            A[i, slack_col] = 1.0
            slack_of[i] = slack_col
            slack_col += 1
    negated = np.zeros(m, dtype=bool)
    for i in range(m):
        if b[i] < 0.0:
            A[i] *= -1.0
            b[i] *= -1.0
            negated[i] = True

    needs_art = [kinds[i] == "eq" or negated[i] for i in range(m)]
    n_art = sum(needs_art)
    total = n + n_slack + n_art
    T = np.zeros((m + 1, total + 1))
    T[:m, : n + n_slack] = A
    T[:m, -1] = b
    basis: list[int] = []
    art_col = n + n_slack
    art_cols: list[int] = []
    for i in range(m):
        if needs_art[i]:
            T[i, art_col] = 1.0
            basis.append(art_col)
            art_cols.append(art_col)
            art_col += 1
        else:
            basis.append(slack_of[i])

    scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0)

    pivots = 0
    if n_art:
        # phase 1: maximize -sum(artificials)
        T[-1, :] = 0.0
        for col in art_cols:
            T[-1, col] = 1.0
        for i in range(m):
            if basis[i] in art_cols:
                T[-1] -= T[i]
        status, pivots = _run_simplex(T, basis)
        if status != "optimal" or T[-1, -1] < -1e-8 * scale:
            return LPSolution(LPStatus.INFEASIBLE, math.nan, None, pivots)
        # drive artificials out of the basis; an all-zero row is redundant
        art_set = set(art_cols)
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] in art_set:
                pivot_col = -1
                for j in range(n + n_slack):
                    if abs(T[i, j]) > _PIVOT_TOL:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    piv = T[i, pivot_col]
                    T[i] /= piv
                    colvals = T[:, pivot_col].copy()
                    colvals[i] = 0.0
                    T -= np.outer(colvals, T[i])
                    basis[i] = pivot_col
                    pivots += 1
                else:
                    keep[i] = False
        col_mask = np.ones(total + 1, dtype=bool)
        col_mask[art_cols] = False
        T = T[np.append(keep, True)][:, col_mask]
        basis = [basis[i] for i in range(m) if keep[i]]
        m = len(basis)

    # phase 2: restore the real objective
    total2 = T.shape[1] - 1
    T[-1, :] = 0.0
    T[-1, :n] = -c
    for i in range(m):
        if abs(T[-1, basis[i]]) > 0.0:
            T[-1] -= T[-1, basis[i]] * T[i]
    status, phase2_pivots = _run_simplex(T, basis)
    pivots += phase2_pivots
    if status == "unbounded":
        return LPSolution(LPStatus.UNBOUNDED, math.inf, None, pivots)

    x = np.zeros(total2)
    for i in range(m):
        x[basis[i]] = T[i, -1]
    point = np.where(np.abs(x[:n]) < 1e-12, 0.0, x[:n])
    if np.any(point < -FEASIBILITY_TOL):
        raise NumericalError("simplex produced a negative variable")
    point = np.maximum(point, 0.0)
    _validate_solution(problem, point, scale)
    return LPSolution(LPStatus.OPTIMAL, float(np.dot(c, point)), point, pivots)


def _validate_solution(problem: LPProblem, x: np.ndarray, scale: float) -> None:
    tol = 1e-8 * scale
    for row, b in problem.eq_constraints:
        if abs(float(np.dot(row, x)) - float(b)) > tol:
            raise NumericalError("equality constraint violated beyond tolerance")
    for row, b in problem.ineq_constraints:
        if float(np.dot(row, x)) > float(b) + tol:
            raise NumericalError("inequality constraint violated beyond tolerance")
