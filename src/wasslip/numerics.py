"""Dense numerical kernels shared by every other module.

Everything here is deterministic: power iteration starts from a fixed seeded
vector, the revised simplex solver keeps an explicit basis inverse and prices
by Dantzig's rule with a fallback to Bland's rule against cycling, and
tolerances are module constants rather than per-call knobs.  An LP holds its
constraints as matrices; its optimum is returned with its dual, both checked.
Only induced operator norms from one of {L1, L2, LINF} to itself are supported.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

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


class FrozenRecord:
    """Base of the validating records: each subclass lists its fields in
    `__slots__` and sets them once, at the end of `__init__`, with `_fill`;
    afterwards no field can be set or deleted."""

    __slots__ = ()

    def _fill(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


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


def axis_points(lo: float, hi: float, count: int) -> np.ndarray:
    """np.linspace(lo, hi, count) for a count read from a config.  A count
    whose float64 bytes exceed any address space (counted in floating point,
    as np.linspace counts them) raises MemoryError, as a smaller allocation
    this machine cannot hold does; np.linspace itself raises ValueError
    there, or IndexError within 512 of 2**63."""
    if 8.0 * count > sys.maxsize:
        raise MemoryError(f"Unable to allocate {count} float64 points, more bytes than any address space holds")
    return np.linspace(lo, hi, count)


def ensure_addressable(shape: tuple, what: str) -> None:
    """Raise MemoryError before an array of `shape` with 8-byte items is made
    when its bytes exceed any address space, as a smaller allocation this
    machine cannot hold does; numpy raises ValueError ("array is too big")
    there instead."""
    if 8 * math.prod(shape) > sys.maxsize:
        raise MemoryError(f"Unable to allocate {what} (shape {shape}): more bytes than any address space holds")


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
    tol: float = CONVERGENCE_TOL,
    v0: np.ndarray | None = None,
    history: list | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest singular value of W with unit left/right singular vectors.

    Iterates v <- W^T W v from a deterministic seeded start and stops when two
    successive sigma estimates differ by less than `tol`.  A zero matrix
    returns (0, e1, e1); on any other, a sigma that is not positive and
    finite (its squares overflow or underflow) raises NumericalError.
    Buffers are allocated once per call: each iteration writes W v, W^T w
    and the next v into them through the same BLAS gemv and ddot calls that
    `W @ v` and `np.dot(w, w)` make, with the same bits.
    """
    W = as_matrix(W)
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
    # on a strided W, `@` runs its own loop where np.dot would copy W for a
    # gemv; keep `@` there, so every layout gets the bits `W @ v` gives
    product = np.dot if W.flags.c_contiguous or W.flags.f_contiguous else np.matmul
    Wt = W.T
    w = np.empty(m)
    v_next = np.empty(n)
    for it in range(MAX_ITERATIONS):
        product(W, v, out=w)
        sigma = math.sqrt(w.dot(w))
        if sigma <= 1e-300:
            # start landed in the null space; deterministic re-kick
            v = _power_start(n, salt=it + 1)
            continue
        if history is not None:
            history.append(sigma)
        if abs(sigma - sigma_prev) < tol:
            break
        sigma_prev = sigma
        product(Wt, w, out=v_next)
        np.divide(v_next, math.sqrt(v_next.dot(v_next)), out=v)  # v never aliases v0
    if not 0.0 < sigma < math.inf:
        raise NumericalError(f"power iteration lost the scale of a non-zero {m}x{n} matrix: sigma = {sigma}")
    return float(sigma), w / sigma, v


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


class LPProblem(NamedTuple):
    """max objective . x  s.t.  eq_constraints @ x == eq_rhs,
    ineq_constraints @ x <= ineq_rhs and x >= 0.  Each `*_constraints` is an
    (m x n) matrix, one row per constraint, with its m right-hand sides in
    `*_rhs`; `()` is no rows."""

    objective: np.ndarray
    eq_constraints: np.ndarray = ()
    eq_rhs: np.ndarray = ()
    ineq_constraints: np.ndarray = ()
    ineq_rhs: np.ndarray = ()


class LPSolution(NamedTuple):
    """`dual` holds y for the caller's rows, eq rows then ineq rows, at an
    optimum: A^T y >= c, y >= 0 on the ineq rows and b . y = value, each
    checked to a tolerance; a redundant row gets 0.  `pivots` counts every
    pivot over both phases, `bland_pivots` those priced by Bland's rule."""

    status: LPStatus
    value: float
    point: np.ndarray | None
    dual: np.ndarray | None
    pivots: int
    bland_pivots: int


def _pivot(carry: np.ndarray, basis: np.ndarray, col: np.ndarray, r: int, j: int) -> None:
    """Column j, with Binv @ A[:, j] == col, enters the basis in row r: one
    rank-one update of carry = [Binv | x_B], the basis inverse and the basic
    values beside it."""
    pivot_row = carry[r] / col[r]
    carry -= col[:, None] * pivot_row
    carry[r] = pivot_row
    basis[r] = j


def _basis_inverse(B: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise NumericalError("simplex basis is singular") from None


def _run_simplex(A: np.ndarray, cost: np.ndarray, basis: np.ndarray, carry: np.ndarray) -> tuple[str, int, int]:
    """Revised simplex: maximize cost . x over A x = b, x >= 0 from a
    feasible basis, with carry = [Binv | x_B] for that basis; basis and
    carry are updated in place.

    Each pivot prices every column once, d = (c_B Binv) A - c.  Dantzig
    pricing: the most negative reduced cost enters, the lowest index on ties.
    After m degenerate pivots in a row (minimum ratio 0), Bland's
    lowest-index rule prices until a pivot moves the objective again.  A
    cycle consists of degenerate pivots only, and Bland's rule cannot cycle.
    The leaving row has the minimum ratio, the lowest basic index on ties.
    Binv is rebuilt from A[:, basis] every m pivots.  Returns the status, the
    number of pivots made and how many of them Bland's rule priced.
    """
    m = A.shape[0]
    Binv, x_B = carry[:, :m], carry[:, m]
    degenerate_run = 0
    bland_pivots = 0
    for pivots in range(MAX_ITERATIONS):
        d = (cost[basis] @ Binv) @ A - cost
        j = int(d.argmin())
        if d[j] >= -_PIVOT_TOL:
            return "optimal", pivots, bland_pivots
        # Dantzig, or Bland (first eligible index) after a degenerate run
        bland = degenerate_run >= m
        if bland:
            j = int((d < -_PIVOT_TOL).argmax())
        col = Binv @ A[:, j]
        pos = (col > _PIVOT_TOL).nonzero()[0]
        if pos.size == 0:
            return "unbounded", pivots, bland_pivots
        ratios = np.maximum(x_B[pos], 0.0) / col[pos]
        best = float(ratios.min())
        if not math.isfinite(best):  # a pivot on entries near the float range overflowed
            raise NumericalError("a simplex basic value is not finite")
        degenerate_run = degenerate_run + 1 if best == 0.0 else 0
        ties = pos[ratios <= best + 1e-11 * (1.0 + abs(best))]
        r = int(ties[basis[ties].argmin()])  # lowest basic index leaves
        _pivot(carry, basis, col, r, j)
        bland_pivots += bland
        if (pivots + 1) % m == 0:
            Binv[:] = _basis_inverse(A[:, basis])
    raise NumericalError("simplex iteration cap exceeded")


def solve_lp(problem: LPProblem) -> LPSolution:
    """Two-phase revised simplex with an explicit basis inverse (Chvatal,
    Linear Programming, 1983, ch. 7): Dantzig pricing with a Bland fallback.

    The standard form A holds the only copy of the caller's rows, eq over
    ineq, then a slack column per ineq row, then an artificial column per eq
    row or row with a negative right-hand side (signed so that it starts at
    |b|).  Phase 1 maximizes minus the sum of the artificials; artificials
    still basic after it are driven out, and a row they cannot leave is
    redundant and dropped.  Phase 2 maximizes the objective over the
    remaining columns.  `pivots` counts every pivot over both phases,
    including those that drive artificials out.  An optimum is returned only
    after `_validate_solution` has checked it and its dual.
    """
    c = as_vector(problem.objective)
    n = c.size
    A_eq, b_eq = _constraint_block("eq", problem.eq_constraints, problem.eq_rhs, n)
    A_ub, b_ub = _constraint_block("ineq", problem.ineq_constraints, problem.ineq_rhs, n)
    n_eq, n_slack = len(A_eq), len(A_ub)
    m = n_eq + n_slack
    b = b_rows = np.concatenate([b_eq, b_ub])
    sign = np.where(b < 0.0, -1.0, 1.0)
    art_rows = np.flatnonzero((np.arange(m) < n_eq) | (b < 0.0))
    n_art = art_rows.size
    n_real = n + n_slack
    A = np.zeros((m, n_real + n_art))
    rows = A[:, :n]  # the caller's rows; phase 1 may drop some from A, not from this view
    rows[:n_eq] = A_eq
    rows[n_eq:] = A_ub
    if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(b))):
        raise ValueError("constraint entries must be finite")
    A[n_eq + np.arange(n_slack), n + np.arange(n_slack)] = 1.0
    A[art_rows, n_real + np.arange(n_art)] = sign[art_rows]
    basis = n + np.arange(m) - n_eq
    basis[art_rows] = n_real + np.arange(n_art)
    # the starting basis matrix is diagonal with entries +-1, its own
    # inverse, and starts every basic variable at |b|
    carry = np.column_stack([np.diag(sign), np.abs(b)])

    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))

    pivots = bland_pivots = 0
    kept = np.arange(m)
    if n_art:
        # phase 1: maximize -sum(artificials)
        cost1 = np.zeros(n_real + n_art)
        cost1[n_real:] = -1.0
        status, pivots, bland_pivots = _run_simplex(A, cost1, basis, carry)
        if status != "optimal" or float(cost1[basis] @ carry[:, m]) < -1e-8 * scale:
            return LPSolution(LPStatus.INFEASIBLE, math.nan, None, None, pivots, bland_pivots)
        # drive artificials out of the basis; a row with no real column left
        # is redundant
        keep = np.ones(m, dtype=bool)
        for i in np.flatnonzero(basis >= n_real):
            entries = np.flatnonzero(np.abs(carry[i, :m] @ A[:, :n_real]) > _PIVOT_TOL)
            if entries.size:
                j = int(entries[0])
                _pivot(carry, basis, carry[:, :m] @ A[:, j], i, j)
                pivots += 1
            else:
                keep[i] = False
        kept = np.flatnonzero(keep)
        if kept.size < m:
            A, b, basis = A[kept], b[kept], basis[kept]
        # phase 2 starts from a fresh inverse of a basis free of artificials
        carry = np.column_stack([_basis_inverse(A[:, basis]), carry[kept, m]])

    # phase 2: the real objective
    A = A[:, :n_real]
    cost = np.zeros(n_real)
    cost[:n] = c
    status, phase2_pivots, phase2_bland = _run_simplex(A, cost, basis, carry)
    pivots += phase2_pivots
    bland_pivots += phase2_bland
    if status == "unbounded":
        return LPSolution(LPStatus.UNBOUNDED, math.inf, None, None, pivots, bland_pivots)

    x = np.zeros(n_real)
    x[basis] = carry[:, -1]
    point = np.where(np.abs(x[:n]) < 1e-12, 0.0, x[:n])
    if np.any(point < -FEASIBILITY_TOL):
        raise NumericalError("simplex produced a negative variable")
    point = np.maximum(point, 0.0)
    dual = np.zeros(m)
    dual[kept] = _validate_solution(rows, b_rows, n_eq, point, A, b, cost, basis, scale)
    return LPSolution(LPStatus.OPTIMAL, float(np.dot(c, point)), point, dual, pivots, bland_pivots)


def _constraint_block(kind: str, rows, rhs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One constraint block as an (m x n) matrix and its m right-hand sides,
    without a copy of float arrays; an empty sequence is no rows."""
    rows = np.asarray(rows, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if rows.shape == (0,):
        rows = rows.reshape(0, n)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise DimensionError(f"{kind} constraints have shape {rows.shape}, expected (m, {n})")
    if rhs.shape != (len(rows),):
        raise DimensionError(f"{len(rows)} {kind} constraints need {len(rows)} right-hand sides, got shape {rhs.shape}")
    return rows, rhs


def _validate_solution(
    rows: np.ndarray, b_rows: np.ndarray, n_eq: int, x: np.ndarray, A: np.ndarray, b: np.ndarray, cost: np.ndarray, basis: np.ndarray, scale: float
) -> np.ndarray:
    """Check the primal point x against the caller's rows (the first n_eq
    are equalities), and the dual of the final basis against the standard
    form (A, b, cost).  Returns that dual; raises NumericalError when a
    check fails.

    y solves B^T y = c_B for the basis columns B of A.  Dual feasibility is
    A^T y >= cost over every column, which on the slack columns says y >= 0
    on the ineq rows; the duality gap |b . y - c . x| must vanish too.
    """
    tol = 1e-8 * scale
    lhs = rows @ x
    if np.any(np.abs(lhs[:n_eq] - b_rows[:n_eq]) > tol):
        raise NumericalError("equality constraint violated beyond tolerance")
    if np.any(lhs[n_eq:] > b_rows[n_eq:] + tol):
        raise NumericalError("inequality constraint violated beyond tolerance")
    try:
        y = np.linalg.solve(A[:, basis].T, cost[basis])
    except np.linalg.LinAlgError:
        raise NumericalError("final simplex basis is singular") from None
    dual_tol = tol * max(1.0, float(np.max(np.abs(cost), initial=0.0)))
    if np.any(y @ A - cost < -dual_tol):
        raise NumericalError("dual constraint violated beyond tolerance")
    if abs(float(np.dot(b, y)) - float(np.dot(cost[: x.size], x))) > dual_tol:
        raise NumericalError("duality gap beyond tolerance")
    return y
