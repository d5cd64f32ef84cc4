"""Independent oracles used only by the tests.

These deliberately avoid the library's own code paths: the eigensolver is a
hand-rolled cyclic Jacobi sweep, transport polytopes and small LPs are solved
by exhaustive basis enumeration, and attack maxima come from brute-force
corner/boundary sweeps.  Slow is fine; independent is the point.
"""

import itertools
import math

import numpy as np


def jacobi_eigenvalues(S: np.ndarray, max_sweeps: int = 100, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix via cyclic Jacobi rotations."""
    A = np.array(S, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or np.max(np.abs(A - A.T)) > 1e-12:
        raise ValueError("jacobi oracle needs a symmetric matrix")
    scale = max(1.0, float(np.max(np.abs(A))))
    for _ in range(max_sweeps):
        off = math.sqrt(sum(A[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # columns p and q, then rows p and q: each entry takes the
                # same two products and one sum as an element-wise rotation
                ap, aq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * ap - s * aq
                A[:, q] = s * ap + c * aq
                ap, aq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * ap - s * aq
                A[q, :] = s * ap + c * aq
    return np.sort(np.diag(A))[::-1]


def spectral_norm_jacobi(W: np.ndarray) -> float:
    W = np.asarray(W, dtype=float)
    eigs = jacobi_eigenvalues(W.T @ W)
    return math.sqrt(max(float(eigs[0]), 0.0))


def product_metric(spec, s, t) -> float:
    """Reference for the product metric ||x - x'|| + kappa * [y != y']
    between labeled points s = (x, y) and t = (x', y'), reading only the
    spec's norm name, kappa and label count.  With kappa = inf a label
    change costs inf; without one the label term is absent."""
    (xs, ys), (xt, yt) = s, t
    xs, xt = np.atleast_1d(np.asarray(xs, dtype=float)), np.atleast_1d(np.asarray(xt, dtype=float))
    if xs.shape != xt.shape:
        raise ValueError("points live in different input dimensions")
    if not (0 <= ys < spec.label_count and 0 <= yt < spec.label_count):
        raise ValueError("label outside the metric's label universe")
    dx = _vector_norm(xs - xt, spec.x_norm)
    if ys == yt:
        return dx
    if math.isinf(spec.kappa):
        return math.inf
    return dx + spec.kappa


def transport_cost_vertex_enumeration(a: np.ndarray, b: np.ndarray, C: np.ndarray) -> float:
    """Minimum coupling cost by enumerating all candidate basic solutions of
    the transport polytope (subsets of n+m-1 cells)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    cells = [(i, j) for i in range(n) for j in range(m)]
    basis_size = n + m - 1
    target = np.concatenate([a, b[:-1]])  # last column constraint is redundant
    best = math.inf
    for subset in itertools.combinations(range(len(cells)), basis_size):
        M = np.zeros((basis_size, basis_size))
        for col, cell_idx in enumerate(subset):
            i, j = cells[cell_idx]
            M[i, col] = 1.0
            if j < m - 1:
                M[n + j, col] = 1.0
        try:
            x = np.linalg.solve(M, target)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9):
            continue
        # verify the full constraint set including the dropped column
        pi = np.zeros((n, m))
        for col, cell_idx in enumerate(subset):
            i, j = cells[cell_idx]
            pi[i, j] += x[col]
        if np.max(np.abs(pi.sum(axis=1) - a)) > 1e-8 or np.max(np.abs(pi.sum(axis=0) - b)) > 1e-8:
            continue
        used = np.isfinite(C) | (pi > 1e-9)  # an infinite cost counts only under mass
        best = min(best, float(np.sum(pi[used] * C[used])))
    return best


def _best_basic_solution(A: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float) -> float:
    """max c.x over the basic feasible solutions of {A x = b, x >= 0}: every
    set of rank(A) columns with full column rank, solved by least squares and
    kept when it satisfies every row (redundant and inconsistent rows
    included) and is non-negative.  -inf when none is feasible."""
    rank = int(np.linalg.matrix_rank(A)) if A.size else 0
    best = -math.inf
    for cols in itertools.combinations(range(A.shape[1]), rank):
        cols = list(cols)
        sub = A[:, cols]
        if rank and int(np.linalg.matrix_rank(sub)) < rank:
            continue
        xb = np.linalg.lstsq(sub, b, rcond=None)[0] if rank else np.zeros(0)
        if np.max(np.abs(sub @ xb - b), initial=0.0) > tol or np.any(xb < -tol):
            continue
        best = max(best, float(np.dot(c[cols], xb)))
    return best


def lp_basis_enumeration(c, eq=(), le=(), tol: float = 1e-9) -> tuple[str, float]:
    """Status and value of max c.x s.t. eq rows hold, le rows are <=, x >= 0,
    by enumerating bases: small LPs only.

    Slacks turn the le rows into equalities.  A feasible LP is unbounded when
    its recession cone {d >= 0, A d = 0} holds a direction with c.d > 0; the
    cone is pointed, so that shows at a vertex of its slice sum(d) = 1.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = [np.asarray(r, dtype=float) for r, _ in eq] + [np.asarray(r, dtype=float) for r, _ in le]
    b = np.array([float(v) for _, v in eq] + [float(v) for _, v in le])
    A = np.zeros((len(rows), n + len(le)))
    for i, row in enumerate(rows):
        A[i, :n] = row
    for s in range(len(le)):
        A[len(eq) + s, n + s] = 1.0
    cost = np.concatenate([c, np.zeros(len(le))])
    value = _best_basic_solution(A, b, cost, tol)
    if value == -math.inf:
        return "infeasible", math.nan
    ray = _best_basic_solution(np.vstack([A, np.ones(A.shape[1])]), np.append(np.zeros(len(rows)), 1.0), cost, tol)
    if ray > tol:
        return "unbounded", math.inf
    return "optimal", value


def undominated_couplings(values, C) -> set:
    """The finite-cost couplings (i, j) that no other candidate j' of atom i
    dominates, by comparing every pair: j' dominates j when C[i, j'] <=
    C[i, j] and values[j'] >= values[j], with one of them strict or, when
    both tie exactly, j' < j (the first index wins)."""
    n, m = C.shape
    kept = set()
    for i in range(n):
        for j in range(m):
            if math.isfinite(C[i, j]) and not any(
                C[i, t] <= C[i, j] and values[t] >= values[j] and (C[i, t] < C[i, j] or values[t] > values[j] or t < j)
                for t in range(m)
                if t != j
            ):
                kept.add((i, j))
    return kept


def linf_corner_max_loss(loss, x: np.ndarray, eps: float) -> float:
    """Exact max of a convex loss over the LINF ball: enumerate the corners."""
    d = x.size
    if d > 10:
        raise ValueError("corner enumeration is exponential; keep d <= 10")
    best = -math.inf
    for signs in itertools.product((-1.0, 1.0), repeat=d):
        best = max(best, float(loss(x + eps * np.array(signs))))
    return best


def boundary_max_loss(loss, x: np.ndarray, eps: float, norm_tag: str, count: int = 100_000) -> float:
    """Near-exact max of a convex loss over a 2-D ball: dense boundary sweep
    (the max of a convex function over a compact convex set is attained on
    the boundary)."""
    if x.size != 2:
        raise ValueError("boundary sweep oracle is 2-D only")
    ts = np.linspace(0.0, 1.0, count, endpoint=False)
    if norm_tag == "L2":
        ang = 2.0 * math.pi * ts
        deltas = np.stack([eps * np.cos(ang), eps * np.sin(ang)], axis=1)
    elif norm_tag == "LINF":
        quarter = count // 4
        side = np.linspace(-eps, eps, quarter)
        deltas = np.concatenate(
            [
                np.stack([side, np.full_like(side, eps)], axis=1),
                np.stack([side, np.full_like(side, -eps)], axis=1),
                np.stack([np.full_like(side, eps), side], axis=1),
                np.stack([np.full_like(side, -eps), side], axis=1),
            ]
        )
    else:
        raise ValueError("boundary sweep supports L2 and LINF only")
    best = max(float(loss(x + d)) for d in deltas)
    return max(best, float(loss(x)))


# ---------------------------------------------------------------------------
# the one-dimensional robust dual F(lam) = lam*rho + sum_i w_i max_k (values[i,k]
# - lam*dists[i,k]) over lam >= lam_lo, checked without the library's solver.


def dual_objective_at(weights, values, dists, rho: float, lam: float) -> float:
    return lam * rho + float(np.dot(weights, np.max(values - lam * dists, axis=1)))


def dual_brute_force(weights, values, dists, rho: float, lam_lo: float, tol: float = 0.0) -> tuple[float, float]:
    """Minimum of F by evaluating it at lam_lo and at every crossing of two
    options of one atom at or above lam_lo (a convex piecewise-linear F has
    its minimum at one of them).  Returns (min value, smallest candidate
    whose value is within tol of the min)."""
    candidates = {float(lam_lo)}
    n, k = values.shape
    for i in range(n):
        for a in range(k):
            for b in range(a + 1, k):
                va, vb = values[i, a], values[i, b]
                if dists[i, a] != dists[i, b] and math.isfinite(va) and math.isfinite(vb):
                    lam = (va - vb) / (dists[i, a] - dists[i, b])
                    if lam >= lam_lo:
                        candidates.add(float(lam))
    lams = sorted(candidates)
    objective = [dual_objective_at(weights, values, dists, rho, lam) for lam in lams]
    best = min(objective)
    return best, next(lam for lam, f in zip(lams, objective) if f <= best + tol)


def dual_derivatives(weights, values, dists, rho: float, lam: float, tol: float) -> tuple[float, float]:
    """Left and right derivatives of F at lam, in O(nk): each atom's active
    options are those within tol of its best score; the left derivative takes
    their largest distance, the right derivative their smallest."""
    scores = values - lam * dists
    active = scores >= np.max(scores, axis=1, keepdims=True) - tol
    left = rho - float(np.dot(weights, np.max(np.where(active, dists, -np.inf), axis=1)))
    right = rho - float(np.dot(weights, np.min(np.where(active, dists, np.inf), axis=1)))
    return left, right


def dense_lambda_grid_min(phi, lam_lo: float, lam_hi: float, points: int = 100_000) -> float:
    """Brute-force minimum of a scalar function over a dense lambda grid,
    with a second zoomed pass around the coarse argmin."""
    grid = np.linspace(lam_lo, lam_hi, points)
    values = [float(phi(float(l))) for l in grid]
    idx = int(np.argmin(values))
    best = values[idx]
    span = (lam_hi - lam_lo) / (points - 1)
    zoom_lo = max(lam_lo, grid[idx] - 2.0 * span)
    zoom_hi = min(lam_hi, grid[idx] + 2.0 * span)
    for l in np.linspace(zoom_lo, zoom_hi, points):
        best = min(best, float(phi(float(l))))
    return best


# ---------------------------------------------------------------------------
# per-vector reference for the batched forward/backward pass and the attacks
# built on it: explicit per-layer loops over one input vector at a time,
# reading only the model's weights, biases and activation names.


def _layer_list(model):
    return [(layer.weights, layer.bias, layer.activation.value) for layer in model.layers]


def vector_loss_grad(model, x, y: int):
    """Softmax cross entropy of one input, its input gradient, and per-layer
    weight and bias gradients (bias entry None when the layer has none)."""
    a = np.asarray(x, dtype=float)
    tape = []
    for W, b, act in _layer_list(model):
        pre = W @ a if b is None else W @ a + b
        tape.append((a, pre, W, b, act))
        a = np.maximum(pre, 0.0) if act == "RELU" else np.tanh(pre) if act == "TANH" else pre
    m = float(np.max(a))
    lse = m + math.log(float(np.sum(np.exp(a - m))))
    value = lse - float(a[y])
    delta = np.exp(a - lse)
    delta[y] -= 1.0
    grads_w, grads_b = [], []
    for a_in, pre, W, b, act in reversed(tape):
        if act == "RELU":
            delta = delta * (pre > 0.0)
        elif act == "TANH":
            delta = delta * (1.0 - np.tanh(pre) ** 2)
        grads_w.insert(0, np.outer(delta, a_in))
        grads_b.insert(0, None if b is None else delta.copy())
        delta = W.T @ delta
    return value, delta, grads_w, grads_b


def vector_pre_activations(model, x) -> list:
    """Pre-activation of every layer at one input, the logits last."""
    a = np.asarray(x, dtype=float)
    out = []
    for W, b, act in _layer_list(model):
        pre = W @ a if b is None else W @ a + b
        out.append(pre)
        a = np.maximum(pre, 0.0) if act == "RELU" else np.tanh(pre) if act == "TANH" else pre
    return out


def vector_loss(model, x, y: int) -> float:
    return vector_loss_grad(model, x, y)[0]


def empirical_risk(model, mu) -> float:
    """Weighted mean loss over mu's support, one atom at a time."""
    return math.fsum(w * vector_loss(model, x, y) for w, x, y in zip(mu.weights, mu.support.xs, mu.support.ys))


def finite_difference_gradient(f, x, h: float) -> np.ndarray:
    """Central differences per coordinate: (f(x+h e_i) - f(x-h e_i)) / 2h."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (float(f(x + step)) - float(f(x - step))) / (2.0 * h)
    return grad


def _vector_norm(v, tag: str) -> float:
    if tag == "L1":
        return float(np.sum(np.abs(v)))
    if tag == "L2":
        return math.sqrt(float(np.dot(v, v)))
    return float(np.max(np.abs(v)))


def vector_project(v, tag: str, eps: float):
    if tag == "LINF":
        return np.clip(v, -eps, eps)
    size = _vector_norm(v, tag)
    if size <= eps:
        return v
    if tag == "L2":
        return v * (eps / size)
    u = np.sort(np.abs(v))[::-1]
    cumsum = np.cumsum(u)
    k = max(j + 1 for j in range(v.size) if u[j] > (cumsum[j] - eps) / (j + 1))
    theta = (cumsum[k - 1] - eps) / k
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


def _vector_direction(g, tag: str):
    if tag == "LINF":
        return np.sign(g)
    if tag == "L2":
        size = math.sqrt(float(np.dot(g, g)))
        return g / size if size > 0.0 else g
    out = np.zeros_like(g)
    i = int(np.argmax(np.abs(g)))
    if g[i] != 0.0:
        out[i] = math.copysign(1.0, g[i])
    return out


def _vector_random_start(rng, dim: int, tag: str, eps: float):
    """One restart: a unit-ball point drawn from the atom's stream, scaled to
    eps and projected onto the ball."""
    if tag == "L2":
        direction = rng.standard_normal(dim)
        size = math.sqrt(float(np.dot(direction, direction)))
        unit = np.zeros(dim) if size == 0.0 else direction / size * rng.uniform() ** (1.0 / dim)
    else:
        unit = rng.uniform(-1.0, 1.0, dim)
    return vector_project(eps * unit, tag, eps)


def vector_pgd(model, x, y, tag, eps, steps, step_size, rng, restarts, extra_starts=()):
    """One atom, one start and one step at a time; the best iterate is the
    first maximum in (start, step) order."""
    x = np.asarray(x, dtype=float)
    if eps == 0.0:
        return np.zeros_like(x), vector_loss(model, x, y)
    step = step_size if step_size is not None else 2.5 * eps / steps
    starts = [np.zeros_like(x)] + [vector_project(np.asarray(s, dtype=float), tag, eps) for s in extra_starts]
    starts += [_vector_random_start(rng, x.size, tag, eps) for _ in range(restarts)]
    best_delta, best_loss = np.zeros_like(x), -math.inf
    for start in starts:
        delta = start.copy()
        value = vector_loss(model, x + delta, y)
        if value > best_loss:
            best_loss, best_delta = value, delta.copy()
        for _ in range(steps):
            direction = _vector_direction(vector_loss_grad(model, x + delta, y)[1], tag)
            if not direction.any():
                break
            delta = vector_project(delta + step * direction, tag, eps)
            value = vector_loss(model, x + delta, y)
            if value > best_loss:
                best_loss, best_delta = value, delta.copy()
    return best_delta, best_loss


def vector_fgsm(model, x, y, tag, eps):
    """One step of size eps from the clean point, kept only when its loss is
    strictly higher (a tie keeps the clean point)."""
    x = np.asarray(x, dtype=float)
    clean = vector_loss(model, x, y)
    if eps == 0.0:
        return np.zeros_like(x), clean
    delta = vector_project(eps * _vector_direction(vector_loss_grad(model, x, y)[1], tag), tag, eps)
    value = vector_loss(model, x + delta, y)
    return (delta, value) if value > clean else (np.zeros_like(x), clean)


def vector_grid(model, x, y, tag, eps, points_per_dim):
    """The zero perturbation, the lattice, and in 2-D the boundary ring of
    16 * points_per_dim samples, in that order; first maximum wins."""
    x = np.asarray(x, dtype=float)
    if eps == 0.0:
        return np.zeros_like(x), vector_loss(model, x, y)
    axis = np.linspace(-eps, eps, points_per_dim)
    if x.size == 1:
        candidates = [np.array([a]) for a in axis]
    else:
        candidates = [np.array([a, b]) for a in axis for b in axis]
        count = 16 * points_per_dim
        if tag == "L2":
            for t in np.linspace(0.0, 1.0, count, endpoint=False):
                candidates.append(np.array([eps * np.cos(2.0 * math.pi * t), eps * np.sin(2.0 * math.pi * t)]))
        elif tag == "LINF":
            side = np.linspace(-eps, eps, max(count // 4, 2))
            for edge in ((1, eps), (1, -eps), (0, eps), (0, -eps)):
                for s in side:
                    candidates.append(np.array([s, edge[1]]) if edge[0] else np.array([edge[1], s]))
        else:
            side = np.linspace(0.0, eps, max(count // 4, 2))
            for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                for s in side:
                    candidates.append(np.array([sx * s, sy * (eps - s)]))
    best_delta, best_loss = np.zeros_like(x), -math.inf
    for delta in [np.zeros_like(x)] + candidates:
        if _vector_norm(delta, tag) > eps * (1.0 + 1e-12):
            continue
        value = vector_loss(model, x + delta, y)
        if value > best_loss:
            best_loss, best_delta = value, delta.copy()
    return best_delta, best_loss


def reference_dataset(text: str):
    """Reference parser for the dataset CSV: one row at a time with `int()`
    and `float()`.

    Returns (xs, ys, label_count) for a valid file, otherwise the 1-based line
    of the first bad row, or None when the header is at fault.  Lines end at
    '\n' only.  A row fails to
    parse on a wrong field count, a '_' or non-ASCII character in any field
    (both of which `int()` and `float()` would read), a label `int()` rejects
    or a coordinate `float()` rejects; only when every row parses is a row
    checked for non-finite coordinates or a label outside [0, max label + 1),
    where the label count must fit an int64.
    """
    numbered = [(i + 1, ln.split(",")) for i, ln in enumerate(text.split("\n")) if ln.strip()]
    if len(numbered) < 2 or numbered[0][1][0] != "label" or len(numbered[0][1]) < 2:
        return None
    width = len(numbered[0][1])
    parsed = []
    for line, cells in numbered[1:]:
        if len(cells) != width:
            return line
        if any(not c.isascii() or "_" in c for c in cells):
            return line
        try:
            label = int(cells[0])
            coords = [float(c) for c in cells[1:]]
        except ValueError:
            return line
        parsed.append((line, label, coords))
    k = min(max(label for _, label, _ in parsed) + 1, 2**63 - 1)
    for line, label, coords in parsed:
        if not 0 <= label < k or not all(math.isfinite(c) for c in coords):
            return line
    xs = np.array([coords for _, _, coords in parsed], dtype=float)
    return xs, np.array([label for _, label, _ in parsed]), k
