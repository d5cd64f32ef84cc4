import decimal
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import finite_difference_gradient, lp_basis_enumeration, spectral_norm_jacobi, transport_cost_vertex_enumeration
import wasslip.numerics as numerics
import wasslip.robust as robust
from wasslip.cli import main
from wasslip.numerics import (
    DimensionError,
    LPProblem,
    LPStatus,
    NormTag,
    NumericalError,
    as_matrix,
    as_vector,
    lattice,
    operator_norm,
    power_iteration,
    row_norms,
    solve_lp,
)

RNG = np.random.default_rng(20240811)


class TestVectorsAndNorms:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, math.nan])
        with pytest.raises(ValueError):
            as_matrix([[1.0, math.inf]])

    def test_norm_examples(self):
        assert row_norms(np.array([[0.0, 0.0, 0.0]]), NormTag.L2)[0] == 0.0
        assert row_norms(np.array([[3.0, 4.0]]), NormTag.L2)[0] == pytest.approx(5.0, abs=1e-12)
        D = np.array([[1.0, -2.0, 3.0]])
        assert row_norms(D, NormTag.LINF)[0] == 3.0
        assert row_norms(D, NormTag.L1)[0] == 6.0

    def test_row_norms_match_norm_bit_for_bit(self):
        """Each row's norm in a batch has the bits of that row alone."""
        D = RNG.standard_normal((40, 7)) * RNG.uniform(1e-3, 1e3, (40, 1))
        for tag in NormTag:
            assert row_norms(D, tag).tolist() == [row_norms(row[None, :], tag)[0] for row in D]

    def test_norm_is_row_zero_of_row_norms_bit_for_bit(self):
        """One row through `row_norms` gives the bits of the direct
        one-vector reductions, lengths 1-100 at scales 1e-200 to 1e300
        (both overflow to inf alike)."""
        rng = np.random.default_rng(31)
        direct = {
            NormTag.L1: lambda v: float(np.sum(np.abs(v))),
            NormTag.L2: lambda v: math.sqrt(np.dot(v, v)),
            NormTag.LINF: lambda v: float(np.max(np.abs(v))),
        }
        with np.errstate(over="ignore"):
            for size in range(1, 101):
                for scale in np.logspace(-200, 300, 49):
                    v = rng.standard_normal(size) * scale
                    for tag in NormTag:
                        assert direct[tag](v) == row_norms(v[None, :], tag)[0]

    def test_zero_iff_zero_vector(self):
        v = RNG.standard_normal(5)
        for tag in NormTag:
            assert row_norms(v[None, :], tag)[0] > 0.0

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_dual_norm_pairing(self, entries):
        """||v|| equals the sup of u.v over unit-dual-norm u: sampled u are
        lower bounds and the closed-form maximizer attains the value."""
        v = np.array(entries)
        rng = np.random.default_rng(7)
        for tag in NormTag:
            target = row_norms(v[None, :], tag)[0]
            dual = tag.dual
            for _ in range(20):
                u = rng.standard_normal(v.size)
                du = row_norms(u[None, :], dual)[0]
                if du == 0.0:
                    continue
                assert float(np.dot(u / du, v)) <= target + 1e-9
            if tag == NormTag.L1:
                maximizer = np.sign(v)
                maximizer[maximizer == 0.0] = 1.0
            elif tag == NormTag.L2:
                maximizer = v / target if target > 0 else np.zeros_like(v)
            else:
                maximizer = np.zeros_like(v)
                i = int(np.argmax(np.abs(v)))
                maximizer[i] = math.copysign(1.0, v[i]) if v[i] != 0.0 else 1.0
            if target > 0.0:
                assert float(np.dot(maximizer, v)) == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("sizes", [(1,), (4,), (1, 1), (3, 1), (1, 5), (2, 3), (1, 1, 1), (2, 1, 3), (3, 4, 2)])
def test_lattice_is_the_meshgrid_stack(sizes):
    axes = [np.linspace(-1.0, 1.0 + i, size) for i, size in enumerate(sizes)]
    expected = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    points = lattice(axes)
    assert points.shape == (math.prod(sizes), len(sizes))
    assert points.tobytes() == expected.tobytes()


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3), NormTag.L2) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0]), NormTag.L2) == pytest.approx(3.0, abs=1e-9)

    def test_l1_linf_closed_forms(self):
        W = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert operator_norm(W, NormTag.L1) == 6.0  # max column abs sum
        assert operator_norm(W, NormTag.LINF) == 7.0  # max row abs sum

    def test_matches_jacobi_oracle_seeded(self):
        W = RNG.standard_normal((5, 4))
        expected = spectral_norm_jacobi(W)
        assert operator_norm(W, NormTag.L2) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("size", [4, 8, 16])
    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_l2_bounds_near_tied_sigma_from_above(self, size, delta):
        """Q1 diag(H, (1 - delta) H) Q2 with H an orthonormal Hadamard block:
        the two top singular values tie to relative delta, where power
        iteration stopped up to 6e-6 below sigma_1."""
        for seed in range(5):
            rng = np.random.default_rng([size, seed])
            Q1, Q2 = (np.linalg.qr(rng.standard_normal((2 * size, 2 * size)))[0] for _ in range(2))
            H = hadamard(size) / math.sqrt(size)
            D = np.zeros((2 * size, 2 * size))
            D[:size, :size] = H
            D[size:, size:] = (1.0 - delta) * H
            W = Q1 @ D @ Q2
            sigma = spectral_norm_jacobi(W)
            assert sigma <= operator_norm(W, NormTag.L2) <= sigma * (1.0 + 1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_l2_bounds_rank_one_sigma_exactly(self, seed):
        """a b^T with integer a, b is exact in floating point and has
        sigma_1 = ||a|| ||b||, computed here in 50-digit decimal."""
        rng = np.random.default_rng(seed)
        a = rng.integers(-1000, 1001, int(rng.integers(1, 12)))
        b = rng.integers(-1000, 1001, int(rng.integers(1, 12)))
        a[0] = b[0] = 7  # not the zero matrix
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            sigma = (sum(decimal.Decimal(int(x)) ** 2 for x in a) * sum(decimal.Decimal(int(x)) ** 2 for x in b)).sqrt()
            bound = operator_norm(np.outer(a, b).astype(float), NormTag.L2)
            assert sigma <= decimal.Decimal(bound) <= sigma * (1 + decimal.Decimal("1e-12"))

    @pytest.mark.parametrize("e", [660, -660])
    def test_l2_bound_of_scaled_entries_scales(self, e):
        # entries of W * 2**e leave the double range when squared; the bound
        # rescales W exactly first, as power iteration does
        W = np.random.default_rng(8).standard_normal((16, 3))
        bound = operator_norm(np.ldexp(W, e), NormTag.L2)
        assert bound == math.ldexp(operator_norm(np.ldexp(W, 300), NormTag.L2), e - 300)
        sigma = math.ldexp(spectral_norm_jacobi(W), e)
        assert sigma <= bound <= sigma * (1.0 + 1e-12)

    def test_sampled_ratios_lower_bound(self):
        rng = np.random.default_rng(99)
        W = rng.standard_normal((4, 6))
        for tag in NormTag:
            op = operator_norm(W, tag)
            for _ in range(1000):
                x = rng.standard_normal(6)
                nx = row_norms(x[None, :], tag)[0]
                assert row_norms((W @ x)[None, :], tag)[0] / nx <= op + 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_submultiplicative(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((4, 5))
        for tag in NormTag:
            assert operator_norm(A @ B, tag) <= operator_norm(A, tag) * operator_norm(B, tag) + 1e-9


class TestPowerIteration:
    def test_diagonal(self):
        sigma, u, v = power_iteration(np.diag([2.0, 5.0]))
        assert sigma == pytest.approx(5.0, abs=1e-9)
        assert abs(v[1]) == pytest.approx(1.0, abs=1e-5)

    def test_rank_one(self):
        a = np.array([1.0, -2.0, 2.0])
        b = np.array([3.0, 4.0])
        sigma, _, _ = power_iteration(np.outer(a, b))
        assert sigma == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b), rel=1e-10)

    def test_zero_matrix(self):
        sigma, u, v = power_iteration(np.zeros((3, 2)))
        assert sigma == 0.0
        assert list(u) == [1.0, 0.0, 0.0]
        assert list(v) == [1.0, 0.0]

    def test_seeded_6x6_matches_jacobi(self):
        W = np.random.default_rng(13).standard_normal((6, 6))
        sigma, _, _ = power_iteration(W)
        assert sigma == pytest.approx(spectral_norm_jacobi(W), rel=1e-8)

    def test_sigma_nondecreasing(self):
        for seed in range(8):
            W = np.random.default_rng(seed).standard_normal((5, 5))
            history: list = []
            power_iteration(W, history=history)
            for prev, nxt in zip(history, history[1:]):
                assert nxt >= prev - 1e-12

    # the squares of these matrices' entries leave the double range, so the
    # iteration rescales them; the oracle forms W^T W, so it runs on the
    # unscaled W
    @pytest.mark.parametrize("scale", [1e77, 1e80, 1e-90, 1e-155, 1e-200, 1e-77, 1e200, 1e300, 1e-300])
    def test_scale_out_of_reach_raises(self, scale):
        W = np.random.default_rng(5).standard_normal((16, 2))
        sigma, u, v = power_iteration(scale * W)
        assert sigma == pytest.approx(scale * spectral_norm_jacobi(W), rel=1e-12)
        assert np.allclose(W @ v, (sigma / scale) * u, atol=1e-7)

    def test_rescaling_is_exact(self):
        # power-of-two multiples of W outside the window are all rescaled to
        # the same matrix, so they share u, v and sigma up to the power of two
        W = np.random.default_rng(17).standard_normal((3, 4))
        sigma, u, v = power_iteration(np.ldexp(W, 300))
        for e in (-1000, -300, 1000):
            scaled_sigma, scaled_u, scaled_v = power_iteration(np.ldexp(W, e))
            assert scaled_sigma == math.ldexp(sigma, e - 300)
            assert np.array_equal(scaled_u, u) and np.array_equal(scaled_v, v)

    def test_sigma_beyond_the_double_range_raises(self):
        with pytest.raises(NumericalError, match="spectral norm of a 2x2 matrix exceeds the floating-point range"):
            power_iteration(np.full((2, 2), 1e308))

    def test_singular_vectors_consistent(self):
        W = np.random.default_rng(3).standard_normal((4, 3))
        sigma, u, v = power_iteration(W)
        assert np.allclose(W @ v, sigma * u, atol=1e-7)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def hadamard(n):
    """The n x n Sylvester Hadamard matrix (n a power of two): entries +-1,
    orthogonal columns, every singular value sqrt(n)."""
    H = np.ones((1, 1))
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def power_digest(runs):
    """sha256 of sigma, u, v and the sigma history of every (result, history)
    pair, as float64 bytes in call order."""
    h = hashlib.sha256()
    for (sigma, u, v), history in runs:
        for part in (np.array([sigma]), u, v, np.array(history, dtype=float)):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()


class TestPowerIterationBits:
    """sigma, u, v and the history, bit for bit.  The digests were recorded at
    commit 26a2107, before the iteration wrote into preallocated buffers."""

    @pytest.mark.parametrize(
        "delta, digest",
        [
            (1e-2, "7889f1fe6bc8dbf32949cdc2c924705e16c703dc8389a9c7dcbbebcb5f35f495"),
            (1e-4, "3ae9d82348d447341eac4fceedab46121c94608e59c311fa909baaa4fb94a904"),
            (1e-6, "44b69d6e0f38cbe8ba60e1d39a12e775c55b5c21b2b4cdba4dbef709189063f9"),
            (1e-8, "e5dd3537169ecefe8356242da122c4ef4093c76ac211999631c7a91a6f4df6e9"),
        ],
        ids=["1e-2", "1e-4", "1e-6", "1e-8"],
    )
    def test_near_tied_hadamard_blocks(self, delta, digest):
        # s*H and s*(1 - delta)*H' on the diagonal: sigma_1 = s*sqrt(n), tied
        # to relative delta; H' is H with its columns reversed, and the lower
        # block keeps 3 of its 4 columns, so W is 8 x 7 with no null space and
        # every estimate lies between the two tied values
        s, H = 0.75, hadamard(4)
        W = np.zeros((8, 7))
        W[:4, :4] = s * H
        W[4:, 4:] = s * (1.0 - delta) * H[:, ::-1][:, :3]
        history: list = []
        result = power_iteration(W, history=history)
        assert 2.0 * s * (1.0 - delta) <= result[0] <= 2.0 * s * (1.0 + 1e-15)
        assert power_digest([(result, history)]) == digest

    @pytest.mark.parametrize(
        "shape, digest",
        [
            ((2, 16), "e703321b0b6f7fd3696dbbc8bf6955b7a445262880733851459311a4f761940b"),
            ((16, 2), "42c24f3001267fa4c9669585d8a50665e4f7ab0f92b57757d9cddb3478796fd1"),
        ],
        ids=["2x16", "16x2"],
    )
    def test_warm_started_chain(self, shape, digest):
        # five calls on a drifting matrix, each started from the last v, the
        # way training carries its warm start from step to step
        rng = np.random.default_rng(33)
        W, drift = 0.5 * rng.standard_normal(shape), 0.01 * rng.standard_normal(shape)
        runs, v = [], None
        for _ in range(5):
            history: list = []
            result = power_iteration(W, v0=v, history=history)
            runs.append((result, history))
            v, W = result[2], W + drift
        assert power_digest(runs) == digest

    def test_strided_view(self):
        # a 6 x 4 view with a negative column stride, and its transpose
        base = np.random.default_rng(34).standard_normal((12, 12))[::2, ::-3]
        runs = []
        for W in (base, base.T):
            history: list = []
            runs.append((power_iteration(W, history=history), history))
        assert power_digest(runs) == "bcfa3c1ff6657496df8823036813da570aa94ceabbba313ebc63bd43276058a4"

    def test_zero_matrix(self):
        history: list = []
        result = power_iteration(np.zeros((3, 2)), history=history)
        assert history == []
        assert power_digest([(result, history)]) == "87f07c64256d1aa0aa87e4abf4d24a05ccc3708e8b3c17662ff3d4deb5a14319"

    def test_start_in_the_null_space_is_rekicked(self):
        # W v0 is exactly 0, so the first iteration restarts from a salted start
        history: list = []
        result = power_iteration(np.array([[1.0, -1.0]]), v0=np.array([1.0, 1.0]), history=history)
        assert result[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert power_digest([(result, history)]) == "c474a11aac1744bc0477f41eb28eb1bf69e4dc5d941aa9b019bf5a9a9cc1117f"


def lp_from_pairs(c, eq=(), le=()):
    """The LPProblem of eq and le lists of (row, rhs) pairs, the form the
    basis-enumeration oracle takes."""

    def block(pairs):
        rows = np.array([row for row, _ in pairs], dtype=float).reshape(len(pairs), len(c))
        return rows, np.array([rhs for _, rhs in pairs], dtype=float)

    return LPProblem(c, *block(eq), *block(le))


def assert_complementary_dual(problem, sol, tol=1e-9):
    """The returned dual is feasible for min b.y s.t. A^T y >= c, y >= 0 on
    the ineq rows, matches the value, and is complementary to the point."""
    n = sol.point.size
    A = np.concatenate([np.reshape(problem.eq_constraints, (-1, n)), np.reshape(problem.ineq_constraints, (-1, n))])
    b = np.concatenate([np.asarray(problem.eq_rhs, dtype=float), np.asarray(problem.ineq_rhs, dtype=float)])
    n_eq = len(problem.eq_constraints)
    reduced = A.T @ sol.dual - problem.objective
    slack = b[n_eq:] - A[n_eq:] @ sol.point
    assert sol.dual.shape == (len(A),)
    assert np.all(reduced >= -tol) and np.all(sol.dual[n_eq:] >= -tol)
    assert float(np.dot(b, sol.dual)) == pytest.approx(sol.value, abs=tol)
    assert np.all(np.abs(sol.point * reduced) <= tol)
    assert np.all(np.abs(sol.dual[n_eq:] * slack) <= tol)


class TestSimplex:
    def test_single_bound(self):
        sol = solve_lp(LPProblem(np.array([1.0]), ineq_constraints=np.array([[1.0]]), ineq_rhs=np.array([1.0])))
        assert sol.status == LPStatus.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_optimum_set(self):
        sol = solve_lp(LPProblem(np.array([1.0, 1.0]), ineq_constraints=np.array([[1.0, 1.0]]), ineq_rhs=np.array([1.0])))
        assert sol.status == LPStatus.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_unbounded(self):
        sol = solve_lp(LPProblem(np.array([1.0])))
        assert sol.status == LPStatus.UNBOUNDED

    def test_infeasible(self):
        sol = solve_lp(LPProblem(np.array([1.0]), ineq_constraints=np.array([[1.0]]), ineq_rhs=np.array([-1.0])))
        assert sol.status == LPStatus.INFEASIBLE

    def test_equality_constraints(self):
        # max x + 2y s.t. x + y = 1
        sol = solve_lp(LPProblem(np.array([1.0, 2.0]), eq_constraints=np.array([[1.0, 1.0]]), eq_rhs=np.array([1.0])))
        assert sol.status == LPStatus.OPTIMAL
        assert sol.value == pytest.approx(2.0, abs=1e-12)
        assert sol.point[1] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_lp(LPProblem(np.array([1.0, 2.0]), ineq_constraints=np.array([[1.0]]), ineq_rhs=np.array([1.0])))

    def test_constraint_blocks_are_checked(self):
        c, one = np.array([1.0, 2.0]), np.array([1.0])
        with pytest.raises(DimensionError, match="eq constraints have shape"):
            solve_lp(LPProblem(c, np.array([[1.0, 1.0, 1.0]]), one))
        with pytest.raises(DimensionError, match="ineq constraints have shape"):
            solve_lp(LPProblem(c, ineq_constraints=np.array([1.0, 1.0]), ineq_rhs=one))  # a row, not a matrix
        with pytest.raises(DimensionError, match="1 eq constraints need 1 right-hand sides"):
            solve_lp(LPProblem(c, np.array([[1.0, 1.0]]), np.array([1.0, 2.0])))
        with pytest.raises(DimensionError, match="0 ineq constraints need 0 right-hand sides"):
            solve_lp(LPProblem(c, ineq_rhs=one))

    @pytest.mark.parametrize("n_eq, violated", [(1, "equality"), (0, "inequality")])
    def test_primal_residuals_are_checked(self, n_eq, violated):
        # max x s.t. x = 1 (or x <= 1) in standard form [x | slack]; the basis
        # {x} is optimal, but the point handed over is x = 1.5
        A, b, cost = np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 0.0])
        with pytest.raises(NumericalError, match=f"^{violated} constraint violated"):
            numerics._validate_solution(A[:, :1], b, n_eq, np.array([1.5]), A, b, cost, np.array([0]), 1.0)

    @pytest.mark.parametrize("block", ["eq", "ineq"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_entries_raise(self, block, bad):
        rows, rhs = np.array([[1.0, 1.0]]), np.array([1.0])
        for broken in (np.array([[1.0, bad]]), rhs), (rows, np.array([bad])):
            with pytest.raises(ValueError, match="constraint entries must be finite"):
                solve_lp(LPProblem(np.array([1.0, 2.0]), **{f"{block}_constraints": broken[0], f"{block}_rhs": broken[1]}))

    def test_beale_cycling_lp(self):
        """Beale's LP cycles under pure Dantzig pricing with these tie rules;
        the Bland fallback must run and break the cycle."""
        problem = LPProblem(
            np.array([0.75, -20.0, 0.5, -6.0]),
            ineq_constraints=np.array(
                [
                    [0.25, -8.0, -1.0, 9.0],
                    [0.5, -12.0, -0.5, 3.0],
                    [0.0, 0.0, 1.0, 0.0],
                ]
            ),
            ineq_rhs=np.array([0.0, 0.0, 1.0]),
        )
        sol = solve_lp(problem)
        assert sol.status == LPStatus.OPTIMAL
        assert sol.value == pytest.approx(1.25, abs=1e-12)
        assert np.allclose(sol.point, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
        assert sol.bland_pivots > 0
        assert_complementary_dual(problem, sol)

    def test_solve_cut_short_raises(self, monkeypatch):
        """A pricing tolerance that stops the simplex at a non-optimal basis
        leaves x = 0 primal feasible, but the dual check must catch it."""
        monkeypatch.setattr(numerics, "_PIVOT_TOL", 1e3)
        with pytest.raises(NumericalError):
            solve_lp(LPProblem(np.array([1.0, 2.0]), ineq_constraints=np.array([[1.0, 1.0]]), ineq_rhs=np.array([1.0])))

    def test_dual_restores_sign_of_negated_rows(self):
        # max -x s.t. -x <= -2 (a negative right-hand side), x + y = 3
        problem = LPProblem(
            np.array([-1.0, 0.0]),
            eq_constraints=np.array([[1.0, 1.0]]),
            eq_rhs=np.array([3.0]),
            ineq_constraints=np.array([[-1.0, 0.0]]),
            ineq_rhs=np.array([-2.0]),
        )
        sol = solve_lp(problem)
        assert sol.value == pytest.approx(-2.0, abs=1e-12)
        assert np.allclose(sol.dual, [0.0, 1.0], atol=1e-12)
        assert_complementary_dual(problem, sol)

    def test_pivots_counted_over_both_phases(self):
        # x + y = 1: x enters in phase 1 and drives the artificial out; to
        # maximize y, phase 2 makes one more pivot
        eq, eq_rhs = np.array([[1.0, 1.0]]), np.array([1.0])
        assert solve_lp(LPProblem(np.array([1.0, 0.0]), eq, eq_rhs)).pivots == 1
        sol = solve_lp(LPProblem(np.array([0.0, 1.0]), eq, eq_rhs))
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        assert sol.pivots == 2

    def test_small_lps_vs_basis_enumeration(self):
        """Integer data, mostly zero right-hand sides (heavily degenerate),
        mixed eq/le rows and box rows; status and value against the
        basis-enumeration oracle, and a complementary dual at each optimum."""
        rng = np.random.default_rng(4242)
        seen = set()
        for _ in range(200):
            n = int(rng.integers(2, 5))
            c = rng.integers(-3, 4, n).astype(float)
            rhs = lambda lo, hi: 0.0 if rng.random() < 0.6 else float(rng.integers(lo, hi))
            eq = [(rng.integers(-3, 4, n).astype(float), rhs(-2, 3)) for _ in range(rng.integers(0, 3))]
            le = [(rng.integers(-3, 4, n).astype(float), rhs(-2, 4)) for _ in range(rng.integers(0, 3))]
            for j in rng.choice(n, size=int(rng.integers(0, 3)), replace=False):
                box = np.zeros(n)
                box[j] = 1.0
                le.append((box, float(rng.integers(1, 4))))
            problem = lp_from_pairs(c, eq, le)
            sol = solve_lp(problem)
            status, value = lp_basis_enumeration(c, eq, le)
            assert sol.status.value == status
            if status == "optimal":
                assert sol.value == pytest.approx(value, abs=1e-9)
                assert_complementary_dual(problem, sol)
            seen.add(status)
        assert seen == {"optimal", "infeasible", "unbounded"}

    def _transport_lp(self, a, b, C):
        n, m = C.shape
        nv = n * m
        obj = -C.reshape(nv)
        eq = np.zeros((n + m, nv))
        for i in range(n):
            eq[i, i * m : (i + 1) * m] = 1.0
        for j in range(m):
            eq[n + j, j::m] = 1.0
        return solve_lp(LPProblem(obj, eq, np.concatenate([a, b])))

    @pytest.mark.parametrize("seed", range(12))
    def test_transport_polytope_vs_vertex_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 1.0, 3)
        a /= a.sum()
        b = rng.uniform(0.1, 1.0, 3)
        b /= b.sum()
        C = rng.uniform(0.0, 5.0, (3, 3))
        sol = self._transport_lp(a, b, C)
        assert sol.status == LPStatus.OPTIMAL
        expected = transport_cost_vertex_enumeration(a, b, C)
        assert -sol.value == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_weak_duality_feasible_points(self, seed):
        """Any feasible coupling scores no better than the solver optimum."""
        rng = np.random.default_rng(100 + seed)
        a = rng.uniform(0.1, 1.0, 4)
        a /= a.sum()
        b = rng.uniform(0.1, 1.0, 3)
        b /= b.sum()
        C = rng.uniform(0.0, 3.0, (4, 3))
        sol = self._transport_lp(a, b, C)
        product_coupling = np.outer(a, b).reshape(-1)
        assert float(np.dot(-C.reshape(-1), product_coupling)) <= sol.value + 1e-9

    def test_solution_feasibility_tolerance(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(0.1, 1.0, 5)
        a /= a.sum()
        b = rng.uniform(0.1, 1.0, 5)
        b /= b.sum()
        C = rng.uniform(0.0, 2.0, (5, 5))
        sol = self._transport_lp(a, b, C)
        pi = sol.point.reshape(5, 5)
        assert np.max(np.abs(pi.sum(axis=1) - a)) <= 1e-9
        assert np.max(np.abs(pi.sum(axis=0) - b)) <= 1e-9
        assert float(np.dot(-C.reshape(-1), sol.point)) == pytest.approx(sol.value, abs=1e-9)


BLOBS = {"generator": "gaussian-blobs", "n": 6, "k": 2, "dim": 2, "seed": 9}


class TestSimplexGuards:
    """The certify configs with label costs of 1e100 and 1e308 build oracle
    LPs that the simplex cannot solve in floating point.  Over their
    undominated couplings they fail the primal check; over every finite
    coupling, as the oracle built them before it dropped dominated ones,
    they reach the guards inside the simplex, named here by the function
    that raises and its caller."""

    @pytest.mark.parametrize(
        "doc, message, frames",
        [
            (
                {"dataset": {**BLOBS, "seed": 2}, "robust": {"rho": 0.5, "kappa": 1e100, "oracle_grid_side": 2}},
                "simplex basis is singular",
                ["_run_simplex", "_basis_inverse"],
            ),
            (
                {"dataset": {**BLOBS, "n": 12, "seed": 1}, "robust": {"rho": 0.5, "kappa": 1e100, "oracle_grid_side": 2}},
                "simplex basis is singular",
                ["solve_lp", "_basis_inverse"],
            ),
            (
                {"dataset": {**BLOBS, "std": 0}, "robust": {"rho": 0.1, "kappa": 1e308, "oracle_grid_side": 2}},
                "a simplex basic value is not finite",
                ["solve_lp", "_run_simplex"],
            ),
        ],
        ids=["kappa-1e100-refactorization", "kappa-1e100-phase-2", "kappa-1e308-minimum-ratio"],
    )
    def test_every_coupling_lp_reaches_the_guard(self, tmp_path, monkeypatch, doc, message, frames):
        problems = []

        def spy(problem):
            problems.append(problem)
            return solve_lp(problem)

        monkeypatch.setattr(robust, "_undominated", lambda values, C: np.nonzero(np.isfinite(C)))
        monkeypatch.setattr(robust, "solve_lp", spy)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seed": 1, "model": {"dims": [2, 2]}, **doc}), encoding="utf-8")
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        (problem,) = problems
        # the floating-point state every CLI command runs in
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), pytest.raises(NumericalError, match=message) as raised:
            solve_lp(problem)
        assert [entry.name for entry in raised.traceback][-2:] == frames


class TestFiniteDifferences:
    def test_quadratic(self):
        grad = finite_difference_gradient(lambda v: float(np.dot(v, v)), np.array([1.0, 2.0]), 1e-5)
        assert np.allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_constant(self):
        grad = finite_difference_gradient(lambda v: 3.25, np.array([0.3, -0.7, 1.1]), 1e-5)
        assert np.allclose(grad, 0.0)

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda v: 0.0, np.array([1.0]), 0.0)
