"""Packing-LP simplex and the best-of-blocks disjunction, against closed forms and scipy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from portdim import subsolver as ss


def _reference_solve_lp(p):
    """The revised simplex with an explicit basis inverse, refactorised every 64 pivots.

    Same pivot rule as ``solve_lp``'s tableau: Dantzig entering, min-ratio
    leaving with ties to the lowest basic index, Bland after more than 50 m
    consecutive degenerate pivots.  Returns (status, value, iterations).
    """
    m, n_vars = p.matrix.shape
    a = np.hstack([p.matrix, np.eye(m)])
    cost = np.concatenate([-p.objective, np.zeros(m)])
    n = n_vars + m
    basis = np.arange(n_vars, n)
    b_inv = np.linalg.inv(a[:, basis])
    xb = b_inv @ p.rhs
    degenerate = 0
    bland = False
    for it in range(2000 + 200 * (m + n)):
        reduced = cost - (cost[basis] @ b_inv) @ a
        reduced[basis] = 0.0
        if bland:
            candidates = np.flatnonzero(reduced < -1e-9)
            j = int(candidates[0]) if candidates.size else -1
        else:
            j = int(np.argmin(reduced))
            j = j if reduced[j] < -1e-9 else -1
        if j < 0:
            x = np.zeros(n)
            x[basis] = xb
            return "optimal", float(p.objective @ x[:n_vars]), it
        d = b_inv @ a[:, j]
        pos = d > 1e-9
        if not np.any(pos):
            return "unbounded", np.inf, it
        ratios = np.full(m, np.inf)
        ratios[pos] = xb[pos] / d[pos]
        theta = ratios.min()
        tie = np.flatnonzero(ratios <= theta + 1e-15)
        r = int(tie[np.argmin(basis[tie])])
        degenerate = degenerate + 1 if theta <= 1e-12 else 0
        bland = bland or degenerate > 50 * m
        basis[r] = j
        if (it + 1) % 64 == 0:
            b_inv = np.linalg.inv(a[:, basis])
            xb = b_inv @ p.rhs
        else:
            b_inv[r] /= d[r]
            xb[r] = theta
            other = np.arange(m) != r
            xb[other] -= d[other] * theta
            b_inv[other] -= np.outer(d[other], b_inv[r])
        xb = np.maximum(xb, 0.0)
    raise AssertionError("reference simplex did not converge")


# Beale's LP: Dantzig pricing with min-ratio ties to the lowest index cycles on it
BEALE = ss.LpProblem(
    objective=[0.75, -20.0, 0.5, -6.0],
    matrix=[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
    rhs=[0.0, 0.0, 1.0],
)


def test_two_constraint_vertex_optimum():
    # max x + y  s.t.  x + 2y <= 4,  3x + y <= 6  ->  (1.6, 1.2)
    p = ss.LpProblem(objective=[1.0, 1.0], matrix=[[1.0, 2.0], [3.0, 1.0]], rhs=[4.0, 6.0])
    sol = ss.solve_lp(p)
    assert sol.optimal
    assert sol.value == pytest.approx(2.8, abs=1e-10)
    assert np.allclose(sol.x, [1.6, 1.2], atol=1e-10)
    assert sol.iterations > 0


def test_simplex_constraint_picks_best_coordinate():
    c = np.array([0.3, -1.0, 2.5, 0.9])
    sol = ss.solve_lp(ss.LpProblem(objective=c, matrix=np.ones((1, 4)), rhs=[1.0]))
    assert sol.optimal
    assert sol.value == pytest.approx(2.5, abs=1e-12)
    assert np.allclose(sol.x, [0.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_box_bound_only():
    sol = ss.solve_lp(ss.LpProblem(objective=[1.0], matrix=[[1.0]], rhs=[0.7]))
    assert sol.optimal and sol.value == pytest.approx(0.7, abs=1e-12)


def test_unbounded_detected():
    # max x0 s.t. x1 <= 1: nothing caps x0
    p = ss.LpProblem(objective=[1.0, 0.0], matrix=[[0.0, 1.0]], rhs=[1.0])
    assert ss.solve_lp(p).status == "unbounded"


def test_shape_validation():
    with pytest.raises(ValueError):
        ss.LpProblem(objective=[1.0, 2.0], matrix=[[1.0]], rhs=[1.0])
    with pytest.raises(ValueError):
        ss.LpProblem(objective=[1.0], matrix=[[1.0], [2.0]], rhs=[1.0])
    with pytest.raises(ValueError):
        ss.LpProblem(objective=[np.inf], matrix=[[1.0]], rhs=[1.0])
    with pytest.raises(ValueError):
        ss.LpProblem(objective=[1.0], matrix=[[np.nan]], rhs=[1.0])


def test_negative_rhs_rejected():
    # a negative right-hand side cuts off the origin, the simplex's start point
    with pytest.raises(ValueError, match="nonnegative"):
        ss.LpProblem(objective=[1.0, 1.0], matrix=[[1.0, 1.0], [-1.0, 0.0]], rhs=[1.0, -0.5])


def test_degenerate_lp_terminates():
    # many redundant rows through one vertex: exercises the anti-cycling path
    n = 4
    a = np.vstack([np.eye(n), np.ones((1, n)), 2.0 * np.ones((1, n))])
    sol = ss.solve_lp(ss.LpProblem(objective=np.ones(n), matrix=a, rhs=np.zeros(n + 2)))
    assert sol.optimal
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_beale_cycling_lp_needs_bland():
    # Dantzig's rule cycles among degenerate bases until Bland's rule takes over
    sol = ss.solve_lp(BEALE)
    assert sol.optimal
    assert sol.value == pytest.approx(1.25, abs=1e-12)
    assert np.allclose(sol.x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert sol.iterations > 150  # more than 50 m degenerate pivots before the switch


def random_packing_lp(rng, zero_rhs_fraction=0.0):
    """A random packing LP; the last row has positive entries, so it is bounded.

    Zeroing right-hand sides makes the slack basis degenerate.
    """
    n_vars = int(rng.integers(1, 9))
    n_rows = int(rng.integers(0, 7))
    a = np.vstack([rng.uniform(-1.0, 2.0, (n_rows, n_vars)), rng.uniform(0.1, 1.0, (1, n_vars))])
    c = rng.standard_normal(n_vars)
    rhs = rng.uniform(0.0, 2.0, n_rows + 1)
    rhs[rng.random(n_rows + 1) < zero_rhs_fraction] = 0.0
    return ss.LpProblem(objective=c, matrix=a, rhs=rhs)


def assert_matches_reference(p):
    sol = ss.solve_lp(p)
    status, value, iterations = _reference_solve_lp(p)
    assert (sol.status, sol.iterations) == (status, iterations)
    assert sol.value == pytest.approx(value, rel=1e-12, abs=1e-14)


def test_beale_lp_matches_reference_pivots():
    assert_matches_reference(BEALE)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0.0, 0.5, 1.0]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_pivots_match_reference_revised_simplex(seed, zero_rhs_fraction, capped):
    p = random_packing_lp(np.random.default_rng(seed), zero_rhs_fraction)
    if not capped:  # without the positive last row the LP may be unbounded
        p = ss.LpProblem(p.objective, p.matrix[:-1], p.rhs[:-1])
    assert_matches_reference(p)


def assert_matches_scipy(p):
    sol = ss.solve_lp(p)
    ref = linprog(-p.objective, A_ub=p.matrix, b_ub=p.rhs, bounds=(0, None), method="highs")
    assert sol.optimal and ref.status == 0
    assert sol.value == pytest.approx(-ref.fun, abs=1e-8, rel=1e-8)
    assert np.all(sol.x >= 0.0)
    assert np.all(p.matrix @ sol.x <= p.rhs + 1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_random_lps_match_scipy(seed):
    assert_matches_scipy(random_packing_lp(np.random.default_rng(seed)))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_random_packing_lps_match_scipy(seed):
    assert_matches_scipy(random_packing_lp(np.random.default_rng(seed)))


def test_milp_picks_best_block():
    # max 2x0 + x1 + 3x2 s.t. x0 + x1 + x2 <= 1, x2 <= 0.25, over block {0, 1} or {1, 2}
    lp = ss.LpProblem(objective=[2.0, 1.0, 3.0], matrix=[[1.0, 1.0, 1.0], [0.0, 0.0, 1.0]], rhs=[1.0, 0.25])
    sol = ss.solve_milp(ss.MilpProblem(lp=lp, blocks=((0, 1), (1, 2))))
    assert sol.optimal
    # block {0, 1}: x0 = 1 gives 2; block {1, 2}: x2 = 0.25, x1 = 0.75 gives 1.5
    assert sol.value == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(sol.x, [1.0, 0.0, 0.0], atol=1e-12)
    block_pivots = sum(
        ss.solve_lp(ss.LpProblem(lp.objective[list(b)], lp.matrix[:, list(b)], lp.rhs)).iterations
        for b in ((0, 1), (1, 2))
    )
    assert sol.iterations == block_pivots


def test_milp_first_block_wins_ties():
    lp = ss.LpProblem(objective=[1.0, 1.0], matrix=[[1.0, 1.0]], rhs=[1.0])
    sol = ss.solve_milp(ss.MilpProblem(lp=lp, blocks=((1,), (0,))))
    assert np.array_equal(sol.x, [0.0, 1.0])


def test_milp_unbounded_block():
    lp = ss.LpProblem(objective=[1.0, 1.0], matrix=[[1.0, 0.0]], rhs=[1.0])
    assert ss.solve_milp(ss.MilpProblem(lp=lp, blocks=((0,), (1,)))).status == "unbounded"


def test_milp_validation():
    lp = ss.LpProblem(objective=[1.0, 1.0], matrix=[[1.0, 1.0]], rhs=[1.0])
    for blocks in ((), ((),), ((0, 0),), ((0, 2),), ((-1,),)):
        with pytest.raises(ValueError):
            ss.MilpProblem(lp=lp, blocks=blocks)
