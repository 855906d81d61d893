"""Packing-LP simplex and the best-of-blocks disjunction, against closed forms and scipy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from portdim import subsolver as ss


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


def random_packing_lp(rng):
    """A random packing LP; the last row has positive entries, so it is bounded."""
    n_vars = int(rng.integers(1, 9))
    n_rows = int(rng.integers(0, 7))
    a = np.vstack([rng.uniform(-1.0, 2.0, (n_rows, n_vars)), rng.uniform(0.1, 1.0, (1, n_vars))])
    return ss.LpProblem(objective=rng.standard_normal(n_vars), matrix=a, rhs=rng.uniform(0.0, 2.0, n_rows + 1))


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
