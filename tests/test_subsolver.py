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


# ---------------------------------------------------------------------------
# the lockstep stack


def test_pivot_cap_raises_breakdown_with_its_cap(monkeypatch):
    # without the switch to Bland's rule, Dantzig's rule cycles on Beale's LP
    # until the cap of 2000 + 200 (2m + n) pivots: 4000 for m = 3, n = 4
    monkeypatch.setattr(ss, "_BLAND_AFTER", 10**9)
    with pytest.raises(ss._Breakdown) as err:
        ss.solve_lp(BEALE)
    assert (err.value.problem, err.value.cap) == (0, 4000)
    assert "4000 pivots" in str(err.value)


def _stack(problems):
    return (
        np.array([p.objective for p in problems]),
        np.array([p.matrix for p in problems]),
        np.array([p.rhs for p in problems]),
    )


def _beale_shaped_lp(rng):
    return ss.LpProblem(rng.standard_normal(4), rng.uniform(-1.0, 2.0, (3, 4)), rng.uniform(0.0, 2.0, 3))


def test_breakdown_names_the_stalled_problem_of_a_stack(monkeypatch):
    monkeypatch.setattr(ss, "_BLAND_AFTER", 10**9)
    rng = np.random.default_rng(3)
    problems = [_beale_shaped_lp(rng), _beale_shaped_lp(rng), BEALE, _beale_shaped_lp(rng)]
    with pytest.raises(ss._Breakdown) as err:
        ss._simplex(*_stack(problems))
    assert (err.value.problem, err.value.cap) == (2, 4000)


def test_beale_lp_in_a_stack_keeps_its_pivots():
    # the Bland switch and the degenerate-pivot count belong to each LP alone
    rng = np.random.default_rng(8)
    problems = [_beale_shaped_lp(rng) for _ in range(5)]
    problems.insert(2, BEALE)
    x, pivots, unbounded = ss._simplex(*_stack(problems))
    assert pivots[2] == 156 and not unbounded[2]
    assert np.allclose(x[2], [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert [int(p) for p in pivots] == [ss.solve_lp(p).iterations for p in problems]


def _beale_after_free_pivots(k):
    """Beale's LP beside three independent columns x_i <= 1, the first k of
    them profitable: Dantzig's rule takes those k nondegenerate pivots
    first, so the cycle and the Bland switch come k pivots later."""
    c = np.concatenate([BEALE.objective, [100.0, 99.0, 98.0][:k], np.zeros(3 - k)])
    a = np.zeros((6, 7))
    a[:3, :4] = BEALE.matrix
    a[3:, 4:] = np.eye(3)
    return ss.LpProblem(c, a, np.concatenate([BEALE.rhs, np.ones(3)]))


def test_bland_switch_belongs_to_each_lp_of_a_stack():
    # both LPs cycle; the second switches to Bland's rule three pivots after
    # the first, and must not be switched along with it
    problems = [_beale_after_free_pivots(0), _beale_after_free_pivots(3)]
    _, pivots, _ = ss._simplex(*_stack(problems))
    assert [int(p) for p in pivots] == [ss.solve_lp(p).iterations for p in problems] == [306, 309]


def _klee_minty(d):
    """The Klee-Minty cube: Dantzig's rule visits all 2^d vertices, every pivot nondegenerate."""
    a = np.eye(d)
    for i in range(d):
        a[i, :i] = 2.0 ** (i + 1 - np.arange(i))
    return ss.LpProblem(2.0 ** np.arange(d - 1, -1, -1), a, 5.0 ** np.arange(1, d + 1))


def _padded_beale(size):
    """Beale's LP padded to size x size with rows 0 x <= 1 and zero columns."""
    a = np.zeros((size, size))
    a[:3, :4] = BEALE.matrix
    rhs = np.ones(size)
    rhs[:3] = BEALE.rhs
    return ss.LpProblem(np.concatenate([BEALE.objective, np.zeros(size - 4)]), a, rhs)


def test_degenerate_run_belongs_to_each_lp_of_a_stack():
    # the cube pivots nondegenerately for 255 pivots while Beale's LP cycles:
    # the cycling LP's degenerate run must not restart at the cube's pivots
    problems = [_klee_minty(8), _padded_beale(8)]
    _, pivots, unbounded = ss._simplex(*_stack(problems))
    assert [int(p) for p in pivots] == [ss.solve_lp(p).iterations for p in problems] == [255, 403]
    assert not unbounded.any()


def _random_stack(rng):
    """One shape per stack; LPs with and without the capping row (so some are
    unbounded) and with some or all right-hand sides zero."""
    n_rows, n_vars, size = int(rng.integers(0, 6)), int(rng.integers(1, 8)), int(rng.integers(1, 12))
    c = rng.standard_normal((size, n_vars))
    a = rng.uniform(-1.0, 2.0, (size, n_rows + 1, n_vars))
    capped = rng.random(size) < 0.5
    a[capped, -1] = rng.uniform(0.1, 1.0, (int(capped.sum()), n_vars))
    b = rng.uniform(0.0, 2.0, (size, n_rows + 1))
    b[rng.random((size, n_rows + 1)) < rng.choice([0.0, 0.5, 1.0], (size, 1))] = 0.0
    return c, a, b


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_stacked_solves_equal_one_problem_solves(seed):
    c, a, b = _random_stack(np.random.default_rng(seed))
    size = c.shape[0]
    x, pivots, unbounded = ss._simplex(c, a, b)
    for i in range(size):
        x_i, pivots_i, unbounded_i = ss._simplex(c[i : i + 1], a[i : i + 1], b[i : i + 1])
        assert (pivots[i], unbounded[i]) == (pivots_i[0], unbounded_i[0])
        assert x[i].tobytes() == x_i[0].tobytes()


def test_milp_blocks_must_share_a_size():
    lp = ss.LpProblem(objective=[1.0, 1.0], matrix=[[1.0, 1.0]], rhs=[1.0])
    with pytest.raises(ValueError, match="same size"):
        ss.MilpProblem(lp=lp, blocks=((0,), (0, 1)))


# ---------------------------------------------------------------------------
# the power-of-two row scaling


def _beale_stack(rng):
    problems = [_beale_shaped_lp(rng) for _ in range(5)]
    problems.insert(int(rng.integers(0, 6)), BEALE)
    return _stack(problems)


_STACKS = {
    "random": _random_stack,
    "beale": _beale_stack,
    "bland": lambda rng: _stack([_beale_after_free_pivots(0), _beale_after_free_pivots(3)]),
    "cube": lambda rng: _stack([_klee_minty(8), _padded_beale(8)]),
}


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(sorted(_STACKS)))
@settings(max_examples=150, deadline=None)
def test_objective_scaled_by_a_power_of_two_changes_no_answer(seed, kind):
    # each LP's objective times its own 2^j, j in [-60, 60]: the objective row
    # is scaled back to a largest |entry| in [1, 2), so the tableau is the same
    rng = np.random.default_rng(seed)
    c, a, b = _STACKS[kind](rng)
    scaled = np.ldexp(c, rng.integers(-60, 61, (c.shape[0], 1)))
    x, pivots, unbounded = ss._simplex(c, a, b)
    x_scaled, pivots_scaled, unbounded_scaled = ss._simplex(scaled, a, b)
    assert x_scaled.tobytes() == x.tobytes()
    assert np.array_equal(pivots_scaled, pivots) and np.array_equal(unbounded_scaled, unbounded)


def test_row_of_tiny_entries_still_bounds_the_lp():
    # max x s.t. 1e-12 x <= 1: the entry is below the pivot tolerance until its row is scaled
    sol = ss.solve_lp(ss.LpProblem([1.0], [[1e-12]], [1.0]))
    assert sol.optimal
    assert sol.value == pytest.approx(1e12, rel=1e-15)


def test_tiny_objective_still_prices():
    # max 1e-12 x s.t. x <= 1: the reduced cost is below the pivot tolerance until the objective is scaled
    sol = ss.solve_lp(ss.LpProblem([1e-12], [[1.0]], [1.0]))
    assert sol.optimal
    assert np.array_equal(sol.x, [1.0])


def test_milp_blocks_see_tiny_rows_and_objectives():
    # block {0}: max 1e-12 x0 s.t. 1e-12 x0 <= 1 gives 1; block {1}: max 3e-12 x1 s.t. x1 <= 1 gives 3e-12
    lp = ss.LpProblem(objective=[1e-12, 3e-12], matrix=[[1e-12, 0.0], [0.0, 1.0]], rhs=[1.0, 1.0])
    sol = ss.solve_milp(ss.MilpProblem(lp=lp, blocks=((0,), (1,))))
    assert sol.optimal
    assert sol.value == pytest.approx(1.0, rel=1e-15)
    assert sol.x == pytest.approx([1e12, 0.0], rel=1e-15)
