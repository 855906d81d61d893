"""Packing-LP simplex and the best-of-blocks disjunction, against closed forms and scipy.

An LP is a tuple (c, a, b) of float arrays: max c'x s.t. a x <= b, x >= 0.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from portdim import subsolver as ss


def lp(objective, matrix, rhs):
    """The LP (c, a, b) as float arrays."""
    return np.array(objective, dtype=float), np.array(matrix, dtype=float), np.array(rhs, dtype=float)


def solve_one(p):
    """``_simplex`` on the one LP ``p``: (status, value, x, pivots), the value inf when unbounded."""
    c, a, b = p
    x, pivots, unbounded = ss._simplex(c[None], a[None], b[None])
    if unbounded[0]:
        return "unbounded", np.inf, x[0], int(pivots[0])
    return "optimal", float(c @ x[0]), x[0], int(pivots[0])


def best_block(p, blocks):
    """``_best_blocks`` on the one LP ``p`` and its column blocks, the stack axis dropped."""
    c, a, b = p
    return tuple(v[0] for v in ss._best_blocks(c[None], a[None], b[None], np.array(blocks)))


def _reference_revised_simplex(p):
    """The revised simplex with an explicit basis inverse, refactorised every 64 pivots.

    Same pivot rule as ``_simplex``'s tableau: Dantzig entering, min-ratio
    leaving with ties to the lowest basic index, Bland after more than 50 m
    consecutive degenerate pivots.  Returns (status, value, iterations).
    """
    objective, matrix, rhs = p
    m, n_vars = matrix.shape
    a = np.hstack([matrix, np.eye(m)])
    cost = np.concatenate([-objective, np.zeros(m)])
    n = n_vars + m
    basis = np.arange(n_vars, n)
    b_inv = np.linalg.inv(a[:, basis])
    xb = b_inv @ rhs
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
            return "optimal", float(objective @ x[:n_vars]), it
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
            xb = b_inv @ rhs
        else:
            b_inv[r] /= d[r]
            xb[r] = theta
            other = np.arange(m) != r
            xb[other] -= d[other] * theta
            b_inv[other] -= np.outer(d[other], b_inv[r])
        xb = np.maximum(xb, 0.0)
    raise AssertionError("reference simplex did not converge")


# Beale's LP: Dantzig pricing with min-ratio ties to the lowest index cycles on it
BEALE = lp(
    [0.75, -20.0, 0.5, -6.0],
    [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def test_two_constraint_vertex_optimum():
    # max x + y  s.t.  x + 2y <= 4,  3x + y <= 6  ->  (1.6, 1.2)
    status, value, x, pivots = solve_one(lp([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0]))
    assert status == "optimal"
    assert value == pytest.approx(2.8, abs=1e-10)
    assert np.allclose(x, [1.6, 1.2], atol=1e-10)
    assert pivots > 0


def test_simplex_constraint_picks_best_coordinate():
    status, value, x, _ = solve_one(lp([0.3, -1.0, 2.5, 0.9], np.ones((1, 4)), [1.0]))
    assert status == "optimal"
    assert value == pytest.approx(2.5, abs=1e-12)
    assert np.allclose(x, [0.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_box_bound_only():
    status, value, _, _ = solve_one(lp([1.0], [[1.0]], [0.7]))
    assert status == "optimal" and value == pytest.approx(0.7, abs=1e-12)


def test_unbounded_detected():
    # max x0 s.t. x1 <= 1: nothing caps x0
    assert solve_one(lp([1.0, 0.0], [[0.0, 1.0]], [1.0]))[0] == "unbounded"


def test_degenerate_lp_terminates():
    # many redundant rows through one vertex: exercises the anti-cycling path
    n = 4
    a = np.vstack([np.eye(n), np.ones((1, n)), 2.0 * np.ones((1, n))])
    status, value, _, _ = solve_one(lp(np.ones(n), a, np.zeros(n + 2)))
    assert status == "optimal"
    assert value == pytest.approx(0.0, abs=1e-12)


def test_beale_cycling_lp_needs_bland():
    # Dantzig's rule cycles among degenerate bases until Bland's rule takes over
    status, value, x, pivots = solve_one(BEALE)
    assert status == "optimal"
    assert value == pytest.approx(1.25, abs=1e-12)
    assert np.allclose(x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert pivots > 150  # more than 50 m degenerate pivots before the switch


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
    return c, a, rhs


def assert_matches_reference(p):
    status, value, _, pivots = solve_one(p)
    ref_status, ref_value, iterations = _reference_revised_simplex(p)
    assert (status, pivots) == (ref_status, iterations)
    assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-14)


def test_beale_lp_matches_reference_pivots():
    assert_matches_reference(BEALE)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0.0, 0.5, 1.0]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_pivots_match_reference_revised_simplex(seed, zero_rhs_fraction, capped):
    p = random_packing_lp(np.random.default_rng(seed), zero_rhs_fraction)
    if not capped:  # without the positive last row the LP may be unbounded
        p = (p[0], p[1][:-1], p[2][:-1])
    assert_matches_reference(p)


def assert_matches_scipy(p):
    c, a, b = p
    status, value, x, _ = solve_one(p)
    ref = linprog(-c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    assert status == "optimal" and ref.status == 0
    assert value == pytest.approx(-ref.fun, abs=1e-8, rel=1e-8)
    assert np.all(x >= 0.0)
    assert np.all(a @ x <= b + 1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_random_lps_match_scipy(seed):
    assert_matches_scipy(random_packing_lp(np.random.default_rng(seed)))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_random_packing_lps_match_scipy(seed):
    assert_matches_scipy(random_packing_lp(np.random.default_rng(seed)))


def test_milp_picks_best_block():
    # max 2x0 + x1 + 3x2 s.t. x0 + x1 + x2 <= 1, x2 <= 0.25, over block {0, 1} or {1, 2}
    c, a, b = lp([2.0, 1.0, 3.0], [[1.0, 1.0, 1.0], [0.0, 0.0, 1.0]], [1.0, 0.25])
    blocks = [[0, 1], [1, 2]]
    value, best, x, pivots, unbounded = best_block((c, a, b), blocks)
    assert not unbounded.any()
    # block {0, 1}: x0 = 1 gives 2; block {1, 2}: x2 = 0.25, x1 = 0.75 gives 1.5
    assert value == pytest.approx(2.0, abs=1e-12)
    assert best == 0 and np.allclose(x, [1.0, 0.0], atol=1e-12)
    assert pivots.tolist() == [solve_one((c[k], a[:, k], b))[3] for k in blocks]


def test_milp_first_block_wins_ties():
    _, best, x, _, _ = best_block(lp([1.0, 1.0], [[1.0, 1.0]], [1.0]), [[1], [0]])
    assert best == 0 and np.array_equal(x, [1.0])


def test_milp_unbounded_block():
    unbounded = best_block(lp([1.0, 1.0], [[1.0, 0.0]], [1.0]), [[0], [1]])[4]
    assert unbounded.tolist() == [False, True]


# ---------------------------------------------------------------------------
# the lockstep stack


def test_pivot_cap_raises_breakdown_with_its_cap(monkeypatch):
    # without the switch to Bland's rule, Dantzig's rule cycles on Beale's LP
    # until the cap of 2000 + 200 (2m + n) pivots: 4000 for m = 3, n = 4
    monkeypatch.setattr(ss, "_BLAND_AFTER", 10**9)
    with pytest.raises(ss._Breakdown) as err:
        solve_one(BEALE)
    assert (err.value.problem, err.value.cap) == (0, 4000)
    assert "4000 pivots" in str(err.value)


def _stack(problems):
    return tuple(np.array(part) for part in zip(*problems))


def _beale_shaped_lp(rng):
    return rng.standard_normal(4), rng.uniform(-1.0, 2.0, (3, 4)), rng.uniform(0.0, 2.0, 3)


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
    assert [int(p) for p in pivots] == [solve_one(p)[3] for p in problems]


def _beale_after_free_pivots(k):
    """Beale's LP beside three independent columns x_i <= 1, the first k of
    them profitable: Dantzig's rule takes those k nondegenerate pivots
    first, so the cycle and the Bland switch come k pivots later."""
    c = np.concatenate([BEALE[0], [100.0, 99.0, 98.0][:k], np.zeros(3 - k)])
    a = np.zeros((6, 7))
    a[:3, :4] = BEALE[1]
    a[3:, 4:] = np.eye(3)
    return c, a, np.concatenate([BEALE[2], np.ones(3)])


def test_bland_switch_belongs_to_each_lp_of_a_stack():
    # both LPs cycle; the second switches to Bland's rule three pivots after
    # the first, and must not be switched along with it
    problems = [_beale_after_free_pivots(0), _beale_after_free_pivots(3)]
    _, pivots, _ = ss._simplex(*_stack(problems))
    assert [int(p) for p in pivots] == [solve_one(p)[3] for p in problems] == [306, 309]


def _klee_minty(d):
    """The Klee-Minty cube: Dantzig's rule visits all 2^d vertices, every pivot nondegenerate."""
    a = np.eye(d)
    for i in range(d):
        a[i, :i] = 2.0 ** (i + 1 - np.arange(i))
    return 2.0 ** np.arange(d - 1, -1, -1), a, 5.0 ** np.arange(1, d + 1)


def _padded_beale(size):
    """Beale's LP padded to size x size with rows 0 x <= 1 and zero columns."""
    a = np.zeros((size, size))
    a[:3, :4] = BEALE[1]
    rhs = np.ones(size)
    rhs[:3] = BEALE[2]
    return np.concatenate([BEALE[0], np.zeros(size - 4)]), a, rhs


def test_degenerate_run_belongs_to_each_lp_of_a_stack():
    # the cube pivots nondegenerately for 255 pivots while Beale's LP cycles:
    # the cycling LP's degenerate run must not restart at the cube's pivots
    problems = [_klee_minty(8), _padded_beale(8)]
    _, pivots, unbounded = ss._simplex(*_stack(problems))
    assert [int(p) for p in pivots] == [solve_one(p)[3] for p in problems] == [255, 403]
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
    status, value, _, _ = solve_one(lp([1.0], [[1e-12]], [1.0]))
    assert status == "optimal"
    assert value == pytest.approx(1e12, rel=1e-15)


def test_tiny_objective_still_prices():
    # max 1e-12 x s.t. x <= 1: the reduced cost is below the pivot tolerance until the objective is scaled
    status, _, x, _ = solve_one(lp([1e-12], [[1.0]], [1.0]))
    assert status == "optimal"
    assert np.array_equal(x, [1.0])


def test_milp_blocks_see_tiny_rows_and_objectives():
    # block {0}: max 1e-12 x0 s.t. 1e-12 x0 <= 1 gives 1; block {1}: max 3e-12 x1 s.t. x1 <= 1 gives 3e-12
    value, best, x, _, unbounded = best_block(lp([1e-12, 3e-12], [[1e-12, 0.0], [0.0, 1.0]], [1.0, 1.0]), [[0], [1]])
    assert not unbounded.any()
    assert value == pytest.approx(1.0, rel=1e-15)
    assert best == 0 and x == pytest.approx([1e12], rel=1e-15)


# ---------------------------------------------------------------------------
# the one-problem views, kept for the benchmark's tracer


@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@settings(max_examples=50, deadline=None)
@example(seed=18, capped=False)  # unbounded after three pivots
def test_solve_lp_is_the_stack_simplex_on_one_lp(seed, capped):
    c, a, b = random_packing_lp(np.random.default_rng(seed), 0.5)
    if not capped:  # without the positive last row the LP may be unbounded
        a, b = a[:-1], b[:-1]
    sol = ss.solve_lp(c, a, b)
    x, pivots, unbounded = ss._simplex(c[None], a[None], b[None])
    assert sol.iterations == pivots[0]
    if unbounded[0]:
        assert (sol.status, sol.value, sol.x) == ("unbounded", np.inf, None)
    else:
        assert sol.status == "optimal" and sol.x.tobytes() == x[0].tobytes()
        assert np.float64(sol.value).tobytes() == np.float64(c @ x[0]).tobytes()


@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@settings(max_examples=50, deadline=None)
@example(seed=52, capped=False)  # a block LP unbounded after two pivots
def test_solve_milp_is_the_best_of_the_stacked_blocks(seed, capped):
    rng = np.random.default_rng(seed)
    c, a, b = random_packing_lp(rng, 0.5)
    if not capped and a.shape[0] > 1:  # _best_blocks needs a row: every bound LP has two or more
        a, b = a[:-1], b[:-1]
    size = int(rng.integers(1, c.size + 1))
    blocks = np.array([rng.permutation(c.size)[:size] for _ in range(int(rng.integers(1, 5)))])
    sol = ss.solve_milp(c, a, b, blocks)
    value, best, x, pivots, unbounded = best_block((c, a, b), blocks)
    if unbounded.any():
        first = int(np.flatnonzero(unbounded)[0])
        assert (sol.status, sol.value, sol.x, sol.iterations) == ("unbounded", np.inf, None, pivots[: first + 1].sum())
    else:
        full = np.zeros(c.size)
        full[blocks[best]] = x
        assert sol.status == "optimal" and sol.iterations == pivots.sum()
        assert sol.x.tobytes() == full.tobytes() and np.float64(sol.value).tobytes() == value.tobytes()
