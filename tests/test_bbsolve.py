"""Simplex partition geometry, cell bounds, and the branch-and-bound loop."""

import dataclasses
import gc
import heapq
import itertools
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from portdim import bbsolve as bb
from portdim import comoments as cm
from portdim import retsim as rs
from portdim import subsolver as ss

from bb_heap_reference import heap_solve
from conftest import cell_volume, homogeneous_spec, iid_comoments, m4_tensor

EW_GRID_STEP = 0.01


def barycentric_grid(vertices, step=0.1):
    """All points with barycentric coordinates on a uniform grid inside the cell."""
    m = vertices.shape[0]
    k = round(1.0 / step)
    combos = [
        np.array(c, dtype=float) / k
        for c in itertools.product(range(k + 1), repeat=m)
        if sum(c) == k
    ]
    return np.array(combos) @ vertices


def grid_max_h(c, vertices, step):
    pts = barycentric_grid(vertices, step)
    variance, _, mu4 = cm.batch_moments(pts, c)
    return float(np.max(variance**2 / mu4))


def cell_bounds(vertices, c, alpha, mode, n_c=1, first_id=0):
    """``_bound_cells`` on a (K, m, N) stack of cells at their barycenters:
    the bounds, the LP candidates and whether each candidate is valid."""
    ub, w, ok, _ = bb._bound_cells(vertices, vertices.mean(axis=1), c, alpha, mode, n_c, first_id)
    return ub, w, ok


#: every (bound mode, n_c) pair that the bound tests compare
MODES = (("lp1", 1), ("milp", 1), ("lp2", 1), ("lp2", 2), ("lp2", 3))


# ---------------------------------------------------------------------------
# geometry


def test_cell_validation():
    with pytest.raises(ValueError):
        bb.SimplexCell(np.ones((2, 3)))


def test_longest_edge_tie_breaks_to_smallest_pair():
    # the unit simplex has all edges equal: the (0, 1) pair must win; its
    # first child keeps three tied edges, (1, 2), (1, 3) and (2, 3)
    child = np.eye(4)
    child[0] = [0.5, 0.5, 0.0, 0.0]
    i, j, length = bb._longest_edges(np.stack([np.eye(4), child]))
    assert (i.tolist(), j.tolist()) == ([0, 1], [1, 2])
    np.testing.assert_allclose(length, math.sqrt(2.0), rtol=0.0, atol=1e-15)


def test_unit_simplex_volume():
    # the 2-simplex spanned by e1, e2, e3 is an equilateral triangle with
    # side sqrt(2): area sqrt(3)/2
    assert cell_volume(np.eye(3)) == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
    assert cell_volume(np.eye(2)) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_bisect_children_tile_parent():
    parent = np.eye(3)
    a, b = bb._bisect_cells(parent[None])
    assert cell_volume(a) + cell_volume(b) == pytest.approx(cell_volume(parent), rel=1e-12)
    # both children contain the split-edge midpoint as a vertex
    mid = 0.5 * (parent[0] + parent[1])
    assert any(np.allclose(v, mid) for v in a)
    assert any(np.allclose(v, mid) for v in b)


def test_repeated_bisection_shrinks_cells():
    cell = np.eye(3)[None]
    first_length = bb._longest_edges(cell)[2][0]
    for _ in range(20):
        cell = bb._bisect_cells(cell)[:1]
    assert bb._longest_edges(cell)[2][0] < 0.01 * first_length


def test_bisect_rejects_degenerate_cell():
    flat = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="degenerate"):
        bb._bisect_cells(flat[None])


def test_bisect_is_the_stack_bisection_of_one_cell():
    # the one-cell view that the benchmark's tracer patches: its children are
    # the rows of _bisect_cells bit for bit, one level deeper, with the next ids
    vertices = np.eye(4)[None]
    for depth in range(6):
        children = bb.bisect(bb.SimplexCell(vertices[0], depth=depth, id=3), first_child_id=11 + depth)
        want = bb._bisect_cells(vertices)
        assert [(child.id, child.depth) for child in children] == [(11 + depth, depth + 1), (12 + depth, depth + 1)]
        assert [child.vertices.tobytes() for child in children] == [v.tobytes() for v in want]
        vertices = want[depth % 2 :][:1]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_subcell_chains_tile_the_cell(m):
    # the milp bound's m! subcells: vertex k of a subcell is the barycenter
    # of the k+1 parent vertices in a permutation prefix
    cell = np.eye(m)
    members, chains = bb._subcell_chains(m)
    assert chains.shape == (math.factorial(m), m)
    barycenters = (members @ cell) / members.sum(axis=1)[:, None]
    subcells = barycenters[chains]
    assert sum(cell_volume(sub) for sub in subcells) == pytest.approx(cell_volume(cell), rel=1e-10)
    for sub in subcells:
        assert any(np.allclose(v, np.full(m, 1.0 / m)) for v in sub)


def test_cut_points_layout():
    vertices = np.eye(3)
    center = vertices.mean(axis=0)[None]
    assert np.array_equal(bb._cut_points(vertices[None], center, 1)[0], vertices)
    pts = bb._cut_points(vertices[None], center, 2)[0]
    assert pts.shape == (6, 3)
    # the extra three points are vertex-barycenter midpoints
    expected = 0.5 * vertices + 0.5 * vertices.mean(axis=0)
    assert np.allclose(pts[3:], expected)
    # all points stay inside the cell (valid barycentric coordinates)
    assert np.all(pts >= -1e-15) and np.allclose(pts.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# alpha floor and cell bounds


def test_alpha_floor_exact_on_iid_pair(c2_iid):
    # min of mu4 over the 2-simplex: at equal weights, mu4 = 1.125
    assert bb.alpha_floor(c2_iid) == pytest.approx(1.125, abs=1e-9)


def mixed_t_comoments(rng: np.random.Generator, n: int) -> cm.CoMomentSet:
    """Co-moments of a random heavy-tailed panel with random cross-loadings."""
    mixing = np.eye(n) + rng.uniform(-0.6, 0.6, (n, n))
    panel = rng.standard_t(rng.uniform(4.5, 30.0), size=(500, n)) @ mixing
    return cm.build_comoments(cm.ReturnSample(panel))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=5), seed=st.integers(min_value=0, max_value=2**32 - 1))
# a nearly riskless universe (cond(m2) 2.5e5, least mu4 4e-11) where the
# first descent stops with a Frank-Wolfe gap of 1.4e-10 and a floor below 0,
# so alpha is the eigenvalue floor of m4_gram, 1.41e-11
@example(n=5, seed=2214)
def test_alpha_floor_is_a_true_floor(n, seed):
    # the floor lies below mu4 at the vertices, at equal weights and at random simplex points
    rng = np.random.default_rng(seed)
    c = mixed_t_comoments(rng, n)
    alpha = bb.alpha_floor(c)
    points = np.vstack([np.eye(n), np.full((1, n), 1.0 / n), rng.dirichlet(np.ones(n), size=64)])
    mu4 = cm.batch_moments(points, c)[2]
    # at a vertex optimum the two agree, up to the rounding of the moment kernel
    assert 0.0 < alpha <= mu4.min() * (1.0 + 1e-12)


@pytest.mark.parametrize("n, seed", [(3, None), (4, 5), (5, 6)])
def test_alpha_floor_falls_back_to_the_eigenvalue_floor(c_n3, monkeypatch, n, seed):
    # a descent that stops at a vertex with mu4 taken as 0 leaves a floor <= 0,
    # so alpha is (lambda_min - n_p eps lambda_max) / N^2 of m4_gram
    c = c_n3 if seed is None else mixed_t_comoments(np.random.default_rng(seed), n)
    monkeypatch.setattr(bb, "_projected_descent", lambda f, grad, w, **kw: (np.eye(n)[0], 0.0, 0))
    alpha = bb.alpha_floor(c)
    eig = np.linalg.eigvalsh(c.m4_gram)
    assert alpha == (eig[0] - eig.size * np.finfo(float).eps * eig[-1]) / n**2
    rng = np.random.default_rng(0)
    points = np.vstack([np.eye(n), np.full((1, n), 1.0 / n), rng.dirichlet(np.ones(n), size=256)])
    assert 0.0 < alpha <= cm.batch_moments(points, c)[2].min()


@pytest.mark.parametrize("max_iter", [0, 1, 2])
def test_alpha_floor_holds_before_the_descent_converges(c_n3, monkeypatch, max_iter):
    converged = bb.alpha_floor(c_n3)
    monkeypatch.setattr(bb, "_ALPHA_MAX_ITER", max_iter)
    alpha = bb.alpha_floor(c_n3)
    mu4 = cm.batch_moments(barycentric_grid(np.eye(3), step=0.05), c_n3)[2]
    assert 0.0 < alpha < converged <= mu4.min()


def test_bound_soundness_and_dominance_on_root(c_n3):
    alpha = bb.alpha_floor(c_n3)
    root = np.eye(3)[None]
    (ub_lp1,), (cand1,), (ok1,) = cell_bounds(root, c_n3, alpha, "lp1")
    (ub_lp2_1,), _, _ = cell_bounds(root, c_n3, alpha, "lp2", 1)
    (ub_lp2_2,), _, _ = cell_bounds(root, c_n3, alpha, "lp2", 2)
    (ub_lp2_4,), _, _ = cell_bounds(root, c_n3, alpha, "lp2", 4)
    (ub_milp,), (cand_m,), (ok_m,) = cell_bounds(root, c_n3, alpha, "milp")
    h_max = grid_max_h(c_n3, root[0], step=0.02)
    for ub in (ub_lp1, ub_lp2_1, ub_lp2_2, ub_lp2_4, ub_milp):
        assert ub >= h_max - 1e-9
    # more tangent cuts never loosen the bound
    assert ub_lp2_1 <= ub_lp1 + 1e-12
    assert ub_lp2_2 <= ub_lp2_1 + 1e-12
    assert ub_lp2_4 <= ub_lp2_2 + 1e-12
    # piecewise envelope beats the affine one under the same single cut
    assert ub_milp <= ub_lp1 + 1e-12
    # candidates are feasible points
    assert ok1 and ok_m
    for cand in (cand1, cand_m):
        assert np.all(cand >= 0.0) and cand.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    n_c=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cut_rows_match_dense_reference(n, n_c, seed):
    rng = np.random.default_rng(seed)
    panel = rng.standard_normal((200, n)) + 0.3 * rng.standard_t(5, (200, n))
    c = cm.build_comoments(cm.ReturnSample(panel))
    cell = bb.SimplexCell(rng.dirichlet(np.ones(n), size=n))
    center = cell.vertices.mean(axis=0)[None, :]
    anchors = np.vstack([center, bb._cut_points(cell.vertices[None], center, n_c)[0]])
    rows = bb._cut_rows(cell.vertices, anchors, c, 0.5)
    assert rows.shape == (anchors.shape[0] + 1, n)
    t = m4_tensor(c)
    for row, r in zip(rows[:-1], anchors):
        grad = 4.0 * np.einsum("ijkl,j,k,l->i", t, r, r, r)
        g = np.einsum("ijkl,i,j,k,l->", t, r, r, r, r)
        # the tangent plane of g at R, evaluated at each vertex
        expected = cell.vertices @ grad + g - grad @ r
        scale = np.abs(cell.vertices @ grad).max() + abs(g) + abs(grad @ r)
        np.testing.assert_allclose(row, expected, rtol=0.0, atol=1e-12 * scale)
    assert np.all(rows[-1] == 0.5)


@pytest.fixture(scope="module")
def bound_instances(c_n3):
    """N=3 and N=4 co-moments with their fourth-moment floors."""
    c_n4 = cm.build_comoments(rs.sample_meta_gaussian(homogeneous_spec(4, -0.2), 20_000, seed=5))
    return {c.n_assets: (c, bb.alpha_floor(c)) for c in (c_n3, c_n4)}


@settings(max_examples=100, deadline=None)
@given(
    n=st.sampled_from([3, 4]),
    path=st.lists(st.integers(min_value=0, max_value=1), max_size=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bounds_cover_h_on_random_cells(bound_instances, n, path, seed):
    c, alpha = bound_instances[n]
    cell = np.eye(n)[None]
    for side in path:
        children = bb._bisect_cells(cell)
        assert sum(cell_volume(child) for child in children) == pytest.approx(cell_volume(cell[0]), rel=1e-9)
        cell = children[side : side + 1]
    points = np.random.default_rng(seed).dirichlet(np.ones(n), size=32) @ cell[0]
    variance, _, mu4 = cm.batch_moments(points, c)
    h_max = float(np.max(variance**2 / mu4))
    for mode, n_c in MODES:
        (ub,), _, _ = cell_bounds(cell, c, alpha, mode, n_c)
        assert h_max <= ub * (1.0 + 1e-12)


def test_milp_dominates_lp1_on_descendants(c_n3):
    # the structural half of the dominance story holds on every cell
    alpha = bb.alpha_floor(c_n3)
    cells = np.eye(3)[None]
    for _ in range(2):
        cells = np.concatenate([cells, bb._bisect_cells(cells)])
    assert cells.shape[0] == 9
    ub_lp1 = cell_bounds(cells, c_n3, alpha, "lp1")[0]
    ub_milp = cell_bounds(cells, c_n3, alpha, "milp")[0]
    assert np.all(ub_milp <= ub_lp1 + 1e-9)


@settings(max_examples=100, deadline=None)
@given(
    n=st.sampled_from([3, 4]),
    path=st.lists(st.integers(min_value=0, max_value=1), max_size=12),
)
def test_milp_equals_lp1_where_the_floor_row_is_slack(bound_instances, n, path):
    # where the barycenter cut's coefficient r_i is at least alpha at every vertex, the floor row
    # is slack and lp1 is max_i f(v_i)/r_i; each milp subcell LP has a vertex column, and its
    # subset-barycenter columns score no higher (f convex, r affine), so the bounds coincide
    c, alpha = bound_instances[n]
    cell = np.eye(n)[None]
    for side in path:
        cell = bb._bisect_cells(cell)[side : side + 1]
    r = bb._cut_rows(cell, cell.mean(axis=1)[:, None], c, alpha)[0, 0]
    assume(np.all(r >= alpha))
    (ub_lp1,), _, _ = cell_bounds(cell, c, alpha, "lp1")
    (ub_milp,), _, _ = cell_bounds(cell, c, alpha, "milp")
    assert ub_lp1 == pytest.approx(float(np.max(bb._vertex_objective(cell[0], c) / r)), rel=1e-12)
    assert ub_milp == pytest.approx(ub_lp1, rel=1e-12)


def mccormick_milp_bound(vertices, c, alpha):
    """The milp bound in its mixed-integer form, solved by HiGHS.

    Variables are [b (one per vertex-subset barycenter), u, z (one per
    subcell), q (binary, one per subcell)], with sum b = u and sum q = 1;
    one tangent cut at the cell barycenter; b_k <= sum of z_j over the
    subcells whose chain contains subset k; z_j = q_j u by McCormick rows
    under 0 <= u <= 1/alpha.
    """
    m = vertices.shape[0]
    subsets = [s for size in range(1, m + 1) for s in itertools.combinations(range(m), size)]
    bary = np.array([vertices[list(s)].mean(axis=0) for s in subsets])
    perms = list(itertools.permutations(range(m)))
    n_b, n_cell = len(subsets), len(perms)
    u, z, q = n_b, n_b + 1, n_b + 1 + n_cell
    n_vars = n_b + 1 + 2 * n_cell
    inv_alpha = 1.0 / alpha

    rows, lo, hi = [], [], []

    def add(entries, low, high):
        row = np.zeros(n_vars)
        for j, value in entries:
            row[j] += value
        rows.append(row)
        lo.append(low)
        hi.append(high)

    add([(k, 1.0) for k in range(n_b)] + [(u, -1.0)], 0.0, 0.0)
    add([(q + j, 1.0) for j in range(n_cell)], 1.0, 1.0)
    center = vertices.mean(axis=0)
    m4 = m4_tensor(c)
    grad = 4.0 * np.einsum("ijkl,j,k,l->i", m4, center, center, center)
    mu4 = np.einsum("ijkl,i,j,k,l->", m4, center, center, center, center)
    add([(k, float(bary[k] @ grad)) for k in range(n_b)] + [(u, mu4 - grad @ center)], -np.inf, 1.0)
    for k, subset in enumerate(subsets):
        members = [j for j, perm in enumerate(perms) if set(perm[: len(subset)]) == set(subset)]
        add([(k, 1.0)] + [(z + j, -1.0) for j in members], -np.inf, 0.0)
    for j in range(n_cell):
        add([(z + j, 1.0), (q + j, -inv_alpha)], -np.inf, 0.0)
        add([(z + j, 1.0), (u, -1.0)], -np.inf, 0.0)
        add([(u, 1.0), (z + j, -1.0), (q + j, inv_alpha)], -np.inf, inv_alpha)

    objective = np.zeros(n_vars)
    objective[:n_b] = np.einsum("ij,jk,ik->i", bary, c.m2, bary) ** 2
    upper = np.full(n_vars, np.inf)
    upper[u] = inv_alpha
    upper[q:] = 1.0
    integrality = np.zeros(n_vars)
    integrality[q:] = 1
    res = milp(
        -objective,
        constraints=LinearConstraint(np.array(rows), lo, hi),
        integrality=integrality,
        bounds=Bounds(np.zeros(n_vars), upper),
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0
    return -res.fun


def test_milp_bound_matches_mccormick_reference(c_n3):
    # the root and four bisection levels of the N=3 instance, and an N=4 cell;
    # each of the six subcells is the only best one on some of these cells,
    # so a skipped block shows
    levels = [np.eye(3)[None]]
    for _ in range(4):
        levels.append(bb._bisect_cells(levels[-1]))
    rng = np.random.default_rng(4)
    mix = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    c4 = cm.build_comoments(cm.ReturnSample((rng.standard_t(6, (20_000, 4)) + rng.exponential(1.0, (20_000, 4))) @ mix))
    for cells, c in ((np.concatenate(levels), c_n3), (bb._bisect_cells(np.eye(4)[None])[1:], c4)):
        alpha = bb.alpha_floor(c)
        for ub, vertices in zip(cell_bounds(cells, c, alpha, "milp")[0], cells):
            assert ub == pytest.approx(mccormick_milp_bound(vertices, c, alpha), rel=1e-9, abs=0.0)


def simplex_value(f, a, alpha):
    """``subsolver._simplex`` on the two-row packing LPs max f'b s.t. a'b <= 1, alpha sum b <= 1, b >= 0."""
    rows = np.stack([a, np.full_like(a, alpha)], axis=1)
    x, _, unbounded = ss._simplex(f, rows, np.ones(rows.shape[:2]))
    assert not unbounded.any()
    return np.einsum("ki,ki->k", f, x)


def closed_form(f, a, alpha, pairs):
    """``_two_row_bound`` with RuntimeWarnings raised as errors; asserts that each
    winning b is feasible for both rows, up to the rounding of its terms."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value, columns, b = bb._two_row_bound(f, a, alpha, *pairs)
    terms = a[np.arange(b.shape[0])[:, None], columns] * b
    assert np.all(b >= 0.0)
    assert np.all(terms.sum(axis=1) <= 1.0 + 1e-12 * np.maximum(1.0, np.abs(terms).sum(axis=1)))
    assert np.all(alpha * b.sum(axis=1) <= 1.0 + 1e-12)
    return value


@st.composite
def two_row_lps(draw):
    """(f, a, alpha) of 1-4 two-row LPs over 1-7 columns: f >= 0 and a of both
    signs on grids (so values and cut coefficients tie), and alpha from 1e-12
    to 10, at times equal to a cut coefficient."""
    k, p = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    grid = lambda low, high: np.array(draw(st.lists(st.integers(low, high), min_size=k * p, max_size=k * p)))  # noqa: E731
    f = grid(0, 40).reshape(k, p) / 4.0
    a = grid(-40, 40).reshape(k, p) * 2.0 ** draw(st.integers(-9, 0))
    ties = a[(a > 0.0) & (a <= 10.0)]
    if ties.size and draw(st.booleans()):
        alpha = float(draw(st.sampled_from(ties.tolist())))
    else:
        alpha = 10.0 ** draw(st.floats(-12.0, 1.0))
    return f, a, alpha


@settings(max_examples=300, deadline=None)
@given(lp=two_row_lps())
@example(lp=(np.array([[1.0, 2.0, 3.0]]), np.array([[2.0, -1.0, 0.5]]), 1.0))  # the pair (0, 1) wins
@example(lp=(np.array([[2.0, 2.0]]), np.array([[1.0, 1.0]]), 1.0))  # every basis ties
def test_two_row_closed_form_is_the_simplex_optimum(lp):
    f, a, alpha = lp
    value = closed_form(f, a, alpha, bb._vertex_pairs(f.shape[1]))
    np.testing.assert_allclose(value, simplex_value(f, a, alpha), rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    floor=st.floats(min_value=-3.0, max_value=0.5),
)
def test_milp_closed_form_is_the_best_subcell_chain_lp(n, seed, floor):
    # the nested pairs of subsets are the bases of the m! chain LPs, so the
    # closed form is _best_blocks over the _subcell_chains chains; alpha runs
    # from slack at every column (1e-3 of the largest cut value) to binding at all
    rng = np.random.default_rng(seed)
    c = mixed_t_comoments(rng, n)
    vertices = rng.dirichlet(np.ones(n), size=(3, n))
    members, chains = bb._subcell_chains(n)
    cone = (members @ vertices) / members.sum(axis=1)[:, None]
    f = bb._vertex_objective(cone, c)
    cut = bb._cut_rows(cone, vertices.mean(axis=1)[:, None], c, 1.0)[:, 0]
    alpha = 10.0**floor * np.abs(cut).max()
    value = closed_form(f, cut, alpha, bb._nested_pairs(n))
    rows = np.stack([cut, np.full_like(cut, alpha)], axis=1)
    want = ss._best_blocks(f, rows, np.ones(rows.shape[:2]), chains)[0]
    np.testing.assert_allclose(value, want, rtol=1e-12, atol=0.0)
    assert cell_bounds(vertices, c, alpha, "milp")[0].tobytes() == value.tobytes()


def test_bound_is_tight_on_tiny_cell(c_n3):
    # the gap closes linearly with the cell diameter (the bound tracks the
    # cell max of h, which moves away from the center value at first order)
    w = np.array([0.2, 0.5, 0.3])
    alpha = bb.alpha_floor(c_n3)
    variance, _, mu4 = cm.portfolio_moments(w, c_n3)
    h_w = variance**2 / mu4
    gaps = []
    cells = np.stack([w[None, :] + eps * (np.eye(3) - w[None, :]) for eps in (1e-4, 1e-7)])
    for ub in cell_bounds(cells, c_n3, alpha, "lp1")[0]:
        assert ub >= h_w - 1e-12
        gaps.append(ub / h_w - 1.0)
    assert gaps[0] < 1e-3
    assert gaps[1] == pytest.approx(0.0, abs=1e-6)


def test_bound_requires_positive_alpha(c_n3):
    root = np.eye(3)[None]
    with pytest.raises(ValueError, match="alpha must be positive"):
        cell_bounds(root, c_n3, 0.0, "lp1")
    with pytest.raises(ValueError, match="alpha must be positive"):
        cell_bounds(root, c_n3, -1.0, "milp")


def test_milp_guard_on_large_cells():
    c = iid_comoments(7)
    with pytest.raises(ValueError, match="size guard"):
        cell_bounds(np.eye(7)[None], c, 1.0, "milp")
    assert [bb.bound_modes(n) for n in (1, 6, 7, 30)] == [bb.BOUND_MODES] * 2 + [("lp1", "lp2")] * 2


@pytest.mark.parametrize("n", [3, 4])
def test_bound_functions_are_the_stack_bound_of_one_cell(bound_instances, n):
    # the one-cell views that the benchmark's tracer patches: the bound and the
    # candidate (None where not valid) of _bound_cells on that cell, bit for bit
    c, alpha = bound_instances[n]
    views = {
        "lp1": lambda cell, n_c: bb.bound_lp1(cell, c, alpha),
        "lp2": lambda cell, n_c: bb.bound_lp2(cell, c, alpha, n_c),
        "milp": lambda cell, n_c: bb.bound_milp(cell, c, alpha),
    }
    for vertices in (np.eye(n), *bb._bisect_cells(bb._bisect_cells(np.eye(n)[None]))):
        cell = bb.SimplexCell(vertices, id=5)
        for mode, n_c in MODES:
            ub, candidate = views[mode](cell, n_c)
            (want_ub,), (w,), (ok,) = cell_bounds(vertices[None], c, alpha, mode, n_c)
            assert type(ub) is float and np.float64(ub).tobytes() == want_ub.tobytes()
            assert candidate.tobytes() == w.tobytes() if ok else candidate is None
    with pytest.raises(ValueError, match="n_c must be >= 1"):
        bb.bound_lp2(cell, c, alpha, 0)


def test_alpha_floor_below_the_pivot_tolerance_still_bounds_cells():
    # the nearly riskless n=5, seed=2214 universe of test_alpha_floor_is_a_true_floor:
    # a floor row alpha * sum b <= 1 with alpha below the simplex's pivot tolerance
    # was skipped by its ratio test, and the root LP came out unbounded
    c = mixed_t_comoments(np.random.default_rng(2214), 5)
    result = bb.solve(c, bb.BbConfig(max_iterations=20))
    assert 0.0 < result.alpha < ss._PIVOT_TOL
    assert result.status == "iteration_limit" and result.iterations == 20
    assert np.all(result.lower_bounds <= result.upper_bounds)


def hedged_comoments(noise: float) -> cm.CoMomentSet:
    """A long-only hedge: t(6) assets a and b, and c = -(a + b) + noise x N(0, 1), over 20,000 rows."""
    rng = np.random.default_rng(0)
    ab = rng.standard_t(6, (20_000, 2))
    hedge = -ab.sum(axis=1) + noise * rng.standard_normal(20_000)
    return cm.build_comoments(cm.ReturnSample(np.column_stack([ab, hedge])))


def test_nearly_riskless_hedge_is_certified():
    # the first descent's floor is below 0 (-5.4e-12) and the eigenvalue floor
    # (1e-14) is far below the pivot tolerance; the floor row still bounds every cell
    result = bb.solve(hedged_comoments(1e-3))
    assert result.status == "optimal"
    assert 0.0 < result.alpha < 1e-13
    assert result.kurtosis_lower_bounds[-1] <= result.kurtosis


def test_hedge_without_a_positive_floor_is_rejected():
    with pytest.raises(ValueError, match="no positive fourth-moment floor in double precision"):
        bb.solve(hedged_comoments(1e-4))


# ---------------------------------------------------------------------------
# solver


def test_config_validation():
    with pytest.raises(ValueError):
        bb.BbConfig(rho_tol=1.0)
    with pytest.raises(ValueError):
        bb.BbConfig(bound_mode="lp3")
    with pytest.raises(ValueError):
        bb.BbConfig(n_c=0)
    with pytest.raises(ValueError):
        bb.BbConfig(max_seconds=0.0)


def test_single_asset_is_trivial():
    c = iid_comoments(1, kurt=6.0)
    result = bb.solve(c)
    assert result.status == "optimal"
    assert result.iterations == 0
    assert np.array_equal(np.asarray(result.incumbent), np.array([1.0]))
    assert result.kurtosis == pytest.approx(6.0, rel=1e-12)
    assert result.fraction_deleted[-1] == 1.0
    # the root of a one-asset universe is a point, bounded and fathomed like any
    # root; on the sampled set its LP bound rounds above h at rho_tol 0
    sample = np.random.default_rng(0).standard_t(5, size=(1000, 1))
    for c in (c, cm.build_comoments(cm.ReturnSample(sample))):
        even = cm._even_moments(np.ones((1, 1)), c)
        h = float(even.variance[0] ** 2 / even.mu4[0])
        for mode, rho_tol in itertools.product(("lp1", "lp2", "milp"), (0.0, 1e-3)):
            result = bb.solve(c, bb.BbConfig(rho_tol=rho_tol, bound_mode=mode))
            # only lp2 runs the simplex; lp1 and milp bound the root in closed form
            pivots = 1 if mode == "lp2" else 0
            assert (result.status, result.iterations, result.rounds, result.lp_pivots) == ("optimal", 0, 0, pivots)
            # a root entry and a terminal entry, both at the point's value
            assert result.lower_bounds.tolist() == result.upper_bounds.tolist() == [h, h]
            assert result.fraction_deleted.tolist() == [1.0, 1.0]
            assert np.float64(result.incumbent_value).tobytes() == np.float64(h).tobytes()
            assert np.asarray(result.incumbent).tolist() == [1.0]


@pytest.mark.parametrize("mode,n_c", [("lp1", 1), ("lp2", 1), ("lp2", 3), ("milp", 1)])
def test_iid_pair_optimum_is_equal_weight(c2_iid, mode, n_c):
    cfg = bb.BbConfig(rho_tol=1e-4, bound_mode=mode, n_c=n_c)
    result = bb.solve(c2_iid, cfg)
    assert result.status == "optimal"
    assert np.allclose(np.asarray(result.incumbent), [0.5, 0.5], atol=1e-3)
    assert result.kurtosis == pytest.approx(4.5, rel=1e-4)


def test_solve_histories_and_certificate(c_n3):
    cfg = bb.BbConfig(rho_tol=1e-2, bound_mode="lp2", n_c=1)
    result = bb.solve(c_n3, cfg)
    assert result.status == "optimal"
    # init row + one per iteration + terminal row
    assert len(result.lower_bounds) == result.iterations + 2
    assert np.all(np.diff(result.lower_bounds) >= 0.0)
    assert np.all(np.diff(result.upper_bounds) <= 0.0)
    assert (1.0 - cfg.rho_tol) * result.upper_bounds[-1] <= result.lower_bounds[-1] + 1e-15
    assert result.fraction_deleted[-1] == 1.0
    assert np.all((result.fraction_deleted >= 0.0) & (result.fraction_deleted <= 1.0))
    # kurtosis-space views are the inverses, in matching order
    assert np.allclose(result.kurtosis_lower_bounds, 1.0 / result.upper_bounds)
    assert result.kurtosis == pytest.approx(1.0 / result.incumbent_value, rel=1e-15)
    w = np.asarray(result.incumbent)
    assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)


def test_solve_matches_grid_oracle(c_n3):
    cfg = bb.BbConfig(rho_tol=1e-3, bound_mode="lp2", n_c=1)
    result = bb.solve(c_n3, cfg)
    grid_min_kurt = 1.0 / grid_max_h(c_n3, np.eye(3), step=EW_GRID_STEP)
    assert result.kurtosis <= grid_min_kurt * (1.0 + cfg.rho_tol + 1e-9)


def test_solve_is_deterministic(c_n3):
    cfg = bb.BbConfig(rho_tol=1e-2)
    a = bb.solve(c_n3, cfg)
    b = bb.solve(c_n3, cfg)
    assert np.array_equal(a.lower_bounds, b.lower_bounds)
    assert np.array_equal(a.upper_bounds, b.upper_bounds)
    assert np.array_equal(np.asarray(a.incumbent), np.asarray(b.incumbent))
    assert a.iterations == b.iterations and a.cells_fathomed == b.cells_fathomed


def test_solve_does_not_depend_on_the_units_of_the_returns():
    # a 3-asset t(6) panel at rho = -0.2; in units 2^-8 the LP tolerances
    # once met coefficients of order 2^-32 and certified 3.879 after 0 iterations
    rng = np.random.default_rng(3)
    corr = np.full((3, 3), -0.2)
    np.fill_diagonal(corr, 1.0)
    panel = rng.standard_t(6, size=(20_000, 3)) @ np.linalg.cholesky(corr).T
    results = {j: bb.solve(cm.build_comoments(cm.ReturnSample(np.ldexp(panel, j)))) for j in (-12, -4, 0, 6)}
    unit = results[0]
    assert unit.status == "optimal" and unit.iterations > 100
    for j, result in results.items():
        assert (result.status, result.iterations, result.rounds, result.lp_pivots) == (
            unit.status, unit.iterations, unit.rounds, unit.lp_pivots
        )
        assert result.lower_bounds.tobytes() == unit.lower_bounds.tobytes()
        assert result.upper_bounds.tobytes() == unit.upper_bounds.tobytes()
        assert np.asarray(result.incumbent).tobytes() == np.asarray(unit.incumbent).tobytes()
        assert result.kurtosis == unit.kurtosis
        # alpha floors mu4, which is in the returns' units to the fourth power
        assert result.alpha == math.ldexp(unit.alpha, 4 * j)


def test_fathomed_cells_never_hide_the_optimum(c_n3):
    # audit: inside every fathomed cell, a grid search stays below the
    # fathoming threshold LB / (1 - rho_tol)
    cfg = bb.BbConfig(rho_tol=1e-2, collect_cells=True)
    result = bb.solve(c_n3, cfg)
    assert result.fathomed_cells
    assert not result.live_cells  # everything is deleted on optimal exit
    for cell, lb_at_deletion in result.fathomed_cells:
        cell_max = grid_max_h(c_n3, cell.vertices, step=0.1)
        assert cell_max <= lb_at_deletion / (1.0 - cfg.rho_tol) + 1e-9


def test_lp1_needs_more_iterations_than_lp2(c_n3):
    lp1 = bb.solve(c_n3, bb.BbConfig(rho_tol=1e-3, bound_mode="lp1"))
    lp2 = bb.solve(c_n3, bb.BbConfig(rho_tol=1e-3, bound_mode="lp2", n_c=1))
    assert lp2.iterations < lp1.iterations
    assert lp1.kurtosis == pytest.approx(lp2.kurtosis, rel=2e-3)


@pytest.fixture(scope="module")
def relabel_panels():
    """Fixed N=3 and N=4 panels (rho = -0.2, kurtosis 6, T = 2e4, seed 11) whose columns get relabelled."""
    return {n: rs.sample_meta_gaussian(homogeneous_spec(n, -0.2), 20_000, seed=11).values for n in (3, 4)}


#: (N, bound mode, n_c, rho_tol) of the relabelling runs; rho_tol 1e-6 leaves
#: a relative margin of about 8e-7 between the orders' bounds and kurtoses
RELABEL_RUNS = [
    (3, "lp1", 1, 1e-3),
    (3, "lp2", 1, 1e-3),
    (3, "lp2", 2, 1e-3),
    (3, "milp", 1, 1e-3),
    (4, "lp2", 1, 1e-3),
    (3, "lp2", 1, 1e-6),
]


@settings(max_examples=30, deadline=None)
@given(
    run_and_orders=st.sampled_from(RELABEL_RUNS).flatmap(
        lambda run: st.tuples(st.just(run), st.lists(st.permutations(range(run[0])), min_size=1, max_size=3))
    )
)
def test_asset_order_changes_no_certificate(relabel_panels, run_and_orders):
    # the minimal kurtosis does not depend on the order of the assets, so no
    # order's certified lower bound may exceed any order's incumbent kurtosis
    (n, mode, n_c, rho_tol), orders = run_and_orders
    cfg = bb.BbConfig(rho_tol=rho_tol, bound_mode=mode, n_c=n_c)
    panel = relabel_panels[n]
    results = [bb.solve(cm.build_comoments(cm.ReturnSample(panel[:, order])), cfg) for order in [range(n), *orders]]
    assert {result.status for result in results} == {"optimal"}
    assert max(result.kurtosis_lower_bounds[-1] for result in results) <= min(result.kurtosis for result in results)


def test_iteration_limit_status(c_n3):
    result = bb.solve(c_n3, bb.BbConfig(rho_tol=1e-6, max_iterations=3))
    assert result.status == "iteration_limit"
    assert result.iterations == 3
    w = np.asarray(result.incumbent)
    assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)
    # the gap is honest: bounds still bracket the unknown optimum
    assert result.lower_bounds[-1] <= result.upper_bounds[-1]


def test_time_limit_status(c_n3):
    result = bb.solve(c_n3, bb.BbConfig(rho_tol=1e-9, max_seconds=1e-9))
    assert (result.status, result.iterations) == ("time_limit", 0)
    histories = (result.lower_bounds, result.upper_bounds, result.fraction_deleted)
    assert [h.size for h in histories] == [2, 2, 2]  # the root row and the row at the stopping test
    assert result.lower_bounds[-1] <= result.upper_bounds[-1]


def reference_best_first(c, cfg):
    """One cell per iteration, each bisected and bounded as a stack of one:
    bisect the best live cell, bound both children (capped at the parent's
    bound), score their LP candidates and barycenters, fathom, record one
    history row.  Cells are numbered in creation order.
    Returns (iterations, cells created, cells fathomed, (lb, ub, fraction) rows)."""
    alpha = bb.alpha_floor(c)
    shrink = 1.0 - cfg.rho_tol
    lb, created, fathomed, iterations = -math.inf, 0, 0, 0
    heap, deletions, live, history = [], [], set(), []

    def evaluate(vertices, cap):
        nonlocal lb, created
        (ub,), (candidate,), (ok,) = cell_bounds(vertices[None], c, alpha, cfg.bound_mode, cfg.n_c, created)
        ub = min(float(ub), cap)
        center = vertices.mean(axis=0)
        points = np.array([candidate, center] if ok else [center])
        variance, _, mu4 = cm.batch_moments(points, c)
        lb = max(lb, float(np.max(variance**2 / mu4)))
        heapq.heappush(heap, (-ub, created, vertices))
        heapq.heappush(deletions, (ub, created))
        live.add(created)
        created += 1

    def fathom_and_record():
        nonlocal fathomed
        while deletions and shrink * deletions[0][0] <= lb:
            cell_id = heapq.heappop(deletions)[1]
            if cell_id in live:
                live.remove(cell_id)
                fathomed += 1
        history.append((lb, -heap[0][0], fathomed / (fathomed + len(live))))

    evaluate(np.eye(c.n_assets), math.inf)
    fathom_and_record()
    while shrink * -heap[0][0] > lb:
        neg_ub, parent_id, parent = heapq.heappop(heap)
        live.remove(parent_id)
        iterations += 1
        for child in bb._bisect_cells(parent[None]):
            evaluate(child, -neg_ub)
        fathom_and_record()
    fathom_and_record()
    return iterations, created, fathomed, np.array(history)


def force_width(mp, width):
    """Make ``solve`` bisect up to ``width`` cells per round."""
    mp.setattr(bb, "_round_cells", lambda n, mode, n_c: width)


@pytest.mark.parametrize("mode,n_c", [("lp1", 1), ("lp2", 2), ("milp", 1)])
def test_one_cell_frontier_is_the_best_first_loop(c_n3, monkeypatch, mode, n_c):
    cfg = bb.BbConfig(rho_tol=1e-2, bound_mode=mode, n_c=n_c)
    force_width(monkeypatch, 1)
    result = bb.solve(c_n3, cfg)
    iterations, created, fathomed, history = reference_best_first(c_n3, cfg)
    assert (result.iterations, result.cells_created, result.cells_fathomed) == (iterations, created, fathomed)
    assert result.rounds == iterations
    np.testing.assert_allclose(result.lower_bounds, history[:, 0], rtol=1e-12)
    np.testing.assert_allclose(result.upper_bounds, history[:, 1], rtol=1e-12)
    np.testing.assert_array_equal(result.fraction_deleted, history[:, 2])


def test_frontier_width_keeps_the_certificate(c_n3, monkeypatch):
    # one cell per round is the plain best-first loop; the default frontier
    # bisects many cells per round and must certify the same optimum
    cfg = bb.BbConfig(rho_tol=1e-3, bound_mode="lp2", n_c=1)
    wide = bb.solve(c_n3, cfg)
    force_width(monkeypatch, 1)
    narrow = bb.solve(c_n3, cfg)
    for result in (wide, narrow):
        assert result.status == "optimal"
        assert (1.0 - cfg.rho_tol) * result.upper_bounds[-1] <= result.lower_bounds[-1]
        assert len(result.lower_bounds) == result.iterations + 2
        assert np.all(np.diff(result.upper_bounds) <= 0.0)
        assert result.lp_pivots > 0
    assert narrow.rounds == narrow.iterations
    assert wide.rounds < wide.iterations
    assert abs(wide.kurtosis - narrow.kurtosis) <= cfg.rho_tol * narrow.kurtosis


class _Stacked(Exception):
    pass


#: _round_cells of lp1 (n_c 1 and 4) and milp at N = 1..6, by budget: the widths of their two-row
#: LP stacks (one LP a cell, N! for milp), kept so that their rounds stay comparable
CLOSED_FORM_WIDTHS = {
    ("lp1", None): [5461, 5461, 4369, 4369, 3640, 3640, 3120, 3120, 2730, 2730, 2427, 2427],
    ("milp", None): [5461, 5461, 2184, 2184, 606, 606, 130, 130, 22, 22, 3, 3],
    ("lp1", 4096): [21, 21, 17, 17, 14, 14, 12, 12, 10, 10, 9, 9],
    ("milp", 4096): [21, 21, 8, 8, 2, 2, 1, 1, 1, 1, 1, 1],
}


@pytest.mark.parametrize("budget", [None, 4096])
@pytest.mark.parametrize("mode", bb.BOUND_MODES)
def test_round_width_keeps_the_lp_stack_within_its_budget(monkeypatch, mode, budget):
    # lp2: the rule against the tableaux that _simplex allocates for a round's
    # children; lp1 and milp, bounded in closed form, keep their pinned widths
    if budget is not None:
        monkeypatch.setattr(bb, "_ROUND_LP_BYTES", budget)
    if mode != "lp2":
        widths = [bb._round_cells(n, mode, n_c) for n in range(1, 7) for n_c in (1, 4)]
        assert widths == CLOSED_FORM_WIDTHS[mode, budget]
        return
    budget = bb._ROUND_LP_BYTES

    def stack_bytes(c, cells):
        def record(objective, a, b):
            lps, rows, cols = a.shape
            raise _Stacked(lps * 8 * (rows + 1) * (cols + rows + 1))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bb, "_simplex", record)
            vertices = np.repeat(np.eye(c.n_assets)[None], 2 * cells, axis=0)
            with pytest.raises(_Stacked) as stacked:
                bb._bound_cells(vertices, vertices.mean(axis=1), c, 0.1, mode, n_c, 0)
        return stacked.value.args[0]

    for n in range(2, 7):
        c = iid_comoments(n)
        for n_c in range(1, 5):
            width = bb._round_cells(n, mode, n_c)
            assert width >= 1
            assert stack_bytes(c, width) <= budget or width == 1
            assert stack_bytes(c, width + 1) > budget


def test_stalled_cell_lp_names_its_cell(c_n3, monkeypatch):
    def stall(c, a, b):
        raise ss._Breakdown(a.shape[0] - 1, 4000)

    monkeypatch.setattr(bb, "_simplex", stall)
    alpha = bb.alpha_floor(c_n3)
    cell = np.eye(3)[None]
    with pytest.raises(ss._Breakdown, match=r"cell 7 with vertices \[\[1\.0, 0\.0, 0\.0\]") as err:
        cell_bounds(cell, c_n3, alpha, "lp2", 1, first_id=7)
    assert err.value.cap == 4000
    with pytest.raises(ss._Breakdown, match="cell 0 "):
        bb.solve(c_n3)


def test_milp_mode_solves_small_instance(c2_iid):
    result = bb.solve(c2_iid, bb.BbConfig(rho_tol=1e-3, bound_mode="milp"))
    assert result.status == "optimal"
    assert result.kurtosis == pytest.approx(4.5, rel=1e-3)


# ---------------------------------------------------------------------------
# the array-backed frontier against the heap loop it replaced


def assert_same_result(got, want):
    """Every field of two results equal bit for bit, cell lists in order."""
    for name in ("status", "iterations", "cells_created", "cells_fathomed", "lp_pivots", "rounds", "max_depth"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("incumbent_value", "alpha"):
        assert np.float64(getattr(got, name)).tobytes() == np.float64(getattr(want, name)).tobytes(), name
    for name in ("lower_bounds", "upper_bounds", "fraction_deleted", "live_cells_per_round"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert np.asarray(got.incumbent).tobytes() == np.asarray(want.incumbent).tobytes()
    assert len(got.fathomed_cells) == len(want.fathomed_cells)
    pairs = [(a, b, la, lb) for (a, la), (b, lb) in zip(got.fathomed_cells, want.fathomed_cells)]
    pairs += [(a, b, 0.0, 0.0) for a, b in zip(got.live_cells, want.live_cells)]
    assert len(got.live_cells) == len(want.live_cells)
    for a, b, la, lb in pairs:
        assert (a.id, a.depth, a.upper_bound, la) == (b.id, b.depth, b.upper_bound, lb)
        assert a.vertices.tobytes() == b.vertices.tobytes()


def array_and_heap_loops(c, cfg, frontier):
    """``solve`` at ``frontier`` cells per round (None: the default width) and the heap loop at that width."""
    with pytest.MonkeyPatch.context() as mp:
        if frontier is None:
            frontier = bb._round_cells(c.n_assets, cfg.bound_mode, cfg.n_c)
        else:
            force_width(mp, frontier)
        got = bb.solve(c, cfg)
    return got, heap_solve(c, cfg, frontier)


@pytest.mark.parametrize("frontier", [1, 3, 128])
@pytest.mark.parametrize("mode,n_c", [("lp1", 1), ("lp2", 1), ("lp2", 2), ("milp", 1)])
def test_array_frontier_matches_the_heap_loop(c_n3, mode, n_c, frontier):
    # 77 iterations stop the round in progress at every width: 77 is no
    # multiple of 3, and at 128 the sixth round would take 128 > 77 - 63
    for max_iterations in (1_000_000, 77):
        for collect_cells in (False, True):
            cfg = bb.BbConfig(
                rho_tol=1e-3, bound_mode=mode, n_c=n_c, max_iterations=max_iterations, collect_cells=collect_cells
            )
            got, want = array_and_heap_loops(c_n3, cfg, frontier)
            assert want.status == ("optimal" if max_iterations > 77 else "iteration_limit")
            assert_same_result(got, want)
            if collect_cells:
                assert got.fathomed_cells or got.live_cells


@pytest.mark.parametrize("frontier", [5, 128, None])
@pytest.mark.parametrize("n, rho_tol, iterations", [(4, 1e-3, range(1000, 10**6)), (3, 0.9, [0])])
def test_array_frontier_matches_the_heap_loop_on_more_instances(bound_instances, n, rho_tol, iterations, frontier):
    # N=4 takes thousands of bisections; on the iid N=3 set at rho_tol 0.9
    # the root's own candidates fathom the root.  At the default width
    # (frontier None) N=4 also runs milp: lp2's rounds stay below its width
    # of 851 cells (538 live at most), while milp's 130 binds
    c = bound_instances[4][0] if n == 4 else iid_comoments(3)
    modes = ["lp2", "milp"] if frontier is None and n == 4 else ["lp2"]
    for mode in modes:
        cfg = bb.BbConfig(rho_tol=rho_tol, bound_mode=mode, n_c=1, collect_cells=True)
        got, want = array_and_heap_loops(c, cfg, frontier)
        assert want.status == "optimal" and want.iterations in iterations
        assert_same_result(got, want)
    if frontier is None and n == 4:  # got is milp's result
        assert got.live_cells_per_round.max() > bb._round_cells(n, "milp", 1)


@settings(max_examples=25, deadline=None)
@given(
    rho_tol=st.floats(min_value=1e-3, max_value=1e-1),
    frontier=st.integers(min_value=1, max_value=8),
    mode=st.sampled_from([("lp1", 1), ("lp2", 1), ("lp2", 3), ("milp", 1)]),
    max_iterations=st.integers(min_value=1, max_value=400),
)
def test_array_frontier_matches_the_heap_loop_property(c_n3, rho_tol, frontier, mode, max_iterations):
    cfg = bb.BbConfig(
        rho_tol=rho_tol, bound_mode=mode[0], n_c=mode[1], max_iterations=max_iterations, collect_cells=True
    )
    assert_same_result(*array_and_heap_loops(c_n3, cfg, frontier))


def test_alpha_is_computed_once_per_set(c_n3, monkeypatch):
    calls = []
    floor = bb.alpha_floor
    monkeypatch.setattr(bb, "alpha_floor", lambda c: calls.append(c) or floor(c))
    fresh = dataclasses.replace(c_n3)
    alphas = {bb.solve(fresh, bb.BbConfig(rho_tol=1e-2, bound_mode=mode)).alpha for mode in ("lp1", "lp2", "milp")}
    assert alphas == {floor(c_n3)} and calls == [fresh]
    copy = dataclasses.replace(fresh)
    bb.solve(copy, bb.BbConfig(rho_tol=1e-2))
    assert calls == [fresh, copy]
    # in units 2^-4 the solves search one rescaled set, so its floor is computed once too
    j = -4
    scaled = dataclasses.replace(
        fresh,
        mean=np.ldexp(fresh.mean, j),
        m2=np.ldexp(fresh.m2, 2 * j),
        m3_unique=np.ldexp(fresh.m3_unique, 3 * j),
        m4_unique=np.ldexp(fresh.m4_unique, 4 * j),
    )
    alphas = {bb.solve(scaled, bb.BbConfig(rho_tol=1e-2, bound_mode=mode)).alpha for mode in ("lp1", "lp2", "milp")}
    assert alphas == {math.ldexp(floor(c_n3), 4 * j)} and len(calls) == 3


@pytest.mark.parametrize("scale", [1.0, 0.01])
def test_alpha_cache_keeps_no_set_alive(sample_n3, scale, monkeypatch):
    monkeypatch.setattr(bb, "_ALPHAS", weakref.WeakKeyDictionary())
    c = cm.build_comoments(cm.ReturnSample(sample_n3.values * scale))
    assert cm.unit_scaled(c)[1] == (0 if scale == 1.0 else -7)  # variance near 2^-13
    bb.solve(c, bb.BbConfig(rho_tol=1e-2))
    assert list(bb._ALPHAS.keys()) == [c]
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None and not bb._ALPHAS
