"""Deterministic branch-and-bound for globally minimal portfolio kurtosis.

Minimizing kurtosis mu4/var^2 over the weight simplex is equivalent to
maximizing h(w) = (w'M2 w)^2 / w'M4(w (x) w (x) w), a ratio of two convex
quartics.  The solver partitions the simplex into cells, bounds h on each
cell from above by a linear (or mixed-integer linear) program, and bisects
the cells with the largest bounds until the incumbent is provably within a
relative tolerance of the global optimum.

Three bounding modes are available, in increasing tightness and cost:

``lp1``
    Affine concave envelope of the numerator over the cell plus a single
    tangent-plane underestimate of the denominator at the cell barycenter.
``lp2``
    As ``lp1`` with additional tangent planes at ``n_c`` points per asset
    spread between the vertices and the barycenter.
``milp``
    Piecewise envelope over the full barycentric subdivision of the cell
    under the ``lp1`` cut: the best of the m! subcell LPs, one per subcell
    (factorial in the asset count; intended for small baskets).  This is
    the disjunctive program that an SOS1 MILP over the subcells describes.

All bounds are assembled in the cone coordinates b with y = sum b_i v^i,
u = sum b_i and w = y/u, which turns the ratio bound into a packing LP:
max f'b s.t. A b <= 1, b >= 0, whose origin is feasible.

The solver works in rounds over a frontier of cells.  The live cells are
held in arrays (vertices, bound, depth, id) sorted best first by
(-bound, id), so each round's parents are the first rows, up to
``_round_cells`` of them: as many as keep the float64 tableaux of their
children's LPs within ``_ROUND_LP_BYTES``, a width set once per solve.
The round bisects them all at once and bounds the children together: one
moment-kernel call for the gradients at all their cut anchors, one
lockstep simplex over the stack of their packing LPs, and one
moment-kernel call for h at all their LP candidates and barycenters.
These kernel calls are per round, not per cell.  The children are then
applied with array operations, with the outcome of applying them parent
by parent in order: one history row per parent, the lower bound a running
max of the parents' scores, the step that fathoms each cell a binary
search of its bound in those lower bounds, and one stable merge of the
survivors with the children.
So with a frontier of one cell this is the plain best-first loop.  A
wider frontier can only bisect a cell early that best-first would bisect
later, or one that the lower bound reaches during the round; the
certificate rule is the same.

With the ``portdim.bbsolve`` logger at DEBUG, each round logs the cells it
bisected, the live cells after it, the iterations so far and the certified
kurtosis bounds; nothing is formatted when that level is off.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
import weakref
from dataclasses import dataclass

import numpy as np

from .comoments import (
    CoMomentSet,
    Weights,
    _check_counts,
    _even_moments,
    moment_derivatives,
    portfolio_moments,
    unit_scaled,
)
from .gld import _projected_descent
# solve_lp and solve_milp are the one-problem cases of the stack solver, re-exported here
from .subsolver import _best_blocks, _Breakdown, solve_lp, solve_milp  # noqa: F401

__all__ = [
    "SimplexCell",
    "BOUND_MODES",
    "bound_modes",
    "BbConfig",
    "BbResult",
    "bisect",
    "alpha_floor",
    "bound_lp1",
    "bound_lp2",
    "bound_milp",
    "solve",
]

_DEGENERATE_EDGE = 1e-12
_MAX_ENVELOPE_VERTICES = 6  # m! subcells: the milp bound solves one LP per subcell
BOUND_MODES = ("lp1", "lp2", "milp")  # the cell bounds of the module docstring, for BbConfig.bound_mode
#: bytes of the float64 tableaux of one round's LP stack, which sets the cells bisected per round
_ROUND_LP_BYTES = 1 << 20
_ALPHA_GRAD_TOL = 1e-10
_ALPHA_MAX_ITER = 100_000
_CANDIDATE_U_TOL = 1e-12

_log = logging.getLogger(__name__)


def bound_modes(n_assets: int) -> tuple[str, ...]:
    """The modes of ``BOUND_MODES`` that can bound an ``n_assets``-asset universe:
    ``milp`` solves N! subcell LPs per cell, so it stops at N = 6."""
    return tuple(mode for mode in BOUND_MODES if mode != "milp" or n_assets <= _MAX_ENVELOPE_VERTICES)


@dataclass(frozen=True)
class SimplexCell:
    """A full-dimensional cell of the simplex partition.

    ``vertices`` has one vertex per row; rows live on the weight simplex.
    ``upper_bound`` is the cell's bound on h (set after the bounding step;
    ``inf`` until then), ``id`` the global creation index used to break
    best-first ties deterministically.
    """

    vertices: np.ndarray
    upper_bound: float = math.inf
    depth: int = 0
    id: int = 0

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"cell needs N vertices of dimension N, got shape {v.shape}")
        object.__setattr__(self, "vertices", v)


@dataclass(frozen=True)
class BbConfig:
    """Branch-and-bound settings.

    ``rho_tol`` is the relative optimality gap: the solver stops once
    ``(1 - rho_tol) * UB <= LB`` in h-space.  ``bound_mode`` picks the cell
    bound, one of ``BOUND_MODES``; ``n_c`` is the tangent-plane count per
    asset used by 'lp2'.
    """

    rho_tol: float = 1e-3
    bound_mode: str = "lp2"
    n_c: int = 1
    max_iterations: int = 1_000_000
    max_seconds: float = math.inf
    collect_cells: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho_tol < 1.0:
            raise ValueError(f"rho_tol must lie in [0, 1), got {self.rho_tol}")
        if self.bound_mode not in BOUND_MODES:
            raise ValueError(f"unknown bound_mode {self.bound_mode!r}")
        _check_counts(("n_c", self.n_c, 1), ("max_iterations", self.max_iterations, 0))
        if not self.max_seconds > 0:
            raise ValueError("max_seconds must be positive")


@dataclass(frozen=True)
class BbResult:
    """Solver output.

    Histories have one entry for the root bound, one per iteration, and a
    terminal entry recording the state at the stopping test; ``lower_bounds``
    is nondecreasing and ``upper_bounds`` nonincreasing, both in h-space.
    ``fraction_deleted`` counts fathomed cells against fathomed-plus-live.
    ``fathomed_cells`` holds ``(cell, lb_at_deletion)`` pairs and
    ``live_cells`` the surviving cells, both only when configured.
    ``iterations`` counts bisected cells, ``rounds`` the frontier rounds
    that bisected them, and ``lp_pivots`` the simplex pivots of every cell
    LP (of every subcell LP in ``milp`` mode).  ``max_depth`` is the
    deepest bisection reached and ``live_cells_per_round`` the live count
    at the start of each round.
    """

    incumbent: Weights
    incumbent_value: float
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    fraction_deleted: np.ndarray
    iterations: int
    cells_created: int
    cells_fathomed: int
    lp_pivots: int
    rounds: int
    status: str
    alpha: float
    max_depth: int
    live_cells_per_round: np.ndarray
    fathomed_cells: tuple[tuple[SimplexCell, float], ...] = ()
    live_cells: tuple[SimplexCell, ...] = ()

    @property
    def kurtosis(self) -> float:
        return 1.0 / self.incumbent_value

    @property
    def kurtosis_lower_bounds(self) -> np.ndarray:
        """Certified lower bounds on the minimal kurtosis (inverse of h upper bounds)."""
        return 1.0 / self.upper_bounds

    @property
    def kurtosis_upper_bounds(self) -> np.ndarray:
        return 1.0 / self.lower_bounds


# ---------------------------------------------------------------------------
# subdivision


@functools.cache
def _vertex_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All vertex pairs (i, j), i < j, in lexicographic order."""
    return np.triu_indices(m, 1)


def _longest_edges(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Longest vertex pair of each cell of a (K, m, N) stack.

    Returns the arrays (i, j, length); edge-length ties go to the smallest
    (i, j) in lexicographic order.
    """
    first, second = _vertex_pairs(vertices.shape[1])
    edges = vertices[:, first] - vertices[:, second]
    lengths = np.sqrt((edges * edges).sum(axis=2))
    pair = lengths.argmax(axis=1)
    return first[pair], second[pair], lengths[np.arange(pair.size), pair]


def _bisect_cells(vertices: np.ndarray) -> np.ndarray:
    """Children of each cell of a (K, m, N) stack, split at the midpoint of its
    longest edge; the children of cell k are rows 2k and 2k + 1 of the result.
    """
    i, j, length = _longest_edges(vertices)
    if np.any(length < _DEGENERATE_EDGE):
        raise ValueError(f"degenerate cell: longest edge {length.min():.3e}")
    k = np.arange(vertices.shape[0])
    mid = 0.5 * (vertices[k, i] + vertices[k, j])
    children = np.repeat(vertices, 2, axis=0)
    children[2 * k, i] = mid
    children[2 * k + 1, j] = mid
    return children


def bisect(cell: SimplexCell, first_child_id: int = 0) -> tuple[SimplexCell, SimplexCell]:
    """Split a cell at the midpoint of its longest edge.

    Each child replaces one endpoint of that edge by the midpoint, so the
    two children tile the parent.  Edge-length ties go to the smallest
    vertex-index pair.
    """
    first, second = _bisect_cells(cell.vertices[None])
    depth = cell.depth + 1
    return (
        SimplexCell(first, depth=depth, id=first_child_id),
        SimplexCell(second, depth=depth, id=first_child_id + 1),
    )


# ---------------------------------------------------------------------------
# bounding subproblems


def alpha_floor(c: CoMomentSet) -> float:
    """A floor of the fourth moment g over the simplex, proven up to the
    rounding of g and its gradient.

    g is convex, so at any simplex point w its minimum is at least
    g(w) - (grad g(w)'w - min_i grad g(w)_i): the Frank-Wolfe duality gap
    (Jaggi 2013) bounds the distance to the optimum.  w is the endpoint of
    a projected-gradient descent from the barycenter, where that gap is
    small, but the bound holds whether or not the descent converged.

    Where that is not positive (a nearly riskless universe), the floor is (lambda_min -
    n_p eps lambda_max) / N^2 of G = ``m4_gram``, with Weyl's margin for ``eigvalsh``: g = v'Gv
    >= lambda_min |v|^2 for the pair products v of w, |v|^2 >= 1/N^2.  ValueError if that is <= 0.
    """
    w, mu4, _ = _projected_descent(
        lambda v: portfolio_moments(v, c).mu4,
        lambda v: moment_derivatives(v, c).grad_mu4,
        np.full(c.n_assets, 1.0 / c.n_assets),
        grad_tol=_ALPHA_GRAD_TOL,
        max_iter=_ALPHA_MAX_ITER,
    )
    grad = moment_derivatives(w, c).grad_mu4
    floor = mu4 - max(0.0, float(grad @ w - grad.min()))
    if floor > 0.0:
        return floor
    eig = np.linalg.eigvalsh(c.m4_gram)
    floor = float(eig[0] - eig.size * np.finfo(float).eps * eig[-1]) / c.n_assets**2
    if not floor > 0.0:
        raise ValueError("co-moments have no positive fourth-moment floor in double precision")
    return floor


#: The alpha_floor of ``unit_scaled`` of each co-moment set that ``solve``
#: has seen, so that solves of one set under several modes run the descent once.
_ALPHAS: weakref.WeakKeyDictionary[CoMomentSet, float] = weakref.WeakKeyDictionary()


def _cut_points(vertices: np.ndarray, center: np.ndarray, n_c: int) -> np.ndarray:
    """Tangent-plane anchor points of each cell of a (K, m, N) stack with
    (K, N) barycenters ``center``, as a (K, m n_c, N) stack: the vertices,
    plus for n_c >= 2 the points (j/n_c) v^i + (1 - j/n_c) barycenter,
    j = 1..n_c-1."""
    pieces = [vertices]
    for j in range(1, n_c):
        frac = j / n_c
        pieces.append(frac * vertices + (1.0 - frac) * center[:, None])
    return np.concatenate(pieces, axis=1)


def _vertex_objective(vertices: np.ndarray, c: CoMomentSet) -> np.ndarray:
    """f(v) = (v'M2 v)^2 at each vertex (the envelope values), over any leading axes."""
    quad = np.einsum("...ij,jk,...ik->...i", vertices, c.m2, vertices)
    return quad**2


def _cut_rows(vertices: np.ndarray, anchors: np.ndarray, c: CoMomentSet, alpha: float) -> np.ndarray:
    """Packing rows in b of the tangent-plane cuts, plus the fourth-moment floor.

    For anchor R the cut u*(g(R) + grad g(R)'(y/u - R)) <= 1 on the
    perspective of g becomes sum_i b_i (grad'v^i + g(R) - grad'R) <= 1
    after y = sum_i b_i v^i and u = sum_i b_i; the floor u <= 1/alpha
    becomes the last row, alpha * sum_i b_i <= 1.  Every right-hand side is 1.
    Leading axes of ``vertices`` and ``anchors`` index cells; all anchors go
    through one moment-kernel call.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    grads = _even_moments(anchors.reshape(-1, anchors.shape[-1]), c).grad_mu4.reshape(anchors.shape)
    rows = np.empty(anchors.shape[:-2] + (anchors.shape[-2] + 1, vertices.shape[-2]))
    # g(R) - grad'R, where g(R) = grad'R / 4 by Euler's identity
    offset = 0.75 * np.einsum("...ki,...ki->...k", grads, anchors)[..., None]
    rows[..., :-1, :] = grads @ vertices.swapaxes(-1, -2) - offset
    rows[..., -1, :] = alpha
    return rows


def _candidates(cone_vertices: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover w = y/u from the cone coordinates of each cell of a stack.

    ``cone_vertices`` is (K, p, N) and ``b`` (K, p).  Returns (w, ok); ok is
    False where u = sum b or the clipped point is numerically zero, and w
    is then meaningless.
    """
    u = b.sum(axis=1)
    ok = u > _CANDIDATE_U_TOL
    w = np.einsum("kp,kpi->ki", b, cone_vertices) / np.where(ok, u, 1.0)[:, None]
    w = np.clip(w, 0.0, None)
    total = w.sum(axis=1)
    ok &= total > 0.0
    return w / np.where(ok, total, 1.0)[:, None], ok


@functools.cache
def _subcell_chains(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex subsets and barycentric subcells of an m-vertex cell.

    Returns (members, chains): ``members`` (S, m) has the weight 1 on each
    subset's vertices, one row per nonempty subset; ``chains`` (m!, m)
    lists, for each vertex permutation, the subsets of its prefixes.
    """
    subsets = [frozenset(combo) for size in range(1, m + 1) for combo in itertools.combinations(range(m), size)]
    index = {s: k for k, s in enumerate(subsets)}
    members = np.zeros((len(subsets), m))
    for k, s in enumerate(subsets):
        members[k, sorted(s)] = 1.0
    chains = np.array(
        [[index[frozenset(perm[: k + 1])] for k in range(m)] for perm in itertools.permutations(range(m))]
    )
    return members, chains


def _bound_cells(
    vertices: np.ndarray, center: np.ndarray, c: CoMomentSet, alpha: float, mode: str, n_c: int, first_id: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Bound h on each cell of a (K, m, N) stack with (K, N) barycenters
    ``center``, all LPs in one lockstep stack.

    The lp1/lp2 LP of a cell is its one column block; the milp bound's
    blocks are the m! subcell chains.  The cells carry the ids first_id,
    first_id + 1, ... for error messages.  Returns (ub, w, ok, pivots):
    the bounds, the LP candidates with their validity (see ``_candidates``)
    and the pivots of all the LPs.
    """
    m = vertices.shape[1]
    if mode not in bound_modes(m):
        raise ValueError(f"piecewise envelope of a {m}-vertex cell exceeds the size guard")
    anchors = center[:, None]
    if mode == "milp":
        members, blocks = _subcell_chains(m)
        cone = (members @ vertices) / members.sum(axis=1)[:, None]  # subset barycenters
    else:
        blocks = np.arange(m)[None]
        cone = vertices
        if mode == "lp2":
            anchors = np.concatenate([anchors, _cut_points(vertices, center, n_c)], axis=1)
    rows = _cut_rows(cone, anchors, c, alpha)
    try:
        ub, best, b, pivots, unbounded = _best_blocks(_vertex_objective(cone, c), rows, np.ones(rows.shape[:2]), blocks)
    except _Breakdown as err:
        k = err.problem // blocks.shape[0]
        raise _Breakdown(
            err.problem, err.cap, f"bound LP of cell {first_id + k} with vertices {vertices[k].tolist()}"
        ) from err
    if unbounded.any():
        k = int(np.flatnonzero(unbounded.any(axis=1))[0])
        raise RuntimeError(f"cell bound LP unexpectedly unbounded (cell id {first_id + k})")
    w, ok = _candidates(cone[np.arange(best.size)[:, None], blocks[best]], b)
    return ub, w, ok, int(pivots.sum())


def _round_cells(n: int, mode: str, n_c: int) -> int:
    """Cells bisected per round of ``solve``: as many as keep the tableaux of
    their children's LPs within ``_ROUND_LP_BYTES``, and at least one.

    As ``_bound_cells`` builds them, a cell has one LP over its n vertices
    (n! LPs over the n-column subcell chains for milp), with one row per cut
    anchor plus the floor row; ``_simplex`` pivots each on an
    (rows + 1) x (n + rows + 1) float64 tableau.
    """
    blocks = math.factorial(n) if mode == "milp" else 1
    rows = (n * n_c + 2) if mode == "lp2" else 2
    tableau = 8 * (rows + 1) * (n + rows + 1)
    return max(1, _ROUND_LP_BYTES // (2 * blocks * tableau))


def _bound_one(cell: SimplexCell, c: CoMomentSet, alpha: float, mode: str, n_c: int) -> tuple[float, np.ndarray | None]:
    vertices = cell.vertices[None]
    ub, w, ok, _ = _bound_cells(vertices, vertices.mean(axis=1), c, alpha, mode, n_c, cell.id)
    return float(ub[0]), (w[0] if ok[0] else None)


def bound_lp1(cell: SimplexCell, c: CoMomentSet, alpha: float) -> tuple[float, np.ndarray | None]:
    """Envelope/tangent bound with a single cut at the cell barycenter."""
    return _bound_one(cell, c, alpha, "lp1", 1)


def bound_lp2(
    cell: SimplexCell, c: CoMomentSet, alpha: float, n_c: int
) -> tuple[float, np.ndarray | None]:
    """The lp1 bound tightened by tangent cuts at ``_cut_points`` of the cell."""
    if n_c < 1:
        raise ValueError(f"n_c must be >= 1, got {n_c}")
    return _bound_one(cell, c, alpha, "lp2", n_c)


def bound_milp(cell: SimplexCell, c: CoMomentSet, alpha: float) -> tuple[float, np.ndarray | None]:
    """Piecewise-envelope bound over the barycentric subdivision of the cell.

    There is one variable b_k per barycenter of a vertex subset.  The
    subcell of a vertex permutation spans the barycenters of its prefixes
    (a chain), so the bound is the best of the m! packing LPs over the
    chains' columns, each under the single tangent cut at the cell
    barycenter of the lp1 bound.
    """
    return _bound_one(cell, c, alpha, "milp", 1)


# ---------------------------------------------------------------------------
# main loop


def _merge(rows: np.ndarray, new: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """``rows`` with the rows of ``new`` placed at the increasing positions
    ``slots`` of the result, in one copy."""
    out = np.empty((rows.shape[0] + new.shape[0],) + rows.shape[1:], dtype=rows.dtype)
    from_rows = np.ones(out.shape[0], dtype=bool)
    from_rows[slots] = False
    out[from_rows] = rows
    out[slots] = new
    return out


def solve(c: CoMomentSet, cfg: BbConfig = BbConfig()) -> BbResult:
    """Best-first branch-and-bound for the maximum of h over the simplex.

    Returns a certificate-quality result: on status ``'optimal'`` the
    incumbent satisfies h(incumbent) >= (1 - rho_tol) * max h.  A cell is
    fathomed once (1 - rho_tol) * UB(cell) <= LB.  Each round bisects the
    first ``_round_cells`` live cells in (-UB, id) order (fewer if the
    iteration limit is near) and records one history row per parent, as if
    its children were applied parent by parent; a row's top bound is the
    largest bound of any cell live, pending or fathomed.  Iteration and
    wall-clock limits return the best incumbent with status
    ``'iteration_limit'`` or ``'time_limit'``.

    The search runs on ``unit_scaled(c)``, where the absolute tolerances of the alpha
    descent and the candidate test meet unit-sized coefficients, so a panel in any
    power-of-two units gets the same result bit for bit; ``alpha`` is in ``c``'s units.
    """
    start_time = time.perf_counter()
    given = c
    c, scale = unit_scaled(c)
    if given not in _ALPHAS:
        _ALPHAS[given] = alpha_floor(c)
    alpha = _ALPHAS[given]
    n = c.n_assets
    shrink = 1.0 - cfg.rho_tol
    width = _round_cells(n, cfg.bound_mode, cfg.n_c)
    lp_pivots = 0

    def bound_and_score(cells: np.ndarray, per_group: int, first_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bound a stack of new cells and score their LP candidates and
        barycenters; per group of ``per_group`` consecutive cells, the best
        score and its point (the first best, in the order candidate then
        barycenter of each cell)."""
        nonlocal lp_pivots
        center = cells.mean(axis=1)
        ub, w, ok, pivots = _bound_cells(cells, center, c, alpha, cfg.bound_mode, cfg.n_c, first_id)
        lp_pivots += pivots
        points = np.stack([np.where(ok[:, None], w, center), center], axis=1).reshape(-1, per_group * 2, n)
        even = _even_moments(points.reshape(-1, n), c)
        scores = (even.variance**2 / even.mu4).reshape(points.shape[:2])
        scores[:, ::2][~ok.reshape(-1, per_group)] = -math.inf
        best = scores.argmax(axis=1)
        rows = np.arange(points.shape[0])
        return ub, scores[rows, best], points[rows, best]

    fathomed_cells: list[tuple[SimplexCell, float]] = []

    def collect(lbs, *groups) -> None:
        """Record fathomed cells, given as groups of (vertices, ub, depth, id,
        fathoming step) arrays, by fathoming step, then ascending (ub, id)."""
        vertices, ub, depth, ids, steps = (np.concatenate(part) for part in zip(*groups))
        for k in np.lexsort((ids, ub, steps)):
            cell = SimplexCell(vertices[k], float(ub[k]), int(depth[k]), int(ids[k]))
            fathomed_cells.append((cell, float(lbs[steps[k]])))

    root = np.eye(n)[None]
    ub, (lb,), (incumbent,) = bound_and_score(root, 1, 0)
    lb = float(lb)
    if n == 1:
        ub[0] = lb  # the root is a point, so its bound is its value
    # the live cells, best first by (-ub, id)
    vertices, depth, ids = root, np.zeros(1, dtype=int), np.zeros(1, dtype=int)
    lb_hist, ub_hist = [np.array([lb])], [ub]
    fathomed = 0
    fathomed_top = -math.inf  # the largest bound of any fathomed cell
    if shrink * ub[0] <= lb:
        if cfg.collect_cells:
            collect([lb], (vertices, ub, depth, ids, [0]))
        fathomed, fathomed_top = 1, float(ub[0])
        vertices, ub, depth, ids = vertices[:0], ub[:0], depth[:0], ids[:0]
    frac_hist = [np.array([float(fathomed)])]
    live_per_round: list[int] = []
    created = 1
    iteration = 0
    max_depth = 0
    while True:
        live = ub.size
        if not live:
            # every cell is fathomed: the top bound is within rho_tol of lb
            status = "optimal"
            break
        if iteration >= cfg.max_iterations:
            status = "iteration_limit"
            break
        if time.perf_counter() - start_time > cfg.max_seconds:
            status = "time_limit"
            break

        live_per_round.append(live)
        k = min(width, cfg.max_iterations - iteration, live)
        steps = np.arange(k)
        children = _bisect_cells(vertices[:k])
        bounds, scores, points = bound_and_score(children, 2, created)
        # children are capped at their parent's bound, so the top bound never rises
        child_ub = np.minimum(bounds.reshape(k, 2), ub[:k, None]).ravel()
        child_depth = np.repeat(depth[:k] + 1, 2)
        child_ids = np.arange(created, created + 2 * k)
        # the round as if applied parent by parent: lbs[p] is the lower bound
        # after parent p, and the incumbent is the point of its last rise
        lbs = np.fmax.accumulate(np.concatenate(([lb], scores)))[1:]
        if lbs[-1] > lb:
            incumbent = points[np.argmax(scores == lbs[-1])]
            lb = float(lbs[-1])
        # after parent p the rest stay live while shrink * ub > lbs[p], a prefix
        # of their sorted bounds; child j lives from its parent's step j // 2
        # to the step that fathoms it, the first p with shrink * ub <= lbs[p]
        # (k if none does)
        rest = live - k
        rest_scaled = shrink * ub[k:]
        rest_live = np.searchsorted(-rest_scaled, -lbs)
        child_steps = np.maximum(np.repeat(steps, 2), np.searchsorted(lbs, shrink * child_ub))
        # each parent turns into two children, one cell net; pending parents count as live
        gone = fathomed + rest - rest_live + np.bincount(child_steps, minlength=k + 1)[:k].cumsum()
        lb_hist.append(lbs)
        frac_hist.append(gone / (fathomed + live + steps + 1))
        # the top bound after parent p, over the cells kept, pending or fathomed:
        # the best of the rest (fathomed cells rank below every live one), the
        # children so far, and the next pending parent
        top = ub[k] if rest else fathomed_top
        child_top = np.maximum.accumulate(child_ub.reshape(k, 2).max(axis=1))
        ub_hist.append(np.maximum(np.maximum(child_top, np.append(ub[1:k], -math.inf)), top))

        kept = rest_live[-1]
        keep_child = child_steps == k
        gone_child = ~keep_child
        if cfg.collect_cells:
            rest_gone = (a[k + kept :] for a in (vertices, ub, depth, ids))
            child_gone = (a[gone_child] for a in (children, child_ub, child_depth, child_ids, child_steps))
            collect(lbs, (*rest_gone, np.searchsorted(lbs, rest_scaled[kept:])), tuple(child_gone))
        fathomed = int(gone[-1])
        fathomed_top = max(
            fathomed_top, ub[k + kept :].max(initial=-math.inf), child_ub[gone_child].max(initial=-math.inf)
        )
        # merge the kept children into the kept rest, best first: a child goes
        # after the rest of equal bound, whose ids are smaller
        new = np.flatnonzero(keep_child)
        new = new[np.argsort(-child_ub[new], kind="stable")]
        slots = np.searchsorted(-ub[k : k + kept], -child_ub[new], side="right") + np.arange(new.size)
        vertices = _merge(vertices[k : k + kept], children[new], slots)
        ub = _merge(ub[k : k + kept], child_ub[new], slots)
        depth = _merge(depth[k : k + kept], child_depth[new], slots)
        ids = _merge(ids[k : k + kept], child_ids[new], slots)
        max_depth = max(max_depth, int(child_depth.max()))
        created += 2 * k
        iteration += k
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "round %d: %d cells bisected, %d live, %d iterations, kurtosis in [%.9g, %.9g]",
                len(live_per_round),
                k,
                ub.size,
                iteration,
                1.0 / ub_hist[-1][-1],
                1.0 / lb,
            )
    # the bounds at the stopping test; lb has not moved, so nothing is fathomed
    lb_hist.append(np.array([lb]))
    ub_hist.append(np.array([ub[0] if ub.size else fathomed_top]))
    frac_hist.append(np.array([fathomed / (fathomed + ub.size)]))

    weights = Weights(np.clip(incumbent, 0.0, None) / np.clip(incumbent, 0.0, None).sum())
    return BbResult(
        incumbent=weights,
        incumbent_value=lb,
        lower_bounds=np.concatenate(lb_hist),
        upper_bounds=np.concatenate(ub_hist),
        fraction_deleted=np.concatenate(frac_hist),
        iterations=iteration,
        cells_created=created,
        cells_fathomed=fathomed,
        lp_pivots=lp_pivots,
        rounds=len(live_per_round),
        status=status,
        alpha=math.ldexp(alpha, 4 * scale),
        max_depth=max_depth,
        live_cells_per_round=np.asarray(live_per_round, dtype=int),
        fathomed_cells=tuple(fathomed_cells),
        live_cells=tuple(
            SimplexCell(vertices[k], float(ub[k]), int(depth[k]), int(ids[k])) for k in np.argsort(ids)
        )
        if cfg.collect_cells
        else (),
    )
