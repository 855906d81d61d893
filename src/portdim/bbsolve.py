"""Deterministic branch-and-bound for globally minimal portfolio kurtosis.

Minimizing kurtosis mu4/var^2 over the weight simplex is equivalent to
maximizing h(w) = (w'M2 w)^2 / w'M4(w (x) w (x) w), a ratio of two convex
quartics.  The solver partitions the simplex into cells, bounds h on each
cell from above by a linear (or mixed-integer linear) program, and bisects
the cell with the largest bound until the incumbent is provably within a
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

Every cell, the root included, costs two moment-kernel calls: one batched
call for the gradients at all of its cut anchors, and one for h at its LP
candidate and its barycenter.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .comoments import (
    CoMomentSet,
    Weights,
    _even_moments,
    moment_derivatives,
    portfolio_moments,
)
from .gld import _projected_descent
from .subsolver import LpProblem, MilpProblem, solve_lp, solve_milp

__all__ = [
    "SimplexCell",
    "BbConfig",
    "BbResult",
    "bisect",
    "barycentric_subdivide",
    "alpha_floor",
    "cut_points",
    "bound_lp1",
    "bound_lp2",
    "bound_milp",
    "solve",
]

_DEGENERATE_EDGE = 1e-12
_MAX_ENVELOPE_VERTICES = 6  # m! subcells: the milp bound solves one LP per subcell
_ALPHA_GRAD_TOL = 1e-10
_ALPHA_MAX_ITER = 100_000
_CANDIDATE_U_TOL = 1e-12


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

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def barycenter(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def longest_edge(self) -> tuple[int, int, float]:
        """Longest vertex pair ``(i, j, length)``, ties to the smallest (i, j)."""
        v = self.vertices
        best = (0, 1, -1.0)
        for i in range(v.shape[0] - 1):
            for j in range(i + 1, v.shape[0]):
                length = float(np.linalg.norm(v[i] - v[j]))
                if length > best[2]:
                    best = (i, j, length)
        return best

    def volume(self) -> float:
        """Euclidean (N-1)-volume via the Gram determinant of the edge vectors."""
        edges = self.vertices[1:] - self.vertices[0]
        if edges.shape[0] == 0:
            return 1.0
        gram = edges @ edges.T
        det = float(np.linalg.det(gram))
        return math.sqrt(max(det, 0.0)) / math.factorial(edges.shape[0])


@dataclass(frozen=True)
class BbConfig:
    """Branch-and-bound settings.

    ``rho_tol`` is the relative optimality gap: the solver stops once
    ``(1 - rho_tol) * UB <= LB`` in h-space.  ``bound_mode`` picks the cell
    bound ('lp1', 'lp2', 'milp'); ``n_c`` is the tangent-plane count per
    asset used by 'lp2'.  ``alpha_safety`` scales the computed floor of the
    fourth moment down to keep the bound valid under floating point.
    """

    rho_tol: float = 1e-3
    bound_mode: str = "lp2"
    n_c: int = 1
    max_iterations: int = 1_000_000
    max_seconds: float = math.inf
    alpha_safety: float = 0.999
    collect_cells: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho_tol < 1.0:
            raise ValueError(f"rho_tol must lie in [0, 1), got {self.rho_tol}")
        if self.bound_mode not in ("lp1", "lp2", "milp"):
            raise ValueError(f"unknown bound_mode {self.bound_mode!r}")
        if self.n_c < 1:
            raise ValueError(f"n_c must be >= 1, got {self.n_c}")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if not self.max_seconds > 0:
            raise ValueError("max_seconds must be positive")
        if not 0.0 < self.alpha_safety <= 1.0:
            raise ValueError(f"alpha_safety must lie in (0, 1], got {self.alpha_safety}")


@dataclass(frozen=True)
class BbResult:
    """Solver output.

    Histories have one entry for the root bound, one per iteration, and a
    terminal entry recording the state at the stopping test; ``lower_bounds``
    is nondecreasing and ``upper_bounds`` nonincreasing, both in h-space.
    ``fraction_deleted`` counts fathomed cells against fathomed-plus-live.
    ``fathomed_cells`` holds ``(cell, lb_at_deletion)`` pairs and
    ``live_cells`` the surviving cells, both only when configured.
    """

    incumbent: Weights
    incumbent_value: float
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    fraction_deleted: np.ndarray
    iterations: int
    cells_created: int
    cells_fathomed: int
    status: str
    alpha: float
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


def bisect(cell: SimplexCell, first_child_id: int = 0) -> tuple[SimplexCell, SimplexCell]:
    """Split a cell at the midpoint of its longest edge.

    Each child replaces one endpoint of that edge by the midpoint, so the
    two children tile the parent.  Edge-length ties go to the smallest
    vertex-index pair.
    """
    i, j, length = cell.longest_edge()
    if length < _DEGENERATE_EDGE:
        raise ValueError(f"degenerate cell: longest edge {length:.3e}")
    mid = 0.5 * (cell.vertices[i] + cell.vertices[j])
    first = cell.vertices.copy()
    first[i] = mid
    second = cell.vertices.copy()
    second[j] = mid
    depth = cell.depth + 1
    return (
        SimplexCell(first, depth=depth, id=first_child_id),
        SimplexCell(second, depth=depth, id=first_child_id + 1),
    )


def barycentric_subdivide(cell: SimplexCell, first_child_id: int = 0) -> tuple[SimplexCell, ...]:
    """Full barycentric subdivision into m! subcells (m = vertex count).

    Subcell vertices are the running barycenters of vertex-permutation
    prefixes.  Guarded to m <= 6 because of the factorial growth.
    """
    m = cell.n_vertices
    if m > _MAX_ENVELOPE_VERTICES:
        raise ValueError(f"barycentric subdivision of a {m}-vertex cell exceeds the size guard")
    children = []
    depth = cell.depth + 1
    for k, perm in enumerate(itertools.permutations(range(m))):
        prefixes = np.cumsum(cell.vertices[list(perm)], axis=0)
        prefixes /= np.arange(1, m + 1)[:, None]
        children.append(SimplexCell(prefixes, depth=depth, id=first_child_id + k))
    return tuple(children)


# ---------------------------------------------------------------------------
# bounding subproblems


def alpha_floor(c: CoMomentSet, cfg: BbConfig) -> float:
    """A certified positive floor of the fourth moment over the simplex.

    The fourth central moment is convex, so the projected-gradient minimum
    from the barycenter is global; the result is scaled by
    ``cfg.alpha_safety`` to stay below it under floating point.
    """
    n = c.n_assets
    _, mu4, _, converged = _projected_descent(
        lambda v: portfolio_moments(v, c).mu4,
        lambda v: moment_derivatives(v, c).grad_mu4,
        np.full(n, 1.0 / n),
        grad_tol=_ALPHA_GRAD_TOL,
        max_iter=_ALPHA_MAX_ITER,
    )
    if not converged:
        raise RuntimeError(f"fourth-moment floor search did not converge in {_ALPHA_MAX_ITER} iterations")
    return cfg.alpha_safety * mu4


def cut_points(cell: SimplexCell, n_c: int) -> np.ndarray:
    """Tangent-plane anchor points: the vertices, plus for n_c >= 2 the
    points (j/n_c) v^i + (1 - j/n_c) barycenter, j = 1..n_c-1."""
    if n_c < 1:
        raise ValueError(f"n_c must be >= 1, got {n_c}")
    pieces = [cell.vertices.copy()]
    center = cell.barycenter
    for j in range(1, n_c):
        frac = j / n_c
        pieces.append(frac * cell.vertices + (1.0 - frac) * center[None, :])
    return np.vstack(pieces)


def _vertex_objective(vertices: np.ndarray, c: CoMomentSet) -> np.ndarray:
    """f(v) = (v'M2 v)^2 at each vertex (the envelope values)."""
    quad = np.einsum("ij,jk,ik->i", vertices, c.m2, vertices)
    return quad**2


def _cut_rows(vertices: np.ndarray, anchors: np.ndarray, c: CoMomentSet, alpha: float) -> np.ndarray:
    """Packing rows in b of the tangent-plane cuts, plus the fourth-moment floor.

    For anchor R the cut u*(g(R) + grad g(R)'(y/u - R)) <= 1 on the
    perspective of g becomes sum_i b_i (grad'v^i + g(R) - grad'R) <= 1
    after y = sum_i b_i v^i and u = sum_i b_i; the floor u <= 1/alpha
    becomes the last row, alpha * sum_i b_i <= 1.  Every right-hand side is 1.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    grads = _even_moments(anchors, c).grad_mu4
    rows = np.empty((anchors.shape[0] + 1, vertices.shape[0]))
    # g(R) - grad'R, where g(R) = grad'R / 4 by Euler's identity
    rows[:-1] = grads @ vertices.T - 0.75 * np.einsum("ki,ki->k", grads, anchors)[:, None]
    rows[-1] = alpha
    return rows


def _candidate_from_cone(vertices: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Recover w = y/u from cone coordinates; None when u = sum b is numerically zero."""
    u = float(b.sum())
    if not u > _CANDIDATE_U_TOL:
        return None
    w = (b @ vertices) / u
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if not total > 0.0:
        return None
    return w / total


def _solve_lp_bound(
    cell: SimplexCell, c: CoMomentSet, alpha: float, anchors: np.ndarray
) -> tuple[float, np.ndarray | None]:
    """Shared packing LP of the lp1/lp2 bounds: one variable b_i per cell vertex."""
    rows = _cut_rows(cell.vertices, anchors, c, alpha)
    sol = solve_lp(LpProblem(_vertex_objective(cell.vertices, c), rows, np.ones(rows.shape[0])))
    if not sol.optimal:
        raise RuntimeError(f"cell bound LP unexpectedly {sol.status} (cell id {cell.id})")
    return sol.value, _candidate_from_cone(cell.vertices, sol.x)


def bound_lp1(cell: SimplexCell, c: CoMomentSet, alpha: float) -> tuple[float, np.ndarray | None]:
    """Envelope/tangent bound with a single cut at the cell barycenter."""
    return _solve_lp_bound(cell, c, alpha, cell.barycenter[None, :])


def bound_lp2(
    cell: SimplexCell, c: CoMomentSet, alpha: float, n_c: int
) -> tuple[float, np.ndarray | None]:
    """The lp1 bound tightened by tangent cuts at ``cut_points(cell, n_c)``."""
    anchors = np.vstack([cell.barycenter[None, :], cut_points(cell, n_c)])
    return _solve_lp_bound(cell, c, alpha, anchors)


def bound_milp(cell: SimplexCell, c: CoMomentSet, alpha: float) -> tuple[float, np.ndarray | None]:
    """Piecewise-envelope bound over the barycentric subdivision of the cell.

    There is one variable b_k per barycenter of a vertex subset.  The
    subcell of a vertex permutation spans the barycenters of its prefixes
    (a chain), so the bound is the best of the m! packing LPs over the
    chains' columns, each under the single tangent cut at the cell
    barycenter of the lp1 bound.
    """
    m = cell.n_vertices
    if m > _MAX_ENVELOPE_VERTICES:
        raise ValueError(f"piecewise envelope of a {m}-vertex cell exceeds the size guard")

    subsets = [frozenset(combo) for size in range(1, m + 1) for combo in itertools.combinations(range(m), size)]
    subset_index = {s: k for k, s in enumerate(subsets)}
    bary_vertices = np.vstack(
        [cell.vertices[sorted(s)].mean(axis=0) for s in subsets]
    )
    chains = tuple(
        tuple(subset_index[frozenset(perm[: k + 1])] for k in range(m))
        for perm in itertools.permutations(range(m))
    )
    rows = _cut_rows(bary_vertices, cell.barycenter[None, :], c, alpha)
    problem = MilpProblem(
        lp=LpProblem(_vertex_objective(bary_vertices, c), rows, np.ones(rows.shape[0])),
        blocks=chains,
    )
    sol = solve_milp(problem)
    if not sol.optimal:
        raise RuntimeError(f"cell bound MILP unexpectedly {sol.status} (cell id {cell.id})")
    return sol.value, _candidate_from_cone(bary_vertices, sol.x)


# ---------------------------------------------------------------------------
# main loop


def _make_bound(cfg: BbConfig, c: CoMomentSet, alpha: float):
    if cfg.bound_mode == "lp1":
        return lambda cell: bound_lp1(cell, c, alpha)
    if cfg.bound_mode == "lp2":
        return lambda cell: bound_lp2(cell, c, alpha, cfg.n_c)
    return lambda cell: bound_milp(cell, c, alpha)


def solve(c: CoMomentSet, cfg: BbConfig = BbConfig()) -> BbResult:
    """Best-first branch-and-bound for the maximum of h over the simplex.

    Returns a certificate-quality result: on status ``'optimal'`` the
    incumbent satisfies h(incumbent) >= (1 - rho_tol) * max h.  The cell
    with the largest upper bound is bisected each iteration; a cell is
    fathomed once (1 - rho_tol) * UB(cell) <= LB.  Iteration and wall-clock
    limits return the best incumbent with status ``'iteration_limit'`` or
    ``'time_limit'``.
    """
    n = c.n_assets
    if n == 1:
        even = _even_moments(np.ones((1, 1)), c)
        one = even.variance**2 / even.mu4
        return BbResult(
            incumbent=Weights(np.array([1.0])),
            incumbent_value=float(one[0]),
            lower_bounds=one,
            upper_bounds=one.copy(),
            fraction_deleted=np.array([1.0]),
            iterations=0,
            cells_created=1,
            cells_fathomed=1,
            status="optimal",
            alpha=alpha_floor(c, cfg),
        )

    start_time = time.perf_counter()
    alpha = alpha_floor(c, cfg)
    bound = _make_bound(cfg, c, alpha)
    shrink = 1.0 - cfg.rho_tol

    lb = -math.inf
    incumbent: np.ndarray | None = None
    created = 0
    fathomed = 0
    # main heap: best-first by (-ub, id); deletion heap: ascending ub, popped
    # as soon as the growing lower bound certifies a cell can be discarded.
    heap: list[tuple[float, int, SimplexCell]] = []
    deletions: list[tuple[float, int, SimplexCell]] = []
    fathomed_cells: list[tuple[SimplexCell, float]] = []
    live_by_id: dict[int, SimplexCell] = {}
    lb_hist: list[float] = []
    ub_hist: list[float] = []
    frac_hist: list[float] = []

    def evaluate(cell: SimplexCell, cap: float) -> None:
        """Bound a new cell, capped at its parent's bound, score its LP
        candidate and barycenter against the incumbent, and make it live."""
        nonlocal lb, incumbent, created
        ub, cand = bound(cell)
        cell = replace(cell, upper_bound=min(ub, cap))
        points = [p for p in (cand, cell.barycenter) if p is not None]
        even = _even_moments(np.vstack(points), c)
        for point, value in zip(points, even.variance**2 / even.mu4):
            if value > lb:
                lb, incumbent = float(value), point
        created += 1
        heapq.heappush(heap, (-cell.upper_bound, cell.id, cell))
        heapq.heappush(deletions, (cell.upper_bound, cell.id, cell))
        live_by_id[cell.id] = cell

    def fathom_and_record() -> None:
        """Fathom every cell the lower bound now certifies, then append one
        row to each history."""
        nonlocal fathomed
        while deletions and shrink * deletions[0][0] <= lb:
            _, cell_id, cell = heapq.heappop(deletions)
            if cell_id not in live_by_id:
                continue  # stale entry: the cell was subdivided, not fathomed
            fathomed += 1
            del live_by_id[cell_id]
            if cfg.collect_cells:
                fathomed_cells.append((cell, lb))
        # children are capped at their parent's bound, so the heap top never rises
        lb_hist.append(lb)
        ub_hist.append(-heap[0][0])
        frac_hist.append(fathomed / (fathomed + len(live_by_id)))

    evaluate(SimplexCell(np.eye(n), id=0), math.inf)
    fathom_and_record()
    iteration = 0
    while True:
        if shrink * -heap[0][0] <= lb:
            # every live cell is below the top bound, so all are fathomed already
            status = "optimal"
            break
        if iteration >= cfg.max_iterations:
            status = "iteration_limit"
            break
        if time.perf_counter() - start_time > cfg.max_seconds:
            status = "time_limit"
            break

        _, _, parent = heapq.heappop(heap)
        del live_by_id[parent.id]
        iteration += 1
        for child in bisect(parent, first_child_id=created):
            evaluate(child, parent.upper_bound)
        fathom_and_record()
    fathom_and_record()  # the bounds at the stopping test; lb has not moved, so nothing is fathomed

    weights = Weights(np.clip(incumbent, 0.0, None) / np.clip(incumbent, 0.0, None).sum())
    return BbResult(
        incumbent=weights,
        incumbent_value=lb,
        lower_bounds=np.asarray(lb_hist),
        upper_bounds=np.asarray(ub_hist),
        fraction_deleted=np.asarray(frac_hist),
        iterations=iteration,
        cells_created=created,
        cells_fathomed=fathomed,
        status=status,
        alpha=alpha,
        fathomed_cells=tuple(fathomed_cells),
        live_cells=tuple(live_by_id.values()) if cfg.collect_cells else (),
    )
