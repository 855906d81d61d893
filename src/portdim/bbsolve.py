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
    Piecewise envelope over the full barycentric subdivision of the cell,
    selected by binary variables (factorial in the asset count; intended
    for small baskets).

All bounds are assembled in the cone coordinates (b, u) with y = sum b_i v^i
and w = y/u, which turns the ratio bound into a linear objective at the cost
of one extra variable.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .comoments import (
    CoMomentSet,
    Weights,
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
_MAX_ENVELOPE_VERTICES = 6  # m! binaries: the MILP bound stops being a bound above this
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


def _cut_rows(
    vertices: np.ndarray, anchors: np.ndarray, c: CoMomentSet
) -> tuple[np.ndarray, np.ndarray]:
    """Tangent-plane rows of the perspective of g in (b, u) coordinates.

    For anchor R the constraint u*(g(R) + grad g(R)'(y/u - R)) <= 1 becomes
    sum_i b_i grad'v^i + u (g(R) - grad'R) <= 1 after y = sum_i b_i v^i.
    """
    rows = np.empty((anchors.shape[0], vertices.shape[0] + 1))
    for k, anchor in enumerate(anchors):
        grad = moment_derivatives(anchor, c).grad_mu4
        rows[k, :-1] = vertices @ grad
        # g(R) - grad'R, where g(R) = grad'R / 4 by Euler's identity
        rows[k, -1] = -0.75 * float(grad @ anchor)
    return rows, np.ones(anchors.shape[0])


def _candidate_from_cone(vertices: np.ndarray, b: np.ndarray, u: float) -> np.ndarray | None:
    """Recover w = y/u from cone coordinates; None when u is numerically zero."""
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
    """Shared LP assembly for the lp1/lp2 bounds: variables [b_0..b_{m-1}, u]."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    m = cell.n_vertices
    objective = np.concatenate([_vertex_objective(cell.vertices, c), [0.0]])
    eq = np.concatenate([np.ones(m), [-1.0]])[None, :]
    ineq, rhs = _cut_rows(cell.vertices, anchors, c)
    upper = np.full(m + 1, np.inf)
    upper[m] = 1.0 / alpha
    problem = LpProblem(
        objective=objective,
        eq_matrix=eq,
        eq_rhs=np.zeros(1),
        ineq_matrix=ineq,
        ineq_rhs=rhs,
        upper=upper,
    )
    sol = solve_lp(problem)
    if not sol.optimal:
        raise RuntimeError(f"cell bound LP unexpectedly {sol.status} (cell id {cell.id})")
    return sol.value, _candidate_from_cone(cell.vertices, sol.x[:m], float(sol.x[m]))


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

    Variables are [b (one per subset barycenter), u, z (one per subcell),
    q (binary, one per subcell)]; z_j linearizes q_j * u, and each b entry
    may be positive only on vertices of the selected subcell.  A single
    tangent cut at the cell barycenter underestimates the denominator, as
    in the lp1 bound.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    m = cell.n_vertices
    if m > _MAX_ENVELOPE_VERTICES:
        raise ValueError(f"binary budget exceeded: {m}-vertex cell needs {math.factorial(m)} binaries")

    subsets = [frozenset(combo) for size in range(1, m + 1) for combo in itertools.combinations(range(m), size)]
    subset_index = {s: k for k, s in enumerate(subsets)}
    bary_vertices = np.vstack(
        [cell.vertices[sorted(s)].mean(axis=0) for s in subsets]
    )
    chains = [
        [subset_index[frozenset(perm[: k + 1])] for k in range(m)]
        for perm in itertools.permutations(range(m))
    ]

    n_b = len(subsets)
    n_cell = len(chains)
    n_vars = n_b + 1 + 2 * n_cell
    u_ix = n_b
    z_ix = n_b + 1
    q_ix = n_b + 1 + n_cell

    objective = np.zeros(n_vars)
    objective[:n_b] = _vertex_objective(bary_vertices, c)

    eq = np.zeros((2, n_vars))
    eq[0, :n_b] = 1.0
    eq[0, u_ix] = -1.0
    eq[1, q_ix:] = 1.0
    eq_rhs = np.array([0.0, 1.0])

    rows: list[np.ndarray] = []
    rhs: list[float] = []

    cut, cut_rhs = _cut_rows(bary_vertices, cell.barycenter[None, :], c)
    row = np.zeros(n_vars)
    row[:n_b] = cut[0, :-1]
    row[u_ix] = cut[0, -1]
    rows.append(row)
    rhs.append(float(cut_rhs[0]))

    # membership: b_k <= sum of z_j over subcells whose vertex set contains k
    containing: list[list[int]] = [[] for _ in range(n_b)]
    for j, chain in enumerate(chains):
        for k in chain:
            containing[k].append(j)
    for k in range(n_b):
        row = np.zeros(n_vars)
        row[k] = 1.0
        for j in containing[k]:
            row[z_ix + j] = -1.0
        rows.append(row)
        rhs.append(0.0)

    # z_j = q_j * u via McCormick with 0 <= u <= 1/alpha
    inv_alpha = 1.0 / alpha
    for j in range(n_cell):
        row = np.zeros(n_vars)
        row[z_ix + j] = 1.0
        row[q_ix + j] = -inv_alpha
        rows.append(row)
        rhs.append(0.0)
        row = np.zeros(n_vars)
        row[z_ix + j] = 1.0
        row[u_ix] = -1.0
        rows.append(row)
        rhs.append(0.0)
        row = np.zeros(n_vars)
        row[u_ix] = 1.0
        row[z_ix + j] = -1.0
        row[q_ix + j] = inv_alpha
        rows.append(row)
        rhs.append(inv_alpha)

    upper = np.full(n_vars, np.inf)
    upper[u_ix] = inv_alpha
    upper[q_ix:] = 1.0

    problem = MilpProblem(
        lp=LpProblem(
            objective=objective,
            eq_matrix=np.asarray(eq),
            eq_rhs=eq_rhs,
            ineq_matrix=np.vstack(rows),
            ineq_rhs=np.asarray(rhs),
            upper=upper,
        ),
        binary_indices=tuple(range(q_ix, n_vars)),
        sos1_groups=(tuple(range(q_ix, n_vars)),),
    )
    sol = solve_milp(problem, binary_budget=math.factorial(_MAX_ENVELOPE_VERTICES))
    if not sol.optimal:
        raise RuntimeError(f"cell bound MILP unexpectedly {sol.status} (cell id {cell.id})")
    return sol.value, _candidate_from_cone(bary_vertices, sol.x[:n_b], float(sol.x[u_ix]))


# ---------------------------------------------------------------------------
# main loop


def _h_value(w: np.ndarray, c: CoMomentSet) -> float:
    variance, _, mu4 = portfolio_moments(w, c)
    return variance**2 / mu4


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
        w = Weights(np.array([1.0]))
        value = _h_value(np.array([1.0]), c)
        one = np.array([value])
        return BbResult(
            incumbent=w,
            incumbent_value=value,
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

    root = SimplexCell(np.eye(n), id=0)
    ub_root, cand = bound(root)
    incumbent = root.barycenter
    lb = _h_value(incumbent, c)
    if cand is not None:
        cand_val = _h_value(cand, c)
        if cand_val > lb:
            lb, incumbent = cand_val, cand
    root = replace(root, upper_bound=ub_root)

    created = 1
    fathomed = 0
    # main heap: best-first by (-ub, id); deletion heap: ascending ub, popped
    # as soon as the growing lower bound certifies a cell can be discarded.
    heap: list[tuple[float, int, SimplexCell]] = [(-ub_root, root.id, root)]
    deletions: list[tuple[float, int, SimplexCell]] = [(ub_root, root.id, root)]
    fathomed_cells: list[tuple[SimplexCell, float]] = []
    live_by_id: dict[int, SimplexCell] = {root.id: root}

    def sweep_deletions() -> None:
        nonlocal fathomed
        while deletions and shrink * deletions[0][0] <= lb:
            _, cell_id, cell = heapq.heappop(deletions)
            if cell_id not in live_by_id:
                continue  # stale entry: the cell was subdivided, not fathomed
            fathomed += 1
            del live_by_id[cell_id]
            if cfg.collect_cells:
                fathomed_cells.append((cell, lb))

    sweep_deletions()
    lb_hist = [lb]
    ub_hist = [ub_root]
    frac_hist = [fathomed / (fathomed + len(live_by_id)) if fathomed + len(live_by_id) else 1.0]
    iteration = 0
    status = "optimal"
    while True:
        top_ub = -heap[0][0]
        if shrink * top_ub <= lb:
            status = "optimal"
            break
        if iteration >= cfg.max_iterations:
            status = "iteration_limit"
            break
        if time.perf_counter() - start_time > cfg.max_seconds:
            status = "time_limit"
            break

        _, _, parent = heapq.heappop(heap)
        live_by_id.pop(parent.id, None)
        iteration += 1
        children = bisect(parent, first_child_id=created)
        created += 2

        bounded = []
        for child in children:
            ub_raw, cand = bound(child)
            ub = min(ub_raw, parent.upper_bound)
            for point in (cand, child.barycenter):
                if point is None:
                    continue
                val = _h_value(point, c)
                if val > lb:
                    lb, incumbent = val, point
            bounded.append(replace(child, upper_bound=ub))
        for child in bounded:
            heapq.heappush(heap, (-child.upper_bound, child.id, child))
            heapq.heappush(deletions, (child.upper_bound, child.id, child))
            live_by_id[child.id] = child

        sweep_deletions()
        lb_hist.append(lb)
        ub_hist.append(min(-heap[0][0], ub_hist[-1]))
        frac_hist.append(fathomed / (fathomed + len(live_by_id)))

    # terminal accounting: on optimality every remaining cell is deletable
    if status == "optimal":
        while deletions:
            _, cell_id, cell = heapq.heappop(deletions)
            if cell_id in live_by_id:
                fathomed += 1
                del live_by_id[cell_id]
                if cfg.collect_cells:
                    fathomed_cells.append((cell, lb))
    lb_hist.append(lb)
    ub_hist.append(min(-heap[0][0], ub_hist[-1]))
    live = len(live_by_id)
    frac_hist.append(fathomed / (fathomed + live) if fathomed + live else 1.0)

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
