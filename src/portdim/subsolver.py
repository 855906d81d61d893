"""Dense primal simplex for the packing LPs of the branch-and-bound cell bounds.

Every cell bound is a packing LP, max c'x s.t. A x <= b, x >= 0 with b >= 0,
so the origin is feasible and the simplex starts from the slack basis with
no phase 1.  The ``milp`` bound picks one barycentric subcell out of m!, a
disjunction of such LPs over column blocks; its optimum is the best of the
block LPs.  The subproblems are tiny (a handful of rows, at most a few
dozen columns) but are solved tens of thousands of times inside the
branch-and-bound loop, so the implementation favours robustness and
determinism over asymptotics: Dantzig pricing with a switch to Bland's rule
after too many degenerate pivots, and a dense explicit basis inverse
refactorized every 64 pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LpProblem",
    "MilpProblem",
    "LpSolution",
    "solve_lp",
    "solve_milp",
]

_PIVOT_TOL = 1e-9
_REFACTOR_EVERY = 64


@dataclass(frozen=True)
class LpProblem:
    """max objective'x  s.t.  matrix x <= rhs, x >= 0, with rhs >= 0 (the origin is feasible)."""

    objective: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        a = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        if a.shape != (rhs.size, c.size):
            raise ValueError(f"matrix shape {a.shape} does not match rhs {rhs.shape} and {c.size} variables")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(rhs))):
            raise ValueError("LP contains non-finite coefficients")
        if np.any(rhs < 0.0):
            raise ValueError("rhs must be nonnegative so that the origin is feasible")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "rhs", rhs)

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class MilpProblem:
    """Pick one column block of ``lp`` and solve the LP over those columns.

    This is the MILP with one SOS1 group of binaries, one per block, each
    switching its block's columns on; all other columns stay at zero.
    """

    lp: LpProblem
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(tuple(int(i) for i in block) for block in self.blocks)
        if not blocks:
            raise ValueError("at least one column block is needed")
        n = self.lp.n_vars
        for block in blocks:
            if not block or len(set(block)) != len(block):
                raise ValueError(f"column block {block} is empty or repeats a column")
            if any(i < 0 or i >= n for i in block):
                raise ValueError(f"column block {block} is out of range for {n} variables")
        object.__setattr__(self, "blocks", blocks)


@dataclass(frozen=True)
class LpSolution:
    status: str  # 'optimal' | 'unbounded'
    value: float
    x: np.ndarray | None
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Breakdown(RuntimeError):
    """Numerical breakdown inside the simplex (singular basis, stall)."""


def _simplex_core(a: np.ndarray, b: np.ndarray, cost: np.ndarray, basis: np.ndarray):
    """min cost'x  s.t. a x = b, x >= 0, starting from the given feasible basis.

    Returns (status, x, basis, iterations); status 'optimal' or 'unbounded'.
    """
    m, n = a.shape
    basis = basis.copy()
    try:
        b_inv = np.linalg.inv(a[:, basis])
    except np.linalg.LinAlgError as exc:
        raise _Breakdown(f"singular starting basis (rows={m}, cols={n})") from exc
    xb = b_inv @ b
    degenerate = 0
    bland = False
    max_iter = 2000 + 200 * (m + n)
    for it in range(max_iter):
        y = cost[basis] @ b_inv
        reduced = cost - y @ a
        reduced[basis] = 0.0
        if bland:
            entering_candidates = np.flatnonzero(reduced < -_PIVOT_TOL)
            if entering_candidates.size == 0:
                return "optimal", _basic_point(n, basis, xb), basis, it
            j = int(entering_candidates[0])
        else:
            j = int(np.argmin(reduced))
            if reduced[j] >= -_PIVOT_TOL:
                return "optimal", _basic_point(n, basis, xb), basis, it
        d = b_inv @ a[:, j]
        pos = d > _PIVOT_TOL
        if not np.any(pos):
            return "unbounded", None, basis, it
        ratios = np.full(m, np.inf)
        ratios[pos] = xb[pos] / d[pos]
        theta = ratios.min()
        # leaving: smallest ratio, ties broken by lowest variable index (Bland-safe)
        tie = np.flatnonzero(ratios <= theta + 1e-15)
        r = int(tie[np.argmin(basis[tie])])
        if theta <= 1e-12:
            degenerate += 1
            if degenerate > 50 * m:
                bland = True
        else:
            degenerate = 0
        basis[r] = j
        if (it + 1) % _REFACTOR_EVERY == 0:
            try:
                b_inv = np.linalg.inv(a[:, basis])
            except np.linalg.LinAlgError as exc:
                raise _Breakdown(f"singular basis at iteration {it}") from exc
            xb = b_inv @ b
        else:
            piv = d[r]
            b_inv[r] /= piv
            xb[r] = theta
            other = np.arange(m) != r
            xb[other] -= d[other] * theta
            b_inv[other] -= np.outer(d[other], b_inv[r])
        xb = np.maximum(xb, 0.0)  # clip tiny negative round-off
    raise _Breakdown(f"simplex failed to converge within {max_iter} iterations")


def _basic_point(n: int, basis: np.ndarray, xb: np.ndarray) -> np.ndarray:
    x = np.zeros(n)
    x[basis] = xb
    return x


def solve_lp(p: LpProblem) -> LpSolution:
    """Dense primal simplex from the slack basis; deterministic for identical inputs."""
    m, n = p.matrix.shape
    a = np.hstack([p.matrix, np.eye(m)])
    cost = np.concatenate([-p.objective, np.zeros(m)])  # maximize -> minimize
    status, x, _, iterations = _simplex_core(a, p.rhs, cost, np.arange(n, n + m))
    if status == "unbounded":
        return LpSolution(status="unbounded", value=np.inf, x=None, iterations=iterations)
    x = x[:n]
    return LpSolution(status="optimal", value=float(p.objective @ x), x=x, iterations=iterations)


def solve_milp(p: MilpProblem) -> LpSolution:
    """The best of the block LPs, with the pivots of all of them.

    The first block wins ties; the returned point is zero off its block.
    """
    lp = p.lp
    best: LpSolution | None = None
    iterations = 0
    for block in p.blocks:
        cols = list(block)
        sol = solve_lp(LpProblem(lp.objective[cols], lp.matrix[:, cols], lp.rhs))
        iterations += sol.iterations
        if not sol.optimal:
            return LpSolution(status="unbounded", value=np.inf, x=None, iterations=iterations)
        if best is None or sol.value > best.value:
            x = np.zeros(lp.n_vars)
            x[cols] = sol.x
            best = LpSolution(status="optimal", value=sol.value, x=x)
    return LpSolution(status="optimal", value=best.value, x=best.x, iterations=iterations)
