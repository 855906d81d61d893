"""Dense tableau simplex for the packing LPs of the branch-and-bound cell bounds.

Every cell bound is a packing LP, max c'x s.t. A x <= b, x >= 0 with b >= 0,
so the origin is feasible and the simplex starts from the slack basis with
no phase 1.  The ``milp`` bound picks one barycentric subcell out of m!, a
disjunction of such LPs over column blocks; its optimum is the best of the
block LPs.  The subproblems are tiny (a handful of rows, at most a few
dozen columns) but are solved tens of thousands of times inside the
branch-and-bound loop, so the implementation is the textbook dense tableau
[A | I | b; -c | 0 | 0]: each pivot is one row scale and one rank-1 update,
with no basis inverse and no refactorisation.  Pricing is Dantzig's, with a
switch to Bland's rule after too many degenerate pivots.
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
    """The simplex stalled past its iteration cap."""


def _simplex(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray | None, int]:
    """max c'x  s.t. a x <= b, x >= 0 (b >= 0), on the tableau [a | I | b; -c | 0 | 0].

    Returns (x, pivots), with x None when the LP is unbounded.
    """
    m, n = a.shape
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n:-1] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = -c
    d, xb, reduced = t[:m, :-1], t[:m, -1], t[m, :-1]  # views: columns, basic values, reduced costs
    basis = np.arange(n, n + m)
    degenerate = 0
    bland = False
    max_iter = 2000 + 200 * (2 * m + n)
    for it in range(max_iter):
        if bland:
            entering_candidates = np.flatnonzero(reduced < -_PIVOT_TOL)
            if entering_candidates.size == 0:
                break
            j = int(entering_candidates[0])
        else:
            j = int(np.argmin(reduced))
            if reduced[j] >= -_PIVOT_TOL:
                break
        pos = d[:, j] > _PIVOT_TOL
        if not np.any(pos):
            return None, it
        ratios = np.full(m, np.inf)
        ratios[pos] = xb[pos] / d[pos, j]
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
        t[r] /= t[r, j]
        col = t[:, j].copy()
        col[r] = 0.0
        t -= col[:, None] * t[r]
        np.maximum(xb, 0.0, out=xb)  # clip tiny negative round-off
    else:
        raise _Breakdown(f"simplex failed to converge within {max_iter} iterations")
    x = np.zeros(n + m)
    x[basis] = xb
    return x[:n], it


def solve_lp(p: LpProblem) -> LpSolution:
    """Dense primal simplex from the slack basis; deterministic for identical inputs."""
    x, iterations = _simplex(p.objective, p.matrix, p.rhs)
    if x is None:
        return LpSolution(status="unbounded", value=np.inf, x=None, iterations=iterations)
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
        c = lp.objective[cols]
        x_block, pivots = _simplex(c, lp.matrix[:, cols], lp.rhs)
        iterations += pivots
        if x_block is None:
            return LpSolution(status="unbounded", value=np.inf, x=None, iterations=iterations)
        value = float(c @ x_block)
        if best is None or value > best.value:
            x = np.zeros(lp.n_vars)
            x[cols] = x_block
            best = LpSolution(status="optimal", value=value, x=x)
    return LpSolution(status="optimal", value=best.value, x=best.x, iterations=iterations)
