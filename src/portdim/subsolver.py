"""Lockstep dense tableau simplex for the packing LPs of the branch-and-bound cell bounds.

Every cell bound is a packing LP, max c'x s.t. A x <= b, x >= 0 with b >= 0,
so the origin is feasible and the simplex starts from the slack basis with
no phase 1.  The ``milp`` bound picks one barycentric subcell out of m!, a
disjunction of such LPs over column blocks; its optimum is the best of the
block LPs.  The subproblems are tiny (a handful of rows, at most a few
dozen columns) but are solved by the hundred thousand inside the
branch-and-bound loop, so they are solved as a stack: one textbook dense
tableau [A | I | b; -c | 0 | 0] per LP, all pivoted in lockstep, each
pivot one row scale and one rank-1 update per LP with no basis inverse.
Pricing is Dantzig's, with a switch to Bland's rule after too many
degenerate pivots, and every choice is made per LP, so a stacked LP takes
exactly the pivots, and returns bitwise the point, that it would alone.
Each tableau row is first multiplied by the power of two that puts its largest
|a| (or |c|) entry in [1, 2): exact, prices unchanged, pivot tolerance relative.
LPs that finish drop out of the stack.  ``_simplex`` solves a stack and
``_best_blocks`` its best-of-blocks disjunction; ``bbsolve`` builds every
stack with rhs 1 and calls these two.  ``solve_lp`` and ``solve_milp`` are
their one-problem views, which the branch and bound never calls: they stay
only because the benchmark's tracer patches them by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LpSolution",
    "solve_lp",
    "solve_milp",
]

_PIVOT_TOL = 1e-9
#: consecutive degenerate pivots per row after which an LP prices by Bland's rule
_BLAND_AFTER = 50


@dataclass(frozen=True)
class LpSolution:
    """What ``solve_lp`` and ``solve_milp`` return; the benchmark's tracer counts its pivots and statuses."""

    status: str  # 'optimal' | 'unbounded'
    value: float
    x: np.ndarray | None
    iterations: int = 0


class _Breakdown(RuntimeError):
    """An LP of the stack stalled past its pivot cap."""

    def __init__(self, problem: int, cap: int, context: str = "") -> None:
        self.problem = problem
        self.cap = cap
        where = f" ({context})" if context else ""
        super().__init__(f"simplex problem {problem} of the stack did not converge within {cap} pivots{where}")


def _simplex(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """max c'x  s.t. a x <= b, x >= 0 (b >= 0) for a stack of LPs, in lockstep.

    ``c`` is (B, n), ``a`` (B, m, n) and ``b`` (B, m).  Each LP runs on its
    own tableau [a | I | b; -c | 0 | 0] from the slack basis with its own
    pivot rule state, and leaves the stack when it is optimal or unbounded.
    Returns (x, pivots, unbounded); the x row of an unbounded LP is its last
    basic point.
    Raises ``_Breakdown`` naming the first LP still pivoting after
    2000 + 200 (2m + n) pivots.
    """
    n_lp, m, n = a.shape
    t = np.zeros((n_lp, m + 1, n + m + 1))
    t[:, :m, :n] = a
    t[:, :m, n:-1] = np.eye(m)
    t[:, :m, -1] = b
    t[:, m, :n] = -c
    # the largest |a| (|c|) entry of each row, over the leading axis of a C-ordered copy: fast for short rows
    row_max = np.abs(t[:, :, :n].transpose(2, 0, 1), order="C").max(axis=0, initial=0.0)
    t *= np.ldexp(1.0, 1 - np.frexp(row_max)[1])[:, :, None]
    x = np.zeros((n_lp, n + m))
    pivots = np.zeros(n_lp, dtype=int)
    unbounded = np.zeros(n_lp, dtype=bool)
    # per LP still pivoting: its stack index, basis, Bland flag and last nondegenerate pivot
    live = np.arange(n_lp)
    basis = np.tile(np.arange(n, n + m), (n_lp, 1))
    bland = np.zeros(n_lp, dtype=bool)
    last_moved = np.full(n_lp, -1)
    k = live.copy()
    degenerate_run = _BLAND_AFTER * m
    cap = 2000 + 200 * (2 * m + n)
    for it in range(cap):
        reduced = t[:, m, :-1]
        j = reduced.argmin(axis=1)
        if it > degenerate_run:  # no LP can have had more degenerate pivots in a row before
            bland |= it - 1 - last_moved > degenerate_run
            if bland.any():  # the first improving column instead of the most improving one
                j[bland] = (reduced[bland] < -_PIVOT_TOL).argmax(axis=1)
        col = t[k, :, j]  # the entering column, its reduced cost last
        d = col[:, :m]
        done = (col[:, m] >= -_PIVOT_TOL) | (d.max(axis=1, initial=-np.inf) <= _PIVOT_TOL)
        if done.any():
            finished = live[done]
            pivots[finished] = it
            unbounded[finished] = col[done, m] < -_PIVOT_TOL
            x[finished[:, None], basis[done]] = t[done, :m, -1]
            keep = ~done
            if not keep.any():
                break
            t, live, basis, bland, last_moved, j, col = (v[keep] for v in (t, live, basis, bland, last_moved, j, col))
            d = col[:, :m]
            k = k[: live.size]
        xb = t[:, :m, -1]
        ratios = np.full(d.shape, np.inf)
        np.divide(xb, d, out=ratios, where=d > _PIVOT_TOL)
        theta = ratios.min(axis=1)
        # leaving: smallest ratio, ties broken by lowest variable index (Bland-safe)
        r = np.where(ratios <= theta[:, None] + 1e-15, basis, n + m).argmin(axis=1)
        last_moved[theta > 1e-12] = it
        basis[k, r] = j
        row = t[k, r] / col[k, r][:, None]
        t[k, r] = row
        col[k, r] = 0.0
        t -= col[:, :, None] * row[:, None, :]
        np.maximum(xb, 0.0, out=xb)  # clip tiny negative round-off
    else:
        raise _Breakdown(int(live[0]), cap)
    return x[:, :n], pivots, unbounded


def _best_blocks(
    c: np.ndarray, a: np.ndarray, b: np.ndarray, blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For each of a stack of LPs, the best of its LPs over the column blocks.

    ``blocks`` is a (Q, k) array of column indices; the B·Q block LPs are
    one stack.  Returns (value, best, x, pivots, unbounded): per LP the
    value and index of the first best block and that block's point (B, k),
    and per block LP (B, Q) its pivots and whether it is unbounded.
    """
    n_lp, m, _ = a.shape
    n_blocks, size = blocks.shape
    cb = c[:, blocks]
    ab = a[:, :, blocks].transpose(0, 2, 1, 3)
    x, pivots, unbounded = _simplex(
        cb.reshape(n_lp * n_blocks, size), ab.reshape(n_lp * n_blocks, m, size), np.repeat(b, n_blocks, axis=0)
    )
    x = x.reshape(n_lp, n_blocks, size)
    values = np.einsum("lqi,lqi->lq", cb, x)
    best = values.argmax(axis=1)
    rows = np.arange(n_lp)
    return (
        values[rows, best],
        best,
        x[rows, best],
        pivots.reshape(n_lp, n_blocks),
        unbounded.reshape(n_lp, n_blocks),
    )


def solve_lp(objective: np.ndarray, matrix: np.ndarray, rhs: np.ndarray) -> LpSolution:
    """``_simplex`` on the one float LP max objective'x s.t. matrix x <= rhs, x >= 0."""
    x, pivots, unbounded = _simplex(objective[None], matrix[None], rhs[None])
    iterations = int(pivots[0])
    if unbounded[0]:
        return LpSolution(status="unbounded", value=np.inf, x=None, iterations=iterations)
    return LpSolution(status="optimal", value=float(objective @ x[0]), x=x[0], iterations=iterations)


def solve_milp(objective: np.ndarray, matrix: np.ndarray, rhs: np.ndarray, blocks: np.ndarray) -> LpSolution:
    """``_best_blocks`` on one float LP and its (Q, k) column blocks, with the pivots of all of them.

    The first block wins ties; the returned point is zero off its block.
    When a block LP is unbounded, the pivots are counted up to the first one.
    """
    value, best, x_block, pivots, unbounded = _best_blocks(objective[None], matrix[None], rhs[None], blocks)
    if unbounded.any():
        first = int(np.flatnonzero(unbounded[0])[0])
        return LpSolution(status="unbounded", value=np.inf, x=None, iterations=int(pivots[0, : first + 1].sum()))
    x = np.zeros(objective.size)
    x[blocks[best[0]]] = x_block[0]
    return LpSolution(status="optimal", value=float(value[0]), x=x, iterations=int(pivots.sum()))
