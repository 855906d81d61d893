"""The branch-and-bound loop as it stood before the array-backed frontier,
kept as the reference the array loop of ``bbsolve.solve`` must reproduce
bit for bit.

Live cells sit in two heaps (best-first by (-ub, id), and ascending
(ub, id) for deletion) plus a dict from id to (vertices, ub, depth).  Each
round pops up to ``frontier`` parents and bounds their children as one
stack, then applies the children parent by parent: lower bound, push,
fathom, one history row.
"""

import heapq
import math
import time

import numpy as np

from portdim import bbsolve as bb
from portdim.comoments import Weights, _even_moments


def heap_solve(c, cfg, frontier):
    n = c.n_assets
    start_time = time.perf_counter()
    alpha = bb.alpha_floor(c)
    shrink = 1.0 - cfg.rho_tol

    lb = -math.inf
    incumbent = None
    created = 0
    fathomed = 0
    lp_pivots = 0
    max_depth = 0
    live_per_round = []
    heap = []
    deletions = []
    live = {}
    fathomed_cells = []
    lb_hist, ub_hist, frac_hist = [], [], []

    def bound_and_score(cells, per_group):
        nonlocal lp_pivots
        center = cells.mean(axis=1)
        ub, w, ok, pivots = bb._bound_cells(cells, center, c, alpha, cfg.bound_mode, cfg.n_c, created)
        lp_pivots += pivots
        points = np.stack([np.where(ok[:, None], w, center), center], axis=1).reshape(-1, per_group * 2, n)
        even = _even_moments(points.reshape(-1, n), c)
        scores = (even.variance**2 / even.mu4).reshape(points.shape[:2])
        scores[:, ::2][~ok.reshape(-1, per_group)] = -math.inf
        best = scores.argmax(axis=1)
        rows = np.arange(points.shape[0])
        return ub.tolist(), scores[rows, best].tolist(), points[rows, best]

    def push(vertices, ub, depth):
        nonlocal created, max_depth
        heapq.heappush(heap, (-ub, created))
        heapq.heappush(deletions, (ub, created))
        live[created] = (vertices, ub, depth)
        created += 1
        max_depth = max(max_depth, depth)

    def fathom_and_record(pending=0, pending_ub=-math.inf):
        nonlocal fathomed
        while deletions and shrink * deletions[0][0] <= lb:
            ub, cell_id = heapq.heappop(deletions)
            entry = live.pop(cell_id, None)
            if entry is None:
                continue
            fathomed += 1
            if cfg.collect_cells:
                fathomed_cells.append((bb.SimplexCell(entry[0], ub, entry[2], cell_id), lb))
        lb_hist.append(lb)
        ub_hist.append(max(-heap[0][0], pending_ub))
        frac_hist.append(fathomed / (fathomed + len(live) + pending))

    root = np.eye(n)[None]
    (root_ub,), (lb,), (incumbent,) = bound_and_score(root, 1)
    push(root[0], root_ub, 0)
    fathom_and_record()
    iteration = 0
    rounds = 0
    while True:
        if shrink * -heap[0][0] <= lb:
            status = "optimal"
            break
        if iteration >= cfg.max_iterations:
            status = "iteration_limit"
            break
        if time.perf_counter() - start_time > cfg.max_seconds:
            status = "time_limit"
            break

        live_per_round.append(len(live))
        parents = []
        take = min(frontier, cfg.max_iterations - iteration)
        while len(parents) < take and heap and shrink * -heap[0][0] > lb:
            parents.append(live.pop(heapq.heappop(heap)[1]))
        rounds += 1
        children = bb._bisect_cells(np.stack([vertices for vertices, _, _ in parents]))
        bounds, scores, points = bound_and_score(children, 2)
        for p, (_, parent_ub, depth) in enumerate(parents):
            if scores[p] > lb:
                lb, incumbent = scores[p], points[p]
            push(children[2 * p], min(bounds[2 * p], parent_ub), depth + 1)
            push(children[2 * p + 1], min(bounds[2 * p + 1], parent_ub), depth + 1)
            iteration += 1
            pending = len(parents) - p - 1
            fathom_and_record(pending, parents[p + 1][1] if pending else -math.inf)
    fathom_and_record()

    weights = Weights(np.clip(incumbent, 0.0, None) / np.clip(incumbent, 0.0, None).sum())
    return bb.BbResult(
        incumbent=weights,
        incumbent_value=lb,
        lower_bounds=np.asarray(lb_hist),
        upper_bounds=np.asarray(ub_hist),
        fraction_deleted=np.asarray(frac_hist),
        iterations=iteration,
        cells_created=created,
        cells_fathomed=fathomed,
        lp_pivots=lp_pivots,
        rounds=rounds,
        status=status,
        alpha=alpha,
        max_depth=max_depth,
        live_cells_per_round=np.asarray(live_per_round, dtype=int),
        bound_seconds=0.0,
        rest_seconds=0.0,
        fathomed_cells=tuple(fathomed_cells),
        live_cells=tuple(bb.SimplexCell(v, ub, depth, cell_id) for cell_id, (v, ub, depth) in live.items())
        if cfg.collect_cells
        else (),
    )
