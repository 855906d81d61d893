"""Langevin helpers that only the tests use: the temperature heuristic
behind ``gld.multistart``'s noise scale, an interior-point local minimizer
that criterion 06 runs from random starts, and the Langevin step's
projection and kernel as they were written before their passes were
fused, which the tests hold the library to bit for bit.
"""

import numpy as np

from portdim import comoments as cm
from portdim import gld

#: barrier_descent's barrier weights, factor-10 stages from 0.1 down to
#: 1e-9, each of at most _BARRIER_MAX_ITER Newton steps
_MU_LADDER = np.maximum(0.1 * 10.0 ** -np.arange(9), 1e-9)
_BARRIER_MAX_ITER = 200


def temperature(lam: float, n_assets: int, c: float) -> float:
    """Langevin inverse temperature heuristic beta = 2 lam n^2 / c^2."""
    if lam <= 0.0 or c <= 0.0 or n_assets < 1:
        raise ValueError("temperature needs lam > 0, c > 0, n_assets >= 1")
    return 2.0 * lam * n_assets**2 / c**2


def reference_project_rows(points: np.ndarray) -> np.ndarray:
    """``gld.project_rows`` with a descending sort by negation and a
    cumulative sum along each row."""
    v = np.atleast_2d(np.asarray(points, dtype=float))
    n = v.shape[1]
    size = float(np.abs(v).max(initial=0.0))
    if not np.isfinite(size):
        raise ValueError("projection input contains non-finite entries")
    if n * np.finfo(float).eps * size > gld._PROJECTION_TOL:
        raise ValueError(f"projection input of size {size:.3g} is too large to land on the simplex in double precision")
    u = -np.sort(-v, axis=1)
    cumsum = np.cumsum(u, axis=1)
    js = np.arange(1, n + 1)
    positive = u + (1.0 - cumsum) / js > 0.0
    rho = n - 1 - np.argmax(positive[:, ::-1], axis=1)  # last True per row
    theta = (1.0 - cumsum[np.arange(v.shape[0]), rho]) / (rho + 1.0)
    return np.maximum(v + theta[:, None], 0.0)


def reference_kurtosis_and_gradient(points: np.ndarray, c) -> tuple[np.ndarray, np.ndarray]:
    """``comoments.batch_kurtosis_and_gradient`` on a kernel that forms the
    pair products from one copy of the point columns and multiplies their
    weights 2 in last."""
    pts = np.asarray(points, dtype=c.m2.dtype)
    n_pts, n = pts.shape
    pair_i, pair_j, _, pair_of = cm._pair_layout(n)
    mult = np.where(pair_i == pair_j, 1.0, 2.0).astype(pts.dtype)
    cols = np.ascontiguousarray(pts.T)
    m2w = pts @ c.m2.T
    weighted = cols[pair_i] * cols[pair_j] * mult[:, None]
    half = c.m4_gram @ weighted
    a = half[pair_of].reshape(n, n, n_pts)
    variance = np.einsum("pi,pi->p", pts, m2w)
    mu4 = np.einsum("qp,qp->p", half, weighted)
    grad_mu4 = 4.0 * np.einsum("ijp,jp->pi", a, cols)
    g = variance**2
    return mu4 / g, grad_mu4 / g[:, None] - (4.0 * mu4 / (g * variance))[:, None] * m2w


def barrier_descent(c: cm.CoMomentSet, w0: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Log-barrier interior-point local kurtosis minimizer.

    Minimizes kappa(w) - mu * sum(log w) on the simplex for a geometric
    ladder of barrier weights mu (factor-10 steps from 0.1 down to 1e-9),
    warm-starting each stage from the previous one.  Each
    stage runs damped Newton on the sum-zero subspace: the reduced Hessian
    gets an eigenvalue-shift ridge when indefinite, steps are capped by a
    0.99 fraction-to-boundary rule and Armijo halving enforces decrease,
    so iterates stay strictly inside the simplex.

    The first mu is large enough for the barrier to dominate the
    kurtosis surface at the first stage (the analytic center of the
    simplex is the equal-weight point); the mu-path from any interior
    start then tracks the *interior* stationary point of kappa as mu
    shrinks.  This is the classic interior-point behaviour — distinct from
    ``gld.local_descent``, whose projected iterates can land on (and stay
    on) a face.  Returns (weights, kurtosis, evaluations).
    """
    w = np.asarray(w0, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("barrier descent needs a strictly interior start")
    w = w / w.sum()
    n = w.size
    # orthonormal basis of the sum-zero subspace
    basis = np.linalg.svd(np.eye(n) - 1.0 / n)[0][:, : n - 1]
    evaluations = 0
    for mu in _MU_LADDER:
        mu = float(mu)

        def objective(v: np.ndarray) -> float:
            return cm.portfolio_kurtosis(v, c) - mu * float(np.log(v).sum())

        value = objective(w)
        evaluations += 1
        stall = 0
        for _ in range(_BARRIER_MAX_ITER):
            grad = cm.kurtosis_gradient(w, c) - mu / w
            reduced_grad = basis.T @ grad
            if np.linalg.norm(reduced_grad) <= max(gld._DESCENT_GRAD_TOL, 1e-3 * mu):
                break
            hess = cm.kurtosis_hessian(w, c) + np.diag(mu / w**2)
            reduced_hess = basis.T @ hess @ basis
            # ridge the smallest eigenvalue up so the Newton direction is a
            # guaranteed descent direction even where kappa is nonconvex
            eigs = np.linalg.eigvalsh(reduced_hess)
            scale = max(float(np.abs(eigs).max()), 1.0)
            ridge = max(0.0, -float(eigs[0])) * 1.1 + 1e-12 * scale
            d = basis @ np.linalg.solve(
                reduced_hess + ridge * np.eye(n - 1), -reduced_grad
            )
            neg = d < 0.0
            t_max = 0.99 * float(np.min(-w[neg] / d[neg])) if np.any(neg) else np.inf
            t = min(1.0, t_max)
            accepted = False
            while t > 1e-14:
                cand = w + t * d
                cand_value = objective(cand)
                evaluations += 1
                if cand_value <= value + 1e-4 * t * float(grad @ d):
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                break
            if abs(value - cand_value) <= 1e-16 * (1.0 + abs(value)):
                stall += 1
                if stall >= 3:
                    w, value = cand, cand_value
                    break
            else:
                stall = 0
            w, value = cand, cand_value
    w = w / w.sum()
    return w, cm.portfolio_kurtosis(w, c), evaluations
