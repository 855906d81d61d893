"""Multistart projected gradient Langevin dynamics for kurtosis minimization.

Each path iterates

    w_{k+1} = P( w_k - lambda * grad kappa(w_k) + sqrt(2 lambda / beta) eps_{k+1} )

where P is the Euclidean projection onto the weight simplex, kappa is the
portfolio kurtosis ratio and the temperature follows the heuristic
beta = 2 lambda n^2 / c^2.  Paths start from independent uniform draws on
the simplex; the per-path argmin over all n_iter + 1 recorded iterates is
kept, the overall winner optionally gets a deterministic projected
gradient descent polish, and the final answer is the better of the two.

Randomness: path p owns the Philox substream spawned from
``(seed, (GLD_STREAM, p))`` and consumes first n - 1 uniforms for its
start, then n uniforms per iteration (turned Gaussian by the inverse
normal CDF), so runs are bit-reproducible for any path batching and any
thread layout, and extending n_sim or n_iter preserves a shared prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .comoments import (
    CoMomentSet,
    Weights,
    batch_kurtosis_and_gradient,
    kurtosis_gradient,
    kurtosis_hessian,
    portfolio_kurtosis,
)

__all__ = [
    "GldConfig",
    "GldResult",
    "FinalIterateSummary",
    "project_simplex",
    "project_rows",
    "sample_uniform_simplex",
    "temperature",
    "gld_step",
    "multistart",
    "local_descent",
    "barrier_descent",
]

#: substream tag for the Langevin solver (the simulator uses 0)
GLD_STREAM = 1

_HIST_BINS = 200

_NOISE_CHUNK_ITERS = 512


@dataclass(frozen=True)
class GldConfig:
    """Run parameters of the multistart solver."""

    lam: float = 0.01
    c: float = 0.06
    n_sim: int = 1000
    n_iter: int = 10_000
    seed: int = 0
    polish: bool = True

    def __post_init__(self) -> None:
        if not (self.lam > 0.0):
            raise ValueError(f"step size lam must be positive, got {self.lam!r}")
        if not (self.c > 0.0):
            raise ValueError(f"temperature scale c must be positive, got {self.c!r}")
        if self.n_sim < 1:
            raise ValueError(f"n_sim must be >= 1, got {self.n_sim!r}")
        if self.n_iter < 0:
            raise ValueError(f"n_iter must be >= 0, got {self.n_iter!r}")


@dataclass(frozen=True)
class FinalIterateSummary:
    """Per-asset histograms of the final iterates across paths."""

    bin_edges: np.ndarray  # (201,)
    counts: np.ndarray  # (N, 200)


@dataclass(frozen=True)
class GldResult:
    best_weights: Weights
    best_kurtosis: float
    best_path: int
    path_best_values: np.ndarray  # (n_sim,)
    final_summary: FinalIterateSummary
    evaluations: int
    pre_polish_kurtosis: float
    polish_applied: bool
    recorded_paths: dict[int, np.ndarray] = field(default_factory=dict)


def project_rows(points: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the standard simplex.

    Sort-threshold algorithm: with u the coordinates sorted descending and
    rho the largest j such that u_j + (1 - sum_{i<=j} u_i)/j > 0, the
    projection is max(v + theta, 0) with theta = (1 - sum_{i<=rho} u_i)/rho.
    Produces exact zeros on the inactive coordinates.
    """
    v = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(v)):
        raise ValueError("projection input contains non-finite entries")
    n = v.shape[1]
    u = -np.sort(-v, axis=1)
    cumsum = np.cumsum(u, axis=1)
    js = np.arange(1, n + 1)
    positive = u + (1.0 - cumsum) / js > 0.0
    rho = n - 1 - np.argmax(positive[:, ::-1], axis=1)  # last True per row
    theta = (1.0 - cumsum[np.arange(v.shape[0]), rho]) / (rho + 1.0)
    return np.maximum(v + theta[:, None], 0.0)


def project_simplex(v: np.ndarray) -> Weights:
    """Euclidean-nearest simplex point of a single vector."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got shape {arr.shape}")
    out = project_rows(arr[None, :])[0]
    # the threshold construction sums to 1 up to round-off; renormalize the
    # last ulp so the Weights invariant (sum within 1e-12) always holds
    out = out / out.sum()
    return Weights(out)


def sample_uniform_simplex(n: int, rng: np.random.Generator) -> Weights:
    """Uniform draw on the (n-1)-simplex via sorted-uniform spacings."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    cuts = np.sort(rng.random(n - 1))
    w = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
    return Weights(w / w.sum())


def temperature(lam: float, n_assets: int, c: float) -> float:
    """Langevin inverse temperature heuristic beta = 2 lam n^2 / c^2."""
    if lam <= 0.0 or c <= 0.0 or n_assets < 1:
        raise ValueError("temperature needs lam > 0, c > 0, n_assets >= 1")
    return 2.0 * lam * n_assets**2 / c**2


def _gaussian_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # inverse-CDF transform keeps streams identical however draws are batched
    return ndtri(np.clip(rng.random(shape), 1e-300, None))


def gld_step(w: Weights | np.ndarray, c: CoMomentSet, cfg: GldConfig, rng: np.random.Generator) -> Weights:
    """One Langevin iterate from state ``w``; consumes n uniforms from ``rng``."""
    v = np.asarray(w, dtype=float)
    grad = kurtosis_gradient(v, c)
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("kurtosis gradient is non-finite")
    beta = temperature(cfg.lam, c.n_assets, cfg.c)
    sigma = math.sqrt(2.0 * cfg.lam / beta)
    eps = _gaussian_noise(rng, (c.n_assets,))
    return project_simplex(v - cfg.lam * grad + sigma * eps)


def multistart(
    c: CoMomentSet,
    cfg: GldConfig,
    record_paths: tuple[int, ...] = (),
) -> GldResult:
    """Run n_sim independent Langevin paths and return the overall argmin.

    Paths execute in lockstep as one batch; per-path noise is drawn from
    that path's own substream in iteration chunks, which is bit-identical
    to stepping the path sequentially.  ``record_paths`` lists path indices
    whose full (n_iter + 1, N) weight trajectories should be returned.
    """
    n = c.n_assets
    beta = temperature(cfg.lam, n, cfg.c)
    sigma = math.sqrt(2.0 * cfg.lam / beta)
    record_set = set(record_paths)

    gens = [
        np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(GLD_STREAM, p))))
        for p in range(cfg.n_sim)
    ]
    states = np.empty((cfg.n_sim, n))
    for p, gen in enumerate(gens):
        states[p] = sample_uniform_simplex(n, gen).w

    traces = {p: np.empty((cfg.n_iter + 1, n)) for p in record_set if p < cfg.n_sim}
    for p in traces:
        traces[p][0] = states[p]

    kurt, grad = batch_kurtosis_and_gradient(states, c)
    best_values = kurt.copy()
    best_states = states.copy()
    evaluations = cfg.n_sim

    for start_iter in range(0, cfg.n_iter, _NOISE_CHUNK_ITERS):
        chunk = min(_NOISE_CHUNK_ITERS, cfg.n_iter - start_iter)
        noise = np.empty((cfg.n_sim, chunk, n))
        for p, gen in enumerate(gens):
            noise[p] = _gaussian_noise(gen, (chunk, n))
        for k in range(chunk):
            states = project_rows(states - cfg.lam * grad + sigma * noise[:, k, :])
            kurt, grad = batch_kurtosis_and_gradient(states, c)
            evaluations += cfg.n_sim
            improved = kurt < best_values
            best_values[improved] = kurt[improved]
            best_states[improved] = states[improved]
            for p in traces:
                traces[p][start_iter + k + 1] = states[p]

    winner = int(np.argmin(best_values))  # ties resolve to the lowest path index
    incumbent = best_states[winner] / best_states[winner].sum()
    incumbent_value = float(best_values[winner])

    edges = np.linspace(0.0, 1.0, _HIST_BINS + 1)
    counts = np.stack([np.histogram(states[:, i], bins=edges)[0] for i in range(n)])
    summary = FinalIterateSummary(bin_edges=edges, counts=counts)

    final_w, final_value = incumbent, incumbent_value
    polish_applied = False
    if cfg.polish:
        polished, polished_value, pol_evals = local_descent(c, incumbent)
        evaluations += pol_evals
        if polished_value < incumbent_value:
            final_w, final_value = polished, polished_value
            polish_applied = True

    return GldResult(
        best_weights=Weights(final_w),
        best_kurtosis=final_value,
        best_path=winner,
        path_best_values=best_values,
        final_summary=summary,
        evaluations=evaluations,
        pre_polish_kurtosis=incumbent_value,
        polish_applied=polish_applied,
        recorded_paths=traces,
    )


def _projected_descent(
    objective,
    gradient,
    w: np.ndarray,
    grad_tol: float,
    max_iter: int,
    armijo: float = 1e-4,
) -> tuple[np.ndarray, float, int, bool]:
    """Projected gradient descent on the simplex with Barzilai-Borwein steps.

    The trial step is the BB spectral estimate, halved until the Armijo
    decrease against the projected displacement holds.  Stops when the
    unit-step gradient-projection displacement falls below ``grad_tol``, or
    when no representable progress is left: the line search is exhausted,
    the accepted point equals the current one, or five steps in a row
    change the value by less than 1e-16 relative.  Returns (weights, value,
    objective evaluations, stopped before ``max_iter``).
    """
    value = objective(w)
    grad = gradient(w)
    evaluations = 1
    step = 1.0
    stall = 0
    for _ in range(max_iter):
        mapped = project_rows((w - grad)[None, :])[0]
        if np.linalg.norm(w - mapped) <= grad_tol:
            return w, value, evaluations, True
        t = step
        while True:
            cand = project_rows((w - t * grad)[None, :])[0]
            cand_value = objective(cand)
            evaluations += 1
            if cand_value <= value + armijo * float(grad @ (cand - w)):
                break
            t *= 0.5
            if t <= 1e-18:
                return w, value, evaluations, True  # line search exhausted
        if np.array_equal(cand, w):
            return w, value, evaluations, True
        if abs(value - cand_value) <= 1e-16 * (1.0 + abs(value)):
            stall += 1
            if stall >= 5:
                return cand, cand_value, evaluations, True
        else:
            stall = 0
        cand_grad = gradient(cand)
        s = cand - w
        y = cand_grad - grad
        sy = float(s @ y)
        step = min(max(float(s @ s) / sy if sy > 1e-300 else 1.0, 1e-10), 1e3)
        w, value, grad = cand, cand_value, cand_grad
    return w, value, evaluations, False


def local_descent(
    c: CoMomentSet,
    w0: np.ndarray,
    grad_tol: float = 1e-8,
    armijo: float = 1e-4,
    max_iter: int = 50_000,
) -> tuple[np.ndarray, float, int]:
    """Projected gradient descent of kurtosis with BB steps and Armijo halving.

    Deterministic local kurtosis minimizer used both as the multistart
    polish and as the pure "local solver" baseline; the BB trial step keeps
    the iteration count reasonable on the badly conditioned kurtosis
    surface.  Returns (weights, kurtosis, evaluation count).
    """
    w = project_rows(np.asarray(w0, dtype=float)[None, :])[0]
    w, _, evaluations, _ = _projected_descent(
        lambda v: portfolio_kurtosis(v, c),
        lambda v: kurtosis_gradient(v, c),
        w / w.sum(),
        grad_tol=grad_tol,
        max_iter=max_iter,
        armijo=armijo,
    )
    w = w / w.sum()
    return w, portfolio_kurtosis(w, c), evaluations


def barrier_descent(
    c: CoMomentSet,
    w0: np.ndarray,
    mu_start: float = 0.1,
    mu_end: float = 1e-9,
    grad_tol: float = 1e-8,
    max_iter: int = 200,
) -> tuple[np.ndarray, float, int]:
    """Log-barrier interior-point local kurtosis minimizer.

    Minimizes kappa(w) - mu * sum(log w) on the simplex for a geometric
    ladder of barrier weights mu (factor-10 steps from ``mu_start`` down to
    ``mu_end``), warm-starting each stage from the previous one.  Each
    stage runs damped Newton on the sum-zero subspace: the reduced Hessian
    gets an eigenvalue-shift ridge when indefinite, steps are capped by a
    0.99 fraction-to-boundary rule and Armijo halving enforces decrease,
    so iterates stay strictly inside the simplex.

    ``mu_start`` must be large enough for the barrier to dominate the
    kurtosis surface at the first stage (the analytic center of the
    simplex is the equal-weight point); the mu-path from any interior
    start then tracks the *interior* stationary point of kappa as mu
    shrinks.  This is the classic interior-point behaviour — distinct from
    :func:`local_descent`, whose projected iterates can land on (and stay
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
    n_stages = max(1, int(round(math.log10(mu_start / mu_end))) + 1)
    for mu in mu_start * 10.0 ** -np.arange(n_stages):
        mu = max(float(mu), mu_end)

        def objective(v: np.ndarray) -> float:
            return portfolio_kurtosis(v, c) - mu * float(np.log(v).sum())

        value = objective(w)
        evaluations += 1
        stall = 0
        for _ in range(max_iter):
            grad = kurtosis_gradient(w, c) - mu / w
            reduced_grad = basis.T @ grad
            if np.linalg.norm(reduced_grad) <= max(grad_tol, 1e-3 * mu):
                break
            hess = kurtosis_hessian(w, c) + np.diag(mu / w**2)
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
    return w, portfolio_kurtosis(w, c), evaluations
