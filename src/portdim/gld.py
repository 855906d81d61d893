"""Multistart projected gradient Langevin dynamics for kurtosis minimization.

Each path iterates

    w_{k+1} = P( w_k - lambda * grad kappa(w_k) + sqrt(2 lambda / beta) eps_{k+1} )

where P is the Euclidean projection onto the weight simplex, kappa is the
portfolio kurtosis ratio and the temperature follows the heuristic
beta = 2 lambda n^2 / c^2.  Paths start from independent uniform draws on
the simplex; the per-path argmin over all n_iter + 1 recorded iterates is
kept, the overall winner optionally gets a deterministic projected
gradient descent polish, and the final answer is the better of the two.

Precision: the co-moments are first rescaled to unit variance by a power of
two (``unit_scaled``, exact), and each step's kurtosis and gradient are
evaluated in float32 when the covariance's condition number is at most
``_FLOAT32_MAX_COND``, in float64 otherwise.  The noise eps is drawn as
float32 standard normals, into one reused 4 MB buffer (69 iterations per
chunk at 1000 paths x 15 assets); the noise term sigma * eps, with
sigma = c / n (the closed form of sqrt(2 lambda / beta)), states, projection
and the per-path best values are float64.  The winner is re-evaluated in
float64, so every kurtosis returned for a weight vector is that vector's
double precision kurtosis.

Randomness: path p owns the Philox substream spawned from
``(seed, (GLD_STREAM, p))`` and consumes first n - 1 uniforms for its
start, then n float32 normals per iteration (numpy's ziggurat sampler), so
runs are bit-reproducible for any noise chunk, any path batching and any
thread layout, and extending n_sim or n_iter preserves a shared prefix.

With the ``portdim.gld`` logger at DEBUG, each noise chunk logs the
iterations done, the best kurtosis so far and the support size of the best
state; nothing is formatted when that level is off.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .comoments import (
    CoMomentSet,
    Weights,
    _check_counts,
    _KernelMoments,
    batch_kurtosis_and_gradient,
    kurtosis_gradient,
    portfolio_kurtosis,
    unit_scaled,
)

__all__ = [
    "GldConfig",
    "GldResult",
    "FinalIterateSummary",
    "project_rows",
    "sample_uniform_simplex",
    "check_record_paths",
    "multistart",
    "local_descent",
]

#: substream tag for the Langevin solver (the simulator uses 0)
GLD_STREAM = 1

_HIST_BINS = 200

#: bytes of the float32 Langevin noise buffer, which holds as many
#: iterations of every path's noise as fit (at least one): 69 at 1000 paths
#: of 15 assets
_NOISE_BUFFER_BYTES = 4 << 20

_log = logging.getLogger(__name__)

#: largest condition number of the covariance at which the Langevin step
#: runs in float32: over 2e4 random points of 5-asset t(6) universes, the
#: worst float32 gradient error relative to its norm was 4.9e-5, 2.3e-4 and
#: 1.5e-3 at conditions 6, 502 and 5.1e3 (homogeneous rho 0.5, 0.99, 0.999)
_FLOAT32_MAX_COND = 1e3

#: largest rounding error, n eps max|v|, of the total of a row that project_rows accepts
_PROJECTION_TOL = 1e-6

#: sufficient-decrease factor of the descents' backtracking line searches
_ARMIJO = 1e-4
#: stationarity tolerance of local_descent
_DESCENT_GRAD_TOL = 1e-8
_DESCENT_MAX_ITER = 50_000


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
        if not (0.0 < self.lam < math.inf):
            raise ValueError(f"step size lam must be positive and finite, got {self.lam!r}")
        if not (0.0 < self.c < math.inf):
            raise ValueError(f"temperature scale c must be positive and finite, got {self.c!r}")
        _check_counts(("n_sim", self.n_sim, 1), ("n_iter", self.n_iter, 0), ("seed", self.seed, 0))


@dataclass(frozen=True)
class FinalIterateSummary:
    """Per-asset histograms of the final iterates across paths."""

    bin_edges: np.ndarray  # (201,)
    counts: np.ndarray  # (N, 200)


@dataclass(frozen=True)
class GldResult:
    """Multistart output.

    ``best_kurtosis`` and ``pre_polish_kurtosis`` are float64 kurtoses of the
    returned weights and of the Langevin winner.  ``path_best_values`` (each
    path's least kurtosis) and ``best_so_far`` (after each iteration, the
    least of them so far) are values of the step's precision, ``precision``:
    single-precision values stored as float64 when it is ``"float32"``.  The
    noise behind them is float32 normals (69 iterations per 4 MB chunk at
    1000 paths x 15 assets), scaled by sigma in float64.
    """

    best_weights: Weights
    best_kurtosis: float
    best_path: int
    path_best_values: np.ndarray  # (n_sim,)
    final_summary: FinalIterateSummary
    evaluations: int
    pre_polish_kurtosis: float
    polish_applied: bool
    best_so_far: np.ndarray  # (n_iter + 1,)
    precision: str
    recorded_paths: dict[int, np.ndarray] = field(default_factory=dict)


def project_rows(points: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the standard simplex.

    Sort-threshold algorithm: with u the coordinates sorted descending and
    rho the largest j such that u_j + (1 - sum_{i<=j} u_i)/j > 0, the
    projection is max(v + theta, 0) with theta = (1 - sum_{i<=rho} u_i)/rho.
    Produces exact zeros on the inactive coordinates.  The rounding of the
    sums moves each row's total by up to about n eps max|v|, so input that
    is not finite, or so large that this exceeds ``_PROJECTION_TOL``, raises
    ``ValueError``.
    """
    v = np.atleast_2d(np.asarray(points, dtype=float))
    n = v.shape[1]
    size = float(np.abs(v).max(initial=0.0))
    if not math.isfinite(size):
        raise ValueError("projection input contains non-finite entries")
    if n * np.finfo(float).eps * size > _PROJECTION_TOL:
        raise ValueError(f"projection input of size {size:.3g} is too large to land on the simplex in double precision")
    u = -np.sort(-v, axis=1)
    cumsum = np.cumsum(u, axis=1)
    js = np.arange(1, n + 1)
    positive = u + (1.0 - cumsum) / js > 0.0
    rho = n - 1 - np.argmax(positive[:, ::-1], axis=1)  # last True per row
    theta = (1.0 - cumsum[np.arange(v.shape[0]), rho]) / (rho + 1.0)
    return np.maximum(v + theta[:, None], 0.0)


def sample_uniform_simplex(n: int, rng: np.random.Generator) -> Weights:
    """Uniform draw on the (n-1)-simplex via sorted-uniform spacings."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return Weights(_uniform_simplex_rows(n, [rng])[0])


def _uniform_simplex_rows(n: int, gens: list[np.random.Generator]) -> np.ndarray:
    """One uniform draw on the (n-1)-simplex per generator, as rows.

    Each generator's n - 1 uniforms fill its row of cuts between 0 and 1;
    all rows are then sorted, differenced and normalised at once.
    """
    cuts = np.zeros((len(gens), n + 1))
    cuts[:, n] = 1.0
    for row, gen in zip(cuts, gens):
        gen.random(out=row[1:n])
    cuts.sort(axis=1)
    w = np.diff(cuts, axis=1)
    return w / w.sum(axis=1, keepdims=True)


def check_record_paths(record_paths: tuple[int, ...], n_sim: int) -> None:
    """Raise ``ValueError`` naming every path index outside [0, n_sim)."""
    outside = sorted({p for p in record_paths if not 0 <= p < n_sim})
    if outside:
        raise ValueError(f"record_paths {outside} outside the path range [0, {n_sim})")


def multistart(
    c: CoMomentSet,
    cfg: GldConfig,
    record_paths: tuple[int, ...] = (),
) -> GldResult:
    """Run n_sim independent Langevin paths and return the overall argmin.

    Paths execute in lockstep as one batch; per-path noise is drawn from
    that path's own substream in iteration chunks that keep the float32
    noise buffer within 4 MB (one iteration at least), which is
    bit-identical to stepping the path sequentially.  ``record_paths``
    lists path indices in [0, n_sim) whose full (n_iter + 1, N) weight
    trajectories should be returned; any other index raises ``ValueError``.
    The step's precision is set once per run, as the module docstring says.
    """
    check_record_paths(record_paths, cfg.n_sim)
    c = unit_scaled(c)[0]
    n = c.n_assets
    if np.linalg.cond(c.m2) <= _FLOAT32_MAX_COND:
        step_moments = _KernelMoments(c.m2.astype(np.float32), c.m4_gram.astype(np.float32))
    else:
        step_moments = c
    # sqrt(2 lam / beta) at beta = 2 lam n^2 / c^2, as a float64
    # scalar so that sigma * eps is formed in float64
    sigma = np.float64(cfg.c / n)

    gens = [
        np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(GLD_STREAM, p))))
        for p in range(cfg.n_sim)
    ]
    states = _uniform_simplex_rows(n, gens)

    traces = {p: np.empty((cfg.n_iter + 1, n)) for p in set(record_paths)}
    for p in traces:
        traces[p][0] = states[p]

    kurt, grad = batch_kurtosis_and_gradient(states, step_moments)
    best_values = kurt.astype(float)
    best_states = states.copy()
    best_so_far = np.empty(cfg.n_iter + 1)
    best_so_far[0] = best_values.min()
    evaluations = cfg.n_sim

    chunk_iters = max(1, _NOISE_BUFFER_BYTES // (cfg.n_sim * n * 4))
    noise = np.empty((cfg.n_sim, min(chunk_iters, cfg.n_iter), n), dtype=np.float32)
    for start_iter in range(0, cfg.n_iter, chunk_iters):
        chunk = min(chunk_iters, cfg.n_iter - start_iter)
        for p, gen in enumerate(gens):
            gen.standard_normal(out=noise[p, :chunk], dtype=np.float32)
        for k in range(chunk):
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # the projection rejects a step that overflows
                    states = project_rows(states - cfg.lam * grad + sigma * noise[:, k, :])
            except ValueError as err:
                raise ValueError(f"Langevin step {start_iter + k + 1} leaves the finite range: {err}") from None
            kurt, grad = batch_kurtosis_and_gradient(states, step_moments)
            evaluations += cfg.n_sim
            improved = kurt < best_values
            best_values[improved] = kurt[improved]
            best_states[improved] = states[improved]
            best_so_far[start_iter + k + 1] = best_values.min()
            for p in traces:
                traces[p][start_iter + k + 1] = states[p]
        if _log.isEnabledFor(logging.DEBUG):
            leader = int(np.argmin(best_values))
            _log.debug(
                "%d of %d iterations: best kurtosis %.9g, support size %d",
                start_iter + chunk,
                cfg.n_iter,
                best_values[leader],
                np.count_nonzero(best_states[leader]),
            )

    winner = int(np.argmin(best_values))  # ties resolve to the lowest path index
    incumbent = best_states[winner] / best_states[winner].sum()
    incumbent_value = portfolio_kurtosis(incumbent, c)

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
        best_so_far=best_so_far,
        precision=step_moments.m2.dtype.name,
        recorded_paths=traces,
    )


def _projected_descent(
    objective,
    gradient,
    w: np.ndarray,
    grad_tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, int]:
    """Projected gradient descent on the simplex with Barzilai-Borwein steps.

    The trial step is the BB spectral estimate, halved until the Armijo
    decrease against the projected displacement holds.  Stops when the
    unit-step gradient-projection displacement falls below ``grad_tol``,
    after ``max_iter`` steps, or when no representable progress is left:
    the line search is exhausted, the accepted point equals the current one,
    or five steps in a row change the value by less than 1e-16 relative.
    Returns (weights, value, objective evaluations).
    """
    value = objective(w)
    grad = gradient(w)
    evaluations = 1
    step = 1.0
    stall = 0
    for _ in range(max_iter):
        mapped = project_rows((w - grad)[None, :])[0]
        if np.linalg.norm(w - mapped) <= grad_tol:
            break
        t = step
        while True:
            cand = project_rows((w - t * grad)[None, :])[0]
            cand_value = objective(cand)
            evaluations += 1
            if cand_value <= value + _ARMIJO * float(grad @ (cand - w)):
                break
            t *= 0.5
            if t <= 1e-18:
                return w, value, evaluations  # line search exhausted
        if np.array_equal(cand, w):
            break
        if abs(value - cand_value) <= 1e-16 * (1.0 + abs(value)):
            stall += 1
            if stall >= 5:
                return cand, cand_value, evaluations
        else:
            stall = 0
        cand_grad = gradient(cand)
        s = cand - w
        y = cand_grad - grad
        sy = float(s @ y)
        step = min(max(float(s @ s) / sy if sy > 1e-300 else 1.0, 1e-10), 1e3)
        w, value, grad = cand, cand_value, cand_grad
    return w, value, evaluations


def local_descent(c: CoMomentSet, w0: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Projected gradient descent of kurtosis with BB steps and Armijo halving.

    Deterministic local kurtosis minimizer used both as the multistart
    polish and as the pure "local solver" baseline; the BB trial step keeps
    the iteration count reasonable on the badly conditioned kurtosis
    surface.  Returns (weights, kurtosis, evaluation count).
    """
    w = project_rows(np.asarray(w0, dtype=float)[None, :])[0]
    w, _, evaluations = _projected_descent(
        lambda v: portfolio_kurtosis(v, c),
        lambda v: kurtosis_gradient(v, c),
        w / w.sum(),
        grad_tol=_DESCENT_GRAD_TOL,
        max_iter=_DESCENT_MAX_ITER,
    )
    w = w / w.sum()
    return w, portfolio_kurtosis(w, c), evaluations
