"""Sample co-moment tensors and portfolio moment evaluation.

Central co-moments of an ``(T, N)`` return panel are estimated with the
biased (divide-by-T) estimator,

    m2[i,j]     = E[(r_i - mu_i)(r_j - mu_j)]
    s[i,j,k]    = E[(r_i - mu_i)(r_j - mu_j)(r_k - mu_k)]
    k[i,j,k,l]  = E[(r_i - mu_i)(r_j - mu_j)(r_k - mu_k)(r_l - mu_l)]

Only the unique elements (sorted index tuples) are computed and stored;
the familiar ``N x N^2`` and ``N x N^3`` Kronecker block matrices

    M3 = E[(r-mu)(r-mu)' (x) (r-mu)'],   M4 = E[(r-mu)(r-mu)' (x) (r-mu)' (x) (r-mu)']

are materialized lazily when first requested.  Portfolio moments follow as

    variance(w) = w' M2 w,   mu3(w) = w' M3 (w(x)w),   mu4(w) = w' M4 (w(x)w(x)w)

with analytic derivatives

    grad var = 2 M2 w,  grad mu3 = 3 M3 (w(x)w),  grad mu4 = 4 M4 (w(x)w(x)w),
    hess mu3 = 6 M3 (w (x) I),  hess mu4 = 12 M4 (w (x) w (x) I).

Every evaluator, scalar or batched, runs on one private kernel over a
(P, N) block of points.  It forms M2 w, the variance from it, and the
(P, N, N) matrix A = reshape((w(x)w)' M4p) with ``M4p = m4_paired``, which
gives mu4 = w'A w, grad mu4 = 4 A w and hess mu4 = 12 A.  The third moment
and its derivatives come from one helper on the flat ``m3``, called only
by the functions that return mu3.  The scalar functions are P = 1 views
of the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "ReturnSample",
    "CoMomentSet",
    "Weights",
    "PortfolioMoments",
    "MomentDerivatives",
    "build_comoments",
    "unique_element_counts",
    "portfolio_moments",
    "portfolio_kurtosis",
    "portfolio_skewness",
    "moment_derivatives",
    "kurtosis_gradient",
    "kurtosis_hessian",
]

#: chunk length for the fixed-order sequential reduction over observations
_CHUNK_ROWS = 4096

#: relative eigenvalue floor below which the covariance is rejected
_PD_RTOL = 1e-10

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ReturnSample:
    """A panel of plain returns, observations in rows and assets in columns."""

    values: np.ndarray
    asset_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"return panel must be 2-d, got shape {values.shape}")
        t_obs, n_assets = values.shape
        if t_obs < 2:
            raise ValueError(f"need at least 2 observations, got {t_obs}")
        if n_assets < 1:
            raise ValueError("need at least one asset")
        if not np.all(np.isfinite(values)):
            raise ValueError("return panel contains non-finite entries")
        names = tuple(self.asset_names) or tuple(f"A{i + 1}" for i in range(n_assets))
        if len(names) != n_assets:
            raise ValueError(f"{len(names)} asset names for {n_assets} columns")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "asset_names", names)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Weights:
    """Long-only, fully invested portfolio weights."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError(f"weights must be a nonempty vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
        if np.any(w < 0.0):
            raise ValueError(f"weights must be nonnegative, min is {w.min()!r}")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "w", w)

    @property
    def n_assets(self) -> int:
        return self.w.size

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.w, dtype=dtype)


def _as_weight_vector(w: "Weights | np.ndarray | Sequence[float]") -> np.ndarray:
    """Raw weight vector for moment formulas (no simplex membership required)."""
    if isinstance(w, Weights):
        return w.w
    v = np.asarray(w, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"weight vector must be 1-d, got shape {v.shape}")
    return v


def unique_element_counts(n: int) -> tuple[int, int]:
    """Number of distinct entries of the third and fourth co-moment tensors.

    Full permutation symmetry of ``s_ijk`` and ``k_ijkl`` leaves
    ``n(n+1)(n+2)/6`` and ``n(n+1)(n+2)(n+3)/24`` unique values.
    """
    if n < 1:
        raise ValueError(f"asset count must be >= 1, got {n}")
    count3 = n * (n + 1) * (n + 2) // 6
    count4 = n * (n + 1) * (n + 2) * (n + 3) // 24
    return count3, count4


# ---------------------------------------------------------------------------
# index bookkeeping for unique (sorted-tuple) storage
#
# Sorted tuples are ranked in colex order, so that e.g. for pairs i <= j the
# rank is  i + j(j+1)/2, for triples i <= j <= k it is
# i + j(j+1)/2 + k(k+1)(k+2)/6, and analogously for quadruples.  Generating
# unique tuples with the *last* index slowest therefore enumerates them in
# storage order.
# ---------------------------------------------------------------------------


def _pair_rank(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return i + j * (j + 1) // 2


def _triple_rank(i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    return i + j * (j + 1) // 2 + k * (k + 1) * (k + 2) // 6


def _quad_rank(i: np.ndarray, j: np.ndarray, k: np.ndarray, l: np.ndarray) -> np.ndarray:
    return i + j * (j + 1) // 2 + k * (k + 1) * (k + 2) // 6 + l * (l + 1) * (l + 2) * (l + 3) // 24


def _sorted_tuple_arrays(n: int, order: int) -> tuple[np.ndarray, ...]:
    """Index arrays of all sorted `order`-tuples over range(n), in colex order."""
    grids = np.indices((n,) * order)
    flat = np.stack([g.ravel() for g in grids], axis=1)
    keep = np.all(flat[:, 1:] >= flat[:, :-1], axis=1)
    tuples = flat[keep]
    # lexicographic enumeration with the last coordinate slowest == colex order
    order_key = np.lexsort(tuple(tuples[:, c] for c in range(order)))
    tuples = tuples[order_key]
    return tuple(tuples[:, c] for c in range(order))


@dataclass
class CoMomentSet:
    """Covariance plus unique third/fourth co-moment values of a return panel.

    ``m3_unique``/``m4_unique`` hold the distinct tensor entries in colex
    order of their sorted index tuples; ``m3``/``m4`` materialize the flat
    block matrices on first access.
    """

    mean: np.ndarray
    m2: np.ndarray
    m3_unique: np.ndarray
    m4_unique: np.ndarray
    n_assets: int
    n_obs: int
    _m3_full: np.ndarray | None = field(default=None, repr=False)
    _m4_full: np.ndarray | None = field(default=None, repr=False)
    _m4_paired: np.ndarray | None = field(default=None, repr=False)

    @property
    def m3(self) -> np.ndarray:
        """Third co-moment block matrix of shape (N, N^2)."""
        if self._m3_full is None:
            n = self.n_assets
            i, j, k = np.indices((n, n, n))
            sort3 = np.sort(np.stack([i, j, k], axis=-1), axis=-1)
            ranks = _triple_rank(sort3[..., 0], sort3[..., 1], sort3[..., 2])
            self._m3_full = self.m3_unique[ranks].reshape(n, n * n)
        return self._m3_full

    @property
    def m4(self) -> np.ndarray:
        """Fourth co-moment block matrix of shape (N, N^3)."""
        if self._m4_full is None:
            self._m4_full = self.m4_paired.reshape(self.n_assets, self.n_assets**3)
        return self._m4_full

    @property
    def m4_paired(self) -> np.ndarray:
        """Fourth co-moment tensor reshaped to (N^2, N^2); symmetric."""
        if self._m4_paired is None:
            n = self.n_assets
            i, j = np.indices((n, n))
            pair = _pair_rank(np.minimum(i, j), np.maximum(i, j)).ravel()
            pr_i, pr_j = _sorted_tuple_arrays(n, 2)  # pair rank -> sorted (i, j)
            n_pairs = pr_i.size
            pi, pj = np.indices((n_pairs, n_pairs))
            quad = np.sort(
                np.stack([pr_i[pi], pr_j[pi], pr_i[pj], pr_j[pj]], axis=-1), axis=-1
            )
            pair_gram = self.m4_unique[
                _quad_rank(quad[..., 0], quad[..., 1], quad[..., 2], quad[..., 3])
            ]
            self._m4_paired = pair_gram[np.ix_(pair, pair)].reshape(n * n, n * n)
        return self._m4_paired

    @property
    def m3_tensor(self) -> np.ndarray:
        return self.m3.reshape((self.n_assets,) * 3)

    @property
    def m4_tensor(self) -> np.ndarray:
        return self.m4.reshape((self.n_assets,) * 4)


def _check_positive_definite(m2: np.ndarray) -> None:
    eigvals = np.linalg.eigvalsh(m2)
    if eigvals[0] <= _PD_RTOL * max(eigvals[-1], 0.0):
        raise ValueError(
            "covariance is not positive definite: smallest eigenvalue "
            f"{eigvals[0]:.3e} <= {_PD_RTOL:g} x largest {eigvals[-1]:.3e}"
        )
    np.linalg.cholesky(m2)


def build_comoments(sample: ReturnSample) -> CoMomentSet:
    """Estimate covariance and unique third/fourth co-moments of a panel.

    The reduction over observations runs in fixed-size chunks in a fixed
    sequential order, so results are bit-reproducible.  Pair products are
    formed per chunk and the third/fourth moments accumulated as Gram
    matrices against the unique pair columns:

        G3[i, (j,k)] = sum_t x_ti x_tj x_tk,   G4[(i,j), (k,l)] = sum_t x_ti x_tj x_tk x_tl.
    """
    values = sample.values
    t_obs, n = values.shape

    mean = np.zeros(n)
    for start in range(0, t_obs, _CHUNK_ROWS):
        mean += values[start : start + _CHUNK_ROWS].sum(axis=0)
    mean /= t_obs

    pair_i, pair_j = _sorted_tuple_arrays(n, 2)
    n_pairs = pair_i.size
    g2 = np.zeros((n, n))
    g3 = np.zeros((n, n_pairs))
    g4 = np.zeros((n_pairs, n_pairs))
    for start in range(0, t_obs, _CHUNK_ROWS):
        xc = values[start : start + _CHUNK_ROWS] - mean
        pair_prod = xc[:, pair_i] * xc[:, pair_j]
        g2 += xc.T @ xc
        g3 += xc.T @ pair_prod
        g4 += pair_prod.T @ pair_prod

    m2 = g2 / t_obs
    _check_positive_definite(m2)

    tri_i, tri_j, tri_k = _sorted_tuple_arrays(n, 3)
    m3_unique = g3[tri_i, _pair_rank(tri_j, tri_k)] / t_obs
    quad = _sorted_tuple_arrays(n, 4)
    m4_unique = g4[_pair_rank(quad[0], quad[1]), _pair_rank(quad[2], quad[3])] / t_obs

    return CoMomentSet(
        mean=mean,
        m2=m2,
        m3_unique=m3_unique,
        m4_unique=m4_unique,
        n_assets=n,
        n_obs=t_obs,
    )


class PortfolioMoments(NamedTuple):
    variance: float
    mu3: float
    mu4: float


class MomentDerivatives(NamedTuple):
    grad_var: np.ndarray
    grad_mu3: np.ndarray
    grad_mu4: np.ndarray
    hess_mu3: np.ndarray
    hess_mu4: np.ndarray


class _EvenMoments(NamedTuple):
    variance: np.ndarray  # (P,)
    m2w: np.ndarray  # (P, N): M2 w
    mu4: np.ndarray  # (P,)
    grad_mu4: np.ndarray  # (P, N): 4 A w
    a: np.ndarray  # (P, N, N): hess mu4 = 12 A


def _even_moments(points: np.ndarray, c: CoMomentSet) -> _EvenMoments:
    """Variance, fourth moment and its derivatives at each row of a (P, N)
    block of points.

    The one place the N^2 x N^2 product with ``m4_paired`` is formed:
    ``A = reshape((w (x) w)' M4p)`` carries both derivatives of mu4.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != c.n_assets:
        raise ValueError(f"expected (P, {c.n_assets}) points, got shape {pts.shape}")
    n_pts, n = pts.shape
    m2w = pts @ c.m2.T
    flat = (pts[:, :, None] * pts[:, None, :]).reshape(n_pts, n * n)
    half = flat @ c.m4_paired
    a = half.reshape(n_pts, n, n)
    return _EvenMoments(
        variance=np.einsum("pi,pi->p", pts, m2w),
        m2w=m2w,
        mu4=np.einsum("pq,pq->p", half, flat),
        grad_mu4=4.0 * (a @ pts[:, :, None])[:, :, 0],
        a=a,
    )


def _third_moment(points: np.ndarray, c: CoMomentSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mu3, grad mu3 and hess mu3 at each row of ``points``, from the flat ``c.m3``."""
    pts = np.asarray(points, dtype=float)
    n_pts, n = pts.shape
    half_hess = (pts @ c.m3.reshape(n * n, n).T).reshape(n_pts, n, n)  # M3 (w (x) I)
    m3ww = (half_hess @ pts[:, :, None])[:, :, 0]  # M3 (w (x) w)
    return np.einsum("pi,pi->p", m3ww, pts), 3.0 * m3ww, 6.0 * half_hess


def _nonzero_point(w: Weights | np.ndarray, ratio: str) -> np.ndarray:
    """``w`` as a (1, N) block; the standardized moments are undefined at 0."""
    v = _as_weight_vector(w)
    if not np.any(v != 0.0):
        raise ValueError(f"{ratio} undefined at the zero weight vector")
    return v[None, :]


def portfolio_moments(w: Weights | np.ndarray, c: CoMomentSet) -> PortfolioMoments:
    """Central portfolio moments (variance, mu3, mu4) at weight vector ``w``."""
    variance, mu3, mu4 = batch_moments(_as_weight_vector(w)[None, :], c)
    return PortfolioMoments(variance=float(variance[0]), mu3=float(mu3[0]), mu4=float(mu4[0]))


def portfolio_kurtosis(w: Weights | np.ndarray, c: CoMomentSet) -> float:
    """Portfolio kurtosis ``mu4 / variance^2``; leverage invariant, >= 1."""
    return float(batch_kurtosis(_nonzero_point(w, "kurtosis"), c)[0])


def portfolio_skewness(w: Weights | np.ndarray, c: CoMomentSet) -> float:
    """Portfolio skewness ``mu3 / variance^{3/2}``."""
    variance, mu3, _ = batch_moments(_nonzero_point(w, "skewness"), c)
    return float(mu3[0] / variance[0] ** 1.5)


def moment_derivatives(w: Weights | np.ndarray, c: CoMomentSet) -> MomentDerivatives:
    """Analytic gradients and Hessians of variance, mu3 and mu4 at ``w``."""
    pts = _as_weight_vector(w)[None, :]
    even = _even_moments(pts, c)
    _, grad_mu3, hess_mu3 = _third_moment(pts, c)
    return MomentDerivatives(
        grad_var=2.0 * even.m2w[0],
        grad_mu3=grad_mu3[0],
        grad_mu4=even.grad_mu4[0],
        hess_mu3=hess_mu3[0],
        hess_mu4=12.0 * even.a[0],
    )


def kurtosis_gradient(w: Weights | np.ndarray, c: CoMomentSet) -> np.ndarray:
    """Gradient of kurtosis ``mu4 / variance^2`` by the quotient rule."""
    return batch_kurtosis_and_gradient(_nonzero_point(w, "kurtosis"), c)[1][0]


def kurtosis_hessian(w: Weights | np.ndarray, c: CoMomentSet) -> np.ndarray:
    """Hessian of kurtosis ``mu4 / variance^2``, assembled from the moment
    derivatives.  Since kurtosis is homogeneous of degree zero, its gradient
    is homogeneous of degree -1, which gives the radial identity
    ``hessian @ w == -gradient``."""
    even = _even_moments(_nonzero_point(w, "kurtosis"), c)
    variance, mu4 = even.variance[0], even.mu4[0]
    gv = 2.0 * even.m2w[0]
    outer_4v = np.outer(even.grad_mu4[0], gv)
    return (
        12.0 * even.a[0] / variance**2
        - 2.0 * (outer_4v + outer_4v.T) / variance**3
        - (4.0 * mu4 / variance**3) * c.m2
        + (6.0 * mu4 / variance**4) * np.outer(gv, gv)
    )


# ---------------------------------------------------------------------------
# batched evaluation (used by the Langevin solver and by grid searches)
# ---------------------------------------------------------------------------


def batch_kurtosis(points: np.ndarray, c: CoMomentSet) -> np.ndarray:
    """Kurtosis at each row of ``points`` (shape (P, N))."""
    even = _even_moments(points, c)
    return even.mu4 / even.variance**2


def batch_moments(points: np.ndarray, c: CoMomentSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variance, mu3 and mu4 at each row of ``points``; returns three (P,) arrays."""
    even = _even_moments(points, c)
    mu3 = _third_moment(points, c)[0]
    return even.variance, mu3, even.mu4


def batch_kurtosis_and_gradient(points: np.ndarray, c: CoMomentSet) -> tuple[np.ndarray, np.ndarray]:
    """Kurtosis and its gradient at each row of ``points`` in one pass."""
    even = _even_moments(points, c)
    g = even.variance**2
    kurt = even.mu4 / g
    grad = even.grad_mu4 / g[:, None] - (4.0 * even.mu4 / (g * even.variance))[:, None] * even.m2w
    return kurt, grad
