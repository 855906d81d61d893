"""Sample co-moment tensors and portfolio moment evaluation.

Central co-moments of an ``(T, N)`` return panel are estimated with the
biased (divide-by-T) estimator,

    m2[i,j]     = E[(r_i - mu_i)(r_j - mu_j)]
    s[i,j,k]    = E[(r_i - mu_i)(r_j - mu_j)(r_k - mu_k)]
    k[i,j,k,l]  = E[(r_i - mu_i)(r_j - mu_j)(r_k - mu_k)(r_l - mu_l)]

Only the unique elements (sorted index tuples) are computed and stored,
in one pass over rows that may come in pieces.  With s the first chunk's
mean, the Gram matrix of the sorted pair products of y = (1, r - s) holds
every raw moment of r - s up to the fourth: that of a sorted index tuple
of y, led by zeros (y_0 = 1) to length four, is the entry of its two
pairs.  With delta = E[r - s], a central moment is the sum over the
subsets K of its indices of E[prod_K (r - s)] prod_(not K) (-delta), and
the mean is s + delta (Pebay 2008); the shift keeps delta near a standard
error, so a large mean costs no digits.  Of the familiar ``N x N^2`` and
``N x N^3`` Kronecker block matrices

    M3 = E[(r-mu)(r-mu)' (x) (r-mu)'],   M4 = E[(r-mu)(r-mu)' (x) (r-mu)' (x) (r-mu)']

only M3 is materialized, on first use.  The fourth moment is kept for
evaluation as one ``n_p x n_p`` matrix over the n_p = N(N+1)/2 sorted index pairs,

    G[(i<=j), (k<=l)] = k[i,j,k,l],

symmetric and positive semidefinite (a Gram matrix of pair products); it
holds each off-diagonal pair once where the N^2 x N^2 reshape of the
tensor holds it twice.  Portfolio moments follow as

    variance(w) = w' M2 w,   mu3(w) = w' M3 (w(x)w),   mu4(w) = w' M4 (w(x)w(x)w)

with analytic derivatives

    grad var = 2 M2 w,  grad mu3 = 3 M3 (w(x)w),  grad mu4 = 4 M4 (w(x)w(x)w),
    hess mu3 = 6 M3 (w (x) I),  hess mu4 = 12 M4 (w (x) w (x) I).

Every evaluator, scalar or batched, runs on one private kernel over a
(P, N) block of points.  It forms M2 w, the variance from it, and the
(P, N, N) matrix A[i,j] = sum_kl k[i,j,k,l] w_k w_l from one product with G
over the pair products w_k w_l (weighted 2 off the diagonal), which gives
mu4 = w'A w, grad mu4 = 4 A w and hess mu4 = 12 A.  The third moment
and its derivatives come from one helper on the flat ``m3``, called only
by the functions that return mu3.  The scalar functions are P = 1 views
of the same kernel, which computes in the dtype of the co-moment arrays it
reads: float64 for a ``CoMomentSet``, float32 for the Langevin step's
single-precision copies of ``m2`` and ``m4_gram``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _helper

__all__ = [
    "ReturnSample",
    "CoMomentSet",
    "Weights",
    "PortfolioMoments",
    "MomentDerivatives",
    "build_comoments",
    "unit_scaled",
    "unique_element_counts",
    "portfolio_moments",
    "portfolio_kurtosis",
    "portfolio_skewness",
    "moment_derivatives",
    "kurtosis_gradient",
    "kurtosis_hessian",
]

#: chunk length for the fixed-order sequential reduction over observations,
#: and for the panel's finiteness check
_CHUNK_ROWS = 4096

#: least sorted pairs of y = (1, r - s), (N + 1)(N + 2) / 2, at which a
#: chunk's Gram matrix pays for its handoff to the helper thread
_HELPER_MIN_PAIRS = 28

#: rows of ``m4_gram`` built per block, to bound the index temporaries
_GRAM_BLOCK_ROWS = 128

#: index tuples per block of the build's binomial expansion, to bound its
#: temporaries while each column's pair-rank part is formed once per block
_EXPANSION_BLOCK = 1 << 18

#: relative eigenvalue floor below which the covariance is rejected
_PD_RTOL = 1e-10
#: relative tolerance of the covariance symmetry check
_SYMMETRY_RTOL = 1e-12

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
        # checked a chunk of rows at a time, so no T x N mask is built
        if not all(np.isfinite(values[i : i + _CHUNK_ROWS]).all() for i in range(0, t_obs, _CHUNK_ROWS)):
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


def _check_counts(*counts: tuple[str, object, int]) -> None:
    """Reject a ``(name, value, least)`` count that is not an integer >= least;
    numpy integers pass, bools do not."""
    for name, value, least in counts:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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
    """Index arrays of all sorted `order`-tuples over range(n), in colex order.

    The colex list of (k+1)-tuples is, for each last index l in turn, the
    prefix of the k-tuple list whose entries are all <= l (its first
    C(l+k, k) rows) extended by l; memory stays linear in the output.
    """
    tuples = np.arange(n)[:, None]
    for k in range(1, order):
        lasts = np.arange(n)
        counts = np.array([math.comb(l + k, k) for l in lasts])
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        prefix_rows = np.arange(counts.sum()) - starts
        tuples = np.column_stack([tuples[prefix_rows], np.repeat(lasts, counts)])
    return tuple(tuples[:, c] for c in range(order))


@functools.cache
def _pair_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sorted pairs (i <= j) of range(n) in colex order, the row of j in a
    stack of the N coordinates over twice them (j + N off the diagonal, so
    a product over the pair carries its weight 2 in a sum over all ordered
    pairs), and the pair rank of every (i, j) of the N x N grid (row-major),
    read-only."""
    pair_i, pair_j = _sorted_tuple_arrays(n, 2)
    doubled_j = np.where(pair_i == pair_j, pair_j, pair_j + n)
    i, j = np.indices((n, n))
    pair_of = _pair_rank(np.minimum(i, j), np.maximum(i, j)).ravel()
    for arr in (pair_i, pair_j, doubled_j, pair_of):
        arr.flags.writeable = False
    return pair_i, pair_j, doubled_j, pair_of


@dataclass(eq=False)
class CoMomentSet:
    """Covariance plus unique third/fourth co-moment values of a return panel.

    ``m3_unique``/``m4_unique`` hold the distinct tensor entries in colex
    order of their sorted index tuples.  The two forms the moment kernels
    read, ``m3`` (the flat third-moment block) and ``m4_gram`` (the fourth
    moment over unique index pairs), are built on first access and kept; a
    ``dataclasses.replace`` copy starts without them.  Sets compare by
    identity: a field-wise ``==`` of the arrays has no single truth value.
    """

    mean: np.ndarray
    m2: np.ndarray
    m3_unique: np.ndarray
    m4_unique: np.ndarray
    n_assets: int
    n_obs: int

    def __post_init__(self) -> None:
        """Reject malformed sets up front: shapes, non-finite values, a
        covariance that is not symmetric positive definite."""
        n = self.n_assets
        count3, count4 = unique_element_counts(n)
        if self.n_obs < 1:
            raise ValueError(f"n_obs must be >= 1, got {self.n_obs}")
        expected = {"mean": (n,), "m2": (n, n), "m3_unique": (count3,), "m4_unique": (count4,)}
        for name, shape in expected.items():
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} has shape {value.shape}, expected {shape} for {n} assets")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} contains non-finite values")
            setattr(self, name, value)
        asymmetry = float(np.max(np.abs(self.m2 - self.m2.T)))
        if asymmetry > _SYMMETRY_RTOL * float(np.max(np.abs(self.m2))):
            raise ValueError(f"covariance is not symmetric: max |m2 - m2'| = {asymmetry:.3e}")
        _check_positive_definite(self.m2)

    @functools.cached_property
    def m3(self) -> np.ndarray:
        """Third co-moment block matrix of shape (N, N^2)."""
        n = self.n_assets
        i, j, k = np.indices((n, n, n))
        sort3 = np.sort(np.stack([i, j, k], axis=-1), axis=-1)
        return self.m3_unique[_triple_rank(sort3[..., 0], sort3[..., 1], sort3[..., 2])].reshape(n, n * n)

    @functools.cached_property
    def m4_gram(self) -> np.ndarray:
        """Fourth co-moment over sorted index pairs, shape (n_p, n_p) with
        n_p = N(N+1)/2: ``G[(i<=j), (k<=l)] = k[i,j,k,l]``; symmetric PSD.

        Built in row blocks: the sorted quadruple of pairs a <= b and
        c <= d is (min(a,c), middle two, max(b,d)), where the middle two
        are max(a,c) and min(b,d) in either order.
        """
        pair_i, pair_j = _pair_layout(self.n_assets)[:2]
        n_pairs = pair_i.size
        gram = np.empty((n_pairs, n_pairs))
        for start in range(0, n_pairs, _GRAM_BLOCK_ROWS):
            a = pair_i[start : start + _GRAM_BLOCK_ROWS, None]
            b = pair_j[start : start + _GRAM_BLOCK_ROWS, None]
            inner_lo = np.maximum(a, pair_i)
            inner_hi = np.minimum(b, pair_j)
            gram[start : start + _GRAM_BLOCK_ROWS] = self.m4_unique[
                _quad_rank(
                    np.minimum(a, pair_i),
                    np.minimum(inner_lo, inner_hi),
                    np.maximum(inner_lo, inner_hi),
                    np.maximum(b, pair_j),
                )
            ]
        return gram


def unit_scaled(c: CoMomentSet) -> tuple[CoMomentSet, int]:
    """``c`` for the returns divided by 2^k, and k, where 2^k is the power of
    two nearest the square root of the mean variance.

    Each moment of order r is multiplied by 2^(-rk) with ``ldexp``, which is
    exact while the entries stay in the normal range, so the rescaled
    variance lies in [0.5, 2) and every kurtosis, h value and optimal weight
    vector is unchanged bit for bit.  Returns ``c`` itself when k = 0, so its
    cached forms are kept.
    """
    k = int(np.frexp(np.trace(c.m2) / c.n_assets)[1]) // 2
    if k == 0:
        return c, 0
    return (
        CoMomentSet(
            mean=np.ldexp(c.mean, -k),
            m2=np.ldexp(c.m2, -2 * k),
            m3_unique=np.ldexp(c.m3_unique, -3 * k),
            m4_unique=np.ldexp(c.m4_unique, -4 * k),
            n_assets=c.n_assets,
            n_obs=c.n_obs,
        ),
        k,
    )


class _KernelMoments(NamedTuple):
    """The two arrays the even-moment kernel reads, in the dtype it is to
    compute in; a stand-in for a ``CoMomentSet`` there."""

    m2: np.ndarray
    m4_gram: np.ndarray

    @property
    def n_assets(self) -> int:
        return self.m2.shape[0]


def _check_positive_definite(m2: np.ndarray) -> None:
    eigvals = np.linalg.eigvalsh(m2)
    if eigvals[0] <= _PD_RTOL * max(eigvals[-1], 0.0):
        raise ValueError(
            "covariance is not positive definite: smallest eigenvalue "
            f"{eigvals[0]:.3e} <= {_PD_RTOL:g} x largest {eigvals[-1]:.3e}"
        )
    np.linalg.cholesky(m2)


class _GramLane:
    """One lane's buffers for a chunk's Gram matrix: y = (1, r - s) and its
    pair products run along rows, so each pair block is one contiguous
    multiply, and the chunk's Gram matrix is one in-place matmul."""

    def __init__(self, shift: np.ndarray) -> None:
        n = shift.size
        n_pairs = (n + 1) * (n + 2) // 2
        self.shift = shift
        self.y = np.ones((n + 1, _CHUNK_ROWS))
        self.pairs = np.empty((n_pairs, _CHUNK_ROWS))
        self.gram = np.empty((n_pairs, n_pairs))

    def __call__(self, block: np.ndarray) -> np.ndarray:
        rows, n = block.shape
        y, pair_prod = self.y[:, :rows], self.pairs[:, :rows]
        np.subtract(block.T, self.shift[:, None], out=y[1:])
        for j in range(n + 1):  # the pairs (i <= j) of one j are the colex ranks j(j+1)/2 .. j(j+1)/2 + j
            np.multiply(y[: j + 1], y[j], out=pair_prod[j * (j + 1) // 2 : (j + 1) * (j + 2) // 2])
        return np.matmul(pair_prod, pair_prod.T, out=self.gram)


def _shifted_gram(pieces: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
    """The shift s, the Gram matrix of y's pair products summed over the rows
    of every piece, and the row count.  Each piece is cut into chunks of its
    own, so pieces of whole chunks give the bits of the panel they make up.

    With the shared helper thread (``_helper``), and chunks of at least
    ``_HELPER_MIN_PAIRS`` pairs, every other chunk's Gram matrix is handed
    to the helper's own lane while the caller forms the next one; a chunk
    the helper has not started by then is formed on the caller instead.
    The chunk Grams are added in chunk order either way, and the helper's
    chunk is settled before the function returns or raises."""
    chunks = (piece[start : start + _CHUNK_ROWS] for piece in pieces for start in range(0, len(piece), _CHUNK_ROWS))
    first = next(chunks, None)
    if first is None:
        raise ValueError("no rows to build co-moments from")
    lanes = [_GramLane(first.mean(axis=0))]
    gram = np.zeros_like(lanes[0].gram)
    helper = _helper.helper() if len(gram) >= _HELPER_MIN_PAIRS else None
    handed, t_obs = None, 0  # the helper's chunk Gram, until it is added
    try:
        for k, block in enumerate(itertools.chain([first], chunks)):
            t_obs += len(block)
            if helper is not None and k % 2:
                if len(lanes) == 1:
                    lanes.append(_GramLane(lanes[0].shift))
                handed = helper.hand(lanes[1], block)
                continue
            chunk_gram = lanes[0](block)
            if handed is not None:
                gram += handed.result()
                handed = None
            gram += chunk_gram
        if handed is not None:
            gram += handed.result()
            handed = None
    finally:
        if handed is not None:
            handed.settle()
    return lanes[0].shift, gram, t_obs


def build_comoments(sample: ReturnSample | Iterable[np.ndarray]) -> CoMomentSet:
    """Estimate covariance and unique third/fourth co-moments of a panel,
    given whole or as an iterable of (rows, N) pieces, in one pass."""
    shift, gram, t_obs = _shifted_gram([sample.values] if isinstance(sample, ReturnSample) else sample)
    n = shift.size
    raw = np.divide(gram, t_obs, out=gram)  # in place: at N = 100 the Gram matrix is 212 MB
    delta = raw[0, _pair_rank(0, np.arange(n + 1))]  # E[y], by the index in y

    def central(order: int) -> np.ndarray:
        idx = [np.add(i, 1, out=i) for i in _sorted_tuple_arrays(n, order)]  # each asset's index in y
        total = np.empty(idx[0].size)
        for start in range(0, total.size, _EXPANSION_BLOCK):
            block = [i[start : start + _EXPANSION_BLOCK] for i in idx]
            # once per column: the two parts i and j(j+1)/2 of the pair rank
            # i + j(j+1)/2 (0 for y_0 = 1, at position 0), and its -delta
            low, high = [0, *block], [0, *(i * (i + 1) // 2 for i in block)]
            dropped = [-delta[i] for i in block]
            part = 0.0
            for kept in itertools.product((False, True), repeat=order):
                q = [0] * (4 - sum(kept)) + [k + 1 for k in range(order) if kept[k]]
                term = raw[low[q[0]] + high[q[1]], low[q[2]] + high[q[3]]]
                for k in (k for k in range(order) if not kept[k]):
                    term = term * dropped[k]
                part += term
            total[start : start + _EXPANSION_BLOCK] = part
        return total

    return CoMomentSet(
        mean=shift + delta[1:],
        m2=central(2)[_pair_layout(n)[3]].reshape(n, n),
        m3_unique=central(3),
        m4_unique=central(4),
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


def _even_moments(points: np.ndarray, c: CoMomentSet | _KernelMoments) -> _EvenMoments:
    """Variance, fourth moment and its derivatives at each row of a (P, N)
    block of points, computed in the dtype of ``c.m2`` and ``c.m4_gram``
    (the points are cast to it).

    The one place the product with ``m4_gram`` is formed: with u the pair
    products w_i w_j over sorted pairs and m their weights (2 off the
    diagonal, 1 on it), ``G (m u)`` is A over the sorted pairs.  A carries
    both derivatives of mu4, and mu4 = sum_q m_q u_q A_q.  Points run along
    the last axis inside, copied once to contiguous columns with twice them
    below, so m u is two gathers of contiguous rows and one multiply;
    w_i (2 w_j) equals (w_i w_j) 2 bit for bit unless the product is
    subnormal.  ``a`` is returned as a (P, N, N) view.
    """
    pts = np.asarray(points, dtype=c.m2.dtype)
    if pts.ndim != 2 or pts.shape[1] != c.n_assets:
        raise ValueError(f"expected (P, {c.n_assets}) points, got shape {pts.shape}")
    n_pts, n = pts.shape
    pair_i, _, doubled_j, pair_of = _pair_layout(n)
    stacked = np.empty((2 * n, n_pts), dtype=pts.dtype)
    cols, twice = stacked[:n], stacked[n:]
    cols[...] = pts.T
    np.add(cols, cols, out=twice)
    m2w = pts @ c.m2.T
    weighted = stacked[pair_i]  # (n_p, P)
    weighted *= stacked[doubled_j]
    half = c.m4_gram @ weighted
    mu4 = np.einsum("qp,qp->p", half, weighted)
    del weighted  # before the (N, N, P) gather of A, and half right after it, so the peak does not grow
    a = half[pair_of].reshape(n, n, n_pts)
    del half
    return _EvenMoments(
        variance=np.einsum("pi,pi->p", pts, m2w),
        m2w=m2w,
        mu4=mu4,
        grad_mu4=4.0 * np.einsum("ijp,jp->pi", a, cols),
        a=a.transpose(2, 0, 1),
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


def batch_kurtosis_and_gradient(
    points: np.ndarray, c: CoMomentSet | _KernelMoments
) -> tuple[np.ndarray, np.ndarray]:
    """Kurtosis and its gradient at each row of ``points`` in one pass, in
    the dtype of ``c``'s arrays."""
    even = _even_moments(points, c)
    g = even.variance**2
    kurt = even.mu4 / g
    grad = even.grad_mu4 / g[:, None] - (4.0 * even.mu4 / (g * even.variance))[:, None] * even.m2w
    return kurt, grad
