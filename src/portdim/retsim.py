"""Meta-Gaussian return simulator: NIG margins coupled by a Gaussian copula.

Margins are normal-inverse Gaussian (NIG) with density

    f(x) = (alpha delta / pi) * exp(delta gamma + beta (x - mu))
           * K1(alpha q(x)) / q(x),
    q(x) = sqrt(delta^2 + (x - mu)^2),   gamma = sqrt(alpha^2 - beta^2),

whose mean, variance, skewness and kurtosis have closed forms, so margin
shapes can be prescribed exactly.  Dependence is a Gaussian copula whose
input correlation matrix is *adjusted*: the realized linear correlation of
a copula pair with given margins is

    rho_out = [ integral of C(F_X(x), F_Y(y)) - F_X(x) F_Y(y) dx dy ]
              / sqrt(Var X Var Y)

(Hoeffding's covariance identity), and ``adjust_correlation`` inverts this
map entry-wise so the sampled panel hits the target correlations.

Sampling pipeline: draw Z ~ N(0, R_in) via Cholesky, map to uniforms with
the normal CDF, then through each margin's quantile function.  All
randomness comes from a counter-based generator (Philox) with substreams
derived from (seed, block index), and Gaussians are produced by inverse
CDF, so output is reproducible regardless of how blocks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import k1e, ndtr, ndtri

from .comoments import ReturnSample

__all__ = [
    "NigParams",
    "MarginTarget",
    "MetaGaussianSpec",
    "nig_pdf",
    "nig_moments",
    "nig_params_from_moments",
    "nig_cdf",
    "nig_quantile",
    "rho_out",
    "adjust_correlation",
    "sample_meta_gaussian",
]

#: substream tag reserved for the simulator (the Langevin solver uses 1)
SIMULATION_STREAM = 0

_BLOCK_ROWS = 65536

_TABLE_NODES = 2048
_TABLE_HALF_WIDTH_SD = 40.0

_BISECT_TOL = 1e-6


@dataclass(frozen=True)
class NigParams:
    """Normal-inverse Gaussian parameters (tail alpha, asymmetry beta, scale delta, location mu)."""

    alpha: float
    beta: float
    delta: float
    mu: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (self.delta > 0.0 and np.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")
        if not (abs(self.beta) < self.alpha):
            raise ValueError(f"need |beta| < alpha, got beta={self.beta!r}, alpha={self.alpha!r}")
        if not np.isfinite(self.mu) or not np.isfinite(self.beta):
            raise ValueError("parameters must be finite")

    @property
    def gamma(self) -> float:
        return math.sqrt(self.alpha**2 - self.beta**2)


@dataclass(frozen=True)
class MarginTarget:
    """Prescribed first four moments of a margin."""

    mean: float
    variance: float
    skewness: float
    kurtosis: float

    def __post_init__(self) -> None:
        if not (self.variance > 0.0):
            raise ValueError(f"variance must be positive, got {self.variance!r}")
        if not (self.kurtosis > 3.0):
            raise ValueError(f"NIG kurtosis strictly exceeds 3, got {self.kurtosis!r}")
        bound = 3.0 * (self.kurtosis - 3.0) / 5.0
        if not (self.skewness**2 < bound):
            raise ValueError(
                "skewness-kurtosis bound violated: skewness^2 = "
                f"{self.skewness**2!r} must be < 3(kurtosis-3)/5 = {bound!r}"
            )


def nig_pdf(x, p: NigParams):
    """NIG density at ``x`` (scalar or array).

    Evaluated with the exponentially scaled Bessel function ``k1e`` so the
    e^{-alpha q} tail decay is applied analytically and never underflows
    prematurely.
    """
    xa = np.asarray(x, dtype=float)
    d = xa - p.mu
    q = np.sqrt(p.delta**2 + d * d)
    expo = p.delta * p.gamma + p.beta * d - p.alpha * q
    out = (p.alpha * p.delta / math.pi) * k1e(p.alpha * q) / q * np.exp(expo)
    return out if out.ndim else float(out)


def nig_moments(p: NigParams) -> MarginTarget:
    """Closed-form mean, variance, skewness and kurtosis of a NIG law."""
    g = p.gamma
    mean = p.mu + p.delta * p.beta / g
    variance = p.delta * p.alpha**2 / g**3
    skewness = 3.0 * (p.beta / p.alpha) / math.sqrt(p.delta * g)
    kurtosis = 3.0 + 3.0 * (1.0 + 4.0 * (p.beta / p.alpha) ** 2) / (p.delta * g)
    return MarginTarget(mean=mean, variance=variance, skewness=skewness, kurtosis=kurtosis)


def nig_params_from_moments(t: MarginTarget) -> NigParams:
    """Invert the moment formulas: parameters whose NIG law has moments ``t``.

    With D = delta*gamma and rho = beta/alpha the moment equations give
    D = 3 / (kurt - 3 - (4/3) skew^2) and rho^2 = skew^2 D / 9, which is
    solvable exactly when the skewness-kurtosis bound holds strictly.
    """
    s, k = t.skewness, t.kurtosis
    dg = 3.0 / ((k - 3.0) - (4.0 / 3.0) * s * s)
    rho2 = s * s * dg / 9.0
    rho = math.copysign(math.sqrt(rho2), s)
    gamma = math.sqrt(dg / (t.variance * (1.0 - rho2)))
    delta = dg / gamma
    alpha = gamma / math.sqrt(1.0 - rho2)
    beta = rho * alpha
    mu = t.mean - delta * beta / gamma
    return NigParams(alpha=alpha, beta=beta, delta=delta, mu=mu)


# ---------------------------------------------------------------------------
# tabulated CDF / quantile
# ---------------------------------------------------------------------------


class _NigTable:
    """CDF tabulation of a NIG law on 2048 sinh-spaced nodes.

    Node positions cluster near the mean (spacing ~0.006 sd) and widen
    toward +-40 sd.  Per-interval integrals of the pdf use Gauss-Legendre
    panels with one adaptive refinement pass; the cumulative sums are
    interpolated with a monotone cubic (PCHIP).
    """

    def __init__(self, p: NigParams) -> None:
        self.params = p
        mom = nig_moments(p)
        sd = math.sqrt(mom.variance)
        lo = min(p.mu, mom.mean) - _TABLE_HALF_WIDTH_SD * sd
        hi = max(p.mu, mom.mean) + _TABLE_HALF_WIDTH_SD * sd
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        stretch = 4.0
        t = np.linspace(-1.0, 1.0, _TABLE_NODES)
        self.x = center + half * np.sinh(stretch * t) / math.sinh(stretch)

        left_tail, _ = quad(lambda v: nig_pdf(v, p), -np.inf, self.x[0], limit=200)
        intervals = self._interval_masses()
        self.cdf_values = left_tail + np.concatenate([[0.0], np.cumsum(intervals)])
        self._interp = PchipInterpolator(self.x, self.cdf_values, extrapolate=False)
        self._interp_deriv = self._interp.derivative()

    def _interval_masses(self) -> np.ndarray:
        lo, hi = self.x[:-1], self.x[1:]
        masses = self._panel(lo, hi, 15)
        # one refinement pass, ample for an analytic pdf: intervals whose 7-
        # and 15-point estimates disagree are summed over four equal sub-panels
        bad = np.abs(masses - self._panel(lo, hi, 7)) > 1e-16
        edges = np.linspace(lo[bad], hi[bad], 5).T  # (n_bad, 5)
        sub = self._panel(edges[:, :-1].ravel(), edges[:, 1:].ravel(), 15)
        masses[bad] = sub.reshape(-1, 4).sum(axis=1)
        return masses

    def _panel(self, lo: np.ndarray, hi: np.ndarray, order: int) -> np.ndarray:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        vals = nig_pdf(pts, self.params)
        return half * (vals @ weights)

    def cdf(self, x) -> np.ndarray:
        xa = np.asarray(x, dtype=float)
        clipped = np.clip(xa, self.x[0], self.x[-1])
        out = self._interp(clipped)
        return np.where(xa <= self.x[0], self.cdf_values[0], np.where(xa >= self.x[-1], self.cdf_values[-1], out))

    def quantile_clipped(self, u) -> np.ndarray:
        """Safeguarded vector Newton on the tabulated CDF; clips u into table range."""
        ua = np.clip(np.asarray(u, dtype=float), self.cdf_values[0], self.cdf_values[-1])
        idx = np.clip(np.searchsorted(self.cdf_values, ua, side="right") - 1, 0, self.x.size - 2)
        lo, hi = self.x[idx], self.x[idx + 1]
        flo, fhi = self.cdf_values[idx], self.cdf_values[idx + 1]
        q = lo + (ua - flo) * (hi - lo) / np.where(fhi > flo, fhi - flo, 1.0)
        done = np.zeros(q.shape, dtype=bool)
        for _ in range(60):
            resid = self._interp(q) - ua
            hi = np.where(~done & (resid > 0.0), np.minimum(q, hi), hi)
            lo = np.where(~done & (resid <= 0.0), np.maximum(q, lo), lo)
            done |= (np.abs(resid) < 1e-14) | (hi - lo < 1e-12 * (1.0 + np.abs(q)))
            if np.all(done):
                break
            slope = self._interp_deriv(q)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(slope > 0.0, resid / np.where(slope > 0.0, slope, 1.0), np.nan)
            cand = q - step
            bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
            q = np.where(done, q, np.where(bad, 0.5 * (lo + hi), cand))
        return q


@lru_cache(maxsize=64)
def _table(p: NigParams) -> _NigTable:
    return _NigTable(p)


def nig_cdf(x, p: NigParams):
    """NIG distribution function via the tabulated interpolant."""
    out = _table(p).cdf(x)
    return out if out.ndim else float(out)


def nig_quantile(u, p: NigParams):
    """NIG quantile function; ``u`` must lie strictly inside (0, 1)."""
    ua = np.asarray(u, dtype=float)
    if np.any(ua <= 0.0) or np.any(ua >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = _table(p).quantile_clipped(ua)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# bivariate normal CDF (vectorized port of Genz's BVND rule)
# ---------------------------------------------------------------------------


def _bvn_upper(dh, dk, r: float) -> np.ndarray:
    """P(X > dh, Y > dk) for a standard bivariate normal pair with correlation r.

    Gauss-Legendre quadrature over the arc-sine transformed correlation for
    |r| < 0.925 and the tail-expansion form beyond; accuracy ~1e-14.
    """
    h = np.asarray(dh, dtype=float)
    k = np.asarray(dk, dtype=float)
    h, k = np.broadcast_arrays(h, k)
    h = h.astype(float, copy=True)
    k = k.astype(float, copy=True)
    absr = abs(r)
    if absr > 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {r!r}")
    if absr == 1.0:
        if r > 0.0:
            return ndtr(-np.maximum(h, k))
        return np.maximum(ndtr(-h) - ndtr(k), 0.0)

    if absr < 0.3:
        order = 6
    elif absr < 0.75:
        order = 12
    else:
        order = 20
    gx, gw = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (gx + 1.0)  # the full symmetric set, mapped onto (0, 1)
    weights = 0.5 * gw

    if absr < 0.925:
        bvn = np.zeros_like(h)
        if absr > 0.0:
            hk = h * k
            hs = 0.5 * (h * h + k * k)
            asr = math.asin(r)
            sn = np.sin(asr * nodes)
            f = np.exp(
                (sn[:, None] * hk.ravel()[None, :] - hs.ravel()[None, :]) / (1.0 - sn * sn)[:, None]
            )
            bvn = (asr / (2.0 * math.pi)) * (weights @ f).reshape(h.shape)
        return bvn + ndtr(-h) * ndtr(-k)

    # |r| in [0.925, 1): integrate the complement near the diagonal
    if r < 0.0:
        k = -k
    hk = h * k
    a2 = (1.0 - r) * (1.0 + r)
    a = math.sqrt(a2)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr0 = -(bs / a2 + hk) / 2.0
    with np.errstate(over="ignore", under="ignore"):
        bvn = np.where(
            asr0 > -100.0,
            a * np.exp(asr0) * (1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a2 * a2 / 5.0),
            0.0,
        )
        mask = -hk < 100.0
        b = np.sqrt(bs)
        sp = math.sqrt(2.0 * math.pi) * ndtr(-b / a)
        bvn -= np.where(
            mask,
            np.exp(np.where(mask, -hk / 2.0, 0.0)) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
            0.0,
        )
    # quadrature over s in (0, a): substitute s = a * t with t the (0,1) nodes
    xs = (a * nodes) ** 2
    rs = np.sqrt(1.0 - xs)
    flat_hk = hk.ravel()[None, :]
    flat_bs = bs.ravel()[None, :]
    flat_c = c.ravel()[None, :]
    flat_d = d.ravel()[None, :]
    asr1 = -(flat_bs / xs[:, None] + flat_hk) / 2.0
    with np.errstate(over="ignore", under="ignore"):
        ep = np.exp(-flat_hk * (1.0 - rs[:, None]) / (2.0 * (1.0 + rs[:, None]))) / rs[:, None]
        sp1 = 1.0 + flat_c * xs[:, None] * (1.0 + flat_d * xs[:, None])
        contrib = np.where(asr1 > -100.0, np.exp(np.where(asr1 > -100.0, asr1, 0.0)) * (ep - sp1), 0.0)
    bvn = bvn + a * ((weights @ contrib).reshape(h.shape))
    bvn = -bvn / (2.0 * math.pi)
    if r > 0.0:
        return bvn + ndtr(-np.maximum(h, k))
    bvn = -bvn
    return bvn + np.where(k > h, ndtr(k) - ndtr(h), 0.0)


def _bvn_cdf(x, y, r: float) -> np.ndarray:
    """P(X <= x, Y <= y) for a standard bivariate normal pair."""
    return _bvn_upper(-np.asarray(x, float), -np.asarray(y, float), r)


# ---------------------------------------------------------------------------
# correlation adjustment
# ---------------------------------------------------------------------------

_U64_NODES, _U64_WEIGHTS = np.polynomial.legendre.leggauss(64)
_U64 = 0.5 * (_U64_NODES + 1.0)
_W64 = 0.5 * _U64_WEIGHTS


def rho_out(rho_in: float, mx: NigParams, my: NigParams) -> float:
    """Realized linear correlation of a Gaussian-copula pair with NIG margins.

    Hoeffding's covariance identity transformed to the unit square:
    substituting x = F_X^{-1}(u), y = F_Y^{-1}(v) gives

        cov = integral over (0,1)^2 of
              [C(u, v; rho_in) - u v] / [f_X(F_X^{-1}(u)) f_Y(F_Y^{-1}(v))]

    evaluated with a tensorized 64-node Gauss-Legendre rule.
    """
    if not (-1.0 < rho_in < 1.0):
        raise ValueError(f"input correlation must lie strictly inside (-1, 1), got {rho_in!r}")
    weights = []
    variances = []
    for p in (mx, my):
        quant = _table(p).quantile_clipped(_U64)
        dens = nig_pdf(quant, p)
        weights.append(_W64 / dens)
        variances.append(nig_moments(p).variance)
    z = ndtri(_U64)
    cop = _bvn_cdf(z[:, None], z[None, :], rho_in)
    cov = weights[0] @ (cop - np.outer(_U64, _U64)) @ weights[1]
    result = cov / math.sqrt(variances[0] * variances[1])
    if not np.isfinite(result):
        raise RuntimeError(f"correlation integral did not converge (got {result!r})")
    return float(result)


def _margin_params(margins) -> tuple[NigParams, ...]:
    out = []
    for m in margins:
        if isinstance(m, NigParams):
            out.append(m)
        elif isinstance(m, MarginTarget):
            out.append(nig_params_from_moments(m))
        else:
            raise TypeError(f"margin must be NigParams or MarginTarget, got {type(m).__name__}")
    return tuple(out)


def _check_correlation_matrix(mat: np.ndarray, what: str) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be square, got shape {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-12):
        raise ValueError(f"{what} must be symmetric")
    if not np.allclose(np.diag(mat), 1.0, atol=1e-12):
        raise ValueError(f"{what} must have a unit diagonal")
    smallest = float(np.linalg.eigvalsh(mat)[0])
    if smallest <= 0.0:
        raise ValueError(f"{what} is not positive definite: smallest eigenvalue {smallest:.6e}")


def adjust_correlation(target: np.ndarray, margins, tol: float = _BISECT_TOL) -> np.ndarray:
    """Input correlation matrix whose copula output correlations hit ``target``.

    Each off-diagonal entry is inverted through :func:`rho_out` by bisection
    on (-1, 1) to tolerance ``tol`` in the input correlation.  The adjusted
    matrix must itself be positive definite; it is verified, never repaired.
    """
    target = np.asarray(target, dtype=float)
    _check_correlation_matrix(target, "target correlation matrix")
    params = _margin_params(margins)
    n = target.shape[0]
    if len(params) != n:
        raise ValueError(f"{len(params)} margins for a {n}x{n} target")

    cache: dict[tuple, float] = {}
    adjusted = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            mx, my = params[i], params[j]
            key_m = tuple(sorted([(mx.alpha, mx.beta, mx.delta, mx.mu), (my.alpha, my.beta, my.delta, my.mu)]))
            key = (float(target[i, j]), key_m)
            if key not in cache:
                cache[key] = _invert_rho_out(float(target[i, j]), mx, my, tol)
            adjusted[i, j] = adjusted[j, i] = cache[key]

    smallest = float(np.linalg.eigvalsh(adjusted)[0])
    if smallest <= 0.0:
        raise ValueError(
            f"adjusted correlation matrix is not positive definite: smallest eigenvalue {smallest:.6e}"
        )
    return adjusted


def _invert_rho_out(target: float, mx: NigParams, my: NigParams, tol: float) -> float:
    if target == 0.0:
        return 0.0  # independence copula has exactly zero covariance
    lo, hi = -1.0 + 1e-9, 1.0 - 1e-9
    f_lo, f_hi = rho_out(lo, mx, my), rho_out(hi, mx, my)
    if not (f_lo <= target <= f_hi):
        raise ValueError(
            f"target correlation {target!r} is outside the attainable range "
            f"[{f_lo:.6f}, {f_hi:.6f}] for these margins"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if rho_out(mid, mx, my) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the simulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetaGaussianSpec:
    """Margins plus target/adjusted correlation matrices of the simulator."""

    margins: tuple[NigParams, ...]
    target_corr: np.ndarray
    input_corr: np.ndarray

    def __post_init__(self) -> None:
        margins = _margin_params(self.margins)
        target = np.asarray(self.target_corr, dtype=float)
        adjusted = np.asarray(self.input_corr, dtype=float)
        _check_correlation_matrix(target, "target correlation matrix")
        _check_correlation_matrix(adjusted, "input correlation matrix")
        if target.shape[0] != len(margins) or adjusted.shape[0] != len(margins):
            raise ValueError("correlation matrices must match the number of margins")
        object.__setattr__(self, "margins", margins)
        object.__setattr__(self, "target_corr", target)
        object.__setattr__(self, "input_corr", adjusted)

    @classmethod
    def from_targets(cls, margins, target_corr) -> "MetaGaussianSpec":
        """Resolve margins to NIG parameters and adjust the correlation matrix."""
        params = _margin_params(margins)
        target = np.asarray(target_corr, dtype=float)
        return cls(margins=params, target_corr=target, input_corr=adjust_correlation(target, params))

    @property
    def n_assets(self) -> int:
        return len(self.margins)


def sample_meta_gaussian(
    spec: MetaGaussianSpec,
    t_obs: int,
    seed: int,
    asset_names: Sequence[str] | None = None,
) -> ReturnSample:
    """Draw a T x N meta-Gaussian return panel, bit-reproducible in the seed.

    Each 65536-row block owns a Philox substream spawned from
    ``(seed, (SIMULATION_STREAM, block))``; Gaussians are produced by the
    inverse normal CDF applied to that stream's uniforms.
    """
    if t_obs < 1:
        raise ValueError(f"need at least one observation, got {t_obs}")
    n = spec.n_assets
    chol = np.linalg.cholesky(spec.input_corr)
    tables = [_table(p) for p in spec.margins]
    out = np.empty((t_obs, n))
    for block, start in enumerate(range(0, t_obs, _BLOCK_ROWS)):
        rows = min(_BLOCK_ROWS, t_obs - start)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(SIMULATION_STREAM, block))
        gen = np.random.Generator(np.random.Philox(ss))
        u_raw = gen.random((rows, n))
        z = ndtri(np.clip(u_raw, 1e-300, None)) @ chol.T
        u = ndtr(z)
        for i in range(n):
            out[start : start + rows, i] = tables[i].quantile_clipped(u[:, i])
    names = tuple(asset_names) if asset_names is not None else ()
    return ReturnSample(out, names)
