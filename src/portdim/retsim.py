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
map entry-wise so the sampled panel hits the target correlations.  The map's
derivative is the same integral over the bivariate normal density (Plackett
1954), so the inversion is a safeguarded Newton iteration on closed forms.

Each margin is tabulated once as its normal-score map x(z) = F^-1(Phi(z)):
node scores from the masses on both sides of each node, joined by the cubic
Hermite interpolant with the exact slopes phi(z) / f(x) (``_NigTable``).
Sampling pipeline: draw Z ~ N(0, R_in) via Cholesky and send each column
straight through its margin's map, with no normal CDF and no root-finding
per draw; ``nig_quantile(u)`` is the map at ndtri(u), and ``nig_cdf``
inverts the map by a safeguarded Newton iteration.  All randomness comes
from a counter-based generator (Philox) with substreams derived from
(seed, block index), and Gaussians are its ziggurat normals, so output is
reproducible regardless of how blocks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np
from scipy.special import k1e, ndtr, ndtri, owens_t

from .comoments import ReturnSample, _check_counts

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
    "sample_pieces",
    "sample_meta_gaussian",
]

#: substream tag reserved for the simulator (the Langevin solver uses 1)
SIMULATION_STREAM = 0

_BLOCK_ROWS = 65536
#: rows of a block drawn and transformed at a time, so that the sampler's
#: and the quantile's temporaries stay a few MB; every value follows its
#: own path, so the piece size changes no bit
_PIECE_ROWS = 8192

_TABLE_NODES = 2048
_TABLE_HALF_WIDTH_SD = 40.0
#: bins of the normal-score map's guide table
_GUIDE_BINS = 8192
#: the inversion of the map in ``nig_cdf`` stops once a step is below this
#: fraction of its interval, or after the cap, by which bisection alone is
#: far past it
_SCORE_TOL = 2.0**-50
_SCORE_STEPS = 64

#: the tail rule: 15-point Gauss-Legendre panels beyond a point, the first
#: _TAIL_FIRST_SD sd wide and each further one _TAIL_RATIO times wider
_TAIL_PANELS = 80
_TAIL_RATIO = 1.5
_TAIL_FIRST_SD = 0.25
#: points of one tail evaluation, so its (points, panels, 15) nodes stay small
_TAIL_POINTS = 256
#: the Gauss-Legendre rules (nodes, weights) of the table's panels
_GL7 = np.polynomial.legendre.leggauss(7)
_GL15 = np.polynomial.legendre.leggauss(15)

#: the largest |rho_in| that ``adjust_correlation`` returns.  Up to it the
#: 64-node rule of ``rho_out`` is increasing and inside (-1, 1), and within
#: 1.5 % of 1 - |rho_out| of a 120-node Gauss-Hermite rule on margins of
#: kurtosis 3.05-20 (4.3 % at kurtosis 30); past it that error grows to 2-6 %
#: at 0.997 and 35-65 % at 0.999, where the rule passes +-1
_RHO_IN_LIMIT = 0.996
#: the inversion of ``rho_out`` stops once a step in rho_in is below this
_NEWTON_STEP_TOL = 1e-12
#: a cap that only a cycling iteration reaches; Newton takes three or four steps
_NEWTON_MAX_STEPS = 100


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
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
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
# tabulated normal-score map
# ---------------------------------------------------------------------------


def _guide_bin(z: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Guide-table bin of each z of a 1-d array: floor((z - nodes[0]) * scale)
    with scale = _GUIDE_BINS / (nodes[-1] - nodes[0]), clipped into
    [0, _GUIDE_BINS].  NaN goes to the last bin before the cast, so no NaN
    reaches it.  Every operation rounds monotonically, so the bin never
    decreases in z, and the table is built from the bins of its own nodes."""
    v = z - nodes[0]
    v *= _GUIDE_BINS / (nodes[-1] - nodes[0])
    np.fmin(v, _GUIDE_BINS, out=v)
    np.maximum(v, 0.0, out=v)
    return v.astype(np.intp)


def _guide_table(nodes: np.ndarray) -> np.ndarray:
    """Guide table of sorted nodes over equal bins of their span (indexed
    search, Chen & Asau 1974).

    Entry k is the last node in a bin before k: every z of bin k is above
    it, and below every node of a later bin, so one compare against the next
    node settles a z of a bin that holds at most one node.  The entry is -1,
    and the bin binary-searched, where the bin holds more than one node or
    the last one, or lies beyond the last; the first node's bin has no node
    before it, so its entry is -1 too.
    """
    counts = np.bincount(_guide_bin(nodes, nodes), minlength=_GUIDE_BINS + 1)
    before = np.cumsum(counts) - counts - 1
    one_compare = (counts <= 1) & (before + counts <= nodes.size - 2)
    return np.where(one_compare, before, -1)


def _table_interval(nodes: np.ndarray, guide: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Interval of each z of a 1-d array among sorted nodes, by their guide
    table: ``clip(searchsorted(nodes, z, "right") - 1, 0, n - 2)``."""
    idx = guide[_guide_bin(z, nodes)]
    searched = idx < 0
    idx += nodes[idx + 1] <= z  # the searched entries are overwritten below
    if searched.any():
        found = np.searchsorted(nodes, z[searched], side="right") - 1
        idx[searched] = np.clip(found, 0, nodes.size - 2)
    return idx


class _NigTable:
    """A NIG law tabulated as its normal-score map x(z) = F^-1(Phi(z)).

    The pdf is integrated over 2048 sinh-spaced nodes, which cluster near the
    mean (spacing ~0.006 sd) and widen toward +-40 sd: Gauss-Legendre panels
    with one adaptive refinement pass on each interval, and beyond each end
    node a fixed rule of geometrically widening panels (``_tail``).  A node's
    normal score is ndtri(F_i) from the sums of the masses below it where
    F_i <= 1/2, and -ndtri(S_i) from the sums above it elsewhere, so both
    tails keep their relative accuracy.  The map joins the (z_i, x_i) by the
    cubic Hermite interpolant whose node slopes are the exact
    dx/dz = phi(z_i) / f(x_i); nodes whose tail mass, density or slope is not
    finite and normal are left out.  Every interval must meet the
    Fritsch-Carlson condition alpha^2 + beta^2 <= 9 (Fritsch & Carlson
    1980), so the map is increasing; the build raises otherwise.

    A score's interval comes from a guide table over 8192 equal bins of the
    scores' span (``_guide_table``): one table read and one compare, with
    binary search left to the few bins that hold more than one node.  The
    map of a score is then one cubic, with no Newton step: tabulating the
    inverse CDF itself is the fast numerical inversion of Hörmann & Leydold
    (2003).  ``cdf`` inverts the map on x's interval by a safeguarded Newton
    iteration, off the sampling path.
    """

    def __init__(self, p: NigParams) -> None:
        self.params = p
        mom = nig_moments(p)
        self.variance = mom.variance
        sd = math.sqrt(mom.variance)
        lo = min(p.mu, mom.mean) - _TABLE_HALF_WIDTH_SD * sd
        hi = max(p.mu, mom.mean) + _TABLE_HALF_WIDTH_SD * sd
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        stretch = 4.0
        t = np.linspace(-1.0, 1.0, _TABLE_NODES)
        self.x = center + half * np.sinh(stretch * t) / math.sinh(stretch)
        self._sd = sd

        masses = self._interval_masses()
        below = self._tail(self.x[:1], -1.0)[0] + np.concatenate([[0.0], np.cumsum(masses)])
        above = self._tail(self.x[-1:], 1.0)[0] + np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])
        # the rounded cumulative sum can pass 1; the cap keeps it nondecreasing
        self.cdf_values = np.minimum(below, 1.0)
        lower = below <= 0.5
        tail = np.where(lower, below, above)
        density = nig_pdf(self.x, p)
        tiny = np.finfo(float).tiny
        keep = (tail >= tiny) & (density >= tiny) & np.isfinite(density)
        z = ndtri(tail[keep])
        z = np.where(lower[keep], z, -z)
        slope = np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * density[keep])
        normal = slope >= tiny
        self.knots_z, self.knots_x, slope = z[normal], self.x[keep][normal], slope[normal]
        self._guide = _guide_table(self.knots_z)
        self._cubic = self._hermite(slope)

    def _hermite(self, slope: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-interval columns (z_i, x_i, b1, b2, b3) of the map's cubic
        x_i + s (b1 + s (b2 + s b3)) at s = z - z_i: the Hermite interpolant
        through the interval's two knots with the given slopes there, b1
        being the slope at z_i.  Raises if an interval fails the
        Fritsch-Carlson condition."""
        h = np.diff(self.knots_z)
        secant = np.diff(self.knots_x) / h
        d0, d1 = slope[:-1], slope[1:]
        alpha, beta = d0 / secant, d1 / secant
        fritsch_carlson = (h > 0.0) & (alpha * alpha + beta * beta <= 9.0)
        if not fritsch_carlson.all():
            bad = np.flatnonzero(~fritsch_carlson)
            raise ValueError(
                f"the normal-score map of {self.params!r} is not monotone on "
                f"{bad.size} of its {h.size} intervals (first at x = {self.knots_x[bad[0]]!r})"
            )
        b2 = (3.0 * secant - 2.0 * d0 - d1) / h
        b3 = (d0 + d1 - 2.0 * secant) / (h * h)
        return self.knots_z[:-1], self.knots_x[:-1], d0, b2, b3

    def _interval_masses(self) -> np.ndarray:
        lo, hi = self.x[:-1], self.x[1:]
        masses = self._panel(lo, hi, _GL15)
        # one refinement pass, ample for an analytic pdf: intervals whose 7-
        # and 15-point estimates disagree are summed over four equal sub-panels
        bad = np.abs(masses - self._panel(lo, hi, _GL7)) > 1e-16
        edges = np.linspace(lo[bad], hi[bad], 5).T  # (n_bad, 5)
        sub = self._panel(edges[:, :-1].ravel(), edges[:, 1:].ravel(), _GL15)
        masses[bad] = sub.reshape(-1, 4).sum(axis=1)
        return masses

    def _panel(self, lo: np.ndarray, hi: np.ndarray, rule: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        nodes, weights = rule
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        pts = mid[..., None] + half[..., None] * nodes
        vals = nig_pdf(pts, self.params)
        return half * (vals @ weights)

    def _tail(self, x: np.ndarray, side: float) -> np.ndarray:
        """Mass of the pdf beyond each point of the 1-d ``x``: below it for
        ``side`` -1, above it for +1.

        A fixed rule of 80 15-point Gauss-Legendre panels beyond each point,
        the first 0.25 sd wide and each further one 1.5 times wider, so they
        reach about 6e13 sd into the tail and resolve its exponential decay
        near the point.  At the first node it is within 1e-15 relative of a
        30-digit reference on margins of kurtosis 6 and 30.
        """
        widths = _TAIL_FIRST_SD * self._sd * _TAIL_RATIO ** np.arange(_TAIL_PANELS)
        offsets = side * np.concatenate([[0.0], np.cumsum(widths)])
        out = np.empty(x.shape)
        for start in range(0, x.size, _TAIL_POINTS):
            block = x[start : start + _TAIL_POINTS, None]
            near, far = block + offsets[:-1], block + offsets[1:]
            lo, hi = (far, near) if side < 0.0 else (near, far)
            out[start : start + _TAIL_POINTS] = self._panel(lo, hi, _GL15).sum(axis=1)
        return out

    @cached_property
    def copula_weights(self) -> np.ndarray:
        """This margin's factors w_k / f(F^-1(u_k)) of ``rho_out``'s 64-node rule."""
        return _W64 / nig_pdf(self.score_map(_Z64), self.params)

    def score_map(self, z) -> np.ndarray:
        """x(z) = F^-1(Phi(z)) of each normal score, an array of ``z``'s shape.

        Scores beyond the knots map to the end knots, and NaN to NaN.  Each
        value reads its interval from the guide table and evaluates that
        interval's cubic, kept below the interval's right knot against
        rounding, so it lies between its interval's knot values.  Every value
        follows its own path, so how the scores are split between calls (the
        sampler passes ``_PIECE_ROWS`` rows of one column) changes no bit.
        """
        za = np.asarray(z, dtype=float)
        s = np.clip(za.reshape(-1), self.knots_z[0], self.knots_z[-1])
        idx = _table_interval(self.knots_z, self._guide, s)
        z0, x0, b1, b2, b3 = (col[idx] for col in self._cubic)
        s -= z0
        x = b3 * s
        x += b2
        x *= s
        x += b1
        x *= s
        x += x0
        np.minimum(x, self.knots_x[idx + 1], out=x)
        return x.reshape(za.shape)

    def cdf(self, x) -> np.ndarray:
        """Phi of the map's inverse, the end knot's value beyond the last
        knot, and at and below the first knot the tail rule up to each point."""
        xa = np.asarray(x, dtype=float)
        flat = xa.reshape(-1)
        clipped = np.clip(flat, self.knots_x[0], self.knots_x[-1])
        idx = np.clip(np.searchsorted(self.knots_x, clipped, side="right") - 1, 0, self.knots_x.size - 2)
        out = ndtr(self._score(clipped, idx))
        below = flat <= self.knots_x[0]
        out[below] = self._tail(flat[below], -1.0)
        return out.reshape(xa.shape)

    def _score(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """The score z of each x on its interval idx with x(z) = x: Newton's
        method on the interval's cubic from the secant's point, safeguarded
        by a bracket that each step narrows by the sign of its residual; a
        step that leaves the bracket goes to its midpoint instead."""
        z0, x0, b1, b2, b3 = (col[idx] for col in self._cubic)
        h = self.knots_z[idx + 1] - z0
        target = x - x0
        lo, hi = np.zeros_like(h), h
        s = np.clip(target / (self.knots_x[idx + 1] - x0) * h, lo, hi)
        for _ in range(_SCORE_STEPS):
            resid = s * (b1 + s * (b2 + s * b3)) - target
            lo = np.where(resid <= 0.0, s, lo)
            hi = np.where(resid >= 0.0, s, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = s - resid / (b1 + s * (2.0 * b2 + 3.0 * s * b3))
            newton = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
            settled = ~(np.abs(newton - s) > _SCORE_TOL * h)  # a NaN x settles at once
            s = newton
            if settled.all():
                break
        return np.where(np.isnan(target), math.nan, z0 + s)


@lru_cache(maxsize=64)
def _table(p: NigParams) -> _NigTable:
    return _NigTable(p)


def nig_cdf(x, p: NigParams):
    """NIG distribution function: Phi of the inverse of the tabulated normal-score map."""
    out = _table(p).cdf(x)
    return out if out.ndim else float(out)


def nig_quantile(u, p: NigParams):
    """NIG quantile function, the normal-score map at ndtri(u); ``u`` must lie strictly inside (0, 1)."""
    ua = np.asarray(u, dtype=float)
    if not np.all((ua > 0.0) & (ua < 1.0)):  # NaN fails both comparisons
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = _table(p).score_map(ndtri(ua))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# correlation adjustment
# ---------------------------------------------------------------------------

_U64_NODES, _U64_WEIGHTS = np.polynomial.legendre.leggauss(64)
_U64 = 0.5 * (_U64_NODES + 1.0)
_W64 = 0.5 * _U64_WEIGHTS
#: the normal scores of the rule's nodes, and the independence copula on its grid
_Z64 = ndtri(_U64)
_INDEPENDENT64 = np.outer(_U64, _U64)


def _bvn_grid(z: np.ndarray, r: float) -> np.ndarray:
    """Phi2(z_i, z_j; r) = P(X <= z_i, Y <= z_j) of a standard bivariate normal, |r| < 1.

    Owen's (1956) identity with h = z_i, k = z_j and Owen's T function:
    Phi2 = (Phi(h) + Phi(k)) / 2 - T(h, a) - T(k, a') - [hk < 0] / 2, where
    a = (k - r h) / (h sqrt(1 - r^2)) and a' swaps h and k.  On the square
    grid T(k, a') is the transpose of T(h, a), so one call gives both and the
    result is exactly symmetric.  k - r h is (k - h) + (1 - r) h, or
    (k + h) - (1 + r) h for r < 0, where 1 -+ r is exact; the plain form
    loses ~1e-13 near |r| = 1.  No z may be 0, and none is on ``rho_out``'s
    grid: its 64 Gauss-Legendre nodes pair up around u = 1/2.
    """
    h, k = z[:, None], z[None, :]
    k_minus_rh = (k - h) + (1.0 - r) * h if r >= 0.0 else (k + h) - (1.0 + r) * h
    t = owens_t(h, k_minus_rh / (h * math.sqrt((1.0 - r) * (1.0 + r))))
    phi = ndtr(z)
    return 0.5 * (phi[:, None] + phi[None, :]) - (t + t.T) - 0.5 * (h * k < 0.0)


def _bvn_density_grid(z: np.ndarray, r: float) -> np.ndarray:
    """phi2(z_i, z_j; r), the standard bivariate normal density, |r| < 1.

    By Plackett's (1954) identity it is d Phi2 / dr.  The quadratic form
    h^2 - 2 r h k + k^2 is (h - k)^2 + 2 (1 - r) h k, or (h + k)^2 - 2 (1 + r) h k
    for r < 0, as ``_bvn_grid`` forms k - r h."""
    h, k = z[:, None], z[None, :]
    quad = (h - k) ** 2 + 2.0 * (1.0 - r) * (h * k) if r >= 0.0 else (h + k) ** 2 - 2.0 * (1.0 + r) * (h * k)
    one_minus_r2 = (1.0 - r) * (1.0 + r)
    return np.exp(-0.5 * quad / one_minus_r2) / (2.0 * math.pi * math.sqrt(one_minus_r2))


def rho_out(rho_in: float, mx: NigParams, my: NigParams) -> float:
    """Realized linear correlation of a Gaussian-copula pair with NIG margins.

    Hoeffding's covariance identity transformed to the unit square:
    substituting x = F_X^{-1}(u), y = F_Y^{-1}(v) gives

        cov = integral over (0,1)^2 of
              [C(u, v; rho_in) - u v] / [f_X(F_X^{-1}(u)) f_Y(F_Y^{-1}(v))]

    evaluated with a tensorized 64-node Gauss-Legendre rule, whose margin
    factors each NIG table forms once (``copula_weights``).
    """
    if not (-1.0 < rho_in < 1.0):
        raise ValueError(f"input correlation must lie strictly inside (-1, 1), got {rho_in!r}")
    tx, ty = _table(mx), _table(my)
    cov = tx.copula_weights @ (_bvn_grid(_Z64, rho_in) - _INDEPENDENT64) @ ty.copula_weights
    result = cov / math.sqrt(tx.variance * ty.variance)
    if not np.isfinite(result):
        raise RuntimeError(f"correlation integral did not converge (got {result!r})")
    return float(result)


def _rho_out_slope(rho_in: float, mx: NigParams, my: NigParams) -> float:
    """d rho_out / d rho_in: ``rho_out``'s rule over the bivariate normal density."""
    tx, ty = _table(mx), _table(my)
    slope = tx.copula_weights @ _bvn_density_grid(_Z64, rho_in) @ ty.copula_weights
    return float(slope / math.sqrt(tx.variance * ty.variance))


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


def adjust_correlation(target: np.ndarray, margins) -> np.ndarray:
    """Input correlation matrix whose copula output correlations hit ``target``.

    Each distinct off-diagonal entry is inverted through :func:`rho_out` by
    Newton's method on its closed-form derivative, safeguarded by a bracket
    in (-1, 1), until a step in the input correlation is below
    ``_NEWTON_STEP_TOL`` (see ``_invert_rho_out``).  A target whose input
    correlation would pass ``_RHO_IN_LIMIT`` in magnitude raises
    ``ValueError``.  The adjusted matrix must itself be positive definite;
    it is verified, never repaired.
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
                cache[key] = _invert_rho_out(float(target[i, j]), mx, my)
            adjusted[i, j] = adjusted[j, i] = cache[key]

    smallest = float(np.linalg.eigvalsh(adjusted)[0])
    if smallest <= 0.0:
        raise ValueError(
            f"adjusted correlation matrix is not positive definite: smallest eigenvalue {smallest:.6e}"
        )
    return adjusted


def _invert_rho_out(target: float, mx: NigParams, my: NigParams) -> float:
    """rho_in with ``rho_out(rho_in, mx, my) == target``: Newton's method from
    rho_in = target, safeguarded by a bracket [-1 + 1e-9, 1 - 1e-9] that each
    evaluation tightens by the sign of its residual; a step that leaves the
    bracket goes to its midpoint instead.  It stops once a step is below
    ``_NEWTON_STEP_TOL``.

    A root beyond ``_RHO_IN_LIMIT`` in magnitude is refused, and so is a
    target beyond the bracket's image, which the midpoint steps chase to its
    end: the map is increasing, so these are the targets outside the image
    of the trusted inputs, and only then are the limit's ends evaluated."""
    if target == 0.0:
        return 0.0  # independence copula has exactly zero covariance
    lo, hi = -1.0 + 1e-9, 1.0 - 1e-9
    x = min(max(target, lo), hi)
    for _ in range(_NEWTON_MAX_STEPS):
        resid = rho_out(x, mx, my) - target
        if resid < 0.0:
            lo = x
        else:
            hi = x
        d = _rho_out_slope(x, mx, my)
        step = -resid / d if d > 0.0 else math.inf
        if not lo <= x + step <= hi:
            step = 0.5 * (lo + hi) - x
        x += step
        if abs(step) < _NEWTON_STEP_TOL:
            if abs(x) > _RHO_IN_LIMIT:
                f_lo, f_hi = (rho_out(end, mx, my) for end in (-_RHO_IN_LIMIT, _RHO_IN_LIMIT))
                raise ValueError(
                    f"target correlation {target!r} is outside the attainable range "
                    f"[{f_lo:.6f}, {f_hi:.6f}] for these margins, the image of the "
                    f"input correlation limit |rho_in| <= {_RHO_IN_LIMIT}"
                )
            return x
    raise RuntimeError(f"correlation inversion for target {target!r} did not converge")


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


def sample_pieces(spec: MetaGaussianSpec, t_obs: int, seed: int) -> Iterator[np.ndarray]:
    """The rows of a T x N meta-Gaussian return panel in order, 8192 at a
    time (whole ``build_comoments`` chunks), bit-reproducible in the seed.

    Each 65536-row block owns a Philox substream spawned from
    ``(seed, (SIMULATION_STREAM, block))``, and its Gaussians are that
    stream's ziggurat normals (``Generator.standard_normal``, Marsaglia &
    Tsang 2000), filled value by value, so the piece size changes no bit.
    A piece's rows are correlated by the Cholesky factor, and each column
    is sent through its margin's normal-score map.
    """
    _check_counts(("t_obs", t_obs, 1), ("seed", seed, 0))
    chol = np.linalg.cholesky(spec.input_corr)
    tables = [_table(p) for p in spec.margins]
    for block, block_start in enumerate(range(0, t_obs, _BLOCK_ROWS)):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(SIMULATION_STREAM, block))
        gen = np.random.Generator(np.random.Philox(ss))
        block_end = min(block_start + _BLOCK_ROWS, t_obs)
        for start in range(block_start, block_end, _PIECE_ROWS):
            z = gen.standard_normal((min(_PIECE_ROWS, block_end - start), spec.n_assets)) @ chol.T
            yield np.column_stack([table.score_map(z[:, i]) for i, table in enumerate(tables)])


def sample_meta_gaussian(spec: MetaGaussianSpec, t_obs: int, seed: int) -> ReturnSample:
    """The T x N panel whose rows ``sample_pieces`` yields."""
    _check_counts(("t_obs", t_obs, 1), ("seed", seed, 0))
    out = np.empty((t_obs, spec.n_assets))
    start = 0
    for piece in sample_pieces(spec, t_obs, seed):
        out[start : start + len(piece)] = piece
        start += len(piece)
    return ReturnSample(out)
