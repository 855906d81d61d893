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

Sampling pipeline: draw Z ~ N(0, R_in) via Cholesky, map to uniforms with
the normal CDF, then through each margin's quantile function.  All
randomness comes from a counter-based generator (Philox) with substreams
derived from (seed, block index), and Gaussians are produced by inverse
CDF, so output is reproducible regardless of how blocks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    "sample_meta_gaussian",
]

#: substream tag reserved for the simulator (the Langevin solver uses 1)
SIMULATION_STREAM = 0

_BLOCK_ROWS = 65536
#: rows of a block drawn and transformed at a time, so that the sampler's
#: (rows, N) temporaries stay a few MB; every value follows its own path,
#: so the piece size changes no bit
_PIECE_ROWS = 8192

_TABLE_NODES = 2048
_TABLE_HALF_WIDTH_SD = 40.0
#: bins of the quantile's guide table; a power of two, so u * _GUIDE_BINS
#: and every bin edge k / _GUIDE_BINS are exact
_GUIDE_BINS = 8192
#: values per quantile block, so that its temporaries stay in cache
_QUANTILE_BLOCK = 8192

#: the left-tail rule: 15-point Gauss-Legendre panels below a point, the
#: first _TAIL_FIRST_SD sd wide and each further one _TAIL_RATIO times wider
_TAIL_PANELS = 80
_TAIL_RATIO = 1.5
_TAIL_FIRST_SD = 0.25
#: points of one left-tail evaluation, so its (points, panels, 15) nodes stay small
_TAIL_POINTS = 256
#: the Gauss-Legendre rules (nodes, weights) of the table's panels
_GL7 = np.polynomial.legendre.leggauss(7)
_GL15 = np.polynomial.legendre.leggauss(15)

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
# tabulated CDF / quantile
# ---------------------------------------------------------------------------


def _guide_table(cdf_values: np.ndarray) -> np.ndarray:
    """Guide table of a tabulated CDF (indexed search, Chen & Asau 1974).

    Entry k is the last node whose CDF value is at most k / _GUIDE_BINS.  It
    is -1, and the bin [k, k+1) / _GUIDE_BINS searched, where one compare
    against the next node cannot settle a u of the bin: the bin holds more
    than one node, starts below the first node or ends above the last
    interval.  A final bin, for u >= 1 and NaN, is searched as well.
    """
    edges = np.arange(_GUIDE_BINS + 1) / _GUIDE_BINS
    below = np.searchsorted(cdf_values, edges, side="right") - 1
    lo, hi = below[:-1], below[1:]
    one_compare = (hi - lo <= 1) & (hi <= cdf_values.size - 2)
    return np.append(np.where(one_compare, lo, -1), -1)


def _table_interval(cdf_values: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Interval of each u >= 0 (or NaN) in a tabulated CDF, by its guide table:
    ``clip(searchsorted(cdf_values, u, "right") - 1, 0, n - 2)``.

    ``fmin`` sends NaN and u >= 1 to the final bin before the cast, so no
    NaN reaches it."""
    idx = guide[np.fmin(u * _GUIDE_BINS, _GUIDE_BINS).astype(np.intp)]
    searched = idx < 0
    idx += cdf_values[idx + 1] <= u  # the searched entries are overwritten below
    if searched.any():
        found = np.searchsorted(cdf_values, u[searched], side="right") - 1
        idx[searched] = np.clip(found, 0, cdf_values.size - 2)
    return idx


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """Moler's one-sided three-point slope at an end node, kept shape-preserving."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-interval power coefficients (c0, c1, c2, c3) of the monotone cubic
    (PCHIP, Fritsch & Carlson 1980) through (x, y): on [x_i, x_i+1] it is
    c3 + c2 s + c1 s^2 + c0 s^3 at s = x - x_i.

    The node slopes are the weighted harmonic mean of the two secants, zero
    where a secant is zero or the secants change sign, and Moler's one-sided
    rule at the two ends.  Every operation is the one scipy's
    ``PchipInterpolator`` performs, in its order, so the coefficients are
    its ``c`` bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    # the far-tail secants can be denormal; the harmonic mean of them
    # overflows to the correct zero slope, so the warning is noise
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    d = np.empty_like(y)
    d[1:-1] = np.where(flat, 0.0, inner)
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]


class _NigTable:
    """CDF tabulation of a NIG law on 2048 sinh-spaced nodes.

    Node positions cluster near the mean (spacing ~0.006 sd) and widen
    toward +-40 sd.  Per-interval integrals of the pdf use Gauss-Legendre
    panels with one adaptive refinement pass, and the mass below the first
    node a fixed rule of geometrically widening panels (``_left_tail``); the
    cumulative sums, capped at 1, are interpolated with a monotone cubic
    (PCHIP, ``_pchip``), which the quantile
    inverts on the cubic of the one interval bracketing each target: one
    Newton step from an inverse-Hermite start, with a bisection of that
    interval behind it.

    The bracketing interval comes from a guide table over 8192 equal bins
    of u (``_guide_table``): ``_guide[k]`` is the last node whose CDF value
    is at most k / 8192, so a u of bin k lies in interval ``_guide[k]`` or
    the next one, and one compare against the next node decides.  Only u in
    the few bins marked -1 (more than one node, the table's ends, u >= 1,
    NaN) are binary-searched.
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

        left_tail = self._left_tail(self.x[:1])[0]
        intervals = self._interval_masses()
        # the rounded cumulative sum can pass 1; the cap keeps it nondecreasing
        self.cdf_values = np.minimum(left_tail + np.concatenate([[0.0], np.cumsum(intervals)]), 1.0)
        self._guide = _guide_table(self.cdf_values)
        # per-interval columns, each gathered on its own: the cubic's four
        # coefficients and its slope's 3c0 and 2c1, as a derivative forms them
        c0, c1, c2, c3 = _pchip(self.x, self.cdf_values)
        self._cubic = (c0, c1, c2, c3, 3.0 * c0, 2.0 * c1)
        self._inverse = self._inverse_hermite()

    def _inverse_hermite(self) -> tuple[np.ndarray, ...]:
        """Cubic Hermite interpolant of the inverse CDF on each interval
        (Hörmann & Leydold 2003): x(t) = x_i + t (b1 + t (b2 + t b3)) at
        t = (u - F_i) / (F_{i+1} - F_i), through (F_i, x_i) and
        (F_{i+1}, x_{i+1}) with end slopes 1 / F' from the PCHIP derivatives.

        Returns the columns (F_i, 1 / (F_{i+1} - F_i), b1, b2, b3).  An
        interval whose mass or an end slope is zero, denormal or not finite
        gets the linear start (b2 = b3 = 0), and one without a normal mass
        starts at x_i (1 / mass stored as 0).
        """
        tiny = np.finfo(float).tiny
        flo, mass = self.cdf_values[:-1], np.diff(self.cdf_values)
        width = np.diff(self.x)
        # the cubic's slope at every node, the last one at the right end of
        # the last interval, in the order of a polynomial evaluation with nu=1
        idx = np.minimum(np.arange(self.x.size), self.x.size - 2)
        s = self.x - self.x[idx]
        c0, c1, c2 = (col[idx] for col in self._cubic[:3])
        slopes = (c2 + (c1 * s) * 2.0) + (c0 * (s * s)) * 3.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            m0 = mass / slopes[:-1]  # dx/dt at each end of the interval
            m1 = mass / slopes[1:]
            b2 = 3.0 * width - 2.0 * m0 - m1
            b3 = m0 + m1 - 2.0 * width
        has_mass = mass >= tiny
        hermite = has_mass & (np.minimum(slopes[:-1], slopes[1:]) >= tiny) & np.isfinite(b2) & np.isfinite(b3)
        inv_mass = np.divide(1.0, mass, out=np.zeros_like(mass), where=has_mass)
        return (
            flo,
            inv_mass,
            np.where(hermite, m0, width),
            np.where(hermite, b2, 0.0),
            np.where(hermite, b3, 0.0),
        )

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

    def _left_tail(self, x: np.ndarray) -> np.ndarray:
        """Mass of the pdf below each point of the 1-d ``x``.

        A fixed rule of 80 15-point Gauss-Legendre panels below each point,
        the first 0.25 sd wide and each further one 1.5 times wider, so they
        reach about 6e13 sd down the tail and resolve its exponential decay
        near the point.  At the first node it is within 1e-15 relative of a
        30-digit reference on margins of kurtosis 6 and 30.
        """
        widths = _TAIL_FIRST_SD * self._sd * _TAIL_RATIO ** np.arange(_TAIL_PANELS)
        offsets = np.concatenate([[0.0], np.cumsum(widths)])
        out = np.empty(x.shape)
        for start in range(0, x.size, _TAIL_POINTS):
            block = x[start : start + _TAIL_POINTS, None]
            panels = self._panel(block - offsets[1:], block - offsets[:-1], _GL15)
            out[start : start + _TAIL_POINTS] = panels.sum(axis=1)
        return out

    @cached_property
    def copula_weights(self) -> np.ndarray:
        """This margin's factors w_k / f(F^-1(u_k)) of ``rho_out``'s 64-node rule."""
        return _W64 / nig_pdf(self.quantile_clipped(_U64), self.params)

    def cdf(self, x) -> np.ndarray:
        """The interpolant, its end values beyond the table, and below the
        first node the left-tail mass up to each point."""
        xa = np.asarray(x, dtype=float)
        clipped = np.clip(xa, self.x[0], self.x[-1])
        idx = np.clip(np.searchsorted(self.x, clipped, side="right") - 1, 0, self.x.size - 2)
        s = clipped - self.x[idx]
        c0, c1, c2, c3 = (col[idx] for col in self._cubic[:4])
        out = np.where(xa >= self.x[-1], self.cdf_values[-1], ((c3 + c2 * s) + c1 * (s * s)) + c0 * ((s * s) * s))
        below = xa < self.x[0]
        out[below] = self._left_tail(xa[below])
        return out

    def quantile_clipped(self, u) -> np.ndarray:
        """Quantiles of the tabulated CDF; clips u into table range, keeps NaN.

        The values run in blocks of 8192, each block's intervals read from
        the guide table (see the class docstring).  Each value starts from
        its interval's inverse Hermite interpolant (``_inverse_hermite``) and
        takes one Newton step on the interval's cubic.  The step is kept when
        it stays in the interval and the cubic there is within 1e-14 of u.
        The few others, compacted, bisect the same interval (``_bisect``), so
        every quantile lies in the interval its u falls in.  Every value
        follows its own path, so the blocks do not change any bit.  Returns
        an array of ``u``'s shape.
        """
        ua = np.asarray(u, dtype=float)
        q = np.empty(ua.shape)
        flat_u, flat_q = ua.reshape(-1), q.reshape(-1)
        for start in range(0, flat_u.size, _QUANTILE_BLOCK):
            block = slice(start, start + _QUANTILE_BLOCK)
            flat_q[block] = self._one_step(np.clip(flat_u[block], self.cdf_values[0], self.cdf_values[-1]))
        return q

    def _one_step(self, ua: np.ndarray) -> np.ndarray:
        """The quantiles of one block of u already clipped into table range."""
        idx = _table_interval(self.cdf_values, self._guide, ua)
        flo, inv_mass, b1, b2, b3 = (col[idx] for col in self._inverse)
        lo = self.x[idx]
        t = (ua - flo) * inv_mass
        s = t * (b1 + t * (b2 + t * b3))  # the start's offset from x[idx]
        c0, c1, c2, c3, d0, d1 = (col[idx] for col in self._cubic)
        s2 = s * s
        resid = (((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)) - ua
        slope = (c2 + d1 * s) + d0 * s2
        # a zero slope sends q to +-inf or NaN, which the test below rejects
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = (lo + s) - resid / slope
            s = q - lo
            s2 = s * s
            resid = (((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)) - ua
        accepted = (np.abs(resid) < 1e-14) & (lo <= q) & (q <= self.x[idx + 1])
        redo = np.flatnonzero(~accepted)
        redo = redo[~np.isnan(ua[redo])]  # a NaN u fails every compare and keeps its NaN
        if redo.size:
            q[redo] = self._bisect(ua[redo], idx[redo])
        return q

    def _bisect(self, ua: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Bisection of each interval cubic on [x_idx, x_idx+1] for u already
        clipped into table range, until the cubic is within 1e-14 of u; a
        settled value holds both ends, so it stays put.  Every midpoint lies
        in the interval, so no quantile can leave it."""
        lo, hi = self.x[idx], self.x[idx + 1]
        origin = lo
        c0, c1, c2, c3 = (col[idx] for col in self._cubic[:4])
        q = 0.5 * (lo + hi)
        for _ in range(60):
            s = q - origin
            s2 = s * s
            resid = (((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)) - ua
            settled = np.abs(resid) < 1e-14
            if settled.all():
                break
            lo = np.where(settled | (resid <= 0.0), q, lo)
            hi = np.where(settled | (resid > 0.0), q, hi)
            q = 0.5 * (lo + hi)
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
    if not np.all((ua > 0.0) & (ua < 1.0)):  # NaN fails both comparisons
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = _table(p).quantile_clipped(ua)
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
    ``_NEWTON_STEP_TOL`` (see ``_invert_rho_out``).  The adjusted matrix must
    itself be positive definite; it is verified, never repaired.
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
    rho_in = target, safeguarded by a bracket that each evaluation tightens
    by the sign of its residual; a step that leaves the bracket goes to its
    midpoint instead.  It stops once a step is below ``_NEWTON_STEP_TOL``."""
    if target == 0.0:
        return 0.0  # independence copula has exactly zero covariance
    lo, hi = -1.0 + 1e-9, 1.0 - 1e-9
    f_lo, f_hi = rho_out(lo, mx, my), rho_out(hi, mx, my)
    if not (f_lo <= target <= f_hi):
        raise ValueError(
            f"target correlation {target!r} is outside the attainable range "
            f"[{f_lo:.6f}, {f_hi:.6f}] for these margins"
        )
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


def sample_meta_gaussian(spec: MetaGaussianSpec, t_obs: int, seed: int) -> ReturnSample:
    """Draw a T x N meta-Gaussian return panel, bit-reproducible in the seed.

    Each 65536-row block owns a Philox substream spawned from
    ``(seed, (SIMULATION_STREAM, block))``; Gaussians are produced by the
    inverse normal CDF applied to that stream's uniforms.  A block's rows
    are drawn from its stream and transformed 8192 at a time.
    """
    _check_counts(("t_obs", t_obs, 1), ("seed", seed, 0))
    n = spec.n_assets
    chol = np.linalg.cholesky(spec.input_corr)
    tables = [_table(p) for p in spec.margins]
    out = np.empty((t_obs, n))
    for block, block_start in enumerate(range(0, t_obs, _BLOCK_ROWS)):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(SIMULATION_STREAM, block))
        gen = np.random.Generator(np.random.Philox(ss))
        block_end = min(block_start + _BLOCK_ROWS, t_obs)
        for start in range(block_start, block_end, _PIECE_ROWS):
            rows = min(_PIECE_ROWS, block_end - start)
            z = ndtri(np.clip(gen.random((rows, n)), 1e-300, None)) @ chol.T
            u = ndtr(z)
            for i in range(n):
                out[start : start + rows, i] = tables[i].quantile_clipped(u[:, i])
    return ReturnSample(out)
