"""NIG margins, correlation adjustment, and the meta-Gaussian sampler."""

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

from portdim import retsim as rs

from conftest import homogeneous_spec

P_ASYM = rs.NigParams(alpha=2.0, beta=0.5, delta=1.3, mu=-0.2)
P_SYM = rs.NigParams(alpha=1.5, beta=0.0, delta=2.0, mu=0.0)


margin_targets = st.builds(
    rs.MarginTarget,
    mean=st.floats(min_value=-0.5, max_value=0.5),
    variance=st.floats(min_value=0.25, max_value=4.0),
    skewness=st.just(0.0),
    kurtosis=st.floats(min_value=3.2, max_value=12.0),
)


def _skewed_target(mean, variance, kurtosis, skew_fraction):
    skew_bound = math.sqrt(3.0 * (kurtosis - 3.0) / 5.0)
    return rs.MarginTarget(mean, variance, skew_fraction * skew_bound, kurtosis)


# skewness up to 0.9 of the NIG bound sqrt(3 (kurtosis - 3) / 5), either sign
skewed_margins = st.builds(
    _skewed_target,
    mean=st.floats(min_value=-0.5, max_value=0.5),
    variance=st.floats(min_value=0.25, max_value=4.0),
    kurtosis=st.floats(min_value=3.2, max_value=12.0),
    skew_fraction=st.floats(min_value=-0.9, max_value=0.9),
)


# kurtosis up to 30: dozens of zero-mass tail intervals and guide bins that hold many nodes
heavy_skewed_margins = st.builds(
    _skewed_target,
    mean=st.floats(min_value=-0.5, max_value=0.5),
    variance=st.floats(min_value=0.25, max_value=4.0),
    kurtosis=st.floats(min_value=3.05, max_value=30.0),
    skew_fraction=st.floats(min_value=-0.9, max_value=0.9),
)


def _reference_interval(nodes, v):
    return np.clip(np.searchsorted(nodes, v, side="right") - 1, 0, nodes.size - 2)


def _reference_map(table, z):
    """The normal-score map with the interval from ``searchsorted``: the
    interval's cubic at the clipped score, kept below its right knot."""
    zc = np.clip(np.asarray(z, dtype=float), table.knots_z[0], table.knots_z[-1])
    idx = _reference_interval(table.knots_z, zc)
    z0, x0, b1, b2, b3 = (col[idx] for col in table._cubic)
    s = zc - z0
    return np.minimum(((b3 * s + b2) * s + b1) * s + x0, table.knots_x[idx + 1])


def test_parameter_validation():
    with pytest.raises(ValueError):
        rs.NigParams(alpha=-1.0, beta=0.0, delta=1.0, mu=0.0)
    with pytest.raises(ValueError):
        rs.NigParams(alpha=1.0, beta=1.5, delta=1.0, mu=0.0)
    with pytest.raises(ValueError):
        rs.NigParams(alpha=1.0, beta=0.0, delta=0.0, mu=0.0)


def test_margin_target_validation():
    with pytest.raises(ValueError, match="exceeds 3"):
        rs.MarginTarget(mean=0.0, variance=1.0, skewness=0.0, kurtosis=3.0)
    # skewness-kurtosis bound: skew^2 < 3(kurt - 3)/5
    with pytest.raises(ValueError, match="bound"):
        rs.MarginTarget(mean=0.0, variance=1.0, skewness=1.4, kurtosis=6.0)


@pytest.mark.parametrize("field", ["mean", "variance", "skewness", "kurtosis"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_margin_target_rejects_non_finite_fields(field, value):
    moments = {"mean": 0.0, "variance": 1.0, "skewness": 0.0, "kurtosis": 6.0} | {field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        rs.MarginTarget(**moments)


def test_pdf_integrates_to_one():
    for p in (P_ASYM, P_SYM):
        total, err = quad(rs.nig_pdf, -np.inf, np.inf, args=(p,), limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_pdf_moments_match_closed_forms():
    p = P_ASYM
    m = rs.nig_moments(p)
    mean, _ = quad(lambda x: x * rs.nig_pdf(x, p), -np.inf, np.inf, limit=200)
    var, _ = quad(lambda x: (x - m.mean) ** 2 * rs.nig_pdf(x, p), -np.inf, np.inf, limit=200)
    assert mean == pytest.approx(m.mean, abs=1e-9)
    assert var == pytest.approx(m.variance, abs=1e-8)


@given(margin_targets)
@settings(max_examples=40, deadline=None)
def test_moment_round_trip(t):
    p = rs.nig_params_from_moments(t)
    m = rs.nig_moments(p)
    assert m.mean == pytest.approx(t.mean, abs=1e-11)
    assert m.variance == pytest.approx(t.variance, rel=1e-11)
    assert m.kurtosis == pytest.approx(t.kurtosis, rel=1e-11)


def test_param_round_trip_asymmetric():
    t = rs.MarginTarget(mean=0.03, variance=1.7, skewness=0.6, kurtosis=5.5)
    p = rs.nig_params_from_moments(t)
    m = rs.nig_moments(p)
    assert m.skewness == pytest.approx(0.6, rel=1e-11)
    p2 = rs.nig_params_from_moments(m)
    assert p2.alpha == pytest.approx(p.alpha, rel=1e-10)
    assert p2.beta == pytest.approx(p.beta, rel=1e-10)
    assert p2.delta == pytest.approx(p.delta, rel=1e-10)
    assert p2.mu == pytest.approx(p.mu, abs=1e-10)


def test_cdf_monotone_and_normalized():
    xs = np.linspace(-25.0, 25.0, 501)
    cdf = rs.nig_cdf(xs, P_ASYM)
    assert np.all(np.diff(cdf) >= 0.0)
    assert cdf[0] < 1e-6 and cdf[-1] > 1 - 1e-6


def test_table_builds_without_warnings_for_near_gaussian_skewed_margin():
    # denormal far-tail slopes once made PCHIP warn, which -W error turns into a crash
    p = rs.nig_params_from_moments(_skewed_target(0.0, 1.0, 3.2, 0.9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = rs._NigTable(p)  # not the cached _table: build it under the filter
    assert np.all(np.isfinite(table.cdf_values)) and np.all(np.isfinite(table._cubic))


def test_quantile_inverts_cdf():
    us = np.linspace(0.001, 0.999, 199)
    xs = rs.nig_quantile(us, P_ASYM)
    assert np.all(np.diff(xs) > 0.0)
    assert np.max(np.abs(rs.nig_cdf(xs, P_ASYM) - us)) < 1e-10


def _score_queries(nodes):
    """Scores around sorted nodes: the nodes and their neighbouring floats,
    the edges of every guide bin, points beyond both ends, +-inf and NaN."""
    edges = nodes[0] + (nodes[-1] - nodes[0]) * (np.arange(rs._GUIDE_BINS + 2) / rs._GUIDE_BINS)
    beyond = [nodes[0] - 1.0, np.nextafter(nodes[0], -np.inf), np.nextafter(nodes[-1], np.inf), nodes[-1] + 1.0]
    return np.concatenate(
        [nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf), edges, beyond, [-np.inf, np.inf, np.nan]]
    )


@given(heavy_skewed_margins)
@settings(max_examples=40, deadline=None)
def test_guide_table_interval_equals_searchsorted(t):
    table = rs._table(rs.nig_params_from_moments(t))
    z = _score_queries(table.knots_z)
    assert np.array_equal(rs._table_interval(table.knots_z, table._guide, z), _reference_interval(table.knots_z, z))


@pytest.mark.parametrize(
    "cdf",
    [
        [0.2, 0.5, 0.9, 1.0 - 1e-9],  # one node in each end bin, the last below 1
        [0.0, 0.0, 0.4, 0.4, 1.0, 1.0 + 1e-12],  # zero-mass intervals, a last node above 1
        [1e-300, 2e-300, 0.5, 0.5 + 1e-5, 0.5 + 2e-5, 1.0],
    ],
)
def test_guide_table_interval_on_end_bins_and_flat_intervals(cdf):
    cdf = np.array(cdf)
    edges = np.arange(rs._GUIDE_BINS + 2) / rs._GUIDE_BINS
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), edges, np.nextafter(edges, 2.0)])
    assert np.array_equal(rs._table_interval(cdf, rs._guide_table(cdf), u), _reference_interval(cdf, u))


# scores with several nodes in one guide bin (at an end and in the middle),
# one node per end bin, and nodes a denormal apart
@pytest.mark.parametrize(
    "nodes",
    [
        [-5.0, -5.0 + 1e-9, -5.0 + 2e-9, 0.0, 3.0],
        [-2.0, 0.0, 1e-12, 2e-12, 3e-12, 7.0],
        [-38.0, -1.0, 4.0, 4.0 + 1e-6, 9.0],
        [-1.0, 1.0],
        [-1e-3, 0.0, 5e-324, 1e-3],
    ],
)
def test_guide_table_interval_on_end_bins_and_merged_nodes(nodes):
    nodes = np.array(nodes)
    z = _score_queries(nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an invalid NaN-to-integer cast warns
        idx = rs._table_interval(nodes, rs._guide_table(nodes), z)
    assert np.array_equal(idx, _reference_interval(nodes, z))


@pytest.mark.parametrize(
    "make_z",
    [
        lambda z: z[0, 0],  # 0-d
        lambda z: z[:, 1],  # a strided column, as the sampler passes
        lambda z: z,  # 2-d, more values than one sampler piece
        lambda z: z.T,  # 2-d, not C-contiguous
        lambda z: z[:0, 0],  # empty
    ],
    ids=["0d", "strided", "2d", "2d-transposed", "empty"],
)
def test_quantile_keeps_shape_and_reference_bits(make_z):
    table = rs._table(P_ASYM)
    # scores out to +-12, beyond the knots of both ends
    z = make_z(3.0 * np.random.default_rng(4).standard_normal((6000, 3)))
    x = table.score_map(z)
    assert x.shape == np.shape(z)
    assert x.tobytes() == _reference_map(table, z).tobytes()
    # the same bits from a contiguous copy split into pieces of 1000
    flat = np.ascontiguousarray(z).ravel()
    pieces = [table.score_map(flat[i : i + 1000]) for i in range(0, flat.size, 1000)]
    assert x.ravel().tobytes() == np.concatenate([np.empty(0)] + pieces).tobytes()
    # the quantile is the map at the normal score of u
    u = ndtr(z)
    inside = (u > 0.0) & (u < 1.0)
    q = rs.nig_quantile(u[inside], P_ASYM)
    assert np.asarray(q).tobytes() == table.score_map(ndtri(u[inside])).tobytes()


def test_quantile_nan_never_reaches_the_bin_cast():
    table = rs._table(P_ASYM)
    z = np.array([-0.5, math.nan, 0.75, 50.0, -math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an invalid NaN-to-integer cast warns
        idx = rs._table_interval(table.knots_z, table._guide, z)
        x = table.score_map(z)
    assert np.array_equal(idx, _reference_interval(table.knots_z, z))
    assert np.isnan(x[1]) and np.all(np.isfinite(x[[0, 2, 3, 4]]))
    assert x[3] == table.knots_x[-1] and x[4] == table.knots_x[0]
    assert np.isnan(rs.nig_cdf(math.nan, P_ASYM))


def _grid_margin(kurtosis, skew_fraction):
    return rs.nig_params_from_moments(_skewed_target(0.0, 1.0, kurtosis, skew_fraction))


# the grid corners, and kurtosis 3.125 at skewness 0.875 of its bound, where
# the node CDFs are denormal
@pytest.mark.parametrize(
    "kurtosis, skew_fraction", [(3.125, 0.875), (3.05, -0.9), (3.05, 0.9), (6.0, 0.9), (30.0, -0.9)]
)
def test_quantile_stays_in_its_interval(kurtosis, skew_fraction):
    table = rs._table(_grid_margin(kurtosis, skew_fraction))
    knots = table.knots_z
    tails = ndtri(np.geomspace(5e-324, 1e-1, 4000))
    z = np.concatenate([_score_queries(knots), tails, -tails, np.linspace(knots[0], knots[-1], 100_000)])
    x = table.score_map(z)
    idx = rs._table_interval(knots, table._guide, np.clip(z, knots[0], knots[-1]))
    outside = np.flatnonzero((x < table.knots_x[idx]) | (x > table.knots_x[idx + 1]))
    assert outside.size == 0, (z[outside], x[outside])


def _exact_slopes(table, p):
    """dx/dz = phi(z) / f(x) at the map's knots."""
    z = table.knots_z
    return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * rs.nig_pdf(table.knots_x, p))


@given(heavy_skewed_margins)
@settings(max_examples=40, deadline=None)
def test_normal_score_map_meets_fritsch_carlson_on_heavy_tails(t):
    # alpha = d_i / secant and beta = d_i+1 / secant, with the exact slopes
    # at the knots, lie in the circle of radius 3
    p = rs.nig_params_from_moments(t)
    table = rs._table(p)
    z, x = table.knots_z, table.knots_x
    slope = _exact_slopes(table, p)
    assert np.all(np.diff(z) > 0.0) and np.all(np.diff(x) > 0.0)
    secant = np.diff(x) / np.diff(z)
    alpha, beta = slope[:-1] / secant, slope[1:] / secant
    assert np.max(alpha**2 + beta**2) <= 9.0
    assert table._cubic[2].tobytes() == slope[:-1].tobytes()


def test_table_that_fails_fritsch_carlson_names_its_margin():
    table = rs._table(P_ASYM)
    with pytest.raises(ValueError, match=re.escape(f"normal-score map of {P_ASYM!r} is not monotone")):
        table._hermite(4.0 * _exact_slopes(table, P_ASYM))


# the kurtosis 3.05-30 grid with skewness 0, and 0.9 of its bound either way
@pytest.mark.parametrize("kurtosis", [3.05, 4.0, 6.0, 12.0, 30.0])
@pytest.mark.parametrize("skew_fraction", [-0.9, 0.0, 0.9])
def test_normal_score_map_matches_quadrature(kurtosis, skew_fraction):
    p = _grid_margin(kurtosis, skew_fraction)
    z = np.linspace(-4.5, 4.5, 31)
    x = rs.nig_quantile(ndtr(z), p)

    def cdf(point):  # split at mu, so each side integrates toward its own tail
        if point <= p.mu:
            return quad(rs.nig_pdf, -np.inf, point, args=(p,), epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return 1.0 - quad(rs.nig_pdf, point, np.inf, args=(p,), epsabs=0.0, epsrel=1e-13, limit=200)[0]

    worst = max(abs(cdf(point) - ndtr(score)) for point, score in zip(x, z))
    assert worst <= 1e-10


def test_quantile_is_monotone_far_below_1e_14():
    # an absolute 1e-14 residual test once accepted any value of an interval there
    q = rs.nig_quantile(np.geomspace(1e-290, 1e-100, 200_000), _grid_margin(3.05, 0.9))
    assert np.count_nonzero(np.diff(q) < 0.0) == 0


@pytest.mark.parametrize("kurtosis, skew_fraction", [(6.0, 0.9), (3.2, 0.0)])
def test_cdf_never_exceeds_one(kurtosis, skew_fraction):
    p = _grid_margin(kurtosis, skew_fraction)
    assert rs.nig_cdf(1e9, p) <= 1.0
    assert np.all(np.diff(rs._table(p).cdf_values) >= 0.0)


@given(skewed_margins, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_quantile_round_trip_on_skewed_margins(t, seed):
    p = rs.nig_params_from_moments(t)
    nodes = rs._table(p).cdf_values
    # the table's range, kept inside the open interval nig_quantile accepts
    lo = max(nodes[0], np.finfo(float).tiny)
    hi = min(nodes[-1], np.nextafter(1.0, 0.0))
    u = np.sort(np.clip(lo + (hi - lo) * np.random.default_rng(seed).random(2000), lo, hi))
    u = np.concatenate([[lo], u, [hi]])
    q = rs.nig_quantile(u, p)
    assert np.all(np.diff(q) >= 0.0)
    assert np.max(np.abs(rs.nig_cdf(q, p) - u)) <= 1e-13


@pytest.mark.parametrize("u", [0.0, 1.0, math.nan, [0.5, math.nan]])
def test_quantile_rejects_arguments_outside_open_unit_interval(u):
    with pytest.raises(ValueError, match="strictly inside"):
        rs.nig_quantile(u, P_ASYM)


def test_cdf_matches_integrated_pdf():
    for x in (-3.0, -0.5, 0.0, 1.0, 4.0):
        ref, _ = quad(rs.nig_pdf, -np.inf, x, args=(P_ASYM,), limit=200)
        assert rs.nig_cdf(x, P_ASYM) == pytest.approx(ref, abs=1e-8)


def _bvn_cdf_by_quadrature(h, k, r):
    """P(X <= h, Y <= k) as the integral of phi(x) Phi((k - r x) / sqrt(1 - r^2)) up to h."""
    s = math.sqrt((1.0 - r) * (1.0 + r))

    def integrand(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * ndtr((k - r * x) / s)

    # the Phi factor steps between 0 and 1 across x = k/r, over a width of about s/|r|
    steps = [k / r + t * s / abs(r) for t in (-40.0, 0.0, 40.0)] if r != 0.0 else []
    edges = [-np.inf] + [x for x in steps if x < h] + [h]
    return sum(quad(integrand, a, b, epsabs=1e-16, epsrel=1e-13, limit=200)[0] for a, b in zip(edges, edges[1:]))


# r of either sign from 0 out to 1 - 1e-9, the end of the inversion's bracket,
# where k - r h must be formed without cancellation
@pytest.mark.parametrize(
    "r", [0.0, 0.2, -0.25, 0.5, -0.6, 0.8, -0.9, 0.93, -0.95, 0.999, -0.9999, 1 - 1e-9, -(1 - 1e-9)]
)
def test_bvn_cdf_matches_quadrature(r):
    z = ndtri(rs._U64)[::7]  # nodes of the rho_out grid, both end nodes included
    got = rs._bvn_grid(z, r)
    expected = np.array([[_bvn_cdf_by_quadrature(h, k, r) for k in z] for h in z])
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14)


near_one = st.floats(min_value=2.0**-53, max_value=1e-12).map(lambda eps: 1.0 - eps)  # each < 1
correlations = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
    near_one,
    near_one.map(lambda r: -r),
)


@given(
    correlations,
    st.lists(
        st.floats(min_value=1e-3, max_value=8.0) | st.floats(min_value=-8.0, max_value=-1e-3), min_size=1, max_size=12
    ),
)
@settings(max_examples=100, deadline=None)
def test_bvn_grid_is_symmetric_within_frechet_bounds_and_reflects(r, half):
    z = np.array(half + [-x for x in half])  # both z and -z, never 0
    got = rs._bvn_grid(z, r)
    assert np.array_equal(got, got.T)
    phi_h, phi_k = ndtr(z)[:, None], ndtr(z)[None, :]
    assert np.all(got >= np.maximum(phi_h + phi_k - 1.0, 0.0) - 1e-15)
    assert np.all(got <= np.minimum(phi_h, phi_k) + 1e-15)
    # Phi2(h, k; r) + Phi2(h, -k; -r) = Phi(h); column j of the reflected grid is -z_j
    n = len(half)
    reflected = rs._bvn_grid(z, -r)[:, np.r_[n : 2 * n, 0:n]]
    np.testing.assert_allclose(got + reflected, np.broadcast_to(phi_h, got.shape), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("rho_in", [1.0, -1.0, 1.5, math.nan])
def test_rho_out_rejects_correlations_outside_open_interval(rho_in, margin_k6):
    p = rs.nig_params_from_moments(margin_k6)
    with pytest.raises(ValueError, match="strictly inside"):
        rs.rho_out(rho_in, p, p)


def test_rho_out_zero_and_symmetry(margin_k6):
    p = rs.nig_params_from_moments(margin_k6)
    assert rs.rho_out(0.0, p, p) == pytest.approx(0.0, abs=1e-12)
    # symmetric margins make rho_out an odd function
    assert rs.rho_out(-0.6, p, p) == pytest.approx(-rs.rho_out(0.6, p, p), abs=1e-9)


def test_rho_out_monotone(margin_k6):
    p = rs.nig_params_from_moments(margin_k6)
    grid = np.array([-0.9, -0.5, -0.2, 0.0, 0.3, 0.7, 0.95])
    vals = [rs.rho_out(r, p, p) for r in grid]
    assert np.all(np.diff(vals) > 0.0)


def test_rho_out_near_gaussian_margins_is_identity():
    # with kurtosis barely above 3 the NIG is essentially Gaussian, so the
    # copula correlation passes through almost unchanged
    t = rs.MarginTarget(mean=0.0, variance=1.0, skewness=0.0, kurtosis=3.01)
    p = rs.nig_params_from_moments(t)
    for r in (-0.7, -0.2, 0.4, 0.9):
        assert rs.rho_out(r, p, p) == pytest.approx(r, abs=1e-3)


def _bisect_rho_out(target, mx, my):
    """The inversion of ``rho_out`` as it stood before Newton's method: bisection
    of the bracket [-1 + 1e-9, 1 - 1e-9] to 1e-6 in the input correlation."""
    rho = functools.partial(rs.rho_out, mx=mx, my=my)
    lo, hi = -1.0 + 1e-9, 1.0 - 1e-9
    assert rho(lo) <= target <= rho(hi)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if rho(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# distinct kurtosis and skewness of either sign per asset
HETEROGENEOUS_MARGINS = (
    rs.MarginTarget(mean=0.0, variance=1.0, skewness=0.0, kurtosis=6.0),
    rs.MarginTarget(mean=0.1, variance=2.0, skewness=1.0, kurtosis=9.0),
    rs.MarginTarget(mean=-0.2, variance=0.5, skewness=-0.6, kurtosis=4.5),
)


def test_adjust_correlation_hits_target(margin_k6):
    three = np.array([[1.0, 0.5, -0.2], [0.5, 1.0, 0.1], [-0.2, 0.1, 1.0]])
    # six distinct margins under a non-homogeneous target: 15 pairs to invert
    skews, kurts = (0.3, -0.5, 0.0, 0.8, -1.0, 0.6), (4.0, 5.0, 6.0, 8.0, 10.0, 12.0)
    six = [rs.MarginTarget(mean=0.1 * i, variance=0.5 + 0.3 * i, skewness=s, kurtosis=k)
           for i, (s, k) in enumerate(zip(skews, kurts))]
    a, b = np.indices((6, 6))
    cases = [((margin_k6,) * 3, three), (HETEROGENEOUS_MARGINS, three), (six, 0.7 ** np.abs(a - b) * (-1.0) ** (a + b))]
    for margins, target in cases:
        params = [rs.nig_params_from_moments(m) for m in margins]
        adjusted = rs.adjust_correlation(target, margins)
        assert np.array_equal(np.diag(adjusted), np.ones(len(margins)))
        assert np.array_equal(adjusted, adjusted.T)
        for i in range(len(margins)):
            for j in range(i + 1, len(margins)):
                assert rs.rho_out(adjusted[i, j], params[i], params[j]) == pytest.approx(target[i, j], abs=1e-12)
                assert adjusted[i, j] == pytest.approx(_bisect_rho_out(target[i, j], params[i], params[j]), abs=1e-6)


@pytest.mark.parametrize(
    "pair, target",
    [(pair, t) for pair in ("k6", "asymmetric") for t in (-0.9, 0.9, 0.99, 0.999)]
    + [("heterogeneous", t) for t in (-0.9, 0.9)],
)
def test_inversion_agrees_with_the_reference_bisection(pair, target):
    mx, my = {
        "k6": (rs.nig_params_from_moments(HETEROGENEOUS_MARGINS[0]),) * 2,
        "asymmetric": (P_ASYM, P_ASYM),
        "heterogeneous": tuple(rs.nig_params_from_moments(m) for m in HETEROGENEOUS_MARGINS[1:]),
    }[pair]
    got = rs._invert_rho_out(target, mx, my)
    assert got == pytest.approx(_bisect_rho_out(target, mx, my), abs=1e-6)
    assert rs.rho_out(got, mx, my) == pytest.approx(target, abs=1e-12)


@pytest.mark.parametrize("rho_in", [-0.95, -0.4, 0.0, 0.3, 0.9, 0.999])
def test_rho_out_slope_is_its_derivative(rho_in):
    # Plackett's identity: d Phi2 / d rho is the bivariate normal density
    mx, my = (rs.nig_params_from_moments(m) for m in HETEROGENEOUS_MARGINS[1:])
    rho = functools.partial(rs.rho_out, mx=mx, my=my)
    h = 1e-5  # a fourth-order central difference, as the map curves sharply near 1
    diff = (8.0 * (rho(rho_in + h) - rho(rho_in - h)) - (rho(rho_in + 2.0 * h) - rho(rho_in - 2.0 * h))) / (12.0 * h)
    assert rs._rho_out_slope(rho_in, mx, my) == pytest.approx(diff, rel=1e-7)


def test_unattainable_target_and_zero_target():
    mx, my = (rs.nig_params_from_moments(m) for m in HETEROGENEOUS_MARGINS[1:])
    with pytest.raises(ValueError, match=r"^target correlation 0\.99 is outside the attainable range \[-0\.\d{6}, 0\.\d{6}\] for these margins$"):
        rs._invert_rho_out(0.99, mx, my)
    zero = rs._invert_rho_out(0.0, mx, my)
    assert type(zero) is float and zero == 0.0 and math.copysign(1.0, zero) == 1.0
    adjusted = rs.adjust_correlation(np.array([[1.0, 0.0], [0.0, 1.0]]), (mx, my))
    assert adjusted[0, 1] == 0.0 and adjusted[1, 0] == 0.0


def test_inversion_that_runs_out_of_steps_raises(monkeypatch):
    p = rs.nig_params_from_moments(HETEROGENEOUS_MARGINS[0])
    monkeypatch.setattr(rs, "_NEWTON_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match="correlation inversion for target 0.3 did not converge"):
        rs._invert_rho_out(0.3, p, p)


def test_inversion_evaluates_no_bracket_end_for_the_workload_pair(monkeypatch):
    # the benchmark workloads' one distinct pair: rho = -0.05 between kurtosis-6 margins
    p = rs.nig_params_from_moments(rs.MarginTarget(mean=0.0, variance=1.0, skewness=0.0, kurtosis=6.0))
    calls = []
    rho_out = rs.rho_out

    def counting(rho_in, mx, my):
        calls.append(rho_in)
        return rho_out(rho_in, mx, my)

    monkeypatch.setattr(rs, "rho_out", counting)
    got = rs._invert_rho_out(-0.05, p, p)
    assert len(calls) == 3 and calls[0] == -0.05
    assert abs(rho_out(got, p, p) + 0.05) <= 1e-15


@given(skewed_margins, skewed_margins, st.floats(min_value=-0.9, max_value=0.9, exclude_min=True, exclude_max=True))
@settings(max_examples=40, deadline=None)
def test_inversion_hits_every_attainable_target(tx, ty, target):
    mx, my = rs.nig_params_from_moments(tx), rs.nig_params_from_moments(ty)
    try:
        got = rs._invert_rho_out(target, mx, my)
    except ValueError as err:
        # opposite skews can cap the attainable range below 0.9 in magnitude
        assert "outside the attainable range" in str(err)
        assert not rs.rho_out(-1.0 + 1e-9, mx, my) <= target <= rs.rho_out(1.0 - 1e-9, mx, my)
        return
    assert abs(rs.rho_out(got, mx, my) - target) <= 1e-12


def test_adjustment_shrinks_magnitude_for_heavy_tails(margin_k6):
    # heavy-tailed margins damp the copula correlation, so the adjusted
    # input must exceed the target in magnitude
    p = rs.nig_params_from_moments(margin_k6)
    target = np.array([[1.0, 0.5], [0.5, 1.0]])
    adjusted = rs.adjust_correlation(target, (p, p))
    assert adjusted[0, 1] > 0.5
    target[0, 1] = target[1, 0] = -0.5
    adjusted = rs.adjust_correlation(target, (p, p))
    assert adjusted[0, 1] < -0.5


def test_sampler_shapes_names_and_determinism():
    spec = homogeneous_spec(3, -0.2)
    a = rs.sample_meta_gaussian(spec, 1000, seed=5)
    b = rs.sample_meta_gaussian(spec, 1000, seed=5)
    c = rs.sample_meta_gaussian(spec, 1000, seed=6)
    assert a.values.shape == (1000, 3)
    assert a.asset_names == ("A1", "A2", "A3")
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sampler_extension_preserves_prefix():
    # each 65536-row block owns its own substream, so a longer run shares
    # the leading blocks with a shorter one
    spec = homogeneous_spec(2, 0.3)
    short = rs.sample_meta_gaussian(spec, 65536, seed=1)
    long = rs.sample_meta_gaussian(spec, 65536 + 500, seed=1)
    assert np.array_equal(long.values[:65536], short.values)


def test_pinned_panel_is_the_map_of_each_block():
    # 70,000 rows span two Philox blocks, the second one partial
    spec = homogeneous_spec(3, -0.2)
    panel = rs.sample_meta_gaussian(spec, 70_000, seed=5).values
    chol = np.linalg.cholesky(spec.input_corr)
    for block, rows in enumerate((rs._BLOCK_ROWS, 70_000 - rs._BLOCK_ROWS)):
        ss = np.random.SeedSequence(entropy=5, spawn_key=(rs.SIMULATION_STREAM, block))
        u = np.random.Generator(np.random.Philox(ss)).random((rows, 3))
        z = ndtri(np.clip(u, 1e-300, None)) @ chol.T
        start = block * rs._BLOCK_ROWS
        for i, p in enumerate(spec.margins):
            assert panel[start : start + rows, i].tobytes() == _reference_map(rs._table(p), z[:, i]).tobytes()


@pytest.mark.parametrize("piece_rows", [1000, 8192, 65536])
def test_panel_does_not_depend_on_piece_size(monkeypatch, piece_rows):
    # 70,000 rows span two Philox blocks; 1000 does not divide a block
    spec = homogeneous_spec(3, -0.2)
    reference = rs.sample_meta_gaussian(spec, 70_000, seed=5).values
    monkeypatch.setattr(rs, "_PIECE_ROWS", piece_rows)
    assert rs.sample_meta_gaussian(spec, 70_000, seed=5).values.tobytes() == reference.tobytes()


# the mass below the table's first node of the symmetric unit-variance
# margin, to 30 digits (mpmath.quad at mp.dps = 30)
@pytest.mark.parametrize("kurtosis, reference", [(6.0, 1.7504145641020551e-20), (30.0, 1.5281530819441008e-9)])
def test_left_tail_mass_matches_high_precision_reference(kurtosis, reference):
    table = rs._NigTable(rs.nig_params_from_moments(rs.MarginTarget(0.0, 1.0, 0.0, kurtosis)))
    assert table.cdf_values[0] == pytest.approx(reference, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("kurtosis, skew_fraction", [(3.05, 0.9), (6.0, 0.0), (30.0, -0.9), (30.0, 0.9)])
def test_cdf_below_table_is_the_increasing_left_tail(kurtosis, skew_fraction):
    p = rs.nig_params_from_moments(_skewed_target(0.0, 1.0, kurtosis, skew_fraction))
    table = rs._table(p)
    x = table.x[0] - np.concatenate([np.geomspace(1e3, 1e-3, 300), [0.0]])
    cdf = rs.nig_cdf(x, p)
    assert np.all(np.diff(cdf) >= 0.0) and np.all(cdf >= 0.0)
    assert cdf[-1] == table.cdf_values[0]
    assert cdf[-2] < table.cdf_values[0] or table.cdf_values[0] == 0.0
    assert rs.nig_cdf(-1e9, p) < 1e-300
    # the tail up to a point is the pdf's integral there
    for point in x[-40::13]:
        ref, _ = quad(rs.nig_pdf, -np.inf, point, args=(p,), epsabs=0.0, epsrel=1e-12, limit=200)
        assert rs.nig_cdf(point, p) == pytest.approx(ref, rel=1e-8, abs=0.0)


@pytest.mark.parametrize(
    "t_obs, seed, name", [(True, 5, "t_obs"), (2.5, 5, "t_obs"), (100, -1, "seed"), (100, 1.5, "seed")]
)
def test_sampler_rejects_non_integer_size_or_seed(t_obs, seed, name):
    spec = homogeneous_spec(2, 0.3)
    with pytest.raises(ValueError, match=name):
        rs.sample_meta_gaussian(spec, t_obs, seed=seed)
    assert rs.sample_meta_gaussian(spec, np.int64(10), seed=np.int64(5)).values.shape == (10, 2)


def test_sample_moments_match_targets():
    spec = homogeneous_spec(2, 0.4, kurt=6.0)
    sample = rs.sample_meta_gaussian(spec, 200_000, seed=3)
    x = sample.values
    xc = x - x.mean(axis=0)
    std = xc.std(axis=0)
    corr = np.corrcoef(x.T)[0, 1]
    kurt = ((xc / std) ** 4).mean(axis=0)
    assert np.allclose(x.mean(axis=0), 0.0, atol=0.02)
    assert np.allclose(std**2, 1.0, atol=0.03)
    assert corr == pytest.approx(0.4, abs=0.01)
    assert np.allclose(kurt, 6.0, atol=0.35)


def test_sample_margins_pass_ks(margin_k6):
    spec = homogeneous_spec(2, 0.3)
    sample = rs.sample_meta_gaussian(spec, 20_000, seed=11)
    for i, p in enumerate(spec.margins):
        result = kstest(sample.values[:, i], lambda x: rs.nig_cdf(x, p))
        assert result.pvalue > 0.01


def test_gaussian_rank_dependence_is_exact():
    # the copula layer is Gaussian: transforming the sampled margins back
    # through their CDFs and the normal quantile recovers correlation
    # close to the adjusted input value
    spec = homogeneous_spec(2, 0.5)
    sample = rs.sample_meta_gaussian(spec, 100_000, seed=2)
    z = ndtri(np.clip(rs.nig_cdf(sample.values, spec.margins[0]), 1e-12, 1 - 1e-12))
    corr_z = np.corrcoef(z.T)[0, 1]
    assert corr_z == pytest.approx(spec.input_corr[0, 1], abs=0.01)


def test_spec_from_targets_validates_matrix(margin_k6):
    bad = np.array([[1.0, 1.2], [1.2, 1.0]])
    with pytest.raises(ValueError):
        rs.MetaGaussianSpec.from_targets((margin_k6, margin_k6), bad)
    with pytest.raises(ValueError):
        rs.MetaGaussianSpec.from_targets((margin_k6,), np.eye(2))
