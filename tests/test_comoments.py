"""Co-moment estimation, unique-element storage, and analytic derivatives."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from portdim import comoments as cm

from conftest import iid_comoments, m3_tensor, m4_block, m4_tensor


def naive_central_moments(values):
    """Dense reference tensors by direct averaging (no unique storage)."""
    xc = values - values.mean(axis=0)
    t = values.shape[0]
    m2 = xc.T @ xc / t
    m3 = np.einsum("ti,tj,tk->ijk", xc, xc, xc) / t
    m4 = np.einsum("ti,tj,tk,tl->ijkl", xc, xc, xc, xc) / t
    return m2, m3, m4


def random_panel(n, t, seed=0):
    rng = np.random.default_rng(seed)
    return cm.ReturnSample(rng.standard_normal((t, n)) + 0.3 * rng.standard_t(5, (t, n)))


weight_vectors = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda s: np.random.default_rng(s).dirichlet(np.ones(3))
)


@pytest.mark.parametrize("n", range(1, 13))
def test_unique_element_counts_formula(n):
    c3, c4 = cm.unique_element_counts(n)
    assert c3 == math.comb(n + 2, 3)
    assert c4 == math.comb(n + 3, 4)


def test_unique_element_counts_rejects_nonpositive():
    with pytest.raises(ValueError):
        cm.unique_element_counts(0)


@pytest.mark.parametrize("n,t", [(2, 50), (3, 80), (4, 60)])
def test_unique_storage_matches_naive_dense(n, t):
    sample = random_panel(n, t, seed=n * 100 + t)
    c = cm.build_comoments(sample)
    m2, m3, m4 = naive_central_moments(sample.values)
    assert np.allclose(c.m2, m2, atol=1e-13)
    assert np.allclose(m3_tensor(c), m3, atol=1e-12)
    assert np.allclose(m4_tensor(c), m4, atol=1e-12)


def test_block_matrix_shapes():
    c = cm.build_comoments(random_panel(3, 40))
    assert c.m3.shape == (3, 9)
    assert m4_block(c).shape == (3, 27)
    assert c.m4_gram.shape == (6, 6)
    assert np.array_equal(c.m4_gram, c.m4_gram.T)


def test_m4_gram_is_positive_semidefinite():
    # Gram matrix of centered pair products, so eigenvalues >= 0 up to noise
    c = cm.build_comoments(random_panel(4, 200, seed=5))
    assert np.linalg.eigvalsh(c.m4_gram).min() >= -1e-10


def test_replaced_set_rebuilds_its_caches():
    # dataclasses.replace must not carry over the m3 and m4_gram built for the original
    c = iid_comoments(2, skew=0.5)
    w = np.array([0.5, 0.5])
    kurt, skew = cm.portfolio_kurtosis(w, c), cm.portfolio_skewness(w, c)  # builds both caches
    replaced = dataclasses.replace(c, m3_unique=-c.m3_unique, m4_unique=2.0 * c.m4_unique)
    assert cm.portfolio_kurtosis(w, replaced) == pytest.approx(2.0 * kurt, rel=1e-15)
    assert cm.portfolio_skewness(w, replaced) == pytest.approx(-skew, rel=1e-15)


def test_sets_compare_by_identity_without_raising():
    a, b = iid_comoments(2), iid_comoments(2)
    assert (a == b) is False
    assert (a == a) is True


@pytest.mark.parametrize("n,order", [(n, order) for n in (1, 2, 3, 6) for order in (1, 2, 3, 4)])
def test_sorted_tuples_are_enumerated_in_rank_order(n, order):
    tuples = np.stack(cm._sorted_tuple_arrays(n, order))
    assert tuples.shape == (order, math.comb(n + order - 1, order))
    assert np.all(np.diff(tuples, axis=0) >= 0)
    rank = {1: lambda i: i, 2: cm._pair_rank, 3: cm._triple_rank, 4: cm._quad_rank}[order]
    assert np.array_equal(rank(*tuples), np.arange(tuples.shape[1]))


def reference_even_moments(points, c):
    """The kernel as it was on the N^2 x N^2 reshape of the fourth-moment
    tensor, built here straight from ``m4_unique``."""
    n = c.n_assets
    quad = np.sort(np.indices((n,) * 4).reshape(4, -1), axis=0)
    m4_paired = c.m4_unique[cm._quad_rank(*quad)].reshape(n * n, n * n)
    flat = (points[:, :, None] * points[:, None, :]).reshape(len(points), n * n)
    half = flat @ m4_paired
    a = half.reshape(len(points), n, n)
    m2w = points @ c.m2.T
    return {
        "variance": np.einsum("pi,pi->p", points, m2w),
        "m2w": m2w,
        "mu4": np.einsum("pq,pq->p", half, flat),
        "grad_mu4": 4.0 * (a @ points[:, :, None])[:, :, 0],
        "a": a,
    }


@pytest.mark.parametrize("n", [5, 15, 30])
def test_kernel_matches_full_pair_product_reference(n):
    c = cm.build_comoments(random_panel(n, 300, seed=n))
    points = np.random.default_rng(n).dirichlet(np.ones(n), size=64)
    got = cm._even_moments(points, c)
    for name, expected in reference_even_moments(points, c).items():
        value = getattr(got, name)
        assert value.shape == expected.shape
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(value, expected, rtol=0.0, atol=1e-13 * scale, err_msg=name)


def strided_even_moments(points, c):
    """The kernel as it read its point columns before they were copied to
    contiguous rows: a transposed view of ``points``, whose dtype it
    computes in, and the pair weights multiplied in last."""
    n_pts, n = points.shape
    pair_i, pair_j, _, pair_of = cm._pair_layout(n)
    mult = np.where(pair_i == pair_j, 1.0, 2.0).astype(points.dtype)
    cols = points.T
    m2w = points @ c.m2.T
    weighted = cols[pair_i] * cols[pair_j] * mult[:, None]
    half = c.m4_gram @ weighted
    a = half[pair_of].reshape(n, n, n_pts)
    return {
        "variance": np.einsum("pi,pi->p", points, m2w),
        "m2w": m2w,
        "mu4": np.einsum("qp,qp->p", half, weighted),
        "grad_mu4": 4.0 * np.einsum("ijp,jp->pi", a, cols),
        "a": a.transpose(2, 0, 1),
    }


@pytest.mark.parametrize("n_pts", [1, 7, 1000])
@pytest.mark.parametrize("n", [1, 5, 15, 30])
def test_float64_kernel_is_bitwise_the_strided_one(n, n_pts):
    c = cm.build_comoments(random_panel(n, 300, seed=n))
    points = np.random.default_rng(n_pts).dirichlet(np.ones(n), size=n_pts)
    got = cm._even_moments(points, c)
    for name, expected in strided_even_moments(points, c).items():
        value = getattr(got, name)
        assert value.dtype == np.float64
        assert value.shape == expected.shape and value.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("n_pts", [1, 7, 1000])
@pytest.mark.parametrize("n", [1, 5, 15, 30])
def test_float32_kernel_is_bitwise_the_strided_one(n, n_pts):
    # the Langevin step's kernel, on unit-scaled float32 copies and points
    # with exact zeros, as projected states have
    c = cm.unit_scaled(cm.build_comoments(random_panel(n, 300, seed=n)))[0]
    single = cm._KernelMoments(c.m2.astype(np.float32), c.m4_gram.astype(np.float32))
    points = np.random.default_rng(n_pts).dirichlet(np.ones(n), size=n_pts)
    points[points < 0.5 / n] = 0.0
    got = cm._even_moments(points, single)
    for name, expected in strided_even_moments(points.astype(np.float32), single).items():
        value = getattr(got, name)
        assert value.dtype == np.float32
        assert value.shape == expected.shape and value.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("n", [5, 15, 30])
def test_float32_kernel_agrees_with_float64(n):
    # at unit scale and cond(m2) of 1.6-3.4, float32 kurtoses are within 1e-6
    # relative and gradients within 6e-6 of their norm; the bounds leave 10x
    c = cm.build_comoments(random_panel(n, 300, seed=n))
    points = np.vstack([np.eye(n), np.random.default_rng(n).dirichlet(np.ones(n), size=64)])
    single = cm._KernelMoments(c.m2.astype(np.float32), c.m4_gram.astype(np.float32))
    kurt32, grad32 = cm.batch_kurtosis_and_gradient(points, single)
    kurt64, grad64 = cm.batch_kurtosis_and_gradient(points, c)
    assert kurt32.dtype == grad32.dtype == np.float32
    np.testing.assert_allclose(kurt32, kurt64, rtol=1e-5, atol=0.0)
    error = np.linalg.norm(grad32 - grad64, axis=1) / np.linalg.norm(grad64, axis=1)
    assert error.max() < 1e-4


@pytest.mark.parametrize("j", [-40, -10, -1, 1, 10, 40])
def test_unit_scaled_is_exact_and_leverage_invariant(j):
    c = cm.build_comoments(random_panel(4, 500, seed=3))
    unit, k = cm.unit_scaled(c)
    assert unit is c and k == 0  # a set at unit scale is returned as it is
    scaled = cm.build_comoments(cm.ReturnSample(np.ldexp(random_panel(4, 500, seed=3).values, j)))
    unit, k = cm.unit_scaled(scaled)
    assert k == j
    for name in ("mean", "m2", "m3_unique", "m4_unique"):
        assert getattr(unit, name).tobytes() == getattr(c, name).tobytes(), name
    points = np.random.default_rng(j + 50).dirichlet(np.ones(4), size=16)
    assert cm.batch_kurtosis(points, scaled).tobytes() == cm.batch_kurtosis(points, c).tobytes()
    assert 0.5 <= np.trace(unit.m2) / 4 < 2.0


def test_m2_matches_numpy_biased_covariance():
    sample = random_panel(3, 123, seed=9)
    c = cm.build_comoments(sample)
    assert np.allclose(c.m2, np.cov(sample.values.T, bias=True), atol=1e-13)


def test_chunked_reduction_spans_chunk_boundary():
    # one chunk is 4096 rows; straddle the boundary and compare to naive
    sample = random_panel(2, 4096 + 7, seed=2)
    c = cm.build_comoments(sample)
    m2, m3, m4 = naive_central_moments(sample.values)
    assert np.allclose(m3_tensor(c), m3, atol=1e-12)
    assert np.allclose(m4_tensor(c), m4, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 15])
def test_in_place_pair_products_match_gathered_reference_bitwise(n):
    # the pair products of y = (1, r - s) gathered whole per chunk, s the first chunk's mean
    values = random_panel(n, 2 * 4096 + 7, seed=n).values
    shift = values[:4096].mean(axis=0)
    pair_i, pair_j = cm._sorted_tuple_arrays(n + 1, 2)
    gram = np.zeros((pair_i.size, pair_i.size))
    for start in range(0, values.shape[0], 4096):
        block = values[start : start + 4096]
        y = np.column_stack([np.ones(block.shape[0]), block - shift])
        pair_prod = y[:, pair_i] * y[:, pair_j]
        gram += pair_prod.T @ pair_prod
    got_shift, got_gram, t_obs = cm._shifted_gram([values])
    assert (got_shift.tobytes(), got_gram.tobytes(), t_obs) == (shift.tobytes(), gram.tobytes(), values.shape[0])


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 5),
    t_obs=st.integers(8, 3 * cm._CHUNK_ROWS),
    mean_sd=st.sampled_from([0.0, 1.0, 1e3]),
    log2_sd=st.integers(-20, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_build_matches_dense_reference_and_any_split(n, t_obs, mean_sd, log2_sd, seed):
    # means up to 1e3 sd, where raw moments about 0 would lose every digit to cancellation
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((t_obs + n, n))  # n extra rows keep the covariance of the smallest panels nonsingular
    panel = np.ldexp(mean_sd * rng.uniform(-1.0, 1.0, n) + g @ rng.uniform(-1.0, 1.0, (n, n)) + 0.4 * g**2, log2_sd)
    t_obs += n
    mean = np.array([math.fsum(col) / t_obs for col in panel.T])
    xc = panel - mean
    # less the mean's own rounding, a common offset of up to half an ulp of the mean: at 1e3 sd
    # it alone moves the fourth moment by about 4 m3 ulp(mean) / 2, near the tolerance
    xc -= np.array([math.fsum(col) / t_obs for col in xc.T])
    sd = math.sqrt(np.max(np.einsum("ti,ti->i", xc, xc) / t_obs))
    reference = {
        "mean": (mean, np.max(np.abs(mean)) + sd),
        "m2": (xc.T @ xc / t_obs, sd**2),
        "m3": (np.einsum("ti,tj,tk->ijk", xc, xc, xc) / t_obs, sd**3),
        "m4": (np.einsum("ti,tj,tk,tl->ijkl", xc, xc, xc, xc) / t_obs, sd**4),
    }
    c = cm.build_comoments(cm.ReturnSample(panel))
    got = {"mean": c.mean, "m2": c.m2, "m3": m3_tensor(c), "m4": m4_tensor(c)}
    for name, (expected, scale) in reference.items():
        assert np.max(np.abs(got[name] - expected)) <= 1e-12 * scale, name
    # pieces of whole chunks are reduced through the panel's chunks
    chunk_ends = np.arange(cm._CHUNK_ROWS, t_obs, cm._CHUNK_ROWS)
    cuts = [0, *sorted(rng.choice(chunk_ends, rng.integers(0, chunk_ends.size + 1), replace=False)), t_obs]
    pieces = cm.build_comoments(panel[a:b] for a, b in zip(cuts[:-1], cuts[1:]))
    for name in ("mean", "m2", "m3_unique", "m4_unique"):
        assert getattr(pieces, name).tobytes() == getattr(c, name).tobytes(), name


@pytest.mark.parametrize("pieces", [[], iter(()), [np.empty((0, 3))]])
def test_build_from_no_rows_is_rejected(pieces):
    with pytest.raises(ValueError, match="no rows"):
        cm.build_comoments(pieces)


def test_build_comoments_is_deterministic():
    sample = random_panel(3, 500, seed=11)
    a = cm.build_comoments(sample)
    b = cm.build_comoments(sample)
    assert np.array_equal(a.m3_unique, b.m3_unique)
    assert np.array_equal(a.m4_unique, b.m4_unique)


def test_degenerate_covariance_rejected():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, 1))
    dup = np.hstack([x, x])  # perfectly collinear
    with pytest.raises(ValueError, match="positive definite"):
        cm.build_comoments(cm.ReturnSample(dup))


def test_iid_synthetic_portfolio_moments():
    c = iid_comoments(2, kurt=6.0)
    variance, mu3, mu4 = cm.portfolio_moments(np.array([1.0, 0.0]), c)
    assert variance == 1.0 and mu3 == 0.0 and mu4 == 6.0
    ew = np.array([0.5, 0.5])
    variance, _, mu4 = cm.portfolio_moments(ew, c)
    assert variance == pytest.approx(0.5, abs=1e-15)
    assert mu4 == pytest.approx(1.125, abs=1e-15)
    assert cm.portfolio_kurtosis(ew, c) == pytest.approx(4.5, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_iid_equal_weight_kurtosis_scaling(k):
    # averaging k iid streams divides the excess kurtosis by k
    c = iid_comoments(k, kurt=6.0)
    ew = np.full(k, 1.0 / k)
    assert cm.portfolio_kurtosis(ew, c) == pytest.approx(3.0 + 3.0 / k, abs=1e-12)


def test_skewed_synthetic_portfolio_skewness():
    c = iid_comoments(2, kurt=6.0, skew=0.8)
    assert cm.portfolio_skewness(np.array([1.0, 0.0]), c) == pytest.approx(0.8, abs=1e-14)
    # two-fold average: skewness shrinks by 1/sqrt(2)
    ew = np.array([0.5, 0.5])
    assert cm.portfolio_skewness(ew, c) == pytest.approx(0.8 / math.sqrt(2.0), abs=1e-14)


@given(weight_vectors)
@settings(max_examples=50, deadline=None)
def test_euler_identities(w):
    c = iid_comoments(3, kurt=7.0, skew=0.4)
    d = cm.moment_derivatives(w, c)
    _, mu3, mu4 = cm.portfolio_moments(w, c)
    assert w @ d.grad_mu3 == pytest.approx(3.0 * mu3, abs=1e-10, rel=1e-10)
    assert w @ d.grad_mu4 == pytest.approx(4.0 * mu4, abs=1e-10, rel=1e-10)
    assert np.allclose(d.hess_mu4 @ w, 3.0 * d.grad_mu4, atol=1e-10)
    assert np.allclose(d.hess_mu3 @ w, 2.0 * d.grad_mu3, atol=1e-10)


@given(weight_vectors)
@settings(max_examples=50, deadline=None)
def test_kurtosis_gradient_is_radially_flat(w):
    # kurtosis is 0-homogeneous, so the radial derivative vanishes
    c = iid_comoments(3, kurt=6.0)
    assert abs(w @ cm.kurtosis_gradient(w, c)) <= 1e-9


@given(weight_vectors, st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_kurtosis_leverage_invariance(w, t):
    c = iid_comoments(3, kurt=6.0, skew=0.3)
    assert cm.portfolio_kurtosis(t * w, c) == pytest.approx(
        cm.portfolio_kurtosis(w, c), rel=1e-11
    )
    assert cm.portfolio_skewness(t * w, c) == pytest.approx(
        cm.portfolio_skewness(w, c), rel=1e-11
    )


def test_hessians_are_symmetric():
    c = iid_comoments(4, kurt=6.5, skew=0.2)
    w = np.random.default_rng(3).dirichlet(np.ones(4))
    d = cm.moment_derivatives(w, c)
    assert np.allclose(d.hess_mu3, d.hess_mu3.T, atol=1e-12)
    assert np.allclose(d.hess_mu4, d.hess_mu4.T, atol=1e-12)


def central_difference(f, x, h=1e-5):
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad


def test_gradients_match_finite_differences():
    c = iid_comoments(3, kurt=6.0, skew=0.4)
    rng = np.random.default_rng(21)
    for _ in range(5):
        w = rng.dirichlet(np.ones(3))
        d = cm.moment_derivatives(w, c)
        fd3 = central_difference(lambda v: cm.portfolio_moments(v, c).mu3, w)
        fd4 = central_difference(lambda v: cm.portfolio_moments(v, c).mu4, w)
        fdk = central_difference(lambda v: cm.portfolio_kurtosis(v, c), w)
        assert np.allclose(d.grad_mu3, fd3, rtol=1e-7, atol=1e-9)
        assert np.allclose(d.grad_mu4, fd4, rtol=1e-7, atol=1e-9)
        assert np.allclose(cm.kurtosis_gradient(w, c), fdk, rtol=1e-6, atol=1e-8)


def test_kurtosis_hessian_matches_finite_differences(c_n3):
    rng = np.random.default_rng(31)
    for _ in range(5):
        w = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
        hess = cm.kurtosis_hessian(w, c_n3)
        assert np.allclose(hess, hess.T, atol=1e-10)
        fd = np.column_stack(
            [central_difference(lambda v: cm.kurtosis_gradient(v, c_n3)[i], w) for i in range(3)]
        )
        assert np.allclose(hess, fd, rtol=1e-6, atol=1e-6 * np.abs(hess).max())


def test_kurtosis_hessian_radial_identity(c_n3):
    # kurtosis is 0-homogeneous, so its gradient is (-1)-homogeneous and
    # Euler gives hessian @ w = -gradient
    rng = np.random.default_rng(32)
    for _ in range(10):
        w = rng.dirichlet(np.ones(3)) + 0.05
        hess = cm.kurtosis_hessian(w, c_n3)
        grad = cm.kurtosis_gradient(w, c_n3)
        assert np.allclose(hess @ w, -grad, atol=1e-10 * max(np.abs(grad).max(), 1.0))


def test_batch_matches_scalar_evaluation(c_n3):
    pts = np.random.default_rng(4).dirichlet(np.ones(3), size=32)
    variance, mu3, mu4 = cm.batch_moments(pts, c_n3)
    kurt = cm.batch_kurtosis(pts, c_n3)
    kurt2, grad = cm.batch_kurtosis_and_gradient(pts, c_n3)
    for i, w in enumerate(pts):
        pm = cm.portfolio_moments(w, c_n3)
        assert variance[i] == pytest.approx(pm.variance, rel=1e-12)
        assert mu3[i] == pytest.approx(pm.mu3, rel=1e-12)
        assert mu4[i] == pytest.approx(pm.mu4, rel=1e-12)
        assert kurt[i] == pytest.approx(cm.portfolio_kurtosis(w, c_n3), rel=1e-12)
        assert kurt2[i] == pytest.approx(kurt[i], rel=1e-14)
        assert np.allclose(grad[i], cm.kurtosis_gradient(w, c_n3), rtol=1e-10, atol=1e-12)


def test_weights_validation():
    with pytest.raises(ValueError):
        cm.Weights(np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        cm.Weights(np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        cm.Weights(np.array([[0.5, 0.5]]))
    w = cm.Weights(np.array([0.25, 0.75]))
    assert w.n_assets == 2
    assert np.array_equal(np.asarray(w), np.array([0.25, 0.75]))


def test_return_sample_validation():
    with pytest.raises(ValueError):
        cm.ReturnSample(np.ones((1, 3)))
    with pytest.raises(ValueError):
        cm.ReturnSample(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        cm.ReturnSample(np.ones((5, 2)), asset_names=("only-one",))
    s = cm.ReturnSample(np.random.default_rng(0).standard_normal((5, 2)))
    assert s.asset_names == ("A1", "A2")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_return_sample_finds_non_finite_entry_in_last_row_chunk(bad):
    # the check runs a chunk of rows at a time; the last chunk is partial
    values = np.ones((2 * cm._CHUNK_ROWS + 3, 2))
    values[-1, 1] = bad
    with pytest.raises(ValueError, match="return panel contains non-finite entries"):
        cm.ReturnSample(values)
    values[-1, 1] = 0.0
    assert cm.ReturnSample(values).n_obs == 2 * cm._CHUNK_ROWS + 3


def test_zero_weight_vector_rejected(c_n3):
    with pytest.raises(ValueError, match="kurtosis undefined at the zero weight vector"):
        cm.portfolio_kurtosis(np.zeros(3), c_n3)
    with pytest.raises(ValueError, match="skewness undefined at the zero weight vector"):
        cm.portfolio_skewness(np.zeros(3), c_n3)
    with pytest.raises(ValueError, match="kurtosis undefined at the zero weight vector"):
        cm.kurtosis_gradient(np.zeros(3), c_n3)
    with pytest.raises(ValueError, match="kurtosis undefined at the zero weight vector"):
        cm.kurtosis_hessian(np.zeros(3), c_n3)


def test_dimension_mismatch_rejected(c_n3):
    with pytest.raises(ValueError):
        cm.portfolio_moments(np.array([0.5, 0.5]), c_n3)
    for batch in (cm.batch_moments, cm.batch_kurtosis_and_gradient):
        for bad in (np.full(3, 1.0 / 3.0), np.full((2, 4), 0.25)):
            with pytest.raises(ValueError, match=r"expected \(P, 3\) points, got shape"):
                batch(bad, c_n3)


def dense_reference(w, c):
    """Moments and derivatives at w by dense einsum over the full tensors."""
    m3, m4 = m3_tensor(c), m4_tensor(c)
    variance = w @ c.m2 @ w
    grad_var = 2.0 * c.m2 @ w
    hess_mu3 = 6.0 * np.einsum("ijk,k->ij", m3, w)
    hess_mu4 = 12.0 * np.einsum("ijkl,k,l->ij", m4, w, w)
    grad_mu3 = 3.0 * np.einsum("ijk,j,k->i", m3, w, w)
    grad_mu4 = 4.0 * np.einsum("ijkl,j,k,l->i", m4, w, w, w)
    mu3 = np.einsum("ijk,i,j,k->", m3, w, w, w)
    mu4 = np.einsum("ijkl,i,j,k,l->", m4, w, w, w, w)
    # kurtosis = mu4 / variance^2 by the quotient rule, term by term
    kurt_grad_terms = (grad_mu4 / variance**2, -2.0 * mu4 * grad_var / variance**3)
    outer_4v = np.outer(grad_mu4, grad_var)
    kurt_hess_terms = (
        hess_mu4 / variance**2,
        -2.0 * (outer_4v + outer_4v.T) / variance**3,
        -(4.0 * mu4 / variance**3) * c.m2,
        (6.0 * mu4 / variance**4) * np.outer(grad_var, grad_var),
    )
    return {
        "variance": variance,
        "mu3": mu3,
        "mu4": mu4,
        "derivatives": cm.MomentDerivatives(grad_var, grad_mu3, grad_mu4, hess_mu3, hess_mu4),
        "kurt_grad_terms": kurt_grad_terms,
        "kurt_hess_terms": kurt_hess_terms,
    }


def assert_matches_sum(got, terms, rel=1e-12):
    """``got`` equals the sum of ``terms`` to ``rel`` of the largest term, so
    that cancellation between terms does not demand more than round-off."""
    scale = max(float(np.max(np.abs(t))) for t in terms)
    np.testing.assert_allclose(got, sum(terms), rtol=rel, atol=rel * scale)


@given(
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_dense_einsum(n, seed):
    # the scalar and batch evaluators share one kernel, so check them
    # against an independent dense evaluation rather than against each other
    rng = np.random.default_rng(seed)
    c = cm.build_comoments(random_panel(n, 40 + 10 * n, seed=seed))
    w = rng.dirichlet(np.ones(n))
    ref = dense_reference(w, c)

    # mu3 may sit near zero: measure it against its natural scale var^1.5
    mu3_abs = 1e-12 * ref["variance"] ** 1.5
    pm = cm.portfolio_moments(w, c)
    variance, mu3, mu4 = cm.batch_moments(w[None, :], c)
    for got in (pm, (variance[0], mu3[0], mu4[0])):
        assert got[0] == pytest.approx(ref["variance"], rel=1e-12)
        assert got[1] == pytest.approx(ref["mu3"], rel=1e-12, abs=mu3_abs)
        assert got[2] == pytest.approx(ref["mu4"], rel=1e-12)

    d = cm.moment_derivatives(w, c)
    for got, want in zip(d, ref["derivatives"]):
        assert_matches_sum(got, [want], rel=1e-12)

    assert_matches_sum(cm.kurtosis_gradient(w, c), ref["kurt_grad_terms"])
    _, batch_grad = cm.batch_kurtosis_and_gradient(w[None, :], c)
    assert_matches_sum(batch_grad[0], ref["kurt_grad_terms"])
    assert_matches_sum(cm.kurtosis_hessian(w, c), ref["kurt_hess_terms"])
