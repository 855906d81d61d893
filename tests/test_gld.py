"""Simplex projection, Langevin multistart, and the local polish step."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from portdim import bbsolve as bb
from portdim import comoments as cm
from portdim import gld

from conftest import iid_comoments
from gld_reference import barrier_descent, reference_kurtosis_and_gradient, reference_project_rows, temperature

free_rows = arrays(
    np.float64,
    st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=6)),
    elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)


def test_projection_known_cases():
    w = np.array([0.2, 0.3, 0.5])
    rows = gld.project_rows(np.vstack([[2.0, 0.0, 0.0], np.full(3, 0.5), w]))
    assert np.allclose(rows[0], [1.0, 0.0, 0.0])
    assert np.allclose(rows[1], np.full(3, 1.0 / 3.0))
    assert np.allclose(rows[2], w)  # already feasible: fixed point


@given(free_rows)
@settings(max_examples=100, deadline=None)
def test_projection_is_feasible_and_optimal(v):
    p = gld.project_rows(v)
    assert p.shape == v.shape
    assert np.all(p >= 0.0)
    assert np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
    # optimality of a Euclidean projection: (v - p)'(z - p) <= 0 for every
    # feasible z; checking the simplex vertices suffices by convexity
    for row, proj in zip(v, p):
        inner = (row - proj) @ (np.eye(row.size) - proj).T
        assert np.max(inner) <= 1e-9


@given(
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_projection_is_bitwise_the_reference(n_rows, n, tied, scale, seed):
    # a share `tied` of the entries comes from a grid with signed zeros, so
    # rows hold ties, exact zeros of either sign and negative entries
    rng = np.random.default_rng(seed)
    v = scale * rng.standard_normal((n_rows, n))
    grid = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.0, 0.25, 0.5, 1.0], size=v.shape)
    v = np.where(rng.random(v.shape) < tied, scale * grid, v)
    before = v.copy()
    got = gld.project_rows(v)
    assert got.tobytes() == reference_project_rows(v).tobytes()
    assert v.tobytes() == before.tobytes()  # the caller's array is left alone


@pytest.mark.parametrize("n", [1, 3, 15])
def test_projection_rejects_rows_too_large_to_land_on_the_simplex(n):
    rows = np.random.default_rng(n).standard_normal((4, n))
    largest = gld._PROJECTION_TOL / (n * np.finfo(float).eps)
    # near the largest accepted size the rows still sum to 1 within the tolerance
    p = gld.project_rows(0.99 * largest * rows / np.abs(rows).max())
    assert np.all(p >= 0.0)
    assert np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=gld._PROJECTION_TOL)
    for size in (2.0 * largest, 1e199):
        with pytest.raises(ValueError, match="too large to land on the simplex"):
            gld.project_rows(size * rows / np.abs(rows).max())
    for bad in (np.inf, np.nan):
        rows[-1, -1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            gld.project_rows(rows)


def test_uniform_simplex_sampling_statistics():
    rng = np.random.default_rng(0)
    draws = np.array([np.asarray(gld.sample_uniform_simplex(4, rng)) for _ in range(4000)])
    assert np.all(draws >= 0.0)
    assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-12)
    # the flat Dirichlet has mean 1/n and variance (n-1)/(n^2 (n+1))
    assert np.allclose(draws.mean(axis=0), 0.25, atol=0.01)
    assert np.allclose(draws.var(axis=0), 3.0 / (16.0 * 5.0), atol=0.005)


def test_temperature_heuristic():
    assert temperature(0.01, 5, 0.06) == pytest.approx(2 * 0.01 * 25 / 0.0036, rel=1e-12)
    # multistart's noise scale c / n is sqrt(2 lam / beta) in closed form
    assert math.sqrt(2 * 0.01 / temperature(0.01, 5, 0.06)) == pytest.approx(0.06 / 5, rel=1e-15)


def test_recorded_iterates_stay_feasible(c_n3):
    cfg = gld.GldConfig(n_sim=4, n_iter=50, seed=1, polish=False)
    result = gld.multistart(c_n3, cfg, record_paths=(0, 1, 2, 3))
    for trace in result.recorded_paths.values():
        assert trace.shape == (51, 3)
        assert np.all(trace >= 0.0)
        assert np.allclose(trace.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        gld.GldConfig(lam=0.0)
    with pytest.raises(ValueError):
        gld.GldConfig(c=-1.0)
    with pytest.raises(ValueError):
        gld.GldConfig(n_sim=0)
    with pytest.raises(ValueError):
        gld.GldConfig(n_iter=-1)


@pytest.mark.parametrize("field", ["lam", "c"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite_step_and_temperature(field, value):
    with pytest.raises(ValueError, match="positive and finite"):
        gld.GldConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_sim", 2.5),
        ("n_sim", True),
        ("n_iter", 2.5),
        ("n_iter", True),
        ("seed", 1.5),
        ("seed", True),
        ("seed", -1),
    ],
)
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=field):
        gld.GldConfig(**{field: value})
    cfg = gld.GldConfig(n_sim=np.int64(4), n_iter=np.int64(0), seed=np.int64(2))
    assert (cfg.n_sim, cfg.n_iter, cfg.seed) == (4, 0, 2)


def test_local_descent_finds_iid_pair_optimum(c2_iid):
    w, value, evaluations = gld.local_descent(c2_iid, np.array([0.9, 0.1]))
    assert np.allclose(w, [0.5, 0.5], atol=1e-6)
    assert value == pytest.approx(4.5, rel=1e-10)
    assert evaluations > 0


def test_local_descent_is_monotone_from_any_start(c_n3):
    rng = np.random.default_rng(7)
    for _ in range(10):
        w0 = rng.dirichlet(np.ones(3))
        w, value, _ = gld.local_descent(c_n3, w0)
        assert value <= cm.portfolio_kurtosis(w0, c_n3) + 1e-12
        assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)
        # first-order stationarity of the projected point
        mapped = gld.project_rows((w - cm.kurtosis_gradient(w, c_n3))[None, :])[0]
        assert np.linalg.norm(w - mapped) < 1e-6


def test_barrier_descent_finds_iid_pair_optimum(c2_iid):
    w, value, evaluations = barrier_descent(c2_iid, np.array([0.9, 0.1]))
    assert np.allclose(w, [0.5, 0.5], atol=1e-7)
    assert value == pytest.approx(4.5, rel=1e-10)
    assert evaluations > 0


def test_barrier_descent_stays_interior_and_stationary(c_n3):
    rng = np.random.default_rng(11)
    for _ in range(10):
        w0 = rng.dirichlet(np.ones(3))
        w, value, _ = barrier_descent(c_n3, w0)
        assert np.all(w > 0.0)  # iterates never touch a face exactly
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        # the endpoint is a critical point of kappa restricted to the
        # simplex hyperplane, up to the residual barrier force mu_end/w
        grad = cm.kurtosis_gradient(w, c_n3) - 1e-9 / w
        reduced = grad - grad.mean()
        assert np.linalg.norm(reduced) < 1e-5


def test_barrier_descent_deterministic(c_n3):
    w0 = np.array([0.2, 0.5, 0.3])
    first = barrier_descent(c_n3, w0)
    second = barrier_descent(c_n3, w0)
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]


def test_barrier_descent_rejects_boundary_start(c_n3):
    with pytest.raises(ValueError):
        barrier_descent(c_n3, np.array([0.5, 0.5, 0.0]))


def small_cfg(**kw):
    base = dict(n_sim=40, n_iter=300, seed=3)
    base.update(kw)
    return gld.GldConfig(**base)


def test_multistart_finds_iid_pair_optimum(c2_iid):
    result = gld.multistart(c2_iid, small_cfg())
    assert np.allclose(np.asarray(result.best_weights), [0.5, 0.5], atol=1e-4)
    assert result.best_kurtosis == pytest.approx(4.5, rel=1e-6)
    assert result.evaluations > 0


def test_multistart_is_deterministic(c_n3):
    a = gld.multistart(c_n3, small_cfg())
    b = gld.multistart(c_n3, small_cfg())
    assert np.array_equal(np.asarray(a.best_weights), np.asarray(b.best_weights))
    assert a.best_kurtosis == b.best_kurtosis
    assert np.array_equal(a.path_best_values, b.path_best_values)
    c = gld.multistart(c_n3, small_cfg(seed=4))
    assert not np.array_equal(a.path_best_values, c.path_best_values)


def test_paths_own_independent_substreams(c_n3):
    # growing n_sim appends new paths without disturbing existing ones
    small = gld.multistart(c_n3, small_cfg(n_sim=8))
    large = gld.multistart(c_n3, small_cfg(n_sim=16))
    assert np.array_equal(large.path_best_values[:8], small.path_best_values)


def test_recorded_paths_share_prefix_across_budgets(c_n3):
    short = gld.multistart(c_n3, small_cfg(n_iter=100), record_paths=(2,))
    long = gld.multistart(c_n3, small_cfg(n_iter=200), record_paths=(2,))
    trace_short = short.recorded_paths[2]
    trace_long = long.recorded_paths[2]
    assert trace_short.shape == (101, 3)
    assert trace_long.shape == (201, 3)
    assert np.array_equal(trace_long[:101], trace_short)


def assert_same_result(reference, result):
    """Every field of two GldResults equal bit for bit."""
    for f in dataclasses.fields(gld.GldResult):
        a, b = getattr(reference, f.name), getattr(result, f.name)
        if f.name == "recorded_paths":
            assert a.keys() == b.keys() and all(a[p].tobytes() == b[p].tobytes() for p in a)
        elif f.name == "final_summary":
            assert a.bin_edges.tobytes() == b.bin_edges.tobytes() and a.counts.tobytes() == b.counts.tobytes()
        else:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


@pytest.mark.parametrize("chunk_iters", [1, 7, None, 250])
def test_results_do_not_depend_on_noise_chunk(monkeypatch, c_n3, chunk_iters):
    # None keeps the default buffer; 250 holds all 200 iterations at once
    cfg = small_cfg(n_sim=10, n_iter=200)
    reference = gld.multistart(c_n3, cfg, record_paths=(0, 6))
    if chunk_iters is not None:  # 1 draws 3 float32 normals a call, an odd count of 32-bit halves
        monkeypatch.setattr(gld, "_NOISE_BUFFER_BYTES", chunk_iters * cfg.n_sim * c_n3.n_assets * 4)
    result = gld.multistart(c_n3, cfg, record_paths=(0, 6))
    assert_same_result(reference, result)


@pytest.mark.parametrize("n, n_sim", [(3, 40), (15, 40), (15, 8)])
def test_multistart_is_bitwise_the_reference_projection_and_kernel(monkeypatch, c_n3, n, n_sim):
    # 8 paths of 15 assets take the projection's few-rows branch; the
    # reference projection serves the polish as well
    c = c_n3 if n == 3 else cm.build_comoments(cm.ReturnSample(np.random.default_rng(n).standard_t(6, (3000, n))))
    cfg = small_cfg(n_sim=n_sim, n_iter=200)
    result = gld.multistart(c, cfg, record_paths=(0, 5))
    monkeypatch.setattr(gld, "project_rows", reference_project_rows)
    monkeypatch.setattr(gld, "batch_kurtosis_and_gradient", reference_kurtosis_and_gradient)
    reference = gld.multistart(c, cfg, record_paths=(0, 5))
    assert result.precision == "float32" and result.polish_applied
    assert_same_result(reference, result)


def substream(seed: int, path: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(gld.GLD_STREAM, path))))


def one_start(n: int, gen: np.random.Generator) -> np.ndarray:
    """Reference draw, one vector at a time: the spacings of n - 1 sorted uniforms between 0 and 1, normalised."""
    w = np.diff(np.concatenate([[0.0], np.sort(gen.random(n - 1)), [1.0]]))
    return w / w.sum()


@pytest.mark.parametrize("n", [1, 3, 15])
def test_each_start_is_the_first_draw_of_its_own_substream(c_n3, n):
    c = c_n3 if n == 3 else iid_comoments(n)
    cfg = small_cfg(n_sim=20, n_iter=0)
    result = gld.multistart(c, cfg, record_paths=tuple(range(cfg.n_sim)))
    for p, trace in result.recorded_paths.items():
        assert trace[0].tobytes() == gld.sample_uniform_simplex(n, substream(cfg.seed, p)).w.tobytes()
        assert trace[0].tobytes() == one_start(n, substream(cfg.seed, p)).tobytes()


def test_first_iterate_is_rebuilt_from_its_own_substream(c_n3):
    # each path draws its start, then n float32 normals per iteration
    cfg = small_cfg(n_sim=4, n_iter=3)
    n = c_n3.n_assets
    gens = [substream(cfg.seed, p) for p in range(cfg.n_sim)]
    starts = np.array([gld.sample_uniform_simplex(n, gen).w for gen in gens])
    eps = np.array([gen.standard_normal(n, dtype=np.float32) for gen in gens])
    unit = cm.unit_scaled(c_n3)[0]
    kernel = cm._KernelMoments(unit.m2.astype(np.float32), unit.m4_gram.astype(np.float32))
    _, grad = cm.batch_kurtosis_and_gradient(starts, kernel)
    first = gld.project_rows(starts - cfg.lam * grad + (cfg.c / n) * eps.astype(np.float64))
    result = gld.multistart(c_n3, cfg, record_paths=tuple(range(cfg.n_sim)))
    assert result.precision == "float32"
    for p, trace in result.recorded_paths.items():
        assert trace[1].tobytes() == first[p].tobytes()


@pytest.mark.parametrize("j", [-10, 10])
def test_multistart_does_not_depend_on_the_units_of_the_returns(sample_n3, j):
    cfg = small_cfg(n_sim=10, n_iter=200)
    unit = gld.multistart(cm.build_comoments(sample_n3), cfg, record_paths=(0, 6))
    scaled = cm.build_comoments(cm.ReturnSample(np.ldexp(sample_n3.values, j)))
    assert unit.precision == "float32"
    assert_same_result(unit, gld.multistart(scaled, cfg, record_paths=(0, 6)))


@pytest.mark.parametrize("polish", [True, False])
def test_reported_kurtoses_are_float64_values_of_the_weights(c_n3, polish):
    result = gld.multistart(c_n3, small_cfg(polish=polish))
    assert result.best_kurtosis == cm.portfolio_kurtosis(result.best_weights, c_n3)
    if not result.polish_applied:
        assert result.pre_polish_kurtosis == result.best_kurtosis
    # the step's own values are single precision, near the float64 ones
    assert result.precision == "float32"
    assert result.best_so_far[-1] == result.path_best_values.min()
    assert result.best_so_far[-1] == pytest.approx(result.pre_polish_kurtosis, rel=1e-5)
    assert np.all(result.path_best_values == result.path_best_values.astype(np.float32))


def test_ill_conditioned_universe_takes_the_float64_step():
    # homogeneous rho = 0.999 over 5 assets: cond(m2) is about 5e3
    corr = np.full((5, 5), 0.999)
    np.fill_diagonal(corr, 1.0)
    panel = np.random.default_rng(0).standard_t(6, size=(20_000, 5)) @ np.linalg.cholesky(corr).T
    c = cm.build_comoments(cm.ReturnSample(panel))
    assert np.linalg.cond(c.m2) > 4e3
    result = gld.multistart(c, small_cfg(n_sim=10, n_iter=50))
    assert result.precision == "float64"
    assert result.best_so_far[-1] == result.path_best_values.min()
    assert result.best_kurtosis == cm.portfolio_kurtosis(result.best_weights, c)


def test_record_paths_outside_range_rejected(c_n3):
    with pytest.raises(ValueError, match=r"\[-1, 7\] outside the path range \[0, 4\)"):
        gld.multistart(c_n3, small_cfg(n_sim=4, n_iter=5), record_paths=(7, -1, 2))
    result = gld.multistart(c_n3, small_cfg(n_sim=4, n_iter=5), record_paths=(0, 3, 3))
    assert sorted(result.recorded_paths) == [0, 3]


def test_polish_never_hurts(c_n3):
    polished = gld.multistart(c_n3, small_cfg())
    raw = gld.multistart(c_n3, small_cfg(polish=False))
    assert polished.best_kurtosis <= polished.pre_polish_kurtosis + 1e-15
    assert raw.best_kurtosis == raw.pre_polish_kurtosis
    assert not raw.polish_applied
    # both runs see identical paths, so the pre-polish values agree
    assert raw.pre_polish_kurtosis == polished.pre_polish_kurtosis


def test_final_iterate_summary_shape(c_n3):
    result = gld.multistart(c_n3, small_cfg(n_sim=25))
    summary = result.final_summary
    assert summary.bin_edges.shape == (201,)
    assert summary.counts.shape == (3, 200)
    assert np.all(summary.counts.sum(axis=1) == 25)


def test_multistart_result_weights_are_feasible(c_n3):
    result = gld.multistart(c_n3, small_cfg())
    w = np.asarray(result.best_weights)
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0 <= result.best_path < 40


def test_multistart_single_asset(sample_n3):
    c = cm.build_comoments(cm.ReturnSample(sample_n3.values[:, :1]))
    result = gld.multistart(c, small_cfg(n_sim=5, n_iter=20), record_paths=(0,))
    assert np.array_equal(np.asarray(result.best_weights), [1.0])
    assert np.all(result.recorded_paths[0] == 1.0)
    assert result.best_path == 0
    kurtosis = c.m4_unique[0] / c.m2[0, 0] ** 2
    assert result.best_kurtosis == pytest.approx(kurtosis, rel=1e-12)
    assert bb.solve(c).kurtosis == pytest.approx(kurtosis, rel=1e-12)
