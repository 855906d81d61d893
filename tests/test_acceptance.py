"""End-to-end acceptance checks, one test per shipping criterion.

Each test exercises the full pipeline (simulator -> co-moments -> solver ->
benchmark weights) at desk scale with frozen seeds, asserts the behaviour the
package promises, and prints a ``[criterion NN]`` line with the measured
numbers behind the assertions.  ``pytest -v`` therefore yields one pass/fail
line per criterion.  Every seed and tolerance below was frozen from probe
runs before the assertions were written; nothing is tuned to the suite.

The two multi-minute tests (5-asset cross-check against branch-and-bound,
15-asset Langevin run on a 10^7-observation panel) carry the ``slow`` marker
and can be deselected with ``-m "not slow"``.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from portdim import bbsolve as bb
from portdim import comoments as cm
from portdim import divmeasure as dv
from portdim import gld
from portdim import retsim as rs

from conftest import homogeneous_spec, m4_block
from gld_reference import barrier_descent

# ---------------------------------------------------------------------------
# frozen run parameters
# ---------------------------------------------------------------------------

T_DESK = 1_000_000
RHO_TOL = 1e-3

MARGIN_K6 = rs.MarginTarget(mean=0.0, variance=1.0, skewness=0.0, kurtosis=6.0)

TOY_SEED = 11
TOY_RHOS = (0.95, 0.99, -0.3, -0.5, -0.7)

BOUND_SEEDS = (101, 211, 307, 401, 503)

FOUR_ASSET_SEED = 13
FIVE_ASSET_EXTENDED_SEED = 19
FIVE_ASSET_SEED = 17
FIFTEEN_ASSET_SEED = 29
DESCENT_START_SEED = 123

IID_SCALING_SEED_BASE = 37  # seed 37 + k for k iid assets
DERIVATIVE_POINT_SEED = 7
CALIBRATION_SEED = 41

#: distinct third/fourth co-moment tensor entries, n -> (C(n+2,3), C(n+3,4))
UNIQUE_COUNTS = {
    2: (4, 5),
    3: (10, 15),
    4: (20, 35),
    10: (220, 715),
    50: (22100, 292825),
    100: (171700, 4421275),
}


def _toy_spec(rho: float) -> rs.MetaGaussianSpec:
    """Three unit-variance assets: 1 and 2 correlated at rho, 3 independent."""
    corr = np.array([[1.0, rho, 0.0], [rho, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return rs.MetaGaussianSpec.from_targets((MARGIN_K6,) * 3, corr)


def _grid_min_kurtosis(c: cm.CoMomentSet, step: float) -> float:
    """Brute-force minimum kurtosis over the full barycentric grid (N=3)."""
    m = round(1.0 / step)
    pts = [
        (i / m, j / m, (m - i - j) / m) for i in range(m + 1) for j in range(m + 1 - i)
    ]
    return float(np.min(cm.batch_kurtosis(np.array(pts), c)))


def _probe_cells() -> np.ndarray:
    """The 3-asset root plus two levels of longest-edge bisection: a stack of 7 cells."""
    levels = [np.eye(3)[None]]
    for _ in range(2):
        levels.append(bb._bisect_cells(levels[-1]))
    return np.concatenate(levels)


# ---------------------------------------------------------------------------
# shared heavy state
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_runs():
    """Min-kurtosis + closed-form benchmark weights on the 3-asset universe."""
    t0 = time.perf_counter()
    runs = {}
    for rho in TOY_RHOS:
        sample = rs.sample_meta_gaussian(_toy_spec(rho), T_DESK, seed=TOY_SEED)
        c = cm.build_comoments(sample)
        res = bb.solve(c, bb.BbConfig(rho_tol=RHO_TOL, bound_mode="lp2", n_c=1))
        assert res.status == "optimal"
        runs[rho] = {
            "w3": float(np.asarray(res.incumbent)[2]),
            "rp_w3": dv.toy_rp_weight(rho),
            "dr_w3": dv.toy_dr_weight(rho),
        }
    runs["elapsed"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="module")
def bound_battery():
    """Five seeded desk-scale runs comparing every bounding mode (N=3)."""
    t0 = time.perf_counter()
    spec = homogeneous_spec(3, -0.2)
    records = []
    for seed in BOUND_SEEDS:
        sample = rs.sample_meta_gaussian(spec, T_DESK, seed=seed)
        c = cm.build_comoments(sample)
        r1 = bb.solve(c, bb.BbConfig(rho_tol=RHO_TOL, bound_mode="lp1"))
        r2 = bb.solve(c, bb.BbConfig(rho_tol=RHO_TOL, bound_mode="lp2", n_c=1))
        alpha = bb.alpha_floor(c)
        cells = _probe_cells()

        def bounds(mode, n_c=1):
            return bb._bound_cells(cells, cells.mean(axis=1), c, alpha, mode, n_c, 0)[0]

        ub2 = np.column_stack([bounds("lp2", n_c) for n_c in (1, 2, 4)])
        cell_bounds = list(zip(bounds("lp1"), ub2, bounds("milp")))
        records.append(
            {
                "seed": seed,
                "lp1": r1,
                "lp2": r2,
                "grid_kurt": _grid_min_kurtosis(c, 0.005),
                "cell_bounds": cell_bounds,
                "root_lp2_2": ub2[0, 1],
            }
        )
    return {"records": records, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def five_asset_state():
    """Langevin multistart and branch-and-bound on one 5-asset panel."""
    t0 = time.perf_counter()
    sample = rs.sample_meta_gaussian(homogeneous_spec(5, -0.2), T_DESK, seed=FIVE_ASSET_SEED)
    c = cm.build_comoments(sample)
    langevin = gld.multistart(
        c, gld.GldConfig(n_sim=1000, n_iter=10_000, seed=FIVE_ASSET_SEED)
    )
    reference = bb.solve(c, bb.BbConfig(rho_tol=RHO_TOL, bound_mode="lp2", n_c=1))
    return {
        "langevin": langevin,
        "reference": reference,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def fifteen_asset_state():
    """Langevin run and 100 interior-point descents on a 10^7-row panel.

    The population gap between the dropped-asset optimum and the full
    equal-weight point is small enough that a 10^6-row panel buries it in
    sampling noise, so this instance (and only this one) simulates 10^7
    rows.  The Langevin budgets stay at desk scale.
    """
    t0 = time.perf_counter()
    sample = rs.sample_meta_gaussian(
        homogeneous_spec(15, -0.05), 10_000_000, seed=FIFTEEN_ASSET_SEED
    )
    c = cm.build_comoments(sample)
    del sample
    langevin = gld.multistart(
        c, gld.GldConfig(c=0.1, n_sim=1000, n_iter=10_000, seed=FIFTEEN_ASSET_SEED)
    )
    rng = np.random.default_rng(DESCENT_START_SEED)
    descents = [
        barrier_descent(c, gld.sample_uniform_simplex(15, rng)) for _ in range(100)
    ]
    return {
        "comoments": c,
        "langevin": langevin,
        "descents": descents,
        "elapsed": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_duplicate_asset_splits_weight_evenly(toy_runs):
    """Near-duplicate pair: the independent asset keeps half the portfolio."""
    w3_95 = toy_runs[0.95]["w3"]
    w3_99 = toy_runs[0.99]["w3"]
    rp_99 = toy_runs[0.99]["rp_w3"]
    dr_99 = toy_runs[0.99]["dr_w3"]
    print(
        f"[criterion 01] w3(rho=0.95)={w3_95:.4f}, w3(0.99)={w3_99:.4f}, "
        f"rp(0.99)={rp_99:.4f} vs {math.sqrt(2) - 1:.4f}, dr(0.99)={dr_99:.4f}, "
        f"elapsed={toy_runs['elapsed']:.1f}s"
    )
    assert 0.45 <= w3_95 <= 0.55
    assert abs(w3_99 - 0.5) < 0.02
    assert abs(rp_99 - (math.sqrt(2) - 1)) < 0.01
    assert abs(dr_99 - 0.5) < 0.01
    assert toy_runs["elapsed"] < 600.0


def test_criterion_02_hedge_overweighted_relative_to_diversification_ratio(toy_runs):
    """Negative-correlation hedge: min-kurtosis and risk parity hold more of
    the hedge than the diversification-ratio portfolio at every rho."""
    lines = []
    for rho in (-0.3, -0.5, -0.7):
        run = toy_runs[rho]
        lines.append(f"rho={rho}: w3={run['w3']:.4f}, rp={run['rp_w3']:.4f}, dr={run['dr_w3']:.4f}")
        assert run["w3"] > run["dr_w3"]
        assert run["rp_w3"] > run["dr_w3"]
    print(f"[criterion 02] {'; '.join(lines)}; elapsed={toy_runs['elapsed']:.1f}s")
    assert toy_runs["elapsed"] < 600.0


def test_criterion_03_bounds_certified_and_ordered_across_seeds(bound_battery):
    """Solver agrees with a 0.005-grid search, keeps monotone certified
    bounds, and the bounding modes order as designed (median of 5 seeds)."""
    records = bound_battery["records"]
    rel_diffs, lp1_iters, lp2_iters = [], [], []
    root_lp1, root_lp2_2, root_milp = [], [], []
    for rec in records:
        r2 = rec["lp2"]
        assert rec["lp1"].status == "optimal"
        assert r2.status == "optimal"
        rel = abs(r2.kurtosis - rec["grid_kurt"]) / rec["grid_kurt"]
        rel_diffs.append(rel)
        assert rel <= RHO_TOL
        lb = np.asarray(r2.lower_bounds)
        ub = np.asarray(r2.upper_bounds)
        assert np.all(np.diff(lb) >= -1e-12)
        assert np.all(np.diff(ub) <= 1e-12)
        assert (1.0 - RHO_TOL) * ub[-1] <= lb[-1]
        lp1_iters.append(rec["lp1"].iterations)
        lp2_iters.append(r2.iterations)
        for ub1, ub2, ubm in rec["cell_bounds"]:
            assert ubm <= ub1 + 1e-9  # best convex relaxation never above LP1
            assert ub2[0] >= ub2[1] - 1e-9 >= ub2[2] - 2e-9  # more cuts, tighter
        ub1_root, _, ubm_root = rec["cell_bounds"][0]
        root_lp1.append(ub1_root)
        root_lp2_2.append(rec["root_lp2_2"])
        root_milp.append(ubm_root)
    med_lp1, med_lp2 = np.median(lp1_iters), np.median(lp2_iters)
    med_triple = (np.median(root_milp), np.median(root_lp2_2), np.median(root_lp1))
    print(
        f"[criterion 03] max rel diff vs grid={max(rel_diffs):.2e}, iterations "
        f"lp2={lp2_iters} < lp1={lp1_iters} (medians {med_lp2:.0f} < {med_lp1:.0f}), "
        f"median root bounds milp={med_triple[0]:.5f} <= lp2(2)={med_triple[1]:.5f} "
        f"<= lp1={med_triple[2]:.5f}, elapsed={bound_battery['elapsed']:.1f}s"
    )
    assert all(i2 < i1 for i1, i2 in zip(lp1_iters, lp2_iters))
    assert med_lp2 < med_lp1
    assert med_triple[0] <= med_triple[1] + 1e-9 <= med_triple[2] + 2e-9
    assert bound_battery["elapsed"] < 600.0


def test_criterion_04_four_asset_run_completes_with_certificate():
    """The 4-asset desk-scale problem certifies within its time budget."""
    t0 = time.perf_counter()
    sample = rs.sample_meta_gaussian(
        homogeneous_spec(4, -0.2), T_DESK, seed=FOUR_ASSET_SEED
    )
    c = cm.build_comoments(sample)
    res = bb.solve(c, bb.BbConfig(rho_tol=RHO_TOL, bound_mode="lp2", n_c=1))
    elapsed = time.perf_counter() - t0
    print(
        f"[criterion 04] status={res.status}, iterations={res.iterations}, "
        f"kurtosis={res.kurtosis:.6f}, elapsed={elapsed:.1f}s"
    )
    assert res.status == "optimal"
    assert (1.0 - RHO_TOL) * res.upper_bounds[-1] <= res.lower_bounds[-1]
    assert elapsed < 1800.0


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("RUN_EXTENDED"), reason="extended run; set RUN_EXTENDED=1"
)
def test_criterion_04_extended_five_asset_run_completes():
    """Optional larger instance: 5 assets certify at the same tolerance.

    Iteration counts are sample- and hardware-dependent, so only completion
    and the certificate are asserted.
    """
    t0 = time.perf_counter()
    sample = rs.sample_meta_gaussian(
        homogeneous_spec(5, -0.2), T_DESK, seed=FIVE_ASSET_EXTENDED_SEED
    )
    c = cm.build_comoments(sample)
    res = bb.solve(c, bb.BbConfig(rho_tol=RHO_TOL, bound_mode="lp2", n_c=1))
    elapsed = time.perf_counter() - t0
    print(
        f"[criterion 04-extended] status={res.status}, iterations={res.iterations}, "
        f"kurtosis={res.kurtosis:.6f}, elapsed={elapsed:.1f}s"
    )
    assert res.status == "optimal"
    assert (1.0 - RHO_TOL) * res.upper_bounds[-1] <= res.lower_bounds[-1]
    assert elapsed < 1800.0


@pytest.mark.slow
def test_criterion_05_langevin_matches_branch_and_bound_five_assets(five_asset_state):
    """Multistart Langevin finds the drop-one-asset optimum the certified
    solver finds: support of 4, near-equal weights, matching kurtosis."""
    langevin = five_asset_state["langevin"]
    reference = five_asset_state["reference"]
    w = np.asarray(langevin.best_weights)
    support = np.flatnonzero(w > 1e-6)
    spread = float(w[support].max() - w[support].min())
    rel_gap = abs(langevin.best_kurtosis - reference.kurtosis) / reference.kurtosis
    print(
        f"[criterion 05] support={support.tolist()}, spread={spread:.2e}, "
        f"kurtosis {langevin.best_kurtosis:.6f} vs certified {reference.kurtosis:.6f} "
        f"(rel gap {rel_gap:.2e}), elapsed={five_asset_state['elapsed']:.1f}s"
    )
    assert reference.status == "optimal"
    assert support.size == 4
    assert spread <= 1e-2
    assert rel_gap <= 1e-3
    assert five_asset_state["elapsed"] <= 1800.0


@pytest.mark.slow
def test_criterion_06_langevin_beats_every_local_descent_fifteen_assets(
    fifteen_asset_state,
):
    """The 15-asset Langevin solution drops one asset; plain local descent
    from 100 uniform starts always stalls at the full equal-weight point,
    strictly above the Langevin kurtosis."""
    langevin = fifteen_asset_state["langevin"]
    w = np.asarray(langevin.best_weights)
    support = np.flatnonzero(w > 1e-6)
    spread = float(w[support].max() - w[support].min())
    ew15 = np.full(15, 1.0 / 15.0)
    dists = [
        float(np.max(np.abs(wloc - ew15))) for wloc, _, _ in fifteen_asset_state["descents"]
    ]
    kurts = [kloc for _, kloc, _ in fifteen_asset_state["descents"]]
    print(
        f"[criterion 06] support={support.size}, spread={spread:.2e}, langevin "
        f"kurtosis={langevin.best_kurtosis:.6f}; descents: max dist to equal "
        f"weights={max(dists):.2e}, min kurtosis={min(kurts):.6f} "
        f"(margin {min(kurts) - langevin.best_kurtosis:.2e}), "
        f"elapsed={fifteen_asset_state['elapsed']:.1f}s"
    )
    assert support.size == 14
    assert spread <= 1e-2
    assert max(dists) < 1e-3  # every descent returns the equal-weight point
    assert min(kurts) > langevin.best_kurtosis
    assert fifteen_asset_state["elapsed"] <= 3600.0


def test_criterion_07_unique_element_storage_matches_dense():
    """Unique-entry counts follow the closed forms and the expanded block
    matrices agree with a naive dense computation."""
    for n, expected in UNIQUE_COUNTS.items():
        assert cm.unique_element_counts(n) == expected
    worst = 0.0
    rng = np.random.default_rng(DERIVATIVE_POINT_SEED)
    for n in (2, 3, 4):
        x = rng.standard_normal((1000, n))
        c = cm.build_comoments(cm.ReturnSample(values=x))
        xc = x - x.mean(axis=0)
        t_obs = x.shape[0]
        m2 = xc.T @ xc / t_obs
        m3 = np.einsum("ti,tj,tk->ijk", xc, xc, xc).reshape(n, n * n) / t_obs
        m4 = np.einsum("ti,tj,tk,tl->ijkl", xc, xc, xc, xc).reshape(n, n**3) / t_obs
        worst = max(
            worst,
            float(np.max(np.abs(c.m2 - m2))),
            float(np.max(np.abs(c.m3 - m3))),
            float(np.max(np.abs(m4_block(c) - m4))),
        )
    print(f"[criterion 07] counts exact for n={sorted(UNIQUE_COUNTS)}, max dense diff={worst:.2e}")
    assert worst <= 1e-12


def test_criterion_08_iid_equal_weight_kurtosis_scaling():
    """k iid assets at equal weights: kurtosis tracks 3 + (kappa_m - 3)/k."""
    errs = {}
    for k in (2, 4, 8):
        sample = rs.sample_meta_gaussian(
            homogeneous_spec(k, 0.0), T_DESK, seed=IID_SCALING_SEED_BASE + k
        )
        c = cm.build_comoments(sample)
        kurt = cm.portfolio_kurtosis(np.full(k, 1.0 / k), c)
        errs[k] = abs(kurt - (3.0 + 3.0 / k))
    print(
        "[criterion 08] abs err vs 3 + 3/k: "
        + ", ".join(f"k={k}: {e:.4f}" for k, e in errs.items())
    )
    assert all(e < 0.1 for e in errs.values())


def test_criterion_09_derivatives_match_finite_differences_and_euler(c_n3):
    """Analytic gradients/Hessians of the portfolio moments and the kurtosis
    ratio agree with central differences at 100 random interior points, and
    the homogeneity (Euler) identities hold to near machine precision."""
    rng = np.random.default_rng(DERIVATIVE_POINT_SEED)
    pts = rng.dirichlet(np.ones(3), size=100)
    h = 1e-5

    def fd_grad(f, w):
        cols = []
        for i in range(w.size):
            e = np.zeros(w.size)
            e[i] = h
            cols.append((f(w + e) - f(w - e)) / (2.0 * h))
        return np.array(cols)

    def fd_jac(g, w):
        cols = []
        for i in range(w.size):
            e = np.zeros(w.size)
            e[i] = h
            cols.append((g(w + e) - g(w - e)) / (2.0 * h))
        return np.column_stack(cols)

    def rel(a, b):
        return float(np.linalg.norm(a - b) / np.linalg.norm(a))

    worst_fd = 0.0
    worst_euler = 0.0
    for w in pts:
        mom = cm.portfolio_moments(w, c_n3)
        d = cm.moment_derivatives(w, c_n3)
        kg = cm.kurtosis_gradient(w, c_n3)
        kh = cm.kurtosis_hessian(w, c_n3)
        worst_fd = max(
            worst_fd,
            rel(d.grad_mu3, fd_grad(lambda v: cm.portfolio_moments(v, c_n3).mu3, w)),
            rel(d.grad_mu4, fd_grad(lambda v: cm.portfolio_moments(v, c_n3).mu4, w)),
            rel(kg, fd_grad(lambda v: cm.portfolio_kurtosis(v, c_n3), w)),
            rel(d.hess_mu3, fd_jac(lambda v: cm.moment_derivatives(v, c_n3).grad_mu3, w)),
            rel(d.hess_mu4, fd_jac(lambda v: cm.moment_derivatives(v, c_n3).grad_mu4, w)),
            rel(kh, fd_jac(lambda v: cm.kurtosis_gradient(v, c_n3), w)),
        )
        # degree-3, degree-4 and degree-0 homogeneity, for gradients and Hessians
        worst_euler = max(
            worst_euler,
            abs(w @ d.grad_mu3 - 3.0 * mom.mu3) / max(abs(mom.mu3), 1e-30),
            abs(w @ d.grad_mu4 - 4.0 * mom.mu4) / abs(mom.mu4),
            abs(w @ kg) / cm.portfolio_kurtosis(w, c_n3),
            float(np.linalg.norm(d.hess_mu3 @ w - 2.0 * d.grad_mu3) / np.linalg.norm(d.grad_mu3)),
            float(np.linalg.norm(d.hess_mu4 @ w - 3.0 * d.grad_mu4) / np.linalg.norm(d.grad_mu4)),
            float(np.linalg.norm(kh @ w + kg) / np.linalg.norm(kg)),
        )
    print(f"[criterion 09] worst FD rel err={worst_fd:.2e}, worst Euler residual={worst_euler:.2e}")
    assert worst_fd <= 1e-6
    assert worst_euler <= 1e-10


def test_criterion_10_simulator_calibration():
    """Near-Gaussian margins leave the copula correlation unchanged, the
    margin parameterization round-trips through its moments, and simulated
    margins pass a KS test against the target law."""
    near = rs.MarginTarget(mean=0.0, variance=1.0, skewness=0.0, kurtosis=3.01)
    worst_corr = 0.0
    for rho in (-0.7, -0.2, 0.4, 0.9):
        corr = np.array([[1.0, rho], [rho, 1.0]])
        adjusted = rs.adjust_correlation(corr, (near, near))
        worst_corr = max(worst_corr, abs(float(adjusted[0, 1]) - rho))

    round_trip_targets = (
        MARGIN_K6,
        rs.MarginTarget(mean=0.1, variance=2.0, skewness=0.5, kurtosis=5.0),
        rs.MarginTarget(mean=-0.3, variance=0.5, skewness=-0.8, kurtosis=6.5),
    )
    worst_rt = 0.0
    for target in round_trip_targets:
        p = rs.nig_params_from_moments(target)
        p2 = rs.nig_params_from_moments(rs.nig_moments(p))
        for a, b in zip(
            (p.alpha, p.beta, p.delta, p.mu), (p2.alpha, p2.beta, p2.delta, p2.mu)
        ):
            worst_rt = max(worst_rt, abs(a - b) / max(abs(a), 1.0))

    sample = rs.sample_meta_gaussian(homogeneous_spec(2, 0.3), 100_000, seed=CALIBRATION_SEED)
    params = rs.nig_params_from_moments(MARGIN_K6)
    pvalues = [
        stats.kstest(sample.values[:, j], lambda x: rs.nig_cdf(x, params)).pvalue
        for j in range(2)
    ]
    print(
        f"[criterion 10] worst corr err={worst_corr:.2e}, worst round-trip "
        f"err={worst_rt:.2e}, KS p-values={[f'{p:.3f}' for p in pvalues]}"
    )
    assert worst_corr <= 1e-3
    assert worst_rt <= 1e-10
    assert all(p > 0.01 for p in pvalues)
