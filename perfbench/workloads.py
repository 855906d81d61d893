"""The benchmark's four workloads: seeded set-up, one timed pass, one output check.

Every call into a layer goes through ``call(span_name, fn, *args)``, which
is a plain call in an untraced pass and records a span in a traced one.
Set-up returns the raw co-moment arrays; each pass builds a fresh
``CoMomentSet`` from them, so the lazily built ``m4_paired``/``m3`` blocks
are paid in every pass, as a command-line user pays them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from portdim import bbsolve, comoments, divmeasure, gld, harness, retsim

RHO_TOL = 1e-3
KURTOSIS = 6.0
#: the 0.005-step grid of acceptance criterion 03
GRID_STEP = 0.005
#: bounding modes of scripts/run_bb_experiments.py, in its order
BOUND_MODES = (("lp1", 1), ("lp2", 1), ("lp2", 2), ("lp2", 3), ("lp2", 4), ("milp", 1))

#: sizes of the measured runs and of the smoke test
SIZES = {
    "full": {
        "certify-n4": {"n": 4, "rho": -0.2, "t_obs": 500_000, "rho_tol": RHO_TOL},
        "bound-modes-n3": {"n": 3, "rho": -0.2, "t_obs": 200_000, "rho_tol": RHO_TOL},
        "langevin-n15": {"n": 15, "rho": -0.05, "t_obs": 200_000, "paths": 1000, "iterations": 400},
        "simulate-n15": {"n": 15, "rho": -0.05, "t_obs": 200_000},
    },
    "smoke": {
        "certify-n4": {"n": 3, "rho": -0.2, "t_obs": 20_000, "rho_tol": 1e-2},
        "bound-modes-n3": {"n": 2, "rho": -0.2, "t_obs": 20_000, "rho_tol": 1e-2},
        "langevin-n15": {"n": 6, "rho": -0.05, "t_obs": 20_000, "paths": 40, "iterations": 20},
        "simulate-n15": {"n": 4, "rho": -0.05, "t_obs": 4_000},
    },
}

#: population moments of the standardized kurtosis-6 NIG margin, for the
#: standard errors behind the simulator check's tolerances
_NIG_MU6 = 105.0
_NIG_MU8 = 3885.0
#: tolerance of the simulator check, in standard errors
_SE_MULTIPLE = 8.0


class CheckFailed(AssertionError):
    """A workload's output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _build_spec(n: int, rho: float) -> retsim.MetaGaussianSpec:
    """Homogeneous spec with kurtosis-6 NIG margins; builds the NIG tables too."""
    target = retsim.MarginTarget(mean=0.0, variance=1.0, skewness=0.0, kurtosis=KURTOSIS)
    corr = np.full((n, n), rho)
    np.fill_diagonal(corr, 1.0)
    spec = retsim.MetaGaussianSpec.from_targets((target,) * n, corr)
    for params in spec.margins:
        retsim.nig_cdf(0.0, params)
    return spec


def _simulated_moments(call, n: int, rho: float, t_obs: int, seed: int) -> dict:
    """Spec, panel and co-moments of one seeded instance, as plain arrays."""
    spec = call("retsim.spec", _build_spec, n, rho)
    sample = call("retsim.sample", retsim.sample_meta_gaussian, spec, t_obs, seed, count=lambda s: s.values.size)
    c = call("comoments.build", comoments.build_comoments, sample, count=lambda c: c.n_obs)
    return {
        "mean": c.mean,
        "m2": c.m2,
        "m3_unique": c.m3_unique,
        "m4_unique": c.m4_unique,
        "n_assets": c.n_assets,
        "n_obs": c.n_obs,
    }


def _fresh(moments: dict) -> comoments.CoMomentSet:
    return comoments.CoMomentSet(**moments)


def _reference() -> divmeasure.ReferenceAsset:
    target = retsim.MarginTarget(mean=0.0, variance=1.0, skewness=0.0, kurtosis=KURTOSIS)
    return divmeasure.ReferenceAsset.from_target(target, divmeasure.NuMeasure.EXCESS_KURTOSIS)


def _check_certificate(res: bbsolve.BbResult, rho_tol: float, label: str) -> None:
    _require(res.status == "optimal", f"{label}: status {res.status}")
    lb, ub = np.asarray(res.lower_bounds), np.asarray(res.upper_bounds)
    _require((1.0 - rho_tol) * ub[-1] <= lb[-1], f"{label}: certificate not closed")
    _require(bool(np.all(np.diff(lb) >= -1e-12)), f"{label}: lower bounds not monotone")
    _require(bool(np.all(np.diff(ub) <= 1e-12)), f"{label}: upper bounds not monotone")


def _grid_min_kurtosis(c: comoments.CoMomentSet) -> float:
    """Lowest kurtosis over the simplex grid of step ``GRID_STEP``."""
    steps = round(1.0 / GRID_STEP)
    n = c.n_assets
    # stars and bars: each choice of n - 1 bar positions is one grid point
    bars = np.array(list(itertools.combinations(range(steps + n - 1), n - 1)), dtype=float).reshape(-1, n - 1)
    edges = np.hstack([np.full((bars.shape[0], 1), -1.0), bars, np.full((bars.shape[0], 1), steps + n - 1.0)])
    grid = np.diff(edges, axis=1) - 1.0
    return float(comoments.batch_kurtosis(grid / steps, c).min())


@dataclass
class Workload:
    name: str
    why: str
    size: dict
    #: directory for files a pass writes
    scratch: Path = Path(".")
    #: reference kernels (``speed.KERNELS``) that scale pass and set-up times
    kernel = "interp"
    setup_kernel = "blas"

    def setup(self, seed: int, call) -> dict:
        raise NotImplementedError

    def run_pass(self, state: dict, call):
        """One timed pass; returns its output."""
        raise NotImplementedError

    def check(self, state: dict, output) -> None:
        """Raise :class:`CheckFailed` unless ``output`` is right."""
        raise NotImplementedError

    def work(self) -> float:
        """Units of work one pass completes (see ``work_per_s``)."""
        return 1.0

    def traced_results(self, output) -> list:
        """Solver results the per-layer metrics read counts from."""
        return []


class CertifyN4(Workload):
    """Acceptance criterion 04's exact path: certify, then measure d."""

    def setup(self, seed, call):
        s = self.size
        return {"moments": _simulated_moments(call, s["n"], s["rho"], s["t_obs"], seed), "reference": _reference()}

    def run_pass(self, state, call):
        c = _fresh(state["moments"])
        cfg = bbsolve.BbConfig(rho_tol=self.size["rho_tol"], bound_mode="lp2", n_c=1)
        res = call("bbsolve.solve", bbsolve.solve, c, cfg)
        dim = call(
            "divmeasure.dimensionality",
            divmeasure.dimensionality,
            res.incumbent,
            c,
            state["reference"],
            divmeasure.NuMeasure.EXCESS_KURTOSIS,
        )
        return res, dim

    def check(self, state, output):
        res, dim = output
        rho_tol = self.size["rho_tol"]
        _check_certificate(res, rho_tol, "certify")
        if "support_min" not in state:
            c = _fresh(state["moments"])
            n = c.n_assets
            values = []
            for k in range(1, n + 1):
                for support in itertools.combinations(range(n), k):
                    w = np.zeros(n)
                    w[list(support)] = 1.0 / k
                    values.append(comoments.portfolio_kurtosis(w, c))
            state["support_min"] = min(values)
        _require(
            res.kurtosis <= state["support_min"] / (1.0 - rho_tol),
            f"certify: kurtosis {res.kurtosis} above best equal-weight support {state['support_min']}",
        )
        _require(math.isfinite(dim.value) and dim.value > 0.0, f"certify: dimensionality {dim.value}")

    def traced_results(self, output):
        return [("bb", output[0])]


class BoundModesN3(Workload):
    """The bound-mode table of scripts/run_bb_experiments.py on one instance."""

    def setup(self, seed, call):
        s = self.size
        return {"moments": _simulated_moments(call, s["n"], s["rho"], s["t_obs"], seed)}

    def run_pass(self, state, call):
        c = _fresh(state["moments"])
        results = []
        for mode, n_c in BOUND_MODES:
            cfg = bbsolve.BbConfig(rho_tol=self.size["rho_tol"], bound_mode=mode, n_c=n_c)
            results.append(call("bbsolve.solve", bbsolve.solve, c, cfg))
        return results

    def check(self, state, output):
        rho_tol = self.size["rho_tol"]
        if "grid_min" not in state:
            state["grid_min"] = _grid_min_kurtosis(_fresh(state["moments"]))
        grid_min = state["grid_min"]
        _require(len(output) == len(BOUND_MODES), f"bound modes: {len(output)} results")
        for (mode, n_c), res in zip(BOUND_MODES, output):
            label = f"{mode}(n_c={n_c})"
            _check_certificate(res, rho_tol, label)
            rel = abs(res.kurtosis - grid_min) / grid_min
            _require(rel <= rho_tol, f"{label}: kurtosis {res.kurtosis} off the grid minimum {grid_min} by {rel:.2e}")

    def work(self):
        return float(len(BOUND_MODES))

    def traced_results(self, output):
        return [("bb", r) for r in output]


class LangevinN15(Workload):
    """Acceptance criterion 06's stochastic path, shortened to a fixed iteration count."""

    kernel = "blas"

    def setup(self, seed, call):
        s = self.size
        return {"moments": _simulated_moments(call, s["n"], s["rho"], s["t_obs"], seed), "seed": seed}

    def run_pass(self, state, call):
        c = _fresh(state["moments"])
        s = self.size
        cfg = gld.GldConfig(c=0.1, n_sim=s["paths"], n_iter=s["iterations"], seed=state["seed"], polish=True)
        return call("gld.multistart", gld.multistart, c, cfg)

    def check(self, state, output):
        w = np.asarray(output.best_weights)
        _require(bool(np.all(w >= 0.0)) and abs(w.sum() - 1.0) <= 1e-12, "langevin: weights off the simplex")
        if "equal_weight" not in state:
            n = self.size["n"]
            state["equal_weight"] = comoments.portfolio_kurtosis(np.full(n, 1.0 / n), _fresh(state["moments"]))
        _require(
            output.best_kurtosis <= state["equal_weight"],
            f"langevin: kurtosis {output.best_kurtosis} above equal weight {state['equal_weight']}",
        )
        fingerprint = (w.tobytes(), output.best_kurtosis, output.evaluations)
        first = state.setdefault("first_result", fingerprint)
        _require(fingerprint == first, "langevin: result differs from the run's first pass")

    def work(self):
        return float(self.size["paths"] * self.size["iterations"])

    def traced_results(self, output):
        return [("gld", output)]


class SimulateN15(Workload):
    """The data path: sample, co-moments, moments.json round trip, d of equal weights."""

    kernel = "stream"
    setup_kernel = "interp"

    def setup(self, seed, call):
        s = self.size
        spec = call("retsim.spec", _build_spec, s["n"], s["rho"])
        return {"spec": spec, "seed": seed, "reference": _reference()}

    def run_pass(self, state, call):
        n, t_obs = self.size["n"], self.size["t_obs"]
        sample = call(
            "retsim.sample", retsim.sample_meta_gaussian, state["spec"], t_obs, state["seed"], count=lambda s: s.values.size
        )
        c = call("comoments.build", comoments.build_comoments, sample, count=lambda c: c.n_obs)
        path = self.scratch / "moments.json"
        call("harness.write_moments", harness.write_moments, path, c, [f"a{i}" for i in range(n)], {"seed": state["seed"]})
        back = call("harness.read_moments", harness.read_moments, path)
        dim = call(
            "divmeasure.dimensionality",
            divmeasure.dimensionality,
            np.full(n, 1.0 / n),
            back,
            state["reference"],
            divmeasure.NuMeasure.EXCESS_KURTOSIS,
        )
        return sample, c, back, dim

    def check(self, state, output):
        sample, c, back, dim = output
        n, t_obs = self.size["n"], self.size["t_obs"]
        x = sample.values
        _require(x.shape == (t_obs, n), f"simulate: panel shape {x.shape}")
        _require(bool(np.all(np.isfinite(x))), "simulate: non-finite panel entries")
        root_t = math.sqrt(t_obs)
        tol = {
            "mean": _SE_MULTIPLE / root_t,
            "variance": _SE_MULTIPLE * math.sqrt(KURTOSIS - 1.0) / root_t,
            "skewness": _SE_MULTIPLE * math.sqrt(_NIG_MU6 - 6.0 * KURTOSIS + 9.0) / root_t,
            "kurtosis": _SE_MULTIPLE * math.sqrt(_NIG_MU8 - KURTOSIS**2) / root_t,
            "correlation": _SE_MULTIPLE / root_t,
        }
        mean = x.mean(axis=0)
        xc = x - mean
        var = (xc**2).mean(axis=0)
        skew = (xc**3).mean(axis=0) / var**1.5
        kurt = (xc**4).mean(axis=0) / var**2
        for name, got, want in (
            ("mean", mean, 0.0),
            ("variance", var, 1.0),
            ("skewness", skew, 0.0),
            ("kurtosis", kurt, KURTOSIS),
        ):
            worst = float(np.max(np.abs(got - want)))
            _require(worst <= tol[name], f"simulate: margin {name} off target by {worst:.3g} > {tol[name]:.3g}")
        corr = np.corrcoef(x, rowvar=False)
        worst = float(np.max(np.abs(corr - state["spec"].target_corr)))
        _require(worst <= tol["correlation"], f"simulate: correlation off target by {worst:.3g}")
        for field in ("mean", "m2", "m3_unique", "m4_unique"):
            _require(np.array_equal(getattr(back, field), getattr(c, field)), f"simulate: {field} changed in moments.json")
        _require((back.n_assets, back.n_obs) == (c.n_assets, c.n_obs), "simulate: sizes changed in moments.json")
        _require(math.isfinite(dim.value) and dim.value > 0.0, f"simulate: dimensionality {dim.value}")

    def work(self):
        return float(self.size["n"] * self.size["t_obs"])


WORKLOADS = {
    "certify-n4": (CertifyN4, "criterion 04's exact B&B path (lp2, n_c=1); subsolver LPs and scalar moments dominate"),
    "bound-modes-n3": (BoundModesN3, "lp1, lp2 n_c=1..4 and milp on one instance: MILP nodes and larger cut sets"),
    "langevin-n15": (LangevinN15, "criterion 06's stochastic path: batched kurtosis+gradient, no LP or B&B"),
    "simulate-n15": (SimulateN15, "the data path: NIG quantile sampling, co-moment build and moments.json I/O"),
}


def make(name: str, scratch: Path, size: str = "full") -> Workload:
    cls, why = WORKLOADS[name]
    return cls(name=name, why=why, size=SIZES[size][name], scratch=scratch)
