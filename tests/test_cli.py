"""The ``portdim`` command line end to end: ``portdim`` runs a command line in process through
``harness.main``, writing under a test's ``tmp_path``.  ``portdim_process`` starts a fresh
``python -m portdim`` instead, only where the process is what a test checks: its peak RSS, or
NIG tables built under ``-W error::RuntimeWarning`` (``retsim._table``'s cache may hold one built without it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from portdim import harness as hn


def portdim(tmp_path, command: str, *args: str) -> None:
    assert hn.main([*command.split(), *args, "--output-dir", str(tmp_path)]) == 0


def portdim_process(tmp_path, command: str, *python_flags: str, prelude: str = "") -> None:
    """Run ``python -m portdim`` in a process of its own; with a ``prelude``, a
    Python process runs that code first and then execs the command in its place."""
    env = dict(os.environ, PYTHONPATH=str(Path(hn.__file__).parents[1]))
    argv = [sys.executable, *python_flags, "-m", "portdim", *command.split(), "--output-dir", str(tmp_path)]
    if prelude:
        argv = [sys.executable, "-c", f"{prelude}; import os, sys; os.execv(sys.argv[1], sys.argv[1:])", *argv]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def trace_rows(path) -> list[str]:
    """The data rows of a ``bb_trace.csv``."""
    return [line for line in Path(path).read_text().splitlines() if not line.startswith("#")][1:]


def test_langevin_is_no_better_than_the_certified_five_asset_optimum(tmp_path):
    universe = "--n-assets 5 --rho -0.2 --seed 17 --t-obs 20000"
    langevin = "--noise-scale 0.06 --n-sim 20 --n-iter 50 --record-paths 0,1,2"
    portdim(tmp_path, f"optimize-gld {universe} {langevin} --experiment gld5")
    portdim(tmp_path, f"optimize-bb {universe} --experiment bb5")
    certified_lb = float(trace_rows(tmp_path / "bb5" / "bb_trace.csv")[-1].split(",")[4])
    assert certified_lb <= read_json(tmp_path / "gld5" / "gld_results.json")["kurtosis"]


def test_milp_at_six_assets_peaks_below_150_mb(tmp_path):
    argv = "--n-assets 6 --rho -0.1 --bound-mode milp --max-iterations 2000 --t-obs 20000 --seed 3"
    portdim_process(tmp_path, f"optimize-bb {argv} --experiment milp6")
    assert read_json(tmp_path / "milp6" / "run_record.json")["peak_rss_mb"] < 150


def test_peak_rss_is_the_command_s_own_after_exec_from_a_large_process(tmp_path):
    # Linux carries ru_maxrss across exec: read alone, the record would show the 300 MB
    portdim_process(tmp_path, "simulate --t-obs 1000 --experiment execd", prelude="held = b'x' * (300 << 20)")
    assert read_json(tmp_path / "execd" / "run_record.json")["peak_rss_mb"] < 150


def test_build_moments_draws_two_million_rows_without_holding_them(tmp_path):
    # the 2e6 x 15 float64 panel alone would be 240 MB
    portdim_process(tmp_path, "build-moments --n-assets 15 --rho -0.05 --t-obs 2000000 --seed 1 --experiment stream")
    assert read_json(tmp_path / "stream" / "run_record.json")["peak_rss_mb"] < 120


@pytest.mark.parametrize(
    "command",
    [
        # Langevin's float32 step sees co-moments rescaled to unit size
        "optimize-gld --n-assets 4 --rho -0.2 --variance 1e-20 --t-obs 20000 --seed 3 --n-sim 50 --n-iter 100",
        "simulate --n-assets 2 --rho 0.1 --kurtosis 3.2 --skewness 0.31 --t-obs 20000 --seed 1",  # near-Gaussian
        "simulate --n-assets 2 --rho 0.2 --kurtosis 3.05 --skewness -0.15 --t-obs 20000 --seed 5",  # lightest tails
        "simulate --n-assets 3 --kurtosis 30 --skewness 3.5 --t-obs 70000 --seed 2",  # heavy, skewed tails
        # the grid corners with the most extreme normal scores and map slopes
        "simulate --kurtosis 3.05 --skewness 0.155 --t-obs 20000",
        "simulate --kurtosis 30 --skewness -3.62 --t-obs 20000",
    ],
)
def test_runs_with_runtime_warnings_as_errors(command, tmp_path):
    portdim_process(tmp_path, command, "-W", "error::RuntimeWarning")


def test_certificate_does_not_depend_on_the_returns_units(tmp_path):
    for v in ("1", "1e-4"):
        portdim(tmp_path, f"optimize-bb --n-assets 3 --rho -0.2 --t-obs 20000 --seed 3 --variance {v} --experiment var{v}")
    unit, small = (read_json(tmp_path / f"var{v}" / "bb_results.json") for v in ("1", "1e-4"))
    # the two panels differ by the factor 0.01, not a power of two, so their co-moments round differently
    assert (small["status"], small["iterations"]) == (unit["status"], unit["iterations"])
    assert abs(small["kurtosis"] - unit["kurtosis"]) <= 1e-12 * unit["kurtosis"]


def test_langevin_on_thirty_assets(tmp_path):
    # the moment kernel on 465 unique index pairs
    portdim(tmp_path, "optimize-gld --n-assets 30 --rho -0.02 --t-obs 20000 --n-sim 50 --n-iter 50 --experiment gld30")
    assert len(read_json(tmp_path / "gld30" / "gld_results.json")["weights"]) == 30


def test_both_solvers_on_a_one_asset_universe(tmp_path):
    portdim(tmp_path, "optimize-bb --n-assets 1 --t-obs 2000 --experiment one")
    assert len(trace_rows(tmp_path / "one" / "bb_trace.csv")) == 2  # the root and terminal rows
    portdim(tmp_path, "optimize-gld --n-assets 1 --t-obs 2000 --n-sim 5 --n-iter 20 --experiment one")


def test_b_and_b_out_of_time_before_its_first_round(tmp_path):
    portdim(tmp_path, "optimize-bb --n-assets 3 --t-obs 2000 --max-seconds 1e-9 --experiment timeout")
    assert read_json(tmp_path / "timeout" / "bb_results.json")["status"] == "time_limit"
    assert len(trace_rows(tmp_path / "timeout" / "bb_trace.csv")) == 2


def test_both_solvers_from_a_config_file_overridden_by_flags(tmp_path):
    margins = [{"mean": 0.0, "variance": 1.0, "skewness": 0.2, "kurtosis": 5.0},
               {"mean": 0.0, "variance": 2.0, "skewness": -0.1, "kurtosis": 7.0}]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "cfg", "output_dir": str(tmp_path), "n_assets": 2, "t_obs": 5000, "seed": 3, "margins": margins,
        "bb": {"rho_tol": 0.01, "bound_mode": "lp1"}, "gld": {"seed": 5, "n_sim": 20, "n_iter": 100},
    }))
    assert hn.main(["optimize-bb", "--config", str(config), *"--bound-mode milp".split()]) == 0
    assert hn.main(["optimize-gld", "--config", str(config), *"--no-polish --noise-scale 0.1 --lam 0.005".split()]) == 0
    bb, gld = (read_json(tmp_path / "cfg" / f"{name}_results.json") for name in ("bb", "gld"))
    assert (bb["seed"], bb["bb"]["rho_tol"], bb["bb"]["bound_mode"], len(bb["weights"])) == (3, 0.01, "milp", 2)
    assert (gld["gld"]["seed"], gld["gld"]["c"], gld["gld"]["lam"], gld["gld"]["polish"]) == (5, 0.1, 0.005, False)


def test_skewed_panel_across_two_sampler_blocks_builds_moments_from_its_csv(tmp_path):
    portdim(tmp_path, "simulate --n-assets 4 --rho -0.2 --skewness 0.5 --t-obs 70000 --seed 3 --experiment skewed")
    returns = tmp_path / "skewed" / "returns.csv"
    portdim(tmp_path, "build-moments --n-assets 4 --experiment skewed", "--returns", str(returns))
    assert read_json(tmp_path / "skewed" / "moments.json")["n_obs"] == 70000


def test_skewed_margins_under_a_heterogeneous_correlation_file(tmp_path):
    corr = tmp_path / "corr.csv"
    corr.write_text("1.0,0.8,-0.2\n0.8,1.0,0.1\n-0.2,0.1,1.0\n")  # three distinct pairs to invert
    argv = "--n-assets 3 --skewness 0.4 --kurtosis 8 --t-obs 20000 --seed 4 --experiment corr"
    portdim(tmp_path, f"simulate {argv}", "--correlation-file", str(corr))
