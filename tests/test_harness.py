"""Experiment runner: config merging, deterministic artifacts, CLI wiring."""

import argparse
import dataclasses
import functools
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

from portdim import bbsolve as bb
from portdim import comoments as cm
from portdim import divmeasure as dv
from portdim import gld
from portdim import harness as hn
from portdim import retsim as rs


def usage_error(argv, capsys) -> str:
    """The one-line message of a ``main`` run that must exit 2 as argparse does."""
    with pytest.raises(SystemExit) as exc:
        hn.main(argv)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()  # one error line, the last
    assert [line.startswith("portdim: error: ") for line in lines] == [False] * (len(lines) - 1) + [True], lines
    return lines[-1].removeprefix("portdim: error: ")


def tiny_cfg(tmp_path, **kw):
    base = dict(
        experiment="t",
        n_assets=3,
        rho=-0.2,
        t_obs=1500,
        seed=7,
        output_dir=str(tmp_path),
        bb=bb.BbConfig(rho_tol=1e-2),
        gld=gld.GldConfig(n_sim=16, n_iter=120, seed=7),
    )
    base.update(kw)
    return hn.ExperimentConfig(**base)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        hn.ExperimentConfig(n_assets=0)
    with pytest.raises(ValueError):
        hn.ExperimentConfig(rho=1.0)
    with pytest.raises(ValueError):
        hn.ExperimentConfig(t_obs=1)
    with pytest.raises(FileNotFoundError):
        hn.ExperimentConfig(returns_file=str(tmp_path / "missing.csv"))
    margin = rs.MarginTarget(mean=0.0, variance=1.0, skewness=0.0, kurtosis=5.0)
    with pytest.raises(ValueError, match="margins"):
        hn.ExperimentConfig(n_assets=3, margins=(margin,))


def test_correlation_construction(tmp_path):
    cfg = tiny_cfg(tmp_path, rho=-0.1)
    corr = cfg.correlation()
    assert np.array_equal(np.diag(corr), np.ones(3))
    assert corr[0, 1] == -0.1
    path = tmp_path / "corr.csv"
    np.savetxt(path, np.eye(3), delimiter=",")
    cfg = tiny_cfg(tmp_path, correlation_file=str(path))
    assert np.array_equal(cfg.correlation(), np.eye(3))
    np.savetxt(path, np.eye(2), delimiter=",")
    with pytest.raises(ValueError, match="shape"):
        tiny_cfg(tmp_path, correlation_file=str(path)).correlation()


def test_config_hash_is_order_insensitive_and_sensitive_to_values(tmp_path):
    cfg = tiny_cfg(tmp_path)
    snap = cfg.snapshot()
    reordered = dict(reversed(list(snap.items())))
    assert hn.config_hash(snap) == hn.config_hash(reordered)
    other = tiny_cfg(tmp_path, seed=8)
    assert hn.config_hash(other.snapshot()) != hn.config_hash(snap)
    assert len(hn.config_hash(snap)) == 12


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((40, 3))
    path = tmp_path / "r.csv"
    hn.write_csv(path, ["x", "y", "z"], values, {"seed": 1})
    sample = hn.read_returns_csv(path)
    assert sample.asset_names == ("x", "y", "z")
    assert np.array_equal(sample.values, values)


def test_moments_round_trip_is_exact(tmp_path):
    sample = cm.ReturnSample(np.random.default_rng(1).standard_normal((300, 3)))
    c = cm.build_comoments(sample)
    path = hn.write_moments(tmp_path / "m.json", c, sample.asset_names, {"seed": 1})
    c2 = hn.read_moments(path)
    assert np.array_equal(c.m2, c2.m2)
    assert np.array_equal(c.m3_unique, c2.m3_unique)
    assert np.array_equal(c.m4_unique, c2.m4_unique)
    assert (c2.n_assets, c2.n_obs) == (3, 300)


def write_malformed_moments(tmp_path, edit):
    """A moments.json written from a valid set and then edited by ``edit(data)``."""
    sample = cm.ReturnSample(np.random.default_rng(1).standard_normal((300, 3)))
    path = hn.write_moments(tmp_path / "m.json", cm.build_comoments(sample), sample.asset_names, {"seed": 1})
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


def test_moments_with_nan_rejected(tmp_path):
    path = write_malformed_moments(tmp_path, lambda d: d["m2"][1].__setitem__(1, float("nan")))
    with pytest.raises(ValueError, match="m2 contains non-finite"):
        hn.read_moments(path)


def test_moments_with_asymmetric_covariance_rejected(tmp_path):
    path = write_malformed_moments(tmp_path, lambda d: d["m2"][0].__setitem__(2, d["m2"][0][2] + 0.1))
    with pytest.raises(ValueError, match="not symmetric"):
        hn.read_moments(path)


def test_moments_with_truncated_m4_rejected(tmp_path):
    path = write_malformed_moments(tmp_path, lambda d: d["m4_unique"].pop())
    with pytest.raises(ValueError, match=r"m4_unique has shape \(14,\), expected \(15,\)"):
        hn.read_moments(path)


def test_moments_with_fractional_count_rejected(tmp_path):
    path = write_malformed_moments(tmp_path, lambda d: d.__setitem__("n_assets", 1.7))
    with pytest.raises(ValueError, match="n_assets must be an integer, got 1.7"):
        hn.read_moments(path)


def test_moments_with_missing_field_rejected(tmp_path):
    path = write_malformed_moments(tmp_path, lambda d: d.pop("m2"))
    with pytest.raises(ValueError, match="m.json: missing field"):
        hn.read_moments(path)


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = tiny_cfg(tmp_path)
    first = hn.cmd_simulate(cfg).read_bytes()
    second = hn.cmd_simulate(cfg).read_bytes()
    assert first == second
    record = json.loads((tmp_path / "t" / "run_record.json").read_text())
    assert record["config_hash"] == hn.config_hash(cfg.snapshot())
    assert record["command"] == "simulate"


def test_simulate_matches_direct_sampler(tmp_path):
    cfg = tiny_cfg(tmp_path)
    path = hn.cmd_simulate(cfg)
    direct = rs.sample_meta_gaussian(hn.build_universe(cfg), cfg.t_obs, seed=cfg.seed)
    assert np.array_equal(hn.read_returns_csv(path).values, direct.values)


def test_config_file_margins_reach_the_sampler(tmp_path, capsys):
    margins = [
        {"mean": 0.0, "variance": 1.0, "skewness": 0.2, "kurtosis": 5.0},
        {"mean": 0.1, "variance": 2.0, "skewness": -0.1, "kurtosis": 7.0},
    ]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_assets": 2, "rho": 0.3, "t_obs": 3000, "seed": 5, "margins": margins}))
    assert hn.main(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 0
    path = Path(capsys.readouterr().out.strip())
    spec = rs.MetaGaussianSpec.from_targets([rs.MarginTarget(**m) for m in margins], [[1.0, 0.3], [0.3, 1.0]])
    assert np.array_equal(hn.read_returns_csv(path).values, rs.sample_meta_gaussian(spec, 3000, seed=5).values)


def test_build_moments_uses_returns_file(tmp_path):
    cfg = tiny_cfg(tmp_path)
    returns_path = hn.cmd_simulate(cfg)
    cfg2 = tiny_cfg(tmp_path, returns_file=str(returns_path))
    moments_path = hn.cmd_build_moments(cfg2)
    c = hn.read_moments(moments_path)
    direct = cm.build_comoments(hn.read_returns_csv(returns_path))
    assert np.array_equal(c.m4_unique, direct.m4_unique)


def test_toy_example_columns_and_closed_forms(tmp_path):
    cfg = tiny_cfg(tmp_path, t_obs=4000)
    path = hn.cmd_toy_example(cfg, [-0.4, 0.3])
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header[:4] == ["rho", "w3_min_kurtosis", "w3_risk_parity", "w3_diversification_ratio"]
    for line, rho in zip(lines[1:], (-0.4, 0.3)):
        cells = line.split(",")
        assert float(cells[0]) == rho
        assert float(cells[2]) == pytest.approx(dv.toy_rp_weight(rho), abs=1e-15)
        assert float(cells[3]) == pytest.approx(dv.toy_dr_weight(rho), abs=1e-15)
        assert cells[5] == "optimal"


def test_optimize_bb_artifacts(tmp_path):
    cfg = tiny_cfg(tmp_path)
    results_path, trace_path = hn.cmd_optimize_bb(cfg)
    results = json.loads(results_path.read_text())
    assert results["status"] == "optimal"
    assert results["version"]
    assert "wall" not in " ".join(results)  # timing lives in run_record only
    w = np.array(results["weights"])
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    trace = [l for l in trace_path.read_text().splitlines() if not l.startswith("#")]
    assert trace[0] == "iteration,lb,ub,fraction_deleted,kurtosis_lb,kurtosis_ub"
    assert len(trace) - 1 == results["iterations"] + 2
    last = trace[-1].split(",")
    assert float(last[3]) == 1.0
    assert float(last[4]) == pytest.approx(1.0 / float(last[2]), rel=1e-12)
    # rerun: identical numeric artifacts
    again, trace_again = hn.cmd_optimize_bb(cfg)
    assert again.read_bytes() == results_path.read_bytes()
    assert trace_again.read_bytes() == trace_path.read_bytes()


def test_optimize_bb_reports_solver_counters(tmp_path):
    cfg = tiny_cfg(tmp_path)
    results_path, _ = hn.cmd_optimize_bb(cfg)
    results = json.loads(results_path.read_text())
    record = json.loads((tmp_path / "t" / "run_record.json").read_text())
    counters = record["counters"]
    assert set(counters) == {"lp_pivots", "rounds", "max_depth", "live_cells_per_round"}
    assert (counters["lp_pivots"], counters["rounds"]) == (results["lp_pivots"], results["rounds"])
    assert results["lp_pivots"] > 0
    assert 1 <= results["rounds"] <= results["iterations"]
    # the telemetry stays out of the results JSON, which reruns must reproduce byte for byte
    assert not {"max_depth", "live_cells_per_round"} & set(results)
    live = counters["live_cells_per_round"]
    assert len(live) == results["rounds"] and live[0] == 1 and min(live) >= 1
    # each round bisects the best live cells, up to a frontier's worth
    width = bb._round_cells(cfg.n_assets, cfg.bb.bound_mode, cfg.bb.n_c)
    assert sum(min(n, width) for n in live) == results["iterations"]
    assert 1 <= counters["max_depth"] <= results["iterations"]


def test_optimize_bb_logs_one_debug_line_per_round(tmp_path, caplog):
    cfg = tiny_cfg(tmp_path)
    quiet, trace_path = hn.cmd_optimize_bb(cfg)
    expected = quiet.read_bytes()
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="portdim.bbsolve"):
        logged, _ = hn.cmd_optimize_bb(cfg)
    assert logged.read_bytes() == expected
    results = json.loads(expected)
    lines = [r.getMessage() for r in caplog.records if r.name == "portdim.bbsolve"]
    assert len(lines) == results["rounds"] > 1
    assert [line.split(":")[0] for line in lines] == [f"round {r}" for r in range(1, results["rounds"] + 1)]
    # the last round leaves no live cell, has done every iteration, and its
    # bounds are the trace's last rows
    assert lines[-1].split(": ")[1].split(", ")[1:3] == ["0 live", f"{results['iterations']} iterations"]
    low, high = (float(x) for x in lines[-1].split("kurtosis in [")[1].rstrip("]").split(", "))
    last = [line for line in trace_path.read_text().splitlines() if not line.startswith("#")][-1].split(",")
    assert (low, high) == (pytest.approx(float(last[4]), rel=1e-8), pytest.approx(results["kurtosis"], rel=1e-8))


def test_optimize_gld_rejects_record_paths_before_sampling(tmp_path, monkeypatch):
    def no_sampling(cfg):
        raise AssertionError("sampled before checking --record-paths")

    monkeypatch.setattr(hn, "load_or_simulate", no_sampling)
    cfg = tiny_cfg(tmp_path, gld=gld.GldConfig(n_sim=4, n_iter=5, seed=7))
    with pytest.raises(ValueError, match=r"record_paths \[7\] outside the path range \[0, 4\)"):
        hn.cmd_optimize_gld(cfg, record_paths=(0, 7))


def test_optimize_gld_artifacts(tmp_path):
    cfg = tiny_cfg(tmp_path)
    results_path, hist_path = hn.cmd_optimize_gld(cfg, record_paths=(0, 5))
    results = json.loads(results_path.read_text())
    assert results["support_size"] == len(results["support"])
    assert results["kurtosis"] <= results["pre_polish_kurtosis"] + 1e-15
    hist = np.loadtxt(hist_path, delimiter=",", skiprows=4)
    counts_per_asset = {int(a): 0 for a in hist[:, 0]}
    for row in hist:
        counts_per_asset[int(row[0])] += int(row[3])
    assert all(v == cfg.gld.n_sim for v in counts_per_asset.values())
    paths_file = np.loadtxt(tmp_path / "t" / "gld_paths.csv", delimiter=",", skiprows=4)
    assert set(paths_file[:, 0].astype(int)) == {0, 5}
    assert paths_file.shape[0] == 2 * (cfg.gld.n_iter + 1)


def test_optimize_gld_reports_langevin_counters(tmp_path):
    cfg = tiny_cfg(tmp_path)
    results_path, _ = hn.cmd_optimize_gld(cfg)
    results = json.loads(results_path.read_text())
    counters = json.loads((tmp_path / "t" / "run_record.json").read_text())["counters"]
    assert set(counters) == {"best_so_far", "support_size", "precision"}
    # the best-so-far curve: one value per iterate, nonincreasing, ending at
    # the Langevin winner's single-precision value
    curve = np.array(counters["best_so_far"])
    assert curve.shape == (cfg.gld.n_iter + 1,)
    assert np.all(np.diff(curve) <= 0.0)
    assert curve[-1] == pytest.approx(results["pre_polish_kurtosis"], rel=1e-5)
    assert counters["support_size"] == results["support_size"] == len(results["support"])
    assert counters["precision"] == "float32"
    # the telemetry stays out of the results JSON, which reruns must reproduce byte for byte
    assert not {"best_so_far", "precision"} & set(results)
    again, _ = hn.cmd_optimize_gld(cfg)
    assert again.read_bytes() == results_path.read_bytes()


def test_optimize_gld_logs_one_debug_line_per_noise_chunk(tmp_path, caplog, monkeypatch):
    cfg = tiny_cfg(tmp_path)
    monkeypatch.setattr(gld, "_NOISE_BUFFER_BYTES", 50 * cfg.gld.n_sim * cfg.n_assets * 4)  # chunks of 50, 50, 20
    quiet, _ = hn.cmd_optimize_gld(cfg)
    expected = quiet.read_bytes()
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="portdim.gld"):
        logged, _ = hn.cmd_optimize_gld(cfg)
    lines = [r.getMessage() for r in caplog.records if r.name == "portdim.gld"]
    assert [line.split(":")[0] for line in lines] == [f"{i} of 120 iterations" for i in (50, 100, 120)]
    curve = json.loads((tmp_path / "t" / "run_record.json").read_text())["counters"]["best_so_far"]
    best = float(lines[-1].split("best kurtosis ")[1].split(",")[0])
    assert best == pytest.approx(curve[-1], rel=1e-8)
    assert int(lines[-1].rsplit(" ", 1)[1]) in range(1, cfg.n_assets + 1)
    assert logged.read_bytes() == expected


def test_optimize_gld_runs_at_a_tiny_noise_scale(tmp_path):
    # sigma = c / n has no c**2 to underflow
    argv = "optimize-gld --n-assets 3 --noise-scale 1e-200 --t-obs 20000 --n-sim 20 --n-iter 50".split()
    assert hn.main([*argv, "--output-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "adhoc" / "gld_results.json").read_text())["gld"]["c"] == 1e-200


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flag,value", [("--lam", "1e300"), ("--noise-scale", "1e200")])
def test_langevin_step_that_leaves_the_finite_range_exits_2(flag, value, tmp_path, capsys):
    # the first step overflows to inf, or lands at a size of about 1e199 that the projection rejects
    reason = {"--lam": "projection input contains non-finite entries", "--noise-scale": "projection input of size "}
    argv = ["optimize-gld", flag, value, "--t-obs", "1500", "--n-sim", "4", "--n-iter", "5"]
    message = usage_error([*argv, "--output-dir", str(tmp_path)], capsys)
    assert message.startswith(f"--lam/--noise-scale: Langevin step 1 leaves the finite range: {reason[flag]}")


def test_dimensionality_command(tmp_path, margin_k6):
    cfg = tiny_cfg(tmp_path)
    moments_path = hn.cmd_build_moments(cfg)
    ref = dv.ReferenceAsset.from_target(margin_k6, dv.NuMeasure.EXCESS_KURTOSIS)
    out = hn.cmd_dimensionality(
        cfg,
        np.full(3, 1.0 / 3.0),
        ref,
        dv.NuMeasure.EXCESS_KURTOSIS,
        moments_file=str(moments_path),
    )
    payload = json.loads(out.read_text())
    assert payload["nu_reference"] == 3.0
    assert payload["dimensionality"] > 1.0
    assert payload["diversification"] == payload["dimensionality"]
    assert payload["reference_curve"]["k"][0] == 1
    assert payload["reference_curve"]["nu"][0] == 3.0
    assert not payload["near_gaussian"]


def test_bench_rows_match_direct_solves(capsys):
    assert hn.main(["bench", "--t-obs", "20000", "--rho-tol", "1e-2"]) == 0
    table = json.loads(capsys.readouterr().out)
    cfg = hn.ExperimentConfig(t_obs=20000, bb=bb.BbConfig(rho_tol=1e-2))
    c = cm.build_comoments(hn.load_or_simulate(cfg))
    assert (table["n_assets"], table["n_obs"]) == (3, 20000)
    assert table["moments_seconds"] > 0.0 and "panel_seconds" not in table
    modes = [(row["bound_mode"], row["n_c"]) for row in table["rows"]]
    assert modes == [("lp1", 1), ("lp2", 1), ("lp2", 2), ("lp2", 3), ("lp2", 4), ("milp", 1)]
    for row in table["rows"]:
        direct = bb.solve(c, dataclasses.replace(cfg.bb, bound_mode=row["bound_mode"], n_c=row["n_c"]))
        fields = ("iterations", "rounds", "lp_pivots", "kurtosis", "status")
        assert [row[f] for f in fields] == [getattr(direct, f) for f in fields]
        assert row["seconds"] > 0.0
    assert {row["status"] for row in table["rows"]} == {"optimal"}


def test_bench_leaves_out_milp_above_the_envelope_cap(tmp_path):
    cfg = tiny_cfg(tmp_path, n_assets=7, rho=-0.1, t_obs=500, bb=bb.BbConfig(max_iterations=3))
    table = hn.cmd_bench(cfg)
    assert [row["bound_mode"] for row in table["rows"]] == ["lp1", "lp2", "lp2", "lp2", "lp2"]
    assert {row["status"] for row in table["rows"]} == {"iteration_limit"}


def test_optimize_bb_rejects_milp_above_six_assets_before_sampling(tmp_path, capsys, monkeypatch):
    message = "--bound-mode milp bounds at most 6 assets, got 7"
    assert "milp" in bb.bound_modes(6) and "milp" not in bb.bound_modes(7)
    argv = ["optimize-bb", "--bound-mode", "milp", "--output-dir", str(tmp_path)]
    # a returns file is checked once it is read, before its co-moments are built
    returns = tmp_path / "r7.csv"
    np.savetxt(returns, np.random.default_rng(0).standard_normal((500, 7)), delimiter=",",
               header=",".join(f"a{i}" for i in range(7)), comments="")

    def no_moments(cfg, sample):
        raise AssertionError("built co-moments before checking --bound-mode")

    monkeypatch.setattr(hn, "_comoments", no_moments)
    assert usage_error([*argv, "--returns", str(returns)], capsys) == message

    def no_sampling(cfg):
        raise AssertionError("sampled before checking --bound-mode")

    monkeypatch.setattr(hn, "load_or_simulate", no_sampling)
    assert usage_error([*argv, "--n-assets", "7", "--rho", "0.1", "--t-obs", "2000"], capsys) == message


def test_cli_merging_flags_beat_config(tmp_path):
    doc = {
        "experiment": "merged",
        "n_assets": 2,
        "rho": -0.1,
        "t_obs": 900,
        "seed": 11,
        "output_dir": str(tmp_path),
        "bb": {"bound_mode": "lp1", "rho_tol": 0.02},
        "gld": {"seed": 5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    rc = hn.main(
        ["optimize-bb", "--config", str(cfg_path), "--rho", "-0.3", "--bound-mode", "lp2"]
    )
    assert rc == 0
    record = json.loads((tmp_path / "merged" / "run_record.json").read_text())
    assert record["config"]["rho"] == -0.3  # flag wins
    assert record["config"]["n_assets"] == 2  # config wins over default
    assert record["config"]["bb"]["bound_mode"] == "lp2"
    assert record["config"]["bb"]["rho_tol"] == 0.02
    # inside the file, gld.seed beats the top-level seed
    assert (record["config"]["seed"], record["config"]["gld"]["seed"]) == (11, 5)
    results = json.loads((tmp_path / "merged" / "bb_results.json").read_text())
    assert results["status"] == "optimal"
    # a --seed flag beats both
    rc = hn.main(["simulate", "--config", str(cfg_path), "--seed", "9", "--experiment", "reseeded"])
    assert rc == 0
    record = json.loads((tmp_path / "reseeded" / "run_record.json").read_text())
    assert (record["config"]["seed"], record["config"]["gld"]["seed"]) == (9, 9)


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_asset": 5, "t_ob": 3000, "seed": 1}))
    message = usage_error(["simulate", "--config", str(cfg_path), "--output-dir", str(tmp_path)], capsys)
    assert re.fullmatch("unknown keys.*n_asset, t_ob", message)
    # the solver blocks' keys are checked against their dataclasses' fields
    cfg_path.write_text(json.dumps({"bb": {"rho_tolerance": 0.01}}))
    message = usage_error(["optimize-bb", "--config", str(cfg_path), "--output-dir", str(tmp_path)], capsys)
    assert message == f"unknown keys in config file {cfg_path}: bb.rho_tolerance"


@pytest.mark.parametrize(
    "doc, part",
    [
        (3, "the top level must be an object, got 3"),
        ([{"seed": 1}], "the top level must be an object, got [{'seed': 1}]"),
        ({"bb": 3}, "bb must be an object, got 3"),
        ({"gld": [5]}, "gld must be an object, got [5]"),
        ({"margins": 3}, "margins must be a list, got 3"),
        ({"n_assets": 2, "margins": [{"kurtosis": 5.0}, 3]}, "margins[1] must be an object, got 3"),
        # wrong-typed values, named by their key
        ({"experiment": 5}, "experiment must be a string, got 5"),
        ({"rho": "x"}, "rho must be a number, got 'x'"),
        ({"kurtosis": True}, "kurtosis must be a number, got True"),
        ({"gld": {"lam": "x"}}, "gld.lam must be a number, got 'x'"),
        ({"gld": {"polish": "no"}}, "gld.polish must be true or false, got 'no'"),
        ({"bb": {"rho_tol": [0.1]}}, "bb.rho_tol must be a number, got [0.1]"),
        ({"margins": [{"kurtosis": "x"}, {}]}, "margins[0].mean must be a number, got None"),
        ({"margins": [{"mean": 0, "variance": 1, "skewness": 0, "kurtosis": "x"}]},
         "margins[0].kurtosis must be a number, got 'x'"),
        ({"margins": [{"mean": 0, "variance": 1, "skewness": None}]}, "margins[0].skewness must be a number, got None"),
        # an integer beyond the float range would overflow in the margin checks
        pytest.param({"mean": 10**400}, f"mean must be a number, got {10**400}", id="integer-beyond-float-range"),
    ],
)
def test_config_file_shape_errors_name_the_file_and_part(doc, part, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    argv = ["optimize-bb", "--config", str(cfg_path), "--output-dir", str(tmp_path)]
    assert usage_error(argv, capsys) == f"config file {cfg_path}: {part}"


@pytest.mark.parametrize("name", ["n_c", "max_iterations", "n_assets", "t_obs"])
def test_counts_must_be_integers(name, tmp_path, capsys):
    solver = name in ("n_c", "max_iterations")
    make = bb.BbConfig if solver else hn.ExperimentConfig
    for bad in (2.0, 10.5, True):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d, got {bad!r}$"):
            make(**{name: bad})
    assert getattr(make(**{name: np.int64(3)}), name) == 3
    # the same message from a config file, before any work starts
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bb": {name: 2.5}} if solver else {name: 2.5}))
    message = usage_error(["optimize-bb", "--config", str(cfg_path), "--output-dir", str(tmp_path)], capsys)
    assert re.fullmatch(rf"{name} must be an integer >= \d, got 2.5", message)


def test_bad_input_files_exit_2_and_other_errors_raise(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing.json"
    assert usage_error(["optimize-bb", "--config", str(missing)], capsys).startswith("[Errno 2] No such file")
    assert "returns_file does not exist" in usage_error(["optimize-bb", "--returns", str(missing)], capsys)
    bad_csv = tmp_path / "corr.csv"
    bad_csv.write_text("1.0,0.5\n0.5,1.0\n")
    argv = ["simulate", "--n-assets", "3", "--correlation-file", str(bad_csv), "--output-dir", str(tmp_path)]
    assert usage_error(argv, capsys) == f"{bad_csv}: correlation file has shape (2, 2), expected (3, 3)"
    moments = write_malformed_moments(tmp_path, lambda d: d.pop("m2"))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"weights": [0.5, 0.3, 0.2]}))
    argv = ["dimensionality", "--weights-file", str(weights), "--moments", str(moments), "--output-dir", str(tmp_path)]
    assert usage_error(argv, capsys) == f"{moments}: missing field(s) m2"
    weights.write_text(json.dumps({"weights": [0.5, float("nan"), 0.5]}))
    assert usage_error(argv, capsys) == f"{weights}: weights contain non-finite entries"
    # an error that no input explains is a bug, and keeps its traceback
    def broken(cfg):
        raise ValueError("not an input error")

    monkeypatch.setattr(hn, "cmd_optimize_bb", broken)
    with pytest.raises(ValueError, match="not an input error"):
        hn.main(["optimize-bb", "--output-dir", str(tmp_path)])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--n-assets", "5", "--rho", "-0.5"],
         "homogeneous rho -0.5 must exceed -1/(N-1) = -0.25 for N = 5"),
        (["simulate", "--kurtosis", "2"], "universe: NIG kurtosis strictly exceeds 3, got 2.0"),
        (["simulate", "--skewness", "3"], "universe: skewness-kurtosis bound violated: skewness^2 = 9.0"),
        (["simulate", "--variance", "-1"], "universe: variance must be positive, got -1.0"),
        (["toy-example", "--kurtosis", "2"], "toy universe at rho -0.7: NIG kurtosis strictly exceeds 3"),
        (["toy-example", "--rho-grid=0.5,1.5"], "toy universe at rho 1.5: target correlation matrix is not positive"),
        (["dimensionality", "--ref-kurtosis", "2"], "reference asset: NIG kurtosis strictly exceeds 3, got 2.0"),
        (["optimize-gld", "--n-sim", "4", "--record-paths", "7"], "--record-paths: record_paths [7] outside"),
        (["simulate", "--t-obs", str(10**20)], f"--t-obs {10**20}: a {10**20} x 3 panel is too large for one array"),
        (["optimize-bb", "--n-assets", "5", "--t-obs", str(10**20)], f"--t-obs {10**20}: a {10**20} x 5 panel"),
        (["toy-example", "--t-obs", str(10**20)], f"--t-obs {10**20}: a {10**20} x 3 panel"),
        (["simulate", "--variance", "inf"], "universe: variance must be finite, got inf"),
        (["simulate", "--kurtosis", "inf"], "universe: kurtosis must be finite, got inf"),
        (["optimize-gld", "--lam", "inf"], "step size lam must be positive and finite, got inf"),
        (["optimize-gld", "--noise-scale", "inf"], "temperature scale c must be positive and finite, got inf"),
        (["toy-example", "--rho-grid="], "--rho-grid holds no correlation"),
    ],
)
def test_rejected_universes_and_flags_exit_2_before_sampling(argv, message, tmp_path, capsys, monkeypatch):
    def no_sampling(spec, t_obs, seed):
        raise AssertionError("sampled before the universe and flags were checked")

    monkeypatch.setattr(hn, "sample_pieces", no_sampling)
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"weights": [0.5, 0.3, 0.2]}))
    if argv[0] == "dimensionality":
        argv = [*argv, "--weights-file", str(weights)]
    assert usage_error([*argv, "--output-dir", str(tmp_path)], capsys).startswith(message)


@pytest.mark.parametrize("rho", ["0.99582", "-0.99582"])
def test_correlation_beyond_the_input_correlation_limit_exits_2_naming_it(rho, tmp_path, capsys):
    # kurtosis-6 margins reach +-0.995817 at the limit |rho_in| <= 0.996
    argv = ["simulate", "--n-assets", "2", f"--rho={rho}", "--output-dir", str(tmp_path)]
    assert usage_error(argv, capsys) == (
        f"universe: target correlation {rho} is outside the attainable range [-0.995817, 0.995817] "
        "for these margins, the image of the input correlation limit |rho_in| <= 0.996"
    )


def test_t_obs_limit_is_the_largest_panel_numpy_can_index(tmp_path, capsys, monkeypatch):
    largest = np.iinfo(np.intp).max // (8 * 3)
    with pytest.raises(ValueError):
        np.empty((largest + 1, 3))  # the limit is numpy's; nothing is allocated

    def sampled(spec, t_obs, seed):
        raise ValueError(f"sampling {t_obs} rows")

    monkeypatch.setattr(hn, "sample_pieces", sampled)
    # the largest panel passes the check, and an error inside sampling keeps its traceback
    with pytest.raises(ValueError, match=f"sampling {largest} rows"):
        hn.main(["simulate", "--t-obs", str(largest), "--output-dir", str(tmp_path)])
    argv = ["simulate", "--t-obs", str(largest + 1), "--output-dir", str(tmp_path)]
    assert usage_error(argv, capsys).startswith(f"--t-obs {largest + 1}: a ")


def copied_column_panel(path, noise: float) -> Path:
    """500 rows of three assets whose third column is the first plus ``noise`` x a standard normal."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((500, 3))
    x[:, 2] = x[:, 0] + noise * rng.standard_normal(500)
    return hn.write_csv(path, ["a", "b", "c"], x, {})


@pytest.mark.parametrize("command", ["build-moments", "optimize-bb", "optimize-gld", "dimensionality", "bench"])
def test_duplicated_column_exits_2_naming_the_returns_file(command, tmp_path, capsys):
    returns = copied_column_panel(tmp_path / "dup.csv", noise=0.0)
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"weights": [0.5, 0.3, 0.2]}))
    argv = [command, "--returns", str(returns)]
    argv += ["--weights-file", str(weights)] if command == "dimensionality" else []
    argv += [] if command == "bench" else ["--output-dir", str(tmp_path)]
    message = usage_error(argv, capsys)
    assert re.fullmatch(
        rf"{re.escape(str(returns))}: covariance is not positive definite: smallest eigenvalue \S+ <= 1e-10 x largest \S+",
        message,
    ), message


def hedged_panel(path, noise: float) -> Path:
    """20,000 rows of t(6) assets a and b and the hedge c = -(a + b) + ``noise`` x a standard normal."""
    rng = np.random.default_rng(0)
    ab = rng.standard_t(6, (20_000, 2))
    hedge = -ab.sum(axis=1) + noise * rng.standard_normal(20_000)
    return hn.write_csv(path, ["a", "b", "c"], np.column_stack([ab, hedge]), {})


@pytest.mark.parametrize("command", ["optimize-bb", "bench", "toy-example"])
def test_universe_without_a_positive_alpha_floor_exits_2_naming_the_panel(command, tmp_path, capsys, monkeypatch):
    # covariance eigenvalue ratio 7.4e-10, above the singular limit, but no
    # positive fourth-moment floor: the B&B cannot bound its cells
    returns = hedged_panel(tmp_path / "hedged.csv", noise=1e-4)
    argv = [command] if command == "bench" else [command, "--output-dir", str(tmp_path)]
    if command == "toy-example":  # every toy panel is the hedged one
        monkeypatch.setattr(hn, "_simulate", lambda cfg, spec: hn.read_returns_csv(returns))
        argv += ["--rho-grid=0.1"]
        source = "toy panel at rho 0.1"
    else:
        argv += ["--returns", str(returns)]
        source = str(returns)
    message = usage_error(argv, capsys)
    assert message == f"{source}: co-moments have no positive fourth-moment floor in double precision"


def test_nearly_riskless_hedged_panel_is_certified_end_to_end(tmp_path):
    # ROADMAP item 12: this `optimal` is a certificate 230 times finer than its
    # own rounding, so a precision guard on the status would change it
    returns = hedged_panel(tmp_path / "hedged1e-3.csv", noise=1e-3)
    assert hn.main(["optimize-bb", "--returns", str(returns), "--output-dir", str(tmp_path), "--experiment", "h"]) == 0
    assert json.loads((tmp_path / "h" / "bb_results.json").read_text())["status"] == "optimal"


def test_copied_column_with_noise_above_the_limit_is_accepted(tmp_path, capsys):
    returns = copied_column_panel(tmp_path / "noisy.csv", noise=1e-3)
    assert hn.main(["build-moments", "--returns", str(returns), "--output-dir", str(tmp_path)]) == 0
    eigvals = np.linalg.eigvalsh(hn.read_moments(capsys.readouterr().out.strip()).m2)
    assert 1e-10 < eigvals[0] / eigvals[-1] < 1e-5  # near-duplicate, but above the limit


@pytest.mark.parametrize(
    "argv, source",
    [(["optimize-bb", "--t-obs", "3"], "simulated returns"), (["toy-example", "--t-obs", "3"], "toy panel at rho -0.7")],
)
def test_simulated_panel_with_no_more_rows_than_assets_exits_2(argv, source, tmp_path, capsys):
    message = usage_error([*argv, "--output-dir", str(tmp_path)], capsys)
    assert message.startswith(f"{source}: covariance is not positive definite")


@pytest.mark.parametrize("weights", [{"a": 1}, [0.5, 0.3, {"x": 1}], [True, False, False], [0.5, None, 0.5], "abc"])
def test_weights_file_holds_numbers_only(weights, tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"weights": weights}))
    argv = ["dimensionality", "--weights-file", str(path), "--output-dir", str(tmp_path)]
    assert usage_error(argv, capsys) == f"{path}: weights must be an array of numbers"


@pytest.mark.parametrize(
    "name, value", [("m2", {"a": 1}), ("mean", [True, False, True]), ("m3_unique", "x"), ("m4_unique", None)]
)
def test_moments_file_holds_numbers_only(name, value, tmp_path, capsys):
    moments = write_malformed_moments(tmp_path, lambda d: d.__setitem__(name, value))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"weights": [0.5, 0.3, 0.2]}))
    argv = ["dimensionality", "--weights-file", str(weights), "--moments", str(moments), "--output-dir", str(tmp_path)]
    assert usage_error(argv, capsys) == f"{moments}: {name} must be an array of numbers"


def test_weights_file_of_the_wrong_length_exits_2(tmp_path, capsys):
    moments = hn.cmd_build_moments(tiny_cfg(tmp_path))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"weights": [0.5, 0.5]}))
    argv = ["dimensionality", "--weights-file", str(weights), "--moments", str(moments), "--output-dir", str(tmp_path)]
    assert usage_error(argv, capsys) == "--weights-file holds 2 weights for 3 assets"


#: any JSON value: null, a bool, a number, a string, or a list or object of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def config_block(cls):
    """An object with some of the fields of ``cls``, or an unknown key, set to any JSON value."""
    names = [f.name for f in dataclasses.fields(cls)] + ["unknown"]
    return st.dictionaries(st.sampled_from(names), JSON_VALUES, max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    doc=st.dictionaries(st.sampled_from([*sorted(hn._FIELDS), "unknown"]), JSON_VALUES, max_size=5) | JSON_VALUES,
    blocks=st.fixed_dictionaries(
        {},
        optional={
            "bb": config_block(bb.BbConfig) | JSON_VALUES,
            "gld": config_block(gld.GldConfig) | JSON_VALUES,
            "margins": st.lists(config_block(rs.MarginTarget) | JSON_VALUES, max_size=3) | JSON_VALUES,
        },
    ),
)
def test_malformed_config_documents_build_or_exit_2(doc, blocks, tmp_path_factory):
    if isinstance(doc, dict):
        doc = {**doc, **blocks}
    path = tmp_path_factory.getbasetemp() / "cfg.json"
    path.write_text(json.dumps(doc))
    args = hn._parser().parse_args(["optimize-gld", "--config", str(path)])
    try:
        cfg = hn._build_config(args)
    except (OSError, ValueError):  # main reports these as a usage error, exit 2
        return
    assert isinstance(cfg.bb, bb.BbConfig) and isinstance(cfg.gld, gld.GldConfig)
    json.dumps(cfg.snapshot())  # every command hashes its config first


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES | st.lists(st.sampled_from([0, 0.5, 1]) | JSON_VALUES, min_size=1, max_size=3))
def test_any_weights_value_reads_or_exits_2(value, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "w.json"
    path.write_text(json.dumps({"weights": value}))
    try:
        weights = hn._read_weights(str(path))
    except hn.InputError:  # main reports it with exit 2
        return
    assert weights.dtype == float and weights.ndim == 1 and np.all(np.isfinite(weights))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from([f.name for f in dataclasses.fields(cm.CoMomentSet)]), value=JSON_VALUES)
def test_any_value_of_one_moments_field_reads_or_exits_2(name, value, tmp_path_factory):
    sample = cm.ReturnSample(np.random.default_rng(2).standard_normal((200, 2)))
    path = hn.write_moments(tmp_path_factory.getbasetemp() / "m.json", cm.build_comoments(sample), ("a", "b"), {})
    data = json.loads(path.read_text())
    data[name] = value
    path.write_text(json.dumps(data))
    try:
        c = hn.read_moments(path)
    except hn.InputError:  # main reports it with exit 2
        return
    assert c.n_assets == 2


# the config flags of each command, by group
COMMON = {"--seed", "--mean", "--variance", "--skewness", "--kurtosis", "--t-obs"}
OUTPUT = {"--experiment", "--output-dir"}
UNIVERSE = {"--n-assets", "--rho", "--correlation-file"}
STOP_FLAGS = {"--rho-tol", "--max-iterations", "--max-seconds"}
BB_FLAGS = STOP_FLAGS | {"--bound-mode", "--n-c"}
GLD_FLAGS = {"--lam", "--noise-scale", "--n-sim", "--n-iter", "--no-polish"}
CONFIG_FLAGS = {
    "simulate": COMMON | OUTPUT | UNIVERSE,
    "build-moments": COMMON | OUTPUT | UNIVERSE | {"--returns"},
    "toy-example": COMMON | OUTPUT | BB_FLAGS,
    "optimize-bb": COMMON | OUTPUT | UNIVERSE | {"--returns"} | BB_FLAGS,
    "optimize-gld": COMMON | OUTPUT | UNIVERSE | {"--returns"} | GLD_FLAGS,
    "dimensionality": COMMON | OUTPUT | UNIVERSE | {"--returns"},
    "bench": COMMON | UNIVERSE | {"--returns"} | STOP_FLAGS,
}
OTHER_FLAGS = {
    "--help", "--config", "--rho-grid", "--record-paths", "--weights-file", "--moments", "--measure",
    "--ref-kurtosis", "--ref-skewness",
}


def flag_table(tmp_path):
    """Flag -> (its argument, the field it sets, the value reached), none the default."""
    existing = tmp_path / "exists.csv"
    existing.write_text("")
    return {
        "--seed": ("9", "seed", 9),
        "--mean": ("0.5", "mean", 0.5),
        "--variance": ("2", "variance", 2.0),
        "--skewness": ("0.3", "skewness", 0.3),
        "--kurtosis": ("7", "kurtosis", 7.0),
        "--t-obs": ("500", "t_obs", 500),
        "--experiment": ("e1", "experiment", "e1"),
        "--output-dir": ("out", "output_dir", "out"),
        "--n-assets": ("5", "n_assets", 5),
        "--rho": ("0.3", "rho", 0.3),
        "--correlation-file": (str(existing), "correlation_file", str(existing)),
        "--returns": (str(existing), "returns_file", str(existing)),
        "--rho-tol": ("0.02", "bb.rho_tol", 0.02),
        "--bound-mode": ("milp", "bb.bound_mode", "milp"),
        "--n-c": ("3", "bb.n_c", 3),
        "--max-iterations": ("77", "bb.max_iterations", 77),
        "--max-seconds": ("5", "bb.max_seconds", 5.0),
        "--lam": ("0.005", "gld.lam", 0.005),
        "--noise-scale": ("0.1", "gld.c", 0.1),
        "--n-sim": ("8", "gld.n_sim", 8),
        "--n-iter": ("9", "gld.n_iter", 9),
        "--no-polish": (None, "gld.polish", False),
    }


def config_field(cfg, path):
    return functools.reduce(getattr, path.split("."), cfg)


@pytest.mark.parametrize("command", sorted(CONFIG_FLAGS))
def test_each_flag_reaches_its_field(command, tmp_path):
    parser = hn._parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
    offered = {flag for action in sub._actions for flag in action.option_strings if flag.startswith("--")}
    assert offered - OTHER_FLAGS == CONFIG_FLAGS[command]
    table = flag_table(tmp_path)
    assert set(table) == set().union(*CONFIG_FLAGS.values())
    required = ["--weights-file", "w.json"] if command == "dimensionality" else []
    for flag, (arg, path, value) in table.items():
        argv = [command, *required, flag, *([arg] if arg is not None else [])]
        if flag not in CONFIG_FLAGS[command]:  # a flag the command would ignore is rejected
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2
            continue
        cfg = hn._build_config(parser.parse_args(argv))
        assert config_field(cfg, path) == value != config_field(hn.ExperimentConfig(), path)
        if flag == "--seed":
            assert cfg.gld.seed == 9


def test_config_file_null_means_default(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    doc = {"n_assets": None, "seed": None, "margins": None, "bb": None, "t_obs": 500, "gld": {"n_sim": 4}}
    cfg_path.write_text(json.dumps(doc))
    cfg = hn._build_config(hn._parser().parse_args(["optimize-gld", "--config", str(cfg_path)]))
    default = hn.ExperimentConfig()
    assert (cfg.n_assets, cfg.seed, cfg.margins, cfg.bb) == (default.n_assets, 0, None, default.bb)
    assert (cfg.t_obs, cfg.gld.n_sim, cfg.gld.seed) == (500, 4, 0)
    # a null inside a solver block means that field's default too
    doc = {"seed": 7, "bb": {"max_seconds": None, "rho_tol": 0.01}, "gld": {"seed": None, "n_sim": None}}
    cfg_path.write_text(json.dumps(doc))
    cfg = hn._build_config(hn._parser().parse_args(["optimize-gld", "--config", str(cfg_path)]))
    assert cfg.bb == dataclasses.replace(default.bb, rho_tol=0.01)
    assert (cfg.gld.seed, cfg.gld.n_sim) == (7, default.gld.n_sim)


def test_cli_simulate_and_version(tmp_path, capsys):
    rc = hn.main(
        [
            "simulate",
            "--experiment", "cli",
            "--output-dir", str(tmp_path),
            "--n-assets", "2",
            "--rho", "0.1",
            "--t-obs", "600",
            "--seed", "1",
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("returns.csv")
    assert hn.read_returns_csv(printed).values.shape == (600, 2)
    with pytest.raises(SystemExit) as exc:
        hn.main(["--version"])
    assert exc.value.code == 0


def test_cli_toy_example_negative_rho_grid(tmp_path, capsys):
    # a grid starting with '-' must be joined with '=', or argparse reads it as a flag
    rc = hn.main(
        [
            "toy-example",
            "--experiment", "toy",
            "--output-dir", str(tmp_path),
            "--t-obs", "20000",
            "--rho-tol", "1e-2",
            "--rho-grid=-0.5,0.99",
        ]
    )
    assert rc == 0
    path = capsys.readouterr().out.strip()
    rows = [l.split(",") for l in open(path).read().splitlines() if not l.startswith("#")][1:]
    assert [float(r[0]) for r in rows] == [-0.5, 0.99]
    assert all(r[5] == "optimal" for r in rows)


def test_list_flags_parse_to_tuples():
    parser = hn._parser()
    assert parser.parse_args(["toy-example"]).rho_grid == (-0.7, -0.5, -0.3, 0.0, 0.5, 0.95, 0.99)
    assert parser.parse_args(["optimize-gld"]).record_paths == ()
    assert parser.parse_args(["optimize-gld", "--record-paths", "0, 2,"]).record_paths == (0, 2)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["toy-example", "--rho-grid=-0.5,abc"], "argument --rho-grid: invalid comma-separated float value: '-0.5,abc'"),
        (["optimize-gld", "--record-paths", "0,x"], "argument --record-paths: invalid comma-separated int value: '0,x'"),
    ],
)
def test_malformed_list_flag_exits_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        hn.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_dimensionality_under_both_measures_at_default_margins(tmp_path, capsys):
    assert hn.main(["build-moments", *"--n-assets 3 --t-obs 20000 --seed 3".split(), "--output-dir", str(tmp_path)]) == 0
    moments_path = capsys.readouterr().out.strip()
    weights_path = tmp_path / "w.json"
    weights_path.write_text(json.dumps({"weights": [0.5, 0.3, 0.2]}))
    argv = ["dimensionality", "--weights-file", str(weights_path), "--moments", str(moments_path),
            "--output-dir", str(tmp_path)]
    assert hn.main(argv) == 0
    assert json.loads(Path(capsys.readouterr().out.strip()).read_text())["nu_reference"] == 3.0
    # the default margins have no skewness, so squared_skewness has no reference without the flag
    skewness = [*argv, "--measure", "squared_skewness"]
    assert "nonzero reference skewness: set --ref-skewness" in usage_error(skewness, capsys)
    assert hn.main([*skewness, "--ref-skewness", "0.3"]) == 0
    payload = json.loads(Path(capsys.readouterr().out.strip()).read_text())
    assert payload["nu_reference"] == pytest.approx(0.09, rel=1e-15)
    assert payload["measure"] == "squared_skewness"
    message = usage_error([*argv, "--ref-kurtosis", "2"], capsys)
    assert message.startswith("reference asset: NIG kurtosis strictly exceeds 3")
    weights_path.write_text(json.dumps({"weights": [0.5, 0.5]}))
    assert usage_error(argv, capsys) == "--weights-file holds 2 weights for 3 assets"


def test_jsonable_handles_numpy_and_inf():
    out = hn._jsonable({"a": np.float64(1.5), "b": np.arange(3), "c": (np.int64(2), float("inf"))})
    assert out == {"a": 1.5, "b": [0, 1, 2], "c": [2, "inf"]}
    json.dumps(out)


def test_jsonable_writes_non_finite_numpy_scalars_as_strings():
    # a non-finite numpy scalar follows the float rule, so the JSON stays valid
    values = {
        f"{kind}{width}": np.dtype(f"float{width}").type(kind) for kind in ("inf", "-inf", "nan") for width in (32, 64)
    }
    text = json.dumps(hn._jsonable({"scalars": values}), allow_nan=False)
    assert json.loads(text) == {"scalars": {key: key[:-2] for key in values}}


def _walked_jsonable(value):
    """``_jsonable`` as it stood when it walked every array element: the
    reference for the bytes the files must keep."""
    if isinstance(value, dict):
        return {str(k): _walked_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_walked_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_walked_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def test_written_bytes_match_the_element_walk(tmp_path):
    rng = np.random.default_rng(3)
    sample = cm.ReturnSample(rng.standard_normal((300, 3)) * 1e-3)
    c = cm.build_comoments(sample)
    path = hn.write_moments(tmp_path / "m.json", c, sample.asset_names, {"seed": 1})
    fields = {f.name: getattr(c, f.name) for f in dataclasses.fields(cm.CoMomentSet)}
    payload = {"seed": 1, "asset_names": list(sample.asset_names), **fields}
    assert path.read_bytes() == (json.dumps(_walked_jsonable(payload), sort_keys=True, indent=2) + "\n").encode()

    payload = {
        "finite": rng.standard_normal((4, 3)),
        "float32": rng.standard_normal(5).astype(np.float32),
        "non_finite": np.array([[1.5, np.inf], [-np.inf, np.nan]]),
        "ints": np.arange(6, dtype=np.int64).reshape(2, 3),
        "uints": np.arange(3, dtype=np.uint8),
        "bools": np.array([True, False]),
        "empty": np.empty((0, 2)),
        "nested": [{"history": np.array([0.5, -np.inf])}, (np.float64(2.5), np.int32(7))],
    }
    path = hn._write_results(tmp_path / "r.json", payload)
    assert path.read_bytes() == (json.dumps(_walked_jsonable(payload), sort_keys=True, indent=2) + "\n").encode()
    assert json.loads(path.read_text())["non_finite"] == [[1.5, "inf"], ["-inf", "nan"]]


def test_run_record_fields(tmp_path):
    cfg = tiny_cfg(tmp_path)
    hn.cmd_simulate(cfg)
    record = json.loads((tmp_path / "t" / "run_record.json").read_text())
    assert set(record) == {
        "command", "config", "config_hash", "version", "wall_clock_seconds", "peak_rss_mb", "environment", "counters"
    }
    # the process holds at least numpy and scipy.special, and nowhere near 1 TB
    assert isinstance(record["peak_rss_mb"], float) and 10.0 < record["peak_rss_mb"] < 1e6
    assert (record["command"], record["config"], record["counters"]) == ("simulate", cfg.snapshot(), {})
    assert record["config_hash"] == hn.config_hash(cfg.snapshot())
    assert isinstance(record["wall_clock_seconds"], float) and record["wall_clock_seconds"] > 0
    assert record["version"] == hn.__version__
    assert set(record["environment"]) == {"python", "numpy", "scipy", "platform"}
    # a panel depends on numpy's normal stream, and each margin's table on scipy.special
    assert (record["environment"]["numpy"], record["environment"]["scipy"]) == (np.__version__, scipy.__version__)


def test_package_imports_no_interpolate_or_integrate():
    # the package needs only scipy.special; scipy.interpolate and
    # scipy.integrate would load linalg, optimize, sparse and spatial too
    code = (
        "import sys, portdim, portdim.harness; "
        "print(sorted({'scipy.interpolate', 'scipy.integrate'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hn.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
