"""Experiment runner and command-line interface.

Wires the library into reproducible desk-scale experiments: simulate a
return panel, build co-moments, run the toy three-asset weight comparison,
run the branch-and-bound and Langevin optimizers, and report portfolio
dimensionality.  Every command reads an optional JSON config, applies CLI
flag overrides (flags beat config, config beats defaults), and writes
deterministic outputs:

* numeric CSVs carry ``#``-prefixed metadata lines (config hash, seed,
  version) ahead of the header, so a rerun of the same config and seed is
  byte-identical;
* ``*_results.json`` files are sorted-key JSON with a mandatory ``version``
  field and no timing information;
* ``run_record.json`` captures the config snapshot, wall clock, peak
  resident memory, solver work counters, and an environment fingerprint
  (the one file a rerun is allowed to change).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy

from . import __version__
from .bbsolve import BOUND_MODES, BbConfig, bound_modes, solve
from .comoments import CoMomentSet, ReturnSample, Weights, _check_counts, build_comoments
from .divmeasure import (
    NuMeasure,
    ReferenceAsset,
    dimensionality,
    reference_curve,
    toy_dr_weight,
    toy_rp_weight,
)
from .gld import GldConfig, check_record_paths, multistart
from .retsim import MarginTarget, MetaGaussianSpec, sample_pieces

__all__ = [
    "ExperimentConfig",
    "config_hash",
    "write_csv",
    "read_returns_csv",
    "write_moments",
    "read_moments",
    "build_universe",
    "load_or_simulate",
    "cmd_simulate",
    "cmd_build_moments",
    "cmd_toy_example",
    "cmd_optimize_bb",
    "cmd_optimize_gld",
    "cmd_dimensionality",
    "cmd_bench",
    "main",
]

_SUPPORT_TOL = 1e-6


class InputError(ValueError):
    """Input that cannot be read, holds malformed data or that the solvers reject."""


@contextlib.contextmanager
def _input(source):
    """Raise what goes wrong with ``source`` as an InputError that names it."""
    try:
        yield
    except (OSError, ValueError) as err:
        raise InputError(f"{source}: {err}") from err


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged settings for one run: universe, sample, solvers, output."""

    experiment: str = "adhoc"
    n_assets: int = 3
    mean: float = 0.0
    variance: float = 1.0
    skewness: float = 0.0
    kurtosis: float = 6.0
    rho: float = -0.2
    margins: tuple[MarginTarget, ...] | None = None
    correlation_file: str | None = None
    t_obs: int = 100_000
    seed: int = 0
    returns_file: str | None = None
    output_dir: str = "runs"
    bb: BbConfig = field(default_factory=BbConfig)
    gld: GldConfig = field(default_factory=GldConfig)

    def __post_init__(self) -> None:
        _check_counts(("n_assets", self.n_assets, 1), ("t_obs", self.t_obs, 2), ("seed", self.seed, 0))
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"homogeneous rho must lie in (-1, 1), got {self.rho}")
        if self.margins is not None and len(self.margins) != self.n_assets:
            raise ValueError(f"{len(self.margins)} margins given for {self.n_assets} assets")
        for name in ("correlation_file", "returns_file"):
            value = getattr(self, name)
            if value is not None and not Path(value).is_file():
                raise FileNotFoundError(f"{name} does not exist: {value}")

    def margin(self, **changes) -> MarginTarget:
        """The margin of the config's moments, with ``changes`` applied."""
        moments = {"mean": self.mean, "variance": self.variance, "skewness": self.skewness, "kurtosis": self.kurtosis}
        return MarginTarget(**(moments | changes))

    def margin_targets(self) -> tuple[MarginTarget, ...]:
        return self.margins if self.margins is not None else (self.margin(),) * self.n_assets

    def correlation(self) -> np.ndarray:
        if self.correlation_file is not None:
            with _input(self.correlation_file):
                corr = np.loadtxt(self.correlation_file, delimiter=",", comments="#", ndmin=2)
                if corr.shape != (self.n_assets, self.n_assets):
                    raise ValueError(
                        f"correlation file has shape {corr.shape}, expected "
                        f"({self.n_assets}, {self.n_assets})"
                    )
            return corr
        n = self.n_assets
        if n > 1 and not self.rho > -1.0 / (n - 1):
            raise InputError(f"homogeneous rho {self.rho} must exceed -1/(N-1) = {-1.0 / (n - 1):.6g} for N = {n}")
        corr = np.full((n, n), self.rho)
        np.fill_diagonal(corr, 1.0)
        return corr

    def snapshot(self) -> dict:
        """A plain-JSON view of the config used for hashing and records."""
        return _jsonable(dataclasses.asdict(self))


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(value):
    """Recursively convert numpy containers/scalars to plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        # one tolist() suffices unless an inf or NaN must become a string
        if value.dtype.kind in "biu" or (value.dtype.kind == "f" and np.isfinite(value).all()):
            return value.tolist()
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)  # JSON has no inf/nan; keep them readable
    return value


def config_hash(snapshot: dict) -> str:
    """First 12 hex digits of the sha-256 of the canonical config JSON."""
    canonical = json.dumps(_jsonable(snapshot), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str | Path, header: list[str], rows, metadata: dict) -> Path:
    """CSV with ``# key: value`` metadata lines, then header, then rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(cell) for cell in row) + "\n")
    return path


def _write_results(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")
    return path


def _write_run_record(command: str, cfg: ExperimentConfig, start: float, counters: dict | None = None) -> Path:
    """``run_record.json``: config snapshot, version, seconds since ``start``,
    the process's peak resident memory, work counters, environment."""
    seconds = time.perf_counter() - start
    snap = cfg.snapshot()
    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    return _write_results(
        _out_dir(cfg) / "run_record.json",
        {
            "command": command,
            "config": snap,
            "config_hash": config_hash(snap),
            "version": __version__,
            "wall_clock_seconds": seconds,
            "peak_rss_mb": _peak_rss_mb(),
            "environment": environment,
            "counters": counters or {},
        },
    )


def _peak_rss_mb() -> float:
    """This process's peak resident memory: ``VmHWM`` where /proc has it, else
    ``ru_maxrss``, which Linux carries across exec from the process replaced."""
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, KiB elsewhere
    return peak_rss / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _is_number(value) -> bool:
    """A JSON number that converts to a float: not a bool, not an integer beyond the float range."""
    return isinstance(value, float) or type(value) is int and abs(value) <= sys.float_info.max


def _numbers(name: str, value) -> np.ndarray:
    """A JSON number or nested lists of numbers as a float array; booleans, strings, nulls and objects are not."""

    def numeric(v) -> bool:
        return _is_number(v) or isinstance(v, list) and all(map(numeric, v))

    if not numeric(value):
        raise ValueError(f"{name} must be an array of numbers")
    return np.asarray(value, dtype=float)


def read_returns_csv(path: str | Path) -> ReturnSample:
    """Read a returns CSV written by ``cmd_simulate`` (or hand-made in the
    same shape): '#' comment lines, one header row of asset names, then one
    observation per row."""
    names: tuple[str, ...] = ()
    with _input(path), open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            names = tuple(part.strip() for part in line.rstrip("\n").split(","))
            break
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
        return ReturnSample(values, asset_names=names)


def write_moments(path: str | Path, c: CoMomentSet, names, metadata: dict) -> Path:
    """The fields of ``c`` with the asset names and ``metadata``, as sorted-key JSON."""
    fields = {f.name: getattr(c, f.name) for f in dataclasses.fields(CoMomentSet)}
    return _write_results(path, {**metadata, "asset_names": list(names), **fields})


def read_moments(path: str | Path) -> CoMomentSet:
    """The set ``write_moments`` wrote: every field of ``CoMomentSet``, its counts integers, its arrays numbers."""
    names = [f.name for f in dataclasses.fields(CoMomentSet)]
    counts = [f.name for f in dataclasses.fields(CoMomentSet) if f.type == "int"]
    with _input(path):
        data = json.loads(Path(path).read_text())
        missing = [k for k in names if not isinstance(data, dict) or k not in data]
        if missing:
            raise ValueError(f"missing field(s) {', '.join(missing)}")
        for key in counts:
            if isinstance(data[key], bool) or not isinstance(data[key], int):
                raise ValueError(f"{key} must be an integer, got {data[key]!r}")
        return CoMomentSet(**{k: data[k] if k in counts else _numbers(k, data[k]) for k in names})


# ---------------------------------------------------------------------------
# universe construction


def build_universe(cfg: ExperimentConfig) -> MetaGaussianSpec:
    """The simulated universe; one the simulator rejects is an InputError."""
    corr = cfg.correlation()
    with _input("universe"):
        return MetaGaussianSpec.from_targets(cfg.margin_targets(), corr)


def _simulate(cfg: ExperimentConfig, spec: MetaGaussianSpec) -> Iterator[np.ndarray]:
    """The pieces of ``cfg.t_obs`` rows of ``spec``, drawn as they are read; a
    panel too large for one array is an InputError naming --t-obs."""
    if cfg.t_obs * spec.n_assets * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise InputError(f"--t-obs {cfg.t_obs}: a {cfg.t_obs} x {spec.n_assets} panel is too large for one array")
    return sample_pieces(spec, cfg.t_obs, seed=cfg.seed)


def load_or_simulate(cfg: ExperimentConfig) -> ReturnSample | Iterator[np.ndarray]:
    """The returns file's panel when configured, otherwise the pieces of a fresh simulation."""
    if cfg.returns_file is not None:
        return read_returns_csv(cfg.returns_file)
    return _simulate(cfg, build_universe(cfg))


def _comoments(cfg: ExperimentConfig, sample: ReturnSample | Iterator[np.ndarray]) -> CoMomentSet:
    """The panel's co-moments; a set ``CoMomentSet`` rejects, such as the singular
    covariance of a duplicated column, is an InputError naming the panel."""
    with _input(cfg.returns_file or "simulated returns"):
        return build_comoments(sample)


def _out_dir(cfg: ExperimentConfig) -> Path:
    return Path(cfg.output_dir) / cfg.experiment  # each writer makes its file's directory


def _metadata(cfg: ExperimentConfig) -> dict:
    return {
        "config_hash": config_hash(cfg.snapshot()),
        "seed": cfg.seed,
        "version": __version__,
    }


def _support(w: np.ndarray) -> list[int]:
    return [int(i) for i in np.nonzero(w > _SUPPORT_TOL)[0]]


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: ExperimentConfig) -> Path:
    """Simulate a return panel and write it as CSV, a piece at a time."""
    start = time.perf_counter()
    spec = build_universe(cfg)
    rows = (row for piece in _simulate(cfg, spec) for row in piece)
    path = write_csv(_out_dir(cfg) / "returns.csv", [f"A{i + 1}" for i in range(spec.n_assets)], rows, _metadata(cfg))
    _write_run_record("simulate", cfg, start)
    return path


def cmd_build_moments(cfg: ExperimentConfig) -> Path:
    """Estimate co-moments from a returns panel and write them as JSON."""
    start = time.perf_counter()
    sample = load_or_simulate(cfg)
    c = _comoments(cfg, sample)
    names = sample.asset_names if isinstance(sample, ReturnSample) else [f"A{i + 1}" for i in range(c.n_assets)]
    meta = {**_metadata(cfg), "command": "build-moments"}
    path = write_moments(_out_dir(cfg) / "moments.json", c, names, meta)
    _write_run_record("build-moments", cfg, start)
    return path


def toy_universe(cfg: ExperimentConfig, rho: float) -> MetaGaussianSpec:
    """Three assets, unit variances; assets one and two correlated at rho,
    asset three independent."""
    corr = np.array([[1.0, rho, 0.0], [rho, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with _input(f"toy universe at rho {rho}"):
        return MetaGaussianSpec.from_targets((cfg.margin(),) * 3, corr)


def cmd_toy_example(cfg: ExperimentConfig, rho_grid) -> Path:
    """Weight of asset three versus rho: minimum kurtosis (branch and
    bound), closed-form risk parity, closed-form diversification ratio."""
    if not rho_grid:
        raise InputError("--rho-grid holds no correlation")
    start = time.perf_counter()
    rows = []
    specs = [toy_universe(cfg, rho) for rho in rho_grid]  # reject a bad universe before any sampling
    for rho, spec in zip(rho_grid, specs):
        sample = _simulate(cfg, spec)
        with _input(f"toy panel at rho {rho}"):
            result = solve(build_comoments(sample), cfg.bb)
        w3 = float(np.asarray(result.incumbent)[2])
        rows.append(
            (rho, w3, toy_rp_weight(rho), toy_dr_weight(rho), result.kurtosis, result.status)
        )
    path = write_csv(
        _out_dir(cfg) / "toy_example.csv",
        ["rho", "w3_min_kurtosis", "w3_risk_parity", "w3_diversification_ratio", "kurtosis", "status"],
        rows,
        _metadata(cfg),
    )
    _write_run_record("toy-example", cfg, start)
    return path


def _check_bound_mode(cfg: ExperimentConfig, n_assets: int) -> None:
    if cfg.bb.bound_mode not in bound_modes(n_assets):
        limit = next(n for n in range(1, n_assets) if cfg.bb.bound_mode not in bound_modes(n + 1))
        raise InputError(f"--bound-mode {cfg.bb.bound_mode} bounds at most {limit} assets, got {n_assets}")


def cmd_optimize_bb(cfg: ExperimentConfig) -> tuple[Path, Path]:
    """Branch-and-bound run: results JSON plus a bound-evolution trace CSV."""
    start = time.perf_counter()
    if cfg.returns_file is None:
        _check_bound_mode(cfg, cfg.n_assets)  # fail before seconds of sampling
    sample = load_or_simulate(cfg)
    if isinstance(sample, ReturnSample):  # a returns file's width is known once it is read
        _check_bound_mode(cfg, sample.n_assets)
    with _input(cfg.returns_file or "simulated returns"):  # singular, or with no positive fourth-moment floor
        result = solve(build_comoments(sample), cfg.bb)
    directory = _out_dir(cfg)
    meta = _metadata(cfg)
    weights = np.asarray(result.incumbent)
    results_path = _write_results(
        directory / "bb_results.json",
        {
            **meta,
            "command": "optimize-bb",
            "bb": dataclasses.asdict(cfg.bb),
            "status": result.status,
            "iterations": result.iterations,
            "cells_created": result.cells_created,
            "cells_fathomed": result.cells_fathomed,
            "lp_pivots": result.lp_pivots,
            "rounds": result.rounds,
            "alpha": result.alpha,
            "h_value": result.incumbent_value,
            "kurtosis": result.kurtosis,
            "weights": weights,
            "support": _support(weights),
        },
    )
    n_rows = len(result.lower_bounds)
    trace_path = write_csv(
        directory / "bb_trace.csv",
        ["iteration", "lb", "ub", "fraction_deleted", "kurtosis_lb", "kurtosis_ub"],
        zip(
            range(n_rows),
            result.lower_bounds,
            result.upper_bounds,
            result.fraction_deleted,
            result.kurtosis_lower_bounds,
            result.kurtosis_upper_bounds,
        ),
        meta,
    )
    counters = {
        "lp_pivots": result.lp_pivots,
        "rounds": result.rounds,
        "max_depth": result.max_depth,
        "live_cells_per_round": result.live_cells_per_round.tolist(),
        "bound_seconds": result.bound_seconds,
        "rest_seconds": result.rest_seconds,
    }
    _write_run_record("optimize-bb", cfg, start, counters)
    return results_path, trace_path


def cmd_optimize_gld(cfg: ExperimentConfig, record_paths: tuple[int, ...] = ()) -> tuple[Path, Path]:
    """Langevin multistart run: results JSON plus final-iterate histograms."""
    with _input("--record-paths"):
        check_record_paths(record_paths, cfg.gld.n_sim)  # fail before seconds of sampling
    start = time.perf_counter()
    c = _comoments(cfg, load_or_simulate(cfg))
    with _input("--lam/--noise-scale"):  # a step so large that the iterates leave the finite range
        result = multistart(c, cfg.gld, record_paths=record_paths)
    directory = _out_dir(cfg)
    meta = _metadata(cfg)
    weights = np.asarray(result.best_weights)
    support = _support(weights)
    results_path = _write_results(
        directory / "gld_results.json",
        {
            **meta,
            "command": "optimize-gld",
            "gld": dataclasses.asdict(cfg.gld),
            "kurtosis": result.best_kurtosis,
            "pre_polish_kurtosis": result.pre_polish_kurtosis,
            "polish_applied": result.polish_applied,
            "best_path": result.best_path,
            "evaluations": result.evaluations,
            "weights": weights,
            "support": support,
            "support_size": len(support),
        },
    )
    hist_rows = []
    summary = result.final_summary
    edges = summary.bin_edges
    for asset in range(c.n_assets):
        counts = summary.counts[asset]
        for b in range(len(counts)):
            hist_rows.append((asset, edges[b], edges[b + 1], int(counts[b])))
    hist_path = write_csv(
        directory / "gld_histogram.csv",
        ["asset", "bin_left", "bin_right", "count"],
        hist_rows,
        meta,
    )
    if record_paths:
        path_rows = []
        for path_id in sorted(result.recorded_paths):
            trace = result.recorded_paths[path_id]
            for it in range(trace.shape[0]):
                path_rows.append((path_id, it, *trace[it]))
        write_csv(
            directory / "gld_paths.csv",
            ["path", "iteration", *(f"w{i + 1}" for i in range(c.n_assets))],
            path_rows,
            meta,
        )
    counters = {
        "best_so_far": result.best_so_far.tolist(),
        "support_size": len(support),
        "precision": result.precision,
    }
    _write_run_record("optimize-gld", cfg, start, counters)
    return results_path, hist_path


def cmd_dimensionality(
    cfg: ExperimentConfig,
    weights: np.ndarray,
    reference: ReferenceAsset,
    measure: NuMeasure,
    moments_file: str | None = None,
) -> Path:
    """Evaluate the diversification measure and dimensionality of a portfolio."""
    start = time.perf_counter()
    if moments_file is not None:
        c = read_moments(moments_file)
    else:
        c = _comoments(cfg, load_or_simulate(cfg))
    if len(weights) != c.n_assets:
        raise InputError(f"--weights-file holds {len(weights)} weights for {c.n_assets} assets")
    w = Weights(weights)
    # d = D under both measures, so one evaluation fills both fields
    dim = dimensionality(w, c, reference, measure)
    k_grid = list(range(1, 65))
    path = _write_results(
        _out_dir(cfg) / "dimensionality.json",
        {
            **_metadata(cfg),
            "command": "dimensionality",
            "measure": measure.value,
            "weights": np.asarray(w),
            "nu_portfolio": dim.nu_portfolio,
            "nu_reference": dim.nu_reference,
            "diversification": dim.value,
            "dimensionality": dim.value,
            "near_gaussian": dim.near_gaussian,
            "reference_curve": {
                "k": k_grid,
                "nu": [reference_curve(k, reference) for k in k_grid],
            },
        },
    )
    _write_run_record("dimensionality", cfg, start)
    return path


#: the bound-mode table's rows, as (bound_mode, n_c): each mode, and lp2 with 1 to 4 cuts per asset
_BENCH_ROWS = tuple((mode, n_c) for mode in BOUND_MODES for n_c in (range(1, 5) if mode == "lp2" else (1,)))


def cmd_bench(cfg: ExperimentConfig) -> dict:
    """The bound-mode table: one panel, certified under each bounding mode.

    The panel's co-moments are built once, timed with its sampling.  Each
    row solves them with ``cfg.bb`` under its own ``bound_mode`` and
    ``n_c``; a row whose mode cannot bound N assets (``bound_modes``) is
    left out.
    """
    start = time.perf_counter()
    c = _comoments(cfg, load_or_simulate(cfg))
    moments_seconds = time.perf_counter() - start
    rows = []
    for bound_mode, n_c in _BENCH_ROWS:
        if bound_mode not in bound_modes(c.n_assets):
            continue
        start = time.perf_counter()
        with _input(cfg.returns_file or "simulated returns"):  # co-moments with no positive fourth-moment floor
            result = solve(c, dataclasses.replace(cfg.bb, bound_mode=bound_mode, n_c=n_c))
        rows.append(
            {
                "bound_mode": bound_mode,
                "n_c": n_c,
                "iterations": result.iterations,
                "rounds": result.rounds,
                "lp_pivots": result.lp_pivots,
                "seconds": time.perf_counter() - start,
                "bound_seconds": result.bound_seconds,
                "rest_seconds": result.rest_seconds,
                "kurtosis": result.kurtosis,
                "status": result.status,
            }
        )
    return {
        "n_assets": c.n_assets,
        "n_obs": c.n_obs,
        "moments_seconds": moments_seconds,
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# CLI plumbing


_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}

#: (what it must be, test) for a config-file value, by its field's annotation; the dataclasses check counts
_JSON_KINDS = {
    "float": ("a number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
}


def _read_config_file(path: str) -> dict:
    """The ``--config`` file, with each part `_build_config` unpacks checked for shape and type."""
    doc = json.loads(Path(path).read_text())

    def expect(ok: bool, part: str, shape: str, value) -> None:
        if not ok:
            raise ValueError(f"config file {path}: {part} must be {shape}, got {value!r}")

    def check(cls, values: dict, prefix: str = "") -> None:
        """Keys name fields of ``cls``, values have their field's JSON kind (or are unset where it has a default)."""
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(values) - set(fields))
        if unknown:
            raise ValueError(f"unknown keys in config file {path}: {', '.join(prefix + k for k in unknown)}")
        for key, f in fields.items():
            shape, ok = _JSON_KINDS.get(f.type.removesuffix(" | None"), ("", lambda v: True))
            value = values.get(key)
            expect(ok(value) or value is None and f.default is not dataclasses.MISSING, prefix + key, shape, value)

    expect(isinstance(doc, dict), "the top level", "an object", doc)
    check(ExperimentConfig, doc)
    for name, cls in (("bb", BbConfig), ("gld", GldConfig)):
        expect(doc.get(name) is None or isinstance(doc[name], dict), name, "an object", doc.get(name))
        check(cls, doc.get(name) or {}, f"{name}.")
    margins = doc.get("margins")
    expect(margins is None or isinstance(margins, list), "margins", "a list", margins)
    for i, margin in enumerate(margins or ()):
        expect(isinstance(margin, dict), f"margins[{i}]", "an object", margin)
    for i, margin in enumerate(margins or ()):
        check(MarginTarget, margin, f"margins[{i}].")
    return doc


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, overlaid by the ``--config`` file, overlaid by the flags set.

    A config flag's ``dest`` names the field it sets: a top-level field by
    its name, a solver field as ``bb.<field>`` or ``gld.<field>``.  A ``null``
    in the file, at the top level or in a solver block, means the default.
    ``--seed`` sets ``gld.seed`` too; in the file, ``gld.seed`` beats the
    top-level ``seed``.
    """
    doc = _read_config_file(args.config) if args.config else {}
    doc = {key: value for key, value in doc.items() if value is not None}
    blocks = {name: {k: v for k, v in doc.pop(name, {}).items() if v is not None} for name in ("bb", "gld")}
    blocks["gld"].setdefault("seed", doc.get("seed", 0))
    flags = {dest: value for dest, value in vars(args).items() if value is not None}
    if "seed" in flags:
        flags["gld.seed"] = flags["seed"]
    for dest, value in flags.items():
        block, _, name = dest.rpartition(".")
        if block:
            blocks[block][name] = value
        elif dest in _FIELDS:
            doc[dest] = value
    if "margins" in doc:
        doc["margins"] = tuple(MarginTarget(**m) for m in doc["margins"])
    return ExperimentConfig(**doc, bb=BbConfig(**blocks["bb"]), gld=GldConfig(**blocks["gld"]))


def _comma_list(kind: type):
    """An argparse ``type=`` for a comma-separated list of ``kind``; a bad
    token makes argparse exit 2 with "invalid comma-separated <kind> value"."""

    def parse(text: str) -> tuple:
        return tuple(kind(tok) for tok in text.split(",") if tok.strip())

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _read_weights(path: str) -> np.ndarray:
    with _input(path):
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict) or "weights" not in doc:
            raise ValueError('needs an object with a "weights" array')
        return np.asarray(Weights(_numbers("weights", doc["weights"])))


def _dimensionality(cfg: ExperimentConfig, args: argparse.Namespace) -> Path:
    """``cmd_dimensionality`` of the ``--weights-file`` portfolio under ``--measure``,
    against the margin with the ``--ref-*`` flags set."""
    measure = NuMeasure(args.measure)
    ref_skew = cfg.skewness if args.ref_skewness is None else args.ref_skewness
    if measure is NuMeasure.SQUARED_SKEWNESS and ref_skew == 0.0:
        raise InputError("--measure squared_skewness needs a nonzero reference skewness: set --ref-skewness")
    weights = _read_weights(args.weights_file)
    ref_kurt = cfg.kurtosis if args.ref_kurtosis is None else args.ref_kurtosis
    with _input("reference asset"):
        reference = ReferenceAsset.from_target(cfg.margin(skewness=ref_skew, kurtosis=ref_kurt), measure)
    return cmd_dimensionality(cfg, weights, reference, measure, moments_file=args.moments_file)


#: each command: the flag groups of ``_parser`` it takes, its help, and a call
#: from the config and the parsed flags to the lines it prints
_COMMANDS = {
    "simulate": ("common output universe", "simulate a return panel to CSV", lambda cfg, args: [cmd_simulate(cfg)]),
    "build-moments": ("common output universe returns", "estimate co-moments from returns",
                      lambda cfg, args: [cmd_build_moments(cfg)]),
    "toy-example": ("common output stop bound toy-example", "three-asset weight comparison over a rho grid",
                    lambda cfg, args: [cmd_toy_example(cfg, args.rho_grid)]),
    "optimize-bb": ("common output universe returns stop bound", "global kurtosis minimization by branch and bound",
                    lambda cfg, args: cmd_optimize_bb(cfg)),
    "optimize-gld": ("common output universe returns gld", "global kurtosis minimization by Langevin multistart",
                     lambda cfg, args: cmd_optimize_gld(cfg, record_paths=args.record_paths)),
    "dimensionality": ("common output universe returns dimensionality",
                       "diversification and dimensionality of a portfolio",
                       lambda cfg, args: [_dimensionality(cfg, args)]),
    "bench": ("common universe returns stop", "branch and bound under each bounding mode on one panel",
              lambda cfg, args: [json.dumps(_jsonable(cmd_bench(cfg)), sort_keys=True, indent=2)]),
}


def _parser() -> argparse.ArgumentParser:
    """The ``portdim`` parser: each command of ``_COMMANDS`` takes the flag groups it names."""
    names = ("common", "output", "universe", "returns", "stop", "bound", "gld", "toy-example", "dimensionality")
    groups = {name: argparse.ArgumentParser(add_help=False) for name in names}
    common, output, universe, returns, stop, bound, gld, toy, dim = groups.values()
    common.add_argument("--config", help="JSON config file; CLI flags override its fields")
    common.add_argument("--seed", type=int, help="top-level seed for all substreams")
    common.add_argument("--mean", type=float, help="margin mean")
    common.add_argument("--variance", type=float, help="margin variance")
    common.add_argument("--skewness", type=float, help="margin skewness")
    common.add_argument("--kurtosis", type=float, help="margin kurtosis (> 3)")
    common.add_argument("--t-obs", dest="t_obs", type=int, help="number of simulated observations")
    output.add_argument("--experiment", help="experiment id (output subdirectory name)")
    output.add_argument("--output-dir", dest="output_dir", help="root output directory")
    universe.add_argument("--n-assets", dest="n_assets", type=int, help="universe size")
    universe.add_argument("--rho", type=float, help="homogeneous correlation")
    universe.add_argument(
        "--correlation-file", dest="correlation_file", help="CSV with an explicit target correlation matrix"
    )
    returns.add_argument("--returns", dest="returns_file", help="existing returns CSV instead of simulation")
    stop.add_argument(
        "--rho-tol", dest="bb.rho_tol", metavar="RHO_TOL", type=float, help="relative optimality tolerance"
    )
    stop.add_argument("--max-iterations", dest="bb.max_iterations", metavar="MAX_ITERATIONS", type=int)
    stop.add_argument("--max-seconds", dest="bb.max_seconds", metavar="MAX_SECONDS", type=float)
    bound.add_argument("--bound-mode", dest="bb.bound_mode", choices=BOUND_MODES)
    bound.add_argument("--n-c", dest="bb.n_c", metavar="N_C", type=int, help="tangent cuts per asset (lp2)")
    gld.add_argument("--lam", dest="gld.lam", metavar="LAM", type=float, help="Langevin step size")
    gld.add_argument("--noise-scale", dest="gld.c", metavar="NOISE_SCALE", type=float, help="noise scale c")
    gld.add_argument("--n-sim", dest="gld.n_sim", metavar="N_SIM", type=int, help="number of Langevin paths")
    gld.add_argument("--n-iter", dest="gld.n_iter", metavar="N_ITER", type=int, help="iterations per path")
    gld.add_argument(
        "--no-polish", dest="gld.polish", action="store_const", const=False, help="skip the local polish step"
    )
    gld.add_argument(
        "--record-paths",
        dest="record_paths",
        type=_comma_list(int),
        default="",
        help="comma-separated path indices whose full trajectories are written",
    )
    toy.add_argument("--rho-grid", dest="rho_grid", type=_comma_list(float),
                     default="-0.7,-0.5,-0.3,0.0,0.5,0.95,0.99",
                     help="comma-separated correlation grid; write --rho-grid=-0.5,0.99 when "
                          "the first value is negative")
    dim.add_argument("--weights-file", dest="weights_file", required=True,
                     help='JSON file with a "weights" array')
    dim.add_argument("--moments", dest="moments_file", help="moments JSON from build-moments")
    dim.add_argument("--measure", choices=[m.value for m in NuMeasure], default=NuMeasure.EXCESS_KURTOSIS.value)
    dim.add_argument("--ref-kurtosis", dest="ref_kurtosis", type=float,
                     help="reference-asset kurtosis (> 3); defaults to the universe margin")
    dim.add_argument("--ref-skewness", dest="ref_skewness", type=float, default=None)

    parser = argparse.ArgumentParser(
        prog="portdim",
        description="Portfolio dimensionality: simulation, co-moments, and global kurtosis minimization.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (flag_groups, help_text, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[groups[g] for g in flag_groups.split()], help=help_text)
    return parser


@contextlib.contextmanager
def _usage_errors(parser: argparse.ArgumentParser, *errors: type[Exception]):
    """Report the given errors as argparse does: ``portdim: error: ...`` and exit 2."""
    try:
        yield
    except errors as err:
        parser.error(str(err))


def main(argv=None) -> int:
    """Run one command and print the lines it returns.  Bad flags, a bad
    config and unreadable or malformed input files exit 2 with a one-line
    message; other errors raise."""
    parser = _parser()
    args = parser.parse_args(argv)
    with _usage_errors(parser, OSError, ValueError):
        cfg = _build_config(args)
    with _usage_errors(parser, InputError):
        _, _, run = _COMMANDS[args.command]
        lines = run(cfg, args)
    print(*lines, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
