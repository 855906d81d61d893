"""Fixed-seed benchmark of portdim, one workload per process.

Usage, from the repository root::

    python3 perfbench/run.py --workload certify-n4 --seed 1 --seconds 10 --trace 0

The run sets the workload up from ``--seed`` several times (at least
``SETUP_REPEATS`` times and for ``SETUP_MIN_SECONDS``), then
runs timed passes back to back (a closed loop with one client) until the
passes have taken ``--seconds``, checking each pass's output after its timed
interval.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A run record (environment, every pass) and, when traced, the
spans go to ``perfbench/out/``.

The package is imported from ``src/`` next to this directory; without it
the run exits with code 2 before printing a result.
"""

from __future__ import annotations

import os

# One process per workload and single-threaded BLAS: no parallelism at all.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: kept back for confirming a claimed gain on data not used while writing it
HELD_OUT_SEED = 20190603
#: set-up runs at least this often, and until it has taken SETUP_MIN_SECONDS
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0

#: end-to-end metrics printed with ``--trace 0``, with their units
END_TO_END = {"setup_s": "s", "run_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def _import_package():
    """Import ``portdim`` from ``src/`` of this checkout, never from elsewhere."""
    package = ROOT / "src" / "portdim"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no portdim sources under {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import portdim

    if Path(portdim.__file__).resolve().parent != package.resolve():
        raise ImportError(f"portdim imported from {portdim.__file__}, not from {package}")
    return portdim


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment(seed: int) -> dict:
    """Machine, library versions, BLAS threading, source revision and seed."""
    import numpy as np
    import scipy

    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level} {kind}"] = _read(f"{index}/size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "portdim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def _clear_caches() -> None:
    """Empty the NIG-table cache so that every set-up builds its tables."""
    from portdim import retsim

    table = getattr(retsim, "_table", None)
    if hasattr(table, "cache_clear"):
        table.cache_clear()


def _timing(iv, kernel: str) -> dict:
    """An interval's wall time, scaled time and reference samples, for the run record."""
    return {"wall_s": iv.wall_s, "run_s": iv.scaled_s(kernel), "reference_s": iv.samples}


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, dict]:
    """Set up, run and check one workload; returns (result line, run record)."""
    import speed
    import tracing
    import workloads

    wl = workloads.make(workload, scratch=OUT_DIR, size=size)
    tracer = tracing.Tracer() if trace else None
    setup_call = tracer.call if tracer else tracing.untraced_call

    kernels = tuple(dict.fromkeys((wl.kernel, wl.setup_kernel)))
    clock = speed.SpeedClock(kernels, period=0 if trace else speed.PERIOD_S)
    setups: list[speed.Interval] = []
    passes = []
    pass_results: dict[int, list] = {}
    with clock:
        while len(setups) < SETUP_REPEATS or sum(iv.wall_s for iv in setups) < SETUP_MIN_SECONDS:
            _clear_caches()
            with clock.interval() as iv:
                state = wl.setup(seed, setup_call)
            setups.append(iv)

        measured = 0.0
        while measured < seconds or (trace and len(passes) < 2):
            index = len(passes)
            traced = trace and index % 2 == 1
            record = {"traced": traced, "ok": True, "checked": False, "error": None}
            try:
                with clock.interval() as iv:
                    if traced:
                        tracer.pass_id = index
                        with tracer.patched():
                            output = wl.run_pass(state, tracer.call)
                    else:
                        output = wl.run_pass(state, tracing.untraced_call)
            except Exception:
                record.update(ok=False, error=traceback.format_exc(limit=3))
            record.update(_timing(iv, wl.kernel))
            measured += iv.wall_s
            if record["ok"]:
                try:
                    record["checked"] = True
                    wl.check(state, output)
                except Exception:
                    record.update(ok=False, error=traceback.format_exc(limit=3))
                if traced:
                    pass_results[index] = wl.traced_results(output)
            passes.append(record)
            output = None
    setup_records = [_timing(iv, wl.setup_kernel) for iv in setups]

    failed = sum(not p["ok"] for p in passes)
    timed = [p for p in passes if not p["traced"] and p["ok"]] or [p for p in passes if not p["traced"]]
    run_s = statistics.median(p["run_s"] for p in timed)
    if trace:
        traced_s = [p["wall_s"] for p in passes if p["traced"]]
        metrics = tracing.run_metrics(tracer, pass_results, [p["wall_s"] for p in timed], traced_s)
        units = tracing.LAYER_METRICS
    else:
        metrics = {
            "setup_s": statistics.median(r["run_s"] for r in setup_records),
            "run_s": run_s,
            "work_per_s": wl.work() / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    line = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": workload,
        "why": wl.why,
        "size": size,
        "sizes": wl.size,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "kernel": wl.kernel,
        "setup_kernel": wl.setup_kernel,
        "nominal_s": speed.NOMINAL_S,
        "setups": setup_records,
        "passes": passes,
        "checks_run": sum(p["checked"] for p in passes),
        "work_per_pass": wl.work(),
        "missing_entry_points": tracer.missing if tracer else [],
        "result": line,
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer:
        tracer.write(OUT_DIR / f"{stem}-spans.csv.gz")
    return line, record


def _summary(record: dict) -> str:
    """Human-readable lines, with the per-workload names of the throughput."""
    line = record["result"]
    lines = [
        f"# {record['workload']} seed={record['environment']['seed']} passes={line['attempted']} "
        f"failed={line['failed']} fail_ratio={line['failed'] / line['attempted']:.3g} "
        f"setups={len(record['setups'])}"
    ]
    work_name = {"simulate-n15": "draws_per_s", "langevin-n15": "path_iters_per_s"}.get(record["workload"])
    for name, entry in line["metrics"].items():
        lines.append(f"#   {name:<28} {entry['value']:.6g} {entry['unit']}")
        if name == "work_per_s" and work_name:
            lines.append(f"#   {work_name:<28} {entry['value']:.6g} 1/s")
    wall_run = statistics.median(p["wall_s"] for p in record["passes"])
    wall_setup = statistics.median(r["wall_s"] for r in record["setups"])
    lines.append(f"#   wall-clock medians: run {wall_run:.6g} s, setup {wall_setup:.6g} s "
                 f"(scaled by the {record['kernel']} / {record['setup_kernel']} reference kernels)")
    for p in record["passes"]:
        if p["error"]:
            lines.append("# failed pass: " + p["error"].strip().splitlines()[-1])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds of passes to run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help="'smoke' shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    print(_summary(record))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
