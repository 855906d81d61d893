"""The data path's shared helper thread: same bits with and without it, no
work left behind, errors passed on, and the policy that switches it on."""

import contextlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from portdim import _helper
from portdim import comoments as cm
from portdim import harness as hn
from portdim import retsim as rs

from conftest import homogeneous_spec

SRC = str(Path(__file__).resolve().parents[1] / "src")
TWO_CPUS = _helper._cpus() >= 2


@contextlib.contextmanager
def helper_switched(on: bool, min_pairs: int = cm._HELPER_MIN_PAIRS):
    """Run the data path with the helper forced on, whatever the BLAS
    threads, or switched off; with the helper on, chunks of ``min_pairs``
    pairs or more go to its lane."""
    saved = _helper._ENABLED, _helper._BLAS_SINGLE_THREADED, cm._HELPER_MIN_PAIRS
    _helper._ENABLED, _helper._BLAS_SINGLE_THREADED, cm._HELPER_MIN_PAIRS = on, True, min_pairs
    try:
        yield
    finally:
        _helper._ENABLED, _helper._BLAS_SINGLE_THREADED, cm._HELPER_MIN_PAIRS = saved


def data_path_bytes(spec, t_obs, seed) -> dict:
    """The bytes of every data-path output, or the error it raises."""
    out = {
        "pieces": np.concatenate(list(rs.sample_pieces(spec, t_obs, seed))).tobytes(),
        "panel": rs.sample_meta_gaussian(spec, t_obs, seed).values.tobytes(),
    }
    sources = {
        "from pieces": lambda: rs.sample_pieces(spec, t_obs, seed),
        "from panel": lambda: rs.sample_meta_gaussian(spec, t_obs, seed),
    }
    for name, source in sources.items():
        try:
            c = cm.build_comoments(source())
            out[name] = b"".join(getattr(c, f).tobytes() for f in ("mean", "m2", "m3_unique", "m4_unique"))
        except ValueError as exc:  # a short panel's covariance may be singular, with or without the helper
            out[name] = str(exc)
    return out


# a partial chunk, more than one piece, and past a block boundary
T_OBS = st.one_of(st.integers(50, 4096), st.integers(4097, 65536), st.integers(65537, 75_000))


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 6), t_obs=T_OBS, seed=st.integers(0, 2**32))
def test_data_path_bits_do_not_depend_on_the_helper(n, t_obs, seed):
    spec = homogeneous_spec(n, -0.1)
    with helper_switched(False):
        serial = data_path_bytes(spec, t_obs, seed)
    with helper_switched(True, min_pairs=1):  # every chunk size on two lanes
        assert data_path_bytes(spec, t_obs, seed) == serial


def test_n15_data_path_bits_do_not_depend_on_the_helper():
    # two block boundaries and a partial last chunk; N = 15 chunks go to the helper at the default size
    spec = homogeneous_spec(15, -0.05)
    t_obs = 2 * rs._BLOCK_ROWS + 5000
    switch_interval, environ = sys.getswitchinterval(), dict(os.environ)
    with helper_switched(False):
        serial = data_path_bytes(spec, t_obs, seed=3)
    with helper_switched(True):
        handoffs = _helper.handoffs()
        assert data_path_bytes(spec, t_obs, seed=3) == serial
        assert _helper.handoffs() > handoffs or not TWO_CPUS
    # no process-wide setting was touched
    assert (sys.getswitchinterval(), dict(os.environ)) == (switch_interval, environ)


@pytest.fixture
def tracked_maps(monkeypatch):
    """Count the score-map tasks that run, and keep the pieces they write."""
    state = {"running": 0, "done": 0, "pieces": []}
    lock = threading.Lock()
    original = rs._map_scores

    def tracked(tables, z, out):
        with lock:
            state["running"] += 1
            state["pieces"].append(out)
        try:
            time.sleep(0.002)  # long enough that a closed stream finds it running
            return original(tables, z, out)
        finally:
            with lock:
                state["running"] -= 1
                state["done"] += 1

    monkeypatch.setattr(rs, "_map_scores", tracked)
    return state


def test_closing_pieces_early_leaves_no_helper_work(tracked_maps):
    spec = homogeneous_spec(4, -0.2)
    t_obs = 10 * rs._PIECE_ROWS
    with helper_switched(False):
        reference = np.concatenate(list(rs.sample_pieces(spec, t_obs, seed=9)))
    threads = threading.active_count()
    with helper_switched(True):
        stream = rs.sample_pieces(spec, t_obs, seed=9)
        first = next(stream)
        stream.close()
        assert tracked_maps["running"] == 0
        written = [piece.copy() for piece in tracked_maps["pieces"]]
        time.sleep(0.02)
        assert all(np.array_equal(a, b) for a, b in zip(written, tracked_maps["pieces"]))
        assert first.tobytes() == reference[: rs._PIECE_ROWS].tobytes()
        # the next call starts afresh and gives the same bits
        assert np.concatenate(list(rs.sample_pieces(spec, t_obs, seed=9))).tobytes() == reference.tobytes()
    assert tracked_maps["running"] == 0
    assert threading.active_count() <= threads + 1
    assert sum(t.name.startswith("portdim-helper") for t in threading.enumerate()) <= 1


def error_of(fn) -> str:
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


def test_helper_errors_reach_the_caller_unchanged(monkeypatch, tracked_maps):
    spec = homogeneous_spec(15, -0.05)

    def broken(self, z):
        raise ValueError(f"no map for {len(z)} scores")

    monkeypatch.setattr(rs._NigTable, "score_map", broken)
    for sample in (
        lambda: list(rs.sample_pieces(spec, 5 * rs._PIECE_ROWS, 1)),
        lambda: rs.sample_meta_gaussian(spec, 30_000, 1),
    ):
        with helper_switched(False):
            expected = error_of(sample)
        with helper_switched(True):
            assert error_of(sample) == expected == "no map for 8192 scores"
        assert tracked_maps["running"] == 0


@pytest.mark.parametrize("good_rows", [cm._CHUNK_ROWS, 2 * cm._CHUNK_ROWS])
def test_gram_lane_errors_reach_the_caller_unchanged(good_rows):
    # the bad chunk is the helper's (chunk 1) or the caller's while the helper forms chunk 1
    good = rs.sample_meta_gaussian(homogeneous_spec(15, -0.05), good_rows, seed=2).values
    pieces = [good, np.ones((cm._CHUNK_ROWS, 14))]
    with helper_switched(False):
        expected = error_of(lambda: cm.build_comoments(iter(pieces)))
    with helper_switched(True):
        assert error_of(lambda: cm.build_comoments(iter(pieces))) == expected
    assert "could not be broadcast" in expected


@pytest.mark.parametrize(
    "environ, single",
    [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "4"}, False),
        ({"MKL_NUM_THREADS": "1"}, False),
    ],
)
def test_blas_threads_are_read_as_openblas_reads_them(environ, single):
    assert _helper.blas_single_threaded(environ) is single


def helper_in_child(blas_threads: str | None, one_cpu: bool = False) -> bool:
    """Whether a fresh process with these BLAS threads, and on one CPU or
    all of this one's, would run the data path with the helper."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = SRC
    code = "from portdim import _helper; print(_helper.helper() is not None)"
    if one_cpu:  # the child pins itself to one of its CPUs
        code = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); " + code
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_helper_policy_in_a_fresh_process():
    assert helper_in_child("1") is TWO_CPUS
    assert not helper_in_child(None)
    assert not helper_in_child("2")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_no_helper_on_one_cpu():
    assert not helper_in_child("1", one_cpu=True)


def test_run_record_says_whether_the_helper_ran(tmp_path):
    cfg = hn.ExperimentConfig(
        experiment="t", n_assets=6, rho=-0.1, t_obs=3 * rs._PIECE_ROWS, seed=1, output_dir=str(tmp_path)
    )
    for on in (False, True):
        with helper_switched(on):
            hn.cmd_build_moments(cfg)
        record = json.loads((tmp_path / "t" / "run_record.json").read_text())
        assert record["helper_thread"] is (on and TWO_CPUS)
    # simulate's CSV formatting holds the GIL, so its pieces are mapped on the caller
    with helper_switched(True):
        hn.cmd_simulate(cfg)
    assert json.loads((tmp_path / "t" / "run_record.json").read_text())["helper_thread"] is False


def _child_panel_bytes(spec, t_obs, queue):
    with helper_switched(True):
        panel = rs.sample_meta_gaussian(spec, t_obs, seed=4).values.tobytes()
    queue.put((panel, any(t.name.startswith("portdim-helper") for t in threading.enumerate())))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_makes_its_own_helper():
    # the parent's helper thread does not exist in a forked child, which must not hand work to it
    import multiprocessing

    spec = homogeneous_spec(4, -0.2)
    t_obs = 3 * rs._PIECE_ROWS
    with helper_switched(True):
        expected = rs.sample_meta_gaussian(spec, t_obs, seed=4).values.tobytes()  # the parent's helper exists now
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_child_panel_bytes, args=(spec, t_obs, queue))
    child.start()
    try:
        assert queue.get(timeout=60) == (expected, TWO_CPUS)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
