"""The names that the benchmark's tracer patches stay callables of their modules.

``perfbench/tracing.py`` replaces these entry points by name for a traced
pass and skips any that is gone, whose per-layer metrics then read 0.
``perfbench/test_smoke.py`` checks that none is missing, but this suite does
not run it, so this test reads the tracer's tables from its source.
"""

from pathlib import Path

from portdim import bbsolve, gld

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_entry_point_is_a_callable_of_its_module():
    tracing = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    for module, names in ((bbsolve, tracing["BBSOLVE_ENTRY_POINTS"]), (gld, tracing["GLD_ENTRY_POINTS"])):
        assert names
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"{module.__name__} has no callable {missing}, which the tracer patches"
