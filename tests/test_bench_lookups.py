"""Every function the benchmark wraps by name still exists.

bench/tracer.py installs its wrappers with getattr on the modules it names
(TIMING_POINTS even in the untraced run), so a rename or a dropped import
in the package would fail every benchmark round. This test only reads
bench/.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


# run_path compiles the file without importing it, so no byte code is
# written under bench/
TRACER_GLOBALS = runpy.run_path(str(TRACER))
TRACE_POINTS = TRACER_GLOBALS["TRACE_POINTS"]


@pytest.mark.parametrize(
    "module_name, attribute, span", TRACE_POINTS,
    ids=[f"{module}:{attribute}" for module, attribute, _ in TRACE_POINTS],
)
def test_trace_point_resolves(module_name, attribute, span):
    owner = importlib.import_module(module_name)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


def test_timing_points_are_trace_points():
    timing_points = TRACER_GLOBALS["TIMING_POINTS"]
    assert timing_points
    assert set(timing_points) <= set(TRACE_POINTS)
