"""The benchmark's oracle still agrees with the package.

bench/oracle.py holds exact finite-eps moments and n = 5 closed forms,
written independently of revolve. Its selftest compares them with
limit_coefficients, discrete_limit_coefficients and values_at on angle
rows, which the benchmark's checks rely on. This test only reads bench/.
"""

import runpy
import sys
from pathlib import Path

ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


def test_oracle_selftest_passes(monkeypatch):
    # selftest puts src/ on sys.path; the copy keeps that to this test.
    # run_path compiles the file without importing it, so no byte code is
    # written under bench/
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert runpy.run_path(str(ORACLE))["selftest"]() == []
