"""Smoke test of the demos that probe, slice and assemble both element
families: each runs as a script in a fresh process and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["demo_02_couette_benchmark.py",
                                  "demo_03_stirrer_cross_validation.py",
                                  "demo_04_pentatope_slicing.py"])
def test_demo_runs(demo, tmp_path):
    """The demo's VTK files go to ``tmp_path``, its working directory."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert list(tmp_path.glob("*.vtk"))
