"""Every demo script runs to completion with the package from src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# Demo 02's value lines (those indented by two spaces), each a float() of an exact value.
DEMO_02_VALUES = """\
  mass [0.5, 0.25, 0.125, 0.125]
  min_entropy = 1.0  (top mass 0.5 = 2^-1)
  k=0: eps_k = 0.0
  k=1: eps_k = 0.0
  k=2: eps_k = 0.25
  t=1.0: heavy = [0], mass 0.500 <= 1.250
  t=1.5: heavy = [0], mass 0.500 <= 0.917
  t=2.0: heavy = [], mass 0.000 <= 0.750
  top_k= 4: moved 0.0076 <= 0.2125, min_entropy 4.054 -> 4.235 (>= log2(k/eps) = 4.235)
  top_k=16: moved 0.0849 <= 0.5816, min_entropy 4.054 -> 4.782 (>= log2(k/eps) = 4.782)
  top_k=64: moved 0.3448 <= 1.0000, min_entropy 4.054 -> 6.000 (>= log2(k/eps) = 6.000)
  IP4 on 4x4 supports: output mass [0.625, 0.375]
  IP4 on full supports: output mass [0.53125, 0.46875]
  doc = {'n': 2, 'total': 8, 'weights': [4, 2, 1, 1]}
  distance(original, decoded) = 0.0
"""


def run_demo(demo: Path) -> str:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    assert run_demo(demo)


def test_demo_02_prints_its_pinned_values():
    out = run_demo(ROOT / "demos" / "02_distributions.py")
    assert [line for line in out.splitlines() if line.startswith("  ")] == (
        DEMO_02_VALUES.splitlines()
    )
