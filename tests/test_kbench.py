"""The benchmark's own output checks, one pass per workload.

kbench/run.py checks every job's outputs after each pass against its
pinned digests and recounts (for instance the class pairs compared as
a tuple with a numpy recount, and each census's members), and reports
"correct": false on the last line of stdout when any differs. One pass
of each workload takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "kbench" / "run.py"


@pytest.mark.skipif(not RUN.is_file(), reason="kbench/run.py is not in this checkout")
@pytest.mark.parametrize("workload", ["pipeline-n4", "oracle-n8", "sweep-colors"])
def test_kbench_workload_passes_its_checks(workload):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "0"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, out.stdout
    assert last["failed"] == 0
