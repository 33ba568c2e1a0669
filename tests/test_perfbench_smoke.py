"""The benchmark harness runs every workload end to end at tiny sizes.

`perfbench/run.py --smoke` runs the four workloads untraced and traced,
checks every output, and prints one `ok` line per workload and mode
when every declared metric was reported.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_run_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ok = [line for line in proc.stdout.splitlines() if line.startswith("smoke ") and ": ok " in line]
    assert len(ok) == 8, proc.stdout
