"""The scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_refutation_walkthrough():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_refutation.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "refutation: 0 of 4096 profiles survive" in proc.stdout
    assert (
        "  6. [contradiction xyy] the candidate outcome is inconsistent with "
        "both y-2 and y+2, although consistency with y2 requires one of them"
    ) in proc.stdout.splitlines()
