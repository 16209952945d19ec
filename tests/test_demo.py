"""The university-results demo script, run end to end."""

import hashlib
import subprocess
import sys
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "demo_university_mining.py"


def test_demo_output_pinned():
    # the script puts src/ on its own path, so no PYTHONPATH is needed
    proc = subprocess.run([sys.executable, str(DEMO)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.count("\n") == 39
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "223ba4e4eb37a93a7a6caf1e0f68d84faacb87369f92092daf8e409f898347a9"
    )
