"""scripts/code_lines.py: per-module code lines of the package, then their total."""

import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "code_lines.py"


def test_total_is_the_sum_of_the_modules():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert [name for _, name in modules] == sorted(
        path.name for path in (ROOT / "src" / "seqmine").glob("*.py")
    )
    assert all(int(count) > 0 for count, _ in modules)
    assert int(total) == sum(int(count) for count, _ in modules)


def test_blank_comment_and_docstring_lines_do_not_count():
    code_lines = runpy.run_path(str(SCRIPT))["code_lines"]
    source = "\n".join(
        [
            '"""Module.',
            "",
            'doc."""',
            "",
            "# a comment",
            "def f(x):",
            '    """Doc."""',
            "    return (x +",
            "            1)  # trailing",
        ]
    )
    assert code_lines(source) == 3
