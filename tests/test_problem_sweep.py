import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "problem_sweep.py"


def _sweep(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          timeout=300)


def test_sweep_prints_one_verified_line_per_problem(tmp_path):
    out = tmp_path / "sweep.txt"
    proc = _sweep("lift-graphs", "3", "2", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for index, line in enumerate(lines):
        assert re.fullmatch(rf"lift-graphs/{index}/\S+  seed=3  [0-9a-f]{{64}}  ok", line), line
    assert out.read_text() == proc.stdout


def test_sweep_rejects_an_unknown_workload():
    proc = _sweep("no-such-workload", "0", "1")
    assert proc.returncode == 1
    assert "usage: problem_sweep.py" in proc.stderr
