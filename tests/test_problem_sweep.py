import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
TOOL = TOOLS / "problem_sweep.py"


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


def test_sweep_keeps_each_report_for_report_diff(tmp_path):
    out, reports = tmp_path / "sweep.txt", tmp_path / "reports"
    proc = _sweep("lift-graphs", "3", "2", str(out), str(reports))
    assert proc.returncode == 0, proc.stderr
    kept = sorted(reports.iterdir())
    assert len(kept) == 2
    for line, path in zip(proc.stdout.splitlines(), kept):
        pid, _, digest, _ = line.split("  ")
        assert path.name == pid.replace("/", "-") + ".seed3.report.json"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest  # one step each
        assert json.loads(path.read_bytes())["command"] == "lift"
    diff = subprocess.run([sys.executable, str(TOOLS / "report_diff.py"), str(reports),
                           str(reports)], capture_output=True, text=True, timeout=60)
    assert diff.returncode == 0, diff.stdout
    assert diff.stdout.splitlines()[-1].startswith("2 reports compared: 2 byte-identical")


def test_sweep_rejects_an_unknown_workload():
    proc = _sweep("no-such-workload", "0", "1")
    assert proc.returncode == 1
    assert "usage: problem_sweep.py" in proc.stderr
