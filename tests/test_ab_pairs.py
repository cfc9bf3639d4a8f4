import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_pairs.py"


def _pairs(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          timeout=300)


def test_pairs_of_the_checkout_against_itself_verify_and_agree():
    proc = _pairs(str(ROOT), "lift-graphs", "3", "2", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    for rep, line in enumerate(lines[:2]):
        assert re.fullmatch(rf"rep {rep}  this \S+ s  other \S+ s  ratio \S+", line), line
    assert re.fullmatch(r"overall ratio \S+ over 2 reps of 2 lift-graphs problems at seed 3; "
                        r"0 with reports that differ; 0 failures", lines[2]), lines[2]


def test_pairs_reject_an_unknown_workload():
    proc = _pairs(str(ROOT), "no-such-workload", "0", "1", "1")
    assert proc.returncode == 1
    assert "usage: ab_pairs.py" in proc.stderr
