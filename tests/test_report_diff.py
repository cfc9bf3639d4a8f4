import copy
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)

REPORT = {"verdict": "solved", "norm": {"value": 0.5, "tol": 1.0},
          "steps": [{"m": 2, "mu": 1.0}, {"m": 3, "mu": 1.0}], "evaluations": [[0.25, 0.0]]}


def _tree(root: Path, **reports) -> str:
    root.mkdir()
    for name, obj in reports.items():
        (root / f"{name}.report.json").write_text(json.dumps(obj))
    return str(root)


def _moved(path, value):
    out = copy.deepcopy(REPORT)
    *keys, last = path
    node = out
    for key in keys:
        node = node[key]
    node[last] = value
    return out


def test_a_float_move_is_printed_beside_its_tol(tmp_path, capsys):
    old = _tree(tmp_path / "old", solve=REPORT, same=REPORT)
    new = _tree(tmp_path / "new", solve=_moved(("norm", "value"), 0.5 + 2 ** -50), same=REPORT)
    assert report_diff.main([old, new]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "solve  norm.value  8.882e-16  (bound 1.000e+00)"
    assert lines[-1].startswith("2 reports compared: 1 byte-identical, 1 with moved values "
                                "over 1 field paths; largest float move 8.882e-16; 0 non-float")


@pytest.mark.parametrize("path, value", [(("verdict",), "infeasible"), (("steps", 1, "m"), 4),
                                         (("steps", 0, "mu"), 1), (("evaluations", 0), [0.25])])
def test_a_non_float_difference_exits_1(tmp_path, capsys, path, value):
    old = _tree(tmp_path / "old", solve=REPORT)
    new = _tree(tmp_path / "new", solve=_moved(path, value))
    assert report_diff.main([old, new]) == 1
    assert "FAULT solve: " in capsys.readouterr().out


def test_the_selftest_blob_length_is_the_one_exempt_integer(tmp_path, capsys):
    def selftest(size):
        return {"criteria": [{"id": 9, "details": {"bytes": size}}]}

    old = _tree(tmp_path / "old", **{"selftest-seed0": selftest(1465)})
    new = _tree(tmp_path / "new", **{"selftest-seed0": selftest(1466)})
    assert report_diff.main([old, new]) == 0
    assert "criteria[].details.bytes  1.000e+00  (exempt)" in capsys.readouterr().out


def test_trace_files_are_walked_when_both_sides_have_them(tmp_path, capsys):
    def trace(root: Path, *values):
        (root / "solve.trace.jsonl").write_text(
            "".join(json.dumps({"m": 2, "coinvariant": v}) + "\n" for v in values))

    old = _tree(tmp_path / "old", solve=REPORT)
    new = _tree(tmp_path / "new", solve=REPORT)
    trace(Path(new), 0.25)
    assert report_diff.main([old, new]) == 0  # a trace on one side only is no fault
    assert capsys.readouterr().out.rstrip().endswith("; 0 traces compared")
    trace(Path(old), 0.25)
    trace(Path(new), 0.25 + 2 ** -50)
    assert report_diff.main([old, new]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "solve.trace  [].coinvariant  8.882e-16"
    assert lines[-1].endswith("; 1 traces compared")
    trace(Path(new), 0.25, 0.5)
    assert report_diff.main([old, new]) == 1
    assert "FAULT solve.trace: : length 1 -> 2" in capsys.readouterr().out
