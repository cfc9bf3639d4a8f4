"""Value-by-value comparison of two report sets kept by ``report_digests.py``.

Usage (from any directory):

    python3 tools/report_digests.py old-digests.txt OLD_DIR   # in the old checkout
    python3 tools/report_digests.py new-digests.txt NEW_DIR   # in the new checkout
    python3 tools/report_diff.py OLD_DIR NEW_DIR

Every ``<name>.report.json`` of the two directories is read and walked in
step, and so is every ``<name>.trace.jsonl`` that both directories hold (a
``solve`` trace, one JSON line per lift step with its running residuals), as
the list of its lines under the name ``<name>.trace``; a trace on one side
only is no fault.  A float that moved is collected under its field path, list
indices written ``[]``, and one line is printed per report and path: the largest
absolute move, and beside it the ``tol`` (or ``threshold``) that the report
carries next to the field, where it carries one.  A summary line follows.

Any other difference is a fault: a report on one side only, a different key
set or list length, a different type, or a bool, integer, string or null that
changed.  Each fault is printed and the exit code is 1; it is 0 otherwise.
The one exception is selftest criterion 9's ``details.bytes``, the length of
a JSON blob of floats, which moves with those floats: its move is printed but
is no fault.
"""

import json
import math
import sys
from pathlib import Path

EXEMPT = {("selftest-seed0", "criteria[].details.bytes")}
BOUND_KEYS = ("tol", "threshold")


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk(name, old, new, path, bound, moves, faults):
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            faults.append(f"{name}: {path or '.'}: keys {sorted(old.keys() ^ new.keys())} "
                          "on one side only")
        sibling = next((new[k] for k in BOUND_KEYS if _number(new.get(k))), None)
        for key in sorted(old.keys() & new.keys()):
            _walk(name, old[key], new[key], f"{path}.{key}" if path else key,
                  None if key in BOUND_KEYS else sibling, moves, faults)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            faults.append(f"{name}: {path}: length {len(old)} -> {len(new)}")
        for a, b in zip(old, new):
            _walk(name, a, b, f"{path}[]", None, moves, faults)
    elif type(old) is float and type(new) is float:
        same = old == new or (math.isnan(old) and math.isnan(new))
        move, prev = (0.0 if same else abs(new - old)), moves.get((name, path))
        if prev is None or move > prev[0]:
            moves[(name, path)] = (move, bound)
    elif type(old) is not type(new) or old != new:
        if (name, path) in EXEMPT and type(old) is int and type(new) is int:
            moves[(name, path)] = (abs(new - old), None)
        else:
            faults.append(f"{name}: {path}: {old!r} -> {new!r}")


def compare(old_dir: Path, new_dir: Path) -> tuple[list[str], list[str]]:
    """The printed move lines and summary, and the faults."""
    old_names = {p.name[:-len(".report.json")] for p in old_dir.glob("*.report.json")}
    new_names = {p.name[:-len(".report.json")] for p in new_dir.glob("*.report.json")}
    faults = [f"{name}: report on one side only" for name in sorted(old_names ^ new_names)]
    moves: dict[tuple[str, str], tuple[float, float | None]] = {}
    same_bytes = 0
    traces = {p.name[:-len(".jsonl")] for p in old_dir.glob("*.trace.jsonl")} \
        & {p.name[:-len(".jsonl")] for p in new_dir.glob("*.trace.jsonl")}
    for name in sorted(old_names & new_names):
        old_blob = (old_dir / f"{name}.report.json").read_bytes()
        new_blob = (new_dir / f"{name}.report.json").read_bytes()
        same_bytes += old_blob == new_blob
        _walk(name, json.loads(old_blob), json.loads(new_blob), "", None, moves, faults)
    for name in sorted(traces):
        old_lines, new_lines = ([json.loads(line) for line in
                                 (side / f"{name}.jsonl").read_text().splitlines()]
                                for side in (old_dir, new_dir))
        _walk(name, old_lines, new_lines, "", None, moves, faults)
    moved = {key: val for key, val in moves.items() if val[0] > 0}
    lines = [f"{name}  {path}  {move:.3e}" + (f"  (bound {bound:.3e})" if bound is not None else "")
             + ("  (exempt)" if (name, path) in EXEMPT else "")
             for (name, path), (move, bound) in sorted(moved.items())]
    float_moves = [move for key, (move, _) in moved.items() if key not in EXEMPT]
    lines.append(f"{len(old_names & new_names)} reports compared: {same_bytes} byte-identical, "
                 f"{len({name for name, _ in moved})} with moved values over {len(moved)} "
                 f"field paths; largest float move {max(float_moves, default=0.0):.3e}; "
                 f"{len(faults)} non-float differences; {len(traces)} traces compared")
    return lines, faults


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    lines, faults = compare(Path(argv[0]), Path(argv[1]))
    for line in lines:
        print(line)
    for fault in faults:
        print(f"FAULT {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
