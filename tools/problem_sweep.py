"""Run generated benchmark problems through the CLI and verify each one.

Usage (from any directory):

    python3 tools/problem_sweep.py WORKLOAD SEEDS COUNT [OUTPUT [REPORT_DIR]]

WORKLOAD is a perfbench workload (``solve-mix``, ``kernel-table`` or
``lift-graphs``).  SEEDS is a comma-separated list of seeds and inclusive
ranges, such as ``0-11,20261017``.  For each seed, problems 0 to COUNT-1 are
generated with ``perfbench/workloads.make_problem``, run in-process through
``wfock.cli.main`` and checked with ``perfbench/verify.py``, exactly as a
benchmark run does (``attempt`` in ``perfbench/run.py``), with
``OPENBLAS_NUM_THREADS=1``.  wfock and perfbench are imported from the
checkout this script sits in; nothing under ``perfbench/`` is written.

One line is printed per problem (and written to OUTPUT if given): the
problem id, its seed, the sha256 of its reports (``-`` if the run raised),
and ``ok`` or ``FAIL`` with the errors.  The exit code is 1 if any problem
fails.  Equal lines from two checkouts mean byte-identical reports over the
whole sweep; diff them to find the problems a change moves.

With REPORT_DIR (created if missing), each problem's report is kept there as
``<pid>.seed<seed>.report.json``, ``/`` in the problem id written ``-`` (a
problem id repeats across seeds); a problem of more than one step keeps one
``<pid>.seed<seed>.<command>.report.json`` per step.  Keep them in both
checkouts and compare the two directories value by value with
``tools/report_diff.py``.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # fixed before numpy loads

import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run as bench  # noqa: E402  (perfbench/run.py)
import verify  # noqa: E402
import workloads  # noqa: E402
import wfock.cli  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``0-3,9`` -> [0, 1, 2, 3, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def keep_reports(problem, seed: int, workdir: Path, report_dir: Path) -> None:
    """Copy the reports ``bench.run_problem`` left in ``workdir`` to ``report_dir``."""
    name = f"{problem.pid.replace('/', '-')}.seed{seed}"
    for i, (command, _) in enumerate(problem.steps):
        report = workdir / f"report{i}.json"
        if report.exists():
            step = f".{command}" if len(problem.steps) > 1 else ""
            shutil.copyfile(report, report_dir / f"{name}{step}.report.json")


def sweep(workload: str, seeds: list[int], count: int, workdir: Path,
          report_dir: Path | None = None):
    """Yield (line, ok) per problem."""
    for seed in seeds:
        for index in range(count):
            problem = workloads.make_problem(workload, seed, index)
            _, errors, digest = bench.attempt(wfock.cli, verify, problem, workdir)
            if report_dir is not None:
                keep_reports(problem, seed, workdir, report_dir)
            verdict = "FAIL " + "; ".join(errors) if errors else "ok"
            yield f"{problem.pid}  seed={seed}  {digest or '-'}  {verdict}", not errors


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4, 5) or argv[0] not in workloads.WORKLOADS:
        sys.exit("usage: problem_sweep.py WORKLOAD SEEDS COUNT [OUTPUT [REPORT_DIR]]\n"
                 f"WORKLOAD is one of {', '.join(workloads.WORKLOADS)}")
    workload, seeds, count = argv[0], parse_seeds(argv[1]), int(argv[2])
    report_dir = Path(argv[4]) if len(argv) == 5 else None
    if report_dir is not None:
        report_dir.mkdir(parents=True, exist_ok=True)
    lines, failed = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for line, ok in sweep(workload, seeds, count, Path(tmp), report_dir):
            print(line, flush=True)
            lines.append(line)
            failed += not ok
    if len(argv) >= 4:
        Path(argv[3]).write_text("".join(line + "\n" for line in lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
