"""Paired CPU timing of this checkout against another, in one process.

Usage (from any directory):

    python3 tools/ab_pairs.py OTHER_CHECKOUT WORKLOAD SEED COUNT REPS

OTHER_CHECKOUT is the root of a second checkout of this repository (for
instance a ``git clone`` of the parent commit).  Each checkout's ``src/wfock``
is loaded under its own package name (``wfock`` for this checkout,
``wfock_other`` for the other one), so both run in this process on the same
host speed and the same warm caches.  Problems 0 to COUNT-1 of the perfbench
WORKLOAD at SEED are generated once with ``perfbench/workloads.make_problem``
(from this checkout) and run REPS times on each side, through ``cli.main`` as
a benchmark run does (``attempt`` in ``perfbench/run.py``), with
``OPENBLAS_NUM_THREADS=1``.  The two sides of a problem run back to back, and
which side goes first alternates from one problem and one rep to the next.
Every report is verified with ``perfbench/verify.py``; nothing under
``perfbench/`` is written.

One line is printed per rep: the process CPU seconds of each side over the
COUNT problems and their ratio, this checkout over the other (below 1 means
this checkout is faster).  A last line gives the ratio over all reps and the
number of problems whose reports differ in bytes between the sides.  The exit
code is 1 if any report fails to verify or any run raises.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # fixed before numpy loads

import importlib  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # perfbench is imported read-only
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run as bench  # noqa: E402  (perfbench/run.py)
import verify  # noqa: E402
import workloads  # noqa: E402
import wfock.cli  # noqa: E402


def load_package(name: str, checkout: Path):
    """The ``cli`` module of ``checkout/src/wfock``, imported as the package ``name``."""
    package = checkout / "src" / "wfock"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None:
        sys.exit(f"no wfock package at {package}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_pairs(other_cli, workload: str, seed: int, count: int, reps: int, workdir: Path):
    """Yield (rep, this CPU s, other CPU s, digests that differ, errors) per rep."""
    sides = {"this": wfock.cli, "other": other_cli}
    warm = workloads.warmup_problem(workload)
    for cli in sides.values():
        bench.attempt(cli, verify, warm, workdir)
    problems = [workloads.make_problem(workload, seed, index) for index in range(count)]
    for rep in range(reps):
        cpu, differ, errors = {"this": 0.0, "other": 0.0}, 0, []
        for index, problem in enumerate(problems):
            order = ("this", "other") if (rep + index) % 2 == 0 else ("other", "this")
            digests = {}
            for side in order:
                elapsed, errs, digests[side] = bench.attempt(sides[side], verify, problem,
                                                            workdir)
                errors.extend(f"{side} {problem.pid}: {e}" for e in errs)
                if elapsed is not None:
                    cpu[side] += elapsed[1]
            differ += digests["this"] != digests["other"]
        yield rep, cpu["this"], cpu["other"], differ, errors


def main(argv: list[str]) -> int:
    if len(argv) != 5 or argv[1] not in workloads.WORKLOADS:
        sys.exit("usage: ab_pairs.py OTHER_CHECKOUT WORKLOAD SEED COUNT REPS\n"
                 f"WORKLOAD is one of {', '.join(workloads.WORKLOADS)}")
    other = Path(argv[0]).resolve()
    workload, seed, count, reps = argv[1], int(argv[2]), int(argv[3]), int(argv[4])
    other_cli = load_package("wfock_other", other)
    total, failed, differ = {"this": 0.0, "other": 0.0}, 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        for rep, this_s, other_s, moved, errors in run_pairs(other_cli, workload, seed, count,
                                                             reps, Path(tmp)):
            total["this"] += this_s
            total["other"] += other_s
            differ = max(differ, moved)
            failed += len(errors)
            print(f"rep {rep}  this {this_s:.3f} s  other {other_s:.3f} s  "
                  f"ratio {this_s / other_s if other_s else float('nan'):.4f}", flush=True)
            for error in errors:
                print(f"FAIL {error}", flush=True)
    ratio = total["this"] / total["other"] if total["other"] else float("nan")
    print(f"overall ratio {ratio:.4f} over {reps} reps of {count} "
          f"{workload} problems at seed {seed}; {differ} with reports that differ; "
          f"{failed} failures")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
