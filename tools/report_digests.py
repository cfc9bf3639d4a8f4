"""SHA-256 digests of a fixed set of CLI reports, to show a change keeps report bytes.

Usage (from any directory):

    python3 tools/report_digests.py [OUTPUT [REPORT_DIR]]

Each report is made in-process through ``wfock.cli.main`` with ``--output``
to ``<name>.report.json`` in REPORT_DIR (created if missing, and kept), or in
a temporary directory without it, with ``OPENBLAS_NUM_THREADS=1``; wfock is
imported from ``src/`` of the checkout this script sits in.  One
``sha256  name`` line is printed per report (and written to OUTPUT if given).
The set is then made a second time in the same process, in reverse order, so
that every report is also made over the settings the CLI kept from the other
calls (see ``wfock.cli``); the printed lines are those of the first pass.
Every command is expected to exit 0 and to give the same report on both
passes; the exit code is 1 if any does not, with the report named.

``tools/report_digests.txt`` holds the digests of the current code.  Run the
script and diff its output against that file: equal lines mean byte-identical
reports.  Where a change moves report bytes on purpose, keep both report sets
(REPORT_DIR in each checkout) and compare them value by value with
``tools/report_diff.py``.  For byte identity over many more inputs, run
``tools/problem_sweep.py WORKLOAD SEEDS COUNT OUTPUT`` in both checkouts and
diff the two outputs: it prints the report digest and the verdict of each
generated benchmark problem.

The set: ``selftest --seed 0``; the README's validate, solve (N=40) and lift
(N=4) inputs, and that lift at N=8; and ``fock``, ``weights`` and ``lift`` at
N=4 on the 2-cycle with sigma (2, 1), free(2) with sigma (1) and the 3-cycle
with sigma (1, 1, 1); and three solves that lift on the amplified dual side of
a space other than the one-loop one: free(2) with sigma (1) at N=5, the
2-cycle with sigma (2, 1) and matrix points at N=8, and a Szego solve on
free(2) at N=5 whose lift clamps F (``ParrottProblem.clamp_column``, called
from ``lifting.lift_step``) on three of its six steps, at about 0.93, 2.2e-4
and 8.2e-5, so that both the clamped and the unclamped Parrott corner run.
Two Szego solves on the one-loop space at N=30 lift on more than two copies
of the dual side: a row-valued one (s = 1, t = 2, two scalar points) and a
2x2 matrix-valued one (s = t = 2, one scalar point).  A ``kernel`` table on
the 2-cycle with sigma (2, 1) and three matrix points at N=8 covers the
Cauchy columns and their pairings, a ``kernel`` table on the one-loop space with
the Dirichlet weights and three scalar points at N=48 is the benchmark's kernel-table
template where the Neumann sums through ``phi_value`` dominate, and a feasible ``pick`` on the 3-cycle
with sigma (2, 1, 1) and four matrix points at N=6 assembles a Choi matrix
of three vertex blocks.  Two lifts with multiplicity 2, the benchmark's lift-graphs
templates of that kind, follow: free(2) with sigma (2) at N=3 and the
2-cycle with sigma (2, 2) and the Szego weights at N=4.  A solve whose targets
are all zero follows: the one-loop space with two scalar points at N=10,
where J_F has no column and f = 0 solves the problem.  A ``solve`` at N=5 and a
``lift`` at N=4 on free(2) with sigma (1) and the dense, non-scalar
``X_1 = [[1.0, 0.3], [0.3, 0.8]]``, and a ``solve`` at N=5 with that ``X_1`` on
free(2) with sigma (2), close the set: they are the only lines whose weights
Z^{(k)} are not multiples of the identity, and the last is the only one of them
whose dual algebra has units other than the identity (its targets are the
constant (0.3 + 0.1i) I_2, so the problem is feasible).  Last, a ``solve`` at
N=30 on the one-loop space with the gapped weights ``X = (1/2, 0, 1/4)`` is the
only line whose X has a zero level inside its support.  The last line is the
only one that gives ``B``: the points of the 2-cycle solve with s = 2, t = 1,
each B_i a rounded perturbation of I_6 and F_i = B_i [0.3 I_3; 0.2i I_3], so
that ``kron(I_s, .)`` runs with s > 1 on a space with h > 1 and the optimal
norm is ||(0.3, 0.2i)||.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # fixed before numpy loads

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wfock.cli import main  # noqa: E402

X_DIRICHLET = {"scalar": [0.5, 0.08333333333333333]}
X_DENSE = {"matrices": {"1": [[1.0, 0.3], [0.3, 0.8]]}}
X_GAPPED = {"scalar": [0.5, 0.0, 0.25]}
# B_i = I_6 + 0.2 (complex Gaussian), rounded to 3 places, for the two points of solve-cycle2
B_CYCLE2_S2 = (
    [[0.657+0.41j, -0.053+0.352j, -0.148+0.002j, -0.002+0.031j, 0.041-0.03j, -0.145-0.139j],
     [-0.149-0.393j, 0.944+0.085j, -0.16+0.008j, 0.265-0.416j, 0.096-0.025j, 0.26+0.039j],
     [-0.199-0.159j, -0.003-0.112j, 1.125+0.284j, 0.159+0.215j, 0.621+0.091j, -0.168+0.088j],
     [-0.003+0.218j, 0.034-0.163j, -0.029+0.021j, 1.084+0.048j, -0.034+0.193j, -0.192+0.074j],
     [0.158+0.123j, -0.189-0.024j, -0.358+0.179j, -0.031-0.137j, 1.052-0.157j, 0.094+0.261j],
     [0.445-0.264j, 0.127+0.137j, 0.184+0.223j, 0.044-0.41j, 0.178+0.289j, 0.984-0.625j]],
    [[0.796+0.297j, 0.038+0.311j, 0.037-0.006j, -0.113-0.149j, 0+0.024j, -0.323+0.093j],
     [-0.37-0.19j, 1.19+0.207j, -0.254+0.471j, -0.241-0.35j, 0.372-0.26j, 0.285-0.161j],
     [-0.254-0.276j, 0.226-0.024j, 0.889-0.085j, 0.265-0.099j, 0.181-0.373j, 0.389-0.167j],
     [0.111+0.023j, 0.013-0.299j, 0.247+0.062j, 0.911-0.058j, 0.22-0.239j, 0.383+0.176j],
     [0.044+0.04j, -0.156-0.208j, 0.13+0.147j, 0.059-0.01j, 0.73-0.646j, 0.249+0.403j],
     [0.222-0.422j, 0.076-0.133j, 0.028+0.121j, 0.562-0.142j, -0.123+0.089j, 0.962+0.203j]])


def _pairs(rows):
    return [[[v.real, v.imag] for v in row] for row in rows]


INPUTS = {
    "coeffs": {"kernel_coeffs": [1.0, 0.5, 0.3333333333333333, 0.25, 0.2]},
    "problem": {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
                "points": [{"scalar": [0.4, 0.0]}, {"scalar": [-0.3, 0.0]}],
                "F": [[[[0.3, 0.0]]], [[[0.1, 0.0]]]]},
    "lift": {"graph": {"vertices": 2, "edges": [[0, 1], [1, 0]]}, "sigma": [1, 1],
             "X": X_DIRICHLET, "instances": 3},
    "cycle2": {"graph": {"vertices": 2, "edges": [[0, 1], [1, 0]]}, "sigma": [2, 1],
               "X": X_DIRICHLET, "instances": 2},
    "free2": {"graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]}, "sigma": [1],
              "X": X_DIRICHLET, "instances": 2},
    "solve-free2": {"graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]}, "sigma": [1],
                    "X": X_DIRICHLET,
                    "points": [{"matrix": [[[0.1, 0.05], [-0.08, 0.0]]]},
                               {"matrix": [[[-0.05, 0.0], [0.02, 0.1]]]}],
                    "F": [[[[0.3, 0.1]]], [[[0.3, 0.1]]]]},
    "solve-cycle2": {"graph": {"vertices": 2, "edges": [[0, 1], [1, 0]]}, "sigma": [2, 1],
                     "X": {"scalar": [1.0]},
                     "points": [{"matrix": [[[0, 0], [0, 0], [0.1, 0.02]],
                                            [[0, 0], [0, 0], [-0.05, 0]],
                                            [[0.08, 0], [0.03, -0.04], [0, 0]]]},
                                {"matrix": [[[0, 0], [0, 0], [-0.06, 0]],
                                            [[0, 0], [0, 0], [0.04, 0.05]],
                                            [[0.02, 0.1], [-0.07, 0], [0, 0]]]}],
                     "F": [[[[0.2, 0], [0, 0], [0, 0]], [[0, 0], [0.2, 0], [0, 0]],
                            [[0, 0], [0, 0], [0.2, 0]]]] * 2},
    "solve-free2-clamped": {"graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]}, "sigma": [1],
                           "X": {"scalar": [1.0]},
                           "points": [{"matrix": [[[-0.023, -0.149], [-0.086, -0.06]]]},
                                      {"matrix": [[[0.121, -0.007], [-0.006, 0.0]]]}],
                           "F": [[[[0.12, 0.004]]], [[[0.108, 0.001]]]]},
    "solve-rect": {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
                   "s": 1, "t": 2,
                   "points": [{"scalar": [0.25, 0.0]}, {"scalar": [-0.4, 0.0]}],
                   "F": [[[[0.165, 0.0], [-0.11, 0.0]]], [[[0.055, 0.0], [0.2475, 0.0]]]]},
    "solve-matrix": {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
                     "s": 2, "t": 2, "points": [{"scalar": [0.3, 0.0]}],
                     "F": [[[[0.4, 0.0], [0.1, 0.0]], [[0.0, 0.0], [0.2, 0.0]]]]},
    "cycle3": {"graph": {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}, "sigma": [1, 1, 1],
               "X": X_DIRICHLET, "instances": 2},
    "free2-s2": {"graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]}, "sigma": [2],
                 "X": X_DIRICHLET, "instances": 2},
    "cycle2-s22": {"graph": {"vertices": 2, "edges": [[0, 1], [1, 0]]}, "sigma": [2, 2],
                   "X": {"scalar": [1.0]}, "instances": 2},
    "kernel-cycle2": {"graph": {"vertices": 2, "edges": [[0, 1], [1, 0]]}, "sigma": [2, 1],
                      "X": X_DIRICHLET,
                      "points": [{"matrix": [[[0, 0], [0, 0], [0.1, 0.02]],
                                             [[0, 0], [0, 0], [-0.05, 0]],
                                             [[0.08, 0], [0.03, -0.04], [0, 0]]]},
                                 {"matrix": [[[0, 0], [0, 0], [-0.06, 0]],
                                             [[0, 0], [0, 0], [0.04, 0.05]],
                                             [[0.02, 0.1], [-0.07, 0], [0, 0]]]},
                                 {"matrix": [[[0, 0], [0, 0], [0.05, -0.03]],
                                             [[0, 0], [0, 0], [0.02, 0.06]],
                                             [[-0.04, 0.05], [0.06, 0], [0, 0]]]}]},
    "kernel-free1-dirichlet": {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": X_DIRICHLET,
                               "points": [{"scalar": [0.45, 0.1]}, {"scalar": [-0.3, 0.35]},
                                          {"scalar": [0.05, -0.55]}]},
    "pick-cycle3": {"graph": {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
                    "sigma": [2, 1, 1], "X": X_DIRICHLET,
                    "points": [{"matrix": [[[0, 0], [0, 0], [0, 0], [0.1, 0.03]],
                                           [[0, 0], [0, 0], [0, 0], [-0.04, 0.02]],
                                           [[0.06, 0], [0.02, -0.05], [0, 0], [0, 0]],
                                           [[0, 0], [0, 0], [0.09, 0.01], [0, 0]]]},
                               {"matrix": [[[0, 0], [0, 0], [0, 0], [-0.05, 0]],
                                           [[0, 0], [0, 0], [0, 0], [0.03, 0.07]],
                                           [[-0.02, 0.04], [0.08, 0], [0, 0], [0, 0]],
                                           [[0, 0], [0, 0], [-0.06, 0.05], [0, 0]]]},
                               {"matrix": [[[0, 0], [0, 0], [0, 0], [0.02, -0.09]],
                                           [[0, 0], [0, 0], [0, 0], [0.05, 0]],
                                           [[0.03, 0.03], [-0.04, 0], [0, 0], [0, 0]],
                                           [[0, 0], [0, 0], [0.01, -0.08], [0, 0]]]},
                               {"matrix": [[[0, 0], [0, 0], [0, 0], [0.07, 0.05]],
                                           [[0, 0], [0, 0], [0, 0], [0, -0.03]],
                                           [[0.05, -0.06], [0.01, 0.02], [0, 0], [0, 0]],
                                           [[0, 0], [0, 0], [0.04, 0.04], [0, 0]]]}],
                    "F": [[[[0.5, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0.5, 0], [0, 0], [0, 0]],
                           [[0, 0], [0, 0], [0.5, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [0.5, 0]]]]
                    * 4},
    "solve-zero": {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
                   "points": [{"scalar": [0.4, 0.0]}, {"scalar": [-0.3, 0.0]}],
                   "F": [[[[0.0, 0.0]]], [[[0.0, 0.0]]]]},
    "solve-free2-dense": {"graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]}, "sigma": [1],
                          "X": X_DENSE,
                          "points": [{"matrix": [[[0.1, 0.05], [-0.08, 0.0]]]},
                                     {"matrix": [[[-0.05, 0.0], [0.02, 0.1]]]}],
                          "F": [[[[0.3, 0.1]]], [[[0.3, 0.1]]]]},
    "free2-dense": {"graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]}, "sigma": [1],
                    "X": X_DENSE, "instances": 2},
    "solve-free2-s2-dense": {"graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]},
                             "sigma": [2], "X": X_DENSE,
                             "points": [{"matrix": [[[0.05, 0.02], [-0.04, 0.0], [0.015, 0.0],
                                                     [0.0, 0.01]],
                                                    [[-0.01, 0.0], [0.025, -0.015], [0.0, 0.03],
                                                     [0.02, 0.0]]]},
                                        {"matrix": [[[-0.025, 0.0], [0.01, 0.05], [0.0, -0.02],
                                                     [0.03, 0.0]],
                                                    [[0.015, 0.01], [0.0, 0.0], [-0.035, 0.0],
                                                     [0.005, 0.025]]]}],
                             "F": [[[[0.3, 0.1], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.1]]]] * 2},
    "solve-free1-gapped": {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": X_GAPPED,
                           "points": [{"scalar": [0.4, 0.0]}, {"scalar": [-0.3, 0.0]}],
                           "F": [[[[0.3, 0.0]]], [[[0.1, 0.0]]]]},
}
# F_i = B_i [0.3 I_3; 0.2i I_3]
INPUTS["solve-cycle2-s2-B"] = dict(
    INPUTS["solve-cycle2"], s=2, t=1, B=[_pairs(b) for b in B_CYCLE2_S2],
    F=[_pairs([[0.3 * row[c] + 0.2j * row[3 + c] for c in range(3)] for row in b])
       for b in B_CYCLE2_S2])
# (name, input key or None, arguments)
RUNS = [("selftest-seed0", None, ["selftest", "--seed", "0"]),
        ("readme-validate", "coeffs", ["validate"]),
        ("readme-solve-N40", "problem", ["solve", "--N", "40"]),
        ("readme-lift-N4", "lift", ["lift", "--N", "4", "--seed", "7"]),
        ("readme-lift-N8", "lift", ["lift", "--N", "8", "--seed", "7"])]
RUNS += [(f"{command}-{graph}-N4", graph, [command, "--N", "4"])
         for graph in ("cycle2", "free2", "cycle3") for command in ("fock", "weights", "lift")]
RUNS += [("solve-free2-N5", "solve-free2", ["solve", "--N", "5"]),
         ("solve-cycle2-N8", "solve-cycle2", ["solve", "--N", "8"]),
         ("solve-free2-clamped-N5", "solve-free2-clamped", ["solve", "--N", "5"]),
         ("solve-rect-N30", "solve-rect", ["solve", "--N", "30"]),
         ("solve-matrix-N30", "solve-matrix", ["solve", "--N", "30"]),
         ("kernel-cycle2-N8", "kernel-cycle2", ["kernel", "--N", "8"]),
         ("kernel-free1-dirichlet-N48", "kernel-free1-dirichlet", ["kernel", "--N", "48"]),
         ("pick-cycle3-N6", "pick-cycle3", ["pick", "--N", "6"]),
         ("lift-free2-s2-N3", "free2-s2", ["lift", "--N", "3"]),
         ("lift-cycle2-s22-N4", "cycle2-s22", ["lift", "--N", "4"]),
         ("solve-zero-N10", "solve-zero", ["solve", "--N", "10"]),
         ("solve-free2-dense-N5", "solve-free2-dense", ["solve", "--N", "5"]),
         ("lift-free2-dense-N4", "free2-dense", ["lift", "--N", "4"]),
         ("solve-free2-s2-dense-N5", "solve-free2-s2-dense", ["solve", "--N", "5"]),
         ("solve-free1-gapped-N30", "solve-free1-gapped", ["solve", "--N", "30"]),
         ("solve-cycle2-s2-B-N8", "solve-cycle2-s2-B", ["solve", "--N", "8"])]


def digests(workdir: Path, runs) -> tuple[dict[str, str], list[str]]:
    """The sha256 of each report of ``runs``, by name, and one message per nonzero exit code."""
    out, errors = {}, []
    for name, key, args in runs:
        argv = ["--command", *args, "--output", str(workdir / f"{name}.report.json")]
        if key is not None:
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(INPUTS[key]))
            argv += ["--input", str(path)]
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code != 0:
            errors.append(f"{name}: exit code {code}, expected 0")
        out[name] = hashlib.sha256((workdir / f"{name}.report.json").read_bytes()).hexdigest()
    return out, errors


def both_passes(workdir: Path) -> tuple[list[str], list[str]]:
    """The ``sha256  name`` lines of the first pass, and the errors of both passes."""
    first, errors = digests(workdir, RUNS)
    second, again = digests(workdir, RUNS[::-1])
    errors += [err for err in again if err not in errors]
    errors += [f"{name}: the second pass, in reverse order, gave another report"
               for name in first if first[name] != second[name]]
    return [f"{first[name]}  {name}" for name, _, _ in RUNS], errors


def run(output: str | None = None, report_dir: str | None = None) -> int:
    if report_dir:
        Path(report_dir).mkdir(parents=True, exist_ok=True)
        lines, errors = both_passes(Path(report_dir))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines, errors = both_passes(Path(tmp))
    text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)
    if output:
        Path(output).write_text(text)
    for err in errors:
        print(err, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    if len(sys.argv) > 3:
        sys.exit("usage: report_digests.py [OUTPUT [REPORT_DIR]]")
    sys.exit(run(*sys.argv[1:]))
