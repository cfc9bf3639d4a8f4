import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wfock import cli
from wfock.cli import RunConfig, main, run
from wfock.induced import InducedSpace
from wfock.jsonio import decode_graph


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


GRAPH2 = {"vertices": 1, "edges": [[0, 0], [0, 0]]}
CYCLE = {"vertices": 2, "edges": [[0, 1], [1, 0]]}


def test_validate_dirichlet(tmp_path):
    path = write(tmp_path, "in.json", {"kernel_coeffs": [1 / (k + 1) for k in range(10)]})
    code, report = run(RunConfig("validate", input_path=path))
    assert code == 0
    assert report["admissible"]
    assert np.isclose(report["x"][0], 0.5)
    assert report["roundtrip_residual"]["value"] <= 1e-10


def test_validate_bergman_rejected(tmp_path):
    path = write(tmp_path, "in.json", {"kernel_coeffs": [k + 1 for k in range(8)]})
    code, report = run(RunConfig("validate", input_path=path))
    assert code == 2
    assert "x_2" in report["rejected"]["reason"]


def test_validate_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, report = run(RunConfig("validate", input_path=str(path)))
    assert code == 1
    assert "input" in report["error"]


def test_validate_invariant_violation(tmp_path):
    path = write(tmp_path, "in.json", {"graph": GRAPH2, "X": {"scalar": [0.0, 1.0]}})
    code, report = run(RunConfig("validate", input_path=path, N=3))
    assert code == 1
    assert "invertible" in report["error"]


def test_weights_report(tmp_path):
    path = write(tmp_path, "in.json", {"graph": GRAPH2, "X": {"scalar": [0.5, 1 / 12]}})
    code, report = run(RunConfig("weights", input_path=path, N=4))
    assert code == 0
    assert max(v["value"] for v in report["residuals"].values()) <= 1e-10
    z1 = report["Z"]["matrices"]["1"][0][0]
    assert np.isclose(z1[0], np.sqrt(2))


def test_fock_report(tmp_path):
    path = write(tmp_path, "in.json", {"graph": CYCLE, "X": {"scalar": [0.7, 0.1]},
                                       "sigma": [1, 1]})
    code, report = run(RunConfig("fock", input_path=path, N=4))
    assert code == 0
    assert report["sums_to_projection"]["value"] <= 1e-10
    assert report["multiplicativity"]["value"] <= 1e-10
    assert report["level_dims"] == [2, 2, 2, 2, 2]


def test_kernel_report(tmp_path):
    path = write(tmp_path, "in.json", {
        "graph": GRAPH2["vertices"] and {"vertices": 1, "edges": [[0, 0]]},
        "X": {"scalar": [1.0]},
        "points": [{"scalar": [0.4, 0.0]}, {"scalar": [-0.2, 0.1]}],
    })
    code, report = run(RunConfig("kernel", input_path=path, N=30))
    assert code == 0
    entry = report["kernel"]["0,1"]
    assert entry["cauchy_residual"]["value"] <= 1e-9
    val = complex(*entry["value"][0][0])
    expected = 1.0 / (1.0 - 0.4 * np.conj(-0.2 + 0.1j))
    assert abs(val - expected) <= entry["tail"] + 1e-10


GAPPED_AT_06 = {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [0.5, 0.0, 0.25]},
                "points": [{"scalar": [0.6, 0.0]}], "F": [[[[0.1, 0.0]]]]}


@pytest.mark.parametrize("command", ["kernel", "pick", "solve"])
def test_x_beyond_the_truncation_is_named(tmp_path, command):
    """X_3 = 1/4 does not fit N = 2: the kernel there is 1 / (1 - t/2 - t^3/4), and the
    truncated sums and their tail bound would read 1 / (1 - t/2) without a word."""
    code, report = run(RunConfig(command, input_path=write(tmp_path, "x.json", GAPPED_AT_06), N=2))
    assert code == 1
    assert report["error"].startswith("ValueError: X.scalar[2]: nonzero beyond the truncation N = 2")
    matrices = dict(GAPPED_AT_06, X={"matrices": {"1": [[0.5]], "4": [[0.0]], "3": [[0.25]]}})
    code, report = run(RunConfig(command, input_path=write(tmp_path, "m.json", matrices), N=2))
    assert code == 1
    assert report["error"].startswith("ValueError: X.matrices.3: nonzero beyond the truncation")
    # an entry beyond N is decoded to be judged, so a malformed one is named too
    for name, bad in (("junk", "junk"), ("ragged", [[0.0], [0.0, 0.0]])):
        malformed = dict(GAPPED_AT_06, X={"matrices": {"1": [[0.5]], "5": bad}})
        code, report = run(RunConfig(command, input_path=write(tmp_path, f"{name}.json", malformed), N=2))
        assert code == 1
        assert report["error"].startswith("ValueError: X.matrices.5: ")
    # zero entries fit any N; a point near 0 keeps the solve's tail budget at N = 2
    zeros = dict(GAPPED_AT_06, X={"scalar": [0.5, 0.0, 0.0, 0.0]}, points=[{"scalar": [0.05, 0.0]}])
    assert run(RunConfig(command, input_path=write(tmp_path, "z.json", zeros), N=2))[0] == 0


def test_kernel_with_every_level_of_x_is_within_its_tail(tmp_path):
    code, report = run(RunConfig("kernel", input_path=write(tmp_path, "x.json", GAPPED_AT_06), N=3))
    assert code == 0
    t = 0.36
    entry = report["kernel"]["0,0"]
    assert abs(entry["value"][0][0][0] - 1.0 / (1.0 - t / 2 - t ** 3 / 4)) <= entry["tail"] + 1e-14


def test_kernel_builds_one_cauchy_column_per_point(tmp_path, monkeypatch):
    from wfock.interpolation import CauchyKernel

    builds = []
    init = CauchyKernel.__post_init__
    monkeypatch.setattr(CauchyKernel, "__post_init__", lambda c: builds.append(1) or init(c))
    path = write(tmp_path, "in.json", {
        "graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
        "points": [{"scalar": [0.4, 0.0]}, {"scalar": [-0.2, 0.1]}, {"scalar": [0.0, 0.3]}],
    })
    code, report = run(RunConfig("kernel", input_path=path, N=20))
    assert code == 0 and len(report["kernel"]) == 9
    assert len(builds) == 3


def test_pick_feasible_and_infeasible(tmp_path):
    base = {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
            "points": [{"scalar": [0.4, 0.0]}, {"scalar": [-0.3, 0.0]}]}
    good = dict(base, F=[[[[0.3, 0.0]]], [[[0.1, 0.0]]]])
    code, report = run(RunConfig("pick", input_path=write(tmp_path, "g.json", good), N=40))
    assert code == 0 and report["verdict"] == "completely-positive"
    bad = dict(base, F=[[[[0.95, 0.0]]], [[[-0.9, 0.0]]]])
    code, report = run(RunConfig("pick", input_path=write(tmp_path, "b.json", bad), N=40))
    assert code == 2
    assert report["rejected"]["verdict"] == "not-completely-positive"


def test_solve_report(tmp_path):
    obj = {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
           "points": [{"scalar": [0.45, 0.0]}], "F": [[[[0.7, 0.0]]]]}
    code, report = run(RunConfig("solve", input_path=write(tmp_path, "s.json", obj), N=30))
    assert code == 0
    assert report["verdict"] == "solved"
    assert abs(complex(*report["evaluations"][0][0][0]) - 0.7) < 1e-8
    assert report["norm"]["value"] <= 1 + 1e-8
    assert max(r["value"] for r in report["residuals"]) < 1e-8


# perfbench's solve-mix problem 16 at seed 9: at lift step 13, gesdd (OpenBLAS 0.3.31,
# SkylakeX kernels) returned NaN factors for the Parrott gram without raising
SILENT_NAN = {"graph": {"vertices": 1, "edges": [[0, 0]]}, "sigma": [1], "X": {"scalar": [1.0]},
              "points": [{"scalar": [0.14369652303439573, -0.40590848559711096]},
                         {"scalar": [0.25307745613612775, -0.056522965591450244]},
                         {"scalar": [0.1070345828586255, -0.014635579889297394]}],
              "F": [[[[-0.3032504445850981, 0.3224241705901199]]],
                    [[[-0.11685992776046633, 0.12218007864149823]]],
                    [[[-0.043658652475404826, 0.21593536082271483]]]]}


def test_solve_where_lapack_returned_nan_factors(tmp_path):
    code, report = run(RunConfig("solve", input_path=write(tmp_path, "s.json", SILENT_NAN), N=32))
    assert code == 0, report.get("error")
    assert report["verdict"] == "solved"
    assert len(report["residuals"]) == 3
    for pair in [report["norm"], *report["residuals"]]:  # every {value, tol} of a solve report
        assert pair["value"] <= pair["tol"]


def test_lift_report(tmp_path):
    obj = {"graph": CYCLE, "X": {"scalar": [0.5, 1 / 12]}, "sigma": [1, 1], "instances": 2}
    code, report = run(RunConfig("lift", input_path=write(tmp_path, "l.json", obj),
                                 N=4, seed=3))
    assert code == 0
    ran = [r for r in report["instances"] if "conclusions" in r]
    assert ran, report
    for inst in ran:
        assert max(v["value"] for v in inst["conclusions"].values()) <= 1e-8


def test_solve_rejects_infeasible(tmp_path):
    obj = {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
           "points": [{"scalar": [0.4, 0.0]}, {"scalar": [-0.3, 0.0]}],
           "F": [[[[0.95, 0.0]]], [[[-0.9, 0.0]]]]}
    code, report = run(RunConfig("solve", input_path=write(tmp_path, "si.json", obj), N=40))
    assert code == 2
    assert report["rejected"]["verdict"] == "not-completely-positive"


def test_cli_end_to_end_determinism(tmp_path):
    # run the selftest twice through the real entry point and compare bytes
    cmd = [sys.executable, "-m", "wfock.cli", "--command", "validate",
           "--input", write(tmp_path, "in.json", {"kernel_coeffs": [1.0, 1.0, 1.0]}),
           "--N", "3", "--seed", "11"]
    out1 = subprocess.run(cmd, capture_output=True, text=True)
    out2 = subprocess.run(cmd, capture_output=True, text=True)
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout
    report = json.loads(out1.stdout)
    assert report["schema"] == 1


NUMPY_OOM = ("Unable to allocate 16.0 GiB for an array with shape (32768, 32768) "
             "and data type float64")


@pytest.mark.parametrize("exc, error", [
    (MemoryError(NUMPY_OOM), f"MemoryError: {NUMPY_OOM}"),
    (MemoryError(), "MemoryError: an allocation failed")])
def test_failed_allocation_is_a_json_report(tmp_path, monkeypatch, exc, error):
    # the command raises as numpy does when an allocation fails; nothing is allocated
    import wfock.cli

    def out_of_memory(config, obj):
        raise exc

    monkeypatch.setitem(wfock.cli._DISPATCH, "pick", out_of_memory)
    out = tmp_path / "report.json"
    assert main(["--command", "pick", "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["command"] == "pick"
    assert report["error"] == error


def test_bad_command_rejected():
    with pytest.raises(ValueError):
        RunConfig("plot")
    with pytest.raises(ValueError):
        RunConfig("solve", N=0)


TWO_POINT = {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
             "points": [{"scalar": [0.4, 0.0]}, {"scalar": [-0.3, 0.0]}],
             "F": [[[[0.3, 0.0]]], [[[0.1, 0.0]]]]}


EYE2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize("command, obj, field", [
    ("solve", [1, 2], "object"),
    ("weights", [1, 2], "object"),
    ("solve", dict(TWO_POINT, points=3), "points"),
    ("weights", {"graph": GRAPH2, "X": {"matrices": 5}}, "X.matrices"),
    ("weights", {"graph": GRAPH2, "X": {"scalar": [1.0]}, "Z": {"matrices": 5}}, "Z.matrices"),
    ("weights", {"graph": GRAPH2, "X": {"scalar": [1.0]}, "Z": {"matrices": {"1": EYE2}}},
     "Z.matrices.2"),
    ("weights", {"graph": GRAPH2, "X": {"scalar": [1.0]}, "Z": {"matrices": {"1": [[[1.0, 0.0]]]}}},
     "Z.matrices.1: has shape (1, 1), expected (2, 2)"),
    ("weights", {"X": {"scalar": [1.0]}}, "graph: missing"),
    ("validate", {"graph": GRAPH2}, "X: missing"),
    ("solve", {k: v for k, v in TWO_POINT.items() if k != "F"}, "F: missing"),
    ("pick", {k: v for k, v in TWO_POINT.items() if k != "points"}, "points: missing"),
    ("validate", {"kernel_coeffs": 5}, "kernel_coeffs: expected a list"),
    ("validate", {"kernel_coeffs": [1.0, None]}, "kernel_coeffs[1]"),
    ("validate", {"kernel_coeffs": ["1.0", "0.5"]}, "kernel_coeffs[0]"),
    ("validate", {"kernel_coeffs": [True, 0.5]}, "kernel_coeffs[0]"),
    ("weights", {"graph": CYCLE, "X": {"scalar": [1.0]},
                 "Z": {"matrices": {"1": EYE2, "2": [[[1.0, 0.0], [1.0, 0.0]],
                                                     [[0.0, 0.0], [1.0, 0.0]]],
                                    "3": EYE2, "4": EYE2}}},
     "Z.matrices.2: not a module map, its commutator with the left action is 1.00e+00"),
    ("weights", {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
                 "Z": {"matrices": {"1": [[0]], "2": [[1]], "3": [[1]], "4": [[1]]}}},
     "Z.matrices.1: not invertible"),
    # a key that is no level >= 1 is named, not dropped (X_0 must vanish)
    ("validate", {"graph": {"vertices": 1, "edges": [[0, 0]]},
                  "X": {"matrices": {"1": [[1]], "foo": [[1]], "0": [[5]]}}},
     "X.matrices.foo: not a level"),
    ("validate", {"graph": {"vertices": 1, "edges": [[0, 0]]},
                  "X": {"matrices": {"1": [[1]], "0": [[5]]}}}, "X.matrices.0: not a level"),
    ("weights", {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
                 "Z": {"matrices": {"1": [[1]], "2": [[1]], "3": [[1]], "4": [[1]], "01": [[1]]}}},
     "Z.matrices.01: not a level"),
    ("weights", {"graph": GRAPH2, "X": {"scalar": [1.0]}, "sigma": [0]},
     "sigma[0]: must be at least 1, got 0"),
    # validate decodes sigma and Z when they are given, as the other commands do
    ("validate", {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
                  "sigma": [0], "Z": "bogus"}, "sigma[0]: must be at least 1, got 0"),
    ("validate", {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
                  "Z": "bogus"}, "Z: expected 'canonical' or {'matrices': ...}"),
    ("validate", {"graph": GRAPH2, "X": {"scalar": [1.0]},
                  "Z": {"matrices": {"1": [[[1.0, 0.0]]]}}},
     "Z.matrices.1: has shape (1, 1), expected (2, 2)"),
    ("validate", {"graph": GRAPH2, "X": {"matrices": {"1": [[1]]}}},
     "X.matrices.1: has shape (1, 1), expected (2, 2)"),
    # the targets are counted and shaped against the points, s, t and h
    ("pick", dict(TWO_POINT, F=TWO_POINT["F"][:1]), "F: 1 target for 2 points"),
    ("solve", dict(TWO_POINT, F=TWO_POINT["F"] * 2), "F: 4 targets for 2 points"),
    ("pick", dict(TWO_POINT, s=2), "F[0]: has shape (1, 1), expected (2, 1)"),
    ("solve", dict(TWO_POINT, s=2, t=2), "F[0]: has shape (1, 1), expected (2, 2)"),
    ("pick", dict(TWO_POINT, B=[[[[1.0, 0.0]]]]), "B: 1 target for 2 points"),
    ("solve", dict(TWO_POINT, B=[[[[1.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]]]]),
     "B[1]: has shape (1, 2), expected (1, 1)"),
    ("pick", dict(TWO_POINT, points=[]), "points: need at least one point"),
    ("solve", dict(TWO_POINT, points=[], F=[]), "points: need at least one point"),
])
def test_wrong_input_type_is_named(tmp_path, command, obj, field):
    code, report = run(RunConfig(command, input_path=write(tmp_path, "t.json", obj), N=4))
    assert code == 1
    assert field in report["error"]


def test_validate_accepts_given_sigma_and_weights(tmp_path):
    obj = {"graph": CYCLE, "sigma": [2, 1], "X": {"scalar": [1.0]},
           "Z": {"matrices": {str(k): EYE2 for k in range(1, 5)}}}
    code, report = run(RunConfig("validate", input_path=write(tmp_path, "v.json", obj), N=4))
    assert code == 0 and report["admissible"] is True, report


def test_level_keys_above_the_truncation_are_not_read(tmp_path):
    loop = {"vertices": 1, "edges": [[0, 0]]}
    for command, obj in [
            ("validate", {"graph": loop, "X": {"matrices": {"1": [[0.5]], "9": [[5]]}}}),
            ("weights", {"graph": loop, "X": {"scalar": [1.0]},
                         "Z": {"matrices": {str(k): [[1]] for k in range(1, 10)}}})]:
        code, report = run(RunConfig(command, input_path=write(tmp_path, "k.json", obj), N=4))
        assert code == 0, report


ZERO_F = [[[[0.0, 0.0]]]]


@pytest.mark.parametrize("obj, n", [
    (dict(TWO_POINT, points=TWO_POINT["points"][:1], F=ZERO_F), 10),
    (dict(TWO_POINT, F=ZERO_F * 2), 10),
    ({"graph": GRAPH2, "sigma": [1], "X": {"scalar": [1.0]},
      "points": [{"matrix": [[[0.1, 0.05], [-0.08, 0.0]]]}], "F": ZERO_F}, 5),
], ids=["one-loop-one-point", "one-loop-two-points", "free2-matrix-point"])
def test_zero_targets_are_solved_by_zero(tmp_path, obj, n):
    """Targets F all zero leave J_F without columns; f = 0 solves the problem."""
    code, report = run(RunConfig("solve", input_path=write(tmp_path, "z.json", obj), N=n))
    assert code == 0 and report["verdict"] == "solved"
    assert len(report["evaluations"]) == len(obj["points"])
    assert all(v == [0.0, 0.0] for ev in report["evaluations"] for row in ev for v in row)
    assert report["norm"]["value"] == 0.0
    assert report["trace"]["conclusions"] == dict.fromkeys(
        ("adjoint_invariance", "compression", "intertwining", "norm"), 0.0)


@pytest.mark.parametrize("eps", [float("nan"), -1.0, True])
def test_solve_input_eps_checked(tmp_path, eps):
    obj = dict(TWO_POINT, eps=eps)
    code, report = run(RunConfig("solve", input_path=write(tmp_path, "e.json", obj), N=20))
    assert code == 1
    assert "eps must be" in report["error"]
    with pytest.raises(ValueError, match="eps must be"):
        RunConfig("solve", eps=eps)


@pytest.mark.parametrize("command, obj, field", [
    ("solve", dict(TWO_POINT, X={"scalar": [float("nan")]}), "X.scalar"),
    ("weights", {"graph": GRAPH2, "X": {"scalar": [float("inf")]}}, "X.scalar"),
    ("solve", dict(TWO_POINT, F=[[[[float("nan"), 0.0]]], [[[0.1, 0.0]]]]), "F[0]"),
    ("solve", dict(TWO_POINT, points=[{"scalar": [0.4, float("-inf")]}]), "points[0]"),
    ("validate", {"kernel_coeffs": [1.0, float("nan"), 0.3]}, "kernel_coeffs[1]"),
    # an overflowing sum is named without a RuntimeWarning on the way
    pytest.param("validate", {"graph": TWO_POINT["graph"], "X": {"scalar": [1e200]}}, "R_2^2",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param("solve", dict(TWO_POINT, X={"scalar": [1e200]}), "R_2^2",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
])
def test_non_finite_number_is_named(tmp_path, command, obj, field):
    code, report = run(RunConfig(command, input_path=write(tmp_path, "n.json", obj), N=4))
    assert code == 1
    assert field in report["error"] and "finite" in report["error"]


LIFT = {"graph": CYCLE, "X": {"scalar": [1.0]}, "sigma": [1, 1], "instances": 1}


@pytest.mark.parametrize("bad", [1.5, "2", True], ids=["float", "string", "true"])
@pytest.mark.parametrize("command, base, path, field", [
    ("fock", LIFT, ("sigma", 0), "sigma[0]"),
    ("fock", LIFT, ("graph", "vertices"), "graph.vertices"),
    ("fock", LIFT, ("graph", "edges", 0, 1), "graph.edges[0]"),
    ("solve", TWO_POINT, ("s",), "s"),
    ("solve", TWO_POINT, ("t",), "t"),
    ("lift", LIFT, ("instances",), "instances"),
], ids=["sigma", "vertices", "edges", "s", "t", "instances"])
def test_non_integral_count_is_named(tmp_path, bad, command, base, path, field):
    obj = json.loads(json.dumps(base))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    code, report = run(RunConfig(command, input_path=write(tmp_path, "c.json", obj), N=3))
    assert code == 1
    assert f"{field}: not an integer" in report["error"]


@pytest.mark.parametrize("bad", [0, -1])
@pytest.mark.parametrize("command, base, key", [
    ("solve", TWO_POINT, "s"),
    ("solve", TWO_POINT, "t"),
    ("lift", LIFT, "instances"),
], ids=["s", "t", "instances"])
def test_count_below_one_is_named(tmp_path, bad, command, base, key):
    obj = dict(base, **{key: bad})
    code, report = run(RunConfig(command, input_path=write(tmp_path, "c.json", obj), N=3))
    assert code == 1
    assert f"{key}: must be at least 1, got {bad}" in report["error"]


KERNEL_INPUT = {"graph": CYCLE, "sigma": [2, 1], "X": {"scalar": [0.5, 1 / 12]},
                "points": [{"matrix": [[[0, 0], [0, 0], [0.1, 0.02]],
                                       [[0, 0], [0, 0], [-0.05, 0]],
                                       [[0.08, 0], [0.03, -0.04], [0, 0]]]},
                           {"matrix": [[[0, 0], [0, 0], [-0.06, 0]],
                                       [[0, 0], [0, 0], [0.04, 0.05]],
                                       [[0.02, 0.1], [-0.07, 0], [0, 0]]]}]}


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _fields(node, prefix=()):
    """The path of every field of a JSON tree: object keys and list indices."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _fields(value, prefix + (key,))


def _mutations(value):
    """(kind, replacement) for one field: wrong type, wrong shape, non-finite, missing."""
    out = [("type", bad) for bad in ("x", None, True, {})] + [("shape", [value])]
    if isinstance(value, list) and value:
        out += [("shape", value[:-1]), ("shape", value + value[-1:])]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out += [("non-finite", bad) for bad in (float("nan"), float("inf"), float("-inf"))]
    return out + [("missing", None)]


KERNEL_MUTATIONS = [(path, kind, bad) for path in _fields(KERNEL_INPUT)
                    for kind, bad in _mutations(_at(KERNEL_INPUT, path))]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_MUTATIONS))
def test_mutated_kernel_input_gets_a_json_report(mutation):
    """One field of a valid kernel input broken: a JSON report and exit code
    0, 1 or 2 from the entry point, never a traceback."""
    path, kind, bad = mutation
    obj = copy.deepcopy(KERNEL_INPUT)
    parent = _at(obj, path[:-1])
    if kind == "missing":
        del parent[path[-1]]
    else:
        parent[path[-1]] = bad
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp) / "in.json", Path(tmp) / "out.json"
        inp.write_text(json.dumps(obj))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["--command", "kernel", "--N", "3", "--input", str(inp),
                         "--output", str(out)])
        report = json.loads(out.read_text())
    assert code in (0, 1, 2)
    assert report["schema"] == 1 and report["command"] == "kernel"
    assert (code == 1) == ("error" in report)


def test_negative_seed_is_named(capsys):
    with pytest.raises(ValueError, match="--seed must be non-negative"):
        RunConfig("lift", seed=-1)
    assert main(["--command", "lift", "--seed", "-1"]) == 1
    assert "--seed must be non-negative, got -1" in json.loads(capsys.readouterr().err)["error"]


# Z_1 = Z_2 = 1e-200 are invertible, but Z^{(2)} = 1e-400 rounds to an exact 0
SINGULAR_PRODUCT = {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
                    "Z": {"matrices": {"1": [[1e-200]], "2": [[1e-200]]}}}


def test_underflowing_weight_product_is_named(tmp_path):
    path = write(tmp_path, "z.json", SINGULAR_PRODUCT)
    code, report = run(RunConfig("weights", input_path=path, N=2))
    assert code == 1
    assert report["error"] == "ValueError: Z.matrices: the product Z^{(2)} is not invertible"


# -- settings kept across calls ------------------------------------------------

CYCLE_S21 = {"graph": CYCLE, "sigma": [2, 1], "X": {"scalar": [0.5, 1 / 12]}, "instances": 2}
FREE2_S2 = {"graph": GRAPH2, "sigma": [2], "X": {"scalar": [0.5, 1 / 12]}, "instances": 2}
ONE_LOOP = dict(TWO_POINT, points=[{"scalar": [0.4, 0.0]}, {"scalar": [-0.3, 0.1]}])
# interleaved: each setting comes back after a call on the other one
SEQUENCE = [("lift", CYCLE_S21, 4), ("solve", ONE_LOOP, 20), ("weights", CYCLE_S21, 4),
            ("pick", ONE_LOOP, 20), ("fock", CYCLE_S21, 4), ("kernel", ONE_LOOP, 20)]


@pytest.fixture
def kept():
    """The CLI's kept settings, empty before and after the test."""
    cli._settings.clear()
    yield cli._settings
    cli._settings.clear()


def report_bytes(tmp_path, command, obj, n, seed=3):
    """(exit code, report bytes) of one call of the entry point."""
    inp, out = write(tmp_path, "in.json", obj), tmp_path / "out.json"
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["--command", command, "--input", inp, "--output", str(out),
                     "--N", str(n), "--seed", str(seed)])
    return code, out.read_bytes()


def test_kept_settings_give_the_reports_of_new_ones(tmp_path, kept):
    cold = []
    for command, obj, n in SEQUENCE:
        kept.clear()
        cold.append(report_bytes(tmp_path, command, obj, n))
    assert [code for code, _ in cold] == [0] * len(SEQUENCE)
    kept.clear()
    assert [report_bytes(tmp_path, *call) for call in SEQUENCE] == cold
    keys = list(kept)
    assert len(keys) == 2
    # a setting whose validation fails is named on every call and never kept
    code, blob = report_bytes(tmp_path, "weights", SINGULAR_PRODUCT, 2)
    assert code == 1
    assert "Z.matrices: the product Z^{(2)} is not invertible" in json.loads(blob)["error"]
    assert list(kept) == keys
    assert [report_bytes(tmp_path, *call) for call in SEQUENCE] == cold
    assert list(kept) == keys


def test_kept_arrays_are_read_only(tmp_path, kept):
    assert report_bytes(tmp_path, "lift", CYCLE_S21, 4)[0] == 0
    (setting, size), = kept.values()
    model, dual = setting.lift_model, setting.dual_lift_model
    for array in (setting.ws.Z[2], setting.ws.z_prod_inv(3), setting.x.R[1],
                  model.generators[0], model.insertions[2][0], model.z_star[0],
                  model.z_inv[-1], model.gathers[1][0], model.mixes[2][2],
                  dual.generators[-1], dual.gathers[1][1], dual.mixes[2][2]):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert size == cli._Walk(setting).nbytes > 0
    assert report_bytes(tmp_path, "solve", ONE_LOOP, 20)[0] == 0
    setting, size = list(kept.values())[-1]
    dual = setting.dual_lift_model
    for array in (dual.generators[0], dual.insertions[2][2], dual.level, dual.z_inv[0],
                  dual.gathers[2][1], dual.mixes[1][0]):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert size == cli._Walk(setting).nbytes > 0


def test_a_kept_setting_is_walked_again_only_when_a_call_grew_it(tmp_path, kept, monkeypatch):
    """A setting is walked in full when it is new and after a call that grew it (here the
    first lift, which adds the lift models); a repeat call walks nothing, and the kept
    size stays the full walk's."""
    walks = []
    walk = cli._Walk
    monkeypatch.setattr(cli, "_Walk", lambda root: walks.append(root) or walk(root))
    assert report_bytes(tmp_path, "weights", CYCLE_S21, 4)[0] == 0
    (setting, _), = kept.values()
    assert walks == [setting]
    for grows in (True, False):
        walks.clear()
        assert report_bytes(tmp_path, "lift", CYCLE_S21, 4)[0] == 0
        assert walks == ([setting] if grows else [])
        assert "lift_model" in vars(setting)
        assert kept[next(iter(kept))][1] == walk(setting).nbytes > 0


def test_solve_keeps_its_dual_lift_model(tmp_path, kept, monkeypatch):
    builds = []
    build = cli.dual_lift_model
    monkeypatch.setattr(cli, "dual_lift_model", lambda s: builds.append(1) or build(s))
    cold = report_bytes(tmp_path, "solve", ONE_LOOP, 20)
    assert cold[0] == 0 and len(builds) == 1
    assert report_bytes(tmp_path, "solve", ONE_LOOP, 20) == cold
    assert len(builds) == 1  # the second solve on the setting reads the kept model
    kept.clear()
    infeasible = dict(ONE_LOOP, F=[[[[0.95, 0.0]]], [[[-0.9, 0.0]]]])
    assert report_bytes(tmp_path, "solve", infeasible, 20)[0] == 2
    assert len(builds) == 1  # a problem the Pick test rejects builds none
    (setting, _), = kept.values()
    assert "dual_lift_model" not in vars(setting)


def test_lift_and_solve_share_one_dual_lift_model(tmp_path, kept, monkeypatch):
    """A lift draws its commutant elements from the dual lift model's generators, so a
    solve on the same setting reads the model the lift kept, and reports as if cold."""
    builds = []
    build = cli.dual_lift_model
    monkeypatch.setattr(cli, "dual_lift_model", lambda s: builds.append(1) or build(s))
    assert report_bytes(tmp_path, "lift", dict(ONE_LOOP, instances=1), 20)[0] == 0
    assert len(builds) == 1
    warm = report_bytes(tmp_path, "solve", ONE_LOOP, 20)
    assert warm[0] == 0 and len(builds) == 1 and len(kept) == 1
    kept.clear()
    assert report_bytes(tmp_path, "solve", ONE_LOOP, 20) == warm
    assert len(builds) == 2


# the digest inputs of the same names in tools/report_digests.py
SOLVE_FREE2_DENSE = {"graph": GRAPH2, "sigma": [1],
                     "X": {"matrices": {"1": [[1.0, 0.3], [0.3, 0.8]]}},
                     "points": [{"matrix": [[[0.1, 0.05], [-0.08, 0.0]]]},
                                {"matrix": [[[-0.05, 0.0], [0.02, 0.1]]]}],
                     "F": [[[[0.3, 0.1]]], [[[0.3, 0.1]]]]}
SOLVE_FREE2_CLAMPED = {"graph": GRAPH2, "sigma": [1], "X": {"scalar": [1.0]},
                       "points": [{"matrix": [[[-0.023, -0.149], [-0.086, -0.06]]]},
                                  {"matrix": [[[0.121, -0.007], [-0.006, 0.0]]]}],
                       "F": [[[[0.12, 0.004]]], [[[0.108, 0.001]]]]}


def _edges_swapped(obj):
    """The problem with the two edges of free(2) swapped: the point columns swapped and
    X_1 conjugated by the swap."""
    out = copy.deepcopy(obj)
    for point in out["points"]:
        point["matrix"] = [row[::-1] for row in point["matrix"]]
    if "matrices" in out["X"]:
        out["X"]["matrices"]["1"] = [row[::-1] for row in out["X"]["matrices"]["1"][::-1]]
    return out


@pytest.mark.parametrize("obj", [SOLVE_FREE2_DENSE, SOLVE_FREE2_CLAMPED], ids=["dense", "clamped"])
def test_solve_is_symmetric_under_the_edge_swap(tmp_path, obj):
    """Relabelling the edges of free(2) leaves the solve's verdict, exit code and Choi
    eigenvalue bit for bit, and its norm and evaluations within 1e-12.  The intertwining
    residuals are not compared: they measure the truncation edge, and move by far more
    than roundoff."""
    (code, plain), (code_swapped, swapped) = (
        (code, json.loads(blob)) for code, blob in
        (report_bytes(tmp_path, "solve", problem, 5) for problem in (obj, _edges_swapped(obj))))
    assert code == code_swapped == 0
    assert plain["verdict"] == swapped["verdict"] == "solved"
    assert plain["choi_min_eig"] == swapped["choi_min_eig"]
    assert abs(plain["norm"]["value"] - swapped["norm"]["value"]) <= 1e-12
    assert np.abs(np.array(plain["evaluations"]) - np.array(swapped["evaluations"])).max() <= 1e-12


# the digest input pick-cycle3 of tools/report_digests.py: sigma (2, 1, 1), h = 4
PICK_CYCLE3 = {"graph": {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
               "sigma": [2, 1, 1], "X": {"scalar": [0.5, 0.08333333333333333]},
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
                      [[0, 0], [0, 0], [0.5, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [0.5, 0]]]] * 4}


def _vertices_rotated(obj):
    """The problem with vertex v of the cycle relabelled v + 1: each edge keeps its id, and
    sigma and the H blocks of the points and of F (s = t = 1) move with their vertex."""
    out = copy.deepcopy(obj)
    n, sigma = obj["graph"]["vertices"], obj["sigma"]
    out["graph"]["edges"] = [[(a + 1) % n, (b + 1) % n] for a, b in obj["graph"]["edges"]]
    out["sigma"] = [sigma[(v - 1) % n] for v in range(n)]
    offsets = np.cumsum([0] + sigma)
    perm = [i for v in range(n) for i in range(offsets[(v - 1) % n], offsets[(v - 1) % n + 1])]
    for point, old in zip(out["points"], obj["points"]):
        point["matrix"] = [old["matrix"][i] for i in perm]  # the level-one coordinates stay
    out["F"] = [[[f[i][j] for j in perm] for i in perm] for f in obj["F"]]
    return out


def test_pick_and_solve_are_symmetric_under_a_rotation_of_the_cycle_vertices(tmp_path):
    """Relabelling the vertices of the 3-cycle, with sigma and the H blocks permuted to
    match, reorders the vertex blocks of the Choi matrix: pick keeps its verdict and
    choi_min_eig within 1e-12 max(1, choi_norm), and solve its exit code and its norm
    within 1e-10."""
    rotated = _vertices_rotated(PICK_CYCLE3)
    assert rotated["sigma"] == [1, 2, 1] and rotated["graph"]["edges"] == [[1, 2], [2, 0], [0, 1]]
    (code, plain), (code_rot, rot) = (
        (code, json.loads(blob)) for code, blob in
        (report_bytes(tmp_path, "pick", problem, 6) for problem in (PICK_CYCLE3, rotated)))
    assert code == code_rot == 0
    assert plain["verdict"] == rot["verdict"] == "completely-positive"
    bound = 1e-12 * max(1.0, plain["choi_norm"])
    assert abs(plain["choi_min_eig"]["value"] - rot["choi_min_eig"]["value"]) <= bound
    (code, plain), (code_rot, rot) = (
        (code, json.loads(blob)) for code, blob in
        (report_bytes(tmp_path, "solve", problem, 6) for problem in (PICK_CYCLE3, rotated)))
    assert code == code_rot == 0
    assert abs(plain["norm"]["value"] - rot["norm"]["value"]) <= 1e-10


def test_warm_fock_builds_no_induced_space(tmp_path, kept, monkeypatch):
    builds = []
    init = InducedSpace.__init__
    monkeypatch.setattr(InducedSpace, "__init__",
                        lambda self, *a, **kw: builds.append(1) or init(self, *a, **kw))
    cold = report_bytes(tmp_path, "fock", CYCLE_S21, 4)
    assert cold[0] == 0 and len(builds) == 1  # the setting's own, shared by the handy sums
    assert report_bytes(tmp_path, "fock", CYCLE_S21, 4) == cold
    assert len(builds) == 1


def test_kept_settings_fit_the_byte_budget(tmp_path, kept, monkeypatch):
    sizes = []
    for obj in (CYCLE_S21, FREE2_S2):
        kept.clear()
        report_bytes(tmp_path, "lift", obj, 3)
        sizes.append(next(iter(kept.values()))[1])
    monkeypatch.setattr(cli, "SETTING_BYTES", sum(sizes) - 1)  # one fits, not both
    kept.clear()
    for obj in (CYCLE_S21, FREE2_S2, CYCLE_S21):
        report_bytes(tmp_path, "lift", obj, 3)
        assert sum(cli._Walk(s).nbytes for s, _ in kept.values()) <= cli.SETTING_BYTES
        (setting, _), = kept.values()  # the least recently used one was dropped
        assert setting.graph == decode_graph(obj["graph"])


def test_a_setting_over_the_budget_is_used_but_not_kept(tmp_path, kept, monkeypatch):
    cold = report_bytes(tmp_path, "lift", CYCLE_S21, 4)
    kept.clear()
    monkeypatch.setattr(cli, "SETTING_BYTES", 1)
    assert report_bytes(tmp_path, "lift", CYCLE_S21, 4) == cold
    assert not kept


def _feasible_solve_mix_inputs(seed):
    """The inputs of the first problem of each feasible solve-mix template of perfbench."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [(t.name, t.N, workloads.make_problem("solve-mix", seed, i).input)
            for i, t in enumerate(workloads.SOLVE_MIX) if t.feasible]


def _points_permuted(obj, perm):
    out = copy.deepcopy(obj)
    for key in ("points", "F", "B"):
        if key in out:
            out[key] = [obj[key][p] for p in perm]
    return out


SOLVE_MIX_SEED1 = _feasible_solve_mix_inputs(1)


@pytest.mark.parametrize("name, n, obj", SOLVE_MIX_SEED1, ids=[name for name, _, _ in SOLVE_MIX_SEED1])
def test_pick_and_solve_are_symmetric_under_a_permutation_of_the_points(tmp_path, name, n, obj):
    """Reordering the points with their targets permutes the Choi matrix by a unitary, so
    the verdict holds, choi_min_eig moves by roundoff and the per-point kernel tails
    permute bit for bit; the solve keeps its exit code and its norm within 1e-10."""
    perm = list(range(1, len(obj["points"]))) + [0]
    (code, plain), (code_perm, permuted) = (
        (code, json.loads(blob)) for code, blob in
        (report_bytes(tmp_path, "pick", problem, n) for problem in (obj, _points_permuted(obj, perm))))
    assert code == code_perm == 0
    assert plain["verdict"] == permuted["verdict"]
    bound = 1e-12 * max(1.0, plain["choi_norm"])
    assert abs(plain["choi_min_eig"]["value"] - permuted["choi_min_eig"]["value"]) <= bound
    assert permuted["kernel_tails"] == [plain["kernel_tails"][p] for p in perm]
    (code, plain), (code_perm, permuted) = (
        (code, json.loads(blob)) for code, blob in
        (report_bytes(tmp_path, "solve", problem, n) for problem in (obj, _points_permuted(obj, perm))))
    assert code == code_perm
    assert abs(plain["norm"]["value"] - permuted["norm"]["value"]) <= 1e-10
