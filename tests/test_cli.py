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

from wfock.cli import RunConfig, main, run


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
])
def test_wrong_input_type_is_named(tmp_path, command, obj, field):
    code, report = run(RunConfig(command, input_path=write(tmp_path, "t.json", obj), N=4))
    assert code == 1
    assert field in report["error"]


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
