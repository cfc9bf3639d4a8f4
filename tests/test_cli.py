import json
import subprocess
import sys

import numpy as np
import pytest

from wfock.cli import RunConfig, run


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


def test_bad_command_rejected():
    with pytest.raises(ValueError):
        RunConfig("plot")
    with pytest.raises(ValueError):
        RunConfig("solve", N=0)


TWO_POINT = {"graph": {"vertices": 1, "edges": [[0, 0]]}, "X": {"scalar": [1.0]},
             "points": [{"scalar": [0.4, 0.0]}, {"scalar": [-0.3, 0.0]}],
             "F": [[[[0.3, 0.0]]], [[[0.1, 0.0]]]]}


@pytest.mark.parametrize("command, obj, field", [
    ("solve", [1, 2], "object"),
    ("weights", [1, 2], "object"),
    ("solve", dict(TWO_POINT, points=3), "points"),
])
def test_wrong_input_type_is_named(tmp_path, command, obj, field):
    code, report = run(RunConfig(command, input_path=write(tmp_path, "t.json", obj), N=4))
    assert code == 1
    assert field in report["error"]


@pytest.mark.parametrize("eps", [float("nan"), -1.0])
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
    ("validate", {"kernel_coeffs": [1.0, float("nan"), 0.3]}, "kernel coefficients"),
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
