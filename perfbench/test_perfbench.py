"""Checks on the benchmark itself; run with ``python3 -m pytest perfbench -q``.

The traced-run test takes about half a minute: it runs the lift-graphs
rotation twice in fresh processes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]


def _traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed), "--trace", "1"],
                          capture_output=True, text=True, cwd=ROOT, timeout=300, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "_run" / "results" /
                         f"{workload}-seed{seed}-trace1.json").read_text())
    return last, record


def test_traced_counts_and_reports_repeat():
    first, rec1 = _traced("lift-graphs", 5)
    second, rec2 = _traced("lift-graphs", 5)
    assert first["correct"] and second["correct"]
    m1, m2 = first["metrics"], second["metrics"]
    assert set(m1) == set(m2)
    counts = [k for k in m1 if m1[k]["unit"] == "count"]
    assert "linalg.operator_norm.calls" in counts
    for key in counts + ["graphs.path_basis.hit_ratio"]:
        assert m1[key]["value"] == m2[key]["value"], key
    assert rec1["report_sha256"] == rec2["report_sha256"]
    # lift-graphs never reaches interpolation
    assert all(m1[k]["value"] == 0 for k in m1
               if k.startswith("interpolation.") and m1[k]["unit"] == "count")
    assert rec1["samples"]["self_time_balance_s"] <= 1e-6


def test_refuses_without_program_sources():
    bare = HERE / "_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-mix",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_verifier_rejects_broken_reports():
    kernel = {"kernel": {"0,0": {"cauchy_residual": {"value": 1e-3, "tol": 1e-9}}}}
    assert verify.check_step("kernel", 0, 0, kernel, 1)
    ok = {"kernel": {"0,0": {"cauchy_residual": {"value": 1e-12, "tol": 1e-9}}}}
    assert verify.check_step("kernel", 0, 0, ok, 1) == []
    assert verify.check_step("solve", 0, 2, {"rejected": {"verdict": verify.REJECTED}}, 2)
    assert verify.check_step("pick", 2, 1, {"error": "ValueError: x"}, 2)
    lift = {"instances": [{"trial": 0, "conclusions": {"norm": {"value": 2e-8, "tol": 1e-7}},
                           "steps": [{"m": 1, "alpha_beta_worst": 1e-12}]}]}
    assert verify.check_step("lift", 0, 0, lift, 0)
