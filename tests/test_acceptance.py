"""The acceptance gate: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line; the aggregate report must also be
deterministic under a fixed seed.
"""

import json

from wfock import acceptance

SEED = 20240801


def _run(fn):
    report = fn(SEED)
    status = "PASS" if report["passed"] else "FAIL"
    print(f"ACCEPTANCE {report['id']}: {status} - {report['name']} "
          f"(worst {report['worst']:.3e}, threshold {report['threshold']:.0e})")
    assert report["passed"], report
    return report


def test_criterion_1_weight_identities():
    _run(acceptance.criterion_1_weight_identities)


def test_criterion_2_scalar_bridge():
    _run(acceptance.criterion_2_scalar_bridge)


def test_criterion_3_fock_exactness():
    _run(acceptance.criterion_3_fock_exactness)


def test_criterion_4_parrott():
    _run(acceptance.criterion_4_parrott)


def test_criterion_5_commutant_lifting():
    report = _run(acceptance.criterion_5_commutant_lifting)
    assert report["details"]["instances"] == 20
    assert report["details"]["worst_alpha_beta"] <= 1e-9


def test_criterion_6_duality():
    report = _run(acceptance.criterion_6_duality)
    d = report["details"]
    assert d["u_k_unitarity"] <= 1e-10
    assert d["weight_transport"] <= 1e-9
    assert d["omega_conjugation"] <= 1e-9
    assert d["commutation"] <= 1e-8


def test_criterion_7_kernels():
    _run(acceptance.criterion_7_kernels)


def test_criterion_8_interpolation():
    report = _run(acceptance.criterion_8_interpolation)
    d = report["details"]
    assert d["sweep_mismatches"] == []
    assert d["forward_worst_residual"] <= 1e-7
    assert d["forward_norm_excess"] <= 1e-8
    assert d["infeasible_min_eig"] < -1e-6
    assert d["weight_independence_gap"] <= 1e-9


def test_criterion_9_determinism():
    _run(acceptance.criterion_9_determinism)


def test_full_report_deterministic():
    blob1 = json.dumps(acceptance.run_all(7), sort_keys=True)
    blob2 = json.dumps(acceptance.run_all(7), sort_keys=True)
    assert blob1 == blob2
