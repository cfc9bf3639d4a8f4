"""The acceptance suite: nine criteria with pinned tolerances.

Each criterion returns a dict with a pass flag, the worst residual observed,
and enough detail to diagnose a failure.  ``run_all`` aggregates them into a
deterministic report: same seed, same bytes.  The CLI selftest command and
the test suite both run exactly this code.
"""

from __future__ import annotations

import json

import numpy as np

from .duality import (
    DualStructure,
    commutation_check_section5,
    dual_lift_model,
    dual_weights,
    omega_checks,
    primal_generators,
    primal_lift_model,
    u_k_unitarity_residual,
)
from .fock import TruncatedFock, handysums_check, multiplicativity_residual, phi_inf, \
    sums_to_projection_check, weighted_creation
from .graphs import CorrElement, GraphCorrespondence, _masked_gather, path_basis
from .induced import InducedSpace, Representation
from .interpolation import (
    CauchyKernel,
    DiscPoint,
    PickProblem,
    hat_eval,
    np_solve,
    phi_map,
    pick_map_cp_test,
    szego_kernel,
    word_matrix,
)
from .liftcheck import alphabeta_validator, compression_instance
from .lifting import ParrottProblem, commutant_lift, parrott_complete
from .linalg import operator_norm, residual, rng_complex
from .weights import (
    AdmissibleSequence,
    admissible_from_kernel_coeffs,
    scalar_r2,
    weight_system_from,
)

FREE1 = GraphCorrespondence.free(1)
FREE2 = GraphCorrespondence.free(2)
CYCLE2 = GraphCorrespondence.cycle(2)
TRIANGLE = GraphCorrespondence(3, ((0, 1), (1, 2), (2, 0), (0, 0)))


def _f(x) -> float:
    return float(np.real_if_close(x))


def _criterion(cid, name, worst, threshold, details=None, passed=None):
    ok = bool(worst <= threshold) if passed is None else bool(passed)
    return {"id": cid, "name": name, "passed": ok, "worst": _f(worst),
            "threshold": threshold, "details": details or {}}


def _random_graph_x(graph: GraphCorrespondence, levels: int,
                    rng: np.random.Generator) -> AdmissibleSequence:
    mats = [np.zeros((graph.n_vertices,) * 2, dtype=complex)]
    for k in range(1, levels + 1):
        basis = path_basis(graph, k)
        d = basis.size
        paths = np.arange(d)
        # one key per (source, range) pair: b keeps entries between paths of equal ends
        ends = (np.array(basis.sources, dtype=np.intp) * graph.n_vertices
                + np.array(basis.ranges, dtype=np.intp))
        b = _masked_gather(rng_complex(rng, d, d), paths, paths, ends, ends)
        m = 0.2 * (0.5 ** k) * (b @ b.conj().T)
        if k == 1:
            m = m + 0.5 * np.eye(d)
        mats.append(m)
    return AdmissibleSequence(graph, levels, mats)


def _dirichlet_x(graph: GraphCorrespondence, levels: int) -> AdmissibleSequence:
    xs, ok, _ = admissible_from_kernel_coeffs([1 / (k + 1) for k in range(levels + 1)])
    assert ok
    return AdmissibleSequence.from_scalar(graph, xs, levels=levels)


def _random_point(ind: InducedSpace, x: AdmissibleSequence, rng: np.random.Generator,
                  radius: float) -> DiscPoint:
    """A disc point of norm ``radius`` with one random entry per edge (multiplicities one)."""
    zmat = np.zeros((ind.rep.h_dim, ind.level_dim(1)), dtype=complex)
    for e in range(ind.graph.n_edges):
        esl = slice(ind.block_offsets[1][e], ind.block_offsets[1][e + 1])
        zmat[ind.rep.block(ind.graph.range_(e)), esl] = rng_complex(rng, 1, 1)
    zmat *= radius / operator_norm(zmat)
    return DiscPoint(ind, x, zmat)


def criterion_1_weight_identities(seed: int) -> dict:
    """Z^{(k)*} Z^{(k)} = R_k^{-2} and the first-part recursion for R_k^2."""
    rng = np.random.default_rng(seed)
    from .graphs import embed_prefix, embed_suffix

    worst = 0.0
    cases = []
    n_scalar = 12
    seqs = [("hardy", AdmissibleSequence.from_scalar(FREE1, [1.0], levels=n_scalar)),
            ("dirichlet", _dirichlet_x(FREE1, n_scalar))]
    for i in range(5):
        xs = np.concatenate([[rng.uniform(0.3, 1.2)], rng.uniform(0.0, 0.4, n_scalar - 1)
                             * 0.5 ** np.arange(1, n_scalar)])
        seqs.append((f"random_scalar_{i}", AdmissibleSequence.from_scalar(FREE1, xs, levels=n_scalar)))
    for i, graph in enumerate((FREE2, CYCLE2, TRIANGLE)):
        seqs.append((f"random_graph_{i}", _random_graph_x(graph, 4, rng)))
    for name, x in seqs:
        g = x.graph
        R = x.R
        ws = weight_system_from(x)
        case_worst = 0.0
        for k in range(1, x.levels + 1):
            d = path_basis(g, k).size
            if d == 0:
                continue
            zp = ws.z_prod(k)
            r2 = R[k] @ R[k]
            case_worst = max(case_worst, residual(zp.conj().T @ zp, np.linalg.inv(r2)))
            acc = np.zeros((d, d), dtype=complex)
            for j in range(1, k + 1):
                if k - j == 0:
                    acc += x.X[j]
                else:
                    acc += embed_prefix(g, x.X[j], j, k) @ embed_suffix(g, R[k - j] @ R[k - j],
                                                                        k - j, k)
            case_worst = max(case_worst, residual(acc, r2))
        cases.append({"case": name, "worst": _f(case_worst)})
        worst = max(worst, case_worst)
    return _criterion(1, "weight-system identities", worst, 1e-10, {"cases": cases})


def criterion_2_scalar_bridge(seed: int) -> dict:
    """Hardy accepted, Dirichlet accepted with the known values, Bergman rejected."""
    n = 20
    checks = {}
    xs, ok, _ = admissible_from_kernel_coeffs([1.0] * (n + 1))
    checks["hardy"] = ok and abs(xs[0] - 1.0) < 1e-14 and max(abs(v) for v in xs[1:]) < 1e-14
    a_dir = [1 / (k + 1) for k in range(n + 1)]
    xs, ok, _ = admissible_from_kernel_coeffs(a_dir)
    checks["dirichlet"] = ok and abs(xs[0] - 0.5) < 1e-14 and abs(xs[1] - 1 / 12) < 1e-14
    xs_b, ok_b, reason = admissible_from_kernel_coeffs([k + 1 for k in range(n + 1)])
    checks["bergman_rejected"] = (not ok_b) and abs(xs_b[1] + 1.0) < 1e-14
    rng = np.random.default_rng(seed)
    worst = 0.0
    for a in ([1.0] * (n + 1), a_dir,
              [1.0] + list(rng.uniform(0.1, 1.5, n))):
        xs, _, _ = admissible_from_kernel_coeffs(a)
        back = scalar_r2(xs, n)
        worst = max(worst, max(abs(u - v) for u, v in zip(back, a)))
    passed = all(checks.values()) and worst <= 1e-10
    return _criterion(2, "scalar kernel bridge", worst, 1e-10, checks, passed=passed)


def criterion_3_fock_exactness(seed: int) -> dict:
    """Algebra relations and summation lemmas hold exactly on truncations."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    details = []
    configs = [(FREE2, "szego", (1,)), (FREE2, "dirichlet", (1,)),
               (CYCLE2, "dirichlet", (2, 1)), (TRIANGLE, "dirichlet", (1, 1, 1))]
    for graph, kind, mults in configs:
        n = 4
        x = (AdmissibleSequence.from_scalar(graph, [1.0], levels=n) if kind == "szego"
             else _dirichlet_x(graph, n))
        ws = weight_system_from(x)
        space = TruncatedFock(graph, n)
        case_worst = 0.0
        d1, d2 = path_basis(graph, 1).size, path_basis(graph, 2).size
        xi = CorrElement(1, rng_complex(rng, d1))
        eta = CorrElement(2, rng_complex(rng, d2))
        case_worst = max(case_worst, multiplicativity_residual(space, ws, xi, eta))
        a = rng_complex(rng, graph.n_vertices)
        b = rng_complex(rng, graph.n_vertices)
        basis2 = path_basis(graph, 2)
        scaled = CorrElement(2, a[list(basis2.ranges)] * eta.coeffs * b[list(basis2.sources)])
        lhs = weighted_creation(space, ws, scaled).matrix
        rhs = phi_inf(space, a).matrix @ weighted_creation(space, ws, eta).matrix \
            @ phi_inf(space, b).matrix
        case_worst = max(case_worst, residual(lhs, rhs))
        ind = InducedSpace(graph, Representation(mults), n)
        for k in range(0, n):
            report = handysums_check(space, k, rng=rng, ind=ind)
            case_worst = max(case_worst, max(report.values()))
        case_worst = max(case_worst, sums_to_projection_check(space, x, ws))
        details.append({"graph": f"{graph.n_vertices}v{graph.n_edges}e", "kind": kind,
                        "worst": _f(case_worst)})
        worst = max(worst, case_worst)
    return _criterion(3, "truncated Fock exactness", worst, 1e-10, {"cases": details})


def criterion_4_parrott(seed: int) -> dict:
    """1000 random completions meet the optimal bound to relative 1e-8."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        a, b, c, d = rng.integers(1, 9, size=4)
        p = ParrottProblem(rng_complex(rng, a, b), rng_complex(rng, c, b),
                           rng_complex(rng, a, d))
        u = parrott_complete(p)
        norm = operator_norm(p.assemble(u))
        worst = max(worst, abs(norm - p.mu) / max(p.mu, 1e-30))
    return _criterion(4, "Parrott optimality", worst, 1e-8, {"instances": 1000})


def criterion_5_commutant_lifting(seed: int) -> dict:
    """20 seeded instances: four conclusions and the eight step identities."""
    rng = np.random.default_rng(seed)
    configs = [(FREE2, (1,), 3, "szego"), (FREE2, (1,), 3, "dirichlet"),
               (CYCLE2, (1, 1), 4, "dirichlet"), (CYCLE2, (2, 1), 3, "dirichlet")]
    worst_concl = 0.0
    worst_ab = 0.0
    done = 0
    attempts = 0
    per_instance = []
    while done < 20 and attempts < 80:
        graph, mults, n, kind = configs[attempts % len(configs)]
        attempts += 1
        x = (AdmissibleSequence.from_scalar(graph, [1.0], levels=n) if kind == "szego"
             else _dirichlet_x(graph, n))
        ws = weight_system_from(x)
        ind = InducedSpace(graph, Representation(mults), n)
        model = primal_lift_model(ind, ws)
        dual_gens = dual_lift_model(DualStructure(ind, ws)).generators
        frame, g_on_j, _ = compression_instance(model, dual_gens, rng)
        if frame.shape[1] >= model.dim:
            continue
        validator = alphabeta_validator(ind, seed=seed + attempts)
        _, trace = commutant_lift(model, frame, g_on_j, step_validator=validator)
        concl = max(trace["conclusions"].values())
        ab = max((max(step["extra"].values()) for step in trace["steps"] if "extra" in step),
                 default=0.0)
        per_instance.append({"config": f"{graph.n_vertices}v-{kind}-{mults}",
                             "conclusions": _f(concl), "alpha_beta": _f(ab)})
        worst_concl = max(worst_concl, concl)
        worst_ab = max(worst_ab, ab)
        done += 1
    passed = done == 20 and worst_concl <= 1e-8 and worst_ab <= 1e-9
    return _criterion(5, "weighted commutant lifting", max(worst_concl, worst_ab), 1e-8,
                      {"instances": done, "worst_conclusion": _f(worst_concl),
                       "worst_alpha_beta": _f(worst_ab)}, passed=passed)


def criterion_6_duality(seed: int) -> dict:
    """U_k unitarity, the weight transport law, omega conjugation, commutation."""
    worst_u = 0.0
    for graph, mults in [(FREE2, (1,)), (CYCLE2, (1, 1)), (CYCLE2, (2, 1))]:
        for k in range(0, 3):
            worst_u = max(worst_u, u_k_unitarity_residual(graph, Representation(mults), k))
    worst_l51 = 0.0
    worst_comm = 0.0
    for graph, mults, n in [(FREE2, (1,), 4), (CYCLE2, (1, 1), 4), (CYCLE2, (2, 1), 3),
                            (TRIANGLE, (1, 1, 1), 3)]:
        x = _dirichlet_x(graph, n)
        ws = weight_system_from(x)
        ind = InducedSpace(graph, Representation(mults), n)
        data = dual_weights(DualStructure(ind, ws), x)
        worst_l51 = max(worst_l51, max(data.residuals.values()))
        worst_comm = max(worst_comm, commutation_check_section5(ind, ws)["max_commutator"])
    worst_omega = 0.0
    for graph, n in [(FREE2, 3), (CYCLE2, 4)]:
        rep = Representation((1,) * graph.n_vertices)
        x = _dirichlet_x(graph, n)
        ws = weight_system_from(x)
        out = omega_checks(InducedSpace(graph, rep, n), ws, x)
        worst_omega = max(worst_omega, max(out.values()))
    passed = worst_u <= 1e-10 and worst_l51 <= 1e-9 and worst_omega <= 1e-9 and worst_comm <= 1e-8
    return _criterion(6, "duality identities", max(worst_u, worst_l51, worst_omega, worst_comm),
                      1e-8, {"u_k_unitarity": _f(worst_u), "weight_transport": _f(worst_l51),
                             "omega_conjugation": _f(worst_omega),
                             "commutation": _f(worst_comm)}, passed=passed)


def criterion_7_kernels(seed: int) -> dict:
    """Neumann identity within combined tails; the classical kernel closed form."""
    rng = np.random.default_rng(seed)
    n = 40
    worst_margin = 0.0
    details = {}
    ind = InducedSpace(FREE1, Representation((1,)), n)
    for kind in ("szego", "dirichlet"):
        x = (AdmissibleSequence.from_scalar(FREE1, [1.0], levels=n) if kind == "szego"
             else _dirichlet_x(FREE1, n))
        z = DiscPoint.scalar(ind, x, 0.55)
        out = phi_map(z, np.array([[1.3 - 0.4j]]))
        details[f"neumann_{kind}"] = _f(out.neumann_residual)
        worst_margin = max(worst_margin, out.neumann_residual - out.tail - out.level_tail)
    x = AdmissibleSequence.from_scalar(FREE1, [1.0], levels=n)
    ws = weight_system_from(x)
    worst_kernel = 0.0
    for _ in range(10):
        wv = (rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)) / np.sqrt(2)
        zv = (rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)) / np.sqrt(2)
        w = DiscPoint.scalar(ind, x, wv)
        z = DiscPoint.scalar(ind, x, zv)
        value, tail, cres = szego_kernel(CauchyKernel(w, ws), CauchyKernel(z, ws), np.eye(1))
        gap = abs(value[0, 0] - 1.0 / (1.0 - wv * np.conj(zv))) - tail
        worst_kernel = max(worst_kernel, gap, cres - 1e-9)
    n_g = 6
    graph = CYCLE2
    xg = _dirichlet_x(graph, n_g)
    ind_g = InducedSpace(graph, Representation((1, 1)), n_g)
    rng2 = np.random.default_rng(seed + 1)
    zg = _random_point(ind_g, xg, rng2, 0.5)
    a_rand = np.diag(rng_complex(rng2, 2))
    outg = phi_map(zg, a_rand)
    worst_margin = max(worst_margin, outg.neumann_residual - outg.tail - outg.level_tail)
    details["neumann_graph"] = _f(outg.neumann_residual)
    passed = worst_margin <= 1e-9 and worst_kernel <= 1e-10
    return _criterion(7, "kernel identities", max(worst_margin, worst_kernel, 0.0), 1e-9,
                      details, passed=passed)


def _scalar_problem(ind, x, zs, lams):
    points = [DiscPoint.scalar(ind, x, zv) for zv in zs]
    return PickProblem(points, [np.eye(1, dtype=complex)] * len(zs),
                       [np.array([[l]], dtype=complex) for l in lams])


def _classical_det(z1, z2, l1, l2):
    p11 = (1 - abs(l1) ** 2) / (1 - abs(z1) ** 2)
    p22 = (1 - abs(l2) ** 2) / (1 - abs(z2) ** 2)
    p12 = (1 - l1 * np.conj(l2)) / (1 - z1 * np.conj(z2))
    return float((p11 * p22 - abs(p12) ** 2).real)


def criterion_8_interpolation(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    details = {}
    n = 40
    ind = InducedSpace(FREE1, Representation((1,)), n)
    x = AdmissibleSequence.from_scalar(FREE1, [1.0], levels=n)

    # (a) verdict sweep against the pseudo-hyperbolic criterion
    z1, z2 = 0.4, -0.2
    a_mob = 0.15
    lb1 = (z1 - a_mob) / (1 - a_mob * z1)
    lb2 = (z2 - a_mob) / (1 - a_mob * z2)
    sweep_ok = True
    mismatches = []
    for c in np.linspace(0.2, 1.6, 20):
        l1, l2 = c * lb1, c * lb2
        if max(abs(l1), abs(l2)) >= 1:
            continue
        det = _classical_det(z1, z2, l1, l2)
        report = pick_map_cp_test(_scalar_problem(ind, x, [z1, z2], [l1, l2]))
        if det > 1e-8 and not report.is_cp:
            sweep_ok = False
            mismatches.append(float(c))
        if det < -1e-8 and report.is_cp:
            sweep_ok = False
            mismatches.append(float(c))
    boundary = pick_map_cp_test(_scalar_problem(ind, x, [z1, z2], [lb1, lb2]))
    details["sweep_mismatches"] = mismatches
    details["boundary_min_eig"] = _f(boundary.min_eigenvalue)
    sweep_ok = sweep_ok and abs(boundary.min_eigenvalue) <= 1e-8 * max(1.0, boundary.choi_norm)

    # (b) forward instances: CP holds and the solver recovers the targets
    worst_res = 0.0
    worst_norm = 0.0
    xd = _dirichlet_x(FREE1, n)
    wsd = weight_system_from(xd)
    for trial in range(2):
        y_mat = word_matrix(ind, wsd, [("xi", CorrElement(1, rng_complex(rng, 1)))]) \
            + word_matrix(ind, wsd, [("xi", CorrElement(2, rng_complex(rng, 1)))]) \
            + 0.3 * np.eye(ind.dim)
        y_mat /= operator_norm(y_mat) * 1.25
        zs = [0.3 + 0.1j, -0.35, 0.1 - 0.45j]
        points = [DiscPoint.scalar(ind, xd, zv) for zv in zs]
        F = [hat_eval(z, wsd, y_mat) for z in points]
        prob = PickProblem(points, [np.eye(1, dtype=complex)] * 3, F)
        rep_fwd = pick_map_cp_test(prob)
        if not rep_fwd.is_cp:
            worst_res = np.inf
            continue
        out = np_solve(prob, wsd)
        worst_res = max(worst_res, max(out.residuals))
        worst_norm = max(worst_norm, out.norm - 1.0)
    graph = CYCLE2
    n_g = 5
    xg = AdmissibleSequence.from_scalar(graph, [1.0], levels=n_g)
    wsg = weight_system_from(xg)
    ind_g = InducedSpace(graph, Representation((1, 1)), n_g)
    gens = [m for _, m in primal_generators(ind_g, wsg)]
    y_mat = sum(c * g for c, g in zip(rng_complex(rng, len(gens)), gens))
    y_mat = y_mat @ gens[2] + 0.2 * np.eye(ind_g.dim)
    y_mat /= operator_norm(y_mat) * 1.3
    pts = [_random_point(ind_g, xg, np.random.default_rng(seed + sd), 0.01) for sd in (5, 9)]
    prob_g = PickProblem(pts, [np.eye(2, dtype=complex)] * 2,
                         [hat_eval(z, wsg, y_mat) for z in pts])
    rep_fwd_g = pick_map_cp_test(prob_g)
    out_g = np_solve(prob_g, wsg)
    worst_res = max(worst_res, max(out_g.residuals))
    worst_norm = max(worst_norm, out_g.norm - 1.0)
    details["forward_worst_residual"] = _f(worst_res)
    details["forward_norm_excess"] = _f(worst_norm)
    fwd_ok = bool(rep_fwd_g.is_cp) and worst_res <= 1e-7 and worst_norm <= 1e-8

    # (c) scaled-infeasible boundary targets
    infeasible = pick_map_cp_test(_scalar_problem(ind, x, [z1, z2],
                                                  [1.05 * lb1, 1.05 * lb2]))
    details["infeasible_min_eig"] = _f(infeasible.min_eigenvalue)
    infeasible_ok = infeasible.min_eigenvalue < -1e-6

    # (d) the Pick data does not depend on the weight sequence
    from .weights import WeightSystem

    prob_d = _scalar_problem(ind, xd, [0.3, -0.25], [0.4, 0.1])
    choi_plain = pick_map_cp_test(prob_d).choi
    choi_canon = pick_map_cp_test(prob_d, ws=wsd).choi
    flipped = WeightSystem(FREE1, n, [wsd.Z[0]] + [-z for z in wsd.Z[1:]], R=xd.R)
    choi_flip = pick_map_cp_test(prob_d, ws=flipped).choi
    weight_gap = max(residual(choi_canon, choi_plain), residual(choi_flip, choi_plain))
    details["weight_independence_gap"] = _f(weight_gap)

    passed = sweep_ok and fwd_ok and infeasible_ok and weight_gap <= 1e-9
    worst = max(worst_res, worst_norm, weight_gap)
    return _criterion(8, "interpolation equivalence and solver", worst, 1e-7, details,
                      passed=passed)


def criterion_9_determinism(seed: int) -> dict:
    """Two runs of the fast criteria with one seed give identical bytes."""
    fast = [criterion_1_weight_identities, criterion_2_scalar_bridge,
            criterion_3_fock_exactness, criterion_4_parrott]
    blob1 = json.dumps([f(seed) for f in fast], sort_keys=True)
    blob2 = json.dumps([f(seed) for f in fast], sort_keys=True)
    same = blob1 == blob2
    return _criterion(9, "determinism", 0.0 if same else 1.0, 0.0,
                      {"bytes": len(blob1)}, passed=same)


CRITERIA = [
    criterion_1_weight_identities,
    criterion_2_scalar_bridge,
    criterion_3_fock_exactness,
    criterion_4_parrott,
    criterion_5_commutant_lifting,
    criterion_6_duality,
    criterion_7_kernels,
    criterion_8_interpolation,
    criterion_9_determinism,
]


def run_all(seed: int = 0) -> dict:
    """Run every criterion; the report is deterministic for a fixed seed."""
    results = [fn(seed) for fn in CRITERIA]
    return {
        "schema": 1,
        "seed": seed,
        "criteria": results,
        "passed": all(r["passed"] for r in results),
    }
