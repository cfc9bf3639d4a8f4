"""wfock benchmark: seeded CLI problems, verified reports, per-module spans.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The benchmark is a closed loop with one client: problems of the workload run
one after another in this process, each through ``wfock.cli.main(argv)`` with
``--output`` to a file, and every report is verified before the next problem
starts.  ``--trace 0`` runs problems for ``--seconds`` of wall time and
reports the end-to-end metrics.  Problem and set-up times are process CPU
times stated in reference seconds, which divides out the speed swings of a
shared host (see hostspeed.py); the plain wall-clock figures are printed
beside them.  ``--trace 1`` runs one full rotation of the workload untraced,
then again with every wfock module wrapped in spans (see spans.py), and
reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give each metric with its unit and sample count, the environment, and the
ids of failed problems.  A fuller record of each run goes to
``perfbench/_run/results/``.
"""

import os

BLAS_THREADS = 1
# fixed before numpy loads; probe processes inherit the environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUN_DIR = HERE / "_run"
WORKLOAD_NAMES = ("solve-mix", "kernel-table", "lift-graphs")
# a claimed speed-up must also hold on this seed, which no tuning of the benchmark used
HELD_OUT_SEED = 20261017
SETUP_PROBES = 5
SETUP_BLOCKS = 3
PROBE_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, a broken probe)."""


def import_wfock():
    """Import wfock from this checkout's src/, never from anywhere else."""
    init = SRC / "wfock" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no wfock sources at {init}")
    sys.path.insert(0, str(SRC))
    import wfock
    import wfock.cli

    if Path(wfock.__file__).resolve() != init.resolve():
        raise BenchError(f"wfock imported from {wfock.__file__}, not {init}")
    return wfock


# -- running and checking one problem -----------------------------------------


def run_problem(cli, problem, workdir: Path, tracer=None):
    """Run a problem's CLI steps; returns (step results, (wall s, process CPU s)).

    Only the ``cli.main`` calls are timed: input files are written before and
    reports read after.  With a tracer they run under the problem's root span.
    """
    inp = workdir / "input.json"
    inp.write_text(json.dumps(problem.input))
    outs = [workdir / f"report{i}.json" for i in range(len(problem.steps))]
    for out in outs:
        out.unlink(missing_ok=True)
    argvs = [["--command", cmd, "--input", str(inp), "--output", str(out),
              "--N", str(problem.template.N), "--seed", str(problem.cli_seed)]
             for (cmd, _), out in zip(problem.steps, outs)]

    def steps():
        return [cli.main(argv) for argv in argvs]

    with contextlib.redirect_stderr(io.StringIO()):
        c0, t0 = time.process_time(), time.perf_counter()
        codes = steps() if tracer is None else tracer.run_problem(problem.pid, steps)
        elapsed = time.perf_counter() - t0, time.process_time() - c0
    return [(code, out.read_bytes()) for code, out in zip(codes, outs)], elapsed


def check_problem(verify, problem, results) -> list[str]:
    """Verification errors for a problem's step results (empty: it verifies)."""
    errors = []
    for (cmd, expected), (code, blob) in zip(problem.steps, results):
        try:
            report = json.loads(blob)
        except json.JSONDecodeError as exc:
            errors.append(f"{cmd}: unreadable report ({exc})")
            continue
        errors.extend(verify.check_step(cmd, expected, code, report, problem.template.points))
    return errors


def attempt(cli, verify, problem, workdir: Path, tracer=None):
    """((wall s, CPU s), errors, report digest) for one problem.

    An exception counts as a failure and gives no times.
    """
    try:
        results, elapsed = run_problem(cli, problem, workdir, tracer)
    except Exception as exc:  # any escape from the program is a failed problem
        return None, [f"exception {type(exc).__name__}: {exc}"], None
    digest = hashlib.sha256(b"".join(blob for _, blob in results)).hexdigest()
    return elapsed, check_problem(verify, problem, results), digest


# -- setup probes ---------------------------------------------------------------


def setup_probe(workload: str, workdir: Path) -> None:
    """In a fresh process: time the wfock import plus one warm-up problem.

    Both are timed in process CPU seconds, then stated in reference seconds
    with host-speed blocks run right after them (see hostspeed.py).  The
    warm-up's report is checked by the main process, which runs the same
    problem; a probe only times it.
    """
    c0, t0 = time.process_time(), time.perf_counter()
    wfock = import_wfock()
    import_cpu, import_wall = time.process_time() - c0, time.perf_counter() - t0
    import hostspeed
    import verify
    import workloads

    problem = workloads.warmup_problem(workload)
    c1, t1 = time.process_time(), time.perf_counter()
    times, _, _ = attempt(wfock.cli, verify, problem, workdir)
    wall, cpu = times or (time.perf_counter() - t1, time.process_time() - c1)
    blocks = [hostspeed.block() for _ in range(SETUP_BLOCKS)]
    cpu += import_cpu
    print(json.dumps({"setup_s": hostspeed.to_ref_s(cpu, statistics.median(blocks)),
                      "cpu_s": cpu, "wall_s": wall + import_wall, "blocks_s": blocks}))


def run_setup_probes(workload: str, workdir: Path) -> list[dict]:
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", "0", "--workdir", str(probe_dir)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"setup probe timed out after {PROBE_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# -- the two kinds of run -------------------------------------------------------


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def mix_times(times: dict[str, list[float]]) -> list[float]:
    """Mean time of each template that has samples (the mix weights them equally)."""
    return [statistics.fmean(t) for t in times.values() if t]


def timed_run(wfock, verify, workloads, args, workdir: Path) -> dict:
    """End-to-end metrics: the gated ones in ``metrics``, ungated companions in ``info``.

    Problems run until ``--seconds`` of wall time have passed.  A host-speed
    block runs before the first problem and after each one; a problem's time
    in reference seconds uses the mean of the two blocks around it.
    """
    import hostspeed

    setup = run_setup_probes(args.workload, workdir)
    warm = workloads.warmup_problem(args.workload)
    _, errors, _ = attempt(wfock.cli, verify, warm, workdir)
    failures = {warm.pid: errors} if errors else {}
    rotation = workloads.WORKLOADS[args.workload]
    times = {kind: {t.name: [] for t in rotation} for kind in ("ref_s", "cpu_s", "wall_s")}
    verified, index = 0, 0
    blocks = [hostspeed.block()]
    deadline = time.perf_counter() + args.seconds
    while index == 0 or time.perf_counter() < deadline:
        problem = workloads.make_problem(args.workload, args.seed, index)
        elapsed, errors, _ = attempt(wfock.cli, verify, problem, workdir)
        blocks.append(hostspeed.block())
        index += 1
        if errors:
            failures[problem.pid] = errors
        else:
            verified += 1
        if elapsed is not None:
            wall, cpu = elapsed
            name = problem.template.name
            times["wall_s"][name].append(wall)
            times["cpu_s"][name].append(cpu)
            times["ref_s"][name].append(hostspeed.to_ref_s(cpu, (blocks[-2] + blocks[-1]) / 2))
    share = verified / index
    ref, wall = mix_times(times["ref_s"]), mix_times(times["wall_s"])
    n = sum(len(t) for t in times["ref_s"].values())
    metrics = {
        "problems_per_ref_s": (share * len(ref) / sum(ref) if ref else 0.0, "1/s", n),
        "problem_ref_s_p50": (statistics.median(ref) if ref else 0.0, "s", n),
        "setup_s": (statistics.median(p["setup_s"] for p in setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    info = {
        "problems_per_s": (share * len(wall) / sum(wall) if wall else 0.0, "1/s", n),
        "problem_s_p50": (statistics.median(wall) if wall else 0.0, "s", n),
        "setup_wall_s": (statistics.median(p["wall_s"] for p in setup), "s", len(setup)),
        "host_block_s": (statistics.median(blocks), "s", len(blocks)),
    }
    return {"attempted": index + 1, "failures": failures, "metrics": metrics, "info": info,
            "samples": {"problem": times, "blocks_s": blocks, "setup": setup}}


# per-layer metric -> (span name, field); spans are "<module>.<qualname>"
NAMED_LAYER_METRICS = {
    "fock.weighted_creation.calls": ("fock.weighted_creation", "calls"),
    "fock.level_slice.calls": ("fock.TruncatedFock.level_slice", "calls"),
    "fock.FockOperator.init.calls": ("fock.FockOperator.__init__", "calls"),
    "liftcheck.krylov_closure.s": ("liftcheck.krylov_closure", "s"),
    "liftcheck.validator.s": ("liftcheck.alphabeta_validator.validator", "s"),
    "duality.primal_lift_model.s": ("duality.primal_lift_model", "s"),
    "duality.dual_lift_model.s": ("duality.dual_lift_model", "s"),
    "duality.rho_creation.calls": ("duality.DualStructure.rho_creation", "calls"),
    "interpolation.kernel_tail_bound.calls": ("interpolation.kernel_tail_bound", "calls"),
    "interpolation.phi_value.calls": ("interpolation.DiscPoint.phi_value", "calls"),
    "interpolation.cauchy_builds": ("interpolation.CauchyKernel.__init__", "calls"),
    "interpolation.pick_map_cp_test.s": ("interpolation.pick_map_cp_test", "s"),
    "interpolation.np_solve.s": ("interpolation.np_solve", "s"),
    "induced.level_tensor_identity.calls": ("induced.InducedSpace.level_tensor_identity", "calls"),
    "induced.level_tensor_identity.self_s": ("induced.InducedSpace.level_tensor_identity", "self_s"),
    "lifting.lift_step.calls": ("lifting.lift_step", "calls"),
    "lifting.lift_step.self_s": ("lifting.lift_step", "self_s"),
    "lifting.parrott_complete.calls": ("lifting.parrott_complete", "calls"),
    "linalg.operator_norm.calls": ("linalg.operator_norm", "calls"),
    "linalg.psd_sqrt.calls": ("linalg.psd_sqrt", "calls"),
    "linalg.orth_columns.calls": ("linalg.orth_columns", "calls"),
    "linalg.pinv.calls": ("linalg.pinv", "calls"),
    "weights.compute_R.calls": ("weights.compute_R", "calls"),
    "weights.z_prod_inv.calls": ("weights.WeightSystem.z_prod_inv", "calls"),
    "graphs.embed.calls": (("graphs.embed_prefix", "graphs.embed_suffix"), "calls"),
}


def layer_metrics(spans, tracer, hits: int, misses: int) -> dict:
    inclusive = {src for src, field in NAMED_LAYER_METRICS.values() if field == "s"}
    rows = tracer.by_name(inclusive)
    metrics = {}
    for layer in ("bench",) + spans.LAYERS:
        mine = [row for name, row in rows.items() if name.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = (sum(r["self_s"] for r in mine), "s")
        if layer != "bench":
            metrics[f"{layer}.calls"] = (sum(r["calls"] for r in mine), "count")
    for metric, (src, field) in NAMED_LAYER_METRICS.items():
        names = src if isinstance(src, tuple) else (src,)
        value = sum(rows.get(n, {field: 0})[field] for n in names)
        metrics[metric] = (value, "s" if field != "calls" else "count")
    metrics["lifting.f_clamp_steps"] = (tracer.f_clamp_steps, "count")
    metrics["graphs.path_basis.hit_ratio"] = (hits / (hits + misses) if hits + misses else 1.0,
                                              "ratio")
    return metrics


def traced_run(wfock, verify, workloads, args, workdir: Path) -> dict:
    import spans

    from wfock.graphs import path_basis

    before = path_basis.cache_info()
    problems = [workloads.make_problem(args.workload, args.seed, i)
                for i in range(len(workloads.WORKLOADS[args.workload]))]
    failures, digests = {}, {}
    untraced = 0.0
    # the first pass warms every template's lazy state so that the untraced
    # and traced passes start alike; only the second pass is timed
    for timed in (False, True):
        for problem in problems:
            elapsed, errors, digest = attempt(wfock.cli, verify, problem, workdir)
            if errors:
                failures[problem.pid] = errors
            if digests.setdefault(problem.pid, digest) != digest:
                failures.setdefault(problem.pid, []).append("report differs between passes")
            if timed and elapsed is not None:
                untraced += elapsed[0]
    tracer = spans.Tracer()
    tracer.install()
    traced, traced_digests = 0.0, {}
    try:
        for problem in problems:
            elapsed, errors, traced_digests[problem.pid] = \
                attempt(wfock.cli, verify, problem, workdir, tracer)
            traced += elapsed[0] if elapsed is not None else 0.0
            if errors:
                failures[problem.pid] = errors
    finally:
        tracer.uninstall()
    after = path_basis.cache_info()
    for pid, digest in traced_digests.items():
        if digest != digests[pid]:
            failures.setdefault(pid, []).append("traced report differs from the untraced one")
    balance = tracer.problem_balance()
    if balance > 1e-6:
        failures["trace"] = [f"layer self times miss the problem wall time by {balance:.3e} s"]
    metrics = layer_metrics(spans, tracer, after.hits - before.hits,
                            after.misses - before.misses)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    spans_path = RUN_DIR / "results" / f"{args.workload}-spans.npz"
    tracer.write(spans_path)
    return {"attempted": len(problems), "failures": failures,
            "metrics": {k: (v, u, len(problems)) for k, (v, u) in metrics.items()},
            "samples": {"untraced_s": untraced, "traced_s": traced, "spans": len(tracer.start),
                        "self_time_balance_s": balance,
                        "spans_file": str(spans_path.relative_to(HERE.parent))},
            "report_sha256": traced_digests}


# -- entry point ----------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and setup stay per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for key, val in last["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = val
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True,
                        help=f"workload seed (held-out seed: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_probe:
            setup_probe(args.workload, Path(args.workdir))
            return 0
        wfock = import_wfock()
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    import verify
    import workloads

    (RUN_DIR / "results").mkdir(parents=True, exist_ok=True)
    workdir = RUN_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = (traced_run if args.trace else timed_run)(wfock, verify, workloads, args, workdir)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    failed = len(run["failures"])
    for name, (value, unit, n) in run["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    for name, (value, unit, n) in run.get("info", {}).items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n}, not gated)")
    print(f"{args.workload} fail_ratio = {failed / run['attempted']:.6g} "
          f"({failed}/{run['attempted']} problems, warm-up included)")
    for pid, errors in run["failures"].items():
        print(f"FAILED {pid}: {'; '.join(errors)}")
    print(json.dumps({"env": env}, sort_keys=True))
    record = dict(run, env=env)
    for key in ("metrics", "info"):
        record[key] = {k: {"value": v, "unit": u, "n": n}
                       for k, (v, u, n) in run.get(key, {}).items()}
    out = RUN_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
