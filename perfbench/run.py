"""Closed-loop benchmark of the radon-hgf library.

    python3 perfbench/run.py --workload pde-r1 --seed 1 --seconds 25 --trace 0

One client calls the library's public API from this process; the next op
starts when the previous one returns. Every op's result is checked. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run. See README.md in this directory.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# processes that repeat the set-up, besides this one; setup_s is the median
SETUP_REPEATS = 2
# the tail percentile is the highest one with this many ops beyond it
TAIL_OPS = 10
# CPU seconds of ops between two host-speed probes
PROBE_EVERY_S = 0.5
# probes that calibrate a set-up time
SETUP_PROBES = 5


def pin_environment():
    """One BLAS/OpenMP thread, and the library's own default thread count."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("RADON_HGF_THREADS", None)


def environment_record():
    import numpy
    import scipy

    kernels = sys.modules.get("radon_hgf._kernels")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "RADON_HGF_THREADS": "unset (library default)",
        "kernels_active": getattr(kernels, "ACTIVE", "absent"),
    }


def cycle_count(workload, seconds, wl):
    return max(1, round(seconds / wl.NOMINAL_CYCLE_S[workload]))


def run_cycles(cycles, count, execute, calibrate):
    """``count`` whole cycles of the pool, in order, with a host-speed probe
    before the first op, after every PROBE_EVERY_S of CPU time and after
    the last op. Each stretch of ops between two probes is scaled by the
    speed from those two. Returns the outcomes, their latencies and the
    loop's CPU seconds at nominal host speed, the wall-clock seconds of the
    ops, and the probe times."""
    ops = [op for i in range(count) for op in cycles[i % len(cycles)]]
    outcomes, probes, stretches = [], [calibrate.probe()], []
    wall = 0.0
    start, c0 = 0, time.process_time()
    for op in ops:
        w0 = time.perf_counter()
        outcomes.append(execute(op))
        wall += time.perf_counter() - w0
        if time.process_time() - c0 >= PROBE_EVERY_S or len(outcomes) == len(ops):
            stretches.append((start, len(outcomes), time.process_time() - c0))
            probes.append(calibrate.probe())
            start, c0 = len(outcomes), time.process_time()
    latencies, cpu = [], 0.0
    for k, (lo, hi, seconds) in enumerate(stretches):
        speed = calibrate.speed(probes[k:k + 2])
        latencies += [o.seconds * speed for o in outcomes[lo:hi]]
        cpu += seconds * speed
    return outcomes, latencies, cpu, wall, probes


def tail(latencies):
    """(value, percentile, ops beyond) of the highest percentile with
    TAIL_OPS ops beyond it; the maximum when there are too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_OPS:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_OPS - 1], 100.0 * (n - TAIL_OPS) / n, TAIL_OPS


def judge(outcomes, wl):
    """Prints fail_ratio and the failures by kind. Returns the failed
    outcomes and whether all of them are baseline failures."""
    failed = [o for o in outcomes if o.failure is not None]
    n = len(outcomes)
    print(f"  {'fail_ratio':12s} {len(failed) / n:12.4f} ratio  ({len(failed)} of {n} ops)")
    counts = Counter((o.kind, o.failure, wl.is_baseline(o)) for o in failed)
    for (kind, failure, baseline), count in sorted(counts.items()):
        print(f"    {'baseline' if baseline else 'UNEXPECTED'} failure {kind}: {failure} x{count}")
    return failed, all(baseline for _, _, baseline in counts)


def measure_setup_elsewhere(args):
    """Set-up seconds of fresh processes that stop before the first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def end_to_end(args, wl, work, setup_s):
    import calibrate

    cycles = cycle_count(args.workload, args.seconds, wl)
    outcomes, latencies, cpu, wall, probes = run_cycles(work.cycles, cycles, wl.execute,
                                                        calibrate)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + measure_setup_elsewhere(args)
    lat_ms = [1e3 * s for s in latencies]
    tail_ms, tail_pct, beyond = tail(lat_ms)
    n = len(outcomes)
    metrics = {
        "ops_per_s": (n / cpu, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw_cpu = sum(o.seconds for o in outcomes)
    print(f"{args.workload} seed {args.seed}: {n} ops in {cycles} cycles; ops took "
          f"{raw_cpu:.2f} CPU s, {wall:.2f} wall s; host speed "
          f"{calibrate.speed(probes):.3f} from {len(probes)} probes. Times below are CPU "
          f"times at nominal host speed.")
    for key, (value, unit) in metrics.items():
        extra = ""
        if key == "op_tail_ms":
            extra = f"  (p{tail_pct:.1f}, {beyond} of {n} ops beyond)"
        elif key == "setup_s":
            extra = "  (median of " + ", ".join(f"{s:.3f}" for s in setups) + ")"
        print(f"  {key:12s} {value:12.4f} {unit}{extra}")
    failed, only_baseline = judge(outcomes, wl)
    return {
        "correct": only_baseline,
        "attempted": n,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(args, wl, work):
    """Traced cycles, then the same ops untraced: per-layer metrics, the
    tracing overhead, and a check that both report identical results."""
    import calibrate
    from tracer import Tracer

    cycles = cycle_count(args.workload, args.seconds / 2.0, wl)
    tracer = Tracer()
    with tracer:
        outcomes, _, cpu_t, _, _ = run_cycles(work.cycles, cycles, wl.execute, calibrate)
    replay, _, cpu_u, _, _ = run_cycles(work.cycles, cycles, wl.execute, calibrate)
    same = [(o.summary, o.failure) for o in outcomes] == [(o.summary, o.failure) for o in replay]
    n = len(outcomes)
    op_wall = sum(o.wall for o in outcomes)
    overhead = cpu_t / cpu_u
    print(f"{args.workload} seed {args.seed}: traced {n} ops in {cycles} cycles, "
          f"{cpu_t:.2f} s traced, {cpu_u:.2f} s untraced (CPU at nominal speed); results "
          f"{'identical' if same else 'DIFFER'}")
    failed, only_baseline = judge(outcomes, wl)
    metrics = layer_metrics(tracer, outcomes)
    metrics.update({
        "workload.err_over_tol_max": (_max_stat(outcomes, "err_over_tol"), "ratio"),
        "workload.unattributed_s": (op_wall - tracer.top_level_s, "s"),
        "workload.fail_ratio": (len(failed) / n, "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    for key, (value, unit) in metrics.items():
        print(f"  {key:44s} {value:14.6g} {unit}")
    if tracer.absent:
        print("  absent patch points (reported as 0): " + ", ".join(tracer.absent))
    return {
        "correct": same and only_baseline,
        "attempted": n,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _max_stat(outcomes, key):
    values = [o.stats[key] for o in outcomes if key in o.stats and math.isfinite(o.stats[key])]
    return max(values, default=0.0)


def layer_metrics(tracer, outcomes):
    def row(name):
        return tracer.stats.get(name, (0, 0.0, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def spans(name, *fields):
        calls, busy, own = row(name)
        values = {"calls": (calls, "count"), "busy_s": (busy, "s"), "self_s": (own, "s")}
        for field in fields:
            out[f"{name}.{field}"] = values[field]

    spans("integrate.radon_hgf", "calls", "busy_s", "self_s")
    spans("integrate.integrate_pieces", "calls", "busy_s")
    panels = tracer.counts["integrate.adaptive.panels"]
    evals, eval_s, _ = row("integrate.scalar_chart_function")
    out["integrate.adaptive.panels_per_integral"] = (
        ratio(panels, row("integrate.integrate_pieces")[0]), "count")
    out["integrate.adaptive.evals_per_panel"] = (ratio(evals, panels), "count")
    out["integrate.scalar_chart_function.evals"] = (evals, "count")
    out["integrate.scalar_chart_function.busy_s"] = (eval_s, "s")
    spans("hgs.verify_system", "calls", "busy_s", "self_s")
    spans("hgs.apply_DIJ", "calls", "busy_s", "self_s")
    out["hgs.stencil_evals_per_operator"] = (
        ratio(tracer.edges[("hgs.apply_DIJ", "integrate.radon_hgf")], row("hgs.apply_DIJ")[0]),
        "count")
    out["hgs.rel_residual_max"] = (_max_stat(outcomes, "rel_residual"), "ratio")
    spans("grassmann.z_lambda_member", "calls", "busy_s")
    for name in ("reduce3", "reduce4", "reduce_ones"):
        spans(f"normal_form.{name}", "calls", "busy_s")
    out["normal_form.residual_max"] = (_max_stat(outcomes, "nf_residual"), "ratio")
    spans("integrate.integrate_invariant", "calls", "busy_s", "self_s")
    for r in (2, 3, 4):
        out[f"kernels.tensor_vdm_sum.busy_s.r{r}"] = (row(f"kernels.tensor_vdm_sum.r{r}")[1], "s")
    out["kernels.tensor_vdm_sum.terms"] = (tracer.counts["kernels.tensor_vdm_sum.terms"], "count")
    for name in ("jacobi_01", "genlaguerre", "hermite_scaled"):
        spans(f"quadrature.{name}", "calls", "busy_s")
    spans("integrate.integrate_haar_mc", "calls", "busy_s", "self_s")
    out["integrate.integrate_haar_mc.samples"] = (
        tracer.counts["integrate.integrate_haar_mc.samples"], "count")
    spans("integrands.named_integrand_batch", "calls", "busy_s")
    spans("integrands.chart_integrand_batch", "calls", "busy_s")
    spans("ncpoly.theta_symbolic", "calls", "busy_s")
    spans("kernels.vdm_sq_batch", "calls", "busy_s")
    spans("rng.RandomStream.generator", "calls", "busy_s")
    out["integrate.mc.z_max"] = (_max_stat(outcomes, "mc_z"), "ratio")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "radon_hgf" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2

    pin_environment()
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    work = wl.build(args.workload, args.seed)
    for op in work.warmup:
        wl.execute(op)
    # CPU time of this process since it started, interpreter start-up
    # included, at nominal host speed
    setup_s = time.process_time()
    import calibrate

    setup_s *= calibrate.speed([calibrate.probe() for _ in range(SETUP_PROBES)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        result = traced(args, wl, work)
    else:
        result = end_to_end(args, wl, work, setup_s)
    print(json.dumps({"environment": environment_record()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
