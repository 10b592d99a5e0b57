"""Closed-loop MPC benchmark of dmpcqp: one workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chain10-warm --seed 2024 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the same experiment untraced and then traced, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the numeric environment, is also written to ``perfbench/out/``.

The BLAS thread variables are pinned to 1 before numpy is imported, so the
numbers (and the program's floating-point results) do not depend on how many
cores the machine has.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
#: Fresh interpreters started per run to measure ``setup_s``.
SETUP_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    """Versions, BLAS build, thread variables and CPU of this process."""
    import numpy
    import scipy

    def blas(show_config):
        info = show_config(mode="dicts").get("Build Dependencies", {})
        info = info.get("blas", {})
        return {k: info.get(k) for k in
                ("name", "version", "openblas configuration")}

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__, "numpy_blas": blas(numpy.show_config),
        "scipy": scipy.__version__, "scipy_blas": blas(scipy.show_config),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over ``SETUP_PROBES`` fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_untraced(bench, wl, net, inits, seconds):
    """Repeat the experiment while another one fits in ``seconds``."""
    api = bench.loop_api()
    exps = []
    tic = perf_counter()
    while True:
        exps.append(bench.run_experiment(wl, net, inits, api))
        if perf_counter() - tic + exps[-1].wall_s > seconds:
            return exps


def run_traced(bench, wl, net, inits, seconds):
    """Untraced/traced experiment pairs while another pair fits.

    Returns the passes in run order, the per-layer metrics (medians over the
    traced passes), the tracer-consistency problems and the last tracer.
    """
    from tracer import Tracer
    api = bench.loop_api()
    exps, per_pass, problems = [], [], []
    tic = perf_counter()
    while True:
        plain = bench.run_experiment(wl, net, inits, api)
        tracer = Tracer()
        missing = tracer.attach(bench.ATTACH_POINTS)
        try:
            traced = bench.run_experiment(wl, net, inits,
                                          bench.loop_api(tracer), tracer)
        finally:
            tracer.detach()
        exps += [plain, traced]
        overhead = 100.0 * (traced.wall_s / plain.wall_s - 1.0)
        per_pass.append(bench.layer_metrics(traced, tracer.summary(), missing,
                                            overhead))
        problems += bench.check_trace_counts(wl, traced, tracer, missing)
        if perf_counter() - tic + plain.wall_s + traced.wall_s > seconds:
            break
    if missing:
        print(f"warning: absent metrics (missing attach points "
              f"{', '.join(missing)})", file=sys.stderr)
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    return exps, metrics, problems, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dmpcqp" / "__init__.py").is_file():
        print(f"error: no dmpcqp sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench

    wl = bench.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    setup_s = measure_setup(wl.name, args.seed) if not args.trace else None
    net = bench.build_network(wl)
    inits = bench.draw_initial_states(net, wl, args.seed)
    bench.warm_up(wl, net, inits)

    if args.trace:
        exps, metrics, problems, tracer = run_traced(bench, wl, net, inits,
                                                     args.seconds)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{wl.name}-seed{args.seed}-spans.npz")
    else:
        exps = run_untraced(bench, wl, net, inits, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = bench.end_to_end(exps, setup_s, rss_mb)
        problems = []

    first = exps[0].signature()
    if any(e.signature() != first for e in exps[1:]):
        problems.append("exact counts or trajectories differ between "
                        "passes of the same experiment")
    failed = exps[0].failed
    problems += [f"init {r.index}: {r.error}" for r in exps[0].inits
                 if r.error]
    attempted = wl.n_inits * wl.steps
    timed = sum(len(e.samples) for e in exps if not args.trace)

    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {args.seed}, {wl.n_inits} inits x {wl.steps} samples: "
          f"{attempted} attempted, {failed} failed; {len(exps)} experiment "
          f"passes, {timed} timed solves, "
          f"{0 if args.trace else SETUP_PROBES} set-up probes")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"FAIL {problem}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(dict(result, environment=env, problems=problems,
                       passes=len(exps), timed_solves=timed,
                       workload=wl.name, seed=args.seed), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
