"""rigidnet benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload opening_loop --seed 1 --seconds 25 --trace 0

Run from the repository root.  The library is imported from ``src/``; the
metric names and units come from ``BENCHMARK.json``.  With ``--trace 0`` the
last stdout line holds every end-to-end metric, with ``--trace 1`` every
per-layer metric, as ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs each workload in its own process and prints one
table; with ``--trace 1`` it runs each traced workload twice and checks
that the count metrics repeat exactly.  See README.md for the workloads.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("opening_loop", "steady_loop", "estimated_loop",
                  "ensemble_mix")
# Thread-count variables, all set to 1 before numpy loads.  At its default of
# one thread per core, OpenBLAS made the ensemble 3.4 times slower on the
# 2-core reference host, and its times spread by 10-30% from call to call,
# because its threads wait on cores that other machines share.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# longest --seconds accepted; the recorded reference covers this much work
MAX_SECONDS = 60
# what each end-to-end metric is called on each kind of workload
ALIASES = {
    "tick": {"op_ms_p50": "tick_ms_p50", "op_ms_tail": "tick_ms_tail",
             "ops_per_s": "ticks_per_s"},
    "network": {"ops_per_s": "networks_per_s"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must lie in 1..{MAX_SECONDS}")
    return args


def blas_libraries():
    """Each loaded OpenBLAS with its build string and effective thread count."""
    import ctypes

    found = []
    with open("/proc/self/maps") as fp:
        paths = sorted({line.split()[-1] for line in fp
                        if "openblas" in line.split()[-1].lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    entry["config"] = config().decode()
                    entry["threads"] = threads()
        found.append(entry)
    return found


def pin_blas_threads():
    """Set every thread-count variable to 1; return the values found before."""
    found = {v: os.environ[v] for v in THREAD_VARS if v in os.environ}
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    return found


def environment(found):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "thread_vars_pinned_to_1": list(THREAD_VARS),
        "thread_vars_found": found,
    }


def tail(samples):
    """The highest percentile with at least ten samples above it, and its label."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], f"max of {len(ordered)}"
    return ordered[-11], f"p{100.0 * (len(ordered) - 10) / len(ordered):.1f}"


def measure(workload, args, reference):
    """The untraced run: set up several times, then one pass over the operations.

    Set-ups are interpreted code (sampling, graph building, parsing, imports),
    so they are scaled by the interpreter probe whatever the workload.
    """
    from workloads import INTERPRETER_PROBE

    setup_s, probes = [], []
    for _ in range(workload.setup_repeats):
        # a collected heap first, so where the collector last ran does not
        # decide the time; without it one process read 0.9 ms, the next 1.2
        gc.collect()
        probes.append(INTERPRETER_PROBE.ms())
        t0 = time.perf_counter()
        state = workload.setup(args.seed, reference)
        setup_s.append(time.perf_counter() - t0)
    ops = workload.operations(args.seconds, reference)
    workload.warm_up(reference)
    outcome = workload.run(state, args.seed, ops, reference)
    if not outcome.op_ms:
        raise SystemExit(f"{workload.name}: no operation completed")
    scaled = [ms / f for ms, f in zip(outcome.op_ms, outcome.slowdown)]
    raw, values = {}, {}
    for out, samples in ((raw, outcome.op_ms), (values, scaled)):
        out["op_ms_p50"] = statistics.median(samples)
        out["op_ms_tail"], tail_label = tail(samples)
        out["ops_per_s"] = len(samples) / (sum(samples) / 1e3)
    raw["setup_s"] = statistics.median(setup_s)
    values["setup_s"] = raw["setup_s"] / INTERPRETER_PROBE.slowdown(probes)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    notes = {name: f"{value:.6g} on this host" for name, value in raw.items()}
    notes["setup_s"] += f", median of {len(setup_s)} set-ups"
    notes["op_ms_tail"] += f", {tail_label} of {len(scaled)} samples"
    print(f"host: {statistics.median(outcome.slowdown):.4g} times slower "
          f"than the reference host (median over the run)")
    return values, notes, outcome.attempted, outcome.failed


def measure_traced(workload, args, reference):
    """The traced run: an untraced run in its own process, then the same work traced."""
    import tracing

    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload.name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload.name}: the untraced run exited with "
                         f"{proc.returncode}")
    untraced = json.loads(proc.stdout.strip().splitlines()[-1])
    workload.warm_up(reference)
    tracer = tracing.Tracer(network_ops=workload.op_name == "network")
    with tracing.installed(tracer):
        state = workload.setup(args.seed, reference)
        traced = workload.run(state, args.seed,
                              workload.operations(args.seconds, reference),
                              reference, tracer)
    if not traced.op_ms:
        raise SystemExit(f"{workload.name}: no operation completed")
    path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    values = tracing.layer_metrics(
        tracer.spans, framework_dim=2 * workload.n,
        ticks=len(traced.op_ms) if workload.op_name == "tick" else 0)
    traced_p50 = statistics.median(
        ms / f for ms, f in zip(traced.op_ms, traced.slowdown))
    values["tracing.overhead_pct"] = 100.0 * (
        traced_p50 / untraced["metrics"]["op_ms_p50"]["value"] - 1.0)
    notes = {"tracing.overhead_pct": "traced against untraced op_ms_p50, "
                                     "both at the reference host speed"}
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    attempted = untraced["attempted"] + traced.attempted
    failed = untraced["failed"] + traced.failed
    return values, notes, attempted, failed


def run_one(args, found):
    with open(ROOT / "BENCHMARK.json") as fp:
        spec = json.load(fp)
    sys.path.insert(0, str(SRC))
    import rigidnet
    import workloads

    if SRC not in Path(rigidnet.__file__).resolve().parents:
        raise SystemExit(f"rigidnet was imported from {rigidnet.__file__}, "
                         f"not from {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    print(json.dumps({"environment": environment(found)}))
    if args.trace:
        declared = spec["per_layer"]
        values, notes, attempted, failed = measure_traced(
            workload, args, reference)
    else:
        declared = spec["end_to_end"]
        values, notes, attempted, failed = measure(workload, args, reference)
    metrics = {}
    for m in declared:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        alias = ALIASES.get(workload.op_name, {}).get(m["name"])
        extra = "; ".join(filter(None, [alias and f"= {alias}",
                                        notes.get(m["name"])]))
        print(f"{workload.name} {m['name']} = {value:.6g} {m['unit']}"
              + (f"  ({extra})" if extra else ""))
    print(f"{workload.name} failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} {workload.op_name}s)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def unpinned_env(found):
    """The environment as it was before pin_blas_threads, for a child to pin."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    return {**env, **found}


def run_all(args, found):
    """Every workload in its own process; traced runs go twice."""
    results, exact = {}, True
    repeats = 2 if args.trace else 1
    for name in WORKLOAD_NAMES:
        runs = []
        for _ in range(repeats):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                env=unpinned_env(found), stdout=subprocess.PIPE,
                text=True, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                raise SystemExit(f"{name} exited with {proc.returncode}")
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if args.trace:
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] not in ("ms", "%")} for r in runs]
            same = counts[0] == counts[1]
            exact &= same
            print(f"{name}: count metrics of two traced runs "
                  f"{'repeat exactly' if same else 'DIFFER'}")
        results[name] = runs[0]
    print("\nworkload        metric                                    value")
    for name, r in results.items():
        for metric, v in r["metrics"].items():
            print(f"{name:15} {metric:40} {v['value']:>12.6g} {v['unit']}")
        print(f"{name:15} {'failed_frac':40} "
              f"{r['failed'] / r['attempted']:>12.6g}")
    return {
        "correct": exact and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": v for name, r in results.items()
                    for metric, v in r["metrics"].items()},
    }


def main(argv=None):
    args = parse_args(argv)
    found = pin_blas_threads()
    if not (SRC / "rigidnet" / "__init__.py").is_file():
        print(f"no rigidnet sources under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args, found)
    else:
        result = run_one(args, found)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
