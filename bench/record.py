"""Regenerate the benchmark's recorded data: the steady_loop fixture and the references.

    python3 bench/record.py [--loop-seed 8] [--ensemble-seed 11]

Run from the repository root; it takes several minutes, most of them in the
1200 ticks of the reference run that lead up to the steady fixture.  Before
the fixture is written, the run is continued from it and must reproduce the
uninterrupted run's positions bit for bit; the script exits with status 1
if it does not.  The per-tick references cover the longest ``--seconds``
the benchmark accepts.
"""

import argparse
import itertools
import json
import math
import sys

from run import MAX_SECONDS, SRC, pin_blas_threads

pin_blas_threads()  # before numpy loads, as in every benchmark run

import numpy as np  # noqa: E402

# ticks over which the resumed run must match the uninterrupted one
CHECK_TICKS = 150


def record_ticks(world, ticks, label):
    """Checkpoints and per-tick positions; stops at the first failed tick."""
    import workloads as w
    from rigidnet import step_simulation

    checkpoints, positions = [], []
    offset = np.zeros(world.framework.dim)
    for k in range(ticks):
        step_simulation(world)
        problem = w.tick_violation(world)
        if problem:
            print(f"{label}: tick {k} fails ({problem})", file=sys.stderr)
            break
        positions.append(world.framework.positions.copy())
        if (k + 1) % w.CHECKPOINT_TICKS == 0:
            checkpoints.append(w.checkpoint(world, offset))
    print(f"{label}: {len(positions)} ticks run, {len(checkpoints)} "
          f"checkpoints recorded", file=sys.stderr)
    return checkpoints, positions


def write_lines(path, data):
    """JSON with one line per top-level list entry, so diffs stay readable."""
    parts = []
    for key, value in data.items():
        if isinstance(value, list):
            body = "[\n" + ",\n".join(json.dumps(v) for v in value) + "\n]"
        else:
            body = json.dumps(value)
        parts.append(f"{json.dumps(key)}: {body}")
    with open(path, "w") as fp:
        fp.write("{\n" + ",\n".join(parts) + "\n}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--loop-seed", type=int, default=8)
    parser.add_argument("--ensemble-seed", type=int, default=11)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import workloads as w
    from rigidnet import run_ensemble_experiment, step_simulation

    def operations(name):
        return math.ceil(MAX_SECONDS * w.WORKLOADS[name].rate)

    def ticks(name):
        return w.CHECKPOINT_TICKS * math.ceil(
            operations(name) / w.CHECKPOINT_TICKS)

    reference = {"loop_seed": args.loop_seed,
                 "ensemble_seed": args.ensemble_seed}
    origin = np.zeros(2)

    world = w.world_from_scenario(w.reference_scenario(args.loop_seed), origin)
    reference["opening"], positions = record_ticks(
        world, ticks("opening_loop"), "opening_loop")
    if len(positions) < ticks("opening_loop"):
        return 1
    for _ in range(w.STEADY_START_TICK - len(positions)):
        step_simulation(world)
    fixture = w.fixture_from_world(world, args.loop_seed)
    _, uninterrupted = record_ticks(world, CHECK_TICKS, "uninterrupted run")
    resumed = w.world_from_fixture(json.loads(json.dumps(fixture)), origin)
    reference["steady"], positions = record_ticks(
        resumed, ticks("steady_loop"), "steady_loop")
    if len(positions) < CHECK_TICKS:
        return 1
    for k, (a, b) in enumerate(zip(uninterrupted, positions)):
        if not np.array_equal(a, b):
            print(f"resumed run leaves the uninterrupted one at tick {k}",
                  file=sys.stderr)
            return 1
    print(f"resumed run matches the uninterrupted one bit for bit over "
          f"{CHECK_TICKS} ticks", file=sys.stderr)

    world = w.world_from_scenario(w.estimated_scenario(args.loop_seed), origin)
    reference["estimated"], _ = record_ticks(
        world, ticks("estimated_loop"), "estimated_loop")

    seeds = range(args.ensemble_seed, args.ensemble_seed + w.ENSEMBLE_ROUNDS)
    per_call = math.ceil(operations("ensemble_mix") / len(seeds)
                         / len(w.ENSEMBLE_RANGES))
    reference["ensemble"] = {}
    for seed, comm_range in itertools.product(seeds, w.ENSEMBLE_RANGES):
        records, _ = run_ensemble_experiment(
            w.ensemble_config(comm_range, per_call, seed))
        reference["ensemble"][w.ensemble_key(seed, comm_range)] = [
            [r[f] for f in w.ENSEMBLE_FIELDS] for r in records]
    print(f"ensemble_mix: {per_call} networks per call recorded",
          file=sys.stderr)

    with open(w.FIXTURE, "w") as fp:
        json.dump(fixture, fp, indent=1)
        fp.write("\n")
    write_lines(w.REFERENCE, reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
