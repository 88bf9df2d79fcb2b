"""The four benchmark workloads: set-up, the closed loop over operations, output checks.

Every workload drives rigidnet through its public functions only, one
operation after another in a single process.  An operation is a control
tick for the three loops and one sampled network for ``ensemble_mix``.

The amount of work follows from ``--seconds`` and a fixed nominal rate (the
seed code's speed on a loaded 2-core box), never from the clock, so two
commits measured with the same ``--seconds`` run exactly the same operations
and their per-layer counts repeat exactly.  The run seed changes how the fixed
scenarios are presented, not how much work they are: the loops run a
translated copy of their scenario (the dynamics only see differences of
positions), and the ensemble visits its three ranges in a seeded order in
each round.
Outputs are checked against the recorded reference in ``data/``, which
``record.py`` regenerates.

Between operations every workload times a host-speed probe, a fixed kernel
that does not call rigidnet; run.py scales the operation times by it.
"""

import dataclasses
import itertools
import json
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy.linalg

from rigidnet import (
    Framework,
    Graph,
    World,
    WorldConfig,
    experiments,
    make_filters,
    reference_control_config,
    run_ensemble_experiment,
    simnet,
    step_simulation,
)
from rigidnet.experiments import ScenarioConfig

DATA = Path(__file__).resolve().parent / "data"
REFERENCE = DATA / "reference.json"
FIXTURE = DATA / "steady_fixture.json"

# the steady fixture is the reference run's state after this many ticks
STEADY_START_TICK = 1200
# loops compare their state with the reference every this many ticks, and
# run a whole number of such blocks, at least two
CHECKPOINT_TICKS = 10
CHECKPOINT_DECIMALS = 6
# On steady_loop a change in the last bits (the seed's translation is one)
# grows to about 3 cm RMS and one edge over the recorded window; the other
# loops stay below 1e-10 m.  The tolerances allow about ten times the steady
# drift.  Dropping the payloads of one center out of 60 exceeds them within
# 100 ticks.
POSITION_RMS_TOL = 0.25
EDGE_COUNT_TOL = 3

ENSEMBLE_RANGES = (25.0, 20.0, 17.5)
# the ensemble visits every range once per round, round j with the ensemble
# seed plus j; the median of several calls per range is steadier than one
ENSEMBLE_ROUNDS = 3
ENSEMBLE_FIELDS = ("m", "diameter", "eta", "rejects")

# Host-speed probes.  Other machines share the host's cores, and how much
# speed they leave swings by a third within a minute (README.md, "Run-to-run
# spread").  A probe is a fixed kernel that calls no rigidnet code; how much
# slower it runs than on the reference host (2-core VM, Python 3.11.7, numpy
# 2.4.6) is the host's slowdown.  Each workload uses the probe whose mix
# tracked its own times best: interpreted code with small eigensolves for
# the loops, dense decompositions for the ensemble.
_RNG = np.random.default_rng(0)
SMALL_MATRIX = np.cov(_RNG.standard_normal((24, 48)))
FRAMEWORK_MATRIX = np.cov(_RNG.standard_normal((200, 400)))
RIGIDITY_MATRIX = _RNG.standard_normal((400, 200))
# bound before tracing can wrap them, so probes are never traced
_eigvalsh, _eigh, _svdvals = (np.linalg.eigvalsh, np.linalg.eigh,
                              scipy.linalg.svdvals)


def interpreter_kernel():
    for i in range(40):
        sum({j: (j * 7) % 13 for j in range(150)}.values())
        _eigvalsh(SMALL_MATRIX + i)


def dense_kernel():
    _eigh(FRAMEWORK_MATRIX)
    _svdvals(RIGIDITY_MATRIX)


@dataclasses.dataclass(frozen=True)
class Probe:
    kernel: object
    reference_ms: float    # near the kernel's fastest time on the reference host

    def ms(self):
        """Time one run of the kernel."""
        t0 = time.perf_counter()
        self.kernel()
        return (time.perf_counter() - t0) * 1e3

    def slowdown(self, samples):
        """How much slower this host ran the kernel than the reference host."""
        return float(np.median(samples)) / self.reference_ms


INTERPRETER_PROBE = Probe(interpreter_kernel, 2.0)
DENSE_PROBE = Probe(dense_kernel, 12.0)
# probes timed before each ensemble call, which runs for seconds, and after
# the last one
PROBES_PER_CALL = 10
# a tick's slowdown comes from the probes of the ticks this close to it
PROBE_WINDOW_TICKS = 5


def reference_scenario(seed=8):
    """The calibrated 60-robot maintenance run on ground truth."""
    return dataclasses.replace(reference_control_config(), seed=seed)


def estimated_scenario(seed=8):
    """120 robots at the reference density, driven by their own estimates."""
    side = 150.0 * np.sqrt(2.0)
    return dataclasses.replace(
        reference_control_config(), seed=seed, n=120, width=side,
        height=side, noise_std=0.05, anchors=(0, 1), use_estimates=True,
        initial_estimate_error=0.5)


def ensemble_key(seed, comm_range):
    """Where the reference keeps one ensemble call's networks."""
    return f"seed {seed} range {comm_range!r}"


def ensemble_config(comm_range, count, seed=11):
    """The check-7 network ensemble at one communication range."""
    return ScenarioConfig(seed=seed, n=EnsembleWorkload.n, width=100.0,
                          height=100.0,
                          comm_range=comm_range, ensemble_count=count)


def world_from_scenario(config, offset):
    """Sample the scenario's framework, translate it, and freeze a world on it."""
    rng = np.random.default_rng(config.seed)
    fw, _ = experiments.sample_framework(rng, config)
    fw = Framework(fw.graph, fw.positions + offset)
    wconfig = WorldConfig(
        noise_std=config.noise_std, use_estimates=config.use_estimates,
        anchors=tuple(config.anchors),
        initial_estimate_error=config.initial_estimate_error,
        seed=config.seed)
    return simnet.make_world(fw, config.control, wconfig)


def fixture_from_world(world, scenario_seed):
    fw = world.framework
    return {
        "scenario_seed": scenario_seed,
        "tick": STEADY_START_TICK,
        "time": world.time,
        "positions": fw.positions.tolist(),
        "edges": [list(e) for e in fw.graph.edges],
        "extents": world.extents.tolist(),
    }


def world_from_fixture(fixture, offset):
    """Rebuild a running world from its saved state, keeping the frozen extents.

    make_world would measure the extents again on the thinned graph; the
    run froze them at t=0, so they are restored as saved.
    """
    config = reference_scenario(fixture["scenario_seed"])
    x = np.asarray(fixture["positions"], dtype=float) + offset
    graph = Graph(len(x), [tuple(e) for e in fixture["edges"]])
    wconfig = WorldConfig(use_estimates=False, seed=config.seed)
    filters = make_filters(x, wconfig.initial_variance,
                           wconfig.range_variance)
    return World(
        framework=Framework(graph, x), params=config.control,
        config=wconfig,
        extents=np.asarray(fixture["extents"], dtype=np.intp),
        filters=filters, rng=np.random.default_rng(config.seed),
        time=fixture["time"])


def placement(seed, dim=2):
    """The translation a run seed applies to a loop's scenario."""
    return np.random.default_rng(seed).uniform(-100.0, 100.0, size=dim)


def checkpoint(world, offset):
    """Edge count and positions of a world, in the untranslated frame."""
    x = world.framework.positions - offset
    return {"m": world.framework.graph.m,
            "x": np.round(x, CHECKPOINT_DECIMALS).tolist()}


def checkpoint_mismatch(got, want):
    """None when a state is within tolerance of the recorded one, else why."""
    rms = float(np.sqrt(((np.asarray(got["x"]) - np.asarray(want["x"])) ** 2)
                        .sum(axis=1).mean()))
    if rms > POSITION_RMS_TOL:
        return f"positions are {rms:.3g} m RMS from the reference"
    if abs(got["m"] - want["m"]) > EDGE_COUNT_TOL:
        return f"{got['m']} edges, reference has {want['m']}"
    return None


def tick_violation(world):
    """The per-tick guarantees: rigid balls, rigid framework, round bound."""
    metric = world.metrics[-1]
    eta = int(np.max(world.extents))
    if not metric["min_rho"] > 0:
        return f"min_rho={metric['min_rho']}"
    if not metric["framework_rho"] > 0:
        return f"framework_rho={metric['framework_rho']}"
    rounds = metric["exchange_rounds"]
    if rounds is None or rounds > 2 * eta:
        return f"exchange took {rounds} rounds, bound is {2 * eta}"
    return None


@dataclasses.dataclass
class Outcome:
    """What one pass over a workload's operations measured."""

    op_ms: list            # one latency sample per operation (or per call)
    slowdown: list         # the host's slowdown around each sample
    attempted: int
    failed: int


class LoopWorkload:
    """A closed control loop: each tick starts when the previous one ends."""

    op_name = "tick"
    probe = INTERPRETER_PROBE

    def __init__(self, name, n, rate, build, reference_key, setup_repeats):
        self.name = name
        self.n = n
        self.rate = rate
        self.setup_repeats = setup_repeats
        self._build = build
        self.reference_key = reference_key

    def operations(self, seconds, reference):
        recorded_blocks = len(reference[self.reference_key])
        blocks = round(seconds * self.rate / CHECKPOINT_TICKS)
        return CHECKPOINT_TICKS * min(recorded_blocks, max(2, blocks))

    def setup(self, seed, reference):
        return self._build(reference, placement(seed))

    def warm_up(self, reference):
        """Nothing to do: the set-ups already ran the library's code paths."""

    def run(self, state, seed, ticks, reference, tracer=None):
        world, offset = state, placement(seed)
        expected = reference[self.reference_key]
        op_ms, probes, failed = [], [], 0
        for k in range(ticks):
            if tracer is not None:
                tracer.op = k
            probes.append(self.probe.ms())
            t0 = time.perf_counter()
            try:
                step_simulation(world)
            except Exception:
                traceback.print_exc()
                failed += ticks - k
                break
            op_ms.append((time.perf_counter() - t0) * 1e3)
            problem = tick_violation(world)
            if not problem and (k + 1) % CHECKPOINT_TICKS == 0:
                problem = checkpoint_mismatch(
                    checkpoint(world, offset),
                    expected[(k + 1) // CHECKPOINT_TICKS - 1])
            if problem:
                failed += 1
                print(f"{self.name} tick {k}: {problem}", file=sys.stderr)
        w = PROBE_WINDOW_TICKS
        slowdown = [self.probe.slowdown(probes[max(0, k - w):k + w + 1])
                    for k in range(len(op_ms))]
        return Outcome(op_ms, slowdown, ticks, failed)


class EnsembleWorkload:
    """The check-7 ensemble: run_ensemble_experiment calls, three per range.

    Per-network times are not visible from outside a call, so the latency
    samples are each call's mean time per network; the throughput counts
    networks.
    """

    name = "ensemble_mix"
    n = 100
    op_name = "network"
    probe = DENSE_PROBE
    setup_repeats = 3

    def __init__(self, rate):
        self.rate = rate

    def operations(self, seconds, reference):
        calls = ENSEMBLE_ROUNDS * len(ENSEMBLE_RANGES)
        recorded = min(len(v) for v in reference["ensemble"].values())
        per_call = round(seconds * self.rate / calls)
        return min(recorded, max(1, per_call)) * calls

    def setup(self, seed, reference):
        """A cold import of the library, what every ensemble run pays first."""
        src = str(Path(experiments.__file__).resolve().parents[1])
        subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {src!r}); import rigidnet"],
            check=True)

    def warm_up(self, reference):
        """One network per range from an unused seed, so lazy set-up is not timed.

        The first call in a process ran up to 30% slower than later ones,
        and the seed decides which range goes first.
        """
        for comm_range in ENSEMBLE_RANGES:
            run_ensemble_experiment(
                ensemble_config(comm_range, 1,
                                reference["ensemble_seed"] + ENSEMBLE_ROUNDS))

    def range_order(self, seed):
        orders = list(itertools.permutations(ENSEMBLE_RANGES))
        return orders[np.random.default_rng(seed).integers(len(orders))]

    def run(self, state, seed, networks, reference, tracer=None):
        calls = [(reference["ensemble_seed"] + j, comm_range)
                 for j in range(ENSEMBLE_ROUNDS)
                 for comm_range in self.range_order(seed)]
        per_call = networks // len(calls)
        op_ms, slowdown, failed = [], [], 0
        before = [self.probe.ms() for _ in range(PROBES_PER_CALL)]
        for ensemble_seed, comm_range in calls:
            config = ensemble_config(comm_range, per_call, ensemble_seed)
            t0 = time.perf_counter()
            try:
                records, _ = run_ensemble_experiment(config)
            except Exception:
                traceback.print_exc()
                failed += per_call
                continue
            op_ms.append((time.perf_counter() - t0) * 1e3 / per_call)
            after = [self.probe.ms() for _ in range(PROBES_PER_CALL)]
            slowdown.append(self.probe.slowdown(before + after))
            before = after
            key = ensemble_key(ensemble_seed, comm_range)
            for got, want in zip(records, reference["ensemble"][key]):
                fields = [got[f] for f in ENSEMBLE_FIELDS]
                if fields != want:
                    failed += 1
                    print(f"ensemble {key} network {got['index']}: "
                          f"{fields} != reference {want}", file=sys.stderr)
        return Outcome(op_ms, slowdown, networks, failed)


def load_reference():
    with open(REFERENCE) as fp:
        return json.load(fp)


def load_fixture():
    with open(FIXTURE) as fp:
        return json.load(fp)


def opening_world(reference, offset):
    return world_from_scenario(reference_scenario(reference["loop_seed"]),
                               offset)


def steady_world(reference, offset):
    return world_from_fixture(load_fixture(), offset)


def estimated_world(reference, offset):
    return world_from_scenario(estimated_scenario(reference["loop_seed"]),
                               offset)


WORKLOADS = {
    w.name: w for w in (
        LoopWorkload("opening_loop", 60, 5.0, opening_world, "opening",
                     setup_repeats=9),
        LoopWorkload("steady_loop", 60, 8.0, steady_world, "steady",
                     setup_repeats=51),
        LoopWorkload("estimated_loop", 120, 4.0, estimated_world,
                     "estimated", setup_repeats=5),
        EnsembleWorkload(6.0),
    )
}
