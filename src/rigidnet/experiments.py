"""Scenario generation and the two batch experiments, with file export.

The ensemble experiment measures the structure of many random networks at a
fixed communication range: diameter, worst extent, and communication load.
The control experiment runs the closed loop on one network and logs a time
series.  Both write CSV with a fixed number format so identical seeds give
byte-identical files; per-network randomness comes from spawned child seeds,
so records are reproducible regardless of evaluation order, and the
ensemble measures them on every core the process may use
(_cores.forked_map).
"""

import contextlib
import csv
import json
from dataclasses import dataclass

import numpy as np

from . import _cores
from ._checks import ConfigError, _check_fields, _domain, _is_a, _node_ids
from .control import ControlParams, RigidityLostError
from .graphs import Graph, disk_proximity_graph, geodesics, is_connected
from .localization import LocalizationError
from .rigidity import CoincidentNodesError, Framework, is_infinitesimally_rigid
from .simnet import (
    MAX_TICKS, ProtocolViolation, WorldConfig, make_world, run_simulation,
    tick_count
)
from .subframeworks import communication_load, extent_assignment

FLOAT_FORMAT = "%.10g"

# the most networks one ensemble may measure: every network's child seed is
# spawned before the first is drawn, at about 0.6 s and 45 MB per 10^5
# seeds, so a larger count is refused before any work
MAX_NETWORKS = 10**6

# the most draws the sampler may make for one network: 20,000 rejected
# draws of 10 robots took 1.3-1.7 s on a 2-core x86-64 host, so 10^8 would
# run for hours; a larger budget is refused before the first draw
MAX_DRAWS = 10**6

# the most robots one network may hold: the sampler's dense (n, n) pairwise
# distances of 10^7 robots would take 800 TB, so a larger n, up to sizes
# numpy cannot shape at all, is refused before the first draw
MAX_ROBOTS = 10**7


@dataclass
class ScenarioConfig(WorldConfig):
    """Everything a run needs: region, network size, controller, outputs.

    A scenario is the WorldConfig of its closed-loop run, so the world's
    fields (seed, noise, anchors, estimates and the filter variances) are
    its own.  comm_range both draws the network and sets the controller's
    link weights: control defaults to ControlParams at comm_range, and a
    control whose comm_range differs is a ConfigError, as is a duration /
    control.dt above MAX_TICKS, an n above MAX_ROBOTS, an ensemble_count
    above MAX_NETWORKS or a rejection_budget above MAX_DRAWS.
    """

    n: int = _domain("at least 2", 60)
    width: float = _domain("positive", 100.0)
    height: float = _domain("positive", 100.0)
    comm_range: float = _domain("positive", 40.0)
    dim: int = _domain("2 or 3", 2)
    ensemble_count: int = _domain("at least 1", 250)
    duration: float = _domain("non-negative", 200.0)
    control: ControlParams = None
    require_rigid: bool = True
    rejection_budget: int = _domain("at least 1", 2000)

    def __post_init__(self):
        if self.control is None:
            self.control = ControlParams(comm_range=self.comm_range)
        _check_fields(self)
        if self.require_rigid and self.n <= self.dim:
            raise ConfigError("a rigid scenario needs more robots than dim")
        _node_ids(self.anchors, self.n, "anchors")
        if self.n > MAX_ROBOTS:
            raise ConfigError(
                f"n {self.n} is above the bound MAX_ROBOTS = {MAX_ROBOTS}")
        if self.ensemble_count > MAX_NETWORKS:
            raise ConfigError(
                f"ensemble_count {self.ensemble_count} is above the bound "
                f"MAX_NETWORKS = {MAX_NETWORKS}")
        if self.rejection_budget > MAX_DRAWS:
            raise ConfigError(
                f"rejection_budget {self.rejection_budget} is above the bound "
                f"MAX_DRAWS = {MAX_DRAWS}")
        if self.control.comm_range != self.comm_range:
            raise ConfigError(
                f"control.comm_range {self.control.comm_range} differs "
                f"from the scenario's comm_range {self.comm_range}")
        tick_count(self.duration, self.control.dt)


def _region_sides(config):
    sides = [config.width, config.height]
    if config.dim == 3:
        sides.append(config.height)
    return np.array(sides)


def sample_framework(rng, config):
    """One accepted framework plus how many draws were rejected first; a
    draw with adjacent robots at one point is a ConfigError."""
    sides = _region_sides(config)
    rejects = 0
    for _ in range(config.rejection_budget):
        x = rng.uniform(0.0, 1.0, size=(config.n, config.dim)) * sides
        g = disk_proximity_graph(x, config.comm_range)
        try:
            fw = Framework(g, x)
        except CoincidentNodesError as exc:
            raise ConfigError(
                f"the region is too small to place distinct robots: {exc}")
        # a rigid framework is connected; is_infinitesimally_rigid tests it
        if (is_infinitesimally_rigid(fw) if config.require_rigid
                else is_connected(g)):
            return fw, rejects
        rejects += 1
    raise ConfigError(
        f"no acceptable framework in {config.rejection_budget} draws")


def generate_scenario(config):
    """The framework the configured seed produces."""
    rng = np.random.default_rng(config.seed)
    fw, _ = sample_framework(rng, config)
    return fw


def framework_to_json(fw):
    return {
        "n": fw.graph.n,
        "edges": fw.graph.edge_array().tolist(),
        "positions": [[float(v) for v in row] for row in fw.positions],
    }


def framework_from_json(data):
    if not isinstance(data, dict):
        raise ValueError("a framework is a JSON object with n, edges and "
                         f"positions, got a {type(data).__name__}")
    for key in ("n", "edges", "positions"):
        if key not in data:
            raise ValueError(f"the framework object has no {key}")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise ValueError(f"edges must be a list, got {edges!r}")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2
                and all(_is_a(v, int) for v in e)):
            raise ValueError(
                f"an edge must be a pair of integer node ids, got {e!r}")
    positions = data["positions"]
    if not isinstance(positions, list):
        raise ValueError(f"positions must be a list, got {positions!r}")
    for k, row in enumerate(positions):
        if not (isinstance(row, list) and all(_is_a(v, float) for v in row)):
            raise ValueError(
                f"a position must be a list of numbers, got {row!r}")
        if len(row) != len(positions[0]):
            raise ValueError(
                f"position {k} has {len(row)} coordinates and position 0 "
                f"has {len(positions[0])}")
    return Framework(Graph(data["n"], edges), positions)


def network_record(fw, index=0, rejects=0):
    """Structure measurements of one network, as one flat record."""
    table = geodesics(fw.graph)
    h = extent_assignment(fw)
    eccent = table.eccentricities().astype(int)
    m = fw.graph.m
    load = float(communication_load(fw.graph, h).sum())
    upper = float(communication_load(fw.graph, eccent).sum())
    return {
        "index": index,
        "n": fw.graph.n,
        "m": m,
        "diameter": table.diameter(),
        "eta": int(h.max()),
        "load": load,
        "load_ratio": load / (2.0 * m),
        "upper_load": upper,
        "upper_load_ratio": upper / (2.0 * m),
        "rejects": rejects,
    }


ENSEMBLE_COLUMNS = ("index", "n", "m", "diameter", "eta", "load",
                    "load_ratio", "upper_load", "upper_load_ratio", "rejects")


def _measure_ensemble(config):
    """The records of ensemble_count networks and their summary, measured
    on every core the process may use (_cores.forked_map) or else in turn,
    as a one-core run does."""
    seeds = np.random.SeedSequence(config.seed).spawn(config.ensemble_count)

    def measure(index):
        fw, rejects = sample_framework(np.random.default_rng(seeds[index]),
                                       config)
        return network_record(fw, index=index, rejects=rejects)

    records = _cores.forked_map(measure, len(seeds))
    diameters = [r["diameter"] for r in records]
    etas = [r["eta"] for r in records]
    values, counts = np.unique(diameters, return_counts=True)
    summary = {
        "count": len(records),
        "comm_range": config.comm_range,
        "diameter_mode": int(values[counts.argmax()]),
        "diameter_histogram": {int(v): int(c) for v, c in zip(values, counts)},
        "eta_histogram": {
            int(v): int(c)
            for v, c in zip(*np.unique(etas, return_counts=True))
        },
        "eta_at_most_5": float(np.mean([e <= 5 for e in etas])),
        "total_rejects": int(sum(r["rejects"] for r in records)),
    }
    return records, summary


def run_ensemble_experiment(config, csv_path=None, json_path=None):
    """Measure ensemble_count networks at one range; return their records.

    Each network draws from its own spawned child seed, so the ensemble is
    reproducible under any evaluation order.  The networks are measured on
    every core the process may use, one forked child per further core,
    each process claiming the next network when it is free, and the
    records equal those of a one-core run bit for bit.  If
    any share fails, the caller measures every network in turn, so an error
    is the one a one-core run raises first.  Returns (records, summary).
    A flexible network has no extents and no load, so the ensemble needs
    require_rigid.  The output files are opened before the first network
    is drawn, so an unwritable path fails at once.
    """
    if not config.require_rigid:
        raise ConfigError("the ensemble measures rigid networks only")
    with contextlib.ExitStack() as outputs:
        csv_fp, json_fp = _open_outputs(outputs, csv_path, json_path)
        records, summary = _measure_ensemble(config)
        if csv_fp is not None:
            _write_csv(csv_fp, ENSEMBLE_COLUMNS, records)
        if json_fp is not None:
            json.dump({"summary": summary, "networks": records}, json_fp,
                      indent=1)
            json_fp.write("\n")
    return records, summary


def reference_control_config():
    """The calibrated maintenance scenario: 60 robots, 40 m range, 200 s.

    Region side and gains were fixed by a calibration sweep and are the
    recorded defaults behind the long-run envelope: the smallest ball
    eigenvalue stays positive, at least doubles within the first 25 s, and
    the standardized load falls from its peak by roughly a third by the end.
    """
    return ScenarioConfig(
        seed=8, n=60, width=150.0, height=150.0, comm_range=40.0,
        duration=200.0, use_estimates=False,
        control=ControlParams(comm_range=40.0, k_rigidity=0.5, k_load=1.0,
                              k_collision=20.0, dt=0.1))


# each control CSV column, in order, and the World metric it holds
CONTROL_COLUMNS = {
    "t": "t",
    "rho_min": "min_rho",
    "rho_mean": "mean_rho",
    "rho_max": "max_rho",
    "rho_framework": "framework_rho",
    "load_ratio": "load_ratio",
    "m": "edge_count",
    "min_distance": "min_distance",
    "max_localization_error": "max_estimate_error",
}


def run_control_experiment(config, csv_path=None, snapshot_path=None):
    """Closed-loop run of duration / dt ticks; returns (world, rows, error).

    A rigidity loss, a protocol violation of the exchange, or estimates
    the range filter cannot use stops the run, leaves the rows gathered so
    far, and is returned (not raised) together with a final snapshot so
    callers can exit with a diagnostic; error is None on a clean run.  The
    CSV is opened before the framework is drawn, so an unwritable path
    fails at once.
    """
    with contextlib.ExitStack() as outputs:
        [csv_fp] = _open_outputs(outputs, csv_path)
        rng = np.random.default_rng(config.seed)
        fw, _ = sample_framework(rng, config)
        world = make_world(fw, config.control, config)
        error = None
        try:
            run_simulation(world, config.duration)
        except (RigidityLostError, ProtocolViolation, LocalizationError) as exc:
            error = exc
        rows = [{column: m[key] for column, key in CONTROL_COLUMNS.items()}
                for m in world.metrics]
        if config.duration == 0:
            rows = []
        if csv_fp is not None:
            _write_csv(csv_fp, CONTROL_COLUMNS, rows)
    # the snapshot exists only for a failed run: opening it before the run
    # would create or empty the file on a clean one
    if snapshot_path is not None and error is not None:
        with open_output(snapshot_path) as fp:
            json.dump({
                "time": world.time,
                "error": str(error),
                "framework": framework_to_json(world.framework),
            }, fp, indent=1)
            fp.write("\n")
    return world, rows, error


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    return str(value)


def open_output(path):
    """Open a text file for writing, newlines untranslated as the csv module
    needs; a path that cannot be written (a missing directory, no
    permission, a directory) is a ConfigError."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}")


def _open_outputs(outputs, *paths):
    """Open each output path that is not None on the ExitStack outputs;
    None stays None."""
    return [None if path is None else outputs.enter_context(open_output(path))
            for path in paths]


def _write_csv(fp, columns, rows):
    writer = csv.writer(fp)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row[c]) for c in columns])
