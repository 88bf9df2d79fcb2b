"""Scenario generation and the two batch experiments, with file export.

The ensemble experiment measures the structure of many random networks at a
fixed communication range: diameter, worst extent, and communication load.
The control experiment runs the closed loop on one network and logs a time
series.  Both write CSV with a fixed number format so identical seeds give
byte-identical files; per-network randomness comes from spawned child seeds,
so records are reproducible regardless of evaluation order.
"""

import contextlib
import csv
import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .control import ControlParams, RigidityLostError
from .graphs import Graph, disk_proximity_graph, geodesics, is_connected
from .localization import CoincidentEstimatesError, NonFiniteRangeError
from .rigidity import CoincidentNodesError, Framework, is_infinitesimally_rigid
from .simnet import ProtocolViolation, WorldConfig, make_world, run_simulation
from .subframeworks import communication_load, extent_assignment

FLOAT_FORMAT = "%.10g"


class ConfigError(ValueError):
    """A scenario configuration field is out of its valid range."""


def _is_integer(value):
    """An integer of any integral type, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class ScenarioConfig:
    """Everything a run needs: region, network size, controller, outputs."""

    seed: int = 0
    n: int = 60
    width: float = 100.0
    height: float = 100.0
    comm_range: float = 40.0
    dim: int = 2
    ensemble_count: int = 250
    duration: float = 200.0
    noise_std: float = 0.0
    anchors: tuple = ()
    control: ControlParams = None
    use_estimates: bool = True
    initial_estimate_error: float = 0.0
    require_rigid: bool = True
    rejection_budget: int = 2000

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, "
                              f"got {self.seed!r}")
        if self.n < 2:
            raise ConfigError("need at least two robots")
        if self.require_rigid and self.n <= self.dim:
            raise ConfigError("a rigid scenario needs more robots than dim")
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("region sides must be positive")
        if self.comm_range <= 0:
            raise ConfigError("communication range must be positive")
        if self.dim not in (2, 3):
            raise ConfigError("dimension must be 2 or 3")
        if self.ensemble_count < 1:
            raise ConfigError("ensemble count must be positive")
        if self.duration < 0:
            raise ConfigError("duration cannot be negative")
        if self.noise_std < 0:
            raise ConfigError("noise level cannot be negative")
        if self.initial_estimate_error < 0:
            raise ConfigError("initial estimate error cannot be negative")
        if self.rejection_budget < 1:
            raise ConfigError("rejection budget must be positive")
        if any(a < 0 or a >= self.n for a in self.anchors):
            raise ConfigError("anchor ids must be node ids")
        if self.control is None:
            self.control = ControlParams(comm_range=self.comm_range)


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
    if not _is_integer(data["n"]):
        raise ValueError(f"n must be an integer, got {data['n']!r}")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise ValueError(f"edges must be a list, got {edges!r}")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2
                and all(map(_is_integer, e))):
            raise ValueError(
                f"an edge must be a pair of integer node ids, got {e!r}")
    return Framework(Graph(int(data["n"]), edges), data["positions"])


def network_record(fw, index=0, rejects=0):
    """Structure measurements of one network, as one flat record."""
    table = geodesics(fw.graph)
    h = extent_assignment(fw)
    eccent = table.dist.max(axis=1).astype(int)
    m = fw.graph.m
    load = float(communication_load(fw.graph, h).sum())
    upper = float(communication_load(fw.graph, eccent).sum())
    return {
        "index": index,
        "n": fw.graph.n,
        "m": m,
        "diameter": int(table.dist.max()),
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
    """The records of ensemble_count networks and their summary."""
    root = np.random.SeedSequence(config.seed)
    records = []
    for index, child in enumerate(root.spawn(config.ensemble_count)):
        rng = np.random.default_rng(child)
        fw, rejects = sample_framework(rng, config)
        records.append(network_record(fw, index=index, rejects=rejects))
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
    reproducible under any evaluation order.  Returns (records, summary).
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


CONTROL_COLUMNS = ("t", "rho_min", "rho_mean", "rho_max", "rho_framework",
                   "load_ratio", "m", "min_distance",
                   "max_localization_error")


def _control_row(metric):
    return {
        "t": metric["t"],
        "rho_min": metric["min_rho"],
        "rho_mean": metric["mean_rho"],
        "rho_max": metric["max_rho"],
        "rho_framework": metric["framework_rho"],
        "load_ratio": metric["load_ratio"],
        "m": metric["edge_count"],
        "min_distance": metric["min_distance"],
        "max_localization_error": metric["max_estimate_error"],
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
        wconfig = WorldConfig(
            noise_std=config.noise_std,
            use_estimates=config.use_estimates,
            anchors=tuple(config.anchors),
            initial_estimate_error=config.initial_estimate_error,
            seed=config.seed,
        )
        world = make_world(fw, config.control, wconfig)
        error = None
        try:
            run_simulation(world, config.duration)
        except (RigidityLostError, ProtocolViolation,
                CoincidentEstimatesError, NonFiniteRangeError) as exc:
            error = exc
        rows = [_control_row(m) for m in world.metrics]
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
