"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

While ``installed`` is active, each name in TARGETS is replaced by a wrapper
at the place where rigidnet looks it up at call time (a module global, a
class attribute, or ``numpy.linalg``/``scipy.linalg``).  A wrapper records a
span: name, start, end, parent span and the operation (tick or network) it
ran for.  Spans stay in memory until the run ends.  Leaving the context
restores every original, so the untraced code path never sees a wrapper.
"""

import contextlib
import functools
import gzip
import json
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from rigidnet import control, experiments, graphs, rigidity, simnet


@dataclass
class Span:
    name: str
    op: int
    parent: int
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0
    info: object = None

    @property
    def ns(self):
        return self.end_ns - self.start_ns


def _exchange_info(args, kwargs, result):
    fw, extents = args[0], args[1]
    _, log = result
    topology = (tuple(fw.graph.edges), np.asarray(extents).tobytes())
    return sum(log.outbox_sizes), log.rounds, topology


def _accepted(args, kwargs, result):
    return result[1] is not None


def _rejects(args, kwargs, result):
    return result[1]


def _matrix_dim(args, kwargs, result):
    return np.shape(args[0])[0]


# (owner, attribute, extra data kept from each call)
TARGETS = (
    (simnet, "run_exchange_phase", _exchange_info),
    (simnet, "guarded_refresh", _accepted),
    (simnet, "build_control_state", None),
    (simnet, "filter_update", None),
    (simnet, "broadcast_estimates", None),
    (simnet, "communication_load", None),
    (control, "build_control_state", None),
    (control, "refresh_topology", None),
    (control, "extent_assignment", None),
    (experiments, "sample_framework", _rejects),
    (experiments, "is_infinitesimally_rigid", None),
    (experiments, "network_record", None),
    (experiments, "extent_assignment", None),
    (experiments, "communication_load", None),
    (experiments, "disk_proximity_graph", None),
    (rigidity, "rigidity_report", None),
    (graphs.GeodesicTable, "compute", None),
    (graphs.Graph, "__init__", None),
    (np.linalg, "eigh", _matrix_dim),
    (np.linalg, "eigvalsh", _matrix_dim),
    (scipy.linalg, "svdvals", None),
)


def span_name(owner, attr):
    if isinstance(owner, type):
        module = owner.__module__.removeprefix("rigidnet.")
        return f"{module}.{owner.__name__}.{attr}"
    return f"{owner.__name__.removeprefix('rigidnet.')}.{attr}"


class Tracer:
    """Collects spans; ``op`` is the tick or network the caller is running.

    With ``network_ops`` each entry into the sampler starts a new operation,
    because an ensemble call runs many networks without handing control back.
    """

    def __init__(self, network_ops=False):
        self.spans = []
        self.op = -1
        self.network_ops = network_ops
        self._open = []

    def wrap(self, name, fn, info):
        starts_op = self.network_ops and name == "experiments.sample_framework"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_op:
                self.op += 1
            parent = self._open[-1] if self._open else -1
            span = Span(name, self.op, parent, time.perf_counter_ns())
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._open.pop()
                if parent >= 0:
                    self.spans[parent].child_ns += span.ns
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        """One JSON array per span: name, op, parent index, start, end (ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fp:
            for s in self.spans:
                fp.write(json.dumps([s.name, s.op, s.parent, s.start_ns,
                                     s.end_ns]) + "\n")


@contextlib.contextmanager
def installed(tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, info in TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            name = span_name(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(name, original.__func__, info))
            else:
                wrapped = tracer.wrap(name, original, info)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# span name -> layer it is reported under; eigensolves are split by size below
LAYERS = {
    "simnet.run_exchange_phase": "simnet.exchange",
    "simnet.guarded_refresh": "control.guarded_refresh",
    "simnet.build_control_state": "control.state_builds",
    "control.build_control_state": "control.state_builds",
    "control.refresh_topology": "control.refresh_topology",
    "scipy.linalg.svdvals": "lapack.svd",
    "graphs.Graph.__init__": "graphs.graph_builds",
    "graphs.GeodesicTable.compute": "graphs.geodesic_table",
    "experiments.disk_proximity_graph": "graphs.disk_proximity",
    "rigidity.rigidity_report": "rigidity.report",
    "experiments.sample_framework": "experiments.sampler",
    "experiments.network_record": "experiments.network_record",
    "experiments.extent_assignment": "subframeworks.extent_assignment",
    "control.extent_assignment": "subframeworks.extent_assignment",
    "experiments.communication_load": "subframeworks.communication_load",
    "simnet.communication_load": "subframeworks.communication_load",
    "simnet.filter_update": "localization.filter_update",
    "simnet.broadcast_estimates": "simnet.broadcast",
}
EIGEN = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, framework_dim, ticks):
    """Per-layer totals of one traced run.

    framework_dim is d*n: an eigensolve of that size is a whole-framework
    solve, any smaller one a ball.  ticks is the number of control ticks
    (0 for the ensemble); spans of the set-up have op -1.
    """
    groups = {layer: [] for layer in set(LAYERS.values())}
    groups["lapack.whole_framework"] = []
    groups["lapack.ball_eigen"] = []
    for s in spans:
        if s.name in EIGEN:
            size = "whole_framework" if s.info == framework_dim else "ball_eigen"
            groups[f"lapack.{size}"].append(s)
        elif s.name in LAYERS:
            groups[LAYERS[s.name]].append(s)

    out = {}
    for layer, group in groups.items():
        out[f"{layer}.calls"] = len(group)
        out[f"{layer}.ms"] = sum(s.ns for s in group) / 1e6
        out[f"{layer}.self_ms"] = sum(s.ns - s.child_ns for s in group) / 1e6

    exchanges = [s.info for s in groups["simnet.exchange"]]
    out["simnet.exchange.messages"] = sum(e[0] for e in exchanges)
    out["simnet.exchange.rounds"] = sum(e[1] for e in exchanges)
    out["simnet.exchange.topology_repeat_ratio"] = _ratio(
        len(exchanges) - len({e[2] for e in exchanges}), len(exchanges))
    out["lapack.ball_eigen.dim3_sum"] = sum(
        s.info ** 3 for s in groups["lapack.ball_eigen"])
    out["control.builds_per_tick"] = _ratio(
        sum(s.op >= 0 for s in groups["control.state_builds"]), ticks)
    accepted = [s.info for s in groups["control.guarded_refresh"]]
    out["control.step_accept_ratio"] = _ratio(sum(accepted), len(accepted))
    rejects = [s.info for s in groups["experiments.sampler"]]
    out["experiments.sampler.accept_ratio"] = _ratio(
        len(rejects), len(rejects) + sum(rejects))
    return out
