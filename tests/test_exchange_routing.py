"""The message engine's routing, and the routing formula, held to recorded data.

data/exchange_routing.json was written by the engine as it stood before its
message handling was rewritten for speed, so these tests check the engine
against an earlier engine and not against itself.  Each case holds a
framework (edges, positions, frozen extents) and, from one exchange on it,
the per-round inbox and outbox sizes, the delivery round of every
(center, member) pair, the completion round, the order in which the
contributions were delivered and the order in which the centers fired.
The apex case also holds the engine's per-message trace lines.  Six cases
cover eta 1 to 4 in the plane and eta 1 and 2 in space.  Every case runs
twice: through the engine with the slope payloads ("slopes"), and through
run_exchange_phase, the routing formula the closed loop compiles with,
which computes no payload ("placeholders").  Both give each delivery's
BallSet stack row and a round log, and both are held to the recorded
fields: the log's (center, member) pairs in delivery order are the
recorded contribution order, and its self deliveries the firing order.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from rigidnet import simnet
from rigidnet.control import ControlParams
from rigidnet.experiments import (
    ScenarioConfig,
    reference_control_config,
    sample_framework,
)
from rigidnet.graphs import Graph
from rigidnet.rigidity import Framework
from rigidnet.subframeworks import extent_assignment

from support import engine_schedule, log_arrays

DATA = json.loads(
    (Path(__file__).parent / "data" / "exchange_routing.json").read_text())


def case_params(case):
    return ControlParams(**case.get("params", DATA["params"]))


def case_framework(case):
    return Framework(Graph(case["n"], case["edges"]), case["positions"])


def engine_run(monkeypatch, case, trace=None):
    """One engine run on a case: its contributions, log and firing order,
    the last seen by a spy on the centers' payload function."""
    payloads = simnet._center_payloads
    fired = []

    def spy(center, *args):
        fired.append(center)
        return payloads(center, *args)

    monkeypatch.setattr(simnet, "_center_payloads", spy)
    contributions, log = simnet.run_message_engine(
        case_framework(case), np.array(case["extents"]), case_params(case),
        trace=trace)
    return contributions, log, fired


@pytest.mark.parametrize("path", ["slopes", "placeholders"])
@pytest.mark.parametrize("case", DATA["cases"], ids=lambda c: c["name"])
def test_engine_routes_as_recorded(monkeypatch, case, path):
    if path == "slopes":
        contributions, log, fired = engine_run(monkeypatch, case)
        assert [[c, m] for c, m in contributions] == case["contributions"]
        assert fired == case["fire_order"]
        rows = engine_schedule(contributions)
    else:
        rows, log = simnet.run_exchange_phase(
            case_framework(case), np.array(case["extents"]))
    assert rows.tolist() == engine_schedule(case["contributions"]).tolist()
    assert (np.column_stack([log.center, log.member]).tolist()
            == case["contributions"])
    self_pairs = log.center == log.member
    assert log.center[self_pairs].tolist() == case["fire_order"]
    # every message sent in a round arrives in it: both recorded sizes are
    # the engine's one per-round count
    assert log.outbox_sizes == case["inbox_sizes"] == case["outbox_sizes"]
    assert (sorted(np.column_stack([log.center, log.member, log.round])
                   .tolist()) == case["pair_round"])
    assert log.completion_round == case["completion_round"]


def test_recorded_cases_span_eta_one_to_four():
    etas = {(c["dim"], max(c["extents"])) for c in DATA["cases"]}
    assert {(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)} <= etas


# only the engine sends messages, so only it has trace lines
@pytest.mark.parametrize("path", ["slopes"])
def test_trace_lines_as_recorded(monkeypatch, path):
    [case] = [c for c in DATA["cases"] if "trace" in c]
    buf = io.StringIO()
    engine_run(monkeypatch, case, trace=buf)
    assert buf.getvalue().splitlines() == case["trace"]


def no_payloads(center, h, member_data, params):
    """An engine payload that computes nothing, for balls that need not be
    rigid; routing does not depend on the payloads (see above)."""
    return dict.fromkeys(member_data)


# the tests below replace the module's name with a checking wrapper
EXCHANGE = simnet.run_exchange_phase


def assert_routes_as_engine(fw, extents, params):
    """The routing formula against one engine run on the same topology."""
    rows, log = EXCHANGE(fw, extents)
    contributions, want_log = simnet.run_message_engine(fw, extents, params)
    assert rows.tolist() == engine_schedule(contributions).tolist()
    assert log_arrays(log) == log_arrays(want_log)


LIVE_RUNS = {
    "plane_truth": (reference_control_config(), 3.0),
    "plane_estimates": (ScenarioConfig(
        seed=3, n=40, width=120.0, height=120.0, noise_std=0.05,
        initial_estimate_error=0.5, anchors=(0, 1, 2)), 3.0),
    "space_truth": (ScenarioConfig(
        seed=0, n=40, dim=3, width=100.0, height=100.0, comm_range=45.0,
        use_estimates=False), 1.0),
}


@pytest.mark.parametrize("run", LIVE_RUNS)
def test_routing_only_path_equals_the_engine_on_live_topologies(
        monkeypatch, run):
    """Every topology a short closed-loop run compiles, held to an engine
    run with the slope payloads at the positions it was compiled at."""
    config, duration = LIVE_RUNS[run]
    compiled = []

    def checked(fw, extents):
        assert_routes_as_engine(fw, extents, config.control)
        compiled.append(fw.graph)
        return EXCHANGE(fw, extents)

    fw, _ = sample_framework(np.random.default_rng(config.seed), config)
    world = simnet.make_world(fw, config.control, config)
    monkeypatch.setattr(simnet, "run_exchange_phase", checked)
    simnet.run_simulation(world, duration)
    assert len(compiled) >= 2


@pytest.mark.parametrize("n, dim, eta", [
    (40, 2, 3), (60, 2, 2), (90, 2, 3), (120, 2, 2),
    (40, 3, 2), (60, 3, 3), (90, 3, 2), (120, 3, 3)])
def test_routing_only_path_equals_the_engine_on_widened_extents(
        monkeypatch, n, dim, eta):
    """Sampled frameworks whose extents, mostly 1, are widened at random to
    at most eta, so that balls of many radii meet; a widened ball need not
    be rigid, so the engine runs without payload math."""
    monkeypatch.setattr(simnet, "_center_payloads", no_payloads)
    rng = np.random.default_rng(n + dim)
    side, reach = (100.0, 40.0) if dim == 2 else (80.0, 45.0)
    fw, _ = sample_framework(rng, ScenarioConfig(
        n=n, dim=dim, width=side, height=side, comm_range=reach))
    assigned = extent_assignment(fw)
    extents = np.maximum(assigned, rng.integers(1, eta + 1, size=n))
    assert extents.max() == eta
    assert (extents > assigned).any()
    assert_routes_as_engine(fw, extents, ControlParams(comm_range=40.0))
