"""The message engine's routing, held to recorded data.

data/exchange_routing.json was written by the engine as it stood before its
message handling was rewritten for speed, so these tests check the engine
against an earlier engine and not against itself.  Each case holds a
framework (edges, positions, frozen extents) and, from one exchange on it,
the per-round inbox and outbox sizes, the delivery round of every
(center, member) pair, the completion round, the order in which the
contributions were delivered and the order in which the centers fired.
The apex case also holds the engine's per-message trace lines.  Six cases
cover eta 1 to 4 in the plane and eta 1 and 2 in space.  Every case runs
twice: through the engine with the slope payloads, and through the
routing-only path the closed loop compiles with (payloads=None), which
derives the same fields in closed form and holds None as each payload.
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

DATA = json.loads(
    (Path(__file__).parent / "data" / "exchange_routing.json").read_text())


def case_params(case):
    return ControlParams(**case.get("params", DATA["params"]))


PAYLOADS = {"slopes": simnet._center_payloads, "placeholders": None}


def routing(case, payloads, trace=None):
    """The recorded fields of one exchange on a case."""
    fw = Framework(Graph(case["n"], case["edges"]), case["positions"])
    fired = []

    def spy(center, *args):
        fired.append(center)
        return payloads(center, *args)

    contributions, log = simnet.run_exchange_phase(
        fw, np.array(case["extents"]), case_params(case), trace=trace,
        payloads=None if payloads is None else spy)
    if payloads is None:
        assert set(contributions.values()) == {None}
        fired = simnet.ExchangeSchedule.record(
            contributions, log).fire_order.tolist()
    return {
        # every message sent in a round arrives in it: both recorded sizes
        # are the engine's one per-round count
        "inbox_sizes": log.outbox_sizes,
        "outbox_sizes": log.outbox_sizes,
        "pair_round": sorted([c, m, r] for (c, m), r in log.pair_round.items()),
        "completion_round": log.completion_round,
        "contributions": [[c, m] for c, m in contributions],
        "fire_order": fired,
    }


@pytest.mark.parametrize("payloads", PAYLOADS)
@pytest.mark.parametrize("case", DATA["cases"], ids=lambda c: c["name"])
def test_engine_routes_as_recorded(case, payloads):
    got = routing(case, PAYLOADS[payloads])
    for key, value in got.items():
        assert value == case[key], key


def test_recorded_cases_span_eta_one_to_four():
    etas = {(c["dim"], max(c["extents"])) for c in DATA["cases"]}
    assert {(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)} <= etas


# only the engine sends messages, so only it has trace lines
@pytest.mark.parametrize("payloads", ["slopes"])
def test_trace_lines_as_recorded(payloads):
    [case] = [c for c in DATA["cases"] if "trace" in c]
    buf = io.StringIO()
    routing(case, PAYLOADS[payloads], trace=buf)
    assert buf.getvalue().splitlines() == case["trace"]


def test_routing_only_exchange_refuses_a_trace():
    [case] = [c for c in DATA["cases"] if "trace" in c]
    buf = io.StringIO()
    with pytest.raises(ValueError, match="no messages"):
        routing(case, None, trace=buf)
    assert buf.getvalue() == ""


def no_payloads(center, h, member_data, params):
    """An engine payload that computes nothing, for balls that need not be
    rigid; routing does not depend on the payloads (see above)."""
    return dict.fromkeys(member_data)


# the tests below replace the module's name with a checking wrapper
EXCHANGE = simnet.run_exchange_phase


def assert_routes_as_engine(fw, extents, params, payloads):
    """The routing-only path against one engine run on the same topology."""
    got, log = EXCHANGE(fw, extents, params, payloads=None)
    want, want_log = EXCHANGE(fw, extents, params, payloads=payloads)
    assert list(got) == list(want)
    assert log.outbox_sizes == want_log.outbox_sizes
    assert log.pair_round == want_log.pair_round
    assert log.expected_pairs == want_log.expected_pairs
    assert log.completion_round == want_log.completion_round
    assert np.array_equal(
        simnet.ExchangeSchedule.record(got, log).fire_order,
        simnet.ExchangeSchedule.record(want, want_log).fire_order)


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

    def checked(fw, extents, params, trace=None, payloads=None):
        assert payloads is None
        assert_routes_as_engine(fw, extents, params, simnet._center_payloads)
        compiled.append(fw.graph)
        return EXCHANGE(fw, extents, params, payloads=None)

    fw, _ = sample_framework(np.random.default_rng(config.seed), config)
    world = simnet.make_world(fw, config.control, simnet.WorldConfig(
        noise_std=config.noise_std, use_estimates=config.use_estimates,
        anchors=config.anchors,
        initial_estimate_error=config.initial_estimate_error,
        seed=config.seed))
    monkeypatch.setattr(simnet, "run_exchange_phase", checked)
    simnet.run_simulation(world, duration)
    assert len(compiled) >= 2


@pytest.mark.parametrize("n, dim, eta", [
    (40, 2, 3), (60, 2, 2), (90, 2, 3), (120, 2, 2),
    (40, 3, 2), (60, 3, 3), (90, 3, 2), (120, 3, 3)])
def test_routing_only_path_equals_the_engine_on_widened_extents(n, dim, eta):
    """Sampled frameworks whose extents, mostly 1, are widened at random to
    at most eta, so that balls of many radii meet; a widened ball need not
    be rigid, so the engine runs without payload math."""
    rng = np.random.default_rng(n + dim)
    side, reach = (100.0, 40.0) if dim == 2 else (80.0, 45.0)
    fw, _ = sample_framework(rng, ScenarioConfig(
        n=n, dim=dim, width=side, height=side, comm_range=reach))
    assigned = extent_assignment(fw)
    extents = np.maximum(assigned, rng.integers(1, eta + 1, size=n))
    assert extents.max() == eta
    assert (extents > assigned).any()
    assert_routes_as_engine(fw, extents, ControlParams(comm_range=40.0),
                            no_payloads)
