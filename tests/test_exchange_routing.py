"""The message engine's routing, held to recorded data.

data/exchange_routing.json was written by the engine as it stood before its
message handling was rewritten for speed, so these tests check the engine
against an earlier engine and not against itself.  Each case holds a
framework (edges, positions, frozen extents) and, from one exchange on it,
the per-round inbox and outbox sizes, the delivery round of every
(center, member) pair, the completion round, the order in which the
contributions were delivered and the order in which the centers fired.
The apex case also holds the engine's per-message trace lines.  Six cases
cover eta 1 to 4 in the plane and eta 1 and 2 in space.  Routing must not
depend on the payloads, so every case runs with the slope payloads and with
the placeholders the closed loop compiles with.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from rigidnet import simnet
from rigidnet.control import ControlParams
from rigidnet.graphs import Graph
from rigidnet.rigidity import Framework

DATA = json.loads(
    (Path(__file__).parent / "data" / "exchange_routing.json").read_text())


def case_params(case):
    return ControlParams(**case.get("params", DATA["params"]))


PAYLOADS = {"slopes": simnet._center_payloads,
            "placeholders": simnet._placeholders}


def routing(case, payloads, trace=None):
    """The recorded fields of one engine run on a case."""
    fw = Framework(Graph(case["n"], case["edges"]), case["positions"])
    fired = []

    def spy(center, *args):
        fired.append(center)
        return payloads(center, *args)

    contributions, log = simnet.run_exchange_phase(
        fw, np.array(case["extents"]), case_params(case), trace=trace,
        payloads=spy)
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


@pytest.mark.parametrize("payloads", PAYLOADS)
def test_trace_lines_as_recorded(payloads):
    [case] = [c for c in DATA["cases"] if "trace" in c]
    buf = io.StringIO()
    routing(case, PAYLOADS[payloads], trace=buf)
    assert buf.getvalue().splitlines() == case["trace"]
