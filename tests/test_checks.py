"""Every number a caller hands the library is judged by one reader: each
entry point names the argument, the rule and the value it got, in the
words the config fields use, and raises a ConfigError (a ValueError)."""

import re

import numpy as np
import pytest

from rigidnet import (
    ConfigError,
    Framework,
    Graph,
    ScenarioConfig,
    diameter_eigenvalue_bound,
    disk_proximity_graph,
    extract_subframework,
    filter_update,
    inclusion_group,
    make_filters,
    rigidity_spectrum,
    run_static_filter,
)
from rigidnet.graphs import induced_subgraph
from rigidnet.localization import measure_ranges
from rigidnet.simnet import tick_count

EDGES = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 4), (3, 4)]
X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.7, 0.8]])
FW = Framework(Graph(5, EDGES), X)


def filters():
    return make_filters(X, 1.0, 0.01)


def one_update(range_variance=0.01, process_floor=0.0):
    """One robot's range correction against two neighbors."""
    return filter_update(np.zeros(2), np.eye(2), range_variance, [1.0, 1.0],
                         [[2, 0], [0, 2]], process_floor=process_floor)


# the hostile values, each one a case wherever it applies
BAD = {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"),
       "fraction": 2.5, "bool": True, "string": "3", "negative": -1,
       "n": 5}

# entry point: (call of the bad value, the name its error uses, what the
# value must be, and the domain of a number or the cases an id takes)
ENTRIES = {
    "Graph.n": (lambda v: Graph(v, EDGES), "n", int, "non-negative"),
    "disk_proximity_graph.range": (lambda v: disk_proximity_graph(X, v),
                                   "range", float, "positive"),
    "make_filters.initial_variance": (lambda v: make_filters(X, v, 0.01),
                                      "initial_variance", float,
                                      "non-negative"),
    "make_filters.range_variance": (lambda v: make_filters(X, 1.0, v),
                                    "range_variance", float, "positive"),
    "filter_update.range_variance": (lambda v: one_update(v),
                                     "range_variance", float, "positive"),
    "filter_update.process_floor": (
        lambda v: one_update(process_floor=v), "process_floor", float,
        "non-negative"),
    "measure_ranges.noise_std": (
        lambda v: measure_ranges(FW, np.random.default_rng(0), v),
        "noise_std", float, "non-negative"),
    "run_static_filter.rounds": (lambda v: run_static_filter(FW, filters(), v),
                                 "rounds", int, "non-negative"),
    "run_static_filter.measurement_std": (
        lambda v: run_static_filter(FW, filters(), 1, measurement_std=v),
        "measurement_std", float, "non-negative"),
    "tick_count.duration": (lambda v: tick_count(v, 0.05), "duration", float,
                            "non-negative"),
    "rigidity_spectrum.d": (lambda v: rigidity_spectrum(np.eye(6), v), "d",
                            int, "2 or 3"),
    "diameter_eigenvalue_bound.m": (lambda v: diameter_eigenvalue_bound(v, 2),
                                    "m", int, "non-negative"),
    "diameter_eigenvalue_bound.D": (
        lambda v: diameter_eigenvalue_bound(10, v), "D", int, "at least 1"),
    "induced_subgraph.nodes": (lambda v: induced_subgraph(FW.graph, [0, v, 2]),
                               "nodes", "ids", BAD),
    "make_filters.anchors": (lambda v: make_filters(X, 1.0, 0.01,
                                                    anchors=(0, v)),
                             "anchors", "ids", BAD),
    "extract_subframework.center": (lambda v: extract_subframework(FW, v, 1),
                                    "center", "id", BAD),
    "inclusion_group.i": (lambda v: inclusion_group(FW.graph, [2] * 5, v),
                          "i", "id", BAD),
    # the field's own check takes every value that is not an int
    "ScenarioConfig.anchors": (lambda v: ScenarioConfig(n=5, anchors=(0, v)),
                               "anchors", "ids", ("negative", "n")),
}


def expected(name, kind, rule, case):
    """The whole message of the reader for BAD[case], or None where the
    case is a valid value of that kind."""
    v = BAD[case]
    if kind in ("id", "ids"):
        if case not in rule:
            return None
        what = "a node id" if kind == "id" else "node ids"
        return f"{name} must be {what} in 0..4, got {v!r}"
    if case == "n" or (kind is float and case == "fraction"):
        return None
    if case in ("bool", "string") or (kind is int and case != "negative"):
        return f"{name} must be of type {kind.__name__}, got {v!r}"
    if case in ("nan", "inf", "-inf"):
        return f"{name} must be finite, got {v!r}"
    return f"{name} must be {rule}, got {v!r}"


CASES = [(entry, case) for entry, (_, name, kind, rule) in ENTRIES.items()
         for case in BAD if expected(name, kind, rule, case) is not None]


@pytest.mark.parametrize("entry, case", CASES)
def test_every_entry_point_names_the_fault(entry, case):
    call, name, kind, rule = ENTRIES[entry]
    message = expected(name, kind, rule, case)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call(BAD[case])


def test_every_entry_point_meets_the_cases_that_apply():
    # a number meets all but the id past the end, and an int the fraction
    # too; an id meets every case, and the scenario's anchors the two its
    # field check leaves
    counts = {entry: sum(e == entry for e, _ in CASES) for entry in ENTRIES}
    assert counts == {
        entry: 2 if entry == "ScenarioConfig.anchors"
        else 8 if kind in ("id", "ids") else 7 if kind is int else 6
        for entry, (_, _, kind, _) in ENTRIES.items()}
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("keyword, name", [
    ("range_variance", "range_variance"), ("process_floor", "process_floor")])
@pytest.mark.parametrize("value, message", [
    (-0.5, "must be {}, got -0.5"), (float("nan"), "must be finite, got nan"),
    (float("inf"), "must be finite, got inf"),
    (True, "must be of type float, got True"),
    ("0.01", "must be of type float, got '0.01'")])
def test_filter_update_reads_both_scalars(keyword, name, value, message):
    # a bad one once ended in a covariance of -I, or in a
    # NonFiniteRangeError that named the wrong fault
    rule = "positive" if keyword == "range_variance" else "non-negative"
    want = f"{name} {message.format(rule)}"
    with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
        one_update(**{keyword: value})


def test_a_diameter_of_zero_bounds_nothing():
    with pytest.raises(ConfigError, match=r"^D must be at least 1, got 0$"):
        diameter_eigenvalue_bound(10, 0)


def test_numpy_scalars_are_numbers_and_ids():
    g = Graph(np.int64(5), EDGES)
    assert g.n == 5 and type(g.n) is int
    assert disk_proximity_graph(X, np.float64(1.2)) == disk_proximity_graph(
        X, 1.2)
    sub, nodes = induced_subgraph(g, np.array([0, 1, 2]))
    assert nodes == [0, 1, 2] and sub.m == 3
    sub, nodes = extract_subframework(FW, np.int64(4), 1)
    assert nodes == [1, 3, 4]
    assert inclusion_group(g, [2] * 5, np.int64(4)) == inclusion_group(
        g, [2] * 5, 4)
    anchored = make_filters(X, np.float64(1.0), np.float64(0.01),
                            anchors=(np.int64(1), 3))
    assert anchored.anchors.tolist() == [False, True, False, True, False]
    assert ScenarioConfig(n=5, anchors=(np.int64(4),)).anchors == (4,)
    assert (measure_ranges(FW, None, np.float64(0.0)).tobytes()
            == measure_ranges(FW).tobytes())
    assert run_static_filter(FW, filters(), np.int64(2)).shape == X.shape
    assert tick_count(np.float64(1.0), 0.05) == 20
    assert diameter_eigenvalue_bound(np.int64(10), np.int64(2)) == 5.0
