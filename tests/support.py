"""Shared generators and brute-force oracles used across the test suite."""

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rigidnet import rigidity
from rigidnet.control import build_control_state
from rigidnet.graphs import (
    UNREACHABLE,
    Graph,
    disk_proximity_graph,
    induced_subgraph,
    is_connected,
)
from rigidnet.rigidity import Framework


def skip_unless_recorded_build():
    """Skip a check of recorded bits unless this is the numpy version and
    BLAS build that data/final_state_digests.json was recorded with."""
    digests = json.loads(
        (Path(__file__).parent / "data" / "final_state_digests.json")
        .read_text())
    recorded = (digests["numpy"], digests["blas"])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    here = (np.__version__, f"{blas['name']} {blas['version']}")
    if here != recorded:
        pytest.skip(f"digests were recorded on numpy {recorded[0]} with "
                    f"{recorded[1]}; this is numpy {here[0]} with {here[1]}")


# one ball's entries per group, the default groups, and one group
GROUPINGS = (1, rigidity.GROUP_ENTRIES, 2**62)


def groupings(monkeypatch):
    """Each of GROUPINGS in turn, set as rigidity.GROUP_ENTRIES."""
    for entries in GROUPINGS:
        monkeypatch.setattr(rigidity, "GROUP_ENTRIES", entries)
        yield entries


def random_graph(rng, n, p):
    """Erdos-Renyi G(n, p)."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def reference_graph_layout(n, edges):
    """A graph's canonical edges and slot layout, by a loop over the edges.

    The reference for the Graph constructor: it raises ValueError with the
    constructor's message for the first edge, in input order, that is a
    self-loop, out of range or a repeat of an earlier edge.
    """
    seen = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        e = (i, j) if i < j else (j, i)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    canonical = sorted(seen)
    owned = [[] for _ in range(n)]
    for k, (i, j) in enumerate(canonical):
        owned[i].append((j, k))
        owned[j].append((i, k))
    slots, slot_node, slot_edge = [0], [], []
    for own in map(sorted, owned):
        slots.append(slots[-1] + len(own))
        slot_node += [j for j, _ in own]
        slot_edge += [k for _, k in own]
    return SimpleNamespace(edges=canonical, slots=slots, slot_node=slot_node,
                           slot_edge=slot_edge)


def random_connected_graph(rng, n, p, max_tries=200):
    for _ in range(max_tries):
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g
    raise RuntimeError(f"no connected G({n}, {p}) in {max_tries} tries")


def random_framework(rng, n, d, p=0.5):
    g = random_graph(rng, n, p)
    return Framework(g, rng.uniform(-1.0, 1.0, size=(n, d)))


def random_rigid_framework(rng, n, d, max_tries=300):
    """Random connected framework that passes the rigidity eigenvalue test."""
    from rigidnet.rigidity import is_infinitesimally_rigid

    p = 0.7 if n <= 8 else 0.5
    for _ in range(max_tries):
        g = random_graph(rng, n, p)
        if not is_connected(g):
            continue
        fw = Framework(g, rng.uniform(-1.0, 1.0, size=(n, d)))
        if is_infinitesimally_rigid(fw):
            return fw
    raise RuntimeError(f"no rigid framework with n={n}, d={d} in {max_tries} tries")


def random_disk_framework(rng, n, side, range_, max_tries=300, dim=2):
    """Connected disk-proximity framework with nodes uniform in a square or cube."""
    for _ in range(max_tries):
        x = rng.uniform(0.0, side, size=(n, dim))
        g = disk_proximity_graph(x, range_)
        if is_connected(g):
            return Framework(g, x)
    raise RuntimeError("no connected disk framework found")


def floyd_warshall(g):
    """All-pairs hop counts by the textbook O(n^3) recurrence."""
    n = g.n
    dist = np.full((n, n), UNREACHABLE)
    np.fill_diagonal(dist, 0.0)
    for i, j in g.edges:
        dist[i, j] = dist[j, i] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist


def biconnected_by_deletion(g):
    """Connected, and still connected after deleting each node in turn."""
    return is_connected(g) and all(
        is_connected(induced_subgraph(g, [u for u in range(g.n) if u != v])[0])
        for v in range(g.n))


def hop_ball(g, center, h):
    """Sorted node ids within h hops of center, by the Floyd-Warshall hop counts."""
    return [j for j, hops in enumerate(floyd_warshall(g)[center]) if hops <= h]


def reject_every_step(*args, **kwargs):
    """Stand-in for simnet.guarded_refresh that rejects every candidate
    step, so the step loop runs out of halvings on any framework."""
    return None, None


def central_difference(f, x, eps=1e-6):
    """Central finite-difference gradient of a function of a flat array;
    a function of several values gets one gradient row per value."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = eps
        cols.append((np.asarray(f(x + step)) - np.asarray(f(x - step)))
                    / (2 * eps))
    return np.stack(cols, axis=-1)


def state_at(state, positions):
    """The control state of state's frozen edge set and extents at other
    positions, solved for eigenvalues only: every cost term at those
    positions reads off this one build."""
    return build_control_state(
        Framework(state.framework.graph, positions), state.params,
        state.extents, vectors=False)


def engine_schedule(pairs):
    """The BallSet stack row of each pair an engine run delivered, from its
    (center, member) pairs in delivery order (the keys of its
    contributions): a pair's row is its place in (center, member) order,
    which is the BallSet stack's."""
    pairs = np.array(list(pairs), dtype=np.intp).reshape(-1, 2)
    rows = np.empty(len(pairs), dtype=np.intp)
    rows[np.lexsort((pairs[:, 1], pairs[:, 0]))] = np.arange(len(pairs))
    return rows


def log_arrays(log):
    """A RoundLog's traffic and deliveries as lists, in delivery order, to
    compare with ==."""
    return {"outbox_sizes": log.outbox_sizes,
            **{name: getattr(log, name).tolist()
               for name in ("center", "member", "round")}}


def pair_rounds(log):
    """The delivery round of every (center, member) pair of a RoundLog."""
    return dict(zip(zip(log.center.tolist(), log.member.tolist()),
                    log.round.tolist()))


class FakeBlas:
    """A library's thread count behind the (get, set) pair that
    _cores._openblas_thread_counts gives for each OpenBLAS."""

    def __init__(self, threads):
        self.threads = threads

    def get(self):
        return self.threads

    def set(self, n):
        self.threads = n


def bits(spectrum):
    """Every field a Spectrum or a rigidity.Verdicts record holds, as bytes
    where it is a number, and a record's per-S arrays one by one."""
    def field_bits(v):
        if v is None or isinstance(v, bool):
            return v
        if isinstance(v, tuple):
            return tuple(map(field_bits, v))
        return np.asarray(v, dtype=float).tobytes()
    return tuple(field_bits(getattr(spectrum, f.name))
                 for f in dataclasses.fields(spectrum))
