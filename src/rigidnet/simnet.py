"""Round-based message engine for the decentralized rigidity controller.

The engine owns the true world state; agents only see their mailboxes.  One
round delivers every queued message across one edge and then lets each node
process its inbox.  An exchange floods every node's position out to the
centers whose balls contain it; each center rebuilds its ball from the
payloads it collected, computes the per-member slopes of its own rigidity
and load terms with the controller's one slope formula, and ships them back
along the recorded flood paths.  The round counter certifies that
every (center, member) pair is served within twice the worst extent, which
the exchange asserts as a hard bound.

Static protocol tables (ball membership, flood ttl) derive from the frozen
extents; the engine reads them from the topology's BallSet.  A running
system would need a bootstrap protocol to distribute them, which is out of
scope here.  Dynamic data (positions, gradient contributions) moves only
through messages, and the engine checks every hop against the edge set;
the filters' one-hop estimate broadcast runs outside the engine.  Messages
are validated tuples, and each round processes a node's inbox in
(origin, sender) order.

Routing depends on the topology alone: the edge set and the frozen extents
fix every flood path, every return route, the centers' firing order and
the round log, but not the payloads.  The closed loop therefore compiles
the exchange once per topology as routing only: the first tick on a Graph
runs the engine with placeholder payloads, so the non-edge and 2 * eta
checks run on every new topology and no ball is solved.  It keeps an
ExchangeSchedule on the Graph (Graph.cached, keyed on the extents), beside
the topology's BallSet: where each delivered (center, member) pair sits in
the BallSet's stack, the centers' firing order and the engine's round log.
Every tick on that Graph, the first included, replays the schedule: every
center's payloads are computed from its ball members' positions only and
summed in the recorded delivery order, which gives the engine's commands
bit for bit.  On ground truth the guard's accepted control state already
holds every ball's eigendata at these positions, so the replay solves
nothing; on believed positions it builds one control state there.  The
replay, its collision terms and the per-tick metrics read the edge unit
vectors and lengths from the Framework at the positions they use, which
measured them once when it was built.
run_exchange_phase with its default payloads, and
decentralized_velocity, run the engine with real payloads and are the
replay's oracle.

A World holds the network's filter state as one localization.Filters.
Each tick corrects every robot's row with filter_update and pins the
anchors through the mask; after the step, all estimates dead-reckon and
all covariances inflate in one array statement each.
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .control import (
    ControlParams,
    ControlState,
    RigidityLostError,
    _logistic,
    ball_load_slopes,
    ball_rigidity_slopes,
    build_control_state,
    guarded_refresh,
)
from .graphs import Graph, geodesics
from .localization import Filters, filter_update, make_filters, measure_ranges
from .rigidity import Framework, framework_spectrum
from .subframeworks import (
    ball_grams,
    ball_set,
    ball_spectrum,
    communication_load,
    stack_balls,
    stack_layouts,
)

POSITION_FLOOD = "position_flood"
GRADIENT_RETURN = "gradient_return"


class ProtocolViolation(RuntimeError):
    """A message crossed a non-edge or the exchange missed its round bound."""


KINDS = (POSITION_FLOOD, GRADIENT_RETURN)


class Message(namedtuple("Message", "origin kind ttl path payload target route",
                         defaults=(None, None, None))):
    """One hop-by-hop payload; path records every node it has visited.

    Returns carry the full reverse route so intermediate nodes can forward
    without any routing state of their own; floods have no fixed route.
    A message is a tuple whose first field is its origin, so an inbox sorts
    by origin with a plain item getter.
    """

    __slots__ = ()

    def __new__(cls, origin, kind, ttl, path, payload=None, target=None,
                route=None):
        if kind not in KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        if ttl < 0:
            raise ValueError("ttl must be non-negative")
        return tuple.__new__(cls, (origin, kind, ttl, path, payload, target,
                                   route))


@dataclass
class RoundLog:
    """Audit trail of one exchange: traffic per round and delivery rounds.

    Every message sent in a round arrives in that round, so outbox_sizes
    counts each round's deliveries as well as its sends.
    """

    outbox_sizes: list = field(default_factory=list)
    pair_round: dict = field(default_factory=dict)
    expected_pairs: frozenset = frozenset()
    completion_round: int = None

    @property
    def rounds(self):
        return len(self.outbox_sizes)

    @property
    def complete(self):
        return self.expected_pairs == set(self.pair_round)


def _check_edge(adj, sender, receiver):
    if receiver not in adj[sender]:
        raise ProtocolViolation(
            f"message sent from {sender} to non-neighbor {receiver}")


def _trace_line(trace, round_index, msg):
    trace.write(json.dumps({
        "round": round_index,
        "kind": msg.kind,
        "origin": int(msg.origin),
        "target": None if msg.target is None else int(msg.target),
        "ttl": int(msg.ttl),
    }) + "\n")


def _ball_eigen(S, d, center):
    """rho and per-member nu of one ball's S; a ball that fails the test stops the exchange."""
    spectrum = ball_spectrum(S, d)
    if not spectrum.rigid:
        raise RigidityLostError(
            f"subframework of node {center} is not rigid")
    return spectrum.rho, spectrum.nu.reshape(-1, d)


def _center_payloads(center, h, member_data, params):
    """Both gradient payloads of one center from its collected flood data.

    member_data maps node id -> (position, neighbor id tuple).  The center
    rebuilds its ball's induced framework from that alone: any edge with a
    nonzero load coefficient has an endpoint strictly inside the ball, so
    the induced edge set carries every term that matters, and hop counts
    inside the ball equal the global ones.  The slopes come from the same
    ball_rigidity_slopes and ball_load_slopes as the centralized field.
    """
    nodes = sorted(member_data)
    local = {v: t for t, v in enumerate(nodes)}
    edges = {(min(local[u], local[v]), max(local[u], local[v]))
             for v in nodes for u in member_data[v][1] if u in local and u != v}
    fw = Framework(Graph(len(nodes), edges),
                   np.array([member_data[v][0] for v in nodes], dtype=float))
    e = fw.graph.edge_array()
    stack = stack_balls(np.ones((1, fw.n), dtype=bool), e)
    c = np.maximum(0.0, h - geodesics(fw.graph).dist[local[center]])

    weights = _logistic(fw.lengths, params.comm_range, params.steepness)
    [S] = ball_grams(stack_layouts(stack, fw.dim), fw.units, weights)
    rho, nu = _ball_eigen(S, fw.dim, center)
    rigidity = ball_rigidity_slopes(stack, [rho], nu, fw.units, fw.lengths,
                                    weights, params)
    load = ball_load_slopes(stack, c[None, :], e, fw.units, weights, params)
    return {v: (rigidity[t], load[t]) for t, v in enumerate(nodes)}


def _placeholders(center, h, member_data, params):
    """No payload at all: an exchange run with these records routing only."""
    return dict.fromkeys(member_data)


def run_exchange_phase(fw, extents, params, trace=None, max_rounds=None,
                       payloads=_center_payloads):
    """Flood positions out, return per-center gradient payloads back.

    Returns (contributions, log) where contributions maps (center, member)
    to the payload that center computed for that member, in delivery
    order, and the log records the traffic and the delivery round of every
    pair.  payloads(center, extent, member_data, params) computes a
    center's payloads from its collected flood data once its whole ball
    has reported; the default gives each member its (rigidity_slope,
    load_slope) vector pair.  Every contribution must land within
    2 * max extent rounds, else ProtocolViolation.
    """
    h = np.asarray(extents, dtype=int)
    n = fw.graph.n
    x = fw.positions
    nbrs = [tuple(fw.graph.neighbors(i).tolist()) for i in range(n)]
    adj = [frozenset(nb) for nb in nbrs]

    # static protocol tables, fixed by the graph and the frozen extents
    balls = ball_set(fw.graph, h, fw.dim)
    members = [np.flatnonzero(row).tolist() for row in balls.inside]
    member_sets = [frozenset(m) for m in members]
    ttl = balls.ttl.tolist()
    eta = int(h.max())
    limit = 2 * eta if max_rounds is None else int(max_rounds)

    log = RoundLog(expected_pairs=frozenset(
        (j, i) for j in range(n) for i in members[j]))

    # per node: origin -> the first flood heard from it, whose payload is
    # (position, neighbor ids) and whose path is the way it came; each node
    # starts with its own flood, and a center fires once it has heard from
    # every member of its ball
    heard = [{i: Message(i, POSITION_FLOOD, ttl[i], (i,),
                         (x[i].copy(), nbrs[i]))} for i in range(n)]
    missing = [len(m) - 1 for m in members]
    ready = [j for j in range(n) if not missing[j]]
    contributions = {}
    outbox = [[] for _ in range(n)]

    def fire(centers, round_index):
        for j in sorted(centers):
            member_data = {v: heard[j][v].payload for v in members[j]}
            computed = payloads(j, int(h[j]), member_data, params)
            for i in members[j]:
                if i == j:
                    contributions[(j, j)] = computed[j]
                    log.pair_round[(j, j)] = round_index
                    continue
                route = (j,) + heard[j][i].path[::-1]
                outbox[j].append(Message(
                    j, GRADIENT_RETURN, len(route) - 1, (j,), computed[i], i,
                    route))

    fire(ready, 0)
    for i in range(n):
        outbox[i].append(heard[i][i])

    by_origin = itemgetter(0)
    round_index = 0
    while round_index < limit:
        round_index += 1
        inbox = [[] for _ in range(n)]
        sent = 0
        for sender in range(n):
            for msg in outbox[sender]:
                if msg.kind == GRADIENT_RETURN:
                    nxt = msg.route[len(msg.path)]
                    _check_edge(adj, sender, nxt)
                    inbox[nxt].append(msg)
                    sent += 1
                else:
                    # a flood is delivered to every neighbor off its path,
                    # but only the first copy a node hears is kept; senders
                    # go in ascending order, so that is the copy from the
                    # lowest sender, and the others are dropped on arrival
                    origin, path = msg.origin, msg.path
                    for nxt in nbrs[sender]:
                        if nxt in path:
                            continue
                        sent += 1
                        if origin not in heard[nxt]:
                            heard[nxt][origin] = msg
                            inbox[nxt].append(msg)
                if trace is not None:
                    _trace_line(trace, round_index, msg)
        log.outbox_sizes.append(sent)
        outbox = [[] for _ in range(n)]

        ready = []
        for i in range(n):
            # senders were appended in ascending order, so a stable sort by
            # origin alone processes the inbox in (origin, sender) order
            box = inbox[i]
            box.sort(key=by_origin)
            out = outbox[i]
            for msg in box:
                origin, kind, ttl_left, path, payload, target, route = msg
                if kind == POSITION_FLOOD:
                    if origin in member_sets[i]:
                        missing[i] -= 1
                        if not missing[i]:
                            ready.append(i)
                    if ttl_left > 1:
                        out.append(Message(origin, POSITION_FLOOD,
                                           ttl_left - 1, path + (i,), payload))
                elif i == target:
                    contributions[(origin, i)] = payload
                    log.pair_round[(origin, i)] = round_index
                else:
                    out.append(Message(origin, GRADIENT_RETURN, ttl_left - 1,
                                       path + (i,), payload, target, route))
        fire(ready, round_index)
        if len(log.pair_round) == len(log.expected_pairs) and not any(outbox):
            break

    if not log.complete:
        missing = sorted(log.expected_pairs - set(log.pair_round))[:5]
        raise ProtocolViolation(
            f"exchange incomplete after {limit} rounds, e.g. pairs {missing}")
    log.completion_round = max(log.pair_round.values())
    if log.completion_round > 2 * eta:
        raise ProtocolViolation(
            f"exchange took {log.completion_round} rounds, bound is {2 * eta}")
    return contributions, log


def broadcast_estimates(fw, estimates):
    """One-hop estimate exchange: per node, its neighbors' estimate rows in
    graph.neighbors order.

    Each robot hears every neighbor's estimate once a tick.  This exchange
    runs outside the message engine, so it adds to no round or message
    count.
    """
    est = np.asarray(estimates, dtype=float)
    return [est[fw.graph.neighbors(i)] for i in range(fw.graph.n)]


def _command(fw, params, members, rigidity_slopes, load_slopes):
    """Velocity commands from delivered slope payloads plus local collision terms.

    fw is the framework at the positions the payloads were computed on.
    members[p] received the payload pair (rigidity_slopes[p], load_slopes[p]);
    each robot subtracts its payloads in delivery order, rigidity before
    load.  The collision part is assembled locally from one-hop neighbor
    positions, which the flood already delivered.
    """
    n, d = fw.n, fw.dim
    u = np.zeros((n, d))
    gains = np.empty((2 * len(members), d))
    gains[0::2] = params.k_rigidity * rigidity_slopes
    gains[1::2] = params.k_load * load_slopes
    np.subtract.at(u, np.repeat(members, 2), gains)
    p = params.collision_exponent
    ga = (-p * fw.lengths ** -(p + 1.0))[:, None] * fw.units
    push = params.k_collision * ga
    np.add.at(u, fw.graph.edge_array().ravel(),
              np.stack([-push, push], axis=1).reshape(-1, d))
    return u


def _command_from_exchange(fw, params, contributions):
    members = np.array([i for _, i in contributions], dtype=np.intp)
    payloads = np.array(list(contributions.values()))
    return _command(fw, params, members, payloads[:, 0], payloads[:, 1])


def decentralized_velocity(fw, extents, params):
    """Sum every robot's received slope payloads into its velocity command.

    Always runs the message engine; the closed loop replays it instead
    (see tick_velocity), and this is the oracle the replay is checked
    against.  Matches the centralized field on the same positions.
    """
    contributions, log = run_exchange_phase(fw, extents, params)
    return _command_from_exchange(fw, params, contributions), log


@dataclass
class ExchangeSchedule:
    """What one engine run on a topology fixes for every tick on it.

    members lists who received each (center, member) payload, in the order
    the engine delivered them, and rows says where that payload sits in
    the topology's BallSet stack, whose balls follow center order.
    fire_order lists the centers in the order they fired, so a replay
    meets a flexible ball where the engine would; log is the engine's own
    round log.
    """

    members: np.ndarray
    rows: np.ndarray
    fire_order: np.ndarray
    log: RoundLog

    @classmethod
    def record(cls, contributions, log):
        pairs = np.array(list(contributions), dtype=np.intp)
        # a center's own pair is stored the moment it fires
        fire_order = pairs[pairs[:, 0] == pairs[:, 1], 0]
        rows = np.empty(len(pairs), dtype=np.intp)
        rows[np.lexsort((pairs[:, 1], pairs[:, 0]))] = np.arange(len(pairs))
        return cls(pairs[:, 1], rows, fire_order, log)


def _replay(schedule, world, x):
    """The exchange's velocity commands, from a control state's eigendata.

    Used on every tick, the first on a topology included.  The world's
    accepted control state holds every ball's eigendata at its own
    positions, and is used as is when x are those positions; otherwise
    one control state is built at x and its balls are checked in firing
    order, so the first flexible ball raises the error the engine would
    raise for it.
    """
    params, state = world.params, world.accepted
    if state is None or x is not state.framework.positions:
        state = build_control_state(Framework(world.framework.graph, x),
                                    params, world.extents, require_rigid=False)
        for j in schedule.fire_order:
            if not state.spectra[j].rigid:
                raise RigidityLostError(
                    f"subframework of node {j} is not rigid")
    fw, balls = state.framework, state.ball_set
    rigidity = state.rigidity_slopes()
    load = ball_load_slopes(balls.stack, balls.c, fw.graph.edge_array(),
                            fw.units, state.weights, params)
    rows = schedule.rows
    return _command(fw, params, schedule.members, rigidity[rows], load[rows])


def tick_velocity(world, positions):
    """One tick's velocity commands from believed positions, and its round log.

    The first tick on a topology (a Graph with the frozen extents) runs the
    message engine with placeholder payloads: routing only, with its
    non-edge and 2 * eta checks.  Its schedule is kept on the Graph beside
    the topology's BallSet.  Every tick, the first included, replays that
    schedule: each ball's payloads come from its members' positions alone
    and are summed in the recorded delivery order, so the commands equal
    the engine's bit for bit, and the recorded round log is returned.
    """
    fw = world.framework

    def compile_exchange(graph):
        return ExchangeSchedule.record(*run_exchange_phase(
            fw, world.extents, world.params, payloads=_placeholders))

    schedule = fw.graph.cached("exchange_schedule", world.extents.tobytes(),
                               compile_exchange)
    return _replay(schedule, world, positions), schedule.log


@dataclass
class WorldConfig:
    """Knobs of the closed-loop run that are not controller parameters."""

    noise_std: float = 0.0
    use_estimates: bool = True
    anchors: tuple = ()
    initial_estimate_error: float = 0.0
    initial_variance: float = 1.0
    range_variance: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("noise_std", "initial_estimate_error",
                     "initial_variance"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if self.range_variance <= 0:
            raise ValueError("range_variance must be positive")


@dataclass
class World:
    """True state plus the network's filters, advanced tick by tick."""

    framework: Framework
    params: ControlParams
    config: WorldConfig
    extents: np.ndarray
    filters: Filters
    rng: np.random.Generator
    time: float = 0.0
    metrics: list = field(default_factory=list)
    accepted: ControlState = None


def make_world(fw, params, config=None):
    """Freeze the extents at setup time and seed the filters; anchors start
    at their exact fix."""
    config = config or WorldConfig()
    state = build_control_state(fw, params)
    extents = state.extents.copy()
    rng = np.random.default_rng(config.seed)
    est = fw.positions
    if config.initial_estimate_error > 0:
        d = fw.positions.shape[1]
        est = est + rng.uniform(
            -config.initial_estimate_error / np.sqrt(d),
            config.initial_estimate_error / np.sqrt(d),
            size=est.shape)
    filters = make_filters(est, config.initial_variance,
                           config.range_variance, anchors=config.anchors)
    filters.fix_anchors(fw.positions)
    world = World(framework=fw, params=params, config=config,
                  extents=extents, filters=filters, rng=rng, accepted=state)
    _append_metrics(world, state, None, _framework_rho_if_rigid(world))
    return world


def _framework_rho_if_rigid(world):
    """Rigidity eigenvalue of the whole framework, which rigid balls must
    leave rigid under their own relative zero test; asserted every tick."""
    spectrum = framework_spectrum(world.framework, vectors=False)
    if not spectrum.rigid:
        raise RigidityLostError("rigid subframeworks left a flexible framework")
    return spectrum.rho


def _append_metrics(world, state, log, framework_rho):
    fw = world.framework
    x = fw.positions
    rhos = state.rhos
    load = float(communication_load(fw.graph, world.extents).sum())
    m = len(fw.graph.edges)
    min_dist = float(fw.lengths.min()) if m else np.inf
    est = world.filters.estimates
    world.metrics.append({
        "t": world.time,
        "min_rho": float(rhos.min()),
        "mean_rho": float(rhos.mean()),
        "max_rho": float(rhos.max()),
        "framework_rho": framework_rho,
        "load_ratio": load / (2.0 * m) if m else np.nan,
        "edge_count": m,
        "min_distance": min_dist,
        "max_estimate_error": float(np.linalg.norm(est - x, axis=1).max()),
        "exchange_rounds": None if log is None else log.completion_round,
    })


def step_simulation(world):
    """Advance one control tick; raises RigidityLostError on failure.

    Order per tick: range measurement and estimate exchange with filter
    updates, gradient exchange on the positions the robots believe, true
    motion under the summed commands with step halving against rigidity
    loss, covariance inflation for the motion, then the topology refresh.
    This is the library's one step loop: the controller steps only here.
    """
    fw = world.framework
    params = world.params
    cfg = world.config
    filters = world.filters
    est, cov = filters.estimates, filters.covariances

    if cfg.use_estimates:
        neighbor_est = broadcast_estimates(fw, est)
        measured = measure_ranges(fw, world.rng, cfg.noise_std)
        for i in range(fw.n):
            est[i], cov[i] = filter_update(est[i], cov[i],
                                           filters.range_variance,
                                           measured[i], neighbor_est[i])
        filters.fix_anchors(fw.positions)
        believed = est
    else:
        believed = fw.positions

    u, log = tick_velocity(world, believed)

    # a candidate step is judged on the topology it would commit: a link
    # change that zeroes a frozen ball's eigenvalue must wait, not crash
    # the next tick
    dt = params.dt
    new_state = None
    for _ in range(params.max_step_retries + 1):
        candidate = fw.positions + dt * u
        _, new_state = guarded_refresh(fw.graph, candidate, params,
                                       world.extents, world.time + dt)
        if new_state is not None:
            break
        dt *= 0.5
    else:
        raise RigidityLostError(
            f"no acceptable step size after {params.max_step_retries} "
            f"halvings at t={world.time:.3f}")

    # each robot dead-reckons its own commanded motion, then widens its
    # covariance by dt^2 * |u|^2 * I for the actuation uncertainty of that
    # same motion
    est += dt * u
    cov += (dt**2 * np.vecdot(u, u))[:, None, None] * np.eye(fw.dim)

    world.framework = new_state.framework
    world.accepted = new_state
    world.time += dt
    _append_metrics(world, new_state, log, _framework_rho_if_rigid(world))
    return world


def run_simulation(world, duration):
    """Run duration / dt ticks; the world carries the metrics.

    A halved step counts as one tick, and the clock adds the dt it used.
    """
    for _ in range(math.ceil(round(duration / world.params.dt, 9))):
        step_simulation(world)
    return world
