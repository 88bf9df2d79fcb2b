"""Round-based message engine for the decentralized rigidity controller.

The engine owns the true world state; agents only see their mailboxes.  One
round delivers every queued message across one edge and then lets each node
process its inbox.  An exchange floods every node's position out to the
centers whose balls contain it; each center rebuilds its ball from the
payloads it collected, computes the per-member slopes of its own rigidity
and load terms with the controller's one slope formula, and ships them back
along the recorded flood paths.  The round counter certifies that
every (center, member) pair is served within twice the worst extent: the
engine stops after that many rounds and raises if a pair is still missing.

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
the round log, but not the payloads.  run_message_engine sends every
message with real payloads; it is the proof that the exchange ends within
2 * eta rounds, and the oracle of decentralized_velocity and of
run_exchange_phase, the routing formula, which derives the engine's
delivery order and round log from the geodesic table and the BallSet
without building a message (the non-edge check needs messages, so it runs
only in the engine).  Both give one RoundLog: the traffic per round and
the center, member and round of every delivery, as arrays in delivery
order, and the formula builds no per-pair Python object.  A refreshed
Graph inherits its parent's hop table (graphs.edited), which the formula
and the BallSet read.  The closed loop compiles each topology once with
the formula and keeps its (rows, RoundLog) pair as the Graph's exchange
record (Graph.record, keyed on the extents), beside the topology's
BallSet: rows says where each delivered (center, member) pair sits in the
BallSet's stack.  No tick runs the engine.
Every tick on that Graph, the first included, replays the log: every
center's payloads are computed from its ball members' positions only and
summed in the logged delivery order, which gives the engine's commands
bit for bit.  On ground truth the guard's accepted control state already
holds every ball's eigendata at these positions, so the replay solves
nothing; on believed positions it builds one control state there, and
the guard, whose state the replay never reads, solves eigenvalues only.
The per-tick check that rigid balls leave the whole framework rigid reads
the framework's spectrum from the guard's accepted state, which solved it
in one batch with its balls (rigidity._spectra); the replay's build
solves no framework S.  A center of the engine judges its ball by
rigidity_spectrum, the one verdict, as every batch does.  The
replay, its collision terms and the per-tick metrics read the edge unit
vectors and lengths from the Framework at the positions they use, which
measured them once when it was built; the commands are one scatter
(control._scatter).  A run longer than MAX_TICKS fails before its first
tick (tick_count).

A World holds the network's filter state as one localization.Filters.
Each tick corrects every robot's row with one stacked filter_update per
distinct degree (Graph.degree_groups), on the robots' slices of the
Graph's slots (their ranges and broadcast neighbor estimates), and pins
the anchors through the mask; after the step, all estimates dead-reckon
and all covariances inflate in one array statement each.
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from ._checks import ConfigError, _check_fields, _domain, _number
from .control import (
    ControlParams,
    ControlState,
    NonFiniteCommandError,
    RigidityLostError,
    _collision_slopes,
    _expit,
    _logistic,
    _scatter,
    _state_with_framework,
    ball_load_slopes,
    ball_rigidity_slopes,
    build_control_state,
    guarded_refresh,
)
from .graphs import Graph, geodesics, separations
from .localization import (
    CoincidentEstimatesError,
    Filters,
    NonFiniteRangeError,
    filter_update,
    make_filters,
    measure_ranges,
)
from .rigidity import (
    CoincidentNodesError,
    Framework,
    framework_stack,
    rigidity_spectrum,
)
from .subframeworks import _extents, ball_set, communication_load

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


@dataclass(eq=False)
class RoundLog:
    """Audit trail of one exchange: traffic per round and every delivery.

    Every message sent in a round arrives in that round, so outbox_sizes
    counts each round's deliveries as well as its sends.  The k-th
    delivered payload is center[k]'s for member[k], in round round[k], in
    delivery order; a log holds every pair of the exchange, since an
    incomplete exchange raises instead.
    """

    outbox_sizes: list
    center: np.ndarray
    member: np.ndarray
    round: np.ndarray

    @property
    def rounds(self):
        return len(self.outbox_sizes)

    @property
    def completion_round(self):
        return int(self.round.max())


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
    stack = framework_stack(fw)
    c = np.maximum(0.0, h - geodesics(fw.graph).dist[local[center]])

    weights = _logistic(fw.lengths, params.comm_range, params.steepness)
    [S] = stack.grams(fw.units, weights)
    # a ball that fails the test stops the exchange
    spectrum = rigidity_spectrum(S, fw.dim)
    if not spectrum.rigid:
        raise RigidityLostError(f"subframework of node {center} is not rigid")
    rigidity = ball_rigidity_slopes(stack, [spectrum.rho],
                                    spectrum.nu.reshape(-1, fw.dim), fw.units,
                                    fw.lengths, weights, params)
    load = ball_load_slopes(stack, c[None, :], fw.units, weights, params)
    return {v: (rigidity[t], load[t]) for t, v in enumerate(nodes)}


def run_exchange_phase(fw, extents):
    """The engine's round log on a topology, in closed form, with no message
    built: (rows, log), where rows[k] is the row of the log's k-th delivery
    in the topology's BallSet stack, whose balls follow center order.

    Synchronous flooding reaches every node at its hop count g, first from
    the lowest-numbered sender one hop nearer.  So center j has heard its
    whole ball in round f_j = max g_ji over the ball, fires then, and its
    return to member i lands g_ji rounds later; within a round, returns
    land in (receiver, origin) order before the centers that fire in it.
    Round 1 carries every node's own flood across each of its edges, a
    node v at 1 <= g_ov < ttl_o forwards origin o's flood to its deg(v) - 1
    neighbors off the flood path in round g_ov + 1, and each return adds
    one message to every round it is in flight.  As in the engine, a
    center that some member's flood never reaches (its ttl too short)
    never fires, and a pair undelivered after round 2 * max extent is a
    ProtocolViolation.
    """
    h = _extents(extents, fw.graph.n)
    g = geodesics(fw.graph).dist
    balls = ball_set(fw.graph, h, fw.dim)
    limit = 2 * h.max()
    # the pairs in (center, member) order, which is the BallSet stack's
    member = balls.stack.nodes
    center = np.repeat(np.arange(len(h)), np.diff(balls.stack.offsets))
    hops = g[center, member].astype(np.intp)
    fire = np.where(balls.inside, g, 0).max(axis=1, initial=0).astype(np.intp)
    land = fire[center] + hops
    deaf = (balls.inside & (g > balls.ttl)).any(axis=1)
    stuck = deaf[center] | (land > limit)
    if stuck.any():
        missing = sorted(zip(center[stuck].tolist(), member[stuck].tolist()))
        raise ProtocolViolation(
            f"exchange incomplete after {limit} rounds, e.g. pairs "
            f"{missing[:5]}")
    order = np.lexsort((center, member, center == member, land))
    completion = int(land.max())

    # every (origin, node) with 1 <= g < the origin's ttl, flat
    forwards = np.flatnonzero((g >= 1) & (g < balls.ttl[:, None]))
    node = forwards % len(h)
    forward_round = g.ravel()[forwards].astype(np.intp) + 1
    # the engine stops once nothing is in flight, after one round at least
    rounds = int(max(completion, forward_round.max(initial=1))) if limit else 0
    floods = np.bincount(forward_round, weights=fw.graph.degrees()[node] - 1,
                         minlength=rounds + 2)
    floods[1] += 2 * fw.graph.m
    ret = center != member
    # a return is in flight from the round after its center fires to the
    # round it lands
    returns = np.cumsum(
        np.bincount(fire[center[ret]] + 1, minlength=rounds + 2)
        - np.bincount(land[ret] + 1, minlength=rounds + 2))
    sizes = (floods + returns)[1:rounds + 1].astype(np.intp)

    return order, RoundLog(sizes.tolist(), center[order], member[order],
                           land[order])


def run_message_engine(fw, extents, params, trace=None):
    """Flood positions out, return per-center gradient payloads back.

    Returns (contributions, log) where contributions maps (center, member)
    to the (rigidity_slope, load_slope) vector pair that center computed
    for that member, in delivery order, and the log records the traffic
    and the delivery round of every pair.  Once a center has heard its
    whole ball it computes its payloads from the collected flood data with
    _center_payloads, looked up when it fires.  The engine stops after
    2 * max extent rounds; a contribution still undelivered then is a
    ProtocolViolation, and so is a send across a non-edge.  With a text
    stream as trace, every message sent adds one JSON line to it.
    """
    h = _extents(extents, fw.graph.n)
    n = fw.graph.n
    x = fw.positions
    nbrs = [tuple(fw.graph.neighbors(i).tolist()) for i in range(n)]
    adj = [frozenset(nb) for nb in nbrs]

    # static protocol tables, fixed by the graph and the frozen extents
    balls = ball_set(fw.graph, h, fw.dim)
    members = [np.flatnonzero(row).tolist() for row in balls.inside]
    member_sets = [frozenset(m) for m in members]
    expected = sum(map(len, members))
    ttl = balls.ttl.tolist()
    limit = 2 * h.max()

    # per node: origin -> the first flood heard from it, whose payload is
    # (position, neighbor ids) and whose path is the way it came; each node
    # starts with its own flood, and a center fires once it has heard from
    # every member of its ball
    heard = [{i: Message(i, POSITION_FLOOD, ttl[i], (i,),
                         (x[i].copy(), nbrs[i]))} for i in range(n)]
    missing = [len(m) - 1 for m in members]
    ready = [j for j in range(n) if not missing[j]]
    # each delivered payload, and the round it landed in, in delivery order
    contributions, landed, outbox_sizes = {}, [], []
    outbox = [[] for _ in range(n)]

    def fire(centers, round_index):
        for j in sorted(centers):
            member_data = {v: heard[j][v].payload for v in members[j]}
            computed = _center_payloads(j, h[j], member_data, params)
            for i in members[j]:
                if i == j:
                    contributions[(j, j)] = computed[j]
                    landed.append(round_index)
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
        outbox_sizes.append(sent)
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
                    landed.append(round_index)
                else:
                    out.append(Message(origin, GRADIENT_RETURN, ttl_left - 1,
                                       path + (i,), payload, target, route))
        fire(ready, round_index)
        if len(contributions) == expected and not any(outbox):
            break

    if len(contributions) < expected:
        missing = [(j, i) for j in range(n) for i in members[j]
                   if (j, i) not in contributions][:5]
        raise ProtocolViolation(
            f"exchange incomplete after {limit} rounds, e.g. pairs {missing}")
    pairs = np.array(list(contributions), dtype=np.intp).reshape(-1, 2)
    return contributions, RoundLog(outbox_sizes, pairs[:, 0], pairs[:, 1],
                                   np.array(landed, dtype=np.intp))


def broadcast_estimates(fw, estimates):
    """One-hop estimate exchange: the estimate heard in every graph slot, so
    node i's neighbors' rows are slots[i]:slots[i + 1], in neighbors order.

    Each robot hears every neighbor's estimate once a tick.  This exchange
    runs outside the message engine, so it adds to no round or message
    count.
    """
    return np.asarray(estimates, dtype=float)[fw.graph.slot_node]


def _command(fw, params, members, rigidity_slopes, load_slopes):
    """Velocity commands from delivered slope payloads plus local collision terms.

    fw is the framework at the positions the payloads were computed on.
    members[p] received the payload pair (rigidity_slopes[p], load_slopes[p]);
    each robot subtracts its payloads in delivery order, rigidity before
    load, and then its collision terms in edge order, in one scatter.  The
    collision part is assembled locally from one-hop neighbor positions,
    which the flood already delivered.
    """
    payloads = np.stack([params.k_rigidity * rigidity_slopes,
                         params.k_load * load_slopes], axis=1)
    g = params.k_collision * _collision_slopes(fw, params.collision_exponent)
    # x - y is x + (-y) bit for bit
    return _scatter(np.concatenate([np.stack([members, members], axis=1),
                                    fw.graph.edge_array()]),
                    -np.concatenate([payloads, np.stack([g, -g], axis=1)]),
                    fw.n)


def decentralized_velocity(fw, extents, params):
    """Sum every robot's received slope payloads into its velocity command.

    Always runs the message engine; the closed loop replays the routing
    formula's round log instead (see tick_velocity), and this is the oracle
    the replay is checked against.  Matches the centralized field on the
    same positions.
    """
    contributions, log = run_message_engine(fw, extents, params)
    payloads = np.array(list(contributions.values()))
    return (_command(fw, params, log.member, payloads[:, 0], payloads[:, 1]),
            log)


def _replay(rows, log, world, x):
    """The exchange's velocity commands, from a control state's eigendata.

    Used on every tick, the first on a topology included: log.member[k]
    receives the payload in row rows[k] of the BallSet stack.  The world's
    accepted control state holds every ball's eigendata at its own
    positions, and is used as is when x are those positions; otherwise
    one control state is built at x and its balls are checked in firing
    order, so the first flexible ball raises the error the engine would
    raise for it: a center keeps its own pair the round it fires, so the
    self deliveries give that order.  Believed positions that make no
    framework are a localization failure: coincident neighbors raise
    CoincidentEstimatesError, and positions or edge lengths that are not
    finite in float64 raise NonFiniteRangeError.
    """
    params, state = world.params, world.accepted
    if state is None or x is not state.framework.positions:
        try:
            believed = Framework(world.framework.graph, x)
        except CoincidentNodesError as exc:
            raise CoincidentEstimatesError(str(exc)) from exc
        except ValueError as exc:
            raise NonFiniteRangeError(
                f"the believed positions make no framework: {exc}") from exc
        state = build_control_state(believed, params, world.extents)
        firing = log.center[log.center == log.member]
        if not state.verdicts.rigid[firing].all():
            j = firing[np.argmin(state.verdicts.rigid[firing])]
            raise RigidityLostError(f"subframework of node {j} is not rigid")
    fw, balls = state.framework, state.ball_set
    rigidity = state.rigidity_slopes()
    load = ball_load_slopes(balls.stack, balls.c, fw.units, state.weights,
                            params)
    return _command(fw, params, log.member, rigidity[rows], load[rows])


def tick_velocity(world, positions):
    """One tick's velocity commands from believed positions, and its round log.

    The first tick on a topology (a Graph with the frozen extents) compiles
    its exchange with run_exchange_phase: the engine's round log in closed
    form, with the 2 * eta check, and each delivery's row in the BallSet
    stack.  The (rows, log) pair is the Graph's exchange record, beside
    the topology's BallSet.  Every tick, the first included, replays that
    log: each ball's payloads come from its members' positions alone and
    are summed in the logged delivery order, so the commands equal the
    engine's bit for bit, and the log is returned.
    """
    fw = world.framework
    # compiled from this tick's framework, so a wrapper of
    # run_exchange_phase sees its positions; the value needs only the key
    rows, log = fw.graph.record(
        "exchange", lambda graph, h: run_exchange_phase(fw, h), world.extents)
    return _replay(rows, log, world, positions), log


@dataclass
class WorldConfig:
    """Knobs of the closed-loop run that are not controller parameters.

    noise_std is the range measurement noise, anchors the robots with
    exact fixes, and use_estimates whether the controller steers on the
    filters' estimates or on the true positions.  Each estimate starts
    at most initial_estimate_error from the truth, with covariance
    initial_variance * I, and the filters assume range_variance; seed
    seeds the world's generator.  experiments.ScenarioConfig extends it
    with the scenario's own fields.
    """

    noise_std: float = _domain("non-negative", 0.0)
    use_estimates: bool = True
    anchors: tuple = ()
    initial_estimate_error: float = _domain("non-negative", 0.0)
    initial_variance: float = _domain("non-negative", 1.0)
    range_variance: float = _domain("positive", 0.01)
    seed: int = _domain("non-negative", 0)

    __post_init__ = _check_fields


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

    def __post_init__(self):
        self.extents = _extents(self.extents, self.framework.n)
        _expit()  # the link weights' import, paid here and not in a tick


def make_world(fw, params, config):
    """Freeze the extents at setup time and seed the filters; anchors start
    at their exact fix.  The first state also solves the framework's S, in
    the batch of its balls, for the first row's check."""
    state = _state_with_framework(fw, params, None, True)
    state.require_rigid()
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
    world = World(framework=fw, params=params, config=config, filters=filters,
                  extents=state.extents, rng=rng, accepted=state)
    _append_metrics(world, state, None)
    return world


def _framework_rho_if_rigid(spectrum):
    """Rigidity eigenvalue of the whole framework, which rigid balls must
    leave rigid under their own relative zero test; asserted every tick.
    spectrum is the framework's, as its state solved it with its balls
    (ControlState.framework_spectrum)."""
    if not spectrum.rigid:
        raise RigidityLostError("rigid subframeworks left a flexible framework")
    return spectrum.rho


def _append_metrics(world, state, log):
    framework_rho = _framework_rho_if_rigid(state.framework_spectrum)
    fw = world.framework
    rhos = state.rhos
    load = float(communication_load(fw.graph, world.extents).sum())
    m = fw.graph.m
    min_dist = float(fw.lengths.min()) if m else np.inf
    # an error too large for float64 is inf, which the range model rejects
    _, errors = separations(world.filters.estimates, fw.positions)
    world.metrics.append({
        "t": world.time,
        "min_rho": float(rhos.min()),
        "mean_rho": float(rhos.mean()),
        "max_rho": float(rhos.max()),
        "framework_rho": framework_rho,
        "load_ratio": load / (2.0 * m) if m else np.nan,
        "edge_count": m,
        "min_distance": min_dist,
        "max_estimate_error": float(errors.max()),
        "exchange_rounds": None if log is None else log.completion_round,
    })


def step_simulation(world):
    """Advance one control tick; raises RigidityLostError on failure.

    Order per tick: range measurement and estimate exchange with filter
    updates, gradient exchange on the positions the robots believe, true
    motion under the summed commands (at most comm_range per tick) with
    step halving against rigidity loss, covariance inflation for the
    motion, then the topology refresh.
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
        # one stacked update per degree, on each robot's own slots
        for rows, own in fw.graph.degree_groups():
            est[rows], cov[rows] = filter_update(
                est[rows], cov[rows], filters.range_variance, measured[own],
                neighbor_est[own])
        filters.fix_anchors(fw.positions)
        believed = est
    else:
        believed = fw.positions

    # a command that overflows anywhere has a speed that is inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        u, log = tick_velocity(world, believed)
        speed = float(np.linalg.norm(u, axis=1).max(initial=0.0))
    if not math.isfinite(speed):
        raise NonFiniteCommandError(
            f"the velocity command's speed is {speed} in float64; the gains "
            "or exponents ask for more than a step can carry")

    # a candidate step is judged on the topology it would commit: a link
    # change that zeroes a frozen ball's eigenvalue must wait, not crash
    # the next tick.  No robot is commanded farther than the communication
    # range in one tick: past that, the guard's edge logic at the candidate
    # no longer describes a motion.
    dt = params.dt
    if dt * speed > params.comm_range:
        dt = params.comm_range / speed
    for _ in range(params.max_step_retries + 1):
        candidate = fw.positions + dt * u
        _, new_state = guarded_refresh(fw.graph, candidate, params,
                                       world.extents,
                                       vectors=not cfg.use_estimates)
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
    try:
        growth = dt**2 * np.vecdot(u, u)
    except OverflowError:
        # dt**2 overflows past 1e154 s, but the capped motion dt * u is at
        # most comm_range
        growth = np.vecdot(dt * u, dt * u)
    cov += growth[:, None, None] * np.eye(fw.dim)

    world.framework = new_state.framework
    world.accepted = new_state
    world.time += dt
    _append_metrics(world, new_state, log)
    return world


# the most ticks a run may take, so that every run ends
MAX_TICKS = 10**6


def tick_count(duration, dt):
    """The ticks a run of duration takes at dt; a ConfigError if duration
    is not a finite non-negative number or duration / dt is above MAX_TICKS."""
    ticks = _number("duration", duration, float, "non-negative") / dt
    if not ticks <= MAX_TICKS:
        raise ConfigError(
            f"duration / control.dt asks for {ticks:.3g} ticks; the bound "
            f"is MAX_TICKS = {MAX_TICKS}")
    return math.ceil(round(ticks, 9))


def run_simulation(world, duration):
    """Run tick_count(duration, dt) ticks; the world carries the metrics.

    A capped or halved step counts as one tick, and the clock adds the dt
    it used.
    """
    for _ in range(tick_count(duration, world.params.dt)):
        step_simulation(world)
    return world
