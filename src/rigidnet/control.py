"""Gradient controller that maintains subframework rigidity while shedding load.

Each robot descends a cost with three parts: an inverse-power barrier on the
rigidity eigenvalues of the subframeworks it belongs to, the weighted
communication load, and an inter-robot collision barrier.  Link weights are
logistic in distance, so edges fade smoothly instead of switching; hop counts,
ball memberships and load coefficients are integer-valued and therefore frozen
within a step and refreshed between steps.  Only the weights are treated as
position-dependent by the gradients, and every analytic gradient is held to a
finite-difference oracle in the tests.

ball_rigidity_slopes and ball_load_slopes are the one per-ball slope formula,
shared by the centralized field, the replayed exchange and every center.
Each cost term is a potential and a gradient of one ControlState
(rigidity_potential and rigidity_gradient_all, and so on for load and
collision); total_potential and velocity_field add them up.  A state is
the one evaluation of a topology at positions, so a cost at other
positions is read off the state built there.

A state build takes everything the topology fixes (the balls' membership
mask and stack, load coefficients, the layout of the balls' S) from the
BallSet kept on its Graph, and refresh_topology hands back the very Graph
it was given while the edge set holds.  The edge unit vectors and
lengths are the Framework's, measured once when it was built.  So on an
unchanged topology a build reads the edge geometry from its framework,
evaluates the link weights, assembles the balls' S by d x d blocks, a
bincount per group of balls, and solves each ball once.  The guard solves
with eigenvectors on ground truth, where the replay reuses its accepted
state, and for eigenvalues only while the robots steer on estimates,
where nothing reads the eigenvectors; a state without them refuses its
slopes by name (EigenvectorsNotSolvedError).  The balls' eigh runs on two
cores where the process may use two, the caller's and one worker thread's,
with BLAS on one thread.
"""

import functools
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .graphs import Graph, proximity
from .rigidity import (
    CoincidentNodesError, Framework, one_blas_thread, usable_cores
)
from .subframeworks import (
    BallSet, ball_grams, ball_set, ball_spectrum, extent_assignment
)

logger = logging.getLogger(__name__)


class RigidityLostError(RuntimeError):
    """Some subframework's rigidity eigenvalue fell to the zero threshold."""


class EigenvectorsNotSolvedError(RuntimeError):
    """Slopes were asked of a control state solved for eigenvalues only."""


@dataclass
class ControlParams:
    """Knobs of the controller; the gains weigh three incommensurate terms."""

    comm_range: float
    steepness: float = 0.5
    rigidity_exponent: float = 1.0
    collision_exponent: float = 2.0
    k_rigidity: float = 1.0
    k_load: float = 1.0
    k_collision: float = 1.0
    dt: float = 0.05
    weight_prune: float = 0.01
    max_step_retries: int = 8

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if min(self.comm_range, self.steepness, self.rigidity_exponent,
               self.collision_exponent, self.dt) <= 0:
            raise ValueError("range, steepness, exponents and dt must be positive")
        if not 0 < self.weight_prune < 1:
            raise ValueError("weight_prune must lie in (0, 1)")
        if min(self.k_rigidity, self.k_load, self.k_collision) < 0:
            raise ValueError("gains must be non-negative")
        if self.max_step_retries < 0:
            raise ValueError("max_step_retries must be non-negative")


def _logistic(lengths, comm_range, steepness):
    """Logistic link weights: 1/2 at the communication range, ~1 well inside it."""
    return expit(steepness * (comm_range - lengths))


@dataclass
class ControlState:
    """One controller step's frozen structure and the smooth quantities on it.

    ball_set (with the ball membership mask and the load coefficients c
    and coeff) is the graph's own and shared, read-only, by every state on that
    graph; the edge unit vectors and lengths are the framework's, and the
    link weights and spectra belong to this state.  spectra holds each
    ball's Spectrum, in center order (subframeworks.TOO_SMALL for a ball too
    small to test, whose rho is None and reads NaN in rhos).  A state built
    without vectors holds eigenvalues only: its verdicts and rhos, but no
    slopes.
    """

    framework: Framework
    params: ControlParams
    extents: np.ndarray
    time: float
    ball_set: BallSet
    weights: np.ndarray
    spectra: list
    vectors: bool = True

    @property
    def rhos(self):
        return np.array([s.rho for s in self.spectra], dtype=float)

    def require_rigid(self):
        for j, s in enumerate(self.spectra):
            if not s.rigid:
                raise RigidityLostError(
                    f"subframework of node {j} lost rigidity "
                    f"(rho={s.rho}) at t={self.time:.3f}"
                )

    def rigidity_slopes(self):
        """ball_rigidity_slopes of every ball, one row per stack row; every
        ball must be rigid and the state solved with vectors."""
        if not self.vectors:
            raise EigenvectorsNotSolvedError(
                f"control state at t={self.time:.3f} was solved for "
                "eigenvalues only; its rigidity slopes need eigenvectors")
        fw = self.framework
        return ball_rigidity_slopes(
            self.ball_set.stack, [s.rho for s in self.spectra],
            np.concatenate([s.nu for s in self.spectra]).reshape(-1, fw.dim),
            fw.units, fw.lengths, self.weights, self.params)


@functools.cache
def _eigh_worker():
    """The one worker thread that shares the balls' eigh with the caller,
    started on first use."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="rigidnet-eigh")


# a forked child has no worker thread, only its parent's record of one
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_eigh_worker.cache_clear)


@one_blas_thread()
def _ball_spectra(grams, d, vectors):
    """Each ball's Spectrum, in center order, from its S.

    With vectors and two cores, the balls, sorted by side from the largest,
    are dealt alternately to the worker thread and to the caller, and each
    spectrum is put back at its center.  numpy's eigh releases the GIL, and
    on one BLAS thread a ball's eigh gives the same bits on either thread.
    eigvalsh gained nothing from a second core, so a solve without vectors
    stays on the caller, as does every solve on one core.
    """
    if not (vectors and usable_cores() >= 2):
        return [ball_spectrum(S, d, vectors) for S in grams]
    spectra = [None] * len(grams)

    def solve(centers):
        for j in centers:
            spectra[j] = ball_spectrum(grams[j], d, vectors)

    order = sorted(range(len(grams)), key=lambda j: -len(grams[j]))
    worker = _eigh_worker().submit(solve, order[0::2])
    try:
        solve(order[1::2])
    finally:
        # the worker's solves end before the BLAS setting is restored
        worker.result()
    return spectra


def build_control_state(fw, params, extents=None, time=0.0, require_rigid=True,
                        vectors=True):
    """Snapshot the discrete structure of a framework and solve its eigenproblems.

    Extents are decided once, at startup, and carried verbatim across steps
    even as edges come and go: pass an array of one radius per node, or None
    to measure them here.  With require_rigid the build fails as soon as any
    ball is too small or has a rigidity eigenvalue at the zero threshold.
    Without vectors every ball is solved for its eigenvalues only (eigvalsh
    instead of eigh), and the state gives verdicts and rhos but no slopes.
    The balls are solved with BLAS on one thread (rigidity.one_blas_thread);
    with vectors, and where the process may run on two cores, the caller
    and one worker thread share them (see _ball_spectra).
    """
    if extents is None:
        extents = extent_assignment(fw)
        if not extents.all():
            raise RigidityLostError("some node has no rigid ball at any radius")
    extents = np.asarray(extents, dtype=np.intp)
    if extents.shape != (fw.n,) or (extents < 1).any():
        raise ValueError("extents must be one positive radius per node")

    weights = _logistic(fw.lengths, params.comm_range, params.steepness)
    balls = ball_set(fw.graph, extents, fw.dim)

    spectra = _ball_spectra(ball_grams(balls.layouts, fw.units, weights),
                            fw.dim, vectors)
    degenerate = sum(s.degenerate for s in spectra)
    if degenerate:
        logger.debug(
            "%d subframeworks have near-multiple rigidity eigenvalues at t=%.3f; "
            "their eigenvectors only give descent subgradients", degenerate, time
        )
    state = ControlState(fw, params, extents, time, balls, weights, spectra,
                         vectors)
    if require_rigid:
        state.require_rigid()
    return state


def rigidity_potential(state):
    """Sum of rho_j^(-q) over all frozen balls of the state.

    Blows up as any ball softens, and raises once one fails the eigenvalue
    test or is too small to take it.
    """
    state.require_rigid()
    return float((state.rhos ** -state.params.rigidity_exponent).sum())


def load_potential(state):
    """Weighted communication load with the ball coefficients held frozen."""
    fw = state.framework
    e = fw.graph.edge_array()
    delta = np.zeros(fw.n)
    np.add.at(delta, e[:, 0], state.weights)
    np.add.at(delta, e[:, 1], state.weights)
    return float(state.ball_set.coeff @ delta)


def collision_potential(state):
    """Inverse-power barrier over adjacent pairs only."""
    p = state.params.collision_exponent
    return float((state.framework.lengths ** -p).sum())


def _edge_sums(n, ends, g):
    """Per-row sums of +g[t] at row ends[t, 0] and -g[t] at row ends[t, 1].

    The endpoints are interleaved, so every row takes its terms in edge
    order, as a loop over the edges would, and the sums match that loop
    bit for bit.
    """
    out = np.zeros((n, g.shape[1]))
    np.add.at(out, ends.ravel(),
              np.stack([g, -g], axis=1).reshape(-1, g.shape[1]))
    return out


def ball_rigidity_slopes(stack, rhos, nus, units, lengths, weights, params):
    """Per-member d/dx of rho^(-q) for every ball of a stack, one row each.

    stack is a subframeworks.BallStack; rhos holds each ball's rigidity
    eigenvalue and nus its eigenvector, one d-vector per stack row; units,
    lengths and weights describe every edge of the framework.  Both the
    unit-vector rows and the logistic weights of S_j move with the
    positions; the derivative follows the eigenvalue of a symmetric matrix
    through its (sub)eigenvector.
    """
    p = params
    k = stack.edge
    r = units[k]
    ell = lengths[k]
    w = weights[k]
    s = nus[stack.ends[:, 0]] - nus[stack.ends[:, 1]]
    sigma = (r * s).sum(axis=1)
    q = p.rigidity_exponent
    coef = np.array([-q * rho ** -(q + 1.0) for rho in rhos])[stack.ball]
    dw = -p.steepness * w * (1.0 - w)
    ga = dw[:, None] * sigma[:, None] ** 2 * r
    ga += 2.0 * (w * sigma / ell)[:, None] * (s - sigma[:, None] * r)
    ga *= coef[:, None]
    return _edge_sums(len(stack.nodes), stack.ends, ga)


def ball_load_slopes(stack, cs, edge_endpoints, units, weights, params):
    """Per-member d/dx of every stacked ball's frozen-coefficient load.

    cs[t] holds the load coefficient of every node for the center of ball
    t.  The sum runs over each ball's induced edges: every load term rides
    on an edge with an endpoint strictly inside the ball, and such an edge
    has both endpoints in it.  Just outside the ball both coefficients on
    any edge are zero.
    """
    k = stack.edge
    w = weights[k]
    dw = -params.steepness * w * (1.0 - w)
    pair = (cs[stack.ball, edge_endpoints[k, 0]]
            + cs[stack.ball, edge_endpoints[k, 1]])
    gl = (pair * dw)[:, None] * units[k]
    return _edge_sums(len(stack.nodes), stack.ends, gl)


def rigidity_gradient_all(state):
    """d/dx of the rigidity potential: every ball's slopes, summed center
    by center as each center's payloads arrive at its members."""
    n, d = state.framework.n, state.framework.dim
    state.require_rigid()
    grad = np.zeros((n, d))
    np.add.at(grad, state.ball_set.stack.nodes, state.rigidity_slopes())
    return grad


def load_gradient_all(state):
    """d/dx of the load potential with the ball coefficients held frozen."""
    fw, p = state.framework, state.params
    e = fw.graph.edge_array()
    grad = np.zeros((fw.n, fw.dim))
    pair = state.ball_set.coeff[e[:, 0]] + state.ball_set.coeff[e[:, 1]]
    dw = -p.steepness * state.weights * (1.0 - state.weights)
    ga = (pair * dw)[:, None] * fw.units
    np.add.at(grad, e[:, 0], ga)
    np.add.at(grad, e[:, 1], -ga)
    return grad


def collision_gradient_all(state):
    """d/dx of the collision barrier."""
    fw = state.framework
    p = state.params.collision_exponent
    e = fw.graph.edge_array()
    grad = np.zeros((fw.n, fw.dim))
    ga = (-p * fw.lengths ** -(p + 1.0))[:, None] * fw.units
    np.add.at(grad, e[:, 0], ga)
    np.add.at(grad, e[:, 1], -ga)
    return grad


def velocity_field(state):
    """Steepest-descent velocities for all robots under the configured gains."""
    p = state.params
    u = -p.k_rigidity * rigidity_gradient_all(state)
    u = u - p.k_load * load_gradient_all(state)
    u = u - p.k_collision * collision_gradient_all(state)
    return u


def total_potential(state):
    """Gain-weighted sum of the three cost terms on the frozen structure."""
    p = state.params
    return (
        p.k_rigidity * rigidity_potential(state)
        + p.k_load * load_potential(state)
        + p.k_collision * collision_potential(state)
    )


def refresh_topology(graph, positions, params):
    """Drop edges whose weight decayed below the prune threshold, link close pairs.

    New edges follow the generator's rule, graphs.proximity, while old
    ones survive until the logistic weight reaches weight_prune; the slack
    between the two keeps the edge set from flapping.  An unchanged edge set
    returns graph itself, with everything already kept on it.
    """
    dist, keep = proximity(positions, params.comm_range)
    e = graph.edge_array()
    w = _logistic(dist[e[:, 0], e[:, 1]], params.comm_range, params.steepness)
    keep[e[:, 0], e[:, 1]] |= w >= params.weight_prune
    ii, jj = np.nonzero(keep)
    if len(ii) == len(e) and (ii == e[:, 0]).all() and (jj == e[:, 1]).all():
        return graph
    return Graph(graph.n, np.stack([ii, jj], axis=1))


def _state_if_rigid(graph, positions, params, extents, time, vectors):
    try:
        state = build_control_state(Framework(graph, positions), params,
                                    extents=extents, time=time,
                                    require_rigid=False, vectors=vectors)
    except CoincidentNodesError:
        # a collapsing edge makes unit vectors meaningless
        return None
    return state if all(s.rigid for s in state.spectra) else None


def guarded_refresh(graph, positions, params, extents, time=0.0, vectors=True):
    """Refresh the topology without letting any frozen ball go flexible.

    Link changes move ball memberships by whole nodes, so a single prune or
    new link can zero a ball's eigenvalue faster than the smooth barrier can
    answer.  The plain rule is applied wholesale when every ball stays rigid;
    otherwise changes are admitted one edge at a time and the harmful ones
    wait: an overstretched edge some ball still needs stays in the graph, a
    new link that would pull an unbraced node into a ball stays pending.
    Returns the admitted graph with its control state, or (None, None) when
    even the unchanged edge set fails at these positions.  Without vectors
    every state is solved for eigenvalues only, which decides every
    verdict; pass vectors=False when no slopes are taken from the accepted
    state.
    """
    full = refresh_topology(graph, positions, params)
    state = _state_if_rigid(full, positions, params, extents, time, vectors)
    if state is not None:
        return full, state
    if full is graph:
        return None, None
    state = _state_if_rigid(graph, positions, params, extents, time, vectors)
    if state is None:
        return None, None
    admitted = graph
    old, new = set(graph.edges), set(full.edges)
    for e in sorted(old - new) + sorted(new - old):
        edges = set(admitted.edges)
        trial = Graph(graph.n, sorted(edges ^ {e}))
        t_state = _state_if_rigid(trial, positions, params, extents, time,
                                  vectors)
        if t_state is not None:
            admitted, state = trial, t_state
    return admitted, state

