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
shared by the centralized field, the replayed exchange and every center,
and the weight slope, the collision slope and the signed scatter of edge
terms to their ends (_edge_sums) each have one home here.  Every sum onto
nodes, simnet's command too, is one _scatter.  Each cost term is a
potential and a gradient of one ControlState (rigidity_potential and
rigidity_gradient_all, and so on for load and collision); total_potential
and velocity_field add them up.  A state is the one evaluation of a
topology at positions, so a cost at other positions is read off the state
built there.  It measures and never judges: it has no clock, and its
caller calls require_rigid.

A state build takes everything the topology fixes (the balls' membership
mask, load coefficients, and the stack with the layout of the balls' S)
from the BallSet kept on its Graph, and refresh_topology hands back the
very Graph it was given while the edge set holds.  A new edge set, the
wholesale refresh's or a guard trial's, makes a Graph that inherits its
parent's hop table and dense adjacency (graphs.edited), so its ball set is
built from its edit's table, not from a new search.  The edge unit vectors
and lengths are the Framework's, measured once when it was built.  So on
an unchanged topology a build reads the edge geometry from its framework,
evaluates the link weights, assembles the balls' S by d x d blocks, a
bincount per group of balls, and solves each ball once.  The guard solves
with eigenvectors on ground truth, where the replay reuses its accepted
state, and for eigenvalues only while the robots steer on estimates, where
nothing reads the eigenvectors; a state without them refuses its slopes by
name (EigenvectorsNotSolvedError).  A guard trial's build and a world's
first also solve the whole framework's S in the same batch as the balls
(_state_with_framework), for simnet's per-tick check.  This module only
assembles the batch of S; rigidity._spectra solves it, on one BLAS
thread, and on both cores where the process may use two and has the
GIL-free eigenvalue-only kernel, into one record of verdicts.

Each field of ControlParams declares its domain once (_domain), and
_checks._check_fields reads every field.
"""

import contextvars
import functools
import logging
from dataclasses import dataclass

import numpy as np

from ._checks import ConfigError, _check_fields, _domain
from .graphs import _edit, edited, proximity
from .rigidity import (
    CoincidentNodesError, Framework, Spectrum, Verdicts, _spectra, _spectrum,
    framework_gram, framework_stack
)
from .subframeworks import BallSet, _extents, ball_set, extent_assignment

logger = logging.getLogger(__name__)


class RigidityLostError(RuntimeError):
    """Some subframework's rigidity eigenvalue fell to the zero threshold."""


class EigenvectorsNotSolvedError(RuntimeError):
    """Slopes were asked of a control state solved for eigenvalues only."""


class NonFiniteCommandError(ConfigError):
    """A velocity command is not finite in float64: the gains or exponents
    ask for more than a step can carry."""


@dataclass
class ControlParams:
    """Knobs of the controller; the gains weigh three incommensurate terms."""

    comm_range: float = _domain("positive")
    steepness: float = _domain("positive", 0.5)
    rigidity_exponent: float = _domain("positive", 1.0)
    collision_exponent: float = _domain("positive", 2.0)
    k_rigidity: float = _domain("non-negative", 1.0)
    k_load: float = _domain("non-negative", 1.0)
    k_collision: float = _domain("non-negative", 1.0)
    dt: float = _domain("positive", 0.05)
    weight_prune: float = _domain("in (0, 1)", 0.01)
    max_step_retries: int = _domain("non-negative", 8)

    __post_init__ = _check_fields


@functools.cache
def _expit():
    """scipy.special.expit, imported on first use: only the link weights
    read it, so a process that computes none (the ensemble, gen, audit)
    never loads scipy.special.  Making a World loads it, so no tick pays
    the import."""
    from scipy.special import expit

    return expit


def _logistic(lengths, comm_range, steepness):
    """Logistic link weights: 1/2 at the communication range, ~1 well inside it."""
    # an argument too large for float64 is +-inf, whose weight is 1 or 0
    with np.errstate(over="ignore"):
        return _expit()(steepness * (comm_range - lengths))


@dataclass
class ControlState:
    """One controller step's frozen structure and the smooth quantities on it.

    ball_set (with the ball membership mask and the load coefficients c
    and coeff) is the graph's own and shared, read-only, by every state on that
    graph; the edge unit vectors and lengths are the framework's, and the
    link weights and verdicts belong to this state.  verdicts is the
    balls' rigidity.Verdicts, in center order (a ball too small to test
    reads NaN in rhos), each eigenvector unsigned.  A state built without
    vectors holds eigenvalues only: its verdicts and rhos, but no slopes.
    A guard trial's state, or a world's first, also holds
    framework_spectrum, the eigenvalues of the framework's unweighted S,
    which simnet's per-tick check reads; any other state holds None there.
    """

    framework: Framework
    params: ControlParams
    extents: np.ndarray
    ball_set: BallSet
    weights: np.ndarray
    verdicts: Verdicts
    vectors: bool = True
    framework_spectrum: Spectrum = None

    @property
    def rhos(self):
        return self.verdicts.rho

    def require_rigid(self):
        if not self.verdicts.rigid.all():
            j = int(np.argmin(self.verdicts.rigid))
            raise RigidityLostError(
                f"subframework of node {j} lost rigidity "
                f"(rho={_spectrum(self.verdicts, j).rho})")

    def rigidity_slopes(self):
        """ball_rigidity_slopes of every ball, one row per stack row; every
        ball must be rigid and the state solved with vectors."""
        if not self.vectors:
            raise EigenvectorsNotSolvedError(
                "control state was solved for eigenvalues only; its "
                "rigidity slopes need eigenvectors")
        fw = self.framework
        return ball_rigidity_slopes(
            self.ball_set.stack, self.rhos.tolist(),
            np.concatenate(self.verdicts.nu).reshape(-1, fw.dim),
            fw.units, fw.lengths, self.weights, self.params)


def build_control_state(fw, params, extents=None, vectors=True):
    """Snapshot the discrete structure of a framework and solve its eigenproblems.

    Extents are decided once, at startup, and carried verbatim across steps
    even as edges come and go: pass an array of one radius per node, or None
    to measure them here (RigidityLostError if a node has no rigid ball at
    any radius).  The build measures and never judges: a flexible or too
    small ball still gives a state, whose caller calls require_rigid or
    reads the verdicts.  Without vectors every ball is solved for its
    eigenvalues only (eigvalsh instead of eigh), and the state gives
    verdicts and rhos but no slopes.  The balls are solved as one batch by
    rigidity._spectra, and under _state_with_framework (_GUARD_TRIAL) the
    framework's unweighted S too, for eigenvalues only, kept as
    framework_spectrum.
    """
    if extents is None:
        extents = extent_assignment(fw)
        if not extents.all():
            raise RigidityLostError("some node has no rigid ball at any radius")
    extents = _extents(extents, fw.n)

    weights = _logistic(fw.lengths, params.comm_range, params.steepness)
    balls = ball_set(fw.graph, extents, fw.dim)

    grams = balls.stack.grams(fw.units, weights)
    check = _GUARD_TRIAL.get()
    if check:
        grams.append(framework_gram(fw))
    verdicts = _spectra(grams, fw.dim,
                        [vectors] * fw.n + [False] * (len(grams) - fw.n))
    framework_spectrum = _spectrum(verdicts, -1) if check else None
    verdicts = verdicts[:fw.n]
    degenerate = int(verdicts.degenerate.sum())
    if degenerate:
        logger.debug(
            "%d subframeworks have near-multiple rigidity eigenvalues; "
            "their eigenvectors only give descent subgradients", degenerate)
    return ControlState(fw, params, extents, balls, weights, verdicts, vectors,
                        framework_spectrum)


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
    delta = np.bincount(fw.graph.edge_array().ravel(),
                        np.repeat(state.weights, 2), minlength=fw.n)
    return float(state.ball_set.coeff @ delta)


def collision_potential(state):
    """Inverse-power barrier over adjacent pairs only."""
    p = state.params.collision_exponent
    return float((state.framework.lengths ** -p).sum())


def _scatter(rows, terms, n):
    """The n x d sums of terms, d-vectors shaped as rows, onto their rows:
    a bincount per column adds each row's terms from zero in row-major
    order, as a loop would, bit for bit."""
    terms = terms.reshape(-1, terms.shape[-1])
    return np.stack([np.bincount(rows.ravel(), t, minlength=n)
                     for t in terms.T], axis=1)


def _edge_sums(ends, columns, n):
    """The n x d sums of +g[t] at ends[t, 0] and -g[t] at ends[t, 1], from
    the d coordinate columns g of the edge terms; the ends interleave, so
    every row takes its terms in edge order."""
    g = np.array(columns)
    # the terms as rows, a transposed view whose columns are contiguous
    return _scatter(ends, np.stack([g, -g], axis=2).reshape(len(g), -1).T, n)


def _weight_slopes(w, steepness):
    """d/d(length) of each logistic link weight w."""
    return -steepness * w * (1.0 - w)


def _collision_slopes(fw, p):
    """d/dx of each edge's barrier length^(-p) at the edge's first end."""
    return (-p * fw.lengths ** -(p + 1.0))[:, None] * fw.units


def ball_rigidity_slopes(stack, rhos, nus, units, lengths, weights, params):
    """Per-member d/dx of rho^(-q) for every ball of a stack, one row each.

    stack is a rigidity.BallStack; rhos holds each ball's rigidity
    eigenvalue and nus its eigenvector, one d-vector per stack row; units,
    lengths and weights describe every edge of the framework.  Both the
    unit-vector rows and the logistic weights of S_j move with the
    positions; the derivative follows the eigenvalue of a symmetric matrix
    through its (sub)eigenvector.  Each edge's terms are formed on the d
    coordinate columns, each taken contiguous.
    """
    p = params
    k = stack.edge
    a, b = stack.ends.T
    r = [np.take(units[:, c], k) for c in range(units.shape[1])]
    s = [np.take(nus[:, c], a) - np.take(nus[:, c], b)
         for c in range(units.shape[1])]
    sigma = r[0] * s[0]
    for r_c, s_c in zip(r[1:], s[1:]):
        sigma += r_c * s_c
    ell = np.take(lengths, k)
    w = np.take(weights, k)
    q = p.rigidity_exponent
    try:
        coef = np.array([-q * rho ** -(q + 1.0) for rho in rhos])[stack.ball]
    except OverflowError as exc:
        raise NonFiniteCommandError(
            f"the rigidity barrier's slope overflows float64 at "
            f"rigidity_exponent {q}") from exc
    along = _weight_slopes(w, p.steepness) * sigma ** 2
    across = 2.0 * (w * sigma / ell)
    ga = []
    for r_c, s_c in zip(r, s):
        g = along * r_c
        g += across * (s_c - sigma * r_c)
        g *= coef
        ga.append(g)
    return _edge_sums(stack.ends, ga, len(nus))


def ball_load_slopes(stack, cs, units, weights, params):
    """Per-member d/dx of every stacked ball's frozen-coefficient load.

    cs[t] holds the load coefficient of every node for the center of ball
    t.  The sum runs over each ball's induced edges: every load term rides
    on an edge with an endpoint strictly inside the ball, and such an edge
    has both endpoints in it.  Just outside the ball both coefficients on
    any edge are zero.  Each edge's terms are formed on the d coordinate
    columns, as in ball_rigidity_slopes.
    """
    k = stack.edge
    dw = _weight_slopes(np.take(weights, k), params.steepness)
    a, b = stack.nodes[stack.ends.T]
    pair = (cs[stack.ball, a] + cs[stack.ball, b]) * dw
    return _edge_sums(stack.ends, [pair * np.take(units[:, c], k)
                                   for c in range(units.shape[1])],
                      len(stack.nodes))


def rigidity_gradient_all(state):
    """d/dx of the rigidity potential: every ball's slopes, summed center
    by center as each center's payloads arrive at its members."""
    state.require_rigid()
    return _scatter(state.ball_set.stack.nodes, state.rigidity_slopes(),
                    state.framework.n)


def load_gradient_all(state):
    """d/dx of the load potential with the ball coefficients held frozen:
    ball_load_slopes of one ball of every node, with the summed coeff."""
    fw = state.framework
    return ball_load_slopes(framework_stack(fw), state.ball_set.coeff[None, :],
                            fw.units, state.weights, state.params)


def collision_gradient_all(state):
    """d/dx of the collision barrier."""
    fw = state.framework
    return _edge_sums(fw.graph.edge_array(),
                      _collision_slopes(fw, state.params.collision_exponent).T,
                      fw.n)


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
    returns graph itself, with everything already kept on it; a changed one
    a Graph that inherits graph's hop table and adjacency (graphs.edited).
    """
    dist, keep = proximity(positions, params.comm_range)
    e = graph.edge_array()
    w = _logistic(dist[e[:, 0], e[:, 1]], params.comm_range, params.steepness)
    keep[e[:, 0], e[:, 1]] |= w >= params.weight_prune
    ii, jj = np.divmod(np.flatnonzero(keep), graph.n)
    if len(ii) == len(e) and (ii == e[:, 0]).all() and (jj == e[:, 1]).all():
        return graph
    return edited(graph, np.stack([ii, jj], axis=1))


# True while _state_with_framework builds, which then also solves the
# framework's S for simnet's per-tick check.  It is a context variable,
# not a parameter, so that build_control_state's signature stays the one
# every caller knows; each thread and each build sees its own value.
_GUARD_TRIAL = contextvars.ContextVar("rigidnet_guard_trial", default=False)


def _state_with_framework(fw, params, extents, vectors):
    """build_control_state, with fw's own S solved in the same batch as
    its balls and kept as the state's framework_spectrum."""
    token = _GUARD_TRIAL.set(True)
    try:
        return build_control_state(fw, params, extents, vectors)
    finally:
        _GUARD_TRIAL.reset(token)


def _state_if_rigid(graph, positions, params, extents, vectors):
    """The state of a guard trial, with its framework_spectrum, if every
    ball is rigid; else None."""
    try:
        state = _state_with_framework(Framework(graph, positions), params,
                                      extents, vectors)
    except CoincidentNodesError:
        # a collapsing edge makes unit vectors meaningless
        return None
    return state if state.verdicts.rigid.all() else None


def guarded_refresh(graph, positions, params, extents, vectors=True):
    """Refresh the topology without letting any frozen ball go flexible.

    Link changes move ball memberships by whole nodes, so a single prune or
    new link can zero a ball's eigenvalue faster than the smooth barrier can
    answer.  The plain rule is applied wholesale when every ball stays rigid;
    otherwise changes are admitted one edge at a time and the harmful ones
    wait: an overstretched edge some ball still needs stays in the graph, a
    new link that would pull an unbraced node into a ball stays pending.
    Each trial's Graph is the admitted one's edge array with one row
    removed or inserted in order, and inherits the admitted one's hop
    table.
    Returns the admitted graph with its control state, or (None, None) when
    even the unchanged edge set fails at these positions.  Without vectors
    every state is solved for eigenvalues only, which decides every
    verdict; pass vectors=False when no slopes are taken from the accepted
    state.
    """
    full = refresh_topology(graph, positions, params)
    state = _state_if_rigid(full, positions, params, extents, vectors)
    if state is not None:
        return full, state
    if full is graph:
        return None, None
    state = _state_if_rigid(graph, positions, params, extents, vectors)
    if state is None:
        return None, None
    admitted = graph
    for e in np.concatenate(_edit(graph, full)):
        # the edge's row in the admitted edge order, or where it would go
        edges = admitted.edge_array()
        k = int(np.searchsorted(edges[:, 0] * graph.n + edges[:, 1],
                                e[0] * graph.n + e[1]))
        held = k < len(edges) and (edges[k] == e).all()
        trial = edited(admitted, np.delete(edges, k, axis=0) if held
                       else np.insert(edges, k, e, axis=0))
        t_state = _state_if_rigid(trial, positions, params, extents, vectors)
        if t_state is not None:
            admitted, state = trial, t_state
    return admitted, state

