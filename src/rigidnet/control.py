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
mask and stack, load coefficients, the layout of the balls' S) from the
BallSet kept on its Graph, and refresh_topology hands back the very Graph
it was given while the edge set holds.  A new edge set, the wholesale
refresh's or a guard trial's, makes a Graph that inherits its parent's
hop table and dense adjacency (graphs.edited), so its ball set is built
from its edit's table, not from a new search.  The edge unit vectors and
lengths are the Framework's, measured once when it was built.  So on an
unchanged topology a build reads the edge geometry from its framework,
evaluates the link weights, assembles the balls' S by d x d blocks, a
bincount per group of balls, and solves each ball once.  The guard solves
with eigenvectors on ground truth, where the replay reuses its accepted
state, and for eigenvalues only while the robots steer on estimates,
where nothing reads the eigenvectors; a state without them refuses its
slopes by name (EigenvectorsNotSolvedError).  Each guard trial's build
also solves its whole framework's S in the same batch as its balls, for
simnet's per-tick check.  This module only assembles the batch of S;
rigidity._spectra solves it, on one BLAS thread, and on both cores where
the process may use two and has the GIL-free eigenvalue-only kernel.

Each field of ControlParams, simnet.WorldConfig and experiments.ScenarioConfig
declares its domain once (_domain), and one validator, _check_fields, checks
every field's type, finiteness and domain, raising a ConfigError that names it.
"""

import contextvars
import logging
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
from scipy.special import expit

from .graphs import _edit, edited, proximity
from .rigidity import (
    CoincidentNodesError, Framework, Spectrum, _spectra, framework_gram
)
from .subframeworks import (
    BallSet, ball_grams, ball_set, extent_assignment, stack_balls
)

logger = logging.getLogger(__name__)


class RigidityLostError(RuntimeError):
    """Some subframework's rigidity eigenvalue fell to the zero threshold."""


class EigenvectorsNotSolvedError(RuntimeError):
    """Slopes were asked of a control state solved for eigenvalues only."""


class ConfigError(ValueError):
    """An input the library cannot use, such as a configuration field of
    the wrong type or out of its domain."""


class NonFiniteCommandError(ConfigError):
    """A velocity command is not finite in float64: the gains or exponents
    ask for more than a step can carry."""


# the domains a config field may declare, by the words its errors use
_DOMAINS = {
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    "in (0, 1)": lambda v: 0 < v < 1,
    "at least 1": lambda v: v >= 1,
    "at least 2": lambda v: v >= 2,
    "2 or 3": lambda v: v in (2, 3),
}


def _domain(name, default=MISSING):
    """A config field whose value must be name, one of _DOMAINS."""
    return field(default=default, metadata={"domain": name})


def _is_a(value, kind):
    """Whether value is of the annotated kind: an int passes as a float, a
    bool as neither, and a tuple must hold ints."""
    if kind is tuple:
        return isinstance(value, tuple) and all(_is_a(v, int) for v in value)
    abc = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    return isinstance(value, abc) and (kind is bool
                                       or not isinstance(value, bool))


def _check_fields(config):
    """Check every field of a config dataclass against its annotated type,
    a float for finiteness, and a field that declares a domain against it.

    Raises ConfigError naming the first field that fails.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if not _is_a(value, f.type):
            label = "list of int" if f.type is tuple else f.type.__name__
            raise ConfigError(f"field {f.name!r} must be of type {label}, "
                              f"got {value!r}")
        # false for NaN, the infinities and ints too large for float64
        if f.type is float and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
        domain = f.metadata.get("domain")
        if domain is not None and not _DOMAINS[domain](value):
            raise ConfigError(f"{f.name} must be {domain}, got {value!r}")


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


def _logistic(lengths, comm_range, steepness):
    """Logistic link weights: 1/2 at the communication range, ~1 well inside it."""
    # an argument too large for float64 is +-inf, whose weight is 1 or 0
    with np.errstate(over="ignore"):
        return expit(steepness * (comm_range - lengths))


@dataclass
class ControlState:
    """One controller step's frozen structure and the smooth quantities on it.

    ball_set (with the ball membership mask and the load coefficients c
    and coeff) is the graph's own and shared, read-only, by every state on that
    graph; the edge unit vectors and lengths are the framework's, and the
    link weights and spectra belong to this state.  spectra holds each
    ball's Spectrum, in center order (rigidity.TOO_SMALL for a ball too
    small to test, whose rho is None and reads NaN in rhos).  A state built
    without vectors holds eigenvalues only: its verdicts and rhos, but no
    slopes.  A guard trial's state also holds framework_spectrum, the
    eigenvalues of the whole framework's unweighted S, which simnet's
    per-tick check reads; any other state holds None there.
    """

    framework: Framework
    params: ControlParams
    extents: np.ndarray
    ball_set: BallSet
    weights: np.ndarray
    spectra: list
    vectors: bool = True
    framework_spectrum: Spectrum = None

    @property
    def rhos(self):
        return np.array([s.rho for s in self.spectra], dtype=float)

    def require_rigid(self):
        for j, s in enumerate(self.spectra):
            if not s.rigid:
                raise RigidityLostError(
                    f"subframework of node {j} lost rigidity (rho={s.rho})")

    def rigidity_slopes(self):
        """ball_rigidity_slopes of every ball, one row per stack row; every
        ball must be rigid and the state solved with vectors."""
        if not self.vectors:
            raise EigenvectorsNotSolvedError(
                "control state was solved for eigenvalues only; its "
                "rigidity slopes need eigenvectors")
        fw = self.framework
        return ball_rigidity_slopes(
            self.ball_set.stack, [s.rho for s in self.spectra],
            np.concatenate([s.nu for s in self.spectra]).reshape(-1, fw.dim),
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
    verdicts and rhos but no slopes.
    The balls are solved as one batch by rigidity._spectra, with BLAS on
    one thread, shared by the caller and one worker thread where the
    process may run on two cores.  A guard trial's build also solves
    its framework's unweighted S, for eigenvalues only, in the same batch
    as the balls (_GUARD_TRIAL), and keeps it as framework_spectrum.
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

    grams = ball_grams(balls.layouts, fw.units, weights)
    with_vectors = [vectors] * len(grams)
    check = _GUARD_TRIAL.get()
    if check:
        grams.append(framework_gram(fw))
        with_vectors.append(False)
    spectra = _spectra(grams, fw.dim, with_vectors)
    framework_spectrum = spectra.pop() if check else None
    degenerate = sum(s.degenerate for s in spectra)
    if degenerate:
        logger.debug(
            "%d subframeworks have near-multiple rigidity eigenvalues; "
            "their eigenvectors only give descent subgradients", degenerate)
    return ControlState(fw, params, extents, balls, weights, spectra, vectors,
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


def _edge_sums(ends, g, n):
    """The n-row sums of +g[t] at ends[t, 0] and -g[t] at ends[t, 1]; the
    ends interleave, so every row takes its terms in edge order."""
    return _scatter(ends, np.stack([g, -g], axis=1), n)


def _weight_slopes(w, steepness):
    """d/d(length) of each logistic link weight w."""
    return -steepness * w * (1.0 - w)


def _collision_slopes(fw, p):
    """d/dx of each edge's barrier length^(-p) at the edge's first end."""
    return (-p * fw.lengths ** -(p + 1.0))[:, None] * fw.units


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
    try:
        coef = np.array([-q * rho ** -(q + 1.0) for rho in rhos])[stack.ball]
    except OverflowError as exc:
        raise NonFiniteCommandError(
            f"the rigidity barrier's slope overflows float64 at "
            f"rigidity_exponent {q}") from exc
    dw = _weight_slopes(w, p.steepness)
    ga = dw[:, None] * sigma[:, None] ** 2 * r
    ga += 2.0 * (w * sigma / ell)[:, None] * (s - sigma[:, None] * r)
    ga *= coef[:, None]
    return _edge_sums(stack.ends, ga, len(nus))


def ball_load_slopes(stack, cs, edge_endpoints, units, weights, params):
    """Per-member d/dx of every stacked ball's frozen-coefficient load.

    cs[t] holds the load coefficient of every node for the center of ball
    t.  The sum runs over each ball's induced edges: every load term rides
    on an edge with an endpoint strictly inside the ball, and such an edge
    has both endpoints in it.  Just outside the ball both coefficients on
    any edge are zero.
    """
    k = stack.edge
    dw = _weight_slopes(weights[k], params.steepness)
    pair = (cs[stack.ball, edge_endpoints[k, 0]]
            + cs[stack.ball, edge_endpoints[k, 1]])
    gl = (pair * dw)[:, None] * units[k]
    return _edge_sums(stack.ends, gl, len(stack.nodes))


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
    e = fw.graph.edge_array()
    return ball_load_slopes(stack_balls(np.ones((1, fw.n), dtype=bool), e),
                            state.ball_set.coeff[None, :], e, fw.units,
                            state.weights, state.params)


def collision_gradient_all(state):
    """d/dx of the collision barrier."""
    fw = state.framework
    return _edge_sums(fw.graph.edge_array(),
                      _collision_slopes(fw, state.params.collision_exponent),
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


# True while guarded_refresh builds a trial state, which then also solves
# its framework's S for simnet's per-tick check.  It is a context variable,
# not a parameter, so that build_control_state's signature stays the one
# every caller knows; each thread and each guard call sees its own value.
_GUARD_TRIAL = contextvars.ContextVar("rigidnet_guard_trial", default=False)


def _state_if_rigid(graph, positions, params, extents, vectors):
    """The state of a guard trial, with its framework_spectrum, if every
    ball is rigid; else None."""
    token = _GUARD_TRIAL.set(True)
    try:
        state = build_control_state(Framework(graph, positions), params,
                                    extents=extents, vectors=vectors)
    except CoincidentNodesError:
        # a collapsing edge makes unit vectors meaningless
        return None
    finally:
        _GUARD_TRIAL.reset(token)
    return state if all(s.rigid for s in state.spectra) else None


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

