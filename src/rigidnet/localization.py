"""Per-robot range-only position filter with optional absolute-position anchors.

Each robot keeps its own estimate and covariance and corrects them from the
ranges to its neighbors, linearizing through the unit direction vectors of the
estimated geometry.  Neighbor estimates come from the previous round's
broadcasts, so updates across robots are independent within a round.  Range
data alone fixes the formation only up to a rigid displacement; d anchored
robots with absolute fixes remove that freedom in d dimensions.

The measurement update never propagates the state in time.  Robot motion is
accounted for by inflating the covariance with lam_p * dt^2 * |u|^2 * I per
step; that term is an extension of the update-only filter, not part of it.
The closed loop inflates at lam_p = 1.  run_static_filter, the filter on a
motionless network, has one configuration: exact anchor fixes, innovation
variances that take in the neighbors' covariances, and a process floor.
"""

from dataclasses import dataclass

import numpy as np


class CoincidentEstimatesError(ValueError):
    """Two neighbors' estimates sit at one point, so the range model is singular."""


@dataclass
class FilterState:
    """One robot's estimate, its covariance and the assumed range variance."""

    estimate: np.ndarray
    covariance: np.ndarray
    range_variance: float = 0.01
    is_anchor: bool = False

    def __post_init__(self):
        self.estimate = np.asarray(self.estimate, dtype=float)
        d = len(self.estimate)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.covariance.shape != (d, d):
            raise ValueError("covariance must be d x d")
        if self.range_variance <= 0:
            raise ValueError("range variance must be positive")


def _range_model(estimate, neighbor_estimates):
    """Predicted ranges to the neighbor estimates and their unit-row jacobian."""
    x = np.asarray(estimate, dtype=float)
    nb = np.asarray(neighbor_estimates, dtype=float).reshape(-1, len(x))
    diff = x[None, :] - nb
    r = np.linalg.norm(diff, axis=1)
    if (r < 1e-12).any():
        raise CoincidentEstimatesError(
            "coincident estimates make the range model singular")
    return r, diff / r[:, None]


def predict_ranges(estimate, neighbor_estimates):
    """Expected range to each neighbor estimate, in the given neighbor order."""
    return _range_model(estimate, neighbor_estimates)[0]


def range_jacobian(estimate, neighbor_estimates):
    """Unit-row jacobian of the predicted ranges with respect to own position."""
    return _range_model(estimate, neighbor_estimates)[1]


def filter_update(state, measurements, neighbor_estimates,
                  neighbor_covariances=None, process_floor=0.0):
    """Range correction: gain from the innovation covariance, then shrink P.

    neighbor_covariances, when given, must hold one d x d covariance per
    neighbor; each range's innovation variance then grows by F_k P_k F_k^T so
    ranges against uncertain neighbors correct gently and ranges against
    settled ones (anchors have P = 0) correct at full strength.

    process_floor > 0 re-adds process_floor * mean(innovation^2) * I to the
    posterior covariance.  Without it, repeated updates on a static network
    shrink P toward zero and the gain dies while inter-robot error can still
    remain; scaling the floor by the innovation power keeps the filter awake
    exactly as long as its own residuals say the fit is not done.
    """
    z = np.asarray(measurements, dtype=float)
    if len(z) == 0:
        return FilterState(
            state.estimate.copy(), state.covariance.copy(),
            state.range_variance, state.is_anchor,
        )
    zh, F = _range_model(state.estimate, neighbor_estimates)
    if z.shape != zh.shape:
        raise ValueError(f"got {z.shape} measurements for {zh.shape} neighbors")
    P = state.covariance
    A = F @ P
    S = A @ F.T + state.range_variance * np.eye(len(z))
    if neighbor_covariances is not None:
        if len(neighbor_covariances) != len(z):
            raise ValueError("need one neighbor covariance per measurement")
        for k, P_k in enumerate(neighbor_covariances):
            S[k, k] += float(F[k] @ P_k @ F[k])
    K = np.linalg.solve(S, A).T
    innovation = z - zh
    est = state.estimate + K @ innovation
    P_new = P - K @ A
    P_new = 0.5 * (P_new + P_new.T)
    if process_floor > 0:
        d = len(est)
        P_new = P_new + process_floor * float(np.mean(innovation**2)) * np.eye(d)
    return FilterState(est, P_new, state.range_variance, state.is_anchor)


def anchor_update(state, fix, anchor_variance=0.0):
    """Absolute-position correction, allowed only on anchor robots.

    A zero-variance fix pins the estimate exactly and zeroes the covariance.
    """
    if not state.is_anchor:
        raise ValueError("absolute fixes are only fused on anchor robots")
    fix = np.asarray(fix, dtype=float)
    d = len(state.estimate)
    if anchor_variance == 0.0:
        return FilterState(fix.copy(), np.zeros((d, d)),
                           state.range_variance, True)
    P = state.covariance
    K = np.linalg.solve((P + anchor_variance * np.eye(d)).T, P.T).T
    est = state.estimate + K @ (fix - state.estimate)
    P_new = P - K @ P
    P_new = 0.5 * (P_new + P_new.T)
    return FilterState(est, P_new, state.range_variance, True)


def inflate_covariance(state, velocity, dt, lam_p=1.0):
    """Add motion uncertainty lam_p * dt^2 * |u|^2 * I before the next update."""
    u = np.asarray(velocity, dtype=float)
    d = len(state.estimate)
    bump = lam_p * dt**2 * float(u @ u) * np.eye(d)
    return FilterState(state.estimate.copy(), state.covariance + bump,
                       state.range_variance, state.is_anchor)


def congruence_error(estimates, truth):
    """Largest pairwise-distance mismatch between the two point sets."""
    a = np.asarray(estimates, dtype=float)
    b = np.asarray(truth, dtype=float)
    if a.shape != b.shape:
        raise ValueError("point sets must have matching shapes")
    da = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=2)
    db = np.linalg.norm(b[:, None, :] - b[None, :, :], axis=2)
    return float(np.abs(da - db).max())


def make_filters(estimates, initial_variance, range_variance, anchors=()):
    """One FilterState per robot, anchors flagged by node id."""
    estimates = np.asarray(estimates, dtype=float)
    n, d = estimates.shape
    anchors = set(int(a) for a in anchors)
    return [
        FilterState(estimates[i].copy(), initial_variance * np.eye(d),
                    range_variance, i in anchors)
        for i in range(n)
    ]


def measure_ranges(fw, rng=None, noise_std=0.0):
    """Every robot's measured ranges to its neighbors, in graph.neighbors order.

    Each edge is ranged once, as the norm of its endpoints' difference, and
    both endpoints read that one value; with noise_std > 0 every edge's
    range gets one normal draw from rng, in edge order.
    """
    x = fw.positions
    measured = {}
    for a, b in fw.graph.edges:
        dist = float(np.linalg.norm(x[a] - x[b]))
        if noise_std > 0:
            dist += float(rng.normal(0.0, noise_std))
        measured[(a, b)] = dist
    return [np.array([measured[(min(i, j), max(i, j))]
                      for j in fw.graph.neighbors(i).tolist()])
            for i in range(fw.graph.n)]


def run_static_filter(fw, filters, rounds, anchor_positions=None,
                      measurement_rng=None, measurement_std=0.0, record=False):
    """Iterate synchronous filter rounds on a motionless framework.

    Every robot ranges its true neighbors and corrects against the previous
    round's estimates; anchors then fuse their exact absolute fix.
    Estimates and covariances are snapshotted once per round, so within a
    round every update sees the same stale neighbor data.  Each innovation
    variance takes in the snapshotted neighbor covariances, and a process
    floor of 0.25 keeps the gain alive while residuals persist, because a
    static network converges poorly without either.  Returns the final
    estimate array, or the whole per-round history when record is set.
    """
    n, d = fw.positions.shape
    true_ranges = measure_ranges(fw)
    history = [np.array([f.estimate for f in filters])]
    for _ in range(rounds):
        snapshot = [f.estimate.copy() for f in filters]
        cov_snapshot = [f.covariance.copy() for f in filters]
        new_filters = []
        for i in range(n):
            nbrs = [int(j) for j in fw.graph.neighbors(i)]
            z = true_ranges[i]
            if measurement_rng is not None and measurement_std > 0:
                z = z + measurement_rng.normal(0.0, measurement_std, size=len(z))
            nb_est = np.array([snapshot[j] for j in nbrs]).reshape(len(nbrs), d)
            nb_cov = [cov_snapshot[j] for j in nbrs]
            f = filter_update(filters[i], z, nb_est,
                              neighbor_covariances=nb_cov, process_floor=0.25)
            if f.is_anchor and anchor_positions is not None:
                f = anchor_update(f, anchor_positions[i])
            new_filters.append(f)
        filters[:] = new_filters
        history.append(np.array([f.estimate for f in filters]))
    if record:
        return np.array(history)
    return history[-1]
