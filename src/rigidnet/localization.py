"""Range-only position filter with optional absolute-position anchors.

The whole network's filter state is one Filters: every robot's estimate and
covariance as rows of two arrays, an anchor mask and the one assumed range
variance.  Each robot corrects its own row from the ranges to its
neighbors, linearizing through the unit direction vectors of the estimated
geometry; its ranges are its slice of the Graph's slots.  Neighbor
estimates come from the previous round's broadcasts, so updates across
robots are independent within a round, and filter_update takes the
robots of one degree as one stack.  A true range is the Framework's
length for its edge, so positions are measured once.  Range data alone
fixes the formation only up to a rigid displacement; d anchored robots with
exact absolute fixes remove that freedom in d dimensions.  A fix sets an
anchor's estimate to its true position and its covariance to zero.

The measurement update never propagates the state in time.  The closed
loop (simnet.step_simulation) dead-reckons every estimate along its
command and inflates its covariance by dt^2 * |u|^2 * I per step; that
term is an extension of the update-only filter, not part of it.
run_static_filter, the filter on a motionless network, has one
configuration: exact anchor fixes, innovation variances that take in the
neighbors' covariances, and a process floor.
"""

from dataclasses import dataclass

import numpy as np

from .graphs import separations


class LocalizationError(ValueError):
    """The range filter cannot use the estimates or the variances it holds."""


class CoincidentEstimatesError(LocalizationError):
    """Two neighbors' estimates sit at one point, so the range model is singular."""


class NonFiniteRangeError(LocalizationError):
    """A range between two estimates overflows float64 or is not a number."""


class SingularInnovationError(LocalizationError):
    """A robot's innovation covariance is singular in float64."""


@dataclass
class Filters:
    """The whole network's filter state, one row per robot.

    estimates is n x d and covariances n x d x d; anchors is a boolean mask
    of the robots that fuse exact absolute fixes; every robot assumes the
    one range_variance.
    """

    estimates: np.ndarray
    covariances: np.ndarray
    anchors: np.ndarray
    range_variance: float

    def fix_anchors(self, positions):
        """Pin every anchor at its exact fix: estimate = fix, covariance = 0."""
        self.estimates[self.anchors] = np.asarray(positions)[self.anchors]
        self.covariances[self.anchors] = 0.0


def _range_model(estimate, neighbor_estimates):
    """Predicted ranges to the neighbor estimates and their unit-row jacobian,
    for one robot (estimate d, neighbors deg x d) or a stack of robots
    (k x d and k x deg x d)."""
    diff, r = separations(np.asarray(estimate, dtype=float)[..., None, :],
                          neighbor_estimates)
    if not np.isfinite(r).all():
        raise NonFiniteRangeError(
            "an estimated range is not finite: the estimates overflow float64")
    if (r < 1e-12).any():
        raise CoincidentEstimatesError(
            "coincident estimates make the range model singular")
    return r, diff / r[..., None]


def filter_update(estimate, covariance, range_variance, measurements,
                  neighbor_estimates, neighbor_covariances=None,
                  process_floor=0.0):
    """Range correction of one robot, or of a stack of robots of one degree:
    gain from the innovation covariance, then shrink P.  Returns the new
    (estimate, covariance) pair.

    One robot passes its estimate (d), covariance (d x d), measurements
    (deg) and neighbor estimates (deg x d); a stack of k robots passes k x
    d, k x d x d, k x deg and k x deg x d, and gets k rows back.  Every
    product and solve runs per robot on the same BLAS and LAPACK calls as
    the one-robot form, so each row of a stack equals its one-robot update
    bit for bit.  A coincident neighbor estimate in any row raises
    CoincidentEstimatesError, a non-finite range NonFiniteRangeError and a
    singular innovation covariance SingularInnovationError.

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
    if z.shape[-1] == 0:
        return estimate.copy(), covariance.copy()
    zh, F = _range_model(estimate, neighbor_estimates)
    if z.shape != zh.shape:
        raise ValueError(f"got {z.shape} measurements for {zh.shape} neighbors")
    P = covariance
    A = F @ P
    S = A @ np.swapaxes(F, -1, -2) + range_variance * np.eye(z.shape[-1])
    if neighbor_covariances is not None:
        P_nb = np.asarray(neighbor_covariances, dtype=float)
        if P_nb.shape[:-2] != z.shape:
            raise ValueError("need one neighbor covariance per measurement")
        for k in range(z.shape[-1]):
            F_k = F[..., k, None, :]
            S[..., k, k] += (F_k @ P_nb[..., k, :, :]
                             @ np.swapaxes(F_k, -1, -2))[..., 0, 0]
    try:
        K = np.swapaxes(np.linalg.solve(S, A), -1, -2)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationError(
            f"the innovation covariance is singular: range variance "
            f"{range_variance:g} is lost against the covariances") from exc
    # ranges near the top of float64 overflow the correction: inf and NaN
    # are judged below as a whole, not warned about one product at a time
    with np.errstate(over="ignore", invalid="ignore"):
        innovation = z - zh
        est = estimate + (K @ innovation[..., None])[..., 0]
    if not np.isfinite(est).all():
        raise NonFiniteRangeError(
            "a corrected estimate is not finite: the range innovations "
            "overflow float64")
    P_new = P - K @ A
    P_new = 0.5 * (P_new + np.swapaxes(P_new, -1, -2))
    if process_floor > 0:
        power = process_floor * np.mean(innovation**2, axis=-1)
        P_new = P_new + power[..., None, None] * np.eye(est.shape[-1])
    return est, P_new


def congruence_error(estimates, truth):
    """Largest pairwise-distance mismatch between the two point sets."""
    a = np.asarray(estimates, dtype=float)
    b = np.asarray(truth, dtype=float)
    if a.shape != b.shape:
        raise ValueError("point sets must have matching shapes")
    _, da = separations(a[:, None, :], a[None, :, :])
    _, db = separations(b[:, None, :], b[None, :, :])
    return float(np.abs(da - db).max())


def make_filters(estimates, initial_variance, range_variance, anchors=()):
    """Filters starting at the given estimates, each with covariance
    initial_variance * I, anchors flagged by node id."""
    estimates = np.array(estimates, dtype=float)
    n, d = estimates.shape
    if range_variance <= 0:
        raise ValueError("range variance must be positive")
    mask = np.zeros(n, dtype=bool)
    for a in anchors:
        if not 0 <= a < n:
            raise ValueError(f"anchor id {a} is not a node id in 0..{n - 1}")
        mask[a] = True
    covariances = np.repeat(initial_variance * np.eye(d)[None], n, axis=0)
    return Filters(estimates, covariances, mask, range_variance)


def measure_ranges(fw, rng=None, noise_std=0.0):
    """Every robot's measured ranges to its neighbors, one per graph slot:
    node i's are slots[i]:slots[i + 1], in graph.neighbors order.

    An edge's true range is the length the framework measured, and both of
    its slots read that one value; with noise_std > 0 every edge's range
    gets one normal draw from rng, in edge order, in one call.
    """
    ranges = fw.lengths
    if noise_std > 0:
        ranges = ranges + rng.normal(0.0, noise_std, size=len(ranges))
    return ranges[fw.graph.slot_edge]


def run_static_filter(fw, filters, rounds, anchor_positions=None,
                      measurement_rng=None, measurement_std=0.0, record=False):
    """Iterate synchronous filter rounds on a motionless framework.

    With anchor_positions, anchors hold their exact absolute fix from the
    start and fuse it again after every round.  Every robot ranges its true
    neighbors and corrects against the previous round's estimates: the
    estimates and covariances are snapshotted once per round, so within a
    round every update sees the same stale neighbor data.  Each innovation
    variance takes in the snapshotted neighbor covariances, and a process
    floor of 0.25 keeps the gain alive while residuals persist, because a
    static network converges poorly without either.  filters is updated in
    place.  Returns the final estimate array, or the whole per-round
    history when record is set.
    """
    true_ranges = measure_ranges(fw)
    slot_node = fw.graph.slot_node
    est, cov = filters.estimates, filters.covariances
    if anchor_positions is not None:
        filters.fix_anchors(anchor_positions)
    history = [est.copy()]
    for _ in range(rounds):
        snapshot, cov_snapshot = est.copy(), cov.copy()
        z = true_ranges
        if measurement_rng is not None and measurement_std > 0:
            # one draw per slot, in slot order
            z = z + measurement_rng.normal(0.0, measurement_std, size=len(z))
        # one stacked update per degree, on each robot's own slots
        for rows, own in fw.graph.degree_groups():
            nbrs = slot_node[own]
            est[rows], cov[rows] = filter_update(
                est[rows], cov[rows], filters.range_variance, z[own],
                snapshot[nbrs], neighbor_covariances=cov_snapshot[nbrs],
                process_floor=0.25)
        if anchor_positions is not None:
            filters.fix_anchors(anchor_positions)
        history.append(est.copy())
    if record:
        return np.array(history)
    return history[-1]
