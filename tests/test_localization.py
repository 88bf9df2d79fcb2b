"""Range-only filter: update algebra, anchors, and static-network runs."""

import warnings

import numpy as np
import pytest

from rigidnet.control import ControlParams
from rigidnet.graphs import Graph
from rigidnet.localization import (
    CoincidentEstimatesError,
    LocalizationError,
    NonFiniteRangeError,
    SingularInnovationError,
    _range_model,
    congruence_error,
    filter_update,
    make_filters,
    measure_ranges,
    run_static_filter,
)
from rigidnet.rigidity import Framework, is_infinitesimally_rigid
from rigidnet.simnet import WorldConfig, make_world, step_simulation

from support import random_disk_framework


def test_predict_ranges_345_triangle():
    r, _ = _range_model([0.0, 0.0], [[3.0, 4.0]])
    assert np.allclose(r, [5.0])


def test_predict_ranges_multiple_neighbors():
    r, _ = _range_model([1.0, 1.0], [[1.0, 3.0], [4.0, 5.0]])
    assert np.allclose(r, [2.0, 5.0])


def test_predict_ranges_coincident_raises():
    with pytest.raises(ValueError):
        _range_model([1.0, 2.0], [[1.0, 2.0]])


@pytest.mark.parametrize("output", [
    pytest.param(0, id="predict_ranges"),
    pytest.param(1, id="range_jacobian"),
])
def test_coincident_estimates_raise_a_named_error(output):
    # neither the predicted ranges nor their jacobian come back for a
    # coincident neighbor
    with pytest.raises(CoincidentEstimatesError, match="coincident estimates"):
        _range_model([1.0, 2.0], [[4.0, 6.0], [1.0, 2.0]])[output]


@pytest.mark.parametrize("far", [1e200, np.inf, np.nan])
def test_non_finite_ranges_raise_a_named_error(far):
    # a range that overflows float64 raises without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteRangeError, match="not finite"):
            _range_model([[0.0, 0.0]], [[[1.0, 2.0], [far, -far]]])


def test_filter_update_coincident_estimates_raise_a_named_error():
    with pytest.raises(CoincidentEstimatesError, match="coincident estimates"):
        filter_update(np.array([1.0, 2.0]), np.eye(2), 0.01,
                      np.array([5.0, 1.0]), np.array([[4.0, 6.0], [1.0, 2.0]]))


@pytest.mark.parametrize("z", [[1e308, -1e308], [np.inf, 1.0]])
def test_filter_update_overflowing_correction_raises_a_named_error(z):
    # finite predicted ranges, but innovations whose correction overflows
    # float64: a named error, with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteRangeError, match="not finite"):
            filter_update(np.zeros(2), np.eye(2), 0.01, np.array(z),
                          np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_filter_update_singular_innovation_raises_a_named_error():
    # two neighbors in one direction give F P F^T = [[1, 1], [1, 1]], beside
    # which a range variance of 1e-30 is lost: the solve has no gain
    with pytest.raises(SingularInnovationError, match="singular"):
        filter_update(np.zeros(2), np.eye(2), 1e-30, np.array([1.0, 2.0]),
                      np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert all(issubclass(error, LocalizationError) for error in (
        CoincidentEstimatesError, NonFiniteRangeError, SingularInnovationError))


def test_static_filter_singular_innovation_raises_a_named_error():
    # robot 0 ranges two anchors (P = 0) that lie in one direction from it
    x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    fw = Framework(Graph(3, [(0, 1), (0, 2), (1, 2)]), x)
    filters = make_filters(x, 1.0, 1e-30, anchors=(1, 2))
    with pytest.raises(SingularInnovationError, match="singular"):
        run_static_filter(fw, filters, 1, anchor_positions=x)


def test_jacobian_rows_are_unit_directions():
    rng = np.random.default_rng(7)
    x = rng.normal(size=2)
    nb = rng.normal(size=(5, 2))
    _, F = _range_model(x, nb)
    assert np.allclose(np.linalg.norm(F, axis=1), 1.0)
    # row k points from the neighbor estimate toward the own estimate
    d0 = (x - nb[0]) / np.linalg.norm(x - nb[0])
    assert np.allclose(F[0], d0)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    nb = rng.normal(size=(4, 2)) * 3.0
    x0 = rng.normal(size=2)
    _, F = _range_model(x0, nb)
    eps = 1e-6
    cols = []
    for k in range(2):
        step = np.zeros(2)
        step[k] = eps
        cols.append((_range_model(x0 + step, nb)[0]
                     - _range_model(x0 - step, nb)[0]) / (2 * eps))
    assert np.allclose(F, np.column_stack(cols), atol=1e-7)


def test_filter_update_zero_innovation_keeps_estimate():
    x, P = np.array([1.0, 2.0]), 4.0 * np.eye(2)
    nb = np.array([[4.0, 6.0]])
    z = np.linalg.norm(x - nb, axis=1)
    est, cov = filter_update(x, P, 0.01, z, nb)
    assert np.allclose(est, x)
    assert np.trace(cov) < np.trace(P)


def test_filter_update_scalar_gain_oracle():
    # one range along +x: gain reduces to p/(p+rv) on that axis
    p, rv = 4.0, 1.0
    nb = np.array([[0.0, 0.0]])
    z = np.array([3.0])  # innovation +1
    est, cov = filter_update(np.array([2.0, 0.0]), p * np.eye(2), rv, z, nb)
    assert np.allclose(est, [2.0 + p / (p + rv), 0.0])
    assert np.allclose(cov[0, 0], p - p**2 / (p + rv))
    assert np.allclose(cov[1, 1], p)


def test_filter_update_posterior_psd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(2, 2))
        x, P = rng.normal(size=2), a @ a.T + 0.1 * np.eye(2)
        nb = rng.normal(size=(3, 2)) * 4.0
        z = np.linalg.norm(x - nb, axis=1) + rng.normal(size=3) * 0.1
        _, cov = filter_update(x, P, 0.01, z, nb)
        assert np.linalg.eigvalsh(cov).min() > -1e-12


def test_filter_update_no_neighbors_is_noop():
    x, P = np.array([1.0, 2.0]), np.eye(2)
    est, cov = filter_update(x, P, 0.01, np.array([]), np.empty((0, 2)))
    assert np.allclose(est, x)
    assert np.allclose(cov, P)


def test_filter_update_shape_mismatch_raises():
    with pytest.raises(ValueError):
        filter_update(np.zeros(2), np.eye(2), 0.01, np.array([1.0, 2.0]),
                      np.array([[1.0, 0.0]]))


def test_neighbor_covariance_count_mismatch_raises():
    with pytest.raises(ValueError):
        filter_update(np.zeros(2), np.eye(2), 0.01, np.array([1.0]),
                      np.array([[1.0, 0.0]]),
                      neighbor_covariances=[np.eye(2), np.eye(2)])


def robot_stack(rng, k, degree, dim):
    """k robots of one degree: estimates, covariances (row 0 an anchor's
    zero covariance), noisy ranges and neighbor estimates."""
    x = rng.normal(size=(k, dim)) * 20.0
    a = rng.normal(size=(k, dim, dim))
    P = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(dim)
    P[0] = 0.0
    nb = rng.normal(size=(k, degree, dim)) * 20.0
    z = (np.linalg.norm(x[:, None, :] - nb, axis=-1)
         + rng.normal(size=(k, degree)) * 0.05)
    return x, P, z, nb


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", range(1, 13))
def test_stacked_update_equals_one_robot_updates(dim, degree):
    x, P, z, nb = robot_stack(np.random.default_rng(10 * degree + dim), 6,
                              degree, dim)
    est, cov = filter_update(x, P, 0.01, z, nb)
    assert est.shape == x.shape and cov.shape == P.shape
    for i in range(len(x)):
        one_est, one_cov = filter_update(x[i], P[i], 0.01, z[i], nb[i])
        assert np.array_equal(est[i], one_est)
        assert np.array_equal(cov[i], one_cov)
        # a batch of one is the same update again
        alone_est, alone_cov = filter_update(x[i:i + 1], P[i:i + 1], 0.01,
                                             z[i:i + 1], nb[i:i + 1])
        assert np.array_equal(alone_est[0], one_est)
        assert np.array_equal(alone_cov[0], one_cov)
    # the anchor row, with zero covariance, takes no correction
    assert np.array_equal(est[0], x[0])
    assert np.array_equal(cov[0], np.zeros((dim, dim)))


def test_stack_with_one_coincident_row_raises_a_named_error():
    x, P, z, nb = robot_stack(np.random.default_rng(2), 5, 4, 2)
    nb[3, 2] = x[3]
    with pytest.raises(CoincidentEstimatesError, match="range model singular"):
        filter_update(x, P, 0.01, z, nb)


def test_uncertain_neighbor_damps_correction():
    x = np.array([2.0, 0.0])
    nb = np.array([[0.0, 0.0]])
    z = np.array([3.0])
    sharp, _ = filter_update(x, np.eye(2), 0.01, z, nb,
                             neighbor_covariances=[np.zeros((2, 2))])
    vague, _ = filter_update(x, np.eye(2), 0.01, z, nb,
                             neighbor_covariances=[100.0 * np.eye(2)])
    move_sharp = np.linalg.norm(sharp - x)
    move_vague = np.linalg.norm(vague - x)
    assert move_vague < 0.2 * move_sharp


def test_process_floor_scales_with_innovation():
    x, P = np.array([2.0, 0.0]), np.eye(2)
    nb = np.array([[0.0, 0.0]])
    z = np.array([3.0])  # innovation +1
    _, bare = filter_update(x, P, 0.01, z, nb)
    _, floored = filter_update(x, P, 0.01, z, nb, process_floor=0.5)
    assert np.allclose(floored, bare + 0.5 * np.eye(2))
    exact = np.linalg.norm(x - nb, axis=1)
    _, settled = filter_update(x, P, 0.01, exact, nb, process_floor=0.5)
    _, bare_settled = filter_update(x, P, 0.01, exact, nb)
    assert np.allclose(settled, bare_settled)


def test_fix_anchors_pins_only_anchors():
    filters = make_filters([[5.0, -1.0], [3.0, 3.0]], 9.0, 0.01, anchors=(0,))
    filters.fix_anchors(np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert filters.estimates.tolist() == [[1.0, 2.0], [3.0, 3.0]]
    assert filters.covariances.tolist() == [np.zeros((2, 2)).tolist(),
                                            (9.0 * np.eye(2)).tolist()]


def test_covariance_inflation_term():
    # one ground-truth tick: every estimate dead-reckons with its robot, and
    # its covariance grows by dt^2 * |u|^2 * I, the squared step
    fw = random_disk_framework(np.random.default_rng(4), 12, side=60.0,
                               range_=40.0)
    world = make_world(fw, ControlParams(comm_range=40.0),
                       WorldConfig(use_estimates=False, initial_variance=2.0))
    x0 = fw.positions
    step_simulation(world)
    x1 = world.framework.positions
    assert np.array_equal(world.filters.estimates, x1)
    step = ((x1 - x0) ** 2).sum(axis=1)
    assert step.max() > 0
    assert np.allclose(world.filters.covariances,
                       (2.0 + step)[:, None, None] * np.eye(2))


def test_congruence_error_invariant_under_rigid_motion():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 2)) * 10.0
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    moved = x @ rot.T + np.array([100.0, -40.0])
    assert congruence_error(moved, x) < 1e-9
    assert congruence_error(1.1 * x, x) > 1.0


def test_make_filters_flags_anchors():
    filters = make_filters(np.zeros((4, 2)) + np.arange(4)[:, None],
                           initial_variance=2.0, range_variance=0.5,
                           anchors=(0, 2))
    assert filters.anchors.tolist() == [True, False, True, False]
    assert filters.covariances.shape == (4, 2, 2)
    assert np.allclose(filters.covariances[1], 2.0 * np.eye(2))
    assert filters.range_variance == 0.5


@pytest.mark.parametrize("bad", [4, -1])
def test_make_filters_rejects_anchor_ids_outside_the_network(bad):
    with pytest.raises(ValueError, match=f"anchor id {bad} is not a node id"):
        make_filters(np.zeros((4, 2)), 1.0, 0.01, anchors=(0, bad))


def test_make_filters_copies_the_estimates():
    x = np.zeros((3, 2))
    filters = make_filters(x, 1.0, 0.01)
    filters.estimates += 1.0
    assert not x.any()


def test_measure_ranges_one_value_per_edge():
    fw = random_disk_framework(np.random.default_rng(70), 10, side=1.0,
                               range_=0.6)
    # a true range is the length the framework measured for its edge
    g = fw.graph
    ranges = measure_ranges(fw)
    for i in range(fw.n):
        nbrs = g.neighbors(i).tolist()
        assert ranges[g.slots[i]:g.slots[i + 1]].tolist() == [
            float(fw.lengths[g.edges.index((min(i, j), max(i, j)))])
            for j in nbrs]
    # noise is one draw per edge in edge order, shared by both endpoints
    noisy = measure_ranges(fw, np.random.default_rng(5), 0.1)
    draws = np.random.default_rng(5).normal(0.0, 0.1, size=g.m)
    for k, (a, b) in enumerate(g.edges):
        true = float(fw.lengths[k])
        at_a = noisy[g.slots[a]:g.slots[a + 1]][g.neighbors(a).tolist().index(b)]
        at_b = noisy[g.slots[b]:g.slots[b + 1]][g.neighbors(b).tolist().index(a)]
        assert at_a == at_b == true + float(draws[k])


def test_noisy_measure_ranges_advances_rng_like_one_draw_per_edge():
    fw = random_disk_framework(np.random.default_rng(71), 12, side=1.0,
                               range_=0.6)
    rng, scalar = np.random.default_rng(6), np.random.default_rng(6)
    measure_ranges(fw, rng, 0.1)
    for _ in range(fw.graph.m):
        scalar.normal(0.0, 0.1)
    assert rng.bit_generator.state == scalar.bit_generator.state
    assert rng.random() == scalar.random()


def _triangle_framework():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    x = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
    return Framework(g, x)


def test_two_anchors_one_free_converges_tightly():
    fw = _triangle_framework()
    x = fw.positions
    init = x + np.array([[0.0, 0.0], [0.0, 0.0], [0.3, -0.4]])
    filters = make_filters(init, 1.0, 1e-6, anchors=(0, 1))
    est = run_static_filter(fw, filters, 80, anchor_positions=x)
    assert np.linalg.norm(est - x, axis=1).max() < 1e-6


def test_static_run_records_history():
    fw = _triangle_framework()
    filters = make_filters(fw.positions + 0.1, 1.0, 1e-4)
    hist = run_static_filter(fw, filters, 5, record=True)
    assert hist.shape == (6, 3, 2)
    assert np.allclose(hist[0], fw.positions + 0.1)


def test_uniform_offset_is_a_fixed_point_without_anchors():
    # a common translation changes no range, so nothing ever moves
    fw = _triangle_framework()
    shift = np.array([5.0, -3.0])
    filters = make_filters(fw.positions + shift, 4.0, 1e-6)
    est = run_static_filter(fw, filters, 10)
    assert np.allclose(est, fw.positions + shift)
    assert congruence_error(est, fw.positions) < 1e-12


def test_anchored_network_reaches_truth():
    # iteration budget fixed by a calibration sweep over this scenario family
    rng = np.random.default_rng(21)
    fw = random_disk_framework(rng, 20, side=100.0, range_=50.0)
    assert is_infinitesimally_rigid(fw)
    x = fw.positions
    pert = 0.1 * 50.0 / np.sqrt(2)
    init = x + rng.uniform(-pert, pert, size=x.shape)
    assert np.linalg.norm(init - x, axis=1).max() <= 0.1 * 50.0
    filters = make_filters(init, (0.1 * 50.0) ** 2, 1e-6, anchors=(0, 1))
    est = run_static_filter(fw, filters, 400, anchor_positions=x)
    assert np.linalg.norm(est - x, axis=1).max() < 1e-3


def test_noisy_run_is_seed_deterministic():
    fw = _triangle_framework()
    outs = []
    for _ in range(2):
        filters = make_filters(fw.positions + 0.2, 1.0, 0.01)
        est = run_static_filter(
            fw, filters, 30,
            measurement_rng=np.random.default_rng(9), measurement_std=0.1,
        )
        outs.append(est)
    assert np.array_equal(outs[0], outs[1])
    assert np.isfinite(outs[0]).all()
