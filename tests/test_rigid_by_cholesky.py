"""The Cholesky certificate of rigidity, rigidity.rigid_by_cholesky, against
the eigenvalue test: every ball that the extent search puts to it in seeded
draws, and hand-built balls at and near the threshold.  A certified ball
must be rigid by rigidity_spectrum; an undecided one goes to eigvalsh."""

import numpy as np
import pytest

from rigidnet import subframeworks
from rigidnet.experiments import ScenarioConfig, sample_framework
from rigidnet.graphs import Graph
from rigidnet.rigidity import (
    REL_TOL, Framework, framework_gram, rigid_by_cholesky, rigidity_spectrum
)
from rigidnet.subframeworks import extent_assignment

# (d, n, communication range): the ensemble's three 2-D ranges and 3-D
DRAWS = [(2, 100, 25.0), (2, 100, 20.0), (2, 100, 17.5), (3, 40, 45.0)]


def gram(positions, edges):
    x = np.asarray(positions, dtype=float)
    return framework_gram(Framework(Graph(len(x), edges), x))


def complete(positions):
    k = len(positions)
    return gram(positions, [(i, j) for i in range(k) for j in range(i + 1, k)])


def certified(S, d):
    return bool(rigid_by_cholesky([S], d)[0])


def eigen_ratio(S, d):
    """rho / lam_max by eigvalsh, and the eigenvalue test's verdict."""
    verdict = rigidity_spectrum(S, d, vectors=False)
    return verdict.rho / verdict.lam_max, verdict.rigid


@pytest.mark.parametrize("d, n, comm_range", DRAWS)
def test_every_certified_search_ball_is_rigid_by_eigvalsh(monkeypatch, d, n,
                                                          comm_range):
    seen = []

    def recorded(grams, d):
        proven = rigid_by_cholesky(grams, d)
        seen.extend(zip(grams, proven))
        return proven

    def undecided(grams, d):
        return np.zeros(len(grams), dtype=bool)

    config = ScenarioConfig(seed=0, n=n, width=100.0, height=100.0,
                            comm_range=comm_range, dim=d)
    rng = np.random.default_rng(int(10 * comm_range) + d)
    for _ in range(3):
        fw, _ = sample_framework(rng, config)
        monkeypatch.setattr(subframeworks, "rigid_by_cholesky", recorded)
        extents = extent_assignment(fw)
        # with every ball left undecided, the search solves them all
        monkeypatch.setattr(subframeworks, "rigid_by_cholesky", undecided)
        assert np.array_equal(extent_assignment(fw), extents)
    rigid = [rigidity_spectrum(S, d, vectors=False).rigid for S, _ in seen]
    proven = [bool(p) for _, p in seen]
    assert [r for r, p in zip(rigid, proven) if p] == [True] * sum(proven)
    # the certificate decides nearly every rigid ball, so few are solved
    assert sum(proven) >= 0.9 * sum(rigid) > 0


def test_rigid_balls_are_certified():
    assert certified(complete([[0.0, 0.0], [1.0, 0.1], [0.3, 0.9]]), 2)
    assert certified(complete([[0.0, 0.0], [2.0, 0.3], [1.7, 1.9],
                               [0.2, 1.4]]), 2)
    assert certified(complete([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0],
                               [0.2, 1.0, 0.1], [0.1, 0.3, 1.0]]), 3)


def test_only_the_staggered_pin_certifies_a_3d_ball():
    # pinning the last two nodes whole leaves the rotation about the line
    # through them: that leading block is singular at every realization
    S = complete([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [0.2, 1.0, 0.1],
                  [0.1, 0.3, 1.0], [0.9, 0.8, 0.7]])
    assert certified(S, 3)
    side = len(S) - 6
    U = 2.0 * S.diagonal().reshape(-1, 3).sum(axis=1).max()
    B = S[:side, :side] - REL_TOL * U * np.eye(side)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(B)


def test_a_pin_that_leaves_a_rotation_free_defers_a_rigid_ball():
    # the last two nodes on one vertical line: turning about the last one
    # moves the one before it only along x, which the 2-D pin leaves free
    S = complete([[0.0, 0.0], [2.0, 0.3], [1.5, 1.0], [1.5, 2.5]])
    assert eigen_ratio(S, 2)[1]
    assert not certified(S, 2)


def test_flexible_balls_are_never_certified():
    # two rigid quadrilaterals turning about the node they share, which
    # the counting rule does not flag: every node has 3 induced edges
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = k4 + [(i + 3, j + 3) for i, j in k4]
    S = gram([[0.2, 1.1], [1.0, 0.0], [1.3, 1.6], [2.0, 1.0], [2.9, 0.1],
              [3.1, 1.7], [4.0, 0.9]], edges)
    assert not eigen_ratio(S, 2)[1]
    assert not certified(S, 2)
    # collinear, coplanar and flexible 3-D balls
    assert not certified(complete([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]]), 2)
    assert not certified(complete([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                   [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]), 3)
    square = gram([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                  [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not certified(square, 2)


def weak_ball(ratio):
    """A 2-D ball of 5 nodes whose rho / lam_max by eigvalsh is about
    ratio: a rigid quadrilateral, and node 0 joined to two of its corners
    from almost on the line between them, a distance t off it, so that
    rho grows as t^2."""
    core = np.array([[0.0, 0.0], [3.1, 0.4], [2.7, 2.9], [0.3, 2.2]])
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (0, 1), (0, 3)]
    a, c = core[0], core[2]
    u = (c - a) / np.linalg.norm(c - a)

    def at(t):
        return gram([(a + c) / 2 + t * np.array([-u[1], u[0]]), *core], edges)

    t = 1e-3 * np.sqrt(ratio / eigen_ratio(at(1e-3), 2)[0])
    return at(t)


@pytest.mark.parametrize("ratio", [1.5e-9, 5e-9])
def test_a_weak_flexible_ball_is_never_certified(ratio):
    # rho below REL_TOL lam_max: flexible by eigvalsh, though a block of
    # S has its smallest eigenvalue near rho, far above roundoff; a
    # bound on lam_max taken too low would certify it
    S = weak_ball(ratio)
    got, rigid = eigen_ratio(S, 2)
    assert 0.1 * REL_TOL < got < REL_TOL and not rigid
    assert not certified(S, 2)


@pytest.mark.parametrize("ratio", [1.5e-8, 5e-8])
def test_a_weak_rigid_ball_is_deferred_or_agrees(ratio):
    # rigid by eigvalsh, but a certified S has rho > REL_TOL U, U >= lam_max
    # the certificate's bound: a ball at or below it must be deferred
    S = weak_ball(ratio)
    verdict = rigidity_spectrum(S, 2, vectors=False)
    assert REL_TOL < verdict.rho / verdict.lam_max < 10 * REL_TOL
    assert verdict.rigid
    U = 2.0 * S.diagonal().reshape(-1, 2).sum(axis=1).max()
    if verdict.rho <= REL_TOL * U:
        assert not certified(S, 2)


def test_too_small_and_non_finite_balls_prove_nothing():
    one_edge = gram([[0.0, 0.0], [1.0, 0.0]], [(0, 1)])
    triangle = complete([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert not rigid_by_cholesky([one_edge], 2).any()
    assert not rigid_by_cholesky([triangle], 3).any()
    S = complete([[0.0, 0.0], [2.0, 0.3], [1.7, 1.9], [0.2, 1.4]])
    assert certified(S, 2)
    for bad in (np.nan, np.inf):
        for i, j in [(0, 0), (1, 0), (4, 2), (4, 4)]:
            T = S.copy()
            T[i, j] = T[j, i] = bad
            assert not certified(T, 2), (bad, i, j)
    assert rigid_by_cholesky([], 2).shape == (0,)
