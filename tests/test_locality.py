"""Decentralization you can run: robot i's command depends on the positions
of robots within 2 * eta hops of it and on nothing else.

A center's payloads read its ball's members alone, at most eta hops from
it, and robot i receives payloads only from centers whose balls hold it,
so no robot more than 2 * eta hops from i can reach u[i].  On elongated
strips, where eta >= 2 and the diameter is several times 2 * eta, every
robot beyond that radius of a sampled robot i moves by a small seeded step,
and tick_velocity must give u[i] with every bit kept.  A network-wide
quantity in a payload (a shared max, a normalization by the framework's
lam_max, a weight read at the wrong edge) would change it."""

import dataclasses

import numpy as np
import pytest

from rigidnet.experiments import reference_control_config, sample_framework
from rigidnet.graphs import geodesics
from rigidnet.simnet import (
    WorldConfig, make_world, step_simulation, tick_velocity
)

# (width, height, n, seed) of strips at the reference density of links
# (40 m range) whose frozen extents reach eta = 2 or 3
STRIPS = [(600.0, 60.0, 120, 3), (600.0, 60.0, 120, 2), (500.0, 60.0, 100, 1)]
TICKS = 3
ROBOTS = 6
STEP = 0.01  # metres, per coordinate, of every far robot's move


def strip_world(width, height, n, seed):
    config = dataclasses.replace(reference_control_config(), seed=seed, n=n,
                                 width=width, height=height)
    fw, _ = sample_framework(np.random.default_rng(seed), config)
    world = make_world(fw, config.control, WorldConfig(use_estimates=False))
    for _ in range(TICKS):
        step_simulation(world)
    return world


@pytest.mark.parametrize("width, height, n, seed", STRIPS)
def test_a_command_ignores_robots_beyond_two_eta_hops(width, height, n, seed):
    world = strip_world(width, height, n, seed)
    eta = int(world.extents.max())
    assert eta >= 2
    dist = geodesics(world.framework.graph).dist
    x = world.framework.positions.copy()
    # a copy of the positions builds the state, as every moved copy does
    u, _ = tick_velocity(world, x)
    rng = np.random.default_rng(seed)
    candidates = np.flatnonzero((dist > 2 * eta).any(axis=1))
    assert len(candidates) >= ROBOTS
    for i in rng.choice(candidates, size=ROBOTS, replace=False):
        far = dist[i] > 2 * eta
        moved = x.copy()
        moved[far] += rng.uniform(-STEP, STEP, size=moved[far].shape)
        got, _ = tick_velocity(world, moved)
        assert got[i].tobytes() == u[i].tobytes(), (i, eta)
        # the far robots' own commands do change, so the move is seen
        assert not np.array_equal(got[far], u[far])
