"""The thread boundary on random small worlds, and the kernel's self-check."""

import functools
import threading

import numpy as np
import pytest
from support import bits

from rigidnet import _cores, rigidity
from rigidnet.control import build_control_state, guarded_refresh
from rigidnet.experiments import ScenarioConfig, generate_scenario
from rigidnet.rigidity import Framework
from rigidnet.subframeworks import extent_assignment


def kernel_or_skip():
    """The GIL-free kernel, or a skip where the process has none."""
    kernel = _cores._gil_free_eigvalsh()
    if kernel is None:
        pytest.skip("numpy's OpenBLAS is not loaded, so there is no "
                    "GIL-free eigvalsh")
    return kernel


def state_bits(state):
    """The bits of every Spectrum of a state, or None for no state."""
    if state is None:
        return None
    framework = state.framework_spectrum
    return ([bits(s) for s in state.spectra],
            None if framework is None else bits(framework))


def small_worlds(count=20):
    """count worlds from one fixed generator: the dimension, 8 to 30
    robots, the region and range, and ground truth (solved with vectors)
    or estimates up to a metre off (eigenvalues only, as the guard solves
    them there).  Each is (framework, params, positions, vectors)."""
    rng = np.random.default_rng(2021)
    worlds = []
    for _ in range(count):
        dim = int(rng.choice([2, 3]))
        side = float(rng.uniform(60.0, 120.0))
        config = ScenarioConfig(
            seed=int(rng.integers(2**31)), n=int(rng.integers(8, 31)),
            dim=dim, width=side, height=side,
            comm_range=side * float(rng.uniform(0.3, 0.55) if dim == 2
                                    else rng.uniform(0.55, 0.8)))
        fw = generate_scenario(config)
        vectors = bool(rng.random() < 0.5)
        positions = fw.positions
        if not vectors:
            positions = positions + rng.uniform(-1.0, 1.0, positions.shape)
        worlds.append((fw, config.control, positions, vectors))
    return worlds


def builds(fw, params, positions, vectors):
    """A state build at the believed positions with the framework's
    extents, and a guard trial there, which batches the framework's S."""
    extents = extent_assignment(fw)
    believed = Framework(fw.graph, positions)
    graph, trial = guarded_refresh(fw.graph, positions, params, extents,
                                   vectors)
    return (state_bits(build_control_state(believed, params, extents,
                                           vectors)),
            None if graph is None else graph.edges, state_bits(trial))


def test_two_core_builds_equal_one_core_builds_on_small_worlds(monkeypatch):
    kernel = kernel_or_skip()
    solved, solvers = [], set()
    spectrum = rigidity._spectrum

    def recorded(S, d, vectors, eigvalsh):
        solved.append(np.array(S))
        solvers.add(threading.get_ident())
        return spectrum(S, d, vectors, eigvalsh)

    monkeypatch.setattr(rigidity, "_spectrum", recorded)
    for world in small_worlds():
        monkeypatch.setattr(_cores, "usable_cores", lambda: 1)
        one = builds(*world)
        monkeypatch.setattr(_cores, "usable_cores", lambda: 2)
        two = builds(*world)
        assert two == one
    # the worker thread took part, and every S either build solved has
    # the kernel's eigenvalues equal numpy's bit for bit
    assert len(solvers) == 2
    with _cores.one_blas_thread():
        for S in solved:
            assert (kernel(S).tobytes()
                    == np.linalg.eigvalsh(S).tobytes()), len(S)


def test_the_self_check_refuses_a_kernel_one_bit_off(monkeypatch):
    kernel_or_skip()
    fw, params, positions, _ = small_worlds(1)[0]
    believed = Framework(fw.graph, positions)
    extents = extent_assignment(fw)
    monkeypatch.setattr(_cores, "usable_cores", lambda: 1)
    want = state_bits(build_control_state(believed, params, extents, False))
    eigvalsh_by = _cores._eigvalsh_by

    def one_bit_off(dsyevd):
        kernel = eigvalsh_by(dsyevd)

        def eigvalsh(S):
            w = kernel(S)
            w[-1:].view(np.int64)[0] ^= 1
            return w
        return eigvalsh

    def no_worker():
        raise AssertionError("a refused kernel started a worker thread")

    solvers = []
    spectrum = rigidity._spectrum

    def recorded(S, d, vectors, eigvalsh):
        solvers.append((threading.get_ident(), eigvalsh))
        return spectrum(S, d, vectors, eigvalsh)

    # a fresh probe, whose first use runs the self-check on the bad kernel
    monkeypatch.setattr(_cores, "_eigvalsh_by", one_bit_off)
    monkeypatch.setattr(_cores, "_gil_free_eigvalsh", functools.cache(
        _cores._gil_free_eigvalsh.__wrapped__))
    monkeypatch.setattr(_cores, "_eigh_worker", no_worker)
    monkeypatch.setattr(_cores, "usable_cores", lambda: 2)
    monkeypatch.setattr(rigidity, "_spectrum", recorded)
    got = state_bits(build_control_state(believed, params, extents, False))
    assert _cores._gil_free_eigvalsh() is None
    assert solvers and set(solvers) == {(threading.get_ident(),
                                         np.linalg.eigvalsh)}
    assert got == want
