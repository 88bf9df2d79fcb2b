"""The thread boundary on random small worlds, and the kernel's self-check."""

import dataclasses
import functools
import threading

import numpy as np
import pytest
from support import bits

from rigidnet import _cores, rigidity
from rigidnet.control import build_control_state, guarded_refresh
from rigidnet.experiments import ScenarioConfig, generate_scenario
from rigidnet.rigidity import Framework
from rigidnet.subframeworks import ball_set, extent_assignment


def kernel_or_skip():
    """The GIL-free kernel, or a skip where the process has none."""
    kernel = _cores._gil_free_eigvalsh()
    if kernel is None:
        pytest.skip("numpy's OpenBLAS is not loaded, so there is no "
                    "GIL-free eigvalsh")
    return kernel


def state_bits(state):
    """The bits of a state's verdicts and framework Spectrum, or None for
    no state."""
    if state is None:
        return None
    framework = state.framework_spectrum
    return (bits(state.verdicts),
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
    solve = rigidity._solve

    def recorded(S, d, vectors, eigvalsh):
        solved.append(np.array(S))
        solvers.add(threading.get_ident())
        return solve(S, d, vectors, eigvalsh)

    monkeypatch.setattr(rigidity, "_solve", recorded)
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
    solve = rigidity._solve

    def recorded(S, d, vectors, eigvalsh):
        solvers.append((threading.get_ident(), eigvalsh))
        return solve(S, d, vectors, eigvalsh)

    # a fresh probe, whose first use runs the self-check on the bad kernel
    monkeypatch.setattr(_cores, "_eigvalsh_by", one_bit_off)
    monkeypatch.setattr(_cores, "_gil_free_eigvalsh", functools.cache(
        _cores._gil_free_eigvalsh.__wrapped__))
    monkeypatch.setattr(_cores, "_eigh_worker", no_worker)
    monkeypatch.setattr(_cores, "usable_cores", lambda: 2)
    monkeypatch.setattr(rigidity, "_solve", recorded)
    got = state_bits(build_control_state(believed, params, extents, False))
    assert _cores._gil_free_eigvalsh() is None
    assert solvers and set(solvers) == {(threading.get_ident(),
                                         np.linalg.eigvalsh)}
    assert got == want


def reference_spectrum(vals, vecs, d, signed=True):
    """The verdict on one S's eigenvalues (and eigenvectors, or None) by
    scalar formulas, one S at a time: the reference for the verdict pass.
    nu is signed, its largest entry positive, unless signed is false."""
    f = rigidity.rigid_body_dim(d)
    nu = None
    if vecs is not None:
        nu = vecs[:, f]
        if signed and nu[np.argmax(np.abs(nu))] < 0:
            nu = -nu
    rho, lam_max = float(vals[f]), float(vals[-1])
    tol_abs = rigidity.REL_TOL * max(lam_max, 0.0)
    gap = float(vals[f + 1] - vals[f]) if len(vals) > f + 1 else np.inf
    degenerate = gap <= rigidity.DEGENERATE_GAP_REL * max(lam_max, 1e-300)
    return rigidity.Spectrum(vals, rho, nu, lam_max, gap, tol_abs,
                             rho > tol_abs, bool(degenerate))


def reference_record(spectra):
    """The rigidity.Verdicts record of reference spectra, one per S: TOO_SMALL
    reads no eigenvalues, NaN and neither rigid nor degenerate."""
    rows = [(None, np.nan, None, np.nan, np.nan, np.nan, False, False)
            if s is rigidity.TOO_SMALL
            else [getattr(s, f.name) for f in dataclasses.fields(s)]
            for s in spectra]
    columns = list(zip(*rows))
    return rigidity.Verdicts(columns[0], np.array(columns[1]), columns[2],
                             *map(np.array, columns[3:]))


def symmetric(rng, side, eigenvalues=None):
    """A random symmetric S of this side: positive semidefinite, or with
    these eigenvalues up to roundoff."""
    a = rng.standard_normal((side, side))
    if eigenvalues is None:
        S = a @ a.T
    else:
        q = np.linalg.qr(a)[0]
        S = (q * eigenvalues) @ q.T
    return 0.5 * (S + S.T)


def ball_grams(dim):
    """The weighted S of every ball of the first small world in dim."""
    fw, params = next((fw, params) for fw, params, _, _ in small_worlds()
                      if fw.dim == dim)
    state = build_control_state(fw, params)
    return state.ball_set.stack.grams(fw.units, state.weights)


def verdict_cases():
    """Batches for the verdict pass, by name: (d, grams, vectors, short),
    where short holds the S whose solve keeps only f + 1 eigenvalues."""
    rng = np.random.default_rng(42)
    nan = symmetric(rng, 8)
    nan[3, 5] = nan[5, 3] = np.nan
    near = [0.0, 0.0, 0.0, 1.0, 1.0 + 1e-9, 2.0, 3.0, 4.0]
    # rho's eigenvector is (e_3 - e_4) / sqrt(2) up to sign: two entries
    # of one magnitude, so the first of them decides the sign
    tied = np.diag([0.0, 0.0, 0.0, 2.0, 2.0, 5.0, 6.0, 7.0])
    tied[3, 4] = tied[4, 3] = 1.0
    balls = {dim: ball_grams(dim) for dim in (2, 3)}
    return {
        # sides 2 and 4 hold one and two nodes, 0 none
        "too_small_mixed_in": (2, [symmetric(rng, 8), symmetric(rng, 4),
                                   symmetric(rng, 6), np.zeros((2, 2)),
                                   np.zeros((0, 0)), symmetric(rng, 10)],
                               [True, False, True, True, False, False], ()),
        "exactly_f_plus_one_eigenvalues": (
            2, [symmetric(rng, 8), symmetric(rng, 8), symmetric(rng, 6)],
            [True, False, False], (0, 1)),
        "all_zero": (2, [np.zeros((8, 8)), np.zeros((8, 8)),
                         symmetric(rng, 10)], [True, False, True], ()),
        "nan": (2, [symmetric(rng, 8), nan, symmetric(rng, 10)],
                [False, False, True], ()),
        "near_multiple_rho": (2, [symmetric(rng, 8, near),
                                  symmetric(rng, 8, near), symmetric(rng, 8)],
                              [True, False, True], ()),
        "tied_largest_entries": (2, [tied, symmetric(rng, 8)], [True, True],
                                 ()),
        **{f"vectors_and_eigenvalues_only_{dim}d": (
            dim, grams, [j % 3 != 0 for j in range(len(grams))], ())
           for dim, grams in balls.items()},
    }


VERDICT_CASES = verdict_cases()


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("case", list(VERDICT_CASES))
def test_the_verdict_pass_equals_a_per_s_reference(monkeypatch, case, cores):
    d, grams, vectors, short = VERDICT_CASES[case]
    if cores == 2:
        kernel_or_skip()
    f = rigidity.rigid_body_dim(d)
    short = {id(grams[j]) for j in short}
    solve, solvers = rigidity._solve, set()

    def recorded(S, d, vectors, eigvalsh):
        solvers.add(threading.get_ident())
        solved = solve(S, d, vectors, eigvalsh)
        if id(S) in short:
            return solved[0][:f + 1], solved[1]
        return solved

    want, raw = [], []
    try:
        with _cores.one_blas_thread():
            for S, v in zip(grams, vectors):
                if len(S) <= d * d:
                    want.append(rigidity.TOO_SMALL)
                    raw.append(rigidity.TOO_SMALL)
                    continue
                vals, vecs = (np.linalg.eigh(S) if v
                              else (np.linalg.eigvalsh(S), None))
                if id(S) in short:
                    vals = vals[:f + 1]
                want.append(reference_spectrum(vals, vecs, d))
                raw.append(reference_spectrum(vals, vecs, d, signed=False))
    except np.linalg.LinAlgError:
        want = None
    monkeypatch.setattr(rigidity, "_solve", recorded)
    monkeypatch.setattr(_cores, "usable_cores", lambda: cores)
    if want is None:
        with pytest.raises(np.linalg.LinAlgError):
            rigidity._spectra(grams, d, vectors)
        return
    got = rigidity._spectra(grams, d, vectors)
    assert len(solvers) == cores
    # the record holds every verdict, and each eigenvector as LAPACK
    # returned it
    assert bits(got) == bits(reference_record(raw))
    # a Spectrum, a row of the record or a batch of one, signs it
    rows = [rigidity._spectrum(got, j) for j in range(len(grams))]
    assert ([s is rigidity.TOO_SMALL for s in rows]
            == [s is rigidity.TOO_SMALL for s in want])
    assert [bits(s) for s in rows] == [bits(s) for s in want]
    assert [bits(rigidity.rigidity_spectrum(S, d, v))
            for S, v in zip(grams, vectors)] == [bits(s) for s in want]
    # each case holds what it is named for
    solved = [s for s in want if s is not rigidity.TOO_SMALL]
    if case == "exactly_f_plus_one_eigenvalues":
        assert [s.gap for s in solved[:2]] == [np.inf] * 2
    if case == "all_zero":
        assert [(s.rho, s.rigid) for s in solved[:2]] == [(0.0, False)] * 2
    if case == "near_multiple_rho":
        assert [s.degenerate for s in solved] == [True, True, False]
    if case == "tied_largest_entries":
        nu = solved[0].nu
        assert abs(nu).max() == nu.max() == -nu.min()
