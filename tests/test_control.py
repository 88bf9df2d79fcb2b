"""Controller math: weights, potentials, analytic gradients, stepping, refresh."""

import dataclasses
import json
import multiprocessing
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from support import (
    FakeBlas,
    bits,
    central_difference,
    floyd_warshall,
    hop_ball,
    random_disk_framework,
    reject_every_step,
    state_at,
)

from rigidnet import _cores, control, rigidity, simnet
from rigidnet.control import (
    ControlParams,
    EigenvectorsNotSolvedError,
    RigidityLostError,
    ball_load_slopes,
    ball_rigidity_slopes,
    build_control_state,
    collision_gradient_all,
    collision_potential,
    guarded_refresh,
    load_gradient_all,
    load_potential,
    refresh_topology,
    rigidity_gradient_all,
    rigidity_potential,
    total_potential,
    velocity_field,
)
from rigidnet.experiments import generate_scenario, reference_control_config
from rigidnet.graphs import (
    GeodesicTable, Graph, disk_proximity_graph, geodesics
)
from rigidnet.rigidity import (
    Framework, framework_gram, rigidity_report, rigidity_spectrum
)
from rigidnet.simnet import WorldConfig, make_world, step_simulation
from rigidnet.subframeworks import ball_set, extent_assignment


def apex_framework():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 4), (3, 4)])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.7, 0.8]])
    return Framework(g, x)


def default_params(**kw):
    kw.setdefault("comm_range", 3.0)
    return ControlParams(**kw)


def fd_state(rng, n=8, dim=2, **exponents):
    """Random rigid disk framework plus its control state, skipping tight gaps.

    In space the balls need more nodes and links to be rigid, so the
    network is larger and the range longer there.  exponents are passed
    on to ControlParams.
    """
    n, range_ = (n, 0.55) if dim == 2 else (n + 2, 0.8)
    fw = random_disk_framework(rng, n, side=1.0, range_=range_, dim=dim)
    params = ControlParams(comm_range=range_, steepness=4.0, **exponents)
    try:
        state = build_control_state(fw, params)
    except RigidityLostError:
        return None
    v = state.verdicts
    if (v.gap < 1e-4 * np.maximum(v.lam_max, 1e-12)).any():
        return None
    return state


class TestEdgeWeight:
    def test_half_at_range(self):
        assert control._logistic(2.0, 2.0, 0.5) == pytest.approx(0.5)

    def test_frozen_value(self):
        w = control._logistic(30.0, 40.0, 0.5)
        assert w == pytest.approx(1.0 / (1.0 + np.exp(-5.0)), rel=1e-12)

    def test_decreasing_in_distance(self):
        ws = control._logistic(np.linspace(0.1, 6.0, 40), 3.0, 0.8)
        assert (np.diff(ws) < 0).all()
        assert 0.0 < ws[-1] < ws[0] < 1.0


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ControlParams(comm_range=0.0)
        with pytest.raises(ValueError):
            ControlParams(comm_range=1.0, dt=-0.1)
        with pytest.raises(ValueError):
            ControlParams(comm_range=1.0, weight_prune=1.5)
        with pytest.raises(ValueError):
            ControlParams(comm_range=1.0, k_load=-1.0)
        with pytest.raises(ValueError):
            ControlParams(comm_range=1.0, max_step_retries=-1)

    @pytest.mark.parametrize("field, value", [
        ("comm_range", float("nan")),
        ("comm_range", float("inf")),
        ("dt", float("nan")),
        ("k_load", float("nan")),
        ("k_collision", float("inf")),
        ("weight_prune", float("nan")),
    ])
    def test_rejects_non_finite_values(self, field, value):
        # NaN passes every comparison the range checks make
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ControlParams(**{"comm_range": 1.0, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("comm_range", True, "field 'comm_range' must be of type float"),
        ("dt", "0.1", "field 'dt' must be of type float"),
        ("max_step_retries", 2.0, "field 'max_step_retries' must be of type int"),
        ("max_step_retries", False, "field 'max_step_retries' must be of type int"),
        # an int too large for float64 is not a finite float
        pytest.param("k_load", 10**400, "k_load must be finite",
                     id="k_load-10**400"),
    ])
    def test_rejects_values_of_the_wrong_type(self, field, value, message):
        with pytest.raises(control.ConfigError, match=message):
            ControlParams(**{"comm_range": 1.0, field: value})

    def test_accepts_numpy_scalars_and_ints(self):
        p = ControlParams(comm_range=np.float64(40.0), dt=1,
                          max_step_retries=np.int64(3))
        assert p.dt == 1 and p.max_step_retries == 3


class TestOverflow:
    def test_rigidity_slope_overflow_is_named(self):
        # rho < 1 makes rho ** -(q + 1) a Python float power past float64
        state = build_control_state(apex_framework(),
                                    default_params(rigidity_exponent=1e300))
        assert min(state.rhos) < 1
        with pytest.raises(control.NonFiniteCommandError):
            state.rigidity_slopes()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_weight_argument_is_a_weight_of_one(self):
        state = build_control_state(
            apex_framework(), default_params(comm_range=1e300, steepness=1e300))
        assert (state.weights == 1.0).all()


class TestStateBuild:
    def test_fields_consistent(self):
        state = build_control_state(apex_framework(), default_params())
        assert state.extents.tolist() == [1, 2, 1, 2, 2]
        assert ((0 < state.weights) & (state.weights < 1)).all()
        assert np.isfinite(state.rhos).all() and (state.rhos > 0).all()
        assert len(state.verdicts.rho) == 5
        balls, g = state.ball_set, state.framework.graph
        assert len(balls.inside) == 5
        for j, row in enumerate(balls.inside):
            nodes = balls.stack.nodes[balls.stack.offsets[j]:balls.stack.offsets[j + 1]]
            assert np.flatnonzero(row).tolist() == hop_ball(g, j, state.extents[j])
            assert nodes.tolist() == hop_ball(g, j, state.extents[j])

    def test_flexible_balls_rejected(self):
        # the build measures a flexible ball and returns its state; only
        # the caller's require_rigid judges it
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        rng = np.random.default_rng(30)
        fw = Framework(g, rng.uniform(0, 1, size=(4, 2)))
        state = build_control_state(fw, default_params(), extents=[1, 1, 1, 1])
        assert not state.verdicts.rigid.all()
        with pytest.raises(RigidityLostError):
            state.require_rigid()

    def test_too_small_ball_is_named(self):
        # node 0 hangs off the triangle 1-2-3: its unit ball has two nodes,
        # too few for the eigenvalue test, while node 1's ball is flexible
        g = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.5, 1.0]])
        state = build_control_state(Framework(g, x), default_params(),
                                    extents=[1, 1, 1, 1])
        v = state.verdicts
        assert not v.rigid[0] and v.eigenvalues[0] is None
        assert rigidity._spectrum(v, 0) is rigidity.TOO_SMALL
        assert not v.rigid[1]
        assert np.isnan(state.rhos[0])
        with pytest.raises(RigidityLostError,
                           match=r"node 0 lost rigidity \(rho=None\)"):
            state.require_rigid()

    def test_eigenvalue_only_state_gives_verdicts_but_no_slopes(self):
        fw = apex_framework()
        full = build_control_state(fw, default_params())
        bare = build_control_state(fw, default_params(), vectors=False)
        assert full.vectors and not bare.vectors
        assert all(nu is None for nu in bare.verdicts.nu)
        grams = bare.ball_set.stack.grams(fw.units, bare.weights)
        solved = [rigidity_spectrum(S, fw.dim, vectors=False) for S in grams]
        assert list(zip(bare.rhos.tolist(), bare.verdicts.rigid.tolist(),
                        [e.tobytes() for e in bare.verdicts.eigenvalues])) == [
            (s.rho, s.rigid, s.eigenvalues.tobytes()) for s in solved]
        assert (bare.verdicts.rigid.tolist()
                == full.verdicts.rigid.tolist())
        assert np.allclose(bare.rhos, full.rhos, rtol=1e-12)
        with pytest.raises(EigenvectorsNotSolvedError, match="eigenvalues only"):
            bare.rigidity_slopes()
        with pytest.raises(EigenvectorsNotSolvedError, match="eigenvalues only"):
            rigidity_gradient_all(bare)

    def test_a_build_makes_no_spectrum_per_ball(self, monkeypatch):
        # the balls' verdicts are one record, each eigenvector unsigned; a
        # build with its framework's S makes that S's Spectrum and no other
        made, signed = [], []
        spectrum, sign = rigidity.Spectrum, rigidity._signed
        monkeypatch.setattr(rigidity, "Spectrum",
                            lambda *a: made.append(a) or spectrum(*a))
        monkeypatch.setattr(rigidity, "_signed",
                            lambda nu: signed.append(nu) or sign(nu))
        fw = apex_framework()
        state = build_control_state(fw, default_params())
        assert made == [] and signed == []
        control._state_with_framework(fw, default_params(), state.extents,
                                      True)
        assert len(made) == 1 and signed == [None]

    def test_degenerate_balls_flagged(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        state = build_control_state(Framework(g, x), default_params())
        assert state.verdicts.degenerate.all()
        assert np.isfinite(rigidity_gradient_all(state)).all()


# the benchmark's steady_loop fixture: the reference run at tick 1200
STEADY_FIXTURE = (Path(__file__).resolve().parents[1] / "bench" / "data"
                  / "steady_fixture.json")


def steady_framework():
    """The reference run's framework at its saved tick, and its frozen
    extents."""
    fixture = json.loads(STEADY_FIXTURE.read_text())
    graph = Graph(len(fixture["positions"]),
                  [tuple(e) for e in fixture["edges"]])
    return Framework(graph, fixture["positions"]), fixture["extents"]


def steady_state(vectors=True):
    """The reference run's state at its saved tick, with its frozen extents."""
    fw, extents = steady_framework()
    return build_control_state(fw, reference_control_config().control,
                               extents, vectors)


def estimated_state(vectors=True):
    """The state that a 120-robot run steering on estimates replays at
    t=0: the believed positions, solved with vectors, or the guard's
    state there without them."""
    side = 150.0 * np.sqrt(2.0)
    config = dataclasses.replace(
        reference_control_config(), n=120, width=side, height=side,
        noise_std=0.05, anchors=(0, 1), use_estimates=True,
        initial_estimate_error=0.5)
    fw = generate_scenario(config)
    world = make_world(fw, config.control, config)
    believed = Framework(fw.graph, world.filters.estimates)
    return build_control_state(believed, config.control, world.extents,
                               vectors)


def spectrum_bits(state):
    """The bits of every field of the balls' verdicts."""
    return bits(state.verdicts)


def one_core(pid):
    return {0}


def two_cores(pid):
    return {0, 1}


def gil_free_eigvalsh():
    """The GIL-free kernel, or a skip where the process has none."""
    kernel = _cores._gil_free_eigvalsh()
    if kernel is None:
        pytest.skip("numpy's OpenBLAS is not loaded, so eigenvalue-only "
                    "solves have no GIL-free kernel")
    return kernel


class TestTwoCoreSolve:
    """With two usable cores and the GIL-free eigenvalue-only kernel, the
    solves (eigh and the kernel) run on the caller and one worker thread;
    the spectra are those of a one-core build."""

    @pytest.mark.parametrize("build, vectors", [
        pytest.param(build, vectors, id=build.__name__ + (
            "" if vectors else "-eigenvalues_only"))
        for vectors in (True, False)
        for build in (steady_state, estimated_state)])
    def test_threaded_build_equals_sequential_bit_for_bit(self, monkeypatch,
                                                          build, vectors):
        solvers = set()
        solve = rigidity._solve
        kernel = gil_free_eigvalsh()

        def recorded(S, d, vectors, eigvalsh):
            solvers.add(threading.get_ident())
            return solve(S, d, vectors, eigvalsh)

        def recorded_kernel(S):
            solvers.add(threading.get_ident())
            return kernel(S)

        monkeypatch.setattr(rigidity, "_solve", recorded)
        monkeypatch.setattr(_cores, "_gil_free_eigvalsh",
                            lambda: recorded_kernel)
        monkeypatch.setattr(os, "sched_getaffinity", two_cores)
        # hand the interpreter lock between the threads as often as it goes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = build(vectors)
        finally:
            sys.setswitchinterval(interval)
        assert len(solvers) == 2

        def no_worker():
            raise AssertionError("a one-core build asked for a worker thread")

        solvers.clear()
        monkeypatch.setattr(_cores, "_eigh_worker", no_worker)
        monkeypatch.setattr(os, "sched_getaffinity", one_core)
        sequential = build(vectors)
        assert solvers == {threading.get_ident()}
        assert spectrum_bits(threaded) == spectrum_bits(sequential)
        assert threaded.rhos.tobytes() == sequential.rhos.tobytes()
        assert any(nu is not None for nu in threaded.verdicts.nu) == vectors

    @pytest.mark.parametrize("vectors", [True, False])
    def test_without_the_kernel_no_eigenvalue_only_solve_reaches_the_worker(
            self, monkeypatch, vectors):
        fw, extents = steady_framework()
        params = reference_control_config().control
        monkeypatch.setattr(os, "sched_getaffinity", two_cores)
        expected = None
        if _cores._gil_free_eigvalsh() is not None:
            expected = guarded_refresh(fw.graph, fw.positions, params,
                                       extents, vectors)[1]
        # the probe finds no OpenBLAS, so there is no kernel
        monkeypatch.setattr(_cores, "_loaded_openblas", lambda: ())
        monkeypatch.setattr(_cores, "_gil_free_eigvalsh",
                            _cores._gil_free_eigvalsh.__wrapped__)
        solved, eigenvalue_only = [], []
        solve = rigidity._solve

        def recorded(S, d, vectors, eigvalsh):
            solved.append(threading.get_ident())
            if not vectors:
                eigenvalue_only.append(threading.get_ident())
            return solve(S, d, vectors, eigvalsh)

        def no_worker():
            raise AssertionError("a solve was dealt to a worker thread")

        monkeypatch.setattr(rigidity, "_solve", recorded)
        monkeypatch.setattr(_cores, "_eigh_worker", no_worker)
        # a guard trial: its balls are solved with or without vectors, and
        # its framework's S for eigenvalues only, all of them on the caller
        _, state = guarded_refresh(fw.graph, fw.positions, params, extents,
                                   vectors)
        assert set(solved) == {threading.get_ident()}
        assert len(solved) == 1 + fw.n
        assert set(eigenvalue_only) == {threading.get_ident()}
        assert len(eigenvalue_only) == 1 + (0 if vectors else fw.n)
        if expected is not None:
            # numpy's eigvalsh gives the kernel's bits
            assert spectrum_bits(state) == spectrum_bits(expected)
            assert (bits(state.framework_spectrum)
                    == bits(expected.framework_spectrum))

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("cores", [one_core, two_cores])
    def test_accepted_state_holds_the_framework_spectrum(self, monkeypatch,
                                                         cores, vectors):
        monkeypatch.setattr(os, "sched_getaffinity", cores)
        fw, extents = steady_framework()
        _, state = guarded_refresh(fw.graph, fw.positions,
                                   reference_control_config().control,
                                   extents, vectors)
        fw = state.framework
        fresh = rigidity_spectrum(framework_gram(fw), fw.dim, vectors=False)
        assert bits(state.framework_spectrum) == bits(fresh)
        # a build outside the guard solves no framework S
        assert build_control_state(fw, state.params, extents,
                                   vectors).framework_spectrum is None

    def test_balls_are_solved_on_one_blas_thread(self, monkeypatch):
        blas = FakeBlas(2)
        seen = []
        solve = rigidity._solve

        def recorded(S, d, vectors, eigvalsh):
            seen.append(blas.threads)
            return solve(S, d, vectors, eigvalsh)

        monkeypatch.setattr(_cores, "_openblas_thread_counts",
                            lambda: ((blas.get, blas.set),))
        monkeypatch.setattr(rigidity, "_solve", recorded)
        monkeypatch.setattr(os, "sched_getaffinity", two_cores)
        build_control_state(apex_framework(), default_params())
        assert seen == [1] * 5 and blas.threads == 2

    def test_the_free_thread_takes_the_next_solve(self, monkeypatch):
        # a batch shaped like estimated_loop's guard: the framework's S of
        # side 240 and 120 balls of sides 8 to 42, all eigenvalue-only.
        # Events, not the clock, decide who is free: the caller's first S
        # waits until the worker has solved HELD of the others, and the
        # worker's next one until the caller has solved HELD more, so each
        # thread must take the next S while the other is busy.  Shares fixed
        # in advance by side^3 (the worker gets only the framework's S) or
        # a caller that solves every S leave a wait to time out.  Under any
        # schedule the caller pops from the costly end of the queue and the
        # worker from the cheap end.
        HELD, TIMEOUT = 40, 30.0
        gil_free_eigvalsh()
        caller = threading.get_ident()
        grams = [np.zeros((240, 240))] + [np.zeros((8 + 2 * (k % 18),) * 2)
                                          for k in range(120)]
        index = {id(S): j for j, S in enumerate(grams)}
        taken = {"caller": [], "worker": []}
        worker_held, caller_held = threading.Event(), threading.Event()

        def held(S, d, vectors, eigvalsh):
            on_caller = threading.get_ident() == caller
            mine = taken["caller" if on_caller else "worker"]
            if on_caller and not mine:
                assert worker_held.wait(TIMEOUT), (
                    f"the worker solved {len(taken['worker'])} S while the "
                    "caller was busy")
            if not on_caller and len(mine) == HELD:
                worker_held.set()
                assert caller_held.wait(TIMEOUT), (
                    f"the caller solved {len(taken['caller'])} S while the "
                    "worker was busy")
            mine.append(index[id(S)])
            if on_caller and len(mine) == HELD + 1:
                caller_held.set()
            # no solve: the verdict pass reads every S as too small
            return None

        monkeypatch.setattr(rigidity, "_solve", held)
        monkeypatch.setattr(os, "sched_getaffinity", two_cores)
        verdicts = rigidity._spectra(grams, 2, [False] * len(grams))
        # every S solved once, none lost or taken twice
        v = verdicts
        assert v.eigenvalues == v.nu == (None,) * len(grams)
        assert np.isnan([v.rho, v.lam_max, v.gap, v.tol_abs]).all()
        assert not (v.rigid.any() or v.degenerate.any())
        mine, worker = taken["caller"], taken["worker"]
        assert sorted(mine + worker) == list(range(len(grams)))
        assert len(mine) > HELD and len(worker) > HELD
        # the caller from the costly end, the worker from the cheap end
        cost = [len(grams[j]) ** 3 for j in mine + worker[::-1]]
        assert cost == sorted(cost, reverse=True)

    @staticmethod
    def failing_build(monkeypatch, worker_fails):
        """Build the apex state, five S, where the first S on one thread
        fails once the other thread has started an S, and that S ends only
        once the failure is recorded; every wait is bounded at 30 s.
        Returns the events ("start", "fail" or "done", on the worker) in
        order, ending with ("raised", None) when the error surfaced."""
        TIMEOUT = 30.0
        gil_free_eigvalsh()
        events, started, failed = [], threading.Event(), threading.Event()
        solve = rigidity._solve

        def failing(S, d, vectors, eigvalsh):
            on_worker = threading.current_thread().name.startswith(
                "rigidnet-")
            if on_worker == worker_fails:
                assert started.wait(TIMEOUT), "the other thread started no S"
                events.append(("fail", on_worker))
                failed.set()
                raise np.linalg.LinAlgError("no convergence")
            events.append(("start", on_worker))
            started.set()
            assert failed.wait(TIMEOUT), "the other thread did not fail"
            events.append(("done", on_worker))
            return solve(S, d, vectors, eigvalsh)

        monkeypatch.setattr(rigidity, "_solve", failing)
        monkeypatch.setattr(os, "sched_getaffinity", two_cores)
        with pytest.raises(np.linalg.LinAlgError):
            build_control_state(apex_framework(), default_params())
        events.append(("raised", None))
        return events

    def test_a_failing_ball_waits_for_the_worker(self, monkeypatch):
        # the worker took an S, the caller's error surfaces only once that
        # S is done, and after the failure neither thread starts another
        assert self.failing_build(monkeypatch, worker_fails=False) == [
            ("start", True), ("fail", False), ("done", True),
            ("raised", None)]

    def test_a_failing_worker_stops_the_caller(self, monkeypatch):
        # the caller ends the S it is on and starts no other, and then the
        # worker's error surfaces
        assert self.failing_build(monkeypatch, worker_fails=True) == [
            ("start", False), ("fail", True), ("done", False),
            ("raised", None)]

    @pytest.mark.parametrize("vectors", [True, False])
    def test_a_batch_of_one_solve_asks_for_no_worker(self, monkeypatch,
                                                     vectors):
        gil_free_eigvalsh()

        def no_worker():
            raise AssertionError("a batch of one S asked for a worker thread")

        monkeypatch.setattr(_cores, "_eigh_worker", no_worker)
        monkeypatch.setattr(os, "sched_getaffinity", two_cores)
        S = framework_gram(apex_framework())
        assert len(rigidity._spectra([], 2, []).rho) == 0
        spectrum = rigidity._spectrum(rigidity._spectra([S], 2, [vectors]), 0)
        assert bits(spectrum) == bits(rigidity_spectrum(S, 2, vectors))

    def test_a_forked_child_starts_its_own_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", two_cores)
        expected = spectrum_bits(build_control_state(apex_framework(),
                                                     default_params()))
        child = multiprocessing.get_context("fork").Process(
            target=_build_apex_or_fail, args=(expected,))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


def _build_apex_or_fail(expected):
    """In a forked child, whose affinity the parent's test set to two
    cores: exit 0 if the apex state's spectra are the expected ones (an
    inherited worker, whose thread the child lacks, would hang)."""
    state = build_control_state(apex_framework(), default_params())
    os._exit(0 if spectrum_bits(state) == expected else 1)


def _solve_paths():
    """Every path into a dense solve, each a call on the apex framework."""
    fw = apex_framework()
    extents = extent_assignment(fw)

    def builds():
        for vectors in (True, False):
            build_control_state(fw, default_params(), vectors=vectors)
        guarded_refresh(fw.graph, fw.positions, default_params(), extents,
                        vectors=False)

    return {
        "build_control_state-one_core": (one_core, builds),
        "build_control_state-two_cores": (two_cores, builds),
        "extent_assignment": (two_cores, lambda: extent_assignment(fw)),
        "rigidity_report": (two_cores, lambda: rigidity_report(fw)),
        "rigidity_spectrum": (two_cores, lambda: rigidity_spectrum(
            framework_gram(fw), fw.dim)),
        "run_message_engine": (two_cores, lambda: simnet.run_message_engine(
            fw, extents, default_params())),
        "make_world": (two_cores, lambda: make_world(
            fw, default_params(), WorldConfig(use_estimates=False))),
    }


@pytest.mark.parametrize("path", _solve_paths())
def test_every_path_into_a_solve_holds_one_blas_thread(monkeypatch, path):
    # the pin is entered once per call or batch, not once per solve, so
    # every solve inside, on either thread, must still see one thread
    cores, call = _solve_paths()[path]
    blas = FakeBlas(2)
    seen = []

    def recorded(solve):
        def call(*args, **kwargs):
            seen.append(blas.threads)
            return solve(*args, **kwargs)
        return call

    kernel = _cores._gil_free_eigvalsh()
    monkeypatch.setattr(_cores, "_openblas_thread_counts",
                        lambda: ((blas.get, blas.set),))
    # the extent search proves most balls rigid by a Cholesky factorization
    # and solves only the rest, so on the apex every ball may be a cholesky
    for name in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg,
                                                              name)))
    monkeypatch.setattr(rigidity.sla, "svdvals",
                        recorded(rigidity.sla.svdvals))
    monkeypatch.setattr(_cores, "_gil_free_eigvalsh", lambda: (
        None if kernel is None else recorded(kernel)))
    monkeypatch.setattr(os, "sched_getaffinity", cores)
    call()
    assert seen and seen == [1] * len(seen)
    assert blas.threads == 2


class TestScatter:
    """control._scatter sums terms onto rows as a loop over the terms
    does, bit for bit."""

    @staticmethod
    def loop(rows, terms, n):
        out = np.zeros((n, terms.shape[1]))
        for r, t in zip(rows, terms):
            out[r] = out[r] + t
        return out

    def test_equals_a_loop_bit_for_bit(self):
        rng = np.random.default_rng(27)
        for n, k, d in [(1, 5, 2), (7, 40, 3), (30, 600, 2)]:
            # repeated rows, and with k < n or few draws, rows with no term
            rows = rng.integers(0, n, size=k)
            terms = rng.normal(size=(k, d)) * 10.0 ** rng.integers(
                -8, 9, size=(k, 1))
            terms[rng.random(k) < 0.1] = -0.0
            got = control._scatter(rows, terms, n)
            want = self.loop(rows, terms, n)
            assert got.shape == (n, d)
            assert got.tobytes() == want.tobytes()

    def test_rows_without_terms_are_positive_zero(self):
        got = control._scatter(np.array([1, 1]), np.array([[-0.0, 1.0],
                                                           [-0.0, 2.0]]), 3)
        assert got.tobytes() == np.array(
            [[0.0, 0.0], [0.0, 3.0], [0.0, 0.0]]).tobytes()

    def test_empty_input_gives_zeros(self):
        got = control._scatter(np.empty(0, dtype=np.intp), np.empty((0, 3)),
                               4)
        assert got.tobytes() == np.zeros((4, 3)).tobytes()


def sign_test_state(case):
    """A state with vectors: a random 2-D or 3-D one, or the equilateral
    triangle or regular tetrahedron, whose every ball is degenerate."""
    if case in ("random_2d", "random_3d"):
        rng = np.random.default_rng(46)
        state = None
        while state is None:
            state = fd_state(rng, dim=int(case[-2]))
        return state
    if case == "triangle":
        x = [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]
    else:
        x = [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0],
             [-1.0, -1.0, 1.0]]
    g = Graph(len(x), [(i, j) for i in range(len(x))
                       for j in range(i + 1, len(x))])
    return build_control_state(Framework(g, x), default_params())


class TestSignInvariance:
    """Every slope is even in its ball's eigenvector: negating nu negates s
    and sigma exactly, along reads sigma ** 2 and across * (s_c - sigma *
    r_c) is a product of two negated factors.  So a state reads nu as
    LAPACK returned it, unsigned, and its slopes keep their bits."""

    @pytest.mark.parametrize("case", ["random_2d", "random_3d", "triangle",
                                      "tetrahedron"])
    def test_negating_eigenvectors_keeps_every_slope_bit(self, case):
        state = sign_test_state(case)
        v, fw = state.verdicts, state.framework
        if case in ("triangle", "tetrahedron"):
            assert v.degenerate.all()

        def slopes(nus):
            return ball_rigidity_slopes(
                state.ball_set.stack, v.rho.tolist(),
                np.concatenate(nus).reshape(-1, fw.dim), fw.units,
                fw.lengths, state.weights, state.params)

        want = slopes(v.nu)
        assert want.tobytes() == state.rigidity_slopes().tobytes()
        assert np.abs(want).max() > 0
        rng = np.random.default_rng(len(v.nu))
        for flip in [rng.permutation(len(v.nu)) < (len(v.nu) + 1) // 2,
                     np.ones(len(v.nu), dtype=bool)]:
            negated = [-nu if f else nu for nu, f in zip(v.nu, flip)]
            assert slopes(negated).tobytes() == want.tobytes()


class TestPotentials:
    def test_rigidity_potential_is_inverse_power_sum(self):
        state = build_control_state(apex_framework(), default_params())
        assert rigidity_potential(state) == pytest.approx(
            float((state.rhos ** -1.0).sum())
        )

    def test_shrinking_strengthens_weighted_rigidity(self):
        fw = apex_framework()
        state = build_control_state(fw, default_params(comm_range=2.0))
        shrunk = state_at(state, 0.5 * fw.positions)
        assert rigidity_potential(shrunk) < rigidity_potential(state)

    def test_load_matches_weighted_communication_load(self):
        state = build_control_state(apex_framework(), default_params())
        g = state.framework.graph
        delta = np.zeros(g.n)
        e = g.edge_array()
        np.add.at(delta, e[:, 0], state.weights)
        np.add.at(delta, e[:, 1], state.weights)
        # the weighted load: max(0, h_j - g_ji) from the textbook hop
        # counts, weighing each node's summed link weights
        c = np.maximum(0.0, state.extents[:, None] - floyd_warshall(g))
        assert load_potential(state) == pytest.approx((c @ delta).sum())

    def test_collision_frozen_pair(self):
        fw = Framework(Graph(2, [(0, 1)]), [[0.0, 0.0], [1.0, 0.0]])
        state = build_control_state(
            fw, default_params(collision_exponent=2.0), extents=[1, 1])
        assert collision_potential(state) == pytest.approx(1.0)

    def test_rotation_leaves_values_alone(self):
        rng = np.random.default_rng(31)
        state = None
        while state is None:
            state = fd_state(rng)
        x = state.framework.positions
        th = 1.234
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rotated = state_at(state, x @ rot.T)
        assert potentials(rotated) == pytest.approx(potentials(state),
                                                    rel=1e-10)


def potentials(state):
    """The rigidity, load and collision potentials of one state."""
    return (rigidity_potential(state), load_potential(state),
            collision_potential(state))


def assert_gradients_match_finite_differences(dim, seed, **exponents):
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < 8:
        state = fd_state(rng, dim=dim, **exponents)
        if state is None:
            continue
        checked += 1
        fw = state.framework
        shape = fw.positions.shape
        fds = central_difference(
            lambda xf: potentials(state_at(state, xf.reshape(shape))),
            fw.positions.ravel(), eps=1e-6)

        for grad, fd, tol in zip(
                (rigidity_gradient_all(state), load_gradient_all(state),
                 collision_gradient_all(state)),
                fds, (1e-4, 1e-4, 1e-6)):
            scale = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad.ravel() - fd) <= tol * scale


class TestGradients:
    def test_match_finite_differences(self):
        assert_gradients_match_finite_differences(dim=2, seed=32)

    def test_match_finite_differences_in_3d(self):
        assert_gradients_match_finite_differences(dim=3, seed=32)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_match_finite_differences_at_other_exponents(self, dim):
        assert_gradients_match_finite_differences(
            dim=dim, seed=32, rigidity_exponent=2.0, collision_exponent=3.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(33)
        state = None
        while state is None:
            state = fd_state(rng)
        for grad in (
            rigidity_gradient_all(state),
            load_gradient_all(state),
            collision_gradient_all(state),
        ):
            assert np.allclose(grad.sum(axis=0), 0.0, atol=1e-8)

    def test_per_center_pieces_sum_to_totals(self):
        rng = np.random.default_rng(34)
        state = None
        while state is None:
            state = fd_state(rng)
        n, d = state.framework.positions.shape
        stack = state.ball_set.stack
        nus = np.concatenate(state.verdicts.nu).reshape(-1, d)
        rigidity = ball_rigidity_slopes(
            stack, state.rhos, nus, state.framework.units,
            state.framework.lengths, state.weights, state.params)
        acc = np.zeros((n, d))
        np.add.at(acc, stack.nodes, rigidity)
        assert np.allclose(acc, rigidity_gradient_all(state), atol=1e-12)
        # the load total sums whole-node coefficients over all edges, not
        # ball by ball, so the two sums meet only to rounding
        load = ball_load_slopes(stack, state.ball_set.c,
                                state.framework.units, state.weights,
                                state.params)
        acc = np.zeros((n, d))
        np.add.at(acc, stack.nodes, load)
        assert np.allclose(acc, load_gradient_all(state), atol=1e-12)

    def test_load_term_pushes_pair_apart(self):
        fw = Framework(Graph(2, [(0, 1)]), [[0.0, 0.0], [1.0, 0.0]])
        state = build_control_state(
            fw, default_params(comm_range=2.0), extents=[1, 1])
        r01 = (fw.positions[0] - fw.positions[1]) / 1.0
        descent = -load_gradient_all(state)[0]
        assert descent @ r01 > 0

    def test_edgeless_load_gradient_is_zero(self):
        fw = Framework(Graph(3, []), np.eye(3, 2) * 3.0)
        state = build_control_state(
            fw, default_params(), extents=[1, 1, 1])
        assert np.allclose(load_gradient_all(state), 0.0)
        # the other edge terms also sum over an empty edge set
        assert state.weights.shape == (0,)
        assert collision_potential(state) == 0.0
        assert collision_potential(state_at(state, 2.0 * fw.positions)) == 0.0
        assert load_potential(state) == 0.0
        assert np.array_equal(collision_gradient_all(state), np.zeros((3, 2)))

    def test_collision_pair_antisymmetry(self):
        fw = Framework(Graph(2, [(0, 1)]), [[0.0, 0.0], [0.4, 0.3]])
        state = build_control_state(
            fw, default_params(), extents=[1, 1])
        g = collision_gradient_all(state)
        assert np.allclose(g[0], -g[1], atol=1e-14)


# the closed loop on true positions, with no range filter in it
GROUND_TRUTH = WorldConfig(use_estimates=False)


class TestStepping:
    def test_small_steps_descend_total_cost(self):
        rng = np.random.default_rng(35)
        checked = 0
        while checked < 20:
            state = fd_state(rng)
            if state is None:
                continue
            checked += 1
            u = velocity_field(state)
            dt = 1e-4 / (1.0 + np.abs(u).max())
            x_new = state.framework.positions + dt * u
            j0 = total_potential(state)
            j1 = total_potential(state_at(state, x_new))
            assert j1 <= j0 + 1e-10 * abs(j0)

    def test_rigidity_only_descent_raises_min_rho(self):
        fw = apex_framework()
        params = default_params(
            comm_range=3.0, k_load=0.0, k_collision=0.0, dt=2e-3
        )
        world = make_world(fw, params, GROUND_TRUTH)
        prev = float(np.min(world.accepted.rhos))
        for _ in range(20):
            step_simulation(world)
            cur = float(np.min(world.accepted.rhos))
            assert cur >= prev - 1e-9
            prev = cur

    def test_zero_gains_fixed_point(self):
        # a disk framework is already consistent with the refresh rule, so a
        # zero velocity field must reproduce it exactly
        rng = np.random.default_rng(37)
        params = ControlParams(
            comm_range=0.5, k_rigidity=0.0, k_load=0.0, k_collision=0.0
        )
        world = None
        while world is None:
            fw = random_disk_framework(rng, 10, side=1.0, range_=0.5)
            try:
                world = make_world(fw, params, GROUND_TRUTH)
            except RigidityLostError:
                continue
        before, t0 = world.accepted, world.time
        step_simulation(world)
        after = world.accepted
        assert np.array_equal(after.framework.positions, before.framework.positions)
        assert after.framework.graph == before.framework.graph
        assert world.time == pytest.approx(t0 + params.dt)

    def test_extents_carried_through(self):
        world = make_world(apex_framework(), default_params(dt=1e-3),
                           GROUND_TRUTH)
        before = world.accepted
        step_simulation(world)
        assert np.array_equal(world.accepted.extents, before.extents)

    def test_runaway_step_raises(self, monkeypatch):
        monkeypatch.setattr(simnet, "guarded_refresh", reject_every_step)
        params = default_params(max_step_retries=2)
        world = make_world(apex_framework(), params, GROUND_TRUTH)
        with pytest.raises(RigidityLostError, match="no acceptable step size"):
            step_simulation(world)

    def test_command_is_capped_at_the_communication_range(self):
        # a barrier this steep commands a step of billions of metres; the tick
        # shortens dt so that no robot moves farther than comm_range
        params = default_params(k_rigidity=1e9, max_step_retries=0)
        world = make_world(apex_framework(), params, GROUND_TRUTH)
        before = world.framework.positions
        step_simulation(world)
        moved = np.linalg.norm(world.framework.positions - before, axis=1)
        assert moved.max() == pytest.approx(params.comm_range, rel=1e-12)
        assert 0.0 < world.time < params.dt
        assert len(world.metrics) == 2

    def test_mini_run_stays_rigid(self):
        rng = np.random.default_rng(36)
        fw = random_disk_framework(rng, 12, side=1.0, range_=0.5)
        params = ControlParams(comm_range=0.5, steepness=8.0, dt=5e-4,
                               k_load=0.1, k_collision=1e-4)
        world = make_world(fw, params, GROUND_TRUTH)
        for _ in range(10):
            step_simulation(world)
            assert (world.accepted.rhos > 0).all()
        assert world.time == pytest.approx(10 * params.dt)


class TestRefresh:
    def test_prune_add_and_hysteresis(self):
        # range 1, steepness 5: weight hits 0.01 near distance 1.92
        g = Graph(8, [(0, 1), (2, 3)])
        x = np.array(
            [[0.0, 0.0], [2.5, 0.0],    # stale edge, weight below prune
             [0.0, 2.0], [1.5, 2.0],    # stretched edge, inside hysteresis band
             [0.0, 4.0], [1.5, 4.0],    # same gap but no edge: must stay unlinked
             [0.0, 6.0], [0.8, 6.0]]    # close pair, gets linked
        )
        params = ControlParams(comm_range=1.0, steepness=5.0)
        out = refresh_topology(g, x, params)
        assert (0, 1) not in out.edges          # pruned
        assert (2, 3) in out.edges              # kept by hysteresis
        assert (4, 5) not in out.edges          # not close enough to create
        assert (6, 7) in out.edges              # newly linked

    def test_links_an_edgeless_graph_as_the_generator_does(self):
        rng = np.random.default_rng(13)
        params = ControlParams(comm_range=0.4, steepness=5.0)
        for dim in (2, 3):
            x = rng.uniform(0.0, 1.0, size=(25, dim))
            out = refresh_topology(Graph(25, []), x, params)
            assert out == disk_proximity_graph(x, params.comm_range)

    def test_new_edge_needs_strictly_closer_than_range(self):
        g = Graph(2, [])
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        params = ControlParams(comm_range=1.0, steepness=5.0)
        assert refresh_topology(g, x, params).edges == []


class TestGuard:
    # two triangles sharing the bar 1-2, node 4 braced to 1 and 3; in the
    # candidate node 4 sits on node 0, which it is not linked to
    GRAPH = Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)])
    CANDIDATE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                          [0.0, 0.0]])
    PARAMS = ControlParams(comm_range=5.0)

    @staticmethod
    def assert_table_as_computed(graph):
        """The admitted graph's hop table, inherited through the guard's
        trials, equals one computed on its edges."""
        cold = GeodesicTable.compute(Graph(graph.n, graph.edge_array()))
        assert geodesics(graph).dist.tobytes() == cold.dist.tobytes()

    def test_coincident_link_is_deferred(self):
        # the wholesale refresh and the trials inherit the hop table of a
        # graph that holds one, and compute it on a graph that does not
        for warm in (False, True):
            given = Graph(5, self.GRAPH.edge_array())
            if warm:
                geodesics(given)
            graph, state = guarded_refresh(given, self.CANDIDATE,
                                           self.PARAMS, [2] * 5)
            assert state is not None
            assert (0, 4) not in graph.edges
            assert {(0, 3), (2, 4)} <= set(graph.edges)
            self.assert_table_as_computed(graph)

    def test_coincident_edge_rejects_the_candidate(self):
        x = self.CANDIDATE.copy()
        x[3] = x[1]
        assert guarded_refresh(self.GRAPH, x, self.PARAMS, [2] * 5) == (
            None, None)

    def test_unrelated_value_error_propagates(self):
        with pytest.raises(ValueError, match="extents"):
            guarded_refresh(self.GRAPH, self.CANDIDATE, self.PARAMS, [2] * 4)


class TestTopologyCache:
    """What a Graph keeps for its control states never leaks between them."""

    PARAMS = ControlParams(comm_range=0.55, steepness=4.0)

    def setup_method(self):
        rng = np.random.default_rng(42)
        self.fw = random_disk_framework(rng, 12, side=1.0, range_=0.55)
        self.extents = build_control_state(self.fw, self.PARAMS).extents

    def build(self, graph, x):
        return build_control_state(Framework(graph, x), self.PARAMS,
                                   extents=self.extents)

    @staticmethod
    def eigendata(state):
        """Every ball's eigendata, copied, with nu as a tuple of floats."""
        v = state.verdicts
        return list(zip(v.rho.tolist(), map(tuple, v.nu), v.lam_max.tolist(),
                        v.gap.tolist(), v.rigid.tolist(),
                        v.degenerate.tolist()))

    def test_refresh_keeps_the_graph_while_edges_hold(self):
        fw = self.fw
        assert refresh_topology(fw.graph, fw.positions, self.PARAMS) is fw.graph
        twin = Graph(fw.n, fw.graph.edges)
        assert refresh_topology(twin, fw.positions, self.PARAMS) is twin
        x = fw.positions.copy()
        x[0] += 5.0
        moved = refresh_topology(fw.graph, x, self.PARAMS)
        assert moved is not fw.graph and moved.m < fw.graph.m

    def test_failed_unchanged_edge_set_is_built_once(self, monkeypatch):
        # with the edges held the wholesale candidate is the graph itself,
        # so its failure is final without a second, identical build
        built = []

        def failing(graph, *args):
            built.append(graph)
            return None

        monkeypatch.setattr(control, "_state_if_rigid", failing)
        fw = self.fw
        assert guarded_refresh(fw.graph, fw.positions, self.PARAMS,
                               self.extents) == (None, None)
        assert len(built) == 1 and built[0] is fw.graph

    def test_a_second_state_leaves_the_first_alone(self):
        fw = self.fw
        first = self.build(fw.graph, fw.positions)
        before = self.eigendata(first)
        second = self.build(fw.graph, 1.1 * fw.positions)
        assert second.ball_set is first.ball_set
        assert self.eigendata(second) != before
        assert self.eigendata(first) == before
        cached = ball_set(fw.graph, first.extents, fw.dim)
        # the cache holds a bare membership mask, each state its own eigendata
        assert not hasattr(cached, "balls")
        assert cached.inside.dtype == bool and cached.inside.shape == (fw.n, fw.n)
        assert not cached.inside.flags.writeable
        assert not cached.stack.nodes.flags.writeable
        assert first.verdicts is not second.verdicts
        for a, b in zip(first.verdicts.nu, second.verdicts.nu):
            assert not np.shares_memory(a, b)
        assert not geodesics(fw.graph).dist.flags.writeable

    def test_cached_state_equals_a_fresh_build(self):
        fw = self.fw
        self.build(fw.graph, fw.positions)
        x = fw.positions + np.random.default_rng(45).normal(0, 0.01, (fw.n, 2))
        cached = self.build(fw.graph, x)
        fresh = self.build(Graph(fw.n, fw.graph.edges), x)
        assert fresh.ball_set is not cached.ball_set
        assert np.array_equal(cached.weights, fresh.weights)
        for name in ("units", "lengths"):
            assert np.array_equal(getattr(cached.framework, name),
                                  getattr(fresh.framework, name))
        for name in ("c", "coeff"):
            assert np.array_equal(getattr(cached.ball_set, name),
                                  getattr(fresh.ball_set, name))
        assert np.array_equal(geodesics(fw.graph).dist,
                              geodesics(fresh.framework.graph).dist)
        assert self.eigendata(cached) == self.eigendata(fresh)
        assert np.array_equal(cached.ball_set.inside, fresh.ball_set.inside)
        for name in ("nodes", "offsets", "edge", "ends", "ball"):
            assert np.array_equal(getattr(cached.ball_set.stack, name),
                                  getattr(fresh.ball_set.stack, name))
        assert np.array_equal(velocity_field(cached), velocity_field(fresh))
