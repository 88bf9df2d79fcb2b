"""Ten end-to-end verdicts on the package's headline guarantees.

Each test prints one PASS/FAIL line with the measured numbers (visible
under pytest -s) and asserts the same condition.  Budgeted checks time
themselves; randomized checks draw from fixed seeds so reruns see the
same instances.
"""

import hashlib
import time

import numpy as np
import pytest
from support import (
    central_difference,
    floyd_warshall,
    log_arrays,
    random_connected_graph,
    random_disk_framework,
    random_framework,
    random_rigid_framework,
    skip_unless_recorded_build,
    state_at,
)

from rigidnet import (
    REL_TOL,
    ControlParams,
    Framework,
    Graph,
    RigidityLostError,
    build_control_state,
    collision_gradient_all,
    collision_potential,
    communication_load,
    congruence_error,
    diameter,
    diameter_eigenvalue_bound,
    extent_assignment,
    is_infinitesimally_rigid,
    load_gradient_all,
    load_potential,
    make_filters,
    network_record,
    reference_control_config,
    rigid_body_dim,
    rigidity_gradient_all,
    rigidity_matrix,
    rigidity_potential,
    rigidity_spectrum,
    run_control_experiment,
    run_ensemble_experiment,
    run_exchange_phase,
    run_message_engine,
    run_static_filter,
    verify_extents,
)
from rigidnet.experiments import ScenarioConfig


def _verdict(num, ok, detail):
    print(f"[check {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"check {num}: {detail}"


def test_rank_and_eigenvalue_tests_agree():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    total, agree = 1000, 0
    for _ in range(total):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(4, 16))
        fw = random_framework(rng, n, d, p=rng.uniform(0.2, 0.8))
        R = rigidity_matrix(fw)
        vals = np.linalg.eigvalsh(R.T @ R)
        f = rigid_body_dim(d)
        by_eigen = vals[f] > REL_TOL * max(float(vals[-1]), 0.0)
        # rank at the matching threshold: sigma^2 > tol * lam_max
        sv = np.linalg.svd(R, compute_uv=False) if R.size else np.zeros(0)
        rank = int((sv > np.sqrt(REL_TOL) * sv.max()).sum()) if sv.size else 0
        by_rank = rank == d * n - f
        agree += by_eigen == by_rank
    wall = time.perf_counter() - t0
    _verdict(
        1,
        agree == total and wall < 30.0,
        f"rank and eigenvalue tests agree on {agree}/{total} "
        f"random frameworks in {wall:.1f}s",
    )


def test_eigenvalue_never_exceeds_diameter_bound():
    rng = np.random.default_rng(102)
    total, violations, closest = 500, 0, 0.0
    for _ in range(total):
        n = int(rng.integers(4, 16))
        g = random_connected_graph(rng, n, p=rng.uniform(0.15, 0.6))
        fw = Framework(g, rng.uniform(0.0, 10.0, size=(n, 2)))
        R = rigidity_matrix(fw)
        rho = rigidity_spectrum(R.T @ R, 2).rho
        bound = diameter_eigenvalue_bound(len(g.edges), diameter(g))
        if rho > bound:
            violations += 1
        closest = max(closest, rho / bound)
    _verdict(
        2,
        violations == 0,
        f"{violations} violations of rho <= 2m/D^2 in {total} connected "
        f"frameworks; tightest rho/bound = {closest:.3f}",
    )


def test_extent_oracle_matches_whole_framework_test():
    rng = np.random.default_rng(103)
    total, rigid_seen, flexible_seen, mismatches = 300, 0, 0, 0
    for _ in range(total):
        n = int(rng.integers(4, 13))
        g = random_connected_graph(rng, n, p=rng.uniform(0.25, 0.7))
        fw = Framework(g, rng.uniform(0.0, 10.0, size=(n, 2)))
        rigid = is_infinitesimally_rigid(fw)
        assignment = extent_assignment(fw)
        if rigid != assignment.all():
            mismatches += 1
        elif rigid:
            rigid_seen += 1
            if not verify_extents(fw, assignment):
                mismatches += 1
        else:
            flexible_seen += 1
    _verdict(
        3,
        mismatches == 0 and rigid_seen > 0 and flexible_seen > 0,
        f"{rigid_seen} rigid and {flexible_seen} flexible frameworks, "
        f"{mismatches} disagreements between the whole-framework test and "
        f"the per-node extent oracle",
    )


def test_load_identities():
    # hand-computed path: 3 nodes, extents (2, 1, 2)
    path = Graph(3, [(0, 1), (1, 2)])
    report = communication_load(path, [2, 1, 2])
    path_ok = report.sum() == 10.0 and list(report) == [4.0, 2.0, 4.0]

    rng = np.random.default_rng(104)
    floor_ok = brute_ok = 0
    trials = 40
    for _ in range(trials):
        n = int(rng.integers(4, 13))
        g = random_connected_graph(rng, n, p=rng.uniform(0.3, 0.7))
        m = len(g.edges)
        floor_ok += (communication_load(g, np.ones(n, dtype=int)).sum()
                     == 2.0 * m)

        fw = Framework(g, rng.uniform(0.0, 10.0, size=(n, 2)))
        assignment = extent_assignment(fw)
        if not assignment.all():
            continue
        h = assignment
        dist = floyd_warshall(g)
        deg = np.array([len(g.neighbors(i)) for i in range(n)], dtype=float)
        brute = sum(
            max(0.0, h[i] - dist[i, j]) * deg[j]
            for i in range(n)
            for j in range(n)
        )
        got = communication_load(g, h).sum()
        rec = network_record(fw)
        brute_ok += got == brute == rec["load"] and got >= 2.0 * m
    _verdict(
        4,
        path_ok and floor_ok == trials and brute_ok > 0,
        f"path example gives 10, all-ones extents give 2m on {floor_ok}/"
        f"{trials} graphs, extent load matches brute force on {brute_ok} "
        f"rigid frameworks",
    )


def _gap_filtered_state(rng, n=8):
    fw = random_disk_framework(rng, n, side=1.0, range_=0.55)
    params = ControlParams(comm_range=0.55, steepness=4.0)
    try:
        state = build_control_state(fw, params)
    except RigidityLostError:
        return None
    v = state.verdicts
    if (v.gap < 1e-4 * np.maximum(v.lam_max, 1e-12)).any():
        return None
    return state


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(105)
    worst = {"rigidity": 0.0, "load": 0.0, "collision": 0.0}
    checked = 0
    while checked < 100:
        state = _gap_filtered_state(rng)
        if state is None:
            continue
        checked += 1
        fw = state.framework
        shape = fw.positions.shape

        def potentials(xf):
            shifted = state_at(state, xf.reshape(shape))
            return (rigidity_potential(shifted), load_potential(shifted),
                    collision_potential(shifted))
        fds = central_difference(potentials, fw.positions.ravel(), eps=1e-6)
        for name, grad, fd in zip(
                ("rigidity", "load", "collision"),
                (rigidity_gradient_all(state), load_gradient_all(state),
                 collision_gradient_all(state)),
                fds):
            scale = max(np.linalg.norm(fd), 1e-12)
            err = np.linalg.norm(grad.ravel() - fd) / scale
            worst[name] = max(worst[name], err)
    _verdict(
        5,
        all(v <= 1e-4 for v in worst.values()),
        "worst relative error vs central differences over "
        f"{checked} configurations: rigidity {worst['rigidity']:.1e}, "
        f"load {worst['load']:.1e}, collision {worst['collision']:.1e}",
    )


def test_exchange_completes_within_round_bound():
    rng = np.random.default_rng(106)
    params = ControlParams(comm_range=2.0, steepness=4.0)
    total, in_bound = 200, 0
    for _ in range(total):
        n = int(rng.integers(5, 13))
        fw = random_rigid_framework(rng, n, 2)
        h = extent_assignment(fw)
        contributions, log = run_message_engine(fw, h, params)
        eta = int(h.max())
        expected = {(j, i) for j in range(n) for i, d in
                    enumerate(floyd_warshall(fw.graph)[j]) if d <= h[j]}
        # the routing formula the closed loop compiles logs the same
        # deliveries in the same order
        _, compiled = run_exchange_phase(fw, h)
        if (log_arrays(log) == log_arrays(compiled)
                and log.completion_round <= 2 * eta
                and set(contributions) == expected):
            in_bound += 1

    complete_fw = Framework(
        Graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)]),
        np.random.default_rng(107).uniform(-1.0, 1.0, size=(8, 2)),
    )
    _, log1 = run_message_engine(complete_fw, np.ones(8, dtype=int), params)
    _verdict(
        6,
        in_bound == total and log1.completion_round == 2,
        f"{in_bound}/{total} exchanges delivered every contribution within "
        f"2*eta rounds; the all-ones complete graph took "
        f"{log1.completion_round} rounds",
    )


def test_ensemble_statistics():
    t0 = time.perf_counter()
    targets = {25.0: 7, 20.0: 9, 17.5: 10}
    modes = {}
    eta_small = total = 0
    for omega, target in targets.items():
        config = ScenarioConfig(
            seed=11, n=100, width=100.0, height=100.0,
            comm_range=omega, ensemble_count=250,
        )
        records, summary = run_ensemble_experiment(config)
        modes[omega] = summary["diameter_mode"]
        eta_small += sum(r["eta"] <= 5 for r in records)
        total += len(records)
    wall = time.perf_counter() - t0
    fraction = eta_small / total
    mode_ok = all(abs(modes[o] - t) <= 1 for o, t in targets.items())
    _verdict(
        7,
        mode_ok and 0.75 <= fraction <= 0.95 and wall < 600.0,
        f"diameter modes {tuple(modes.values())} vs targets (7, 9, 10); "
        f"eta <= 5 on {fraction:.1%} of {total} networks; {wall:.0f}s",
    )


# md5 of the 200 s reference run's CSV, as `rigidnet control --config
# configs/reference_control.json --csv` writes it
REFERENCE_CSV_MD5 = "2515bcc2cf712ceb1a5f17bf4cee11d8"


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The 200 s reference run, once: its rows, its error and its CSV bytes."""
    csv = tmp_path_factory.mktemp("reference") / "series.csv"
    _, rows, error = run_control_experiment(reference_control_config(),
                                            csv_path=csv)
    return rows, error, csv.read_bytes()


def test_control_run_stays_rigid_and_sheds_load(reference_run):
    rows, error, _ = reference_run
    ts = np.array([r["t"] for r in rows])
    rho_min = np.array([r["rho_min"] for r in rows])
    ratio = np.array([r["load_ratio"] for r in rows])
    framework_rho = np.array([r["rho_framework"] for r in rows])

    at_25 = int(np.argmin(np.abs(ts - 25.0)))
    growth = rho_min[at_25] / rho_min[0]
    peak = float(ratio.max())
    drop = (peak - float(ratio[-1])) / peak
    _verdict(
        8,
        error is None
        and rho_min.min() > 0.0
        and growth >= 2.0
        and 0.25 <= drop <= 0.55
        and framework_rho.min() > 0.0,
        f"error={error}; min ball eigenvalue {rho_min.min():.2e} > 0, "
        f"grew x{growth:.2f} by t=25, standardized load dropped "
        f"{drop:.1%} from its peak of {peak:.2f}, framework eigenvalue "
        f"min {framework_rho.min():.2e}",
    )


def test_reference_run_csv_as_recorded(reference_run):
    skip_unless_recorded_build()
    assert hashlib.md5(reference_run[2]).hexdigest() == REFERENCE_CSV_MD5


def test_localization_converges():
    # anchored: noiseless static network, initial error <= 0.1 * range
    rng = np.random.default_rng(21)
    fw = random_disk_framework(rng, 20, side=100.0, range_=50.0)
    assert is_infinitesimally_rigid(fw)
    x = fw.positions
    pert = 0.1 * 50.0 / np.sqrt(2)
    init = x + rng.uniform(-pert, pert, size=x.shape)
    filters = make_filters(init, (0.1 * 50.0) ** 2, 1e-6, anchors=(0, 1))
    est = run_static_filter(fw, filters, 400, anchor_positions=x)
    anchored_err = float(np.linalg.norm(est - x, axis=1).max())

    # anchor-free: the shape converges, the absolute placement need not
    rng = np.random.default_rng(3)
    fw = random_disk_framework(rng, 20, side=100.0, range_=50.0)
    x = fw.positions
    init = x + rng.uniform(-pert, pert, size=x.shape)
    c0 = congruence_error(init, x)
    free = run_static_filter(fw, make_filters(init, (0.1 * 50.0) ** 2, 1e-6),
                             400)
    shrink = c0 / congruence_error(free, x)
    abs_err = float(np.linalg.norm(free - x, axis=1).max())
    _verdict(
        9,
        anchored_err < 1e-3 and shrink > 1e3 and abs_err > 0.1,
        f"anchored max error {anchored_err:.2e} m after 400 rounds; "
        f"anchor-free congruence error shrank x{shrink:.0f} while absolute "
        f"error stayed at {abs_err:.2f} m",
    )


def test_seeded_runs_give_identical_csv_bytes(tmp_path):
    ens = ScenarioConfig(seed=3, n=16, width=90.0, height=90.0,
                         comm_range=40.0, ensemble_count=6)
    ctl = ScenarioConfig(seed=3, n=16, width=90.0, height=90.0,
                         comm_range=40.0, duration=1.0)
    pairs = []
    for tag, config, run in [
        ("ensemble", ens, run_ensemble_experiment),
        ("control", ctl, run_control_experiment),
    ]:
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"{tag}-{attempt}.csv"
            run(config, csv_path=str(out))
            blobs.append(out.read_bytes())
        pairs.append(blobs[0] == blobs[1] and len(blobs[0]) > 0)
    _verdict(
        10,
        all(pairs),
        "byte-identical CSVs across repeated runs: "
        f"ensemble={pairs[0]}, control={pairs[1]}",
    )
