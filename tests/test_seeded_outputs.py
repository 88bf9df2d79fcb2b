"""Seeded command outputs, held byte for byte to recorded files.

The files in data/ were written by `rigidnet` before the edge geometry
moved onto Framework, so these tests check the current code against an
earlier one and not against itself:

- control_seed8_gt.csv: two seconds of the reference closed loop on ground
  truth, so every tick runs the guard, the replayed exchange and the
  metrics on true positions;
- control_seed3_est.csv: two seconds steering on noisy estimates with three
  anchors, the only loop through the filters and the believed-position
  replay;
- ensemble_seed11.csv and .json: five sampled networks at 20 m, through the
  sampler, the rank cross-check, the extent search and the load;
- control_seed0_gt3d.csv: two seconds of a 40-robot 3-D run on ground
  truth whose first ticks are shortened by the step cap (a nearly flexible
  ball commands steps of about 1e5 m at t=0).  It was recorded later than
  the others, when the cap let a 3-D loop start, so it holds the code
  to itself from then on.

The CSVs print ten significant digits, so a change in the last bit of the
loop need not reach them.  final_state_digests.json therefore holds a
SHA-256 of the final positions of both control runs, and of the stacked
filter estimates and covariances of the estimated one.  It also holds the
final estimates and covariances of a noisy, anchored static filter run,
which the control runs do not reach: neighbor covariances in the
innovation, the process floor and per-robot measurement draws.  Those bits
depend on the numpy build and its BLAS, so the digests are checked only on
the numpy version and BLAS build they were recorded with.

The estimate-path digests (the seed-3 run's positions, estimates and
covariances, and the static filter's) were re-recorded when the true
ranges moved onto the framework's edge lengths, which differ from the
earlier per-edge scalar norms in the last bit of some ranges.  From then
on they hold the code to itself; the CSVs and the other digests did not
change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from support import skip_unless_recorded_build

from rigidnet import cli
from rigidnet.cli import EXIT_OK, main
from rigidnet.experiments import ScenarioConfig, generate_scenario
from rigidnet.localization import make_filters, run_static_filter

DATA = Path(__file__).parent / "data"

CONTROL = {
    "control_seed8_gt.csv": [
        "--seed", "8", "--n", "60", "--width", "150", "--height", "150",
        "--range", "40", "--duration", "2", "--ground-truth"],
    "control_seed3_est.csv": [
        "--seed", "3", "--n", "40", "--width", "120", "--height", "120",
        "--duration", "2", "--noise", "0.05", "--estimate-error", "0.5",
        "--anchors", "0,1,2"],
    "control_seed0_gt3d.csv": [
        "--seed", "0", "--n", "40", "--width", "100", "--height", "100",
        "--dim", "3", "--range", "45", "--duration", "2", "--ground-truth"],
}


DIGESTS = json.loads((DATA / "final_state_digests.json").read_text())


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def control_runs(tmp_path_factory):
    """Each control run once through the CLI: its exit code, its CSV bytes
    and the world it left."""
    runs = {}
    run = cli.run_control_experiment
    for name, args in CONTROL.items():
        out = tmp_path_factory.mktemp("control") / name
        worlds = []

        def keep_world(*a, **kw):
            result = run(*a, **kw)
            worlds.append(result[0])
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "run_control_experiment", keep_world)
            code = main(["control", *args, "--csv", str(out)])
        runs[name] = code, out.read_bytes(), worlds[0]
    return runs


@pytest.mark.parametrize("name", CONTROL)
def test_control_csv_as_recorded(name, control_runs, capsys):
    code, csv, _ = control_runs[name]
    assert code == EXIT_OK
    assert csv == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", CONTROL)
def test_control_final_state_as_recorded(name, control_runs):
    skip_unless_recorded_build()
    world = control_runs[name][2]
    digests = {"positions": _sha256(world.framework.positions)}
    if world.config.use_estimates:
        digests["estimates"] = _sha256(world.filters.estimates)
    assert digests == DIGESTS["runs"][name]


def test_control_final_covariances_as_recorded(control_runs):
    skip_unless_recorded_build()
    world = control_runs["control_seed3_est.csv"][2]
    assert _sha256(world.filters.covariances) == DIGESTS["covariances"]["control_seed3_est.csv"]


def static_filter_run():
    """Sixty noisy rounds on a 20-robot network with two exact anchors."""
    fw = generate_scenario(ScenarioConfig(seed=21, n=20, comm_range=50.0))
    x = fw.positions
    rng = np.random.default_rng(21)
    filters = make_filters(x + rng.uniform(-3.5, 3.5, size=x.shape),
                           25.0, 1e-4, anchors=(0, 1))
    run_static_filter(fw, filters, 60, anchor_positions=x,
                      measurement_rng=rng, measurement_std=0.01)
    return filters.estimates, filters.covariances


def test_static_filter_final_state_as_recorded():
    skip_unless_recorded_build()
    estimates, covariances = static_filter_run()
    assert {"estimates": _sha256(estimates),
            "covariances": _sha256(covariances)} == DIGESTS["static_filter"]


def test_ensemble_csv_and_json_as_recorded(tmp_path, capsys):
    csv, js = tmp_path / "ensemble.csv", tmp_path / "ensemble.json"
    code = main(["ensemble", "--seed", "11", "--n", "100", "--range", "20",
                 "--count", "5", "--csv", str(csv), "--json", str(js)])
    assert code == EXIT_OK
    assert csv.read_bytes() == (DATA / "ensemble_seed11.csv").read_bytes()
    assert js.read_bytes() == (DATA / "ensemble_seed11.json").read_bytes()
