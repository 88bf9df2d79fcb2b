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
  sampler, the rank cross-check, the extent search and the load.
"""

from pathlib import Path

import pytest

from rigidnet.cli import EXIT_OK, main

DATA = Path(__file__).parent / "data"

CONTROL = {
    "control_seed8_gt.csv": [
        "--seed", "8", "--n", "60", "--width", "150", "--height", "150",
        "--range", "40", "--duration", "2", "--ground-truth"],
    "control_seed3_est.csv": [
        "--seed", "3", "--n", "40", "--width", "120", "--height", "120",
        "--duration", "2", "--noise", "0.05", "--estimate-error", "0.5",
        "--anchors", "0,1,2"],
}


@pytest.mark.parametrize("name", CONTROL)
def test_control_csv_as_recorded(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["control", *CONTROL[name], "--csv", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_ensemble_csv_and_json_as_recorded(tmp_path, capsys):
    csv, js = tmp_path / "ensemble.csv", tmp_path / "ensemble.json"
    code = main(["ensemble", "--seed", "11", "--n", "100", "--range", "20",
                 "--count", "5", "--csv", str(csv), "--json", str(js)])
    assert code == EXIT_OK
    assert csv.read_bytes() == (DATA / "ensemble_seed11.csv").read_bytes()
    assert js.read_bytes() == (DATA / "ensemble_seed11.json").read_bytes()
