"""The four command verbs, their exit codes, and the config override order."""

import dataclasses
import filecmp
import importlib
import json
import multiprocessing
import os
import pkgutil
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from failure_cases import CASES, ERRORS, UNREACHABLE, judge
from support import reject_every_step

import rigidnet
from rigidnet import cli, experiments, rigidity, simnet
from rigidnet.cli import (
    EXIT_BAD_CONFIG,
    EXIT_LOCALIZATION_FAILED,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_PROTOCOL_VIOLATION,
    EXIT_RANK_MISMATCH,
    EXIT_RIGIDITY_LOST,
    main,
)
from rigidnet.experiments import reference_control_config, run_control_experiment
from rigidnet.graphs import disk_proximity_graph

SMALL = ["--seed", "3", "--n", "16", "--width", "90", "--height", "90",
         "--range", "40"]

ROWS = {case.id: case for case in CASES}

# the rows of tests/failure_cases.py that a test of their own runs, by
# test name: each under the test id its case had before a row held it
NAMED_ROWS = {
    "test_bad_flag_value_exits_three": {None: "n-one"},
    "test_usage_error_exits_three": {
        "argv1-the following arguments are required: verb": "no-verb",
        "argv2-argument --n: expected one argument": "missing-flag-value",
        "argv3-argument verb: invalid choice: 'survey'": "unknown-verb",
        "argv4-argument --ground-truth: ignored explicit argument 'x'":
            "switch-with-value"},
    "test_unknown_config_field_exits_three": {None: "unknown-config-key"},
    "test_wrongly_typed_config_value_exits_three": {
        "config0-n-int": "string-n-config",
        "config1-n-int": "float-n-config",
        "config2-width-float": "bool-width-config",
        "config3-use_estimates-bool": "int-use-estimates-config",
        "config4-anchors-list of int": "string-anchor-config",
        "config5-max_step_retries-int": "fractional-retries-config"},
    "test_removed_weighted_matrix_knob_exits_three": {
        None: "weighted-matrix-config"},
    "test_removed_eigenvalue_tolerance_exits_three": {None: "eig-tol-config"},
    "test_out_of_range_value_exits_three": {
        "flags2-None": "infinite-duration",
        "flags3-None": "nan-duration",
        "flags4-None": "nan-noise",
        "flags5-config5": "nan-duration-config",
        "flags6-config6": "infinite-width-config",
        "flags7-config7": "nan-dt-config",
        "flags9-config9": "zero-range-variance-config"},
    "test_unusable_control_value_exits_three": {
        f"control{k}-{message}-{truth}": row + ("-ground-truth" if truth
                                                 else "")
        for k, message, row in (
            (0, "rigidity barrier's slope overflows",
             "huge-rigidity-exponent"),
            (1, "velocity command's speed is inf", "huge-k-rigidity"),
            (2, "velocity command's speed is inf", "huge-k-load"),
            (3, "velocity command's speed is inf", "huge-k-collision"),
            (4, "MAX_TICKS", "tiny-dt"))
        for truth in (False, True)
        # two of them are rows of test_unusable_input_exits_three
        if truth or k in (1, 2, 3)},
    "test_anchors_that_are_not_a_list_exit_three": {
        None: "anchors-not-a-list-config"},
    "test_malformed_config_file_exits_three": {None: "malformed-config"},
    "test_bad_control_block_exits_three": {None: "negative-range-config"},
}
NAMED = {row for rows in NAMED_ROWS.values() for row in rows.values()}


def named_rows(test):
    """The parametrize arguments of a test that runs several named rows."""
    rows = NAMED_ROWS[test]
    return {"argvalues": [ROWS[row] for row in rows.values()],
            "ids": list(rows)}


class TestGen:
    def test_writes_framework_json(self, tmp_path):
        out = tmp_path / "fw.json"
        code = main(["gen", *SMALL, "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["n"] == 16
        assert len(data["positions"]) == 16
        assert all(len(e) == 2 for e in data["edges"])

    def test_prints_to_stdout_by_default(self, capsys):
        assert main(["gen", *SMALL]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 16

    def test_deterministic_output(self, tmp_path):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", *SMALL, "--out", str(pa)])
        main(["gen", *SMALL, "--out", str(pb)])
        assert filecmp.cmp(pa, pb, shallow=False)


def never_called(*args, **kwargs):
    raise AssertionError("the run started before its outputs were opened")


class TestEnsemble:
    def test_summary_on_stdout_and_csv(self, tmp_path, capsys):
        csv = tmp_path / "nets.csv"
        code = main(["ensemble", *SMALL, "--count", "4", "--csv", str(csv)])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["count"] == 4
        assert csv.read_text().count("\n") == 5  # header plus one row each

    def test_csv_byte_identical_across_runs(self, tmp_path):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["ensemble", *SMALL, "--count", "4", "--csv", str(pa)])
        main(["ensemble", *SMALL, "--count", "4", "--csv", str(pb)])
        assert filecmp.cmp(pa, pb, shallow=False)

    @pytest.mark.parametrize("flag", ["--csv", "--json"])
    def test_unwritable_output_exits_before_any_draw(self, monkeypatch,
                                                     capsys, flag):
        monkeypatch.setattr(experiments, "sample_framework", never_called)
        code = main(["ensemble", *SMALL, "--count", "4",
                     flag, "/nonexistent/x.out"])
        assert code == EXIT_BAD_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("configuration error: cannot write output")

    def test_unallocatable_networks_on_two_cores_exit_three(self, monkeypatch,
                                                            capfd):
        # the row unallocatable-networks-2 on two cores, whatever the
        # machine has: one network in the caller and one in a forked child;
        # capfd reads file descriptor 2, which the child writes to as well,
        # so this is still one line and no traceback
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code = main(["ensemble", "--seed", "1", "--n", "5000000", "--count",
                     "2", "--range", "40", "--rejection-budget", "1"])
        assert code == EXIT_BAD_CONFIG
        [line] = capfd.readouterr().err.splitlines()
        assert line.startswith("configuration error: the input needs more "
                               "memory than the machine has (")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("verb", [["gen"], ["control"],
                                      ["ensemble", "--count", "2"]])
    # a numpy warning would be a second stderr line
    @pytest.mark.filterwarnings("error")
    def test_n_too_large_for_any_array_exits_three(self, monkeypatch, capsys,
                                                    verb):
        # numpy cannot even shape 10^30 rows: the count is refused before
        # the first draw
        monkeypatch.setattr(experiments, "sample_framework", never_called)
        assert main([*verb, "--n", str(10**30)]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("configuration error:")
        assert "MAX_ROBOTS" in line and captured.out == ""

    def test_an_interrupt_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiments, "sample_framework", interrupted)
        code = main(["ensemble", *SMALL, "--count", "4"])
        assert code == EXIT_INTERRUPTED
        assert capsys.readouterr().err == "interrupted\n"

    def test_an_interrupt_in_a_child_is_quiet(self, monkeypatch, capfd,
                                              tmp_path):
        # Ctrl-C reaches every process of the group; a child that stops
        # prints no traceback, and the caller measures every network itself
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["ensemble", *SMALL, "--count", "4",
                     "--csv", str(one)]) == EXIT_OK
        parent = os.getpid()
        record = experiments.network_record

        # forked_map joins every child before it returns, so a traceback
        # that a child printed on its way out is on fd 2 by then
        def interrupted(fw, index=0, rejects=0):
            if os.getpid() != parent:
                raise KeyboardInterrupt
            return record(fw, index=index, rejects=rejects)

        monkeypatch.setattr(experiments, "network_record", interrupted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        capfd.readouterr()
        assert main(["ensemble", *SMALL, "--count", "4",
                     "--csv", str(two)]) == EXIT_OK
        assert "Traceback" not in capfd.readouterr().err
        assert filecmp.cmp(one, two, shallow=False)
        assert multiprocessing.active_children() == []


class TestControl:
    def test_short_clean_run(self, tmp_path, capsys):
        csv = tmp_path / "run.csv"
        code = main(["control", *SMALL, "--duration", "1", "--csv", str(csv)])
        assert code == EXIT_OK
        status = json.loads(capsys.readouterr().out)
        assert status["rigidity_lost"] is False
        assert status["rows"] == 21
        assert status["min_rho"] > 0
        assert csv.exists()

    def test_three_dimensional_run(self, capsys):
        code = main(["control", "--seed", "1", "--n", "12", "--dim", "3",
                     "--width", "50", "--height", "50", "--range", "40",
                     "--duration", "0.3"])
        assert code == EXIT_OK
        status = json.loads(capsys.readouterr().out)
        assert status["rows"] == 7 and status["min_rho"] > 0

    def test_anchored_estimate_run(self, capsys):
        code = main(["control", *SMALL, "--duration", "0.5",
                     "--anchors", "0,1"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rigidity_lost"] is False

    def test_rigidity_loss_exits_two(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(simnet, "guarded_refresh", reject_every_step)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "control": {"comm_range": 40.0, "max_step_retries": 1},
        }))
        snap = tmp_path / "snap.json"
        code = main(["control", *SMALL, "--duration", "1",
                     "--config", str(cfg), "--snapshot", str(snap)])
        assert code == EXIT_RIGIDITY_LOST
        captured = capsys.readouterr()
        assert json.loads(captured.out)["rigidity_lost"] is True
        assert "rigidity lost" in captured.err
        assert json.loads(snap.read_text())["framework"]["n"] == 16

    def test_unwritable_csv_exits_before_the_run(self, monkeypatch, capsys):
        monkeypatch.setattr(simnet, "step_simulation", never_called)
        code = main(["control", "--config", str(REFERENCE_CONFIG),
                     "--csv", "/nonexistent/x.csv"])
        assert code == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("configuration error: cannot write output")
        assert captured.out == ""

    def test_clean_run_leaves_no_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        code = main(["control", *SMALL, "--duration", "0.2",
                     "--snapshot", str(snap)])
        assert code == EXIT_OK
        assert not snap.exists()

    def test_unwritable_snapshot_exits_three(self, monkeypatch, tmp_path,
                                             capsys):
        # the snapshot is written only when a run stops on an error
        monkeypatch.setattr(simnet, "guarded_refresh", reject_every_step)
        snap = tmp_path / "missing" / "snap.json"
        code = main(["control", *SMALL, "--duration", "1",
                     "--snapshot", str(snap)])
        assert code == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("configuration error: cannot write output")
        assert captured.out == ""

    def test_protocol_violation_exits_four(self, monkeypatch, tmp_path,
                                           capsys):
        def broken_engine(*args, **kwargs):
            raise simnet.ProtocolViolation("exchange took 9 rounds, bound is 4")

        monkeypatch.setattr(simnet, "run_exchange_phase", broken_engine)
        csv, snap = tmp_path / "run.csv", tmp_path / "snap.json"
        code = main(["control", *SMALL, "--duration", "0.5", "--csv", str(csv),
                     "--snapshot", str(snap)])
        assert code == EXIT_PROTOCOL_VIOLATION
        captured = capsys.readouterr()
        assert captured.err == ("protocol violation: exchange took 9 rounds, "
                                "bound is 4\n")
        # the run stopped in its first exchange, after the t=0 row
        assert_stopped_run(captured.out, csv, snap, "exchange took 9 rounds")

    def test_coincident_estimates_exit_six(self, monkeypatch, tmp_path,
                                           capsys):
        make_filters = simnet.make_filters

        def collapsed(estimates, *args, **kwargs):
            # every robot starts out believing it stands at the origin
            return make_filters(np.zeros_like(estimates), *args, **kwargs)

        monkeypatch.setattr(simnet, "make_filters", collapsed)
        csv, snap = tmp_path / "run.csv", tmp_path / "snap.json"
        code = main(["control", *SMALL, "--duration", "0.5", "--csv", str(csv),
                     "--snapshot", str(snap)])
        assert code == EXIT_LOCALIZATION_FAILED
        captured = capsys.readouterr()
        assert captured.err == ("localization failed: coincident estimates "
                                "make the range model singular\n")
        assert_stopped_run(captured.out, csv, snap, "coincident estimates")


    def test_overflowing_estimates_exit_six(self, tmp_path, capsys):
        # estimates 1e200 m off make every range overflow float64: a named
        # error, with no numpy warning on the way
        csv, snap = tmp_path / "run.csv", tmp_path / "snap.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["control", *SMALL, "--duration", "0.5",
                         "--estimate-error", "1e200", "--csv", str(csv),
                         "--snapshot", str(snap)])
        assert code == EXIT_LOCALIZATION_FAILED
        captured = capsys.readouterr()
        assert captured.err == ("localization failed: an estimated range is "
                                "not finite: the estimates overflow float64\n")
        assert_stopped_run(captured.out, csv, snap, "not finite")

    def test_overflowing_believed_positions_exit_six(self, tmp_path, capsys):
        # ranges 1e200 m off leave every range finite, but the filter puts
        # the estimates so far apart that their edge lengths overflow
        csv, snap = tmp_path / "run.csv", tmp_path / "snap.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["control", *SMALL, "--duration", "0.5",
                         "--noise", "1e200", "--csv", str(csv),
                         "--snapshot", str(snap)])
        assert code == EXIT_LOCALIZATION_FAILED
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("localization failed: the believed positions "
                               "make no framework: the length of edge")
        assert line.endswith("overflows float64")
        assert_stopped_run(captured.out, csv, snap, "overflows float64")

    @pytest.mark.parametrize("override", [
        {"range_variance": 1e-30}, {"initial_variance": 1e30}])
    def test_singular_innovation_covariance_exit_six(self, override,
                                                     tmp_path, capsys):
        # the range variance is lost beside the covariances, so a robot's
        # innovation covariance is singular in float64
        config = tmp_path / "c.json"
        config.write_text(json.dumps(override))
        csv, snap = tmp_path / "run.csv", tmp_path / "snap.json"
        code = main(["control", *SMALL, "--duration", "0.5", "--config",
                     str(config), "--csv", str(csv), "--snapshot", str(snap)])
        assert code == EXIT_LOCALIZATION_FAILED
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("localization failed: the innovation "
                               "covariance is singular")
        assert_stopped_run(captured.out, csv, snap, "singular")

    @pytest.mark.parametrize("case", [
        c for c in CASES if c.exit != EXIT_BAD_CONFIG], ids=lambda c: c.id)
    # a numpy warning would be a second stderr line
    @pytest.mark.filterwarnings("error")
    def test_failed_run_matches_its_row(self, tmp_path, capfd, case):
        assert_case(case, tmp_path, capfd)


def assert_case(case, tmp_path, capfd):
    """Run a row of tests/failure_cases.py through main and judge the run
    by its row.  capfd reads file descriptor 2, which a forked child
    writes to as well."""
    argv = case.fill(tmp_path)
    start = time.monotonic()
    code = main(argv)
    seconds = time.monotonic() - start
    out, err = capfd.readouterr()
    assert judge(case, code, out, err, seconds) == []


def assert_stopped_run(out, csv, snap, error):
    """A run stopped in its first tick still reports its t=0 row."""
    status = json.loads(out)
    assert status["rows"] == 1 and status["time"] == 0.0
    assert status["min_rho"] > 0
    assert status["rigidity_lost"] is False
    lines = csv.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")
    snapshot = json.loads(snap.read_text())
    assert error in snapshot["error"]
    assert snapshot["framework"]["n"] == 16


class TestAudit:
    def test_report_for_framework_file(self, tmp_path, capsys):
        fw_path = tmp_path / "fw.json"
        main(["gen", *SMALL, "--out", str(fw_path)])
        capsys.readouterr()
        code = main(["audit", "--framework", str(fw_path)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["rigid"] is True
        assert report["rho"] > 0

    def test_report_for_generated_scenario(self, capsys):
        assert main(["audit", *SMALL]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rigid"] is True

    def test_rank_mismatch_exits_five(self, monkeypatch, capsys):
        # an SVD that finds no rank contradicts the positive eigenvalue
        monkeypatch.setattr(rigidity.sla, "svdvals",
                            lambda R: np.zeros(min(R.shape)))
        assert main(["audit", *SMALL]) == EXIT_RANK_MISMATCH
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rank mismatch: rank test (0 vs ")

    def test_unreadable_framework_file_is_bad_config(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["audit", "--framework", str(missing)]) == EXIT_BAD_CONFIG
        assert "configuration error" in capsys.readouterr().err


def exit_of(cls):
    """The exit code cli._EXITS gives an error class, or None."""
    return next((code for classes, code, _ in cli._EXITS
                 if issubclass(cls, classes)), None)


def test_every_error_class_has_an_entry():
    # every Exception subclass any module of the package defines
    defined = {
        obj.__name__: obj
        for info in pkgutil.iter_modules(rigidnet.__path__)
        if info.name != "__main__"
        for obj in vars(importlib.import_module(
            f"rigidnet.{info.name}")).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
        and obj.__module__.startswith("rigidnet")}
    assert sorted(defined) == sorted([*ERRORS, *UNREACHABLE])
    rows = {case.id: case for case in CASES}
    for name, (code, shown_by) in ERRORS.items():
        assert exit_of(defined[name]) == code, name
        if shown_by in rows:
            assert rows[shown_by].exit == code, name
        else:
            assert any(shown_by in vars(t) for t in (TestControl, TestAudit))
    for name in UNREACHABLE:
        assert exit_of(defined[name]) is None, name


REFERENCE_CONFIG = (Path(__file__).parents[1] / "configs"
                    / "reference_control.json")


class TestReferenceConfig:
    """The committed config file is the calibrated reference scenario."""

    def test_file_reads_as_the_reference_scenario(self):
        args = cli.build_parser().parse_args(
            ["control", "--config", str(REFERENCE_CONFIG)])
        assert cli._build_config(args) == reference_control_config()

    def test_short_run_writes_the_reference_csv(self, tmp_path, capsys):
        # the file leaves duration out, so the flag still sets it
        through_cli, direct = tmp_path / "cli.csv", tmp_path / "direct.csv"
        code = main(["control", "--config", str(REFERENCE_CONFIG),
                     "--duration", "2", "--csv", str(through_cli)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rows"] == 21
        run_control_experiment(
            dataclasses.replace(reference_control_config(), duration=2.0),
            csv_path=direct)
        assert through_cli.read_bytes() == direct.read_bytes()


FIELD_TYPES = {f.name: f.type
               for f in dataclasses.fields(experiments.ScenarioConfig)}

# every flag that takes a value, with each text it cannot use: a text that
# is no number, NaN, negative numbers in exponent form and infinite, given
# as their own word, and a fraction where the field holds an int
BAD_FLAG_VALUES = [
    (flag, text) for flag, name in cli._FLAGS.items()
    if FIELD_TYPES[name] is not bool
    for text in ("x", "nan", "-1e-3", "-inf", "2.5")
    if text != "2.5" or FIELD_TYPES[name] is int]


class TestConfigHandling:
    @pytest.mark.filterwarnings("error")
    def test_bad_flag_value_exits_three(self, tmp_path, capfd):
        assert_case(ROWS["n-one"], tmp_path, capfd)

    @pytest.mark.parametrize("flag, text", BAD_FLAG_VALUES)
    def test_bad_flag_value_reads_as_the_same_file_value(self, tmp_path,
                                                         capsys, flag, text):
        # the flag's text is the field's value: a float field reads a
        # number as float() does ("nan", "-1e-3", "-inf"), and any text
        # that does not parse stays a string
        name = cli._FLAGS[flag]
        value = float(text) if (FIELD_TYPES[name] is float
                                and text != "x") else text
        assert main(["gen", flag, text]) == EXIT_BAD_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        assert main(["gen", "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == line + "\n"
        assert line.startswith("configuration error:")

    def test_every_scenario_flag_sets_its_field(self):
        args = cli.build_parser().parse_args([
            "control", "--seed", "5", "--n", "14", "--width", "70",
            "--height", "80", "--range", "35", "--dim", "3", "--count", "4",
            "--duration", "1.5", "--noise", "0.1", "--estimate-error", "0.2",
            "--rejection-budget", "9", "--anchors", "0,2", "--ground-truth",
            "--flexible-ok"])
        config = cli._build_config(args)
        assert dataclasses.asdict(config) == dataclasses.asdict(
            experiments.ScenarioConfig(
                seed=5, n=14, width=70.0, height=80.0, comm_range=35.0,
                dim=3, ensemble_count=4, duration=1.5, noise_std=0.1,
                initial_estimate_error=0.2, rejection_budget=9,
                anchors=(0, 2), use_estimates=False, require_rigid=False))

    @pytest.mark.parametrize("case", **named_rows(
        "test_usage_error_exits_three"))
    @pytest.mark.filterwarnings("error")
    def test_usage_error_exits_three(self, tmp_path, capfd, case):
        # not argparse's exit 2, which means a lost rigidity here
        assert_case(case, tmp_path, capfd)

    @pytest.mark.parametrize("argv", [["-h"], ["gen", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rigidnet")

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20, "seed": 3, "width": 90.0,
                                   "height": 90.0, "comm_range": 40.0}))
        main(["gen", "--n", "10", "--config", str(cfg)])
        assert json.loads(capsys.readouterr().out)["n"] == 20

    @pytest.mark.filterwarnings("error")
    def test_unknown_config_field_exits_three(self, tmp_path, capfd):
        assert_case(ROWS["unknown-config-key"], tmp_path, capfd)

    @pytest.mark.parametrize("case", **named_rows(
        "test_wrongly_typed_config_value_exits_three"))
    @pytest.mark.filterwarnings("error")
    def test_wrongly_typed_config_value_exits_three(self, tmp_path, capfd,
                                                    case):
        assert_case(case, tmp_path, capfd)

    @pytest.mark.filterwarnings("error")
    def test_removed_weighted_matrix_knob_exits_three(self, tmp_path, capfd):
        assert_case(ROWS["weighted-matrix-config"], tmp_path, capfd)

    @pytest.mark.filterwarnings("error")
    def test_removed_eigenvalue_tolerance_exits_three(self, tmp_path, capfd):
        # every verdict reads rigidity.REL_TOL; the control block has no
        # tolerance of its own
        assert_case(ROWS["eig-tol-config"], tmp_path, capfd)

    @pytest.mark.parametrize("case", **named_rows(
        "test_out_of_range_value_exits_three"))
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_value_exits_three(self, tmp_path, capfd, case):
        # caught when the configuration is built, not reported as a failed
        # run: a negative estimate error would otherwise run as 0, and
        # negative retries as a rigidity loss at t=0
        assert_case(case, tmp_path, capfd)

    @pytest.mark.parametrize("case", [
        c for c in CASES if c.exit == EXIT_BAD_CONFIG
        and c.id not in NAMED], ids=lambda c: c.id)
    # a numpy warning would be a second stderr line
    @pytest.mark.filterwarnings("error")
    def test_unusable_input_exits_three(self, tmp_path, capfd, case):
        assert_case(case, tmp_path, capfd)

    def test_huge_ensemble_count_exits_three(self, monkeypatch, capsys):
        # every child seed is spawned before the first network: 10^30 of
        # them would never return, so the count is refused before a spawn
        class NoSpawn(np.random.SeedSequence):
            def spawn(self, n_children):
                raise AssertionError(f"asked to spawn {n_children} seeds")

        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        assert main(["ensemble", *SMALL, "--count",
                     str(10**30)]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("configuration error:")
        assert "MAX_NETWORKS" in line and captured.out == ""

    def test_huge_rejection_budget_exits_three(self, monkeypatch, capsys):
        # 10^8 rejected draws would run for hours, so the budget is refused
        # before the first draw
        draws = []

        def no_draw(x, comm_range):
            draws.append(len(x))
            if len(draws) > 3:
                raise AssertionError(f"drew {len(draws)} networks")
            return disk_proximity_graph(x, comm_range)

        monkeypatch.setattr(experiments, "disk_proximity_graph", no_draw)
        assert main(["gen", "--n", "10", "--range", "0.001",
                     "--rejection-budget", str(10**8)]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("configuration error:")
        assert "MAX_DRAWS" in line and captured.out == ""
        assert draws == []

    @pytest.mark.parametrize("case", **named_rows(
        "test_unusable_control_value_exits_three"))
    @pytest.mark.filterwarnings("error")
    def test_unusable_control_value_exits_three(self, tmp_path, capfd, case):
        assert_case(case, tmp_path, capfd)

    @pytest.mark.parametrize("config", [
        # one tick of 1e300 s: dt**2 overflows, while the motion dt * u
        # stays within the communication range
        {"duration": 1e300, "control": {
            "dt": 1e300, "k_rigidity": 0, "k_load": 0, "k_collision": 0}},
        {"duration": 1e300, "control": {
            "dt": 1e300, "k_rigidity": 1e-300, "k_load": 1e-300,
            "k_collision": 1e-300}},
        # steepness * (range - length) overflows; its weight is 1 or 0
        {"comm_range": 1e300, "control": {"steepness": 1e300}},
    ])
    @pytest.mark.filterwarnings("error")
    def test_extreme_valid_values_run_clean(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["control", "--seed", "3", "--n", "12", "--width", "60",
                     "--height", "60", "--range", "40", "--duration", "0.3",
                     "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    def test_anchors_that_are_not_a_list_exit_three(self, tmp_path, capfd):
        assert_case(ROWS["anchors-not-a-list-config"], tmp_path, capfd)

    def test_control_block_takes_the_scenario_range(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"control": {"dt": 0.2}}))
        args = cli.build_parser().parse_args(
            ["control", "--range", "25", "--config", str(cfg)])
        config = cli._build_config(args)
        assert config.comm_range == config.control.comm_range == 25.0
        assert config.control.dt == 0.2

    def test_scenario_is_the_world_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"range_variance": 0.05,
                                   "initial_variance": 2.0}))
        args = cli.build_parser().parse_args(
            ["control", *SMALL, "--duration", "0", "--config", str(cfg)])
        config = cli._build_config(args)
        world, rows, error = run_control_experiment(config)
        assert error is None and rows == []
        assert world.config is config
        assert world.filters.range_variance == 0.05
        assert np.all(world.filters.covariances[0] == 2.0 * np.eye(2))

    @pytest.mark.filterwarnings("error")
    def test_malformed_config_file_exits_three(self, tmp_path, capfd):
        assert_case(ROWS["malformed-config"], tmp_path, capfd)

    @pytest.mark.filterwarnings("error")
    def test_bad_control_block_exits_three(self, tmp_path, capfd):
        assert_case(ROWS["negative-range-config"], tmp_path, capfd)
