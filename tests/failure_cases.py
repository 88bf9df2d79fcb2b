"""The `rigidnet` script's failure cases, one row each, and one judge of a run.

A row (Case) is one run: its argv, the JSON of any input file the argv
names through a {name} placeholder (or the file's text, where it is a
string), its exit code, a pattern of its one stderr line and its stdout.  Two more placeholders need no file:
{missing} is a path in a directory that does not exist, and {configs} is
the repository's configs directory.  tests/test_cli.py runs every row
in-process through cli.main, with warnings as errors: the rows that exit
3 as TestConfigHandling.test_unusable_input_exits_three, the others as
TestControl.test_failed_run_matches_its_row, apart from the rows that a
test of their own runs under the test id the case had before a row held
it (test_cli.NAMED_ROWS).  Run as a script, this file
runs every row through the installed `rigidnet` script, one process each,
with PYTHONWARNINGS=error, and exits 1 if any run differs from its row:

    python tests/failure_cases.py

A case that needs a faked library, or that checks more than a row can
(the CSV and snapshot of a stopped run, the outputs opened before any
work, a bad flag value read as the same config file value), stays a test
of its own in tests/test_cli.py.

ERRORS and UNREACHABLE account for every error class the package
defines: the exit code of a run that ends on it and the row or test that
shows it, or why no run ends on it in cli.main.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# every run ends within this many seconds: a failure is found before the
# work it would waste, not at its end
TIME_BOUND = 30.0


@dataclasses.dataclass(frozen=True)
class Case:
    """One failing run.  stderr must match the run's one stderr line in
    full, and stdout its whole stdout: nothing, unless the row says."""

    id: str
    argv: tuple
    exit: int
    stderr: str
    files: dict = dataclasses.field(default_factory=dict)
    stdout: str = ""

    def fill(self, directory):
        """The argv, with every input file written into directory."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {"missing": directory / "missing" / "out", "configs": CONFIGS}
        for name, data in self.files.items():
            paths[name] = directory / f"{name}.json"
            paths[name].write_text(data if isinstance(data, str)
                                   else json.dumps(data))
        return [a.format(**paths) for a in self.argv]


def judge(case, code, out, err, seconds):
    """How a finished run differs from its row; empty when it matches."""
    problems = []
    if code != case.exit:
        problems.append(f"exit {code}, expected {case.exit}")
    lines = err.splitlines()
    if len(lines) != 1 or not err.endswith("\n"):
        problems.append(f"{len(lines)} stderr lines, expected 1")
    if not lines or not re.fullmatch(case.stderr, lines[0]):
        problems.append(f"stderr {err!r} does not match {case.stderr!r}")
    if not re.fullmatch(case.stdout, out, re.S):
        problems.append(f"stdout {out!r} does not match {case.stdout!r}")
    if seconds > TIME_BOUND:
        problems.append(f"took {seconds:.1f} s, bound is {TIME_BOUND} s")
    return problems


SMALL = ("--seed", "3", "--n", "16", "--width", "90", "--height", "90",
         "--range", "40")
TWELVE = ("--seed", "3", "--n", "12", "--width", "60", "--height", "60",
          "--range", "40")
TRIANGLE = [[0, 0], [1, 0], [0, 1]]
# the JSON status of a control run stopped in its first tick, after its
# t=0 row
STOPPED = (r'\{\n "time": 0\.0,\n "rows": 1,\n "min_rho": [0-9.e+-]+,\n'
           r' "rigidity_lost": false\n\}\n')
NO_SUCH_PATH = r"\[Errno 2\] No such file or directory: '.*'"


def config(id, message, *argv, **files):
    """A run that exits 3 with a configuration error."""
    return Case(id, argv, 3, f"configuration error: {message}", files)


def framework_file(id, message, data):
    return config(id, f"cannot read framework file: {message}", "audit",
                  "--framework", "{file}", file=data)


def triangle_file(id, message, **fields):
    return framework_file(id, message, {
        "n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "positions": TRIANGLE,
        **fields})


def localization(id, message, *argv, **files):
    """A control run whose range filter cannot use what it holds: exit 6,
    once the t=0 row is written."""
    return Case(id, ("control", *argv), 6, f"localization failed: {message}",
                files, STOPPED)


CASES = [
    # a usage error is a configuration error, not argparse's exit 2, which
    # means a lost rigidity here
    config("unknown-flag", "unrecognized arguments: --bogus",
           "gen", "--bogus"),
    config("no-verb", "the following arguments are required: verb"),
    config("missing-flag-value", "argument --n: expected one argument",
           "gen", "--n"),
    config("unknown-verb", r"argument verb: invalid choice: 'survey' "
           r"\(choose from 'gen', 'ensemble', 'control', 'audit'\)",
           "survey"),
    config("switch-with-value",
           "argument --ground-truth: ignored explicit argument 'x'",
           "control", "--ground-truth=x"),
    config("n-one", "n must be at least 2, got 1", "gen", "--n", "1"),
    # a config file that is no JSON, or names a field no config has
    config("malformed-config", r"cannot read config file: Expecting value: "
           r"line 1 column 1 \(char 0\)", "gen", "--config", "{cfg}",
           cfg="not json {"),
    config("unknown-config-key", "unknown configuration field 'robots'",
           "gen", "--config", "{cfg}", cfg={"robots": 20}),
    # knobs the control block no longer has
    config("weighted-matrix-config", "unknown control field "
           "'weighted_matrix'", "gen", "--config", "{cfg}",
           cfg={"control": {"comm_range": 40.0, "weighted_matrix": False}}),
    config("eig-tol-config", "unknown control field 'eig_tol'", "control",
           *SMALL, "--duration", "1", "--config", "{cfg}",
           cfg={"control": {"comm_range": 40.0, "eig_tol": 1e-6}}),
    # a config value of the wrong JSON type meets its field's own check
    *(config(id, rf"field '{field}' must be of type {kind}, got {got}",
             "gen", "--config", "{cfg}", cfg=data)
      for id, field, kind, got, data in (
          ("string-n-config", "n", "int", "'60'", {"n": "60"}),
          ("float-n-config", "n", "int", r"60\.0", {"n": 60.0}),
          ("bool-width-config", "width", "float", "True", {"width": True}),
          ("int-use-estimates-config", "use_estimates", "bool", "1",
           {"use_estimates": 1}),
          ("string-anchor-config", "anchors", "list of int", r"\('0',\)",
           {"anchors": ["0"]}),
          ("anchors-not-a-list-config", "anchors", "list of int", "5",
           {"anchors": 5}),
          ("fractional-retries-config", "max_step_retries", "int", r"2\.5",
           {"control": {"comm_range": 40.0, "max_step_retries": 2.5}}))),
    config("negative-range-config", r"comm_range must be positive, got -1\.0",
           "gen", "--config", "{cfg}", cfg={"control": {"comm_range": -1.0}}),
    # a flag's text meets its field's own check, in the words the same
    # value in a config file gets
    config("n-not-a-number", "field 'n' must be of type int, got 'x'",
           "gen", "--n", "x"),
    config("negative-estimate-error",
           r"initial_estimate_error must be non-negative, got -1\.0",
           "control", "--seed", "8", "--n", "30", "--range", "40",
           "--duration", "1", "--estimate-error", "-1"),
    config("bad-anchor",
           "field 'anchors' must be of type list of int, got '0,x'",
           "control", "--seed", "8", "--n", "30", "--range", "40",
           "--duration", "1", "--anchors", "0,x"),
    # a seed numpy cannot take, by flag or by config file
    config("negative-seed", "seed must be non-negative, got -1",
           "gen", "--seed", "-1", "--n", "10"),
    config("negative-seed-config", "seed must be non-negative, got -1",
           "gen", "--n", "10", "--config", "{cfg}", cfg={"seed": -1}),
    # a value that is not finite, or out of its field's domain, by flag or
    # by config file: NaN passes every range comparison, and Python's json
    # reads NaN and Infinity
    *(config(id, message, "control", *SMALL, "--duration", "1", *argv,
             **files)
      for id, message, argv, files in (
          ("infinite-duration", "duration must be finite, got inf",
           ("--duration", "inf"), {}),
          ("nan-duration", "duration must be finite, got nan",
           ("--duration", "nan"), {}),
          ("nan-noise", "noise_std must be finite, got nan",
           ("--noise", "nan"), {}),
          ("nan-duration-config", "duration must be finite, got nan",
           ("--config", "{cfg}"), {"cfg": {"duration": float("nan")}}),
          ("infinite-width-config", "width must be finite, got inf",
           ("--config", "{cfg}"), {"cfg": {"width": float("inf")}}),
          ("nan-dt-config", "dt must be finite, got nan",
           ("--config", "{cfg}"),
           {"cfg": {"control": {"comm_range": 40.0, "dt": float("nan")}}}),
          ("zero-range-variance-config",
           "range_variance must be positive, got 0", ("--config", "{cfg}"),
           {"cfg": {"range_variance": 0}}))),
    # negative retries would otherwise run as a rigidity loss at t=0
    config("negative-retries", "max_step_retries must be non-negative, got -1",
           "control", "--seed", "8", "--n", "30", "--range", "40",
           "--duration", "1", "--config", "{cfg}",
           cfg={"control": {"comm_range": 40, "max_step_retries": -1}}),
    # one range draws the network and weighs its links
    config("range-mismatch", "control.comm_range 40 differs from the "
           r"scenario's comm_range 25\.0", "control", "--seed", "8", "--n",
           "30", "--range", "25", "--ground-truth", "--duration", "1",
           "--config", "{cfg}", cfg={"control": {"comm_range": 40}}),
    # sizes are bounded before any work: numpy cannot even shape 10^30
    # rows, 10^9 rejected draws would run for days, and a dt of 1e-300
    # asks for 3e299 ticks
    config("huge-n", f"n {10**30} is above the bound MAX_ROBOTS = 10000000",
           "gen", "--n", str(10**30)),
    config("huge-rejection-budget", "rejection_budget 1000000000 is above "
           "the bound MAX_DRAWS = 1000000", "gen", "--n", "10", "--range",
           "0.001", "--rejection-budget", str(10**9)),
    # a rigidity exponent of 1e300 overflows the barrier's slope, and gains
    # of 1e300 the velocity command's speed: the command is not finite.
    # Each runs on the robots' estimates and on ground truth.
    *(config(id + suffix, message, "control", *TWELVE, "--duration", "0.3",
             "--config", "{cfg}", *truth, cfg={"control": control})
      for id, message, control in (
          ("tiny-dt", r"duration / control.dt asks for 3e\+299 ticks; the "
           "bound is MAX_TICKS = 1000000", {"dt": 1e-300}),
          ("huge-rigidity-exponent", "the rigidity barrier's slope "
           r"overflows float64 at rigidity_exponent 1e\+300",
           {"rigidity_exponent": 1e300}),
          *((f"huge-{gain.replace('_', '-')}", "the velocity command's "
             "speed is inf in float64; the gains or exponents ask for more "
             "than a step can carry", {gain: 1e300})
            for gain in ("k_rigidity", "k_load", "k_collision")))
      for suffix, truth in (("", ()), ("-ground-truth", ("--ground-truth",)))),
    # an ensemble of flexible networks, and a framework with n <= d, read
    # or generated
    config("flexible-ensemble", "the ensemble measures rigid networks only",
           "ensemble", "--seed", "11", "--n", "30", "--range", "22",
           "--count", "10", "--flexible-ok"),
    config("two-node-file", r"framework too small for the rigidity "
           r"eigenvalue test \(n=2 <= d=2\)", "audit", "--framework", "{file}",
           file={"n": 2, "edges": [[0, 1]], "positions": [[0, 0], [1, 0]]}),
    config("n-at-dim", r"framework too small for the rigidity eigenvalue "
           r"test \(n=3 <= d=3\)", "audit", "--n", "3", "--dim", "3",
           "--flexible-ok"),
    # framework files of the wrong shape
    framework_file("top-level-list", "a framework is a JSON object with n, "
                   "edges and positions, got a list", [[0, 1], [1, 2]]),
    framework_file("missing-positions", "the framework object has no "
                   "positions", {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}),
    triangle_file("null-edges", "edges must be a list, got None", edges=None),
    # an edge is a pair of integer node ids, not numbers or strings that
    # read as one, and not a longer row
    *(triangle_file(id, "an edge must be a pair of integer node ids, got "
                    + re.escape(repr(edges[0])), edges=edges)
      for id, edges in (("flat-edges", [1, 2]),
                        ("fractional-edge", [[0, 1.5], [1, 2], [0, 2]]),
                        ("bool-edge", [[0, True], [1, 2], [0, 2]]),
                        ("string-edge", [[0, "1"], [1, 2], [0, 2]]),
                        ("three-wide-edges", [[0, 1, 2], [1, 2, 0]]))),
    # n must be an integer, not a number that rounds to one
    triangle_file("null-n", "n must be an integer, got None", n=None),
    triangle_file("fractional-n", r"n must be an integer, got 3\.7", n=3.7),
    framework_file("bool-n", "n must be an integer, got True",
                   {"n": True, "edges": [], "positions": [[0, 0]]}),
    framework_file("negative-n", "n must be non-negative, got -1",
                   {"n": -1, "edges": [], "positions": []}),
    # a coordinate is a finite number, not a string or a bool that reads as
    # one, nor an integer too large for float64
    triangle_file("nan-position", "positions must be finite",
                  positions=[[0, 0], [1, 0], [0, float("nan")]]),
    triangle_file("string-position", r"a position must be a list of "
                  r"numbers, got \['0', '0'\]",
                  positions=[["0", "0"], ["1", "0"], ["0", "1"]]),
    triangle_file("bool-position", r"a position must be a list of numbers, "
                  r"got \[True, 0\]", positions=[[0, 0], [True, 0], [0, 1]]),
    triangle_file("huge-int-position", "int too large to convert to float",
                  positions=[[0, 0], [10**400, 0], [0, 1]]),
    triangle_file("ragged-positions", "position 1 has 3 coordinates and "
                  "position 0 has 2", positions=[[0, 0], [1, 0, 5], [0, 1]]),
    # finite positions whose edge lengths overflow float64: read as they
    # are, the triangle would have zero unit vectors and be flexible
    triangle_file("far-positions",
                  r"the length of edge \(0, 1\) overflows float64",
                  positions=[[0, 0], [1e200, 0], [0, 1e200]]),
    triangle_file("coincident-file",
                  r"coincident adjacent nodes on edge \(0, 1\)",
                  positions=[[0, 0], [0, 0], [0, 1]]),
    # a region so small that a draw puts adjacent robots at one point
    *(config(f"coincident-{verb}", "the region is too small to place "
             r"distinct robots: coincident adjacent nodes on edge \(2, 7\)",
             verb, "--seed", "1", "--n", "10", "--width", "1e-20",
             "--height", "1e-20", "--range", "40")
      for verb in ("gen", "control")),
    # an output path in a directory that does not exist; the control run
    # opens its CSV before it simulates, so the 200 s reference run fails
    # at once
    config("unwritable-gen-out", f"cannot write output file: {NO_SUCH_PATH}",
           "gen", *SMALL, "--out", "{missing}"),
    *(config(f"unwritable-ensemble-{kind}",
             f"cannot write output file: {NO_SUCH_PATH}", "ensemble",
             "--seed", "11", "--n", "30", "--range", "40", "--count", "3",
             f"--{kind}", "{missing}") for kind in ("csv", "json")),
    config("unwritable-control-csv",
           f"cannot write output file: {NO_SUCH_PATH}", "control",
           "--config", "{configs}/reference_control.json", "--csv",
           "{missing}"),
    # five million robots fit in 80 MB, but their (n, n) pairwise distances
    # (182 TiB) exceed the 128 TiB address space, so numpy refuses them
    # before anything is allocated; where the process may use two cores,
    # the second network is measured in a forked child
    *(config(f"unallocatable-networks-{count}", r"the input needs more "
             r"memory than the machine has \(Unable to allocate 182\. TiB "
             r"for an array with shape \(5000000, 5000000\) and data type "
             r"float64\)", "ensemble", "--seed", "1", "--n", "5000000",
             "--count", count, "--range", "40", "--rejection-budget", "1")
      for count in ("1", "2")),
    # a network with no rigid ball cannot be steered
    Case("flexible-control", ("control", "--seed", "11", "--n", "30",
                              "--range", "22", "--duration", "0.1",
                              "--flexible-ok"),
         2, "rigidity lost: some node has no rigid ball at any radius"),
    # estimates 1e200 m off make the ranges overflow
    localization("huge-estimate-error", "an estimated range is not finite: "
                 "the estimates overflow float64", "--seed", "3", "--n", "40",
                 "--width", "120", "--height", "120", "--duration", "1",
                 "--anchors", "0,1,2", "--estimate-error", "1e200"),
    # ranges 1e200 m off leave every range finite, but the filter puts the
    # believed positions so far apart that their edge lengths overflow
    localization("huge-noise", "the believed positions make no framework: "
                 r"the length of edge \(0, 1\) overflows float64", "--seed",
                 "1", "--n", "20", "--range", "40", "--duration", "0.1",
                 "--noise", "1e200"),
    # ranges of about 1e308 m are finite, but the filter's correction
    # overflows, by flag or by config file
    *(localization(f"noise-near-float64-max{suffix}", "a corrected estimate "
                   "is not finite: the range innovations overflow float64",
                   *TWELVE, "--duration", "0.2", *argv, **files)
      for suffix, argv, files in (
          ("", ("--noise", "1e308"), {}),
          ("-config", ("--config", "{cfg}"), {"cfg": {"noise_std": 1e308}}))),
    # a range variance of 1e-30 is lost beside the covariances: the
    # innovation covariance is singular in float64
    localization("tiny-range-variance", "the innovation covariance is "
                 "singular: range variance 1e-30 is lost against the "
                 "covariances", *TWELVE, "--duration", "0.2", "--config",
                 "{cfg}", cfg={"range_variance": 1e-30}),
]

# every error class the package defines that a run may end on in
# cli.main: its exit code and the row that ends on it, or the test_cli
# test that fakes the broken library it takes; a base class is shown by a
# subclass's row
ERRORS = {
    "ConfigError": (3, "negative-seed"),
    "NonFiniteCommandError": (3, "huge-rigidity-exponent"),
    "FrameworkTooSmallError": (3, "two-node-file"),
    "RigidityLostError": (2, "flexible-control"),
    "ProtocolViolation": (4, "test_protocol_violation_exits_four"),
    "RankMismatchError": (5, "test_rank_mismatch_exits_five"),
    "LocalizationError": (6, "tiny-range-variance"),
    "NonFiniteRangeError": (6, "huge-estimate-error"),
    "SingularInnovationError": (6, "tiny-range-variance"),
    "CoincidentEstimatesError": (6, "test_coincident_estimates_exit_six"),
}

# the error classes no run ends on in cli.main, and why
UNREACHABLE = {
    "CoincidentNodesError": (
        "every caller a verb reaches re-raises it: cli._cmd_audit as a "
        "ConfigError (row coincident-file), experiments.sample_framework as "
        "a ConfigError (row coincident-gen) and simnet._replay as a "
        "CoincidentEstimatesError"),
    "GraphDisconnectedError": (
        "only graphs.diameter and rigidity.diameter_bound_certificate raise "
        "it, and no verb calls either"),
    "EigenvectorsNotSolvedError": (
        "it guards an internal invariant: no caller asks a state solved for "
        "eigenvalues only for its slopes"),
}


def main():
    """Run every row through the installed script; 1 if any run differs."""
    env = {**os.environ, "PYTHONWARNINGS": "error"}
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            argv = ["rigidnet", *case.fill(Path(tmp) / case.id)]
            start = time.monotonic()
            try:
                run = subprocess.run(argv, capture_output=True, text=True,
                                     env=env, timeout=TIME_BOUND)
            except subprocess.TimeoutExpired:
                problems = [f"still running after {TIME_BOUND} s"]
            else:
                problems = judge(case, run.returncode, run.stdout, run.stderr,
                                 time.monotonic() - start)
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'ok'}: {case.id}", *problems,
                  sep="\n  ", flush=True)
    print(f"{len(CASES) - failed} of {len(CASES)} runs as their rows expect")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
