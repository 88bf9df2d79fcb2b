"""Command line front end: gen, ensemble, control, and audit verbs.

Flags mirror the scenario fields; a JSON config file passed with --config
overrides any flag value, and its control block takes comm_range from the
scenario when it leaves it out.  Exit codes: 0 on success, 2 when a
control run loses rigidity, 3 for an invalid configuration (an unknown
field, a value of the wrong type, a value out of range or not finite, a
control block whose comm_range differs from the scenario's, a framework
file of the wrong shape or with a coordinate that is not a number (a
string or a bool), a seed that is not a non-negative integer, a node
count that is not an integer, a framework too small for the rigidity test,
a generated draw with two adjacent robots at one point, a framework whose
positions or edge lengths are not finite in float64, a duration /
control.dt above simnet.MAX_TICKS, an ensemble_count above
experiments.MAX_NETWORKS, a rejection_budget above experiments.MAX_DRAWS, a velocity command that
is not finite in float64 (NonFiniteCommandError, as gains or exponents of
1e300 make it), an output path that cannot be written, or an input that
needs more memory than the machine has, such as an n whose dense pairwise
arrays cannot be allocated),
4 when the message exchange breaks its protocol (a send across a
non-edge, or a pair still undelivered after 2 * eta rounds), 5 when the
rank test and the eigenvalue test of a rigidity report disagree, 6 when
localization fails (a localization.LocalizationError: coincident neighbor
estimates, a range or a believed edge length that is not finite in
float64, or an innovation covariance that is singular in float64), and 130
when the run is interrupted (Ctrl-C), with one line and no traceback.
"""

import argparse
import json
import sys

from .control import ControlParams, RigidityLostError
from .experiments import (
    ConfigError,
    ScenarioConfig,
    framework_from_json,
    framework_to_json,
    generate_scenario,
    open_output,
    run_control_experiment,
    run_ensemble_experiment,
)
from .localization import LocalizationError
from .rigidity import (
    FrameworkTooSmallError,
    RankMismatchError,
    rigidity_report,
)
from .simnet import ProtocolViolation

EXIT_OK = 0
EXIT_RIGIDITY_LOST = 2
EXIT_BAD_CONFIG = 3
EXIT_PROTOCOL_VIOLATION = 4
EXIT_RANK_MISMATCH = 5
EXIT_LOCALIZATION_FAILED = 6
EXIT_INTERRUPTED = 130

# scenario fields set by a flag of the same name; argparse types them
_SCENARIO_FLAGS = ("seed", "n", "width", "height", "comm_range", "dim",
                   "ensemble_count", "duration", "noise_std",
                   "initial_estimate_error", "rejection_budget")


def _add_scenario_flags(parser):
    parser.add_argument("--config", help="JSON file whose values override flags")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--width", type=float)
    parser.add_argument("--height", type=float)
    parser.add_argument("--range", dest="comm_range", type=float)
    parser.add_argument("--dim", type=int)
    parser.add_argument("--count", dest="ensemble_count", type=int)
    parser.add_argument("--duration", type=float)
    parser.add_argument("--noise", dest="noise_std", type=float)
    parser.add_argument("--estimate-error", dest="initial_estimate_error",
                        type=float)
    parser.add_argument("--rejection-budget", dest="rejection_budget",
                        type=int)
    parser.add_argument("--anchors", help="comma separated node ids")
    parser.add_argument("--ground-truth", action="store_true",
                        help="drive control from true positions")
    parser.add_argument("--flexible-ok", action="store_true",
                        help="accept non-rigid generated frameworks")


def _build_config(args):
    fields = {}
    for name in _SCENARIO_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            fields[name] = value
    if getattr(args, "anchors", None):
        try:
            fields["anchors"] = tuple(
                int(a) for a in args.anchors.split(",") if a != "")
        except ValueError:
            raise ConfigError("anchors must be comma separated node ids, "
                              f"got {args.anchors!r}")
    if getattr(args, "ground_truth", False):
        fields["use_estimates"] = False
    if getattr(args, "flexible_ok", False):
        fields["require_rigid"] = False
    if getattr(args, "config", None):
        try:
            with open(args.config) as fp:
                overrides = json.load(fp)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(overrides, dict):
            raise ConfigError("config file must hold a JSON object")
        control = overrides.pop("control", None)
        for key, value in overrides.items():
            # a value of the wrong type meets the field's own check as is
            fields[key] = (tuple(value) if key == "anchors"
                           and isinstance(value, list) else value)
        if control is not None:
            if not isinstance(control, dict):
                raise ConfigError("the control block must be a JSON object")
            # the scenario's range also sets the controller's link weights
            control.setdefault("comm_range", fields.get(
                "comm_range", ScenarioConfig.comm_range))
            try:
                fields["control"] = ControlParams(**control)
            except TypeError as exc:
                raise ConfigError(f"bad control parameters: {exc}")
    try:
        return ScenarioConfig(**fields)
    except TypeError as exc:
        raise ConfigError(f"unknown configuration field: {exc}")


def _cmd_gen(args):
    config = _build_config(args)
    fw = generate_scenario(config)
    text = json.dumps(framework_to_json(fw), indent=1) + "\n"
    if args.out:
        with open_output(args.out) as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_ensemble(args):
    config = _build_config(args)
    _, summary = run_ensemble_experiment(
        config, csv_path=args.csv, json_path=args.json)
    sys.stdout.write(json.dumps(summary, indent=1) + "\n")
    return EXIT_OK


def _cmd_control(args):
    config = _build_config(args)
    world, rows, error = run_control_experiment(
        config, csv_path=args.csv, snapshot_path=args.snapshot)
    last = rows[-1] if rows else None
    sys.stdout.write(json.dumps({
        "time": world.time,
        "rows": len(rows),
        "min_rho": None if last is None else last["rho_min"],
        "rigidity_lost": isinstance(error, RigidityLostError),
    }, indent=1) + "\n")
    if error is not None:
        # main maps the error to its exit code and stderr line
        raise error
    return EXIT_OK


def _cmd_audit(args):
    if args.framework:
        try:
            with open(args.framework) as fp:
                fw = framework_from_json(json.load(fp))
        except (OSError, json.JSONDecodeError, KeyError, TypeError,
                ValueError, OverflowError) as exc:
            raise ConfigError(f"cannot read framework file: {exc}")
    else:
        fw = generate_scenario(_build_config(args))
    report = rigidity_report(fw)
    sys.stdout.write(report.to_json() + "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rigidnet",
        description="rigidity analysis and maintenance experiments")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a framework and write it as JSON")
    _add_scenario_flags(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("ensemble", help="measure many random networks")
    _add_scenario_flags(p)
    p.add_argument("--csv", help="per-network records CSV path")
    p.add_argument("--json", help="records plus summary JSON path")
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("control", help="run the closed control loop")
    _add_scenario_flags(p)
    p.add_argument("--csv", help="time series CSV path")
    p.add_argument("--snapshot",
                   help="diagnostic JSON path when the run stops on an error")
    p.set_defaults(func=_cmd_control)

    p = sub.add_parser("audit", help="rigidity report of one framework")
    _add_scenario_flags(p)
    p.add_argument("--framework", help="framework JSON path (else generated)")
    p.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FrameworkTooSmallError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_BAD_CONFIG
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        sys.stderr.write("configuration error: the input needs more memory "
                         f"than the machine has{detail}\n")
        return EXIT_BAD_CONFIG
    except RigidityLostError as exc:
        sys.stderr.write(f"rigidity lost: {exc}\n")
        return EXIT_RIGIDITY_LOST
    except ProtocolViolation as exc:
        sys.stderr.write(f"protocol violation: {exc}\n")
        return EXIT_PROTOCOL_VIOLATION
    except RankMismatchError as exc:
        sys.stderr.write(f"rank mismatch: {exc}\n")
        return EXIT_RANK_MISMATCH
    except LocalizationError as exc:
        sys.stderr.write(f"localization failed: {exc}\n")
        return EXIT_LOCALIZATION_FAILED
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
