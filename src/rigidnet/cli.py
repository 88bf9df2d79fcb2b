"""Command line front end: gen, ensemble, control, and audit verbs.

Each scenario flag sets the ScenarioConfig field that _FLAGS names, and its
value meets that field's own check, as the same value in a config file
does; a JSON config file passed with --config overrides any flag value,
and its control block takes comm_range from the scenario when it leaves it
out.  A run exits 0 on success, and every error it ends on prints one
stderr line and no traceback: _EXITS maps each error class to its exit
code and label, an input that needs more memory than the machine has is a
configuration error (3), and an interrupted run (Ctrl-C) exits 130.
"""

import argparse
import dataclasses
import json
import re
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

# the error classes a run may end on, each with its exit code and the label
# of its one stderr line, matched in order
_EXITS = (
    ((ConfigError, FrameworkTooSmallError), EXIT_BAD_CONFIG,
     "configuration error"),
    ((RigidityLostError,), EXIT_RIGIDITY_LOST, "rigidity lost"),
    ((ProtocolViolation,), EXIT_PROTOCOL_VIOLATION, "protocol violation"),
    ((RankMismatchError,), EXIT_RANK_MISMATCH, "rank mismatch"),
    ((LocalizationError,), EXIT_LOCALIZATION_FAILED, "localization failed"),
)

# each scenario flag and the ScenarioConfig field it sets; the flag of a
# bool field switches it off
_FLAGS = {
    "--seed": "seed", "--n": "n", "--width": "width", "--height": "height",
    "--range": "comm_range", "--dim": "dim", "--count": "ensemble_count",
    "--duration": "duration", "--noise": "noise_std",
    "--estimate-error": "initial_estimate_error",
    "--rejection-budget": "rejection_budget", "--anchors": "anchors",
    "--ground-truth": "use_estimates", "--flexible-ok": "require_rigid",
}
_HELP = {"anchors": "comma separated node ids",
         "use_estimates": "drive control from true positions",
         "require_rigid": "accept non-rigid generated frameworks"}
_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}


def _add_scenario_flags(parser):
    parser.add_argument("--config", help="JSON file whose values override flags")
    for flag, name in _FLAGS.items():
        switch = ({"action": "store_const", "const": False}
                  if _TYPES[name] is bool else {})
        parser.add_argument(flag, dest=name, default=argparse.SUPPRESS,
                            help=_HELP.get(name), **switch)


def _parse(kind, text):
    """A flag's text as a value of its field's type; text that does not
    parse is passed on as it is, for the field's own check to name.  A
    switch's stored False stays False."""
    try:
        if kind is tuple:
            return tuple(int(a) for a in text.split(",") if a != "")
        return kind(text)
    except ValueError:
        return text


def _build_config(args):
    fields = {name: _parse(_TYPES[name], getattr(args, name))
              for name in _FLAGS.values() if hasattr(args, name)}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fp:
                overrides = json.load(fp)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(overrides, dict):
            raise ConfigError("config file must hold a JSON object")
        control = overrides.pop("control", None)
        _known("configuration", overrides, ScenarioConfig)
        for key, value in overrides.items():
            # a value of the wrong type meets the field's own check as is
            fields[key] = (tuple(value) if key == "anchors"
                           and isinstance(value, list) else value)
        if control is not None:
            if not isinstance(control, dict):
                raise ConfigError("the control block must be a JSON object")
            _known("control", control, ControlParams)
            # the scenario's range also sets the controller's link weights
            control.setdefault("comm_range", fields.get(
                "comm_range", ScenarioConfig.comm_range))
            fields["control"] = ControlParams(**control)
    return ScenarioConfig(**fields)


def _known(block, given, config):
    """Raise a ConfigError naming the first key of given, in file order,
    that is no field of the config dataclass."""
    names = {f.name for f in dataclasses.fields(config)}
    unknown = [key for key in given if key not in names]
    if unknown:
        raise ConfigError(f"unknown {block} field {unknown[0]!r}")


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


# a negative number in every form float() reads: argparse's own pattern
# takes only -1 and -.5, so it read -1e-3 and -inf as options
_NEGATIVE_NUMBER = re.compile(r"""
    -(?: (?: \d(?:_?\d)* (?: \.(?: \d(?:_?\d)* )? )? | \.\d(?:_?\d)* )
         (?: e[-+]?\d(?:_?\d)* )?
       | inf(?:inity)? | nan )$""", re.IGNORECASE | re.VERBOSE)


class _Parser(argparse.ArgumentParser):
    """A usage error (an unknown flag, a missing verb or value) is a
    configuration error, not argparse's exit 2 after a usage dump.  A word
    that is a negative number is a flag's value, never an option: no
    option looks like one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        sys.stderr.write("configuration error: the input needs more memory "
                         f"than the machine has{detail}\n")
        return EXIT_BAD_CONFIG
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return EXIT_INTERRUPTED
    except Exception as exc:
        for classes, code, label in _EXITS:
            if isinstance(exc, classes):
                sys.stderr.write(f"{label}: {exc}\n")
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
