"""Seeded fuzz of the control verb's configuration file and flags.

Every draw writes a config file that sets one to three fields of
ScenarioConfig, WorldConfig or ControlParams (or the control block
itself) to a value from a pool of valid and hostile values, or gives one
scenario flag a hostile text beside up to two valid flags, and runs
`rigidnet control` on it in-process.  Whatever the values, the run must
end with a documented exit code, and a failure must print exactly one
stderr line and no traceback; a numpy warning is an error here, since it
would be a second line.
"""

import dataclasses
import json
import random

import pytest

from rigidnet import cli
from rigidnet.control import ControlParams
from rigidnet.experiments import ScenarioConfig

DOCUMENTED_EXITS = {cli.EXIT_OK, *(code for _, code, _ in cli._EXITS)}

BASE = ["control", "--seed", "3", "--n", "12", "--width", "60", "--height",
        "60", "--range", "40", "--duration", "0.3"]

# values of every type a JSON file can hold, valid or not for any field
HOSTILE = (0, -1, 1e-300, 1e300, float("nan"), float("inf"),
           float("-inf"), True, False, 2.5, "x", None, [1], {"a": 1})

# sizes stay small and valid, so that every draw runs in milliseconds
SIZES = {"n": (5, 12, 20), "rejection_budget": (50, 500),
         "ensemble_count": (1, 5)}

# valid values where a field's default would not suit a short run on the
# base flags' scenario
VALID = {"seed": (0, 7), "width": (60.0,), "height": (60.0,),
         "comm_range": (40.0,), "duration": (0.1, 0.3), "dim": (2, 3),
         "anchors": ([0, 1], []), "use_estimates": (True, False),
         "require_rigid": (True, False)}


# (block, field) of every field a config file can set; block is "control"
# for a field of the control block
TARGETS = ([(None, f) for f in dataclasses.fields(ScenarioConfig)]
           + [("control", f) for f in dataclasses.fields(ControlParams)])

# each draw gives one field one hostile value, so that every pair is drawn
DRAWS = len(TARGETS) * len(HOSTILE)


def _valid(rng, f):
    if f.name in VALID:
        return rng.choice(VALID[f.name])
    return {} if f.name == "control" else f.default


def _set(rng, config, block, f, value):
    if f.name in SIZES:
        value = rng.choice(SIZES[f.name])
    if block is None:
        config[f.name] = value
    elif isinstance(config.setdefault("control", {}), dict):
        config["control"][f.name] = value


def draw_config(index):
    """The config file object of one draw, and whether it runs on ground
    truth: field index % len(TARGETS) takes hostile value index //
    len(TARGETS), after up to two other fields drew valid or hostile
    values of their own."""
    rng = random.Random(index)
    config = {}
    for block, f in rng.sample(TARGETS, rng.randint(0, 2)):
        value = (_valid(rng, f) if rng.random() < 0.5
                 else rng.choice(HOSTILE))
        _set(rng, config, block, f, value)
    block, f = TARGETS[index % len(TARGETS)]
    _set(rng, config, block, f, HOSTILE[index // len(TARGETS)])
    return config, rng.random() < 0.5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", range(DRAWS))
def test_fuzzed_config_ends_with_a_documented_exit(tmp_path, capsys, index):
    config, ground_truth = draw_config(index)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [*BASE, "--config", str(path)]
    if ground_truth:
        argv.append("--ground-truth")
    assert_documented_exit(cli.main(argv), capsys.readouterr().err, config)


def assert_documented_exit(code, err, draw):
    assert code in DOCUMENTED_EXITS, (draw, err)
    assert "Traceback" not in err
    if code == cli.EXIT_OK:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1, (draw, err)


# every text a flag may be given, hostile to some field or other; the three
# size flags take each of them (all refused before a draw) or a small value
TEXTS = ("0", "-1", "1e-300", "1e300", "1e308", "nan", "inf", "-inf", "2.5",
         "x", "", "True", "1" * 30)

FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}

# each draw gives one flag one hostile text, so that every pair is drawn
FLAG_DRAWS = len(cli._FLAGS) * len(TEXTS)


def _text(value):
    return (",".join(map(str, value)) if isinstance(value, list)
            else str(value))


def _flag(rng, flag, text):
    """The words that give flag the text: "flag=text" or "flag text", so
    that a text that looks like an option ("-inf") is tried both ways."""
    return [f"{flag}={text}"] if rng.random() < 0.5 else [flag, text]


def draw_flags(index):
    """The flags of one draw: flag index % len(cli._FLAGS) takes text
    index // len(cli._FLAGS), after up to two other flags drew valid
    values; a switch is valid alone and hostile with a text."""
    rng = random.Random(index)
    argv = []
    for flag in rng.sample(list(cli._FLAGS), rng.randint(0, 2)):
        f = FIELDS[cli._FLAGS[flag]]
        if f.type is bool:
            argv.append(flag)
        else:
            values = SIZES.get(f.name) or VALID.get(f.name) or (f.default,)
            argv += _flag(rng, flag, _text(rng.choice(values)))
    flag = list(cli._FLAGS)[index % len(cli._FLAGS)]
    return argv + _flag(rng, flag, TEXTS[index // len(cli._FLAGS)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", range(FLAG_DRAWS))
def test_fuzzed_flags_end_with_a_documented_exit(capsys, index):
    argv = [*BASE, *draw_flags(index)]
    assert_documented_exit(cli.main(argv), capsys.readouterr().err, argv)


# a framework file that audits as rigid, and where a hostile value goes
# in it: a whole field, one edge's node id, or one coordinate
FRAMEWORK = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]],
             "positions": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
PLACES = (("n",), ("edges",), ("positions",), ("edges", 0, 1),
          ("positions", 1, 0))

# rows of the wrong length, each in place of the field it names
MISSHAPEN = {
    "ragged-positions": ("positions", [[0.0, 0.0], [1.0, 0.0, 0.0],
                                       [0.0, 1.0]]),
    "one-wide-positions": ("positions", [[0.0], [1.0], [2.0]]),
    "four-wide-positions": ("positions", [[0.0] * 4, [1.0] * 4,
                                          [0.0, 1.0, 0.0, 0.0]]),
    "three-d-positions": ("positions", [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                        [0.0, 1.0, 0.0]]),
    "short-positions": ("positions", [[0.0, 0.0], [1.0, 0.0]]),
    "ragged-edges": ("edges", [[0, 1], [1], [0, 2]]),
    "empty-edge": ("edges", [[0, 1], [], [0, 2]]),
}


def framework_draws():
    """(id, framework file object) of every hostile value at every place,
    and of every misshapen field."""
    for place in PLACES:
        for k, value in enumerate(HOSTILE):
            data = json.loads(json.dumps(FRAMEWORK))
            *path, last = place
            target = data
            for key in path:
                target = target[key]
            target[last] = value
            yield f"{'-'.join(map(str, place))}-{k}", data
    for name, (field, value) in MISSHAPEN.items():
        yield name, {**FRAMEWORK, field: value}


FRAMEWORK_DRAWS = dict(framework_draws())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", FRAMEWORK_DRAWS)
def test_fuzzed_framework_file_ends_with_a_documented_exit(tmp_path, capsys,
                                                           name):
    data = FRAMEWORK_DRAWS[name]
    path = tmp_path / "framework.json"
    path.write_text(json.dumps(data))
    code = cli.main(["audit", "--framework", str(path)])
    captured = capsys.readouterr()
    assert_documented_exit(code, captured.err, data)
    if code != cli.EXIT_OK:
        assert captured.out == ""
