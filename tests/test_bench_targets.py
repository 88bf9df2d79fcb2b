"""The benchmark tracer's wrap targets must exist where the library looks them up."""

import importlib.util
from pathlib import Path

import numpy as np

from rigidnet import simnet
from rigidnet.control import ControlParams
from rigidnet.experiments import (
    ScenarioConfig,
    run_ensemble_experiment,
    sample_framework,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_target_is_an_attribute_of_its_owner():
    tracing = load_tracing()
    missing = [tracing.span_name(owner, attr)
               for owner, attr, _ in tracing.TARGETS if attr not in vars(owner)]
    assert missing == []


def test_a_short_traced_run_calls_every_trace_target():
    # a target that the library stops calling leaves its layer dark
    tracing = load_tracing()
    config = ScenarioConfig(seed=1, n=12, width=50.0, height=50.0,
                            comm_range=40.0, ensemble_count=2)
    fw, _ = sample_framework(np.random.default_rng(1), config)
    params = ControlParams(comm_range=40.0, dt=0.1, k_rigidity=10.0)
    wconfig = simnet.WorldConfig(use_estimates=True, anchors=(0, 1),
                                 noise_std=0.05, initial_estimate_error=0.3,
                                 seed=3)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        world = simnet.make_world(fw, params, wconfig)
        for _ in range(3):
            simnet.step_simulation(world)
        run_ensemble_experiment(config)
    names = {tracing.span_name(owner, attr) for owner, attr, _ in tracing.TARGETS}
    assert names - {span.name for span in tracer.spans} == set()
