"""The benchmark tracer's wrap targets must exist where the library looks them up."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_trace_target_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [tracing.span_name(owner, attr)
               for owner, attr, _ in tracing.TARGETS if attr not in vars(owner)]
    assert missing == []
