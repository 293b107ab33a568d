"""The benchmark's tracer (perfbench/tracing.py) wraps program functions
by the names their callers look up. Every one of those names must exist,
or `perfbench/run.py --trace 1` fails, and each must be put back after
tracing."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    if not (PERFBENCH / "tracing.py").is_file():
        pytest.skip("no perfbench/ in this checkout")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_wraps_existing_names_and_restores_every_one(tracing):
    tracer = tracing.Tracer()
    try:
        with tracer.installed():
            wrapped = list(tracer._saved)
            assert wrapped
            for owner, attr, original in wrapped:
                assert getattr(owner, attr) is not original, attr
    finally:
        tracer.restore()  # also after a partial install
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr
