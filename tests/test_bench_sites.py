"""The benchmark's tracer wraps gean functions by module and name; every
site it looks for must still exist, or its per-layer metrics go silent."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    assert tracer.missing == []
