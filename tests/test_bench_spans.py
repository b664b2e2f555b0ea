"""The benchmark's tracer patches vcslab functions by name.

`bench/spans.py` replaces each (owner, attribute) of SPANS and COUNTERS
for the length of a traced pass, so a name deleted from vcslab breaks
`bench/run.py --trace 1`, and a name the CLI no longer calls records
nothing.  These tests keep them resolvable and the CLI's spans live.
"""

import importlib.util
from pathlib import Path

import pytest

from vcslab.cli import main

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in spans.SPANS + spans.COUNTERS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_every_cli_span_records_during_a_report(spans, monkeypatch, capsys):
    # only the names the CLI looks up are patched, so each span below
    # comes from the CLI's own call
    cli_spans = [entry for entry in spans.SPANS if entry[0] is spans.cli]
    monkeypatch.setattr(spans, "SPANS", cli_spans)
    monkeypatch.setattr(spans, "COUNTERS", [])
    with spans.Tracer() as tracer:
        assert main(["report", "--nmax", "2"]) == 0
    capsys.readouterr()
    recorded = {span[1] for span in tracer.spans}
    assert sorted({name for _, _, name in cli_spans} - recorded) == []
