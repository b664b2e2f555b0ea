"""The benchmark's tracer patches vcslab functions by name.

`bench/spans.py` replaces each (owner, attribute) of SPANS and COUNTERS
for the length of a traced pass, so a name deleted from vcslab breaks
`bench/run.py --trace 1`.  This test keeps them resolvable.
"""

import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in spans.SPANS + spans.COUNTERS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
