"""Every library name that perfbench/spans.py traces still exists.

The benchmark's traced runs wrap these names and refuse to start on the
first one that is missing, so a rename or deletion in the library fails
here first.  spans.py imports only the standard library, so it is loaded
by path without the benchmark package.
"""

import importlib
import importlib.util
from pathlib import Path

import circlelab.cli  # noqa: F401  (imports every traced module)

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, path, _ in spans.TARGETS:
        obj = importlib.import_module(module)
        for name in path.split("."):
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(f"{module}.{path}")
    assert spans.TARGETS and missing == []
