"""The benchmark's tracer patches package functions by name.

perfbench/tracer.py imports only the standard library, so it is loaded
here by path.  A rename or a dropped re-export in the package then fails
this test, not only a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{func}"
        for module, func, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"frobenius.{module}"), func, None))
    ]
    assert tracer.TARGETS and not missing
