"""The names the traced benchmark wraps exist in the package.

``perfbench/spans.py`` wraps functions and methods by name when a run
asks for ``--trace 1``, and ``Tracer.install`` fails on a name the
package no longer has. Reading its tables here makes a deletion fail
tier-1, not only the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists():
    spans = _spans()
    for mod, name, *_ in spans.TIMED + spans.COUNTED:
        assert callable(getattr(importlib.import_module(f"halfmatch.{mod}"), name, None)), (
            mod, name)
    for mod, cls, meth, _ in spans.TIMED_METHODS:
        assert meth in vars(getattr(importlib.import_module(f"halfmatch.{mod}"), cls)), (
            mod, cls, meth)
