"""Every name the benchmark's tracer patches still resolves in credmask.

``bench/tracing.py`` wraps functions by module and attribute name, so a rename
in ``src/`` would only break the traced benchmark run. This reads the tracer's
tables and changes nothing.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = [(module, attr) for module, attr, *_ in
           tracing.SPAN_PATCHES + tracing.COUNTER_PATCHES]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_traced_name_resolves_to_a_callable(module, attr):
    owner, leaf = tracing._resolve(importlib.import_module(module), attr)
    assert callable(getattr(owner, leaf))
