"""Every name the benchmark's tracer wraps still resolves in adsem.

`perfbench/tracing.py` patches functions, methods, binding factories and
binding fields by name; a rename or deletion in adsem would otherwise
only show when a traced benchmark run fails.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from adsem.semantics import VariationBinding

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = _tracing()
    missing = []
    for mod, fn_name, _ in tracing.FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"adsem.{mod}"), fn_name, None)):
            missing.append(f"{mod}.{fn_name}")
    for mod, cls_name, meth, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"adsem.{mod}"), cls_name, None)
        if cls is None or meth not in cls.__dict__:
            missing.append(f"{mod}.{cls_name}.{meth}")
    for mod, factory, _ in tracing.BINDINGS:
        if not callable(getattr(importlib.import_module(f"adsem.{mod}"), factory, None)):
            missing.append(f"{mod}.{factory}")
    fields = {f.name for f in dataclasses.fields(VariationBinding)}
    missing += [f"VariationBinding.{name}" for name in tracing.BINDING_FIELDS
                if name not in fields]
    assert missing == []
    assert len(tracing.FUNCTIONS) + len(tracing.METHODS) + len(tracing.BINDINGS) == 36
