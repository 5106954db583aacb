"""The benchmark's traced replay wraps the cross-layer names in ``bench/tracing.PATCHES``.

A refactor that drops or rebinds one of those imports breaks the traced run
only when the benchmark runs; this checks every entry here instead: the
attribute exists and is the function of the layer its span name gives.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_patch_names_the_function_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    for module, attr, span in tracing.PATCHES:
        layer, name = span.split(".")
        target = getattr(importlib.import_module(f"lipfree.{layer}"), name)
        assert getattr(module, attr, None) is target, f"{module.__name__}.{attr} vs {span}"
