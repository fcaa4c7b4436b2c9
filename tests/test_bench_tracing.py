"""The benchmark's tracer rebinds names inside forumlens; every one must exist."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import forumlens.cli  # noqa: F401  (loads every module the tracer patches)
import forumlens.topics  # noqa: F401

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the module executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    owners = {"forumgen": _load("forumgen", monkeypatch)}
    for owner, attr, *_ in tracing.TARGETS:
        module_name, _, class_name = owner.partition(":")
        obj = owners.get(module_name) or importlib.import_module(module_name)
        if class_name:
            obj = getattr(obj, class_name)
        # what Tracer.install reads; it raises AttributeError for a missing name
        inspect.getattr_static(obj, attr)
