"""The benchmark's tracer rebinds names inside forumlens; every one must exist."""

import ast
import importlib
import importlib.util
import inspect
import sys
import textwrap
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


def _targets(monkeypatch):
    """(attribute as Tracer.install reads it, counter) for every tracer target."""
    tracing = _load("tracing", monkeypatch)
    owners = {"forumgen": _load("forumgen", monkeypatch)}
    found = []
    for owner, attr, _, counter, _ in tracing.TARGETS:
        module_name, _, class_name = owner.partition(":")
        obj = owners.get(module_name) or importlib.import_module(module_name)
        if class_name:
            obj = getattr(obj, class_name)
        # what Tracer.install reads; it raises AttributeError for a missing name
        found.append((inspect.getattr_static(obj, attr), counter))
    return found


def _bound_keys(counter) -> set[str]:
    """Argument names ``counter`` reads as ``_bound(...)["name"]``, directly or through a variable."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(counter)))

    def is_bound_call(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_bound"

    holders = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and is_bound_call(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and (is_bound_call(node.value) or (isinstance(node.value, ast.Name) and node.value.id in holders))
    }


def test_every_tracer_target_resolves(monkeypatch):
    _targets(monkeypatch)


def test_bound_argument_names_are_parameters(monkeypatch):
    # a renamed parameter would otherwise fail only inside a --trace 1 run, as a KeyError
    read = set()
    for raw, counter in _targets(monkeypatch):
        if counter is None:
            continue
        keys = _bound_keys(counter)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        assert keys <= set(inspect.signature(fn).parameters), (counter.__name__, keys)
        read |= keys
    assert "window_threads" in read  # the source scan finds hits_rank's argument
