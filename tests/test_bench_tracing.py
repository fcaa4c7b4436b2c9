"""The benchmark's tracer rebinds names inside forumlens; every one must exist, and its counters run."""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
import textwrap
from pathlib import Path

import corpus_oracle
import forumlens.cli  # loads every module the tracer patches
import forumlens.topics  # noqa: F401
from forumlens.corpus import day_index
from forumlens.ranking import sample_query_days

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


def _multi_author_corpus(path) -> None:
    """Two courses over five days, each thread answered by a few of eight authors, some of them staff."""
    words = ["lecture", "quiz", "matrix", "essay", "proof", "video"]
    with open(path, "w", encoding="utf-8") as fh:
        for c, course in enumerate(["c0", "c1"]):
            for j in range(50):
                created = j * 8640  # ten threads a day
                authors = [f"u{(j + c) * k % 8}" for k in range(1, 2 + j % 4)]
                posts = [{"post_id": f"p{i}", "author_id": a, "timestamp": created + i,
                          "text": f"{words[(j + i) % 6]} {words[(j * i + c) % 6]}", "is_staff": i == 2}
                         for i, a in enumerate(authors)]
                label = "SmallTalk" if j % 3 == 0 else None
                fh.write(json.dumps({"course_id": course, "thread_id": f"t{j:02d}", "created_at": created,
                                     "label": label, "posts": posts}) + "\n")


def test_tracer_counts_hits(tmp_path, monkeypatch):
    """The benchmark's counters run on the arguments the program passes them."""
    tracing = _load("tracing", monkeypatch)
    for owner_name, attr, *_ in tracing.TARGETS:
        owner = tracing._resolve(owner_name)
        if owner is not None:  # monkeypatch puts back the name that install rebinds
            monkeypatch.setattr(owner, attr, inspect.getattr_static(owner, attr))
    tracer = tracing.Tracer("test")
    tracer.install()
    path = tmp_path / "c.jsonl"
    _multi_author_corpus(path)
    data = ["--threads", str(path), "--course", "c0", "--query", "1"]
    rank = ["rank", "--algo", "hits", "--warmup", "1", *data, "--out", str(tmp_path / "rank")]
    compare = ["compare", "--low", "1", "--high", "2", "--extra-days", "1", *data, "--out", str(tmp_path / "compare")]
    for argv in (rank, compare):
        assert tracer.run_command(forumlens.cli.main, argv) == 0, argv
    # one HITS window through day 2 for rank, then one through day d + 1 for each compare day d
    course = corpus_oracle.ingest_corpus(path).courses[0]
    windows = [2] + [d + 1 for d in sample_query_days(1, 2, 1)]
    edges = sum(len(t.participants) for last in windows for t in course.threads
                if day_index(t.created_at, course.start_date) <= last)
    assert tracer.counts["ranking.hits_calls"] == len(windows)
    assert tracer.counts["ranking.hits_edges"] == edges
    assert tracer.counts["ranking.hits_unconverged"] == 0
