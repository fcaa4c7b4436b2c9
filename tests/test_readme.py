"""README.md's Python blocks run as written and its flag limits match the parser, so neither drifts."""

import argparse
import json
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)  # a block that writes files writes them here
    for i, source in enumerate(blocks, start=1):
        exec(compile(source, f"README.md python block {i}", "exec"), {"__name__": "__readme__"})


def _section(heading: str) -> str:
    """The README text under ``heading``, up to the next heading of any level."""
    text = README.read_text(encoding="utf-8")
    return re.split(r"\n#+ ", text.split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]


def _reproducibility_notes() -> str:
    return _section("## Reproducibility notes")


def test_every_flag_that_refuses_zero_is_listed():
    from forumlens.cli import _all_parsers, build_parser

    refusing = set()
    for parser in _all_parsers(build_parser()):
        for action in parser._actions:
            if action.option_strings and action.type is not None:
                try:
                    action.type("0")
                except (argparse.ArgumentTypeError, ValueError):
                    refusing.add(action.option_strings[0])
    assert {"--epochs", "--warmup-days", "--max-days"} <= refusing
    notes = _reproducibility_notes()
    missing = sorted(f for f in refusing if not re.search(rf"(?<![\w-]){re.escape(f)}(?![\w-])", notes))
    assert not missing, f"README's reproducibility notes do not name {missing}"


def test_every_refused_pair_is_listed():
    from forumlens.cli import _UNREAD, _all_parsers, _unread, build_parser

    # the list items that open with a backquoted path or flag and a colon, joined across lines
    item = re.compile(r"^\s*\* `([^`]+)`:(.*?)(?=^\s*\*|^$|\Z)", re.M | re.S)
    items = {m[1]: " ".join(m[2].split()) for m in item.finditer(_reproducibility_notes())}
    for path, flags in _UNREAD.items():
        missing = [f for f in flags if f"`{f}`" not in items.get(path, "")]
        assert not missing, f"README's reproducibility notes do not refuse {missing} for {path}"
    # --seed is refused on every command but the ones that read it, which the item names
    commands = {p.prog.split()[1] for p in _all_parsers(build_parser()) if len(p.prog.split()) == 2}
    readers = [c for c in commands if "--seed" not in _unread(c)]
    assert readers and all(f"`{c}`" in items["--seed"] for c in readers)


def test_every_spec_and_model_field_is_listed(tmp_path):
    from forumlens.classify import NbModel, SvmModel, save_model
    from forumlens.genmodel import _SPEC_BUILDERS, make_spec

    # each kind's name and the fields it reads: a builder's fields, and the keys that
    # GenerativeSpec.to_json and save_model write, nested models included
    names = set(_SPEC_BUILDERS) | {"explicit", "spec"}
    names |= {f for _, fields in _SPEC_BUILDERS.values() for f in fields}
    spec = json.loads(make_spec(n=40, num_courses=1, epsilon=0.3, p=0.5, s=5, support_size=5).to_json())
    names |= set(spec) | set(spec["background"])
    half = np.log([0.5, 0.5])
    nb = NbModel(("aa", "bb"), half[0], half[1], half, half, 1.0)
    for model in (nb, SvmModel({"aa": 1.0}), {"course00": nb}):
        save_model(model, tmp_path / "model.json")
        obj = json.loads((tmp_path / "model.json").read_text())
        names |= set(obj) | {obj["kind"]} | {key for m in obj.get("models", {}).values() for key in m}
    section = _section("### Spec and model files")
    missing = sorted(name for name in names if f"`{name}`" not in section)
    assert not missing, f"README's spec and model section does not name {missing}"
