"""README.md's Python blocks run as written and its flag limits match the parser, so neither drifts."""

import argparse
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)  # a block that writes files writes them here
    for i, source in enumerate(blocks, start=1):
        exec(compile(source, f"README.md python block {i}", "exec"), {"__name__": "__readme__"})


def _reproducibility_notes() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Reproducibility notes", 1)[1].split("\n## ", 1)[0]


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
