"""README.md's Python blocks run as written, so the library tour cannot silently break."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)  # a block that writes files writes them here
    for i, source in enumerate(blocks, start=1):
        exec(compile(source, f"README.md python block {i}", "exec"), {"__name__": "__readme__"})
