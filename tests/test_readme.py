"""README.md's Quick start block runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no python block under Quick start"
    exec(compile(block.group(1), f"{README}:Quick start", "exec"), {})
