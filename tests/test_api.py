import re
from pathlib import Path

import circpart as cp

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves_once():
    assert len(cp.__all__) == len(set(cp.__all__))
    assert [name for name in cp.__all__ if not hasattr(cp, name)] == []


def test_readme_quick_start_runs():
    # the Python block under "Library quick start" is run as written, asserts included
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None and "cp.respecting_group" in block[1]
    exec(compile(block[1], f"{README}:quick start", "exec"), {})
