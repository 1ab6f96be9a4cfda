"""README's quickstart runs as written, so a documented name that is
removed fails here instead of going stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:quickstart", "exec"), {"__name__": "readme"})
