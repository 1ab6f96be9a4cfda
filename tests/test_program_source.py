"""Rules on the program's own source, read from src/ with ast.

The budget and shape checks must hold under python -O, which strips assert
statements, so the program may not use them.  A deletion must not leave a
dead import behind; a package's __init__.py re-exports, and a line marked
"# noqa: F401" keeps a name on purpose (the benchmark tracer hooks one in
construct.py).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def assert_statements(root):
    """'path:line' of every assert statement in the .py files under root."""
    return [f"{path}:{node.lineno}" for path in sorted(Path(root).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)]


def unused_imports(root):
    """'path:line: name' of every imported name no Name node of its module
    reads, outside __init__.py files, __future__ imports and lines marked
    "# noqa: F401"."""
    found = []
    for path in sorted(Path(root).rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text, str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                        found.append(f"{path}:{alias.lineno}: {name}")
    return found


def test_no_assert_statements_in_the_program():
    assert assert_statements(SRC) == []


def test_no_unused_imports_in_the_program():
    assert unused_imports(SRC) == []


def test_the_rules_find_what_they_look_for(tmp_path):
    (tmp_path / "__init__.py").write_text("import os\n")
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys  # noqa: F401  kept on purpose\n"
        "from json import dumps, loads as read\n"
        "assert read\n"
    )
    mod = tmp_path / "mod.py"
    assert assert_statements(tmp_path) == [f"{mod}:5"]
    assert unused_imports(tmp_path) == [f"{mod}:2: os", f"{mod}:4: dumps"]
