"""No module imports a name it never reads.

No linter runs in CI, so this is the project's unused-import check: it
parses every ``.py`` file under src/, tests/, tools/ and demos/ with ast.
A name counts as read where the module loads it or lists it in
``__all__``.  An import kept on purpose carries ``# noqa: F401`` on its
line.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "tools", "demos")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds and the module never reads."""
    nodes = list(ast.walk(ast.parse(source)))
    read = {n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in nodes:  # a name __all__ lists is read by `import *`
        targets = [getattr(t, "id", "") for t in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            read.update(item.value for item in node.value.elts)
    imported = [
        alias for node in nodes
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    lines = source.splitlines()
    return [
        (alias.lineno, name) for alias in imported
        if (name := alias.asname or alias.name.partition(".")[0]) not in read
        and "# noqa: F401" not in lines[alias.lineno - 1]
    ]


def test_the_scan_finds_a_name_never_read_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys  # noqa: F401\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads as parse,\n"
        ")\n"
        "import csv\n"
        "__all__ = ['csv']\n"
        "print(os.path.sep, dumps)\n"
    )
    assert unused_imports(source) == [(6, "parse")]


def test_no_module_imports_a_name_it_never_reads():
    found = {
        f"{path.relative_to(ROOT)}:{line}": name
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unused_imports(path.read_text("utf-8"))
    }
    assert found == {}
