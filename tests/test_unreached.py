"""tools/unreached.py: which lines a module's code objects can run."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "unreached.py"
_SPEC = importlib.util.spec_from_file_location("unreached", _PATH)
unreached = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(unreached)


def test_executable_lines_cover_nested_code_and_skip_comments_and_docstrings():
    text = (
        '"""A module docstring."""\n'  # 1: stored as __doc__
        "\n"
        "# a comment-only line\n"
        "def f(x):\n"  # 4
        '    """A function docstring."""\n'
        "    if x:\n"  # 6: in the function's own code object
        "        return 1\n"  # 7
        "    return [y for y in x]\n"  # 8
        "\n"
        "\n"
        "class C:\n"  # 11
        "    z = 2\n"  # 12: in the class body's code object
    )
    code = compile(text, "<snippet>", "exec")
    assert unreached.executable_lines(code) == {1, 4, 6, 7, 8, 11, 12}
