"""tools/loc.py: which lines count as code, and what it prints."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)


def test_count_leaves_out_docstrings_comment_lines_and_blank_lines():
    text = (
        '"""A module\n'
        'docstring."""\n'
        "\n"
        "# a comment-only line\n"
        "def f():\n"
        '    """A function docstring."""\n'
        "    return 1  # code with a trailing comment\n"
    )
    assert loc.count(text) == (7, 2)


def test_main_prints_a_line_per_file_then_the_total_last(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n", "utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\n\ny = 2  # two\n', "utf-8")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "b.py: 3, 1",
        f"{Path('pkg', 'a.py')}: 1, 1",
        f"{tmp_path}: 4 physical lines, 2 of code",
    ]
