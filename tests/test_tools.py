import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_code_lines_leaves_out_blanks_comments_and_docstrings():
    source = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts as its line


# a comment line
class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring,

        over three lines."""
        text = """a multi-line string
that is not a docstring"""
        return math.pi, text
'''
    # import, class, def, the two lines of text, return
    assert code_lines.code_lines(source) == 6
    assert code_lines.code_lines("") == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\ny = 2\n', encoding="utf-8")
    (tmp_path / "b.py").write_text("z = 3\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "a                2", "b                1", "total            3", ""
    ]
