"""The repository's code-line counter."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # code with a trailing comment


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that
is not a docstring"""
        return text
'''


def test_counts_only_lines_with_code():
    # import, class, def, the two lines of the string, return
    assert _tool().code_lines(SOURCE) == 6


def test_prints_a_table_with_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = 2\nz = 3\n')
    _tool().main([str(tmp_path)])
    assert capsys.readouterr().out.split("\n") == [
        "b.py       2", "a.py       1", "total      3", ""]
