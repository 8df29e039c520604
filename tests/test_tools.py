"""The repository's code-line counter and unused-import scan, and the
package's export list, which the scan does not read."""

import ast
import importlib.util
from pathlib import Path

import shapfact

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name="code_lines"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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


IMPORTS = '''from __future__ import annotations

import os.path
import sys
import numpy as np
from typing import TYPE_CHECKING, Optional
from json import dumps as to_json, loads


def f(x: Optional[int]) -> None:
    np.asarray(os.path.sep)
    return loads(x)
'''


def test_lists_imported_names_used_nowhere_else():
    # the future import and os (bound by ``import os.path``) are used
    assert _tool("unused_imports").unused_imports(IMPORTS) == [
        (4, "sys"), (6, "TYPE_CHECKING"), (7, "to_json")]


def test_scan_skips_package_inits_and_fails_on_a_finding(tmp_path, capsys):
    scan = _tool("unused_imports")
    (tmp_path / "__init__.py").write_text("from .a import x\n")
    (tmp_path / "a.py").write_text("import os\nx = 1\n")
    assert scan.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out == f"{tmp_path.as_posix()}/a.py:1: os\n"
    (tmp_path / "a.py").write_text("x = 1\n")
    assert scan.main([str(tmp_path)]) == 0


def test_package_exports_exactly_what_it_imports():
    # the scan skips package inits, so no tool sees a name imported there
    # and left out of the export list, or one listed and never imported
    tree = ast.parse(Path(shapfact.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(shapfact.__all__) == len(set(shapfact.__all__))
    assert sorted(shapfact.__all__) == sorted(imported)
