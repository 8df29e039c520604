"""List the names that Python modules import but never use.

An imported name is used when it occurs anywhere else in its module as a
name, including as the root of an attribute (``np`` in ``np.array``) and
inside annotations.  ``from __future__`` imports are never listed, and a
package's ``__init__.py`` is not scanned: its imports are the package's
exports.

Usage: ``python tools/unused_imports.py [PATH ...]`` (default ``src tests
tools``); a path is a module or a directory searched for modules.  Prints
one ``path:line: name`` line per unused name and exits with status 1 when
there is any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def unused_imports(source: str) -> list[tuple[int, str]]:
    """The ``(line, name)`` of each name ``source`` imports but never
    uses, in line order."""
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for line, name in imported if name not in used)


def main(argv: list[str]) -> int:
    found = 0
    for root in map(Path, argv or ["src", "tests", "tools"]):
        paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in paths:
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text()):
                print(f"{path.as_posix()}:{line}: {name}")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
