"""The package imports nothing outside the standard library (pyproject
declares ``dependencies = []``)."""

import ast
import sys
from pathlib import Path

import scopdd as sc

SOURCES = sorted(Path(sc.__file__).parent.glob("*.py"))


def absolute_imports(path: Path):
    """(line, top-level module) of each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    assert len(SOURCES) > 5
    outside = [f"{path.name}:{line}: {name}"
               for path in SOURCES for line, name in absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert not outside, outside
