import ast
from pathlib import Path

import sidelab

PACKAGE = Path(sidelab.__file__).parent


def _unused_imports(source: str) -> list[str]:
    """Names that a module's import statements bind but its code never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports("import math\nfrom numpy import eye, ones\nones(2)\n") == [
        "math (line 1)", "eye (line 2)",
    ]
    # the package `__init__` imports its public names to re-export them
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 1
    unused = {path.name: names for path in modules if (names := _unused_imports(path.read_text()))}
    assert unused == {}
