import ast
import os
import subprocess
import sys
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


def test_only_noise_names_the_plan():
    # the library reads its draws by key through `noise.draws` and
    # `noise.normal_blocks`; `NoisePlan` is a grid view for tests and the bench
    naming = [path.name for path in sorted(PACKAGE.glob("*.py")) if "NoisePlan" in path.read_text()]
    assert naming == ["noise.py"]


def test_only_noise_names_the_block_caps():
    # one block-length rule: the batched kernels size their blocks through
    # `noise.block_slots`, which alone reads its two caps
    naming = [path.name for path in sorted(PACKAGE.glob("*.py"))
              if "_BLOCK_DRAWS" in (text := path.read_text()) or "_BLOCK_SLOTS" in text]
    assert naming == ["noise.py"]


def test_import_leaves_heavy_modules_unloaded():
    # scipy.sparse.linalg costs every task about 35 ms of set-up and only the
    # stepsize bound needs it; mpmath is not a dependency of the library;
    # concurrent.futures.thread (with queue) adds up to 1 MB of peak resident
    # memory to a task that draws no batch, and only `noise.normal_blocks`
    # needs it
    heavy = ("scipy.sparse.linalg", "mpmath", "concurrent.futures.thread")
    code = f"import sys, sidelab; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_import_starts_no_thread():
    # `noise.normal_blocks` starts its map worker per batch, never at import
    code = "import threading; before = threading.active_count(); import sidelab; print(threading.active_count() - before)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0"


def _names_read(node: ast.AST, inside: frozenset = frozenset()) -> set[tuple[bool, str]]:
    """(by attribute, word) of each read in `node`: a name (False), or an
    attribute or a string for `getattr` (True); a read that the definition of
    its own word encloses is left out."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        read = (False, node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        read = (True, node.attr)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        read = (True, node.value)
    else:
        read = None
    found = {read} if read is not None and read[1] not in inside else set()
    for child in ast.iter_child_nodes(node):
        found |= _names_read(child, inside)
    return found


def _unread_definitions(defining: dict[str, str], reading: list[str]) -> list[str]:
    """Functions, classes, methods and annotated class fields (dunders aside)
    of the `defining` sources, by file name, that no source in `reading`
    reads.  A method or a field is read only as an attribute or a string,
    anything else also as a name.  Words are matched by name, not by owner:
    a field `p` counts as read wherever any `.p` is read."""
    reads = set().union(*(_names_read(ast.parse(source)) for source in reading))
    by_attribute = {word for attr, word in reads if attr}
    by_name = by_attribute | {word for attr, word in reads if not attr}
    unread = []
    for name, source in defining.items():
        tree = ast.parse(source)
        members = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                word, read = node.name, by_attribute if id(node) in members else by_name
            elif isinstance(node, ast.AnnAssign) and id(node) in members and isinstance(node.target, ast.Name):
                word, read = node.target.id, by_attribute
            else:
                continue
            if not (word.startswith("__") and word.endswith("__")) and word not in read:
                unread.append(f"{name}:{node.lineno} {word}")
    return unread


def test_every_definition_is_read():
    source = ("def f():\n    return f()\n\nclass C:\n    def m(self): pass\n    def n(self): pass\n"
              "class D:\n    u: int\n    v: int\n")
    reading = [source, "C().m()\ngetattr(C, 'n')\nD().u\nm = n = v = 0\nprint(m, n, v)\n"]
    assert _unread_definitions({"a.py": source}, reading) == ["a.py:1 f", "a.py:9 v"]
    assert _unread_definitions({"a.py": source}, [source, "print(C, D, f)\n"]) == [
        "a.py:5 m", "a.py:6 n", "a.py:8 u", "a.py:9 v",
    ]
    root = Path(__file__).resolve().parents[1]
    defining = {path.name: path.read_text() for path in sorted((root / "src" / "sidelab").glob("*.py"))}
    reading = [path.read_text() for tree in ("src", "tests", "perfbench")
               for path in sorted((root / tree).rglob("*.py"))]
    assert len(defining) > 1 and len(reading) > len(defining)
    assert _unread_definitions(defining, reading) == []
