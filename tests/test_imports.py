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


def _fresh(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """Run `code` with `args` in a fresh interpreter that imports this sidelab."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, *flags, "-c", code, *args], env=env, capture_output=True, text=True)


def test_import_leaves_heavy_modules_unloaded():
    # scipy.linalg costs every task about 45 ms of set-up and 6 MB of resident
    # memory, and only the certificates factor a matrix; scipy.sparse.linalg
    # adds about 20 ms more and only the stepsize bound needs it; mpmath is
    # not a dependency of the library; concurrent.futures.thread (with queue)
    # adds up to 1 MB of peak resident memory to a task that draws no batch,
    # and only `noise.normal_blocks` needs it
    heavy = ("scipy.linalg", "scipy.sparse.linalg", "mpmath", "concurrent.futures.thread")
    done = _fresh(f"import sys, sidelab; print([m for m in {heavy!r} if m in sys.modules])")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


_SCALAR = "[system]\nkind = scalar\nlambda = -1\nmu = 0.5\n\n[task]\nname = {task}\n\n[numeric]\n{numeric}\n"
_LINEAR = "[system]\nkind = linear\nf = {f}\n{noise}\n\n[task]\nname = {task}\n\n[numeric]\n{numeric}\n"
_NOISE = "g1 = 0.3 0.1 ; 0 0.2"
_CONTROLLER = "[system]\nkind = controller\na = 1\nkp = 2\n\n[task]\nname = {task}\n\n[numeric]\n{numeric}\n"


def _configs(tmp_path, cases) -> list[str]:
    paths = []
    for k, (template, fields) in enumerate(cases):
        path = tmp_path / f"c{k}.ini"
        path.write_text(template.format(**fields) + f"\n[output]\ndir = {tmp_path / f'o{k}'}\n")
        paths.append(str(path))
    return paths


def test_random_tasks_never_load_scipy_linalg(tmp_path):
    # `simulate`, `exponent` and `converge` only step the scheme, and
    # `cps-demo` evaluates a closed form; a module that imports scipy.linalg
    # at its top on their path fails here
    configs = _configs(tmp_path, [
        (_SCALAR, dict(task="simulate", numeric="dt = 0.5\nt = 2.0\nsubsteps = 4")),
        (_LINEAR, dict(f="-1 0.5 ; 0.2 -2", noise=_NOISE, task="simulate",
                       numeric="x0 = 1 -1\ndt = 0.5\nt = 1.0\ndriving = brownian")),
        (_SCALAR, dict(task="exponent", numeric="dt = 0.05\nt = 1.0\ntrajectories = 8")),
        (_SCALAR, dict(task="converge", numeric="dt = 0.125\nt = 1.0\ntrajectories = 8\nlevels = 2")),
        (_CONTROLLER, dict(task="cps-demo", numeric="dt = 0.5\nt = 5.0")),
    ])
    code = (
        "import sys; from sidelab.cli import main\n"
        "codes = [main(['--config', path]) for path in sys.argv[1:]]\n"
        "print(codes, 'scipy.linalg' in sys.modules)"
    )
    done = _fresh(code, *configs)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] False"
    assert all((tmp_path / f"o{k}" / "report.txt").exists() for k in range(len(configs)))


def test_certificates_import_scipy_linalg_cold_with_the_same_bytes(tmp_path, capsys):
    # analyze and max-stepsize import scipy.linalg at their first call; in a
    # fresh process under -W error, where a warning that escapes the filter
    # of `lu_factors` (the singular operator) would end the run, they exit
    # and write as they do in this process, which loads it beforehand
    import scipy.linalg  # noqa: F401

    from sidelab.cli import main

    cases = [
        (_SCALAR, dict(task="analyze", numeric="dt_bar = 0.4")),
        (_SCALAR, dict(task="analyze", numeric="dt_bar = 2.0")),
        (_LINEAR, dict(f="0 0 ; 0 0", noise="", task="analyze", numeric="")),
        (_LINEAR, dict(f="-1 0.5 ; 0.2 -2", noise=_NOISE, task="max-stepsize", numeric="")),
        (_LINEAR, dict(f="1 0 ; 0 -1", noise=_NOISE, task="max-stepsize", numeric="")),
        (_SCALAR, dict(task="max-stepsize", numeric="")),
    ]
    codes = []
    for k, path in enumerate(_configs(tmp_path, cases)):
        warm = main(["--config", path, "--out", str(tmp_path / f"warm{k}")])
        codes.append(warm)
        warm_out = capsys.readouterr()
        cold = _fresh("import sys; from sidelab.cli import main; sys.exit(main())",
                      "--config", path, "--out", str(tmp_path / f"cold{k}"), flags=("-W", "error"))
        assert (cold.returncode, cold.stdout, cold.stderr) == (warm, warm_out.out, warm_out.err)
        names = sorted(p.name for p in (tmp_path / f"warm{k}").iterdir())
        assert "report.txt" in names
        assert sorted(p.name for p in (tmp_path / f"cold{k}").iterdir()) == names
        for name in names:
            assert (tmp_path / f"cold{k}" / name).read_bytes() == (tmp_path / f"warm{k}" / name).read_bytes()
    assert codes == [0, 1, 1, 0, 1, 0]


def test_import_starts_no_thread():
    # `noise.normal_blocks` starts its map worker per batch, never at import
    done = _fresh("import threading; before = threading.active_count(); import sidelab; print(threading.active_count() - before)")
    assert done.returncode == 0, done.stderr
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


_BUILTIN_TYPES = (str, bytes, int, float, complex, list, tuple, dict, set, frozenset)
#: attributes of the builtin types: a read such as `text.split` may mean one of them
_BUILTIN_ATTRIBUTES = frozenset().union(*map(dir, _BUILTIN_TYPES))


def _annotated(node: ast.AST | None, classes: set[str]) -> str | None:
    """The class that an annotation names, if it names one alone."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    word = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
    return word if word in classes else None


def _owner(node: ast.AST, classes: set[str], returns: dict[str, str], bound: dict[str, str]) -> str | None:
    """The class of an expression's value, where the AST resolves it: a
    string literal, `Owner` or `module.Owner`, a name bound to an Owner, or a
    call of Owner or of a function annotated to return one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "str"
    if isinstance(node, ast.Name):
        return node.id if node.id in classes else bound.get(node.id)
    if isinstance(node, ast.Attribute) and node.attr in classes:
        return node.attr
    if isinstance(node, ast.Call):
        func = node.func
        word = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        return word if word in classes else returns.get(word)
    return None


def _scope(node: ast.AST):
    """The nodes of a module or function body, without the bodies of the
    functions, lambdas and classes nested in it."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            yield from _scope(child)


def _owned_reads(node: ast.AST, classes: set[str], returns: dict[str, str], bound: dict[str, str] | None = None,
                 inside: frozenset = frozenset()) -> set[tuple[str | None, str]]:
    """(owner, word) of each attribute read, or `getattr` of a string, in
    `node`; the owner is None where the AST does not resolve it.  It
    resolves `self.word` in a method of Owner, `Owner.word`, and `x.word`
    with x bound, in the same function or an enclosing one, by x = Owner(...),
    by a call annotated to return an Owner, or by an annotation.  A read
    that the definition of its own word encloses is left out."""
    bound = bound or {}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        bound = bound | {arg.arg: owner for arg in args if (owner := _annotated(arg.annotation, classes))}
    if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
        bound = dict(bound)
        for sub in _scope(node):
            if isinstance(sub, ast.Assign) and (owner := _owner(sub.value, classes, returns, {})):
                bound.update({target.id: owner for target in sub.targets if isinstance(target, ast.Name)})
            elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name) and (
                    owner := _annotated(sub.annotation, classes)):
                bound[sub.target.id] = owner
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    read = None
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        read = (_owner(node.value, classes, returns, bound), node.attr)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
          and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
        read = (_owner(node.args[0], classes, returns, bound), node.args[1].value)
    found = {read} if read is not None and read[1] not in inside else set()
    for child in ast.iter_child_nodes(node):
        child_bound = bound
        if (isinstance(node, ast.ClassDef) and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child.args.args and "staticmethod" not in map(ast.unparse, child.decorator_list)):
            child_bound = bound | {child.args.args[0].arg: node.name}
        found |= _owned_reads(child, classes, returns, child_bound, inside)
    return found


def _unread_definitions(defining: dict[str, str], reading: list[str]) -> tuple[list[str], list[str]]:
    """Functions, classes, methods and annotated class fields (dunders aside)
    of the `defining` sources, by file name, that no source in `reading`
    reads, and those whose reads it cannot resolve.

    A method or a field is read only as an attribute or a string, anything
    else also as a name; words are matched by name.  A member whose word is
    defined on more than one class, or is an attribute of a builtin type, is
    read only where `_owned_reads` resolves the owner to its class.  If no
    read resolves to it but some read of its word resolves to no owner, or
    a string is its word (as `getattr` of a table entry reads it), the
    member is listed as unresolved, not as unread."""
    trees = [ast.parse(source) for source in reading]
    reads = set().union(*(_names_read(tree) for tree in trees))
    by_attribute = {word for attr, word in reads if attr}
    by_name = by_attribute | {word for attr, word in reads if not attr}
    definitions = []  # (file name, line, owning class or None, word, node)
    for name, source in defining.items():
        tree = ast.parse(source)
        owner_of = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                word = node.name
            elif isinstance(node, ast.AnnAssign) and id(node) in owner_of and isinstance(node.target, ast.Name):
                word = node.target.id
            else:
                continue
            if not (word.startswith("__") and word.endswith("__")):
                definitions.append((name, node.lineno, owner_of.get(id(node)), word, node))
    classes = {word for _, _, _, word, node in definitions if isinstance(node, ast.ClassDef)}
    classes |= {kind.__name__ for kind in _BUILTIN_TYPES}
    returns: dict[str, str | None] = {}
    for _, _, _, word, node in definitions:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (owner := _annotated(node.returns, classes)):
            returns[word] = owner if returns.get(word, owner) == owner else None  # None: names differ
    owners: dict[str, set[str]] = {}
    for _, _, owner, word, _ in definitions:
        if owner is not None:
            owners.setdefault(word, set()).add(owner)
    ambiguous = {word for word, cls in owners.items() if len(cls) > 1 or word in _BUILTIN_ATTRIBUTES}
    owned = set().union(*(_owned_reads(tree, classes, returns) for tree in trees))
    owned |= {(None, node.value) for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread, unresolved = [], []
    for name, line, owner, word, _ in definitions:
        if owner is not None and word in ambiguous:
            if (owner, word) not in owned:
                (unresolved if (None, word) in owned else unread).append(f"{name}:{line} {owner}.{word}")
        elif word not in (by_attribute if owner is not None else by_name):
            unread.append(f"{name}:{line} {word}")
    return unread, unresolved


def test_every_definition_is_read():
    source = ("def f():\n    return f()\n\nclass C:\n    def m(self): pass\n    def n(self): pass\n"
              "class D:\n    u: int\n    v: int\n")
    reading = [source, "C().m()\ngetattr(C, 'n')\nD().u\nm = n = v = 0\nprint(m, n, v)\n"]
    assert _unread_definitions({"a.py": source}, reading) == (["a.py:1 f", "a.py:9 v"], [])
    assert _unread_definitions({"a.py": source}, [source, "print(C, D, f)\n"]) == (
        ["a.py:5 m", "a.py:6 n", "a.py:8 u", "a.py:9 v"], [],
    )
    # `split` names a field of A, a method of B and a method of str: every
    # read resolves to B or to str, so A.split is unread
    source = "class A:\n    split: int\nclass B:\n    def split(self, z):\n        return z\n"
    reading = [source, "b = B()\nprint(A, b.split(1), 'a b'.split())\n"]
    assert _unread_definitions({"a.py": source}, reading) == (["a.py:2 A.split"], [])
    # a read whose owner the AST does not resolve leaves A.split unresolved
    reading.append("def words(text):\n    return text.split()\n")
    assert _unread_definitions({"a.py": source}, reading) == ([], ["a.py:2 A.split"])
    # and so does a string that is its word, as a getattr table holds it
    assert _unread_definitions({"a.py": source}, reading[:2] + ["KEYS = ('split',)\n"]) == ([], ["a.py:2 A.split"])
    # each way an owner resolves: `self`, an annotation, a call annotated to
    # return the class, and the class itself; Q.size alone has no reader
    source = ("class P:\n    dim: int\n    size: int\n    grow: int\n    def area(self):\n        return self.size\n"
              "class Q:\n    dim: int\n    size: int\n    grow: int\n    area: int\n"
              "def make() -> 'Q':\n    return Q()\n")
    reading = [source, "def f(p: P):\n    q = make()\n    return p.dim, q.dim, P.grow, getattr(Q, 'grow'), p.area(), q.area\n"]
    assert _unread_definitions({"a.py": source}, reading) == (["a.py:9 Q.size"], [])

    root = Path(__file__).resolve().parents[1]
    defining = {path.name: path.read_text() for path in sorted((root / "src" / "sidelab").glob("*.py"))}
    reading = [path.read_text() for tree in ("src", "tests", "perfbench")
               for path in sorted((root / tree).rglob("*.py"))]
    assert len(defining) > 1 and len(reading) > len(defining)
    unread, unresolved = _unread_definitions(defining, reading)
    print("members whose readers' owners do not resolve:", *unresolved, sep="\n  ")
    assert unread == []
