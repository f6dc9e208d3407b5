"""Every module-level import in the package and the tests is used, every
name and method the package defines is read by the program, importing the
package loads none of its modules, neither its counting layer nor the exact
``critical-size`` and ``check`` path loads numpy, and that path loads no
``dataclasses`` either."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "aplab").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import and never read in the module.

    ``from __future__`` imports bind nothing and are skipped.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_module_level_imports():
    sample = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom math import comb, log\n"
              "def f(x: int) -> float:\n    return np.abs(log(x))\n")
    assert unused_imports(sample) == ["line 2: os", "line 4: comb"]
    found = {}
    for path in SOURCES:
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert not found, found


def defined_names(source: str) -> dict[str, int]:
    """Module-level defs, classes and assigned constants, and as ``C.name`` the
    methods and properties of module-level classes, dunders aside.

    NamedTuple fields are annotations and ``__slots__`` entries are strings,
    not defs, and are left out: ``_asdict`` reads fields without naming them.
    """
    names = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[stmt.name] = stmt.lineno
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names[f"{stmt.name}.{item.name}"] = item.lineno
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = stmt.lineno
    return {n: line for n, line in names.items()
            if not n.rpartition(".")[2].startswith("__")}


def referenced_names(source: str) -> set[str]:
    """Names read and imported, and as ``.name`` the attributes touched, also
    inside strings.

    A string that parses as Python is read the same way: that covers
    ``__all__`` entries, the attribute names given to ``setattr`` and
    ``monkeypatch.setattr``, and scripts run in a child interpreter.
    Prose does not parse, and a definition site is none of these.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add("." + node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                found |= referenced_names(node.value)
            except (SyntaxError, ValueError):
                pass
    return found


def is_read(name: str, used: set[str]) -> bool:
    """A module-level name is read by name or as an attribute; a method or
    property ``C.name`` only as an attribute, so a local of the same name
    does not keep it."""
    owner, _, attr = name.rpartition(".")
    return "." + attr in used or (not owner and attr in used)


def test_every_package_name_is_referenced():
    """Every package name, and every method and property of a package class,
    is read in ``src/`` or ``perfbench/``: tests do not count as readers."""
    sample = ("X = 1\n_y: int = 2\n__all__ = ['C']\ndef f():\n    '''Doc.'''\n"
              "class C:\n    Z = 3\n    def g(self):\n        pass\n"
              "    def __len__(self):\n        return 0\nf('print(m.W)', g, m.X)\n")
    defined = defined_names(sample)
    assert defined == {"X": 1, "_y": 2, "f": 4, "C": 6, "C.g": 8}
    used = referenced_names(sample)
    assert used == {"int", "C", "f", "print", "m", ".W", "g", ".X"}
    assert [name for name in defined if not is_read(name, used)] == ["_y", "C.g"]
    readers = [path for top in ("src", "perfbench")
               for path in sorted((ROOT / top).rglob("*.py"))]
    used = set().union(*(referenced_names(path.read_text(encoding="utf-8"))
                         for path in readers))
    dead = {}
    for path in PACKAGE:
        names = defined_names(path.read_text(encoding="utf-8"))
        unused = [f"line {line}: {name}" for name, line in names.items()
                  if not is_read(name, used)]
        if unused:
            dead[path.name] = unused
    assert not dead, dead


def test_import_aplab_loads_nothing():
    """A fresh ``import aplab`` loads no package module and no numpy, and
    binds no public name, so ``from aplab import decide`` fails."""
    script = ("import sys\n"
              "import aplab\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.split('.')[0] in ('aplab', 'numpy')), file=sys.stderr)\n"
              "print(sorted(n for n in vars(aplab) if not n.startswith('_')), file=sys.stderr)\n"
              "try:\n"
              "    from aplab import decide\n"
              "except ImportError:\n"
              "    print('ImportError', file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert done.stderr.splitlines()[-3:] == ["['aplab']", "[]", "ImportError"]


def test_counting_layer_loads_no_numpy():
    """A fresh interpreter importing ``counting``, ``groups`` and ``records``
    loads no numpy: subsets are int bitmasks and payloads hold builtins."""
    script = ("import sys\n"
              "import aplab.counting, aplab.groups, aplab.records\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'),\n"
              "      file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert done.stderr.splitlines()[-1] == "[]"


@pytest.mark.parametrize("script", [
    "import aplab.cli",
    "import aplab.rng",
    "import aplab.intersectivity",
    "import aplab.cli\n"
    "aplab.cli.main(['critical-size', '--modulus', '31', '--k', '2', '--epsilon', '0.45',\n"
    "                '--trials', '8', '--seed', '1012', '--out', LEDGER])",
    "import aplab.cli\n"
    "aplab.cli.main(['check', '--modulus', '31', '--differences', '1,5', '--out', LEDGER])",
], ids=["cli", "rng", "intersectivity", "critical-size", "check"])
def test_exact_decisions_load_no_numpy(tmp_path, script):
    """A fresh interpreter that imports the CLI, the stream or the decider, or
    runs ``critical-size`` or ``check`` at N = 31, within ``EXACT_LIMIT``,
    ends with no numpy module loaded: those decisions are exact integer work
    on draws from the pure-Python stream.  Nor is ``dataclasses`` loaded (it
    pulls in ``inspect``): the package's records are NamedTuples and plain
    classes."""
    script = (f"import sys\nLEDGER = {str(tmp_path / 'runs.ledger')!r}\n{script}\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'),\n"
              "      'dataclasses' in sys.modules, file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert done.stderr.splitlines()[-1] == "[] False"
