"""Every module-level import in the package and the tests is used."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "aplab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import and never read in the module.

    Names listed in ``__all__`` count as read; ``from __future__``
    imports bind nothing and are skipped.
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
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)):
            used.update(ast.literal_eval(stmt.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_module_level_imports():
    sample = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom math import comb, log\n"
              "from fractions import Fraction\n__all__ = ['Fraction']\n"
              "def f(x: int) -> float:\n    return np.abs(log(x))\n")
    assert unused_imports(sample) == ["line 2: os", "line 4: comb"]
    found = {}
    for path in SOURCES:
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert not found, found
