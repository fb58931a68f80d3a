"""Every module-level definition of the package has a caller."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qdotsim").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))


def _names(node: ast.AST):
    """The names a statement mentions: Name ids, Attribute attrs and import aliases."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name.rpartition(".")[2]


def test_every_module_level_def_and_class_is_referenced():
    # a reference inside the definition itself (recursion, a class's own
    # methods) does not count: a definition only it mentions is dead code
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    dead = [f"{path.name}:{stmt.name}" for path in PACKAGE for stmt in trees[path].body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not any(stmt.name in _names(other) for other in statements
                        if other is not stmt)]
    assert dead == []
