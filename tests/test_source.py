"""Source hygiene: no module of the package imports a name it never reads.

No lint tool is a dependency, so this is an AST scan. ``__init__.py`` is
exempt, its imports are the package's re-exports, and so is an import on a
line marked ``# noqa: F401``, kept because something outside the package
looks the name up on the module.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ccgeom"


def _unused_imports(path):
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 7
    unused = {p.name: names for p in modules if (names := _unused_imports(p))}
    assert unused == {}
