"""Source hygiene: no module of the package imports a name it never reads,
no module defines a name that nothing reads, only ``bodies.py`` reads a
body's or a cone's kind, and the package needs numpy alone at run time.

No lint tool is a dependency, so the first two are AST scans. ``__init__.py``
is exempt from both, its imports are the package's re-exports, and so is an
import on a line marked ``# noqa: F401``, kept because something outside the
package looks the name up on the module.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ccgeom"


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


def _defined_names(path):
    """The names a module binds at its top level, by def, class or assignment,
    dunders left out."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _read_names(path):
    """Every name the file reads: a bare name, an attribute or an imported name."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def test_every_module_level_name_is_read_somewhere():
    readers = [p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")]
    read = set().union(*map(_read_names, readers))
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 7
    dead = {p.name: names for p in modules if (names := sorted(_defined_names(p) - read))}
    assert dead == {}


# attributes that name a body's or a cone's kind, or hold its kind class
_KIND_ATTRS = {"kind", "tag", "_impl"}
# reads of those names that are not of a body or a cone: (module, receiver)
_OTHER_KIND_READS = {("cli.py", "v")}  # the tag of a classify_lines verdict


def test_only_bodies_reads_a_kind():
    reads = [(p.name, ast.unparse(node.value), node.attr, node.lineno)
             for p in sorted(SRC.glob("*.py")) if p.name != "bodies.py"
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in _KIND_ATTRS]
    assert any(name == "cli.py" for name, *_ in reads)  # the scan sees the verdict tag
    assert [r for r in reads if r[:2] not in _OTHER_KIND_READS] == []


def test_cli_import_loads_no_scipy():
    code = "import sys, ccgeom.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), cwd=str(ROOT))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
