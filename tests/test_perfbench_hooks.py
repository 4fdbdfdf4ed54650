"""The benchmark tracer wraps library names by string; a rename must fail here."""
import ast
from pathlib import Path

import pytest

import ccgeom

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    orig = ccgeom.sections.ray_hits_batch
    t = tracer.Tracer()
    try:
        t.install(ccgeom)
        assert ccgeom.sections.ray_hits_batch is not orig
    finally:
        t.uninstall()
    assert ccgeom.sections.ray_hits_batch is orig


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    t.install(ccgeom)
    yield t
    t.uninstall()


def _spans(t):
    """(name, parent name) of every recorded span."""
    return {(name, t.spans[parent][0] if parent >= 0 else None)
            for name, _, _, parent, _, _ in t.spans}


def test_traced_cut_volume_records_the_rule_and_its_sections(tracer):
    # a body without a form integrates its cut by quad (a quadric's takes
    # two levels and no quad)
    ccgeom.cut_volume(ccgeom.superellipsoid(4.0, dim=3), [0.0, 0.0, 2.0])
    assert ("sections.section_measure", "cutvol.quad") in _spans(tracer)


def test_traced_shell_distance_records_cdist(tracer):
    h = ccgeom.hyperboloid_sheet([1.0, 1.0])
    ccgeom.shell_distance(h, h.recession_cone(), 1e2, n_azimuth=24)
    assert "asymptotics.cdist" in {name for name, _ in _spans(tracer)}


def _noqa_imports():
    """(module, name) of every import in src/ccgeom on a line marked
    ``# noqa: F401``: names kept only so that something outside the package
    can look them up on the module."""
    src = Path(ccgeom.__file__).resolve().parent
    kept = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                kept += [(getattr(ccgeom, path.stem), a.asname or a.name) for a in node.names]
    return kept


def test_every_noqa_import_is_a_name_the_tracer_hooks(monkeypatch):
    # such an import is kept for the tracer alone, so one the tracer no
    # longer replaces on that module is stale
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    kept = _noqa_imports()
    assert kept
    orig = [getattr(module, name) for module, name in kept]
    t = tracer.Tracer()
    try:
        t.install(ccgeom)
        stale = [f"{module.__name__}.{name}" for (module, name), f in zip(kept, orig)
                 if getattr(module, name) is f]
    finally:
        t.uninstall()
    assert stale == []
