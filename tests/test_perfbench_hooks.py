"""The benchmark tracer wraps library names by string; a rename must fail here."""
from pathlib import Path

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
