"""The diff scripts behind every stated tolerance, run as a user runs them,
and the digest behind every "numbers unchanged" claim, on results made up
here rather than a workload pool."""
import dataclasses
import importlib.util
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from ccgeom import SectionStats
from ccgeom.errors import DegenerateSection, LevelOutOfRange

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, a, b):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout


def _dump(path, **ops):
    np.savez(path, **{name.replace("__", "/"): value for name, value in ops.items()})
    return path


def test_op_diff(tmp_path):
    ops = dict(cutvol__0__cut_volume=np.array([1.0, 4.0]), cutvol__1__cut_volume=np.array([2.0]),
               shell__0__shell_distance=np.array(["NotInterior: outside"]))
    a = _dump(tmp_path / "a.npz", **ops)
    code, out = _run("op_diff.py", a, _dump(tmp_path / "same.npz", **ops))
    assert code == 0
    assert out.split("\n")[1].split() == ["cutvol", "cut_volume", "2/2", "0", "0"]
    assert out.split("\n")[2].split() == ["shell", "shell_distance", "1/1", "0", "0"]
    # one number moved from 4 to 5: absolute 1, relative 1/5
    moved = dict(ops, cutvol__0__cut_volume=np.array([1.0, 5.0]))
    code, out = _run("op_diff.py", a, _dump(tmp_path / "moved.npz", **moved))
    assert code == 0
    assert out.split("\n")[1].split() == ["cutvol", "cut_volume", "1/2", "1", "0.2"]
    del moved["cutvol__1__cut_volume"]
    code, out = _run("op_diff.py", a, _dump(tmp_path / "missing.npz", **moved))
    assert code == 1 and "cutvol/1/cut_volume" in out


def _tree(root, value):
    """A preset tree of one CSV, with a report.json beside it."""
    (root / "cutvol" / "sphere").mkdir(parents=True)
    (root / "cutvol" / "sphere" / "rows.csv").write_text(f"V,verdict\n2.0,flat\n{value},flat\n")
    (root / "cutvol" / "sphere" / "report.json").write_text("{}\n")
    return root


def test_preset_diff(tmp_path):
    a = _tree(tmp_path / "a", "4.0")
    code, out = _run("preset_diff.py", a, _tree(tmp_path / "same", "4.0"))
    assert (code, out) == (0, "cutvol/sphere/rows.csv: identical\n")
    code, out = _run("preset_diff.py", a, _tree(tmp_path / "moved", "5.0"))
    assert code == 0
    assert out.split("\n")[1].split() == ["V", "max", "abs", "1", "max", "rel", "0.2"]
    missing = _tree(tmp_path / "missing", "4.0")
    (missing / "cutvol" / "sphere" / "rows.csv").unlink()
    code, out = _run("preset_diff.py", a, missing)
    assert code == 1 and "different files" in out and "rows.csv" in out


@pytest.fixture
def op_digest(monkeypatch):
    """scripts/op_digest.py as a module. perfbench/run.py, whose import pins
    the thread counts, is stood in for by an empty module, and the
    perfbench directory the script puts on sys.path is taken off again."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "run", types.ModuleType("run"))
    spec = importlib.util.spec_from_file_location("op_digest", SCRIPTS / "op_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _op(name, result):
    """A pool entry whose call returns result, or raises it if an error."""
    def call():
        if isinstance(result, Exception):
            raise result
        return result
    return types.SimpleNamespace(name=name, call=call)


STATS = SectionStats(u=np.array([0.0, 0.6, 0.8]), t=0.5, measure=2.0,
                     centroid=np.array([0.1, 0.2, 0.5]), err_estimate=1e-9, n_evals=615,
                     converged=True)


def test_op_digest_sees_one_ulp_in_one_field(op_digest):
    base = op_digest.digest([_op("section_stats", STATS)])
    assert op_digest.digest([_op("section_stats", dataclasses.replace(STATS))]) == base
    centroid = STATS.centroid.copy()
    centroid[1] = np.nextafter(centroid[1], 1.0)
    for moved in (dataclasses.replace(STATS, measure=np.nextafter(2.0, 3.0)),
                  dataclasses.replace(STATS, centroid=centroid)):
        assert op_digest.digest([_op("section_stats", moved)]) != base


def test_op_digest_hashes_the_text_of_an_error(op_digest):
    errors = [LevelOutOfRange("level 2.0 outside admissible interval (2.0, 4.0)"),
              LevelOutOfRange("level 2.5 outside admissible interval (2.0, 4.0)"),
              DegenerateSection("level 2.0 outside admissible interval (2.0, 4.0)")]
    digests = {op_digest.digest([_op("section_stats", e)]) for e in errors}
    assert len(digests) == len(errors)
    results = []
    op_digest.digest([_op("section_stats", errors[0])], results)
    assert results == [np.array(f"LevelOutOfRange: {errors[0]}")]


def test_op_digest_flattens_in_the_order_it_hashes(op_digest):
    class Recorder:
        """A hash that keeps what it is fed."""

        def __init__(self):
            self.parts = []

        def update(self, data):
            self.parts.append(bytes(data))

    result = [STATS, None, "concurrent", 3, [np.arange(4.0).reshape(2, 2), True]]
    h = Recorder()
    op_digest._feed(h, result)
    # each number or array is hashed as its dtype and shape, then its bytes
    header = re.compile(rb"^[<>|=][a-z]\d+\(")
    hashed = [np.frombuffer(data, dtype=head[:3].decode()).astype(float)
              for head, data in zip(h.parts, h.parts[1:]) if header.match(head)]
    assert len(hashed) == 10
    assert np.array_equal(np.concatenate(hashed), op_digest._flatten(result))
