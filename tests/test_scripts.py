"""The diff scripts behind every stated tolerance, run as a user runs them."""
import subprocess
import sys
from pathlib import Path

import numpy as np

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
