import csv
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ccgeom import circular_cone
from ccgeom.cli import EXIT_ALL_FAILED, EXIT_BAD_CONFIG, EXIT_OK, PRESETS, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_missing_config_and_preset_is_config_error(capsys):
    code, _, err = run(capsys, "section")
    assert code == EXIT_BAD_CONFIG
    assert "config" in err


def test_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "c.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "section", "--config", str(bad))
    assert code == EXIT_BAD_CONFIG


def test_section_preset_json_report(capsys):
    code, out, _ = run(capsys, "section", "--preset", "disk-grid")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["summary"]["n_failed"] == 0
    assert rep["summary"]["n_rows"] == 9


def test_section_preset_csv_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = run(capsys, "section", "--preset", "disk-grid",
                         "--out", str(out_dir), "--format", "csv")
        assert code == EXIT_OK
    assert (a / "rows.csv").read_bytes() == (b / "rows.csv").read_bytes()
    rep = json.loads((a / "report.json").read_text())
    assert rep["version"]
    assert "wall_time_s" in rep
    assert rep["config"] == PRESETS["section"]["disk-grid"]


def test_sccp_preset_controls(capsys):
    code, out, _ = run(capsys, "sccp", "--preset", "controls")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["summary"]["max_residual_norm"] >= 1e-3


def test_sccp_config_file(tmp_path, capsys):
    cfg = {
        "body": {"kind": "ellipsoid", "params": [1.0, 1.0],
                 "translation": [0.0, 0.0], "dim": 2},
        "n_directions": 4,
        "seed": 3,
    }
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "sccp", "--config", str(f))
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["summary"]["verdict"]["tag"] == "concurrent"


def test_sccp_paraboloid_lines_parallel_at_tight_classify_tol(tmp_path, capsys):
    # the 12 centroid lines are vertical to within 1e-14; an angle read as
    # arccos(|cos|) bottoms out near sqrt(eps) = 1.5e-8 and reads "neither"
    cfg = dict(PRESETS["sccp"]["paraboloid"], classify_tol=1e-12)
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "sccp", "--config", str(f))
    assert code == EXIT_OK
    verdict = json.loads(out)["summary"]["verdict"]
    assert verdict["tag"] == "parallel"
    assert verdict["score"] < 1e-13


def test_cutvol_parallel_preset(capsys):
    code, out, _ = run(capsys, "cutvol", "--preset", "parabola-parallel")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["summary"]["rel_spread"] <= 1e-6
    assert rep["summary"]["mean"] == pytest.approx(4.0 / 3.0, rel=1e-6)


def test_cutvol_homothety_preset(capsys):
    code, out, _ = run(capsys, "cutvol", "--preset", "hyperbola-homothety")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["summary"]["rel_spread"] <= 1e-6


def test_cutvol_gradient_preset(capsys):
    code, out, _ = run(capsys, "cutvol", "--preset", "sphere-gradient",
                       "--seed", "1")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["summary"]["n_failed"] == 0
    assert rep["summary"]["max_scaled_identity_residual"] <= 1e-4


def test_asym_fig_presets(capsys):
    code, out, _ = run(capsys, "asym", "--preset", "hyperboloid")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["summary"]["verdict"] == "asymptotic"

    code, out, _ = run(capsys, "asym", "--preset", "fig1")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["summary"]["verdict"] == "not_asymptotic"
    # at R = 1e5 the scaled gap is log(R)/R, about 1.15e-4
    assert rep["summary"]["d_blowdown_final"] <= 2e-4


def test_all_rows_failed_exit_code(tmp_path, capsys):
    cfg = {
        "body": {"kind": "elliptic-paraboloid-epigraph", "params": [1.0, 1.0],
                 "translation": [0.0, 0.0, 0.0], "dim": 3},
        "directions": [[1.0, 0.0, 0.0]],  # unbounded sections only
        "levels": [0.0, 1.0],
    }
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "section", "--config", str(f), "--format", "csv")
    assert code == EXIT_ALL_FAILED
    header, *rows = csv.reader(out.splitlines())
    assert len(rows) == 2
    assert all(len(row) == len(header) and row[-1] == "UnboundedSection" for row in rows)


def test_cutvol_gradient_auto_translates_origin(tmp_path, capsys):
    cfg = {
        "body": {"kind": "ellipsoid", "params": [1.0, 1.0],
                 "translation": [0.0, 0.0], "dim": 2},
        "op": "gradient", "n_cuts": 3, "seed": 2,
    }
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "cutvol", "--config", str(f))
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["summary"]["origin_shift"][-1] > 0
    assert rep["summary"]["max_scaled_identity_residual"] <= 1e-4


def test_asym_bounded_body_reports_empty_shell(tmp_path, capsys):
    cfg = {
        "body": {"kind": "ellipsoid", "params": [1.0, 1.0],
                 "translation": [0.0, 0.0], "dim": 2},
        "radii": [100.0, 1000.0],
    }
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "asym", "--config", str(f))
    assert code == EXIT_ALL_FAILED
    rep = json.loads(out)
    assert rep["summary"]["n_failed"] == 2


def test_tol_override_is_echoed(tmp_path, capsys):
    out_dir = tmp_path / "o"
    code, _, _ = run(capsys, "section", "--preset", "disk-grid",
                     "--out", str(out_dir), "--tol", "1e-6")
    assert code == EXIT_OK
    rep = json.loads((out_dir / "report.json").read_text())
    assert rep["config"]["tol"] == 1e-6


def test_geometry_error_maps_to_config_exit_code(tmp_path, capsys):
    cfg = {
        "body": {"kind": "ellipsoid", "params": [1.0, 1.0],
                 "translation": [0.0, 0.0], "dim": 2},
        "op": "parallel", "k": 1.0, "anchors": [[0.0]],
    }
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "cutvol", "--config", str(f))
    assert code == EXIT_BAD_CONFIG
    assert err.startswith("error: ") and "graph-like" in err
    assert out == ""


def test_graph_contact_error_names_the_anchor(tmp_path, capsys):
    cfg = {"body": circular_cone(1.0).to_json(), "op": "homothety", "k": 2.0,
           "anchors": [[0.5], [0.0]]}
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "cutvol", "--config", str(f))
    assert code == EXIT_BAD_CONFIG
    assert err.startswith("error: ") and "abscissa [0.0]" in err
    assert out == ""


DISK = {"kind": "ellipsoid", "params": [1.0, 1.0], "translation": [0.0, 0.0], "dim": 2}
PARABOLA = {"kind": "function-epigraph", "params": [], "tag": "square",
            "translation": [0.0, 0.0], "dim": 2}
HYPERBOLA = {"kind": "hyperboloid-upper-sheet", "params": [1.0],
             "translation": [0.0, 0.0], "dim": 2}


def run_config(tmp_path, capsys, command, cfg):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    return run(capsys, command, "--config", str(f))


@pytest.mark.parametrize("command, cfg, key", [
    ("section", {"body": DISK, "directions": 5, "levels": [0.0]}, "directions"),
    ("section", {"body": DISK, "directions": [[1.0, 0.0]], "levels": [[0.0]]}, "levels"),
    ("cutvol", {"body": PARABOLA, "op": "parallel", "k": 1.0, "anchors": 5}, "anchors"),
    ("cutvol", {"body": PARABOLA, "op": "parallel", "k": [1.0], "anchors": [[0.0]]}, "k"),
    ("sccp", {"body": DISK, "n_directions": 4, "n_levels": "x"}, "n_levels"),
    ("sccp", {"body": DISK, "n_directions": 2.5}, "n_directions"),
    ("asym", {"body": HYPERBOLA, "radii": [10.0, 100.0], "n_azimuth": [1]}, "n_azimuth"),
])
def test_wrong_json_type_is_config_error(tmp_path, capsys, command, cfg, key):
    code, out, err = run_config(tmp_path, capsys, command, cfg)
    assert code == EXIT_BAD_CONFIG
    assert err.startswith("error: ") and repr(key) in err
    assert out == ""


@pytest.mark.parametrize("command, cfg", [
    ("section", {"body": DISK, "directions": [], "levels": [0.0]}),
    ("sccp", {"body": DISK, "n_directions": 0}),
    ("sccp", {"body": DISK, "n_directions": -2}),
    ("asym", {"body": HYPERBOLA, "radii": []}),
    ("cutvol", {"body": DISK, "op": "gradient", "n_cuts": 0}),
    ("cutvol", {"body": DISK, "op": "volume", "cuts": []}),
    ("cutvol", {"body": PARABOLA, "op": "parallel", "k": 1.0, "anchors": []}),
    ("cutvol", {"body": PARABOLA, "op": "floating", "mode": "translate", "lam": 1.0,
                "n_normals": 0}),
])
def test_config_selecting_no_rows_is_config_error(tmp_path, capsys, command, cfg):
    code, out, err = run_config(tmp_path, capsys, command, cfg)
    assert code == EXIT_BAD_CONFIG
    assert err == "error: config selects no rows\n"
    assert out == ""


def test_cutvol_volume_op(tmp_path, capsys):
    # {<a,x> <= 1} with a = (0, 1/3) is the halfplane y <= 3: half the disk
    body = dict(DISK, translation=[0.0, 3.0])
    code, out, _ = run_config(tmp_path, capsys, "cutvol",
                              {"body": body, "op": "volume", "cuts": [[0.0, 1.0 / 3.0]]})
    assert code == EXIT_OK
    summary = json.loads(out)["summary"]
    assert summary["n_rows"] == 1 and summary["n_infinite"] == 0
    assert summary["mean"] == pytest.approx(math.pi / 2.0, rel=1e-7)


def test_cutvol_floating_op(tmp_path, capsys):
    # a parabola cap cut by the support line of the copy raised by 1 has area 4/3
    code, out, _ = run_config(tmp_path, capsys, "cutvol",
                              {"body": PARABOLA, "op": "floating", "mode": "translate",
                               "lam": 1.0})
    assert code == EXIT_OK
    summary = json.loads(out)["summary"]
    assert summary["min"] == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert summary["max"] == pytest.approx(4.0 / 3.0, abs=1e-6)


@pytest.mark.parametrize("command, cfg, key, expected", [
    ("section", {"body": DISK, "directions": [[1, 0, 0]], "levels": [0.0]},
     "directions", "length 2"),
    ("sccp", {"body": DISK, "directions": [[1, 0, 0]]}, "directions", "length 2"),
    ("cutvol", {"body": DISK, "op": "volume", "cuts": [[0.0, 0.3, 1.0]]}, "cuts", "length 2"),
    ("cutvol", {"body": dict(DISK, translation=[0.0, 3.0]), "op": "gradient",
                "cuts": [[0.0, 0.3, 1.0]]}, "cuts", "length 2"),
    ("cutvol", {"body": PARABOLA, "op": "parallel", "k": 1.0, "anchors": [[0.0, 1.0]]},
     "anchors", "length 1"),
    ("section", {"body": DISK, "directions": [[0, 0]], "levels": [0.0]},
     "directions", "nonzero"),
    ("cutvol", {"body": DISK, "op": "volume", "cuts": [[0, 0]]}, "cuts", "nonzero"),
    ("cutvol", {"body": dict(DISK, translation=[0.0, 3.0]), "op": "gradient",
                "cuts": [[0.0, 0.0]]}, "cuts", "nonzero"),
])
def test_wrong_vector_is_config_error_naming_the_key(tmp_path, capsys, command, cfg, key,
                                                      expected):
    code, out, err = run_config(tmp_path, capsys, command, cfg)
    assert code == EXIT_BAD_CONFIG
    assert err.startswith("error: ") and repr(key) in err and expected in err
    assert out == ""


def test_anchor_whose_height_overflows_is_config_error_naming_it(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_config(tmp_path, capsys, "cutvol",
                                    {"body": PARABOLA, "op": "parallel", "k": 1.0,
                                     "anchors": [[1e300]]})
    assert code == EXIT_BAD_CONFIG
    assert err.startswith("error: ") and "abscissa [1e+300]" in err
    assert out == ""


@pytest.mark.parametrize("cfg, key", [
    # the cut volumes overflow to inf, after three RuntimeWarnings
    ({"body": PARABOLA, "op": "parallel", "k": 1e300, "anchors": [[0.0]]}, "k"),
    # every sampled normal's cap overflows, and none is kept
    ({"body": PARABOLA, "op": "floating", "mode": "translate", "lam": 1e300, "n_normals": 2},
     "lam"),
    # the moved tangent planes lie too far out for the boundary search
    ({"body": HYPERBOLA, "op": "homothety", "k": 1e300, "anchors": [[0.0], [1.0]]}, "k"),
])
def test_huge_finite_shift_or_factor_is_config_error_naming_it(tmp_path, capsys, cfg, key):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_config(tmp_path, capsys, "cutvol", cfg)
    assert code == EXIT_BAD_CONFIG
    assert err.startswith("error: ") and repr(key) in err and "at most 1e+30" in err
    assert out == "" and not caught


ELLIPSOID = PRESETS["sccp"]["ellipsoid"]["body"]
PARALLEL = PRESETS["cutvol"]["parabola-parallel"]
ASYM = PRESETS["asym"]["hyperboloid"]
FLOATING = {"body": PARABOLA, "op": "floating", "mode": "translate", "lam": 1.0, "n_normals": 2}


@pytest.mark.parametrize("command, cfg, key", [
    ("sccp", {"body": ELLIPSOID, "n_directions": 4, "classify_tol": math.nan}, "classify_tol"),
    ("sccp", {"body": ELLIPSOID, "n_directions": 4, "classify_tol": -1.0}, "classify_tol"),
    ("sccp", {"body": DISK, "n_directions": 4, "classify_tol": 0}, "classify_tol"),
    ("cutvol", dict(PARALLEL, tol=math.nan), "tol"),
    ("cutvol", dict(PARALLEL, tol=-1.0), "tol"),
    ("cutvol", dict(PARALLEL, tol=0.0), "tol"),
    ("section", {"body": DISK, "directions": [[0.0, 1.0]], "levels": [0.2], "tol": -1},
     "tol"),
    ("section", {"body": DISK, "directions": [[0.0, 1.0]], "levels": [0.2], "tol": 1.0},
     "tol"),
    ("section", {"body": DISK, "directions": [[0.0, 1.0]], "levels": [0.2], "tol": math.inf},
     "tol"),
    ("cutvol", dict(PARALLEL, k=math.nan), "k"),
    ("section", {"body": DISK, "directions": [[0.0, 1.0]], "levels": [math.nan]}, "levels"),
    ("section", {"body": DISK, "directions": [[0.0, 1.0]], "levels": [-math.inf]}, "levels"),
    ("section", {"body": DISK, "directions": [[0.0, math.inf]], "levels": [0.0]},
     "directions"),
    ("asym", dict(ASYM, radii=[1e5, 1e4, 1e3, 1e2]), "radii"),
    ("asym", dict(ASYM, radii=[10.0, 10.0, 10.0, 10.0]), "radii"),
    ("sccp", {"body": DISK, "n_directions": 4, "seed": -1}, "seed"),
    ("cutvol", {"body": PARABOLA, "op": "floating", "mode": "translate", "lam": 1.0,
                "n_normals": 2, "seed": -1}, "seed"),
    ("cutvol", {"body": DISK, "op": "gradient", "n_cuts": 1, "seed": -1}, "seed"),
    ("sccp", {"body": DISK, "n_directions": 4, "n_levels": 3}, "n_levels"),
    # tangent planes moved by 1e-300 cut volumes that round to 0, whose
    # relative spread would be 0/0
    ("cutvol", dict(PRESETS["cutvol"]["paraboloid-parallel"], k=1e-300), "k"),
    # below 10 (|translation| + 1), and a sphere whose scan overflows
    ("asym", dict(ASYM, radii=[1.0, 10.0, 100.0, 1000.0]), "radii"),
    ("asym", dict(ASYM, radii=[10.0, 100.0, 1000.0, 1e200]), "radii"),
    ("asym", dict(ASYM, n_azimuth=0), "n_azimuth"),
    # the library's own range errors, which name no key
    ("cutvol", dict(PARALLEL, k=0.0), "k"),
    ("cutvol", dict(PRESETS["cutvol"]["hyperbola-homothety"], k=1.0), "k"),
    ("cutvol", dict(FLOATING, lam=0.0), "lam"),
    ("cutvol", dict(FLOATING, mode="scale"), "lam"),
    ("cutvol", dict(FLOATING, mode="shear"), "mode"),
])
def test_non_finite_or_out_of_range_number_is_config_error(tmp_path, capsys, command, cfg,
                                                           key):
    # json reads NaN and Infinity, which json.dumps writes for these floats
    code, out, err = run_config(tmp_path, capsys, command, cfg)
    assert code == EXIT_BAD_CONFIG
    assert err.startswith("error: ") and repr(key) in err
    assert out == ""


@pytest.mark.parametrize("command, name", [(c, n) for c in PRESETS for n in PRESETS[c]])
def test_every_preset_runs(tmp_path, capsys, command, name):
    code, _, _ = run(capsys, command, "--preset", name, "--out", str(tmp_path))
    assert code == EXIT_OK
    with open(tmp_path / "rows.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert rows and all(len(row) == len(header) for row in rows)
    if header[-1] == "error":
        assert all(row[-1] == "" for row in rows)
    if command == "section":
        assert header == "ux,uy,t,measure,cx,cy,err,n_evals,error".split(",")
    if command == "sccp":
        summary = json.loads((tmp_path / "report.json").read_text())["summary"]
        assert list(summary["verdict"]) == ["tag", "witness", "score", "tie"]


def test_run_presets_writes_each_preset_to_its_own_directory(tmp_path):
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_presets.py"), "asym",
         "--out", str(tmp_path), "--format", "csv"],
        capture_output=True, text=True, cwd=str(root))
    assert done.returncode == EXIT_OK, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(PRESETS["asym"])
    for name, preset in PRESETS["asym"].items():
        assert (tmp_path / name / "rows.csv").read_text().startswith("R,d_asym,")
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert report["config"] == preset
