"""The diff scripts behind every stated tolerance, run as a user runs them,
the digest behind every "numbers unchanged" claim and the F-round counter,
on results and sections made up here rather than a workload pool."""
import dataclasses
import importlib.util
import json
import mmap
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ccgeom
from ccgeom import SectionStats, asymptotics, bodies, cutvol, ellipsoid, section_stats, sections
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


def test_op_diff_names_the_number_that_sets_max_rel(tmp_path):
    # a number of size moves by 1 and one at rounding level doubles: the
    # table's max rel is the small one's, and the line below it names that
    # number with its own absolute difference
    a = _dump(tmp_path / "a.npz", cutvol__0__cut_volume=np.array([1000.0, 1e-16]),
              cutvol__1__cut_volume=np.array([2.0]))
    b = _dump(tmp_path / "b.npz", cutvol__0__cut_volume=np.array([1001.0, 2e-16]),
              cutvol__1__cut_volume=np.array([2.0]))
    code, out = _run("op_diff.py", a, b)
    lines = out.splitlines()
    assert code == 0 and lines[1].split() == ["cutvol", "cut_volume", "1/2", "1", "0.5"]
    assert lines[2] == "max rel of cutvol cut_volume: cutvol/0/cut_volume[1] 1e-16 -> 2e-16, abs 1e-16"
    assert len(lines) == 3
    # identical results name no number
    code, out = _run("op_diff.py", a, a)
    assert code == 0 and len(out.splitlines()) == 2


def test_preset_diff_names_the_cell_that_sets_max_rel(tmp_path):
    def tree(root, cells):
        (root / "cutvol" / "sphere").mkdir(parents=True)
        rows = "".join(f"{v},flat\n" for v in cells)
        (root / "cutvol" / "sphere" / "rows.csv").write_text("V,verdict\n" + rows)
        return root

    code, out = _run("preset_diff.py", tree(tmp_path / "a", ["1000.0", "1e-16"]),
                     tree(tmp_path / "b", ["1001.0", "2e-16"]))
    lines = out.splitlines()
    assert code == 0 and lines[1].split() == ["V", "max", "abs", "1", "max", "rel", "0.5"]
    assert lines[2] == "    max rel at row 2: 1e-16 -> 2e-16, abs 1e-16"
    assert len(lines) == 3


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


def _script(monkeypatch, name):
    """scripts/<name>.py as a module. perfbench/run.py, whose import pins
    the thread counts, is stood in for by an empty module, and the
    perfbench directory the script puts on sys.path is taken off again."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "run", types.ModuleType("run"))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def op_digest(monkeypatch):
    return _script(monkeypatch, "op_digest")


@pytest.fixture
def ray_rounds(monkeypatch):
    return _script(monkeypatch, "ray_rounds")


@pytest.fixture
def ab_pairs(monkeypatch):
    return _script(monkeypatch, "ab_pairs")


def test_ab_pairs_counts_pair_wins_and_tells_a_gain(ab_pairs):
    # ten rounds: ops_per_s 20% up on the parent in every pair and on the
    # control in nine; op_p50_s as noisy as the trees' own spread
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]
    control = [p + 1.0 for p in parent]
    change = [1.2 * p for p in parent]
    change[3] = control[3] - 0.5
    p50 = {"parent": [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]}
    p50["control"] = p50["parent"][::-1]
    p50["change"] = p50["parent"][1:] + p50["parent"][:1]
    runs = {label: [{"ops_per_s": o, "op_p50_s": t} for o, t in zip(ops, p50[label])]
            for label, ops in (("parent", parent), ("change", change), ("control", control))}
    better = {"ops_per_s": "higher", "op_p50_s": "lower"}
    ops, p50_row = ab_pairs.summarize(runs, better)
    assert ops["wins vs parent"] == (10, 0) and ops["wins vs control"] == (9, 1)
    assert ops["verdict"] == "gain"
    assert ops["parent"] == (100.0, 99.0, 101.0) and ops["change"][0] == np.median(change)
    assert p50_row["verdict"] == "-"
    # eight wins in ten is no gain, and the mirror image is a loss
    runs["change"][4]["ops_per_s"] = 50.0
    assert ab_pairs.summarize(runs, better)[0]["verdict"] == "-"
    swapped = {"parent": runs["change"], "change": runs["parent"]}
    swapped["change"][4] = {"ops_per_s": 99.0, "op_p50_s": 1.05}
    assert ab_pairs.summarize(swapped, better)[0]["verdict"] == "loss"
    table = ab_pairs.format_rows([ops], ("parent", "change", "control"), {"ops_per_s": "1/s"})
    assert table.splitlines()[1].split()[-3:] == ["10-0", "9-1", "gain"]


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                   check=True, capture_output=True)


def test_ab_pairs_exports_revisions_and_builds_the_control(tmp_path, ab_pairs):
    # a throwaway repository whose run.py reports ops_per_s from the tree:
    # VALUE, and 5 more where sections.py ends with the control line; its
    # one op calls abs VALUE times; the change adds a ray_rounds.py that
    # prints two workloads' lines
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src" / "ccgeom").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher"}]}')
    (repo / "src" / "ccgeom" / "sections.py").write_text("X = 1\n")
    (repo / "perfbench" / "run.py").write_text(
        "import json\nfrom pathlib import Path\n"
        "def import_library():\n    pass\n"
        "if __name__ == '__main__':\n"
        "    control = Path('src/ccgeom/sections.py').read_text().endswith(%r)\n"
        "    value = float(Path('VALUE').read_text()) + 5.0 * control\n"
        "    print(json.dumps({'failed': 0, 'metrics': {'ops_per_s': {'value': value}}}))\n"
        % ab_pairs.CONTROL_LINE)
    (repo / "perfbench" / "workloads.py").write_text(
        "import types\nfrom pathlib import Path\n"
        "N = int((Path(__file__).resolve().parent.parent / 'VALUE').read_text())\n"
        "def call():\n    for _ in range(N):\n        abs(0)\n"
        "WORKLOADS = {'w': types.SimpleNamespace(\n"
        "    build=lambda seed: [types.SimpleNamespace(call=call)])}\n")
    (repo / "VALUE").write_text("100")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-qm", "parent")
    (repo / "VALUE").write_text("120")
    (repo / "scripts").mkdir()
    (repo / "scripts" / "ray_rounds.py").write_text(
        "import sys\nseed = sys.argv[sys.argv.index('--seed') + 1]\n"
        "print(f'v seed {seed}: 1 op')\nprint('  v line')\n"
        "print(f'w seed {seed}: 1 op')\nprint('  w line')\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-qm", "change")
    done = subprocess.run([sys.executable, str(SCRIPTS / "ab_pairs.py"), "--workload", "w",
                           "--rounds", "2", "--seconds", "0", "--record", "test",
                           "HEAD~1", "HEAD"],
                          cwd=repo, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    head = next(line for line in lines if line.startswith("w seed 1: 2 rounds"))
    row = lines[lines.index(head) + 2].split()
    assert row[:3] == ["ops_per_s", "1/s", "100"] and row[5:6] == ["120"] and row[8:9] == ["105"]
    assert row[-3:] == ["2-0", "2-0", "gain"]
    # the exported trees and the control are gone, and the checkout is as it was
    paths = [Path(part.split()[-1]) for part in head.split("; ")[1].split(", ")]
    assert len(paths) == 3 and not any(path.exists() for path in paths)
    assert (repo / "src" / "ccgeom" / "sections.py").read_text() == "X = 1\n"
    # the record, at the top of the repository
    record = json.loads((repo / "BENCH_test.json").read_text())
    assert list(record) == ["label", "revisions", "environment", "seed", "rounds", "seconds",
                            "workloads"]
    revs = [subprocess.run(["git", "rev-parse", rev], cwd=repo, capture_output=True,
                           text=True).stdout.strip() for rev in ("HEAD~1", "HEAD")]
    assert [record["revisions"][label] for label in ("parent", "change")] == revs
    assert "control" in record["revisions"]
    assert list(record["environment"]) == ["cpu_count", "python", "numpy", "load_before",
                                           "load_after"]
    assert len(record["environment"]["load_after"]) == 3
    assert (record["label"], record["seed"], record["rounds"]) == ("test", 1, 2)
    entry = record["workloads"]["w"]
    assert list(entry) == ["metrics", "calls_per_op", "ray_rounds", "runs"]
    ops = entry["metrics"]["ops_per_s"]
    assert list(ops) == ["unit", "better", "parent", "change", "control", "wins", "verdict"]
    assert ops["change"] == {"median": 120.0, "q1": 120.0, "q3": 120.0, "iqr": 0.0}
    assert ops["wins"] == {"parent": [2, 0], "control": [2, 0]} and ops["verdict"] == "gain"
    assert entry["runs"]["control"] == [{"ops_per_s": 105.0}] * 2
    calls = entry["calls_per_op"]
    assert calls["change"] - calls["parent"] == 20 and calls["control"] == calls["parent"]
    # the workload's ray_rounds.py lines, null in the trees that have no such script
    assert entry["ray_rounds"] == {"parent": None, "change": ["w seed 1: 1 op", "  w line"],
                                   "control": None}
    done = subprocess.run([sys.executable, str(SCRIPTS / "ab_pairs.py"), "--workload", "w",
                           "no-such-revision", "HEAD"], cwd=repo, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2 and "no-such-revision is neither" in done.stderr


def test_ray_rounds_patches_the_names_it_counts_and_restores_them(ray_rounds):
    # the library names the script wraps: renaming one must fail here
    patched = [(bodies.BodySpec, "defining"), (bodies, "ray_hits_batch"),
               (sections, "ray_hits_batch"), (sections, "_centred_sections"),
               (sections, "_polar_sections"),
               (cutvol, "_cut_volumes"), (cutvol, "section_measure"), (cutvol, "_sections"),
               (asymptotics, "_crossings"), (asymptotics, "_form_crossings"),
               (bodies.BodySpec, "gauss_map"),
               (sections, "_section_frames")]
    patched += [(kind, "margin") for kind in bodies._CONE_KINDS.values()]
    before = [owner.__dict__[name] for owner, name in patched]
    uninstall = ray_rounds.install(ccgeom, ray_rounds.Counts())
    try:
        assert all(owner.__dict__[name] is not orig
                   for (owner, name), orig in zip(patched, before))
    finally:
        uninstall()
    assert all(owner.__dict__[name] is orig for (owner, name), orig in zip(patched, before))


def test_ray_rounds_counts_a_first_polar_batch_guessed_to_rounding(ray_rounds,
                                                                 refuse_closed_forms):
    # an sccp-3d section of its ellipsoid, its closed form refused: the
    # ellipse read off the kind's form guesses the first polar radii to
    # rounding, so that batch ends in its probe round, one F-round, after
    # one spine check of one point
    refuse_closed_forms()
    counts = ray_rounds.Counts()
    uninstall = ray_rounds.install(ccgeom, counts)
    try:
        u = np.array([0.3, -0.2, 0.93]) / np.linalg.norm([0.3, -0.2, 0.93])
        section_stats(ellipsoid([1.3, 0.8, 1.0], center=[0.2, -0.1, 0.4]), u, 0.3)
        assert counts.rounds == {"first polar": [1]} and counts.spine == [1, 1]
        # a 2D section's chord is unguessed: F is the kind's ray quadratic,
        # and its rays start at its roots, whose probes end them in the
        # first F-round
        section_stats(ellipsoid([1.3, 0.8], center=[0.2, -0.1]), u[:2] / np.linalg.norm(u[:2]), 0.3)
    finally:
        uninstall()
    assert counts.rounds["first polar"] == [1] and counts.spine == [1, 1]
    # every defining call of a section is an F-round of one of its batches
    # or a spine check
    assert counts.defining == sum(map(sum, counts.rounds.values())) + counts.spine[0]
    body = "ellipsoid [1.3, 0.8] at [0.2, -0.1]"
    assert counts.unguessed == {body: [1]}
    lines = ray_rounds.report("sccp-3d", 1, 1, counts).splitlines()
    assert f"    unguessed on {body}: 1.00 (max 1) over 1 calls" in lines
    assert "  spine checks: defining calls 1, oracle points 1" in lines


def _workloads(monkeypatch):
    """perfbench/workloads.py as a module, importing perfbench/oracles.py as
    its ``oracles`` (the tests have a module of that name too); both leave
    sys.modules with the test."""
    def load(name):
        spec = importlib.util.spec_from_file_location(name, SCRIPTS.parent / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    load("oracles")
    return load("workloads")


def test_op_calls_repeat_exactly_on_a_seed_1_pool(monkeypatch):
    # the profiled calls of a pass are a count, not a timing: two counts of
    # one pool agree exactly on every workload
    op_calls, workloads = _script(monkeypatch, "op_calls"), _workloads(monkeypatch)
    for name, workload in workloads.WORKLOADS.items():
        pool = workload.build(1)
        first = op_calls.calls_per_op(pool)
        assert first > 0 and op_calls.calls_per_op(pool) == first, name


def test_ray_rounds_count_lines_repeat_exactly_on_a_seed_1_pool(ray_rounds, monkeypatch):
    # the report's counts are not timings: two runs of one pool print the
    # same lines on every workload, all but the two timing lines and the
    # page-fault line
    timed = ("time per call outside F", "time per round outside F", "minor page faults")
    workloads = _workloads(monkeypatch)
    for name, workload in workloads.WORKLOADS.items():
        pool, runs = workload.build(1), []
        for _ in range(2):
            counts = ray_rounds.Counts()
            uninstall = ray_rounds.install(ccgeom, counts)
            try:
                ray_rounds.run_pool(pool, counts)
            finally:
                uninstall()
            lines = ray_rounds.report(name, 1, len(pool), counts).splitlines()
            runs.append([x for x in lines if not any(t in x for t in timed)])
        assert len(runs[0]) >= 5 and runs[1] == runs[0], name


def test_ray_rounds_counts_one_f_round_per_unguessed_quadric_call(ray_rounds, monkeypatch):
    # at seed 1 every unguessed batch on a quadric, moved or not, starts at
    # its rays' quadratic roots, whose probes end it in its first F-round;
    # the superellipse climbs from its probe at the body scale. The 3D
    # sections cast no unguessed batch: each batch of levels takes one spine
    # check instead of its centring batch's one F-round, and one F check of
    # its closed forms instead of its first polar batch's one F-round (a
    # gradient's cut plane rides in its volumes' check; a 3D quadric volume
    # takes 2 levels)
    workloads = _workloads(monkeypatch)
    means, defining, spine = {}, [], []
    for name in ("cutvol-3d", "sccp-3d", "planar-2d"):
        pool, counts = workloads.WORKLOADS[name].build(1), ray_rounds.Counts()
        uninstall = ray_rounds.install(ccgeom, counts)
        try:
            ray_rounds.run_pool(pool, counts)
        finally:
            uninstall()
        means.update({body: round(float(np.mean(r)), 2) for body, r in counts.unguessed.items()})
        defining.append(counts.defining)
        spine.append(counts.spine)
    assert means == {
        "ellipsoid [1.0, 1.0] at [0.0, 3.0]": 1.0,
        "square": 1.0,
        "square at [0.0, 1.0]": 1.0,
        "hyperboloid-upper-sheet [1.0]": 1.0,
        "superellipsoid [4.0]": 10.33,
    }
    assert defining == [90, 72, 184]
    assert spine == [[40, 210], [36, 480], [0, 0]]


def test_ray_rounds_counts_the_levels_of_each_cut_volume(ray_rounds):
    # a 3D quadric cut takes its 2 Gauss-Legendre levels, a 2D cut meets rtol
    # on the 21 levels of its first panel; a gradient's 2d + 1 volumes take
    # as many each, and its cut plane one more
    counts = ray_rounds.Counts()
    uninstall = ray_rounds.install(ccgeom, counts)
    sphere = ccgeom.unit_sphere([0.0, 0.0, 3.0])
    try:
        for op, call in (("cut_volume", lambda: ccgeom.cut_volume(sphere, [0.0, 0.1, 0.4])),
                         ("cut_gradient", lambda: ccgeom.cut_gradient(sphere, [0.05, 0.1, 0.4])),
                         ("cut_gradient", lambda: ccgeom.cut_gradient(
                             ccgeom.unit_disk([0.0, 3.0]), [0.1, 0.35]))):
            counts.op = op
            counts.ops[op] += 1
            call()
    finally:
        uninstall()
    assert counts.volumes == {"cut_volume": 1, "cut_gradient": 7 + 5}
    assert counts.levels == {"cut_volume": 2, "cut_gradient": 7 * 2 + 1 + 5 * 21 + 1}
    lines = ray_rounds.report("cutvol-3d", 1, 3, counts).splitlines()
    assert lines[-3:] == [
        "  section levels 123 over 13 cut volumes",
        "    cut_volume: 1 calls, 1 volumes, 2 levels, 2.00 per volume, 2.00 per call",
        "    cut_gradient: 2 calls, 12 volumes, 121 levels, 10.08 per volume, 60.50 per call"]


def test_ray_rounds_counts_the_set_up_work(ray_rounds):
    # a 2D gradient's five cuts take one Gauss-map call for their level
    # ranges (-u and u of each, the disk being bounded) and one cone-margin
    # call on u and -u of each; its one round's plane set-up of the five
    # normals and the cut plane's reads those rows and calls neither again.
    # An sccp residual on the paraboloid takes one margin call on u and -u
    # and a Gauss-map call of one row for its levels' bounds, which its
    # sections' plane set-up reads too.
    counts = ray_rounds.Counts()
    uninstall = ray_rounds.install(ccgeom, counts)
    try:
        counts.op = "cut_gradient"
        counts.ops["cut_gradient"] += 1
        ccgeom.cut_gradient(ccgeom.unit_disk([0.0, 3.0]), [0.1, 0.35])
        assert dict(counts.setup) == {"Gauss-map": [1, 10, 0], "cone-margin": [1, 10, 0],
                                      "plane set-ups": [1, 6, 106]}
        counts.setup.clear()
        u = np.array([0.2, -0.1, 0.95]) / np.linalg.norm([0.2, -0.1, 0.95])
        ccgeom.sccp_residual(ccgeom.paraboloid_epigraph([1.0, 0.7]), u)
    finally:
        uninstall()
    assert dict(counts.setup) == {"Gauss-map": [1, 1, 0], "cone-margin": [1, 2, 0],
                                  "plane set-ups": [1, 1, 12]}
    assert ("  set-up: Gauss-map calls 1 (1 normals), cone-margin calls 1 (2 rows), plane "
            "set-ups 1 (1 normals, 12 levels)") in ray_rounds.report("sccp-3d", 1, 1, counts)


def test_ray_rounds_counts_the_polar_rays_of_each_3d_level(ray_rounds, refuse_closed_forms):
    # with their closed forms refused, two quadric levels meet rtol on the
    # 16 rays of their first batch, and a gradient's cut plane adds the
    # other 112 nodes of its diameter grid as 7 more groups of 16; a p = 4
    # superellipsoid level is refined past it. Unrefused, a gradient's
    # levels (two a volume) and its cut plane take the closed form, no rays
    counts = ray_rounds.Counts()
    u = np.array([0.3, -0.2, 0.93]) / np.linalg.norm([0.3, -0.2, 0.93])
    sphere = ccgeom.unit_sphere([0.0, 0.0, 3.0])
    uninstall = ray_rounds.install(ccgeom, counts)
    try:
        counts.op = "cut_gradient"
        counts.ops["cut_gradient"] += 1
        ccgeom.cut_gradient(sphere, [0.05, 0.1, 0.4])
    finally:
        uninstall()
    assert (counts.polar_levels, counts.polar_rays, counts.closed) == (0, 0, 7 * 2 + 1)
    refuse_closed_forms()
    uninstall = ray_rounds.install(ccgeom, counts)
    try:
        section_stats(ellipsoid([1.3, 0.8, 1.0], center=[0.2, -0.1, 0.4]), u, np.array([0.2, 0.3]))
        assert (counts.polar_levels, counts.polar_rays, counts.refined) == (2, 32, 0)
        section_stats(ccgeom.superellipsoid(4.0, dim=3), u, 0.25)
        assert (counts.polar_levels, counts.refined) == (3, 1)
        assert counts.polar_rays > 48 + 16
        # a section_diameter grid is cast outside any polar rule
        before = counts.polar_rays
        sections.section_diameter(ccgeom.unit_sphere(), u, 0.3)
        assert (counts.polar_levels, counts.polar_rays, counts.refined) == (3, before, 1)
        # the gradient's cut plane, with its moments and diameter, in a
        # kernel call of its own
        a = np.array([0.05, 0.1, 0.4])
        sections._sections(sphere, a[None] / np.linalg.norm(a), np.zeros(1, dtype=np.intp),
                           np.array([1.0 / np.linalg.norm(a)]), 1e-8, True, True)
    finally:
        uninstall()
    # the cut plane's 16 rays and 112 more
    assert counts.polar_levels == 3 + 1
    assert counts.polar_rays - before == 16 + 112
    assert counts.first_nodes == [16] * 3 and counts.refined == 1
    # the four refused levels fell back
    assert (counts.closed, counts.fell_back) == (7 * 2 + 1, 4)
    lines = ray_rounds.report("sccp-3d", 1, 3, counts).splitlines()
    line = next(x for x in lines if "polar rays" in x)
    assert line == (f"  polar rays per 3D section level: 16 in the first batch, "
                    f"{counts.polar_rays / 4:.2f} in all over 4 levels; "
                    f"1 levels refined past the first batch")
    assert "  3D section levels by path: 15 closed form, 4 polar; 4 fell back" in lines


def test_ray_rounds_counts_the_3d_levels_by_path(ray_rounds, monkeypatch):
    # levels on a quadric take the closed form, with their moments too, and
    # with F moved off the form by 1e-9 each falls back to the polar rule; a
    # level on a body without a form takes the polar rule
    sphere = ccgeom.unit_sphere([0.0, 0.0, 3.0])
    u = np.array([0.3, -0.2, 0.93]) / np.linalg.norm([0.3, -0.2, 0.93])
    levels = float(u @ sphere.translation) + np.array([-0.5, 0.0, 0.5])
    counts = ray_rounds.Counts()

    def run(*calls):
        uninstall = ray_rounds.install(ccgeom, counts)
        try:
            for call in calls:
                call()
        finally:
            uninstall()

    run(lambda: ccgeom.section_measure(sphere, u, levels),
        lambda: section_stats(sphere, u, levels[:1]),
        lambda: ccgeom.section_measure(ccgeom.superellipsoid(4.0, dim=3), u, 0.25))
    assert (counts.closed, counts.polar_levels, counts.fell_back) == (4, 1, 0)
    defining = bodies.BodySpec.defining
    monkeypatch.setattr(bodies.BodySpec, "defining", lambda self, x: defining(self, x) + 1e-9)
    run(lambda: ccgeom.section_measure(sphere, u, levels),
        lambda: section_stats(sphere, u, levels[:1]))
    assert (counts.closed, counts.polar_levels, counts.fell_back) == (4, 5, 4)
    report = ray_rounds.report("cutvol-3d", 1, 4, counts).splitlines()
    assert "  3D section levels by path: 4 closed form, 5 polar; 4 fell back" in report


def test_ray_rounds_counts_the_solver_rounds_of_each_shell_scan(ray_rounds, refuse_closed_forms):
    # the defining calls made inside a shell scan's solver are its rounds,
    # and the scan's chunks are not; two scans in one op count apart, and an
    # op without a scan counts none (a section, its closed form refused, so
    # that it casts a polar batch). The sheet takes the closed form, two
    # calls, and the hyperbola the grid scan
    refuse_closed_forms()
    sheet, hyperbola = ccgeom.hyperboloid_sheet([1.0, 1.4]), ccgeom.hyperboloid_sheet([1.0])
    u = np.array([0.3, -0.2, 0.93]) / np.linalg.norm([0.3, -0.2, 0.93])
    pool = [_op("shell", None), _op("section", None)]
    pool[0].call = lambda: (ccgeom.body_shell_points(sheet, 100.0, n_azimuth=96),
                            ccgeom.body_shell_points(hyperbola, 100.0))
    pool[1].call = lambda: section_stats(ellipsoid([1.3, 0.8, 1.0]), u, 0.3)
    counts = ray_rounds.Counts()
    uninstall = ray_rounds.install(ccgeom, counts)
    try:
        ray_rounds.run_pool(pool, counts)
    finally:
        uninstall()
    s = [len(brackets) for brackets in counts.scans]
    assert counts.paths == ["closed form", "grid"] and s[0] == 2 and s[1] >= 1
    # the 2D circle takes one chunk; every defining call of the section is an
    # F-round of one of its ray batches or a spine check
    assert counts.spine == [1, 1]
    assert sum(s) == counts.defining - 1 - sum(map(sum, counts.rounds.values())) - 1
    lines = ray_rounds.report("shell-3d", 1, 2, counts).splitlines()
    assert (f"  solver rounds per shell scan {np.mean(s):.2f} (max {max(s)}) over 2 scans"
            in lines)
    assert ("  shell scans by path: 1 closed form, 1 grid; 0 closed-form ladders fell back "
            "to the grid") in lines


def test_ray_rounds_counts_a_closed_form_that_falls_back_apart(ray_rounds, monkeypatch):
    # a ladder that shows no sign change returns None: its one call counts
    # as a fallback, and the grid scan after it as the scan
    sheet = ccgeom.hyperboloid_sheet([1.0, 1.4])
    monkeypatch.setattr(asymptotics, "_LADDER", asymptotics._LADDER + 2.0 ** -40)
    pool = [_op("shell", None)]
    pool[0].call = lambda: ccgeom.body_shell_points(sheet, 100.0, n_azimuth=96)
    counts = ray_rounds.Counts()
    uninstall = ray_rounds.install(ccgeom, counts)
    try:
        ray_rounds.run_pool(pool, counts)
    finally:
        uninstall()
    assert counts.paths == ["fallback", "grid"] and counts.scans[0] == [96 * 11]
    lines = ray_rounds.report("shell-3d", 1, 1, counts).splitlines()
    assert ("  shell scans by path: 0 closed form, 1 grid; 1 closed-form ladders fell back "
            "to the grid") in lines
    s = len(counts.scans[1])
    assert f"  solver rounds per shell scan {s:.2f} (max {s}) over 1 scans" in lines


def test_ray_rounds_counts_the_open_brackets_of_each_solver_round(ray_rounds):
    # every meridian of the sheet (moved off its axis, so scanned) crosses it
    # once and the hyperbola crosses the circle twice: 96 and 2 brackets open
    # in the first round, then fewer as they stop, and the last round still
    # has one open
    sheet = ccgeom.hyperboloid_sheet([1.0, 2.0], shift=[1.0, -2.0, 0.5])
    hyperbola = ccgeom.hyperboloid_sheet([1.0])
    pool = [_op("shell", None)]
    pool[0].call = lambda: (ccgeom.body_shell_points(sheet, 100.0, n_azimuth=96),
                            ccgeom.body_shell_points(hyperbola, 100.0))
    counts = ray_rounds.Counts()
    uninstall = ray_rounds.install(ccgeom, counts)
    try:
        ray_rounds.run_pool(pool, counts)
    finally:
        uninstall()
    assert [brackets[0] for brackets in counts.scans] == [96, 2]
    for brackets in counts.scans:
        assert all(a >= b >= 1 for a, b in zip(brackets, brackets[1:]))
    # the mean over the grid scans, a scan that has stopped counting 0
    counts.scans, counts.paths = [[4, 3, 1], [1056, 1440], [2]], ["grid", "closed form", "grid"]
    assert "  open brackets per solver round, mean over the grid scans: 3.0/1.5/0.5" in (
        ray_rounds.report("shell-3d", 1, 1, counts).splitlines())


def test_ray_rounds_times_the_solver_outside_f(ray_rounds):
    # the solver's seconds less its defining calls' seconds, per round
    sheet = ccgeom.hyperboloid_sheet([1.0, 1.4])
    pool = [_op("shell", None)]
    pool[0].call = lambda: ccgeom.body_shell_points(sheet, 100.0, n_azimuth=96)
    counts = ray_rounds.Counts()
    uninstall = ray_rounds.install(ccgeom, counts)
    try:
        ray_rounds.run_pool(pool, counts)
    finally:
        uninstall()
    assert 0.0 < counts.solve_f_s < counts.solve_s
    counts.scans, counts.solve_s, counts.solve_f_s = [[4, 3, 1], [2]], 0.003, 0.001
    counts.paths = ["grid", "grid"]
    assert "  solver time per round outside F 500.0 us over 4 rounds (median of 1 passes)" in (
        ray_rounds.report("shell-3d", 1, 1, counts).splitlines())
    # over passes, the median of their seconds outside F
    passes = [counts, ray_rounds.Counts(), ray_rounds.Counts()]
    for c, s in zip(passes[1:], (0.001, 0.004)):
        c.solve_s, c.solve_f_s = s, 0.0
    assert "  solver time per round outside F 500.0 us over 4 rounds (median of 3 passes)" in (
        ray_rounds.report("shell-3d", 1, 1, counts, passes).splitlines())


def test_ray_rounds_times_the_ray_root_finder_outside_f(ray_rounds, refuse_closed_forms):
    # per batch kind, the seconds inside ray_hits_batch less its defining
    # calls', per call: the median over the passes, the calls of the first;
    # a 3D section, its closed form refused, casts a first polar batch, a 2D
    # one an unguessed chord
    refuse_closed_forms()
    u = np.array([0.3, -0.2, 0.93]) / np.linalg.norm([0.3, -0.2, 0.93])
    pool = [_op("section", None)]
    pool[0].call = lambda: (section_stats(ellipsoid([1.3, 0.8, 1.0]), u, 0.3),
                            section_stats(ellipsoid([1.3, 0.8]), [0.6, 0.8], 0.3))
    passes = [ray_rounds.Counts() for _ in range(3)]
    for counts in passes:
        uninstall = ray_rounds.install(ccgeom, counts)
        try:
            ray_rounds.run_pool(pool, counts)
        finally:
            uninstall()
        assert set(counts.ray_s) == {"unguessed", "first polar"}
        assert all(0.0 < counts.ray_f_s[k] < counts.ray_s[k] for k in counts.ray_s)
    first = passes[0]
    first.rounds = {"unguessed": [2, 2], "first polar": [1]}
    for counts, (s, f) in zip(passes, [(0.004, 0.001), (0.002, 0.001), (0.003, 0.001)]):
        counts.ray_s = {"unguessed": s, "first polar": 0.0005, "refinement": 0.0}
        counts.ray_f_s = {"unguessed": f, "first polar": 0.0001, "refinement": 0.0}
    # unguessed: the median of 3000, 1000 and 2000 us over 2 calls; all
    # three calls: the median of 3400, 1400 and 2400 us
    assert ("  ray_hits_batch time per call outside F, median of 3 passes: all 800.0 us, "
            "unguessed 1000.0 us, first polar 400.0 us") in (
        ray_rounds.report("sccp-3d", 1, 1, first, passes).splitlines())


def test_ray_rounds_counts_the_page_faults_of_each_op(ray_rounds):
    # an op that writes to each page of a fresh 1 MB anonymous map faults
    # them in; an op that allocates nothing faults none of them in
    def touch():
        with mmap.mmap(-1, 1 << 20) as pages:
            for i in range(0, len(pages), mmap.PAGESIZE):
                pages[i] = 1

    counts = ray_rounds.Counts()
    pool = [_op("touch", None), _op("idle", None)]
    pool[0].call = touch
    ray_rounds.run_pool(pool, counts)
    assert counts.ops == {"touch": 1, "idle": 1}
    assert len(counts.faults) == 2 and counts.faults[0] >= 1
    assert counts.faults[1] < counts.faults[0]
    counts.faults = [0, 3, 5]
    assert "  minor page faults per op: median 3, mean 2.7 (max 5) over 3 ops" in (
        ray_rounds.report("shell-3d", 1, 3, counts).splitlines())


def test_ray_rounds_labels_a_body_by_what_sets_it_apart(ray_rounds):
    assert ray_rounds.label(ccgeom.function_epigraph("square")) == "square"
    assert ray_rounds.label(ccgeom.superellipsoid(4.0)) == "superellipsoid [4.0]"
    assert (ray_rounds.label(ccgeom.unit_sphere([0.0, 0.0, 3.0]))
            == "ellipsoid [1.0, 1.0, 1.0] at [0.0, 0.0, 3.0]")


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


def test_op_digest_catalog_names_every_kind_and_tag(op_digest):
    pool = op_digest.catalog(0)
    calls, scans = {}, []
    for op in pool:
        kind, dim, *moved, call = op.name.split()
        if call == "asymptotics.body_shell_points":
            scans.append((kind, dim))
            continue
        calls.setdefault((kind, dim, bool(moved)), []).append(call)
    # each 3D body once through the grid scan of body_shell_points
    assert sorted(scans) == sorted({(kind, "3d") for kind, dim, _ in calls if dim == "3d"})
    kinds = {kind for kind, _, _ in calls}
    assert {kind.split(":")[0] for kind in kinds} == set(bodies.KINDS)
    assert {kind.split(":")[1] for kind in kinds if ":" in kind} == set(bodies.FUNCTION_TAGS)
    # every body in 2D, and in 3D but for the planar epigraphs, unmoved and
    # moved, through every call but the shell scan, which needs a cone with
    # interior
    for kind in kinds:
        for dim in ("2d",) if kind.startswith("function-epigraph") else ("2d", "3d"):
            for moved in (False, True):
                body = calls.pop((kind, dim, moved))
                at_normal = ["sections.admissible_levels"] + ["sections.section_stats"] * 3
                assert body[:12] == at_normal * 2 + [
                    "cutvol.halfspace_cut_volume", "sections.section_diameter"] + [
                    "bodies.ray_hits_batch"] * 2
                assert body[12:] in (["bodies.gauss_map"],
                                     ["bodies.gauss_map", "asymptotics.shell_distance"])
    assert not calls
    # no op raises: every input is admissible
    results = []
    op_digest.digest(pool, results)
    assert not [op.name for op, r in zip(pool, results) if r.dtype.kind == "U"]
