"""Command-line front end: experiments as subcommands with JSON configs.

Subcommands: section, sccp, cutvol, asym.  Every run emits a JSON report
(config echo, rows, summary, wall time, version) and a CSV payload whose
bytes are a deterministic function of the config.  This module owns every
CSV and JSON layout; the library's result types hold values only.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import _N_AZIMUTH, blowdown_check, shell_distance, trend_verdict
from .bodies import BodySpec
from .centroids import MIN_LEVELS, classify_lines, sccp_residual
from .cutvol import (
    _check_move,
    _spread,
    cut_gradient,
    cut_volume,
    floating_constancy,
    homothety_cut_scan,
    parallel_cut_scan,
)
from .errors import GeometryError
from .sections import (
    DEFAULT_RTOL,
    admissible_levels,
    section_bounded,
    section_diameter,
    section_stats,
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_ALL_FAILED = 3
NO_ROWS = "config selects no rows"
_AXES = "xyz"


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue().encode()


class ConfigError(Exception):
    pass


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _is_number(x):
    """A finite int or float; json reads NaN and Infinity, and bools are ints."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _number(cfg, key, default=None, integer=False):
    """A number-valued key (integral with ``integer``); required without a default."""
    x = _require(cfg, key) if default is None else cfg.get(key, default)
    if not _is_number(x) or (integer and isinstance(x, float) and not x.is_integer()):
        raise ConfigError(
            f"config key {key!r} must be {'an integer' if integer else 'a finite number'}")
    return int(x) if integer else float(x)


def _move(cfg, key, body, shift, where):
    """The config's required number ``key``, a cut's shift (shift True) or
    factor, in the range the library's scans take; where names the op or
    mode in the message."""
    x = _number(cfg, key)
    try:
        _check_move(f"config key {key!r}", x, body, shift)
    except ValueError as e:
        raise ConfigError(f"{e} {where}") from e
    return x


def _rtol(cfg):
    """The config's ``tol``, a relative tolerance in (0, 1)."""
    tol = _number(cfg, "tol", DEFAULT_RTOL)
    if not 0.0 < tol < 1.0:
        raise ConfigError("config key 'tol' must lie in (0, 1)")
    return tol


def _seed(cfg):
    """The config's ``seed``, a non-negative integer (default 0)."""
    seed = _number(cfg, "seed", 0, integer=True)
    if seed < 0:
        raise ConfigError("config key 'seed' must be >= 0")
    return seed


def _list(cfg, key, length=None):
    """A required list of numbers, or with ``length`` of number lists that long; as given."""
    xs = _require(cfg, key)
    vecs = xs if length is not None and isinstance(xs, list) else [xs]
    if not all(isinstance(v, list) and all(map(_is_number, v))
               and (length is None or len(v) == length) for v in vecs):
        what = "numbers" if length is None else f"number lists of length {length}"
        raise ConfigError(f"config key {key!r} must be a list of finite {what}")
    return xs


def _vectors(cfg, key, dim):
    """The config's list ``key`` of finite nonzero vectors in R^dim, as arrays."""
    vecs = [np.asarray(v, dtype=float) for v in _list(cfg, key, dim)]
    if not all(0.0 < np.linalg.norm(v) < np.inf for v in vecs):
        raise ConfigError(f"config key {key!r} must hold finite nonzero vectors")
    return vecs


def _body(cfg) -> BodySpec:
    try:
        return BodySpec.from_json(_require(cfg, "body"))
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"invalid body spec: {e}") from e


def _bounded_normals(body, n, rng):
    """Random unit normals with bounded sections, from at most 1000 n draws of rng."""
    for _ in range(1000 * n):
        u = rng.normal(size=body.ambient_dim)
        nu = np.linalg.norm(u)
        if nu < 1e-12:
            continue
        u /= nu
        if section_bounded(body, u):
            yield u


def _sample_directions(body, n, seed):
    """n unit normals with bounded sections, deterministic in seed (numpy default_rng)."""
    normals = _bounded_normals(body, n, np.random.default_rng(seed))
    out = list(itertools.islice(normals, max(n, 0)))
    if len(out) < n:
        raise ConfigError("could not sample enough admissible directions")
    return out


def _rows(header, keys, solve, columns):
    """Rows of the header's width, one per (key columns, argument) in keys: the
    key's columns, then ``columns(solve(argument))`` and an empty error, or on a
    GeometryError blanks and the error's type name.  Also the results solved."""
    rows, results = [], []
    for cols, arg in keys:
        try:
            result = solve(arg)
        except GeometryError as e:
            rows.append(cols + [""] * (len(header) - len(cols) - 1) + [type(e).__name__])
            continue
        results.append(result)
        rows.append(cols + columns(result) + [""])
    return rows, results


# ----------------------------------------------------------------- presets

PRESETS = {
    "section": {
        "disk-grid": {
            "body": {"kind": "ellipsoid", "params": [1.0, 1.0],
                     "translation": [0.0, 0.0], "dim": 2},
            "directions": [[1.0, 0.0], [0.0, 1.0],
                           [0.7071067811865476, 0.7071067811865476]],
            "levels": [-0.5, 0.0, 0.5],
        },
    },
    "sccp": {
        "ellipsoid": {
            "body": {"kind": "ellipsoid", "params": [1.3, 0.8, 1.0],
                     "translation": [0.2, -0.1, 0.4], "dim": 3},
            "n_directions": 12,
        },
        "paraboloid": {
            "body": {"kind": "elliptic-paraboloid-epigraph", "params": [1.0, 0.7],
                     "translation": [0.0, 0.0, 0.0], "dim": 3},
            "n_directions": 12,
        },
        "hyperboloid": {
            "body": {"kind": "hyperboloid-upper-sheet", "params": [1.0, 1.4],
                     "translation": [0.0, 0.0, 0.0], "dim": 3},
            "n_directions": 12,
        },
        "controls": {
            "body": {"kind": "superellipsoid", "params": [4.0],
                     "translation": [0.0, 0.0], "dim": 2},
            "directions": [
                [0.4472135954999579, 0.8944271909999159],
                [-0.4472135954999579, 0.8944271909999159],
                [0.8944271909999159, 0.4472135954999579],
            ],
        },
    },
    "cutvol": {
        "parabola-parallel": {
            "body": {"kind": "function-epigraph", "params": [], "tag": "square",
                     "translation": [0.0, 0.0], "dim": 2},
            "op": "parallel", "k": 1.0,
            "anchors": [[-2.0], [-1.0], [0.0], [1.0], [2.0]],
        },
        "paraboloid-parallel": {
            "body": {"kind": "elliptic-paraboloid-epigraph", "params": [1.0, 1.0],
                     "translation": [0.0, 0.0, 0.0], "dim": 3},
            "op": "parallel", "k": 1.0,
            "anchors": [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0],
                        [0.0, 1.0], [0.5, -0.5]],
        },
        "hyperbola-homothety": {
            "body": {"kind": "hyperboloid-upper-sheet", "params": [1.0],
                     "translation": [0.0, 0.0], "dim": 2},
            "op": "homothety", "k": 2.0,
            "anchors": [[-1.0], [-0.5], [0.0], [0.5], [1.0]],
        },
        "quartic-control": {
            "body": {"kind": "function-epigraph", "params": [], "tag": "quartic",
                     "translation": [0.0, 0.0], "dim": 2},
            "op": "parallel", "k": 1.0, "anchors": [[0.0], [1.0]],
        },
        "cosh-control": {
            "body": {"kind": "function-epigraph", "params": [], "tag": "cosh",
                     "translation": [0.0, 0.0], "dim": 2},
            "op": "homothety", "k": 2.0, "anchors": [[0.0], [1.0]],
        },
        "sphere-gradient": {
            "body": {"kind": "ellipsoid", "params": [1.0, 1.0, 1.0],
                     "translation": [0.0, 0.0, 3.0], "dim": 3},
            "op": "gradient", "n_cuts": 5,
        },
    },
    "asym": {
        "fig1": {
            "body": {"kind": "function-epigraph", "params": [], "tag": "exp",
                     "translation": [0.0, 0.0], "dim": 2},
            "radii": [100.0, 1000.0, 10000.0, 100000.0],
        },
        "hyperboloid": {
            "body": {"kind": "hyperboloid-upper-sheet", "params": [1.0],
                     "translation": [0.0, 0.0], "dim": 2},
            "radii": [10.0, 100.0, 1000.0, 10000.0],
        },
        "parabola-ray": {
            "body": {"kind": "function-epigraph", "params": [], "tag": "square",
                     "translation": [0.0, 0.0], "dim": 2},
            "radii": [100.0, 1000.0, 10000.0, 100000.0],
        },
    },
}


# ----------------------------------------------------------------- commands


def cmd_section(cfg):
    body = _body(cfg)
    dirs = [u / np.linalg.norm(u) for u in _vectors(cfg, "directions", body.ambient_dim)]
    levels = [float(t) for t in _list(cfg, "levels")]
    rtol = _rtol(cfg)
    axes = _AXES[: body.ambient_dim]
    header = ([f"u{a}" for a in axes] + ["t", "measure"] + [f"c{a}" for a in axes]
              + ["err", "n_evals", "error"])
    rows, stats = _rows(header, [([*u, t], (u, t)) for u in dirs for t in levels],
                        lambda ut: section_stats(body, *ut, rtol=rtol),
                        lambda s: [s.measure, *s.centroid, s.err_estimate, s.n_evals])
    summary = {"n_rows": len(rows), "n_failed": len(rows) - len(stats)}
    return header, rows, summary, not stats


def cmd_sccp(cfg):
    body = _body(cfg)
    rtol = _rtol(cfg)
    classify_tol = _number(cfg, "classify_tol", 1e-5)
    if not classify_tol > 0.0:
        raise ConfigError("config key 'classify_tol' must be > 0")
    seed = _seed(cfg)
    if "directions" in cfg:
        dirs = [u / np.linalg.norm(u) for u in _vectors(cfg, "directions", body.ambient_dim)]
    else:
        dirs = _sample_directions(body, _number(cfg, "n_directions", integer=True), seed)
    n_levels = None if cfg.get("n_levels") is None else _number(cfg, "n_levels", integer=True)
    if n_levels is not None and n_levels < MIN_LEVELS:
        raise ConfigError(f"config key 'n_levels' must be >= {MIN_LEVELS}")
    axes = _AXES[: body.ambient_dim]
    header = ([f"u{a}" for a in axes] + ["residual_norm", "residual_rms"]
              + [f"base_{a}" for a in axes] + [f"dir_{a}" for a in axes] + ["error"])
    rows, fits = _rows(header, [(list(u), u) for u in dirs],
                       lambda u: sccp_residual(body, u, n_levels=n_levels, rtol=rtol),
                       lambda f: [f.residual_norm, f.residual_rms, *f.base, *f.dir])
    summary = {"n_rows": len(rows), "n_failed": len(rows) - len(fits)}
    if len(fits) >= 3:
        v = classify_lines(fits, tol=classify_tol)
        summary["verdict"] = {"tag": v.tag, "witness": v.witness.tolist(),
                              "score": v.score, "tie": v.tie}
        summary["max_residual_norm"] = max(f.residual_norm for f in fits)
    return header, rows, summary, not fits


def cmd_cutvol(cfg):
    body = _body(cfg)
    op = cfg.get("op", "volume")
    if op == "gradient":
        return _cutvol_gradient(body, cfg)
    rtol = _rtol(cfg)
    if op in ("parallel", "homothety"):
        shift = op == "parallel"
        k = _move(cfg, "k", body, shift, f"for op {op!r}")
        anchors = _list(cfg, "anchors", body.ambient_dim - 1)
        scan = parallel_cut_scan if op == "parallel" else homothety_cut_scan
        values = scan(body, k, anchors, rtol=rtol)
        if 0.0 in values:  # the spread of volumes that round to 0 is 0/0
            raise ConfigError(f"config key 'k' = {k} gives a cut volume of 0")
        labels = [json.dumps(anchor) for anchor in anchors]
        header = ["anchor", "value", "err"]
    elif op == "floating":
        n_normals = _number(cfg, "n_normals", 12, integer=True)
        if n_normals < 1:
            raise ConfigError(NO_ROWS)
        mode = _require(cfg, "mode")
        if mode not in ("translate", "scale"):
            raise ConfigError("config key 'mode' must be 'translate' or 'scale'")
        shift = mode == "translate"
        lam = _move(cfg, "lam", body, shift, f"in mode {mode!r}")
        values = floating_constancy(body, mode, lam, n_normals=n_normals, seed=_seed(cfg),
                                    rtol=rtol)["values"]
        labels = range(len(values))
        header = ["index", "value", "err"]
    elif op == "volume":
        cuts = _vectors(cfg, "cuts", body.ambient_dim)
        values = [cut_volume(body, a, rtol=rtol) for a in cuts]
        labels = [json.dumps(list(a)) for a in cuts]
        header = ["a", "V", "err"]
    else:
        raise ConfigError(f"unknown cutvol op {op!r}")
    rows = [[label, v, rtol * v] for label, v in zip(labels, values)]
    if op != "volume":
        return header, rows, _spread(values) if values else {}, False
    finite = [v for v in values if np.isfinite(v)]
    summary = {"n_rows": len(rows), "n_infinite": len(values) - len(finite)}
    if finite:
        summary.update(min=min(finite), max=max(finite), mean=float(np.mean(finite)))
    return header, rows, summary, False


def _cutvol_gradient(body, cfg):
    """cutvol's ``gradient`` op: one cut_gradient audit per cut."""
    rtol = _rtol(cfg)
    shift = np.zeros(body.ambient_dim)
    if bool(body.contains(np.zeros(body.ambient_dim))):
        if "cuts" in cfg:
            raise ConfigError(
                "body contains the origin; explicit cuts are ambiguous "
                "after auto-translation, move the body yourself")
        # move the body up until the origin is strictly outside
        shift[-1] = 3.0 * (body.scale
                           + float(np.linalg.norm(body.translation)) + 1.0)
        body = dataclasses.replace(body, translation=body.translation + shift)
    if "cuts" in cfg:
        cuts = _vectors(cfg, "cuts", body.ambient_dim)
    else:
        cuts = _random_cuts(body, _number(cfg, "n_cuts", 5, integer=True), _seed(cfg))
    header = ["a", "V", "identity_residual", "moment_residual",
              "section_diameter", "err", "error"]
    rows, results = _rows(header, [([json.dumps(list(a))], a) for a in cuts],
                          lambda a: cut_gradient(body, a, rtol=rtol),
                          lambda r: [r.V, r.identity_residual, r.moment_residual,
                                     r.section_diameter, r.err_estimate])
    summary = {"n_failed": len(rows) - len(results)}
    if float(np.linalg.norm(shift)) > 0.0:
        summary["origin_shift"] = shift.tolist()
    if results:
        summary["max_scaled_identity_residual"] = max(
            r.identity_residual / r.section_diameter for r in results)
    return header, rows, summary, not results


def _random_cuts(body, n, seed):
    """Admissible cut parameters a with 0 < V(a) < inf, deterministically."""
    rng = np.random.default_rng(seed)
    cone = body.recession_cone()
    cuts = []
    for u in _bounded_normals(body, n, rng):
        if not cone.positive_on(u):
            u = -u
        if abs(u[-1]) < 0.3:  # keep finite-difference steps well-conditioned
            continue
        lo, hi = admissible_levels(body, u)
        if not np.isfinite(hi):
            hi = max(lo, 0.0) + 4.0 * body.scale
        span = hi - lo
        s = lo + (0.2 + 0.6 * rng.random()) * span
        if s <= 1e-3 * body.scale and cone.dim > 0:
            continue
        if abs(s) < 1e-3 * body.scale:
            continue
        # near-asymptotic normals give huge, ill-conditioned sections where
        # a finite-difference step changes the cut volume disproportionately
        if section_diameter(body, u, s) > 20.0 * body.scale:
            continue
        cuts.append(u / s)
        if len(cuts) == n:
            break
    if len(cuts) < n:
        raise ConfigError("could not sample enough admissible cuts")
    return cuts


def cmd_asym(cfg):
    body = _body(cfg)
    radii = [float(r) for r in _list(cfg, "radii")]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("config key 'radii' must increase")
    n_az = _number(cfg, "n_azimuth", _N_AZIMUTH, integer=True)
    if n_az < 1:
        raise ConfigError("config key 'n_azimuth' must be >= 1")
    cone = body.recession_cone()

    def shell(R):
        try:
            return shell_distance(body, cone, R, n_azimuth=n_az)
        except ValueError as e:  # a radius too small for the body, or one that overflows
            raise ConfigError(f"config key 'radii': {e}") from e

    header = ["R", "d_asym", "d_blowdown", "err", "error"]
    rows, shells = _rows(header, [([R], R) for R in radii], shell,
                         lambda sd: [sd.d_asym, sd.d_blowdown, sd.err])
    summary = {"n_rows": len(rows), "n_failed": len(rows) - len(shells)}
    if len(shells) >= 4:
        summary["verdict"] = trend_verdict([sd.d_asym for sd in shells])
    if shells:
        with contextlib.suppress(GeometryError):
            summary["d_blowdown_final"] = blowdown_check(body, radii[-1], n_azimuth=n_az)
    return header, rows, summary, not shells


COMMANDS = {
    "section": cmd_section,
    "sccp": cmd_sccp,
    "cutvol": cmd_cutvol,
    "asym": cmd_asym,
}


# ----------------------------------------------------------------- driver


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ccgeom",
        description="section centroids, cut volumes, and cone asymptotics "
                    "for convex bodies",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--preset", choices=sorted(PRESETS[name]),
                       help="named built-in experiment")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--tol", type=float, help="quadrature tolerance override")
        p.add_argument("--seed", type=int, help="RNG seed override")
        p.add_argument("--format", choices=("csv", "json"), default="json",
                       dest="fmt", help="what to print on stdout")
    return ap


def _load_config(args):
    if args.config is None and args.preset is None:
        raise ConfigError("either --config or --preset is required")
    if args.config is not None:
        try:
            cfg = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}") from e
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    else:
        cfg = json.loads(json.dumps(PRESETS[args.command][args.preset]))
    if args.tol is not None:
        cfg["tol"] = args.tol
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    t0 = time.perf_counter()
    try:
        header, rows, summary, all_failed = COMMANDS[args.command](cfg)
        if not rows:
            raise ConfigError(NO_ROWS)
    except (ConfigError, ValueError, GeometryError) as e:
        # a geometry error outside the per-row handlers means the config asks
        # for an operation the body does not support
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    wall = time.perf_counter() - t0
    payload = _csv_bytes(header, rows)
    report = {
        "config": cfg,
        "command": args.command,
        "rows": [dict(zip(header, (_fmt(v) for v in row))) for row in rows],
        "summary": summary,
        "wall_time_s": wall,
        "version": __version__,
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "rows.csv").write_bytes(payload)
        (args.out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.fmt == "csv":
        sys.stdout.write(payload.decode())
    else:
        print(json.dumps({"summary": summary, "wall_time_s": wall,
                          "version": __version__}, indent=2))
    return EXIT_ALL_FAILED if all_failed else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
