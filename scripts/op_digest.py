#!/usr/bin/env python3
"""Print one SHA-256 per benchmark workload over the results of its ops:

    python scripts/op_digest.py --seed 1 > digests.txt
    python scripts/op_digest.py --seed 1 --dump results-seed1.npz

Each workload's pool (``perfbench/workloads.py``) is built for the seed and
every op runs once, in pool order. A last pool, ``catalog``, covers what no
workload runs: every body kind and function tag of ``ccgeom.bodies``, in 2D
and in 3D where the kind allows, unmoved and moved along e_d, each through
admissible_levels and section_stats at two normals, one halfspace cut
volume and section_diameter at its level, one unguessed ray batch and one
guessed from its hits (see ``GUESS_OFFSETS``), the Gauss map and (where
its recession cone has interior) a shell scan, and each 3D
body once more through the grid scan of ``body_shell_points`` (see
``SCAN_RADII``); its op names start with the body. A result is hashed by
value: a float or a float array by its ``tobytes()`` (with its shape), a
dataclass field by field, an op that raises by its error's type and
message. Two checkouts that print the same digests gave the same result,
bit for bit, on every op, so checking that a change leaves every number
alone is one ``diff`` of this script's output run in each checkout.

With ``--dump PATH`` the results are also written to one ``.npz`` file, one
entry per op named ``WORKLOAD/INDEX/OP`` in pool order: the result
flattened to a float64 array (a dataclass field by field, skipping its
strings and Nones), or the error text of an op that raised. Where two
checkouts differ within a tolerance, ``scripts/op_diff.py`` compares two
such files.
"""
import argparse
import collections
import dataclasses
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (first: it pins the thread counts before numpy loads)
import numpy as np  # noqa: E402


def _feed(h, value):
    """Add one result to the hash h, tagged by its type."""
    if dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            _feed(h, getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        h.update(b"[%d" % len(value))
        for item in value:
            _feed(h, item)
    elif isinstance(value, str):
        h.update(b"s" + value.encode() + b"\0")
    elif value is None:
        h.update(b"n")
    else:
        a = np.asarray(value)
        if a.dtype == object:
            raise TypeError(f"cannot hash a result of type {type(value).__name__}")
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())


def _flatten(value):
    """The numbers of one result, in the order _feed hashes them."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        parts = [_flatten(item) for item in value if not isinstance(item, str) and item is not None]
        return np.concatenate(parts) if parts else np.zeros(0)
    return np.asarray(value, dtype=float).ravel()


def digest(pool, results=None):
    """SHA-256 over the results of the ops in pool; each result, or the
    error text of an op that raised, is appended to the list results."""
    h = hashlib.sha256()
    for op in pool:
        h.update(op.name.encode())
        try:
            result = op.call()
        except Exception as e:  # a failure is part of the result
            result = f"{type(e).__name__}: {e}"
        _feed(h, result)
        if results is not None:
            results.append(np.array(result) if isinstance(result, str) else _flatten(result))
    return h.hexdigest()


# the catalog's bodies: (kind, params, dimension, function tag)
CATALOG = [
    ("ellipsoid", (1.3, 0.8), 2, None), ("ellipsoid", (1.3, 0.8, 1.1), 3, None),
    ("elliptic-paraboloid-epigraph", (0.7,), 2, None),
    ("elliptic-paraboloid-epigraph", (1.0, 0.7), 3, None),
    ("hyperboloid-upper-sheet", (1.2,), 2, None),
    ("hyperboloid-upper-sheet", (1.0, 1.4), 3, None),
    ("circular-cone", (1.7,), 2, None), ("circular-cone", (0.6,), 3, None),
    ("superellipsoid", (4.0,), 2, None), ("superellipsoid", (3.0,), 3, None),
] + [("function-epigraph", (), 2, tag) for tag in ("square", "quartic", "exp", "cosh")]
CATALOG_SHIFT = 2.5  # the moved copy of each body, along e_d
# one shell scan of each 3D body on the grid path, at 24 azimuths: the
# bounded bodies at a radius that cuts them, and the unbounded quadrics,
# whose closed form serves them on their axis alone, moved off it
SCAN_RADII = {"ellipsoid": 1.0, "superellipsoid": 1.1}
SCAN_OFF_AXIS = (0.3, -0.2, 0.0)
# the guessed ray batch's guesses, as offsets of the unguessed hits: 0 and
# +-3e-13 lie inside the inner probe pair, +-1e-9 between the pairs, +-1e-3
# outside both (the solver steps) and -0.5 has every probe inside (the
# ladder), so every body's ladder and steps are covered
GUESS_OFFSETS = np.array([0.0, 3e-13, -3e-13, 1e-9, -1e-9, 1e-3, -1e-3, -0.5])


CatalogOp = collections.namedtuple("CatalogOp", "name call")  # name: "<body> <module>.<function>"


def _unit_rows(rng, n, d, keep):
    """n seeded unit rows u of R^d, drawn until keep(u) holds for each."""
    rows = []
    while len(rows) < n:
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        if keep(u):
            rows.append(u)
    return np.array(rows)


def _body_ops(body, label, rng):
    """The catalog's ops on one body, named after its label."""
    import ccgeom as cg
    from ccgeom import bodies

    d, cone = body.ambient_dim, body.recession_cone()
    ops = []

    def op(fn, call):
        ops.append(CatalogOp(f"{label} {fn}", call))

    # two normals near e_d whose sections, and the cuts below them, are bounded
    normals = _unit_rows(rng, 2, d, lambda u: u[-1] > 0.5 and cg.section_bounded(body, u)
                         and (cone.dim == 0 or cone.positive_on(u)))
    for u in normals:
        op("sections.admissible_levels", lambda u=u: cg.admissible_levels(body, u))
        lo, hi = cg.admissible_levels(body, u)
        if not np.isfinite(hi):
            hi = max(lo, 0.0) + 4.0 * body.scale
        for f in (0.2, 0.5, 0.8):
            op("sections.section_stats",
               lambda u=u, t=lo + f * (hi - lo): cg.section_stats(body, u, t))
    # one cut of the last normal, and its section's diameter, at the middle
    # of its levels
    op("cutvol.halfspace_cut_volume",
       lambda t=0.5 * (lo + hi): cg.halfspace_cut_volume(body, normals[-1], t))
    op("sections.section_diameter",
       lambda t=0.5 * (lo + hi): cg.section_diameter(body, normals[-1], t))
    # directions well outside the recession cone, so that every ray leaves
    W = _unit_rows(rng, 8, d, lambda w: cone.defining(w) > 0.1)
    op("bodies.ray_hits_batch", lambda: bodies.ray_hits_batch(body, body.interior_point(), W))

    def guessed():
        c = body.interior_point()
        hits = bodies.ray_hits_batch(body, c, W)[0]
        return bodies.ray_hits_batch(body, c, W, guess=hits * (1.0 + GUESS_OFFSETS))
    op("bodies.ray_hits_batch", guessed)
    U = _unit_rows(rng, 8, d, lambda u: True)
    op("bodies.gauss_map", lambda: body.gauss_map(U))
    if cone.dim == d:
        op("asymptotics.shell_distance", lambda: cg.shell_distance(body, cone, 100.0, 24))
    return ops


def catalog(seed):
    """The catalog pool for the seed, body by body."""
    from ccgeom import BodySpec, body_shell_points

    rng = np.random.default_rng(seed)
    pool = []
    for kind, params, d, tag in CATALOG:
        for shift in (0.0, CATALOG_SHIFT):
            body = BodySpec(kind, params, shift * np.eye(d)[-1], ambient_dim=d, tag=tag)
            label = f"{kind}{'' if tag is None else ':' + tag} {d}d{' moved' if shift else ''}"
            pool += _body_ops(body, label, rng)
        if d == 3:
            R = SCAN_RADII.get(kind, 100.0)
            shift = np.zeros(3) if kind in SCAN_RADII else np.array(SCAN_OFF_AXIS)
            body = BodySpec(kind, params, shift, ambient_dim=d)
            pool.append(CatalogOp(f"{kind} 3d{' off-axis' if shift.any() else ''} "
                                  "asymptotics.body_shell_points",
                                  lambda body=body, R=R: body_shell_points(body, R, 24)))
    return pool


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dump", metavar="PATH", help="also write every op's result to this .npz")
    args = ap.parse_args(argv)
    run.import_library()
    import workloads

    dumped = {}
    pools = {name: workload.build for name, workload in workloads.WORKLOADS.items()}
    for name, build in dict(pools, catalog=catalog).items():
        pool = build(args.seed)
        results = []
        print(f"{name} seed {args.seed} {len(pool)} ops {digest(pool, results)}", flush=True)
        dumped.update((f"{name}/{i:04d}/{op.name}", r)
                      for i, (op, r) in enumerate(zip(pool, results)))
    if args.dump:
        np.savez(args.dump, **dumped)
    return 0


if __name__ == "__main__":
    sys.exit(main())
