"""The builder of the cone covers that `vorlab.cellsim.cone_directions` ships.

For d = 3, 4, 5 the cover of R^d by pi/4 cones is a fixed, seeded constant,
stored in `src/vorlab/cone_covers.npz`.  This module is the reference it was
built with: the tests compare the table against `build_cone_directions` bit
for bit.  Run as a script, it rebuilds the table (scipy is needed):

    PYTHONPATH=src python tests/cone_cover.py
"""

from __future__ import annotations

import math
import zipfile
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull
from scipy.special import ndtri
from scipy.stats import qmc

from vorlab.cellsim import _COS_CONE, _CONE_BOUNDARY_TOL, _DIAM_MAX_D, CONE_HALF_APERTURE

TABLE = Path(__file__).resolve().parents[1] / "src" / "vorlab" / "cone_covers.npz"

_CONE_SEED = 20260809
# the greedy cover's (m, m) bool matrix is bounded by m = 4096 candidates
# (16 MB) and built from row blocks of the Gram matrix; cone membership of
# the random validation vectors is tested in blocks of 2^20 products (8 MB)
_COVER_CANDIDATES = 4096
_COVER_BLOCK = 256
_COVER_ELEMENTS = 1 << 20


def _sphere_lds(d: int, n: int, seed_key: int) -> np.ndarray:
    gen = np.random.default_rng(
        np.random.SeedSequence(entropy=_CONE_SEED, spawn_key=(seed_key,))
    )
    u = qmc.Sobol(d, scramble=True, seed=gen).random(n)
    z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _greedy_cover(cand: np.ndarray) -> np.ndarray:
    """Rows of cand picked greedily until their caps cover every row of cand.

    Each pick is the first row that covers the most rows not yet covered.
    The caps are shrunk slightly, so that points between candidates still
    fall inside the full pi/8 caps.  The gains are kept as exact counts and
    lowered by the newly covered rows after each pick, which makes every pick
    linear in len(cand).  That update reads rows of `cover` where columns are
    meant, which holds because the Gram matrix is symmetric bit for bit: the
    dot products behind entries (i, j) and (j, i) add the same products in
    the same order.
    """
    m = len(cand)
    cos_cover = math.cos(0.92 * CONE_HALF_APERTURE)
    cover = np.empty((m, m), dtype=bool)  # cover[i, j]: cand[i] covers cand[j]
    for lo in range(0, m, _COVER_BLOCK):
        np.greater_equal(cand[lo : lo + _COVER_BLOCK] @ cand.T, cos_cover,
                         out=cover[lo : lo + _COVER_BLOCK])
    gain = cover.sum(axis=1)
    uncovered = np.ones(m, dtype=bool)
    picks = []
    while uncovered.any():
        best = int(np.argmax(gain))
        picks.append(best)
        newly = uncovered & cover[best]
        gain -= cover[newly].sum(axis=0)
        uncovered &= ~newly
    return cand[picks]


def _outside_cones(v: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Rows of v in no cone around dirs, tested in row blocks of v."""
    step = max(1, _COVER_ELEMENTS // len(dirs))
    inside = np.concatenate([
        (v[lo : lo + step] @ dirs.T >= _COS_CONE - _CONE_BOUNDARY_TOL).any(axis=1)
        for lo in range(0, len(v), step)
    ])
    return v[~inside]


def _deep_holes(dirs: np.ndarray) -> np.ndarray:
    """Unit vectors farther than pi/8 from every direction, one per hull facet
    that has such points; empty when the cones cover R^d.

    The unit vectors farthest from a direction set are the circumcenters of
    the facets of its convex hull (the vertices of its spherical Voronoi
    diagram).  A facet n . x = c has its vertices at angle arccos(c) from
    its circumcenter n and no direction nearer, so the holes are the normals
    of the facets with c < cos(pi/8).
    """
    eq = ConvexHull(dirs).equations  # rows (n, -c)
    normals = eq[-eq[:, -1] < _COS_CONE, :-1]
    return normals / np.linalg.norm(normals, axis=1, keepdims=True)


def build_cone_directions(d: int) -> np.ndarray:
    """Unit directions whose pi/4-aperture cones cover all of R^d, d >= 3.

    A greedy cap cover (`_greedy_cover`) over a low-discrepancy sphere
    point set, repaired in rounds.  Each round looks for holes, unit
    vectors outside every cone: first among 10^5 random unit vectors, and
    when these are all covered, among the circumcenters of the convex hull's
    facets (`_deep_holes`), which finds every hole there is.  A round adds a
    greedy cover of (up to 4096 of) the holes it found; no holes means the
    cover is complete, and holes left after 64 rounds raise.
    """
    dirs = _greedy_cover(_sphere_lds(d, _COVER_CANDIDATES, 0))
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=_CONE_SEED, spawn_key=(d, 1)))
    )
    for _ in range(64):
        v = rng.standard_normal((100_000, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        holes = _outside_cones(v, dirs)
        if len(holes) == 0:
            holes = _deep_holes(dirs)
            if len(holes) == 0:
                break
        dirs = np.vstack([dirs, _greedy_cover(holes[:_COVER_CANDIDATES])])
    else:
        raise ValueError(f"no complete cone cover of R^{d} after 64 repair rounds")
    return dirs


def main() -> None:
    covers = {f"d{d}": build_cone_directions(d) for d in range(3, _DIAM_MAX_D + 1)}
    # the layout of np.savez, with the members' fixed default time stamp in
    # place of the current time, so that an unchanged table keeps its bytes
    with zipfile.ZipFile(TABLE, "w") as table:
        for key, dirs in covers.items():
            with table.open(zipfile.ZipInfo(f"{key}.npy"), "w") as fh:
                np.lib.format.write_array(fh, dirs, allow_pickle=False)
    print(f"wrote {TABLE}: " + ", ".join(f"{k} {v.shape}" for k, v in covers.items()))


if __name__ == "__main__":
    main()
