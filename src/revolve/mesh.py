"""Revolves a profile into a triangle mesh and measures discrete curvature.

Vertex layout: one ring of n_theta vertices per profile sample, welded at the
theta seam; samples with |x| < 1e-12 collapse to a single pole vertex and the
adjacent strips fan into it.

Topology is index arithmetic on the n_s x n_theta ring grid: one cumulative
sum over a keep-mask numbers the vertices (a pole row keeps only column 0),
column j of strip i gives (r0[j], r1[j], r1[j+1]) and (r0[j], r1[j+1],
r0[j+1]) with j+1 wrapped by np.roll, and the one that collapses next to a
pole is dropped. SurfaceMesh keeps a summary of the edge table (the edge
count, the most triangles on one edge, the boundary edges) that serves
euler_characteristic, boundary_loops and the boundary and manifold checks of
discrete_mesh_curvature. revolve fills it by the same index arithmetic: a
ring that is not a pole has n_theta ring edges, every strip n_theta meridian
edges and a strip that is not a pole fan n_theta diagonals; every edge is on
two triangles except the ring edges of an end ring that is not a pole. Any
other mesh builds it once from its edge table (each undirected edge with the
number of triangles on it, by sort and unique); edge_counts builds the full
table.

Per-ring curvature: every vertex of one parallel has the same one-ring up
to a rotation, so on a mesh that revolve built discrete_mesh_curvature runs
the stencils only on the triangles that touch a ring's first vertex (columns
0 and n_theta - 1 of each strip, and every triangle of a pole fan, in mesh
order) and repeats each ring's (H, K_G) over the ring. Those triangles keep
mesh order, so the first vertices get the very bits of the full-mesh
evaluation; the other vertices differ from it only by rounding. A mesh that
revolve did not build, or whose arrays were rebound, takes the full path.

write_obj renders its v and f record blocks from the arrays (_records), with
the bytes that %.17g and %d formatting give each value.

Normal and sign convention: per-vertex reference normals follow the surface
convention n = (-tz*cos(theta), -tz*sin(theta), tx) built from the profile
tangent (tx, tz); triangle winding agrees with it, and the sign of the
discrete mean curvature is taken against this normal, so a unit sphere built
from its momentum reports H = +1.

Parallelism: the implementation is sequential, which trivially honors any
REVOLVE_THREADS cap; outputs never depend on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._records import records
from .errors import (AxisSingularity, DegenerateProfile, NonManifold,
                     ParamOutOfRange)
from .momentum import _AXIS_REL, Momentum

__all__ = [
    "SurfaceMesh",
    "revolve",
    "fundamental_forms",
    "discrete_mesh_curvature",
    "write_obj",
    "write_stl",
]

_POLE_EPS = 1e-12


class _EdgeSummary(NamedTuple):
    """What the mesh's checks need of its edge table: the number of edges,
    the most triangles on any one edge, and the (lo, hi) ends of the
    boundary edges, those on exactly one triangle."""

    n_edges: int
    max_share: int
    lo: np.ndarray
    hi: np.ndarray


class _RingGrid(NamedTuple):
    """The ring grid of a revolved mesh: each ring's first vertex, the ring
    sizes (1 for a pole, n_theta otherwise; vertices are numbered ring by
    ring), and the indices of the triangles that touch a first vertex, in
    mesh order."""

    first: np.ndarray
    sizes: np.ndarray
    triangles: np.ndarray


@dataclass(eq=False)
class SurfaceMesh:
    """Triangle mesh of a revolved profile.

    rings[i] holds the vertex indices of sample i's parallel (a single index
    for a pole); per_vertex is filled by discrete_mesh_curvature. revolve
    returns vertices, triangles and normals read-only, so an in-place edit
    raises ValueError, and fills the edge summary and the ring grid; any
    other mesh builds the summary on first use and has no ring grid. The
    summary is dropped when vertices or triangles is rebound; the ring grid
    and per_vertex are dropped when vertices, triangles or normals is.
    Meshes compare by identity: == on two meshes is ``is``.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    rings: list[np.ndarray]
    normals: np.ndarray
    n_theta: int
    per_vertex: tuple[np.ndarray, np.ndarray] | None = field(default=None)
    _edges: _EdgeSummary | None = field(default=None, init=False,
                                        compare=False, repr=False)
    _grid: _RingGrid | None = field(default=None, init=False,
                                    compare=False, repr=False)

    def __setattr__(self, name: str, value) -> None:
        if name in ("vertices", "triangles"):
            object.__setattr__(self, "_edges", None)
        if name in ("vertices", "triangles", "normals"):
            object.__setattr__(self, "per_vertex", None)
            object.__setattr__(self, "_grid", None)
        object.__setattr__(self, name, value)

    def _edge_summary(self) -> _EdgeSummary:
        if self._edges is None:
            lo, hi, counts = _edge_table(self.triangles, len(self.vertices))
            one = counts == 1
            self._edges = _EdgeSummary(len(counts), int(counts.max(initial=0)),
                                       lo[one], hi[one])
        return self._edges

    def edge_counts(self) -> dict[tuple[int, int], int]:
        lo, hi, counts = _edge_table(self.triangles, len(self.vertices))
        return dict(zip(zip(lo.tolist(), hi.tolist()), counts.tolist()))

    def euler_characteristic(self) -> int:
        return (len(self.vertices) - self._edge_summary().n_edges
                + len(self.triangles))

    def boundary_loops(self) -> int:
        """Number of closed cycles of boundary edges: the connected
        components of the edges on one triangle, by union-find."""
        summary = self._edge_summary()
        edges = list(zip(summary.lo.tolist(), summary.hi.tolist()))
        parent = {v: v for edge in edges for v in edge}

        def root(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]  # path halving
                v = parent[v]
            return v

        for a, b in edges:
            parent[root(a)] = root(b)
        return sum(1 for v, p in parent.items() if v == p)


def _edge_table(triangles: np.ndarray, n_vertices: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each undirected edge once as (lo, hi) vertex indices, lo < hi, with
    the number of triangles that share it."""
    edges = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, counts = np.unique(edges[:, 0] * n_vertices + edges[:, 1],
                             return_counts=True)
    return keys // n_vertices, keys % n_vertices, counts


def revolve(p, n_theta: int = 64) -> SurfaceMesh:
    """Revolve profile samples about the z-axis into a welded triangle mesh."""
    if n_theta < 8:
        raise ParamOutOfRange(f"n_theta must be at least 8, got {n_theta!r}")
    x = np.asarray(p.x, dtype=float)
    z = np.asarray(p.z, dtype=float)
    tx = np.asarray(p.tx, dtype=float)
    tz = np.asarray(p.tz, dtype=float)
    n_s = len(x)
    if n_s < 2:
        raise DegenerateProfile("need at least two profile samples")
    if np.any((np.diff(x) == 0.0) & (np.diff(z) == 0.0)):
        raise DegenerateProfile("repeated consecutive profile samples")
    pole = np.abs(x) < _POLE_EPS
    if np.any(pole[:-1] & pole[1:]):
        raise DegenerateProfile("two consecutive pole samples")

    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    ct, st = np.cos(theta), np.sin(theta)
    verts = np.stack(np.broadcast_arrays(x[:, None] * ct, x[:, None] * st, z[:, None]), -1)
    norms = np.stack(np.broadcast_arrays(-tz[:, None] * ct, -tz[:, None] * st, tx[:, None]), -1)
    verts[pole, :, :2] = 0.0
    norms[pole, :, :2] = 0.0
    norms[pole, :, 2] = np.copysign(1.0, np.where(tx != 0.0, tx, 1.0))[pole, None]

    keep = np.ones((n_s, n_theta), dtype=bool)
    keep[pole, 1:] = False
    idx = np.cumsum(keep.ravel()).reshape(n_s, n_theta) - 1
    idx[pole] = idx[pole, :1]
    rings = [idx[i, :1] if pole[i] else idx[i] for i in range(n_s)]

    nxt = np.roll(idx, -1, axis=1)
    tris = np.stack([idx[:-1], idx[1:], nxt[1:], idx[:-1], nxt[1:], nxt[:-1]],
                    axis=-1).reshape(-1, 3)
    a, b, c = tris.T
    kept = (a != b) & (b != c) & (c != a)
    tris = tris[kept]

    # the triangles on a first vertex: columns 0 and n_theta - 1 of every
    # strip, and the whole of a pole fan
    fan = pole[:-1] | pole[1:]
    on_first = np.zeros((n_s - 1, n_theta, 2), dtype=bool)
    on_first[:, [0, -1]] = True
    on_first[fan] = True
    grid = _RingGrid(first=idx[:, 0].copy(),
                     sizes=np.where(pole, 1, n_theta),
                     triangles=np.flatnonzero(on_first.ravel()[kept]))

    # boundary edges: the ring edges of an end ring that is not a pole, in
    # (lo, hi) order, offset by the ring's first vertex: (0, 1),
    # (0, n_theta - 1), (1, 2), ..., (n_theta - 2, n_theta - 1)
    j = np.arange(1, n_theta - 1)
    lo_ring = np.concatenate(([0, 0], j))
    hi_ring = np.concatenate(([1, n_theta - 1], j + 1))
    ends = idx[[0, -1], 0][~pole[[0, -1]]]
    edges = _EdgeSummary(
        n_edges=n_theta * (int(np.count_nonzero(~pole)) + n_s - 1
                           + int(np.count_nonzero(~fan))),
        max_share=2,
        lo=(ends[:, None] + lo_ring).ravel(),
        hi=(ends[:, None] + hi_ring).ravel())

    flat = keep.ravel()
    mesh = SurfaceMesh(vertices=verts.reshape(-1, 3)[flat],
                       triangles=tris,
                       rings=rings,
                       normals=norms.reshape(-1, 3)[flat],
                       n_theta=n_theta)
    for arr in (mesh.vertices, mesh.triangles, mesh.normals):
        arr.flags.writeable = False
    mesh._edges, mesh._grid = edges, grid
    return mesh


def fundamental_forms(m: Momentum, x: float
                      ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Diagonal coefficients of the first and second fundamental forms in the
    (arclength, theta) chart: I = (1, x^2), II = (K'(x), x*K(x))."""
    lo, hi = m.domain
    if abs(x) < _AXIS_REL * max(1.0, hi - lo):
        raise AxisSingularity("the (s, theta) chart degenerates on the axis")
    K = m.eval(x)
    dK = m.deriv(x)
    return (1.0, x * x), (dK, x * K)


def _mixed_areas_and_angles(v: np.ndarray, t: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-vertex Meyer mixed area, angle sums, and cotangent Laplacian.

    Each sum is one np.bincount over its contributions in a fixed order:
    corner 0, 1, 2 for the areas and angles, and for each Laplacian
    component the (va, +w) then (vb, -w) terms of corner 0, 1, 2, where w
    is the corner's cotangent times its opposite edge va -> vb. Every vertex
    therefore adds its terms in the same order as one scatter-add per
    corner would, and the sums are reproducible to the bit."""
    n, m = len(v), len(t)
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    e0 = p2 - p1  # edge opposite corner 0
    e1 = p0 - p2
    e2 = p1 - p0
    # each (m, 3) or (3, m) temporary is freed once used: they, not the
    # sums, set the peak memory of a large mesh
    del p0, p1, p2
    twice_area = np.linalg.norm(np.cross(e2, -e1), axis=1)
    twice_area = np.maximum(twice_area, 1e-300)
    # dot products of the edge pairs meeting at each corner
    d = np.stack((np.einsum("ij,ij->i", e2, -e1),
                  np.einsum("ij,ij->i", e0, -e2),
                  np.einsum("ij,ij->i", e1, -e0)))
    cot = d / twice_area
    ang = np.empty((3, m))
    for k in range(3):
        np.arctan2(twice_area, d[k], out=ang[k])

    l0 = np.einsum("ij,ij->i", e0, e0)
    l1 = np.einsum("ij,ij->i", e1, e1)
    l2 = np.einsum("ij,ij->i", e2, e2)
    area = 0.5 * twice_area

    # Voronoi-safe area split
    a_corner = np.empty((3, m))
    a_corner[0] = (l2 * cot[2] + l1 * cot[1]) / 8.0
    a_corner[1] = (l0 * cot[0] + l2 * cot[2]) / 8.0
    a_corner[2] = (l1 * cot[1] + l0 * cot[0]) / 8.0
    del l0, l1, l2
    for k in range(3):
        obt = d[k] < 0.0
        a_corner[:, obt] = area[obt] / 4.0
        a_corner[k, obt] = area[obt] / 2.0
    del d, area, twice_area

    corner_v = t.T.ravel()
    a_mixed = np.bincount(corner_v, a_corner.ravel(), minlength=n)
    angle_sum = np.bincount(corner_v, ang.ravel(), minlength=n)
    del corner_v, a_corner, ang

    # (va, vb) of corner 0, 1, 2: the ends of the edge opposite it
    edge_v = t[:, [1, 2, 2, 0, 0, 1]].T.ravel()
    w = np.empty((3, 2, m))
    lap = np.empty((n, 3))
    for c in range(3):
        for k, e in enumerate((e0, e1, e2)):
            np.multiply(cot[k], e[:, c], out=w[k, 0])
        np.negative(w[:, 0], out=w[:, 1])
        lap[:, c] = np.bincount(edge_v, w.ravel(), minlength=n)
    return a_mixed, angle_sum, lap


def discrete_mesh_curvature(mesh: SurfaceMesh
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex (H, K_G): cotangent mean curvature signed against the
    stored reference normals (NaN on boundary vertices, whose stencils are
    incomplete), and angle-defect Gauss curvature over the Meyer mixed area
    (boundary defect measured against pi). Results are also cached on
    mesh.per_vertex.

    On a mesh that revolve built, the stencils run once per ring, at its
    first vertex, and the ring repeats that vertex's values; elsewhere they
    run at every vertex."""
    edges = mesh._edge_summary()
    if edges.max_share > 2:
        raise NonManifold("an edge is shared by more than two triangles")
    boundary_v = np.zeros(len(mesh.vertices), dtype=bool)
    boundary_v[edges.lo] = True
    boundary_v[edges.hi] = True

    grid = mesh._grid
    if grid is None:
        at, triangles = slice(None), mesh.triangles
    else:
        at, triangles = grid.first, mesh.triangles[grid.triangles]
    a_mixed, angle_sum, lap = _mixed_areas_and_angles(mesh.vertices, triangles)
    a_safe = np.maximum(a_mixed[at], 1e-300)
    h_vec = lap[at] / (4.0 * a_safe[:, None])
    H = np.einsum("ij,ij->i", h_vec, mesh.normals[at])
    # half-stencil cotangent sums carry no curvature information
    boundary_v = boundary_v[at]
    H[boundary_v] = np.nan
    angle_sum = angle_sum[at]
    defect = np.where(boundary_v, math.pi - angle_sum,
                      2.0 * math.pi - angle_sum)
    K = defect / a_safe
    if grid is not None:
        H, K = np.repeat(H, grid.sizes), np.repeat(K, grid.sizes)
    mesh.per_vertex = (H, K)
    return H, K


def write_obj(mesh: SurfaceMesh) -> str:
    """ASCII OBJ: two comment lines, then one ``v %.17g %.17g %.17g`` record
    per vertex and one ``f %d %d %d`` record per triangle (1-based indices).

    Every value has exactly the bytes of ``'%.17g' % v`` or ``'%d' % i``,
    ``-0``, ``nan`` and subnormals alike (``_records``): a float with
    1e-30 <= |v| < 1e30 takes its 17 digits from double-double arithmetic,
    with an error below 2**-46 of the last digit; one that is non-finite,
    outside that range or within 1e-6 of a rounding tie is formatted by
    Python. Byte-identical for identical meshes."""
    header = ("# rotational surface mesh\n"
              "# normal convention: n = (-tz*cos(theta), -tz*sin(theta), tx); "
              "discrete H is signed against this normal\n")
    return "".join((header, records("v %.17g %.17g %.17g\n", mesh.vertices.T),
                    records("f %d %d %d\n", (mesh.triangles + 1).T)))


def write_stl(mesh: SurfaceMesh) -> bytes:
    """Binary STL, little-endian float32, 80-byte header. Byte-identical for
    identical meshes.

    The facet normal is taken from 1-D coordinate arrays with the
    operations, in the order, of np.cross and np.linalg.norm; each 50-byte
    record is one row of a (triangles, 25) uint16 array, filled through a
    float32 view of its first 48 bytes."""
    header = b"rotational surface mesh (binary STL)"
    header = header + b"\x00" * (80 - len(header))
    t = mesh.triangles
    record = np.zeros((len(t), 25), dtype="<u2")
    out = record[:, :24].view("<f4")
    coords = [c[t[:, k]] for k in range(3) for c in mesh.vertices.T]
    for i, coord in enumerate(coords):
        out[:, 3 + i] = coord
    x0, y0, z0, x1, y1, z1, x2, y2, z2 = coords
    ax, ay, az = x1 - x0, y1 - y0, z1 - z0
    bx, by, bz = x2 - x0, y2 - y0, z2 - z0
    nrm = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    nx, ny, nz = nrm
    length = np.sqrt(nx * nx + ny * ny + nz * nz)
    ok = length > 0
    length = np.maximum(length, 1e-300)
    for c, n in enumerate(nrm):
        out[:, c] = np.where(ok, n / length, 0.0)
    count = np.uint32(len(t)).astype("<u4").tobytes()
    return header + count + record.tobytes()
