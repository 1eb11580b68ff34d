"""Revolves a profile into a triangle mesh and measures discrete curvature.

Vertex layout: one ring of n_theta vertices per profile sample, welded at the
theta seam; samples with |x| < 1e-12 collapse to a single pole vertex and the
adjacent strips fan into it.

Topology is index arithmetic on the n_s x n_theta ring grid: one cumulative
sum over a keep-mask numbers the vertices (a pole row keeps only column 0),
column j of strip i gives (r0[j], r1[j], r1[j+1]) and (r0[j], r1[j+1],
r0[j+1]) with j+1 wrapped by np.roll, and the one that collapses next to a
pole is dropped. A summary of the edge table (the edge count, the most
triangles on one edge, the boundary edges) serves euler_characteristic,
boundary_loops and the boundary and manifold checks of
discrete_mesh_curvature. revolve fills it by the same index arithmetic: a
ring that is not a pole has n_theta ring edges, every strip n_theta meridian
edges and a strip that is not a pole fan n_theta diagonals; every edge is on
two triangles except the ring edges of an end ring that is not a pole. Any
other mesh builds it from its edge table (each undirected edge with the
number of triangles on it, by sort and unique) on each call; edge_counts
builds the full table.

Per-ring curvature: every vertex of one parallel has the same one-ring up
to a rotation, so on a mesh that revolve built discrete_mesh_curvature runs
the stencils only on the triangles that touch a ring's first vertex (columns
0 and n_theta - 1 of each strip, and every triangle of a pole fan, in mesh
order) and repeats each ring's (H, K_G) over the ring. Those triangles keep
mesh order, so the first vertices get the very bits of the full-mesh
evaluation; the other vertices differ from it only by rounding. What
revolve knows of its mesh (the ring grid, one normal per ring, the edge
summary) is one immutable record, _Revolved, with the very vertex and
triangle arrays it describes. A mesh uses it only while it holds those
arrays and has no normals bound; otherwise it is treated as built by hand.

write_obj renders its v and f record blocks from the arrays (_records), with
the bytes that %.17g and %d formatting give each value, and appends each
piece to its text as it is rendered (_records._text); its peak memory is
about its output plus one piece. write_stl fills one buffer of the file's
size, _CHUNK triangles at a time, and hands that buffer over as its bytes;
its peak is about its output, plus one piece's temporaries. The CLI
streams the OBJ: _obj_pieces yields it as ASCII pieces of at most _CHUNK
records, which go to the file one by one, so the stage's peak is the mesh
arrays and one piece. The writers load _records when they run, so
revolving a mesh does not.

revolve copies no array it does not change: the vertex grid is only
compacted where a ring is a pole, and the triangles only filtered where one
collapses next to a pole. mesh.normals, 24 bytes a vertex, is built from
the record's ring normals on its first read, which neither writer, the
per-ring curvature path nor the CLI makes.

Normal and sign convention: reference normals follow the surface convention
n = (-tz*cos(theta), -tz*sin(theta), tx) built from the profile tangent
(tx, tz), and (0, 0, sign tx) at a pole; triangle winding agrees with it,
and the sign of the discrete mean curvature is taken against this normal,
so a unit sphere built from its momentum reports H = +1.

Parallelism: the implementation is sequential, which trivially honors any
REVOLVE_THREADS cap; outputs never depend on it.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (AxisSingularity, DegenerateProfile, NonManifold,
                     ParamOutOfRange)

if TYPE_CHECKING:
    from collections.abc import Iterator

    from .momentum import Momentum

__all__ = [
    "SurfaceMesh",
    "revolve",
    "fundamental_forms",
    "discrete_mesh_curvature",
    "write_obj",
    "write_stl",
]

_POLE_EPS = 1e-12
_OBJ_HEADER = ("# rotational surface mesh\n"
               "# normal convention: n = (-tz*cos(theta), -tz*sin(theta), tx); "
               "discrete H is signed against this normal\n")


class _EdgeSummary(NamedTuple):
    """What the mesh's checks need of its edge table: the number of edges,
    the most triangles on any one edge, and the (lo, hi) ends of the
    boundary edges, those on exactly one triangle."""

    n_edges: int
    max_share: int
    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True, eq=False)
class _Revolved:
    """What revolve knows of the mesh it built: the very vertices and
    triangles arrays; each ring's first vertex and its size (1 for a pole,
    n_theta otherwise; vertices are numbered ring by ring); on_first, the
    indices of the triangles that touch a first vertex, in mesh order;
    ring_normals, each ring's normal at its first vertex (theta = 0), with
    pole marking the poles and cos and sin the n_theta columns' cos(theta)
    and sin(theta); and the edge summary."""

    vertices: np.ndarray
    triangles: np.ndarray
    first: np.ndarray
    sizes: np.ndarray
    on_first: np.ndarray
    ring_normals: np.ndarray
    pole: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    edges: _EdgeSummary

    @cached_property
    def normals(self) -> np.ndarray:
        """The (n_vertices, 3) normals, read-only, in vertex order. A ring
        normal's x is -tz*cos(0), -tz to the bit, so these are the bits of
        n = (-tz*cos(theta), -tz*sin(theta), tx) evaluated over the grid."""
        nx, nz = self.ring_normals[:, :1], self.ring_normals[:, 2:]
        normals = np.stack(np.broadcast_arrays(nx * self.cos, nx * self.sin, nz),
                           -1).reshape(-1, 3)
        if self.pole.any():
            normals = normals[_keep(self.pole, len(self.cos)).ravel()]
        normals.flags.writeable = False
        return normals


@dataclass(eq=False)
class SurfaceMesh:
    """Triangle mesh of a revolved profile.

    rings[i] holds the vertex indices of sample i's parallel (a single index
    for a pole). The triangles may be of any integer dtype; revolve's, like
    its rings, are int32, and it returns vertices and triangles read-only,
    so an in-place edit raises ValueError. revolve binds no normals:
    mesh.normals reads its record's, built on their first read, read-only.
    The record serves only while vertices and triangles are the arrays
    revolve built and normals is unbound; otherwise the mesh behaves as one
    built by hand, its edge table built on each call and its curvature on
    the full path. Meshes compare by identity: == on two meshes is ``is``.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    rings: list[np.ndarray]
    normals: np.ndarray
    n_theta: int
    _record: _Revolved | None = field(default=None, init=False, repr=False)

    def __getattr__(self, name: str):
        # reached only for an attribute the mesh does not hold: the normals
        # of a mesh that revolve built, which it does not bind
        if name == "normals" and self._record is not None:
            return self._record.normals
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _revolved(self) -> _Revolved | None:
        """revolve's record, while the mesh still holds what it describes."""
        record = self._record
        if (record is not None and self.vertices is record.vertices
                and self.triangles is record.triangles and "normals" not in vars(self)):
            return record
        return None

    def _edge_summary(self) -> _EdgeSummary:
        record = self._revolved()
        if record is not None:
            return record.edges
        lo, hi, counts = _edge_table(self.triangles, len(self.vertices))
        one = counts == 1
        return _EdgeSummary(len(counts), int(counts.max(initial=0)), lo[one], hi[one])

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
    the number of triangles that share it. The keys lo * n_vertices + hi
    are formed in int64 whatever the triangles' integer dtype, so they
    cannot wrap."""
    edges = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, counts = np.unique(edges[:, 0].astype(np.int64) * n_vertices + edges[:, 1],
                             return_counts=True)
    return keys // n_vertices, keys % n_vertices, counts


def revolve(p, n_theta: int = 64) -> SurfaceMesh:
    """Revolve profile samples about the z-axis into a welded triangle mesh.

    Vertices are numbered in int32: the triangles, the rings and each
    ring's first vertex are int32 arrays. The mesh keeps each ring's normal
    at its first vertex; mesh.normals is built from them on its first read.
    A profile of n samples is refused with ParamOutOfRange, before anything
    is allocated, when n * n_theta >= 2**31."""
    if n_theta < 8:
        raise ParamOutOfRange(f"n_theta must be at least 8, got {n_theta!r}")
    if len(p.x) * int(n_theta) >= 2 ** 31:
        raise ParamOutOfRange(f"{len(p.x)} samples at n_theta {n_theta} need "
                              f"2**31 or more vertex indices; int32 holds fewer")
    x = np.asarray(p.x, dtype=float)
    z = np.asarray(p.z, dtype=float)
    tx = np.asarray(p.tx, dtype=float)
    tz = np.asarray(p.tz, dtype=float)
    n_s = len(x)
    if n_s < 2:
        raise DegenerateProfile("need at least two profile samples")
    if not all(np.isfinite(c).all() for c in (x, z, tx, tz)):
        raise DegenerateProfile("profile samples must be finite")
    if np.any((np.diff(x) == 0.0) & (np.diff(z) == 0.0)):
        raise DegenerateProfile("repeated consecutive profile samples")
    pole = np.abs(x) < _POLE_EPS
    if np.any(pole[:-1] & pole[1:]):
        raise DegenerateProfile("two consecutive pole samples")

    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    ct, st = np.cos(theta), np.sin(theta)
    verts = np.stack(np.broadcast_arrays(x[:, None] * ct, x[:, None] * st, z[:, None]), -1)
    verts[pole, :, :2] = 0.0
    # the normal at each ring's first vertex, where theta is 0
    ring_normals = np.stack((-tz * ct[0], -tz * st[0], tx), -1)
    ring_normals[pole, :2] = 0.0
    ring_normals[pole, 2] = np.copysign(1.0, np.where(tx != 0.0, tx, 1.0))[pole]

    keep = _keep(pole, n_theta)
    idx = np.cumsum(keep.ravel(), dtype=np.int32).reshape(n_s, n_theta) - 1
    idx[pole] = idx[pole, :1]
    rings = [idx[i, :1] if pole[i] else idx[i] for i in range(n_s)]

    nxt = np.roll(idx, -1, axis=1)
    tris = np.stack([idx[:-1], idx[1:], nxt[1:], idx[:-1], nxt[1:], nxt[:-1]],
                    axis=-1).reshape(-1, 3)
    a, b, c = tris.T
    kept = (a != b) & (b != c) & (c != a)
    if not kept.all():
        tris = tris[kept]

    # the triangles on a first vertex: columns 0 and n_theta - 1 of every
    # strip, and the whole of a pole fan
    fan = pole[:-1] | pole[1:]
    on_first = np.zeros((n_s - 1, n_theta, 2), dtype=bool)
    on_first[:, [0, -1]] = True
    on_first[fan] = True
    first, sizes = idx[:, 0].copy(), np.where(pole, 1, n_theta)
    on_first = np.flatnonzero(on_first.ravel()[kept])

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

    verts = verts.reshape(-1, 3)
    if pole.any():
        verts = verts[keep.ravel()]
    verts.flags.writeable = tris.flags.writeable = False
    mesh = SurfaceMesh(vertices=verts, triangles=tris, rings=rings,
                       normals=None, n_theta=n_theta)
    del mesh.normals  # read from the record
    mesh._record = _Revolved(verts, tris, first=first, sizes=sizes, on_first=on_first,
                             ring_normals=ring_normals, pole=pole, cos=ct, sin=st,
                             edges=edges)
    return mesh


def _keep(pole: np.ndarray, n_theta: int) -> np.ndarray:
    """The (rings, n_theta) mask of the ring grid's points that are
    vertices: every column of a ring, only column 0 of a pole."""
    keep = np.ones((len(pole), n_theta), dtype=bool)
    keep[pole, 1:] = False
    return keep


def fundamental_forms(m: Momentum, x: float
                      ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Diagonal coefficients of the first and second fundamental forms in the
    (arclength, theta) chart: I = (1, x^2), II = (K'(x), x*K(x))."""
    from .momentum import _axis_eps
    lo, hi = m.domain
    if abs(x) < _axis_eps(lo, hi, max(1.0, hi - lo)):
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
    reference normals (NaN on boundary vertices, whose stencils are
    incomplete), and angle-defect Gauss curvature over the Meyer mixed area
    (boundary defect measured against pi). The mesh is left as it was.

    On a mesh that still holds revolve's record, the stencils run once per
    ring, at its first vertex, against the ring's normal there, and the ring
    repeats that vertex's values; the per-vertex normals are never built.
    Elsewhere the stencils run at every vertex, against mesh.normals."""
    record = mesh._revolved()
    edges = mesh._edge_summary()
    if edges.max_share > 2:
        raise NonManifold("an edge is shared by more than two triangles")
    boundary_v = np.zeros(len(mesh.vertices), dtype=bool)
    boundary_v[edges.lo] = True
    boundary_v[edges.hi] = True

    if record is None:
        at, triangles, normals = slice(None), mesh.triangles, mesh.normals
        if len(normals) != len(mesh.vertices):
            raise DegenerateProfile(f"the mesh has {len(normals)} normals for "
                                    f"{len(mesh.vertices)} vertices")
    else:
        at, triangles = record.first, mesh.triangles[record.on_first]
        normals = record.ring_normals
    a_mixed, angle_sum, lap = _mixed_areas_and_angles(mesh.vertices, triangles)
    a_safe = np.maximum(a_mixed[at], 1e-300)
    h_vec = lap[at] / (4.0 * a_safe[:, None])
    H = np.einsum("ij,ij->i", h_vec, normals)
    # half-stencil cotangent sums carry no curvature information
    boundary_v = boundary_v[at]
    H[boundary_v] = np.nan
    angle_sum = angle_sum[at]
    defect = np.where(boundary_v, math.pi - angle_sum,
                      2.0 * math.pi - angle_sum)
    K = defect / a_safe
    if record is not None:
        H, K = np.repeat(H, record.sizes), np.repeat(K, record.sizes)
    return H, K


def write_obj(mesh: SurfaceMesh) -> str:
    """ASCII OBJ: two comment lines, then one ``v %.17g %.17g %.17g`` record
    per vertex and one ``f %d %d %d`` record per triangle (1-based indices).

    Every value has exactly the bytes of ``'%.17g' % v`` or ``'%d' % i``,
    ``-0``, ``nan`` and subnormals alike (``_records``): a float with
    1e-30 <= |v| < 1e30 takes its 17 digits from double-double arithmetic,
    with an error below 2**-46 of the last digit; one that is non-finite,
    outside that range or within 1e-6 of a rounding tie is formatted by
    Python. Byte-identical for identical meshes. The pieces of
    :func:`_obj_pieces`, each appended to the text as it is rendered
    (``_records._text``), so on CPython the peak memory is about the output
    plus one piece."""
    from ._records import _text
    return _text(_obj_pieces(mesh))


def _obj_pieces(mesh: SurfaceMesh) -> Iterator[bytes]:
    """The ASCII bytes of an OBJ file, in pieces: the header, then the
    v and the f records, at most _CHUNK records a piece. The 1-based
    indices are made a piece at a time, not as a copy of the triangles."""
    from ._records import _CHUNK, record_pieces
    yield _OBJ_HEADER.encode("ascii")
    yield from record_pieces("v %.17g %.17g %.17g\n", mesh.vertices.T)
    t = mesh.triangles
    for lo in range(0, len(t), _CHUNK):
        yield from record_pieces("f %d %d %d\n", (t[lo:lo + _CHUNK] + 1).T)


def write_stl(mesh: SurfaceMesh) -> bytes:
    """Binary STL, little-endian float32, 80-byte header. Byte-identical for
    identical meshes.

    The file is one buffer, allocated once: an io.BytesIO of the file's
    size, filled through getbuffer(). Each 50-byte record is one row of a
    (triangles, 25) uint16 view of it, filled through a float32 view of its
    first 48 bytes, _CHUNK triangles at a time (_stl_rows). Once no view is
    left open, CPython's getvalue() hands the buffer over as the returned
    bytes without a copy, so the peak memory is about the output plus one
    piece's temporaries. Another Python's getvalue may copy it, which costs
    memory only: the bytes are the same."""
    from ._records import _CHUNK
    header = b"rotational surface mesh (binary STL)"
    t = mesh.triangles
    n = len(t)
    out = io.BytesIO()
    out.seek(84 + 50 * n - 1)
    out.write(b"\0")  # sizes the buffer, zero-filled
    with out.getbuffer() as buf:
        buf[:len(header)] = header
        buf[80:84] = n.to_bytes(4, "little")
        records = np.frombuffer(buf, dtype="<u2", offset=84).reshape(n, 25)[:, :24].view("<f4")
        columns = mesh.vertices.T
        for lo in range(0, n, _CHUNK):
            _stl_rows(records[lo:lo + _CHUNK], t[lo:lo + _CHUNK], columns)
        del records  # buf is released on leaving the block: no view may outlive it
    return out.getvalue()


def _stl_rows(rows: np.ndarray, piece: np.ndarray, columns: np.ndarray) -> None:
    """Fill the float32 rows (normal, then the three corners) of the
    triangles of piece. The facet normal comes from 1-D coordinate arrays
    with the operations, in the order, of np.cross and np.linalg.norm. The
    coordinates of corners 1 and 2 become their edges from corner 0 in place
    once written, and each stage's arrays are dropped once used, so the
    temporaries alive at once are a few of the piece's columns."""
    corners = []
    for k in range(3):
        p = [c[piece[:, k]] for c in columns]
        for i, v in enumerate(p):
            rows[:, 3 + 3 * k + i] = v
            if k:
                v -= corners[0][i]
        corners.append(p)
    (ax, ay, az), (bx, by, bz) = corners[1:]
    del corners, p
    nrm = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    del ax, ay, az, bx, by, bz
    nx, ny, nz = nrm
    length = np.sqrt(nx * nx + ny * ny + nz * nz)
    ok = length > 0
    length = np.maximum(length, 1e-300)
    for c, v in enumerate(nrm):
        rows[:, c] = np.where(ok, v / length, 0.0)
