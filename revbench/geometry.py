"""Mesh quantities the benchmark computes itself, apart from the program.

These are the references the ``surface`` checks compare the program's
outputs against: Euler characteristic by edge counting, the Meyer et al.
2003 mixed area, the triangle count a revolved ring grid must have, and an
OBJ reader.
"""
from __future__ import annotations

import math

import numpy as np

POLE_EPS = 1e-12   # a sample this close to the axis is one pole vertex


def euler_characteristic(tris: np.ndarray, n_vertices: int) -> int:
    """V - E + F, with E the number of distinct undirected edges."""
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    e.sort(axis=1)
    n_edges = len(np.unique(e[:, 0] * np.int64(n_vertices) + e[:, 1]))
    return n_vertices - n_edges + len(tris)


def mixed_areas(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-vertex mixed area of Meyer, Desbrun, Schroeder and Barr (2003).

    For each triangle and corner P: the Voronoi area
    (|PQ|^2 cot R + |PR|^2 cot Q)/8 when no angle is obtuse, half the
    triangle's area when the angle at P is obtuse, and a quarter of it when
    another angle is.
    """
    p = [v[t[:, k]] for k in range(3)]
    area = 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]), axis=1)
    cot, sq, obtuse = [], [], []
    for k in range(3):
        a, b = p[(k + 1) % 3] - p[k], p[(k + 2) % 3] - p[k]
        dot = np.einsum("ij,ij->i", a, b)
        cot.append(dot / (2.0 * area))
        obtuse.append(dot < 0.0)
        # squared length of the edge opposite corner k
        d = p[(k + 2) % 3] - p[(k + 1) % 3]
        sq.append(np.einsum("ij,ij->i", d, d))
    any_obtuse = obtuse[0] | obtuse[1] | obtuse[2]
    out = np.zeros(len(v))
    for k in range(3):
        k1, k2 = (k + 1) % 3, (k + 2) % 3
        # the edges at corner k are opposite k1 and k2
        voronoi = (sq[k1] * cot[k1] + sq[k2] * cot[k2]) / 8.0
        a_k = np.where(any_obtuse, np.where(obtuse[k], area / 2.0, area / 4.0), voronoi)
        out += np.bincount(t[:, k], weights=a_k, minlength=len(v))
    return out


def gauss_bonnet_error(v: np.ndarray, t: np.ndarray, K: np.ndarray, chi: int) -> float:
    """|sum_i K_i A_i - 2 pi chi| with A_i the benchmark's own mixed areas.

    With K the angle defect over the mixed area (boundary defects taken
    against pi), the sum telescopes to 2 pi chi whatever the mesh, so only
    rounding separates the two; a wrong area, defect or triangle shows.
    """
    return abs(float(np.sum(K * mixed_areas(v, t))) - 2.0 * math.pi * chi)


def pole_flags(x: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(x)) < POLE_EPS


def expected_triangles(x: np.ndarray, n_theta: int) -> int:
    """2 n_theta per band between two rings and n_theta per pole fan."""
    pole = pole_flags(x)
    fan = pole[:-1] | pole[1:]
    return int(np.sum(np.where(fan, n_theta, 2 * n_theta)))


def interior_rings(x: np.ndarray, margin: int) -> np.ndarray:
    """Sample indices at least ``margin`` samples from either end of the
    profile and from any pole, where the discrete stencils are complete."""
    n = len(x)
    pole_idx = np.flatnonzero(pole_flags(x))
    keep = np.zeros(n, dtype=bool)
    keep[margin:n - margin] = True
    for i in pole_idx:
        keep[max(0, i - margin):i + margin + 1] = False
    return np.flatnonzero(keep)


def revolved_vertices(x: np.ndarray, z: np.ndarray, n_theta: int) -> np.ndarray:
    """Vertex positions of the profile revolved at n_theta angles, one ring
    per sample in order, a pole sample giving one vertex."""
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    ct, st = np.cos(theta), np.sin(theta)
    rows = []
    for xi, zi, pole in zip(x, z, pole_flags(x)):
        if pole:
            rows.append(np.array([[0.0, 0.0, zi]]))
        else:
            rows.append(np.column_stack([xi * ct, xi * st, np.full(n_theta, zi)]))
    return np.concatenate(rows)


def parse_obj(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and 0-based triangles of an OBJ text with v and f records."""
    vs, fs = [], []
    for line in text.splitlines():
        if line.startswith("v "):
            vs.append(line[2:])
        elif line.startswith("f "):
            fs.append(line[2:])
    verts = np.array(" ".join(vs).split(), dtype=float).reshape(-1, 3)
    faces = np.array(" ".join(fs).split(), dtype=np.int64).reshape(-1, 3) - 1
    return verts, faces


def vertex_error(verts: np.ndarray, x: np.ndarray, z: np.ndarray, n_theta: int) -> float:
    """Largest distance between parsed vertices and the revolved profile;
    infinite when the vertex counts differ."""
    want = revolved_vertices(x, z, n_theta)
    if want.shape != verts.shape:
        return math.inf
    return float(np.max(np.abs(verts - want)))
