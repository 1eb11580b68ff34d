import copy
import dataclasses
import hashlib
import json
import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (assert_close, catenoid_momentum, sphere_momentum,
                      unduloid_momentum)
from revolve._records import _CHUNK
from revolve.errors import (AxisSingularity, DegenerateProfile, NonManifold,
                            ParamOutOfRange)
from revolve.mesh import (SurfaceMesh, discrete_mesh_curvature,
                          fundamental_forms, revolve, write_obj, write_stl)
from revolve.reconstruct import Profile, integrate_profile


def sphere_profile(n, R=1.0):
    ts = np.linspace(0.0, math.pi, n)
    return Profile(s=R * ts, x=R * np.sin(ts), z=-R * np.cos(ts),
                   tx=np.cos(ts), tz=np.sin(ts), branch_events=())


def open_band_profile(n=40):
    ts = np.linspace(1.0, 2.0, n)
    return Profile(s=ts, x=ts, z=np.zeros(n), tx=np.ones(n),
                   tz=np.zeros(n), branch_events=())


def test_sphere_topology():
    m = revolve(sphere_profile(33), n_theta=64)
    # poles weld to single vertices; V - E + F = 2, no boundary
    assert len(m.vertices) == 2 + 31 * 64
    assert m.euler_characteristic() == 2
    assert m.boundary_loops() == 0
    assert max(m.edge_counts().values()) == 2


def test_open_band_topology():
    m = revolve(open_band_profile(), n_theta=32)
    assert m.euler_characteristic() == 0
    assert m.boundary_loops() == 2


def test_boundary_loops_count_separate_components():
    # a cap (pole plus one open ring) has one loop
    cap = revolve(Profile(s=np.linspace(0.0, 1.0, 9), x=np.sin(np.linspace(0.0, 1.0, 9)),
                          z=-np.cos(np.linspace(0.0, 1.0, 9)),
                          tx=np.cos(np.linspace(0.0, 1.0, 9)),
                          tz=np.sin(np.linspace(0.0, 1.0, 9))), n_theta=12)
    assert cap.boundary_loops() == 1
    # two disjoint bands in one mesh: four loops, whatever the vertex order
    both, shuffled = _two_bands()
    assert both.boundary_loops() == 4
    assert shuffled.boundary_loops() == 4
    assert shuffled.euler_characteristic() == 0


def _two_bands():
    """Two disjoint open bands in one mesh, and the same mesh with its
    vertices renumbered at random."""
    band = revolve(open_band_profile(5), n_theta=10)
    n = len(band.vertices)
    both = SurfaceMesh(np.concatenate((band.vertices, band.vertices + 5.0)),
                       np.concatenate((band.triangles, n + band.triangles[::-1])),
                       band.rings, band.normals, band.n_theta)
    perm = np.random.default_rng(0).permutation(2 * n)
    shuffled = SurfaceMesh(both.vertices[np.argsort(perm)], perm[both.triangles],
                           band.rings, band.normals, band.n_theta)
    return both, shuffled


def test_catenoid_annulus_has_two_boundary_loops():
    p = integrate_profile(catenoid_momentum(), start_x=2.0, s_max=1.0,
                          s_min=-1.0, samples_per_branch=64)
    m = revolve(p, n_theta=16)
    assert m.boundary_loops() == 2
    assert m.euler_characteristic() == 0


def test_revolve_input_validation():
    with pytest.raises(ParamOutOfRange):
        revolve(open_band_profile(), n_theta=4)
    one = Profile(s=np.array([0.0]), x=np.array([1.0]), z=np.array([0.0]),
                  tx=np.array([1.0]), tz=np.array([0.0]), branch_events=())
    with pytest.raises(DegenerateProfile):
        revolve(one)
    rep = Profile(s=np.array([0.0, 1.0, 2.0]), x=np.array([1.0, 1.0, 1.0]),
                  z=np.array([0.0, 0.0, 1.0]), tx=np.ones(3), tz=np.zeros(3),
                  branch_events=())
    with pytest.raises(DegenerateProfile):
        revolve(rep)


class _Reached(Exception):
    pass


class _Column:
    """A profile column of n samples that raises _Reached when it is made an
    array, so no test of the size check can allocate n samples."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __array__(self, *args, **kwargs):
        raise _Reached


def test_revolve_refuses_more_vertices_than_int32_numbers():
    def columns(n):
        return SimpleNamespace(x=_Column(n), z=_Column(n), tx=_Column(n),
                               tz=_Column(n))

    # refused before a column is read, let alone a vertex allocated
    for n_s, n_theta in ((2 ** 28, 8), (2, 2 ** 30), (3, 2 ** 31)):
        with pytest.raises(ParamOutOfRange, match=r"2\*\*31"):
            revolve(columns(n_s), n_theta=n_theta)
    # 2**31 - 8 vertices pass the check and go on to read the columns
    with pytest.raises(_Reached):
        revolve(columns(2 ** 28 - 1), n_theta=8)


@pytest.mark.parametrize("column", ["x", "z", "tx", "tz"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_revolve_refuses_non_finite_samples(column, bad):
    p = open_band_profile()
    values = np.array(getattr(p, column), dtype=float)
    values[len(values) // 2] = bad
    with pytest.raises(DegenerateProfile, match="finite"):
        revolve(dataclasses.replace(p, **{column: values}), n_theta=8)


def test_sphere_discrete_curvature_and_convergence():
    errs = []
    for n, nt in ((33, 32), (65, 64), (129, 128)):
        m = revolve(sphere_profile(n), n_theta=nt)
        H, K = discrete_mesh_curvature(m)
        assert not np.any(np.isnan(H))  # closed surface: no boundary
        eH = float(np.max(np.abs(H - 1.0)))
        eK = float(np.max(np.abs(K - 1.0)))
        errs.append((eH, eK))
    # n_theta = 128 benchmark: K_G within 1e-2 of 1
    assert errs[-1][1] < 1e-2
    assert errs[-1][0] < 1e-2
    # halving both steps cuts the worst error by at least 3x
    assert errs[0][0] / errs[1][0] >= 3.0
    assert errs[1][0] / errs[2][0] >= 3.0
    assert errs[0][1] / errs[1][1] >= 3.0
    assert errs[1][1] / errs[2][1] >= 3.0


def test_sphere_mean_curvature_sign_convention():
    # the stored normals make a momentum-built sphere report H = +1/R
    m = revolve(sphere_profile(65, R=2.0), n_theta=64)
    H, _ = discrete_mesh_curvature(m)
    assert_close(float(np.median(H)), 0.5, 1e-3, "H sign")


def test_catenoid_mesh_minimal():
    p = integrate_profile(catenoid_momentum(), start_x=2.0, s_max=1.5,
                          s_min=-1.5, samples_per_branch=256)
    m = revolve(p, n_theta=128)
    held = {k: id(v) for k, v in vars(m).items()}
    H, _ = discrete_mesh_curvature(m)
    ok = ~np.isnan(H)
    assert float(np.max(np.abs(H[ok]))) < 1e-2
    # the results are returned, not stored on the mesh
    assert {k: id(v) for k, v in vars(m).items()} == held


def test_meshes_compare_by_identity():
    # array fields make element-wise comparison ambiguous: == is identity
    m1 = revolve(open_band_profile(), n_theta=16)
    m2 = revolve(open_band_profile(), n_theta=16)
    assert (m1 == m2) is False
    assert (m1 == m1) is True
    assert (m1 != m2) is True


def test_rebound_mesh_gets_its_own_curvature():
    # discrete_mesh_curvature stores nothing on the mesh, before or after a
    # rebinding, whichever path it takes
    m = revolve(open_band_profile(), n_theta=16)
    for name in ("vertices", "triangles", "normals"):
        held = {k: id(v) for k, v in vars(m).items()}
        H, K = discrete_mesh_curvature(m)
        assert {k: id(v) for k, v in vars(m).items()} == held
        setattr(m, name, getattr(m, name).copy())
    # the mesh scaled by 2 gets its own curvature, K / 4
    H, K = discrete_mesh_curvature(m)
    m.vertices = 2.0 * m.vertices
    _, K2 = discrete_mesh_curvature(m)
    ok = ~np.isnan(H)
    assert np.allclose(K2[ok], K[ok] / 4.0, atol=1e-12)


def test_cone_mesh_is_flat():
    ts = np.linspace(0.5, 2.0, 120)
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    p = Profile(s=ts, x=c * ts, z=s * ts, tx=np.full_like(ts, c),
                tz=np.full_like(ts, s), branch_events=())
    m = revolve(p, n_theta=96)
    H, K = discrete_mesh_curvature(m)
    ok = ~np.isnan(H)
    assert float(np.max(np.abs(K[ok]))) < 1e-3


def test_rotation_symmetry():
    # rotating by 2 pi / n_theta must permute the connectivity exactly and
    # the coordinates to rounding error
    p = open_band_profile(7)
    nt = 12
    m = revolve(p, n_theta=nt)
    n_rings = len(m.rings)
    remap = np.empty(len(m.vertices), dtype=np.int64)
    for ring in m.rings:
        remap[ring] = np.roll(ring, -1)  # theta_j -> theta_j+1
    t_rot = remap[m.triangles]
    keys = {tuple(sorted(t)) for t in m.triangles.tolist()}
    keys_rot = {tuple(sorted(t)) for t in t_rot.tolist()}
    assert keys == keys_rot  # connectivity is bitwise invariant

    ang = 2.0 * math.pi / nt
    R = np.array([[math.cos(ang), -math.sin(ang), 0.0],
                  [math.sin(ang), math.cos(ang), 0.0],
                  [0.0, 0.0, 1.0]])
    rotated = m.vertices @ R.T
    assert float(np.max(np.abs(rotated - m.vertices[remap]))) < 1e-13


def test_edge_table_built_once_per_mesh(monkeypatch):
    import revolve.mesh as mesh_module

    calls = []
    table = mesh_module._edge_table
    monkeypatch.setattr(mesh_module, "_edge_table",
                        lambda *args: calls.append(args) or table(*args))
    m = revolve(open_band_profile(), n_theta=32)
    discrete_mesh_curvature(m)
    assert (m.euler_characteristic(), m.boundary_loops()) == (0, 2)
    assert len(calls) == 0  # revolve fills the summary by index arithmetic
    # a mesh whose triangles or vertices were rebound builds its table on
    # every call that needs it
    m.triangles = np.vstack([m.triangles, m.triangles[:1]])  # duplicate a face
    assert m.euler_characteristic() == 1
    with pytest.raises(NonManifold):
        discrete_mesh_curvature(m)
    assert max(m.edge_counts().values()) == 3
    assert len(calls) == 3
    m.vertices = np.vstack([m.vertices, [[0.0, 0.0, 9.0]]])
    assert (m.euler_characteristic(), m.boundary_loops()) == (2, 2)
    assert len(calls) == 5


def _ring_profile(name):
    if name == "sphere":
        return sphere_profile(33)
    if name == "open band":
        return open_band_profile()
    if name in ("pole_end", "near_pole_start"):
        return _pinned_profile(name)
    if name == "catenoid annulus":
        return integrate_profile(catenoid_momentum(), start_x=2.0, s_max=1.0,
                                 s_min=-1.0, samples_per_branch=64)
    return integrate_profile(unduloid_momentum(), start_x=0.5, s_max=11.5,
                             samples_per_branch=48)


@pytest.mark.parametrize("name", ["sphere", "open band", "pole_end",
                                  "near_pole_start", "catenoid annulus",
                                  "unduloid"])
def test_per_ring_curvature_matches_full_path(name):
    p = _ring_profile(name)
    for nt in (8, 13, 128):
        m = revolve(p, n_theta=nt)
        # the same arrays without the ring grid: the full-mesh path
        full = SurfaceMesh(m.vertices, m.triangles, m.rings, m.normals, nt)
        assert m._revolved() is not None and full._revolved() is None

        # revolve's edge summary is the one the edge table gives
        got, want = m._edge_summary(), full._edge_summary()
        assert (got.n_edges, got.max_share) == (want.n_edges, want.max_share)
        for a, b in ((got.lo, want.lo), (got.hi, want.hi)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

        H, K = discrete_mesh_curvature(m)
        H0, K0 = discrete_mesh_curvature(full)
        first = np.array([r[0] for r in m.rings])
        tol = 1e-9 * np.maximum(1.0, np.abs(np.nan_to_num(K0)))
        for got, want in ((H, H0), (K, K0)):
            assert got[first].tobytes() == want[first].tobytes()
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert np.all(np.abs(got - want)[~nan] <= tol[~nan])


def test_int32_and_int64_triangles_agree_past_46341_vertices():
    # 401 rings of 128: 51,328 vertices, so lo * n_vertices + hi of an edge
    # passes 2**31 and would wrap in int32
    ts = np.linspace(1.0, 2.0, 401)
    m = revolve(Profile(s=ts, x=ts, z=0.3 * ts ** 2, tx=np.ones(401),
                        tz=np.zeros(401), branch_events=()), n_theta=128)
    assert len(m.vertices) ** 2 > 2 ** 31
    got = []
    for dtype in (np.int32, np.int64):
        hand = SurfaceMesh(m.vertices, m.triangles.astype(dtype), m.rings,
                           m.normals, m.n_theta)
        H, K = discrete_mesh_curvature(hand)
        got.append((hand.euler_characteristic(), hand.boundary_loops(),
                    H.tobytes(), K.tobytes()))
    assert got[0] == got[1]
    assert got[0][:2] == (m.euler_characteristic(), m.boundary_loops()) == (0, 2)


def test_meshes_without_ring_grid_take_full_path():
    both, shuffled = _two_bands()
    assert both._revolved() is None and shuffled._revolved() is None
    # a mesh whose vertices, triangles or normals were rebound, on itself or
    # on a copy.copy of it, takes the full path on the rebound arrays: its
    # topology and curvature are those of the same arrays built by hand
    m = revolve(open_band_profile(), n_theta=16)
    H, K = discrete_mesh_curvature(m)
    kept = (write_obj(m), write_stl(m), H.tobytes(), K.tobytes())
    v = m.vertices.copy()
    moved = m.rings[20][5]
    v[moved, 2] += 1e-3
    edits = {"vertices": v, "triangles": m.triangles[1:], "normals": -m.normals}
    for name, value in edits.items():
        for edited in (copy.copy(m), revolve(open_band_profile(), n_theta=16)):
            setattr(edited, name, value)
            assert edited._revolved() is None
            hand = SurfaceMesh(edited.vertices, edited.triangles, edited.rings,
                               edited.normals, edited.n_theta)
            got, want = ((mesh.euler_characteristic(), mesh.boundary_loops(),
                          *(a.tobytes() for a in discrete_mesh_curvature(mesh)))
                         for mesh in (edited, hand))
            assert got == want, name
        H1, K1 = discrete_mesh_curvature(edited)
        if name == "vertices":
            # moving one vertex off its ring's rotation changes its curvature
            assert abs(K1[moved] - K1[m.rings[20][0]]) > 1e-3
        elif name == "triangles":
            # one face fewer; its hole joins the first ring's boundary loop
            assert got[:2] == (-1, 2)
        else:
            assert np.array_equal(H1, -H, equal_nan=True)
    # the original keeps its record and its bytes
    assert m._revolved() is m._record
    H, K = discrete_mesh_curvature(m)
    assert (write_obj(m), write_stl(m), H.tobytes(), K.tobytes()) == kept


def test_revolve_arrays_are_read_only():
    for name in ("vertices", "triangles", "normals"):
        m = revolve(open_band_profile(), n_theta=16)
        with pytest.raises(ValueError):
            getattr(m, name)[0] = 0
        assert m._record is not None and m._revolved() is m._record
        # a rebinding, on a copy.copy or on the mesh, leaves the record
        # unused by that mesh only
        edited = copy.copy(m)
        setattr(edited, name, getattr(m, name).copy())
        assert edited._revolved() is None and m._revolved() is m._record
        setattr(m, name, getattr(m, name).copy())
        assert m._revolved() is None


def test_curvature_refuses_normals_that_do_not_match_the_vertices():
    # one vertex appended leaves the record's normals a row short: a typed
    # error naming both lengths, not NumPy's broadcast error
    m = revolve(open_band_profile(), n_theta=16)
    n = len(m.vertices)
    m.vertices = np.vstack([m.vertices, [[0.0, 0.0, 9.0]]])
    with pytest.raises(DegenerateProfile, match=f"{n} normals for {n + 1} vertices"):
        discrete_mesh_curvature(m)


@pytest.mark.parametrize("name", ["sphere", "near_pole_start", "pole_end",
                                  "catenoid annulus"])
def test_normals_read_late_are_the_formula_normals(name):
    # n = (-tz*cos(theta), -tz*sin(theta), tx) at every vertex, a pole
    # (0, 0, sign tx), whether read at once or after vertices or triangles
    # were rebound; every read is the one read-only array
    p = _ring_profile(name)
    theta = 2.0 * math.pi * np.arange(16) / 16
    want = np.stack(np.broadcast_arrays(-p.tz[:, None] * np.cos(theta),
                                        -p.tz[:, None] * np.sin(theta), p.tx[:, None]), -1)
    pole = np.abs(p.x) < 1e-12
    want[pole, :, :2] = 0.0
    want[pole, :, 2] = np.copysign(1.0, np.where(p.tx != 0.0, p.tx, 1.0))[pole, None]
    keep = np.ones((len(p), 16), dtype=bool)
    keep[pole, 1:] = False
    want = want[keep]
    for rebind in (None, "vertices", "triangles"):
        m = revolve(p, n_theta=16)
        if rebind:
            setattr(m, rebind, getattr(m, rebind).copy())
        got = m.normals
        assert got.tobytes() == want.tobytes() and got.shape == want.shape, rebind
        assert m.normals is got and not got.flags.writeable


def test_revolved_mesh_holds_no_normals_unless_read():
    # a catenoid band of 513 rings at n_theta 256, 131,328 vertices, whose
    # normals would be 3.0 MB: curvature, topology and both writers leave
    # the mesh holding its vertices, triangles, rings and (H, K_G) only
    t = np.linspace(-1.0, 1.0, 513)
    p = Profile(s=np.sinh(t), x=np.cosh(t), z=t, tx=np.tanh(t), tz=1.0 / np.cosh(t),
                branch_events=())
    tracemalloc.start()
    try:
        m = revolve(p, n_theta=256)
        H, K = discrete_mesh_curvature(m)
        assert (m.euler_characteristic(), m.boundary_loops()) == (0, 2)
        obj_size = len(write_obj(m))
        write_stl(m)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    normals = 24 * len(m.vertices)
    arrays = (m.vertices.nbytes + m.triangles.nbytes + sum(r.nbytes for r in m.rings)
              + H.nbytes + K.nbytes)
    # a per-vertex normals array would overrun each bound by three quarters
    # of its size; the peak is write_obj's pieces and their join
    assert held <= arrays + normals / 4, (held, arrays)
    assert peak <= arrays + 2.1 * obj_size + normals / 4, (peak, arrays, obj_size)
    assert m.normals.nbytes == normals


@pytest.mark.parametrize("name", ["catenoid", "unduloid"])
def test_mesh_curvature_converges_at_second_order(name):
    # interior rings, 3 in from each end, against the closed H and K_G as
    # |discrete - closed| / max(1, |closed|), with samples and n_theta doubled
    if name == "catenoid":
        momentum, flow = catenoid_momentum(), dict(start_x=2.0, s_min=-1.5,
                                                   s_max=1.5)
        closed = lambda x: (np.zeros_like(x), -1.0 / x ** 4)
    else:
        c = 0.12
        momentum, flow = unduloid_momentum(c), dict(start_x=0.5, s_max=5.0)
        closed = lambda x: (np.ones_like(x), 1.0 - c ** 2 / x ** 4)
    errs = []
    for n in (64, 128, 256):
        p = integrate_profile(momentum, samples_per_branch=n, **flow)
        m = revolve(p, n_theta=n)
        idx = np.array(m.rings[3:-3])
        errs.append([float(np.max(np.abs(got[idx] - want[:, None])
                                  / np.maximum(1.0, np.abs(want))[:, None]))
                     for got, want in zip(discrete_mesh_curvature(m),
                                          closed(p.x[3:-3]))])
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.75), orders


def test_non_manifold_detected():
    m = revolve(open_band_profile(5), n_theta=8)
    bad = np.vstack([m.triangles, m.triangles[:1]])  # duplicate one face
    broken = SurfaceMesh(vertices=m.vertices, triangles=bad, rings=m.rings,
                         normals=m.normals, n_theta=m.n_theta)
    with pytest.raises(NonManifold):
        discrete_mesh_curvature(broken)


def _mixed_areas_add_at(v, t):
    """The scatter-add (np.add.at) sums, kept as the reference."""
    n = len(v)
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    e0 = p2 - p1  # edge opposite corner 0
    e1 = p0 - p2
    e2 = p1 - p0
    cr = np.cross(e2, -e1)
    twice_area = np.linalg.norm(cr, axis=1)
    twice_area = np.maximum(twice_area, 1e-300)
    d0 = np.einsum("ij,ij->i", e2, -e1)
    d1 = np.einsum("ij,ij->i", e0, -e2)
    d2 = np.einsum("ij,ij->i", e1, -e0)
    cot0, cot1, cot2 = d0 / twice_area, d1 / twice_area, d2 / twice_area
    ang0 = np.arctan2(twice_area, d0)
    ang1 = np.arctan2(twice_area, d1)
    ang2 = np.arctan2(twice_area, d2)
    l0 = np.einsum("ij,ij->i", e0, e0)
    l1 = np.einsum("ij,ij->i", e1, e1)
    l2 = np.einsum("ij,ij->i", e2, e2)
    area = 0.5 * twice_area
    a_corner = np.empty((len(t), 3))
    a_corner[:, 0] = (l2 * cot2 + l1 * cot1) / 8.0
    a_corner[:, 1] = (l0 * cot0 + l2 * cot2) / 8.0
    a_corner[:, 2] = (l1 * cot1 + l0 * cot0) / 8.0
    for k, obt in enumerate((d0 < 0.0, d1 < 0.0, d2 < 0.0)):
        a_corner[obt, :] = (area[obt] / 4.0)[:, None]
        a_corner[obt, k] = area[obt] / 2.0
    a_mixed = np.zeros(n)
    angle_sum = np.zeros(n)
    lap = np.zeros((n, 3))
    for k, ang, cot, (ia, ib) in ((0, ang0, cot0, (1, 2)),
                                  (1, ang1, cot1, (2, 0)),
                                  (2, ang2, cot2, (0, 1))):
        np.add.at(a_mixed, t[:, k], a_corner[:, k])
        np.add.at(angle_sum, t[:, k], ang)
        va, vb = t[:, ia], t[:, ib]
        w = cot[:, None] * (v[vb] - v[va])
        np.add.at(lap, va, w)
        np.add.at(lap, vb, -w)
    return a_mixed, angle_sum, lap


def _sum_mesh(name):
    if name == "sphere":
        return revolve(sphere_profile(65), n_theta=64)
    if name == "open band":
        return revolve(open_band_profile(), n_theta=32)
    if name == "catenoid annulus":
        return revolve(integrate_profile(catenoid_momentum(), start_x=2.0, s_max=1.0,
                                         s_min=-1.0, samples_per_branch=64), n_theta=16)
    if name == "shuffled two bands":
        return _two_bands()[1]
    return revolve(integrate_profile(unduloid_momentum(), start_x=0.5, s_max=11.5,
                                     samples_per_branch=48), n_theta=128)


@pytest.mark.parametrize("name", ["sphere", "open band", "catenoid annulus",
                                  "shuffled two bands", "unduloid"])
def test_curvature_sums_bit_equal_to_add_at(name):
    from revolve.mesh import _mixed_areas_and_angles

    m = _sum_mesh(name)
    got = _mixed_areas_and_angles(m.vertices, m.triangles)
    want = _mixed_areas_add_at(m.vertices, m.triangles)
    for label, g, w in zip(("a_mixed", "angle_sum", "lap"), got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), label


def test_fundamental_forms():
    m = catenoid_momentum()
    (E, G), (L, N) = fundamental_forms(m, 2.0)
    assert E == 1.0
    assert G == 4.0
    assert_close(L, 0.25, 1e-15, "II meridian: K'")
    assert_close(N, -1.0, 1e-15, "II parallel: x K")
    with pytest.raises(AxisSingularity):
        fundamental_forms(sphere_momentum(), 0.0)


def test_obj_output():
    m = revolve(open_band_profile(3), n_theta=8)
    text = write_obj(m)
    lines = text.splitlines()
    assert lines[0].startswith("#")
    nv = sum(1 for l in lines if l.startswith("v "))
    nf = sum(1 for l in lines if l.startswith("f "))
    assert nv == len(m.vertices)
    assert nf == len(m.triangles)
    # 1-based indices, in range
    for l in lines:
        if l.startswith("f "):
            idx = [int(w) for w in l.split()[1:]]
            assert all(1 <= i <= nv for i in idx)
    # byte-reproducible
    assert write_obj(revolve(open_band_profile(3), n_theta=8)) == text


def test_stl_output():
    m = revolve(open_band_profile(3), n_theta=8)
    blob = write_stl(m)
    assert len(blob) == 84 + 50 * len(m.triangles)
    (count,) = struct.unpack_from("<I", blob, 80)
    assert count == len(m.triangles)
    # first facet normal is unit length
    nx, ny, nz = struct.unpack_from("<3f", blob, 84)
    assert_close(math.sqrt(nx ** 2 + ny ** 2 + nz ** 2), 1.0, 1e-6, "unit normal")
    assert write_stl(revolve(open_band_profile(3), n_theta=8)) == blob


def _stl_structured(mesh):
    """The np.cross / structured-array STL writer, kept as the reference."""
    header = b"rotational surface mesh (binary STL)"
    header = header + b"\x00" * (80 - len(header))
    tri = mesh.vertices[mesh.triangles]
    nrm = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    length = np.linalg.norm(nrm, axis=1)
    nrm = np.where(length[:, None] > 0, nrm / np.maximum(length, 1e-300)[:, None],
                   0.0)
    record = np.zeros(len(tri), dtype=[("n", "<f4", 3), ("v", "<f4", (3, 3)),
                                       ("attr", "<u2")])
    record["n"] = nrm
    record["v"] = tri
    return header + np.uint32(len(tri)).astype("<u4").tobytes() + record.tobytes()


def test_write_stl_matches_structured_writer():
    m = revolve(sphere_profile(65), n_theta=128)
    assert write_stl(m) == _stl_structured(m)
    # zero-area, NaN and large facets, and an empty mesh
    rng = np.random.default_rng(3)
    verts = np.concatenate(([[0.0, 0.0, 0.0], [math.nan, 1.0, 2.0], [1e30, 0.0, 0.0]],
                            rng.standard_normal((60, 3))))
    tris = np.concatenate(([[0, 0, 3], [1, 3, 4], [2, 3, 4]],
                           rng.integers(0, len(verts), (200, 3))))
    m = SurfaceMesh(vertices=verts, triangles=tris, rings=[], normals=verts,
                    n_theta=8)
    assert write_stl(m) == _stl_structured(m)
    m.triangles = tris[:0]
    assert write_stl(m) == _stl_structured(m)
    # meshes that end at and next to a piece boundary, with a zero-area and a
    # NaN facet on each side of every boundary
    for n in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1):
        tris = rng.integers(3, len(verts), (n, 3))
        for b in range(0, n + 1, _CHUNK):
            for i, tri in ((b - 2, [0, 0, 3]), (b - 1, [1, 3, 4]),
                           (b, [4, 1, 3]), (b + 1, [3, 4, 3])):
                if 0 <= i < n:
                    tris[i] = tri
        m.triangles = tris
        assert write_stl(m) == _stl_structured(m)


def test_writers_peak_memory():
    # 800 strips of 256 triangles: 204,800 facets on a band whose rings
    # differ in z. The STL writer holds its one buffer, which it returns,
    # and one piece's temporaries; the OBJ writer its pieces and their join
    ts = np.linspace(1.0, 2.0, 801)
    m = revolve(Profile(s=ts, x=ts, z=0.3 * ts ** 2, tx=np.ones(801),
                        tz=np.zeros(801), branch_events=()), n_theta=128)
    assert len(m.triangles) == 204_800
    tracemalloc.start()
    try:
        for writer, bound in ((write_stl, 1.1), (write_obj, 2.1)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = writer(m)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= bound * len(out), (writer.__name__, peak / len(out))
            del out
    finally:
        tracemalloc.stop()


def test_pole_fan_winding_consistent():
    # every edge of the sphere mesh is traversed once in each direction
    m = revolve(sphere_profile(9), n_theta=8)
    directed = {}
    for a, b, c in m.triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            directed[(int(u), int(v))] = directed.get((int(u), int(v)), 0) + 1
    assert max(directed.values()) == 1
    for (u, v), _ in directed.items():
        assert (v, u) in directed


def _pinned_profile(name):
    if name == "sphere":
        ts = np.linspace(0.0, math.pi, 9)
        x = np.sin(ts)
    elif name == "band":
        ts = np.linspace(1.0, 2.0, 5)
        return Profile(s=ts, x=ts, z=0.3 * ts ** 2, tx=np.ones(5),
                       tz=np.zeros(5), branch_events=())
    elif name == "near_pole_start":
        ts = np.linspace(0.0, 0.5 * math.pi, 6)
        x = np.sin(ts)
        x[0] = 1e-14
    else:  # "pole_end"
        ts = np.linspace(0.5 * math.pi, math.pi, 6)
        x = np.sin(ts)
        x[-1] = 0.0
    return Profile(s=ts, x=x, z=-np.cos(ts), tx=np.cos(ts), tz=np.sin(ts),
                   branch_events=())


# SHA-256 of (OBJ text, STL bytes, the int32 triangles widened to int64,
# rings as JSON lists, float64 normals) at n_theta = 8; any change to vertex,
# triangle or ring order shows here.
_PINNED = {
    "sphere": (
        "a88cfcbea75c475cb657185136474d3ebcf690b89e1143031c4533b25d533c69",
        "899018c137cefa390085a330a0ef9eef768c6b657f17b41f437972966f6e7ba9",
        "5f33d0b104e1519115008598178e9b4ebcfc48103e52025fe23a8dc36527b34e",
        "32e2c293f223f24eb86d084360e31dd278e546d2d6e29e71fb63604c21917269",
        "2f4a390302ca98f0ef9200fa9502057a7468103e0836a1f98ad0e30efe242f4c"),
    "band": (
        "b6635409af93d8bf11a91de5146d912d31c1bafbf8315f3f5b819a3568794f2b",
        "8ff619f38169ef6193cfa74ed6c7ac883ba64baec49ba1bb1b04393b717dd105",
        "76b38ae403ea9b9c0f83e867def86a4d6bc6d91b0822c14ce791b4c810659f9d",
        "5784a4a3b72c383f4d09ba6dddb7ced63700915744183d0c0788010670338a3b",
        "0b2eb4cba1381f9bc9334d93199c90d017ac9fc9bbe4f74eb6a922b2b6adb8c2"),
    "near_pole_start": (
        "4c6a0f9f3f69682dbbad683649fa3356cdc86fc815d2c66609553668a2d6a107",
        "79dc7691864ea4705a4ef1d15a97096272c76b19df690078427b574a4e9f02c7",
        "49b8a3f31e65c51ef947471713a55a9e0c29278caff77d977746199add91447f",
        "582d88e978881bccfbfe78e97af0034fd386b0dd8e524700aaddf4e4d12cc61b",
        "da5304e24af9cdb25027b269ef84a61beab6e60e8202f98062d4af36388b434f"),
    "pole_end": (
        "8da67561be61347d325e7b272cb5bf609696b7febb4a68c9af313734b65b0482",
        "c342c21d51728e8df5ac2e9599eed5cd87cced7e2acbbfe52101a4142603fd36",
        "fee2b7999d9cb26c51ee94a5201c81fabc0a6a45773e1cd919a5ca97158f2e84",
        "6480b134bef628ff3b6a062de801def7493f3149e36259a2ddb6b7115edaee9a",
        "db80184f2da9da984851e012609cd93f6916304308255b1b587b080266d29168"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_mesh_output_pinned(name):
    m = revolve(_pinned_profile(name), n_theta=8)
    assert m.triangles.dtype == np.int32 and m.normals.dtype == np.float64
    assert all(r.dtype == np.int32 for r in m.rings)
    got = tuple(hashlib.sha256(blob).hexdigest() for blob in (
        write_obj(m).encode(), write_stl(m), m.triangles.astype(np.int64).tobytes(),
        json.dumps([r.tolist() for r in m.rings]).encode(),
        m.normals.tobytes()))
    assert got == _PINNED[name]


def _obj_per_line(mesh):
    """The one-f-string-per-record OBJ writer, kept as the reference."""
    lines = ["# rotational surface mesh",
             "# normal convention: n = (-tz*cos(theta), -tz*sin(theta), tx); "
             "discrete H is signed against this normal"]
    for vx, vy, vz in mesh.vertices:
        lines.append(f"v {vx:.17g} {vy:.17g} {vz:.17g}")
    for a, b, c in mesh.triangles:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    return "\n".join(lines) + "\n"


def test_write_obj_matches_per_line_formatter():
    rng = np.random.default_rng(8)
    special = [-0.0, 5e-324, 1e308, -1e-300, 0.1, 1.0, math.nan, -math.inf]
    scaled = rng.standard_normal(10_000) * 10.0 ** rng.integers(-300, 300, 10_000)
    verts = np.concatenate((special, scaled)).reshape(-1, 3)
    tris = rng.integers(0, len(verts), (500, 3))
    m = SurfaceMesh(vertices=verts, triangles=tris, rings=[], normals=verts,
                    n_theta=8)
    assert write_obj(m) == _obj_per_line(m)

    m = revolve(sphere_profile(33), n_theta=128)
    assert write_obj(m) == _obj_per_line(m)
