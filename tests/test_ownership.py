"""Public array results own exactly the memory they expose.

An array that is a view into a larger buffer keeps the whole buffer alive:
a caller who keeps one column of a stacked result keeps every column. Each
result below is walked down its ``.base`` chain to the object that owns the
memory, whose size must be the array's own.
"""
import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import catenoid_momentum, pinned_traces, sphere_momentum, unduloid_momentum
from revolve import catalog
from revolve.curvature import gauss_from_mean, principal_curvatures
from revolve.mesh import discrete_mesh_curvature, revolve
from revolve.momentum import Momentum
from revolve.quadrature import takes_arrays
from revolve.reconstruct import graph_height, integrate_profile, momentum_of_profile


def _owner_nbytes(a: np.ndarray) -> int:
    """Size of the buffer that holds a: its .base chain walked to the array
    that owns its memory, or to the object under the last array."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes if a.base is None else memoryview(a.base).nbytes


def _assert_owns_exactly(name, a):
    assert isinstance(a, np.ndarray), name
    assert _owner_nbytes(a) == a.nbytes, \
        f"{name} exposes {a.nbytes} bytes of a buffer of {_owner_nbytes(a)}"


def _identity_momentum():
    # eval hands back the very array it is given: tz = K(x) would be x itself
    return Momentum(eval=takes_arrays(lambda x: x), deriv=takes_arrays(np.ones_like),
                    domain=(0.0, 1.0))


_TRACES = {**pinned_traces(),
           "catenoid forwards": (catenoid_momentum(), dict(start_x=1.0, s_max=3.0)),
           "identity eval forwards": (_identity_momentum(), dict(start_x=0.5, s_max=1.0)),
           "identity eval both ways": (_identity_momentum(),
                                       dict(start_x=0.5, s_max=1.0, s_min=-1.0))}


@pytest.mark.parametrize("name", sorted(_TRACES))
def test_profile_columns_are_owned_and_disjoint(name):
    m, kwargs = _TRACES[name]
    p = integrate_profile(m, **{"samples_per_branch": 64, **kwargs})
    cols = {"s": p.s, "x": p.x, "z": p.z, "tx": p.tx, "tz": p.tz}
    for key, c in cols.items():
        _assert_owns_exactly(key, c)
        assert c.flags.c_contiguous and c.flags.writeable and len(c) == len(p), key
    for (k1, c1), (k2, c2) in itertools.combinations(cols.items(), 2):
        assert not np.shares_memory(c1, c2), (k1, k2)


def test_a_kept_column_holds_only_its_own_samples():
    # keeping p.x of 24 traces at 4096 samples holds 24 * 4096 doubles, not
    # the other four columns or the trace's scratch arrays with them
    m, n = catenoid_momentum(), 4096
    integrate_profile(m, 1.0, s_max=3.0, samples_per_branch=n)  # any caches, first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [integrate_profile(m, 1.0, s_max=2.0 + 0.01 * i, samples_per_branch=n).x
                for i in range(24)]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(len(x) == n for x in kept)
    assert held <= 1.1 * 24 * n * 8, f"{held} bytes held for {24 * n * 8} of samples"


@pytest.fixture(scope="module")
def results():
    """name -> array of every other public result the guard covers."""
    m = unduloid_momentum()
    p = integrate_profile(m, 0.5, s_max=4.0, samples_per_branch=64)
    xs, zs = graph_height(sphere_momentum(), 0.0, 1.0, n=65)
    mx, mk = momentum_of_profile(p)
    mesh = revolve(p, n_theta=16)
    H, K = discrete_mesh_curvature(mesh)
    k_m, k_p = principal_curvatures(m, np.linspace(0.2, 0.8, 33))
    kg = gauss_from_mean(lambda x: 1.0, 0.12, np.linspace(0.2, 0.8, 33), (0.15, 0.85),
                         anchor=0.0)
    closed = catalog.build("torus", a=2.0, R=1.0).closed_profile
    cx, cz = closed.point(np.linspace(*closed.param_range, 65))
    return {"graph_height x": xs, "graph_height z": zs,
            "momentum_of_profile x": mx, "momentum_of_profile K": mk,
            "revolve vertices": mesh.vertices, "revolve normals": mesh.normals,
            "revolve triangles": mesh.triangles,
            "discrete_mesh_curvature H": H, "discrete_mesh_curvature K": K,
            "principal_curvatures k_m": k_m, "principal_curvatures k_p": k_p,
            "gauss_from_mean": kg, "catalog point x": cx, "catalog point z": cz}


@pytest.mark.parametrize("name", [
    "graph_height x", "graph_height z", "momentum_of_profile x", "momentum_of_profile K",
    "revolve vertices", "revolve normals", "revolve triangles",
    "discrete_mesh_curvature H", "discrete_mesh_curvature K",
    "principal_curvatures k_m", "principal_curvatures k_p", "gauss_from_mean",
    "catalog point x", "catalog point z"])
def test_public_results_own_exactly_their_memory(results, name):
    _assert_owns_exactly(name, results[name])
