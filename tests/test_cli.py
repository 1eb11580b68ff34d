import inspect
import json
import math
import os
import pkgutil
import struct
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import revolve
from revolve._records import _CHUNK
from revolve.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _cli_subprocess(argv, launch=("-m", "revolve.cli")):
    src = os.path.dirname(os.path.dirname(os.path.abspath(revolve.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    # a timeout, so that a check that stops working cannot hang the suite
    return subprocess.run([sys.executable, *launch, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def prescribe_catenoid(out_dir, capsys):
    code, _, err = run(["prescribe", "--kind", "kp", "--expr", "1/x^2",
                        "--domain", "1.001:3", "--out", str(out_dir)], capsys)
    assert code == 0, err
    return out_dir


def test_prescribe_writes_state(tmp_path, capsys):
    d = prescribe_catenoid(tmp_path / "st", capsys)
    state = json.loads((d / "momentum.json").read_text())
    assert state["source"] == "prescription"
    assert state["kind"] == "kp"
    assert state["domain"] == [1.001, 3.0]
    assert state["admissible"] == [[1.001, 3.0]]


def test_profile_then_mesh_then_verify(tmp_path, capsys):
    d = prescribe_catenoid(tmp_path / "st", capsys)

    code, _, err = run(["profile", "--out", str(d), "--start", "1.5",
                        "--smax", "2", "--smin", "-0.5"], capsys)
    assert code == 0, err
    rows = np.loadtxt(d / "profile.csv", delimiter=",", skiprows=1)
    header = (d / "profile.csv").read_text().splitlines()[0]
    assert header == "s,x,z,tx,tz"
    assert np.all(np.diff(rows[:, 0]) > 0)
    # the curve is the unit catenoid: x = cosh(z - z0)
    z0 = np.median(rows[:, 2] - np.arccosh(rows[:, 1]))
    assert np.max(np.abs(rows[:, 1] - np.cosh(rows[:, 2] - z0))) < 1e-8

    code, _, err = run(["mesh", "--out", str(d), "--ntheta", "32"], capsys)
    assert code == 0, err
    assert (d / "surface.obj").exists()

    code, _, err = run(["mesh", "--out", str(d), "--ntheta", "16",
                        "--format", "stl"], capsys)
    assert code == 0, err
    blob = (d / "surface.stl").read_bytes()
    (count,) = struct.unpack_from("<I", blob, 80)
    assert len(blob) == 84 + 50 * count
    _, x, z, tx, tz = rows.T
    mesh = revolve.revolve(SimpleNamespace(x=x, z=z, tx=tx, tz=tz), n_theta=16)
    assert blob == revolve.write_stl(mesh)

    code, out, err = run(["verify", "--out", str(d), "--grid", "60",
                          "--ntheta", "32"], capsys)
    assert code == 0, err
    report = json.loads((d / "verify.json").read_text())
    assert report["checks"]["momentum_roundtrip"] < 1e-4
    assert report["checks"]["unit_speed"] < 1e-9
    assert report["checks"]["mean_roundtrip"] < 1e-8
    assert report["checks"]["gauss_roundtrip"] < 1e-8
    assert report["checks"]["discrete_mean"] < 1e-2
    assert report["checks"]["discrete_gauss"] < 1e-2
    assert json.loads(out) == report  # report echoed on stdout


def test_verify_tolerance_gate(tmp_path, capsys):
    d = prescribe_catenoid(tmp_path / "st", capsys)
    code, _, _ = run(["verify", "--out", str(d), "--grid", "40",
                      "--ntheta", "32", "--tol-verify", "1e-1"], capsys)
    assert code == 0
    code, _, _ = run(["verify", "--out", str(d), "--grid", "40",
                      "--ntheta", "32", "--tol-verify", "1e-12"], capsys)
    assert code == 1


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_verify_writes_strict_json_for_the_plane(tmp_path, capsys):
    # K = 0: the Gauss rebuild's K' = x K_G / K is 0/0, a check that is no
    # number, written as null
    d = str(tmp_path / "plane")
    assert run(["catalog", "build", "plane", "--out", d], capsys)[0] == 0
    assert run(["profile", "--out", d], capsys)[0] == 0
    code, out, err = run(["verify", "--out", d, "--tol-verify", "1e-6"], capsys)
    assert code == 0, err
    report = _strict_json((tmp_path / "plane" / "verify.json").read_text())
    assert report["checks"]["gauss_roundtrip"] is None
    assert _strict_json(out) == report


def test_verify_gate_fails_a_nan_core_residual(tmp_path, capsys, monkeypatch):
    from revolve import reconstruct
    traced = reconstruct.momentum_of_profile

    def with_a_nan(p):
        xs, ks = traced(p)
        ks = ks.copy()
        ks[len(ks) // 2] = math.nan
        return xs, ks

    monkeypatch.setattr(reconstruct, "momentum_of_profile", with_a_nan)
    d = prescribe_catenoid(tmp_path / "st", capsys)
    code, _, err = run(["verify", "--out", str(d), "--grid", "40",
                        "--ntheta", "32", "--tol-verify", "1e-1"], capsys)
    assert code == 1 and "exceeded --tol-verify: nan" in err, err
    report = _strict_json((d / "verify.json").read_text())
    assert report["checks"]["momentum_roundtrip"] is None
    assert report["checks"]["unit_speed"] < 1e-9


def test_verify_weingarten_flag(tmp_path, capsys):
    # catenoid: k_m = -k_p, i.e. the q = -1 family
    d = prescribe_catenoid(tmp_path / "st", capsys)
    code, out, _ = run(["verify", "--out", str(d), "--grid", "40",
                        "--ntheta", "32", "--q", "-1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["weingarten"] < 1e-9


def test_verify_constraint_flags(tmp_path, capsys):
    # torus pair on [1.1, 2.9] with coupled constants anchored at 1.1
    d = str(tmp_path / "torus")
    code, _, err = run(["prescribe", "--kind", "mean", "--expr", "1 - 1/x",
                        "--const", str(1.1 * (1.1 - 2.0)),
                        "--domain", "1.1:2.9", "--out", d], capsys)
    assert code == 0, err
    x0, K0 = 1.1, 1.1 - 2.0
    code, out, err = run(["verify", "--out", d, "--grid", "50",
                          "--ntheta", "32",
                          "--expr-h", "1 - 1/x", "--expr-kg", "1 - 2/x",
                          "--gamma-h", str(x0 * K0 / 2.0),
                          "--c-g", str(K0 ** 2 / 2.0)], capsys)
    assert code == 0, err
    assert json.loads(out)["checks"]["constraint"] < 1e-9


@pytest.mark.parametrize("given, missing", [("--expr-h", "--expr-kg"),
                                            ("--expr-kg", "--expr-h")])
def test_verify_refuses_one_constraint_expression(tmp_path, capsys, given, missing):
    # the constraint check takes both expressions: one alone exits 2 before
    # any work, and no file is written
    d = tmp_path / "torus"
    code, _, err = run(["prescribe", "--kind", "mean", "--expr", "1 - 1/x",
                        "--const", str(1.1 * (1.1 - 2.0)),
                        "--domain", "1.1:2.9", "--out", str(d)], capsys)
    assert code == 0, err
    before = sorted(tmp_path.rglob("*"))
    code, _, err = run(["verify", "--out", str(d), "--grid", "50", "--ntheta", "32",
                        given, "1 - 1/x"], capsys)
    assert code == 2 and f"{given} was given without {missing}" in err, err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("flag, value", [("--gamma-h", "0"), ("--c-g", "0"),
                                         ("--param", "a=1")])
def test_verify_refuses_constraint_flags_without_expressions(tmp_path, capsys, flag, value):
    # the flags only the constraint check reads, an explicit 0 among them,
    # exit 2 without --expr-h and --expr-kg, before any work; no file is written
    d = prescribe_catenoid(tmp_path / "st", capsys)
    before = sorted(tmp_path.rglob("*"))
    code, _, err = run(["verify", "--out", str(d), "--grid", "40", "--ntheta", "32",
                        flag, value], capsys)
    assert code == 2 and f"{flag} only serve" in err and "neither was given" in err, err
    assert sorted(tmp_path.rglob("*")) == before


def test_prescribe_rejects_bad_expression(tmp_path, capsys):
    code, _, _ = run(["prescribe", "--kind", "kp", "--expr", "1/(x",
                      "--domain", "1:2", "--out", str(tmp_path / "b")], capsys)
    assert code == 2
    code, _, _ = run(["prescribe", "--kind", "kp", "--expr", "nope(x)",
                      "--domain", "1:2", "--out", str(tmp_path / "b")], capsys)
    assert code == 2
    code, _, _ = run(["prescribe", "--kind", "kp", "--expr", "1/x^2",
                      "--domain", "3:1", "--out", str(tmp_path / "b")], capsys)
    assert code == 2


def test_prescribe_numerical_failure_is_exit_3(tmp_path, capsys):
    # meridian curvature with a non-integrable pole inside the domain, and
    # one whose strip from the anchor 0 ends on a blow-up stronger than an
    # inverse square root
    for opts in (["--expr", "1/(x-2)^2", "--domain", "1:3"],
                 ["--expr", "x^(-0.75)", "--domain", "1:2", "--anchor", "0"]):
        code, _, err = run(["prescribe", "--kind", "km", *opts,
                            "--out", str(tmp_path / "b")], capsys)
        assert code == 3
        assert "numerical" in err


def test_prescribe_domain_error_inside_a_panel_is_exit_2(tmp_path, capsys):
    # ln(x - 1.5) is undefined at the quadrature nodes below 1.5
    code, _, err = run(["prescribe", "--kind", "km", "--expr", "ln(x - 1.5)",
                        "--domain", "1:3", "--out", str(tmp_path / "b")], capsys)
    assert code == 2
    assert "math domain error" in err


def test_profile_without_state_fails_cleanly(tmp_path, capsys):
    code, _, _ = run(["profile", "--out", str(tmp_path / "missing")], capsys)
    assert code == 2


def test_prescription_with_parameters(tmp_path, capsys):
    d = tmp_path / "st"
    code, _, err = run(["prescribe", "--kind", "mean", "--expr", "mu/x",
                        "--param", "mu=0.5", "--const", "-1", "--anchor", "0",
                        "--domain", "0.55:4", "--out", str(d)], capsys)
    assert code == 0, err
    state = json.loads((d / "momentum.json").read_text())
    assert state["params"] == {"mu": 0.5}
    assert state["anchor"] == 0.0


def test_catalog_list_and_build(tmp_path, capsys):
    code, out, _ = run(["catalog", "list"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    names = {r["name"] for r in rows}
    assert {"sphere", "torus", "catenoid", "loopoid", "elasticoid",
            "transonducycloid"} <= names
    for r in rows:
        assert set(r) == {"name", "params", "provenance", "momentum", "label"}

    d = tmp_path / "cat"
    code, _, err = run(["catalog", "build", "hopf_kuhnel", "--param", "q=2",
                        "--param", "a=1", "--out", str(d)], capsys)
    assert code == 0, err
    state = json.loads((d / "momentum.json").read_text())
    assert state["source"] == "catalog"
    entry = json.loads((d / "entry.json").read_text())
    assert "Mylar" in entry["label"]
    rows = np.loadtxt(d / "closed_profile.csv", delimiter=",", skiprows=1)
    assert rows.shape[1] == 3  # t, x, z
    # the bytes of the one-f-string-per-row writer
    closed = revolve.catalog.build("hopf_kuhnel", q=2.0, a=1.0).closed_profile
    ts = np.linspace(*closed.param_range, 1025)
    xs, zs = closed.point(ts)
    want = "t,x,z\n" + "".join(f"{t:.17g},{x:.17g},{z:.17g}\n"
                               for t, x, z in zip(ts, xs, zs))
    assert (d / "closed_profile.csv").read_bytes() == want.encode()

    # the stored state drives the pipeline
    code, _, err = run(["profile", "--out", str(d), "--smax", "1.2"], capsys)
    assert code == 0, err

    code, _, _ = run(["catalog", "build", "nonsense", "--out", str(d)], capsys)
    assert code == 2


def test_catalog_state_load_skips_the_closed_profile(tmp_path, capsys, monkeypatch):
    # profile and verify read the entry's momentum only: loading a
    # hopf_kuhnel state builds no antiderivative of its closed profile,
    # which catalog.build samples and so builds
    built = []

    class Counted(revolve.quadrature.AnchoredAntiderivative):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    d = tmp_path / "hk"
    code, _, err = run(["catalog", "build", "hopf_kuhnel", "--param", "q=2",
                        "--out", str(d)], capsys)
    assert code == 0, err
    state = json.loads((d / "momentum.json").read_text())
    monkeypatch.setattr(revolve.quadrature, "AnchoredAntiderivative", Counted)
    m = revolve.cli._momentum_from_state(state, 1e-10)
    assert built == [] and m.eval(0.5) == 0.25
    revolve.catalog.build("hopf_kuhnel", q=2.0)
    assert len(built) == 1


def test_catalog_build_cylinder_then_profile_fails(tmp_path, capsys):
    d = tmp_path / "cyl"
    code, _, _ = run(["catalog", "build", "cylinder", "--param", "a=1",
                      "--out", str(d)], capsys)
    assert code == 0
    code, _, err = run(["profile", "--out", str(d)], capsys)
    assert code == 2  # momentum-exempt entries cannot drive the pipeline


def test_classify_mean_inverse_output(capsys):
    code, out, _ = run(["classify-mean-inverse", "--mu", "0.25"], capsys)
    assert code == 0
    kind, angle = out.split()
    assert kind == "Trigonometric"
    assert angle.startswith("theta=")
    assert math.isclose(float(angle.split("=")[1]), math.asin(0.5),
                        rel_tol=1e-15)
    code, out, _ = run(["classify-mean-inverse", "--mu", "0.5"], capsys)
    assert out.strip() == "Parabolic"
    code, _, _ = run(["classify-mean-inverse", "--mu", "-1"], capsys)
    assert code == 2


def test_classify_mean_inverse_prints_a_finite_delta_where_2mu_overflows(capsys):
    code, out, _ = run(["classify-mean-inverse", "--mu", "1e308"], capsys)
    assert code == 0
    kind, angle = out.split()
    assert kind == "Hyperbolic"
    assert math.isclose(float(angle.removeprefix("delta=")), 710.582503003286, rel_tol=1e-14)


def test_artifacts_are_deterministic(tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        d = prescribe_catenoid(tmp_path / sub, capsys)
        run(["profile", "--out", str(d), "--start", "1.4", "--smax", "1"],
            capsys)
        run(["mesh", "--out", str(d), "--ntheta", "16"], capsys)
        outs.append(((d / "momentum.json").read_bytes(),
                     (d / "profile.csv").read_bytes(),
                     (d / "surface.obj").read_bytes()))
    assert outs[0] == outs[1]


def _write_profile(d, p):
    (d / "profile.csv").write_text(revolve.profile_to_csv(p))
    _, x, z, tx, tz = np.loadtxt(d / "profile.csv", delimiter=",", skiprows=1).T
    return SimpleNamespace(x=x, z=z, tx=tx, tz=tz)


def _sphere(n):
    t = np.linspace(0.0, math.pi, n)
    return revolve.Profile(s=t, x=np.sin(t), z=-np.cos(t), tx=np.cos(t), tz=np.sin(t))


@pytest.mark.parametrize("name", ["sphere", "band"])
def test_mesh_stage_writes_the_library_bytes(tmp_path, capsys, name):
    # the streamed OBJ and the STL buffer are the writers' bytes: a sphere,
    # whose poles fan, and a band of more vertices and triangles than one
    # piece of records
    if name == "sphere":
        p, n_theta = _sphere(33), 16
    else:
        t = np.linspace(1.0, 2.0, 161)
        p, n_theta = revolve.Profile(s=t, x=t, z=0.3 * t ** 2, tx=np.ones(161),
                                     tz=np.zeros(161)), 64
    mesh = revolve.revolve(_write_profile(tmp_path, p), n_theta=n_theta)
    if name == "band":
        assert len(mesh.vertices) > _CHUNK and len(mesh.triangles) > 2 * _CHUNK
    for fmt, want in (("obj", revolve.write_obj(mesh).encode()),
                      ("stl", revolve.write_stl(mesh))):
        code, _, err = run(["mesh", "--out", str(tmp_path), "--ntheta", str(n_theta),
                            "--format", fmt], capsys)
        assert code == 0, err
        assert (tmp_path / f"surface.{fmt}").read_bytes() == want
    assert sorted(os.listdir(tmp_path)) == ["profile.csv", "surface.obj", "surface.stl"]


def test_a_failed_mesh_stream_leaves_the_old_file(tmp_path, capsys, monkeypatch):
    _write_profile(tmp_path, _sphere(33))
    assert run(["mesh", "--out", str(tmp_path), "--ntheta", "16"], capsys)[0] == 0
    before = (tmp_path / "surface.obj").read_bytes()
    import revolve.mesh
    pieces = revolve.mesh._obj_pieces

    def failing(mesh):
        yield next(pieces(mesh))
        raise RuntimeError("the disk went away")

    monkeypatch.setattr(revolve.mesh, "_obj_pieces", failing)
    with pytest.raises(RuntimeError, match="the disk went away"):
        main(["mesh", "--out", str(tmp_path), "--ntheta", "32"])
    assert (tmp_path / "surface.obj").read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["profile.csv", "surface.obj"]


def test_mesh_past_int32_indices_exits_2(tmp_path, capsys):
    # 2 samples at --ntheta 2**30 number 2**31 vertices: refused before the
    # mesh is allocated. The two rows repeat, so a stage that checked the
    # samples first would refuse them instead, before any allocation too
    (tmp_path / "profile.csv").write_text("s,x,z,tx,tz\n0,1,0,0,1\n0,1,0,0,1\n")
    code, _, err = run(["mesh", "--out", str(tmp_path), "--ntheta", str(2 ** 30)],
                       capsys)
    assert code == 2 and "2**31" in err, err
    assert os.listdir(tmp_path) == ["profile.csv"]


@pytest.mark.parametrize("fmt, bound", [("obj", 0.9), ("stl", 1.7)])
def test_mesh_stage_peak_memory(tmp_path, capsys, fmt, bound):
    # a catenoid band of 513 rings at --ntheta 256, 131,328 vertices: the
    # stage holds the mesh and one piece of the OBJ or the STL buffer, not a
    # second copy of the file, and no per-vertex normals, which the stage
    # never reads (3.0 MB, 0.24 of the OBJ and 0.23 of the STL)
    t = np.linspace(-1.0, 1.0, 513)
    _write_profile(tmp_path, revolve.Profile(s=np.sinh(t), x=np.cosh(t), z=t,
                                             tx=np.tanh(t), tz=1.0 / np.cosh(t)))
    tracemalloc.start()
    try:
        code = main(["mesh", "--out", str(tmp_path), "--ntheta", "256", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    ratio = peak / (tmp_path / f"surface.{fmt}").stat().st_size
    assert ratio <= bound, ratio


def test_threads_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REVOLVE_THREADS", "2")
    d = prescribe_catenoid(tmp_path / "st", capsys)
    code, _, _ = run(["profile", "--out", str(d), "--smax", "1"], capsys)
    assert code == 0

    monkeypatch.setenv("REVOLVE_THREADS", "0")
    code, _, err = run(["catalog", "list"], capsys)
    assert code == 2
    monkeypatch.setenv("REVOLVE_THREADS", "soup")
    code, _, _ = run(["catalog", "list"], capsys)
    assert code == 2


def test_console_script_entry_point():
    r = _cli_subprocess(["--help"])
    # argparse --help exits 0 and lists the subcommands
    assert r.returncode == 0
    for word in ("prescribe", "profile", "mesh", "verify", "catalog"):
        assert word in r.stdout


def test_gauss_anchored_on_axis(tmp_path, capsys):
    # x*K_G = 1/4 is finite at x = 0 although K_G is not: the endpoint probe
    # must treat the parsed expression's domain error there as a singular end
    from revolve.cli import _momentum_from_state
    from revolve.momentum import momentum_from_gauss
    d = tmp_path / "arch"
    code, _, err = run(["prescribe", "--kind", "gauss", "--expr", "1/(4*x)",
                        "--const", "0", "--anchor", "0", "--domain", "0:2",
                        "--out", str(d)], capsys)
    assert code == 0, err
    state = json.loads((d / "momentum.json").read_text())
    m = _momentum_from_state(state, 1e-12)
    ref = momentum_from_gauss(lambda x: 0.25 / x, 0.0, +1, (0.0, 2.0), anchor=0.0)
    xs = np.linspace(0.0, 2.0, 200)
    assert max(abs(m.eval(float(x)) - ref.eval(float(x))) for x in xs) <= 1e-12
    code, _, err = run(["profile", "--out", str(d), "--smax", "2",
                        "--smin", "-1", "--samples", "64"], capsys)
    assert code == 0, err


@pytest.mark.parametrize("stage, flag, value, words", [
    ("profile", "--samples", "0", "two samples"),
    ("profile", "--samples", "1", "two samples"),
    ("profile", "--tol-ode", "0", "tolerances"),
    ("verify", "--tol-ode", "0", "tolerances"),
    ("verify", "--grid", "0", "--grid"),
    ("profile", "--smax", "nan", "arclength caps"),
    ("profile", "--smin", "nan", "arclength caps"),
])
def test_unusable_sizes_and_tolerances_exit_2(tmp_path, capsys, stage, flag, value, words):
    d = prescribe_catenoid(tmp_path / "st", capsys)
    r = _cli_subprocess([stage, "--out", str(d), "--start", "1.5", "--smax", "2",
                         "--smin", "-2", flag, value])
    assert r.returncode == 2, r.stderr
    assert words in r.stderr
    assert not (d / "profile.csv").exists() and not (d / "verify.json").exists()


def test_profile_with_both_caps_below_zero_exits_2(tmp_path, capsys):
    d = prescribe_catenoid(tmp_path / "st", capsys)
    code, _, err = run(["profile", "--out", str(d), "--start", "1.5",
                        "--smax", "-1", "--smin", "-1"], capsys)
    assert code == 2 and "arclength caps" in err, err
    assert not (d / "profile.csv").exists()


def test_profile_through_a_degenerate_turning_point_exits_3(tmp_path, capsys):
    # K = 1 - (x - 0.5)^2 reaches 1 with K' = 0 at x = 0.5
    d = str(tmp_path / "st")
    code, _, err = run(["prescribe", "--kind", "km", "--expr", "-2*(x - 0.5)",
                        "--const", "1", "--anchor", "0.5", "--domain", "0:1",
                        "--out", d], capsys)
    assert code == 0, err
    code, _, err = run(["profile", "--out", d, "--start", "0.2", "--smax", "3"], capsys)
    assert code == 3 and "degenerate turning point at x = 0.5" in err, err


# a valid gauss state, one of whose fields the row overrides (the later key wins)
_GAUSS_STATE = '{"source": "prescription", "kind": "gauss", "expr": "x", "domain": [0.1, 1], %s}'


@pytest.mark.parametrize("stage, name, content, words", [
    ("profile", "momentum.json", "{not json", "is not JSON"),
    ("verify", "momentum.json", '{"source": "prescription", "expr": "x"}', "has no 'kind'"),
    ("mesh", "profile.csv", "s,x,z\n0,1,0\n1,1,1\n", "five columns"),
    ("profile", "momentum.json", "[1, 2]", "holds no JSON object"),
    ("verify", "momentum.json",
     '{"source": "prescription", "kind": "kn", "expr": "x", "domain": [1, 2]}',
     "unknown prescription kind 'kn'"),
    ("mesh", None, None, "no profile.csv"),
    ("mesh", "profile.csv", "s,x,z,tx,tz\n0,1,0,one,0\n", "could not convert"),
    ("profile", "momentum.json",
     '{"source": "prescription", "kind": "km", "expr": "0", "const": 2, "domain": [1, 2]}',
     "no admissible interval"),
    ("profile", "momentum.json", _GAUSS_STATE % '"const": "abc"', "'const' must be a number"),
    ("profile", "momentum.json", _GAUSS_STATE % '"domain": 5', "'domain' must be [lo, hi]"),
    ("profile", "momentum.json", _GAUSS_STATE % '"domain": [1]', "'domain' must be [lo, hi]"),
    ("profile", "momentum.json", _GAUSS_STATE % '"domain": [1, "2"]',
     "'domain' must be [lo, hi]"),
    ("profile", "momentum.json", _GAUSS_STATE % '"expr": 5', "'expr' must be a string"),
    ("profile", "momentum.json", _GAUSS_STATE % '"params": [1]',
     "'params' must be an object of numbers"),
    ("profile", "momentum.json", _GAUSS_STATE % '"params": {"a": "q"}',
     "'params' must be an object of numbers"),
    ("profile", "momentum.json", _GAUSS_STATE % '"anchor": "zz"',
     "'anchor' must be a number or null"),
    ("profile", "momentum.json", _GAUSS_STATE % '"sign": "x"', "'sign' must be 1 or -1"),
    ("profile", "momentum.json", '{"source": "catalog", "name": "torus", "params": {"R": "big"}}',
     "'params' must be an object of numbers"),
    ("profile", "momentum.json", '{"source": "catalog", "name": "torus", "params": [1]}',
     "'params' must be an object of numbers"),
    ("mesh", "profile.csv", "s,x,z,tx,tz\n", "no data rows"),
    ("mesh", "profile.csv", "s,x,z,tx,tz\n0,1,0,0,1\n1,nan,1,0,1\n2,1,2,0,1\n",
     "must be finite"),
])
@pytest.mark.filterwarnings("error")  # a refusal prints no NumPy warning
def test_malformed_state_files_exit_2(tmp_path, capsys, stage, name, content, words):
    d = prescribe_catenoid(tmp_path / "st", capsys)
    if name is not None:  # None: the stage finds the file missing
        (d / name).write_text(content)
    code, _, err = run([stage, "--out", str(d)], capsys)
    assert code == 2 and words in err, err


@pytest.mark.parametrize("argv, words", [
    (["classify-mean-inverse", "--mu", "nan"], "mu must be positive"),
    (["catalog", "build", "hopf_kuhnel", "--param", "q=nan"], "finite q"),
    (["catalog", "build", "torus", "--param", "a=nan"], "bad momentum domain"),
    (["catalog", "build", "mean_inverse_profile", "--param", "mu=nan", "--param", "c=-1"],
     "mu must be positive"),
    (["catalog", "build", "catenoid", "--param", "a=inf"], "bad momentum domain"),
    (["prescribe", "--kind", "km", "--expr", "1", "--const", "nan", "--domain", "0:1"],
     "constant must be finite"),
    (["prescribe", "--kind", "mean", "--expr", "1", "--const", "nan", "--domain", "0.1:1"],
     "constant must be finite"),
    (["prescribe", "--kind", "gauss", "--expr", "1", "--const", "inf", "--domain", "0:1"],
     "constant must be finite"),
    (["prescribe", "--kind", "km", "--expr", "x", "--domain", "0:1", "--tol-quad", "0"],
     "quadrature tolerance"),
    (["prescribe", "--kind", "km", "--expr", "x", "--domain", "0:1", "--tol-quad", "-1"],
     "quadrature tolerance"),
    (["prescribe", "--kind", "km", "--expr", "x", "--domain", "0:1", "--tol-quad", "nan"],
     "quadrature tolerance"),
    (["prescribe", "--kind", "km", "--expr", "x", "--domain", "0:1", "--param", "mu"],
     "--param expects name=value"),
    (["prescribe", "--kind", "km", "--expr", "x", "--domain", "0:1", "--param", "mu=one"],
     "'one' is not a number"),
    (["prescribe", "--kind", "km", "--expr", "x", "--domain", "0-1"],
     "--domain expects lo:hi"),
    (["prescribe", "--kind", "km", "--expr", "x", "--domain", "0:one"],
     "--domain bounds must be numbers"),
    (["catalog", "build"], "needs an entry name"),
    (["catalog", "build", "sphere"], "needs --out"),
    # numbers the constructors take but strict JSON cannot hold in a state file
    (["prescribe", "--kind", "kp", "--expr", "a", "--param", "a=nan", "--domain", "0:1"],
     "momentum.json: 'params' must hold finite numbers"),
    (["prescribe", "--kind", "km", "--expr", "exp(x)", "--domain", "0:1", "--anchor=-inf"],
     "momentum.json: 'anchor' must hold finite numbers"),
    # an infinite radius gives the closed profile no finite point: refused
    # by the build before any state file is made
    (["catalog", "build", "cylinder", "--param", "a=inf"],
     "cylinder: the closed form overflows"),
    (["catalog", "build", "elasticoid", "--param", "a=inf"],
     "momentum.json: 'params' must hold finite numbers"),
    (["prescribe", "--kind", "km", "--expr", "exp(x)", "--domain", "0:1", "--anchor=nan"],
     "bad anchor nan"),
    # catalog parameters whose constants or closed profile overflow, or are
    # undefined; each used to end in a traceback or in non-finite rows
    (["catalog", "build", "loopoid", "--param", "eta=800"],
     "loopoid: the closed form overflows"),
    (["catalog", "build", "loopoid", "--param", "eta=1e300"],
     "loopoid: the closed form overflows"),
    (["catalog", "build", "loopoid", "--param", "eta=1e-300"],
     "loopoid: the closed form overflows"),
    (["catalog", "build", "loopoid", "--param", "a=1.7e308"],
     "loopoid: the closed form overflows"),
    (["catalog", "build", "equal_strength", "--param", "a=inf"],
     "equal_strength: the closed form overflows"),
    (["catalog", "build", "mean_inverse_profile", "--param", "mu=1e300", "--param", "c=-1"],
     "mean_inverse_profile: the closed form overflows"),
    (["catalog", "build", "hopf_kuhnel", "--param", "q=1e-320"],
     "hopf_kuhnel: the closed form overflows"),
    (["classify-mean-inverse", "--mu", "inf"], "mu must be finite"),
])
def test_non_finite_inputs_exit_2(tmp_path, capsys, argv, words):
    # every row writes to --out but those of classify-mean-inverse, which
    # takes none, and one that checks that catalog build asks for it
    no_out = argv[0] == "classify-mean-inverse" or "--out" in words
    out = [] if no_out else ["--out", str(tmp_path / "st")]
    code, _, err = run(argv + out, capsys)
    assert code == 2 and words in err, err
    assert not (tmp_path / "st").exists()


@pytest.mark.parametrize("text, literal", [("1e400", "'1e400'"), ("2*1e999*x", "'1e999'")])
def test_an_overflowing_literal_exits_2_naming_it(tmp_path, capsys, text, literal):
    code, _, err = run(["prescribe", "--kind", "kp", "--expr", text, "--domain", "1:3",
                        "--out", str(tmp_path / "st")], capsys)
    assert code == 2 and f"numeric literal {literal} overflows" in err, err
    assert not (tmp_path / "st").exists()


_CHAINS = {  # the stage that writes momentum.json, without --out
    "kp": ["prescribe", "--kind", "kp", "--expr", "1/x^2", "--domain", "1.001:3"],
    "catalog": ["catalog", "build", "torus"],
}


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("stage, flag", [
    ("first", "--tol-quad"), ("profile", "--tol-quad"), ("profile", "--tol-ode"),
    ("verify", "--tol-quad"), ("verify", "--tol-ode"), ("verify", "--tol-verify")])
@pytest.mark.parametrize("chain", sorted(_CHAINS))
def test_every_tolerance_flag_is_checked_by_every_stage(tmp_path, capsys, chain, stage,
                                                        flag, value):
    # a tolerance that is not finite and positive exits 2 before any work,
    # whether or not the stage and the kind go on to use it
    d = tmp_path / "st"
    argv = _CHAINS[chain]
    if stage != "first":
        code, _, err = run([*argv, "--out", str(d)], capsys)
        assert code == 0, err
        argv = [stage]
    before = sorted(tmp_path.rglob("*"))
    code, _, err = run([*argv, "--out", str(d), flag, value], capsys)
    assert code == 2 and f"{flag}, the" in err and "finite and positive" in err, err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("stage", ["profile", "verify"])
def test_catalog_momentum_undefined_on_the_scan_exits_2(tmp_path, capsys, stage):
    # K = 2*mu + c/x at c = 0 is 0/0 at x = 0, where the admissible scan starts
    d = tmp_path / "mi"
    code, _, err = run(["catalog", "build", "mean_inverse_profile", "--param", "mu=0.25",
                        "--param", "c=0", "--out", str(d)], capsys)
    assert code == 0, err
    r = _cli_subprocess([stage, "--out", str(d)])
    assert r.returncode == 2 and "division by zero at x=0.0" in r.stderr, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("name, params", [("loopoid", ["a=1", "eta=1"]),
                                          ("torus", ["a=0.5", "R=1"]),
                                          ("equal_strength", [])],
                         ids=["loopoid", "spindle torus", "left of the axis"])
def test_verify_on_a_domain_across_the_axis(tmp_path, capsys, name, params):
    # the momentum domains (-0.61, 0.93) and (-0.5, 1.5) reach x < 0: the
    # checks keep to the side x > 0 of the axis, without the rings next to
    # one across it; equal_strength's (-5.31, 0) lies wholly on the side x < 0
    # and ends on the axis with K(0) = 1, where K_G = K K'/x diverges: the
    # discrete errors are relative to max(1, |analytic|)
    d = str(tmp_path / name)
    argv = ["catalog", "build", name]
    for p in params:
        argv += ["--param", p]
    code, _, err = run([*argv, "--out", d], capsys)
    assert code == 0, err
    code, _, err = run(["profile", "--out", d, "--samples", "128", "--smax", "3",
                        "--smin", "-3"], capsys)
    assert code == 0, err
    code, out, err = run(["verify", "--out", d, "--grid", "50", "--ntheta", "32"], capsys)
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert checks["mean_roundtrip"] < 1e-8 and checks["gauss_roundtrip"] < 1e-8
    assert checks["discrete_mean"] < 0.2 and checks["discrete_gauss"] < 0.4
    assert checks["momentum_roundtrip"] < 1e-4 and checks["unit_speed"] < 1e-9


@pytest.mark.parametrize("domain", ["0.001:3", "0.01:3", "0.05:3"])
def test_verify_rebuilds_over_the_band_it_traced(tmp_path, capsys, domain):
    # H = 1 anchored on the axis: K = x + 0.12/x, with |K| < 1 only on
    # (0.139, 0.861). Below it x K_G ~ -0.0144/x^3, so a Gauss rebuild over
    # the whole domain needs more than 4096 panels when it reaches x = 0.004
    d = str(tmp_path / "und")
    code, _, err = run(["prescribe", "--kind", "mean", "--expr", "1", "--const", "0.12",
                        "--anchor", "0", "--domain", domain, "--out", d], capsys)
    assert code == 0, err
    code, out, err = run(["verify", "--out", d], capsys)
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert checks["mean_roundtrip"] < 1e-12 and checks["gauss_roundtrip"] < 1e-12


_MATRIX = [e for e in revolve.catalog.list_entries() if e.momentum is not None]


@pytest.mark.parametrize("entry", _MATRIX, ids=[e.name for e in _MATRIX])
def test_catalog_pipeline_matrix(tmp_path, capsys, entry):
    from revolve._records import records
    builder = revolve.catalog._BUILDERS[entry.name]
    argv = ["catalog", "build", entry.name]
    for k, v in entry.params.items():  # derived params (c, theta, delta) are not inputs
        if k in inspect.signature(builder).parameters:
            argv += ["--param", f"{k}={v!r}"]
    outs = []
    for sub in ("a", "b"):
        d = str(tmp_path / sub)
        for stage in ([*argv, "--out", d], ["profile", "--out", d],
                      ["mesh", "--out", d], ["verify", "--out", d, "--tol-verify", "1e-2"]):
            code, _, err = run(stage, capsys)
            assert code == 0, (stage, err)
        outs.append({f: (tmp_path / sub / f).read_bytes()
                     for f in sorted(os.listdir(d))})
    assert outs[0] == outs[1]
    # --tol-verify passes a NaN core residual, so check that it is a number
    checks = json.loads(outs[0]["verify.json"])["checks"]
    assert math.isfinite(checks["momentum_roundtrip"] + checks["unit_speed"]), checks
    closed = entry.closed_profile
    if closed is not None:
        ts = np.linspace(*closed.param_range, 1025)
        want = "t,x,z\n" + records("%.17g,%.17g,%.17g\n", (ts, *closed.point(ts)))
        assert outs[0]["closed_profile.csv"] == want.encode()


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(revolve.__file__)))
    code = ("import sys, revolve; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_start_up_imports_no_fractions_or_decimal():
    # importing fractions pulls in decimal, about 7 ms in every CLI process;
    # the writers build their power-of-ten table without it
    src = os.path.dirname(os.path.dirname(os.path.abspath(revolve.__file__)))
    code = ("import sys, revolve.cli; "
            "from revolve._records import records; "
            "before = {'fractions', 'decimal'} & set(sys.modules); "
            "records('%.17g %d\\n', [[0.1], [3]]); "
            "print(sorted(before), sorted({'fractions', 'decimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"


_FLOW = ["--smax", "1.0", "--smin", "-1.0", "--samples", "64"]

# Every stage of the README chains. A stage that reads state finds it made
# in-process by the named set-up stage.
_STAGES = {
    "mesh": (None, ["mesh", "--ntheta", "8"]),
    "classify-mean-inverse": (None, ["classify-mean-inverse", "--mu", "0.25"]),
    "help": (None, ["--help"]),
    "catalog-list": (None, ["catalog", "list"]),
    "prescribe-kp": (None, ["prescribe", "--kind", "kp", "--expr", "1/x^2",
                            "--domain", "1.001:3", "--anchor", "0"]),
    "prescribe-mean": (None, ["prescribe", "--kind", "mean", "--expr", "1",
                              "--const", "0.12", "--domain", "0.07:0.93", "--anchor", "0"]),
    "prescribe-gauss": (None, ["prescribe", "--kind", "gauss", "--expr", "1/(4*x)",
                               "--domain", "0.001:2", "--anchor", "0"]),
    "catalog-build": (None, ["catalog", "build", "hopf_kuhnel", "--param", "q=2"]),
    "profile": ("prescribe-kp", ["profile", "--start", "1.5", *_FLOW]),
    "verify-q": ("catalog-build", ["verify", "--q", "2", "--grid", "20", *_FLOW]),
    "verify-expr": ("prescribe-kp", ["verify", "--start", "1.5", "--grid", "20",
                                     "--expr-h", "1 - 1/x", "--expr-kg", "1 - 2/x",
                                     "--gamma-h", "-0.4999995", "--c-g", "0.4990005",
                                     *_FLOW]),
}

_MODULES = {info.name for info in pkgutil.iter_modules(revolve.__path__)}
_PRESCRIBE = _MODULES - {"curvature", "reconstruct", "_records", "mesh", "catalog"}
# the src/revolve modules each stage may load: what its subcommand runs
_MAY_LOAD = {
    "mesh": {"cli", "errors", "_records", "mesh"},
    "classify-mean-inverse": _MODULES - {"catalog", "expr", "mesh", "reconstruct", "_records"},
    "help": {"cli", "errors"},
    "catalog-list": _MODULES - {"mesh", "reconstruct"},
    "prescribe-kp": _PRESCRIBE,
    "prescribe-mean": _PRESCRIBE,
    "prescribe-gauss": _PRESCRIBE,
    "catalog-build": _MODULES - {"curvature", "mesh", "reconstruct"},
    "profile": _MODULES - {"mesh", "catalog"},
    "verify-q": _MODULES - {"_records"},
    "verify-expr": _MODULES - {"catalog", "_records"},
}

# `python -m revolve.cli ARGS` that prints, on its last stderr line, every
# module the process holds at exit. -X importtime would miss the modules
# that importlib.import_module loads, as the package's lazy exports do.
_LIST_MODULES = ("import atexit, json, runpy, sys; "
                 "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), "
                 "file=sys.stderr)); "
                 "runpy.run_module('revolve.cli', run_name='__main__', alter_sys=True)")


@pytest.mark.parametrize("stage", list(_STAGES))
def test_cli_commands_without_quadrature_load_no_scipy(tmp_path, capsys, stage):
    # every stage, quadrature and flow included, runs without SciPy and
    # loads only the src/revolve modules its subcommand runs
    state, argv = _STAGES[stage]
    if stage == "mesh":
        # a stored quarter circle: the mesh stage reads it
        t = np.linspace(0.0, 0.5 * math.pi, 9)
        p = revolve.Profile(s=t, x=np.cos(t) + 1.0, z=np.sin(t), tx=-np.sin(t), tz=np.cos(t))
        (tmp_path / "profile.csv").write_text(revolve.profile_to_csv(p))
    if state is not None:
        assert run([*_STAGES[state][1], "--out", str(tmp_path)], capsys)[0] == 0
    if stage not in ("classify-mean-inverse", "help", "catalog-list"):
        argv = [*argv, "--out", str(tmp_path)]
    proc = _cli_subprocess(argv, ("-c", _LIST_MODULES))
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stderr.splitlines()[-1])
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]
    # run as __main__, the cli module is not revolve.cli
    ours = {m.split(".", 1)[1] for m in loaded if m.startswith("revolve.")} | {"cli"}
    assert "revolve" in loaded
    assert ours <= _MAY_LOAD[stage], f"{stage} loads {sorted(ours - _MAY_LOAD[stage])}"


def test_surface_run_loads_no_scipy():
    # the library path of a surface: momentum from a Python callable, flow,
    # mesh, discrete curvature and topology
    src = os.path.dirname(os.path.dirname(os.path.abspath(revolve.__file__)))
    code = """if True:
        import math, sys
        import revolve as rv
        cases = [(rv.momentum_from_kp(lambda x: 1.0, (0.0, 1.0)), dict(start_x=0.0, s_max=4.0)),
                 (rv.momentum_from_mean(lambda x: 1.0, 0.12, (0.07, 0.93), anchor=0.0),
                  dict(start_x=0.5, s_max=5.0)),
                 (rv.momentum_from_kp(lambda x: 1.0 / x ** 2, (1.0, 3.0)),
                  dict(start_x=3.0, direction=-1, s_max=6.0))]
        loops = []
        for m, flow in cases:
            mesh = rv.revolve(rv.integrate_profile(m, samples_per_branch=32, **flow), n_theta=16)
            rv.discrete_mesh_curvature(mesh)
            loops.append((mesh.euler_characteristic(), mesh.boundary_loops()))
        print(loops, [m for m in sys.modules if m.split('.')[0] == 'scipy'])
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[(2, 0), (0, 2), (0, 2)] []"
