import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import revolve
from revolve.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _cli_subprocess(argv, python_opts=()):
    src = os.path.dirname(os.path.dirname(os.path.abspath(revolve.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    # a timeout, so that a check that stops working cannot hang the suite
    return subprocess.run([sys.executable, *python_opts, "-m", "revolve.cli", *argv],
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
    assert len(blob) > 84

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
    xs, zs = closed.sample(ts)
    want = "t,x,z\n" + "".join(f"{t:.17g},{x:.17g},{z:.17g}\n"
                               for t, x, z in zip(ts, xs, zs))
    assert (d / "closed_profile.csv").read_bytes() == want.encode()

    # the stored state drives the pipeline
    code, _, err = run(["profile", "--out", str(d), "--smax", "1.2"], capsys)
    assert code == 0, err

    code, _, _ = run(["catalog", "build", "nonsense", "--out", str(d)], capsys)
    assert code == 2


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
])
def test_non_finite_inputs_exit_2(tmp_path, capsys, argv, words):
    # every row but two writes to --out: classify-mean-inverse takes none,
    # and one row checks that catalog build asks for it
    no_out = argv[0] == "classify-mean-inverse" or "--out" in words
    out = [] if no_out else ["--out", str(tmp_path / "st")]
    code, _, err = run(argv + out, capsys)
    assert code == 2 and words in err, err
    assert not (tmp_path / "st").exists()


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


@pytest.mark.parametrize("stage", list(_STAGES))
def test_cli_commands_without_quadrature_load_no_scipy(tmp_path, capsys, stage):
    # every stage, quadrature and flow included, runs without SciPy
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
    # -X importtime lists every module the process imports on stderr
    proc = _cli_subprocess(argv, ["-X", "importtime"])
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "revolve.mesh" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


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
