"""Config loading and the command line front end, run in process (the
warning-format checks and the dying-worker check run in a subprocess)."""

import csv
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import vectorhost
from vectorhost import (BoundarySpec, ConfigError, DomainError, build_grid, cli,
                        evaluate, load_config, map_between)
from vectorhost.cli import _node_csv, main

BASE = """\
[domain]
x_left = 0.0
x_right = 1.0
T = 1.0

[grid]
nx = 31
steps_per_period = 128

[coefficients]
rho = 1
sigma1 = 1
sigma2 = 1
beta = 2
mu1 = 1
mu2 = 1
d1 = 1
d2 = 1
H_u = 5
"""

# the README's example: seasonal beta, slower vectors
README = (BASE.replace("beta = 2\n", "beta = 2 + sin(2*pi*t)\n")
          .replace("d2 = 1\n", "d2 = 0.5\n"))


def write_config(tmp_path, extra="", name="run.ini"):
    path = tmp_path / name
    path.write_text(BASE + extra)
    return str(path)


def read_report(path):
    out = {}
    for line in open(path).read().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


# ─────────────────────────────────────────────────────────────── config ──


def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.grid.nx == 31 and cfg.grid.steps_per_period == 128
    # absent bc sections mean no-flux, stored as zero-weight robin
    assert cfg.bc1.flavor == "robin" and cfg.bc1.b_left == 0.0
    assert cfg.bc2.flavor == "robin" and cfg.bc2.b_right == 0.0
    assert cfg.solver.eigen_tol == 1e-10
    assert cfg.solver.band == 1e-3
    assert cfg.solver.eps == 0.0
    assert cfg.solver.n_periods == 40
    assert cfg.sweep is None
    got = [evaluate(e, 0.3, 0.0) for e in cfg.run.initial]
    assert got == [1.0, 0.5, 0.1]


def test_full_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path, """
[bc1]
flavor = dirichlet

[bc2]
flavor = robin
b_left = 0.5
b_right = 0.5 + 0.5*cos(2*pi*t)

[solver]
eigen_tol = 1e-9
eps = 0.05

[run]
n_periods = 12
sample_stride = 16
t_offset = 0.25
initial_V_i = 0.2 + 0.1*x

[sweep]
parameter = H_u
template = value
values = 0.5 1, 2,5
"""))
    assert cfg.bc1.flavor == "dirichlet"
    assert cfg.bc2.flavor == "robin"
    # the weights live on the boundary operator, the one copy that both the
    # solver and validation read
    assert evaluate(cfg.bc2.b_left, 0.0, 0.0) == 0.5
    assert evaluate(cfg.bc2.b_right, 1.0, 0.0) == 1.0
    assert cfg.solver.eps == 0.05
    assert cfg.solver.n_periods == 12
    assert cfg.run.t_offset == 0.25
    assert evaluate(cfg.run.initial[2], 1.0, 0.0) == pytest.approx(0.3)
    assert cfg.sweep.parameter == "H_u"
    assert cfg.sweep.values == (0.5, 1.0, 2.0, 5.0)


def test_overrides_apply_before_validation(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path, overrides=["coefficients.beta=3", "grid.nx=15"])
    assert cfg.grid.nx == 15
    assert evaluate(cfg.coeffs.beta, 0.0, 0.0) == 3.0
    with pytest.raises(ConfigError):
        load_config(path, overrides=["nowhere.key=1"])
    with pytest.raises(ConfigError):
        load_config(path, overrides=["grid.bogus=1"])
    with pytest.raises(ConfigError):
        load_config(path, overrides=["grid nx 15"])  # no dot or equals


@pytest.mark.parametrize("extra", [
    "[grid2]\nnx = 5\n",                       # unknown section
    "[solver]\neps = -0.5\n",                  # negative band width
    "[run]\nsample_stride = 7\n",              # does not divide 128
    "[sweep]\nparameter = nu\ntemplate = value\nvalues = 1\n",
    "[sweep]\nparameter = beta\ntemplate = value\nvalues =\n",
    "[solver]\nband = nan\n",                 # non-finite numbers
    "[solver]\norbit_tol = inf\n",
    "[solver]\neigen_tol = nan\n",
    "[solver]\neps = nan\n",
    "[solver]\neps = inf\n",
    "[run]\ntarget = inf\n",
    "[sweep]\nparameter = H_u\ntemplate = value\nvalues = nan 5\n",
    "[sweep]\nparameter = H_u\ntemplate = value\nvalues = inf\n",
])
def test_config_rejections(tmp_path, extra):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, extra))


@pytest.mark.parametrize("override, error", [
    ("domain.x_left=-inf", DomainError),
    ("domain.x_right=inf", DomainError),
    ("run.t_offset=inf", ConfigError),
])
def test_non_finite_domain_values_exit_one(tmp_path, capsys, override, error):
    path = write_config(tmp_path)
    with pytest.raises(error, match="inf"):
        load_config(path, overrides=[override])
    assert main(["classify", "--config", path, "--out", str(tmp_path / "o"),
                 "--override", override]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err or "need finite" in captured.err
    assert "inf" in captured.err


def test_default_sample_stride_gates_only_the_trajectory_subcommands(tmp_path, capsys):
    # the default stride 8 does not divide 100 steps per period: the
    # subcommands that keep no trajectory run, simulate and verify refuse
    # before any solve, and a stride the config sets is still checked on load
    path = write_config(tmp_path, "[sweep]\nparameter = H_u\ntemplate = value\nvalues = 5\n")
    m100 = ["--override", "grid.steps_per_period=100", "--override", "grid.nx=15"]
    for cmd in ("validate", "eigen", "periodic", "classify", "sweep"):
        assert main([cmd, "--config", path, "--out", str(tmp_path / cmd)] + m100) == 0
    capsys.readouterr()
    for cmd in ("simulate", "verify"):
        assert main([cmd, "--config", path, "--out", str(tmp_path / cmd)] + m100) == 1
        assert capsys.readouterr().err == ("config error: sample_stride must divide "
                                           "steps_per_period (8 vs 100)\n")
        assert not (tmp_path / cmd).exists()
    with pytest.raises(ConfigError, match=r"^sample_stride must divide steps_per_period \(8 vs 100\)$"):
        load_config(path, ["grid.steps_per_period=100", "run.sample_stride=8"])


def test_over_deep_expressions_are_config_errors(tmp_path, capsys):
    for expr in (" + ".join(["0.001"] * 1500), "(" * 300 + "1" + ")" * 300):
        assert main(["classify", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "o"),
                     "--override", f"coefficients.rho={expr}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: expression nests deeper than 150 levels")
        assert err.count("\n") == 1


def test_config_bad_number_and_missing_file(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(BASE.replace("nx = 31", "nx = banana"))
    with pytest.raises(ConfigError):
        load_config(str(path))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.ini"))


# ──────────────────────────────────────────────────────────── exit codes ──


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["classify"]) == 1                      # --config is required
    assert main(["frobnicate", "--config", "x"]) == 1   # unknown subcommand
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_config_error_exits_one(tmp_path, capsys):
    missing = str(tmp_path / "none.ini")
    assert main(["classify", "--config", missing,
                 "--out", str(tmp_path / "o")]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text(BASE.replace("nx = 31", "nx = banana"))
    assert main(["classify", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()
    taken = tmp_path / "taken"          # --out names a file
    taken.write_text("")
    assert main(["validate", "--config", write_config(tmp_path),
                 "--out", str(taken)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: cannot create output directory {taken}: File exists\n"


def test_validate_pass_and_hypothesis_failure(tmp_path, capsys):
    path = write_config(tmp_path)
    out = str(tmp_path / "ok")
    assert main(["validate", "--config", path, "--out", out]) == 0
    rep = read_report(os.path.join(out, "validation.txt"))
    assert rep["status"] == "PASS" and rep["violations"] == "0"

    out2 = str(tmp_path / "bad")
    code = main(["validate", "--config", path, "--out", out2,
                 "--override", "coefficients.rho=-1"])
    assert code == 3
    rep = read_report(os.path.join(out2, "validation.txt"))
    assert rep["status"] == "FAIL"
    assert rep["violation_1"].startswith("rho:")
    capsys.readouterr()


def test_no_flux_boundary_ignores_stray_weights(tmp_path, capsys):
    # only a robin boundary reads b_left/b_right, so only there are they
    # part of the standing hypothesis
    stray = "\n[bc1]\nflavor = neumann\nb_left = -1\n"
    path = write_config(tmp_path, stray)
    assert main(["validate", "--config", path, "--out", str(tmp_path / "a")]) == 0
    path = write_config(tmp_path, stray.replace("neumann", "robin"), "robin.ini")
    assert main(["validate", "--config", path, "--out", str(tmp_path / "b")]) == 3
    rep = read_report(str(tmp_path / "b" / "validation.txt"))
    assert rep["violation_1"].startswith("robin_b1_left: must be nonnegative")
    capsys.readouterr()


def test_nonconvergence_exits_two(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["eigen", "--config", path, "--out", str(tmp_path / "o"),
                 "--override", "solver.max_eigen_iters=1"])
    assert code == 2
    capsys.readouterr()


def test_singular_crank_nicolson_factor_exits_two(tmp_path, capsys):
    # net vector growth beta - mu1 = 128 = 2/dt makes I - dt/2 A singular
    path = write_config(tmp_path)
    code = main(["eigen", "--config", path, "--out", str(tmp_path / "o"),
                 "--override", "grid.steps_per_period=64",
                 "--override", "coefficients.beta=129"])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure:" in err and "level 0" in err


# ───────────────────────────────────────────────────────────── commands ──


def test_classify_endemic_report_and_attractor(tmp_path, capsys):
    path = write_config(tmp_path)
    out = str(tmp_path / "o")
    assert main(["classify", "--config", path, "--out", out]) == 0
    rep = read_report(os.path.join(out, "classify_report.txt"))
    assert rep["regime"] == "ENDEMIC"
    assert float(rep["zeta"]) == pytest.approx(-1.0, abs=1e-4)
    assert float(rep["lambda_V"]) == pytest.approx(-0.7912878, abs=1e-4)
    # 17 significant digits, byte-stable under reformat
    assert "%.17g" % float(rep["zeta"]) == rep["zeta"]

    data = open(os.path.join(out, "attractor.csv"), "rb").read()
    assert b"\r" not in data
    lines = data.decode().splitlines()
    assert lines[0] == "x,t,H_i,V_u,V_i"
    assert len(lines) == 1 + 33 * 129      # full nodes x (m + 1) time levels
    capsys.readouterr()


def test_classify_override_and_strict_indeterminate(tmp_path, capsys):
    path = write_config(tmp_path)
    out = str(tmp_path / "df")
    assert main(["classify", "--config", path, "--out", out,
                 "--override", "coefficients.H_u=1"]) == 0
    assert read_report(os.path.join(out, "classify_report.txt"))["regime"] \
        == "DISEASE_FREE"

    out2 = str(tmp_path / "ind")
    args = ["classify", "--config", path, "--out", out2,
            "--override", "coefficients.H_u=2"]
    assert main(args) == 0                   # informative without --strict
    assert main(args + ["--strict"]) == 4
    rep = read_report(os.path.join(out2, "classify_report.txt"))
    assert rep["regime"] == "INDETERMINATE"
    assert rep["attractor"].startswith("undecided")
    capsys.readouterr()


def test_eigen_halves_an_oversized_band(tmp_path, capsys):
    # at eps = 2 the band leaves the positive cone; eigen halves it as the
    # endemic pair does and reports the width it used
    path = tmp_path / "readme.ini"
    path.write_text(README)
    outs = {}
    for eps in ("2", "1"):
        out = tmp_path / f"eps{eps}"
        assert main(["eigen", "--config", str(path), "--out", str(out),
                     "--override", f"solver.eps={eps}"]) == 0
        outs[eps] = [(out / name).read_bytes()
                     for name in ("eigen_report.txt", "eigen_history.csv")]
    assert outs["2"] == outs["1"]
    rep = read_report(str(tmp_path / "eps2" / "eigen_report.txt"))
    assert rep["eps"] == "1"
    assert rep["lambda_V_eps"] == "-1.9755191564402268"
    capsys.readouterr()


def test_eigen_reports_all_values(tmp_path, capsys):
    path = write_config(tmp_path, "[solver]\neps = 0.05\n")
    out = str(tmp_path / "o")
    assert main(["eigen", "--config", path, "--out", out]) == 0
    rep = read_report(os.path.join(out, "eigen_report.txt"))
    assert float(rep["zeta"]) == pytest.approx(-1.0, abs=1e-4)
    assert float(rep["gamma_rho"]) == pytest.approx(1.0, abs=1e-4)
    assert float(rep["lambda_V"]) == pytest.approx(-0.7912878, abs=1e-4)
    assert "lambda_V_eps" in rep
    hist = open(os.path.join(out, "eigen_history.csv")).read().splitlines()
    assert hist[0] == "name,iteration,r_estimate"
    names = {line.split(",")[0] for line in hist[1:]}
    assert names == {"zeta", "gamma_rho", "lambda_V", "lambda_V_eps"}
    assert os.path.exists(os.path.join(out, "phi_zeta.csv"))
    capsys.readouterr()


def test_periodic_present_then_absent(tmp_path, capsys):
    path = write_config(tmp_path)
    out = str(tmp_path / "endemic")
    assert main(["periodic", "--config", path, "--out", out]) == 0
    rep = read_report(os.path.join(out, "periodic_report.txt"))
    assert rep["endemic_status"] == "PRESENT"
    assert float(rep["eps_used"]) == 0.0
    assert float(rep["endemic_gap"]) <= 1e-7
    for name in ("V_orbit.csv", "Hbar.csv", "endemic_orbit.csv"):
        assert os.path.exists(os.path.join(out, name))

    out2 = str(tmp_path / "df")
    assert main(["periodic", "--config", path, "--out", out2,
                 "--override", "coefficients.H_u=1"]) == 0
    rep = read_report(os.path.join(out2, "periodic_report.txt"))
    assert rep["endemic_status"] == "ABSENT"
    assert not os.path.exists(os.path.join(out2, "endemic_orbit.csv"))
    capsys.readouterr()


def test_periodic_solves_the_host_profile_once(tmp_path, capsys, monkeypatch):
    # cmd_periodic hands its host profile to the endemic pair, so at eps = 0
    # one gamma_rho guard and one host iteration (23 maps, 1 stored) run
    from vectorhost import periodic
    calls = {"gamma_rho": 0, "linear": 0}
    real_gamma, real_map = periodic.gamma_rho, periodic.integrate_over_period

    def gamma(*args, **kwargs):
        calls["gamma_rho"] += 1
        return real_gamma(*args, **kwargs)

    def period_map(system, *args, **kwargs):
        if isinstance(system, vectorhost.LinearPeriodicSystem):
            calls["linear"] += 1
        return real_map(system, *args, **kwargs)

    monkeypatch.setattr(periodic, "gamma_rho", gamma)
    monkeypatch.setattr(periodic, "integrate_over_period", period_map)
    path = tmp_path / "readme.ini"
    path.write_text(README)
    out = str(tmp_path / "o")
    assert main(["periodic", "--config", str(path), "--out", out]) == 0
    assert read_report(os.path.join(out, "periodic_report.txt"))["endemic_status"] \
        == "PRESENT"
    assert calls == {"gamma_rho": 1, "linear": 24}
    capsys.readouterr()


@pytest.mark.parametrize("command", ["classify", "periodic"])
def test_blowup_cap_reaches_the_orbit_solvers(tmp_path, capsys, command):
    # the README carrying orbit peaks at 1.159, so a cap of 0.5 must stop
    # the orbit solvers as it stops simulate and verify
    path = tmp_path / "readme.ini"
    path.write_text(README)
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o"),
                 "--override", "solver.blowup_cap=0.5"])
    assert code == 2
    assert capsys.readouterr().err == \
        "numerical failure: state exceeded blow-up cap 0.5\n"


def test_simulate_blowup_names_the_explicit_infection_step(tmp_path, capsys):
    # README at H_u = 300: the trajectory loses positivity and passes the
    # cap; the error names max dt*sigma2*H_i on the last state within it
    path = tmp_path / "readme.ini"
    path.write_text(README)
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--override", "coefficients.H_u=300"])
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: state exceeded blow-up cap 1e+12; max dt*sigma2*H_i = 1.969 "
        ">= 1 makes the explicit infection step non-monotone (steps_per_period >= 253 "
        "brings it below 1)\n")


def test_simulate_is_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, "[run]\nn_periods = 6\nsample_stride = 16\n")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", path, "--out", out_a,
                 "--seed", "7"]) == 0
    assert main(["simulate", "--config", path, "--out", out_b,
                 "--seed", "7"]) == 0
    data_a = open(os.path.join(out_a, "trajectory.csv"), "rb").read()
    data_b = open(os.path.join(out_b, "trajectory.csv"), "rb").read()
    assert data_a == data_b
    lines = data_a.decode().splitlines()
    assert lines[0] == "x,t,H_i,V_u,V_i"
    assert len(lines) == 1 + (6 * 8 + 1) * 33
    capsys.readouterr()


def reference_node_csv(path, grid, named, times=None):
    """The node table written as csv.writer rows: the reference _node_csv
    must match byte for byte."""
    times = np.arange(grid.steps_per_period + 1) * grid.dt if times is None else times
    padded = [map_between(values, bc, BoundarySpec.neumann(bc.group))
              for _, values, bc in named]
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["x", "t"] + [name for name, _, _ in named])
        for k, t in enumerate(times):
            for i, x in enumerate(grid.full_nodes()):
                w.writerow(["%.17g" % x, "%.17g" % t] + ["%.17g" % p[k, i] for p in padded])


def test_node_table_writer_matches_the_csv_writer_rows(tmp_path):
    g = build_grid(-0.5, 1.0, 7, 2.0, 8)
    host, vector = BoundarySpec.dirichlet(1), BoundarySpec.robin(2, 0.5, 1.5)
    rng = np.random.default_rng(3)
    # an orbit on the m+1 levels: the Dirichlet host is padded with zeros
    orbit = [("H_i", rng.uniform(0.0, 2.0, (9, 7)), host),
             ("V", rng.uniform(0.0, 2.0, (9, 9)), vector)]
    # trajectory times and values that print as 0, 1 and with exponents
    times = np.array([0.0, 0.25, 1.0, 40.0, 1e-7])
    edge = np.array([0.0, -0.0, 1.0, 1e-300, 5e-324, 1e21, -3.5e-5, np.inf, np.nan])
    trajectory = [("V_u", np.resize(edge, (5, 9)), vector),
                  ("V_i", rng.normal(size=(5, 9)) * 10.0 ** rng.integers(-20, 20, (5, 9)),
                   vector)]
    for named, kw in ((orbit, {}), (trajectory, {"times": times})):
        _node_csv(str(tmp_path / "a.csv"), g, named, **kw)
        reference_node_csv(str(tmp_path / "b.csv"), g, named, **kw)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_verify_reaches_target(tmp_path, capsys):
    path = write_config(tmp_path)
    out = str(tmp_path / "o")
    assert main(["verify", "--config", path, "--out", out]) == 0
    rep = read_report(os.path.join(out, "verify_report.txt"))
    assert rep["verdict"] == "PASS"
    assert float(rep["final_error"]) <= 1e-3
    conv = open(os.path.join(out, "convergence.csv")).read().splitlines()
    assert conv[0] == "n,e_n"
    assert len(conv) == 1 + 40
    capsys.readouterr()


def test_verify_with_a_band_measures_against_the_orbit(tmp_path, capsys):
    # with eps > 0 classify's attractor is the band envelope; verify still
    # measures the README run against the endemic orbit it reaches
    path = tmp_path / "readme.ini"
    path.write_text(README)
    out_0, out_eps = str(tmp_path / "e0"), str(tmp_path / "e5")
    assert main(["verify", "--config", str(path), "--out", out_0]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", str(path), "--out", out_eps,
                 "--override", "solver.eps=0.05"]) == 0
    assert capsys.readouterr().out == \
        "regime=ENDEMIC verdict=PASS final_error=6.20155e-09\n"
    conv = [open(os.path.join(out, "convergence.csv"), "rb").read()
            for out in (out_0, out_eps)]
    assert conv[0] == conv[1]


def run_module(*argv, timeout=300):
    """`python ARGV` in a fresh interpreter that imports this package, so
    warnings reach the real stderr."""
    src = os.path.dirname(os.path.dirname(vectorhost.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)


# the 23/64 Dirichlet host, where gamma_rho warns from one source line
WARNING_GRID = ("--override", "grid.nx=23", "--override", "grid.steps_per_period=64",
                "--override", "bc1.flavor=dirichlet")


def test_cli_warning_is_one_line_without_source_location(tmp_path):
    # stderr must read the same from any checkout, so no file name or
    # source line
    path = tmp_path / "readme.ini"
    path.write_text(README)
    p = run_module("-m", "vectorhost", "eigen", "--config", str(path),
                   "--out", str(tmp_path / "o"), *WARNING_GRID)
    assert p.returncode == 0, p.stderr
    assert ".py:" not in p.stderr
    lines = p.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "ReducibleSystemWarning: period-map eigenfunction changes sign")


def test_sweep_warning_prints_once_across_worker_processes(tmp_path):
    # every row's gamma_rho raises the same warning; in-process the
    # once-per-line registry prints it once, and so must the rows that run
    # in worker processes (on a host with two or more usable CPUs)
    path = tmp_path / "readme.ini"
    path.write_text(README)
    p = run_module("-m", "vectorhost", "sweep", "--config", str(path),
                   "--out", str(tmp_path / "o"), *WARNING_GRID,
                   "--override", "sweep.parameter=H_u",
                   "--override", "sweep.template=value",
                   "--override", "sweep.values=20 50 100 200")
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines() == ["H_u<-20: DISEASE_FREE", "H_u<-50: ENDEMIC",
                                     "H_u<-100: ENDEMIC", "H_u<-200: ENDEMIC"]
    lines = p.stderr.splitlines()
    assert len(lines) == 1, p.stderr
    assert lines[0].startswith(
        "ReducibleSystemWarning: period-map eigenfunction changes sign")


def sweep_run(monkeypatch, capsys, cpus, path, out, *overrides):
    """main's sweep with `cpus` usable CPUs (one runs the rows in-process,
    more in worker processes): exit code, stdout, stderr and both files."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    argv = ["sweep", "--config", path, "--out", str(out)]
    for o in overrides:
        argv += ["--override", o]
    rc = main(argv)
    std = capsys.readouterr()
    files = [(out / name).read_text() for name in ("sweep.csv", "sweep_report.txt")]
    return rc, std.out, std.err, files


def test_sweep_crossing_order_and_errors(tmp_path, capsys, monkeypatch):
    path = tmp_path / "readme.ini"
    path.write_text(README + "\n[sweep]\nparameter = H_u\ntemplate = value\n"
                    "values = 0.5 1 2 5\n")
    cases = [(), ("sweep.values=-1 5",), ("sweep.values=-1",)]
    runs = {cpus: [sweep_run(monkeypatch, capsys, cpus, str(path),
                             tmp_path / f"c{cpus}-{k}", *case)
                   for k, case in enumerate(cases)]
            for cpus in (2, 1)}
    # worker processes and the in-process loop write the same bytes
    assert runs[2] == runs[1]
    (rc, stdout, _, (table, report)), mixed, allbad = runs[2]

    assert rc == 0
    lines = table.splitlines()
    assert lines[0] == "value,zeta,lambda_V,regime"
    regimes = [line.split(",")[3] for line in lines[1:]]
    assert regimes == ["DISEASE_FREE", "DISEASE_FREE", "INDETERMINATE", "ENDEMIC"]
    values = [float(line.split(",")[0]) for line in lines[1:]]
    assert values == [0.5, 1.0, 2.0, 5.0]        # input order, not completion order
    assert stdout.splitlines() == [f"H_u<-{v:g}: {r}" for v, r in zip(values, regimes)]
    rep = dict(line.split("=") for line in report.splitlines())
    assert rep["rows"] == "4" and rep["succeeded"] == "4"

    # a bad row is reported in place and does not abort the sweep
    assert mixed[0] == 0
    assert [line.split(",")[3] for line in mixed[3][0].splitlines()[1:]] == \
        ["ERROR", "ENDEMIC"]

    # all rows failing is a numerical failure
    assert allbad[0] == 2

    # sweep without a [sweep] section is a config error
    assert main(["sweep", "--config", write_config(tmp_path, name="plain.ini"),
                 "--out", str(tmp_path / "o4")]) == 1
    capsys.readouterr()


def test_sweep_workers_end_with_the_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = write_config(tmp_path, "\n[sweep]\nparameter = H_u\ntemplate = value\n"
                                  "values = 0.5 5\n")
    argv = ["sweep", "--config", path, "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert multiprocessing.active_children() == []
    assert main(argv + ["--override", "sweep.values=-1 -2"]) == 2   # every row ERROR
    assert multiprocessing.active_children() == []

    def fail(*args):
        raise RuntimeError("row failed")

    monkeypatch.setattr(cli, "classify_regime", fail)   # the forked workers inherit it
    with pytest.raises(RuntimeError, match="row failed"):
        main(argv)
    assert multiprocessing.active_children() == []
    capsys.readouterr()

    # a worker that dies breaks the pool instead of hanging it
    code = ("import multiprocessing, os, sys\n"
            "from vectorhost import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "cli.classify_regime = lambda *args: os._exit(1)\n"
            "try:\n"
            "    cli.main(sys.argv[1:])\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, len(multiprocessing.active_children()))\n")
    p = run_module("-c", code, *argv, timeout=120)
    assert p.stdout == "BrokenProcessPool 0\n", p.stderr
