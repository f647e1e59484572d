"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

Run with -v to get one pass/fail line per criterion.  Everything here fits
on a desk machine: nx <= 128, steps per period <= 512, and no test should
take more than a minute.
"""

import subprocess
import sys

import numpy as np
import pytest

from vectorhost import (BoundarySpec, ComponentSpec, LinearPeriodicSystem,
                        NonlinearModel, apply_period_map, build_grid,
                        build_initial_state, field_values,
                        gamma_rho, integrate_trajectory, lambda_V,
                        parse_expression, solve_logistic_orbit,
                        verify_trichotomy, zeta)
from conftest import make_constants, order_preservation_margin
from test_cli import BASE

NEU1 = BoundarySpec.neumann(1)
NEU2 = BoundarySpec.neumann(2)

# principal eigenvalues of the 2x2 constant-coefficient invasion matrices
LAMBDA_ENDEMIC = (3.0 - np.sqrt(21.0)) / 2.0       # H_u = 5, V = 1
LAMBDA_DISEASE_FREE = (3.0 - np.sqrt(5.0)) / 2.0   # H_u = 1, V = 1


def scalar_system(net_growth, d, bc, grid):
    return LinearPeriodicSystem(
        grid=grid, comps=(ComponentSpec(d=d, bc=bc),),
        coupling=((parse_expression(net_growth),),))


def invasion_system(c, bcs, grid, V):
    # the linearisation about (Hbar, V, 0): host removal rho with source
    # sigma1*H_u, vector infection sigma2*V with decay mu1 + mu2*V, each
    # coupling an (m, n) array over the solver levels of its row's layout
    ts = grid.level_times()

    def lat(f, bc):
        return np.stack([field_values(f, grid.nodes_for(bc), t) for t in ts])

    bc1, bc2 = bcs
    Vl = np.stack([V.level(0, k) for k in range(len(ts))])
    return LinearPeriodicSystem(
        grid=grid,
        comps=(ComponentSpec(d=c.d1, bc=bc1), ComponentSpec(d=c.d2, bc=bc2)),
        coupling=((-lat(c.rho, bc1), lat(c.sigma1, bc1) * lat(c.H_u, bc1)),
                  (lat(c.sigma2, bc2) * Vl, -(lat(c.mu1, bc2) + lat(c.mu2, bc2) * Vl))))


def period_map_residual(system, res):
    """Sup distance between the period map applied to phi(., 0) and
    multiplier * phi(., 0), recomputed from scratch."""
    phi = res.eigenfunction
    phi0 = tuple(phi.level(k, 0) for k in range(phi.ncomp))
    mapped = apply_period_map(system, phi0)
    return max(float(np.max(np.abs(m - res.multiplier * p)))
               for m, p in zip(mapped, phi0))


@pytest.fixture(scope="module")
def eigen_suite():
    """Every eigen solve the gate relies on, with its operator kept beside
    the result so the period-map residual can be re-applied independently."""
    cases = []
    fine = build_grid(0.0, 1.0, 15, 1.0, 512)

    c_const = make_constants(beta="1", mu1="2")
    zc = zeta(c_const, NEU2, fine)
    cases.append(("zeta constants",
                  scalar_system("1 - 2", c_const.d2, NEU2, fine), zc))

    c_half = make_constants(rho="0.5")
    gr = gamma_rho(c_half, NEU1, fine)
    cases.append(("gamma rho",
                  scalar_system("0 - 0.5", c_half.d1, NEU1, fine), gr))

    c_seas = make_constants(beta="1 + sin(2*pi*t)", mu1="2")
    zs = zeta(c_seas, NEU2, fine)
    cases.append(("zeta seasonal",
                  scalar_system("1 + sin(2*pi*t) - 2", c_seas.d2, NEU2, fine),
                  zs))

    c_dir = make_constants(beta="0.5", mu1="1")
    dirichlet = {}
    for nx in (32, 64, 128):
        g = build_grid(0.0, np.pi, nx, 1.0, 256)
        bc = BoundarySpec.dirichlet(2)
        r = zeta(c_dir, bc, g)
        dirichlet[nx] = r
        cases.append((f"zeta dirichlet nx={nx}",
                      scalar_system("0.5 - 1", c_dir.d2, bc, g), r))

    g256 = build_grid(0.0, 1.0, 15, 1.0, 256)
    lam = {}
    for name, hu in (("endemic", "5"), ("disease_free", "1")):
        c = make_constants(H_u=hu)
        lr = solve_logistic_orbit(c, NEU2, g256)
        r = lambda_V(c, (NEU1, NEU2), g256, lr.orbit)
        lam[name] = r
        cases.append((f"lambda_V {name}",
                      invasion_system(c, (NEU1, NEU2), g256, lr.orbit), r))

    return {"cases": cases, "zeta_const": zc, "gamma": gr, "zeta_seasonal": zs,
            "dirichlet": dirichlet, "lambda": lam}


@pytest.fixture(scope="module")
def endemic_traj40(endemic_c, neumann_bcs, grid31):
    model = NonlinearModel(kind="full", c=endemic_c, bc1=neumann_bcs[0],
                           bc2=neumann_bcs[1], grid=grid31)
    u0 = build_initial_state(grid31, *neumann_bcs, (1.0, 0.5, 0.1))
    return integrate_trajectory(model, u0, 40, sample_stride=8)


# ──────────────────────────────────────────────────────────── criteria ──


def test_criterion_01_growth_threshold_constant_and_seasonal(eigen_suite):
    # zeta(mu1=2, beta=1) = 1 and gamma(rho=0.5) = 0.5 exactly; the
    # seasonal beta averages out to the same threshold
    assert abs(eigen_suite["zeta_const"].value - 1.0) <= 1e-6
    assert abs(eigen_suite["gamma"].value - 0.5) <= 1e-6
    assert abs(eigen_suite["zeta_seasonal"].value - 1.0) <= 1e-4


def test_criterion_02_dirichlet_threshold_second_order_in_space(eigen_suite):
    # on (0, pi) with d2 = 1 the exact value is mu1 - beta + 1 = 1.5
    errs = {nx: abs(r.value - 1.5)
            for nx, r in eigen_suite["dirichlet"].items()}
    assert 3.2 <= errs[32] / errs[64] <= 4.8
    assert errs[128] <= 1e-3


def test_criterion_03_invasion_eigenvalue_closed_forms(eigen_suite):
    lam = eigen_suite["lambda"]
    assert abs(lam["endemic"].value - LAMBDA_ENDEMIC) <= 1e-4
    assert abs(lam["disease_free"].value - LAMBDA_DISEASE_FREE) <= 1e-4


def test_criterion_04_eigen_residual_bounds(eigen_suite, endemic_report,
                                            disease_free_report,
                                            extinction_report):
    for label, system, res in eigen_suite["cases"]:
        assert res.eigenfunction.residual <= 1e-8, label
        assert period_map_residual(system, res) <= 1e-7, label
    # eigen results embedded in the regime reports obey the same bound
    for rep in (endemic_report, disease_free_report, extinction_report):
        embedded = [rep.logistic.zeta_result]
        if rep.lambda_V_result is not None:
            embedded.append(rep.lambda_V_result)
        if rep.pair is not None:
            embedded.append(rep.pair.lambda_V_result)
        for res in embedded:
            assert res.eigenfunction.residual <= 1e-8


def test_criterion_05_carrying_orbit_exists_and_is_unique(
        endemic_report, extinction_report, endemic_c, neumann_bcs, grid31):
    lr = endemic_report.logistic
    assert float(np.max(np.abs(lr.orbit.samples[0] - 1.0))) <= 1e-6
    assert lr.gap <= 1e-8           # super- and subsolution limits
    assert extinction_report.logistic.orbit.sup_norm() == 0.0

    # ten unrelated positive starts all land on the same orbit
    model = NonlinearModel(kind="logistic", c=endemic_c, bc1=neumann_bcs[0],
                           bc2=neumann_bcs[1], grid=grid31)
    rng = np.random.default_rng(7)
    ref = lr.orbit.samples[0][0]
    for _ in range(10):
        v0 = rng.uniform(0.05, 4.0, size=33)
        traj = integrate_trajectory(model, (v0,), 25, sample_stride=128)
        final = traj.samples[0][-1]
        assert float(np.max(np.abs(final - ref))) <= 1e-6


def test_criterion_06_endemic_pair_values_and_monotone_sweeps(endemic_report):
    pair = endemic_report.pair
    H, Vi = pair.orbit.samples
    assert float(np.max(np.abs(H - 3.0))) <= 1e-4
    assert float(np.max(np.abs(Vi - 0.6))) <= 1e-4
    assert np.all(Vi < endemic_report.logistic.orbit.samples[0])
    for a, b in zip(pair.upper_history, pair.upper_history[1:]):
        for ca, cb in zip(a, b):
            assert float(np.min(ca - cb)) >= -1e-12    # uppers come down
    for a, b in zip(pair.lower_history, pair.lower_history[1:]):
        for ca, cb in zip(a, b):
            assert float(np.min(cb - ca)) >= -1e-12    # lowers go up
    top = pair.upper_history[-1]
    for lower in pair.lower_history:
        for cl, cu in zip(lower, top):
            assert float(np.min(cu - cl)) >= -1e-12    # and never cross


def test_criterion_07_trichotomy_long_runs_reach_their_attractors(
        endemic_report, disease_free_report, extinction_report,
        endemic_c, disease_free_c, extinction_c, neumann_bcs, grid31):
    cases = [(extinction_c, extinction_report, (0.0, 0.0, 0.0)),
             (disease_free_c, disease_free_report, (0.0, 1.0, 0.0)),
             (endemic_c, endemic_report, (3.0, 0.4, 0.6))]
    for c, report, expected in cases:
        model = NonlinearModel(kind="full", c=c, bc1=neumann_bcs[0],
                               bc2=neumann_bcs[1], grid=grid31)
        u0 = build_initial_state(grid31, *neumann_bcs, (1.0, 0.5, 0.1))
        traj = integrate_trajectory(model, u0, 40, sample_stride=128)
        worst = max(float(np.max(np.abs(s[-1] - val)))
                    for s, val in zip(traj.samples, expected))
        assert worst <= 1e-3, report.regime
        cr = verify_trichotomy(c, neumann_bcs, grid31, initial=(1.0, 0.5, 0.1))
        assert cr.verdict == "PASS", report.regime
        assert cr.median_ratio < 1.0, report.regime


def test_criterion_08_band_entry_within_25_periods(endemic_report, endemic_traj40):
    # from period 25 on the total vector V_u + V_i stays in the band
    # V +/- 0.05*phi around the carrying orbit, phi the growth eigenfunction
    V = endemic_report.logistic.orbit
    phi = endemic_report.logistic.zeta_result.eigenfunction
    traj = endemic_traj40
    slack = 1e-12 * max(1.0, V.sup_norm() + 0.05 * phi.sup_norm())
    late = traj.steps >= 25 * traj.grid.steps_per_period
    k = traj.steps[late] % traj.grid.steps_per_period
    W = traj.samples[1][late] + traj.samples[2][late]
    assert np.all(np.abs(W - V.level(0, k)) <= 0.05 * phi.level(0, k) + slack)


def test_criterion_09_stepper_positivity_comparison_reduction():
    g = build_grid(0.0, 1.0, 31, 1.0, 64)

    c = make_constants(beta="2 + sin(2*pi*t)", H_u="5*(1 + 0.5*cos(pi*x))")
    model = NonlinearModel(kind="full", c=c, bc1=NEU1, bc2=NEU2, grid=g)
    rng = np.random.default_rng(42)
    lowest = 0.0
    for _ in range(5):
        u0 = tuple(rng.uniform(0.0, 3.0, size=33) for _ in range(3))
        traj = integrate_trajectory(model, u0, 3, sample_stride=4)
        lowest = min(lowest, min(float(np.min(s)) for s in traj.samples))
    assert lowest >= -1e-12

    for bcs in ((NEU1, NEU2), (BoundarySpec.dirichlet(1), BoundarySpec.robin(2, 0.5, 1.5))):
        assert order_preservation_margin(bcs, seed=1234) >= -1e-12

    c2 = make_constants(beta="2 + sin(2*pi*t)")
    full = NonlinearModel(kind="full", c=c2, bc1=NEU1, bc2=NEU2, grid=g)
    logi = NonlinearModel(kind="logistic", c=c2, bc1=NEU1, bc2=NEU2, grid=g)
    xs = g.full_nodes()
    vu0 = 0.5 + 0.3 * np.cos(np.pi * xs)
    vi0 = 0.2 + 0.1 * np.sin(np.pi * xs) ** 2
    t_full = integrate_trajectory(
        full, (np.full(33, 1.0), vu0, vi0), 4, sample_stride=1)
    t_logi = integrate_trajectory(
        logi, (vu0 + vi0,), 4, sample_stride=1)
    worst = float(np.max(np.abs(t_full.samples[1] + t_full.samples[2]
                                - t_logi.samples[0])))
    assert worst <= 1e-12


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "vectorhost", *args],
                          capture_output=True, text=True)


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE + "\n[run]\nn_periods = 4\nsample_stride = 16\n")

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        p = run_cli(["simulate", "--config", str(path), "--out", str(out)])
        assert p.returncode == 0, p.stderr
    assert (out_a / "trajectory.csv").read_bytes() \
        == (out_b / "trajectory.csv").read_bytes()

    p = run_cli(["classify", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "x")])
    assert p.returncode == 1
    p = run_cli(["validate", "--config", str(path),
                 "--out", str(tmp_path / "x"),
                 "--override", "coefficients.rho=-1"])
    assert p.returncode == 3
    p = run_cli(["eigen", "--config", str(path), "--out", str(tmp_path / "x"),
                 "--override", "solver.max_eigen_iters=1"])
    assert p.returncode == 2
