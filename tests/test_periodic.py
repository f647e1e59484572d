"""Periodic orbits: the vector carrying orbit, the forced host profile,
and the endemic pair built by two-sided monotone iteration.

Constant-coefficient oracles:
  - logistic orbit V = (beta - mu1)/mu2;
  - forced profile Hbar = sigma1*H_u*V/rho;
  - endemic pair (H, V_i) = (3, 0.6) for the baseline family (solve the
    2x2 algebraic system at the carrying level V = 1).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from vectorhost import (BlowupError, BoundarySpec, InputError, InternalError,
                        NoConvergence, NonlinearModel, NonUniqueOrbit,
                        PeriodicOrbit, RegimeError, SolverOptions, build_grid,
                        periodic, prepare, solve_Hbar, solve_endemic_pair,
                        solve_logistic_orbit)
from conftest import make_constants

NEUMANN1 = BoundarySpec.neumann(1)
NEUMANN2 = BoundarySpec.neumann(2)
BCS = (NEUMANN1, NEUMANN2)


def flat_orbit(value, grid, bc):
    n = grid.n_unknowns(bc)
    return PeriodicOrbit((np.full((grid.steps_per_period + 1, n), float(value)),))


@pytest.fixture(scope="module")
def grid():
    return build_grid(0.0, 1.0, 31, 1.0, 128)


# ───────────────────────────────────────────────────── logistic orbit ──


def test_constants_orbit_hits_carrying_capacity(grid):
    lr = solve_logistic_orbit(make_constants(), NEUMANN2, grid)
    assert np.max(np.abs(lr.orbit.samples[0] - 1.0)) < 1e-6
    assert lr.zeta == pytest.approx(-1.0, abs=1e-4)
    assert lr.gap <= 1e-8
    assert lr.orbit.residual <= 1e-9
    assert lr.converged_in > 0


def test_supercritical_mortality_gives_zero_orbit(grid):
    lr = solve_logistic_orbit(make_constants(beta="1", mu1="2"), NEUMANN2, grid)
    assert lr.orbit.sup_norm() == 0.0
    assert lr.zeta == pytest.approx(1.0, abs=1e-4)
    # the zero orbit is built by no iteration: both histories are empty
    assert lr.upper_history == lr.lower_history == ()
    assert lr.gap == 0.0 and lr.converged_in == 0


def test_seasonal_orbit_is_positive_and_periodic(grid):
    c = make_constants(beta="2 + sin(2*pi*t)")
    lr = solve_logistic_orbit(c, NEUMANN2, grid)
    V = lr.orbit.samples[0]
    assert lr.orbit.min_value() > 0.5
    assert np.max(np.abs(V[-1] - V[0])) <= 1e-9   # stored sweep is periodic
    assert np.max(V) > 1.05                        # forcing actually moves it


def test_dirichlet_orbit_matches_steady_state_oracle():
    # beta - mu1 = 2, mu2 = 1 on (0, pi): the orbit is the positive steady
    # state of V'' + 2V - V^2 = 0 with pinned ends
    g = build_grid(0.0, math.pi, 63, 1.0, 256)
    c = make_constants(beta="3", mu1="1")
    lr = solve_logistic_orbit(c, BoundarySpec.dirichlet(2), g)
    assert lr.zeta == pytest.approx(-1.0, abs=1e-3)
    mid = lr.orbit.samples[0][0][31]   # x = pi/2
    # frozen from this solver at nx=63, m=256; cross-checked below
    assert mid == pytest.approx(1.162743612285823, abs=1e-6)

    from scipy.integrate import solve_bvp
    xs = np.linspace(0.0, math.pi, 201)
    # start near the positive branch or Newton drops to the zero solution
    guess = np.vstack([1.2 * np.sin(xs), 1.2 * np.cos(xs)])
    sol = solve_bvp(lambda x, y: np.vstack([y[1], y[0] ** 2 - 2.0 * y[0]]),
                    lambda ya, yb: np.array([ya[0], yb[0]]),
                    xs, guess, tol=1e-8, max_nodes=20000)
    assert sol.status == 0
    # h^2 stencil bias at nx=63 keeps the two routes ~2e-4 apart
    assert abs(mid - sol.sol(math.pi / 2)[0]) < 5e-4


def test_two_seed_disagreement_near_criticality(grid):
    # zeta = -0.1 contracts so slowly that both limits stop ~9 tol away
    # from the fixed point; the certificate must refuse
    with pytest.raises(NonUniqueOrbit):
        solve_logistic_orbit(make_constants(beta="2", mu1="1.9"), NEUMANN2, grid)


# ─────────────────────────────────────────────────────── host profile ──


def test_hbar_constants(grid):
    V = flat_orbit(1.0, grid, NEUMANN2)
    hbar = solve_Hbar(make_constants(), BCS, grid, V)
    assert np.max(np.abs(hbar.samples[0] - 5.0)) < 1e-8


def test_hbar_zero_drive_is_zero(grid):
    V = flat_orbit(0.0, grid, NEUMANN2)
    hbar = solve_Hbar(make_constants(), BCS, grid, V)
    assert hbar.sup_norm() == 0.0


def test_hbar_space_varying_source(grid):
    # -H'' + H = 1 + 0.5 cos(pi x) with no flux: the cosine is an exact
    # discrete eigenvector, so H = 1 + 0.5 cos(pi x)/(1 + pi^2) up to h^2
    c = make_constants(H_u="1 + 0.5*cos(pi*x)")
    V = flat_orbit(1.0, grid, NEUMANN2)
    hbar = solve_Hbar(c, BCS, grid, V)
    xs = grid.full_nodes()
    expected = 1.0 + 0.5 * np.cos(np.pi * xs) / (1.0 + math.pi ** 2)
    assert np.max(np.abs(hbar.samples[0][0] - expected)) < 1e-4


def test_hbar_guard_reads_the_eigen_options(grid):
    # the gamma_rho contraction guard runs on the caller's eigen budget
    V = flat_orbit(1.0, grid, NEUMANN2)
    with pytest.raises(NoConvergence):
        solve_Hbar(make_constants(), BCS, grid, V,
                   o=SolverOptions(max_eigen_iters=1))


def test_hbar_rejects_V_off_the_vector_layout(grid, monkeypatch):
    # V on the Dirichlet (interior) width cannot be the Robin vector orbit,
    # and is refused before the gamma_rho guard is solved
    def unreachable(*args, **kwargs):
        raise AssertionError("solved gamma_rho before checking V")

    monkeypatch.setattr(periodic, "gamma_rho", unreachable)
    narrow = flat_orbit(1.0, grid, BoundarySpec.dirichlet(2))
    with pytest.raises(InputError, match="lattice"):
        solve_Hbar(make_constants(), BCS, grid, narrow)


# ─────────────────────────────────────────────────────── endemic pair ──


def test_endemic_pair_constants(grid):
    c = make_constants()
    lr = solve_logistic_orbit(c, NEUMANN2, grid)
    pair = solve_endemic_pair(c, BCS, grid, SolverOptions(), lr)
    assert np.max(np.abs(pair.orbit.samples[0] - 3.0)) < 1e-6
    assert np.max(np.abs(pair.orbit.samples[1] - 0.6)) < 1e-6
    assert pair.gap <= 1e-7
    assert pair.orbit.residual <= 1e-8
    assert pair.lower_residual <= 1e-8
    # strictly below the carrying orbit
    assert float(np.max(pair.orbit.samples[1] - lr.orbit.samples[0])) < 0.0


def test_endemic_histories_are_monotone_and_ordered(grid):
    # history entries are component tuples at period boundaries: (V,) for
    # the carrying orbit, (H, V_i) for the endemic pair
    c = make_constants()
    lr = solve_logistic_orbit(c, NEUMANN2, grid)
    pair = solve_endemic_pair(c, BCS, grid, SolverOptions(), lr)
    slack = 1e-12
    for rec in (lr, pair):
        ups, los = rec.upper_history, rec.lower_history
        assert len(ups) >= 2 and len(los) >= 2
        for a, b in zip(ups, ups[1:]):   # upper comes down
            for ca, cb in zip(a, b):
                assert float(np.max(cb - ca)) <= slack
        for a, b in zip(los, los[1:]):   # lower climbs
            for ca, cb in zip(a, b):
                assert float(np.min(cb - ca)) >= -slack
        for lo in los:                   # every lower sits under the last upper
            for cl, cu in zip(lo, ups[-1]):
                assert float(np.max(cl - cu)) <= slack
        # the gap and the period count are read off the two sequences
        assert rec.gap == max(float(np.max(np.abs(u - l)))
                              for u, l in zip(ups[-1], los[-1]))
        assert rec.converged_in == max(len(ups) - 1, len(los))


def test_pair_refused_outside_endemic_regime(grid):
    # one gate per threshold: absent above the band, unresolved inside it
    unresolved = (r" lies inside the decision band \(\+/-0\.001\); "
                  r"endemic state unresolved at this resolution$")
    cases = [
        ({"H_u": "1"}, False,       # decisively disease-free
         r"^the disease-free state resists invasion \(lambda\(V\) = 0\.381966 "
         r">= 0\.001\); endemic orbit absent$"),
        ({"beta": "1", "mu1": "2"}, False,   # vector dies out, decisively
         r"^the vector population dies out \(zeta = 1\.00001 >= 0\.001\); "
         r"endemic orbit absent$"),
        ({"H_u": "2"}, True,        # lambda(V) is zero up to roundoff
         r"^invasion exponent -?\d\.\d+e-\d+" + unresolved),
        ({"beta": "1.0005 + sin(2*pi*t)"}, True,   # zeta lands inside the band
         r"^growth threshold -0\.000500004" + unresolved),
    ]
    for fields, indeterminate, message in cases:
        c = make_constants(**fields)
        lr = solve_logistic_orbit(c, NEUMANN2, grid)
        with pytest.raises(RegimeError, match=message) as err:
            solve_endemic_pair(c, BCS, grid, SolverOptions(), lr)
        assert err.value.indeterminate == indeterminate, fields


def test_pair_reuses_a_passed_host_profile(grid):
    # a profile passed in replaces the pair's own solve_Hbar; a
    # doubled profile is still a supersolution, so the pair is unchanged
    c = make_constants()
    lr = solve_logistic_orbit(c, NEUMANN2, grid)
    hbar = solve_Hbar(c, BCS, grid, lr.orbit)
    ref = solve_endemic_pair(c, BCS, grid, SolverOptions(), lr)
    pair = solve_endemic_pair(c, BCS, grid, SolverOptions(), lr, hbar=hbar)
    assert np.array_equal(pair.upper_history[0][0], ref.upper_history[0][0])
    assert np.array_equal(pair.orbit.samples[0], ref.orbit.samples[0])
    doubled = PeriodicOrbit((2.0 * hbar.samples[0],))
    seeded = solve_endemic_pair(c, BCS, grid, SolverOptions(), lr, hbar=doubled)
    assert np.array_equal(seeded.upper_history[0][0],
                          2.0 * ref.upper_history[0][0])
    assert np.max(np.abs(seeded.orbit.samples[0] - 3.0)) < 1e-6


def test_orbit_solvers_obey_the_blowup_cap(grid):
    # the carrying orbit is 1 and the host profile 5: a cap of 0.5 stops
    # the logistic orbit, a cap of 2 the truncated pair
    c = make_constants()
    with pytest.raises(BlowupError, match="^state exceeded blow-up cap 0.5$"):
        solve_logistic_orbit(c, NEUMANN2, grid, SolverOptions(blowup_cap=0.5))
    lr = solve_logistic_orbit(c, NEUMANN2, grid)
    with pytest.raises(BlowupError, match="^state exceeded blow-up cap 2$"):
        solve_endemic_pair(c, BCS, grid, SolverOptions(blowup_cap=2.0), lr)


def test_seasonal_endemic_pair(grid):
    c = make_constants(beta="2 + sin(2*pi*t)")
    lr = solve_logistic_orbit(c, NEUMANN2, grid)
    pair = solve_endemic_pair(c, BCS, grid, SolverOptions(), lr)
    assert pair.gap <= 1e-7
    assert pair.orbit.min_value() > 0.0   # H_i and V_i both
    assert float(np.max(pair.orbit.samples[1] - lr.orbit.samples[0])) < 0.0


# ───────────────────────────────────────────────── seeds and budgets ──


def test_orbit_budget_names_the_upper_seed(grid):
    with pytest.raises(NoConvergence, match=r"^vector orbit \(upper seed\) "
                       r"iteration still moving after 3 periods") as err:
        solve_logistic_orbit(make_constants(), NEUMANN2, grid,
                             SolverOptions(max_periods=3))
    assert err.value.iterations == 3


def test_growing_seed_halves_until_the_image_grows(grid):
    ones = (np.ones(grid.n_unknowns(NEUMANN2)),)
    # seeds 4 and 2 lie above the carrying capacity 1 and shrink; 1 is a
    # fixed point of the constant-coefficient period map
    model = NonlinearModel(kind="logistic", c=make_constants(), bc1=NEUMANN1,
                           bc2=NEUMANN2, grid=grid)
    image = periodic._growing_seed(model, prepare(model), ones, 4.0,
                                   lambda seed: 1e-12, "vector orbit")
    assert np.max(np.abs(image[0] - 1.0)) <= 1e-12
    # under supercritical mortality every seed shrinks
    dying = replace(model, c=make_constants(beta="1", mu1="2"))
    with pytest.raises(NoConvergence, match="^no growing lower seed found "
                       "for the vector orbit$") as err:
        periodic._growing_seed(dying, prepare(dying), ones, 1.0,
                               lambda seed: 0.0, "vector orbit")
    assert err.value.iterations == periodic._MAX_HALVINGS


def test_failed_upper_or_lower_seed_raises(grid, monkeypatch):
    # a seed that fails is an error
    c = make_constants()
    lr = solve_logistic_orbit(c, NEUMANN2, grid)
    zero = PeriodicOrbit.zeros([grid.n_unknowns(NEUMANN1)], grid.steps_per_period)
    with pytest.raises(InternalError, match="^upper seed failed to decrease") as err:
        solve_endemic_pair(c, BCS, grid, SolverOptions(), lr, hbar=zero)
    assert "steps_per_period" not in str(err.value)   # dt*sigma2*Hbar = 0
    monkeypatch.setattr(periodic, "_MAX_HALVINGS", 0)
    with pytest.raises(NoConvergence, match="^no growing lower seed found "
                       "for the endemic pair$"):
        solve_endemic_pair(c, BCS, grid, SolverOptions(), lr)


def test_failed_seed_names_the_explicit_infection_step(grid):
    # README coefficients at H_u = 300: max Hbar = 306.7, so the explicit
    # infection step dt*sigma2*Hbar reaches 2.396 at 128 steps per period
    c = make_constants(beta="2 + sin(2*pi*t)", d2="0.5", H_u="300")
    lr = solve_logistic_orbit(c, NEUMANN2, grid)
    with pytest.raises(InternalError, match=(
            r"^upper seed failed to decrease; "
            r"max dt\*sigma2\*Hbar = 2\.396 >= 1 makes the explicit infection "
            r"step non-monotone \(steps_per_period >= 307 brings it below 1\)$")):
        solve_endemic_pair(c, BCS, grid, SolverOptions(), lr)
