"""Principal eigenvalues of the period map.

Closed forms used as oracles (constant coefficients, Neumann):
  - scalar coupling a gives lambda = -a, so zeta = mu1 - beta and
    gamma(rho) = rho;
  - Dirichlet on (0, pi) adds the principal diffusion eigenvalue 1;
  - the 2x2 invasion matrix [[-rho, s1*Hu], [s2*V, -(mu1 + mu2*V)]] has
    lambda(V) = -max eig, computable from trace and determinant.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from vectorhost import (BoundarySpec, ComponentSpec, InputError,
                        InternalError, LinearPeriodicSystem, NoConvergence,
                        PeriodicOrbit, ReducibleSystemWarning, SolveError,
                        SolverOptions,
                        apply_period_map, build_grid, gamma_rho,
                        lambda_V, parse_expression,
                        principal_eigenvalue, solve_logistic_orbit, zeta)
from vectorhost import eigen
from vectorhost.coeffs import field_values
from vectorhost.grid import assemble_diffusion, map_between
from conftest import make_constants

NEUMANN1 = BoundarySpec.neumann(1)
NEUMANN2 = BoundarySpec.neumann(2)


def flat_orbit(value, grid, bc):
    n = grid.n_unknowns(bc)
    samples = (np.full((grid.steps_per_period + 1, n), float(value)),)
    return PeriodicOrbit(samples)


@pytest.fixture(scope="module")
def grid():
    return build_grid(0.0, 1.0, 15, 1.0, 128)


@pytest.mark.parametrize("field, value", [
    (f, v) for f in ("eigen_tol", "max_eigen_iters", "orbit_tol", "max_periods", "band",
                     "blowup_cap", "target") for v in (math.nan, 0)])
def test_solver_options_refuse_out_of_range_values(field, value):
    # NaN fails every "> 0" as well: each would otherwise run on, to a
    # budget or a misleading error, before anything names the option
    with pytest.raises(InputError, match=f"^{field} must be"):
        SolverOptions(**{field: value})


def test_constant_zeta_and_gamma(grid):
    c = make_constants(beta="1", mu1="2")
    r = zeta(c, NEUMANN2, grid)
    assert r.value == pytest.approx(1.0, abs=1e-4)
    g = gamma_rho(make_constants(rho="0.5"), NEUMANN1, grid)
    assert g.value == pytest.approx(0.5, abs=1e-4)
    # the eigenfunction of a flat problem is flat and sup-normalised
    assert np.max(np.abs(r.eigenfunction.samples[0] - 1.0)) < 1e-9


def test_multiplier_matches_value(grid):
    r = zeta(make_constants(), NEUMANN2, grid)
    assert r.value == pytest.approx(-math.log(r.multiplier) / grid.T)
    assert r.value == pytest.approx(-1.0, abs=1e-4)


def test_seasonal_zeta_averages_the_coupling(grid):
    # mean(mu1 - beta) survives; the oscillating part only contributes
    # at second order in dt
    c = make_constants(beta="1 + sin(2*pi*t)", mu1="2")
    r = zeta(c, NEUMANN2, grid)
    assert r.value == pytest.approx(1.0, abs=1e-4)


def test_dirichlet_adds_principal_diffusion_eigenvalue():
    g = build_grid(0.0, math.pi, 31, 1.0, 64)
    c = make_constants(beta="0.5", mu1="1")
    r = zeta(c, BoundarySpec.dirichlet(2), g)
    # mu1 - beta + 1, up to the h^2 stencil bias
    assert r.value == pytest.approx(1.5, abs=2e-3)
    # interior eigenfunction is the discrete sine mode, positive inside
    phi0 = r.eigenfunction.level(0, 0)
    assert np.min(phi0) > 0
    assert np.argmax(phi0) == 15


def test_robin_absorption_raises_zeta(grid):
    c = make_constants()
    base = zeta(c, NEUMANN2, grid).value
    absorbing = zeta(c, BoundarySpec.robin(2, 1.0, 1.0), grid).value
    assert absorbing > base + 0.01


def test_zeta_decreases_in_beta(grid):
    rng = np.random.default_rng(7)
    for _ in range(5):
        b = rng.uniform(0.5, 3.0)
        mu = rng.uniform(0.5, 3.0)
        c_lo = make_constants(beta=f"{b:.6f}", mu1=f"{mu:.6f}")
        c_hi = make_constants(beta=f"{b + 0.5:.6f}", mu1=f"{mu:.6f}")
        assert zeta(c_hi, NEUMANN2, grid).value < zeta(c_lo, NEUMANN2, grid).value


def test_lambda_V_closed_forms(grid):
    V = flat_orbit(1.0, grid, NEUMANN2)
    lam = lambda_V(make_constants(), (NEUMANN1, NEUMANN2), grid, V)
    assert lam.value == pytest.approx((3.0 - math.sqrt(21.0)) / 2.0, abs=1e-4)
    lam_df = lambda_V(make_constants(H_u="1"), (NEUMANN1, NEUMANN2), grid, V)
    assert lam_df.value == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-4)
    # both eigenfunctions live strictly inside the positive cone
    for r in (lam, lam_df):
        assert r.eigenfunction.min_value() > 0


def test_lambda_V_input_checks(grid):
    c = make_constants()
    zero = flat_orbit(0.0, grid, NEUMANN2)
    with pytest.raises(InputError):
        lambda_V(c, (NEUMANN1, NEUMANN2), grid, zero)
    other = build_grid(0.0, 1.0, 15, 1.0, 64)
    with pytest.raises(InputError):
        lambda_V(c, (NEUMANN1, NEUMANN2), grid, flat_orbit(1.0, other, NEUMANN2))


def test_gamma_rho_guards_against_nonpositive_value(grid):
    # hypothesis validation runs upstream; the solver still refuses to
    # hand back a nonpositive decay rate if fed a bad removal field
    with pytest.raises(InternalError):
        gamma_rho(make_constants(rho="-0.5"), NEUMANN1, grid)


def test_orbit_residual_is_the_largest_row_gap_over_components():
    # rows m and 0 differ by 0.25 in the host component, 0.5 in the vector one
    host, vector = np.zeros((5, 3)), np.ones((5, 4))
    host[-1, 1] = 0.25
    vector[-1, 2] = 0.5
    vector[2, 0] = 9.0     # an inner row moves no residual
    assert PeriodicOrbit((host, vector)).residual == 0.5
    assert PeriodicOrbit((host,)).residual == 0.25


def test_period_map_residual_directly(grid):
    # independent application of the period map to the returned phi(., 0)
    sys_ = LinearPeriodicSystem(
        grid=grid,
        comps=(ComponentSpec(d=1.0, bc=NEUMANN2),),
        coupling=((parse_expression("1 - 2*x + sin(2*pi*t)"),),))
    r = principal_eigenvalue(sys_, SolverOptions(eigen_tol=1e-12,
                                                 max_eigen_iters=5000))
    phi0 = r.eigenfunction.level(0, 0)
    (mapped,) = apply_period_map(sys_, (phi0,))
    assert np.max(np.abs(mapped - r.multiplier * phi0)) <= 1e-10
    assert r.eigenfunction.residual <= 1e-10


def test_source_terms_are_rejected(grid):
    sys_ = LinearPeriodicSystem(
        grid=grid,
        comps=(ComponentSpec(d=1.0, bc=NEUMANN2),),
        coupling=((parse_expression("1"),),),
        source=(parse_expression("1"),))
    with pytest.raises(InputError):
        principal_eigenvalue(sys_)


def test_negative_offdiagonal_coupling_rejected(grid):
    sys_ = LinearPeriodicSystem(
        grid=grid,
        comps=(ComponentSpec(d=1.0, bc=NEUMANN1),
               ComponentSpec(d=1.0, bc=NEUMANN2)),
        coupling=((parse_expression("-1"), parse_expression("0 - x")),
                  (parse_expression("1"), parse_expression("-1"))))
    with pytest.raises(InputError):
        principal_eigenvalue(sys_)


def test_a_none_coupling_entry_is_no_usable_field(grid):
    # every coupling entry is a field: None does not stand for zero
    sys_ = LinearPeriodicSystem(
        grid=grid,
        comps=(ComponentSpec(d=1.0, bc=NEUMANN1),
               ComponentSpec(d=1.0, bc=NEUMANN2)),
        coupling=((parse_expression("-1"), None),
                  (parse_expression("1"), parse_expression("-1"))))
    with pytest.raises(InputError, match="^not a usable field: None$"):
        principal_eigenvalue(sys_)


def test_cooperativity_message_names_coupling_and_first_level(grid):
    sys_ = LinearPeriodicSystem(
        grid=grid,
        comps=(ComponentSpec(d=1.0, bc=NEUMANN1),
               ComponentSpec(d=1.0, bc=NEUMANN2)),
        coupling=((parse_expression("-1"), parse_expression("sin(2*pi*t)")),
                  (parse_expression("1"), parse_expression("-1"))))
    ts = grid.level_times()
    first = ts[np.sin(2 * np.pi * ts) < -1e-12][0]
    assert first > 0.5
    with pytest.raises(InputError) as info:
        principal_eigenvalue(sys_)
    assert "coupling[0][1]" in str(info.value)
    assert f"t={first:.6g}" in str(info.value)


def test_singular_crank_nicolson_factor_raises_solve_error():
    # constant growth 2/dt: I - dt/2 A annihilates the constant mode
    g = build_grid(0.0, 1.0, 15, 1.0, 64)
    sys_ = LinearPeriodicSystem(
        grid=g, comps=(ComponentSpec(d=1.0, bc=NEUMANN2),), coupling=((128.0,),))
    with pytest.raises(SolveError, match=r"level 0 \(t=0\)"):
        principal_eigenvalue(sys_)


def dense_generator(sys_, t):
    """The stacked (component-block) generator at time t as a dense matrix."""
    g = sys_.grid
    bcs = [c.bc for c in sys_.comps]
    rows = []
    for i, comp in enumerate(sys_.comps):
        row = []
        for j, f in enumerate(sys_.coupling[i]):
            # P sends a component-j vector onto component i's node layout
            P = map_between(np.eye(g.n_unknowns(bcs[j])), bcs[j], bcs[i]).T
            block = field_values(f, g.nodes_for(comp.bc), t)[:, None] * P
            if i == j:
                block += assemble_diffusion(g, comp.d, comp.bc, t).to_dense()
            row.append(block)
        rows.append(row)
    return np.block(rows)


def dense_period_map(sys_, u):
    g = sys_.grid
    A = [dense_generator(sys_, t) for t in g.level_times()]
    eye = np.eye(len(u))
    for k in range(len(A)):
        u = np.linalg.solve(eye - g.dt / 2 * A[(k + 1) % len(A)],
                            (eye + g.dt / 2 * A[k]) @ u)
    return u


@pytest.mark.parametrize("flavors", [("robin", "robin"), ("dirichlet", "robin"),
                                     ("robin", "dirichlet"),
                                     ("dirichlet", "dirichlet")])
def test_period_map_matches_dense_reference(flavors):
    g = build_grid(0.0, 1.0, 7, 1.0, 16)
    weight = parse_expression("0.5 + 0.5*cos(2*pi*t)")
    bcs = [BoundarySpec.dirichlet(k + 1) if f == "dirichlet"
           else BoundarySpec.robin(k + 1, weight, 0.3) for k, f in enumerate(flavors)]
    e = parse_expression
    sys_ = LinearPeriodicSystem(
        grid=g,
        comps=(ComponentSpec(d=e("0.5 + 0.2*sin(2*pi*t) + 0.1*x"), bc=bcs[0]),
               ComponentSpec(d=0.3, bc=bcs[1])),
        coupling=((e("1 - 2*x + sin(2*pi*t)"), e("1 + x + 0.5*sin(2*pi*t)")),
                  (e("0.5 + x*x*(1 + cos(2*pi*t))"), e("0 - 1 - x + cos(2*pi*t)"))))
    rng = np.random.default_rng(3)
    comps = [rng.uniform(0.5, 1.5, g.n_unknowns(bc)) for bc in bcs]
    got = np.concatenate(apply_period_map(sys_, comps))
    want = dense_period_map(sys_, np.concatenate(comps))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def traced_peak(fn):
    """fn() and the peak of Python-tracked memory it held above its start."""
    running = tracemalloc.is_tracing()
    if not running:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not running:
            tracemalloc.stop()


def memory_system(kind):
    """The 2x2 invasion system or zeta's scalar system at 63/256, seasonal
    and space-dependent so that every lattice is a full array."""
    g = build_grid(0.0, 1.0, 63, 1.0, 256)
    c = make_constants(beta="2 + sin(2*pi*t)", d2="0.5*(1 + x*x)",
                       H_u="5*(1 + 0.5*cos(pi*x))")
    if kind == "zeta":
        L = g.lattice
        return LinearPeriodicSystem(
            grid=g, comps=(ComponentSpec(d=c.d2, bc=NEUMANN2),),
            coupling=((L(c.beta, NEUMANN2) - L(c.mu1, NEUMANN2),),))
    m = g.steps_per_period
    V = 1.0 + 0.2 * np.sin(2 * np.pi * np.arange(m) / m)[:, None] * g.nodes_for(NEUMANN2)
    return eigen._invasion_system(c, (BoundarySpec.robin(1, 0.5, 1.5), NEUMANN2), g, V)


def factor_bytes(P):
    return P.mplus.nbytes + P.lu.nbytes + P.piv.nbytes


@pytest.mark.parametrize("kind", ["invasion", "zeta"])
def test_eigen_setup_peak_is_its_factors(kind):
    # the band array becomes the right-hand factor in place and lu is built
    # from it in place, so the setup holds no scaled copies beside them
    sys_ = memory_system(kind)
    P, peak = traced_peak(lambda: eigen._PreparedEigen(sys_))
    lattice = sys_.grid.steps_per_period * max(P.sizes) * 8
    assert peak <= factor_bytes(P) + lattice


@pytest.mark.parametrize("kind", ["invasion", "zeta"])
def test_eigenfunction_sweep_adds_at_most_two_level_arrays(kind):
    # the stored sweep fills one (m+1, N) array in place; splitting it into
    # components copies it once more
    sys_ = memory_system(kind)
    P = eigen._PreparedEigen(sys_)
    held, lattice = factor_bytes(P), sys_.grid.steps_per_period * max(P.sizes) * 8
    levels = (sys_.grid.steps_per_period + 1) * P.total * 8
    del P
    res, peak = traced_peak(lambda: principal_eigenvalue(sys_))
    assert peak <= held + 2 * levels + lattice
    assert res.eigenfunction.samples[0].flags.c_contiguous


def test_large_multiplier_converges_within_its_ulp():
    # beta = 20 puts the multiplier near e^19, whose ulp (3e-8) exceeds the
    # 1e-10 tolerance; successive estimates may differ by 4 ulp
    g = build_grid(0.0, 1.0, 31, 1.0, 128)
    r = zeta(make_constants(beta="20 + sin(2*pi*t)", d2="0.5"), NEUMANN2, g)
    assert r.value == pytest.approx(-19.0351, abs=1e-4)
    assert r.iterations < 10


def test_no_convergence_raises(grid):
    # one power iteration cannot converge; each named eigenvalue reads the
    # budget from the options it is passed
    c, o = make_constants(beta="2 + sin(2*pi*t)"), SolverOptions(max_eigen_iters=1)
    V = flat_orbit(1.0, grid, NEUMANN2)
    solves = [lambda: zeta(c, NEUMANN2, grid, o),
              lambda: gamma_rho(c, NEUMANN1, grid, o),
              lambda: lambda_V(c, (NEUMANN1, NEUMANN2), grid, V, o)]
    for solve in solves:
        with pytest.raises(NoConvergence):
            solve()


def test_reducible_system_warns(grid):
    # H_u = 0 decouples the host equation; the dominant mode lives only in
    # the vector component, so the returned "eigenfunction" has a dead block
    c = make_constants(rho="2", H_u="0", mu1="1", mu2="0", beta="0.5")
    V = flat_orbit(1.0, grid, NEUMANN2)
    with pytest.warns(ReducibleSystemWarning):
        r = lambda_V(c, (NEUMANN1, NEUMANN2), grid, V)
    assert r.value == pytest.approx(1.0, abs=1e-4)


def test_sign_changing_eigenfunction_names_the_stiff_mode():
    # Dirichlet host at 23 nodes and 64 steps: the Crank-Nicolson factor of
    # the stiffest diffusion mode, ((1 - a)/(1 + a))^64, outweighs
    # e^{-gamma T}, so power iteration settles on a sign-changing mode
    c = make_constants(beta="2 + sin(2*pi*t)", d2="0.5")
    g = build_grid(0.0, 1.0, 23, 1.0, 64)
    with pytest.warns(ReducibleSystemWarning,
                      match="changes sign.*stiffest mode.*steps_per_period"):
        gamma_rho(c, BoundarySpec.dirichlet(1), g)


def test_full_coupling_does_not_warn(grid):
    V = flat_orbit(1.0, grid, NEUMANN2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ReducibleSystemWarning)
        lambda_V(make_constants(), (NEUMANN1, NEUMANN2), grid, V)


def test_zeta_sign_agrees_with_logistic_orbit(grid):
    # dual route: eigenvalue sign versus the nonlinear fixed point.  The
    # draw stays clear of the critical band, where the contraction rate
    # degenerates and the two-seed agreement check is allowed to fail.
    rng = np.random.default_rng(99)
    seen_zero, seen_positive = 0, 0
    for k in range(10):
        mu = rng.uniform(0.5, 2.5)
        gap = rng.uniform(0.3, 1.5)
        b = mu - gap if (k % 2 == 0 and mu - gap > 0.1) else mu + gap
        c = make_constants(beta=f"{b:.6f}", mu1=f"{mu:.6f}")
        lr = solve_logistic_orbit(c, NEUMANN2, grid)
        if lr.zeta > 0:
            assert lr.orbit.sup_norm() == 0.0
            seen_zero += 1
        else:
            assert lr.orbit.min_value() > 0.0
            seen_positive += 1
    assert seen_zero and seen_positive  # the draw covers both regimes


def test_periodic_orbit_zeros_and_lattice(grid):
    z = PeriodicOrbit.zeros([15, 17], grid.steps_per_period)
    assert z.ncomp == 2
    assert z.samples[1].shape == (grid.steps_per_period + 1, 17)
    assert z.lattice(1).shape == (grid.steps_per_period, 17)
