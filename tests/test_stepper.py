"""Semi-implicit stepper: positivity, comparison, reduction, convergence.

The implicit side (diffusion and diagonal decay) produces an M-matrix, so
the step is order preserving and sign preserving by construction; these
tests pin that down on the maps the orbit solvers iterate, along with the
first-order accuracy in dt and the exact agreement between the total
vector of the full model and the logistic scalar model.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv, dgttrf

from vectorhost import (BlowupError, BoundarySpec, ComponentSpec, DomainError,
                        InputError, LinearPeriodicSystem, NonlinearModel,
                        assemble_diffusion, build_grid,
                        build_initial_state, integrate_over_period,
                        integrate_trajectory, map_between, parse_expression,
                        prepare, solve_logistic_orbit, stepper)
from vectorhost.grid import DiffusionMatrix
from conftest import make_constants, order_preservation_margin

NEUMANN = (BoundarySpec.neumann(1), BoundarySpec.neumann(2))
DIRICHLET_ROBIN = (BoundarySpec.dirichlet(1), BoundarySpec.robin(2, 0.5, 1.5))


@pytest.fixture(scope="module")
def grid():
    return build_grid(0.0, 1.0, 31, 1.0, 64)


def test_constant_equilibrium_is_exact(grid, endemic_c):
    # (3, 0.4, 0.6) solves the constant-coefficient system; the IMEX update
    # reproduces it to roundoff at any dt
    model = NonlinearModel(kind="full", c=endemic_c, bc1=NEUMANN[0],
                           bc2=NEUMANN[1], grid=grid)
    u0 = build_initial_state(grid, *NEUMANN, (3.0, 0.4, 0.6))
    u1 = integrate_over_period(model, u0)
    for a, b in zip(u1, u0):
        assert np.max(np.abs(a - b)) < 1e-13


def test_positivity_from_random_nonnegative_data(grid):
    c = make_constants(beta="2 + sin(2*pi*t)", H_u="5*(1 + 0.5*cos(pi*x))")
    model = NonlinearModel(kind="full", c=c, bc1=NEUMANN[0], bc2=NEUMANN[1],
                           grid=grid)
    rng = np.random.default_rng(42)
    for _ in range(5):
        u0 = tuple(rng.uniform(0.0, 3.0, size=33) for _ in range(3))
        traj = integrate_trajectory(model, u0, 3, sample_stride=4)
        lowest = min(float(np.min(s)) for s in traj.samples)
        assert lowest >= -1e-12


@pytest.mark.parametrize("bcs", [NEUMANN, DIRICHLET_ROBIN],
                         ids=["neumann-neumann", "dirichlet-robin"])
def test_period_maps_are_monotone_and_sublinear(bcs):
    assert order_preservation_margin(bcs, seed=1234) >= -1e-12


def test_linear_systems_step_only_as_the_host_profile(grid):
    # the stepper takes one component with a source; eigen takes the rest
    d, decay, src = 1.0, parse_expression("-1"), parse_expression("2")
    two = LinearPeriodicSystem(
        grid=grid, comps=(ComponentSpec(d=d, bc=NEUMANN[0]), ComponentSpec(d=d, bc=NEUMANN[1])),
        coupling=((decay, None), (None, decay)), source=(src, src))
    sourceless = LinearPeriodicSystem(
        grid=grid, comps=(ComponentSpec(d=d, bc=NEUMANN[0]),), coupling=((decay,),))
    two_sources = LinearPeriodicSystem(
        grid=grid, comps=(ComponentSpec(d=d, bc=NEUMANN[0]),), coupling=((decay,),),
        source=(src, src))
    for system in (two, sourceless, two_sources):
        with pytest.raises(InputError, match="one component with one source"):
            prepare(system)
        with pytest.raises(InputError, match="one component with one source"):
            integrate_over_period(system, tuple(np.ones(33) for _ in system.comps))


def test_total_vector_reduces_to_logistic_exactly(grid):
    c = make_constants(beta="2 + sin(2*pi*t)")
    full = NonlinearModel(kind="full", c=c, bc1=NEUMANN[0], bc2=NEUMANN[1],
                          grid=grid)
    logi = NonlinearModel(kind="logistic", c=c, bc1=NEUMANN[0],
                          bc2=NEUMANN[1], grid=grid)
    xs = grid.full_nodes()
    vu0 = 0.5 + 0.3 * np.cos(np.pi * xs)
    vi0 = 0.2 + 0.1 * np.sin(np.pi * xs) ** 2
    h0 = np.full(33, 1.0)
    t_full = integrate_trajectory(
        full, (h0, vu0, vi0), 4, sample_stride=1)
    t_logi = integrate_trajectory(
        logi, (vu0 + vi0,), 4, sample_stride=1)
    worst = float(np.max(np.abs(t_full.samples[1] + t_full.samples[2]
                                - t_logi.samples[0])))
    assert worst <= 1e-12


def test_truncated_period_matches_full_model_on_the_carrying_orbit():
    # with V_u + V_i on the carrying orbit V, the truncated system
    # is the full model in (H_i, V_i), so one period of each must agree;
    # this pins the decay to V at the level the full model reads V_u + V_i
    g = build_grid(0.0, 1.0, 15, 1.0, 64)
    c = make_constants(beta="2 + sin(2*pi*t)", d2="0.5")
    V = solve_logistic_orbit(c, NEUMANN[1], g).orbit
    V0 = V.level(0, 0)
    H, Z = np.ones(g.nx + 2), 0.3 * V0
    full = NonlinearModel(kind="full", c=c, bc1=NEUMANN[0], bc2=NEUMANN[1], grid=g)
    trunc = NonlinearModel(kind="truncated", c=c, bc1=NEUMANN[0],
                           bc2=NEUMANN[1], grid=g, V=V)
    uf = integrate_over_period(full, (H, V0 - Z, Z))
    ut = integrate_over_period(trunc, (H, Z))
    assert np.max(np.abs(uf[0] - ut[0])) <= 1e-12
    assert np.max(np.abs(uf[2] - ut[1])) <= 1e-12


def test_first_order_in_dt():
    # seasonal forcing so the time error is visible; halving dt should
    # roughly halve the error against a fine reference
    c = make_constants(beta="2 + sin(2*pi*t)")
    finals = {}
    for m in (64, 128, 1024):
        g = build_grid(0.0, 1.0, 15, 1.0, m)
        model = NonlinearModel(kind="full", c=c, bc1=NEUMANN[0],
                               bc2=NEUMANN[1], grid=g)
        u0 = build_initial_state(g, *NEUMANN, (1.0, 0.5, 0.1))
        u1 = integrate_over_period(model, u0)
        finals[m] = np.concatenate(u1)
    e64 = np.max(np.abs(finals[64] - finals[1024]))
    e128 = np.max(np.abs(finals[128] - finals[1024]))
    assert 1.6 <= e64 / e128 <= 2.4


def test_blowup_raises(grid):
    c = make_constants(beta="40")  # heads for carrying capacity 39
    model = NonlinearModel(kind="logistic", c=c, bc1=NEUMANN[0],
                           bc2=NEUMANN[1], grid=grid, cap=10.0)
    u0 = (np.full(33, 1.0),)
    with pytest.raises(BlowupError):
        integrate_trajectory(model, u0, 5, sample_stride=8)


def test_nan_state_raises_blowup(grid, endemic_c):
    # a NaN fails every ordered comparison, so the cap test must be one
    # that NaN cannot pass; the message names the state non-finite (the
    # state is a raw tuple: build_initial_state refuses a NaN by name)
    model = NonlinearModel(kind="full", c=endemic_c, bc1=NEUMANN[0],
                           bc2=NEUMANN[1], grid=grid)
    n1, n2 = (grid.n_unknowns(bc) for bc in NEUMANN)
    u0 = (np.full(n1, np.nan), np.full(n2, 0.5), np.full(n2, 0.1))
    with pytest.raises(BlowupError, match="non-finite"):
        integrate_trajectory(model, u0, 2, sample_stride=8)


def test_trajectory_times_stay_on_the_step_lattice(endemic_c):
    # dt = 1/96 is not dyadic, so summing dt step by step would drift off
    # k*dt, the time every orbit CSV writes
    g = build_grid(0.0, 1.0, 15, 1.0, 96)
    model = NonlinearModel(kind="full", c=endemic_c, bc1=NEUMANN[0],
                           bc2=NEUMANN[1], grid=g)
    u0 = build_initial_state(g, *NEUMANN, (1.0, 0.5, 0.1))
    traj = integrate_trajectory(model, u0, 4, sample_stride=8)
    assert all(t == k * g.dt for t, k in zip(traj.times, traj.steps.tolist()))
    assert traj.times[-1] == 4.0


def test_affine_source_equilibrium(grid):
    # dH/dt = div(grad H) - H + 2 has the flat fixed point H = 2,
    # reproduced exactly by the implicit-decay/explicit-source split
    sys_ = LinearPeriodicSystem(
        grid=grid,
        comps=(ComponentSpec(d=1.0, bc=NEUMANN[0]),),
        coupling=((parse_expression("-1"),),),
        source=(parse_expression("2"),))
    u0 = (np.full(33, 2.0),)
    u1 = integrate_over_period(sys_, u0)
    assert np.max(np.abs(u1[0] - 2.0)) < 1e-13


def test_store_returns_all_levels(grid, endemic_c):
    model = NonlinearModel(kind="logistic", c=endemic_c, bc1=NEUMANN[0],
                           bc2=NEUMANN[1], grid=grid)
    u0 = (np.full(33, 1.0),)
    (levels,) = integrate_over_period(model, u0, store=True)
    assert len(levels) == grid.steps_per_period + 1
    assert np.array_equal(levels[0], u0[0])
    assert np.array_equal(levels[-1], integrate_over_period(model, u0)[0])


def test_trajectory_sampling_and_boundaries(grid, endemic_c):
    model = NonlinearModel(kind="full", c=endemic_c, bc1=NEUMANN[0],
                           bc2=NEUMANN[1], grid=grid)
    u0 = build_initial_state(grid, *NEUMANN, (1.0, 0.5, 0.1))
    traj = integrate_trajectory(model, u0, 3, sample_stride=16)
    assert traj.steps[-1] == 3 * grid.steps_per_period
    assert len(traj.steps) == 3 * 64 // 16 + 1
    assert all(s.shape == (len(traj.steps), 33) for s in traj.samples)
    b2 = list(traj.steps).index(128)          # period boundary 2
    assert traj.times[b2] == pytest.approx(2.0)
    assert np.count_nonzero((traj.steps >= 64) & (traj.steps <= 128)) == 64 // 16 + 1
    with pytest.raises(DomainError):
        integrate_trajectory(model, u0, 2, sample_stride=7)  # 7 does not divide 64


def test_trajectory_and_period_maps_share_one_loop():
    # a Dirichlet host beside no-flux vectors: the kept trajectory rows at
    # each period boundary are the repeated period map, bit for bit, and a
    # stored sweep starts at u0 and ends at the unstored map
    g = build_grid(0.0, 1.0, 15, 1.0, 64)
    m = g.steps_per_period
    bc1, bc2 = BoundarySpec.dirichlet(1), BoundarySpec.neumann(2)
    c = make_constants(beta="2 + sin(2*pi*t)", H_u="5*(1 + 0.5*cos(pi*x))")
    model = NonlinearModel(kind="full", c=c, bc1=bc1, bc2=bc2, grid=g)
    u0 = build_initial_state(g, bc1, bc2, (1.0, 0.5, 0.1))
    traj = integrate_trajectory(model, u0, 3, sample_stride=16)
    rows = {int(k): r for r, k in enumerate(traj.steps)}
    u = u0
    for n in range(1, 4):
        u = integrate_over_period(model, u)
        for s, comp in zip(traj.samples, u):
            assert np.array_equal(s[rows[n * m]], comp)

    stored = integrate_over_period(model, u0, store=True)
    once = integrate_over_period(model, u0)
    for s, first, last in zip(stored, u0, once):
        assert s.shape == (m + 1, len(first))
        assert np.array_equal(s[0], first)
        assert np.array_equal(s[m], last)


def test_state_shape_checks(grid, endemic_c):
    model = NonlinearModel(kind="full", c=endemic_c, bc1=NEUMANN[0],
                           bc2=NEUMANN[1], grid=grid)
    bad = (np.ones(33), np.ones(10), np.ones(33))
    with pytest.raises(InputError):
        integrate_over_period(model, bad)
    with pytest.raises(InputError):
        NonlinearModel(kind="sir", c=endemic_c, bc1=NEUMANN[0],
                       bc2=NEUMANN[1], grid=grid)
    with pytest.raises(InputError):
        NonlinearModel(kind="truncated", c=endemic_c, bc1=NEUMANN[0],
                       bc2=NEUMANN[1], grid=grid)  # missing the band edges


def test_mixed_layouts_step_together(endemic_c):
    # host pinned at the ends, vectors no-flux: layouts differ per component
    g = build_grid(0.0, 1.0, 15, 1.0, 32)
    bc1 = BoundarySpec.dirichlet(1)
    bc2 = BoundarySpec.neumann(2)
    model = NonlinearModel(kind="full", c=endemic_c, bc1=bc1, bc2=bc2, grid=g)
    u0 = build_initial_state(g, bc1, bc2, (1.0, 0.5, 0.1))
    assert u0[0].shape == (15,)
    assert u0[1].shape == (17,)
    u1 = integrate_over_period(model, u0)
    assert all(float(np.min(comp)) >= 0.0 for comp in u1)


def test_non_positive_n_periods_is_refused_by_name(grid, endemic_c):
    model = NonlinearModel(kind="full", c=endemic_c, bc1=NEUMANN[0],
                           bc2=NEUMANN[1], grid=grid)
    u0 = build_initial_state(grid, *NEUMANN, (1.0, 0.5, 0.1))
    for n in (0, -1, -2):
        with pytest.raises(DomainError, match=f"n_periods must be a positive count, got {n}$"):
            integrate_trajectory(model, u0, n, sample_stride=8)


# ───────────────────────────────────────────────── the per-step cap rule ──


def test_cap_is_checked_mid_period():
    # level 0 of the README carrying orbit peaks at 0.850 and the orbit at
    # 1.159 mid-period, then returns to 0.850: a cap of 1 must catch the
    # crossing that neither period boundary shows
    g = build_grid(0.0, 1.0, 31, 1.0, 128)
    c = make_constants(beta="2 + sin(2*pi*t)", d2="0.5")
    V = solve_logistic_orbit(c, NEUMANN[1], g).orbit
    u0 = (V.level(0, 0),)
    free = NonlinearModel(kind="logistic", c=c, bc1=NEUMANN[0], bc2=NEUMANN[1], grid=g)
    assert np.max(u0[0]) < 1.0 < V.sup_norm()
    assert np.max(integrate_over_period(free, u0)[0]) < 1.0
    capped = NonlinearModel(kind="logistic", c=c, bc1=NEUMANN[0], bc2=NEUMANN[1],
                            grid=g, cap=1.0)
    with pytest.raises(BlowupError, match="^state exceeded blow-up cap 1$"):
        integrate_over_period(capped, u0)


@pytest.mark.parametrize("kind", ["logistic", "full", "truncated"])
def test_cap_edge_is_exact(kind):
    # P is the exact peak over every step after the start: a cap of P
    # passes, the next float below it fails with the finite message
    g = build_grid(0.0, 1.0, 15, 1.0, 32)
    c = make_constants(beta="2 + sin(2*pi*t)", H_u="5*(1 + 0.5*cos(pi*x))")
    V = None
    if kind == "truncated":
        V = solve_logistic_orbit(c, NEUMANN[1], g).orbit
        u0 = (np.ones(17), 0.2 * V.level(0, 0))
    else:
        u0 = (np.full(17, 0.3),) if kind == "logistic" else \
            (np.ones(17), np.full(17, 0.5), np.full(17, 0.1))

    def model(cap):
        return NonlinearModel(kind=kind, c=c, bc1=NEUMANN[0], bc2=NEUMANN[1],
                              grid=g, V=V, cap=cap)

    traj = integrate_trajectory(model(np.inf), u0, 2)
    P = max(float(np.max(np.abs(s[1:]))) for s in traj.samples)
    at_edge = integrate_trajectory(model(P), u0, 2)
    for a, b in zip(at_edge.samples, traj.samples):
        assert np.array_equal(a, b)
    with pytest.raises(BlowupError, match="exceeded"):
        integrate_trajectory(model(np.nextafter(P, 0.0)), u0, 2)


def test_cap_pre_filter_does_not_warn_when_squares_overflow():
    # Hi = 1e170 squares past the largest float, so the pre-filter's sum of
    # squares overflows: that is bookkeeping, not the model, and a cap of
    # 1e200 must run silently to the same bits as no cap
    g = build_grid(0.0, 1.0, 15, 1.0, 32)
    c = make_constants(beta="2 + sin(2*pi*t)", H_u="5*(1 + 0.5*cos(pi*x))")
    V = solve_logistic_orbit(c, NEUMANN[1], g).orbit
    u0 = (np.full(17, 1e170), 0.2 * V.level(0, 0))

    def model(cap):
        return NonlinearModel(kind="truncated", c=c, bc1=NEUMANN[0], bc2=NEUMANN[1],
                              grid=g, V=V, cap=cap)

    free = integrate_trajectory(model(np.inf), u0, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        capped = integrate_trajectory(model(1e200), u0, 2)
    for a, b in zip(capped.samples, free.samples):
        assert np.array_equal(a, b)
    with pytest.raises(BlowupError, match=r"^state exceeded blow-up cap 1e\+169$"):
        integrate_trajectory(model(1e169), u0, 2)


def test_non_finite_state_is_named_under_a_huge_cap(grid, endemic_c):
    # 1e200 squared overflows to inf, the same as an infinite state's
    # square: the message must still name the state non-finite
    model = NonlinearModel(kind="full", c=endemic_c, bc1=NEUMANN[0],
                           bc2=NEUMANN[1], grid=grid, cap=1e200)
    u0 = build_initial_state(grid, *NEUMANN, (1.0, 0.5, 0.1))
    u0[2][7] = np.inf
    with pytest.raises(BlowupError, match="non-finite"):
        integrate_over_period(model, u0)


# ──────────────────────────────── the loops against the step formulas ──


class ReferenceSteps:
    """The IMEX step of each system kind, transcribed formula by formula
    and taken one step at a time: the reference the stepping loops must
    reproduce bit for bit."""

    def __init__(self, system):
        g = system.grid
        self.system, self.dt, self.m = system, g.dt, g.steps_per_period
        ts = g.level_times()

        def banded(d, bc, decay=0.0):
            D = assemble_diffusion(g, d, bc, ts)
            ab = np.zeros(D.diag.shape[:-1] + (3, D.n))
            ab[..., 0, 1:] = -g.dt * D.upper
            ab[..., 1, :] = 1.0 - g.dt * D.diag + g.dt * decay
            ab[..., 2, :-1] = -g.dt * D.lower
            return ab

        if isinstance(system, LinearPeriodicSystem):    # the host profile
            (comp,), ((decay,),), (src,) = system.comps, system.coupling, system.source
            self.src = g.lattice(src, comp.bc)
            self.ab = banded(comp.d, comp.bc, -g.lattice(decay, comp.bc))
            return
        c, bc1, bc2 = system.c, system.bc1, system.bc2
        self.ab2 = banded(c.d2, bc2)
        self.sigma2, self.beta = g.lattice(c.sigma2, bc2), g.lattice(c.beta, bc2)
        self.mu1, self.mu2 = g.lattice(c.mu1, bc2), g.lattice(c.mu2, bc2)
        self.ab_h = banded(c.d1, bc1, g.lattice(c.rho, bc1))
        self.s1hu = g.lattice(c.sigma1, bc1) * g.lattice(c.H_u, bc1)
        if system.kind == "truncated":
            self.V = g.lattice(system.V.samples[0][:-1], bc2)
            self.ab_z = banded(c.d2, bc2, self.mu1 + self.mu2 * np.roll(self.V, 1, axis=0))

    @staticmethod
    def solve(ab, rhs):
        return dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)[3]

    def vector_matrix(self, j1, total):
        ab = self.ab2[j1].copy()
        ab[1] += self.dt * (self.mu1[j1] + self.mu2[j1] * total)
        return ab

    def step(self, u, k):
        s, dt, solve = self.system, self.dt, self.solve
        j0, j1 = k % self.m, (k + 1) % self.m
        if isinstance(s, LinearPeriodicSystem):
            return (solve(self.ab[j1], u[0] + dt * self.src[j0]),)
        if s.kind == "logistic":
            (V,) = u
            return (solve(self.vector_matrix(j1, V), V + dt * self.beta[j0] * V),)
        if s.kind == "full":
            Hi, Vu, Vi = u
            Vsum = Vu + Vi
            trans = self.sigma2[j0] * Vu * map_between(Hi, s.bc1, s.bc2)
            ab_v = self.vector_matrix(j1, Vsum)
            Vsum_n = solve(ab_v, Vsum + dt * self.beta[j0] * Vsum)
            Vi_n = solve(ab_v, Vi + dt * trans)
            Hi_n = solve(self.ab_h[j1], Hi + dt * self.s1hu[j0] * map_between(Vi, s.bc2, s.bc1))
            return (Hi_n, Vsum_n - Vi_n, Vi_n)
        Hi, Z = u
        pos = np.maximum(self.V[j0] - Z, 0.0)
        trans = self.sigma2[j0] * pos * map_between(Hi, s.bc1, s.bc2)
        Z_n = solve(self.ab_z[j1], Z + dt * trans)
        Hi_n = solve(self.ab_h[j1], Hi + dt * self.s1hu[j0] * map_between(Z, s.bc2, s.bc1))
        return (Hi_n, Z_n)


def _systems(bcs):
    """Every system kind on one layout pair at 15/40, with start states;
    dt = 1/40 is not a power of two, so products with dt round."""
    bc1, bc2 = bcs
    g = build_grid(0.0, 1.0, 15, 1.0, 40)
    c = make_constants(beta="3 + sin(2*pi*t)", d2="0.5*(1 + x*x)", sigma1="0.7 + 0.2*x",
                       H_u="5*(1 + 0.5*cos(pi*x))", mu2="1 + 0.3*cos(2*pi*t)")
    V = solve_logistic_orbit(c, bc2, g).orbit
    assert V.min_value() > 0.4       # a carrying orbit, not the zero state
    h0 = np.linspace(0.5, 1.5, g.n_unknowns(bc1))
    v0 = V.level(0, 0)
    # the host profile's system, its source as periodic.solve_Hbar builds it
    # on the carrying orbit, its removal rate seasonal
    host = LinearPeriodicSystem(
        grid=g, comps=(ComponentSpec(d=c.d1, bc=bc1),),
        coupling=((parse_expression("-1 - 0.5*sin(2*pi*t)"),),),
        source=(g.lattice(c.sigma1, bc1) * g.lattice(c.H_u, bc1)
                * map_between(V.lattice(), bc2, bc1),))

    def model(kind, **kw):
        return NonlinearModel(kind=kind, c=c, bc1=bc1, bc2=bc2, grid=g, **kw)

    return g, [
        (model("logistic"), (0.5 * v0,)),
        (model("full"), (h0, 0.8 * v0, 0.2 * v0)),
        (model("truncated", V=V), (h0, 0.3 * v0)),
        (host, (h0,)),
    ]


@pytest.mark.parametrize("bcs", [NEUMANN, DIRICHLET_ROBIN],
                         ids=["neumann-neumann", "dirichlet-robin"])
def test_stepping_loops_match_the_step_formulas_bit_for_bit(bcs):
    g, cases = _systems(bcs)
    m = g.steps_per_period
    for system, u0 in cases:
        ref = ReferenceSteps(system)
        levels, u = [u0], u0
        for k in range(2 * m):
            u = ref.step(u, k)
            levels.append(u)
        stored = integrate_over_period(system, u0, store=True)
        for comp, s in enumerate(stored):
            assert np.array_equal(s, np.array([lv[comp] for lv in levels[:m + 1]]))
        once = integrate_over_period(system, u0)
        assert all(np.array_equal(a, b) for a, b in zip(once, levels[m]))
        traj = integrate_trajectory(system, u0, 2, sample_stride=8)
        assert traj.steps.tolist() == list(range(0, 2 * m + 1, 8))
        for comp, s in enumerate(traj.samples):
            assert np.array_equal(s, np.array([levels[k][comp] for k in traj.steps]))


def _full_step_two_solves(P, u, k):
    """The "full" step on the prepared model P's own lattices, with V_sum
    and V_i solved by two separate _solve calls on the one vector matrix."""
    model = P.model
    bc1, bc2 = model.bc1, model.bc2
    m, dt = model.grid.steps_per_period, np.array(model.grid.dt)
    j0, j1 = k % m, (k + 1) % m
    dl, d, du = P.diags2
    Hi, Vu, Vi = u
    Vsum = Vu + Vi
    trans = P.sigma2[j0] * Vu * map_between(Hi, bc1, bc2)
    A = dl[j1], d[j1] + dt * (P.mu1[j1] + P.mu2[j1] * Vsum), du[j1]
    Vsum_n = stepper._solve(A, Vsum + P.dt_beta[j0] * Vsum)
    Vi_n = stepper._solve(A, Vi + dt * trans)
    Hi_n = stepper._solve(P.lu_h[j1], Hi + P.dt_s1hu[j0] * map_between(Vi, bc2, bc1))
    return Hi_n, Vsum_n - Vi_n, Vi_n


@pytest.mark.parametrize("bcs", [NEUMANN,
                                 (BoundarySpec.dirichlet(1), BoundarySpec.neumann(2)),
                                 (BoundarySpec.robin(1, 0.5, 1.5), BoundarySpec.dirichlet(2))],
                         ids=["neumann", "dirichlet-host", "robin-host-dirichlet-vector"])
def test_full_step_one_solve_matches_two_solves_bit_for_bit(bcs):
    bc1, bc2 = bcs
    g = build_grid(0.0, 1.0, 15, 1.0, 40)
    c = make_constants(beta="3 + sin(2*pi*t)", d2="0.5*(1 + x*x)", sigma1="0.7 + 0.2*x",
                       H_u="5*(1 + 0.5*cos(pi*x))", mu2="1 + 0.3*cos(2*pi*t)")
    model = NonlinearModel(kind="full", c=c, bc1=bc1, bc2=bc2, grid=g)
    x1, x2 = g.nodes_for(bc1), g.nodes_for(bc2)
    u0 = (1.0 + 0.5 * np.cos(np.pi * x1), 1.5 + 0.3 * x2, 0.2 + 0.1 * np.sin(np.pi * x2))
    P, m = prepare(model), g.steps_per_period
    u, boundaries = u0, []
    for k in range(3 * m):
        u = _full_step_two_solves(P, u, k)
        if (k + 1) % m == 0:
            boundaries.append(u)
    traj = integrate_trajectory(model, u0, 3, sample_stride=m)
    assert traj.steps.tolist() == [0, m, 2 * m, 3 * m]
    for comp, s in enumerate(traj.samples):
        for row, ref in zip(s[1:], boundaries):
            assert row.tobytes() == ref[comp].tobytes()


def test_one_period_map_makes_the_solves_the_benchmark_counts(monkeypatch):
    # the benchmark counts solved columns per step from the model kind:
    # 1 logistic, 2 truncated, 3 full, one per component of a linear
    # system (the host profile has one); "full" solves its two vector
    # columns in one call
    g, cases = _systems(NEUMANN)
    real, calls, columns = stepper._solve, [0], [0]

    def counted(lu, rhs):
        calls[0] += 1
        columns[0] += 1 if rhs.ndim == 1 else rhs.shape[1]
        return real(lu, rhs)

    monkeypatch.setattr(stepper, "_solve", counted)
    for system, u0 in cases:
        per_step = (len(system.comps) if isinstance(system, LinearPeriodicSystem)
                    else {"logistic": 1, "truncated": 2, "full": 3}[system.kind])
        calls[0] = columns[0] = 0
        integrate_over_period(system, u0)
        assert columns[0] == per_step * g.steps_per_period
        full = isinstance(system, NonlinearModel) and system.kind == "full"
        assert calls[0] == (per_step - full) * g.steps_per_period


# ──────────────────────────────── the tridiagonal kernel ──


@pytest.mark.parametrize("n", [3, 33, 129])
def test_factors_solve_as_gtsv_does_under_row_interchanges(n):
    # |dl| > |d| makes gttrf interchange rows, which fills du2 and the
    # pivots; n = 3 is the smallest layout (Dirichlet at nx = 3)
    rng = np.random.default_rng(n)
    levels = 4
    D = DiffusionMatrix(lower=rng.choice([-1.0, 1.0], (levels, n - 1))
                        * rng.uniform(2.0, 3.0, (levels, n - 1)),
                        diag=rng.uniform(0.0, 2.0, (levels, n)),
                        upper=rng.normal(size=(levels, n - 1)))
    dl, d, du = stepper._implicit(D, 1.0)     # the matrices the factors hold
    factors = stepper._factored(D, 1.0)
    assert len(factors) == levels
    for j, lu in enumerate(factors):
        # the stored factor is gttrf's own output on the level's diagonals
        raw = dgttrf(dl[j], d[j], du[j])[:5]
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                   for a, b in zip(lu, raw))
        _, _, _, du2, ipiv = lu
        assert ipiv.dtype == np.int32 and np.any(ipiv != np.arange(1, n + 1))
        assert np.any(du2 != 0.0)
        stepwise = stepper._factor(dl[j].copy(), d[j].copy(), du[j].copy())
        # a one-shot matrix is solved on its diagonals, which must survive:
        # "full" solves twice on one diagonal
        diags = (dl[j].copy(), d[j].copy(), du[j].copy())
        for rhs in rng.normal(size=(3, n)):
            ref = dgtsv(dl[j], d[j], du[j], rhs)[3]
            assert np.array_equal(stepper._solve(lu, rhs.copy()), ref)
            assert np.array_equal(stepper._solve(stepwise, rhs.copy()), ref)
            assert np.array_equal(stepper._solve(diags, rhs.copy()), ref)
            assert all(np.array_equal(a, b) for a, b in
                       zip(diags, (dl[j], d[j], du[j])))
