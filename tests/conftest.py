"""Shared fixtures: the three constant-coefficient regimes and their
cached classification reports.

Classification is the expensive step (logistic orbit, invasion
eigenvalue, endemic pair), so the reports are session-scoped and shared
between the unit tests and the acceptance gate.
"""

import numpy as np
import pytest

from vectorhost import (BoundarySpec, CoefficientSet, ComponentSpec,
                        LinearPeriodicSystem, NonlinearModel, build_grid,
                        classify_regime, integrate_over_period, map_between,
                        solve_logistic_orbit)


def make_constants(**overrides):
    """Constant endemic baseline; pass expression strings to change fields."""
    fields = {"rho": "1", "sigma1": "1", "sigma2": "1", "beta": "2",
              "mu1": "1", "mu2": "1", "d1": "1", "d2": "1", "H_u": "5"}
    fields.update(overrides)
    return CoefficientSet.from_strings(**fields)


def order_preservation_margin(bcs, seed, draws=4):
    """Worst margin, over random ordered nonnegative states lo <= hi and
    s in (0, 1), of P(hi) - P(lo) (monotone) and P(s*hi) - s*P(hi)
    (sublinear) for one period P of each map the orbit solvers squeeze
    between sub- and supersolutions: the host profile, the logistic map and
    the truncated map on the carrying orbit.  Both properties hold when
    the margin is nonnegative up to roundoff.

    Host states keep dt*sigma2*H below 1 at every step, asserted on the
    stored levels: at or above it the explicit infection step
    Z + dt*sigma2*H*(V - Z) is not monotone in Z, and the truncated map need
    not preserve order."""
    bc1, bc2 = bcs
    g = build_grid(0.0, 1.0, 31, 1.0, 64)
    c = make_constants(beta="3 + sin(2*pi*t)", d2="0.5*(1 + x*x)", sigma1="0.7 + 0.2*x",
                       sigma2="1 + 0.5*sin(2*pi*t)*x", H_u="5*(1 + 0.5*cos(pi*x))",
                       mu2="1 + 0.3*cos(2*pi*t)")
    V = solve_logistic_orbit(c, bc2, g).orbit
    host = LinearPeriodicSystem(
        grid=g, comps=(ComponentSpec(d=c.d1, bc=bc1),),
        coupling=((-g.lattice(c.rho, bc1),),),
        source=(g.lattice(c.sigma1, bc1) * g.lattice(c.H_u, bc1)
                * map_between(V.lattice(), bc2, bc1),))
    dt_sigma2 = g.dt * float(np.max(g.lattice(c.sigma2, bc2)))
    h_top = 0.5 / dt_sigma2
    v_top = 1.5 * V.sup_norm()

    def model(kind, **kw):
        return NonlinearModel(kind=kind, c=c, bc1=bc1, bc2=bc2, grid=g, **kw)

    maps = [(host, ((bc1, h_top),)), (model("logistic"), ((bc2, v_top),)),
            (model("truncated", V=V), ((bc1, h_top), (bc2, v_top)))]
    rng = np.random.default_rng(seed)
    worst = np.inf
    for system, layout in maps:
        for _ in range(draws):
            pairs = [np.sort(rng.uniform(0.0, top, (2, g.n_unknowns(bc))), axis=0)
                     for bc, top in layout]
            s = rng.uniform(0.0, 1.0)
            images = [integrate_over_period(system, u, store=True) for u in
                      (tuple(p[0] for p in pairs), tuple(p[1] for p in pairs),
                       tuple(s * p[1] for p in pairs))]
            if isinstance(system, NonlinearModel) and system.kind == "truncated":
                assert dt_sigma2 * max(float(np.max(levels[0])) for levels in images) < 1.0
            P_lo, P_hi, P_shi = [tuple(comp[-1] for comp in levels) for levels in images]
            worst = min(worst, *(float(np.min(b - a)) for a, b in zip(P_lo, P_hi)),
                        *(float(np.min(b - s * a)) for a, b in zip(P_hi, P_shi)))
    return worst


@pytest.fixture(scope="session")
def endemic_c():
    # zeta = mu1 - beta = -1, lambda(V=1) = (3 - sqrt(21))/2 < 0
    return make_constants()


@pytest.fixture(scope="session")
def disease_free_c():
    # H_u = 1 flips the invasion sign: lambda(V=1) = (3 - sqrt(5))/2 > 0
    return make_constants(H_u="1")


@pytest.fixture(scope="session")
def extinction_c():
    # zeta = mu1 - beta = +1: the vector population collapses
    return make_constants(beta="1", mu1="2")


@pytest.fixture(scope="session")
def neumann_bcs():
    return (BoundarySpec.neumann(1), BoundarySpec.neumann(2))


@pytest.fixture(scope="session")
def grid31():
    return build_grid(0.0, 1.0, 31, 1.0, 128)


@pytest.fixture(scope="session")
def endemic_report(endemic_c, neumann_bcs, grid31):
    return classify_regime(endemic_c, neumann_bcs, grid31)


@pytest.fixture(scope="session")
def disease_free_report(disease_free_c, neumann_bcs, grid31):
    return classify_regime(disease_free_c, neumann_bcs, grid31)


@pytest.fixture(scope="session")
def extinction_report(extinction_c, neumann_bcs, grid31):
    return classify_regime(extinction_c, neumann_bcs, grid31)

