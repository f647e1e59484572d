"""Construction of the periodic attractors by monotone period-map iteration.

solve_logistic_orbit squeezes the vector-total carrying orbit between a
constant supersolution and a small multiple of the growth eigenfunction;
when the growth threshold zeta is nonnegative (up to the decision band)
the zero orbit is returned instead.

solve_Hbar iterates the affine host equation driven by one vector orbit;
the host decay rate makes the period map a contraction.

solve_endemic_pair runs the classical two-sided scheme on the truncated
infection system: an upper seed built from the host profile and the
carrying orbit, a lower seed proportional to the invasion eigenfunction,
both iterated until they meet.  It is built on the logistic result its
caller passes; one gate refuses it unless zeta and then lambda(V) lie
below the decision band.  Its result keeps the upper limit as one
(H_i, V_i) orbit.

Both orbits share one two-sided construction: _growing_seed finds the
lower seed by halving, and _iterate_to_fixed_point carries each sequence
to its limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSet, field_lattice
from .coeffs import field_values  # noqa: F401  (name the benchmark tracer wraps here)
from .eigen import (EigenResult, PeriodicOrbit, SolverOptions, gamma_rho,
                    lambda_V, zeta)
from .eigen import lambda_V as lambda_V_eps  # noqa: F401  (name the benchmark tracer wraps here)
from .errors import (GapError, InputError, InternalError, NoConvergence,
                     NonUniqueOrbit, RegimeError)
from .grid import BoundarySpec, Grid, map_between
from .stepper import (ComponentSpec, LinearPeriodicSystem, NonlinearModel,
                      infection_step_hint, integrate_over_period, prepare)

__all__ = [
    "LogisticOrbitResult", "EndemicPairResult",
    "solve_logistic_orbit", "solve_Hbar", "solve_endemic_pair",
]

AGREEMENT_FACTOR = 10.0   # two-seed limits of the same orbit
GAP_FACTOR = 100.0        # endemic upper/lower gap certifying uniqueness
_MAX_HALVINGS = 60
# relative bump turning the tol-accurate host profile into a strict
# discrete supersolution, so the recorded upper sequence decreases
# monotonically at roundoff slack
_SUPERSOLUTION_BUMP = 1e-6


@dataclass(frozen=True)
class LogisticOrbitResult:
    """Carrying orbit of the vector total plus its growth diagnostics.

    orbit is the upper-seed limit; agreement_gap is the sup distance to
    the lower-seed limit (a uniqueness witness)."""

    orbit: PeriodicOrbit
    zeta_result: EigenResult
    converged_in: int
    agreement_gap: float

    @property
    def zeta(self) -> float:
        return self.zeta_result.value


@dataclass(frozen=True)
class EndemicPairResult:
    """Upper/lower limits of the truncated infection system.

    orbit is the upper limit, components (H_i, V_i): the endemic orbit.
    The lower limit is not kept, only its residual.  gap is the final sup
    distance between the two limits; the histories hold the period
    boundary snapshots (tuples of component arrays) of each sequence.
    """

    orbit: PeriodicOrbit
    lower_residual: float
    gap: float
    converged_in: int
    lambda_V_result: EigenResult
    upper_history: tuple
    lower_history: tuple


# ─────────────────────────────────────────────────────────────── helpers ──


def band_sign(value: float, band: float) -> int:
    """The decision-band rule of every threshold test: +1 when value >= band,
    -1 when value <= -band, 0 inside the band (NaN included)."""
    return 1 if value >= band else -1 if value <= -band else 0


def _sup_gap(u: tuple, v: tuple) -> float:
    """Sup distance between two states (tuples of component arrays)."""
    return max(float(np.max(np.abs(a - b))) for a, b in zip(u, v))


def _iterate_to_fixed_point(model, prepared, u: tuple, tol: float,
                            max_periods: int, label: str,
                            history: list | None = None):
    """Period-map iteration until two successive boundaries agree within tol.

    Every image is a fresh tuple of fresh arrays, so the history keeps them
    as they are."""
    if history is not None:
        history.append(u)
    for n in range(1, max_periods + 1):
        nxt = integrate_over_period(model, u, prepared=prepared)
        delta = _sup_gap(nxt, u)
        u = nxt
        if history is not None:
            history.append(u)
        if delta <= tol:
            return u, n
    raise NoConvergence(
        f"{label} iteration still moving after {max_periods} periods "
        f"(last change {delta:.3g}, tol {tol:g})", max_periods)


def _growing_seed(model, P, profile, dl: float, floor):
    """First period image of d*profile, d = dl * 2**-k for k < _MAX_HALVINGS
    (each d exact: the bits of halving dl k times), that falls below its
    seed by at most floor(seed component) in every component; None if no
    such image exists."""
    for k in range(_MAX_HALVINGS):
        d = math.ldexp(dl, -k)
        seed = tuple(d * p for p in profile)
        nxt = integrate_over_period(model, seed, prepared=P)
        if all(float(np.min(a - b)) >= -floor(b) for a, b in zip(nxt, seed)):
            return nxt
    return None


# ─────────────────────────────────────────────── the vector total orbit ──


def solve_logistic_orbit(c: CoefficientSet, bc2: BoundarySpec, grid: Grid,
                         o: SolverOptions = SolverOptions()) -> LogisticOrbitResult:
    """Periodic orbit of the vector total (logistic with seasonal rates).

    When zeta > -band the zero orbit is returned (inside the band the
    positive orbit, if any, is below the solver's resolution).  Otherwise
    the upper seed is the constant K = 1 + max(beta-mu1)/min(mu2) and the
    lower seed a small multiple of the growth eigenfunction, halved until
    its first period map is nondecreasing.  Both are iterated to fixed
    points which must agree within 10*tol (tol = o.orbit_tol).

    Raises:
        NoConvergence: an iteration exhausted max_periods (or no growing
            lower seed was found).
        NonUniqueOrbit: the two limits disagree beyond 10*tol.
    """
    rz = zeta(c, bc2, grid, o)
    g = grid
    n2 = g.n_unknowns(bc2)
    if band_sign(rz.value, o.band) >= 0:
        return LogisticOrbitResult(
            orbit=PeriodicOrbit.zeros([n2], g.steps_per_period),
            zeta_result=rz, converged_in=0, agreement_gap=0.0)

    model = NonlinearModel(kind="logistic", c=c, bc1=BoundarySpec.neumann(1),
                           bc2=bc2, grid=g, cap=o.blowup_cap)
    P = prepare(model)
    xfull, ts = g.full_nodes(), g.level_times()
    bmax = float(np.max(field_lattice(c.beta, xfull, ts) - field_lattice(c.mu1, xfull, ts)))
    mu2 = field_lattice(c.mu2, xfull, ts)
    mu2_lo, mu2_hi = float(np.min(mu2)), float(np.max(mu2))
    K = 1.0 + max(bmax, 0.0) / max(mu2_lo, 1e-8)

    low = _growing_seed(model, P, (rz.eigenfunction.level(0, 0),),
                        0.5 * abs(rz.value) / max(mu2_hi, 1e-8),
                        lambda seed: 1e-12 * max(1.0, K))
    if low is None:
        raise NoConvergence(
            "no growing lower seed found for the vector orbit", _MAX_HALVINGS)
    up, n_up = _iterate_to_fixed_point(model, P, (np.full(n2, K),), o.orbit_tol,
                                       o.max_periods, "vector orbit (upper seed)")
    low, n_low = _iterate_to_fixed_point(model, P, low, o.orbit_tol,
                                         o.max_periods, "vector orbit (lower seed)")
    agreement = _sup_gap(up, low)
    if agreement > AGREEMENT_FACTOR * o.orbit_tol:
        raise NonUniqueOrbit(
            f"upper and lower vector-orbit limits differ by {agreement:.3g} "
            f"(allowed {AGREEMENT_FACTOR * o.orbit_tol:g}); the orbit is not certified unique")

    orbit = PeriodicOrbit(integrate_over_period(model, up, prepared=P, store=True))
    return LogisticOrbitResult(orbit=orbit, zeta_result=rz,
                               converged_in=max(n_up, n_low + 1), agreement_gap=agreement)


# ───────────────────────────────────────────────────── the host profile ──


def solve_Hbar(c: CoefficientSet, bcs, grid: Grid, V: PeriodicOrbit,
               o: SolverOptions = SolverOptions()) -> PeriodicOrbit:
    """Periodic host profile: the unique orbit with removal rho and source
    sigma1 * H_u * V, on the host layout of bcs[0]; the driving orbit V
    (the carrying orbit) is on the vector layout of bcs[1].

    V's layout is checked first, then the host decay rate is evaluated as a
    contraction guard (InternalError from gamma_rho if it fails to be
    positive); the affine period map is then iterated from zero.
    """
    bc1, bc2 = bcs
    if V.ncomp != 1 or V.samples[0].shape != (grid.steps_per_period + 1, grid.n_unknowns(bc2)):
        raise InputError("V must be a scalar orbit on this grid's lattice")
    gamma_rho(c, bc1, grid, o)
    src = (grid.lattice(c.sigma1, bc1) * grid.lattice(c.H_u, bc1)
           * map_between(V.lattice(), bc2, bc1))
    sys = LinearPeriodicSystem(
        grid=grid,
        comps=(ComponentSpec(d=c.d1, bc=bc1),),
        coupling=((-grid.lattice(c.rho, bc1),),),
        source=(src,))
    P = prepare(sys)
    u, _ = _iterate_to_fixed_point(sys, P, (np.zeros(grid.n_unknowns(bc1)),),
                                   o.orbit_tol, o.max_periods, "host profile")
    return PeriodicOrbit(integrate_over_period(sys, u, prepared=P, store=True))


# ─────────────────────────────────────────────────── the endemic pair ──


def _endemic_gate(value: float, band: float, absent: str, name: str,
                  inside: str) -> None:
    """RegimeError unless value <= -band.  At or above band the endemic
    orbit is absent: the message opens with `absent` and calls the value
    `name`.  Inside the band the state is unresolved (indeterminate): the
    message opens with `inside`."""
    side = band_sign(value, band)
    if side > 0:
        raise RegimeError(f"{absent} ({name} = {value:.6g} >= {band:g}); "
                          "endemic orbit absent")
    if side == 0:
        raise RegimeError(
            f"{inside} {value:.6g} lies inside the decision band "
            f"(+/-{band:g}); endemic state unresolved at this resolution",
            indeterminate=True)


def solve_endemic_pair(c: CoefficientSet, bcs, grid: Grid, o: SolverOptions,
                       logistic: LogisticOrbitResult,
                       lam: EigenResult | None = None,
                       hbar: PeriodicOrbit | None = None) -> EndemicPairResult:
    """Two-sided construction of the endemic orbit of the truncated system.

    The upper and lower limits bracket the endemic orbit itself.  The pair
    is built on the caller's logistic result (carrying orbit and zeta); the
    invasion eigenvalue and the host profile (solve_Hbar on that carrying
    orbit) may be passed to reuse earlier work, and are computed here when
    missing.

    Raises:
        RegimeError: zeta or the invasion exponent does not place the
            problem in the endemic regime.
        InternalError: the upper seed fails to decrease, or the
            infected-vector orbit exceeds the carrying orbit.
        NoConvergence: a monotone sequence exhausted max_periods or no
            growing lower seed was found.
        GapError: the limits stay further apart than 100*tol.
    """
    bc1, bc2 = bcs
    tol, band = o.orbit_tol, o.band
    rz, V = logistic.zeta_result, logistic.orbit
    _endemic_gate(rz.value, band, "the vector population dies out", "zeta",
                  "growth threshold")
    lamV = lam if lam is not None else lambda_V(c, (bc1, bc2), grid, V, o)
    _endemic_gate(lamV.value, band, "the disease-free state resists invasion",
                  "lambda(V)", "invasion exponent")

    slack = 10.0 * tol

    def floor(b):  # per-component slack, relative to the seed's scale
        return slack * max(1.0, float(np.max(np.abs(b))))

    Hbar = hbar if hbar is not None else solve_Hbar(c, bcs, grid, V, o)
    model = NonlinearModel(kind="truncated", c=c, bc1=bc1, bc2=bc2, grid=grid,
                           V=V, cap=o.blowup_cap)
    P = prepare(model)

    up_seed = (Hbar.level(0, 0) * (1.0 + _SUPERSOLUTION_BUMP), V.level(0, 0))
    up1 = integrate_over_period(model, up_seed, prepared=P)
    if not all(float(np.max(a - b)) <= floor(b) for a, b in zip(up1, up_seed)):
        raise InternalError("upper seed failed to decrease"
                            + infection_step_hint(grid, grid.lattice(c.sigma2, bc2),
                                                  Hbar.lattice(), bcs, "Hbar"))

    profile = tuple(lamV.eigenfunction.level(i, 0) for i in range(2))
    ratios = [float(np.min(0.5 * s[p > 1e-300] / p[p > 1e-300]))
              for s, p in zip(up_seed, profile)]
    low1 = _growing_seed(model, P, profile, 2.0 ** np.floor(np.log2(min(ratios))), floor)
    if low1 is None:
        raise NoConvergence("no growing lower seed found for the endemic pair", _MAX_HALVINGS)

    upper_history: list = [up_seed]
    lower_history: list = []
    up, n_up = _iterate_to_fixed_point(model, P, up1, tol, o.max_periods,
                                       "endemic pair (upper)", upper_history)
    low, n_low = _iterate_to_fixed_point(model, P, low1, tol, o.max_periods,
                                         "endemic pair (lower)", lower_history)
    gap = _sup_gap(up, low)
    if gap > GAP_FACTOR * tol:
        raise GapError(
            f"endemic upper/lower limits remain {gap:.3g} apart "
            f"(allowed {GAP_FACTOR * tol:g}); orbit not certified")

    orbit = PeriodicOrbit(integrate_over_period(model, up, prepared=P, store=True))
    lower_residual = _sup_gap(integrate_over_period(model, low, prepared=P), low)

    overshoot = float(np.max(orbit.samples[1] - V.samples[0]))
    if overshoot > slack * max(1.0, float(np.max(V.samples[0]))):
        raise InternalError(
            f"infected-vector orbit exceeds the carrying orbit by {overshoot:.3g}")

    return EndemicPairResult(
        orbit=orbit, lower_residual=lower_residual,
        gap=gap, converged_in=max(n_up + 1, n_low + 1), lambda_V_result=lamV,
        upper_history=tuple(upper_history), lower_history=tuple(lower_history))
