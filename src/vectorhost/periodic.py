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
below the decision band.

Both orbits share one two-sided construction: _growing_seed finds the
lower seed by halving, _iterate_to_fixed_point carries each sequence to
its limit, and a Bracket record keeps both sequences, reading the gap and
the period count off them.
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


@dataclass(frozen=True, kw_only=True)
class Bracket:
    """Both monotone sequences of a two-sided orbit construction: the
    period-boundary states (component tuples) of each, empty for the zero
    orbit, whose last entries are the two limits; orbit is the stored
    period of the upper limit."""

    orbit: PeriodicOrbit
    upper_history: tuple
    lower_history: tuple

    @property
    def gap(self) -> float:
        """Sup distance between the two limits (0.0 for the zero orbit)."""
        up, low = self.upper_history, self.lower_history
        return _sup_gap(up[-1], low[-1]) if up else 0.0

    @property
    def converged_in(self) -> int:
        """Period maps the longer sequence took from its seed to its limit."""
        return max(len(self.upper_history) - 1, len(self.lower_history))


@dataclass(frozen=True, kw_only=True)
class LogisticOrbitResult(Bracket):
    """Carrying orbit of the vector total plus its growth threshold."""

    zeta_result: EigenResult

    @property
    def zeta(self) -> float:
        return self.zeta_result.value


@dataclass(frozen=True, kw_only=True)
class EndemicPairResult(Bracket):
    """Upper/lower limits of the truncated infection system: orbit, with
    components (H_i, V_i), is the endemic orbit; lower_residual is the sup
    gap of one more period map of the lower limit."""

    lambda_V_result: EigenResult
    lower_residual: float


# ─────────────────────────────────────────────────────────────── helpers ──


def band_sign(value: float, band: float) -> int:
    """The decision-band rule of every threshold test: +1 when value >= band,
    -1 when value <= -band, 0 inside the band (NaN included)."""
    return 1 if value >= band else -1 if value <= -band else 0


def _sup_gap(u: tuple, v: tuple) -> float:
    """Sup distance between two states (tuples of component arrays)."""
    return max(float(np.max(np.abs(a - b))) for a, b in zip(u, v))


def _iterate_to_fixed_point(model, prepared, history: list, o: SolverOptions,
                            label: str) -> tuple:
    """Period-map iteration from history[-1], appending every image (a fresh
    tuple of fresh arrays) to history, until two successive boundaries
    agree within o.orbit_tol; returns the limit."""
    u = history[-1]
    for _ in range(o.max_periods):
        nxt = integrate_over_period(model, u, prepared=prepared)
        delta = _sup_gap(nxt, u)
        u = nxt
        history.append(u)
        if delta <= o.orbit_tol:
            return u
    raise NoConvergence(
        f"{label} iteration still moving after {o.max_periods} periods "
        f"(last change {delta:.3g}, tol {o.orbit_tol:g})", o.max_periods)


def _growing_seed(model, P, profile, dl: float, floor, what: str) -> tuple:
    """First period image of d*profile, d = dl * 2**-k for k < _MAX_HALVINGS
    (each d exact: the bits of halving dl k times), that falls below its
    seed by at most floor(seed component) in every component;
    NoConvergence, naming the `what` being seeded, if there is none."""
    for k in range(_MAX_HALVINGS):
        d = math.ldexp(dl, -k)
        seed = tuple(d * p for p in profile)
        nxt = integrate_over_period(model, seed, prepared=P)
        if all(float(np.min(a - b)) >= -floor(b) for a, b in zip(nxt, seed)):
            return nxt
    raise NoConvergence(f"no growing lower seed found for the {what}", _MAX_HALVINGS)


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
            upper_history=(), lower_history=(), zeta_result=rz)

    model = NonlinearModel(kind="logistic", c=c, bc1=BoundarySpec.neumann(1),
                           bc2=bc2, grid=g, cap=o.blowup_cap)
    P = prepare(model)
    xfull, ts = g.full_nodes(), g.level_times()
    bmax = float(np.max(field_lattice(c.beta, xfull, ts) - field_lattice(c.mu1, xfull, ts)))
    mu2 = field_lattice(c.mu2, xfull, ts)
    mu2_lo, mu2_hi = float(np.min(mu2)), float(np.max(mu2))
    K = 1.0 + max(bmax, 0.0) / max(mu2_lo, 1e-8)

    lower = [_growing_seed(model, P, (rz.eigenfunction.level(0, 0),),
                           0.5 * abs(rz.value) / max(mu2_hi, 1e-8),
                           lambda seed: 1e-12 * max(1.0, K), "vector orbit")]
    upper = [(np.full(n2, K),)]
    up = _iterate_to_fixed_point(model, P, upper, o, "vector orbit (upper seed)")
    low = _iterate_to_fixed_point(model, P, lower, o, "vector orbit (lower seed)")
    agreement = _sup_gap(up, low)
    if agreement > AGREEMENT_FACTOR * o.orbit_tol:
        raise NonUniqueOrbit(
            f"upper and lower vector-orbit limits differ by {agreement:.3g} "
            f"(allowed {AGREEMENT_FACTOR * o.orbit_tol:g}); the orbit is not certified unique")

    orbit = PeriodicOrbit(integrate_over_period(model, up, prepared=P, store=True))
    return LogisticOrbitResult(orbit=orbit, upper_history=tuple(upper),
                               lower_history=tuple(lower), zeta_result=rz)


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
    u = _iterate_to_fixed_point(sys, P, [(np.zeros(grid.n_unknowns(bc1)),)], o,
                                "host profile")
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
    lower = [_growing_seed(model, P, profile, 2.0 ** np.floor(np.log2(min(ratios))),
                           floor, "endemic pair")]
    upper = [up_seed, up1]
    up = _iterate_to_fixed_point(model, P, upper, o, "endemic pair (upper)")
    low = _iterate_to_fixed_point(model, P, lower, o, "endemic pair (lower)")
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
        orbit=orbit, upper_history=tuple(upper), lower_history=tuple(lower),
        lambda_V_result=lamV, lower_residual=lower_residual)
