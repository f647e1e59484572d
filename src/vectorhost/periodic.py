"""Construction of the periodic attractors by monotone period-map iteration.

solve_logistic_orbit squeezes the vector-total carrying orbit between a
constant supersolution and a small multiple of the growth eigenfunction;
when the growth threshold zeta is nonnegative (up to the decision band)
the zero orbit is returned instead.

solve_Hbar iterates the affine host equation driven by one vector orbit;
the host decay rate makes the period map a contraction.

solve_endemic_pair runs the classical two-sided scheme on the truncated
infection system: an upper seed built from the host profile and the upper
band edge, a lower seed proportional to the invasion eigenfunction, both
iterated until they meet.  One gate refuses it unless zeta and then
lambda(V) lie below the decision band.  The band width eps is halved until
admissible (band_edges, the one home of the edges V +/- eps*phi, keeps
them positive; then the quadratic band inequality, a strictly negative
shifted invasion exponent and certified first-step monotonicity).  Its
result keeps the upper limit as one (H_i, V_i) orbit and the logistic
result it was built on.

Both orbits share one two-sided construction: _growing_seed finds the
lower seed, _iterate_to_fixed_point carries each sequence to its limit,
and _halvings is the one halving sequence of every seed and band width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSet, field_lattice
from .coeffs import field_values  # noqa: F401  (name the benchmark tracer wraps here)
from .eigen import (EigenResult, PeriodicOrbit, SolverOptions, gamma_rho,
                    lambda_V, lambda_V_eps, zeta)
from .errors import (EpsilonTooLarge, GapError, InputError, InternalError,
                     NoConvergence, NonUniqueOrbit, RegimeError)
from .grid import BoundarySpec, Grid, map_between
from .stepper import (ComponentSpec, LinearPeriodicSystem, NonlinearModel,
                      infection_step_hint, integrate_over_period, prepare)

__all__ = [
    "LogisticOrbitResult", "EndemicPairResult",
    "band_edges", "shrink_band", "solve_logistic_orbit", "solve_Hbar",
    "solve_endemic_pair",
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

    orbit is the upper limit, components (H_i, V_i): the endemic orbit
    when eps_used == 0, an upper envelope otherwise.  logistic is the
    carrying orbit and zeta the pair was built on; the lower limit is not
    kept, only its residual.  gap is the final sup distance between the
    two limits; the histories hold the period boundary snapshots (tuples
    of component arrays) of each sequence.
    """

    orbit: PeriodicOrbit
    logistic: LogisticOrbitResult
    eps_used: float
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


def band_edges(V: PeriodicOrbit, phi: PeriodicOrbit, eps: float) -> tuple:
    """The edge orbits (V + eps*phi, V - eps*phi) of the band around V; at
    eps = 0 both are V itself.  InputError unless phi is a scalar orbit on
    V's lattice; EpsilonTooLarge if V - |eps|*phi is not positive on every
    sample."""
    if phi.ncomp != 1 or phi.samples[0].shape != V.samples[0].shape:
        raise InputError("phi must be a scalar orbit on V's lattice")
    if eps == 0.0:
        return V, V
    shift = eps * phi.samples[0]
    upper, lower = V.samples[0] + shift, V.samples[0] - shift
    margin = float(np.min(lower if eps > 0.0 else upper))
    if not margin > 0.0:  # written so that NaN fails too
        raise EpsilonTooLarge(
            f"V - |eps|*phi reaches {margin:.3g} (eps={eps:g}); "
            "the band leaves the positive cone")
    return PeriodicOrbit((upper,)), PeriodicOrbit((lower,))


def _halvings(x: float, n: int = _MAX_HALVINGS + 1):
    """x * 2**-k for k = 0 .. n-1, each exact (the bits of halving x k times)."""
    for k in range(n):
        yield math.ldexp(x, -k)


def _sup_gap(u: tuple, v: tuple) -> float:
    """Sup distance between two states (tuples of component arrays)."""
    return max(float(np.max(np.abs(a - b))) for a, b in zip(u, v))


def shrink_band(V: PeriodicOrbit, phi: PeriodicOrbit, eps: float) -> tuple:
    """(e, upper, lower): the first width e = eps * 2**-k, k <= _MAX_HALVINGS,
    whose band band_edges accepts, and its two edge orbits; the last
    EpsilonTooLarge if every width leaves the positive cone."""
    for e in _halvings(eps):
        try:
            return (e, *band_edges(V, phi, e))
        except EpsilonTooLarge as err:
            refusal = err
    raise refusal


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
    """First period image of d*profile, d = dl * 2**-k for k < _MAX_HALVINGS,
    that falls below its seed by at most floor(seed component) in every
    component; None if no such image exists."""
    for d in _halvings(dl, _MAX_HALVINGS):
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
    (the carrying orbit, or the upper edge of a band around it) is on the
    vector layout of bcs[1].

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


def _band_admissible(c: CoefficientSet, grid: Grid, bc2: BoundarySpec,
                     V: PeriodicOrbit, phi: PeriodicOrbit,
                     eps: float, zeta_value: float) -> bool:
    """The band shift satisfies the pointwise quadratic inequality
    (eps*phi)^2 * mu2 - eps*phi*|beta + zeta| < beta*V on the lattice."""
    ephi = eps * phi.lattice()
    beta = grid.lattice(c.beta, bc2)
    lhs = ephi ** 2 * grid.lattice(c.mu2, bc2) - ephi * np.abs(beta + zeta_value)
    return bool(np.all(lhs < beta * V.lattice()))


def solve_endemic_pair(c: CoefficientSet, bcs, grid: Grid,
                       o: SolverOptions = SolverOptions(),
                       logistic: LogisticOrbitResult | None = None,
                       lam: EigenResult | None = None,
                       hbar: PeriodicOrbit | None = None) -> EndemicPairResult:
    """Two-sided construction of the endemic state of the truncated system.

    With eps == 0 the upper and lower limits bracket the endemic orbit
    itself; with eps > 0 they bracket the band-shifted envelope used by
    the sandwich argument.  eps = o.eps >= 0 is the initial rung of the
    halving ladder.  The logistic result (carrying orbit and zeta), the
    invasion eigenvalue and the eps = 0 host profile (solve_Hbar on that
    carrying orbit) may be passed to reuse earlier work; whatever is
    missing is computed here.

    Raises:
        RegimeError: zeta or the invasion exponent does not place the
            problem in the endemic regime, or no admissible band width
            exists.
        NoConvergence: a monotone sequence exhausted max_periods or no
            growing lower seed was found.
        GapError: the limits stay further apart than 100*tol.
    """
    bc1, bc2 = bcs
    eps, tol, band = o.eps, o.orbit_tol, o.band
    if logistic is None:
        logistic = solve_logistic_orbit(c, bc2, grid, o)
    rz, V = logistic.zeta_result, logistic.orbit
    _endemic_gate(rz.value, band, "the vector population dies out", "zeta",
                  "growth threshold")
    lamV = lam if lam is not None else lambda_V(c, (bc1, bc2), grid, V, o)
    _endemic_gate(lamV.value, band, "the disease-free state resists invasion",
                  "lambda(V)", "invasion exponent")

    phi = rz.eigenfunction
    slack = 10.0 * tol

    def floor(b):  # per-component slack, relative to the seed's scale
        return slack * max(1.0, float(np.max(np.abs(b))))

    for e in _halvings(eps):
        try:
            upper, lower = band_edges(V, phi, e)
        except EpsilonTooLarge:
            continue
        if e != 0.0 and not _band_admissible(c, grid, bc2, V, phi, e, rz.value):
            continue
        le = lamV if e == 0.0 else lambda_V_eps(c, bcs, grid, upper, lower, o)
        if band_sign(le.value, band) >= 0:   # a shifted rung: lamV passed the gate
            continue

        Hbar = hbar if e == 0.0 and hbar is not None else solve_Hbar(c, bcs, grid, upper, o)
        model = NonlinearModel(kind="truncated", c=c, bc1=bc1, bc2=bc2, grid=grid,
                               upper=upper, lower=lower, cap=o.blowup_cap)
        P = prepare(model)

        up_seed = (Hbar.level(0, 0) * (1.0 + _SUPERSOLUTION_BUMP), upper.level(0, 0))
        up1 = integrate_over_period(model, up_seed, prepared=P)
        if not all(float(np.max(a - b)) <= floor(b) for a, b in zip(up1, up_seed)):
            if e == 0.0:
                raise InternalError("upper seed failed to decrease with no band to shrink"
                                    + infection_step_hint(grid, grid.lattice(c.sigma2, bc2),
                                                          Hbar.lattice(), bcs, "Hbar"))
            continue

        profile = tuple(le.eigenfunction.level(i, 0) for i in range(2))
        ratios = [float(np.min(0.5 * s[p > 1e-300] / p[p > 1e-300]))
                  for s, p in zip(up_seed, profile)]
        low1 = _growing_seed(model, P, profile,
                             2.0 ** np.floor(np.log2(min(ratios))), floor)
        if low1 is None:
            if e == 0.0:
                raise NoConvergence(
                    "no growing lower seed found for the endemic pair", _MAX_HALVINGS)
            continue
        break
    else:  # every rung was rejected
        raise RegimeError(
            f"no admissible band width found below eps = {eps:g}; "
            "endemic construction abandoned")

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

    envelope = upper.samples[0]
    overshoot = float(np.max(orbit.samples[1] - envelope))
    if overshoot > slack * max(1.0, float(np.max(envelope))):
        raise InternalError(
            f"infected-vector orbit exceeds the band envelope by {overshoot:.3g}")

    return EndemicPairResult(
        orbit=orbit, logistic=logistic, eps_used=e, lower_residual=lower_residual,
        gap=gap, converged_in=max(n_up + 1, n_low + 1), lambda_V_result=lamV,
        upper_history=tuple(upper_history), lower_history=tuple(lower_history))
