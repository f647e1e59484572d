"""Regime classification and long-time verification of the full model.

classify_regime evaluates the threshold eigenvalues and names the
attractor: EXTINCTION (all zero), DISEASE_FREE (only the vector total
survives), ENDEMIC (the infection persists on a periodic orbit), or
INDETERMINATE when an eigenvalue sits inside the decision band and the
sign cannot be trusted at solver resolution.

verify_trichotomy integrates the full model and measures per-period sup
distances to the classified attractor, integrating in a worker process
while it classifies when two CPUs are usable; sandwich_check returns the
period N from which the total vector population stays in the +/- eps*phi
band around the carrying orbit, or None if it never enters for good.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._workers import Worker, usable_cpus
from .coeffs import CoefficientSet, Expression, field_values
from .eigen import EigenResult, PeriodicOrbit, SolverOptions, lambda_V
from .errors import InputError
from .grid import BoundarySpec, Grid
from .periodic import (EndemicPairResult, LogisticOrbitResult, band_edges, band_sign,
                       solve_endemic_pair, solve_logistic_orbit)
from .stepper import (NonlinearModel, Trajectory, check_trajectory,
                      integrate_trajectory)

__all__ = [
    "RegimeReport", "ConvergenceReport",
    "classify_regime", "verify_trichotomy", "sandwich_check",
    "build_initial_state",
    "EXTINCTION", "DISEASE_FREE", "ENDEMIC", "INDETERMINATE",
]

EXTINCTION = "EXTINCTION"
DISEASE_FREE = "DISEASE_FREE"
ENDEMIC = "ENDEMIC"
INDETERMINATE = "INDETERMINATE"

_TINY_ERROR = 1e-12   # distances below this carry no ratio information
DEFAULT_INITIAL = (1.0, 0.5, 0.1)   # (H_i, V_u, V_i) at t = 0 when none is given


@dataclass(frozen=True)
class RegimeReport:
    """Threshold values, the named regime, and the attractor orbit.

    zeta and lambda_V read logistic and lambda_V_result; lambda_V is None
    whenever the carrying orbit is zero (no state to invade).  attractor is
    a three-component orbit (host infected, vector uninfected, vector
    infected) or None for INDETERMINATE; with eps > 0 in the options the
    endemic attractor is the band envelope, not the orbit itself
    (verify_trichotomy classifies at eps = 0 and measures against the orbit).
    """

    regime: str
    attractor: PeriodicOrbit | None
    attractor_kind: str
    logistic: LogisticOrbitResult
    lambda_V_result: EigenResult | None = None
    pair: EndemicPairResult | None = None

    @property
    def zeta(self) -> float:
        return self.logistic.zeta

    @property
    def lambda_V(self) -> float | None:
        return None if self.lambda_V_result is None else self.lambda_V_result.value


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-period sup distances of a trajectory to the attractor."""

    regime: str
    errors: tuple
    ratios: tuple
    final_error: float
    median_ratio: float
    verdict: str
    regime_report: RegimeReport


# ─────────────────────────────────────────────────────── classification ──


def classify_regime(c: CoefficientSet, bcs, grid: Grid,
                    o: SolverOptions = SolverOptions()) -> RegimeReport:
    """Name the long-time regime from the signs of zeta and lambda(V).

    lambda(V) is solved only when zeta <= -band, and the one threshold
    that decides is read through band_sign: inside +/- band the report
    says INDETERMINATE and carries no attractor.  Endemic attractors come
    from the two-sided pair construction (eps taken from the options).
    """
    bc1, bc2 = bcs
    m = grid.steps_per_period
    n1, n2 = grid.n_unknowns(bc1), grid.n_unknowns(bc2)
    lr = solve_logistic_orbit(c, bc2, grid, o)
    lam = pair = attractor = None
    if band_sign(lr.zeta, o.band) < 0:
        lam = lambda_V(c, bcs, grid, lr.orbit, o)
    name, value = ("zeta", lr.zeta) if lam is None else ("lambda(V)", lam.value)
    side = band_sign(value, o.band)
    if side == 0:
        regime, kind = INDETERMINATE, f"undecided ({name} inside the band)"
    elif side < 0:   # lambda(V) below the band
        pair = solve_endemic_pair(c, bcs, grid, o, logistic=lr, lam=lam)
        (H, Vi), V = pair.orbit.samples, lr.orbit.samples[0]   # upper limit, carrying orbit
        regime, kind, attractor = ENDEMIC, "(H_i, V - V_i, V_i)", PeriodicOrbit((H, V - Vi, Vi))
    elif lam is None:
        regime, kind = EXTINCTION, "(0, 0, 0)"
        attractor = PeriodicOrbit.zeros([n1, n2, n2], m)
    else:
        regime, kind = DISEASE_FREE, "(0, V, 0)"
        attractor = PeriodicOrbit(
            (np.zeros((m + 1, n1)), lr.orbit.samples[0], np.zeros((m + 1, n2))))
    return RegimeReport(regime=regime, attractor=attractor, attractor_kind=kind,
                        logistic=lr, lambda_V_result=lam, pair=pair)


# ──────────────────────────────────────────────────────── verification ──


def build_initial_state(grid: Grid, bc1: BoundarySpec, bc2: BoundarySpec,
                        values) -> tuple:
    """The state at t = 0, a tuple of three component arrays, from three values.

    Each entry may be a scalar, an array on the component's node layout
    (passed through as it is), or an Expression evaluated there at t = 0;
    InputError names a component with an infinite entry (NaN is left to
    verify's positivity check and the stepper's blow-up check).
    """
    if len(values) != 3:
        raise InputError("expected three initial components (H_i, V_u, V_i)")
    comps = []
    for i, (bc, v) in enumerate(zip((bc1, bc2, bc2), values)):
        nodes = grid.nodes_for(bc)
        if isinstance(v, Expression):
            arr = np.array(field_values(v, nodes, 0.0), dtype=float)
        else:
            arr = np.asarray(v, dtype=float)
            if arr.ndim == 0:
                arr = np.full(nodes.shape, float(arr))
        if arr.shape != nodes.shape:
            raise InputError(
                f"initial component has shape {arr.shape}, layout needs {nodes.shape}")
        if np.isinf(arr).any():
            raise InputError(f"initial component {i} must be finite, has an infinite entry")
        comps.append(arr)
    return tuple(comps)


def _check_positive_interior(u: tuple, grid: Grid, bcs) -> None:
    for i, (comp, bc) in enumerate(zip(u, (bcs[0], bcs[1], bcs[1]))):
        inner = grid.interior(comp, bc)
        if not np.all(inner > 0.0):  # written so that NaN fails too
            raise InputError(
                f"initial component {i} must be strictly positive at interior "
                f"nodes (min {float(np.min(inner)):.3g})")


def _period_errors(traj: Trajectory, attractor: PeriodicOrbit,
                   n_periods: int) -> list:
    m = traj.grid.steps_per_period
    levels = traj.steps % m
    d = np.max([np.max(np.abs(s - attractor.level(i, levels)), axis=1)
                for i, s in enumerate(traj.samples)], axis=0)
    errors = np.zeros(n_periods)
    np.maximum.at(errors, np.minimum(traj.steps // m, n_periods - 1), d)
    return errors.tolist()


def _median(values) -> float:
    """statistics.median to the bit: the middle value, or (a + b) / 2 of the middle two."""
    s, h = sorted(values), len(values) // 2
    return s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2


def _measured(ask, model: NonlinearModel, u0: tuple, n_periods: int,
              stride: int) -> list:
    """The period errors of the trajectory from u0 against the attractor
    ask() returns once the trajectory is integrated; in a Worker, ask()
    waits for the attractor the parent sends once it has classified, and
    the trajectory itself never leaves the worker."""
    traj = integrate_trajectory(model, u0, n_periods, stride)
    return _period_errors(traj, ask(), n_periods)


def verify_trichotomy(c: CoefficientSet, bcs, grid: Grid, initial=None,
                      o: SolverOptions = SolverOptions()) -> ConvergenceReport:
    """Integrate the full model and measure convergence to the attractor.

    errors[n] is the sup distance over all components, nodes, and stored
    levels of period n, for the options' n_periods; the verdict is PASS
    when the final error is at or below o.target and the median ratio
    errors[n+1]/errors[n], over the n with errors[n] > max(_TINY_ERROR,
    o.orbit_tol), is below one: the orbit solvers stop once successive
    periods agree within orbit_tol, so a smaller distance measures the
    attractor's own error, not whether the trajectory still converges.
    The regime is classified at eps = 0 whatever the options' eps, so one
    endemic pair is solved and its orbit is the attractor.  initial is
    read by build_initial_state (a state tuple passes through), default
    DEFAULT_INITIAL; it must be strictly positive at interior nodes.
    Every input (n_periods and sample_stride through check_trajectory,
    then the initial state) is checked before anything is solved.
    The trajectory does not depend on the regime, so when the fork rule
    of _workers allows, a worker process integrates it while this one
    classifies; a classify error comes before a trajectory error either
    way, and an INDETERMINATE regime ends the worker without waiting.
    """
    n_periods, target = o.n_periods, o.target
    check_trajectory(grid, n_periods, o.sample_stride)
    u0 = build_initial_state(grid, *bcs, DEFAULT_INITIAL if initial is None else initial)
    _check_positive_interior(u0, grid, bcs)
    model = NonlinearModel(kind="full", c=c, bc1=bcs[0], bc2=bcs[1], grid=grid,
                           cap=o.blowup_cap)
    run = (model, u0, n_periods, o.sample_stride)
    worker = Worker(_measured, *run) if usable_cpus() >= 2 else None
    try:
        report = classify_regime(c, bcs, grid, replace(o, eps=0.0))
        if report.regime == INDETERMINATE:
            return ConvergenceReport(
                regime=INDETERMINATE, errors=(), ratios=(), final_error=float("nan"),
                median_ratio=float("nan"), verdict=INDETERMINATE, regime_report=report)
        if worker is None:
            errors = _measured(lambda: report.attractor, *run)
        else:
            errors = worker.result(report.attractor)
    finally:
        if worker is not None:
            worker.stop()

    floor = max(_TINY_ERROR, o.orbit_tol)
    ratios = [errors[n + 1] / errors[n] for n in range(n_periods - 1) if errors[n] > floor]
    med = float(_median(ratios)) if ratios else 0.0
    final = errors[-1]
    verdict = "PASS" if (final <= target and med < 1.0) else "FAIL"
    return ConvergenceReport(
        regime=report.regime, errors=tuple(errors), ratios=tuple(ratios),
        final_error=final, median_ratio=med, verdict=verdict, regime_report=report)


def sandwich_check(V: PeriodicOrbit, phi: PeriodicOrbit, eps: float,
                   trajectory: Trajectory) -> int | None:
    """Smallest period N after which the total vector stays inside
    [V - eps*phi, V + eps*phi] at every stored sample; None when the band
    is never entered for good (or the carrying orbit is zero).  The edges
    come from band_edges (EpsilonTooLarge outside the positive cone).
    """
    if not eps > 0.0:  # written so that NaN fails too
        raise InputError("the sandwich band needs eps > 0")
    m = trajectory.grid.steps_per_period
    n_total = trajectory.n_periods
    N = n_total + 1  # not entered
    if V.sup_norm() > 0.0:
        slack = 1e-12 * max(1.0, V.sup_norm() + eps * phi.sup_norm())
        k = trajectory.steps % m
        hi, lo = (edge.level(0, k) for edge in band_edges(V, phi, eps))
        W = trajectory.samples[1] + trajectory.samples[2]
        bad = (np.min(W - lo, axis=1) < -slack) | (np.max(W - hi, axis=1) > slack)
        # the period after the last sample outside the band
        N = int(trajectory.steps[bad][-1]) // m + 1 if bad.any() else 0
    return None if N > n_total else N
