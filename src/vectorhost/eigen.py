"""Principal periodic eigenvalues via power iteration on the period map.

For a cooperative linear T-periodic system u_t = div(d grad u) + H(x,t) u
the principal eigenvalue lam is read off the spectral radius r of the
period (Poincare) map: lam = -ln(r)/T, and the space-time eigenfunction is
reconstructed as phi(x,t) = exp(lam*t) u(x,t) from the converged iterate.

The period map used here is a Crank-Nicolson propagator on the stacked
multi-component generator (coupling inside the implicit solve), held with
its unknowns interleaved by node as one band matrix per level and solved
with LAPACK gbtrf/gbtrs.  Being a rational function of the frozen generator
it reproduces autonomous eigenvalues to O(dt^2 |lam|^3 / 12) instead of the
O(dt) bias a first-order split map would carry, which the oracle tolerances
require; the evolution stepper (stepper.py) intentionally stays
first-order IMEX for its positivity and ordering guarantees.  Eigenpairs
returned here satisfy apply_period_map(system, phi0) ~ r * phi0.

Named eigenvalues: zeta (vector growth threshold), gamma_rho (host decay
rate), and lambda_V (invasion exponent of the disease-free orbit).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._lapack import dgbmv, dgbtrf, dgbtrs
from .coeffs import CoefficientSet
from .coeffs import field_values  # noqa: F401  (name the benchmark tracer wraps here)
from .errors import (InputError, InternalError, NoConvergence,
                     ReducibleSystemWarning, SolveError)
from .grid import BoundarySpec, Grid, assemble_diffusion
from .stepper import DEFAULT_BLOWUP_CAP, ComponentSpec, LinearPeriodicSystem

__all__ = [
    "PeriodicOrbit", "EigenResult", "principal_eigenvalue", "apply_period_map",
    "zeta", "gamma_rho", "lambda_V", "SolverOptions",
]

# coupling entries below this are treated as cooperativity violations
_COOP_SLACK = -1e-12
# levels per fancy-indexed add into the band array: its temporaries stay
# a fraction of one coefficient lattice
_FILL_LEVELS = 64


@dataclass(frozen=True)
class SolverOptions:
    """Numerical knobs shared by the classification pipeline.

    InputError, naming the field, unless every option but n_periods and
    sample_stride (check_trajectory's) is positive; NaN fails too."""

    eigen_tol: float = 1e-10
    max_eigen_iters: int = 10000
    orbit_tol: float = 1e-9
    max_periods: int = 500
    band: float = 1e-3
    blowup_cap: float = DEFAULT_BLOWUP_CAP
    n_periods: int = 40
    sample_stride: int = 8
    target: float = 1e-3

    def __post_init__(self):
        for name in ("eigen_tol", "max_eigen_iters", "orbit_tol", "max_periods",
                     "band", "blowup_cap", "target"):
            if not getattr(self, name) > 0:  # written so that NaN fails too
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")


# ═══════════════════════════════════════════════════════════════════════════
# periodic orbits (tabulated space-time fields)
# ═══════════════════════════════════════════════════════════════════════════


@dataclass(frozen=True)
class PeriodicOrbit:
    """One period of a (possibly multi-component) field.  samples[c] has
    shape (m+1, n_c); rows 0..m-1, lattice(c), are the m solver levels (row
    k at t = k * grid.dt), and row m only witnesses the residual, derived
    from the samples.  Level access wraps periodically (k mod m)."""

    samples: tuple

    @property
    def residual(self) -> float:
        """max over components of |row m - row 0|: how far from periodic."""
        return max(float(np.max(np.abs(s[-1] - s[0]))) for s in self.samples)

    @property
    def ncomp(self) -> int:
        return len(self.samples)

    @property
    def m(self) -> int:
        return self.samples[0].shape[0] - 1

    def level(self, comp: int, k: int) -> np.ndarray:
        return self.samples[comp][k % self.m]

    def lattice(self, comp: int = 0) -> np.ndarray:
        """Component comp at the m solver levels, shape (m, n_c): a view."""
        return self.samples[comp][:-1]

    def sup_norm(self) -> float:
        return max(float(np.max(np.abs(s))) if s.size else 0.0 for s in self.samples)

    def min_value(self) -> float:
        return min(float(np.min(self.lattice(c))) for c in range(self.ncomp))

    @staticmethod
    def zeros(sizes, m: int) -> "PeriodicOrbit":
        return PeriodicOrbit(tuple(np.zeros((m + 1, n)) for n in sizes))


@dataclass(frozen=True)
class EigenResult:
    """Principal eigenpair of a period map.

    value = -ln(multiplier)/T; eigenfunction is sup-normalised over the
    whole period (max sample = 1) and periodic up to its residual in sup
    norm.  r_history holds one multiplier estimate per power iteration.
    """

    value: float
    multiplier: float
    eigenfunction: PeriodicOrbit
    r_history: tuple = ()

    @property
    def iterations(self) -> int:
        return len(self.r_history)


# ═══════════════════════════════════════════════════════════════════════════
# the stacked Crank-Nicolson period map
# ═══════════════════════════════════════════════════════════════════════════


def _layout_map(g: Grid, row_bc: BoundarySpec, col_bc: BoundarySpec,
                weights: np.ndarray):
    """(rows, cols, data) of diag(weights) composed with the node-layout map:
    each node id both layouts carry pairs its row with its column, and rows
    without a partner (Robin endpoints facing a Dirichlet layout) get nothing."""
    row_ids, col_ids = g.node_ids(row_bc), g.node_ids(col_bc)
    shared = np.intersect1d(row_ids, col_ids)
    rows = shared - row_ids[0]   # one contiguous run, so data is a view
    return rows, shared - col_ids[0], weights[..., rows[0]:rows[-1] + 1]


class _PreparedEigen:
    """Banded Crank-Nicolson factors of the stacked generator at every level.

    Unknowns are interleaved by physical node, then component (key
    node_id*ncomp + comp, node ids from Grid.node_ids), so the
    generator A has half-bandwidth kb = ncomp.  All m levels of A live in
    one LAPACK band array, and the factors are built from it in place: lu
    starts as a copy of A scaled to -dt/2 A + I and is factored per level
    with gbtrf, and mplus is A itself scaled to dt/2 A + I, so no scaled
    copy of A is ever held beside them.  period_map takes and returns the
    stacked (component-block) layout.
    """

    def __init__(self, sys: LinearPeriodicSystem):
        if sys.source is not None:
            raise InputError("eigen solves take homogeneous systems (no source)")
        g = sys.grid
        self.ts = g.level_times()
        self.sizes = [g.n_unknowns(c.bc) for c in sys.comps]
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.total = int(self.offsets[-1])
        self.kb = kb = len(sys.comps)
        m, N = len(self.ts), self.total
        A = self._generator(sys)     # its coefficient lattices die with the call
        half = g.dt / 2.0
        # gbtrf keeps its fill-in in the first kb rows of lu; -dt/2 A + I
        # goes below them, (-h)*a being -(h*a) bit for bit
        self.lu = np.zeros((m, N, 3 * kb + 1)).transpose(0, 2, 1)
        band = self.lu[:, kb:]
        band[...] = A
        band *= -half
        self.lu[:, 2 * kb] += 1.0
        A *= half
        A[:, kb] += 1.0
        self.mplus = A
        self.piv = np.empty((m, N), dtype=np.int32)
        for j in range(m):
            _, self.piv[j], info = dgbtrf(self.lu[j], kb, kb, overwrite_ab=1)
            self._check(info, "gbtrf", j)

    def _generator(self, sys: LinearPeriodicSystem) -> np.ndarray:
        """The generator A at every level as one LAPACK band array; sets
        the node interleaving (perm, unperm)."""
        g, ts, kb, N = sys.grid, self.ts, self.kb, self.total
        m = len(ts)
        diffusion = [assemble_diffusion(g, c.d, c.bc, ts) for c in sys.comps]
        coup = [[g.lattice(f, comp.bc) for f in row]
                for comp, row in zip(sys.comps, sys.coupling)]
        # the first negative level, then the first (row, column) at that level
        bad = [(int(np.argmax(low)), i, jc) for i, row in enumerate(coup)
               for jc, w in enumerate(row) if jc != i
               for low in [np.min(w, axis=1) < _COOP_SLACK] if low.any()]
        if bad:
            j, i, jc = min(bad)
            raise InputError(f"system not cooperative: coupling[{i}][{jc}] reaches "
                             f"{np.min(coup[i][jc][j]):.3g} at t={ts[j]:.6g}")

        key = np.concatenate([g.node_ids(c.bc) * kb + i
                              for i, c in enumerate(sys.comps)])
        self.perm = np.argsort(key)          # stacked index at each band position
        self.unperm = np.argsort(self.perm)  # band position of each stacked index
        # level slices of a transposed (m, N, rows) array are Fortran-ordered
        A = np.zeros((m, N, 2 * kb + 1)).transpose(0, 2, 1)

        def put(rows, cols, data):           # A[i, j] lives at A[kb + i - j, j]
            r, c = self.unperm[rows], self.unperm[cols]
            for j in range(0, m, _FILL_LEVELS):
                A[j:j + _FILL_LEVELS, kb + r - c, c] += data[j:j + _FILL_LEVELS]

        for i, comp in enumerate(sys.comps):
            o = self.offsets[i]
            D = diffusion[i]
            idx = o + np.arange(D.n)
            put(idx, idx, D.diag)
            put(idx[1:], idx[:-1], D.lower)
            put(idx[:-1], idx[1:], D.upper)
            for jc, w in enumerate(coup[i]):
                r, c_, d_ = _layout_map(g, comp.bc, sys.comps[jc].bc, w)
                put(o + r, self.offsets[jc] + c_, d_)
        return A

    def _check(self, info: int, routine: str, j: int) -> None:
        if info != 0:
            raise SolveError(f"Crank-Nicolson factor at level {j} (t={self.ts[j]:.6g}) "
                             f"failed: {routine} info {info}")

    def period_map(self, u: np.ndarray, store: bool = False):
        """One period from stacked u; with store, all m+1 levels as rows."""
        m, N, kb = len(self.ts), self.total, self.kb
        if store:
            levels = np.empty((m + 1, N))
            levels[0] = u
        u = u[self.perm]
        for k in range(m):
            j = (k + 1) % m
            y = dgbmv(N, N, kb, kb, 1.0, self.mplus[k], u)
            u, info = dgbtrs(self.lu[j], kb, kb, y, self.piv[j], overwrite_b=1)
            self._check(info, "gbtrs", j)
            if store:
                np.take(u, self.unperm, out=levels[k + 1])
        return levels if store else u[self.unperm]

    def split(self, u: np.ndarray) -> tuple:
        return tuple(u[..., self.offsets[i]:self.offsets[i + 1]]
                     for i in range(len(self.sizes)))


def apply_period_map(system: LinearPeriodicSystem, components) -> tuple:
    """Apply the eigen module's period map once to per-component vectors.

    This is the map whose eigenpairs principal_eigenvalue returns; tests
    use it to measure the eigen-relation residual directly.
    """
    P = _PreparedEigen(system)
    u = np.concatenate([np.asarray(c, dtype=float) for c in components])
    return P.split(P.period_map(u))


def principal_eigenvalue(system: LinearPeriodicSystem,
                         o: SolverOptions = SolverOptions()) -> EigenResult:
    """Dominant eigenpair of the period map of a cooperative linear system.

    Power iteration from a positive constant vector; the multiplier is the
    ratio at the normalisation (sup) node, converged when successive
    estimates differ by <= max(tol, 4 ulp of the estimate) and the
    normalised iterate direction moves by <= tol in sup norm, with
    tol = o.eigen_tol and at most o.max_eigen_iters iterations.

    Raises:
        NoConvergence: budget exhausted before both criteria held.
        InputError: non-cooperative coupling or a sourced system.
    Warns:
        ReducibleSystemWarning: the converged eigenfunction has interior
            zeros (Perron structure degenerate), or it changes sign, when
            the Crank-Nicolson map's stiffest mode outgrows the principal
            one (too few steps_per_period for the diffusion and h).
    """
    tol, max_iters = o.eigen_tol, o.max_eigen_iters
    P = _PreparedEigen(system)
    g = system.grid
    u = np.ones(P.total)
    r_history = []
    for _ in range(max_iters):   # SolverOptions keeps max_iters >= 1, so r is bound
        w = P.period_map(u)
        jmax = int(np.argmax(u))
        r = float(w[jmax] / u[jmax])
        r_history.append(r)
        denom = float(np.max(np.abs(w)))
        if denom == 0.0 or not np.isfinite(denom):
            raise NoConvergence("period map annihilated the iterate", len(r_history))
        s = w / denom
        if s[int(np.argmax(np.abs(s)))] < 0:
            s = -s
        done = (len(r_history) > 1 and abs(r - r_history[-2]) <= max(tol, 4 * np.spacing(r))
                and float(np.max(np.abs(s - u))) <= tol)
        u = s
        if done:
            break
    else:
        raise NoConvergence(
            f"power iteration did not converge in {max_iters} iterations "
            f"(last multiplier {r!r})", max_iters)
    if r <= 0:
        raise InternalError(f"nonpositive multiplier {r} on a cooperative system")

    value = -np.log(r) / g.T
    # reconstruct phi(x,t) = exp(value*t) u(x,t) over one final sweep
    ts = np.arange(g.steps_per_period + 1) * g.dt
    phi = P.period_map(u, store=True)
    phi *= np.exp(value * ts)[:, None]
    phi /= max(phi.max(), -phi.min())    # max |phi|, without an |phi| array
    parts = P.split(phi)
    del P                  # the factors go before the component copies are made
    orbit = PeriodicOrbit(tuple(np.ascontiguousarray(s) for s in parts))

    interior_min = min(float(np.min(g.interior(s, comp.bc)))
                       for s, comp in zip(orbit.samples, system.comps))
    # iterates stall near the tolerance floor, so zeros show up at O(tol)
    floor = max(1e-12, 100.0 * tol)
    if interior_min < -floor:
        warnings.warn(
            f"period-map eigenfunction changes sign (min {interior_min:.3g}): the "
            "Crank-Nicolson map's stiffest mode dominates; more steps_per_period "
            "damp it", ReducibleSystemWarning)
    elif interior_min <= floor:
        warnings.warn(
            f"principal eigenfunction has interior zeros (min {interior_min:.3g}); "
            "the cooperative system is reducible", ReducibleSystemWarning)

    return EigenResult(value=float(value), multiplier=r, eigenfunction=orbit,
                       r_history=tuple(r_history))


# ═══════════════════════════════════════════════════════════════════════════
# named eigenvalues of the model
# ═══════════════════════════════════════════════════════════════════════════


def zeta(c: CoefficientSet, bc2: BoundarySpec, grid: Grid,
         o: SolverOptions = SolverOptions()) -> EigenResult:
    """Vector growth threshold: principal eigenvalue of the scalar problem
    with net growth beta - mu1 under the vector boundary operator."""
    sys = LinearPeriodicSystem(
        grid=grid,
        comps=(ComponentSpec(d=c.d2, bc=bc2),),
        coupling=((grid.lattice(c.beta, bc2) - grid.lattice(c.mu1, bc2),),))
    return principal_eigenvalue(sys, o)


def gamma_rho(c: CoefficientSet, bc1: BoundarySpec, grid: Grid,
              o: SolverOptions = SolverOptions()) -> EigenResult:
    """Host decay rate: principal eigenvalue of the host operator with
    removal rho.  Positive whenever rho > 0; InternalError otherwise."""
    sys = LinearPeriodicSystem(
        grid=grid,
        comps=(ComponentSpec(d=c.d1, bc=bc1),),
        coupling=((-grid.lattice(c.rho, bc1),),))
    res = principal_eigenvalue(sys, o)
    if res.value <= 0:
        raise InternalError(
            f"host decay rate should be positive, got {res.value:.6g}; "
            "check that rho satisfies the standing hypothesis")
    return res


def _check_orbit_for_linearisation(V: PeriodicOrbit, grid: Grid) -> None:
    if V.ncomp != 1:
        raise InputError("expected a scalar periodic orbit")
    if V.m != grid.steps_per_period:
        raise InputError(
            f"orbit has {V.m} levels per period, grid has {grid.steps_per_period}")
    if V.sup_norm() == 0.0:
        raise InputError("the identically-zero orbit has no invasion eigenvalue")
    if V.min_value() < 0.0:
        raise InputError(f"orbit has negative entries (min {V.min_value():.3g})")


def _invasion_system(c: CoefficientSet, bcs, grid: Grid, V) -> LinearPeriodicSystem:
    """The 2x2 linearisation about the orbit lattice V, of shape (m, n2) on
    the vector layout, which is both the infection coupling and the decay."""
    bc1, bc2 = bcs
    L = grid.lattice
    V = L(V, bc2)
    return LinearPeriodicSystem(
        grid=grid,
        comps=(ComponentSpec(d=c.d1, bc=bc1), ComponentSpec(d=c.d2, bc=bc2)),
        coupling=((-L(c.rho, bc1), L(c.sigma1, bc1) * L(c.H_u, bc1)),
                  (L(c.sigma2, bc2) * V, -(L(c.mu1, bc2) + L(c.mu2, bc2) * V))))


def lambda_V(c: CoefficientSet, bcs, grid: Grid, V: PeriodicOrbit,
             o: SolverOptions = SolverOptions()) -> EigenResult:
    """Invasion exponent of the disease-free state carrying vector orbit V:
    principal eigenvalue of the two-component linearisation (host removal
    rho with source sigma1*H_u; vector infection sigma2*V with decay
    mu1 + mu2*V).  Negative values mean the infection invades."""
    _check_orbit_for_linearisation(V, grid)
    return principal_eigenvalue(_invasion_system(c, bcs, grid, V.lattice()), o)
