"""Time stepping: first-order IMEX schemes for the model and its variants.

A state is a tuple of component arrays, one (n_c,) array per component on
its node layout; the period map and the trajectory take one at t = 0,
global step 0.

One step advances every component by one backward-Euler solve of its own
tridiagonal implicit matrix (diffusion assembled at t+dt plus the linear
decay diagonal), with cross-component coupling and nonlinear terms taken
explicitly at time t.  prepare() reads every coefficient once, through
Grid.lattice on a component's layout at the m solver levels of [0, T),
factors every state-independent implicit matrix there once (LAPACK
gttrf), and scales by dt once the lattices a step multiplies by dt first
(beta, sigma1*H_u, the host profile's source): dt*w*x evaluates as
(dt*w)*x, so no bit moves; it keeps each lattice as a list of per-level
rows, which a step indexes faster than a 2-D array.  Each step of "full"
and "logistic" builds the diagonals of the state-dependent vector matrix
once and solves on them directly; "full" solves its two vector columns in
one call.  _run is the one stepping loop.  It calls advance(u, k0, k1),
one loop per model kind, from each kept level to the next; step k reads
the lattices at level k mod m (the same map every period), every
nonlinear step is checked against the blow-up cap, and kept levels go
into stacked (n_kept, n_c) arrays, the layout of PeriodicOrbit.samples.
_solve is the one tridiagonal kernel.  Every implicit matrix reaches it
as the (dl, d, du) that _implicit forms from assemble_diffusion's
diagonals: a one-shot matrix goes to LAPACK gtsv, a stored one as gttrf's
own factor to gttrs, which computes bit for bit what gtsv does.

Structural properties the rest of the package leans on:

* the implicit matrices are M-matrices and explicit couplings enter with
  nonnegative weights, so nonnegative states stay nonnegative and ordered
  states stay ordered (discrete comparison principle);
* the infection exchange term is computed once and reused in both vector
  equations, and the uninfected vector component is updated as
  (total solve) - (infected solve) sharing one matrix, so the discrete
  total V_u + V_i satisfies the discrete logistic equation exactly;
* constant-coefficient equilibria are exact fixed points of the discrete
  period map at any dt (the implicit/explicit split balances
  algebraically), which the periodic-orbit and classification layers
  exploit.

Model selectors: "full" (host + two vector components), "logistic" (the
scalar total-vector equation), "truncated" (the two-component reduced
system driven by the carrying orbit).  A LinearPeriodicSystem steps as the
host profile's affine step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import ddot, dgtsv, dgttrf, dgttrs
from .coeffs import CoefficientSet
from .coeffs import field_values  # noqa: F401  (name the benchmark tracer wraps here)
from .errors import BlowupError, DomainError, InputError, SolveError
from .grid import BoundarySpec, DiffusionMatrix, Grid, assemble_diffusion, map_between

__all__ = [
    "ComponentSpec", "LinearPeriodicSystem", "NonlinearModel", "Trajectory",
    "integrate_over_period", "integrate_trajectory",
]

DEFAULT_BLOWUP_CAP = 1e12


@dataclass(frozen=True)
class ComponentSpec:
    """Diffusion field and boundary flavor of one scalar component."""

    d: object           # Expression | float
    bc: BoundarySpec


@dataclass
class LinearPeriodicSystem:
    """A cooperative linear system  u_t = div(d_i grad u_i) + sum_j h_ij u_j + f_i.

    coupling[i][j] is the coefficient field multiplying component j in
    equation i; off-diagonal entries must be nonnegative.
    source, if present, is one field per component.  A field is anything
    coeffs.field_lattice reads: an Expression, a number, or an array of
    shape (m, n_i) over the solver levels and the nodes of component i.
    The stepper takes one component with a source (the host profile of
    periodic.solve_Hbar), eigen homogeneous systems of any size.
    """

    grid: Grid
    comps: tuple
    coupling: tuple
    source: tuple | None = None

    def __post_init__(self):
        n = len(self.comps)
        if len(self.coupling) != n or any(len(row) != n for row in self.coupling):
            raise InputError(f"coupling must be {n}x{n}")


@dataclass
class NonlinearModel:
    """Selector plus data for the nonlinear systems.

    kind "full": components (H_i, V_u, V_i).
    kind "logistic": single component V (the vector total).
    kind "truncated": components (H_i, V_i) of the reduced system driven
        by the carrying orbit V; coupling uses (V - V_i)_+ and the decay
        uses mu1 + mu2*V, both at the start of the step, where the full
        model reads V_u + V_i.
    """

    kind: str
    c: CoefficientSet
    bc1: BoundarySpec
    bc2: BoundarySpec
    grid: Grid
    V: object | None = None  # PeriodicOrbit (scalar)
    cap: float = DEFAULT_BLOWUP_CAP

    def __post_init__(self):
        if self.kind not in ("full", "logistic", "truncated"):
            raise InputError(f"unknown model kind {self.kind!r}")
        if self.kind == "truncated" and self.V is None:
            raise InputError("truncated model needs the carrying orbit V")

    def layouts(self) -> tuple:
        if self.kind == "full":
            return (self.bc1, self.bc2, self.bc2)
        if self.kind == "logistic":
            return (self.bc2,)
        return (self.bc1, self.bc2)


@dataclass
class Trajectory:
    """Kept levels of a run: row r of samples[c], shape (len(steps), n_c),
    is component c at global step steps[r].  steps is the one record of
    which levels were kept; every period boundary is among them."""

    grid: Grid
    steps: np.ndarray
    samples: tuple

    @property
    def times(self) -> np.ndarray:
        return self.steps * self.grid.dt


# ═══════════════════════════════════════════════════════════════════════════
# prepared coefficient lattices
# ═══════════════════════════════════════════════════════════════════════════


def _implicit(D: DiffusionMatrix, dt: float, decay=0.0) -> tuple:
    """The diagonals (dl, d, du) of I - dt*D + dt*diag(decay), stacked like D."""
    return -dt * D.lower, 1.0 - dt * D.diag + dt * decay, -dt * D.upper


def _factor(dl, d, du) -> tuple:
    """gttrf's factor (dl, d, du, du2, ipiv) of the tridiagonal matrix with
    these diagonals, in place: dl, d and du are overwritten, so a stored
    level holds two new arrays, not five, and peak memory stays lower."""
    dl, d, du, du2, ipiv, info = dgttrf(dl, d, du, 1, 1, 1)
    if info != 0:  # defensive: singular implicit matrix
        raise SolveError(f"implicit matrix is singular: gttrf info {info}")
    return dl, d, du, du2, ipiv


def _factored(D: DiffusionMatrix, dt: float, decay=0.0) -> list:
    """gttrf's factor (dl, d, du, du2, ipiv) of each level of _implicit(D, dt, decay)."""
    return [_factor(*level) for level in zip(*_implicit(D, dt, decay))]


def _solve(lu, rhs: np.ndarray) -> np.ndarray:
    """Solve with a tridiagonal matrix; rhs, one column (n,) or a
    Fortran-ordered (n, k) of k columns, is overwritten.

    lu is either a level (dl, d, du) of _implicit for a matrix used once,
    solved by LAPACK gtsv on copies of it, or gttrf's factor (dl, d, du,
    du2, ipiv) of one, from _factor or _factored, solved by gttrs.
    Arguments go positionally: f2py takes about 0.5 us to parse a keyword,
    a third of a gttrs call at n = 33.
    """
    if len(lu) == 3:
        _, _, _, x, info = dgtsv(*lu, rhs, 0, 0, 0, 1)
        if info != 0:  # defensive: singular implicit matrix
            raise SolveError(f"implicit matrix is singular: gtsv info {info}")
        return x
    return dgttrs(*lu, rhs, "N", 1)[0]


def infection_step_hint(grid: Grid, sigma2, H: np.ndarray, bcs, name: str) -> str:
    """'; max dt*sigma2*<name> = ...', with the smallest steps_per_period that
    keeps the explicit infection step Z + dt*sigma2*H*(V - Z) monotone in Z, for
    the host field H on bcs[0]'s layout; empty while max dt*sigma2*H < 1."""
    top = float(np.max(sigma2 * map_between(H, *bcs)))
    if not 1.0 <= grid.dt * top < np.inf:   # NaN and inf name no step count
        return ""
    return (f"; max dt*sigma2*{name} = {grid.dt * top:.4g} >= 1 makes the explicit "
            f"infection step non-monotone (steps_per_period >= {int(grid.T * top) + 1} "
            "brings it below 1)")


def _raise_past_cap(arrays, cap: float, hint: str = "") -> None:
    """BlowupError, ending in hint, for the first array with an entry past cap (or non-finite).

    advance() calls this only when its sum of squares (BLAS ddot) is not
    below cap*cap.  Every partial sum of nonnegative terms, in any order and
    with or without fused multiply-adds, is at least each rounded term;
    |a| > cap rounds a*a to at least cap*cap, and NaN, inf and overflowed
    squares fail "<": so a sum below cap*cap proves every |a| <= cap, and
    the exact test here decides the rest.
    """
    for a in arrays:
        peak = np.max(np.abs(a))
        if not peak <= cap:  # NaN fails too
            raise BlowupError((f"state exceeded blow-up cap {cap:g}" if np.isfinite(peak)
                               else "state became non-finite (NaN or inf)") + hint)


class _PreparedLinear:
    """The host profile's affine step: one component, decay -coupling[0][0]
    on the factored implicit diagonal, the dt-scaled source explicit."""

    def __init__(self, sys: LinearPeriodicSystem):
        if len(sys.comps) != 1 or len(sys.source or ()) != 1:
            raise InputError("the stepper takes a linear system of one component "
                             "with one source (the host profile's affine step)")
        g, (comp,), ((decay,),), (src,) = sys.grid, sys.comps, sys.coupling, sys.source
        self.m = g.steps_per_period
        self.dt_src = list(g.dt * g.lattice(src, comp.bc))
        self.lu = _factored(assemble_diffusion(g, comp.d, comp.bc, g.level_times()), g.dt,
                            -g.lattice(decay, comp.bc))

    def advance(self, u: tuple, k0: int, k1: int) -> tuple:
        """The host profile at step k0 -> at step k1."""
        m, lu, dt_src = self.m, self.lu, self.dt_src
        (H,) = u
        for k in range(k0, k1):
            H = _solve(lu[(k + 1) % m], H + dt_src[k % m])
        return (H,)


class _PreparedModel:
    """Coefficient lattices, as lists of per-level rows, and factored
    implicit matrices for the nonlinear selectors; only the vector matrix of
    "full"/"logistic" depends on the state, and each step completes its
    diagonal and solves on it."""

    def __init__(self, model: NonlinearModel):
        g = model.grid
        ts = g.level_times()
        dt = g.dt
        c = model.c
        self.model = model
        bc1, bc2 = model.bc1, model.bc2
        L = g.lattice

        D2 = assemble_diffusion(g, c.d2, bc2, ts)
        mu1, mu2 = L(c.mu1, bc2), L(c.mu2, bc2)
        if model.kind != "truncated":
            # the vector matrix without decay, as its (dl, d, du) by level;
            # steps add dt*decay to d and solve on it
            self.diags2 = tuple(list(diag) for diag in _implicit(D2, dt))
            self.dt_beta = list(dt * L(c.beta, bc2))
            self.mu1, self.mu2 = list(mu1), list(mu2)
        if model.kind != "logistic":
            self.sigma2 = list(L(c.sigma2, bc2))
            D1 = assemble_diffusion(g, c.d1, bc1, ts)
            self.lu_h = _factored(D1, dt, L(c.rho, bc1))
            self.dt_s1hu = list(dt * (L(c.sigma1, bc1) * L(c.H_u, bc1)))
        if model.kind == "truncated":
            V = L(model.V.lattice(), bc2)
            self.V = list(V)
            # the decay reads the orbit at the step's start level, as the
            # full model reads V_u + V_i: row j1 takes V[j1 - 1]
            self.lu_z = _factored(D2, dt, mu1 + mu2 * np.roll(V, 1, axis=0))

    def _hint(self, u: tuple, k: int) -> str:
        """infection_step_hint on u at step k; none if u's host is past the cap (unchecked u0)."""
        model = self.model
        if not np.max(np.abs(u[0])) <= model.cap:
            return ""
        return infection_step_hint(model.grid, self.sigma2[k % model.grid.steps_per_period],
                                   u[0], (model.bc1, model.bc2), "H_i")

    def advance(self, u: tuple, k0: int, k1: int) -> tuple:
        """Component arrays at step k0 -> step k1; BlowupError at the first step past the cap,
        with _hint on u, the last state known to be within it."""
        model = self.model
        m, cap = model.grid.steps_per_period, model.cap
        cap2 = cap * cap if cap >= 0.0 else -1.0   # a negative cap fails every state
        # 0-d arrays multiply an array faster than Python floats, to the same bits
        dt, zero = np.array(model.grid.dt), np.array(0.0)
        bc1, bc2 = model.bc1, model.bc2

        if model.kind == "logistic":
            (dl, d, du), mu1, mu2, dt_beta = self.diags2, self.mu1, self.mu2, self.dt_beta
            (V,) = u
            for k in range(k0, k1):
                j0, j1 = k % m, (k + 1) % m
                A = dl[j1], d[j1] + dt * (mu1[j1] + mu2[j1] * V), du[j1]
                V = _solve(A, V + dt_beta[j0] * V)
                if not ddot(V, V) < cap2:
                    _raise_past_cap((V,), cap)
            return (V,)

        sigma2, lu_h, dt_s1hu = self.sigma2, self.lu_h, self.dt_s1hu
        if model.kind == "full":
            (dl, d, du), mu1, mu2, dt_beta = self.diags2, self.mu1, self.mu2, self.dt_beta
            Hi, Vu, Vi = u
            for k in range(k0, k1):
                j0, j1 = k % m, (k + 1) % m
                Vsum = Vu + Vi
                trans = sigma2[j0] * Vu * map_between(Hi, bc1, bc2)
                A = dl[j1], d[j1] + dt * (mu1[j1] + mu2[j1] * Vsum), du[j1]
                # Vsum and Vi share A: one solve on the two columns of x
                x = np.empty((len(Vsum), 2), order="F")
                np.add(Vsum, dt_beta[j0] * Vsum, out=x[:, 0])
                np.add(Vi, dt * trans, out=x[:, 1])
                x = _solve(A, x)
                Hi = _solve(lu_h[j1], Hi + dt_s1hu[j0] * map_between(Vi, bc2, bc1))
                Vu, Vi = x[:, 0] - x[:, 1], x[:, 1]
                if not ddot(Hi, Hi) + ddot(Vu, Vu) + ddot(Vi, Vi) < cap2:
                    _raise_past_cap((Hi, Vu, Vi), cap, self._hint(u, k0))
            return (Hi, Vu, Vi)

        Hi, Z = u                   # truncated
        V, lu_z = self.V, self.lu_z
        for k in range(k0, k1):
            j0, j1 = k % m, (k + 1) % m
            pos = np.maximum(V[j0] - Z, zero)
            trans = sigma2[j0] * pos * map_between(Hi, bc1, bc2)
            Z_n = _solve(lu_z[j1], Z + dt * trans)
            Hi, Z = _solve(lu_h[j1], Hi + dt_s1hu[j0] * map_between(Z, bc2, bc1)), Z_n
            if not ddot(Hi, Hi) + ddot(Z, Z) < cap2:
                _raise_past_cap((Hi, Z), cap, self._hint(u, k0))
        return (Hi, Z)


def prepare(system) -> object:
    """Precompute the per-level coefficient lattice for repeated stepping."""
    if isinstance(system, LinearPeriodicSystem):
        return _PreparedLinear(system)
    if isinstance(system, NonlinearModel):
        return _PreparedModel(system)
    raise InputError(f"cannot step {type(system).__name__}")


# ═══════════════════════════════════════════════════════════════════════════
# public stepping API
# ═══════════════════════════════════════════════════════════════════════════


def _check_state(system, u: tuple) -> None:
    g = system.grid
    layouts = (system.layouts() if isinstance(system, NonlinearModel)
               else tuple(c.bc for c in system.comps))
    if len(u) != len(layouts):
        raise InputError(
            f"state has {len(u)} components, system expects {len(layouts)}")
    for i, bc in enumerate(layouts):
        want = g.n_unknowns(bc)
        if u[i].shape != (want,):
            raise InputError(
                f"component {i} has shape {u[i].shape}, expected ({want},)")


def _run(system, u0: tuple, nsteps: int, stride: int, prepared):
    """nsteps steps from u0 at step 0, keeping every step whose index is a multiple of
    stride as rows of one (n_kept, n_c) array per component; returns the kept step indices
    and those arrays.  stride divides nsteps (both callers see to it), so the last is kept."""
    _check_state(system, u0)
    P = prepared if prepared is not None else prepare(system)
    steps = np.arange(0, nsteps + 1, stride)
    samples = tuple(np.empty((len(steps), len(c))) for c in u0)
    u, done = u0, 0
    for row, kept in enumerate(steps.tolist()):
        u, done = P.advance(u, done, kept), kept
        for s, c in zip(samples, u):
            s[row] = c
    return steps, samples


def integrate_over_period(system, u0: tuple, prepared=None, store: bool = False):
    """Apply the period map once: steps_per_period IMEX steps from the
    component arrays u0 at t = 0.

    With store=True returns every level stacked, one (m+1, n_c) array per
    component with row j at step j; otherwise the final state, a tuple of
    component arrays.
    """
    m = system.grid.steps_per_period
    _, samples = _run(system, u0, m, 1 if store else m, prepared)
    if store:
        return samples
    return tuple(s[-1] for s in samples)


def check_trajectory(grid: Grid, n_periods: int, sample_stride: int) -> None:
    """DomainError unless sample_stride divides steps_per_period, so that
    every period boundary is kept, and n_periods is a positive count."""
    m = grid.steps_per_period
    if sample_stride < 1 or m % sample_stride != 0:
        raise DomainError(
            f"sample_stride must divide steps_per_period ({sample_stride} vs {m})")
    if n_periods < 1:
        raise DomainError(f"n_periods must be a positive count, got {n_periods}")


def integrate_trajectory(model, u0: tuple, n_periods: int,
                         sample_stride: int = 1) -> Trajectory:
    """Integrate n_periods periods from the component arrays u0 at t = 0,
    keeping every sample_stride-th step.

    The arguments must pass check_trajectory.  Raises BlowupError at the
    first step at which any component passes the model's cap.
    """
    check_trajectory(model.grid, n_periods, sample_stride)
    m = model.grid.steps_per_period
    steps, samples = _run(model, u0, n_periods * m, sample_stride, None)
    return Trajectory(model.grid, steps, samples)
