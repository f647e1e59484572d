"""Time stepping: first-order IMEX schemes for the model and its variants.

One step advances every component by one backward-Euler solve of its own
tridiagonal implicit matrix (diffusion assembled at t+dt plus the linear
decay diagonal), with cross-component coupling and nonlinear terms taken
explicitly at time t.  prepare() reads every coefficient once, through
Grid.lattice on a component's node layout at the m solver levels of
[0, T), and builds every state-independent implicit matrix there.  _run
is the one stepping loop: a prepared step maps the component arrays at
step k to those at step k+1 by indexing the lattices at level k mod m, so
the period map is literally the same map every period, and the kept
levels go straight into stacked (n_kept, n_c) arrays, the layout of
PeriodicOrbit.samples.  _solve is the one tridiagonal kernel (LAPACK gtsv).

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
system with signed band-shift eps; eps < 0 gives the auxiliary
comparison variant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .coeffs import CoefficientSet
from .coeffs import field_values  # noqa: F401  (name the benchmark tracer wraps here)
from .errors import BlowupError, DomainError, InputError, SolveError
from .grid import BoundarySpec, DiffusionMatrix, Grid, assemble_diffusion, map_between

__all__ = [
    "StateField", "ComponentSpec", "LinearPeriodicSystem", "NonlinearModel",
    "Trajectory", "integrate_over_period", "integrate_trajectory",
]

DEFAULT_BLOWUP_CAP = 1e12


@dataclass
class StateField:
    """Nodal values of every component at one time level.

    t is global time, step the global step index (t = step * dt).
    """

    components: tuple
    t: float = 0.0
    step: int = 0


@dataclass(frozen=True)
class ComponentSpec:
    """Diffusion field and boundary flavor of one scalar component."""

    d: object           # Expression | float | callable
    bc: BoundarySpec


@dataclass
class LinearPeriodicSystem:
    """A cooperative linear system  u_t = div(d_i grad u_i) + sum_j h_ij u_j + f_i.

    coupling[i][j] is the coefficient field multiplying component j in
    equation i (None for zero); off-diagonal entries must be nonnegative.
    source, if present, is one field per component.  A field is anything
    coeffs.field_lattice reads: an Expression, a number, a callable (x, t),
    or an array of shape (m, n_i) over the solver levels and the nodes of
    component i.
    """

    grid: Grid
    comps: tuple
    coupling: tuple
    source: tuple | None = None

    def __post_init__(self):
        n = len(self.comps)
        if len(self.coupling) != n or any(len(row) != n for row in self.coupling):
            raise InputError(f"coupling must be {n}x{n}")
        if self.source is not None and len(self.source) != n:
            raise InputError("source length must match component count")


@dataclass
class NonlinearModel:
    """Selector plus data for the nonlinear systems.

    kind "full": components (H_i, V_u, V_i).
    kind "logistic": single component V (the vector total).
    kind "truncated": components (H_i, V_i) of the reduced system, with the
        periodic orbit V, the growth-threshold eigenfunction phi, and the
        signed band shift eps; coupling uses (V + eps*phi - V_i)_+ and the
        decay uses mu1 + mu2*(V - eps*phi), both with V and phi at the start
        of the step, where the full model reads V_u + V_i.
    """

    kind: str
    c: CoefficientSet
    bc1: BoundarySpec
    bc2: BoundarySpec
    grid: Grid
    V: object | None = None      # PeriodicOrbit
    phi: object | None = None    # PeriodicOrbit (scalar)
    eps: float = 0.0
    cap: float = DEFAULT_BLOWUP_CAP

    def __post_init__(self):
        if self.kind not in ("full", "logistic", "truncated"):
            raise InputError(f"unknown model kind {self.kind!r}")
        if self.kind == "truncated":
            if self.V is None:
                raise InputError("truncated model needs the periodic orbit V")
            if self.eps != 0.0 and self.phi is None:
                raise InputError("truncated model with eps != 0 needs phi")

    def layouts(self) -> tuple:
        if self.kind == "full":
            return (self.bc1, self.bc2, self.bc2)
        if self.kind == "logistic":
            return (self.bc2,)
        return (self.bc1, self.bc2)


@dataclass
class Trajectory:
    """Kept levels of a run: row r of samples[c], shape (len(steps), n_c),
    is component c at global step steps[r]; every period boundary is kept."""

    grid: Grid
    steps: np.ndarray
    samples: tuple
    sample_stride: int

    @property
    def times(self) -> np.ndarray:
        return self.steps * self.grid.dt

    @property
    def n_periods(self) -> int:
        return int(self.steps[-1]) // self.grid.steps_per_period


# ═══════════════════════════════════════════════════════════════════════════
# prepared coefficient lattices
# ═══════════════════════════════════════════════════════════════════════════


def _banded(D: DiffusionMatrix, dt: float, decay=0.0) -> np.ndarray:
    """Banded (1,1) form of I - dt*D + dt*diag(decay), stacked like D."""
    ab = np.zeros(D.diag.shape[:-1] + (3, D.n))
    ab[..., 0, 1:] = -dt * D.upper
    ab[..., 1, :] = 1.0 - dt * D.diag + dt * decay
    ab[..., 2, :-1] = -dt * D.lower
    return ab


def _solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system held in banded (1,1) form."""
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)
    if info != 0:  # defensive: singular implicit matrix
        raise SolveError(f"implicit solve failed: gtsv info {info}")
    return x


class _PreparedLinear:
    """Implicit matrices and coupling/source lattices for one system."""

    def __init__(self, sys: LinearPeriodicSystem):
        g = sys.grid
        ts = g.level_times()
        self.sys = sys
        self.coupling = [[None if f is None else g.lattice(f, comp.bc) for f in row]
                         for comp, row in zip(sys.comps, sys.coupling)]
        self.src = [None] * len(sys.comps) if sys.source is None else \
            [g.lattice(f, comp.bc) for comp, f in zip(sys.comps, sys.source)]
        self.ab = []        # [i] implicit banded matrices, shape (m, 3, n_i)
        for i, comp in enumerate(sys.comps):
            decay = self.coupling[i][i]
            D = assemble_diffusion(g, comp.d, comp.bc, ts)
            self.ab.append(_banded(D, g.dt, 0.0 if decay is None else -decay))

    def step(self, u: tuple, k: int) -> tuple:
        """Component arrays at step k -> component arrays at step k+1."""
        sys = self.sys
        m = sys.grid.steps_per_period
        dt = sys.grid.dt
        j0, j1 = k % m, (k + 1) % m
        new = []
        for i in range(len(sys.comps)):
            rhs = u[i].copy()
            for jc, w in enumerate(self.coupling[i]):
                if w is not None and jc != i:
                    rhs += dt * w[j0] * map_between(u[jc], sys.comps[jc].bc,
                                                    sys.comps[i].bc)
            if self.src[i] is not None:
                rhs += dt * self.src[i][j0]
            new.append(_solve(self.ab[i][j1], rhs))
        return tuple(new)


class _PreparedModel:
    """Coefficient lattices and fixed implicit matrices for the nonlinear
    selectors; only the vector matrix of "full"/"logistic" depends on the
    state and is completed per step."""

    def __init__(self, model: NonlinearModel):
        g = model.grid
        ts = g.level_times()
        dt = g.dt
        c = model.c
        self.model = model
        bc1, bc2 = model.bc1, model.bc2
        L = g.lattice

        # the vector matrix without decay; steps add dt*decay to its diagonal
        D2 = assemble_diffusion(g, c.d2, bc2, ts)
        self.ab2 = _banded(D2, dt)
        self.sigma2 = L(c.sigma2, bc2)
        self.beta = L(c.beta, bc2)
        self.mu1 = L(c.mu1, bc2)
        self.mu2 = L(c.mu2, bc2)
        if model.kind != "logistic":
            D1 = assemble_diffusion(g, c.d1, bc1, ts)
            self.ab_h = _banded(D1, dt, L(c.rho, bc1))
            self.s1hu = L(c.sigma1, bc1) * L(c.H_u, bc1)
        if model.kind == "truncated":
            V = L(model.V.samples[0][:-1], bc2)
            self.band, shift = V, V
            if model.eps != 0.0:
                ephi = model.eps * L(model.phi.samples[0][:-1], bc2)
                self.band, shift = V + ephi, V - ephi
            # the decay reads the orbit at the step's start level, as the
            # full model reads V_u + V_i: row j1 takes shift[j1 - 1]
            self.ab_z = _banded(D2, dt, self.mu1 + self.mu2 * np.roll(shift, 1, axis=0))

    def _check_cap(self, arrays) -> None:
        cap = self.model.cap
        for a in arrays:
            peak = np.max(np.abs(a))
            if not peak <= cap:  # NaN fails too
                raise BlowupError(f"state exceeded blow-up cap {cap:g}" if np.isfinite(peak)
                                  else "state became non-finite (NaN or inf)")

    def _vector_matrix(self, j1: int, total: np.ndarray) -> np.ndarray:
        ab = self.ab2[j1].copy()
        ab[1] += self.model.grid.dt * (self.mu1[j1] + self.mu2[j1] * total)
        return ab

    def step(self, u: tuple, k: int) -> tuple:
        """Component arrays at step k -> step k+1; BlowupError past the cap."""
        model = self.model
        m = model.grid.steps_per_period
        dt = model.grid.dt
        j0, j1 = k % m, (k + 1) % m

        if model.kind == "logistic":
            (V,) = u
            out = (_solve(self._vector_matrix(j1, V), V + dt * self.beta[j0] * V),)

        elif model.kind == "full":
            Hi, Vu, Vi = u
            Vsum = Vu + Vi
            trans = self.sigma2[j0] * Vu * map_between(Hi, model.bc1, model.bc2)
            ab_v = self._vector_matrix(j1, Vsum)
            Vsum_n = _solve(ab_v, Vsum + dt * self.beta[j0] * Vsum)
            Vi_n = _solve(ab_v, Vi + dt * trans)
            Vu_n = Vsum_n - Vi_n
            Hi_n = _solve(self.ab_h[j1],
                          Hi + dt * self.s1hu[j0] * map_between(Vi, model.bc2, model.bc1))
            out = (Hi_n, Vu_n, Vi_n)

        else:  # truncated
            Hi, Z = u
            pos = np.maximum(self.band[j0] - Z, 0.0)
            trans = self.sigma2[j0] * pos * map_between(Hi, model.bc1, model.bc2)
            Z_n = _solve(self.ab_z[j1], Z + dt * trans)
            Hi_n = _solve(self.ab_h[j1],
                          Hi + dt * self.s1hu[j0] * map_between(Z, model.bc2, model.bc1))
            out = (Hi_n, Z_n)

        self._check_cap(out)
        return out


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


def _check_state(system, u: StateField) -> None:
    g = system.grid
    if abs(u.t - u.step * g.dt) > 1e-9 * max(1.0, g.T):
        raise InputError(f"state time {u.t} not aligned with step {u.step}")
    layouts = (system.layouts() if isinstance(system, NonlinearModel)
               else tuple(c.bc for c in system.comps))
    if len(u.components) != len(layouts):
        raise InputError(
            f"state has {len(u.components)} components, system expects {len(layouts)}")
    for i, bc in enumerate(layouts):
        want = g.n_unknowns(bc)
        if u.components[i].shape != (want,):
            raise InputError(
                f"component {i} has shape {u.components[i].shape}, expected ({want},)")


def _run(system, u0: StateField, nsteps: int, stride: int, prepared):
    """nsteps steps from u0, keeping u0, the last step and every step whose
    index is a multiple of stride as rows of one (n_kept, n_c) array per
    component; returns the kept step indices and those arrays."""
    _check_state(system, u0)
    P = prepared if prepared is not None else prepare(system)
    k0, k1 = u0.step, u0.step + nsteps
    steps = np.arange(k0, k1 + 1)
    steps = steps[(steps == k0) | (steps == k1) | (steps % stride == 0)]
    samples = tuple(np.empty((len(steps), len(c))) for c in u0.components)
    u, done = u0.components, k0
    for row, kept in enumerate(steps.tolist()):
        for k in range(done, kept):
            u = P.step(u, k)
        done = kept
        for s, c in zip(samples, u):
            s[row] = c
    return steps, samples


def integrate_over_period(system, u0: StateField, prepared=None,
                          store: bool = False):
    """Apply the period map once: steps_per_period IMEX steps from u0.

    With store=True returns every level stacked, one (m+1, n_c) array per
    component with row j at step u0.step + j; otherwise the final state.
    """
    m = system.grid.steps_per_period
    _, samples = _run(system, u0, m, 1 if store else m, prepared)
    if store:
        return samples
    return StateField(tuple(s[-1] for s in samples), (u0.step + m) * system.grid.dt,
                      u0.step + m)


def integrate_trajectory(model, u0: StateField, n_periods: int,
                         sample_stride: int = 1) -> Trajectory:
    """Integrate n_periods periods, keeping every sample_stride-th step.

    sample_stride must divide steps_per_period so that every period
    boundary is kept.  Raises BlowupError if any component passes the
    model's cap.
    """
    m = model.grid.steps_per_period
    if sample_stride < 1 or m % sample_stride != 0:
        raise DomainError(
            f"sample_stride must divide steps_per_period ({sample_stride} vs {m})")
    steps, samples = _run(model, u0, n_periods * m, sample_stride, None)
    return Trajectory(model.grid, steps, samples, sample_stride)
