"""Uniform 1D mesh and flux-form assembly of the diffusion operator.

The interval (x_left, x_right) carries nx interior nodes with spacing
h = (x_right - x_left)/(nx + 1).  Unknown layouts depend on the boundary
flavor: Dirichlet rows eliminate the (zero) endpoint values and the
operator acts on the nx interior nodes; Robin rows keep both endpoints
(nx + 2 unknowns) and close the stencil by second-order ghost-point
elimination consistent with  d_nu u + b u = 0.  Grid.node_ids states that
rule once; node coordinates, lattices and interior views derive from it.

The operator is div(d grad u) in flux form with face-averaged diffusion
d(x_{i +/- 1/2}, t), which keeps the assembled tridiagonal matrix
essentially nonnegative off the diagonal whenever d > 0 (the sign
structure all comparison arguments rest on).  At a Robin endpoint the
outside face value is mirrored from the inside face (even extension).

Solvers assemble the operator for every solver level in one call: given
an array of times, assemble_diffusion reads d and the Robin weights
through coeffs.field_lattice and returns stacked diagonals, one row per
time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .coeffs import field_lattice
from .coeffs import field_values  # noqa: F401  (name the benchmark tracer wraps here)
from .errors import CoefficientError, DomainError

__all__ = ["Grid", "BoundarySpec", "DiffusionMatrix", "build_grid", "assemble_diffusion"]


@dataclass(frozen=True)
class Grid:
    """Mesh metadata: geometry, period, and solver step counts."""

    x_left: float
    x_right: float
    nx: int
    T: float
    steps_per_period: int

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / (self.nx + 1)

    @property
    def dt(self) -> float:
        return self.T / self.steps_per_period

    def level_times(self) -> np.ndarray:
        """The steps_per_period solver-level times k*dt of one period."""
        return np.arange(self.steps_per_period) * self.dt

    def full_nodes(self) -> np.ndarray:
        return self.x_left + self.h * np.arange(self.nx + 2)

    def faces(self) -> np.ndarray:
        """The nx+1 cell-face coordinates x_left + (k + 1/2) h."""
        return self.x_left + self.h * (np.arange(self.nx + 1) + 0.5)

    def node_ids(self, bc: "BoundarySpec") -> np.ndarray:
        """Mesh indices the layout of bc carries: 1..nx (Dirichlet), 0..nx+1 (Robin)."""
        return np.arange(self.nx + 2) if bc.flavor == "robin" else np.arange(1, self.nx + 1)

    def nodes_for(self, bc: "BoundarySpec") -> np.ndarray:
        return self.x_left + self.h * self.node_ids(bc)

    def n_unknowns(self, bc: "BoundarySpec") -> int:
        return len(self.node_ids(bc))

    def lattice(self, f, bc: "BoundarySpec") -> np.ndarray:
        """Field f on the layout of bc at the m solver levels, shape (m, n)."""
        return field_lattice(f, self.nodes_for(bc), self.level_times())

    def interior(self, values: np.ndarray, bc: "BoundarySpec") -> np.ndarray:
        """Values on the layout of bc at node ids 1..nx (node axis last)."""
        lo = 1 - int(self.node_ids(bc)[0])
        return values[..., lo:lo + self.nx]


def build_grid(x_left: float, x_right: float, nx: int, T: float,
               steps_per_period: int) -> Grid:
    """Validate mesh parameters and return a Grid.

    Raises:
        DomainError: if x_left >= x_right, an endpoint is not finite,
            nx < 3, T is not finite and positive, or steps_per_period < 8.
    """
    if not x_left < x_right:
        raise DomainError(f"need x_left < x_right, got ({x_left}, {x_right})")
    if not np.isfinite([x_left, x_right]).all():
        raise DomainError(f"need finite x_left and x_right, got ({x_left}, {x_right})")
    if nx < 3:
        raise DomainError(f"need nx >= 3, got {nx}")
    if not 0 < T < np.inf:
        raise DomainError(f"need finite T > 0, got {T}")
    if steps_per_period < 8:
        raise DomainError(f"need steps_per_period >= 8, got {steps_per_period}")
    return Grid(float(x_left), float(x_right), int(nx), float(T), int(steps_per_period))


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary operator for one equation group.

    group 1 is the host operator, group 2 the vector operator.  flavor
    "dirichlet" pins the endpoints to zero; "robin" imposes
    d_nu u + b u = 0 with nonnegative, T-periodic endpoint weights
    (b == 0 is the no-flux case).  A numeric weight is checked here; an
    expression weight is checked on the lattice by validate_hypothesis_H.
    """

    group: int
    flavor: str  # "dirichlet" | "robin"
    b_left: object | None = None   # Expression | float | None
    b_right: object | None = None

    def __post_init__(self):
        if self.group not in (1, 2):
            raise DomainError(f"boundary group must be 1 or 2, got {self.group}")
        if self.flavor not in ("dirichlet", "robin"):
            raise DomainError(f"unknown boundary flavor {self.flavor!r}")
        for name in ("b_left", "b_right"):
            b = getattr(self, name)
            if isinstance(b, numbers.Real) and not 0.0 <= b < math.inf:  # NaN fails too
                raise DomainError(f"Robin weight {name} must be nonnegative and "
                                  f"finite, got {b}")

    @classmethod
    def dirichlet(cls, group: int) -> "BoundarySpec":
        return cls(group=group, flavor="dirichlet")

    @classmethod
    def robin(cls, group: int, b_left=0.0, b_right=0.0) -> "BoundarySpec":
        return cls(group=group, flavor="robin", b_left=b_left, b_right=b_right)

    @classmethod
    def neumann(cls, group: int) -> "BoundarySpec":
        return cls.robin(group, 0.0, 0.0)

    def b_at(self, grid: Grid, t) -> tuple:
        """Endpoint weights (left, right) at time t: floats for a float t,
        arrays for a 1-D array of times."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        bl = field_lattice(self.b_left, [grid.x_left], ts)[:, 0]
        br = field_lattice(self.b_right, [grid.x_right], ts)[:, 0]
        if np.ndim(t) == 0:
            return float(bl[0]), float(br[0])
        return bl, br


@dataclass(frozen=True)
class DiffusionMatrix:
    """Tridiagonal discretisation of div(d grad .) at a fixed time.

    Dimension nx (Dirichlet) or nx+2 (Robin); `lower`/`upper` hold the
    off-diagonals (length n-1).  Assembled over an array of times, every
    diagonal gains a leading time axis.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.shape[-1]

    def to_dense(self) -> np.ndarray:
        return (np.diag(self.diag) + np.diag(self.upper, 1)
                + np.diag(self.lower, -1))


def assemble_diffusion(grid: Grid, d, bc: BoundarySpec, t) -> DiffusionMatrix:
    """Assemble div(d grad .) on the layout induced by `bc` at time t.

    Args:
        grid: the mesh.
        d: diffusion field (Expression or float).
        bc: boundary flavor; Robin weights are evaluated at time t.
        t: assembly time, or a 1-D array of times for a stacked result.

    Raises:
        CoefficientError: if d is not strictly positive at every face.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    faces = grid.faces()
    dface = field_lattice(d, faces, ts)
    bad = np.min(dface, axis=1) <= 0.0
    if np.any(bad):
        j = int(np.argmax(bad))
        k = int(np.argmin(dface[j]))
        raise CoefficientError(
            f"diffusion must be positive; got {dface[j, k]:.6g} at x={faces[k]:.6g}, "
            f"t={ts[j]:.6g}")

    h2 = grid.h * grid.h
    if bc.flavor == "dirichlet":
        # interior nodes only; eliminated boundary values are zero
        diag = -(dface[:, :-1] + dface[:, 1:]) / h2
        lower = dface[:, 1:-1] / h2
        upper = lower.copy()
    else:
        # Robin: endpoints are unknowns; ghost elimination with mirrored faces
        n = grid.nx + 2
        diag = np.empty((len(ts), n))
        lower = np.empty((len(ts), n - 1))
        upper = np.empty((len(ts), n - 1))
        diag[:, 1:-1] = -(dface[:, :-1] + dface[:, 1:]) / h2
        lower[:, :-1] = dface[:, :-1] / h2   # rows 1..nx, column to the left
        upper[:, 1:] = dface[:, 1:] / h2     # rows 1..nx, column to the right
        bl, br = bc.b_at(grid, ts)
        diag[:, 0] = -2.0 * dface[:, 0] / h2 - 2.0 * bl * dface[:, 0] / grid.h
        upper[:, 0] = 2.0 * dface[:, 0] / h2
        diag[:, -1] = -2.0 * dface[:, -1] / h2 - 2.0 * br * dface[:, -1] / grid.h
        lower[:, -1] = 2.0 * dface[:, -1] / h2
    if np.ndim(t) == 0:
        return DiffusionMatrix(lower[0], diag[0], upper[0])
    return DiffusionMatrix(lower, diag, upper)


def map_between(values: np.ndarray, src: BoundarySpec, dst: BoundarySpec) -> np.ndarray:
    """Re-express a nodal vector from one layout on another.

    Dirichlet components carry zero endpoint values, so restriction drops
    them and prolongation pads them back; both directions are exact.  The
    node axis is the last one, so stacked levels map row by row.
    """
    if src.flavor == dst.flavor:
        return values
    if src.flavor == "robin":       # full -> interior
        return values[..., 1:-1]
    out = np.zeros(values.shape[:-1] + (values.shape[-1] + 2,), dtype=values.dtype)
    out[..., 1:-1] = values
    return out
