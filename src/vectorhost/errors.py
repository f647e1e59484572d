"""Exception taxonomy shared across the package.

Grouped by the stage that raises them: input/setup errors, and numerical
failures with the one warning. The CLI maps these onto its exit-code
contract (see cli.py).
"""

from __future__ import annotations


class VectorHostError(Exception):
    """Base class for all package-specific errors."""


# ── input / setup ──────────────────────────────────────────────────────────


class DomainError(VectorHostError):
    """Invalid spatial/temporal domain parameters."""


class ParseError(VectorHostError):
    """Expression source rejected by the grammar.

    Carries the byte offset of the offending token and a short note on
    what was expected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(VectorHostError):
    """Expression evaluation produced a division by zero or non-finite value."""


class CoefficientError(VectorHostError):
    """Coefficient field unusable where required (e.g. diffusion <= 0 at a face)."""


class InputError(VectorHostError):
    """A supplied field/orbit violates an operation's precondition."""


class ConfigError(VectorHostError):
    """Malformed or incomplete run configuration."""


# ── numerical failures ─────────────────────────────────────────────────────


class SolveError(VectorHostError):
    """A linear solve failed (singular or ill-posed implicit matrix)."""


class BlowupError(VectorHostError):
    """Trajectory exceeded the finite-time blow-up cap."""


class NoConvergence(VectorHostError):
    """Iteration failed to reach tolerance within its budget."""

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class NonUniqueOrbit(VectorHostError):
    """Upper and lower fixed-point limits disagree beyond tolerance."""


class GapError(VectorHostError):
    """Monotone upper/lower sequences left a gap beyond tolerance."""


class InternalError(VectorHostError):
    """An invariant the theory guarantees failed numerically."""


class ReducibleSystemWarning(UserWarning):
    """Principal eigenfunction has interior zeros: the cooperative system
    is reducible and the Perron structure is degenerate."""
