"""Run configuration: flat INI sections mapped onto solver inputs.

Sections: [domain] endpoints and period; [grid] resolution; [bc1]/[bc2]
boundary flavor per equation group (neumann default, robin takes b_left
and b_right expressions, dirichlet pins zero); [coefficients] one
expression per field; [solver] tolerances and caps; [run] initial-data
expressions and trajectory length; [sweep] optional parameter scan.

Overrides are "section.key=value" strings applied before interpretation,
so they are validated exactly like file values.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import math
from dataclasses import dataclass

from .coeffs import COEFFICIENT_FIELDS, CoefficientSet, parse_expression
from .dynamics import DEFAULT_INITIAL
from .eigen import SolverOptions
from .errors import ConfigError, DomainError, ParseError
from .grid import BoundarySpec, Grid, build_grid
from .stepper import check_trajectory

__all__ = ["SweepSettings", "RunConfig", "load_config", "substituted_coeffs"]


def _finite(raw, positive=False):
    """A finite float, and with positive set a float above zero."""
    v = float(raw)
    if not math.isfinite(v):  # NaN fails too
        raise ConfigError(f"must be finite, got {v}")
    if positive and v <= 0:
        raise ConfigError(f"must be positive, got {v}")
    return v


_positive = functools.partial(_finite, positive=True)


def _count(raw):
    v = int(raw)
    if v < 1:
        raise ConfigError(f"must be a positive count, got {v}")
    return v


def _parameter(raw: str) -> str:
    if raw not in COEFFICIENT_FIELDS:
        raise ConfigError(f"{raw!r} is not a coefficient field "
                          f"(choose from {', '.join(COEFFICIENT_FIELDS)})")
    return raw


def _template(raw: str) -> str:
    parse_expression(raw, {"value": 0.0})  # syntax check up front
    return raw


def _values(raw: str) -> tuple:
    values = tuple(_finite(p) for p in raw.replace(",", " ").split())
    if not values:
        raise ConfigError("value list is empty")
    return values


# SolverOptions field -> (section, converter), in the order keys are read;
# the defaults are SolverOptions' own
_OPTIONS = {
    "eigen_tol": ("solver", _positive),
    "orbit_tol": ("solver", _positive),
    "band": ("solver", _positive),
    "max_eigen_iters": ("solver", _count),
    "max_periods": ("solver", _count),
    "blowup_cap": ("solver", _positive),
    "n_periods": ("run", _count),
    "sample_stride": ("run", _count),
    "target": ("run", _positive),
}
# [run] initial data, one expression per component (H_i, V_u, V_i) at t = 0
_DEFAULT_INITIAL = {f"initial_{name}": repr(value)
                    for name, value in zip(("H_i", "V_u", "V_i"), DEFAULT_INITIAL)}
# SweepSettings field -> converter, in the order keys are read
_SWEEP = {"parameter": _parameter, "template": _template, "values": _values}
_SCHEMA = {
    "domain": {"x_left", "x_right", "T"},
    "grid": {"nx", "steps_per_period"},
    "bc1": {"flavor", "b_left", "b_right"},
    "bc2": {"flavor", "b_left", "b_right"},
    "coefficients": set(COEFFICIENT_FIELDS),
    "solver": {key for key, (sec, _) in _OPTIONS.items() if sec == "solver"},
    "run": {key for key, (sec, _) in _OPTIONS.items() if sec == "run"}
           | set(_DEFAULT_INITIAL),
    "sweep": set(_SWEEP),
}


@dataclass(frozen=True)
class SweepSettings:
    """One coefficient scanned over a value list.

    template is an expression in x, t, and the reserved identifier
    `value`, substituted per row."""

    parameter: str
    template: str
    values: tuple


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    bc1: BoundarySpec
    bc2: BoundarySpec
    coeffs: CoefficientSet
    solver: SolverOptions
    initial: tuple      # trajectory initial data, Expressions at t = 0
    sweep: SweepSettings | None


# ─────────────────────────────────────────────────────────────── loading ──


def _fail(section: str, key: str, detail: str):
    raise ConfigError(f"[{section}] {key}: {detail}")


def _get(parser, section, key, convert, default=None):
    """The one reader of a config value: convert(raw), where an absent key
    reads default, and a key without one is required.  Every failure names
    [section] key; a ParseError keeps its class and offset."""
    raw = parser.get(section, key, fallback=default)
    if raw is None:
        _fail(section, key, "required key missing")
    try:
        return convert(raw)
    except ParseError as exc:   # the same error, its message led by the key
        exc.args = (f"[{section}] {key}: {exc}",)
        raise
    except ConfigError as exc:  # a range check
        _fail(section, key, str(exc))
    except Exception as exc:
        _fail(section, key, f"cannot read {raw!r} ({exc})")


def _apply_overrides(parser: configparser.ConfigParser, overrides) -> None:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        key, _, value = item.partition("=")
        if "." not in key:
            raise ConfigError(f"override key {key!r} must be section.key")
        section, _, option = key.partition(".")
        section, option = section.strip(), option.strip()
        if section not in _SCHEMA:
            raise ConfigError(f"override names unknown section [{section}]")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, value.strip())


def _check_schema(parser: configparser.ConfigParser) -> None:
    if parser.defaults():   # configparser would copy each key into every section
        raise ConfigError("unknown section [DEFAULT]")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for required in ("domain", "grid", "coefficients"):
        if not parser.has_section(required):
            raise ConfigError(f"missing required section [{required}]")


def _boundary(parser, section: str, group: int) -> BoundarySpec:
    """The group's boundary operator; a robin flavor carries its weights as
    parsed expressions, which both the solver and validation read."""
    flavor = _get(parser, section, "flavor", str.lower, "neumann")
    if flavor == "dirichlet":
        return BoundarySpec.dirichlet(group)
    if flavor == "neumann":
        return BoundarySpec.neumann(group)
    if flavor != "robin":
        _fail(section, "flavor", f"expected dirichlet, neumann, or robin, got {flavor!r}")
    b_left, b_right = (_get(parser, section, key, parse_expression, "0")
                       for key in ("b_left", "b_right"))
    return BoundarySpec.robin(group, b_left, b_right)


def load_config(path: str, overrides=()) -> RunConfig:
    """Read, override, and interpret a UTF-8 config file.

    Every value is read through _get, so each failure names its
    [section] key.  Raises ConfigError for a file that is missing or
    cannot be read or parsed, and for structural problems and bad values;
    a bad expression raises ParseError, its message opening with the key
    (both map to the same exit code).
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # coefficient names are case-sensitive (H_u)
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:   # a directory, not UTF-8, ...
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {path}: {reason}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    _apply_overrides(parser, overrides)
    _check_schema(parser)

    grid = build_grid(
        x_left=_get(parser, "domain", "x_left", float),
        x_right=_get(parser, "domain", "x_right", float),
        nx=_get(parser, "grid", "nx", _count),
        T=_get(parser, "domain", "T", _positive),
        steps_per_period=_get(parser, "grid", "steps_per_period", _count))

    bc1 = _boundary(parser, "bc1", 1)
    bc2 = _boundary(parser, "bc2", 2)

    coeffs = CoefficientSet(**{
        name: _get(parser, "coefficients", name, parse_expression)
        for name in COEFFICIENT_FIELDS})

    solver = SolverOptions(**{
        name: _get(parser, section, name, convert, getattr(SolverOptions, name))
        for name, (section, convert) in _OPTIONS.items()})
    # a stride the config sets is checked here, as a setting; the default
    # one only by the subcommands that keep a trajectory
    if parser.has_option("run", "sample_stride"):
        try:
            check_trajectory(grid, solver.n_periods, solver.sample_stride)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None

    initial = tuple(_get(parser, "run", key, parse_expression, default)
                    for key, default in _DEFAULT_INITIAL.items())

    sweep = None
    if parser.has_section("sweep"):
        sweep = SweepSettings(**{key: _get(parser, "sweep", key, convert)
                                 for key, convert in _SWEEP.items()})

    return RunConfig(grid=grid, bc1=bc1, bc2=bc2, coeffs=coeffs, solver=solver,
                     initial=initial, sweep=sweep)


def substituted_coeffs(cfg: RunConfig, value: float) -> CoefficientSet:
    """Coefficient set with the sweep parameter's expression replaced by
    the template evaluated at this row's value (inlined as a constant)."""
    if cfg.sweep is None:
        raise ConfigError("config has no [sweep] section")
    expr = parse_expression(cfg.sweep.template, {"value": float(value)})
    return dataclasses.replace(cfg.coeffs, **{cfg.sweep.parameter: expr})
