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
import math
import os
from dataclasses import dataclass

from .coeffs import COEFFICIENT_FIELDS, CoefficientSet, parse_expression
from .errors import ConfigError, DomainError
from .grid import BoundarySpec, Grid, build_grid
from .periodic import SolverOptions
from .stepper import check_trajectory

__all__ = ["RunSettings", "SweepSettings", "RunConfig", "load_config",
           "substituted_coeffs"]


def _finite(raw, positive=False):
    v = float(raw)
    if not (0 < v < math.inf if positive else math.isfinite(v)):  # NaN fails too
        raise ConfigError(f"must be {'positive' if positive and v <= 0 else 'finite'}, got {v}")
    return v


def _positive(raw):
    return _finite(raw, positive=True)


def _count(raw):
    v = int(raw)
    if v < 1:
        raise ConfigError(f"must be a positive count, got {v}")
    return v


# SolverOptions field -> (section, converter), in the order keys are read;
# the defaults are SolverOptions' own
_OPTIONS = {
    "eigen_tol": ("solver", _positive),
    "orbit_tol": ("solver", _positive),
    "band": ("solver", _positive),
    "max_eigen_iters": ("solver", _count),
    "max_periods": ("solver", _count),
    "blowup_cap": ("solver", _positive),
    "eps": ("solver", float),
    "n_periods": ("run", _count),
    "sample_stride": ("run", _count),
    "target": ("run", _positive),
}
_SCHEMA = {
    "domain": {"x_left", "x_right", "T"},
    "grid": {"nx", "steps_per_period"},
    "bc1": {"flavor", "b_left", "b_right"},
    "bc2": {"flavor", "b_left", "b_right"},
    "coefficients": set(COEFFICIENT_FIELDS),
    "solver": {key for key, (sec, _) in _OPTIONS.items() if sec == "solver"},
    "run": {key for key, (sec, _) in _OPTIONS.items() if sec == "run"}
           | {"t_offset", "initial_H_i", "initial_V_u", "initial_V_i"},
    "sweep": {"parameter", "template", "values"},
}
_DEFAULT_INITIAL = {"initial_H_i": "1.0", "initial_V_u": "0.5",
                    "initial_V_i": "0.1"}


@dataclass(frozen=True)
class RunSettings:
    """Trajectory initial data (expressions at t = 0) and the validation
    time offset."""

    initial: tuple
    t_offset: float = 0.0


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
    run: RunSettings
    sweep: SweepSettings | None


# ─────────────────────────────────────────────────────────────── loading ──


def _fail(section: str, key: str, detail: str):
    raise ConfigError(f"[{section}] {key}: {detail}")


def _get(parser, section, key, convert, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            _fail(section, key, "required key missing")
        return default
    raw = parser.get(section, key)
    try:
        return convert(raw)
    except ConfigError as exc:  # a range check: name the key
        raise ConfigError(f"{key} {exc}") from None
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
    flavor = parser.get(section, "flavor", fallback="neumann").strip().lower()
    if flavor == "dirichlet":
        return BoundarySpec.dirichlet(group)
    if flavor == "neumann":
        return BoundarySpec.neumann(group)
    if flavor != "robin":
        _fail(section, "flavor", f"expected dirichlet, neumann, or robin, got {flavor!r}")
    b_left, b_right = (parse_expression(parser.get(section, key, fallback="0"))
                       for key in ("b_left", "b_right"))
    return BoundarySpec.robin(group, b_left, b_right)


def load_config(path: str, overrides=()) -> RunConfig:
    """Read, override, and interpret a config file.

    Raises ConfigError for structural problems and lets expression
    ParseErrors surface as themselves (both map to the same exit code).
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # coefficient names are case-sensitive (H_u)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    _apply_overrides(parser, overrides)
    _check_schema(parser)

    grid = build_grid(
        x_left=_get(parser, "domain", "x_left", float, required=True),
        x_right=_get(parser, "domain", "x_right", float, required=True),
        nx=_get(parser, "grid", "nx", _count, required=True),
        T=_get(parser, "domain", "T", _positive, required=True),
        steps_per_period=_get(parser, "grid", "steps_per_period", _count,
                              required=True))

    bc1 = _boundary(parser, "bc1", 1)
    bc2 = _boundary(parser, "bc2", 2)

    fields = {name: _get(parser, "coefficients", name, str, required=True)
              for name in COEFFICIENT_FIELDS}
    coeffs = CoefficientSet(T=grid.T, **{
        name: parse_expression(src) for name, src in fields.items()})

    solver = SolverOptions(**{
        name: _get(parser, section, name, convert, getattr(SolverOptions, name))
        for name, (section, convert) in _OPTIONS.items()})
    if not 0 <= solver.eps < math.inf:  # NaN fails too
        raise ConfigError("[solver] eps: must be "
                          + ("nonnegative" if solver.eps < 0 else "finite"))
    # a stride the config sets is checked here, as a setting; the default
    # one only by the subcommands that keep a trajectory
    if parser.has_option("run", "sample_stride"):
        try:
            check_trajectory(grid, solver.n_periods, solver.sample_stride)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None

    initial = tuple(
        parse_expression(_get(parser, "run", key, str, _DEFAULT_INITIAL[key]))
        for key in ("initial_H_i", "initial_V_u", "initial_V_i"))
    run = RunSettings(initial=initial,
                      t_offset=_get(parser, "run", "t_offset", _finite, 0.0))

    sweep = None
    if parser.has_section("sweep"):
        parameter = _get(parser, "sweep", "parameter", str, required=True).strip()
        if parameter not in COEFFICIENT_FIELDS:
            _fail("sweep", "parameter",
                  f"{parameter!r} is not a coefficient field "
                  f"(choose from {', '.join(COEFFICIENT_FIELDS)})")
        template = _get(parser, "sweep", "template", str, required=True)
        parse_expression(template, {"value": 0.0})  # syntax check up front
        raw = _get(parser, "sweep", "values", str, required=True)
        parts = [p for chunk in raw.split(",") for p in chunk.split()]
        try:
            values = tuple(_finite(p) for p in parts)
        except (ValueError, ConfigError) as exc:
            _fail("sweep", "values", str(exc))
        if not values:
            _fail("sweep", "values", "value list is empty")
        sweep = SweepSettings(parameter=parameter, template=template, values=values)

    return RunConfig(grid=grid, bc1=bc1, bc2=bc2, coeffs=coeffs, solver=solver,
                     run=run, sweep=sweep)


def substituted_coeffs(cfg: RunConfig, value: float) -> CoefficientSet:
    """Coefficient set with the sweep parameter's expression replaced by
    the template evaluated at this row's value (inlined as a constant)."""
    if cfg.sweep is None:
        raise ConfigError("config has no [sweep] section")
    expr = parse_expression(cfg.sweep.template, {"value": float(value)})
    return dataclasses.replace(cfg.coeffs, **{cfg.sweep.parameter: expr})
