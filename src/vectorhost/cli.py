"""Command line front end.

Subcommands: validate (hypothesis report), eigen (threshold eigenvalues),
periodic (carrying orbit, forced host profile, endemic pair), simulate
(trajectory CSV), classify (regime report), verify (convergence study),
sweep (classify over a parameter value list).

Exit codes: 0 success, 1 config or parse error, 2 numerical failure
(non-convergence, blowup, gap), 3 standing-hypothesis violation, 4 regime
INDETERMINATE when --strict asked for a decisive answer.

All tabular output is CSV with comma separators, LF line endings, a fixed
header row, and 17 significant digits so repeated runs are byte-identical.
Reports are key=value text, one pair per line.  Warnings print on stderr
as one line each, `<Category>: <message>`.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
import warnings

import numpy as np

from ._workers import Worker, emitted, recorded, usable_cpus
from .coeffs import validate_hypothesis_H
from .config import RunConfig, load_config, substituted_coeffs
from .dynamics import build_initial_state, classify_regime, verify_trichotomy
from .eigen import gamma_rho, lambda_V
from .eigen import lambda_V as lambda_V_eps  # noqa: F401  (name the benchmark tracer wraps here)
from .errors import (CoefficientError, ConfigError, DomainError, EvalError,
                     InputError, ParseError, VectorHostError)
from .grid import BoundarySpec, map_between
from .periodic import (DISEASE_FREE, ENDEMIC, EXTINCTION, INDETERMINATE,
                       band_sign, decide, solve_Hbar, solve_endemic_pair,
                       solve_logistic_orbit)
from .stepper import NonlinearModel, check_trajectory, integrate_trajectory

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_HYPOTHESIS = 3
EXIT_INDETERMINATE = 4

_FMT = "%.17g"
_CONFIG_ERRORS = (ConfigError, ParseError, DomainError, InputError, EvalError)


def _fmt(v) -> str:
    if isinstance(v, float):
        return _FMT % v
    return str(v)


def _write_report(path: str, items) -> None:
    with open(path, "w") as f:
        for key, value in items:
            f.write(f"{key}={_fmt(value)}\n")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _node_csv(path: str, grid, named, times=None) -> None:
    """Node table: columns x, t, then one column per field.

    named is a sequence of (column, values, bc) with values shaped
    (len(times), n) on the layout of bc; times default to the m+1 levels
    k*dt of one period, where every orbit is stored.
    """
    times = np.arange(grid.steps_per_period + 1) * grid.dt if times is None else times
    xs = [_FMT % x for x in grid.full_nodes()]
    # every CSV uses the full node set; Dirichlet data gets its zero endpoints back
    padded = [map_between(values, bc, BoundarySpec.neumann(bc.group))
              for _, values, bc in named]
    line = "%s,%s" + f",{_FMT}" * len(padded) + "\n"   # numbers need no CSV quoting
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerow(["x", "t"] + [name for name, _, _ in named])
        for k, t in enumerate(times):   # level by level: no table of every row in memory
            rows = zip(xs, itertools.repeat(_FMT % t), *(p[k].tolist() for p in padded))
            f.writelines([line % row for row in rows])


def _report_violations(rep, stream) -> None:
    print("standing hypothesis violated:", file=stream)
    for v in rep.violations:
        print(f"  {v.describe()}", file=stream)


# ─────────────────────────────────────────────────────────── subcommands ──


def cmd_validate(cfg: RunConfig, args) -> int:
    rep = validate_hypothesis_H(cfg.coeffs, (cfg.bc1, cfg.bc2), cfg.grid)
    items = [("status", "PASS" if rep.passed else "FAIL"),
             ("violations", len(rep.violations))]
    for i, v in enumerate(rep.violations, 1):
        items.append((f"violation_{i}", v.describe()))
    _write_report(os.path.join(args.out, "validation.txt"), items)
    if rep.passed:
        print("hypothesis checks passed")
        return EXIT_OK
    _report_violations(rep, sys.stdout)
    return EXIT_HYPOTHESIS


def cmd_eigen(cfg: RunConfig, args) -> int:
    o = cfg.solver
    c, g = cfg.coeffs, cfg.grid
    lr = solve_logistic_orbit(c, cfg.bc2, g, o)
    gr = gamma_rho(c, cfg.bc1, g, o)
    items = [("zeta", lr.zeta),
             ("zeta_iterations", lr.zeta_result.iterations),
             ("zeta_residual", lr.zeta_result.eigenfunction.residual),
             ("gamma_rho", gr.value),
             ("gamma_rho_iterations", gr.iterations),
             ("gamma_rho_residual", gr.eigenfunction.residual)]
    histories = [("zeta", lr.zeta_result.r_history),
                 ("gamma_rho", gr.r_history)]
    if band_sign(lr.zeta, o.band) < 0:
        lam = lambda_V(c, (cfg.bc1, cfg.bc2), g, lr.orbit, o)
        items += [("lambda_V", lam.value),
                  ("lambda_V_iterations", lam.iterations),
                  ("lambda_V_residual", lam.eigenfunction.residual)]
        histories.append(("lambda_V", lam.r_history))
    else:
        items.append(("lambda_V", "ABSENT (carrying orbit is zero)"))
    _write_report(os.path.join(args.out, "eigen_report.txt"), items)
    rows = [[name, str(i), _FMT % r]
            for name, hist in histories for i, r in enumerate(hist)]
    _write_csv(os.path.join(args.out, "eigen_history.csv"),
               ["name", "iteration", "r_estimate"], rows)
    _node_csv(os.path.join(args.out, "phi_zeta.csv"), g,
              [("phi", lr.zeta_result.eigenfunction.samples[0], cfg.bc2)])
    print(f"zeta={lr.zeta:.6g} gamma_rho={gr.value:.6g}")
    return EXIT_OK


# how periodic's endemic_detail opens: the regime named above the band, the threshold inside it
_ABSENT = {EXTINCTION: "the vector population dies out",
           DISEASE_FREE: "the disease-free state resists invasion"}
_INSIDE = {"zeta": "growth threshold", "lambda(V)": "invasion exponent"}


def cmd_periodic(cfg: RunConfig, args) -> int:
    o = cfg.solver
    c, g = cfg.coeffs, cfg.grid
    bcs = (cfg.bc1, cfg.bc2)
    lr = solve_logistic_orbit(c, cfg.bc2, g, o)
    _node_csv(os.path.join(args.out, "V_orbit.csv"), g,
              [("V", lr.orbit.samples[0], cfg.bc2)])
    hbar = solve_Hbar(c, bcs, g, lr.orbit, o=o)
    _node_csv(os.path.join(args.out, "Hbar.csv"), g,
              [("H_bar", hbar.samples[0], cfg.bc1)])
    items = [("zeta", lr.zeta),
             ("V_converged_in", lr.converged_in),
             ("V_fixed_point_residual", lr.orbit.residual),
             ("V_agreement_gap", lr.gap),
             ("Hbar_sup", hbar.sup_norm())]
    lam = lambda_V(c, bcs, g, lr.orbit, o) if band_sign(lr.zeta, o.band) < 0 else None
    regime, name, value = decide(lr.zeta, None if lam is None else lam.value, o.band)
    if regime == ENDEMIC:
        pair = solve_endemic_pair(c, bcs, g, o, lr, lam, hbar=hbar)
        items += [("endemic_status", "PRESENT"),
                  ("lambda_V", lam.value),
                  ("endemic_gap", pair.gap),
                  ("endemic_converged_in", pair.converged_in),
                  ("endemic_upper_residual", pair.orbit.residual),
                  ("endemic_lower_residual", pair.lower_residual)]
        _node_csv(os.path.join(args.out, "endemic_orbit.csv"), g,
                  list(zip(("H_i", "V_i"), pair.orbit.samples, bcs)))
    elif regime == INDETERMINATE:
        items += [("endemic_status", "INDETERMINATE"),
                  ("endemic_detail", f"{_INSIDE[name]} {value:.6g} lies inside the "
                   f"decision band (+/-{o.band:g}); endemic state unresolved "
                   "at this resolution")]
    else:
        items += [("endemic_status", "ABSENT"),
                  ("endemic_detail", f"{_ABSENT[regime]} ({name} = {value:.6g} "
                   f">= {o.band:g}); endemic orbit absent")]
    _write_report(os.path.join(args.out, "periodic_report.txt"), items)
    print(f"zeta={lr.zeta:.6g} endemic={dict(items)['endemic_status']}")
    if regime == INDETERMINATE and args.strict:
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, args) -> int:
    o = cfg.solver
    u0 = build_initial_state(cfg.grid, cfg.bc1, cfg.bc2, cfg.initial)
    model = NonlinearModel(kind="full", c=cfg.coeffs, bc1=cfg.bc1,
                           bc2=cfg.bc2, grid=cfg.grid, cap=o.blowup_cap)
    traj = integrate_trajectory(model, u0, o.n_periods, o.sample_stride)
    names = ("H_i", "V_u", "V_i")
    _node_csv(os.path.join(args.out, "trajectory.csv"), cfg.grid,
              list(zip(names, traj.samples, (cfg.bc1, cfg.bc2, cfg.bc2))), traj.times)
    items = [("n_periods", o.n_periods),
             ("sample_stride", o.sample_stride),
             ("samples", len(traj.steps)),
             ("final_t", float(traj.times[-1]))]
    for name, s in zip(names, traj.samples):
        items.append((f"final_sup_{name}", float(np.max(np.abs(s[-1])))))
    _write_report(os.path.join(args.out, "simulate_report.txt"), items)
    print(f"integrated {o.n_periods} periods, {len(traj.steps)} samples")
    return EXIT_OK


def _classify_items(rep, o) -> list:
    return [("regime", rep.regime),
            ("zeta", rep.zeta),
            ("lambda_V", "" if rep.lambda_V is None else rep.lambda_V),
            ("band", o.band),
            ("attractor", rep.attractor_kind)]


def cmd_classify(cfg: RunConfig, args) -> int:
    rep = classify_regime(cfg.coeffs, (cfg.bc1, cfg.bc2), cfg.grid, cfg.solver)
    _write_report(os.path.join(args.out, "classify_report.txt"),
                  _classify_items(rep, cfg.solver))
    if rep.attractor is not None:
        _node_csv(os.path.join(args.out, "attractor.csv"), cfg.grid,
                  list(zip(("H_i", "V_u", "V_i"), rep.attractor.samples,
                           (cfg.bc1, cfg.bc2, cfg.bc2))))
    print(f"regime={rep.regime} zeta={rep.zeta:.6g}"
          + ("" if rep.lambda_V is None else f" lambda_V={rep.lambda_V:.6g}"))
    if rep.regime == INDETERMINATE and args.strict:
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    o = cfg.solver
    cr = verify_trichotomy(cfg.coeffs, (cfg.bc1, cfg.bc2), cfg.grid,
                           initial=cfg.initial, o=o)
    items = _classify_items(cr.regime_report, o)
    items += [("verdict", cr.verdict),
              ("final_error", cr.final_error),
              ("median_ratio", cr.median_ratio),
              ("n_periods", o.n_periods),
              ("target", o.target)]
    _write_report(os.path.join(args.out, "verify_report.txt"), items)
    _write_csv(os.path.join(args.out, "convergence.csv"), ["n", "e_n"],
               [[str(n), _FMT % e] for n, e in enumerate(cr.errors)])
    print(f"regime={cr.regime_report.regime} verdict={cr.verdict}"
          f" final_error={cr.final_error:.6g}")
    if cr.regime_report.regime == INDETERMINATE and args.strict:
        return EXIT_INDETERMINATE
    return EXIT_OK


def _sweep_row(cfg: RunConfig, value: float) -> tuple:
    """One sweep row, (value, zeta, lambda_V, regime): ERROR when the
    substituted coefficients break the hypothesis or a solve fails."""
    bcs = (cfg.bc1, cfg.bc2)
    try:
        c = substituted_coeffs(cfg, value)
        if not validate_hypothesis_H(c, bcs, cfg.grid).passed:
            return (value, "", "", "ERROR")
        rep = classify_regime(c, bcs, cfg.grid, cfg.solver)
        lam = "" if rep.lambda_V is None else _FMT % rep.lambda_V
        return (value, _FMT % rep.zeta, lam, rep.regime)
    except VectorHostError:
        return (value, "", "", "ERROR")


def _recorded_rows(ask, cfg: RunConfig, values) -> list:
    """A worker's rows, each recorded for the parent to emit.  The worker
    looks _sweep_row up itself, so a wrapped one runs there."""
    return [recorded(_sweep_row, cfg, value) for value in values]


def _sweep_rows(cfg: RunConfig) -> list:
    """Every row of the sweep, in input order.

    The rows are independent, so with at least two rows and two usable
    CPUs, k = min(rows, CPUs) forked workers run them (see _workers),
    worker i the rows values[i::k].  Each row's warnings are recorded in
    its worker and emitted here in row order, so each prints once, as
    in-process.
    """
    values = cfg.sweep.values
    k = min(len(values), usable_cpus())
    if k < 2:
        return [_sweep_row(cfg, value) for value in values]
    workers = []
    try:
        for i in range(k):
            workers.append(Worker(_recorded_rows, cfg, values[i::k]))
        parts = [worker.result() for worker in workers]
    finally:
        for worker in workers:   # reaps every worker, on any exit path
            worker.stop()
    return [emitted(*parts[i % k][i // k]) for i in range(len(values))]


def cmd_sweep(cfg: RunConfig, args) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep subcommand needs a [sweep] section")
    rows = _sweep_rows(cfg)
    _write_csv(os.path.join(args.out, "sweep.csv"),
               ["value", "zeta", "lambda_V", "regime"],
               [[_FMT % v, z, l, r] for v, z, l, r in rows])
    ok = sum(1 for row in rows if row[3] != "ERROR")
    _write_report(os.path.join(args.out, "sweep_report.txt"),
                  [("parameter", cfg.sweep.parameter),
                   ("rows", len(rows)),
                   ("succeeded", ok),
                   ("failed", len(rows) - ok)])
    for v, _, _, regime in rows:
        print(f"{cfg.sweep.parameter}<-{v:g}: {regime}")
    return EXIT_OK if ok else EXIT_NUMERICAL


_DISPATCH = {
    "validate": cmd_validate,
    "eigen": cmd_eigen,
    "periodic": cmd_periodic,
    "simulate": cmd_simulate,
    "classify": cmd_classify,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vectorhost",
        description="Seasonal vector-host model: eigenvalues, periodic "
                    "orbits, and regime classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "validate": "check the standing hypothesis and write a report",
        "eigen": "compute the threshold eigenvalues",
        "periodic": "build the carrying orbit, host profile, and endemic pair",
        "simulate": "integrate the full model and dump the trajectory",
        "classify": "name the long-time regime",
        "verify": "measure convergence of a trajectory to the attractor",
        "sweep": "classify over a parameter value list",
    }
    for name in _DISPATCH:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, metavar="PATH",
                       help="run configuration file")
        p.add_argument("--out", default="./out", metavar="DIR",
                       help="output directory, created if absent")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="replace a config value (repeatable)")
        p.add_argument("--strict", action="store_true",
                       help="exit 4 when the regime is INDETERMINATE")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # remap argparse usage errors onto the contract
        return EXIT_OK if not exc.code else EXIT_CONFIG
    # one line per warning, without a source location that varies by install
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, category, *_: print(
            f"{category.__name__}: {message}", file=sys.stderr)
        try:
            cfg = load_config(args.config, tuple(args.override))
            if args.command in ("simulate", "verify"):   # the two that keep a trajectory
                check_trajectory(cfg.grid, cfg.solver.n_periods, cfg.solver.sample_stride)
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory {args.out}: "
                                  f"{exc.strerror}") from None
            # the standing hypothesis gates every solve; validate reports it
            # itself and sweep checks each substituted row
            if args.command not in ("validate", "sweep"):
                rep = validate_hypothesis_H(cfg.coeffs, (cfg.bc1, cfg.bc2), cfg.grid)
                if not rep.passed:
                    _report_violations(rep, sys.stderr)
                    return EXIT_HYPOTHESIS
            return _DISPATCH[args.command](cfg, args)
        except _CONFIG_ERRORS as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except CoefficientError as exc:
            print(f"hypothesis violation: {exc}", file=sys.stderr)
            return EXIT_HYPOTHESIS
        except VectorHostError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
