"""Seeded workload generator and per-verdict correctness checks.

Every workload is a list of strata.  One round of a workload runs one
operation per stratum, in stratum order; the seed only jitters the draw
inside each stratum, so every round has the same cost profile and the same
mix of expected outcomes while the program still sees new inputs.

The program receives nothing but the generated INI files.  Expected regimes
come from closed forms (constant coefficients) or from comparison bounds on
the invasion matrix (seasonal beta), never from the program itself.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

EXTINCTION = "EXTINCTION"
DISEASE_FREE = "DISEASE_FREE"
ENDEMIC = "ENDEMIC"

BAND = 1e-3          # the program's default decision band
MARGIN = 0.02        # every expected sign clears the band by at least this
# |zeta - (mu1 - mean beta)| on no-flux vector boundaries.  Crank-Nicolson
# on a space-independent growth rate g(t) = beta - mu1 is biased by about
# dt^2 * mean(g^3) / 12, at most 5e-6 for every draw below.
ZETA_TOL = 1e-5
# |lambda(V) - closed form| for constant coefficients
LAMBDA_TOL = 1e-6

# ── closed forms ────────────────────────────────────────────────────────────


def dominant_growth(rho, a, b, c):
    """Largest eigenvalue of [[-rho, a], [b, -c]] (a, b >= 0)."""
    return 0.5 * (-(rho + c) + math.sqrt((rho - c) ** 2 + 4.0 * a * b))


def expected_regime(p: dict):
    """Regime, zeta and lambda(V) implied by a parameter set, or None.

    p holds the space-independent coefficients rho, sigma1, sigma2, mu1,
    mu2, H_u, the seasonal beta = b0 + a*sin(2*pi*(t+phase)) as b0 and a,
    and host_dirichlet.  Vector boundaries are no-flux, so
    zeta = mu1 - b0 exactly.  With a == 0 lambda(V) is the closed form of
    the constant invasion matrix; with a > 0 it is bracketed by comparison
    with constant matrices built from the extremes of the carrying orbit
    V(t), which lies in [(b0-a-mu1)/mu2, (b0+a-mu1)/mu2].  A Dirichlet host
    only adds decay, so it can confirm DISEASE_FREE but not ENDEMIC.

    Returns (regime, zeta, lambda_or_None), or None when neither the
    closed form nor the bounds decide the regime with MARGIN to spare.
    """
    z = p["mu1"] - p["b0"]
    if z >= BAND + MARGIN:
        return EXTINCTION, z, None
    if z > -(BAND + MARGIN):
        return None
    a_hu = p["sigma1"] * p["H_u"]
    vmin = max(p["b0"] - p["a"] - p["mu1"], 0.0) / p["mu2"]
    vmax = (p["b0"] + p["a"] - p["mu1"]) / p["mu2"]
    # lower comparison matrix: least coupling, most decay; upper: the reverse
    s_lo = dominant_growth(p["rho"], a_hu, p["sigma2"] * vmin,
                           p["mu1"] + p["mu2"] * vmax)
    s_hi = dominant_growth(p["rho"], a_hu, p["sigma2"] * vmax,
                           p["mu1"] + p["mu2"] * vmin)
    exact = -s_lo if p["a"] == 0.0 and not p["host_dirichlet"] else None
    if -s_hi >= BAND + MARGIN:
        return DISEASE_FREE, z, exact
    if -s_lo <= -(BAND + MARGIN) and not p["host_dirichlet"]:
        return ENDEMIC, z, exact
    return None


# ── generated cases ─────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Verdict:
    """What one verdict must show: the regime and the closed-form values."""

    regime: str
    zeta: float
    lambda_V: float | None = None


@dataclass(frozen=True)
class Case:
    """One operation: a CLI command on one generated config."""

    label: str
    slot: int        # the stratum it was drawn from
    command: str
    config: str
    verdicts: tuple


def _f(v: float) -> str:
    return repr(float(v))


def _ini(nx, m, coeffs: dict, bc1="neumann", extra="") -> str:
    lines = ["[domain]", "x_left = 0.0", "x_right = 1.0", "T = 1.0", "",
             "[grid]", f"nx = {nx}", f"steps_per_period = {m}", "",
             "[bc1]", f"flavor = {bc1}", "", "[bc2]", "flavor = neumann", "",
             "[coefficients]"]
    lines += [f"{k} = {v}" for k, v in coeffs.items()]
    return "\n".join(lines) + "\n" + extra


def _seasonal(b0_src: str, a: float, phase: float) -> str:
    return f"{b0_src} + {_f(a)}*sin(2*pi*(t + {_f(phase)}))"


def _unit(rng, lo, hi):
    return float(lo + (hi - lo) * rng.random())


def _endemic_verify(rng, stratum):
    """Seasonal beta, space-independent coefficients, clearly endemic."""
    b0 = _unit(rng, *stratum["b0"])
    a = _unit(rng, 0.35, 0.4)
    phase = _unit(rng, 0.0, 1.0)
    vmin, vmax = b0 - a - 1.0, b0 + a - 1.0
    # H_u three times the invasion threshold of the lower comparison matrix
    hu = 3.0 * (1.0 + vmax) / vmin
    p = dict(rho=1.0, sigma1=1.0, sigma2=1.0, mu1=1.0, mu2=1.0, H_u=hu,
             b0=b0, a=a, host_dirichlet=False)
    coeffs = dict(rho="1", sigma1="1", sigma2="1",
                  beta=_seasonal(_f(b0), a, phase), mu1="1", mu2="1",
                  d1=_f(_unit(rng, 0.8, 1.2)), d2=_f(_unit(rng, 0.4, 0.6)),
                  H_u=_f(hu))
    amp = _unit(rng, 0.2, 0.5)
    extra = ("\n[run]\n"
             f"initial_H_i = 1 + {_f(amp)}*cos(pi*x)\n"
             f"initial_V_u = 0.5 + {_f(amp / 2)}*cos(pi*x)\n"
             "initial_V_i = 0.1\n")
    return "verify", _ini(127, 512, coeffs, extra=extra), [p]


def _threshold_sweep(rng, stratum):
    """A beta sweep over EXTINCTION and DISEASE_FREE rows, Dirichlet host."""
    a = _unit(rng, 0.15, 0.2)
    phase = _unit(rng, 0.0, 1.0)
    hu = _unit(rng, 0.3, 0.4)
    values = [_unit(rng, lo, hi) for lo, hi in stratum["values"]]
    coeffs = dict(rho="1", sigma1="1", sigma2="1",
                  beta="1", mu1="1", mu2="1",
                  d1=_f(_unit(rng, 0.8, 1.2)), d2=_f(_unit(rng, 0.4, 0.6)),
                  H_u=_f(hu))
    extra = ("\n[sweep]\nparameter = beta\n"
             f"template = {_seasonal('value', a, phase)}\n"
             f"values = {' '.join(_f(v) for v in values)}\n")
    ps = [dict(rho=1.0, sigma1=1.0, sigma2=1.0, mu1=1.0, mu2=1.0, H_u=hu,
               b0=v, a=a, host_dirichlet=True) for v in values]
    return "sweep", _ini(127, 512, coeffs, bc1="dirichlet", extra=extra), ps


def _near_threshold(rng, stratum):
    """Constant coefficients with zeta and lambda(V) close to zero."""
    z = _unit(rng, *stratum["zeta"])          # |zeta|
    s = _unit(rng, *stratum["lambda"])        # |lambda(V)|
    V = z                                     # (beta - mu1) / mu2, mu2 = 1
    hu = (s + 1.0) * (s + 1.0 + V) / V        # puts lambda(V) at -s exactly
    p = dict(rho=1.0, sigma1=1.0, sigma2=1.0, mu1=1.0, mu2=1.0, H_u=hu,
             b0=1.0 + z, a=0.0, host_dirichlet=False)
    coeffs = dict(rho="1", sigma1="1", sigma2="1", beta=_f(1.0 + z),
                  mu1="1", mu2="1", d1=_f(_unit(rng, 0.8, 1.2)),
                  d2=_f(_unit(rng, 0.4, 0.6)), H_u=_f(hu))
    return "classify", _ini(31, 128, coeffs), [p]


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    strata: tuple
    refusals_allowed: bool   # may the program decline to certify (exit 2)?


# Why each workload exists (README.md has the full table):
# endemic-verify is stepper-bound and the only one with a full trajectory;
# threshold-sweep is eigen-setup, lattice and validation bound and bypasses
# orbit iteration; near-threshold is periodic-iteration bound, and its
# strata avoid the seed commit's pass/fail edge at |zeta| ~ 0.16 so every
# round has the same outcome mix.  Its rates sit at the fast end of the
# slow-contraction windows, so that a run holds about eight operations and
# its median is not one or two of them.  One refused draw (cheap) against
# three certified ones (similar cost) keeps the median among the certified.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="endemic-verify", build=_endemic_verify,
        strata=({"b0": (2.85, 2.9)}, {"b0": (3.05, 3.1)}, {"b0": (3.25, 3.3)}),
        refusals_allowed=False),
    Workload(
        name="threshold-sweep", build=_threshold_sweep,
        strata=({"values": ((0.45, 0.5), (0.65, 0.7), (1.7, 1.75), (2.05, 2.1))},
                {"values": ((0.5, 0.55), (0.7, 0.75), (1.8, 1.85), (2.0, 2.05))},
                {"values": ((0.55, 0.6), (0.75, 0.8), (1.75, 1.8), (2.1, 2.15))}),
        refusals_allowed=False),
    Workload(
        name="near-threshold", build=_near_threshold,
        strata=({"zeta": (0.28, 0.285), "lambda": (0.085, 0.087)},
                {"zeta": (0.06, 0.062), "lambda": (0.09, 0.092)},
                {"zeta": (0.24, 0.245), "lambda": (0.09, 0.092)},
                {"zeta": (0.2, 0.205), "lambda": (0.098, 0.1)}),
        refusals_allowed=True),
)}


def make_case(workload: Workload, seed: int, round_no: int, slot: int) -> Case:
    """The deterministic case for one (seed, round, stratum) triple."""
    rng = np.random.default_rng([seed, round_no, slot])
    command, config, params = workload.build(rng, workload.strata[slot])
    verdicts = []
    for p in params:
        exp = expected_regime(p)
        if exp is None:
            raise ValueError(f"{workload.name} stratum {slot} drew an "
                             f"undecided parameter set: {p}")
        verdicts.append(Verdict(*exp))
    return Case(f"r{round_no}-s{slot}", slot, command, config, tuple(verdicts))


def make_round(workload: Workload, seed: int, round_no: int) -> list:
    return [make_case(workload, seed, round_no, k)
            for k in range(len(workload.strata))]


# ── checks on the program's output files ───────────────────────────────────


def read_report(path: str) -> dict:
    out = {}
    with open(path) as f:
        for line in f.read().splitlines():
            key, _, value = line.partition("=")
            out[key] = value
    return out


def _check_values(v: Verdict, regime: str, zeta: str, lam: str) -> str | None:
    if regime != v.regime:
        return f"regime {regime} != expected {v.regime}"
    if not abs(float(zeta) - v.zeta) <= ZETA_TOL:
        return f"zeta {zeta} off closed form {v.zeta!r} by more than {ZETA_TOL:g}"
    if v.lambda_V is not None and not abs(float(lam) - v.lambda_V) <= LAMBDA_TOL:
        return (f"lambda_V {lam} off closed form {v.lambda_V!r} "
                f"by more than {LAMBDA_TOL:g}")
    return None


def check_outputs(case: Case, out_dir: str) -> list:
    """One entry per verdict: None when it holds, else the mismatch."""
    if case.command == "classify":
        rep = read_report(os.path.join(out_dir, "classify_report.txt"))
        problem = _check_values(case.verdicts[0], rep["regime"], rep["zeta"],
                                rep["lambda_V"])
        if problem is None and not os.path.exists(
                os.path.join(out_dir, "attractor.csv")):
            problem = "attractor.csv missing"
        return [problem]
    if case.command == "verify":
        rep = read_report(os.path.join(out_dir, "verify_report.txt"))
        problem = _check_values(case.verdicts[0], rep["regime"], rep["zeta"],
                                rep["lambda_V"])
        if problem is None and rep["verdict"] != "PASS":
            problem = (f"verify verdict {rep['verdict']} "
                       f"(final_error {rep['final_error']})")
        return [problem]
    with open(os.path.join(out_dir, "sweep.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != len(case.verdicts):
        return [f"sweep.csv has {len(rows)} rows, expected "
                f"{len(case.verdicts)}"] * len(case.verdicts)
    return [_check_values(v, r["regime"], r["zeta"] or "nan", r["lambda_V"])
            for v, r in zip(case.verdicts, rows)]
