"""Regime classification and trichotomy verification."""

import multiprocessing
import os
import signal
import statistics
import time

import numpy as np
import pytest

from vectorhost import _workers, dynamics
from vectorhost import (DISEASE_FREE, ENDEMIC, EXTINCTION, INDETERMINATE,
                        BlowupError, BoundarySpec, DomainError, InputError,
                        NoConvergence, NonlinearModel, SolverOptions, build_grid,
                        build_initial_state,
                        classify_regime, integrate_over_period,
                        integrate_trajectory, lambda_V, parse_expression,
                        solve_logistic_orbit, verify_trichotomy, zeta)
from conftest import make_constants


# ─────────────────────────────────────────────────────── classification ──


def test_classify_endemic(endemic_report):
    r = endemic_report
    assert r.regime == ENDEMIC
    assert r.zeta == pytest.approx(-1.0, abs=1e-4)
    assert r.lambda_V == pytest.approx(-0.7912878474779199, abs=1e-4)
    assert r.attractor_kind == "(H_i, V - V_i, V_i)"
    a = r.attractor
    assert np.max(np.abs(a.samples[0] - 3.0)) < 1e-6
    assert np.max(np.abs(a.samples[1] - 0.4)) < 1e-6
    assert np.max(np.abs(a.samples[2] - 0.6)) < 1e-6


def test_classify_disease_free(disease_free_report):
    r = disease_free_report
    assert r.regime == DISEASE_FREE
    assert r.lambda_V == pytest.approx(0.3819660112501051, abs=1e-4)
    assert r.attractor_kind == "(0, V, 0)"
    a = r.attractor
    assert a.samples[0].max() == 0.0
    assert np.max(np.abs(a.samples[1] - 1.0)) < 1e-6
    assert a.samples[2].max() == 0.0


def test_classify_extinction(extinction_report):
    r = extinction_report
    assert r.regime == EXTINCTION
    assert r.zeta == pytest.approx(1.0, abs=1e-4)
    assert r.lambda_V is None       # no carrying orbit to invade
    assert r.attractor.sup_norm() == 0.0
    assert r.attractor_kind == "(0, 0, 0)"


def test_classify_indeterminate(neumann_bcs, grid31):
    # H_u = 2 puts lambda(V) at zero exactly
    r = classify_regime(make_constants(H_u="2"), neumann_bcs, grid31)
    assert r.regime == INDETERMINATE
    assert r.attractor is None
    assert abs(r.lambda_V) < SolverOptions().band
    assert r.attractor_kind == "undecided (lambda(V) inside the band)"
    # zeta = -0.0005 decides nothing, so lambda(V) is never solved
    r = classify_regime(make_constants(beta="1.0005 + sin(2*pi*t)"), neumann_bcs, grid31)
    assert r.regime == INDETERMINATE
    assert abs(r.zeta) < SolverOptions().band
    assert r.lambda_V is None and r.lambda_V_result is None
    assert r.attractor is None
    assert r.attractor_kind == "undecided (zeta inside the band)"


def _readme_model():
    c = make_constants(beta="2 + sin(2*pi*t)", d2="0.5")
    return c, build_grid(0.0, 1.0, 15, 1.0, 32)


def test_zeta_on_the_band_edge_is_decisive(neumann_bcs):
    # |value| == band is decisive in classify_regime, so the carrying orbit
    # must exist at zeta == -band; lambda(V) then lies inside the band
    c, g = _readme_model()
    band = -zeta(c, neumann_bcs[1], g).value
    r = classify_regime(c, neumann_bcs, g, SolverOptions(band=band))
    assert r.zeta == -band
    assert r.regime == INDETERMINATE and abs(r.lambda_V) < band


def test_lambda_V_on_the_band_edge_is_decisive(neumann_bcs):
    c, g = _readme_model()
    V = solve_logistic_orbit(c, neumann_bcs[1], g).orbit
    band = -lambda_V(c, neumann_bcs, g, V).value
    r = classify_regime(c, neumann_bcs, g, SolverOptions(band=band))
    assert r.lambda_V == -band
    assert r.regime == ENDEMIC


# ──────────────────────────────────────────────────────── initial data ──


def test_build_initial_state_accepts_mixed_values(grid31, neumann_bcs):
    xs = grid31.full_nodes()
    u = build_initial_state(
        grid31, *neumann_bcs,
        (2.0, parse_expression("1 + 0.5*cos(pi*x)"), np.full(33, 0.25)))
    assert np.all(u[0] == 2.0)
    assert u[1][0] == pytest.approx(1.5)
    assert u[2][5] == 0.25
    assert xs.shape == u[0].shape
    assert all(comp.flags.writeable for comp in u)


def test_build_initial_state_rejects_bad_shapes(grid31, neumann_bcs):
    with pytest.raises(InputError):
        build_initial_state(grid31, *neumann_bcs, (1.0, 1.0))
    with pytest.raises(InputError):
        build_initial_state(grid31, *neumann_bcs, (np.ones(7), 1.0, 1.0))


def test_verify_reads_a_state_tuple_and_values_alike(neumann_bcs, grid31):
    # a built state passes through build_initial_state unchanged, so both
    # forms of initial take one path and give the same errors
    c = make_constants(beta="2 + sin(2*pi*t)", d2="0.5")
    built = build_initial_state(grid31, *neumann_bcs, (1.0, 0.5, 0.1))
    from_state = verify_trichotomy(c, neumann_bcs, grid31, initial=built)
    from_values = verify_trichotomy(c, neumann_bcs, grid31, initial=(1.0, 0.5, 0.1))
    assert from_state.errors == from_values.errors


# ──────────────────────────────────────────────────────── verification ──


def test_verify_endemic_passes(endemic_c, neumann_bcs, grid31):
    cr = verify_trichotomy(endemic_c, neumann_bcs, grid31, initial=(1.0, 0.5, 0.1))
    assert cr.verdict == "PASS"
    assert cr.final_error <= 1e-3
    assert cr.median_ratio < 1.0
    assert len(cr.errors) == 40


@pytest.mark.parametrize("values", [
    [0.3], [0.7, 0.1], [0.9, 0.1, 0.3], [0.1, 0.2, 0.7, 0.3], [1e300, 1.7e308, 0.5, 1.7e308],
    list(np.random.default_rng(1).random(7)), list(np.random.default_rng(2).random(8))])
def test_median_ratio_matches_statistics_median(values):
    assert dynamics._median(values) == statistics.median(values)
    assert type(dynamics._median(values)) is type(statistics.median(values))


def refused_before_classifying(monkeypatch, error, match, *args, **kwargs):
    """verify_trichotomy(*args, **kwargs) raises error on one CPU and on
    two, and neither classifies nor starts a trajectory worker."""
    def unreachable(*a, **k):
        raise AssertionError("classified before checking every input")

    monkeypatch.setattr(dynamics, "classify_regime", unreachable)
    started = spy_workers(monkeypatch)
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        with pytest.raises(error, match=match):
            verify_trichotomy(*args, **kwargs)
    assert started == [] and multiprocessing.active_children() == []


def test_verify_refuses_a_non_positive_n_periods_before_classifying(
        monkeypatch, endemic_c, neumann_bcs, grid31):
    for n in (0, -2):
        refused_before_classifying(
            monkeypatch, DomainError, f"n_periods must be a positive count, got {n}$",
            endemic_c, neumann_bcs, grid31, o=SolverOptions(n_periods=n))


def test_verify_refuses_a_bad_stride_before_classifying(monkeypatch, endemic_c,
                                                       neumann_bcs):
    # the default stride, 8, does not divide 100 steps per period
    g = build_grid(0.0, 1.0, 15, 1.0, 100)
    refused_before_classifying(
        monkeypatch, DomainError, r"sample_stride must divide steps_per_period \(8 vs 100\)",
        endemic_c, neumann_bcs, g)


def test_verify_rejects_nonpositive_initial_interior(monkeypatch, endemic_c,
                                                     neumann_bcs, grid31):
    refused_before_classifying(
        monkeypatch, InputError,
        r"^initial component 1 must be strictly positive at interior nodes \(min 0\)$",
        endemic_c, neumann_bcs, grid31, initial=(1.0, 0.0, 0.1))


def test_verify_rejects_nan_initial_data(monkeypatch, endemic_c, neumann_bcs, grid31):
    refused_before_classifying(
        monkeypatch, InputError,
        r"^initial component 0 must be finite, has a NaN or infinite entry$",
        endemic_c, neumann_bcs, grid31, initial=(np.nan, 0.5, 0.1))


def test_verify_refuses_an_infinite_initial_value(monkeypatch, endemic_c, neumann_bcs,
                                                  grid31):
    # build_initial_state refuses a non-finite entry by name, before the
    # interior positivity check (which inf would pass)
    for bad in (np.inf, np.nan):
        refused_before_classifying(
            monkeypatch, InputError, r"^initial component 0 must be finite",
            endemic_c, neumann_bcs, grid31, initial=(bad, 0.5, 0.1))


def test_verify_disease_free_passes(disease_free_c, neumann_bcs, grid31):
    cr = verify_trichotomy(disease_free_c, neumann_bcs, grid31, initial=(1.0, 1.0, 1.0))
    assert cr.verdict == "PASS"
    assert cr.final_error <= 1e-3


def test_verify_extinction_passes(extinction_c, neumann_bcs, grid31):
    cr = verify_trichotomy(extinction_c, neumann_bcs, grid31, initial=(1.0, 0.5, 0.5))
    assert cr.verdict == "PASS"
    assert cr.final_error <= 1e-3
    assert cr.median_ratio < 1.0


def test_verify_takes_ratios_only_above_the_orbit_tolerance(grid31):
    # the errors fall from 5.95 to 3.5e-11 in five periods, then sit at the
    # attractor's own accuracy, 2.6e-12, whose ratios of about one would
    # outvote the converging ones
    c = make_constants(beta="12 + sin(2*pi*t)", d2="0.5")
    bcs = (BoundarySpec.dirichlet(1), BoundarySpec.dirichlet(2))
    cr = verify_trichotomy(c, bcs, grid31)
    assert cr.regime_report.regime == DISEASE_FREE and cr.verdict == "PASS"
    assert max(cr.errors[5:]) < SolverOptions().orbit_tol < min(cr.errors[:5])
    assert cr.median_ratio < 0.01


def test_verify_indeterminate_passthrough(neumann_bcs, grid31):
    c = make_constants(H_u="2")
    cr = verify_trichotomy(c, neumann_bcs, grid31)
    assert cr.verdict == INDETERMINATE
    assert cr.errors == ()
    assert np.isnan(cr.final_error)
    # a bad initial state is refused whatever the regime
    with pytest.raises(InputError, match="initial component 1 must be strictly positive"):
        verify_trichotomy(c, neumann_bcs, grid31, initial=(1.0, 0.0, 0.1))


# ─────────────────────────────────────────── the trajectory worker ──


def on_cpus(monkeypatch, cpus):
    """Make `cpus` CPUs usable: one keeps verify's trajectory in-process,
    two or more move it to a worker process (on Linux)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def spy_workers(monkeypatch):
    """The trajectory workers verify starts from here on."""
    started = []

    class Spied(_workers.Worker):
        def __init__(self, *args):
            super().__init__(*args)
            started.append(self)

    monkeypatch.setattr(dynamics, "Worker", Spied)
    return started


def test_verify_runs_a_wrapped_trajectory_in_the_worker(monkeypatch, endemic_c,
                                                        neumann_bcs, grid31):
    # a closure cannot be pickled; the forked worker inherits it, as it
    # does a benchmark tracer's wrapper, and its calls stay in the worker
    real, calls = dynamics.integrate_trajectory, []

    def wrapped(*args, **kwargs):
        calls.append(os.getpid())
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_trajectory", wrapped)
    o = SolverOptions(n_periods=4)
    runs = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        runs[cpus] = verify_trichotomy(endemic_c, neumann_bcs, grid31, o=o)
        assert multiprocessing.active_children() == []
    assert calls == [os.getpid()]   # the two-CPU call ran in the worker
    assert runs[2].errors == runs[1].errors and len(runs[2].errors) == 4
    assert runs[2].verdict == runs[1].verdict


def test_verify_raises_in_the_same_order_on_both_paths(monkeypatch, endemic_c,
                                                       neumann_bcs, grid31):
    def blowup(*args, **kwargs):
        raise BlowupError("state exceeded blow-up cap 9")

    def no_convergence(*args, **kwargs):
        raise NoConvergence("logistic orbit: no fixed point in 3 periods", 3)

    o = SolverOptions(n_periods=2)
    monkeypatch.setattr(dynamics, "integrate_trajectory", blowup)
    started = spy_workers(monkeypatch)
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        with pytest.raises(BlowupError, match=r"^state exceeded blow-up cap 9$"):
            verify_trichotomy(endemic_c, neumann_bcs, grid31, o=o)
        assert multiprocessing.active_children() == []
    assert len(started) == 1
    # a classify error takes precedence over the worker's blow-up
    monkeypatch.setattr(dynamics, "classify_regime", no_convergence)
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        with pytest.raises(NoConvergence, match=r"^logistic orbit: no fixed"):
            verify_trichotomy(endemic_c, neumann_bcs, grid31, o=o)
        assert multiprocessing.active_children() == []
    assert len(started) == 2


def test_indeterminate_verify_does_not_wait_for_the_worker(monkeypatch, neumann_bcs,
                                                           grid31):
    on_cpus(monkeypatch, 2)
    started = spy_workers(monkeypatch)
    monkeypatch.setattr(dynamics, "integrate_trajectory",
                        lambda *args, **kwargs: time.sleep(60))
    t0 = time.perf_counter()
    cr = verify_trichotomy(make_constants(H_u="2"), neumann_bcs, grid31)
    assert time.perf_counter() - t0 < 30
    assert cr.verdict == INDETERMINATE and cr.errors == ()
    assert [w.process.exitcode for w in started] == [-signal.SIGTERM]
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_fails_verify(monkeypatch, endemic_c, neumann_bcs, grid31):
    on_cpus(monkeypatch, 2)
    monkeypatch.setattr(dynamics, "integrate_trajectory",
                        lambda *args, **kwargs: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3 and no result"):
        verify_trichotomy(endemic_c, neumann_bcs, grid31, o=SolverOptions(n_periods=2))
    assert multiprocessing.active_children() == []


def test_extinction_total_vector_is_nonincreasing(extinction_c, neumann_bcs,
                                                  grid31):
    # beta < mu1 makes the vector update a sup-norm contraction per step
    model = NonlinearModel(kind="full", c=extinction_c, bc1=neumann_bcs[0],
                           bc2=neumann_bcs[1], grid=grid31)
    u0 = build_initial_state(grid31, *neumann_bcs, (1.0, 0.5, 0.5))
    traj = integrate_trajectory(model, u0, 10, sample_stride=128)
    sups = np.max(traj.samples[1] + traj.samples[2], axis=1).tolist()
    assert all(b < a for a, b in zip(sups, sups[1:]))


def test_truncated_model_preserves_order(endemic_report, neumann_bcs, grid31,
                                         endemic_c):
    # the truncation keeps the reduced system cooperative, so ordered
    # states stay ordered under the period map
    V = endemic_report.logistic.orbit
    model = NonlinearModel(kind="truncated", c=endemic_c, bc1=neumann_bcs[0],
                           bc2=neumann_bcs[1], grid=grid31, V=V)
    lo = (np.full(33, 0.5), np.full(33, 0.1))
    hi = (np.full(33, 4.0), np.full(33, 0.9))
    lo1 = integrate_over_period(model, lo)
    hi1 = integrate_over_period(model, hi)
    for a, b in zip(lo1, hi1):
        assert float(np.min(b - a)) >= -1e-12

