"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402

MODS = run._import_program()

README_INI = """\
[domain]
x_left = 0.0
x_right = 1.0
T = 1.0

[grid]
nx = {nx}
steps_per_period = {m}

[coefficients]
rho = 1
sigma1 = 1
sigma2 = 1
beta = 2 + sin(2*pi*t)
mu1 = 1
mu2 = 1
d1 = 1
d2 = 0.5
H_u = 5
"""


def constants(**overrides):
    """The tests/conftest.py endemic baseline as expected_regime input."""
    p = dict(rho=1.0, sigma1=1.0, sigma2=1.0, mu1=1.0, mu2=1.0, H_u=5.0,
             b0=2.0, a=0.0, host_dirichlet=False)
    p.update(overrides)
    return p


def test_expected_regime_on_the_conftest_regimes():
    regime, z, lam = W.expected_regime(constants())
    assert regime == W.ENDEMIC and z == -1.0
    assert lam == pytest.approx((3 - math.sqrt(21)) / 2, abs=1e-14)
    regime, z, lam = W.expected_regime(constants(H_u=1.0))
    assert regime == W.DISEASE_FREE and z == -1.0
    assert lam == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-14)
    regime, z, lam = W.expected_regime(constants(b0=1.0, mu1=2.0))
    assert regime == W.EXTINCTION and z == 1.0 and lam is None


def test_expected_regime_refuses_to_guess_near_the_band():
    assert W.expected_regime(constants(b0=1.01)) is None
    # a Dirichlet host cannot confirm invasion from the no-flux bound
    assert W.expected_regime(constants(host_dirichlet=True)) is None


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    w = W.WORKLOADS[name]
    assert W.make_round(w, 7, 0) == W.make_round(w, 7, 0)
    assert W.make_round(w, 7, 0) != W.make_round(w, 8, 0)
    assert W.make_round(w, 7, 0) != W.make_round(w, 7, 1)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_draw_has_a_decided_expectation(name):
    w = W.WORKLOADS[name]
    for seed in range(20):
        for case in W.make_round(w, seed, 0):
            assert case.verdicts and all(v.regime for v in case.verdicts)


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    produced = tracer.layer_metrics([])
    produced["tracing.overhead_frac"] = (0.0, "ratio")
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == {k: u for k, (_, u) in produced.items()}


def test_per_stratum_metrics_ignore_where_a_run_stops():
    def op(slot, status, wall):
        return {"slot": slot, "verdicts": [(status, None)], "ref_s": wall}
    whole = [op(0, "certified", 4.0), op(1, "refused", 2.0),
             op(2, "certified", 4.0), op(3, "certified", 4.0)]
    longer = whole + [op(0, "certified", 4.0)]
    for ops in (whole, longer):
        assert run.per_stratum(ops, run.certified_share) == 0.75
        assert 1 / run.per_stratum(ops, lambda o: o["ref_s"]) == pytest.approx(0.2857, abs=1e-4)


def test_sampler_reads_the_host_speed_while_work_runs():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as host:
        mark = host.mark()
        t_end = time.perf_counter() + 0.7
        while time.perf_counter() < t_end:
            pass
        speed = host.mean_since(mark)
    assert len(host.speeds) - mark >= 2
    assert 0 < speed < 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_subtracts_the_union_of_children():
    spans = [(1, "a.x", 0.0, 10.0, None, 0, 0, 10.0, {}),
             (2, "b.y", 1.0, 4.0, 1, 0, 0, 3.0, {}),
             (3, "b.y", 3.0, 5.0, 1, 0, 1, 2.0, {}),   # overlaps span 2
             (4, "c.z", 8.0, 12.0, 1, 0, 0, 4.0, {})]  # runs past its parent
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0)


def traced_classify(tmp_path, ini, count_solves=False):
    """Run one classify under the tracer; optionally count real solves."""
    path = tmp_path / "c.ini"
    path.write_text(ini)
    stepper = MODS["stepper"]
    solves = [0]
    real_solve = stepper._solve

    def counted(ab, rhs):
        solves[0] += 1
        return real_solve(ab, rhs)

    tr = tracer.Tracer()
    tr.install(MODS)
    if count_solves:
        stepper._solve = counted
    try:
        tr.begin_op("0")
        rc = tr.call("cli.main", MODS["cli"].main,
                     ["classify", "--config", str(path), "--out",
                      str(tmp_path / "out")])
    finally:
        stepper._solve = real_solve
        tr.uninstall()
    assert rc == 0
    return tracer.layer_metrics(tr.spans), solves[0], tr.spans


def test_counts_repeat_and_derived_solves_match_real_ones(tmp_path, capsys):
    ini = README_INI.format(nx=15, m=32)
    first, real, spans = traced_classify(tmp_path, ini, count_solves=True)
    second, _, _ = traced_classify(tmp_path, ini)
    counts = {k: v for k, (v, unit) in first.items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in second.items() if unit == "count"}
    assert first["stepper.tridiag_solves"][0] == real
    assert first["eigen.solves"][0] == 3
    assert {span[1].split(".")[0] for span in spans} == set(tracer.MODULES)
    capsys.readouterr()


def test_readme_classify_at_127_512_takes_117760_solves(tmp_path, capsys):
    metrics, _, _ = traced_classify(tmp_path, README_INI.format(nx=127, m=512))
    assert metrics["stepper.tridiag_solves"][0] == 117760
    capsys.readouterr()
