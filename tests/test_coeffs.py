"""Coefficient sets and the standing-hypothesis checks."""

import dataclasses

import pytest

from vectorhost import (BoundarySpec, CoefficientSet, build_grid, evaluate, parse_expression,
                        validate_hypothesis_H)
from conftest import make_constants


@pytest.fixture(scope="module")
def grid():
    return build_grid(0.0, 1.0, 15, 1.0, 32)


def violated_fields(report):
    return {v.field for v in report.violations}


def test_from_strings_parses_every_field(endemic_c):
    assert evaluate(endemic_c.rho, 0.3, 0.1) == 1.0
    assert evaluate(endemic_c.H_u, 0.3, 0.1) == 5.0
    nf = endemic_c.named_fields()
    assert set(nf) == {"rho", "sigma1", "sigma2", "beta", "mu1", "mu2",
                       "d1", "d2", "H_u"}


def test_from_strings_rejects_missing_and_unknown_fields():
    with pytest.raises(KeyError):
        CoefficientSet.from_strings(T=1.0, rho="1")
    with pytest.raises(KeyError):
        make_constants(nu="3")
    # the period is the grid's, so T is an unknown coefficient too
    with pytest.raises(KeyError, match="unknown coefficient"):
        make_constants(T=1.0)


def test_robin_weights_become_named_fields(endemic_c, grid):
    # validation names each expression weight of a Robin operator after its
    # group and side, left before right
    bc = BoundarySpec.robin(2, parse_expression("1.0 - 2*x"),
                            parse_expression("0.5 + 0.5*cos(2*pi*t) + t"))
    assert evaluate(bc.b_right, 0.0, 0.0) == 1.0
    rep = validate_hypothesis_H(endemic_c, (BoundarySpec.dirichlet(1), bc), grid)
    assert [v.field for v in rep.violations] == ["robin_b2_left", "robin_b2_right"]


def test_hypothesis_passes_for_valid_constants(endemic_c, grid, neumann_bcs):
    rep = validate_hypothesis_H(endemic_c, neumann_bcs, grid)
    assert rep.passed
    assert rep.violations == []


def test_hypothesis_passes_for_seasonal_fields(grid, neumann_bcs):
    c = make_constants(beta="2 + sin(2*pi*t)", H_u="5*(1 + 0.5*cos(pi*x))")
    assert validate_hypothesis_H(c, neumann_bcs, grid).passed


def test_strict_positivity_enforced(grid, neumann_bcs):
    for name in ("rho", "sigma2", "mu1", "d1", "d2"):
        rep = validate_hypothesis_H(make_constants(**{name: "0"}), neumann_bcs, grid)
        assert not rep.passed
        assert name in violated_fields(rep)


def test_nonnegativity_enforced(grid, neumann_bcs):
    rep = validate_hypothesis_H(make_constants(beta="-1"), neumann_bcs, grid)
    assert not rep.passed
    assert "beta" in violated_fields(rep)
    # spatially localised sign change is still caught
    rep2 = validate_hypothesis_H(make_constants(mu2="0.5 - x"), neumann_bcs, grid)
    assert "mu2" in violated_fields(rep2)


def test_infection_pathway_must_not_vanish(grid, neumann_bcs):
    rep = validate_hypothesis_H(make_constants(H_u="0"), neumann_bcs, grid)
    assert not rep.passed
    assert "sigma1*H_u" in violated_fields(rep)
    # sigma1 = 0 kills the pathway the same way
    rep2 = validate_hypothesis_H(make_constants(sigma1="0"), neumann_bcs, grid)
    assert "sigma1*H_u" in violated_fields(rep2)


def test_periodicity_enforced(grid, neumann_bcs):
    rep = validate_hypothesis_H(make_constants(beta="2 + t"), neumann_bcs, grid)
    assert not rep.passed
    assert "beta" in violated_fields(rep)
    # period-T forcing is fine even though it varies
    ok = validate_hypothesis_H(make_constants(beta="2 + sin(2*pi*t)"), neumann_bcs, grid)
    assert ok.passed
    # the check samples [0, 2T] (T = 1): a ramp that reaches zero at t = 2
    # trips only periodicity, one that goes negative before it both checks
    rep = validate_hypothesis_H(make_constants(beta="2 - t"), neumann_bcs, grid)
    assert [v.condition.split(" (")[0] for v in rep.violations] == ["not T-periodic"]
    rep = validate_hypothesis_H(make_constants(beta="1.99 - t"), neumann_bcs, grid)
    assert [v.condition.split(" (")[0] for v in rep.violations] == \
        ["not T-periodic", "must be nonnegative"]


def test_violation_describe_names_field_and_location(grid, neumann_bcs):
    rep = validate_hypothesis_H(make_constants(rho="0"), neumann_bcs, grid)
    line = rep.violations[0].describe()
    assert line.startswith("rho:")
    assert "x=" in line and "t=" in line


def test_robin_weight_negativity_is_a_violation(endemic_c, grid):
    bc = BoundarySpec.robin(1, parse_expression("-1"), parse_expression("0"))
    rep = validate_hypothesis_H(endemic_c, (bc, BoundarySpec.neumann(2)), grid)
    assert not rep.passed
    assert "robin_b1_left" in violated_fields(rep)


def test_validation_reads_the_weights_on_the_boundary_operator(endemic_c, grid):
    # the coefficient set carries no weights: the operator the solver
    # assembles from is the one place they are stated
    assert not [f.name for f in dataclasses.fields(CoefficientSet)
                if f.name.startswith("robin")]
    weight = parse_expression("x - 0.5")
    bcs = (BoundarySpec.robin(1, weight, 0.0), BoundarySpec.neumann(2))
    rep = validate_hypothesis_H(endemic_c, bcs, grid)
    assert [v.describe() for v in rep.violations] == [
        "robin_b1_left: must be nonnegative at (x=0, t=0), value -0.5"]
