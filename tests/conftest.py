"""Shared fixtures: the three constant-coefficient regimes and their
cached classification reports.

Classification is the expensive step (logistic orbit, invasion
eigenvalue, endemic pair), so the reports are session-scoped and shared
between the unit tests and the acceptance gate.
"""

import pytest

from vectorhost import (BoundarySpec, CoefficientSet, SolverOptions,
                        build_grid, classify_regime)


def make_constants(**overrides):
    """Constant endemic baseline; pass expression strings to change fields."""
    fields = {"rho": "1", "sigma1": "1", "sigma2": "1", "beta": "2",
              "mu1": "1", "mu2": "1", "d1": "1", "d2": "1", "H_u": "5"}
    fields.update(overrides)
    return CoefficientSet.from_strings(**fields)


@pytest.fixture(scope="session")
def endemic_c():
    # zeta = mu1 - beta = -1, lambda(V=1) = (3 - sqrt(21))/2 < 0
    return make_constants()


@pytest.fixture(scope="session")
def disease_free_c():
    # H_u = 1 flips the invasion sign: lambda(V=1) = (3 - sqrt(5))/2 > 0
    return make_constants(H_u="1")


@pytest.fixture(scope="session")
def extinction_c():
    # zeta = mu1 - beta = +1: the vector population collapses
    return make_constants(beta="1", mu1="2")


@pytest.fixture(scope="session")
def neumann_bcs():
    return (BoundarySpec.neumann(1), BoundarySpec.neumann(2))


@pytest.fixture(scope="session")
def grid31():
    return build_grid(0.0, 1.0, 31, 1.0, 128)


@pytest.fixture(scope="session")
def endemic_report(endemic_c, neumann_bcs, grid31):
    return classify_regime(endemic_c, neumann_bcs, grid31)


@pytest.fixture(scope="session")
def disease_free_report(disease_free_c, neumann_bcs, grid31):
    return classify_regime(disease_free_c, neumann_bcs, grid31)


@pytest.fixture(scope="session")
def extinction_report(extinction_c, neumann_bcs, grid31):
    return classify_regime(extinction_c, neumann_bcs, grid31)


@pytest.fixture(scope="session")
def endemic_banded_report(endemic_c, neumann_bcs, grid31):
    """Endemic classification with the eps = 0.05 envelope attractor."""
    return classify_regime(endemic_c, neumann_bcs, grid31,
                           SolverOptions(eps=0.05))
