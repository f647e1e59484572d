"""Mesh, boundary operators, and the tridiagonal diffusion assembly."""

import math

import numpy as np
import pytest

from vectorhost import (BoundarySpec, CoefficientError, DomainError,
                        assemble_diffusion, build_grid, field_lattice,
                        map_between, parse_expression)


def test_build_grid_validates_inputs():
    build_grid(0.0, 1.0, 3, 1.0, 8)  # smallest legal mesh
    with pytest.raises(DomainError):
        build_grid(1.0, 0.0, 31, 1.0, 64)
    with pytest.raises(DomainError, match="inf"):
        build_grid(0.0, math.inf, 31, 1.0, 64)  # h would be inf
    with pytest.raises(DomainError):
        build_grid(0.0, 1.0, 2, 1.0, 64)
    with pytest.raises(DomainError):
        build_grid(0.0, 1.0, 31, 0.0, 64)
    with pytest.raises(DomainError):
        build_grid(0.0, 1.0, 31, 1.0, 4)


def test_build_grid_refuses_a_non_finite_period():
    # dt would be inf or NaN, and the first solve would blame a coefficient
    for T in (math.inf, math.nan):
        with pytest.raises(DomainError, match=f"need finite T > 0, got {T}"):
            build_grid(0.0, 1.0, 7, T, 16)


def test_grid_geometry():
    g = build_grid(0.0, 2.0, 7, 0.5, 16)
    assert g.h == pytest.approx(0.25)
    assert g.dt == pytest.approx(0.03125)
    assert len(g.nodes_for(BoundarySpec.dirichlet(1))) == 7
    assert len(g.full_nodes()) == 9
    assert g.full_nodes()[0] == 0.0 and g.full_nodes()[-1] == 2.0
    assert len(g.faces()) == 8
    # faces interleave the nodes
    assert np.all(g.faces() > g.full_nodes()[:-1])
    assert np.all(g.faces() < g.full_nodes()[1:])


def test_boundary_spec_construction():
    d = BoundarySpec.dirichlet(1)
    assert d.flavor == "dirichlet"
    n = BoundarySpec.neumann(2)
    assert n.flavor == "robin" and n.b_left == 0.0
    with pytest.raises(DomainError):
        BoundarySpec.dirichlet(3)
    with pytest.raises(DomainError):
        BoundarySpec(group=1, flavor="periodic")


def test_boundary_spec_refuses_a_bad_numeric_weight():
    # an expression weight is checked on the lattice by validation; a
    # number is checked here, once
    for weights, name in (((-1.0, 0.0), "b_left"), ((0.0, math.nan), "b_right"),
                          ((math.inf, 0.0), "b_left")):
        with pytest.raises(DomainError, match=f"Robin weight {name} must be"):
            BoundarySpec.robin(1, *weights)
    assert BoundarySpec.robin(2, 0.0, 2.5).b_right == 2.5


def test_robin_weights_evaluate_in_time():
    g = build_grid(0.0, 1.0, 7, 1.0, 16)
    bc = BoundarySpec.robin(2, 1.0, parse_expression("0.5 + 0.5*cos(2*pi*t)"))
    assert bc.b_at(g, 0.0) == (1.0, 1.0)
    bl, br = bc.b_at(g, 0.5)
    assert bl == 1.0 and br == pytest.approx(0.0)


def test_lattice_assembly_matches_per_time_calls():
    g = build_grid(0.0, 1.0, 15, 1.0, 16)
    ts = g.level_times()
    d = parse_expression("1 + 0.5*x*sin(2*pi*t)")
    robin = BoundarySpec.robin(2, parse_expression("0.5 + 0.5*cos(2*pi*t)"), 1.0)
    for bc in (BoundarySpec.dirichlet(1), robin):
        D = assemble_diffusion(g, d, bc, ts)
        assert D.diag.shape == (16, g.n_unknowns(bc))
        for j, t in enumerate(ts):
            Dj = assemble_diffusion(g, d, bc, float(t))
            assert np.array_equal(D.lower[j], Dj.lower)
            assert np.array_equal(D.diag[j], Dj.diag)
            assert np.array_equal(D.upper[j], Dj.upper)


def test_layout_sizes_follow_flavor():
    g = build_grid(0.0, 1.0, 15, 1.0, 16)
    assert g.n_unknowns(BoundarySpec.dirichlet(1)) == 15
    assert g.n_unknowns(BoundarySpec.neumann(1)) == 17
    assert len(g.nodes_for(BoundarySpec.dirichlet(1))) == 15
    assert len(g.nodes_for(BoundarySpec.neumann(1))) == 17


def test_neumann_diffusion_conserves_mass():
    # no-flux rows of div(d grad) sum to zero even for varying d
    g = build_grid(0.0, 1.0, 31, 1.0, 16)
    D = assemble_diffusion(g, parse_expression("1 + 0.5*x"),
                           BoundarySpec.neumann(2), 0.3)
    dense = D.to_dense()
    # interior rows always conserve; endpoint rows conserve for b = 0
    assert np.max(np.abs(dense.sum(axis=1))) < 1e-10
    # constants are annihilated
    assert np.max(np.abs(dense @ np.ones(D.n))) < 1e-10


def test_dirichlet_principal_eigenvalue_matches_sine():
    # smallest eigenvalue of -div(grad) on (0, pi) is 1; the 3-point
    # stencil gives (2/h^2)(1 - cos h) = 1 - h^2/12 + O(h^4)
    g = build_grid(0.0, math.pi, 63, 1.0, 16)
    D = assemble_diffusion(g, 1.0, BoundarySpec.dirichlet(1), 0.0)
    lam = np.linalg.eigvalsh(-D.to_dense()).min()
    h = g.h
    expected = (2.0 / h**2) * (1.0 - math.cos(h))
    assert lam == pytest.approx(expected, rel=1e-10)
    assert abs(lam - 1.0) < h * h / 10.0


def test_robin_weight_adds_absorption():
    # endpoint rows are scaled, so the matrix is only similar to a
    # symmetric one; use the general eigensolver
    g = build_grid(0.0, 1.0, 15, 1.0, 16)
    D0 = assemble_diffusion(g, 1.0, BoundarySpec.neumann(1), 0.0)
    Db = assemble_diffusion(g, 1.0, BoundarySpec.robin(1, 2.0, 2.0), 0.0)
    lam0 = np.linalg.eigvals(-D0.to_dense()).real.min()
    lamb = np.linalg.eigvals(-Db.to_dense()).real.min()
    assert lam0 == pytest.approx(0.0, abs=1e-10)
    assert lamb > 0.1  # losing mass through both ends


def test_offdiagonals_nonnegative_everywhere():
    # M-matrix structure behind positivity of the implicit solve
    g = build_grid(0.0, 1.0, 31, 1.0, 16)
    for bc in (BoundarySpec.dirichlet(1), BoundarySpec.neumann(1),
               BoundarySpec.robin(1, 1.0, 0.5)):
        D = assemble_diffusion(g, parse_expression("1 + x*x"), bc, 0.1)
        assert np.min(D.lower) > 0 and np.min(D.upper) > 0
        assert np.max(D.diag) < 0


def test_diffusion_must_be_positive():
    g = build_grid(0.0, 1.0, 15, 1.0, 16)
    with pytest.raises(CoefficientError):
        assemble_diffusion(g, parse_expression("x - 0.5"),
                           BoundarySpec.neumann(1), 0.0)


@pytest.mark.parametrize("bc", [BoundarySpec.dirichlet(2),
                                BoundarySpec.robin(2, 0.5, 0.25)])
def test_node_ids_define_the_layout(bc):
    g = build_grid(-1.0, 2.0, 9, 1.0, 16)
    ids = g.node_ids(bc)
    assert np.array_equal(g.nodes_for(bc), g.x_left + g.h * ids)
    assert g.n_unknowns(bc) == len(ids)
    f = parse_expression("1 + x*sin(2*pi*t)")
    assert np.array_equal(g.lattice(f, bc),
                          field_lattice(f, g.nodes_for(bc), g.level_times()))
    # three stacked levels; each value names its node id
    level = np.arange(3)[:, None]
    values = 10.0 * ids + level
    assert np.array_equal(g.interior(values, bc), 10.0 * np.arange(1, 10) + level)
    # map_between puts each value at its node id on the other layout
    for dst in (BoundarySpec.dirichlet(1), BoundarySpec.neumann(1)):
        dst_ids = g.node_ids(dst)
        want = np.where(np.isin(dst_ids, ids), 10.0 * dst_ids + level, 0.0)
        assert np.array_equal(map_between(values, bc, dst), want)


def test_map_between_round_trips():
    g = build_grid(0.0, 1.0, 7, 1.0, 16)
    rob = BoundarySpec.neumann(1)
    dir_ = BoundarySpec.dirichlet(1)
    interior = np.arange(1.0, 8.0)
    full = map_between(interior, dir_, rob)
    assert full.shape == (9,)
    assert full[0] == 0.0 and full[-1] == 0.0
    back = map_between(full, rob, dir_)
    assert np.array_equal(back, interior)
    same = map_between(interior, dir_, dir_)
    assert same is interior
