import itertools
import random
from fractions import Fraction

import pytest

from filmlab.dipolyhedra import Dipolyhedron, make_dipole, make_massive
from filmlab.flatnorm import (
    EnergyFlatCertificate,
    FlatNormCertificate,
    SolverConfig,
    energy_flat_norm,
    flat_norm,
    natural_norm_upper,
    verify_certificate,
)
from filmlab.grid import GridCell, boundary_grid, chain_of, empty_chain, mass_grid

from conftest import make_grid, random_grid_chain

F = Fraction


def test_flat_norm_of_empty_chain():
    grid = make_grid((1, 1, 1))
    cert = flat_norm(empty_chain(grid, 1))
    assert cert.value == 0 and cert.Q.is_zero() and cert.R.is_zero()
    assert cert.status == "exact"


def test_flat_norm_of_face_boundary_fills():
    grid = make_grid((1, 1, 1))
    face = GridCell((0, 0, 0), (0, 1))
    P = boundary_grid(chain_of(grid, 2, [face]))
    cert = flat_norm(P)
    assert cert.value == 1
    assert cert.R.cells == frozenset({face})
    assert cert.Q.is_zero()
    assert verify_certificate(cert, P)


def test_flat_norm_of_single_edge_keeps_it():
    grid = make_grid((1, 1, 1))
    P = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    cert = flat_norm(P)
    assert cert.value == 1
    assert cert.Q == P and cert.R.is_zero()


def test_flat_norm_never_exceeds_mass():
    grid = make_grid((2, 2, 1))
    rng = random.Random(23)
    for _ in range(10):
        P = random_grid_chain(grid, 1, rng, density=0.25)
        cert = flat_norm(P)
        assert cert.value <= mass_grid(P)
        assert verify_certificate(cert, P)


def test_flat_norm_tampered_certificate_fails():
    grid = make_grid((1, 1, 1))
    face = GridCell((0, 0, 0), (0, 1))
    P = boundary_grid(chain_of(grid, 2, [face]))
    cert = flat_norm(P)
    bad = FlatNormCertificate(
        cert.value, cert.Q + chain_of(grid, 1, [GridCell((0, 0, 0), (0,))]), cert.R, cert.status
    )
    assert not verify_certificate(bad, P)
    wrong_value = FlatNormCertificate(cert.value + 1, cert.Q, cert.R, cert.status)
    assert not verify_certificate(wrong_value, P)


def test_flat_norm_methods_agree_seeded():
    grid = make_grid((2, 2, 1))
    rng = random.Random(41)
    for _ in range(12):
        P = random_grid_chain(grid, 1, rng, density=0.2)
        ex = flat_norm(P, method="exhaustive")
        bb = flat_norm(P, method="bnb")
        assert ex.status == bb.status == "exact"
        assert ex.value == bb.value
        # ties are broken toward the lexicographically least mask, so the
        # certificates themselves agree as well
        assert ex.R == bb.R and ex.Q == bb.Q


def test_flat_norm_2chain_instances():
    grid = make_grid((2, 2, 1))
    rng = random.Random(59)
    for _ in range(8):
        P = random_grid_chain(grid, 2, rng, density=0.3)
        ex = flat_norm(P, method="exhaustive")
        bb = flat_norm(P, method="bnb")
        assert ex.value == bb.value and ex.status == bb.status == "exact"


def test_eflat_zero_pair():
    grid = make_grid((1, 1, 1))
    A = Dipolyhedron(empty_chain(grid, 2), empty_chain(grid, 1))
    cert = energy_flat_norm(A)
    assert cert.value == 0 and cert.status == "exact"


def test_eflat_of_boundary_curve_pair():
    # delta(boundary of a face): the relaxation B_R = face, C_R = 0 gives 1
    grid = make_grid((1, 1, 1))
    face = GridCell((0, 0, 0), (0, 1))
    gamma = boundary_grid(chain_of(grid, 2, [face]))
    A = make_dipole(gamma)  # k = 1 film pair
    cert = energy_flat_norm(A)
    assert cert.value == 1
    assert cert.status == "exact"
    assert verify_certificate(cert, A)


def test_eflat_of_mass_edge_bounded_by_twice_flat():
    grid = make_grid((1, 1, 1))
    edge = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    A = make_massive(edge)
    cert = energy_flat_norm(A)
    fn = flat_norm(edge)
    assert cert.value <= 2 * fn.value
    assert cert.value > 0


def test_eflat_tampering_detected():
    grid = make_grid((1, 1, 1))
    face = GridCell((0, 0, 0), (0, 1))
    gamma = boundary_grid(chain_of(grid, 2, [face]))
    A = make_dipole(gamma)
    cert = energy_flat_norm(A)
    bad = EnergyFlatCertificate(
        cert.value,
        cert.B_Q + chain_of(grid, 1, [GridCell((0, 0, 0), (1,))]),
        cert.C_Q,
        cert.B_R,
        cert.C_R,
        cert.status,
    )
    assert not verify_certificate(bad, A)


def test_eflat_methods_agree_seeded():
    grid = make_grid((1, 1, 1))
    rng = random.Random(67)
    for _ in range(10):
        A = Dipolyhedron(
            random_grid_chain(grid, 2, rng, density=0.4),
            random_grid_chain(grid, 1, rng, density=0.25),
        )
        ex = energy_flat_norm(A, method="exhaustive")
        bb = energy_flat_norm(A, method="bnb")
        assert ex.value == bb.value and ex.status == bb.status == "exact"


def test_eflat_exhaustive_guard():
    grid = make_grid((4, 4, 4))
    A = Dipolyhedron(empty_chain(grid, 2), empty_chain(grid, 1))
    with pytest.raises(ValueError):
        energy_flat_norm(A, method="exhaustive")


def test_eflat_respects_custom_limits():
    grid = make_grid((1, 1, 1))
    face = GridCell((0, 0, 0), (0, 1))
    gamma = boundary_grid(chain_of(grid, 2, [face]))
    A = make_dipole(gamma)
    cfg = SolverConfig(exhaustive_limit=64)
    cert = energy_flat_norm(A, method="exhaustive", config=cfg)
    assert cert.value == 1


def test_boundary_contraction_example():
    grid = make_grid((1, 1, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    A = make_dipole(face)
    from filmlab.dipolyhedra import boundary_dip

    ea = energy_flat_norm(A)
    eb = energy_flat_norm(boundary_dip(A))
    assert eb.value <= ea.value


def test_natural_norm_level_zero_is_mass():
    grid = make_grid((2, 2, 1))
    rng = random.Random(71)
    P = random_grid_chain(grid, 2, rng, density=0.5)
    est = natural_norm_upper(P, 0)
    assert est.cost == mass_grid(P)
    assert est.status == "exact"
    assert verify_certificate(est, P)


def test_natural_norm_empty_chain_all_levels():
    grid = make_grid((1, 1, 1))
    P = empty_chain(grid, 2)
    for r in range(4):
        est = natural_norm_upper(P, r)
        assert est.cost == 0


def test_natural_norm_parallel_faces_pairs_up():
    # two parallel unit faces one lattice step apart: level 1 pairs them
    # into a single translated multicell of cost 1, beating M(P) = 2
    grid = make_grid((1, 1, 2))
    P = chain_of(
        grid, 2, [GridCell((0, 0, 0), (0, 1)), GridCell((0, 0, 1), (0, 1))]
    )
    assert mass_grid(P) == 2
    est0 = natural_norm_upper(P, 0)
    est1 = natural_norm_upper(P, 1)
    assert est0.cost == 2
    assert est1.cost == 1
    assert est1.status == "upper-bound"
    assert verify_certificate(est1, P)


def test_natural_norm_monotone_in_level():
    grid = make_grid((2, 2, 2))
    rng = random.Random(73)
    P = random_grid_chain(grid, 2, rng, density=0.3)
    costs = [natural_norm_upper(P, r).cost for r in range(4)]
    for lo_level, hi_level in zip(costs[1:], costs[:-1]):
        assert not lo_level > hi_level


def test_natural_norm_level_range_checked():
    grid = make_grid((1, 1, 1))
    P = empty_chain(grid, 2)
    with pytest.raises(ValueError):
        natural_norm_upper(P, 4)
    with pytest.raises(ValueError):
        natural_norm_upper(P, -1)


def test_solver_reports_budget_exhaustion():
    grid = make_grid((2, 2, 1))
    rng = random.Random(79)
    P = random_grid_chain(grid, 1, rng, density=0.4)
    cfg = SolverConfig(node_budget=3)
    cert = flat_norm(P, method="bnb", config=cfg)
    assert cert.status in ("exact", "upper-bound")
    assert verify_certificate(cert, P)
    exact = flat_norm(P, method="exhaustive")
    assert cert.value >= exact.value


def test_bnb_budget_answer_does_not_depend_on_facing():
    # the boundary of a 2x2x2 block in each corner of a 3x3x3 grid: the
    # same chain seen from the eight ways the axes can face
    grid = make_grid((3, 3, 3))
    cfg = SolverConfig(node_budget=1000)
    for corner in itertools.product((0, 1), repeat=3):
        block = chain_of(
            grid,
            3,
            [
                GridCell(tuple(c + d for c, d in zip(corner, offset)), (0, 1, 2))
                for offset in itertools.product((0, 1), repeat=3)
            ],
        )
        P = boundary_grid(block)
        cert = flat_norm(P, method="bnb", config=cfg)
        assert (cert.value, cert.status) == (8, "exact"), corner
        assert cert.R == block and cert.Q.is_zero()
