import math
import random
from fractions import Fraction

import pytest

from wresidue.scalars import GR, KIND_CONN, KIND_MARKER, KIND_XI, Registry, ScalarPoly
from wresidue.sphere import (
    N_POLAR,
    gauss_legendre,
    integrate_sphere,
    moment_fraction,
    numeric_sphere_oracle,
    odd_class,
)


@pytest.fixture()
def setting():
    reg = Registry()
    xi = tuple(reg.add(f"xi{k}", KIND_XI) for k in (1, 2, 3))
    omega = reg.add("Omega3", KIND_MARKER)
    return reg, xi, omega


def test_odd_moments_vanish():
    assert moment_fraction((1, 0, 0)) == 0
    assert moment_fraction((2, 3, 0)) == 0
    assert moment_fraction((1, 1, 1)) == 0


def test_even_moment_table():
    assert moment_fraction(()) == 1
    assert moment_fraction((2,)) == Fraction(1, 3)
    assert moment_fraction((4,)) == Fraction(1, 5)
    assert moment_fraction((2, 2)) == Fraction(1, 15)
    assert moment_fraction((6,)) == Fraction(1, 7)
    assert moment_fraction((4, 2)) == Fraction(1, 35)
    assert moment_fraction((2, 2, 2)) == Fraction(1, 105)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        moment_fraction((-2,))


def test_gauss_legendre_matches_numpy_and_is_exact_below_degree_twenty():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = gauss_legendre(N_POLAR)
    assert N_POLAR == 10
    want_nodes, want_weights = leggauss(N_POLAR)
    assert max(abs(a - b) for a, b in zip(nodes, want_nodes.tolist())) < 1e-15
    assert max(abs(a - b) for a, b in zip(weights, want_weights.tolist())) < 1e-15
    assert gauss_legendre(N_POLAR) is gauss_legendre(N_POLAR)
    for k in range(2 * N_POLAR):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(sum(w * x ** k for x, w in zip(nodes, weights)) - exact) < 1e-15, k
    # and no further: degree 2n is where a 10-point rule stops being exact
    assert abs(sum(w * x ** 20 for x, w in zip(nodes, weights)) - 2.0 / 21) > 1e-7


def test_moments_against_quadrature_through_degree_six(sweep, setting):
    reg, xi, _ = setting
    for exps in sweep.sphere_exponents():
        assert sweep.sphere_moment(exps, reg, xi), exps


def test_integrate_sphere_random_polys(setting):
    reg, xi, omega = setting
    rng = random.Random(17)
    sphere_area = 4.0 * math.pi
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exps = [rng.randint(0, 3) for _ in range(3)]
            if sum(exps) > 6:
                continue
            mono = tuple((ind.id, e) for ind, e in zip(xi, exps) if e)
            terms[mono] = GR(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        poly = ScalarPoly(reg, terms)
        averaged = integrate_sphere(poly, xi, omega)
        exact = averaged.eval_complex({omega.id: 1.0})
        numeric = numeric_sphere_oracle(poly, xi) / sphere_area
        assert abs(exact - numeric) < 1e-6


def test_integrate_sphere_keeps_spectator_atoms(setting):
    reg, xi, omega = setting
    from wresidue.scalars import KIND_HPRIME
    hp = reg.add("hp", KIND_HPRIME)
    poly = (ScalarPoly.var(reg, xi[0]) ** 2 * ScalarPoly.var(reg, hp)
            + ScalarPoly.var(reg, xi[0]) * ScalarPoly.var(reg, xi[1]))
    got = integrate_sphere(poly, xi, omega)
    want = (ScalarPoly.var(reg, hp) * ScalarPoly.var(reg, omega)
            * GR(Fraction(1, 3)))
    assert got == want


def test_integrate_sphere_result_free_of_covariables(setting):
    reg, xi, omega = setting
    poly = ScalarPoly.var(reg, xi[0]) ** 2 + ScalarPoly.var(reg, xi[2]) ** 4
    got = integrate_sphere(poly, xi, omega)
    ids = {iid for mono in got.terms for iid, _ in mono}
    assert not (ids & {ind.id for ind in xi})
    assert omega.id in ids


def test_survivors_are_the_monomials_with_a_nonzero_moment(setting):
    reg, xi, _ = setting
    spectator = reg.add("w", KIND_CONN)
    rng = random.Random(23)
    xi_ids = {ind.id for ind in xi}
    for _ in range(300):
        exps = [rng.randint(0, 4) for _ in xi]
        mono = tuple(sorted([(ind.id, e) for ind, e in zip(xi, exps) if e]
                            + [(spectator.id, rng.randint(1, 3))] * rng.randint(0, 1)))
        assert (not odd_class(mono, xi_ids)) == bool(moment_fraction(exps))


def test_integrating_a_measure_multiple_squares_the_marker(setting):
    """An input that already carries the total-measure marker comes out with
    the marker squared: the one monomial that multiplying by it gives, not
    the marker listed twice."""
    reg, xi, omega = setting
    marker = ScalarPoly.var(reg, omega)
    got = integrate_sphere(marker * ScalarPoly.var(reg, xi[0]) ** 2 + marker, xi, omega)
    assert got == marker * marker * GR(Fraction(4, 3))
    assert list(got.terms) == [((omega.id, 2),)]
    assert got.render() == (marker * marker * GR(Fraction(4, 3))).render()
