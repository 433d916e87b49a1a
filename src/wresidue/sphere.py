"""Exact monomial averages over the unit sphere of the tangential covariables.

For the round sphere in R^d, a monomial with any odd exponent averages to
zero; an all-even monomial ``prod xi_i^(2a_i)`` integrates to the total
surface measure times ``prod (2a_i - 1)!! / prod_{k=1..A} (d + 2k - 2)``
with ``A = sum a_i``.  The total measure is kept as a formal marker rather
than evaluated.  The covariables here are the three tangential components,
so d = 3 throughout.  A product Gauss-Legendre quadrature serves as the
numeric oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Container, Iterable, Mapping, Sequence

from .scalars import GR, GR_ZERO, Indeterminate, Monomial, ScalarPoly


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# covariable dimension, and the oracle's polar and azimuthal node counts
DIM = 3
N_POLAR = 10
N_AZIMUTH = 24


def moment_fraction(exponents: Iterable[int]) -> Fraction:
    """Sphere average of a covariable monomial, as a fraction of the total measure."""
    exps = [e for e in exponents if e]
    if any(e < 0 for e in exps):
        raise ValueError("negative exponent")
    if any(e % 2 for e in exps):
        return Fraction(0)
    total = sum(e // 2 for e in exps)
    num = 1
    for e in exps:
        num *= _double_factorial(e - 1)
    den = 1
    for k in range(1, total + 1):
        den *= DIM + 2 * k - 2
    return Fraction(num, den)


def odd_class(mono: Monomial, xi_ids: Container[int]) -> tuple[int, ...]:
    """The covariables with an odd exponent in a monomial, in id order: the
    one rule for which monomials can survive the sphere.  A monomial can
    average to nonzero exactly when its class is empty (see
    ``moment_fraction``), and a product of two monomials exactly when their
    classes are equal."""
    return tuple(iid for iid, exp in mono if exp % 2 and iid in xi_ids)


def integrate_sphere(value: ScalarPoly, xi_inds: Sequence[Indeterminate],
                     omega_ind: Indeterminate) -> ScalarPoly:
    """Integrate out the covariable components, linearly per monomial; the
    result carries the total-measure marker and no covariable indeterminates.
    """
    if not isinstance(value, ScalarPoly):
        raise TypeError(f"cannot sphere-integrate {type(value).__name__}")
    registry = value.registry
    xi_ids = {ind.id: ind for ind in xi_inds}
    out: dict = {}
    for mono, coeff in value.terms.items():
        exps = []
        rest = []
        for iid, exp in mono:
            if iid in xi_ids:
                exps.append(exp)
            else:
                rest.append((iid, exp))
        frac = moment_fraction(exps)
        if not frac:
            continue
        new_mono = tuple(sorted(rest + [(omega_ind.id, 1)]))
        acc = out.get(new_mono, GR_ZERO) + coeff * GR(frac)
        if acc.is_zero():
            out.pop(new_mono, None)
        else:
            out[new_mono] = acc
    return ScalarPoly(registry, out)


def numeric_sphere_oracle(poly: ScalarPoly, xi_inds: Sequence[Indeterminate],
                          bindings: Mapping[int, complex] | None = None) -> complex:
    """Quadrature of a polynomial over the unit sphere in R^3.

    Gauss-Legendre in the polar cosine crossed with a uniform azimuthal
    rule; exact for the polynomial degrees used in the checks.
    """
    if len(xi_inds) != 3:
        raise ValueError("oracle is specific to three covariable components")
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(N_POLAR)
    base = dict(bindings or {})
    total = 0j
    dphi = 2.0 * math.pi / N_AZIMUTH
    for z, w in zip(nodes.tolist(), weights.tolist()):
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        for m in range(N_AZIMUTH):
            phi = dphi * m
            base[xi_inds[0].id] = rho * math.cos(phi)
            base[xi_inds[1].id] = rho * math.sin(phi)
            base[xi_inds[2].id] = z
            total += w * dphi * poly.eval_complex(base)
    return total
