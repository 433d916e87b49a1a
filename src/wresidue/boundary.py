"""Boundary-term engine: enumerate derivative cases and evaluate each one.

A boundary contribution pairs two one-sided symbol expansions.  For
homogeneity orders r (left factor P) and l (right factor Q) and derivative
counts (k, j, alpha) subject to ``k + j + |alpha| = r + l + n - 1``, the
contribution is

    prefactor * Int_sphere Int_xn Tr[ d_xn^j d_xi'^alpha d_xn^k pi+ P_r
                                       x  d_x'^alpha d_xn^(j+1) d_xn^k Q_l ]

with ``prefactor = (-i)^(|alpha|+j+k+1) / (alpha! (j+k+1)!)``.  Each factor
is a table of jets at a boundary base point in normal coordinates with the
tangential covariable on its unit sphere, ``{order: (jet, d_xn jet, ...)}``,
read with the model from a :class:`~wresidue.reference.Suite`, whose
``factor`` table supplies each pi+ part and xn-covariable derivative;
tangential x-derivatives of the jets vanish there.  Every case is evaluated
twice, once as stated and once with one xn-covariable derivative moved
across the product (integration by parts), and the two values must agree
exactly.  Both forms join only the terms that can survive the sphere, class
by class, apart from the xn powers the decay check reads.  A case keeps the
stated form's factors and forms its whole traced integrand only when read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Sequence

from . import reference
from .scalars import GR, GR_ONE, GaussianRational, Indeterminate, ScalarPoly
from .sphere import integrate_sphere
from .xicalc import XiRational


class IbpMismatchError(AssertionError):
    """The two integration-by-parts forms of a case disagreed."""


class CaseSpec(NamedTuple):
    label: str
    r: int
    l: int
    k: int
    j: int
    alpha: tuple[int, int, int]

    @property
    def alpha_abs(self) -> int:
        return sum(self.alpha)

    def sort_key(self):
        return (-(self.r + self.l), -self.alpha_abs, -self.j, -self.k,
                abs(self.r), self.r, self.alpha)


def case_prefactor(case: CaseSpec) -> GaussianRational:
    alpha_fact = 1
    for a in case.alpha:
        alpha_fact *= math.factorial(a)
    denom = alpha_fact * math.factorial(case.j + case.k + 1)
    # (-i)^m is the quarter turn i^(-m)
    return GR_ONE.turn_scale(-(case.alpha_abs + case.j + case.k + 1) % 4, 1, denom)


def enumerate_cases(suite: reference.Suite) -> tuple[CaseSpec, ...]:
    """All derivative cases meeting the order constraint, in report order."""
    n = suite.model.n
    found = []
    for r in sorted(suite.left, reverse=True):
        for l in reference.partner_orders(suite.right, r, n):
            budget = r + l + n - 1
            for k in range(budget + 1):
                for j in range(budget + 1 - k):
                    rem = budget - k - j
                    key = (r, l, k, j, rem)
                    if key not in suite.labels:
                        raise KeyError(f"no label registered for case {key} in {suite.name}")
                    found += (CaseSpec(suite.labels[key], r, l, k, j, alpha)
                              for alpha in product(range(rem + 1), repeat=n - 1)
                              if sum(alpha) == rem)
    found.sort(key=CaseSpec.sort_key)
    return tuple(found)


class CaseResult(NamedTuple):
    case: CaseSpec
    value: ScalarPoly
    note: str = ""
    factors: tuple | None = None  # the stated form's (left, right, p, q)

    @property
    def label(self) -> str:
        return self.case.label

    @property
    def traced(self) -> XiRational | None:
        """The stated form's whole traced integrand, formed on each read."""
        return None if self.factors is None else self.factors[0].product_trace(*self.factors[1:], ())


class BoundaryResult(NamedTuple):
    suite: str
    cases: tuple[CaseResult, ...]
    groups: dict[str, ScalarPoly]
    total: ScalarPoly


def evaluate_case(suite: reference.Suite, case: CaseSpec, shift: int = 0) -> CaseResult:
    """One case; ``shift`` moves that many xn-covariable derivatives from the
    right factor onto the left one, with the integration-by-parts sign.

    Every form joins only the monomial pairs that can survive the sphere,
    class by class (see :meth:`~wresidue.xicalc.XiRational.product_trace`).
    The stated form (``shift`` 0) keeps its factors, from which ``traced``
    is formed."""
    model = suite.model
    if not 0 <= shift <= case.j + 1:
        raise ValueError(f"shift {shift} outside 0..{case.j + 1}")
    if case.alpha_abs:  # tangential x-derivatives of the jets vanish
        return CaseResult(case, ScalarPoly.zero(model.registry),
                          note="tangential-base-jet-vanishes")
    left = suite.factor(True, case.r, case.j, case.k + shift)
    right = suite.factor(False, case.l, case.k, case.j + 1 - shift)

    xi_ids = {ind.id for ind in model.xi}
    traced = left.product_trace(right, model.p, model.q, xi_ids)
    line_integral = traced.integrate(model.pi).scalar_part()
    averaged = integrate_sphere(line_integral, model.xi, model.omega3)
    sign = GR_ONE if shift % 2 == 0 else -GR_ONE
    value = averaged * (case_prefactor(case) * sign)
    return CaseResult(case, value, factors=None if shift else (left, right, model.p, model.q))


def assemble_boundary(suite: reference.Suite) -> BoundaryResult:
    """Evaluate every case both ways, check the two ways agree, and group."""
    registry = suite.model.registry
    results = []
    for case in enumerate_cases(suite):
        plain = evaluate_case(suite, case, shift=0)
        moved = evaluate_case(suite, case, shift=1)
        if plain.value != moved.value:
            raise IbpMismatchError(
                f"{suite.name} case {case.label}: derivative-transfer forms disagree")
        results.append(plain)
    groups: dict[str, ScalarPoly] = {}
    total = ScalarPoly.zero(registry)
    for res in results:
        groups[res.label] = groups.get(res.label, ScalarPoly.zero(registry)) + res.value
        total = total + res.value
    return BoundaryResult(suite.name, tuple(results), groups, total)


def extrinsic_form(value: ScalarPoly, collar_ind: Indeterminate,
                   curvature_ind: Indeterminate) -> ScalarPoly:
    """Rewrite the collar-derivative scalar in terms of the extrinsic curvature
    via collar = -(2/3) * curvature."""
    repl = ScalarPoly.var(value.registry, curvature_ind) * GR(Fraction(-2, 3))
    return value.replace(collar_ind, repl)


def drop_components(value: ScalarPoly, inds: Sequence[Indeterminate]) -> ScalarPoly:
    """Zero out every monomial containing one of the given indeterminates."""
    return value.project(inds).get((), ScalarPoly.zero(value.registry))
