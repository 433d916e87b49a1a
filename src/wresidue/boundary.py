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
exactly.  The stated form's traced integrand is kept whole; its residue is
taken only of the monomials whose sphere average can be nonzero.  The moved
form's integrand holds only the terms that can survive the sphere, apart
from the xn powers the decay check reads, and is not kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .reference import Suite
from .scalars import GR, GR_ONE, GaussianRational, Indeterminate, ScalarPoly
from .sphere import integrate_sphere
from .xicalc import XiRational


class IbpMismatchError(AssertionError):
    """The two integration-by-parts forms of a case disagreed."""


@dataclass(frozen=True)
class CaseSpec:
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


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def enumerate_cases(suite: Suite) -> tuple[CaseSpec, ...]:
    """All derivative cases meeting the order constraint, in report order."""
    n = suite.model.n
    found = []
    for r in sorted(suite.left, reverse=True):
        for l in suite.partners(True, r):
            budget = r + l + n - 1
            for k in range(budget + 1):
                for j in range(budget + 1 - k):
                    rem = budget - k - j
                    key = (r, l, k, j, rem)
                    if key not in suite.labels:
                        raise KeyError(f"no label registered for case {key} in {suite.name}")
                    for alpha in _compositions(rem, n - 1):
                        found.append(CaseSpec(suite.labels[key], r, l, k, j, alpha))
    found.sort(key=CaseSpec.sort_key)
    return tuple(found)


@dataclass(frozen=True)
class CaseResult:
    case: CaseSpec
    value: ScalarPoly
    note: str = ""
    traced: XiRational | None = None

    @property
    def label(self) -> str:
        return self.case.label


@dataclass(frozen=True)
class BoundaryResult:
    suite: str
    cases: tuple[CaseResult, ...]
    groups: dict[str, ScalarPoly]
    total: ScalarPoly


def evaluate_case(suite: Suite, case: CaseSpec, shift: int = 0) -> CaseResult:
    """One case; ``shift`` moves that many xn-covariable derivatives from the
    right factor onto the left one, with the integration-by-parts sign.

    The stated form (``shift`` 0) keeps its whole traced integrand in
    ``traced``.  A moved form is only compared with it: its integrand joins
    only the monomial pairs whose product can survive the sphere (see
    :meth:`~wresidue.xicalc.XiRational.product_trace`), goes through the same
    decay check and residue, and is not kept."""
    model = suite.model
    if not 0 <= shift <= case.j + 1:
        raise ValueError(f"shift {shift} outside 0..{case.j + 1}")
    if case.alpha_abs:  # tangential x-derivatives of the jets vanish
        return CaseResult(case, ScalarPoly.zero(model.registry),
                          note="tangential-base-jet-vanishes")
    left = suite.factor(True, case.r, case.j, case.k + shift)
    right = suite.factor(False, case.l, case.k, case.j + 1 - shift)

    xi_ids = {ind.id for ind in model.xi}
    if shift:
        traced = left.product_trace(right, model.p, model.q, even_in=xi_ids)
    else:
        traced = left.product_trace(right, model.p, model.q)
    # only the monomials that survive the sphere average reach the residue
    line_integral = traced.integrate(model.pi, even_in=xi_ids).scalar_part()
    averaged = integrate_sphere(line_integral, model.xi, model.omega3)
    sign = GR_ONE if shift % 2 == 0 else -GR_ONE
    value = averaged * (case_prefactor(case) * sign)
    return CaseResult(case, value, traced=None if shift else traced)


def assemble_boundary(suite: Suite) -> BoundaryResult:
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
    banned = {ind.id for ind in inds}
    kept = {mono: c for mono, c in value.terms.items()
            if not any(iid in banned for iid, _ in mono)}
    return ScalarPoly(value.registry, kept)
