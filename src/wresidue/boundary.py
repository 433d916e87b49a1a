"""Boundary-term engine: enumerate derivative cases and evaluate each one.

A boundary contribution pairs two one-sided symbol expansions.  For
homogeneity orders r (left factor P) and l (right factor Q) and derivative
counts (k, j, alpha) subject to ``k + j + |alpha| = r + l + n - 1``, the
contribution is

    prefactor * Int_sphere Int_xn Tr[ d_xn^j d_xi'^alpha d_xn^k pi+ P_r
                                       x  d_x'^alpha d_xn^(j+1) d_xn^k Q_l ]

with ``prefactor = (-i)^(|alpha|+j+k+1) / (alpha! (j+k+1)!)``.  Symbols are
supplied as jets at a boundary base point in normal coordinates with the
tangential covariable on its unit sphere; tangential x-derivatives of the
jets vanish there.  Every case is evaluated twice, once as stated and once
with one xn-covariable derivative moved across the product (integration by
parts), and the two values are required to agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .scalars import GR, GR_ONE, GaussianRational, Indeterminate, Registry, ScalarPoly, minus_i_pow
from .sphere import integrate_sphere
from .xicalc import XiRational


class MissingJetError(KeyError):
    """A case asked for a jet the symbol does not carry."""


class IbpMismatchError(AssertionError):
    """The two integration-by-parts forms of a case disagreed."""


@dataclass(frozen=True)
class SymbolJet:
    """Jets of one homogeneity order: entry t is the t-th normal x-derivative."""

    order: int
    xn_jets: tuple[XiRational, ...]

    def jet(self, xn_order: int) -> XiRational:
        if xn_order >= len(self.xn_jets):
            raise MissingJetError(f"order {self.order}: no xn-jet of depth {xn_order}")
        return self.xn_jets[xn_order]


@dataclass(frozen=True)
class BoundarySymbol:
    """A one-sided symbol expansion restricted to the boundary base point."""

    name: str
    registry: Registry
    p: int
    q: int
    xi_inds: tuple[Indeterminate, ...]
    jets: Mapping[int, SymbolJet]

    def jet(self, order: int, xn_order: int = 0) -> XiRational:
        if order not in self.jets:
            raise MissingJetError(f"{self.name}: no jet of order {order}")
        return self.jets[order].jet(xn_order)

    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.jets, reverse=True))


@dataclass(frozen=True)
class CaseSpec:
    suite: str
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
    return minus_i_pow(case.alpha_abs + case.j + case.k + 1) * GR(Fraction(1, denom))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def enumerate_cases(suite: str, p_orders: Sequence[int], q_orders: Sequence[int],
                    labels: Mapping[tuple[int, int, int, int, int], str],
                    n: int = 4) -> tuple[CaseSpec, ...]:
    """All derivative cases meeting the order constraint, in report order."""
    found = []
    for r in p_orders:
        for l in q_orders:
            budget = r + l + n - 1
            if budget < 0:
                continue
            for k in range(budget + 1):
                for j in range(budget + 1 - k):
                    rem = budget - k - j
                    key = (r, l, k, j, rem)
                    if key not in labels:
                        raise KeyError(f"no label registered for case {key} in {suite}")
                    for alpha in _compositions(rem, n - 1):
                        found.append(CaseSpec(suite, labels[key], r, l, k, j, alpha))
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


def _left_factor(pside: BoundarySymbol, case: CaseSpec, nxi: int, memo: dict):
    key = ("L", case.r, case.j, case.alpha, nxi)
    got = memo.get(key)
    if got is None:
        if nxi:
            got = _left_factor(pside, case, nxi - 1, memo).xi_derivative()
        else:
            got = pside.jet(case.r, case.j)
            for ind, times in zip(pside.xi_inds, case.alpha):
                for _ in range(times):
                    got = got.coeff_derivative(ind)
            got = got.pi_plus()
        memo[key] = got
    return got


def _right_factor(qside: BoundarySymbol, case: CaseSpec, nxi: int, memo: dict):
    key = ("R", case.l, case.k, nxi)
    got = memo.get(key)
    if got is None:
        if nxi:
            got = _right_factor(qside, case, nxi - 1, memo).xi_derivative()
        else:
            got = qside.jet(case.l, case.k)
        memo[key] = got
    return got


def evaluate_case(pside: BoundarySymbol, qside: BoundarySymbol, case: CaseSpec,
                  pi_ind: Indeterminate, omega_ind: Indeterminate,
                  shift: int = 0, memo: dict | None = None) -> CaseResult:
    """One case; ``shift`` moves that many xn-covariable derivatives from the
    right factor onto the left one, with the integration-by-parts sign."""
    registry = pside.registry
    if pside.p != qside.p or pside.q != qside.q:
        raise ValueError("factor symbols live over different Clifford models")
    if not 0 <= shift <= case.j + 1:
        raise ValueError(f"shift {shift} outside 0..{case.j + 1}")
    if case.alpha_abs:  # tangential x-derivatives of the jets vanish
        return CaseResult(case, ScalarPoly.zero(registry), note="tangential-base-jet-vanishes")
    if memo is None:
        memo = {}

    left = _left_factor(pside, case, case.k + shift, memo)
    right = _right_factor(qside, case, case.j + 1 - shift, memo)

    traced = left.product_trace(right, pside.p, pside.q)
    line_integral = traced.integrate(pi_ind).scalar_part()
    averaged = integrate_sphere(line_integral, pside.xi_inds, omega_ind)
    sign = GR_ONE if shift % 2 == 0 else -GR_ONE
    value = averaged * (case_prefactor(case) * sign)
    return CaseResult(case, value, traced=traced)


def assemble_boundary(pside: BoundarySymbol, qside: BoundarySymbol, suite: str,
                      labels: Mapping[tuple[int, int, int, int, int], str],
                      pi_ind: Indeterminate, omega_ind: Indeterminate,
                      n: int = 4) -> BoundaryResult:
    """Evaluate every case both ways, check the two ways agree, and group."""
    registry = pside.registry
    results = []
    memo: dict = {}
    for case in enumerate_cases(suite, pside.orders(), qside.orders(), labels, n):
        plain = evaluate_case(pside, qside, case, pi_ind, omega_ind, shift=0, memo=memo)
        moved = evaluate_case(pside, qside, case, pi_ind, omega_ind, shift=1, memo=memo)
        if plain.value != moved.value:
            raise IbpMismatchError(
                f"{suite} case {case.label}: derivative-transfer forms disagree")
        results.append(plain)
    groups: dict[str, ScalarPoly] = {}
    total = ScalarPoly.zero(registry)
    for res in results:
        groups[res.label] = groups.get(res.label, ScalarPoly.zero(registry)) + res.value
        total = total + res.value
    return BoundaryResult(suite, tuple(results), groups, total)


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
