"""Rational calculus in the normal covariable over Clifford coefficients.

Elements are quotients ``N(xn) / ((xn - i)^a (xn + i)^b)`` where the
numerator ``N`` is a polynomial in the distinguished variable ``xn`` with
:class:`~wresidue.clifford.CliffordElement` coefficients.  The class keeps
a canonical form (neither linear factor divides the numerator), exposes
d/dxn, Laurent data at the two poles, the half-plane projections pi+ and
pi-, and the contour integral over the real line as ``2*pi*i`` times the
residue at ``+i``.  A quadrature-based oracle mirrors the exact integral
numerically.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Container, Mapping

from .clifford import CliffordElement
from .scalars import (
    GR,
    GaussianRational,
    Indeterminate,
    Registry,
    ScalarPoly,
)
from .sphere import odd_class

NumDict = dict[int, CliffordElement]


class InsufficientDecayError(ValueError):
    """Raised when an integrand does not vanish fast enough at infinity."""


# the operand types below XiRational, which multiply each numerator coefficient
_LOWER = (int, Fraction, GaussianRational, ScalarPoly, CliffordElement)


def _coerce_cliff(registry: Registry, value) -> CliffordElement:
    if isinstance(value, CliffordElement):
        return value
    return CliffordElement.identity(registry, value)


def _clean(num: Mapping[int, CliffordElement]) -> NumDict:
    return {m: c for m, c in num.items() if not c.is_zero()}


def _vanishes_at(num: NumDict, sign: int) -> bool:
    """Whether the nonzero numerator vanishes at ``xn = sign * i``.

    The coefficient of xn^m is rotated by (sign * i)^m and the rotated
    values are summed per (word, monomial); the numerator vanishes exactly
    when every sum does.  The sums are taken one at a time, in the order
    the (word, monomial) pairs are first met, and the first nonzero sum
    ends the test, so a numerator that does not vanish is mostly rejected
    by its first sum."""
    powers = list(num.items())
    seen = set()
    for pos, (_, elem) in enumerate(powers):
        for word, poly in elem.terms.items():
            for mono in poly.terms:
                if (word, mono) in seen:
                    continue
                seen.add((word, mono))
                # earlier powers would have met this pair first
                total = None
                for m, later in powers[pos:]:
                    found = later.terms.get(word)
                    c = None if found is None else found.terms.get(mono)
                    if c is not None:
                        c = c.turn_scale(m * sign % 4, 1, 1)
                        total = c if total is None else total + c
                if total:
                    return False
    return True


def _synthetic_div(num: NumDict, registry: Registry, sign: int) -> NumDict:
    """Divide by (xn - sign * i) and drop the remainder.  Canonicalisation
    divides only after checking that the remainder vanishes;
    ``polynomial_part`` drops a nonzero remainder on purpose."""
    quot: NumDict = {}
    carry = zero = CliffordElement.zero(registry)
    for m in range(max(num, default=0), 0, -1):
        carry = CliffordElement.rotated_sum(registry, ((carry, sign, 1), (num.get(m, zero), 0, 1)))
        if carry:
            quot[m - 1] = carry
    return quot


def _num_mul_linear(num: NumDict, registry: Registry, sign: int) -> NumDict:
    """Multiply the numerator by (xn - sign * i); -sign * i is i**(sign + 2)."""
    pieces: dict[int, list] = {}
    for m, coeff in num.items():
        pieces.setdefault(m + 1, []).append((coeff, 0, 1))
        pieces.setdefault(m, []).append((coeff, sign + 2, 1))
    return _clean({m: CliffordElement.rotated_sum(registry, p) for m, p in pieces.items()})


def _by_odd_class(elem: CliffordElement, xi_ids: Container[int]) -> dict[tuple, CliffordElement]:
    """``elem`` split by the odd class of its monomials (``sphere.odd_class``),
    each part in the element's word and monomial order."""
    parts: dict[tuple, dict] = {}
    for word, poly in elem.terms.items():
        for mono, c in poly.terms.items():
            parts.setdefault(odd_class(mono, xi_ids), {}).setdefault(word, {})[mono] = c
    reg = elem.registry
    return {cls: CliffordElement._pruned(reg, {w: ScalarPoly._pruned(reg, t) for w, t in words.items()})
            for cls, words in parts.items()}


def _expansion_coeff(order: int, s: int, sign: int) -> tuple[int, Fraction | int]:
    """Coefficient e_s of t^s in (t + 2 sign i)^-order, as (turn, scale) with
    e_s = i^turn * scale and scale real; with order 0 only s = 0, where it
    is 1, is asked for."""
    if not order:
        return 0, 1
    n = order + s  # (2 sign i)^-n = i^(-sign n) / 2^n
    return -sign * n, Fraction((-1) ** s * math.comb(n - 1, s), 2 ** n)


class XiRational:
    """Canonical quotient of a Clifford-coefficient polynomial by powers
    of ``(xn - i)`` and ``(xn + i)``."""

    __slots__ = ("registry", "num", "a", "b")

    def __init__(self, registry: Registry, num: Mapping[int, CliffordElement] | None = None,
                 a: int = 0, b: int = 0):
        if a < 0 or b < 0:
            raise ValueError("pole orders must be nonnegative")
        cleaned = _clean(num or {})
        # canonical form: strip linear factors shared with the denominator
        while cleaned and a > 0 and _vanishes_at(cleaned, 1):
            cleaned = _synthetic_div(cleaned, registry, 1)
            a -= 1
        while cleaned and b > 0 and _vanishes_at(cleaned, -1):
            cleaned = _synthetic_div(cleaned, registry, -1)
            b -= 1
        if not cleaned:
            a = b = 0
        self.registry = registry
        self.num = cleaned
        self.a = a
        self.b = b

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _canonical(registry: Registry, num: NumDict, a: int, b: int) -> "XiRational":
        """An element from a numerator already in canonical form over these
        pole orders, taken as is."""
        out = object.__new__(XiRational)
        out.registry, out.num, out.a, out.b = registry, num, a, b
        return out

    @staticmethod
    def zero(registry: Registry) -> "XiRational":
        return XiRational(registry, {})

    @staticmethod
    def build(registry: Registry, num: Mapping[int, object], a: int = 0, b: int = 0) -> "XiRational":
        """Numerator entries may be Clifford elements, scalar polys, or numbers."""
        return XiRational(registry, {m: _coerce_cliff(registry, v) for m, v in num.items()}, a, b)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return not self.is_zero()

    def degree(self) -> int:
        """Numerator degree in xn (-1 for the zero element)."""
        return max(self.num, default=-1)

    def __eq__(self, other):
        if not isinstance(other, XiRational):
            return NotImplemented
        return (self.a, self.b, self.num) == (other.a, other.b, other.num)

    # -- ring operations ---------------------------------------------------

    def _aligned(self, other: "XiRational") -> tuple[NumDict, NumDict, int, int]:
        a, b = max(self.a, other.a), max(self.b, other.b)
        n1, n2 = dict(self.num), dict(other.num)
        for _ in range(a - self.a):
            n1 = _num_mul_linear(n1, self.registry, 1)
        for _ in range(b - self.b):
            n1 = _num_mul_linear(n1, self.registry, -1)
        for _ in range(a - other.a):
            n2 = _num_mul_linear(n2, self.registry, 1)
        for _ in range(b - other.b):
            n2 = _num_mul_linear(n2, self.registry, -1)
        return n1, n2, a, b

    def __add__(self, other):
        if not isinstance(other, XiRational):
            other = XiRational.build(self.registry, {0: other})
        n1, n2, a, b = self._aligned(other)
        out = dict(n1)
        for m, c in n2.items():
            out[m] = out.get(m, CliffordElement.zero(self.registry)) + c
        return XiRational(self.registry, out, a, b)

    __radd__ = __add__

    def __neg__(self):
        return XiRational(self.registry, {m: -c for m, c in self.num.items()}, self.a, self.b)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        """Product; numerator coefficients multiply in left-to-right order,
        and any lower operand multiplies each coefficient on its side."""
        if not isinstance(other, XiRational):
            if not isinstance(other, _LOWER):
                return NotImplemented
            return self.map_coeffs(lambda v: v * other)
        out: NumDict = {}
        for m1, c1 in self.num.items():
            for m2, c2 in other.num.items():
                prod = c1 * c2
                if prod:
                    key = m1 + m2
                    out[key] = out.get(key, CliffordElement.zero(self.registry)) + prod
        return XiRational(self.registry, out, self.a + other.a, self.b + other.b)

    def __rmul__(self, other):
        if not isinstance(other, _LOWER):
            return NotImplemented
        return self.map_coeffs(lambda v: other * v)

    def map_coeffs(self, fn: Callable[[CliffordElement], CliffordElement]) -> "XiRational":
        return XiRational(self.registry, {m: fn(c) for m, c in self.num.items()}, self.a, self.b)

    def coeff_derivative(self, ind: Indeterminate) -> "XiRational":
        """Derivative in an ordinary (non-xn) indeterminate of the coefficients."""
        return self.map_coeffs(lambda c: c.derivative(ind))

    def substitute(self, bindings) -> "XiRational":
        return self.map_coeffs(lambda c: c.substitute(bindings))

    def product_trace(self, other: "XiRational", p: int, q: int,
                      even_in: Container[int] | None = None) -> "XiRational":
        """Equivalent of ``(self * other).trace(p, q)`` via the word join.

        With ``even_in``, the ids of the sphere's covariables, two monomials
        are joined only when their product can survive the sphere average,
        that is, when their odd classes agree (``sphere.odd_class``).  At xn
        powers above a + b - 2 the join stays whole, so that the degree check
        of :meth:`integrate` still reads every monomial there.  That element
        is taken over the summed pole orders as is, not made canonical:
        stripping a shared linear factor lowers the degree and a + b alike,
        so it fails the degree check exactly when the whole product does,
        and its residue of surviving monomials is the whole product's."""
        reg = self.registry
        a, b = self.a + other.a, self.b + other.b
        if even_in is not None:
            classes1 = {m: _by_odd_class(c, even_in) for m, c in self.num.items()}
            classes2 = {m: _by_odd_class(c, even_in) for m, c in other.num.items()}
        acc: dict[int, ScalarPoly] = {}
        for m1, c1 in self.num.items():
            for m2, c2 in other.num.items():
                key = m1 + m2
                if even_in is None or key > a + b - 2:
                    piece = c1.product_trace(c2, p, q)
                else:
                    part2 = classes2[m2]
                    piece = ScalarPoly.zero(reg)
                    for cls, part1 in classes1[m1].items():
                        if cls in part2:
                            piece = piece + part1.product_trace(part2[cls], p, q)
                if piece.is_zero():
                    continue
                prev = acc.get(key)
                acc[key] = piece if prev is None else prev + piece
        out = {m: CliffordElement.identity(reg, s) for m, s in acc.items()}
        if even_in is None:
            return XiRational(reg, out, a, b)
        return XiRational._canonical(reg, _clean(out), a, b)

    # -- calculus ----------------------------------------------------------

    def xi_derivative(self) -> "XiRational":
        if (not self.a) != (not self.b):
            return self._one_pole_derivative()
        return self._two_pole_derivative()

    def _two_pole_derivative(self) -> "XiRational":
        """d/dxn over both linear factors, which the constructor strips back
        to canonical form; right for any pole orders."""
        reg = self.registry
        dnum: NumDict = {}
        for m, c in self.num.items():
            if m > 0:
                dnum[m - 1] = dnum.get(m - 1, CliffordElement.zero(reg)) + c * GR(m)
        # d(N u^-a v^-b) = (N' u v - a N v - b N u) u^-(a+1) v^-(b+1)
        term = _num_mul_linear(_num_mul_linear(dnum, reg, 1), reg, -1)
        if self.a:
            nv = _num_mul_linear(self.num, reg, -1)
            for m, c in nv.items():
                term[m] = term.get(m, CliffordElement.zero(reg)) - c * GR(self.a)
        if self.b:
            nu = _num_mul_linear(self.num, reg, 1)
            for m, c in nu.items():
                term[m] = term.get(m, CliffordElement.zero(reg)) - c * GR(self.b)
        return XiRational(reg, term, self.a + 1, self.b + 1)

    def _one_pole_derivative(self) -> "XiRational":
        """d/dxn with one pole, at sign * i of order ``own``:
        d(N u^-own) = (N' u - own N) u^-(own+1) with u = xn - sign * i.

        The new numerator's coefficient of xn^m is
        (m - own) N_m + (m + 1) N_(m+1) (-sign * i), and it equals
        -own N(sign * i) != 0 at the pole, so the result is canonical.  Its
        keys run downwards, as the synthetic division that strips the other
        factor off the two-pole formula leaves them, and each coefficient
        takes the higher power of N first."""
        reg, num = self.registry, self.num
        sign, own = (1, self.a) if self.a else (-1, self.b)
        out: NumDict = {}
        for m in range(max(num), -1, -1):
            pieces = []
            if m + 1 in num:
                pieces.append((num[m + 1], sign + 2, m + 1))
            if m != own and m in num:
                pieces.append((num[m], 0, m - own))
            coeff = CliffordElement.rotated_sum(reg, pieces)
            if coeff:
                out[m] = coeff
        if sign > 0:
            return XiRational._canonical(reg, out, own + 1, 0)
        return XiRational._canonical(reg, out, 0, own + 1)

    def _shifted(self, k: int, sign: int) -> CliffordElement:
        """Coefficient of t^k in the numerator rewritten in t = xn - sign * i:
        the sum over m >= k of N_m comb(m, k) (sign * i)^(m - k)."""
        num = self.num
        return CliffordElement.rotated_sum(self.registry, (
            (num[m], sign * (m - k), math.comb(m, k))
            for m in range(k, self.degree() + 1) if m in num))

    def laurent(self, at_plus: bool) -> dict[int, CliffordElement]:
        """Principal-part Laurent coefficients in t = xn -+ i, from the pole
        order up to ``t**-1``."""
        reg = self.registry
        sign = 1 if at_plus else -1  # the other linear factor is t + 2 sign i
        own, other = (self.a, self.b) if at_plus else (self.b, self.a)
        shifted: NumDict = {}
        # only S_k with k < own reach a principal coefficient
        for k in range(min(own, self.degree() + 1)):
            acc = self._shifted(k, sign)
            if acc:
                shifted[k] = acc
        out: dict[int, CliffordElement] = {}
        for j in range(-own, 0):
            acc = CliffordElement.rotated_sum(reg, (
                (coeff, *_expansion_coeff(other, j + own - k, sign))
                for k, coeff in shifted.items()
                if j + own - k == 0 or (other and j + own - k > 0)))
            if acc:
                out[j] = acc
        return out

    def pi_plus(self) -> "XiRational":
        """Principal part at +i (the positive half-plane projection)."""
        return self._principal(at_plus=True)

    def pi_minus(self) -> "XiRational":
        """Principal part at -i."""
        return self._principal(at_plus=False)

    def _principal(self, at_plus: bool) -> "XiRational":
        reg = self.registry
        own = self.a if at_plus else self.b
        if own == 0:
            return XiRational.zero(reg)
        sign = 1 if at_plus else -1
        # sum_j c_j (xn - c)^(own + j) over the single-pole denominator, with
        # c = sign * i; own + j rises with j, so the keys k come out rising
        powers = [(own + j, coeff) for j, coeff in self.laurent(at_plus).items()]
        out: NumDict = {
            k: CliffordElement.rotated_sum(reg, (
                (coeff, -sign * (power - k), math.comb(power, k))
                for power, coeff in powers if power >= k))
            for k in range(max((power for power, _ in powers), default=-1) + 1)}
        if at_plus:
            return XiRational(reg, out, own, 0)
        return XiRational(reg, out, 0, own)

    def polynomial_part(self) -> NumDict:
        """Quotient of the numerator by the full denominator (xn-polynomial)."""
        reg = self.registry
        rem = dict(self.num)
        for _ in range(self.a):
            rem = _synthetic_div(rem, reg, 1)
        for _ in range(self.b):
            rem = _synthetic_div(rem, reg, -1)
        return _clean(rem)

    def residue_at_plus_i(self) -> CliffordElement:
        """The j = -1 coefficient of :meth:`laurent` at +i, built alone.

        With N = sum_k S_k t^k in t = xn - i and (t + 2i)^-b = sum_s e_s t^s,
        it is the sum of S_k e_(a-1-k) over k < a, taken in the order
        :meth:`laurent` takes it; only S_0 .. S_(a-1) are needed, and only
        S_(a-1) when there is no pole at -i (e_0 = 1, e_s = 0 otherwise)."""
        return self._residue(1)

    def _residue(self, sign: int) -> CliffordElement:
        """The residue at ``sign * i``, as :meth:`residue_at_plus_i` builds
        it, with the two poles' roles swapped when ``sign`` is -1."""
        own, other = (self.a, self.b) if sign > 0 else (self.b, self.a)
        if not own:
            return CliffordElement.zero(self.registry)
        return CliffordElement.rotated_sum(self.registry, (
            (self._shifted(k, sign), *_expansion_coeff(other, own - 1 - k, sign))
            for k in range(0 if other else own - 1, min(own, self.degree() + 1))))

    def on_words(self, words: Container) -> "XiRational":
        """The Clifford words in ``words``, over the same pole orders; the
        element itself when it carries no other word.  The copy is taken as
        is, in the element's own key, word and monomial order."""
        if all(word in words for elem in self.num.values() for word in elem.terms):
            return self
        reg = self.registry
        num: NumDict = {}
        for m, elem in self.num.items():
            kept = {word: poly for word, poly in elem.terms.items() if word in words}
            if kept:
                num[m] = CliffordElement._pruned(reg, kept)
        if not num:
            return XiRational.zero(reg)
        return XiRational._canonical(reg, num, self.a, self.b)

    def integrate(self, pi_ind: Indeterminate,
                  even_in: Container[int] | None = None) -> CliffordElement:
        """Real-line integral, closing the contour in the upper half plane.

        Requires numerator degree <= a + b - 2; the result carries the
        supplied symbolic pi marker as a factor.  With ``even_in``, the ids
        of the sphere's covariables as in :meth:`product_trace`, the residue
        is taken only of the monomials that can survive the sphere, those
        with an empty odd class (``sphere.odd_class``), over the same pole
        orders and not made canonical: a residue holds for any
        representation.  The degree check still reads the whole element.
        """
        if self.is_zero():
            return CliffordElement.zero(self.registry)
        if self.degree() > self.a + self.b - 2:
            raise InsufficientDecayError(
                f"degree {self.degree()} with pole orders ({self.a},{self.b})")
        f = self
        if even_in is not None:
            reg = self.registry
            num = {m: CliffordElement(reg, {w: ScalarPoly(reg, {
                mono: c for mono, c in poly.terms.items() if not odd_class(mono, even_in)})
                for w, poly in elem.terms.items()}) for m, elem in self.num.items()}
            f = XiRational._canonical(reg, _clean(num), self.a, self.b)
        pi_factor = ScalarPoly.var(self.registry, pi_ind) * GR(0, 2)
        return f.residue_at_plus_i() * pi_factor

    # -- numeric evaluation ------------------------------------------------

    def _evaluator(self, bindings: Mapping[int, complex] | None) -> Callable[[complex], complex]:
        """The identity-word component as a function of a numeric xn, with
        each numerator coefficient floated once, here."""
        bindings = bindings or {}
        coeffs = []
        for m, c in self.num.items():
            for word in c.terms:
                if word:
                    raise ValueError("numeric evaluation needs an identity-word element")
            coeffs.append((m, c.scalar_part().eval_complex(bindings)))
        a, b = self.a, self.b

        def value(xn: complex) -> complex:
            num = 0j
            for m, c in coeffs:
                num += c * xn ** m
            return num / ((xn - 1j) ** a * (xn + 1j) ** b)

        return value

    def render(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for m in sorted(self.num):
            head = "" if m == 0 else ("xn" if m == 1 else f"xn^{m}")
            parts.append(f"({self.num[m].render()}){head}" if head else f"({self.num[m].render()})")
        body = " + ".join(parts)
        denom = []
        if self.a:
            denom.append(f"(xn-i)^{self.a}" if self.a > 1 else "(xn-i)")
        if self.b:
            denom.append(f"(xn+i)^{self.b}" if self.b > 1 else "(xn+i)")
        return f"[{body}] / {''.join(denom)}" if denom else body

    __str__ = render

    def __repr__(self):
        return f"<XiRational {self.render()}>"


# -- module-level operation names ------------------------------------------


xi_derivative = XiRational.xi_derivative
pi_plus = XiRational.pi_plus
pi_minus = XiRational.pi_minus
xi_integral = XiRational.integrate


def numeric_xi_oracle(f: XiRational, bindings: Mapping[int, complex] | None = None) -> complex:
    """QAGIE quadrature of the real and of the imaginary part of the
    identity-word component over the real line, one evaluation per abscissa."""
    from .quadpack import qagie  # only the corroboration needs it; set-up stays lean

    value = functools.cache(f._evaluator(bindings))
    return complex(qagie(lambda x: value(x).real)[0], qagie(lambda x: value(x).imag)[0])
