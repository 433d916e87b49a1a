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
from typing import Callable, Mapping

from .clifford import CliffordElement
from .scalars import (
    GR,
    GR_I,
    GR_ONE,
    GaussianRational,
    Indeterminate,
    Registry,
    ScalarPoly,
)

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
    """Whether the numerator vanishes at ``xn = sign * i``.

    The coefficient of xn^m is rotated by (sign * i)^m and the rotated
    values are summed per (word, monomial); the numerator vanishes exactly
    when every sum does."""
    groups: dict = {}
    for m, elem in num.items():
        turn = m * sign
        for word, poly in elem.terms.items():
            for mono, c in poly.terms.items():
                group = groups.get((word, mono))
                if group is None:
                    groups[word, mono] = [(turn, c)]
                else:
                    group.append((turn, c))
    # a (word, monomial) met in one power of xn alone cannot cancel
    if any(len(group) == 1 for group in groups.values()):
        return False
    for (turn, c), *rest in groups.values():
        total = c.times_i_pow(turn)
        for turn, c in rest:
            total = total + c.times_i_pow(turn)
        if total:
            return False
    return True


def _synthetic_div(num: NumDict, registry: Registry, sign: int) -> NumDict:
    """Divide by (xn - sign * i) and drop the remainder.  Canonicalisation
    divides only after checking that the remainder vanishes;
    ``polynomial_part`` drops a nonzero remainder on purpose."""
    quot: NumDict = {}
    carry = CliffordElement.zero(registry)
    for m in range(max(num, default=0), 0, -1):
        carry = carry.times_i_pow(sign) + num.get(m, CliffordElement.zero(registry)) if carry else num.get(m, CliffordElement.zero(registry))
        if carry:
            quot[m - 1] = carry
    return quot


def _num_mul_linear(num: NumDict, registry: Registry, sign: int) -> NumDict:
    """Multiply the numerator by (xn - sign * i); -sign * i is i**(sign + 2)."""
    out: NumDict = {}
    for m, coeff in num.items():
        out[m + 1] = out.get(m + 1, CliffordElement.zero(registry)) + coeff
        out[m] = out.get(m, CliffordElement.zero(registry)) + coeff.times_i_pow(sign + 2)
    return _clean(out)


_FAR_PLUS = GR(0, 2)  # value of (xn + i) at xn = +i


def _expansion_coeff(order: int, s: int, far: GaussianRational) -> GaussianRational:
    """Coefficient e_s of t^s in (t + far)^-order; with order 0 only s = 0,
    where it is 1, is asked for."""
    if not order:
        return GR_ONE
    return GR((-1) ** s * math.comb(order + s - 1, s)) * far ** (-order - s)


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

    def product_trace(self, other: "XiRational", p: int, q: int) -> "XiRational":
        """Equivalent of ``(self * other).trace(p, q)`` via the word join."""
        reg = self.registry
        acc: dict[int, ScalarPoly] = {}
        for m1, c1 in self.num.items():
            for m2, c2 in other.num.items():
                piece = c1.product_trace(c2, p, q)
                if piece.is_zero():
                    continue
                key = m1 + m2
                prev = acc.get(key)
                acc[key] = piece if prev is None else prev + piece
        out = {m: CliffordElement.identity(reg, s) for m, s in acc.items()}
        return XiRational(reg, out, self.a + other.a, self.b + other.b)

    # -- calculus ----------------------------------------------------------

    def xi_derivative(self) -> "XiRational":
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

    def _shifted(self, k: int, center: GaussianRational) -> CliffordElement:
        """Coefficient of t^k in the numerator rewritten in t = xn - center."""
        acc = CliffordElement.zero(self.registry)
        for m in range(k, self.degree() + 1):
            if m in self.num:
                acc = acc + self.num[m] * (GR(math.comb(m, k)) * center ** (m - k))
        return acc

    def laurent(self, at_plus: bool) -> dict[int, CliffordElement]:
        """Principal-part Laurent coefficients in t = xn -+ i, from the pole
        order up to ``t**-1``."""
        reg = self.registry
        center = GR_I if at_plus else -GR_I
        far = _FAR_PLUS if at_plus else -_FAR_PLUS  # value of the other linear factor
        own, other = (self.a, self.b) if at_plus else (self.b, self.a)
        shifted: NumDict = {}
        # only S_k with k < own reach a principal coefficient
        for k in range(min(own, self.degree() + 1)):
            acc = self._shifted(k, center)
            if acc:
                shifted[k] = acc
        out: dict[int, CliffordElement] = {}
        for j in range(-own, 0):
            acc = CliffordElement.zero(reg)
            for k, coeff in shifted.items():
                s = j + own - k
                if s < 0:
                    continue
                if other or s == 0:
                    acc = acc + coeff * _expansion_coeff(other, s, far)
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
        center = GR_I if at_plus else -GR_I
        series = self.laurent(at_plus)
        # sum_j c_{-j} (xn - c)^(own - j), assembled over the single-pole denominator
        out: NumDict = {}
        for j, coeff in series.items():
            power = own + j  # j is negative: exponent of (xn - c) in the numerator
            for k in range(power + 1):
                e = GR(math.comb(power, k)) * (-center) ** (power - k)
                out[k] = out.get(k, CliffordElement.zero(reg)) + coeff * e
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
        reg = self.registry
        own, other = self.a, self.b
        out = CliffordElement.zero(reg)
        if not own:
            return out
        for k in range(0 if other else own - 1, min(own, self.degree() + 1)):
            coeff = self._shifted(k, GR_I)
            if coeff:
                out = out + coeff * _expansion_coeff(other, own - 1 - k, _FAR_PLUS)
        return out

    def integrate(self, pi_ind: Indeterminate) -> CliffordElement:
        """Real-line integral, closing the contour in the upper half plane.

        Requires numerator degree <= a + b - 2; the result carries the
        supplied symbolic pi marker as a factor.
        """
        if self.is_zero():
            return CliffordElement.zero(self.registry)
        if self.degree() > self.a + self.b - 2:
            raise InsufficientDecayError(
                f"degree {self.degree()} with pole orders ({self.a},{self.b})")
        res = self.residue_at_plus_i()
        pi_factor = ScalarPoly.var(self.registry, pi_ind) * GR(0, 2)
        return res * pi_factor

    # -- numeric evaluation ------------------------------------------------

    def eval_scalar_complex(self, xn: complex, bindings: Mapping[int, complex] | None = None) -> complex:
        """Evaluate the identity-word component at a numeric point."""
        bindings = bindings or {}
        num = 0j
        for m, c in self.num.items():
            for word in c.terms:
                if word:
                    raise ValueError("numeric evaluation needs an identity-word element")
            num += c.scalar_part().eval_complex(bindings) * xn ** m
        return num / ((xn - 1j) ** self.a * (xn + 1j) ** self.b)

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

    value = functools.cache(lambda x: f.eval_scalar_complex(x, bindings))
    return complex(qagie(lambda x: value(x).real)[0], qagie(lambda x: value(x).imag)[0])
