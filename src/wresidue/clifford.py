"""Clifford algebra acting on the twisted spinor fiber.

Generators come in three families over a rank split (p, q):
  * ``c(f_i)``  for i = 1..p   -- squares to -1,
  * ``c(h_s)``  for s = 1..q   -- squares to -1,
  * ``hatc(h_s)`` for s = 1..q -- squares to +1,
and any two distinct generators anticommute.  Products therefore normal-order
to a sign times a strictly increasing word, which keeps elements sparse.

Elements carry ScalarPoly coefficients so symbol calculus and fiber traces
stay exact end to end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, Container, Mapping

from .scalars import (
    GR_ONE,
    GaussianRational,
    Registry,
    RegistryMismatchError,
    ScalarPoly,
    _object_new,
)

CF = 0  # c(f_i), square -1
CN = 1  # c(h_s), square -1
HC = 2  # hatc(h_s), square +1

_SQ_SIGN = {CF: -1, CN: -1, HC: 1}
_KIND_TEXT = {CF: "c(f{})", CN: "c(h{})", HC: "hc(h{})"}

Generator = tuple  # (kind, index), index starting at 1
Word = tuple  # tuple of generators, strictly increasing


def word_mul_letter(word: Word, g: Generator) -> tuple[int, Word]:
    """Multiply a normal-ordered word by one generator on the right."""
    sign = 1
    for pos, letter in enumerate(word):
        if letter == g:
            # move g left to sit beside its copy, then contract the square
            sign *= -1 if (len(word) - 1 - pos) % 2 else 1
            sign *= _SQ_SIGN[g[0]]
            return sign, word[:pos] + word[pos + 1:]
        if letter > g:
            sign *= -1 if (len(word) - pos) % 2 else 1
            return sign, word[:pos] + (g,) + word[pos:]
    return sign, word + (g,)


# word_mul results by word pair, filled on first use, and under the key None
# the square signs they were built from: a patched _SQ_SIGN starts it afresh
_WORD_PRODUCTS: dict = {}


def word_mul(w1: Word, w2: Word) -> tuple[int, Word]:
    """Product of two normal-ordered words: (sign, normal-ordered word),
    read from the word table, or folded letter by letter on first use."""
    table = _WORD_PRODUCTS
    if table.get(None) != _SQ_SIGN:
        table.clear()
        table[None] = dict(_SQ_SIGN)
    out = table.get((w1, w2))
    if out is None:
        sign, word = 1, w1
        for g in w2:
            s, word = word_mul_letter(word, g)
            sign *= s
        out = table[w1, w2] = sign, word
    return out


def fiber_dimension(p: int, q: int) -> int:
    """Fiber rank of the twisted spinor bundle the algebra acts on."""
    if p % 2:
        raise ValueError("p must be even")
    return 2 ** (p // 2 + q)


class CliffordElement:
    """Sparse algebra element: {normal-ordered word: ScalarPoly coefficient}."""

    __slots__ = ("registry", "terms")

    def __init__(self, registry: Registry, terms: Mapping[Word, ScalarPoly] | None = None):
        self.registry = registry
        clean = {}
        if terms:
            for word, coeff in terms.items():
                if coeff.registry is not registry:
                    raise RegistryMismatchError("coefficient over distinct registry")
                if not coeff.is_zero():
                    clean[word] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _pruned(registry: Registry, terms: dict) -> "CliffordElement":
        """An element from nonzero coefficients over ``registry``, taken as is."""
        out = _object_new(CliffordElement)
        out.registry = registry
        out.terms = terms
        return out

    @staticmethod
    def zero(registry: Registry) -> "CliffordElement":
        return CliffordElement._pruned(registry, {})

    @staticmethod
    def identity(registry: Registry, coeff=GR_ONE) -> "CliffordElement":
        """``coeff``, a number or a polynomial, on the identity word."""
        if not isinstance(coeff, ScalarPoly):
            coeff = ScalarPoly.const(registry, coeff)
        elif coeff.registry is not registry:
            raise RegistryMismatchError("coefficient over distinct registry")
        return CliffordElement._pruned(registry, {(): coeff} if coeff else {})

    @staticmethod
    def generator(registry: Registry, kind: int, index: int) -> "CliffordElement":
        if kind not in _SQ_SIGN:
            raise ValueError(f"unknown generator kind {kind}")
        if index < 1:
            raise ValueError("generator index starts at 1")
        return CliffordElement._pruned(
            registry, {((kind, index),): ScalarPoly._pruned(registry, {(): GR_ONE})})

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        """``other`` as an element over this registry; a number or polynomial
        goes on the identity word, anything else is NotImplemented."""
        if isinstance(other, CliffordElement):
            if other.registry is not self.registry:
                raise RegistryMismatchError("elements over distinct registries")
            return other
        if isinstance(other, (int, Fraction, GaussianRational, ScalarPoly)):
            return CliffordElement.identity(self.registry, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            acc = out.get(word)
            acc = coeff if acc is None else acc + coeff
            if not acc.terms:
                out.pop(word, None)
            else:
                out[word] = acc
        return CliffordElement._pruned(self.registry, out)

    __radd__ = __add__

    def __neg__(self):
        return CliffordElement._pruned(self.registry, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other + (-self)

    def __mul__(self, other):
        reg = self.registry
        if other.__class__ is not CliffordElement:
            if not isinstance(other, (int, Fraction, GaussianRational, ScalarPoly)):
                return NotImplemented
            if isinstance(other, ScalarPoly) and other.registry is not reg:
                raise RegistryMismatchError("coefficient over distinct registry")
            # the coefficients form an integral domain: only 0 gives 0
            return CliffordElement._pruned(
                reg, {w: c * other for w, c in self.terms.items()} if other else {})
        return self.mul_on_words(other, None)

    def mul_on_words(self, other: "CliffordElement", words: Container[Word] | None
                     ) -> "CliffordElement":
        """The words of ``self * other`` that lie in ``words`` (every word
        when it is None).  A word pair whose product word is not in
        ``words`` is skipped, not formed; each kept word has the value, the
        monomial order and the place in word order it has in the whole
        product, since words are summed apart."""
        reg = self.registry
        if other.registry is not reg:
            raise RegistryMismatchError("elements over distinct registries")
        if len(self.terms) == 1 and len(other.terms) == 1:
            (w1, c1), = self.terms.items()
            (w2, c2), = other.terms.items()
            sign, word = word_mul(w1, w2)
            prod = _object_new(CliffordElement)
            prod.registry = reg
            if words is not None and word not in words:
                prod.terms = {}
            else:
                piece = c1 * c2
                prod.terms = {word: piece if sign > 0 else -piece}
            return prod
        out: dict[Word, ScalarPoly] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                sign, word = word_mul(w1, w2)
                if words is not None and word not in words:
                    continue
                piece = c1 * c2 if sign > 0 else -(c1 * c2)
                acc = out.get(word)
                acc = piece if acc is None else acc + piece
                if not acc.terms:
                    out.pop(word, None)
                else:
                    out[word] = acc
        return CliffordElement._pruned(reg, out)

    def __rmul__(self, other):
        # only a number or a polynomial lands here, and it commutes
        return self * other

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.registry is other.registry and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero()

    # -- structure ---------------------------------------------------------

    def scalar_part(self) -> ScalarPoly:
        part = self.terms.get(())
        return ScalarPoly.zero(self.registry) if part is None else part

    def trace(self, p: int, q: int) -> ScalarPoly:
        """Fiber trace: only the identity word survives, weighted by rank."""
        return self.scalar_part() * fiber_dimension(p, q)

    def product_trace(self, other: "CliffordElement", p: int, q: int) -> ScalarPoly:
        """Trace of ``self * other`` without forming the discarded words.

        Words are normal ordered with strictly increasing letters, so a
        product contributes to the identity word exactly when the two
        words agree; the join below is therefore equivalent to
        ``(self * other).trace(p, q)`` at a fraction of the cost.
        """
        other = self._coerce(other)
        dim = fiber_dimension(p, q)
        small, big = self.terms, other.terms
        if len(big) < len(small):
            small, big = big, small
        acc: ScalarPoly | None = None
        for w, c1 in small.items():
            c2 = big.get(w)
            if c2 is None:
                continue
            sign, rest = word_mul(w, w)
            if rest:
                raise AssertionError("self-product of a word must be scalar")
            # scale the factor with fewer terms; the product keeps its order
            if len(c1.terms) <= len(c2.terms):
                piece = c1 * (sign * dim) * c2
            else:
                piece = c1 * (c2 * (sign * dim))
            acc = piece if acc is None else acc + piece
        return acc if acc is not None else ScalarPoly.zero(self.registry)

    @staticmethod
    def rotated_sum(registry: Registry, pieces) -> "CliffordElement":
        """Sum of ``elem * i**turn * scale`` over the ``(elem, turn, scale)``
        in ``pieces``, ``scale`` a nonzero int or Fraction, accumulated in
        place.

        Value, word order and monomial order are those of adding the pieces
        one at a time with ``+``, starting from zero: a word or monomial
        that sums to zero is dropped and, if it comes back, goes last.  A
        word that one unmoved piece alone reaches shares its coefficient."""
        words: dict = {}
        for elem, turn, scale in pieces:
            turn %= 4
            if scale.__class__ is int:
                num, den = scale, 1
            else:
                num, den = scale.numerator, scale.denominator
            moved = turn or num != 1 or den != 1
            for word, poly in elem.terms.items():
                acc = words.get(word)
                if acc is None:  # a new word takes the piece's monomials in order
                    words[word] = {mono: c.turn_scale(turn, num, den) for mono, c
                                   in poly.terms.items()} if moved else poly
                    continue
                if acc.__class__ is ScalarPoly:
                    acc = words[word] = dict(acc.terms)
                for mono, c in poly.terms.items():
                    if moved:
                        c = c.turn_scale(turn, num, den)
                    prev = acc.get(mono)
                    if prev is None:
                        acc[mono] = c
                    else:
                        c = prev + c
                        if c:
                            acc[mono] = c
                        else:
                            del acc[mono]
                if not acc:
                    del words[word]
        for word, acc in words.items():
            if acc.__class__ is dict:
                words[word] = ScalarPoly._pruned(registry, acc)
        return CliffordElement._pruned(registry, words)

    def map_coeffs(self, fn: Callable[[ScalarPoly], ScalarPoly]) -> "CliffordElement":
        return CliffordElement(self.registry, {w: fn(c) for w, c in self.terms.items()})

    def substitute(self, bindings) -> "CliffordElement":
        return self.map_coeffs(lambda c: c.substitute(bindings))

    def derivative(self, ind) -> "CliffordElement":
        return self.map_coeffs(lambda c: c.derivative(ind))

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms):
            coeff = self.terms[word]
            letters = ".".join(_KIND_TEXT[k].format(i) for k, i in word)
            if not word:
                parts.append(f"[{coeff.render()}]")
            else:
                parts.append(f"[{coeff.render()}]{letters}")
        return " + ".join(parts)

    __str__ = render

    def __repr__(self):
        return f"<CliffordElement {self.render()}>"


# -- the split frame -------------------------------------------------------


class Frame:
    """One registry and the Clifford action of the split frame over it.

    The orthonormal frame ``e_1..e_n`` lists ``f_1..f_p`` and then
    ``h_1..h_q``; :meth:`c` is its frame letter, :meth:`gen` any generator.
    """

    def __init__(self, p: int, q: int):
        fiber_dimension(p, q)  # p must be even
        self.p, self.q, self.n = p, q, p + q
        self.registry = Registry()

    def var(self, ind) -> ScalarPoly:
        return ScalarPoly.var(self.registry, ind)

    def ident(self, coeff=1) -> CliffordElement:
        return CliffordElement.identity(self.registry, coeff)

    def gen(self, kind: int, index: int) -> CliffordElement:
        return CliffordElement.generator(self.registry, kind, index)

    def c(self, a: int) -> CliffordElement:
        """Frame letter ``c(e_a)``, a = 1..n: ``c(f_a)``, then ``c(h_(a-p))``."""
        if not 1 <= a <= self.n:
            raise ValueError(f"frame index {a} out of range 1..{self.n}")
        return self.gen(CF, a) if a <= self.p else self.gen(CN, a - self.p)

    def family(self, indices, coeff: Callable[..., ScalarPoly],
               letters: Callable[..., CliffordElement], weight) -> CliffordElement:
        """Sum of ``letters(*i) * coeff(*i) * weight`` over the index tuples
        ``i``, in their order; zero coefficients are skipped."""
        out = CliffordElement.zero(self.registry)
        for idx in indices:
            co = coeff(*idx)
            if co:
                out = out + letters(*idx) * (co * weight)
        return out

    def spin_connection(self, leaf: Callable[[int, int], ScalarPoly],
                        perp: Callable[[int, int], ScalarPoly],
                        mix: Callable[[int, int], ScalarPoly] | None = None
                        ) -> CliffordElement:
        """A spin-connection value, the sum of three families:

          * leaf pairs ``c(f_j) c(f_l)`` weighted ``leaf(j, l) / 4``,
          * perp pairs ``c(h_s) c(h_t) - hatc(h_s) hatc(h_t)`` weighted
            ``perp(s, t) / 4``,
          * mixed pairs ``c(f_j) c(h_s)`` weighted ``mix(j, s) / 2``, left
            out when ``mix`` is None.

        Coefficients are requested in that order, each family row by row.
        """
        gen, ps, qs = self.gen, range(1, self.p + 1), range(1, self.q + 1)
        quarter = GaussianRational(Fraction(1, 4))
        out = (self.family(product(ps, ps), leaf, lambda j, l: gen(CF, j) * gen(CF, l), quarter)
               + self.family(product(qs, qs), perp, lambda s, t: gen(CN, s) * gen(CN, t)
                             - gen(HC, s) * gen(HC, t), quarter))
        if mix is None:
            return out
        return out + self.family(product(ps, qs), mix, lambda j, s: gen(CF, j) * gen(CN, s),
                                 GaussianRational(Fraction(1, 2)))
