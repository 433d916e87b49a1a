"""Exact Gaussian-rational scalars, indeterminate registry, sparse polynomials.

Every quantity in the verification pipeline bottoms out in these types.  No
floating point is used anywhere in this module; floats only appear in the
numeric oracles that cross-check the exact results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, NamedTuple


class RegistryMismatchError(ValueError):
    """Raised when two values built over distinct registries are combined."""


class MarkerSubstitutionError(ValueError):
    """Raised when a formal marker is passed to a numeric substitution."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    The value is stored as three ints, ``(a + b*i) / d`` with ``d > 0`` and
    ``gcd(a, b, d) = 1`` (zero is ``(0, 0, 1)``).  That form is canonical,
    so equality compares the three ints; ``re`` and ``im`` are read-only
    :class:`~fractions.Fraction` views.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _frac(re), _frac(im)
        d1, d2 = re.denominator, im.denominator
        d = d1 if d1 == d2 else d1 * d2 // gcd(d1, d2)
        self._a = re.numerator * (d // d1)
        self._b = im.numerator * (d // d2)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return other
        return _add(self._a, self._b, self._d, other._a, other._b, other._d)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return other
        return _add(self._a, self._b, self._d, -other._a, -other._b, other._d)

    def __rsub__(self, other):
        other = _coerce(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return other
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        # each factor is canonical, so cancelling across the factors leaves
        # a canonical product whenever one of them is real
        if not b2:
            if d1 == 1 and d2 == 1:
                return _new(a1 * a2, b1 * a2, 1)
            g1, g2 = gcd(a2, d1), gcd(a1, b1, d2)
            k = a2 // g1
            return _new(k * (a1 // g2), k * (b1 // g2), (d1 // g1) * (d2 // g2))
        if not b1:
            g1, g2 = gcd(a1, d2), gcd(a2, b2, d1)
            k = a1 // g1
            return _new(k * (a2 // g2), k * (b2 // g2), (d1 // g2) * (d2 // g1))
        return _canon(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        a, b, d = other._a, other._b, other._d
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        # 1 / ((a + b i) / d) = d (a - b i) / (a^2 + b^2)
        return self * _canon(d * a, -d * b, norm)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be int")
        if n < 0:
            return GR_ONE / (self ** (-n))
        out = GR_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def turn_scale(self, turn: int, num: int, den: int) -> "GaussianRational":
        """``self * i**turn * (num / den)`` for ``turn`` in 0..3 and a real
        ``num / den`` in lowest terms with ``den > 0``, as one value: the
        quarter turn swaps the integer parts and negates one, with no gcd,
        and the scale cross-cancels as in :meth:`__mul__`'s real branch."""
        a, b = self._a, self._b
        if turn == 1:
            a, b = -b, a
        elif turn == 2:
            a, b = -a, -b
        elif turn == 3:
            a, b = b, -a
        d = self._d
        if den == 1 and (d == 1 or num == 1):
            return _new(a * num, b * num, d)
        g1, g2 = gcd(num, d), gcd(a, b, den)
        k = num // g1
        return _new(k * (a // g2), k * (b // g2), (d // g1) * (den // g2))

    # -- predicates & conversions -----------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return other
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # equal values hash alike: a real value as the Fraction (or int) it
        # equals, any other by its canonical triple
        if not self._b:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def to_complex(self) -> complex:
        # int true division is correctly rounded, so this equals the float
        # of the reduced fractions bit for bit
        return complex(self._a / self._d) + 1j * complex(self._b / self._d)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: '5/24', '-3i', '(1/2-3/4i)', '0'."""
        if self.is_zero():
            return "0"
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}i)"

    __str__ = render

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_object_new = object.__new__


def _new(a: int, b: int, d: int) -> GaussianRational:
    """A value from an already canonical triple."""
    out = _object_new(GaussianRational)
    out._a = a
    out._b = b
    out._d = d
    return out


def _canon(a: int, b: int, d: int) -> GaussianRational:
    """A value from any triple with ``d > 0``."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _new(a // g, b // g, d // g)
    return _new(a, b, d)


def _add(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> GaussianRational:
    """``(a1 + b1 i)/d1 + (a2 + b2 i)/d2`` for canonical operands."""
    if d1 == d2:
        return _canon(a1 + a2, b1 + b2, d1)
    # as in Fraction: with g = gcd(d1, d2), only a factor of g can cancel
    g = gcd(d1, d2)
    if g == 1:
        return _new(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
    s, t = d1 // g, d2 // g
    a, b = a1 * t + a2 * s, b1 * t + b2 * s
    g2 = gcd(a, b, g)
    if g2 == 1:
        return _new(a, b, s * d2)
    return _new(a // g2, b // g2, s * (d2 // g2))


def _coerce(x):
    """``x`` as a GaussianRational, or NotImplemented when it is not a number
    of this tower, so Python tries the other operand's reflected method."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return _new(x, 0, 1)
    if isinstance(x, Fraction):
        return _new(x.numerator, 0, x.denominator)
    return NotImplemented


def _as_gr(x) -> GaussianRational:
    out = _coerce(x)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")
    return out


GR = GaussianRational
GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


# -- indeterminates --------------------------------------------------------

KIND_XI = "xi-prime-component"
KIND_X = "X-component"
KIND_Y = "Y-component"
KIND_HPRIME = "h-prime-zero"
KIND_CONN = "connection-scalar"
KIND_CURV = "curvature-scalar"
KIND_MARKER = "formal-marker"

_KINDS = {KIND_XI, KIND_X, KIND_Y, KIND_HPRIME, KIND_CONN, KIND_CURV, KIND_MARKER}


class Indeterminate(NamedTuple):
    """A named commuting indeterminate; identity comes from the registry id."""

    id: int
    name: str
    kind: str

    def __str__(self):
        return self.name


class Registry:
    """Append-only collection of indeterminates.

    Values built from different registries must never mix; polynomial
    operations raise RegistryMismatchError if they do.
    """

    def __init__(self):
        self._items: list[Indeterminate] = []
        self._by_name: dict[str, Indeterminate] = {}

    def add(self, name: str, kind: str) -> Indeterminate:
        if kind not in _KINDS:
            raise ValueError(f"unknown indeterminate kind {kind!r}")
        if name in self._by_name:
            raise ValueError(f"duplicate indeterminate name {name!r}")
        ind = Indeterminate(len(self._items), name, kind)
        self._items.append(ind)
        self._by_name[name] = ind
        return ind

    def get_or_add(self, name: str, kind: str) -> Indeterminate:
        existing = self._by_name.get(name)
        if existing is not None:
            return existing
        return self.add(name, kind)

    def by_name(self, name: str) -> Indeterminate:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, idx: int) -> Indeterminate:
        return self._items[idx]

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


# -- sparse multivariate polynomials ---------------------------------------

Monomial = tuple  # tuple of (indeterminate id, exponent), sorted by id


class ScalarPoly:
    """Sparse polynomial over a registry with GaussianRational coefficients.

    Terms are stored as {monomial: coefficient} with zero coefficients
    pruned, so structural equality is semantic equality.
    """

    __slots__ = ("registry", "terms")

    def __init__(self, registry: Registry, terms: Mapping[Monomial, GaussianRational] | None = None):
        self.registry = registry
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if not coeff.is_zero():
                    clean[mono] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _pruned(registry: Registry, terms: dict) -> "ScalarPoly":
        """A polynomial from terms that hold no zero coefficient, taken as is."""
        out = _object_new(ScalarPoly)
        out.registry = registry
        out.terms = terms
        return out

    @staticmethod
    def zero(registry: Registry) -> "ScalarPoly":
        return ScalarPoly._pruned(registry, {})

    @staticmethod
    def const(registry: Registry, value) -> "ScalarPoly":
        value = _as_gr(value)
        return ScalarPoly._pruned(registry, {(): value} if value else {})

    @staticmethod
    def var(registry: Registry, ind: Indeterminate, exp: int = 1) -> "ScalarPoly":
        if exp < 0:
            raise ValueError("exponent must be nonnegative")
        if exp == 0:
            return ScalarPoly.const(registry, GR_ONE)
        return ScalarPoly(registry, {((ind.id, exp),): GR_ONE})

    # -- helpers -----------------------------------------------------------

    def _lift(self, other):
        """``other`` as a polynomial over this registry, a number as a
        GaussianRational constant, anything else as NotImplemented."""
        if other.__class__ is ScalarPoly:
            if other.registry is not self.registry:
                raise RegistryMismatchError("polynomials over distinct registries")
            return other
        return _coerce(other)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero()

    def constant_part(self) -> GaussianRational:
        return self.terms.get((), GR_ZERO)

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return other
        if other.__class__ is GaussianRational:
            other = ScalarPoly.const(self.registry, other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = coeff
                continue
            acc = acc + coeff
            if acc:
                out[mono] = acc
            else:
                del out[mono]
        return ScalarPoly._pruned(self.registry, out)

    __radd__ = __add__

    def __neg__(self):
        return ScalarPoly._pruned(self.registry, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return other
        if other.__class__ is ScalarPoly:
            if len(self.terms) == 1:  # 1 * other is other itself
                c = self.terms.get(())
                if c is not None and c._a == 1 and c._d == 1 and not c._b:
                    return other
            if len(other.terms) == 1:
                # a constant polynomial scales like its one coefficient
                other = other.terms.get((), other)
        if other.__class__ is GaussianRational:
            if other._a == 1 and other._d == 1 and not other._b:  # self * 1 is self
                return self
            if not (other._a or other._b):
                return ScalarPoly.zero(self.registry)
            return ScalarPoly._pruned(self.registry, {m: c * other for m, c in self.terms.items()})
        out: dict[Monomial, GaussianRational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                prod = c1 * c2
                acc = out.get(mono)
                if acc is None:
                    out[mono] = prod
                    continue
                acc = acc + prod
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return ScalarPoly._pruned(self.registry, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ScalarPoly.const(self.registry, GR_ONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        return self.registry is other.registry and self.terms == other.terms

    # -- structure queries -------------------------------------------------

    def coefficient_of(self, mono_inds: Mapping[Indeterminate, int]) -> "ScalarPoly":
        """Coefficient of the exact monomial in the given indeterminates.

        Terms containing any of the given indeterminates with a different
        exponent do not contribute.
        """
        key = tuple(sorted((ind.id, exp) for ind, exp in mono_inds.items() if exp > 0))
        return self.project(mono_inds).get(key) or ScalarPoly.zero(self.registry)

    def project(self, inds: Iterable[Indeterminate]) -> dict[Monomial, "ScalarPoly"]:
        """Group terms by their submonomial in the given indeterminates."""
        watched = {ind.id for ind in inds}
        groups: dict[Monomial, dict[Monomial, GaussianRational]] = {}
        for mono, coeff in self.terms.items():
            sub = tuple((iid, exp) for iid, exp in mono if iid in watched)
            rest = tuple((iid, exp) for iid, exp in mono if iid not in watched)
            bucket = groups.setdefault(sub, {})
            bucket[rest] = bucket.get(rest, GR_ZERO) + coeff
        return {sub: ScalarPoly(self.registry, bucket) for sub, bucket in groups.items()}

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[Indeterminate, GaussianRational]) -> "ScalarPoly":
        """Evaluate some indeterminates at exact scalar values.

        Terms are grouped by the monomial left in the unbound indeterminates,
        and each group is summed over the lcm of its denominators and reduced
        once.  The result's monomials come in the order their groups are
        first met in, among the groups whose total is nonzero.

        Formal markers may not be bound here; they are never evaluated.
        """
        for ind in bindings:
            if ind.kind == KIND_MARKER:
                raise MarkerSubstitutionError(f"cannot bind formal marker {ind.name!r}")
        values = {ind.id: _as_gr(v) for ind, v in bindings.items()}
        powers: dict[tuple[int, int], GaussianRational] = {}
        # per remaining monomial: [real, imaginary, denominator], unreduced
        groups: dict[Monomial, list[int]] = {}
        for mono, coeff in self.terms.items():
            a, b, d = coeff._a, coeff._b, coeff._d
            rest = []
            for iid, exp in mono:
                if iid in values:
                    power = powers.get((iid, exp))
                    if power is None:
                        power = powers[iid, exp] = values[iid] ** exp
                    pa, pb = power._a, power._b
                    a, b, d = a * pa - b * pb, a * pb + b * pa, d * power._d
                else:
                    rest.append((iid, exp))
            if not (a or b):
                continue
            key = tuple(rest)
            acc = groups.get(key)
            if acc is None:
                groups[key] = [a, b, d]
            elif acc[2] == d:
                acc[0] += a
                acc[1] += b
            else:
                da = acc[2]
                g = gcd(da, d)
                sa, sb = d // g, da // g
                acc[0], acc[1], acc[2] = acc[0] * sa + a * sb, acc[1] * sa + b * sb, da * sa
        return ScalarPoly._pruned(self.registry, {
            key: _canon(a, b, d) for key, (a, b, d) in groups.items() if a or b})

    def replace(self, ind: Indeterminate, value: "ScalarPoly") -> "ScalarPoly":
        """Substitute one indeterminate by a polynomial."""
        self_reg = self.registry
        if value.registry is not self_reg:
            raise RegistryMismatchError("replacement value over distinct registry")
        out = ScalarPoly.zero(self_reg)
        for mono, coeff in self.terms.items():
            term = ScalarPoly.const(self_reg, coeff)
            for iid, exp in mono:
                if iid == ind.id:
                    term = term * (value ** exp)
                else:
                    term = term * ScalarPoly(self_reg, {((iid, exp),): GR_ONE})
            out = out + term
        return out

    def derivative(self, ind: Indeterminate) -> "ScalarPoly":
        out = {}
        for mono, coeff in self.terms.items():
            for pos, (iid, exp) in enumerate(mono):
                if iid != ind.id:
                    continue
                new_coeff = coeff * exp
                if exp == 1:
                    new_mono = mono[:pos] + mono[pos + 1:]
                else:
                    new_mono = mono[:pos] + ((iid, exp - 1),) + mono[pos + 1:]
                out[new_mono] = out.get(new_mono, GR_ZERO) + new_coeff
        return ScalarPoly(self.registry, out)

    def eval_complex(self, bindings: Mapping[int, complex]) -> complex:
        """Float evaluation for the numeric oracles; all ids must be bound."""
        total = 0j
        for mono, coeff in self.terms.items():
            acc = coeff.to_complex()
            for iid, exp in mono:
                acc *= bindings[iid] ** exp
            total += acc
        return total

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_sort_key):
            coeff = self.terms[mono]
            factors = [f"{self.registry[iid].name}" + (f"^{exp}" if exp > 1 else "")
                       for iid, exp in mono]
            if not factors:
                parts.append(coeff.render())
            elif coeff == GR_ONE:
                parts.append("*".join(factors))
            elif coeff == -GR_ONE:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(coeff.render() + "*" + "*".join(factors))
        text = parts[0]
        for part in parts[1:]:
            if part.startswith("-") and not part.startswith("-("):
                text += " - " + part[1:]
            else:
                text += " + " + part
        return text

    __str__ = render

    def __repr__(self):
        return f"<ScalarPoly {self.render()}>"


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two monomials, each sorted by indeterminate id, by merging."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        t1, t2 = m1[i], m2[j]
        if t1[0] < t2[0]:
            out.append(t1)
            i += 1
        elif t2[0] < t1[0]:
            out.append(t2)
            j += 1
        else:
            out.append((t1[0], t1[1] + t2[1]))
            i += 1
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def _mono_sort_key(mono: Monomial):
    return (tuple(iid for iid, _ in mono), tuple(exp for _, exp in mono))
