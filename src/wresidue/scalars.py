"""Exact Gaussian-rational scalars, indeterminate registry, sparse polynomials.

Every quantity in the verification pipeline bottoms out in these types.  No
floating point is used anywhere in this module; floats only appear in the
numeric oracles that cross-check the exact results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping


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


_FR_ZERO = Fraction(0)


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _make(re: Fraction, im: Fraction) -> "GaussianRational":
        out = object.__new__(GaussianRational)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    @staticmethod
    def one() -> "GaussianRational":
        return GaussianRational(1, 0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational._make(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        # real arguments dominate in practice; skip the cross terms for them
        if not self.im and not other.im:
            return GaussianRational._make(self.re * other.re, _FR_ZERO)
        return GaussianRational._make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be int")
        if n < 0:
            return GaussianRational.one() / (self ** (-n))
        out = GaussianRational.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates & conversions -----------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: '5/24', '-3i', '(1/2-3/4i)', '0'."""
        if self.is_zero():
            return "0"
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"

    __str__ = render

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x, 0)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


GR = GaussianRational
GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


def minus_i_pow(k: int) -> GaussianRational:
    """(-i)**k, exact."""
    return GR_I.__neg__() ** (k % 4)


# -- indeterminates --------------------------------------------------------

KIND_XI = "xi-prime-component"
KIND_X = "X-component"
KIND_Y = "Y-component"
KIND_HPRIME = "h-prime-zero"
KIND_CONN = "connection-scalar"
KIND_CURV = "curvature-scalar"
KIND_MARKER = "formal-marker"

_KINDS = {KIND_XI, KIND_X, KIND_Y, KIND_HPRIME, KIND_CONN, KIND_CURV, KIND_MARKER}


@dataclass(frozen=True)
class Indeterminate:
    """A named commuting indeterminate; identity comes from the registry id."""

    id: int
    name: str
    kind: str
    meta: tuple = ()

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

    def add(self, name: str, kind: str, meta: tuple = ()) -> Indeterminate:
        if kind not in _KINDS:
            raise ValueError(f"unknown indeterminate kind {kind!r}")
        if name in self._by_name:
            raise ValueError(f"duplicate indeterminate name {name!r}")
        ind = Indeterminate(len(self._items), name, kind, meta)
        self._items.append(ind)
        self._by_name[name] = ind
        return ind

    def get_or_add(self, name: str, kind: str, meta: tuple = ()) -> Indeterminate:
        existing = self._by_name.get(name)
        if existing is not None:
            return existing
        return self.add(name, kind, meta)

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
        object.__setattr__(self, "registry", registry)
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if not coeff.is_zero():
                    clean[mono] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(registry: Registry) -> "ScalarPoly":
        return ScalarPoly(registry, {})

    @staticmethod
    def const(registry: Registry, value) -> "ScalarPoly":
        value = _coerce(value)
        if value.is_zero():
            return ScalarPoly.zero(registry)
        return ScalarPoly(registry, {(): value})

    @staticmethod
    def var(registry: Registry, ind: Indeterminate, exp: int = 1) -> "ScalarPoly":
        if exp < 0:
            raise ValueError("exponent must be nonnegative")
        if exp == 0:
            return ScalarPoly.const(registry, GR_ONE)
        return ScalarPoly(registry, {((ind.id, exp),): GR_ONE})

    # -- helpers -----------------------------------------------------------

    def _check(self, other: "ScalarPoly"):
        if self.registry is not other.registry:
            raise RegistryMismatchError("polynomials over distinct registries")

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
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ScalarPoly.const(self.registry, other)
        self._check(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, GR_ZERO) + coeff
            if acc.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = acc
        return ScalarPoly(self.registry, out)

    __radd__ = __add__

    def __neg__(self):
        return ScalarPoly(self.registry, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = ScalarPoly.const(self.registry, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _coerce(other)
            if c.is_zero():
                return ScalarPoly.zero(self.registry)
            return ScalarPoly(self.registry, {m: cc * c for m, cc in self.terms.items()})
        self._check(other)
        out: dict[Monomial, GaussianRational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                prod = c1 * c2
                acc = out.get(mono)
                acc = prod if acc is None else acc + prod
                if acc.is_zero():
                    out.pop(mono, None)
                else:
                    out[mono] = acc
        return ScalarPoly(self.registry, out)

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

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure queries -------------------------------------------------

    def indeterminate_ids(self) -> set[int]:
        out = set()
        for mono in self.terms:
            for iid, _ in mono:
                out.add(iid)
        return out

    def coefficient_of(self, mono_inds: Mapping[Indeterminate, int]) -> "ScalarPoly":
        """Coefficient of the exact monomial in the given indeterminates.

        Terms containing any of the given indeterminates with a different
        exponent do not contribute.
        """
        want = {ind.id: exp for ind, exp in mono_inds.items() if exp}
        watched = {ind.id for ind in mono_inds}
        out = {}
        for mono, coeff in self.terms.items():
            present = {iid: exp for iid, exp in mono if iid in watched}
            if present != want:
                continue
            rest = tuple((iid, exp) for iid, exp in mono if iid not in watched)
            out[rest] = out.get(rest, GR_ZERO) + coeff
        return ScalarPoly(self.registry, out)

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

        Formal markers may not be bound here; they are never evaluated.
        """
        for ind in bindings:
            if ind.kind == KIND_MARKER:
                raise MarkerSubstitutionError(f"cannot bind formal marker {ind.name!r}")
        values = {ind.id: _coerce(v) for ind, v in bindings.items()}
        out: dict[Monomial, GaussianRational] = {}
        for mono, coeff in self.terms.items():
            acc = coeff
            rest = []
            for iid, exp in mono:
                if iid in values:
                    acc = acc * (values[iid] ** exp)
                else:
                    rest.append((iid, exp))
            if acc.is_zero():
                continue
            key = tuple(rest)
            total = out.get(key, GR_ZERO) + acc
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
        return ScalarPoly(self.registry, out)

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
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for iid, exp in m2:
        merged[iid] = merged.get(iid, 0) + exp
    return tuple(sorted(merged.items()))


def _mono_sort_key(mono: Monomial):
    return (tuple(iid for iid, _ in mono), tuple(exp for _, exp in mono))
