"""Exact arithmetic in cyclotomic fields Q(zeta_N), and polynomials over them.

Elements are stored on the power basis 1, zeta, ..., zeta^(phi(N)-1), reduced
modulo the N-th cyclotomic polynomial, with rational coefficients.  No
floating point anywhere: order-of-vanishing extraction downstream depends on
exact zero tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .errors import BudgetExceeded

Rational = Union[int, Fraction]

# Largest N whose cyclotomic polynomial is built.  Building Phi_N takes about
# N^2 steps and one product in Q(zeta_N) up to phi(N)^2, so a certificate
# naming a huge order would otherwise hang its verifier.
MAX_CYCLOTOMIC_ORDER = 256
# Most nonzero terms one truncated product of ZetaPolys may hold.  The
# witness families decide every order with at most 2; a dense series that
# keeps growing is almost surely an identically zero difference, whose
# truncated squarings cost about (terms)^2 * phi(N) each.
MAX_SERIES_TERMS = 32


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of two integer polynomials known to divide exactly (dense, constant first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q, r = divmod(c, den[-1])
        if r:
            raise ArithmeticError("division is not exact")
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    if any(num):
        raise ArithmeticError("division leaves a remainder")
    return out


@lru_cache(maxsize=256)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by dividing t^n - 1 by the cyclotomic polynomials of the proper
    divisors of n; exact integer arithmetic throughout.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > MAX_CYCLOTOMIC_ORDER:
        raise BudgetExceeded(
            f"cyclotomic order {n} requested, at most {MAX_CYCLOTOMIC_ORDER} allowed"
        )
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


def _reduce(order: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    phi_n = list(cyclotomic_poly(order))
    deg = len(phi_n) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            for j, d in enumerate(phi_n):
                coeffs[i - deg + j] -= c * Fraction(d)
    out = coeffs[:deg]
    out += [Fraction(0)] * (deg - len(out))
    return tuple(out)


@dataclass(frozen=True)
class CyclotomicNumber:
    """An element of Q(zeta_order) in reduced power-basis form."""

    order: int
    coeffs: tuple[Fraction, ...]

    @classmethod
    def rational(cls, order: int, value: Rational) -> "CyclotomicNumber":
        return cls(order, _reduce(order, [Fraction(value)]))

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CyclotomicNumber":
        power %= order
        return cls(order, _reduce(order, [Fraction(0)] * power + [Fraction(1)]))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _coerce(self, other) -> "CyclotomicNumber":
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.rational(self.order, other)
        return NotImplemented

    def __add__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        summed = tuple(a + b if b else a for a, b in zip(self.coeffs, o.coeffs))
        return CyclotomicNumber(self.order, summed)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "CyclotomicNumber":
        return -(self - other)

    def __mul__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        nonzero = [(j, b) for j, b in enumerate(o.coeffs) if b]
        raw = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nonzero:
                    raw[i + j] += a * b
        return CyclotomicNumber(self.order, _reduce(self.order, raw))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CyclotomicNumber":
        if k < 0:
            raise ValueError("negative powers not supported")
        out = CyclotomicNumber.rational(self.order, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out


@dataclass(frozen=True)
class ZetaPoly:
    """A polynomial in one variable t with CyclotomicNumber coefficients.

    Sparse representation: (exponent, coefficient) pairs with nonzero
    coefficients, sorted by exponent.
    """

    order: int
    terms: tuple[tuple[int, CyclotomicNumber], ...]

    @classmethod
    def from_terms(cls, order: int, terms) -> "ZetaPoly":
        acc: dict[int, CyclotomicNumber] = {}
        for exp, coeff in terms:
            if not isinstance(coeff, CyclotomicNumber):
                coeff = CyclotomicNumber.rational(order, coeff)
            elif coeff.order != order:
                raise ValueError(f"mixed cyclotomic orders {order} and {coeff.order}")
            if exp < 0:
                raise ValueError("exponents must be nonnegative")
            acc[exp] = acc[exp] + coeff if exp in acc else coeff
        return cls(order, tuple(sorted((e, c) for e, c in acc.items() if c)))

    @classmethod
    def monomial(cls, order: int, exp: int, coeff: Rational | CyclotomicNumber = 1) -> "ZetaPoly":
        return cls.from_terms(order, [(exp, coeff)])

    @classmethod
    def zero(cls, order: int) -> "ZetaPoly":
        return cls(order, ())

    def is_zero(self) -> bool:
        return not self.terms

    def order_of_vanishing(self) -> int | float:
        """Index of the lowest nonzero term; infinity for the zero polynomial."""
        return self.terms[0][0] if self.terms else float("inf")

    def __add__(self, other: "ZetaPoly") -> "ZetaPoly":
        return ZetaPoly.from_terms(self.order, list(self.terms) + list(other.terms))

    def __sub__(self, other: "ZetaPoly") -> "ZetaPoly":
        negated = [(e, -c) for e, c in other.terms]
        return ZetaPoly.from_terms(self.order, list(self.terms) + negated)

    def mul(self, other: "ZetaPoly", below: Optional[int] = None) -> "ZetaPoly":
        """The product; with `below`, only its terms of exponent < below, which
        may number at most MAX_SERIES_TERMS."""
        out: list[tuple[int, CyclotomicNumber]] = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                if below is not None and e1 + e2 >= below:
                    break
                out.append((e1 + e2, c1 * c2))
        product = ZetaPoly.from_terms(self.order, out)
        if below is not None and len(product.terms) > MAX_SERIES_TERMS:
            raise BudgetExceeded(
                f"a truncated series of {len(product.terms)} terms requested, "
                f"at most {MAX_SERIES_TERMS} allowed"
            )
        return product

    __mul__ = mul

    def power(self, k: int, below: Optional[int] = None) -> "ZetaPoly":
        """self**k; with `below`, only its terms of exponent < below."""
        if k < 0:
            raise ValueError("negative powers not supported")
        out = ZetaPoly.monomial(self.order, 0, 1)
        base = self
        while k:
            if k & 1:
                out = out.mul(base, below)
            k >>= 1
            if k:
                base = base.mul(base, below)
        return out

    __pow__ = power
