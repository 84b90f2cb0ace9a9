"""Numerical semigroups: gcd-1 additive sub-semigroups of the naturals.

A semigroup S is stored by its generators and its Apéry set with respect to
the multiplicity m (the least nonzero member): apery[r] is the least member
congruent to r mod m.  So n is in S iff n >= apery[n % m], the conductor is
max(apery) - m + 1, and memory is linear in m (Rosales & García-Sánchez,
*Numerical Semigroups*, Springer 2009, ch. 1-2).  Generators fill the table
by round-robin, O(m) per generator (Böcker & Lipták, Algorithmica 2007).

Saturating characteristic exponents b0 < b1 < ... < bg, with gcd chain
e0 = b0 > ... > eg = 1, is the staged union E_0 = b0*N plus the betas,
E_j = E_{j-1} union (b_j + e_j*N).  Each stage is an arithmetic progression,
so the Apéry set of the union is apery[0] = 0 and, for r > 0,

    apery[r] = min over j >= 1 with e_j | r of  b_j + ((r - b_j) mod b0).

Before it is returned, the union is checked closed under addition (the Kunz
inequalities apery[i] + apery[j] >= apery[(i + j) % m]) and saturated
(s + d(s) in S for every member s, d(s) the gcd of the nonzero members up
to s); a failure raises NotClosed.

One budget, _BUDGET, bounds every step not linear in m: the round-robin
(generators times m), the m*m pairs of the Kunz and minimal-generator
checks, and every scan up to the conductor.  Going over it raises
BudgetExceeded with the requested and allowed amounts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import add, eq, lt
from typing import Iterable

from .errors import BudgetExceeded, EmptyGenerators, GcdNotOne, NonCoprime, NotClosed

_BUDGET = 10**7


def _charge(what: str, amount: int) -> None:
    if amount > _BUDGET:
        raise BudgetExceeded(f"{what}: {amount} requested, at most {_BUDGET} allowed")


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]
    apery: tuple[int, ...]

    @cached_property
    def conductor(self) -> int:
        """Least c with c + N contained in S."""
        return max(self.apery) - len(self.apery) + 1

    @cached_property
    def small_elements(self) -> tuple[int, ...]:
        """The members strictly below the conductor."""
        return tuple(n for n in _scan(self.conductor) if n in self)

    def __contains__(self, n: int) -> bool:
        return contains(self, n)


@dataclass(frozen=True)
class CharExponents:
    """Strictly increasing exponents with their strictly decreasing gcd chain."""

    betas: tuple[int, ...]
    gcd_chain: tuple[int, ...]


def _clean_generators(gens: Iterable[int]) -> tuple[int, ...]:
    out = sorted(set(int(g) for g in gens))
    if not out:
        raise EmptyGenerators("no generators given")
    if out[0] < 1:
        raise ValueError("generators must be positive naturals")
    return tuple(out)


def _scan(limit: int) -> range:
    _charge("scan up to the conductor", limit)
    return range(limit)


def mk_numerical(gens: Iterable[int]) -> NumericalSemigroup:
    """Build a numerical semigroup from positive generators with gcd 1."""
    gen_t = _clean_generators(gens)
    if math.gcd(*gen_t) != 1:
        raise NonCoprime(f"gcd of generators {gen_t} is {math.gcd(*gen_t)}, not 1")
    m = gen_t[0]
    _charge("Apéry round-robin steps", len(gen_t) * m)
    # Each Apéry element is a sum of fewer than m generators, so this exceeds them all.
    apery = [m * gen_t[-1]] * m
    apery[0] = 0
    for a in gen_t[1:]:
        d = math.gcd(a, m)
        for p in range(d):
            # Adding a walks the residues r = p (mod d) in one cycle; start at its minimum.
            r = min(range(p, m, d), key=apery.__getitem__)
            w = apery[r]
            for _ in range(m // d - 1):
                r = (r + a) % m
                w = apery[r] = min(w + a, apery[r])
    return NumericalSemigroup(gen_t, tuple(apery))


def contains(s: NumericalSemigroup, n: int) -> bool:
    if n < 0:
        return False
    return n >= s.apery[n % len(s.apery)]


def gaps(s: NumericalSemigroup) -> tuple[int, ...]:
    """The finite complement of S in the naturals; empty for S = N."""
    return tuple(n for n in _scan(s.conductor) if n not in s)


def multiplicity_num(s: NumericalSemigroup) -> int:
    """Least nonzero member."""
    return len(s.apery)


def _apery_min_generators(apery: tuple[int, ...]) -> tuple[int, ...]:
    """m, plus each nonzero Apéry element that is not a sum of two nonzero ones.

    Raises NotClosed on the first violated Kunz inequality (see the module docstring).
    """
    m = len(apery)
    doubled = apery + apery
    residues = tuple(range(m)) * 2
    decomposable: set[int] = set()
    for i in range(1, m):
        # pairs (i, j) with i <= j < m; index i + j of the doubled tables is residue (i + j) % m
        sums = list(map(add, repeat(apery[i]), apery[i:]))
        targets = doubled[2 * i : m + i]
        if any(map(lt, sums, targets)):
            j = next(j for j, (x, t) in enumerate(zip(sums, targets), i) if x < t)
            raise NotClosed(f"Apéry set not closed: {apery[i]}+{apery[j]} missing")
        decomposable.update(compress(residues[2 * i : m + i], map(eq, sums, targets)))
    return (m,) + tuple(sorted(apery[r] for r in range(1, m) if r not in decomposable))


def min_generators_num(s: NumericalSemigroup) -> tuple[int, ...]:
    """The unique inclusion-minimal generating set."""
    _charge("Apéry pairs", len(s.apery) ** 2)
    return _apery_min_generators(s.apery)


def char_exponents(m: int, support: Iterable[int]) -> CharExponents:
    """Extract characteristic exponents from a leading exponent and a support set.

    Scanning the support in increasing order, an exponent joins the list when
    the running gcd does not divide it; the gcd chain must reach 1, otherwise
    the underlying parametrization is not reduced.
    """
    if m < 1:
        raise ValueError("leading exponent must be >= 1")
    sup = sorted(set(int(x) for x in support))
    if any(x <= m for x in sup):
        raise ValueError("support exponents must exceed the leading exponent")
    betas = [m]
    chain = [m]
    e = m
    for x in sup:
        if e == 1:
            break
        if x % e:
            betas.append(x)
            e = math.gcd(e, x)
            chain.append(e)
    if e != 1:
        raise GcdNotOne(f"gcd chain stalls at {e}; exponents {betas} with support {sup}")
    return CharExponents(tuple(betas), tuple(chain))


def saturate_chars(exponents: CharExponents) -> NumericalSemigroup:
    """Smallest saturated numerical semigroup containing the given exponents.

    Self-checked as the module docstring says; NotClosed indicates a bug, not
    bad input.
    """
    b0 = exponents.betas[0]
    # the Kunz check is quadratic in b0: refuse before building the table
    _charge("Apéry pairs", b0 * b0)
    stages = list(zip(exponents.betas[1:], exponents.gcd_chain[1:]))
    apery = (0,) + tuple(
        min(b + (r - b) % b0 for b, e in stages if r % e == 0) for r in range(1, b0)
    )
    result = NumericalSemigroup(_apery_min_generators(apery), apery)
    if not is_saturated(result):
        raise NotClosed("staged construction produced a non-saturated semigroup")
    return result


def is_saturated(s: NumericalSemigroup) -> bool:
    """Closure test s + d(s) in S with d(s) = gcd of nonzero members <= s.

    Checked up to conductor + max(generators); past that point d(s) = 1 and
    co-finiteness makes the condition automatic.
    """
    d = 0
    for n in _scan(s.conductor + max(s.generators) + 1):
        if n and n in s:
            d = math.gcd(d, n)
            if n + d not in s:
                return False
    return True
