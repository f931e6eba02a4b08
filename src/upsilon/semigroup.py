"""Formal semigroups of L-space knots and their Alexander polynomials.

The formal semigroup of a knot is the exponent set of the power series
expansion of Alexander(t)/(1-t).  It is a cofinite subset of the
non-negative integers with exactly ``genus`` gaps, all below 2*genus, and it
satisfies the complement symmetry m in S <=> 2g-1-m not in S.  Only the
members below 2*genus are stored; the tail is implicit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import gcd
from typing import Iterator, Optional

from .errors import NotLSpaceError


@dataclass(frozen=True)
class FormalSemigroup:
    """A cofinite subset of Z>=0 with the invariants of an L-space knot.

    ``small_elements`` lists the members below 2*genus; every integer
    >= 2*genus is a member implicitly.  Construction validates the gap
    count, the symmetry, and that 1 is a gap (nontrivial knots only), so
    any instance that exists is a plausible knot semigroup.
    """

    genus: int
    small_elements: tuple[int, ...]

    def __post_init__(self):
        g = self.genus
        elems = tuple([int(e) for e in self.small_elements])
        object.__setattr__(self, "small_elements", elems)
        if g < 0:
            raise ValueError("genus must be non-negative")
        if g == 0:
            if elems:
                raise ValueError("a genus-0 semigroup stores no small elements")
            return
        if any(e0 >= e1 for e0, e1 in zip(elems, elems[1:])):
            raise ValueError("small elements must be strictly increasing")
        if elems and (elems[0] < 0 or elems[-1] >= 2 * g):
            raise ValueError(f"small elements must lie in [0, {2 * g})")
        if not elems or elems[0] != 0:
            raise ValueError("0 must be a member")
        members = set(elems)
        if 1 in members:
            raise ValueError("1 must be a gap for a nontrivial knot semigroup")
        if 2 * g - len(elems) != g:
            raise ValueError(
                f"gap count below 2g is {2 * g - len(elems)}, expected genus {g}"
            )
        for m in range(0, 2 * g):
            if (m in members) == ((2 * g - 1 - m) in members):
                raise ValueError(f"symmetry fails at m = {m}: membership of {m} and {2 * g - 1 - m} must differ")

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.small_elements)

    def __contains__(self, m) -> bool:
        m = int(m)
        return m >= 2 * self.genus or m in self._member_set

    def count_below(self, m) -> int:
        """Number of members in [0, m); defined for every integer m."""
        m = int(m)
        if m <= 0:
            return 0
        if m >= 2 * self.genus:
            return m - self.genus
        return bisect_left(self.small_elements, m)

    def gaps(self) -> tuple[int, ...]:
        return tuple([m for m in range(2 * self.genus) if m not in self._member_set])

    def elements_below(self, bound: int) -> Iterator[int]:
        for e in self.small_elements:
            if e >= bound:
                return
            yield e
        yield from range(2 * self.genus, bound)

    def threshold(self) -> Fraction:
        """min over 0 < m < 2g of 2*count_below(m)/m.

        This is the rescaled-parameter value at which the plain cabling sum
        formula starts to hold; undefined for the unknot.
        """
        if self.genus < 1:
            raise ValueError("threshold undefined for the unknot semigroup")
        return min(Fraction(2 * self.count_below(m), m) for m in range(1, 2 * self.genus))

    def __str__(self):
        if self.genus == 0:
            return "Z≥0"
        inner = ",".join(str(e) for e in self.small_elements)
        return f"{{{inner}}} ∪ Z≥{2 * self.genus}"

    def to_json_dict(self) -> dict:
        return {"genus": self.genus, "small_elements": list(self.small_elements)}


def unknot_semigroup() -> FormalSemigroup:
    return FormalSemigroup(0, ())


def torus_semigroup(p: int, q: int) -> FormalSemigroup:
    """The semigroup generated by p and q; genus (p-1)(q-1)/2."""
    if p < 1 or q < 1:
        raise ValueError(f"torus parameters must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"torus parameters must be coprime, got ({p}, {q})")
    two_g = (p - 1) * (q - 1)
    # one residue class mod p per b < p: its members below 2g are b*q + a*p
    small = sorted([m for b in range(p) for m in range(b * q, two_g, p)])
    return FormalSemigroup(two_g // 2, tuple(small))


def pretzel_semigroup(n: int) -> FormalSemigroup:
    """The formal semigroup {0, 3, 5, ..., 2n+1, 2n+2} u Z>=2n+4 of the
    n-th odd pretzel family member; genus n+2.  Not a semigroup under
    addition once n >= 3, which is the point of carrying it separately.
    """
    if n < 1:
        raise ValueError(f"pretzel index must be >= 1, got {n}")
    small = [0] + list(range(3, 2 * n + 2, 2)) + [2 * n + 2]
    return FormalSemigroup(n + 2, tuple(small))


class CableRegime(Enum):
    PLAIN_SUM = "plain-sum"      # q >= 2gp: amalgamation + torus term
    WINDOWED = "windowed"        # (2g-1)p < q < 2gp: three-term window maxima
    IDENTITY = "identity"        # p = 1: the cable is the companion
    REJECTED = "rejected"        # q < (2g-1)p: not an L-space knot


@dataclass(frozen=True)
class CableParams:
    p: int
    q: int
    genus: int          # companion genus
    delta: int          # q - (2g-1)p
    regime: CableRegime


def classify_cable(companion_genus: int, p: int, q: int) -> CableParams:
    """The regime of the (p, q)-cable of a genus-g companion: the one place
    that compares q with (2g-1)p and 2gp."""
    if p < 1 or q < 1:
        raise ValueError(f"cable parameters must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"cable parameters must be coprime, got ({p}, {q})")
    g = companion_genus
    delta = q - (2 * g - 1) * p
    if p == 1:
        regime = CableRegime.IDENTITY
    elif q >= 2 * g * p:
        regime = CableRegime.PLAIN_SUM
    elif delta > 0:
        regime = CableRegime.WINDOWED
    else:
        regime = CableRegime.REJECTED
    return CableParams(p, q, g, delta, regime)


def cable_qs(companion_genus: int, p: int, regime: CableRegime, q_max: Optional[int] = None) -> Iterator[int]:
    """The q >= 1 coprime to p, increasing, that ``classify_cable`` puts in
    ``regime`` for a genus-g companion; unbounded unless ``q_max`` caps it."""
    for q in count(1):
        if q_max is not None and q > q_max:
            return
        if gcd(p, q) != 1:
            continue
        found = classify_cable(companion_genus, p, q).regime
        if found is regime:
            yield q
        elif found in (CableRegime.PLAIN_SUM, CableRegime.IDENTITY):
            return  # the regime of every larger q as well


def cable_semigroup(s: FormalSemigroup, p: int, q: int) -> FormalSemigroup:
    """p*S + q*Z>=0, the semigroup of the (p, q)-cable.

    Valid when gcd(p, q) = 1 and q >= p(2g-1); the constructor re-validates
    every semigroup invariant, so the arithmetic here is self-checking.
    p = 1 is the identity cable and returns s unchanged.
    """
    regime = classify_cable(s.genus, p, q).regime
    if regime is CableRegime.IDENTITY:
        return s
    if regime is CableRegime.REJECTED:
        raise NotLSpaceError(
            f"not an L-space cable: q = {q} < p(2g-1) = {p * (2 * s.genus - 1)}"
        )
    genus = p * s.genus + (p - 1) * (q - 1) // 2
    bound = 2 * genus
    members = set()
    b = 0
    while q * b < bound:
        for a in s.elements_below((bound - q * b + p - 1) // p):
            members.add(p * a + q * b)
        b += 1
    return FormalSemigroup(genus, tuple(sorted(members)))


@dataclass(frozen=True)
class AlexanderPoly:
    """An L-space knot Alexander polynomial, constant term first.

    Coefficients are flat (in {-1, 0, 1}), start and end with 1, are
    palindromic, have even degree, and the nonzero ones alternate in sign.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
        cs = tuple([int(c) for c in self.coefficients])
        object.__setattr__(self, "coefficients", cs)
        if not cs:
            raise ValueError("empty polynomial")
        if len(cs) % 2 == 0:
            raise ValueError("degree must be even")
        if any(abs(c) > 1 for c in cs):
            raise ValueError("polynomial is not flat")
        if cs[0] != 1 or cs[-1] != 1:
            raise ValueError("constant and leading coefficients must be 1")
        if cs != cs[::-1]:
            raise ValueError("polynomial is not palindromic")
        nonzero = [c for c in cs if c != 0]
        if any(a == b for a, b in zip(nonzero, nonzero[1:])):
            raise ValueError("nonzero coefficients must alternate in sign")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            body = "1" if k == 0 else ("t" if k == 1 else f"t^{k}")
            terms.append(f"{sign}{body}")
        return "".join(terms) or "0"


def alexander_from_semigroup(s: FormalSemigroup) -> AlexanderPoly:
    """(1-t) * sum of t^e over small elements, plus t^(2g)."""
    g = s.genus
    if g == 0:
        return AlexanderPoly((1,))
    coeffs = [0] * (2 * g + 1)
    for e in s.small_elements:
        coeffs[e] += 1
        coeffs[e + 1] -= 1
    coeffs[2 * g] += 1
    return AlexanderPoly(tuple(coeffs))


def semigroup_from_alexander(d: AlexanderPoly) -> FormalSemigroup:
    """Invert the expansion: partial sums of the coefficients must form a
    0/1 sequence whose support below the degree is the small-element set."""
    partial = 0
    small = []
    for k, c in enumerate(d.coefficients):
        partial += c
        if partial not in (0, 1):
            raise ValueError("not an L-space Alexander polynomial: expansion coefficient outside {0, 1}")
        if partial == 1 and k < d.degree:
            small.append(k)
    return FormalSemigroup(d.degree // 2, tuple(small))
