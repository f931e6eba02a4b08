"""Knot descriptions, their parser, and the number-theoretic helpers.

Knot expressions form a small tree language::

    expr := "unknot"
          | "torus(" int "," int ")"
          | "pretzel(" int ")"
          | "cable(" expr ";" int "," int ")"

Whitespace is insignificant; integers are decimal.  The semicolon separates
the companion expression of a cable from its winding parameters, which keeps
nesting unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd
from typing import NamedTuple, Optional, Union

from .errors import KnotSyntaxError
from .pl import rat
from .semigroup import (
    CableRegime,
    FormalSemigroup,
    cable_semigroup,
    classify_cable,
    pretzel_semigroup,
    torus_semigroup,
    unknot_semigroup,
)


@dataclass(frozen=True)
class Unknot:
    def __str__(self):
        return "unknot"


@dataclass(frozen=True)
class Torus:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(f"torus parameters must be >= 1, got ({self.p}, {self.q})")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"torus parameters must be coprime, got ({self.p}, {self.q})")

    def __str__(self):
        return f"torus({self.p},{self.q})"


@dataclass(frozen=True)
class Pretzel:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"pretzel index must be >= 1, got {self.n}")

    def __str__(self):
        return f"pretzel({self.n})"


@dataclass(frozen=True)
class Cable:
    companion: "KnotExpr"
    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(f"cable parameters must be >= 1, got ({self.p}, {self.q})")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"cable parameters must be coprime, got ({self.p}, {self.q})")

    # str, repr, == and hash unwind the tower; the dataclass ones recurse per level
    def __str__(self):
        core, levels = _unwind(self)
        return "cable(" * len(levels) + str(core) + "".join(f";{c.p},{c.q})" for c in levels)

    def __repr__(self):
        core, levels = _unwind(self)
        tail = "".join(f", p={c.p!r}, q={c.q!r})" for c in levels)
        return "Cable(companion=" * len(levels) + repr(core) + tail

    def _key(self):
        core, levels = _unwind(self)
        return core, tuple([(c.p, c.q) for c in levels])

    def __eq__(self, other):
        return isinstance(other, Cable) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


KnotExpr = Union[Unknot, Torus, Pretzel, Cable]


def _unwind(k: KnotExpr) -> tuple[KnotExpr, list[Cable]]:
    """k's innermost non-cable knot and its cable levels, innermost first;
    a loop, not recursion, so tower depth is bounded only by memory."""
    levels = []
    while isinstance(k, Cable):
        levels.append(k)
        k = k.companion
    levels.reverse()
    return k, levels


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise KnotSyntaxError(message, self.text, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            self.error(f"expected '{token}'")
        self.pos += len(token)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.pos = start
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            self.error("expected a knot expression")
        return self.text[start:self.pos]

    def expr(self) -> KnotExpr:
        # a cable nests only through its first argument, so the open
        # "cable(" levels form a stack and are closed innermost first
        opened = []
        while True:
            self.skip_ws()
            at = self.pos
            head = self.word()
            if head != "cable":
                break
            self.expect("(")
            opened.append(at)
        k = self.build(head, at)
        while opened:
            k = self.build("cable", opened.pop(), k)
        return k

    def build(self, head: str, at: int, companion: Optional[KnotExpr] = None) -> KnotExpr:
        # the rest of the constructor starting at ``at``; for a cable, what
        # follows its companion
        try:
            if head == "unknot":
                return Unknot()
            if head == "torus":
                self.expect("(")
                p = self.integer()
                self.expect(",")
                q = self.integer()
                self.expect(")")
                return Torus(p, q)
            if head == "pretzel":
                self.expect("(")
                n = self.integer()
                self.expect(")")
                return Pretzel(n)
            if head == "cable":
                self.expect(";")
                p = self.integer()
                self.expect(",")
                q = self.integer()
                self.expect(")")
                return Cable(companion, p, q)
        except ValueError as exc:  # constructor rejected the parameters
            self.pos = at
            self.error(str(exc))
        self.pos = at
        self.error(f"unknown knot constructor '{head}'")


def parse_knot(text: str) -> KnotExpr:
    parser = _Parser(text)
    k = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input after knot expression")
    return k


def genus(k: KnotExpr) -> int:
    """Seifert genus under the L-space assumption (half the Alexander degree)."""
    core, levels = _unwind(k)
    if isinstance(core, Unknot):
        g = 0
    elif isinstance(core, Torus):
        g = (core.p - 1) * (core.q - 1) // 2
    elif isinstance(core, Pretzel):
        g = core.n + 2
    else:
        raise TypeError(f"not a knot expression: {core!r}")
    for c in levels:
        g = c.p * g + (c.p - 1) * (c.q - 1) // 2
    return g


class LSpaceCheck(NamedTuple):
    ok: bool
    reason: str

    def __bool__(self):
        return self.ok


def is_lspace(k: KnotExpr) -> LSpaceCheck:
    """Whether k is an L-space knot, with the failing level named if not.

    Unknots, positive torus knots and the pretzel family always qualify; a
    cable does iff its companion does and ``classify_cable`` does not reject
    it at that level.  The innermost failing level is the one reported.
    """
    core, levels = _unwind(k)
    g = genus(core)
    for c in levels:
        if classify_cable(g, c.p, c.q).regime is CableRegime.REJECTED:
            return LSpaceCheck(
                False,
                f"{c}: requires q >= (2g-1)p = {(2 * g - 1) * c.p} for companion genus {g}, got q = {c.q}",
            )
        g = c.p * g + (c.p - 1) * (c.q - 1) // 2
    return LSpaceCheck(True, "ok")


def semigroup_of(k: KnotExpr) -> FormalSemigroup:
    core, levels = _unwind(k)
    if isinstance(core, Unknot):
        s = unknot_semigroup()
    elif isinstance(core, Torus):
        s = torus_semigroup(core.p, core.q)
    elif isinstance(core, Pretzel):
        s = pretzel_semigroup(core.n)
    else:
        raise TypeError(f"not a knot expression: {core!r}")
    for c in levels:
        s = cable_semigroup(s, c.p, c.q)
    return s


@dataclass(frozen=True)
class ContinuedFraction:
    """Non-negative continued fraction of q/p with its tail denominators.

    coefficients a_1..a_n satisfy q/p = a_1 + 1/(a_2 + 1/(... + 1/a_n));
    tail_denominators[i] is the denominator of [a_{i+1}, ..., a_n], so they
    obey p_{i-1} = a_i p_i + p_{i+1} with p_{n+1} = 0.
    """

    coefficients: tuple[int, ...]
    tail_denominators: tuple[int, ...]

    def value(self) -> Fraction:
        num, den = 1, 0
        for a in reversed(self.coefficients):
            num, den = a * num + den, num
        return Fraction(num, den)

    def coefficient_sum(self) -> int:
        return sum(self.coefficients)


def continued_fraction_of(coefficients) -> ContinuedFraction:
    """Build a ContinuedFraction from an explicit coefficient list of ints."""
    coeffs = tuple(coefficients)
    for a in coeffs:
        if not isinstance(a, int):
            raise TypeError(f"continued fraction coefficients must be integers, got {type(a).__name__}")
    if not coeffs or any(a < 0 for a in coeffs) or any(a == 0 for a in coeffs[1:]):
        raise ValueError(f"invalid continued fraction coefficients {coeffs}")
    num, den = 1, 0
    tails = []
    for a in reversed(coeffs):
        num, den = a * num + den, num
        tails.append(num)
    # tails currently holds numerators of the suffixes, innermost first;
    # the denominator of suffix i is the numerator of suffix i+1.
    tails.reverse()
    denominators = tuple(tails[1:]) + (1,)
    return ContinuedFraction(coeffs, denominators)


def continued_fraction(q: int, p: int) -> ContinuedFraction:
    """Greedy (floor) non-negative expansion of q/p for coprime q, p."""
    if p < 1 or q < 1:
        raise ValueError(f"arguments must be positive, got ({q}, {p})")
    if gcd(p, q) != 1:
        raise ValueError(f"arguments must be coprime, got ({q}, {p})")
    coeffs = []
    a, b = q, p
    while b:
        coeffs.append(a // b)
        a, b = b, a % b
    cf = continued_fraction_of(coeffs)
    if cf.value() != Fraction(q, p):
        raise AssertionError(f"continued fraction of {q}/{p} failed to reconstruct")
    return cf


def sawtooth(x: Fraction) -> Fraction:
    """((x)): 0 at integers, else x - floor(x) - 1/2; x is an int or Fraction."""
    x = rat(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - floor(x) - Fraction(1, 2)


def dedekind_sum(a: int, b: int) -> Fraction:
    """s(a, b) = sum over k in [1, b) of ((k/b)) ((ka/b)), exactly.

    For coprime a, b and 0 < k < b neither k/b nor ka/b is an integer, so
    ((k/b)) = (2k - b)/2b and ((ka/b)) = (2(ka mod b) - b)/2b: the sum is
    the integer sum of (2k - b)(2(ka mod b) - b), over 4b^2.  The definition
    is summed term by term; reciprocity is not used, so the ``dedekind``
    check stays independent of ``signature_integral_torus``.
    """
    if b < 1:
        raise ValueError(f"modulus must be positive, got {b}")
    if gcd(a, b) != 1:
        raise ValueError(f"arguments must be coprime, got ({a}, {b})")
    total = sum([(2 * k - b) * (2 * (k * a % b) - b) for k in range(1, b)])
    return Fraction(total, 4 * b * b)


def signature_integral_torus(p: int, q: int) -> Fraction:
    """Circle integral of the torus-knot signature function, in closed form:
    -(1/3)(pq - p/q - q/p + 1/(pq))."""
    if p < 1 or q < 1:
        raise ValueError(f"arguments must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"arguments must be coprime, got ({p}, {q})")
    pq = Fraction(p * q)
    return -(pq - Fraction(p, q) - Fraction(q, p) + 1 / pq) / 3
