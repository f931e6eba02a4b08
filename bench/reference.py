"""Independent reference for the benchmark's output checks.

Nothing here imports the package under test.  Semigroups are enumerated
from their definitions into membership bytearrays, and every Upsilon value
is computed with integers only, as the maximum of the 2g+1 lines

    t |-> -2 * #(S ∩ [0, m)) - t * (g - m),      m = 0 .. 2g,

at a rational t = a/b.  The closed forms (genus, the torus integral from the
continued fraction of q/p, the T(n, n+1) pieces) are derived here as well,
so a check against them never goes through the code it is checking.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class Semigroup:
    """A formal semigroup given by its membership below 2g.

    ``member[m]`` is 1 when m is in S, for 0 <= m < 2g; every m >= 2g is a
    member.  ``boundary_m`` and ``boundary_count`` hold m and #(S ∩ [0, m))
    at every m where the membership pattern changes, plus m = 0 and m = 2g:
    between two consecutive boundaries the line value at a fixed t moves by
    a constant step, so its maximum over m is attained at a boundary.
    """

    def __init__(self, genus: int, member: bytearray):
        if len(member) != 2 * genus:
            raise ValueError(f"membership has length {len(member)}, expected {2 * genus}")
        gaps = 2 * genus - sum(member)
        if gaps != genus:
            raise ValueError(f"{gaps} gaps below 2g, expected genus {genus}")
        self.genus = genus
        self.member = member
        ms, counts = [0], [0]
        count = 0
        for m in range(2 * genus):
            count += member[m]
            if m + 1 == 2 * genus or member[m + 1] != member[m]:
                ms.append(m + 1)
                counts.append(count)
        self.boundary_m = ms
        self.boundary_count = counts

    def elements(self) -> list[int]:
        return [m for m in range(2 * self.genus) if self.member[m]]

    def scaled_value(self, a: int, b: int) -> int:
        """b * Upsilon(a/b): the maximum over m of -2b*#(S∩[0,m)) - a(g-m)."""
        g = self.genus
        return max(
            -2 * b * c - a * (g - m) for m, c in zip(self.boundary_m, self.boundary_count)
        )

    def value(self, t: Fraction) -> Fraction:
        return Fraction(self.scaled_value(t.numerator, t.denominator), t.denominator)


def torus(p: int, q: int) -> Semigroup:
    """<p, q>: every a*p + b*q below (p-1)(q-1)."""
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError(f"torus parameters must be positive and coprime, got ({p}, {q})")
    two_g = (p - 1) * (q - 1)
    member = bytearray(two_g)
    for start in range(0, two_g, q):
        member[start::p] = b"\x01" * len(range(start, two_g, p))
    return Semigroup(two_g // 2, member)


def pretzel(n: int) -> Semigroup:
    """{0, 3, 5, ..., 2n+1, 2n+2} and everything from 2n+4 on; genus n+2."""
    if n < 1:
        raise ValueError(f"pretzel index must be >= 1, got {n}")
    member = bytearray(2 * n + 4)
    member[0] = 1
    for m in range(3, 2 * n + 2, 2):
        member[m] = 1
    member[2 * n + 2] = 1
    return Semigroup(n + 2, member)


def cable(s: Semigroup, p: int, q: int) -> Semigroup:
    """p*S + q*N below 2G, with G = p*g + (p-1)(q-1)/2."""
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError(f"cable parameters must be positive and coprime, got ({p}, {q})")
    if p == 1:
        return s
    g = s.genus
    two_big = 2 * (p * g + (p - 1) * (q - 1) // 2)
    member = bytearray(two_big)
    for base in range(0, two_big, q):
        for a in range((two_big - base + p - 1) // p):
            if a >= 2 * g or s.member[a]:
                member[base + p * a] = 1
    return Semigroup(two_big // 2, member)


def unwind(expr):
    """Split an expression into its core and its cabling levels.

    Expressions are tuples: ("torus", p, q), ("pretzel", n) and
    ("cable", companion, p, q).  Returns (core, [(p, q), ...]) with the
    innermost level first; nothing here recurses, so deep nesting is fine.
    """
    levels = []
    while expr[0] == "cable":
        levels.append((expr[2], expr[3]))
        expr = expr[1]
    return expr, levels[::-1]


def genus(expr) -> int:
    """Closed-form genus: (p-1)(q-1)/2, n+2, and p*g + (p-1)(q-1)/2 per level."""
    core, levels = unwind(expr)
    if core[0] == "torus":
        g = (core[1] - 1) * (core[2] - 1) // 2
    else:
        g = core[1] + 2
    for p, q in levels:
        g = p * g + (p - 1) * (q - 1) // 2
    return g


def semigroup(expr) -> Semigroup:
    core, levels = unwind(expr)
    s = torus(core[1], core[2]) if core[0] == "torus" else pretzel(core[1])
    for p, q in levels:
        s = cable(s, p, q)
    return s


def render(expr) -> str:
    """The knot-expression text the command line accepts."""
    core, levels = unwind(expr)
    if core[0] == "torus":
        text = f"torus({core[1]},{core[2]})"
    else:
        text = f"pretzel({core[1]})"
    return "cable(" * len(levels) + text + "".join(f";{p},{q})" for p, q in levels)


def partial_quotients(q: int, p: int) -> list[int]:
    """Euclid on q/p: the coefficients of its continued fraction."""
    out = []
    while p:
        out.append(q // p)
        q, p = p, q % p
    return out


def torus_integral(p: int, q: int) -> Fraction:
    """-(pq - sum of partial quotients of q/p) / 3."""
    return -Fraction(p * q - sum(partial_quotients(q, p)), 3)


def tower_integral(expr) -> Fraction:
    """Integral of Upsilon along a plain-sum tower over a torus core.

    Additivity gives the core's closed form plus one torus term per level
    with p > 1, provided every such level has q >= 2gp for its companion.
    """
    core, levels = unwind(expr)
    if core[0] != "torus":
        raise ValueError(f"tower core must be a torus knot, got {core}")
    total = torus_integral(core[1], core[2])
    g = genus(core)
    for p, q in levels:
        if p > 1:
            if q < 2 * g * p:
                raise ValueError(f"level ({p}, {q}) is not plain-sum for companion genus {g}")
            total += torus_integral(p, q)
        g = p * g + (p - 1) * (q - 1) // 2
    return total


def staircase_breakpoints(n: int) -> list[tuple[Fraction, Fraction]]:
    """Breakpoints of Upsilon of T(n, n+1).

    On [2i/n, 2(i+1)/n] the invariant is -i(i+1) - n(n-1-2i)t/2, so at
    t = 2i/n it is -i(n-i); the slopes strictly increase, so every 2i/n
    is a genuine breakpoint.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    pts = []
    for i in range(n + 1):
        t = Fraction(2 * i, n)
        piece = i if i < n else n - 1
        pts.append((t, -piece * (piece + 1) - Fraction(n * (n - 1 - 2 * piece), 2) * t))
    return pts


def check_breakpoints(s: Semigroup, pts, segments=None) -> str | None:
    """Compare a claimed Upsilon, given by its breakpoints, with the line maximum.

    The maximum of lines is convex, so agreeing at every breakpoint and at
    the midpoint of every pair of consecutive breakpoints proves agreement
    everywhere.  ``segments``, a collection of segment indices, restricts
    the check to those segments (both ends and the midpoint).  Returns None,
    or a description of the first disagreement.
    """
    if len(pts) < 2 or pts[0][0] != 0 or pts[-1][0] != 2:
        return f"domain is not [0, 2]: {pts[:1]} .. {pts[-1:]}"
    for (t0, _), (t1, _) in zip(pts, pts[1:]):
        if t0 >= t1:
            return f"abscissae do not increase: {t0} then {t1}"
    if segments is None:
        segments = range(len(pts) - 1)
    claims = {}
    for k in sorted(segments):
        (t0, v0), (t1, v1) = pts[k], pts[k + 1]
        claims[t0] = v0
        claims[(t0 + t1) / 2] = (v0 + v1) / 2
        claims[t1] = v1
    for t, v in claims.items():
        want = s.value(t)
        if want != v:
            return f"at t = {t}: output {v}, line maximum {want}"
    return None
