"""Exact piecewise-linear functions on subintervals of [0, 2].

Every coordinate is a ``fractions.Fraction``; no float ever enters an
invariant computation.  A function is stored as its breakpoint sequence and
kept canonical (strictly increasing abscissae, no three consecutive collinear
breakpoints), so structural equality coincides with pointwise equality and
is decidable exactly.  Pointwise algebra (sum, maximum, first difference)
reads both operands in one two-pointer walk over their merged breakpoints.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import AssemblyError

_ZERO = Fraction(0)
_TWO = Fraction(2)


def rat(x) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject floats outright."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _collinear(a, b, c) -> bool:
    return (b[1] - a[1]) * (c[0] - b[0]) == (c[1] - b[1]) * (b[0] - a[0])


@dataclass(frozen=True)
class Line:
    """An affine function t |-> slope*t + intercept, with int or Fraction
    coefficients kept as given (ints let the envelope sweep stay integral)."""

    slope: int | Fraction
    intercept: int | Fraction

    def __post_init__(self):
        for x in (self.slope, self.intercept):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"expected an exact rational, got {type(x).__name__}")

    def at(self, t) -> Fraction:
        return self.slope * rat(t) + self.intercept


@dataclass(frozen=True)
class PLFunction:
    """A continuous piecewise-linear function given by its breakpoints.

    ``breakpoints`` is a tuple of (t, value) pairs with strictly increasing
    t, the first and last t spanning the domain, which must lie inside
    [0, 2].  The constructor canonicalizes: runs of collinear breakpoints
    are merged, so ``==`` is exact functional equality.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        pts = [(rat(t), rat(v)) for t, v in self.breakpoints]
        if len(pts) < 2:
            raise ValueError("a PL function needs at least two breakpoints")
        for (t0, _), (t1, _) in zip(pts, pts[1:]):
            if t0 >= t1:
                raise ValueError(f"breakpoint abscissae must strictly increase ({t0} then {t1})")
        if pts[0][0] < 0 or pts[-1][0] > 2:
            raise ValueError(f"domain [{pts[0][0]}, {pts[-1][0]}] is not inside [0, 2]")
        out = [pts[0]]
        for pt in pts[1:]:
            while len(out) >= 2 and _collinear(out[-2], out[-1], pt):
                out.pop()
            out.append(pt)
        object.__setattr__(self, "breakpoints", tuple(out))

    # -- basic queries ----------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return self.breakpoints[0][0]

    @property
    def hi(self) -> Fraction:
        return self.breakpoints[-1][0]

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self.lo, self.hi)

    def __call__(self, t) -> Fraction:
        t = rat(t)
        if not (self.lo <= t <= self.hi):
            raise ValueError(f"t = {t} outside domain [{self.lo}, {self.hi}]")
        ts = [p[0] for p in self.breakpoints]
        k = bisect_right(ts, t) - 1
        if k == len(ts) - 1:
            return self.breakpoints[-1][1]
        (t0, v0), (t1, v1) = self.breakpoints[k], self.breakpoints[k + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def initial_slope(self) -> Fraction:
        """Slope of the first linear piece (one-sided derivative at lo)."""
        (t0, v0), (t1, v1) = self.breakpoints[0], self.breakpoints[1]
        return (v1 - v0) / (t1 - t0)

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple([
            (v1 - v0) / (t1 - t0)
            for (t0, v0), (t1, v1) in zip(self.breakpoints, self.breakpoints[1:])
        ])

    def is_convex(self) -> bool:
        s = self.slopes()
        return all(a <= b for a, b in zip(s, s[1:]))

    # -- algebra -----------------------------------------------------------

    def restrict(self, a, b) -> "PLFunction":
        a, b = rat(a), rat(b)
        if not (self.lo <= a < b <= self.hi):
            raise ValueError(f"[{a}, {b}] is not a subinterval of [{self.lo}, {self.hi}]")
        pts = [(a, self(a))]
        pts += [(t, v) for t, v in self.breakpoints if a < t < b]
        pts.append((b, self(b)))
        return PLFunction(tuple(pts))

    def reflect(self) -> "PLFunction":
        """The substitution t |-> 2 - t; maps domain [a, b] to [2-b, 2-a]."""
        return PLFunction(tuple([(2 - t, v) for t, v in reversed(self.breakpoints)]))

    def integral(self) -> Fraction:
        """Exact integral over the domain (trapezoid sum piece by piece)."""
        total = _ZERO
        for (t0, v0), (t1, v1) in zip(self.breakpoints, self.breakpoints[1:]):
            total += (t1 - t0) * (v0 + v1) / 2
        return total

    def shifted(self, dv) -> "PLFunction":
        dv = rat(dv)
        return PLFunction(tuple([(t, v + dv) for t, v in self.breakpoints]))

    def scaled(self, c) -> "PLFunction":
        c = rat(c)
        if c == 0:
            return PLFunction(((self.lo, _ZERO), (self.hi, _ZERO)))
        return PLFunction(tuple([(t, c * v) for t, v in self.breakpoints]))

    def __add__(self, other):
        if not isinstance(other, PLFunction):
            return NotImplemented
        return pl_add(self, other)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [
                [str(t.numerator), str(t.denominator), str(v.numerator), str(v.denominator)]
                for t, v in self.breakpoints
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "PLFunction":
        data = json.loads(text)
        pts = tuple([
            (Fraction(int(tn), int(td)), Fraction(int(vn), int(vd)))
            for tn, td, vn, vd in data["breakpoints"]
        ])
        return cls(pts)

    def to_csv(self) -> str:
        lines = ["t,value"]
        for t, v in self.breakpoints:
            lines.append(f"{t.numerator}/{t.denominator},{v.numerator}/{v.denominator}")
        return "\n".join(lines) + "\n"

    def __str__(self):
        return " ".join(f"({t},{v})" for t, v in self.breakpoints)


def zero_function(lo=_ZERO, hi=_TWO) -> PLFunction:
    return PLFunction(((rat(lo), _ZERO), (rat(hi), _ZERO)))


def upper_envelope(lines: Iterable[Line], lo=_ZERO, hi=_TWO) -> PLFunction:
    """Pointwise maximum of affine functions over [lo, hi], exactly.

    Sorts by slope (ties keep the larger intercept) and runs one convex-chain
    sweep, so the output is convex and canonical.  Cuts are kept as
    (numerator, denominator > 0) pairs and compared by cross-multiplication,
    so integer lines are swept in integers; Fractions are built only for the
    output breakpoints.
    """
    lo, hi = rat(lo), rat(hi)
    if not (0 <= lo < hi <= 2):
        raise ValueError(f"invalid envelope domain [{lo}, {hi}]")
    best: dict[int | Fraction, Line] = {}
    for L in lines:
        cur = best.get(L.slope)
        if cur is None or L.intercept > cur.intercept:
            best[L.slope] = L
    if not best:
        raise ValueError("no lines")
    hull: list[Line] = []
    # cuts[j] = (num, den): hull[j+1] overtakes hull[j] at num/den
    cuts: list[tuple[int | Fraction, int | Fraction]] = []
    for L in [best[s] for s in sorted(best)]:
        while hull:
            top = hull[-1]
            num, den = top.intercept - L.intercept, L.slope - top.slope
            if cuts and num * cuts[-1][1] <= cuts[-1][0] * den:
                hull.pop()
                cuts.pop()
                continue
            hull.append(L)
            cuts.append((num, den))
            break
        else:
            hull.append(L)
    # hull[j] is active on [cuts[j-1], cuts[j]]; len(cuts) == len(hull) - 1
    k = 0
    while k < len(cuts) and cuts[k][0] * lo.denominator <= lo.numerator * cuts[k][1]:
        k += 1
    pts = [(lo, hull[k].at(lo))]
    while k < len(cuts) and cuts[k][0] * hi.denominator < hi.numerator * cuts[k][1]:
        num, den = cuts[k]
        L = hull[k + 1]
        pts.append((Fraction(num, den), Fraction(L.slope * num + L.intercept * den, den)))
        k += 1
    while k < len(cuts) and cuts[k][0] * hi.denominator <= hi.numerator * cuts[k][1]:
        k += 1
    pts.append((hi, hull[k].at(hi)))
    return PLFunction(tuple(pts))


def _aligned(f: PLFunction, g: PLFunction):
    """(t, f(t), g(t)) at each merged breakpoint abscissa of f and g, and at each
    crossing f = g between two of them, in one two-pointer pass: a breakpoint's
    stored value, else its current segment's, and crossings from those values."""
    if f.domain != g.domain:
        raise ValueError(f"domain mismatch: {f.domain} vs {g.domain}")
    fp, gp = f.breakpoints, g.breakpoints
    i = j = 0
    t0 = f0 = d0 = 0  # d0 = 0: no crossing before the first abscissa
    while i < len(fp):
        (tf, vf), (tg, vg) = fp[i], gp[j]
        if tf < tg:
            tj, vj = gp[j - 1]
            vg = vj + (vg - vj) * (tf - tj) / (tg - tj)
        elif tg < tf:
            ti, vi = fp[i - 1]
            vf = vi + (vf - vi) * (tg - ti) / (tf - ti)
        t, d = min(tf, tg), vf - vg
        if (d0 > 0 > d) or (d0 < 0 < d):
            x = d0 / (d0 - d)  # the crossing's share of [t0, t]
            v = f0 + (vf - f0) * x
            yield t0 + (t - t0) * x, v, v
        yield t, vf, vg
        t0, f0, d0 = t, vf, d
        i, j = i + (tf <= tg), j + (tg <= tf)


def first_difference(f: PLFunction, g: PLFunction) -> Optional[Fraction]:
    """The first abscissa at which f and g differ, or None if f == g: a
    differing endpoint, else a merged breakpoint (canonical forms that
    differ also differ at one of those)."""
    if f.domain != g.domain:
        return f.lo if f.lo != g.lo else f.hi
    return next((t for t, a, b in _aligned(f, g) if a != b), None)


def pl_add(f: PLFunction, g: PLFunction) -> PLFunction:
    """Pointwise sum; breakpoints are merged from both operands (the walk's
    crossings are collinear here, so canonicalisation drops them)."""
    return PLFunction(tuple([(t, a + b) for t, a, b in _aligned(f, g)]))


def pl_max(f: PLFunction, g: PLFunction) -> PLFunction:
    """Pointwise maximum, with crossing points inserted exactly."""
    return PLFunction(tuple([(t, max(a, b)) for t, a, b in _aligned(f, g)]))


def compress_into_window(f: PLFunction, p: int, i: int) -> PLFunction:
    """Reparametrize f(s) as a function of t with s = p*t - 2*i.

    Sends the s-domain [s0, s1] onto [(2i+s0)/p, (2i+s1)/p]; this is one
    window of the p-fold amalgamation.
    """
    if p < 1 or not (0 <= i < p):
        raise ValueError(f"bad window index {i} for p = {p}")
    return PLFunction(tuple([(Fraction(2 * i + s, p), v) for s, v in f.breakpoints]))


def amalgamate(f: PLFunction, p: int) -> PLFunction:
    """p shrunken copies of f laid end to end: g(t) = f(p*t - 2i) on
    [2i/p, 2(i+1)/p].  Well defined only when f(0) = f(2)."""
    if p < 1:
        raise ValueError(f"p must be a positive integer, got {p}")
    if f.domain != (_ZERO, _TWO):
        raise ValueError("amalgamation needs a function on all of [0, 2]")
    if f(_ZERO) != f(_TWO):
        raise ValueError(f"junction mismatch: f(0) = {f(_ZERO)} but f(2) = {f(_TWO)}")
    if p == 1:
        return f
    return concat_pieces([compress_into_window(f, p, i) for i in range(p)])


def concat_pieces(pieces: Sequence[PLFunction]) -> PLFunction:
    """Glue functions on abutting domains into one; any jump is an error."""
    if not pieces:
        raise ValueError("nothing to concatenate")
    pts = list(pieces[0].breakpoints)
    for piece in pieces[1:]:
        t0, v0 = piece.breakpoints[0]
        if t0 != pts[-1][0]:
            raise AssemblyError(f"pieces do not abut: {pts[-1][0]} then {t0}")
        if v0 != pts[-1][1]:
            raise AssemblyError(f"jump at t = {t0}: left value {pts[-1][1]}, right value {v0}")
        pts.extend(piece.breakpoints[1:])
    return PLFunction(tuple(pts))
