"""Upsilon computations for L-space knots.

For an L-space knot with formal semigroup S and genus g, Upsilon on [0, 2]
is the upper envelope of the 2g+1 lines

    t |-> -2 * #(S intersect [0, m)) - t(g - m),     m = 0 .. 2g.

That envelope, applied to the cable semigroup produced by the p*S + q*Z>=0
construction, is the oracle path used to verify every cabling formula here.
Every envelope here is ``envelope`` over an inclusive range of line indices.
It sweeps only the lines that can reach the hull (the range ends, the starts
of runs of S and 2g), in integers; the result equals the envelope of every
line in the range.  Every torus knot's Upsilon is ``knot_upsilon(Torus(p, q))``.

The formula paths, selected by ``classify_cable`` (defined in ``semigroup``):

* q >= 2gp: Upsilon of the cable is the p-fold amalgamation of the
  companion's Upsilon plus the torus knot's Upsilon.
* (2g-1)p < q < 2gp: per window [2i/p, 2(i+1)/p] with s = pt - 2i, the
  cable's Upsilon is the maximum of three window terms (see
  ``_windowed_formula``), obtained from the ladder decomposition of the
  cable semigroup.  Restricted to the ranges where the classical two-term
  maxima apply, it reduces to them.
* q < (2g-1)p: not an L-space knot; rejected.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd

from .errors import AssemblyError, NotLSpaceError
from .knots import (
    Cable,
    KnotExpr,
    Torus,
    _unwind,
    continued_fraction,
    genus,
    is_lspace,
    semigroup_of,
)
from .pl import (
    Line,
    PLFunction,
    amalgamate,
    compress_into_window,
    concat_pieces,
    first_difference,
    pl_add,
    pl_max,
    upper_envelope,
)
from .semigroup import (
    CableParams,
    CableRegime,
    FormalSemigroup,
    cable_semigroup,
    classify_cable,
    torus_semigroup,
)


def upsilon_line(s: FormalSemigroup, m: int) -> Line:
    """The line indexed by m in [0, 2g]: slope m - g, intercept -2*count_below(m)."""
    m = int(m)
    if not (0 <= m <= 2 * s.genus):
        raise ValueError(f"index m = {m} outside [0, {2 * s.genus}]")
    return Line(m - s.genus, -2 * s.count_below(m))


def envelope(s: FormalSemigroup, m_lo: int, m_hi: int, t0=0, t1=2) -> PLFunction:
    """Upper envelope on [t0, t1] of the lines indexed m_lo .. m_hi inclusive.

    Indices outside [0, 2g] are allowed: count_below is affine there, so
    every integer index yields a meaningful line.  On [0, 2] line m lies
    weakly below line m+1 when m is not in S, and below line m-1 when m-1
    is in S, so only the range ends, the starts of runs of S and 2g are
    swept; the envelope is that of the whole range.
    """
    g, small = s.genus, s.small_elements
    lines = [Line(m - g, -2 * s.count_below(m)) for m in {m_lo, 2 * g, m_hi} if m_lo <= m <= m_hi]
    # a member's count_below is its index in small_elements
    lines += [
        Line(small[i] - g, -2 * i)
        for i in range(bisect_right(small, m_lo), bisect_left(small, m_hi))
        if i == 0 or small[i - 1] != small[i] - 1
    ]
    return upper_envelope(lines, t0, t1)


def upsilon_from_semigroup(s: FormalSemigroup) -> PLFunction:
    """Upsilon as the upper envelope of all 2g+1 semigroup lines (the oracle).

    Only the run-start lines and line 2g are swept; the others lie below them
    on [0, 2], so the envelope equals that of all 2g+1 lines.
    """
    return envelope(s, 0, 2 * s.genus)


def truncated_upsilon(s: FormalSemigroup) -> PLFunction:
    """Envelope over m = 1 .. 2g-1 only; lies below Upsilon, equal on the
    middle band [threshold, 2 - threshold]."""
    if s.genus < 1:
        raise ValueError("truncated invariant undefined for the unknot semigroup")
    return envelope(s, 1, 2 * s.genus - 1)


def upsilon_delta(p: int, q: int, variant: int) -> tuple[PLFunction, ...]:
    """The four window-restricted torus line families, as p pieces; piece i
    lives on the window [2i/p, 2(i+1)/p].  With delta = q mod p, on window
    i the families cover the index ranges

        1: (iq - delta, iq]        2: (iq - p, iq - delta]
        3: (iq - p, iq - p + delta]        4: (iq - p + delta, iq]

    Per window, max of variants 1 and 2 recovers Upsilon of the torus knot,
    and variants 3/4 are the reflections of 1/2.  Adjacent pieces may
    disagree at their shared boundary.
    """
    if variant not in (1, 2, 3, 4):
        raise ValueError(f"variant must be 1, 2, 3 or 4, got {variant}")
    if p < 2 or q < 1:
        raise ValueError(f"need p >= 2 and q >= 1, got ({p}, {q})")
    # (p, q) is windowed for at most one companion genus: (2g-1) = q // p
    params = classify_cable((q // p + 1) // 2, p, q)
    if params.regime is not CableRegime.WINDOWED:
        raise ValueError(
            f"({p}, {q}) admits no companion genus with (2g-1)p < q < 2gp"
        )
    delta = params.delta
    lo, hi = {1: (-delta, 0), 2: (-p, -delta), 3: (-p, delta - p), 4: (delta - p, 0)}[variant]
    st = torus_semigroup(p, q)
    return tuple([
        envelope(st, i * q + lo + 1, i * q + hi, Fraction(2 * i, p), Fraction(2 * (i + 1), p))
        for i in range(p)
    ])


def _windowed_formula(s: FormalSemigroup, params: CableParams) -> PLFunction:
    """Window assembly for (2g-1)p < q < 2gp.

    On window i with s = pt - 2i the cable's Upsilon is

        max( head(s)      + F1_i(t),
             truncated(s) + F2_i(t),
             g*(2 - s)    + F1_{i+1}(t) )

    where head drops the companion's top line, F1_j / F2_j are the envelopes
    of the torus lines indexed by (jq - delta, jq] / (jq - p, jq - delta],
    and the third term accounts for the tail block of the window, where the
    companion's top line pairs with the line family of the next window.
    Each term is the exact minimum of one block of the ladder decomposition
    of the cable semigroup, and the blocks tile the window, so the maximum
    is exact everywhere; no case split on s is needed.
    """
    g, p, q, delta = s.genus, params.p, params.q, params.delta
    st = torus_semigroup(p, q)
    # head: the companion's lines without the top one (m = 2g), which pairs
    # with the next window's line family instead
    head = envelope(s, 0, 2 * g - 1)
    trunc = truncated_upsilon(s)
    windows = []
    for i in range(p):
        t0, t1 = Fraction(2 * i, p), Fraction(2 * (i + 1), p)
        f1_here = envelope(st, i * q - delta + 1, i * q, t0, t1)
        f2_here = envelope(st, i * q - p + 1, i * q - delta, t0, t1)
        f1_next = envelope(st, (i + 1) * q - delta + 1, (i + 1) * q, t0, t1)
        a = pl_add(compress_into_window(head, p, i), f1_here)
        b = pl_add(compress_into_window(trunc, p, i), f2_here)
        # the stub block contributes (2 - s)g on top of the next family,
        # which is how the companion's top line re-enters the assembly
        top = PLFunction(((t0, Fraction(2 * g)), (t1, Fraction(0))))
        c = pl_add(top, f1_next)
        windows.append(pl_max(pl_max(a, b), c))
    return concat_pieces(windows)


def cable_upsilon(companion: KnotExpr, p: int, q: int, method: str = "both") -> PLFunction:
    """Upsilon of the (p, q)-cable of an L-space knot.

    method 'oracle' builds the cable semigroup and takes its envelope;
    'formula' assembles the regime formula; 'both' (default) computes the
    two independently and insists they agree.
    """
    if method not in ("oracle", "formula", "both"):
        raise ValueError(f"unknown method {method!r}")
    check = is_lspace(companion)
    if not check:
        raise NotLSpaceError(check.reason)
    s = semigroup_of(companion)
    params = classify_cable(s.genus, p, q)
    if params.regime is CableRegime.REJECTED:
        raise NotLSpaceError(
            f"cable({companion};{p},{q}): q = {q} < (2g-1)p = {(2 * s.genus - 1) * p};"
            " not an L-space knot, and no formula is available"
        )
    if params.regime is CableRegime.IDENTITY:
        return upsilon_from_semigroup(s)
    oracle = formula = None
    if method in ("oracle", "both"):
        oracle = upsilon_from_semigroup(cable_semigroup(s, p, q))
    if method in ("formula", "both"):
        if params.regime is CableRegime.PLAIN_SUM:
            formula = pl_add(amalgamate(upsilon_from_semigroup(s), p), knot_upsilon(Torus(p, q)))
        else:
            formula = _windowed_formula(s, params)
    if oracle is not None and formula is not None and oracle != formula:
        t = first_difference(formula, oracle)
        raise AssemblyError(
            f"formula and envelope paths disagree for cable({companion};{p},{q})"
            f" at t = {t}: formula {formula(t)}, envelope {oracle(t)}"
        )
    return oracle if oracle is not None else formula


def knot_upsilon(k: KnotExpr, method: str = "both") -> PLFunction:
    """Upsilon of any L-space knot expression."""
    if isinstance(k, Cable):
        return cable_upsilon(k.companion, k.p, k.q, method)
    return upsilon_from_semigroup(semigroup_of(k))


def tau(k: KnotExpr, method: str = "oracle") -> int:
    """The concordance invariant -Upsilon'(0); equals the genus here."""
    slope = knot_upsilon(k, method).initial_slope()
    if slope.denominator != 1:
        raise AssemblyError(f"initial slope {slope} is not an integer")
    return -slope.numerator


def upsilon_integral(k: KnotExpr, method: str = "oracle") -> Fraction:
    """Exact integral of Upsilon over [0, 2]."""
    return knot_upsilon(k, method).integral()


def torus_integral_from_cf(p: int, q: int) -> Fraction:
    """Closed form -(1/3)(pq - sum of continued-fraction coefficients of q/p).

    Matches direct integration of the envelope; the often-quoted variant
    equating twice the integral to the same right-hand side is off by a
    factor of two (sanity anchor: the (2,3) torus knot integrates to -1).
    """
    if p < 1 or q < 1:
        raise ValueError(f"arguments must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"arguments must be coprime, got ({p}, {q})")
    cf = continued_fraction(q, p)
    return -Fraction(p * q - cf.coefficient_sum(), 3)


def iterated_cable_integral(k: KnotExpr) -> Fraction:
    """Integral of an iterated cable via additivity.

    Each genuine cabling level must satisfy q >= 2gp for its companion
    (the plain-sum regime); then the integral is the core's plus one torus
    term per level.  The innermost failing level is the one reported.
    """
    core, levels = _unwind(k)
    g = genus(core)
    total = upsilon_integral(core)
    for c in levels:
        regime = classify_cable(g, c.p, c.q).regime
        if regime is CableRegime.PLAIN_SUM:
            total += upsilon_integral(Torus(c.p, c.q))
        elif regime is not CableRegime.IDENTITY:
            raise NotLSpaceError(
                f"additivity needs q >= 2gp at every level; {c} has q = {c.q} < {2 * g * c.p}"
            )
        g = c.p * g + (c.p - 1) * (c.q - 1) // 2
    return total


def torus_upsilon_decomposition(p: int, q: int) -> list[tuple[int, int]]:
    """Write Upsilon of the (p, q) torus knot as a staircase combination:
    sum over i of a_i * Upsilon(T(p_i, p_i + 1)), with (a_i, p_i) returned.

    The reconstruction is verified exactly before returning.
    """
    cf = continued_fraction(q, p)
    pairs = list(zip(cf.coefficients, cf.tail_denominators))
    if staircase_sum(pairs) != knot_upsilon(Torus(p, q)):
        raise AssemblyError(f"staircase decomposition failed to reconstruct T({p},{q})")
    return pairs


def staircase_sum(pairs) -> PLFunction:
    """sum of a * Upsilon(T(d, d+1)) over (a, d) pairs, as one PL function.

    Each term is the Ozsvath-Stipsicz-Szabo closed form: initial slope
    -a*d(d-1)/2, rising by a*d at each 2i/d, 0 < i < d.  The jumps of every
    term are added per abscissa, sorted once and integrated once from
    (0, 0), emitting only abscissae with a nonzero net jump; no semigroup,
    envelope or PL sum is built.  a is an int or Fraction.
    """
    slope = 0
    jumps = {}
    for a, d in pairs:
        if a == 0 or d == 1:
            continue
        if d < 1:
            raise ValueError(f"staircase index must be >= 1, got {d}")
        if not isinstance(a, (int, Fraction)):
            raise TypeError(f"expected an exact rational, got {type(a).__name__}")
        slope -= a * (d * (d - 1) // 2)
        jump = a * d
        for i in range(1, d):
            t = Fraction(2 * i, d)
            jumps[t] = jumps.get(t, 0) + jump
    pts = [(0, 0)]
    t0 = v = 0
    for t, jump in sorted(jumps.items()):
        if jump:
            v += slope * (t - t0)
            pts.append((t, v))
            slope += jump
            t0 = t
    pts.append((2, v + slope * (2 - t0)))
    return PLFunction(tuple(pts))
