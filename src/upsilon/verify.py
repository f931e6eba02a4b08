"""Identity verification: exact two-sided checks with witness reporting.

Every check compares a formula path against the independent envelope path
(or a closed form against exact integration) and produces a
``VerificationReport``.  Failures carry a witness abscissa at which the two
sides evaluate to different rationals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .errors import AssemblyError, NotLSpaceError
from .invariant import (
    CableRegime,
    classify_cable,
    cable_upsilon,
    iterated_cable_integral,
    knot_upsilon,
    staircase_sum,
    torus_integral_from_cf,
    torus_upsilon_decomposition,
    truncated_upsilon,
    upsilon_delta,
    upsilon_from_semigroup,
)
from .knots import (
    KnotExpr,
    Unknot,
    continued_fraction,
    continued_fraction_of,
    dedekind_sum,
    genus,
    semigroup_of,
    signature_integral_torus,
)
from .pl import PLFunction, amalgamate, compress_into_window, merged_grid, pl_add, pl_max
from .semigroup import (
    alexander_from_semigroup,
    cable_semigroup,
    semigroup_from_alexander,
    torus_semigroup,
)

NORMALIZATION_NOTE = (
    "normalization pinned by direct integration: the (2,3) torus knot integrates"
    " to -1, so I(T(p,q)) = -(pq - sum(a_i))/3; the variant equating twice the"
    " integral to the same right-hand side overstates it by a factor of two"
)


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    params: tuple
    status: str                      # "pass" | "fail"
    witness_t: Optional[Fraction] = None
    lhs: Optional[str] = None
    rhs: Optional[str] = None
    note: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        payload = {
            "id": self.identity,
            "params": [str(x) for x in self.params],
            "status": self.status,
            "witness_t": None if self.witness_t is None else f"{self.witness_t.numerator}/{self.witness_t.denominator}",
        }
        if self.status == "fail":
            payload["lhs"] = self.lhs
            payload["rhs"] = self.rhs
        if self.note:
            payload["note"] = self.note
        return json.dumps(payload)


def _passed(identity, params, note=None) -> VerificationReport:
    return VerificationReport(identity, tuple(params), "pass", note=note)


def _failed(identity, params, witness_t, lhs, rhs, note=None) -> VerificationReport:
    return VerificationReport(
        identity, tuple(params), "fail", witness_t, str(lhs), str(rhs), note
    )


def _first_difference(f: PLFunction, g: PLFunction):
    """First abscissa (from the merged breakpoint grid) where f and g differ,
    or None if they agree as functions."""
    if f.domain != g.domain:
        return f.lo if f.lo != g.lo else f.hi
    if f == g:
        return None
    for t in merged_grid(f, g):
        if f(t) != g(t):
            return t
    return None  # canonical forms differ only if some merged breakpoint does


def _compare_pl(identity, params, lhs: PLFunction, rhs: PLFunction, note=None):
    if lhs == rhs:
        return _passed(identity, params, note)
    t = _first_difference(lhs, rhs)
    if t is None:
        return _failed(identity, params, lhs.lo, str(lhs), str(rhs), note)
    return _failed(identity, params, t, lhs(t), rhs(t), note)


def _compare_values(identity, params, lhs, rhs, witness_t=None, note=None):
    if lhs == rhs:
        return _passed(identity, params, note)
    return _failed(identity, params, witness_t, lhs, rhs, note)


def _require_regime(regime: CableRegime, companion_genus: int, core: KnotExpr, p: int, q: int):
    if classify_cable(companion_genus, p, q).regime is not regime:
        raise ValueError(f"({p},{q}) is not in the {regime.value} regime for {core}")


# -- individual identities ---------------------------------------------------

def check_plain_sum_cable(core: KnotExpr, p: int, q: int) -> VerificationReport:
    """q >= 2gp: amalgamated companion term plus torus term equals the oracle."""
    params = (core, p, q)
    _require_regime(CableRegime.PLAIN_SUM, genus(core), core, p, q)
    lhs = cable_upsilon(core, p, q, method="formula")
    rhs = cable_upsilon(core, p, q, method="oracle")
    return _compare_pl("thm-main", params, lhs, rhs)


def _sum_regions(mu: Fraction, i: int, p: int):
    # closed s-ranges on which the plain sum formula is asserted per window
    if i == 0:
        yield (Fraction(0), 2 - mu)
    elif i == p - 1:
        yield (mu, Fraction(2))
    else:
        yield (mu, 2 - mu)


def check_sum_region(core: KnotExpr, p: int, q: int) -> VerificationReport:
    """Windowed regime: the plain sum formula holds on the stated s-ranges."""
    params = (core, p, q)
    s = semigroup_of(core)
    _require_regime(CableRegime.WINDOWED, s.genus, core, p, q)
    mu = s.threshold()
    oracle = cable_upsilon(core, p, q, method="oracle")
    ups_k = upsilon_from_semigroup(s)
    ups_t = upsilon_from_semigroup(torus_semigroup(p, q))
    for i in range(p):
        for s0, s1 in _sum_regions(mu, i, p):
            if s0 > s1:
                continue
            t0 = Fraction(2 * i + s0, p)
            t1 = Fraction(2 * i + s1, p)
            if s0 == s1:
                lhs = oracle(t0)
                rhs = ups_k(s0) + ups_t(t0)
                if lhs != rhs:
                    return _failed("thm-s", params, t0, lhs, rhs)
                continue
            lhs_pl = oracle.restrict(t0, t1)
            rhs_pl = pl_add(
                compress_into_window(ups_k.restrict(s0, s1), p, i),
                ups_t.restrict(t0, t1),
            )
            if lhs_pl != rhs_pl:
                t = _first_difference(lhs_pl, rhs_pl)
                return _failed("thm-s", params, t, lhs_pl(t), rhs_pl(t))
    return _passed("thm-s", params)


def check_windowed_cable(core: KnotExpr, p: int, q: int) -> VerificationReport:
    """Windowed regime: the full window assembly equals the oracle (the
    assembly itself raises if any junction is discontinuous)."""
    params = (core, p, q)
    _require_regime(CableRegime.WINDOWED, genus(core), core, p, q)
    try:
        lhs = cable_upsilon(core, p, q, method="formula")
    except AssemblyError as exc:
        return _failed("thm-cor", params, None, "assembly", "oracle", note=str(exc))
    rhs = cable_upsilon(core, p, q, method="oracle")
    return _compare_pl("thm-cor", params, lhs, rhs)


def check_sandwich(core: KnotExpr, p: int, q: int) -> VerificationReport:
    """upper = torus term + companion Upsilon, lower = torus term + truncated:
    upper >= cable >= lower at every breakpoint of all three functions."""
    params = (core, p, q)
    s = semigroup_of(core)
    _require_regime(CableRegime.WINDOWED, s.genus, core, p, q)
    cable = cable_upsilon(core, p, q, method="oracle")
    ups_t = upsilon_from_semigroup(torus_semigroup(p, q))
    upper = pl_add(amalgamate(upsilon_from_semigroup(s), p), ups_t)
    lower = pl_add(amalgamate(truncated_upsilon(s), p), ups_t)
    for t in merged_grid(cable, upper, lower):
        hi, mid, lo = upper(t), cable(t), lower(t)
        if not (hi >= mid >= lo):
            return _failed("sandwich", params, t, f"{hi} >= {mid} >= {lo}", "monotone chain")
    return _passed("sandwich", params)


def check_window_symmetries(
    p: Optional[int] = None, q: Optional[int] = None, core: Optional[KnotExpr] = None
) -> VerificationReport:
    """The three reflection symmetries.

    With a core: its truncated invariant is fixed by t -> 2-t.  With (p, q):
    variant 3 mirrors variant 1 and variant 4 mirrors variant 2, window i
    against window p-1-i; additionally the per-window max of variants 1 and 2
    rebuilds the full torus-knot Upsilon.
    """
    params = tuple(x for x in (core, p, q) if x is not None)
    if core is not None:
        tr = truncated_upsilon(semigroup_of(core))
        if tr != tr.reflect():
            t = _first_difference(tr, tr.reflect())
            return _failed("lemma18", params, t, tr(t), tr.reflect()(t))
    if p is not None and q is not None:
        d1, d2, d3, d4 = (upsilon_delta(p, q, variant) for variant in (1, 2, 3, 4))
        ups_t = upsilon_from_semigroup(torus_semigroup(p, q))
        for i in range(p):
            for name, got, want in (
                ("variant3", d3[i], d1[p - 1 - i].reflect()),
                ("variant4", d4[i], d2[p - 1 - i].reflect()),
            ):
                if got != want:
                    t = _first_difference(got, want)
                    return _failed("lemma18", params, t, got(t), want(t), note=name)
            t0, t1 = Fraction(2 * i, p), Fraction(2 * (i + 1), p)
            cover = pl_max(d1[i], d2[i])
            want = ups_t.restrict(t0, t1)
            if cover != want:
                t = _first_difference(cover, want)
                return _failed("lemma18", params, t, cover(t), want(t), note="window-max cover")
    return _passed("lemma18", params)


def check_torus_integral(p: int, q: int, emit_note: bool = False) -> VerificationReport:
    """Exact integration equals -(pq - sum a_i)/3, and the value is unchanged
    under re-expanding the continued fraction with trailing 1."""
    params = (p, q)
    direct = upsilon_from_semigroup(torus_semigroup(p, q)).integral()
    closed = torus_integral_from_cf(p, q)
    note = NORMALIZATION_NOTE if emit_note else None
    if direct != closed:
        return _failed("prop8", params, None, direct, closed, note)
    cf = continued_fraction(q, p)
    if cf.coefficients[-1] >= 2 or len(cf.coefficients) == 1:
        alt = continued_fraction_of(cf.coefficients[:-1] + (cf.coefficients[-1] - 1, 1))
        if alt.value() != Fraction(q, p):
            return _failed("prop8", params, None, alt.value(), Fraction(q, p), note)
        if alt.coefficient_sum() != cf.coefficient_sum():
            return _failed("prop8", params, None, alt.coefficient_sum(), cf.coefficient_sum(), note)
        lhs = staircase_sum(zip(alt.coefficients, alt.tail_denominators))
        rhs = upsilon_from_semigroup(torus_semigroup(p, q))
        if lhs != rhs:
            t = _first_difference(lhs, rhs)
            return _failed("prop8", params, t, lhs(t), rhs(t), note)
    return _passed("prop8", params, note)


def check_iterated_integral(tower: KnotExpr) -> VerificationReport:
    """Integral additivity along a plain-sum tower, against direct
    integration of both the oracle and the formula assembly."""
    params = (tower,)
    recursive = iterated_cable_integral(tower)
    oracle = knot_upsilon(tower, method="oracle").integral()
    formula = knot_upsilon(tower, method="formula").integral()
    if not (recursive == oracle == formula):
        return _failed("thm9", params, None, recursive, f"direct {oracle}, formula {formula}")
    return _passed("thm9", params)


def check_staircase(p: int, q: int) -> VerificationReport:
    """Staircase decomposition, the one-step recurrence, and the two
    continued-fraction coefficient identities."""
    params = (p, q)
    pairs = torus_upsilon_decomposition(p, q)  # raises if reconstruction fails
    ups = upsilon_from_semigroup(torus_semigroup(p, q))
    rebuilt = staircase_sum(pairs)
    if rebuilt != ups:
        t = _first_difference(rebuilt, ups)
        return _failed("fk", params, t, rebuilt(t), ups(t))
    if q > p >= 1 and gcd(p, q) == 1 and q - p >= 1:
        step = pl_add(
            upsilon_from_semigroup(torus_semigroup(p, q - p)),
            staircase_sum([(1, p)]),
        )
        if step != ups:
            t = _first_difference(step, ups)
            return _failed("fk", params, t, step(t), ups(t), note="recurrence")
    cf = continued_fraction(q, p)
    lhs1 = sum(a * d * (d - 1) for a, d in zip(cf.coefficients, cf.tail_denominators))
    if lhs1 != (p - 1) * (q - 1):
        return _failed("fk", params, None, lhs1, (p - 1) * (q - 1), note="derivative identity")
    lhs2 = sum(a * d for a, d in zip(cf.coefficients, cf.tail_denominators))
    if lhs2 != q + p - 1:
        return _failed("fk", params, None, lhs2, q + p - 1, note="weighted denominator sum")
    return _passed("fk", params)


def check_cable_semigroup(core: KnotExpr, p: int, q: int) -> VerificationReport:
    """The cable-semigroup construction self-validates; additionally the
    cable's Alexander polynomial must factor as companion(t^p) * torus(t)."""
    params = (core, p, q)
    s = semigroup_of(core)
    try:
        cab = cable_semigroup(s, p, q)
    except (ValueError, NotLSpaceError) as exc:
        return _failed("wang", params, None, "construction", "valid semigroup", note=str(exc))
    lhs = alexander_from_semigroup(cab)
    comp = alexander_from_semigroup(s)
    tor = alexander_from_semigroup(torus_semigroup(p, q))
    prod = _poly_mul(_poly_stretch(comp.coefficients, p), tor.coefficients)
    if tuple(prod) != lhs.coefficients:
        return _failed("wang", params, None, lhs, prod, note="alexander factorization")
    if semigroup_from_alexander(lhs) != cab:
        return _failed("wang", params, None, semigroup_from_alexander(lhs), cab, note="round trip")
    return _passed("wang", params)


def _poly_stretch(coeffs, p: int) -> list[int]:
    out = [0] * ((len(coeffs) - 1) * p + 1)
    for k, c in enumerate(coeffs):
        out[k * p] = c
    return out


def _poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def check_structure(k: KnotExpr) -> VerificationReport:
    """Structural facts about one knot's Upsilon: convexity, zero endpoints,
    reflection symmetry, tau = genus, and the truncated envelope lying below
    with equality on the middle band."""
    params = (k,)
    ups = knot_upsilon(k, method="both")
    if not ups.is_convex():
        return _failed("symmetry", params, None, "slopes", "nondecreasing", note="convexity")
    if ups(Fraction(0)) != 0 or ups(Fraction(2)) != 0:
        return _failed("symmetry", params, Fraction(0), ups(Fraction(0)), 0, note="endpoints")
    if ups != ups.reflect():
        t = _first_difference(ups, ups.reflect())
        return _failed("symmetry", params, t, ups(t), ups.reflect()(t), note="reflection")
    g = genus(k)
    tau = -ups.initial_slope()
    if tau != g:
        return _failed("symmetry", params, None, tau, g, note="tau vs genus")
    if not isinstance(k, Unknot):
        s = semigroup_of(k)
        tr = truncated_upsilon(s)
        for t in merged_grid(ups, tr):
            if tr(t) > ups(t):
                return _failed("symmetry", params, t, tr(t), ups(t), note="truncated exceeds full")
        mu = s.threshold()
        if mu < 1 and tr.restrict(mu, 2 - mu) != ups.restrict(mu, 2 - mu):
            t = _first_difference(tr.restrict(mu, 2 - mu), ups.restrict(mu, 2 - mu))
            return _failed("symmetry", params, t, tr(t), ups(t), note="middle-band equality")
        if mu == 1 and tr(mu) != ups(mu):
            return _failed("symmetry", params, mu, tr(mu), ups(mu), note="middle-band equality")
    return _passed("symmetry", params)


def check_dedekind(p: int, q: int) -> VerificationReport:
    """4(s(q,p) + s(p,q) - s(1,pq)) equals the closed-form signature integral."""
    params = (p, q)
    lhs = 4 * (dedekind_sum(q, p) + dedekind_sum(p, q) - dedekind_sum(1, p * q))
    rhs = signature_integral_torus(p, q)
    return _compare_values("dedekind", params, lhs, rhs)


_CHECKERS = {
    "thm-main": check_plain_sum_cable,
    "thm-s": check_sum_region,
    "thm-cor": check_windowed_cable,
    "sandwich": check_sandwich,
    "lemma18": check_window_symmetries,
    "prop8": check_torus_integral,
    "thm9": check_iterated_integral,
    "fk": check_staircase,
    "wang": check_cable_semigroup,
    "symmetry": check_structure,
    "dedekind": check_dedekind,
}


def identity_tags() -> tuple[str, ...]:
    return tuple(_CHECKERS)


def verify_identity(tag: str, *args, **kwargs) -> VerificationReport:
    """Run one identity check; raises ValueError on an unknown tag."""
    try:
        checker = _CHECKERS[tag]
    except KeyError:
        raise ValueError(f"unknown identity tag {tag!r}; known: {', '.join(_CHECKERS)}") from None
    return checker(*args, **kwargs)
