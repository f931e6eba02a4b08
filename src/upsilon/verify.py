"""Identity verification: exact two-sided checks with witness reporting.

Every check states its identity as claims, pairs of sides computed by
independent paths (a formula against the envelope, a closed form against
exact integration), and ``_report`` makes them a ``VerificationReport``: a
pass, or the first failing claim with a witness abscissa, at which two PL
sides evaluate to different rationals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
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
    truncated_upsilon,
    upsilon_delta,
    upsilon_from_semigroup,
)
from .knots import (
    KnotExpr,
    Torus,
    continued_fraction,
    continued_fraction_of,
    dedekind_sum,
    genus,
    semigroup_of,
    signature_integral_torus,
)
from .pl import (
    PLFunction,
    amalgamate,
    compress_into_window,
    first_difference,
    pl_add,
    pl_max,
)
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
            payload.update(lhs=self.lhs, rhs=self.rhs)
        if self.note:
            payload["note"] = self.note
        return json.dumps(payload)


def _failed(identity, params, witness_t, lhs, rhs, note=None) -> VerificationReport:
    return VerificationReport(identity, tuple(params), "fail", witness_t, str(lhs), str(rhs), note)


def _report(identity, params, claims, note=None) -> VerificationReport:
    """The first failing claim ``(lhs, rhs[, note[, witness_t]])`` as a failed
    report, else a pass.  Claims are consumed in order, so a generator skips
    the work after a failing one.  Two PL sides are reported by their values
    at the first abscissa where they differ, or by their domains, with the
    first differing endpoint as witness, when those differ.  A claim's note
    wins over note.
    """
    for claim in claims:
        lhs, rhs, claim_note, witness_t = (*claim, None, None)[:4]
        if lhs != rhs:
            if isinstance(lhs, PLFunction) and isinstance(rhs, PLFunction):
                witness_t = first_difference(lhs, rhs)
                if lhs.domain != rhs.domain:
                    lhs, rhs = f"[{lhs.lo}, {lhs.hi}]", f"[{rhs.lo}, {rhs.hi}]"
                else:
                    lhs, rhs = lhs(witness_t), rhs(witness_t)
            return _failed(identity, params, witness_t, lhs, rhs, claim_note or note)
    return VerificationReport(identity, tuple(params), "pass", note=note)


def _require_regime(regime: CableRegime, companion_genus: int, core: KnotExpr, p: int, q: int):
    if classify_cable(companion_genus, p, q).regime is not regime:
        raise ValueError(f"({p},{q}) is not in the {regime.value} regime for {core}")


# -- individual identities ---------------------------------------------------

def _formula_vs_oracle(identity, regime: CableRegime, core: KnotExpr, p: int, q: int):
    params = (core, p, q)
    _require_regime(regime, genus(core), core, p, q)
    try:
        lhs = cable_upsilon(core, p, q, method="formula")
    except AssemblyError as exc:
        return _failed(identity, params, None, "assembly", "oracle", note=str(exc))
    return _report(identity, params, [(lhs, cable_upsilon(core, p, q, method="oracle"))])


def check_plain_sum_cable(core: KnotExpr, p: int, q: int) -> VerificationReport:
    """q >= 2gp: amalgamated companion term plus torus term equals the oracle."""
    return _formula_vs_oracle("thm-main", CableRegime.PLAIN_SUM, core, p, q)


def check_sum_region(core: KnotExpr, p: int, q: int) -> VerificationReport:
    """Windowed regime: the plain sum formula holds on the stated s-ranges."""
    s = semigroup_of(core)
    _require_regime(CableRegime.WINDOWED, s.genus, core, p, q)
    mu = s.threshold()
    oracle = cable_upsilon(core, p, q, method="oracle")
    ups_k = upsilon_from_semigroup(s)
    ups_t = knot_upsilon(Torus(p, q))

    def claims():
        for i in range(p):
            # the closed s-range on which the plain sum is asserted in window i
            s0 = 0 if i == 0 else mu
            s1 = 2 if i == p - 1 else 2 - mu
            t0, t1 = Fraction(2 * i + s0, p), Fraction(2 * i + s1, p)
            if s0 == s1:
                yield oracle(t0), ups_k(s0) + ups_t(t0), None, t0
            elif s0 < s1:
                yield oracle.restrict(t0, t1), pl_add(
                    compress_into_window(ups_k.restrict(s0, s1), p, i),
                    ups_t.restrict(t0, t1),
                )

    return _report("thm-s", (core, p, q), claims())


def check_windowed_cable(core: KnotExpr, p: int, q: int) -> VerificationReport:
    """Windowed regime: the full window assembly equals the oracle (the
    assembly itself raises if any junction is discontinuous)."""
    return _formula_vs_oracle("thm-cor", CableRegime.WINDOWED, core, p, q)


def check_sandwich(core: KnotExpr, p: int, q: int) -> VerificationReport:
    """upper (torus term + companion Upsilon) >= cable >= lower (torus term +
    truncated), as max(cable, upper) = upper and max(lower, cable) = cable."""
    s = semigroup_of(core)
    _require_regime(CableRegime.WINDOWED, s.genus, core, p, q)
    cable = cable_upsilon(core, p, q, method="oracle")
    ups_t = knot_upsilon(Torus(p, q))
    upper = pl_add(amalgamate(upsilon_from_semigroup(s), p), ups_t)
    lower = pl_add(amalgamate(truncated_upsilon(s), p), ups_t)
    return _report("sandwich", (core, p, q), [
        (pl_max(cable, upper), upper, "cable exceeds upper"),
        (pl_max(lower, cable), cable, "lower exceeds cable"),
    ])


def check_window_symmetries(
    p: Optional[int] = None, q: Optional[int] = None, core: Optional[KnotExpr] = None
) -> VerificationReport:
    """The three reflection symmetries.

    With a core: its truncated invariant is fixed by t -> 2-t.  With (p, q):
    variant 3 mirrors variant 1 and variant 4 mirrors variant 2, window i
    against window p-1-i; additionally the per-window max of variants 1 and 2
    rebuilds the full torus-knot Upsilon.  Half a (p, q) pair is a ValueError.
    """
    if (p is None) != (q is None) or (core is None and p is None):
        raise ValueError("lemma18 needs a core, (p, q), or both")

    def claims():
        if core is not None:
            tr = truncated_upsilon(semigroup_of(core))
            yield tr, tr.reflect()
        if p is not None:
            d1, d2, d3, d4 = (upsilon_delta(p, q, variant) for variant in (1, 2, 3, 4))
            ups_t = knot_upsilon(Torus(p, q))
            for i in range(p):
                yield d3[i], d1[p - 1 - i].reflect(), "variant3"
                yield d4[i], d2[p - 1 - i].reflect(), "variant4"
                window = ups_t.restrict(Fraction(2 * i, p), Fraction(2 * (i + 1), p))
                yield pl_max(d1[i], d2[i]), window, "window-max cover"

    params = tuple([x for x in (core, p, q) if x is not None])
    return _report("lemma18", params, claims())


def check_torus_integral(p: int, q: int, emit_note: bool = False) -> VerificationReport:
    """Exact integration equals -(pq - sum a_i)/3, and the value is unchanged
    under re-expanding the continued fraction with trailing 1."""
    ups = knot_upsilon(Torus(p, q))

    def claims():
        yield ups.integral(), torus_integral_from_cf(p, q)
        cf = continued_fraction(q, p)
        if cf.coefficients[-1] >= 2 or len(cf.coefficients) == 1:
            alt = continued_fraction_of(cf.coefficients[:-1] + (cf.coefficients[-1] - 1, 1))
            yield alt.value(), Fraction(q, p)
            yield alt.coefficient_sum(), cf.coefficient_sum()
            yield staircase_sum(zip(alt.coefficients, alt.tail_denominators)), ups

    return _report("prop8", (p, q), claims(), NORMALIZATION_NOTE if emit_note else None)


def check_iterated_integral(tower: KnotExpr) -> VerificationReport:
    """Integral additivity along a plain-sum tower, against direct
    integration of both the oracle and the formula assembly."""
    recursive = iterated_cable_integral(tower)
    return _report("thm9", (tower,), [
        (recursive, knot_upsilon(tower, method="oracle").integral(), "oracle"),
        (recursive, knot_upsilon(tower, method="formula").integral(), "formula"),
    ])


def check_staircase(p: int, q: int) -> VerificationReport:
    """Staircase decomposition, the one-step recurrence, and the two
    continued-fraction coefficient identities."""
    cf = continued_fraction(q, p)
    pairs = list(zip(cf.coefficients, cf.tail_denominators))
    ups = knot_upsilon(Torus(p, q))

    def claims():
        yield staircase_sum(pairs), ups
        if q > p:
            step = pl_add(knot_upsilon(Torus(p, q - p)), staircase_sum([(1, p)]))
            yield step, ups, "recurrence"
        yield sum(a * d * (d - 1) for a, d in pairs), (p - 1) * (q - 1), "derivative identity"
        yield sum(a * d for a, d in pairs), q + p - 1, "weighted denominator sum"

    return _report("fk", (p, q), claims())


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
    tor = alexander_from_semigroup(torus_semigroup(p, q))
    prod = _stretch_mul(alexander_from_semigroup(s).coefficients, p, tor.coefficients)
    return _report("wang", params, [
        (lhs.coefficients, tuple(prod), "alexander factorization"),
        (semigroup_from_alexander(lhs), cab, "round trip"),
    ])


def _stretch_mul(a, p: int, b) -> list[int]:
    """Coefficients of a(t^p) * b(t)."""
    out = [0] * ((len(a) - 1) * p + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i * p + j] += x * y
    return out


def check_structure(k: KnotExpr) -> VerificationReport:
    """Structural facts about one knot's Upsilon: convexity, zero endpoints,
    reflection symmetry, tau = genus, and the truncated envelope lying below
    with equality on the middle band."""
    ups = knot_upsilon(k, method="both")

    def claims():
        if not ups.is_convex():
            yield "slopes", "nondecreasing", "convexity"
        yield ups(0), 0, "endpoints", Fraction(0)
        yield ups(2), 0, "endpoints", Fraction(2)
        yield ups, ups.reflect(), "reflection"
        yield -ups.initial_slope(), genus(k), "tau vs genus"
        s = semigroup_of(k)
        if s.genus == 0:
            return
        tr = truncated_upsilon(s)
        yield pl_max(tr, ups), ups, "truncated exceeds full"
        mu = s.threshold()
        if mu < 1:
            yield tr.restrict(mu, 2 - mu), ups.restrict(mu, 2 - mu), "middle-band equality"
        elif mu == 1:
            yield tr(mu), ups(mu), "middle-band equality", mu

    return _report("symmetry", (k,), claims())


def check_dedekind(p: int, q: int) -> VerificationReport:
    """4(s(q,p) + s(p,q) - s(1,pq)) equals the closed-form signature integral."""
    lhs = 4 * (dedekind_sum(q, p) + dedekind_sum(p, q) - dedekind_sum(1, p * q))
    return _report("dedekind", (p, q), [(lhs, signature_integral_torus(p, q))])


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
