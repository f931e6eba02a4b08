"""Property-based checks of the algebraic laws the package relies on."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upsilon.invariant import (
    cable_upsilon,
    classify_cable,
    CableRegime,
    envelope,
    knot_upsilon,
    staircase_sum,
    tau,
    torus_integral_from_cf,
    upsilon_from_semigroup,
)
from upsilon.knots import (
    Cable,
    Pretzel,
    Torus,
    Unknot,
    continued_fraction,
    dedekind_sum,
    genus,
    is_lspace,
    semigroup_of,
    signature_integral_torus,
)
from upsilon.pl import Line, PLFunction, amalgamate, first_difference, pl_add, pl_max, upper_envelope
from upsilon.semigroup import (
    alexander_from_semigroup,
    cable_semigroup,
    pretzel_semigroup,
    semigroup_from_alexander,
    torus_semigroup,
    unknot_semigroup,
)

rationals = st.builds(
    F, st.integers(min_value=-24, max_value=24), st.integers(min_value=1, max_value=12)
)
lines = st.builds(Line, rationals, rationals)


@st.composite
def domain_points(draw, lo=F(0), hi=F(2)):
    num = draw(st.integers(min_value=0, max_value=24))
    den = draw(st.integers(min_value=1, max_value=12))
    return lo + (hi - lo) * F(num, 24 * den) * den  # stays within [lo, hi]


@st.composite
def pl_functions(draw):
    ts = draw(
        st.lists(
            st.builds(F, st.integers(0, 48), st.just(24)),
            min_size=2, max_size=6, unique=True,
        )
    )
    ts = sorted(ts)
    vs = [draw(rationals) for _ in ts]
    return PLFunction(tuple(zip(ts, vs)))


@st.composite
def pl_functions_on_02(draw):
    mids = draw(
        st.lists(st.builds(F, st.integers(1, 47), st.just(24)), min_size=0, max_size=4, unique=True)
    )
    ts = [F(0)] + sorted(mids) + [F(2)]
    vs = [draw(rationals) for _ in ts]
    return PLFunction(tuple(zip(ts, vs)))


@st.composite
def coprime_pairs(draw, pmax=6, qmax=30):
    p = draw(st.integers(2, pmax))
    q = draw(st.integers(1, qmax).filter(lambda q: gcd(p, q) == 1))
    return p, q


_CORES = [Unknot(), Torus(2, 3), Torus(2, 5), Torus(3, 4), Torus(3, 5), Pretzel(1), Pretzel(3), Pretzel(4)]


@st.composite
def lspace_knots(draw, max_cables=1):
    k = draw(st.sampled_from(_CORES))
    for _ in range(draw(st.integers(0, max_cables))):
        g = genus(k)
        p = draw(st.integers(2, 3))
        lo = max(1, (2 * g - 1) * p + 1)
        q = draw(st.integers(lo, lo + 12).filter(lambda q: gcd(p, q) == 1))
        k = Cable(k, p, q)
    return k


@given(st.lists(lines, min_size=1, max_size=12), st.data())
def test_envelope_is_pointwise_max(ls, data):
    env = upper_envelope(ls)
    assert env.is_convex()
    t = data.draw(domain_points())
    assert env(t) == max(line.at(t) for line in ls)


@given(pl_functions(), st.data())
def test_add_and_max_are_pointwise(f, data):
    lo, hi = f.domain
    f_ts = [t for t, _ in f.breakpoints]
    if data.draw(st.booleans()):
        # g on some of f's own abscissae, often touching f there: shared
        # breakpoints, and crossings that fall on a breakpoint
        inner = sorted(data.draw(st.sets(st.sampled_from(f_ts[1:-1])))) if len(f_ts) > 2 else []
        g = PLFunction(tuple(
            (t, data.draw(st.sampled_from([f(t), f(t) + 1, f(t) - 1]) | rationals))
            for t in [lo, *inner, hi]
        ))
    else:
        g_raw = data.draw(pl_functions())
        # remap g affinely onto f's domain so the operation is defined
        g_lo, g_hi = g_raw.domain
        g = PLFunction(
            tuple((lo + (hi - lo) * (t - g_lo) / (g_hi - g_lo), v) for t, v in g_raw.breakpoints)
        )
    # reference: the sorted union of abscissae, evaluated with __call__, and
    # for the max the crossings inside each merged segment
    grid = sorted(set(f_ts) | {t for t, _ in g.breakpoints})
    ref_max = []
    for a, b in zip(grid, grid[1:]):
        ref_max.append((a, max(f(a), g(a))))
        da, db = f(a) - g(a), f(b) - g(b)
        if da * db < 0:
            x = a + (b - a) * da / (da - db)
            ref_max.append((x, f(x)))
    ref_max.append((hi, max(f(hi), g(hi))))
    assert pl_add(f, g) == PLFunction(tuple((t, f(t) + g(t)) for t in grid))
    assert pl_max(f, g) == PLFunction(tuple(ref_max))
    assert first_difference(f, g) == next((t for t in grid if f(t) != g(t)), None)
    t = data.draw(domain_points(lo, hi))
    assert pl_add(f, g)(t) == f(t) + g(t)
    assert pl_max(f, g)(t) == max(f(t), g(t))
    assert pl_add(f, g).integral() == f.integral() + g.integral()


@given(pl_functions())
def test_reflection_is_involution_preserving_integral(f):
    assert f.reflect().reflect() == f
    assert f.reflect().integral() == f.integral()


@given(pl_functions_on_02(), st.integers(1, 4), st.data())
def test_amalgamation_preserves_integral(f, p, data):
    f = PLFunction(f.breakpoints[:-1] + ((F(2), f.breakpoints[0][1]),))  # close the loop
    g = amalgamate(f, p)
    assert g.integral() == f.integral()
    s = data.draw(domain_points())
    i = data.draw(st.integers(0, p - 1))
    assert g(F(2 * i + s, p)) == f(s)


@given(pl_functions())
def test_canonicalization_is_idempotent(f):
    assert PLFunction(f.breakpoints) == f


@given(coprime_pairs())
def test_torus_semigroup_invariants(pq):
    p, q = pq
    s = torus_semigroup(p, q)
    g = s.genus
    assert len(s.gaps()) == g
    if g >= 1:
        assert 1 not in s
        assert 0 < s.threshold() <= 2
    for nu in range(2 * g + 1):
        assert s.count_below(2 * g - nu) == g - nu + s.count_below(nu)
    assert cable_semigroup(unknot_semigroup(), p, q) == s


@given(lspace_knots())
@settings(max_examples=40, deadline=None)
def test_alexander_round_trip_on_knots(k):
    s = semigroup_of(k)
    assert semigroup_from_alexander(alexander_from_semigroup(s)) == s


@given(coprime_pairs(pmax=9, qmax=40))
def test_continued_fraction_laws(pq):
    p, q = pq
    cf = continued_fraction(q, p)
    assert cf.value() == F(q, p)
    pairs = list(zip(cf.coefficients, cf.tail_denominators))
    assert sum(a * d for a, d in pairs) == q + p - 1
    assert sum(a * d * (d - 1) for a, d in pairs) == (p - 1) * (q - 1)
    assert torus_integral_from_cf(p, q) == upsilon_from_semigroup(torus_semigroup(p, q)).integral()


@given(coprime_pairs(pmax=8, qmax=20))
def test_dedekind_matches_closed_form(pq):
    p, q = pq
    lhs = 4 * (dedekind_sum(q, p) + dedekind_sum(p, q) - dedekind_sum(1, p * q))
    assert lhs == signature_integral_torus(p, q)


def _staircase_by_pl_add(pairs):
    """The staircase as one pl_add per term, each term given by its
    breakpoints (2i/d, -a*i*(d-i)), i = 0 .. d."""
    acc = PLFunction(((0, 0), (2, 0)))
    for a, d in pairs:
        if a != 0 and d != 1:
            acc = pl_add(acc, PLFunction(tuple([(F(2 * i, d), -a * i * (d - i)) for i in range(d + 1)])))
    return acc


@st.composite
def staircase_pairs(draw):
    ds = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))  # few d's, so some repeat
    coefficient = st.one_of(st.integers(-6, 6), rationals)
    return draw(st.lists(st.tuples(coefficient, st.sampled_from(ds)), max_size=8))


@given(st.integers(2, 80).flatmap(
    lambda q: st.tuples(st.integers(1, q - 1).filter(lambda p: gcd(p, q) == 1), st.just(q))))
@settings(max_examples=60, deadline=None)
def test_staircase_matches_oracle_on_torus_knots(pq):
    p, q = pq
    cf = continued_fraction(q, p)
    pairs = list(zip(cf.coefficients, cf.tail_denominators))
    assert staircase_sum(pairs) == knot_upsilon(Torus(p, q), "oracle")


@given(staircase_pairs())
@settings(max_examples=60, deadline=None)
def test_staircase_matches_sum_of_terms(pairs):
    assert staircase_sum(pairs) == _staircase_by_pl_add(pairs)


@given(lspace_knots())
@settings(max_examples=30, deadline=None)
def test_upsilon_structure(k):
    assert is_lspace(k)
    ups = knot_upsilon(k, method="oracle")
    assert ups(F(0)) == 0 and ups(F(2)) == 0
    assert ups.is_convex()
    assert ups == ups.reflect()
    assert tau(k) == genus(k) == semigroup_of(k).genus


@given(st.sampled_from(_CORES[1:]), st.integers(2, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_cable_formula_matches_oracle(core, p, data):
    g = genus(core)
    q = data.draw(
        st.integers((2 * g - 1) * p + 1, 2 * g * p + 10).filter(lambda q: gcd(p, q) == 1)
    )
    regime = classify_cable(g, p, q).regime
    assert regime in (CableRegime.PLAIN_SUM, CableRegime.WINDOWED)
    assert cable_upsilon(core, p, q, "formula") == cable_upsilon(core, p, q, "oracle")


@st.composite
def semigroups(draw):
    kind = draw(st.sampled_from(["torus", "pretzel", "cable"]))
    if kind == "torus":
        p, q = draw(coprime_pairs(pmax=13, qmax=59))
        return torus_semigroup(p, q)
    if kind == "pretzel":
        return pretzel_semigroup(draw(st.integers(1, 39)))
    core = draw(st.sampled_from([torus_semigroup(2, 3), torus_semigroup(3, 4),
                                 torus_semigroup(2, 5), pretzel_semigroup(3)]))
    p = draw(st.integers(2, 3))
    lo = (2 * core.genus - 1) * p + 1
    q = draw(st.integers(lo, lo + 2 * p + 6).filter(lambda q: gcd(p, q) == 1))
    return cable_semigroup(core, p, q)


@given(semigroups(), st.data())
@settings(max_examples=60, deadline=None)
def test_envelope_matches_max_of_every_line_in_range(s, data):
    """The run-start envelope against the exact maximum of all the range's
    lines, computed without upper_envelope, at every breakpoint and every
    segment midpoint (enough: both sides are convex and the envelope is
    linear between its breakpoints)."""
    m_lo = data.draw(st.integers(-5, 2 * s.genus + 8))
    m_hi = data.draw(st.integers(m_lo, 2 * s.genus + 8))
    den = data.draw(st.integers(1, 12))
    a = data.draw(st.integers(0, 2 * den - 1))
    b = data.draw(st.integers(a + 1, 2 * den))
    t0, t1 = F(a, den), F(b, den)
    env = envelope(s, m_lo, m_hi, t0, t1)
    assert env.domain == (t0, t1)
    ts = [t for t, _ in env.breakpoints]
    ts += [(u + v) / 2 for u, v in zip(ts, ts[1:])]
    every_line = [Line(m - s.genus, -2 * s.count_below(m)) for m in range(m_lo, m_hi + 1)]
    for t in ts:
        assert env(t) == max(line.at(t) for line in every_line)


def test_line_stays_exact():
    assert isinstance(Line(2, -3).slope, int)
    assert Line(F(1, 2), 0).slope == F(1, 2)
    with pytest.raises(TypeError):
        Line(0.5, 0)
    with pytest.raises(TypeError):
        Line(0, 0.5)
