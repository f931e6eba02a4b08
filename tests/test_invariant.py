"""Upsilon envelopes, truncations, window families, cabling, integrals."""

from fractions import Fraction as F
from math import gcd

import pytest

from upsilon.errors import NotLSpaceError
from upsilon.invariant import (
    CableRegime,
    cable_upsilon,
    classify_cable,
    iterated_cable_integral,
    knot_upsilon,
    staircase_sum,
    tau,
    torus_integral_from_cf,
    torus_upsilon_decomposition,
    truncated_upsilon,
    upsilon_delta,
    upsilon_from_semigroup,
    upsilon_integral,
    upsilon_line,
)
from upsilon.knots import Cable, Pretzel, Torus, Unknot, parse_knot
from upsilon.pl import Line, PLFunction, pl_max, upper_envelope
from upsilon.semigroup import cable_qs, torus_semigroup, unknot_semigroup

T37 = torus_semigroup(3, 7)


def test_upsilon_line_values():
    line = upsilon_line(T37, 0)
    assert (line.slope, line.intercept) == (-6, 0)
    line = upsilon_line(T37, 3)
    assert (line.slope, line.intercept) == (-3, -2)
    line = upsilon_line(T37, 12)
    assert (line.slope, line.intercept) == (6, -12)
    with pytest.raises(ValueError, match="outside"):
        upsilon_line(T37, 13)
    with pytest.raises(ValueError, match="outside"):
        upsilon_line(T37, -1)


def test_oracle_envelopes():
    assert upsilon_from_semigroup(unknot_semigroup()) == PLFunction(((0, 0), (2, 0)))
    assert upsilon_from_semigroup(torus_semigroup(2, 3)) == PLFunction(((0, 0), (1, -1), (2, 0)))
    assert upsilon_from_semigroup(torus_semigroup(3, 4)) == PLFunction(
        ((0, 0), (F(2, 3), -2), (F(4, 3), -2), (2, 0))
    )
    assert upsilon_from_semigroup(torus_semigroup(2, 5)) == PLFunction(((0, 0), (1, -2), (2, 0)))


def test_truncated_upsilon():
    tr = truncated_upsilon(T37)
    assert tr.restrict(0, F(2, 3)) == PLFunction(((0, -2), (F(2, 3), -4)))  # -2 - 3s
    assert tr(F(1, 3)) == tr(F(5, 3))
    assert truncated_upsilon(torus_semigroup(2, 3)) == PLFunction(((0, -2), (2, -2)))
    with pytest.raises(ValueError, match="unknot"):
        truncated_upsilon(unknot_semigroup())


def test_delta_families_for_3_35():
    d1 = upsilon_delta(3, 35, 1)
    d2 = upsilon_delta(3, 35, 2)
    w = (F(2, 3), F(4, 3))
    # window 1 of variant 1 is the line t - 24; of variant 2 the line -22 - t
    assert d1[1] == PLFunction(((w[0], w[0] - 24), (w[1], w[1] - 24)))
    assert d2[1] == PLFunction(((w[0], -22 - w[0]), (w[1], -22 - w[1])))


def test_delta_families_cover_torus_upsilon():
    for p, q in [(3, 35), (2, 3), (5, 47), (4, 13)]:
        d1 = upsilon_delta(p, q, 1)
        d2 = upsilon_delta(p, q, 2)
        ups_t = upsilon_from_semigroup(torus_semigroup(p, q))
        for i in range(p):
            t0, t1 = F(2 * i, p), F(2 * (i + 1), p)
            assert pl_max(d1[i], d2[i]) == ups_t.restrict(t0, t1)


def test_delta_rejects_wrong_regime_and_variant():
    with pytest.raises(ValueError, match="no companion genus"):
        upsilon_delta(3, 7, 1)  # floor(7/3) is even
    with pytest.raises(ValueError, match="variant"):
        upsilon_delta(3, 35, 5)
    with pytest.raises(ValueError, match="coprime"):
        upsilon_delta(3, 36, 1)


def test_reflection_relates_variant_3_to_1():
    d1 = upsilon_delta(3, 35, 1)
    d3 = upsilon_delta(3, 35, 3)
    assert d3[1].reflect() == d1[1]
    for i in range(3):
        assert d3[i] == d1[2 - i].reflect()


def test_classify_cable():
    assert classify_cable(1, 2, 5).regime is CableRegime.PLAIN_SUM
    assert classify_cable(1, 2, 3).regime is CableRegime.WINDOWED
    assert classify_cable(1, 2, 1).regime is CableRegime.REJECTED
    assert classify_cable(6, 1, 7).regime is CableRegime.IDENTITY
    assert classify_cable(6, 3, 35).delta == 2
    assert classify_cable(0, 4, 7).regime is CableRegime.PLAIN_SUM
    with pytest.raises(ValueError, match="coprime"):
        classify_cable(2, 2, 4)


def test_cable_qs_lists_each_regime_in_order():
    for g in range(0, 5):
        for p in range(2, 6):
            for regime in (CableRegime.WINDOWED, CableRegime.PLAIN_SUM):
                want = [q for q in range(1, 61)
                        if gcd(p, q) == 1 and classify_cable(g, p, q).regime is regime]
                assert list(cable_qs(g, p, regime, 60)) == want
            assert next(cable_qs(g, p, CableRegime.PLAIN_SUM)) >= 2 * g * p
    assert list(cable_qs(6, 3, CableRegime.WINDOWED)) == [34, 35]


def test_cable_upsilon_plain_sum_example():
    ups = cable_upsilon(Torus(2, 3), 2, 5, method="both")
    assert ups(F(1, 2)) == -2


def test_cable_upsilon_golden_pieces():
    ups = cable_upsilon(Torus(3, 7), 3, 35, method="both")
    lo, hi = F(2, 3), F(8, 9)
    expected = upper_envelope([Line(-17, -12), Line(-10, -18)], lo, hi)
    assert ups.restrict(lo, hi) == expected
    assert F(6, 7) in [t for t, _ in ups.breakpoints]
    seg = ups.restrict(F(4, 9), F(1, 2))
    assert seg == PLFunction(((F(4, 9), -8 - 25 * F(4, 9)), (F(1, 2), -8 - 25 * F(1, 2))))


def test_cable_upsilon_2_3_cable_is_torus_3_4():
    assert cable_upsilon(Torus(2, 3), 2, 3, method="both") == upsilon_from_semigroup(
        torus_semigroup(3, 4)
    )


def test_cable_upsilon_rejects_non_lspace():
    with pytest.raises(NotLSpaceError, match="no formula"):
        cable_upsilon(Torus(2, 3), 2, 1)
    with pytest.raises(NotLSpaceError):
        cable_upsilon(Cable(Torus(2, 3), 2, 1), 2, 101)


def test_cable_upsilon_identity_cable():
    assert cable_upsilon(Torus(3, 7), 1, 5) == upsilon_from_semigroup(T37)


@pytest.mark.parametrize("core", [Torus(2, 3), Torus(2, 5), Torus(3, 4), Pretzel(3)])
def test_cable_methods_agree_both_regimes(core):
    from upsilon.knots import genus

    g = genus(core)
    qs = []
    for p in (2, 3):
        qs += [(p, q) for q in range((2 * g - 1) * p + 1, 2 * g * p + 6) if gcd(p, q) == 1]
    for p, q in qs:
        assert cable_upsilon(core, p, q, "formula") == cable_upsilon(core, p, q, "oracle")


def test_knot_upsilon_rejects_non_lspace():
    with pytest.raises(NotLSpaceError):
        knot_upsilon(Cable(Torus(2, 3), 3, 2))


def test_tau():
    assert tau(Unknot()) == 0
    assert tau(Torus(3, 7)) == 6
    assert tau(Cable(Torus(2, 3), 2, 5)) == 4


def test_upsilon_integral():
    assert upsilon_integral(Unknot()) == 0
    assert upsilon_integral(Torus(2, 3)) == -1
    assert upsilon_integral(Torus(3, 4)) == F(-8, 3)


def test_torus_integral_from_cf():
    assert torus_integral_from_cf(2, 3) == -1 == upsilon_integral(Torus(2, 3))
    assert torus_integral_from_cf(1, 9) == 0
    assert torus_integral_from_cf(3, 7) == F(-16, 3) == 2 * upsilon_integral(Torus(3, 4))


def test_iterated_cable_integral():
    assert iterated_cable_integral(Cable(Torus(2, 3), 2, 5)) == -3
    assert iterated_cable_integral(Cable(Unknot(), 3, 7)) == upsilon_integral(Torus(3, 7))
    tower = Cable(Cable(Torus(2, 3), 2, 5), 2, 17)
    assert iterated_cable_integral(tower) == -1 - 2 + torus_integral_from_cf(2, 17) == -11
    assert iterated_cable_integral(tower) == knot_upsilon(tower, "oracle").integral()
    with pytest.raises(NotLSpaceError, match="cable\\(torus\\(2,3\\);2,3\\)"):
        iterated_cable_integral(Cable(Torus(2, 3), 2, 3))


def test_iterated_cable_integral_identity_level():
    assert iterated_cable_integral(Cable(Torus(2, 3), 1, 5)) == -1


def test_deep_tower_repr_hash_eq_and_integral():
    expr = "torus(2,3)"
    for _ in range(1500):
        expr = f"cable({expr};1,7)"
    k, k2 = parse_knot(expr), parse_knot(expr)
    assert repr(k).startswith("Cable(companion=" * 1500 + "Torus(p=2, q=3), p=1, q=7)")
    assert k == k2 and hash(k) == hash(k2)
    assert k != Cable(k2.companion, 1, 9)
    assert iterated_cable_integral(k) == -1
    shallow = Cable(Cable(Torus(2, 3), 2, 5), 2, 17)
    assert repr(shallow) == "Cable(companion=Cable(companion=Torus(p=2, q=3), p=2, q=5), p=2, q=17)"


def test_staircase_decomposition():
    assert torus_upsilon_decomposition(3, 7) == [(2, 3), (3, 1)]
    two_t34 = staircase_sum([(2, 3)])
    assert two_t34 == upsilon_from_semigroup(T37)
    assert torus_upsilon_decomposition(2, 3) == [(1, 2), (2, 1)]
    pairs = torus_upsilon_decomposition(4, 5)
    assert pairs[0] == (1, 4)
    assert staircase_sum(pairs) == upsilon_from_semigroup(torus_semigroup(4, 5))
    # the closed-form terms against the envelope oracle
    for d in range(2, 60):
        oracle = knot_upsilon(Torus(d, d + 1), "oracle")
        for a in (1, 2, -3):
            assert staircase_sum([(a, d)]) == oracle.scaled(a)
    assert staircase_sum([(0, 0), (5, 1)]) == PLFunction(((0, 0), (2, 0)))
    with pytest.raises(ValueError):
        staircase_sum([(1, 0)])
    with pytest.raises(TypeError):
        staircase_sum([(1.5, 3)])


def test_parse_and_compute_round_trip():
    k = parse_knot("cable(pretzel(3);2,19)")
    ups = knot_upsilon(k, method="both")
    assert ups(0) == 0 and ups(2) == 0
    assert ups == ups.reflect()
