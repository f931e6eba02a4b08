"""Knot expressions, the parser, L-space checks, and number theory helpers."""

from fractions import Fraction as F
from math import gcd

import pytest

from upsilon.errors import KnotSyntaxError, NotLSpaceError
from upsilon.knots import (
    Cable,
    Pretzel,
    Torus,
    Unknot,
    continued_fraction,
    continued_fraction_of,
    dedekind_sum,
    genus,
    is_lspace,
    parse_knot,
    sawtooth,
    semigroup_of,
    signature_integral_torus,
)
from upsilon.semigroup import torus_semigroup, unknot_semigroup


def test_parse_basic():
    assert parse_knot("unknot") == Unknot()
    assert parse_knot("torus(3,7)") == Torus(3, 7)
    assert parse_knot("pretzel(3)") == Pretzel(3)
    assert parse_knot("cable(torus(3,7); 3, 35)") == Cable(Torus(3, 7), 3, 35)


def test_parse_nested_cable():
    k = parse_knot("cable(cable(torus(2,3);2,5); 2, 19)")
    assert k == Cable(Cable(Torus(2, 3), 2, 5), 2, 19)


def test_parse_is_whitespace_insensitive():
    assert parse_knot("  cable( torus( 3 , 7 ) ;3,35 )  ") == Cable(Torus(3, 7), 3, 35)


def test_parse_round_trips_through_str():
    for text in ("unknot", "torus(3,7)", "pretzel(2)", "cable(cable(torus(2,3);2,5);2,19)"):
        assert str(parse_knot(text)) == text
        assert parse_knot(str(parse_knot(text))) == parse_knot(text)


def test_parse_errors_carry_position():
    with pytest.raises(KnotSyntaxError) as exc:
        parse_knot("torus(2,)")
    assert exc.value.offset == 8
    assert exc.value.line == 1 and exc.value.column == 9
    with pytest.raises(KnotSyntaxError, match="expected ';'"):
        parse_knot("cable(unknot, 2, 3)")
    with pytest.raises(KnotSyntaxError, match="coprime"):
        parse_knot("torus(2,4)")
    with pytest.raises(KnotSyntaxError, match="unknown knot constructor"):
        parse_knot("granny(1)")
    with pytest.raises(KnotSyntaxError, match="trailing"):
        parse_knot("unknot unknot")
    with pytest.raises(KnotSyntaxError, match=">= 1"):
        parse_knot("torus(-2,3)")


def test_genus():
    assert genus(Unknot()) == 0
    assert genus(Torus(3, 35)) == 34
    assert genus(Cable(Torus(3, 7), 3, 35)) == 3 * 6 + 34
    assert genus(Pretzel(3)) == 5
    assert genus(Torus(1, 9)) == 0


def test_is_lspace():
    assert is_lspace(Torus(2, 3))
    assert is_lspace(Cable(Torus(3, 7), 3, 35))
    check = is_lspace(Cable(Torus(2, 3), 2, 1))
    assert not check
    assert "q >= (2g-1)p = 2" in check.reason
    # the failing level is named even when buried
    deep = Cable(Cable(Torus(2, 3), 2, 1), 2, 101)
    assert "cable(torus(2,3);2,1)" in is_lspace(deep).reason
    assert is_lspace(Cable(Torus(3, 7), 1, 1))  # identity cable carries no condition


def test_semigroup_of_dispatch():
    assert semigroup_of(Torus(3, 7)) == torus_semigroup(3, 7)
    assert semigroup_of(Cable(Torus(2, 3), 2, 3)) == torus_semigroup(3, 4)
    assert semigroup_of(Unknot()) == unknot_semigroup()
    with pytest.raises(NotLSpaceError):
        semigroup_of(Cable(Torus(2, 3), 2, 1))


def test_continued_fraction_35_3():
    cf = continued_fraction(35, 3)
    assert cf.coefficients == (11, 1, 2)
    assert cf.value() == F(35, 3)


def test_continued_fraction_integer():
    cf = continued_fraction(9, 1)
    assert cf.coefficients == (9,)
    assert cf.tail_denominators == (1,)


def test_continued_fraction_7_3():
    cf = continued_fraction(7, 3)
    assert cf.coefficients == (2, 3)
    assert cf.tail_denominators == (3, 1)


def test_continued_fraction_rejects_non_coprime():
    with pytest.raises(ValueError, match="coprime"):
        continued_fraction(6, 3)


@pytest.mark.parametrize("q,p", [(3, 2), (35, 3), (7, 5), (30, 7), (2, 7)])
def test_continued_fraction_identities(q, p):
    cf = continued_fraction(q, p)
    assert cf.value() == F(q, p)
    pairs = list(zip(cf.coefficients, cf.tail_denominators))
    assert sum(a * d for a, d in pairs) == q + p - 1
    assert sum(a * d * (d - 1) for a, d in pairs) == (p - 1) * (q - 1)
    # tail denominators satisfy p_{i-1} = a_i p_i + p_{i+1}
    dens = (q,) + cf.tail_denominators + (0,)
    for i, a in enumerate(cf.coefficients, start=1):
        assert dens[i - 1] == a * dens[i] + dens[i + 1]


def test_continued_fraction_of_rejects_garbage():
    with pytest.raises(ValueError):
        continued_fraction_of(())
    with pytest.raises(ValueError):
        continued_fraction_of((2, 0, 2))
    with pytest.raises(TypeError):
        continued_fraction_of([2.7, 1.2])  # no truncation to (2, 1)


def test_sawtooth():
    assert sawtooth(F(3)) == 0
    assert sawtooth(F(1, 4)) == -F(1, 4)
    assert sawtooth(F(7, 4)) == F(1, 4)
    assert sawtooth(-3) == 0
    with pytest.raises(TypeError):
        sawtooth(0.1)


def test_dedekind_values():
    assert dedekind_sum(1, 2) == 0
    assert dedekind_sum(1, 3) == F(1, 18)
    assert 4 * (dedekind_sum(3, 2) + dedekind_sum(2, 3) - dedekind_sum(1, 6)) == F(-4, 3)
    with pytest.raises(ValueError, match="coprime"):
        dedekind_sum(2, 4)


def test_dedekind_sum_is_the_definition():
    for b in range(1, 61):
        left = [sawtooth(F(k, b)) for k in range(1, b)]
        for a in range(-b, 2 * b):
            if gcd(a, b) == 1:
                expected = sum(x * sawtooth(F(k * a, b)) for k, x in enumerate(left, 1))
                assert dedekind_sum(a, b) == expected, (a, b)


def test_signature_integral():
    assert signature_integral_torus(2, 3) == F(-4, 3)
    assert signature_integral_torus(1, 9) == 0
    assert signature_integral_torus(3, 7) == -(F(21) - F(3, 7) - F(7, 3) + F(1, 21)) / 3


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (3, 7), (4, 9), (5, 8)])
def test_signature_integral_matches_dedekind_form(p, q):
    lhs = 4 * (dedekind_sum(q, p) + dedekind_sum(p, q) - dedekind_sum(1, p * q))
    assert lhs == signature_integral_torus(p, q)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Torus(2, 4)
    with pytest.raises(ValueError):
        Cable(Unknot(), 2, 4)
    with pytest.raises(ValueError):
        Pretzel(0)
