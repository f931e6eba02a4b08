"""Exact PL-function algebra: envelopes, max/sum, amalgamation, reflection."""

from fractions import Fraction as F

import pytest

from upsilon.errors import AssemblyError
from upsilon.pl import (
    Line,
    PLFunction,
    amalgamate,
    compress_into_window,
    concat_pieces,
    pl_add,
    pl_max,
    upper_envelope,
    zero_function,
)

TENT = PLFunction(((0, 0), (1, -1), (2, 0)))


def test_envelope_three_lines():
    # the three lines of the genus-1 semigroup {0} u Z>=2
    f = upper_envelope([Line(-1, 0), Line(0, -2), Line(1, -2)])
    assert f == TENT


def test_envelope_single_line_is_identity():
    f = upper_envelope([Line(5, -3)])
    assert f.breakpoints == ((F(0), F(-3)), (F(2), F(7)))


def test_envelope_crossing_inside_subinterval():
    f = upper_envelope([Line(-17, -12), Line(-10, -18)], F(2, 3), F(8, 9))
    ts = [t for t, _ in f.breakpoints]
    assert F(6, 7) in ts
    assert f(F(6, 7)) == -12 - 17 * F(6, 7)


def test_envelope_duplicate_slope_keeps_max_intercept():
    f = upper_envelope([Line(1, -5), Line(1, -2), Line(1, -9)])
    assert f.breakpoints == ((F(0), F(-2)), (F(2), F(0)))


def test_envelope_is_convex():
    lines = [Line(F(m - 6), F(-2 * c)) for m, c in enumerate([0, 1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 6, 6])]
    f = upper_envelope(lines)
    assert f.is_convex()


def test_envelope_rejects_empty_and_bad_domain():
    with pytest.raises(ValueError, match="no lines"):
        upper_envelope([])
    with pytest.raises(ValueError):
        upper_envelope([Line(0, 0)], F(1), F(1))


def test_pl_max_idempotent():
    assert pl_max(TENT, TENT) == TENT


def test_pl_max_crossing_at_6_7():
    lo, hi = F(2, 3), F(8, 9)
    a = PLFunction(((lo, -12 - 17 * lo), (hi, -12 - 17 * hi)))
    b = PLFunction(((lo, -18 - 10 * lo), (hi, -18 - 10 * hi)))
    m = pl_max(a, b)
    assert [t for t, _ in m.breakpoints] == [lo, F(6, 7), hi]


def test_pl_max_dominance():
    assert pl_max(TENT, TENT.shifted(-1)) == TENT


def test_pl_max_domain_mismatch():
    with pytest.raises(ValueError, match="domain mismatch"):
        pl_max(TENT, TENT.restrict(0, 1))


def test_pl_add_zero():
    assert TENT + zero_function() == TENT


def test_pl_add_tent_twice():
    assert pl_add(TENT, TENT)(1) == -2


def test_pl_add_mixed_breakpoints():
    # tent squeezed to half period plus the (2,5) torus envelope, at 1/2
    squeezed = amalgamate(TENT, 2)
    t25 = PLFunction(((0, 0), (1, -2), (2, 0)))
    assert pl_add(squeezed, t25)(F(1, 2)) == -2


def test_amalgamate_identity():
    assert amalgamate(TENT, 1) == TENT


def test_amalgamate_two_copies():
    f = amalgamate(TENT, 2)
    assert f.breakpoints == (
        (F(0), F(0)),
        (F(1, 2), F(-1)),
        (F(1), F(0)),
        (F(3, 2), F(-1)),
        (F(2), F(0)),
    )


def test_amalgamate_three_copies_reparametrizes():
    f = amalgamate(TENT, 3)
    for i in range(3):
        for s in (F(1, 4), F(1, 2), F(7, 5)):
            t = F(2 * i + s, 3)
            assert f(t) == TENT(s)


def test_amalgamate_rejects_bad_input():
    with pytest.raises(ValueError):
        amalgamate(TENT, 0)
    skew = PLFunction(((0, 0), (2, 1)))
    with pytest.raises(ValueError, match="junction"):
        amalgamate(skew, 2)


def test_reflect_fixes_symmetric_tent():
    assert TENT.reflect() == TENT


def test_reflect_is_involution():
    f = PLFunction(((0, 0), (F(1, 3), -2), (2, 5)))
    assert f.reflect().reflect() == f


def test_reflect_maps_subinterval():
    piece = PLFunction(((F(2, 3), F(1)), (F(4, 3), F(3))))
    r = piece.reflect()
    assert r.domain == (F(2, 3), F(4, 3))
    assert r(F(2, 3)) == 3 and r(F(4, 3)) == 1


def test_integral_values():
    assert zero_function().integral() == 0
    assert TENT.integral() == -1
    t34 = PLFunction(((0, 0), (F(2, 3), -2), (F(4, 3), -2), (2, 0)))
    assert t34.integral() == F(-8, 3)


def test_eval_at_breakpoint_and_interior():
    assert TENT(1) == -1
    t25 = PLFunction(((0, 0), (1, -2), (2, 0)))
    assert t25(F(1, 2)) == -1
    with pytest.raises(ValueError, match="outside domain"):
        TENT(F(5, 2))


def test_initial_slope():
    assert zero_function().initial_slope() == 0
    assert TENT.initial_slope() == -1
    t37 = PLFunction(((0, 0), (F(2, 3), -4), (F(4, 3), -4), (2, 0)))
    assert t37.initial_slope() == -6


def test_canonicalization_merges_collinear():
    f = PLFunction(((0, 0), (F(1, 2), F(-1, 2)), (1, -1), (2, 0)))
    assert f == TENT
    assert len(f.breakpoints) == 3


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        PLFunction(((0.0, 0), (2, 0)))
    with pytest.raises(TypeError):
        TENT(0.5)


def test_restrict():
    f = TENT.restrict(F(1, 2), F(3, 2))
    assert f.breakpoints == ((F(1, 2), F(-1, 2)), (F(1), F(-1)), (F(3, 2), F(-1, 2)))
    with pytest.raises(ValueError):
        TENT.restrict(F(1, 2), F(5, 2))


def test_concat_requires_matching_junctions():
    left = TENT.restrict(0, 1)
    right = TENT.restrict(1, 2)
    assert concat_pieces([left, right]) == TENT
    with pytest.raises(AssemblyError, match="jump"):
        concat_pieces([left, right.shifted(1)])
    with pytest.raises(AssemblyError, match="abut"):
        concat_pieces([left, TENT.restrict(F(3, 2), 2)])


def test_compress_into_window():
    g = compress_into_window(TENT, 2, 1)
    assert g.domain == (F(1), F(2))
    assert g(F(3, 2)) == TENT(1)


def test_json_round_trip_and_exact_strings():
    f = PLFunction(((0, 0), (F(6, 7), F(-186, 7)), (2, 0)))
    text = f.to_json()
    assert '"6", "7", "-186", "7"' in text.replace("[", "").replace("]", "") or '["6", "7", "-186", "7"]' in text
    assert PLFunction.from_json(text) == f


def test_csv_format():
    rows = TENT.to_csv().splitlines()
    assert rows[0] == "t,value"
    assert rows[1] == "0/1,0/1"
    assert rows[2] == "1/1,-1/1"


def test_scaled_and_shifted():
    assert TENT.scaled(2)(1) == -2
    assert TENT.scaled(0) == zero_function()
    assert TENT.shifted(3)(1) == 2
