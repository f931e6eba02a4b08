"""Tests of the benchmark's independent reference.

Run with ``python3 -m pytest bench/test_reference.py`` from the repository
root; they import nothing from the package under test.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402

T23 = ("torus", 2, 3)


def test_trefoil_is_a_tent_with_apex_at_one():
    s = ref.torus(2, 3)
    assert s.genus == 1 and s.elements() == [0]
    assert [s.value(Fraction(k, 2)) for k in range(5)] == [0, Fraction(-1, 2), -1, Fraction(-1, 2), 0]
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(-1)), (Fraction(2), Fraction(0))]
    assert ref.staircase_breakpoints(2) == pts
    assert ref.check_breakpoints(s, pts) is None
    assert ref.check_breakpoints(s, [(Fraction(0), 0), (Fraction(2), 0)]) is not None
    assert ref.torus_integral(2, 3) == -1


def test_t34_semigroup_invariant_and_integral():
    s = ref.torus(3, 4)
    assert s.genus == 3 and s.elements() == [0, 3, 4]
    pts = ref.staircase_breakpoints(3)
    assert pts == [(0, 0), (Fraction(2, 3), -2), (Fraction(4, 3), -2), (2, 0)]
    assert ref.check_breakpoints(s, pts) is None
    integral = sum((t1 - t0) * (v0 + v1) / 2 for (t0, v0), (t1, v1) in zip(pts, pts[1:]))
    assert integral == ref.torus_integral(3, 4) == Fraction(-8, 3)


def test_pretzel_one_has_the_t34_semigroup():
    s = ref.pretzel(1)
    assert s.genus == 3 and s.elements() == [0, 3, 4]
    assert ref.genus(("pretzel", 1)) == 3
    assert ref.pretzel(3).elements() == [0, 3, 5, 7, 8]


def test_cable_enumeration_and_closed_forms_agree():
    expr = ("cable", ("torus", 3, 7), 3, 35)
    s = ref.semigroup(expr)
    assert s.genus == ref.genus(expr) == 3 * 6 + 2 * 34 // 2
    assert s.elements()[:4] == [0, 9, 18, 21]
    # the p = 1 cable is the companion
    nested = T23
    for _ in range(1500):
        nested = ("cable", nested, 1, 7)
    assert ref.genus(nested) == 1 and ref.semigroup(nested).elements() == [0]
    assert ref.render(("cable", T23, 2, 7)) == "cable(torus(2,3);2,7)"


def test_tower_integral_adds_one_torus_term_per_level():
    tower = ("cable", ("cable", T23, 2, 5), 2, 17)
    assert ref.genus(("cable", T23, 2, 5)) == 4
    assert ref.tower_integral(tower) == ref.torus_integral(2, 3) + ref.torus_integral(2, 5) + ref.torus_integral(2, 17)
    with pytest.raises(ValueError):
        ref.tower_integral(("cable", ("cable", T23, 2, 5), 2, 15))
    assert ref.partial_quotients(7, 3) == [2, 3]
