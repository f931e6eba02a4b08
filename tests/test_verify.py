"""Verification reports: every identity tag, witness reporting, JSON lines."""

import json
from fractions import Fraction as F

import pytest

from upsilon.errors import AssemblyError
from upsilon.invariant import cable_upsilon
from upsilon.knots import Cable, Pretzel, Torus, parse_knot
from upsilon.pl import PLFunction, first_difference
from upsilon.verify import (
    NORMALIZATION_NOTE,
    VerificationReport,
    _report,
    check_dedekind,
    check_torus_integral,
    identity_tags,
    verify_identity,
)


def test_all_tags_available():
    assert set(identity_tags()) == {
        "thm-main", "thm-s", "thm-cor", "sandwich", "lemma18",
        "prop8", "thm9", "fk", "wang", "symmetry", "dedekind",
    }


def test_unknown_tag():
    with pytest.raises(ValueError, match="unknown identity tag"):
        verify_identity("nonsense")


def test_plain_sum_identity():
    assert verify_identity("thm-main", Torus(2, 3), 2, 5).passed


def test_plain_sum_regime_guard():
    with pytest.raises(ValueError, match="plain-sum"):
        verify_identity("thm-main", Torus(2, 3), 2, 3)


def test_sum_region_identity():
    assert verify_identity("thm-s", Torus(3, 7), 3, 35).passed
    assert verify_identity("thm-s", Torus(2, 3), 3, 4).passed  # degenerate band


def test_windowed_identity():
    assert verify_identity("thm-cor", Torus(3, 7), 3, 35).passed
    assert verify_identity("thm-cor", Torus(2, 3), 3, 4).passed


def test_sandwich_identity():
    assert verify_identity("sandwich", Torus(3, 7), 3, 35).passed
    assert verify_identity("sandwich", Torus(2, 5), 2, 7).passed


def test_window_symmetries():
    assert verify_identity("lemma18", core=Torus(3, 7)).passed
    assert verify_identity("lemma18", 3, 35).passed
    assert verify_identity("lemma18", 5, 47, core=Torus(2, 5)).passed


def test_torus_integral_identity_and_note():
    report = check_torus_integral(3, 7, emit_note=True)
    assert report.passed
    assert report.note == NORMALIZATION_NOTE
    assert check_torus_integral(3, 7).note is None


def test_iterated_integral_identity():
    tower = Cable(Cable(Torus(2, 3), 2, 5), 2, 17)
    assert verify_identity("thm9", tower).passed


def test_staircase_identity():
    assert verify_identity("fk", 3, 7).passed
    assert verify_identity("fk", 1, 5).passed


def test_cable_semigroup_identity():
    assert verify_identity("wang", Torus(2, 3), 2, 5).passed
    assert verify_identity("wang", Pretzel(3), 2, 19).passed
    # outside the regime the construction is the failure witness
    report = verify_identity("wang", Torus(2, 3), 2, 1)
    assert not report.passed
    assert "not an L-space cable" in report.note


def test_structure_identity():
    assert verify_identity("symmetry", parse_knot("cable(torus(3,7);3,35)")).passed
    assert verify_identity("symmetry", parse_knot("unknot")).passed
    assert verify_identity("symmetry", parse_knot("torus(2,5)")).passed  # threshold exactly 1
    for expr in ("torus(1,5)", "cable(unknot;2,1)", "cable(torus(1,3);3,1)"):  # genus 0
        assert verify_identity("symmetry", parse_knot(expr)).passed, expr


def test_dedekind_identity():
    assert check_dedekind(3, 7).passed


def test_failure_reports_carry_witness():
    tent = PLFunction(((0, 0), (1, -1), (2, 0)))
    report = _report("demo", ("x",), [(tent, tent.shifted(-1))])
    assert report.status == "fail"
    assert report.witness_t is not None
    lhs, rhs = F(report.lhs), F(report.rhs)
    assert lhs != rhs
    assert tent(report.witness_t) == lhs


def test_report_json_schema():
    report = verify_identity("thm-main", Torus(2, 3), 2, 5)
    payload = json.loads(report.to_json())
    assert payload == {
        "id": "thm-main",
        "params": ["torus(2,3)", "2", "5"],
        "status": "pass",
        "witness_t": None,
    }
    failing = _report("demo", (1,), [(PLFunction(((0, 0), (2, 0))), PLFunction(((0, 0), (2, 2))))])
    payload = json.loads(failing.to_json())
    assert payload["status"] == "fail"
    assert payload["witness_t"] == "2/1"
    assert payload["lhs"] == "0" and payload["rhs"] == "2"


def test_report_passed_property():
    assert VerificationReport("x", (), "pass").passed
    assert not VerificationReport("x", (), "fail").passed


def test_report_takes_first_failing_claim_and_stops():
    def claims():
        yield 1, 1
        yield 2, 3, "second", F(1, 2)
        raise AssertionError("claims after a failing one must not be computed")

    report = _report("demo", (), claims(), note="report note")
    assert (report.status, report.witness_t, report.lhs, report.rhs) == ("fail", F(1, 2), "2", "3")
    assert report.note == "second"


def test_report_note_falls_back_to_report_level():
    assert _report("demo", (), [(1, 1)], note="n").note == "n"
    assert _report("demo", (), [(1, 2)], note="n").note == "n"
    assert _report("demo", (), [(1, 2, None, F(0))]).witness_t == F(0)


def test_report_on_different_domains_fails_with_the_endpoint():
    tent = PLFunction(((0, 0), (1, -1), (2, 0)))
    report = _report("x", (), [(tent, tent.restrict(F(1, 2), 2))])
    assert report.status == "fail"
    assert report.witness_t == 0
    assert (report.lhs, report.rhs) == ("[0, 2]", "[1/2, 2]")


def test_first_difference():
    tent = PLFunction(((0, 0), (1, -1), (2, 0)))
    assert first_difference(tent, tent) is None
    assert first_difference(tent, PLFunction(((0, 0), (1, -1), (2, 1)))) == 2
    assert first_difference(tent, tent.restrict(F(1, 2), 2)) == 0


def test_symmetry_endpoint_failure_names_the_failing_endpoint(monkeypatch):
    monkeypatch.setattr("upsilon.verify.knot_upsilon", lambda k, method: PLFunction(((0, 0), (2, -1))))
    report = verify_identity("symmetry", parse_knot("torus(2,3)"))
    payload = json.loads(report.to_json())
    assert payload["witness_t"] == "2/1"
    assert (payload["lhs"], payload["rhs"], payload["note"]) == ("-1", "0", "endpoints")


def test_broken_staircase_is_a_failed_report_with_witness(monkeypatch):
    monkeypatch.setattr("upsilon.verify.staircase_sum", lambda pairs: PLFunction(((0, 0), (2, 0))))
    report = verify_identity("fk", 3, 7)
    assert not report.passed and report.witness_t is not None and report.note is None
    assert F(report.lhs) == 0 != F(report.rhs)


def test_plain_sum_assembly_error_is_a_failed_report(monkeypatch):
    def broken(core, p, q, method):
        if method == "formula":
            raise AssemblyError("jump at t = 1/2")
        return cable_upsilon(core, p, q, method)

    monkeypatch.setattr("upsilon.verify.cable_upsilon", broken)
    report = verify_identity("thm-main", Torus(2, 3), 2, 5)
    assert (report.status, report.lhs, report.rhs, report.note) == (
        "fail", "assembly", "oracle", "jump at t = 1/2"
    )
