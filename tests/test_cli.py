"""Command-line behaviour: formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import upsilon
from upsilon.cli import main
from upsilon.pl import PLFunction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_upsilon_breakpoints(capsys):
    code, out, _ = run(capsys, "upsilon", "torus(2,3)")
    assert code == 0
    assert out == "(0,0) (1,-1) (2,0)\n"


def test_upsilon_unknot(capsys):
    code, out, _ = run(capsys, "upsilon", "unknot")
    assert code == 0
    assert out == "(0,0) (2,0)\n"


def test_upsilon_eval(capsys):
    code, out, _ = run(capsys, "upsilon", "cable(torus(3,7);3,35)", "--eval", "5/7")
    assert code == 0
    assert out == "-169/7\n"


def test_upsilon_eval_bad_rational(capsys):
    code, _, err = run(capsys, "upsilon", "unknot", "--eval", "x")
    assert code == 2
    assert "bad rational" in err


def test_upsilon_json_and_csv(capsys):
    code, out, _ = run(capsys, "upsilon", "torus(2,3)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["breakpoints"][1] == ["1", "1", "-1", "1"]
    code, out, _ = run(capsys, "upsilon", "torus(2,3)", "--format", "csv")
    assert out.splitlines() == ["t,value", "0/1,0/1", "1/1,-1/1", "2/1,0/1"]


def test_upsilon_svg_with_overlay(capsys):
    code, out, _ = run(
        capsys, "upsilon", "cable(torus(2,3);2,3)", "--format", "svg", "--overlay", "torus(3,4)"
    )
    assert code == 0
    assert out.count("<polyline") == 2
    assert "2/3" in out  # exact rational tick label


def test_integral_and_tau(capsys):
    assert run(capsys, "integral", "torus(3,4)") == (0, "-8/3\n", "")
    assert run(capsys, "tau", "torus(3,7)") == (0, "6\n", "")


def test_semigroup_text_and_json(capsys):
    code, out, _ = run(capsys, "semigroup", "torus(3,7)")
    assert code == 0
    assert out == "{0,3,6,7,9,10} ∪ Z≥12\n"
    code, out, _ = run(capsys, "semigroup", "torus(3,7)", "--format", "json")
    assert json.loads(out) == {"genus": 6, "small_elements": [0, 3, 6, 7, 9, 10]}


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "upsilon", "torus(2,")
    assert code == 2
    assert "parse error" in err


def test_not_lspace_exit_code(capsys):
    code, _, err = run(capsys, "upsilon", "cable(torus(2,3);2,1)")
    assert code == 3
    assert "q = 1 < (2g-1)p = 2" in err


def test_rejection_stderr_pinned(capsys):
    top = "cable(torus(2,3);2,1): q = 1 < (2g-1)p = 2; not an L-space knot, and no formula is available\n"
    inner = "cable(torus(2,3);2,1): requires q >= (2g-1)p = 2 for companion genus 1, got q = 1\n"
    for command in ("upsilon", "tau", "integral"):
        assert run(capsys, command, "cable(torus(2,3);2,1)") == (3, "", top), command
        assert run(capsys, command, "cable(cable(torus(2,3);2,1);2,99)") == (3, "", inner), command
    semigroup = "not an L-space cable: q = 1 < p(2g-1) = 2\n"
    assert run(capsys, "semigroup", "cable(torus(2,3);2,1)") == (3, "", semigroup)
    assert run(capsys, "semigroup", "cable(cable(torus(2,3);2,1);2,99)") == (3, "", semigroup)


def _console(*argv):
    # a fresh interpreter, as the console script runs: an uncaught exception
    # there ends in a traceback on stderr and exit code 1
    src = str(Path(upsilon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "upsilon.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _identity_tower(depth):
    expr = "torus(2,3)"
    for _ in range(depth):
        expr = f"cable({expr};1,7)"
    return expr


def test_deep_identity_tower_computes():
    assert _console("upsilon", _identity_tower(1500)) == (0, "(0,0) (1,-1) (2,0)\n", "")


def test_deep_tower_rejected_outer_level_has_no_traceback():
    tower = _identity_tower(1500)
    code, out, err = _console("upsilon", f"cable({tower};2,1)")
    assert (code, out) == (3, "")
    assert "Traceback" not in err
    assert err == f"cable({tower};2,1): q = 1 < (2g-1)p = 2; not an L-space knot, and no formula is available\n"


def test_verify_sweep_passes(capsys):
    code, out, _ = run(capsys, "verify", "fk", "--pmax", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    for line in lines:
        assert json.loads(line)["status"] == "pass"


def test_verify_prop8_note_emitted_once(capsys):
    code, out, _ = run(capsys, "verify", "prop8", "--pmax", "6")
    assert code == 0
    notes = [json.loads(l).get("note") for l in out.strip().splitlines()]
    assert sum(1 for n in notes if n) == 1
    assert notes[0]


def test_verify_thm_main_small(capsys):
    code, out, _ = run(
        capsys, "verify", "thm-main", "--core", "torus(2,3)", "--pmax", "2", "--qmax", "10"
    )
    assert code == 0
    params = [json.loads(l)["params"] for l in out.strip().splitlines()]
    assert ["torus(2,3)", "2", "5"] in params


def test_verify_output_deterministic(capsys):
    a = run(capsys, "verify", "lemma18", "--core", "torus(3,7)", "--pmax", "3", "--qmax", "36")
    b = run(capsys, "verify", "lemma18", "--core", "torus(3,7)", "--pmax", "3", "--qmax", "36")
    assert a == b and a[0] == 0


def test_verify_remaining_tags_small_sweeps(capsys):
    for tag in ("thm-s", "thm-cor", "sandwich", "thm9", "wang", "symmetry", "dedekind"):
        code, out, _ = run(
            capsys, "verify", tag, "--core", "torus(2,5)", "--pmax", "2", "--qmax", "12"
        )
        assert code == 0, tag
        assert all(json.loads(l)["status"] == "pass" for l in out.strip().splitlines()), tag


def test_out_file(tmp_path, capsys):
    target = tmp_path / "ups.txt"
    code, out, _ = run(capsys, "upsilon", "torus(2,3)", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "(0,0) (1,-1) (2,0)\n"


def test_unwritable_out_exits_2_without_traceback(tmp_path):
    for target in (tmp_path / "missing" / "x", tmp_path):
        code, out, err = _console("upsilon", "torus(2,3)", "--out", str(target))
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert err.count("\n") == 1 and str(target) in err


def test_method_oracle_eval(capsys):
    code, out, _ = run(
        capsys, "upsilon", "cable(torus(3,7);3,35)", "--eval", "5/7", "--method", "oracle"
    )
    assert code == 0 and out == "-169/7\n"


def test_crosscheck_failure_names_witness(monkeypatch, capsys):
    wrong = PLFunction(((0, 0), (2, 0)))
    monkeypatch.setattr("upsilon.invariant._windowed_formula", lambda s, params: wrong)
    code, out, err = run(capsys, "upsilon", "cable(torus(3,7);3,35)")
    assert (code, out) == (1, "")
    assert "internal consistency failure" in err and "at t =" in err
    assert "Traceback" not in err


# default `verify <tag>` output: exit 0, line count and sha256 of stdout
VERIFY_DEFAULTS = [
    ("thm-main", 169, "0367872d111da224bcbc605a342dfdc0b8be4f7592db2bd1793e28b6a207cf69"),
    ("thm-s", 23, "f28751472af34a104b544d29ddf2be7363cbd3d874cb46d71dacd82de21e030b"),
    ("thm-cor", 23, "4f73dc8cb67079490fc37e6bc2ae14f62c5bf83136eed2b0f2193c20394d2143"),
    ("sandwich", 23, "d5d3bb9c23e87ce830e221a3fa20fe8ae29a1fe7bd2074c7cd37abcfbf08a6d4"),
    ("lemma18", 28, "9be19bc28efabb0c16fe75d23b23e58584fe029593cb4c7a9cf927895fee5c7a"),
    ("prop8", 5, "e363f9b6d0fa9b02dd0c9a5e2ab857fdd27c508b62e68c00610dca43172cb6b4"),
    ("thm9", 10, "3523399c27dc54121f528caf3c666b4ed6dbdea20ce08c0a62cc2db22883a0e6"),
    ("fk", 5, "66ef9b0ea08cbf62b8fcd4beec5a08459c5b2698342adb3104b58a1460f9578e"),
    ("wang", 192, "3f5350179bc42412d441122dff7d20a709b67e114eff82f85d079fb62258582e"),
    ("symmetry", 25, "385428f78de4a5078fbaa46b30ef73734a4aad4b92e48af11f308984b4639e72"),
    ("dedekind", 5, "b1be489348d31e7727a29c459cd0ea727171d94e19ae1c04d7bd6d14b227bd67"),
]


@pytest.mark.parametrize("tag,lines,digest", VERIFY_DEFAULTS)
def test_verify_default_output_pinned(capsys, tag, lines, digest):
    code, out, err = run(capsys, "verify", tag)
    assert (code, err) == (0, "")
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_method_flag(capsys):
    for method in ("formula", "oracle", "both"):
        code, out, _ = run(capsys, "upsilon", "cable(torus(2,3);2,3)", "--method", method)
        assert code == 0
        assert out == "(0,0) (2/3,-2) (4/3,-2) (2,0)\n"


# every compute subcommand on small knots of each kind (torus, pretzel, a
# cable in each regime, two-level towers): exit 0, line count and sha256 of
# the concatenated stdout
COMPUTE_KNOTS = [
    ("unknot", 55, "75e0fe2131c74fafc608751dbaf64632e5b923d2c43458da2ab2fc9a689c19d2"),
    ("torus(2,3)", 70, "e78b6ac82c8411a1005bc781ebff096ad6d0c734267ac2d8dad3b3940519063e"),
    ("torus(5,6)", 103, "8e3b3c2ecc1e5cf2c649c8ce6c1099006e13d86cb617886202dcbe9e6a171b20"),
    ("pretzel(3)", 94, "137d27329f055fa465be4b015e47a68dcf23334038e64c2ada62f8bc8ea74a95"),
    ("cable(torus(2,3);2,5)", 79, "96eda2e98f0f5395b3f01021c8b5161dd2dccdb7ead10ad7d114d3d90ca7793f"),
    ("cable(torus(2,3);2,3)", 79, "664d5a7b9b5c8099166d99ea9524424a4b0f60ac8c489ecfd3d6a6bd9c6e9492"),
    ("cable(torus(3,4);3,17)", 142, "4b742b90a1001daf9e1bf966f73a0ec8af8539bc0a2f49319453463fcb2f11f5"),
    ("cable(pretzel(3);2,19)", 127, "dda1f1b05de80ca02d0cdad527a95c10a38537588e41a3a75e03cca01248f27d"),
    ("cable(cable(torus(2,3);2,5);2,17)", 103, "7880cbc8712636f213aca6c9ec4cb92c2453cbd542a6354c91d4e4dfc6fa444d"),
    ("cable(cable(torus(2,3);2,5);2,15)", 103, "4a93f910531b7e557027c31a065538002a8567823bcc9e6df050be5482ea690a"),
]


def _compute_commands(knot):
    for fmt in ("breakpoints-text", "json", "csv", "svg"):
        for method in ("formula", "oracle", "both"):
            yield "upsilon", knot, "--format", fmt, "--method", method
    yield "upsilon", knot, "--eval", "5/7"
    yield "integral", knot
    yield "tau", knot
    yield "semigroup", knot, "--format", "json"


@pytest.mark.parametrize("knot,lines,digest", COMPUTE_KNOTS)
def test_compute_output_pinned(capsys, knot, lines, digest):
    outs = []
    for argv in _compute_commands(knot):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        outs.append(out)
    text = "".join(outs)
    assert text.count("\n") == lines
    assert hashlib.sha256(text.encode()).hexdigest() == digest
