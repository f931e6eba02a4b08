"""Command-line front end.

Subcommands: ``upsilon``, ``integral``, ``tau``, ``semigroup``, ``verify``.
All numeric output is exact; the only floats ever produced are SVG pixel
coordinates, which never feed back into any computation.

Exit codes: 0 success, 2 expression parse error, bad --eval rational or
unwritable --out, 3 domain error (not an L-space knot / wrong cabling
regime), 4 verification failure, 1 internal.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import chain
from math import gcd

from .errors import AssemblyError, KnotSyntaxError, NotLSpaceError
from .invariant import knot_upsilon, tau, upsilon_integral
from .knots import Cable, KnotExpr, genus, parse_knot, semigroup_of
from .semigroup import CableRegime, cable_qs
from .verify import identity_tags, verify_identity

DEFAULT_CORES = ("torus(2,3)", "torus(2,5)", "torus(3,4)", "torus(3,7)", "pretzel(3)")


def _write(args, text: str) -> int:
    """Write text to --out, or to stdout; exit code 2 if --out cannot be written."""
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


def _svg(curves) -> str:
    width, height, margin = 720, 440, 70
    ts = [t for f, _ in curves for t, _ in f.breakpoints]
    vs = [v for f, _ in curves for _, v in f.breakpoints]
    tmin, tmax = min(ts), max(ts)
    vmin, vmax = min(vs), max(vs)
    if vmin == vmax:
        vmin, vmax = vmin - 1, vmax + 1

    def px(t):
        return margin + float((t - tmin) / (tmax - tmin)) * (width - 2 * margin)

    def py(v):
        return height - margin - float((v - vmin) / (vmax - vmin)) * (height - 2 * margin)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for t, _ in curves[0][0].breakpoints:
        x = px(t)
        out.append(f'<line x1="{x:.2f}" y1="{height - margin}" x2="{x:.2f}" y2="{height - margin + 5}" stroke="black"/>')
        out.append(
            f'<text x="{x:.2f}" y="{height - margin + 18}" font-size="10" text-anchor="middle">{t}</text>'
        )
    for v in sorted({v for _, v in curves[0][0].breakpoints}):
        y = py(v)
        out.append(f'<line x1="{margin - 5}" y1="{y:.2f}" x2="{margin}" y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{margin - 8}" y="{y + 3:.2f}" font-size="10" text-anchor="end">{v}</text>')
    for f, color in curves:
        pts = " ".join(f"{px(t):.2f},{py(v):.2f}" for t, v in f.breakpoints)
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_upsilon(args) -> int:
    k = parse_knot(args.expr)
    f = knot_upsilon(k, method=args.method)
    if args.eval is not None:
        try:
            t = Fraction(args.eval)
        except (ValueError, ZeroDivisionError):
            print(f"bad rational {args.eval!r}", file=sys.stderr)
            return 2
        return _write(args, f"{f(t)}\n")
    if args.format == "breakpoints-text":
        return _write(args, f"{f}\n")
    if args.format == "json":
        return _write(args, f.to_json() + "\n")
    if args.format == "csv":
        return _write(args, f.to_csv())
    curves = [(f, "#1f77b4")]  # svg
    if args.overlay:
        g = knot_upsilon(parse_knot(args.overlay), method=args.method)
        curves.append((g, "#d62728"))
    return _write(args, _svg(curves))


def cmd_integral(args) -> int:
    k = parse_knot(args.expr)
    return _write(args, f"{upsilon_integral(k, args.method)}\n")


def cmd_tau(args) -> int:
    k = parse_knot(args.expr)
    return _write(args, f"{tau(k, args.method)}\n")


def cmd_semigroup(args) -> int:
    k = parse_knot(args.expr)
    s = semigroup_of(k)
    text = json.dumps(s.to_json_dict()) if args.format == "json" else str(s)
    return _write(args, text + "\n")


def _cores(args) -> list[KnotExpr]:
    names = args.core or ["all"]
    out = []
    for name in names:
        if name == "all":
            out.extend(parse_knot(c) for c in DEFAULT_CORES)
        elif name == "torus":
            out.extend(parse_knot(c) for c in DEFAULT_CORES if c.startswith("torus"))
        elif name == "pretzel":
            out.extend(parse_knot(c) for c in DEFAULT_CORES if c.startswith("pretzel"))
        else:
            out.append(parse_knot(name))
    return out


def _sweep(tag, args):
    """Yield (checker-args, checker-kwargs) tuples for one verify sweep."""
    pmax, qmax = args.pmax, args.qmax
    cores = _cores(args)
    plain, windowed = CableRegime.PLAIN_SUM, CableRegime.WINDOWED
    if tag in ("thm-main", "wang"):
        for core in cores:
            g = genus(core)
            for p in range(2, pmax + 1):
                qs = cable_qs(g, p, plain, qmax)
                if tag == "wang":
                    qs = chain(cable_qs(g, p, windowed, qmax), qs)
                for q in qs:
                    yield (core, p, q), {}
    elif tag in ("thm-s", "thm-cor", "sandwich", "lemma18"):
        for core in cores:
            if tag == "lemma18":
                yield (), {"core": core}
            g = genus(core)
            for p in range(2, pmax + 1):
                for q in cable_qs(g, p, windowed, qmax):
                    yield ((p, q) if tag == "lemma18" else (core, p, q)), {}
    elif tag in ("prop8", "fk", "dedekind"):
        first = True
        for q in range(2, pmax + 1):
            for p in range(1, q):
                if gcd(p, q) == 1:
                    if tag == "prop8":
                        yield (p, q), {"emit_note": first}
                        first = False
                    else:
                        yield (p, q), {}
    elif tag == "thm9":
        for core in cores:
            g = genus(core)
            for p1 in range(2, min(pmax, 3) + 1):
                q1 = next(cable_qs(g, p1, plain, qmax), None)
                if q1 is None:
                    continue
                level1 = Cable(core, p1, q1)
                q2 = next(cable_qs(genus(level1), 2, plain))
                yield (Cable(level1, 2, q2),), {}
    elif tag == "symmetry":
        for core in cores:
            yield (core,), {}
            g = genus(core)
            for p in (2, 3):
                if p > pmax:
                    continue
                q = next(cable_qs(g, p, plain, qmax), None)
                if q is not None:
                    yield (Cable(core, p, q),), {}
                narrow = next(cable_qs(g, p, windowed, qmax), None)
                if narrow is not None:
                    yield (Cable(core, p, narrow),), {}
    else:
        raise ValueError(f"unknown identity tag {tag!r}")


def cmd_verify(args) -> int:
    lines = []
    any_fail = False
    for check_args, check_kwargs in _sweep(args.identity, args):
        report = verify_identity(args.identity, *check_args, **check_kwargs)
        lines.append(report.to_json())
        if not report.passed:
            any_fail = True
    code = _write(args, "\n".join(lines) + ("\n" if lines else ""))
    return code or (4 if any_fail else 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upsilon",
        description="Exact Upsilon invariant of L-space knots (torus, pretzel family, iterated cables)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_format=True):
        sp.add_argument("--method", choices=("formula", "oracle", "both"), default="both",
                        help="computation path; 'both' cross-checks (default)")
        sp.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")
        if with_format:
            sp.add_argument("--format", choices=("breakpoints-text", "json", "csv", "svg"),
                            default="breakpoints-text")

    sp = sub.add_parser("upsilon", help="breakpoints of the invariant, or its value at --eval")
    sp.add_argument("expr")
    sp.add_argument("--eval", metavar="T", default=None, help="exact rational like 5/7")
    sp.add_argument("--overlay", metavar="EXPR2", default=None, help="second curve (svg only)")
    add_common(sp)
    sp.set_defaults(func=cmd_upsilon)

    sp = sub.add_parser("integral", help="exact integral of the invariant over [0,2]")
    sp.add_argument("expr")
    add_common(sp, with_format=False)
    sp.set_defaults(func=cmd_integral)

    sp = sub.add_parser("tau", help="the tau invariant (equals the genus here)")
    sp.add_argument("expr")
    add_common(sp, with_format=False)
    sp.set_defaults(func=cmd_tau)

    sp = sub.add_parser("semigroup", help="the formal semigroup of the knot")
    sp.add_argument("expr")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", metavar="FILE", default=None)
    sp.set_defaults(func=cmd_semigroup)

    sp = sub.add_parser("verify", help="sweep an identity over parameter ranges (JSON lines)")
    sp.add_argument("identity", choices=identity_tags())
    sp.add_argument("--core", action="append", metavar="EXPR",
                    help="core knot(s); 'torus', 'pretzel', 'all', or an expression (repeatable)")
    sp.add_argument("--pmax", type=int, default=4)
    sp.add_argument("--qmax", type=int, default=40)
    sp.add_argument("--out", metavar="FILE", default=None)
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KnotSyntaxError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (NotLSpaceError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except AssemblyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
