"""The benchmark's workloads: seeded inputs and exact output checks.

A workload yields rounds.  Every round has the same slots, in the same
order; a slot fixes an operation kind (a command line, or one verify tag)
and a family of inputs, and the seed picks which member of the family each
round gets.  A run therefore attempts whole rounds of the same operations,
and the share of operations that fail is the same in every run.

``torus-large`` and ``cable-both`` never issue one knot expression twice in
a run: a command-line user pays for every query in a fresh process, so a
cache kept between calls must not stand in for the computation.  Families
are ordered from a target size outwards, and the seed shuffles blocks of
that order, so a faster program that gets through more rounds is handed
slightly larger knots rather than repeats.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import count, islice
from math import gcd

import reference as ref

# Work allowed for checking one Upsilon against the line maximum, in
# (points evaluated) x (semigroup boundaries); larger outputs are checked
# on a seeded sample of segments.
CHECK_BUDGET = 1_000_000
BLOCK = 8

DEFAULT_CORES = (("torus", 2, 3), ("torus", 2, 5), ("torus", 3, 4), ("torus", 3, 7), ("pretzel", 3))


class Op:
    """One operation of a round.

    ``call`` runs it and returns its result; ``check(result)`` returns None
    when the result is right and a description otherwise.  ``ok(result)``
    says whether the operation completed rather than failed.
    """

    def __init__(self, label, call, check, ok):
        self.label = label
        self.call = call
        self.check = check
        self.ok = ok


# -- input families ------------------------------------------------------------

def _around(centre: int, lowest: int):
    """centre, centre+1, centre-1, centre+2, ... never below ``lowest``."""
    yield centre
    for d in count(1):
        yield centre + d
        if centre - d >= lowest:
            yield centre - d


def _by_distance(candidates, target):
    """A finite candidate list ordered by genus distance from ``target``."""
    return sorted(candidates, key=lambda e: (abs(ref.genus(e) - target), ref.render(e)))


def _shuffled_blocks(candidates, rng):
    it = iter(candidates)
    while True:
        block = list(islice(it, BLOCK))
        if not block:
            return
        rng.shuffle(block)
        yield from block


def torus_fixed_p(p, q0):
    return (("torus", p, q) for q in _around(q0, p + 1) if gcd(p, q) == 1)


def staircase(n0):
    return (("torus", n, n + 1) for n in _around(n0, 2))


def pretzels(n0):
    return (("pretzel", n) for n in _around(n0, 1))


def fibonacci_like(target):
    """Consecutive terms of x_{k+1} = x_k + x_{k-1} from coprime starts:
    q/p has a continued fraction of 1s after its first few terms."""
    pairs = set()
    for b in range(2, 41):
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            x, y = a, b
            while (x - 1) * (y - 1) // 2 < 2 * target:
                if x >= 2 and (x - 1) * (y - 1) // 2 >= target // 2:
                    pairs.add(("torus", x, y))
                x, y = y, x + y
    return _by_distance(pairs, target)


def _windowed_qs(g, p):
    return [q for q in range((2 * g - 1) * p + 1, 2 * g * p) if gcd(p, q) == 1]


def _plain_qs(g, p, extra):
    return [q for q in range(2 * g * p, 2 * g * p + extra) if gcd(p, q) == 1]


def cables(companions, ps, windowed, target, extra=24):
    out = []
    for comp in companions:
        g = ref.genus(comp)
        for p in ps:
            qs = _windowed_qs(g, p) if windowed else _plain_qs(g, p, extra)
            out.extend(("cable", comp, p, q) for q in qs)
    return _by_distance(out, target)


def _tori(g_lo, g_hi):
    return [("torus", a, b) for a in range(2, 2 * g_hi + 2) for b in range(a + 1, 2 * g_hi + 2)
            if gcd(a, b) == 1 and g_lo <= (a - 1) * (b - 1) // 2 <= g_hi]


# -- command-line operations ------------------------------------------------------

def _cli_call(cli, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()
    return call


def _cli_ok(result):
    return isinstance(result, tuple) and result[0] == 0


def _points_text(text):
    pts = []
    for token in text.split():
        t, v = token.strip("()").split(",")
        pts.append((Fraction(t), Fraction(v)))
    if text != " ".join(f"({t},{v})" for t, v in pts) + "\n":
        raise ValueError("breakpoint text is not in canonical form")
    return pts


def _points_json(text):
    data = json.loads(text)
    return [(Fraction(int(tn), int(td)), Fraction(int(vn), int(vd)))
            for tn, td, vn, vd in data["breakpoints"]]


def _points_csv(text):
    lines = text.splitlines()
    if lines[0] != "t,value":
        raise ValueError(f"csv header is {lines[0]!r}")
    pts = []
    for line in lines[1:]:
        t, v = line.split(",")
        pts.append((Fraction(t), Fraction(v)))
    return pts


_PARSERS = {"text": _points_text, "json": _points_json, "csv": _points_csv}


def _check_upsilon(expr, fmt, rng):
    def check(result):
        try:
            pts = _PARSERS[fmt](result[1])
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable {fmt} output: {exc}"
        core, levels = ref.unwind(expr)
        if core[0] == "torus" and core[2] == core[1] + 1 and all(p == 1 for p, _ in levels):
            want = ref.staircase_breakpoints(core[1])
            if pts != want:
                return "breakpoints differ from the T(n,n+1) closed form"
        s = ref.semigroup(expr)
        segments = None
        points_allowed = CHECK_BUDGET // len(s.boundary_m)
        if 2 * len(pts) - 1 > points_allowed:
            k = max(8, points_allowed // 3)
            segments = rng.sample(range(len(pts) - 1), min(k, len(pts) - 1))
        return ref.check_breakpoints(s, pts, segments)
    return check


def _check_integral(expr):
    def check(result):
        want = ref.tower_integral(expr)
        got = Fraction(result[1].strip())
        return None if got == want else f"integral {got}, closed form {want}"
    return check


def _check_tau(expr):
    def check(result):
        want = ref.genus(expr)
        got = int(result[1])
        return None if got == want else f"tau {got}, genus {want}"
    return check


def _check_semigroup(expr):
    def check(result):
        s = ref.semigroup(expr)
        want = "{" + ",".join(map(str, s.elements())) + "}" + f" ∪ Z≥{2 * s.genus}\n"
        return None if result[1] == want else "semigroup differs from the enumeration"
    return check


def cli_op(cli, command, expr, rng, label=None):
    """One command-line query; ``command`` is upsilon-text/-json/-csv,
    integral, tau or semigroup."""
    text = ref.render(expr)
    if command.startswith("upsilon-"):
        fmt = command.split("-", 1)[1]
        argv = ["upsilon", text] + ([] if fmt == "text" else ["--format", fmt])
        check = _check_upsilon(expr, fmt, rng)
    else:
        argv = [command, text]
        check = {"integral": _check_integral, "tau": _check_tau,
                 "semigroup": _check_semigroup}[command](expr)
    return Op(label or f"{command} {text[:60]}", _cli_call(cli, argv), check, _cli_ok)


class CliWorkload:
    """Rounds of command-line queries, one per slot, no expression twice."""

    def __init__(self, cli, seed, slots, fixed=()):
        self.cli = cli
        self.seed = seed
        self.slots = slots                 # (command, family) pairs
        self.fixed = dict(fixed)           # slot index -> expression for round 0 only
        self.seen: set[str] = {ref.render(e) for e in self.fixed.values()}

    def rounds(self):
        families = [_shuffled_blocks(family, random.Random(f"{self.seed}:{i}"))
                    for i, (_, family) in enumerate(self.slots)]
        for r in count():
            ops = []
            for i, (command, _) in enumerate(self.slots):
                expr = self.fixed[i] if r == 0 and i in self.fixed else self._next(families[i])
                if expr is None:
                    return  # a family ran out: the run ends after whole rounds
                rng = random.Random(f"{self.seed}:{r}:{i}")
                ops.append(cli_op(self.cli, command, expr, rng))
            yield ops + self.extra(r)

    def _next(self, family):
        for expr in family:
            text = ref.render(expr)
            if text not in self.seen:
                self.seen.add(text)
                return expr
        return None

    def extra(self, r):
        return []


def torus_large(cli, seed):
    """Distinct torus and pretzel knots, genus about 3e3 to 5e4, through
    the command line; subcommands rotate over every output kind."""
    slots = (
        ("upsilon-text", torus_fixed_p(13, 500)),      # g ~ 3.0e3
        ("upsilon-json", torus_fixed_p(31, 1000)),     # g ~ 1.5e4
        ("upsilon-csv", staircase(150)),               # g ~ 1.1e4, T(n,n+1)
        ("integral", fibonacci_like(6000)),            # g ~ 6e3, long staircases
        ("tau", torus_fixed_p(101, 1000)),             # g ~ 5.0e4
        ("upsilon-text", pretzels(5000)),              # g ~ 5.0e3
        ("semigroup", torus_fixed_p(57, 700)),         # g ~ 2.0e4
        ("tau", pretzels(6000)),                       # g ~ 6.0e3
        ("integral", torus_fixed_p(7, 1700)),          # g ~ 5.1e3
        ("upsilon-json", torus_fixed_p(11, 1000)),     # g ~ 5.0e3
    )
    return CliWorkload(cli, seed, slots)


# A 1500-deep tower of identity cables over T(2,3).  Its Upsilon is that of
# T(2,3), but the recursive parser raises RecursionError, which the command
# line does not catch, so the query fails every time until that is mended.
NESTED_DEPTH = 1500


def nested_identity(r):
    expr = ("torus", 2, 3)
    for level in range(NESTED_DEPTH):
        # the outermost q varies by round so that no expression repeats
        expr = ("cable", expr, 1, 7 + 2 * r if level == NESTED_DEPTH - 1 else 7)
    return expr


class CableWorkload(CliWorkload):
    def extra(self, r):
        expr = nested_identity(r)
        op = cli_op(self.cli, "upsilon-text", expr, random.Random(r),
                    label=f"upsilon 1500 nested identity cables of torus(2,3), round {r}")
        return [op]


def cable_both(cli, seed):
    """Distinct cables under the default --method both, in the plain-sum
    and windowed regimes, companion genus 1 to 22, cable genus about 1e2
    to 3e4."""
    small_tori = _tori(4, 16)
    t23, t25, t34 = ("torus", 2, 3), ("torus", 2, 5), ("torus", 3, 4)
    towers_plain = [("cable", t23, 2, q) for q in range(5, 40, 2)]
    pretzels_small = [("pretzel", n) for n in range(1, 21)]
    slots = (
        ("upsilon-text", cables(small_tori, range(3, 8), True, 150)),
        ("upsilon-json", cables(small_tori, range(3, 8), True, 150)),
        ("upsilon-csv", cables([t23], range(95, 106), True, 10000)),
        ("integral", cables(_tori(1, 6), range(5, 13), False, 800)),
        ("tau", cables(pretzels_small, range(4, 13), True, 1500)),
        ("upsilon-text", cables(towers_plain, range(3, 9), True, 1500)),
        ("upsilon-json", cables(pretzels_small, range(4, 13), False, 1000)),
        ("integral", cables(towers_plain, range(3, 9), False, 930)),
        ("upsilon-csv", cables(pretzels_small, range(6, 13), False, 900)),
        ("upsilon-text", cables([t34], range(95, 106), True, 27000)),
        ("upsilon-csv", cables([t25], range(55, 66), False, 7000)),
    )
    fixed = {0: ("cable", ("torus", 5, 6), 4, 79), 1: ("cable", ("torus", 3, 7), 3, 35)}
    return CableWorkload(cli, seed, slots, fixed)


# -- verify-sweep -------------------------------------------------------------

def _windowed_tuples(cores, pmax, qmax):
    return [(c, p, q) for c in cores for p in range(2, pmax + 1)
            for q in _windowed_qs(ref.genus(c), p) if q <= qmax]


def _coprime_pairs(qmax):
    return [(p, q) for q in range(2, qmax + 1) for p in range(1, q) if gcd(p, q) == 1]


def verify_pools(pmax=6, qmax=60, pair_qmax=30):
    """Parameter tuples per identity tag, as (args, kwargs) over expression tuples."""
    cores = DEFAULT_CORES
    plain = [(c, p, q) for c in cores for p in range(2, pmax + 1)
             for q in range(2 * ref.genus(c) * p, qmax + 1) if gcd(p, q) == 1]
    windowed = _windowed_tuples(cores, pmax, qmax)
    pairs = _coprime_pairs(pair_qmax)
    towers = []
    for c in cores:
        g = ref.genus(c)
        for p1 in (2, 3):
            for q1 in range(2 * g * p1, 2 * g * p1 + 12):
                if gcd(p1, q1) != 1 or q1 > qmax:
                    continue
                g1 = ref.genus(("cable", c, p1, q1))
                for q2 in range(4 * g1 + 1, 4 * g1 + 8, 2):
                    towers.append((("cable", ("cable", c, p1, q1), 2, q2),))
    structure = [(c,) for c in cores]
    structure += [(("cable", c, p, q),) for c, p, q in plain + windowed if p <= 3]
    pools = {
        "thm-main": [(t, {}) for t in plain],
        "thm-s": [(t, {}) for t in windowed],
        "thm-cor": [(t, {}) for t in windowed],
        "sandwich": [(t, {}) for t in windowed],
        "lemma18": [((), {"core": c}) for c in cores]
                   + [((p, q), {}) for p, q in sorted({(p, q) for _, p, q in windowed})],
        "prop8": [(t, {}) for t in pairs],
        "thm9": [(t, {}) for t in towers],
        "fk": [(t, {}) for t in pairs],
        "wang": [(t, {}) for t in plain + windowed],
        "symmetry": [(t, {}) for t in structure],
        "dedekind": [(t, {}) for t in pairs],
    }
    return pools


class VerifyWorkload:
    """Rounds of one verify_identity call per tag, parameters drawn by seed."""

    def __init__(self, verify, knots, seed):
        self.verify = verify
        self.knots = knots
        self.seed = seed
        self.pools = verify_pools()
        self.sent = 0
        self.reports = 0
        self.raised = 0

    def _value(self, x):
        return self.knots.parse_knot(ref.render(x)) if isinstance(x, tuple) else x

    def rounds(self):
        rng = random.Random(f"{self.seed}:verify")
        while True:
            ops = []
            for tag, pool in self.pools.items():
                args, kwargs = rng.choice(pool)
                args = tuple(self._value(a) for a in args)
                kwargs = {k: self._value(v) for k, v in kwargs.items()}
                ops.append(self._op(tag, args, kwargs))
            yield ops

    def _op(self, tag, args, kwargs):
        verify = self.verify
        want_params = args if args else tuple(kwargs.values())

        def call():
            self.sent += 1
            try:
                report = verify.verify_identity(tag, *args, **kwargs)
            except Exception:
                self.raised += 1
                raise
            if isinstance(report, verify.VerificationReport):
                self.reports += 1
            return report

        def check(report):
            if report.identity != tag:
                return f"report names identity {report.identity!r}, sent {tag!r}"
            if tuple(report.params) != want_params:
                return f"report names {report.params}, sent {want_params}"
            if not report.passed:
                return f"{tag} {want_params} failed: {report.to_json()}"
            return None

        def ok(result):
            return not isinstance(result, BaseException)

        return Op(f"verify {tag} {want_params}", call, check, ok)

    def final_check(self):
        if self.reports + self.raised != self.sent:
            return f"{self.sent} tuples sent, {self.reports} reports received, {self.raised} raised"
        return None


WORKLOADS = ("torus-large", "cable-both", "verify-sweep")


def make(name, modules, seed):
    if name == "torus-large":
        return torus_large(modules["cli"], seed)
    if name == "cable-both":
        return cable_both(modules["cli"], seed)
    if name == "verify-sweep":
        return VerifyWorkload(modules["verify"], modules["knots"], seed)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
