"""Per-layer tracing from outside the package.

A ``Tracer`` replaces chosen public functions of ``upsilon``'s modules with
timing wrappers while it is installed, and puts the originals back when it
is removed.  Modules import one another's functions by name, so a wrapper
is bound in every ``upsilon`` module namespace that binds the original
object, not only in the module that defines it.

Each call through a wrapper is a span: (name, start, end, parent span).
Spans stay in memory until ``write`` saves them.  A layer's self time is
the duration of its spans minus the part their child spans cover; the
tracer's own counting work is charged to no layer.
"""

from __future__ import annotations

import itertools
import json
import sys
from time import perf_counter

# The functions wrapped in each module, grouped by the layer that owns
# them; "Class.method" wraps a method.  A name the package does not have is
# skipped.
ENVELOPE = ("upper_envelope",)
ALGEBRA = (
    "pl_add",
    "pl_max",
    "amalgamate",
    "concat_pieces",
    "compress_into_window",
    "PLFunction.restrict",
    "PLFunction.reflect",
    "PLFunction.scaled",
    "PLFunction.shifted",
    "PLFunction.integral",
)
EVAL = ("PLFunction.__call__",)

WRAPPED = {
    "cli": ("main",),
    "knots": (
        "parse_knot",
        "genus",
        "is_lspace",
        "semigroup_of",
        "continued_fraction",
        "continued_fraction_of",
        "dedekind_sum",
        "signature_integral_torus",
    ),
    "semigroup": (
        "unknot_semigroup",
        "torus_semigroup",
        "pretzel_semigroup",
        "cable_semigroup",
        "alexander_from_semigroup",
        "semigroup_from_alexander",
        "FormalSemigroup.threshold",
        "FormalSemigroup.gaps",
    ),
    "invariant": (
        "upsilon_line",
        "upsilon_from_semigroup",
        "truncated_upsilon",
        "upsilon_delta",
        "classify_cable",
        "cable_upsilon",
        "knot_upsilon",
        "tau",
        "upsilon_integral",
        "torus_integral_from_cf",
        "iterated_cable_integral",
        "torus_upsilon_decomposition",
        "staircase_sum",
    ),
    "pl": ENVELOPE + ALGEBRA + EVAL,
    "verify": ("verify_identity",),
}

def _add(counts: dict, key: str, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


def _count_elements(counts, args, result, parent_group):
    _add(counts, "semigroup.elements_built", len(result.small_elements))


def _count_envelope(counts, args, result, parent_group):
    _add(counts, "pl.envelope_lines_in", len(args[0]))
    _add(counts, "pl.envelope_breakpoints_out", len(result.breakpoints))
    if parent_group == "invariant":
        _add(counts, "invariant.lines_built", len(args[0]))


def _count_merge(counts, args, result, parent_group):
    f, g = args[0], args[1]
    _add(counts, "pl.merged_points", len({t for t, _ in f.breakpoints} | {t for t, _ in g.breakpoints}))


# Counters recorded after a span ends, outside every layer's time.
_HOOKS = {
    "unknot_semigroup": _count_elements,
    "torus_semigroup": _count_elements,
    "pretzel_semigroup": _count_elements,
    "cable_semigroup": _count_elements,
    "semigroup_from_alexander": _count_elements,
    "upper_envelope": _count_envelope,
    "pl_add": _count_merge,
    "pl_max": _count_merge,
}


def _group(layer: str, name: str) -> str:
    """The bucket a span's self time goes to: the layer, or a pl sub-bucket."""
    if layer != "pl":
        return layer
    if name in ENVELOPE:
        return "pl.envelope"
    if name in EVAL:
        return "pl.eval"
    return "pl.algebra"


class Tracer:
    """Wrappers for the functions in ``WRAPPED``, and what they recorded.

    Create it after the package is imported; ``install`` and ``uninstall``
    switch the wrappers on and off, and may be called any number of times.
    """

    def __init__(self):
        self.names: list[str] = []          # span name table
        self.spans: list[tuple] = []        # (span id, parent id, name index, start, end)
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []        # [span id, child time, group] per open span
        self._next_id = itertools.count()
        self._bindings: list[tuple] = []    # (owner, attribute, original, wrapper)
        prefix = "upsilon."
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "upsilon" or n.startswith(prefix))]
        for layer, names in WRAPPED.items():
            home = sys.modules.get(prefix + layer)
            if home is None:
                continue
            for name in names:
                cls_name, _, attr = name.rpartition(".")
                owner = getattr(home, cls_name, None) if cls_name else home
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                wrapper = self._wrap(original, layer, name)
                if cls_name:
                    self._bindings.append((owner, attr, original, wrapper))
                    continue
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            self._bindings.append((module, key, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # -- spans -----------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        group = _group(layer, name)
        name_index = len(self.names)
        self.names.append(f"{layer}.{name}")
        hook = _HOOKS.get(name)
        materialise = name in ENVELOPE
        stack, spans, self_time, calls, counts = (
            self._stack, self.spans, self.self_time, self.calls, self.counts)
        self_time.setdefault(group, 0.0)
        calls.setdefault(group, 0)
        next_id = self._next_id

        def wrapper(*args, **kwargs):
            if materialise and args:
                # materialise the lines in the caller's time, so that line
                # generation is charged to the layer that generates them
                args = (list(args[0]),) + args[1:]
            parent = stack[-1] if stack else None
            frame = [next(next_id), 0.0, group]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_time[group] += duration - frame[1]
                calls[group] += 1
                spans.append((frame[0], parent and parent[0], name_index, start, end))
                if parent is not None:
                    parent[1] += duration
            if hook is not None:
                book = perf_counter()
                hook(counts, args, result, parent and parent[2])
                if parent is not None:
                    parent[1] += perf_counter() - book
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name.rpartition(".")[2])
        return wrapper

    # -- results ---------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric, as name -> (value, unit)."""
        st, calls, counts = self.self_time, self.calls, self.counts
        lines_in = counts.get("pl.envelope_lines_in", 0)
        points_out = counts.get("pl.envelope_breakpoints_out", 0)
        rows = (
            ("cli.self_s", st.get("cli", 0.0), "s"),
            ("knots.self_s", st.get("knots", 0.0), "s"),
            ("knots.calls", calls.get("knots", 0), "count"),
            ("semigroup.self_s", st.get("semigroup", 0.0), "s"),
            ("semigroup.calls", calls.get("semigroup", 0), "count"),
            ("semigroup.elements_built", counts.get("semigroup.elements_built", 0), "count"),
            ("invariant.self_s", st.get("invariant", 0.0), "s"),
            ("invariant.calls", calls.get("invariant", 0), "count"),
            ("invariant.lines_built", counts.get("invariant.lines_built", 0), "count"),
            ("pl.envelope_s", st.get("pl.envelope", 0.0), "s"),
            ("pl.envelope_calls", calls.get("pl.envelope", 0), "count"),
            ("pl.envelope_lines_in", lines_in, "count"),
            ("pl.envelope_breakpoints_out", points_out, "count"),
            ("pl.envelope_yield", points_out / lines_in if lines_in else 0.0, "ratio"),
            ("pl.algebra_s", st.get("pl.algebra", 0.0), "s"),
            ("pl.algebra_calls", calls.get("pl.algebra", 0), "count"),
            ("pl.merged_points", counts.get("pl.merged_points", 0), "count"),
            ("pl.eval_s", st.get("pl.eval", 0.0), "s"),
            ("pl.eval_calls", calls.get("pl.eval", 0), "count"),
            ("verify.self_s", st.get("verify", 0.0), "s"),
            ("verify.checks", calls.get("verify", 0), "count"),
            ("trace.overhead_s", overhead_s, "s"),
        )
        return {name: (value, unit) for name, value, unit in rows}

    def write(self, path) -> None:
        """Save the span table: one JSON header line, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["id", "parent", "name", "start", "end"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

