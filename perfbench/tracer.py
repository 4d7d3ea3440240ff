"""Span tracer that wraps circpart's public functions from outside the package.

Each wrapped call opens a span that knows its parent (the innermost open
span). When the span closes, its duration is charged to the parent as child
time, and its self time (duration minus child time) is added to a running
total keyed by (span name, parent name). Aggregating as spans close keeps
memory flat: the largest workloads make about a million wrapped calls.

``is_automorphism`` and ``respects`` are traced only at search leaves, that
is when the open span is ``enumerate_respecting``. Elsewhere (for example
inside ``normalize_to_multiplier``) they pass straight through, so their
time stays in the caller's self time.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

SEARCH = "solver.enumerate_respecting"


def _count_solutions(counts, result, args, kwargs):
    counts[SEARCH + ".solutions"] += len(result)


def _count_oracle(counts, result, args, kwargs):
    n = args[0].n
    fix_zero = kwargs.get("fix_zero", args[2] if len(args) > 2 else True)
    counts["solver.brute_oracle.perms_scanned"] += math.factorial(n - 1 if fix_zero else n)
    counts["solver.brute_oracle.solutions"] += len(result)


def _count_failed(name, failed):
    def count(counts, result, args, kwargs):
        counts[name + ".failed"] += failed(result)

    return count


def _count_rounds(counts, result, args, kwargs):
    counts["solver.propagation_certifier.rounds"] += result.total_rounds


def _count_bytes(counts, result, args, kwargs):
    counts["harness.report_to_json.bytes"] += len(result.encode("utf-8"))


def _drained(fn):
    def run(*args, **kwargs):
        return iter(list(fn(*args, **kwargs)))

    return run


# function name -> (span name, result counter or None, traced only at search leaves)
WRAPPED = {
    "build": ("circulant.build", None, False),
    "partition_by_generator": ("circulant.partition_by_generator", None, False),
    "partition_by_cycle": ("circulant.partition_by_cycle", None, False),
    "is_connected": ("circulant.is_connected", None, False),
    "multipliers": ("zmod.multipliers", None, False),
    "multiplier_perm": ("perm.multiplier_perm", None, False),
    "is_automorphism": ("perm.is_automorphism", None, True),
    "respects": ("perm.respects", None, True),
    "enumerate_respecting": (SEARCH, _count_solutions, False),
    "brute_oracle": ("solver.brute_oracle", _count_oracle, False),
    "coset_image_check": (
        "solver.coset_image_check",
        _count_failed("solver.coset_image_check", lambda ok: not ok),
        False,
    ),
    "normalize_to_multiplier": (
        "solver.normalize_to_multiplier",
        _count_failed("solver.normalize_to_multiplier", lambda witness: witness is None),
        False,
    ),
    "propagation_certifier": ("solver.propagation_certifier", _count_rounds, False),
    "generate_instances": ("harness.generate_instances", None, False),
    "verify_theorem": ("harness.verify_theorem", None, False),
    "report_to_json": ("harness.report_to_json", _count_bytes, False),
    "report_to_csv": ("harness.report_to_csv", None, False),
    "load_report": ("harness.load_report", None, False),
}


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self.spans: dict[tuple[str, str | None], list] = {}  # (name, parent) -> [calls, total s, self s]
        self.counts: Counter = Counter()

    def wrap(self, fn, name, count=None, leaf_only=False):
        stack = self._stack
        spans = self.spans
        counts = self.counts

        def traced(*args, **kwargs):
            if leaf_only and (not stack or stack[-1][0] != SEARCH):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                entry = spans.setdefault((name, parent[0] if parent else None), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if count is not None:
                count(counts, result, args, kwargs)
            return result

        return traced

    def calls(self, name, parent=...):
        return sum(v[0] for (n, p), v in self.spans.items() if n == name and (parent is ... or p == parent))

    def self_s(self, name, parent=...):
        return sum(v[2] for (n, p), v in self.spans.items() if n == name and (parent is ... or p == parent))

    @contextmanager
    def installed(self, cp):
        """Swap wrappers into every circpart module namespace that binds a wrapped function.

        Names that circpart no longer exports are skipped; their metrics read 0.
        """
        prefix = cp.__name__ + "."
        modules = [m for key, m in sys.modules.items() if key == cp.__name__ or key.startswith(prefix)]
        originals = {}
        for fname, (span, count, leaf_only) in WRAPPED.items():
            fn = getattr(cp, fname, None)
            if fn is None:
                continue
            # generate_instances is a generator: drain it inside the span so its work is timed there.
            target = _drained(fn) if fname == "generate_instances" else fn
            traced = self.wrap(target, span, count, leaf_only)
            for module in modules:
                if getattr(module, fname, None) is fn:
                    originals[(module, fname)] = fn
                    setattr(module, fname, traced)
        try:
            yield self
        finally:
            for (module, fname), fn in originals.items():
                setattr(module, fname, fn)
