"""In-memory spans around ``probud``'s public functions, for the traced run.

:func:`traced` replaces each function in :data:`TRACED` at every module
attribute of the ``probud`` package that refers to it (so
``probud.oracle.check_axiom`` is wrapped as well as
``probud.axioms.check_axiom``) and puts every attribute back when it
exits.  A span records its name, start, end, parent span and request id.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

#: Wrapped functions, as ``<module>.<function>`` in their home module.
TRACED = (
    "cli.main",
    "harness.parse_instance_file",
    "model.normalize",
    "rules.gpseq",
    "rules.min_max_load",
    "rules.greedy_bjr_l",
    "rules.bpjr_construct",
    "axioms.check_axiom",
    "axioms.evaluate_axioms",
    "oracle.enumerate_feasible",
    "oracle.certify_existence",
    "oracle.verify_implications",
)

#: A number taken from a function's result and stored on its span.
OBSERVE = {
    "rules.gpseq": lambda result: len(result[1].steps),  # picks
    "axioms.check_axiom": lambda result: int(not result.satisfied),  # violations
    "oracle.enumerate_feasible": len,  # budgets
}

PACKAGE = "probud"


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "value")

    def __init__(self, name, start, end, parent, request, value=None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.request, self.value = parent, request, value

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``request`` is stamped on every span opened."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.request = None
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = Span(name, clock(), None, stack[-1] if stack else None, self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    span.value = observe(result)
                return result
            finally:
                span.end = clock()
                stack.pop()

        return traced_call

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        with path.open("w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                      "parent": s.parent, "request": s.request, "value": s.value}) + "\n")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def traced(tracer: Tracer, names=TRACED):
    """Wrap every function in ``names`` while the block runs.

    Yields the names that could not be found (a layer that no longer
    exists reports zero calls rather than stopping the run).
    """
    patches = []
    missing = []
    try:
        modules = _package_modules()
        for name in names:
            home_name, attr = name.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{home_name}")
            fn = getattr(home, attr, None)
            if fn is None:
                missing.append(name)
                continue
            wrapper = tracer.wrap(name, fn, OBSERVE.get(name))
            sites = [(m, key) for m in modules for key, value in vars(m).items() if value is fn]
            for module, key in sites:
                patches.append((module, key, fn))
                setattr(module, key, wrapper)
        yield missing
    finally:
        for module, key, fn in reversed(patches):
            setattr(module, key, fn)


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(kids) for s, kids in zip(spans, children)]


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], requests: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase of ``requests`` requests.

    Counts and self times are per request, so they compare across
    commits whose runs complete different numbers of requests.  A layer
    with no calls reports 0.
    """
    selfs = self_times(spans)
    calls = {name: 0 for name in TRACED}
    self_s = {name: 0.0 for name in TRACED}
    inclusive = {name: 0.0 for name in TRACED}
    values = {name: 0 for name in OBSERVE}
    kernel_in_gpseq = 0
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        self_s[span.name] += own
        if not _has_ancestor(spans, span, span.name):
            inclusive[span.name] += span.duration
        if span.value is not None:
            values[span.name] += span.value
        if span.name == "rules.min_max_load" and _has_ancestor(spans, span, "rules.gpseq"):
            kernel_in_gpseq += 1
    per = 1.0 / max(requests, 1)
    total = inclusive["cli.main"] or 1.0
    out: dict[str, tuple[float, str]] = {}
    for name in TRACED:
        out[f"{name}.calls"] = (calls[name] * per, "calls/req")
        out[f"{name}.self_s"] = (self_s[name] * per, "s/req")
    picks = values["rules.gpseq"]
    out["rules.gpseq.loads_per_pick"] = (kernel_in_gpseq / picks if picks else 0.0, "calls/pick")
    checks = calls["axioms.check_axiom"]
    out["axioms.check_axiom.violated_ratio"] = (values["axioms.check_axiom"] / checks if checks else 0.0, "ratio")
    out["oracle.enumerate_feasible.budgets"] = (values["oracle.enumerate_feasible"] * per, "budgets/req")
    out["rules.min_max_load.share"] = (inclusive["rules.min_max_load"] / total, "ratio")
    out["axioms.checkers.share"] = (
        (inclusive["axioms.check_axiom"] + inclusive["axioms.evaluate_axioms"]) / total, "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
