"""Spans around calls into paldef's layers, installed from outside the package.

Each traced function is replaced, under every name a paldef module (or class)
binds it to, by a wrapper that records a span: its layer metric, the query it
belongs to, its parent span, and its start and end.  Self time is a span's
duration minus the time covered by its child spans.  Calls and self time are
summed as the run goes; the raw spans stay in memory, up to a cap, and are
written out once the run ends.

Printing functions are wrapped only where other modules call them (and as
the `__str__` of formula classes), so their own recursion is one span.
`checker.evaluate` is wrapped in its home module too, so its recursive calls
are spans of their own, as are calls between functions of one module such as
`models.validate` -> `models.unravel`.
"""

from __future__ import annotations

import sys
import time

_STR_CLASSES = ("Neg", "And", "AtomF", "EquivF", "NegF", "AndF", "BoxF", "AnnF", "KdF", "DefIsF")

# layer metric -> [(home module, attribute path, wrap in the home module too)]
TARGETS: dict[str, list[tuple[str, str, bool]]] = {
    "syntax.parse": [("syntax", "parse_form", True), ("syntax", "parse_bool", True)],
    "syntax.print": [("syntax", "text_of_form", False), ("syntax", "text_of_bool", False)]
                    + [("syntax", f"{cls}.__str__", True) for cls in _STR_CLASSES],
    "models.successors": [("models", "Premodel.successors", True)],
    "models.unravel": [("models", "unravel", True)],
    "models.restrict": [("models", "restrict", True)],
    "models.validate": [("models", "validate", True)],
    "checker.evaluate": [("checker", "evaluate", True)],
    "checker.eval_global": [("checker", "eval_global", True)],
    "definitions.literal_sat": [("definitions", "literal_sat", True)],
    "definitions.assert_equiv": [("definitions", "DefState.assert_equiv", True)],
    "definitions.resolve": [("definitions", "DefState.resolve", True)],
    "proof.satisfiable": [("proof", "satisfiable", True)],
    "proof.reduce_announcements": [("proof", "reduce_announcements", True)],
    "proof.is_tautology": [("proof", "is_tautology", True)],
    "proof.is_axiom_instance": [("proof", "is_axiom_instance", True)],
    "proof.witness_to_proof": [("proof", "witness_to_proof", True)],
    "proof.verify_proof": [("proof", "verify_proof", True)],
    "cli.main": [("cli", "main", True)],
}

# ratio metrics: layer -> (metric name, test on the call's result)
OUTCOMES = {
    "definitions.literal_sat": ("sat_ratio", lambda result: result.satisfiable),
    "proof.verify_proof": ("accept_ratio", lambda result: result.ok),
}

MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.layers = list(TARGETS)
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.positive = [0] * len(self.layers)
        self.query = -1
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.span_count = 0
        self._child_time: list[float] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset_totals(self) -> None:
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.positive = [0] * len(self.layers)

    def totals(self) -> dict[str, tuple[int, float, int]]:
        return {layer: (self.calls[i], self.self_s[i], self.positive[i])
                for i, layer in enumerate(self.layers)}

    def _wrap(self, fn, index: int, outcome):
        clock = time.perf_counter
        child_time = self._child_time
        open_spans = self._open
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer.span_count
            tracer.span_count += 1
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(span_id)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                tracer.self_s[index] += duration - child_time.pop()
                tracer.calls[index] += 1
                open_spans.pop()
                if child_time:
                    child_time[-1] += duration
                if span_id < MAX_SPANS:
                    spans.append((span_id, index, tracer.query, parent, start, end))
            if outcome is not None and outcome(result):
                tracer.positive[index] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "paldef") -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        for index, layer in enumerate(self.layers):
            outcome = OUTCOMES.get(layer, (None, None))[1]
            for home_name, path, wrap_home in TARGETS[layer]:
                home = sys.modules[f"{package}.{home_name}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(home, cls_name)
                    self._patch(owner, attr, self._wrap(owner.__dict__[attr], index, outcome))
                    continue
                original = getattr(home, path)
                wrapper = self._wrap(original, index, outcome)
                for module in modules:
                    if module is home and not wrap_home:
                        continue
                    if module.__dict__.get(path) is original:
                        self._patch(module, path, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Spans as CSV: id, layer, query, parent id, start and end in µs."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(f"# spans {self.span_count}, kept {len(self.spans)}\n")
            out.write("id,layer,query,parent,start_us,end_us\n")
            for span_id, index, query, parent, start, end in self.spans:
                out.write(f"{span_id},{self.layers[index]},{query},{parent},"
                          f"{start * 1e6:.1f},{end * 1e6:.1f}\n")
