"""Spans around calls into lexsweep's layers, recorded from outside the program.

A Tracer wraps each layer's public functions and rebinds every reference
to them inside the lexsweep package (for example cli.run_all_sweeps and
sweep.extract), so calls the program makes internally are caught too.
Spans stay in memory; uninstall() restores the original functions.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# (module, function) pairs whose calls are spans, named "<module>.<function>".
LAYER_FUNCTIONS = (
    ("corpus", "parse_corpus"),
    ("corpus", "load_corpus"),
    ("corpus", "compute_stats"),
    ("lexicon", "build_index"),
    ("lexicon", "build_gold"),
    ("lexicon", "build_universe"),
    ("measures", "extract"),
    ("evaluation", "evaluate"),
    ("sweep", "run_all_sweeps"),
    ("reporting", "write_report_bundle"),
    ("cli", "main"),
)
# spans that record which measure they ran
_BY_MEASURE = frozenset({"measures.extract", "evaluation.evaluate"})


@dataclass
class Span:
    name: str
    parent: Span | None
    start: float = 0.0
    end: float = 0.0
    children: list[Span] = field(default_factory=list)
    # the measure code for extract/evaluate spans, else ""
    measure: str = ""
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)


def _measure_of(args, kwargs) -> str:
    spec = kwargs.get("spec", args[-1] if args else None)
    kind = getattr(spec, "kind", None)
    return getattr(kind, "value", "")


def _counts(name: str, args, kwargs, result) -> dict[str, int]:
    """Work counts read at the boundary, from arguments and results."""
    if name == "measures.extract":
        return {"words": len(result)}
    if name == "sweep.run_all_sweeps":
        return {f"rows.{r.measure.value}": len(r.rows) for r in result}
    if name == "reporting.write_report_bundle":
        out_dir = Path(kwargs["out_dir"] if "out_dir" in kwargs else args[1])
        return {"bytes": sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())}
    return {}


class Tracer:
    """Collects spans for calls into the layers while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals: dict[str, object] = {}
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, measure=_measure_of(args, kwargs) if name in _BY_MEASURE else "")
            if parent is not None:
                parent.children.append(span)
            self.spans.append(span)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            span.counts = _counts(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function that exists and rebind all references to it."""
        wrappers = {}
        for module_name, function_name in LAYER_FUNCTIONS:
            module = importlib.import_module(f"lexsweep.{module_name}")
            fn = getattr(module, function_name, None)
            if fn is None:
                continue
            name = f"{module_name}.{function_name}"
            self._originals[name] = fn
            wrappers[id(fn)] = self._wrap(name, fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "lexsweep" and not module_name.startswith("lexsweep."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def original(self, name: str):
        """The unwrapped function, for calls that must not become spans."""
        return self._originals[name]

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

