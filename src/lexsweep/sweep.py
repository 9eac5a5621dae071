"""Threshold sweeps: evaluate a measure across its whole threshold range.

Percent measures sweep 1..100; inter-document frequency sweeps 1 up to
the largest per-word document count found in the data.  Each sweep also
selects two operating points: the globally best F-measure, and the best
F-measure among rows whose fallout stays under a configurable cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus
from .evaluation import MetricsRow, evaluate
from .lexicon import CorpusIndex, FilterConfig, build_index
from .measures import Measure, MeasureSpec, extract

DEFAULT_FALLOUT_CAP = 0.10


@dataclass(frozen=True)
class SweepResult:
    """All evaluated rows for one measure, ascending by threshold."""

    measure: Measure
    rows: tuple[MetricsRow, ...]
    best_f: MetricsRow
    best_f_under_cap: MetricsRow | None
    fallout_cap: float


def threshold_range(kind: Measure, index: CorpusIndex) -> range:
    """Full threshold range for a measure over the given index."""
    if kind.is_percent:
        return range(1, 101)
    return range(1, index.max_doc_count + 1)


def _best(rows, fallout_cap=None) -> MetricsRow | None:
    # Strictly-greater comparison keeps the smallest threshold on F ties.
    best = None
    for row in rows:
        if fallout_cap is not None and row.fallout > fallout_cap:
            continue
        if best is None or row.f_measure > best.f_measure:
            best = row
    return best


def _sweep_index(index: CorpusIndex, kind: Measure, fallout_cap: float) -> SweepResult:
    gold, universe = index.gold, index.words
    rows = []
    for threshold in threshold_range(kind, index):
        spec = MeasureSpec(kind=kind, threshold=threshold)
        rows.append(evaluate(extract(index, spec), gold, universe, spec))
    best = _best(rows)
    assert best is not None  # range is non-empty whenever the universe is
    return SweepResult(
        measure=kind,
        rows=tuple(rows),
        best_f=best,
        best_f_under_cap=_best(rows, fallout_cap),
        fallout_cap=fallout_cap,
    )


def run_all_sweeps(
    corpus: Corpus,
    config: FilterConfig,
    fallout_cap: float = DEFAULT_FALLOUT_CAP,
) -> list[SweepResult]:
    """Sweep all four measures over a shared index, in Measure order."""
    if not 0.0 <= fallout_cap <= 1.0:
        raise ValueError(f"fallout cap must be in [0, 1], got {fallout_cap}")
    index = build_index(corpus, config)
    if not index.words:
        raise ValueError("no content vocabulary")
    return [_sweep_index(index, kind, fallout_cap) for kind in Measure]
