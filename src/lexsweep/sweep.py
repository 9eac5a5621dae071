"""Threshold sweeps: evaluate a measure across its whole threshold range.

Percent measures sweep 1..100; inter-document frequency sweeps 1 up to
the largest per-word document count found in the data.  Each sweep also
selects two operating points: the globally best F-measure, and the best
F-measure among rows whose fallout stays under a configurable cap.

A row needs only two counts, |E| and |E ∩ M|, so a sweep never builds an
extraction per threshold (the sort-once ROC sweep of Fawcett 2006).  Every
measure reads both counts at ends[t] of its cached ranking, from a prefix
sum of gold membership.  The two selected rows are then rebuilt by
extract + evaluate, as a check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .evaluation import MetricsRow, evaluate, score
from .lexicon import CorpusIndex
from .measures import Measure, MeasureSpec, extract, ranking

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
    return range(1, len(ranking(index, kind)[0]))


def _best(rows, fallout_cap=None) -> MetricsRow | None:
    # Strictly-greater comparison keeps the smallest threshold on F ties.
    best = None
    for row in rows:
        if fallout_cap is not None and row.fallout > fallout_cap:
            continue
        if best is None or row.f_measure > best.f_measure:
            best = row
    return best


def _counts(index: CorpusIndex, kind: Measure) -> list[tuple[int, int]]:
    """(|E|, |E ∩ M|) at each threshold, ascending."""
    ends, words = ranking(index, kind)
    hits = list(accumulate(map(index.gold.__contains__, words), initial=0))
    return [(end, hits[end]) for end in ends[1:]]


def _check(index: CorpusIndex, row: MetricsRow | None) -> None:
    if row is None:
        return
    spec = MeasureSpec(kind=row.measure, threshold=row.threshold)
    if evaluate(extract(index, spec), index.gold, index.words, spec) != row:
        raise RuntimeError(f"counted sweep row disagrees with extract + evaluate at {spec}")


def _sweep_index(index: CorpusIndex, kind: Measure, fallout_cap: float) -> SweepResult:
    universe_size, gold_size = len(index.words), len(index.gold)
    rows = tuple(
        score(MeasureSpec(kind=kind, threshold=t), size, hits, universe_size, gold_size)
        for t, (size, hits) in zip(threshold_range(kind, index), _counts(index, kind), strict=True)
    )
    best = _best(rows)
    assert best is not None  # range is non-empty whenever the universe is
    best_under_cap = _best(rows, fallout_cap)
    _check(index, best)
    _check(index, best_under_cap)
    return SweepResult(
        measure=kind,
        rows=rows,
        best_f=best,
        best_f_under_cap=best_under_cap,
        fallout_cap=fallout_cap,
    )


def run_all_sweeps(
    index: CorpusIndex, fallout_cap: float = DEFAULT_FALLOUT_CAP
) -> list[SweepResult]:
    """Sweep all four measures over one index, in Measure order; the
    rankings they build stay cached on it for later extracts."""
    if not 0.0 <= fallout_cap <= 1.0:
        raise ValueError(f"fallout cap must be in [0, 1], got {fallout_cap}")
    if not index.words:
        raise ValueError("no content vocabulary")
    return [_sweep_index(index, kind, fallout_cap) for kind in Measure]
