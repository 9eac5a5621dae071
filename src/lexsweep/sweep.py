"""Threshold sweeps: evaluate a measure across its whole threshold range.

Percent measures sweep 1..100; inter-document frequency sweeps 1 up to
the largest per-word document count found in the data.  Each sweep also
selects two operating points: the globally best F-measure, and the best
F-measure among rows whose fallout stays under a configurable cap.  F is
compared exactly, as the fraction 2·|E ∩ M| / (|E| + |M|), and the
smallest threshold wins a tie.

A row needs only two counts, |E| and |E ∩ M|, so a sweep never builds an
extraction per threshold (the sort-once ROC sweep of Fawcett 2006).  Every
measure reads both from its cached ranking: ends[t] and the gold count
hits[t], the same table extract gives each extraction.  The two selected
rows are then rebuilt by extract + evaluate, as a check, and their |E ∩ M|
is counted again from the extraction, so a wrong table is caught too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


def _f_fraction(row: MetricsRow) -> tuple[int, int]:
    """F exactly, as 2·|E ∩ M| / (|E| + |M|), and 1 when E and M are both empty."""
    total = row.extracted_size + row.gold_size
    return (2 * row.true_positives, total) if total else (1, 1)


def best_row(rows: Iterable[MetricsRow], fallout_cap: float | None = None) -> MetricsRow | None:
    """The first row of highest F, compared exactly, among those whose
    fallout is within the cap; None if none is.  Float F can round two
    equal fractions apart, so it is not what is compared."""
    best, best_num, best_den = None, 0, 1
    for row in rows:
        if fallout_cap is not None and row.fallout > fallout_cap:
            continue
        num, den = _f_fraction(row)
        if best is None or num * best_den > best_num * den:
            best, best_num, best_den = row, num, den
    return best


def _check(index: CorpusIndex, row: MetricsRow | None) -> None:
    if row is None:
        return
    spec = MeasureSpec(kind=row.measure, threshold=row.threshold)
    extracted = extract(index, spec)
    if (
        evaluate(extracted, index.gold, index.words, spec) != row
        or len(extracted & index.gold) != row.true_positives
    ):
        raise RuntimeError(f"counted sweep row disagrees with extract + evaluate at {spec}")


def _sweep_index(index: CorpusIndex, kind: Measure, fallout_cap: float) -> SweepResult:
    universe_size, gold_size = len(index.words), len(index.gold)
    ends, _, hits, _ = ranking(index, kind)
    rows = tuple(
        score(MeasureSpec(kind=kind, threshold=t), ends[t], hits[t], universe_size, gold_size)
        for t in threshold_range(kind, index)
    )
    best = best_row(rows)
    assert best is not None  # range is non-empty whenever the universe is
    best_under_cap = best_row(rows, fallout_cap)
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
