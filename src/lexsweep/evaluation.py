"""Precision, recall, F-measure, and fallout for an extracted lexicon.

All metrics are plain set-overlap ratios against the gold lexicon within
the universe, so score computes them from four counts.  Its
division-by-zero conventions are explicit: an empty extraction scores
precision 1.0 against an empty gold set and 0.0 otherwise, recall of an
empty gold set is 1.0, and fallout is 0.0 when the universe equals the
gold set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lexicon import Lexicon
from .measures import Measure, MeasureSpec


@dataclass(frozen=True)
class MetricsRow:
    """One evaluated (measure, threshold) operating point."""

    measure: Measure
    threshold: int
    precision: float
    recall: float
    f_measure: float
    fallout: float
    extracted_size: int
    true_positives: int
    universe_size: int
    gold_size: int


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0.0 when both are 0."""
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def evaluate(
    extracted: Lexicon, gold: Lexicon, universe: Lexicon, spec: MeasureSpec
) -> MetricsRow:
    """Score an extracted lexicon against the gold lexicon within the universe.

    Both extracted and gold must be subsets of the universe; fallout is the
    share of non-gold vocabulary wrongly extracted.
    """
    if not extracted <= universe:
        stray = sorted(extracted - universe)[:5]
        raise ValueError(f"extracted lexicon is not a subset of the universe: {stray}")
    if not gold <= universe:
        stray = sorted(gold - universe)[:5]
        raise ValueError(f"gold lexicon is not a subset of the universe: {stray}")

    return score(spec, len(extracted), len(extracted & gold), len(universe), len(gold))


def score(
    spec: MeasureSpec,
    extracted_size: int,
    true_positives: int,
    universe_size: int,
    gold_size: int,
) -> MetricsRow:
    """Score an extraction from its counts |E|, |E ∩ M|, |U| and |M|.

    This is the one place the division-by-zero conventions live; evaluate
    and the threshold sweeps both score through it.
    """
    if extracted_size:
        precision = true_positives / extracted_size
    else:
        precision = 1.0 if not gold_size else 0.0
    recall = true_positives / gold_size if gold_size else 1.0
    non_gold = universe_size - gold_size
    false_positives = extracted_size - true_positives
    fallout = false_positives / non_gold if non_gold else 0.0

    return MetricsRow(
        measure=spec.kind,
        threshold=spec.threshold,
        precision=precision,
        recall=recall,
        f_measure=f_measure(precision, recall),
        fallout=fallout,
        extracted_size=extracted_size,
        true_positives=true_positives,
        universe_size=universe_size,
        gold_size=gold_size,
    )
