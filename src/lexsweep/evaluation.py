"""Precision, recall, F-measure, and fallout for an extracted lexicon.

All metrics are plain set-overlap ratios against the gold lexicon within
the universe, so score computes them from four counts.  Its
division-by-zero conventions are explicit: an empty extraction scores
precision 1.0 against an empty gold set and 0.0 otherwise, recall of an
empty gold set is 1.0, and fallout is 0.0 when the universe equals the
gold set.

evaluate checks that E and M are subsets of U, and counts |E ∩ M|, on
every call, except for an extraction from measures.extract scored on its
own index: U is the index's words and M its gold or a frozenset equal to
it.  Its ranking proved E ⊆ U and M ⊆ U once per measure, from the count
table it builds, and |E ∩ M| comes with the extraction, so such a point
costs building E and nothing more.  The last gold found equal to an
extraction's gold is held by weak references, so an equal copy is compared
once.  Any other input, a mutable set included, is checked and counted
again on each call.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .lexicon import Lexicon
from .measures import Measure, MeasureSpec, _Extraction


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


# The last gold found equal to an extraction's own gold, and that own
# gold, held by weak references (frozensets, so they stay equal while both
# live).
_equal_gold: tuple[weakref.ref, weakref.ref] | None = None


def _check_subset(name: str, words: Lexicon, universe: Lexicon) -> None:
    if not words <= universe:
        stray = sorted(words - universe)[:5]
        raise ValueError(f"{name} lexicon is not a subset of the universe: {stray}")


def _is_own_gold(gold: Lexicon, own: Lexicon) -> bool:
    """Whether gold is the extraction's own gold or a frozenset equal to it."""
    global _equal_gold
    if gold is own:
        return True
    memo = _equal_gold
    if memo is not None and memo[0]() is gold and memo[1]() is own:
        return True
    if type(gold) is not frozenset or gold != own:
        return False
    _equal_gold = weakref.ref(gold), weakref.ref(own)
    return True


def evaluate(
    extracted: Lexicon, gold: Lexicon, universe: Lexicon, spec: MeasureSpec
) -> MetricsRow:
    """Score an extracted lexicon against the gold lexicon within the universe.

    Both extracted and gold must be subsets of the universe; fallout is the
    share of non-gold vocabulary wrongly extracted.  An extraction scored
    on its own index skips both checks and the count (see the module
    docstring).
    """
    if (
        type(extracted) is _Extraction
        and universe is extracted.universe
        and _is_own_gold(gold, extracted.gold)
    ):
        true_positives = extracted.hits
    else:
        _check_subset("extracted", extracted, universe)
        _check_subset("gold", gold, universe)
        true_positives = len(extracted & gold)
    return score(spec, len(extracted), true_positives, len(universe), len(gold))


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
