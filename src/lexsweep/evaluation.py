"""Precision, recall, F-measure, and fallout for an extracted lexicon.

All metrics are plain set-overlap ratios against the gold lexicon within
the universe, so score computes them from four counts.  Its
division-by-zero conventions are explicit: an empty extraction scores
precision 1.0 against an empty gold set and 0.0 otherwise, recall of an
empty gold set is 1.0, and fallout is 0.0 when the universe equals the
gold set.

evaluate checks that E and M are subsets of U, and counts |E ∩ M|.  An
extraction from measures.extract skips both passes over E when scored on
its own index: E ⊆ U was checked once per measure when its ranking was
built, so it is skipped when U is the index's words, and |E ∩ M| comes
with the extraction when M is the index's gold or equal to it.  M ⊆ U is
checked once per pair of exact frozenset objects: the last pair that
passed is held by weak references, with the result of comparing its gold
with an extraction's gold, so a later call with the same two objects
skips both O(|M|) walks.  So a point on its own index costs building E,
and nothing more.  Any other input, a mutable set included, is checked
and counted again on each call.
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


# The last (gold, universe) pair of frozensets that passed the gold check,
# held by weak references (immutable, so the pair stays valid while both
# live), then the extraction gold it was last compared with and whether
# the two are equal.
_checked_pair: tuple[weakref.ref, weakref.ref, weakref.ref | None, bool] | None = None


def _check_subset(name: str, words: Lexicon, universe: Lexicon) -> None:
    if not words <= universe:
        stray = sorted(words - universe)[:5]
        raise ValueError(f"{name} lexicon is not a subset of the universe: {stray}")


def _check_gold(gold: Lexicon, universe: Lexicon) -> tuple | None:
    """Check M ⊆ U unless this pair passed last; the pair's slot, or None
    when the pair is not two frozensets and so is not recorded."""
    global _checked_pair
    checked = _checked_pair
    if checked is None or checked[0]() is not gold or checked[1]() is not universe:
        _check_subset("gold", gold, universe)
        if type(gold) is not frozenset or type(universe) is not frozenset:
            return None
        checked = _checked_pair = weakref.ref(gold), weakref.ref(universe), None, False
    return checked


def _is_own_gold(gold: Lexicon, checked: tuple | None, own: Lexicon) -> bool:
    """Whether gold is the extraction's own gold or equal to it, compared
    once per recorded pair."""
    global _checked_pair
    if gold is own:
        return True
    if checked is None:
        return False
    if checked[2] is None or checked[2]() is not own:
        checked = _checked_pair = *checked[:2], weakref.ref(own), gold == own
    return checked[3]


def evaluate(
    extracted: Lexicon, gold: Lexicon, universe: Lexicon, spec: MeasureSpec
) -> MetricsRow:
    """Score an extracted lexicon against the gold lexicon within the universe.

    Both extracted and gold must be subsets of the universe; fallout is the
    share of non-gold vocabulary wrongly extracted.  An extraction scored
    on its own index, and a gold and universe that passed the gold check
    last, skip the walks they need not repeat (see the module docstring).
    """
    own = type(extracted) is _Extraction
    if not own or universe is not extracted.universe:
        _check_subset("extracted", extracted, universe)
    checked = _check_gold(gold, universe)
    if own and _is_own_gold(gold, checked, extracted.gold):
        true_positives = extracted.hits
    else:
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
