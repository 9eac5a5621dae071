"""Extraction measures: map a frequency index and a threshold to a lexicon.

Four measures are implemented.  Collection frequency takes the top n% of
words by corpus-wide frequency; document frequency unions the top n% of
each document; tf.idf unions the top n% of each document scored by
tf(w,d) * ln(N / df(w)); inter-document frequency keeps words occurring
in at least n documents.

A list is ranked by score descending, then word ascending (code-point
order), and its top n% keeps exactly ceil(n/100 * L) of its L words.  So
extractions are nested in the threshold and each word has one entry
threshold, the smallest percent that keeps it: 100*r // L + 1 for the
word at 0-based rank r, minimised over documents for document frequency
and tf.idf.  For inter-document frequency it is the word's document
count, read the other way, so that extraction is a filter of the counts.
Each percent measure's words are sorted once by entry threshold and cached
on the CorpusIndex, so each of its extractions is a prefix of that list.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterable

from .lexicon import CorpusIndex, Lexicon


class Measure(Enum):
    """The four extraction measures, valued by their CLI/file-name codes."""

    COLLECTION_FREQ = "cf"
    DOCUMENT_FREQ = "df"
    TFIDF = "tfidf"
    INTERDOC_FREQ = "idf"

    @property
    def label(self) -> str:
        return _LABELS[self]

    @property
    def is_percent(self) -> bool:
        """True when the threshold is a percentage, false for a document count."""
        return self is not Measure.INTERDOC_FREQ


_LABELS = {
    Measure.COLLECTION_FREQ: "Collection Frequency",
    Measure.DOCUMENT_FREQ: "Document Frequency",
    Measure.TFIDF: "tf.idf",
    Measure.INTERDOC_FREQ: "Inter-document Frequency",
}

@dataclass(frozen=True)
class MeasureSpec:
    """A measure plus its threshold: percent in [1,100], or a minimum
    document count >= 1 for INTERDOC_FREQ."""

    kind: Measure
    threshold: int

    def __post_init__(self) -> None:
        if self.kind.is_percent:
            if not 1 <= self.threshold <= 100:
                raise ValueError(
                    f"{self.kind.value} threshold must be a percent in [1, 100], "
                    f"got {self.threshold}"
                )
        elif self.threshold < 1:
            raise ValueError(
                f"idf threshold must be a document count >= 1, got {self.threshold}"
            )


def _enter(entries: dict[str, int], scored: Iterable[tuple[str, float]]) -> None:
    """Lower each word's entry threshold to its percent rank in one list."""
    ranked = sorted(scored, key=lambda pair: (-pair[1], pair[0]))
    length = len(ranked)
    for rank, (word, _) in enumerate(ranked):
        entries[word] = min(entries.get(word, 100), 100 * rank // length + 1)


def _ranking(index: CorpusIndex, kind: Measure) -> tuple[list[int], list[str]]:
    """ends[t], how many of a percent measure's words enter at or below t,
    and the words in order of entry threshold."""
    entries: dict[str, int] = {}
    if kind is Measure.COLLECTION_FREQ:
        _enter(entries, index.collection_freq.items())
    elif kind is Measure.DOCUMENT_FREQ:
        for doc_freq in index.per_document.values():
            _enter(entries, doc_freq.items())
    else:
        n, doc_counts = index.n_documents, index.doc_counts
        for doc_freq in index.per_document.values():
            _enter(entries, [(w, tf * math.log(n / doc_counts[w])) for w, tf in doc_freq.items()])
    sizes = Counter(entries.values())
    ends = list(accumulate((sizes[t] for t in range(1, 101)), initial=0))
    return ends, sorted(entries, key=entries.__getitem__)


def ranking(index: CorpusIndex, kind: Measure) -> tuple[list[int], list[str]]:
    """A percent measure's (ends, words), built on first use and cached on the index."""
    cached = index.rankings.get(kind)
    if cached is None:
        cached = index.rankings[kind] = _ranking(index, kind)
    return cached


def extract(index: CorpusIndex, spec: MeasureSpec) -> Lexicon:
    """The words a measure keeps at a threshold: a prefix of its ranking,
    or for INTERDOC_FREQ the words whose document count reaches it."""
    if spec.kind is Measure.INTERDOC_FREQ:
        return frozenset(w for w, count in index.doc_counts.items() if count >= spec.threshold)
    ends, words = ranking(index, spec.kind)
    return frozenset(words[: ends[spec.threshold]])
