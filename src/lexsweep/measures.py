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
and tf.idf.  For inter-document frequency it is the largest threshold that
keeps the word, its document count.  A percent measure sorts each list
by word and then, stably, by score, and puts each word in the bucket of
the threshold at which that list admits it; merged in threshold order, the
buckets give the measure's words in order of entry.  Inter-document
frequency sorts its words by document count.  The ranking is cached on the
CorpusIndex, so each extraction is a prefix of it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, islice
from operator import mul
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


def _by_score(scores: dict[str, float]) -> list[str]:
    """A list's words by score descending, then word ascending: a stable
    sort by word, then a stable sort by score (reverse keeps it stable)."""
    return sorted(sorted(scores), key=scores.__getitem__, reverse=True)


def _entries(lists: Iterable[list[str]]) -> tuple[list[int], list[str]]:
    """ends and words for the union of ranked lists.  Bucket t holds the
    words each list adds at threshold t, ranked[ceil((t-1)L/100):ceil(tL/100)];
    merged in order of t, a word keeps its place from its first bucket."""
    buckets: list[list[str]] = [[] for _ in range(100)]
    for ranked in lists:
        length = len(ranked)
        cuts = [-(-t * length // 100) for t in range(101)]
        for bucket, start, end in zip(buckets, cuts, cuts[1:]):
            bucket += ranked[start:end]
    entries: dict[str, None] = {}
    ends = [0]
    for bucket in buckets:
        entries.update(dict.fromkeys(bucket))
        ends.append(len(entries))
    return ends, list(entries)


def _ranking(index: CorpusIndex, kind: Measure) -> tuple[list[int], list[str]]:
    """ends[t], how many words a measure keeps at threshold t, and the words
    in order of entry, so that words[:ends[t]] is its extraction at t."""
    if kind is Measure.INTERDOC_FREQ:
        counts = index.doc_counts
        sizes = Counter(counts.values())
        # ends[t] counts the words in at least t documents
        kept = accumulate(sizes[t] for t in range(max(sizes, default=0), -1, -1))
        return list(kept)[::-1], sorted(counts, key=counts.__getitem__, reverse=True)
    if kind is Measure.COLLECTION_FREQ:
        return _entries([_by_score(index.collection_freq)])
    if kind is Measure.DOCUMENT_FREQ:
        return _entries(map(_by_score, index.per_document.values()))
    n = index.n_documents
    idf = {word: math.log(n / count) for word, count in index.doc_counts.items()}
    return _entries(
        _by_score(dict(zip(doc_freq, map(mul, doc_freq.values(), map(idf.__getitem__, doc_freq)))))
        for doc_freq in index.per_document.values()
    )


def ranking(index: CorpusIndex, kind: Measure) -> tuple[list[int], list[str]]:
    """A measure's (ends, words), built on first use and cached on the index."""
    cached = index.rankings.get(kind)
    if cached is None:
        cached = index.rankings[kind] = _ranking(index, kind)
    return cached


def extract(index: CorpusIndex, spec: MeasureSpec) -> Lexicon:
    """The words a measure keeps at a threshold: a prefix of its ranking,
    read in place without copying the list, and empty for an idf threshold
    above every word's document count."""
    ends, words = ranking(index, spec.kind)
    if spec.threshold >= len(ends):
        return frozenset()
    return frozenset(islice(words, ends[spec.threshold]))
