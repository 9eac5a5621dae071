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
keeps the word, its document count.  Each measure sorts its words by entry
threshold, and the ranking is cached on the CorpusIndex, so each
extraction is a prefix of it.

On its first use the cache also counts the gold words at each threshold,
one prefix sum of gold membership, and checks once that the index's words
hold every ranked word and that every gold word is ranked, so E ⊆ U and
M ⊆ U for each of its extractions.  extract and the sweep both read that
count table.  An extraction carries its count, so evaluate against its
own index's gold and words costs nothing beyond building E.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, islice
from operator import mul
from typing import Iterable, NamedTuple

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
        if not isinstance(self.kind, Measure):
            raise ValueError(f"unknown measure {self.kind!r}")
        if isinstance(self.threshold, bool) or not isinstance(self.threshold, int):
            raise ValueError(
                f"{self.kind.value} threshold must be an integer, got {self.threshold!r}"
            )
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
    """ends and words for the union of per-document ranked lists (df and
    tf.idf): the word at 0-based rank r of a list of L words enters at
    threshold 100*r // L + 1, and each word keeps its smallest threshold
    over the lists."""
    entry: dict[str, int] = {}
    for ranked in lists:
        length = len(ranked)
        for rank, word in enumerate(ranked):
            threshold = 100 * rank // length + 1
            if threshold < entry.get(word, 101):
                entry[word] = threshold
    sizes = Counter(entry.values())
    ends = list(accumulate((sizes[t] for t in range(1, 101)), initial=0))
    return ends, sorted(entry, key=entry.__getitem__)


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
        # One list is its own order of entry: ends[t] is ceil(t*L/100), the
        # count of ranks r with 100*r // L + 1 <= t.
        words = _by_score(index.collection_freq)
        return [-(-t * len(words) // 100) for t in range(101)], words
    if kind is Measure.DOCUMENT_FREQ:
        return _entries(map(_by_score, index.per_document.values()))
    n = index.n_documents
    idf = {word: math.log(n / count) for word, count in index.doc_counts.items()}
    return _entries(
        _by_score(dict(zip(doc_freq, map(mul, doc_freq.values(), map(idf.__getitem__, doc_freq)))))
        for doc_freq in index.per_document.values()
    )


class Ranking(NamedTuple):
    """A measure's words in order of entry, so that words[:ends[t]] is its
    extraction at threshold t and hits[t] the number of gold words in it;
    universe is the index's words when they hold every ranked word and
    every gold word is ranked, so that both E and M lie within it, else None."""

    ends: list[int]
    words: list[str]
    hits: list[int]
    universe: Lexicon | None


def ranking(index: CorpusIndex, kind: Measure) -> Ranking:
    """A measure's Ranking, built on first use and cached on the index."""
    cached = index.rankings.get(kind)
    if cached is None:
        ends, words = _ranking(index, kind)
        gold = list(accumulate(map(index.gold.__contains__, words), initial=0))
        within = gold[-1] == len(index.gold) and index.words.issuperset(words)
        cached = index.rankings[kind] = Ranking(
            ends, words, [gold[end] for end in ends], index.words if within else None
        )
    return cached


class _Extraction(frozenset):
    """An extracted lexicon that also carries, for evaluate, the universe
    its ranking proved it and its index's gold lie within (None if not),
    that gold, and its count of gold words.  It equals, hashes and
    combines like the plain frozenset of its words, and pickles and
    copies as one, so the index's sets never travel with it."""

    __slots__ = ("universe", "gold", "hits")

    def __reduce__(self):
        return frozenset, (list(self),)


def extract(index: CorpusIndex, spec: MeasureSpec) -> Lexicon:
    """The words a measure keeps at a threshold: a prefix of its ranking,
    read in place without copying the list, and empty for an idf threshold
    above every word's document count.  The result carries its gold count,
    so evaluating it against index.gold within index.words adds no pass
    over it."""
    ends, words, hits, universe = ranking(index, spec.kind)
    if spec.threshold >= len(ends):
        return frozenset()
    extraction = _Extraction(islice(words, ends[spec.threshold]))
    extraction.universe, extraction.gold = universe, index.gold
    extraction.hits = hits[spec.threshold]
    return extraction
