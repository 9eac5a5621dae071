"""Brute-force reference extraction, recomputed from raw tokens.

Shares only `normalize`, `Measure` and `MeasureSpec` with the package:
counting, df lookups, scoring and the top-n% cut (exact rational
arithmetic) are all reimplemented here, with no entry-threshold ranking.
Meant for small corpora, roughly up to 50 documents and 500 distinct
words.
"""

from __future__ import annotations

import math
from fractions import Fraction

from lexsweep import Corpus, FilterConfig, Lexicon, Measure, MeasureSpec, normalize


def _oracle_top(counts: dict[str, float], percent: int) -> set[str]:
    order = sorted(counts, key=lambda word: (-counts[word], word))
    keep = math.ceil(Fraction(percent, 100) * len(order))
    return set(order[:keep])


def oracle_extract(corpus: Corpus, config: FilterConfig, spec: MeasureSpec) -> Lexicon:
    """Reference extraction for property tests."""
    doc_keys: list[list[str]] = []
    for document in corpus.documents:
        keys = []
        for sentence in document.sentences:
            for token in sentence.tokens:
                key = normalize(token, config)
                if key is not None:
                    keys.append(key)
        doc_keys.append(keys)
    n_docs = len(doc_keys)

    if spec.kind is Measure.COLLECTION_FREQ:
        totals: dict[str, float] = {}
        for keys in doc_keys:
            for key in keys:
                totals[key] = totals.get(key, 0) + 1
        return frozenset(_oracle_top(totals, spec.threshold))

    if spec.kind is Measure.DOCUMENT_FREQ:
        union: set[str] = set()
        for keys in doc_keys:
            counts: dict[str, float] = {}
            for key in keys:
                counts[key] = counts.get(key, 0) + 1
            union |= _oracle_top(counts, spec.threshold)
        return frozenset(union)

    if spec.kind is Measure.TFIDF:
        doc_sets = [set(keys) for keys in doc_keys]
        union = set()
        for keys in doc_keys:
            tf: dict[str, int] = {}
            for key in keys:
                tf[key] = tf.get(key, 0) + 1
            scores = {}
            for word, count in tf.items():
                df = sum(1 for members in doc_sets if word in members)
                scores[word] = count * math.log(n_docs / df)
            union |= _oracle_top(scores, spec.threshold)
        return frozenset(union)

    # INTERDOC_FREQ: keep words present in at least `threshold` documents.
    doc_sets = [set(keys) for keys in doc_keys]
    vocabulary = set().union(*doc_sets) if doc_sets else set()
    return frozenset(
        word
        for word in vocabulary
        if sum(1 for members in doc_sets if word in members) >= spec.threshold
    )
