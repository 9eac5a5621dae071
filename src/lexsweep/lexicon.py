"""Word-key normalization and lexicon construction.

Tokens are reduced to normalized word keys (lemma or surface, optionally
case-folded), restricted to content POS tags, and filtered against a
stopword list.  One pass over those keys, build_index, yields the
frequency index the extraction measures consume; the index also carries
the full vocabulary (the universe) and the gold vocabulary (keys seen in
annotated sentences).
"""

from __future__ import annotations

import os
import warnings
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import IO, Union

from .corpus import Corpus, CorpusWarning, Token

# A lexicon is just a set of normalized word keys.
Lexicon = frozenset[str]

DEFAULT_CONTENT_POS = frozenset({"VERB", "NOUN"})

_UNSEEN = object()


class WordKeySource(Enum):
    """Which token field becomes the word key."""

    LEMMA_THEN_SURFACE = "lemma"
    SURFACE_ONLY = "surface"


@dataclass(frozen=True)
class FilterConfig:
    """Stopword list, content POS tags, and key-normalization options."""

    stopwords: frozenset[str] = frozenset()
    content_pos: frozenset[str] = DEFAULT_CONTENT_POS
    word_key_source: WordKeySource = WordKeySource.LEMMA_THEN_SURFACE
    case_fold: bool = True

    def __post_init__(self) -> None:
        if not self.content_pos:
            raise ValueError("content_pos must not be empty")
        if not all(map(str.strip, self.content_pos)):
            raise ValueError("content_pos must not hold a blank tag")


@dataclass(frozen=True)
class CorpusIndex:
    """Per-word frequencies and the gold lexicon, over content, non-stopword tokens.

    collection_freq counts tokens corpus-wide; per_document holds one
    word->count table per document (empty documents included, so the
    key set equals the corpus document ids); doc_counts is the number
    of documents each word occurs in.  words is the universe U and gold
    the keys of annotated sentences, the gold lexicon M (a subset of U).
    rankings caches each measure's ranking and its gold counts, which
    extract and the sweep both read.
    """

    collection_freq: dict[str, int]
    per_document: dict[str, dict[str, int]]
    doc_counts: dict[str, int]
    gold: Lexicon

    @property
    def n_documents(self) -> int:
        return len(self.per_document)

    @cached_property
    def words(self) -> Lexicon:
        return frozenset(self.collection_freq)

    @cached_property
    def rankings(self) -> dict:
        """Each measure's Ranking, filled in on first use by measures.ranking."""
        return {}


def normalize(token: Token, config: FilterConfig) -> str | None:
    """Return the token's normalized word key, or None if filtered out.

    Non-content POS tags and stopwords are filtered; the stopword check
    runs on the normalized key.  A lemma that is blank after stripping is
    treated as absent, as the parser does, so the surface is used.
    """
    if token.pos not in config.content_pos:
        return None
    key = ""
    if config.word_key_source is WordKeySource.LEMMA_THEN_SURFACE and token.lemma:
        key = token.lemma.strip()
    if not key:
        key = token.surface.strip()
    if config.case_fold:
        key = key.casefold()
    if key in config.stopwords:
        return None
    return key


def build_universe(corpus: Corpus, config: FilterConfig) -> Lexicon:
    """All distinct content word keys across the corpus: build_index's words."""
    return build_index(corpus, config).words


def build_gold(corpus: Corpus, config: FilterConfig) -> Lexicon:
    """Distinct content word keys in annotated sentences: build_index's gold."""
    return build_index(corpus, config).gold


def build_index(corpus: Corpus, config: FilterConfig) -> CorpusIndex:
    """Single pass over the corpus collecting all per-word frequencies and the gold lexicon.

    normalize runs once per distinct Token object (the parser shares one
    Token among equal raw tokens).  Warns when the gold lexicon is empty
    (no annotated sentences, or all their tokens filtered).
    """
    collection: Counter[str] = Counter()
    per_document: dict[str, dict[str, int]] = {}
    doc_counts: Counter[str] = Counter()
    gold: set[str] = set()
    memo: dict[int, str | None] = {}

    for document in corpus.documents:
        keys: list[str] = []
        for sentence in document.sentences:
            start = len(keys)
            for token in sentence.tokens:
                key = memo.get(id(token), _UNSEEN)
                if key is _UNSEEN:
                    key = memo[id(token)] = normalize(token, config)
                if key is not None:
                    keys.append(key)
            if sentence.annotated:
                gold.update(keys[start:])
        doc_freq = Counter(keys)
        collection.update(keys)
        doc_counts.update(doc_freq.keys())
        per_document[document.id] = dict(doc_freq)

    if not gold:
        warnings.warn("gold lexicon is empty: no annotated content words", CorpusWarning)
    return CorpusIndex(
        collection_freq=dict(collection),
        per_document=per_document,
        doc_counts=dict(doc_counts),
        gold=frozenset(gold),
    )


def load_stopwords(source: Union[str, "os.PathLike[str]", IO[str]]) -> frozenset[str]:
    """Read a stopword file: one word per line, '#' lines are comments,
    and a leading byte-order mark is dropped.

    Entries are expected to already be in normalized form (the filter
    matches them against normalized keys).
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"stopword file {source} is not valid UTF-8: {exc}") from None
    words = set()
    for line in text.removeprefix("\ufeff").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        words.add(line)
    return frozenset(words)


def format_lexicon(words: Lexicon) -> str:
    """Render a lexicon as text: one word per line, sorted lexicographically."""
    return "".join(f"{word}\n" for word in sorted(words))
