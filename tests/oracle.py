"""Brute-force references: corpus parse, lexicons and extraction.

`oracle_parse` decodes the whole text with `json.loads` and then converts
it with converters of its own: every token is checked on its own, with
no table, and equal tokens are then shared by value.  It shares only the
message helpers (`_require`, `_check_utf8`, `_warn_unknown_fields`) and
the tree classes with the package, so it is the reference both for how
`parse_corpus` reports errors and warnings and for its token table.  The rest
shares only `normalize`, `Measure` and `MeasureSpec` with the package:
the universe and gold walks (one normalize call per token, no memo),
counting, df lookups, scoring and the top-n% cut (exact rational
arithmetic) are all reimplemented here, with no entry-threshold ranking.
Meant for small corpora, roughly up to 50 documents and 500 distinct
words.
"""

from __future__ import annotations

import json
import math
import warnings
from fractions import Fraction
from typing import Iterator

from lexsweep import FilterConfig, Measure, MeasureSpec
from lexsweep.corpus import (
    _CORPUS_FIELDS,
    _DOCUMENT_FIELDS,
    _SENTENCE_FIELDS,
    _TOKEN_FIELDS,
    Corpus,
    CorpusParseError,
    CorpusValidationError,
    CorpusWarning,
    Document,
    Sentence,
    Token,
    _check_utf8,
    _require,
    _warn_unknown_fields,
)
from lexsweep.lexicon import Lexicon, normalize


def sentences(corpus: Corpus) -> Iterator[Sentence]:
    """Every sentence in corpus order."""
    for document in corpus.documents:
        yield from document.sentences


def oracle_parse(text: str) -> Corpus:
    """parse_corpus by decoding the whole text with json.loads first, then converting."""
    warned: list[str] = []
    try:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CorpusParseError(
                f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError as exc:
            raise CorpusParseError("JSON nesting is too deep to parse") from exc
        except ValueError as exc:
            raise CorpusParseError(f"malformed JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise CorpusValidationError("top-level corpus value must be an object")
        _warn_unknown_fields(data, _CORPUS_FIELDS, "corpus", warned)
        name = _require(data, "name", str, "corpus")
        raw_documents = _require(data, "documents", list, "corpus")
        shared: dict[Token, Token] = {}
        documents = tuple(
            _oracle_document(d, f"documents[{i}]", shared, warned)
            for i, d in enumerate(raw_documents)
        )
        return Corpus(name=name, documents=documents)
    finally:
        for message in warned:
            warnings.warn(message, CorpusWarning)


def _oracle_document(obj, where: str, shared: dict[Token, Token], warned: list[str]) -> Document:
    if not isinstance(obj, dict):
        raise CorpusValidationError(f"document in {where} must be an object")
    doc_id = _require(obj, "id", str, where)
    here = f"document {doc_id!r}"
    _warn_unknown_fields(obj, _DOCUMENT_FIELDS, here, warned)
    raw_sentences = _require(obj, "sentences", list, here)
    return Document(
        id=doc_id,
        sentences=tuple(_oracle_sentence(s, here, shared, warned) for s in raw_sentences),
    )


def _oracle_sentence(obj, where: str, shared: dict[Token, Token], warned: list[str]) -> Sentence:
    if not isinstance(obj, dict):
        raise CorpusValidationError(f"sentence in {where} must be an object")
    sent_id = _require(obj, "id", str, where)
    here = f"{where}, sentence {sent_id!r}"
    _warn_unknown_fields(obj, _SENTENCE_FIELDS, here, warned)
    annotated = _require(obj, "annotated", bool, here)
    message_type = obj.get("message_type")
    if message_type is not None and not isinstance(message_type, str):
        raise CorpusValidationError(f"field 'message_type' in {here} must be a string")
    if message_type is not None:
        _check_utf8(message_type, "message_type", here)
    raw_tokens = _require(obj, "tokens", list, here)
    if not raw_tokens:
        warned.append(f"empty sentence {sent_id!r} in {where}")
    tokens = tuple(
        _oracle_token(t, f"{here}, token {i}", shared, warned) for i, t in enumerate(raw_tokens)
    )
    try:
        return Sentence(id=sent_id, annotated=annotated, tokens=tokens, message_type=message_type)
    except CorpusValidationError as exc:
        raise CorpusValidationError(f"{exc} in {where}") from None


def _oracle_token(obj, where: str, shared: dict[Token, Token], warned: list[str]) -> Token:
    """Every check on this token alone; then the first Token equal to it."""
    if not isinstance(obj, dict):
        raise CorpusValidationError(f"token in {where} must be an object")
    _warn_unknown_fields(obj, _TOKEN_FIELDS, where, warned)
    surface = _require(obj, "surface", str, where).strip()
    pos = _require(obj, "pos", str, where).strip()
    lemma = obj.get("lemma")
    if lemma is not None and not isinstance(lemma, str):
        raise CorpusValidationError(f"field 'lemma' in {where} must be a string")
    if lemma is not None:
        lemma = _check_utf8(lemma, "lemma", where).strip() or None
    try:
        token = Token(surface=surface, pos=pos, lemma=lemma)
    except CorpusValidationError as exc:
        raise CorpusValidationError(f"{exc} in {where}") from None
    return shared.setdefault(token, token)


def oracle_universe(corpus: Corpus, config: FilterConfig) -> Lexicon:
    """Every content word key in the corpus."""
    keys = {
        normalize(token, config)
        for sentence in sentences(corpus)
        for token in sentence.tokens
    }
    return frozenset(keys - {None})


def oracle_gold(corpus: Corpus, config: FilterConfig) -> Lexicon:
    """Every content word key in an annotated sentence."""
    keys = {
        normalize(token, config)
        for sentence in sentences(corpus)
        if sentence.annotated
        for token in sentence.tokens
    }
    return frozenset(keys - {None})


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
