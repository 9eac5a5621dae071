"""Corpus interchange format: documents, sentences, POS-tagged tokens.

A corpus arrives pre-tokenized, pre-lemmatized and pre-POS-tagged as UTF-8
JSON; this module parses and validates it into an immutable object tree.
No linguistic analysis happens here.

Within one parsed corpus, raw tokens with the same surface, POS and lemma
values share one immutable Token object, so each distinct token is
checked once and later passes can work per distinct token.
"""

from __future__ import annotations

import gc
import json
import warnings
from dataclasses import dataclass
from typing import IO, Any, Union


class CorpusError(Exception):
    """Base class for corpus loading problems."""


class CorpusParseError(CorpusError):
    """Raised when the input is not syntactically valid corpus JSON."""


class CorpusValidationError(CorpusError):
    """Raised when the input is well-formed JSON but violates an invariant."""


class CorpusWarning(UserWarning):
    """Non-fatal oddity in corpus data (empty sentence, unknown field)."""


@dataclass(frozen=True)
class Token:
    """One tagged token: surface form, optional lemma, POS tag."""

    surface: str
    pos: str
    lemma: str | None = None

    def __post_init__(self) -> None:
        if not self.surface.strip():
            raise CorpusValidationError("empty token surface")
        if not self.pos.strip():
            raise CorpusValidationError("empty token pos")


@dataclass(frozen=True)
class Sentence:
    """A sentence with its annotation flag and optional message-type label."""

    id: str
    annotated: bool
    tokens: tuple[Token, ...]
    message_type: str | None = None

    def __post_init__(self) -> None:
        if self.message_type is not None and not self.annotated:
            raise CorpusValidationError(
                f"sentence {self.id!r} carries message_type {self.message_type!r} "
                "but is not annotated"
            )


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[Sentence, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for sentence in self.sentences:
            if sentence.id in seen:
                raise CorpusValidationError(
                    f"duplicate sentence id {sentence.id!r} in document {self.id!r}"
                )
            seen.add(sentence.id)


@dataclass(frozen=True)
class Corpus:
    name: str
    documents: tuple[Document, ...]

    def __post_init__(self) -> None:
        if not self.documents:
            raise CorpusValidationError("corpus must contain at least one document")
        seen: set[str] = set()
        for document in self.documents:
            if document.id in seen:
                raise CorpusValidationError(f"duplicate document id {document.id!r}")
            seen.add(document.id)

    def sentences(self):
        """Iterate over (document, sentence) pairs in corpus order."""
        for document in self.documents:
            for sentence in document.sentences:
                yield document, sentence


@dataclass(frozen=True)
class CorpusStats:
    """Corpus-level counts, including distinct content words in and out of messages."""

    n_documents: int
    n_tokens: int
    n_sentences: int
    n_annotated_sentences: int
    n_distinct_vn_corpus: int
    n_distinct_vn_messages: int


_TOKEN_FIELDS = {"surface", "lemma", "pos"}
_SENTENCE_FIELDS = {"id", "annotated", "message_type", "tokens"}
_DOCUMENT_FIELDS = {"id", "sentences"}
_CORPUS_FIELDS = {"name", "documents"}


def _warn_unknown_fields(obj: dict, known: set[str], where: str) -> None:
    unknown = sorted(set(obj) - known)
    if unknown:
        warnings.warn(
            f"ignoring unknown field(s) {', '.join(repr(f) for f in unknown)} in {where}",
            CorpusWarning,
            stacklevel=3,
        )


def _require(obj: dict, field: str, kind: type, where: str) -> Any:
    if field not in obj:
        raise CorpusValidationError(f"missing field {field!r} in {where}")
    value = obj[field]
    if not isinstance(value, kind):
        raise CorpusValidationError(
            f"field {field!r} in {where} must be {kind.__name__}, got {type(value).__name__}"
        )
    if kind is str:
        _check_utf8(value, field, where)
    return value


def _check_utf8(value: str, field: str, where: str) -> str:
    """Reject strings that cannot be written as UTF-8 (lone surrogates from JSON escapes)."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise CorpusValidationError(
            f"field {field!r} in {where} contains a lone surrogate"
        ) from None
    return value


def _parse_token(obj: Any, where: str) -> Token:
    if not isinstance(obj, dict):
        raise CorpusValidationError(f"token in {where} must be an object")
    _warn_unknown_fields(obj, _TOKEN_FIELDS, where)
    surface = _require(obj, "surface", str, where).strip()
    pos = _require(obj, "pos", str, where).strip()
    lemma = obj.get("lemma")
    if lemma is not None and not isinstance(lemma, str):
        raise CorpusValidationError(f"field 'lemma' in {where} must be a string")
    if lemma is not None:
        lemma = _check_utf8(lemma, "lemma", where).strip() or None
    try:
        return Token(surface=surface, pos=pos, lemma=lemma)
    except CorpusValidationError as exc:
        raise CorpusValidationError(f"{exc} in {where}") from None


def _parse_tokens(raw_tokens: list, here: str, seen: dict[tuple, Token]) -> tuple[Token, ...]:
    """Parse a sentence's tokens, sharing one Token per (surface, pos, lemma) in seen.

    Only a token dict with known fields alone is looked up; the first
    sighting of its values, and every other token, goes through the full
    checks of _parse_token with its own location.
    """
    tokens = []
    for i, raw in enumerate(raw_tokens):
        token = values = None
        if type(raw) is dict and raw.keys() <= _TOKEN_FIELDS:
            values = (raw.get("surface"), raw.get("pos"), raw.get("lemma"))
            try:
                token = seen.get(values)
            except TypeError:  # an unhashable value, which _parse_token rejects
                values = None
        if token is None:
            token = _parse_token(raw, f"{here}, token {i}")
            if values is not None:
                seen[values] = token
        tokens.append(token)
    return tuple(tokens)


def _parse_sentence(obj: Any, where: str, seen: dict[tuple, Token]) -> Sentence:
    if not isinstance(obj, dict):
        raise CorpusValidationError(f"sentence in {where} must be an object")
    sent_id = _require(obj, "id", str, where)
    here = f"{where}, sentence {sent_id!r}"
    _warn_unknown_fields(obj, _SENTENCE_FIELDS, here)
    annotated = _require(obj, "annotated", bool, here)
    message_type = obj.get("message_type")
    if message_type is not None and not isinstance(message_type, str):
        raise CorpusValidationError(f"field 'message_type' in {here} must be a string")
    if message_type is not None:
        _check_utf8(message_type, "message_type", here)
    raw_tokens = _require(obj, "tokens", list, here)
    if not raw_tokens:
        warnings.warn(f"empty sentence {sent_id!r} in {where}", CorpusWarning, stacklevel=3)
    tokens = _parse_tokens(raw_tokens, here, seen)
    return Sentence(id=sent_id, annotated=annotated, tokens=tokens, message_type=message_type)


def _parse_document(obj: Any, where: str, seen: dict[tuple, Token]) -> Document:
    if not isinstance(obj, dict):
        raise CorpusValidationError(f"document in {where} must be an object")
    doc_id = _require(obj, "id", str, where)
    here = f"document {doc_id!r}"
    _warn_unknown_fields(obj, _DOCUMENT_FIELDS, here)
    raw_sentences = _require(obj, "sentences", list, here)
    sentences = tuple(_parse_sentence(s, here, seen) for s in raw_sentences)
    return Document(id=doc_id, sentences=sentences)


def parse_corpus(source: Union[bytes, str, IO[bytes], IO[str]]) -> Corpus:
    """Parse and validate a corpus from JSON text, bytes, or an open stream.

    Raises CorpusParseError on malformed or too deeply nested JSON, and
    CorpusValidationError on schema or invariant violations (including
    text fields with lone surrogates).  Unknown fields and empty sentences
    produce CorpusWarning.
    """
    if hasattr(source, "read"):
        source = source.read()  # type: ignore[union-attr]
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusParseError(f"corpus file is not valid UTF-8: {exc}") from exc
    # The raw dicts and the tree hold no reference cycles, so the cyclic
    # collector would only walk the millions of new objects again and again.
    collector_was_on = gc.isenabled()
    gc.disable()
    try:
        return _parse_json(source)
    finally:
        if collector_was_on:
            gc.enable()


def _parse_json(source: str) -> Corpus:
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise CorpusParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise CorpusParseError("JSON nesting is too deep to parse") from exc
    except ValueError as exc:
        # e.g. an integer literal longer than the int-to-str digit limit
        raise CorpusParseError(f"malformed JSON: {exc}") from exc

    if not isinstance(data, dict):
        raise CorpusValidationError("top-level corpus value must be an object")
    _warn_unknown_fields(data, _CORPUS_FIELDS, "corpus")
    name = _require(data, "name", str, "corpus")
    raw_documents = _require(data, "documents", list, "corpus")
    seen: dict[tuple, Token] = {}
    documents = tuple(
        _parse_document(d, f"documents[{i}]", seen) for i, d in enumerate(raw_documents)
    )
    return Corpus(name=name, documents=documents)


def load_corpus(path) -> Corpus:
    """Read and parse a corpus JSON file from disk."""
    with open(path, "rb") as handle:
        return parse_corpus(handle)


def corpus_to_dict(corpus: Corpus) -> dict:
    """Serialize a Corpus back to the JSON interchange structure.

    Optional fields that are absent (lemma, message_type) are omitted, so
    parse_corpus(json.dumps(corpus_to_dict(c))) round-trips structurally.
    """
    documents = []
    for document in corpus.documents:
        sentences = []
        for sentence in document.sentences:
            tokens = []
            for token in sentence.tokens:
                tok: dict[str, Any] = {"surface": token.surface, "pos": token.pos}
                if token.lemma is not None:
                    tok["lemma"] = token.lemma
                tokens.append(tok)
            sent: dict[str, Any] = {
                "id": sentence.id,
                "annotated": sentence.annotated,
                "tokens": tokens,
            }
            if sentence.message_type is not None:
                sent["message_type"] = sentence.message_type
            sentences.append(sent)
        documents.append({"id": document.id, "sentences": sentences})
    return {"name": corpus.name, "documents": documents}


def dumps_corpus(corpus: Corpus) -> str:
    """Serialize a Corpus to corpus-format JSON text."""
    return json.dumps(corpus_to_dict(corpus), ensure_ascii=False, indent=2)


def compute_stats(corpus: Corpus, config) -> CorpusStats:
    """Compute corpus-level statistics under a FilterConfig.

    Token and sentence counts are raw; the distinct-word counts apply the
    configured stopword/POS filtering, read from one lexicon.build_index.
    """
    from .lexicon import build_index

    n_tokens = 0
    n_sentences = 0
    n_annotated = 0
    for _, sentence in corpus.sentences():
        n_sentences += 1
        n_tokens += len(sentence.tokens)
        if sentence.annotated:
            n_annotated += 1

    index = build_index(corpus, config)
    return CorpusStats(
        n_documents=len(corpus.documents),
        n_tokens=n_tokens,
        n_sentences=n_sentences,
        n_annotated_sentences=n_annotated,
        n_distinct_vn_corpus=len(index.words),
        n_distinct_vn_messages=len(index.gold),
    )
