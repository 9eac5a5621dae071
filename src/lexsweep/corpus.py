"""Corpus interchange format: documents, sentences, POS-tagged tokens.

A corpus arrives pre-tokenized, pre-lemmatized and pre-POS-tagged as UTF-8
JSON; this module parses and validates it into an immutable object tree.
One decoder walks the text and converts each document as soon as it is
decoded.  No linguistic analysis happens here.

Within one parsed corpus, equal tokens share one immutable Token object,
so later passes can work per distinct token.  A table keyed by POS, then
by raw surface (and lemma), makes a repeated token cost one lookup.  A
new token whose values are already clean (stripped, non-empty ASCII
strings, under a POS the table holds) and a sentence of exactly an ASCII
id, a flag and a non-empty token list take one short step that checks
and builds them; anything else is checked in full, and a location is
formatted only for a warning or an error.
"""

from __future__ import annotations

import gc
import json
import warnings
from dataclasses import dataclass
from json.decoder import WHITESPACE, scanstring
from typing import IO, Any, Union


class CorpusError(Exception):
    """Base class for corpus loading problems."""


class CorpusParseError(CorpusError):
    """Raised when the input is not syntactically valid corpus JSON."""


class CorpusValidationError(CorpusError):
    """Raised when the input is well-formed JSON but violates an invariant."""


class CorpusWarning(UserWarning):
    """Non-fatal oddity in corpus data (empty sentence, unknown field)."""


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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

_DECODER = json.JSONDecoder()


def _warn_unknown_fields(obj: dict, known: set[str], where: str, warned: list[str]) -> None:
    if obj.keys() <= known:
        return
    unknown = sorted(set(obj) - known)
    warned.append(f"ignoring unknown field(s) {', '.join(repr(f) for f in unknown)} in {where}")


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
    if value.isascii():
        return value
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise CorpusValidationError(
            f"field {field!r} in {where} contains a lone surrogate"
        ) from None
    return value


def _parse_token(obj: Any, here: str, i: int, seen: dict[str, dict], warned: list[str]) -> Token:
    """Check token i and enter it in seen; its location is built only to warn or fail."""
    if type(obj) is not dict:
        raise CorpusValidationError(f"token in {here}, token {i} must be an object")
    known = obj.keys() <= _TOKEN_FIELDS
    if not known:
        _warn_unknown_fields(obj, _TOKEN_FIELDS, f"{here}, token {i}", warned)
    surface, pos, lemma = obj.get("surface"), obj.get("pos"), obj.get("lemma")
    if type(surface) is not str or not surface.isascii():
        surface = _require(obj, "surface", str, f"{here}, token {i}")
    if type(pos) is not str or not pos.isascii():
        pos = _require(obj, "pos", str, f"{here}, token {i}")
    if lemma is not None and (type(lemma) is not str or not lemma.isascii()):
        if type(lemma) is not str:
            raise CorpusValidationError(f"field 'lemma' in {here}, token {i} must be a string")
        _check_utf8(lemma, "lemma", f"{here}, token {i}")
    surface, pos, lemma = surface.strip(), pos.strip(), lemma and lemma.strip() or None
    key = surface if lemma is None else (surface, lemma)
    token = seen.get(pos, {}).get(key)
    if token is None:
        try:
            token = Token(surface, pos, lemma)
        except CorpusValidationError as exc:
            raise CorpusValidationError(f"{exc} in {here}, token {i}") from None
        seen.setdefault(pos, {})[key] = token
    if known:
        key = obj["surface"] if len(obj) == 2 else (obj["surface"], obj["lemma"])
        seen.setdefault(obj["pos"], {})[key] = token
    return token


# The short steps build a Token or a Sentence without its __init__, once
# they have checked what its __post_init__ checks.
_new = object.__new__
_set_surface, _set_pos, _set_lemma = Token.surface.__set__, Token.pos.__set__, Token.lemma.__set__
_set_id, _set_annotated = Sentence.id.__set__, Sentence.annotated.__set__
_set_tokens, _set_message_type = Sentence.tokens.__set__, Sentence.message_type.__set__


def _parse_tokens(
    raw_tokens: list, where: str, sent_id: str, seen: dict[str, dict], warned: list[str]
) -> tuple[Token, ...]:
    """Parse the tokens of sentence sent_id, one shared Token per (surface, pos, lemma).

    seen maps a POS, then a surface, or a (surface, lemma) pair (null or
    not), to the Token of a dict with exactly those fields and values: the
    raw values of each converted dict with known fields alone, and each
    Token's own values.  So every POS in seen passed the full checks.  A
    hit proves those fields present and valid, and len(raw), 2 or 3 by the
    key, that no other is there.  A miss under a POS in seen takes one
    short step when that POS is stripped and the surface, and the lemma
    if there is one, are stripped, non-empty ASCII strings: those are the
    new Token's own values, so it is built and entered under them alone.
    Any other token goes through _parse_token, the location built then.
    """
    tokens = []
    for i, raw in enumerate(raw_tokens):
        try:  # a non-dict, a missing field, a new POS or an unhashable value raises
            size = len(raw)
            key = raw["surface"] if size == 2 else (raw["surface"], raw["lemma"])
            table = seen[raw["pos"]]
            token = table.get(key) if size <= 3 else False
        except (KeyError, TypeError):
            token = False
        if token is None:  # a miss under a POS that seen holds
            surface, lemma = (key, None) if size == 2 else key
            pos = raw["pos"]
            if (
                pos.strip() == pos
                and type(surface) is str and surface.isascii()
                and surface and surface.strip() == surface
                and (
                    size == 2
                    or type(lemma) is str and lemma.isascii() and lemma and lemma.strip() == lemma
                )
            ):
                token = table[key] = _new(Token)
                _set_surface(token, surface)
                _set_pos(token, pos)
                _set_lemma(token, lemma)
        if not token:
            token = _parse_token(raw, f"{where}, sentence {sent_id!r}", i, seen, warned)
        tokens.append(token)
    return tuple(tokens)


def _parse_sentence(
    obj: Any, where: str, seen: dict[str, dict], warned: list[str]
) -> Sentence:
    """Check and build one sentence.  A dict of exactly an ASCII id, a bool
    annotated and a non-empty tokens list takes one short step; anything
    else is checked in full, its location built only then."""
    if type(obj) is dict and len(obj) == 3:
        sent_id, annotated, raw_tokens = obj.get("id"), obj.get("annotated"), obj.get("tokens")
        if (
            type(sent_id) is str and sent_id.isascii()
            and type(annotated) is bool and type(raw_tokens) is list and raw_tokens
        ):
            sentence = _new(Sentence)
            _set_id(sentence, sent_id)
            _set_annotated(sentence, annotated)
            _set_tokens(sentence, _parse_tokens(raw_tokens, where, sent_id, seen, warned))
            _set_message_type(sentence, None)
            return sentence
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
    tokens = _parse_tokens(raw_tokens, where, sent_id, seen, warned)
    return Sentence(id=sent_id, annotated=annotated, tokens=tokens, message_type=message_type)


def _parse_document(
    obj: Any, where: str, seen: dict[str, dict], warned: list[str]
) -> Document:
    if not isinstance(obj, dict):
        raise CorpusValidationError(f"document in {where} must be an object")
    doc_id = _require(obj, "id", str, where)
    here = f"document {doc_id!r}"
    _warn_unknown_fields(obj, _DOCUMENT_FIELDS, here, warned)
    raw_sentences = _require(obj, "sentences", list, here)
    sentences = tuple(_parse_sentence(s, here, seen, warned) for s in raw_sentences)
    return Document(id=doc_id, sentences=sentences)


def parse_corpus(source: Union[bytes, str, IO[bytes], IO[str]]) -> Corpus:
    """Parse and validate a corpus from JSON text, bytes, or an open stream.

    Raises CorpusParseError on malformed or too deeply nested JSON, and
    CorpusValidationError on schema or invariant violations (including
    text fields with lone surrogates).  Unknown fields and empty sentences
    produce CorpusWarning, emitted once each when the parse ends.  Bytes
    may start with a UTF-8 BOM; a str may not, as with json.loads.

    Documents are decoded and converted one at a time, so the raw JSON of
    only one document is alive at once.  Errors and warnings are still
    those of decoding the whole text first: a syntax error anywhere beats
    a validation error, and a repeated key keeps its last value.
    """
    if hasattr(source, "read"):
        source = source.read()  # type: ignore[union-attr]
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise CorpusParseError(f"corpus file is not valid UTF-8: {exc}") from exc
    warned: list[str] = []
    # The raw dicts and the tree hold no reference cycles, so the cyclic
    # collector would only walk the millions of new objects again and again.
    collector_was_on = gc.isenabled()
    gc.disable()
    try:
        try:
            return _walk_top_level(source, warned)
        except ValueError:
            json.loads(source)  # only to word the error; passes only a non-object top level
        raise CorpusValidationError("top-level corpus value must be an object")
    except json.JSONDecodeError as exc:
        raise CorpusParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise CorpusParseError("JSON nesting is too deep to parse") from exc
    except ValueError as exc:
        # e.g. an integer literal longer than the int-to-str digit limit
        raise CorpusParseError(f"malformed JSON: {exc}") from exc
    finally:
        if collector_was_on:
            gc.enable()
        for message in warned:
            warnings.warn(message, CorpusWarning, stacklevel=2)


def _walk_top_level(text: str, warned: list[str]) -> Corpus:
    """Read the top-level object member by member, streaming its documents array.

    Raises ValueError (JSONDecodeError among them) wherever json.loads would
    fail, and when the top level is not an object.  Once the text is read,
    the top-level checks come first, then the documents' warnings and the
    first validation error among them.
    """
    skip = WHITESPACE.match  # JSON's [ \t\n\r]*, as json.loads skips it
    fields: dict[str, Any] = {}
    document_warnings: list[str] = []
    error = None
    pos = skip(text).end()
    if not text.startswith("{", pos):
        raise ValueError("top level is not an object")
    pos = skip(text, pos + 1).end()
    more = not text.startswith("}", pos)
    while more:
        if not text.startswith('"', pos):
            raise ValueError("expecting a key")
        key, pos = scanstring(text, pos + 1)
        pos = skip(text, pos).end()
        if not text.startswith(":", pos):
            raise ValueError("expecting ':'")
        pos = skip(text, pos + 1).end()
        if key == "documents":  # a repeated key keeps its last value, as in json.loads
            document_warnings, error = [], None
        if key == "documents" and text.startswith("[", pos):
            fields[key], error, pos = _walk_documents(text, pos + 1, document_warnings)
        else:
            fields[key], pos = _DECODER.raw_decode(text, pos)
        pos = skip(text, pos).end()
        more = text.startswith(",", pos)
        if more:
            pos = skip(text, pos + 1).end()
        elif not text.startswith("}", pos):
            raise ValueError("expecting ',' or '}'")
    if skip(text, pos + 1).end() != len(text):
        raise ValueError("extra data")
    _warn_unknown_fields(fields, _CORPUS_FIELDS, "corpus", warned)
    name = _require(fields, "name", str, "corpus")
    documents = _require(fields, "documents", list, "corpus")
    warned += document_warnings
    if error is not None:
        raise error
    return Corpus(name=name, documents=tuple(documents))


def _walk_documents(
    text: str, pos: int, warned: list[str]
) -> tuple[list[Document], CorpusValidationError | None, int]:
    """Convert the documents array whose '[' ends just before pos.

    Returns the documents, the first validation error and the array's end.
    After that error the remaining documents are decoded but not converted,
    so a later syntax error still surfaces.
    """
    skip = WHITESPACE.match
    seen: dict[str, dict] = {}
    documents: list[Document] = []
    error = None
    pos = skip(text, pos).end()
    if text.startswith("]", pos):
        return documents, error, pos + 1
    while True:
        raw, pos = _DECODER.raw_decode(text, pos)
        if error is None:
            try:
                documents.append(_parse_document(raw, f"documents[{len(documents)}]", seen, warned))
            except CorpusValidationError as exc:
                error = exc
        del raw  # free this document's dicts before the next one is decoded
        pos = skip(text, pos).end()
        if text.startswith("]", pos):
            return documents, error, pos + 1
        if not text.startswith(",", pos):
            raise ValueError("expecting ',' or ']'")
        pos = skip(text, pos + 1).end()


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


def compute_stats(corpus: Corpus, config) -> CorpusStats:
    """Compute corpus-level statistics under a FilterConfig.

    Token and sentence counts are raw; the distinct-word counts apply the
    configured stopword/POS filtering, read from one lexicon.build_index.
    """
    from .lexicon import build_index

    n_tokens = 0
    n_sentences = 0
    n_annotated = 0
    for document in corpus.documents:
        for sentence in document.sentences:
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
