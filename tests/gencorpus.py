"""Random corpus builders shared by the property and acceptance tests."""

from __future__ import annotations

import functools
import random

from hypothesis import strategies as st

from lexsweep.corpus import Corpus, Document, Sentence, Token

WORD_POOL = tuple(f"w{i:02d}" for i in range(100))
POS_POOL = ("VERB", "NOUN", "DET", "ADJ")
MESSAGE_TYPES = ("kidnap", "bombing", "arson")


def _random_token(rng: random.Random) -> Token:
    word = rng.choice(WORD_POOL)
    surface = word.upper() if rng.random() < 0.2 else word
    lemma: str | None
    roll = rng.random()
    if roll < 0.5:
        lemma = word
    elif roll < 0.7:
        lemma = rng.choice(WORD_POOL)
    else:
        lemma = None
    return Token(surface=surface, pos=rng.choice(POS_POOL), lemma=lemma)


def _random_sentence(rng: random.Random, sent_id: str) -> Sentence:
    tokens = tuple(_random_token(rng) for _ in range(rng.randint(0, 8)))
    annotated = rng.random() < 0.4
    message_type = rng.choice(MESSAGE_TYPES) if annotated and rng.random() < 0.7 else None
    return Sentence(id=sent_id, annotated=annotated, tokens=tokens, message_type=message_type)


def build_random_corpus(rng: random.Random, max_docs: int = 10) -> Corpus:
    documents = []
    for d in range(rng.randint(1, max_docs)):
        sentences = tuple(
            _random_sentence(rng, f"s{s}") for s in range(rng.randint(0, 5))
        )
        documents.append(Document(id=f"d{d}", sentences=sentences))
    return Corpus(name=f"random-{rng.randint(0, 10**6)}", documents=tuple(documents))


@functools.lru_cache(maxsize=None)
def seeded_corpora(seed: int = 20260818, count: int = 200) -> tuple[Corpus, ...]:
    rng = random.Random(seed)
    return tuple(build_random_corpus(rng) for _ in range(count))


def without_sentence(corpus: Corpus, doc_id: str, sent_id: str) -> Corpus:
    documents = tuple(
        Document(id=doc.id, sentences=tuple(s for s in doc.sentences if s.id != sent_id))
        if doc.id == doc_id
        else doc
        for doc in corpus.documents
    )
    return Corpus(name=corpus.name, documents=documents)


def with_all_annotated(corpus: Corpus) -> Corpus:
    documents = tuple(
        Document(
            id=doc.id,
            sentences=tuple(
                Sentence(id=s.id, annotated=True, tokens=s.tokens, message_type=s.message_type)
                for s in doc.sentences
            ),
        )
        for doc in corpus.documents
    )
    return Corpus(name=corpus.name, documents=documents)


@st.composite
def tokens(draw: st.DrawFn) -> Token:
    word = draw(st.sampled_from(WORD_POOL[:30]))
    surface = draw(st.sampled_from((word, word.upper())))
    lemma = draw(st.sampled_from((word, draw(st.sampled_from(WORD_POOL[:30])), None)))
    return Token(surface=surface, pos=draw(st.sampled_from(POS_POOL)), lemma=lemma)


@st.composite
def sentences(draw: st.DrawFn, sent_id: str) -> Sentence:
    annotated = draw(st.booleans())
    message_type = draw(st.sampled_from(MESSAGE_TYPES + (None,))) if annotated else None
    return Sentence(
        id=sent_id,
        annotated=annotated,
        tokens=tuple(draw(st.lists(tokens(), max_size=6))),
        message_type=message_type,
    )


@st.composite
def corpora(draw: st.DrawFn, max_docs: int = 5) -> Corpus:
    n_docs = draw(st.integers(min_value=1, max_value=max_docs))
    documents = []
    for d in range(n_docs):
        n_sents = draw(st.integers(min_value=0, max_value=4))
        documents.append(
            Document(
                id=f"d{d}",
                sentences=tuple(draw(sentences(f"s{s}")) for s in range(n_sents)),
            )
        )
    return Corpus(name="generated", documents=tuple(documents))
