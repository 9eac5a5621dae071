"""Metamorphic relations: a change to a corpus whose effect on the sweep is
known without computing the sweep.

An oracle restates the rules it checks, so a defect shared by rule and
oracle passes it.  These tests compare two runs of the program instead:
each transformed corpus must sweep to the same rows as the original, or to
rows that follow from them.
"""

import string
import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lexsweep import FilterConfig, build_index, run_all_sweeps, write_report_bundle
from lexsweep.corpus import Corpus, Document, Token

from gencorpus import POS_POOL, WORD_POOL, corpora

CONFIG = FilterConfig()
NON_CONTENT_POS = sorted(set(POS_POOL) - CONFIG.content_pos)

relation = settings(max_examples=60, deadline=None)


def sweeps(corpus: Corpus) -> list:
    return run_all_sweeps(build_index(corpus, CONFIG))


def original_sweeps(corpus: Corpus) -> list:
    """The sweeps of a drawn corpus; one without a vocabulary is skipped."""
    index = build_index(corpus, CONFIG)
    assume(index.words)
    return run_all_sweeps(index)


def with_documents(corpus: Corpus, documents) -> Corpus:
    return Corpus(name=corpus.name, documents=tuple(documents))


def map_tokens(corpus: Corpus, change) -> Corpus:
    """The corpus with change(tokens) in place of each sentence's tokens."""
    return with_documents(
        corpus,
        (
            Document(
                id=doc.id,
                sentences=tuple(replace(s, tokens=change(s.tokens)) for s in doc.sentences),
            )
            for doc in corpus.documents
        ),
    )


def bundle_bytes(results) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "report"
        write_report_bundle(results, out_dir)
        return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def counts(row) -> tuple[int, int, int, int]:
    return row.extracted_size, row.true_positives, row.universe_size, row.gold_size


@relation
@given(corpus=corpora(), shuffled=st.data())
def test_document_order_changes_nothing(corpus, shuffled):
    before = original_sweeps(corpus)
    expected = bundle_bytes(before)
    for documents in (
        corpus.documents[::-1],
        shuffled.draw(st.permutations(corpus.documents), label="order"),
    ):
        after = sweeps(with_documents(corpus, documents))
        assert after == before
        assert bundle_bytes(after) == expected


@relation
@given(corpus=corpora())
def test_a_copy_of_every_document_keeps_percent_rows_and_doubles_idf(corpus):
    before = original_sweeps(corpus)
    copies = (Document(id=f"{doc.id}-copy", sentences=doc.sentences) for doc in corpus.documents)
    after = sweeps(with_documents(corpus, (*corpus.documents, *copies)))
    for old, new in zip(before, after, strict=True):
        if old.measure.is_percent:
            assert new.rows == old.rows
            continue
        # each document count doubles, so count d >= t exactly when 2d >= 2t - 1
        assert len(new.rows) == 2 * len(old.rows)
        for row in old.rows:
            for threshold in (2 * row.threshold - 1, 2 * row.threshold):
                assert new.rows[threshold - 1].threshold == threshold
                assert counts(new.rows[threshold - 1]) == counts(row)


noise_tokens = st.builds(
    Token,
    surface=st.sampled_from(WORD_POOL[:30]),
    pos=st.sampled_from(NON_CONTENT_POS),
    lemma=st.none() | st.sampled_from(WORD_POOL[:30]),
)


@relation
@given(corpus=corpora(), noise=st.data())
def test_non_content_tokens_change_no_row(corpus, noise):
    # Into existing sentences only: a new document would change N, and N moves tf.idf.
    before = original_sweeps(corpus)

    def with_noise(tokens):
        tokens = list(tokens)
        for token in noise.draw(st.lists(noise_tokens, max_size=3), label="noise"):
            tokens.insert(noise.draw(st.integers(0, len(tokens)), label="at"), token)
        return tuple(tokens)

    assert sweeps(map_tokens(corpus, with_noise)) == before


@relation
@given(corpus=corpora(), prefix=st.sampled_from(string.ascii_lowercase))
def test_prefixing_every_word_keeps_every_row(corpus, prefix):
    # Prefixing keeps the order of words, so every tie breaks as before.
    before = original_sweeps(corpus)

    def renamed(token):
        lemma = token.lemma and prefix + token.lemma
        return Token(surface=prefix + token.surface, pos=token.pos, lemma=lemma)

    index = build_index(map_tokens(corpus, lambda tokens: tuple(map(renamed, tokens))), CONFIG)
    assert index.words == {prefix + word for word in build_index(corpus, CONFIG).words}
    assert run_all_sweeps(index) == before
