import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexsweep import FilterConfig, Measure, build_gold, build_index, run_all_sweeps
from lexsweep import lexicon
from lexsweep.corpus import Corpus, CorpusWarning, Document, Sentence, Token, compute_stats
from lexsweep.lexicon import (
    WordKeySource,
    build_universe,
    format_lexicon,
    load_stopwords,
    normalize,
)
from lexsweep.sweep import threshold_range
from lexsweep.cli import main

from gencorpus import POS_POOL, corpora, with_all_annotated, without_sentence
from oracle import oracle_gold, oracle_universe, sentences


class TestNormalize:
    def test_lemma_preferred(self, config):
        assert normalize(Token("Arrived", pos="VERB", lemma="arrive"), config) == "arrive"

    def test_surface_fallback(self, config):
        assert normalize(Token("Kidnappers", pos="NOUN"), config) == "kidnappers"

    def test_blank_lemma_falls_back_to_surface(self, config):
        token = Token("Run", pos="VERB", lemma="  ")
        assert normalize(token, config) == "run"
        sentence = Sentence(id="s1", annotated=True, tokens=(token,))
        corpus = Corpus(name="blank", documents=(Document(id="d1", sentences=(sentence,)),))
        assert build_index(corpus, config).words == frozenset({"run"})

    def test_non_content_pos_filtered(self, config):
        assert normalize(Token("the", pos="DET", lemma="the"), config) is None

    def test_stopword_filtered(self):
        config = FilterConfig(stopwords=frozenset({"be"}))
        assert normalize(Token("Was", pos="VERB", lemma="be"), config) is None

    def test_stopword_checked_after_case_fold(self):
        config = FilterConfig(stopwords=frozenset({"be"}))
        assert normalize(Token("BE", pos="VERB"), config) is None

    def test_no_case_fold(self):
        config = FilterConfig(case_fold=False)
        assert normalize(Token("Arrived", pos="VERB"), config) == "Arrived"

    def test_surface_only_ignores_lemma(self):
        config = FilterConfig(word_key_source=WordKeySource.SURFACE_ONLY)
        assert normalize(Token("Arrived", pos="VERB", lemma="arrive"), config) == "arrived"

    def test_custom_content_pos(self):
        config = FilterConfig(content_pos=frozenset({"ADJ"}))
        assert normalize(Token("red", pos="ADJ"), config) == "red"
        assert normalize(Token("run", pos="VERB"), config) is None

    def test_empty_content_pos_rejected(self):
        with pytest.raises(ValueError, match="content_pos"):
            FilterConfig(content_pos=frozenset())

    @pytest.mark.parametrize("blank", ["", " ", "\t\n"])
    def test_blank_content_pos_tag_rejected(self, blank):
        with pytest.raises(ValueError, match="^content_pos must not hold a blank tag$"):
            FilterConfig(content_pos=frozenset({"NOUN", blank}))

    @given(corpus=corpora())
    def test_normalized_keys_are_fixed_points(self, corpus):
        config = FilterConfig()
        for sentence in sentences(corpus):
            for token in sentence.tokens:
                key = normalize(token, config)
                if key is not None:
                    again = normalize(Token(surface=key, pos="NOUN"), config)
                    assert again == key


class TestBuilders:
    def test_fixture_universe(self, fixture_corpus, config):
        assert build_universe(fixture_corpus, config) == {
            "attack",
            "hostage",
            "police",
            "negotiate",
        }

    def test_fixture_gold(self, fixture_corpus, config):
        assert build_gold(fixture_corpus, config) == {"attack", "hostage"}

    def test_empty_gold_warns(self, fixture_corpus, config):
        corpus = without_sentence(fixture_corpus, "d1", "s1")
        with pytest.warns(CorpusWarning, match="gold lexicon is empty"):
            assert build_gold(corpus, config) == frozenset()

    def test_fixture_index(self, fixture_corpus, config):
        index = build_index(fixture_corpus, config)
        assert index.collection_freq == {
            "attack": 3,
            "hostage": 3,
            "negotiate": 2,
            "police": 1,
        }
        assert index.per_document == {
            "d1": {"attack": 3, "hostage": 2, "police": 1},
            "d2": {"negotiate": 2, "hostage": 1},
        }
        assert index.doc_counts == {"attack": 1, "hostage": 2, "negotiate": 1, "police": 1}
        assert index.n_documents == 2
        assert threshold_range(Measure.INTERDOC_FREQ, index) == range(1, 3)
        assert index.words == {"attack", "hostage", "negotiate", "police"}
        assert index.gold == {"attack", "hostage"}

    def test_index_covers_contentless_documents(self, config):
        corpus = Corpus(
            name="half-empty",
            documents=(
                Document(
                    id="full",
                    sentences=(
                        Sentence(id="s1", annotated=False, tokens=(Token("raid", "NOUN"),)),
                    ),
                ),
                Document(
                    id="empty",
                    sentences=(
                        Sentence(id="s1", annotated=False, tokens=(Token("the", "DET"),)),
                    ),
                ),
            ),
        )
        index = build_index(corpus, config)
        assert index.per_document == {"full": {"raid": 1}, "empty": {}}
        assert index.n_documents == 2

    def test_empty_index(self, config):
        corpus = Corpus(name="bare", documents=(Document(id="d1", sentences=()),))
        index = build_index(corpus, config)
        assert index.words == frozenset()
        assert threshold_range(Measure.INTERDOC_FREQ, index) == range(1, 1)
        assert index.n_documents == 1

    @given(corpus=corpora())
    def test_gold_within_universe(self, corpus):
        config = FilterConfig()
        assert build_gold(corpus, config) <= build_universe(corpus, config)

    @given(corpus=corpora())
    def test_index_consistency(self, corpus):
        config = FilterConfig()
        index = build_index(corpus, config)
        assert set(index.per_document) == {d.id for d in corpus.documents}
        for word, freq in index.collection_freq.items():
            assert freq == sum(tab.get(word, 0) for tab in index.per_document.values())
            docs_with_word = sum(1 for tab in index.per_document.values() if word in tab)
            assert index.doc_counts[word] == docs_with_word
            assert 1 <= index.doc_counts[word] <= index.n_documents
        content_tokens = sum(
            1
            for sentence in sentences(corpus)
            for token in sentence.tokens
            if normalize(token, config) is not None
        )
        assert sum(index.collection_freq.values()) == content_tokens
        assert index.words == oracle_universe(corpus, config)

    @given(corpus=corpora(), data=st.data())
    def test_lexicons_match_oracle(self, corpus, data):
        options = dict(
            content_pos=data.draw(st.frozensets(st.sampled_from(POS_POOL), min_size=1)),
            word_key_source=data.draw(st.sampled_from(WordKeySource)),
            case_fold=data.draw(st.booleans()),
        )
        keys = sorted(oracle_universe(corpus, FilterConfig(**options)))
        stopwords = data.draw(st.frozensets(st.sampled_from(keys))) if keys else frozenset()
        config = FilterConfig(stopwords=stopwords, **options)
        index = build_index(corpus, config)
        assert index.words == oracle_universe(corpus, config)
        assert index.gold == oracle_gold(corpus, config)

    @given(corpus=corpora())
    def test_gold_ignores_unannotated_sentences(self, corpus):
        config = FilterConfig()
        gold = build_gold(corpus, config)
        for document in corpus.documents:
            for sentence in document.sentences:
                if not sentence.annotated:
                    trimmed = without_sentence(corpus, document.id, sentence.id)
                    assert build_gold(trimmed, config) == gold

    @given(corpus=corpora())
    def test_gold_equals_universe_when_fully_annotated(self, corpus):
        config = FilterConfig()
        annotated = with_all_annotated(corpus)
        assert build_gold(annotated, config) == build_universe(annotated, config)


class TestOnePass:
    """Each command walks the corpus once: one normalize call per distinct Token."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda corpus, config, path: run_all_sweeps(build_index(corpus, config)),
            lambda corpus, config, path: compute_stats(corpus, config),
            lambda corpus, config, path: main(
                ["evaluate", "--corpus", str(path), "--measure", "idf", "--threshold", "1"]
            ),
        ],
        ids=["run_all_sweeps", "compute_stats", "evaluate"],
    )
    def test_normalize_once_per_token(
        self, run, fixture_corpus, fixture_path, config, monkeypatch
    ):
        calls = []

        def counting_normalize(token, config):
            calls.append(token)
            return normalize(token, config)

        monkeypatch.setattr(lexicon, "normalize", counting_normalize)
        run(fixture_corpus, config, fixture_path)
        distinct = {
            id(token) for sentence in sentences(fixture_corpus) for token in sentence.tokens
        }
        assert len(calls) == len({id(token) for token in calls}) == len(distinct)


class TestStopwords:
    def test_load_stopwords(self):
        text = "# transcription fillers\nbe\n\n  have  \n# trailing comment\ndo\n"
        assert load_stopwords(io.StringIO(text)) == {"be", "have", "do"}

    def test_load_stopwords_from_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("say\ngo\n", encoding="utf-8")
        assert load_stopwords(path) == {"say", "go"}

    def test_leading_bom_is_dropped(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"\xef\xbb\xbfword0001\nword0002\n")
        assert load_stopwords(path) == {"word0001", "word0002"}
        with open(path, encoding="utf-8") as handle:
            assert load_stopwords(handle) == {"word0001", "word0002"}
        # only one leading mark is a BOM; a second belongs to the word
        assert load_stopwords(io.StringIO("\ufeff\ufeffsay\n")) == {"\ufeffsay"}

    def test_stopwords_shrink_universe(self, fixture_corpus):
        config = FilterConfig(stopwords=frozenset({"police"}))
        assert build_universe(fixture_corpus, config) == {"attack", "hostage", "negotiate"}


def test_format_lexicon_sorted():
    assert format_lexicon(frozenset({"b", "a", "c"})) == "a\nb\nc\n"
    assert format_lexicon(frozenset()) == ""
