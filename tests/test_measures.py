import copy
import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexsweep import FilterConfig, Measure, MeasureSpec, build_index, extract, run_all_sweeps
from lexsweep import measures
from lexsweep.lexicon import CorpusIndex, build_universe

from gencorpus import build_random_corpus, corpora
from oracle import oracle_extract

CF = Measure.COLLECTION_FREQ
DF = Measure.DOCUMENT_FREQ
TFIDF = Measure.TFIDF
IDF = Measure.INTERDOC_FREQ


@pytest.fixture(scope="module")
def fixture_index(fixture_corpus, config):
    return build_index(fixture_corpus, config)


def make_index(*documents: dict[str, int]) -> CorpusIndex:
    """A CorpusIndex built by hand from per-document word counts."""
    collection: Counter[str] = Counter()
    doc_counts: Counter[str] = Counter()
    for doc_freq in documents:
        collection.update(doc_freq)
        doc_counts.update(doc_freq.keys())
    return CorpusIndex(
        collection_freq=dict(collection),
        per_document={f"d{i}": dict(doc_freq) for i, doc_freq in enumerate(documents)},
        doc_counts=dict(doc_counts),
        gold=frozenset(),
    )


def at(index: CorpusIndex, kind: Measure, threshold: int) -> frozenset[str]:
    return extract(index, MeasureSpec(kind, threshold))


class TestTopFraction:
    """The top n% cut of one ranked list, seen through extract."""

    def test_half_of_four(self):
        index = make_index({"attack": 3, "hostage": 3, "negotiate": 2, "police": 1})
        assert at(index, CF, 50) == {"attack", "hostage"}

    def test_hundred_percent_keeps_all(self):
        index = make_index({"a": 1, "b": 2}, {"c": 1})
        for kind in (CF, DF, TFIDF):
            assert at(index, kind, 100) == {"a", "b", "c"}

    def test_tie_broken_by_word(self):
        index = make_index({"b": 2, "a": 2})
        assert at(index, CF, 50) == {"a"}
        assert at(index, DF, 50) == {"a"}
        # one document: every tf.idf score is 0, so the word alone decides
        assert at(index, TFIDF, 50) == {"a"}

    def test_cut_rounds_up(self):
        index = make_index({"a": 3, "b": 2, "c": 1})
        assert at(index, CF, 34) == {"a", "b"}
        assert at(index, CF, 33) == {"a"}
        assert at(index, CF, 1) == {"a"}

    def test_entry_is_the_smallest_over_the_documents(self):
        # df entries 100*r // L + 1: a 1, b 34 and c 67 in the first
        # document, c 1 and d 51 in the second, so c enters at 1
        index = make_index({"a": 3, "b": 2, "c": 1}, {"c": 2, "d": 1})
        ends = measures.ranking(index, DF).ends
        assert ends[1] == ends[33] == 2
        assert ends[34] == ends[50] == 3
        assert ends[51] == ends[100] == 4
        assert at(index, DF, 33) == {"a", "c"}
        assert at(index, DF, 50) == {"a", "b", "c"}

    def test_empty_input(self):
        index = make_index({})
        for kind in Measure:
            assert at(index, kind, 50 if kind.is_percent else 1) == frozenset()

    def test_empty_document_selects_nothing(self):
        index = make_index({"a": 1, "b": 1}, {})
        assert at(index, DF, 50) == {"a"}

    def test_input_order_irrelevant(self):
        forward = make_index({"c": 1, "a": 3, "b": 2}, {"b": 1, "d": 2})
        backward = make_index({"d": 2, "b": 1}, {"b": 2, "a": 3, "c": 1})
        for kind in Measure:
            for threshold in (range(1, 101) if kind.is_percent else range(1, 4)):
                assert at(forward, kind, threshold) == at(backward, kind, threshold)

    @pytest.mark.parametrize("percent", [0, 101, -5])
    def test_percent_out_of_range(self, percent):
        # MeasureSpec is the one place thresholds are checked
        with pytest.raises(ValueError, match="percent"):
            extract(make_index({"a": 1}), MeasureSpec(CF, percent))

    @given(
        counts=st.dictionaries(
            st.text(min_size=1, max_size=4), st.integers(1, 50), max_size=20
        ),
        percent=st.integers(1, 100),
    )
    def test_cut_size_exact(self, counts, percent):
        # in a one-document index every percent measure ranks one list
        index = make_index(counts)
        size = math.ceil(Fraction(percent, 100) * len(counts))
        for kind in (CF, DF, TFIDF):
            assert len(at(index, kind, percent)) == size


def one_document(length: int) -> list[dict[str, int]]:
    return [{f"w{i}": i % 4 + 1 for i in range(length)}]


class TestLongLists:
    """Lists of more than 100 words, where one threshold admits several
    words of a list, and of fewer, where one word spans several
    thresholds, against a brute-force union of each list's tops."""

    @settings(max_examples=30, deadline=None)
    @given(
        documents=st.lists(
            st.dictionaries(
                st.integers(0, 399).map(lambda i: f"w{i}"), st.integers(1, 4), max_size=300
            ),
            min_size=1,
            max_size=3,
        )
    )
    @example(documents=one_document(1))
    @example(documents=one_document(3))
    @example(documents=one_document(7))
    @example(documents=one_document(99))
    @example(documents=one_document(100))
    @example(documents=one_document(101))
    @example(documents=one_document(250))
    def test_extract_matches_brute_force(self, documents):
        index = make_index(*documents)
        n = len(documents)
        tfidf = [
            {word: tf * math.log(n / index.doc_counts[word]) for word, tf in doc.items()}
            for doc in documents
        ]
        for kind, lists in ((CF, [index.collection_freq]), (DF, documents), (TFIDF, tfidf)):
            orders = [sorted(scores, key=lambda word: (-scores[word], word)) for scores in lists]
            for percent in range(1, 101):
                expected = set()
                for order in orders:
                    expected.update(order[: math.ceil(Fraction(percent, 100) * len(order))])
                assert at(index, kind, percent) == expected, f"{kind.value}@{percent}"
            ends, words, _, _ = measures.ranking(index, kind)
            assert ends[0] == 0
            assert ends[100] == len(index.words)
            assert all(low <= high for low, high in zip(ends, ends[1:]))
            assert sorted(words) == sorted(index.words)


class TestMeasures:
    def test_collection_freq_fixture(self, fixture_index):
        assert at(fixture_index, CF, 50) == {"attack", "hostage"}
        assert at(fixture_index, CF, 1) == {"attack"}
        assert at(fixture_index, CF, 100) == fixture_index.words

    def test_document_freq_fixture(self, fixture_index):
        assert at(fixture_index, DF, 50) == {"attack", "hostage", "negotiate"}
        assert at(fixture_index, DF, 100) == fixture_index.words

    def test_tfidf_fixture(self, fixture_index):
        assert at(fixture_index, TFIDF, 25) == {"attack", "negotiate"}
        assert at(fixture_index, TFIDF, 100) == fixture_index.words

    def test_tfidf_scores_fixture(self, fixture_index):
        # d1 scores attack 3 ln 2, police ln 2 and hostage 0 (it is in both
        # documents), so d1 adds police at 34% and hostage only at 67%;
        # d2 scores negotiate 2 ln 2 and hostage 0, adding hostage at 51%.
        assert at(fixture_index, TFIDF, 34) == {"attack", "negotiate", "police"}
        assert at(fixture_index, TFIDF, 50) == {"attack", "negotiate", "police"}
        assert at(fixture_index, TFIDF, 51) == fixture_index.words

    def test_tfidf_zero_iff_word_everywhere(self):
        # "common" is the most frequent word of each document, but it is in
        # every document, so it scores 0 and ranks below every other word
        index = make_index({"common": 5, "rare": 1}, {"common": 5, "other": 1})
        assert at(index, DF, 50) == {"common"}
        assert at(index, TFIDF, 50) == {"rare", "other"}
        assert at(index, TFIDF, 51) == {"common", "rare", "other"}

    def test_interdoc_freq_fixture(self, fixture_index):
        assert at(fixture_index, IDF, 2) == {"hostage"}
        assert at(fixture_index, IDF, 1) == fixture_index.words
        assert at(fixture_index, IDF, 3) == frozenset()

    def test_interdoc_freq_invalid(self):
        with pytest.raises(ValueError, match="document count"):
            extract(make_index({"a": 1}), MeasureSpec(IDF, 0))

    def test_single_document_df_equals_cf(self, config):
        for seed in range(5):
            corpus = build_random_corpus(random.Random(seed), max_docs=1)
            index = build_index(corpus, config)
            for percent in (1, 25, 50, 75, 100):
                assert at(index, DF, percent) == at(index, CF, percent)

    def test_repeat_calls_identical(self, fixture_index):
        for spec in (
            MeasureSpec(CF, 37),
            MeasureSpec(DF, 37),
            MeasureSpec(TFIDF, 37),
            MeasureSpec(IDF, 1),
        ):
            assert extract(fixture_index, spec) == extract(fixture_index, spec)

    def test_sweep_rankings_serve_later_extracts(
        self, fixture_corpus, config, monkeypatch
    ):
        index = build_index(fixture_corpus, config)
        run_all_sweeps(index)
        assert set(index.rankings) == set(Measure)
        assert index == build_index(fixture_corpus, config)

        def rebuild(index, kind):
            raise AssertionError(f"{kind.value} ranking built again")

        monkeypatch.setattr(measures, "_ranking", rebuild)
        for kind in Measure:
            at(index, kind, 1)


def test_an_extraction_is_a_plain_frozenset_to_its_users(fixture_index):
    extracted = at(fixture_index, CF, 50)
    plain = frozenset(extracted)
    assert extracted == plain and hash(extracted) == hash(plain)
    for result in (extracted & plain, extracted | plain, extracted - plain, extracted.copy()):
        assert type(result) is frozenset
    for copied in (pickle.loads(pickle.dumps(extracted)), copy.copy(extracted), copy.deepcopy(extracted)):
        assert type(copied) is frozenset and copied == plain
    # the index's words and gold do not travel with it
    left_out = fixture_index.words - extracted
    assert left_out and not any(word.encode() in pickle.dumps(extracted) for word in left_out)


class TestMeasureSpec:
    @pytest.mark.parametrize("kind", [Measure.COLLECTION_FREQ, Measure.DOCUMENT_FREQ, Measure.TFIDF])
    @pytest.mark.parametrize("threshold", [0, 101])
    def test_percent_bounds(self, kind, threshold):
        with pytest.raises(ValueError, match="percent"):
            MeasureSpec(kind, threshold)

    def test_interdoc_bounds(self):
        with pytest.raises(ValueError, match="document count"):
            MeasureSpec(Measure.INTERDOC_FREQ, 0)
        MeasureSpec(Measure.INTERDOC_FREQ, 999)

    @pytest.mark.parametrize("kind", list(Measure))
    @pytest.mark.parametrize("threshold", [2.5, 2.0, True, False, "2", None])
    def test_threshold_must_be_an_integer(self, kind, threshold):
        with pytest.raises(ValueError, match="must be an integer"):
            MeasureSpec(kind, threshold)

    @pytest.mark.parametrize("kind", ["cf", None, 1])
    def test_kind_must_be_a_measure(self, kind):
        with pytest.raises(ValueError, match=f"unknown measure {kind!r}"):
            MeasureSpec(kind, 5)

    def test_labels(self):
        assert Measure.COLLECTION_FREQ.label == "Collection Frequency"
        assert Measure.DOCUMENT_FREQ.label == "Document Frequency"
        assert Measure.TFIDF.label == "tf.idf"
        assert Measure.INTERDOC_FREQ.label == "Inter-document Frequency"
        assert Measure("cf") is Measure.COLLECTION_FREQ

    def test_is_percent(self):
        assert Measure.COLLECTION_FREQ.is_percent
        assert not Measure.INTERDOC_FREQ.is_percent


class TestOracleEquivalence:
    def test_oracle_fixture_spot_checks(self, fixture_corpus, config):
        assert oracle_extract(
            fixture_corpus, config, MeasureSpec(Measure.COLLECTION_FREQ, 50)
        ) == {"attack", "hostage"}
        assert oracle_extract(
            fixture_corpus, config, MeasureSpec(Measure.INTERDOC_FREQ, 2)
        ) == {"hostage"}

    @settings(max_examples=25, deadline=None)
    @given(corpus=corpora())
    def test_oracle_matches_fast_path_everywhere(self, corpus):
        config = FilterConfig()
        index = build_index(corpus, config)
        for kind in Measure:
            thresholds = (
                range(1, 101) if kind.is_percent else range(1, index.n_documents + 2)
            )
            for threshold in thresholds:
                spec = MeasureSpec(kind, threshold)
                assert extract(index, spec) == oracle_extract(corpus, config, spec), (
                    f"{kind.value}@{threshold}"
                )


class TestMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(corpus=corpora())
    def test_percent_measures_nested(self, corpus):
        config = FilterConfig()
        index = build_index(corpus, config)
        universe = build_universe(corpus, config)
        for kind in (Measure.COLLECTION_FREQ, Measure.DOCUMENT_FREQ, Measure.TFIDF):
            previous: frozenset[str] = frozenset()
            for percent in range(1, 101):
                current = extract(index, MeasureSpec(kind, percent))
                assert previous <= current
                assert current <= universe
                previous = current
            assert previous == universe

    @settings(max_examples=40, deadline=None)
    @given(corpus=corpora())
    def test_interdoc_freq_antitone(self, corpus):
        config = FilterConfig()
        index = build_index(corpus, config)
        universe = build_universe(corpus, config)
        previous = universe
        for min_docs in range(1, index.n_documents + 2):
            current = extract(index, MeasureSpec(Measure.INTERDOC_FREQ, min_docs))
            assert current <= previous
            previous = current
        assert extract(index, MeasureSpec(Measure.INTERDOC_FREQ, 1)) == universe
        assert (
            extract(index, MeasureSpec(Measure.INTERDOC_FREQ, index.n_documents + 1))
            == frozenset()
        )
