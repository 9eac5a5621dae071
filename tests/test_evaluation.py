import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsweep import FilterConfig, Measure, MeasureSpec, build_index, evaluate, extract
from lexsweep import evaluation
from lexsweep.evaluation import f_measure, score
from lexsweep.lexicon import CorpusIndex

from gencorpus import corpora

SPEC = MeasureSpec(Measure.COLLECTION_FREQ, 50)

WORDS = [f"w{i}" for i in range(12)]

word_sets = st.sets(st.sampled_from(WORDS), max_size=12).map(frozenset)


class TestFMeasure:
    def test_harmonic_mean(self):
        assert f_measure(0.5, 1.0) == pytest.approx(2 / 3)
        assert f_measure(1.0, 1.0) == 1.0

    def test_zero_convention(self):
        assert f_measure(0.0, 0.0) == 0.0

    def test_reference_values(self):
        assert f_measure(0.5414, 0.7218) == pytest.approx(0.6187, abs=1e-4)
        assert f_measure(0.7160, 0.4386) == pytest.approx(0.5440, abs=1e-4)

    @given(p=st.floats(0, 1), r=st.floats(0, 1))
    def test_symmetric_and_bounded(self, p, r):
        f = f_measure(p, r)
        assert f == f_measure(r, p)
        assert 0.0 <= f <= 1.0
        # allow one rounding step above the exact bound
        assert f <= max(p, r) * (1 + 1e-15) or f == pytest.approx(max(p, r))

    @given(x=st.floats(0, 1))
    def test_equal_inputs_fixed_point(self, x):
        assert f_measure(x, x) == pytest.approx(x)


class TestEvaluate:
    def test_fixture_example(self):
        universe = frozenset({"attack", "hostage", "negotiate", "police"})
        gold = frozenset({"attack", "hostage"})
        extracted = frozenset({"attack", "hostage", "negotiate"})
        row = evaluate(extracted, gold, universe, SPEC)
        assert row.precision == pytest.approx(2 / 3)
        assert row.recall == 1.0
        assert row.f_measure == pytest.approx(0.8)
        assert row.fallout == 0.5
        assert row.true_positives == 2
        assert row.extracted_size == 3
        assert row.universe_size == 4
        assert row.gold_size == 2

    def test_perfect_extraction(self):
        words = frozenset({"a", "b"})
        row = evaluate(words, words, words, SPEC)
        assert (row.precision, row.recall, row.f_measure, row.fallout) == (1.0, 1.0, 1.0, 0.0)

    def test_empty_extraction_nonempty_gold(self):
        universe = frozenset({"a", "b"})
        row = evaluate(frozenset(), frozenset({"a"}), universe, SPEC)
        assert row.precision == 0.0
        assert row.recall == 0.0
        assert row.f_measure == 0.0
        assert row.fallout == 0.0
        assert row.extracted_size == 0

    def test_empty_extraction_empty_gold(self):
        universe = frozenset({"a", "b"})
        row = evaluate(frozenset(), frozenset(), universe, SPEC)
        assert row.precision == 1.0
        assert row.recall == 1.0
        assert row.f_measure == 1.0
        assert row.fallout == 0.0
        assert row.extracted_size == 0

    def test_empty_gold_recall_is_one(self):
        universe = frozenset({"a", "b"})
        row = evaluate(frozenset({"a"}), frozenset(), universe, SPEC)
        assert row.recall == 1.0
        assert row.precision == 0.0

    def test_fallout_zero_when_universe_equals_gold(self):
        words = frozenset({"a", "b"})
        row = evaluate(frozenset({"a"}), words, words, SPEC)
        assert row.fallout == 0.0

    def test_full_extraction_has_full_recall_and_fallout(self):
        universe = frozenset({"a", "b", "c"})
        gold = frozenset({"a"})
        row = evaluate(universe, gold, universe, SPEC)
        assert row.recall == 1.0
        assert row.fallout == 1.0

    def test_extracted_outside_universe_rejected(self):
        with pytest.raises(ValueError, match="extracted.*'z'"):
            evaluate(frozenset({"z"}), frozenset(), frozenset({"a"}), SPEC)

    def test_gold_outside_universe_rejected(self):
        with pytest.raises(ValueError, match="gold.*'z'"):
            evaluate(frozenset(), frozenset({"z"}), frozenset({"a"}), SPEC)

    def test_row_carries_spec(self):
        row = evaluate(frozenset(), frozenset(), frozenset({"a"}), MeasureSpec(Measure.TFIDF, 7))
        assert row.measure is Measure.TFIDF
        assert row.threshold == 7

    @given(universe=word_sets, data=st.data())
    def test_metric_bounds(self, universe, data):
        extracted = frozenset(w for w in universe if data.draw(st.booleans(), label="e"))
        gold = frozenset(w for w in universe if data.draw(st.booleans(), label="m"))
        row = evaluate(extracted, gold, universe, SPEC)
        for value in (row.precision, row.recall, row.f_measure, row.fallout):
            assert 0.0 <= value <= 1.0
        assert row.true_positives <= min(row.extracted_size, row.gold_size)
        assert row.gold_size <= row.universe_size

    @given(universe=word_sets, data=st.data())
    def test_growing_extraction_monotone(self, universe, data):
        smaller = frozenset(w for w in universe if data.draw(st.booleans(), label="e1"))
        larger = smaller | frozenset(
            w for w in universe if data.draw(st.booleans(), label="e2")
        )
        gold = frozenset(w for w in universe if data.draw(st.booleans(), label="m"))
        row_small = evaluate(smaller, gold, universe, SPEC)
        row_large = evaluate(larger, gold, universe, SPEC)
        assert row_small.recall <= row_large.recall
        assert row_small.fallout <= row_large.fallout


def _count_walks(monkeypatch) -> list[str]:
    """The names _check_subset is called with, in order, from here on."""
    walks = []
    check = evaluation._check_subset

    def counting(name, words, universe):
        walks.append(name)
        check(name, words, universe)

    monkeypatch.setattr(evaluation, "_check_subset", counting)
    return walks


class TestSubsetCheck:
    """E ⊆ U and M ⊆ U are checked on every call that is not an extraction on its own index."""

    def test_bad_gold_raises_on_every_call(self):
        universe = frozenset(["a", "b"])
        good, bad = frozenset(["a"]), frozenset(["z"])
        for _ in range(3):
            evaluate(frozenset(), good, universe, SPEC)
            with pytest.raises(ValueError, match="gold.*'z'"):
                evaluate(frozenset(), bad, universe, SPEC)
            # the gold that just passed, against a universe that lacks it
            with pytest.raises(ValueError, match="gold.*'a'"):
                evaluate(frozenset(), good, frozenset(["b"]), SPEC)

    def test_bad_extraction_raises_after_a_passing_pair(self):
        universe, gold = frozenset(["a", "b"]), frozenset(["a"])
        evaluate(frozenset(["b"]), gold, universe, SPEC)
        with pytest.raises(ValueError, match="extracted.*'z'"):
            evaluate(frozenset(["z"]), gold, universe, SPEC)

    def test_mutated_set_gold_raises(self):
        universe = frozenset(["a", "b"])
        gold = {"a"}
        evaluate(frozenset(), gold, universe, SPEC)
        gold.add("z")
        with pytest.raises(ValueError, match="gold.*'z'"):
            evaluate(frozenset(), gold, universe, SPEC)

    def test_mutated_set_universe_raises(self):
        universe = {"a", "b"}
        gold = frozenset(["a"])
        evaluate(frozenset(), gold, universe, SPEC)
        universe.discard("a")
        with pytest.raises(ValueError, match="gold.*'a'"):
            evaluate(frozenset(), gold, universe, SPEC)

    def test_nothing_is_kept_alive(self):
        extracted, gold, universe = frozenset(["b"]), frozenset(["a"]), frozenset(["a", "b"])
        evaluate(extracted, gold, universe, SPEC)
        refs = [weakref.ref(words) for words in (extracted, gold, universe)]
        del extracted, gold, universe
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]

    def test_plain_extraction_walks_both_on_every_call(self, monkeypatch):
        walks = _count_walks(monkeypatch)
        universe = frozenset(f"w{i}" for i in range(10))
        gold = frozenset(["w1", "w2"])
        for size in range(5):
            evaluate(frozenset(f"w{i}" for i in range(size)), gold, universe, SPEC)
        # an equal but distinct gold object, and a mutable set, are walked too
        evaluate(frozenset(), frozenset(sorted(gold)), universe, SPEC)
        evaluate(frozenset(), set(gold), universe, SPEC)
        evaluate(frozenset(), set(gold), universe, SPEC)
        assert walks.count("extracted") == 8
        assert walks.count("gold") == 8

    @settings(max_examples=200)
    @given(data=st.data())
    def test_calls_reusing_objects_match_direct_counts(self, data):
        pool = []
        for _ in range(data.draw(st.integers(1, 4), label="pool size")):
            kind = data.draw(st.sampled_from([frozenset, set]), label="kind")
            pool.append(kind(data.draw(word_sets, label="words")))
        slots = st.integers(0, len(pool) - 1)
        calls = st.tuples(st.just("call"), slots, slots, slots)
        mutations = st.tuples(st.just("add"), slots, st.sampled_from(WORDS))
        for step in data.draw(st.lists(st.one_of(calls, mutations), max_size=12), label="steps"):
            if step[0] == "add":
                _, i, word = step
                if isinstance(pool[i], set):
                    pool[i].add(word)
                continue
            _, e, m, u = step
            extracted, gold, universe = pool[e], pool[m], pool[u]
            if extracted <= universe and gold <= universe:
                expected = score(SPEC, len(extracted), len(extracted & gold), len(universe), len(gold))
                assert evaluate(extracted, gold, universe, SPEC) == expected
            else:
                with pytest.raises(ValueError):
                    evaluate(extracted, gold, universe, SPEC)


def _gold_variants(gold):
    """The index's gold, an equal copy, a strict subset and an equal mutable set."""
    variants = [gold, frozenset(sorted(gold)), set(gold)]
    if gold:
        variants.append(gold - {min(gold)})
    return variants


class TestExtractionCounts:
    """An extraction scored on its own index takes |E ∩ M| from its ranking's count table."""

    @settings(max_examples=60, deadline=None)
    @given(corpus=corpora())
    def test_every_point_matches_direct_counts(self, corpus):
        index = build_index(corpus, FilterConfig())
        universes = [index.words, frozenset(sorted(index.words))]
        for kind in Measure:
            top = 100 if kind.is_percent else max(index.doc_counts.values(), default=0) + 1
            for threshold in range(1, top + 1):
                spec = MeasureSpec(kind, threshold)
                extracted = extract(index, spec)
                words = set(extracted)
                for gold in _gold_variants(index.gold):
                    for universe in universes:
                        expected = score(
                            spec, len(words), len(words & gold), len(universe), len(gold)
                        )
                        assert evaluate(extracted, gold, universe, spec) == expected

    def test_count_comes_from_the_extraction_only_for_its_own_gold(self, fixture_corpus, config):
        index = build_index(fixture_corpus, config)
        spec = MeasureSpec(Measure.COLLECTION_FREQ, 100)
        extracted = extract(index, spec)
        true_positives = len(set(extracted) & index.gold)
        extracted.hits += 1  # a count that differs from the sets shows which path ran
        gold, equal, mutable, subset = _gold_variants(index.gold)
        for own in (gold, equal, equal, gold):
            assert evaluate(extracted, own, index.words, spec).true_positives == true_positives + 1
        for other in (mutable, subset, frozenset()):
            assert evaluate(extracted, other, index.words, spec).true_positives == len(
                set(extracted) & other
            )
        assert true_positives == len(index.gold) > 0

    def test_no_walk_over_the_extraction_on_its_own_index(self, fixture_corpus, config, monkeypatch):
        walks = _count_walks(monkeypatch)
        index = build_index(fixture_corpus, config)
        for kind in Measure:
            spec = MeasureSpec(kind, 1)
            evaluate(extract(index, spec), index.gold, index.words, spec)
        assert walks == []
        for kind in Measure:
            spec = MeasureSpec(kind, 1)
            # an equal but distinct universe walks E and M
            evaluate(extract(index, spec), index.gold, frozenset(sorted(index.words)), spec)
        assert walks.count("extracted") == len(Measure)
        assert walks.count("gold") == len(Measure)

    def test_no_walk_for_points_interleaved_over_two_indexes(self, fixture_corpus, monkeypatch):
        walks = _count_walks(monkeypatch)
        # two (gold, words) pairs of distinct objects, taken in turn
        indexes = [
            build_index(fixture_corpus, FilterConfig()),
            build_index(fixture_corpus, FilterConfig(case_fold=False)),
        ]
        for point in range(8):
            index = indexes[point % 2]
            spec = MeasureSpec(list(Measure)[point % 4], 1)
            extracted = extract(index, spec)
            row = evaluate(extracted, index.gold, index.words, spec)
            assert row.true_positives == len(set(extracted) & index.gold)
        assert walks == []

    def test_a_ranked_word_outside_the_words_is_still_rejected(self):
        index = CorpusIndex(
            collection_freq={"a": 1},
            per_document={"d0": {"a": 1, "z": 1}},
            doc_counts={"a": 1, "z": 1},
            gold=frozenset(),
        )
        spec = MeasureSpec(Measure.DOCUMENT_FREQ, 100)
        extracted = extract(index, spec)
        assert extracted == {"a", "z"}
        with pytest.raises(ValueError, match="extracted lexicon is not a subset.*'z'"):
            evaluate(extracted, index.gold, index.words, spec)

    def test_an_unranked_gold_word_is_still_rejected(self):
        index = CorpusIndex(
            collection_freq={"a": 1},
            per_document={"d0": {"a": 1}},
            doc_counts={"a": 1},
            gold=frozenset({"a", "z"}),
        )
        spec = MeasureSpec(Measure.COLLECTION_FREQ, 100)
        extracted = extract(index, spec)
        assert extracted == {"a"}
        with pytest.raises(ValueError, match="gold lexicon is not a subset.*'z'"):
            evaluate(extracted, index.gold, index.words, spec)

    def test_nothing_is_kept_alive(self, fixture_corpus, config):
        index = build_index(fixture_corpus, config)
        gold, universe = frozenset(sorted(index.gold)), index.words
        spec = MeasureSpec(Measure.TFIDF, 50)
        evaluate(extract(index, spec), index.gold, universe, spec)
        evaluate(extract(index, spec), gold, universe, spec)
        refs = [weakref.ref(obj) for obj in (index, index.gold, gold, universe)]
        del index, gold, universe
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None, None]
