import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexsweep import Measure, MeasureSpec, evaluate
from lexsweep.evaluation import f_measure

SPEC = MeasureSpec(Measure.COLLECTION_FREQ, 50)

word_sets = st.sets(st.sampled_from([f"w{i}" for i in range(12)]), max_size=12).map(
    frozenset
)


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
