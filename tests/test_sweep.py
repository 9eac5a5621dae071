import dataclasses
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexsweep import (
    FilterConfig, Measure, MeasureSpec, build_index, evaluate, load_corpus, run_all_sweeps,
)
from lexsweep import sweep
from lexsweep.corpus import Corpus, Document, Sentence, Token
from lexsweep.lexicon import WordKeySource
from lexsweep.measures import ranking
from lexsweep.evaluation import score
from lexsweep.sweep import best_row, threshold_range

from gencorpus import POS_POOL, WORD_POOL, corpora
from oracle import oracle_extract, oracle_gold, oracle_universe


def sweep_of(corpus, config, kind, **kwargs):
    """The sweep for one measure, selected from run_all_sweeps."""
    index = build_index(corpus, config)
    return next(r for r in run_all_sweeps(index, **kwargs) if r.measure is kind)


class TestThresholdRange:
    def test_percent_measures(self, fixture_corpus, config):
        index = build_index(fixture_corpus, config)
        for kind in (Measure.COLLECTION_FREQ, Measure.DOCUMENT_FREQ, Measure.TFIDF):
            assert threshold_range(kind, index) == range(1, 101)

    def test_interdoc_range_from_data(self, fixture_corpus, config):
        index = build_index(fixture_corpus, config)
        assert threshold_range(Measure.INTERDOC_FREQ, index) == range(1, 3)


class TestFixtureSweeps:
    def test_collection_freq_sweep(self, fixture_corpus, config):
        result = sweep_of(fixture_corpus, config, Measure.COLLECTION_FREQ)
        assert len(result.rows) == 100
        assert [row.threshold for row in result.rows] == list(range(1, 101))
        assert result.best_f.threshold == 26
        assert result.best_f.f_measure == 1.0
        assert result.best_f_under_cap is not None
        assert result.best_f_under_cap.threshold == 26
        assert result.rows[-1].recall == 1.0
        assert all(row.universe_size == 4 and row.gold_size == 2 for row in result.rows)

    def test_document_freq_sweep(self, fixture_corpus, config):
        result = sweep_of(fixture_corpus, config, Measure.DOCUMENT_FREQ)
        assert result.best_f.threshold == 34
        assert result.best_f.f_measure == pytest.approx(0.8)
        # every DF row extracts a non-gold word, so nothing clears a 0.1 cap
        assert result.best_f_under_cap is None

    def test_tfidf_sweep(self, fixture_corpus, config):
        result = sweep_of(fixture_corpus, config, Measure.TFIDF)
        assert result.best_f.threshold == 51
        assert result.best_f.f_measure == pytest.approx(2 / 3)
        assert result.best_f_under_cap is None

    def test_interdoc_sweep_breaks_tie_toward_smaller_threshold(
        self, fixture_corpus, config
    ):
        result = sweep_of(fixture_corpus, config, Measure.INTERDOC_FREQ)
        assert len(result.rows) == 2
        assert [row.threshold for row in result.rows] == [1, 2]
        assert result.rows[0].f_measure == result.rows[1].f_measure
        assert result.best_f.threshold == 1
        assert result.best_f_under_cap is not None
        assert result.best_f_under_cap.threshold == 2

    def test_rows_match_oracle_reevaluation(self, fixture_corpus, config):
        universe = oracle_universe(fixture_corpus, config)
        gold = oracle_gold(fixture_corpus, config)
        for result in run_all_sweeps(build_index(fixture_corpus, config)):
            for row in result.rows:
                spec = MeasureSpec(result.measure, row.threshold)
                expected = evaluate(
                    oracle_extract(fixture_corpus, config, spec), gold, universe, spec
                )
                assert row == expected

    def test_run_all_sweeps_order_and_cap(self, fixture_corpus, config):
        results = run_all_sweeps(build_index(fixture_corpus, config), fallout_cap=0.25)
        assert [r.measure for r in results] == list(Measure)
        assert all(r.fallout_cap == 0.25 for r in results)

    def test_repeat_runs_identical(self, fixture_corpus, config):
        first = run_all_sweeps(build_index(fixture_corpus, config))
        second = run_all_sweeps(build_index(fixture_corpus, config))
        assert first == second

    def test_monotone_metrics_along_percent_sweeps(self, fixture_corpus, config):
        for kind in (Measure.COLLECTION_FREQ, Measure.DOCUMENT_FREQ, Measure.TFIDF):
            rows = sweep_of(fixture_corpus, config, kind).rows
            for earlier, later in zip(rows, rows[1:]):
                assert earlier.extracted_size <= later.extracted_size
                assert earlier.recall <= later.recall
                assert earlier.fallout <= later.fallout

    def test_interdoc_metrics_antitone(self, fixture_corpus, config):
        rows = sweep_of(fixture_corpus, config, Measure.INTERDOC_FREQ).rows
        for earlier, later in zip(rows, rows[1:]):
            assert earlier.extracted_size >= later.extracted_size
            assert earlier.recall >= later.recall
            assert earlier.fallout >= later.fallout


class TestValidation:
    @pytest.mark.parametrize("cap", [-0.1, 1.5])
    def test_fallout_cap_bounds(self, fixture_corpus, config, cap):
        with pytest.raises(ValueError, match="fallout cap"):
            run_all_sweeps(build_index(fixture_corpus, config), fallout_cap=cap)

    def test_zero_cap_allowed(self, fixture_corpus, config):
        result = sweep_of(fixture_corpus, config, Measure.COLLECTION_FREQ, fallout_cap=0.0)
        assert result.best_f_under_cap is not None
        assert result.best_f_under_cap.fallout == 0.0

    def test_empty_universe_rejected(self, config):
        corpus = Corpus(
            name="function-words",
            documents=(
                Document(
                    id="d1",
                    sentences=(
                        Sentence(id="s1", annotated=False, tokens=(Token("the", "DET"),)),
                    ),
                ),
            ),
        )
        with pytest.raises(ValueError, match="no content vocabulary"):
            run_all_sweeps(build_index(corpus, config))


def test_cap_row_never_exceeds_cap(fixture_corpus, config):
    for cap in (0.0, 0.1, 0.5, 1.0):
        for result in run_all_sweeps(build_index(fixture_corpus, config), fallout_cap=cap):
            if result.best_f_under_cap is not None:
                assert result.best_f_under_cap.fallout <= cap
                assert result.best_f_under_cap.f_measure <= result.best_f.f_measure


def exact_f(row) -> Fraction:
    total = row.extracted_size + row.gold_size
    return Fraction(2 * row.true_positives, total) if total else Fraction(1)


def rows_from_counts(gold_size, non_gold, counts):
    """Sweep rows at thresholds 1, 2, ... from (|E|, |E ∩ M|) pairs."""
    spec = MeasureSpec(Measure.COLLECTION_FREQ, 1)
    return [
        dataclasses.replace(score(spec, e, tp, gold_size + non_gold, gold_size), threshold=t)
        for t, (e, tp) in enumerate(counts, start=1)
    ]


@st.composite
def count_rows(draw):
    gold_size, non_gold = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    pairs = st.tuples(st.integers(0, gold_size), st.integers(0, non_gold))
    counts = draw(st.lists(pairs.map(lambda p: (p[0] + p[1], p[0])), min_size=1, max_size=30))
    return rows_from_counts(gold_size, non_gold, counts)


CAPS = st.none() | st.sampled_from([0.0, 0.1, 0.375, 0.5, 1.0])


class TestExactBestF:
    """Best F is chosen on the exact fraction 2·|E ∩ M| / (|E| + |M|)."""

    def test_tie_that_rounds_apart_goes_to_the_smaller_threshold(self, best_f_tie_path, config):
        # Ten nouns counted 10 down to 1; the one annotated sentence holds w3
        # and w9.  At 31 % a percent measure keeps 4 words with 1 gold, at
        # 91 % all 10 with 2: F is 1/3 at both, but the floats differ.
        index = build_index(load_corpus(best_f_tie_path), config)
        for result in run_all_sweeps(index, fallout_cap=0.5):
            if result.measure is Measure.INTERDOC_FREQ:
                continue
            at_31, at_91 = result.rows[30], result.rows[90]
            assert (at_31.extracted_size, at_31.true_positives) == (4, 1)
            assert (at_91.extracted_size, at_91.true_positives) == (10, 2)
            assert at_91.f_measure > at_31.f_measure  # the float rounding
            assert result.best_f == at_31
            assert result.best_f.fallout == 0.375
            assert result.best_f_under_cap == at_31

    @given(rows=count_rows(), cap=CAPS)
    @example(rows=rows_from_counts(2, 8, [(4, 1), (10, 2), (0, 0)]), cap=None)
    @example(rows=rows_from_counts(0, 1, [(1, 0), (0, 0), (1, 0)]), cap=0.0)
    @example(rows=rows_from_counts(0, 1, [(1, 0), (0, 0)]), cap=None)  # |E| = |M| = 0 is F = 1
    def test_matches_a_fraction_argmax(self, rows, cap):
        for row in rows:  # F's float is the fraction, rounded
            assert row.f_measure == pytest.approx(float(exact_f(row)))
        kept = [row for row in rows if cap is None or row.fallout <= cap]
        top = max(map(exact_f, kept), default=None)
        expected = next((row for row in kept if exact_f(row) == top), None)
        assert best_row(rows, cap) is expected


def _corpus(*documents):
    """A corpus of documents given as lists of (annotated, words) sentences, every word a noun."""
    return Corpus(
        name="example",
        documents=tuple(
            Document(
                id=f"d{d}",
                sentences=tuple(
                    Sentence(
                        id=f"s{s}",
                        annotated=annotated,
                        tokens=tuple(Token(word, "NOUN") for word in words),
                    )
                    for s, (annotated, words) in enumerate(sentences)
                ),
            )
            for d, sentences in enumerate(documents)
        ),
    )


ONE_DOCUMENT = _corpus([(True, ["attack", "hostage"]), (False, ["storm", "storm", "rain"])])
EMPTY_GOLD = _corpus([(False, ["storm", "rain"])], [(False, ["storm", "flood"])])
GOLD_IS_UNIVERSE = _corpus([(True, ["attack", "police"])], [(True, ["attack"])])
WORD_IN_EVERY_DOCUMENT = _corpus(
    [(True, ["storm", "attack"])], [(False, ["storm"])], [(False, ["rain", "storm"])]
)

filter_configs = st.builds(
    FilterConfig,
    stopwords=st.frozensets(st.sampled_from(WORD_POOL[:30]), max_size=4),
    content_pos=st.frozensets(st.sampled_from(POS_POOL), min_size=1),
    word_key_source=st.sampled_from(WordKeySource),
    case_fold=st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(corpus=corpora(), config=filter_configs)
@example(corpus=ONE_DOCUMENT, config=FilterConfig())
@example(corpus=EMPTY_GOLD, config=FilterConfig())
@example(corpus=GOLD_IS_UNIVERSE, config=FilterConfig())
@example(corpus=WORD_IN_EVERY_DOCUMENT, config=FilterConfig())
def test_counted_rows_equal_oracle_reevaluation(corpus, config):
    universe = oracle_universe(corpus, config)
    if not universe:
        with pytest.raises(ValueError, match="no content vocabulary"):
            run_all_sweeps(build_index(corpus, config))
        return
    gold = oracle_gold(corpus, config)
    for result in run_all_sweeps(build_index(corpus, config)):
        thresholds = [row.threshold for row in result.rows]
        assert thresholds == list(range(1, len(thresholds) + 1))
        if result.measure.is_percent:
            assert len(thresholds) == 100
        else:
            # idf rows run up to the largest count with a non-empty extraction
            last = MeasureSpec(result.measure, len(thresholds) + 1)
            assert result.rows[-1].extracted_size > 0
            assert oracle_extract(corpus, config, last) == frozenset()
        for row in result.rows:
            spec = MeasureSpec(result.measure, row.threshold)
            expected = evaluate(oracle_extract(corpus, config, spec), gold, universe, spec)
            assert row == expected, f"{spec.kind.value}@{spec.threshold}"


class TestCountedSweep:
    """Rows are scored from counts; extract and evaluate only re-check the selected rows."""

    def test_extract_and_evaluate_at_most_twice_per_measure(
        self, fixture_corpus, config, monkeypatch
    ):
        calls = Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name, args[-1].kind] += 1
                return fn(*args)

            return counted

        monkeypatch.setattr(sweep, "extract", counting("extract", sweep.extract))
        monkeypatch.setattr(sweep, "evaluate", counting("evaluate", sweep.evaluate))
        run_all_sweeps(build_index(fixture_corpus, config))
        assert {kind for _, kind in calls} == set(Measure)
        assert max(calls.values()) <= 2

    def test_a_wrong_evaluate_is_caught(self, fixture_corpus, config, monkeypatch):
        def halving(*args):
            row = evaluate(*args)
            return dataclasses.replace(row, precision=row.precision / 2)

        monkeypatch.setattr(sweep, "evaluate", halving)
        with pytest.raises(RuntimeError, match="disagrees with extract"):
            run_all_sweeps(build_index(fixture_corpus, config))

    def test_a_corrupted_count_table_is_caught(self, fixture_corpus, config):
        index = build_index(fixture_corpus, config)
        hits = ranking(index, Measure.COLLECTION_FREQ).hits
        hits[1:] = [count + 1 for count in hits[1:]]
        with pytest.raises(RuntimeError, match="disagrees with extract"):
            run_all_sweeps(index)
