import pytest

from lexsweep import (
    Corpus,
    Document,
    FilterConfig,
    Measure,
    MeasureSpec,
    Sentence,
    Token,
    build_gold,
    build_index,
    build_universe,
    evaluate,
    run_all_sweeps,
    run_sweep,
    threshold_range,
)

from oracle import oracle_extract


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
        result = run_sweep(fixture_corpus, config, Measure.COLLECTION_FREQ)
        assert len(result.rows) == 100
        assert [row.threshold for row in result.rows] == list(range(1, 101))
        assert result.best_f.threshold == 26
        assert result.best_f.f_measure == 1.0
        assert result.best_f_under_cap is not None
        assert result.best_f_under_cap.threshold == 26
        assert result.rows[-1].recall == 1.0
        assert all(row.universe_size == 4 and row.gold_size == 2 for row in result.rows)

    def test_document_freq_sweep(self, fixture_corpus, config):
        result = run_sweep(fixture_corpus, config, Measure.DOCUMENT_FREQ)
        assert result.best_f.threshold == 34
        assert result.best_f.f_measure == pytest.approx(0.8)
        # every DF row extracts a non-gold word, so nothing clears a 0.1 cap
        assert result.best_f_under_cap is None

    def test_tfidf_sweep(self, fixture_corpus, config):
        result = run_sweep(fixture_corpus, config, Measure.TFIDF)
        assert result.best_f.threshold == 51
        assert result.best_f.f_measure == pytest.approx(2 / 3)
        assert result.best_f_under_cap is None

    def test_interdoc_sweep_breaks_tie_toward_smaller_threshold(
        self, fixture_corpus, config
    ):
        result = run_sweep(fixture_corpus, config, Measure.INTERDOC_FREQ)
        assert len(result.rows) == 2
        assert [row.threshold for row in result.rows] == [1, 2]
        assert result.rows[0].f_measure == result.rows[1].f_measure
        assert result.best_f.threshold == 1
        assert result.best_f_under_cap is not None
        assert result.best_f_under_cap.threshold == 2

    def test_rows_match_oracle_reevaluation(self, fixture_corpus, config):
        universe = build_universe(fixture_corpus, config)
        gold = build_gold(fixture_corpus, config)
        for result in run_all_sweeps(fixture_corpus, config):
            for row in result.rows:
                spec = MeasureSpec(result.measure, row.threshold)
                expected = evaluate(
                    oracle_extract(fixture_corpus, config, spec), gold, universe, spec
                )
                assert row == expected

    def test_run_all_sweeps_order_and_cap(self, fixture_corpus, config):
        results = run_all_sweeps(fixture_corpus, config, fallout_cap=0.25)
        assert [r.measure for r in results] == list(Measure)
        assert all(r.fallout_cap == 0.25 for r in results)

    def test_repeat_runs_identical(self, fixture_corpus, config):
        first = run_all_sweeps(fixture_corpus, config)
        second = run_all_sweeps(fixture_corpus, config)
        assert first == second

    def test_monotone_metrics_along_percent_sweeps(self, fixture_corpus, config):
        for kind in (Measure.COLLECTION_FREQ, Measure.DOCUMENT_FREQ, Measure.TFIDF):
            rows = run_sweep(fixture_corpus, config, kind).rows
            for earlier, later in zip(rows, rows[1:]):
                assert earlier.extracted_size <= later.extracted_size
                assert earlier.recall <= later.recall
                assert earlier.fallout <= later.fallout

    def test_interdoc_metrics_antitone(self, fixture_corpus, config):
        rows = run_sweep(fixture_corpus, config, Measure.INTERDOC_FREQ).rows
        for earlier, later in zip(rows, rows[1:]):
            assert earlier.extracted_size >= later.extracted_size
            assert earlier.recall >= later.recall
            assert earlier.fallout >= later.fallout


class TestValidation:
    @pytest.mark.parametrize("cap", [-0.1, 1.5])
    def test_fallout_cap_bounds(self, fixture_corpus, config, cap):
        with pytest.raises(ValueError, match="fallout cap"):
            run_sweep(fixture_corpus, config, Measure.COLLECTION_FREQ, fallout_cap=cap)
        with pytest.raises(ValueError, match="fallout cap"):
            run_all_sweeps(fixture_corpus, config, fallout_cap=cap)

    def test_zero_cap_allowed(self, fixture_corpus, config):
        result = run_sweep(fixture_corpus, config, Measure.COLLECTION_FREQ, fallout_cap=0.0)
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
            run_sweep(corpus, config, Measure.COLLECTION_FREQ)
        with pytest.raises(ValueError, match="no content vocabulary"):
            run_all_sweeps(corpus, config)


def test_cap_row_never_exceeds_cap(fixture_corpus, config):
    for cap in (0.0, 0.1, 0.5, 1.0):
        for result in run_all_sweeps(fixture_corpus, config, fallout_cap=cap):
            if result.best_f_under_cap is not None:
                assert result.best_f_under_cap.fallout <= cap
                assert result.best_f_under_cap.f_measure <= result.best_f.f_measure
