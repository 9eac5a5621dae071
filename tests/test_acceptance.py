"""Acceptance gate: one test per release criterion.

Each test prints an ACCEPTANCE PASS/FAIL line (see conftest) so the gate
can be read off the pytest output directly.
"""

import hashlib
import random
import time

import pytest

from lexsweep import (
    FilterConfig,
    Measure,
    MeasureSpec,
    build_gold,
    build_index,
    evaluate,
    extract,
    run_all_sweeps,
    write_report_bundle,
)
from lexsweep.corpus import Corpus, Document, Sentence, Token
from lexsweep.evaluation import f_measure
from lexsweep.lexicon import build_universe
from lexsweep.cli import main

from gencorpus import seeded_corpora, with_all_annotated, without_sentence
from oracle import oracle_extract

CONFIG = FilterConfig()


def criterion(label):
    def mark(fn):
        fn.criterion = label
        return fn

    return mark


def full_threshold_range(kind: Measure, n_documents: int) -> range:
    # one past the document count, so the empty-set tail is exercised too
    return range(1, 101) if kind.is_percent else range(1, n_documents + 2)


@criterion("F-identity: reference operating points satisfy the harmonic mean within 0.0005")
def test_f_identity():
    assert f_measure(0.5414, 0.7218) == pytest.approx(0.6187, abs=0.0005)
    assert f_measure(0.7160, 0.4386) == pytest.approx(0.5440, abs=0.0005)


@criterion("oracle equivalence: 200 random corpora, all measures, full threshold range, < 60 s")
def test_oracle_equivalence():
    start = time.perf_counter()
    for corpus in seeded_corpora():
        index = build_index(corpus, CONFIG)
        for kind in Measure:
            for threshold in full_threshold_range(kind, index.n_documents):
                spec = MeasureSpec(kind, threshold)
                fast = extract(index, spec)
                slow = oracle_extract(corpus, CONFIG, spec)
                assert fast == slow, f"{corpus.name}: {kind.value}@{threshold}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f} s"


@criterion("monotonicity: nested extractions, monotone recall/fallout, exact endpoints")
def test_monotonicity_suite():
    for corpus in seeded_corpora():
        index = build_index(corpus, CONFIG)
        universe = build_universe(corpus, CONFIG)
        assert index.words == universe

        for kind in (Measure.COLLECTION_FREQ, Measure.DOCUMENT_FREQ, Measure.TFIDF):
            previous = frozenset()
            for percent in range(1, 101):
                current = extract(index, MeasureSpec(kind, percent))
                assert previous <= current <= universe
                previous = current
            assert previous == universe

        previous = universe
        for min_docs in range(1, index.n_documents + 2):
            current = extract(index, MeasureSpec(Measure.INTERDOC_FREQ, min_docs))
            assert current <= previous
            previous = current
        assert extract(index, MeasureSpec(Measure.INTERDOC_FREQ, 1)) == universe

        if not universe:
            with pytest.raises(ValueError):
                run_all_sweeps(build_index(corpus, CONFIG))
            continue
        for result in run_all_sweeps(build_index(corpus, CONFIG)):
            rows = result.rows
            if result.measure.is_percent:
                for earlier, later in zip(rows, rows[1:]):
                    assert earlier.recall <= later.recall
                    assert earlier.fallout <= later.fallout
                endpoint = rows[-1]
            else:
                for earlier, later in zip(rows, rows[1:]):
                    assert earlier.recall >= later.recall
                    assert earlier.fallout >= later.fallout
                endpoint = rows[0]
            assert endpoint.extracted_size == len(universe)
            assert endpoint.recall == 1.0


@criterion("gold-set property: M within U, unaffected by unannotated sentences, M = U when fully annotated")
def test_gold_set_property():
    for corpus in seeded_corpora():
        universe = build_universe(corpus, CONFIG)
        gold = build_gold(corpus, CONFIG)
        assert gold <= universe
        for document in corpus.documents:
            for sentence in document.sentences:
                if not sentence.annotated:
                    trimmed = without_sentence(corpus, document.id, sentence.id)
                    assert build_gold(trimmed, CONFIG) == gold
        annotated = with_all_annotated(corpus)
        assert build_gold(annotated, CONFIG) == build_universe(annotated, CONFIG)


@criterion("metric conventions: all metrics in [0,1], degenerate denominators use documented values")
def test_metric_conventions():
    spec = MeasureSpec(Measure.COLLECTION_FREQ, 50)
    rng = random.Random(404)
    for corpus in seeded_corpora():
        universe = build_universe(corpus, CONFIG)
        gold = build_gold(corpus, CONFIG)
        candidates = [
            frozenset(),
            universe,
            gold,
            frozenset(w for w in universe if rng.random() < 0.5),
        ]
        for extracted in candidates:
            row = evaluate(extracted, gold, universe, spec)
            for value in (row.precision, row.recall, row.f_measure, row.fallout):
                assert 0.0 <= value <= 1.0

    # empty extraction against a non-empty gold set
    row = evaluate(frozenset(), frozenset({"a"}), frozenset({"a", "b"}), spec)
    assert (row.precision, row.recall, row.f_measure, row.fallout) == (0.0, 0.0, 0.0, 0.0)
    # empty extraction against an empty gold set
    row = evaluate(frozenset(), frozenset(), frozenset({"a"}), spec)
    assert (row.precision, row.recall, row.f_measure, row.fallout) == (1.0, 1.0, 1.0, 0.0)
    # empty gold set: recall is 1.0 by convention
    row = evaluate(frozenset({"a"}), frozenset(), frozenset({"a"}), spec)
    assert row.recall == 1.0
    # universe equal to gold: fallout denominator is empty
    words = frozenset({"a", "b"})
    row = evaluate(frozenset({"a"}), words, words, spec)
    assert row.fallout == 0.0


@criterion("determinism: sweep twice on the fixture yields byte-identical CSV and SVG files")
def test_sweep_determinism(fixture_path, tmp_path):
    digests = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        assert main(["sweep", "--corpus", str(fixture_path), "--out", str(out_dir)]) == 0
        digests.append(
            {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in out_dir.iterdir()
            }
        )
    assert len(digests[0]) == 9
    assert digests[0] == digests[1]


@criterion("fixture regression: every documented fixture extraction reproduced exactly")
def test_fixture_regression(fixture_corpus):
    index = build_index(fixture_corpus, CONFIG)
    assert extract(index, MeasureSpec(Measure.COLLECTION_FREQ, 50)) == {"attack", "hostage"}
    assert extract(index, MeasureSpec(Measure.DOCUMENT_FREQ, 50)) == {
        "attack",
        "hostage",
        "negotiate",
    }
    assert extract(index, MeasureSpec(Measure.TFIDF, 25)) == {"attack", "negotiate"}
    assert extract(index, MeasureSpec(Measure.INTERDOC_FREQ, 2)) == {"hostage"}


def build_large_corpus(
    n_documents: int = 163, n_tokens: int = 71888, n_words: int = 7185
) -> Corpus:
    rng = random.Random(163)
    vocabulary = [f"word{i:04d}" for i in range(n_words)]
    # seed every word once, then fill with a Zipf-like draw
    stream = list(vocabulary)
    weights = [1.0 / (rank + 1) for rank in range(n_words)]
    stream.extend(rng.choices(vocabulary, weights=weights, k=n_tokens - n_words))
    rng.shuffle(stream)

    base, extra = divmod(n_tokens, n_documents)
    documents = []
    cursor = 0
    for d in range(n_documents):
        doc_size = base + (1 if d < extra else 0)
        chunk = stream[cursor : cursor + doc_size]
        cursor += doc_size
        sentences = []
        for s in range(0, len(chunk), 24):
            words = chunk[s : s + 24]
            sentences.append(
                Sentence(
                    id=f"s{s // 24}",
                    annotated=rng.random() < 0.34,
                    tokens=tuple(
                        Token(surface=word, pos="NOUN" if i % 2 else "VERB")
                        for i, word in enumerate(words)
                    ),
                )
            )
        documents.append(Document(id=f"d{d}", sentences=tuple(sentences)))
    return Corpus(name="large-synthetic", documents=tuple(documents))


@criterion("scale: full sweep report over 163 docs / ~72k tokens / ~7k words in < 10 s")
def test_scale_check(tmp_path):
    corpus = build_large_corpus()
    index = build_index(corpus, CONFIG)
    assert index.n_documents == 163
    assert sum(index.collection_freq.values()) == 71888
    assert len(index.words) == 7185

    start = time.perf_counter()
    results = run_all_sweeps(build_index(corpus, CONFIG))
    write_report_bundle(results, tmp_path / "report")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.1f} s"
    assert len(results) == 4


# SHA-256 of every bundle file, recorded before the extraction path was
# rewritten around a per-measure ranking; any change to these bytes is a
# change in behaviour.
GOLDEN_BUNDLES = {
    "fixture": {
        "cf.csv": "46a036561e1ca5aaee58a97dc6387d5a987b6ca09563576365ff47c91ef313d2",
        "cf.svg": "4cb772960d4fa775438c73ce159d5963d337e05e9518edd67f5397c589c5cd4e",
        "df.csv": "92434f33ab8237bc1411f1dfef76a8413c7470fb6ae7f4f09baccacc8549bcaf",
        "df.svg": "442459aa35b58d1894beebdf74a25fe134210c4112538c670c1f1d03b720e909",
        "idf.csv": "581f8361f48e8c69c067a9d748b12e8e50dec34321de9e09b2d19ef5e5f11f9f",
        "idf.svg": "e9480f26a10714f610d9b4a107fcd03252cb0f91e3d31b53b663f815e1f1e35f",
        "summary.csv": "5e0303e84a5f3b8e7aea04977c61b387ae895807f156cb1f9d7b4128956f8c50",
        "tfidf.csv": "56160f2079c9a7e1b3d5ee2256ed7c1c87afe7b5f65a7048aa208b822eece020",
        "tfidf.svg": "32f927a9d00b3b1235cd4dfbb70dd5b951cd438de588575ff4c496c12b85c589",
    },
    "large": {
        "cf.csv": "6693a82b35877043a6fde87472bbe201fcf497e2f7c497a2527df8a0af2bdf55",
        "cf.svg": "a3751efdab5d05407563bdf2c600eda8c7be5526cdde47cb18a9f83bd83e4cf0",
        "df.csv": "8de33666047a096c60c214a05c72b3c76952247b54ed9d6473c06e60df4624d9",
        "df.svg": "c9325df608c3a7d2e6d431834c308f16bd090e797dd5bb6bd3deceb43a524956",
        "idf.csv": "3cd6e039bbb7f6feb4b44f14c93e0584d158672f740e0ee944661f95036e8508",
        "idf.svg": "d53127bd1e80f258a34022222ce56cb90252d555bc9a69b91959dc17c628cd00",
        "summary.csv": "79a60fb5ede15788880b00c1fb9ac61c79b439f95ade0d6d289ef441db8df58d",
        "tfidf.csv": "faad10005d490feec28d517bf6da7b987afcff2788c3f3aeb283449cc6536b5c",
        "tfidf.svg": "3f1e82ada14319ad9f080e7a80ac43882c856313f0aed6e7703bc903dcdda6e9",
    },
}


@criterion("golden bundles: fixture and large-corpus reports match their recorded SHA-256 digests")
@pytest.mark.parametrize("name", sorted(GOLDEN_BUNDLES))
def test_golden_bundle(name, fixture_corpus, tmp_path):
    corpus = fixture_corpus if name == "fixture" else build_large_corpus()
    write_report_bundle(run_all_sweeps(build_index(corpus, CONFIG)), tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == GOLDEN_BUNDLES[name]
