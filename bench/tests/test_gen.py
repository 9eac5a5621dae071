"""The benchmark's inputs and its reference model.

Run from the repository root:  PYTHONPATH=src python3 -m pytest bench/tests
"""

import pytest

import gen
import reference
from lexsweep import (
    FilterConfig,
    Measure,
    MeasureSpec,
    build_gold,
    build_index,
    corpus_to_dict,
    extract,
    parse_corpus,
)


def test_default_seed_is_the_acceptance_corpus():
    from test_acceptance import build_large_corpus

    assert gen.generate(gen.DEFAULT_SEED, *gen.SCALES["1x"]) == corpus_to_dict(build_large_corpus())


def test_same_seed_same_bytes():
    sizes = gen.TINY_SCALES["10x"]
    assert gen.dumps(gen.generate(7, *sizes)) == gen.dumps(gen.generate(7, *sizes))
    assert gen.dumps(gen.generate(7, *sizes)) != gen.dumps(gen.generate(8, *sizes))


def test_points_are_seeded_and_in_range():
    points = gen.sample_points(7, 0, 13)
    assert points == gen.sample_points(7, 0, 13) != gen.sample_points(7, 1, 13)
    assert len(points) == sum(count for _, count in gen.POINT_MIX)
    assert all(1 <= t <= (13 if m == "idf" else 100) for m, t in points)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reference_model_matches_the_program(seed):
    corpus = gen.generate(seed, *gen.TINY_SCALES["1x"])
    model = reference.build_model(corpus)
    parsed = parse_corpus(gen.dumps(corpus))
    config = FilterConfig()
    index = build_index(parsed, config)
    assert model.universe == index.words
    assert model.gold == build_gold(parsed, config)
    for kind in Measure:
        rows = model.rows(kind.value)
        assert [r.threshold for r in rows] == list(model.thresholds(kind.value))
        for row in rows:
            words = model.selected(kind.value, row.threshold)
            assert frozenset(words) == extract(index, MeasureSpec(kind, row.threshold))
            assert row.extracted == len(words)
            assert row.true_positives == len(model.gold.intersection(words))

