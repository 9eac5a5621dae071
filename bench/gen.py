"""Seeded synthetic corpora for the benchmark, built as plain dicts.

The generator mirrors tests/test_acceptance.py::build_large_corpus: with
DEFAULT_SEED at the 1x scale it yields exactly
corpus_to_dict(build_large_corpus()).  It imports nothing from lexsweep
and serializes with json.dumps in a fixed compact format, so no change to
the program can alter the benchmark's inputs.
"""

from __future__ import annotations

import json
import random

DEFAULT_SEED = 163
# Chosen once and kept out of tuning; later performance claims are
# re-checked on it.
HELD_OUT_SEED = 90210

# (documents, tokens, distinct words) for each scale.
SCALES = {
    "1x": (163, 71888, 7185),
    "10x": (1630, 718880, 71850),
}
# A few hundred tokens per scale, for the smoke test.
TINY_SCALES = {
    "1x": (13, 720, 72),
    "10x": (26, 1440, 144),
}

SENTENCE_LENGTH = 24
ANNOTATED_SHARE = 0.34

# The single point that each ingest-10x operation evaluates.
INGEST_POINT = ("idf", 2)

# Points per measure in one points-1x batch.  The mix is fixed so a
# batch's time does not depend on the draw, and uneven so that p50 falls
# inside the df latencies and p95 inside the tfidf ones, not in the gap
# between two measures.
POINT_MIX = (("cf", 60), ("df", 60), ("tfidf", 60), ("idf", 20))


def generate(seed: int, n_documents: int, n_tokens: int, n_words: int) -> dict:
    """Return a corpus in the JSON interchange structure, as plain dicts."""
    rng = random.Random(seed)
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
        for s in range(0, len(chunk), SENTENCE_LENGTH):
            words = chunk[s : s + SENTENCE_LENGTH]
            sentences.append(
                {
                    "id": f"s{s // SENTENCE_LENGTH}",
                    "annotated": rng.random() < ANNOTATED_SHARE,
                    "tokens": [
                        {"surface": word, "pos": "NOUN" if i % 2 else "VERB"}
                        for i, word in enumerate(words)
                    ],
                }
            )
        documents.append({"id": f"d{d}", "sentences": sentences})
    return {"name": "large-synthetic", "documents": documents}


def dumps(corpus: dict) -> bytes:
    """Serialize a generated corpus in the benchmark's fixed JSON format."""
    return json.dumps(corpus, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def sample_points(seed: int, batch: int, max_doc_count: int) -> list[tuple[str, int]]:
    """The (measure, threshold) points of one batch, in a seeded order."""
    rng = random.Random(f"points:{seed}:{batch}")
    points = [
        (measure, rng.randint(1, 100 if measure != "idf" else max_doc_count))
        for measure, count in POINT_MIX
        for _ in range(count)
    ]
    rng.shuffle(points)
    return points
